"""Outside-in layer trace: spans around every function of the repro layers.

:class:`LayerTrace` wraps, from outside the program, every function and
method defined in the simulator's layer packages (dunder methods and
properties excepted). Each call is a span: its start and end come from
``time.perf_counter_ns`` and its parent is the span below it on the
trace's stack. A generator function's span covers every resume of the
generator, so coroutine bodies (client operations, geo injections) are
charged to their own layer rather than to the process that drives them.

Closed spans are folded into per-name totals (calls and self time:
duration minus the time of child spans) at once. The totals are what the
benchmark reports, and keeping tens of millions of closed spans would
itself dominate the run's memory.

Installing the trace must not change behaviour: the benchmark checks
that a traced run sends the same messages at the same virtual instants
as an untraced one.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import sys
import time
import types
from typing import Any, Callable, Dict, List, Tuple

#: repro packages whose functions are wrapped; their time is attributed
#: to layers by :func:`bucket`
PACKAGES = ("sim", "kernelcore", "net", "core", "storage", "cluster", "workload", "metrics")

#: modules reported on their own; the rest of their package folds into
#: ``<package>.other``
_OWN_MODULES = {
    "sim": ("kernel", "process", "hlc"),
    "net": ("network", "message", "actor"),
}
#: the flat kernel cores serve the sim and storage shells
_KERNELCORE = {"eventcore": "sim.kernel", "hlccore": "sim.hlc", "vvcore": "storage"}

_clock = time.perf_counter_ns


def handler_type(method: str) -> str:
    """``on_chain_put`` → ``chain-put``; ``rpc_get`` → ``rpc-get``."""
    if method.startswith("on_"):
        method = method[3:]
    return method.replace("_", "-")


def bucket(span: str) -> str:
    """The reported layer of a span named ``<module>:<qualname>``."""
    module, _, qualname = span.partition(":")
    package, _, name = module.partition(".")
    if package == "bench":
        return "other"
    if package == "kernelcore":
        return _KERNELCORE.get(name, "sim.other")
    if package in _OWN_MODULES:
        return f"{package}.{name}" if name in _OWN_MODULES[package] else f"{package}.other"
    if package == "core":
        method = qualname.rpartition(".")[2]
        if method.startswith(("on_", "rpc_")):
            return "core.handler." + handler_type(method)
        return "core.client" if name == "client" else "core.other"
    return package


class _TracedGenerator:
    """Generator stand-in that times every resume as a span."""

    __slots__ = ("_gen", "_record", "_stack")

    def __init__(self, gen: Any, record: List[int], stack: List[List[int]]) -> None:
        self._gen = gen
        self._record = record
        self._stack = stack

    @property
    def __name__(self) -> str:
        return self._gen.__name__

    def __iter__(self) -> "_TracedGenerator":
        return self

    def __next__(self) -> Any:
        return self.send(None)

    def send(self, value: Any) -> Any:
        stack = self._stack
        frame = [0]
        stack.append(frame)
        start = _clock()
        try:
            return self._gen.send(value)
        finally:
            elapsed = _clock() - start
            stack.pop()
            stack[-1][0] += elapsed
            self._record[1] += elapsed - frame[0]

    def throw(self, *exc: Any) -> Any:
        stack = self._stack
        frame = [0]
        stack.append(frame)
        start = _clock()
        try:
            return self._gen.throw(*exc)
        finally:
            elapsed = _clock() - start
            stack.pop()
            stack[-1][0] += elapsed
            self._record[1] += elapsed - frame[0]

    def close(self) -> None:
        self._gen.close()


class LayerTrace:
    """Install with :meth:`install`, remove with :meth:`uninstall`.

    ``stack[0]`` is the root frame: the benchmark's own code between
    calls into the program. :meth:`reset` opens a fresh window and
    :meth:`snapshot` reads it.
    """

    def __init__(self) -> None:
        self.stack: List[List[int]] = [[0]]
        #: span name → [calls, self ns]
        self.records: Dict[str, List[int]] = {}
        self._patches: List[Tuple[Any, str, Any]] = []
        self._window_start = 0

    # ------------------------------------------------------------------
    # wrapping
    # ------------------------------------------------------------------
    def wrap(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        """``fn`` recorded as span ``name`` on every call."""
        record = self.records.setdefault(name, [0, 0])
        stack = self.stack
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def start_generator(*args: Any, **kwargs: Any) -> _TracedGenerator:
                record[0] += 1
                return _TracedGenerator(fn(*args, **kwargs), record, stack)

            return start_generator

        @functools.wraps(fn)
        def call(*args: Any, **kwargs: Any) -> Any:
            frame = [0]
            stack.append(frame)
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = _clock() - start
                stack.pop()
                stack[-1][0] += elapsed
                record[0] += 1
                record[1] += elapsed - frame[0]

        return call

    def install(self) -> None:
        """Wrap every function and method of :data:`PACKAGES`."""
        # Collected first so an object bound to two names is wrapped once.
        defined: Dict[int, Tuple[Any, str]] = {}
        for module in _layer_modules():
            short = module.__name__[len("repro."):]
            for value in vars(module).values():
                if isinstance(value, (types.FunctionType, type)) and value.__module__ == module.__name__:
                    defined[id(value)] = (value, short)
        wrapped: Dict[int, Tuple[Any, Any]] = {}
        for value, short in defined.values():
            if isinstance(value, type):
                self._wrap_class(value, short)
            else:
                wrapped[id(value)] = (value, self.wrap(value, f"{short}:{value.__qualname__}"))
        # Rebind module-level functions wherever a module imported them.
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def _wrap_class(self, cls: type, short: str) -> None:
        for attr, value in list(vars(cls).items()):
            if attr.startswith("__") and attr.endswith("__"):
                continue
            if isinstance(value, types.FunctionType):
                new: Any = self.wrap(value, f"{short}:{value.__qualname__}")
            elif isinstance(value, staticmethod):
                new = staticmethod(self.wrap(value.__func__, f"{short}:{value.__func__.__qualname__}"))
            elif isinstance(value, classmethod):
                new = classmethod(self.wrap(value.__func__, f"{short}:{value.__func__.__qualname__}"))
            else:
                continue
            self._patches.append((cls, attr, value))
            setattr(cls, attr, new)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    # ------------------------------------------------------------------
    # windows
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Zero every total; the window starts now."""
        for record in self.records.values():
            record[0] = record[1] = 0
        del self.stack[1:]
        self.stack[0][0] = 0
        self._window_start = _clock()

    def snapshot(self) -> Dict[str, Any]:
        """Totals since :meth:`reset`, by span name, plus the root's self
        time and whether every span opened in the window has closed."""
        wall = _clock() - self._window_start
        return {
            "spans": {name: tuple(rec) for name, rec in self.records.items() if rec[0] or rec[1]},
            "root_self_ns": wall - self.stack[0][0],
            "balanced": len(self.stack) == 1,
        }


def _layer_modules() -> List[types.ModuleType]:
    """Import and return every module of :data:`PACKAGES`."""
    out = []
    for package_name in PACKAGES:
        package = importlib.import_module(f"repro.{package_name}")
        out.append(package)
        for info in pkgutil.walk_packages(package.__path__, prefix=f"repro.{package_name}."):
            out.append(importlib.import_module(info.name))
    return out


def layer_self_ns(spans: Dict[str, Tuple[int, int]]) -> Dict[str, int]:
    """Self time per reported layer."""
    out: Dict[str, int] = {}
    for name, (_calls, self_ns) in spans.items():
        layer = bucket(name)
        out[layer] = out.get(layer, 0) + self_ns
    return out


def calls_of(spans: Dict[str, Tuple[int, int]], name: str) -> int:
    return spans.get(name, (0, 0))[0]
