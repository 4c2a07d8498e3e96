"""One trial of a workload: build, preload, warm up, measure, drain.

A trial builds a fresh deployment from the workload and the seed, so
every trial at one seed performs exactly the same simulated work. Its
virtual-time metrics are therefore identical across trials, which the
benchmark checks, and only the wall time of each phase varies.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import time
from typing import Any, Dict, List, Optional, Set

from repro.baselines.registry import build_store
from repro.checker.causal import check_causal
from repro.metrics.memory import census_totals, memory_census
from repro.metrics.protocol import stability_plane_stats
from repro.metrics.reservoir import LatencyReservoir
from repro.storage.version import clear_intern_pool, intern_stats
from repro.workload.driver import SessionDriver, WorkloadRunner
from repro.workload.ycsb import WorkloadSpec

from layers import LayerTrace
from workloads import ACK_K, CHAIN_LENGTH, SERVERS_PER_SITE, SITES, VALUE_SIZE, Workload

#: keeps every latency sample: percentiles are exact, not sampled
_RESERVOIR = 1 << 20

#: the end-to-end metrics measured in virtual time
VIRTUAL_METRICS = (
    "get_p50_ms", "get_p99_ms", "put_p50_ms", "put_p99_ms",
    "visibility_p50_ms", "visibility_p99_ms", "sim_ops_per_s",
    "wire_bytes_per_op", "failed_op_frac",
)


class _TouchingDriver(SessionDriver):
    """The runner's closed-loop driver, remembering every key it used so
    the trial can check that those keys converged."""

    def __init__(self, *, touched: Set[str], **kwargs: Any) -> None:
        super().__init__(**kwargs)
        self._touched = touched

    def _next_request(self):
        request = super()._next_request()
        self._touched.add(request[1])
        return request


class _SendDigest:
    """sha256 over every ``Network.send``: virtual instant, endpoints and
    message type, in send order."""

    def __init__(self, network: Any, trace: Optional[LayerTrace]) -> None:
        self._network = network
        self._inner = network.send
        self._hash = hashlib.sha256()
        send = self._send if trace is None else trace.wrap(self._send, "bench:digest")
        network.send = send  # the instance attribute shadows the method

    def _send(self, src: Any, dst: Any, msg: Any) -> None:
        # Address fields rather than str(address): same bytes, less time
        # spent inside the measured window.
        self._hash.update(
            f"{self._network.sim.now.hex()}|{src.site}:{src.node}|{dst.site}:{dst.node}"
            f"|{msg.type_name}\n".encode()
        )
        self._inner(src, dst, msg)

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


@dataclasses.dataclass
class Trial:
    #: wall seconds of build, preload, warmup, measure and drain
    phases: Dict[str, float]
    #: operations completed inside the measure window
    ops: int
    #: operations the runner measured (returned at or after the window
    #: opened) and operations that exhausted their retries
    measured: int
    failed: int
    #: virtual-time metrics and their sample counts; seed-deterministic
    virtual: Dict[str, float]
    #: measure-window counters behind the per-layer metrics
    counts: Dict[str, Any]
    digest: str
    unresolved: int
    diverged: int
    spans: Optional[Dict[str, Any]] = None


def _runner(workload: Workload, seed: int, touched: Set[str], **kwargs: Any) -> WorkloadRunner:
    """A fresh deployment of ``workload`` and the runner that drives it;
    the drivers add every key they use to ``touched``."""
    store = build_store(
        "chainreaction",
        sites=SITES,
        servers_per_site=SERVERS_PER_SITE,
        chain_length=CHAIN_LENGTH,
        ack_k=ACK_K,
        seed=seed,
        overrides=dict(workload.overrides),
    )
    spec = WorkloadSpec(
        workload.name,
        read_proportion=workload.read_proportion,
        update_proportion=1.0 - workload.read_proportion,
        record_count=workload.record_count,
        distribution=workload.distribution,
        value_size=VALUE_SIZE,
    )

    def driver(**driver_kwargs: Any) -> _TouchingDriver:
        return _TouchingDriver(touched=touched, **driver_kwargs)

    return WorkloadRunner(
        store, spec, n_clients=workload.n_clients, drain=workload.drain,
        driver_factory=driver, **kwargs,
    )


def _timed_runner(workload: Workload, seed: int, touched: Set[str]) -> WorkloadRunner:
    """The deployment and runner of a timed trial."""
    return _runner(
        workload, seed, touched, duration=workload.measure, warmup=workload.warmup,
        record_history=False, reservoir_capacity=_RESERVOIR,
    )


def _unresolved(runner: WorkloadRunner) -> int:
    return sum(1 for d in runner.drivers if not d.process.done())


def _diverged(runner: WorkloadRunner, touched: Set[str]) -> int:
    return sum(1 for key in touched if not runner.store.converged(key))


def _percentiles(samples: List[float]) -> Dict[str, float]:
    reservoir = LatencyReservoir(max(1, len(samples)), seed=0)
    reservoir.extend(samples)
    return _ms(reservoir)


def _ms(reservoir: LatencyReservoir) -> Dict[str, float]:
    return {
        "p50_ms": reservoir.percentile(50) * 1000,
        "p99_ms": reservoir.percentile(99) * 1000,
        "n": reservoir.count,
    }


def _counters(store: Any, result: Any) -> Dict[str, Any]:
    net = store.network.stats
    plane = stability_plane_stats(store)
    pool = intern_stats()
    proxies = store.proxies.values()
    return {
        "ops": result.ops_completed,
        "puts": result.put_latency.count,
        "events": store.sim.events_processed,
        "sends": net.messages_sent,
        "bytes": net.bytes_sent,
        "cross_site_bytes": net.cross_site_bytes,
        "by_type": dict(net.by_type),
        "visibility": [len(p.visibility_samples) for p in proxies],
        "stability_msgs": plane["stability_messages"],
        "stability_bytes": plane["stability_bytes"],
        "dep_waits": sum(n.dep_waits for n in store.servers()),
        "forwarded": sum(
            getattr(p, "forwarded_gets_served", 0) + getattr(p, "forwarded_puts_served", 0)
            for p in proxies
        ),
        "intern_hits": pool["hits"],
        "intern_misses": pool["misses"],
    }


def _delta(after: Dict[str, Any], before: Dict[str, Any]) -> Dict[str, Any]:
    out: Dict[str, Any] = {}
    for name, value in after.items():
        if name == "by_type":
            sent = {kind: n - before[name].get(kind, 0) for kind, n in value.items()}
            out[name] = {kind: n for kind, n in sent.items() if n}
        elif name != "visibility":
            out[name] = value - before[name]
    return out


def run_trial(workload: Workload, seed: int, trace: Optional[LayerTrace] = None) -> Trial:
    """Run one timed trial. With ``trace`` (already installed) the
    measure window's spans are returned too, plus the record census."""
    clear_intern_pool()
    gc.collect()
    touched: Set[str] = set()
    t_build = time.perf_counter()
    runner = _timed_runner(workload, seed, touched)
    store = runner.store
    t_preload = time.perf_counter()
    result = runner.setup()
    t_warmup = time.perf_counter()
    digest = _SendDigest(store.network, trace)
    sim = store.sim
    sim.run(until=runner.stop_at - workload.measure)
    before = _counters(store, result)
    gc.collect()
    if trace is not None:
        trace.reset()
    t_measure = time.perf_counter()
    sim.run(until=runner.stop_at)
    t_drain = time.perf_counter()
    spans = trace.snapshot() if trace is not None else None
    after = _counters(store, result)
    sim.run(until=runner.stop_at + workload.drain)
    t_end = time.perf_counter()
    runner.finalize()

    counts = _delta(after, before)
    ops = counts["ops"]
    visibility = [
        sample
        for proxy, start, end in zip(store.proxies.values(), before["visibility"], after["visibility"])
        for sample in proxy.visibility_samples[start:end]
    ]
    get, put, vis = _ms(result.get_latency), _ms(result.put_latency), _percentiles(visibility)
    virtual = {
        "get_p50_ms": get["p50_ms"], "get_p99_ms": get["p99_ms"], "get_n": get["n"],
        "put_p50_ms": put["p50_ms"], "put_p99_ms": put["p99_ms"], "put_n": put["n"],
        "visibility_p50_ms": vis["p50_ms"], "visibility_p99_ms": vis["p99_ms"],
        "visibility_n": vis["n"],
        "sim_ops_per_s": ops / workload.measure,
        "wire_bytes_per_op": counts["bytes"] / ops,
        "failed_op_frac": result.errors / (result.ops_completed + result.errors),
    }
    counts["metadata_bytes_per_op"] = result.metadata_bytes.mean()
    if trace is not None:
        counts["census_bytes"] = census_totals(memory_census(store))["bytes"]
    return Trial(
        phases={
            "build_s": t_preload - t_build,
            "preload_s": t_warmup - t_preload,
            "warmup_s": t_measure - t_warmup,
            "measure_s": t_drain - t_measure,
            "drain_s": t_end - t_drain,
        },
        ops=ops,
        measured=result.ops_completed,
        failed=result.errors,
        virtual=virtual,
        counts=counts,
        digest=digest.hexdigest(),
        unresolved=_unresolved(runner),
        diverged=_diverged(runner, touched),
        spans=spans,
    )


def time_setup(workload: Workload, seed: int) -> float:
    """Wall seconds of a trial's build and preload phases alone: a
    further set-up sample that costs no measure phase."""
    clear_intern_pool()
    gc.collect()
    start = time.perf_counter()
    runner = _timed_runner(workload, seed, set())
    runner.setup()
    return time.perf_counter() - start


def run_checked(workload: Workload, seed: int) -> Dict[str, int]:
    """Short untimed run that records the history and checks it for
    causal+ violations, unresolved operations and divergence."""
    clear_intern_pool()
    touched: Set[str] = set()
    runner = _runner(
        workload, seed, touched, duration=workload.checked, warmup=0.0, record_history=True,
    )
    result = runner.run()
    return {
        "ops": result.ops_completed,
        "violations": len(check_causal(result.history)),
        "unresolved": _unresolved(runner),
        "diverged": _diverged(runner, touched),
    }
