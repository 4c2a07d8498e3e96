"""Shared behaviour for ring-placed storage servers.

Every protocol's server — ChainReaction's and the baselines' — stores
records in a :class:`~repro.storage.store.VersionedStore`, heartbeats to
the datacenter's :class:`~repro.cluster.membership.ClusterManager`, and
tracks the current :class:`~repro.cluster.membership.RingView`. This
base class owns those mechanics; protocol subclasses override
:meth:`on_view_change` for their reconfiguration/repair logic and add
their own message handlers.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple

from repro.cluster.membership import ClusterManager, Heartbeat, RingView, ViewChange
from repro.cluster.placement import ShardCatalog
from repro.cluster.ring import chain_positions
from repro.errors import NotResponsibleError
from repro.net.actor import Actor
from repro.net.network import Address, Network
from repro.sim.kernel import Simulator
from repro.storage.merge import ConflictResolver, stamp_of
from repro.storage.store import Record, VersionedStore
from repro.storage.version import VersionVector, intern_str

__all__ = ["RingServer", "install_preload"]


class RingServer(Actor):
    """A storage server placed on the consistent-hash ring."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        site: str,
        name: str,
        initial_view: RingView,
        resolver: Optional[ConflictResolver] = None,
        service_time: float = 0.0,
    ):
        super().__init__(sim, network, Address(site, name))
        self.site = site
        self.name = name
        self.service_time = service_time
        self.view = initial_view
        self.store = VersionedStore(resolver)
        self._manager = Address(site, "manager")
        self._heartbeat_interval = 0.05
        self._start_heartbeats()

    # ------------------------------------------------------------------
    # heartbeating
    # ------------------------------------------------------------------
    def _start_heartbeats(self) -> None:
        self.set_timer(self._heartbeat_interval, self._heartbeat_tick)

    def _heartbeat_tick(self) -> None:
        self.send(self._manager, Heartbeat(server=self.name, epoch=self.view.epoch))
        self.set_timer(self._heartbeat_interval, self._heartbeat_tick)

    def on_recover(self) -> None:
        self._start_heartbeats()

    # ------------------------------------------------------------------
    # placement helpers
    # ------------------------------------------------------------------
    def chain_for(self, key: str) -> List[str]:
        return self.view.chain_for(key)

    def my_position(self, key: str) -> int:
        """This server's chain index for ``key`` (0 = head).

        Raises :class:`NotResponsibleError` if the server is not in the
        key's chain under its current view — a stale-routing signal the
        client library reacts to by refreshing its view.
        """
        pos = chain_positions(self.chain_for(key), self.name)
        if pos is None:
            raise NotResponsibleError(
                f"{self.address} not in chain for {key!r} at epoch {self.view.epoch}"
            )
        return pos

    def is_head(self, key: str) -> bool:
        return self.my_position(key) == 0

    def is_tail(self, key: str) -> bool:
        return self.my_position(key) == len(self.chain_for(key)) - 1

    def successor(self, key: str) -> Optional[Address]:
        """Next server down the chain, or None at the tail."""
        chain = self.chain_for(key)
        pos = self.my_position(key)
        if pos == len(chain) - 1:
            return None
        return self.view.address_of(chain[pos + 1])

    def predecessor(self, key: str) -> Optional[Address]:
        chain = self.chain_for(key)
        pos = self.my_position(key)
        if pos == 0:
            return None
        return self.view.address_of(chain[pos - 1])

    # ------------------------------------------------------------------
    # view changes
    # ------------------------------------------------------------------
    def on_view_change(self, msg: ViewChange, src: Address) -> None:
        assert msg.view is not None
        if msg.view.epoch <= self.view.epoch:
            return  # stale publish
        old, self.view = self.view, msg.view
        self.handle_view_change(old, msg.view)

    def handle_view_change(self, old: RingView, new: RingView) -> None:
        """Protocol hook: reconcile chain state after membership changed."""


def install_preload(
    managers: Mapping[str, ClusterManager],
    nodes_by_name: Mapping[str, Mapping[str, RingServer]],
    data: Dict[str, Any],
    now: float,
    placement: Optional[ShardCatalog] = None,
) -> Iterator[Tuple[RingServer, Record]]:
    """Install ``data`` on every replica of every key, skipping the
    protocol; yields ``(server, record)`` after each install, in key,
    site, chain order.

    Every replica ends up holding what a long-converged deployment
    would: the same value at version ``{preload: 1}``. The replicas of
    a key share *one* :class:`~repro.storage.store.Record` (built with
    the store's ``record_factory``), installed through
    :meth:`~repro.storage.store.VersionedStore.install`. Under partial
    replication (``placement``) only the key's owner sites receive it.
    """
    version = VersionVector({"preload": 1})
    stamp = stamp_of(version)
    make_record = VersionedStore.record_factory
    # Views cannot change while no simulated time passes: resolve each
    # site's ring once (``RingView.chain_for`` without the per-key hops).
    sites = [
        (site, manager.view.ring(), manager.view.chain_length, nodes_by_name[site])
        for site, manager in managers.items()
    ]
    for key, value in data.items():
        key = intern_str(key)
        record = make_record(key, value, version, stamp, now)
        owners = placement.owners_for(key) if placement is not None else None
        for site, ring, length, nodes in sites:
            if owners is not None and site not in owners:
                continue
            for name in ring.chain_for(key, length):
                server = nodes[name]
                server.store.install(record)
                yield server, record
