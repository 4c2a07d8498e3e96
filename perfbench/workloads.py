"""The benchmark's named workloads.

Every workload runs ChainReaction on three datacenters (dc0, dc1, dc2)
with 6 servers per site, chains of R=3, k=2 acknowledgements and
64-byte values. Clients are closed-loop: each of ``n_clients`` simulated
sessions (coroutines on the simulator's single thread) issues its next
operation only when the previous one returned.

Phase lengths are *virtual* seconds, so one seed always produces the
same operations, messages and latencies; only the wall time each phase
takes depends on the machine. ``measure`` is sized so that the measure
phase holds at least 1000 gets, 1000 puts and 1000 remote-visibility
samples, which puts at least ten samples beyond every p99.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Tuple

SITES: Tuple[str, ...] = ("dc0", "dc1", "dc2")
SERVERS_PER_SITE = 6
CHAIN_LENGTH = 3
ACK_K = 2
VALUE_SIZE = 64


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    read_proportion: float
    record_count: int
    #: ``scrambled`` is YCSB's zipfian request distribution
    distribution: str
    n_clients: int
    #: ChainReactionConfig fields on top of the shared deployment
    overrides: Tuple[Tuple[str, Any], ...]
    warmup: float
    measure: float
    drain: float
    #: virtual length of the history-recording run the causal checker
    #: verifies (its cost grows faster than linearly with the op count)
    checked: float

    def params(self) -> Dict[str, Any]:
        """Every input of the workload, for the result's record."""
        out = dataclasses.asdict(self)
        out.pop("why")
        out["overrides"] = dict(self.overrides)
        out.update(
            protocol="chainreaction",
            sites=list(SITES),
            servers_per_site=SERVERS_PER_SITE,
            chain_length=CHAIN_LENGTH,
            ack_k=ACK_K,
            value_size=VALUE_SIZE,
        )
        return out


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="read-mostly",
            why=(
                "YCSB-B 95/5 zipfian: loads the client get path, the chain-"
                "position read rule and coroutine plumbing; geo shipping and "
                "stabilization sit nearly idle"
            ),
            read_proportion=0.95,
            record_count=10_000,
            distribution="scrambled",
            n_clients=16,
            overrides=(),
            warmup=0.2,
            # 5% puts: 1.4 s holds ~1450 of them, a dozen standard
            # deviations above the 1000-sample floor
            measure=1.4,
            drain=1.0,
            checked=0.1,
        ),
        Workload(
            name="write-heavy",
            why=(
                "50/50 zipfian: every put fans out into chain, k-ack, "
                "stability and geo messages, so message sizing, fabric, geo "
                "and stability costs dominate"
            ),
            read_proportion=0.5,
            record_count=10_000,
            distribution="scrambled",
            n_clients=16,
            overrides=(),
            warmup=0.15,
            measure=0.2,
            drain=1.0,
            checked=0.1,
        ),
        Workload(
            name="partial-clock-large",
            why=(
                "90/10 uniform over 1e5 keys, r=2 of 3 sites, clock plane: "
                "the only workload on placement, forwarding and the clock "
                "plane, and the one whose preload makes set-up and RSS count"
            ),
            read_proportion=0.9,
            record_count=100_000,
            distribution="uniform",
            n_clients=64,
            overrides=(("replication_degree", 2), ("stability", "clock")),
            warmup=0.5,
            measure=5.0,
            drain=1.0,
            checked=0.5,
        ),
    )
}
