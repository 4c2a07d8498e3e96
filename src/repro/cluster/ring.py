"""Consistent hashing and chain placement.

ChainReaction inherits FAWN-KV's data placement: servers sit on a
consistent-hash ring (with virtual nodes for balance), and the replica
*chain* for a key is the key's successor on the ring followed by the
next ``R - 1`` distinct physical servers. Chain order is what gives the
protocol its write serialisation — position 0 is the head, position
``R - 1`` the tail.

The ring is a pure value object: membership changes produce placements
deterministically from (server set, virtual-node count), so every actor
that knows the member list computes identical chains with no extra
coordination.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ClusterError

__all__ = ["HashRing", "chain_positions"]

_HASH_SPACE = 2**64


def _hash64(data: str) -> int:
    return int.from_bytes(hashlib.sha256(data.encode("utf-8")).digest()[:8], "big")


class HashRing:
    """Immutable consistent-hash ring over a set of server names."""

    def __init__(self, servers: Sequence[str], virtual_nodes: int = 64):
        if virtual_nodes < 1:
            raise ClusterError(f"virtual_nodes must be >= 1, got {virtual_nodes}")
        unique = list(dict.fromkeys(servers))
        if len(unique) != len(servers):
            raise ClusterError("duplicate server names in ring")
        self._servers: Tuple[str, ...] = tuple(unique)
        self._virtual_nodes = virtual_nodes
        points: List[Tuple[int, str]] = []
        for server in unique:
            for v in range(virtual_nodes):
                points.append((_hash64(f"{server}#{v}"), server))
        points.sort()
        self._points = points
        self._hashes = [h for h, _ in points]
        # Rings are immutable, and workloads ask for the same keys'
        # chains millions of times — memoise placement, one key → chain
        # map per chain length. A chain depends only on the ring point
        # after the key's hash, so there are at most as many distinct
        # chains as points (a few hundred): 10⁵ keys share those lists
        # instead of holding one each.
        self._chain_cache: Dict[int, Dict[str, List[str]]] = {}
        self._point_chains: Dict[Tuple[int, int], List[str]] = {}
        self._interned_chains: Dict[Tuple[str, ...], List[str]] = {}

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    @property
    def servers(self) -> Tuple[str, ...]:
        return self._servers

    @property
    def virtual_nodes(self) -> int:
        return self._virtual_nodes

    def __len__(self) -> int:
        return len(self._servers)

    def without(self, server: str) -> "HashRing":
        """A new ring with ``server`` removed."""
        if server not in self._servers:
            raise ClusterError(f"server {server!r} not in ring")
        return HashRing(
            [s for s in self._servers if s != server], self._virtual_nodes
        )

    def with_server(self, server: str) -> "HashRing":
        """A new ring with ``server`` added."""
        if server in self._servers:
            raise ClusterError(f"server {server!r} already in ring")
        return HashRing(list(self._servers) + [server], self._virtual_nodes)

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------
    def chain_for(self, key: str, length: int) -> List[str]:
        """The replica chain for ``key``: ``length`` distinct servers in
        ring-successor order. Head first, tail last."""
        memo = self._chain_cache.get(length)
        if memo is None:
            if not self._servers:
                raise ClusterError("ring is empty")
            if length < 1:
                raise ClusterError(f"chain length must be >= 1, got {length}")
            memo = self._chain_cache[length] = {}
        chain = memo.get(key)
        if chain is None:
            start = bisect.bisect_right(self._hashes, _hash64(key)) % len(self._points)
            chain = memo[key] = self._chain_at(start, length)
        return chain

    def _chain_at(self, start: int, length: int) -> List[str]:
        """The chain of every key that hashes just before ring point
        ``start``; interned, so equal chains are one list instance."""
        chain = self._point_chains.get((start, length))
        if chain is None:
            wanted = min(length, len(self._servers))
            walk: List[str] = []
            idx = start
            while len(walk) < wanted:
                server = self._points[idx][1]
                if server not in walk:
                    walk.append(server)
                idx = (idx + 1) % len(self._points)
            # Callers treat chains as read-only; every key with this
            # chain gets the same list.
            chain = self._interned_chains.setdefault(tuple(walk), walk)
            self._point_chains[(start, length)] = chain
        return chain

    def head_for(self, key: str) -> str:
        return self.chain_for(key, 1)[0]

    def load_map(self, keys: Sequence[str], length: int) -> Dict[str, int]:
        """How many of ``keys`` each server replicates — balance diagnostics."""
        counts: Dict[str, int] = {s: 0 for s in self._servers}
        for key in keys:
            for server in self.chain_for(key, length):
                counts[server] += 1
        return counts


def chain_positions(chain: Sequence[str], server: str) -> Optional[int]:
    """Index of ``server`` in ``chain`` (0 = head), or None if absent."""
    try:
        return chain.index(server)  # type: ignore[arg-type]
    except ValueError:
        return None
