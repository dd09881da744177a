"""Consistent-hash shard routing: every PXDB name pins to one worker.

A one-shard pool warms *every* store entry in *every* worker — k workers
hold k copies of the full warm state, and a request may land on any of
them, so per-worker caches see a k-way diluted request stream.  With
several shards each PXDB name is pinned to exactly one shard: the
workers behind that shard warm only its entries (memory is partitioned,
not replicated) and see *all* traffic for them (their engine/circuit
caches stay hot, and every pooled request runs where its entry
lives).

Routing is a classic consistent-hash ring with virtual nodes: each shard
owns ``replicas`` pseudo-random ring positions (blake2b of
``"shard-<i>/<r>"`` — deterministic across processes and Python runs,
unlike ``hash()``), and a name maps to the first shard position at or
after the name's own ring position.  Consistency is the point: growing
the ring from N to N+1 shards moves only ~1/(N+1) of the names, so a
redeploy with a different ``--shards`` re-warms a fraction of the corpus
instead of all of it.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right

_RING_BITS = 64


def _position(key: str) -> int:
    """A stable 64-bit ring position for ``key``."""
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class ShardRouter:
    """Maps PXDB names to shard indexes ``0..shards-1`` consistently.

    ``replicas`` virtual nodes per shard smooth the partition (with one
    position per shard, a 2-shard ring can split 90/10; with 64 replicas
    the imbalance is a few percent).  Routers built with the same
    ``(shards, replicas)`` agree in every process — the front end and the
    pool workers never need to exchange assignments.
    """

    __slots__ = ("shards", "replicas", "_positions", "_owners")

    def __init__(self, shards: int, replicas: int = 64):
        if shards < 1:
            raise ValueError("shards must be at least 1")
        if replicas < 1:
            raise ValueError("replicas must be at least 1")
        self.shards = shards
        self.replicas = replicas
        ring = sorted(
            (_position(f"shard-{shard}/{replica}"), shard)
            for shard in range(shards)
            for replica in range(replicas)
        )
        self._positions = [position for position, _ in ring]
        self._owners = [shard for _, shard in ring]

    def shard_for(self, name: str) -> int:
        """The shard owning ``name`` — first ring position clockwise."""
        index = bisect_right(self._positions, _position(name))
        if index == len(self._positions):
            index = 0  # wrap around the ring
        return self._owners[index]

    def assign(self, names) -> dict[int, list[str]]:
        """{shard → its names} for a whole corpus (warming plan order is
        the caller's iteration order)."""
        assignment: dict[int, list[str]] = {shard: [] for shard in range(self.shards)}
        for name in names:
            assignment[self.shard_for(name)].append(name)
        return assignment

    def __repr__(self) -> str:  # pragma: no cover — debugging aid
        return f"ShardRouter(shards={self.shards}, replicas={self.replicas})"
