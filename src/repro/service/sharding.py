"""Sharding: long patterns via multipass, wide texts across workers.

Two independent axes, both straight from Section 3.4:

* A pattern longer than a worker's cell count runs the *multipass*
  scheme on that worker (handled inside
  :meth:`~repro.service.pool.PoolWorker.run_kernel`); the plan records it
  so telemetry and timing use multipass rates.
* A text much longer than a pattern can be cut into chunks and matched
  on several workers at once.  Each chunk overlaps its left neighbour by
  ``k = len(pattern) - 1`` characters so every window is seen whole;
  chunk results for the overlap prefix are discarded on merge, exactly
  like the substring bookkeeping of the multipass derivation.

The merge reassembles per-shard result streams into the single oracle
stream, for every workload alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import List, Sequence

from ..errors import ServiceError


class ShardMode(Enum):
    """How a job is mapped onto the pool."""

    DIRECT = "direct"            # one worker, pattern fits
    MULTIPASS = "multipass"      # one worker, pattern longer than its cells
    TEXT_SHARDED = "text-sharded"  # several workers, text split with overlap


@dataclass(frozen=True)
class TextShard:
    """One contiguous slice of responsibility over the text.

    The shard owns output positions ``out_lo..out_hi`` (inclusive) and is
    fed ``text[feed_start : out_hi + 1]`` -- the owned slice plus the
    ``k``-character overlap needed to complete its leftmost window.
    """

    index: int
    out_lo: int
    out_hi: int
    feed_start: int

    @property
    def n_owned(self) -> int:
        return self.out_hi - self.out_lo + 1

    @property
    def n_fed(self) -> int:
        return self.out_hi - self.feed_start + 1

    def feed(self, text: Sequence[str]) -> Sequence[str]:
        return text[self.feed_start : self.out_hi + 1]


@dataclass(frozen=True)
class ShardPlan:
    """The placement decision for one job."""

    mode: ShardMode
    shards: List[TextShard]

    @property
    def n_shards(self) -> int:
        return len(self.shards)


def plan_shards(
    pattern_len: int,
    text_len: int,
    n_workers: int,
    max_shards: int = 4,
    min_shard_chars: int = 64,
    obs=None,
) -> ShardPlan:
    """Cut ``[0, text_len)`` into at most ``min(n_workers, max_shards)``
    overlapping shards; falls back to one shard when the text is too
    short to be worth splitting.  An :class:`~repro.obs.Observability`
    bundle counts every decision into ``service.shard_plans`` by mode."""
    if pattern_len <= 0:
        raise ServiceError("pattern length must be positive")
    if text_len < 0:
        raise ServiceError("text length cannot be negative")
    if n_workers <= 0:
        raise ServiceError("need at least one worker to plan")
    plan = _plan_shards(pattern_len, text_len, n_workers, max_shards,
                        min_shard_chars)
    if obs is not None:
        obs.registry.counter("service.shard_plans", mode=plan.mode.value).inc()
    return plan


def _plan_shards(
    pattern_len: int,
    text_len: int,
    n_workers: int,
    max_shards: int,
    min_shard_chars: int,
) -> ShardPlan:
    k = pattern_len - 1
    whole = ShardPlan(ShardMode.DIRECT, [TextShard(0, 0, text_len - 1, 0)])
    if text_len == 0:
        return ShardPlan(ShardMode.DIRECT, [])
    n = min(n_workers, max_shards, max(1, text_len // min_shard_chars))
    # A shard must own at least one position past its overlap to be useful.
    n = min(n, max(1, text_len // max(1, k + 1)))
    if n <= 1:
        return whole
    base = text_len // n
    extra = text_len % n
    shards: List[TextShard] = []
    lo = 0
    for i in range(n):
        size = base + (1 if i < extra else 0)
        hi = lo + size - 1
        shards.append(TextShard(i, lo, hi, max(0, lo - k)))
        lo = hi + 1
    return ShardPlan(ShardMode.TEXT_SHARDED, shards)


def merge_shard_values(
    shards: Sequence[TextShard],
    shard_results: Sequence[Sequence],
    text_len: int,
    incomplete=False,
) -> List:
    """Reassemble per-shard windowed result streams, any value type.

    Each shard's results are local to its fed slice; position ``j`` of
    shard *s* is global position ``s.feed_start + j``.  Only owned
    positions are kept; overlap-prefix results (incomplete windows from
    the shard's local point of view, which report ``incomplete``, and
    duplicated positions belonging to the left neighbour) are dropped.
    This is what makes halo-overlap sharding workload-agnostic: every
    Section 3.4 kernel produces one value per stream position with a
    ``window - 1`` warm-up, so the same owned/overlap bookkeeping merges
    match bits, match counts, and numeric windows alike.
    """
    if len(shards) != len(shard_results):
        raise ServiceError(
            f"{len(shards)} shards but {len(shard_results)} result streams"
        )
    filled = [False] * text_len
    out = [incomplete] * text_len
    for shard, results in zip(shards, shard_results):
        if len(results) != shard.n_fed:
            raise ServiceError(
                f"shard {shard.index} fed {shard.n_fed} chars but returned "
                f"{len(results)} results"
            )
        for g in range(shard.out_lo, shard.out_hi + 1):
            out[g] = results[g - shard.feed_start]
            filled[g] = True
    if not all(filled):
        missing = filled.index(False)
        raise ServiceError(f"no shard owns text position {missing}")
    return out

