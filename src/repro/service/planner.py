"""The coalescing policy behind both front doors' ``submit_many``.

:class:`~repro.service.service.MatcherService` (the beat-clock farm) and
:class:`~repro.runtime.service.AsyncMatcherService` (the process
runtime) admit work differently -- queues and beats versus a pending set
and wall seconds -- but they plan it the same way, with this one
function: one plan per unique result, narrow work chunked into batches,
and a lone job run as a singleton.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple, TypeVar

J = TypeVar("J")


def coalesce(
    jobs: Sequence[J],
    max_batch_jobs: int,
    solo: Optional[Callable[[J], bool]] = None,
) -> Tuple[List[List[J]], List[Tuple[J, J]]]:
    """Plan admitted *jobs* into dispatch units; ``(plans, followers)``.

    Every job carries a ``cache_key`` (workload, canonical params and a
    digest of its validated input).  The first job with a given key is
    the *representative*; each later job with that key comes back in
    *followers* as ``(representative, follower)``: it shares the
    representative's execution and takes its results at completion.

    Representatives for which ``solo(job)`` holds get a plan of their
    own (the farm's wide texts, which shard across workers).  The rest
    are chunked, in admission order, into plans of at most
    *max_batch_jobs* jobs.  A plan is a list of jobs: a one-member plan
    runs as a singleton, a longer one as one batched execution.
    """
    reps = {}
    followers: List[Tuple[J, J]] = []
    plans: List[List[J]] = []
    narrow: List[J] = []
    for job in jobs:
        rep = reps.get(job.cache_key)
        if rep is not None:
            followers.append((rep, job))
            continue
        reps[job.cache_key] = job
        if solo is not None and solo(job):
            plans.append([job])
        else:
            narrow.append(job)
    plans.extend(
        narrow[i:i + max_batch_jobs]
        for i in range(0, len(narrow), max_batch_jobs)
    )
    return plans, followers
