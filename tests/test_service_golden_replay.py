"""Golden replay: one fixed, seeded farm run hashes to a recorded digest.

A :class:`MatcherService` with seeded worker deaths and stalls serves a
mix of singleton, wide-text (sharded) and batched plans of all six
registry kernels over three admission waves, some jobs with deadlines.
Every :class:`JobResult` field and the farm's telemetry counters are
hashed, so the digest pins each scheduling, retry, deadline-shed and
host-fallback decision beat for beat.  A refactor of the execution path
that changes any of them -- which worker a retry lands on, when a shed
member started, how many executions a worker ran -- fails here, even
when every result still equals the oracle.
"""

import dataclasses
import hashlib
import random

from repro import Alphabet
from repro.chip.chip import ChipSpec
from repro.service import (
    FaultInjector,
    MatcherService,
    Priority,
    SchedulerConfig,
    uniform_pool,
)
from repro.workloads import get_workload, list_workloads

AB = Alphabet("ABCD")

#: sha256 of :func:`replay_record` for the run below.
GOLDEN = "13c5459c750f395dff6e1e5e57e13c404bd61ac2ed60eea0c6313eac6094da7e"


def _params(rng, spec):
    n_taps = rng.randint(1, 9)  # > 6 cells: multipass
    if spec.numeric:
        return [float(rng.randint(-4, 4)) for _ in range(n_taps)]
    return "".join(rng.choice("ABCDX") for _ in range(n_taps))


def _stream(rng, spec, n):
    if spec.numeric:
        return [float(rng.randint(-4, 4)) for _ in range(n)]
    return "".join(rng.choice("ABCD") for _ in range(n))


def run_farm():
    """The fixed run: returns the service (drained) and the submitted
    ``(job_id, workload, params, stream)`` list."""
    rng = random.Random(15)
    svc = MatcherService(
        uniform_pool(8, ChipSpec(6, 2), AB),
        config=SchedulerConfig(
            queue_capacity=256,
            max_retries=1,
            wide_text_threshold=96,
            min_shard_chars=24,
            max_batch_jobs=3,
        ),
        faults=FaultInjector(seed=44, p_death=0.08, p_stuck=0.2),
    )
    submitted = []
    for wave in range(3):
        for name in list_workloads():
            spec = get_workload(name)
            params = _params(rng, spec)
            texts = [_stream(rng, spec, rng.randint(1, 60)) for _ in range(5)]
            texts.append(texts[1])  # a duplicate: a deduped follower
            texts.append(_stream(rng, spec, rng.randint(100, 200)))  # wide
            tenant = f"tenant-{rng.randint(0, 2)}"
            priority = rng.choice([Priority.INTERACTIVE, Priority.BATCH])
            timeout = rng.choice([None, None, 250.0, 1500.0, 6000.0])
            ids = svc.submit_many(
                params, texts, tenant=tenant, priority=priority,
                workload=name, timeout=timeout,
            )
            submitted += [(i, name, params, t) for i, t in zip(ids, texts)]
            single = _stream(rng, spec, rng.randint(1, 60))
            jid = svc.submit(
                params, single, tenant=tenant, priority=priority,
                workload=name, timeout=rng.choice([None, 600.0]),
            )
            submitted.append((jid, name, params, single))
        svc.drain()
    return svc, submitted


def replay_record(svc):
    """Everything the digest covers, as one deterministic structure."""
    t = svc.telemetry
    return (
        [dataclasses.astuple(r) for r in svc.results()],
        {
            "batches": t.batches,
            "batched_jobs": t.batched_jobs,
            "deduped": t.deduped,
            "retries": t.retries,
            "fallbacks": t.fallbacks,
            "deaths": t.deaths,
            "timeouts": t.timeouts,
            "makespan_beats": t.makespan_beats,
            "executions": {
                name: w.executions for name, w in sorted(t.workers.items())
            },
        },
    )


def replay_digest(svc) -> str:
    return hashlib.sha256(repr(replay_record(svc)).encode()).hexdigest()


def test_golden_run_is_oracle_identical_and_exercises_every_path():
    svc, submitted = run_farm()
    results = {r.job_id: r for r in svc.results()}
    assert sorted(results) == sorted(i for i, *_ in submitted)
    for jid, name, params, stream in submitted:
        want = get_workload(name).run(params, stream, AB, engine="oracle")
        assert results[jid].results == want, (jid, results[jid].mode)
    modes = {r.mode for r in results.values()}
    assert {"direct", "multipass", "text-sharded", "batched", "deduped",
            "software"} <= modes
    t = svc.telemetry
    assert t.retries and t.deaths and t.timeouts and t.fallbacks
    assert any(r.timed_out for r in results.values())
    assert any(r.attempts > 0 and r.mode == "batched"
               for r in results.values())


def test_golden_digest():
    svc, _ = run_farm()
    assert replay_digest(svc) == GOLDEN
