"""Scripted fault schedules on the sync farm, for every plan shape.

The farm launches one execution unit for all three plan shapes -- a
singleton (one whole-text item), a text-sharded job (one execution per
shard) and a batch plan (one whole-text item per member) -- so retry,
deadline shed and host fallback must behave the same for each.  A
test-local fault source replays a fixed list of faults (one per launch,
clean launches after it), so every schedule here is deterministic and
timer-free: death then retry then success, retry exhaustion, stuck
beats, a deadline shed on the first launch and on a retry launch, and
every worker dying mid-drain.  For every registry workload each job must
complete exactly once with the oracle's answer, and its ``mode``,
``attempts``, ``timed_out``, ``via_fallback`` and ``started_beat`` are
pinned.  ``started_beat`` is always the job's first launch (beat 0
here), also for a batch member shed on a retry launch or served by the
host after its executions died.
"""

import pytest

from repro import Alphabet
from repro.chip.chip import ChipSpec
from repro.service import (
    MatcherService,
    SchedulerConfig,
    uniform_pool,
)
from repro.service.reliability import Fault, FaultKind
from repro.workloads import get_workload, list_workloads

AB = Alphabet("ABCD")

DEATH = Fault(FaultKind.WORKER_DEATH, at_fraction=0.5)
STUCK = Fault(FaultKind.STUCK_BEATS, extra_beats=500)


class ScriptedFaults:
    """Stands in for ``FaultInjector``: one scripted fault per launch
    (``None`` is a clean launch), then clean launches."""

    def __init__(self, script=()):
        self.script = list(script)

    def sample(self):
        return self.script.pop(0) if self.script else None

    def attach_obs(self, obs):
        pass


def _stream(spec, n, salt):
    if spec.numeric:
        return [float((i * 7 + salt) % 9 - 4) for i in range(n)]
    return "".join("ABCD"[(i * 5 + salt + i // 3) % 4] for i in range(n))


def _texts(kind, spec):
    if kind == "single":
        return [_stream(spec, 24, 1)]
    if kind == "sharded":
        return [_stream(spec, 96, 2)]  # >= wide_text_threshold
    return [_stream(spec, n, n) for n in (20, 24, 28)]  # one 3-member plan


def _serve(kind, name, script=(), timeout=None, max_retries=1):
    spec = get_workload(name)
    params = [1.0, -2.0, 3.0] if spec.numeric else "ABX"
    texts = _texts(kind, spec)
    faults = ScriptedFaults(script)
    svc = MatcherService(
        uniform_pool(3, ChipSpec(8, 2), AB),
        config=SchedulerConfig(
            max_retries=max_retries,
            wide_text_threshold=64,
            min_shard_chars=16,
            max_shards=2,
        ),
        faults=faults,
    )
    ids = svc.submit_many(params, texts, workload=name, timeout=timeout)
    results = svc.drain()
    # Exactly once: one result per job id, and no job recorded twice.
    assert [r.job_id for r in results] == ids
    assert svc.telemetry.completed == len(ids)
    for r, text in zip(results, texts):
        assert r.results == spec.run(params, text, AB, engine="oracle")
    assert not faults.script, "the schedule did not run as scripted"
    return svc, results


def _clean_finish(kind, name):
    _, results = _serve(kind, name)
    return max(r.finished_beat for r in results)


#: case -> (fault script, timeout, max_retries,
#:          {plan kind: (mode, attempts, timed_out, via_fallback)})
CASES = {
    "death-retry-success": ([DEATH], None, 1, {
        "single": ("direct", 1, False, False),
        "sharded": ("text-sharded", 1, False, False),
        "batch": ("batched", 1, False, False),
    }),
    "retries-exhausted": (None, None, 1, {
        "single": ("software", 2, False, True),
        # Shard 1 runs clean; shard 0 dies twice and the host serves it.
        "sharded": ("text-sharded", 2, False, True),
        "batch": ("software", 2, False, True),
    }),
    "stuck-beats": ([STUCK], None, 1, {
        "single": ("direct", 0, False, False),
        "sharded": ("text-sharded", 0, False, False),
        "batch": ("batched", 0, False, False),
    }),
    "shed-first-launch": ([], 1.0, 1, {
        "single": ("software", 0, True, True),
        "sharded": ("software", 0, True, True),
        "batch": ("software", 0, True, True),
    }),
    "shed-retry-launch": ([DEATH], "clean", 1, {
        "single": ("software", 1, True, True),
        "sharded": ("text-sharded", 1, True, True),
        "batch": ("software", 1, True, True),
    }),
    "all-workers-dead": ([DEATH] * 3, None, 5, {
        "single": ("software", 3, False, True),
        "sharded": ("software", 3, False, True),
        "batch": ("software", 3, False, True),
    }),
}


@pytest.mark.parametrize("name", list_workloads())
@pytest.mark.parametrize("kind", ["single", "sharded", "batch"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_scripted_schedule(case, kind, name):
    script, timeout, max_retries, expected = CASES[case]
    if script is None:
        # The two shards draw the first two faults at launch.
        script = [DEATH, None, DEATH] if kind == "sharded" else [DEATH] * 2
    if timeout == "clean":
        # The fault-free finish: the first launch (which dies halfway)
        # fits, the retry launch cannot.
        timeout = _clean_finish(kind, name)
    svc, results = _serve(kind, name, script, timeout, max_retries)
    mode, attempts, timed_out, via_fallback = expected[kind]
    for r in results:
        assert (r.mode, r.attempts, r.timed_out, r.via_fallback,
                r.started_beat) == (mode, attempts, timed_out, via_fallback,
                                    0.0), f"job {r.job_id}"
    t = svc.telemetry
    if kind == "batch" and mode == "batched":
        assert (t.batches, t.batched_jobs) == (1, 3)
    if case == "stuck-beats":
        assert t.stuck_events == 1
    if case == "all-workers-dead":
        assert svc.pool.n_live == 0
    if case.startswith("shed"):
        assert t.timeouts >= 1
