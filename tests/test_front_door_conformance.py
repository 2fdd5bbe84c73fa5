"""One admission path per front door: ``submit(p, s)`` is exactly
``submit_many(p, [s])``.

For every registered workload, and in both the beat-clock farm and the
process runtime, a lone stream must come back the same way whichever
entry point admitted it: same results, same routing (``mode``), same
attempt count, same worker(s), same fallback flag.
"""

import asyncio

import pytest

from repro.alphabet import Alphabet
from repro.chip.chip import ChipSpec
from repro.runtime import AsyncMatcherService
from repro.service import MatcherService, SchedulerConfig, uniform_pool
from repro.workloads.registry import get_workload, list_workloads

AB = Alphabet("ABCD")

PARAMS = {
    "match": "ABXC",
    "count": "AXC",
    "correlation": [1.0, -2.0, 0.5],
    "inner-product": [0.5, 1.5, -1.0, 2.0],
    "convolution": [1.0, 2.0, 3.0],
    "fir": [0.25, 0.5, 0.25],
}


def _stream(name, n):
    if get_workload(name).numeric:
        return [((i * 37) % 19) - 9.0 for i in range(n)]
    return ("ABCDACBDABCACDBA" * (n // 16 + 1))[:n]


def _sync_view(r):
    return (r.results, r.mode, r.attempts, r.workers, r.via_fallback)


def _async_view(r):
    return (r.results, r.mode, r.attempts, r.worker, r.via_fallback)


@pytest.mark.parametrize("name", list_workloads())
@pytest.mark.parametrize("n", [0, 40, 200], ids=["empty", "narrow", "wide"])
def test_sync_submit_is_submit_many_of_one(name, n):
    # A 128-sample threshold makes the "wide" stream take a shard plan.
    config = SchedulerConfig(wide_text_threshold=128, min_shard_chars=16)
    svc = MatcherService(uniform_pool(3, ChipSpec(8, 2), AB), config=config)
    params, stream = PARAMS[name], _stream(name, n)
    one = svc.submit(params, stream, workload=name)
    solo = svc.drain()[one]
    (many,) = svc.submit_many(params, [stream], workload=name)
    batch = svc.drain()[many]
    assert _sync_view(solo) == _sync_view(batch)
    if n:
        assert solo.mode != "batched"


def test_async_submit_is_submit_many_of_one():
    async def go():
        views = []
        async with AsyncMatcherService(1, AB) as svc:
            for name in list_workloads():
                params, stream = PARAMS[name], _stream(name, 40)
                one = await svc.submit(params, stream, workload=name)
                solo = await svc.result(one)
                (many,) = await svc.submit_many(
                    params, [stream], workload=name
                )
                batch = await svc.result(many)
                views.append((name, _async_view(solo), _async_view(batch)))
        return views

    for name, solo, batch in asyncio.run(go()):
        assert solo == batch, name
        assert solo[1] == "pool", name
