"""Replays of single layers on a traced pass's own inputs.

Each replay calls one public function of one layer in a tight loop over
the jobs the pass served, so its time per job is that layer's cost alone.
"""

from __future__ import annotations

import time
from typing import Dict, List, Sequence, Tuple

from .gen import Job


def workload_layers(
    jobs: Sequence[Job], groups: List[Tuple[str, object, list]], alphabet
) -> Dict[str, float]:
    """``workloads.*``, ``cache.key_us_per_job`` and ``fastpath.*``.

    *groups* are ``(workload, params, streams)`` batches as the service's
    planner forms them, replayed through ``run_workload_many``.
    """
    from repro.service import result_cache_key
    from repro.workloads import get_workload, run_workload, run_workload_many

    per_job = 1e6 / len(jobs)
    out: Dict[str, float] = {}
    prepared = []
    t0 = time.perf_counter()
    for j in jobs:
        spec = get_workload(j.workload)
        taps = spec.parse_params(j.call_params(), alphabet)
        validated = spec.validate_stream(j.stream, alphabet)
        spec.prepare(taps, validated)
        prepared.append((spec, taps, validated))
    out["workloads.prepare_us_per_job"] = (time.perf_counter() - t0) * per_job
    t0 = time.perf_counter()
    for spec, taps, validated in prepared:
        result_cache_key(spec.name, taps, validated, spec.numeric)
    out["cache.key_us_per_job"] = (time.perf_counter() - t0) * per_job
    values = 0
    t0 = time.perf_counter()
    for j in jobs:
        values += len(run_workload(j.workload, j.call_params(), j.stream,
                                   alphabet, engine="fast"))
    fast_s = time.perf_counter() - t0
    out["fastpath.fast_us_per_job"] = fast_s * per_job
    out["fastpath.values_per_s"] = values / fast_s
    t0 = time.perf_counter()
    for workload, params, streams in groups:
        run_workload_many(workload, params, streams, alphabet)
    out["fastpath.batched_us_per_job"] = (time.perf_counter() - t0) * per_job
    return out


def bist_probe_ms(repeats: int = 7) -> float:
    """Median wall ms of ``BISTController.run`` on a clean probe array
    of the health loop's default geometry (golden signature warm)."""
    from repro.bist import BISTController
    from repro.service import HealthConfig

    from .common import median

    cfg = HealthConfig()
    probe = BISTController(m=cfg.bist_m, w=cfg.bist_w, vectors=cfg.vectors,
                           seed=cfg.seed, characterize=cfg.characterize)
    probe.golden_signature()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        probe.run()
        times.append(time.perf_counter() - t0)
    return median(times) * 1e3
