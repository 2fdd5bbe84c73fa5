"""Shared pieces: metric tables, statistics, oracle memo, invariant store."""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

#: Seed used when ``--seed`` is not given.  Seed 1009 is held out of
#: all tuning, to confirm a claimed gain on inputs nobody tuned for.
DEFAULT_SEED = 1

#: Where runs leave spans and invariant records (inside the checkout).
OUT_DIR = ".perfbench"

#: Every end-to-end metric the benchmark prints, with its unit.  The
#: ones named in ``BENCHMARK.json`` apply to every workload and are
#: never zero; the others are printed where they apply.
END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "slo_met_share": "ratio",
    "degraded_share": "ratio",
    "failed_share": "ratio",
    "peak_rss_mb": "MB",
    "sim_makespan_beats": "beats",
}

#: The layers, named after the modules of ``src/repro`` the spans wrap.
LAYERS = (
    "service", "service.cache", "service.health", "workloads",
    "core.fastpath", "runtime", "bist", "wafer", "circuit", "compiler",
    "layout", "signoff", "obs",
)

PER_LAYER_UNITS: Dict[str, str] = {
    "service.submit_us_per_job": "us",
    "service.drain_us_per_job": "us",
    "service.batches": "count",
    "service.batched_jobs": "count",
    "service.deduped": "count",
    "service.executions": "count",
    "service.retries": "count",
    "service.fallbacks": "count",
    "service.deaths": "count",
    "service.wait_beats_p50": "beats",
    "service.service_beats_p50": "beats",
    "service.bus_utilization": "ratio",
    "cache.hit_ratio": "ratio",
    "cache.lookups": "count",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.stores": "count",
    "cache.evictions": "count",
    "cache.key_us_per_job": "us",
    "workloads.prepare_us_per_job": "us",
    "fastpath.fast_us_per_job": "us",
    "fastpath.batched_us_per_job": "us",
    "fastpath.values_per_s": "1/s",
    "health.sweep_ms_p50": "ms",
    "health.sweeps": "count",
    "health.sweep_share": "ratio",
    "health.quarantines": "count",
    "health.heals": "count",
    "bist.runs": "count",
    "bist.probe_ms_p50": "ms",
    "wafer.draws": "count",
    "wafer.heals_per_draw": "ratio",
    "runtime.submit_us_p50": "us",
    "runtime.wait_ms_p50": "ms",
    "runtime.wait_ms_p99": "ms",
    "runtime.service_ms_p50": "ms",
    "runtime.service_ms_p99": "ms",
    "runtime.batches": "count",
    "runtime.retries": "count",
    "runtime.fallbacks": "count",
    "runtime.timeouts": "count",
    "runtime.backpressure_hits": "count",
    "runtime.worker_busy_share": "ratio",
    "runtime.wire_kb_per_job": "KB",
    "loadgen.lag_ms_p99": "ms",
    "compiler.elaborate_ms": "ms",
    "compiler.library_ms": "ms",
    "compiler.assemble_ms": "ms",
    "compiler.netlist_ms": "ms",
    "layout.cif_ms": "ms",
    "signoff.drc_ms": "ms",
    "signoff.extract_ms": "ms",
    "signoff.lvs_ms": "ms",
    "signoff.erc_ms": "ms",
    "signoff.timing_ms": "ms",
    "signoff.assembly_ms": "ms",
    "compiler.verify_ir_ms": "ms",
    "compiler.verify_switch_ms": "ms",
    "compiler.cells": "count",
    "compiler.transistors": "count",
    "compiler.bundle_types": "count",
    "layout.rects": "count",
    "signoff.errors": "count",
    "circuit.settle_spans": "count",
    "trace.overhead_ratio": "ratio",
}
PER_LAYER_UNITS.update(
    {f"self_us_per_op.{layer}": "us" for layer in LAYERS + ("unattributed",)}
)

#: Per-layer metrics every traced run measures.  Each workload module's
#: ``owned_metrics`` adds its own; a traced run that leaves out one it
#: owns fails, and only metrics no workload module owns read 0.
SHARED_LAYER_METRICS = ("circuit.settle_spans", "trace.overhead_ratio") + tuple(
    f"self_us_per_op.{layer}" for layer in LAYERS + ("unattributed",)
)
#: The result cache's counters (farms and runtime).
CACHE_METRICS = ("cache.hit_ratio", "cache.lookups", "cache.hits",
                 "cache.misses", "cache.stores", "cache.evictions")
#: The single-layer replays of ``replay.workload_layers``.
REPLAY_METRICS = ("workloads.prepare_us_per_job", "cache.key_us_per_job",
                  "fastpath.fast_us_per_job", "fastpath.batched_us_per_job",
                  "fastpath.values_per_s")


@dataclass
class Outcome:
    """What one workload run measured and whether it was correct."""

    e2e: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    invariants: Dict[str, object] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0 and not self.problems

    def count(self, attempted: int, failed: int, problems: List[str]) -> None:
        """Fold one pass's correctness gate into the run's."""
        self.attempted += attempted
        self.failed += failed
        self.problems.extend(problems)


# -- statistics ---------------------------------------------------------------

def pct(values: Sequence[float], p: float) -> float:
    """The *p*-th percentile (0..100), linear between closest ranks."""
    if not values:
        return 0.0
    xs = sorted(values)
    k = (len(xs) - 1) * p / 100.0
    lo = math.floor(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


def median(values: Sequence[float]) -> float:
    return pct(values, 50.0)


#: Throughput is the median rate over this many consecutive slices of a
#: run, so a burst of load from outside the benchmark moves one slice,
#: not the result.
RATE_SLICES = 9

#: Above this stolen share of busy CPU time (``/proc/stat``), the hypervisor,
#: not the program, sets the pace: the farms set such slices aside, and
#: the command waits for a host under it before a workload starts.
STEAL_BOUND = 0.06


def slices(n: int) -> List[range]:
    """``RATE_SLICES`` consecutive index ranges over *n* items (fewer
    if there are fewer items)."""
    k = min(RATE_SLICES, n)
    return [range(i * n // k, (i + 1) * n // k) for i in range(k)]


def quiet(parts: List[range], steal: Sequence[int],
          busy: Sequence[int]) -> List[range]:
    """The slices whose stolen share of busy CPU time stayed within
    ``STEAL_BOUND`` (all of them when none did)."""
    keep = [
        r for r in parts
        if sum(steal[i] for i in r) <= STEAL_BOUND * sum(busy[i] for i in r)
    ]
    return keep or parts


def median_rate(durations: Sequence[float], counts: Sequence[int],
                parts: Optional[List[range]] = None) -> float:
    """Median of ``sum(counts) / sum(durations)`` over *parts* (by
    default :func:`slices` of all the intervals)."""
    if parts is None:
        parts = slices(len(durations))
    return median([
        sum(counts[i] for i in r) / sum(durations[i] for i in r)
        for r in parts
    ])


#: A percentile is reported only when at least this many samples lie
#: beyond it, so p99 needs 1,000 samples.
TAIL_SAMPLES = 10


def supports(n: int, p: float) -> bool:
    return n * (100.0 - p) / 100.0 >= TAIL_SAMPLES


#: Fresh interpreters timed per set-up measurement, after one untimed
#: run that leaves byte code cached.
SETUP_SAMPLES = 5


def fresh_process_seconds(code: str) -> float:
    """Median wall seconds of a new interpreter running *code* with the
    benchmark and the program importable: the set-up a freshly started
    process pays, module-level work included."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([root, os.path.join(root, "src")]))
    times = []
    for _ in range(SETUP_SAMPLES + 1):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True)
        times.append(time.perf_counter() - t0)
    return median(times[1:])


def stop_child_processes(timeout: float = 10.0) -> None:
    """Stop every process this one started and wait for each to end.

    The runtime's workers are joined when its service closes, but the
    resource tracker ``multiprocessing`` starts beside the first
    spawn-context queue is not: left alone it ends only after it sees
    this process gone, so it would outlive the run.  Queues still alive
    unregister their semaphores with the tracker when they are
    finalized, which would start it again, so garbage is collected
    first.
    """
    import gc

    gc.collect()
    mp = sys.modules.get("multiprocessing")
    if mp is None:
        return
    children = mp.active_children()
    for proc in children:
        proc.terminate()
    for proc in children:
        proc.join(timeout)
        if proc.is_alive():
            proc.kill()
            proc.join()
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        tracker._resource_tracker._stop()


def peak_rss_mb() -> float:
    """Peak resident set of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cpu_fields() -> List[int]:
    """user, nice, system, idle, iowait, irq, softirq and steal CPU time
    of the guest so far (``/proc/stat``); zeros where unreadable."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(v) for v in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        fields = []
    return fields if len(fields) == 8 else [0] * 8


def cpu_jiffies() -> Tuple[int, int]:
    """``(steal, busy)`` CPU time of the guest so far.  Busy time is
    all but idle and I/O wait: an idle CPU is never stolen from, so a
    share of the total would read half as large on a 2-CPU guest whose
    second CPU idles."""
    d = _cpu_fields()
    return d[7], d[0] + d[1] + d[2] + d[5] + d[6] + d[7]


def wait_for_quiet_host(max_wait_s: float) -> Tuple[float, float]:
    """Spin one thread for a second at a time until the hypervisor
    steals at most ``STEAL_BOUND`` of the time it runs (an idle guest
    is never stolen from, so the probe must be busy), or *max_wait_s*
    has passed.  Returns the seconds spent and the last stolen share."""
    t_start = time.perf_counter()
    while True:
        before = cpu_jiffies()
        t_end = time.perf_counter() + 1.0
        while time.perf_counter() < t_end:
            pass
        share = steal_share(before, cpu_jiffies())
        spent = time.perf_counter() - t_start
        if share <= STEAL_BOUND or spent >= max_wait_s:
            return spent, share


def steal_share(before: Tuple[int, int], after: Tuple[int, int]) -> float:
    """Share of busy CPU time the hypervisor gave to other guests
    between two :func:`cpu_jiffies` readings."""
    busy = after[1] - before[1]
    return (after[0] - before[0]) / busy if busy > 0 else 0.0


def digest(obj: object) -> str:
    """A stable content digest of JSON-able data."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# -- correctness --------------------------------------------------------------

def oracle(alphabet, workload: str, params, stream) -> list:
    """The workload's ``engine="oracle"`` answer for one job."""
    from repro.workloads import get_workload

    return get_workload(workload).run(params, stream, alphabet,
                                      engine="oracle")


class OracleMemo:
    """Oracle answers, computed once per distinct input."""

    def __init__(self, alphabet):
        self.alphabet = alphabet
        self._memo: Dict[tuple, list] = {}

    def __call__(self, workload: str, params, stream) -> list:
        key = (workload, _frozen(params), _frozen(stream))
        hit = self._memo.get(key)
        if hit is None:
            hit = self._memo[key] = oracle(self.alphabet, workload, params,
                                           stream)
        return hit

    def clear(self) -> None:
        self._memo.clear()


def _frozen(value):
    return value if isinstance(value, str) else tuple(value)


# -- invariants across runs ---------------------------------------------------

def source_digest(root: str) -> str:
    """Digest of the program and benchmark sources: an invariant record
    is only compared against runs of the same code."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(".py"):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, root).encode())
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()[:16]


def check_invariants(
    root: str, run_key: str, invariants: Dict[str, object]
) -> Optional[str]:
    """Compare *invariants* with an earlier run of the same code and
    *run_key* (workload, seed and length), recording them if this is the
    first; returns a mismatch description, or None."""
    folder = os.path.join(root, OUT_DIR, "invariants")
    os.makedirs(folder, exist_ok=True)
    path = os.path.join(folder, f"{run_key}-{source_digest(root)}.json")
    current = json.loads(json.dumps(invariants, sort_keys=True))
    if os.path.exists(path):
        with open(path) as fh:
            earlier = json.load(fh)
        return diff_invariants(earlier, current, "earlier run", "this run")
    with open(path, "w") as fh:
        json.dump(current, fh, indent=1, sort_keys=True)
    return None


def diff_invariants(a: Dict, b: Dict, a_name: str, b_name: str) -> Optional[str]:
    keys = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
    if not keys:
        return None
    return (
        f"simulated outputs differ between {a_name} and {b_name}: "
        + ", ".join(f"{k} ({a.get(k)!r} vs {b.get(k)!r})" for k in keys[:4])
    )
