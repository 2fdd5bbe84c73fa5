"""``runtime_open``: ``AsyncMatcherService`` over real worker processes.

Two phases on one started service, repeated on ``ATTEMPTS`` fresh
services per run:

* open loop -- distinct jobs arrive on a seeded Poisson schedule at
  ``OPEN_RATE`` jobs/s whatever the service does.  Each job is timed
  from the moment it was due, so a stall of the generator or the event
  loop is charged to the jobs it delayed.  This phase gives the latency
  metrics and ``slo_met_share``.
* closed loop -- ``CLOSED_WINDOW`` clients, each submitting its next
  job when the previous one returns, never more outstanding than
  ``max_pending``, until a fixed number of jobs is served.  This phase
  gives ``ops_per_s``.

Both phases have a job count fixed by ``--seconds`` (the closed one at
``CLOSED_NOMINAL_RATE``), because the service keeps every result it has
served: a count that grew with speed would grow memory with it.

The host process counts against the cores, so the pool gets one worker
per core beyond the first.
"""

from __future__ import annotations

import asyncio
import os
import pickle
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .common import (
    CACHE_METRICS, REPLAY_METRICS, SHARED_LAYER_METRICS, Outcome,
    cpu_jiffies, diff_invariants, digest, median, oracle, pct,
    peak_rss_mb, slices, steal_share, supports,
)
from .gen import Job, OpenLoopTraffic
from .replay import workload_layers
from .spans import (
    SpanRecorder, common_targets, instrumented, layer_metrics, maybe_span,
)

#: Open-loop arrival rate (jobs/s) and the latency limit of
#: ``slo_met_share`` (ms from the due time).  Both are quoted in this
#: workload's line of ``BENCHMARK.json``.
OPEN_RATE = 150.0
SLO_MS = 25.0
#: A run whose generator fell further behind its schedule than this
#: (p99, ms) measured the generator, not the service: it is marked
#: invalid.
LAG_BOUND_MS = 20.0
#: At 300 jobs/s, runs that lost half their CPU time to steal queued the
#: open loop into 15-340 ms p50s; at 150 jobs/s the pool keeps up with a
#: third of its usual capacity.  ``OPEN_SHARE`` of each attempt gives
#: the p99 its 1,000 samples per run.
OPEN_SHARE = 0.7
CLOSED_WINDOW = 32
#: Closed-phase jobs per second of ``--seconds``: about what one worker
#: process sustains on a 2-core host, so each of its slices holds about
#: a tenth of a second of jobs.
CLOSED_NOMINAL_RATE = 900
#: Each job crosses threads and processes several times, so the runtime
#: falls into slow modes when the hypervisor steals CPU or wakes a
#: thread late (on a 2-vCPU VM, 20-23% steal gave 335-550 jobs/s and a
#: 10-13 ms p50, against 800-1,100 jobs/s and 2-3 ms under 4% steal,
#: and attempts of one process differed as much).  So a run is
#: ``ATTEMPTS`` attempts, each on a fresh service over the same inputs
#: and a third of ``--seconds``.  Each phase of an attempt is cut into
#: slices, and each slice's times are scaled to the CPU time the guest
#: kept: its durations by ``1 - s`` and its rates by ``1 / (1 - s)``,
#: where ``s`` is the stolen share of its busy CPU time.  Over eleven
#: seeds that lost 17-60% of their CPU time to steal, throughput as
#: measured spread 0.69 (IQR over median) and scaled 0.20.  Every
#: service start is a set-up sample: ``SETUP_REPEATS`` in all.
ATTEMPTS = 3
SETUP_REPEATS = 5

RUNTIME_METRICS = (
    "runtime.submit_us_p50", "runtime.wait_ms_p50", "runtime.wait_ms_p99",
    "runtime.service_ms_p50", "runtime.service_ms_p99", "runtime.batches",
    "runtime.retries", "runtime.fallbacks", "runtime.timeouts",
    "runtime.backpressure_hits", "runtime.worker_busy_share",
    "runtime.wire_kb_per_job", "loadgen.lag_ms_p99",
)


def owned_metrics(name: str) -> tuple:
    """The per-layer metrics a traced run must measure."""
    return (RUNTIME_METRICS + CACHE_METRICS + REPLAY_METRICS
            + SHARED_LAYER_METRICS)


def n_workers() -> int:
    return max(1, len(os.sched_getaffinity(0)) - 1)


@dataclass
class Probe:
    """Traced-pass taps on the pool's public ``submit``: worker busy
    time from each reply's ``wall_s`` and pickled payload sizes."""

    busy_s: float = 0.0
    wire_bytes: int = 0

    def attach(self, pool) -> None:
        submit = pool.submit

        def wrapped(request, callback, deadline=None, priority=1):
            self.wire_bytes += len(pickle.dumps(request))

            def on_reply(reply):
                self.busy_s += reply.wall_s
                self.wire_bytes += len(pickle.dumps(reply))
                callback(reply)

            return submit(request, on_reply, deadline=deadline,
                          priority=priority)

        pool.submit = wrapped


async def _started(obs=None):
    """A started service that has answered one job on every worker."""
    from repro import Alphabet
    from repro.runtime import AsyncMatcherService
    from repro.service import ResultCache

    svc = AsyncMatcherService(n_workers(), Alphabet("ABCD"),
                              cache=ResultCache(), obs=obs)
    await svc.start()
    ids = [await svc.submit("AB", "ABCD"[i % 4] * (8 + i))
           for i in range(svc.pool.n_workers)]
    for jid in ids:
        await svc.result(jid)
    return svc


@dataclass
class PassResult:
    submitted: List[tuple] = field(default_factory=list)  # (job, id, lag)
    #: Open-loop job id -> seconds from its due time to its result.
    done_after_due: Dict[int, float] = field(default_factory=dict)
    #: Open-loop job id -> the slice of the schedule it was due in, and
    #: ``cpu_jiffies()`` at each slice boundary.
    open_slice: Dict[int, int] = field(default_factory=dict)
    open_jiffies: List[tuple] = field(default_factory=list)
    #: Closed-loop completions so far -> ``cpu_jiffies()`` then, at the
    #: slice boundaries.
    closed_jiffies: Dict[int, tuple] = field(default_factory=dict)
    closed: List[tuple] = field(default_factory=list)  # (job, id)
    done_at: List[float] = field(default_factory=list)  # closed completions
    closed_start: float = 0.0
    submit_s: List[float] = field(default_factory=list)
    open_s: float = 0.0
    closed_s: float = 0.0
    results: Dict[int, object] = field(default_factory=dict)
    stats: Dict[str, float] = field(default_factory=dict)
    cache: Dict[str, object] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)
    result_errors: List[str] = field(default_factory=list)


async def _serve(svc, open_jobs: List[Job], due: List[float],
                 closed_jobs: List[Job],
                 rec: Optional[SpanRecorder]) -> PassResult:
    from repro.errors import ReproError

    out = PassResult()

    async def submit(job: Job, index: int) -> int:
        if rec is not None:
            rec.op_id = index
        t0 = time.perf_counter()
        with maybe_span(rec, "runtime.submit", "runtime"):
            jid = await svc.submit(job.call_params(), job.stream,
                                   tenant=job.tenant, workload=job.workload)
        out.submit_s.append(time.perf_counter() - t0)
        return jid

    async def finish(jid: int, due_at: float) -> None:
        # Completion on this clock, from the due time: admission inside
        # ``submit`` (rate limiter, parse, validate, prepare) counts.
        await svc.result(jid)
        out.done_after_due[jid] = time.perf_counter() - due_at

    open_starts = {r.start for r in slices(len(open_jobs))}
    start = time.perf_counter()
    waiters = []
    for i, (job, at) in enumerate(zip(open_jobs, due)):
        if i in open_starts:
            out.open_jiffies.append(cpu_jiffies())
        delay = start + at - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        lag = time.perf_counter() - (start + at)
        try:
            jid = await submit(job, i)
        except ReproError as exc:
            out.errors.append(f"open job {i}: {type(exc).__name__}: {exc}")
            continue
        out.submitted.append((job, jid, max(lag, 0.0)))
        out.open_slice[jid] = len(out.open_jiffies) - 1
        waiters.append(asyncio.ensure_future(finish(jid, start + at)))
    out.open_jiffies.append(cpu_jiffies())
    for (_, jid, _), got in zip(out.submitted, await asyncio.gather(
        *waiters, return_exceptions=True
    )):
        if isinstance(got, BaseException):
            # Not in ``errors``: the job was attempted once, and the
            # gate counts it failed for want of a checked result.
            out.result_errors.append(
                f"open job {jid}: {type(got).__name__}: {got}"
            )
    await svc.drain()
    out.open_s = time.perf_counter() - start

    queue = iter(enumerate(closed_jobs, start=len(open_jobs)))
    closed_stops = {r.stop for r in slices(len(closed_jobs))}

    async def client():
        for i, job in queue:
            try:
                jid = await submit(job, i)
                await svc.result(jid)
            except ReproError as exc:
                out.errors.append(f"closed job {i}: {type(exc).__name__}: {exc}")
                continue
            out.closed.append((job, jid))
            out.done_at.append(time.perf_counter())
            if len(out.done_at) in closed_stops:
                out.closed_jiffies[len(out.done_at)] = cpu_jiffies()

    out.closed_jiffies[0] = cpu_jiffies()
    out.closed_start = start = time.perf_counter()
    await asyncio.gather(*(client() for _ in range(CLOSED_WINDOW)))
    out.closed_s = time.perf_counter() - start
    out.results = {r.job_id: r for r in await svc.drain()}
    out.stats = svc.stats()
    out.cache = svc.cache.stats()
    return out


def _inputs(seed: int, seconds: float):
    traffic = OpenLoopTraffic(seed)
    open_s = seconds * OPEN_SHARE
    n_open = int(OPEN_RATE * open_s)
    open_jobs = [traffic.job() for _ in range(n_open)]
    due = traffic.arrivals(OPEN_RATE, n_open)
    closed_jobs = [traffic.job() for _ in
                   range(int(CLOSED_NOMINAL_RATE * (seconds - open_s)))]
    return open_jobs, due, closed_jobs


def _check(p: PassResult, alphabet, outcome: Outcome) -> Dict:
    """The correctness gate; returns this pass's invariant record."""
    outcome.count(len(p.submitted) + len(p.closed) + len(p.errors),
                  len(p.errors), (p.errors + p.result_errors)[:3])
    rows = []
    for job, jid in [(j, i) for j, i, _ in p.submitted] + p.closed:
        r = p.results.get(jid)
        ok = r is not None and r.results == oracle(
            alphabet, job.workload, job.call_params(), job.stream
        )
        if not ok:
            outcome.failed += 1
        if len(rows) < len(p.submitted):
            rows.append((jid, ok, len(r.results) if r is not None else -1))
    return {
        "open_jobs": len(p.submitted),
        "open_results": digest(rows),
        "cache_hits": p.cache["hits"],
        "deduped": p.stats["deduped"],
    }


def _degraded(r) -> bool:
    return r.via_fallback or r.timed_out or r.mode == "software"


@dataclass
class Measured:
    """What one untraced attempt measured, its results already checked
    and dropped (so later attempts do not hold its memory)."""

    #: Jobs/s per closed-loop slice and open-loop latencies (seconds
    #: from due time), both scaled to the CPU time the guest kept.
    closed_rates: List[float]
    open_latencies: List[float]
    latencies: List[float]  # open-loop, seconds from due time
    met: int  # open-loop jobs within the SLO and not degraded
    n_open: int  # open-loop jobs attempted
    degraded: int
    n_jobs: int
    lags: List[float]
    steal: float
    closed_s_per_job: float
    invariants: Dict[str, object]


def _measure(p: PassResult, n_open: int, alphabet, outcome: Outcome,
             steal: float) -> Measured:
    """Check one untraced attempt and keep what its metrics need."""
    invariants = _check(p, alphabet, outcome)
    ids = [jid for _, jid, _ in p.submitted] + [jid for _, jid in p.closed]
    times = [p.closed_start] + p.done_at
    marks = p.closed_jiffies
    counts = sorted(marks)
    closed_rates = [
        (b - a) / (times[b] - times[a]) / _kept(marks[a], marks[b])
        for a, b in zip(counts, counts[1:])
    ]
    open_latencies = [
        s * _kept(p.open_jiffies[k], p.open_jiffies[k + 1])
        for jid, s in p.done_after_due.items()
        for k in (p.open_slice[jid],)
    ]
    return Measured(
        closed_rates=closed_rates,
        open_latencies=open_latencies,
        latencies=list(p.done_after_due.values()),
        # Every open-loop job attempted is in the base: one that raised
        # or never completed is a miss.
        met=sum(
            1 for jid, s in p.done_after_due.items()
            if s <= SLO_MS / 1e3 and not _degraded(p.results[jid])
        ),
        n_open=n_open,
        degraded=sum(
            1 for jid in ids if jid in p.results and _degraded(p.results[jid])
        ),
        n_jobs=len(ids),
        lags=[lag for _, _, lag in p.submitted],
        steal=steal,
        closed_s_per_job=p.closed_s / max(len(p.closed), 1),
        invariants=invariants,
    )


def _kept(before: tuple, after: tuple) -> float:
    """Share of the guest's busy CPU time between two ``cpu_jiffies()``
    readings that the hypervisor did not steal (at least 0.05)."""
    return max(1.0 - steal_share(before, after), 0.05)


def _combine(ms: List[Measured]) -> Dict[str, float]:
    """End-to-end metrics of a run's attempts: throughput and p50 over
    the steal-scaled slices and latencies of all attempts, and the
    samples as measured for the tail and the shares."""
    lat = [s for m in ms for s in m.latencies]
    e2e = {
        "ops_per_s": median([r for m in ms for r in m.closed_rates]),
        "latency_p50_ms": median([s for m in ms for s in m.open_latencies])
        * 1e3,
        "slo_met_share": sum(m.met for m in ms) / sum(m.n_open for m in ms),
        "degraded_share": sum(m.degraded for m in ms)
        / max(sum(m.n_jobs for m in ms), 1),
    }
    if supports(len(lat), 99):
        e2e["latency_p99_ms"] = pct(lat, 99) * 1e3
    return e2e


def run(name: str, seed: int, seconds: float, trace: bool,
        span_path: str) -> Outcome:
    from repro import Alphabet

    alphabet = Alphabet("ABCD")
    outcome = Outcome()
    open_jobs, due, closed_jobs = _inputs(seed, seconds / ATTEMPTS)

    async def untraced():
        setups, ms = [], []
        for attempt in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            svc = await _started()
            setups.append(time.perf_counter() - t0)
            if attempt < SETUP_REPEATS - ATTEMPTS:
                await svc.close()
                continue
            before = cpu_jiffies()
            try:
                p = await _serve(svc, open_jobs, due, closed_jobs, None)
            finally:
                await svc.close()
            ms.append(_measure(p, len(open_jobs), alphabet, outcome,
                               steal_share(before, cpu_jiffies())))
            del p
        return median(setups), ms

    async def traced(rec: SpanRecorder, probe: Probe):
        from repro.obs import Observability

        svc = await _started(obs=Observability())
        try:
            with instrumented(rec, _runtime_targets()):
                probe.attach(svc.pool)  # over the instrumented submit
                return await _serve(svc, open_jobs, due, closed_jobs, rec)
        finally:
            await svc.close()

    setup, ms = asyncio.run(untraced())
    for m in ms[1:]:
        mismatch = diff_invariants(ms[0].invariants, m.invariants,
                                   "first attempt", "a later attempt")
        if mismatch:
            outcome.problems.append(mismatch)
    # Validity of the untraced open loop (the traced pass runs slower by
    # design and is not held to it).  An invalid run still reports its
    # numbers, marked, because its outputs were checked all the same.
    lag_ms = pct([lag for m in ms for lag in m.lags], 99) * 1e3
    outcome.notes.append(
        f"untraced load generator lag p99 {lag_ms:.2f} ms; host CPU steal "
        + ", ".join(f"{m.steal:.1%}" for m in ms)
        + f" in the {ATTEMPTS} attempts (throughput and p50 are scaled to "
        "the CPU time the guest kept)"
    )
    if lag_ms > LAG_BOUND_MS:
        outcome.notes.append(
            f"INVALID run: load generator lag p99 {lag_ms:.1f} ms exceeds "
            f"{LAG_BOUND_MS:g} ms"
        )
    if not trace:
        outcome.e2e = dict(
            _combine(ms), setup_s=setup, peak_rss_mb=peak_rss_mb(),
            failed_share=outcome.failed / outcome.attempted,
        )
        outcome.notes.append(
            f"{n_workers()} worker process(es); {ATTEMPTS} attempts, each "
            f"on a fresh service: open loop {len(open_jobs)} jobs at "
            f"{OPEN_RATE:g}/s, SLO {SLO_MS:g} ms (latency samples "
            f"{sum(len(m.latencies) for m in ms)} pooled for p99); closed "
            f"loop {len(closed_jobs)} jobs, window {CLOSED_WINDOW}"
        )
    else:
        rec, probe = SpanRecorder(), Probe()
        t = asyncio.run(traced(rec, probe))
        inv_t = _check(t, alphabet, outcome)
        mismatch = diff_invariants(ms[0].invariants, inv_t, "untraced pass",
                                   "traced pass")
        if mismatch:
            outcome.problems.append(mismatch)
        outcome.layers = _layers(
            median([m.closed_s_per_job for m in ms]), t, rec, probe
        )
        rec.save(span_path)
    outcome.invariants = ms[0].invariants
    return outcome


def _runtime_targets():
    from repro.runtime import WorkerPool
    from repro.service import ResultCache

    return common_targets() + [
        (ResultCache, "get", "service.cache"),
        (ResultCache, "put", "service.cache"),
        (WorkerPool, "submit", "runtime"),
    ]


def _layers(base_s_per_job: float, p: PassResult, rec: SpanRecorder,
            probe: Probe) -> Dict[str, float]:
    from repro import Alphabet

    served = [r for r in p.results.values() if r.worker is not None]
    waits = [r.wait_s for r in served]
    services = [r.finished_s - r.started_s for r in served]
    jobs = [j for j, _, _ in p.submitted] + [j for j, _ in p.closed]
    stats = p.stats
    lookups = p.cache["hits"] + p.cache["misses"]
    wall = p.open_s + p.closed_s
    out = {
        "runtime.submit_us_p50": median(p.submit_s) * 1e6,
        "runtime.wait_ms_p50": median(waits) * 1e3,
        "runtime.wait_ms_p99": pct(waits, 99) * 1e3,
        "runtime.service_ms_p50": median(services) * 1e3,
        "runtime.service_ms_p99": pct(services, 99) * 1e3,
        "runtime.batches": stats["batches"],
        "runtime.retries": stats["retries"],
        "runtime.fallbacks": stats["fallbacks"],
        "runtime.timeouts": stats["timeouts"],
        "runtime.backpressure_hits": stats["backpressure_hits"],
        "runtime.worker_busy_share": probe.busy_s / (n_workers() * wall),
        "runtime.wire_kb_per_job": probe.wire_bytes / 1024 / len(jobs),
        "loadgen.lag_ms_p99": pct([lag for _, _, lag in p.submitted], 99)
        * 1e3,
        "cache.hit_ratio": p.cache["hits"] / lookups if lookups else 0.0,
        "cache.lookups": lookups,
        "cache.hits": p.cache["hits"],
        "cache.misses": p.cache["misses"],
        "cache.stores": p.cache["stores"],
        "cache.evictions": p.cache["evictions"],
        "circuit.settle_spans": rec.count("circuit"),
        # Both passes last as long as their schedule and clock say, so
        # the overhead is the closed loop's time per job, traced over
        # untraced.
        "trace.overhead_ratio": p.closed_s / len(p.closed) / base_s_per_job,
    }
    out.update(workload_layers(
        jobs, [(j.workload, j.call_params(), [j.stream]) for j in jobs],
        Alphabet("ABCD"),
    ))
    out.update(layer_metrics(rec, len(jobs)))
    return out
