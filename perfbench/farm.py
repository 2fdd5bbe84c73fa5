"""``farm_mix`` and ``farm_churn``: the synchronous ``MatcherService``.

Closed-loop waves of 64 jobs (never more than the default
``queue_capacity``) are grouped the way a client batches them: jobs of
one tenant, kernel and parameter set go through ``submit_many``, the
rest through ``submit``.  A wave is ready when the previous one has
been served; on ``farm_churn`` the health sweep runs first, so it
blocks the wave.  A job's latency runs from wave-ready to the end of
the ``drain`` that served it.

Waves are served by a fresh ``MatcherService`` every epoch of 32 waves,
over the same pool and result cache.  ``drain`` returns every result
the service ever completed, so one service per epoch keeps the work
and memory of a wave independent of how long the run lasts.
Simulated statistics (beats, cache and dedup counts) are taken from
epoch 0, which is the same on every run of a seed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .common import (
    CACHE_METRICS, REPLAY_METRICS, SHARED_LAYER_METRICS, OracleMemo,
    Outcome, cpu_jiffies, diff_invariants, digest, fresh_process_seconds,
    median, median_rate, pct, peak_rss_mb, quiet, slices, supports,
)
from .gen import FarmTraffic, Job
from .replay import bist_probe_ms, workload_layers
from .spans import (
    SpanRecorder, common_targets, instrumented, layer_metrics, maybe_span,
)

WAVES_PER_EPOCH = 32
N_WORKERS = 8
CELLS = 16
#: farm_churn's fault rates: deaths per execution, latent defects per
#: probe.  Deaths are always paired with the health loop.
P_DEATH = 0.02
P_DEFECT = 0.02

#: Per-layer metrics of both farm workloads, and those only farm_churn's
#: health loop gives.
SERVICE_METRICS = (
    "service.submit_us_per_job", "service.drain_us_per_job",
    "service.batches", "service.batched_jobs", "service.deduped",
    "service.executions", "service.retries", "service.fallbacks",
    "service.deaths", "service.wait_beats_p50", "service.service_beats_p50",
    "service.bus_utilization",
)
HEALTH_METRICS = (
    "health.sweep_ms_p50", "health.sweeps", "health.sweep_share",
    "health.quarantines", "health.heals", "bist.runs", "bist.probe_ms_p50",
    "wafer.draws", "wafer.heals_per_draw",
)


def owned_metrics(name: str) -> tuple:
    """The per-layer metrics a traced run of *name* must measure."""
    health = HEALTH_METRICS if name == "farm_churn" else ()
    return (SERVICE_METRICS + CACHE_METRICS + REPLAY_METRICS
            + SHARED_LAYER_METRICS + health)


@dataclass
class Farm:
    """A pool ready to serve, plus what serves beside it."""

    pool: object
    cache: object
    injector: object = None
    health: object = None
    supply: object = None


def build(seed: int, churn: bool) -> Farm:
    """Everything set-up pays for: the pool and, on churn, the health
    loop with its BIST golden signature."""
    from repro import Alphabet
    from repro.chip.chip import ChipSpec
    from repro.service import (
        FaultInjector, FleetHealth, ResultCache, uniform_pool,
    )
    from repro.wafer import WaferSupply

    pool = uniform_pool(N_WORKERS, ChipSpec(CELLS, 2), Alphabet("ABCD"))
    farm = Farm(pool=pool, cache=ResultCache())
    if churn:
        farm.injector = FaultInjector(
            seed=seed, p_death=P_DEATH, p_defect=P_DEFECT
        )
        # Large enough never to run dry: draws are made lazily.
        farm.supply = WaferSupply(
            1_000_000, rows=4, cols=4, defect_rate=0.05, seed=seed + 1
        )
        farm.health = FleetHealth(
            pool, supply=farm.supply, injector=farm.injector
        )
        farm.health.controller.golden_signature()
    return farm


def setup_seconds(seed: int, churn: bool) -> float:
    """A fresh process's imports and :func:`build` (on churn, its BIST
    golden signature is computed cold)."""
    return fresh_process_seconds(
        f"from perfbench.farm import build; build({seed}, {churn})"
    )


def _submit_wave(svc, jobs: List[Job], rec: Optional[SpanRecorder]):
    """Submit one wave grouped as a batching client would.

    Returns the job ids in wave order and, per group, the
    ``(workload, params, streams)`` batch the planner may coalesce: its
    streams narrower than the service's wide-text threshold (wider ones
    get shard plans of their own)."""
    groups: Dict[Tuple, List[int]] = {}
    for i, job in enumerate(jobs):
        groups.setdefault((job.tenant, job.workload, job.params), []).append(i)
    ids: List[int] = [0] * len(jobs)
    batches: List[Tuple[str, object, list]] = []
    wide = svc.config.wide_text_threshold
    for (tenant, workload, _), members in groups.items():
        params = jobs[members[0]].call_params()
        narrow = [jobs[i].stream for i in members
                  if len(jobs[i].stream) < wide]
        if narrow:
            batches.append((workload, params, narrow))
        with maybe_span(rec, "service.submit", "service"):
            if len(members) == 1:
                got = [svc.submit(params, jobs[members[0]].stream,
                                  tenant=tenant, workload=workload)]
            else:
                got = svc.submit_many(
                    params, [jobs[i].stream for i in members],
                    tenant=tenant, workload=workload,
                )
        for i, jid in zip(members, got):
            ids[i] = jid
    return ids, batches


_BEAT_FIELDS = ("mode", "attempts", "via_fallback", "timed_out",
                "submitted_beat", "started_beat", "finished_beat",
                "wait_beats", "service_beats")


@dataclass
class PassResult:
    jobs: int = 0
    wave_s: List[float] = field(default_factory=list)  # ready to served
    wave_steal: List[int] = field(default_factory=list)  # CPU jiffies
    wave_busy: List[int] = field(default_factory=list)
    degraded: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    epochs: int = 0
    epoch0: Dict[str, object] = field(default_factory=dict)
    digests: List[str] = field(default_factory=list)
    sweeps: List[float] = field(default_factory=list)
    waits: List[float] = field(default_factory=list)
    services: List[float] = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=dict)
    #: With ``keep_jobs``: every job served, and the batches
    #: ``_submit_wave`` offered the planner.
    jobs_served: List[Job] = field(default_factory=list)
    batches: List[Tuple[str, object, list]] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return sum(self.wave_s)


def _epoch_record(svc, farm: Farm, rows: List[tuple]) -> Dict[str, object]:
    """The simulated outputs of one epoch that must repeat exactly."""
    t = svc.telemetry
    stats = farm.cache.stats()
    rec = {
        "makespan_beats": t.makespan_beats,
        "jobs": digest(rows),
        "batches": t.batches,
        "deduped": t.deduped,
        "cache_hits": stats["hits"],
        "cache_misses": stats["misses"],
        "cache_stores": stats["stores"],
        "cache_evictions": stats["evictions"],
    }
    if farm.health is not None:
        rec["health_events"] = digest(
            [(e.worker, e.action, e.cell) for e in farm.health.events]
        )
    return rec


def serve(
    farm: Farm, traffic: FarmTraffic, oracle: OracleMemo,
    budget_s: Optional[float], epochs: Optional[int],
    rec: Optional[SpanRecorder] = None, make_obs=None,
    keep_jobs: bool = False,
) -> PassResult:
    """Serve whole epochs until *budget_s* seconds of measured wave time
    (or exactly *epochs* epochs) are done; check every result.

    *make_obs* builds each epoch's ``Observability``: its registry backs
    the service's telemetry, so sharing one across epochs would carry
    one epoch's counters into the next."""
    from repro.errors import ReproError
    from repro.service import MatcherService

    out = PassResult()
    counters: Dict[str, float] = {}
    epoch = 0
    stop = False
    while not stop:
        svc = MatcherService(
            farm.pool, faults=farm.injector, cache=farm.cache,
            obs=make_obs() if make_obs is not None else None,
        )
        rows: List[tuple] = []
        for w in range(WAVES_PER_EPOCH):
            jobs = traffic.wave(epoch * WAVES_PER_EPOCH + w)
            if rec is not None:
                rec.op_id += 1
            before = cpu_jiffies()
            try:
                with maybe_span(rec, "wave", "op"):
                    t_ready = time.perf_counter()
                    if farm.health is not None:
                        with maybe_span(rec, "health.sweep", "service.health"):
                            farm.health.sweep()
                        out.sweeps.append(time.perf_counter() - t_ready)
                    ids, batches = _submit_wave(svc, jobs, rec)
                    with maybe_span(rec, "service.drain", "service"):
                        results = svc.drain()
                    t_done = time.perf_counter()
            except ReproError as exc:
                out.failed += len(jobs)
                out.jobs += len(jobs)
                out.problems.append(f"wave raised {type(exc).__name__}: {exc}")
                stop = True
                break
            after = cpu_jiffies()
            out.wave_s.append(t_done - t_ready)
            out.wave_steal.append(after[0] - before[0])
            out.wave_busy.append(after[1] - before[1])
            out.jobs += len(jobs)
            # Outside the measured interval: the correctness gate.
            for job, jid in zip(jobs, ids):
                r = results[jid] if jid < len(results) else None
                if r is None or r.job_id != jid:
                    out.failed += 1
                    continue
                if r.results != oracle(job.workload, job.call_params(),
                                       job.stream):
                    out.failed += 1
                if r.via_fallback or r.timed_out:
                    out.degraded += 1
                out.waits.append(r.wait_beats)
                out.services.append(r.service_beats)
                rows.append((jid, job.workload, list(r.workers))
                            + tuple(getattr(r, f) for f in _BEAT_FIELDS))
            if keep_jobs:
                out.jobs_served.extend(jobs)
                out.batches.extend(batches)
        if stop:
            break
        t = svc.telemetry
        for key in ("batches", "batched_jobs", "deduped", "retries",
                    "fallbacks", "deaths", "bus_busy_beats",
                    "makespan_beats"):
            counters[key] = counters.get(key, 0.0) + getattr(t, key)
        counters["executions"] = counters.get("executions", 0.0) + sum(
            ws.executions for ws in t.workers.values()
        )
        record = _epoch_record(svc, farm, rows)
        if epoch == 0:
            out.epoch0 = record
        out.digests.append(digest(record))
        oracle.clear()
        epoch += 1
        out.epochs = epoch
        if epochs is not None:
            stop = epoch >= epochs
        else:
            stop = out.seconds >= budget_s
    out.counters = counters
    return out


def _farm_targets():
    from repro.bist import BISTController
    from repro.service import ResultCache
    from repro.service.pool import PoolWorker
    from repro.wafer import WaferSupply

    return common_targets() + [
        (ResultCache, "get", "service.cache"),
        (ResultCache, "put", "service.cache"),
        (PoolWorker, "run_match", "core.fastpath"),
        (PoolWorker, "run_kernel", "core.fastpath"),
        (PoolWorker, "run_match_batch", "core.fastpath"),
        (PoolWorker, "run_kernel_batch", "core.fastpath"),
        (PoolWorker, "from_wafer", "wafer"),
        (BISTController, "run", "bist"),
        (WaferSupply, "draw", "wafer"),
    ]


def run(name: str, seed: int, seconds: float, trace: bool,
        span_path: str) -> Outcome:
    from repro import Alphabet
    from repro.obs import Observability

    churn = name == "farm_churn"
    traffic = FarmTraffic(seed, shared=not churn)
    oracle = OracleMemo(Alphabet("ABCD"))
    outcome = Outcome()
    if not trace:
        setup = setup_seconds(seed, churn)
        farm = build(seed, churn)
        p = serve(farm, traffic, oracle, budget_s=seconds, epochs=None)
        outcome.count(p.jobs, p.failed, p.problems)
        # Slices of waves the hypervisor stole more CPU from are set
        # aside; a job's latency is its wave's, so waves stand for jobs.
        parts = quiet(slices(len(p.wave_s)), p.wave_steal, p.wave_busy)
        waves = [p.wave_s[i] for r in parts for i in r]
        outcome.e2e = {
            "setup_s": setup,
            "ops_per_s": median_rate(
                p.wave_s, [traffic.WAVE_JOBS] * len(p.wave_s), parts
            ),
            "latency_p50_ms": median(waves) * 1e3,
            "degraded_share": p.degraded / p.jobs,
            "failed_share": p.failed / p.jobs,
            "peak_rss_mb": peak_rss_mb(),
            "sim_makespan_beats": p.epoch0.get("makespan_beats", 0.0),
        }
        samples = len(waves) * traffic.WAVE_JOBS
        if supports(samples, 99):
            outcome.e2e["latency_p99_ms"] = pct(waves, 99) * 1e3
        outcome.notes.append(
            f"{p.jobs} jobs in {p.epochs} epochs; {len(parts)} of "
            f"{len(slices(len(p.wave_s)))} slices within the CPU steal "
            f"bound; latency samples {samples}, one per job, {len(waves)} "
            f"distinct (jobs of a wave share its time)"
        )
    else:
        base = serve(build(seed, churn), traffic, oracle,
                     budget_s=seconds / 2, epochs=None)
        farm = build(seed, churn)
        rec = SpanRecorder()
        with instrumented(rec, _farm_targets()):
            p = serve(farm, traffic, oracle, budget_s=None,
                      epochs=base.epochs, rec=rec, make_obs=Observability,
                      keep_jobs=True)
        outcome.count(base.jobs, base.failed, base.problems)
        outcome.count(p.jobs, p.failed, p.problems)
        if base.digests != p.digests:
            outcome.problems.append(diff_invariants(
                base.epoch0, p.epoch0, "untraced pass", "traced pass"
            ) or "traced and untraced epochs differ after epoch 0")
        outcome.layers = _layers(farm, p, rec, base)
        rec.save(span_path)
    outcome.invariants = p.epoch0
    return outcome


def _layers(farm: Farm, p: PassResult, rec: SpanRecorder,
            base: PassResult) -> Dict[str, float]:
    from repro import Alphabet

    c = p.counters
    stats = farm.cache.stats()
    lookups = stats["hits"] + stats["misses"]
    out: Dict[str, float] = {
        "service.submit_us_per_job": rec.total("service.submit") * 1e6 / p.jobs,
        "service.drain_us_per_job": rec.total("service.drain") * 1e6 / p.jobs,
        "service.batches": c["batches"],
        "service.batched_jobs": c["batched_jobs"],
        "service.deduped": c["deduped"],
        "service.executions": c["executions"],
        "service.retries": c["retries"],
        "service.fallbacks": c["fallbacks"],
        "service.deaths": c["deaths"],
        "service.wait_beats_p50": median(p.waits),
        "service.service_beats_p50": median(p.services),
        "service.bus_utilization": (
            c["bus_busy_beats"] / c["makespan_beats"]
            if c["makespan_beats"] else 0.0
        ),
        "cache.hit_ratio": stats["hits"] / lookups if lookups else 0.0,
        "cache.lookups": lookups,
        "cache.hits": stats["hits"],
        "cache.misses": stats["misses"],
        "cache.stores": stats["stores"],
        "cache.evictions": stats["evictions"],
        "circuit.settle_spans": rec.count("circuit"),
        "trace.overhead_ratio": p.seconds / base.seconds,
    }
    out.update(workload_layers(p.jobs_served, p.batches, Alphabet("ABCD")))
    if farm.health is not None:
        events = farm.health.events
        heals = sum(1 for e in events if e.action == "heal")
        draws = farm.supply.drawn
        out.update({
            "health.sweep_ms_p50": median(p.sweeps) * 1e3,
            "health.sweeps": len(p.sweeps),
            "health.sweep_share": sum(p.sweeps) / p.seconds,
            "health.quarantines": len(events) - heals,
            "health.heals": heals,
            "bist.runs": rec.count("bist"),
            "bist.probe_ms_p50": bist_probe_ms(),
            "wafer.draws": draws,
            "wafer.heals_per_draw": heals / draws if draws else 0.0,
        })
    out.update(layer_metrics(rec, p.jobs))
    return out
