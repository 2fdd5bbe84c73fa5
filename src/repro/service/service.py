"""`MatcherService`: submit/drain over the device pool.

The service is a discrete-event simulation driven by the beat clock.
``submit`` admits jobs through the bounded priority queues (backpressure
applies); ``drain`` runs the farm to completion: assign queued work to
idle workers, advance the clock to the next completion, handle faults,
repeat.  Every execution is beat-accounted (worker service time from the
250 ns timing model, bus occupancy from the host memory model), and every
result is produced by a verified engine, so service output is identical
to the workload's oracle no matter how the job was routed, retried, or
sharded.

The farm has one execution unit.  A plan popped from the queues becomes
one or more executions, each a list of ``(job state, shard)`` items
committed to one worker: a singleton is one whole-text item, a
text-sharded job one execution per shard, and a batch plan one
whole-text item per member.  Every execution draws one fault, sums its
items' demand, serves the items whose deadline it would blow from the
host (then projects the rest once more), and reserves the bus once.  On
completion it runs the kernel (``run_kernel`` for a singleton or shard,
``run_kernel_batch`` for a batch plan) or, when its worker died, puts
all its items up for one retry or serves each from the host oracle.  A
job's ``started_beat`` is its first launch, however it ends.

``submit(workload=...)`` serves any kernel registered in
:mod:`repro.workloads` -- matching (the default), match counting,
correlation, convolution, FIR, sliding inner products (Section 3.4) --
down one path: the workload's ``parse_params``, ``validate_stream`` and
``prepare`` at admission, its ``fast`` (or ``batched``) engine on a
worker, halo-overlap shard merging with its ``incomplete`` filler, and
its ``finalize`` at completion.  Retry exhaustion, saturation and
deadlines degrade to the workload's ``oracle`` on the host CPU.  Results
equal the direct oracle definition for every workload, property-tested
under fault injection in ``tests/test_workloads_service.py``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import BackpressureError, ServiceError
from ..host.bus import HostSpec
from .cache import ResultCache, canonical_params, result_cache_key
from .planner import coalesce
from .pool import DevicePool, PoolWorker, WorkerState
from .reliability import FaultInjector, FaultKind, RetryPolicy, SoftwareFallback
from .scheduler import BeatClock, JobQueues, Priority, SchedulerConfig, SharedBus
from .sharding import (
    ShardMode,
    TextShard,
    merge_shard_values,
    plan_shards,
)
from .telemetry import ServiceTelemetry
from ..workloads.registry import MATCH, WorkloadSpec, get_workload


@dataclass
class MatchJob:
    """One admitted query of any registered Section 3.4 workload.

    ``taps`` holds the *prepared* tap vector (the parsed pattern for
    ``match`` and ``count``), ``text`` the prepared stream (padded for
    convolution/FIR), and ``orig_len`` the validated input-stream length
    that ``spec.finalize`` maps windowed results back onto."""

    job_id: int
    tenant: str
    priority: Priority
    spec: WorkloadSpec
    taps: list
    text: List
    orig_len: int
    submitted_beat: float
    attempts: int = 0  # failed executions so far (drives the retry policy)
    span: Optional[object] = None  # open service.job span (obs attached)
    deadline: Optional[float] = None  # absolute beat; None = no SLO
    #: Cross-tenant result-cache identity (also the submit_many dedup
    #: key): canonical workload + params + content digest of the
    #: validated input.  None until the admission path computes it.
    cache_key: Optional[tuple] = None

    @property
    def workload(self) -> str:
        return self.spec.name

    @property
    def window_len(self) -> int:
        """Cells the job needs: the sliding-window width."""
        return len(self.taps)


@dataclass(frozen=True)
class JobResult:
    """The completed job: the oracle-identical result stream plus its
    latency story."""

    job_id: int
    tenant: str
    priority: Priority
    results: List
    submitted_beat: float
    started_beat: float
    finished_beat: float
    wait_beats: float
    service_beats: float
    mode: str
    workers: Tuple[str, ...]
    attempts: int
    via_fallback: bool
    workload: str = MATCH.name
    timed_out: bool = False

    @property
    def latency_beats(self) -> float:
        return self.finished_beat - self.submitted_beat


@dataclass
class _JobState:
    """In-flight bookkeeping for one job: its shards and what came back.

    ``mode`` is the label its plan runs under (``direct``, ``multipass``,
    ``text-sharded`` or ``batched``); ``shards`` is one whole-text shard
    unless the job is text-sharded."""

    job: MatchJob
    mode: str
    shards: List[TextShard]
    shard_results: Dict[int, List] = field(default_factory=dict)
    started_beat: Optional[float] = None  # first launch (or host service)
    finished_beat: float = 0.0
    #: Whole beats (an int, as ``PoolWorker.service_beats`` and
    #: ``SoftwareFallback.beats`` count them) for a batch member or a job
    #: only the host served; a singleton or sharded job sums the elapsed
    #: beats of its executions (a float, host shards included).
    service_beats: float = 0
    workers_used: List[str] = field(default_factory=list)
    via_fallback: bool = False
    timed_out: bool = False


@dataclass(frozen=True)
class _Execution:
    """One launch on one worker (or its death there).

    Each item is a ``(job state, shard)`` pair: a singleton or one shard
    of a text-sharded job is one item, a batch plan is one whole-text
    item per member.  All items share the plan's pattern/taps and live or
    die together with the worker."""

    items: List[Tuple[_JobState, TextShard]]
    worker: PoolWorker
    start_beat: float
    finish_beat: float
    fault: Optional[object]

    @property
    def batched(self) -> bool:
        return self.items[0][0].mode == "batched"


class MatcherService:
    """The multi-tenant matcher farm (the public API of the subsystem).

    >>> pool = uniform_pool(4, ChipSpec(8, 2), Alphabet("ABCD"))  # doctest: +SKIP
    >>> svc = MatcherService(pool)                                # doctest: +SKIP
    >>> jid = svc.submit("AXC", "ABCAACACCAB", tenant="alice")    # doctest: +SKIP
    >>> svc.drain()[0].results                                    # doctest: +SKIP
    """

    def __init__(
        self,
        pool: DevicePool,
        config: Optional[SchedulerConfig] = None,
        host: Optional[HostSpec] = None,
        faults: Optional[FaultInjector] = None,
        obs=None,
        cache: Optional[ResultCache] = None,
    ):
        self.pool = pool
        self.config = config or SchedulerConfig()
        self.host = host or HostSpec()
        self.faults = faults or FaultInjector()
        self.retry = RetryPolicy(self.config.max_retries)
        self.fallback = SoftwareFallback(self.host)
        self.beat_ns = pool.workers[0].beat_ns
        self.clock = BeatClock()
        self.queues = JobQueues(self.config)
        self.obs = obs
        self.bus = SharedBus(self.host, self.beat_ns, obs=obs)
        self.telemetry = ServiceTelemetry(
            registry=obs.registry if obs is not None else None
        )
        if obs is not None:
            self.faults.attach_obs(obs)
        # Optional cross-tenant result cache.  Pass
        # ``ResultCache(registry=obs.registry)`` to fold its hit/miss
        # counters into the run's unified metrics; its TTL is measured
        # in beats (the farm's clock).
        self.cache = cache
        self._next_id = 0
        self._seq = 0
        self._inflight: List[Tuple[float, int, _Execution]] = []
        # Items of dead executions awaiting a retry launch, a heap of
        # ``(batched, seq, items)``: unbatched ones (a singleton or a
        # shard) relaunch first, each kind in the order it died.
        self._retry: List[Tuple[bool, int, list]] = []
        self._followers: Dict[int, List[MatchJob]] = {}
        self._completed: Dict[int, JobResult] = {}
        for w in pool:
            stats = self.telemetry.worker_stats(w.name, w.capacity)
            stats.died = not w.is_live

    # -- submission --------------------------------------------------------

    def submit(
        self,
        pattern,
        text: Sequence,
        tenant: str = "default",
        priority: Priority = Priority.BATCH,
        workload: str = MATCH.name,
        timeout: Optional[float] = None,
    ) -> int:
        """Admit one query; returns its job id (:meth:`submit_many` of
        one text)."""
        return self.submit_many(
            pattern, [text], tenant, priority, workload, timeout
        )[0]

    def _admit(
        self,
        spec: WorkloadSpec,
        taps: list,
        text: Sequence,
        tenant: str,
        priority: Priority,
        timeout: Optional[float],
    ) -> Tuple[MatchJob, list]:
        """Validate and prepare one stream into a new job (id, telemetry,
        open ``service.job`` span); returns it with the validated input."""
        validated = spec.validate_stream(text, self.pool.alphabet)
        ktaps, feed = spec.prepare(taps, validated)
        now = self.clock.now
        job = MatchJob(
            job_id=self._next_id,
            tenant=tenant,
            priority=priority,
            spec=spec,
            taps=ktaps,
            text=feed,
            orig_len=len(validated),
            submitted_beat=now,
        )
        if timeout is not None:
            job.deadline = now + timeout
        self._next_id += 1
        self.telemetry.submitted += 1
        if self.obs is not None:
            # Jobs overlap in simulated time, so their spans cannot nest on
            # the tracer stack: open/close explicitly, keyed off the job.
            job.span = self.obs.tracer.open_span(
                "service.job", t0=now, unit="beats",
                job_id=job.job_id, tenant=tenant, priority=priority.name,
                workload=spec.name,
            )
        return job, validated

    def _note_queue_depth(self, priority: Priority) -> None:
        if self.obs is not None:
            self.obs.tracer.event(
                "queue.depth", t=self.clock.now, unit="beats",
                priority=priority.name,
                depth=self.queues.depth(priority),
            )

    def submit_many(
        self,
        pattern,
        texts: Sequence[Sequence],
        tenant: str = "default",
        priority: Priority = Priority.BATCH,
        workload: str = MATCH.name,
        timeout: Optional[float] = None,
    ) -> List[int]:
        """Admit one job per text in *texts*; returns their job ids.

        *pattern* is a match pattern for the default workload, or the
        tap/pattern parameters of any workload registered in
        :mod:`repro.workloads` (``"count"``, ``"correlation"``,
        ``"convolution"``, ``"fir"``, ``"inner-product"``); each text is
        the character text or numeric sample stream accordingly.  The
        pattern (or tap vector) is parsed **once**; each text then takes
        the cheapest route that still yields an oracle-identical result:

        * empty texts complete immediately;
        * texts whose canonical result is already in the
          :class:`~repro.service.cache.ResultCache` complete from it
          (``mode="cached"``);
        * the rest are planned by :func:`~repro.service.planner.coalesce`:
          duplicate texts share **one** plan -- the first occurrence is
          the representative, later ones are followers that share its
          execution and results (``mode="deduped"``); wide texts
          (``>= wide_text_threshold``) get their own shard/merge plans;
          narrow texts are chunked into plans of at most
          ``config.max_batch_jobs`` members.  A one-member plan runs as
          a singleton (``mode="direct"``/``"multipass"``), a longer one
          as a single batched execution on one worker
          (``mode="batched"``).

        Backpressure applies per queue entry (one plan is one entry).
        With ``degrade_when_saturated`` the overflowing plan is served
        by the host CPU's behavioral oracle for the workload right away
        (slower, never wrong); otherwise the overflowing plan and every
        plan after it is rejected and :class:`BackpressureError` raised
        (already-admitted plans stay admitted).

        *timeout* (beats) is each job's SLO: any launch whose projected
        finish would land past ``submitted + timeout`` is not committed
        to a worker at all -- the job (or shard) is served degraded from
        the host oracle instead, so a slow or hung worker can never
        wedge a drain past the deadline.  The result is flagged
        ``timed_out`` (and still oracle-identical).
        """
        if timeout is not None and timeout <= 0:
            raise ServiceError("timeout must be a positive number of beats")
        spec = get_workload(workload)
        parsed = spec.parse_params(pattern, self.pool.alphabet)
        params = canonical_params(parsed)
        job_ids: List[int] = []
        admitted: List[MatchJob] = []
        for text in texts:
            job, validated = self._admit(
                spec, parsed, text, tenant, priority, timeout
            )
            job_ids.append(job.job_id)
            now = self.clock.now
            if not validated:
                self._record(job, [], now, now, 0.0, ShardMode.DIRECT.value)
                continue
            job.cache_key = result_cache_key(
                workload, parsed, validated, spec.numeric, params=params
            )
            if self.cache is not None:
                hit = self.cache.get(
                    job.cache_key, tenant=tenant, now=self.clock.now
                )
                if hit is not None:
                    # No queue, no worker, no bus, zero service beats.
                    self._record(job, hit, now, now, 0.0, "cached")
                    continue
            admitted.append(job)
        wide = self.config.wide_text_threshold
        plans, followers = coalesce(
            admitted, self.config.max_batch_jobs,
            solo=lambda job: len(job.text) >= wide,
        )
        for rep, follower in followers:
            self.telemetry.deduped += 1
            self._followers.setdefault(rep.job_id, []).append(follower)
        for i, plan in enumerate(plans):
            try:
                self.queues.put(priority, tenant, plan)
                self._note_queue_depth(priority)
            except BackpressureError:
                self.telemetry.backpressure_hits += 1
                if self.config.degrade_when_saturated:
                    for job in plan:
                        self._fallback(*self._whole(job))
                    continue
                for late in plans[i:]:
                    for job in late:
                        self._reject(job)
                raise
        return job_ids

    def _reject(self, job: MatchJob) -> None:
        """Roll one not-admitted job (and its followers) back out."""
        self.telemetry.submitted -= 1
        if job.span is not None:
            self.obs.tracer.close(job.span, t1=self.clock.now, rejected=True)
            job.span = None
        for follower in self._followers.pop(job.job_id, []):
            self._reject(follower)

    # -- draining ----------------------------------------------------------

    def drain(self) -> List[JobResult]:
        """Run the farm until every admitted job has completed; returns
        all results so far, in job-id order."""
        while self.queues.depth() or self._retry or self._inflight:
            self._assign_all()
            if not self._inflight:
                if self.pool.n_live == 0:
                    self._degrade_remaining()
                    continue
                if not self.queues.depth() and not self._retry:
                    # Everything was served inline (deadline timeouts /
                    # saturation degrades) without touching a worker.
                    continue
                raise ServiceError(
                    "scheduler stalled with live workers and queued jobs"
                )
            _, _, execution = heapq.heappop(self._inflight)
            self.clock.advance_to(execution.finish_beat)
            self._complete(execution)
        self._sync_telemetry()
        return [self._completed[i] for i in sorted(self._completed)]

    def results(self) -> List[JobResult]:
        """Completed results so far (without draining)."""
        return [self._completed[i] for i in sorted(self._completed)]

    # -- assignment --------------------------------------------------------

    def _assign_all(self) -> None:
        while True:
            idle = self.pool.idle_workers()
            if not idle:
                return
            if self._retry:
                items = heapq.heappop(self._retry)[2]
                plen = items[0][0].job.window_len
                self._launch(items, self._choose_worker(idle, plen))
                continue
            plan = self.queues.pop()
            if plan is None:
                return
            self._start(plan)

    @staticmethod
    def _choose_worker(
        idle: Sequence[PoolWorker], pattern_len: int
    ) -> PoolWorker:
        """Best fit: the smallest worker the pattern fits on; otherwise
        the largest worker (fewest multipass runs)."""
        fitting = [w for w in idle if w.fits(pattern_len)]
        if fitting:
            return min(fitting, key=lambda w: (w.capacity, w.name))
        return max(idle, key=lambda w: (w.capacity, w.name))

    @staticmethod
    def _whole(
        job: MatchJob, mode: str = ShardMode.DIRECT.value,
        service_beats: float = 0,
    ) -> Tuple[_JobState, TextShard]:
        """A one-shard state for *job* and its whole-text shard."""
        whole = TextShard(0, 0, len(job.text) - 1, 0)
        return _JobState(job, mode, [whole], service_beats=service_beats), whole

    def _start(self, plan: List[MatchJob]) -> None:
        """Launch a plan popped from the queues: a wide singleton across
        several fitting idle workers (one execution per shard) when the
        shard planner splits it, otherwise one execution on the best-fit
        worker (one whole-text item per member)."""
        job = plan[0]
        self._note_queue_depth(job.priority)
        idle = self.pool.idle_workers()
        plen, tlen = job.window_len, len(job.text)
        fitting = sorted(
            (w for w in idle if w.fits(plen)), key=lambda w: (w.capacity, w.name)
        )
        if tlen >= self.config.wide_text_threshold and len(fitting) >= 2:
            shard_plan = plan_shards(
                plen,
                tlen,
                len(fitting),
                self.config.max_shards,
                self.config.min_shard_chars,
                obs=self.obs,
            )
            if shard_plan.mode is ShardMode.TEXT_SHARDED:
                state = _JobState(
                    job, shard_plan.mode.value, shard_plan.shards,
                    service_beats=0.0,
                )
                for shard, worker in zip(shard_plan.shards, fitting):
                    self._launch([(state, shard)], worker)
                return
        worker = self._choose_worker(idle, plen)
        if len(plan) > 1:
            self._launch(
                [self._whole(member, "batched") for member in plan], worker
            )
            return
        mode = ShardMode.DIRECT if worker.fits(plen) else ShardMode.MULTIPASS
        self._launch([self._whole(job, mode.value, 0.0)], worker)

    def _launch(
        self, items: List[Tuple[_JobState, TextShard]], worker: PoolWorker
    ) -> None:
        """Commit *items* to *worker* as one execution: one fault sample,
        their summed demand, one bus reservation.  Items whose deadline
        the projected finish would blow are served on the host instead
        (the worker is never committed for them) and the rest are
        projected once more."""
        now = self.clock.now
        plen = items[0][0].job.window_len
        # One fault sample per execution: every item lives or dies with
        # the worker it lands on.
        fault = self.faults.sample()

        def project(items) -> Tuple[float, int]:
            service = sum(worker.service_beats(plen, s.n_fed) for _, s in items)
            chars = sum(worker.transfer_chars(plen, s.n_fed) for _, s in items)
            if fault is not None and fault.kind is FaultKind.WORKER_DEATH:
                # The stream dies partway through; beats and bus time up
                # to the failure point are burned, nothing comes back.
                burned = max(1.0, fault.at_fraction * service)
                return now + burned, int(chars * fault.at_fraction)
            extra = fault.extra_beats if fault is not None else 0
            return max(now + service + extra, self.bus.eta(chars, now)), chars

        finish, bus_chars = project(items)
        keep = []
        for state, shard in items:
            deadline = state.job.deadline
            if deadline is None or finish <= deadline:
                keep.append((state, shard))
                continue
            # The SLO would be blown before this launch even finished
            # (slow worker, stuck beats, bus queue, or a death that would
            # burn past the deadline): serve the item degraded right now.
            self.telemetry.timeouts += 1
            state.timed_out = True
            if self.obs is not None:
                self.obs.tracer.event(
                    "job.timeout", t=now, unit="beats",
                    job_id=state.job.job_id, shard=shard.index,
                    projected_finish=finish, deadline=deadline,
                )
            self._fallback(state, shard)
        if not keep:
            return  # the sampled fault is discarded with the launch
        if len(keep) < len(items):
            finish, bus_chars = project(keep)
        for state, _ in keep:
            if state.started_beat is None:
                state.started_beat = now
        worker.state = WorkerState.BUSY
        self.bus.reserve(bus_chars, now)
        self._seq += 1
        execution = _Execution(keep, worker, now, finish, fault)
        heapq.heappush(self._inflight, (finish, self._seq, execution))

    # -- completion --------------------------------------------------------

    def _complete(self, execution: _Execution) -> None:
        items, worker = execution.items, execution.worker
        t0, t1 = execution.start_beat, execution.finish_beat
        job = items[0][0].job
        stats = self.telemetry.worker_stats(worker.name, worker.capacity)
        stats.executions += 1
        stats.record_busy(t0, t1)
        fault = execution.fault
        batched = execution.batched
        span = None
        if self.obs is not None:
            kind = fault.kind.value if fault is not None else None
            if batched:
                span = self.obs.tracer.record(
                    "service.batch", t0=t0, t1=t1, unit="beats",
                    worker=worker.name, jobs=len(items),
                    workload=job.workload, attempt=job.attempts, fault=kind,
                )
            else:
                span = self.obs.tracer.record(
                    "service.execution", t0=t0, t1=t1, unit="beats",
                    parent=job.span, worker=worker.name,
                    shard=items[0][1].index,
                    attempt=job.attempts, fault=kind,
                )
        if fault is not None and fault.kind is FaultKind.WORKER_DEATH:
            worker.state = WorkerState.DEAD
            stats.died = True
            self.telemetry.deaths += 1
            for state, _ in items:
                state.job.attempts += 1
            # Every item of one execution has failed equally often.
            if self.retry.should_retry(job.attempts) and self.pool.n_live > 0:
                self.telemetry.retries += 1
                self._seq += 1
                heapq.heappush(self._retry, (batched, self._seq, items))
            else:
                for state, shard in items:
                    self._fallback(state, shard)
            return
        worker.state = WorkerState.IDLE
        if fault is not None and fault.kind is FaultKind.STUCK_BEATS:
            stats.stuck_events += 1
            self.telemetry.stuck_events += 1
        feeds = [shard.feed(state.job.text) for state, shard in items]
        if batched:
            outputs = worker.run_kernel_batch(
                job.spec, job.taps, feeds,
                obs=self.obs, parent=span, t0=t0, t1=t1,
            )
            self.telemetry.batches += 1
            self.telemetry.batched_jobs += len(items)
        else:
            outputs = [worker.run_kernel(
                job.spec, job.taps, feeds[0],
                obs=self.obs, parent=span, t0=t0, t1=t1,
            )]
        for (state, shard), results in zip(items, outputs):
            # A batch member is charged its own device run on this
            # worker, not the whole batch's occupancy.
            beats = (
                worker.service_beats(job.window_len, shard.n_fed)
                if batched else t1 - t0
            )
            state.workers_used.append(worker.name)
            self._settle(state, shard, results, t1, beats)

    def _fallback(self, state: _JobState, shard: TextShard) -> None:
        """Serve one shard from the host CPU with the workload's oracle:
        deadline shed, retry exhaustion, an exhausted pool, or a
        saturated queue."""
        job = state.job
        now = self.clock.now
        if state.started_beat is None:
            state.started_beat = now
        feed = shard.feed(job.text)
        results = self.fallback.kernel(job.spec, job.taps, feed)
        beats = self.fallback.beats(job.window_len, len(feed), self.beat_ns)
        if self.obs is not None:
            self.obs.tracer.record(
                "service.software_fallback", t0=now, t1=now + beats,
                unit="beats", parent=job.span,
                shard=shard.index, chars=len(feed),
            )
        state.via_fallback = True
        self.telemetry.fallbacks += 1
        self._settle(state, shard, results, now + beats, beats)

    def _settle(
        self, state: _JobState, shard: TextShard, results: List,
        finish: float, beats: float,
    ) -> None:
        """File one shard's results; complete the job once all are in."""
        state.shard_results[shard.index] = results
        state.finished_beat = max(state.finished_beat, finish)
        state.service_beats += beats
        if len(state.shard_results) < len(state.shards):
            return
        job = state.job
        if len(state.shards) > 1:
            merged = merge_shard_values(
                state.shards,
                [state.shard_results[s.index] for s in state.shards],
                len(job.text), job.spec.incomplete,
            )
        else:
            merged = results
        mode = "software" if state.via_fallback and not state.workers_used \
            else state.mode
        self._record(
            job, job.spec.finalize(job.taps, job.orig_len, merged),
            state.started_beat, state.finished_beat, state.service_beats,
            mode, tuple(state.workers_used), state.via_fallback,
            state.timed_out,
        )

    def _degrade_remaining(self) -> None:
        """Every live worker is gone: drain all remaining work through
        the software fallback (availability over throughput)."""
        while self._retry:
            for state, shard in heapq.heappop(self._retry)[2]:
                self._fallback(state, shard)
        while True:
            plan = self.queues.pop()
            if plan is None:
                break
            for job in plan:
                self._fallback(*self._whole(job))

    # -- accounting --------------------------------------------------------

    def _record(
        self,
        job: MatchJob,
        results: List,
        started: float,
        finished: float,
        service_beats: float,
        mode: str,
        workers: Tuple[str, ...] = (),
        via_fallback: bool = False,
        timed_out: bool = False,
    ) -> None:
        """Complete *job*: build its :class:`JobResult`, account it,
        close its span, fill the cache, and fan it out to any
        deduplicated followers."""
        result = JobResult(
            job_id=job.job_id,
            tenant=job.tenant,
            priority=job.priority,
            results=results,
            submitted_beat=job.submitted_beat,
            started_beat=started,
            finished_beat=finished,
            wait_beats=started - job.submitted_beat,
            service_beats=service_beats,
            mode=mode,
            workers=workers,
            attempts=job.attempts,
            via_fallback=via_fallback,
            workload=job.workload,
            timed_out=timed_out,
        )
        self._completed[result.job_id] = result
        self.telemetry.completed += 1
        self.telemetry.text_chars_served += len(result.results)
        self.telemetry.record_job(
            result.priority, result.wait_beats, result.service_beats
        )
        self.telemetry.record_workload(result.workload, len(result.results))
        if job.span is not None:
            self.obs.tracer.close(
                job.span, t1=result.finished_beat,
                mode=result.mode, workers=list(result.workers),
                attempts=result.attempts, via_fallback=result.via_fallback,
                timed_out=result.timed_out,
                wait_beats=result.wait_beats,
                service_beats=result.service_beats,
            )
            job.span = None
        if (
            self.cache is not None and job.cache_key is not None
            and result.mode not in ("cached", "deduped")
        ):
            self.cache.put(
                job.cache_key, result.results, now=result.finished_beat
            )
        # Fan results out to any deduplicated followers of this job:
        # they share the execution (and its faults, retries, timeouts)
        # but keep their own identity and latency accounting.
        for follower in self._followers.pop(result.job_id, []):
            self._record(
                follower, list(results), started, finished, 0.0,
                "deduped", workers, via_fallback, timed_out,
            )

    def _sync_telemetry(self) -> None:
        t = self.telemetry
        t.queue_high_water = dict(self.queues.high_water)
        t.bus_busy_beats = self.bus.busy_beats
        t.bus_chars_moved = self.bus.chars_moved
        finishes = [r.finished_beat for r in self._completed.values()]
        t.makespan_beats = max([self.clock.now] + finishes)

    def report(self) -> str:
        """The telemetry tables (render after a drain)."""
        self._sync_telemetry()
        return self.telemetry.render()
