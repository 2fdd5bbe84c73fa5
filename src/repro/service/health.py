"""Fleet health: background BIST, quarantine, yield-to-capacity healing.

The paper's Section 5 deployment story has three implicit maintenance
obligations: *find* the chip that has gone bad (built-in self-test at
the gate level, :mod:`repro.bist`), *stop scheduling onto it*
(quarantine), and *replace it from the fab line* (re-provisioning from
the :mod:`repro.wafer` harvest model).  :class:`FleetHealth` is that
loop for the synchronous farm's :class:`~repro.service.pool.DevicePool`:

1. **detect** -- every idle worker is probed with a full gate-level
   self-test (LFSR stimulus, MISR signature, Elmore timing closure) on
   a representative matcher array carrying the worker's latent defect,
   if the fault injector has grown one;
2. **quarantine** -- a failing worker is moved to
   :attr:`~repro.service.pool.WorkerState.QUARANTINED`, leaves dispatch
   immediately (``is_live`` is false), and the failure is recorded with
   the BIST diagnosis (which cell, which kind) in an
   ``health.quarantine`` span;
3. **heal** -- replacements are harvested from a
   :class:`~repro.wafer.provision.WaferSupply` until the live-worker
   count is back to the sweep's baseline; each candidate passes an
   incoming self-test before it is admitted.  An exhausted supply
   raises :class:`~repro.errors.ProvisionError` -- a clean, catchable
   signal, never a hang.

Determinism: the latent-defect stream comes from the fault injector's
dedicated defect RNG and the wafer lot from the supply's seed, so a
soak with the same seeds sees the same deaths, the same diagnoses, and
the same replacement fleet on every run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from typing import TYPE_CHECKING

from ..errors import ProvisionError
from ..wafer.provision import WaferSupply
from .pool import DevicePool, PoolWorker
from .reliability import CellDefect, FaultInjector
from .telemetry import ServiceTelemetry

if TYPE_CHECKING:  # pragma: no cover
    from ..bist.controller import BISTReport


@dataclass(frozen=True)
class HealthConfig:
    """Knobs of the background self-test loop.

    The probe array is deliberately small (``bist_m`` x ``bist_w``): the
    point of a health probe is the verdict, and a 2x2 array already
    exercises every cell circuit type (both polarity twins, both clock
    phases, the accumulator column).  ``vectors`` trades escape rate for
    probe latency; the defaults hold the measured per-probe cost to
    milliseconds once the golden signature is cached.
    """

    bist_m: int = 2
    bist_w: int = 2
    vectors: int = 12
    seed: int = 0b1011
    characterize: bool = True
    beat_ns: float = 250.0
    min_capacity: int = 1
    max_provision_attempts: int = 8
    verify_replacements: bool = True


@dataclass(frozen=True)
class HealthEvent:
    """One action the health loop took (the sweep's audit trail)."""

    worker: str
    action: str  # "quarantine" | "heal"
    cell: str = ""
    detail: str = ""


def _record_health_event(
    events: List[HealthEvent],
    obs,
    worker: str,
    action: str,
    diagnosis: Optional[dict] = None,
    defect: Optional[CellDefect] = None,
    detail: str = "",
) -> HealthEvent:
    """Log one quarantine or heal of either fleet-health loop.

    *diagnosis* is a quarantine's wire-form BIST diagnosis
    (:meth:`~repro.bist.controller.BISTDiagnosis.to_wire`), if any: it
    names the cell and becomes the event's detail.  With *obs* attached
    a quarantine records a ``health.quarantine`` span (carrying the
    worker's latent *defect*) and counts into ``health.quarantines``, a
    heal counts into ``health.heals``.  The event is appended to
    *events* and returned.
    """
    cell = ""
    if diagnosis:
        cell = diagnosis["cell"]
        detail = (
            f"{diagnosis['node'] or cell}: got {diagnosis['got']}, "
            f"want {diagnosis['want']}"
        )
    if obs is not None:
        if action == "quarantine":
            obs.tracer.record(
                "health.quarantine", t0=0.0, t1=0.0, unit="beats",
                worker=worker, cell=cell,
                defect=defect.describe() if defect is not None else "",
            )
            obs.registry.counter("health.quarantines", worker=worker).inc()
        else:
            obs.registry.counter("health.heals", worker=worker).inc()
    event = HealthEvent(worker, action, cell=cell, detail=detail)
    events.append(event)
    return event


class FleetHealth:
    """The detect / quarantine / heal loop over one device pool."""

    def __init__(
        self,
        pool: DevicePool,
        supply: Optional[WaferSupply] = None,
        injector: Optional[FaultInjector] = None,
        config: Optional[HealthConfig] = None,
        telemetry: Optional[ServiceTelemetry] = None,
        obs=None,
    ):
        self.pool = pool
        self.supply = supply
        self.injector = injector
        self.config = config or HealthConfig()
        self.telemetry = telemetry
        self.obs = obs
        cfg = self.config
        # Imported here, not at module top: repro.bist models defects
        # with this package's CellDefect, so a module-level import in
        # both directions would be circular.
        from ..bist.controller import BISTController

        self.controller = BISTController(
            m=cfg.bist_m,
            w=cfg.bist_w,
            vectors=cfg.vectors,
            seed=cfg.seed,
            characterize=cfg.characterize,
        )
        self.events: List[HealthEvent] = []
        self._heal_seq = 0
        #: The fleet size healing restores: the live count at the time
        #: the loop was attached.  Quarantines *and* execution deaths
        #: both erode ``pool.n_live``; healing replaces either.
        self.target_live = pool.n_live

    # -- detect ------------------------------------------------------------

    def probe(self, worker: PoolWorker) -> BISTReport:
        """Self-test one worker (against its latent defect, if any)."""
        report = self.controller.run(
            defect=worker.latent_defect, chip_name=worker.name, obs=self.obs
        )
        if self.telemetry is not None:
            self.telemetry.bist_runs += 1
            if not report.ok:
                self.telemetry.bist_failures += 1
        return report

    # -- quarantine --------------------------------------------------------

    def quarantine(
        self, worker: PoolWorker, report: Optional[BISTReport] = None
    ) -> HealthEvent:
        """Drain *worker* out of dispatch and log why."""
        worker.quarantine()
        if self.telemetry is not None:
            self.telemetry.quarantines += 1
        diagnosis = report.diagnosis if report is not None else None
        return _record_health_event(
            self.events, self.obs, worker.name, "quarantine",
            diagnosis=diagnosis.to_wire() if diagnosis is not None else None,
            defect=worker.latent_defect,
        )

    # -- heal --------------------------------------------------------------

    def _next_heal_name(self) -> str:
        names = {w.name for w in self.pool.workers}
        while True:
            self._heal_seq += 1
            name = f"heal-{self._heal_seq}"
            if name not in names:
                return name

    def heal_one(self) -> PoolWorker:
        """Provision one replacement worker from the wafer supply.

        Draws wafers until one harvests at least ``min_capacity`` cells
        *and* passes its incoming self-test; raises
        :class:`~repro.errors.ProvisionError` when the supply runs dry
        or ``max_provision_attempts`` candidates all fail.
        """
        if self.supply is None:
            raise ProvisionError("no wafer supply to heal from")
        cfg = self.config
        rejected = 0
        for _ in range(cfg.max_provision_attempts):
            wafer = self.supply.draw()  # ProvisionError when exhausted
            name = self._next_heal_name()
            worker = PoolWorker.from_wafer(
                name, wafer, self.pool.alphabet, beat_ns=cfg.beat_ns
            )
            if worker.capacity < cfg.min_capacity:
                rejected += 1
                continue
            if cfg.verify_replacements and not self.probe(worker).ok:
                rejected += 1
                continue
            self.pool.add_worker(worker)
            if self.telemetry is not None:
                self.telemetry.heals += 1
            _record_health_event(
                self.events, self.obs, worker.name, "heal",
                detail=f"{worker.capacity}/{worker.nominal_capacity} cells",
            )
            return worker
        raise ProvisionError(
            f"no provisionable wafer in {rejected} candidates "
            f"(min capacity {cfg.min_capacity}, "
            f"{self.supply.remaining} wafers left)"
        )

    def heal_to_capacity(self, target_live: int) -> List[PoolWorker]:
        """Add replacements until ``pool.n_live`` reaches *target_live*."""
        added: List[PoolWorker] = []
        while self.pool.n_live < target_live:
            added.append(self.heal_one())
        return added

    # -- the loop ----------------------------------------------------------

    def sweep(
        self, heal: bool = True, target_live: Optional[int] = None
    ) -> List[HealthEvent]:
        """One background pass: probe every idle worker, quarantine the
        failures, and (optionally) heal back up to *target_live* (the
        fleet's original size by default -- execution deaths are healed
        too, not just quarantines).  Returns this sweep's actions."""
        target = self.target_live if target_live is None else target_live
        before = len(self.events)
        for worker in self.pool.idle_workers():
            if (
                self.injector is not None
                and worker.latent_defect is None
            ):
                defect = self.injector.sample_defect(
                    self.config.bist_m, self.config.bist_w
                )
                if defect is not None:
                    worker.seed_defect(defect)
            report = self.probe(worker)
            if not report.ok:
                self.quarantine(worker, report)
        if heal and self.supply is not None:
            self.heal_to_capacity(target)
        return self.events[before:]
