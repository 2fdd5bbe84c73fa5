"""The concurrent runtime's fleet-health loop: probe, quarantine, heal.

The async twin of :class:`repro.service.health.FleetHealth`.  Here the
"chips" are real worker processes behind CSP channels, so every step
crosses the process boundary:

* **probe** -- a :class:`~repro.runtime.channels.JobRequest` carrying a
  ``bist`` directive is dispatched *to a specific idle worker* (the
  pool's targeted ``submit_to``, never the EDF heap); the worker runs
  the gate-level self-test in-process against its latent defect and
  replies with the full BIST report.  A busy worker is simply skipped
  -- probes never preempt traffic.
* **quarantine** -- a failing worker leaves the pool's idle list
  permanently (``WorkerPool.quarantine``); in-flight work still drains,
  and the verdict (which cell, which defect) lands in an
  ``health.quarantine`` span.
* **heal** -- a replacement die is harvested from the
  :class:`~repro.wafer.provision.WaferSupply` (exhaustion raises
  :class:`~repro.errors.ProvisionError`, cleanly), the quarantined
  process is respawned on the same channels, its latent-defect
  directive is cleared (fresh silicon), and a verification probe must
  pass before the heal is recorded.

Latent defects are *directives*: the host decides, via the fault
injector's dedicated defect RNG, which worker is currently carrying
which :class:`~repro.service.reliability.CellDefect`, and ships it in
the probe request.  Execution requests never carry it, so a defective
worker computes correct results until caught -- which is exactly why
the byte-identical-results property under churn is worth a test.
"""

from __future__ import annotations

import asyncio
from typing import Dict, List, Optional

from ..errors import ChipError, ProvisionError
from ..service.health import HealthConfig, HealthEvent, _record_health_event
from ..service.reliability import CellDefect, FaultInjector
from ..wafer.provision import WaferSupply
from ..wafer.reconfigure import harvest_linear_array
from .channels import JobReply, JobRequest
from .pool import WorkerPool


class RuntimeHealth:
    """Background BIST over a :class:`~repro.runtime.pool.WorkerPool`."""

    def __init__(
        self,
        pool: WorkerPool,
        supply: Optional[WaferSupply] = None,
        injector: Optional[FaultInjector] = None,
        config: Optional[HealthConfig] = None,
        obs=None,
    ):
        self.pool = pool
        self.supply = supply
        self.injector = injector
        self.config = config or HealthConfig()
        self.obs = obs
        #: name -> the latent defect that worker is currently carrying.
        self.directives: Dict[str, CellDefect] = {}
        self.events: List[HealthEvent] = []
        # Probe job ids count down from -1: they can never collide with
        # the service's real job ids, which count up from 0.
        self._probe_id = 0

    def seed_defect(self, name: str, defect: CellDefect) -> None:
        """Declare that worker *name* now carries *defect*."""
        self.directives[name] = defect

    # -- probe -------------------------------------------------------------

    async def probe(self, name: str) -> Optional[dict]:
        """Self-test one worker; the wire-form BIST report, or ``None``
        if the worker was not idle (skip, probe next sweep)."""
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()

        def on_reply(reply: JobReply) -> None:
            # Collector thread -> event loop.
            loop.call_soon_threadsafe(
                lambda: future.done() or future.set_result(reply)
            )

        self._probe_id -= 1
        cfg = self.config
        defect = self.directives.get(name)
        request = JobRequest(
            job_id=self._probe_id,
            attempt=0,
            workload="bist",
            taps=[],
            streams=[],
            bist={
                "m": cfg.bist_m,
                "w": cfg.bist_w,
                "vectors": cfg.vectors,
                "seed": cfg.seed,
                "characterize": cfg.characterize,
                "defect": defect.to_wire() if defect is not None else None,
            },
        )
        if not await loop.run_in_executor(
            None, self.pool.submit_to, name, request, on_reply
        ):
            return None
        reply = await future
        report = reply.bist
        if self.obs is not None and report is not None:
            self.obs.tracer.record(
                "bist.run", t0=0.0, t1=float(cfg.vectors), unit="beats",
                chip=name, ok=bool(report["ok"]),
                functional_ok=bool(report["functional_ok"]),
                timing_ok=report["timing_ok"],
                cell=(report["diagnosis"] or {}).get("cell", ""),
                defect=defect.describe() if defect is not None else "",
            )
            self.obs.registry.counter(
                "bist.runs",
                verdict="pass" if report["ok"] else "fail",
            ).inc()
        return report

    # -- quarantine --------------------------------------------------------

    def quarantine(self, name: str, report: Optional[dict]) -> HealthEvent:
        self.pool.quarantine(name)
        return _record_health_event(
            self.events, self.obs, name, "quarantine",
            diagnosis=(report or {}).get("diagnosis"),
            defect=self.directives.get(name),
        )

    # -- heal --------------------------------------------------------------

    def _harvest_replacement(self) -> int:
        """Draw wafers until one harvests enough cells; its cell count.

        Raises :class:`~repro.errors.ProvisionError` on an exhausted
        supply or when every candidate in the attempt budget fails to
        harvest -- the runtime's healing is gated on the same Section 5
        yield economics as the synchronous farm's.
        """
        assert self.supply is not None
        cfg = self.config
        for _ in range(cfg.max_provision_attempts):
            wafer = self.supply.draw()  # ProvisionError when exhausted
            try:
                harvest = harvest_linear_array(wafer)
            except ChipError:
                continue  # unharvestable wafer: draw the next one
            if harvest.n_cells >= cfg.min_capacity:
                return harvest.n_cells
        raise ProvisionError(
            f"no provisionable wafer in {cfg.max_provision_attempts} "
            f"candidates ({self.supply.remaining} wafers left)"
        )

    async def heal(self, name: str) -> HealthEvent:
        """Respawn a quarantined worker on freshly harvested silicon.

        The process respawn (join, terminate, drain, spawn) blocks, so
        it runs in the default executor; the replacement must pass a
        verification probe before the heal is recorded.
        """
        loop = asyncio.get_running_loop()
        cells = 0
        if self.supply is not None:
            cells = self._harvest_replacement()
        await loop.run_in_executor(None, self.pool.heal, name)
        self.directives.pop(name, None)  # fresh silicon, no latent fault
        report = await self.probe(name)
        if report is None or not report["ok"]:
            # The replacement failed its incoming test: keep it out.
            self.quarantine(name, report)
            raise ProvisionError(
                f"replacement for worker {name!r} failed verification"
            )
        return _record_health_event(
            self.events, self.obs, name, "heal",
            detail=f"{cells} cells harvested" if cells else "respawned",
        )

    # -- the loop ----------------------------------------------------------

    async def sweep(self, heal: bool = True) -> List[HealthEvent]:
        """One background pass over every idle worker.

        Seeds latent defects from the injector's defect RNG, probes,
        quarantines failures, and (optionally) heals them in place.
        Returns the actions taken this sweep.
        """
        before = len(self.events)
        for name in self.pool.idle_names():
            if self.injector is not None and name not in self.directives:
                defect = self.injector.sample_defect(
                    self.config.bist_m, self.config.bist_w
                )
                if defect is not None:
                    self.directives[name] = defect
            report = await self.probe(name)
            if report is None:
                continue
            if not report["ok"]:
                self.quarantine(name, report)
                if heal:
                    await self.heal(name)
        return self.events[before:]
