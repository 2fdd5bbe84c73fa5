"""``chip_flow``: ``ChipSpec`` to signed-off, verified silicon.

One op is one design of the compiler's six-design acceptance matrix
taken through the whole flow: ``compile_workload``, the lazy physical
views (cell library, floorplan, transistor netlist), CIF, then
``Signoff().run_design`` and the ``ir`` and ``switch`` differentials on
a seeded sample job.  A run serves whole passes over the matrix, as
many as ``--seconds`` buys at ``PASS_NOMINAL_S`` a pass (at least one),
so every run of one length serves the same designs whatever the host's
speed: a later pass is warm and faster than the first.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .common import (
    SHARED_LAYER_METRICS, Outcome, cpu_jiffies, diff_invariants, digest,
    fresh_process_seconds, median, peak_rss_mb, steal_share,
)
from .gen import chip_sample_job
from .spans import (
    SpanRecorder, common_targets, instrumented, layer_metrics, maybe_span,
)

#: Set-up is what a fresh process pays before its first design: the
#: compiler and signoff imports and ``Signoff()`` construction.
SETUP_SCRIPT = (
    "import repro.compiler, repro.signoff; repro.signoff.Signoff()"
)
#: Host seconds of one matrix pass, roughly (2-vCPU VM, 12-16 s).
PASS_NOMINAL_S = 15.0

#: Traced span name of each signoff stage method, in ``run_design``'s
#: order, and the per-layer metric it feeds.
STAGES = (
    ("signoff:drc_stage", "signoff.drc_ms"),
    ("signoff:extraction_stage", "signoff.extract_ms"),
    ("signoff:lvs_stage", "signoff.lvs_ms"),
    ("signoff:erc_stage", "signoff.erc_ms"),
    ("signoff:timing_stage", "signoff.timing_ms"),
    ("signoff:assembly_stage_for", "signoff.assembly_ms"),
)
FLOW = (
    ("compiler.elaborate", "compiler.elaborate_ms"),
    ("compiler.library", "compiler.library_ms"),
    ("compiler.assemble", "compiler.assemble_ms"),
    ("compiler.netlist", "compiler.netlist_ms"),
    ("layout.cif", "layout.cif_ms"),
    ("compiler.verify_ir", "compiler.verify_ir_ms"),
    ("compiler.verify_switch", "compiler.verify_switch_ms"),
)

#: Output sizes, summed over the matrix.
SIZES = ("compiler.cells", "compiler.transistors", "compiler.bundle_types",
         "layout.rects", "signoff.errors")


def owned_metrics(name: str) -> tuple:
    """The per-layer metrics a traced run must measure."""
    return (tuple(metric for _, metric in STAGES + FLOW) + SIZES
            + SHARED_LAYER_METRICS)


def matrix():
    from repro.compiler.__main__ import MATRIX

    return MATRIX


def setup_seconds() -> float:
    return fresh_process_seconds(SETUP_SCRIPT)


@dataclass
class PassResult:
    designs: int = 0
    seconds: float = 0.0
    latencies: List[float] = field(default_factory=list)
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    records: List[Dict[str, object]] = field(default_factory=list)
    sizes: Dict[str, float] = field(default_factory=dict)


def _design(signoff, point, index: int, seed: int,
            rec: Optional[SpanRecorder]):
    """One design through the flow; returns what the gate checks."""
    from repro.compiler import compile_workload, differential

    kernel, cells, char_bits, data_bits = point
    with maybe_span(rec, "compiler.elaborate", "compiler"):
        chip = compile_workload(kernel, cells, char_bits=char_bits,
                                data_bits=data_bits)
    with maybe_span(rec, "compiler.library", "compiler"):
        chip.bundles
    with maybe_span(rec, "compiler.assemble", "compiler"):
        chip.assembler
    with maybe_span(rec, "compiler.netlist", "compiler"):
        chip.netlist
    with maybe_span(rec, "layout.cif", "layout"):
        cif = chip.cif()
    with maybe_span(rec, "signoff.run_design", "signoff"):
        report = signoff.run_design(chip)
    params, stream, alphabet = chip_sample_job(seed, index, chip.spec)
    with maybe_span(rec, "compiler.verify_ir", "compiler"):
        ir = differential(chip, params, stream, alphabet, engines=("ir",))
    with maybe_span(rec, "compiler.verify_switch", "compiler"):
        switch = differential(chip, params, stream, alphabet,
                              engines=("switch",))
    return chip, cif, report, ir, switch


def serve(seed: int, passes: int,
          rec: Optional[SpanRecorder] = None) -> PassResult:
    """*passes* whole passes over the matrix; every design is checked."""
    from repro.errors import ReproError
    from repro.layout.cif import parse_cif
    from repro.signoff import Signoff

    signoff = Signoff()
    out = PassResult()
    sizes = dict.fromkeys(SIZES, 0)
    for done in range(passes):
        for index, point in enumerate(matrix()):
            if rec is not None:
                rec.op_id += 1
            t0 = time.perf_counter()
            try:
                with maybe_span(rec, "design", "op"):
                    chip, cif, report, ir, switch = _design(
                        signoff, point, index, seed, rec
                    )
            except ReproError as exc:
                out.designs += 1
                out.failed += 1
                out.problems.append(f"{point}: {type(exc).__name__}: {exc}")
                continue
            dt = time.perf_counter() - t0
            out.designs += 1
            out.seconds += dt
            out.latencies.append(dt)
            errors = sum(
                1 for s in report.stages for f in s.findings
                if f.severity == "error"
            )
            if errors or not report.ok or not ir.ok or not switch.ok:
                out.failed += 1
                out.problems.append(
                    f"{chip.spec.name}: signoff "
                    f"{'ok' if report.ok else 'FAILED'}, differential "
                    f"{ir.detail or 'ok'} / {switch.detail or 'ok'}"
                )
            if done == 0:
                rects = sum(len(v) for v in parse_cif(cif).flatten().values())
                record = {
                    "design": chip.spec.name,
                    "cells": len(chip.design.cells),
                    "transistors": chip.netlist.n_transistors,
                    "bundle_types": len(chip.bundles),
                    "rects": rects,
                    "signoff": digest(report.to_dict()),
                    "differential": digest(
                        [ir.results, switch.results["chip-switch"]]
                    ),
                }
                out.records.append(record)
                sizes["compiler.cells"] += record["cells"]
                sizes["compiler.transistors"] += record["transistors"]
                sizes["compiler.bundle_types"] += record["bundle_types"]
                sizes["layout.rects"] += rects
                sizes["signoff.errors"] += errors
    out.sizes = sizes
    return out


def _invariants(p: PassResult) -> Dict[str, object]:
    return {r["design"]: digest(r) for r in p.records}


def run(name: str, seed: int, seconds: float, trace: bool,
        span_path: str) -> Outcome:
    outcome = Outcome()
    if not trace:
        setup = setup_seconds()
        before = cpu_jiffies()
        p = serve(seed, max(1, round(seconds / PASS_NOMINAL_S)))
        steal = steal_share(before, cpu_jiffies())
        outcome.e2e = {
            "setup_s": setup,
            "ops_per_s": p.designs / p.seconds,
            "latency_p50_ms": median(p.latencies) * 1e3,
            "failed_share": p.failed / p.designs,
            "peak_rss_mb": peak_rss_mb(),
        }
        outcome.notes.append(
            f"{p.designs} designs ({p.designs // len(matrix())} matrix "
            f"passes); latency samples {len(p.latencies)}; host CPU steal "
            f"{steal:.1%}"
        )
    else:
        base = serve(seed, 1)
        rec = SpanRecorder()
        with instrumented(rec, _targets()):
            p = serve(seed, 1, rec=rec)
        outcome.count(base.designs, base.failed, base.problems)
        mismatch = diff_invariants(_invariants(base), _invariants(p),
                                   "untraced pass", "traced pass")
        if mismatch:
            outcome.problems.append(mismatch)
        outcome.layers = _layers(p, rec, base)
        rec.save(span_path)
    outcome.count(p.designs, p.failed, p.problems)
    outcome.invariants = _invariants(p)
    return outcome


def _targets():
    from repro.signoff import Signoff

    return common_targets() + [
        (Signoff, attr, "signoff")
        for attr in ("drc_stage", "extraction_stage", "lvs_stage",
                     "erc_stage", "timing_stage", "assembly_stage_for")
    ]


def _layers(p: PassResult, rec: SpanRecorder,
            base: PassResult) -> Dict[str, float]:
    per_ms = 1e3 / p.designs
    out: Dict[str, float] = {
        metric: rec.total(span) * per_ms for span, metric in STAGES + FLOW
    }
    out.update(p.sizes)
    out["circuit.settle_spans"] = rec.count("circuit")
    out["trace.overhead_ratio"] = p.seconds / base.seconds
    out.update(layer_metrics(rec, p.designs))
    return out
