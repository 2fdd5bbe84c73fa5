"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload farm_mix --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
workload untraced and then traced on the same inputs and reports the
per-layer metrics.  Every metric is printed by name and unit; the last
line of standard output is one JSON object with the metrics that
``BENCHMARK.json`` names.  The exit status is 0 when every output
matched its oracle and every simulated statistic repeated, 1 when not,
and 2 when the program under test is missing.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Longest wait, before a workload starts, for the hypervisor to stop
#: stealing this guest's CPU (see ``STEAL_BOUND``).
QUIET_WAIT_S = 10.0

#: Workload name -> module of this package that runs it.
WORKLOADS = {
    "farm_mix": "farm",
    "farm_churn": "farm",
    "runtime_open": "runtime_open",
    "chip_flow": "chip_flow",
}


def _contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no program to measure under {ROOT}/src",
              file=sys.stderr)
        return 2
    for path in (ROOT, os.path.join(ROOT, "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    from perfbench.common import (
        DEFAULT_SEED, END_TO_END_UNITS, OUT_DIR, PER_LAYER_UNITS,
        check_invariants, wait_for_quiet_host,
    )

    seed = DEFAULT_SEED if args.seed is None else args.seed
    e2e_units, layer_units = _contract()
    out_dir = os.path.join(ROOT, OUT_DIR)
    os.makedirs(out_dir, exist_ok=True)
    span_path = os.path.join(out_dir, f"spans-{args.workload}-seed{seed}.json")

    module = importlib.import_module(f"perfbench.{WORKLOADS[args.workload]}")
    waited, steal = wait_for_quiet_host(QUIET_WAIT_S)
    outcome = module.run(args.workload, seed, args.seconds, bool(args.trace),
                         span_path)
    mismatch = check_invariants(
        ROOT, f"{args.workload}-seed{seed}-s{args.seconds:g}",
        outcome.invariants,
    )
    if mismatch:
        outcome.problems.append(mismatch)

    print(f"workload {args.workload}  seed {seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  (waited {waited:.0f} s for a quiet host: "
          f"CPU steal {steal:.0%})")
    if args.trace:
        owned = module.owned_metrics(args.workload)
        missing = [name for name in owned if name not in outcome.layers]
        if missing:
            outcome.problems.append(
                f"per-layer metrics not measured: {', '.join(missing)}"
            )
        for name in PER_LAYER_UNITS:
            if name not in owned:
                outcome.layers.setdefault(name, 0.0)
        shown, units, wanted = outcome.layers, PER_LAYER_UNITS, layer_units
        print(f"spans written to {os.path.relpath(span_path, ROOT)}")
    else:
        shown, units, wanted = outcome.e2e, END_TO_END_UNITS, e2e_units
    for name, unit in units.items():
        value = shown.get(name)
        text = "n/a (does not apply)" if value is None else f"{value:.6g}"
        print(f"  {name:32s} {text:>14s} {unit}")
    for note in outcome.notes:
        print(f"  note: {note}")
    for problem in outcome.problems:
        print(f"  FAILED: {problem}")
    print(f"  correct {outcome.correct}: {outcome.failed} of "
          f"{outcome.attempted} ops failed")

    metrics = {}
    for name, unit in wanted.items():
        if name not in shown:
            outcome.problems.append(f"metric {name} was not measured")
            continue
        metrics[name] = {"value": shown[name], "unit": unit}
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0 if outcome.correct else 1


def run_and_clean_up(argv=None) -> int:
    """``main``, then stop every process it left, on every path out.

    An exception is printed and dropped before the clean-up, so the
    frames of its traceback do not keep the runtime's queues alive past
    it.
    """
    try:
        status = main(argv)
    except Exception:
        traceback.print_exc()
        status = 1
    if "perfbench.common" in sys.modules:
        sys.modules["perfbench.common"].stop_child_processes()
    return status


if __name__ == "__main__":
    sys.exit(run_and_clean_up())
