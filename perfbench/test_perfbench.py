"""Tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest perfbench -q``.
The smoke runs are shortened: farm waves for a fraction of a second,
the runtime for one second, and the chip flow over the first design of
the matrix only.
"""

from __future__ import annotations

import importlib
import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [p for p in (ROOT, os.path.join(ROOT, "src"))
                if p not in sys.path]

from perfbench import chip_flow, farm, gen, run, runtime_open  # noqa: E402
from perfbench.common import (  # noqa: E402
    END_TO_END_UNITS, PER_LAYER_UNITS, check_invariants,
)
from perfbench.spans import SpanRecorder  # noqa: E402


def _contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# -- generators ---------------------------------------------------------------

@pytest.mark.parametrize("shared", [True, False])
def test_farm_waves_are_deterministic_per_seed(shared):
    a, b = gen.FarmTraffic(5, shared), gen.FarmTraffic(5, shared)
    assert a.wave(3) == b.wave(3)
    assert a.wave(0) != a.wave(1)
    assert gen.FarmTraffic(6, shared).wave(3) != a.wave(3)


def test_farm_wave_depends_only_on_its_index():
    a, b = gen.FarmTraffic(5, True), gen.FarmTraffic(5, True)
    for i in range(4):
        a.wave(i)
    assert a.wave(9) == b.wave(9)


def test_churn_streams_are_distinct_and_mix_repeats():
    churn = [j.stream for i in range(8) for j in gen.FarmTraffic(2, False).wave(i)]
    assert len(set(churn)) == len(churn)
    mix = [(j.workload, j.params, j.stream)
           for i in range(8) for j in gen.FarmTraffic(2, True).wave(i)]
    assert 0.15 < 1 - len(set(mix)) / len(mix) < 0.45


def test_open_loop_traffic_is_deterministic_per_seed():
    a, b = gen.OpenLoopTraffic(3), gen.OpenLoopTraffic(3)
    assert [a.job() for _ in range(5)] == [b.job() for _ in range(5)]
    assert a.arrivals(300.0, 50) == b.arrivals(300.0, 50)
    assert [gen.OpenLoopTraffic(4).job() for _ in range(5)] != [
        gen.OpenLoopTraffic(3).job() for _ in range(5)
    ]


def test_chip_sample_jobs_are_deterministic_per_seed():
    from repro.compiler import ChipSpec

    spec = ChipSpec(kernel="match", cells=8, char_bits=2)
    assert gen.chip_sample_job(1, 0, spec)[:2] == gen.chip_sample_job(1, 0, spec)[:2]
    assert gen.chip_sample_job(1, 0, spec)[:2] != gen.chip_sample_job(2, 0, spec)[:2]


# -- BENCHMARK.json -----------------------------------------------------------

def test_benchmark_json_names_metrics_the_code_measures():
    spec = _contract()
    for m in spec["end_to_end"]:
        assert END_TO_END_UNITS[m["name"]] == m["unit"]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_every_per_layer_metric_is_owned_by_a_workload():
    owned = set()
    for name, module in run.WORKLOADS.items():
        mod = importlib.import_module(f"perfbench.{module}")
        owned.update(mod.owned_metrics(name))
    assert owned == set(PER_LAYER_UNITS)
    assert set(farm.HEALTH_METRICS).isdisjoint(farm.owned_metrics("farm_mix"))


def test_runtime_rate_and_slo_are_quoted_in_benchmark_json():
    why = {w["name"]: w["why"] for w in _contract()["workloads"]}
    assert f"{runtime_open.OPEN_RATE:g} jobs/s" in why["runtime_open"]
    assert f"SLO {runtime_open.SLO_MS:g} ms" in why["runtime_open"]


def test_self_time_subtracts_child_intervals():
    rec = SpanRecorder()
    rec.spans = [
        ["op", "op", 0.0, 10.0, -1, 0],
        ["a", "service", 1.0, 6.0, 0, 0],
        ["b", "core.fastpath", 2.0, 4.0, 1, 0],
        ["c", "core.fastpath", 3.0, 5.0, 1, 0],  # overlaps b
        ["d", "service", 7.0, 8.0, 0, 0],
    ]
    selfs = rec.self_times()
    assert selfs["op"] == pytest.approx(4.0)
    assert selfs["service"] == pytest.approx(2.0 + 1.0)
    assert selfs["core.fastpath"] == pytest.approx(4.0)


def test_invariant_store_flags_a_changed_output(tmp_path):
    os.makedirs(tmp_path / "src")
    assert check_invariants(str(tmp_path), "w-seed1", {"beats": 10}) is None
    assert check_invariants(str(tmp_path), "w-seed1", {"beats": 10}) is None
    assert "beats" in check_invariants(str(tmp_path), "w-seed1", {"beats": 11})
    assert check_invariants(str(tmp_path), "w-seed2", {"beats": 11}) is None


# -- smoke runs ---------------------------------------------------------------

@pytest.fixture
def one_design(monkeypatch):
    from repro.compiler.__main__ import MATRIX

    monkeypatch.setattr(chip_flow, "matrix", lambda: MATRIX[:1])


SMOKE = [
    ("farm_mix", farm, 0.05),
    ("farm_churn", farm, 0.05),
    ("runtime_open", runtime_open, 1.0),
    ("chip_flow", chip_flow, 0.05),
]


@pytest.mark.parametrize("name,module,seconds", SMOKE,
                         ids=[s[0] for s in SMOKE])
def test_smoke_run_passes_its_gate(name, module, seconds, one_design,
                                   tmp_path):
    spans = str(tmp_path / "spans.json")
    untraced = module.run(name, 3, seconds, False, spans)
    assert untraced.correct, untraced.problems
    contract = {m["name"] for m in _contract()["end_to_end"]}
    assert contract <= set(untraced.e2e)
    assert all(untraced.e2e[m] > 0 for m in contract)
    assert untraced.e2e["failed_share"] == 0
    traced = module.run(name, 3, seconds, True, spans)
    assert traced.correct, traced.problems
    assert traced.invariants == untraced.invariants
    assert os.path.exists(spans)
    assert set(traced.layers) <= set(PER_LAYER_UNITS)
    owned = module.owned_metrics(name)
    assert [m for m in owned if m not in traced.layers] == []
    assert traced.layers["trace.overhead_ratio"] > 0


def test_farm_simulated_outputs_repeat_exactly(tmp_path):
    spans = str(tmp_path / "spans.json")
    a = farm.run("farm_churn", 4, 0.05, False, spans)
    b = farm.run("farm_churn", 4, 0.05, False, spans)
    assert a.invariants == b.invariants
    assert a.e2e["sim_makespan_beats"] == b.e2e["sim_makespan_beats"]


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"),
                                           ("1", "per_layer")])
def test_command_prints_every_contract_metric_with_its_unit(
    capsys, trace, section
):
    assert run.main(["--workload", "farm_mix", "--seconds", "0.05",
                     "--trace", trace, "--seed", "3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    last = json.loads(lines[-1])
    assert last["correct"] and last["failed"] == 0
    want = {m["name"]: m["unit"] for m in _contract()[section]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == want
    printed = " ".join(lines[:-1])
    assert all(f" {name} " in printed for name in want)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "farm_mix",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


#: Runs the command given as its arguments as a child subreaper, so any
#: process the command leaves behind is re-parented to it, not to init;
#: prints whether one was.
_REAPER = r"""
import ctypes, os, subprocess, sys
ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)  # CHILD_SUBREAPER
code = subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL).returncode
try:
    os.waitpid(-1, os.WNOHANG)
    left = True
except ChildProcessError:
    left = False
while True:
    try:
        os.waitpid(-1, 0)
    except ChildProcessError:
        break
print(code, left)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="child subreapers are a Linux feature")
def test_runtime_run_leaves_no_process_behind():
    proc = subprocess.run(
        [sys.executable, "-c", _REAPER, sys.executable, "perfbench/run.py",
         "--workload", "runtime_open", "--seed", "5", "--seconds", "1",
         "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.stdout.split() == ["0", "False"], proc.stderr
