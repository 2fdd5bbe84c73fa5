"""The compiler's physical back end: signoff, mutants, CLI.

Every generated design must clear the same gauntlet as the hand-built
prototype -- cell DRC/extraction/LVS, whole-netlist ERC and timing, and
the assembly audits -- and the six seeded signoff defects must still be
caught by their responsible stages when planted in *generated* cells.
"""

import hashlib
import json

import pytest

from repro.compiler import compile_workload
from repro.compiler.__main__ import main
from repro.compiler.verify import run_design_mutants
from repro.signoff.pipeline import Signoff

STAGE_ORDER = ["drc", "extraction", "lvs", "erc", "timing", "assembly"]

#: kernel, cells, char_bits, data_bits -- one point per kernel here
#: (the CLI smoke test at the bottom covers a second, larger size; the
#: full six-point matrix runs in the compiler-signoff CI job).
POINTS = [
    ("match", 8, 2, 2),
    ("count", 8, 2, 2),
    ("inner-product", 4, 2, 2),
]


@pytest.fixture(scope="module")
def signoff():
    return Signoff()


class TestGeneratedDesignsSignOff:
    @pytest.mark.parametrize("kernel,cells,char_bits,data_bits", POINTS)
    def test_full_signoff_passes(self, signoff, kernel, cells, char_bits,
                                 data_bits):
        chip = compile_workload(kernel, cells, char_bits=char_bits,
                                data_bits=data_bits)
        report = signoff.run_design(chip)
        assert report.ok, report.summary()
        assert [s.stage for s in report.stages] == STAGE_ORDER

    def test_larger_than_prototype_signs_off(self, signoff):
        chip = compile_workload("match", 16, char_bits=4)
        assert len(chip.design.cells) == 16 * 5
        report = signoff.run_design(chip)
        assert report.ok, report.summary()

    def test_generated_cif_is_nonempty_and_parsable(self):
        from repro.layout.cif import parse_cif

        chip = compile_workload("count", 8, char_bits=2)
        cif = chip.cif()
        flat = parse_cif(cif).flatten()
        assert any(rects for rects in flat.values())


class TestMutantsOnGeneratedCells:
    @pytest.mark.parametrize("kernel,cells,char_bits,data_bits", POINTS)
    def test_all_six_defects_caught_in_generated_cells(
        self, signoff, kernel, cells, char_bits, data_bits
    ):
        chip = compile_workload(kernel, cells, char_bits=char_bits,
                                data_bits=data_bits)
        results = run_design_mutants(chip, signoff)
        assert len(results) == 6
        for r in results:
            assert r.caught, f"{r.name}: {r.detail}"
            assert r.upstream_clean, f"{r.name}: {r.detail}"


def _digest(bundle) -> str:
    """Everything a twin's signoff reads: layout rects and ports, circuit."""
    layout, circuit = bundle.layout, bundle.circuit
    state = (
        sorted((layer.value, tuple(rects))
               for layer, rects in layout.rects.items()),
        sorted(layout.ports.items()),
        tuple(circuit.transistors),
        tuple(circuit.loads),
        sorted(bundle.ports.items()),
        bundle.clocks,
    )
    return hashlib.sha256(repr(state).encode()).hexdigest()


class TestSharedTwins:
    """Twins are built once per process and signed off once per
    ``Signoff``; sharing them must never leak state between designs."""

    def test_one_cell_type_one_twin_object(self):
        a = compile_workload("match", 4).bundles
        b = compile_workload("match", 16, char_bits=4).bundles
        assert sorted(a) == sorted(b)
        for name in a:
            assert a[name] is b[name], name

    @pytest.mark.parametrize("kernel", ["match", "count", "inner-product"])
    def test_mutation_factories_leave_their_input_unchanged(self, kernel):
        from functools import partial

        from repro.signoff.mutations import (
            LAYOUT_MUTANTS, NETLIST_MUTANTS, timing_unbuffered_chain,
        )

        chip = compile_workload(kernel, 4)
        twin = chip.bundles[f"{chip.library.result_cell.name}_pos"]
        port = "r_out0" if "r_out0" in twin.ports else "r_out"
        factories = {**LAYOUT_MUTANTS, **NETLIST_MUTANTS}
        factories["timing-unbuffered-chain"] = partial(
            timing_unbuffered_chain, port=port
        )
        before = _digest(twin)
        for name, factory in factories.items():
            factory(twin)
            assert _digest(twin) == before, name

    def test_mutants_caught_after_clean_run_and_clean_run_after(self):
        signoff = Signoff()
        chip = compile_workload("count", 8)
        assert signoff.run_design(chip).ok
        results = run_design_mutants(chip, signoff)
        assert {r.name for r in results} == {
            "drc-metal-sliver", "lvs-shorted-tracks", "lvs-missing-contact",
            "erc-undersized-pullup", "erc-misphased-transfer",
            "timing-unbuffered-chain",
        }
        for r in results:
            assert r.ok, f"{r.name}: {r.detail}"
        report = signoff.run_design(chip)
        assert report.ok, report.summary()

    def test_renamed_mutant_is_signed_off_afresh(self):
        """The per-twin cache is keyed by object: a mutant carrying a
        clean twin's name still gets its own DRC."""
        from repro.signoff.mutations import drc_metal_sliver

        signoff = Signoff()
        chip = compile_workload("match", 4)
        assert signoff.run_design(chip).ok
        name = "comparator_pos"
        _mutation, mutant = drc_metal_sliver(chip.bundles[name])
        mutant.name = name
        chip._bundles = {**chip.bundles, name: mutant}
        report = signoff.run_design(chip)
        drc = next(s for s in report.stages if s.stage == "drc")
        assert any(f.rule == "metal-width" and f.where == name
                   for f in drc.errors)


class TestCompilerCli:
    def test_single_point_signoff_writes_report(self, tmp_path):
        out = tmp_path / "report.json"
        rc = main([
            "--kernel", "count", "--cells", "8",
            "--signoff", "--json", str(out), "--quiet",
        ])
        assert rc == 0
        data = json.loads(out.read_text())
        assert data["name"] == "count_8x2"
        assert data["ok"] is True
        assert [s["stage"] for s in data["stages"]] == STAGE_ORDER

    def test_cif_export(self, tmp_path):
        out = tmp_path / "chip.cif"
        rc = main([
            "--kernel", "inner-product", "--cells", "4",
            "--cif", str(out), "--quiet",
        ])
        assert rc == 0
        assert out.read_text().strip()

    def test_matrix_compiles(self, capsys):
        rc = main([])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 6
        assert any(line.startswith("match_16x4") for line in lines)
