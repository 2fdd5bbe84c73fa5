"""The assembly audits' error paths, on a small wrapped array.

``Signoff.assembly_stage_for`` checks a floorplan three ways: placed
instances must not overlap, the flat CIF must draw exactly the
transistor channels the placed cells promise (counted once per cell
type, weighed by instances), and every cell's VDD and GND probes must
land on metal of two disjoint nets.  Each test below plants one defect
through a thin :class:`ArrayAssembler` wrapper and checks that the
responsible rule fires; where the defect disturbs nothing else, it must
be the only error.
"""

from typing import Dict, List

import pytest

from repro.layout.assembly import ArrayAssembler
from repro.layout.cells import CellLayout, comparator_bundle
from repro.layout.geometry import Rect
from repro.layout.layers import Layer
from repro.signoff.pipeline import Signoff

POS, NEG = comparator_bundle(True), comparator_bundle(False)
CELLS = {POS.name: POS.layout, NEG.name: NEG.layout}
#: The positive twin is placed once, so a defect drawn into it shows up
#: exactly once on the die; the negative twin three times.
ROWS = [[POS.name, NEG.name], [NEG.name, NEG.name]]
PINS = ["VDD", "GND"]


class DrawnFrom(ArrayAssembler):
    """Floorplans one cell library but draws its CIF from another: the
    audit's promise comes from ``cells``, the die from ``drawn``."""

    def __init__(self, drawn: Dict[str, CellLayout]):
        super().__init__(CELLS, ROWS, PINS, "audit")
        self._drawn = ArrayAssembler(drawn, ROWS, PINS, "audit")

    def to_cif(self) -> str:
        return self._drawn.to_cif()


class Overlapping(ArrayAssembler):
    """Slides the second instance four lambda into the first."""

    def floorplan(self):
        fp = super().floorplan()
        name, x, y = fp.cell_instances[1]
        fp.cell_instances[1] = (name, x - 4, y)
        return fp


def _edited_pos(add: Dict[Layer, List[Rect]] = None,
                drop: Dict[Layer, Rect] = None) -> Dict[str, CellLayout]:
    """The library with a copy of the positive twin, rects added/dropped."""
    rects = {layer: list(rs) for layer, rs in POS.layout.rects.items()}
    for layer, extra in (add or {}).items():
        rects[layer].extend(extra)
    for layer, rect in (drop or {}).items():
        rects[layer].remove(rect)
    edited = CellLayout(POS.name, rects, dict(POS.layout.ports),
                        POS.layout.width, POS.layout.height)
    return {POS.name: edited, NEG.name: NEG.layout}


def _audit(asm):
    stage = Signoff().assembly_stage_for(asm)
    return stage, {f.rule for f in stage.errors}


def _promised() -> int:
    return sum(
        len((POS if name == POS.name else NEG).sticks.transistor_sites())
        for row in ROWS for name in row
    )


#: Source diffusion stub of the positive twin's first device, its gate
#: poly, and its VDD rail (see ``layout.cells`` for the geometry).
SOURCE_STUB = Rect(11, 5, 19, 7)
FIRST_GATE = Rect(5, 11, 16, 13)


def _vdd_rail() -> Rect:
    y = POS.layout.ports["VDD"][0].y
    return Rect(-1, y - 1, POS.layout.width + 1, y + 2)


def test_fixture_geometry_is_where_the_defects_expect_it():
    assert SOURCE_STUB in POS.layout.rects[Layer.DIFFUSION]
    assert FIRST_GATE in POS.layout.rects[Layer.POLY]
    assert _vdd_rail() in POS.layout.rects[Layer.METAL]


def test_clean_array_passes_with_per_type_census():
    stage, errors = _audit(ArrayAssembler(CELLS, ROWS, PINS, "audit"))
    assert errors == set()
    census = [f for f in stage.findings if f.rule == "cif-census"]
    assert [f.detail for f in census] == [
        f"{_promised()} transistor channels on the die"
    ]


@pytest.mark.parametrize("edit,delta", [
    # a poly strap across the source stub: one extra crossing
    (dict(add={Layer.POLY: [Rect(14, 3, 16, 9)]}), +1),
    # the first device's gate poly gone: one crossing fewer
    (dict(drop={Layer.POLY: FIRST_GATE}), -1),
], ids=["gains-one", "loses-one"])
def test_cif_census_catches_one_crossing(edit, delta):
    stage, errors = _audit(DrawnFrom(_edited_pos(**edit)))
    assert errors == {"cif-census"}
    (finding,) = stage.errors
    assert finding.detail == (
        f"flat CIF has {_promised() + delta} transistor channels; the "
        f"floorplan promises {_promised()}"
    )


def test_metal_strap_between_rails_is_a_rail_short():
    strap = Rect(1, 0, 4, POS.layout.ports["VDD"][0].y)
    _stage, errors = _audit(DrawnFrom(_edited_pos(add={Layer.METAL: [strap]})))
    assert errors == {"rail-short"}


def test_missing_vdd_rail_is_a_rail_open():
    stage, errors = _audit(DrawnFrom(_edited_pos(
        drop={Layer.METAL: _vdd_rail()}
    )))
    assert errors == {"rail-open"}
    opens = [f for f in stage.errors if f.rule == "rail-open"]
    assert [f.where for f in opens] == [POS.name]
    assert "VDD rail probe" in opens[0].detail


def test_overlapping_instances_are_a_floorplan_overlap():
    stage, errors = _audit(Overlapping(CELLS, ROWS, PINS, "audit"))
    assert "floorplan-overlap" in errors
    overlaps = [f for f in stage.errors if f.rule == "floorplan-overlap"]
    assert len(overlaps) == 1
    assert POS.name in overlaps[0].detail and NEG.name in overlaps[0].detail
