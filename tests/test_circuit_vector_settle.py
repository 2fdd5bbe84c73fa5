"""Differential test: VectorizedCircuits vs per-instance settle_reference.

:class:`repro.circuit.VectorizedCircuits` steps a batch of structurally
identical netlists as one array program.  It must be *indistinguishable*
from running :func:`settle_reference` on each instance alone -- same
values, strengths and refresh clocks, same per-instance iteration
counts, same exceptions in the awkward regimes (strict charge decay,
VDD-GND shorts, oscillators) -- and :meth:`sync` must hand each Circuit
back in a state per-instance tooling can resume from.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import (
    GND,
    HIGH,
    LOW,
    UNKNOWN,
    VDD,
    Circuit,
    VectorizedCircuits,
)
from repro.circuit.gates import inverter, nand2
from repro.circuit.signals import Strength
from repro.circuit.simulator import settle_reference
from repro.errors import ChargeDecayError, CircuitError


def build_random(seed, name="dut"):
    """One random small netlist; deterministic in *seed* so structurally
    identical copies can be minted for the batch and the references."""
    rng = random.Random(seed)
    c = Circuit(name, retention_ns=500.0)
    names = [f"n{i}" for i in range(rng.randint(2, 6))]
    terminals = names + [VDD, GND]
    for _ in range(rng.randint(1, 9)):
        gate = rng.choice(names)
        a, b = rng.sample(terminals, 2)
        c.add_enhancement(gate, a, b)
    for _ in range(rng.randint(0, 2)):
        c.add_depletion_load(rng.choice(names))
    # Only names that ended up on a device exist as nodes; driving any
    # other name would be a topology change, which the batch rejects.
    live = [n for n in names if n in c.nodes]
    return c, live


def assert_batch_matches_refs(batch, refs, context=""):
    for i, c in enumerate(refs):
        for n in c.nodes:
            got = batch.read(n)[i]
            assert c.nodes[n].value is got, (
                f"inst {i} node {n!r} {context}: ref {c.nodes[n].value} "
                f"!= vec {got}"
            )


class TestRandomNetlists:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000))
    def test_batch_agrees_with_reference_over_random_runs(self, seed):
        rng = random.Random(seed * 7919 + 13)
        B = rng.randint(1, 6)
        refs = [build_random(seed)[0] for _ in range(B)]
        batch = VectorizedCircuits([build_random(seed)[0] for _ in range(B)])
        names = build_random(seed)[1]
        strict = rng.random() < 0.25
        for op_i in range(rng.randint(1, 10)):
            roll = rng.random()
            if roll < 0.55 and names:
                n = rng.choice(names)
                vals = [
                    rng.choice([HIGH, LOW, LOW, HIGH, UNKNOWN])
                    for _ in range(B)
                ]
                for c, v in zip(refs, vals):
                    c.set_input(n, v)
                batch.set_input(n, vals)
            elif roll < 0.8 and names:
                n = rng.choice(names)
                for c in refs:
                    c.release_input(n)
                batch.release_input(n)
            else:
                dt = rng.choice([100.0, 400.0, 700.0])
                for c in refs:
                    c.advance_time(dt)
                batch.advance_time(dt)
            ref_iters, ref_err = [], None
            for c in refs:
                try:
                    ref_iters.append(settle_reference(c, strict_decay=strict))
                except (ChargeDecayError, CircuitError) as e:
                    ref_err = type(e)
                    break
            try:
                vec_iters = batch.settle(strict_decay=strict)
                vec_err = None
            except (ChargeDecayError, CircuitError) as e:
                vec_err = type(e)
            if ref_err is not None:
                # Post-exception state is engine-defined: only the
                # failure itself must agree.
                assert vec_err is not None, f"op {op_i}: ref raised, vec ok"
                return
            assert vec_err is None, f"op {op_i}: vec raised, refs fine"
            assert vec_iters == ref_iters, f"op {op_i}: iteration counts"
            assert_batch_matches_refs(batch, refs, f"op {op_i}")

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_sync_round_trip_restores_per_instance_state(self, seed):
        rng = random.Random(seed)
        B = rng.randint(1, 4)
        refs = [build_random(seed)[0] for _ in range(B)]
        batch = VectorizedCircuits([build_random(seed)[0] for _ in range(B)])
        names = build_random(seed)[1]
        if not names:
            return
        n = rng.choice(names)
        vals = [rng.choice([HIGH, LOW]) for _ in range(B)]
        try:
            for c, v in zip(refs, vals):
                c.set_input(n, v)
                settle_reference(c)
        except CircuitError:
            # Oscillating netlist: the batch must refuse identically, and
            # there is no settled state to round-trip.
            batch.set_input(n, vals)
            with pytest.raises(CircuitError):
                batch.settle()
            return
        batch.set_input(n, vals)
        batch.settle()
        batch.sync()
        for c, ref in zip(batch.circuits, refs):
            assert c.inputs == ref.inputs
            assert c.time_ns == ref.time_ns
            for name in ref.nodes:
                assert c.nodes[name].value is ref.nodes[name].value
                assert c.nodes[name].strength == ref.nodes[name].strength
                if ref.nodes[name].strength <= Strength.CHARGE:
                    assert (
                        c.nodes[name].last_refresh
                        == ref.nodes[name].last_refresh
                    )
            # A re-settle on the synced circuit must already be a fixpoint.
            assert settle_reference(c) == 1


class TestStructuredScenarios:
    def test_inverter_batch_divergent_inputs(self):
        def make():
            c = Circuit("inv")
            inverter(c, "a", "y")
            return c

        batch = VectorizedCircuits([make() for _ in range(4)])
        batch.set_input("a", [LOW, HIGH, LOW, HIGH])
        batch.settle()
        assert batch.read_bool("y") == [True, False, True, False]

    def test_nand_batch_broadcast_and_truth_table(self):
        def make():
            c = Circuit("nand")
            nand2(c, "a", "b", "y")
            return c

        batch = VectorizedCircuits([make() for _ in range(4)])
        batch.set_input("a", [LOW, LOW, HIGH, HIGH])
        batch.set_input("b", [LOW, HIGH, LOW, HIGH])
        batch.settle()
        assert batch.read_bool("y") == [True, True, True, False]
        # Broadcast: one value pins every instance.
        batch.set_input("b", LOW)
        batch.settle()
        assert batch.read_bool("y") == [True] * 4

    def test_charge_retention_and_strict_decay(self):
        def make():
            c = Circuit("dram", retention_ns=100.0)
            from repro.circuit.gates import pass_transistor

            pass_transistor(c, gate="wl", a="bl", b="cell")
            return c

        batch = VectorizedCircuits([make() for _ in range(2)])
        batch.set_input("wl", HIGH)
        batch.set_input("bl", [HIGH, LOW])
        batch.settle()
        batch.set_input("wl", LOW)
        batch.release_input("bl")
        batch.settle()
        assert batch.read("cell") == [HIGH, LOW]  # retained charge
        batch.advance_time(200.0)  # past retention
        with pytest.raises(ChargeDecayError):
            batch.settle(strict_decay=True)

    def test_read_bool_raises_on_unknown_and_names_instance(self):
        def make():
            c = Circuit("inv")
            inverter(c, "a", "y")
            return c

        batch = VectorizedCircuits([make(), make()])
        batch.set_input("a", [LOW, UNKNOWN])
        batch.settle()
        with pytest.raises(CircuitError):
            batch.read_bool("y")


class TestContracts:
    def test_empty_batch_rejected(self):
        with pytest.raises(CircuitError):
            VectorizedCircuits([])

    def test_topology_mismatch_rejected(self):
        a = Circuit("a")
        inverter(a, "x", "y")
        b = Circuit("b")
        nand2(b, "x", "z", "y")
        with pytest.raises(CircuitError):
            VectorizedCircuits([a, b])

    def test_unknown_node_and_bad_lengths(self):
        c = Circuit("inv")
        inverter(c, "a", "y")
        batch = VectorizedCircuits([c])
        with pytest.raises(CircuitError):
            batch.set_input("nope", HIGH)
        with pytest.raises(CircuitError):
            batch.set_input("a", [HIGH, LOW])  # 2 values, 1 instance
        with pytest.raises(CircuitError):
            batch.release_input("nope")
        with pytest.raises(CircuitError):
            batch.read("nope")
        with pytest.raises(CircuitError):
            batch.advance_time(-1.0)
