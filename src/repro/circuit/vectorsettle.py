"""Vectorized settle: step many identical netlists as one array program.

The batch tier runs fleets of identical switch-level instances -- every
worker in a farm simulates the same cell netlist, a wafer-map sweep
settles hundreds of copies of one comparator under different stimuli.
Settling them one Circuit at a time pays the full Python relaxation loop
per instance; :class:`VectorizedCircuits` instead snapshots the shared
topology once and runs the *reference* relaxation semantics of
:func:`repro.circuit.simulator.settle_reference` across all instances
simultaneously, as numpy array passes:

1. gate values gathered per instance -> ON / MAYBE channel masks,
   ``(batch, n_transistors)`` at a time;
2. channel-connected components by min-label propagation with pointer
   jumping (the classic data-parallel connected-components step), rails
   included as connectors exactly like the reference union-find;
3. strength resolution per (instance, component) with scatter reductions
   over flattened segment ids -- rails at FORCED, pins at PULL, depletion
   loads at LOAD, retained charge (with decay) only for undriven
   components; equal-strength disagreement resolves to X;
4. MAYBE pessimism applied to channel terminal nodes, vectorized over the
   ``(batch, n_maybe)`` edge masks;
5. writeback with per-instance change detection; an instance's iteration
   count is the pass at which it stopped changing, so the returned counts
   match per-instance :func:`settle_reference` calls.  Converged
   instances are sliced out of later passes.

Differential tests (``tests/test_circuit_vector_settle.py``) hold every
instance's node values, strengths and refresh clocks bit-identical to a
per-instance reference settle across random netlists, stimuli, charge
decay and VDD-GND shorts.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from ..errors import ChargeDecayError, CircuitError
from .netlist import GND, VDD, Circuit
from .signals import HIGH, LOW, LogicValue, Strength

__all__ = ["VectorizedCircuits"]

_LOW, _HIGH, _X = 0, 1, 2
_S_NONE, _S_CHARGE, _S_LOAD, _S_PULL, _S_FORCED = 0, 1, 2, 3, 4


def _coerce_value(value) -> LogicValue:
    if isinstance(value, LogicValue):
        return value
    if isinstance(value, bool) or value in (0, 1):
        return HIGH if value in (True, 1) else LOW
    raise CircuitError(f"bad input value {value!r}")


def _check_same_topology(circuits: Sequence[Circuit]) -> None:
    proto = circuits[0]
    names = list(proto.nodes)
    edges = [(t.gate, t.a, t.b) for t in proto.transistors]
    loads = [d.node for d in proto.loads]
    for c in circuits[1:]:
        if (
            list(c.nodes) != names
            or [(t.gate, t.a, t.b) for t in c.transistors] != edges
            or [d.node for d in c.loads] != loads
            or c.retention_ns != proto.retention_ns
        ):
            raise CircuitError(
                f"{c.name}: topology differs from {proto.name}; "
                "VectorizedCircuits needs structurally identical instances"
            )


class VectorizedCircuits:
    """A batch of structurally identical circuits settled together.

    Construct from existing :class:`Circuit` instances (their current
    node state, pinned inputs and simulated time are imported); drive the
    batch with :meth:`set_input` / :meth:`advance_time` / :meth:`settle`,
    read results with :meth:`read`, and push state back into the original
    Circuit objects with :meth:`sync` when per-instance tooling (VCD
    probes, the event engine) needs to take over again.

    >>> from repro.circuit.gates import inverter
    >>> def make():
    ...     c = Circuit("inv")
    ...     _ = inverter(c, "a", "y")
    ...     return c
    >>> batch = VectorizedCircuits([make() for _ in range(3)])
    >>> batch.set_input("a", [LOW, HIGH, LOW])
    >>> _ = batch.settle()
    >>> [str(v) for v in batch.read("y")]
    ['1', '0', '1']
    """

    def __init__(self, circuits: Sequence[Circuit]):
        if not circuits:
            raise CircuitError("VectorizedCircuits needs at least one instance")
        _check_same_topology(circuits)
        self.circuits = list(circuits)
        proto = self.circuits[0]
        names = list(proto.nodes)
        self.names = names
        self._iid: Dict[str, int] = {n: i for i, n in enumerate(names)}
        B, N = len(self.circuits), len(names)
        self._B, self._N = B, N
        self._vdd = self._iid[VDD]
        self._gnd = self._iid[GND]
        self._gates = np.array(
            [self._iid[t.gate] for t in proto.transistors], dtype=np.int64
        )
        self._ea = np.array(
            [self._iid[t.a] for t in proto.transistors], dtype=np.int64
        )
        self._eb = np.array(
            [self._iid[t.b] for t in proto.transistors], dtype=np.int64
        )
        self._load_ids = np.array(
            sorted({self._iid[d.node] for d in proto.loads}), dtype=np.int64
        )
        self.retention_ns = proto.retention_ns
        # Per-instance state planes.
        self._values = np.empty((B, N), dtype=np.int8)
        self._strengths = np.empty((B, N), dtype=np.int8)
        self._refresh = np.empty((B, N), dtype=np.float64)
        self._pin_mask = np.zeros((B, N), dtype=bool)
        self._pin_vals = np.zeros((B, N), dtype=np.int8)
        self._now = np.empty(B, dtype=np.float64)
        for i, c in enumerate(self.circuits):
            for j, n in enumerate(names):
                node = c.nodes[n]
                self._values[i, j] = int(node.value)
                self._strengths[i, j] = int(node.strength)
                self._refresh[i, j] = node.last_refresh
            for n, v in c.inputs.items():
                self._pin_mask[i, self._iid[n]] = True
                self._pin_vals[i, self._iid[n]] = int(v)
            self._now[i] = c.time_ns

    def __len__(self) -> int:
        return len(self.circuits)

    # -- stimulus ----------------------------------------------------------

    def set_input(self, name: str, value) -> None:
        """Pin *name* in every instance: one value broadcast to all, or a
        per-instance sequence."""
        if name not in self._iid:
            raise CircuitError(f"no node named {name!r}")
        i = self._iid[name]
        if isinstance(value, (list, tuple)):
            if len(value) != self._B:
                raise CircuitError(
                    f"need {self._B} values for input {name!r}, "
                    f"got {len(value)}"
                )
            vals = [int(_coerce_value(v)) for v in value]
        else:
            vals = [int(_coerce_value(value))] * self._B
        self._pin_mask[:, i] = True
        self._pin_vals[:, i] = vals

    def release_input(self, name: str) -> None:
        """Stop forcing *name* everywhere; charge is retained per node."""
        if name not in self._iid:
            raise CircuitError(f"no node named {name!r}")
        self._pin_mask[:, self._iid[name]] = False

    def advance_time(self, dt_ns: float) -> None:
        """Advance every instance's simulated time."""
        if dt_ns < 0:
            raise CircuitError("time cannot run backwards")
        self._now += dt_ns

    # -- reading -----------------------------------------------------------

    def read(self, name: str) -> List[LogicValue]:
        """The solved value of *name* in every instance."""
        try:
            i = self._iid[name]
        except KeyError:
            raise CircuitError(f"no node named {name!r}") from None
        return [LogicValue(int(v)) for v in self._values[:, i]]

    def read_bool(self, name: str) -> List[bool]:
        """The solved values as booleans; raises on any UNKNOWN."""
        out = []
        for i, v in enumerate(self.read(name)):
            if v is LogicValue.UNKNOWN:
                raise CircuitError(
                    f"{self.circuits[i].name}: node {name!r} is UNKNOWN"
                )
            out.append(v is HIGH)
        return out

    # -- settling ----------------------------------------------------------

    def settle(self, max_iterations: int = 60,
               strict_decay: bool = False) -> List[int]:
        """Relax every instance to a fixed point; returns per-instance
        pass counts (each equal to what ``settle_reference`` on that
        instance alone would report)."""
        B = self._B
        iters = [0] * B
        active = np.arange(B)
        for iteration in range(max_iterations):
            changed = self._pass(active, strict_decay)
            for k in np.flatnonzero(~changed):
                iters[int(active[k])] = iteration + 1
            active = active[changed]
            if active.size == 0:
                return iters
        names = ", ".join(self.circuits[int(i)].name for i in active[:4])
        raise CircuitError(
            f"{names}: did not settle in {max_iterations} iterations "
            f"(oscillating or ill-formed circuit)"
        )

    def _pass(self, active, strict_decay: bool):
        """One vectorized reference pass over the *active* instances.

        Returns a boolean vector (one per active instance): did any node
        value change.  Mirrors ``simulator._reference_pass`` step for
        step; comments there are the specification.
        """
        N = self._N
        values = self._values[active]
        strengths = self._strengths[active]
        refresh = self._refresh[active]
        pin_mask = self._pin_mask[active]
        pin_vals = self._pin_vals[active]
        now = self._now[active]
        b = active.size
        rows_n = np.arange(b)[:, None] * N

        E = self._gates.size
        if E:
            gv = values[:, self._gates]
            on = gv == _HIGH
            maybe = gv == _X
            idx_a = rows_n + self._ea[None, :]
            idx_b = rows_n + self._eb[None, :]

        # Connected components: min-label propagation + pointer jumping.
        labels = np.tile(np.arange(N, dtype=np.int64), (b, 1))
        if E:
            while True:
                prev = labels
                labels = np.minimum(
                    labels, np.take_along_axis(labels, labels, axis=1)
                )
                la = labels[:, self._ea]
                lb = labels[:, self._eb]
                m = np.minimum(la, lb)
                flat = labels.ravel()
                sel = on & (m < la)
                if sel.any():
                    np.minimum.at(flat, idx_a[sel], m[sel])
                sel = on & (m < lb)
                if sel.any():
                    np.minimum.at(flat, idx_b[sel], m[sel])
                labels = flat.reshape(b, N)
                if labels is not prev and np.array_equal(labels, prev):
                    break

        seg = labels + rows_n  # flat (instance, component) segment ids
        F = b * N

        # Strength-level contributions, scatter-reduced per segment.
        f_hi = np.zeros(F, dtype=bool)
        f_lo = np.zeros(F, dtype=bool)
        f_hi[seg[:, self._vdd]] = True
        f_lo[seg[:, self._gnd]] = True
        p_hi = np.zeros(F, dtype=bool)
        p_lo = np.zeros(F, dtype=bool)
        p_x = np.zeros(F, dtype=bool)
        if pin_mask.any():
            p_hi[seg[pin_mask & (pin_vals == _HIGH)]] = True
            p_lo[seg[pin_mask & (pin_vals == _LOW)]] = True
            p_x[seg[pin_mask & (pin_vals == _X)]] = True
        l_hi = np.zeros(F, dtype=bool)
        if self._load_ids.size:
            l_hi[seg[:, self._load_ids].ravel()] = True

        any_f = f_hi | f_lo
        any_p = p_hi | p_lo | p_x
        comp_s = np.where(
            any_f, _S_FORCED,
            np.where(any_p, _S_PULL, np.where(l_hi, _S_LOAD, _S_NONE)),
        ).astype(np.int8)
        v_f = np.where(f_hi & f_lo, _X, np.where(f_hi, _HIGH, _LOW))
        v_p = np.where(
            p_x | (p_hi & p_lo), _X, np.where(p_hi, _HIGH, _LOW)
        )
        comp_v = np.where(
            any_f, v_f, np.where(any_p, v_p, np.where(l_hi, _HIGH, _X))
        ).astype(np.int8)

        # Retained charge, undriven components only, with decay.
        undriven = comp_s[seg] == _S_NONE  # (b, N) per member node
        expired = (
            (strengths <= _S_CHARGE)
            & ((now[:, None] - refresh) > self.retention_ns)
            & (values != _X)
        )
        if strict_decay:
            bad = expired & undriven
            if bad.any():
                i, j = np.argwhere(bad)[0]
                inst = self.circuits[int(active[i])]
                age = float(now[i] - refresh[i, j])
                raise ChargeDecayError(
                    f"{inst.name}: node {self.names[int(j)]} read "
                    f"{age:.0f} ns after last refresh (retention "
                    f"{self.retention_ns:.0f} ns)"
                )
        stored = np.where(expired, _X, values)
        c_hi = np.zeros(F, dtype=bool)
        c_lo = np.zeros(F, dtype=bool)
        c_x = np.zeros(F, dtype=bool)
        c_hi[seg[undriven & (stored == _HIGH)]] = True
        c_lo[seg[undriven & (stored == _LOW)]] = True
        c_x[seg[undriven & (stored == _X)]] = True
        any_c = c_hi | c_lo | c_x
        ch_v = np.where(
            c_x | (c_hi & c_lo), _X, np.where(c_hi, _HIGH, _LOW)
        )
        charge = (comp_s == _S_NONE) & any_c
        comp_v = np.where(charge, ch_v, comp_v).astype(np.int8)
        comp_s = np.where(charge, _S_CHARGE, comp_s).astype(np.int8)

        new_v = comp_v[seg]
        new_s = comp_s[seg]
        driven = new_s >= _S_LOAD

        # MAYBE pessimism on channel terminal nodes.
        if E and maybe.any():
            ra = labels[:, self._ea] + rows_n
            rb = labels[:, self._eb] + rows_n
            va, sa = comp_v[ra], comp_s[ra]
            vb, sb = comp_v[rb], comp_s[rb]
            live = maybe & (ra != rb) & ~((va == vb) & (va != _X))
            maybe_x = np.zeros(b * N, dtype=bool)
            sel = live & (sb >= sa)
            if sel.any():
                maybe_x[idx_a[sel]] = True
            sel = live & (sa >= sb)
            if sel.any():
                maybe_x[idx_b[sel]] = True
            maybe_x = maybe_x.reshape(b, N)
            new_v = np.where(maybe_x & ~pin_mask, _X, new_v)

        new_v = np.where(pin_mask, pin_vals, new_v)
        new_s = np.where(pin_mask, _S_FORCED, new_s).astype(np.int8)
        # Rails are never written back.
        new_v[:, self._vdd] = _HIGH
        new_s[:, self._vdd] = _S_FORCED
        new_v[:, self._gnd] = _LOW
        new_s[:, self._gnd] = _S_FORCED

        delta = new_v != values
        touch = driven | pin_mask
        touch[:, self._vdd] = False
        touch[:, self._gnd] = False
        refresh = np.where(touch, now[:, None], refresh)

        self._values[active] = new_v
        self._strengths[active] = new_s
        self._refresh[active] = refresh
        return delta.any(axis=1)

    # -- interop -----------------------------------------------------------

    def sync(self) -> None:
        """Write the batch state back into the original Circuit objects
        (values, strengths, refresh clocks, pins, time), so per-instance
        tooling can resume; each instance's event engine is dropped
        because its state was rewritten behind its back."""
        for i, c in enumerate(self.circuits):
            for j, n in enumerate(self.names):
                node = c.nodes[n]
                node.value = LogicValue(int(self._values[i, j]))
                node.strength = Strength(int(self._strengths[i, j]))
                node.last_refresh = float(self._refresh[i, j])
            c.inputs = {
                self.names[int(j)]: LogicValue(int(self._pin_vals[i, j]))
                for j in np.flatnonzero(self._pin_mask[i])
            }
            c.time_ns = float(self._now[i])
            c._event_engine = None
            c._dirty_ext.clear()
