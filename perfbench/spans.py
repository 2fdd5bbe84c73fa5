"""Benchmark-side spans: timed from outside, around calls into each layer.

Nothing here reaches into ``src/``: a traced pass wraps public functions
and methods of the layer modules for its duration (see
:func:`instrumented`), records one span per call, and keeps every span
in memory until :meth:`SpanRecorder.save` writes them out at the end of
the run.  A layer's self time is its spans' duration minus the part of
it that child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import json
import threading
import time
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

class SpanRecorder:
    """Spans of one traced pass, nested per thread.

    A span is ``[name, layer, start, end, parent, op]``: start and end
    in ``perf_counter`` seconds, the parent's index (-1 for a root) and
    the op id that all spans of one op share."""

    def __init__(self):
        self.spans: List[list] = []
        self.op_id = -1
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, layer: str) -> Iterator[None]:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        rec = [name, layer, time.perf_counter(), 0.0, parent, self.op_id]
        with self._lock:
            idx = len(self.spans)
            self.spans.append(rec)
        stack.append(idx)
        try:
            yield
        finally:
            stack.pop()
            rec[3] = time.perf_counter()

    def count(self, layer: str) -> int:
        return sum(1 for s in self.spans if s[1] == layer)

    def total(self, name: str) -> float:
        """Wall seconds of every span called *name*, summed."""
        return sum(s[3] - s[2] for s in self.spans if s[0] == name)

    def self_times(self) -> Dict[str, float]:
        """Seconds of self time per layer: each span's duration minus
        the union of its children's intervals."""
        children: Dict[int, List[Tuple[float, float]]] = {}
        for s in self.spans:
            if s[4] >= 0:
                children.setdefault(s[4], []).append((s[2], s[3]))
        out: Dict[str, float] = {}
        for i, s in enumerate(self.spans):
            covered = 0.0
            end = s[2]
            for c0, c1 in sorted(children.get(i, ())):
                c0 = max(c0, end)
                if c1 > c0:
                    covered += c1 - c0
                    end = c1
            out[s[1]] = out.get(s[1], 0.0) + (s[3] - s[2]) - covered
        return out

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "layer", "t0", "t1", "parent", "op"],
                    "spans": self.spans,
                },
                fh,
            )


def maybe_span(recorder: Optional[SpanRecorder], name: str, layer: str):
    """A span on *recorder*, or nothing on an untraced pass."""
    if recorder is None:
        return contextlib.nullcontext()
    return recorder.span(name, layer)


def _wrap(recorder: SpanRecorder, fn, name: str, layer: str):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with recorder.span(name, layer):
            return fn(*args, **kwargs)

    return wrapper


@contextlib.contextmanager
def instrumented(
    recorder: SpanRecorder, targets: Sequence[Tuple[object, str, str]]
) -> Iterator[None]:
    """Wrap ``owner.attr`` for each ``(owner, attr, layer)`` target in a
    span named ``<layer>:<attr>`` and restore every original on exit.

    An owner is a class (plain, class- and static methods) or an
    instance, including frozen dataclass instances whose fields hold
    functions (the workload registry's specs)."""
    undo = []
    try:
        for owner, attr, layer in targets:
            name = f"{layer}:{attr}"
            if isinstance(owner, type):
                raw = owner.__dict__[attr]
                fn = _wrap(recorder, getattr(owner, attr), name, layer)
                if isinstance(raw, (classmethod, staticmethod)):
                    fn = staticmethod(fn)
                setattr(owner, attr, fn)
                undo.append(lambda o=owner, a=attr, r=raw: setattr(o, a, r))
            else:
                had = attr in vars(owner)
                raw = vars(owner).get(attr)
                fn = _wrap(recorder, getattr(owner, attr), name, layer)
                object.__setattr__(owner, attr, fn)
                if had:
                    undo.append(
                        lambda o=owner, a=attr, r=raw: object.__setattr__(o, a, r)
                    )
                else:
                    undo.append(lambda o=owner, a=attr: object.__delattr__(o, a))
        yield
    finally:
        for restore in reversed(undo):
            restore()


def common_targets() -> List[Tuple[object, str, str]]:
    """Layer entry points shared by every workload's traced pass."""
    from repro.circuit.netlist import Circuit
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.trace import Tracer
    from repro.workloads import WORKLOADS, WorkloadSpec

    targets: List[Tuple[object, str, str]] = [
        (Circuit, "settle", "circuit"),
        (Tracer, "open_span", "obs"),
        (Tracer, "close", "obs"),
        (Tracer, "record", "obs"),
        (Tracer, "adopt", "obs"),
        (MetricsRegistry, "merge_snapshot", "obs"),
        (WorkloadSpec, "validate_stream", "workloads"),
    ]
    for spec in WORKLOADS.values():
        for attr in ("parse_params", "prepare", "finalize"):
            targets.append((spec, attr, "workloads"))
    return targets


def layer_metrics(
    recorder: SpanRecorder, n_ops: int
) -> Dict[str, float]:
    """``self_us_per_op.<layer>`` for every layer (0 where unused) plus
    the ops' own time that no layer span covers."""
    from .common import LAYERS

    selfs = recorder.self_times()
    per = 1e6 / max(n_ops, 1)
    out = {f"self_us_per_op.{layer}": selfs.get(layer, 0.0) * per
           for layer in LAYERS}
    out["self_us_per_op.unattributed"] = selfs.get("op", 0.0) * per
    return out
