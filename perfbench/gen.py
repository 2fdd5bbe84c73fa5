"""Seeded input generators.  The same seed gives the same inputs.

Numeric streams and taps are small integers stored as floats, so every
sum is exact and the fast kernels must equal the oracle bit for bit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

SYMBOLS = "ABCD"
TENANTS = ("t0", "t1", "t2", "t3")
#: The six registry kernels, in a fixed order (not the registry's).
KERNELS = ("match", "count", "correlation", "inner-product", "convolution",
           "fir")
NUMERIC = frozenset(("correlation", "inner-product", "convolution", "fir"))


@dataclass(frozen=True)
class Job:
    """One request: a tenant's kernel parameters and input stream."""

    tenant: str
    workload: str
    params: object  # pattern str, or a tuple of float taps
    stream: object  # text str, or a tuple of float samples

    def call_params(self):
        """The parameters as the service APIs take them."""
        return self.params if isinstance(self.params, str) else list(self.params)


def _params(rng: random.Random, workload: str, width: int):
    if workload in NUMERIC:
        taps = [float(rng.randint(-3, 3)) for _ in range(width)]
        taps[0] = taps[0] or 1.0  # never an all-zero tap vector
        return tuple(taps)
    # Wildcards (X) appear in about one position in five.
    return "".join(
        "X" if rng.random() < 0.2 else rng.choice(SYMBOLS)
        for _ in range(width)
    )


_SAMPLES = tuple(float(v) for v in range(-8, 9))


def _stream(rng: random.Random, workload: str, n: int):
    if workload in NUMERIC:
        return tuple(rng.choices(_SAMPLES, k=n))
    return "".join(rng.choices(SYMBOLS, k=n))


def _param_sets(rng: random.Random):
    """Four parameter sets per kernel, of widths 3 to 6: every seed has
    the same widths, so the seed moves the values, not the work."""
    return {w: [_params(rng, w, width) for width in (3, 4, 5, 6)]
            for w in KERNELS}


class FarmTraffic:
    """Closed-loop waves of 64 jobs for the synchronous farm.

    A wave is made of client requests: one tenant sends 1 to 16 streams
    for one kernel and parameter set, so ``submit_many`` has batches to
    form and single jobs go through ``submit``.  Each kernel has four
    parameter sets.  About one fresh stream in ten is wide enough
    (>= 512) to shard.  With ``shared`` set, about 30% of streams are
    drawn from a fixed popular set of (params, stream) pairs that every
    tenant draws from, so they repeat across tenants (the cache) and
    within a request (dedup); without it every stream is new.  The
    popular set has the same shape for every seed: three pairs per
    parameter set, one wide pair per kernel.
    """

    WAVE_JOBS = 64
    REQUEST_SIZES = (1, 1, 2, 4, 8, 8, 16)
    SHARED_SHARE = 0.3
    WIDE_SHARE = 0.1

    def __init__(self, seed: int, shared: bool):
        self.seed = seed
        self.shared = shared
        rng = random.Random(seed)
        self.param_sets = _param_sets(rng)
        self.popular: Dict[Tuple[str, object], List[object]] = {}
        if shared:
            for w in KERNELS:
                for k, params in enumerate(self.param_sets[w]):
                    self.popular[w, params] = [
                        _stream(rng, w, rng.randint(512, 640) if k == i == 0
                                else rng.randint(48, 80))
                        for i in range(3)
                    ]

    def _draw(self, rng: random.Random, workload: str):
        if rng.random() < self.WIDE_SHARE:
            n = rng.randint(512, 640)
        else:
            n = rng.randint(48, 80)
        return _stream(rng, workload, n)

    def wave(self, index: int) -> List[Job]:
        """Wave *index*; independent of how many waves came before."""
        rng = random.Random(self.seed * 1_000_003 + index)
        jobs: List[Job] = []
        while len(jobs) < self.WAVE_JOBS:
            tenant = rng.choice(TENANTS)
            w = rng.choice(KERNELS)
            params = rng.choice(self.param_sets[w])
            size = min(rng.choice(self.REQUEST_SIZES),
                       self.WAVE_JOBS - len(jobs))
            for _ in range(size):
                if self.shared and rng.random() < self.SHARED_SHARE:
                    stream = rng.choice(self.popular[w, params])
                else:
                    stream = self._draw(rng, w)
                jobs.append(Job(tenant, w, params, stream))
        return jobs


class OpenLoopTraffic:
    """Distinct mixed-kernel jobs of about 1,024 chars or samples, with
    Poisson arrival gaps for the open-loop phase."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.param_sets = _param_sets(self.rng)

    def job(self) -> Job:
        rng = self.rng
        w = rng.choice(KERNELS)
        return Job(
            rng.choice(TENANTS), w, rng.choice(self.param_sets[w]),
            _stream(rng, w, rng.randint(960, 1088)),
        )

    def arrivals(self, rate: float, n: int) -> List[float]:
        """*n* due times (seconds from phase start) at *rate* jobs/s."""
        t, out = 0.0, []
        for _ in range(n):
            t += self.rng.expovariate(rate)
            out.append(t)
        return out


def chip_sample_job(seed: int, index: int, spec):
    """A seeded differential job for one compiled design: ``(params,
    stream, alphabet)`` in the shape ``repro.compiler.differential``
    takes."""
    from repro import Alphabet

    rng = random.Random(seed * 7919 + index)
    if spec.kernel == "inner-product":
        top = 1 << spec.data_bits
        taps = [rng.randrange(1, top) for _ in range(min(spec.cells, 3))]
        return taps, [rng.randrange(top) for _ in range(24)], None
    symbols = "".join(chr(ord("A") + i) for i in range(1 << spec.char_bits))
    pattern = "".join(rng.choice(symbols) for _ in range(min(spec.cells, 3)))
    stream = "".join(rng.choice(symbols) for _ in range(24))
    return pattern, stream, Alphabet(symbols)
