"""Scaling probes of the traced run, outside every timed loop.

They time single public calls along the two axes that set the cost of this
library: the dimension d of the Weyl layer and the depth of a noisy optical
cascade (2 noise slots per stage, so 2^(2 n) branches).  Each probe reports
the median of a few repetitions in milliseconds.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time

import numpy as np

from tracing import NullTracer
from workloads import KINDS, build_cascade

#: Dimension -> repetitions.  d=64 holds the d^4 * 16 B = 256 MiB dense basis.
WEYL_DIMS = {4: 5, 16: 3, 32: 1, 64: 1}
WEYL_FNS = ("hermitian_from_coeffs", "exp_i_hermitian", "decompose", "reconstruct")
#: Cascade depth -> repetitions, at the visibility below.
DEPTHS = {2: 3, 3: 3, 4: 3, 5: 1, 6: 1}
DEPTH_VISIBILITY = 0.87
IMPORT_REPS = 5


def _ms(samples: list[float]) -> float:
    return statistics.median(samples) * 1e3


def weyl_scaling(lib, seed: int) -> dict[str, float]:
    """weyl.<fn>.d<d>_ms along coefficients -> A -> U -> h -> U."""
    out = {}
    for d, reps in WEYL_DIMS.items():
        coeffs = np.random.default_rng([seed, d]).normal(size=(d, d))
        times: dict[str, list[float]] = {fn: [] for fn in WEYL_FNS}
        for _ in range(reps):
            value = coeffs
            for fn in WEYL_FNS:
                start = time.perf_counter()
                value = getattr(lib.weyl, fn)(value)
                times[fn].append(time.perf_counter() - start)
        out.update({f"weyl.{fn}.d{d}_ms": _ms(ts) for fn, ts in times.items()})
    return out


def depth_scaling(lib) -> dict[str, float]:
    """optics.correlation_matrix.depth<n>_ms on the cascade X, X2, Xdagger, X, ..."""
    o = lib.optics
    noise = o.NoiseParams(DEPTH_VISIBILITY, 0.5)
    out = {}
    for n, reps in DEPTHS.items():
        circuit = build_cascade(lib, [KINDS[s % 3] for s in range(n)], NullTracer())
        times = []
        for _ in range(reps):
            start = time.perf_counter()
            o.correlation_matrix(circuit, noise)
            times.append(time.perf_counter() - start)
        out[f"optics.correlation_matrix.depth{n}_ms"] = _ms(times)
    return out


def cli_import_ms() -> float:
    """Wall time of a fresh interpreter that imports quditgates.cli."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))
    times = []
    for _ in range(IMPORT_REPS):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import quditgates.cli"],
            env=env, check=True, timeout=60, capture_output=True,
        )
        times.append(time.perf_counter() - start)
    return _ms(times)
