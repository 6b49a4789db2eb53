"""Speed probe: a fixed numpy/LAPACK kernel timed between ops.

The benchmark runs on small machines shared with other tenants, whose load
moves op times by 10-25% over minutes, within a run and between runs.  Each
op's wall time is therefore divided by the probe time measured just before
and just after it and multiplied by REFERENCE_S: reported times are seconds at
one fixed machine speed.  The raw wall times are printed and recorded too.

The probe is the benchmark's own code and never calls the package, so a
change to the package moves the op times and leaves the probe alone.  Its
parts mirror the ops' dominant primitives: dense non-symmetric eigensolves
at n = 128 and n = 256 (``spectral``), a complex exponential matrix times a
vector (``geometry.TrigCurve.evaluate``) and a loop of small Bessel
evaluations (``capsule_scattering``).  Over 4-minute runs of each workload,
the spread of 25-second medians fell from 0.15-0.29 (wall time) to
0.01-0.05 (scaled), as distance between quartiles over median.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.special import jv

# probe time, in seconds, that defines the reference speed (about its median
# on the 2-vCPU Xeon machine the benchmark was defined on)
REFERENCE_S = 0.06


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._small = rng.standard_normal((128, 128))
        self._large = rng.standard_normal((256, 256))
        self._phases = 1j * rng.standard_normal((1024, 256))
        self._vector = rng.standard_normal(256)
        self._orders = np.arange(-20, 21)
        self._arguments = rng.uniform(1.0, 10.0, 100)

    def __call__(self) -> float:
        """Seconds one run of the kernel takes now."""
        start = time.perf_counter()
        np.linalg.eigvals(self._small)
        np.linalg.eigvals(self._large)
        np.exp(self._phases) @ self._vector
        for x in self._arguments:
            jv(self._orders, x)
        return time.perf_counter() - start

    def factor(self, before: float, after: float) -> float:
        """Scale from wall seconds to seconds at the reference speed."""
        return REFERENCE_S / (0.5 * (before + after))
