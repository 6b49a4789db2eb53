"""Reference check of the default configuration against recorded values.

The default cell (disk radius 0.45, period 1, 256 nodes) and the default
five-period calibration must reproduce ``reference.json``, which was recorded
from the package before any optimisation.  Tolerances are 1e-10 relative: the
dominant eigenvalue, lambda_0 and each calibration peak element by element,
and the whole spectrum relative to its largest magnitude (most eigenvalues are
at round-off level, 1e-17 to 1e-16, where an element-wise relative test has no
meaning).

Run ``python3 perfbench/reference.py`` to record the file again.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"
RTOL = 1e-10


def compute() -> dict:
    import metastrain
    import workloads as w

    cell = metastrain.make_disk_cell(0.45, 1.0, 256)
    dec = metastrain.eigendecompose(metastrain.assemble_single_layer(cell),
                                    metastrain.assemble_np_adjoint(cell))
    table = metastrain.peak_vs_period(0.45, w.PERIOD_GRID.tolist(), w.MATERIAL,
                                      w.WAVELENGTH_MIN, w.WAVELENGTH_MAX,
                                      w.SWEEP_SAMPLES, node_count=256)
    return {"eigenvalues": dec.eigenvalues.tolist(), "dominant_mode": dec.dominant_mode(),
            "periods": table.periods().tolist(),
            "peak_wavelengths_m": table.peak_wavelengths().tolist()}


def check() -> list[str]:
    """Names of the reference comparisons that fail; empty when all hold."""
    ref = json.loads(REFERENCE_FILE.read_text())
    got = compute()
    failed = []
    ev, ev_ref = np.array(got["eigenvalues"]), np.array(ref["eigenvalues"])
    if ev.shape != ev_ref.shape or np.abs(ev - ev_ref).max() > RTOL * np.abs(ev_ref).max():
        failed.append("reference_spectrum")
        return failed
    for j in (0, ref["dominant_mode"]):
        if abs(ev[j] - ev_ref[j]) > RTOL * abs(ev_ref[j]):
            failed.append(f"reference_eigenvalue_{j}")
    peaks, peaks_ref = np.array(got["peak_wavelengths_m"]), np.array(ref["peak_wavelengths_m"])
    if not np.all(np.abs(peaks - peaks_ref) <= RTOL * np.abs(peaks_ref)):
        failed.append("reference_calibration_peaks")
    return failed


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    REFERENCE_FILE.write_text(json.dumps(compute(), indent=1) + "\n")
    print(f"wrote {REFERENCE_FILE}")
