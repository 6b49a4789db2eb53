"""The three workloads: seeded inputs, one op each, its correctness gate and work counts.

An op receives only the inputs generated here from the workload seed and the
op index, so no two ops share an input and a cache across ops cannot help.
Sharing inside one op is part of the workload: the five periods of a
``calibrate`` op reuse one disk curve, and the capsules of a ``spectrum`` op
reuse one decomposition.

Every op function takes an ``api`` namespace (see ``tracing.make_api``) and
returns its outputs; the gate turns those into a list of failed checks plus
the useful/attempted counts behind the per-layer ratios.
"""

from __future__ import annotations

import math

import numpy as np

import metastrain
from metastrain.errors import MetastrainError
from metastrain.resonance_sweep import CalibrationRow, CalibrationTable

# default material and sweep window of ``metastrain`` (cli.DEFAULT_CONFIG)
MATERIAL = metastrain.MaterialParams.from_relative(
    mu_m_rel=1.0, eps_m_rel=3.1329, omega_p=2.0e15, collision_time=1.0e-14,
    plasma_frequency_is_angular=True,
)
WAVELENGTH_MIN = 6.5e-7
WAVELENGTH_MAX = 1.7e-6
SWEEP_SAMPLES = 400
PERIOD_GRID = np.array([1.0, 1.25, 1.5, 1.75, 2.0])
# Smallest gap between neighbouring disks.  At a gap of 0.05 and radius >= 0.4
# the dominant resonance moves past the 1.7 um window edge (same peak at n =
# 256, 512 and 1024), dominant_peak returns a secondary peak and the table is
# not monotone, which the inversion rightly refuses.  At 0.1 the dominant peak
# stays below 1.43 um for every radius drawn.
MIN_GAP = 0.1

# capsule used by the inversion: its circumference 2*pi*r stays below the
# smallest perimeter N * period * delta the seeded periods (>= 0.9) can give
CAPSULE_PARTICLES = 1256
CAPSULE_SCALE_M = 5.0e-9
INVERT_RADIUS_M = 8.0e-7
INTERIOR_PEAKS = 20

SPECTRUM_WAVELENGTHS = np.linspace(WAVELENGTH_MIN, WAVELENGTH_MAX, 1000)
SPECTRUM_CAPSULES = 3

SHAPE_NODES = 128
SHAPE_ETAS = (1e-2, 1e-3)
# same probe contrast, far-field height and tolerance as metastrain.validate
PROBE_CONTRAST = 0.8
FAR_FIELD_HEIGHT = 8.0
MIN_OVERLAP = 0.9

NODES = {"calibrate": 256, "spectrum": 256, "shape": SHAPE_NODES}
WORKLOAD_IDS = {"calibrate": 1, "spectrum": 2, "shape": 3}


def op_rng(workload: str, seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOAD_IDS[workload], index])


def _decompose(api, cell):
    return api.eigendecompose(api.assemble_single_layer(cell), api.assemble_np_adjoint(cell))


# --------------------------------------------------------------------- calibrate

def calibrate_inputs(rng) -> dict:
    radius = rng.uniform(0.35, 0.45)
    jitter = rng.uniform(-0.1, 0.1, PERIOD_GRID.size)
    periods = np.sort(np.maximum(PERIOD_GRID + jitter, 2.0 * radius + MIN_GAP))
    return {"radius": float(radius), "periods": periods.tolist(),
            "interior": rng.uniform(0.0, 1.0, INTERIOR_PEAKS).tolist()}


def calibrate_op(api, inp: dict) -> dict:
    n = NODES["calibrate"]
    rows, lambda0 = [], []
    for period in inp["periods"]:
        cell = api.make_disk_cell(inp["radius"], period, n)
        dec = _decompose(api, cell)
        lambda0.append(float(dec.eigenvalues[0]))
        curve = api.sweep(dec, MATERIAL, WAVELENGTH_MIN, WAVELENGTH_MAX, SWEEP_SAMPLES)
        peak = api.dominant_peak(curve)
        rows.append(CalibrationRow(
            period=float(period),
            peak_wavelength=None if peak is None else peak.wavelength,
            peak_magnitude=None if peak is None else peak.magnitude,
            mode_index=None if peak is None else peak.mode_index,
        ))
    table = CalibrationTable(rows=tuple(rows), radius=inp["radius"], node_count=n,
                             wavelength_min=WAVELENGTH_MIN, wavelength_max=WAVELENGTH_MAX,
                             samples=SWEEP_SAMPLES, material=MATERIAL)
    knots = table.peak_wavelengths()
    lo, hi = np.nanmin(knots), np.nanmax(knots)
    targets = list(knots) + [lo + u * (hi - lo) for u in inp["interior"]]
    inversions = []
    for lam in targets:
        try:
            state = api.invert_peak_to_deformation(
                float(lam), table, r=INVERT_RADIUS_M, N=CAPSULE_PARTICLES,
                delta_phys=CAPSULE_SCALE_M)
        except MetastrainError:
            state = None
        inversions.append((float(lam), state))
    return {"lambda0": lambda0, "table": table, "inversions": inversions}


def calibrate_gate(inp: dict, out: dict) -> tuple[list[str], dict]:
    failed = []
    if max(abs(v - 0.5) for v in out["lambda0"]) > 1e-8:
        failed.append("lambda0_half")
    table = out["table"]
    if not (table.complete() and table.is_monotone()):
        failed.append("table_complete_monotone")
    periods = table.periods()
    knots = table.peak_wavelengths()
    ratios = [None if s is None else s.d / CAPSULE_SCALE_M for _, s in out["inversions"]]
    for period, ratio in zip(periods, ratios[:periods.size]):
        if ratio is None or abs(ratio - period) > 1e-10 * period:
            failed.append("knot_inverts_to_period")
            break
    order = np.argsort(knots)
    for (lam, _), ratio in zip(out["inversions"][periods.size:], ratios[periods.size:]):
        i = int(np.searchsorted(knots[order], lam, side="right")) - 1
        i = min(max(i, 0), periods.size - 2)
        lo, hi = sorted(periods[order][i:i + 2])
        if ratio is None or not lo * (1 - 1e-12) <= ratio <= hi * (1 + 1e-12):
            failed.append("interior_between_knots")
            break
    counts = {
        "resonance_sweep.complete": (sum(r.peak_wavelength is not None for r in table.rows),
                                     len(table.rows)),
        "strain.in_range": (sum(r is not None for r in ratios), len(ratios)),
    }
    return failed, counts


def calibrate_work(inp: dict) -> dict:
    n, periods = NODES["calibrate"], len(inp["periods"])
    return {"layer_ops.entries": 2 * periods * n * n, "spectral.dense_n3": periods * n**3,
            "capsule_scattering.mode_orders": 0}


# ---------------------------------------------------------------------- spectrum

def spectrum_inputs(rng) -> dict:
    radius = rng.uniform(0.35, 0.45)
    period = rng.uniform(1.0, 2.0)
    capsules = [(rng.uniform(0.8e-6, 1.2e-6), rng.uniform(3e-9, 7e-9))
                for _ in range(SPECTRUM_CAPSULES)]
    return {"radius": float(radius), "period": float(period),
            "capsules": [(float(r), float(d)) for r, d in capsules]}


def spectrum_op(api, inp: dict) -> dict:
    cell = api.make_disk_cell(inp["radius"], inp["period"], NODES["spectrum"])
    dec = _decompose(api, cell)
    curves = [api.extinction_spectrum(r, MATERIAL, dec, d, SPECTRUM_WAVELENGTHS)
              for r, d in inp["capsules"]]
    r0, d0 = inp["capsules"][0]
    control = api.extinction_spectrum(r0, MATERIAL, dec, d0, SPECTRUM_WAVELENGTHS,
                                      beta_override=0.0)
    return {"curves": curves, "control": control}


def spectrum_gate(inp: dict, out: dict) -> tuple[list[str], dict]:
    failed = []
    curves = out["curves"] + [out["control"]]
    if not all(np.isfinite(c.extinction).all() and np.isfinite(c.scattering).all()
               for c in curves):
        failed.append("finite")
    if not all(np.all(c.extinction >= c.scattering * (1.0 - 1e-12)) for c in out["curves"]):
        failed.append("extinction_ge_scattering")
    control = out["control"]
    if np.any(control.extinction != 0.0) or np.any(control.scattering != 0.0):
        failed.append("beta_zero_transparent")
    return failed, {}


def spectrum_work(inp: dict) -> dict:
    n = NODES["spectrum"]
    capsules = inp["capsules"] + inp["capsules"][:1]  # the beta = 0 control reuses capsule 0
    orders = 0
    for radius, _ in capsules:
        for lam in SPECTRUM_WAVELENGTHS:
            k = 2.0 * np.pi / lam
            orders += 2 * (int(np.ceil(k * radius)) + 16) + 1
    return {"layer_ops.entries": 2 * n * n, "spectral.dense_n3": n**3,
            "capsule_scattering.mode_orders": orders}


# ------------------------------------------------------------------------- shape

def _max_abs_x(coeffs: np.ndarray) -> float:
    t = np.linspace(0.0, 2.0 * np.pi, 2048, endpoint=False)
    k = np.rint(np.fft.fftfreq(coeffs.size) * coeffs.size)
    return float(np.abs((np.exp(1j * np.outer(t, k)) @ coeffs).real).max())


def shape_inputs(rng) -> dict:
    """Mirror-symmetric curve (real coefficients, FFT order) well inside the strip."""
    while True:
        coeffs = np.zeros(8)
        coeffs[1] = rng.uniform(0.25, 0.4)      # c_1
        coeffs[2] = rng.uniform(-0.015, 0.015)  # c_2
        coeffs[3] = rng.uniform(-0.007, 0.007)  # c_3
        coeffs[7] = rng.uniform(-0.02, 0.02)    # c_-1
        coeffs[6] = rng.uniform(-0.01, 0.01)    # c_-2
        period = rng.uniform(1.0, 1.6)
        if _max_abs_x(coeffs) < period / 2.0 - 0.05:
            return {"coefficients": coeffs.tolist(), "period": float(period)}


def track_mode(base, perturbed, j: int) -> tuple[float, float]:
    """Perturbed eigenvalue whose density overlaps base mode j most in the base Gram metric."""
    phi = base.eigendensities[:, j]
    candidates = perturbed.eigendensities[:, 1:]
    cross = phi @ base.gram @ candidates
    norms = np.sqrt(np.einsum("ij,jk,ki->i", candidates.T, base.gram, candidates))
    overlaps = np.abs(cross) / norms
    k = int(np.argmax(overlaps))
    return float(perturbed.eigenvalues[1 + k]), float(overlaps[k])


def shape_op(api, inp: dict) -> dict:
    cell = api.make_smooth_cell(inp["coefficients"], inp["period"], NODES["shape"])
    dec = _decompose(api, cell)
    j = dec.dominant_mode()
    predicted = api.shape_derivative(dec, cell, j)
    tracked = {}
    for eta in SHAPE_ETAS:
        for sign in (1, -1):
            perturbed = _decompose(api, api.perturb_normal(cell, sign * eta))
            tracked[eta, sign] = api.track_mode(dec, perturbed, j)
    limits = api.alpha_infinity(dec, PROBE_CONTRAST)
    fields = [api.alpha_field(dec, PROBE_CONTRAST, 2, [0.0, h])
              for h in (FAR_FIELD_HEIGHT, -FAR_FIELD_HEIGHT)]
    return {"predicted": predicted, "tracked": tracked, "limits": limits, "fields": fields}


def shape_gate(inp: dict, out: dict) -> tuple[list[str], dict]:
    failed = []
    eta = min(SHAPE_ETAS)
    fd = (out["tracked"][eta, 1][0] - out["tracked"][eta, -1][0]) / (2.0 * eta)
    if not abs(fd - out["predicted"]) <= 1e-3 * abs(fd):
        failed.append("slope_matches_prediction")
    overlaps = [o for _, o in out["tracked"].values()]
    if min(overlaps) < MIN_OVERLAP:
        failed.append("mode_overlap")
    limits = out["limits"]
    far_tol = max(10.0 * math.exp(-2.0 * math.pi * FAR_FIELD_HEIGHT / inp["period"]), 5e-11)
    up = abs(out["fields"][0] - limits.alpha2_plus)
    down = abs(out["fields"][1] - limits.alpha2_minus)
    if not max(up, down) < far_tol:
        failed.append("far_field_limits")
    return failed, {"shape_deriv.tracked": (sum(o >= MIN_OVERLAP for o in overlaps),
                                            len(overlaps))}


def shape_work(inp: dict) -> dict:
    n, cells = NODES["shape"], 1 + 2 * len(SHAPE_ETAS)
    return {"layer_ops.entries": 2 * cells * n * n, "spectral.dense_n3": cells * n**3,
            "capsule_scattering.mode_orders": 0}


WORKLOADS = {
    "calibrate": (calibrate_inputs, calibrate_op, calibrate_gate, calibrate_work),
    "spectrum": (spectrum_inputs, spectrum_op, spectrum_gate, spectrum_work),
    "shape": (shape_inputs, shape_op, shape_gate, shape_work),
}
BENCH_CALLS = {"bench.track_mode": track_mode}
WORK_COUNTS = ("layer_ops.entries", "spectral.dense_n3", "capsule_scattering.mode_orders")


def make_inputs(workload: str, seed: int, index: int) -> dict:
    return WORKLOADS[workload][0](op_rng(workload, seed, index))
