"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts.
"""

import time

import numpy as np
import pytest

from metastrain import (
    alpha_field,
    alpha_infinity,
    assemble_np_adjoint,
    assemble_single_layer,
    decompose,
    extinction_spectrum,
    invert_peak_to_deformation,
    make_disk_cell,
    make_ellipse_cell,
    peak_vs_period,
)
from metastrain.dispersion import (
    MaterialParams,
    contrast_values,
    omega_from_wavelength,
    resonance_radicand,
)
from metastrain.shape_deriv import validate_shape_derivative
from metastrain.spectral import alpha2_plus_batch
from metastrain.strain import CapsuleState, axes_from_perimeter
from metastrain.validate import off_surface_normal_derivative, run_validation

from curve_oracles import perimeter
from modal_oracle import ModalSolution
from test_strain import stretch_ratio

GRATING_PERIODS = (1.0, 1.25, 1.5, 1.75, 2.0)
WINDOW = (6.5e-7, 1.7e-6)
SAMPLES = 400


def report(criterion, passed, detail):
    print(f"[criterion {criterion}] {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, detail


@pytest.fixture(scope="module")
def material():
    return MaterialParams.from_relative(
        eps_m_rel=1.77**2, omega_p=2.0e15, collision_time=1.0e-14,
        plasma_frequency_is_angular=True,
    )


@pytest.fixture(scope="module")
def period_tables(material):
    t0 = time.perf_counter()
    table256 = peak_vs_period(0.45, GRATING_PERIODS, material, *WINDOW,
                              samples=SAMPLES, node_count=256)
    elapsed = time.perf_counter() - t0
    table128 = peak_vs_period(0.45, GRATING_PERIODS, material, *WINDOW,
                              samples=SAMPLES, node_count=128)
    return table256, table128, elapsed


def test_criterion_1_operator_identities():
    t0 = time.perf_counter()
    cell = make_disk_cell(0.45, 1.0, 256)
    single = assemble_single_layer(cell)
    adjoint = assemble_np_adjoint(cell)
    w = cell.weights
    K = adjoint.matrix.T * (w[None, :] / w[:, None])
    sw = np.sqrt(w)
    resid = K @ single.matrix - single.matrix @ adjoint.matrix
    calderon = float(np.linalg.norm((sw[:, None] * resid) / sw[None, :], 2))
    k_one = float(np.abs(K @ np.ones(256) - 0.5).max())

    phi = cell.normals[:, 1]
    plus = (0.5 * np.eye(256) + adjoint.matrix) @ phi
    minus = (-0.5 * np.eye(256) + adjoint.matrix) @ phi
    trace = 0.0
    for node in (17, 171):
        fd_plus = off_surface_normal_derivative(cell, phi, node, +1)
        fd_minus = off_surface_normal_derivative(cell, phi, node, -1)
        trace = max(trace, abs(fd_plus - plus[node]), abs(fd_minus - minus[node]),
                    abs((fd_plus - fd_minus) - phi[node]))
    elapsed = time.perf_counter() - t0
    ok = calderon < 1e-8 and k_one < 1e-8 and trace < 1e-6 and elapsed < 10.0
    report(1, ok, f"Calderon={calderon:.2e} (<1e-8), K[1]-1/2={k_one:.2e} (<1e-8), "
                  f"trace FD={trace:.2e} (<1e-6), runtime={elapsed:.1f}s (<10s)")


def test_criterion_2_spectrum_containment(disk256_dec, disk_free_dec):
    lam = disk256_dec.eigenvalues
    contain = bool(lam.max() <= 0.5 + 1e-6 and lam.min() >= -0.5 - 1e-6)
    lam0 = abs(lam[0] - 0.5)
    free = float(np.abs(disk_free_dec.eigenvalues[1:]).max())
    ok = contain and lam0 < 1e-8 and free < 1e-3
    report(2, ok, f"containment={contain}, |lam0-1/2|={lam0:.2e} (<1e-8), "
                  f"free-space |lam_j|max={free:.2e} (<1e-3)")


def test_criterion_3_boundary_layer_limits(disk256_dec, disk256):
    lam = 0.8
    lims = alpha_infinity(disk256_dec, lam)
    a1 = abs(lims.alpha1_plus)
    anti = abs(lims.alpha2_plus + lims.alpha2_minus)
    L = disk256.period_ratio
    # the nominal exp(-2*pi*8/L) bound is below double precision at L = 1,
    # so the check floors at the quadrature precision 5e-11
    tol = max(10.0 * np.exp(-2.0 * np.pi * 8.0 / L), 5e-11)
    up = abs(alpha_field(disk256_dec, lam, 2, [0.0, 8.0]) - lims.alpha2_plus)
    down = abs(alpha_field(disk256_dec, lam, 2, [0.0, -8.0]) - lims.alpha2_minus)
    w = disk256.weights
    z2 = disk256.nodes[:, 1]
    moment = 0.0
    for j in range(1, 11):
        lhs = (0.5 - disk256_dec.eigenvalues[j]) * (w @ (disk256_dec.eigendensities[:, j] * z2))
        moment = max(moment, abs(lhs - disk256_dec.moments_nu2[j]))
    ok = a1 < 1e-8 and anti == 0.0 and up < tol and down < tol and moment < 1e-6
    report(3, ok, f"|alpha1+|={a1:.2e} (<1e-8), antisymmetry={anti:.1e} (exact), "
                  f"far-field gaps=({up:.1e},{down:.1e}) (<{tol:.0e}), "
                  f"moment identity={moment:.2e} (<1e-6)")


def test_criterion_4_resonance_structure(period_tables, material):
    table256, _, elapsed = period_tables
    complete = table256.complete()
    lams = table256.peak_wavelengths()
    monotone = bool(np.all(np.diff(lams) < 0) or np.all(np.diff(lams) > 0))
    width = 0.5 / material.collision_time
    worst = 0.0
    for row in table256.rows:
        dec = decompose(make_disk_cell(0.45, row.period, 256))
        lam_j = dec.eigenvalues[dec.dominant_mode()]
        omega_pred = np.sqrt(resonance_radicand(lam_j, material))
        omega_peak = omega_from_wavelength(row.peak_wavelength, material)
        worst = max(worst, abs(omega_pred - omega_peak))
    ok = complete and monotone and worst < width and elapsed < 120.0
    report(4, ok, f"five peaks={complete}, strictly monotone={monotone}, "
                  f"max |omega_peak-omega_pred|={worst:.2e} (< damping width {width:.1e}), "
                  f"runtime={elapsed:.1f}s (<120s)")


def test_criterion_5_strain_pipeline(material):
    r_unit = 1e-6
    stretch = stretch_ratio(r_unit, 3 * r_unit)
    stretch_ok = abs(stretch - 2.13) <= 0.005

    round_trip = 0.0
    for L1 in np.linspace(r_unit, 5 * r_unit, 9):
        P = perimeter(L1, r_unit**2 / L1)
        L1_back, _ = axes_from_perimeter(r_unit, P)
        round_trip = max(round_trip, abs(L1_back - L1) / r_unit)

    delta = 5e-9
    N = 1256
    r = 0.995 * N * 1.2 * delta / (2 * np.pi)
    periods = np.linspace(1.2, 2.0, 9)
    window = (7.5e-7, 1.1e-6)
    table = peak_vs_period(0.45, periods, material, *window, samples=600, node_count=96)
    probe = peak_vs_period(0.45, [1.55], material, *window, samples=600, node_count=96)
    state = invert_peak_to_deformation(probe.rows[0].peak_wavelength, table,
                                       r=r, N=N, delta_phys=delta)
    expected = CapsuleState(r, N, N * 1.55 * delta)
    d_err = abs(state.D - expected.D)
    ok = stretch_ok and round_trip < 1e-10 and d_err < 1e-3
    report(5, ok, f"stretch={stretch:.4f} (2.13+-0.005), axes round trip={round_trip:.1e} "
                  f"(<1e-10), forward-inverse D error={d_err:.2e} (<1e-3)")


def test_criterion_6_capsule_scattering(disk128_dec, material):
    r = 1e-6
    lams = np.linspace(*WINDOW, SAMPLES)
    clear = extinction_spectrum(r, material, disk128_dec, 5e-9, lams, beta_override=0.0)
    transparency = float(max(np.abs(clear.extinction).max(), np.abs(clear.scattering).max()))
    lossless = extinction_spectrum(r, material, disk128_dec, 5e-9, lams, beta_override=2.5e-9)
    balance = float(np.max(np.abs(lossless.extinction - lossless.scattering)
                           / np.maximum(np.abs(lossless.extinction), 1e-300)))

    # boundary conditions of the per-mode solution the spectrum sums
    bc = max(ModalSolution(r, 2 * np.pi / 7e-7, (3 + 2j) * 1e-9).boundary_residuals())

    omegas = omega_from_wavelength(lams, material)
    alpha_mag = np.abs(alpha2_plus_batch(disk128_dec, contrast_values(omegas, material)))
    curve = extinction_spectrum(9.9e-7, material, disk128_dec, 5e-9, lams)
    steps = abs(int(np.argmax(curve.extinction)) - int(np.argmax(alpha_mag)))

    ok = transparency < 1e-12 and bc < 1e-10 and balance < 1e-8 and steps <= 1
    report(6, ok, f"transparency={transparency:.1e} (<1e-12), BC residual={bc:.1e} (<1e-10), "
                  f"lossless ext-sca rel={balance:.1e} (<1e-8), peak offset={steps} steps (<=1)")


def test_criterion_7_shape_derivative():
    dec = decompose(make_ellipse_cell(0.35, 0.22, 1.0, 128))
    rep = validate_shape_derivative(dec, dec.dominant_mode(), [1e-2, 1e-3, 1e-4])
    errors = np.abs(rep.fd_slopes - rep.predicted_slope)
    decreasing = bool(np.all(np.diff(errors) < 0))
    exponent = float(np.polyfit(np.log(rep.eta_ladder), np.log(errors), 1)[0])
    validate_lines = run_validation(make_disk_cell(0.45, 1.0, 64))
    line = next(r for r in validate_lines if r.name == "shape_derivative")
    ok = rep.converging and decreasing and exponent >= 0.9 and line.passed
    report(7, ok, f"converging={rep.converging}, errors decreasing={decreasing}, "
                  f"fit exponent={exponent:.2f} (>=0.9), passed in validate report={line.passed}")


def test_criterion_8_convergence(period_tables):
    table256, table128, _ = period_tables
    peak_change = float(np.abs(table128.peak_wavelengths() - table256.peak_wavelengths()).max()
                        / table256.peak_wavelengths().max())
    dec128 = decompose(make_disk_cell(0.45, 1.0, 128))
    dec256 = decompose(make_disk_cell(0.45, 1.0, 256))
    lam128 = dec128.eigenvalues[dec128.dominant_mode()]
    lam256 = dec256.eigenvalues[dec256.dominant_mode()]
    lam_change = abs(lam128 - lam256) / abs(lam256)
    ok = peak_change < 1e-6 and lam_change < 1e-6
    report(8, ok, f"peak wavelength rel change={peak_change:.2e} (<1e-6), "
                  f"dominant eigenvalue rel change={lam_change:.2e} (<1e-6)")
