import dataclasses

import numpy as np
import pytest
import scipy.linalg

from metastrain import (
    alpha_field,
    alpha_infinity,
    assemble_np_adjoint,
    assemble_single_layer,
    decompose,
    eigendecompose,
    make_disk_cell,
    make_ellipse_cell,
    make_smooth_cell,
    perturb_normal,
    resolvent_density,
)
from metastrain.errors import DomainError, OutOfRangeError, QuadratureFailure, ResonanceError
from metastrain.validate import off_surface_normal_derivative

PROBE = 0.8  # real contrast comfortably off the spectrum


def test_lambda0_and_containment(disk256_dec):
    lam = disk256_dec.eigenvalues
    assert lam[0] == pytest.approx(0.5, abs=1e-10)
    assert np.all(lam[1:] < 0.5)
    assert np.all(lam[1:] > -0.5)


def test_free_space_disk_spectrum(disk_free_dec):
    assert np.abs(disk_free_dec.eigenvalues[1:]).max() < 1e-3


def test_orthonormality_and_zero_mean(disk256_dec, disk256):
    dens = disk256_dec.eigendensities[:, 1:]
    gram = disk256_dec.gram
    n = disk256.node_count
    assert np.abs(dens.T @ gram @ dens - np.eye(n - 1)).max() < 1e-8
    assert np.abs(disk256.weights @ dens).max() < 1e-8


def test_equilibrium_density(disk256_dec, disk256):
    psi0 = disk256_dec.equilibrium_density
    # unit mass, eigenvalue 1/2, constant single-layer potential
    assert disk256.weights @ psi0 == pytest.approx(1.0, abs=1e-12)
    resid = disk256_dec.np_adjoint @ psi0 - 0.5 * psi0
    assert np.abs(resid).max() < 1e-10
    pot = disk256_dec.single_layer @ psi0
    assert pot.max() - pot.min() < 1e-10


def dense_equilibrium_mode(adjoint, weights):
    """Oracle: the eigenpair of largest real part from a dense eig of K*, at unit mass."""
    vals, vecs = scipy.linalg.eig(adjoint)
    top = int(np.argmax(vals.real))
    psi = np.real(vecs[:, top])
    return vals[top].real, psi / (weights @ psi)


@pytest.mark.parametrize("cell", [
    make_disk_cell(0.45, 1.0, 256),
    make_ellipse_cell(0.35, 0.22, 1.0, 128),
    make_smooth_cell([0.0, 0.3, 0.03 + 0.01j, 0.0, 0.0, 0.0, 0.0, 0.0], 1.2, 128),
], ids=["disk", "ellipse", "fourier"])
def test_equilibrium_mode_matches_dense_eig(cell):
    single, adjoint = assemble_single_layer(cell), assemble_np_adjoint(cell)
    dec = eigendecompose(single, adjoint)
    lam0, psi0 = dense_equilibrium_mode(adjoint.matrix, cell.weights)
    assert abs(dec.eigenvalues[0] - lam0) < 1e-14
    assert np.abs(dec.equilibrium_density - psi0).max() < 1e-12 * np.abs(psi0).max()


def test_eigendecompose_makes_no_dense_eig(monkeypatch):
    calls = []

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return wrapper

    for module, name in ((scipy.linalg, "eig"), (scipy.linalg, "null_space"),
                         (np.linalg, "eig")):
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    cell = make_disk_cell(0.45, 1.0, 64)
    eigendecompose(assemble_single_layer(cell), assemble_np_adjoint(cell))
    assert calls == []


def _synthetic_adjoint(cell, kind):
    n = cell.node_count
    if kind == "complex_pair":
        # eigenvalues 1/2 +- 0.1i only: inverse iteration from a real start
        # vector cannot converge to a real eigenvector
        rot = np.kron(np.eye(n // 2), np.array([[0.0, 1.0], [-1.0, 0.0]]))
        return 0.5 * np.eye(n) + 0.1 * rot
    # rank one with eigenvalue 1/2 on a zero-mean density; the left vector
    # overlaps the constant start vector of the inverse iteration
    v = np.cos(cell.t)
    v -= (cell.weights @ v) / cell.weights.sum()
    left = v + 1.0
    return 0.5 * np.outer(v, left) / (left @ v)


@pytest.mark.parametrize("kind, message", [("complex_pair", "did not converge"),
                                           ("zero_mass", "zero mass")],
                         ids=["complex_pair", "zero_mass"])
def test_unresolved_equilibrium_mode_reported(kind, message):
    cell = make_disk_cell(0.45, 1.0, 32)
    single = assemble_single_layer(cell)
    broken = dataclasses.replace(assemble_np_adjoint(cell), matrix=_synthetic_adjoint(cell, kind))
    with pytest.raises(QuadratureFailure, match=message):
        eigendecompose(single, broken)


def test_moments_of_equilibrium_vanish(disk256_dec):
    assert abs(disk256_dec.moments_nu1[0]) < 1e-8
    assert abs(disk256_dec.moments_nu2[0]) < 1e-8


def test_eigenvalue_ladder_vs_period():
    # near-touching particles are farthest from the free-space limit: the
    # leading eigenvalue magnitudes decrease elementwise as the period grows
    ladders = []
    for L in (1.0, 1.25, 1.5, 2.0):
        dec = decompose(make_disk_cell(0.45, L, 96))
        ladders.append(np.sort(np.abs(dec.eigenvalues[1:]))[::-1][:6])
    assert np.all(np.diff(np.array(ladders), axis=0) < 0)


def test_moment_identity(disk256_dec, disk256):
    # (1/2 - lam_j) <phi_j, zeta2>_dual = <phi_j, nu2>_Hstar
    w = disk256.weights
    z2 = disk256.nodes[:, 1]
    for j in range(1, 11):
        lhs = (0.5 - disk256_dec.eigenvalues[j]) * (w @ (disk256_dec.eigendensities[:, j] * z2))
        assert lhs == pytest.approx(disk256_dec.moments_nu2[j], abs=1e-6)


def test_gram_failure_reported(disk256_ops):
    single, adjoint = disk256_ops
    # flipping the sign of S makes the Gram negative definite
    broken = dataclasses.replace(single, matrix=-single.matrix)
    with pytest.raises(QuadratureFailure):
        eigendecompose(broken, adjoint)


def _reference_entries(densities):
    # lowest-index entry within 1e-8 relative of the column's largest |v|
    mag = np.abs(densities)
    rows = np.argmax(mag >= (1.0 - 1e-8) * mag.max(axis=0), axis=0)
    return densities[rows, np.arange(densities.shape[1])]


def test_eigenvector_reference_entries_positive(disk256_dec):
    assert np.all(_reference_entries(disk256_dec.eigendensities[:, 1:]) > 0.0)


def test_eigenvector_signs_survive_round_off(disk256_dec, disk256_ops):
    # the disk is mirror symmetric, so the largest |v| of many modes is tied
    # between mirrored nodes; a one-ulp rescaling of S must not flip any sign
    single, adjoint = disk256_ops
    scaled = dataclasses.replace(single, matrix=single.matrix * (1.0 + 2.0**-52))
    v1 = disk256_dec.eigendensities[:, 1:]
    v2 = eigendecompose(scaled, adjoint).eigendensities[:, 1:]
    assert np.all(_reference_entries(v2) > 0.0)
    # modes in the round-off cluster (|lambda| ~ 1e-17) are not determined by
    # the matrices; compare the ones whose magnitudes the rescaling leaves alone
    determined = np.abs(np.abs(v1) - np.abs(v2)).max(axis=0) <= 1e-10 * np.abs(v1).max(axis=0)
    assert determined.sum() >= 30
    assert np.all(np.sum(v1 * v2, axis=0)[determined] > 0.0)


def test_alpha_infinity_sign_relations(disk256_dec):
    lims = alpha_infinity(disk256_dec, PROBE)
    assert lims.alpha2_plus == -lims.alpha2_minus
    assert lims.alpha1_plus == -lims.alpha1_minus
    # up-down symmetric disk: first-component limits vanish
    assert abs(lims.alpha1_plus) < 1e-8
    # real contrast off the spectrum gives a real limit
    assert lims.alpha2_plus.imag == 0.0


def test_alpha1_vanishes_for_mirror_symmetric_ellipse(ellipse128_dec):
    # nu1 and nu2 moments live on disjoint mirror-symmetry classes, so the
    # cross sum for the first corrector vanishes for any up-down symmetric cell
    lims = alpha_infinity(ellipse128_dec, PROBE)
    assert abs(lims.alpha1_plus) < 1e-8


def test_alpha_infinity_large_contrast_decay(disk256_dec):
    lims1 = alpha_infinity(disk256_dec, 1e4)
    lims2 = alpha_infinity(disk256_dec, 2e4)
    assert abs(lims1.alpha2_plus) < 1e-3
    assert abs(lims2.alpha2_plus) == pytest.approx(abs(lims1.alpha2_plus) / 2, rel=1e-3)


def test_alpha_infinity_pole_structure(disk256_dec):
    j = disk256_dec.dominant_mode()
    lam_j = disk256_dec.eigenvalues[j]
    values = [abs(alpha_infinity(disk256_dec, lam_j + 1j * eps).alpha2_plus)
              for eps in (1e-3, 1e-4, 1e-5)]
    assert values[1] == pytest.approx(10 * values[0], rel=0.05)
    assert values[2] == pytest.approx(100 * values[0], rel=0.05)


def test_alpha_infinity_pole_error(disk256_dec):
    j = disk256_dec.dominant_mode()
    with pytest.raises(ResonanceError) as info:
        alpha_infinity(disk256_dec, disk256_dec.eigenvalues[j])
    assert info.value.mode_index == j


def test_alpha_infinity_scale_consistency():
    # scaling cell and period together keeps eigenvalues and multiplies the
    # far-field limit by the scale factor
    s = 1.7
    dec1 = decompose(make_disk_cell(0.45, 1.0, 96))
    dec2 = decompose(make_disk_cell(0.45 * s, s, 96))
    assert np.abs(np.sort(dec1.eigenvalues) - np.sort(dec2.eigenvalues)).max() < 1e-12
    a1 = alpha_infinity(dec1, PROBE).alpha2_plus
    a2 = alpha_infinity(dec2, PROBE).alpha2_plus
    assert a2 / a1 == pytest.approx(s, rel=1e-12)


def test_resolvent_zero_mean_and_expansion(disk256_dec, disk256):
    rhs = disk256.normals[:, 1]
    psi = resolvent_density(disk256_dec, PROBE, rhs)
    assert abs(disk256.weights @ psi) < 1e-8
    # oracle: eigen-expansion of the same resolvent
    recon = np.zeros_like(psi)
    for j in range(1, disk256_dec.mode_count):
        recon = recon + (disk256_dec.moments_nu2[j]
                         / (PROBE - disk256_dec.eigenvalues[j])) * disk256_dec.eigendensities[:, j]
    assert np.abs(psi - recon).max() < 1e-6


def test_resolvent_neumann_limit(disk256_dec, disk256):
    rhs = disk256.normals[:, 1]
    lam = 1e8
    psi = resolvent_density(disk256_dec, lam, rhs)
    assert np.allclose(lam * psi, rhs, atol=1e-7)


def test_resolvent_pole_error(disk256_dec, disk256):
    j = disk256_dec.dominant_mode()
    with pytest.raises(ResonanceError):
        resolvent_density(disk256_dec, disk256_dec.eigenvalues[j], disk256.normals[:, 1])


def test_alpha_field_far_limits(disk256_dec):
    lims = alpha_infinity(disk256_dec, PROBE)
    L = disk256_dec.cell.period_ratio
    tol = max(10 * np.exp(-2 * np.pi * 8.0 / L), 5e-11)
    up = alpha_field(disk256_dec, PROBE, 2, [0.0, 8.0])
    down = alpha_field(disk256_dec, PROBE, 2, [0.0, -8.0])
    assert abs(up - lims.alpha2_plus) < tol
    assert abs(down - lims.alpha2_minus) < tol
    # symmetric disk: the first corrector tends to zero above the grating
    assert abs(alpha_field(disk256_dec, PROBE, 1, [0.0, 8.0])) < 1e-10


def test_alpha_field_exponential_approach(disk256_dec):
    lims = alpha_infinity(disk256_dec, PROBE)
    L = disk256_dec.cell.period_ratio
    ts = np.array([1.2, 1.5, 1.8, 2.1])
    gaps = np.array([abs(alpha_field(disk256_dec, PROBE, 2, [0.0, t]) - lims.alpha2_plus)
                     for t in ts])
    rate = -np.polyfit(ts, np.log(gaps), 1)[0]
    assert rate == pytest.approx(2 * np.pi / L, rel=0.05)


def test_alpha_field_jump_condition(disk256_dec, disk256):
    # third transmission condition of the cell problem, measured off-surface:
    # (1/mu_m) d(alpha)/dnu|+ - (1/mu_c) d(alpha)/dnu|- = (1/mu_c - 1/mu_m) nu_l
    mu_m, mu_c = 2.0, -0.4
    lam = (mu_m + mu_c) / (2 * (mu_m - mu_c))
    psi = resolvent_density(disk256_dec, lam, disk256.normals[:, 1])
    node = 40
    d_plus = off_surface_normal_derivative(disk256, psi, node, +1)
    d_minus = off_surface_normal_derivative(disk256, psi, node, -1)
    lhs = d_plus / mu_m - d_minus / mu_c
    rhs = (1 / mu_c - 1 / mu_m) * disk256.normals[node, 1]
    assert lhs == pytest.approx(rhs, abs=1e-6)


def test_alpha_field_batch_matches_scalar(disk256_dec):
    from metastrain.spectral import alpha2_plus_batch

    lams = np.array([0.7 + 0.02j, 1.3 + 0.5j])
    batch = alpha2_plus_batch(disk256_dec, lams)
    # one mode-sum code path: the scalar and batched values agree bit for bit
    for lam, value in zip(lams, batch):
        assert alpha_infinity(disk256_dec, lam).alpha2_plus == value


def complex_mode_sums(decomposition, lams, moments):
    """-(1/2L) sum_j m_j <phi_j, nu2> / ((lam - lam_j)(1/2 - lam_j)) in complex arithmetic.

    The oracle for the real mode sums; also returns sum_j |term_j| / 2L, the
    scale of the round-off of any order of summation.
    """
    lam = np.asarray(lams, dtype=complex)[:, None]
    lj = decomposition.eigenvalues[None, 1:]
    terms = (moments[None, 1:] * decomposition.moments_nu2[None, 1:]
             / ((lam - lj) * (0.5 - lj)) / (2.0 * decomposition.cell.period_ratio))
    return -terms.sum(axis=1), np.abs(terms).sum(axis=1)


@pytest.mark.parametrize("make_cell", [
    lambda: make_disk_cell(0.45, 1.0, 256),
    lambda: make_ellipse_cell(0.35, 0.22, 1.0, 128),
    lambda: make_smooth_cell([0.0, 0.3, 0.03 + 0.01j, 0.0, 0.0, 0.0, 0.0, 0.0], 1.2, 128),
], ids=["disk", "ellipse", "fourier"])
def test_real_mode_sums_match_complex_formula(make_cell, water_gold):
    from metastrain.dispersion import contrast_values, omega_from_wavelength
    from metastrain.spectral import _mode_sums

    dec = decompose(make_cell())
    omegas = omega_from_wavelength(np.linspace(6.5e-7, 1.7e-6, 400), water_gold)
    lams = np.concatenate([contrast_values(omegas, water_gold),
                           [PROBE, -0.3, 3.0, 0.7 + 0.02j, -2.0 + 1e-3j, 1e3 + 1e3j]])
    for moments in (dec.moments_nu2, dec.moments_nu1):
        expected, scale = complex_mode_sums(dec, lams, moments)
        # on a mirrored cell every term of the nu1 cross sum is exactly 0, and so is its scale
        assert np.all(np.abs(_mode_sums(dec, lams, moments) - expected) <= 1e-14 * scale)
    expected, _ = complex_mode_sums(dec, lams, dec.moments_nu2)
    assert np.max(np.abs(_mode_sums(dec, lams, dec.moments_nu2) - expected)
                  / np.abs(expected)) < 1e-14


def default_window(material, samples=400):
    from metastrain.dispersion import contrast_values, omega_from_wavelength

    return contrast_values(omega_from_wavelength(np.linspace(6.5e-7, 1.7e-6, samples),
                                                 material), material)


@pytest.mark.parametrize("make_cell", [
    lambda: make_disk_cell(0.45, 1.0, 256),
    lambda: make_ellipse_cell(0.35, 0.22, 1.0, 128),
    lambda: make_smooth_cell([0.0, 0.3, 0.03 + 0.01j, 0.0, 0.0, 0.0, 0.0, 0.0], 1.2, 128),
    lambda: make_disk_cell(0.45, 0.92, 256),
], ids=["disk", "ellipse", "fourier", "gap_0.02"])
def test_gauss_rule_alpha2_matches_complex_formula(make_cell, water_gold):
    from metastrain.spectral import alpha2_plus_batch

    dec = decompose(make_cell())
    j = dec.dominant_mode()
    # the last two sit 1e-7 from the dominant pole and 1e-5 from the round-off
    # cluster, where a node one ulp off would show unless the rounding test
    # sends them to the full sum
    lams = np.concatenate([default_window(water_gold),
                           [PROBE, -0.3, 3.0, 0.7 + 0.02j, -2.0 + 1e-3j, 1e3 + 1e3j, 1e4,
                            dec.eigenvalues[j] + 1e-7j, 1e-5j]])
    expected, _ = complex_mode_sums(dec, lams, dec.moments_nu2)
    assert np.max(np.abs(alpha2_plus_batch(dec, lams) - expected) / np.abs(expected)) < 1e-14


def test_gauss_rule_nodes_on_default_window(disk256_dec, water_gold):
    from metastrain.spectral import _nu2_sums

    _, sizes = _nu2_sums(disk256_dec, default_window(water_gold))
    assert sizes.max() <= 10  # of 255 modes, for every one of the 400 contrasts


def test_gauss_rule_fallback_inside_hull_is_the_full_sum(disk256_dec):
    from metastrain.spectral import _mode_sums, _nu2_sums, alpha2_plus_batch

    lo, hi = disk256_dec.nu2_gauss_rule.hull
    lams = np.array([0.5 * (lo + hi) + 1e-3, 0.9 * lo, 0.9 * hi])
    _, sizes = _nu2_sums(disk256_dec, lams)
    assert np.all(sizes == disk256_dec.mode_count - 1)
    full = _mode_sums(disk256_dec, lams, disk256_dec.moments_nu2)
    assert np.array_equal(alpha2_plus_batch(disk256_dec, lams), full)


def test_gauss_rule_scalar_and_batch_identical(disk256_dec, water_gold):
    from metastrain.spectral import alpha2_plus_batch

    lams = default_window(water_gold)
    batch = alpha2_plus_batch(disk256_dec, lams)
    assert all(alpha_infinity(disk256_dec, lam).alpha2_plus == value
               for lam, value in zip(lams, batch))


def test_mode_above_one_half_reported():
    # n = 256 does not resolve a gap of 0.005: one zero-mean eigenvalue is 0.512
    dec = decompose(make_disk_cell(0.45, 0.905, 256))
    with pytest.raises(QuadratureFailure, match=r"lambda_1 = 0\.51"):
        alpha_infinity(dec, PROBE)


def test_mismatched_cells_rejected(disk256_ops):
    single, _ = disk256_ops
    other = decompose(make_disk_cell(0.45, 1.0, 128))
    bad_adjoint = assemble_np_adjoint(other.cell)
    with pytest.raises(DomainError):
        eigendecompose(single, bad_adjoint)
    with pytest.raises(DomainError, match="component"):
        alpha_field(other, PROBE, 3, [0.0, 2.0])


# ------------------------------------------------------------ mirror sectors

# a mirror-symmetric curve in the range of the benchmark's shape workload
BENCH_CURVE = [0.0, 0.33, 0.012, -0.006, 0.0, 0.0, 0.008, -0.015]


@pytest.fixture
def eigh_sizes(monkeypatch):
    """Orders of the generalized eigh calls made while the test runs."""
    sizes = []
    original = scipy.linalg.eigh

    def recorded(a, b=None, **kwargs):
        sizes.append(a.shape[0])
        return original(a, b, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh", recorded)
    return sizes


def shifted_origin(cell):
    """The same curve with its parameter origin moved by one node: c_k -> c_k exp(2 pi i k / n).

    The node set is the same, but node j no longer mirrors to node -j, so the
    decomposition takes the whole-space path: the oracle for the sector path.
    """
    coeffs = cell.parametrization.coefficients
    k = np.rint(np.fft.fftfreq(coeffs.size) * coeffs.size)
    return make_smooth_cell(coeffs * np.exp(2j * np.pi * k / cell.node_count),
                            cell.period_ratio, cell.node_count)


MIRRORED_CELLS = {
    "disk": lambda: make_disk_cell(0.45, 1.0, 256),
    "ellipse": lambda: make_ellipse_cell(0.35, 0.22, 1.0, 128),
    "fourier": lambda: make_smooth_cell(BENCH_CURVE, 1.3, 128),
    "fourier+1e-2": lambda: perturb_normal(make_smooth_cell(BENCH_CURVE, 1.3, 128), 1e-2),
    "fourier-1e-2": lambda: perturb_normal(make_smooth_cell(BENCH_CURVE, 1.3, 128), -1e-2),
    "fourier+1e-3": lambda: perturb_normal(make_smooth_cell(BENCH_CURVE, 1.3, 128), 1e-3),
    "fourier-1e-3": lambda: perturb_normal(make_smooth_cell(BENCH_CURVE, 1.3, 128), -1e-3),
    "gap_0.01_n512": lambda: make_disk_cell(0.45, 0.91, 512),
    # mirrored about the vertical line through node 0: nu1 odd, nu2 even
    "disk_node0_on_top": lambda: make_smooth_cell([0.0, 0.45j, 0.0], 1.0, 256),
    "fourier_left_right": lambda: make_smooth_cell(1j * np.array(BENCH_CURVE), 1.3, 128),
}


@pytest.mark.parametrize("make_cell", MIRRORED_CELLS.values(), ids=MIRRORED_CELLS.keys())
def test_mirror_sectors_match_whole_space_oracle(make_cell, water_gold, eigh_sizes):
    from metastrain.spectral import alpha2_plus_batch

    cell = make_cell()
    n = cell.node_count
    dec = decompose(cell)
    assert eigh_sizes == [n // 2, n // 2 - 1]
    oracle = decompose(shifted_origin(cell))
    assert eigh_sizes[2:] == [n - 1]
    radius = np.abs(oracle.eigenvalues).max()
    assert np.abs(dec.eigenvalues - oracle.eigenvalues).max() <= 1e-13 * radius
    lams = default_window(water_gold)
    expected = alpha2_plus_batch(oracle, lams)
    assert np.max(np.abs(alpha2_plus_batch(dec, lams) - expected) / np.abs(expected)) <= 1e-13
    j = oracle.dominant_mode()
    assert dec.dominant_mode() == j
    assert dec.eigenvalues[j] == pytest.approx(oracle.eigenvalues[j], rel=1e-13)
    assert abs(dec.moments_nu2[j]) == pytest.approx(abs(oracle.moments_nu2[j]), rel=1e-13)


@pytest.mark.parametrize("coefficient, empty_on_even, empty_on_odd", [
    (0.45, "moments_nu2", "moments_nu1"),
    (0.45j, "moments_nu1", "moments_nu2"),
], ids=["parallel_to_grating", "normal_to_grating"])
def test_mirror_sectors_give_parity_exact_moments(coefficient, empty_on_even, empty_on_odd,
                                                  eigh_sizes):
    # node 0 on the right, the mirror j -> -j is xi2 -> -xi2: the equilibrium
    # mode and the 128 even zero-mean modes carry no nu2 moment, the 127 odd
    # ones no nu1 moment; node 0 on top (xi1 -> -xi1) the other way round.
    # Exact zeros, not round-off
    dec = decompose(make_smooth_cell([0.0, coefficient, 0.0], 1.0, 256))
    n = dec.mode_count
    assert eigh_sizes == [n // 2, n // 2 - 1]
    even = getattr(dec, empty_on_even) == 0.0
    assert even.sum() == n // 2 + 1 and even[0]
    assert np.array_equal(getattr(dec, empty_on_odd) == 0.0, ~even)
    dens = dec.eigendensities
    mirrored = dens[(-np.arange(n)) % n]
    assert np.array_equal(mirrored[:, even], dens[:, even])
    assert np.array_equal(mirrored[:, ~even], -dens[:, ~even])


def test_asymmetric_cell_takes_the_whole_space(eigh_sizes):
    cell = make_smooth_cell([0.0, 0.3, 0.03 + 0.01j, 0.0, 0.0, 0.0, 0.0, 0.0], 1.2, 128)
    dec = decompose(cell)
    assert eigh_sizes == [127]
    assert np.all(dec.moments_nu2[1:] != 0.0)


@pytest.mark.parametrize("parity", [1, -1], ids=["even", "odd"])
def test_gram_failure_in_one_sector_reported(parity, eigh_sizes):
    # a mirror-invariant rank-one update along (e_1 +- e_{n-1}) / sqrt 2 that
    # makes the Gram matrix indefinite in that sector only
    cell = make_disk_cell(0.45, 1.0, 64)
    n = cell.node_count
    single, adjoint = assemble_single_layer(cell), assemble_np_adjoint(cell)
    gram = -(cell.weights[:, None] * single.matrix)
    u = np.zeros(n)
    u[1], u[n - 1] = np.sqrt(0.5), parity * np.sqrt(0.5)
    gram = gram - 1e3 * np.abs(gram).max() * np.outer(u, u)
    broken = dataclasses.replace(single, matrix=-gram / cell.weights[:, None])
    with pytest.raises(QuadratureFailure, match="not positive definite"):
        eigendecompose(broken, adjoint)
    assert eigh_sizes == ([n // 2] if parity > 0 else [n // 2, n // 2 - 1])


# ------------------------------------------------------------ memory guard

@pytest.mark.parametrize("node_count, samples, need", [
    (256, 0, 8 * 10 * 256**2),
    (256, 400, 8 * (10 * 256**2 + 4 * 400 * 255)),
], ids=["nodes", "nodes_and_samples"])
def test_working_set_estimate_is_the_budget_edge(monkeypatch, node_count, samples, need):
    from metastrain import spectral

    monkeypatch.setattr(spectral, "_WORKING_SET_BYTES_MAX", need)
    spectral.check_working_set(node_count, samples)
    monkeypatch.setattr(spectral, "_WORKING_SET_BYTES_MAX", need - 1)
    with pytest.raises(OutOfRangeError):
        spectral.check_working_set(node_count, samples)


def test_working_set_negative_count_left_to_node_check(monkeypatch):
    from metastrain import spectral

    monkeypatch.setattr(spectral, "_WORKING_SET_BYTES_MAX", 0)
    spectral.check_working_set(-10**6)


@pytest.mark.parametrize("node_count, samples", [(8192, 0), (10**6, 0), (256, 10**9), (10**400, 0)],
                         ids=["n8192", "n1e6", "samples1e9", "n1e400"])
def test_working_set_over_budget_refused(node_count, samples):
    from metastrain.spectral import check_working_set

    with pytest.raises(OutOfRangeError, match="would need about .* GiB"):
        check_working_set(node_count, samples)


def test_working_set_of_supported_runs_accepted():
    from metastrain.spectral import check_working_set

    for node_count, samples in ((1024, 400), (4096, 1000), (256, 10**5)):
        check_working_set(node_count, samples)


def test_decompose_refuses_before_assembly(monkeypatch):
    from metastrain import spectral

    def no_assembly(cell):
        raise AssertionError("assembled a cell over the byte budget")

    monkeypatch.setattr(spectral, "_WORKING_SET_BYTES_MAX", 8 * 10 * 64**2 - 1)
    monkeypatch.setattr(spectral, "assemble_single_layer", no_assembly)
    with pytest.raises(OutOfRangeError):
        decompose(make_disk_cell(0.45, 1.0, 64))
