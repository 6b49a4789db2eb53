import dataclasses

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from metastrain import (
    BoundaryOperator,
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
from metastrain.errors import DomainError, OutOfRangeError, QuadratureFailure
from metastrain.validate import off_surface_normal_derivative

import allocating_kernels

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
    v = np.cos(2.0 * np.pi * np.arange(n) / n)
    v -= (cell.weights @ v) / cell.weights.sum()
    left = v + 1.0
    return 0.5 * np.outer(v, left) / (left @ v)


@pytest.mark.parametrize("kind, message", [("complex_pair", "did not converge"),
                                           ("zero_mass", "zero mass")],
                         ids=["complex_pair", "zero_mass"])
def test_unresolved_equilibrium_mode_reported(kind, message):
    # the synthetic K* commutes with no mirror: both operators are taken
    # on the whole space
    cell = make_disk_cell(0.45, 1.0, 32)
    single = BoundaryOperator(assemble_single_layer(cell).matrix, cell)
    broken = BoundaryOperator(_synthetic_adjoint(cell, kind), cell)
    with pytest.raises(QuadratureFailure, match=message):
        eigendecompose(single, broken)


def test_singular_shifted_block_is_a_quadrature_failure(disk256_ops):
    # K* = (1/2 + shift) I makes the inverse iteration's shifted block exactly
    # singular: one QuadratureFailure, neither a LinAlgError nor a warning
    from metastrain.spectral import _EQUILIBRIUM_SHIFT

    single, _ = disk256_ops
    cell = single.cell
    adjoint = BoundaryOperator((0.5 + _EQUILIBRIUM_SHIFT) * np.eye(cell.node_count), cell)
    with pytest.raises(QuadratureFailure, match="singular"):
        eigendecompose(BoundaryOperator(single.matrix, cell), adjoint)


@pytest.mark.parametrize("name", ["eigvalsh", "eigh"])
def test_unconverged_sector_eigensolve_is_a_quadrature_failure(monkeypatch, name):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, name, fail)
    with pytest.raises(QuadratureFailure, match="did not converge"):
        decompose(make_disk_cell(0.45, 1.0, 64))


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
    broken = dataclasses.replace(single, rows=-single.rows)
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
    scaled = dataclasses.replace(single, rows=single.rows * (1.0 + 2.0**-52))
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
    with pytest.raises(DomainError, match=f"coincides with eigenvalue index {j} "):
        alpha_infinity(disk256_dec, disk256_dec.eigenvalues[j])


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


@pytest.mark.parametrize("n", [128, 256])
@pytest.mark.parametrize("lam", [PROBE, 0.31, 0.3 + 0.05j, -2.0 + 1e-3j],
                         ids=["real", "real_near_spectrum", "complex", "complex_far"])
def test_resolvent_matches_scipy_solve(n, lam):
    # numpy.linalg.solve against scipy.linalg.solve on the same system; the
    # two link different OpenBLAS builds, whose LU round-off can differ in
    # the last bits (2e-14 relative at lam = 0.31), so they agree to round-off
    dec = decompose(make_disk_cell(0.45, 1.0, n))
    rhs = dec.cell.normals[:, 1]
    psi = resolvent_density(dec, lam, rhs)
    system = lam * np.eye(n) - dec.np_adjoint
    expected = scipy.linalg.solve(system, rhs.astype(psi.dtype))
    assert psi.dtype == expected.dtype
    assert np.abs(psi - expected).max() <= 1e-13 * np.abs(expected).max()


def test_resolvent_neumann_limit(disk256_dec, disk256):
    rhs = disk256.normals[:, 1]
    lam = 1e8
    psi = resolvent_density(disk256_dec, lam, rhs)
    assert np.allclose(lam * psi, rhs, atol=1e-7)


def test_resolvent_pole_error(disk256_dec, disk256):
    j = disk256_dec.dominant_mode()
    with pytest.raises(DomainError, match=f"coincides with eigenvalue index {j} "):
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
def test_alpha2_matches_complex_formula(make_cell, water_gold):
    from metastrain.spectral import alpha2_plus_batch

    dec = decompose(make_cell())
    j = dec.dominant_mode()
    lo, hi = dec.eigenvalues[1:].min(), dec.eigenvalues[1:].max()
    # after the default window and points far off the spectrum: 1e-7 from the
    # dominant pole, 1e-5 from the round-off cluster, and real contrasts
    # inside the hull of the zero-mean spectrum
    lams = np.concatenate([default_window(water_gold),
                           [PROBE, -0.3, 3.0, 0.7 + 0.02j, -2.0 + 1e-3j, 1e3 + 1e3j, 1e4,
                            dec.eigenvalues[j] + 1e-7j, 1e-5j,
                            0.5 * (lo + hi) + 1e-3, 0.9 * lo, 0.9 * hi]])
    expected, _ = complex_mode_sums(dec, lams, dec.moments_nu2)
    assert np.max(np.abs(alpha2_plus_batch(dec, lams) - expected) / np.abs(expected)) < 1e-14


@pytest.mark.parametrize("make_cell, carried, crossed", [
    (lambda: make_disk_cell(0.45, 1.0, 256), 64, 0),
    (lambda: make_smooth_cell([0.0, 0.3, 0.03 + 0.01j, 0.0, 0.0, 0.0, 0.0, 0.0], 1.2, 128), 127, 127),
], ids=["disk", "fourier"])
def test_mode_sums_read_only_carried_modes(make_cell, carried, crossed, monkeypatch):
    # the nu2 moments of 191 of the disk's 255 zero-mean modes are exactly 0,
    # and no mode carries both normal moments; the asymmetric curve's all do
    from metastrain import spectral

    dec = decompose(make_cell())
    sizes = []
    row_sums = spectral._row_sums

    def recording(nodes, weights, lams):
        sizes.append(nodes.size)
        return row_sums(nodes, weights, lams)

    monkeypatch.setattr(spectral, "_row_sums", recording)
    spectral.alpha2_plus_batch(dec, [PROBE, 0.7 + 0.02j])
    limits = alpha_infinity(dec, PROBE)
    assert sizes == [carried, carried, crossed]
    assert (limits.alpha1_plus == 0.0) == (crossed == 0)


def test_alpha2_scalar_and_batch_identical(disk256_dec, water_gold):
    from metastrain.spectral import alpha2_plus_batch

    lams = default_window(water_gold)
    batch = alpha2_plus_batch(disk256_dec, lams)
    assert all(alpha_infinity(disk256_dec, lam).alpha2_plus == value
               for lam, value in zip(lams, batch))


@pytest.mark.parametrize("samples", [400, 1000])
def test_row_sums_bit_identical_to_the_allocating_sums(disk256_dec, water_gold, samples):
    from metastrain import spectral

    lams = default_window(water_gold, samples)
    lj = disk256_dec.eigenvalues[1:]
    weights = disk256_dec.moments_nu2[1:] ** 2 / (0.5 - lj)
    carried = weights != 0.0
    nodes, weights = lj[carried], weights[carried]
    sums = spectral._row_sums(nodes, weights, lams)
    assert sums.tobytes() == allocating_kernels.row_sums(nodes, weights, lams).tobytes()
    batch = spectral.alpha2_plus_batch(disk256_dec, lams)
    assert batch.tobytes() == allocating_kernels.alpha2_plus(disk256_dec, lams).tobytes()


@pytest.mark.parametrize("lams, shape", [(PROBE, r"\(\)"), ([[PROBE, 0.7]], r"\(1, 2\)")],
                         ids=["scalar", "2d"])
def test_contrasts_not_1d_rejected(disk128_dec, lams, shape):
    from metastrain.spectral import alpha2_plus_batch

    with pytest.raises(DomainError, match=rf"contrasts must be a 1-D array, got shape {shape}"):
        alpha2_plus_batch(disk128_dec, lams)


def test_alpha2_batch_kept_read_only_and_checked_when_warm(water_gold):
    from metastrain import spectral

    dec = decompose(make_disk_cell(0.45, 1.0, 64))
    lams = default_window(water_gold)
    cold = spectral.alpha2_plus_batch(dec, lams)
    warm = spectral.alpha2_plus_batch(dec, lams.copy())
    assert warm is cold and not cold.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        warm[0] = 0.0
    # a 2-D array of the same bytes is still refused
    with pytest.raises(DomainError, match=r"got shape \(1, 400\)"):
        spectral.alpha2_plus_batch(dec, lams.reshape(1, -1))
    # so is a mode at 1/2 that appears after the batch was kept
    dec.eigenvalues[1] = 0.5
    with pytest.raises(QuadratureFailure, match=r"lambda_1 = 0\.5 is not below 1/2"):
        spectral.alpha2_plus_batch(dec, lams)


def test_mode_above_one_half_reported():
    # n = 256 does not resolve a gap of 0.005: one zero-mean eigenvalue is 0.512
    dec = decompose(make_disk_cell(0.45, 0.905, 256))
    with pytest.raises(QuadratureFailure, match=r"lambda_1 = 0\.51"):
        alpha_infinity(dec, PROBE)


def test_operators_of_two_periods_rejected():
    # equal weights, different lattices: K* of L = 1.25 in the S pairing of L = 1
    single = assemble_single_layer(make_disk_cell(0.45, 1.0, 64))
    with pytest.raises(DomainError, match="different cells"):
        eigendecompose(single, assemble_np_adjoint(make_disk_cell(0.45, 1.25, 64)))
    # an equal cell built twice is the same cell
    dec = eigendecompose(single, assemble_np_adjoint(make_disk_cell(0.45, 1.0, 64)))
    assert dec.eigenvalues[1] == pytest.approx(0.3585, abs=1e-4)


def test_operators_of_two_groups_rejected(disk256_ops):
    single, adjoint = disk256_ops
    with pytest.raises(DomainError, match="different mirror groups"):
        eigendecompose(BoundaryOperator(single.matrix, single.cell), adjoint)


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
def eigh_calls(monkeypatch):
    """(order, eigenvalues only) of each generalized eigensolve made while the test runs."""
    from metastrain import spectral

    calls = []
    original = spectral._definite_eigh

    def recorded(B, G, vectors):
        calls.append((B.shape[0], not vectors))
        return original(B, G, vectors)

    monkeypatch.setattr(spectral, "_definite_eigh", recorded)
    return calls


def sizes(calls):
    return [size for size, _ in calls]


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
# symmetric under both lattice mirrors, so solved on quarters; BENCH_CURVE has
# even-order coefficients and only the mirror through node 0
QUARTERED = {"disk", "ellipse", "gap_0.01_n512", "disk_node0_on_top"}


def quarter_sizes(n):
    return [n // 4, n // 4, n // 4, n // 4 - 1]


@pytest.mark.parametrize("name", MIRRORED_CELLS)
def test_mirror_sectors_match_whole_space_oracle(name, water_gold, eigh_calls):
    from metastrain.spectral import alpha2_plus_batch

    cell = MIRRORED_CELLS[name]()
    n = cell.node_count
    dec = decompose(cell)
    expected = quarter_sizes(n) if name in QUARTERED else [n // 2, n // 2 - 1]
    assert sizes(eigh_calls) == expected
    oracle = decompose(shifted_origin(cell))
    assert sizes(eigh_calls)[len(expected):] == [n - 1]
    radius = np.abs(oracle.eigenvalues).max()
    assert np.abs(dec.eigenvalues - oracle.eigenvalues).max() <= 1e-13 * radius
    lams = default_window(water_gold)
    expected = alpha2_plus_batch(oracle, lams)
    assert np.max(np.abs(alpha2_plus_batch(dec, lams) - expected) / np.abs(expected)) <= 1e-13
    j = oracle.dominant_mode()
    assert dec.dominant_mode() == j
    assert dec.eigenvalues[j] == pytest.approx(oracle.eigenvalues[j], rel=1e-13)
    assert abs(dec.moments_nu2[j]) == pytest.approx(abs(oracle.moments_nu2[j]), rel=1e-13)


def mirror_parities(dens, image):
    """+1 or -1 per column where the column is exactly even or odd under the node map image."""
    even = np.all(dens[image] == dens, axis=0)
    odd = np.all(dens[image] == -dens, axis=0)
    assert np.all(even ^ odd)
    return np.where(even, 1, -1)


@pytest.mark.parametrize("coefficient, nu2_parities, nu1_parities", [
    (0.45, (-1, 1), (1, -1)),
    (0.45j, (1, -1), (-1, 1)),
], ids=["parallel_to_grating", "normal_to_grating"])
def test_mirror_sectors_give_parity_exact_moments(coefficient, nu2_parities, nu1_parities,
                                                  eigh_calls):
    # under j -> -j and j -> n/2 - j each mode is exactly even or odd; node 0
    # on the right, nu2 lives on the modes odd under the first mirror and even
    # under the second, nu1 on the modes even and odd, and every other mode
    # carries exact zeros; node 0 on top the other way round.  The two
    # sectors without a moment are solved for eigenvalues only, and their
    # densities on the first read
    dec = decompose(make_smooth_cell([0.0, coefficient, 0.0], 1.0, 256))
    n = dec.mode_count
    assert eigh_calls == list(zip(quarter_sizes(n), [True, False, False, True]))
    nodes = np.arange(n)
    dens = dec.eigendensities
    assert eigh_calls[4:] == [(n // 4, False), (n // 4 - 1, False)]
    parities = np.column_stack([mirror_parities(dens, -nodes % n),
                                mirror_parities(dens, (n // 2 - nodes) % n)])
    assert tuple(parities[0]) == (1, 1)
    for moments, sector in ((dec.moments_nu2, nu2_parities), (dec.moments_nu1, nu1_parities)):
        lives = np.all(parities == sector, axis=1)
        assert lives.sum() == n // 4
        assert np.all(moments[lives] != 0.0) and np.all(moments[~lives] == 0.0)


_SQRT_HALF = np.sqrt(0.5)


def _fold(x, sign):
    """The reversal fold k -> m - 1 - k of an odd number m of coordinates (first axis)."""
    k = x.shape[0] // 2
    pairs = (x[:k] + sign * x[:k:-1]) * _SQRT_HALF
    if sign < 0:
        return pairs
    return np.concatenate((pairs, x[k:k + 1]))


def _half_restrict(x, parity):
    """Q^T x for the even or odd half of j -> -j: node 0, then nodes 1..n-1 folded."""
    pairs = _fold(x[1:], parity)
    return np.concatenate((x[:1], pairs)) if parity > 0 else pairs


def folded_block(A, parity, fold):
    """The sector block by restricting both sides to the half, then folding by j -> n/2 - j."""
    block = _half_restrict(_half_restrict(A, parity).T, parity).T
    return _fold(_fold(block, fold).T, fold).T if fold else block


@pytest.mark.parametrize("make_cell, count", [
    (lambda: make_disk_cell(0.45, 1.0, 256), 4),
    (lambda: make_ellipse_cell(0.35, 0.22, 1.0, 128), 4),
    (lambda: make_disk_cell(0.45, 1.0, 130), 2),
    (lambda: make_smooth_cell(BENCH_CURVE, 1.3, 128), 2),
], ids=["disk", "ellipse", "disk130", "bench_curve"])
def test_sector_blocks_from_gathers_match_the_folded_halves(make_cell, count):
    from metastrain.spectral import _sectors

    cell = make_cell()
    single, adjoint = assemble_single_layer(cell), assemble_np_adjoint(cell)
    dec = eigendecompose(single, adjoint)
    sectors = _sectors(cell.node_count, single.mirrors)
    assert len(sectors) == count
    x = np.random.default_rng(5).standard_normal(cell.node_count)
    for sector in sectors:
        for A in (dec.gram, dec.np_adjoint):
            oracle = folded_block(A, sector.parity, sector.fold)
            assert np.abs(sector.block(A) - oracle).max() <= 1e-14 * np.abs(oracle).max()
        oracle = _half_restrict(x, sector.parity)
        if sector.fold:
            oracle = _fold(oracle, sector.fold)
        assert np.abs(sector.restrict(x) - oracle).max() <= 1e-15 * np.abs(x).max()
        # extend is Q, with orthonormal columns, and restrict its transpose
        basis = sector.extend(np.eye(oracle.size))
        assert np.abs(basis.T @ basis - np.eye(oracle.size)).max() <= 1e-15
        assert np.abs(sector.restrict(basis) - np.eye(oracle.size)).max() <= 1e-15


INVERSE_CELLS = {
    "disk": lambda: make_disk_cell(0.45, 1.0, 256),
    "disk130": lambda: make_disk_cell(0.45, 1.0, 130),
    "bench_curve": lambda: make_smooth_cell(BENCH_CURVE, 1.3, 128),
    "asymmetric": lambda: make_smooth_cell([0.0, 0.3 + 0.02j, 0.03 - 0.01j, 0.0, 0.0, 0.0,
                                            0.01j, 0.02], 1.0, 128),
    "disk1024": lambda: make_disk_cell(0.45, 1.0, 1024),
}


def _lower_factor(m, condition, seed):
    """A Cholesky factor of a random SPD matrix with eigenvalues spread over ``condition``."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((m, m)))
    spectrum = np.logspace(0.0, -np.log10(condition), m)
    return np.linalg.cholesky((q * spectrum) @ q.T)


@pytest.mark.parametrize("m", [1, 2, 31, 32, 33, 63, 64, 65, 127, 128, 255, 256])
def test_triangular_inverse_by_halves_matches_numpy(m):
    from metastrain.spectral import _triangular_inverse

    eye = np.eye(m)
    for condition in (1e2, 1e8):
        # the factor's condition number is the square root of the matrix's
        L = _lower_factor(m, condition**2, seed=m)
        inverse, reference = _triangular_inverse(L), np.linalg.inv(L)
        ours = np.abs(inverse @ L - eye).max()
        numpy_residual = np.abs(reference @ L - eye).max()
        assert ours <= 10.0 * max(numpy_residual, np.finfo(float).eps)
        if condition < 1e3:
            assert np.abs(inverse - reference).max() <= 1e-12 * np.abs(reference).max()


@pytest.mark.parametrize("name", sorted(INVERSE_CELLS))
def test_no_general_inverse_above_the_leaf(monkeypatch, name):
    # the Cholesky factors are inverted by halves down to 32 unknowns, and
    # the equilibrium mode is found by solves: numpy's general inverse never
    # sees a larger matrix
    from metastrain.spectral import _TRIANGULAR_LEAF

    orders = []
    original = np.linalg.inv

    def recorded(a):
        orders.append(np.shape(a)[-1])
        return original(a)

    monkeypatch.setattr(np.linalg, "inv", recorded)
    decompose(INVERSE_CELLS[name]())
    assert orders and max(orders) <= _TRIANGULAR_LEAF == 32


@settings(max_examples=16, deadline=None, derandomize=True, database=None)
@given(half_n=st.integers(32, 128), c1=st.floats(0.25, 0.35),
       odd=st.tuples(st.floats(-0.02, 0.02), st.floats(-0.02, 0.02)),
       even=st.one_of(st.just((0.0, 0.0)),
                      st.tuples(st.floats(-0.015, 0.015), st.floats(-0.015, 0.015))))
def test_group_path_eigenvalues_on_real_fourier_curves(half_n, c1, odd, even):
    # real coefficients mirror the curve about the grating's direction
    # (j -> -j); with no even orders, about the normal too (j -> n/2 - j);
    # n = 2 half_n covers both n % 4 cases.  The same curve with its node
    # origin moved by one node has no mirror: the trivial-group path
    n = 2 * half_n
    coeffs = np.zeros(8)
    coeffs[[1, 7, 3, 2, 6]] = c1, *odd, *even
    cell = make_smooth_cell(coeffs, 1.2, n)
    oracle = decompose(shifted_origin(cell))
    radius = np.abs(oracle.eigenvalues).max()
    assert np.abs(decompose(cell).eigenvalues - oracle.eigenvalues).max() <= 1e-13 * radius


def test_disk_off_a_multiple_of_four_takes_the_halves(eigh_calls):
    dec = decompose(make_disk_cell(0.45, 1.0, 130))
    assert eigh_calls == [(65, False), (64, False)]
    assert (dec.moments_nu2 == 0.0).sum() == 66
    assert all(vectors is not None for _, _, vectors in dec._sectors)


def test_deferred_densities_on_first_read(disk256_ops, disk256):
    dec = eigendecompose(*disk256_ops)
    n = disk256.node_count
    kept = [a.copy() for a in (dec.eigenvalues, dec.moments_nu1, dec.moments_nu2)]
    deferred = np.concatenate([columns for _, columns, vectors in dec._sectors if vectors is None])
    assert deferred.size == n // 2 - 1
    assert "eigendensities" not in dec.__dict__
    dens = dec.eigendensities
    assert dec.eigendensities is dens
    for a, b in zip(kept, (dec.eigenvalues, dec.moments_nu1, dec.moments_nu2)):
        assert np.array_equal(a, b)
    zero_mean = dens[:, 1:]
    assert np.abs(zero_mean.T @ dec.gram @ zero_mean - np.eye(n - 1)).max() < 1e-8
    assert np.abs(disk256.weights @ zero_mean).max() < 1e-8
    # against the whole-space oracle (its node j is node j + 1 here), up to
    # sign, on the modes outside the round-off cluster: the error of a
    # density is round-off over its eigenvalue's gap
    oracle = decompose(shifted_origin(disk256))
    ours = dens[(np.arange(n) + 1) % n][:, deferred]
    theirs = oracle.eigendensities[:, deferred]
    lam = dec.eigenvalues
    radius = np.abs(lam).max()
    gap = np.array([np.abs(np.delete(lam, j) - lam[j]).min() for j in deferred])
    signs = np.sign(np.sum(ours * theirs, axis=0))
    error = np.abs(ours - signs * theirs).max(axis=0) / np.abs(theirs).max(axis=0)
    isolated = np.abs(lam[deferred]) > 1e-7
    assert isolated.sum() >= 20
    assert np.all(error[isolated] <= 1e-12 * radius / gap[isolated])


def test_asymmetric_cell_takes_the_whole_space(eigh_calls):
    cell = make_smooth_cell([0.0, 0.3, 0.03 + 0.01j, 0.0, 0.0, 0.0, 0.0, 0.0], 1.2, 128)
    dec = decompose(cell)
    assert eigh_calls == [(127, False)]
    assert np.all(dec.moments_nu2[1:] != 0.0)


@pytest.mark.parametrize("parity, fold", [(1, 1), (1, -1), (-1, 1), (-1, -1)],
                         ids=["even_even", "even_odd", "odd_even", "odd_odd"])
def test_gram_failure_in_one_sector_reported(parity, fold, eigh_calls):
    # a group-invariant rank-one update along the orbit of node 1 with the
    # character's signs, (e_1 + chi(P) e_{n-1} + chi(M) e_{n/2-1} + chi(T) e_{n/2+1}) / 2,
    # makes the Gram matrix indefinite in that quarter only.  The quarters
    # are solved in order, the two without a normal moment for eigenvalues
    # only, and the failing one is the last solved
    cell = make_disk_cell(0.45, 1.0, 64)
    n = cell.node_count
    single, adjoint = assemble_single_layer(cell), assemble_np_adjoint(cell)
    gram = -(cell.weights[:, None] * single.matrix)
    u = np.zeros(n)
    u[[1, n - 1, n // 2 - 1, n // 2 + 1]] = 0.5, 0.5 * parity, 0.5 * fold, 0.5 * parity * fold
    gram = gram - 1e3 * np.abs(gram).max() * np.outer(u, u)
    broken = dataclasses.replace(single, rows=(-gram / cell.weights[:, None])[:n // 4 + 1])
    with pytest.raises(QuadratureFailure, match="not positive definite"):
        eigendecompose(broken, adjoint)
    solved = [(1, 1), (1, -1), (-1, 1), (-1, -1)].index((parity, fold)) + 1
    assert eigh_calls == list(zip(quarter_sizes(n), [True, False, False, True]))[:solved]


def test_hand_built_operators_take_the_whole_space(disk256_ops, disk256_dec, eigh_calls):
    single, adjoint = (BoundaryOperator(op.matrix, op.cell) for op in disk256_ops)
    dec = eigendecompose(single, adjoint)
    n = dec.mode_count
    assert eigh_calls == [(n - 1, False)]
    radius = np.abs(dec.eigenvalues).max()
    assert np.abs(dec.eigenvalues - disk256_dec.eigenvalues).max() <= 1e-13 * radius


def test_rows_off_the_group_rejected(disk256_ops):
    # a copy of a two-mirror S with a full edited matrix in place of its rows
    # would be solved on the group's sectors, dropping the edit's couplings
    single, _ = disk256_ops
    edited = single.matrix.copy()
    edited[1, 2] += 1e-3
    with pytest.raises(DomainError, match="do not fit 256 nodes under 2 lattice mirrors"):
        dataclasses.replace(single, rows=edited)
    for mirrors in (-1, 3):
        with pytest.raises(DomainError, match="do not fit"):
            BoundaryOperator(edited, single.cell, mirrors)
    cell = make_disk_cell(0.45, 1.0, 130)
    with pytest.raises(DomainError, match="do not fit 130 nodes under 2"):
        BoundaryOperator(np.zeros((33, 130)), cell, 2)


def test_calibrate_path_expands_nothing(monkeypatch, water_gold):
    from metastrain import layer_ops
    from metastrain.resonance_sweep import dominant_peak, sweep

    expanded = []
    mirrored = layer_ops._mirrored
    monkeypatch.setattr(layer_ops, "_mirrored",
                        lambda rows, mirrors: expanded.append(mirrors) or mirrored(rows, mirrors))
    dec = decompose(make_disk_cell(0.45, 1.0, 256))
    assert dominant_peak(sweep(dec, water_gold, 6.5e-7, 1.7e-6, 400)) is not None
    assert expanded == []
    assert not {"gram", "eigendensities"} & dec.__dict__.keys()
    dec.gram
    assert expanded == [2]


def test_two_mirror_decomposition_holds_no_n_by_n_matrix():
    import tracemalloc

    n = 512
    cell = make_disk_cell(0.45, 1.0, n)
    decompose(make_disk_cell(0.45, 1.0, 64))  # imports made before the trace
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        dec = decompose(cell)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert dec.mode_count == n
    # in n x n float64 arrays: the rows of S and K* and two quarters' vectors
    # (0.64), at most 2.21 at the peak
    assert (held - start) / (8 * n * n) <= 1.0
    assert (peak - start) / (8 * n * n) <= 2.5


@pytest.mark.parametrize("n", [256, 512])
@pytest.mark.parametrize("make_cell, mirrors, most", [
    (lambda n: make_smooth_cell(BENCH_CURVE, 1.3, n), 1, 4.6),
    (lambda n: make_disk_cell(0.45, 1.0, n), 2, 4.2),
], ids=["one_mirror", "two_mirrors"])
def test_reads_keep_each_expanded_matrix_once(make_cell, mirrors, most, n):
    # after the reads validate makes (S, K*, the Gram matrix, the densities)
    # the operators' rows are views of their expanded matrices, so only the
    # sector vectors are kept beside what was built
    import tracemalloc

    cell = make_cell(n)
    decompose(make_disk_cell(0.45, 1.0, 64)).eigendensities  # imports made before the trace
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        dec = decompose(cell)
        for name in ("single_layer", "np_adjoint", "gram", "eigendensities"):
            getattr(dec, name)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert dec._operators[0].mirrors == mirrors
    for operator in dec._operators:
        assert np.shares_memory(operator.rows, operator.matrix)
    assert (held - start) / (8 * n * n) <= most


@pytest.mark.parametrize("make_cell, mirrors", [
    (lambda: make_disk_cell(0.45, 1.0, 256), 2),
    (lambda: make_disk_cell(0.45, 1.0, 130), 1),
    (lambda: make_smooth_cell([0.0, 0.3, 0.03 + 0.01j, 0.0, 0.0, 0.0, 0.0, 0.0], 1.2, 128), 0),
], ids=["disk", "disk130", "fourier"])
def test_expansions_on_first_read_equal_the_eager_formulas(make_cell, mirrors):
    from metastrain.layer_ops import _mirrored

    cell = make_cell()
    single, adjoint = assemble_single_layer(cell), assemble_np_adjoint(cell)
    assert single.mirrors == mirrors
    dec = eigendecompose(single, adjoint)
    assert np.array_equal(dec.single_layer, _mirrored(single.rows, mirrors))
    assert np.array_equal(dec.np_adjoint, _mirrored(adjoint.rows, mirrors))
    gram = -(cell.weights[:, None] * dec.single_layer)
    assert np.array_equal(dec.gram, 0.5 * (gram + gram.T))
    assert dec.single_layer is dec.single_layer and dec.gram is dec.gram


@pytest.mark.parametrize("make_cell", [
    lambda: make_disk_cell(0.45, 1.0, 256),
    lambda: make_smooth_cell([0.0, 0.45j, 0.0], 1.0, 256),
    lambda: make_ellipse_cell(0.35, 0.22, 1.0, 128),
    lambda: make_disk_cell(0.45, 1.0, 130),
], ids=["disk", "disk_node0_on_top", "ellipse", "disk130"])
def test_sector_signs_match_the_nodal_rule(make_cell):
    from metastrain.spectral import _fix_signs

    dec = decompose(make_cell())
    deferred = [vectors is None for _, _, vectors in dec._sectors]
    dens = dec.eigendensities[:, 1:]
    assert np.array_equal(_fix_signs(dens, dens), dens)
    assert deferred.count(True) == (2 if len(deferred) == 4 else 0)


def test_the_group_is_certified_once_per_assembly(monkeypatch):
    from metastrain import layer_ops

    calls = []
    certify = layer_ops._mirror_count
    monkeypatch.setattr(layer_ops, "_mirror_count", lambda cell: calls.append(cell) or certify(cell))
    cell = make_disk_cell(0.45, 1.0, 64)
    eigendecompose(assemble_single_layer(cell), assemble_np_adjoint(cell))
    assert calls == [cell]


# ------------------------------------------------------------ per-curve data

def test_cells_of_one_disk_decompose_as_on_cold_caches(cold_caches):
    # the calibrate workload's period grid on one disk: node data, certificate,
    # log-quadrature row and sector plans are built once and shared, and each
    # decomposition equals the one made with every cache empty
    from metastrain import geometry, layer_ops
    from metastrain.spectral import _Sector

    periods = (1.0, 1.25, 1.5, 1.75, 2.0)
    cells = [make_disk_cell(0.4, period, 256) for period in periods]
    warm = [decompose(cell) for cell in cells]
    for name in ("nodes", "normals", "curvatures", "weights", "parametrization"):
        assert all(getattr(cell, name) is getattr(cells[0], name) for cell in cells)
    assert not cells[0].nodes.flags.writeable
    assert geometry._node_data.cache_info().misses == 1
    assert len(layer_ops._CERTIFICATES) == 1
    assert layer_ops._reversed_row_twice.cache_info().misses == 1
    assert _Sector._orbits.cache_info().misses == 4  # the four quarters
    for period, dec in zip(periods, warm):
        cold_caches()
        cold = decompose(make_disk_cell(0.4, period, 256))
        assert cold.cell.nodes is not dec.cell.nodes
        assert cold.eigenvalues[0] == dec.eigenvalues[0]
        for name in ("eigenvalues", "moments_nu1", "moments_nu2"):
            assert np.array_equal(getattr(cold, name), getattr(dec, name))


@pytest.mark.parametrize("radius", [0.45, 0.3])
@pytest.mark.parametrize("ratio, gap", [(0.05, 2e-5), (0.025, 2e-6)])
def test_dilute_lattice_law_on_disks(radius, ratio, gap):
    # a disk of radius r in a cell of width L >> r: the dominant eigenvalue
    # tends to -zeta(2) r^2 / L^2, its lattice sum over the periodic copies
    period = radius / ratio
    dec = decompose(make_disk_cell(radius, period, 128))
    lam = dec.eigenvalues[dec.dominant_mode()]
    assert abs(-lam * period**2 / radius**2 - np.pi**2 / 6) <= gap


@pytest.mark.parametrize("build", [
    lambda period: make_ellipse_cell(0.35, 0.22, period, 128),
    lambda period: make_smooth_cell([0.0, 0.3, 0.03 + 0.01j, 0.0, 0.0, 0.0, 0.0, 0.0], period, 128),
], ids=["ellipse", "asymmetric_fourier"])
def test_dilute_lattice_law_beyond_disks(build):
    # lambda(L) - lambda(inf) ~ (zeta(2)/pi) (1/2 - lambda) (p1^2 - p2^2) / L^2
    # for the dominant mode, with the dipole moments p_l = sum_i w_i x_l,i phi_i
    # of its Gram-normalised density, lambda and p taken at L, and lambda(inf)
    # read at L = 1e6.  The relative error of the law is O(L^-2): measured
    # 1.15e-3 / 2.86e-4 / 7.1e-5 on the ellipse (two mirrors) and 0.40 / 0.041
    # / 0.0086 on the asymmetric curve (no mirror) at L = 8 / 16 / 32
    far = decompose(build(1e6))
    lam_inf = far.eigenvalues[far.dominant_mode()]
    errors = []
    for period in (8.0, 16.0, 32.0):
        dec = decompose(build(period))
        j = dec.dominant_mode()
        lam = dec.eigenvalues[j]
        p1, p2 = (dec.cell.weights * dec.eigendensities[:, j]) @ dec.cell.nodes
        law = (np.pi**2 / 6) / np.pi * (0.5 - lam) * (p1**2 - p2**2) / period**2
        errors.append(abs(lam - lam_inf - law) / abs(law))
    assert errors[0] >= 3.0 * errors[1] and errors[1] >= 3.0 * errors[2], errors
    assert errors[2] < 1e-2, errors


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
