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
    resolvent_density,
)
from metastrain.errors import QuadratureFailure, ResonanceError
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


def test_mismatched_cells_rejected(disk256_ops):
    single, _ = disk256_ops
    other = decompose(make_disk_cell(0.45, 1.0, 128))
    bad_adjoint = assemble_np_adjoint(other.cell)
    with pytest.raises(ValueError):
        eigendecompose(single, bad_adjoint)
