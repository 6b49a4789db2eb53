import numpy as np
import pytest

from metastrain import (
    assemble_np,
    assemble_np_adjoint,
    assemble_single_layer,
    evaluate_single_layer_off_surface,
    make_disk_cell,
    make_ellipse_cell,
    make_smooth_cell,
)
from metastrain.errors import DomainError, EvaluationDistanceError, MetastrainError
from metastrain.layer_ops import log_quadrature_matrix
from metastrain.validate import neville_to_zero, off_surface_normal_derivative

from lattice_oracles import cot_minus_inverse, gradient_from_delta, remainder_from_delta


def _pairwise_delta(cell):
    z = cell.nodes_complex
    return z[:, None] - z[None, :]


def complex_single_layer(cell):
    """S from the free-space split: ln(|delta|^2 / 4 sin^2(dt/2)) plus the remainder R.

    Complex arithmetic on the full n x n grid; the oracle for the real
    upper-triangle assembly.
    """
    n = cell.node_count
    s = cell.speeds
    delta = _pairwise_delta(cell)
    dt = cell.t[:, None] - cell.t[None, :]
    sin2 = 4.0 * np.sin(dt / 2.0) ** 2
    ratio = np.abs(delta) ** 2
    np.fill_diagonal(ratio, 1.0)
    np.fill_diagonal(sin2, 1.0)
    ratio = ratio / sin2
    np.fill_diagonal(ratio, s**2)
    smooth = np.log(ratio) / (4.0 * np.pi) + remainder_from_delta(delta, cell.period_ratio)
    return (0.5 * log_quadrature_matrix(n) + (2.0 * np.pi / n) * smooth) * s[None, :]


def complex_np_adjoint(cell):
    """K* as the free-space gradient plus cot(w) - 1/w, in complex arithmetic (oracle)."""
    n = cell.node_count
    L = cell.period_ratio
    delta = _pairwise_delta(cell)
    nu = cell.normals_complex
    dist2 = np.abs(delta) ** 2
    np.fill_diagonal(dist2, 1.0)
    free = np.real(np.conj(nu)[:, None] * delta) / (2.0 * np.pi * dist2)
    np.fill_diagonal(free, cell.curvatures / (4.0 * np.pi))
    rem = np.real(nu[:, None] * cot_minus_inverse(np.pi * delta / L)) / (2.0 * L)
    return (2.0 * np.pi / n) * (free + rem) * cell.speeds[None, :]


def assemble_double_layer(cell):
    """On-surface double layer D in the principal-value sense.

    An independent quadrature of the kernel nu(y) . grad_y G(x - y): the
    oracle for K = D and for the off-surface limit of the double layer.
    """
    n = cell.node_count
    L = cell.period_ratio
    delta = _pairwise_delta(cell)
    nu = cell.normals_complex

    dist2 = np.abs(delta) ** 2
    np.fill_diagonal(dist2, 1.0)
    free = np.real(np.conj(nu)[None, :] * (-delta)) / (2.0 * np.pi * dist2)
    np.fill_diagonal(free, cell.curvatures / (4.0 * np.pi))

    rem_grad = cot_minus_inverse(np.pi * delta / L) / (2.0 * L)
    rem = -np.real(nu[None, :] * rem_grad)
    return (2.0 * np.pi / n) * (free + rem) * cell.speeds[None, :]


def weighted_norm(matrix, weights):
    sw = np.sqrt(weights)
    return np.linalg.norm((sw[:, None] * matrix) / sw[None, :], 2)


# asymmetric Fourier curve of the validate checks (one complex coefficient)
FOURIER_COEFFS = [0.0, 0.3, 0.03 + 0.01j, 0.0, 0.0, 0.0, 0.0, 0.0]


def _row_relative_gap(matrix, oracle):
    return (np.abs(matrix - oracle).max(axis=1) / np.abs(oracle).max(axis=1)).max()


@pytest.mark.parametrize("make_cell", [
    lambda: make_disk_cell(0.45, 1.0, 256),
    lambda: make_ellipse_cell(0.35, 0.22, 1.0, 128),
    lambda: make_smooth_cell(FOURIER_COEFFS, 1.2, 128),
    # |v| = pi |dxi2| / L reaches 377: beyond the far-field guard (30) and the
    # overflow of sinh^2 (~355), below that of the complex cot (~710)
    lambda: make_ellipse_cell(0.3, 60.0, 1.0, 256),
], ids=["disk", "ellipse", "fourier", "tall_ellipse"])
def test_real_lattice_kernels_match_complex_split(make_cell):
    cell = make_cell()
    single = assemble_single_layer(cell).matrix
    adjoint = assemble_np_adjoint(cell).matrix
    assert np.all(np.isfinite(single)) and np.all(np.isfinite(adjoint))
    assert _row_relative_gap(single, complex_single_layer(cell)) < 1e-13
    assert _row_relative_gap(adjoint, complex_np_adjoint(cell)) < 1e-13


def test_tall_ellipse_reaches_the_far_field_branch():
    cell = make_ellipse_cell(0.3, 60.0, 1.0, 256)
    v = np.pi * np.ptp(cell.nodes[:, 1]) / cell.period_ratio
    assert 355.0 < v < 710.0


def test_log_quadrature_symbol_exact():
    # the canonical rule integrates (1/2pi) ln(4 sin^2((t-s)/2)) against
    # trigonometric polynomials exactly: eigenvalues -1/m, constants to zero
    n = 64
    rule = log_quadrature_matrix(n)
    t = 2 * np.pi * np.arange(n) / n
    assert np.abs(rule @ np.ones(n)).max() < 1e-14
    for m in (1, 5, 20, 31):
        assert np.abs(rule @ np.cos(m * t) + np.cos(m * t) / m).max() < 1e-13
        assert np.abs(rule @ np.sin(m * t) + np.sin(m * t) / m).max() < 1e-13


def test_np_constant_half(disk256_ops, disk256):
    _, adjoint = disk256_ops
    np_op = assemble_np(adjoint)
    one = np.ones(disk256.node_count)
    assert np.abs(np_op.matrix @ one - 0.5).max() < 1e-12


def test_np_is_weighted_transpose(disk256_ops, disk256):
    _, adjoint = disk256_ops
    np_op = assemble_np(adjoint)
    w = disk256.weights
    # adjointness in the arclength pairing holds to rounding by construction
    lhs = w[:, None] * np_op.matrix
    rhs = (w[:, None] * adjoint.matrix).T
    assert np.abs(lhs - rhs).max() < 1e-15 * np.abs(rhs).max()


def test_calderon_identity(disk256_ops, disk256):
    single, adjoint = disk256_ops
    np_op = assemble_np(adjoint)
    resid = np_op.matrix @ single.matrix - single.matrix @ adjoint.matrix
    assert weighted_norm(resid, disk256.weights) < 1e-10


def test_calderon_identity_ellipse(ellipse128):
    single = assemble_single_layer(ellipse128)
    adjoint = assemble_np_adjoint(ellipse128)
    np_op = assemble_np(adjoint)
    resid = np_op.matrix @ single.matrix - single.matrix @ adjoint.matrix
    assert weighted_norm(resid, ellipse128.weights) < 1e-10


def test_calderon_residual_decays_spectrally():
    # halving the node count should cost many digits on an analytic curve
    resids = []
    for n in (16, 32, 64):
        cell = make_ellipse_cell(0.3, 0.2, 1.0, n)
        single = assemble_single_layer(cell)
        adjoint = assemble_np_adjoint(cell)
        np_op = assemble_np(adjoint)
        resid = np_op.matrix @ single.matrix - single.matrix @ adjoint.matrix
        resids.append(weighted_norm(resid, cell.weights))
    assert resids[0] > 1e3 * resids[1]
    assert resids[1] > 1e2 * resids[2] or resids[2] < 1e-14


def test_single_layer_symmetric_in_weights(disk256_ops, disk256):
    single, _ = disk256_ops
    ws = disk256.weights[:, None] * single.matrix
    assert np.abs(ws - ws.T).max() < 1e-16


def test_single_layer_negative_definite_on_zero_mean(disk256_ops, disk256):
    single, _ = disk256_ops
    w = disk256.weights
    gram = -(w[:, None] * single.matrix)
    gram = 0.5 * (gram + gram.T)
    rng = np.random.default_rng(7)
    for _ in range(20):
        phi = rng.standard_normal(disk256.node_count)
        phi -= (w @ phi) / w.sum()
        assert phi @ gram @ phi > 0.0


def test_single_layer_free_space_limit():
    # oracle: free-space disk single layer S[cos(m t)] = -(a/2m) cos(m t),
    # S[1] = a ln a, plus the lattice constant (1/2pi) ln(pi/L) times total mass
    a, L, n = 0.45, 1000.0, 128
    cell = make_disk_cell(a, L, n)
    S = assemble_single_layer(cell).matrix
    const = np.log(np.pi / L) / (2 * np.pi)
    # residual lattice coupling scales like (a/L)^2 ~ 2e-7
    for m in (1, 2, 3):
        phi = np.cos(m * cell.t)
        assert np.abs(S @ phi + (a / (2 * m)) * phi).max() < 1e-6
    one = np.ones(n)
    expected = a * np.log(a) + const * 2 * np.pi * a
    assert np.abs(S @ one - expected).max() < 1e-6


def test_single_layer_self_convergence():
    # doubling the node count: compare S[phi] at the shared nodes
    coeffs = [0.0, 0.3, 0.06]
    cell1 = make_ellipse_cell(0.36, 0.24, 1.0, 64)
    cell2 = make_ellipse_cell(0.36, 0.24, 1.0, 128)
    phi1 = np.cos(cell1.t) + 0.3 * np.sin(2 * cell1.t)
    phi2 = np.cos(cell2.t) + 0.3 * np.sin(2 * cell2.t)
    v1 = assemble_single_layer(cell1).matrix @ phi1
    v2 = assemble_single_layer(cell2).matrix @ phi2
    assert np.abs(v1 - v2[::2]).max() < 1e-10


def test_np_adjoint_free_space_spectrum(disk_free_dec):
    # classical disk: eigenvalues {1/2, 0, 0, ...}
    assert disk_free_dec.eigenvalues[0] == pytest.approx(0.5, abs=1e-10)
    assert np.abs(disk_free_dec.eigenvalues[1:]).max() < 1e-3


def test_double_layer_matches_np(disk256_ops, disk256):
    # independent quadrature of the same principal-value kernel
    _, adjoint = disk256_ops
    np_op = assemble_np(adjoint)
    double = assemble_double_layer(disk256)
    assert np.abs(double - np_op.matrix).max() < 1e-12


def test_double_layer_trace_combination(disk256):
    # D[1] on-surface equals the (-+1/2 + K)[1] trace combination:
    # outside trace 0, inside trace 1
    double = assemble_double_layer(disk256)
    one = np.ones(disk256.node_count)
    d_one = double @ one
    outside = -0.5 * one + d_one
    inside = 0.5 * one + d_one
    assert np.abs(outside).max() < 1e-12
    assert np.abs(inside - 1.0).max() < 1e-12


def test_double_layer_constant_on_disk_far_cell():
    cell = make_disk_cell(0.45, 1000.0, 96)
    double = assemble_double_layer(cell)
    val = double @ np.ones(96)
    assert val.max() - val.min() < 1e-6


def test_double_layer_off_surface_limit(disk256):
    # oracle: off-surface double layer on a fine independent grid, extrapolated
    # to the boundary from outside; expect the (-1/2 + K) trace combination
    double = assemble_double_layer(disk256)
    phi_coarse = disk256.normals[:, 1]
    i = 33
    x0 = disk256.nodes[i]
    nu = disk256.normals[i]

    fine = 4096
    tf = 2 * np.pi * np.arange(fine) / fine
    zf = disk256.parametrization.evaluate(tf)
    dzf = disk256.parametrization.evaluate(tf, order=1)
    wf = np.abs(dzf) * (2 * np.pi / fine)
    nuf = -1j * dzf / np.abs(dzf)
    phif = nuf.imag  # nu2 on the fine grid

    def dlp(point):
        delta = (point[0] + 1j * point[1]) - zf
        g = gradient_from_delta(delta, disk256.period_ratio)
        kern = -(nuf.real * g.real + nuf.imag * g.imag)
        return float(wf @ (kern * phif))

    ds = np.array([0.01, 0.02, 0.03, 0.045, 0.06])
    outside = neville_to_zero(ds, [dlp(x0 + d * nu) for d in ds])
    pv = (double @ phi_coarse)[i]
    assert outside == pytest.approx(pv - 0.5 * phi_coarse[i], abs=1e-6)


def test_trace_formulae_via_fd(disk256, disk256_ops):
    # dS/dnu|+- = (+-1/2 + K*)[phi], jump equals phi
    _, adjoint = disk256_ops
    n = disk256.node_count
    phi = disk256.normals[:, 1]
    plus = (0.5 * np.eye(n) + adjoint.matrix) @ phi
    minus = (-0.5 * np.eye(n) + adjoint.matrix) @ phi
    for node in (17, 171):
        fd_plus = off_surface_normal_derivative(disk256, phi, node, +1)
        fd_minus = off_surface_normal_derivative(disk256, phi, node, -1)
        assert abs(fd_plus - plus[node]) < 1e-6
        assert abs(fd_minus - minus[node]) < 1e-6
        assert abs((fd_plus - fd_minus) - phi[node]) < 1e-6


def test_off_surface_continuity(disk256):
    phi = np.cos(disk256.t)
    node = 50
    x0 = disk256.nodes[node]
    nu = disk256.normals[node]
    ds = np.array([0.006, 0.009, 0.012, 0.016, 0.020])
    gaps = [
        evaluate_single_layer_off_surface(disk256, phi, x0 + d * nu, upsample=32)
        - evaluate_single_layer_off_surface(disk256, phi, x0 - d * nu, upsample=32)
        for d in ds
    ]
    assert abs(neville_to_zero(ds, gaps)) < 1e-7


def test_off_surface_harmonicity(disk256):
    phi = np.cos(disk256.t)
    p = np.array([0.1, 0.9])
    h = 1e-3
    ev = lambda q: evaluate_single_layer_off_surface(disk256, phi, q)
    lap = (ev(p + [h, 0]) + ev(p - [h, 0]) + ev(p + [0, h]) + ev(p - [0, h]) - 4 * ev(p)) / h**2
    assert abs(lap) < 1e-6


def test_off_surface_far_field_constant_for_zero_mean(disk256):
    # zero-mean density: no linear growth, field tends to a constant
    phi = np.cos(disk256.t)
    phi -= (disk256.weights @ phi) / disk256.weights.sum()
    v1 = evaluate_single_layer_off_surface(disk256, phi, [0.2, 6.0])
    v2 = evaluate_single_layer_off_surface(disk256, phi, [-0.3, 9.0])
    assert abs(v1 - v2) < 1e-12


def test_off_surface_too_close_rejected(disk256):
    phi = np.cos(disk256.t)
    x0 = disk256.nodes[0] + 1e-4 * disk256.normals[0]
    with pytest.raises(EvaluationDistanceError):
        evaluate_single_layer_off_surface(disk256, phi, x0, upsample=1)


def test_spectrum_containment(disk256_dec):
    lam = disk256_dec.eigenvalues
    assert lam.max() <= 0.5 + 1e-6
    assert lam.min() >= -0.5 - 1e-6


@pytest.mark.parametrize("complex_density", [False, True])
def test_upsampled_density_matches_trigonometric_interpolation(complex_density):
    # band-limited density with an explicit Nyquist term cos(n/2 t): the
    # interpolant splits it evenly between frequencies +-n/2
    from metastrain.layer_ops import _upsampled

    n, factor = 32, 4
    cell = make_disk_cell(0.3, 1.0, n)
    rng = np.random.default_rng(3)
    k = np.arange(1, n // 2)
    shape = (k.size, 2) if complex_density else (k.size,)
    a, b = rng.standard_normal(shape), rng.standard_normal(shape)
    if complex_density:
        a, b = a[:, 0] + 1j * a[:, 1], b[:, 0] + 1j * b[:, 1]
    nyquist = 0.7 - 0.4j if complex_density else 0.7

    def density(t):
        t = np.asarray(t)[:, None]
        series = (a * np.cos(k * t) + b * np.sin(k * t)).sum(axis=1)
        return 0.3 + series + nyquist * np.cos(n // 2 * t[:, 0])

    fine = 2 * np.pi * np.arange(factor * n) / (factor * n)
    _, _, dens = _upsampled(cell, density(cell.t), factor)
    assert np.iscomplexobj(dens) == complex_density
    assert np.abs(dens - density(fine)).max() < 1e-13


def test_neville_keeps_complex_intercept():
    xs = np.array([0.006, 0.009, 0.012, 0.016, 0.020])
    coeffs = np.array([5.0, 100.0j, -40.0 + 7.0j, 3.0 + 2.0j, 0.25 - 1.5j])  # highest first
    ys = [np.polyval(coeffs, x) for x in xs]
    value = neville_to_zero(xs, ys)
    assert isinstance(value, complex)
    assert value == pytest.approx(coeffs[-1], abs=1e-10)


def test_odd_log_quadrature_is_a_package_error():
    with pytest.raises(DomainError) as info:
        log_quadrature_matrix(33)
    assert isinstance(info.value, MetastrainError) and isinstance(info.value, ValueError)
