import dataclasses

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from metastrain import (
    assemble_np_adjoint,
    assemble_single_layer,
    make_disk_cell,
    make_ellipse_cell,
    make_smooth_cell,
    perturb_normal,
)
from metastrain.errors import DomainError, MetastrainError
from metastrain import layer_ops
from metastrain.layer_ops import evaluate_single_layer_off_surface, log_quadrature_matrix
from metastrain.validate import neville_to_zero, off_surface_normal_derivative

import allocating_kernels
from curve_oracles import evaluate
from lattice_oracles import (
    cot_minus_inverse,
    gradient_from_delta,
    per_call_np_adjoint,
    per_call_single_layer,
    remainder_from_delta,
    sin_cos_factors,
)


def parameter_grid(cell):
    """The uniform parameter grid t_j = 2 pi j / n on which the cell's nodes are sampled."""
    return 2.0 * np.pi * np.arange(cell.node_count) / cell.node_count


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
    t = parameter_grid(cell)
    dt = t[:, None] - t[None, :]
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


def np_matrix(adjoint):
    """K = W^-1 K*^T W, the adjoint of K* in the discrete arclength pairing."""
    w = adjoint.cell.weights
    return adjoint.matrix.T * (w[None, :] / w[:, None])


# asymmetric Fourier curve of the validate checks (one complex coefficient)
FOURIER_COEFFS = [0.0, 0.3, 0.03 + 0.01j, 0.0, 0.0, 0.0, 0.0, 0.0]


def _row_relative_gap(matrix, oracle):
    return (np.abs(matrix - oracle).max(axis=1) / np.abs(oracle).max(axis=1)).max()


def _representative_rows(cell):
    n = cell.node_count
    return (n, n // 2 + 1, n // 4 + 1)[layer_ops._mirror_count(cell)]


@pytest.mark.parametrize("make_cell", [
    lambda: make_disk_cell(0.45, 1.0, 256),
    lambda: make_ellipse_cell(0.35, 0.22, 1.0, 128),
    lambda: make_smooth_cell(FOURIER_COEFFS, 1.2, 128),
    # |v| = pi |dxi2| / L reaches 377: beyond the far-field guard (30) and the
    # overflow of sinh^2 (~355), below that of the complex cot (~710)
    lambda: make_ellipse_cell(0.3, 60.0, 1.0, 256),
], ids=["disk", "ellipse", "fourier", "tall_ellipse"])
def test_real_lattice_kernels_match_complex_split(make_cell):
    # the kernels are evaluated on the rows of the orbit representatives
    # (every row on a cell without a certified mirror); the other rows are
    # their mirror images, as far from the oracle as the cell is from its mirror
    cell = make_cell()
    rows = _representative_rows(cell)
    single = assemble_single_layer(cell).matrix
    adjoint = assemble_np_adjoint(cell).matrix
    assert np.all(np.isfinite(single)) and np.all(np.isfinite(adjoint))
    for matrix, oracle in ((single, complex_single_layer(cell)),
                           (adjoint, complex_np_adjoint(cell))):
        assert _row_relative_gap(matrix[:rows], oracle[:rows]) < 1e-13
        assert _row_relative_gap(matrix, oracle) <= layer_ops._mirror_tolerance(cell.node_count)


def test_tall_ellipse_reaches_the_far_field_branch():
    cell = make_ellipse_cell(0.3, 60.0, 1.0, 256)
    v = np.pi * np.ptp(cell.nodes[:, 1]) / cell.period_ratio
    assert 355.0 < v < 710.0


SHARED_PASS_CELLS = {
    "disk": lambda: make_disk_cell(0.45, 1.0, 256),
    "ellipse": lambda: make_ellipse_cell(0.35, 0.22, 1.0, 256),
    "fourier": lambda: make_smooth_cell(FOURIER_COEFFS, 1.2, 128),
    "tall_ellipse": lambda: make_ellipse_cell(0.3, 60.0, 1.0, 256),
}


def _matches_per_call(cell, matrix, oracle):
    """Bit for bit on the rows where the kernels are evaluated, every row on a
    cell without a certified mirror; the others are mirror images, within the
    mirror tolerance of the oracle."""
    rows = _representative_rows(cell)
    return (np.array_equal(matrix[:rows], oracle[:rows])
            and np.abs(matrix - oracle).max()
            <= layer_ops._mirror_tolerance(cell.node_count) * np.abs(oracle).max())


def _same_as_per_call(cell, single, adjoint):
    return (_matches_per_call(cell, single.matrix, per_call_single_layer(cell))
            and _matches_per_call(cell, adjoint.matrix, per_call_np_adjoint(cell)))


@pytest.mark.parametrize("make_cell", SHARED_PASS_CELLS.values(), ids=SHARED_PASS_CELLS.keys())
def test_shared_pass_is_bit_identical_to_per_call_assembly(make_cell):
    cell = make_cell()
    single = assemble_single_layer(cell)
    assert layer_ops._PENDING_ADJOINT in vars(cell)
    adjoint = assemble_np_adjoint(cell)
    assert _same_as_per_call(cell, single, adjoint)
    # the cell keeps nothing once K* is taken
    assert layer_ops._PENDING_ADJOINT not in vars(cell)


def test_adjoint_first_then_single_layer():
    cell = make_ellipse_cell(0.35, 0.22, 1.0, 64)
    adjoint = assemble_np_adjoint(cell)
    single = assemble_single_layer(cell)
    assert _same_as_per_call(cell, single, adjoint)
    assert np.array_equal(assemble_np_adjoint(cell).matrix, adjoint.matrix)


def test_adjoint_after_single_layer_of_another_cell():
    # S(A), S(B), K*(A): A must not get B's K*
    a = make_ellipse_cell(0.35, 0.22, 1.0, 64)
    b = make_smooth_cell(FOURIER_COEFFS, 1.2, 64)
    single_a = assemble_single_layer(a)
    single_b = assemble_single_layer(b)
    assert _same_as_per_call(a, single_a, assemble_np_adjoint(a))
    assert _same_as_per_call(b, single_b, assemble_np_adjoint(b))


def test_same_cell_twice():
    cell = make_smooth_cell(FOURIER_COEFFS, 1.2, 64)
    first, second = assemble_single_layer(cell), assemble_single_layer(cell)
    adjoints = [assemble_np_adjoint(cell), assemble_np_adjoint(cell)]
    for single, adjoint in zip((first, second), adjoints):
        assert _same_as_per_call(cell, single, adjoint)


def test_replaced_cell_gets_its_own_matrices():
    # the negative control of validate detunes the weights of a copy
    cell = make_disk_cell(0.45, 1.0, 64)
    broken = dataclasses.replace(cell, weights=cell.weights * (1.0 + 0.03 * (-1.0) ** np.arange(64)))
    assemble_single_layer(cell)
    adjoint = assemble_np_adjoint(broken)
    assert _matches_per_call(broken, adjoint.matrix, per_call_np_adjoint(broken))
    assert not _matches_per_call(broken, adjoint.matrix, per_call_np_adjoint(cell))
    single = assemble_single_layer(broken)
    assert _same_as_per_call(broken, single, assemble_np_adjoint(broken))


# ------------------------------------------------------------ mirror group

# a mirror-symmetric curve in the range of the benchmark's shape workload
BENCH_CURVE = [0.0, 0.33, 0.012, -0.006, 0.0, 0.0, 0.008, -0.015]

# cell and the number of lattice mirrors its node data certify
GROUP_CELLS = {
    **{f"disk{n}": (lambda n=n: make_disk_cell(0.45, 1.0, n), 2) for n in (64, 128, 256, 512, 1024)},
    "ellipse": (lambda: make_ellipse_cell(0.35, 0.22, 1.0, 256), 2),
    "tall_ellipse": (lambda: make_ellipse_cell(0.3, 60.0, 1.0, 256), 2),
    "flat_ellipse": (lambda: make_ellipse_cell(0.3, 0.005, 1.0, 256), 2),
    "gap_0.01_n512": (lambda: make_disk_cell(0.45, 0.91, 512), 2),
    "disk_node0_on_top": (lambda: make_smooth_cell([0.0, 0.45j, 0.0], 1.0, 256), 2),
    "disk130": (lambda: make_disk_cell(0.45, 1.0, 130), 1),
    "bench_curve": (lambda: make_smooth_cell(BENCH_CURVE, 1.3, 128), 1),
    "bench_curve+1e-2": (lambda: perturb_normal(make_smooth_cell(BENCH_CURVE, 1.3, 128), 1e-2), 1),
    "bench_curve-1e-2": (lambda: perturb_normal(make_smooth_cell(BENCH_CURVE, 1.3, 128), -1e-2), 1),
}


def _trivial_group_pass(cell):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(layer_ops, "_mirror_count", lambda cell: 0)
        return assemble_single_layer(cell).matrix, assemble_np_adjoint(cell).matrix


@pytest.mark.parametrize("name", GROUP_CELLS)
def test_group_path_matches_the_trivial_group_pass(name):
    make_cell, mirrors = GROUP_CELLS[name]
    cell = make_cell()
    n = cell.node_count
    assert layer_ops._mirror_count(cell) == mirrors
    single, adjoint = assemble_single_layer(cell), assemble_np_adjoint(cell)
    assert single.mirrors == adjoint.mirrors == mirrors
    single, adjoint = single.matrix, adjoint.matrix
    tolerance = layer_ops._mirror_tolerance(n)
    for matrix, oracle in zip((single, adjoint), _trivial_group_pass(cell)):
        assert np.abs(matrix - oracle).max() <= tolerance * np.abs(oracle).max()
        # rows past the representatives are exact mirror images of theirs
        j = np.arange(n)
        h, q = n // 2, n // 4
        assert np.array_equal(matrix[h + 1:], matrix[h - 1:0:-1][:, -j % n])
        if mirrors == 2:
            assert np.array_equal(matrix[q + 1:h + 1], matrix[q - 1::-1][:, (h - j) % n])


def _mirror_images(cell):
    """P: j -> -j, and M: j -> n/2 - j where the node data certify it."""
    n = cell.node_count
    j = np.arange(n)
    return [-j % n, (n // 2 - j) % n][:max(layer_ops._mirror_count(cell), 1)]


def _bound_covers_the_matrices(cell):
    """The node bound against the measured max |A - g A g| / max |A| of the whole-pass S and K*."""
    matrices = _trivial_group_pass(cell)
    return all(np.abs(A - A[np.ix_(g, g)]).max() / np.abs(A).max() <= layer_ops._node_defect(cell, g)
               for g in _mirror_images(cell) for A in matrices)


@pytest.mark.parametrize("name", GROUP_CELLS)
def test_node_bound_covers_the_matrix_defect(name):
    # the node bound is the one certificate of the group: it must hold over
    # the defect the matrices it spares from assembly actually have
    assert _bound_covers_the_matrices(GROUP_CELLS[name][0]())


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(n=st.sampled_from([64, 96, 128, 256]), c1=st.floats(0.25, 0.35),
       odd=st.tuples(st.floats(-0.02, 0.02), st.floats(-0.02, 0.02)),
       even=st.one_of(st.just((0.0, 0.0)),
                      st.tuples(st.floats(-0.015, 0.015), st.floats(-0.015, 0.015))))
def test_node_bound_covers_the_matrix_defect_on_real_fourier_curves(n, c1, odd, even):
    # real coefficients mirror the curve about the grating's direction, and
    # without even orders about its normal too; the normal perturbations
    # resample the curve, which leaves round-off in both mirrors
    coeffs = np.zeros(8)
    coeffs[[1, 7, 3, 2, 6]] = c1, *odd, *even
    cell = make_smooth_cell(coeffs, 1.3, n)
    for eta in (0.0, 1e-2, -1e-2):
        assert _bound_covers_the_matrices(perturb_normal(cell, eta) if eta else cell)


def _shifted_disk(n):
    return make_smooth_cell([0.0, 0.45 * np.exp(2j * np.pi / n), 0.0], 1.0, n)


@pytest.mark.parametrize("make_cell", [
    lambda: make_smooth_cell(FOURIER_COEFFS, 1.2, 128),
    lambda: _shifted_disk(256),
], ids=["fourier", "disk_shifted_by_one_node"])
def test_cells_without_a_mirror_keep_the_triangle_pass(make_cell):
    cell = make_cell()
    n = cell.node_count
    assert layer_ops._mirror_count(cell) == 0
    assert layer_ops._node_defect(cell, -np.arange(n) % n) >= 1e6 * layer_ops._mirror_tolerance(n)
    assert np.array_equal(assemble_single_layer(cell).matrix, per_call_single_layer(cell))
    assert np.array_equal(assemble_np_adjoint(cell).matrix, per_call_np_adjoint(cell))


def _moved_node(cell, delta):
    nodes = cell.nodes.copy()
    nodes[1, 0] += delta
    return dataclasses.replace(cell, nodes=nodes)


def test_node_asymmetry_just_above_the_bound_falls_back():
    # moving node 1 along xi1 breaks both mirrors; bisect for the shift at
    # which the node bound reaches the tolerance
    cell = make_disk_cell(0.45, 1.0, 256)
    n = cell.node_count
    tolerance = layer_ops._mirror_tolerance(n)
    image = -np.arange(n) % n
    lo, hi = 0.0, 1e-9
    assert layer_ops._node_defect(_moved_node(cell, hi), image) > tolerance
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if layer_ops._node_defect(_moved_node(cell, mid), image) <= tolerance:
            lo = mid
        else:
            hi = mid
    # the bound trips at a shift of about 1e-13 of the node spacing
    spacing = np.abs(np.diff(cell.nodes_complex)).min()
    assert 1e-15 < hi / spacing < 1e-11
    below, above = _moved_node(cell, 0.99 * hi), _moved_node(cell, 1.01 * hi)
    assert layer_ops._mirror_count(below) == 2
    assert layer_ops._mirror_count(above) == 0
    single, adjoint = assemble_single_layer(above), assemble_np_adjoint(above)
    assert np.array_equal(single.matrix, per_call_single_layer(above))
    assert np.array_equal(adjoint.matrix, per_call_np_adjoint(above))


@pytest.mark.parametrize("name", ["nodes", "normals", "curvatures", "weights"])
def test_replaced_node_data_are_certified_again(cold_caches, monkeypatch, name):
    # the certificate is kept per node data: the same disk at another period
    # reuses it, a copy with any array _node_defect reads replaced is
    # certified again (node 1 moved off the mirror of node n - 1)
    calls = []
    defect = layer_ops._node_defect
    monkeypatch.setattr(layer_ops, "_node_defect",
                        lambda cell, image: calls.append(cell) or defect(cell, image))
    cell = make_disk_cell(0.45, 1.0, 256)
    assert layer_ops._mirror_count(cell) == 2 and len(calls) == 2
    assert layer_ops._mirror_count(make_disk_cell(0.45, 1.7, 256)) == 2 and len(calls) == 2
    values = getattr(cell, name).copy()
    values.flat[2] *= 1.0 + 1e-6
    moved = dataclasses.replace(cell, **{name: values})
    assert layer_ops._mirror_count(moved) == 0 and len(calls) == 3
    assert layer_ops._mirror_count(cell) == 2 and len(calls) == 3


def test_log_quadrature_rows_equal_the_row_built_afresh(cold_caches):
    for n in (64, 256, 64):
        rule = log_quadrature_matrix(n)
        symbol = np.zeros(n // 2 + 1)
        symbol[1:-1] = -1.0 / np.arange(1, n // 2)
        symbol[-1] = -2.0 / n
        row = np.fft.irfft(symbol, n)
        assert np.array_equal(rule, row[(np.arange(n)[:, None] - np.arange(n)) % n])
        assert np.array_equal(log_quadrature_matrix(n, 5), rule[:5])
        assert rule.flags.writeable
    assert layer_ops._reversed_row_twice.cache_info().misses == 2


def _pair_offsets(cell):
    """u, v and 4 sin^2((t_i - t_j)/2) of the pairs i < j, and of nodes 0..n/4 against the rest."""
    n = cell.node_count
    scale = np.pi / cell.period_ratio
    x, y = cell.nodes[:, 0], cell.nodes[:, 1]
    canonical = 4.0 * np.sin(np.pi * np.arange(n) / n) ** 2
    i, j = np.triu_indices(n, 1)
    r = n // 4 + 1
    lag = np.lib.stride_tricks.sliding_window_view(canonical, n - r)[r:0:-1]
    return [((x[i] - x[j]) * scale, (y[i] - y[j]) * scale, canonical[j - i]),
            ((x[:r, None] - x[r:]) * scale, (y[:r, None] - y[r:]) * scale, lag)]


@pytest.mark.parametrize("make_cell", [
    lambda: make_disk_cell(0.45, 1.0, 256),
    lambda: make_smooth_cell(FOURIER_COEFFS, 1.2, 128),
    lambda: make_ellipse_cell(0.3, 60.0, 1.0, 256),
], ids=["disk", "fourier", "tall_ellipse"])
def test_pair_kernels_bit_identical_to_the_allocating_kernels(make_cell):
    cell = make_cell()
    for u, v, lag in _pair_offsets(cell):
        expected = allocating_kernels.pair_kernels(u, v, lag, cell.period_ratio)
        got = layer_ops._pair_kernels(u.copy(), v.copy(), lambda: lag, cell.period_ratio)
        for a, b in zip(got, expected):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()


def _tangent_factor_points():
    """0, +-pi/2 and |u| -> pi as doubles, with their neighbouring doubles."""
    points = []
    for centre in (0.0, np.pi / 2, -np.pi / 2, np.pi, -np.pi):
        below = above = centre
        for _ in range(4):
            below, above = np.nextafter(below, -np.inf), np.nextafter(above, np.inf)
            points += [below, above]
        points.append(centre)
    # |u| < pi: the double nearest pi is below it and stays, those above go
    return np.array([u for u in points if abs(u) <= np.pi])


def test_tangent_factors_within_four_ulp_of_mpmath():
    u = _tangent_factor_points()
    assert 0.0 in u and np.pi in u and -np.pi in u
    sin2, sin_cos = layer_ops._tangent_factors(u.copy())
    with mpmath.workprec(120):
        for k, point in enumerate(u):
            x = mpmath.mpf(float(point))
            for got, exact in ((sin2[k], mpmath.sin(x) ** 2),
                               (sin_cos[k], mpmath.sin(x) * mpmath.cos(x))):
                ulp = np.spacing(abs(float(exact)))
                assert abs(float(mpmath.mpf(float(got)) - exact)) <= 4.0 * ulp, (point, got)


@pytest.mark.parametrize("make_cell", [
    lambda: make_disk_cell(0.45, 1.0, 256),
    lambda: make_ellipse_cell(0.35, 0.22, 1.0, 256),
    lambda: make_smooth_cell(FOURIER_COEFFS, 1.2, 128),
    lambda: make_ellipse_cell(0.3, 60.0, 1.0, 256),
    # neighbours across a gap of 0.01: u of those pairs approaches +-pi
    lambda: make_disk_cell(0.495, 1.0, 256),
], ids=["disk", "ellipse", "fourier", "tall_ellipse", "disk_gap_0.01"])
def test_tangent_form_matches_the_sin_cos_formula(make_cell):
    # measured: S within 1.8e-16 of max |S|, K* within 5.1e-15 of max |K*|
    # (the ellipse); the mirror images of the representatives' rows are
    # compared by the bit-for-bit tests
    cell = make_cell()
    rows = _representative_rows(cell)
    for matrix, oracle, tolerance in (
            (assemble_single_layer(cell).matrix, per_call_single_layer(cell, sin_cos_factors), 1e-15),
            (assemble_np_adjoint(cell).matrix, per_call_np_adjoint(cell, sin_cos_factors), 2e-14)):
        assert np.abs(matrix[:rows] - oracle[:rows]).max() <= tolerance * np.abs(oracle).max()


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
    K = np_matrix(adjoint)
    one = np.ones(disk256.node_count)
    assert np.abs(K @ one - 0.5).max() < 1e-12


def test_calderon_identity(disk256_ops, disk256):
    single, adjoint = disk256_ops
    K = np_matrix(adjoint)
    resid = K @ single.matrix - single.matrix @ adjoint.matrix
    assert weighted_norm(resid, disk256.weights) < 1e-10


def test_calderon_identity_ellipse(ellipse128):
    single = assemble_single_layer(ellipse128)
    adjoint = assemble_np_adjoint(ellipse128)
    K = np_matrix(adjoint)
    resid = K @ single.matrix - single.matrix @ adjoint.matrix
    assert weighted_norm(resid, ellipse128.weights) < 1e-10


def test_calderon_residual_decays_spectrally():
    # halving the node count should cost many digits on an analytic curve
    resids = []
    for n in (16, 32, 64):
        cell = make_ellipse_cell(0.3, 0.2, 1.0, n)
        single = assemble_single_layer(cell)
        adjoint = assemble_np_adjoint(cell)
        K = np_matrix(adjoint)
        resid = K @ single.matrix - single.matrix @ adjoint.matrix
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
        phi = np.cos(m * parameter_grid(cell))
        assert np.abs(S @ phi + (a / (2 * m)) * phi).max() < 1e-6
    one = np.ones(n)
    expected = a * np.log(a) + const * 2 * np.pi * a
    assert np.abs(S @ one - expected).max() < 1e-6


def test_single_layer_self_convergence():
    # doubling the node count: compare S[phi] at the shared nodes
    coeffs = [0.0, 0.3, 0.06]
    cell1 = make_ellipse_cell(0.36, 0.24, 1.0, 64)
    cell2 = make_ellipse_cell(0.36, 0.24, 1.0, 128)
    t1, t2 = parameter_grid(cell1), parameter_grid(cell2)
    phi1 = np.cos(t1) + 0.3 * np.sin(2 * t1)
    phi2 = np.cos(t2) + 0.3 * np.sin(2 * t2)
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
    K = np_matrix(adjoint)
    double = assemble_double_layer(disk256)
    assert np.abs(double - K).max() < 1e-12


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
    zf = evaluate(disk256.parametrization, tf)
    dzf = evaluate(disk256.parametrization, tf, order=1)
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
    phi = np.cos(parameter_grid(disk256))
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
    phi = np.cos(parameter_grid(disk256))
    p = np.array([0.1, 0.9])
    h = 1e-3
    ev = lambda q: evaluate_single_layer_off_surface(disk256, phi, q)
    lap = (ev(p + [h, 0]) + ev(p - [h, 0]) + ev(p + [0, h]) + ev(p - [0, h]) - 4 * ev(p)) / h**2
    assert abs(lap) < 1e-6


def test_off_surface_far_field_constant_for_zero_mean(disk256):
    # zero-mean density: no linear growth, field tends to a constant
    phi = np.cos(parameter_grid(disk256))
    phi -= (disk256.weights @ phi) / disk256.weights.sum()
    v1 = evaluate_single_layer_off_surface(disk256, phi, [0.2, 6.0])
    v2 = evaluate_single_layer_off_surface(disk256, phi, [-0.3, 9.0])
    assert abs(v1 - v2) < 1e-12


def test_off_surface_too_close_rejected(disk256):
    phi = np.cos(parameter_grid(disk256))
    x0 = disk256.nodes[0] + 1e-4 * disk256.normals[0]
    with pytest.raises(DomainError, match="within one node spacing .* of the boundary"):
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
    _, _, dens = _upsampled(cell, density(parameter_grid(cell)), factor)
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
