import numpy as np
import pytest

from metastrain import assemble_np_adjoint, make_disk_cell, make_ellipse_cell, make_smooth_cell
from metastrain import layer_ops, validate
from metastrain.validate import (
    FD_LADDER,
    FD_MIN_RADIUS_SPACINGS,
    PROBE_FRACTIONS,
    CheckResult,
    _up_down_symmetric,
    broken_copy,
    fd_distances,
    off_surface_normal_derivative,
    probe_nodes,
    run_validation,
    trace_check,
)


@pytest.mark.parametrize("cell, symmetric", [
    (make_disk_cell(0.45, 1.0, 64), True),
    (make_ellipse_cell(0.35, 0.22, 1.0, 64), True),
    # raised by 0.1 and started a quarter turn later: mirror line xi2 = 0.1,
    # node j pairs with node (n/2 - j)
    (make_smooth_cell([0.1j, 0.3j, 0.0, 0.0, 0.05j], 1.0, 64), True),
    (make_smooth_cell([0.0, 0.3, 0.03 + 0.01j], 1.2, 64), False),
    # ellipse tilted by 45 degrees
    (make_smooth_cell([0.0, 0.3, 0.0, 0.0, 0.0, 0.0, 0.05j], 1.0, 64), False),
    # egg r = 0.3 + 0.05 sin(theta): left-right symmetric only
    (make_smooth_cell([0.025j, 0.3, -0.025j, 0.0, 0.0], 1.0, 64), False),
], ids=["disk", "ellipse", "raised_rotated", "complex_coefficient", "tilted_ellipse",
        "egg"])
def test_up_down_symmetry_read_from_nodes(cell, symmetric):
    assert _up_down_symmetric(cell) is symmetric


def test_round_off_residual_prints_as_a_bound():
    # below 1e-3 of the tolerance the residual's digits are round-off
    line = CheckResult("alpha_far_field_limits", True, 6.662e-16, 5e-11).line()
    assert line == "PASS  alpha_far_field_limits       residual<5.0e-14   tol=5.0e-11"


def test_residual_near_tolerance_prints_its_value():
    line = CheckResult("trace_formulae_fd", False, 2.388e-06, 1e-6, detail="x").line()
    assert line == "FAIL  trace_formulae_fd            residual=2.388e-06 tol=1.0e-06  x"
    assert "residual=      inf" in CheckResult("eigendecomposition", False, np.inf, 0.0).line()


def test_alpha1_mirror_check_reads_the_moments_as_computed(disk128_dec):
    # the decomposition of a mirrored disk clears every nu1 nu2 product to
    # an exact 0; the check sums the products of the computed moments, so its
    # residual is round-off rather than 0 by construction
    from metastrain.validate import _far_field_checks

    assert np.count_nonzero(disk128_dec.moments_nu1 * disk128_dec.moments_nu2) == 0
    check = _far_field_checks(disk128_dec)[0]
    assert check.name == "alpha1_mirror_symmetry" and check.passed
    assert 0.0 < check.residual < 1e-12


@pytest.mark.parametrize("n", [96, 128, 256, 384])
def test_trace_check_passes_on_the_ellipse(n):
    # a ladder fixed in length reached 0.22 of the ellipse's smallest radius of
    # curvature and failed at n = 96, 256 and 384, where node 17 sat near it
    results = {r.name: r for r in run_validation(make_ellipse_cell(0.35, 0.22, 1.0, n))}
    trace = results["trace_formulae_fd"]
    assert trace.passed and trace.residual < 1e-7


def _wider_mirrored_curve(rng):
    """Real coefficients c_1, c_2, c_3, c_-1, c_-2 in FFT order, 0.05 inside the strip."""
    t = np.linspace(0.0, 2.0 * np.pi, 2048, endpoint=False)
    k = np.rint(np.fft.fftfreq(8) * 8)
    while True:
        coeffs = np.zeros(8)
        coeffs[[1, 2, 3, 7, 6]] = rng.uniform([0.25, -0.04, -0.02, -0.06, -0.03],
                                              [0.4, 0.04, 0.02, 0.06, 0.03])
        period = rng.uniform(1.0, 1.6)
        if np.abs((np.exp(1j * np.outer(t, k)) @ coeffs).real).max() < period / 2.0 - 0.05:
            return coeffs, period


def test_trace_check_passes_on_wider_mirrored_curves():
    rng = np.random.default_rng(20)
    for _ in range(10):
        coeffs, period = _wider_mirrored_curve(rng)
        check = trace_check(assemble_np_adjoint(make_smooth_cell(coeffs, period, 256)))
        assert check.passed and check.residual < 1e-7, (coeffs, period, check.residual)


@pytest.mark.parametrize("n", [96, 128, 256, 384])
def test_probes_sit_at_fixed_parameter_fractions(n):
    cell = make_ellipse_cell(0.35, 0.22, 1.0, n)
    assert np.allclose(cell.t[probe_nodes(n)], [2.0 * np.pi * f for f in PROBE_FRACTIONS],
                       rtol=0.0, atol=1e-15)


def test_fd_ladder_scales_with_the_radius_of_curvature():
    disk = make_disk_cell(0.45, 1.0, 64)
    ellipse = make_ellipse_cell(0.35, 0.22, 1.0, 64)
    # the ellipse bends tightest at node 0 (radius b^2/a) and least at n/4 (a^2/b),
    # where the ladder is capped by P/(2 pi), as it is everywhere on the disk
    ratio = fd_distances(ellipse, 0) / fd_distances(disk, 0)
    assert np.allclose(ratio, 0.22**2 / 0.35 / 0.45, rtol=1e-12)
    assert np.allclose(fd_distances(ellipse, 16) / fd_distances(disk, 0),
                       ellipse.perimeter / disk.perimeter, rtol=1e-12)


def test_tight_bend_at_a_probe_bounds_the_upsampling(monkeypatch):
    # a thin ellipse (radius b^2/a = 7e-5 at its tips) turned so that a tip
    # lands on the first probe: an unfloored ladder would upsample 256 nodes
    # about 7e4-fold per evaluation; the floored one fails at a bounded cost
    a, b, t0 = 0.35, 0.005, 2.0 * np.pi * PROBE_FRACTIONS[0]
    cell = make_smooth_cell([0.0, (a + b) / 2.0 * np.exp(-1j * t0),
                             (a - b) / 2.0 * np.exp(1j * t0)], 1.0, 256)
    tip = probe_nodes(256)[0]
    assert abs(cell.curvatures[tip]) == pytest.approx(a / b**2, rel=1e-9)
    assert np.allclose(fd_distances(cell, tip),
                       FD_LADDER * FD_MIN_RADIUS_SPACINGS * cell.perimeter / 256, rtol=1e-15)
    factors = []
    evaluate = validate.evaluate_single_layer_off_surface

    def recording(*args, upsample):
        factors.append(upsample)
        return evaluate(*args, upsample=upsample)

    monkeypatch.setattr(validate, "evaluate_single_layer_off_surface", recording)
    check = trace_check(assemble_np_adjoint(cell))
    assert max(factors) <= np.ceil(900.0 / FD_MIN_RADIUS_SPACINGS)
    assert not check.passed and np.isfinite(check.residual)


@pytest.mark.parametrize("side", [1, -1], ids=["exterior", "interior"])
def test_normal_derivative_upsamples_once(monkeypatch, side):
    # one upsampling of the curve and density serves all 20 stencil points;
    # the limit is the same number as from one evaluation per point
    cell = make_ellipse_cell(0.35, 0.22, 1.0, 128)
    density = cell.normals[:, 1] + 0.3j * cell.normals[:, 0]
    node = probe_nodes(cell.node_count)[0]
    factors = []
    upsampled = layer_ops._upsampled

    def counted(cell, density, factor):
        factors.append(factor)
        return upsampled(cell, density, factor)

    monkeypatch.setattr(layer_ops, "_upsampled", counted)
    limit = off_surface_normal_derivative(cell, density, node, side)
    assert len(factors) == 1
    x0, nu = cell.nodes[node], cell.normals[node]
    values = []
    for d in fd_distances(cell, node):
        h = d / 4.0
        f = [layer_ops.evaluate_single_layer_off_surface(
                 cell, density, x0 + side * (d + s * h) * nu, upsample=factors[0])
             for s in (-2, -1, 1, 2)]
        values.append(side * (f[0] - 8 * f[1] + 8 * f[2] - f[3]) / (12.0 * h))
    assert len(factors) == 21
    assert limit == validate.neville_to_zero(fd_distances(cell, node), values)


def test_negative_control_fails_the_same_checks_on_warm_caches(cold_caches):
    # the detuned weights are other node data: a run on the intact cell
    # first leaves nothing the broken run reuses in their place
    def failed(cell):
        return [r for r in run_validation(broken_copy(cell)) if not r.passed]

    cold = failed(make_disk_cell(0.45, 1.0, 96))
    assert all(r.passed for r in run_validation(make_disk_cell(0.45, 1.0, 96)))
    warm = failed(make_disk_cell(0.45, 1.0, 96))
    assert warm == cold
    assert {"calderon_identity", "trace_formulae_fd"} <= {r.name for r in warm}


def test_validation_decomposes_and_solves_each_system_once(monkeypatch):
    # the main cell, the ellipse and its four displaced copies are each
    # decomposed once; each corrector's resolvent serves both far-field points
    from metastrain import spectral

    calls = {"eigendecompose": 0, "resolvent_density": 0}

    def counted(name):
        original = getattr(spectral, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(spectral, name, counted(name))
    monkeypatch.setattr(validate, "eigendecompose", spectral.eigendecompose)
    results = run_validation(make_disk_cell(0.45, 1.0, 256))
    assert all(r.passed for r in results)
    assert calls == {"eigendecompose": 6, "resolvent_density": 2}
