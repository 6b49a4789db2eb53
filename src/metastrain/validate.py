"""Invariant suite behind the ``validate`` command.

Runs the operator identities (Calderon, traces, row sums), the spectral
invariants, the far-field cross-checks of the corrector fields and the
shape derivative against finite differences, and reports one pass/fail line
per check.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .errors import MetastrainError
from .geometry import CellGeometry, make_ellipse_cell
from .layer_ops import (
    BoundaryOperator,
    assemble_np_adjoint,
    assemble_single_layer,
    evaluate_single_layer_off_surface,
    value_from_delta,
)
from .shape_deriv import validate_shape_derivative
from .spectral import (
    SpectralDecomposition,
    alpha_field,
    alpha_infinity,
    decompose,
    eigendecompose,
)

PROBE_CONTRAST = 0.8
FAR_FIELD_HEIGHT = 8.0
# parameter fractions t/2pi of the finite-difference trace check's probe nodes
PROBE_FRACTIONS = (1.0 / 16.0, 5.0 / 32.0)
# distances along the normal in units of the local radius of curvature; the
# stencils reach 1.5 times the last one, 1/30 of the radius
FD_LADDER = np.array([6.0, 9.0, 12.0, 16.0, 20.0]) / 900.0
# floor of that radius in mean node spacings: the upsampling stays at most
# 900 / FD_MIN_RADIUS_SPACINGS = 225
FD_MIN_RADIUS_SPACINGS = 4.0
ROUND_OFF_SHARE = 1e-3  # residuals below this share of their tolerance print as a bound


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    residual: float
    tolerance: float
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f"  {self.detail}" if self.detail else ""
        # a residual far below its tolerance is round-off: print a bound, so that
        # stdout does not follow the last bits of the arithmetic
        bound = ROUND_OFF_SHARE * self.tolerance
        residual = (f"residual<{bound:<9.1e}" if self.residual < bound
                    else f"residual={self.residual:9.3e}")
        return f"{status}  {self.name:<28s} {residual} tol={self.tolerance:.1e}{extra}"


def neville_to_zero(xs, ys):
    """Value at x = 0 of the polynomial through the samples (xs, ys); complex ys stay complex."""
    ys = list(ys)
    xs = list(xs)
    n = len(xs)
    for m in range(1, n):
        for i in range(n - m):
            ys[i] = ((0.0 - xs[i + m]) * ys[i] + xs[i] * ys[i + 1]) / (xs[i] - xs[i + m])
    return ys[0]


def probe_nodes(node_count: int) -> list[int]:
    """Nodes nearest the parameter fractions PROBE_FRACTIONS.

    They are the same curve points for every node count that the fractions'
    denominators divide.
    """
    return [round(f * node_count) % node_count for f in PROBE_FRACTIONS]


def fd_distances(cell: CellGeometry, node: int) -> np.ndarray:
    """FD_LADDER scaled to the radius of curvature at the node.

    The ladder's truncation error scales with a power of distance over
    radius, so a fixed ladder fails where the curve bends tightly.  The
    radius is capped at P/(2 pi), the radius of a disk of the same perimeter,
    so a flat stretch keeps a ladder short against the whole curve.  It is
    floored at FD_MIN_RADIUS_SPACINGS mean node spacings P/n, which bounds
    the upsampling the innermost distance calls for; on a bend tighter than
    that the ladder reaches past 1/30 of the radius and the check reports
    the truncation error it then makes.
    """
    radius = cell.perimeter / (2.0 * np.pi)
    curvature = abs(float(cell.curvatures[node]))
    if curvature * radius > 1.0:
        radius = 1.0 / curvature
    radius = max(radius, FD_MIN_RADIUS_SPACINGS * cell.perimeter / cell.node_count)
    return FD_LADDER * radius


def off_surface_normal_derivative(cell: CellGeometry, density: np.ndarray, node: int,
                                  side: int):
    """Limit of the normal derivative of S[density] from one side of the boundary.

    Fourth-order finite differences along the normal at a ladder of distances
    (:func:`fd_distances`), extrapolated to the boundary.  ``side`` is +1 for
    the exterior limit and -1 for the interior one.  A complex density gives
    a complex limit.
    """
    distances = fd_distances(cell, node)
    # keep the effective node spacing well below the innermost stencil point
    innermost = float(np.min(distances)) / 2.0
    needed = int(np.ceil(3.0 * cell.perimeter / (innermost * cell.node_count)))
    upsample = max(32, needed)
    x0 = cell.nodes[node]
    nu = cell.normals[node]
    steps = distances / 4.0
    points = [x0 + side * (d + s * h) * nu
              for d, h in zip(distances, steps) for s in (-2, -1, 1, 2)]
    stencils = evaluate_single_layer_off_surface(cell, density, points, upsample=upsample)
    values = [side * (f[0] - 8 * f[1] + 8 * f[2] - f[3]) / (12.0 * h)
              for f, h in zip(stencils.reshape(-1, 4), steps)]
    return neville_to_zero(distances, values)


def _up_down_symmetric(cell: CellGeometry) -> bool:
    """Whether a reflection xi2 -> 2c - xi2 maps node j onto node (s - j) mod n for some s.

    Only then does the first corrector's far-field limit vanish by symmetry.
    """
    z = cell.nodes_complex
    n = z.size
    tol = 1e-12 * np.abs(z - z.mean()).max()
    j = np.arange(n)
    for s in np.flatnonzero(np.abs(z.real - z.real[0]) <= tol):
        gap = z[(s - j) % n] - np.conj(z)
        if np.abs(gap.real).max() <= tol and np.ptp(gap.imag) <= tol:
            return True
    return False


def broken_copy(cell: CellGeometry) -> CellGeometry:
    """The cell with detuned quadrature weights: the suite's negative control."""
    bad = cell.weights * (1.0 + 0.03 * np.where(np.arange(cell.node_count) % 2 == 0, 1.0, -1.0))
    return dataclasses.replace(cell, weights=bad)


def _far_field_checks(dec: SpectralDecomposition) -> list[CheckResult]:
    """alpha^(l)(xi) high above and below the grating against the mode-sum limits."""
    cell = dec.cell
    try:
        limits = alpha_infinity(dec, PROBE_CONTRAST)
    except MetastrainError as exc:  # e.g. a zero-mean mode at or above 1/2
        return [CheckResult("alpha_far_field_limits", False, np.inf, 0.0, detail=str(exc))]
    results = []
    if _up_down_symmetric(cell):
        # from the moments as computed: the decomposition sets those that a
        # mirror makes round-off to exact zeros, and with them every nu1 nu2
        # product, so its own alpha1 vanishes by construction
        computed = dec.eigendensities.T @ (dec.gram @ cell.normals)
        uncleared = dataclasses.replace(dec, moments_nu1=computed[:, 0],
                                        moments_nu2=computed[:, 1])
        a1 = abs(alpha_infinity(uncleared, PROBE_CONTRAST).alpha1_plus)
        results.append(CheckResult("alpha1_mirror_symmetry", a1 < 1e-8, a1, 1e-8,
                                   detail="up-down symmetric cell"))
    far_tol = max(10.0 * np.exp(-2.0 * np.pi * FAR_FIELD_HEIGHT / cell.period_ratio), 5e-11)
    for name, component, plus, minus in (
            ("alpha1_far_field_limits", 1, limits.alpha1_plus, limits.alpha1_minus),
            ("alpha_far_field_limits", 2, limits.alpha2_plus, limits.alpha2_minus)):
        up, down = alpha_field(dec, PROBE_CONTRAST, component,
                               [[0.0, FAR_FIELD_HEIGHT], [0.0, -FAR_FIELD_HEIGHT]])
        far = float(max(abs(up - plus), abs(down - minus)))
        results.append(CheckResult(name, far < far_tol, far, far_tol))
    return results


def trace_check(adjoint: BoundaryOperator) -> CheckResult:
    """Jump relations dS[phi]/dnu = (+-1/2 + K*)[phi] from either side, phi = nu2.

    The one-sided limits come from finite differences off the surface at the
    probe nodes; their difference must also equal phi there.
    """
    cell = adjoint.cell
    n = cell.node_count
    resid = 0.0
    phi = cell.normals[:, 1]
    plus = (0.5 * np.eye(n) + adjoint.matrix) @ phi
    minus = (-0.5 * np.eye(n) + adjoint.matrix) @ phi
    for node in probe_nodes(n):
        fd_plus = off_surface_normal_derivative(cell, phi, node, +1)
        fd_minus = off_surface_normal_derivative(cell, phi, node, -1)
        resid = max(resid, abs(fd_plus - plus[node]), abs(fd_minus - minus[node]),
                    abs((fd_plus - fd_minus) - phi[node]))
    return CheckResult("trace_formulae_fd", resid < 1e-6, resid, 1e-6)


def run_validation(cell: CellGeometry) -> list[CheckResult]:
    results: list[CheckResult] = []
    n = cell.node_count
    L = cell.period_ratio
    w = cell.weights

    # geometry: closed-curve quadrature identities
    closure = float(np.abs(w @ cell.normals).max())
    results.append(CheckResult("geometry_closure", closure < 1e-10, closure, 1e-10))
    unit = float(np.abs(np.hypot(cell.normals[:, 0], cell.normals[:, 1]) - 1.0).max())
    results.append(CheckResult("geometry_frame", unit < 1e-13, unit, 1e-13))

    single = assemble_single_layer(cell)
    adjoint = assemble_np_adjoint(cell)
    # K, the weighted transpose of K*: exact in the discrete arclength pairing
    k_matrix = adjoint.matrix.T * (w[None, :] / w[:, None])

    sw = np.sqrt(w)
    resid_mat = k_matrix @ single.matrix - single.matrix @ adjoint.matrix
    calderon = float(np.linalg.norm((sw[:, None] * resid_mat) / sw[None, :], 2))
    results.append(CheckResult("calderon_identity", calderon < 1e-8, calderon, 1e-8))

    k_one = float(np.abs(k_matrix @ np.ones(n) - 0.5).max())
    results.append(CheckResult("np_constant_half", k_one < 1e-8, k_one, 1e-8))

    try:
        dec = eigendecompose(single, adjoint)
    except MetastrainError as exc:
        results.append(CheckResult("eigendecomposition", False, np.inf, 0.0, detail=str(exc)))
        return results

    lam0 = float(abs(dec.eigenvalues[0] - 0.5))
    results.append(CheckResult("lambda0_half", lam0 < 1e-8, lam0, 1e-8))
    contain = float(max(dec.eigenvalues.max() - 0.5, -0.5 - dec.eigenvalues.min(), 0.0))
    results.append(CheckResult("spectrum_containment", contain < 1e-6, contain, 1e-6))
    dens = dec.eigendensities[:, 1:]
    ortho_resid = float(np.abs(dens.T @ dec.gram @ dens - np.eye(n - 1)).max())
    results.append(CheckResult("hstar_orthonormality", ortho_resid < 1e-8, ortho_resid, 1e-8))
    zero_mean = float(np.abs(w @ dens).max())
    results.append(CheckResult("eigendensity_zero_mean", zero_mean < 1e-8, zero_mean, 1e-8))

    z2 = cell.nodes[:, 1]
    moment_resid = 0.0
    for j in range(1, min(11, dec.mode_count)):
        lhs = (0.5 - dec.eigenvalues[j]) * (w @ (dec.eigendensities[:, j] * z2))
        moment_resid = max(moment_resid, abs(lhs - dec.moments_nu2[j]))
    results.append(CheckResult("moment_identity", moment_resid < 1e-6, moment_resid, 1e-6))

    results.extend(_far_field_checks(dec))

    results.append(trace_check(adjoint))

    # the lattice Green's function at complex separations xi1 + i*xi2, in cell
    # units: G(L z, L) - G(z, 1) is a constant, so the stencil of step h L gives
    # L^2 times the Laplacian, a residual independent of the cell's scale
    h = 1e-4
    g = value_from_delta(L * (0.21 + 0.33j + h * np.array([1.0, -1.0, 1j, -1j, 0.0])), L)
    lap = (g[0] + g[1] + g[2] + g[3] - 4.0 * g[4]) / h**2
    results.append(CheckResult("green_harmonic_fd", abs(lap) < 1e-5, abs(lap), 1e-5))
    g = value_from_delta(np.array([0.3 * L + L + 0.2j * L, 0.3 * L + 0.2j * L]), L)
    period_shift = abs(g[0] - g[1])
    results.append(CheckResult("green_periodicity", period_shift < 1e-12, period_shift, 1e-12))
    t_far = 8.0 * L
    far_gap = abs(value_from_delta(1j * t_far, L)
                  - (t_far / (2.0 * L) - np.log(2.0) / (2.0 * np.pi)))
    results.append(CheckResult("green_far_field", far_gap < 1e-12, far_gap, 1e-12))

    ellipse = decompose(make_ellipse_cell(0.35, 0.22, 1.0, 96))
    report = validate_shape_derivative(ellipse, j=ellipse.dominant_mode(), eta_ladder=[1e-2, 1e-3])
    slope_err = abs(report.fd_slope - report.predicted_slope)
    scale = max(abs(report.fd_slope), 1e-30)
    results.append(CheckResult("shape_derivative", report.converging and slope_err / scale < 1e-3,
                               slope_err / scale, 1e-3))
    return results
