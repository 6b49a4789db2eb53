import dataclasses
import re

import numpy as np
import pytest

from metastrain import invert_peak_to_deformation, peak_vs_period
from metastrain.errors import DomainError, MetastrainError, OutOfRangeError
from metastrain.resonance_sweep import CalibrationRow, CalibrationTable
from metastrain.strain import (
    CapsuleState,
    _pchip,
    _peak_to_period,
    axes_from_perimeter,
    deformation_index,
)

from curve_oracles import perimeter

R = 1e-6


def stretch_ratio(r: float, L1: float) -> float:
    """Perimeter ratio of the area-conserving ellipse with major axis L1 to the circle."""
    if L1 < r:
        raise DomainError("major axis cannot be smaller than the undeformed radius")
    return perimeter(L1, r**2 / L1) / (2.0 * np.pi * r)


def test_deformation_index_values():
    assert deformation_index(R, R) == 0.0
    assert deformation_index(3 * R, R / 3) == pytest.approx(0.8, abs=1e-15)
    # scale invariance
    assert deformation_index(5 * 3 * R, 5 * R / 3) == pytest.approx(0.8, abs=1e-15)
    with pytest.raises(ValueError):
        deformation_index(R, -R)
    with pytest.raises(ValueError):
        deformation_index(R, 2 * R)


def test_perimeter_formula():
    assert perimeter(R, R) == pytest.approx(2 * np.pi * R, rel=1e-15)
    expected = np.pi * np.sqrt(2) * R * np.sqrt(9 + 1 / 9)
    assert perimeter(3 * R, R / 3) == pytest.approx(expected, rel=1e-15)
    # monotone in each axis
    assert perimeter(2 * R, R) > perimeter(1.5 * R, R) > perimeter(1.5 * R, 0.8 * R)


def test_stretch_ratio_threefold():
    assert abs(stretch_ratio(R, 3 * R) - 2.13) <= 0.005
    assert stretch_ratio(R, R) == pytest.approx(1.0, rel=1e-15)
    with pytest.raises(ValueError):
        stretch_ratio(R, 0.5 * R)


def test_stretch_ratio_monotone():
    grid = np.linspace(R, 4 * R, 25)
    vals = [stretch_ratio(R, L1) for L1 in grid]
    assert np.all(np.diff(vals) > 0)


def test_axes_round_trip():
    for L1 in np.linspace(R, 5 * R, 17):
        P = perimeter(L1, R**2 / L1)
        L1_back, L2_back = axes_from_perimeter(R, P)
        assert L1_back == pytest.approx(L1, abs=1e-10 * R)
        assert L1_back * L2_back == pytest.approx(R**2, rel=1e-12)


def test_axes_from_perimeter_circle():
    L1, L2 = axes_from_perimeter(R, 2 * np.pi * R)
    assert L1 == pytest.approx(R, rel=1e-12)
    assert L2 == pytest.approx(R, rel=1e-12)


def test_axes_from_threefold_stretch():
    P = 2.13 * 2 * np.pi * R
    L1, L2 = axes_from_perimeter(R, P)
    assert L1 == pytest.approx(3 * R, rel=5e-3)
    assert L2 == pytest.approx(R / 3, rel=5e-3)


def test_axes_infeasible_perimeter():
    with pytest.raises(OutOfRangeError):
        axes_from_perimeter(R, 0.9 * 2 * np.pi * R)


@pytest.mark.parametrize("r, P", [
    (1e-12, 1.66),      # L2 ~ 3e-24 m is below one ulp of L1 ~ 0.37 m: D rounds to 1
    (1e-200, 8.3e-6),   # r^2 underflows to 0, and with it L2
    (1e-6, np.inf),     # L1 overflows
], ids=["deformation_rounds_to_one", "minor_axis_underflows", "major_axis_overflows"])
def test_unresolved_axes_out_of_range(r, P):
    with pytest.raises(OutOfRangeError):
        axes_from_perimeter(r, P)
    with pytest.raises(OutOfRangeError):
        CapsuleState(r, 1256, P)


def test_capsule_state_invariants():
    P = 1.5 * 2 * np.pi * R
    state = CapsuleState(R, 600, P)
    assert (state.L1, state.L2) == axes_from_perimeter(R, P)
    assert state.D == deformation_index(state.L1, state.L2)
    assert state.d == P / 600
    assert state.L1 * state.L2 == pytest.approx(R**2, rel=1e-10)
    assert state.P == pytest.approx(state.N * state.d, rel=1e-10)
    assert 0.0 <= state.D < 1.0
    assert [f.name for f in dataclasses.fields(state)] == ["r", "N", "L1", "L2", "D", "P", "d"]
    # the axes, the index and the spacing follow from r, N and P: no state can disagree
    with pytest.raises(TypeError):
        CapsuleState(r=R, N=10, L1=2 * R, L2=R, D=0.3, P=1.0, d=0.1)


def synthetic_table(periods, wavelengths):
    rows = tuple(CalibrationRow(period=p, peak_wavelength=w, peak_magnitude=1.0, mode_index=1)
                 for p, w in zip(periods, wavelengths))
    from metastrain.dispersion import MaterialParams

    return CalibrationTable(rows=rows, radius=0.45, node_count=64,
                            wavelength_min=min(wavelengths), wavelength_max=max(wavelengths),
                            samples=100, material=MaterialParams())


def test_invert_at_knot_recovers_exact_period():
    periods = [1.0, 1.2, 1.4, 1.6, 1.8, 2.0]
    lams = [1.4e-6, 1.1e-6, 9.9e-7, 9.2e-7, 8.7e-7, 8.3e-7]
    delta = 5e-9
    N = 1256
    r = 9.9e-7
    table = synthetic_table(periods, lams)
    state = invert_peak_to_deformation(1.1e-6, table, r=r, N=N, delta_phys=delta)
    assert state.d == pytest.approx(1.2 * delta, rel=1e-12)
    assert state.P == pytest.approx(N * 1.2 * delta, rel=1e-12)


def test_invert_out_of_range():
    table = synthetic_table([1.0, 1.5, 2.0], [1.4e-6, 1.0e-6, 8.0e-7])
    with pytest.raises(OutOfRangeError, match=re.escape("[8e-07, 1.4e-06]")):
        invert_peak_to_deformation(7.0e-7, table, r=9.9e-7, N=1256, delta_phys=5e-9)


def test_invert_reads_a_peak_one_ulp_beside_an_end_knot_as_that_knot():
    table = synthetic_table([1.0, 1.5, 2.0], [1.4e-6, 1.0e-6, 8.0e-7])
    for knot, period, outward in ((8.0e-7, 2.0, -np.inf), (1.4e-6, 1.0, np.inf)):
        one_ulp = np.nextafter(knot, outward)
        assert _invert(one_ulp, table).d == _invert(knot, table).d == period * 5e-9
        two_ulps = np.nextafter(one_ulp, outward)
        message = f"peak wavelength {float(two_ulps)!r} m outside"
        with pytest.raises(OutOfRangeError, match=re.escape(message)):
            _invert(two_ulps, table)


def test_invert_rejects_non_monotone_table():
    table = synthetic_table([1.0, 1.5, 2.0], [1.4e-6, 1.0e-6, 1.2e-6])
    with pytest.raises(OutOfRangeError, match="not strictly monotone in wavelength"):
        invert_peak_to_deformation(1.1e-6, table, r=9.9e-7, N=1256, delta_phys=5e-9)


def test_invert_rejects_incomplete_table():
    rows = (CalibrationRow(period=1.0, peak_wavelength=1.4e-6, peak_magnitude=1.0, mode_index=1),
            CalibrationRow(period=1.5, peak_wavelength=None, peak_magnitude=None,
                           mode_index=None))
    from metastrain.dispersion import MaterialParams

    table = CalibrationTable(rows=rows, radius=0.45, node_count=64, wavelength_min=0.0,
                             wavelength_max=2e-6, samples=10, material=MaterialParams())
    with pytest.raises(OutOfRangeError, match=re.escape("without a peak at periods [1.5]")):
        invert_peak_to_deformation(1.2e-6, table, r=9.9e-7, N=1256, delta_phys=5e-9)


def _pchip_tables():
    rng = np.random.default_rng(5)
    for _ in range(20):  # monotone 5-knot tables shaped like a calibration
        x = np.sort(rng.uniform(8e-7, 1.4e-6, 5))
        yield x, 1.0 + np.cumsum(rng.uniform(0.05, 0.3, 5)) * rng.choice([-1.0, 1.0])
    yield np.array([9e-7, 1.1e-6]), np.array([2.0, 1.0])              # a line
    yield np.array([9e-7, 1.0e-6, 1.3e-6]), np.array([2.0, 1.6, 1.0])
    yield np.array([0.0, 1.0, 2.0, 3.0]), np.array([1.0, 1.0, 2.0, 2.5])  # a flat segment
    # m_0 = 1, m_1 = -5: the three-point end slope 4 is clipped to 3 m_0
    yield np.array([0.0, 1.0, 2.0, 3.0]), np.array([0.0, 1.0, -4.0, -4.5])


@pytest.mark.parametrize("x, y", list(_pchip_tables()))
def test_pchip_matches_scipy(x, y):
    from scipy.interpolate import PchipInterpolator

    at = np.concatenate([x, np.linspace(x[0], x[-1], 41)])
    ours = np.array([_pchip(x, y)(a) for a in at])
    np.testing.assert_allclose(ours, PchipInterpolator(x, y)(at), rtol=1e-15, atol=0.0)


def _invert(peak, table):
    return invert_peak_to_deformation(peak, table, r=9.9e-7, N=1256, delta_phys=5e-9)


def test_alternating_tables_invert_like_fresh_calls():
    first = synthetic_table([1.0, 1.2, 1.4, 1.6], [1.4e-6, 1.1e-6, 9.9e-7, 9.2e-7])
    second = synthetic_table([1.0, 1.5, 2.0], [1.3e-6, 1.0e-6, 8.5e-7])
    peaks = [1.05e-6, 1.2e-6, 9.5e-7]
    fresh = {}
    for name, table in (("first", first), ("second", second)):
        for peak in peaks:
            _peak_to_period.cache_clear()
            fresh[name, peak] = _invert(peak, table)
    _peak_to_period.cache_clear()
    for _ in range(2):
        for peak in peaks:
            assert _invert(peak, first) == fresh["first", peak]
            assert _invert(peak, second) == fresh["second", peak]


def test_one_map_per_table():
    table = synthetic_table([1.0, 1.5, 2.0], [1.3e-6, 1.0e-6, 8.5e-7])
    _peak_to_period.cache_clear()
    for peak in (9.0e-7, 1.0e-6, 1.1e-6, 1.2e-6):
        _invert(peak, table)
    info = _peak_to_period.cache_info()
    assert (info.misses, info.hits) == (1, 3)


@pytest.mark.parametrize("rows", [
    ((1.0, 1.4e-6), (1.5, None), (2.0, 9.0e-7)),
    ((1.0, 1.4e-6), (1.5, 1.0e-6), (2.0, 1.2e-6)),
], ids=["incomplete", "not_monotone"])
def test_rejected_table_raises_on_every_call(rows):
    bad = CalibrationTable(
        rows=tuple(CalibrationRow(period=p, peak_wavelength=w, peak_magnitude=1.0, mode_index=1)
                   for p, w in rows),
        radius=0.45, node_count=64, wavelength_min=0.0, wavelength_max=2e-6, samples=10,
        material=synthetic_table([1.0, 2.0], [1.0e-6, 9.0e-7]).material)
    good = synthetic_table([1.0, 1.5, 2.0], [1.3e-6, 1.0e-6, 8.5e-7])
    for _ in range(3):
        with pytest.raises(OutOfRangeError, match="^calibration "):
            _invert(1.1e-6, bad)
        _invert(1.1e-6, good)
        with pytest.raises(OutOfRangeError, match="^calibration "):
            _invert(1.1e-6, bad)


def test_forward_inverse_round_trip(water_gold):
    # oracle: run the forward pipeline at an off-knot period, invert its peak
    # through a 9-point calibration, and compare deformation indices
    delta = 5e-9
    N = 1256
    r = 0.995 * N * 1.2 * delta / (2 * np.pi)  # feasible for periods >= 1.2
    periods = np.linspace(1.2, 2.0, 9)
    window = (7.5e-7, 1.1e-6)
    table = peak_vs_period(0.45, periods, water_gold, *window, samples=600, node_count=96)
    assert table.is_monotone()

    target_period = 1.55
    probe = peak_vs_period(0.45, [target_period], water_gold, *window,
                           samples=600, node_count=96)
    peak = probe.rows[0].peak_wavelength

    state = invert_peak_to_deformation(peak, table, r=r, N=N, delta_phys=delta)
    expected = CapsuleState(r, N, N * target_period * delta)
    assert state.D == pytest.approx(expected.D, abs=1e-3)


def test_composite_map_monotone(water_gold):
    # L1 -> peak wavelength through perimeter, spacing and the spectral pipeline
    delta = 5e-9
    N = 1256
    r = 0.995 * N * 1.2 * delta / (2 * np.pi)
    periods = np.linspace(1.2, 2.0, 5)
    window = (7.5e-7, 1.1e-6)
    table = peak_vs_period(0.45, periods, water_gold, *window, samples=400, node_count=96)
    lams = table.peak_wavelengths()
    L1s = [axes_from_perimeter(r, N * p * delta)[0] for p in periods]
    assert np.all(np.diff(L1s) > 0)
    assert np.all(np.diff(lams) < 0)


@pytest.mark.parametrize("call", [
    lambda: deformation_index(R, -R),
    lambda: stretch_ratio(R, 0.5 * R),
], ids=["index_axes", "stretch_axis"])
def test_domain_errors_are_package_errors(call):
    with pytest.raises(DomainError) as info:
        call()
    assert isinstance(info.value, MetastrainError) and isinstance(info.value, ValueError)
