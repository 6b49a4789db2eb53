import numpy as np
import pytest

from metastrain import (
    CapsuleState,
    axes_from_perimeter,
    deformation_index,
    invert_peak_to_deformation,
    peak_vs_period,
    perimeter,
    stretch_ratio,
)
from metastrain.errors import CalibrationError, DomainError, MetastrainError, OutOfRangeError
from metastrain.resonance_sweep import CalibrationRow, CalibrationTable

R = 1e-6


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
        CapsuleState.from_perimeter(r, 1256, P)


def test_capsule_state_invariants():
    state = CapsuleState.from_perimeter(R, 600, 1.5 * 2 * np.pi * R)
    assert state.L1 * state.L2 == pytest.approx(R**2, rel=1e-10)
    assert state.P == pytest.approx(state.N * state.d, rel=1e-10)
    assert 0.0 <= state.D < 1.0
    assert state.theta == 0.0
    with pytest.raises(ValueError):
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
    with pytest.raises(OutOfRangeError) as info:
        invert_peak_to_deformation(7.0e-7, table, r=9.9e-7, N=1256, delta_phys=5e-9)
    assert info.value.lo == pytest.approx(8.0e-7)
    assert info.value.hi == pytest.approx(1.4e-6)


def test_invert_rejects_non_monotone_table():
    table = synthetic_table([1.0, 1.5, 2.0], [1.4e-6, 1.0e-6, 1.2e-6])
    with pytest.raises(CalibrationError):
        invert_peak_to_deformation(1.1e-6, table, r=9.9e-7, N=1256, delta_phys=5e-9)


def test_invert_rejects_incomplete_table():
    rows = (CalibrationRow(period=1.0, peak_wavelength=1.4e-6, peak_magnitude=1.0, mode_index=1),
            CalibrationRow(period=1.5, peak_wavelength=None, peak_magnitude=None,
                           mode_index=None, note="missing"))
    from metastrain.dispersion import MaterialParams

    table = CalibrationTable(rows=rows, radius=0.45, node_count=64, wavelength_min=0.0,
                             wavelength_max=2e-6, samples=10, material=MaterialParams())
    with pytest.raises(CalibrationError):
        invert_peak_to_deformation(1.2e-6, table, r=9.9e-7, N=1256, delta_phys=5e-9)


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
    expected = CapsuleState.from_perimeter(r, N, N * target_period * delta)
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
    lambda: perimeter(-R, R),
    lambda: stretch_ratio(R, 0.5 * R),
    lambda: CapsuleState(r=R, N=10, L1=2 * R, L2=R, D=0.3, P=1.0, d=0.1),
    lambda: CapsuleState(r=R, N=10, L1=2 * R, L2=R / 2, D=0.6, P=1.0, d=0.2),
    lambda: CapsuleState(r=R, N=10, L1=2 * R, L2=R / 2, D=1.5, P=1.0, d=0.1),
], ids=["index_axes", "perimeter_axes", "stretch_axis", "area", "spacing", "index_range"])
def test_domain_errors_are_package_errors(call):
    with pytest.raises(DomainError) as info:
        call()
    assert isinstance(info.value, MetastrainError) and isinstance(info.value, ValueError)
