import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import metastrain
from metastrain.cli import main

FAST_CONFIG = {
    "geometry": {"shape": "disk", "radius": 0.45, "period": 1.0, "node_count": 64},
    "sweep": {"wavelength_min_m": 6.5e-7, "wavelength_max_m": 1.7e-6, "samples": 120,
              "periods": [1.0, 1.5, 2.0]},
    "capsule": {"radius_m": 9.9e-7, "particle_count": 1256, "particle_scale_m": 5e-9},
}


def write_config(tmp_path, extra=None):
    cfg = json.loads(json.dumps(FAST_CONFIG))
    if extra:
        for key, section in extra.items():
            cfg.setdefault(key, {}).update(section)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def read_rows(path):
    with open(path) as stream:
        lines = [line for line in stream if not line.startswith("#")]
    return list(csv.DictReader(lines))


def test_eigs_command(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "eigs"]) == 0
    rows = read_rows(out / "eigs.csv")
    assert len(rows) == 64
    assert abs(float(rows[0]["lambda_j"]) - 0.5) < 1e-8
    header = (out / "eigs.csv").read_text().splitlines()
    assert any(line.startswith("# config =") for line in header)


def test_eigs_default_config_first_row(tmp_path):
    # default geometry is the 256-node disk; keep it but run in a tmp dir
    out = tmp_path / "out"
    assert main(["--out", str(out), "eigs"]) == 0
    rows = read_rows(out / "eigs.csv")
    assert abs(float(rows[0]["lambda_j"]) - 0.5) < 1e-8


def test_malformed_config_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["--config", str(bad), "eigs"]) == 2
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"geometry": {"shape": "pentagon"}}))
    assert main(["--config", str(unknown), "eigs"]) == 2
    overlap = tmp_path / "overlap.json"
    overlap.write_text(json.dumps({"geometry": {"shape": "disk", "radius": 0.6,
                                                "period": 1.0, "node_count": 64}}))
    assert main(["--config", str(overlap), "eigs"]) == 2


def test_sweep_and_calibration(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "sweep"]) == 0
    for period in (1.0, 1.5, 2.0):
        rows = read_rows(out / f"sweep_period_{period:g}.csv")
        assert len(rows) == 120
    header = (out / "calibration.csv").read_text()
    assert "# monotone = True" in header
    rows = read_rows(out / "calibration.csv")
    lams = [float(r["peak_wavelength_m"]) for r in rows]
    assert lams == sorted(lams, reverse=True)


@pytest.mark.parametrize("extra", [
    {"material": {"eps_m_rel": float("nan")}},
    {"sweep": {"wavelength_max_m": float("inf")}},
    {"sweep": {"periods": [1.0, float("inf")]}},
    {"geometry": {"shape": "fourier",
                  "fourier_coefficients": [[0.0, 0.0], [0.3, 0.0], [float("nan"), 0.0]]}},
    {"capsule": {"radius_m": 10**400}},
], ids=["nan_material", "inf_wavelength", "inf_period", "nan_fourier", "int_beyond_float"])
def test_non_finite_config_numbers_rejected(tmp_path, capsys, extra):
    # json writes and reads the NaN / Infinity literals
    cfg = write_config(tmp_path, extra)
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "sweep"]) == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("periods", ["1,nan", "1,inf", "1.0,-1.5", "0"])
def test_sweep_periods_flag_validated(tmp_path, capsys, periods):
    cfg = write_config(tmp_path)
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out"), "sweep",
                 f"--periods={periods}"]) == 2
    assert "--periods" in capsys.readouterr().err


def test_sweep_empty_window_rejected(tmp_path):
    cfg = write_config(tmp_path, {"sweep": {"wavelength_min_m": 2e-6,
                                            "wavelength_max_m": 1e-6}})
    assert main(["--config", str(cfg), "eigs"]) == 2


@pytest.mark.parametrize("command", ["sweep", "scatter"])
@pytest.mark.parametrize("material", [
    {"eps_m_rel": 1e-320},
    {"mu_m_rel": 1e-320},
    {"plasma_frequency_rad_per_s": 1e300},
    {"collision_time_s": 1e-300},
], ids=["eps_underflows", "mu_underflows", "omega_p_squared_overflows",
        "damping_squared_overflows"])
def test_material_not_representable_in_si_is_a_config_error(tmp_path, capsys, material,
                                                            command):
    # these used to end in a ValueError or OverflowError traceback, or in a
    # RuntimeWarning and a misleading "mu_m equals mu_c" numerical failure
    cfg = write_config(tmp_path, {"material": material})
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), command]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: material section invalid:") and err.count("\n") == 1
    assert not out.exists()


def test_missing_capsule_radius_rejected(tmp_path):
    cfg = write_config(tmp_path, {"capsule": {"radius_m": None}})
    assert main(["--config", str(cfg), "scatter"]) == 2


def test_sweep_determinism(tmp_path):
    cfg = write_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["--config", str(cfg), "--out", str(out1), "sweep"]) == 0
    assert main(["--config", str(cfg), "--out", str(out2), "sweep"]) == 0
    for name in ("sweep_period_1.csv", "calibration.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_scatter_and_beta_zero(tmp_path):
    cfg = write_config(tmp_path, {"sweep": {"samples": 40}})
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "scatter", "--beta-zero"]) == 0
    rows = read_rows(out / "extinction.csv")
    assert all(float(r["extinction"]) == 0.0 for r in rows)
    assert main(["--config", str(cfg), "--out", str(out), "scatter"]) == 0
    rows = read_rows(out / "extinction.csv")
    assert all(float(r["extinction"]) >= float(r["scattering"]) for r in rows)


@pytest.mark.parametrize("window", [{}, {"wavelength_min_m": 1e-9, "wavelength_max_m": 2e-9}],
                         ids=["int64_overflow", "infinite"])
def test_scatter_oversized_capsule_is_a_domain_error(tmp_path, capsys, window):
    # k r ~ 1e307 used to wrap the mode truncation and write all-zero widths;
    # k r = inf used to end in a ValueError traceback
    cfg = write_config(tmp_path, {"capsule": {"radius_m": 1e300},
                                  "sweep": {"samples": 16, **window},
                                  "geometry": {"node_count": 32}})
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "scatter"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("domain error:") and err.count("\n") == 1
    assert not (out / "extinction.csv").exists()


def test_scatter_tiny_capsule_is_a_domain_error(tmp_path, capsys):
    # k r ~ 1e-23: Y_n overflows below the mode truncation; this used to write
    # NaN widths with a RuntimeWarning and exit 0
    cfg = write_config(tmp_path, {"capsule": {"radius_m": 1e-30},
                                  "sweep": {"samples": 16}, "geometry": {"node_count": 32}})
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "scatter"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("domain error: size parameter k * r =") and err.count("\n") == 1
    assert not (out / "extinction.csv").exists()


def test_scatter_ladder_over_memory_budget_is_a_domain_error(tmp_path, capsys):
    # a 1 m capsule has k r ~ 1e7: its Bessel ladder would need ~10 GB, and it
    # is refused before anything of that size is allocated
    cfg = write_config(tmp_path, {"capsule": {"radius_m": 1.0},
                                  "sweep": {"samples": 16}, "geometry": {"node_count": 32}})
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "scatter"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("domain error: size parameter k * r =") and err.count("\n") == 1
    assert "Bessel ladder would need" in err
    assert not (out / "extinction.csv").exists()


def test_scatter_extinction_peak_matches_sweep_peak(tmp_path):
    cfg = write_config(tmp_path, {"sweep": {"samples": 200, "periods": [1.0]}})
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "sweep"]) == 0
    assert main(["--config", str(cfg), "--out", str(out), "scatter"]) == 0
    sweep_rows = read_rows(out / "sweep_period_1.csv")
    mags = np.array([float(r["magnitude"]) for r in sweep_rows])
    ext = np.array([float(r["extinction"]) for r in read_rows(out / "extinction.csv")])
    assert abs(int(np.argmax(mags)) - int(np.argmax(ext))) <= 1


def test_invert_round_trip_and_errors(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "sweep"]) == 0
    rows = read_rows(out / "calibration.csv")
    knot = rows[1]
    peak_nm = float(knot["peak_wavelength_m"]) * 1e9
    assert main(["--config", str(cfg), "--out", str(out), "invert",
                 "--peak-wavelength-nm", str(peak_nm)]) == 0
    # out-of-range peak
    assert main(["--config", str(cfg), "--out", str(out), "invert",
                 "--peak-wavelength-nm", "130.0"]) == 3


def test_invert_knot_exact_period(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    main(["--config", str(cfg), "--out", str(out), "sweep"])
    rows = read_rows(out / "calibration.csv")
    knot = rows[1]
    capsys.readouterr()
    main(["--config", str(cfg), "--out", str(out), "invert",
          "--peak-wavelength-nm", str(float(knot["peak_wavelength_m"]) * 1e9)])
    printed = capsys.readouterr().out
    d_line = next(line for line in printed.splitlines() if line.startswith("d_m"))
    d_value = float(d_line.split("=")[1])
    assert d_value == pytest.approx(float(knot["period"]) * 5e-9, rel=1e-9)


@pytest.mark.parametrize("capsule", [
    {"radius_m": 1e-12, "particle_count": 1256, "particle_scale_m": 1e-3},
    {"radius_m": 1e-200},
], ids=["deformation_rounds_to_one", "minor_axis_underflows"])
def test_invert_extreme_capsule_is_a_domain_error(tmp_path, capsys, capsule):
    # these used to end in a ValueError traceback from CapsuleState
    out = tmp_path / "out"
    assert main(["--config", str(write_config(tmp_path)), "--out", str(out), "sweep"]) == 0
    capsys.readouterr()
    cfg = write_config(tmp_path, {"capsule": capsule})
    assert main(["--config", str(cfg), "--out", str(out), "invert",
                 "--peak-wavelength-nm", "1000"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("domain error:") and err.count("\n") == 1


def test_invert_missing_calibration(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["--config", str(cfg), "--out", str(tmp_path / "nowhere"), "invert",
                 "--peak-wavelength-nm", "900"]) == 3


@pytest.mark.parametrize("table", [
    "period,peak_magnitude,mode_index\n1.0,2.5,0\n",
    "period,peak_wavelength_m,peak_magnitude,mode_index\n1.0,abc,2.5,0\n",
    "period,peak_wavelength_m,peak_magnitude,mode_index\n1.0,9e-07\n",
    "period,peak_wavelength_m,peak_magnitude,mode_index\n1.0,9e-07,2.5,0\nnan,8e-07,2.5,0\n",
    "period,peak_wavelength_m,peak_magnitude,mode_index\n1.0,9e-07,2.5,0\n-1.5,8e-07,2.5,0\n",
    "period,peak_wavelength_m,peak_magnitude,mode_index\n1.0,inf,2.5,0\n1.5,8e-07,2.5,0\n",
], ids=["missing_column", "non_numeric_cell", "short_row", "nan_period", "negative_period",
        "inf_peak"])
def test_invert_rejects_malformed_calibration(tmp_path, capsys, table):
    cfg = write_config(tmp_path)
    path = tmp_path / "calibration.csv"
    path.write_text("# radius = 0.45\n" + table)
    assert main(["--config", str(cfg), "--out", str(tmp_path), "invert",
                 "--peak-wavelength-nm", "900", "--calibration", str(path)]) == 3
    assert "calibration file" in capsys.readouterr().err


def test_invert_csv_output(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    main(["--config", str(cfg), "--out", str(out), "sweep"])
    rows = read_rows(out / "calibration.csv")
    peak_nm = float(rows[1]["peak_wavelength_m"]) * 1e9
    assert main(["--config", str(cfg), "--out", str(out), "invert",
                 "--peak-wavelength-nm", str(peak_nm), "--csv"]) == 0
    record = read_rows(out / "deformation.csv")[0]
    assert float(record["D"]) >= 0.0
    assert float(record["L1_m"]) * float(record["L2_m"]) == pytest.approx(
        float(record["r_m"]) ** 2, rel=1e-9)


def test_validate_command_passes(tmp_path, capsys):
    cfg = write_config(tmp_path, {"geometry": {"node_count": 96}})
    code = main(["--config", str(cfg), "validate"])
    printed = capsys.readouterr().out
    assert code == 0
    assert "FAIL" not in printed
    assert "selected sign convention: corrected" in printed
    assert "alpha1_mirror_symmetry" in printed
    assert printed.splitlines()[-1] == "17/17 checks passed"


def test_validate_negative_control(tmp_path, capsys):
    cfg = write_config(tmp_path, {"geometry": {"node_count": 96}})
    code = main(["--config", str(cfg), "validate", "--break-quadrature"])
    printed = capsys.readouterr().out
    assert code == 4
    assert any(line.startswith("FAIL") and "calderon" in line for line in printed.splitlines())


def test_validate_asymmetric_fourier_curve_passes(tmp_path, capsys):
    # one complex coefficient breaks the up-down symmetry: the first corrector
    # has a non-zero far-field limit, checked against the off-surface field
    coeffs = [[0.0, 0.0], [0.3, 0.0], [0.03, 0.01]] + [[0.0, 0.0]] * 5
    cfg = write_config(tmp_path, {"geometry": {"shape": "fourier", "fourier_coefficients": coeffs,
                                               "period": 1.2, "node_count": 128}})
    code = main(["--config", str(cfg), "validate"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    names = [line.split()[1] for line in lines[:-1]]
    assert "alpha1_mirror_symmetry" not in names
    assert "alpha1_far_field_limits" in names
    assert lines[-1] == f"{len(names)}/{len(names)} checks passed"


def test_validate_disk_with_node0_on_top_passes(tmp_path, capsys):
    # the node mirror j -> -j is xi1 -> -xi1 here, so nu2 is even under it:
    # the far-field and moment checks fail if its moments are cleared as odd
    cfg = write_config(tmp_path, {"geometry": {
        "shape": "fourier", "fourier_coefficients": [[0.0, 0.0], [0.0, 0.45], [0.0, 0.0]],
        "period": 1.0, "node_count": 128}})
    code = main(["--config", str(cfg), "validate"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    names = [line.split()[1] for line in lines[:-1]]
    assert "moment_identity" in names and "alpha_far_field_limits" in names
    assert lines[-1] == f"{len(names)}/{len(names)} checks passed"


def test_unresolved_mode_above_one_half_exits_4(tmp_path, capsys):
    # at a gap of 0.005, n = 256 gives a zero-mean eigenvalue of 0.512: no
    # sweep peak can be trusted, while a gap of 0.01 still resolves
    cfg = write_config(tmp_path, {"geometry": {"node_count": 256}})
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "sweep", "--periods", "0.905"]) == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "lambda_1 = 0.51" in err
    assert not (out / "calibration.csv").exists()
    assert main(["--config", str(cfg), "--out", str(out), "sweep", "--periods", "0.91"]) == 0
    # validate still prints its report and names the failing checks
    capsys.readouterr()
    cfg = write_config(tmp_path, {"geometry": {"node_count": 256, "period": 0.905}})
    assert main(["--config", str(cfg), "validate"]) == 4
    failed = [line.split()[1] for line in capsys.readouterr().out.splitlines()
              if line.startswith("FAIL")]
    assert "spectrum_containment" in failed and "alpha_far_field_limits" in failed


@pytest.mark.parametrize("command", ["sweep", "validate"])
def test_curve_traversed_twice_is_a_config_error(tmp_path, capsys, command):
    coeffs = [[0.0, 0.0], [0.0, 0.0], [0.3, 0.0], [0.0, 0.0], [0.0, 0.0]]
    cfg = write_config(tmp_path, {"geometry": {"shape": "fourier", "fourier_coefficients": coeffs,
                                               "period": 1.2, "node_count": 128}})
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out"), command]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "turns 2 times" in err


def test_ellipse_and_fourier_geometry(tmp_path):
    cfg = write_config(tmp_path, {"geometry": {"shape": "ellipse", "semi_axis_1": 0.35,
                                               "semi_axis_2": 0.22, "node_count": 64,
                                               "period": 1.0}})
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "eigs"]) == 0
    coeffs = [[0.0, 0.0], [0.3, 0.0], [0.05, 0.0]]
    cfg2 = write_config(tmp_path, {"geometry": {"shape": "fourier",
                                                "fourier_coefficients": coeffs,
                                                "node_count": 64, "period": 1.0}})
    assert main(["--config", str(cfg2), "--out", str(out), "eigs"]) == 0


def run_fresh(code: str) -> str:
    """Stdout of ``code`` run in a fresh interpreter that imports this checkout."""
    env = {**os.environ, "PYTHONPATH": str(Path(metastrain.__file__).parents[1])}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True).stdout


def test_import_leaves_heavy_scipy_modules_unloaded():
    # importing the package and its CLI loads no scipy module at all:
    # scipy.linalg comes with the first decomposition, scipy.special with the
    # first extinction spectrum, scipy.interpolate with the first inversion
    code = ("import sys, metastrain, metastrain.cli; "
            "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])")
    assert run_fresh(code).strip() == "[]"


def test_first_decomposition_loads_scipy_linalg(disk256_dec):
    code = ("import sys, metastrain; "
            "dec = metastrain.decompose(metastrain.make_disk_cell(0.45, 1.0, 256)); "
            "print('scipy.linalg' in sys.modules); print(dec.eigenvalues.tobytes().hex())")
    loaded, eigenvalues = run_fresh(code).split()
    assert loaded == "True"
    assert bytes.fromhex(eigenvalues) == disk256_dec.eigenvalues.tobytes()


@pytest.mark.parametrize("command, extra", [
    ("eigs", {"geometry": {"node_count": 512}}),
    ("validate", {"geometry": {"node_count": 512}}),
    ("sweep", {"sweep": {"samples": 20000}}),
    ("scatter", {"sweep": {"samples": 20000}}),
], ids=["eigs_nodes", "validate_nodes", "sweep_samples", "scatter_samples"])
def test_working_set_over_budget_is_a_domain_error(tmp_path, capsys, monkeypatch, command, extra):
    # a 10 MiB budget stands in for the real one, so that a broken guard
    # allocates tens of MiB rather than gigabytes
    from metastrain import spectral

    monkeypatch.setattr(spectral, "_WORKING_SET_BYTES_MAX", 10 * 2**20)
    cfg = write_config(tmp_path, extra)
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), command]) == 3
    err = capsys.readouterr().err
    assert err.startswith("domain error: node_count") and err.count("\n") == 1
    assert not out.exists()


def test_working_set_counts_samples_only_where_swept(tmp_path, monkeypatch):
    from metastrain import spectral

    monkeypatch.setattr(spectral, "_WORKING_SET_BYTES_MAX", 10 * 2**20)
    cfg = write_config(tmp_path, {"sweep": {"samples": 20000}})
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out"), "eigs"]) == 0
