import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import metastrain
from metastrain.cli import _SCHEMA, _SHAPE_KEYS, _STATE_FIELDS, main, parse_config
from metastrain.errors import ConfigError

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
    if cfg["geometry"]["shape"] != "disk":  # a radius belongs to the disk only
        del cfg["geometry"]["radius"]
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


@pytest.mark.parametrize("periods", ["1,nan", "1,inf", "1.0,-1.5", "0", ",", ""])
def test_sweep_periods_flag_validated(tmp_path, capsys, periods):
    # an empty list is refused too, not taken for an absent flag
    cfg = write_config(tmp_path)
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out"), "sweep",
                 f"--periods={periods}"]) == 2
    assert "--periods" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("raw, args, message", [
    ({"geometry": {"colour": "red"}}, ["eigs"], "unknown keys in 'geometry' section"),
    ({"geometry": {"shape": "ellipse", "semi_axis_1": 0.35}}, ["eigs"],
     "missing required key geometry.semi_axis_2"),
    ({"geometry": {"node_count": 64.0}}, ["eigs"], "geometry.node_count must be of type"),
    ([FAST_CONFIG], ["eigs"], "config root must be a JSON object"),
    ({"geometrie": {}}, ["eigs"], "unknown top-level config keys: ['geometrie']"),
    ({"sweep": {"samples": 15}}, ["sweep"], "sweep.samples must be at least 16"),
    ({"capsule": {"particle_count": 2}}, ["scatter"], "at least 3 particles"),
    ({"capsule": {"particle_scale_m": -5e-9}}, ["scatter"], "positive sizes"),
    (None, ["eigs"], "cannot read config file"),
    ({}, ["sweep", "--periods", "1,x"], "bad --periods list: '1,x'"),
    ({"geometry": None}, ["eigs"], "geometry must not be null"),
    ({"sweep": [1, 2]}, ["sweep"], "sweep must be of type <class 'dict'>, got [1, 2]"),
    ({"capsule": 3}, ["scatter"], "capsule must be of type <class 'dict'>, got 3"),
    ({"output_dir": 5}, ["eigs"], "output_dir must be of type <class 'str'>, got 5"),
    ({"output_dir": None}, ["eigs"], "output_dir must not be null"),
    ({"output_dir": [1]}, ["eigs"], "output_dir must be of type <class 'str'>, got [1]"),
    ({"geometry": {"shape": "ellipse", "semi_axis_1": 0.35, "semi_axis_2": 0.22,
                   "radius": "banana"}}, ["eigs"], "unknown keys in 'geometry' section: ['radius']"),
    ({"geometry": {"shape": "fourier", "fourier_coefficients": [[0.0, 0.0], [0.3, 0.0]],
                   "radius": 0.45}}, ["eigs"], "unknown keys in 'geometry' section: ['radius']"),
    ({"geometry": {"period": True}}, ["eigs"], "geometry.period must be of type"),
    ({"material": {"mu_m_rel": True}}, ["eigs"], "material.mu_m_rel must be of type"),
    ({"sweep": {"periods": [True, 1.5]}}, ["sweep"], "sweep.periods must be a non-empty list"),
    ({"geometry": {"node_count": 10**400}}, ["eigs"], "geometry.node_count must be finite"),
    ({"sweep": {"samples": 10**400}}, ["sweep"], "sweep.samples must be finite"),
    ({"capsule": {"particle_count": 10**400}}, ["invert", "--peak-wavelength-nm", "1000"],
     "capsule.particle_count must be finite"),
    (b"\xff\xfe{}", ["eigs"], "cannot read config file"),
    (b'{"capsule": {"particle_count": ' + b"9" * 5000 + b"}}",
     ["invert", "--peak-wavelength-nm", "1000"], "is not valid JSON"),
    (b"[" * 200_000, ["eigs"], "is not valid JSON"),
    ({"geometry": {"x" * 5000: 1}}, ["eigs"], "unknown keys in 'geometry' section: ['xxx"),
    ({}, ["sweep", "--periods", "1.0000001,1.0000002"],
     "--periods holds 1.0000001 and 1.0000002, which would both write sweep_period_1.csv"),
    ({"geometry": {"node_count": 32}, "sweep": {"samples": 16, "periods": [1.0],
                                                "wavelength_min_m": 1e-310}},
     ["sweep"], "sweep window invalid for the material"),
    ({"geometry": {"node_count": 32}, "sweep": {"samples": 16, "periods": [1.0]},
      "material": {"mu_m_rel": 1e-300}}, ["sweep"], "sweep window invalid for the material"),
    ({"geometry": {"node_count": 32}, "sweep": {"samples": 16, "periods": [1.0]},
      "material": {"plasma_frequency_rad_per_s": 1e-124}},
     ["sweep"], "sweep window invalid for the material: the contrast may reach"),
    ({"material": {"eps_c_rel": 5.0}}, ["sweep"],
     "unknown keys in 'material' section: ['eps_c_rel']"),
    ({"material": {"eps_c_rel": None}}, ["sweep"],
     "unknown keys in 'material' section: ['eps_c_rel']"),
    ({"material": {"plasma_frequency_is_angular": True}}, ["sweep"],
     "unknown keys in 'material' section: ['plasma_frequency_is_angular']"),
    ({"material": {"plasma_frequency_is_angular": False}}, ["sweep"],
     "unknown keys in 'material' section: ['plasma_frequency_is_angular']"),
    ({"geometry": {"radius": 4.5e-314, "period": 1e-313}}, ["eigs"],
     "curve too small for double precision"),
    ({"geometry": {"shape": "fourier", "fourier_coefficients": [[0.0, 0.0]] * 3}}, ["eigs"],
     "degenerate parametrization"),
], ids=["unknown_key", "missing_key", "wrong_type", "root_not_object", "unknown_section",
        "too_few_samples", "too_few_particles", "negative_particle_scale", "unreadable",
        "periods_not_numbers", "null_section", "list_section", "number_section",
        "number_output_dir", "null_output_dir", "list_output_dir", "radius_of_ellipse",
        "radius_of_fourier", "boolean_period", "boolean_material", "boolean_in_periods",
        "node_count_beyond_float", "samples_beyond_float", "particle_count_beyond_float",
        "not_utf8", "integer_beyond_parse_limit", "nested_beyond_recursion_limit",
        "long_unknown_key", "periods_sharing_a_file", "omega_overflows", "omega_squared_overflows",
        "contrast_squared_overflows", "eps_c_rel", "null_eps_c_rel", "angular_plasma_frequency",
        "ordinary_plasma_frequency", "subnormal_disk", "zero_curve"])
def test_config_errors_exit_2_with_one_line(tmp_path, capsys, raw, args, message):
    # a missing file stands for an unreadable one; bytes are the file's raw
    # text; every other config is the raw JSON text, not merged into FAST_CONFIG
    path = tmp_path / "config.json"
    if isinstance(raw, bytes):
        path.write_bytes(raw)
    elif raw is not None:
        path.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert main(["--config", str(path), "--out", str(out), *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1 and message in err, err
    # a value is echoed shortened: not 10**400 with all its digits, nor a 5000-character key
    assert len(err.replace(str(path), "")) <= 200, err
    assert not out.exists()


@pytest.mark.parametrize("scale", [110, 200])
def test_huge_geometry_exits_2_with_one_line(tmp_path, capsys, scale):
    # radius 0.45 * 10**scale at period 10**scale: at 1e110 the curvature's
    # |z'|^3 overflows, at 1e200 also the area's conj(z) z'
    cfg = write_config(tmp_path, {"geometry": {"radius": 4.5 * 10.0 ** (scale - 1),
                                               "period": 10.0 ** scale, "node_count": 32}})
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "eigs"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1, err
    assert "too large for double precision" in err
    assert not (out / "eigs.csv").exists()


def test_disk_at_scale_1e103_still_runs(tmp_path):
    cfg = write_config(tmp_path, {"geometry": {"radius": 4.5e102, "period": 1e103,
                                               "node_count": 32}})
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "eigs"]) == 0
    assert len(read_rows(out / "eigs.csv")) == 32


def test_validate_stops_at_a_failed_eigendecomposition(tmp_path, capsys, monkeypatch):
    from metastrain import validate
    from metastrain.errors import QuadratureFailure

    def fail(*_):
        raise QuadratureFailure("Gram matrix -W S is not positive definite")

    monkeypatch.setattr(validate, "eigendecompose", fail)
    cfg = write_config(tmp_path, {"geometry": {"node_count": 128}})
    assert main(["--config", str(cfg), "validate"]) == 4
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[1] for line in lines[:-1]] == [
        "geometry_closure", "geometry_frame", "calderon_identity", "np_constant_half",
        "eigendecomposition"]
    assert lines[-2].startswith("FAIL  eigendecomposition")
    assert lines[-2].endswith("Gram matrix -W S is not positive definite")
    assert lines[-1] == "4/5 checks passed"


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


def test_sweep_periods_flag_is_recorded_as_the_swept_periods(tmp_path):
    # --periods resolves into the config: every header's config line lists
    # the periods swept, and the files are those of a config that lists them
    flag, listed = tmp_path / "flag", tmp_path / "listed"
    assert main(["--config", str(write_config(tmp_path)), "--out", str(flag), "sweep",
                 "--periods", "1.1,1.6"]) == 0
    cfg = write_config(tmp_path, {"sweep": {"periods": [1.1, 1.6]}})
    assert main(["--config", str(cfg), "--out", str(listed), "sweep"]) == 0
    names = sorted(path.name for path in flag.iterdir())
    assert names == ["calibration.csv", "sweep_period_1.1.csv", "sweep_period_1.6.csv"]
    for name in names:
        text = (flag / name).read_text()
        assert text == (listed / name).read_text()
        line = next(line for line in text.splitlines() if line.startswith("# config = "))
        assert json.loads(line.removeprefix("# config = "))["sweep"]["periods"] == [1.1, 1.6]


def test_collision_time_whose_square_overflows_runs_undamped(tmp_path):
    # at T = 1e155 the damping term 1/(4 T^2) underflows to zero; squaring T
    # used to overflow in an OverflowError traceback
    cfg = write_config(tmp_path, {"material": {"collision_time_s": 1e155},
                                  "geometry": {"node_count": 32},
                                  "sweep": {"samples": 16, "periods": [1.0]}})
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "sweep"]) == 0
    for name in ("sweep_period_1.csv", "calibration.csv"):
        assert all(math.isfinite(float(v)) for row in read_rows(out / name) for v in row.values())


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


@pytest.mark.parametrize("table, message", [
    ("period,peak_magnitude,mode_index\n1.0,2.5,0\n", "calibration file"),
    ("period,peak_wavelength_m,peak_magnitude,mode_index\n1.0,abc,2.5,0\n", "calibration file"),
    ("period,peak_wavelength_m,peak_magnitude,mode_index\n1.0,9e-07\n", "calibration file"),
    ("period,peak_wavelength_m,peak_magnitude,mode_index\n1.0,9e-07,2.5,0\nnan,8e-07,2.5,0\n",
     "calibration file"),
    ("period,peak_wavelength_m,peak_magnitude,mode_index\n1.0,9e-07,2.5,0\n-1.5,8e-07,2.5,0\n",
     "calibration file"),
    ("period,peak_wavelength_m,peak_magnitude,mode_index\n1.0,inf,2.5,0\n1.5,8e-07,2.5,0\n",
     "calibration file"),
    ("period,peak_wavelength_m,peak_magnitude,mode_index\n", "calibration file"),
    (b"\xff\xfe", "calibration file"),
    # peaks that fall with the period but for the repeat, which used to read D = 0.0977
    ("period,peak_wavelength_m,peak_magnitude,mode_index\n"
     "1.0,1.4e-06,2.5,0\n1.0,1.2e-06,2.5,0\n2.0,8e-07,2.5,0\n",
     "not strictly monotone in wavelength: period 1.0 is listed more than once"),
], ids=["missing_column", "non_numeric_cell", "short_row", "nan_period", "negative_period",
        "inf_peak", "no_rows", "non_utf8", "repeated_period"])
def test_invert_rejects_malformed_calibration(tmp_path, capsys, table, message):
    cfg = write_config(tmp_path)
    path = tmp_path / "calibration.csv"
    path.write_bytes(b"# radius = 0.45\n" + (table if isinstance(table, bytes) else table.encode()))
    assert main(["--config", str(cfg), "--out", str(tmp_path), "invert",
                 "--peak-wavelength-nm", "900", "--calibration", str(path)]) == 3
    err = capsys.readouterr().err
    assert message in err and err.count("\n") == 1, err


LONG_CELL = "x" * 5000


@pytest.mark.parametrize("radius, row", [
    ("0.45", f"{LONG_CELL},9e-07,2.5,0"),
    ("0.45", f"1.0,{LONG_CELL},2.5,0"),
    ("0.45", f"1.0,9e-07,2.5,{LONG_CELL}"),
    (LONG_CELL, "1.0,9e-07,2.5,0"),
    ("0.45", f"{'x' * 200_000},9e-07,2.5,0"),
], ids=["period", "peak_wavelength_m", "mode_index", "radius_header", "beyond_csv_field_limit"])
def test_invert_caps_a_long_calibration_entry(tmp_path, capsys, radius, row):
    # the offending entry is echoed capped, as config values are; a field
    # beyond the csv module's limit is a calibration error too
    cfg = write_config(tmp_path)
    path = tmp_path / "calibration.csv"
    path.write_text(f"# radius = {radius}\nperiod,peak_wavelength_m,peak_magnitude,mode_index\n"
                    f"{row}\n1.5,8e-07,2.5,0\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path), "invert",
                 "--peak-wavelength-nm", "900", "--calibration", str(path)]) == 3
    err = capsys.readouterr().err
    assert "calibration file" in err and err.count("\n") == 1, err
    assert len(err.encode()) < 300, err


def test_invert_one_period_calibration_is_a_calibration_error(tmp_path, capsys):
    # a single knot has no interpolant; it used to end in a ValueError traceback
    cfg = write_config(tmp_path)
    path = tmp_path / "calibration.csv"
    path.write_text("# radius = 0.45\nperiod,peak_wavelength_m,peak_magnitude,mode_index\n"
                    "1.0,9e-07,2.5,0\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path), "invert",
                 "--peak-wavelength-nm", "900", "--calibration", str(path)]) == 3
    err = capsys.readouterr().err
    assert "at least two periods" in err and err.count("\n") == 1


def test_invert_csv_output(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    main(["--config", str(cfg), "--out", str(out), "sweep"])
    rows = read_rows(out / "calibration.csv")
    peak_nm = float(rows[1]["peak_wavelength_m"]) * 1e9
    capsys.readouterr()
    assert main(["--config", str(cfg), "--out", str(out), "invert",
                 "--peak-wavelength-nm", str(peak_nm), "--csv"]) == 0
    # stdout and deformation.csv carry the same labels, one per CapsuleState field
    labels = [label for label, _ in _STATE_FIELDS]
    assert labels == ["r_m", "N", "d_m", "P_m", "L1_m", "L2_m", "D"]
    printed = capsys.readouterr().out.splitlines()
    assert [line.split("=")[0].strip() for line in printed[:len(labels)]] == labels
    assert not any(line.startswith("theta") for line in printed)
    record = read_rows(out / "deformation.csv")[0]
    assert list(record) == labels
    assert float(record["D"]) >= 0.0
    assert float(record["L1_m"]) * float(record["L2_m"]) == pytest.approx(
        float(record["r_m"]) ** 2, rel=1e-9)


def test_validate_command_passes(tmp_path, capsys):
    cfg = write_config(tmp_path, {"geometry": {"node_count": 96}})
    code = main(["--config", str(cfg), "validate"])
    printed = capsys.readouterr().out
    assert code == 0
    assert "FAIL" not in printed
    assert any(line.startswith("PASS  shape_derivative ") for line in printed.splitlines())
    assert "alpha1_mirror_symmetry" in printed
    assert printed.splitlines()[-1] == "17/17 checks passed"


def test_validate_small_cell_passes(tmp_path, capsys):
    # the cell problem is scale-free, and the Green's function checks take
    # their stencil and offsets in cell units
    cfg = write_config(tmp_path, {"geometry": {"radius": 4.5e-9, "period": 1e-8,
                                               "node_count": 256}})
    assert main(["--config", str(cfg), "validate"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "17/17 checks passed"


def test_validate_negative_control(tmp_path, capsys):
    cfg = write_config(tmp_path, {"geometry": {"node_count": 96}})
    code = main(["--config", str(cfg), "validate", "--break-quadrature"])
    printed = capsys.readouterr().out
    assert code == 4
    failed = [line.split()[1] for line in printed.splitlines() if line.startswith("FAIL")]
    assert "calderon_identity" in failed
    # the off-surface side integrates with the cell's own weights, interpolated
    assert "trace_formulae_fd" in failed


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
    # importing the package and its CLI loads no scipy module at all
    code = ("import sys, metastrain, metastrain.cli; "
            "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])")
    assert run_fresh(code).strip() == "[]"


def test_commands_run_without_scipy(tmp_path):
    # each command in a fresh interpreter in which importing scipy fails; it
    # exits 0 and loads no scipy module.  invert reads the calibration that
    # sweep wrote
    cfg = write_config(tmp_path, {"geometry": {"node_count": 96}})
    out = tmp_path / "out"
    commands = [["eigs"], ["sweep"], ["scatter"], ["validate"], ["invert"]]
    for command in commands:
        if command == ["invert"]:
            peak = float(read_rows(out / "calibration.csv")[1]["peak_wavelength_m"]) * 1e9
            command += ["--peak-wavelength-nm", repr(peak)]
        args = ["--config", str(cfg), "--out", str(out), *command]
        code = ("import sys; sys.modules['scipy'] = None; from metastrain.cli import main; "
                f"code = main({args!r}); "
                "print(code, [m for m, module in sys.modules.items() "
                "if m.split('.')[0] == 'scipy' and module is not None])")
        assert run_fresh(code).splitlines()[-1] == "0 []", command


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


@pytest.mark.parametrize("extra, command", [
    (None, ["sweep", "--periods", "1.0,1e165"]),
    ({"geometry": {"period": 1e200}}, ["eigs"]),
], ids=["sweep_periods", "eigs_config"])
def test_period_whose_kernels_underflow_is_a_config_error(tmp_path, capsys, extra, command):
    # (pi * node spacing / L)^2 underflows: refused before assembly, one line, no file
    cfg = write_config(tmp_path, extra)
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out)] + command) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "underflows" in err
    assert not out.exists()


@pytest.mark.parametrize("extra, command, code", [
    ({"geometry": {"radius": 0.6}}, ["eigs"], 2),
    ({"geometry": {"radius": 0.6}}, ["sweep"], 2),
    ({"geometry": {"radius": 0.6}}, ["scatter"], 2),
    ({"capsule": {"radius_m": 1e-30}}, ["scatter"], 3),
    (None, ["sweep", "--periods", "1.0,0.905"], 4),
    ({"geometry": {"period": 0.905}}, ["scatter"], 4),
    ({"capsule": {"particle_scale_m": 1e300}}, ["scatter"], 3),
    ({"sweep": {"wavelength_max_m": 2.1e264, "samples": 16},
      "capsule": {"radius_m": 1.9e-128}, "geometry": {"node_count": 32}}, ["scatter"], 3),
], ids=["eigs_overlap", "sweep_overlap", "scatter_overlap", "scatter_tiny_capsule",
        "sweep_unresolved", "scatter_unresolved", "scatter_beta_k_overflows",
        "scatter_k_r_underflows"])
def test_failed_command_makes_no_output_directory(tmp_path, capsys, extra, command, code):
    # the directory is made by the first file written, so a run that fails
    # before writing one leaves nothing behind
    cfg = write_config(tmp_path, extra)
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out)] + command) == code
    assert capsys.readouterr().err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("under", [False, True], ids=["file", "under_file"])
@pytest.mark.parametrize("command", [["eigs"], ["sweep", "--periods", "1.0"]],
                         ids=["eigs", "sweep"])
def test_out_that_cannot_be_a_directory_exits_2(tmp_path, capsys, command, under):
    # --out names a regular file, or a path under one: the file's directory
    # cannot be made, and the regular file is left as it was
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    out = afile / "sub" if under else afile
    cfg = write_config(tmp_path)
    assert main(["--config", str(cfg), "--out", str(out), *command]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot write {out}") and err.count("\n") == 1, err
    assert afile.read_text() == "kept\n"


def test_invert_with_calibration_elsewhere_makes_no_output_directory(tmp_path, capsys):
    cfg = write_config(tmp_path)
    cal = tmp_path / "cal"
    assert main(["--config", str(cfg), "--out", str(cal), "sweep", "--periods", "1.0,1.5,2.0"]) == 0
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "invert", "--peak-wavelength-nm",
                 "1000", "--calibration", str(cal / "calibration.csv")]) == 0
    assert not out.exists()
    assert main(["--config", str(cfg), "--out", str(out), "invert", "--peak-wavelength-nm",
                 "1000", "--calibration", str(cal / "calibration.csv"), "--csv"]) == 0
    assert [p.name for p in out.iterdir()] == ["deformation.csv"]
    assert capsys.readouterr().out.endswith(f"wrote {out / 'deformation.csv'}\n")


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-(10**400), 10**400)
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=4)
    | st.sampled_from(["disk", "ellipse", "fourier"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6,
)


def _section(name):
    # a section is mostly an object keyed by its own names (every shape's, for
    # the geometry), or any JSON value at all
    spec = _SCHEMA[name]
    if not isinstance(spec, dict):
        return _JSON
    names = sorted({*spec, *(key for keys in _SHAPE_KEYS.values() for key in keys)}
                   if name == "geometry" else spec)
    return st.dictionaries(st.sampled_from(names), _JSON, max_size=len(names)) | _JSON


_CONFIG = st.fixed_dictionaries({}, optional={name: _section(name) for name in _SCHEMA}) | _JSON


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(raw=_CONFIG)
def test_parse_config_refuses_any_json_with_a_config_error(raw):
    # whatever JSON the file holds, the config either parses or is a config
    # error (exit 2); no other exception reaches the user as a traceback
    try:
        parse_config(raw)
    except ConfigError:
        pass


def test_readme_defaults_block_is_the_resolved_default_config():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("The built-in defaults are:")[1].split("```json\n")[1].split("```")[0]
    assert json.loads(block) == parse_config({}).resolved


@pytest.fixture(scope="module")
def calibration(tmp_path_factory):
    """calibration.csv of FAST_CONFIG's three periods 1.0, 1.5 and 2.0."""
    root = tmp_path_factory.mktemp("calibration")
    assert main(["--config", str(write_config(root)), "--out", str(root), "sweep"]) == 0
    return root / "calibration.csv"


def test_sweep_out_of_period_order_inverts_as_the_ascending_sweep(tmp_path, capsys,
                                                                 calibration):
    # monotonicity is judged in period order: the periods swept as 2.0, 1.0,
    # 1.5 give the ascending sweep's rows, reordered, and the same record
    cfg, out = write_config(tmp_path), tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "sweep", "--periods", "2.0,1.0,1.5"]) == 0
    assert "# monotone = True" in (out / "calibration.csv").read_text().splitlines()
    ascending = read_rows(calibration)
    assert sorted(read_rows(out / "calibration.csv"),
                  key=lambda row: float(row["period"])) == ascending
    lams = [float(row["peak_wavelength_m"]) for row in ascending]
    peak_nm = repr(0.5 * (lams[0] + lams[1]) * 1e9)
    records = []
    for path in (calibration, out / "calibration.csv"):
        capsys.readouterr()
        assert main(["--config", str(cfg), "--out", str(tmp_path / "inv"), "invert",
                     "--peak-wavelength-nm", peak_nm, "--calibration", str(path)]) == 0
        records.append(capsys.readouterr().out)
    assert records[0] == records[1] and records[0].startswith("r_m ")


def test_invert_reports_an_infeasible_miscount(tmp_path, capsys, calibration):
    # at the knot of period 1.0 the 1256 particles are 5e-9 m apart, a
    # perimeter of 6.28e-6 m; the capsule of radius 9.9945e-7 m has a
    # circumference of 6.2797e-6 m, which 1255 of them cannot close around
    peak_nm = float(read_rows(calibration)[0]["peak_wavelength_m"]) * 1e9
    cfg = write_config(tmp_path, {"capsule": {"radius_m": 9.9945e-7}})
    capsys.readouterr()
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out"), "invert",
                 "--peak-wavelength-nm", repr(peak_nm), "--calibration", str(calibration)]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert float(next(line for line in printed if line.startswith("d_m")).split("=")[1]) \
        == pytest.approx(5e-9, rel=1e-9)
    assert "D_if_N-1 = infeasible" in printed
    assert float(next(line for line in printed if line.startswith("D_if_N+1")).split("=")[1]) > 0.0


# node_count and samples: valid values at 16..64 only, so that a run is quick,
# two draws in three, else a refused one (too small or negative, beyond the
# working-set budget or the float range, not an integer)
_REFUSED_COUNT = (st.integers(max_value=15) | st.integers(min_value=2**40) | st.just(10**400)
                  | _JSON.filter(lambda value: type(value) is not int))
_COUNT = st.integers(0, 2).flatmap(lambda i: _REFUSED_COUNT if i == 2 else st.integers(16, 64))
_FLOAT_ARG = (st.floats(allow_nan=True, allow_infinity=True) | st.floats(600.0, 1800.0)).map(repr)
_PERIODS_ARG = (st.lists(st.floats(0.5, 3.0) | st.floats(allow_nan=True, allow_infinity=True),
                         max_size=3).map(lambda periods: ",".join(map(repr, periods)))
                | st.text(max_size=4))


@st.composite
def _run_config(draw):
    """_CONFIG or the defaults, one draw in two, with node_count and samples from _COUNT."""
    raw = draw(st.booleans().flatmap(lambda drawn: _CONFIG if drawn else st.builds(dict)))
    if isinstance(raw, dict):
        for section, key in (("geometry", "node_count"), ("sweep", "samples")):
            fields = raw.setdefault(section, {})
            if isinstance(fields, dict):
                fields[key] = draw(_COUNT)
    return raw


@st.composite
def _command(draw):
    """A command with its own flags; every value rides in one ``--flag=value`` argument.

    A bare ``--calibration`` stands for the module's calibration file.
    """
    name = draw(st.sampled_from(["eigs", "sweep", "scatter", "invert", "validate"]))
    flags = {
        "eigs": {},
        "sweep": {"--periods": _PERIODS_ARG},
        "scatter": {"--beta-zero": st.none()},
        "invert": {"--csv": st.none(), "--calibration": st.none()},
        "validate": {"--break-quadrature": st.none()},
    }[name]
    argv = [name]
    if name == "invert":
        argv.append(f"--peak-wavelength-nm={draw(_FLOAT_ARG)}")
    for flag, value in flags.items():
        if draw(st.booleans()):
            drawn = draw(value)
            argv.append(flag if drawn is None else f"{flag}={drawn}")
    return argv


def _run_in_contract(argv) -> int:
    """main(argv)'s exit code, checked to be 0, 2, 3 or 4 with at most one stderr line,
    no traceback and no warning."""
    stderr = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        code = main(argv)
    err = stderr.getvalue()
    assert code in (0, 2, 3, 4), (code, err)
    assert err.count("\n") <= 1 and "Traceback" not in err, err
    assert not caught, [str(w.message) for w in caught]
    return code


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(raw=_run_config(), command=_command(),
       out_kind=st.sampled_from(["fresh", "file", "under_file"]))
@example(raw={"geometry": {"node_count": 64}, "sweep": {"samples": 64},
              "capsule": {"particle_count": 10**400}},
         command=["invert", "--peak-wavelength-nm=1000.0", "--calibration"], out_kind="fresh")
def test_main_keeps_its_exit_code_contract(calibration, raw, command, out_kind):
    # whatever the argv and the config, main exits 0, 2, 3 or 4 with at most
    # one stderr line, no traceback and no warning.  The example is an
    # inversion that a particle count beyond the float range would overflow
    command = [f"--calibration={calibration}" if arg == "--calibration" else arg
               for arg in command]
    with tempfile.TemporaryDirectory() as root:
        root = Path(root)
        (root / "afile").write_text("")
        out = {"fresh": root / "out", "file": root / "afile",
               "under_file": root / "afile" / "sub"}[out_kind]
        cfg = root / "config.json"
        cfg.write_text(json.dumps(raw))
        _run_in_contract(["--config", str(cfg), "--out", str(out), *command])


# a positive float drawn log-uniformly over the float range, subnormals included
_MAGNITUDE = st.floats(-323.0, 308.0).map(lambda exponent: 10.0 ** exponent)
_MAGNITUDE_KEYS = (
    ("material", "mu_m_rel"), ("material", "eps_m_rel"),
    ("material", "plasma_frequency_rad_per_s"), ("material", "collision_time_s"),
    ("sweep", "wavelength_min_m"), ("sweep", "wavelength_max_m"),
    ("capsule", "radius_m"), ("capsule", "particle_scale_m"),
    ("geometry", "radius"), ("geometry", "period"),
)


@st.composite
def _magnitude_config(draw):
    """A well-typed config at node_count 32, 16 samples and one period.

    One to three of the material constants, window ends, capsule sizes and
    the disk's radius and period are drawn, the others left at their
    defaults; a drawn window keeps min < max, and a drawn period is the one
    swept too.
    """
    raw = {"geometry": {"node_count": 32}, "sweep": {"samples": 16},
           "material": {}, "capsule": {}}
    for section, key in draw(st.sets(st.sampled_from(_MAGNITUDE_KEYS), min_size=1, max_size=3)):
        raw[section][key] = draw(_MAGNITUDE)
    window = raw["sweep"]
    if len(window) == 3:
        window["wavelength_min_m"], window["wavelength_max_m"] = sorted(
            (window["wavelength_min_m"], window["wavelength_max_m"]))
    window["periods"] = [raw["geometry"].get("period", 1.0)]
    return raw


# the examples' base: the run size at which the strategy draws
_BASE = {"geometry": {"node_count": 32}, "sweep": {"samples": 16, "periods": [1.0]}}


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(raw=_magnitude_config())
@example(raw={**_BASE, "material": {"collision_time_s": 1e155}})
@example(raw={**_BASE, "sweep": {**_BASE["sweep"], "wavelength_min_m": 1e-310}})
@example(raw={**_BASE, "material": {"mu_m_rel": 1e-300}})
@example(raw={**_BASE, "material": {"plasma_frequency_rad_per_s": 1e-124}})
@example(raw={**_BASE, "capsule": {"particle_scale_m": 1e300}})
@example(raw={**_BASE, "capsule": {"radius_m": 1e-323}})
@example(raw={**_BASE, "material": {"collision_time_s": 1e308},
              "capsule": {"particle_scale_m": 1e308}})
@example(raw={**_BASE, "sweep": {**_BASE["sweep"], "wavelength_min_m": 1e9,
                                 "wavelength_max_m": 1e10},
              "capsule": {"radius_m": 1e6, "particle_scale_m": 1e157}})
@example(raw={**_BASE, "sweep": {**_BASE["sweep"], "wavelength_min_m": 500.0,
                                 "wavelength_max_m": 700.0},
              "capsule": {"radius_m": 100.0, "particle_scale_m": 2e154}})
@example(raw={**_BASE, "geometry": {"node_count": 32, "radius": 4.5e-9, "period": 1e-8},
              "sweep": {**_BASE["sweep"], "periods": [1e-8]}})
@example(raw={**_BASE, "geometry": {"node_count": 32, "radius": 4.5e-201, "period": 1e-200},
              "sweep": {**_BASE["sweep"], "periods": [1e-200]}})
def test_sweep_and_scatter_write_finite_numbers_at_any_magnitude(raw):
    # the contract on well-typed configs whose numbers span the float range;
    # a run that succeeds writes finite numbers only, but for the NaN peak of
    # a calibration row without one, and a run that fails writes nothing.
    # The examples overflowed, or warned on the way, at T^2, omega, omega^2,
    # the contrast's square, beta*k, 2/(k r), 2 delta_phys alpha2, the mode
    # systems' |D|^2 and the widths in turn
    with tempfile.TemporaryDirectory() as root:
        root = Path(root)
        cfg = root / "config.json"
        cfg.write_text(json.dumps(raw))
        for command in ("sweep", "scatter"):
            out = root / command
            if _run_in_contract(["--config", str(cfg), "--out", str(out), command]) != 0:
                assert not out.exists()
                continue
            for path in out.iterdir():
                for row in read_rows(path):
                    if path.name == "calibration.csv" and row["peak_wavelength_m"] == "nan":
                        assert (row["peak_magnitude"], row["mode_index"]) == ("nan", "-1"), row
                        row = {"period": row["period"]}
                    assert all(math.isfinite(float(v)) for v in row.values()), (path.name, row)
