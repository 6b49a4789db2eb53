"""Configuration-driven command line front end.

Commands: ``eigs``, ``sweep``, ``scatter``, ``invert``, ``validate``.  All
numeric inputs come from a JSON config file with units spelled out in the key
names; every CSV artifact embeds the fully resolved config in its header so
runs are reproducible byte for byte.

Exit codes: 0 success, 2 config error, 3 domain/range error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import reprlib
import sys
from pathlib import Path

import numpy as np

from .capsule_scattering import extinction_spectrum
from .dispersion import MaterialParams, check_window
from .errors import (
    CalibrationError,
    ConfigError,
    DomainError,
    GeometryError,
    MetastrainError,
    OutOfRangeError,
)
from .geometry import CellGeometry, _finite, make_disk_cell, make_ellipse_cell, make_smooth_cell
from .resonance_sweep import CalibrationRow, CalibrationTable, calibrate
from .spectral import check_working_set, decompose
from .strain import CapsuleState, invert_peak_to_deformation
from .validate import broken_copy, run_validation

_NUM = (int, float)
_REQUIRED = object()

# The config schema: per section, each key's accepted types and default
# (_REQUIRED: none).  The geometry keys beyond the three common to every shape
# come from _SHAPE_KEYS.
_SCHEMA = {
    "geometry": {"shape": (str, "disk"), "period": (_NUM, 1.0), "node_count": (int, 256)},
    "material": {
        "mu_m_rel": (_NUM, 1.0),
        "eps_m_rel": (_NUM, 3.1329),
        "plasma_frequency_rad_per_s": (_NUM, 2.0e15),
        "collision_time_s": (_NUM, 1.0e-14),
    },
    "sweep": {
        "wavelength_min_m": (_NUM, 6.5e-7),
        "wavelength_max_m": (_NUM, 1.7e-6),
        "samples": (int, 400),
        "periods": (list, [1.0, 1.25, 1.5, 1.75, 2.0]),
    },
    "capsule": {
        "radius_m": (_NUM, 9.9e-7),
        "particle_count": (int, 1256),
        "particle_scale_m": (_NUM, 5.0e-9),
    },
    "output_dir": (str, "out"),
}
_SHAPE_KEYS = {
    "disk": {"radius": (_NUM, 0.45)},
    "ellipse": {"semi_axis_1": (_NUM, _REQUIRED), "semi_axis_2": (_NUM, _REQUIRED)},
    "fourier": {"fourier_coefficients": (list, _REQUIRED)},
}


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Validated run configuration, one field per config section."""

    geometry: dict
    material: dict
    sweep: dict
    capsule: dict
    output_dir: str

    @property
    def resolved(self) -> dict:
        """The canonical config dict embedded in every CSV header."""
        return dataclasses.asdict(self)

    def material_params(self) -> MaterialParams:
        m = self.material
        try:
            return MaterialParams.from_relative(
                mu_m_rel=m["mu_m_rel"],
                eps_m_rel=m["eps_m_rel"],
                omega_p=m["plasma_frequency_rad_per_s"],
                collision_time=m["collision_time_s"],
            )
        except DomainError as exc:
            raise ConfigError(f"material section invalid: {exc}") from exc

    def build_cell(self, period: float | None = None) -> CellGeometry:
        g = self.geometry
        p = g["period"] if period is None else period
        n = g["node_count"]
        try:
            if g["shape"] == "disk":
                return make_disk_cell(g["radius"], p, n)
            if g["shape"] == "ellipse":
                return make_ellipse_cell(g["semi_axis_1"], g["semi_axis_2"], p, n)
            coeffs = [complex(c[0], c[1]) for c in g["fourier_coefficients"]]
            return make_smooth_cell(coeffs, p, n)
        except GeometryError as exc:
            raise ConfigError(f"geometry section invalid: {exc}") from exc


def _require(value, name: str, types):
    """``value`` of config entry ``name`` (``_REQUIRED`` if absent), checked against ``types``."""
    if value is _REQUIRED:
        raise ConfigError(f"missing required key {name}")
    if value is None:
        raise ConfigError(f"{name} must not be null")
    if isinstance(value, bool) or not isinstance(value, types):  # no key takes a boolean
        raise ConfigError(f"{name} must be of type {types}, got {reprlib.repr(value)}")
    if types in (_NUM, int) and not _finite(value):
        raise ConfigError(f"{name} must be finite, got {reprlib.repr(value)}")
    return value


def _resolve(raw: dict, name: str):
    """Top-level entry ``name`` of the raw config, checked and with its defaults filled in."""
    spec = _SCHEMA[name]
    if isinstance(spec, tuple):  # output_dir, a value rather than a section
        return _require(raw.get(name, spec[1]), name, spec[0])
    section = _require(raw.get(name, {}), name, dict)
    if name == "geometry":
        shape = section.get("shape", "disk")
        if not (isinstance(shape, str) and shape in _SHAPE_KEYS):
            raise ConfigError("geometry.shape must be disk, ellipse or fourier, "
                              f"got {reprlib.repr(shape)}")
        spec = {**spec, **_SHAPE_KEYS[shape]}
    unknown = set(section) - set(spec)
    if unknown:
        raise ConfigError(f"unknown keys in {name!r} section: {reprlib.repr(sorted(unknown))}")
    return {key: _require(section.get(key, default), f"{name}.{key}", types)
            for key, (types, default) in spec.items()}


def _finite_number(value) -> bool:
    return isinstance(value, _NUM) and not isinstance(value, bool) and _finite(value)


def _sweep_file(period) -> str:
    return f"sweep_period_{period:g}.csv"


def _check_periods(periods, source: str):
    """Refuse periods that are not positive finite numbers, or two that share a sweep file."""
    if not periods or not all(_finite_number(p) and p > 0 for p in periods):
        raise ConfigError(f"{source} must be a non-empty list of positive finite numbers")
    owners = {}
    for period in periods:
        name = _sweep_file(period)
        if name in owners:
            raise ConfigError(f"{source} holds {owners[name]!r} and {period!r}, which would "
                              f"both write {name}")
        owners[name] = period


def parse_config(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(raw) - set(_SCHEMA)
    if unknown:
        raise ConfigError(f"unknown top-level config keys: {reprlib.repr(sorted(unknown))}")
    config = RunConfig(**{name: _resolve(raw, name) for name in _SCHEMA})
    g, s, c = config.geometry, config.sweep, config.capsule
    for pair in g.get("fourier_coefficients", ()):
        if not (isinstance(pair, list) and len(pair) == 2
                and all(_finite_number(x) for x in pair)):
            raise ConfigError("fourier_coefficients must be finite [re, im] pairs")
    if not 0 < s["wavelength_min_m"] < s["wavelength_max_m"]:
        raise ConfigError("sweep wavelength window must satisfy 0 < min < max")
    if s["samples"] < 16:
        raise ConfigError("sweep.samples must be at least 16")
    _check_periods(s["periods"], "sweep.periods")
    if c["radius_m"] <= 0 or c["particle_scale_m"] <= 0 or c["particle_count"] < 3:
        raise ConfigError("capsule section requires positive sizes and at least 3 particles")
    material = config.material_params()  # one not representable in SI is a config error
    try:
        check_window(material, s["wavelength_min_m"], s["wavelength_max_m"])
    except DomainError as exc:
        raise ConfigError(f"sweep window invalid for the material: {exc}") from exc
    return config


def load_config(path: str | None) -> RunConfig:
    if path is None:
        return parse_config({})
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as exc:  # ValueError: also an integer too long to parse
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    return parse_config(raw)


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path: Path, config: RunConfig, header: dict, columns: dict):
    """Write one CSV artifact, making its directory first, and report it on stdout.

    A path that cannot be made or written (``--out`` naming a regular file, or
    a path under one) is a :class:`ConfigError` naming it.
    """
    lines = [f"# {key} = {_fmt(value)}" for key, value in header.items()]
    lines.append(f"# config = {json.dumps(config.resolved, sort_keys=True)}")
    arrays = [np.asarray(col) for col in columns.values()]
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="") as stream:
            stream.write("\n".join(lines) + "\n")
            writer = csv.writer(stream)
            writer.writerow(columns.keys())
            for row in zip(*arrays):
                writer.writerow([_fmt(v.item() if hasattr(v, "item") else v) for v in row])
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc
    print(f"wrote {path}")


def cmd_eigs(config: RunConfig, out_dir: Path) -> int:
    cell = config.build_cell()
    dec = decompose(cell)
    _write_csv(out_dir / "eigs.csv", config,
               {"node_count": cell.node_count, "period_ratio": cell.period_ratio},
               {"j": np.arange(dec.mode_count),
                "lambda_j": dec.eigenvalues,
                "moment_nu2_j": dec.moments_nu2})
    return 0


def cmd_sweep(config: RunConfig, out_dir: Path) -> int:
    s = config.sweep
    table, curves = calibrate(config.build_cell, s["periods"], config.material_params(),
                              s["wavelength_min_m"], s["wavelength_max_m"], s["samples"],
                              radius=config.geometry.get("radius", float("nan")),
                              node_count=config.geometry["node_count"])
    for period, curve in zip(s["periods"], curves):
        _write_csv(out_dir / _sweep_file(period), config,
                   {"period_ratio": period, "node_count": table.node_count},
                   {"wavelength_m": curve.wavelengths, "magnitude": curve.magnitudes})
    _write_csv(out_dir / "calibration.csv", config,
               {"radius": table.radius, "node_count": table.node_count,
                "monotone": table.is_monotone()},
               {"period": table.periods(),
                "peak_wavelength_m": table.peak_wavelengths(),
                "peak_magnitude": [np.nan if r.peak_magnitude is None else r.peak_magnitude
                                   for r in table.rows],
                "mode_index": [-1 if r.mode_index is None else r.mode_index
                               for r in table.rows]})
    return 0


def cmd_scatter(config: RunConfig, out_dir: Path, beta_zero: bool = False) -> int:
    dec = decompose(config.build_cell())
    s, cap = config.sweep, config.capsule
    wavelengths = np.linspace(s["wavelength_min_m"], s["wavelength_max_m"], s["samples"])
    curve = extinction_spectrum(cap["radius_m"], config.material_params(), dec,
                                cap["particle_scale_m"], wavelengths,
                                beta_override=0.0 if beta_zero else None)
    _write_csv(out_dir / "extinction.csv", config,
               {"capsule_radius_m": cap["radius_m"], "particle_scale_m": cap["particle_scale_m"],
                "beta_zero_override": beta_zero},
               {"wavelength_m": curve.wavelengths, "extinction": curve.extinction,
                "scattering": curve.scattering})
    return 0


_CALIBRATION_COLUMNS = ("period", "peak_wavelength_m", "peak_magnitude", "mode_index")


def _calibration_number(kind: type, text: str | None, path: Path, name: str):
    """kind(text) for the calibration entry ``name``, or a CalibrationError echoing it capped."""
    try:
        return kind(text)
    except (TypeError, ValueError) as exc:
        # TypeError: a short row leaves its missing cells as None
        raise CalibrationError(f"calibration file {path} has a non-numeric {name}: "
                               f"{reprlib.repr(text)}") from exc


def read_calibration_csv(path: Path) -> CalibrationTable:
    header = {}
    rows = []
    try:
        with open(path, newline="") as stream:
            data_lines = []
            for line in stream:
                if line.startswith("#"):
                    if "=" in line:
                        key, _, value = line[1:].partition("=")
                        header[key.strip()] = value.strip()
                else:
                    data_lines.append(line)
    except (OSError, UnicodeDecodeError) as exc:
        raise CalibrationError(f"cannot read calibration file {path}: {exc}") from exc
    reader = csv.DictReader(data_lines)
    try:
        records = list(reader)
    except csv.Error as exc:  # a field beyond the csv module's size limit, say
        raise CalibrationError(f"calibration file {path} is not a CSV table: {exc}") from exc
    missing = [name for name in _CALIBRATION_COLUMNS if name not in (reader.fieldnames or ())]
    if missing:
        raise CalibrationError(f"calibration file {path} lacks columns {missing}")
    for record in records:
        period = _calibration_number(float, record["period"], path, "period")
        lam = _calibration_number(float, record["peak_wavelength_m"], path, "peak_wavelength_m")
        mode = _calibration_number(int, record["mode_index"], path, "mode_index")
        if not (math.isfinite(period) and period > 0.0):
            raise CalibrationError(f"calibration file {path} has period {period!r}, "
                                   "not a positive finite number")
        if not (np.isnan(lam) or (math.isfinite(lam) and lam > 0.0)):
            raise CalibrationError(f"calibration file {path} has peak wavelength {lam!r}, "
                                   "neither NaN (no peak) nor a positive finite number")
        rows.append(CalibrationRow(
            period=period,
            peak_wavelength=None if np.isnan(lam) else lam,
            peak_magnitude=_calibration_number(float, record["peak_magnitude"], path,
                                               "peak_magnitude"),
            mode_index=None if mode < 0 else mode,
        ))
    radius = _calibration_number(float, header.get("radius", "nan"), path, "radius")
    node_count = _calibration_number(int, header.get("node_count", "0"), path, "node_count")
    if not rows:
        raise CalibrationError(f"calibration file {path} has no rows")
    return CalibrationTable(rows=tuple(rows), radius=radius, node_count=node_count)


# (label, CapsuleState field) of the invert record, on stdout and in deformation.csv
_STATE_FIELDS = (("r_m", "r"), ("N", "N"), ("d_m", "d"), ("P_m", "P"), ("L1_m", "L1"),
                 ("L2_m", "L2"), ("D", "D"))


def cmd_invert(config: RunConfig, out_dir: Path, peak_wavelength_nm: float,
               calibration_path: Path | None = None, write_csv: bool = False) -> int:
    path = calibration_path or (out_dir / "calibration.csv")
    table = read_calibration_csv(path)
    cap = config.capsule
    state = invert_peak_to_deformation(
        peak_wavelength_nm * 1e-9, table,
        r=cap["radius_m"], N=cap["particle_count"], delta_phys=cap["particle_scale_m"],
    )
    for label, field in _STATE_FIELDS:
        print(f"{label:<5} = {getattr(state, field)!r}")
    # sensitivity of D to a miscounted particle number
    for dn in (-1, +1):
        try:
            alt = CapsuleState.from_perimeter(state.r, state.N + dn, (state.N + dn) * state.d)
            print(f"D_if_N{dn:+d} = {alt.D!r}")
        except (OutOfRangeError, DomainError):
            print(f"D_if_N{dn:+d} = infeasible")
    if write_csv:
        _write_csv(out_dir / "deformation.csv", config,
                   {"peak_wavelength_nm": peak_wavelength_nm},
                   {label: [getattr(state, field)] for label, field in _STATE_FIELDS})
    return 0


def cmd_validate(config: RunConfig, break_quadrature: bool = False) -> int:
    cell = config.build_cell()
    results = run_validation(broken_copy(cell) if break_quadrature else cell)
    for result in results:
        print(result.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 0 if not failed else 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metastrain",
        description="Plasmonic grating resonances and microcapsule strain inversion",
    )
    parser.add_argument("--config", help="path to a JSON config file")
    parser.add_argument("--out", help="output directory (overrides config)")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("eigs", help="eigenvalue and moment table")
    p_sweep = sub.add_parser("sweep", help="resonance curves and peak calibration")
    p_sweep.add_argument("--periods", help="comma-separated period ratios")
    p_scatter = sub.add_parser("scatter", help="capsule extinction spectrum")
    p_scatter.add_argument("--beta-zero", action="store_true",
                           help="force a transparent interface (beta = 0)")
    p_invert = sub.add_parser("invert", help="invert a measured peak into deformation")
    p_invert.add_argument("--peak-wavelength-nm", type=float, required=True)
    p_invert.add_argument("--calibration", help="calibration CSV path")
    p_invert.add_argument("--csv", action="store_true",
                          help="also write the record to deformation.csv")
    p_val = sub.add_parser("validate", help="run the invariant suite")
    p_val.add_argument("--break-quadrature", action="store_true",
                       help="negative control: detune the quadrature weights")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        if args.command != "invert":  # every other command decomposes a cell
            sweeps = args.command in ("sweep", "scatter")
            check_working_set(config.geometry["node_count"],
                              config.sweep["samples"] if sweeps else 0)
        if args.command == "sweep" and args.periods:
            try:
                periods = [float(p) for p in args.periods.split(",")]
            except ValueError as exc:
                raise ConfigError(f"bad --periods list: {reprlib.repr(args.periods)}") from exc
            _check_periods(periods, "--periods")
            config = dataclasses.replace(config, sweep={**config.sweep, "periods": periods})
        out_dir = Path(args.out or config.output_dir)
        if args.command == "eigs":
            return cmd_eigs(config, out_dir)
        if args.command == "sweep":
            return cmd_sweep(config, out_dir)
        if args.command == "scatter":
            return cmd_scatter(config, out_dir, beta_zero=args.beta_zero)
        if args.command == "invert":
            path = Path(args.calibration) if args.calibration else None
            return cmd_invert(config, out_dir, args.peak_wavelength_nm, path,
                              write_csv=args.csv)
        return cmd_validate(config, break_quadrature=args.break_quadrature)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (OutOfRangeError, CalibrationError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3
    except MetastrainError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
