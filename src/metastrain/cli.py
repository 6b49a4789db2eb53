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
import json
import math
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .capsule_scattering import extinction_spectrum
from .dispersion import MaterialParams
from .errors import (
    CalibrationError,
    ConfigError,
    DomainError,
    GeometryError,
    MetastrainError,
    OutOfRangeError,
    OverdampedModeError,
)
from .geometry import CellGeometry, _finite, make_disk_cell, make_ellipse_cell, make_smooth_cell
from .resonance_sweep import CalibrationRow, CalibrationTable, calibrate
from .spectral import check_working_set, decompose
from .strain import CapsuleState, invert_peak_to_deformation
from .validate import run_validation

DEFAULT_CONFIG = {
    "geometry": {
        "shape": "disk",
        "radius": 0.45,
        "period": 1.0,
        "node_count": 256,
    },
    "material": {
        "mu_m_rel": 1.0,
        "eps_m_rel": 3.1329,
        "plasma_frequency_rad_per_s": 2.0e15,
        "plasma_frequency_is_angular": True,
        "collision_time_s": 1.0e-14,
        "eps_c_rel": None,
    },
    "sweep": {
        "wavelength_min_m": 6.5e-7,
        "wavelength_max_m": 1.7e-6,
        "samples": 400,
        "periods": [1.0, 1.25, 1.5, 1.75, 2.0],
    },
    "capsule": {
        "radius_m": 9.9e-7,
        "particle_count": 1256,
        "particle_scale_m": 5.0e-9,
    },
    "output_dir": "out",
}


@dataclass(frozen=True)
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
        return asdict(self)

    def material_params(self) -> MaterialParams:
        m = self.material
        try:
            return MaterialParams.from_relative(
                mu_m_rel=m["mu_m_rel"],
                eps_m_rel=m["eps_m_rel"],
                omega_p=m["plasma_frequency_rad_per_s"],
                collision_time=m["collision_time_s"],
                eps_c_rel=m["eps_c_rel"],
                plasma_frequency_is_angular=m["plasma_frequency_is_angular"],
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


def _require(section: dict, name: str, keys: dict):
    unknown = set(section) - set(keys)
    if unknown:
        raise ConfigError(f"unknown keys in {name!r} section: {sorted(unknown)}")
    out = {}
    for key, (types, default) in keys.items():
        value = section.get(key, default)
        if value is _REQUIRED:
            raise ConfigError(f"missing required key {name}.{key}")
        if value is None:
            if default is not None:
                raise ConfigError(f"{name}.{key} must not be null")
        elif not isinstance(value, types):
            raise ConfigError(f"{name}.{key} must be of type {types}, got {value!r}")
        elif types is _NUM and not _finite_number(value):
            raise ConfigError(f"{name}.{key} must be finite, got {value!r}")
        out[key] = value
    return out


_REQUIRED = object()
_NUM = (int, float)


def _finite_number(value) -> bool:
    return isinstance(value, _NUM) and _finite(value)


def _check_periods(periods, source: str):
    if not periods or not all(_finite_number(p) and p > 0 for p in periods):
        raise ConfigError(f"{source} must be a non-empty list of positive finite numbers")


def parse_config(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(raw) - {"geometry", "material", "sweep", "capsule", "output_dir"}
    if unknown:
        raise ConfigError(f"unknown top-level config keys: {sorted(unknown)}")
    merged = {key: {**DEFAULT_CONFIG[key], **raw.get(key, {})}
              for key in ("geometry", "material", "sweep", "capsule")}
    merged["output_dir"] = raw.get("output_dir", DEFAULT_CONFIG["output_dir"])

    g = merged["geometry"]
    shape = g.get("shape")
    if shape == "disk":
        g = _require(g, "geometry", {
            "shape": (str, _REQUIRED), "radius": (_NUM, _REQUIRED),
            "period": (_NUM, _REQUIRED), "node_count": (int, _REQUIRED),
        })
    elif shape == "ellipse":
        g.pop("radius", None)
        g = _require(g, "geometry", {
            "shape": (str, _REQUIRED), "semi_axis_1": (_NUM, _REQUIRED),
            "semi_axis_2": (_NUM, _REQUIRED), "period": (_NUM, _REQUIRED),
            "node_count": (int, _REQUIRED),
        })
    elif shape == "fourier":
        g.pop("radius", None)
        g = _require(g, "geometry", {
            "shape": (str, _REQUIRED), "fourier_coefficients": (list, _REQUIRED),
            "period": (_NUM, _REQUIRED), "node_count": (int, _REQUIRED),
        })
        for c in g["fourier_coefficients"]:
            if not (isinstance(c, list) and len(c) == 2
                    and all(_finite_number(x) for x in c)):
                raise ConfigError("fourier_coefficients must be finite [re, im] pairs")
    else:
        raise ConfigError(f"geometry.shape must be disk, ellipse or fourier, got {shape!r}")

    m = _require(merged["material"], "material", {
        "mu_m_rel": (_NUM, _REQUIRED), "eps_m_rel": (_NUM, _REQUIRED),
        "plasma_frequency_rad_per_s": (_NUM, _REQUIRED),
        "plasma_frequency_is_angular": (bool, _REQUIRED),
        "collision_time_s": (_NUM, _REQUIRED), "eps_c_rel": (_NUM, None),
    })

    s = _require(merged["sweep"], "sweep", {
        "wavelength_min_m": (_NUM, _REQUIRED), "wavelength_max_m": (_NUM, _REQUIRED),
        "samples": (int, _REQUIRED), "periods": (list, _REQUIRED),
    })
    if not 0 < s["wavelength_min_m"] < s["wavelength_max_m"]:
        raise ConfigError("sweep wavelength window must satisfy 0 < min < max")
    if s["samples"] < 16:
        raise ConfigError("sweep.samples must be at least 16")
    _check_periods(s["periods"], "sweep.periods")

    c = _require(merged["capsule"], "capsule", {
        "radius_m": (_NUM, _REQUIRED), "particle_count": (int, _REQUIRED),
        "particle_scale_m": (_NUM, _REQUIRED),
    })
    if c["radius_m"] <= 0 or c["particle_scale_m"] <= 0 or c["particle_count"] < 3:
        raise ConfigError("capsule section requires positive sizes and at least 3 particles")

    config = RunConfig(geometry=g, material=m, sweep=s, capsule=c,
                       output_dir=merged["output_dir"])
    config.material_params()  # a material that is not representable in SI is a config error
    return config


def load_config(path: str | None) -> RunConfig:
    if path is None:
        return parse_config({})
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    return parse_config(raw)


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path: Path, config: RunConfig, header: dict, columns: dict):
    lines = [f"# {key} = {_fmt(value)}" for key, value in header.items()]
    lines.append(f"# config = {json.dumps(config.resolved, sort_keys=True)}")
    arrays = [np.asarray(col) for col in columns.values()]
    with open(path, "w", newline="") as stream:
        stream.write("\n".join(lines) + "\n")
        writer = csv.writer(stream)
        writer.writerow(columns.keys())
        for row in zip(*arrays):
            writer.writerow([_fmt(v.item() if hasattr(v, "item") else v) for v in row])


def cmd_eigs(config: RunConfig, out_dir: Path) -> int:
    cell = config.build_cell()
    dec = decompose(cell)
    path = out_dir / "eigs.csv"
    _write_csv(path, config,
               {"node_count": cell.node_count, "period_ratio": cell.period_ratio},
               {"j": np.arange(dec.mode_count),
                "lambda_j": dec.eigenvalues,
                "moment_nu2_j": dec.moments_nu2})
    print(f"wrote {path}")
    return 0


def cmd_sweep(config: RunConfig, out_dir: Path, periods=None) -> int:
    periods = list(config.sweep["periods"]) if periods is None else periods
    material = config.material_params()
    s = config.sweep
    results = list(calibrate(config.build_cell, periods, material, s["wavelength_min_m"],
                             s["wavelength_max_m"], s["samples"]))
    table = CalibrationTable(rows=tuple(row for row, _ in results),
                             radius=config.geometry.get("radius", float("nan")),
                             node_count=config.geometry["node_count"],
                             wavelength_min=s["wavelength_min_m"],
                             wavelength_max=s["wavelength_max_m"],
                             samples=s["samples"], material=material)
    for period, (_, curve) in zip(periods, results):
        path = out_dir / f"sweep_period_{period:g}.csv"
        _write_csv(path, config,
                   {"period_ratio": period, "node_count": config.geometry["node_count"]},
                   {"wavelength_m": curve.wavelengths, "magnitude": curve.magnitudes})
        print(f"wrote {path}")
    path = out_dir / "calibration.csv"
    _write_csv(path, config,
               {"radius": table.radius, "node_count": table.node_count,
                "monotone": table.is_monotone()},
               {"period": table.periods(),
                "peak_wavelength_m": table.peak_wavelengths(),
                "peak_magnitude": [np.nan if r.peak_magnitude is None else r.peak_magnitude
                                   for r in table.rows],
                "mode_index": [-1 if r.mode_index is None else r.mode_index
                               for r in table.rows]})
    print(f"wrote {path}")
    return 0


def cmd_scatter(config: RunConfig, out_dir: Path, beta_zero: bool = False) -> int:
    cell = config.build_cell()
    dec = decompose(cell)
    s = config.sweep
    wavelengths = np.linspace(s["wavelength_min_m"], s["wavelength_max_m"], s["samples"])
    curve = extinction_spectrum(
        radius=config.capsule["radius_m"],
        material=config.material_params(),
        decomposition=dec,
        delta_phys=config.capsule["particle_scale_m"],
        wavelengths=wavelengths,
        beta_override=0.0 if beta_zero else None,
    )
    path = out_dir / "extinction.csv"
    _write_csv(path, config,
               {"capsule_radius_m": curve.radius, "particle_scale_m": curve.delta_phys,
                "beta_zero_override": beta_zero},
               {"wavelength_m": curve.wavelengths, "extinction": curve.extinction,
                "scattering": curve.scattering})
    print(f"wrote {path}")
    return 0


_CALIBRATION_COLUMNS = ("period", "peak_wavelength_m", "peak_magnitude", "mode_index")


def read_calibration_csv(path: Path, material: MaterialParams) -> CalibrationTable:
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
    except OSError as exc:
        raise CalibrationError(f"cannot read calibration file {path}: {exc}") from exc
    reader = csv.DictReader(data_lines)
    missing = [name for name in _CALIBRATION_COLUMNS if name not in (reader.fieldnames or ())]
    if missing:
        raise CalibrationError(f"calibration file {path} lacks columns {missing}")
    try:
        for record in reader:
            period = float(record["period"])
            lam = float(record["peak_wavelength_m"])
            mode = int(record["mode_index"])
            if not (math.isfinite(period) and period > 0.0):
                raise CalibrationError(f"calibration file {path} has period {period!r}, "
                                       "not a positive finite number")
            if not (np.isnan(lam) or (math.isfinite(lam) and lam > 0.0)):
                raise CalibrationError(f"calibration file {path} has peak wavelength {lam!r}, "
                                       "neither NaN (no peak) nor a positive finite number")
            rows.append(CalibrationRow(
                period=period,
                peak_wavelength=None if np.isnan(lam) else lam,
                peak_magnitude=float(record["peak_magnitude"]),
                mode_index=None if mode < 0 else mode,
            ))
        radius = float(header.get("radius", "nan"))
        node_count = int(header.get("node_count", "0"))
    except (TypeError, ValueError) as exc:
        # TypeError: a short row leaves its missing cells as None
        raise CalibrationError(f"calibration file {path} has a non-numeric entry: {exc}") from exc
    if not rows:
        raise CalibrationError(f"calibration file {path} has no rows")
    return CalibrationTable(rows=tuple(rows), radius=radius, node_count=node_count,
                            wavelength_min=min(r.peak_wavelength or np.inf for r in rows),
                            wavelength_max=max(r.peak_wavelength or -np.inf for r in rows),
                            samples=0, material=material)


def _print_state(state: CapsuleState):
    print(f"r_m   = {state.r!r}")
    print(f"N     = {state.N}")
    print(f"d_m   = {state.d!r}")
    print(f"P_m   = {state.P!r}")
    print(f"L1_m  = {state.L1!r}")
    print(f"L2_m  = {state.L2!r}")
    print(f"D     = {state.D!r}")
    print(f"theta = {state.theta!r}")


def cmd_invert(config: RunConfig, out_dir: Path, peak_wavelength_nm: float,
               calibration_path: Path | None = None, write_csv: bool = False) -> int:
    if peak_wavelength_nm is None:
        raise ConfigError("invert requires --peak-wavelength-nm")
    path = calibration_path or (out_dir / "calibration.csv")
    table = read_calibration_csv(path, config.material_params())
    cap = config.capsule
    state = invert_peak_to_deformation(
        peak_wavelength_nm * 1e-9, table,
        r=cap["radius_m"], N=cap["particle_count"], delta_phys=cap["particle_scale_m"],
    )
    _print_state(state)
    # sensitivity of D to a miscounted particle number
    for dn in (-1, +1):
        try:
            alt = CapsuleState.from_perimeter(state.r, state.N + dn, (state.N + dn) * state.d)
            print(f"D_if_N{dn:+d} = {alt.D!r}")
        except (OutOfRangeError, DomainError):
            print(f"D_if_N{dn:+d} = infeasible")
    if write_csv:
        csv_path = out_dir / "deformation.csv"
        _write_csv(csv_path, config,
                   {"peak_wavelength_nm": peak_wavelength_nm},
                   {"r_m": [state.r], "N": [state.N], "d_m": [state.d], "P_m": [state.P],
                    "L1_m": [state.L1], "L2_m": [state.L2], "D": [state.D],
                    "theta": [state.theta]})
        print(f"wrote {csv_path}")
    return 0


def cmd_validate(config: RunConfig, break_quadrature: bool = False) -> int:
    cell = config.build_cell()
    results = run_validation(cell, break_quadrature=break_quadrature)
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
        periods = None
        if args.command == "sweep" and args.periods:
            try:
                periods = [float(p) for p in args.periods.split(",")]
            except ValueError as exc:
                raise ConfigError(f"bad --periods list: {args.periods!r}") from exc
            _check_periods(periods, "--periods")
        out_dir = Path(args.out or config.output_dir)
        if args.command != "validate":
            out_dir.mkdir(parents=True, exist_ok=True)
        if args.command == "eigs":
            return cmd_eigs(config, out_dir)
        if args.command == "sweep":
            return cmd_sweep(config, out_dir, periods=periods)
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
    except (OutOfRangeError, CalibrationError, OverdampedModeError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3
    except MetastrainError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
