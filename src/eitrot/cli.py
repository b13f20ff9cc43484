"""Command-line front end.

Reads a YAML run configuration, executes one named scenario, and writes CSV
data plus a JSON metadata sidecar into the output directory. All frequency
keys carry an explicit unit suffix (_mhz means ordinary frequency in MHz,
converted to angular rad/s internally); powers are _mw or _uw, lengths _mm,
temperatures _c or _k, densities _per_cm3 or _per_m3, magnetic field _g.

Exit codes: 0 success, 1 configuration error (including a non-finite
number and a bad command-line flag), 2 numerical failure. Errors are single
lines on stderr of the form ``error: config: ...`` or ``error: numeric: ...``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import yaml

from . import __version__
from .atom import (
    COUPLING,
    LINEAR,
    PROBE,
    RABI_ANCHORS,
    SCHEME_IDS,
    SIGMA_MINUS,
    SIGMA_PLUS,
    TWO_PI,
    rabi_from_power,
)
from .detection import IndeterminateAngleError
from .dynamics import RelaxationRates, SteadyStateError, check_rate
from .scenarios import (
    EIT_CSV_COLUMNS,
    POWER_SCAN_CSV_COLUMNS,
    SPECTRUM_CSV_COLUMNS,
    TEMP_SCAN_CSV_COLUMNS,
    TRACE_CSV_COLUMNS,
    ScenarioConfig,
    count_transmission_peaks,
    eit_transmission,
    find_dispersion_peaks,
    steady_populations,
    sweep_coupling_power,
    sweep_probe_detuning,
    sweep_temperature,
    write_csv,
    write_metadata,
)

SCENARIOS = (
    "spectrum",
    "power-scan",
    "temp-scan",
    "eit-peaks",
    "detector-trace",
    "populations",
)

_MHZ = TWO_PI * 1e6


class ConfigError(Exception):
    """Configuration document is invalid; message names the offending key."""


@dataclass(frozen=True)
class RunSpec:
    """A fully resolved run: scenario name, sweep config, scan lists."""

    scenario: str
    config: ScenarioConfig
    powers_w: tuple[float, ...]
    temperatures_k: tuple[float, ...]
    basename: str
    resolved: dict  # canonical config document, round-trips through parse_config


_KNOWN = {
    "": {
        "scenario", "scheme", "output_basename", "probe", "coupling",
        "medium", "magnetic_field_g", "stark_shifts", "population_policy",
        "rates", "power_scan", "temp_scan", "cg_overrides",
    },
    "probe": {"rabi_mhz", "power_uw", "detuning_min_mhz", "detuning_max_mhz", "points"},
    "coupling": {"rabi_mhz", "power_mw", "detuning_mhz"},
    "medium": {
        "temperature_c", "temperature_k", "density_per_cm3", "density_per_m3",
        "cell_length_mm",
    },
    "rates": {
        "gamma_mhz", "gamma_ca_mhz", "gamma_ba_mhz", "gamma_ground_mhz",
        "transit_mhz",
    },
    "power_scan": {"powers_mw"},
    "temp_scan": {"temperatures_c"},
}


# (config key under 'rates', RelaxationRates field, default in MHz)
_RATE_KEYS = (
    ("gamma_mhz", "gamma", 5.75),
    ("gamma_ca_mhz", "gamma_ca", 3.5),
    ("gamma_ba_mhz", "gamma_ba", 1.1),
    ("gamma_ground_mhz", "gamma_ground", None),
    ("transit_mhz", "gamma_transit", 1.2),
)


def _check_keys(section: dict, path: str) -> None:
    known = _KNOWN[path]
    prefix = f"{path}." if path else ""
    for key in section:
        if key in known:
            continue
        suffixed = sorted(k for k in known if k.startswith(f"{key}_"))
        if suffixed:
            raise ConfigError(
                f"unknown key '{prefix}{key}': unit suffix required,"
                f" use '{prefix}{suffixed[0]}'"
            )
        raise ConfigError(f"unknown key '{prefix}{key}'")


def _section(doc: dict, name: str) -> dict:
    value = doc.get(name) or {}
    if not isinstance(value, dict):
        raise ConfigError(f"key '{name}' must be a mapping")
    _check_keys(value, name)
    return value


def _as_float(value, name: str) -> float:
    """Finite float from the YAML scalar under key ``name``; accepts
    '1e17'-style strings (YAML 1.1 leaves exponent forms without a sign as
    plain strings)."""
    number = None
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        number = float(value)
    elif isinstance(value, str):
        try:
            number = float(value)
        except ValueError:
            pass
    if number is None:
        raise ConfigError(f"key '{name}' must be a number")
    if not math.isfinite(number):
        raise ConfigError(f"key '{name}' must be finite")
    return number


def _number(section: dict, path: str, key: str, default=None):
    value = section.get(key, default)
    if value is None:
        return None
    return _as_float(value, f"{path}.{key}" if path else key)


def _exclusive(section: dict, path: str, a: str, b: str):
    if a in section and b in section:
        raise ConfigError(
            f"over-specified: give '{path}.{a}' or '{path}.{b}', not both"
        )


def parse_config(doc: dict) -> RunSpec:
    """Validate and resolve a configuration document into a RunSpec.

    Defaults are materialized so the returned ``resolved`` dict re-parses to
    the identical RunSpec.
    """
    if not isinstance(doc, dict):
        raise ConfigError("configuration must be a mapping")
    _check_keys(doc, "")

    scenario = doc.get("scenario")
    if scenario is None:
        raise ConfigError("missing required key 'scenario'")
    if scenario not in SCENARIOS:
        raise ConfigError(
            f"unknown scenario '{scenario}'; choose from {', '.join(SCENARIOS)}"
        )

    scheme = doc.get("scheme", "sigma_f2")
    if scheme not in SCHEME_IDS:
        raise ConfigError(
            f"unknown scheme '{scheme}'; choose from {', '.join(SCHEME_IDS)}"
        )

    probe = _section(doc, "probe")
    _exclusive(probe, "probe", "rabi_mhz", "power_uw")
    probe_power_uw = _number(probe, "probe", "power_uw")
    if probe_power_uw is not None:
        probe_rabi = rabi_from_power(probe_power_uw * 1e-6, PROBE)
    else:
        probe_rabi = _number(probe, "probe", "rabi_mhz", 10.0) * _MHZ
    det_min = _number(probe, "probe", "detuning_min_mhz", -400.0)
    det_max = _number(probe, "probe", "detuning_max_mhz", 400.0)
    points = probe.get("points", 1201)
    if not isinstance(points, int) or isinstance(points, bool):
        raise ConfigError("key 'probe.points' must be an integer")

    coupling = _section(doc, "coupling")
    _exclusive(coupling, "coupling", "rabi_mhz", "power_mw")
    coupling_power_mw = _number(coupling, "coupling", "power_mw")
    if coupling_power_mw is not None:
        coupling_rabi = rabi_from_power(coupling_power_mw * 1e-3, COUPLING)
    else:
        rabi_mhz = _number(coupling, "coupling", "rabi_mhz")
        if rabi_mhz is None:
            coupling_power_mw = 15.0
            coupling_rabi = rabi_from_power(coupling_power_mw * 1e-3, COUPLING)
        else:
            coupling_rabi = rabi_mhz * _MHZ
    coupling_det = _number(coupling, "coupling", "detuning_mhz", 0.0) * _MHZ

    medium = _section(doc, "medium")
    _exclusive(medium, "medium", "temperature_c", "temperature_k")
    _exclusive(medium, "medium", "density_per_cm3", "density_per_m3")
    t_c = _number(medium, "medium", "temperature_c")
    t_k = _number(medium, "medium", "temperature_k")
    if t_k is None:
        t_k = (55.0 if t_c is None else t_c) + 273.15
    dens_cm3 = _number(medium, "medium", "density_per_cm3")
    dens_m3 = _number(medium, "medium", "density_per_m3")
    if dens_cm3 is not None:
        dens_m3 = dens_cm3 * 1e6
    cell_mm = _number(medium, "medium", "cell_length_mm", 50.0)

    b_gauss = _number(doc, "", "magnetic_field_g", 0.0)

    stark = doc.get("stark_shifts", True)
    if not isinstance(stark, bool):
        raise ConfigError("key 'stark_shifts' must be a boolean")

    policy = doc.get("population_policy", "fixed")
    if policy not in ("fixed", "per_point"):
        raise ConfigError(
            "key 'population_policy' must be 'fixed' or 'per_point'"
        )

    rates_sec = _section(doc, "rates")
    gamma_ground = _number(rates_sec, "rates", "gamma_ground_mhz")
    rate_values = {}
    for key, field, default in _RATE_KEYS:
        value = _number(rates_sec, "rates", key, default)
        if value is not None:
            try:
                check_rate(field, value * _MHZ, f"key 'rates.{key}'")
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc
            rate_values[field] = value * _MHZ
    rates = RelaxationRates(**rate_values)

    overrides_raw = doc.get("cg_overrides") or {}
    if not isinstance(overrides_raw, dict):
        raise ConfigError("key 'cg_overrides' must be a mapping")
    overrides = {}
    for pair, value in overrides_raw.items():
        parts = str(pair).split("->")
        if len(parts) != 2:
            raise ConfigError(
                f"cg_overrides key '{pair}' must look like 'a1->c1'"
            )
        overrides[(parts[0].strip(), parts[1].strip())] = _as_float(
            value, f"cg_overrides.{pair}")

    def _number_list(section: dict, path: str, key: str, default: list):
        values = section.get(key, default)
        if not isinstance(values, list) or not values:
            raise ConfigError(f"key '{path}.{key}' must be a non-empty number list")
        return [_as_float(v, f"{path}.{key}") for v in values]

    scan_p = _section(doc, "power_scan")
    powers_mw = _number_list(scan_p, "power_scan", "powers_mw",
                             [6.0, 8.0, 10.0, 12.0, 15.0])
    scan_t = _section(doc, "temp_scan")
    temps_c = _number_list(scan_t, "temp_scan", "temperatures_c",
                           [45.0, 55.0, 65.0])

    basename = doc.get("output_basename", scenario.replace("-", "_"))

    try:
        config = ScenarioConfig(
            scheme_id=scheme,
            probe_rabi=probe_rabi,
            probe_polarization=LINEAR,
            coupling_rabi=coupling_rabi,
            coupling_detuning=coupling_det,
            detuning_min=det_min * _MHZ,
            detuning_max=det_max * _MHZ,
            points=points,
            temperature=t_k,
            density=dens_m3,
            cell_length=cell_mm * 1e-3,
            b_field=b_gauss * 1e-4,
            stark_enabled=stark,
            population_policy=policy,
            cg_overrides=overrides or None,
            rates=rates,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    resolved = {
        "scenario": scenario,
        "scheme": scheme,
        "output_basename": basename,
        "probe": {
            "rabi_mhz": probe_rabi / _MHZ,
            "detuning_min_mhz": det_min,
            "detuning_max_mhz": det_max,
            "points": points,
        },
        "coupling": {
            "rabi_mhz": coupling_rabi / _MHZ,
            "detuning_mhz": coupling_det / _MHZ,
        },
        "medium": {
            "temperature_k": t_k,
            "cell_length_mm": cell_mm,
        },
        "magnetic_field_g": b_gauss,
        "stark_shifts": stark,
        "population_policy": policy,
        "rates": {
            "gamma_mhz": rates.gamma / _MHZ,
            "gamma_ca_mhz": rates.gamma_ca / _MHZ,
            "gamma_ba_mhz": rates.gamma_ba / _MHZ,
            "gamma_ground_mhz": None if gamma_ground is None else gamma_ground,
            "transit_mhz": rates.gamma_transit / _MHZ,
        },
        "power_scan": {"powers_mw": [float(p) for p in powers_mw]},
        "temp_scan": {"temperatures_c": [float(t) for t in temps_c]},
    }
    if dens_m3 is not None:
        resolved["medium"]["density_per_m3"] = dens_m3
    if overrides:
        resolved["cg_overrides"] = {
            f"{lo}->{up}": cg for (lo, up), cg in overrides.items()
        }

    return RunSpec(
        scenario=scenario,
        config=config,
        powers_w=tuple(float(p) * 1e-3 for p in powers_mw),
        temperatures_k=tuple(float(t) + 273.15 for t in temps_c),
        basename=str(basename),
        resolved=resolved,
    )


def apply_overrides(doc: dict, assignments: list[str]) -> dict:
    """Apply dotted-path overrides like ``coupling.power_mw=10`` to a doc."""
    for item in assignments:
        if "=" not in item:
            raise ConfigError(f"override '{item}' must look like 'path.key=value'")
        path, _, raw = item.partition("=")
        keys = path.strip().split(".")
        if not all(keys):
            raise ConfigError(f"override '{item}' has an empty path segment")
        try:
            value = yaml.safe_load(raw)
        except yaml.YAMLError as exc:
            raise ConfigError(f"override '{item}': unparseable value") from exc
        node = doc
        for key in keys[:-1]:
            nxt = node.get(key)
            if nxt is None:
                nxt = {}
                node[key] = nxt
            if not isinstance(nxt, dict):
                raise ConfigError(
                    f"override '{item}': '{key}' is not a mapping"
                )
            node = nxt
        node[keys[-1]] = value
    return doc


def _metadata(spec: RunSpec, extra: dict | None = None) -> dict:
    payload = {
        "version": __version__,
        "config": spec.resolved,
        "calibration": {
            "coupling_anchor": {
                "power_w": RABI_ANCHORS[COUPLING][0],
                "rabi_mhz": RABI_ANCHORS[COUPLING][1] / _MHZ,
            },
            "probe_anchor": {
                "power_w": RABI_ANCHORS[PROBE][0],
                "rabi_mhz": RABI_ANCHORS[PROBE][1] / _MHZ,
            },
        },
    }
    if extra:
        payload.update(extra)
    return payload


_PEAK_KEYS = (
    "left_detuning_mhz", "left_phi_deg", "right_detuning_mhz", "right_phi_deg",
)


def _peak_values(peaks) -> tuple[float, float, float, float]:
    """Both dispersion peaks as MHz, deg, MHz, deg; all NaN if none found."""
    if not peaks.found:
        return (math.nan,) * 4
    return (peaks.left.detuning / _MHZ, math.degrees(peaks.left.phi),
            peaks.right.detuning / _MHZ, math.degrees(peaks.right.phi))


def run(spec: RunSpec, outdir: Path, verbose: bool = False) -> list[Path]:
    """Execute the scenario; returns the list of files written."""
    outdir.mkdir(parents=True, exist_ok=True)
    base = outdir / spec.basename
    cfg = spec.config
    written = []

    def log(msg):
        if verbose:
            print(msg, file=sys.stderr)

    if spec.scenario in ("spectrum", "detector-trace"):
        log(f"sweeping {cfg.points} detuning points")
        result = sweep_probe_detuning(cfg)
        csv_path = base.with_suffix(".csv")
        if spec.scenario == "spectrum":
            write_csv(csv_path, SPECTRUM_CSV_COLUMNS, result.spectrum_rows())
        else:
            write_csv(csv_path, TRACE_CSV_COLUMNS, result.trace_rows())
        meta = _metadata(spec, {"sweep": result.metadata})
        peaks = find_dispersion_peaks(result)
        if peaks.found:
            meta["peaks"] = dict(zip(_PEAK_KEYS, _peak_values(peaks)))
        written.append(csv_path)
        max_phi = math.degrees(abs(result.phi_exact).max())
        print(f"{spec.scenario}: {cfg.points} points, max |phi| = {max_phi:.6g} deg")

    elif spec.scenario == "power-scan":
        rows = []
        for power, rabi, peaks in sweep_coupling_power(cfg, list(spec.powers_w)):
            log(f"power {power * 1e3:g} mW done")
            if not peaks.found:
                raise SteadyStateError(
                    f"no dispersion peaks at {power * 1e3:g} mW", 0
                )
            rows.append((power * 1e3, rabi / _MHZ, *_peak_values(peaks)))
        csv_path = base.with_suffix(".csv")
        write_csv(csv_path, POWER_SCAN_CSV_COLUMNS, rows)
        meta = _metadata(spec)
        written.append(csv_path)
        print(f"power-scan: {len(rows)} powers")

    elif spec.scenario == "temp-scan":
        rows = []
        per_temp_files = []
        results = sweep_temperature(cfg, list(spec.temperatures_k))
        for i, (t, result) in enumerate(results, start=1):
            log(f"temperature {t:.2f} K done")
            sub_path = outdir / f"{spec.basename}_t{i}.csv"
            write_csv(sub_path, SPECTRUM_CSV_COLUMNS, result.spectrum_rows())
            per_temp_files.append(str(sub_path.name))
            rows.append((
                t, result.metadata["density_m3"],
                *_peak_values(find_dispersion_peaks(result)),
                math.degrees(abs(result.phi_exact).max()),
            ))
            written.append(sub_path)
        csv_path = base.with_suffix(".csv")
        write_csv(csv_path, TEMP_SCAN_CSV_COLUMNS, rows)
        meta = _metadata(spec, {"per_temperature_files": per_temp_files})
        written.append(csv_path)
        print(f"temp-scan: {len(rows)} temperatures")

    elif spec.scenario == "eit-peaks":
        counts = {}
        columns = {}
        for comp in (SIGMA_MINUS, SIGMA_PLUS):
            curve = eit_transmission(cfg, comp)
            counts[comp] = count_transmission_peaks(curve)
            columns[comp] = curve
        dets = columns[SIGMA_MINUS].detunings
        rows = zip(
            dets / _MHZ,
            columns[SIGMA_MINUS].transmission,
            columns[SIGMA_PLUS].transmission,
        )
        csv_path = base.with_suffix(".csv")
        write_csv(csv_path, EIT_CSV_COLUMNS, rows)
        meta = _metadata(spec, {"peak_counts": counts})
        written.append(csv_path)
        print(
            f"eit-peaks: sigma_minus={counts[SIGMA_MINUS]}"
            f" sigma_plus={counts[SIGMA_PLUS]}"
        )

    elif spec.scenario == "populations":
        pops = steady_populations(cfg)
        scheme = cfg.scheme()
        labels = [scheme.label(s) for s in scheme.ground()]
        values = [pops[s] for s in scheme.ground()]
        csv_path = base.with_suffix(".csv")
        with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("sublevel,population\n")
            for lab, val in zip(labels, values):
                fh.write(f"{lab},{val:.9g}\n")
        meta = _metadata(spec, {"populations": dict(zip(labels, values))})
        written.append(csv_path)
        triple = " ".join(
            f"{lab}={val:.3f}" for lab, val in zip(labels, values) if lab.startswith("a")
        )
        print(f"populations: {triple}")

    else:  # pragma: no cover - guarded by parse_config
        raise ConfigError(f"unhandled scenario '{spec.scenario}'")

    meta_path = base.parent / f"{base.name}.meta.json"
    write_metadata(meta_path, meta)
    written.append(meta_path)
    return written


class _ArgumentParser(argparse.ArgumentParser):
    """Reports usage errors as configuration errors (exit 1), not argparse's
    exit 2, which here means a numerical failure."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="eitrot",
        description="EIT polarization-rotation simulator for the Rb D1 line.",
    )
    parser.add_argument("--config", required=True, help="YAML run configuration")
    parser.add_argument(
        "--outdir", default=".", help="output directory (default: current)"
    )
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="PATH=VALUE",
        help="override a config key by dotted path, e.g. coupling.power_mw=10",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    parser.add_argument("--version", action="version", version=__version__)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        try:
            text = Path(args.config).read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        try:
            doc = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            raise ConfigError(f"malformed YAML: {exc}") from exc
        doc = apply_overrides(doc if doc is not None else {}, args.overrides)
        spec = parse_config(doc)
        run(spec, Path(args.outdir), verbose=args.verbose)
    except ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 1
    except (SteadyStateError, IndeterminateAngleError) as exc:
        print(f"error: numeric: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
