"""Command-line front end.

Reads a YAML run configuration, executes one named scenario, and writes CSV
data plus a JSON metadata sidecar into the output directory. All frequency
keys carry an explicit unit suffix (_mhz means ordinary frequency in MHz,
converted to angular rad/s internally); powers are _mw or _uw, lengths _mm,
temperatures _c or _k, densities _per_cm3 or _per_m3, magnetic field _g.

Exit codes: 0 success, 1 configuration error (including a number that is
not finite or out of its domain, a bad command-line flag, and an output that
cannot be written), 2 numerical failure (including a scan step without
dispersion peaks, a susceptibility that is not finite, a floating-point
overflow, and running out of memory). Errors are single lines on stderr of
the form ``error: config: ...`` or ``error: numeric: ...``.

Only ``main``, ``apply_overrides`` and ``build_parser`` import ``yaml`` and
``argparse``, so a caller that parses documents and runs them in process
(``parse_config`` and ``run``) never loads either. Importing it sets glibc's
mmap and trim thresholds once, unless the environment sets them.
"""

from __future__ import annotations

import ctypes
import math
import os
import sys
from operator import attrgetter
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .atom import (
    COUPLING,
    MHZ,
    PROBE,
    RABI_ANCHORS,
    SIGMA_MINUS,
    SIGMA_PLUS,
    rabi_from_power,
)
from .detection import TRACE_CSV_COLUMNS, IndeterminateAngleError
from .dynamics import RelaxationRates, SteadyStateError
from .scenarios import (
    EIT_CSV_COLUMNS,
    POWER_SCAN_CSV_COLUMNS,
    TEMP_SCAN_CSV_COLUMNS,
    NumericError,
    PeakPair,
    ScenarioConfig,
    check_powers,
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
from .spectra import SPECTRUM_CSV_COLUMNS

# glibc gives each freed block of 128 KiB or more, and a heap top above 128
# KiB, back to the kernel, so the next CSV block faults it in again. These are
# the thresholds its dynamic rule reaches after freeing a 32 MiB block.
if ("CS_GNU_LIBC_VERSION" in getattr(os, "confstr_names", {})
        and os.confstr("CS_GNU_LIBC_VERSION")
        and not {"MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_",
                 "GLIBC_TUNABLES"} & os.environ.keys()):
    _mallopt = ctypes.CDLL(None).mallopt
    _mallopt.argtypes, _mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    _mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    _mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD

SCENARIOS = (
    "spectrum",
    "power-scan",
    "temp-scan",
    "eit-peaks",
    "detector-trace",
    "populations",
)


class ConfigError(Exception):
    """Configuration document is invalid; message names the offending key."""


class RunSpec(NamedTuple):
    """A fully resolved run: scenario name, sweep config, scan lists."""

    scenario: str
    config: ScenarioConfig
    powers_w: tuple[float, ...]
    temperatures_k: tuple[float, ...]
    basename: str
    resolved: dict  # canonical config document, round-trips through parse_config


# Keys of ScenarioConfig fields: dotted key -> (field, 'rates.<field>' for a
# RelaxationRates field; factor from the key's unit to SI, or None for a
# value taken as it is, of the type of the field's default). The defaults
# are the dataclass defaults.
_FIELDS = {
    "scheme": ("scheme_id", None),
    "probe.rabi_mhz": ("probe_rabi", MHZ),
    "probe.detuning_min_mhz": ("detuning_min", MHZ),
    "probe.detuning_max_mhz": ("detuning_max", MHZ),
    "probe.points": ("points", None),
    "coupling.rabi_mhz": ("coupling_rabi", MHZ),
    "coupling.detuning_mhz": ("coupling_detuning", MHZ),
    "medium.temperature_k": ("temperature", 1.0),
    "medium.density_per_m3": ("density", 1.0),
    "medium.cell_length_mm": ("cell_length", 1e-3),
    "magnetic_field_g": ("b_field", 1e-4),
    "stark_shifts": ("stark_enabled", None),
    "population_policy": ("population_policy", None),
    "rates.gamma_mhz": ("rates.gamma", MHZ),
    "rates.gamma_ca_mhz": ("rates.gamma_ca", MHZ),
    "rates.gamma_ba_mhz": ("rates.gamma_ba", MHZ),
    "rates.gamma_ground_mhz": ("rates.gamma_ground", MHZ),
    "rates.transit_mhz": ("rates.gamma_transit", MHZ),
}


def _kelvin(celsius: float) -> float:
    return celsius + 273.15


def _check_temperatures(temperatures) -> None:
    """Raise ValueError for a temperature (K) that the configs of a
    temperature scan reject."""
    for t in temperatures:
        ScenarioConfig(temperature=t)


# Keys that give the quantity of a _FIELDS key in another unit: key -> (the
# key it replaces, conversion into that key's unit).
_ALTERNATIVES = {
    "probe.power_uw": (
        "probe.rabi_mhz", lambda uw: rabi_from_power(uw * 1e-6, PROBE) / MHZ),
    "coupling.power_mw": (
        "coupling.rabi_mhz", lambda mw: rabi_from_power(mw * 1e-3, COUPLING) / MHZ),
    "medium.temperature_c": ("medium.temperature_k", _kelvin),
    "medium.density_per_cm3": ("medium.density_per_m3", lambda n: n * 1e6),
}

# The scan lists: key -> (RunSpec field, conversion to SI, default, check).
_SCANS = {
    "power_scan.powers_mw": (
        "powers_w", lambda mw: mw * 1e-3, [6.0, 8.0, 10.0, 12.0, 15.0], check_powers),
    "temp_scan.temperatures_c": (
        "temperatures_k", _kelvin, [45.0, 55.0, 65.0], _check_temperatures),
}

_KEYS = (*_FIELDS, *_ALTERNATIVES, *_SCANS)
_SECTIONS = {key.partition(".")[0] for key in _KEYS if "." in key}
_DEFAULTS = ScenarioConfig()
_KINDS = {int: "an integer", bool: "a boolean", str: "a string"}


def _flatten(doc) -> dict:
    """The document's values by dotted key; a null value counts as absent."""
    if not isinstance(doc, dict):
        raise ConfigError("configuration must be a mapping")
    flat = {}
    for name, value in doc.items():
        if "." in str(name):
            raise ConfigError(f"unknown key '{name}'")
        if value is None:
            continue
        if name not in _SECTIONS:
            flat[name] = value
        elif not isinstance(value, dict):
            raise ConfigError(f"key '{name}' must be a mapping")
        else:
            flat.update((f"{name}.{k}", v) for k, v in value.items() if v is not None)
    return flat


def _rejected(key: str, exc: ValueError) -> ConfigError:
    """``exc``, whose message starts with the name of what it rejects, as a
    configuration error naming ``key`` instead."""
    return ConfigError(f"key '{key}' {str(exc).partition(' ')[2]}")


def _number(value, key: str, convert=float) -> float:
    """``convert`` of the number under ``key``; it must be finite before and
    after. Accepts '1e17'-style strings (YAML 1.1 leaves exponent forms
    without a sign as plain strings)."""
    number = None
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        number = float(value)
    elif isinstance(value, str):
        try:
            number = float(value)
        except ValueError:
            pass
    if number is None:
        raise ConfigError(f"key '{key}' must be a number")
    if math.isfinite(number):
        try:
            number = convert(number)
        except ValueError as exc:
            raise _rejected(key, exc) from exc
    if not math.isfinite(number):
        raise ConfigError(f"key '{key}' must be finite")
    return number


def _nested(flat: dict) -> dict:
    """The document whose values by dotted key are ``flat``."""
    doc = {}
    for key, value in flat.items():
        section, _, name = key.partition(".")
        if name:
            doc.setdefault(section, {})[name] = value
        else:
            doc[key] = value
    return doc


def parse_config(doc: dict) -> RunSpec:
    """Validate and resolve a configuration document into a RunSpec.

    ``resolved`` holds every key of the tables above in its own unit, the
    defaults included, and re-parses to the identical RunSpec. A number out
    of its domain is reported under the key that gave it.
    """
    given = _flatten(doc)
    values = {}  # the resolved document, by dotted key
    named = {}  # first word of a domain error (a field) -> its key

    def take(key, default=None):
        values[key] = given.pop(key, default)
        return values[key]

    scenario = take("scenario")
    if scenario is None:
        raise ConfigError("missing required key 'scenario'")
    if scenario not in SCENARIOS:
        raise ConfigError(
            f"unknown scenario '{scenario}'; choose from {', '.join(SCENARIOS)}"
        )
    basename = take("output_basename", scenario.replace("-", "_"))
    if type(basename) is not str:
        raise ConfigError(f"key 'output_basename' must be {_KINDS[str]}")
    if (basename in ("", ".", "..") or "\0" in basename
            or Path(basename).name != basename):
        raise ConfigError(
            "key 'output_basename' must be a file name without a directory")

    for key, (replaced, convert) in _ALTERNATIVES.items():
        if key in given:
            if replaced in given:
                raise ConfigError(
                    f"over-specified: give '{replaced}' or '{key}', not both")
            given[replaced] = _number(given.pop(key), key, convert)
            named[_FIELDS[replaced][0]] = key

    config_fields, rates = {}, {}
    for key, (field, factor) in _FIELDS.items():
        section, _, name = field.rpartition(".")
        named.setdefault(name, key)
        default = attrgetter(field)(_DEFAULTS)
        if key not in given:
            value = default if factor is None or default is None else default / factor
        elif factor is not None:
            value = _number(given.pop(key), key)
        else:
            value = given.pop(key)
            if type(value) is not type(default):
                raise ConfigError(f"key '{key}' must be {_KINDS[type(default)]}")
        if value is not None or field != "density":  # no density: the vapor curve
            values[key] = value
        (rates if section else config_fields)[name] = (
            value if factor is None or value is None else value * factor)

    scans = {}
    for key, (field, convert, default, check) in _SCANS.items():
        numbers = given.pop(key, default)
        if not isinstance(numbers, list) or not numbers:
            raise ConfigError(f"key '{key}' must be a non-empty number list")
        values[key] = [_number(v, key) for v in numbers]
        scans[field] = tuple(convert(v) for v in values[key])
        try:
            check(scans[field])
        except ValueError as exc:
            raise _rejected(key, exc) from exc

    if given:
        key = next(iter(given))
        suffixed = sorted(k for k in _KEYS if k.startswith(f"{key}_"))
        if suffixed:
            raise ConfigError(
                f"unknown key '{key}': unit suffix required, use '{suffixed[0]}'")
        raise ConfigError(f"unknown key '{key}'")

    try:
        config = ScenarioConfig(**config_fields, rates=RelaxationRates(**rates))
    except ValueError as exc:
        subject = str(exc).partition(" ")[0]
        raise _rejected(named.get(subject, subject), exc) from exc

    return RunSpec(scenario=scenario, config=config, basename=basename,
                   resolved=_nested(values), **scans)


def apply_overrides(doc: dict, assignments: list[str]) -> dict:
    """Apply dotted-path overrides like ``coupling.power_mw=10`` to a doc."""
    import yaml

    if not isinstance(doc, dict):
        raise ConfigError("configuration must be a mapping")
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
            f"{which}_anchor": {"power_w": power, "rabi_mhz": rabi / MHZ}
            for which, (power, rabi) in RABI_ANCHORS.items()
        },
    }
    if extra:
        payload.update(extra)
    return payload


_PEAK_KEYS = (
    "left_detuning_mhz", "left_phi_deg", "right_detuning_mhz", "right_phi_deg",
)


def _peak_values(peaks: PeakPair, where: str) -> tuple[float, float, float, float]:
    """Both dispersion peaks as MHz, deg, MHz, deg; a spectrum without them
    (``where`` names it) fails the run."""
    if not peaks.found:
        raise NumericError(f"no dispersion peaks at {where}")
    return (peaks.left.detuning / MHZ, math.degrees(peaks.left.phi),
            peaks.right.detuning / MHZ, math.degrees(peaks.right.phi))


def run(spec: RunSpec, outdir: Path, verbose: bool = False) -> list[Path]:
    """Execute the scenario; returns the list of files written."""
    outdir.mkdir(parents=True, exist_ok=True)
    csv_path = outdir / f"{spec.basename}.csv"  # every scenario's main table
    cfg = spec.config
    written = []  # per-temperature tables; csv_path and the meta file follow

    def log(msg):
        if verbose:
            print(msg, file=sys.stderr)

    if spec.scenario in ("spectrum", "detector-trace"):
        log(f"sweeping {cfg.points} detuning points")
        result = sweep_probe_detuning(cfg)
        if spec.scenario == "spectrum":
            write_csv(csv_path, SPECTRUM_CSV_COLUMNS, result.spectrum_table())
        else:
            write_csv(csv_path, TRACE_CSV_COLUMNS, result.trace_table())
        meta = _metadata(spec, {"sweep": result.metadata})
        peaks = find_dispersion_peaks(result)
        if peaks.found:  # a pi_f2 spectrum has none
            meta["peaks"] = dict(zip(_PEAK_KEYS, _peak_values(peaks, spec.scenario)))
        max_phi = math.degrees(abs(result.phi_exact).max())
        print(f"{spec.scenario}: {cfg.points} points, max |phi| = {max_phi:.6g} deg")

    elif spec.scenario == "power-scan":
        log(f"scanning {len(spec.powers_w)} powers over {cfg.points} detuning points")
        rows = []
        for power, rabi, peaks in sweep_coupling_power(cfg, list(spec.powers_w)):
            rows.append((power * 1e3, rabi / MHZ,
                         *_peak_values(peaks, f"{power * 1e3:g} mW")))
        write_csv(csv_path, POWER_SCAN_CSV_COLUMNS, rows)
        meta = _metadata(spec)
        print(f"power-scan: {len(rows)} powers")

    elif spec.scenario == "temp-scan":
        log(f"scanning {len(spec.temperatures_k)} temperatures over {cfg.points} "
            "detuning points")
        results = sweep_temperature(cfg, list(spec.temperatures_k))
        rows = [(  # every temperature has its peaks before any file is written
            t, result.metadata["density_m3"],
            *_peak_values(find_dispersion_peaks(result), f"{t:.2f} K"),
            math.degrees(abs(result.phi_exact).max()),
        ) for t, result in results]
        per_temp_files = []
        for i, (t, result) in enumerate(results, start=1):
            sub_path = outdir / f"{spec.basename}_t{i}.csv"
            write_csv(sub_path, SPECTRUM_CSV_COLUMNS, result.spectrum_table())
            per_temp_files.append(str(sub_path.name))
            written.append(sub_path)
        write_csv(csv_path, TEMP_SCAN_CSV_COLUMNS, rows)
        meta = _metadata(spec, {"per_temperature_files": per_temp_files})
        print(f"temp-scan: {len(rows)} temperatures")

    elif spec.scenario == "eit-peaks":
        curves = {comp: eit_transmission(cfg, comp)
                  for comp in (SIGMA_MINUS, SIGMA_PLUS)}
        counts = {comp: count_transmission_peaks(c) for comp, c in curves.items()}
        write_csv(csv_path, EIT_CSV_COLUMNS, np.column_stack((
            curves[SIGMA_MINUS].detunings / MHZ,
            *(c.transmission for c in curves.values()))))
        meta = _metadata(spec, {"peak_counts": counts})
        print(
            f"eit-peaks: sigma_minus={counts[SIGMA_MINUS]}"
            f" sigma_plus={counts[SIGMA_PLUS]}"
        )

    elif spec.scenario == "populations":
        pops = steady_populations(cfg)
        scheme = cfg.scheme()
        labels = [scheme.label(s) for s in scheme.ground()]
        values = [pops[s] for s in scheme.ground()]
        with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("sublevel,population\n")
            for lab, val in zip(labels, values):
                fh.write(f"{lab},{val:.9g}\n")
        meta = _metadata(spec, {"populations": dict(zip(labels, values))})
        triple = " ".join(
            f"{lab}={val:.3f}" for lab, val in zip(labels, values) if lab.startswith("a")
        )
        print(f"populations: {triple}")

    else:  # pragma: no cover - guarded by parse_config
        raise ConfigError(f"unhandled scenario '{spec.scenario}'")

    meta_path = outdir / f"{spec.basename}.meta.json"
    write_metadata(meta_path, meta)
    written += [csv_path, meta_path]
    return written


def build_parser() -> argparse.ArgumentParser:
    import argparse

    class _ArgumentParser(argparse.ArgumentParser):
        """Reports usage errors as configuration errors (exit 1), not
        argparse's exit 2, which here means a numerical failure."""

        def error(self, message):
            raise ConfigError(message)

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
    import yaml

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
        # an overflow or undefined operation anywhere fails the run
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            run(spec, Path(args.outdir), verbose=args.verbose)
    except ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # reading the config raises ConfigError instead
        print(f"error: config: cannot write output: {exc}", file=sys.stderr)
        return 1
    except (NumericError, SteadyStateError, IndeterminateAngleError) as exc:
        print(f"error: numeric: {exc}", file=sys.stderr)
        return 2
    except (FloatingPointError, OverflowError) as exc:
        # args[-1] is the message alone, without the errno of a math overflow
        print(f"error: numeric: floating-point failure: {exc.args[-1]}",
              file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: numeric: out of memory: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
