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
overflow, and running out of memory), 130 an interrupt and 141 a stdout whose
reader has gone (128 + SIGINT or SIGPIPE, as a shell reports them). Errors are
single lines on stderr: ``error: config: ...``, ``error: numeric: ...`` or
``error: interrupted``. A run replaces its files all or none, then prints its
summary line; per-temperature tables of a longer earlier ``temp-scan`` stay.

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
from functools import partial
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
from .detection import TRACE_CSV_COLUMNS
from .dynamics import RelaxationRates
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


_PEAK_KEYS = ("left_detuning_mhz", "left_phi_deg", "right_detuning_mhz", "right_phi_deg")


def _peak_values(peaks: PeakPair, where: str) -> tuple[float, float, float, float]:
    """Both dispersion peaks as MHz, deg, MHz, deg; a spectrum without them
    (``where`` names it) fails the run."""
    if not peaks.found:
        raise NumericError(f"no dispersion peaks at {where}")
    return (peaks.left.detuning / MHZ, math.degrees(peaks.left.phi),
            peaks.right.detuning / MHZ, math.degrees(peaks.right.phi))


def _files(spec: RunSpec, write_table, extra: dict | None = None, tables=()) -> list:
    """A run's files as (name, write function of a path) pairs, in the order
    ``run`` returns them: ``tables``, the main table and the meta file."""
    meta = {"version": __version__, "config": spec.resolved, "calibration": {
        f"{which}_anchor": {"power_w": power, "rabi_mhz": rabi / MHZ}
        for which, (power, rabi) in RABI_ANCHORS.items()}, **(extra or {})}
    return [*tables, (f"{spec.basename}.csv", write_table),
            (f"{spec.basename}.meta.json", partial(write_metadata, payload=meta))]


def _sweep(spec: RunSpec, log):
    cfg = spec.config
    log(f"sweeping {cfg.points} detuning points")
    result = sweep_probe_detuning(cfg)
    columns, table = ((SPECTRUM_CSV_COLUMNS, result.spectrum_table())
                      if spec.scenario == "spectrum" else
                      (TRACE_CSV_COLUMNS, result.trace_table()))
    extra = {"sweep": result.metadata}
    peaks = find_dispersion_peaks(result)
    if peaks.found:  # a pi_f2 spectrum has none
        extra["peaks"] = dict(zip(_PEAK_KEYS, _peak_values(peaks, spec.scenario)))
    max_phi = math.degrees(abs(result.phi_exact).max())
    return (_files(spec, partial(write_csv, columns=columns, table=table), extra),
            f"{spec.scenario}: {cfg.points} points, max |phi| = {max_phi:.6g} deg")


def _power_scan(spec: RunSpec, log):
    cfg = spec.config
    log(f"scanning {len(spec.powers_w)} powers over {cfg.points} detuning points")
    rows = [(power * 1e3, rabi / MHZ, *_peak_values(peaks, f"{power * 1e3:g} mW"))
            for power, rabi, peaks in sweep_coupling_power(cfg, list(spec.powers_w))]
    return (_files(spec, partial(write_csv, columns=POWER_SCAN_CSV_COLUMNS, table=rows)),
            f"power-scan: {len(rows)} powers")


def _temp_scan(spec: RunSpec, log):
    log(f"scanning {len(spec.temperatures_k)} temperatures over {spec.config.points} "
        "detuning points")
    results = sweep_temperature(spec.config, list(spec.temperatures_k))
    rows = [(t, result.metadata["density_m3"],
             *_peak_values(find_dispersion_peaks(result), f"{t:.2f} K"),
             math.degrees(abs(result.phi_exact).max())) for t, result in results]
    tables = [(f"{spec.basename}_t{i}.csv", partial(
        write_csv, columns=SPECTRUM_CSV_COLUMNS, table=result.spectrum_table()))
        for i, (_, result) in enumerate(results, start=1)]
    return (_files(spec, partial(write_csv, columns=TEMP_SCAN_CSV_COLUMNS, table=rows),
                   {"per_temperature_files": [name for name, _ in tables]}, tables),
            f"temp-scan: {len(rows)} temperatures")


def _eit_peaks(spec: RunSpec, log):
    curves = {comp: eit_transmission(spec.config, comp)
              for comp in (SIGMA_MINUS, SIGMA_PLUS)}
    counts = {comp: count_transmission_peaks(c) for comp, c in curves.items()}
    table = np.column_stack((curves[SIGMA_MINUS].detunings / MHZ,
                             *(c.transmission for c in curves.values())))
    return (_files(spec, partial(write_csv, columns=EIT_CSV_COLUMNS, table=table),
                   {"peak_counts": counts}),
            f"eit-peaks: sigma_minus={counts[SIGMA_MINUS]} sigma_plus={counts[SIGMA_PLUS]}")


def _write_populations(path, populations: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("sublevel,population\n")
        fh.writelines(f"{lab},{val:.9g}\n" for lab, val in populations.items())


def _populations(spec: RunSpec, log):
    pops = steady_populations(spec.config)
    scheme = spec.config.scheme()
    populations = {scheme.label(s): pops[s] for s in scheme.ground()}
    triple = " ".join(
        f"{lab}={val:.3f}" for lab, val in populations.items() if lab.startswith("a"))
    return (_files(spec, partial(_write_populations, populations=populations),
                   {"populations": populations}),
            f"populations: {triple}")


# Each scenario returns its files (see _files) and its console line, and
# writes nothing; run puts the files in place, then prints the line.
_SCENARIOS = {
    "spectrum": _sweep,
    "power-scan": _power_scan,
    "temp-scan": _temp_scan,
    "eit-peaks": _eit_peaks,
    "detector-trace": _sweep,
    "populations": _populations,
}
SCENARIOS = tuple(_SCENARIOS)


def _commit(outdir: Path, files: list) -> list[Path]:
    """Write ``files`` into ``outdir`` all or none; returns their paths.
    Each is written under a hidden temporary name first; only when all are
    is each old file unlinked (ext4 flushes a file renamed over another) and
    the new one renamed into place. Any exception removes the temporaries."""
    paths = [outdir / name for name, _ in files]
    # str, not Path: pathlib interns each name it parses, and every interned
    # name that dies brings the resize of the interpreter's table nearer
    temporaries = [os.path.join(outdir, f".{name}.{os.getpid()}.tmp") for name, _ in files]
    try:
        for temporary, (_, write) in zip(temporaries, files):
            write(temporary)
        for temporary, path in zip(temporaries, paths):
            path.unlink(missing_ok=True)
            os.rename(temporary, path)
    except BaseException:
        for temporary in temporaries:
            Path(temporary).unlink(missing_ok=True)
        raise
    return paths


def run(spec: RunSpec, outdir: Path, verbose: bool = False) -> list[Path]:
    """Execute the scenario, put its files in place and print its console
    line; returns the files written."""
    outdir.mkdir(parents=True, exist_ok=True)
    log = partial(print, file=sys.stderr) if verbose else lambda msg: None
    files, line = _SCENARIOS[spec.scenario](spec, log)
    written = _commit(outdir, files)
    print(line, flush=True)
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
    except BrokenPipeError:
        # stdout's reader has gone: point stdout at devnull for the flush at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE
    except OSError as exc:  # reading the config raises ConfigError instead
        print(f"error: config: cannot write output: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130  # 128 + SIGINT
    except NumericError as exc:
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
