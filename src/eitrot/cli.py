"""Command-line front end.

Reads a YAML run configuration, executes one named scenario, and writes CSV
data plus a JSON metadata sidecar into the output directory. This module
alone decides those bytes: every table's header and layout, each cell as
``'%.9g' % x``, the JSON and every key in it. The scenarios only compute and
return values; the ``sweep`` meta block and a trace's detector signals are
derived here from a sweep's record. All frequency keys carry an explicit
unit suffix (_mhz means ordinary frequency in MHz, converted to angular
rad/s internally); powers are _mw or _uw, lengths _mm, temperatures _c or
_k, densities _per_cm3 or _per_m3, magnetic field _g.

Exit codes: 0 success, 1 configuration error (including YAML that does not
load or gives a key twice, a number that is not finite or out of its
domain, a bad command-line flag, and an output that cannot be written), 2
numerical failure (including a scan step without dispersion peaks, a
susceptibility that is not finite, a floating-point overflow, and running
out of memory), 130 an interrupt and 141 a stdout whose reader has gone
(128 + SIGINT or SIGPIPE, as a shell reports them). Errors are single lines
on stderr: ``error: config: ...``, ``error: numeric: ...`` or ``error:
interrupted``. A run replaces its files all or none, then prints its
summary line; a ``temp-scan`` also removes the per-temperature tables that a
longer earlier scan of the same basename left.

Only ``_load_yaml`` and ``build_parser`` import ``yaml`` and ``argparse``,
so a caller that parses documents and runs them in process
(``parse_config`` and ``run``) never loads either. ``run`` itself traps
floating-point overflow, division by zero and invalid operations, so such a
caller meets the same ``FloatingPointError`` that ``main`` reports as exit
2. Importing it sets glibc's mmap and trim thresholds once, unless the
environment sets them.
"""

from __future__ import annotations

import ctypes
import errno
import json
import math
import os
import re
import sys
from functools import partial
from operator import attrgetter
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from . import __version__
from .atom import (
    COUPLING,
    MHZ,
    PROBE,
    RABI_ANCHORS,
    SIGMA_MINUS,
    SIGMA_PLUS,
    TWO_PI,
    rabi_from_power,
)
from .detection import JonesVector, detector_intensities, propagate_cell, recover_angle
from .dynamics import RelaxationRates
from .scenarios import (
    NumericError,
    PeakPair,
    ScenarioConfig,
    SweepResult,
    check_powers,
    count_transmission_peaks,
    eit_transmission,
    find_dispersion_peaks,
    steady_populations,
    sweep_coupling_power,
    sweep_probe_detuning,
    sweep_temperature,
)
from .spectra import _STACK_ELEMENTS

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
    if isinstance(value, (int, float, str)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an integer beyond the float range
            number = math.inf
        except ValueError:  # a string that is not a number
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


def _load_yaml(text: str, context: str = ""):
    """The YAML document ``text``. A key given twice in one mapping is an
    error, as YAML 1.2 has it; merge keys (``<<``) may still supply keys that
    the mapping also gives. Every failure to load, an integer too long for
    Python or an impossible date included, is a one-line ConfigError
    ``<context>malformed YAML: <problem>``."""
    import yaml

    class UniqueKeyLoader(yaml.SafeLoader):
        def flatten_mapping(self, node):
            # a mapping is flattened before it is built, and again each time
            # a merge key names it, which adds the merged keys to its own
            if not getattr(node, "checked", False):
                node.checked = True
                seen = set()
                for key_node, _ in node.value:
                    if key_node.tag == "tag:yaml.org,2002:merge":
                        continue
                    key = self.construct_object(key_node)
                    try:
                        repeated = key in seen
                        seen.add(key)
                    except TypeError:  # unhashable: the base class reports it
                        continue
                    if repeated:
                        raise yaml.constructor.ConstructorError(
                            "while constructing a mapping", node.start_mark,
                            f"found duplicate key {key!r}", key_node.start_mark)
            super().flatten_mapping(node)

    try:
        return yaml.load(text, Loader=UniqueKeyLoader)
    except (yaml.YAMLError, ValueError, RecursionError) as exc:
        mark = getattr(exc, "problem_mark", None)
        problem = (f"{exc.problem} at line {mark.line + 1}, column {mark.column + 1}"
                   if mark else str(exc).partition("\n")[0])
        raise ConfigError(f"{context}malformed YAML: {problem}") from exc


def apply_overrides(doc: dict, assignments: list[str]) -> dict:
    """Apply dotted-path overrides like ``coupling.power_mw=10`` to a doc."""
    if not isinstance(doc, dict):
        raise ConfigError("configuration must be a mapping")
    for item in assignments:
        if "=" not in item:
            raise ConfigError(f"override '{item}' must look like 'path.key=value'")
        path, _, raw = item.partition("=")
        keys = path.strip().split(".")
        if not all(keys):
            raise ConfigError(f"override '{item}' has an empty path segment")
        value = _load_yaml(raw, f"override '{item}': ")
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


# CSV cells (see write_csv). A table of fewer cells is formatted by one
# ``%``: ``_format_cells`` spends about 0.05 ms on numpy calls at any size,
# and measured in process on spectrum and eit-peaks tables the two break
# even at 200-400 cells.
_VECTOR_CELLS = 300
# 10**0 ... 10**22, all exact, then 22 ones: a * _POW10[k] / _POW10[-k] is
# a * 10**k rounded once, as one multiply or one divide, for |k| <= 22.
_POW10 = np.array([float(10 ** k) for k in range(23)] + [1.0] * 22)
# A cell is laid out in four 8-byte words, NUL where no byte goes:
#   0: sign, the "0." and up to three "0"s of 0.000ddd, first digit, point;
#   1, 2: the other eight digits, each followed by a point slot;
#   3: "e" with sign and two exponent digits, the separator.
# The tables below hold words, read as uint64 so that one gather or one
# bitwise operation places eight bytes in either byte order.
_ASCII = np.frombuffer(b"0123456789", np.uint8)


def _padded(strings: list[bytes], width: int) -> np.ndarray:
    """The strings as the rows of a uint8 array, NUL-padded to ``width``."""
    return np.array(strings, f"S{width}").view(np.uint8).reshape(len(strings), width)


def _digit_tables():
    """b"%04d" % i in the even bytes of word i, and its count of trailing
    "0"s, for i below 10**4."""
    words = np.zeros((10, 10, 10, 10, 8), np.uint8)
    for k in range(4):
        words[..., 2 * k] = _ASCII.reshape((10,) + (1,) * (3 - k))
    zeros = np.zeros(10000, np.intp)
    for k in range(1, 5):
        zeros[::10 ** k] = k
    return words.view(np.uint64).ravel(), zeros


_DIGIT_WORDS, _TRAILING_ZEROS = _digit_tables()
# the first word without prefix and point, by sign bit and first digit
_FIRST = _padded([s + bytes(5) + b"%d" % d for s in (bytes(1), b"-") for d in range(10)],
                 8).view(np.uint64).ravel()
_COMMA, _NEWLINE = _padded([bytes(4) + b",", bytes(4) + b"\n"], 8).view(np.uint64).ravel()


def _cell_templates():
    """(bytes kept, bytes added) per row 46 z + e + 14 of a cell with
    exponent e (-14 to 31, the exponents with an exact power of ten and
    their carries) whose 9-digit mantissa ends in z zeros (0-8): a mask
    that clears the digits after the last one kept, and the prefix, point
    and exponent."""
    e = np.arange(-14, 32)
    fixed = (e >= -4) & (e <= 8)
    point = np.where(fixed, np.maximum(e, -1), 0)  # the digit before the "."
    kept = np.maximum(9 - np.arange(9)[:, None, None], point[:, None] + 1)
    slot = np.arange(9)
    keep = np.full((9, 46, 32), 255, np.uint8)
    keep[..., 8:24:2] = 255 * (slot[1:] < kept)
    add = np.zeros((9, 46, 32), np.uint8)
    add[..., 7:24:2] = ord(".") * ((slot == point[:, None]) & (kept > point[:, None] + 1))
    add[..., 1:6] = _padded([b"0.000"[:1 - k] if -4 <= k < 0 else b"" for k in e.tolist()], 5)
    add[..., 24:28] = _padded([b"" if -4 <= k <= 8 else b"e%+03d" % k for k in e.tolist()], 4)
    return keep.view(np.uint64).reshape(-1, 4), add.view(np.uint64).reshape(-1, 4)


_KEEP, _ADD = _cell_templates()


def _scaled(a: np.ndarray, e: np.ndarray) -> np.ndarray:
    k = np.clip(8 - e, -22, 22).astype(np.intp)
    return a * _POW10[k] / _POW10[-k]


def _decimal(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(m, e, slow) with |x| = m 10**(e - 8) to 9 significant digits.

    e comes from log10 |x| (one off next to a power of ten, which the scaled
    value shows) and the mantissa m from s = |x| 10**(8 - e), rounded once
    from the exact product. Rounding is monotone, so s lies on the same side
    of each tie m + 1/2 (exact in a float) as the product, and rint(s) is
    the correctly rounded mantissa unless s is a tie. m = 1e9 carries into
    e. ``slow`` indexes the cells this cannot decide (not finite, |8 - e|
    above 22, a tie); they and zeros get m = 1e8, e = 0.
    """
    a = np.abs(x)
    a[a == 0] = 1.0  # formatted as 1, its digit cleared in _cell_words
    a[~(a < np.inf)] = 1e300  # inf and nan: out of range
    e = np.log10(a)
    np.floor(e, out=e)
    s = _scaled(a, e)
    off = np.flatnonzero((s < 1e8) | (s >= 1e9))
    if off.size:
        e[off] += np.where(s[off] < 1e8, -1.0, 1.0)
        s[off] = _scaled(a[off], e[off])
    m = np.rint(s)
    s -= m
    slow = np.flatnonzero((np.abs(s, out=s) == 0.5) | (np.abs(8 - e) > 22))
    m[slow], e[slow] = 1e8, 0.0
    carry = m == 1e9
    m[carry] = 1e8
    e += carry
    return m, e, slow


def _cell_words(table: np.ndarray, m: np.ndarray, e: np.ndarray) -> np.ndarray:
    """The four words of each cell of ``table`` (see ``_cell_templates``)
    from the ``_decimal`` m and e of its flattened cells."""
    x = table.ravel()
    high = np.floor(m / 1e4)  # the first five digits
    low = (m - high * 1e4).astype(np.intp)
    first = np.floor(high / 1e4)
    mid = (high - first * 1e4).astype(np.intp)
    first[x == 0] = 0
    first += 10 * np.signbit(x)
    zeros = _TRAILING_ZEROS[low] + (low == 0) * _TRAILING_ZEROS[mid]
    row = (e + 14 + 46 * zeros).astype(np.intp)
    words = np.empty((x.size, 4), np.uint64)
    words[:, 0] = _FIRST[first.astype(np.intp)]
    words[:, 1] = _DIGIT_WORDS[mid]
    words[:, 2] = _DIGIT_WORDS[low]
    ends = words.reshape(*table.shape, 4)[:, :, 3]
    ends[:] = _COMMA
    ends[:, -1] = _NEWLINE
    words &= np.take(_KEEP, row, axis=0)
    words |= np.take(_ADD, row, axis=0)
    return words


def _format_cells(table: np.ndarray) -> bytes:
    """The CSV lines of a 2-D float table, each cell exactly ``'%.9g' % x``:
    the cells ``_decimal`` cannot decide by ``%``, the others from the
    words of ``_cell_words``."""
    x = table.ravel()
    m, e, slow = _decimal(x)
    cells = _cell_words(table, m, e).view(np.uint8).reshape(x.size, 32)
    if slow.size:  # over the 28 bytes before the separator
        cells[slow, :28] = _padded([b"%.9g" % v for v in x[slow].tolist()], 28)
    return cells.tobytes().translate(None, b"\0")


def write_csv(path, columns: Sequence[str], table) -> None:
    """Write a 2-D table under its header line, each cell exactly
    ``'%.9g' % x``, comma separated, with LF line ends on every platform.

    A table of ``_VECTOR_CELLS`` cells or more is formatted by
    ``_format_cells`` in blocks of whole rows, at most ``_STACK_ELEMENTS``
    cells or one row each; a smaller one by one ``%``.
    """
    table = np.asarray(table, dtype=float)
    with open(path, "wb") as fh:
        fh.write((",".join(columns) + "\n").encode())
        if table.size < _VECTOR_CELLS:
            row = ",".join(["%.9g"] * table.shape[1]) + "\n"
            fh.write((row * len(table) % tuple(table.ravel().tolist())).encode())
            return
        rows = max(1, _STACK_ELEMENTS // table.shape[1])
        for start in range(0, len(table), rows):
            fh.write(_format_cells(table[start:start + rows]))


def _write_populations(path, populations: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("sublevel,population\n")
        fh.writelines(f"{lab},{val:.9g}\n" for lab, val in populations.items())


def write_metadata(path, payload: dict) -> None:
    """Write ``payload`` as indented JSON with sorted keys, in one write:
    ``json.dump`` with an indent writes each token on its own."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


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


SPECTRUM_CSV_COLUMNS = [
    "detuning_mhz",
    "re_chi_minus", "im_chi_minus",
    "re_chi_plus", "im_chi_plus",
    "n_diff", "alpha_plus", "alpha_minus", "phi_deg",
]


def _spectrum_table(result: SweepResult) -> np.ndarray:
    p = result.pair
    return np.column_stack((
        result.detunings / TWO_PI / 1e6,
        p.chi_minus.real, p.chi_minus.imag,
        p.chi_plus.real, p.chi_plus.imag,
        p.n_plus - p.n_minus,
        p.alpha_plus, p.alpha_minus,
        np.degrees(result.phi_exact),
    ))


TRACE_CSV_COLUMNS = ["detuning_mhz", "i_d1", "i_d2", "i_d3", "i_d4", "phi_deg"]


def _trace_table(result: SweepResult) -> np.ndarray:
    """The detector intensities of the linear probe after the cell, in units
    of the input intensity, and the angle they recover."""
    s = detector_intensities(
        propagate_cell(JonesVector.linear(), result.pair, result.medium), 1.0)
    return np.column_stack((
        result.detunings / TWO_PI / 1e6,
        s.d1, s.d2, s.d3, s.d4,
        np.degrees(recover_angle(s)),
    ))


def _labelled(cfg: ScenarioConfig, populations: dict) -> dict:
    """Ground-sublevel populations by label, in the scheme's order."""
    scheme = cfg.scheme()
    return {scheme.label(s): populations[s] for s in scheme.ground()}


def _sweep(spec: RunSpec, log):
    log(f"sweeping {spec.config.points} detuning points")
    result = sweep_probe_detuning(spec.config)
    columns, table = ((SPECTRUM_CSV_COLUMNS, _spectrum_table(result))
                      if spec.scenario == "spectrum" else
                      (TRACE_CSV_COLUMNS, _trace_table(result)))
    cfg, medium = result.cfg, result.medium
    extra = {"sweep": {
        "scheme": cfg.scheme_id, "populations": _labelled(cfg, result.populations),
        "population_policy": cfg.population_policy,
        "coupling_detuning_mhz": cfg.coupling_detuning / TWO_PI / 1e6,
        "density_m3": medium.density, "temperature_k": medium.temperature,
        "v_width_ms": medium.v_width}}
    peaks = find_dispersion_peaks(result)
    if peaks.found:  # a pi_f2 spectrum has none
        extra["peaks"] = dict(zip(_PEAK_KEYS, _peak_values(peaks, spec.scenario)))
    max_phi = math.degrees(abs(result.phi_exact).max())
    return (_files(spec, partial(write_csv, columns=columns, table=table), extra),
            f"{spec.scenario}: {cfg.points} points, max |phi| = {max_phi:.6g} deg")


POWER_SCAN_CSV_COLUMNS = ["power_mw", "rabi_mhz", *_PEAK_KEYS]


def _power_scan(spec: RunSpec, log):
    cfg = spec.config
    log(f"scanning {len(spec.powers_w)} powers over {cfg.points} detuning points")
    rows = [(power * 1e3, rabi / MHZ, *_peak_values(peaks, f"{power * 1e3:g} mW"))
            for power, rabi, peaks in sweep_coupling_power(cfg, list(spec.powers_w))]
    return (_files(spec, partial(write_csv, columns=POWER_SCAN_CSV_COLUMNS, table=rows)),
            f"power-scan: {len(rows)} powers")


TEMP_SCAN_CSV_COLUMNS = ["temperature_k", "density_m3", *_PEAK_KEYS, "max_abs_phi_deg"]


def _temp_scan(spec: RunSpec, log):
    log(f"scanning {len(spec.temperatures_k)} temperatures over {spec.config.points} "
        "detuning points")
    results = sweep_temperature(spec.config, list(spec.temperatures_k))
    rows = [(t, result.medium.density,
             *_peak_values(find_dispersion_peaks(result), f"{t:.2f} K"),
             math.degrees(abs(result.phi_exact).max())) for t, result in results]
    tables = [(f"{spec.basename}_t{i}.csv", partial(
        write_csv, columns=SPECTRUM_CSV_COLUMNS, table=_spectrum_table(result)))
        for i, (_, result) in enumerate(results, start=1)]
    return (_files(spec, partial(write_csv, columns=TEMP_SCAN_CSV_COLUMNS, table=rows),
                   {"per_temperature_files": [name for name, _ in tables]}, tables),
            f"temp-scan: {len(rows)} temperatures")


EIT_CSV_COLUMNS = ["detuning_mhz", "transmission_sigma_minus", "transmission_sigma_plus"]


def _eit_peaks(spec: RunSpec, log):
    curves = {comp: eit_transmission(spec.config, comp)
              for comp in (SIGMA_MINUS, SIGMA_PLUS)}
    counts = {comp: count_transmission_peaks(c) for comp, c in curves.items()}
    table = np.column_stack((curves[SIGMA_MINUS].detunings / MHZ,
                             *(c.transmission for c in curves.values())))
    return (_files(spec, partial(write_csv, columns=EIT_CSV_COLUMNS, table=table),
                   {"peak_counts": counts}),
            f"eit-peaks: sigma_minus={counts[SIGMA_MINUS]} sigma_plus={counts[SIGMA_PLUS]}")


def _populations(spec: RunSpec, log):
    populations = _labelled(spec.config, steady_populations(spec.config))
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


def _commit(outdir: Path, files: list, stale: list[Path]) -> list[Path]:
    """Write ``files`` into ``outdir`` all or none, then remove the ``stale``
    paths; returns the files' paths. Each is written under a hidden temporary
    name first; only when all are, and no target is a directory, is each old
    file unlinked (ext4 flushes a file renamed over another) and the new one
    renamed into place. Any exception removes the temporaries."""
    paths = [outdir / name for name, _ in files]
    # str, not Path: pathlib interns each name it parses, and every interned
    # name that dies brings the resize of the interpreter's table nearer
    temporaries = [os.path.join(outdir, f".{name}.{os.getpid()}.tmp") for name, _ in files]
    try:
        for temporary, (_, write) in zip(temporaries, files):
            write(temporary)
        for path in (*paths, *stale):  # unlinking it would stop the renames part way
            if path.is_dir() and not path.is_symlink():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
        for temporary, path in zip(temporaries, paths):
            path.unlink(missing_ok=True)
            os.rename(temporary, path)
        for path in stale:
            path.unlink(missing_ok=True)
    except BaseException:
        for temporary in temporaries:
            Path(temporary).unlink(missing_ok=True)
        raise
    return paths


def run(spec: RunSpec, outdir: Path, verbose: bool = False) -> list[Path]:
    """Execute the scenario, put its files in place and print its console
    line; returns the files written. An overflow or undefined operation
    anywhere raises FloatingPointError and writes nothing."""
    outdir.mkdir(parents=True, exist_ok=True)
    log = partial(print, file=sys.stderr) if verbose else lambda msg: None
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        files, line = _SCENARIOS[spec.scenario](spec, log)
        stale = []
        if spec.scenario == "temp-scan":  # the tables of a longer earlier scan
            table = re.compile(re.escape(spec.basename) + r"_t([1-9][0-9]*)\.csv")
            stale = [outdir / name for name in os.listdir(outdir)
                     if (k := table.fullmatch(name)) and int(k[1]) > len(spec.temperatures_k)]
        written = _commit(outdir, files, stale)
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


# the line boundaries of str.splitlines, escaped: an error is one line even
# where it quotes a value or a path that holds one
_ONE_LINE = {ord(c): repr(c)[1:-1] for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"}


def _error(message: str) -> None:
    print(f"error: {message}".translate(_ONE_LINE), file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        try:
            text = Path(args.config).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        doc = _load_yaml(text)
        doc = apply_overrides(doc if doc is not None else {}, args.overrides)
        run(parse_config(doc), Path(args.outdir), verbose=args.verbose)
    except ConfigError as exc:
        _error(f"config: {exc}")
        return 1
    except BrokenPipeError:
        # stdout's reader has gone: point stdout at devnull for the flush at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE
    except OSError as exc:  # reading the config raises ConfigError instead
        _error(f"config: cannot write output: {exc}")
        return 1
    except KeyboardInterrupt:
        _error("interrupted")
        return 130  # 128 + SIGINT
    except NumericError as exc:
        _error(f"numeric: {exc}")
        return 2
    except (FloatingPointError, OverflowError) as exc:
        # args[-1] is the message alone, without the errno of a math overflow
        _error(f"numeric: floating-point failure: {exc.args[-1]}")
        return 2
    except MemoryError as exc:
        _error(f"numeric: out of memory: {exc}")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
