"""Workload inputs and output checks for the eitrot benchmark.

Each workload is a list of YAML-style configuration documents, passed to
``eitrot.cli.parse_config`` and run one after another with ``eitrot.cli.run``.
The ``quick`` size shrinks every detuning grid for the self-test; its
reference values are recorded separately.

A seed other than 0 shifts every detuning grid by less than 1e-5 of its
step. That changes every input number the program sees, but no check below
can tell: the sampled peak angles move by far less than the angle tolerance,
and the peak positions move by the shift, which the check adds back.
"""

from __future__ import annotations

import csv
import json
import random
from pathlib import Path

MAX_SHIFT_STEPS = 1e-5

# Angles may move inside the quadrature's rtol (1e-6) when the velocity
# average changes method, so the angle tolerance sits ten times above it.
ANGLE_RTOL = 1e-5
# A reported peak position must stay on the same grid point.
POSITION_STEPS = 1e-3

# (detuning_min_mhz, detuning_max_mhz, points) per size
_GRIDS = {
    "spectrum_wide": {"full": (-400.0, 400.0, 1201), "quick": (-400.0, 400.0, 121)},
    "per_point_zeeman": {"full": (-40.0, 40.0, 401), "quick": (-40.0, 40.0, 41)},
    "eit-peaks": {"full": (-30.0, 30.0, 301), "quick": (-30.0, 30.0, 121)},
    "scan": {"full": (-40.0, 40.0, 161), "quick": (-40.0, 40.0, 41)},
}

# Fingerprints of the seed-0 inputs, from the commit that defined the
# benchmark. Angles in degrees, detunings in MHz.
REFERENCE = {
    "spectrum_wide": {
        "full": {
            "max_abs_phi_deg": 42.4256337,
            "left_detuning_mhz": -5.33333333, "left_phi_deg": 42.4256336628,
            "right_detuning_mhz": 8.0, "right_phi_deg": -32.3098634613,
        },
        "quick": {
            "max_abs_phi_deg": 41.3077837,
            "left_detuning_mhz": -6.66666667, "left_phi_deg": 41.3077836909,
            "right_detuning_mhz": 6.66666667, "right_phi_deg": -31.7197555136,
        },
    },
    "per_point_zeeman": {
        "full": {
            "max_abs_phi_deg": 39.0339189,
            "left_detuning_mhz": -20.4, "left_phi_deg": 39.0339188821,
            "right_detuning_mhz": 2.8, "right_phi_deg": -33.2026532764,
        },
        "quick": {
            "max_abs_phi_deg": 38.924731,
            "left_detuning_mhz": -20.0, "left_phi_deg": 38.9247309972,
            "right_detuning_mhz": 2.0, "right_phi_deg": -33.0079404366,
        },
    },
    "scan_campaign": {
        "full": {"peak_counts": {"sigma_minus": 3, "sigma_plus": 2}},
        "quick": {"peak_counts": {"sigma_minus": 3, "sigma_plus": 2}},
    },
}


def grid_shift(seed: int) -> float:
    """Grid shift, as a fraction of the grid step, that ``seed`` applies."""
    if seed == 0:
        return 0.0
    return random.Random(seed).uniform(-MAX_SHIFT_STEPS, MAX_SHIFT_STEPS)


def _probe(grid: tuple, shift: float, **extra) -> dict:
    lo, hi, points = grid
    offset = shift * (hi - lo) / (points - 1)
    return {"detuning_min_mhz": lo + offset, "detuning_max_mhz": hi + offset,
            "points": points, **extra}


def documents(name: str, seed: int, size: str = "full") -> list[dict]:
    """Configuration documents of workload ``name``, in run order."""
    shift = grid_shift(seed)
    if name == "spectrum_wide":
        return [{"scenario": "spectrum",
                 "probe": _probe(_GRIDS[name][size], shift)}]
    if name == "per_point_zeeman":
        return [{"scenario": "spectrum", "population_policy": "per_point",
                 "magnetic_field_g": 10,
                 "probe": _probe(_GRIDS[name][size], shift)}]
    if name == "scan_campaign":
        scan = _GRIDS["scan"][size]
        return [
            {"scenario": "eit-peaks", "magnetic_field_g": 10,
             "probe": _probe(_GRIDS["eit-peaks"][size], shift, rabi_mhz=1),
             "coupling": {"rabi_mhz": 30},
             "medium": {"density_per_m3": 1e17}},
            {"scenario": "power-scan", "probe": _probe(scan, shift)},
            {"scenario": "temp-scan", "probe": _probe(scan, shift)},
        ]
    raise KeyError(name)


WORKLOADS = tuple(REFERENCE)


def _read_csv(path: Path) -> dict[str, list[float]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    return {col: [float(r[i]) for r in body] for i, col in enumerate(header)}


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _close(got: float, want: float, rtol: float) -> bool:
    return abs(got - want) <= rtol * abs(want)


def _strictly_increasing(values: list[float]) -> bool:
    return all(a < b for a, b in zip(values, values[1:]))


def _check_spectrum(outdir: Path, doc: dict, seed: int, ref: dict) -> list[str]:
    probe = doc["probe"]
    csv_cols = _read_csv(outdir / "spectrum.csv")
    meta = _read_json(outdir / "spectrum.meta.json")
    problems = []
    if len(csv_cols["phi_deg"]) != probe["points"]:
        problems.append(f"spectrum.csv has {len(csv_cols['phi_deg'])} rows,"
                        f" want {probe['points']}")
    if "peaks" not in meta:
        return problems + ["spectrum.meta.json has no dispersion peaks"]
    got = dict(meta["peaks"])
    got["max_abs_phi_deg"] = max(abs(v) for v in csv_cols["phi_deg"])
    step = (probe["detuning_max_mhz"] - probe["detuning_min_mhz"]) / (probe["points"] - 1)
    offset = grid_shift(seed) * step
    for key, want in ref.items():
        if key.endswith("_deg"):
            ok = _close(got[key], want, ANGLE_RTOL)
        else:
            ok = abs(got[key] - (want + offset)) <= POSITION_STEPS * step
        if not ok:
            problems.append(f"{key} = {got[key]:.9g}, reference {want:.9g}")
    return problems


def _check_scans(outdir: Path, docs: list[dict], ref: dict) -> list[str]:
    problems = []
    counts = _read_json(outdir / "eit_peaks.meta.json")["peak_counts"]
    if counts != ref["peak_counts"]:
        problems.append(f"eit-peaks census {counts}, reference {ref['peak_counts']}")
    if len(_read_csv(outdir / "eit_peaks.csv")["detuning_mhz"]) != docs[0]["probe"]["points"]:
        problems.append("eit_peaks.csv row count differs from the grid")

    power = _read_csv(outdir / "power_scan.csv")
    if len(power["power_mw"]) != 5:
        problems.append(f"power_scan.csv has {len(power['power_mw'])} rows, want 5")
    for side in ("left", "right"):
        magnitudes = [abs(v) for v in power[f"{side}_phi_deg"]]
        if not _strictly_increasing(magnitudes):
            problems.append(f"power-scan {side} peak |phi| not increasing: {magnitudes}")

    temp = _read_csv(outdir / "temp_scan.csv")
    if not _strictly_increasing(temp["max_abs_phi_deg"]) or len(temp["max_abs_phi_deg"]) != 3:
        problems.append(f"temp-scan max |phi| not increasing over 3 temperatures:"
                        f" {temp['max_abs_phi_deg']}")
    points = docs[2]["probe"]["points"]
    for i in (1, 2, 3):
        rows = len(_read_csv(outdir / f"temp_scan_t{i}.csv")["phi_deg"])
        if rows != points:
            problems.append(f"temp_scan_t{i}.csv has {rows} rows, want {points}")
    return problems


def _expected_files(name: str) -> set[str]:
    if name == "scan_campaign":
        return {"eit_peaks.csv", "eit_peaks.meta.json", "power_scan.csv",
                "power_scan.meta.json", "temp_scan.csv", "temp_scan.meta.json",
                "temp_scan_t1.csv", "temp_scan_t2.csv", "temp_scan_t3.csv"}
    return {"spectrum.csv", "spectrum.meta.json"}


def check(name: str, docs: list[dict], seed: int, outdir: Path,
          written: list, reference: dict) -> list[str]:
    """Problems with one run's outputs; empty when the run is correct.

    ``written`` is what ``eitrot.cli.run`` returned; ``reference`` is the
    fingerprint for this workload and size.
    """
    want = _expected_files(name)
    names = {Path(p).name for p in written}
    if names != want:
        return [f"run reported files {sorted(names)}, want {sorted(want)}"]
    empty = sorted(n for n in want if not (outdir / n).is_file()
                   or (outdir / n).stat().st_size == 0)
    if empty:
        return [f"missing or empty output: {empty}"]
    try:
        if name == "scan_campaign":
            return _check_scans(outdir, docs, reference)
        return _check_spectrum(outdir, docs[0], seed, reference)
    except (KeyError, ValueError, IndexError) as exc:
        return [f"malformed output: {exc!r}"]
