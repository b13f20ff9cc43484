"""Check that this tree's CLI outputs match those of another revision.

    python tools/compare_outputs.py --against <rev>
    python tools/compare_outputs.py --write-golden

Checks ``<rev>`` out into a temporary local ``git worktree``, runs every
case of ``MATRIX`` in both trees (each document in a fresh interpreter with
that tree's ``src/`` first on the path) and compares the output
directories:

* each CSV file is byte-identical, or the report names its first differing
  cell and the largest absolute and relative difference per column;
* each ``meta.json`` is laid out as ``eitrot.cli`` writes it
  (``meta_text``), has the same keys and the same non-float values, and the
  report gives its largest float difference;
* each run has the same exit code, stdout and stderr.

Exits 0 when every CSV is identical, every meta float lies within
``META_ATOL`` and every run's exit code and console output agree, and 1
otherwise. The worktree is removed either way. The benchmark's workload
documents come from ``perfbench/workloads.py``, which is only imported.

``--write-golden`` runs every case in this process, through this tree's
``eitrot.cli.main``, and writes ``tests/golden.json``: per case the exit
code, stdout and stderr of each run, the SHA-256 of each other file and
each meta file's value, with the commit checked out. A tier-1 test runs the
cases the same way and compares (``golden_problems``).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import yaml

REPO = Path(__file__).resolve().parents[1]
GOLDEN = REPO / "tests" / "golden.json"

# Largest accepted difference of a meta.json float; a nan difference fails.
META_ATOL = 1e-14

_SPEC = importlib.util.spec_from_file_location(
    "workloads", REPO / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(workloads)

_SCAN_161 = {"population_policy": "per_point", "magnetic_field_g": 10,
             "probe": {"detuning_min_mhz": -40, "detuning_max_mhz": 40,
                       "points": 161}}

# (case name, configuration documents run in order into one directory)
MATRIX = [
    *((f"{name}_seed{seed}", workloads.documents(name, seed))
      for name in workloads.WORKLOADS for seed in (0, 1)),
    ("power_scan", [{"scenario": "power-scan"}]),
    ("temp_scan", [{"scenario": "temp-scan"}]),
    ("power_scan_161_per_point_10g", [{"scenario": "power-scan", **_SCAN_161}]),
    ("temp_scan_161_per_point_10g", [{"scenario": "temp-scan", **_SCAN_161}]),
    ("eit_peaks", [{"scenario": "eit-peaks"}]),
    ("detector_trace", [{"scenario": "detector-trace"}]),
    ("populations_0g", [{"scenario": "populations"}]),
    ("populations_10g", [{"scenario": "populations", "magnetic_field_g": 10}]),
    ("populations_pi_f2_10g", [{"scenario": "populations", "scheme": "pi_f2",
                                "magnetic_field_g": 10}]),
    ("populations_sigma_f1_10g", [{"scenario": "populations", "scheme": "sigma_f1",
                                   "magnetic_field_g": 10}]),
    ("pi_f2_power_scan", [{"scenario": "power-scan", "scheme": "pi_f2"}]),
    ("pi_f2_spectrum_10g", [{"scenario": "spectrum", "scheme": "pi_f2",
                             "magnetic_field_g": 10}]),
    ("sigma_f1_per_point_10g", [{"scenario": "spectrum", "scheme": "sigma_f1",
                                 "population_policy": "per_point",
                                 "magnetic_field_g": 10,
                                 "probe": {"points": 201}}]),
    ("undamped_ground_coherence", [{"scenario": "spectrum", "probe": {"points": 100},
                                    "rates": {"gamma_ba_mhz": 0}}]),
    ("sigma_f1_eit_peaks_10g", [{"scenario": "eit-peaks", "scheme": "sigma_f1",
                                 "magnetic_field_g": 10}]),
    ("power_scan_no_stark_10g", [{"scenario": "power-scan", "stark_shifts": False,
                                  "magnetic_field_g": 10}]),
    # one sweep whose pathway rows span several Doppler-kernel blocks
    ("spectrum_4001", [{"scenario": "spectrum", "probe": {"points": 4001}}]),
    # 22 CSV row blocks; under the malloc thresholds that eitrot.cli sets,
    # its tables and kernel temporaries come from the heap, not from mmap,
    # so a rounding that depends on buffer alignment would show
    ("spectrum_20001", [{"scenario": "spectrum", "probe": {"points": 20001}}]),
    # a rerun that replaces the files of the first run
    ("spectrum_rerun", [{"scenario": "spectrum", "probe": {"points": 201}},
                        {"scenario": "spectrum", "probe": {"points": 101}}]),
    # a temp-scan rerun over fewer temperatures, which removes the first
    # run's third per-temperature table
    ("temp_scan_rerun_fewer", [{"scenario": "temp-scan", "probe": {"points": 41}},
                               {"scenario": "temp-scan", "probe": {"points": 41},
                                "temp_scan": {"temperatures_c": [45, 55]}}]),
    ("populations_per_point_detuned", [{"scenario": "populations",
                                        "population_policy": "per_point",
                                        "coupling": {"detuning_mhz": 3}}]),
    # CSV tables of several row blocks: a detector trace (1365 rows a block)
    # whose fixed-notation cells (0.00...) lose trailing zeros, and three
    # 1201 x 9 spectra beside a summary small enough for the one-% path
    ("detector_trace_2001_per_point_10g", [{"scenario": "detector-trace",
                                            "population_policy": "per_point",
                                            "magnetic_field_g": 10,
                                            "probe": {"points": 2001}}]),
    ("temp_scan_1201", [{"scenario": "temp-scan", "probe": {"points": 1201}}]),
    # rates outside the Lindblad domain whose populations stay positive
    *((f"gamma_ca_0.3_{policy}", [{"scenario": "spectrum", "population_policy": policy,
                                   "rates": {"gamma_ca_mhz": 0.3}}])
      for policy in ("fixed", "per_point")),
    # rates outside it (gamma_ca = gamma/2) whose populations at resonance
    # fail the population check: exit 2 and no output
    ("gamma_ca_half_gamma_sigma_f1", [{
        "scenario": "spectrum", "scheme": "sigma_f1", "stark_shifts": False,
        "probe": {"rabi_mhz": 4, "detuning_min_mhz": -10, "detuning_max_mhz": 10,
                  "points": 41},
        "coupling": {"rabi_mhz": 0}, "medium": {"density_per_m3": 1e17},
        "rates": {"gamma_mhz": 3, "gamma_ca_mhz": 1.5, "gamma_ba_mhz": 0.0547,
                  "transit_mhz": 3}}]),
]

# Runs the CLI of the tree whose src/ is argv[1], failing if eitrot would
# come from anywhere else.
_CLI_RUNNER = """\
import sys
from pathlib import Path
src = Path(sys.argv[1]).resolve()
sys.path.insert(0, str(src))
import eitrot.cli
if src not in Path(eitrot.cli.__file__).resolve().parents:
    sys.exit(f"eitrot imported from {eitrot.cli.__file__}, not {src}")
sys.exit(eitrot.cli.main(sys.argv[2:]))
"""


def run_case(tree: Path, docs: list[dict], outdir: Path) -> list[tuple]:
    """Run each document through ``tree``'s CLI into ``outdir``; returns
    (exit code, stdout, stderr) per document."""
    outdir.mkdir(parents=True)
    runs = []
    for i, doc in enumerate(docs):
        config = outdir.parent / f"{outdir.name}.{i}.yaml"
        config.write_text(yaml.safe_dump(doc), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-c", _CLI_RUNNER, str(tree / "src"),
             "--config", str(config), "--outdir", str(outdir)],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(tree / "src")})
        runs.append((proc.returncode, proc.stdout, proc.stderr))
    return runs


def run_in_process(docs: list[dict], outdir: Path) -> list[tuple]:
    """``run_case`` through this tree's ``eitrot.cli.main`` in this process."""
    if str(REPO / "src") not in sys.path:
        sys.path.insert(0, str(REPO / "src"))
    from eitrot.cli import main as cli_main
    outdir.mkdir(parents=True)
    runs = []
    for i, doc in enumerate(docs):
        config = outdir.parent / f"{outdir.name}.{i}.yaml"
        config.write_text(yaml.safe_dump(doc), encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(["--config", str(config), "--outdir", str(outdir)])
        runs.append([code, out.getvalue(), err.getvalue()])
    return runs


def golden_case(docs: list[dict], outdir: Path) -> dict:
    """One case's record: its runs, then each file of ``outdir``, a meta
    file as its text and any other by its SHA-256. The golden record holds
    each meta file's value instead."""
    runs = run_in_process(docs, outdir)
    files = {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}
    return {"runs": runs,
            "meta": {n: d.decode("utf-8")
                     for n, d in files.items() if n.endswith(".json")},
            "sha256": {n: hashlib.sha256(d).hexdigest()
                       for n, d in files.items() if not n.endswith(".json")}}


def golden_problems(name: str, want: dict, got: dict, revision: str) -> list[str]:
    """What differs between a case's golden record ``want`` and its record
    ``got`` from ``golden_case``; a meta float counts within ``META_ATOL``."""
    problems = []
    if want["runs"] != got["runs"]:
        problems.append(f"runs differ: {want['runs']} vs {got['runs']}")
    names_w = want["meta"].keys() | want["sha256"].keys()
    names_g = got["meta"].keys() | got["sha256"].keys()
    if names_w != names_g:
        problems.append(f"files differ: only golden {sorted(names_w - names_g)},"
                        f" only this tree {sorted(names_g - names_w)}")
    for file in sorted(names_w & names_g):
        if file in want["meta"]:
            same, report = compare_meta(meta_text(want["meta"][file]), got["meta"][file])
        else:
            same, report = want["sha256"][file] == got["sha256"][file], ["bytes differ"]
        if not same:
            problems.append(f"{file}: {report[0]}")
    return [f"case {name}, {problem}; see python tools/compare_outputs.py"
            f" --against {revision}" for problem in problems]


def write_golden() -> None:
    """Write ``GOLDEN`` from every case of ``MATRIX``, run in this process."""
    revision = subprocess.run(["git", "-C", str(REPO), "rev-parse", "--short", "HEAD"],
                              capture_output=True, text=True, check=True).stdout.strip()
    with tempfile.TemporaryDirectory(prefix="compare_outputs.") as tmp:
        cases = {name: golden_case(docs, Path(tmp) / name) for name, docs in MATRIX}
    for case in cases.values():
        case["meta"] = {name: json.loads(text) for name, text in case["meta"].items()}
    GOLDEN.write_text(json.dumps({"revision": revision, "cases": cases}, indent=1,
                                 sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(cases)} cases at {revision} to {GOLDEN.relative_to(REPO)}")


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def _worse(a: float, b: float) -> float:
    """The larger of two differences, nan being larger than any number."""
    return b if math.isnan(b) or b > a else a


def compare_csv(base: bytes, head: bytes) -> tuple[bool, list[str]]:
    """(identical, report lines) for two CSV files' contents."""
    if base == head:
        return True, ["identical"]
    rows_b = list(csv.reader(io.StringIO(base.decode("utf-8"))))
    rows_h = list(csv.reader(io.StringIO(head.decode("utf-8"))))
    if len(rows_b) != len(rows_h) or rows_b[:1] != rows_h[:1]:
        return False, [f"shape or header differs: {len(rows_b)} vs {len(rows_h)}"
                       f" lines, header {rows_b[:1]} vs {rows_h[:1]}"]
    header = rows_b[0] if rows_b else []
    lines, worst = [], {}
    for r, (row_b, row_h) in enumerate(zip(rows_b[1:], rows_h[1:]), start=1):
        if len(row_b) != len(row_h):
            return False, [f"row {r} has {len(row_b)} vs {len(row_h)} cells"]
        for c, (cb, ch) in enumerate(zip(row_b, row_h)):
            if cb == ch:
                continue
            name = header[c] if c < len(header) else str(c)
            if not lines:
                lines.append(f"first difference: row {r}, column {name}: {cb} vs {ch}")
            xb, xh = _number(cb), _number(ch)
            if xb is None or xh is None:
                worst[name] = (math.inf, math.inf)
                continue
            diff = abs(xh - xb)
            rel = diff / abs(xb) if xb else math.inf
            old = worst.get(name, (0.0, 0.0))
            worst[name] = (_worse(old[0], diff), _worse(old[1], rel))
    lines += [f"column {name}: largest abs {a:.3g}, rel {r:.3g}"
              for name, (a, r) in worst.items()]
    return False, lines


def _leaves(node, path=""):
    if isinstance(node, dict):
        for key in sorted(node):
            yield from _leaves(node[key], f"{path}.{key}" if path else str(key))
    elif isinstance(node, list):
        for i, item in enumerate(node):
            yield from _leaves(item, f"{path}[{i}]")
    else:
        yield path, node


def meta_text(value) -> str:
    """The text of a meta file of ``value``, laid out as ``eitrot.cli``
    writes it."""
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


def compare_meta(base: str, head: str) -> tuple[bool, list[str]]:
    """(both laid out by ``meta_text`` and within ``META_ATOL``, report
    lines) for two meta.json files' texts."""
    values = json.loads(base), json.loads(head)
    for which, text, value in zip(("base", "head"), (base, head), values):
        if text != meta_text(value):
            return False, [f"{which} is not laid out as json.dumps(indent=2,"
                           " sort_keys=True) plus a newline"]
    leaves_b, leaves_h = (dict(_leaves(value)) for value in values)
    if leaves_b.keys() != leaves_h.keys():
        keys = sorted(leaves_b.keys() ^ leaves_h.keys())
        return False, [f"keys differ: {keys}"]
    largest, where = 0.0, None
    for key, vb in leaves_b.items():
        vh = leaves_h[key]
        if isinstance(vb, float) and isinstance(vh, float):
            diff = 0.0 if vb == vh or (math.isnan(vb) and math.isnan(vh)) else abs(vh - vb)
            if math.isnan(diff) or diff > largest:  # a nan difference stays the largest
                largest, where = diff, key
        elif type(vb) is not type(vh) or vb != vh:
            return False, [f"value of {key} differs: {vb!r} vs {vh!r}"]
    report = f"keys and non-float values equal, largest float difference {largest:.3g}"
    if where is not None:
        report += f" (at {where})"
    return largest <= META_ATOL, [report]


def compare_dirs(base: Path, head: Path) -> tuple[bool, list[str]]:
    """(outputs match, report lines) for two output directories."""
    names_b = {p.name for p in base.iterdir()}
    names_h = {p.name for p in head.iterdir()}
    ok, lines = names_b == names_h, []
    if not ok:
        lines.append(f"files differ: only in base {sorted(names_b - names_h)},"
                     f" only in head {sorted(names_h - names_b)}")
    for name in sorted(names_b & names_h):
        data_b, data_h = (base / name).read_bytes(), (head / name).read_bytes()
        if name.endswith(".json"):
            same, report = compare_meta(data_b.decode("utf-8"), data_h.decode("utf-8"))
        elif name.endswith(".csv"):
            same, report = compare_csv(data_b, data_h)
        else:
            same, report = data_b == data_h, ["identical" if data_b == data_h else "differs"]
        ok &= same
        lines += [f"{name}: {report[0]}", *(f"  {line}" for line in report[1:])]
    return ok, lines


@contextlib.contextmanager
def worktree(rev: str, path: Path):
    """A detached local checkout of ``rev`` at ``path``, removed on exit."""
    git = ["git", "-C", str(REPO), "worktree"]
    subprocess.run([*git, "add", "--detach", "--quiet", str(path), rev], check=True)
    try:
        yield path
    finally:
        subprocess.run([*git, "remove", "--force", str(path)], check=False)
        subprocess.run([*git, "prune"], check=False)


def report_case(name: str, docs: list[dict], base_tree: Path, tmp: Path) -> bool:
    """Run one matrix case in both trees, print its comparison, and return
    whether the outputs match."""
    base, head = tmp / "out_base" / name, tmp / "out_head" / name
    runs_b, runs_h = run_case(base_tree, docs, base), run_case(REPO, docs, head)
    ok, lines = compare_dirs(base, head)
    if runs_b != runs_h:
        ok = False
        lines.append(f"runs differ: {runs_b} vs {runs_h}")
    codes = ",".join(str(code) for code, _, _ in runs_h)
    errors = "".join(err for _, _, err in runs_h).strip()
    print(f"{name}: {'match' if ok else 'DIFFER'} (exit {codes}"
          f"{', ' + errors if errors else ''})")
    print("".join(f"  {line}\n" for line in lines), end="")
    return ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--against", help="git revision to compare with")
    which.add_argument("--write-golden", action="store_true",
                       help=f"write {GOLDEN.relative_to(REPO)} from this tree")
    args = parser.parse_args(argv)
    if args.write_golden:
        write_golden()
        return 0

    ok = True
    with tempfile.TemporaryDirectory(prefix="compare_outputs.") as tmp:
        tmp = Path(tmp)
        try:
            with worktree(args.against, tmp / "base") as base_tree:
                for name, docs in MATRIX:
                    ok &= report_case(name, docs, base_tree, tmp)
        except subprocess.CalledProcessError as exc:
            print(f"error: cannot check out {args.against}: {exc}", file=sys.stderr)
            return 1
    print("all outputs match" if ok else "outputs differ")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
