"""Check that this tree's CLI outputs match those of another revision.

    python tools/compare_outputs.py --against <rev>
    python tools/compare_outputs.py --write-golden

Checks ``<rev>`` out into a temporary local ``git worktree``, runs every
case of ``MATRIX`` through ``run_in_process`` in one fresh interpreter per
tree, with that tree's ``src/`` first on the path, and compares the records:

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

``--portable`` runs the cases through this tree the same way once for each
of ``portable_settings``, the SIMD loops that numpy dispatches and the
OpenBLAS kernels held to other choices than this host's best, and prints
which settings give outputs other than ``tests/golden.json``. Only the
environment of the child interpreter is set. The check covers x86-64
dispatch of the installed numpy and OpenBLAS builds, and nothing else.

``--write-golden`` runs the cases through this tree the same way and writes
``tests/golden.json``: per case each run's exit code, stdout and stderr,
each CSV file's SHA-256 and each meta file's value, with the commit checked
out. ``tests/test_golden.py`` compares against it (``golden_problems``).
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
import platform
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
    # 5 per-point atoms, whose 30 pathway rows take 5 Doppler-kernel blocks,
    # each with its own slice of every row's per-detuning weights
    ("power_scan_1201_per_point_10g", [{"scenario": "power-scan",
                                        "population_policy": "per_point",
                                        "magnetic_field_g": 10}]),
    ("temp_scan_161_per_point_10g", [{"scenario": "temp-scan", **_SCAN_161}]),
    ("eit_peaks", [{"scenario": "eit-peaks"}]),
    # the two probes' per-point atoms in one stack, each with per-detuning
    # weights on its own component's pathway rows
    ("eit_peaks_per_point_10g", [{"scenario": "eit-peaks", "population_policy": "per_point",
                                  "magnetic_field_g": 10}]),
    ("detector_trace", [{"scenario": "detector-trace"}]),
    # a hot cell: circular light at 571 of 1201 detunings, exit 2
    ("detector_trace_100c", [{"scenario": "detector-trace",
                              "medium": {"temperature_c": 100}}]),
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
    # one sweep whose detunings span several Doppler-kernel blocks
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
    # the scan_campaign census document at 4001 points: a 3-column table in
    # two row blocks (2730 + 1271 rows)
    ("eit_peaks_4001_10g", [{"scenario": "eit-peaks", "magnetic_field_g": 10,
                             "probe": {"rabi_mhz": 1, "detuning_min_mhz": -30,
                                       "detuning_max_mhz": 30, "points": 4001},
                             "coupling": {"rabi_mhz": 30},
                             "medium": {"density_per_m3": 1e17}}]),
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

# Runs every case of MATRIX through the eitrot of the tree whose src/ is
# argv[1], each into argv[2]/<case>, failing if eitrot would come from
# anywhere else; prints each case's runs as JSON. argv[3] is this directory.
_RUNNER = """\
import json, sys
from pathlib import Path
src, out = Path(sys.argv[1]).resolve(), Path(sys.argv[2])
sys.path[:0] = [str(src), sys.argv[3]]
import eitrot.cli
if src not in Path(eitrot.cli.__file__).resolve().parents:
    sys.exit(f"eitrot imported from {eitrot.cli.__file__}, not {src}")
from compare_outputs import MATRIX, run_in_process
print(json.dumps({name: run_in_process(docs, out / name) for name, docs in MATRIX}))
"""


def run_in_process(docs: list[dict], outdir: Path) -> list[list]:
    """Run each document through ``eitrot.cli.main`` in this process, the
    ``eitrot`` first on ``sys.path``, into ``outdir``; returns [exit code,
    stdout, stderr] per document."""
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


def case_record(outdir: Path, runs: list) -> dict:
    """A case's record: its runs, each meta file of ``outdir`` as its text
    and each other file as its bytes. The golden record holds each meta
    file's value and each other file's SHA-256 instead."""
    files = {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}
    return {"runs": runs,
            "meta": {n: d.decode("utf-8") for n, d in files.items() if n.endswith(".json")},
            "files": {n: d for n, d in files.items() if not n.endswith(".json")}}


def golden_case(docs: list[dict], outdir: Path) -> dict:
    """One case's record, run by ``run_in_process``."""
    return case_record(outdir, run_in_process(docs, outdir))


def run_tree(tree: Path, out: Path, env: dict | None = None) -> dict:
    """Every case's record, run through ``tree``'s eitrot in one fresh
    interpreter into ``out``, with ``env`` added to its environment."""
    proc = subprocess.run([sys.executable, "-c", _RUNNER, str(tree / "src"), str(out),
                           str(REPO / "tools")], capture_output=True, text=True,
                          env={**os.environ, **(env or {})})
    if proc.returncode:
        sys.exit(f"error: cannot run the cases in {tree}:\n{proc.stderr}")
    return {name: case_record(out / name, runs)
            for name, runs in json.loads(proc.stdout).items()}


def write_golden() -> None:
    """Write ``GOLDEN`` from every case of ``MATRIX``, run by this tree."""
    revision = subprocess.run(["git", "-C", str(REPO), "rev-parse", "--short", "HEAD"],
                              capture_output=True, text=True, check=True).stdout.strip()
    with tempfile.TemporaryDirectory(prefix="compare_outputs.") as tmp:
        records = run_tree(REPO, Path(tmp) / "out_head")
    cases = {name: {"runs": record["runs"],
                    "meta": {n: json.loads(text) for n, text in record["meta"].items()},
                    "sha256": {n: hashlib.sha256(data).hexdigest()
                               for n, data in record["files"].items()}}
             for name, record in records.items()}
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


def _contents(record: dict) -> dict:
    """Each file of a case record: a meta file's text, any other file's
    bytes or, in a golden record, its SHA-256."""
    return {**{name: meta if isinstance(meta, str) else meta_text(meta)
               for name, meta in record["meta"].items()},
            **record.get("files", {}), **record.get("sha256", {})}


def _sha256(data: bytes | str) -> str:
    return data if isinstance(data, str) else hashlib.sha256(data).hexdigest()


def compare_records(base: dict, head: dict) -> list[tuple[bool, list[str]]]:
    """(match, report lines) for two case records' runs and file names where
    they differ, and for each file both hold: a CSV by ``compare_csv`` if
    both hold its bytes, else by its SHA-256; a meta file by ``compare_meta``."""
    items = []
    if base["runs"] != head["runs"]:
        items.append((False, [f"runs differ: {base['runs']} vs {head['runs']}"]))
    files_b, files_h = _contents(base), _contents(head)
    if files_b.keys() != files_h.keys():
        items.append((False, [f"files differ: only in base {sorted(files_b - files_h.keys())},"
                              f" only in head {sorted(files_h - files_b.keys())}"]))
    for name in sorted(files_b.keys() & files_h.keys()):
        data_b, data_h = files_b[name], files_h[name]
        if name.endswith(".json"):
            same, report = compare_meta(data_b, data_h)
        elif isinstance(data_b, bytes) and isinstance(data_h, bytes):
            same, report = compare_csv(data_b, data_h)
        else:
            same = _sha256(data_b) == _sha256(data_h)
            report = ["identical" if same else "bytes differ"]
        items.append((same, [f"{name}: {report[0]}", *(f"  {line}" for line in report[1:])]))
    return items


def golden_problems(name: str, want: dict, got: dict, revision: str) -> list[str]:
    """What differs between a case's golden record ``want`` (the base) and
    its record ``got`` from ``golden_case`` (the head)."""
    return [f"case {name}, {report[0]}; see python tools/compare_outputs.py"
            f" --against {revision}"
            for same, report in compare_records(want, got) if not same]


def portable_settings() -> dict[str, dict[str, str]]:
    """``--portable``'s settings by name, as environment variables: numpy
    held to its baseline SIMD, numpy without AVX-512, the generic OpenBLAS
    kernels and OpenBLAS on two threads. Raises ``RuntimeError`` saying why
    this host cannot take them."""
    import numpy

    if platform.machine().lower() not in ("x86_64", "amd64"):
        raise RuntimeError(f"the settings are for x86-64, not {platform.machine()}")
    try:
        from numpy._core._multiarray_umath import __cpu_baseline__, __cpu_dispatch__
    except ImportError:
        raise RuntimeError(f"numpy {numpy.__version__} does not report its SIMD dispatch")
    if not __cpu_dispatch__:
        raise RuntimeError("numpy is built without runtime SIMD dispatch")
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    if "openblas" not in blas.lower():
        raise RuntimeError(f"numpy's BLAS is {blas}, not OpenBLAS")
    avx512 = [f for f in __cpu_dispatch__ if "AVX512" in f or f == "X86_V4"]
    return {f"numpy at {' '.join(__cpu_baseline__)}": {
                "NPY_DISABLE_CPU_FEATURES": " ".join(__cpu_dispatch__)},
            "numpy without AVX-512": {"NPY_DISABLE_CPU_FEATURES": " ".join(avx512)},
            "OPENBLAS_CORETYPE=Prescott": {"OPENBLAS_CORETYPE": "Prescott"},
            "OPENBLAS_NUM_THREADS=2": {"OPENBLAS_NUM_THREADS": "2"}}


def portable_problems(env: dict, out: Path) -> list[str]:
    """What differs from ``tests/golden.json`` when every case runs through
    this tree with ``env`` added to the environment, into ``out``."""
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    return [problem for name, record in run_tree(REPO, out, env).items()
            for problem in golden_problems(name, golden["cases"][name], record,
                                           golden["revision"])]


def check_portable() -> int:
    """``--portable``: run every setting, print which differ."""
    try:
        settings = portable_settings()
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    differ = []
    with tempfile.TemporaryDirectory(prefix="compare_outputs.") as tmp:
        for i, (name, env) in enumerate(settings.items()):
            problems = portable_problems(env, Path(tmp) / f"out{i}")
            print(f"{name}: {'DIFFER' if problems else 'match'}")
            print("".join(f"  {line}\n" for line in problems), end="")
            differ += [name] if problems else []
    print(f"differ from {GOLDEN.relative_to(REPO)}: {', '.join(differ)}" if differ else
          f"every setting matches {GOLDEN.relative_to(REPO)}")
    return 1 if differ else 0


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


def report_case(name: str, base: dict, head: dict) -> bool:
    """Print the comparison of one case's records from the two trees, and
    return whether they match."""
    items = compare_records(base, head)
    ok = all(same for same, _ in items)
    codes = ",".join(str(code) for code, _, _ in head["runs"])
    errors = "".join(err for _, _, err in head["runs"]).strip()
    print(f"{name}: {'match' if ok else 'DIFFER'} (exit {codes}"
          f"{', ' + errors if errors else ''})")
    print("".join(f"  {line}\n" for _, lines in items for line in lines), end="")
    return ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--against", help="git revision to compare with")
    which.add_argument("--write-golden", action="store_true",
                       help=f"write {GOLDEN.relative_to(REPO)} from this tree")
    which.add_argument("--portable", action="store_true",
                       help=f"check {GOLDEN.relative_to(REPO)} under other SIMD and"
                            " BLAS kernel choices")
    args = parser.parse_args(argv)
    if args.write_golden:
        write_golden()
        return 0
    if args.portable:
        return check_portable()

    with tempfile.TemporaryDirectory(prefix="compare_outputs.") as tmp:
        tmp = Path(tmp)
        try:
            with worktree(args.against, tmp / "base") as base_tree:
                base = run_tree(base_tree, tmp / "out_base")
        except subprocess.CalledProcessError as exc:
            print(f"error: cannot check out {args.against}: {exc}", file=sys.stderr)
            return 1
        head = run_tree(REPO, tmp / "out_head")
    ok = all([report_case(name, base[name], head[name]) for name, _ in MATRIX])
    print("all outputs match" if ok else "outputs differ")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
