"""Benchmark of the eitrot command-line scenarios.

    python3 perfbench/run.py --workload spectrum_wide --seed 0 --seconds 25 --trace 0

Runs one workload (see ``workloads.py``) through ``eitrot.cli.parse_config``
and ``eitrot.cli.run`` in this process, in a closed loop: each run starts
when the previous one has returned, until ``--seconds`` have passed. Every
run's output files are checked against the workload's reference
fingerprint; a run that raises, writes no output or fails the check counts
as failed.

With ``--trace 0`` the last line reports the end-to-end metrics:

* ``setup_s``: median over fresh interpreters of the time to import
  ``eitrot.cli`` and parse the workload's documents;
* ``run_s``: median wall time of one warm run, parsed specs to files written;
* ``peak_rss_mb``: peak resident memory of this process.

Both times are wall times rescaled to a reference machine speed by the probe
in ``speed.py``, which is timed while they run; the raw wall times are
printed on the ``wall_s`` line.

With ``--trace 1`` untraced and traced runs alternate, and the last line
reports per-layer metrics from the spans that ``tracer.py`` records around
calls into each module. The spans are written to ``perfbench/out/``.

BLAS runs on one thread here and in every set-up interpreter, so the
timings do not depend on the thread settings of the calling shell.
"""

from __future__ import annotations

import os

BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_THREADS)  # before anything loads numpy

import argparse
import contextlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from speed import SpeedProbe
from tracer import Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 3

_SETUP_CHILD = """
import json, sys, time
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from speed import SpeedProbe
docs = json.loads(sys.argv[3])
with SpeedProbe() as probe:
    start = time.perf_counter()
    from eitrot.cli import parse_config
    for doc in docs:
        parse_config(doc)
    wall = time.perf_counter() - start
print(repr(wall), repr(probe.rescaled(wall)))
"""


def measure_setup(docs: list[dict]) -> tuple[float, float]:
    """Wall time, and the same at reference speed, to import ``eitrot.cli``
    and parse ``docs`` in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-I", "-c", _SETUP_CHILD, str(SRC), str(HERE), json.dumps(docs)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    wall, at_reference = done.stdout.split()[-2:]
    return float(wall), float(at_reference)


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_THREADS},
    }


def output_stats(written: list) -> tuple[int, int]:
    """Total bytes written, and CSV rows keyed by probe detuning."""
    total = rows = 0
    for path in map(Path, written):
        total += path.stat().st_size
        if path.suffix == ".csv":
            with open(path, encoding="utf-8") as fh:
                if fh.readline().startswith("detuning_mhz,"):
                    rows += sum(1 for _ in fh)
    return total, rows


class Runner:
    """Runs one workload repeatedly and keeps the tallies."""

    def __init__(self, cli, name: str, seed: int, size: str, reference: dict):
        self.cli = cli
        self.name = name
        self.seed = seed
        self.docs = workloads.documents(name, seed, size)
        self.reference = reference
        self.outdir = OUT / f"{name}-{size}-{os.getpid()}"
        self.attempted = 0
        self.failed = 0
        self.errors: dict[str, int] = {}

    def attempt(self, probe: SpeedProbe | None = None) -> tuple[float, list]:
        """One run, with ``probe`` sampling if given; returns its wall time
        and the files it wrote ([] if failed)."""
        self.attempted += 1
        shutil.rmtree(self.outdir, ignore_errors=True)
        self.outdir.mkdir(parents=True)
        elapsed = 0.0
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    probe or contextlib.nullcontext():
                specs = [self.cli.parse_config(doc) for doc in self.docs]
                written = []
                start = time.perf_counter()
                for spec in specs:
                    written += self.cli.run(spec, self.outdir)
                elapsed = time.perf_counter() - start
        except Exception as exc:  # any exception is a failed run, counted by type
            kind = type(exc).__name__
            self.errors[kind] = self.errors.get(kind, 0) + 1
            self.fail([f"{kind}: {exc}"])
            return elapsed, []
        problems = workloads.check(self.name, self.docs, self.seed, self.outdir,
                                   written, self.reference)
        if problems:
            self.fail(problems)
            return elapsed, []
        return elapsed, written

    def fail(self, problems: list[str]) -> None:
        self.failed += 1
        if self.failed == 1:
            print(f"run failed: {'; '.join(problems[:3])}", file=sys.stderr)

    def close(self) -> None:
        shutil.rmtree(self.outdir, ignore_errors=True)


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def warm_up(cli, name: str, seed: int) -> None:
    """One untimed, uncounted run on the reduced grids, so that lazy
    imports and first-call set-up inside numpy and scipy are done."""
    runner = Runner(cli, name, seed, "quick", workloads.REFERENCE[name]["quick"])
    runner.attempt()
    runner.close()


def end_to_end(runner: Runner, seconds: float, setup: list[tuple]) -> tuple[dict, dict]:
    """End-to-end metrics, and the raw wall times behind them."""
    walls, times = [], []
    probe = SpeedProbe()
    deadline = time.perf_counter() + seconds
    # stop when the next run would end nearer past the deadline than before it
    while not times or time.perf_counter() + walls[-1] / 2 < deadline:
        wall = runner.attempt(probe)[0]
        walls.append(wall)
        times.append(probe.rescaled(wall))
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": _metric(statistics.median(s for _, s in setup), "s"),
        "run_s": _metric(statistics.median(times), "s"),
        "peak_rss_mb": _metric(peak_kib / 1024.0, "MB"),
    }
    raw = {"setup_wall_s": [w for w, _ in setup], "run_wall_s": walls}
    return metrics, raw


def _counts(profile: dict, written_stats: tuple) -> tuple:
    return (sorted(profile["functions"].items()), profile["panels"],
            profile["evals"], written_stats)


def per_layer(runner: Runner, seconds: float) -> tuple[dict, Tracer]:
    tracer = Tracer()
    plain, traced, unwrapped, profiles, parse_s, stats = [], [], [], [], [], []
    deadline = time.perf_counter() + seconds
    pair_s = 0.0
    while not plain or time.perf_counter() + pair_s / 2 < deadline:
        pair_start = time.perf_counter()
        plain.append(runner.attempt()[0])
        with tracer:
            tracer.start_run()
            elapsed, written = runner.attempt()
        pair_s = time.perf_counter() - pair_start
        if not written:
            continue
        profile = tracer.run_profile()
        run_stats = output_stats(written)
        if profiles and _counts(profile, run_stats) != _counts(profiles[0], stats[0]):
            runner.fail(["work counts differ between two runs of the same inputs"])
            continue
        self_s = dict(profile["self_s"])
        parse_s.append(self_s.pop("cli.parse_config", 0.0))
        accounted = sum(self_s.values())
        if abs(accounted - elapsed) > 0.01 * elapsed + 1e-3:
            raise RuntimeError(f"span self times add up to {accounted:.4f} s,"
                               f" the traced run took {elapsed:.4f} s")
        traced.append(elapsed)
        unwrapped.append(elapsed - accounted + self_s.get("cli.run", 0.0))
        profiles.append(profile)
        stats.append(run_stats)
    if not profiles:
        return {}, tracer

    def self_s(*layers):
        return statistics.median(sum(p["self_s"].get(l, 0.0) for l in layers)
                                 for p in profiles)

    last = profiles[-1]
    calls = last["calls"]
    nbytes, rows = stats[-1]
    traced_s = statistics.median(traced)
    metrics = {"cli.parse_config_s": _metric(statistics.median(parse_s), "s")}
    for layer in ("atom.build_level_scheme", "atom.probe_pathways",
                  "dynamics.build_hamiltonian", "dynamics.build_liouvillian",
                  "dynamics.solve_steady_state", "quadrature",
                  "spectra.susceptibility_pair", "detection"):
        metrics[f"{layer}.calls"] = _metric(calls.get(layer, 0), "count")
        metrics[f"{layer}.self_s"] = _metric(self_s(layer), "s")
    metrics.update({
        "dynamics.failures": _metric(runner.errors.get("SteadyStateError", 0), "count"),
        "quadrature.failures": _metric(runner.errors.get("QuadratureError", 0), "count"),
        "quadrature.panels": _metric(last["panels"], "count"),
        "quadrature.evals": _metric(last["evals"], "count"),
        "spectra.evals_per_point": _metric(
            calls.get("spectra.susceptibility_pair", 0) / max(rows, 1), "evals/row"),
        "scenarios.sweeps": _metric(
            last["functions"].get("sweep_probe_detuning", 0), "count"),
        "scenarios.sweep.self_s": _metric(self_s("scenarios.sweep"), "s"),
        "scenarios.peaks.self_s": _metric(self_s("scenarios.peaks"), "s"),
        "scenarios.write.self_s": _metric(self_s("scenarios.write"), "s"),
        "scenarios.write.bytes": _metric(nbytes, "B"),
        "trace.run_s": _metric(traced_s, "s"),
        "trace.overhead_s": _metric(traced_s - statistics.median(plain), "s"),
        "trace.unwrapped_s": _metric(statistics.median(unwrapped), "s"),
    })
    return metrics, tracer


def benchmark(name: str, seed: int, seconds: float, trace: bool,
              size: str = "full", reference: dict | None = None) -> tuple[dict, dict]:
    """Set up, run and check one workload. Returns the result object and
    the details printed before it: environment and raw wall times."""
    if not (SRC / "eitrot" / "cli.py").is_file():
        raise FileNotFoundError(f"no eitrot sources under {SRC}")
    if reference is None:
        reference = workloads.REFERENCE[name][size]
    docs = workloads.documents(name, seed, size)
    repeats = SETUP_REPEATS if size == "full" else 1
    setup = [measure_setup(docs) for _ in range(repeats)]

    sys.path.insert(0, str(SRC))
    import eitrot.cli as cli

    warm_up(cli, name, seed)
    runner = Runner(cli, name, seed, size, reference)
    details = {"environment": environment()}
    try:
        if trace:
            metrics, tracer = per_layer(runner, seconds)
        else:
            metrics, details["wall_s"] = end_to_end(runner, seconds, setup)
    finally:
        runner.close()
    if trace:
        OUT.mkdir(parents=True, exist_ok=True)
        document = {"workload": name, "seed": seed, "size": size, **details,
                    "metrics": metrics, **tracer.spans_document()}
        path = OUT / f"trace-{name}-seed{seed}.json"
        path.write_text(json.dumps(document), encoding="utf-8")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    return result, details


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="reduced grids, for the self-test")
    args = parser.parse_args(argv)
    try:
        result, details = benchmark(args.workload, args.seed, args.seconds,
                                    bool(args.trace), "quick" if args.quick else "full")
    except (FileNotFoundError, ImportError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for key, value in details.items():
        print(f"{key}: {json.dumps(value, sort_keys=True)}")
    error_rate = result["failed"] / result["attempted"]
    print(f"{args.workload} seed {args.seed}: error_rate {error_rate:.3f}"
          f" ({result['failed']}/{result['attempted']} runs)")
    for key, metric in result["metrics"].items():
        print(f"  {key} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
