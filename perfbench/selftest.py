"""Fast self-test of the benchmark: every workload at reduced size.

    python3 perfbench/selftest.py

Checks that
* each workload prints every metric named in BENCHMARK.json, with its unit,
  and no failed run, in both trace modes;
* two traced runs of the same inputs give identical work counts;
* a wrong reference fingerprint makes every run count as failed;
* without the package sources the benchmark exits non-zero and prints no
  result.
Exits 0 when all hold.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WRONG = {
    "spectrum_wide": {"max_abs_phi_deg": 45.0},
    "per_point_zeeman": {"left_detuning_mhz": -20.0 + 2.0},
    "scan_campaign": {"peak_counts": {"sigma_minus": 3, "sigma_plus": 3}},
}


def invoke(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    command = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
               "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--quick"]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    assert "error_rate" in done.stdout, done.stdout
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_metrics(result: dict, declared: list[dict], label: str) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] and result["failed"] == 0, (label, result)
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want, (label, sorted(set(got) ^ set(want)))


def counts(result: dict) -> dict:
    return {k: m["value"] for k, m in result["metrics"].items()
            if m["unit"] in ("count", "B", "evals/row")}


def main() -> int:
    for name in workloads.WORKLOADS:
        check_metrics(result_of(invoke(name, 0)), SPEC["end_to_end"], f"{name} trace 0")
        first, second = (result_of(invoke(name, 1)) for _ in range(2))
        check_metrics(first, SPEC["per_layer"], f"{name} trace 1")
        assert counts(first) == counts(second), (name, counts(first), counts(second))
        print(f"{name}: metrics and work counts ok")

        wrong = {**workloads.REFERENCE[name]["quick"], **WRONG[name]}
        result, _ = run.benchmark(name, 3, 0.1, False, "quick", reference=wrong)
        assert result["attempted"] >= 1 and result["failed"] == result["attempted"], result
        print(f"{name}: wrong fingerprint counted as {result['failed']} failed runs")

    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        done = invoke(workloads.WORKLOADS[0], 0, cwd=bare)
        assert done.returncode != 0 and "{" not in done.stdout, done.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("without sources: exit code", done.returncode)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
