"""Print the end-to-end metrics and error rate of every workload.

    python3 perfbench/summary.py [--seed 0] [--seconds 25]

Runs ``run.py --trace 0`` once per workload, each in its own process, and
prints one line per workload: setup_s, run_s, peak_rss_mb and error_rate
(failed runs over attempted runs), each with its unit.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import workloads

RUN = Path(__file__).resolve().parent / "run.py"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    args = parser.parse_args(argv)
    status = 0
    for name in workloads.WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(RUN), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=600,
        )
        if done.returncode != 0:
            print(f"{name}: benchmark exited {done.returncode}: {done.stderr.strip()}")
            status = 1
            continue
        result = json.loads(done.stdout.strip().splitlines()[-1])
        fields = [f"{key} = {m['value']:.4g} {m['unit']}"
                  for key, m in result["metrics"].items()]
        rate = result["failed"] / result["attempted"]
        fields.append(f"error_rate = {rate:.3g} failed/run"
                      f" ({result['failed']} of {result['attempted']} runs)")
        print(f"{name}: " + ", ".join(fields))
        status |= result["failed"] > 0
    return status


if __name__ == "__main__":
    sys.exit(main())
