"""Paired benchmark runs of this tree against another revision.

    python tools/bench_pairs.py --against <rev> --workload W --pairs N \\
        --seconds S --seed K [--label L]

Checks ``<rev>`` out into a temporary local ``git worktree`` (``worktree`` of
``compare_outputs.py``) and runs ``perfbench/run.py --workload W --seed K
--seconds S`` of that tree (the base) and of this one (the head) N times
each, in fresh interpreters, alternately: the base first in odd pairs, the
head first in even ones. From the JSON object on each run's last line it
prints, per end-to-end metric, each side's median and quartiles, the median
over the pairs of the ratio head / base, the pairs that the head won, and
whether the medians differ by more than the base's interquartile range.
``--label L`` writes ``BENCH_L.json`` at the root of this tree: that summary,
every pair's results and each side's ``environment:`` line.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SIDES = ("base", "head")


def run_bench(tree: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One ``perfbench/run.py`` run of ``tree``: its result and environment."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds)],
                          cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode or not lines:
        sys.exit(f"error: perfbench/run.py failed in {tree}:\n{proc.stderr}")
    env = next((json.loads(line.split(":", 1)[1]) for line in lines
                if line.startswith("environment:")), {})
    return json.loads(lines[-1]), env


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values * 2 if len(values) == 1 else values,
                                          n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    """Per metric of ``pairs`` (each {"base": result, "head": result}): each
    side's quartiles, the median ratio head / base, the pairs that the head
    won (``better`` gives "lower" or "higher" by metric name, lower if not
    named), and whether the medians lie further apart than the base's
    interquartile range."""
    summary = {}
    for name in pairs[0]["base"]["metrics"]:
        base, head = ([p[side]["metrics"][name]["value"] for p in pairs] for side in SIDES)
        sign = -1.0 if better.get(name, "lower") == "higher" else 1.0
        spread = quartiles(base)
        summary[name] = {
            "base": spread, "head": quartiles(head),
            "ratio": statistics.median(h / b for b, h in zip(base, head)),
            "won": sum(sign * h < sign * b for b, h in zip(base, head)),
            "pairs": len(pairs),
            "beyond_base_iqr": abs(statistics.median(head) - spread["median"])
            > spread["q3"] - spread["q1"],
        }
    return summary


def report(summary: dict, pairs: list[dict]) -> list[str]:
    """The printed lines of a summary."""
    lines = [f"{'metric':<12} {'base median [q1, q3]':<34} {'head median [q1, q3]':<34}"
             " ratio  won"]
    for name, m in summary.items():
        cells = [f"{m[s]['median']:.4g} [{m[s]['q1']:.4g}, {m[s]['q3']:.4g}]" for s in SIDES]
        lines.append(f"{name:<12} {cells[0]:<34} {cells[1]:<34} {m['ratio']:.4f}"
                     f" {m['won']}/{m['pairs']}"
                     f"{'' if m['beyond_base_iqr'] else ' (within the base IQR)'}")
    failed = [sum(p[s]["failed"] for p in pairs) for s in SIDES]
    attempted = [sum(p[s]["attempted"] for p in pairs) for s in SIDES]
    lines.append(f"failed runs: base {failed[0]}/{attempted[0]}, head {failed[1]}/{attempted[1]}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", required=True, help="git revision of the base")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--label", help="write BENCH_<label>.json")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(REPO / "tools"))
    from compare_outputs import worktree

    better = {m["name"]: m["better"] for m in
              json.loads((REPO / "BENCHMARK.json").read_text())["end_to_end"]}
    pairs, envs = [], {}
    with tempfile.TemporaryDirectory(prefix="bench_pairs.") as tmp, \
            worktree(args.against, Path(tmp) / "base") as base_tree:
        trees = {"base": base_tree, "head": REPO}
        for i in range(args.pairs):
            pair = {}
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                pair[side], envs[side] = run_bench(trees[side], args.workload, args.seed,
                                                   args.seconds)
            pairs.append(pair)
            print(f"pair {i + 1}: run_s base {pair['base']['metrics']['run_s']['value']:.5g},"
                  f" head {pair['head']['metrics']['run_s']['value']:.5g}", flush=True)
    summary = summarize(pairs, better)
    print("\n".join(report(summary, pairs)))
    if args.label:
        path = REPO / f"BENCH_{args.label}.json"
        path.write_text(json.dumps({
            "against": subprocess.run(["git", "-C", str(REPO), "rev-parse", args.against],
                                      capture_output=True, text=True).stdout.strip(),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "metrics": summary, "pairs": pairs,
            "environment": envs}, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {path.relative_to(REPO)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
