"""Summarise tunebench runs into one benchmark-of-record file.

    python scripts/bench_summary.py --change CHANGE_OUT [--parent PARENT_OUT] \\
        [--change-commit SHA] [--parent-commit SHA] --out BENCH_<pr>.json

``CHANGE_OUT`` and ``PARENT_OUT`` are ``tunebench-out`` directories: each
holds the ``<workload>-seed<n>-trace<t>.json`` files that
``tunebench/run.py`` writes.  Metric names, units and directions come
from ``BENCHMARK.json`` at the root of this checkout.

Per workload, each end-to-end metric gets each side's median (and its
quartiles, from three runs up) over the untraced runs.  With a parent,
it also gets the pairs by seed, how many of them the change wins (ties
count for neither) and the median of the change/parent ratios.  The
traced runs give each per-layer metric's median per side.
``trace.overhead_frac`` compares a traced round with an untraced one
of the same run, so machine drift shows in it as much as tracing cost:
it goes in, with its quartiles, only for a side with three or more
traced runs.  Every side also reports how many runs were correct and
how many jobs failed, and the environment the runs share.

Runs from a ``git archive`` copy record no commit, so the commits are
taken from ``--parent-commit`` and ``--change-commit``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Quartiles of fewer runs say nothing about the spread.
SPREAD_RUNS = 3
OVERHEAD = "trace.overhead_frac"


def load_runs(out_dir: Path) -> list[dict]:
    runs = [json.loads(p.read_text())
            for p in sorted(out_dir.glob("*-seed*-trace*.json"))]
    if not runs:
        raise SystemExit(f"error: no tunebench results in {out_dir}")
    return runs


def spread(values: list[float]) -> dict:
    out = {"runs": len(values), "median": statistics.median(values)}
    if len(values) >= SPREAD_RUNS:
        out["q1"], _, out["q3"] = statistics.quantiles(
            values, n=4, method="inclusive")
    return out


def environment(runs: list[dict]) -> dict:
    envs = [{k: v for k, v in r["env"].items() if k != "git_commit"}
            for r in runs]
    if any(env != envs[0] for env in envs):
        raise SystemExit(f"error: runs of one side differ in environment: "
                         f"{sorted(map(str, envs))}")
    return envs[0]


def paired(entry: dict, parent: dict, change: dict, m: dict) -> None:
    """Add the pairs by seed of one end-to-end metric to its entry."""
    pairs = [(s, parent[s][m["name"]]["value"], change[s][m["name"]]["value"])
             for s in sorted(parent.keys() & change.keys())]
    sign = 1 if m["better"] == "higher" else -1
    entry["pairs"] = [{"seed": s, "parent": p, "change": c}
                      for s, p, c in pairs]
    entry["change_wins"] = sum(sign * (c - p) > 0 for _, p, c in pairs)
    entry["median_ratio"] = statistics.median(
        c / p for _, p, c in pairs) if pairs else None


def workload(sides: dict[str, list[dict]], bench: dict) -> dict:
    """One workload's runs, by side, summarised."""
    timed = {k: {r["seed"]: r["metrics"] for r in runs if r["trace"] == 0}
             for k, runs in sides.items()}
    traced = {k: [r["metrics"] for r in runs if r["trace"] == 1]
              for k, runs in sides.items()}
    out = {
        "runs": {k: {"runs": len(runs),
                     "correct_runs": sum(r["correct"] for r in runs),
                     "failed_jobs": sum(r["failed"] for r in runs),
                     "attempted_jobs": sum(r["attempted"] for r in runs)}
                 for k, runs in sides.items()},
        "end_to_end": {},
        "per_layer": {},
    }
    for m in bench["end_to_end"]:
        entry = {k: spread([t[m["name"]]["value"] for t in by_seed.values()])
                 for k, by_seed in timed.items() if by_seed}
        if "parent" in timed:
            paired(entry, timed["parent"], timed["change"], m)
        if entry:
            out["end_to_end"][m["name"]] = {
                "unit": m["unit"], "better": m["better"], **entry}
    for m in bench["per_layer"]:
        entry = {}
        for k, runs in traced.items():
            values = [t[m["name"]]["value"] for t in runs]
            if m["name"] == OVERHEAD:
                if len(values) >= SPREAD_RUNS:
                    entry[k] = spread(values)
            elif values:
                entry[k] = {"runs": len(values),
                            "median": statistics.median(values)}
        if entry:
            out["per_layer"][m["name"]] = {
                "unit": m["unit"], "better": m["better"], **entry}
    return out


def summarise(sides: dict[str, list[dict]], commits: dict[str, str | None],
              bench: dict) -> dict:
    """``sides`` maps "change", and optionally "parent", to its runs."""
    names = sorted({r["workload"] for runs in sides.values() for r in runs})
    return {
        "sides": {k: {"commit": commits.get(k), "env": environment(runs)}
                  for k, runs in sides.items()},
        "workloads": {
            name: workload({k: [r for r in runs if r["workload"] == name]
                            for k, runs in sides.items()}, bench)
            for name in names},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--change-commit")
    parser.add_argument("--parent-commit")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    sides = {"change": load_runs(args.change)}
    if args.parent:
        sides["parent"] = load_runs(args.parent)
    summary = summarise(sides, {"change": args.change_commit,
                                "parent": args.parent_commit}, bench)
    args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
