"""The tunegram benchmark: one workload, one seed, one run.

    python3 tunebench/run.py --workload traj-mini --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; it imports tunegram from ``src/`` and
builds nothing.  Workloads, metrics and bounds are in ``BENCHMARK.json``;
what each workload runs and why is in ``workloads.py``.

Set-up is timed in separate processes: eight that only set up, then the
one that measures, which sets up the same way first; all write the
corpus to one directory (see ``workloads.write_corpus``).  The measuring
process runs rounds of the workload's command, one run per command seed
(four drawn by the seed for traj-mini, else the seed itself), until the
runs add up to about ``--seconds``.  Times are reported as on a reference core: each is
scaled by how much faster a probe ran there than while the time was
taken, or right after it (see ``speed.py``).  ``setup_s`` is the median time
from process start until the corpus is written; ``items_per_s`` is the
items of one round over the median round time; ``peak_rss_mb`` is the
measuring process's peak resident memory.  ``--trace 1`` alternates
untraced and traced rounds and reports the per-layer metrics instead.

Every run's CSV must equal the first's with the same command seed, and
pass the checks in ``checks.py``.  That first must match the digest
recorded for its command seed in ``digests.json``; the first traced run
of each command seed must pass the trace checks.  Without ``--trace 1``,
a traced run of the first command seed with no recorded digest follows
the timed rounds.

Prints every metric with its unit, then, as the last line, a JSON object
with ``correct``, ``attempted``, ``failed`` (jobs, one per tune per run)
and ``metrics``.  Also writes that result, with the timings and the
environment, to ``tunebench-out/<workload>-seed<seed>-trace<t>.json``.
Exits 1 if a check failed, 2 if the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / "tunebench-out"
SETUP_ONLY_PROCESSES = 8
#: Every run, with its set-up, must end well within three minutes.
DEADLINE_S = 170


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def spawn(args: list[str], deadline: float) -> tuple[float, dict]:
    """Run worker.py; return the seconds from its start until it reported
    set-up done, and its JSON result."""
    started = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        stdout=subprocess.PIPE, text=True, timeout=deadline - started)
    if done.returncode != 0:
        raise RuntimeError(f"worker {args[0]} exited with {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return result["ready"] - started, result


def main() -> int:
    deadline = time.monotonic() + DEADLINE_S
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "tunegram" / "__init__.py").is_file():
        print(f"error: no tunegram sources under {ROOT / 'src'}; run from "
              "the root of a tunegram checkout", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / tag
    shutil.rmtree(work, ignore_errors=True)
    common = [args.workload, str(args.seed)]
    try:
        procs = [spawn(["setup", *common, str(work)], deadline)
                 for _ in range(SETUP_ONLY_PROCESSES)]
        procs.append(spawn(["measure", *common, str(work),
                            str(args.seconds), str(args.trace)], deadline))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError,
            KeyError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = procs[-1][1]
    setup_s = [s * speed.scale(r.pop("probes")) for s, r in procs]
    errors = result.pop("errors")
    if len({r["corpus_sha256"] for _, r in procs}) != 1:
        errors.append("set-up wrote different corpora for one seed")

    computed = dict(result.pop("layers", {}))
    computed.update(setup_s=statistics.median(setup_s),
                    items_per_s=result["items_per_s"],
                    peak_rss_mb=result["peak_rss_mb"])
    listed = bench["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]}
               for m in listed}
    attempted, failed = result["attempted"], result["failed"]
    correct = failed == 0 and not errors

    print(f"{args.workload}  seed {args.seed}  trace {args.trace}  "
          f"backend {result['env']['backend']}")
    for name, m in metrics.items():
        print(f"  {name:<36} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'fail_frac':<36} {failed / attempted:>14.6g} "
          f"({failed} of {attempted} jobs)")
    for error in errors:
        print(f"  check failed: {error}")

    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "seconds": args.seconds,
              "correct": correct, "errors": errors, "metrics": metrics,
              "fail_frac": failed / attempted, "setup_s_samples": setup_s,
              "setup_s_raw": [s for s, _ in procs],
              **result, "env": {**result["env"], "git_commit": git_commit()}}
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
