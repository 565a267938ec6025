"""One process of a benchmark run: set a workload up, and measure it.

    python3 tunebench/worker.py setup   <workload> <seed> <dir>
    python3 tunebench/worker.py measure <workload> <seed> <dir> <seconds> <trace>

Both import tunegram from the checkout's ``src/`` and write the
workload's corpus under ``<dir>``; that is the set-up ``setup_s`` times.
Right after it, both take a burst of speed probes (see ``speed.py``).
``measure`` then runs rounds of the workload's command through
``tunegram.cli.main``, one run per command seed of the workload seed
(see ``Workload.command_seeds``), until the runs add up to about
``<seconds>``: untraced, or with trace 1 alternately untraced and
traced rounds.  It probes the machine's speed as it goes, and checks
the output.  Each prints one JSON line: the
monotonic time at which set-up was done, the probes after set-up, and
for ``measure`` the timings, the job counts and, with trace 1, the
per-layer metrics.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

#: Workload -> command seed -> sha256 of the CSV its command wrote at the
#: commit that added the benchmark.  A run with a recorded seed must
#: reproduce it.
DIGESTS = Path(__file__).with_name("digests.json")


def setup(name: str, seed: int, where: Path):
    import tunegram
    from workloads import WORKLOADS, write_corpus

    if not Path(tunegram.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"tunegram imported from {tunegram.__file__}, "
                         f"not from {ROOT / 'src'}")
    workload = WORKLOADS[name]
    tunes = workload.make_corpus(seed)
    corpus_sha = write_corpus(tunes, where / "corpus")
    return workload, tunes, corpus_sha, time.monotonic()


@dataclass
class Run:
    """One execution of the workload's command."""

    #: The command's ``--seed``.
    seed: int
    wall: float
    data: bytes | None
    tracer: object
    #: Probe times taken while it ran, or right after it if traced.
    probes: list[float]
    #: Factor to the reference speed (see ``speed.py``).
    scale: float = 1.0

    @property
    def at_reference(self) -> float:
        return self.wall * self.scale


def measure(name: str, seed: int, where: Path, seconds: float, trace: bool):
    workload, tunes, corpus_sha, ready = setup(name, seed, where)
    after_setup = speed.burst()

    import tunegram
    from tunegram import cli, metrics, mutation, pipeline
    from tunegram.model import MutationKind

    from checks import check_csv, check_trace, differing, round_trip
    from spans import Tracer, layer_metrics

    ids = [tune_id for tune_id, _ in tunes]
    out = where / "out.csv"
    command_seeds = workload.command_seeds(seed)
    modules = {"cli": cli, "pipeline": pipeline, "mutation": mutation}
    errors: list[str] = []

    def execute(command_seed: int, traced: bool) -> Run:
        argv = workload.argv(where / "corpus", out, command_seed)
        out.unlink(missing_ok=True)
        tracer = Tracer() if traced else None
        with nullcontext([]) if traced else speed.sampling() as probes:
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    code = cli.main(argv)
                else:
                    with tracer.installed(modules):
                        code = tracer.call(cli.main, argv)
            except Exception:
                traceback.print_exc()
                code = None
            wall = time.perf_counter() - t0 - sum(probes)
        if traced or not probes:
            # Probes taken during a traced run would land in its spans.
            probes = speed.burst()
        if code != 0:
            errors.append(f"command with --seed {command_seed} exited with {code}")
            return Run(command_seed, wall, None, tracer, probes)
        return Run(command_seed, wall, out.read_bytes(), tracer, probes)

    # A round runs the command once for each command seed.  Rounds go on
    # while one more, as long as the last, ends nearer to ``seconds`` than
    # stopping does.  With trace 1, odd rounds are traced; the first round
    # never is, and there are at least two.
    rounds: list[list[Run]] = []
    measured = last = 0.0
    while (not rounds or measured + last / 2 < seconds
           or (trace and len(rounds) < 2)):
        traced = trace and len(rounds) % 2 == 1
        rounds.append([execute(s, traced) for s in command_seeds])
        last = sum(r.wall for r in rounds[-1])
        measured += last
    runs = [r for one in rounds for r in one]
    for r in runs:
        r.scale = speed.scale(r.probes)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    recorded = json.loads(DIGESTS.read_text())[name]
    unrecorded = [s for s in command_seeds if str(s) not in recorded]
    if not trace and unrecorded:
        # No digest to hold that output to: check a traced run instead.
        runs.append(execute(unrecorded[0], traced=True))

    # Job failures: a failed command fails every job of its run; a CSV
    # that differs from the first run with its seed fails the tunes whose
    # rows differ; the checks below fail jobs of each seed's first run.
    first: dict[int, Run] = {}
    for r in runs:
        first.setdefault(r.seed, r)
    failed = 0
    for r in runs:
        reference = first[r.seed].data
        if r.data is None or reference is None:
            failed += len(ids)
        elif r.data != reference:
            errors.append(f"output with --seed {r.seed} differs between runs")
            failed += len(differing(r.data, reference, ids))
    not_round_trip = round_trip(tunes)
    csv_sha: dict[str, str] = {}
    for s, r in first.items():
        if r.data is None:
            continue
        bad = set(not_round_trip)
        csv_sha[str(s)] = hashlib.sha256(r.data).hexdigest()
        if recorded.get(str(s)) not in (None, csv_sha[str(s)]):
            errors.append(f"CSV sha256 with --seed {s} {csv_sha[str(s)]} != "
                          f"recorded {recorded[str(s)]}")
            bad.update(ids)
        bad |= check_csv(workload.experiment, tunes, r.data)
        checked = next((t for t in runs if t.seed == s and t.tracer), None)
        if checked is not None and checked.data is not None:
            bad |= check_trace(checked.tracer, ids)
        if bad:
            errors.append(f"{len(bad)} job(s) with --seed {s} failed checks: "
                          f"{sorted(bad)[:5]}")
        failed += len(bad)
    traced = [r for r in runs if r.tracer]
    for r in traced:
        silent = [b for b in workload.layers if r.tracer.calls(b) == 0]
        if silent:
            errors.append(f"traced layers recorded no calls: {silent}")
            break

    def round_s(one: list[Run]) -> float:
        return sum(r.at_reference for r in one)

    untraced = [one for one in rounds if one[0].tracer is None]
    items = sum(workload.items(tunes, r.data) if r.data else 0
                for r in rounds[0])
    median_round_s = statistics.median(round_s(one) for one in untraced)
    result = {
        "ready": ready,
        "corpus_sha256": corpus_sha,
        "probes": after_setup,
        "command_seeds": command_seeds,
        "csv_sha256": csv_sha,
        "items_per_round": items,
        "run_s": [r.wall for one in untraced for r in one],
        "run_scale": [r.scale for one in untraced for r in one],
        "items_per_s": items / median_round_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(ids) * len(runs),
        "failed": failed,
        "errors": errors,
        "env": {
            "backend": metrics.ACTIVE_BACKEND,
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "tunegram": tunegram.__version__,
        },
    }
    if trace:
        traced_rounds = [one for one in rounds if one[0].tracer]
        result["traced_run_s"] = [r.wall for r in traced]
        # A failed run has already failed the result; its spans may lack notes.
        layers = layer_metrics([r.tracer for r in traced if r.data] or [Tracer()],
                               [k.code for k in MutationKind],
                               mutation.MAX_ATTEMPTS)
        layers["trace.overhead_frac"] = statistics.median(
            round_s(one) for one in traced_rounds) / median_round_s - 1
        result["layers"] = layers
    return result


def main(argv: list[str]) -> int:
    role, name, seed, where = argv[0], argv[1], int(argv[2]), Path(argv[3])
    if role == "setup":
        _, _, corpus_sha, ready = setup(name, seed, where)
        result = {"ready": ready, "corpus_sha256": corpus_sha,
                  "probes": speed.burst()}
    else:
        result = measure(name, seed, where, float(argv[4]), argv[5] == "1")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
