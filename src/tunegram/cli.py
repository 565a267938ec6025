"""Command line front end.

Subcommands: ``parse``, ``pai``, ``mutate``, ``ed`` for single tunes,
``experiment per-kind | trajectories | encoding`` for corpus runs that
write CSV files, and ``info`` for what a run would use.  Output is
deterministic for a given seed, also across ``--workers`` settings.
"""

from __future__ import annotations

import argparse
import sys
from os.path import isdir
from typing import Callable, Iterable, Sequence

from . import __version__
from .corpus import load_corpus, write_tune
from .metrics import ACTIVE_BACKEND, levenshtein
from .midi import export_midi
from .model import (
    MutationKind,
    TrajectoryRecord,
    Tune,
    TunegramError,
    render_grammar,
)
from .mutation import DEFAULT_EXCLUDED, MAX_ATTEMPTS, check_seed, derive_seed
from .pipeline import RunConfig, run, run_per_kind
from .sequitur import induce, pai, to_intervals

TRAJECTORY_HEADER = "step,kind,ed_vs_original,ed_vs_previous,length,pai"


def _parse_excluded(text: str) -> frozenset[MutationKind]:
    if text.strip().lower() in ("", "none"):
        return frozenset()
    return frozenset(MutationKind.parse(part) for part in text.split(","))


def _trajectory_row(r: TrajectoryRecord) -> tuple[int, ...]:
    """One ``TRAJECTORY_HEADER`` row."""
    return (r.step, int(r.kind), r.ed_vs_original, r.ed_vs_previous,
            r.length, r.pai)


def _load_tune(path: str) -> Tune:
    if isdir(path):  # load_corpus would read it as a corpus
        raise TunegramError(f"{path} is a directory, not a tune file")
    tunes = load_corpus(path)
    if not tunes:
        raise TunegramError(f"no notes found in {path}")
    return tunes[0].tune


def _write_csv(path: str, header: str, rows: Iterable[Sequence[object]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")


# --- single-tune commands -------------------------------------------------

def _cmd_parse(args: argparse.Namespace) -> int:
    g = induce(_load_tune(args.tune_file))
    sys.stdout.write(render_grammar(g))
    print(f"PAI: {pai(g)}")
    return 0


def _cmd_pai(args: argparse.Namespace) -> int:
    t = _load_tune(args.tune_file)
    if args.intervals:
        t = to_intervals(t)
    print(pai(induce(t)))
    return 0


def _cmd_mutate(args: argparse.Namespace) -> int:
    t = _load_tune(args.tune_file)
    cfg = RunConfig(steps=args.steps, seed=args.seed,
                    excluded=_parse_excluded(args.exclude))
    kind = MutationKind.parse(args.kind) if args.kind is not None else None
    result = run(t, cfg, kind=kind)
    print(TRAJECTORY_HEADER)
    for r in result.trajectory:
        print(",".join(map(str, _trajectory_row(r))))
    if args.out:
        write_tune(result.final, args.out)
    if args.midi:
        export_midi(result.final, args.midi)
    return 0


def _cmd_ed(args: argparse.Namespace) -> int:
    a = _load_tune(args.file_a)
    b = _load_tune(args.file_b)
    print(levenshtein(a, b))
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    print(f"tunegram: {__version__}")
    print("python: {}.{}.{}".format(*sys.version_info))
    print(f"backend: {ACTIVE_BACKEND}")
    print(f"max_attempts: {MAX_ATTEMPTS}")
    return 0


# --- corpus experiments ---------------------------------------------------
#
# Worker functions take one picklable tuple and return plain values so
# they can cross a process boundary.  Results come back via pool.map,
# which preserves submission order, so the CSV is written in corpus
# order no matter how many workers ran.  The pool is never larger than
# the job list: with the fork start method every worker process is
# started on the first submit, whether or not it gets a job.

def _map_jobs(fn: Callable, jobs: list, workers: int) -> list:
    if workers <= 1 or len(jobs) <= 1:
        return [fn(job) for job in jobs]
    # Imported here, so a one-worker run never loads multiprocessing.
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
        return list(pool.map(fn, jobs))


def _per_kind_job(job: tuple[Tune, int]) -> list[tuple[int, int]]:
    notes, seed = job
    by_kind = run_per_kind(tuple(notes), seed)
    return [(int(k), ed) for k, ed in by_kind.items()]


def _cmd_per_kind(args: argparse.Namespace) -> int:
    # derive_seed folds its parts modulo 2**64: without this check,
    # --seed -1 would write the CSV of --seed 2**64 - 1.
    check_seed(args.seed)
    tunes = load_corpus(args.corpus)
    jobs = [(ct.tune, derive_seed(args.seed, i)) for i, ct in enumerate(tunes)]
    results = _map_jobs(_per_kind_job, jobs, args.workers)
    rows = [(ct.id, kind, ed)
            for ct, pairs in zip(tunes, results)
            for kind, ed in pairs]
    _write_csv(args.out, "tune_id,kind,ed", rows)
    return 0


def _trajectory_job(job: tuple[Tune, int, int, tuple[int, ...]]) -> list[tuple]:
    notes, steps, seed, excluded = job
    cfg = RunConfig(steps=steps, seed=seed, excluded=excluded)
    result = run(tuple(notes), cfg)
    return [_trajectory_row(r) for r in result.trajectory]


def _cmd_trajectories(args: argparse.Namespace) -> int:
    check_seed(args.seed)  # as in _cmd_per_kind
    tunes = load_corpus(args.corpus)
    excluded = tuple(sorted(int(k) for k in _parse_excluded(args.exclude)))
    jobs = [(ct.tune, args.steps, derive_seed(args.seed, i), excluded)
            for i, ct in enumerate(tunes)]
    results = _map_jobs(_trajectory_job, jobs, args.workers)
    rows = [(ct.id, *step_row)
            for ct, steps in zip(tunes, results)
            for step_row in steps]
    _write_csv(args.out, "tune_id," + TRAJECTORY_HEADER, rows)
    return 0


def _encoding_job(notes: Tune) -> tuple[int, int]:
    t = tuple(notes)
    return pai(induce(t)), pai(induce(to_intervals(t)))


def _cmd_encoding(args: argparse.Namespace) -> int:
    tunes = load_corpus(args.corpus)
    results = _map_jobs(_encoding_job, [ct.tune for ct in tunes], args.workers)
    rows = [(ct.id, p, q) for ct, (p, q) in zip(tunes, results)]
    _write_csv(args.out, "tune_id,pai_pitch,pai_interval", rows)
    return 0


# --- parser ---------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tunegram",
        description="Grammar-based tune analysis and mutation.")
    sub = parser.add_subparsers(dest="command", required=True)
    exclude = dict(
        default=",".join(str(int(k)) for k in sorted(DEFAULT_EXCLUDED)),
        metavar="KINDS",
        help="comma-separated kinds to skip (default %(default)s; 'none')")

    p = sub.add_parser("parse", help="print the induced grammar and its PAI")
    p.add_argument("tune_file")
    p.set_defaults(func=_cmd_parse)

    p = sub.add_parser("pai", help="print the pathway assembly index")
    p.add_argument("tune_file")
    p.add_argument("--intervals", action="store_true",
                   help="measure the interval encoding instead of pitches")
    p.set_defaults(func=_cmd_pai)

    p = sub.add_parser("mutate", help="run the mutation pipeline on a tune")
    p.add_argument("tune_file")
    p.add_argument("--steps", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--exclude", **exclude)
    p.add_argument("--kind", default=None,
                   help="force this mutation kind at every step")
    p.add_argument("--out", default=None, metavar="FILE",
                   help="write the final tune here")
    p.add_argument("--midi", default=None, metavar="FILE",
                   help="write the final tune here as MIDI")
    p.set_defaults(func=_cmd_mutate)

    p = sub.add_parser("ed", help="edit distance between two tunes")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.set_defaults(func=_cmd_ed)

    p = sub.add_parser("info", help="print the version, the Python, the "
                       "edit-distance backend and the mutation draw cap")
    p.set_defaults(func=_cmd_info)

    exp = sub.add_parser("experiment", help="corpus-level experiments")
    esub = exp.add_subparsers(dest="experiment", required=True)

    p = esub.add_parser("per-kind",
                        help="one mutation of each kind per tune")
    p.add_argument("--corpus", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=_cmd_per_kind)

    p = esub.add_parser("trajectories",
                        help="multi-step mutation runs per tune")
    p.add_argument("--corpus", required=True)
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--exclude", **exclude)
    p.add_argument("--out", required=True)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=_cmd_trajectories)

    p = esub.add_parser("encoding",
                        help="PAI of pitch vs interval encodings")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=_cmd_encoding)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (TunegramError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
