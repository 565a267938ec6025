"""Command line front end.

Subcommands: ``parse``, ``pai``, ``mutate``, ``ed`` for single tunes,
``experiment per-kind | trajectories | encoding`` for corpus runs that
write CSV files, and ``info`` for what a run would use.  Output is
deterministic for a given seed, also across ``--workers`` settings.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from functools import partial
from os.path import isdir
from typing import Callable, Sequence

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
    cfg = RunConfig(steps=args.steps, seed=args.seed,
                    excluded=_parse_excluded(args.exclude))
    kind = MutationKind.parse(args.kind) if args.kind is not None else None
    result = run(_load_tune(args.tune_file), cfg, kind=kind)
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
# Every experiment runs through _experiment: its settings are checked
# before the corpus is read, and each tune's job gets its own seed,
# derive_seed(seed, i) for the tune at corpus index i, so rows never
# depend on scheduling.  Job functions take one picklable argument and
# return plain rows so they can cross a process boundary.  pool.map
# preserves submission order, so the CSV is written in corpus order no
# matter how many workers ran.  The pool is never larger than the job
# list: with the fork start method every worker process is started on
# the first submit, whether or not it gets a job.

def _map_jobs(fn: Callable, jobs: list, workers: int) -> list:
    if workers <= 1 or len(jobs) <= 1:
        return [fn(job) for job in jobs]
    # Imported here, so a one-worker run never loads multiprocessing.
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
        return list(pool.map(fn, jobs))


def _experiment(args: argparse.Namespace, header: str, job: Callable,
                per_tune: Callable[[int], object] | None = None) -> int:
    """Write ``header``, then the rows of ``job`` for each tune of
    ``--corpus`` in corpus order, each row after the tune's id.  ``job``
    takes the tune, or the pair (tune, ``per_tune(i)``): the checked
    setting of the tune at corpus index ``i``, with its own seed."""
    tunes = load_corpus(args.corpus)
    jobs = [ct.tune if per_tune is None else (ct.tune, per_tune(i))
            for i, ct in enumerate(tunes)]
    results = _map_jobs(job, jobs, args.workers)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        for ct, rows in zip(tunes, results):
            for row in rows:
                fh.write(",".join(map(str, (ct.id, *row))) + "\n")
    return 0


def _per_kind_job(job: tuple[Tune, int]) -> list[tuple[int, int]]:
    notes, seed = job
    return [(int(k), ed) for k, ed in run_per_kind(notes, seed).items()]


def _cmd_per_kind(args: argparse.Namespace) -> int:
    # derive_seed folds its parts modulo 2**64: without this check,
    # --seed -1 would write the CSV of --seed 2**64 - 1.
    seed = check_seed(args.seed)
    return _experiment(args, "tune_id,kind,ed", _per_kind_job,
                       partial(derive_seed, seed))


def _trajectory_job(job: tuple[Tune, RunConfig]) -> list[tuple[int, ...]]:
    notes, cfg = job
    return [_trajectory_row(r) for r in run(notes, cfg).trajectory]


def _cmd_trajectories(args: argparse.Namespace) -> int:
    cfg = RunConfig(steps=args.steps, seed=args.seed,
                    excluded=_parse_excluded(args.exclude))
    return _experiment(args, "tune_id," + TRAJECTORY_HEADER, _trajectory_job,
                       lambda i: replace(cfg, seed=derive_seed(cfg.seed, i)))


def _encoding_job(notes: Tune) -> list[tuple[int, int]]:
    return [(pai(induce(notes)), pai(induce(to_intervals(notes))))]


def _cmd_encoding(args: argparse.Namespace) -> int:
    return _experiment(args, "tune_id,pai_pitch,pai_interval", _encoding_job)


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
    corpus_run = argparse.ArgumentParser(add_help=False)
    corpus_run.add_argument("--corpus", required=True)
    corpus_run.add_argument("--out", required=True)
    corpus_run.add_argument("--workers", type=int, default=1)

    p = esub.add_parser("per-kind", parents=[corpus_run],
                        help="one mutation of each kind per tune")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_per_kind)

    p = esub.add_parser("trajectories", parents=[corpus_run],
                        help="multi-step mutation runs per tune")
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--exclude", **exclude)
    p.set_defaults(func=_cmd_trajectories)

    p = esub.add_parser("encoding", parents=[corpus_run],
                        help="PAI of pitch vs interval encodings")
    p.set_defaults(func=_cmd_encoding)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (TunegramError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
