"""The benchmark's workloads and the inputs each one feeds the program.

Every workload is one ``tunegram experiment`` command, run in-process
through ``tunegram.cli.main`` with ``--workers 1``, on a corpus the
benchmark writes from its seed.  The program sees only the written
files (and, for the seeded experiments, ``--seed``).  A job is one tune.

traj-mini
    ``experiment trajectories`` on the bundled 20-tune mini corpus
    (92 notes per tune), 100 steps, four ``--seed`` values a round,
    drawn by the workload seed (see below).  The paper's headline
    experiment.  Time goes to ``levenshtein`` (about two thirds),
    ``induce`` (about a quarter) and mutation, so edit-distance and
    reparse changes show here.  One item is one cell
    of the two edit-distance tables a step fills, against the original
    and against the previous tune: ``len(a) * len(b)`` as passed to
    ``levenshtein``, from the tune lengths and the ``length`` column.  A
    seed's mutations can grow a tune from 92 to 675 notes, and a step's
    work grows with the square of its length, so per note one ``--seed``
    cost up to a third more than another over 13 timed seeds, and per
    step more still; one time per cell fitted them with a 6% standard
    deviation.  To even out the rest, a round covers four seeds, drawn
    by the workload seed from ``TRAJ_SEED_POOL``.
per-kind-gen
    ``experiment per-kind`` on 300 short strophic tunes: 5 phrases of
    6-10 notes in the ``abacbdcede`` order with a shared motif, like
    ``scripts/make_mini_corpus.py``.  One item is one applied mutation
    (one CSV row).  Every kind is applied once per tune, ``applicable``
    runs twice per kind and ``validate_grammar`` on each candidate, so
    the mutation layer does more work here than anywhere else, about a
    third of the time; ``levenshtein`` takes about half and ``induce``
    runs once per tune.
encoding-long
    ``experiment encoding`` on 8 tunes of 20,000 notes: 4 long strophic
    tunes with much shared material and deep grammars, 4 random walks
    with little shared material and flat grammars.  One item is one note
    induced, counting the pitch and the interval encoding.  ``induce`` is
    nearly all of the time; ``levenshtein`` and mutation do no work, so
    their changes must leave this workload unchanged.
"""

from __future__ import annotations

import hashlib
import os
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

Tune = tuple[int, ...]

#: Two-octave major scale, the pitch set of the bundled mini corpus.
SCALE = (0, 2, 4, 5, 7, 9, 11, 12, 14, 16, 17, 19)
#: Phrase order of a strophic tune: phrases a-e, each played twice.
PATTERN = "abacbdcede"

TRAJ_STEPS = 100
#: The ``--seed`` values traj-mini draws from: 0-127, whose CSV digests
#: are recorded, except 48 and 70, whose runs take longer than a run of
#: the benchmark may.  With seed 48 the trajectories fill 1.3 billion
#: edit-distance cells, 31 times the median seed's 43 million, and the
#: command did not finish within the 170 s a whole run may take.  Seed
#: 70 fills 195 million, and a traced run of a round holding it would
#: take about 150 s on the VM described in ``speed.py``.  The next
#: largest, seed 59, fills 121 million.
TRAJ_SEED_POOL = tuple(s for s in range(128) if s not in (48, 70))
SEEDS_PER_ROUND = 4
PER_KIND_TUNES = 300
LONG_TUNES = 8
LONG_NOTES = 20_000


def short_strophic(rng: random.Random) -> Tune:
    """5 phrases of 6-10 notes in PATTERN order, a motif spliced into two
    of them, and a two-note coda."""
    motif = [rng.choice(SCALE) for _ in range(rng.randint(3, 4))]
    phrases = [[rng.choice(SCALE) for _ in range(rng.randint(6, 10))]
               for _ in range(5)]
    for p in rng.sample(range(5), 2):
        at = rng.randint(1, len(phrases[p]) - 1)
        phrases[p][at:at] = motif
    notes = [n for ch in PATTERN for n in phrases[ord(ch) - ord("a")]]
    notes += [rng.choice(SCALE), rng.choice(SCALE)]
    return tuple(notes)


def long_strophic(rng: random.Random, n: int) -> Tune:
    """Sections built from a few phrases, sections repeated until n notes;
    one phrase in ten is played with a note changed."""
    phrases = [[rng.choice(SCALE) + 48 for _ in range(rng.randint(6, 10))]
               for _ in range(8)]
    sections = [[rng.randrange(len(phrases)) for _ in range(rng.randint(4, 8))]
                for _ in range(5)]
    notes: list[int] = []
    while len(notes) < n:
        for p in rng.choice(sections):
            phrase = list(phrases[p])
            if rng.random() < 0.1:
                phrase[rng.randrange(len(phrase))] = rng.choice(SCALE) + 48
            notes.extend(phrase)
    return tuple(notes[:n])


def random_walk(rng: random.Random, n: int) -> Tune:
    """Steps of up to 7 semitones either way, kept inside MIDI 24-96."""
    steps = [s for s in range(-7, 8) if s]
    pitch = 60
    notes = []
    for _ in range(n):
        pitch = min(96, max(24, pitch + rng.choice(steps)))
        notes.append(pitch)
    return tuple(notes)


def _mini_corpus(seed: int) -> list[tuple[str, Tune]]:
    from tunegram import load_mini_corpus
    return [(ct.id, ct.tune) for ct in load_mini_corpus()]


def _per_kind_corpus(seed: int) -> list[tuple[str, Tune]]:
    rng = random.Random(f"per-kind-gen:{seed}")
    return [(f"t{i:03d}", short_strophic(rng)) for i in range(PER_KIND_TUNES)]


def _long_corpus(seed: int) -> list[tuple[str, Tune]]:
    rng = random.Random(f"encoding-long:{seed}")
    half = LONG_TUNES // 2
    return ([(f"strophic{i}", long_strophic(rng, LONG_NOTES)) for i in range(half)]
            + [(f"walk{i}", random_walk(rng, LONG_NOTES)) for i in range(half)])


@dataclass(frozen=True)
class Workload:
    name: str
    #: One line for BENCHMARK.json: why it was chosen, the item, the layers.
    why: str
    experiment: str
    make_corpus: Callable[[int], list[tuple[str, Tune]]]
    #: Traced bindings (``<calling module>.<name>``) that must record calls.
    layers: tuple[str, ...]
    #: If set, a round runs the command once with each of SEEDS_PER_ROUND
    #: ``--seed`` values drawn from here; else once with the workload seed.
    seed_pool: tuple[int, ...] = ()

    def command_seeds(self, seed: int) -> list[int]:
        """The ``--seed`` of each command of a round for workload seed
        ``seed``."""
        if not self.seed_pool:
            return [seed]
        rng = random.Random(f"{self.name}:{seed}")
        return rng.sample(self.seed_pool, SEEDS_PER_ROUND)

    def argv(self, corpus: Path, out: Path, seed: int) -> list[str]:
        argv = ["experiment", self.experiment, "--corpus", str(corpus),
                "--out", str(out), "--workers", "1"]
        if self.experiment == "trajectories":
            argv += ["--steps", str(TRAJ_STEPS)]
        if self.experiment != "encoding":
            argv += ["--seed", str(seed)]
        return argv

    def items(self, tunes: list[tuple[str, Tune]], csv: bytes) -> int:
        """Work in one run of the command; see the module docstring."""
        rows = csv.decode().splitlines()[1:]
        if self.experiment == "trajectories":
            lengths = {tune_id: len(t) for tune_id, t in tunes}
            previous = dict(lengths)
            cells = 0
            for row in rows:
                tune_id, length = row.split(",", 1)[0], int(row.rsplit(",", 2)[1])
                cells += (lengths[tune_id] + previous[tune_id]) * length
                previous[tune_id] = length
            return cells
        if self.experiment == "encoding":
            return sum(2 * len(t) - 1 for _, t in tunes)
        return len(rows)


WORKLOADS = {w.name: w for w in (
    Workload(
        "traj-mini",
        "Paper's headline run: 20 mini-corpus tunes x 100 steps, 4 seeds a "
        "run; item = one edit-distance DP cell. Stresses levenshtein, then "
        "induce and mutation; edit-distance and reparse changes show here.",
        "trajectories", _mini_corpus,
        ("cli.load_corpus", "cli.run", "pipeline.induce",
         "pipeline.random_mutation", "pipeline.expand", "pipeline.levenshtein",
         "pipeline.pai", "mutation.applicable", "mutation.apply_mutation",
         "mutation.validate_grammar"),
        seed_pool=TRAJ_SEED_POOL),
    Workload(
        "per-kind-gen",
        "300 strophic tunes, each kind once per tune; item = one applied "
        "mutation. Stresses mutation (applicable, validate_grammar) most "
        "of all workloads; levenshtein is about half; induce is light.",
        "per-kind", _per_kind_corpus,
        ("cli.load_corpus", "cli.run_per_kind", "pipeline.induce",
         "pipeline.applicable", "pipeline.apply_mutation", "pipeline.expand",
         "pipeline.levenshtein", "mutation.applicable",
         "mutation.validate_grammar")),
    Workload(
        "encoding-long",
        "8 tunes of 20k notes, half strophic, half random walk; item = one "
        "note induced (pitch + interval). Stresses induce; bypasses "
        "levenshtein and mutation.",
        "encoding", _long_corpus,
        ("cli.load_corpus", "cli.induce", "cli.pai")),
)}


def write_corpus(tunes: list[tuple[str, Tune]], root: Path) -> str:
    """Write one ``<id>.txt`` per tune in the format load_corpus reads;
    return the sha256 of all files in order.

    A file already there is written over in place, not replaced: the
    processes of one run all write the same corpus to one directory.
    Replacing files, or writing each process its own copy and deleting
    them all after the run, frees the blocks of thousands of small files
    a run; on an ext4 disk mounted with online discard that slowed
    writing per-kind-gen's 300 files from 20 ms to 220 ms over ten runs,
    against a steady 13-15 ms in place.
    """
    root.mkdir(parents=True, exist_ok=True)
    digest = hashlib.sha256()
    for tune_id, notes in tunes:
        data = (" ".join(map(str, notes)) + "\n").encode()
        fd = os.open(root / f"{tune_id}.txt", os.O_WRONLY | os.O_CREAT, 0o644)
        with open(fd, "wb") as fh:
            fh.write(data)
            fh.truncate()
        digest.update(tune_id.encode() + b"\0" + data)
    return digest.hexdigest()
