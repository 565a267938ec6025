"""The variation loop: mutate the grammar, expand, reparse, repeat.

A run starts from a tune, freezes its alphabet, and then iterates:
induce a grammar, apply one random mutation, expand back to a tune,
and reparse so the next mutation sees a canonical grammar.  Each step
logs edit distance against the original and the previous tune, the
tune length, and the PAI of the reparsed tune.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .metrics import levenshtein
from .model import (
    EmptyTuneError,
    MutationKind,
    NoteAlphabet,
    TrajectoryRecord,
    Tune,
    TunegramError,
)
from .mutation import (
    DEFAULT_EXCLUDED,
    RandomSource,
    _draw_pool,
    applicable,
    apply_mutation,
    derive_seed,
    random_mutation,
)
from .sequitur import expand, induce, pai


class StepFailedError(TunegramError):
    """A run step could not produce a mutation; carries the step index."""

    def __init__(self, step: int, reason: Exception) -> None:
        super().__init__(f"step {step} failed: {reason}")
        self.step = step
        self.reason = reason


@dataclass(frozen=True)
class RunConfig:
    """Settings for one mutation run: the number of steps, the seed and
    the kinds left out of the random draw.  Every step is followed by
    expand and reparse, as in the paper's loop."""

    steps: int
    seed: int
    excluded: frozenset[MutationKind] = DEFAULT_EXCLUDED

    def __post_init__(self) -> None:
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")
        excluded = frozenset(MutationKind).difference(_draw_pool(self.excluded))
        object.__setattr__(self, "excluded", excluded)


@dataclass(frozen=True)
class RunResult:
    original: Tune
    final: Tune
    trajectory: tuple[TrajectoryRecord, ...]


def run(
    t: Sequence[int],
    cfg: RunConfig,
    *,
    kind: MutationKind | None = None,
) -> RunResult:
    """Run cfg.steps mutations starting from t and record the trajectory.

    The note alphabet is frozen from t; mutated tunes never pick up
    notes the original did not contain.  A forced ``kind`` applies at
    every step, with targets drawn as usual.
    """
    original = tuple(t)
    if not original:
        raise EmptyTuneError("cannot run on an empty tune")
    alphabet = NoteAlphabet.from_tune(original)
    rng = RandomSource(cfg.seed)

    current = original
    grammar = induce(current)
    records: list[TrajectoryRecord] = []
    for step_no in range(1, cfg.steps + 1):
        try:
            if kind is not None:
                outcome = apply_mutation(grammar, kind, alphabet, rng)
            else:
                outcome = random_mutation(grammar, alphabet, rng, cfg.excluded)
        except TunegramError as exc:
            raise StepFailedError(step_no, exc) from exc
        new_tune = expand(outcome.grammar)
        grammar = induce(new_tune)
        records.append(TrajectoryRecord(
            step=step_no,
            kind=outcome.kind,
            ed_vs_original=levenshtein(original, new_tune),
            ed_vs_previous=levenshtein(current, new_tune),
            length=len(new_tune),
            pai=pai(grammar),
        ))
        current = new_tune
    return RunResult(original, current, tuple(records))


def run_per_kind(t: Sequence[int], seed: int) -> dict[MutationKind, int]:
    """Apply each kind once, independently, to induce(t).

    Returns kind -> ED(mutated tune, t); kinds that are inapplicable to
    this tune's grammar are simply absent.  Each kind gets its own
    derived RandomSource, so measurements do not influence one another.
    """
    original = tuple(t)
    if not original:
        raise EmptyTuneError("cannot measure an empty tune")
    g = induce(original)
    alphabet = NoteAlphabet.from_tune(original)
    out: dict[MutationKind, int] = {}
    for kind in MutationKind:
        if not applicable(g, kind):
            continue
        rng = RandomSource(derive_seed(seed, int(kind)))
        outcome = apply_mutation(g, kind, alphabet, rng)
        out[kind] = levenshtein(original, expand(outcome.grammar))
    return out
