"""Tunes as hierarchical grammars: induction, mutation, and metrics.

A monophonic tune (a tuple of integer pitches) is compressed into a
context-free grammar whose size measures how much reusable structure
the tune contains.  Mutations act on the grammar rather than the note
list, and a pipeline iterates mutate / expand / reparse while tracking
edit distance and grammar size.
"""

from .corpus import (
    CorpusFormatError,
    CorpusTune,
    load_corpus,
    load_mini_corpus,
    serialize_tune,
)
from .metrics import levenshtein
from .midi import NoteRangeError, export_midi
from .model import (
    Grammar,
    GrammarStructureError,
    MutationKind,
    NoteAlphabet,
    RuleRef,
    Symbol,
    Terminal,
    TrajectoryRecord,
    Tune,
    TunegramError,
    parse_grammar,
    render_grammar,
    validate_grammar,
)
from .mutation import (
    InapplicableMutationError,
    MutationOutcome,
    NoApplicableMutationError,
    RandomSource,
    applicable,
    apply_mutation,
    derive_seed,
    random_mutation,
)
from .pipeline import RunConfig, RunResult, StepFailedError, run, run_per_kind
from .sequitur import expand, expand_rule, induce, pai, to_intervals

__version__ = "0.1.0"

__all__ = [
    "CorpusFormatError",
    "CorpusTune",
    "Grammar",
    "GrammarStructureError",
    "InapplicableMutationError",
    "MutationKind",
    "MutationOutcome",
    "NoApplicableMutationError",
    "NoteAlphabet",
    "NoteRangeError",
    "RandomSource",
    "RuleRef",
    "RunConfig",
    "RunResult",
    "StepFailedError",
    "Symbol",
    "Terminal",
    "TrajectoryRecord",
    "Tune",
    "TunegramError",
    "applicable",
    "apply_mutation",
    "derive_seed",
    "expand",
    "expand_rule",
    "export_midi",
    "induce",
    "levenshtein",
    "load_corpus",
    "load_mini_corpus",
    "pai",
    "parse_grammar",
    "random_mutation",
    "render_grammar",
    "run",
    "run_per_kind",
    "serialize_tune",
    "to_intervals",
    "validate_grammar",
]
