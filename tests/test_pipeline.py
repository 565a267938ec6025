"""The mutate/expand/reparse loop and its bookkeeping."""

import functools

import pytest

import tunegram.model as model_module
import tunegram.mutation as mutation_module
from tunegram.model import (
    EmptyTuneError,
    Grammar,
    MutationKind,
    NoteAlphabet,
    TrajectoryRecord,
)
from tunegram.metrics import levenshtein
from tunegram.mutation import (
    RandomSource,
    _fits,
    _outcome,
    apply_mutation,
    derive_seed,
)
from tunegram.pipeline import (
    DEFAULT_EXCLUDED,
    RunConfig,
    StepFailedError,
    run,
    run_per_kind,
)
from tunegram.sequitur import expand, expand_rule, induce
from tunes import HORNPIPE, HORNPIPE_SWAPPED


# ---------------------------------------------------------------------------
# configuration


def test_config_defaults():
    cfg = RunConfig(steps=10, seed=3)
    assert cfg.excluded == DEFAULT_EXCLUDED == {MutationKind.ADD_RULE}


def test_config_normalizes_int_kinds():
    cfg = RunConfig(steps=1, seed=0, excluded=frozenset({17, 18}))
    assert cfg.excluded == frozenset({MutationKind.SWAP_DEFINITIONS,
                                      MutationKind.ADD_RULE})


BAD_CONFIGS = [
    (dict(steps=0, seed=0), ValueError),
    (dict(steps=-3, seed=0), ValueError),
    (dict(steps=1, seed=-1), ValueError),
    (dict(steps=1, seed=2**64), ValueError),
    (dict(steps=1, seed=0, excluded=frozenset(MutationKind)), ValueError),
    (dict(steps=2.5, seed=0), TypeError),
    (dict(steps=True, seed=0), TypeError),
    (dict(steps=1, seed=1.5), TypeError),
    (dict(steps=1, seed=True), TypeError),
]


# Cases are named by their place in the list.
@pytest.mark.parametrize("kwargs, error", BAD_CONFIGS,
                         ids=[f"kwargs{i}" for i in range(len(BAD_CONFIGS))])
def test_config_rejects_bad_values(kwargs, error):
    with pytest.raises(error):
        RunConfig(**kwargs)


# ---------------------------------------------------------------------------
# single steps


def test_step_empty_tune():
    only_reverse = frozenset(MutationKind) - {MutationKind.REVERSE_RULE}
    for empty in ((), [], iter(())):
        with pytest.raises(EmptyTuneError):
            run(empty, RunConfig(steps=1, seed=0, excluded=only_reverse))


def test_step_reversal_only_preserves_length():
    only_reverse = frozenset(MutationKind) - {MutationKind.REVERSE_RULE}
    t = tuple(HORNPIPE)
    for seed in range(10):
        result = run(t, RunConfig(steps=1, seed=seed, excluded=only_reverse))
        t = result.final
        assert [r.kind for r in result.trajectory] == [MutationKind.REVERSE_RULE]
        assert len(t) == len(HORNPIPE)
        assert sorted(t) == sorted(HORNPIPE)


def test_chained_steps_respect_alphabet():
    t = tuple(HORNPIPE)
    for seed in range(25):
        t = run(t, RunConfig(steps=1, seed=seed)).final
        assert set(t) <= set(HORNPIPE)
        assert len(t) >= 1


# ---------------------------------------------------------------------------
# full runs


def test_run_is_deterministic():
    cfg = RunConfig(steps=30, seed=909)
    r1 = run(HORNPIPE, cfg)
    r2 = run(HORNPIPE, cfg)
    assert r1 == r2
    r3 = run(HORNPIPE, RunConfig(steps=30, seed=910))
    assert r3.final != r1.final or (
        [r.kind for r in r3.trajectory] != [r.kind for r in r1.trajectory])


def test_run_trajectory_shape():
    cfg = RunConfig(steps=15, seed=42)
    result = run(HORNPIPE, cfg)
    assert result.original == HORNPIPE
    assert len(result.trajectory) == 15
    assert [r.step for r in result.trajectory] == list(range(1, 16))
    assert all(isinstance(r, TrajectoryRecord) for r in result.trajectory)
    last = result.trajectory[-1]
    assert last.length == len(result.final)
    assert all(r.pai >= 0 for r in result.trajectory)


def test_run_never_applies_excluded_kinds(mini_corpus):
    cfg = RunConfig(steps=60, seed=7,
                    excluded=frozenset({17, 18, 19}))
    result = run(mini_corpus[3].tune, cfg)
    assert not {int(r.kind) for r in result.trajectory} & {17, 18, 19}


def test_run_metric_consistency(mini_corpus):
    original = mini_corpus[2].tune
    result = run(original, RunConfig(steps=60, seed=2718))
    prev_ed = 0
    for rec in result.trajectory:
        # each step's distances obey the metric's triangle inequality
        # through the original, and ED can never be beaten by the raw
        # length difference
        assert rec.ed_vs_previous <= prev_ed + rec.ed_vs_original
        assert rec.ed_vs_original >= abs(rec.length - len(original))
        assert rec.ed_vs_previous >= 0
        prev_ed = rec.ed_vs_original


def test_run_alphabet_is_frozen_from_original(mini_corpus):
    original = mini_corpus[5].tune
    result = run(original, RunConfig(steps=80, seed=99))
    assert set(result.final) <= set(original)


def test_run_empty_tune():
    with pytest.raises(EmptyTuneError):
        run((), RunConfig(steps=1, seed=0))


def test_run_forced_definition_swap_golden():
    g = induce(HORNPIPE)
    by_expansion = {expand_rule(g, i): i for i in g.rhs}
    targets = (by_expansion[(2, 1, 2)], by_expansion[(4, 4)])
    assert _fits(MutationKind.SWAP_DEFINITIONS, g, targets)
    outcome = _outcome(MutationKind.SWAP_DEFINITIONS, g, targets, 1)
    swapped = expand(outcome.grammar)
    assert swapped == HORNPIPE_SWAPPED
    assert levenshtein(HORNPIPE, swapped) == 21
    assert len(swapped) == 49



def test_run_surfaces_step_failures():
    # a one-note tune has no removable rule, so allowing only kind 19
    # must fail on the first step
    allowed = frozenset(MutationKind) - {MutationKind.REMOVE_RULE}
    with pytest.raises(StepFailedError) as exc_info:
        run((5,), RunConfig(steps=3, seed=0, excluded=allowed))
    assert exc_info.value.step == 1


# ---------------------------------------------------------------------------
# per-kind measurement


def test_per_kind_covers_all_kinds_on_corpus_tune(mini_corpus):
    out = run_per_kind(mini_corpus[0].tune, seed=1)
    assert set(out) == set(MutationKind)
    assert all(isinstance(v, int) and v >= 0 for v in out.values())


def test_per_kind_skips_inapplicable():
    out = run_per_kind((0, 1), seed=4)
    assert {int(k) for k in out} == {7, 8, 9, 11, 15, 18}


def test_per_kind_reversal_of_palindrome_is_free():
    out = run_per_kind((1, 2, 1), seed=9)
    assert out[MutationKind.REVERSE_RULE] == 0


def test_per_kind_is_deterministic_per_kind(mini_corpus):
    t = mini_corpus[1].tune
    assert run_per_kind(t, seed=77) == run_per_kind(t, seed=77)
    # kind seeds are derived independently, so the stream one kind uses
    # does not shift when another kind becomes inapplicable; reseeding
    # the tune's one source gives each kind a fresh source's stream
    full = run_per_kind(t, seed=77)
    g = induce(t)
    for kind in full:
        rng = RandomSource(derive_seed(77, int(kind)))
        outcome = apply_mutation(g, kind, NoteAlphabet.from_tune(t), rng)
        assert full[kind] == levenshtein(t, expand(outcome.grammar))


def test_per_kind_walks_reach_once(monkeypatch):
    # Every kind's applicability check and fit rule read the one induced
    # grammar's reach masks, so they are folded once for all 19 kinds.
    walks = []
    fold = Grammar.reach.func

    def counted(g):
        walks.append(g)
        return fold(g)

    reach = functools.cached_property(counted)
    reach.__set_name__(Grammar, "reach")
    monkeypatch.setattr(Grammar, "reach", reach)
    run_per_kind(HORNPIPE, 0)
    assert len(walks) == 1


def test_per_kind_analyses_each_grammar_once(monkeypatch):
    # The induced grammar is walked once, for its masks and the
    # input check of every kind's mutation; no mutated grammar is
    # walked, since expand makes its own pass.  Each kind's
    # applicability is decided once, though run_per_kind and
    # apply_mutation both ask, and one occurrence pass serves every draw.
    calls = {"walk": [], "decide": [], "occurrences": []}

    def counted(name, fn):
        def wrapper(*args):
            calls[name].append(args)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(model_module, "postorder",
                        counted("walk", model_module.postorder))
    monkeypatch.setattr(mutation_module, "_decide",
                        counted("decide", mutation_module._decide))
    occurrences = functools.cached_property(
        counted("occurrences", Grammar.occurrences.func))
    occurrences.__set_name__(Grammar, "occurrences")
    monkeypatch.setattr(Grammar, "occurrences", occurrences)
    run_per_kind(HORNPIPE, 0)
    assert len(calls["walk"]) == 1
    assert sorted(kind for _, kind in calls["decide"]) == list(MutationKind)
    assert len(calls["occurrences"]) == 1


BAD_SEEDS = [(-1, ValueError), (2**64, ValueError), (2**64 + 3, ValueError),
             (1.5, TypeError), (True, TypeError)]


@pytest.mark.parametrize("seed, error", BAD_SEEDS,
                         ids=[str(seed) for seed, _ in BAD_SEEDS])
def test_per_kind_rejects_seeds_outside_64_bits(seed, error):
    # derive_seed would fold them onto seeds in range: -1 onto 2**64 - 1,
    # and truncate 1.5 and True to 1
    with pytest.raises(error, match="64 unsigned bits|must be an int"):
        run_per_kind(HORNPIPE, seed)


def test_per_kind_empty_tune():
    with pytest.raises(EmptyTuneError):
        run_per_kind((), seed=0)
