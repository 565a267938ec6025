"""Scaling gate: every public entry point at size n and at 4n.

Each row times one call at n and at 4n, best of 3 with the two sizes
taken in turn, in ``time.process_time`` with the collector off (its
passes grow with the heap, not with the algorithm), and asserts a ratio
below 8, timing a row once more before it fails.  Linear time gives
about 4 and quadratic time about 16.  Each n makes one call take about
5 ms or more on a 2-vCPU VM (Python 3.11), except where the answer
needs no pass over the input, and except the three ``validate-*`` rows,
which take about 0.5-0.9 ms at n.  Each call gets fresh input built
outside the timed region, so no cached grammar view is reused.

A mutation row times, on a fresh grammar, ``applicable``, then as many
draws of the kind as the grammar has rules (``_draw`` and ``_fits``, the
loop ``apply_mutation`` runs), then the rest of ``apply_mutation`` on the
target that seed 0's draws end on: the input check, the fit and the
outcome (``_outcome``).  How many draws a mutation takes is random: on
the sparse families below it is about R or R/2 on average, but one
seed's draws at n and at 4n differed ninefold.  Drawing R times keeps
that spread out of the ratio while still charging the draws: a draw
that cost O(R) would make the row quadratic.
"""

import functools
import gc
import random
import time

import pytest

from tunegram.corpus import load_corpus, write_tune
from tunegram.metrics import levenshtein
from tunegram.midi import export_midi
from tunegram.model import (
    Grammar,
    MutationKind,
    NoteAlphabet,
    RuleRef,
    Terminal,
    parse_grammar,
    render_grammar,
    validate_grammar,
)
from tunegram.mutation import (
    RandomSource,
    _draw,
    _fits,
    _outcome,
    applicable,
)
from tunegram.sequitur import expand, induce, pai

ALPHABET = NoteAlphabet(tuple(range(12)))


# ---------------------------------------------------------------------------
# tunes and grammar families of size n (grammars as rhs maps)


def random_tune(n):
    rnd = random.Random(n)
    return tuple(rnd.randrange(12) for _ in range(n))


def strophic_tune(n):
    """Phrases of 16 notes drawn from a stock of six, as in the mini corpus."""
    rnd = random.Random(n)
    phrases = [tuple(rnd.randrange(12) for _ in range(16)) for _ in range(6)]
    out = []
    while len(out) < n:
        out += rnd.choice(phrases)
    return tuple(out[:n])


def rule_chain(n):
    """p_i -> p_(i+1) 5, ending in p_(n-1) -> 5 6."""
    five = Terminal(5)
    rhs = {i: (RuleRef(i + 1), five) for i in range(n - 1)}
    rhs[n - 1] = (Terminal(5), Terminal(6))
    return rhs


def single_reference_chain(n):
    """p_i -> p_(i+1), ending in p_(n-1) -> 5, plus the free rule pn -> 6:
    removing any chain rule takes the root out, so only pn can go."""
    rhs = {i: (RuleRef(i + 1),) for i in range(n - 1)}
    rhs[n - 1] = (Terminal(5),)
    rhs[n] = (Terminal(6),)
    return rhs


def fan_over_chain(n):
    """p0 -> p1 repeated n times over the rule chain p1 ... pn: no root
    reference can move into another rule, and only the chain's own
    references can."""
    rhs = {0: (RuleRef(1),) * n}
    for i in range(1, n):
        rhs[i] = (RuleRef(i + 1), Terminal(5))
    rhs[n] = (Terminal(5), Terminal(6))
    return rhs


def kind17_chain(n):
    """p0 -> p1 pR over the rule chain p1 ... p_(n-2), with pR = p_(n-1):
    the only definition swaps that fit pair pR with a chain rule."""
    rhs = {0: (RuleRef(1), RuleRef(n - 1))}
    for i in range(1, n - 2):
        rhs[i] = (RuleRef(i + 1), Terminal(5))
    rhs[n - 2] = rhs[n - 1] = (Terminal(5), Terminal(6))
    return rhs


def wide_root(n):
    """A root of n symbols, two in three a reference to one of n - 1
    two-note rules."""
    rhs = {0: tuple(RuleRef(1 + i % (n - 1)) if i % 3 else Terminal(i % 12)
                    for i in range(n))}
    for i in range(1, n):
        rhs[i] = (Terminal(i % 12), Terminal(i * 7 % 12))
    return rhs


def induced_random(n):
    return induce(random_tune(n)).rhs


@functools.cache
def family(name, n):
    """One shared, read-only rhs map per family and size."""
    return globals()[name](n)


# ---------------------------------------------------------------------------
# rows: (id, n, setup(n, tmp_path) -> input maker, call(input))


def _same(make_value):
    """A setup whose every call gets the same value (a tune, a path)."""
    def setup(n, tmp_path):
        value = make_value(n, tmp_path)
        return lambda: value
    return setup


def _grammar(name):
    """A setup that gives every call a fresh grammar of the family."""
    return lambda n, tmp_path: lambda: Grammar(family(name, n))


def _tune_file(n, tmp_path):
    path = tmp_path / f"tune_{n}.txt"
    write_tune(random_tune(n), path)
    return path


def _one_change_apart(n, tmp_path):
    """Two tunes that differ in one middle note: the strip path."""
    a = tuple(i * 7 % 12 for i in range(n))
    return a, a[:n // 2] + (12,) + a[n // 2 + 1:]


ENTRY_POINTS = [
    ("induce-random", 2_000, _same(lambda n, _: random_tune(n)), induce),
    ("induce-strophic", 2_000, _same(lambda n, _: strophic_tune(n)), induce),
    ("expand-rule-chain", 4_000, _grammar("rule_chain"), expand),
    ("expand-induced", 20_000, _grammar("induced_random"), expand),
    ("validate-rule-chain", 1_500, _grammar("rule_chain"), validate_grammar),
    ("validate-induced", 8_000, _grammar("induced_random"), validate_grammar),
    ("validate-wide-root", 1_000, _grammar("wide_root"), validate_grammar),
    ("render-parse-induced", 4_000, _grammar("induced_random"),
     lambda g: parse_grammar(render_grammar(g))),
    ("render-parse-rule-chain", 1_000, _grammar("rule_chain"),
     lambda g: parse_grammar(render_grammar(g))),
    ("pai-rule-chain", 50_000,
     _same(lambda n, _: Grammar(family("rule_chain", n))), pai),
    ("levenshtein-strip", 50_000, _same(_one_change_apart),
     lambda ab: levenshtein(*ab)),
    ("load-corpus", 20_000, _same(_tune_file), load_corpus),
    ("export-midi", 2_000,
     _same(lambda n, tmp_path: (random_tune(n), tmp_path / f"tune_{n}.mid")),
     lambda tune_path: export_midi(*tune_path)),
]


def _fitting_target(kind, g):
    """The target seed 0's draws end on, as apply_mutation would draw it."""
    rng = RandomSource(0)
    while True:
        t = _draw(kind, g, ALPHABET, rng)
        if t is not None and _fits(kind, g, t):
            return t


def _mutation_row(kind, name):
    def setup(n, tmp_path):
        rhs = family(name, n)
        g = Grammar(rhs)
        t = _fitting_target(kind, g) if applicable(g, kind) else None
        return lambda: (Grammar(rhs), t)

    def call(grammar_and_target):
        g, t = grammar_and_target
        if applicable(g, kind):
            rng = RandomSource(1)
            for _ in range(len(g)):
                drawn = _draw(kind, g, ALPHABET, rng)
                if drawn is not None:
                    _fits(kind, g, drawn)
            validate_grammar(g)
            _fits(kind, g, t)
            _outcome(kind, g, t, 1)
    return setup, call


# Every kind on three families: a deep chain, the fan over it (where
# moving a reference used to take quadratic time) and an induced tune.
# The sparse families add the kinds they starve of fitting targets, and
# the wide root the kinds that pair symbols within one rule.
MUTATION_ROWS = [(kind, name, n)
                 for name, n in (("rule_chain", 1_000),
                                 ("fan_over_chain", 1_000),
                                 ("induced_random", 8_000))
                 for kind in MutationKind]
MUTATION_ROWS += [(kind, "single_reference_chain", 1_000) for kind in (1, 19)]
MUTATION_ROWS += [(kind, "kind17_chain", 1_000) for kind in (5, 6, 17)]
MUTATION_ROWS += [(kind, "wide_root", 1_000)
                  for kind in (5, 6, 11, 12, 13, 16)]

ROWS = ENTRY_POINTS + [
    (f"kind{int(kind)}-{name}", n, *_mutation_row(MutationKind(kind), name))
    for kind, name, n in MUTATION_ROWS]


def _best_of_3(makers, call):
    """The least process time of 3 calls on input from each maker,
    taking the makers in turn, so that a drift in machine speed hits
    every size alike."""
    best = [float("inf")] * len(makers)
    for _ in range(3):
        for i, make in enumerate(makers):
            x = make()
            t0 = time.process_time()
            call(x)
            best[i] = min(best[i], time.process_time() - t0)
    return best


@pytest.mark.parametrize("name,n,setup,call", ROWS, ids=[r[0] for r in ROWS])
def test_four_times_the_input_costs_under_eight_times_the_time(
        name, n, setup, call, tmp_path):
    makers = setup(n, tmp_path), setup(4 * n, tmp_path)
    enabled = gc.isenabled()
    gc.disable()
    try:
        # A row that reads 8 or more is timed once more before it fails:
        # the 4n input spills out of a core's L2 cache into a shared one,
        # where other machines' load can slow it for a while, and linear
        # rows here read up to 7.6 once.  Quadratic code reads ~16 twice.
        for _ in range(2):
            t_small, t_large = _best_of_3(makers, call)
            if t_large < 8 * t_small:
                break
    finally:
        if enabled:
            gc.enable()
    assert t_large < 8 * t_small, (name, t_small, t_large)
