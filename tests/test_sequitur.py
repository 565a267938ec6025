"""Grammar induction, expansion, and the assembly index."""

import gc
import hashlib
import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from canonical import canonical_violations, violations
from tunegram.model import (
    EmptyTuneError,
    Grammar,
    GrammarStructureError,
    RuleRef,
    Terminal,
    TuneTooShortError,
    UnknownRuleError,
    parse_grammar,
    postorder,
    render_grammar,
    validate_grammar,
)
from tunegram.sequitur import (
    expand,
    expand_rule,
    induce,
    pai,
    to_intervals,
)
from tunes import ABRACADABRA, HORNPIPE, HORNPIPE_GRAMMAR, PITCH16

tunes = st.lists(st.integers(0, 23), min_size=1, max_size=256)


def test_abracadabra_pai_is_7():
    g = induce(ABRACADABRA)
    assert pai(g) == 7
    assert expand(g) == ABRACADABRA
    assert not violations(g)


def test_abracadabra_grammar_shape():
    # Rule utility leaves exactly one auxiliary rule for "abra"; a
    # 4-rule variant that splits it into digram rules would leave each
    # sub-rule referenced once and get inlined.
    g = induce(ABRACADABRA)
    assert render_grammar(g) == "p0 -> p1 3 0 4 p1\np1 -> 0 1 2 0\n"


def test_single_note_tune():
    g = induce([5])
    assert render_grammar(g) == "p0 -> 5\n"
    assert pai(g) == 0


def test_pitch16_pai_is_6():
    g = induce(PITCH16)
    assert pai(g) == 6
    assert expand(g) == PITCH16


def test_interval16_pai():
    # The leading 0 treats the first note as a zero interval from
    # nothing; the sequence still factors to assembly index 8.
    iv = (0, 9, -4, -3, 0, 3, -3, 0, -2, 9, -4, -3, 0, 3, -3, 0)
    g = induce(iv)
    assert expand(g) == iv
    assert not violations(g)
    assert pai(g) == 8


def test_induce_rejects_empty_and_non_ints():
    with pytest.raises(EmptyTuneError):
        induce([])
    with pytest.raises(TypeError):
        induce([1, "2"])
    with pytest.raises(TypeError):
        induce([True])


def test_hornpipe_round_trip_and_canonical():
    g = induce(HORNPIPE)
    assert expand(g) == HORNPIPE
    assert not violations(g)


def test_hornpipe_reference_grammar_expands():
    g = parse_grammar(HORNPIPE_GRAMMAR)
    assert expand(g) == HORNPIPE
    assert pai(g) == 28


def test_expand_rule_pieces():
    g = parse_grammar(HORNPIPE_GRAMMAR)
    assert expand_rule(g, 5) == (4, 4)
    assert expand_rule(g, 4) == (6, 2)
    assert expand_rule(g, 6) == (7, 4, 4)
    assert expand_rule(g, 0) == expand(g)


def test_expand_of_a_terminal_subclass_is_its_value():
    class Note(Terminal):
        __slots__ = ()

    g = Grammar({0: [Note(3), RuleRef(1), Note(4)], 1: [Terminal(5), Note(6)]})
    assert expand_rule(g, 0) == (3, 5, 6, 4)


def test_expand_rule_errors():
    g = parse_grammar("p0 -> 1 2")
    with pytest.raises(UnknownRuleError):
        expand_rule(g, 3)
    cyclic = parse_grammar("p0 -> p1 p1; p1 -> p1")
    with pytest.raises(GrammarStructureError):
        expand(cyclic)
    dangling = parse_grammar("p0 -> p9")
    with pytest.raises(UnknownRuleError):
        expand(dangling)


def test_expand_raises_the_first_fault_in_expansion_order():
    # Expansion goes in rhs order: p1's first symbol, p2, closes the
    # cycle through p1 before p1's dangling p9 is met.
    g = parse_grammar("p0 -> p1; p1 -> p2 p9; p2 -> p1 5")
    with pytest.raises(GrammarStructureError, match="cycle through p1"):
        expand(g)
    # Here p2, with its dangling p9, comes before p1 and its self-loop.
    g = parse_grammar("p0 -> p2 p1; p1 -> p1 5; p2 -> p9 4")
    with pytest.raises(UnknownRuleError, match="missing rule p9"):
        expand(g)


def test_expand_raises_the_first_fault_in_rhs_order():
    # Expansion is one pass in rhs order: p0's dangling p9 comes before
    # p1's self-loop.  A fold over a postorder walk, which skips missing
    # rules, met the cycle first.  Both are GrammarStructureErrors.
    g = parse_grammar("p0 -> p9 p1; p1 -> p1")
    with pytest.raises(UnknownRuleError,
                       match="p0 references missing rule p9"):
        expand(g)
    g = parse_grammar("p0 -> p1 p9; p1 -> p1")
    with pytest.raises(GrammarStructureError, match="cycle through p1"):
        expand(g)
    # An empty rhs is met where its rule is first used.
    g = parse_grammar("p0 -> 1 p2 p1; p1 -> p1; p2 ->")
    with pytest.raises(GrammarStructureError, match="p2 has an empty rhs"):
        expand(g)
    with pytest.raises(GrammarStructureError, match="p2 has an empty rhs"):
        expand_rule(g, 2)


def test_expand_leaves_out_faults_the_root_does_not_reach():
    # Expansion follows the references from the root only.
    g = parse_grammar("p0 -> 1 p2; p2 -> 3; p7 ->")
    assert expand(g) == (1, 3)
    g = parse_grammar("p0 -> 1 p2; p2 -> 3; p5 -> p6; p6 -> p5 4")
    assert validate_grammar(g)
    assert expand(g) == (1, 3)


def test_expand_rule_matches_a_fold_over_its_own_walk(mini_corpus):
    rnd = random.Random(22)
    tunes = [ct.tune for ct in mini_corpus] + [
        [rnd.randrange(k) for _ in range(rnd.randrange(1, 200))]
        for k in rnd.choices((2, 3, 5, 12), k=300)]
    for t in tunes:
        g = induce(t)
        memo = {}
        for x in postorder(g.rhs)[0]:
            memo[x] = tuple(v for s in g.rhs[x] for v in (
                (s.value,) if isinstance(s, Terminal) else memo[s.rule_id]))
        for r in g.rhs:
            assert expand_rule(g, r) == memo[r]


def test_expand_of_a_rule_chain_is_output_linear():
    # p_i -> p_(i+1) 5: a fold that keeps every rule's expansion holds
    # about R**2 / 2 notes, some 8 million at R = 4,000.  One pass keeps
    # the output and one span per rule.
    r = 4000
    g = Grammar({**{i: [RuleRef(i + 1), Terminal(5)] for i in range(r)},
                 r: [Terminal(5), Terminal(6)]})
    tracemalloc.start()
    try:
        out = expand(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20
    assert out == (5, 6) + (5,) * r
    assert "walk" not in g.__dict__


def test_expand_deep_grammar_is_iterative():
    # a 3000-rule reference chain would blow the recursion limit if
    # expansion recursed
    g = Grammar({**{i: [RuleRef(i + 1)] for i in range(3000)},
                 3000: [Terminal(7), Terminal(8)]})
    assert expand(g) == (7, 8)


def test_pai_counts_joins():
    assert pai(parse_grammar("p0 -> 1 2 3")) == 2
    assert pai(parse_grammar("p0 -> p1 p1; p1 -> 4 5 6")) == 3


def test_pai_raises_on_an_empty_rhs_or_a_missing_root():
    # Counting every rule in the map gave -2 and 0 here.
    with pytest.raises(GrammarStructureError, match="p1 has an empty rhs"):
        pai(parse_grammar("p0 -> 1; p1 ->; p2 ->"))
    with pytest.raises(UnknownRuleError):
        pai(Grammar({}))


def test_to_intervals():
    assert to_intervals([2, 11, 7]) == (9, -4)
    assert to_intervals([4, 4, 4]) == (0, 0)
    assert to_intervals(PITCH16) == (9, -4, -3, 0, 3, -3, 0, -2,
                                     9, -4, -3, 0, 3, -3, 0)
    with pytest.raises(TuneTooShortError):
        to_intervals([3])


@given(tunes.filter(lambda t: len(t) >= 2))
def test_to_intervals_reconstructs(t):
    iv = to_intervals(t)
    assert len(iv) == len(t) - 1
    acc = t[0]
    rebuilt = [acc]
    for d in iv:
        acc += d
        rebuilt.append(acc)
    assert rebuilt == t


@given(tunes)
@settings(max_examples=200, deadline=None)
def test_round_trip_and_canonicality(t):
    g = induce(t)
    assert expand(g) == tuple(t)
    assert not validate_grammar(g), validate_grammar(g)
    assert not canonical_violations(g), canonical_violations(g)


@given(tunes, st.lists(st.integers(-2**70, 2**70), min_size=24,
                       max_size=24, unique=True))
@settings(max_examples=200, deadline=None)
def test_induction_commutes_with_relabelling(t, labels):
    # Induction only compares notes for equality: relabelling them
    # one-to-one, into negatives and ints past 2**64 too, relabels the
    # grammar's terminals and changes nothing else.
    relabelled = {
        rid: tuple(Terminal(labels[s.value]) if isinstance(s, Terminal)
                   else s for s in rhs)
        for rid, rhs in induce(t).rhs.items()}
    got = induce([labels[v] for v in t]).rhs
    assert list(got.items()) == list(relabelled.items())


@given(tunes)
@settings(max_examples=100, deadline=None)
def test_induction_is_deterministic(t):
    assert render_grammar(induce(t)) == render_grammar(induce(t))


@given(tunes)
@settings(max_examples=200, deadline=None)
def test_pai_bounds(t):
    p = pai(induce(t))
    assert 0 <= p <= len(t) - 1


def test_pai_is_length_minus_one_without_repeats():
    t = list(range(40))  # strictly increasing: every digram unique
    assert pai(induce(t)) == len(t) - 1


REGRESSION_TUNES = [
    # runs of one symbol around the overlap rule
    [4] * 2, [4] * 3, [4] * 4, [4] * 5, [4] * 9, [4] * 17,
    # period-2 and period-3 with seams
    [0, 1] * 8, [0, 1] * 8 + [0], [0, 1, 2] * 6, [0, 1, 2] * 6 + [0, 1],
    # nested reuse: the inner pair also appears alone
    [0, 1, 0, 1, 2, 0, 1, 0, 1, 2, 3],
    # rule-utility churn: a rule forms, then its last use disappears
    # into a bigger rule and it must be inlined
    [0, 0, 1, 0, 0, 1, 2, 0, 0, 1, 0, 0, 1, 2],
    [1, 1, 1, 2, 1, 1, 1, 2, 1, 1],
    [0, 1, 1, 1, 0, 1, 1, 1, 0],
    # repeated digram created by a substitution, not by fresh input
    [5, 3, 5, 3, 3, 5, 3, 5],
    [2, 2, 3, 2, 2, 2, 3, 2],
]


@pytest.mark.parametrize("t", REGRESSION_TUNES, ids=lambda t: "".join(map(str, t))[:24])
def test_round_trip_regressions(t):
    g = induce(t)
    assert expand(g) == tuple(t)
    assert not violations(g)


def test_long_periodic_stress():
    rnd = random.Random(7)
    for period in (2, 3, 4, 5, 7, 11):
        motif = [rnd.randrange(4) for _ in range(period)]
        for reps in (2, 3, 8, 31):
            for extra in (0, 1, period - 1):
                t = (motif * reps) + motif[:extra]
                g = induce(t)
                assert expand(g) == tuple(t)
                assert not violations(g), (motif, reps, extra)


def _digest_corpus(mini_corpus):
    """Tunes whose induced grammars are pinned by digest: random tunes
    of 1-1,000 notes over 1-24 symbols (some shifted negative, some
    scaled by +-10**20), the regression tunes, and the mini corpus in
    pitch and interval encoding."""
    rnd = random.Random(9)
    out = []
    for i in range(400):
        n = rnd.randint(1, 1000 if i % 4 == 0 else 120)
        k = rnd.randint(1, 24)
        shift = -rnd.randrange(k) if i % 3 == 1 else 0
        scale = (1, 1, 10**20, -10**20)[i % 4] if i % 5 == 2 else 1
        out.append([(rnd.randrange(k) + shift) * scale for _ in range(n)])
    out += REGRESSION_TUNES
    for ct in mini_corpus:
        out += [ct.tune, to_intervals(ct.tune)]
    return out


# sha256 over render_grammar(induce(t)) for every tune of _digest_corpus,
# one grammar after another.  Induction must give these exact grammars,
# rule numbering included, not merely equivalent ones.
INDUCED_GRAMMARS_DIGEST = (
    "d4bf2eb6aa37490fa2cfad788604346ae95dff5796012cd22400436f657f8e9f")


def test_induced_grammars_match_recorded_digest(mini_corpus):
    h = hashlib.sha256()
    for t in _digest_corpus(mini_corpus):
        h.update(render_grammar(induce(t)).encode())
        h.update(b"\n")
    assert h.hexdigest() == INDUCED_GRAMMARS_DIGEST


# sha256 over render_grammar(induce(t)) for every tune over 2 symbols of
# 1-13 notes and over 3 symbols of 1-8 notes (26,222 tunes), lengths in
# turn, each in itertools.product order, one grammar after another.
SMALL_TUNES_DIGEST = (
    "f653ffbb0ac78891d42f3661a750d13f50a416256a23ef2c9dde0a99880ba707")


def test_every_small_tune_round_trips_in_canonical_form():
    h = hashlib.sha256()
    for k, longest in ((2, 13), (3, 8)):
        for n in range(1, longest + 1):
            for t in itertools.product(range(k), repeat=n):
                g = induce(t)
                assert expand(g) == t and not violations(g), t
                h.update(render_grammar(g).encode())
                h.update(b"\n")
    assert h.hexdigest() == SMALL_TUNES_DIGEST


def test_every_tune_over_four_symbols_round_trips_in_canonical_form():
    # 21,844 tunes of 1-7 notes.  Rule utility rests on only the first
    # symbol of a made or reused rule ever falling to one use, and on
    # that use following its body's guard; a break in either shows here
    # as an underused rule or a lost note.
    for n in range(1, 8):
        for t in itertools.product(range(4), repeat=n):
            g = induce(t)
            assert expand(g) == t and not violations(g), t


# Tune generators copied from tunebench/workloads.py, so that this pin
# does not move if the benchmark's corpora change.
_SCALE = (0, 2, 4, 5, 7, 9, 11, 12, 14, 16, 17, 19)


def _long_strophic(rng, n):
    phrases = [[rng.choice(_SCALE) + 48 for _ in range(rng.randint(6, 10))]
               for _ in range(8)]
    sections = [[rng.randrange(len(phrases)) for _ in range(rng.randint(4, 8))]
                for _ in range(5)]
    notes = []
    while len(notes) < n:
        for p in rng.choice(sections):
            phrase = list(phrases[p])
            if rng.random() < 0.1:
                phrase[rng.randrange(len(phrase))] = rng.choice(_SCALE) + 48
            notes.extend(phrase)
    return tuple(notes[:n])


def _random_walk(rng, n):
    steps = [s for s in range(-7, 8) if s]
    pitch = 60
    notes = []
    for _ in range(n):
        pitch = min(96, max(24, pitch + rng.choice(steps)))
        notes.append(pitch)
    return tuple(notes)


# sha256 over render_grammar(induce(t)) for two strophic and two
# random-walk tunes of 5,000 notes (random.Random(11)), each followed by
# its interval encoding.  _digest_corpus stops at 1,000 notes; these
# grammars nest deeper and run longer substitution cascades.
LONG_TUNES_DIGEST = (
    "1ab9441e28ce42a7e95af75dcddc0c205a6a0de0ce0c256448f4587d79d773d8")


def test_induced_grammars_of_long_tunes_match_recorded_digest():
    rng = random.Random(11)
    h = hashlib.sha256()
    for make in (_long_strophic, _long_strophic, _random_walk, _random_walk):
        t = make(rng, 5000)
        for u in (t, to_intervals(t)):
            h.update(render_grammar(induce(u)).encode())
            h.update(b"\n")
    assert h.hexdigest() == LONG_TUNES_DIGEST


def _thue_morse(n):
    return tuple(bin(i).count("1") % 2 for i in range(n))


def _fibonacci_word(n):
    a, b = (0,), (0, 1)
    while len(b) < n:
        a, b = b, b + a
    return b[:n]


def _rule_heavy_tunes():
    """Tunes that make the most rules per note: Thue-Morse and the
    Fibonacci word at 4,096 notes, one repeated note, and random binary
    tunes of up to 400 notes."""
    rnd = random.Random(26)
    out = [_thue_morse(4096), _fibonacci_word(4096), (3,) * 4096]
    for _ in range(300):
        out.append(tuple(rnd.randrange(2)
                         for _ in range(rnd.randint(1, 400))))
    return out


# sha256 over render_grammar(induce(t)) for every tune of
# _rule_heavy_tunes, one grammar after another, recorded before symbols
# were coded densely.  These tunes hold the most rules per note, so they
# probe the bound on symbol codes that the digram keys rely on.
RULE_HEAVY_DIGEST = (
    "c42448e4c2f42bef633b7545149314c1f05eec3e17926b9cc7ec0be8023d02f3")


def test_induced_grammars_of_rule_heavy_tunes_match_recorded_digest():
    h = hashlib.sha256()
    for t in _rule_heavy_tunes():
        g = induce(t)
        assert expand(g) == t and not violations(g), t
        h.update(render_grammar(g).encode())
        h.update(b"\n")
    assert h.hexdigest() == RULE_HEAVY_DIGEST


def test_induce_leaves_no_garbage_cycles():
    # Whatever induction builds on the way must be freed by reference
    # counting alone, or it lives on until a full collection.
    rnd = random.Random(5)
    t = [rnd.randrange(12) for _ in range(3000)]
    gc.collect()
    gc.disable()
    try:
        induce(t)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_induce_peak_memory():
    # A use count per rule, not a set of use nodes: on the walk the
    # sets took induce's peak from about 12.5 to 16.3 MiB.  All-distinct
    # notes make the note -> code map as large as the tune; keeping it,
    # or the digram index, while the grammar is built shows here.
    rows = ((_random_walk(random.Random(1), 100_000), 14),
            (tuple(range(80_000)), 15))
    for t, mib in rows:
        tracemalloc.start()
        try:
            induce(t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < mib * 2**20, (len(t), peak / 2**20)


@pytest.mark.xfail(
    strict=True,
    reason="online digram replacement does not give a 2-join bound for "
    "doubled strings: the seam can force a different rule decomposition "
    "on the second copy (about a quarter of random tunes exceed it)")
def test_doubling_adds_at_most_two_joins():
    rnd = random.Random(12)
    for _ in range(300):
        n = rnd.randint(2, 60)
        k = rnd.randint(1, 8)
        t = [rnd.randrange(k) for _ in range(n)]
        assert pai(induce(t + t)) <= pai(induce(t)) + 2, t
