"""Mutation operators: targets, applicability, randomness, long draws."""

import hashlib
import itertools
import pickle
import random
import struct
import time
import tracemalloc

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import tunegram.mutation as mutation_module
from tunegram.model import (
    ROOT_ID,
    Grammar,
    MutationKind,
    NoteAlphabet,
    RuleRef,
    Terminal,
    TunegramError,
    parse_grammar,
    render_grammar,
    validate_grammar,
)
from tunegram.mutation import (
    InapplicableMutationError,
    MutationTargetError,
    NoApplicableMutationError,
    RandomSource,
    applicable,
    apply_mutation,
    derive_seed,
    random_mutation,
)
from tunegram.pipeline import RunConfig, run
from tunegram.sequitur import expand, induce
from tunes import HORNPIPE


def alpha(g):
    return NoteAlphabet.from_tune(expand(g))


def forced(g, kind, t):
    """The mutation of ``g`` on the named target ``t``, which must fit:
    apply_mutation's own last step, without the draws."""
    kind = MutationKind(kind)
    assert mutation_module._fits(kind, g, t), (kind, t)
    return mutation_module._outcome(kind, g, t, 1)


def _targets(kind, g: Grammar):
    """Every target tuple the kind's random draw could produce, lazily,
    for every kind but 7 and 18, whose spaces hold every alphabet note
    or every body.

    Shapes are :func:`~tunegram.mutation._edit`'s; of the symmetric
    pairs (kinds 5, 6, 11, 12 and 17) one order is listed.  Targets are filtered only for the
    cheap local conditions the draw itself enforces (the rhs that would
    be emptied, the partner that must exist); whether the edit would
    close a reference cycle is ``_fits``'s question.
    """
    rules, ids = g.rhs, g.ids
    k = int(kind)
    _run = mutation_module._run
    if 2 <= k <= 6 or 8 <= k <= 12:
        occs = g.occurrences[RuleRef if k <= 6 else Terminal]
    if k == 1:
        yield from ((r, h, ix) for r in ids if r != ROOT_ID for h in ids
                    for ix in range(len(rules[h]) + 1))
    elif k in (2, 8):
        yield from ((h, i) for h, i in occs if len(rules[h]) > 1)
    elif k in (3, 9):
        yield from ((h, i, j) for h, i in occs
                    for j in range(len(rules[h])) if j != i)
    elif k in (4, 10):
        yield from ((h, i, other, ix) for h, i in occs if len(rules[h]) > 1
                    for other in ids if other != h
                    for ix in range(len(rules[other]) + 1))
    elif k in (5, 11):  # a host's later occurrences follow it directly
        yield from ((h, i, j) for n, (h, i) in enumerate(occs)
                    for _, j in occs[n + 1:_run(occs, h)[1]])
    elif k in (6, 12):
        yield from ((h1, i1, h2, i2) for n, (h1, i1) in enumerate(occs)
                    for h2, i2 in occs[n + 1:] if h2 != h1)
    elif k == 13:
        terms = g.occurrences[Terminal]
        yield from ((h, i, j) for h, i in g.occurrences[RuleRef]
                    for _, j in terms[slice(*_run(terms, h))])
    elif k == 14:
        terms = g.occurrences[Terminal]
        yield from ((h1, i, h2, j) for h1, i in g.occurrences[RuleRef]
                    for h2, j in terms if h1 != h2)
    elif k == 15:
        yield from ((h,) for h in ids)
    elif k == 16:
        yield from ((h, s, ln) for h in ids if len(rules[h]) >= 3
                    for ln in range(2, len(rules[h]))
                    for s in range(len(rules[h]) - ln + 1))
    elif k == 17:
        yield from ((a, b) for n, a in enumerate(ids) for b in ids[n + 1:])
    elif k == 19:
        yield from ((r,) for r in ids if r != ROOT_ID)


@pytest.fixture
def crafted():
    """Three rules, references only in the root, notes everywhere."""
    return parse_grammar("p0 -> p1 1 p2 p1 p2 2; p1 -> 3 4; p2 -> 5 6")


# ---------------------------------------------------------------------------
# RandomSource and seed derivation


def test_random_source_is_deterministic():
    a = RandomSource(1234)
    b = RandomSource(1234)
    assert [a.below(100) for _ in range(5)] == [99, 56, 14, 0, 11]
    assert [b.below(100) for _ in range(5)] == [99, 56, 14, 0, 11]


def test_random_source_bounds():
    r = RandomSource(0)
    assert all(0 <= r.below(7) < 7 for _ in range(200))
    assert all(3 <= r.between(3, 5) <= 5 for _ in range(200))
    assert r.below(1) == 0
    with pytest.raises(ValueError):
        r.below(0)


def test_random_source_seed_range():
    r = RandomSource(0)
    RandomSource(2**64 - 1)
    r.reseed(2**64 - 1)
    r.reseed(0)
    for bad, error in ((-1, ValueError), (2**64, ValueError),
                       (1.5, TypeError), (True, TypeError)):
        with pytest.raises(error, match="64 unsigned bits|must be an int"):
            RandomSource(bad)
        with pytest.raises(error, match="64 unsigned bits|must be an int"):
            r.reseed(bad)
    assert r.seed == 0  # a refused seed leaves the source as it was


def test_reseed_restarts_the_stream_as_a_new_source():
    def draws(src):
        return [src.below(1000), src.between(2, 8), src.choose("abcdefg"),
                src.below(2**70), src.between(-5, 5), src.choose(range(50))]

    r = RandomSource(7)
    for s in (7, 0, 1234, derive_seed(3, 15), 2**64 - 1):
        draws(r)  # part of the way into the current stream
        r.reseed(s)
        assert r.seed == s
        assert draws(r) == draws(RandomSource(s))


def test_random_source_choose():
    r = RandomSource(1234)
    picks = [r.choose("abcd") for _ in range(50)]
    assert set(picks) == set("abcd")


def test_derive_seed_frozen_values():
    assert derive_seed(789, 10, 2) == 13200547402772272869
    assert derive_seed(404, 0, 0, 18) == 4161420240919409210


def test_derive_seed_is_hashlib_blake2b():
    for parts in [(), (0,), (789, 10, 2), (404, 0, 0, 18), (-1, 2**64 + 3)]:
        h = hashlib.blake2b(digest_size=8)
        for part in parts:
            h.update(struct.pack(">Q", part % 2**64))
        assert derive_seed(*parts) == int.from_bytes(h.digest(), "big")


def test_derive_seed_is_order_sensitive_and_in_range():
    assert derive_seed(1, 2) != derive_seed(2, 1)
    seeds = {derive_seed(7, i, j) for i in range(20) for j in range(20)}
    assert len(seeds) == 400
    assert all(0 <= s < 2**64 for s in seeds)


def test_derive_seed_feeds_random_source():
    RandomSource(derive_seed(789, 10, 2))  # must not raise


# ---------------------------------------------------------------------------
# named targets: one golden outcome per kind


GOLDEN = [
    (1, (2, 1, 1),
     "p0 -> p1 1 p2 p1 p2 2\np1 -> 3 p2 4\np2 -> 5 6\n", (1,)),
    (2, (0, 3),
     "p0 -> p1 1 p2 p2 2\np1 -> 3 4\np2 -> 5 6\n", (0,)),
    (3, (0, 0, 5),
     "p0 -> 1 p2 p1 p2 2 p1\np1 -> 3 4\np2 -> 5 6\n", (0,)),
    (4, (0, 2, 1, 0),
     "p0 -> p1 1 p1 p2 2\np1 -> p2 3 4\np2 -> 5 6\n", (0, 1)),
    (5, (0, 0, 2),
     "p0 -> p2 1 p1 p1 p2 2\np1 -> 3 4\np2 -> 5 6\n", (0,)),
    (7, (2, 1, 4),
     "p0 -> p1 1 p2 p1 p2 2\np1 -> 3 4\np2 -> 5 4 6\n", (2,)),
    (8, (1, 0),
     "p0 -> p1 1 p2 p1 p2 2\np1 -> 4\np2 -> 5 6\n", (1,)),
    (9, (0, 1, 5),
     "p0 -> p1 p2 p1 p2 2 1\np1 -> 3 4\np2 -> 5 6\n", (0,)),
    (10, (1, 0, 2, 2),
     "p0 -> p1 1 p2 p1 p2 2\np1 -> 4\np2 -> 5 6 3\n", (1, 2)),
    (11, (1, 0, 1),
     "p0 -> p1 1 p2 p1 p2 2\np1 -> 4 3\np2 -> 5 6\n", (1,)),
    (12, (1, 0, 2, 1),
     "p0 -> p1 1 p2 p1 p2 2\np1 -> 6 4\np2 -> 5 3\n", (1, 2)),
    (13, (0, 0, 1),
     "p0 -> 1 p1 p2 p1 p2 2\np1 -> 3 4\np2 -> 5 6\n", (0,)),
    (14, (0, 2, 1, 1),
     "p0 -> p1 1 4 p1 p2 2\np1 -> 3 p2\np2 -> 5 6\n", (0, 1)),
    (15, (0,),
     "p0 -> 2 p2 p1 p2 1 p1\np1 -> 3 4\np2 -> 5 6\n", (0,)),
    (16, (0, 1, 3),
     "p0 -> p1 p1 p2 1 p2 2\np1 -> 3 4\np2 -> 5 6\n", (0,)),
    (17, (1, 2),
     "p0 -> p1 1 p2 p1 p2 2\np1 -> 5 6\np2 -> 3 4\n", (1, 2)),
    (18, (0, 6, (Terminal(1), RuleRef(1))),
     "p0 -> p1 1 p2 p1 p2 2 p3\np1 -> 3 4\np2 -> 5 6\np3 -> 1 p1\n", (3, 0)),
    (19, (2,),
     "p0 -> p1 1 p1 2\np1 -> 3 4\n", (0, 2)),
]


@pytest.mark.parametrize("kind,targets,expected,touched", GOLDEN,
                         ids=[str(row[0]) for row in GOLDEN])
def test_forced_targets_golden(crafted, kind, targets, expected, touched):
    out = forced(crafted, kind, targets)
    assert render_grammar(out.grammar) == expected
    assert out.touched == touched
    assert out.kind is MutationKind(kind)
    assert not validate_grammar(out.grammar)


def test_forced_swap_refs_across():
    g = parse_grammar("p0 -> p1 p2 7; p1 -> 1 2; p2 -> p3 5; p3 -> 8 9")
    out = forced(g, 6, (0, 0, 2, 0))
    assert render_grammar(out.grammar) == \
        "p0 -> p3 p2 7\np1 -> 1 2\np2 -> p1 5\np3 -> 8 9\n"
    assert out.touched == (0, 2)


def test_reverse_rule_is_an_involution():
    g = parse_grammar("p0 -> p1 p1 3; p1 -> 1 2")
    once = forced(g, 15, (0,)).grammar
    assert expand(once) == (3, 1, 2, 1, 2)
    twice = forced(once, 15, (0,)).grammar
    assert twice == g


def test_remove_note_between_repeated_refs():
    g = parse_grammar("p0 -> p1 5 p1; p1 -> 1 2")
    out = forced(g, 8, (0, 1))
    assert render_grammar(out.grammar) == "p0 -> p1 p1\np1 -> 1 2\n"
    assert expand(out.grammar) == (1, 2, 1, 2)


def test_swap_definitions_moves_whole_phrases():
    g = parse_grammar("p0 -> 1 p1 2 p2 3; p1 -> 7 8; p2 -> 9 9")
    out = forced(g, 17, (1, 2))
    assert expand(out.grammar) == (1, 9, 9, 2, 7, 8, 3)


def test_remove_rule_cascades_through_emptied_hosts():
    g = parse_grammar("p0 -> p1 1; p1 -> p2 p2; p2 -> 3")
    out = forced(g, 19, (2,))
    assert render_grammar(out.grammar) == "p0 -> 1\n"
    assert out.touched == (0, 1, 2)


def test_add_rule_drawn_body_shape(crafted):
    out = apply_mutation(crafted, 18, alpha(crafted), RandomSource(41))
    new_id = max(out.grammar.rhs)
    assert new_id == 3
    body = out.grammar.rhs[new_id]
    assert 2 <= len(body) <= 8
    for sym in body:
        if isinstance(sym, RuleRef):
            assert sym.rule_id in (1, 2)
        else:
            assert sym.value in alpha(crafted).notes
    assert out.touched[0] == new_id
    refs_to_new = sum(
        1 for rhs in out.grammar.rhs.values() for s in rhs
        if isinstance(s, RuleRef) and s.rule_id == new_id)
    assert refs_to_new == 1


# named targets that do not fit: the edit would close a cycle or take
# out the root


def test_forced_targets_self_reference(crafted):
    assert not mutation_module._fits(MutationKind.ADD_RULE_REF, crafted,
                                     (1, 1, 0))


def test_forced_targets_root_removal(crafted):
    assert not mutation_module._fits(MutationKind.REMOVE_RULE, crafted, (0,))


def test_definition_swap_with_root_always_cycles():
    g = induce(HORNPIPE)
    for other in sorted(g.rhs)[1:]:
        assert not mutation_module._fits(MutationKind.SWAP_DEFINITIONS, g,
                                         (0, other))


# ---------------------------------------------------------------------------
# applicability


def test_applicable_single_note_grammar():
    g = parse_grammar("p0 -> 1")
    yes = {int(k) for k in MutationKind if applicable(g, k)}
    assert yes == {7, 15, 18}


def test_applicable_single_ref_chain():
    g = parse_grammar("p0 -> p1; p1 -> 2")
    yes = {int(k) for k in MutationKind if applicable(g, k)}
    # adding a second reference to p1 is fine; everything that would
    # empty a rule, needs two occurrences, or forces a cycle is not
    assert yes == {1, 7, 15, 18}


def test_applicable_flat_grammar():
    g = parse_grammar("p0 -> 1 2 3")
    yes = {int(k) for k in MutationKind if applicable(g, k)}
    assert yes == {7, 8, 9, 11, 15, 16, 18}


def test_applicable_crafted(crafted):
    yes = {int(k) for k in MutationKind if applicable(crafted, k)}
    # kind 6 needs references hosted in two different rules
    assert yes == set(range(1, 20)) - {6}


def _deep_chain(depth):
    """p0 -> p1 0 p1 0; p_i -> p_{i+1} i; p_depth -> depth depth+1."""
    rhs = {0: [RuleRef(1), Terminal(0), RuleRef(1), Terminal(0)]}
    for i in range(1, depth):
        rhs[i] = [RuleRef(i + 1), Terminal(i)]
    rhs[depth] = [Terminal(depth), Terminal(depth + 1)]
    return Grammar(rhs)


def test_applicable_on_deep_rule_chain():
    # The reachability walk used to recurse once per level and raise
    # RecursionError here for kinds 1, 4 and 14.  Held as one set per
    # rule, the reach of this chain peaked at 205 MiB; as one int mask
    # per rule it takes about a bit per pair of rules.
    g = _deep_chain(3000)
    g.walk
    tracemalloc.start()
    try:
        g.reach
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    for kind in (1, 4, 14):
        assert isinstance(applicable(g, kind), bool)
    # Every pair of rules is linked by reachability, so no definition
    # swap fits; counting reachable pairs answers without a pair scan.
    t0 = time.perf_counter()
    assert applicable(g, 17) is False
    assert time.perf_counter() - t0 < 0.5
    # No rule is referenced from two hosts, so every reference swap across
    # hosts adds a reference; counting, per referent, the references it
    # would reach answers without a pair scan too.
    t0 = time.perf_counter()
    assert applicable(g, 6) is False
    assert time.perf_counter() - t0 < 0.5


def test_rule_bits_take_linear_memory():
    # A root that references 10,000 two-note rules twice.  Storing
    # 1 << i for every rule, and each rule's own bit in its needs mask,
    # took R**2/16 bytes each: applicable peaked at 7.4 MiB for kinds 1
    # and 17 and at 13.9 MiB for kind 19.  Built where they are tested,
    # the bits leave about 0.4 MiB, mostly the reach and needs dicts.
    n = 10_000
    rhs = {0: [RuleRef(i) for i in range(1, n + 1)] * 2}
    for i in range(1, n + 1):
        rhs[i] = (Terminal(i % 12), Terminal(i * 7 % 12))
    for kind in (1, 17, 19):
        g = Grammar(rhs)
        g.walk
        tracemalloc.start()
        try:
            assert applicable(g, kind)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, (kind, peak)


def test_pair_kinds_on_deep_rule_chain_are_fast():
    # The same chain shape, 300 deep: every reference swap across rules
    # (kind 6) and every definition swap (kind 17) would close a cycle.
    # Trying each pair on a validated copy of the grammar took about a
    # minute per kind.
    g = _deep_chain(300)
    for kind in (6, 17):
        t0 = time.perf_counter()
        assert applicable(g, kind) is False
        assert time.perf_counter() - t0 < 2.0


def test_rule_removal_on_a_single_reference_chain_is_fast():
    # p0 -> p1, p1 -> p2, ..., p399 -> 5: removing any rule empties every
    # rule above it, the root too.  Purging the rules one at a time, each
    # with a scan of the whole grammar, took seconds per kind here.
    n = 400
    rhs = {i: [RuleRef(i + 1)] for i in range(n - 1)}
    rhs[n - 1] = [Terminal(5)]
    chain = Grammar(rhs)
    t0 = time.perf_counter()
    assert applicable(chain, MutationKind.REMOVE_RULE) is False
    assert time.perf_counter() - t0 < 0.5
    # A rule nothing refers to is the one rule that can go, and it goes
    # alone.
    g = Grammar({**rhs, n: [Terminal(6)]})
    assert applicable(g, MutationKind.REMOVE_RULE)
    out = apply_mutation(g, MutationKind.REMOVE_RULE, NoteAlphabet((5, 6)),
                         RandomSource(0))
    assert out.grammar == chain and out.touched == (n,)


def _removal_oracle(rhs, target):
    """Remove ``target``, then strip references to removed rules and
    remove the rules that leaves empty, until nothing changes: the rules
    left and the ids removed or edited, or None if the root goes."""
    rules = {i: list(r) for i, r in rhs.items()}
    removed, edited = {target}, set()
    while 0 not in removed:
        emptied = set()
        for x in removed:
            rules.pop(x, None)
        for h, r in rules.items():
            kept = [s for s in r if not (isinstance(s, RuleRef)
                                         and s.rule_id in removed)]
            if len(kept) < len(r):
                rules[h] = kept
                edited.add(h)
                if not kept:
                    emptied.add(h)
        if not emptied:
            return rules, tuple(sorted(removed | edited))
        removed |= emptied
    return None


def _patched(g, patch):
    """``g``'s rules with ``_edit``'s patch applied: rewritten rules
    replaced, new ones added, removed ones (None) dropped."""
    return {x: rhs for x, rhs in {**g.rhs, **patch}.items() if rhs is not None}


def _random_dag(rnd, most):
    """A grammar of 1 to ``most`` rules with shuffled ids, so that id
    order is not a walk order, with rules the root does not reach and a
    few empty rules.  Each rule refers only to rules placed after it in
    a random order of the ids."""
    ids = rnd.sample(range(12), rnd.randint(1, most))
    if 0 not in ids:
        ids[0] = 0
    rhs = {}
    for n, x in enumerate(ids):
        later = ids[n + 1:]
        size = rnd.randint(1, 3) if rnd.random() < 0.9 else 0
        rhs[x] = [RuleRef(rnd.choice(later)) if later and rnd.random() < 0.7
                  else Terminal(rnd.randrange(3)) for _ in range(size)]
    return Grammar(rhs)


def test_rule_removal_matches_a_fixpoint_oracle():
    rnd = random.Random(19)
    kind = MutationKind.REMOVE_RULE
    for _ in range(3000):
        g = _random_dag(rnd, 8)
        fits = []
        for r in g.rhs:
            if r == 0:
                continue
            want = _removal_oracle(g.rhs, r)
            fits.append(mutation_module._fits(kind, g, (r,)))
            assert fits[-1] == (want is not None), (r, render_grammar(g))
            if want is not None:
                patch = mutation_module._edit(kind, g, (r,))
                assert list(_patched(g, patch).items()) == [
                    (x, tuple(rhs)) for x, rhs in want[0].items()], r
                assert tuple(patch) == want[1], (r, render_grammar(g))
        assert applicable(g, kind) == any(fits)
        # every other kind's closed form against a scan of its targets
        for other in MutationKind:
            if other not in (kind, MutationKind.ADD_NOTE,
                             MutationKind.ADD_RULE):
                assert applicable(g, other) == any(
                    mutation_module._fits(other, g, t)
                    for t in _targets(other, g)), (other, render_grammar(g))


def test_fits_matches_operator_and_validation():
    # On small grammars from mutation chains without reparse, a target
    # fits iff its edit on a copy gives a grammar that validates, and a
    # kind is applicable iff one of its targets fits.  _targets does not
    # list kinds 7 and 18; they are checked on as many seeded draws as
    # they have insertion points (kind 7: times the notes).
    rnd = random.Random(2024)
    checked = 0
    for chain in range(12):
        tune = [rnd.randrange(4) for _ in range(rnd.randint(4, 24))]
        g = induce(tune)
        a = NoteAlphabet.from_tune(tune)
        rng = RandomSource(derive_seed(5, chain))
        for _ in range(8):
            g = random_mutation(g, a, rng, excluded=frozenset()).grammar
            gaps = sum(len(rhs) + 1 for rhs in g.rhs.values())
            for kind in MutationKind:
                fits = []
                if kind in (MutationKind.ADD_NOTE, MutationKind.ADD_RULE):
                    n = gaps * len(a.notes) if kind == MutationKind.ADD_NOTE else gaps
                    draws = RandomSource(checked)
                    space = [mutation_module._draw(kind, g, a, draws)
                             for _ in range(n)]
                else:
                    space = _targets(kind, g)
                for t in space:
                    patch = mutation_module._edit(kind, g, t)
                    valid = not validate_grammar(
                        Grammar(_patched(g, patch)))
                    fits.append(mutation_module._fits(kind, g, t))
                    assert fits[-1] == valid, (kind, t, render_grammar(g))
                    checked += 1
                assert applicable(g, kind) == any(fits), (kind, render_grammar(g))
    assert checked > 10_000


def test_a_mutation_shares_every_rule_it_does_not_touch(crafted,
                                                        mini_corpus):
    # Copy-on-write: every rule outside touched is the parent's very
    # tuple, and every rule id created or removed is in touched.
    grammars = [crafted] + [induce(ct.tune) for ct in mini_corpus[:4]]
    for n, g in enumerate(grammars):
        a = alpha(g)
        for kind in MutationKind:
            if not applicable(g, kind):
                continue
            for seed in range(3):
                out = apply_mutation(g, kind, a,
                                     RandomSource(derive_seed(n, kind, seed)))
                new, touched = out.grammar.rhs, set(out.touched)
                for r in (g.rhs.keys() & new.keys()) - touched:
                    assert new[r] is g.rhs[r], (kind, r, render_grammar(g))
                assert g.rhs.keys() ^ new.keys() <= touched, (kind, touched)


def test_mutated_grammars_are_never_walked(crafted, mini_corpus):
    # apply_mutation checks its input, not its result, and expand makes
    # its own pass, so neither computes the new grammar's walk.
    grammars = [crafted] + [induce(ct.tune) for ct in mini_corpus[:4]]
    for n, g in enumerate(grammars):
        a = alpha(g)
        for kind in MutationKind:
            if not applicable(g, kind):
                continue
            out = apply_mutation(g, kind, a,
                                 RandomSource(derive_seed(n, kind)))
            expand(out.grammar)
            assert "walk" not in out.grammar.__dict__, (kind, n)


def test_cached_views_neither_go_stale_nor_leak(mini_corpus):
    # Every view a grammar caches is read first; the answers and the
    # mutations must then match a fresh grammar of the same rules, which
    # owns fresh caches, and a pickled copy, which carries the old ones.
    grammars = [induce(ct.tune) for ct in mini_corpus]
    for n, kind in enumerate((1, 4, 6, 17, 18, 19)):
        grammars.append(apply_mutation(grammars[n], kind, alpha(grammars[n]),
                                       RandomSource(n)).grammar)
    for g in grammars:
        a = alpha(g)
        views = g.walk, g.reach, g.needs, g.occurrences
        answers = [applicable(g, kind) for kind in MutationKind]
        fresh = Grammar(g.rhs)
        assert fresh._applicable == {}
        for other in (fresh, pickle.loads(pickle.dumps(g))):
            assert (other.walk, other.reach, other.needs,
                    other.occurrences) == views
            assert [applicable(other, kind) for kind in MutationKind] \
                == answers
            for kind in MutationKind:
                if applicable(g, kind):
                    assert apply_mutation(other, kind, a, RandomSource(7)) \
                        == apply_mutation(g, kind, a, RandomSource(7))


def test_forced_symmetric_swaps_are_order_free():
    # Swapping a with b is swapping b with a: both orders of every target
    # give the same grammar, or both do not fit.
    for g in (induce(HORNPIPE), parse_grammar(
            "p0 -> p1 p2 7; p1 -> 1 2; p2 -> p3 5; p3 -> 8 9")):
        for kind in map(MutationKind, (5, 6, 11, 12, 17)):
            for t in _targets(kind, g):
                rev = (t[0], t[2], t[1]) if kind in (5, 11) else \
                    t[2:] + t[:2] if kind in (6, 12) else t[::-1]
                outs = [forced(g, kind, tt).grammar
                        if mutation_module._fits(kind, g, tt) else None
                        for tt in (t, rev)]
                assert outs[0] == outs[1], (kind, t)


@pytest.mark.parametrize("text", [
    "p0 -> p1 5; p1 -> 1 p2; p2 -> p1 3",     # cycle p1 -> p2 -> p1
    "p0 -> 1 p5 2 p1; p1 -> 3 4",             # dangling reference
    "p0 -> 1 p1; p1 ->",                      # empty rhs
    "",                                       # no rules at all
], ids=["cycle", "dangling", "empty-rhs", "empty-grammar"])
def test_invalid_input_raises_or_gives_a_valid_grammar(text):
    g = parse_grammar(text)
    a = NoteAlphabet((1, 2, 3, 4, 5))
    for kind in MutationKind:
        for seed in range(6):
            try:
                out = apply_mutation(g, kind, a, RandomSource(seed))
            except TunegramError:
                continue
            assert not validate_grammar(out.grammar)


def test_reverse_span_draw_unranks_the_span_list():
    # The draw unranks its index into the length-major list of (start,
    # length) spans, so it must pick what rng.choose on that list picks.
    a = NoteAlphabet((1,))
    for n in range(3, 41):
        g = Grammar({0: [Terminal(1)] * n})
        for seed in range(8):
            rng = RandomSource(seed)
            host = rng.choose([0])
            spans = [(s, ln) for ln in range(2, n) for s in range(n - ln + 1)]
            assert mutation_module._draw(
                MutationKind.REVERSE_SPAN, g, a, RandomSource(seed)) \
                == (host, *rng.choose(spans))


def test_reverse_span_on_a_long_flat_rule_is_fast():
    # The span list of a 3,000-symbol rule holds 4.5 million spans.
    g = Grammar({0: [Terminal(i % 12) for i in range(3000)]})
    t0 = time.perf_counter()
    out = apply_mutation(g, 16, alpha(g), RandomSource(1))
    assert time.perf_counter() - t0 < 0.1
    assert out.attempts == 1


@pytest.mark.parametrize("kind,valid", [
    (3, True),
    (MutationKind.MOVE_RULE_REF_WITHIN, True),
    (19, True),
    (0, False),
    (20, False),
    ("3", False),
])
def test_kind_argument_is_a_plain_int_or_a_member(crafted, kind, valid):
    alphabet = alpha(crafted)
    warm = parse_grammar(render_grammar(crafted))
    for k in MutationKind:  # every member's answer is kept before asking
        applicable(warm, k)
    for g in (crafted, warm):
        if not valid:
            with pytest.raises(ValueError):
                applicable(g, kind)
            with pytest.raises(ValueError):
                apply_mutation(g, kind, alphabet, RandomSource(0))
            continue
        member = MutationKind(kind)
        assert applicable(g, kind) is applicable(g, member) is True
        out = apply_mutation(g, kind, alphabet, RandomSource(5))
        assert type(out.kind) is MutationKind and out.kind == member
        same = apply_mutation(g, member, alphabet, RandomSource(5))
        assert render_grammar(out.grammar) == render_grammar(same.grammar)
        assert out.touched == same.touched


def test_apply_raises_when_inapplicable():
    g = parse_grammar("p0 -> 1")
    with pytest.raises(InapplicableMutationError):
        apply_mutation(g, 19, NoteAlphabet((1,)), RandomSource(0))


def test_applicable_matches_brute_force_on_corpus(mini_corpus):
    # claimed applicability must agree with "does some target
    # succeed" on real induced grammars
    for ct in mini_corpus[:3]:
        g = induce(ct.tune)
        a = NoteAlphabet.from_tune(ct.tune)
        for kind in MutationKind:
            ok = applicable(g, kind)
            if ok:
                out = apply_mutation(g, kind, a, RandomSource(7))
                assert not validate_grammar(out.grammar)


# ---------------------------------------------------------------------------
# random application


def test_random_mutation_is_deterministic(crafted):
    a = alpha(crafted)
    r1 = random_mutation(crafted, a, RandomSource(424242))
    r2 = random_mutation(crafted, a, RandomSource(424242))
    assert r1.kind is r2.kind
    assert r1.grammar == r2.grammar
    r3 = random_mutation(crafted, a, RandomSource(424243))
    assert (r3.kind, r3.grammar) != (r1.kind, r1.grammar)


def test_random_mutation_respects_exclusion(crafted):
    only_reverse = frozenset(MutationKind) - {MutationKind.REVERSE_RULE}
    for seed in range(12):
        out = random_mutation(crafted, alpha(crafted), RandomSource(seed),
                              excluded=only_reverse)
        assert out.kind is MutationKind.REVERSE_RULE


def test_random_mutation_default_excludes_new_rules(crafted):
    seen = set()
    for seed in range(120):
        out = random_mutation(crafted, alpha(crafted), RandomSource(seed))
        seen.add(int(out.kind))
    assert 18 not in seen
    assert len(seen) > 10


def test_random_mutation_no_applicable_kind():
    g = parse_grammar("p0 -> 1")
    with pytest.raises(NoApplicableMutationError):
        random_mutation(g, NoteAlphabet((1,)), RandomSource(0),
                        excluded=frozenset({MutationKind.ADD_NOTE,
                                            MutationKind.REVERSE_RULE,
                                            MutationKind.ADD_RULE}))


def test_random_mutation_cannot_exclude_everything(crafted):
    with pytest.raises(ValueError):
        random_mutation(crafted, alpha(crafted), RandomSource(0),
                        excluded=frozenset(MutationKind))


tune_strategy = st.lists(st.integers(0, 11), min_size=2, max_size=64)


@given(tune_strategy, st.integers(0, 2**32))
@settings(max_examples=150, deadline=None)
def test_random_mutation_structural_safety(tune, seed):
    g = induce(tune)
    a = NoteAlphabet.from_tune(tune)
    out = random_mutation(g, a, RandomSource(seed), excluded=frozenset())
    assert not validate_grammar(out.grammar)
    result = expand(out.grammar)
    assert len(result) >= 1
    assert set(result) <= set(a.notes)


def test_mutation_chain_stays_structural(mini_corpus):
    tune = mini_corpus[0].tune
    a = NoteAlphabet.from_tune(tune)
    g = induce(tune)
    rng = RandomSource(2024)
    for _ in range(40):
        out = random_mutation(g, a, rng)
        assert not validate_grammar(out.grammar)
        assert set(expand(out.grammar)) <= set(a.notes)
        g = induce(expand(out.grammar))


def test_mutated_grammars_keep_their_rules_in_id_order(mini_corpus):
    # A draw ranks rules in rhs order, so outputs depend on that order;
    # kind 18 adds a rule and kind 19 removes rules, and neither may
    # leave the rhs map out of id order.
    kinds = set()
    for ci, ct in enumerate(mini_corpus[:5]):
        a = NoteAlphabet.from_tune(ct.tune)
        g = induce(ct.tune)
        rng = RandomSource(derive_seed(17, ci))
        for _ in range(40):
            out = random_mutation(g, a, rng, excluded=frozenset())
            g = out.grammar
            kinds.add(out.kind)
            assert list(g.rhs) == sorted(g.rhs)
    assert {MutationKind.ADD_RULE, MutationKind.REMOVE_RULE} <= kinds


# ---------------------------------------------------------------------------
# draws past MAX_ATTEMPTS


def test_draws_go_on_past_max_attempts(mini_corpus, monkeypatch):
    # with MAX_ATTEMPTS at a single draw, many applications must go on
    # drawing past it; none may fail
    monkeypatch.setattr(mutation_module, "MAX_ATTEMPTS", 1)
    for ci, ct in enumerate(mini_corpus[:4]):
        g = induce(ct.tune)
        a = NoteAlphabet.from_tune(ct.tune)
        for kind in MutationKind:
            if not applicable(g, kind):
                continue
            out = apply_mutation(g, kind, a,
                                 RandomSource(derive_seed(31, ci, int(kind))))
            assert not validate_grammar(out.grammar)
            assert len(expand(out.grammar)) >= 1


def _free_rule_chain(n):
    """p0 -> p1 pR; p_i -> p_{i+1} 5; p_{n-2} -> 5 6; pR -> 5 6, with
    R = n - 1: every rule but pR reaches or is reached by every other
    rule of the chain, so the only definition swaps that fit pair pR
    with a rule p1 ... p_{n-2}, about 2 in n of the draws."""
    rhs = {0: [RuleRef(1), RuleRef(n - 1)]}
    for i in range(1, n - 2):
        rhs[i] = [RuleRef(i + 1), Terminal(5)]
    rhs[n - 2] = rhs[n - 1] = [Terminal(5), Terminal(6)]
    return Grammar(rhs)


def _random_tune_grammar(n):
    rnd = random.Random(0)
    tune = [rnd.randrange(12) for _ in range(n)]
    return induce(tune), NoteAlphabet.from_tune(tune)


def test_reverse_span_on_a_long_random_tune_is_fast():
    # Only the root of its 384 rules holds 3+ symbols, so most draws
    # miss.  Listing every span of every rule once 100 draws had missed
    # took about 3 s.
    g, a = _random_tune_grammar(5000)
    t0 = time.perf_counter()
    out = apply_mutation(g, MutationKind.REVERSE_SPAN, a, RandomSource(16))
    assert time.perf_counter() - t0 < 0.1
    assert out.attempts > mutation_module.MAX_ATTEMPTS


def test_definition_swap_with_few_fitting_pairs_is_fast():
    # Listing all 2 million pairs of rules once 100 draws had missed
    # took about 2 s.
    g = _free_rule_chain(2000)
    t0 = time.perf_counter()
    out = apply_mutation(g, MutationKind.SWAP_DEFINITIONS,
                         NoteAlphabet((5, 6)), RandomSource(17))
    assert time.perf_counter() - t0 < 0.5
    assert 1999 in out.touched


@pytest.mark.parametrize("case", ["reverse-span", "definition-swap"])
def test_draws_past_max_attempts_keep_the_draw_distribution(case):
    # The target is the first drawn one that fits, however many draws
    # that takes: replaying the draws on a twin source finds it.
    if case == "reverse-span":
        (g, a), kind, seed = _random_tune_grammar(2000), 16, 16
    else:
        g, a, kind, seed = _free_rule_chain(200), NoteAlphabet((5, 6)), 17, 0
    out = apply_mutation(g, kind, a, RandomSource(seed))
    assert out.attempts > mutation_module.MAX_ATTEMPTS
    twin = RandomSource(seed)
    for n in itertools.count(1):
        t = mutation_module._draw(kind, g, a, twin)
        if t is not None and mutation_module._fits(kind, g, t):
            break
    assert n == out.attempts
    assert mutation_module._outcome(MutationKind(kind), g, t, n) == out


def test_draws_reach_every_listed_target():
    # Drawing until a target fits ends on valid input because a draw can
    # give every target that _targets lists (the symmetric kinds in
    # either order), and nothing else.
    # The last grammar's root holds only references, so kinds 13 and 14
    # meet a host with no notes.
    for g in (parse_grammar("p0 -> p1 1 p2 p1 p2 2; p1 -> 3 4; p2 -> 5 6"),
              parse_grammar("p0 -> p1 p2 7; p1 -> 1 2; p2 -> p3 5; "
                            "p3 -> 8 9 8"),
              parse_grammar("p0 -> p1 p2 p1; p1 -> 1 2; p2 -> p1 3")):
        a, rng = alpha(g), RandomSource(3)
        for kind in MutationKind:
            if kind in (MutationKind.ADD_NOTE, MutationKind.ADD_RULE):
                continue
            want, seen = set(_targets(kind, g)), set()
            for _ in range(40 * len(want)):
                t = mutation_module._draw(kind, g, a, rng)
                if t is None:
                    continue
                if kind in (5, 11):
                    t = (t[0], *sorted(t[1:]))
                elif kind in (6, 12, 17):
                    n = len(t) // 2
                    t = sum(sorted((t[:n], t[n:])), ())
                seen.add(t)
            assert seen == want, kind


def test_invalid_input_is_refused_before_any_draw():
    # p0 is empty.  Seed 0's first draw puts p1 into p1 itself and
    # misses; putting it into p0 would fit, and even repair the input.
    # The input is checked once, right after the applicability check,
    # and refused before any draw, so the source is left untouched.
    g = parse_grammar("p0 -> ; p1 -> 1")
    a = NoteAlphabet((1,))
    assert applicable(g, MutationKind.ADD_RULE_REF)
    t = mutation_module._draw(MutationKind.ADD_RULE_REF, g, a, RandomSource(0))
    assert not mutation_module._fits(MutationKind.ADD_RULE_REF, g, t)
    assert mutation_module._fits(MutationKind.ADD_RULE_REF, g, (1, 0, 0))
    rng = RandomSource(0)
    with pytest.raises(MutationTargetError, match="not structurally valid"):
        apply_mutation(g, MutationKind.ADD_RULE_REF, a, rng)
    assert rng.below(2**30) == RandomSource(0).below(2**30)


def test_long_run_with_a_starved_definition_swap(mini_corpus):
    # this exact run once died at step 62: its definition swap there has
    # so few cycle-free pairs that it takes 112 draws, past MAX_ATTEMPTS
    result = run(mini_corpus[10].tune,
                 RunConfig(steps=100, seed=derive_seed(789, 10, 2)))
    assert len(result.trajectory) == 100
