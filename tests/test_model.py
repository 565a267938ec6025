"""Grammar value types, rendering, the reference-graph walk and validity
reporting."""

import pickle
import time
import weakref

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from canonical import canonical_violations, reference_counts, violations
from tunegram.model import (
    Grammar,
    MutationKind,
    NoteAlphabet,
    RuleRef,
    Terminal,
    format_symbol,
    parse_grammar,
    postorder,
    render_grammar,
    validate_grammar,
)
from tunegram.model import EmptyTuneError, UnknownRuleError
from tunegram.mutation import applicable
from tunegram.sequitur import expand_rule


KIND_CODES = {
    1: "1A1", 2: "1A2", 3: "1A3A", 4: "1A3B", 5: "1A4A", 6: "1A4B",
    7: "1B1", 8: "1B2", 9: "1B3A", 10: "1B3B", 11: "1B4A", 12: "1B4B",
    13: "1C1A", 14: "1C1B", 15: "1C2", 16: "1C3", 17: "1D",
    18: "2A1", 19: "2A2",
}


def test_kind_code_bijection():
    assert len(MutationKind) == 19
    for kind in MutationKind:
        assert kind.code == KIND_CODES[int(kind)]
    assert len({k.code for k in MutationKind}) == 19


@pytest.mark.parametrize("text,expected", [
    ("17", MutationKind.SWAP_DEFINITIONS),
    ("1d", MutationKind.SWAP_DEFINITIONS),
    (" 1A1 ", MutationKind.ADD_RULE_REF),
    ("19", MutationKind.REMOVE_RULE),
    ("2a2", MutationKind.REMOVE_RULE),
])
def test_kind_parse(text, expected):
    assert MutationKind.parse(text) == expected


@pytest.mark.parametrize("text", ["0", "20", "1A5", "", "p1"])
def test_kind_parse_rejects(text):
    with pytest.raises(ValueError):
        MutationKind.parse(text)


def test_from_code_round_trip():
    for kind in MutationKind:
        assert MutationKind.parse(kind.code) is kind
        assert pickle.loads(pickle.dumps(kind)) is kind
        assert MutationKind(int(kind)) is kind


def test_format_symbol():
    assert format_symbol(Terminal(-3)) == "-3"
    assert format_symbol(RuleRef(12)) == "p12"


def test_rule_rejects_negative_id():
    with pytest.raises(ValueError):
        Grammar({-1: (Terminal(0),)})
    # Nor may an id be anything but an int: render_grammar would write
    # p1.0 or pTrue, which parse_grammar rejects.
    for rule_id in (1.0, True, "1"):
        with pytest.raises(TypeError, match="rule id must be an int"):
            Grammar({0: (RuleRef(1), RuleRef(1)), rule_id: (Terminal(0),)})


@pytest.mark.parametrize("item", [1, "p1", None, (1,), Terminal(1.5),
                                  Terminal(True), RuleRef(1.0), RuleRef(True)])
def test_grammar_rejects_items_that_are_not_symbols(item):
    # A bare int used to pass validation and then crash expand and
    # render_grammar with an AttributeError.  A Terminal or RuleRef of a
    # float or a bool passed too, and rendered to text that
    # parse_grammar rejects.
    with pytest.raises(TypeError, match=r"rule p2 holds "):
        Grammar({0: [RuleRef(2), RuleRef(2)], 2: [Terminal(1), item]})


def test_grammar_sorts_and_indexes():
    g = Grammar({2: (Terminal(5),), 0: (RuleRef(2), RuleRef(2))})
    assert tuple(g.rhs) == (0, 2)
    assert 2 in g and 1 not in g
    assert len(g) == 2
    with pytest.raises(UnknownRuleError):
        expand_rule(g, 7)
    # The constructor normalises: any id order and any iterable rhs give
    # the same grammar, so equal grammars hash and render alike.
    reverse = Grammar({2: [Terminal(1), Terminal(5)], 1: [Terminal(4)],
                       0: [RuleRef(1), RuleRef(2), RuleRef(1)]})
    ordered = Grammar({0: (RuleRef(1), RuleRef(2), RuleRef(1)),
                       1: (Terminal(4),), 2: (Terminal(1), Terminal(5))})
    applicable(reverse, MutationKind.ADD_NOTE)  # memoised, never compared
    assert reverse == ordered and hash(reverse) == hash(ordered)
    assert render_grammar(reverse) == render_grammar(ordered)
    assert "rhs=" in repr(reverse) and "_applicable" not in repr(reverse)


def test_grammar_rejects_duplicate_ids():
    with pytest.raises(ValueError, match="duplicate"):
        parse_grammar("p0 -> 1; p0 -> 2")


def test_grammar_pickles_before_and_after_reach_is_read():
    g = parse_grammar("p0 -> p1 p2 p1; p1 -> 1 2; p2 -> p1 3")
    fresh = pickle.loads(pickle.dumps(g))
    assert fresh == g and fresh.rhs == g.rhs
    assert g.reach == {0: 0b110, 1: 0, 2: 0b010}  # p1 -> bit 1, p2 -> bit 2
    copy = pickle.loads(pickle.dumps(g))
    assert copy == g and copy.rhs == g.rhs and copy.reach == g.reach
    assert copy.rhs[2] == g.rhs[2] and tuple(copy.rhs) == (0, 1, 2)


def test_reference_counts():
    g = parse_grammar("p0 -> p1 p2 p1; p1 -> 1; p2 -> p1 2")
    counts = reference_counts(g)
    assert counts[1] == 3
    assert counts[2] == 1
    assert counts[0] == 0


def test_render_parse_round_trip():
    g = Grammar({0: [RuleRef(1), Terminal(3), Terminal(-2), RuleRef(1)],
                 1: [Terminal(5), Terminal(5)]})
    text = render_grammar(g)
    assert text == "p0 -> p1 3 -2 p1\np1 -> 5 5\n"
    assert parse_grammar(text) == g
    # semicolon separators are accepted on the way in
    assert parse_grammar("p0 -> p1 3 -2 p1; p1 -> 5 5") == g


@pytest.mark.parametrize("text", ["p0 1 2", "q0 -> 1", "p0 -> x"])
def test_parse_grammar_rejects(text):
    with pytest.raises(ValueError):
        parse_grammar(text)


# ---------------------------------------------------------------------------
# the reference-graph walk


def _reaches(rules, a, b):
    """Brute force: b is reachable from a through one or more references."""
    seen, todo = set(), [a]
    while todo:
        x = todo.pop()
        for s in rules[x]:
            c = s.rule_id if isinstance(s, RuleRef) else None
            if c in rules and c not in seen:
                seen.add(c)
                todo.append(c)
    return b in seen


# Rules 0..n-1 whose references may point anywhere in 0..n+1: so some
# rules are unreachable, some references dangle, and some close cycles.
rule_maps = st.integers(1, 8).flatmap(lambda n: st.dictionaries(
    st.integers(0, n - 1),
    st.lists(st.one_of(st.integers(0, n + 1).map(RuleRef),
                       st.integers(0, 3).map(Terminal)), max_size=5),
    min_size=1))


@given(rule_maps)
@settings(max_examples=400, deadline=None)
def test_postorder_lists_children_first_and_finds_cycles(rules):
    order, cycle, _ = postorder(rules)
    assert sorted(order) == sorted(rules)
    place = {x: i for i, x in enumerate(order)}
    for x in order:
        for s in rules[x]:
            if isinstance(s, RuleRef) and s.rule_id in rules:
                # listed before x, unless the reference closes a cycle
                assert place[s.rule_id] < place[x] \
                    or _reaches(rules, s.rule_id, x)
    assert (cycle is not None) == any(_reaches(rules, x, x) for x in order)
    if cycle is not None:
        assert len(cycle) >= 2 and cycle[0] == cycle[-1]
        for a, b in zip(cycle, cycle[1:]):
            assert RuleRef(b) in rules[a]
    if not any(_reaches(rules, x, x) for x in rules):
        g = Grammar(rules)
        assert g.reach == {
            x: sum(g.bit(y) for y in rules if _reaches(rules, x, y))
            for x in rules}


def test_postorder_on_a_deep_chain_is_iterative():
    rules = {i: (RuleRef(i + 1), Terminal(i)) for i in range(5000)}
    rules[5000] = (Terminal(0),)
    order, cycle, _ = postorder(rules)
    assert order == list(range(5000, -1, -1)) and cycle is None
    rules[5000] = (RuleRef(0),)
    order, cycle, _ = postorder(rules)
    assert cycle == list(range(5001)) + [0]


# ---------------------------------------------------------------------------
# validation


def test_single_rule_grammar_is_fully_valid():
    g = parse_grammar("p0 -> 7")
    assert validate_grammar(g) == () and canonical_violations(g) == ()
    assert not violations(g)


def test_self_reference_is_a_cycle():
    found = validate_grammar(parse_grammar("p0 -> p1 p1; p1 -> p1"))
    assert found
    assert any("cycle" in v for v in found)


def test_longer_cycle_detected():
    g = parse_grammar("p0 -> p1 p1; p1 -> p2 1; p2 -> p1 2")
    assert validate_grammar(g)


def test_empty_rhs_is_structural():
    found = validate_grammar(Grammar({0: ()}))
    assert found
    assert any("empty" in v for v in found)


def test_missing_root_is_structural():
    found = validate_grammar(parse_grammar("p1 -> 1 2"))
    assert any("p0" in v for v in found)


def test_dangling_reference_is_structural():
    found = validate_grammar(parse_grammar("p0 -> p5 1"))
    assert found
    assert any("missing rule p5" in v for v in found)


def test_cycle_and_dangling_reference_messages():
    g = parse_grammar("p0 -> p1 3 p1; p1 -> p2 p7; p2 -> p3 4; p3 -> p1 5")
    assert validate_grammar(g) == (
        "rule p1 references missing rule p7",
        "reference cycle: p1 -> p2 -> p3 -> p1",
    )
    assert canonical_violations(g) == (
        "rule p2 is referenced 1 time(s)",
        "rule p3 is referenced 1 time(s)",
    )


def _structural_oracle(g):
    """The structural half as three scans of the rhs map plus a cycle
    check: what validate_grammar must report from its one walk."""
    rules = g.rhs
    structural = [] if 0 in rules else ["missing root rule p0"]
    for rule_id, rhs in rules.items():
        if not rhs:
            structural.append(f"rule p{rule_id} has an empty rhs")
    for rule_id, rhs in rules.items():
        for sym in rhs:
            if isinstance(sym, RuleRef) and sym.rule_id not in rules:
                structural.append(
                    f"rule p{rule_id} references missing rule p{sym.rule_id}")
    cycle = postorder(rules)[1]
    if cycle is not None:
        structural.append("reference cycle: " + " -> ".join(f"p{i}" for i in cycle))
    return tuple(structural)


@given(rule_maps)
@settings(max_examples=400, deadline=None)
def test_structural_check_from_the_walk_matches_three_scans(rules):
    # rule_maps give empty rhs, dangling references, cycles, grammars
    # without p0 and rules the root does not reach.
    g = Grammar(rules)
    assert validate_grammar(g) == _structural_oracle(g)


def test_a_grammar_keeps_its_report():
    # Computed on first read, like the grammar's other views; the tuple
    # holds only strings, so no reference cycle keeps a dropped grammar
    # alive.
    g = parse_grammar("p0 -> p1 p1; p1 -> 1 2")
    found = validate_grammar(g)
    assert validate_grammar(g) is found and not violations(g)
    assert found == validate_grammar(parse_grammar("p0 -> p1 p1; p1 -> 1 2"))
    dropped = weakref.ref(g)
    del g
    assert dropped() is None  # freed at once, without the cycle collector


def test_repeated_digram_breaks_canonicality_only():
    g = parse_grammar("p0 -> 1 2 3 1 2")
    assert not validate_grammar(g)
    assert canonical_violations(g)
    assert any("digram 1 2" in v for v in canonical_violations(g))


def test_overlapping_equal_halves_digram_is_sanctioned():
    # 4 4 inside 4 4 4 overlaps itself; that repeat is fine
    assert not violations(parse_grammar("p0 -> 4 4 4"))
    # four in a row has two non-overlapping occurrences; not fine
    g = parse_grammar("p0 -> 4 4 4 4")
    assert not validate_grammar(g) and canonical_violations(g)


def test_digram_check_is_linear_in_repeats():
    # One pitch 4,000 times: 3,999 places of one digram.  Comparing them
    # pairwise took seconds.
    g = Grammar({0: [Terminal(4)] * 4000})
    t0 = time.perf_counter()
    found = validate_grammar(g), canonical_violations(g)
    assert time.perf_counter() - t0 < 0.5
    assert not found[0]
    assert found[1][0].startswith(
        "digram 4 4 repeats at p0@0, p0@1, p0@2, ")
    # a lone pair of places is a repeat unless it overlaps in one rule
    for text in ("p0 -> 4 4 5 4 4", "p0 -> p1 4 4 p1; p1 -> 4 4"):
        assert any(v.startswith("digram 4 4 ")
                   for v in canonical_violations(parse_grammar(text)))


def test_underused_rule_breaks_canonicality_only():
    g = parse_grammar("p0 -> p1 3; p1 -> 1 2")
    assert not validate_grammar(g)
    assert any("referenced 1 time" in v for v in canonical_violations(g))


def test_swapped_definitions_stay_structural():
    # an example mid-mutation state: definitions exchanged between two
    # rules, leaving repeated digrams but no structural damage
    g = parse_grammar(
        "p0 -> 2 p1 p2 9 p3 p3 6 9 p2 p1 2 4 p4 11 9 p4 4 6 p5; "
        "p1 -> 11 p6 p6 7 11; p2 -> 4 4; p3 -> p4 2; p4 -> 6 2; "
        "p5 -> 2 1 2; p6 -> 7 p5")
    assert not validate_grammar(g)


# ---------------------------------------------------------------------------
# alphabets


def test_alphabet_dedupes_and_sorts():
    a = NoteAlphabet.from_tune([5, 2, 5, 9, 2])
    assert a.notes == (2, 5, 9)


@pytest.mark.parametrize("notes", [(1.5, 2), (True, 2)], ids=["float", "bool"])
def test_alphabet_rejects_non_int_notes(notes):
    with pytest.raises(TypeError):
        NoteAlphabet(notes)


def test_alphabet_rejects_empty():
    with pytest.raises(EmptyTuneError):
        NoteAlphabet.from_tune([])
    with pytest.raises(EmptyTuneError):
        NoteAlphabet(())
