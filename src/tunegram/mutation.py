"""The 19 grammar mutation operators and seeded random application.

Operators edit a grammar's structure, never expanding it first.  They
fall into families: 1-6 act on rule references, 7-12 on notes, 13-16
mix or reorder the two, 17-19 act on whole rules.  ``KIND_EFFECT``
classifies each kind by whether it adds material, removes material, or
only rearranges it.

Every random choice (kind, rule, occurrence, index, span, symbol) is
drawn uniformly from a :class:`RandomSource`.  Occurrence selection is
occurrence-uniform: each RuleRef or terminal occurrence across the
whole grammar is equally likely, rather than first picking a rule.
After a candidate edit the result is structurally validated; edits that
would create a reference cycle or an empty rhs cause the targets (not
the kind) to be resampled, up to ``MAX_ATTEMPTS`` draws.  If blind
resampling exhausts (the valid targets can be a sliver of the draw
space, e.g. cycle-free rule pairs in a densely referencing grammar),
the whole target space is enumerated in shuffled order and the first
target that fits is applied, so an applicable kind always succeeds.

Applicability is derived, not tabulated.  Each kind has one target
enumerator (``_targets``), and an edit on a structurally valid grammar
can only fail by closing a reference cycle or by purging the root (an
empty rhs is ruled out by the enumerator).  ``_new_edges`` lists the
references a target adds, and ``_fits`` accepts it iff no added
reference ``x -> c`` has ``c`` equal to ``x`` or reaching ``x`` in the
grammar before the edit.  A kind is applicable iff some target fits.
"""

from __future__ import annotations

import functools
import hashlib
import random
import struct
from dataclasses import dataclass
from typing import Mapping, Sequence

from .model import (
    ROOT_ID,
    Grammar,
    MutationKind,
    NoteAlphabet,
    Rule,
    RuleRef,
    Symbol,
    Terminal,
    TunegramError,
    validate_grammar,
)

MAX_ATTEMPTS = 100

# Kind 18 builds a fresh rule with this many symbols.  The range is a
# reconstruction (long enough for large edit-distance effects, still
# bounded); nothing else in the package depends on it.
NEW_RULE_MIN_LEN = 2
NEW_RULE_MAX_LEN = 8

#: What each kind does to the amount of material in the grammar.
KIND_EFFECT: dict[MutationKind, str] = {
    MutationKind.ADD_RULE_REF: "adds",
    MutationKind.REMOVE_RULE_REF: "removes",
    MutationKind.MOVE_RULE_REF_WITHIN: "rearranges",
    MutationKind.MOVE_RULE_REF_ACROSS: "rearranges",
    MutationKind.SWAP_RULE_REFS_WITHIN: "rearranges",
    MutationKind.SWAP_RULE_REFS_ACROSS: "rearranges",
    MutationKind.ADD_NOTE: "adds",
    MutationKind.REMOVE_NOTE: "removes",
    MutationKind.MOVE_NOTE_WITHIN: "rearranges",
    MutationKind.MOVE_NOTE_ACROSS: "rearranges",
    MutationKind.SWAP_NOTES_WITHIN: "rearranges",
    MutationKind.SWAP_NOTES_ACROSS: "rearranges",
    MutationKind.SWAP_REF_WITH_NOTE: "rearranges",
    MutationKind.SWAP_REF_WITH_NOTE_ACROSS: "rearranges",
    MutationKind.REVERSE_RULE: "rearranges",
    MutationKind.REVERSE_SPAN: "rearranges",
    MutationKind.SWAP_DEFINITIONS: "rearranges",
    MutationKind.ADD_RULE: "adds",
    MutationKind.REMOVE_RULE: "removes",
}


class InapplicableMutationError(TunegramError):
    """The requested kind has no valid target in this grammar."""


class MutationTargetError(TunegramError):
    """Forced targets were unusable, or (for drawn targets) even the
    exhaustive fallback found no structurally valid edit."""


class NoApplicableMutationError(TunegramError):
    """Every non-excluded kind is inapplicable to this grammar."""


class RandomSource:
    """A deterministic random stream with a 64-bit unsigned seed.

    Backed by CPython's ``random.Random`` (the Mersenne Twister
    MT19937, with a documented seeding procedure), so an identical seed
    and call sequence give identical outputs on every platform.  A
    source is single-owner: never share one between concurrent runs;
    derive per-run seeds with :func:`derive_seed` instead.
    """

    __slots__ = ("seed", "_rng")

    def __init__(self, seed: int) -> None:
        if not 0 <= seed < 2**64:
            raise ValueError(f"seed must fit in 64 unsigned bits, got {seed}")
        self.seed = seed
        self._rng = random.Random(seed)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n)."""
        if n <= 0:
            raise ValueError(f"need a positive bound, got {n}")
        return self._rng.randrange(n)

    def between(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], both ends included."""
        return self._rng.randint(lo, hi)

    def choose(self, items: Sequence):
        """Uniform element of a non-empty sequence."""
        return items[self.below(len(items))]

    def shuffle(self, items: list) -> None:
        """Uniform in-place permutation."""
        self._rng.shuffle(items)


def derive_seed(*parts: int) -> int:
    """Mix integer coordinates into an independent 64-bit seed.

    Used to give every (tune, run, kind) its own RandomSource so corpus
    results do not depend on scheduling or worker count.  blake2b keeps
    the streams well separated; Python's hash() would not be stable
    across processes.
    """
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        h.update(struct.pack(">Q", int(part) & 0xFFFFFFFFFFFFFFFF))
    return int.from_bytes(h.digest(), "big")


@dataclass(frozen=True)
class MutationOutcome:
    """Result of one mutation: the kind, the new (structurally valid,
    possibly non-canonical) grammar, the rule ids created, removed or
    edited, and how many target draws it took."""

    kind: MutationKind
    grammar: Grammar
    touched: tuple[int, ...]
    attempts: int


# ---------------------------------------------------------------------------
# working representation and shared helpers

_Rules = dict[int, list[Symbol]]


def _rules_dict(g: Grammar) -> _Rules:
    return {r.rule_id: list(r.rhs) for r in g}


def _to_grammar(rules: _Rules) -> Grammar:
    return Grammar(tuple(Rule(i, tuple(rhs)) for i, rhs in rules.items()))


def _ref_occurrences(rules: _Rules) -> list[tuple[int, int, int]]:
    """(host rule, index, referenced rule) for every RuleRef, in
    deterministic (host, index) order."""
    occs = []
    for host in sorted(rules):
        for i, sym in enumerate(rules[host]):
            if isinstance(sym, RuleRef):
                occs.append((host, i, sym.rule_id))
    return occs


def _term_occurrences(rules: _Rules) -> list[tuple[int, int]]:
    occs = []
    for host in sorted(rules):
        for i, sym in enumerate(rules[host]):
            if isinstance(sym, Terminal):
                occs.append((host, i))
    return occs


def _reach_sets(rules: Mapping[int, Sequence[Symbol]]) -> dict[int, set[int]]:
    """reach[x] = every rule reachable from x through one or more
    references.  Assumes the input is acyclic (callers hold the
    structural-validity precondition).  Iterative depth-first search, so
    a rule chain of any depth is fine; a cycle ends the walk instead of
    looping."""
    children = {x: {s.rule_id for s in rhs
                    if isinstance(s, RuleRef) and s.rule_id in rules}
                for x, rhs in rules.items()}
    reach: dict[int, set[int]] = {}
    entered: set[int] = set()
    for start in rules:
        stack = [start]
        while stack:
            x = stack[-1]
            if x not in entered:
                # First visit: descend; x is finished on the second.
                entered.add(x)
                stack.extend(c for c in children[x] if c not in entered)
                continue
            stack.pop()
            if x in reach:
                continue
            out = set(children[x])
            for c in children[x]:
                out.update(reach.get(c, ()))
            reach[x] = out
    return reach


# ---------------------------------------------------------------------------
# the operators
#
# Each operator edits a private rules dict and returns (rules, touched),
# or None to signal "reject these targets, draw again".  With forced
# targets the operator takes no rng draws at all.

def _op_add_rule_ref(rules, alphabet, rng, targets):
    non_root = [i for i in sorted(rules) if i != ROOT_ID]
    if targets is not None:
        ref_id, host, index = targets
        if ref_id not in rules or ref_id == ROOT_ID or host not in rules:
            return None
        if not 0 <= index <= len(rules[host]):
            return None
    else:
        ref_id = rng.choose(non_root)
        host = rng.choose(sorted(rules))
        index = rng.below(len(rules[host]) + 1)
    rules[host].insert(index, RuleRef(ref_id))
    return rules, [host]


def _op_remove_rule_ref(rules, alphabet, rng, targets):
    if targets is not None:
        host, index = targets
        if host not in rules or not 0 <= index < len(rules[host]) \
                or not isinstance(rules[host][index], RuleRef):
            return None
    else:
        host, index, _ = rng.choose(_ref_occurrences(rules))
    if len(rules[host]) == 1:
        return None  # would empty the rule
    del rules[host][index]
    return rules, [host]


def _move_within(rules, rng, occ_kind, targets):
    if targets is not None:
        host, index, new_index = targets
        if host not in rules or not 0 <= index < len(rules[host]):
            return None
        if not isinstance(rules[host][index], occ_kind):
            return None
        if new_index == index or not 0 <= new_index < len(rules[host]):
            return None
    else:
        if occ_kind is RuleRef:
            host, index, _ = rng.choose(_ref_occurrences(rules))
        else:
            host, index = rng.choose(_term_occurrences(rules))
        if len(rules[host]) < 2:
            return None
        new_index = rng.choose([p for p in range(len(rules[host]))
                                if p != index])
    sym = rules[host].pop(index)
    rules[host].insert(new_index, sym)
    return rules, [host]


def _op_move_rule_ref_within(rules, alphabet, rng, targets):
    return _move_within(rules, rng, RuleRef, targets)


def _op_move_note_within(rules, alphabet, rng, targets):
    return _move_within(rules, rng, Terminal, targets)


def _move_across(rules, rng, occ_kind, targets):
    if targets is not None:
        host, index, other, new_index = targets
        if host not in rules or other not in rules or other == host:
            return None
        if not 0 <= index < len(rules[host]) \
                or not isinstance(rules[host][index], occ_kind):
            return None
        if not 0 <= new_index <= len(rules[other]):
            return None
    else:
        if occ_kind is RuleRef:
            host, index, _ = rng.choose(_ref_occurrences(rules))
        else:
            host, index = rng.choose(_term_occurrences(rules))
        others = [i for i in sorted(rules) if i != host]
        if len(rules[host]) < 2 or not others:
            return None  # moving out would empty the host
        other = rng.choose(others)
        new_index = rng.below(len(rules[other]) + 1)
    sym = rules[host].pop(index)
    rules[other].insert(new_index, sym)
    return rules, [host, other]


def _op_move_rule_ref_across(rules, alphabet, rng, targets):
    return _move_across(rules, rng, RuleRef, targets)


def _op_move_note_across(rules, alphabet, rng, targets):
    return _move_across(rules, rng, Terminal, targets)


def _swap_within(rules, rng, occ_kind, targets):
    if targets is not None:
        host, i, j = targets
        if host not in rules or i == j:
            return None
        rhs = rules[host]
        if not (0 <= i < len(rhs) and 0 <= j < len(rhs)):
            return None
        if not (isinstance(rhs[i], occ_kind) and isinstance(rhs[j], occ_kind)):
            return None
    else:
        if occ_kind is RuleRef:
            occs = [(h, i) for h, i, _ in _ref_occurrences(rules)]
        else:
            occs = _term_occurrences(rules)
        host, i = rng.choose(occs)
        partners = [idx for h, idx in occs if h == host and idx != i]
        if not partners:
            return None
        j = rng.choose(partners)
    rules[host][i], rules[host][j] = rules[host][j], rules[host][i]
    return rules, [host]


def _op_swap_rule_refs_within(rules, alphabet, rng, targets):
    return _swap_within(rules, rng, RuleRef, targets)


def _op_swap_notes_within(rules, alphabet, rng, targets):
    return _swap_within(rules, rng, Terminal, targets)


def _swap_across(rules, rng, occ_kind, targets):
    if targets is not None:
        h1, i1, h2, i2 = targets
        if h1 not in rules or h2 not in rules or h1 == h2:
            return None
        if not (0 <= i1 < len(rules[h1]) and 0 <= i2 < len(rules[h2])):
            return None
        if not (isinstance(rules[h1][i1], occ_kind)
                and isinstance(rules[h2][i2], occ_kind)):
            return None
    else:
        if occ_kind is RuleRef:
            occs = [(h, i) for h, i, _ in _ref_occurrences(rules)]
        else:
            occs = _term_occurrences(rules)
        h1, i1 = rng.choose(occs)
        partners = [(h, i) for h, i in occs if h != h1]
        if not partners:
            return None
        h2, i2 = rng.choose(partners)
    rules[h1][i1], rules[h2][i2] = rules[h2][i2], rules[h1][i1]
    return rules, [h1, h2]


def _op_swap_rule_refs_across(rules, alphabet, rng, targets):
    return _swap_across(rules, rng, RuleRef, targets)


def _op_swap_notes_across(rules, alphabet, rng, targets):
    return _swap_across(rules, rng, Terminal, targets)


def _op_add_note(rules, alphabet, rng, targets):
    if targets is not None:
        host, index, value = targets
        if host not in rules or not 0 <= index <= len(rules[host]):
            return None
        if value not in alphabet:
            return None
    else:
        host = rng.choose(sorted(rules))
        index = rng.below(len(rules[host]) + 1)
        value = rng.choose(alphabet.notes)
    rules[host].insert(index, Terminal(value))
    return rules, [host]


def _op_remove_note(rules, alphabet, rng, targets):
    if targets is not None:
        host, index = targets
        if host not in rules or not 0 <= index < len(rules[host]) \
                or not isinstance(rules[host][index], Terminal):
            return None
    else:
        host, index = rng.choose(_term_occurrences(rules))
    if len(rules[host]) == 1:
        return None
    del rules[host][index]
    return rules, [host]


def _op_swap_ref_with_note(rules, alphabet, rng, targets):
    if targets is not None:
        host, ref_index, term_index = targets
        if host not in rules:
            return None
        rhs = rules[host]
        if not (0 <= ref_index < len(rhs) and 0 <= term_index < len(rhs)):
            return None
        if not (isinstance(rhs[ref_index], RuleRef)
                and isinstance(rhs[term_index], Terminal)):
            return None
    else:
        host, ref_index, _ = rng.choose(_ref_occurrences(rules))
        partners = [i for i, s in enumerate(rules[host])
                    if isinstance(s, Terminal)]
        if not partners:
            return None
        term_index = rng.choose(partners)
    rhs = rules[host]
    rhs[ref_index], rhs[term_index] = rhs[term_index], rhs[ref_index]
    return rules, [host]


def _op_swap_ref_with_note_across(rules, alphabet, rng, targets):
    if targets is not None:
        h1, ref_index, h2, term_index = targets
        if h1 not in rules or h2 not in rules or h1 == h2:
            return None
        if not 0 <= ref_index < len(rules[h1]) \
                or not isinstance(rules[h1][ref_index], RuleRef):
            return None
        if not 0 <= term_index < len(rules[h2]) \
                or not isinstance(rules[h2][term_index], Terminal):
            return None
    else:
        h1, ref_index, _ = rng.choose(_ref_occurrences(rules))
        partners = [(h, i) for h, i in _term_occurrences(rules) if h != h1]
        if not partners:
            return None
        h2, term_index = rng.choose(partners)
    a = rules[h1][ref_index]
    b = rules[h2][term_index]
    rules[h1][ref_index] = b
    rules[h2][term_index] = a
    return rules, [h1, h2]


def _op_reverse_rule(rules, alphabet, rng, targets):
    if targets is not None:
        (host,) = targets
        if host not in rules:
            return None
    else:
        host = rng.choose(sorted(rules))
    rules[host].reverse()
    return rules, [host]


def _op_reverse_span(rules, alphabet, rng, targets):
    if targets is not None:
        host, start, length = targets
        if host not in rules:
            return None
        rhs_len = len(rules[host])
        if not (2 <= length < rhs_len and 0 <= start <= rhs_len - length):
            return None
    else:
        host = rng.choose(sorted(rules))
        rhs_len = len(rules[host])
        if rhs_len < 3:
            return None
        spans = [(s, ln) for ln in range(2, rhs_len)
                 for s in range(rhs_len - ln + 1)]
        start, length = rng.choose(spans)
    rules[host][start:start + length] = \
        rules[host][start:start + length][::-1]
    return rules, [host]


def _op_swap_definitions(rules, alphabet, rng, targets):
    if targets is not None:
        a, b = targets
        if a not in rules or b not in rules or a == b:
            return None
    else:
        a = rng.choose(sorted(rules))
        b = rng.choose([i for i in sorted(rules) if i != a])
    rules[a], rules[b] = rules[b], rules[a]
    return rules, [a, b]


def _op_add_rule(rules, alphabet, rng, targets):
    new_id = max(rules) + 1
    if targets is not None:
        host, index, body = targets
        if host not in rules or not 0 <= index <= len(rules[host]):
            return None
        body = list(body)
        if not body:
            return None
    else:
        length = rng.between(NEW_RULE_MIN_LEN, NEW_RULE_MAX_LEN)
        non_root = [i for i in sorted(rules) if i != ROOT_ID]
        body = []
        for _ in range(length):
            if non_root and rng.below(2) == 1:
                body.append(RuleRef(rng.choose(non_root)))
            else:
                body.append(Terminal(rng.choose(alphabet.notes)))
        host = rng.choose(sorted(rules))
        index = rng.below(len(rules[host]) + 1)
    rules[new_id] = body
    rules[host].insert(index, RuleRef(new_id))
    return rules, [new_id, host]


def _purge(rules: _Rules, target: int) -> tuple[_Rules, list[int]] | None:
    """Delete a rule and every reference to it, cascading through rules
    the purge empties.  None if the cascade would take out the root."""
    touched: set[int] = set()
    doomed = [target]
    removed: set[int] = set()
    while doomed:
        d = doomed.pop()
        if d == ROOT_ID:
            return None
        if d in removed:
            continue
        removed.add(d)
        del rules[d]
        for host in sorted(rules):
            kept = [s for s in rules[host]
                    if not (isinstance(s, RuleRef) and s.rule_id == d)]
            if len(kept) != len(rules[host]):
                rules[host] = kept
                touched.add(host)
                if not kept:
                    doomed.append(host)
    return rules, sorted(removed | touched)


def _op_remove_rule(rules, alphabet, rng, targets):
    if targets is not None:
        (target,) = targets
        if target not in rules or target == ROOT_ID:
            return None
    else:
        non_root = [i for i in sorted(rules) if i != ROOT_ID]
        if not non_root:
            return None
        target = rng.choose(non_root)
    return _purge(rules, target)


_OPERATORS = {
    MutationKind.ADD_RULE_REF: _op_add_rule_ref,
    MutationKind.REMOVE_RULE_REF: _op_remove_rule_ref,
    MutationKind.MOVE_RULE_REF_WITHIN: _op_move_rule_ref_within,
    MutationKind.MOVE_RULE_REF_ACROSS: _op_move_rule_ref_across,
    MutationKind.SWAP_RULE_REFS_WITHIN: _op_swap_rule_refs_within,
    MutationKind.SWAP_RULE_REFS_ACROSS: _op_swap_rule_refs_across,
    MutationKind.ADD_NOTE: _op_add_note,
    MutationKind.REMOVE_NOTE: _op_remove_note,
    MutationKind.MOVE_NOTE_WITHIN: _op_move_note_within,
    MutationKind.MOVE_NOTE_ACROSS: _op_move_note_across,
    MutationKind.SWAP_NOTES_WITHIN: _op_swap_notes_within,
    MutationKind.SWAP_NOTES_ACROSS: _op_swap_notes_across,
    MutationKind.SWAP_REF_WITH_NOTE: _op_swap_ref_with_note,
    MutationKind.SWAP_REF_WITH_NOTE_ACROSS: _op_swap_ref_with_note_across,
    MutationKind.REVERSE_RULE: _op_reverse_rule,
    MutationKind.REVERSE_SPAN: _op_reverse_span,
    MutationKind.SWAP_DEFINITIONS: _op_swap_definitions,
    MutationKind.ADD_RULE: _op_add_rule,
    MutationKind.REMOVE_RULE: _op_remove_rule,
}


# ---------------------------------------------------------------------------
# targets and applicability (see the module docstring)


def _targets(kind, rules, alphabet, rng):
    """Every target tuple the kind's random draw could produce, lazily.

    Shapes match the forced-``targets`` contract of
    :func:`apply_mutation`.  Targets are filtered only for the cheap
    local conditions the random path itself enforces (the rhs that
    would be emptied, the partner that must exist); whether the edit
    would close a reference cycle is :func:`_fits`'s question.  The
    order is fixed, and kind 18 draws one body per insertion point from
    ``rng`` as it goes, so a caller that lists the whole space takes
    the same draws every time.
    """
    ids = sorted(rules)
    non_root = [i for i in ids if i != ROOT_ID]
    k = int(kind)
    if k in (2, 3, 4, 5, 6):
        occs = [(h, i) for h, i, _ in _ref_occurrences(rules)]
    elif k in (8, 9, 10, 11, 12):
        occs = _term_occurrences(rules)
    if k == 1:
        yield from ((r, h, ix) for r in non_root for h in ids
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
    elif k in (5, 11):
        # occs run in (host, index) order: a host's later occurrences
        # follow it directly.
        for n, (h, i) in enumerate(occs):
            for m in range(n + 1, len(occs)):
                h2, j = occs[m]
                if h2 != h:
                    break
                yield (h, i, j)
    elif k in (6, 12):
        yield from ((h1, i1, h2, i2) for n, (h1, i1) in enumerate(occs)
                    for h2, i2 in occs[n + 1:] if h2 != h1)
    elif k == 7:
        yield from ((h, ix, v) for h in ids for ix in range(len(rules[h]) + 1)
                    for v in alphabet.notes)
    elif k == 13:
        term_index: dict[int, list[int]] = {}
        for h, j in _term_occurrences(rules):
            term_index.setdefault(h, []).append(j)
        yield from ((h, i, j) for h, i, _ in _ref_occurrences(rules)
                    for j in term_index.get(h, ()))
    elif k == 14:
        terms = _term_occurrences(rules)
        yield from ((h1, i, h2, j) for h1, i, _ in _ref_occurrences(rules)
                    for h2, j in terms if h1 != h2)
    elif k == 15:
        yield from ((h,) for h in ids)
    elif k == 16:
        yield from ((h, s, ln) for h in ids if len(rules[h]) >= 3
                    for ln in range(2, len(rules[h]))
                    for s in range(len(rules[h]) - ln + 1))
    elif k == 17:
        yield from ((a, b) for n, a in enumerate(ids) for b in ids[n + 1:])
    elif k == 18:
        # A body can fail (its references may reach the host), but any
        # body under the root succeeds, so the space as a whole cannot.
        for h in ids:
            for ix in range(len(rules[h]) + 1):
                body = []
                for _ in range(rng.between(NEW_RULE_MIN_LEN,
                                           NEW_RULE_MAX_LEN)):
                    if non_root and rng.below(2) == 1:
                        body.append(RuleRef(rng.choose(non_root)))
                    else:
                        body.append(Terminal(rng.choose(alphabet.notes)))
                yield (h, ix, tuple(body))
    elif k == 19:
        yield from ((r,) for r in non_root)
    else:
        raise ValueError(f"unhandled kind {kind!r}")


def _new_edges(kind, rules, t):
    """Yield the (rule, referent) references that the edit ``t`` of
    ``kind`` adds to the grammar; kinds that only remove references or
    move symbols within one rule add none."""
    k = int(kind)
    if k == 1:
        ref, host, _ = t
        yield host, ref
    elif k in (4, 14):
        host, index, other, _ = t
        yield other, rules[host][index].rule_id
    elif k == 6:
        h1, i1, h2, i2 = t
        a, b = rules[h1][i1].rule_id, rules[h2][i2].rule_id
        if a != b:
            yield h2, a
            yield h1, b
    elif k == 17:
        a, b = t
        yield from ((a, s.rule_id) for s in rules[b] if isinstance(s, RuleRef))
        yield from ((b, s.rule_id) for s in rules[a] if isinstance(s, RuleRef))
    elif k == 18:
        host, _, body = t
        yield from ((host, s.rule_id) for s in body if isinstance(s, RuleRef))


def _fits(kind, rules, t, reach) -> bool:
    """True iff applying target ``t`` of ``kind`` to the acyclic
    ``rules`` gives a structurally valid grammar.

    ``reach`` is a cached zero-argument callable returning
    :func:`_reach_sets` of ``rules`` before the edit, so reachability is
    only computed once some target adds a reference.  Kind 19 fits iff
    its purge spares the root.  Every other kind fits iff no added
    reference ``x -> c`` has ``x == c`` or ``x`` reachable from ``c``.
    That is exact: a new cycle must use an added reference; a shortest
    one that used a removed reference would close an old cycle, and for
    kinds 6 and 17 one through both added references does too.
    """
    if kind == MutationKind.REMOVE_RULE:
        return _purge({i: list(rhs) for i, rhs in rules.items()},
                      t[0]) is not None
    return not any(x == c or x in reach().get(c, ())
                   for x, c in _new_edges(kind, rules, t))


def applicable(g: Grammar, kind: MutationKind) -> bool:
    """True iff some concrete choice of targets lets apply_mutation
    succeed: some target of the kind fits (see :func:`_fits`)."""
    kind = MutationKind(kind)
    if kind in (MutationKind.ADD_NOTE, MutationKind.ADD_RULE):
        return True  # an insertion under the root always fits
    rules = {r.rule_id: r.rhs for r in g}  # read only: no rhs copies
    reach = functools.cache(lambda: _reach_sets(rules))
    return any(_fits(kind, rules, t, reach)
               for t in _targets(kind, rules, None, None))


def apply_mutation(
    g: Grammar,
    kind: MutationKind,
    alphabet: NoteAlphabet,
    rng: RandomSource,
    *,
    targets: tuple | None = None,
) -> MutationOutcome:
    """Apply one mutation of the given kind, drawing targets from rng.

    ``targets`` forces the operator's choices instead (used by golden
    tests); its shape is kind-specific, matching the order the operator
    would draw them:

    ==== =========================================
    1    (ref_rule, host, index)
    2, 8 (host, index)
    3, 9 (host, index, new_index)
    4,10 (host, index, other_host, new_index)
    5,11 (host, i, j)
    6,12 (host_a, i, host_b, j)
    13   (host, ref_index, term_index)
    14   (host_a, ref_index, host_b, term_index)
    15   (host,)
    16   (host, start, length)
    17   (rule_a, rule_b)
    18   (host, index, rhs_symbols)
    19   (rule,)
    ==== =========================================

    Raises InapplicableMutationError when the precondition fails and
    MutationTargetError when forced targets are unusable.  Drawn
    targets cannot exhaust: after MAX_ATTEMPTS rejected draws the whole
    target space is scanned in shuffled order for the first target that
    fits, and applicability guarantees there is one.  Every returned
    grammar has passed :func:`validate_grammar`.
    """
    kind = MutationKind(kind)
    if not applicable(g, kind):
        raise InapplicableMutationError(
            f"mutation {int(kind)} ({kind.code}) has no valid target here")
    op = _OPERATORS[kind]

    def edit(targets):
        result = op(_rules_dict(g), alphabet, rng, targets)
        if result is None:
            return None
        new_rules, touched = result
        candidate = _to_grammar(new_rules)
        if not validate_grammar(candidate).structural_ok:
            return None
        return candidate, tuple(touched)

    limit = 1 if targets is not None else MAX_ATTEMPTS
    attempt = 0
    for attempt in range(1, limit + 1):
        result = edit(targets)
        if result is not None:
            return MutationOutcome(kind, *result, attempt)
    if targets is not None:
        raise MutationTargetError(
            f"forced targets {targets!r} are invalid for mutation {int(kind)}")
    rules = {r.rule_id: r.rhs for r in g}
    reach = functools.cache(lambda: _reach_sets(rules))
    pool = list(_targets(kind, rules, alphabet, rng))
    rng.shuffle(pool)
    for cand in pool:
        attempt += 1
        if _fits(kind, rules, cand, reach):
            result = edit(cand)
            if result is not None:
                return MutationOutcome(kind, *result, attempt)
    raise MutationTargetError(
        f"no structurally valid targets exist for mutation {int(kind)}; "
        f"is the input grammar structurally valid?")


def random_mutation(
    g: Grammar,
    alphabet: NoteAlphabet,
    rng: RandomSource,
    excluded: frozenset[MutationKind] = frozenset({MutationKind.ADD_RULE}),
) -> MutationOutcome:
    """Draw a kind uniformly from the non-excluded kinds and apply it.

    Inapplicable kinds are redrawn without replacement, so the chosen
    kind is uniform over the applicable non-excluded ones.  Kind 18 is
    excluded by default (new-rule injection drowns out every other
    operator's effect in generated tunes).
    """
    excluded = frozenset(MutationKind(k) for k in excluded)
    pool = [k for k in MutationKind if k not in excluded]
    if not pool:
        raise ValueError("cannot exclude every mutation kind")
    while pool:
        kind = pool.pop(rng.below(len(pool)))
        try:
            # applicable() draws nothing, so an inapplicable kind leaves
            # the stream where it was.
            return apply_mutation(g, kind, alphabet, rng)
        except InapplicableMutationError:
            continue
    raise NoApplicableMutationError(
        "no non-excluded mutation kind applies to this grammar")
