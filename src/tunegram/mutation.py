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
the whole target space is enumerated and tried in shuffled order, so an
applicable kind always succeeds.
"""

from __future__ import annotations

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
    def children(x: int) -> list[int]:
        return [s.rule_id for s in rules[x]
                if isinstance(s, RuleRef) and s.rule_id in rules]

    reach: dict[int, set[int]] = {}
    entered: set[int] = set()
    for start in rules:
        stack = [start]
        while stack:
            x = stack[-1]
            if x not in entered:
                # First visit: descend; x is finished on the second.
                entered.add(x)
                stack.extend(c for c in children(x) if c not in entered)
                continue
            stack.pop()
            if x in reach:
                continue
            out: set[int] = set()
            for c in children(x):
                out.add(c)
                out.update(reach.get(c, ()))
            reach[x] = out
    return reach


def _swap_is_structural(g_rules: _Rules, edit) -> bool:
    """Apply ``edit`` to a scratch copy and test structural validity."""
    scratch = {i: list(rhs) for i, rhs in g_rules.items()}
    edit(scratch)
    return validate_grammar(_to_grammar(scratch)).structural_ok


# ---------------------------------------------------------------------------
# applicability

def applicable(g: Grammar, kind: MutationKind) -> bool:
    """True iff some concrete choice of targets lets apply_mutation
    succeed.  Exact by construction: each case mirrors the operator's
    own rejection rules (empty-rhs, distinct-rule, cycle checks)."""
    kind = MutationKind(kind)
    rules = _rules_dict(g)
    ids = sorted(rules)
    refs = _ref_occurrences(rules)
    terms = _term_occurrences(rules)
    k = int(kind)

    if k in (7, 15, 18):
        return True
    if k == 1:
        non_root = [i for i in ids if i != ROOT_ID]
        if not non_root:
            return False
        reach = _reach_sets(rules)
        return any(s != r and s not in reach[r]
                   for r in non_root for s in ids)
    if k in (2, 3):
        return any(len(rules[h]) >= 2 for h, _, _ in refs)
    if k == 4:
        if len(ids) < 2:
            return False
        reach = _reach_sets(rules)
        return any(len(rules[h]) >= 2
                   and any(b != h and b != t and b not in reach[t] for b in ids)
                   for h, _, t in refs)
    if k == 5:
        per_host: dict[int, int] = {}
        for h, _, _ in refs:
            per_host[h] = per_host.get(h, 0) + 1
        return any(n >= 2 for n in per_host.values())
    if k == 6:
        hosts = {h for h, _, _ in refs}
        if len(hosts) < 2:
            return False
        # Equal referents swap to an identical grammar; that pair is
        # always structurally fine.
        targets_by_host = {}
        for h, _, t in refs:
            targets_by_host.setdefault(h, set()).add(t)
        seen: set[int] = set()
        for h, ts in targets_by_host.items():
            if ts & seen:
                return True
            seen |= ts
        for n1, (h1, i1, _) in enumerate(refs):
            for h2, i2, _ in refs[n1 + 1:]:
                if h1 == h2:
                    continue

                def swap(r, a=h1, i=i1, b=h2, j=i2):
                    r[a][i], r[b][j] = r[b][j], r[a][i]

                if _swap_is_structural(rules, swap):
                    return True
        return False
    if k in (8, 9):
        return any(len(rules[h]) >= 2 for h, _ in terms)
    if k == 10:
        return len(ids) >= 2 and any(len(rules[h]) >= 2 for h, _ in terms)
    if k == 11:
        per_host = {}
        for h, _ in terms:
            per_host[h] = per_host.get(h, 0) + 1
        return any(n >= 2 for n in per_host.values())
    if k == 12:
        return len({h for h, _ in terms}) >= 2
    if k == 13:
        ref_hosts = {h for h, _, _ in refs}
        term_hosts = {h for h, _ in terms}
        return bool(ref_hosts & term_hosts)
    if k == 14:
        term_hosts = {h for h, _ in terms}
        if not refs or not term_hosts:
            return False
        reach = _reach_sets(rules)
        return any(any(b != h and b != t and b not in reach[t]
                       for b in term_hosts)
                   for h, _, t in refs)
    if k == 16:
        return any(len(rhs) >= 3 for rhs in rules.values())
    if k == 17:
        if len(ids) < 2:
            return False
        plain = [i for i in ids if not any(isinstance(s, RuleRef)
                                           for s in rules[i])]
        if len(plain) >= 2:
            return True
        for n1, a in enumerate(ids):
            for b in ids[n1 + 1:]:

                def swap(r, a=a, b=b):
                    r[a], r[b] = r[b], r[a]

                if _swap_is_structural(rules, swap):
                    return True
        return False
    if k == 19:
        non_root = [i for i in ids if i != ROOT_ID]
        return any(_purge(
            {i: list(rhs) for i, rhs in rules.items()}, target) is not None
            for target in non_root)
    raise ValueError(f"unhandled kind {kind!r}")


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


def _candidate_targets(kind, rules, alphabet, rng):
    """Every target tuple the kind's random draw could produce.

    Used only by the fallback pass in :func:`apply_mutation`; shapes
    match the forced-``targets`` contract there.  Candidates are not
    pre-filtered for structural validity (the caller validates), only
    for the cheap local conditions the random path itself enforces.
    """
    ids = sorted(rules)
    non_root = [i for i in ids if i != ROOT_ID]
    refs = [(h, i) for h, i, _ in _ref_occurrences(rules)]
    terms = _term_occurrences(rules)
    k = int(kind)
    if k == 1:
        return [(r, h, ix) for r in non_root for h in ids
                for ix in range(len(rules[h]) + 1)]
    if k in (2, 8):
        occs = refs if k == 2 else terms
        return [(h, i) for h, i in occs if len(rules[h]) > 1]
    if k in (3, 9):
        occs = refs if k == 3 else terms
        return [(h, i, j) for h, i in occs
                for j in range(len(rules[h])) if j != i]
    if k in (4, 10):
        occs = refs if k == 4 else terms
        return [(h, i, other, ix) for h, i in occs if len(rules[h]) > 1
                for other in ids if other != h
                for ix in range(len(rules[other]) + 1)]
    if k in (5, 11):
        occs = refs if k == 5 else terms
        return [(h, i, j) for h, i in occs for g2, j in occs
                if g2 == h and j > i]
    if k in (6, 12):
        occs = refs if k == 6 else terms
        return [(h1, i1, h2, i2) for h1, i1 in occs for h2, i2 in occs
                if h1 < h2]
    if k == 7:
        return [(h, ix, v) for h in ids for ix in range(len(rules[h]) + 1)
                for v in alphabet.notes]
    if k == 13:
        return [(h, i, j) for h, i in refs for g2, j in terms if g2 == h]
    if k == 14:
        return [(h1, i, h2, j) for h1, i in refs for h2, j in terms
                if h1 != h2]
    if k == 15:
        return [(h,) for h in ids]
    if k == 16:
        return [(h, s, ln) for h in ids if len(rules[h]) >= 3
                for ln in range(2, len(rules[h]))
                for s in range(len(rules[h]) - ln + 1)]
    if k == 17:
        return [(a, b) for a in ids for b in ids if a < b]
    if k == 18:
        # One freshly drawn body per insertion point; a body can fail
        # (its references may reach the host), but any body under the
        # root succeeds, so the pass as a whole cannot.
        out = []
        for h in ids:
            for ix in range(len(rules[h]) + 1):
                body = []
                for _ in range(rng.between(NEW_RULE_MIN_LEN,
                                           NEW_RULE_MAX_LEN)):
                    if non_root and rng.below(2) == 1:
                        body.append(RuleRef(rng.choose(non_root)))
                    else:
                        body.append(Terminal(rng.choose(alphabet.notes)))
                out.append((h, ix, tuple(body)))
        return out
    if k == 19:
        return [(r,) for r in non_root]
    raise ValueError(f"unhandled kind {kind!r}")


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
    target space is tried in shuffled order, and applicability
    guarantees it contains a valid tuple.
    """
    kind = MutationKind(kind)
    if not applicable(g, kind):
        raise InapplicableMutationError(
            f"mutation {int(kind)} ({kind.code}) has no valid target here")
    op = _OPERATORS[kind]
    limit = 1 if targets is not None else MAX_ATTEMPTS
    attempt = 0
    for attempt in range(1, limit + 1):
        result = op(_rules_dict(g), alphabet, rng, targets)
        if result is None:
            continue
        new_rules, touched = result
        candidate = _to_grammar(new_rules)
        if validate_grammar(candidate).structural_ok:
            return MutationOutcome(kind, candidate, tuple(touched), attempt)
    if targets is not None:
        raise MutationTargetError(
            f"forced targets {targets!r} are invalid for mutation {int(kind)}")
    pool = _candidate_targets(kind, _rules_dict(g), alphabet, rng)
    rng.shuffle(pool)
    for cand in pool:
        attempt += 1
        result = op(_rules_dict(g), alphabet, rng, cand)
        if result is None:
            continue
        new_rules, touched = result
        candidate = _to_grammar(new_rules)
        if validate_grammar(candidate).structural_ok:
            return MutationOutcome(kind, candidate, tuple(touched), attempt)
    raise MutationTargetError(
        f"no structurally valid targets exist for mutation {int(kind)}; "
        f"applicability check out of step with the operator")


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
        if applicable(g, kind):
            return apply_mutation(g, kind, alphabet, rng)
    raise NoApplicableMutationError(
        "no non-excluded mutation kind applies to this grammar")
