"""The 19 grammar mutation operators and seeded random application.

Operators edit a grammar's structure, never expanding it first.  They
fall into families: 1-6 act on rule references, 7-12 on notes, 13-16
mix or reorder the two, 17-19 act on whole rules.

A mutation is decided on its target, a tuple naming the rules,
positions and symbols the edit uses (shapes in :func:`apply_mutation`),
before any rule is rewritten.  Targets come from two sources, and both
take one path: target, fit rule, edit, safety net.

- Drawn: ``_draw`` makes every random choice (rule, occurrence, index,
  span, symbol) uniformly from a :class:`RandomSource`.  Occurrences
  are drawn occurrence-uniform: each RuleRef or terminal occurrence in
  the whole grammar is equally likely, rather than first picking a
  rule.  A draw that would empty an rhs or finds no partner gives no
  target.  Draws go on until a target fits (rejection sampling), so
  the target is a draw conditioned on fitting, however many draws it
  takes: the fitting targets can be a sliver of the draw space, e.g.
  cycle-free rule pairs in a densely referencing grammar.  After
  ``MAX_ATTEMPTS`` misses the input is checked once.  On a
  structurally valid grammar an applicable kind has a fitting target,
  which each draw hits with a chance above zero, so the draws end;
  on any other, ``MutationTargetError`` is raised.
- Forced: the caller names the target and ``_is_target`` checks its
  ranges and symbol types.

The fit rule ``_fits`` is exact on a structurally valid grammar: an
edit there can only fail by closing a reference cycle or by taking out
the root (kind 19 takes out the rules it leaves empty, ``_taken_out``),
since every source rules out an emptied rhs.  ``_fits`` builds the
references a target adds and accepts it iff no added reference
``x -> c`` has ``c`` equal to ``x`` or reaching ``x`` in the grammar
before the edit (:attr:`~tunegram.model.Grammar.reach`).
A kind is applicable iff some target fits; kinds 6 and 17 count their
failing pairs instead of scanning them.  Only the accepted target is
applied: ``_edit`` returns a patch, the new rhs tuple of each rule it
creates or rewrites and None for each rule it removes.  The new grammar
lays the patch over the input's rhs map, so every other rule keeps the
input's own tuple, and the patch's ids are the outcome's ``touched``.
The result goes through ``validate_grammar``'s structural check once,
as a safety net against structurally invalid input; that check reads
the new grammar's one walk, which ``expand`` reuses.

Everything read off the input grammar (``rhs``, ``ids``, ``walk``,
``reach``, ``occurrences`` and each kind's applicability) is a fact
the grammar owns, computed once and shared; ``_run`` bisects a host's
own occurrences out of ``occurrences``.
"""

from __future__ import annotations

import random
import struct
from bisect import bisect_left
from collections import Counter
from _blake2 import blake2b  # hashlib's own; importing hashlib loads OpenSSL
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .model import (
    ROOT_ID,
    Grammar,
    MutationKind,
    NoteAlphabet,
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

#: Kind 18 is left out of random draws by default: new-rule injection
#: drowns out every other operator's effect in generated tunes.
DEFAULT_EXCLUDED = frozenset({MutationKind.ADD_RULE})


class InapplicableMutationError(TunegramError):
    """The requested kind has no valid target in this grammar."""


class MutationTargetError(TunegramError):
    """Forced targets were unusable, or the input grammar was not
    structurally valid (``MAX_ATTEMPTS`` draws missed, or the edit
    failed the safety net)."""


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


def derive_seed(*parts: int) -> int:
    """Mix integer coordinates into an independent 64-bit seed.

    Used to give every (tune, run, kind) its own RandomSource so corpus
    results do not depend on scheduling or worker count.  blake2b keeps
    the streams well separated; Python's hash() would not be stable
    across processes.
    """
    h = blake2b(digest_size=8)
    for part in parts:
        h.update(struct.pack(">Q", int(part) & 0xFFFFFFFFFFFFFFFF))
    return int.from_bytes(h.digest(), "big")


@dataclass(frozen=True)
class MutationOutcome:
    """Result of one mutation: the kind, the new (structurally valid,
    possibly non-canonical) grammar, the rule ids created, removed or
    edited, in the order the edit wrote them, and how many target draws
    it took.  Every rule not in ``touched`` is the input's own tuple."""

    kind: MutationKind
    grammar: Grammar
    touched: tuple[int, ...]
    attempts: int


def _choose_other(ids: list[int], x: int, rng: RandomSource) -> int:
    """``rng.choose`` over the sorted ``ids`` without ``x``, unranked
    instead of built; ``x`` need not be one of them."""
    j = bisect_left(ids, x)
    skip = j < len(ids) and ids[j] == x
    p = rng.below(len(ids) - skip)
    return ids[p + (skip and p >= j)]


def _run(occs: list[tuple[int, int]], host: int) -> tuple[int, int]:
    """``(start, stop)`` of ``host``'s run in ``occs``, sorted (host, index)s."""
    return bisect_left(occs, (host,)), bisect_left(occs, (host + 1,))


def _new_body(ids: list[int], alphabet: NoteAlphabet,
              rng: RandomSource) -> tuple[Symbol, ...]:
    """Kind 18's fresh rhs: a drawn length, then per symbol a coin flip
    between a reference to a non-root rule and a note."""
    body = []
    refs = ids != [ROOT_ID]  # some non-root rule to refer to
    for _ in range(rng.between(NEW_RULE_MIN_LEN, NEW_RULE_MAX_LEN)):
        if refs and rng.below(2) == 1:
            body.append(RuleRef(_choose_other(ids, ROOT_ID, rng)))
        else:
            body.append(Terminal(rng.choose(alphabet.notes)))
    return tuple(body)


def _taken_out(rules: Mapping[int, Sequence[Symbol]], order: Iterable[int],
               target: int) -> set[int]:
    """The rules that removing ``target`` takes out: ``target`` and every
    rule whose non-empty rhs holds only references to rules taken out.
    One pass over ``order``, a walk that lists each rule after the rules
    it references, so it is exact on an acyclic grammar."""
    taken = {target}
    for x in order:
        rhs = rules[x]
        for s in rhs:  # a loop, not all(): no generator per rule
            if not isinstance(s, RuleRef) or s.rule_id not in taken:
                break
        else:
            if rhs:
                taken.add(x)
    return taken


# ---------------------------------------------------------------------------
# targets: draw, check, enumerate, fit and edit (see the module docstring)


def _draw(kind, g: Grammar, alphabet, rng):
    """One random target of ``kind``, shaped as in :func:`apply_mutation`,
    or None when the drawn symbol's removal would empty its rhs, it has
    no partner, or the drawn rule is too short to hold a span.  It reads
    ``g.ids`` and ``g.occurrences`` and copies no whole-grammar list; a
    choice that skips some of their entries is unranked into them."""
    k = int(kind)
    rules, ids = g.rhs, g.ids
    if k == 1:
        ref = _choose_other(ids, ROOT_ID, rng)
        host = rng.choose(ids)
        return ref, host, rng.below(len(rules[host]) + 1)
    if k == 18:
        body = _new_body(ids, alphabet, rng)
        host = rng.choose(ids)
        return host, rng.below(len(rules[host]) + 1), body
    if k == 19:
        return (_choose_other(ids, ROOT_ID, rng),) if ids != [ROOT_ID] \
            else None
    if k in (7, 15, 16, 17):
        host = rng.choose(ids)
        n = len(rules[host])
        if k == 7:
            return host, rng.below(n + 1), rng.choose(alphabet.notes)
        if k == 15:
            return (host,)
        if k == 17:
            return host, _choose_other(ids, host, rng)
        if n < 3:
            return None
        # rng.choose over the length-major list of (start, length) spans,
        # unranked instead of built: that list holds O(n**2) spans.
        r = rng.below((n + 1) * (n - 2) // 2)
        for length in range(2, n):
            if r <= n - length:
                return host, r, length
            r -= n - length + 1
    occs = g.occurrences[Terminal if 8 <= k <= 12 else RuleRef]
    host, index = rng.choose(occs)
    n = len(rules[host])
    if k in (2, 8):
        return (host, index) if n > 1 else None
    if k in (3, 9):
        if n < 2:
            return None
        p = rng.below(n - 1)  # rng.choose over the positions but index
        return host, index, p + (p >= index)
    if k in (4, 10):
        if n < 2 or len(ids) < 2:
            return None  # moving out would empty the host
        other = _choose_other(ids, host, rng)
        return host, index, other, rng.below(len(rules[other]) + 1)
    if k in (13, 14):
        occs = g.occurrences[Terminal]
    start, stop = _run(occs, host)
    if k in (5, 11, 13):  # a partner in the host
        partners = [i for _, i in occs[start:stop] if i != index]
        return (host, index, rng.choose(partners)) if partners else None
    # rng.choose over the partners in other rules: occs without the
    # host's own occurrences, which form one run
    if len(occs) == stop - start:
        return None
    p = rng.below(len(occs) - (stop - start))
    return (host, index, *occs[p if p < start else p + stop - start])


def _is_target(kind, rules, alphabet, t) -> bool:
    """True iff the forced target ``t`` names symbols and positions that
    exist, of the kind's symbol types, in distinct rules where the kind
    needs two, leaves no rhs empty, and (kind 7) inserts a note of the
    alphabet.  Whether its edit would close a cycle is :func:`_fits`'s
    question.  Constant time for every kind but 18, whose body is read.
    A target of the wrong shape may raise TypeError or ValueError."""
    k = int(kind)
    typ = RuleRef if k <= 6 else Terminal

    def num(x):  # an int, not a bool
        return isinstance(x, int) and not isinstance(x, bool)

    if not all(map(num, t[:-1] if k == 18 else t)):
        return False

    def at(h, i, want):  # (h, i) holds a symbol of type want
        return h in rules and 0 <= i < len(rules[h]) \
            and isinstance(rules[h][i], want)

    def gap(h, i):  # (h, i) is an insertion point
        return h in rules and 0 <= i <= len(rules[h])

    if k == 1:
        ref, host, index = t
        return ref in rules and ref != ROOT_ID and gap(host, index)
    if k in (2, 8):
        host, index = t
        return at(host, index, typ) and len(rules[host]) > 1
    if k in (3, 9):
        host, index, new_index = t
        return at(host, index, typ) and new_index != index \
            and 0 <= new_index < len(rules[host])
    if k in (4, 10):
        host, index, other, new_index = t
        return at(host, index, typ) and len(rules[host]) > 1 \
            and other != host and gap(other, new_index)
    if k in (5, 11):
        host, i, j = t
        return i != j and at(host, i, typ) and at(host, j, typ)
    if k in (6, 12):
        h1, i1, h2, i2 = t
        return h1 != h2 and at(h1, i1, typ) and at(h2, i2, typ)
    if k == 13:
        host, i, j = t
        return at(host, i, RuleRef) and at(host, j, Terminal)
    if k == 14:
        h1, i, h2, j = t
        return h1 != h2 and at(h1, i, RuleRef) and at(h2, j, Terminal)
    if k == 7:
        host, index, value = t
        return gap(host, index) and value in alphabet
    if k == 15:
        (host,) = t
        return host in rules
    if k == 16:
        host, start, length = t
        return host in rules and 2 <= length < len(rules[host]) \
            and 0 <= start <= len(rules[host]) - length
    if k == 17:
        a, b = t
        return a in rules and b in rules and a != b
    if k == 18:
        host, index, body = t
        return gap(host, index) and len(body) > 0 and all(
            num(s.value) if isinstance(s, Terminal) else
            isinstance(s, RuleRef) and num(s.rule_id) and s.rule_id in rules
            for s in body)
    (target,) = t  # kind 19
    return target in rules and target != ROOT_ID


def _targets(kind, g: Grammar):
    """Every target tuple the kind's random draw could produce, lazily,
    for every kind but 7 and 18, which :func:`_decide` answers itself.

    Shapes match the forced-``targets`` contract of
    :func:`apply_mutation`; of the symmetric pairs (kinds 5, 6, 11, 12
    and 17) one order is listed.  Targets are filtered only for the
    cheap local conditions the draw itself enforces (the rhs that would
    be emptied, the partner that must exist); whether the edit would
    close a reference cycle is :func:`_fits`'s question.
    """
    rules, ids = g.rhs, g.ids
    k = int(kind)
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


def _fits(kind, g: Grammar, t) -> bool:
    """True iff applying target ``t`` of ``kind`` to the acyclic
    grammar ``g`` gives a structurally valid grammar.

    Kind 19 fits iff the rules its removal takes out
    (:func:`_taken_out`) spare the root.  Every other kind fits iff no
    reference ``x -> c`` it adds has ``x == c`` or ``x`` reachable from
    ``c``.  A kind that moves notes, or removes or reorders references
    within one rule, adds none and fits at once, never reading
    ``g.reach``.  That is exact: a new cycle must use an added
    reference; a shortest one that used a removed reference would close
    an old cycle, and for kinds 6 and 17 one through both added
    references does too.  For a definition swap (kind 17) of ``a`` and
    ``b`` the rule reduces to: neither rule reaches the other.
    """
    k, rules = int(kind), g.rhs
    if k == 19:
        return ROOT_ID not in _taken_out(rules, g.walk[0], t[0])
    if k == 17:
        a, b = t
        return a not in g.reach[b] and b not in g.reach[a]
    if k == 1:
        ref, host, _ = t
        added = [(host, ref)]
    elif k in (4, 14):
        host, index, other, _ = t
        added = [(other, rules[host][index].rule_id)]
    elif k == 6:
        h1, i1, h2, i2 = t
        a, b = rules[h1][i1].rule_id, rules[h2][i2].rule_id
        added = [(h2, a), (h1, b)] if a != b else []
    elif k == 18:
        host, _, body = t
        added = [(host, s.rule_id) for s in body if isinstance(s, RuleRef)]
    else:
        return True
    return not any(x == c or x in g.reach.get(c, ()) for x, c in added)


def _edit(kind, g: Grammar, t) -> dict[int, tuple[Symbol, ...] | None]:
    """The patch that applies target ``t`` of ``kind`` to ``g``: the new
    rhs of each rule it creates or rewrites, and None for each rule it
    removes.  The rules ``g`` keeps are left alone, to be shared.  ``t``
    must pass :func:`_is_target` (a drawn or enumerated one does) and
    :func:`_fits`."""
    k, rules = int(kind), g.rhs
    if k == 1:
        ref, host, index = t
        rhs = rules[host]
        return {host: rhs[:index] + (RuleRef(ref),) + rhs[index:]}
    if k in (2, 8):
        host, index = t
        rhs = rules[host]
        return {host: rhs[:index] + rhs[index + 1:]}
    if k in (3, 9):
        host, index, new_index = t
        rhs = list(rules[host])
        rhs.insert(new_index, rhs.pop(index))
        return {host: tuple(rhs)}
    if k in (4, 10):
        host, index, other, new_index = t
        rhs, dest = rules[host], rules[other]
        return {host: rhs[:index] + rhs[index + 1:],
                other: dest[:new_index] + (rhs[index],) + dest[new_index:]}
    if k in (5, 11, 13):
        host, i, j = t
        rhs = list(rules[host])
        rhs[i], rhs[j] = rhs[j], rhs[i]
        return {host: tuple(rhs)}
    if k in (6, 12, 14):
        h1, i1, h2, i2 = t
        r1, r2 = rules[h1], rules[h2]
        return {h1: r1[:i1] + (r2[i2],) + r1[i1 + 1:],
                h2: r2[:i2] + (r1[i1],) + r2[i2 + 1:]}
    if k == 7:
        host, index, value = t
        rhs = rules[host]
        return {host: rhs[:index] + (Terminal(value),) + rhs[index:]}
    if k == 15:
        (host,) = t
        return {host: rules[host][::-1]}
    if k == 16:
        host, start, length = t
        rhs, stop = rules[host], start + length
        return {host: rhs[:start] + rhs[start:stop][::-1] + rhs[stop:]}
    if k == 17:
        a, b = t
        return {a: rules[b], b: rules[a]}
    if k == 18:
        host, index, body = t
        new_id = max(rules) + 1
        rhs = rules[host]
        return {new_id: tuple(body),
                host: rhs[:index] + (RuleRef(new_id),) + rhs[index:]}
    taken = _taken_out(rules, g.walk[0], t[0])  # kind 19
    patch = {}
    for x, rhs in rules.items():
        if x in taken:
            patch[x] = None
        elif any(isinstance(s, RuleRef) and s.rule_id in taken for s in rhs):
            # tuple() of a list, not of a generator: that one is built at a
            # guessed size and resized, and the resized tuples pile up in
            # CPython's tuple free lists, which raised peak RSS
            patch[x] = tuple([s for s in rhs if not (
                isinstance(s, RuleRef) and s.rule_id in taken)])
    return patch


def applicable(g: Grammar, kind: MutationKind) -> bool:
    """True iff some concrete choice of targets lets apply_mutation
    succeed: some target of the kind fits (see :func:`_fits`).  Kinds 6
    and 17 count their failing pairs instead, exact on acyclic input.
    Decided once per grammar and kind; ``g`` keeps the answer."""
    kind = MutationKind(kind)
    memo = g._applicable
    if kind not in memo:
        memo[kind] = _decide(g, kind)
    return memo[kind]


def _decide(g: Grammar, kind: MutationKind) -> bool:
    if kind in (MutationKind.ADD_NOTE, MutationKind.ADD_RULE):
        return bool(g.rhs)  # notes, or a rule of notes, fit in any rule
    rules = g.rhs
    if kind == MutationKind.SWAP_RULE_REFS_ACROSS:
        occs = g.occurrences[RuleRef]
        referents = [rules[h][i].rule_id for h, i in occs]
        own = Counter(h for h, _ in occs)  # refs hosted
        host_of: dict[int, int] = {}
        for (h, _), r in zip(occs, referents):
            if host_of.setdefault(r, h) != h:
                return True  # swapping two references to r adds none
        # Now the two referents of a pair across hosts differ, and the
        # pair fails iff one is the other's host or reaches it; both ways
        # would close a cycle, so at most one way holds.  An occurrence of
        # r thus fails with exactly the weight[r] references hosted in r
        # or in a rule r reaches, and some pair fits iff the pairs across
        # hosts outnumber the failing ones.
        weight = {r: own[r] + sum(map(own.__getitem__, g.reach[r]))
                  for r in host_of if r in rules}
        n = len(occs)
        cross = n * (n - 1) // 2 - sum(m * (m - 1) // 2 for m in own.values())
        return cross > sum(weight.get(r, 0) for r in referents)
    if kind == MutationKind.SWAP_DEFINITIONS:
        # Acyclic: each unordered pair of rules is reachable one way at
        # most, so the reachable pairs number sum(|reach[x]|), and some
        # pair is free of reachability iff that falls short of C(R, 2).
        n = len(rules)
        return sum(map(len, g.reach.values())) < n * (n - 1) // 2
    return any(_fits(kind, g, t) for t in _targets(kind, g))


def apply_mutation(
    g: Grammar,
    kind: MutationKind,
    alphabet: NoteAlphabet,
    rng: RandomSource,
    *,
    targets: tuple | None = None,
) -> MutationOutcome:
    """Apply one mutation of the given kind, drawing targets from rng.

    ``targets`` forces the draw's choices instead (used by golden
    tests); its shape is kind-specific, matching the order the draw
    makes them:

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
    MutationTargetError when forced targets are unusable (attempts is
    then 1).  Targets are drawn until one fits, and ``attempts`` counts
    the draws.  After MAX_ATTEMPTS misses the input is checked once;
    MutationTargetError is raised if it is not structurally valid.
    Otherwise applicability guarantees a fitting target that a draw can
    hit, and drawing goes on.

    Only the accepted target is applied, as a patch of the rules it
    rewrites; every other rule is shared with ``g``.  The result passes
    :func:`validate_grammar`'s structural check.  On a structurally
    valid grammar that check cannot fail.  If it does, the input was not
    structurally valid, and MutationTargetError is raised at once: no
    further targets are tried in the hope that one repairs the input.
    """
    kind = MutationKind(kind)
    if not applicable(g, kind):
        raise InapplicableMutationError(
            f"mutation {int(kind)} ({kind.code}) has no valid target here")
    if targets is not None:
        try:
            usable = _is_target(kind, g.rhs, alphabet, targets)
        except (TypeError, ValueError):  # wrong shape or slot type
            usable = False
        if not (usable and _fits(kind, g, targets)):
            raise MutationTargetError(f"forced targets {targets!r} are "
                                      f"invalid for mutation {int(kind)}")
        t, attempts = targets, 1
    else:
        t, attempts = None, 0
        while t is None or not _fits(kind, g, t):
            if attempts == MAX_ATTEMPTS and \
                    not validate_grammar(g).structural_ok:
                raise MutationTargetError(
                    f"no target fits mutation {int(kind)} in {attempts} "
                    f"draws: the input grammar is not structurally valid")
            t = _draw(kind, g, alphabet, rng)
            attempts += 1
    patch = _edit(kind, g, t)
    # The rules keep id order: a rewritten rule keeps its place, and
    # kind 18's new id is the highest, so it lands last.
    grammar = Grammar._from_rhs({
        i: rhs for i, rhs in {**g.rhs, **patch}.items() if rhs is not None})
    report = validate_grammar(grammar)
    if not report.structural_ok:
        raise MutationTargetError(
            f"mutation {int(kind)} gave an invalid grammar "
            f"({report.structural_violations[0]}): the input grammar is "
            f"not structurally valid")
    return MutationOutcome(kind, grammar, tuple(patch), attempts)


def _draw_pool(excluded: Iterable[int]) -> list[MutationKind]:
    """The kinds not in ``excluded``, in index order; excluding every
    kind is a ``ValueError``."""
    excluded = frozenset(MutationKind(k) for k in excluded)
    pool = [k for k in MutationKind if k not in excluded]
    if not pool:
        raise ValueError("cannot exclude every mutation kind")
    return pool


def random_mutation(
    g: Grammar,
    alphabet: NoteAlphabet,
    rng: RandomSource,
    excluded: frozenset[MutationKind] = DEFAULT_EXCLUDED,
) -> MutationOutcome:
    """Draw a kind uniformly from the non-excluded kinds and apply it.

    Inapplicable kinds are redrawn without replacement, so the chosen
    kind is uniform over the applicable non-excluded ones.
    """
    pool = _draw_pool(excluded)
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
