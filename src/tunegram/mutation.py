"""The 19 grammar mutation operators and seeded random application.

Operators edit a grammar's structure, never expanding it first.  They
fall into families: 1-6 act on rule references, 7-12 on notes, 13-16
mix or reorder the two, 17-19 act on whole rules.

A mutation is decided on its target, a tuple naming the rules,
positions and symbols the edit uses (shapes in :func:`_edit`), before
any rule is rewritten.  The input is checked once, before any target:
a grammar with any structural violation (``validate_grammar``) raises
``MutationTargetError`` on the first, before any draw, even where some
target would repair it.  Every target is drawn, and takes one path:
draw, fit rule, edit.

``_draw`` makes every random choice (rule, occurrence, index, span,
symbol) uniformly from a :class:`RandomSource`.  Occurrences are drawn
occurrence-uniform: each RuleRef or terminal occurrence in the whole
grammar is equally likely, rather than first picking a rule.  A draw
that would empty an rhs or finds no partner gives no target.  Draws go
on until a target fits (rejection sampling), so the target is a draw
conditioned on fitting, however many draws it takes: the fitting
targets can be a sliver of the draw space, e.g. cycle-free rule pairs
in a densely referencing grammar.  The input is structurally valid, so
an applicable kind has a fitting target, which each draw hits with a
chance above zero, and the draws end.

The fit rule ``_fits`` is exact on a structurally valid grammar: an
edit there can only fail by closing a reference cycle or by taking out
the root (kind 19 takes out the rules it leaves empty), since no draw
empties an rhs.  Each fit is one test of a rule's bit
(:meth:`~tunegram.model.Grammar.bit`) in the input's masks: kind 19
fits iff the root does not need the removed rule
(:attr:`~tunegram.model.Grammar.needs`), every other kind iff no
reference ``x -> c`` it adds has ``c`` equal to ``x`` or reaching ``x``
(:attr:`~tunegram.model.Grammar.reach`).  A kind is applicable iff some
target fits, which ``_decide`` reads off the occurrences, the rhs
lengths and those masks, never listing targets.  Only the accepted
target is applied (``_outcome``): ``_edit`` returns a patch, the new
rhs tuple of each rule it creates or rewrites and None for each rule it
removes.  The new grammar lays the patch over the input's rhs map, so
every other rule keeps the input's own tuple, and the patch's ids are
the outcome's ``touched``.  Since ``_fits`` is exact on the checked
input, the result is structurally valid without a check of its own,
and nothing here walks it.

Everything read off the input grammar (its views, structural
violations and applicability) is a fact the grammar owns, computed once
and shared.
"""

from __future__ import annotations

import struct
from bisect import bisect_left
from _blake2 import blake2b  # hashlib's own; importing hashlib loads OpenSSL
from _random import Random as _MT19937  # random.Random's C core
from dataclasses import dataclass
from typing import Iterable, Sequence

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

#: Draws after which a mutation counts as starved.  Drawing goes on
#: past it (see the module docstring); the benchmark's
#: ``mutation.fallback.count`` counts the mutations that took more.
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
    """The input grammar was not structurally valid, so no target was
    drawn."""


class NoApplicableMutationError(TunegramError):
    """Every non-excluded kind is inapplicable to this grammar."""


def check_seed(seed: int) -> int:
    """``seed`` itself if it is an int (TypeError, also for a bool) that
    fits in 64 unsigned bits (else ValueError): the one check of every
    seed a caller passes in."""
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise TypeError(f"seed must be an int, got {seed!r}")
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must fit in 64 unsigned bits, got {seed}")
    return seed


class RandomSource:
    """A deterministic random stream with a 64-bit unsigned seed.

    It holds the Mersenne Twister MT19937 core of CPython's
    ``random.Random`` (its C class, with the same documented seeding)
    and draws as ``random.Random`` does: :meth:`below` is its
    ``getrandbits`` rejection loop, so :meth:`below`, :meth:`between`
    and :meth:`choose` give ``randrange``, ``randint`` and ``choice``
    of ``random.Random(seed)``, on every platform.  :meth:`reseed`
    restarts the stream in place, exactly as a new source of that seed
    would start.  A source pickles and copies with its stream's state.
    A source is single-owner: never share one between concurrent runs;
    derive per-run seeds with :func:`derive_seed` instead.
    """

    __slots__ = ("seed", "_mt", "_bits")

    def __init__(self, seed: int) -> None:
        self.seed = check_seed(seed)
        self._mt = _MT19937(seed)
        self._bits = self._mt.getrandbits

    # The C generator cannot be pickled or copied; its state tuple can.
    def __getstate__(self) -> tuple:
        return self.seed, self._mt.getstate()

    def __setstate__(self, state: tuple) -> None:
        seed, mt_state = state
        self.__init__(seed)
        self._mt.setstate(mt_state)

    def reseed(self, seed: int) -> None:
        """Restart as ``RandomSource(seed)``, without building a new
        generator (cheaper than a new source)."""
        self.seed = check_seed(seed)
        self._mt.seed(seed)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n): draws of ``n.bit_length()`` bits
        until one is below ``n``."""
        k = int.bit_length(n)  # TypeError for a bound that is not an int
        if n <= 0:
            raise ValueError(f"need a positive bound, got {n}")
        bits = self._bits
        r = bits(k)
        while r >= n:
            r = bits(k)
        return r

    def between(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], both ends included."""
        return lo + self.below(hi - lo + 1)

    def choose(self, items: Sequence):
        """Uniform element of a non-empty sequence."""
        return items[self.below(len(items))]


def _feed(h, parts: Iterable[int]):
    """``h`` after it hashes each part's 8 big-endian bytes, each part
    checked as a seed (see :func:`check_seed`): the one encoding of
    :func:`derive_seed` and :func:`_derive_seeds`."""
    for part in parts:
        h.update(struct.pack(">Q", check_seed(part)))
    return h


def derive_seed(*parts: int) -> int:
    """Mix integer coordinates into an independent 64-bit seed.

    Used to give every (tune, run, kind) its own RandomSource so corpus
    results do not depend on scheduling or worker count.  blake2b keeps
    the streams well separated; Python's hash() would not be stable
    across processes.  Each part must be a seed itself (see
    :func:`check_seed`), so no two part tuples share their bytes.
    """
    return int.from_bytes(_feed(blake2b(digest_size=8), parts).digest(), "big")


def _derive_seeds(seed: int, parts: Iterable[int]) -> list[int]:
    """``[derive_seed(seed, part) for part in parts]``, with ``seed``
    hashed once: each part goes into a copy of that hash state."""
    stem = _feed(blake2b(digest_size=8), (seed,))
    return [int.from_bytes(_feed(stem.copy(), (part,)).digest(), "big")
            for part in parts]


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


# ---------------------------------------------------------------------------
# targets: draw, fit and edit (see the module docstring)


def _draw(kind, g: Grammar, alphabet, rng):
    """One random target of ``kind``, shaped as in :func:`_edit`,
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
    me = rng.below(len(occs))  # rng.choose(occs), keeping the place
    host, index = occs[me]
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
    if k in (5, 11, 13):  # rng.choose over the host's run but the drawn one
        own = k != 13  # kind 13's run holds notes, not the drawn reference
        if stop - start == own:
            return None
        p = start + rng.below(stop - start - own)
        return host, index, occs[p + (own and p >= me)][1]
    # rng.choose over the partners in other rules: occs without the
    # host's own occurrences, which form one run
    if len(occs) == stop - start:
        return None
    p = rng.below(len(occs) - (stop - start))
    return (host, index, *occs[p if p < start else p + stop - start])


def _fits(kind, g: Grammar, t) -> bool:
    """True iff applying target ``t`` of ``kind`` to the acyclic
    grammar ``g`` gives a structurally valid grammar; one bit test.

    Kind 19 fits iff the root does not need the removed rule
    (:attr:`~tunegram.model.Grammar.needs`).  Every other kind fits iff
    no reference ``x -> c`` it adds has ``x == c`` or ``x`` in
    ``reach[c]``.  A kind that moves notes, or removes or reorders
    references within one rule, adds none and fits at once, never
    reading ``g.reach``.  That is exact: a new cycle must use an added
    reference; a shortest one that used a removed reference would close
    an old cycle, and for kinds 6 and 17 one through both added
    references does too.  For a definition swap (kind 17) of ``a`` and
    ``b`` the rule reduces to: neither rule reaches the other.
    """
    k, rules = int(kind), g.rhs
    if k == 19:  # needs[ROOT_ID] leaves out the root's own bit
        return t[0] != ROOT_ID and not g.needs[ROOT_ID] & g.bit(t[0])
    if k == 17:
        a, b = t
        return not (g.reach[a] & g.bit(b) or g.reach[b] & g.bit(a))
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
    return not any(x == c or g.reach[c] & g.bit(x) for x, c in added)


def _edit(kind, g: Grammar, t) -> dict[int, tuple[Symbol, ...] | None]:
    """The patch that applies target ``t`` of ``kind`` to ``g``: the new
    rhs of each rule it creates or rewrites, and None for each rule it
    removes.  The rules ``g`` keeps are left alone, to be shared.  ``t``
    must be a target :func:`_draw` can give and pass :func:`_fits`.  Its
    shape is kind-specific, in the order the draw makes its choices:

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
    """
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
    removed = g.bit(t[0])  # kind 19: out go it and the rules that need it
    taken = {x for x, m in g.needs.items() if x == t[0] or m & removed}
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
    succeed: some target of the kind fits (see :func:`_fits`), in closed
    form (:func:`_decide`), exact on acyclic input, a bool on any input.
    Decided once per grammar and kind; ``g`` keeps the answer."""
    ok = g._applicable.get(kind)  # a plain int finds its member's entry
    if ok is None:
        if type(kind) is not MutationKind:
            kind = MutationKind(kind)
        ok = g._applicable[kind] = _decide(g, kind)
    return ok


def _decide(g: Grammar, kind: MutationKind) -> bool:
    """Whether some target of ``kind`` fits in ``g`` (R rules), read off
    its occurrences, rhs lengths and masks.  A kind that adds no
    reference fits wherever it has a target: a symbol to take out of a
    longer rhs, a partner, a span.  One that adds ``x -> c`` needs an
    ``x`` outside ``bit(c) | reach[c]``; kind 19 a rule the root does
    not need."""
    k, rules, n = int(kind), g.rhs, len(g.rhs)
    if k in (7, 15, 18):
        return n > 0  # notes, or a rule of notes, fit in any rule
    if k == 16:
        return any(len(rhs) > 2 for rhs in rules.values())
    if k == 19:  # a rule besides the root and the rules it needs
        return n - (ROOT_ID in rules) > g.needs.get(ROOT_ID, 0).bit_count()
    if k == 1:
        bit, reach = g.bit, g.reach
        return any((bit(r) | reach[r]).bit_count() < n
                   for r in g.ids if r != ROOT_ID)
    if k == 17:
        # Acyclic: each unordered pair of rules is reachable one way at
        # most, so the reachable pairs number the reach masks' bits, and
        # some pair is free of reachability iff that falls short of C(R, 2).
        return sum(m.bit_count() for m in g.reach.values()) < n * (n - 1) // 2
    refs, notes = g.occurrences[RuleRef], g.occurrences[Terminal]
    occs = refs if k <= 6 else notes
    if k in (2, 3, 8, 9, 10):
        return (k != 10 or n > 1) and any(len(rules[h]) > 1 for h, _ in occs)
    if k in (5, 11):  # a host's occurrences form one run
        return any(a[0] == b[0] for a, b in zip(occs, occs[1:]))
    if k == 12:
        return bool(notes) and notes[0][0] != notes[-1][0]
    if k == 13:
        return not {h for h, _ in refs}.isdisjoint(h for h, _ in notes)
    if k in (4, 14):
        # A reference c moves from h1 to some rule h2 (kind 4: any rule;
        # kind 14: one that holds a note) outside bit(h1) | bit(c) | reach[c].
        bit, reach = g.bit, g.reach
        hosts = (1 << n) - 1 if k == 4 else \
            sum(bit(h) for h in {h for h, _ in notes})
        moves = {(h, rules[h][i].rule_id) for h, i in refs
                 if k == 14 or len(rules[h]) > 1}
        return any(hosts & ~(bit(h) | (bit(c) | reach[c] if c in reach else 0))
                   for h, c in moves)
    # Kind 6.  Swapping two references to one rule adds none.
    host_of: dict[int, int] = {}
    for h, i in refs:
        if host_of.setdefault(rules[h][i].rule_id, h) != h:
            return True
    # Now the two referents of a pair across hosts differ, and the pair
    # fails iff one is the other's host or reaches it; both ways would
    # close a cycle, so at most one way holds.  An occurrence of r thus
    # fails with exactly the references hosted in r or in a rule r
    # reaches: the bits of under[r], an OR-fold of each host's run of
    # places in refs.  Some pair fits iff the pairs across hosts
    # outnumber the failing ones.
    under, cross = {}, len(refs) * (len(refs) - 1) // 2
    for x in g.walk[0]:
        start, stop = _run(refs, x)
        cross -= (stop - start) * (stop - start - 1) // 2  # pairs within x
        m = (1 << stop) - (1 << start)
        for s in rules[x]:
            if isinstance(s, RuleRef):
                m |= under.get(s.rule_id, 0)
        under[x] = m
    return cross > sum(under.get(rules[h][i].rule_id, 0).bit_count()
                       for h, i in refs)


def apply_mutation(
    g: Grammar,
    kind: MutationKind,
    alphabet: NoteAlphabet,
    rng: RandomSource,
) -> MutationOutcome:
    """Apply one mutation of the given kind, drawing its target from rng.

    Raises InapplicableMutationError when the precondition fails, then
    MutationTargetError, before any draw, if :func:`validate_grammar`
    finds the input not structurally valid.  Targets are drawn until
    one fits, and ``attempts`` counts the draws; applicability
    guarantees a fitting target that a draw can hit, so drawing goes on
    past MAX_ATTEMPTS.
    """
    if type(kind) is not MutationKind:
        kind = MutationKind(kind)
    if not applicable(g, kind):
        raise InapplicableMutationError(
            f"mutation {int(kind)} ({kind.code}) has no valid target here")
    violations = validate_grammar(g)
    if violations:
        raise MutationTargetError(
            f"the input grammar is not structurally valid ({violations[0]})")
    t, attempts = None, 0
    while t is None or not _fits(kind, g, t):
        t = _draw(kind, g, alphabet, rng)
        attempts += 1
    return _outcome(kind, g, t, attempts)


def _outcome(kind: MutationKind, g: Grammar, t,
             attempts: int) -> MutationOutcome:
    """The mutation that applies the fitting target ``t`` to ``g``; every
    rule the patch leaves alone is shared with ``g``.  Not walked."""
    patch = _edit(kind, g, t)
    # The rules keep id order: a rewritten rule keeps its place, and
    # kind 18's new id is the highest, so it lands last.
    rhs = g.rhs.copy()
    rhs.update(patch)
    if kind == MutationKind.REMOVE_RULE:  # the one patch that holds None
        rhs = {i: r for i, r in rhs.items() if r is not None}
    return MutationOutcome(kind, Grammar._from_rhs(rhs), tuple(patch),
                           attempts)


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
