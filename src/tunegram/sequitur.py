"""Online grammar induction for tunes (Sequitur).

This is the incremental digram algorithm of Nevill-Manning and Witten:
symbols are appended one at a time while two invariants are enforced,
digram uniqueness (no adjacent pair occurs twice, overlapping pairs of
equal symbols excepted) and rule utility (every rule other than the
root is used at least twice).  Repeated digrams become rules, rules
whose use count drops to one are inlined again.  As in the reference
implementation, each rule carries only a count of its uses, and only
the first symbol of a rule just made or reused is tested for a single
use (README gives the counts behind this).  ``induce`` runs on two
closures that call each other, ``match`` and ``substitute``.

The working representation is int-coded, with dense symbol codes.  The
tune's distinct notes are coded ``0 .. base - 1`` in order of first
appearance, so ``base`` is the alphabet size; rule symbols follow from
``base`` in creation order, the root first.  A symbol is a rule exactly
when it is at least ``base``, and the per-rule tables (use count, guard
node) are lists indexed by symbol, whose entries below ``base`` are
never read.  Induction compares notes only for equality, so coding
them this way changes no grammar; the public API maps the codes back
into the immutable :class:`~tunegram.model.Grammar`.

A node is an index into flat ``prv``/``nxt``/``val`` lists, and each
rule is a circular list hung off a guard node.  Node 0 is the root's
guard and node ``i`` (1..n) is note ``i - 1``, laid out before the
first note is read; appending a note only links its node in.  Rule
nodes are appended after them.  The digram index maps a pair ``x, y``
to its one recorded occurrence under the int key ``x * W + y``, which
is one-to-one for symbols below ``W`` (see ``induce`` for the bound).

A substitution rewrites the digram's first node in place into the
rule use and kills only the second node, so nodes are appended only
for new rules.  A node's value therefore changes, but only to a rule
whose expansion strictly extends the old value's, so it never changes
back.  A node id held across a cascade is stale exactly when the node
is dead or its value has changed.
"""

from __future__ import annotations

from typing import Sequence

from .model import (
    ROOT_ID,
    EmptyTuneError,
    Grammar,
    GrammarStructureError,
    RuleRef,
    Symbol,
    Terminal,
    Tune,
    TuneTooShortError,
    UnknownRuleError,
)

__all__ = [
    "induce",
    "expand",
    "expand_rule",
    "pai",
    "to_intervals",
]


def induce(tune: Sequence[int]) -> Grammar:
    """Parse a tune into a canonical grammar.

    Rule ids come out dense, with 0 as the root, numbered in creation
    order.  The same tune always yields the same grammar.
    """
    n = len(tune)
    if n == 0:
        raise EmptyTuneError("cannot induce a grammar from an empty tune")
    if not {int}.issuperset(map(type, tune)):
        for note in tune:
            if isinstance(note, bool) or not isinstance(note, int):
                raise TypeError(f"tune elements must be ints, got {note!r}")
    # Code the notes in order of first appearance, then keep only the
    # code -> note list: the note -> code map can be as large as the tune.
    notes = dict.fromkeys(tune)
    for code, note in enumerate(notes):
        notes[note] = code
    base = len(notes)
    val = [base, *map(notes.__getitem__, tune)]
    notes = list(notes)
    # Rule s is the symbol base + s, the root's base.  Count the symbols
    # in the live rules' bodies: a note adds one, making a rule keeps
    # the count (two digrams become two uses, plus a two-symbol body),
    # and reusing or inlining a rule drops it by one.  The count stays
    # at least 1 plus 2 per live rule besides the root, so at most
    # n - 1 rules are ever inlined and at most (n - 1) / 2 are live:
    # fewer than 1.5n are made, every symbol is below W, and x * W + y
    # keys the digram x, y one to one.
    W = base + 2 * n + 2
    # Node 0 is the root's guard and node i (1..n) is note i - 1.
    prv = [0] * (n + 1)
    nxt = [0] * (n + 1)
    state = bytearray(b"\1") * (n + 1)  # per node: 0 dead, 1 symbol, 2 guard
    state[0] = 2
    # symbol -> guard node, None for a note or once inlined
    guards: list[int | None] = [None] * base + [0]
    uses = [0] * (base + 1)  # symbol -> how many live nodes hold it
    index: dict[int, int] = {}  # digram key -> its first node
    setdefault = index.setdefault
    get = index.get

    def match(new_first: int, old_first: int) -> None:
        old_second = nxt[old_first]
        a = val[old_first]
        b = val[old_second]
        old_prev = prv[old_first]
        if state[old_prev] == 2 and state[nxt[old_second]] == 2:
            # The recorded occurrence is the entire rhs of a rule:
            # reuse that rule instead of making a nested copy.
            substitute(new_first, val[old_prev])
            use = old_first
        else:
            rule = len(guards)
            g = len(val)  # the new rule's guard, then its two nodes
            prv.extend((g + 2, g, g + 1))
            nxt.extend((g + 1, g + 2, g))
            val.extend((rule, a, b))
            state.extend(b"\2\1\1")
            guards.append(g)
            uses.append(0)
            uses[a] += 1
            uses[b] += 1
            # Index the rule body as the canonical occurrence before
            # rewriting, so any digram re-formed by the cascade below
            # matches the rule instead of racing it.
            index[a * W + b] = g + 1
            substitute(old_first, rule)
            # The first substitution's cascade may already have replaced
            # this occurrence too, by a use of the same rule.
            if state[new_first] and val[new_first] == a:
                substitute(new_first, rule)
            use = g + 1
        # Rule utility: folding both occurrences may have left the
        # digram's first symbol with one use, ``use``; as in the reference
        # implementation, the second is not tested.  ``use`` opens the
        # two-symbol body, which a cascade reuses whole and leaves alone,
        # so the node before it is the body's guard and the splice has a
        # seam on the right only.  An inlined rule's count stays 0.
        if a >= base and uses[a] == 1:
            first = nxt[guards[a]]
            last = prv[guards[a]]
            after = nxt[use]  # the body's second node, still b
            if get(k := a * W + b) == use:
                del index[k]
            uses[a] = 0
            state[use] = 0
            guards[a] = None
            # The spliced body keeps its digrams and their index entries.
            prv[first] = prev = prv[use]
            nxt[prev] = first
            nxt[last] = after
            prv[after] = last
            found = setdefault(val[last] * W + b, last)  # the right seam
            if found != last and nxt[found] != last and found != after:
                match(last, found)

    def substitute(first: int, rule: int) -> None:
        """Turn ``first`` into a use of ``rule``, the digram it opens."""
        second = nxt[first]
        prev = prv[first]
        after = nxt[second]
        a = val[first]
        b = val[second]
        c = val[after]
        p = val[prev]
        # Drop the index entries of the digrams on either side, each only
        # if it records this very occurrence.  Neither ``first`` nor
        # ``second`` is ever a guard.  The entry of (a, b) never records
        # ``first``: the caller, ``match``, has it record the rule body
        # it reuses or has just built, and substitutes elsewhere.
        if state[prev] != 2 and get(k := p * W + a) == prev:
            del index[k]
        if state[after] != 2 and get(k := b * W + c) == second:
            del index[k]
        uses[a] -= 1
        uses[b] -= 1
        uses[rule] += 1
        state[second] = 0
        val[first] = rule
        nxt[first] = after
        prv[after] = first
        # Recheck the seams.  If the left seam rewrote, it has already
        # dealt with the neighbourhood, so the right one is left alone.
        # A pair overlapping its recorded occurrence (x x x) is kept.
        left = False
        if state[prev] == 1:
            found = setdefault(p * W + rule, prev)
            left = found != prev and nxt[found] != prev and found != first
            if left:
                match(prev, found)
        if not left and state[after] == 1:
            found = setdefault(rule * W + c, first)
            if found != first and nxt[found] != first and found != after:
                match(first, found)
        # Runs of equal symbols need one more look: if ``second`` opened
        # a run (x x x), its index entry died with it and the surviving
        # overlapped pair at ``after`` would otherwise go unindexed.
        # A cascade above may have made ``after`` stale: dead, or reused
        # with another value.
        if state[after] == 1 and val[after] == c:
            d = nxt[after]
            if state[d] == 1:
                found = setdefault(c * W + val[d], after)
                if found != after and nxt[found] != after and found != d:
                    match(after, found)

    # The first note opens the root; from then on the root never
    # empties, so the node before the root's guard is always a symbol.
    nxt[0] = prv[0] = 1
    try:
        for node in range(2, n + 1):
            last = prv[0]
            prv[node] = last
            nxt[last] = node
            prv[0] = node
            # the seam check, with a new digram handled in line
            found = setdefault(val[last] * W + val[node], last)
            if found != last and nxt[found] != last:
                match(last, found)
    finally:
        # The two functions reach each other through their closures;
        # without this the cycle keeps every list alive until a full
        # garbage collection.
        del match, substitute
    # The digram index is as large as the tune: free it before the
    # grammar is built, which lowers the peak by a sixth to a quarter.
    del index, setdefault, get, prv
    live = [r for r in range(base, len(guards)) if guards[r] is not None]
    # symbol code -> Symbol; the codes of inlined rules are never read
    symbols: list[Symbol | None] = [*map(Terminal, notes)]
    symbols += [None] * (len(guards) - base)
    for rid, r in enumerate(live):
        symbols[r] = RuleRef(rid)
    rules = {}
    for rid, r in enumerate(live):
        rhs = []
        node = nxt[guards[r]]
        while state[node] != 2:
            rhs.append(symbols[val[node]])
            node = nxt[node]
        rules[rid] = tuple(rhs)
    return Grammar._from_rhs(rules)


def expand_rule(g: Grammar, rule_id: int) -> Tune:
    """The terminal sequence a single rule unrolls to.

    One depth-first pass in rhs order that writes notes straight into
    one output list, iterative, so chains of any depth are fine.  A
    rule's first use is expanded in place and its ``(start, stop)``
    span in the output recorded; every later use copies that span.  The
    time and memory are linear in the output plus the rules reached.
    The first fault met in rhs order is raised: an empty rhs, a missing
    rule (UnknownRuleError), or a cycle (a reference to a rule still
    being expanded).
    """
    rules = g.rhs
    if rule_id not in rules:
        raise UnknownRuleError(f"no rule with id {rule_id}")
    out: list[int] = []
    append = out.append
    # rule -> its span in out, or None while it is being expanded
    spans: dict[int, tuple[int, int] | None] = {rule_id: None}
    # a frame per rule being expanded: (rule, start in out, rest of rhs)
    stack = [(rule_id, 0, iter(rules[rule_id]))]
    while stack:
        x, start, rest = stack[-1]
        for sym in rest:
            if isinstance(sym, Terminal):
                append(sym.value)
                continue
            child = sym.rule_id
            span = spans.get(child)
            if span is not None:
                out += out[span[0]:span[1]]
            elif child in spans:
                raise GrammarStructureError(f"reference cycle through p{child}")
            elif child not in rules:
                raise UnknownRuleError(
                    f"rule p{x} references missing rule p{child}")
            else:
                spans[child] = None
                stack.append((child, len(out), iter(rules[child])))
                break  # descend; this rhs resumes after the child
        else:
            stack.pop()
            if start == len(out):  # only an empty rhs unrolls to nothing
                raise GrammarStructureError(f"rule p{x} has an empty rhs")
            spans[x] = (start, len(out))
    return tuple(out)


def expand(g: Grammar) -> Tune:
    """Unroll the root rule to the flat tune the grammar encodes."""
    return expand_rule(g, ROOT_ID)


def pai(g: Grammar) -> int:
    """Assembly index of a grammar: joins needed to build the tune.

    Each rule of k symbols costs k - 1 pairwise joins, so this is the
    total rhs symbol count minus the number of rules.  Unlike raw rule
    counts it does not reward splitting one rule into two.  A missing
    root or an empty rhs raises, as in :func:`expand`.
    """
    if ROOT_ID not in g:
        raise UnknownRuleError(f"no rule with id {ROOT_ID}")
    for rid, rhs in g.rhs.items():
        if not rhs:
            raise GrammarStructureError(f"rule p{rid} has an empty rhs")
    return sum(map(len, g.rhs.values())) - len(g.rhs)


def to_intervals(tune: Sequence[int]) -> Tune:
    """Pitch differences between consecutive notes (length n - 1)."""
    if len(tune) < 2:
        raise TuneTooShortError(
            f"need at least two notes for intervals, got {len(tune)}")
    return tuple(b - a for a, b in zip(tune, tune[1:]))

