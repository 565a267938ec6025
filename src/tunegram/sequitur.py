"""Online grammar induction for tunes (Sequitur).

This is the incremental digram algorithm of Nevill-Manning and Witten:
symbols are appended one at a time while two invariants are enforced,
digram uniqueness (no adjacent pair occurs twice, overlapping pairs of
equal symbols excepted) and rule utility (every rule other than the
root is used at least twice).  Repeated digrams become rules, rules
whose use count drops to one are inlined again.  As in the reference
implementation, each rule carries only a count of its uses.

The working representation is int-coded.  A node is an index into
flat ``prv``/``nxt``/``val`` lists, and each rule is a circular list
hung off a guard node.  Terminals keep their value; rule ``s`` is the
symbol ``base + s``, with ``base`` one above the highest note, so a
symbol is a rule exactly when it is at least ``base``, and the digram
index, which maps int pairs to their one recorded occurrence, never
confuses the two.  The public API converts the result into the
immutable :class:`~tunegram.model.Grammar`.

A substitution rewrites the digram's first node in place into the
rule use and kills only the second node, so nodes are appended only
for notes and new rules.  A node's value therefore changes, but only
to a rule whose expansion strictly extends the old value's, so it
never changes back.  A node id held across a cascade is stale exactly
when the node is dead or its value has changed.
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
    if len(tune) == 0:
        raise EmptyTuneError("cannot induce a grammar from an empty tune")
    if not {int}.issuperset(map(type, tune)):
        for note in tune:
            if isinstance(note, bool) or not isinstance(note, int):
                raise TypeError(f"tune elements must be ints, got {note!r}")
    # Rule s is the symbol base + s; node 0 is the root's guard.
    base = max(tune) + 1
    prv = [0]
    nxt = [0]
    val = [base]
    state = bytearray(b"\2")  # per node: 0 dead, 1 symbol, 2 guard
    guards: list[int | None] = [0]  # rule -> guard node, None once inlined
    uses = [0]  # rule -> how many live nodes hold it
    index: dict[tuple[int, int], int] = {}  # digram -> its first node
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
            use_a, use_b = old_first, old_second
        else:
            rule = base + len(guards)
            g = len(val)  # the new rule's guard, then its two nodes
            prv.extend((g + 2, g, g + 1))
            nxt.extend((g + 1, g + 2, g))
            val.extend((rule, a, b))
            state.extend(b"\2\1\1")
            guards.append(g)
            uses.append(0)
            if a >= base:
                uses[a - base] += 1
            if b >= base:
                uses[b - base] += 1
            # Index the rule body as the canonical occurrence before
            # rewriting, so any digram re-formed by the cascade below
            # matches the rule instead of racing it.
            index[a, b] = g + 1
            substitute(old_first, rule)
            # The first substitution's cascade may already have replaced
            # this occurrence too, by a use of the same rule.
            if state[new_first] and val[new_first] == a:
                substitute(new_first, rule)
            use_a, use_b = g + 1, g + 2
        # Rule utility: folding both occurrences may have left a
        # sub-rule with a single remaining use; inline it.  That use is
        # in the body holding the digram, which a cascade reuses whole
        # and leaves alone.  An inlined rule's count stays 0.
        if a >= base and uses[a - base] == 1:
            inline(a - base, use_a)
        if b >= base and uses[b - base] == 1:
            inline(b - base, use_b)

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
        if state[prev] != 2 and get(k := (p, a)) == prev:
            del index[k]
        if state[after] != 2 and get(k := (b, c)) == second:
            del index[k]
        if a >= base:
            uses[a - base] -= 1
        if b >= base:
            uses[b - base] -= 1
        uses[rule - base] += 1
        state[second] = 0
        val[first] = rule
        nxt[first] = after
        prv[after] = first
        # Recheck the seams.  If the left seam rewrote, it has already
        # dealt with the neighbourhood, so the right one is left alone.
        # A pair overlapping its recorded occurrence (x x x) is kept.
        left = False
        if state[prev] == 1:
            found = setdefault((p, rule), prev)
            left = found != prev and nxt[found] != prev and found != first
            if left:
                match(prev, found)
        if not left and state[after] == 1:
            found = setdefault((rule, c), first)
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
                found = setdefault((c, val[d]), after)
                if found != after and nxt[found] != after and found != d:
                    match(after, found)

    def inline(s: int, use: int) -> None:
        """Splice single-use rule ``s`` back into its one use, ``use``."""
        prev = prv[use]
        after = nxt[use]
        first = nxt[guards[s]]
        last = prv[guards[s]]
        r = base + s
        p = val[prev]
        if state[prev] != 2 and get(k := (p, r)) == prev:
            del index[k]
        if state[after] != 2 and get(k := (r, val[after])) == use:
            del index[k]
        uses[s] = 0
        state[use] = 0
        guards[s] = None
        # The rule body keeps its internal digrams (and their index
        # entries stay valid, the nodes just change neighbours).
        nxt[prev] = first
        prv[first] = prev
        nxt[last] = after
        prv[after] = last
        # The seam checks of substitute; the body's ends are symbols.
        left = False
        if state[prev] == 1:
            found = setdefault((p, val[first]), prev)
            left = found != prev and nxt[found] != prev and found != first
            if left:
                match(prev, found)
        if not left and state[after] == 1:
            found = setdefault((val[last], val[after]), last)
            if found != last and nxt[found] != last and found != after:
                match(last, found)

    try:
        for note in tune:
            node = len(val)
            last = prv[0]
            prv.append(last)
            nxt.append(0)
            val.append(note)
            state.append(1)
            nxt[last] = node
            prv[0] = node
            # the seam check, with a new digram handled in line
            if state[last] == 1:
                found = setdefault((val[last], note), last)
                if found != last and nxt[found] != last:
                    match(last, found)
    finally:
        # The three functions reach each other through their closures;
        # without this the cycle keeps every list alive until a full
        # garbage collection.
        del match, substitute, inline
    live = [s for s, g in enumerate(guards) if g is not None]
    symbols: dict[int, Symbol] = {
        base + s: RuleRef(rid) for rid, s in enumerate(live)}
    rules = {}
    for rid, s in enumerate(live):
        rhs = []
        node = nxt[guards[s]]
        while state[node] != 2:
            sym = symbols.get(val[node])
            if sym is None:
                sym = symbols[val[node]] = Terminal(val[node])
            rhs.append(sym)
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
    path, starts, rhs_iters = [rule_id], [0], [iter(rules[rule_id])]
    while path:
        for sym in rhs_iters[-1]:
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
                    f"rule p{path[-1]} references missing rule p{child}")
            else:
                spans[child] = None
                path.append(child)
                starts.append(len(out))
                rhs_iters.append(iter(rules[child]))
                break  # descend; this rhs resumes after the child
        else:
            x, start = path.pop(), starts.pop()
            if start == len(out):  # only an empty rhs unrolls to nothing
                raise GrammarStructureError(f"rule p{x} has an empty rhs")
            spans[x] = (start, len(out))
            rhs_iters.pop()
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

