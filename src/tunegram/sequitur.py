"""Online grammar induction for tunes (Sequitur).

This is the incremental digram algorithm of Nevill-Manning and Witten:
symbols are appended one at a time while two invariants are enforced,
digram uniqueness (no adjacent pair occurs twice, overlapping pairs of
equal symbols excepted) and rule utility (every rule other than the
root is used at least twice).  Repeated digrams become rules, rules
whose use count drops to one are inlined again.

The working representation is a doubly linked list per rule with a
digram index mapping symbol pairs to their one recorded occurrence.
Terminal values are plain ints; non-terminals are the rule objects
themselves, so index keys never collide.  The public API converts the
result into the immutable :class:`~tunegram.model.Grammar`.
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence

from .model import (
    ROOT_ID,
    EmptyTuneError,
    Grammar,
    GrammarStructureError,
    Rule,
    RuleRef,
    Symbol,
    Terminal,
    Tune,
    TuneTooShortError,
    UnknownRuleError,
    postorder,
)

__all__ = [
    "induce",
    "expand",
    "expand_rule",
    "pai",
    "to_intervals",
    "grammars_equivalent",
]


class _Node:
    """A doubly linked list cell holding an int or a :class:`_SeqRule`."""

    __slots__ = ("prev", "next", "value", "is_guard", "alive")

    def __init__(self, value, is_guard=False):
        self.prev = None
        self.next = None
        self.value = value
        self.is_guard = is_guard
        self.alive = True


class _SeqRule:
    """A rule under construction: a circular list hung off a guard node."""

    __slots__ = ("serial", "guard", "users")

    def __init__(self, serial):
        self.serial = serial
        self.guard = _Node(self, is_guard=True)
        self.guard.prev = self.guard
        self.guard.next = self.guard
        self.users = set()  # ref nodes elsewhere whose value is this rule


def _link(a: _Node, b: _Node) -> None:
    a.next = b
    b.prev = a


class _Induction:
    """One induction run.  Feed symbols, then take the grammar."""

    def __init__(self):
        self.index: dict[tuple, _Node] = {}
        self.live: dict[int, _SeqRule] = {}
        self._serial = 0
        self.root = self._fresh_rule()

    # -- plumbing -----------------------------------------------------

    def _fresh_rule(self) -> _SeqRule:
        rule = _SeqRule(self._serial)
        self.live[rule.serial] = rule
        self._serial += 1
        return rule

    def _forget(self, first: _Node) -> None:
        """Drop the index entry for the digram starting at ``first``,
        but only if that entry points at this very occurrence."""
        if first.is_guard or first.next is None or first.next.is_guard:
            return
        key = (first.value, first.next.value)
        if self.index.get(key) is first:
            del self.index[key]

    def _detach(self, node: _Node) -> None:
        if isinstance(node.value, _SeqRule):
            node.value.users.discard(node)
        node.alive = False

    # -- invariant enforcement ----------------------------------------

    def _check(self, first: _Node) -> bool:
        """Enforce digram uniqueness for the pair starting at ``first``.

        Returns True if a substitution was made (the caller's local
        picture of the list is then stale).
        """
        if first is None or first.is_guard or not first.alive:
            return False
        second = first.next
        if second is None or second.is_guard or not second.alive:
            return False
        key = (first.value, second.value)
        found = self.index.get(key)
        if found is None:
            self.index[key] = first
            return False
        if found is first:
            return False
        # Overlapping occurrences (x x x) are left alone.
        if found.next is first or first.next is found:
            return False
        self._match(first, found)
        return True

    def _match(self, new_first: _Node, old_first: _Node) -> None:
        a_val = old_first.value
        b_val = old_first.next.value
        old_prev = old_first.prev
        old_after = old_first.next.next
        if old_prev.is_guard and old_after.is_guard:
            # The recorded occurrence is the entire rhs of a rule:
            # reuse that rule instead of making a nested copy.
            rule = old_prev.value
            self._substitute(new_first, rule)
        else:
            rule = self._fresh_rule()
            a_node = _Node(a_val)
            b_node = _Node(b_val)
            if isinstance(a_val, _SeqRule):
                a_val.users.add(a_node)
            if isinstance(b_val, _SeqRule):
                b_val.users.add(b_node)
            _link(rule.guard, a_node)
            _link(a_node, b_node)
            _link(b_node, rule.guard)
            # Index the rule body as the canonical occurrence before
            # rewriting, so any digram re-formed by the cascade below
            # matches the rule instead of racing it.
            self.index[(a_val, b_val)] = a_node
            self._substitute(old_first, rule)
            self._substitute(new_first, rule)
        # Rule utility: folding both occurrences may have left a
        # sub-rule with a single remaining use; inline it.
        for val in (a_val, b_val):
            if isinstance(val, _SeqRule) and val.serial in self.live \
                    and len(val.users) == 1:
                self._inline(val)

    def _substitute(self, first: _Node, rule: _SeqRule) -> None:
        """Replace the digram starting at ``first`` with a use of ``rule``."""
        second = first.next
        prev = first.prev
        after = second.next
        self._forget(prev)
        self._forget(first)
        self._forget(second)
        self._detach(first)
        self._detach(second)
        use = _Node(rule)
        rule.users.add(use)
        _link(prev, use)
        _link(use, after)
        # Recheck the seams.  If the left seam rewrote, it has already
        # dealt with the neighbourhood; checking the stale right seam
        # would look at dead nodes.
        if not self._check(prev):
            self._check(use)
        # Runs of equal symbols need one more look: if ``second`` opened
        # a run (x x x), its index entry died with it and the surviving
        # overlapped pair at ``after`` would otherwise go unindexed.
        self._check(after)

    def _inline(self, rule: _SeqRule) -> None:
        """Splice a single-use rule back into its one use site."""
        (use,) = rule.users
        prev = use.prev
        after = use.next
        first = rule.guard.next
        last = rule.guard.prev
        self._forget(prev)
        self._forget(use)
        self._detach(use)
        del self.live[rule.serial]
        # The rule body keeps its internal digrams (and their index
        # entries stay valid, the nodes just change neighbours).
        _link(prev, first)
        _link(last, after)
        if not self._check(prev):
            self._check(last)

    # -- driving ------------------------------------------------------

    def feed(self, value: int) -> None:
        guard = self.root.guard
        node = _Node(value)
        last = guard.prev
        _link(last, node)
        _link(node, guard)
        self._check(last)

    def result(self) -> Grammar:
        order = sorted(self.live)
        ids = {serial: dense for dense, serial in enumerate(order)}
        rules = []
        for serial in order:
            seq_rule = self.live[serial]
            rhs: list[Symbol] = []
            node = seq_rule.guard.next
            while not node.is_guard:
                if isinstance(node.value, _SeqRule):
                    rhs.append(RuleRef(ids[node.value.serial]))
                else:
                    rhs.append(Terminal(node.value))
                node = node.next
            rules.append(Rule(ids[serial], tuple(rhs)))
        return Grammar(tuple(rules))


def induce(tune: Sequence[int]) -> Grammar:
    """Parse a tune into a canonical grammar.

    Rule ids come out dense, with 0 as the root, numbered in creation
    order.  The same tune always yields the same grammar.
    """
    if len(tune) == 0:
        raise EmptyTuneError("cannot induce a grammar from an empty tune")
    engine = _Induction()
    for note in tune:
        if isinstance(note, bool) or not isinstance(note, int):
            raise TypeError(f"tune elements must be ints, got {note!r}")
        engine.feed(note)
    return engine.result()


def expand_rule(g: Grammar, rule_id: int) -> Tune:
    """The terminal sequence a single rule unrolls to.

    A fold over :func:`~tunegram.model.postorder`, so each reachable
    rule is expanded once, after the rules it references.  The first
    fault met in that order is raised: an empty rhs, a missing rule
    (UnknownRuleError), or a cycle (a reference not yet expanded).
    """
    if rule_id not in g:
        raise UnknownRuleError(f"no rule with id {rule_id}")
    rules = g.rhs
    memo: dict[int, Tune] = {}
    for rid in postorder(rules, (rule_id,))[0]:
        if not rules[rid]:
            raise GrammarStructureError(f"rule p{rid} has an empty rhs")
        parts: list[int] = []
        for sym in rules[rid]:
            if isinstance(sym, Terminal):
                parts.append(sym.value)
            elif sym.rule_id in memo:
                parts.extend(memo[sym.rule_id])
            elif sym.rule_id in rules:
                raise GrammarStructureError(
                    f"reference cycle through p{sym.rule_id}")
            else:
                raise UnknownRuleError(
                    f"rule p{rid} references missing rule p{sym.rule_id}")
        memo[rid] = tuple(parts)
    return memo[rule_id]


def expand(g: Grammar) -> Tune:
    """Unroll the root rule to the flat tune the grammar encodes."""
    return expand_rule(g, ROOT_ID)


def pai(g: Grammar) -> int:
    """Assembly index of a grammar: joins needed to build the tune.

    Each rule of k symbols costs k - 1 pairwise joins, so this is the
    total rhs symbol count minus the number of rules.  Unlike raw rule
    counts it does not reward splitting one rule into two.
    """
    return sum(len(rule.rhs) - 1 for rule in g)


def to_intervals(tune: Sequence[int]) -> Tune:
    """Pitch differences between consecutive notes (length n - 1)."""
    if len(tune) < 2:
        raise TuneTooShortError(
            f"need at least two notes for intervals, got {len(tune)}")
    return tuple(b - a for a, b in zip(tune, tune[1:]))


def grammars_equivalent(a: Grammar, b: Grammar) -> bool:
    """Equality up to rule renumbering: same tune, same rhs-size multiset."""
    if Counter(len(r.rhs) for r in a) != Counter(len(r.rhs) for r in b):
        return False
    return expand(a) == expand(b)
