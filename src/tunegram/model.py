"""Core value types: tunes, grammar symbols, grammars, mutation kinds.

A tune is a plain sequence of integer pitches.  A grammar is a flat
context-free grammar over those integers, with rule 0 the start rule.
It is valid when it expands: :func:`validate_grammar` checks that and
nothing more, since mutated grammars are not in Sequitur's normal form
by design.  Everything here is immutable; mutation operators build new
grammars rather than editing in place.

A :class:`Grammar` is its rules, stored once, as the id-ordered ``rhs``
map from rule id to rhs.  It owns every view derived from them, each
computed once, on first read, and shared by every caller: its ids as a
list (``ids``), its walk of the reference graph (``walk``, one
:func:`postorder` over every rule, which also records empty rhs and
missing references), its symbol occurrences (``occurrences``), its
mutation applicability answers, its structural violations, and its
reference-graph facts as int bitmasks, one bit per rule (``bit``, built
where it is tested): the rules each rule reaches (``reach``, an OR-fold
over the walk) and the rules besides itself whose removal takes each
rule out (``needs``, an AND-fold).  Validation and both folds read the
one walk; expansion does not, since it makes its own pass in rhs order.
"""

from __future__ import annotations

import enum
import functools
import re
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence, Union

Note = int
Tune = tuple[Note, ...]

ROOT_ID = 0


class TunegramError(Exception):
    """Base class for errors raised by this package."""


class EmptyTuneError(TunegramError):
    """An operation that needs at least one note was given none."""


class TuneTooShortError(TunegramError):
    """An operation that needs at least two notes was given fewer."""


class GrammarStructureError(TunegramError):
    """A grammar is structurally unusable (cycle, dangling ref, empty rhs)."""


class UnknownRuleError(GrammarStructureError):
    """A rule id does not exist in the grammar."""


# ---------------------------------------------------------------------------
# symbols


@dataclass(frozen=True, slots=True)
class Terminal:
    """A concrete note (integer pitch or interval)."""

    value: int


@dataclass(frozen=True, slots=True)
class RuleRef:
    """A reference to another rule by id."""

    rule_id: int


Symbol = Union[Terminal, RuleRef]


def format_symbol(sym: Symbol) -> str:
    if isinstance(sym, Terminal):
        return str(sym.value)
    return f"p{sym.rule_id}"


# ---------------------------------------------------------------------------
# grammars


@dataclass(frozen=True, init=False)
class Grammar:
    """An immutable set of rules indexed by id, with rule 0 as the root.

    ``rhs`` maps each rule id to its rhs, in id order, and is the one
    stored copy of the rules; treat it as read-only.  ``_applicable``
    memoises :func:`tunegram.mutation.applicable` one kind at a time,
    as kinds are asked about; like the cached views below it is a fact
    of the rules, never compared.  Use :func:`validate_grammar` to
    check structural validity; the constructor only rejects negative
    ids and rhs items that are neither a :class:`Terminal` nor a
    :class:`RuleRef`, so that invalid grammars can still be represented
    and reported on.
    """

    rhs: dict[int, tuple[Symbol, ...]]
    _applicable: dict[MutationKind, bool] = field(compare=False, repr=False)

    def __init__(self, rhs: Mapping[int, Iterable[Symbol]]) -> None:
        """Take ``{id: rhs}`` in any id order, with any iterable rhs."""
        ids = sorted(rhs)
        if ids and ids[0] < 0:
            raise ValueError(f"rule id must be non-negative, got {ids[0]}")
        rules = {i: tuple(rhs[i]) for i in ids}
        for i, items in rules.items():
            for sym in items:
                if not isinstance(sym, (Terminal, RuleRef)):
                    raise TypeError(f"rule p{i} holds {sym!r}, "
                                    f"neither a Terminal nor a RuleRef")
        self.__dict__.update(rhs=rules, _applicable={})

    @classmethod
    def _from_rhs(cls, rhs: dict[int, tuple[Symbol, ...]]) -> Grammar:
        """A grammar that takes ``rhs`` as its own.  Neither its id order
        nor its tuples are checked: for callers that build them so."""
        g = cls.__new__(cls)
        g.__dict__.update(rhs=rhs, _applicable={})
        return g

    def __hash__(self) -> int:
        return hash(tuple(self.rhs.items()))

    @functools.cached_property
    def ids(self) -> list[int]:
        """The rule ids in id order, so the root, when present, comes
        first; read-only, computed on first read."""
        return list(self.rhs)

    @functools.cached_property
    def walk(self) -> tuple[list[int], list[int] | None,
                            list[tuple[int, int | None]]]:
        """``postorder(rhs)``: every rule after the rules it references,
        the first cycle met, and the faults met on the way; read-only,
        computed on first read.  Read by :func:`validate_grammar` and the
        folds :attr:`reach` and :attr:`needs`, not by expansion."""
        return postorder(self.rhs)

    def bit(self, rule_id: int) -> int:
        """``1 << i``, ``i`` the place of ``rule_id`` (a rule of this
        grammar) in :attr:`ids`: its bit in the masks below, dense
        whatever the ids; built where it is tested, never stored."""
        return 1 << bisect_left(self.ids, rule_id)

    @functools.cached_property
    def reach(self) -> dict[int, int]:
        """Rule id -> the mask (:meth:`bit`) of every rule it reaches
        through one or more references; read-only, computed on first
        read.  An OR-fold over :attr:`walk`, so a chain of any depth is
        fine.  Exact on acyclic grammars; on cyclic ones the walk skips
        the references that close a cycle, so the masks come out partial."""
        rules, bit, reach = self.rhs, self.bit, {}
        for x in self.walk[0]:
            m = 0
            for s in rules[x]:
                if isinstance(s, RuleRef) and s.rule_id in rules:
                    m |= bit(s.rule_id) | reach.get(s.rule_id, 0)
            reach[x] = m
        return reach

    @functools.cached_property
    def needs(self) -> dict[int, int]:
        """Rule id -> the mask (:meth:`bit`) of the other rules whose
        removal takes it out: if its rhs is non-empty and holds only
        references, the rules whose removal takes out every rule it
        references, those among them; read-only, computed on first read.
        An AND-fold over :attr:`walk`, exact on acyclic grammars."""
        rules, bit, needs = self.rhs, self.bit, {}
        for x in self.walk[0]:
            m = -1 if rules[x] else 0  # -1: every bit, the AND of no masks
            for s in rules[x]:
                if not (isinstance(s, RuleRef) and s.rule_id in needs):
                    m = 0  # a note, a missing rule or a reference back
                    break
                m &= needs[s.rule_id] | bit(s.rule_id)
            needs[x] = m
        return needs

    @functools.cached_property
    def _violations(self) -> tuple[str, ...]:
        """:func:`validate_grammar`'s answer, computed on first read."""
        structural = [] if ROOT_ID in self.rhs else ["missing root rule p0"]
        _, cycle, faults = self.walk
        # Stable: one rule's missing references keep their rhs order.
        for x, missing in sorted(faults, key=lambda f: (f[1] is not None, f[0])):
            structural.append(f"rule p{x} has an empty rhs" if missing is None
                              else f"rule p{x} references missing rule p{missing}")
        if cycle is not None:
            structural.append("reference cycle: " + " -> ".join(f"p{i}" for i in cycle))
        return tuple(structural)

    @functools.cached_property
    def occurrences(self) -> dict[type, list[tuple[int, int]]]:
        """``RuleRef`` and ``Terminal`` -> that type's occurrences as
        ``(host, index)``, in (host, index) order, so each host's own
        occurrences form one run; read-only, computed on first read."""
        refs, notes = [], []
        for host, rhs in self.rhs.items():
            for i, sym in enumerate(rhs):
                if isinstance(sym, Terminal):
                    notes.append((host, i))
                elif isinstance(sym, RuleRef):
                    refs.append((host, i))
        return {RuleRef: refs, Terminal: notes}

    def __contains__(self, rule_id: int) -> bool:
        return rule_id in self.rhs

    def __len__(self) -> int:
        return len(self.rhs)


def render_grammar(g: Grammar) -> str:
    """Canonical text form, one rule per line, sorted by id.

    Terminals print as bare integers and references as ``p<id>``::

        p0 -> p1 3 -2 p1
        p1 -> 5 5

    The output ends with a newline and is byte-stable for a given
    grammar, so it can serve as a golden-file format.
    """
    return "".join(f"p{rule_id} -> {' '.join(map(format_symbol, rhs))}\n"
                   for rule_id, rhs in g.rhs.items())


def parse_grammar(text: str) -> Grammar:
    """Inverse of :func:`render_grammar` (also accepts ``;`` separators)."""
    rules: dict[int, tuple[Symbol, ...]] = {}
    for chunk in re.split(r"[;\n]", text):
        line = chunk.strip()
        if not line:
            continue
        head, arrow, body = line.partition("->")
        if not arrow:
            raise ValueError(f"missing '->' in rule {line!r}")
        m = re.fullmatch(r"p(\d+)", head.strip())
        if not m:
            raise ValueError(f"bad rule head {head.strip()!r}")
        rule_id = int(m.group(1))
        if rule_id in rules:
            raise ValueError(f"duplicate rule id p{rule_id}")
        symbols: list[Symbol] = []
        for tok in body.split():
            ref = re.fullmatch(r"p(\d+)", tok)
            if ref:
                symbols.append(RuleRef(int(ref.group(1))))
            else:
                symbols.append(Terminal(int(tok)))
        rules[rule_id] = tuple(symbols)
    return Grammar(rules)


# ---------------------------------------------------------------------------
# the reference graph and validation


def postorder(rules: Mapping[int, Sequence[Symbol]],
              ) -> tuple[list[int], list[int] | None,
                         list[tuple[int, int | None]]]:
    """Every rule, each once, after the rules it references (depth
    first from each rule in turn, in rhs order), the first cycle met as
    a closed path ``[x, ..., x]`` or None, and the faults met.
    References to missing rules and back edges (those that close a
    cycle) are skipped, so the walk ends on any input; it is iterative,
    so chains of any depth are fine.

    The faults are ``(x, c)`` for each reference from a rule ``x`` to a
    missing rule ``c``, in rhs order, and ``(x, None)`` for each rule
    ``x`` with an empty rhs."""
    order: list[int] = []
    cycle: list[int] | None = None
    faults: list[tuple[int, int | None]] = []
    on_path: dict[int, bool] = {}  # rule -> still on the path; done if False
    for start in rules:
        if start in on_path:
            continue
        path, rhs_iters = [start], [iter(rules[start])]
        on_path[start] = True
        while path:
            for sym in rhs_iters[-1]:
                if not isinstance(sym, RuleRef):
                    continue
                child = sym.rule_id
                if child not in rules:
                    faults.append((path[-1], child))
                    continue
                if child not in on_path:
                    on_path[child] = True
                    path.append(child)
                    rhs_iters.append(iter(rules[child]))
                    break  # descend; this rhs resumes after the child
                if on_path[child] and cycle is None:
                    cycle = path[path.index(child):] + [child]
            else:
                x = path.pop()
                on_path[x] = False
                order.append(x)
                rhs_iters.pop()
                if not rules[x]:
                    faults.append((x, None))
    return order, cycle, faults


def validate_grammar(g: Grammar) -> tuple[str, ...]:
    """The structural violations of ``g``, one message each, or ``()``
    when it is valid: rule 0 exists, every rhs is non-empty, every
    reference resolves, and the reference relation is acyclic.  ``g``
    computes them on first read and keeps them.

    They read only :attr:`Grammar.walk`: its faults, put in id order
    (empty rhs first, then missing references), and its cycle.
    Sequitur's invariants (no repeated digram, every rule besides the
    root used twice) are not checked: mutated grammars break them by
    design.
    """
    return g._violations


# ---------------------------------------------------------------------------
# mutation kinds


class MutationKind(enum.IntEnum):
    """The structure-level mutation operators, indexed 1 to 19.

    Each member is its index and carries its short code (``kind.code``).
    The codes follow the add/remove/move/swap taxonomy used in the
    musicology literature (1A* act on rule references, 1B* on notes,
    1C* mix the two, 1D and 2A* act on whole rules).
    """

    ADD_RULE_REF = 1, "1A1"
    REMOVE_RULE_REF = 2, "1A2"
    MOVE_RULE_REF_WITHIN = 3, "1A3A"
    MOVE_RULE_REF_ACROSS = 4, "1A3B"
    SWAP_RULE_REFS_WITHIN = 5, "1A4A"
    SWAP_RULE_REFS_ACROSS = 6, "1A4B"
    ADD_NOTE = 7, "1B1"
    REMOVE_NOTE = 8, "1B2"
    MOVE_NOTE_WITHIN = 9, "1B3A"
    MOVE_NOTE_ACROSS = 10, "1B3B"
    SWAP_NOTES_WITHIN = 11, "1B4A"
    SWAP_NOTES_ACROSS = 12, "1B4B"
    SWAP_REF_WITH_NOTE = 13, "1C1A"
    SWAP_REF_WITH_NOTE_ACROSS = 14, "1C1B"
    REVERSE_RULE = 15, "1C2"
    REVERSE_SPAN = 16, "1C3"
    SWAP_DEFINITIONS = 17, "1D"
    ADD_RULE = 18, "2A1"
    REMOVE_RULE = 19, "2A2"

    def __new__(cls, value: int, code: str) -> MutationKind:
        kind = int.__new__(cls, value)
        kind._value_ = value
        kind.code = code
        return kind

    @classmethod
    def parse(cls, text: str) -> MutationKind:
        """Accept either an index ("17") or a code ("1D")."""
        text = text.strip()
        if text.isdigit():
            try:
                return cls(int(text))
            except ValueError:
                raise ValueError(f"mutation index out of range: {text}") from None
        try:
            return _CODE_KINDS[text.upper()]
        except KeyError:
            raise ValueError(f"unknown mutation code {text!r}") from None


_CODE_KINDS = {kind.code: kind for kind in MutationKind}


# ---------------------------------------------------------------------------
# alphabets and trajectories


@dataclass(frozen=True)
class NoteAlphabet:
    """The set of notes a mutated tune may draw from.

    Frozen from the original tune at the start of a run so that
    inserted notes never leave the tune's own vocabulary.
    """

    notes: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.notes:
            raise EmptyTuneError("alphabet needs at least one note")
        for note in self.notes:
            if isinstance(note, bool) or not isinstance(note, int):
                raise TypeError(f"alphabet notes must be ints, got {note!r}")
        ordered = tuple(sorted(set(self.notes)))
        object.__setattr__(self, "notes", ordered)

    @classmethod
    def from_tune(cls, tune: Sequence[int]) -> NoteAlphabet:
        return cls(tuple(tune))


@dataclass(frozen=True, slots=True)
class TrajectoryRecord:
    """One step of a mutation run, as logged by the pipeline."""

    step: int
    kind: MutationKind
    ed_vs_original: int
    ed_vs_previous: int
    length: int
    pai: int
