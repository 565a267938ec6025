"""Core value types: tunes, grammar symbols, grammars, mutation kinds.

A tune is a plain sequence of integer pitches.  A grammar is a flat
context-free grammar over those integers: rule 0 is the start rule and
every other rule must be referenced at least twice for the grammar to be
in canonical (Sequitur) form.  Everything here is immutable; mutation
operators build new grammars rather than editing in place.

A :class:`Grammar` is its rules, stored once, as the id-ordered ``rhs``
map from rule id to rhs.  It owns every view derived from them, each
computed once, on first read, and shared by every caller: its ids as a
list (``ids``), its walk of the reference graph (``walk``, one
:func:`postorder` over every rule, which also records empty rhs and
missing references), its symbol occurrences (``occurrences``), its
mutation applicability answers, its validation report, and its
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
from typing import Iterable, Iterator, Mapping, Sequence, Union

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
    check structural validity and canonicality; the constructor only
    rejects negative ids, so that invalid grammars can still be
    represented and reported on.
    """

    rhs: dict[int, tuple[Symbol, ...]]
    _applicable: dict[MutationKind, bool] = field(compare=False, repr=False)

    def __init__(self, rhs: Mapping[int, Iterable[Symbol]]) -> None:
        """Take ``{id: rhs}`` in any id order, with any iterable rhs."""
        ids = sorted(rhs)
        if ids and ids[0] < 0:
            raise ValueError(f"rule id must be non-negative, got {ids[0]}")
        self.__dict__.update(rhs={i: tuple(rhs[i]) for i in ids}, _applicable={})

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
    def _report(self) -> ValidationReport:
        """:func:`validate_grammar`'s report, computed on first read."""
        structural = [] if ROOT_ID in self.rhs else ["missing root rule p0"]
        _, cycle, faults = self.walk
        # Stable: one rule's missing references keep their rhs order.
        for x, missing in sorted(faults, key=lambda f: (f[1] is not None, f[0])):
            structural.append(f"rule p{x} has an empty rhs" if missing is None
                              else f"rule p{x} references missing rule p{missing}")
        if cycle is not None:
            structural.append("reference cycle: " + " -> ".join(f"p{i}" for i in cycle))
        # A second grammar of the same rules: holding this one would make
        # a reference cycle, which only the cycle collector frees.
        return ValidationReport(tuple(structural), Grammar._from_rhs(self.rhs))

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


def reference_counts(g: Grammar) -> dict[int, int]:
    """Each rule id -> how many times it is referenced across all rhs."""
    counts = dict.fromkeys(g.rhs, 0)
    for rhs in g.rhs.values():
        for sym in rhs:
            if isinstance(sym, RuleRef):
                counts[sym.rule_id] = counts.get(sym.rule_id, 0) + 1
    return counts


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


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of :func:`validate_grammar`.

    Structural problems make a grammar unusable (it cannot be expanded);
    canonicality problems only mean it is not in Sequitur normal form,
    which is the expected state for freshly mutated grammars.  The
    canonical half is computed on first read.  Reports compare by their
    fields, so the reports of equal grammars are equal.
    """

    structural_violations: tuple[str, ...]
    grammar: Grammar

    @functools.cached_property
    def canonical_violations(self) -> tuple[str, ...]:
        canonical: list[str] = []
        for (a, b), places in digram_census(self.grammar).items():
            if len(places) < 2:
                continue
            # Overlapping occurrences of an equal-halves digram (x x inside
            # x x x) are the one sanctioned repeat.  Three places always hold
            # a pair that does not overlap (no three indices are pairwise
            # adjacent), so only a lone pair can be the sanctioned one.
            if len(places) > 2 or not (
                    a == b and places[0][0] == places[1][0]
                    and abs(places[0][1] - places[1][1]) == 1):
                where = ", ".join(f"p{r}@{i}" for r, i in places)
                canonical.append(
                    f"digram {format_symbol(a)} {format_symbol(b)} repeats at {where}")

        counts = reference_counts(self.grammar)
        for rule_id in self.grammar.rhs:
            if rule_id != ROOT_ID and counts[rule_id] < 2:
                canonical.append(
                    f"rule p{rule_id} is referenced {counts[rule_id]} time(s)")
        return tuple(canonical)

    @property
    def structural_ok(self) -> bool:
        return not self.structural_violations

    @property
    def canonical_ok(self) -> bool:
        return not self.canonical_violations

    @property
    def ok(self) -> bool:
        return self.structural_ok and self.canonical_ok


def digram_census(g: Grammar) -> dict[tuple[Symbol, Symbol], list[tuple[int, int]]]:
    """All adjacent symbol pairs, keyed by pair, valued by (rule, index)."""
    census: dict[tuple[Symbol, Symbol], list[tuple[int, int]]] = {}
    for rule_id, rhs in g.rhs.items():
        for i in range(len(rhs) - 1):
            census.setdefault((rhs[i], rhs[i + 1]), []).append((rule_id, i))
    return census


def validate_grammar(g: Grammar) -> ValidationReport:
    """Check structural validity and canonicality, reported separately;
    ``g`` computes its report on first read and keeps it.

    Structural: rule 0 exists, every rhs is non-empty, every reference
    resolves, and the reference relation is acyclic.

    Canonical (Sequitur invariants): no digram occurs twice, except that
    overlapping occurrences of a digram with equal halves (as in
    ``4 4 4``) do not count as repeats; and every rule besides the root
    is referenced at least twice; computed when first read.

    The structural half reads only :attr:`Grammar.walk`: its faults,
    put in id order (empty rhs first, then missing references), and its
    cycle.
    """
    return g._report


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
    def from_code(cls, code: str) -> MutationKind:
        try:
            return _CODE_KINDS[code.upper()]
        except KeyError:
            raise ValueError(f"unknown mutation code {code!r}") from None

    @classmethod
    def parse(cls, text: str) -> MutationKind:
        """Accept either an index ("17") or a code ("1D")."""
        text = text.strip()
        if text.isdigit():
            try:
                return cls(int(text))
            except ValueError:
                raise ValueError(f"mutation index out of range: {text}") from None
        return cls.from_code(text)


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

    def __contains__(self, note: int) -> bool:
        return note in self.notes

    def __len__(self) -> int:
        return len(self.notes)

    def __iter__(self) -> Iterator[int]:
        return iter(self.notes)


@dataclass(frozen=True, slots=True)
class TrajectoryRecord:
    """One step of a mutation run, as logged by the pipeline."""

    step: int
    kind: MutationKind
    ed_vs_original: int
    ed_vs_previous: int
    length: int
    pai: int
