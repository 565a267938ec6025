"""The test oracle for Sequitur's invariants (Nevill-Manning & Witten,
1997): no digram occurs twice, and every rule besides the root is
referenced at least twice.  Every grammar ``induce`` returns keeps both.
Mutated grammars break them by design, so the package itself checks
only structure (``validate_grammar``); the tests check the rest here.
"""

from tunegram.model import ROOT_ID, RuleRef, format_symbol, validate_grammar


def reference_counts(g):
    """Each rule id -> how many times it is referenced across all rhs."""
    counts = dict.fromkeys(g.rhs, 0)
    for rhs in g.rhs.values():
        for sym in rhs:
            if isinstance(sym, RuleRef):
                counts[sym.rule_id] = counts.get(sym.rule_id, 0) + 1
    return counts


def canonical_violations(g):
    """Each break of Sequitur's invariants in ``g``, one message each:
    repeated digrams in the order first met, then underused rules in id
    order.  Linear in the size of ``g``."""
    census = {}  # digram -> its places (rule, index), in rhs order
    for rule_id, rhs in g.rhs.items():
        for i in range(len(rhs) - 1):
            census.setdefault((rhs[i], rhs[i + 1]), []).append((rule_id, i))
    canonical = []
    for (a, b), places in census.items():
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
    counts = reference_counts(g)
    for rule_id in g.rhs:
        if rule_id != ROOT_ID and counts[rule_id] < 2:
            canonical.append(
                f"rule p{rule_id} is referenced {counts[rule_id]} time(s)")
    return tuple(canonical)


def violations(g):
    """Every structural and canonical violation of ``g``: empty iff
    ``g`` expands and is in Sequitur's normal form."""
    return validate_grammar(g) + canonical_violations(g)
