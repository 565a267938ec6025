"""Edit distance between tunes.

Edit distance is computed on raw note sequences, not on grammars: the
question being asked is how much a tune changed on the surface, however
its structure was rearranged underneath.
"""

from __future__ import annotations

from typing import Sequence

#: Which levenshtein kernel is active.  There is one, in pure Python.
ACTIVE_BACKEND = "python"


def levenshtein(a: Sequence[int], b: Sequence[int]) -> int:
    """Minimum number of insertions, deletions and substitutions
    turning ``a`` into ``b``.  Empty sequences are fine."""
    ta = tuple(a)
    tb = tuple(b)
    # Strip common prefix and suffix; the kernel then sees less work.
    lo = 0
    hi_a, hi_b = len(ta), len(tb)
    while lo < hi_a and lo < hi_b and ta[lo] == tb[lo]:
        lo += 1
    while hi_a > lo and hi_b > lo and ta[hi_a - 1] == tb[hi_b - 1]:
        hi_a -= 1
        hi_b -= 1
    ta = ta[lo:hi_a]
    tb = tb[lo:hi_b]
    if not ta:
        return len(tb)
    if not tb:
        return len(ta)
    if len(ta) < len(tb):
        ta, tb = tb, ta
    # Bit-parallel DP (Myers, J. ACM 46(3), 1999, in the global edit
    # distance form of Hyyro, Nordic J. Computing 10, 2003).  Bit i of
    # the vectors is row i+1 of one DP column over the longer sequence;
    # the loop runs over the shorter one, one column per note.  pv/mv
    # flag +1/-1 vertical deltas, ph/mh horizontal ones.  Python ints
    # are signed and unbounded, so every complement is masked to the
    # column's bits.  Notes are only dict keys: any int (negative, past
    # 64 bits) works.  No running score is kept: the last column starts
    # at row 0 = len(tb) and its vertical deltas sum to the distance.
    peq: dict[int, int] = {}
    bit = 1
    for x in ta:
        peq[x] = peq.get(x, 0) | bit
        bit <<= 1
    full = bit - 1
    pv = full
    mv = 0
    for y in tb:
        eq = peq.get(y, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | (~(xh | pv) & full)
        mh = pv & xh
        ph = (ph << 1) | 1  # row 0 of column j is j: always +1
        pv = ((mh << 1) | ~(xv | ph)) & full
        mv = ph & xv
    return len(tb) + pv.bit_count() - mv.bit_count()

