"""Edit distance and experiment summary statistics.

Edit distance is computed on raw note sequences, not on grammars: the
question being asked is how much a tune changed on the surface, however
its structure was rearranged underneath.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Iterable, Sequence

from .model import MutationKind

#: Which levenshtein kernel is active.  There is one, in pure Python.
ACTIVE_BACKEND = "python"


def _levenshtein_py(a: Sequence[int], b: Sequence[int]) -> int:
    """Two-row DP: the textbook reference that the bit-parallel kernel
    in ``levenshtein`` is tested against."""
    n = len(b)
    row = list(range(n + 1))
    for i, x in enumerate(a):
        diag = row[0]
        row[0] = i + 1
        for j in range(1, n + 1):
            above = row[j]
            cur = above + 1
            left = row[j - 1] + 1
            if left < cur:
                cur = left
            d = diag if x == b[j - 1] else diag + 1
            if d < cur:
                cur = d
            diag = above
            row[j] = cur
    return row[n]


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
    # are signed and unbounded, so every complement is masked to m bits.
    # Notes are only dict keys: any int (negative, past 64 bits) works.
    m = len(ta)
    peq: dict[int, int] = {}
    bit = 1
    for x in ta:
        peq[x] = peq.get(x, 0) | bit
        bit <<= 1
    full = bit - 1
    top = bit >> 1
    pv = full
    mv = 0
    dist = m
    for y in tb:
        eq = peq.get(y, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | (~(xh | pv) & full)
        mh = pv & xh
        if ph & top:
            dist += 1
        elif mh & top:
            dist -= 1
        ph = (ph << 1) | 1  # row 0 of column j is j: always +1
        pv = ((mh << 1) | ~(xv | ph)) & full
        mv = ph & xv
    return dist


@dataclass(frozen=True)
class KindSummary:
    """Five-number summary plus mean of edit distances for one kind.

    A kind with no measurements has count 0 and None statistics.
    """

    kind: MutationKind
    count: int
    min: int | None
    q1: float | None
    median: float | None
    q3: float | None
    max: int | None
    mean: float | None

    @classmethod
    def from_values(cls, kind: MutationKind, values: Sequence[int]) -> KindSummary:
        n = len(values)
        if n == 0:
            return cls(kind, 0, None, None, None, None, None, None)
        if n == 1:
            v = values[0]
            return cls(kind, 1, v, float(v), float(v), float(v), v, float(v))
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
        return cls(kind, n, min(values), q1, med, q3, max(values),
                   statistics.fmean(values))


def summarize_by_kind(
    measurements: Iterable[tuple[MutationKind, int]],
) -> dict[MutationKind, KindSummary]:
    """Group (kind, ED) samples and summarize each of the 19 kinds.

    Quantiles use linear interpolation between closest ranks (the
    "inclusive" method), so summaries are reproducible bit for bit.
    """
    buckets: dict[MutationKind, list[int]] = {k: [] for k in MutationKind}
    for kind, ed in measurements:
        buckets[MutationKind(kind)].append(int(ed))
    return {k: KindSummary.from_values(k, vals) for k, vals in buckets.items()}


@dataclass(frozen=True)
class TrajectoryMeans:
    """Per-step arithmetic means over a batch of runs."""

    steps: tuple[int, ...]
    ed_vs_original: tuple[float, ...]
    length: tuple[float, ...]
    pai: tuple[float, ...]


def trajectory_means(results: Iterable) -> TrajectoryMeans:
    """Average ed_vs_original, length and pai across runs, step by step.

    All runs must have trajectories of the same length.
    """
    batch = list(results)
    if not batch:
        raise ValueError("no run results to average")
    lengths = {len(r.trajectory) for r in batch}
    if len(lengths) != 1:
        raise ValueError(f"trajectory lengths differ: {sorted(lengths)}")
    steps = tuple(rec.step for rec in batch[0].trajectory)
    eds = []
    lens = []
    pais = []
    for i in range(len(steps)):
        eds.append(statistics.fmean(r.trajectory[i].ed_vs_original for r in batch))
        lens.append(statistics.fmean(r.trajectory[i].length for r in batch))
        pais.append(statistics.fmean(r.trajectory[i].pai for r in batch))
    return TrajectoryMeans(steps, tuple(eds), tuple(lens), tuple(pais))
