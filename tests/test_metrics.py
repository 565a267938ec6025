"""Edit distance kernels."""

import functools
import random
from typing import Sequence

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from tunegram.metrics import ACTIVE_BACKEND, levenshtein


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


def encode(word):
    return [ord(c) for c in word]


def oracle(a, b):
    """The textbook recursive definition, memoized."""
    @functools.cache
    def d(i, j):
        if i == 0:
            return j
        if j == 0:
            return i
        return min(d(i - 1, j) + 1,
                   d(i, j - 1) + 1,
                   d(i - 1, j - 1) + (a[i - 1] != b[j - 1]))
    return d(len(a), len(b))


def oracle_exponential(a, b):
    """Same recursion with no cache; only usable on tiny inputs."""
    if not a:
        return len(b)
    if not b:
        return len(a)
    return min(oracle_exponential(a[:-1], b) + 1,
               oracle_exponential(a, b[:-1]) + 1,
               oracle_exponential(a[:-1], b[:-1]) + (a[-1] != b[-1]))


def test_kitten_sitting():
    assert levenshtein(encode("kitten"), encode("sitting")) == 3


@pytest.mark.parametrize("a,b,d", [
    ("", "", 0),
    ("", "abc", 3),
    ("abc", "", 3),
    ("abc", "abc", 0),
    ("flaw", "lawn", 2),
    ("abc", "acb", 2),
    ("aaaa", "aa", 2),
    ("abcdef", "azced", 3),
])
def test_known_distances(a, b, d):
    assert levenshtein(encode(a), encode(b)) == d


def test_accepts_any_int_sequence():
    assert levenshtein((1, 2, 3), [1, 9, 3]) == 1
    assert levenshtein(range(5), range(1, 6)) == 2


def test_huge_values_fall_back_cleanly():
    # values past int64 need no fallback: notes are only dict keys
    big = 2 ** 70
    assert levenshtein([big, 5], [big, 6]) == 1
    assert levenshtein([big], [big]) == 0
    assert levenshtein([-big, 1, 2], [1, 2]) == 1


small_tunes = st.lists(st.integers(0, 9), max_size=12)


@given(small_tunes, small_tunes)
@settings(max_examples=300, deadline=None)
def test_matches_memoized_oracle(a, b):
    assert levenshtein(a, b) == oracle(tuple(a), tuple(b))


def test_matches_exponential_oracle_on_tiny_pairs():
    rnd = random.Random(3)
    for _ in range(25):
        a = [rnd.randrange(3) for _ in range(rnd.randint(0, 4))]
        b = [rnd.randrange(3) for _ in range(rnd.randint(0, 4))]
        assert levenshtein(a, b) == oracle_exponential(tuple(a), tuple(b))


metric_tunes = st.lists(st.integers(0, 23), max_size=64)


@given(metric_tunes, metric_tunes)
@settings(max_examples=200, deadline=None)
def test_metric_axioms_pairwise(a, b):
    d = levenshtein(a, b)
    assert d >= 0
    assert d == levenshtein(b, a)
    assert (d == 0) == (a == b)
    assert abs(len(a) - len(b)) <= d <= max(len(a), len(b), 0)


@given(metric_tunes, metric_tunes, metric_tunes)
@settings(max_examples=150, deadline=None)
def test_triangle_inequality(a, b, c):
    assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)


@given(metric_tunes, metric_tunes)
@settings(max_examples=200, deadline=None)
def test_python_kernel_agrees(a, b):
    # the pure-Python row DP must match whatever kernel is active,
    # including after the common prefix/suffix strip
    assert levenshtein(a, b) == _levenshtein_py(a, b)


# Trajectory lengths (92 to 675 notes) are far past ``metric_tunes``'
# 64; these compare kernel and oracle there, and across the 30-bit
# digits of CPython ints that hold the kernel's bit vectors.


def _random_tune(rnd, n, alphabet=range(24)):
    return [rnd.choice(alphabet) for _ in range(n)]


@pytest.mark.parametrize("n", [29, 30, 31, 59, 60, 61, 63, 64, 65])
def test_kernel_at_digit_boundaries(n):
    rnd = random.Random(n)
    for m in (n - 1, n, n + 1):
        a = _random_tune(rnd, n)
        b = _random_tune(rnd, m)
        assert levenshtein(a, b) == _levenshtein_py(a, b)
        # one change at each end defeats the affix strip
        c = [99] + a[1:-1] + [98]
        assert levenshtein(a, c) == _levenshtein_py(a, c) == 2


def test_kernel_uneven_trajectory_lengths():
    rnd = random.Random(92)
    short = _random_tune(rnd, 92)
    long = _random_tune(rnd, 675)
    d = _levenshtein_py(short, long)
    assert levenshtein(short, long) == d
    assert levenshtein(long, short) == d


def test_kernel_one_pitch_and_disjoint_alphabets():
    rnd = random.Random(7)
    assert levenshtein([5] * 92, [6] + [5] * 673 + [6]) == 583
    assert levenshtein([5] * 70, [6] * 130) == 130
    a = _random_tune(rnd, 150, range(0, 12))
    b = _random_tune(rnd, 97, range(12, 24))
    assert levenshtein(a, b) == _levenshtein_py(a, b) == 150
    one = [3] * 64
    mixed = _random_tune(rnd, 64, range(3, 5))
    assert levenshtein(one, mixed) == _levenshtein_py(one, mixed)


def test_kernel_negative_and_huge_pitches():
    rnd = random.Random(11)
    for alphabet in (range(-12, 0), [2 ** 64, 2 ** 64 + 1, -2 ** 70, 0, 7]):
        alphabet = list(alphabet)
        a = _random_tune(rnd, 120, alphabet)
        b = _random_tune(rnd, 95, alphabet)
        assert levenshtein(a, b) == _levenshtein_py(a, b)


def test_affix_stripping_edges():
    assert levenshtein([1, 2, 3, 4], [1, 2, 3, 4]) == 0
    assert levenshtein([1, 2, 3], [1, 3]) == 1      # shared prefix and suffix
    assert levenshtein([7, 7, 7, 5], [7, 7, 5]) == 1
    assert levenshtein([5, 1, 1], [1, 1]) == 1


def test_backend_is_reported():
    assert ACTIVE_BACKEND == "python"
