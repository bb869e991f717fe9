"""Exercises the exact rank/kernel routines against a test-local reference.

The reference below is deliberately naive (Fraction Gaussian elimination) so
that the fraction-free Bareiss path in liecheck._exact is checked by an
independent implementation.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from liecheck import _exact


def reference_rank(rows):
    m = [[Fraction(x) for x in row] for row in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    rank = 0
    for col in range(nc):
        piv = None
        for r in range(rank, nr):
            if m[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][col]
        for r in range(rank + 1, nr):
            f = m[r][col] * inv
            if f:
                for c in range(col, nc):
                    m[r][c] -= f * m[rank][c]
        rank += 1
    return rank


def test_hand_picked_ranks():
    assert _exact.rank([]) == 0
    assert _exact.rank([[0, 0], [0, 0]]) == 0
    assert _exact.rank([[1, 0], [0, 1]]) == 2
    assert _exact.rank([[1, 2, 3], [2, 4, 6], [1, 1, 1]]) == 2
    assert _exact.rank([[1, 2], [3, 4], [5, 6]]) == 2
    # row 2 = row 0 + row 1, so one dependency
    assert _exact.rank([[1, 0, 1, 0], [0, 1, 0, 1], [1, 1, 1, 1]]) == 2


def test_fraction_entries():
    m = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 6), Fraction(1, 9)]]
    assert _exact.rank(m) == 1
    assert reference_rank(m) == 1


def test_kernel_dim():
    assert _exact.kernel_dim([], 5) == 5
    assert _exact.kernel_dim([[1, 1, 1]], 3) == 2
    assert _exact.kernel_dim([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 3) == 0


def test_large_entries_stay_exact():
    # Scaled Hilbert-like matrix: classically ill-conditioned in floats but
    # has full rank; entries grow large under elimination.
    n = 8
    lcm = 720720
    m = [[lcm // (i + j + 1) for j in range(n)] for i in range(n)]
    assert _exact.rank(m) == n
    assert reference_rank(m) == n


def test_block_diagonal_splitting():
    # Two independent blocks scattered across a wide matrix; the component
    # split must not change the answer.
    m = [
        [0, 3, 0, 0, 0, 1],
        [0, 6, 0, 0, 0, 2],
        [5, 0, 0, 2, 0, 0],
        [0, 0, 0, 0, 0, 0],
    ]
    assert _exact.rank(m) == 2
    assert _exact.rank(m) == reference_rank(m)


small_matrices = st.lists(
    st.lists(st.integers(-9, 9), min_size=1, max_size=6),
    min_size=1,
    max_size=6,
).filter(lambda rows: len({len(r) for r in rows}) == 1)


@given(small_matrices)
@settings(max_examples=200)
def test_rank_matches_reference(rows):
    assert _exact.rank(rows) == reference_rank(rows)


# an entry is a plain int, an integral Fraction, or a truly fractional one
mixed_entries = st.one_of(
    st.integers(-9, 9),
    st.integers(-9, 9).map(Fraction),
    st.fractions(min_value=-9, max_value=9, max_denominator=12),
)

mixed_matrices = st.integers(1, 6).flatmap(
    lambda nc: st.lists(st.lists(mixed_entries, min_size=nc, max_size=nc), min_size=1, max_size=6)
)


@given(mixed_matrices)
@settings(max_examples=200)
def test_mixed_int_and_fraction_rows_match_reference(rows):
    before = [list(r) for r in rows]
    assert _exact.rank(rows) == reference_rank(rows)
    # int entries go to elimination as they are; the caller's rows stay intact
    assert rows == before
    assert [list(map(type, r)) for r in rows] == [list(map(type, r)) for r in before]


@given(small_matrices)
@settings(max_examples=100)
def test_rank_of_transpose(rows):
    cols = list(map(list, zip(*rows)))
    assert _exact.rank(rows) == _exact.rank(cols)


@given(small_matrices)
@settings(max_examples=100)
def test_rank_bounds(rows):
    r = _exact.rank(rows)
    assert 0 <= r <= min(len(rows), len(rows[0]))
