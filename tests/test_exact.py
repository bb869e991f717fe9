"""Exercises the exact rank/kernel routines against a test-local reference.

The reference below is deliberately naive (dense Fraction Gaussian
elimination, no reduction above the pivots) so that liecheck._exact's one
elimination, the sparse reduced echelon form behind `sparse_ranks`,
`reduced_form` and `in_span`, is checked by an independent implementation.
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


def test_large_entries_stay_exact():
    # Scaled Hilbert-like matrix: classically ill-conditioned in floats but
    # has full rank; entries grow large under elimination.  The Hilbert
    # matrix itself goes in as Fractions, with no scaling into ints.
    n = 8
    lcm = 720720
    scaled = [[lcm // (i + j + 1) for j in range(n)] for i in range(n)]
    hilbert = [[Fraction(1, i + j + 1) for j in range(n)] for i in range(n)]
    for m in (scaled, hilbert):
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


def _matrices(entries):
    """1 to 6 rows of one length from 1 to 6; the column count is drawn
    first, so no ragged draw is made and thrown away."""
    return st.integers(1, 6).flatmap(
        lambda nc: st.lists(st.lists(entries, min_size=nc, max_size=nc), min_size=1, max_size=6)
    )


small_matrices = _matrices(st.integers(-9, 9))


@given(small_matrices)
@settings(max_examples=200)
def test_rank_matches_reference(rows):
    assert _exact.rank(rows) == reference_rank(rows)


# an entry is a plain int, an integral Fraction, or a truly fractional one
mixed_entries = st.one_of(
    st.integers(-9, 9),
    st.integers(-9, 9).map(Fraction),
    # every fraction in [-9, 9] with denominator <= 12; cheaper to draw
    # than st.fractions
    st.builds(Fraction, st.integers(-108, 108), st.integers(1, 12)).filter(lambda f: -9 <= f <= 9),
)

mixed_matrices = _matrices(mixed_entries)


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


def _sparse(rows):
    """Dense rows as (columns, values) of their nonzero entries."""
    return [([c for c, x in enumerate(row) if x], [x for x in row if x]) for row in rows]


def _dense(rows, width=8):
    """Sparse rows as dense rows of `width` entries."""
    out = []
    for cols, vals in rows:
        row = [0] * width
        for c, x in zip(cols, vals):
            row[c] = x
        out.append(row)
    return out


def test_sparse_ranks_hand_picked():
    assert _exact.sparse_ranks([]) == []
    assert _exact.sparse_ranks([[], [((), ())]]) == [0, 0]
    m = [
        [0, 3, 0, 0, 0, 1],
        [0, 6, 0, 0, 0, 2],
        [5, 0, 0, 2, 0, 0],
        [0, 0, 0, 0, 0, 0],
        [1, 0, 0, 0, 0, 1],
    ]
    rows = _sparse(m)
    # the last row joins both blocks into one class; the first two sets
    # lie inside that class, the third is one row of it
    sets = [rows[:4], rows[:2], rows[2:3], rows]
    assert _exact.sparse_ranks(sets) == [2, 1, 1, 3]
    assert [reference_rank(m[:4]), reference_rank(m[:2]), reference_rank(m[2:3])] == [2, 1, 1]
    assert reference_rank(m) == 3

    # a class of two rows is ranked by cross-multiplication, not eliminated
    pairs = [
        # proportional by an int ratio, and by a negative Fraction one
        ([([0, 2], [1, 3]), ([0, 2], [2, 6])], 1),
        ([([1, 3, 4], [Fraction(1, 2), 3, -1]), ([1, 3, 4], [Fraction(-1, 3), -2, Fraction(2, 3)])], 1),
        # the same columns, but proportional in the first two values only
        ([([0, 1, 2], [1, 2, 3]), ([0, 1, 2], [2, 4, 7])], 2),
        ([([0, 1], [1, 2]), ([0, 1], [3, 5])], 2),
        # different columns that share one, with equal values there
        ([([0, 1], [1, 1]), ([1, 2], [1, 1])], 2),
        ([([0, 1], [1, 1]), ([0], [1])], 2),
        # a list support and a tuple one: columns compare as sequences
        ([([0, 2], [1, 3]), ((0, 2), (2, 6))], 1),
        ([((0, 2), (1, 3)), ([0, 2], [1, 4])], 2),
    ]
    for pair, want in pairs:
        assert _exact.sparse_ranks([pair]) == [want] == [reference_rank(_dense(pair))], pair

    # a proportional pair and a pair that is not, beside a class of three
    # rows of rank 2 (the third is the first less the second), which is
    # eliminated; the later sets hold the same three rows, so the memo
    # answers them
    pair = [([0, 1], [1, 2]), ((0, 1), (Fraction(-1, 2), -1))]
    other = [([2, 3], [1, 1]), ([2, 3], [1, -1])]
    triple = [([5, 6], [1, 1]), ([6, 7], [1, 1]), ([5, 7], [1, -1])]
    sets = [pair + other + triple, triple + pair[:1], triple]
    assert _exact.sparse_ranks(sets) == [5, 3, 2]
    assert [reference_rank(_dense(rows)) for rows in sets] == [5, 3, 2]


# a nonzero multiplier, an int or a fraction
_nonzero = st.integers(-9, 9).filter(bool)
_factors = st.one_of(_nonzero, st.builds(Fraction, _nonzero, st.integers(2, 4)))


def _with_a_multiple(matrices):
    """Matrices with a nonzero multiple of their first row appended, so the
    first and last rows are a proportional pair."""
    return st.tuples(matrices, _factors).map(lambda t: t[0] + [[t[1] * x for x in t[0][0]]])


_any_matrices = st.one_of(small_matrices, mixed_matrices)


@given(st.one_of(_any_matrices, _with_a_multiple(_any_matrices)))
@settings(max_examples=200)
def test_sparse_ranks_match_reference(rows):
    # several sets over the partition of their union, which is coarser than
    # any one of them needs; an empty set and an all-zero row ride along
    sparse = _sparse(rows) + [((), ())]
    half = len(rows) // 2
    picks = [
        range(len(sparse)),
        range(0, len(rows), 2),
        range(1, len(rows), 2),
        range(half),
        range(half, len(sparse)),
        range(0),
        # the first and last rows: a row and its multiple when one was drawn
        sorted({0, len(rows) - 1}),
    ]
    got = _exact.sparse_ranks([[sparse[i] for i in pick] for pick in picks])
    dense = rows + [[0] * len(rows[0])]
    assert got == [reference_rank([dense[i] for i in pick]) for pick in picks]
    assert got[0] == _exact.rank(rows)


def _independent(rows):
    """The rows that raise the rank of those kept before them."""
    kept = []
    for row in rows:
        if _exact.sparse_ranks([kept + [row]])[0] > len(kept):
            kept.append(row)
    return kept


def test_span_membership_hand_picked():
    # two basis rows over disjoint column classes; the reduced form is
    # integral here
    basis = [([0, 1], [2, 4]), ([3, 4], [1, -1])]
    form = _exact.reduced_form(basis)
    assert form == {0: {1: 2}, 3: {4: -1}}
    # 2 b0 + 3 b1 crosses both classes and lies in the span; one sign off
    # does not
    assert _exact.in_span(form, [([0, 1, 3, 4], [4, 8, 3, -3])])
    assert not _exact.in_span(form, [([0, 1, 3, 4], [4, 8, 3, 3])])
    # a cell that no basis row uses
    assert not _exact.in_span(form, [([0, 1, 2], [2, 4, 1])])
    assert not _exact.in_span(form, [([2], [1])])
    # Fraction rows: b0 / 4 lies in the span, b0 / 4 + b1 / 3 too, and a
    # Fraction off the span does not
    f = Fraction
    assert _exact.in_span(form, [([0, 1], [f(1, 2), 1])])
    assert _exact.in_span(form, [([0, 1, 3, 4], [f(1, 2), 1, f(1, 3), f(-1, 3)])])
    assert not _exact.in_span(form, [([0, 1], [f(1, 2), f(1, 3)])])
    # the empty set lies in every span, a zero row too; one row off the span
    # refuses the whole set
    assert _exact.in_span(form, [])
    assert _exact.in_span({}, [])
    assert _exact.in_span({}, [((), ())])
    assert not _exact.in_span({}, [([0], [1])])
    assert not _exact.in_span(form, [([0, 1], [1, 2]), ([2], [1])])
    # a basis whose reduced form needs a Fraction: b0 - b1 lies in the span
    basis = [([0, 1], [2, 1]), ([1, 2], [1, 1])]
    form = _exact.reduced_form(basis)
    assert form == {0: {2: f(-1, 2)}, 1: {2: 1}}
    assert _exact.in_span(form, [([0, 2], [2, -1])])
    assert not _exact.in_span(form, [([0, 2], [2, 1])])
    # dependent rows leave no pivot
    assert len(_exact.reduced_form([([0, 1], [1, 1]), ([0, 1], [2, 2]), ((), ())])) == 1


@given(st.one_of(small_matrices, mixed_matrices), st.integers(0, 6))
@settings(max_examples=100)
def test_span_membership_matches_the_rank_criterion(rows, split):
    # the first `split` rows, made independent, span; the others are tested
    # one by one and as a set, with a zero row and the empty set along
    sparse = _sparse(rows)
    zero = ((), ())
    before = [(list(c), list(v)) for c, v in sparse]
    basis = _independent(sparse[:split] + [zero])
    form = _exact.reduced_form(basis)
    assert len(form) == len(basis) == _exact.sparse_ranks([basis])[0]
    assert len(_exact.reduced_form(sparse)) == reference_rank(rows)
    # reduced: no row stores a pivot, and each pivot is its row's first cell
    assert all(c not in form and c > pivot for pivot, row in form.items() for c in row)
    tested = [[row] for row in sparse[split:]] + [sparse[split:], [zero], []]
    for picked in tested:
        want = _exact.sparse_ranks([basis + picked])[0] == _exact.sparse_ranks([basis])[0]
        assert _exact.in_span(form, picked) == want
    assert _exact.in_span(form, basis)
    assert [(list(c), list(v)) for c, v in sparse] == before
