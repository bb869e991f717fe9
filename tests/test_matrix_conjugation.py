"""Property check: the matrix oracle's fixed dimensions survive conjugation.

This lives apart from test_matrixoracle.py so that module imports no
hypothesis: its raise-expecting tests are rerun under ``python -O``, and
that run starts faster without it.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from liecheck.algebras import Family, parse_algebra, reductive_dims
from liecheck.centralizers import SigFamily, Signature
from liecheck.matrixoracle import FixedDims, element, from_signature, matrix_fixed_dims, model


def rotation(n, i, j, c, s):
    """n x n identity with the block [[c, -s], [s, c]] in coordinates i, j."""
    rows = [[Fraction(int(r == k)) for k in range(n)] for r in range(n)]
    rows[i][i] = Fraction(c)
    rows[i][j] = -Fraction(s)
    rows[j][i] = Fraction(s)
    rows[j][j] = Fraction(c)
    return rows


def mul(a, b):
    n = len(a)
    return [
        [sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]


@settings(max_examples=40, deadline=None)
@given(
    t=st.fractions(min_value=-3, max_value=3, max_denominator=8),
    u=st.fractions(min_value=-3, max_value=3, max_denominator=8),
)
def test_conjugation_invariance_rational_rotations(t, u):
    # (1-t^2, 2t)/(1+t^2) runs over rational points of the circle
    base = from_signature(Signature(SigFamily.SO_PQ, (2, 3), ((1, 0, 1), (2, 1, 1))))
    rows = [list(r) for r in base.entries]
    for pos, w in ((2, t), (3, u)):
        c = (1 - w * w) / (1 + w * w)
        s = 2 * w / (1 + w * w)
        p = rotation(5, pos, pos + 1, c, s)
        pinv = rotation(5, pos, pos + 1, c, -s)
        rows = mul(mul(p, rows), pinv)
    moved = element(model(Family.SO, 2, 3), rows)
    assert matrix_fixed_dims(moved) == FixedDims(4, 2, 2)


def _in_k_rotation(field, n, pairs, a):
    """R A R^-1 for R the realified product of 3-4-5 rotations of the
    F-coordinate pairs given, each inside one block of the form: a real
    orthogonal F-matrix acts alike on every real component of a complex or
    quaternionic coordinate."""
    copies = {"R": 1, "C": 2, "H": 4}[field]
    for i, j in pairs:
        for b in range(copies):
            r = rotation(copies * n, b * n + i, b * n + j, Fraction(3, 5), Fraction(4, 5))
            a = mul(mul(r, a), [list(c) for c in zip(*r)])
    return a


def _householder(n):
    """The reflection I - 2 v v^t / v^t v for v the all-ones vector: a
    dense rational orthogonal matrix."""
    return [[int(i == j) - Fraction(2, n) for j in range(n)] for i in range(n)]


def _catalog_dims(text):
    d = reductive_dims(parse_algebra(text))
    return FixedDims(d.dim_g, d.dim_k, d.dim_s)


def test_rational_conjugates_keep_their_fixed_dims():
    # su(2,3) and sp(1,2) order-4 classes, turned inside K so that an i
    # eigenvector and a 1 eigenvector of one block mix, and a dense so(12)
    # quarter turn, conjugated by a reflection, whose A^3 is not A
    cases = [
        (Signature(SigFamily.SU_PQ, (2, 3), ((2, 1, 1), (1, 1, 2))), "C", [(0, 1), (2, 3)]),
        (Signature(SigFamily.SP_PQ, (1, 2), ((2, 1, 1), (1, 0, 1))), "H", [(1, 2)]),
    ]
    for sig, field, pairs in cases:
        base = from_signature(sig)
        n = sum(sig.params)
        rows = _in_k_rotation(field, n, pairs, [list(r) for r in base.entries])
        moved = element(base.ambient, rows)
        assert moved.order == 4
        assert any(type(x) is Fraction for r in moved.entries for x in r)
        assert matrix_fixed_dims(moved) == matrix_fixed_dims(base), sig
    sig = Signature(SigFamily.SO_N, (12,), ((1, 4, 0), (2, 4, 0)))
    base = from_signature(sig)
    q = _householder(12)
    rows = mul(mul(q, [list(r) for r in base.entries]), q)
    assert all(all(r) for r in rows)
    assert mul(mul(rows, rows), rows) != rows
    moved = element(base.ambient, rows)
    assert moved.order == 4
    assert matrix_fixed_dims(moved) == matrix_fixed_dims(base) == FixedDims(22, 22, 0)


def test_dense_rational_involution_has_the_catalog_fixed_dims():
    q = _householder(12)
    d = [[(-1 if i < 5 else 1) * int(i == j) for j in range(12)] for i in range(12)]
    rows = mul(mul(q, d), q)
    assert all(all(r) for r in rows)
    moved = element(model(Family.SO_CPT, 12), rows)
    assert moved.order == 2
    assert matrix_fixed_dims(moved) == _catalog_dims("so(5)+so(7)")
