"""Property check: the matrix oracle's fixed dimensions survive conjugation.

This lives apart from test_matrixoracle.py so that module imports no
hypothesis: its raise-expecting tests are rerun under ``python -O``, and
that run starts faster without it.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from liecheck.algebras import Family
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
