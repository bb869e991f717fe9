"""Cross-checks for the exact matrix centralizer oracle.

Expected values come from two independent places: hand-counted block
decompositions of centralizers (frozen integers below) and the closed-form
signature recipes.  The matrix route computes kernels of X -> AXA^-1 - X
over exact rationals, so every comparison is literal integer equality.

The tests here that expect a raise are rerun under ``python -O``.  This
module imports no hypothesis, so that run starts without it; the random
rotation check is in test_matrix_conjugation.py.
"""

import hashlib
import inspect
import os
import subprocess
import sys
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache, partial
from itertools import compress, permutations, product
from pathlib import Path

import pytest

from _basismap import operator_rows
from liecheck import algebras, centralizers
from liecheck import matrixoracle as mo
from liecheck import verify as vf
from liecheck._exact import sparse_ranks
from liecheck.algebras import Family, OutOfDomain
from liecheck.centralizers import (
    InvalidSignature,
    SigFamily,
    Signature,
    bound,
    enumerate_signatures,
    signature_compact_dim,
    signature_dim,
)
from liecheck.matrixoracle import (
    FixedDims,
    InvalidElement,
    UnsupportedFamily,
    element,
    from_signature,
    g22_case,
    identity_element,
    matrix_fixed_dims,
    model,
    q_split_element,
)


def sig(family, params, *blocks):
    return Signature(family, tuple(params), tuple(blocks))


def eye(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def rotation(n, i, j, c, s):
    """n x n identity with the block [[c, -s], [s, c]] in coordinates i, j."""
    rows = eye(n)
    rows[i][i] = Fraction(c)
    rows[i][j] = -Fraction(s)
    rows[j][i] = Fraction(s)
    rows[j][j] = Fraction(c)
    return rows


def mul(a, b):
    """Dense matrix product that skips the zero entries of a."""
    out = []
    for arow in a:
        orow = [0] * len(b[0])
        for x, brow in compress(zip(arow, b), arow):
            orow = [u + x * v for u, v in zip(orow, brow)]
        out.append(orow)
    return out


# (family, params, (dim_g, dim_k, dim_s)) -- centralizer of the identity is
# the whole algebra, so this pins every basis size against the catalog.
IDENTITY_DIMS = [
    (Family.SL_R, (3,), (8, 3, 5)),
    (Family.SL_R, (5,), (24, 10, 14)),
    (Family.SO, (1, 2), (3, 1, 2)),
    (Family.SO, (2, 3), (10, 4, 6)),
    (Family.SO, (3, 4), (21, 9, 12)),
    (Family.SU, (1, 2), (8, 4, 4)),
    (Family.SU, (2, 2), (15, 7, 8)),
    (Family.SP, (1, 1), (10, 6, 4)),
    (Family.SP, (1, 2), (21, 13, 8)),
    (Family.SO_STAR, (3,), (15, 9, 6)),
    (Family.SO_STAR, (4,), (28, 16, 12)),
    (Family.SL_H, (2,), (15, 10, 5)),
    (Family.SL_H, (3,), (35, 21, 14)),
    (Family.SP_R, (2,), (10, 4, 6)),
    (Family.SP_R, (3,), (21, 9, 12)),
    (Family.SO_CPT, (5,), (10, 10, 0)),
    (Family.SU_CPT, (3,), (8, 8, 0)),
    (Family.SP_CPT, (2,), (10, 10, 0)),
]


def test_identity_centralizer_is_everything():
    for family, params, expected in IDENTITY_DIMS:
        a = model(family, *params)
        e = identity_element(a)
        assert e.order == 1
        assert matrix_fixed_dims(e) == FixedDims(*expected), (family, params)


def _turned_reflection():
    """diag(1, -1, 1) on so(1,2), conjugated by a 3-4-5 rotation of the two
    negative coordinates: a valid element with Fraction entries, which
    takes the span path."""
    flip = [[Fraction(int(i == j) * (-1 if i == 1 else 1)) for j in range(3)] for i in range(3)]
    c, s = Fraction(3, 5), Fraction(4, 5)
    return mul(mul(rotation(3, 1, 2, c, s), flip), rotation(3, 1, 2, c, -s))


def test_matrix_element_hashes_and_its_repr_leaves_out_the_rows():
    # the identity carries a basis map, the turned reflection operator rows
    for build in (identity_element, partial(element, rows=_turned_reflection())):
        e = build(model(Family.SO, 1, 2))
        again = build(model(Family.SO, 1, 2))
        assert e == again and hash(e) == hash(again)
        assert bool(e.operator_rows) != bool(e.basis_map)
        assert repr(e) == f"MatrixElement(ambient={e.ambient!r}, entries={e.entries!r}, order={e.order})"
    assert e.operator_rows and e.basis_map is None and e.order == 2


def realified(field, n, terms):
    """The n x n F-matrix sum of c E_ij u over terms (i, j, u, c), as real
    rows."""
    size = len(mo._UNITS[field]["1"]) * n
    m = [[0] * size for _ in range(size)]
    for i, j, x in mo._expand(field, n, terms):
        m[i][j] = x
    return m


def realified_unit(field, u, c=1):
    return realified(field, 1, [(0, 0, u, c)])


def test_unit_table_realifies_the_division_rings():
    # 1 x 1 matrices: the realified units multiply as in C and H, and the
    # conjugate of each unit is its transpose
    assert realified_unit("R", "1") == [[1]]
    for field, units in (("C", "i"), ("H", "ijk")):
        one = realified_unit(field, "1")
        assert one == eye(len(one))
        for u in units:
            assert mul(realified_unit(field, u), realified_unit(field, u)) == realified_unit(field, "1", -1)
            assert [list(r) for r in zip(*realified_unit(field, u))] == realified_unit(field, u, -1)
    for a, b, c in ("ijk", "jki", "kij"):
        assert mul(realified_unit("H", a), realified_unit("H", b)) == realified_unit("H", c)
        assert mul(realified_unit("H", b), realified_unit("H", a)) == realified_unit("H", c, -1)


def test_model_keeps_the_given_presentation():
    # low-rank isomorphisms (su(2,2) ~ so(2,4), sp(4,R) ~ so(2,3)) must not
    # collapse here: the matrix model depends on the presentation.
    assert model(Family.SU, 2, 2).family is Family.SU
    assert model(Family.SP_R, 2).family is Family.SP_R


def test_q_split_fixed_dims():
    # diag(-I_{N-1}, 1): the equality witness class.
    cases = [
        (Family.SL_R, (5,), (16, 6, 10)),  # s(gl(4)+gl(1)), so(4); 10 = n(n-1)/2
        (Family.SL_R, (4,), (9, 3, 6)),
        (Family.SO, (2, 3), (6, 2, 4)),    # 4 = p(q-1)
        (Family.SO, (3, 4), (15, 6, 9)),   # 9 = p(q-1)
    ]
    for family, params, expected in cases:
        e = q_split_element(model(family, *params))
        assert e.order == 2
        assert matrix_fixed_dims(e) == FixedDims(*expected), (family, params)


def _equality_element(a, label):
    """The element whose fixed set is the equality witness ``label`` of
    ``a``, or None for a witness of any other shape."""
    h = algebras.parse_algebra(label)
    if a.family is Family.SL_R and h == algebras.parse_algebra(f"sl({a.params[0] - 1},R)+R"):
        return q_split_element(model(a.family, *a.params))
    if a.family is Family.SO:
        p, q = a.params
        if h == algebras.algebra(Family.SO, p, q - 1):
            return q_split_element(model(a.family, p, q))
        if (p, q) == (3, 3) and h == algebras.parse_algebra("sl(3,R)+R"):
            # swapping the two coordinate triples fixes gl(3,R)
            return element(model(a.family, p, q), [[int(j == (i + 3) % 6) for j in range(6)] for i in range(6)])
    return None


def test_every_equality_case_is_realized_at_its_row_dims():
    # the margin-0 passes: each equality case's witness is the fixed set of
    # an order-2 element, at its row's dims and at its ambient's target
    cases = [
        c
        for a in algebras.iter_noncompact_simple(16)
        for c in vf.verify_case(a)
        if c.route == vf.ROUTE_EQUALITY
    ]
    assert len(cases) == 62
    for c in cases:
        label = c.witness.split(" -> ")[1].split(" (fixed dim ")[0]
        e = _equality_element(c.algebra, label)
        assert e is not None, ("an equality case of another shape", c)
        d, ambient = algebras.reductive_dims(algebras.parse_algebra(label)), algebras.dims(c.algebra)
        assert e.order == 2
        assert matrix_fixed_dims(e) == FixedDims(d.dim_g, d.dim_k, d.dim_s), c
        assert d.dim_s == ambient.dim_s - ambient.rk_r, c


def test_q_split_only_for_real_orthogonal_style_models():
    with pytest.raises(InvalidElement):
        q_split_element(model(Family.SU, 1, 2))


SPOT_SIGNATURES = [
    # (signature, frozen (dim_g, dim_k, dim_s))
    (sig(SigFamily.SO_PQ, (3, 4), (1, 1, 2), (2, 1, 1)), (7, 3, 4)),
    (sig(SigFamily.SO_PQ, (3, 4), (1, 1, 2), (-1, 2, 2)), (9, 3, 6)),
    (sig(SigFamily.SU_PQ, (2, 2), (1, 1, 1), (-1, 1, 0), (2, 0, 1)), (5, 3, 2)),
    (sig(SigFamily.SP_PQ, (1, 2), (1, 1, 1), (-1, 0, 1)), (13, 9, 4)),
    (sig(SigFamily.SP_PQ, (1, 2), (2, 1, 1), (1, 0, 1)), (7, 5, 2)),
    (sig(SigFamily.SOSTAR_2N, (4,), (1, 3, 0), (-1, 1, 0)), (16, 10, 6)),
    (sig(SigFamily.SOSTAR_2N, (4,), (2, 1, 1), (1, 2, 0)), (10, 6, 4)),
    (sig(SigFamily.SO_N, (7,), (1, 6, 0), (-1, 1, 0)), (15, 15, 0)),
    (sig(SigFamily.SU_N, (5,), (1, 4, 0), (-1, 1, 0)), (16, 16, 0)),
    (sig(SigFamily.SP_N_COMPACT, (3,), (1, 2, 0), (2, 1, 0)), (11, 11, 0)),
]


def test_spot_signatures_frozen_dims():
    for s, expected in SPOT_SIGNATURES:
        got = matrix_fixed_dims(from_signature(s))
        assert got == FixedDims(*expected), s
        # the same numbers must fall out of the combinatorial recipes
        if s.family in (SigFamily.SO_N, SigFamily.SU_N, SigFamily.SP_N_COMPACT):
            assert got.dim_centralizer_k == signature_dim(s)
        else:
            assert got.dim_s_fixed == signature_dim(s)
            assert got.dim_centralizer_k == signature_compact_dim(s)


SWEEP = [
    (SigFamily.SO_PQ, (1, 2)),
    (SigFamily.SO_PQ, (2, 2)),
    (SigFamily.SO_PQ, (2, 3)),
    (SigFamily.SU_PQ, (1, 1)),
    (SigFamily.SU_PQ, (1, 2)),
    (SigFamily.SU_PQ, (2, 2)),
    (SigFamily.SP_PQ, (1, 1)),
    (SigFamily.SP_PQ, (1, 2)),
    (SigFamily.SOSTAR_2N, (3,)),
    (SigFamily.SOSTAR_2N, (4,)),
    (SigFamily.SO_N, (5,)),
    (SigFamily.SU_N, (4,)),
    (SigFamily.SP_N_COMPACT, (2,)),
]


def test_matrix_route_agrees_with_every_small_class():
    checked = 0
    for family, params in SWEEP:
        for s in enumerate_signatures(family, params, order_le_4=True):
            got = matrix_fixed_dims(from_signature(s))
            if family in (SigFamily.SO_N, SigFamily.SU_N, SigFamily.SP_N_COMPACT):
                assert got.dim_s_fixed == 0, s
                assert got.dim_centralizer_k == signature_dim(s), s
            else:
                assert got.dim_s_fixed == signature_dim(s), s
                assert got.dim_centralizer_k == signature_compact_dim(s), s
            assert got.dim_centralizer_g == got.dim_centralizer_k + got.dim_s_fixed
            checked += 1
    assert checked > 50


def quarter_turns(n, a):
    """Terms of the diagonal F-matrix with i on a coordinates, -i on the rest."""
    return [(d, d, "i", 1 if d < a else -1) for d in range(n)]


def test_single_rotation_class_against_the_so_star_bound():
    # the one-angle-class elements of so*(2n) (i on a coordinates, -i on
    # the other n - a), which the signature oracle rejects as central: their
    # largest fixed set exceeds the closed-form bound for n in {2, 3, 4},
    # meets it at n = 5, the size e6(2) and e6(-14) use, and stays below
    table = {}
    for n in range(2, 11):
        ambient = model(Family.SO_STAR, n)
        table[n] = max(
            matrix_fixed_dims(element(ambient, realified("H", n, quarter_turns(n, a)))).dim_s_fixed
            for a in range(n + 1)
        )
    assert table == {2: 2, 3: 4, 4: 8, 5: 12, 6: 18, 7: 24, 8: 32, 9: 40, 10: 50}
    bounds = {n: bound(SigFamily.SOSTAR_2N, (n,)) for n in table}
    assert [n for n in table if table[n] > bounds[n]] == [2, 3, 4]
    assert [n for n in table if table[n] == bounds[n]] == [5]


def test_element_orders_and_integer_entries():
    quarter = from_signature(sig(SigFamily.SO_PQ, (3, 4), (1, 1, 2), (2, 1, 1)))
    assert quarter.order == 4
    half = from_signature(sig(SigFamily.SO_PQ, (3, 4), (1, 1, 2), (-1, 2, 2)))
    assert half.order == 2
    unitary = from_signature(sig(SigFamily.SU_PQ, (1, 2), (2, 1, 1), (1, 0, 1)))
    assert unitary.order == 4
    for e in (quarter, half, unitary):
        assert {x for row in e.entries for x in row} <= {-1, 0, 1}


def test_rejects_infinite_and_unsupported_orders():
    a = model(Family.SL_R, 2)
    with pytest.raises(InvalidElement):
        element(a, [[1, 1], [0, 1]])  # unipotent shear, infinite order
    with pytest.raises(InvalidElement):
        element(a, [[0, -1], [1, -1]])  # order 3 does not divide 4


# a reflection of so(1,2) conjugated by a boost
BOOSTED_REFLECTION = [
    [Fraction(41, 9), Fraction(-40, 9), 0],
    [Fraction(40, 9), Fraction(-41, 9), 0],
    [0, 0, 1],
]


def test_rejects_form_breaking_and_non_orthogonal_elements():
    a = model(Family.SO, 1, 2)
    # swaps a positive and a negative coordinate: not an isometry of the form
    with pytest.raises(InvalidElement, match="algebra"):
        element(a, [[0, 0, 1], [0, 1, 0], [1, 0, 0]])
    # boost-conjugated reflection: preserves the form but moves the maximal
    # compact, so the k/p split is not respected
    with pytest.raises(InvalidElement, match="compact"):
        element(a, BOOSTED_REFLECTION)
    # swaps the two blocks of so(2,2) with scales 2 and 1/2: an involution
    # that normalizes k = so(2)+so(2), but takes the p block [[0, Z], [Z^t, 0]]
    # to [[0, 4 Z^t], [Z / 4, 0]], outside the algebra; only the p rows show it
    half = Fraction(1, 2)
    with pytest.raises(InvalidElement, match="algebra"):
        element(model(Family.SO, 2, 2), [[0, 0, 2, 0], [0, 0, 0, 2], [half, 0, 0, 0], [0, half, 0, 0]])


# the classes of acceptance criterion 3: so(p,q) and su(p,q) with
# p + q <= 8, and so*(2n) with n <= 6
CRITERION_3 = [
    (family, (p, q))
    for p in range(1, 8)
    for q in range(p, 9 - p)
    for family in (SigFamily.SO_PQ, SigFamily.SU_PQ)
] + [(SigFamily.SOSTAR_2N, (n,)) for n in range(2, 7)]


def _sparse(triples):
    """The matrix with entry x at (i, j) for each (i, j, x), as
    {row: {column: value}}."""
    m = {}
    for i, j, x in triples:
        m.setdefault(i, {})[j] = x
    return m


def _sparse_mul(a, b):
    """The product of two {row: {column: value}} matrices, zeros dropped."""
    out = {}
    for i, arow in a.items():
        acc = {}
        for k, x in arow.items():
            for j, y in b.get(k, {}).items():
                acc[j] = acc.get(j, 0) + x * y
        acc = {j: v for j, v in acc.items() if v}
        if acc:
            out[i] = acc
    return out


def _flat_sparse(m, n):
    """The sparse row (columns, values) of an n x n {row: {column: value}}
    matrix, flattened row by row."""
    cells = sorted((i * n + j, x) for i, row in m.items() for j, x in row.items() if x)
    return [c for c, _ in cells], [x for _, x in cells]


@lru_cache(maxsize=None)
def _basis_rows(ambient):
    """The ambient's k and p basis matrices, as (i, j, x) entries, and their
    flattened sparse rows."""
    k, p = mo._bases(ambient)[:2]
    n = mo._size(ambient)
    return len(k), k + p, [_flat_sparse(_sparse(triples), n) for triples in k + p]


def _rank_verdict(ambient, rows):
    """The verdict of the rank criterion that `element` applied before it
    tested span membership: appending the rows of X -> A X A^3 - X to the
    basis, and the k rows to the k basis, must keep each rank.  Every row is
    built here, with its own sparse product, from the basis matrices
    alone."""
    n = len(rows)
    a = _sparse((i, j, x) for i, row in enumerate(rows) for j, x in enumerate(row) if x)
    a3 = _sparse_mul(_sparse_mul(a, a), a)
    if _sparse_mul(a3, a) != {i: {i: 1} for i in range(n)}:
        return "order"
    a_cols = _sparse((j, i, x) for i, row in a.items() for j, x in row.items())
    nk, mats, basis = _basis_rows(ambient)
    moved = []
    for triples in mats:
        # A M A^3 - M, with A^-1 = A^3: each entry x of M at (i, j) adds x
        # times column i of A times row j of A^3, and takes x from (i, j)
        conj = {}
        for i, j, x in triples:
            a3_row = a3[j]
            for r, y in a_cols[i].items():
                crow = conj.setdefault(r, {})
                for c, z in a3_row.items():
                    crow[c] = crow.get(c, 0) + x * y * z
            crow = conj.setdefault(i, {})
            crow[j] = crow.get(j, 0) - x
        moved.append(_flat_sparse(conj, n))
    full, compact = sparse_ranks([basis + moved, basis[:nk] + moved[:nk]])
    if full != len(basis):
        return "algebra"
    if compact != nk:
        return "compact"
    return "accepted"


def _verdict(ambient, rows):
    """`element`'s verdict, named by the word its error message turns on."""
    try:
        element(ambient, rows)
    except InvalidElement as exc:
        for word in ("compact", "algebra", "order"):  # "subalgebra" is compact
            if word in str(exc):
                return word
        raise
    return "accepted"


def _signed_permutations(n):
    for perm in permutations(range(n)):
        for signs in product((1, -1), repeat=n):
            rows = [[0] * n for _ in range(n)]
            for i, (j, s) in enumerate(zip(perm, signs)):
                rows[i][j] = s
            yield rows


def test_span_membership_gives_the_rank_verdict():
    # every criterion-3 element, every signed permutation on so(1,2) and
    # so(2,2), the boosted reflection and a shear: one verdict from both
    # criteria
    groups = [
        [
            (model(mo.SIG_AMBIENT[family], *params), mo._realized(s))
            for family, params in CRITERION_3
            for s in enumerate_signatures(family, params, order_le_4=True)
        ],
        [(model(Family.SO, 1, 2), rows) for rows in _signed_permutations(3)],
        [(model(Family.SO, 2, 2), rows) for rows in _signed_permutations(4)],
        [(model(Family.SO, 1, 2), BOOSTED_REFLECTION)],
        # a shear reflection moves every row of compact so(3), which has
        # only k rows, out of the algebra
        [(model(Family.SO_CPT, 3), [[1, 1, 0], [0, -1, 0], [0, 0, 1]])],
    ]
    tallies = []
    for cases in groups:
        tally = Counter()
        for ambient, rows in cases:
            want = _rank_verdict(ambient, rows)
            assert _verdict(ambient, rows) == want, (ambient, rows)
            tally[want] += 1
        tallies.append(dict(tally))
    assert tallies == [
        {"accepted": 1130},
        # the 3-cycles have order 3 or 6; a transposition of the positive
        # coordinate with a negative one breaks the form
        {"accepted": 16, "algebra": 16, "order": 16},
        # the 3-cycles, and the signed 4-cycles of order 8, fail the order
        # test; a swap of the two blocks maps the form to its negative,
        # which so(2,2) and its k both tolerate
        {"accepted": 112, "algebra": 96, "order": 176},
        {"compact": 1},
        {"algebra": 1},
    ]


def _outcome(build):
    """What `build()` returns, or the message of the InvalidElement it
    raises."""
    try:
        return build()
    except InvalidElement as exc:
        return str(exc)


def _sparse_reference(e):
    """(order, operator rows) of a validated element, from `_sparse_mul` and
    `_operator_rows` called directly."""
    a = [{j: x for j, x in enumerate(row) if x} for row in e.entries]
    eye = [{i: 1} for i in range(len(a))]
    a2 = mo._sparse_mul(a, a)
    order = next(k for k, power in ((1, a), (2, a2), (4, mo._sparse_mul(a2, a2))) if power == eye)
    inv = mo._sparse_mul(a2, a) if order == 4 else a
    return order, mo._operator_rows(a, inv, mo._bases(e.ambient).matrices)


def _small_models():
    """Every model whose parameters total at most 7."""
    for family in mo._SHAPES:
        if family in algebras._TWO_PARAM:
            params = [(p, s - p) for s in range(1, 8) for p in range(s + 1)]
        else:
            params = [(s,) for s in range(1, 8)]
        for x in params:
            try:
                yield model(family, *x)
            except OutOfDomain:
                pass


def test_signed_permutations_match_the_sparse_product_path(monkeypatch):
    # each element through `element` twice, with the signed-permutation
    # path and with its detector off, must give the same entries and order
    # or the same refusal.  Every accepted one takes the map path, and its
    # basis map, expanded into eps M_pi(b) - M_b, gives the rows of the
    # span path and of `_operator_rows` called directly
    builds = [
        *(partial(element, model(Family.SO, 1, 2), rows) for rows in _signed_permutations(3)),
        *(partial(element, model(Family.SO, 2, 2), rows) for rows in _signed_permutations(4)),
        *(
            partial(element, model(mo.SIG_AMBIENT[family], *params), mo._realized(s))
            for family, params in CRITERION_3
            for s in enumerate_signatures(family, params, order_le_4=True)
        ),
        *(partial(identity_element, a) for a in _small_models()),
        *(
            partial(q_split_element, a)
            for a in _small_models()
            if a.family in (Family.SL_R, Family.SO, Family.SO_CPT)
        ),
    ]
    fast = [_outcome(build) for build in builds]
    monkeypatch.setattr(mo, "_signed_permutation", lambda a: None)
    tally = Counter()
    for build, got in zip(builds, fast):
        want = _outcome(build)
        assert type(got) is type(want), build
        if type(got) is str:
            assert got == want, build
            tally[got.split()[0]] += 1
        else:
            assert got.basis_map is not None and want.basis_map is None, build
            assert got[:3] == want[:3] and operator_rows(got) == want.operator_rows, build
            assert (got.order, operator_rows(got)) == _sparse_reference(got), build
            tally[got.order] += 1
    # 1,400 accepted: 1,130 criterion-3 classes, 16 + 112 signed
    # permutations, 109 identities and 33 q_splits; 304 refused alike, 192
    # of order 3, 6 or 8 and 112 transpositions that break the form
    assert tally == {1: 111, 2: 401, 4: 888, "element": 192, "conjugation": 112}


HALF = Fraction(1, 2)
ALGEBRA = "conjugation does not preserve the ambient algebra"
COMPACT = (
    "conjugation must preserve the maximal compact subalgebra; "
    "bring the element to the standard orthogonal position first"
)


@pytest.mark.parametrize(
    "family, params, rows, message",
    [
        # a row with two nonzeros
        (Family.SO_CPT, (3,), [[1, 1, 0], [0, -1, 0], [0, 0, 1]], ALGEBRA),
        # a first row whose one nonzero is 2, or 1/2: involutions of
        # sl(2,R) that move so(2) out of itself, and the so(2,2) block swap
        # with scales 2 and 1/2
        (Family.SL_R, (2,), [[0, 2], [HALF, 0]], COMPACT),
        (Family.SL_R, (2,), [[0, HALF], [2, 0]], COMPACT),
        (Family.SO, (2, 2), [[0, 0, 2, 0], [0, 0, 0, 2], [HALF, 0, 0, 0], [0, HALF, 0, 0]], ALGEBRA),
        # a repeated column
        (Family.SO, (1, 2), [[1, 0, 0], [0, 0, 1], [0, 0, 1]], "element order must divide 4"),
    ],
    ids=["two-nonzeros", "entry-2", "entry-half", "scaled-swap", "repeated-column"],
)
def test_non_signed_permutations_keep_the_sparse_path(family, params, rows, message):
    # the sparse rows `element` reads these entries into
    a = [{j: x for j, x in enumerate(row) if x} for row in rows]
    assert mo._signed_permutation(a) is None
    with pytest.raises(InvalidElement) as exc:
        element(model(family, *params), rows)
    assert str(exc.value) == message


# the order-<=4 classes of every signature family, up to these sizes
MAP_SIZES = [
    (SigFamily.SO_N, [(n,) for n in range(2, 9)]),
    (SigFamily.SU_N, [(n,) for n in range(2, 6)]),
    (SigFamily.SP_N_COMPACT, [(n,) for n in range(1, 4)]),
    (SigFamily.SO_PQ, [(p, s - p) for s in range(2, 7) for p in range(1, s // 2 + 1)]),
    (SigFamily.SU_PQ, [(p, s - p) for s in range(2, 6) for p in range(1, s // 2 + 1)]),
    (SigFamily.SP_PQ, [(p, s - p) for s in range(2, 5) for p in range(1, s // 2 + 1)]),
    (SigFamily.SOSTAR_2N, [(n,) for n in range(2, 6)]),
]


def test_basis_maps_count_what_the_span_path_ranks(monkeypatch):
    # every class takes the map path, and the cycle counts equal both the
    # span path's ranks, with the detector off, and the signature recipe
    classes = [
        s
        for family, sizes in MAP_SIZES
        for params in sizes
        for s in enumerate_signatures(family, params, order_le_4=True)
    ]
    mapped = [from_signature(s) for s in classes]
    assert all(e.basis_map is not None for e in mapped)
    counted = [matrix_fixed_dims(e) for e in mapped]
    monkeypatch.setattr(mo, "_signed_permutation", lambda a: None)
    for s, e, got in zip(classes, mapped, counted):
        ranked = element(e.ambient, e.entries)
        assert ranked.basis_map is None, s
        assert got == matrix_fixed_dims(ranked), s
        if s.family in (SigFamily.SO_N, SigFamily.SU_N, SigFamily.SP_N_COMPACT):
            assert got == (signature_dim(s), signature_dim(s), 0), s
        else:
            assert (got.dim_s_fixed, got.dim_centralizer_k) == (signature_dim(s), signature_compact_dim(s)), s
    assert len({s.family for s in classes}) == 7 and len(classes) == 472


def test_signed_permutations_the_map_misses_take_the_span_path():
    # a coordinate swap of su(3) is a valid signed permutation, but it takes
    # the trace-free diagonal i(E_11 - E_22) to i(E_00 - E_22), which is no
    # basis matrix: the span path counts the dims of its eigenvalues
    # (1, 1, -1)
    swap = [[0] * 6 for _ in range(6)]
    for i, j in ((0, 1), (1, 0), (2, 2), (3, 4), (4, 3), (5, 5)):
        swap[i][j] = 1
    a = model(Family.SU_CPT, 3)
    e = element(a, swap)
    assert e.basis_map is None and e.order == 2
    diagonal = from_signature(sig(SigFamily.SU_N, (3,), (1, 2, 0), (-1, 1, 0)))
    assert matrix_fixed_dims(e) == matrix_fixed_dims(diagonal) == FixedDims(4, 4, 0)
    # swapping the positive coordinate of so(1,2) with a negative one takes
    # the compact basis matrix E_12 - E_21 to E_02 - E_20, no basis matrix
    # up to sign: the span path refuses it, with its message
    transposition = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
    assert _outcome(partial(element, model(Family.SO, 1, 2), transposition)) == ALGEBRA


def test_rejects_wrong_shape():
    with pytest.raises(InvalidElement):
        element(model(Family.SO, 2, 3), eye(4))


def test_unsupported_ambients():
    with pytest.raises(UnsupportedFamily):
        model(Family.G2_2)
    with pytest.raises(UnsupportedFamily):
        model(Family.SL_C, 3)
    with pytest.raises(UnsupportedFamily):
        model(Family.E8_8)
    with pytest.raises(OutOfDomain):
        model(Family.SO, 0, 3)
    with pytest.raises(OutOfDomain):
        model(Family.SL_R, 1)


@pytest.mark.parametrize("params", [(2.0, 3), (True, 2), (2, Fraction(3)), ("2", 3)])
def test_model_takes_int_parameters_only(params):
    # floats once reached _zeros as a bare TypeError, and True was answered
    # as 1
    with pytest.raises(OutOfDomain):
        model(Family.SO, *params)


@pytest.mark.parametrize(
    "entry",
    [0.5, -1.0, "1", "-1", "1/2", True, False, Decimal(-1), 1j, Decimal("NaN"), Decimal("Infinity")],
)
def test_element_takes_int_and_fraction_entries_only(entry):
    # strings once parsed as rationals (a "-1" diagonal passed as an
    # involution), bools were read as 0 and 1, and 1j, NaN and Infinity
    # escaped as bare TypeError, ValueError and OverflowError
    rows = [[-1, 0, 0], [0, -1, 0], [0, 0, -1]]
    rows[1][1] = entry
    with pytest.raises(InvalidElement):
        element(model(Family.SL_R, 3), rows)


def test_model_refuses_sizes_past_the_limit():
    assert mo.MATRIX_SIZE_LIMIT == 64
    # at the limit: accepted (only the model is built, no basis)
    assert model(Family.SO, 32, 32).params == (32, 32)
    assert model(Family.SO_STAR, 16).params == (16,)
    assert model(Family.SP_R, 32).params == (32,)
    for family, params in [
        (Family.SO, (32, 33)),
        (Family.SO_CPT, (65,)),
        (Family.SU, (16, 17)),
        (Family.SO_STAR, (17,)),
        (Family.SL_H, (17,)),
        (Family.SP_CPT, (17,)),
    ]:
        with pytest.raises(OutOfDomain, match="64"):
            model(family, *params)


def test_from_signature_needs_order_dividing_four():
    # two distinct rotation angles cannot both have order <= 4
    s = sig(SigFamily.SO_PQ, (4, 4), (2, 1, 1), (3, 1, 1))
    with pytest.raises(InvalidElement):
        from_signature(s)
    with pytest.raises(InvalidSignature):
        from_signature(sig(SigFamily.SO_PQ, (2, 3), (1, 2, 3)))  # central


def test_from_signature_rejects_what_signature_dim_rejects():
    # half-integer multiplicities once reached the matrix builder (TypeError)
    with pytest.raises(InvalidSignature):
        from_signature(sig(SigFamily.SU_PQ, (1, 2), (1, 0.5, 1), (-1, 0.5, 1)))
    # a negative angle tag is refused by both oracles alike
    with pytest.raises(InvalidSignature):
        from_signature(sig(SigFamily.SU_PQ, (1, 2), (1, 1, 1), (-2, 0, 1)))


# every signature of the seven families at n <= 8 and p + q <= 6, both
# orders of the two parameters, with and without order_le_4
REALIZED_SIZES = [
    (family, (n,))
    for family in (SigFamily.SO_N, SigFamily.SU_N, SigFamily.SP_N_COMPACT, SigFamily.SOSTAR_2N)
    for n in range(1, 9)
] + [
    (family, (p, q))
    for family in (SigFamily.SO_PQ, SigFamily.SU_PQ, SigFamily.SP_PQ)
    for p in range(1, 6)
    for q in range(1, 7 - p)
]

# taken from the code before the four per-family element builders gave way
# to one list of F-matrix terms realified through the unit table
REALIZED_SHA256 = "2f4862d1f329fbdd17db12e8e4d8bbc486e98031aa23619bf0159cd6de42c741"


def test_realized_elements_are_pinned():
    # the entries of each block element, or the message that refuses it:
    # 9,045 signatures, 5,345 of them refused (two angle classes, or su
    # tags past the fourth roots of unity)
    digest = hashlib.sha256()
    count = refused = 0
    for family, params in REALIZED_SIZES:
        for order_le_4 in (False, True):
            for s in enumerate_signatures(family, params, order_le_4):
                try:
                    out = mo._realized(s)
                except InvalidElement as exc:
                    out = str(exc)
                    refused += 1
                count += 1
                digest.update(repr((s, out)).encode())
    assert (count, refused) == (9045, 5345)
    assert digest.hexdigest() == REALIZED_SHA256


def test_every_signature_family_is_in_every_geometry_table():
    # each family is one row, and the row's field is its matrix model's.  An
    # indefinite row's compact part names a definite row whose model is the
    # catalog's max compact of the row's own model; its constant is the
    # catalog's u(1) count plus the compact row's constant once per part
    rows = centralizers._ROWS
    assert set(rows) == set(SigFamily)
    for family, row in rows.items():
        assert row.field == mo._SHAPES[row.ambient][0], family
        if row.compact is None:
            continue
        compact, constant = row.compact
        k_family, u1 = algebras._NAMES[row.ambient].max_compact
        parts = 2 if row.ambient in algebras._TWO_PARAM else 1
        assert rows[compact].compact is None and rows[compact].ambient is k_family, family
        assert constant == u1 + parts * rows[compact].centre, family


def test_conjugation_invariance_hand_picked():
    a = model(Family.SO, 2, 3)
    base = from_signature(sig(SigFamily.SO_PQ, (2, 3), (1, 0, 1), (2, 1, 1)))
    want = matrix_fixed_dims(base)
    assert want == FixedDims(4, 2, 2)
    # rotation inside the negative part mixing the fixed +1 coordinate with
    # half of the rotation pair
    p = rotation(5, 2, 3, Fraction(3, 5), Fraction(4, 5))
    pinv = rotation(5, 2, 3, Fraction(3, 5), Fraction(-4, 5))
    moved = element(a, mul(mul(p, [list(r) for r in base.entries]), pinv))
    assert matrix_fixed_dims(moved) == want

    b = model(Family.SL_R, 5)
    split = q_split_element(b)
    p = rotation(5, 3, 4, Fraction(5, 13), Fraction(12, 13))
    pinv = rotation(5, 3, 4, Fraction(5, 13), Fraction(-12, 13))
    moved = element(b, mul(mul(p, [list(r) for r in split.entries]), pinv))
    assert matrix_fixed_dims(moved) == FixedDims(16, 6, 10)


# blockdiag(1, R, I_2, R), R the quarter turn: g2(2)'s torus element, and
# blockdiag(1, -I_2, I_2, -I_2), its square
G22_QUARTER_TURN = sig(SigFamily.SO_PQ, (3, 4), (1, 1, 2), (2, 1, 1))
G22_HALF_TURN = sig(SigFamily.SO_PQ, (3, 4), (1, 1, 2), (-1, 2, 2))


def test_g22_rotation_case_report():
    # quarter turn: exact kernel dims, in the so(3,4) model
    assert g22_case() == FixedDims(7, 3, 4)
    assert from_signature(G22_QUARTER_TURN).ambient == model(Family.SO, 3, 4)

    # the independent combinatorial route must reproduce the kernel numbers
    assert signature_dim(G22_QUARTER_TURN) == g22_case().dim_s_fixed == 4
    assert signature_compact_dim(G22_QUARTER_TURN) == 3


def test_g22_half_turn_chain_is_not_strict():
    # the half turn is an involution with a strictly larger centralizer:
    # the chain bound reaches the target, so the case is the involution route's
    d = algebras.dims(algebras.simple(Family.G2_2))
    half = matrix_fixed_dims(from_signature(G22_HALF_TURN))
    assert half == FixedDims(9, 3, 6)
    chain = half.dim_centralizer_g - 2  # dim C_K(A) of SO(2) x SO(2)
    assert chain == 7 >= d.dim_s - d.rk_r == 6
    assert signature_dim(G22_HALF_TURN) == half.dim_s_fixed


def test_g22_zero_turn_is_the_rejected_identity():
    # the zero angle degenerates to the identity, a central element class
    with pytest.raises(InvalidSignature, match="central"):
        from_signature(sig(SigFamily.SO_PQ, (3, 4), (1, 3, 4)))


def test_g22_quarter_matches_direct_signature_construction():
    assert matrix_fixed_dims(from_signature(G22_QUARTER_TURN)) == g22_case()


def test_g22_turns_are_the_written_out_element():
    # blockdiag(1, R, I_2, R), R the quarter turn in the planes at
    # coordinates 1-2 and 5-6, and its square blockdiag(1, -I_2, I_2, -I_2)
    quarter = (
        (1, 0, 0, 0, 0, 0, 0),
        (0, 0, -1, 0, 0, 0, 0),
        (0, 1, 0, 0, 0, 0, 0),
        (0, 0, 0, 1, 0, 0, 0),
        (0, 0, 0, 0, 1, 0, 0),
        (0, 0, 0, 0, 0, 0, -1),
        (0, 0, 0, 0, 0, 1, 0),
    )
    half = tuple(
        tuple(x if i == j else 0 for j in range(7)) for i, x in enumerate((1, -1, -1, 1, 1, -1, -1))
    )
    q, h = from_signature(G22_QUARTER_TURN), from_signature(G22_HALF_TURN)
    assert (q.entries, q.order) == (quarter, 4)
    assert (h.entries, h.order) == (half, 2)
    assert {type(x) for row in q.entries + h.entries for x in row} == {int}


def test_integral_fractions_give_the_int_element():
    # q_split of so(3,4) is a signed permutation: integral entries only
    a = model(Family.SO, 3, 4)
    split = q_split_element(a)
    as_fractions = [[Fraction(x) for x in row] for row in split.entries]
    e = element(a, as_fractions)
    assert e == split
    assert {type(x) for row in e.entries for x in row} == {int}
    assert matrix_fixed_dims(e) == matrix_fixed_dims(split) == FixedDims(15, 6, 9)

    # a Pythagorean conjugate mixes integral and truly fractional entries
    base = from_signature(sig(SigFamily.SO_PQ, (2, 3), (1, 0, 1), (2, 1, 1)))
    p = rotation(5, 2, 3, Fraction(3, 5), Fraction(4, 5))
    pinv = rotation(5, 2, 3, Fraction(3, 5), Fraction(-4, 5))
    rows = mul(mul(p, [list(r) for r in base.entries]), pinv)
    as_ints = [[x.numerator if x.denominator == 1 else x for x in row] for row in rows]
    from_fractions = element(model(Family.SO, 2, 3), rows)
    from_ints = element(model(Family.SO, 2, 3), as_ints)
    assert from_fractions == from_ints
    types = {type(x) for row in from_fractions.entries for x in row}
    assert types == {int, Fraction}
    assert all(x.denominator != 1 for row in from_fractions.entries for x in row if type(x) is Fraction)
    assert matrix_fixed_dims(from_fractions) == matrix_fixed_dims(from_ints) == FixedDims(4, 2, 2)


def test_broken_invariants_raise_named_errors(monkeypatch):
    # dependent basis matrices
    k, p = mo._sl("R", 3)
    monkeypatch.setitem(mo._SHAPES, Family.SL_R, ("R", lambda field, n: (k + k[:1], p), 1, 2))
    with pytest.raises(mo.OracleInvariantError):
        mo._bases.__wrapped__(model(Family.SL_R, 3))
    # blocks that do not fill the coordinates, in one part or in n
    with pytest.raises(mo.OracleInvariantError, match=r"fill \(2,\) of \(3,\)"):
        mo._realized(sig(SigFamily.SO_N, (3,), (1, 1, 0), (-1, 1, 0)))
    with pytest.raises(mo.OracleInvariantError, match=r"fill \(1, 1\) of \(1, 2\)"):
        mo._realized(sig(SigFamily.SU_PQ, (1, 2), (1, 1, 0), (-1, 0, 1)))
    # operator rows whose k and p parts overlap cannot split the fixed space
    e = element(model(Family.SO, 1, 2), _turned_reflection())
    assert e.basis_map is None
    bump = ((0,), (1,))  # the sparse row of a 1 in the first cell
    with pytest.raises(mo.OracleInvariantError, match="do not split"):
        matrix_fixed_dims(e._replace(operator_rows=(bump, bump, bump)))
    # so(1,2) has one k basis matrix, 0, and two p ones: a basis map must
    # be a bijection of the three that keeps k and p, with signs +-1
    e = identity_element(model(Family.SO, 1, 2))
    assert e.basis_map == ((0, 1), (1, 1), (2, 1))
    for broken in (
        ((0, 1), (1, 1), (1, 1)),
        ((0, 1), (1, 1)),
        ((0, 1), (1, 1), (2, 1), (3, 1)),
        ((1, 1), (0, 1), (2, 1)),
        ((0, 1), (2, 1), (1, 2)),
    ):
        with pytest.raises(mo.OracleInvariantError, match="basis map"):
            matrix_fixed_dims(e._replace(basis_map=broken))


def _raise_tests():
    """This module's tests that expect a raise: named errors, rejected
    elements and the model domain."""
    return sorted(
        name
        for name, fn in globals().items()
        if name.startswith("test_") and "pytest.raises" in inspect.getsource(fn)
    )


@pytest.mark.skipif(sys.flags.optimize > 0, reason="this run already has -O")
def test_matrix_tests_pass_under_optimize():
    # the oracle's invariants are explicit raises, so they survive -O; the
    # tests that only check values need no second run.  The run loads no
    # plugin packages: the hypothesis plugin imports all of hypothesis at
    # the end of a session, most of the run's time under -O.
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")]))
    env["PYTEST_DISABLE_PLUGIN_AUTOLOAD"] = "1"
    names = _raise_tests()
    assert len(names) == 13
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider"]
        + ["%s::%s" % (Path(__file__), name) for name in names],
        cwd=root,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "30 passed" in proc.stdout.splitlines()[-1], proc.stdout[-2000:]
