"""Cross-checks for the exact matrix centralizer oracle.

Expected values come from two independent places: hand-counted block
decompositions of centralizers (frozen integers below) and the closed-form
signature recipes.  The matrix route computes kernels of X -> AXA^-1 - X
over exact rationals, so every comparison is literal integer equality.

The tests here that expect a raise are rerun under ``python -O``.  This
module imports no hypothesis, so that run starts without it; the random
rotation check is in test_matrix_conjugation.py.
"""

import dataclasses
import inspect
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from liecheck import matrixoracle as mo
from liecheck.algebras import Family, OutOfDomain
from liecheck.centralizers import (
    InvalidSignature,
    SigFamily,
    Signature,
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
    n = len(a)
    return [
        [sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]


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


def realified_unit(field, u, c=1):
    d = len(mo._UNITS[field]["1"])
    m = [[0] * d for _ in range(d)]
    for i, j, x in mo._expand(field, 1, [(0, 0, u, c)]):
        m[i][j] = x
    return m


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


def test_rejects_form_breaking_and_non_orthogonal_elements():
    a = model(Family.SO, 1, 2)
    # swaps a positive and a negative coordinate: not an isometry of the form
    with pytest.raises(InvalidElement, match="algebra"):
        element(a, [[0, 0, 1], [0, 1, 0], [1, 0, 0]])
    # boost-conjugated reflection: preserves the form but moves the maximal
    # compact, so the k/p split is not respected
    f = Fraction
    boosted = [
        [f(41, 9), f(-40, 9), 0],
        [f(40, 9), f(-41, 9), 0],
        [0, 0, 1],
    ]
    with pytest.raises(InvalidElement, match="compact"):
        element(a, boosted)


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


def test_g22_rotation_case_report():
    r = g22_case()
    assert r.ambient.family is Family.SO and r.ambient.params == (3, 4)

    # quarter turn: exact kernel dims, recorded next to the classical count 6
    assert r.quarter_turn == FixedDims(7, 3, 4)
    assert r.counted_centralizer_dim == 6
    assert r.quarter_turn.dim_centralizer_g != r.counted_centralizer_dim
    assert r.compact_centralizer_dim == 2
    assert r.chain_upper_bound == r.quarter_turn.dim_centralizer_g - 2 == 5
    assert r.strict_target == 6
    assert r.strict is True

    # the independent combinatorial route must reproduce the kernel numbers
    assert signature_dim(r.quarter_signature) == r.quarter_turn.dim_s_fixed
    assert signature_compact_dim(r.quarter_signature) == 3

    # half turn: involution, centralizer strictly larger, chain not strict
    assert r.half_turn == FixedDims(9, 3, 6)
    assert r.half_turn_chain == 7
    assert r.half_turn_chain >= r.strict_target
    assert r.half_turn_needs_involution_route is True
    assert signature_dim(r.half_signature) == r.half_turn.dim_s_fixed

    # zero angle degenerates to the identity
    assert r.zero_turn_rejected is True


def test_g22_quarter_matches_direct_signature_construction():
    s = sig(SigFamily.SO_PQ, (3, 4), (1, 1, 2), (2, 1, 1))
    assert matrix_fixed_dims(from_signature(s)) == g22_case().quarter_turn


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
    monkeypatch.setitem(mo._SHAPES, Family.SL_R, ("R", lambda field, n: (k + k[:1], p), 1))
    with pytest.raises(mo.OracleInvariantError):
        mo._bases.__wrapped__(model(Family.SL_R, 3))
    # blocks that do not fill the coordinates
    with pytest.raises(mo.OracleInvariantError):
        mo._so_rows((3,), ((1, 1, 0), (-1, 1, 0)), False)
    # operator rows whose k and p parts overlap cannot split the fixed space
    e = identity_element(model(Family.SO, 1, 2))
    bump = [1] + [0] * 8
    with pytest.raises(mo.OracleInvariantError):
        matrix_fixed_dims(dataclasses.replace(e, operator_rows=(bump, bump, bump)))


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
    assert len(names) == 10
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
    assert "13 passed" in proc.stdout.splitlines()[-1], proc.stdout[-2000:]
