"""Involution rows and order-3 fixed-point data.

Expected fixed-point subalgebras are frozen from the classification tables;
instances are written with the catalog constructors so canonical renaming
stays out of the comparisons.  The center-type choices (compact circle vs
split line) are additionally pinned against the exact matrix kernel, which
recomputes the same dimensions from scratch.
"""

import subprocess
import sys
import threading
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest

from liecheck import algebras as al
from liecheck import centralizers as ce
from liecheck import involutions as inv
from liecheck import matrixoracle as mo
from liecheck.algebras import Family
from liecheck.centralizers import SigFamily

CPT = al.COMPACT_LINE
SPLIT = al.SPLIT_LINE


def A(fam, *params):
    return al.simple(fam, *params)


def red(fam, *params):
    return al.algebra(fam, *params)


def plus(*parts):
    return al.direct_sum(*parts)


def instance_set(a):
    out = set()
    for e in inv.isotropy_entries(a):
        out.update(e.instances)
    return out


_token_value = lru_cache(maxsize=None)(al.parse_algebra)


@lru_cache(maxsize=None)
def label_value(label):
    """The value a row label names, as `IsotropyEntry.instances` parses it.

    `parse_algebra` of a sum is the direct sum of its summands' values, so
    each summand is parsed once per test run and the sums are built here,
    once per label: the tests that read every label up to max-param 32
    share them.
    """
    return al.direct_sum(*map(_token_value, label.split("+")))


def states(values):
    """The labels and dims S a row states for the instances `values`."""
    return tuple(map(al.render, values)), tuple(al.reductive_dims(h).dim_s for h in values)


def test_input_must_be_canonical_and_noncompact():
    with pytest.raises(inv.UnsupportedAlgebra):
        inv.isotropy_entries(A(Family.SU_CPT, 5))
    with pytest.raises(inv.UnsupportedAlgebra):
        inv.isotropy_entries(A(Family.G2_CPT))
    # sl(4,R), su(2,2) and so(5,C) all have canonical names elsewhere
    for raw in [
        al.SimpleAlgebra(Family.SL_R, (4,)),
        al.SimpleAlgebra(Family.SU, (2, 2)),
        al.SimpleAlgebra(Family.SO_C, (5,)),
    ]:
        with pytest.raises(inv.UnsupportedAlgebra):
            inv.isotropy_entries(raw)


def test_rows_stop_at_the_size_limit():
    assert al.SIZE_LIMIT == mo.MATRIX_SIZE_LIMIT == 64
    for fam, params in [
        (Family.SU, (32, 33)),
        (Family.SO, (1, 64)),
        (Family.SL_R, (65,)),
        (Family.SO_C, (65,)),
    ]:
        with pytest.raises(inv.UnsupportedAlgebra, match="size limit 64"):
            inv.isotropy_entries(A(fam, *params))
    assert inv.isotropy_entries(A(Family.SL_R, 64))
    # the exceptional families carry no size parameter
    assert inv.isotropy_entries(A(Family.E8_C))


def test_complex_sl5_row():
    a = A(Family.SL_C, 5)
    expected = {
        red(Family.SO_C, 5),
        plus(red(Family.SL_C, 4), CPT, SPLIT),
        plus(red(Family.SL_C, 2), red(Family.SL_C, 3), CPT, SPLIT),
        red(Family.SL_R, 5),
        red(Family.SU, 1, 4),
        red(Family.SU, 2, 3),
        al.max_compact(a),
    }
    assert instance_set(a) == expected
    kinds = {e.kind for e in inv.isotropy_entries(a)}
    assert kinds == {"linear", "real_form", "compact"}
    real = [e for e in inv.isotropy_entries(a) if e.kind == "real_form"]
    assert {h for e in real for h in e.instances} == {
        red(Family.SL_R, 5),
        red(Family.SU, 1, 4),
        red(Family.SU, 2, 3),
    }


@pytest.mark.parametrize("n", [5, 6, 8])
def test_sl_n_c_maximum_is_corank_one(n):
    value, entry, label = inv.max_fixed_dim(A(Family.SL_C, n))
    assert value == (n - 1) ** 2
    assert entry.template == "s(gl(k,C)+gl(l,C))"
    assert label == al.render(plus(red(Family.SL_C, n - 1), CPT, SPLIT))


def test_sl_3_c_maximum_is_the_split_form():
    # the lone case where an antilinear fixed set beats every linear one:
    # dim_s sl(3,R) = 5 > 4 = (n-1)^2
    value, entry, label = inv.max_fixed_dim(A(Family.SL_C, 3))
    assert value == 5
    assert (entry.template, entry.kind) == ("sl(3,R)", "real_form")
    assert label == al.render(red(Family.SL_R, 3))


def test_sl_4_c_maximum_is_symplectic():
    value, entry, label = inv.max_fixed_dim(A(Family.SL_C, 4))
    assert value == 10
    assert entry.template == "sp(4,C)"
    assert label == al.render(red(Family.SP_C, 2))


def test_real_sl6_row():
    a = A(Family.SL_R, 6)
    expected = {
        red(Family.SO, 1, 5),
        red(Family.SO, 2, 4),
        red(Family.SO, 3, 3),
        plus(red(Family.SL_R, 5), SPLIT),
        plus(red(Family.SL_R, 2), red(Family.SL_R, 4), SPLIT),
        plus(red(Family.SL_R, 3), red(Family.SL_R, 3), SPLIT),
        plus(red(Family.SL_C, 3), CPT),
        red(Family.SP_R, 3),
        al.max_compact(a),
    }
    assert instance_set(a) == expected
    by_template = {e.template: e for e in inv.isotropy_entries(a)}
    gl_sum = by_template["s(gl(k,R)+gl(l,R))"]
    assert gl_sum.constraints == ("k+l=6", "1<=k<=l")
    assert gl_sum.source == "sl-family"
    assert gl_sum.kind == "linear"
    cartan = by_template["compact"]
    assert cartan.source == "cartan"
    assert cartan.instances == (al.max_compact(a),)


@pytest.mark.parametrize("n", [3, 5, 6, 7])
def test_sl_n_r_equality_witness(n):
    # the corank-one witness meets dim S - rk exactly; nothing exceeds it
    a = A(Family.SL_R, n)
    d = al.dims(a)
    value, entry, label = inv.max_fixed_dim(a)
    assert value == d.dim_s - d.rk_r
    assert entry.template == "s(gl(k,R)+gl(l,R))"
    assert label == al.render(plus(red(Family.SL_R, n - 1), SPLIT))


def test_sl2r_has_no_self_row():
    # sp(2,R) = sl(2,R) would be the whole algebra; the row must vanish
    a = A(Family.SL_R, 2)
    assert not any("sp" in e.template for e in inv.isotropy_entries(a))
    assert instance_set(a) == {SPLIT, CPT}


def test_sl2c_has_no_self_row():
    # sp(2,C) = sl(2,C) would be the whole algebra; the row must vanish
    a = A(Family.SL_C, 2)
    assert [e.template for e in inv.isotropy_entries(a)] == [
        "so(2,C)", "s(gl(k,C)+gl(l,C))", "sl(2,R)", "su(p,q)", "sl(1,H)", "compact",
    ]
    assert instance_set(a) == {plus(CPT, SPLIT), red(Family.SL_R, 2), red(Family.SU_CPT, 2)}


def test_su33_row():
    a = A(Family.SU, 3, 3)
    expected = {
        red(Family.SO, 3, 3),
        red(Family.SO_STAR, 3),
        plus(red(Family.SU, 2, 3), CPT),
        plus(red(Family.SU_CPT, 2), red(Family.SU, 1, 3), CPT),
        plus(red(Family.SU_CPT, 3), red(Family.SU_CPT, 3), CPT),
        plus(red(Family.SL_R, 2), red(Family.SU, 2, 2), CPT),
        plus(red(Family.SU, 1, 2), red(Family.SU, 1, 2), CPT),
        plus(red(Family.SL_C, 3), SPLIT),
        red(Family.SP_R, 3),
    }
    assert instance_set(a) == expected
    assert inv.max_fixed_dim(a)[0] == 12


def test_su12_row():
    # su(1,1) and s(u(1)+u(2)) collapse onto sl(2,R)+u(1) and su(2)+u(1)
    a = A(Family.SU, 1, 2)
    assert instance_set(a) == {
        red(Family.SL_R, 2),
        plus(red(Family.SL_R, 2), CPT),
        plus(red(Family.SU_CPT, 2), CPT),
    }
    assert al.max_compact(a) == plus(red(Family.SU_CPT, 2), CPT)


def test_so23_row():
    a = A(Family.SO, 2, 3)
    expected = {
        plus(red(Family.SL_R, 2), red(Family.SL_R, 2)),
        plus(red(Family.SL_R, 2), CPT),
        plus(red(Family.SU_CPT, 2), CPT),
        red(Family.SL_C, 2),
        plus(red(Family.SL_R, 2), SPLIT),
    }
    assert instance_set(a) == expected
    value, entry, label = inv.max_fixed_dim(a)
    assert value == 4
    assert entry.template == "so(kp,kq)+so(lp,lq)"
    assert label == al.render(plus(red(Family.SL_R, 2), red(Family.SL_R, 2)))


def test_so33_has_both_equality_witnesses():
    # this algebra sits in two equality families at once: the vector
    # reflection gives so(2,3), the corank-one linear split gives sl(3,R)+R
    a = A(Family.SO, 3, 3)
    insts = instance_set(a)
    assert red(Family.SO, 2, 3) in insts
    assert plus(red(Family.SL_R, 3), SPLIT) in insts
    d = al.dims(a)
    for h in (red(Family.SO, 2, 3), plus(red(Family.SL_R, 3), SPLIT)):
        assert al.reductive_dims(h).dim_s == d.dim_s - d.rk_r


def test_sp12_row():
    a = A(Family.SP, 1, 2)
    expected = {
        plus(red(Family.SU_CPT, 2), red(Family.SO, 1, 4)),
        plus(red(Family.SU_CPT, 2), red(Family.SO_CPT, 5)),
        plus(red(Family.SU, 1, 2), CPT),
    }
    assert instance_set(a) == expected
    value, entry, label = inv.max_fixed_dim(a)
    assert value == 4
    assert entry.template == "sp(kp,kq)+sp(lp,lq)"
    assert label == al.render(plus(red(Family.SU_CPT, 2), red(Family.SO, 1, 4)))


def test_sp_r3_row():
    a = A(Family.SP_R, 3)
    expected = {
        plus(red(Family.SP_R, 1), red(Family.SP_R, 2)),
        plus(red(Family.SU, 1, 2), CPT),
        plus(red(Family.SL_R, 3), SPLIT),
        al.max_compact(a),
    }
    assert instance_set(a) == expected
    d = al.dims(a)
    assert inv.max_fixed_dim(a)[0] == 8
    assert d.dim_s - d.rk_r - 8 == 1


def test_sp_r4_maximum():
    value, entry, label = inv.max_fixed_dim(A(Family.SP_R, 4))
    assert value == 14  # n*n - n + 2 at n = 4
    assert entry.template == "sp(2k,R)+sp(2l,R)"
    assert label == al.render(plus(red(Family.SP_R, 3), red(Family.SP_R, 1)))


def test_so_star4_row():
    a = A(Family.SO_STAR, 4)
    expected = {
        plus(red(Family.SO_STAR, 1), red(Family.SO_STAR, 3)),
        plus(red(Family.SO_STAR, 2), red(Family.SO_STAR, 2)),
        red(Family.SO_C, 4),
        plus(red(Family.SU, 1, 3), CPT),
        plus(red(Family.SU, 2, 2), CPT),
        plus(red(Family.SL_H, 2), SPLIT),
        al.max_compact(a),
    }
    assert instance_set(a) == expected
    value, entry, label = inv.max_fixed_dim(a)
    assert value == 8
    assert entry.template == "u(k,l)"
    assert label == al.render(plus(red(Family.SU, 2, 2), CPT))


def test_sl_h3_row():
    a = A(Family.SL_H, 3)
    expected = {
        red(Family.SO_STAR, 3),
        plus(red(Family.SL_H, 1), red(Family.SL_H, 2), SPLIT),
        plus(red(Family.SL_C, 3), CPT),
        red(Family.SP, 1, 2),
        al.max_compact(a),
    }
    assert instance_set(a) == expected
    value, entry, label = inv.max_fixed_dim(a)
    assert value == 8
    assert entry.template == "gl(3,C)"
    assert label == al.render(plus(red(Family.SL_C, 3), CPT))


REAL_EXCEPTIONAL_ROWS = {
    Family.G2_2: {plus(red(Family.SL_R, 2), red(Family.SL_R, 2))},
    Family.F4_4: {
        plus(red(Family.SP_R, 3), red(Family.SP_R, 1)),
        plus(red(Family.SP, 1, 2), red(Family.SP_CPT, 1)),
        red(Family.SO, 4, 5),
    },
    Family.F4_M20: {
        plus(red(Family.SP, 1, 2), red(Family.SP_CPT, 1)),
        red(Family.SO, 1, 8),
    },
    Family.E6_6: {
        red(Family.SP, 2, 2),
        red(Family.SP_R, 4),
        plus(red(Family.SL_R, 6), red(Family.SL_R, 2)),
        plus(red(Family.SL_H, 3), red(Family.SU_CPT, 2)),
        plus(red(Family.SO, 5, 5), SPLIT),
        red(Family.F4_4),
    },
    Family.E6_2: {
        red(Family.SP, 1, 3),
        red(Family.SP_R, 4),
        plus(red(Family.SU, 2, 4), red(Family.SU_CPT, 2)),
        plus(red(Family.SU, 3, 3), red(Family.SL_R, 2)),
        plus(red(Family.SO, 4, 6), CPT),
        plus(red(Family.SO_STAR, 5), CPT),
        red(Family.F4_4),
    },
    Family.E6_M14: {
        red(Family.SP, 2, 2),
        plus(red(Family.SU, 2, 4), red(Family.SU_CPT, 2)),
        plus(red(Family.SU, 1, 5), red(Family.SL_R, 2)),
        plus(red(Family.SO, 2, 8), CPT),
        plus(red(Family.SO_STAR, 5), CPT),
        red(Family.F4_M20),
    },
    Family.E6_M26: {
        red(Family.SP, 1, 3),
        plus(red(Family.SL_H, 3), red(Family.SP_CPT, 1)),
        plus(red(Family.SO, 1, 9), SPLIT),
        red(Family.F4_M20),
    },
    Family.E7_7: {
        red(Family.SU, 4, 4),
        red(Family.SL_R, 8),
        red(Family.SL_H, 4),
        plus(red(Family.SO, 6, 6), red(Family.SL_R, 2)),
        plus(red(Family.SO_STAR, 6), red(Family.SP_CPT, 1)),
        plus(red(Family.E6_6), SPLIT),
        plus(red(Family.E6_2), CPT),
    },
    Family.E7_M5: {
        red(Family.SU, 4, 4),
        red(Family.SU, 2, 6),
        plus(red(Family.SO, 4, 8), red(Family.SU_CPT, 2)),
        plus(red(Family.SO_STAR, 6), red(Family.SL_R, 2)),
        plus(red(Family.E6_2), CPT),
        plus(red(Family.E6_M14), CPT),
    },
    Family.E7_M25: {
        red(Family.SL_H, 4),
        red(Family.SU, 2, 6),
        plus(red(Family.SO, 2, 10), red(Family.SL_R, 2)),
        plus(red(Family.SO_STAR, 6), red(Family.SP_CPT, 1)),
        plus(red(Family.E6_M14), CPT),
        plus(red(Family.E6_M26), SPLIT),
    },
    Family.E8_8: {
        plus(red(Family.E7_7), red(Family.SL_R, 2)),
        plus(red(Family.E7_M5), red(Family.SU_CPT, 2)),
        red(Family.SO, 8, 8),
        red(Family.SO_STAR, 8),
    },
    Family.E8_M24: {
        plus(red(Family.E7_M25), red(Family.SL_R, 2)),
        plus(red(Family.E7_M5), red(Family.SU_CPT, 2)),
        red(Family.SO, 4, 12),
        red(Family.SO_STAR, 8),
    },
}


@pytest.mark.parametrize("fam", sorted(REAL_EXCEPTIONAL_ROWS, key=lambda f: f.value))
def test_real_exceptional_rows(fam):
    a = A(fam)
    assert instance_set(a) == REAL_EXCEPTIONAL_ROWS[fam] | {al.max_compact(a)}


COMPLEX_EXCEPTIONAL_ROWS = {
    Family.G2_C: {
        plus(red(Family.SL_C, 2), red(Family.SL_C, 2)),
        red(Family.G2_2),
    },
    Family.F4_C: {
        plus(red(Family.SP_C, 3), red(Family.SP_C, 1)),
        red(Family.SO_C, 9),
        red(Family.F4_4),
        red(Family.F4_M20),
    },
    Family.E6_C: {
        red(Family.SP_C, 4),
        plus(red(Family.SL_C, 6), red(Family.SL_C, 2)),
        plus(red(Family.SO_C, 10), red(Family.SO_C, 2)),
        red(Family.F4_C),
        red(Family.E6_6),
        red(Family.E6_2),
        red(Family.E6_M14),
        red(Family.E6_M26),
    },
    Family.E7_C: {
        red(Family.SL_C, 8),
        plus(red(Family.SO_C, 12), red(Family.SL_C, 2)),
        plus(red(Family.E6_C), red(Family.SO_C, 2)),
        red(Family.E7_7),
        red(Family.E7_M5),
        red(Family.E7_M25),
    },
    Family.E8_C: {
        plus(red(Family.E7_C), red(Family.SL_C, 2)),
        red(Family.SO_C, 16),
        red(Family.E8_8),
        red(Family.E8_M24),
    },
}


@pytest.mark.parametrize("fam", sorted(COMPLEX_EXCEPTIONAL_ROWS, key=lambda f: f.value))
def test_complex_exceptional_rows(fam):
    a = A(fam)
    assert instance_set(a) == COMPLEX_EXCEPTIONAL_ROWS[fam] | {al.max_compact(a)}


def test_g2_real_maximum():
    value, entry, label = inv.max_fixed_dim(A(Family.G2_2))
    assert value == 4
    assert entry.template == "sl(2,R)+sl(2,R)"
    assert label == al.render(plus(red(Family.SL_R, 2), red(Family.SL_R, 2)))


def test_e7_m5_product_sign_note():
    entries = inv.isotropy_entries(A(Family.E7_M5))
    flagged = [e for e in entries if e.instances == (plus(red(Family.E6_2), CPT),)]
    assert len(flagged) == 1
    assert flagged[0].notes
    payload = inv.entry_payload(flagged[0])
    assert "product" in payload["source_table"]


def test_entry_payload_shape():
    e = inv.isotropy_entries(A(Family.E8_8))[0]
    payload = inv.entry_payload(e)
    assert set(payload) == {"ambient", "isotropy_template", "constraints", "source_table"}
    assert payload["ambient"] == "e8(8)"
    assert isinstance(payload["constraints"], list)


def test_compact_entry_is_the_cartan_fixed_set():
    for a in al.iter_noncompact_simple(8):
        entries = [e for e in inv.isotropy_entries(a) if e.kind == "compact"]
        assert len(entries) == 1
        assert entries[0].instances == (al.max_compact(a),)
        assert al.reductive_dims(entries[0].instances[0]).dim_s == 0


def test_fixed_sets_are_proper_submanifolds():
    for a in al.iter_noncompact_simple(8):
        top = al.dims(a).dim_s
        for _, h, space in inv.instantiations(a):
            assert space.dim_s < top, (al.render(a), al.render(h))


@pytest.fixture(scope="module")
def rows_24():
    """Every catalog ambient up to size 24, with its involution rows."""
    return {a: inv.isotropy_entries(a) for a in al.iter_noncompact_simple(24)}


@lru_cache(maxsize=None)
def compact_type(label):
    """The render text of the maximal compact subalgebra of the instance
    `label` names: each noncompact simple factor's `max_compact`, each
    compact factor as it is, and u(1) per compact abelian dimension."""
    h = label_value(label)
    parts = [
        al.reductive((f,)) if f.family in al.COMPACT else al.max_compact(f) for f in h.simples
    ]
    return al.render(plus(*parts, *(CPT,) * h.compact_abelian_dim))


def test_association_balances_every_row_set(rows_24):
    """Berger's association sigma -> sigma theta, counted by type.

    For the Cartan involution theta and an involution sigma commuting with
    it, with fixed set h, sigma theta fixes (k cap h) + (p cap q): the same
    maximal compact subalgebra k cap h as h, and the complementary dim S.
    So over the identity and every instance of every row, as many have
    (type of K, dim S) = (k, s) as have (k, S - s).  The type fixes dim K,
    so this implies the count by (dim K, dim S).  The synthetic Cartan row
    repeats the class of theta when another row lists it too; that repeat
    is dropped before counting.
    """
    repeats = instances = 0
    for a, entries in rows_24.items():
        d = al.dims(a)
        listed = [label for e in entries if e.kind != "compact" for label in e.labels]
        (cartan,) = [e for e in entries if e.kind == "compact"]
        if cartan.labels[0] in listed:
            repeats += 1
        else:
            listed.append(cartan.labels[0])
        count = Counter(
            (compact_type(label), al.reductive_dims(label_value(label)).dim_s) for label in listed
        )
        count[al.render(al.max_compact(a)), d.dim_s] += 1  # the identity
        for (k, dim_s), n in count.items():
            assert count[k, d.dim_s - dim_s] == n, (al.render(a), k, dim_s)
        instances += len(listed)
    assert (len(rows_24), repeats, instances) == (593, 426, 17530)


def test_real_rows_complexify_into_the_complex_rows(rows_24):
    """Each real fixed set complexifies into a linear row of g_C.

    h is complexified factor by factor, each abelian dimension becoming a
    complex line so(2,C); the result must be g_C itself or an instance of
    a linear row of g_C, the complexification of the real ambient g.
    """
    line = red(Family.SO_C, 2)
    checked = 0
    for a, entries in rows_24.items():
        if al.is_complex(a):
            continue
        g_c = al.complexify(a)
        (c,) = g_c.simples
        complex_rows = rows_24[c] if c in rows_24 else inv.isotropy_entries(c)
        targets = {
            g_c, *(label_value(x) for e in complex_rows if e.kind == "linear" for x in e.labels)
        }
        for e in entries:
            for h in map(label_value, e.labels):
                lines = [line] * (h.compact_abelian_dim + h.split_abelian_dim)
                h_c = plus(*map(al.complexify, h.simples), *lines)
                assert h_c in targets, (al.render(a), al.render(h), al.render(h_c))
                checked += 1
    assert checked == 16884


def _eye(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def _zeros(n):
    return [[Fraction(0)] * n for _ in range(n)]


def _neg(m):
    return [[-x for x in row] for row in m]


def _block2(a, b, c, d):
    out = []
    for i in range(len(a)):
        out.append(list(a[i]) + list(b[i]))
    for i in range(len(c)):
        out.append(list(c[i]) + list(d[i]))
    return out


def _swap(n):
    # [[0, I], [I, 0]] of size 2n
    return _block2(_zeros(n), _eye(n), _eye(n), _zeros(n))


def test_center_types_match_matrix_kernel():
    """Split-vs-compact center choices, recomputed by exact kernel arithmetic.

    Each case conjugates by an isometry-up-to-sign whose centralizer is one
    of the one-dimensional-center rows, and compares all three fixed-space
    dimensions with the catalog dimensions of the frozen instance.
    """
    diag3 = [[Fraction(int(i == j)) * (1 if i < 3 else -1) for j in range(6)] for i in range(6)]
    cases = [
        # part swap of so(3,3): centralizer gl(3,R) = sl(3,R) + split line
        (mo.model(Family.SO, 3, 3), _swap(3), plus(red(Family.SL_R, 3), SPLIT), A(Family.SO, 3, 3)),
        # complex structure on sl(6,R): gl(3,C) meets sl in sl(3,C) + circle
        (
            mo.model(Family.SL_R, 6),
            _block2(_zeros(3), _neg(_eye(3)), _eye(3), _zeros(3)),
            plus(red(Family.SL_C, 3), CPT),
            A(Family.SL_R, 6),
        ),
        # part swap of su(3,3): gl(3,C) meets su in sl(3,C) + split line
        (
            mo.model(Family.SU, 3, 3),
            _block2(_swap(3), _zeros(6), _zeros(6), _swap(3)),
            plus(red(Family.SL_C, 3), SPLIT),
            A(Family.SU, 3, 3),
        ),
        # part swap of sp(2,2): gl(2,H) = sl(2,H) + split line
        (
            mo.model(Family.SP, 2, 2),
            _block2(
                _block2(_swap(2), _zeros(4), _zeros(4), _swap(2)),
                _zeros(8),
                _zeros(8),
                _block2(_swap(2), _zeros(4), _zeros(4), _swap(2)),
            ),
            plus(red(Family.SL_H, 2), SPLIT),
            A(Family.SP, 2, 2),
        ),
        # right multiplication by i on sl(3,H): gl(3,C) with a circle center
        (
            mo.model(Family.SL_H, 3),
            _block2(_zeros(6), _neg(diag3), diag3, _zeros(6)),
            plus(red(Family.SL_C, 3), CPT),
            A(Family.SL_H, 3),
        ),
    ]
    for model, rows, iso, canonical in cases:
        fixed = mo.matrix_fixed_dims(mo.element(model, rows))
        want = al.reductive_dims(iso)
        assert (fixed.dim_centralizer_g, fixed.dim_centralizer_k, fixed.dim_s_fixed) == (
            want.dim_g,
            want.dim_k,
            want.dim_s,
        ), al.render(iso)
        assert iso in instance_set(canonical)


def test_triality_so8c():
    classes = inv.triality_classes(A(Family.SO_C, 8))
    assert all(t.order == 3 for t in classes)
    fixed = {t.fixed_algebra for t in classes if t.kind == "outer"}
    assert fixed == {red(Family.G2_C), red(Family.SL_C, 3)}
    assert {al.reductive_dims(h).dim_s for h in fixed} == {14, 8}
    compact = [t for t in classes if t.kind == "compact"]
    assert len(compact) == 1
    assert al.reductive_dims(compact[0].fixed_algebra).dim_s == 0


def test_triality_so44():
    classes = inv.triality_classes(A(Family.SO, 4, 4))
    outer = {t.fixed_algebra for t in classes if t.kind == "outer"}
    assert outer == {red(Family.G2_2), red(Family.SL_R, 3), red(Family.SU, 1, 2)}
    assert {al.reductive_dims(h).dim_s for h in outer} == {8, 5, 4}
    rotation = {t.fixed_algebra for t in classes if t.kind != "outer"}
    assert rotation == {
        plus(red(Family.SO, 2, 4), CPT),
        plus(red(Family.SL_R, 2), red(Family.SL_R, 2), red(Family.SL_R, 2), CPT),
        plus(red(Family.SU_CPT, 2), red(Family.SU_CPT, 2), red(Family.SU_CPT, 2), CPT),
        plus(red(Family.SU, 1, 2), CPT, CPT),
    }
    compact = [t for t in classes if t.kind == "compact"]
    assert len(compact) == 1
    assert al.reductive_dims(compact[0].fixed_algebra).dim_s == 0
    # every order-3 fixed set stays under dim S - rk
    d = al.dims(A(Family.SO, 4, 4))
    assert all(al.reductive_dims(t.fixed_algebra).dim_s < d.dim_s - d.rk_r for t in classes)


def test_triality_only_for_the_two_d4_forms():
    for a in [A(Family.SL_C, 5), A(Family.SO_C, 7), A(Family.SO, 3, 4), A(Family.SO, 3, 3)]:
        with pytest.raises(inv.UnsupportedAlgebra):
            inv.triality_classes(a)


_SPLIT_ROWS = {
    Family.SU: ("s(u(kp,kq)+u(lp,lq))", (CPT,)),
    Family.SO: ("so(kp,kq)+so(lp,lq)", ()),
    Family.SP: ("sp(kp,kq)+sp(lp,lq)", ()),
}


def _reference_split_instances(a):
    """Every ordered split, deduplicated in loop order, ambient excluded."""
    p, q = a.params
    template, extra = _SPLIT_ROWS[a.family]
    built = [
        plus(red(a.family, kp, kq), red(a.family, p - kp, q - kq), *extra)
        for kp in range(p + 1)
        for kq in range(q + 1)
        if (kp, kq) not in ((0, 0), (p, q))
    ]
    ambient = al.reductive((a,))
    return template, tuple(dict.fromkeys(h for h in built if h != ambient))


def test_split_row_is_every_unordered_split():
    # _split_row's closed-form ranges against the condition they state,
    # deduplicated in loop order: the p == q swaps give no new sum
    for fam, (template, extra) in _SPLIT_ROWS.items():
        for p in range(1, 13):
            for q in range(1, 13):
                want = dict.fromkeys(
                    plus(red(fam, kp, kq), red(fam, p - kp, q - kq), *extra)
                    for kp in range(p + 1)
                    for kq in range(q + 1)
                    if (0, 0) != (kp, kq) <= (p - kp, q - kq)
                )
                row = inv._split_row(template, fam, p, q)
                assert (row.labels, row.dims_s) == states(want), (fam, p, q)


def _part_entry(fam, a, b):
    """What the part table holds at (a, b): None at (0, 0), else the
    canonical value's lone simple factor if the value is one simple and
    nothing else, and the canonical value itself otherwise."""
    if (a, b) == (0, 0):
        return None
    value = red(fam, a, b)
    if len(value.simples) == 1 and value == al.ReductiveAlgebra(value.simples):
        return value.simples[0]
    return value


def test_split_rows_read_the_part_table_in_any_growth_order(monkeypatch):
    # an empty table grown unevenly: wide q before narrow q, large p before
    # small p, and the border sizes of SIZE_LIMIT; (1, 2), (2, 2) and (4, 4)
    # sum so(kp,kq) parts that are not one simple factor (0, R, u(1) and
    # so(2,2)), so their rows take _split_row's general path
    monkeypatch.setattr(inv, "_PARTS", {})
    sizes = [
        (3, 40), (3, 2), (20, 5), (2, 20), (1, 63), (32, 32), (1, 1), (7, 4), (4, 7),
        (1, 2), (2, 2), (4, 4),
    ]
    for fam, (template, extra) in _SPLIT_ROWS.items():
        used = set()
        for p, q in sizes:
            splits = [
                (red(fam, kp, kq), red(fam, p - kp, q - kq))
                for kp in range(p + 1)
                for kq in range(q + 1)
                if (0, 0) != (kp, kq) <= (p - kp, q - kq)
            ]
            used.update(part for split in splits for part in split)
            want = dict.fromkeys(plus(x, y, *extra) for x, y in splits)
            row = inv._split_row(template, fam, p, q)
            assert (row.labels, row.dims_s) == states(want), (fam, p, q)
        if fam is Family.SO:
            assert {al.TRIVIAL_ALGEBRA, SPLIT, CPT, red(Family.SO, 2, 2)} <= used
        # the table holds exactly the boxes asked for, each entry its part's
        # canonical value or that value's lone simple factor
        table = inv._PARTS[fam]
        for a, parts in enumerate(table):
            assert len(parts) == 1 + max(q for p, q in sizes if p >= a), (fam, a)
            for b, part in enumerate(parts):
                assert part is _part_entry(fam, a, b), (fam, a, b)
        assert len(table) == 1 + max(p for p, _ in sizes)


def test_threads_growing_the_part_table_keep_every_part_in_place(monkeypatch):
    # more threads than cores grow one empty table in different orders,
    # switching as often as the interpreter allows; an index appended twice
    # would shift every later part of its list
    monkeypatch.setattr(inv, "_PARTS", {})
    sizes = [(p, q) for p in range(1, 25) for q in (1, 12, 24)]
    orders = [sizes, sizes[::-1], sizes[1::2] + sizes[::2], sizes[::3] + sizes]
    template, _ = _SPLIT_ROWS[Family.SO]
    errors = []
    start = threading.Barrier(len(orders))

    def grow(order):
        try:
            start.wait(timeout=30)
            for p, q in order:
                inv._split_row(template, Family.SO, p, q)
        except Exception as e:  # reported below
            errors.append(e)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=grow, args=(order,)) for order in orders]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    table = inv._PARTS[Family.SO]
    assert len(table) == 25
    for a, parts in enumerate(table):
        assert len(parts) == 25, a
        assert parts[1:] == [_part_entry(Family.SO, a, b) for b in range(1, 25)], a


def test_import_builds_no_part_table_and_a_sweep_grows_it_to_its_size():
    # a fresh interpreter: the table is empty at import, and a sweep at
    # max-param 16 asks for no part (a, b) with a + b past 16
    src = Path(al.__file__).resolve().parents[1]
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import liecheck.cli\n"
        "from liecheck import involutions as inv, verify as vf\n"
        "print(len(inv._PARTS))\n"
        "vf.sweep('all', 16)\n"
        "print(max(a + len(parts) - 1 for t in inv._PARTS.values() for a, parts in enumerate(t)))\n"
        "print(sorted(f.name for f in inv._PARTS))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(src)], capture_output=True, text=True, check=True, timeout=60
    )
    assert out.stdout.split("\n") == ["0", "16", "['SO', 'SP', 'SU']", ""]


def test_split_rows_match_every_ordered_split():
    checked = 0
    for a in al.iter_noncompact_simple(20):
        if a.family not in _SPLIT_ROWS:
            continue
        template, want = _reference_split_instances(a)
        entries = inv.isotropy_entries(a)
        rows = [e for e in entries if e.template == template]
        if not want:
            assert rows == []
            continue
        (row,) = rows
        # same values in the same first-occurrence order, not only as sets;
        # `render` is injective on canonical values, so labels compare them
        assert row.labels == tuple(map(al.render, want)), al.render(a)
        # max_fixed_dim keeps the earliest instance among ties, so the
        # witness depends on that order too
        best = None
        for e in entries:
            for h in want if e is row else e.instances:
                dim_s = al.reductive_dims(h).dim_s
                if best is None or dim_s > best[0]:
                    best = (dim_s, e.template, al.render(h))
        dim_s, entry, label = inv.max_fixed_dim(a)
        assert (dim_s, entry.template, label) == best, al.render(a)
        checked += 1
    assert checked > 250


def test_max_fixed_dim_is_the_first_maximum_over_instantiations():
    # the rule max_fixed_dim stated before it read the rows' dims: over the
    # (row, instance) pairs in table order, each instance measured from its
    # value, the first whose dim S is strictly above every earlier one
    checked = 0
    for a in al.iter_noncompact_simple(32):
        best = None
        for e in inv.isotropy_entries(a):
            for label in e.labels:
                dim_s = al.reductive_dims(label_value(label)).dim_s
                if best is None or dim_s > best[0]:
                    best = (dim_s, e, label)
        assert inv.max_fixed_dim(a) == best, al.render(a)
        checked += 1
    assert checked == 985


def test_entry_labels_and_dims_are_each_instance_rendered_and_measured():
    # each label is the render text of the value it names, and each dim S
    # that value's, by reductive_dims; every family's rows, the split rows'
    # general path included, up to max-param 32
    checked = 0
    for a in al.iter_noncompact_simple(32):
        for e in inv.isotropy_entries(a):
            want = states([label_value(label) for label in e.labels])
            assert (e.labels, e.dims_s) == want, (al.render(a), e.template)
            checked += len(e.labels)
    assert checked > 40_000


def test_raw_row_labels_are_equal_exactly_when_values_are():
    # a row's distinct labels, none the ambient's, state distinct values,
    # none the ambient, only if within each row's labels (and the
    # ambient's) equal labels go with equal values and unequal with
    # unequal.  Each label is the render text of the value it names, so
    # it is canonical: two labels naming one value would render alike
    checked = 0
    for a in al.iter_noncompact_simple(32):
        if a.family in inv._CLASSICAL_ROWS:
            rows = inv._CLASSICAL_ROWS[a.family][1](*a.params)
        else:
            rows = inv._exceptional_rows(a)[1]
        for row in rows:
            labels = row.labels
            values = [label_value(label) for label in labels]
            assert labels == tuple(map(al.render, values)), (al.render(a), row.template)
            pairs = set(zip(labels, values))
            pairs.add((al.render(a), al.reductive((a,))))
            assert len(pairs) == len({x for x, _ in pairs}) == len({h for _, h in pairs}), (
                al.render(a),
                row.template,
            )
            checked += len(values)
    assert checked > 40_000


def test_entries_are_their_rows_as_built():
    # every row of every algebra up to SIZE_LIMIT, classical, exceptional
    # and Cartan (about 0.7 s): no row repeats a label or holds the
    # ambient's, and each entry is its row as built, field by field, with
    # the ambient and the source added
    rows_seen = 0
    for a in al.iter_noncompact_simple(al.SIZE_LIMIT):
        if a.family in inv._CLASSICAL_ROWS:
            source, rows_of = inv._CLASSICAL_ROWS[a.family]
            rows = [(source, row) for row in rows_of(*a.params)]
        else:
            source, exceptional = inv._exceptional_rows(a)
            rows = [(source, row) for row in exceptional]
        rows.append(("cartan", inv._one("compact", al.max_compact(a), kind=inv.CARTAN)))
        entries = inv.isotropy_entries(a)
        assert len(entries) == len(rows), al.render(a)
        for (source, row), entry in zip(rows, entries):
            where = (al.render(a), row.template)
            assert a.name not in row.labels, where
            assert len(set(row.labels)) == len(row.labels), where
            assert entry._asdict() == {"ambient": a, "source": source, **row._asdict()}, where
            rows_seen += 1
    assert rows_seen == 11031


# each k+l=n row's dim S at (k, n - k), by template; n is the ambient's
# first parameter in every family with such a row
_SUM_ROW_DIMS = {
    "so(k,l)": lambda k, l: k * l,
    "so(p,q)": lambda k, l: k * l,
    "u(k,l)": lambda k, l: 2 * k * l,
    "su(p,q)": lambda k, l: 2 * k * l,
    "sp(k,l)": lambda k, l: 4 * k * l,
    "sp(p,q)": lambda k, l: 4 * k * l,
    "s(gl(k,R)+gl(l,R))": lambda k, l: k * (k + 1) // 2 + l * (l + 1) // 2 - 1,
    "sp(2k,R)+sp(2l,R)": lambda k, l: k * (k + 1) + l * (l + 1),
    "so*(2k)+so*(2l)": lambda k, l: k * (k - 1) + l * (l - 1),
    "s(gl(k,H)+gl(l,H))": lambda k, l: 2 * k * k - k + 2 * l * l - l - 1,
    "so(k,C)+so(l,C)": lambda k, l: k * (k - 1) // 2 + l * (l - 1) // 2,
    "s(gl(k,C)+gl(l,C))": lambda k, l: k * k + l * l - 1,
    "sp(2k,C)+sp(2l,C)": lambda k, l: k * (2 * k + 1) + l * (2 * l + 1),
}


def test_sum_rows_have_a_closed_form():
    # every k+l=n row up to max-param 48 (about 0.2 s): its dims S are the
    # template's closed form at k = 1..n//2, in row order
    rows = Counter()
    for a in al.iter_noncompact_simple(48):
        for e in inv.isotropy_entries(a):
            dim_s = _SUM_ROW_DIMS.get(e.template)
            if dim_s is None:
                continue
            n = a.params[0]
            want = tuple(dim_s(k, n - k) for k in range(1, n // 2 + 1))
            assert e.dims_s == want, (al.render(a), e.template)
            rows[e.template] += 1
    assert set(rows) == set(_SUM_ROW_DIMS)
    assert sum(rows.values()) == 640


# each one-instance classical row's dim S, by ambient family: its template
# at the ambient's stored parameters (p <= q), mapped to the closed form in
# them; a key that needs an even parameter goes unused at an odd one
_ONE_ROW_DIMS = {
    Family.SL_R: lambda n: {
        f"gl({n // 2},C)": (n // 2) ** 2 - 1,
        f"sp({n},R)": (n // 2) * (n // 2 + 1),
    },
    Family.SU: lambda p, q: {
        f"so({p},{q})": p * q,
        f"so*({2 * p})": p * (p - 1),
        f"gl({p},C)": p * p,
        f"sp({p // 2},{q // 2})": p * q,
        f"sp({2 * p},R)": p * (p + 1),
    },
    Family.SO: lambda p, q: {
        f"so({p},C)": p * (p - 1) // 2,
        f"u({p // 2},{q // 2})": p * q // 2,
        f"gl({p},R)": p * (p + 1) // 2,
    },
    Family.SP: lambda p, q: {
        f"sp({2 * p},C)": p * (2 * p + 1),
        f"u({p},{q})": 2 * p * q,
        f"gl({p},H)": 2 * p * p - p,
    },
    Family.SP_R: lambda n: {
        f"sp({n},C)": (n // 2) * (n + 1),
        f"gl({n},R)": n * (n + 1) // 2,
    },
    Family.SO_STAR: lambda m: {
        f"so({m},C)": m * (m - 1) // 2,
        f"gl({m // 2},H)": (m // 2) * (m - 1),
    },
    Family.SL_H: lambda m: {
        f"so*({2 * m})": m * (m - 1),
        f"gl({m},C)": m * m - 1,
    },
    Family.SL_C: lambda n: {
        f"so({n},C)": n * (n - 1) // 2,
        f"sp({n},C)": (n // 2) * (n + 1),
        f"sl({n},R)": n * (n + 1) // 2 - 1,
        f"sl({n // 2},H)": 2 * (n // 2) ** 2 - n // 2 - 1,
    },
    Family.SO_C: lambda n: {
        f"gl({n // 2},C)": (n // 2) ** 2,
        f"so*({n})": (n // 2) * (n // 2 - 1),
    },
    Family.SP_C: lambda n: {
        f"gl({n},C)": n * n,
        f"sp({2 * n},R)": n * (n + 1),
    },
}


def test_one_instance_rows_have_a_closed_form():
    # every classical row that is neither a k+l=n row, a split row nor the
    # Cartan row holds one instance, whose dim S is its template's closed
    # form; a template in no table fails.  Bound: max-param 48 (2,142 rows,
    # about 0.15 s with the row builds); SIZE_LIMIT (3,510 rows) takes about
    # 0.35 s
    rows, templates = 0, set()
    other = set(_SUM_ROW_DIMS) | {template for template, _ in _SPLIT_ROWS.values()}
    for a in al.iter_noncompact_simple(48):
        if a.family not in inv._CLASSICAL_ROWS:
            continue
        forms = _ONE_ROW_DIMS[a.family](*a.params)
        for e in inv.isotropy_entries(a):
            if e.template in other or e.kind == inv.CARTAN:
                continue
            assert e.template in forms, (al.render(a), e.template)
            assert e.dims_s == (forms[e.template],), (al.render(a), e.template)
            rows += 1
            templates.add((a.family, list(forms).index(e.template)))
    assert len(templates) == 27
    assert rows == 2142


# the split row's scale c: dim S of so(p,q), su(p,q) and sp(p,q) is c*p*q
_SPLIT_SCALE = {Family.SO: 1, Family.SU: 2, Family.SP: 4}


def test_split_row_margins_have_a_closed_form():
    # target minus the fixed dim of (kp,kq)+(lp,lq) is c*(kp*lq + lp*kq) -
    # min(p,q).  The row's margins, read from dims_s, are a sub-multiset of
    # the formula's over the unordered splits (the row keeps one split per
    # distinct sum) with
    # the same minimum, and vanish only on so rows, at README's equality
    # witness so(p,q-1).  Bound: max-param 48 (1,720 ambients, about 0.5 s);
    # max-param 64 takes about 1.7 s.
    ambients = 0
    for a in al.iter_noncompact_simple(48):
        c = _SPLIT_SCALE.get(a.family)
        if c is None:
            continue
        p, q = a.params
        d = al.dims(a)
        target = d.dim_s - d.rk_r
        template, _ = _SPLIT_ROWS[a.family]
        (row,) = [e for e in inv.isotropy_entries(a) if e.template == template]
        margins = [target - x for x in row.dims_s]
        formula = [
            c * (kp * (q - kq) + (p - kp) * kq) - min(p, q)
            for kp in range(p + 1)
            for kq in range(q + 1)
            if (0, 0) != (kp, kq) <= (p - kp, q - kq)
        ]
        assert not Counter(margins) - Counter(formula), al.render(a)
        assert min(margins) == min(formula), al.render(a)
        zeros = [label for label, m in zip(row.labels, margins) if m == 0]
        if a.family is Family.SO:
            assert zeros == [al.render(red(Family.SO, p, q - 1))], al.render(a)
        else:
            assert zeros == [], al.render(a)
        ambients += 1
    assert ambients == 1720


# forms whose canonical algebra is not simple, so has no involution rows
_SIGNATURE_FORMS_NOT_SIMPLE = {
    (SigFamily.SO_PQ, (1, 1)): "so(1,1) is the line R",
    (SigFamily.SO_PQ, (2, 2)): "so(2,2) is sl(2,R)+sl(2,R)",
    (SigFamily.SOSTAR_2N, (2,)): "so*(4) is sl(2,R)+su(2)",
}

# forms whose signature maximum is below the atlas maximum, and why.  The
# signature classes of su(p,q) and sp(p,q) are elements of SU(p,q) and
# Sp(p,q), whose adjoint actions are inner automorphisms only, and every
# family drops the one-rotation-class elements as central-like (`bound`)
_SIGNATURE_FORMS_BELOW = {
    (SigFamily.SU_PQ, (1, 1)): (
        "sl(2,R)'s maximum, the split line R, is fixed by Ad(diag(1,-1)), outside the "
        "identity component of Aut = PGL(2,R), the only one SU(1,1) acts through"
    ),
    (SigFamily.SU_PQ, (2, 2)): (
        "so(2,4)'s maximum so(2,3) is fixed by a reflection, of determinant -1: outer, "
        "since p+q is even; the so(p,q) family, elements of O(p,q), meets it"
    ),
    (SigFamily.SP_PQ, (1, 1)): (
        "so(1,4)'s maximum so(1,3) = sl(2,C) is fixed by a reflection, outside the "
        "identity component SO_0(1,4) that Sp(1,1) covers; the so(p,q) family meets it"
    ),
    (SigFamily.SP_PQ, (2, 2)): (
        "sp(2,2)'s maximum sp(4,C) is fixed by an outer involution, which sp(p,q) has "
        "only for p = q; Sp(2,2)'s own involutions fix the splits and u(2,2)"
    ),
    (SigFamily.SOSTAR_2N, (3,)): (
        "so*(6)'s maximum su(1,2)+u(1) (row u(k,l)) is fixed by a one-rotation-class "
        "element, 2*floor(n/2)*ceil(n/2) = 4 above bound's 2 at n = 3"
    ),
    (SigFamily.SOSTAR_2N, (4,)): (
        "so*(8)'s maximum so(2,4)+u(1) (row u(k,l)) is fixed by a one-rotation-class "
        "element, 2*floor(n/2)*ceil(n/2) = 8 above bound's 6 at n = 4"
    ),
}


def test_involution_rows_are_the_worst_case_for_the_signature_families():
    """No finite-order class of a signature family fixes more of S than the
    involution rows of its canonical algebra state.

    The forms are so(p,q), su(p,q) and sp(p,q) with 1 <= p <= q, p+q <= 8,
    and so*(2n) with 2 <= n <= 8: every class from `enumerate_signatures`
    against the largest non-Cartan ``dims_s`` of `isotropy_entries`.  The
    two are equal except on `_SIGNATURE_FORMS_BELOW`, where the rows'
    maximum is an automorphism the family's classes do not reach.  A form
    above the rows would be a class the sweep misses; it is never added to
    a list here.  Not covered: sl(n,R), sl(n,H), sp(2n,R) and the complex
    families have no signature family, and the exceptional algebras none
    either.
    """
    forms = [
        (fam, (p, n - p))
        for fam in (SigFamily.SO_PQ, SigFamily.SU_PQ, SigFamily.SP_PQ)
        for n in range(2, 9)
        for p in range(1, n // 2 + 1)
    ]
    forms += [(SigFamily.SOSTAR_2N, (n,)) for n in range(2, 9)]
    not_simple, below = set(), set()
    for form in forms:
        fam, params = form
        signature_max = max(map(ce.signature_dim, ce.enumerate_signatures(fam, params)))
        a = al.as_simple(al.algebra(mo.SIG_AMBIENT[fam], *params))
        if a is None:
            not_simple.add(form)
            continue
        atlas_max = max(
            max(e.dims_s) for e in inv.isotropy_entries(a) if e.kind != "compact"
        )
        assert signature_max <= atlas_max, (form, signature_max, atlas_max)
        if signature_max < atlas_max:
            below.add(form)
    assert len(forms) == 55
    assert not_simple == set(_SIGNATURE_FORMS_NOT_SIMPLE)
    assert below == set(_SIGNATURE_FORMS_BELOW)
