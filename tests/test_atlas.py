"""Involution rows and order-3 fixed-point data.

Expected fixed-point subalgebras are frozen from the classification tables;
instances are written with the catalog constructors so canonical renaming
stays out of the comparisons.  The center-type choices (compact circle vs
split line) are additionally pinned against the exact matrix kernel, which
recomputes the same dimensions from scratch.
"""

from fractions import Fraction

import pytest

from liecheck import algebras as al
from liecheck import involutions as inv
from liecheck import matrixoracle as mo
from liecheck.algebras import Family

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
    value, best = inv.max_fixed_dim(A(Family.SL_C, n))
    assert value == (n - 1) ** 2
    assert best.isotropy == plus(red(Family.SL_C, n - 1), CPT, SPLIT)


def test_sl_3_c_maximum_is_the_split_form():
    # the lone case where an antilinear fixed set beats every linear one:
    # dim_s sl(3,R) = 5 > 4 = (n-1)^2
    value, best = inv.max_fixed_dim(A(Family.SL_C, 3))
    assert value == 5
    assert best.isotropy == red(Family.SL_R, 3)


def test_sl_4_c_maximum_is_symplectic():
    value, best = inv.max_fixed_dim(A(Family.SL_C, 4))
    assert value == 10
    assert best.isotropy == red(Family.SP_C, 2)


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
    value, best = inv.max_fixed_dim(a)
    assert value == d.dim_s - d.rk_r
    assert best.isotropy == plus(red(Family.SL_R, n - 1), SPLIT)


def test_sl2r_has_no_self_row():
    # sp(2,R) = sl(2,R) would be the whole algebra; the row must vanish
    a = A(Family.SL_R, 2)
    assert not any("sp" in e.template for e in inv.isotropy_entries(a))
    assert instance_set(a) == {SPLIT, CPT}


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
    value, best = inv.max_fixed_dim(a)
    assert value == 4
    assert best.isotropy == plus(red(Family.SL_R, 2), red(Family.SL_R, 2))


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
    value, best = inv.max_fixed_dim(a)
    assert value == 4
    assert best.isotropy == plus(red(Family.SU_CPT, 2), red(Family.SO, 1, 4))


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
    value, best = inv.max_fixed_dim(A(Family.SP_R, 4))
    assert value == 14  # n*n - n + 2 at n = 4
    assert best.isotropy == plus(red(Family.SP_R, 3), red(Family.SP_R, 1))


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
    value, best = inv.max_fixed_dim(a)
    assert value == 8
    assert best.isotropy == plus(red(Family.SU, 2, 2), CPT)


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
    value, best = inv.max_fixed_dim(a)
    assert value == 8
    assert best.isotropy == plus(red(Family.SL_C, 3), CPT)


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
    value, best = inv.max_fixed_dim(A(Family.G2_2))
    assert value == 4
    assert best.isotropy == plus(red(Family.SL_R, 2), red(Family.SL_R, 2))


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
        for item in inv.instantiations(a):
            assert item.space.dim_s < top, (al.render(a), al.render(item.isotropy))


def test_real_rows_complexify_into_the_complex_rows():
    """Row-by-row consistency between a real form and its complexification.

    Every fixed-point subalgebra listed for a real ambient algebra must have
    a complex counterpart of exactly twice the real dimension in the row set
    of the complexified ambient algebra.
    """
    for a in al.iter_noncompact_simple(8):
        if al.is_complex(a):
            continue
        c = al.complexify(a)
        assert len(c.simples) == 1 and not c.compact_abelian_dim
        targets = set()
        for e in inv.isotropy_entries(c.simples[0]):
            if e.kind != "linear":
                continue
            targets.update(al.reductive_dims(h).dim_g for h in e.instances)
        for item in inv.instantiations(a):
            assert 2 * item.space.dim_g in targets, (
                al.render(a),
                al.render(item.isotropy),
            )


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
        # same values in the same first-occurrence order, not only as sets
        assert row.instances == want, al.render(a)
        # max_fixed_dim keeps the earliest instance among ties, so the
        # witness depends on that order too
        best = None
        for e in entries:
            for h in want if e is row else e.instances:
                dim_s = al.reductive_dims(h).dim_s
                if best is None or dim_s > best[0]:
                    best = (dim_s, e.template, h)
        dim_s, item = inv.max_fixed_dim(a)
        assert (dim_s, item.entry.template, item.isotropy) == best, al.render(a)
        checked += 1
    assert checked > 250
