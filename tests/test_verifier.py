"""Inequality-route margins, vcd arithmetic, and the full sweep.

Margins are frozen from the classification data: each one was computed
independently (catalog dimension formulas plus the involution rows) before
being asserted here.
"""

import gc
import weakref

import pytest
from hypothesis import given, strategies as st

from liecheck import algebras as al
from liecheck import involutions as inv
from liecheck import verify as vf
from liecheck.algebras import Family


def A(fam, *params):
    return al.simple(fam, *params)


def red(fam, *params):
    return al.algebra(fam, *params)


def test_rank1_shortcut():
    r = vf.rank1_shortcut(A(Family.SO, 1, 5))
    assert r.route == "rank1" and r.passed
    assert r.margin == 0  # so(1,4) meets dim S - 1 exactly
    assert "so(1,4)" in r.witness

    assert vf.rank1_shortcut(A(Family.F4_M20)).margin == 7
    assert vf.rank1_shortcut(A(Family.SU, 1, 4)).margin == 1
    assert vf.rank1_shortcut(A(Family.SL_R, 2)).margin == 0
    assert vf.rank1_shortcut(A(Family.SL_R, 3)) is None


COMPACT_PAIR_MARGINS = {
    Family.G2_C: 1,
    Family.F4_C: 4,
    Family.E6_C: 3,
    Family.E7_C: 7,
    Family.E8_C: 7,
}


def test_compact_pair_margins():
    for fam, margin in COMPACT_PAIR_MARGINS.items():
        r = vf.check_maximal_rank_pair(A(fam))
        assert r.route == "maximal_rank_pair"
        assert r.margin == margin, al.render(A(fam))
        assert r.passed
    g2 = vf.check_maximal_rank_pair(A(Family.G2_C))
    assert "8 < 14" in g2.witness and "5 < 6" in g2.witness
    e6 = vf.check_maximal_rank_pair(A(Family.E6_C))
    assert "43 < 46" in e6.witness
    e7 = vf.check_maximal_rank_pair(A(Family.E7_C))
    assert "56 < 63" in e7.witness


def test_compact_pair_missing_rows():
    with pytest.raises(vf.MissingTableRow):
        vf.check_maximal_rank_pair(A(Family.SL_C, 5))
    with pytest.raises(vf.MissingTableRow):
        vf.check_maximal_rank_pair(A(Family.E6_6))


RESTRICTED_FORM_MARGINS = {
    Family.E6_6: 2,
    Family.E6_2: 4,
    Family.E6_M14: 6,
    Family.E6_M26: 2,
    Family.E7_7: 1,
    Family.E7_M5: 4,
    Family.E7_M25: 1,
    Family.E8_8: 6,
    Family.E8_M24: 10,
    Family.G2_2: 1,
    Family.F4_4: 4,
}


def test_restricted_form_margins():
    for fam, margin in RESTRICTED_FORM_MARGINS.items():
        r = vf.check_restricted_form(A(fam))
        assert r.margin == margin, al.render(A(fam))
        assert r.passed
    assert "42 < 56 - 8" in vf.check_restricted_form(A(Family.E8_8)).witness
    assert "8 < 16 - 6" in vf.check_restricted_form(A(Family.E6_6)).witness
    assert "20 - 12" in vf.check_restricted_form(A(Family.E7_7)).witness
    g2 = vf.check_restricted_form(A(Family.G2_2))
    assert g2.route == "restricted_form"
    assert "5 < 6" in g2.witness
    f4 = vf.check_restricted_form(A(Family.F4_4))
    assert f4.route == "berger_involution"
    assert "so(4,5)" in f4.witness


def test_restricted_form_missing_rows():
    # the rank-one form is deliberately absent: the rank-1 shortcut owns it
    with pytest.raises(vf.MissingTableRow):
        vf.check_restricted_form(A(Family.F4_M20))
    with pytest.raises(vf.MissingTableRow):
        vf.check_restricted_form(A(Family.SL_R, 5))


def test_f44_equality_candidates():
    r = vf.f44_equality_case()
    assert r.route == "berger_involution"
    assert r.margin == 4 and r.passed
    assert "diag(-I8, 1)" in r.witness
    assert "compact" in r.witness


def test_involutions_sl6c():
    results = vf.check_involutions(A(Family.SL_C, 6))
    assert all(r.passed for r in results)
    assert not any(r.route == "equality_case" for r in results)
    assert min(r.margin for r in results) == 5


def test_involutions_equality_sl7r():
    results = vf.check_involutions(A(Family.SL_R, 7))
    flags = [r for r in results if r.route == "equality_case"]
    assert len(flags) == 1
    assert flags[0].margin == 0 and flags[0].passed
    assert "sl(6,R)+R" in flags[0].witness
    assert all(r.margin > 0 for r in results if r.route != "equality_case")


@pytest.mark.parametrize("n", [3, 4, 5])
def test_involutions_sp_r_margin(n):
    results = vf.check_involutions(A(Family.SP_R, n))
    assert min(r.margin for r in results) == n - 2
    assert all(r.passed for r in results)


def test_involutions_equality_so23():
    results = vf.check_involutions(A(Family.SO, 2, 3))
    flags = [r for r in results if r.route == "equality_case"]
    assert len(flags) == 1
    assert "sl(2,R)+sl(2,R)" in flags[0].witness  # so(2,2) canonically


def test_involutions_equality_so33_has_two_witnesses():
    results = vf.check_involutions(A(Family.SO, 3, 3))
    flags = [r for r in results if r.route == "equality_case"]
    texts = {r.witness for r in flags}
    assert len(flags) == 2
    assert any("so(2,3)" in t for t in texts)
    assert any("sl(3,R)+R" in t for t in texts)


def test_triality_route_is_mandatory_for_d4_triality_forms():
    with pytest.raises(vf.NeedsTrialityRoute):
        vf.check_involutions(A(Family.SO_C, 8))
    with pytest.raises(vf.NeedsTrialityRoute):
        vf.check_involutions(A(Family.SO, 4, 4))
    with pytest.raises(inv.UnsupportedAlgebra):
        vf.check_triality(A(Family.SL_C, 5))


def test_triality_margins_so8c():
    results = vf.check_triality(A(Family.SO_C, 8))
    tri = [r for r in results if r.route == "triality"]
    assert {r.margin for r in tri} == {10, 16, 24}
    assert all(r.passed for r in results)
    berger = [r for r in results if r.route == "berger_involution"]
    assert berger and min(r.margin for r in berger) == 3


def test_triality_margins_so44():
    results = vf.check_triality(A(Family.SO, 4, 4))
    tri = [r for r in results if r.route == "triality"]
    assert min(r.margin for r in tri) == 4
    assert all(r.passed for r in results)
    flags = [r for r in results if r.route == "equality_case"]
    assert flags and all("so(3,4)" in r.witness for r in flags)


def test_d4_square_reduction_so66():
    # order-4 outer classes square into the involution set; no triality here
    results = vf.check_involutions(A(Family.SO, 6, 6))
    flags = [r for r in results if r.route == "equality_case"]
    assert len(flags) == 1 and "so(5,6)" in flags[0].witness


def test_vcd_examples():
    r = vf.vcd([A(Family.SL_R, 3)], 2)
    assert (r.dim_s, r.vcd, r.gd) == (5, 3, 3)
    assert not r.cocompact

    r0 = vf.vcd([A(Family.SL_R, 3)], 0)
    assert r0.vcd == 5 and r0.cocompact

    with pytest.raises(vf.RankBoundViolated):
        vf.vcd([A(Family.SL_R, 3)] * 2, 3, irreducible=True)
    with pytest.raises(vf.IsotypyViolated):
        vf.vcd([A(Family.SL_R, 3), A(Family.SO, 1, 4)], 1, irreducible=True)


def test_vcd_isotypic_mixed_pair():
    # sl(3,R) and su(1,2) share the complexification, so the pair is legal
    r = vf.vcd([A(Family.SL_R, 3), A(Family.SU, 1, 2)], 1, irreducible=True)
    assert r.vcd == 8 and r.irreducible


def test_vcd_reducible_rank_cap_is_the_sum():
    assert vf.vcd([A(Family.SL_R, 3)] * 2, 3).vcd == 7
    with pytest.raises(vf.RankBoundViolated):
        vf.vcd([A(Family.SL_R, 3)] * 2, 5)
    with pytest.raises(vf.RankBoundViolated):
        vf.vcd([A(Family.SL_R, 2)], 2)
    with pytest.raises(vf.RankBoundViolated):
        vf.vcd([A(Family.SL_R, 3)], -1)


def test_vcd_input_errors():
    with pytest.raises(vf.TooFewFactors):
        vf.vcd([], 0)
    with pytest.raises(al.OutOfDomain):
        vf.vcd([A(Family.SU_CPT, 3)], 0)


@pytest.mark.parametrize("rk_q", [1.5, 1.0, True, False, "1", None])
def test_vcd_rejects_a_non_int_rank(rk_q):
    with pytest.raises(al.OutOfDomain):
        vf.vcd([A(Family.SL_R, 3)], rk_q)


@pytest.mark.parametrize("irreducible", ["no", "", 0, 1, None])
def test_vcd_rejects_a_non_bool_irreducible_flag(irreducible):
    with pytest.raises(al.OutOfDomain):
        vf.vcd([A(Family.SL_R, 3)], 1, irreducible=irreducible)


_VCD_POINTS = [
    (a, rk_q)
    for a in al.iter_noncompact_simple(10)
    for rk_q in range(al.dims(a).rk_r + 1)
]


@given(st.sampled_from(_VCD_POINTS))
def test_vcd_slope(point):
    a, rk_q = point
    d = al.dims(a)
    r = vf.vcd([a], rk_q)
    assert r.vcd == d.dim_s - rk_q
    assert r.gd == r.vcd
    if rk_q < d.rk_r:
        assert vf.vcd([a], rk_q + 1).vcd == r.vcd - 1
    if rk_q == d.rk_r:
        assert r.vcd == d.dim_s - d.rk_r


def test_semisimple_product_report():
    rep = vf.check_semisimple([A(Family.SL_R, 3)] * 2)
    assert rep.dim_s == 10
    assert rep.product_bound == 6 and rep.product_margin == 2
    assert rep.naive_fixed_dim == 8 and rep.naive_bound == 6
    assert rep.naive_exceeds
    assert rep.naive_fixed_dim < rep.dim_s
    assert rep.swap_fixed_dim == 5 and rep.swap_margin == 3
    assert rep.passed


def test_semisimple_swap_route_sl2():
    rep = vf.check_semisimple([A(Family.SL_R, 2)] * 2)
    assert rep.swap_fixed_dim == 2 and rep.swap_margin == 1
    assert rep.product_margin == 1
    assert rep.passed


def test_semisimple_mixed_pair_has_no_swap_route():
    rep = vf.check_semisimple([A(Family.SL_R, 3), A(Family.SO, 1, 4)])
    assert rep.swap_fixed_dim is None and rep.swap_margin is None
    assert rep.product_margin == 2
    assert rep.passed


def test_semisimple_too_few():
    with pytest.raises(vf.TooFewFactors):
        vf.check_semisimple([A(Family.SL_R, 3)])


def test_sweep_small_all():
    rep = vf.sweep("all", 12)
    assert rep.passed and not rep.failures
    for case in rep.cases:
        if case.route == "equality_case":
            assert case.margin == 0
            assert case.algebra.family in (Family.SL_R, Family.SO)
        elif case.route == "rank1":
            assert case.margin >= 0
        else:
            assert case.margin > 0
    assert rep.products and all(p.passed for p in rep.products)


def test_sweep_keeps_no_rows_once_it_returns(monkeypatch):
    refs = []
    original = inv.isotropy_entries

    def recording(a):
        entries = original(a)
        refs.extend(weakref.ref(e) for e in entries)
        return entries

    monkeypatch.setattr(inv, "isotropy_entries", recording)
    rep = vf.sweep("all", 12)
    gc.collect()
    assert rep.passed and refs
    assert [r() for r in refs if r() is not None] == []


def test_sweep_equality_set_census():
    rep = vf.sweep("real", 8)
    sl_flags = sorted(
        c.algebra.params[0]
        for c in rep.flagged
        if c.algebra.family is Family.SL_R
    )
    so_flags = sorted(
        c.algebra.params for c in rep.flagged if c.algebra.family is Family.SO
    )
    assert sl_flags == [3, 5, 6, 7, 8]
    assert so_flags == [
        (2, 3),
        (2, 4),
        (2, 5),
        (2, 6),
        (3, 3),
        (3, 3),
        (3, 4),
        (3, 5),
        (4, 4),
    ]
    assert len(rep.flagged) == len(sl_flags) + len(so_flags)


def test_sweep_scopes_partition():
    comp = vf.sweep("complex", 8)
    real = vf.sweep("real", 8)
    assert all(al.is_complex(c.algebra) for c in comp.cases)
    assert not any(al.is_complex(c.algebra) for c in real.cases)
    assert not comp.flagged  # every complex margin is strict
    semi = vf.sweep("semisimple", 6)
    assert not semi.cases and semi.products
    with pytest.raises(ValueError):
        vf.sweep("everything", 8)


def test_sweep_rejects_sizes_below_two():
    for size in (-3, 0, 1):
        with pytest.raises(al.OutOfDomain):
            vf.sweep("all", size)


def test_sweep_deterministic():
    assert vf.sweep("real", 6) == vf.sweep("real", 6)


@pytest.mark.parametrize("scope", ["complex", "real", "all", "semisimple"])
def test_sweep_case_order(scope):
    # algebras by rendered name, then route, -margin and witness
    rep = vf.sweep(scope, 12)
    key = lambda c: (al.render(c.algebra), c.route, -c.margin, c.witness)
    assert list(rep.cases) == sorted(rep.cases, key=key)
    assert isinstance(rep.cases, tuple) and isinstance(rep.flagged, tuple)


@pytest.mark.parametrize(
    "scope, size, error", [("everything", 8, ValueError), ("all", 1, al.OutOfDomain)]
)
def test_iter_algebra_cases_checks_its_arguments_at_the_call(scope, size, error):
    # a generator function would only raise at the first next()
    with pytest.raises(error):
        vf.iter_algebra_cases(scope, size)


def test_iter_algebra_cases_verifies_an_algebra_when_it_is_reached(monkeypatch):
    reached = []
    original = vf.verify_case

    def recording(a):
        reached.append(a)
        return original(a)

    monkeypatch.setattr(vf, "verify_case", recording)
    per_algebra = vf.iter_algebra_cases("real", 8)
    assert reached == []
    first, cases = next(per_algebra)
    assert reached == [first] and cases
    rest = list(per_algebra)
    assert [a for a, _ in rest] == reached[1:]
    streamed = [c for _, group in [(first, cases), *rest] for c in group]
    assert streamed == list(vf.sweep("real", 8).cases)


def test_sweep_cases_grow_with_max_param():
    for m in (2, 3, 8, 12):
        small, large = vf.sweep("all", m).cases, vf.sweep("all", m + 1).cases
        assert set(small) <= set(large), m
        assert len(small) < len(large), m


MAXIMAL_RANK_ROWS = [
    {
        "algebra": "g2(C)",
        "compact_form": "g2(-14)",
        "subgroup": "so(4)",
        "dim_compact": 14,
        "dim_subgroup": 6,
        "rk_compact": 2,
        "rk_subgroup": 2,
    },
    {
        "algebra": "f4(C)",
        "compact_form": "f4(-52)",
        "subgroup": "so(9)",
        "dim_compact": 52,
        "dim_subgroup": 36,
        "rk_compact": 4,
        "rk_subgroup": 4,
    },
    {
        "algebra": "e6(C)",
        "compact_form": "e6(-78)",
        "subgroup": "u(1)+so(10)",
        "dim_compact": 78,
        "dim_subgroup": 46,
        "rk_compact": 6,
        "rk_subgroup": 6,
    },
    {
        "algebra": "e7(C)",
        "compact_form": "e7(-133)",
        "subgroup": "su(8)",
        "dim_compact": 133,
        "dim_subgroup": 63,
        "rk_compact": 7,
        "rk_subgroup": 7,
    },
    {
        "algebra": "e8(C)",
        "compact_form": "e8(-248)",
        "subgroup": "so(16)",
        "dim_compact": 248,
        "dim_subgroup": 120,
        "rk_compact": 8,
        "rk_subgroup": 8,
    },
]

RESTRICTED_ROWS = [
    ("e6(6)", "sp(2,2)", "sp(2)+sp(2)", 42, 16, 4, 6),
    ("e6(2)", "so*(10)+so(2)", "u(5)+so(2)", 40, 20, 6, 4),
    ("e6(-14)", "so*(10)+so(2)", "u(5)+so(2)", 32, 20, 6, 2),
    ("e6(-26)", "sp(1,3)", "sp(1)+sp(3)", 26, 12, 4, 2),
    ("e7(7)", "e6(2)+so(2)", "su(6)+su(2)+so(2)", 70, 40, 7, 7),
    ("e7(-5)", "su(4,4)", "s(u(4)+u(4))", 64, 32, 7, 4),
    ("e7(-25)", "su(2,6)", "s(u(2)+u(6))", 54, 24, 7, 3),
    ("e8(8)", "so*(16)", "u(8)", 128, 56, 8, 8),
    ("e8(-24)", "so*(16)", "u(8)", 112, 56, 8, 4),
    ("g2(2)", "sl(2,R)+sl(2,R)", "so(2)+so(2)", 8, 4, 2, 2),
    ("f4(4)", "so(4,5)", "s(o(4)+o(5))", 28, 20, 4, 4),
]


def test_maximal_rank_rows_frozen():
    assert vf.maximal_rank_rows() == MAXIMAL_RANK_ROWS


def test_restricted_rows_frozen():
    rows = vf.restricted_rows()
    assert [
        (
            r["algebra"],
            r["subgroup"],
            r["compact_subgroup"],
            r["dim_s"],
            r["dim_s_restricted"],
            r["rk_compact_restricted"],
            r["rk_r"],
        )
        for r in rows
    ] == RESTRICTED_ROWS
