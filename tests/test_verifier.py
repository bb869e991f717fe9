"""Inequality-route margins, vcd arithmetic, and the full sweep.

Margins are frozen from the classification data: each one was computed
independently (catalog dimension formulas plus the involution rows) before
being asserted here.
"""

import gc
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from liecheck import algebras as al
from liecheck import cli
from liecheck import involutions as inv
from liecheck import verify as vf
from liecheck.algebras import Family
from liecheck.centralizers import OracleInvariantError, SigFamily


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


def test_rank_one_verdict_is_the_rank1_case_over_the_listed_rows():
    # on real rank one `check_involutions` lists the rows, and `verify_case`
    # returns the rank1 case instead, whose margin is the rows' smallest;
    # sl(2,C)'s two margin-0 rows are the only failing ones listed
    rank_one = [a for a in al.iter_noncompact_simple(16) if al.dims(a).rk_r == 1]
    assert len(rank_one) == 43
    failing = []
    for a in rank_one:
        shortcut, rows = vf.rank1_shortcut(a), vf.check_involutions(a)
        assert vf.verify_case(a) == [shortcut] and shortcut.passed, al.render(a)
        assert shortcut.margin == min(c.margin for c in rows), al.render(a)
        failing += [al.render(c.algebra) for c in rows if not c.passed]
    assert failing == ["sl(2,C)", "sl(2,C)"]


ROUTES = sorted(v for k, v in vars(vf).items() if k.startswith("ROUTE_"))


@pytest.mark.parametrize("route", ROUTES)
def test_pass_rule_on_each_route(route):
    # a positive margin passes on every route; zero or below passes only on
    # the rank-one route and the documented equality witnesses
    a = A(Family.SL_R, 3)
    any_margin = route in ("rank1", "equality_case")
    for margin, want in ((1, True), (0, any_margin), (-3, any_margin)):
        assert vf.CaseResult(a, route, margin, "w").passed is want, (route, margin)
    # the verdict is derived, never stored, so no route can set it by hand
    with pytest.raises(TypeError):
        vf.CaseResult(a, route, -3, "w", True)


def test_case_result_fields():
    assert vf.CaseResult._fields == ("algebra", "route", "margin", "witness")
    assert len(ROUTES) == 6
    # vf.ROUTES, which `verify --json` encodes once, holds every route constant
    assert sorted(vf.ROUTES) == ROUTES


def test_case_result_is_frozen_and_pickles():
    a = A(Family.SL_R, 3)
    c = vf.CaseResult(a, "berger_involution", 2, "w")
    tried = []
    for name in vf.CaseResult._fields:
        with pytest.raises(AttributeError, match="can't set attribute"):
            setattr(c, name, getattr(c, name))
        with pytest.raises(AttributeError, match="can't delete attribute"):
            delattr(c, name)
        tried.append(name)
    assert len(tried) == 4
    assert (c.algebra, c.route, c.margin, c.witness) == (a, "berger_involution", 2, "w")
    # a case is a named tuple, so it equals the plain tuple of its fields
    assert c == (a, "berger_involution", 2, "w")
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(c, protocol))
        assert back == c and hash(back) == hash(c), protocol
    assert repr(c) == f"CaseResult(algebra={a!r}, route='berger_involution', margin=2, witness='w')"


def _case_order(c):
    return (c.route, -c.margin, c.witness)


def test_sorted_cases_match_the_tuple_key(monkeypatch):
    # _sorted_cases sorts in three stable passes; the order must be the
    # one of the key (route, -margin, witness)
    algebras = [*al.iter_noncompact_simple(12), A(Family.SO_C, 8), A(Family.SO, 4, 4)]
    for a in algebras:
        cases = vf.verify_case(a)
        monkeypatch.setattr(vf, "verify_case", lambda _: list(cases))
        assert vf._sorted_cases(a) == sorted(cases, key=_case_order), al.render(a)
        monkeypatch.undo()
    assert len(algebras) > 150


def test_sorted_cases_break_ties_by_witness(monkeypatch):
    a = A(Family.SL_R, 3)
    rows = [
        ("rank1", 2, "b"),
        ("berger_involution", 2, "b"),
        ("berger_involution", 2, "a"),
        ("berger_involution", 5, "c"),
        ("berger_involution", -1, "a"),
        ("berger_involution", 2, "a"),
        ("equality_case", 0, "z"),
        ("berger_involution", 5, "a"),
    ]
    made = [vf.CaseResult(a, *row) for row in rows]
    monkeypatch.setattr(vf, "verify_case", lambda _: list(made))
    got = vf._sorted_cases(a)
    assert [(c.route, c.margin, c.witness) for c in got] == [
        ("berger_involution", 5, "a"),
        ("berger_involution", 5, "c"),
        ("berger_involution", 2, "a"),
        ("berger_involution", 2, "a"),
        ("berger_involution", 2, "b"),
        ("berger_involution", -1, "a"),
        ("equality_case", 0, "z"),
        ("rank1", 2, "b"),
    ]
    assert got == sorted(made, key=_case_order)


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


def test_a_table_row_below_maximal_rank_is_an_invariant_error(monkeypatch):
    # so(3) has rank 1 in g2(-14), of rank 2; sp(1,2) has compact rank 3 in
    # e6(6), whose compact rank is 4
    monkeypatch.setitem(
        vf._MAXIMAL_RANK_PAIRS, Family.G2_C, ("so(3)", ((SigFamily.SO_N, (3,)),), 0)
    )
    with pytest.raises(OracleInvariantError, match="so\\(3\\) row is not maximal rank"):
        vf.check_maximal_rank_pair(A(Family.G2_C))
    row = vf._RESTRICTED_INDEX[Family.E6_6]
    monkeypatch.setitem(vf._RESTRICTED_INDEX, Family.E6_6, row._replace(g_label="sp(1,2)"))
    with pytest.raises(OracleInvariantError, match="sp\\(1,2\\) row is not maximal rank"):
        vf.check_restricted_form(A(Family.E6_6))


def test_recursive_restricted_row_follows_the_subgroups_exceptional_factor(monkeypatch):
    # e7(7)'s subgroup names its exceptional factor; the inner bound must
    # come from that factor's row, not from a family typed a second time
    e7 = vf._RESTRICTED_INDEX[Family.E7_7]
    e6 = vf._RESTRICTED_INDEX[Family.E6_M14]
    monkeypatch.setitem(vf._RESTRICTED_INDEX, Family.E7_7, e7._replace(g_label="e6(-14)+so(2)"))
    monkeypatch.setitem(
        vf._RESTRICTED_INDEX, Family.E6_M14, e6._replace(bound_spec=(SigFamily.SOSTAR_2N, (4,)))
    )
    inner_bound = vf.bound(SigFamily.SOSTAR_2N, (4,))
    assert inner_bound != vf.bound(SigFamily.SOSTAR_2N, (5,))
    witness = vf.check_restricted_form(A(Family.E7_7)).witness
    assert "32 - (20 - %d)" % inner_bound in witness
    assert "(20 - 12)" not in witness


@pytest.mark.parametrize("g_label", ["so(6,6)+sl(2,R)", "f4(-20)+su(4)", "g2(2)+so(10)"])
def test_recursive_restricted_row_without_an_inner_bound_is_an_invariant_error(
    monkeypatch, g_label
):
    # each label has compact rank 7, so only the inner-row lookup can refuse it
    e7 = vf._RESTRICTED_INDEX[Family.E7_7]
    monkeypatch.setitem(vf._RESTRICTED_INDEX, Family.E7_7, e7._replace(g_label=g_label))
    with pytest.raises(OracleInvariantError, match="no exceptional factor with a restricted row"):
        vf.check_restricted_form(A(Family.E7_7))


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
    # the involution route of the two triality forms carries one case per
    # order-3 class, after the involution rows; no other algebra has one
    for a in (A(Family.SO_C, 8), A(Family.SO, 4, 4)):
        results = vf.check_involutions(a)
        routes = [r.route for r in results]
        tri = routes.index("triality")
        assert tri > 0 and set(routes[tri:]) == {"triality"}
        assert routes.count("triality") == len(inv.triality_classes(a))
        assert [r.route for r in vf.verify_case(a)].count("triality") == routes.count("triality")
    for a in (A(Family.SO_C, 10), A(Family.SO, 4, 5), A(Family.SO, 3, 5), A(Family.SL_C, 5)):
        assert "triality" not in {r.route for r in vf.check_involutions(a)}


def test_triality_margins_so8c():
    results = vf.check_involutions(A(Family.SO_C, 8))
    tri = [r for r in results if r.route == "triality"]
    assert {r.margin for r in tri} == {10, 16, 24}
    assert all(r.passed for r in results)
    berger = [r for r in results if r.route == "berger_involution"]
    assert berger and min(r.margin for r in berger) == 3


def test_triality_margins_so44():
    results = vf.check_involutions(A(Family.SO, 4, 4))
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
    # a named tuple takes no weak reference, so the rows are recorded by id:
    # while a row lives, no other object can take its id
    ids = set()
    original = inv.isotropy_entries

    def recording(a):
        entries = original(a)
        ids.update(map(id, entries))
        return entries

    monkeypatch.setattr(inv, "isotropy_entries", recording)
    rep = vf.sweep("all", 12)
    gc.collect()
    assert rep.passed and ids
    assert [o for o in gc.get_objects() if type(o) is inv.IsotropyEntry and id(o) in ids] == []


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


def test_case_tally_folds_failures_flags_and_failed_products():
    # no catalog case or product fails, so the failing paths are hand-made
    sl3, sl4 = al.simple(Family.SL_R, 3), al.simple(Family.SL_R, 4)
    cases = [
        vf.CaseResult(sl3, vf.ROUTE_BERGER, 0, "margin 0 off the equality route"),
        vf.CaseResult(sl3, vf.ROUTE_EQUALITY, 0, "flagged, passes"),
        vf.CaseResult(sl3, vf.ROUTE_RANK1, -1, "rank one, passes, not strict"),
        vf.CaseResult(sl3, vf.ROUTE_BERGER, 2, "strict"),
    ]
    late = vf.CaseResult(sl4, vf.ROUTE_TRIALITY, 0, "fails, ties the worst margin")
    tally = vf.CaseTally()
    tally.add(sl3, cases)
    tally.add(sl4, [late])
    assert tally.count == 5
    assert tally.flagged == [cases[1]]
    assert tally.failures == [cases[0], late]
    assert list(tally.route_counts.items()) == [
        (vf.ROUTE_BERGER, 2), (vf.ROUTE_EQUALITY, 1), (vf.ROUTE_RANK1, 1), (vf.ROUTE_TRIALITY, 1)
    ]
    assert (tally.worst_strict_margin, tally.worst_at) == (0, [sl3, sl4])
    assert not tally.passed(())
    good = vf.CaseTally()
    good.add(sl3, cases[1:])
    product = vf.check_semisimple((sl3, sl3))
    assert good.passed(()) and good.passed((product,))
    assert not good.passed((product, product._replace(passed=False)))


def _reference_fold(items):
    """A case-by-case fold of (algebra, cases) items, one pass per case:
    the fields `CaseTally` keeps, as plain values."""
    count, flagged, failures, route_counts = 0, [], [], {}
    worst, worst_at = None, []
    for a, cases in items:
        strict = None
        for c in cases:
            route_counts[c.route] = route_counts.get(c.route, 0) + 1
            if c.route == vf.ROUTE_EQUALITY:
                flagged.append(c)
            elif c.route != vf.ROUTE_RANK1 and (strict is None or c.margin < strict):
                strict = c.margin
            if not (c.margin > 0 or c.route in (vf.ROUTE_RANK1, vf.ROUTE_EQUALITY)):
                failures.append(c)
        count += len(cases)
        if strict is None:
            continue
        if worst is None or strict < worst:
            worst, worst_at = strict, [a]
        elif strict == worst and len(worst_at) < 4:
            worst_at.append(a)
    return count, flagged, failures, list(route_counts.items()), worst, worst_at


_FOLD_ALGEBRAS = (
    al.simple(Family.SL_R, 3), al.simple(Family.SO, 2, 3), al.simple(Family.SU, 1, 2),
    al.simple(Family.E6_C), al.simple(Family.F4_4),
)
_fold_items = st.lists(
    st.tuples(
        st.sampled_from(_FOLD_ALGEBRAS),
        st.lists(
            st.tuples(
                st.sampled_from(vf.ROUTES), st.integers(-2, 3), st.sampled_from("wxyz")
            ),
            max_size=12,
        ),
    ),
    max_size=8,
)


@settings(max_examples=150, deadline=None)
@given(_fold_items)
def test_case_tally_run_fold_equals_a_case_by_case_fold(items):
    # cases in any order, so a route can come back in several runs of one
    # algebra's list, each run with its failures anywhere in it
    items = [
        (a, [vf.CaseResult(a, route, margin, w) for route, margin, w in cases])
        for a, cases in items
    ]
    tally = vf.CaseTally()
    for a, cases in items:
        assert tally.add(a, cases) is cases
    got = (
        tally.count, tally.flagged, tally.failures, list(tally.route_counts.items()),
        tally.worst_strict_margin, tally.worst_at,
    )
    assert got == _reference_fold(items)
    # the failures are the very records, in the order added
    want = _reference_fold(items)[2]
    assert all(x is y for x, y in zip(tally.failures, want))


def test_checks_and_export_build_no_instance_value(monkeypatch):
    # with `IsotropyEntry.instances` refusing every read, the involution
    # route, the rows' labels and dims, and the export atlas still run for
    # every algebra up to max-param 24: none of them reads a value
    def refuse(entry):
        raise AssertionError("an instance value was built")

    monkeypatch.setattr(inv.IsotropyEntry, "instances", property(refuse))
    entries = 0
    for a in al.iter_noncompact_simple(24):
        assert vf.check_involutions(a)
        for e in inv.isotropy_entries(a):
            assert len(e.labels) == len(e.dims_s) > 0
            entries += 1
    assert entries == 2091
    assert len(cli.export_payload(24)["entries"]) == entries
    with pytest.raises(AssertionError, match="value was built"):
        e.instances


def _value_equality_witnesses(a):
    """The equality witnesses of `a` as values, as the rows stated them
    before they carried labels."""
    if a.family is Family.SL_R:
        return [al.direct_sum(red(Family.SL_R, a.params[0] - 1), al.SPLIT_LINE)]
    if a.family is Family.SO:
        p, q = a.params
        witnesses = [red(Family.SO, p, q - 1)]
        if p == q:
            witnesses.append(al.direct_sum(red(Family.SL_R, p), al.SPLIT_LINE))
        return witnesses
    return []


def test_equality_witness_by_label_is_the_value_rule():
    # every instance up to max-param 32, whatever its margin.  An instance
    # can equal a witness only if it has the witness's dim S, which the row
    # states (`test_entry_labels_and_dims_are_each_instance_rendered_and_measured`
    # pins it to the value), so only those labels are parsed into values
    checked = witnesses = 0
    for a in al.iter_noncompact_simple(32):
        values = _value_equality_witnesses(a)
        dims_s = {al.reductive_dims(h).dim_s for h in values}
        for e in inv.isotropy_entries(a):
            for label, fixed in zip(e.labels, e.dims_s):
                by_label = vf._is_equality_witness(a, label)
                by_value = fixed in dims_s and al.parse_algebra(label) in values
                assert by_label == by_value, (al.render(a), label)
                witnesses += by_label
                checked += 1
    assert checked > 40_000 and witnesses > 250


def test_a_margin_zero_instance_off_the_equality_witnesses_fails(monkeypatch):
    # no catalog instance meets the target without being an equality
    # witness, so the failing branch is fed a hand-made second row of
    # sl(5,R) (target 14 - 4 = 10): a margin-0 instance that is no witness,
    # the witness sl(4,R)+R, and positive margins
    sl5 = A(Family.SL_R, 5)
    witness_label = al.render(al.direct_sum(red(Family.SL_R, 4), al.SPLIT_LINE))
    rows = (
        inv.IsotropyEntry(sl5, "first", (), "hand-made", "inner", (), ("so(5)", "u(1)"), (4, 0)),
        inv.IsotropyEntry(
            sl5, "second", (), "hand-made", "inner", (),
            ("off(10)", witness_label, "low(3)"), (10, 10, 3),
        ),
    )
    original = inv.isotropy_entries
    monkeypatch.setattr(inv, "isotropy_entries", lambda a: rows if a == sl5 else original(a))
    cases = vf.check_involutions(sl5)
    assert [(c.route, c.margin) for c in cases] == [
        (vf.ROUTE_BERGER, 6), (vf.ROUTE_BERGER, 10),
        (vf.ROUTE_BERGER, 0), (vf.ROUTE_EQUALITY, 0), (vf.ROUTE_BERGER, 7),
    ]
    assert all(type(c) is vf.CaseResult for c in cases)
    off, equal = cases[2], cases[3]
    assert off.witness == "second -> off(10) (fixed dim 10 vs target 10)" and not off.passed
    assert equal.witness == f"second -> {witness_label} (fixed dim 10 vs target 10)" and equal.passed
    tally = vf.CaseTally()
    tally.add(sl5, cases)
    assert tally.failures == [off] and tally.flagged == [equal]
    rep = vf.sweep("real", 5)
    assert not rep.passed and rep.failures == (off,)
    assert equal in rep.flagged


def _reference_involution_cases(a):
    """`check_involutions`' row cases of ``a``, one instance at a time."""
    d = al.dims(a)
    target = d.dim_s - d.rk_r
    out = []
    for e in inv.isotropy_entries(a):
        for label, fixed in zip(e.labels, e.dims_s):
            margin = target - fixed
            witness = "%s -> %s (fixed dim %d vs target %d)" % (e.template, label, fixed, target)
            if margin == 0 and vf._is_equality_witness(a, label):
                out.append(vf.CaseResult(a, vf.ROUTE_EQUALITY, 0, witness))
            else:
                out.append(vf.CaseResult(a, vf.ROUTE_BERGER, margin, witness))
    return out


def test_involution_cases_match_a_per_instance_reference():
    # every algebra up to max-param 24, the two triality forms included:
    # the row cases equal the reference's, in order, as `CaseResult`s, and
    # only the triality classes follow them
    tails = {}
    for a in al.iter_noncompact_simple(24):
        want = _reference_involution_cases(a)
        got = vf.check_involutions(a)
        assert got[: len(want)] == want, al.render(a)
        assert all(type(c) is vf.CaseResult for c in got)
        tail = got[len(want):]
        assert all(c.route == vf.ROUTE_TRIALITY for c in tail)
        if tail:
            tails[al.render(a)] = len(tail)
    assert set(tails) == {"so(8,C)", "so(4,4)"}
    assert tails == {al.render(a): len(inv.triality_classes(a)) for a in inv.TRIALITY_FORMS}


# the smallest strict margin of each classical family, in stored parameters
# (p <= q for the (p, q) families; n for sp(2n,R), sp(2n,C) and so*(2n))
_WORST_MARGIN = {
    Family.SL_R: lambda n: n - 3,
    Family.SL_H: lambda n: 3 * n - 3,
    Family.SL_C: lambda n: n - 1,
    Family.SO_C: lambda n: (n - 1) // 2,
    Family.SP_R: lambda n: n - 2,
    Family.SP_C: lambda n: 3 * n - 4,
    Family.SO_STAR: lambda n: (3 * n - 3) // 2,
    Family.SU: lambda p, q: p,
    Family.SP: lambda p, q: 3 * p,
    Family.SO: lambda p, q: p - 2 if p == q else min(q - p, p),
}
# the algebras off their family's formula: each one's smallest strict margin
# and the template of a row that sets it
_WORST_MARGIN_EXCEPTIONS = {
    "sl(3,R)": (1, "so(k,l)"),
    "sl(3,C)": (1, "sl(3,R)"),
    "sl(4,C)": (2, "sp(4,C)"),
    "sl(3,H)": (4, "gl(3,C)"),
    "sl(4,H)": (8, "sp(k,l)"),
    "so*(8)": (2, "u(k,l)"),
    "sp(2,2)": (4, "sp(4,C)"),
}


def test_worst_strict_margin_has_a_closed_form_per_classical_family():
    # the smallest margin over the cases outside rank1 and equality_case is
    # the family's formula, except at the seven below.  Every value is at
    # least 1, so the only margin-0 cases are the flagged equality family and
    # rank one; an algebra with no strict case has real rank one.  Bound:
    # max-param 32 (968 algebras, about 0.13 s); the same held for all 1,902
    # with a strict case up to max-param 48
    lows, classical, rank_one = {}, 0, 0
    for a in al.iter_noncompact_simple(32):
        formula = _WORST_MARGIN.get(a.family)
        if formula is None:
            continue
        classical += 1
        strict = [
            c for c in vf.verify_case(a) if c.route not in (vf.ROUTE_RANK1, vf.ROUTE_EQUALITY)
        ]
        if not strict:
            assert al.dims(a).rk_r == 1, al.render(a)
            rank_one += 1
            continue
        low = min(c.margin for c in strict)
        assert low >= 1, al.render(a)
        if low != formula(*a.params):
            templates = {c.witness.split(" -> ")[0] for c in strict if c.margin == low}
            lows[al.render(a)] = low, templates
    assert (classical, rank_one) == (968, 90)
    assert lows.keys() == _WORST_MARGIN_EXCEPTIONS.keys()
    for name, (low, template) in _WORST_MARGIN_EXCEPTIONS.items():
        assert lows[name][0] == low and template in lows[name][1], name


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


@pytest.mark.parametrize("size", [32.0, 8.5, "8", None, True])
@pytest.mark.parametrize(
    "call",
    [
        lambda m: vf.sweep("all", m),
        # at the call, not at the first item
        lambda m: vf.iter_algebra_cases("all", m),
        cli.export_payload,
    ],
    ids=["sweep", "iter_algebra_cases", "export_payload"],
)
def test_a_non_int_max_param_is_out_of_domain(call, size):
    with pytest.raises(al.OutOfDomain, match="max-param must be an int"):
        call(size)


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


SCOPES = ["complex", "real", "semisimple", "all"]


def _set_collector(enabled):
    (gc.enable if enabled else gc.disable)()


def test_sweep_makes_no_reference_cycles():
    # `sweep` pauses the cyclic collector, which is sound only while
    # refcounting alone frees everything a sweep lets go
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for scope in SCOPES:
            vf.sweep(scope, 12)
        assert gc.collect() == 0
    finally:
        _set_collector(enabled)


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_sweep_leaves_the_collector_as_it_found_it(monkeypatch, enabled):
    during = []
    original = vf.verify_case

    def recording(a):
        during.append(gc.isenabled())
        return original(a)

    monkeypatch.setattr(vf, "verify_case", recording)
    was = gc.isenabled()
    _set_collector(enabled)
    try:
        for scope in SCOPES:
            vf.sweep(scope, 6)
            assert gc.isenabled() is enabled, scope
    finally:
        _set_collector(was)
    assert during and not any(during)


def test_sweep_runs_no_collection_over_its_records():
    # the records go to the oldest generation before the collector is back
    # on, so no young pass scans them when the next allocation comes
    started = []

    def record(phase, info):
        if phase == "start":
            started.append(info["generation"])

    was = gc.isenabled()
    gc.enable()
    gc.callbacks.append(record)
    try:
        assert gc.get_freeze_count() == 0
        vf.sweep("all", 16)
    finally:
        gc.callbacks.remove(record)
        _set_collector(was)
    assert started == []


def test_sweep_keeps_a_callers_frozen_objects_frozen():
    was = gc.isenabled()
    gc.enable()
    gc.freeze()
    try:
        frozen = gc.get_freeze_count()
        assert frozen > 0
        vf.sweep("all", 8)
        assert gc.get_freeze_count() == frozen
        assert gc.isenabled()
    finally:
        gc.unfreeze()
        _set_collector(was)


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_sweep_restores_the_collector_when_a_case_raises(monkeypatch, enabled):
    reached = []
    original = vf.verify_case

    def failing_fifth(a):
        reached.append(a)
        if len(reached) == 5:
            raise RuntimeError("fifth algebra")
        return original(a)

    monkeypatch.setattr(vf, "verify_case", failing_fifth)
    was = gc.isenabled()
    _set_collector(enabled)
    try:
        with pytest.raises(RuntimeError, match="fifth algebra"):
            vf.sweep("all", 8)
        assert gc.isenabled() is enabled
    finally:
        _set_collector(was)
    assert len(reached) == 5


def _record_collector_switches(monkeypatch):
    calls = []
    monkeypatch.setattr(gc, "disable", lambda: calls.append("disable"))
    monkeypatch.setattr(gc, "enable", lambda: calls.append("enable"))
    return calls


@pytest.mark.parametrize("scope, size", [("everything", 8), ("all", 1), ("all", 8.0)])
def test_sweep_refuses_arguments_before_it_pauses_the_collector(monkeypatch, scope, size):
    calls = _record_collector_switches(monkeypatch)
    with pytest.raises(al.OutOfDomain):
        vf.sweep(scope, size)
    assert calls == []


def test_the_streaming_entry_points_leave_the_collector_alone(monkeypatch, capsys):
    calls = _record_collector_switches(monkeypatch)
    assert all(cases for _, cases in vf.iter_algebra_cases("all", 8))
    assert cli.main(["verify", "--max-param", "8"]) == 0
    assert capsys.readouterr().out.startswith("verify scope=all max-param=8")
    assert calls == []


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


def test_restricted_subgroups_are_involution_rows():
    # each restricted-form subgroup is the fixed algebra of one involution
    # row of its algebra, so the two hand tables name the same subgroup
    dim_s_restricted = {r["algebra"]: r["dim_s_restricted"] for r in vf.restricted_rows()}
    for family, row in vf._RESTRICTED_INDEX.items():
        a = A(family)
        entries = [e for e in inv.isotropy_entries(a) if e.template == row.g_label]
        assert len(entries) == 1, row.g_label
        assert len(entries[0].dims_s) == 1
        assert entries[0].dims_s[0] == dim_s_restricted[al.render(a)]
