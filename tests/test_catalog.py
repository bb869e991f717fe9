"""Catalog checks: dimensions, ranks, canonicalization, out groups.

Expected values are frozen here from the closed-form dimension formulas
(worked by hand) and the standard structure constants of the exceptional
forms; the catalog must reproduce them bit-exactly.  The catalog reads a
classical real form's dims off its own `_NAMES` columns, so the checks
here that compare those columns with each other are consistency checks;
`test_satake.py` derives every noncompact form's dims and ranks from root
data and Satake diagrams, independently of the catalog.
"""

import copy
import pickle
import sys
import threading
from operator import attrgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liecheck import algebras
from liecheck.algebras import (
    COMPACT,
    SIZE_LIMIT,
    Family,
    OutOfDomain,
    ParseError,
    ReductiveAlgebra,
    SimpleAlgebra,
    algebra,
    complexify,
    dims,
    iter_noncompact_simple,
    max_compact,
    out_group,
    parse_algebra,
    real_forms,
    reductive,
    reductive_dims,
    render,
    simple,
)

# (family, params) -> (dim_g, dim_k, dim_s, rk_r, rk_cpt)
FROZEN_DIMS = {
    (Family.SL_R, (3,)): (8, 3, 5, 2, 1),
    (Family.SL_R, (6,)): (35, 15, 20, 5, 3),
    (Family.SL_H, (3,)): (35, 21, 14, 2, 3),
    (Family.SU, (2, 3)): (24, 12, 12, 2, 4),
    (Family.SO, (2, 3)): (10, 4, 6, 2, 2),
    (Family.SO, (3, 4)): (21, 9, 12, 3, 3),
    (Family.SO, (8, 8)): (120, 56, 64, 8, 8),
    (Family.SP_R, (3,)): (21, 9, 12, 3, 3),
    (Family.SP, (1, 2)): (21, 13, 8, 1, 3),
    (Family.SP, (2, 2)): (36, 20, 16, 2, 4),
    (Family.SO_STAR, (5,)): (45, 25, 20, 2, 5),
    (Family.SO_STAR, (8,)): (120, 64, 56, 4, 8),
    (Family.SL_C, (4,)): (30, 15, 15, 3, 3),
    (Family.SO_C, (7,)): (42, 21, 21, 3, 3),
    (Family.SP_C, (3,)): (42, 21, 21, 3, 3),
    (Family.G2_C, ()): (28, 14, 14, 2, 2),
    (Family.F4_C, ()): (104, 52, 52, 4, 4),
    (Family.E6_C, ()): (156, 78, 78, 6, 6),
    (Family.E7_C, ()): (266, 133, 133, 7, 7),
    (Family.E8_C, ()): (496, 248, 248, 8, 8),
    (Family.G2_2, ()): (14, 6, 8, 2, 2),
    (Family.F4_4, ()): (52, 24, 28, 4, 4),
    (Family.F4_M20, ()): (52, 36, 16, 1, 4),
    (Family.E6_6, ()): (78, 36, 42, 6, 4),
    (Family.E6_2, ()): (78, 38, 40, 4, 6),
    (Family.E6_M14, ()): (78, 46, 32, 2, 6),
    (Family.E6_M26, ()): (78, 52, 26, 2, 4),
    (Family.E7_7, ()): (133, 63, 70, 7, 7),
    (Family.E7_M5, ()): (133, 69, 64, 4, 7),
    (Family.E7_M25, ()): (133, 79, 54, 3, 7),
    (Family.E8_8, ()): (248, 120, 128, 8, 8),
    (Family.E8_M24, ()): (248, 136, 112, 4, 8),
    (Family.SU_CPT, (5,)): (24, 24, 0, 0, 4),
    (Family.SO_CPT, (9,)): (36, 36, 0, 0, 4),
    (Family.SP_CPT, (3,)): (21, 21, 0, 0, 3),
    (Family.E8_CPT, ()): (248, 248, 0, 0, 8),
}


def test_frozen_dims():
    for (fam, params), expected in FROZEN_DIMS.items():
        d = dims(simple(fam, *params))
        assert (d.dim_g, d.dim_k, d.dim_s, d.rk_r, d.rk_cpt) == expected, (fam, params)


def test_spec_level_examples():
    # su(2,2) canonicalizes away, but its dims must survive the rename
    d = reductive_dims(algebra(Family.SU, 2, 2))
    assert (d.dim_g, d.dim_k, d.dim_s, d.rk_r) == (15, 7, 8, 2)
    d = dims(simple(Family.SL_R, 3))
    assert (d.dim_s, d.rk_r) == (5, 2)
    d = dims(simple(Family.E6_6))
    assert (d.dim_s, d.rk_r) == (42, 6)
    d = dims(simple(Family.E8_C))
    assert (d.dim_k, d.rk_r) == (248, 8)


# source construction -> canonical rendering
CANONICAL_PAIRS = [
    ((Family.SO, (1, 2)), "sl(2,R)"),
    ((Family.SU, (1, 1)), "sl(2,R)"),
    ((Family.SP_R, (1,)), "sl(2,R)"),
    ((Family.SO, (1, 3)), "sl(2,C)"),
    ((Family.SO, (2, 2)), "sl(2,R)+sl(2,R)"),
    ((Family.SP_R, (2,)), "so(2,3)"),
    ((Family.SP, (1, 1)), "so(1,4)"),
    ((Family.SL_R, (4,)), "so(3,3)"),
    ((Family.SU, (2, 2)), "so(2,4)"),
    ((Family.SL_H, (2,)), "so(1,5)"),
    ((Family.SU, (1, 3)), "so*(6)"),
    ((Family.SO_STAR, (2,)), "sl(2,R)+su(2)"),
    ((Family.SO_STAR, (1,)), "u(1)"),
    ((Family.SO, (1, 1)), "R"),
    ((Family.SL_H, (1,)), "su(2)"),
    ((Family.SO_C, (3,)), "sl(2,C)"),
    ((Family.SP_C, (1,)), "sl(2,C)"),
    ((Family.SO_C, (4,)), "sl(2,C)+sl(2,C)"),
    ((Family.SO_C, (5,)), "sp(4,C)"),
    ((Family.SO_C, (6,)), "sl(4,C)"),
    ((Family.SO_C, (2,)), "u(1)+R"),
    ((Family.SO, (0, 3)), "su(2)"),
    ((Family.SO, (4, 0)), "su(2)+su(2)"),
    ((Family.SP, (0, 2)), "so(5)"),
    ((Family.SU, (0, 4)), "so(6)"),
    ((Family.SU, (4, 2)), "su(2,4)"),
    ((Family.SO, (7, 3)), "so(3,7)"),
]


def test_canonicalization_targets():
    for (fam, params), expected in CANONICAL_PAIRS:
        assert render(algebra(fam, *params)) == expected, (fam, params)


def test_canonicalization_preserves_dims():
    for (fam, params), expected in CANONICAL_PAIRS:
        got = reductive_dims(algebra(fam, *params))
        ref = reductive_dims(parse_algebra(expected))
        assert got == ref


def test_out_of_domain():
    with pytest.raises(OutOfDomain):
        simple(Family.SO, 2, 2)  # not simple
    with pytest.raises(OutOfDomain):
        simple(Family.SL_R, 0)
    with pytest.raises(OutOfDomain):
        algebra(Family.SO, -1, 3)
    with pytest.raises(OutOfDomain):
        algebra(Family.SU, 2)  # wrong arity


def test_parse_refuses_odd_matrix_sizes_and_empty_summands():
    # sp(2n,R) and so*(2n) are named by their even matrix size
    with pytest.raises(OutOfDomain, match=r"^sp\(3,R\): matrix size must be even$"):
        parse_algebra("sp(3,R)")
    with pytest.raises(ParseError, match=r"^empty summand \(at position 8\)$"):
        parse_algebra("sl(2,R)+")


def test_algebra_takes_int_parameters_only():
    # algebra() is memoized, so a float or bool accepted once would be
    # handed back to later int calls and render as so(2.0,3)
    assert render(algebra(Family.SO, 2, 3)) == "so(2,3)"
    for bad in ((2.0, 3), (2, 3.0), (True, 3)):
        with pytest.raises(OutOfDomain):
            algebra(Family.SO, *bad)
    with pytest.raises(OutOfDomain):
        algebra(Family.SL_R, True)
    with pytest.raises(OutOfDomain):
        simple(Family.SL_H, 3.0)
    assert render(algebra(Family.SO, 2, 3)) == "so(2,3)"
    assert render(algebra(Family.SU, 1, 4)) == "su(1,4)"


def test_sizes_past_the_cap_are_out_of_domain():
    # every dimension of an algebra within the cap prints as a decimal;
    # past it, the refusal names the cap and formats no size
    cap = 10**algebras.SIZE_CAP_DIGITS
    assert dims(simple(Family.SL_R, cap)).dim_g == cap * cap - 1
    assert render(algebra(Family.SU, 1, cap - 1)) == "su(1,%d)" % (cap - 1)
    for refused in (
        lambda: algebra(Family.SL_R, cap + 1),
        lambda: algebra(Family.SL_R, 10**5000),
        lambda: algebra(Family.SO, -(10**5000), 3),
        lambda: simple(Family.SO_STAR, cap + 1),
        lambda: SimpleAlgebra(Family.SU, (1, cap)),
        lambda: parse_algebra("sl(%d,R)" % (cap + 1)),
    ):
        with pytest.raises(OutOfDomain, match=r"sizes must total at most 10\*\*2000$"):
            refused()


def test_algebra_returns_one_shared_value():
    for fam, params in FROZEN_DIMS:
        assert algebra(fam, *params) is algebra(fam, *params)


def test_simple_algebras_are_interned():
    for fam, params in FROZEN_DIMS:
        a = SimpleAlgebra(fam, params)
        assert a is SimpleAlgebra(fam, params)
        assert a is SimpleAlgebra(family=fam, params=params)
        (b,) = algebra(fam, *params).simples
        assert b is a
    # a noncanonical presentation is its own interned value
    assert SimpleAlgebra(Family.SU, (2, 2)) is SimpleAlgebra(Family.SU, (2, 2))
    assert SimpleAlgebra(Family.SU, (2, 2)) not in algebra(Family.SU, 2, 2).simples


def test_threads_interning_one_new_key_get_one_object(monkeypatch):
    # four threads build the same new keys in step, switching as often as
    # the interpreter allows; with a check-then-store table two of them
    # could each intern an object for one key, and the two compare unequal
    keys = [(p, q) for p in range(1, 70) for q in range(151, 186)]
    built = [{} for _ in range(4)]
    errors = []

    def build(out):
        try:
            start.wait(timeout=30)
            for key in keys:
                out[key] = SimpleAlgebra(Family.SO, key)
        except Exception as e:  # reported below
            errors.append(e)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):  # a check-then-store table split keys in each of 30 trial rounds
            monkeypatch.setattr(algebras, "_INTERNED", {})
            start = threading.Barrier(len(built))
            threads = [threading.Thread(target=build, args=(out,)) for out in built]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
            assert errors == []
            split = [k for k in keys if any(out[k] is not built[0][k] for out in built)]
            assert split == []
            assert all(algebras._INTERNED[Family.SO, k] is built[0][k] for k in keys)
    finally:
        sys.setswitchinterval(interval)


def test_interned_values_survive_copy_and_pickle():
    a = simple(Family.SO, 3, 4)
    assert copy.copy(a) is a
    assert copy.deepcopy(a) is a
    assert copy.deepcopy([a, a]) == [a, a]
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(a, protocol)) is a
    for red in (algebra(Family.SO_STAR, 2), max_compact(simple(Family.SU, 2, 3))):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(red, protocol))
            assert back == red and hash(back) == hash(red)
            assert type(back) is ReductiveAlgebra


def test_simple_algebras_are_immutable():
    a = simple(Family.SL_R, 5)
    for attr, value in (("family", Family.SU), ("params", (6,)), ("name", "x"), ("other", 1)):
        with pytest.raises(AttributeError, match="cannot assign to field"):
            setattr(a, attr, value)
    with pytest.raises(AttributeError, match="cannot delete field"):
        del a.params
    assert render(a) == "sl(5,R)" and a.params == (5,)
    red = max_compact(simple(Family.SU, 2, 3))
    for attr in ("simples", "compact_abelian_dim", "split_abelian_dim", "other"):
        with pytest.raises(AttributeError):
            setattr(red, attr, 0)
    assert render(red) == "su(2)+su(3)+u(1)"


def test_simple_algebra_repr_is_unchanged():
    assert repr(simple(Family.SO, 2, 3)) == (
        "SimpleAlgebra(family=<Family.SO: 'so'>, params=(2, 3))"
    )
    assert repr(simple(Family.E8_8)) == "SimpleAlgebra(family=<Family.E8_8: 'e8_8'>, params=())"
    assert repr(max_compact(simple(Family.SU, 2, 3))) == (
        "ReductiveAlgebra(simples=(SimpleAlgebra(family=<Family.SU_CPT: 'su_cpt'>, params=(2,)), "
        "SimpleAlgebra(family=<Family.SU_CPT: 'su_cpt'>, params=(3,))), "
        "compact_abelian_dim=1, split_abelian_dim=0)"
    )
    assert repr(algebra(Family.SO_C, 2)) == (
        "ReductiveAlgebra(simples=(), compact_abelian_dim=1, split_abelian_dim=1)"
    )


def test_reductive_orders_two_factors_as_sorted_does():
    classical = (Family.SU_CPT, Family.SO_CPT, Family.SP_CPT)
    compact = [SimpleAlgebra(fam, (n,)) for fam in classical for n in range(1, 9)]
    compact += [SimpleAlgebra(fam) for fam in COMPACT.difference(classical)]
    factors = list(iter_noncompact_simple(8)) + compact
    key = attrgetter("sort_key")
    for x in factors:
        for y in factors:
            red = reductive((x, y))
            assert red.simples == tuple(sorted((x, y), key=key))
            assert red == reductive((y, x)) and hash(red) == hash(reductive((y, x)))
    three = factors[-1], factors[0], factors[len(factors) // 2]
    assert reductive(three).simples == tuple(sorted(three, key=key))


def test_simple_algebra_takes_a_family_and_an_int_tuple_only():
    for fam, params in (
        (Family.SO, (2.0, 3)),
        (Family.SO, (2, 3.0)),
        (Family.SO, (True, 3)),
        (Family.SL_R, (False,)),
        (Family.SO, [2, 3]),
        (Family.SL_R, 5),
        (Family.SO, (2,)),
        (Family.SO, (1, 2, 3)),
        (Family.SL_R, ()),
        (Family.E6_6, (1,)),
        (Family.SO, (-1, 3)),
        (Family.SO, (0, 0)),
        (Family.SL_R, (0,)),
        ("so", (2, 3)),
        (None, ()),
    ):
        with pytest.raises(OutOfDomain):
            SimpleAlgebra(fam, params)
    a = SimpleAlgebra(Family.SO, (2, 3))
    assert render(a) == "so(2,3)" and a.params == (2, 3)
    assert all(type(x) is int for x in a.params)


FROZEN_OUT = {
    "sl(2,R)": ("Z2", True),
    "sl(5,R)": ("Z2", True),
    "sl(6,R)": ("Z2xZ2", True),
    "sl(3,C)": ("Z2xZ2", True),
    "sl(2,C)": ("Z2", True),
    "so(8,C)": ("S3xZ2", False),
    "so(10,C)": ("Z2xZ2", True),
    "so(9,C)": ("Z2", True),
    "sp(6,C)": ("Z2", True),
    "e6(C)": ("Z2xZ2", True),
    "e7(C)": ("Z2", True),
    "su(2,3)": ("Z2", True),
    "su(3,3)": ("Z2xZ2", True),
    "sl(3,H)": ("Z2", True),
    "so(3,4)": ("Z2", True),
    "so(3,5)": ("Z2", True),
    "so(2,4)": ("Z2xZ2", True),
    "so(5,5)": ("Z2xZ2", True),
    "so(6,6)": ("D4", False),
    "so(4,4)": ("S4", False),
    "so(3,3)": ("Z2xZ2", True),
    "sp(6,R)": ("Z2", True),
    "sp(2,2)": ("Z2", True),
    "sp(1,2)": ("trivial", True),
    "so*(10)": ("Z2", True),
    "e6(6)": ("Z2", True),
    "e6(-14)": ("Z2", True),
    "e7(7)": ("Z2", True),
    "e7(-5)": ("trivial", True),
    "e8(8)": ("trivial", True),
    "g2(2)": ("trivial", True),
    "f4(4)": ("trivial", True),
    "f4(-20)": ("trivial", True),
}


def test_out_groups():
    for name, (iso, le2) in FROZEN_OUT.items():
        (a,) = parse_algebra(name).simples
        og = out_group(a)
        assert og.iso_type.value == iso, name
        assert (og.exponent <= 2) == le2, name


def test_out_group_exponents():
    assert out_group(simple(Family.SO, 4, 4)).exponent == 12
    assert out_group(simple(Family.SO, 6, 6)).exponent == 4
    assert out_group(simple(Family.SO_C, 8)).exponent == 6
    assert out_group(simple(Family.E8_8)).exponent == 1
    assert out_group(simple(Family.E6_6)).exponent == 2


MAX_COMPACT_EXPECT = {
    "sl(5,R)": "so(5)",
    "sl(3,H)": "sp(3)",
    "su(2,3)": "su(2)+su(3)+u(1)",
    "so(4,5)": "so(5)+su(2)+su(2)",  # so(4) splits canonically
    "sp(8,R)": "so(6)+u(1)",  # u(4); su(4) is canonically so(6)
    "sp(1,2)": "so(5)+su(2)",  # sp(1)+sp(2), canonically renamed
    "so*(10)": "su(5)+u(1)",
    "e7(C)": "e7(-133)",
    "e6(2)": "su(2)+su(6)",
    "e8(-24)": "e7(-133)+su(2)",
    "f4(-20)": "so(9)",
    "g2(2)": "su(2)+su(2)",
}


def test_max_compact():
    for name, expected in MAX_COMPACT_EXPECT.items():
        (a,) = parse_algebra(name).simples
        assert render(max_compact(a)) == expected, name


def test_max_compact_dimension_identity():
    # every catalog algebra at every size the sweeps reach.  A classical real
    # form's dim K and rk K are read off the max-compact column itself, so
    # there this is a tautology up to the coincidences (so(4,5)'s K is
    # so(5)+su(2)+su(2) once renamed); it still checks each exceptional
    # row's dim K and rk K against its max-compact name
    for a in iter_noncompact_simple(SIZE_LIMIT):
        d = dims(a)
        k = reductive_dims(max_compact(a))
        assert k.dim_g == d.dim_k, render(a)
        assert k.dim_s == 0
        assert k.rk_cpt == d.rk_cpt, render(a)


def test_complexify():
    cases = {
        "sl(3,R)": "sl(3,C)",
        "sl(2,H)": "sl(4,C)",
        "su(2,3)": "sl(5,C)",
        "so(3,4)": "so(7,C)",
        "sp(6,R)": "sp(6,C)",
        "sp(1,2)": "sp(6,C)",
        "so*(12)": "so(12,C)",
        "so(2,3)": "sp(4,C)",
        "su(4)": "sl(4,C)",
        "e6(-26)": "e6(C)",
        "f4(-52)": "f4(C)",
        "g2(2)": "g2(C)",
        "sl(2,C)": "sl(2,C)+sl(2,C)",
    }
    for src, expected in cases.items():
        (a,) = parse_algebra(src).simples
        assert render(complexify(a)) == expected, src


def test_real_forms_read_the_complexification_column():
    assert real_forms(simple(Family.E6_C)) == ("e6(6)", "e6(2)", "e6(-14)", "e6(-26)")
    assert real_forms(simple(Family.G2_C)) == ("g2(2)",)
    # real forms and classical algebras have none
    assert real_forms(simple(Family.E6_6)) == real_forms(simple(Family.SL_C, 3)) == ()
    for a in iter_noncompact_simple(2):
        for name in real_forms(a):
            (form,) = parse_algebra(name).simples
            assert complexify(form) == algebra(a.family), name


def test_complexify_doubles_dimension():
    compact = [
        SimpleAlgebra(family, (n,))
        for family in (Family.SU_CPT, Family.SO_CPT, Family.SP_CPT)
        for n in range(1, SIZE_LIMIT + 1)
    ]
    for a in [*iter_noncompact_simple(SIZE_LIMIT), *compact]:
        assert reductive_dims(complexify(a)).dim_g == 2 * dims(a).dim_g, render(a)


def test_classical_rows_state_compact_and_complex_families():
    # the columns' shape, as the family classes are read off them: a compact
    # column is a classical compact family and 0 or 1 u(1), a complexification
    # a classical complex family and a factor of 1 or 2, and a real-rank rule
    # (d, o), rk_R = n // d + o, is stated by each one-parameter real form
    # alone: the (p, q) families take min(p, q), compact and complex ones none
    F = Family
    for family, row in algebras._NAMES.items():
        if row.max_compact is not None:
            cpt, lines = row.max_compact
            assert cpt in COMPACT.intersection(algebras._NAMES) and lines in (0, 1), family
        if row.complexification is not None:
            complex_family, factor = row.complexification
            assert complex_family in algebras.COMPLEX_CLASSICAL and factor in (1, 2), family
    assert algebras._TWO_PARAM == {F.SU: F.SU_CPT, F.SO: F.SO_CPT, F.SP: F.SP_CPT}
    rules = {family: row.real_rank for family, row in algebras._NAMES.items() if row.real_rank}
    assert rules.keys() == {F.SL_R, F.SL_H, F.SP_R, F.SO_STAR}
    assert rules.keys() == algebras._ONE_PARAM - COMPACT - algebras.COMPLEX
    assert all(d in (1, 2) and o in (-1, 0) for d, o in rules.values())


def test_iter_covers_expected_families():
    names = {render(algebra_) for algebra_ in iter_noncompact_simple(8)}
    assert "sl(2,R)" in names
    assert "so(2,3)" in names and "sp(4,R)" not in names  # canonical only
    assert "so(3,3)" in names and "sl(4,R)" not in names
    assert "e8(8)" in names and "g2(C)" in names
    assert "so(4,4)" in names
    assert all("(0," not in n for n in names)


def test_family_classes_partition_family_and_come_from_the_tables():
    F = Family
    # the hand-written lists these sets replace
    assert algebras.COMPLEX_CLASSICAL == {F.SL_C, F.SO_C, F.SP_C}
    assert algebras.COMPLEX_EXCEPTIONAL == {F.G2_C, F.F4_C, F.E6_C, F.E7_C, F.E8_C}
    assert algebras.COMPLEX == algebras.COMPLEX_CLASSICAL | algebras.COMPLEX_EXCEPTIONAL
    assert COMPACT == {
        F.SU_CPT, F.SO_CPT, F.SP_CPT, F.G2_CPT, F.F4_CPT, F.E6_CPT, F.E7_CPT, F.E8_CPT,
    }
    assert algebras.REAL_EXCEPTIONAL == {
        F.G2_2, F.F4_4, F.F4_M20, F.E6_6, F.E6_2, F.E6_M14, F.E6_M26,
        F.E7_7, F.E7_M5, F.E7_M25, F.E8_8, F.E8_M24,
    }
    classical_noncompact = {F.SL_R, F.SL_H, F.SU, F.SO, F.SP_R, F.SP, F.SO_STAR}
    parts = (classical_noncompact, algebras.COMPLEX, COMPACT, algebras.REAL_EXCEPTIONAL)
    assert sum(map(len, parts)) == len(F)
    assert set().union(*parts) == set(F)
    # catalog order: the noncompact families, each once, exceptional by value
    assert algebras._NONCOMPACT_ORDER == (
        F.SL_R, F.SL_H, F.SU, F.SO, F.SP_R, F.SP, F.SO_STAR, F.SL_C, F.SO_C, F.SP_C,
        F.E6_2, F.E6_6, F.E6_C, F.E6_M14, F.E6_M26, F.E7_7, F.E7_C, F.E7_M25,
        F.E7_M5, F.E8_8, F.E8_C, F.E8_M24, F.F4_4, F.F4_C, F.F4_M20, F.G2_2, F.G2_C,
    )
    assert set(algebras._NONCOMPACT_ORDER) == set(F) - COMPACT


def test_iter_is_duplicate_free():
    algs = list(iter_noncompact_simple(16))
    assert len(algs) == len(set(algs))


@settings(max_examples=300)
@given(st.sampled_from(list(iter_noncompact_simple(16))))
def test_basic_dim_invariants(a):
    d = dims(a)
    assert d.dim_s == d.dim_g - d.dim_k > 0
    assert 0 < d.rk_r <= reductive_dims(complexify(a)).rk_cpt
    # complex algebras: dim S = dim K and real rank = complex rank
    if complexify(a).simples.count(a) == 2:
        assert d.dim_s == d.dim_k
        assert d.rk_r == d.rk_cpt


@settings(max_examples=200)
@given(st.sampled_from(list(iter_noncompact_simple(16))))
def test_render_parse_roundtrip(a):
    red = parse_algebra(render(algebra(a.family, *a.params)))
    assert red.simples == (a,)
