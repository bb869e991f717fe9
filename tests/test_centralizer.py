"""Signature-oracle checks: closed-form bounds vs exhaustive maximization.

Frozen expectations come from evaluating the bound formulas by hand and
from small centralizer computations (e.g. the centralizer of diag(-I6, 1)
in SO(7) is SO(6), of dimension 15).
"""

import gc
import time
import tracemalloc
from collections import Counter
from itertools import combinations_with_replacement, islice

import pytest

from liecheck import algebras, centralizers
from liecheck import verify as vf
from liecheck.algebras import Family
from liecheck.centralizers import (
    ENUMERATION_BUDGET,
    InvalidSignature,
    OracleInvariantError,
    OutOfDomain,
    SigFamily,
    Signature,
    bound,
    enumerate_signatures,
    oracle_max,
    signature_compact_dim,
    signature_dim,
    _angle_blocks,
    _candidate_count,
    _prefixes,
    _StepLists,
    _validate,
)


def sig(family, params, *blocks):
    return Signature(family, params, tuple(blocks))


@pytest.mark.parametrize("enum", [Family, SigFamily])
def test_family_enums_hash_by_identity(enum):
    # members compare by identity, so the tables keyed by them hash with the
    # C-level identity hash, not Enum's Python-level hash of the name
    assert enum.__hash__ is object.__hash__


def test_bound_values():
    assert bound(SigFamily.SO_N, (7,)) == 15
    assert bound(SigFamily.SO_N, (3,)) == 1
    assert bound(SigFamily.SU_N, (5,)) == 16
    assert bound(SigFamily.SU_PQ, (2, 3)) == 8
    assert bound(SigFamily.SP_PQ, (1, 2)) == 4
    assert bound(SigFamily.SOSTAR_2N, (8,)) == 42
    assert bound(SigFamily.SOSTAR_2N, (2,)) == 0


def test_bound_domains():
    with pytest.raises(OutOfDomain):
        bound(SigFamily.SO_N, (2,))
    with pytest.raises(OutOfDomain):
        bound(SigFamily.SU_N, (1,))
    with pytest.raises(OutOfDomain):
        bound(SigFamily.SU_PQ, (2, 1))  # requires p <= q
    with pytest.raises(OutOfDomain):
        bound(SigFamily.SP_PQ, (1, 1))  # requires p + q >= 3
    with pytest.raises(OutOfDomain):
        bound(SigFamily.SOSTAR_2N, (1,))


def test_signature_dims():
    # compact families report dim C_K(A)
    assert signature_dim(sig(SigFamily.SU_N, (5,), (1, 4, 0), (-1, 1, 0))) == 16
    assert signature_dim(sig(SigFamily.SO_N, (7,), (1, 6, 0), (-1, 1, 0))) == 15
    # one rotation block uses two coordinates: 7 = 1 + 2*3
    assert signature_dim(sig(SigFamily.SO_N, (7,), (1, 1, 0), (2, 3, 0))) == 9
    assert signature_dim(sig(SigFamily.SP_N_COMPACT, (3,), (1, 2, 0), (-1, 1, 0))) == 13
    # indefinite families report dim S^A
    assert signature_dim(sig(SigFamily.SU_PQ, (2, 3), (1, 2, 2), (-1, 0, 1))) == 8
    assert signature_dim(sig(SigFamily.SO_PQ, (2, 3), (-1, 2, 2), (1, 0, 1))) == 4
    assert signature_dim(sig(SigFamily.SP_PQ, (1, 2), (1, 1, 1), (-1, 0, 1))) == 4
    # angle blocks in sp(p,q) weigh half of the +-1 blocks
    assert signature_dim(sig(SigFamily.SP_PQ, (1, 2), (2, 1, 1), (-1, 0, 1))) == 2
    assert signature_dim(sig(SigFamily.SOSTAR_2N, (4,), (1, 3, 0), (-1, 1, 0))) == 6
    # so* angle block carries the two conjugate eigenvalue multiplicities
    assert signature_dim(sig(SigFamily.SOSTAR_2N, (4,), (2, 1, 2), (1, 1, 0))) == 4
    # params may be any int sequence: the fill compares against tuple(params)
    listed = sig(SigFamily.SU_PQ, [2, 3], (1, 2, 2), (-1, 0, 1))
    assert (signature_dim(listed), signature_compact_dim(listed)) == (8, 8)
    assert signature_dim(sig(SigFamily.SO_N, [7], (1, 1, 0), (2, 3, 0))) == 9


def test_list_params_are_the_tuple_value():
    listed = sig(SigFamily.SU_PQ, [2, 3], (1, 2, 2), (-1, 0, 1))
    tupled = sig(SigFamily.SU_PQ, (2, 3), (1, 2, 2), (-1, 0, 1))
    assert listed.params == (2, 3)
    assert listed == tupled and hash(listed) == hash(tupled)
    assert {listed, tupled} == {tupled}
    # list blocks, and lists inside a block tuple, are stored as tuples
    for blocks in ([[1, 2, 2], [-1, 0, 1]], [(1, 2, 2), (-1, 0, 1)], ([1, 2, 2], (-1, 0, 1))):
        listed = Signature(SigFamily.SU_PQ, [2, 3], blocks)
        assert listed.blocks == tupled.blocks
        assert listed == tupled and hash(listed) == hash(tupled)
    # a copy with changed fields goes through the same rule
    replaced = listed._replace(params=[2, 3], blocks=[[1, 2, 2], [-1, 0, 1]])
    assert type(replaced) is Signature and replaced.params == (2, 3) and replaced.blocks == tupled.blocks
    assert replaced == tupled and hash(replaced) == hash(tupled)
    # the entry points that take params answer a list as its tuple
    assert list(enumerate_signatures(SigFamily.SU_PQ, [1, 2])) == list(
        enumerate_signatures(SigFamily.SU_PQ, (1, 2))
    )
    assert oracle_max(SigFamily.SO_N, [5]) == oracle_max(SigFamily.SO_N, (5,))


def test_central_classes_rejected():
    with pytest.raises(InvalidSignature):
        signature_dim(sig(SigFamily.SU_N, (5,), (1, 5, 0)))
    with pytest.raises(InvalidSignature):
        signature_dim(sig(SigFamily.SO_N, (6,), (-1, 6, 0)))
    # a single rotation class counts as one eigenvalue tag
    with pytest.raises(InvalidSignature):
        signature_dim(sig(SigFamily.SOSTAR_2N, (4,), (2, 2, 2)))


def test_malformed_signatures_rejected():
    with pytest.raises(InvalidSignature):
        signature_dim(sig(SigFamily.SU_N, (5,), (1, 3, 0), (1, 2, 0)))  # repeated tag
    with pytest.raises(InvalidSignature):
        signature_dim(sig(SigFamily.SU_N, (5,), (1, 3, 0), (-1, 1, 0)))  # sums to 4
    with pytest.raises(InvalidSignature):
        signature_dim(sig(SigFamily.SO_N, (7,), (1, 6, 1), (-1, 1, 0)))  # definite
    with pytest.raises(InvalidSignature):
        signature_dim(sig(SigFamily.SU_PQ, (2, 3), (1, 2, 2), (-1, 0, 0)))  # empty block
    with pytest.raises(InvalidSignature, match="so. real-eigenvalue blocks carry one multiplicity"):
        signature_dim(sig(SigFamily.SOSTAR_2N, (4,), (1, 2, 1), (2, 1, 0)))  # so* +-1 block


def test_non_int_signature_data_rejected():
    # half-integer multiplicities once summed to 3 and gave dim 3.5
    with pytest.raises(InvalidSignature):
        signature_dim(sig(SigFamily.SU_N, (3,), (1, 1.5, 0), (2, 1.5, 0)))
    with pytest.raises(InvalidSignature):
        signature_dim(sig(SigFamily.SU_N, (3.0,), (1, 2, 0), (-1, 1, 0)))
    with pytest.raises(InvalidSignature):
        signature_dim(sig(SigFamily.SU_PQ, (1, 2), (1.0, 1, 1), (-1, 0, 1)))
    # bool is not int, even where it compares equal to 1
    with pytest.raises(InvalidSignature):
        signature_dim(sig(SigFamily.SU_PQ, (1, 2), (True, 1, 1), (-1, 0, 1)))
    with pytest.raises(InvalidSignature):
        signature_dim(sig(SigFamily.SO_N, (True,), (1, 1, 0)))
    with pytest.raises(InvalidSignature):
        signature_dim(sig(SigFamily.SU_PQ, (1, 2), (1, 1, True), (-1, 0, 1)))


def test_angle_tags_are_real_or_at_least_two():
    # tag -2 was accepted here while the matrix oracle refused the class
    with pytest.raises(InvalidSignature):
        signature_dim(sig(SigFamily.SU_PQ, (1, 2), (1, 1, 1), (-2, 0, 1)))
    for tag in (0, -3, -100):
        with pytest.raises(InvalidSignature):
            signature_dim(sig(SigFamily.SO_N, (5,), (1, 1, 0), (tag, 2, 0)))
    assert signature_dim(sig(SigFamily.SO_N, (5,), (1, 1, 0), (7, 2, 0))) == 4


def test_non_int_params_out_of_domain():
    with pytest.raises(OutOfDomain):
        bound(SigFamily.SU_N, (3.0,))  # once returned 4.0
    with pytest.raises(OutOfDomain):
        bound(SigFamily.SU_PQ, (1, True))
    with pytest.raises(OutOfDomain):
        oracle_max(SigFamily.SU_PQ, (2.0, 3))  # once a TypeError
    with pytest.raises(OutOfDomain):
        oracle_max(SigFamily.SU_PQ, (True, 2))  # once a witness with params (True, 2)
    with pytest.raises(OutOfDomain):
        oracle_max(SigFamily.SOSTAR_2N, (4, 1))
    assert bound(SigFamily.SU_PQ, [1, 2]) == 2  # any int sequence still works


def test_oracle_max_witnesses():
    value, witness = oracle_max(SigFamily.SO_N, (7,))
    assert value == 15
    assert set(witness.blocks) == {(1, 6, 0), (-1, 1, 0)}
    value, witness = oracle_max(SigFamily.SU_N, (5,))
    assert value == 16
    assert sorted(m for _, m, _ in witness.blocks) == [1, 4]
    value, witness = oracle_max(SigFamily.SP_PQ, (1, 2))
    assert value == 4


# at the edge of ENUMERATION_BUDGET: so(52), su(45) and so*(26) are the
# largest in budget, su(9,12), su(10,11) and sp(5,10) the largest q at
# their p
_LARGEST_IN_BUDGET = [
    (SigFamily.SO_N, (52,)),
    (SigFamily.SU_N, (45,)),
    (SigFamily.SOSTAR_2N, (13,)),
    (SigFamily.SU_PQ, (9, 12)),
    (SigFamily.SU_PQ, (10, 11)),
    (SigFamily.SP_PQ, (5, 10)),
]


def test_oracle_attains_bounds_on_small_ranges():
    for n in range(3, 10):
        assert oracle_max(SigFamily.SO_N, (n,))[0] == bound(SigFamily.SO_N, (n,)), n
    for n in range(2, 10):
        assert oracle_max(SigFamily.SU_N, (n,))[0] == bound(SigFamily.SU_N, (n,)), n
    for n in range(2, 8):
        assert oracle_max(SigFamily.SOSTAR_2N, (n,))[0] == bound(SigFamily.SOSTAR_2N, (n,)), n
    for p in range(1, 4):
        for q in range(p, 8 - p):
            if p + q >= 3:
                params = (p, q)
                assert oracle_max(SigFamily.SU_PQ, params)[0] == bound(SigFamily.SU_PQ, params)
                assert oracle_max(SigFamily.SP_PQ, params)[0] == bound(SigFamily.SP_PQ, params)
    for family, params in _LARGEST_IN_BUDGET:
        assert oracle_max(family, params)[0] == bound(family, params), (family, params)


def test_every_class_keeps_a_nonnegative_margin_and_margin_zero_is_equality():
    # the signature side of the margin-0 set: every class of every order of
    # the indefinite families, against its ambient's dim S - rk_R
    forms = [
        (family, (p, q))
        for family in (SigFamily.SO_PQ, SigFamily.SU_PQ, SigFamily.SP_PQ)
        for p in range(1, 5)
        for q in range(p, 9 - p)
    ] + [(SigFamily.SOSTAR_2N, (n,)) for n in range(1, 9)]
    classes, zero, so_forms = 0, [], set()
    for family, params in forms:
        ambient = algebras.as_simple(algebras.algebra(centralizers.SIG_AMBIENT[family], *params))
        if ambient is None:  # so(1,1), so(2,2), so*(2), so*(4)
            continue
        if family is SigFamily.SO_PQ:
            so_forms.add(params)
        d = algebras.dims(ambient)
        target = d.dim_s - d.rk_r
        for s in enumerate_signatures(family, params):
            classes += 1
            fixed = signature_dim(s)
            assert fixed <= target, s
            if fixed == target:
                zero.append((s, ambient, fixed))
    assert classes == 12411 and len(zero) == 32
    # each is a reflection in so(p,q): +-1 blocks, one of total multiplicity
    # 1; every so(p,q) reaches margin 0, so its maximum is p(q - 1)
    for s, _, _ in zero:
        assert s.family is SigFamily.SO_PQ and {tag for tag, _, _ in s.blocks} <= {1, -1}, s
        assert [mp + mm for _, mp, mm in s.blocks].count(1) == 1, s
    assert {s.params for s, _, _ in zero} == so_forms
    for s, ambient, fixed in zero:
        cases = vf.verify_case(ambient)
        if s.params[0] == 1:  # real rank one: so(1,q), sl(2,R), sl(2,C)
            assert [(c.route, c.margin) for c in cases] == [(vf.ROUTE_RANK1, 0)], s
        else:
            tail = "(fixed dim %d vs target %d)" % (fixed, fixed)
            assert any(c.route == vf.ROUTE_EQUALITY and c.witness.endswith(tail) for c in cases), s


def test_oracle_max_is_fast_and_small_at_the_largest_sizes():
    # building the angle tables, su(45) took about 1 s at a 51 MB
    # tracemalloc peak, and the five sizes together about 3 s
    start = time.monotonic()
    for family, params in _LARGEST_IN_BUDGET:
        oracle_max(family, params)
    assert time.monotonic() - start < 1.0
    tracemalloc.start()
    try:
        oracle_max(SigFamily.SU_N, (45,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5_000_000


def test_enumeration_streams():
    # building su(45)'s whole 89,134-entry table before the first yield
    # once took a 48 MB tracemalloc peak
    tracemalloc.start()
    try:
        start = time.monotonic()
        signatures = enumerate_signatures(SigFamily.SU_N, (45,))
        assert sum(1 for _ in islice(signatures, 1000)) == 1000
        elapsed = time.monotonic() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert elapsed < 0.2


def test_enumeration_is_valid_and_noncentral():
    for fam, params in [
        (SigFamily.SO_N, (6,)),
        (SigFamily.SU_N, (4,)),
        (SigFamily.SO_PQ, (2, 3)),
        (SigFamily.SU_PQ, (2, 2)),
        (SigFamily.SOSTAR_2N, (4,)),
    ]:
        seen = set()
        for s in enumerate_signatures(fam, params):
            assert len(s.blocks) >= 2
            signature_dim(s)  # must not raise
            assert s not in seen
            seen.add(s)
        assert seen


def test_order_le_4_enumeration_restricts_tags():
    full = list(enumerate_signatures(SigFamily.SO_N, (8,)))
    small = list(enumerate_signatures(SigFamily.SO_N, (8,), order_le_4=True))
    assert len(small) < len(full)
    for s in small:
        angle_tags = [t for t, _, _ in s.blocks if t not in (1, -1)]
        assert len(angle_tags) <= 1


def _built(family, params, order_le_4=False):
    """Every candidate block tuple, in enumeration order, central ones too:
    each +-1 prefix followed by each angle multiset of its walk."""
    memo = _StepLists()
    for prefix, (p, q) in _prefixes(family, tuple(params)):
        for angles in _angle_blocks(family, p, q, order_le_4, memo):
            yield prefix + angles


def test_candidate_count_matches_enumeration():
    # both sides read `_prefixes`, so this checks the fill table against the
    # walk; the +-1 prefix rule itself is pinned by `_BUDGET_EDGES` (frozen
    # counts) and `test_golden_output.SIGNATURES_8_SHA256`
    for fam in (SigFamily.SO_N, SigFamily.SU_N, SigFamily.SP_N_COMPACT, SigFamily.SOSTAR_2N):
        for n in range(0, 10):
            built = sum(1 for _ in _built(fam, (n,)))
            assert _candidate_count(fam, (n,)) == built, (fam, n)
    for fam in (SigFamily.SO_PQ, SigFamily.SU_PQ, SigFamily.SP_PQ):
        for p in range(0, 6):
            for q in range(0, 7):
                built = sum(1 for _ in _built(fam, (p, q)))
                assert _candidate_count(fam, (p, q)) == built, (fam, p, q)


# the counts on each side of ENUMERATION_BUDGET that decide which sizes are
# refused (None: over it); README names su(46) as the smallest su(n) past it
_BUDGET_EDGES = [
    (SigFamily.SU_N, (45,), 89_134),
    (SigFamily.SU_N, (46,), None),
    (SigFamily.SO_N, (52,), 94_514),
    (SigFamily.SO_N, (53,), None),
    (SigFamily.SOSTAR_2N, (13,), 61_402),
    (SigFamily.SOSTAR_2N, (14,), None),
    (SigFamily.SU_PQ, (10, 11), 94_664),
    (SigFamily.SU_PQ, (10, 12), None),
    (SigFamily.SP_PQ, (5, 10), 92_823),
    (SigFamily.SP_PQ, (5, 11), None),
    (SigFamily.SU_PQ, (9, 12), 89_079),
    (SigFamily.SU_PQ, (9, 13), None),
]


def test_candidate_counts_at_the_budget_edges():
    for family, params, count in _BUDGET_EDGES:
        expected = ENUMERATION_BUDGET + 1 if count is None else count
        assert _candidate_count(family, params) == expected, (family, params)
    # the sizes the oracle tests run at the edge are pinned here
    assert set(_LARGEST_IN_BUDGET) <= {(f, p) for f, p, c in _BUDGET_EDGES if c is not None}


def test_candidate_count_stops_at_the_first_run_past_the_budget(monkeypatch):
    # so(37,33)'s first run alone fills more than the budget: the count reads
    # that run and none of the other 116,279
    runs = []

    def counting(family, params):
        for run in _prefixes(family, params):
            runs.append(run)
            yield run

    monkeypatch.setattr(centralizers, "_prefixes", counting)
    assert _candidate_count(SigFamily.SO_PQ, (37, 33)) == ENUMERATION_BUDGET + 1
    assert len(runs) == 1


def _validated(family, params, order_le_4):
    """The candidates that pass the full `_validate`, in enumeration order."""
    for blocks in _built(family, params, order_le_4):
        sig = Signature(family, params, blocks)
        try:
            _validate(sig)
        except InvalidSignature:
            continue
        yield sig


def test_enumeration_drops_exactly_what_validate_rejects():
    # the criterion-2 sizes at order <= 4 (in full they hold 55k candidates,
    # about 1 s of `_validate`) and the criterion-3 sizes with both flags
    c2 = [(SigFamily.SO_N, (n,)) for n in range(3, 13)]
    c2 += [(SigFamily.SU_N, (n,)) for n in range(2, 13)]
    c2 += [(SigFamily.SOSTAR_2N, (n,)) for n in range(2, 11)]
    for p in range(1, 10):
        for q in range(p, 11 - p):
            if p + q >= 3:
                c2 += [(SigFamily.SU_PQ, (p, q)), (SigFamily.SP_PQ, (p, q))]
    c3 = [(SigFamily.SOSTAR_2N, (n,)) for n in range(2, 7)]
    for p in range(1, 8):
        for q in range(p, 9 - p):
            c3 += [(SigFamily.SO_PQ, (p, q)), (SigFamily.SU_PQ, (p, q))]
    cases = [(f, ps, True) for f, ps in c2] + [(f, ps, o) for f, ps in c3 for o in (False, True)]
    for family, params, order_le_4 in cases:
        got = list(enumerate_signatures(family, params, order_le_4))
        assert got == list(_validated(family, params, order_le_4)), (family, params, order_le_4)


_OVER_BUDGET = [
    (SigFamily.SU_N, (70,)),
    (SigFamily.SO_N, (10**9,)),
    (SigFamily.SOSTAR_2N, (14,)),
    (SigFamily.SU_PQ, (30, 40)),
    (SigFamily.SP_PQ, (1, 10**6)),
]


def test_oracle_refuses_enumerations_over_budget():
    start = time.monotonic()
    for fam, params in _OVER_BUDGET:
        assert _candidate_count(fam, params) == ENUMERATION_BUDGET + 1, (fam, params)
        with pytest.raises(OutOfDomain, match=str(ENUMERATION_BUDGET)):
            oracle_max(fam, params)
    assert time.monotonic() - start < 1.0
    # the largest sizes the acceptance suite enumerates stay under the budget
    assert _candidate_count(SigFamily.SOSTAR_2N, (10,)) <= ENUMERATION_BUDGET
    assert _candidate_count(SigFamily.SP_PQ, (5, 5)) <= ENUMERATION_BUDGET


def test_enumeration_refuses_sizes_over_budget():
    # su(50) once built its whole 204,226-entry table (5 s, 144 MB) before
    # yielding its first signature
    start = time.monotonic()
    for fam, params in _OVER_BUDGET:
        for order_le_4 in (False, True):
            signatures = enumerate_signatures(fam, params, order_le_4)
            with pytest.raises(OutOfDomain, match=str(ENUMERATION_BUDGET)):
                next(signatures)
    assert time.monotonic() - start < 1.0


def test_negative_sizes_enumerate_nothing():
    for fam in SigFamily:
        two = fam in (SigFamily.SO_PQ, SigFamily.SU_PQ, SigFamily.SP_PQ)
        for params in [(-1, 2), (2, -1), (-3, -3)] if two else [(-1,), (-5,)]:
            assert list(enumerate_signatures(fam, params)) == [], (fam, params)


def _reference_table(family, p, q, order_le_4):
    """The tagged angle multisets filling (p, q) (so*: of total p), from
    combinations of the nonzero pairs, in descending block-tuple order."""
    su = family in (SigFamily.SU_N, SigFamily.SU_PQ)
    tags = ((1, -1) if su else ()) + tuple(range(2, p + q + 2))
    if order_le_4:
        tags = tags[: 4 if su else 1]
    so_star = family is SigFamily.SOSTAR_2N
    pairs = [(a, b) for a in range(p + 1) for b in range(p + 1 - a if so_star else q + 1)]
    pairs = sorted((pair for pair in pairs if pair != (0, 0)), reverse=True)
    table = []
    for k in range(min(len(tags), p + q) + 1):
        for combo in combinations_with_replacement(pairs, k):
            sums = [sum(a for a, _ in combo), sum(b for _, b in combo)]
            if (sum(sums) == p) if so_star else (sums == [p, q]):
                table.append(tuple((t, a, b) for t, (a, b) in zip(tags, combo)))
    return sorted(table, reverse=True)


def test_angle_tables_match_reference():
    one = (SigFamily.SO_N, SigFamily.SU_N, SigFamily.SP_N_COMPACT, SigFamily.SOSTAR_2N)
    sizes = [(family, n, 0) for family in one for n in range(6)]
    two = (SigFamily.SO_PQ, SigFamily.SU_PQ, SigFamily.SP_PQ)
    sizes += [(family, p, q) for family in two for p in range(6) for q in range(6 - p)]
    for family, p, q in sizes:
        for order_le_4 in (False, True):
            table = list(_angle_blocks(family, p, q, order_le_4, _StepLists()))
            want = _reference_table(family, p, q, order_le_4)
            assert table == want, (family, p, q, order_le_4)


def test_enumeration_leaves_no_reference_cycles():
    # a table kept alive by a cycle lives until the cyclic collector runs,
    # which shows in peak RSS; every table must be freed by refcount alone
    cases = [
        (SigFamily.SO_N, (7,)),
        (SigFamily.SU_N, (6,)),
        (SigFamily.SU_PQ, (2, 3)),
        (SigFamily.SP_PQ, (2, 3)),
        (SigFamily.SOSTAR_2N, (6,)),
    ]
    gc.collect()
    gc.disable()
    try:
        for family, params in cases:
            oracle_max(family, params)
            for _ in enumerate_signatures(family, params):
                pass
        assert gc.collect() == 0
    finally:
        gc.enable()


def _reference_max(family, params):
    return max((signature_dim(s), s.blocks) for s in enumerate_signatures(family, params))


def test_oracle_max_matches_brute_force_reference():
    cases = [(SigFamily.SO_N, (n,)) for n in range(3, 11)]
    cases += [(SigFamily.SU_N, (n,)) for n in range(2, 11)]
    cases += [(SigFamily.SOSTAR_2N, (n,)) for n in range(2, 9)]
    for p in range(1, 5):
        for q in range(p, 9 - p):
            if p + q >= 3:
                cases += [(SigFamily.SU_PQ, (p, q)), (SigFamily.SP_PQ, (p, q))]
    for family, params in cases:
        value, witness = oracle_max(family, params)
        want_value, want_blocks = _reference_max(family, params)
        assert (value, witness.blocks) == (want_value, want_blocks), (family, params)
        assert witness == Signature(family, params, want_blocks)


# bounded sizes with n <= 40 or p + q <= 16 within ENUMERATION_BUDGET
CAPPED_WALK_SIZES = 208


def _best_pairs(p, q, cap_a, cap_b, need, term, total, memo):
    """The best (dim, pairs) among the multisets that `_steps` walks from
    (p, q) under the cap (cap_a, cap_b), with at least need pairs; dim
    adds term(a, b) once per pair, and ties go to the largest tuple.  None
    when no multiset qualifies.

    First pairs run in descending order and differ, so the first to reach
    the best dimension is the largest tuple among those that do.  memo
    holds each state's answer."""
    if cap_a > p:  # a <= p < cap_a: only the shape bounds the first pair
        cap_a, cap_b = p, max(p, q)
    if need == 1 and (p or q):  # a nonempty fill has a pair
        need = 0
    key = (p, q, cap_a, cap_b, need)
    if key in memo:
        return memo[key]
    best = None if p or q or need else (0, ())
    for a, b, rest_p, rest_q in centralizers._steps(p, q, cap_a, cap_b, total):
        rest = _best_pairs(rest_p, rest_q, a, b, need - 1 if need else 0, term, total, memo)
        if rest is not None:
            d = term(a, b) + rest[0]
            if best is None or d > best[0]:
                best = d, ((a, b),) + rest[1]
    memo[key] = best
    return best


def _capped_walk_max(family, params):
    """(dim, blocks) of `oracle_max` by a capped walk: for each +-1 prefix,
    `_best_pairs` finds the best angle multiset, memoised on (remainder,
    cap, pairs still needed) within one call, and the largest block tuple
    wins a tie."""
    row = centralizers._ROWS[family]
    total = family is SigFamily.SOSTAR_2N
    memo = {}
    best_dim, best = -1, ()
    for prefix, (rp, rq) in _prefixes(family, params):
        found = _best_pairs(rp, rq, rp, rq, max(2 - len(prefix), 0), row.angle, total, memo)
        if found is None:
            continue
        d = row.centre + found[0] + sum(row.real(a, b) for _, a, b in prefix)
        if d >= best_dim:
            tags = centralizers._angle_tags(family, rp, rq)
            blocks = prefix + tuple((t, a, b) for t, (a, b) in zip(tags, found[1]))
            if d > best_dim or blocks > best:
                best_dim, best = d, blocks
    return best_dim, best


def test_oracle_max_matches_the_capped_walk_on_every_bounded_size_in_budget():
    # the value table against the walk it replaced: the same maximum and
    # the same witness blocks on every bounded family's sizes within the
    # budget, n <= 40 and p + q <= 16
    one = ((SigFamily.SO_N, 3), (SigFamily.SU_N, 2), (SigFamily.SOSTAR_2N, 2))
    cases = [(family, (n,)) for family, least in one for n in range(least, 41)]
    two = (SigFamily.SU_PQ, SigFamily.SP_PQ)
    cases += [(family, (p, q)) for family in two for p in range(1, 9) for q in range(p, 17 - p) if p + q >= 3]
    checked = 0
    for family, params in cases:
        if _candidate_count(family, params) > ENUMERATION_BUDGET:
            continue
        value, witness = oracle_max(family, params)
        assert (value, witness.blocks) == _capped_walk_max(family, params), (family, params)
        checked += 1
    assert checked == CAPPED_WALK_SIZES


def test_oracle_max_refuses_a_run_set_with_no_non_central_class(monkeypatch):
    # every size in `bound`'s domain has a non-central class, so no run
    # reaching the maximum is a bug: here the one run is a central class
    monkeypatch.setattr(centralizers, "_prefixes", lambda family, params: iter([(((1, 3, 0),), (0, 0))]))
    with pytest.raises(OracleInvariantError, match="no non-central classes"):
        oracle_max(SigFamily.SO_N, (3,))


def test_oracle_max_walk_refuses_a_table_it_cannot_reach(monkeypatch):
    # a table that overstates the top remainder's value leaves the witness
    # walk no first pair that reaches it
    value_table = centralizers._value_table

    def overstated(family, p, q):
        table = value_table(family, p, q)
        table[p][q] = tuple(v + 1 for v in table[p][q])
        return table

    monkeypatch.setattr(centralizers, "_value_table", overstated)
    with pytest.raises(OracleInvariantError, match="no pair under"):
        oracle_max(SigFamily.SU_N, (3,))


def _reference_refuses(s):
    """Whether `_validate` refused s before its one fill rule: the block
    checks, then the five per-family fill branches.  Tags, types and block
    count are valid in every signature the tests below build."""
    blocks = s.blocks
    for t, mp, mm in blocks:
        if mp < 0 or mm < 0 or (mp, mm) == (0, 0):
            return True
        if s.family in (SigFamily.SO_N, SigFamily.SU_N, SigFamily.SP_N_COMPACT) and mm != 0:
            return True
        if s.family is SigFamily.SOSTAR_2N and t in (1, -1) and mm != 0:
            return True
    if s.family is SigFamily.SO_N:
        (n,) = s.params
        return sum(mp if t in (1, -1) else 2 * mp for t, mp, _ in blocks) != n
    if s.family in (SigFamily.SU_N, SigFamily.SP_N_COMPACT):
        (n,) = s.params
        return sum(mp for _, mp, _ in blocks) != n
    if s.family is SigFamily.SO_PQ:
        p, q = s.params
        tp = sum(mp if t in (1, -1) else 2 * mp for t, mp, _ in blocks)
        tq = sum(mm if t in (1, -1) else 2 * mm for t, _, mm in blocks)
        return (tp, tq) != (p, q)
    if s.family in (SigFamily.SU_PQ, SigFamily.SP_PQ):
        p, q = s.params
        return (sum(mp for _, mp, _ in blocks), sum(mm for _, _, mm in blocks)) != (p, q)
    (n,) = s.params
    return sum(mp + mm for _, mp, mm in blocks) != n


def _reference_compact_dim(s):
    """`signature_compact_dim` without the rows' compact parts: one
    hand-written polynomial per indefinite family, for a signature
    `_validate` accepts."""
    fam, blocks = s.family, s.blocks
    if fam is SigFamily.SO_PQ:
        return sum(
            mp * (mp - 1) // 2 + mm * (mm - 1) // 2 if t in (1, -1) else mp * mp + mm * mm
            for t, mp, mm in blocks
        )
    if fam is SigFamily.SU_PQ:
        return sum(mp * mp + mm * mm for _, mp, mm in blocks) - 1
    if fam is SigFamily.SP_PQ:
        return sum(
            mp * (2 * mp + 1) + mm * (2 * mm + 1) if t in (1, -1) else mp * mp + mm * mm
            for t, mp, mm in blocks
        )
    if fam is SigFamily.SOSTAR_2N:
        return sum(mp * mp if t in (1, -1) else mp * mp + mm * mm for t, mp, mm in blocks)
    return OutOfDomain


def _outcome(fn, s):
    try:
        return fn(s)
    except (InvalidSignature, OutOfDomain) as exc:
        return type(exc)


def _perturbed(s):
    """s, and s with one multiplicity its block carries moved by one, each
    way (definite blocks and so*'s +-1 blocks carry mult_plus alone)."""
    yield s
    for i, (t, mp, mm) in enumerate(s.blocks):
        moved = [(t, mp + 1, mm), (t, mp - 1, mm)]
        if len(s.params) == 2 or s.family is SigFamily.SOSTAR_2N and t not in (1, -1):
            moved += [(t, mp, mm + 1), (t, mp, mm - 1)]
        for block in moved:
            yield Signature(s.family, s.params, s.blocks[:i] + (block,) + s.blocks[i + 1 :])


def test_fill_and_compact_rules_match_the_per_family_reference():
    # every signature enumerated at n <= 7 and p + q <= 6, each with its
    # one-multiplicity perturbations, gets the same value or the same
    # refusal class.  Classes with several angle blocks are enumerated only
    # where angle blocks are two wide (so(n), so(p,q)); elsewhere one angle
    # class fills as much as several of the same total, and the full sets
    # of so*(14) and sp(p,q) would take the test past 1 s
    one = (SigFamily.SO_N, SigFamily.SU_N, SigFamily.SP_N_COMPACT, SigFamily.SOSTAR_2N)
    sizes = [(family, (n,)) for family in one for n in range(1, 8)]
    two = (SigFamily.SO_PQ, SigFamily.SU_PQ, SigFamily.SP_PQ)
    sizes += [(family, (p, q)) for family in two for p in range(1, 6) for q in range(1, 7 - p)]
    several_angles = (SigFamily.SO_N, SigFamily.SO_PQ)
    cases = {
        s
        for family, params in sizes
        for base in enumerate_signatures(family, params, family not in several_angles)
        for s in _perturbed(base)
    }
    tally = Counter()
    for s in cases:
        if _reference_refuses(s):
            want = (InvalidSignature, InvalidSignature)
        else:
            want = (centralizers._dim(s), _reference_compact_dim(s))
        assert (_outcome(signature_dim, s), _outcome(signature_compact_dim, s)) == want, s
        tally[want[1] if isinstance(want[1], type) else int] += 1
    assert dict(tally) == {int: 1477, OutOfDomain: 196, InvalidSignature: 10817}


def test_oracle_max_rechecks_its_witness(monkeypatch):
    monkeypatch.setattr(centralizers, "signature_dim", lambda s: 0)
    with pytest.raises(OracleInvariantError):
        oracle_max(SigFamily.SU_N, (3,))
