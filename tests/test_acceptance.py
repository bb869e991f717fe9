"""Acceptance gate: seven criteria, one test (and one PASS line) each.

Every expected number below is an exact integer; no tolerances anywhere.
"""

import json
import time
from collections import Counter

import pytest

from liecheck import algebras as al
from liecheck import cli
from liecheck import matrixoracle as mo
from liecheck import verify as vf
from liecheck.algebras import Family
from liecheck.centralizers import (
    SigFamily,
    bound,
    enumerate_signatures,
    oracle_max,
    signature_compact_dim,
    signature_dim,
)
from liecheck.matrixoracle import from_signature, matrix_fixed_dims

# (dim_compact, dim_subgroup, rk_compact, rk_subgroup) per complex family
TABLE_MAXIMAL_RANK = {
    "g2(C)": (14, 6, 2, 2),
    "f4(C)": (52, 36, 4, 4),
    "e6(C)": (78, 46, 6, 6),
    "e7(C)": (133, 63, 7, 7),
    "e8(C)": (248, 120, 8, 8),
}

# (dim_s, dim_s_restricted, rk_compact_restricted, rk_r) per real form
TABLE_RESTRICTED = {
    "e6(6)": (42, 16, 4, 6),
    "e6(2)": (40, 20, 6, 4),
    "e6(-14)": (32, 20, 6, 2),
    "e6(-26)": (26, 12, 4, 2),
    "e7(7)": (70, 40, 7, 7),
    "e7(-5)": (64, 32, 7, 4),
    "e7(-25)": (54, 24, 7, 3),
    "e8(8)": (128, 56, 8, 8),
    "e8(-24)": (112, 56, 8, 4),
    "g2(2)": (8, 4, 2, 2),
    "f4(4)": (28, 20, 4, 4),
}


def test_criterion_1_table_reproduction(tmp_path):
    out = tmp_path / "atlas.json"
    start = time.monotonic()
    assert cli.main(["export", "--out", str(out)]) == 0
    elapsed = time.monotonic() - start
    payload = json.loads(out.read_text())

    got10 = {
        r["algebra"]: (r["dim_compact"], r["dim_subgroup"], r["rk_compact"], r["rk_subgroup"])
        for r in payload["maximal_rank_pairs"]
    }
    assert got10 == TABLE_MAXIMAL_RANK

    got12 = {
        r["algebra"]: (r["dim_s"], r["dim_s_restricted"], r["rk_compact_restricted"], r["rk_r"])
        for r in payload["restricted_forms"]
    }
    assert got12 == TABLE_RESTRICTED
    assert len(payload["restricted_forms"]) == 11
    assert elapsed < 1.0, elapsed
    print("[criterion 1] table reproduction, exact and under 1 s: PASS")


def test_criterion_2_bound_vs_oracle():
    start = time.monotonic()
    cases = []
    for n in range(3, 13):
        cases.append((SigFamily.SO_N, (n,)))
    for n in range(2, 13):
        cases.append((SigFamily.SU_N, (n,)))
    for p in range(1, 10):
        for q in range(p, 11 - p):
            if p + q >= 3:
                cases.append((SigFamily.SU_PQ, (p, q)))
                cases.append((SigFamily.SP_PQ, (p, q)))
    for n in range(2, 11):
        cases.append((SigFamily.SOSTAR_2N, (n,)))

    for family, params in cases:
        value, witness = oracle_max(family, params)
        assert value == bound(family, params), (family, params, value)
        # documented witness: one class of multiplicity total - 1, one of 1
        total = sum(m_plus + m_minus for _, m_plus, m_minus in witness.blocks)
        mults = sorted(m_plus + m_minus for _, m_plus, m_minus in witness.blocks)
        assert len(witness.blocks) == 2 and mults == [1, total - 1], (family, params)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, elapsed
    print("[criterion 2] bound equals oracle on %d cases under 1 s: PASS" % len(cases))


def test_criterion_3_dual_oracle_agreement():
    start = time.monotonic()
    pairs = []
    for p in range(1, 8):
        for q in range(p, 9 - p):
            pairs.append((SigFamily.SO_PQ, (p, q)))
            pairs.append((SigFamily.SU_PQ, (p, q)))
    for n in range(2, 7):
        pairs.append((SigFamily.SOSTAR_2N, (n,)))

    checked = 0
    for family, params in pairs:
        for s in enumerate_signatures(family, params, order_le_4=True):
            got = matrix_fixed_dims(from_signature(s))
            assert got.dim_s_fixed == signature_dim(s), s
            assert got.dim_centralizer_k == signature_compact_dim(s), s
            checked += 1
    elapsed = time.monotonic() - start
    assert checked > 1000
    assert elapsed < 8.0, elapsed
    print("[criterion 3] combinatorial and matrix oracles agree on %d classes under 8 s: PASS" % checked)


def test_criterion_4_full_sweep():
    start = time.monotonic()
    rep = vf.sweep("all", 32)
    elapsed = time.monotonic() - start
    assert rep.passed and not rep.failures

    expected = Counter()
    for a in al.iter_noncompact_simple(32):
        if a.family is Family.SL_R and a.params[0] >= 3:
            expected[al.render(a)] += 1
        elif a.family is Family.SO and a.params[0] >= 2:
            expected[al.render(a)] += 2 if a.params == (3, 3) else 1
    got = Counter(al.render(c.algebra) for c in rep.flagged)
    assert got == expected

    for c in rep.flagged:
        assert c.passed and c.margin == 0
        if c.algebra.family is Family.SL_R:
            n = c.algebra.params[0]
            assert al.render(al.direct_sum(al.algebra(Family.SL_R, n - 1), al.SPLIT_LINE)) in c.witness
        else:
            p, q = c.algebra.params
            drop = al.render(al.algebra(Family.SO, p, q - 1))
            alt = al.render(al.direct_sum(al.algebra(Family.SL_R, p), al.SPLIT_LINE))
            assert drop in c.witness or (p == q and alt in c.witness)
    assert elapsed < 4.0, elapsed
    print(
        "[criterion 4] full sweep passes with the exact equality set (%d flags) under 4 s: PASS"
        % len(rep.flagged)
    )


def test_criterion_5_arithmetic_spot_checks():
    assert "8 < 14" in vf.check_maximal_rank_pair(al.simple(Family.G2_C)).witness
    assert "43 < 46" in vf.check_maximal_rank_pair(al.simple(Family.E6_C)).witness
    assert "42 < 56 - 8" in vf.check_restricted_form(al.simple(Family.E8_8)).witness
    for n in range(3, 11):
        results = vf.check_involutions(al.simple(Family.SP_R, n))
        assert min(r.margin for r in results) == n - 2 > 0
    rep = vf.check_semisimple([al.simple(Family.SL_R, 3)] * 2)
    assert rep.naive_fixed_dim == 8 and rep.naive_bound == 6 and rep.naive_exceeds
    assert rep.naive_fixed_dim < rep.dim_s == 10
    print("[criterion 5] arithmetic spot checks: PASS")


def test_criterion_6_g22_special_case():
    rep = mo.g22_case()
    assert rep.quarter_turn.dim_centralizer_g == 7  # exact kernel computation
    assert rep.counted_centralizer_dim == 6  # recorded side by side, not forced
    assert rep.chain_upper_bound == rep.quarter_turn.dim_centralizer_g - rep.compact_centralizer_dim == 5
    assert rep.strict_target == 6
    assert rep.quarter_turn.dim_s_fixed < 6
    case = vf.check_restricted_form(al.simple(Family.G2_2))
    assert case.passed and case.margin == 1  # the verifier's own verdict
    print("[criterion 6] split rank-two quarter-turn: exact kernel, dim S^A < 6: PASS")


def test_criterion_7_vcd_calculator():
    checked = 0
    for a in al.iter_noncompact_simple(32):
        d = al.dims(a)
        previous = None
        for rk_q in range(d.rk_r + 1):
            res = vf.vcd([a], rk_q)
            assert res.vcd == d.dim_s - rk_q
            assert res.gd == res.vcd
            if previous is not None:
                assert res.vcd == previous - 1  # slope -1 in rk_q
            previous = res.vcd
            checked += 1
    with pytest.raises(vf.RankBoundViolated):
        vf.vcd([al.simple(Family.SL_R, 3)] * 2, 3, irreducible=True)
    print("[criterion 7] vcd = dim S - rk_q on %d points, rejection fires: PASS" % checked)
