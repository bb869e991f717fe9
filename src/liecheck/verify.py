"""Strict-gap verification for fixed-point sets of finite solvable actions.

Every route reduces to integer arithmetic on catalog data.  For a
noncompact simple algebra the quantity to beat is ``dim S - rk_R``: the
check computes the largest dimension a relevant fixed-point set can have,
subtracts it from that target, and records the arithmetic in a human
readable witness string.  A positive margin means the case is settled
strictly; a zero margin is accepted only on the documented equality
routes.

Routes
------
``rank1``
    Real rank one.  The bound holds on general grounds, so the case
    passes regardless of the margin; the margin is still reported
    honestly (it is 0 for the hyperbolic families, where the largest
    involution fixed set meets ``dim S - 1`` exactly).
``berger_involution``
    One instantiated row of the involution classification, compared
    against the target dimension.
``equality_case``
    An involution row that meets the target exactly and is one of the
    known equality witnesses; reported as a pass with a flag.
``maximal_rank_pair``
    Complex exceptional algebras: inner automorphism classes are
    controlled through a maximal rank subgroup of the compact form and a
    centralizer dimension bound.
``restricted_form``
    Real exceptional algebras of rank at least two: inner classes land in
    a distinguished noncompact subgroup whose unitary-type description
    carries an explicit centralizer bound.
``triality``
    The two algebras with triality outer classes; order-3 fixed sets are
    checked in addition to the involution rows.
"""

from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional

from . import involutions as inv
from . import matrixoracle as mo
from .algebras import (
    COMPACT_LINE,
    COMPLEX_EXCEPTIONAL,
    SPLIT_LINE,
    Family,
    OutOfDomain,
    ReductiveAlgebra,
    SimpleAlgebra,
    algebra,
    complexify,
    dims,
    direct_sum,
    is_compact,
    is_complex,
    iter_noncompact_simple,
    max_compact,
    reductive_dims,
    render,
    require_max_param,
    simple,
)
from .centralizers import SigFamily, bound


class MissingTableRow(LookupError):
    """No classification row is on file for the requested algebra."""


class NeedsTrialityRoute(Exception):
    """The algebra has order-3 outer classes; use ``check_triality``."""


class RankBoundViolated(ValueError):
    """The requested rational rank exceeds what a lattice can have."""


class IsotypyViolated(ValueError):
    """Irreducible lattices need all factors of the same complex type."""


class TooFewFactors(ValueError):
    """The requested check needs more factors than were supplied."""


ROUTE_RANK1 = "rank1"
ROUTE_BERGER = "berger_involution"
ROUTE_EQUALITY = "equality_case"
ROUTE_MAXIMAL_RANK = "maximal_rank_pair"
ROUTE_RESTRICTED = "restricted_form"
ROUTE_TRIALITY = "triality"


@dataclass(frozen=True, slots=True)
class CaseResult:
    """Outcome of one route applied to one algebra.

    ``margin`` is target minus fixed-set dimension; ``passed`` is
    ``margin > 0`` except on the ``rank1`` route (always true) and the
    ``equality_case`` route (true at margin zero, by design).
    """

    algebra: SimpleAlgebra
    route: str
    margin: int
    witness: str
    passed: bool


@dataclass(frozen=True)
class VcdResult:
    dim_s: int
    rk_q: int
    vcd: int
    gd: int
    irreducible: bool
    cocompact: bool


@dataclass(frozen=True)
class SemisimpleReport:
    """Product-level margins for a semisimple algebra.

    ``product_bound`` sums the per-factor strict bounds; the summed bound
    beats the naive one (``naive_fixed_dim`` may exceed ``naive_bound``,
    which is why the per-factor argument cannot be shortcut).  The swap
    fields cover involutions exchanging two isomorphic factors.
    """

    factors: tuple
    dim_s: int
    rk_total: int
    rk_min: int
    product_bound: int
    product_margin: int
    naive_fixed_dim: int
    naive_bound: int
    naive_exceeds: bool
    swap_fixed_dim: Optional[int]
    swap_margin: Optional[int]
    passed: bool


@dataclass(frozen=True)
class SweepReport:
    scope: str
    max_param: int
    cases: tuple
    products: tuple
    flagged: tuple
    failures: tuple
    passed: bool


def _require_simple(a):
    if not isinstance(a, SimpleAlgebra):
        raise TypeError("expected a simple algebra, got %r" % (a,))


def rank1_shortcut(a: SimpleAlgebra) -> Optional[CaseResult]:
    """Settle a real rank one algebra, or return None if the rank is not 1."""
    _require_simple(a)
    d = dims(a)
    if d.rk_r != 1:
        return None
    best, top = inv.max_fixed_dim(a)
    witness = "real rank one: largest involution fixed set %s (dim %d vs dim S - 1 = %d)" % (
        render(top.isotropy),
        best,
        d.dim_s - 1,
    )
    return CaseResult(a, ROUTE_RANK1, d.dim_s - 1 - best, witness, True)


def _subgroup_dims(parts, torus: int) -> tuple:
    """(dim H, rk H) from the catalog values of the compact summands of H."""
    ds = [reductive_dims(algebra(mo.SIG_AMBIENT[sf], *ps)) for sf, ps in parts]
    return torus + sum(d.dim_g for d in ds), torus + sum(d.rk_cpt for d in ds)


# Maximal rank subgroups H of the compact form K, one per complex
# exceptional family, with the summands of H that carry a centralizer
# bound and the dimension of the central torus.
_MAXIMAL_RANK_PAIRS = {
    Family.G2_C: ("so(4)", ((SigFamily.SO_N, (4,)),), 0),
    Family.F4_C: ("so(9)", ((SigFamily.SO_N, (9,)),), 0),
    Family.E6_C: ("u(1)+so(10)", ((SigFamily.SO_N, (10,)),), 1),
    Family.E7_C: ("su(8)", ((SigFamily.SU_N, (8,)),), 0),
    Family.E8_C: ("so(16)", ((SigFamily.SO_N, (16,)),), 0),
}


def check_maximal_rank_pair(a: SimpleAlgebra) -> CaseResult:
    """Inner-class margin for a complex exceptional algebra.

    Semisimple automorphisms of the compact form are conjugate into a
    maximal rank subgroup H, so centralizer dimensions are capped twice:
    once by dim H against dim K, once by the unitary-type centralizer
    bound inside H.  Both inequalities must hold with room to spare by at
    least rk.
    """
    _require_simple(a)
    pair = _MAXIMAL_RANK_PAIRS.get(a.family)
    if pair is None:
        raise MissingTableRow(render(a))
    label, parts, torus = pair
    d = dims(a)
    dim_h, rk_h = _subgroup_dims(parts, torus)
    if rk_h != d.rk_cpt:
        raise AssertionError("%s row is not maximal rank" % label)
    rk = d.rk_r
    part_bounds = [bound(sf, ps) for sf, ps in parts]
    bound_total = torus + sum(part_bounds) + rk
    bound_terms = ([str(torus)] if torus else []) + [str(b) for b in part_bounds] + [str(rk)]
    margin = min(d.dim_k - dim_h - rk, dim_h - bound_total)
    witness = (
        "maximal rank pair %s inside the compact form: dim H + rk = %d + %d = %d < %d = dim K; "
        "centralizer bound %s = %d < %d = dim H"
        % (label, dim_h, rk, dim_h + rk, d.dim_k, " + ".join(bound_terms), bound_total, dim_h)
    )
    return CaseResult(a, ROUTE_MAXIMAL_RANK, margin, witness, margin > 0)


class _RestrictedRow(NamedTuple):
    family: Family
    g_bar: ReductiveAlgebra
    g_label: str
    k_label: str
    bound_spec: object  # (SigFamily, params) | "recursive" | None


_RESTRICTED_ROWS_DATA = (
    _RestrictedRow(
        Family.E6_6, algebra(Family.SP, 2, 2), "sp(2,2)", "sp(2)+sp(2)", (SigFamily.SP_PQ, (2, 2))
    ),
    _RestrictedRow(
        Family.E6_2,
        direct_sum(algebra(Family.SO_STAR, 5), COMPACT_LINE),
        "so*(10)+so(2)",
        "u(5)+so(2)",
        (SigFamily.SOSTAR_2N, (5,)),
    ),
    _RestrictedRow(
        Family.E6_M14,
        direct_sum(algebra(Family.SO_STAR, 5), COMPACT_LINE),
        "so*(10)+so(2)",
        "u(5)+so(2)",
        (SigFamily.SOSTAR_2N, (5,)),
    ),
    _RestrictedRow(
        Family.E6_M26, algebra(Family.SP, 1, 3), "sp(1,3)", "sp(1)+sp(3)", (SigFamily.SP_PQ, (1, 3))
    ),
    _RestrictedRow(
        Family.E7_7,
        direct_sum(algebra(Family.E6_2), COMPACT_LINE),
        "e6(2)+so(2)",
        "su(6)+su(2)+so(2)",
        "recursive",
    ),
    _RestrictedRow(
        Family.E7_M5,
        algebra(Family.SU, 4, 4),
        "su(4,4)",
        "s(u(4)+u(4))",
        (SigFamily.SU_PQ, (4, 4)),
    ),
    _RestrictedRow(
        Family.E7_M25,
        algebra(Family.SU, 2, 6),
        "su(2,6)",
        "s(u(2)+u(6))",
        (SigFamily.SU_PQ, (2, 6)),
    ),
    _RestrictedRow(
        Family.E8_8, algebra(Family.SO_STAR, 8), "so*(16)", "u(8)", (SigFamily.SOSTAR_2N, (8,))
    ),
    _RestrictedRow(
        Family.E8_M24, algebra(Family.SO_STAR, 8), "so*(16)", "u(8)", (SigFamily.SOSTAR_2N, (8,))
    ),
    _RestrictedRow(
        Family.G2_2,
        direct_sum(algebra(Family.SL_R, 2), algebra(Family.SL_R, 2)),
        "sl(2,R)+sl(2,R)",
        "so(2)+so(2)",
        None,
    ),
    _RestrictedRow(Family.F4_4, algebra(Family.SO, 4, 5), "so(4,5)", "s(o(4)+o(5))", None),
)

_RESTRICTED_INDEX = {row.family: row for row in _RESTRICTED_ROWS_DATA}


def f44_equality_case() -> CaseResult:
    """Settle the split rank-four exceptional algebra by direct inspection.

    The bound through its restricted form meets the target with equality,
    so the case is decided at the source instead: semisimple classes meet
    the fixed set of the involution with witness diag(-I8, 1) there, and
    every involution fixed set of the ambient algebra stays strictly
    below the target.
    """
    a = simple(Family.F4_4)
    d = dims(a)
    target = d.dim_s - d.rk_r
    fixed_dims = sorted({i.space.dim_s for i in inv.instantiations(a)}, reverse=True)
    margin = target - fixed_dims[0]
    witness = (
        "witness diag(-I8, 1) inside s(o(4)+o(5)): restriction to so(4,5) meets the "
        "crude bound with equality, but the involution fixed sets have dim %s "
        "(compact class included), all below the target %d"
        % (", ".join(str(v) for v in fixed_dims), target)
    )
    return CaseResult(a, ROUTE_BERGER, margin, witness, margin > 0)


def check_restricted_form(a: SimpleAlgebra) -> CaseResult:
    """Inner-class margin for a real exceptional algebra of rank >= 2.

    Semisimple inner classes are conjugate into a distinguished noncompact
    subgroup; its unitary-type description carries an explicit centralizer
    dimension bound, which must clear the target with room rk twice over
    (once at the ambient level, once inside the subgroup).
    """
    _require_simple(a)
    row = _RESTRICTED_INDEX.get(a.family)
    if row is None:
        raise MissingTableRow(render(a))
    if a.family is Family.G2_2:
        rep = mo.g22_case()
        margin = rep.strict_target - rep.chain_upper_bound
        witness = (
            "restricted pair %s / %s: quarter-turn centralizer computed exactly, "
            "dim %d (counted %d); chain %d - %d = %d < %d"
            % (
                row.g_label,
                row.k_label,
                rep.quarter_turn.dim_centralizer_g,
                rep.counted_centralizer_dim,
                rep.quarter_turn.dim_centralizer_g,
                rep.compact_centralizer_dim,
                rep.chain_upper_bound,
                rep.strict_target,
            )
        )
        return CaseResult(a, ROUTE_RESTRICTED, margin, witness, rep.strict)
    if a.family is Family.F4_4:
        return f44_equality_case()
    d = dims(a)
    gd = reductive_dims(row.g_bar)
    if gd.rk_cpt != d.rk_cpt:
        raise AssertionError("%s row is not maximal rank" % row.g_label)
    rk = d.rk_r
    ds_bar = gd.dim_s
    if row.bound_spec == "recursive":
        # the subgroup is itself exceptional: reuse its own restricted row
        inner = _RESTRICTED_INDEX[Family.E6_2]
        inner_ds = reductive_dims(inner.g_bar).dim_s
        inner_bound = bound(*inner.bound_spec)
        fix_bound = ds_bar - (inner_ds - inner_bound)
        bound_text = "%d - (%d - %d) = %d" % (ds_bar, inner_ds, inner_bound, fix_bound)
    else:
        fix_bound = bound(*row.bound_spec)
        bound_text = str(fix_bound)
    margin = min(d.dim_s - rk - ds_bar, ds_bar - rk - fix_bound)
    witness = (
        "restricted pair %s / %s: %d < %d - %d = %d; fixed-dim bound %s < %d - %d = %d"
        % (
            row.g_label,
            row.k_label,
            ds_bar,
            d.dim_s,
            rk,
            d.dim_s - rk,
            bound_text,
            ds_bar,
            rk,
            ds_bar - rk,
        )
    )
    return CaseResult(a, ROUTE_RESTRICTED, margin, witness, margin > 0)


def _is_equality_witness(a: SimpleAlgebra, h: ReductiveAlgebra) -> bool:
    if a.family is Family.SL_R:
        n = a.params[0]
        return h == direct_sum(algebra(Family.SL_R, n - 1), SPLIT_LINE)
    if a.family is Family.SO:
        p, q = a.params
        if h == algebra(Family.SO, p, q - 1):
            return True
        return p == q and h == direct_sum(algebra(Family.SL_R, p), SPLIT_LINE)
    return False


def _involution_results(a: SimpleAlgebra) -> list:
    d = dims(a)
    target = d.dim_s - d.rk_r
    out = []
    for entry in inv.isotropy_entries(a):
        for h in entry.instances:
            fixed = reductive_dims(h).dim_s
            margin = target - fixed
            witness = "%s -> %s (fixed dim %d vs target %d)" % (
                entry.template,
                render(h),
                fixed,
                target,
            )
            if margin == 0 and _is_equality_witness(a, h):
                out.append(CaseResult(a, ROUTE_EQUALITY, 0, witness, True))
            else:
                out.append(CaseResult(a, ROUTE_BERGER, margin, witness, margin > 0))
    return out


def check_involutions(a: SimpleAlgebra) -> list:
    """Margins for every instantiated involution row of ``a``.

    Outer classes of order four (even orthogonal split signature) square
    into the involution set, so their fixed sets are contained in fixed
    sets already listed here; no separate route is needed.  The two
    algebras with order-3 outer classes are rejected towards
    ``check_triality``.
    """
    _require_simple(a)
    if a == simple(Family.SO_C, 8) or a == simple(Family.SO, 4, 4):
        raise NeedsTrialityRoute(render(a))
    return _involution_results(a)


def check_triality(a: SimpleAlgebra) -> list:
    """Involution margins plus the order-3 outer classes."""
    _require_simple(a)
    classes = inv.triality_classes(a)
    results = _involution_results(a)
    d = dims(a)
    target = d.dim_s - d.rk_r
    for cls in classes:
        fixed = reductive_dims(cls.fixed_algebra).dim_s
        margin = target - fixed
        witness = "order-%d class fixing %s (%s, fixed dim %d vs target %d)" % (
            cls.order,
            render(cls.fixed_algebra),
            cls.kind,
            fixed,
            target,
        )
        results.append(CaseResult(a, ROUTE_TRIALITY, margin, witness, margin > 0))
    return results


def verify_case(a: SimpleAlgebra) -> list:
    """All applicable routes for one algebra, rank-1 shortcut first."""
    shortcut = rank1_shortcut(a)
    if shortcut is not None:
        return [shortcut]
    try:
        results = check_involutions(a)
    except NeedsTrialityRoute:
        results = check_triality(a)
    if a.family in COMPLEX_EXCEPTIONAL:
        results.append(check_maximal_rank_pair(a))
    if a.family in _RESTRICTED_INDEX:
        results.append(check_restricted_form(a))
    return results


def vcd(factors, rk_q: int, irreducible: bool = False) -> VcdResult:
    """Virtual cohomological dimension of a lattice quotient.

    ``factors`` are the simple factors of the ambient algebra and
    ``rk_q`` the rational rank of the lattice.  The dimension equals
    ``dim S - rk_q`` and coincides with the geometric dimension; the
    quotient is cocompact exactly when ``rk_q`` is zero.  ``rk_q`` must be
    an ``int`` and ``irreducible`` a ``bool``; anything else (``1.5``,
    ``True`` as a rank, ``"no"`` as a flag) raises OutOfDomain.
    """
    if type(rk_q) is not int:
        raise OutOfDomain("rational rank must be an int, got %r" % (rk_q,))
    if type(irreducible) is not bool:
        raise OutOfDomain("irreducible must be a bool, got %r" % (irreducible,))
    factors = tuple(factors)
    if not factors:
        raise TooFewFactors("at least one simple factor is required")
    for a in factors:
        _require_simple(a)
        if is_compact(a):
            raise OutOfDomain("compact factor %s contributes no symmetric space" % render(a))
    ranks = [dims(a).rk_r for a in factors]
    if irreducible and len(factors) >= 2:
        first = complexify(factors[0])
        for a in factors[1:]:
            if complexify(a) != first:
                raise IsotypyViolated(
                    "an irreducible lattice needs isotypic factors; %s and %s "
                    "have different complexifications" % (render(factors[0]), render(a))
                )
        cap = min(ranks)
        reason = "the smallest factor real rank"
    else:
        cap = sum(ranks)
        reason = "the total real rank"
    if not 0 <= rk_q <= cap:
        raise RankBoundViolated(
            "rational rank %d is outside 0..%d (%s)" % (rk_q, cap, reason)
        )
    dim_s = sum(dims(a).dim_s for a in factors)
    value = dim_s - rk_q
    return VcdResult(dim_s, rk_q, value, value, irreducible, rk_q == 0)


def check_semisimple(factors) -> SemisimpleReport:
    """Product-level margins for a semisimple (multi-factor) algebra.

    The honest bound sums per-factor strict gaps; the naive single-factor
    estimate (fix everything except one factor) can exceed the summed
    target and is recorded to document why the per-factor route is
    necessary.  Swap involutions between isomorphic factors fix a
    diagonal and are checked separately.
    """
    factors = tuple(factors)
    if len(factors) < 2:
        raise TooFewFactors("a product check needs at least two simple factors")
    per = []
    for a in factors:
        _require_simple(a)
        if is_compact(a):
            raise OutOfDomain("compact factor %s contributes no symmetric space" % render(a))
        per.append(dims(a))
    dim_s = sum(d.dim_s for d in per)
    rk_total = sum(d.rk_r for d in per)
    rk_min = min(d.rk_r for d in per)
    product_bound = sum(d.dim_s - d.rk_r for d in per)
    product_margin = (dim_s - rk_min) - product_bound
    naive_fixed_dim = max(
        dim_s - per[i].dim_s + inv.max_fixed_dim(factors[i])[0] for i in range(len(factors))
    )
    naive_bound = dim_s - rk_total
    duplicated = {a for a in factors if factors.count(a) >= 2}
    if duplicated:
        swap_fixed_dim = dim_s - min(dims(a).dim_s for a in duplicated)
        swap_margin = (dim_s - rk_min) - swap_fixed_dim
    else:
        swap_fixed_dim = None
        swap_margin = None
    passed = (
        product_margin > 0
        and naive_fixed_dim < dim_s
        and (swap_margin is None or swap_margin > 0)
    )
    return SemisimpleReport(
        factors=factors,
        dim_s=dim_s,
        rk_total=rk_total,
        rk_min=rk_min,
        product_bound=product_bound,
        product_margin=product_margin,
        naive_fixed_dim=naive_fixed_dim,
        naive_bound=naive_bound,
        naive_exceeds=naive_fixed_dim > naive_bound,
        swap_fixed_dim=swap_fixed_dim,
        swap_margin=swap_margin,
        passed=passed,
    )


_SCOPES = ("complex", "real", "semisimple", "all")


def _product_demos(max_param: int):
    demos = [
        (simple(Family.SL_R, 2), simple(Family.SL_R, 2)),
        (simple(Family.SL_R, 3), simple(Family.SL_R, 3)),
        (simple(Family.SL_R, 3), simple(Family.SU, 1, 2)),
        (simple(Family.SL_R, 2), simple(Family.SO, 1, 4)),
    ]
    seen = set(demos)
    for a in iter_noncompact_simple(min(max_param, 8)):
        pair = (a, a)
        if pair not in seen:
            demos.append(pair)
            seen.add(pair)
    return demos


def _sorted_cases(a: SimpleAlgebra) -> list:
    cases = verify_case(a)
    cases.sort(key=lambda c: (c.route, -c.margin, c.witness))
    return cases


def iter_algebra_cases(scope: str = "all", max_param: int = 32) -> Iterator[tuple]:
    """Yield ``(algebra, cases)`` for every catalog algebra in ``scope``.

    The algebras come by rendered name and, within one algebra, its cases
    by route, then by decreasing margin, then by witness; rendered names
    are distinct, so this is the global order by (name, route, -margin,
    witness).  Each algebra is verified only when it is reached, so a
    caller that lets each list go holds one algebra's cases at a time.

    A scope outside ``complex``, ``real``, ``semisimple`` and ``all``
    raises ValueError, and ``max_param`` outside 2 to ``SIZE_LIMIT``
    raises OutOfDomain, both at the call rather than at the first item.
    """
    if scope not in _SCOPES:
        raise ValueError("scope must be one of %s" % ", ".join(_SCOPES))
    require_max_param(max_param)
    algebras = []
    if scope != "semisimple":
        algebras = [
            a
            for a in iter_noncompact_simple(max_param)
            if scope == "all" or is_complex(a) == (scope == "complex")
        ]
    algebras.sort(key=render)
    return ((a, _sorted_cases(a)) for a in algebras)


def product_checks(scope: str, max_param: int) -> tuple:
    """The product demos a sweep of ``scope`` checks: none unless the scope
    is ``semisimple`` or ``all``."""
    if scope not in ("semisimple", "all"):
        return ()
    return tuple(check_semisimple(pair) for pair in _product_demos(max_param))


def sweep(scope: str = "all", max_param: int = 32) -> SweepReport:
    """Run every applicable route over the catalog up to ``max_param``.

    This materializes ``iter_algebra_cases``: ``cases`` holds every case of
    every algebra, in its order.  ``max_param`` runs from 2 to
    ``SIZE_LIMIT``; other values raise OutOfDomain.
    """
    per_algebra = iter_algebra_cases(scope, max_param)
    cases = tuple(c for _, results in per_algebra for c in results)
    products = product_checks(scope, max_param)
    flagged = tuple(c for c in cases if c.route == ROUTE_EQUALITY)
    failures = tuple(c for c in cases if not c.passed)
    passed = not failures and all(p.passed for p in products)
    return SweepReport(scope, max_param, cases, products, flagged, failures, passed)


def maximal_rank_rows() -> list:
    """The compact maximal-rank pair table, recomputed from the catalog."""
    rows = []
    for fam, (label, parts, torus) in _MAXIMAL_RANK_PAIRS.items():
        a = simple(fam)
        d = dims(a)
        dim_h, rk_h = _subgroup_dims(parts, torus)
        rows.append(
            {
                "algebra": render(a),
                "compact_form": render(max_compact(a)),
                "subgroup": label,
                "dim_compact": d.dim_k,
                "dim_subgroup": dim_h,
                "rk_compact": d.rk_cpt,
                "rk_subgroup": rk_h,
            }
        )
    return rows


def restricted_rows() -> list:
    """The restricted-form table, recomputed from the catalog."""
    rows = []
    for row in _RESTRICTED_ROWS_DATA:
        a = simple(row.family)
        d = dims(a)
        gd = reductive_dims(row.g_bar)
        rows.append(
            {
                "algebra": render(a),
                "subgroup": row.g_label,
                "compact_subgroup": row.k_label,
                "dim_s": d.dim_s,
                "dim_s_restricted": gd.dim_s,
                "rk_compact_restricted": gd.rk_cpt,
                "rk_r": d.rk_r,
            }
        )
    return rows


def case_payload(c: CaseResult) -> dict:
    return {
        "algebra": render(c.algebra),
        "route": c.route,
        "margin": c.margin,
        "witness": c.witness,
        "passed": c.passed,
    }


__all__ = [
    "CaseResult",
    "IsotypyViolated",
    "MissingTableRow",
    "NeedsTrialityRoute",
    "RankBoundViolated",
    "SemisimpleReport",
    "SweepReport",
    "TooFewFactors",
    "VcdResult",
    "case_payload",
    "check_involutions",
    "check_maximal_rank_pair",
    "check_restricted_form",
    "check_semisimple",
    "check_triality",
    "f44_equality_case",
    "iter_algebra_cases",
    "maximal_rank_rows",
    "product_checks",
    "rank1_shortcut",
    "restricted_rows",
    "sweep",
    "vcd",
    "verify_case",
]
