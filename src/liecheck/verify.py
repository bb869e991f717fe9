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
    against the target dimension; a margin of 0 fails.
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
    The two algebras with triality outer classes, so(8,C) and so(4,4):
    `check_involutions` checks the fixed set of each order-3 class in
    addition to their involution rows.

Every route but ``rank1`` and ``equality_case`` passes exactly when its
margin is positive; `_passes` is the one statement of that rule.
"""

import gc
from collections.abc import Iterable
from itertools import chain, count, groupby, repeat, starmap
from operator import attrgetter
from typing import Iterator, NamedTuple, Optional

from . import involutions as inv
from . import matrixoracle as mo
from .algebras import (
    COMPLEX_EXCEPTIONAL,
    REAL_EXCEPTIONAL,
    SPLIT_LINE,
    Family,
    InputError,
    OutOfDomain,
    SimpleAlgebra,
    algebra,
    complexify,
    dims,
    direct_sum,
    is_compact,
    is_complex,
    iter_noncompact_simple,
    max_compact,
    parse_algebra,
    reductive_dims,
    render,
    require_ints,
    require_max_param,
    require_simple,
    simple,
)
from .centralizers import SIG_AMBIENT, OracleInvariantError, SigFamily, bound


class MissingTableRow(InputError, LookupError):
    """No classification row is on file for the requested algebra."""


class RankBoundViolated(InputError):
    """The requested rational rank exceeds what a lattice can have."""


class IsotypyViolated(InputError):
    """Irreducible lattices need all factors of the same complex type."""


class TooFewFactors(InputError):
    """The requested check needs more factors than were supplied."""


ROUTE_RANK1 = "rank1"
ROUTE_BERGER = "berger_involution"
ROUTE_EQUALITY = "equality_case"
ROUTE_MAXIMAL_RANK = "maximal_rank_pair"
ROUTE_RESTRICTED = "restricted_form"
ROUTE_TRIALITY = "triality"
ROUTES = (ROUTE_RANK1, ROUTE_BERGER, ROUTE_EQUALITY, ROUTE_MAXIMAL_RANK, ROUTE_RESTRICTED, ROUTE_TRIALITY)

# routes that pass whatever the margin: rank one on general grounds, and
# the documented equality witnesses at margin zero
_PASS_ANY_MARGIN = frozenset((ROUTE_RANK1, ROUTE_EQUALITY))


def _passes(route: str, margin: int) -> bool:
    """The pass rule: a positive margin, or a route in `_PASS_ANY_MARGIN`.

    For each route it is monotone in the margin: a case passes whenever a
    case of its route with a smaller margin does.
    """
    return margin > 0 or route in _PASS_ANY_MARGIN


class CaseResult(NamedTuple):
    """Outcome of one route applied to one algebra.

    ``margin`` is target minus fixed-set dimension.  ``passed`` is derived,
    never stored, by `_passes`: ``margin > 0``, or the route is ``rank1``
    (always true) or ``equality_case`` (true at margin zero, by design).
    A case compares, hashes and pickles as the tuple of its four fields.
    """

    algebra: SimpleAlgebra
    route: str
    margin: int
    witness: str

    @property
    def passed(self) -> bool:
        """``_passes(route, margin)``: the pass rule, stated once there."""
        return _passes(self.route, self.margin)


class VcdResult(NamedTuple):
    dim_s: int
    rk_q: int
    vcd: int
    gd: int
    irreducible: bool
    cocompact: bool


class SemisimpleReport(NamedTuple):
    """Product-level margins for a semisimple algebra.

    ``product_bound`` sums the per-factor strict bounds, dim S - rk_total;
    ``naive_bound`` restates it beside ``naive_fixed_dim``, which may
    exceed it (``naive_exceeds``): fixing all but one factor is no
    shortcut past the per-factor argument.  The swap fields cover
    involutions exchanging two isomorphic factors.  Every field is
    written by ``verify --json``.
    """

    factors: tuple
    dim_s: int
    product_bound: int
    product_margin: int
    naive_fixed_dim: int
    naive_bound: int
    naive_exceeds: bool
    swap_fixed_dim: Optional[int]
    swap_margin: Optional[int]
    passed: bool


class SweepReport(NamedTuple):
    scope: str
    max_param: int
    cases: tuple
    products: tuple
    flagged: tuple
    failures: tuple
    passed: bool
    route_counts: tuple
    worst_strict_margin: Optional[int]
    worst_at: tuple


def _noncompact_factors(factors) -> tuple:
    """`factors` as a tuple of noncompact simple algebras, else OutOfDomain."""
    if not isinstance(factors, Iterable):
        raise OutOfDomain("expected simple factors, got %s" % type(factors).__name__)
    factors = tuple(map(require_simple, factors))
    for a in factors:
        if is_compact(a):
            raise OutOfDomain("compact factor %s contributes no symmetric space" % render(a))
    return factors


def rank1_shortcut(a: SimpleAlgebra) -> Optional[CaseResult]:
    """Settle a real rank one algebra by `inv.max_fixed_dim`'s witness, or
    return None if the rank is not 1."""
    a = require_simple(a)
    d = dims(a)
    if d.rk_r != 1:
        return None
    best, _, label = inv.max_fixed_dim(a)
    witness = "real rank one: largest involution fixed set %s (dim %d vs dim S - 1 = %d)" % (
        label,
        best,
        d.dim_s - 1,
    )
    return CaseResult(a, ROUTE_RANK1, d.dim_s - 1 - best, witness)


def _subgroup_dims(parts, torus: int) -> tuple:
    """(dim H, rk H) from the catalog values of the compact summands of H."""
    ds = [reductive_dims(algebra(SIG_AMBIENT[sf], *ps)) for sf, ps in parts]
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
    a = require_simple(a)
    pair = _MAXIMAL_RANK_PAIRS.get(a.family)
    if pair is None:
        raise MissingTableRow(render(a))
    label, parts, torus = pair
    d = dims(a)
    dim_h, rk_h = _subgroup_dims(parts, torus)
    if rk_h != d.rk_cpt:
        raise OracleInvariantError("%s row is not maximal rank" % label)
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
    return CaseResult(a, ROUTE_MAXIMAL_RANK, margin, witness)


class _RestrictedRow(NamedTuple):
    g_label: str
    k_label: str
    bound_spec: object  # (SigFamily, params) | "recursive" | None


# The distinguished noncompact subgroup of each real exceptional algebra of
# rank >= 2: its catalog name (its value is `parse_algebra` of the name),
# its maximal compact as the source prints it, and its centralizer bound.
_RESTRICTED_INDEX = {
    Family.E6_6: _RestrictedRow("sp(2,2)", "sp(2)+sp(2)", (SigFamily.SP_PQ, (2, 2))),
    Family.E6_2: _RestrictedRow("so*(10)+so(2)", "u(5)+so(2)", (SigFamily.SOSTAR_2N, (5,))),
    Family.E6_M14: _RestrictedRow("so*(10)+so(2)", "u(5)+so(2)", (SigFamily.SOSTAR_2N, (5,))),
    Family.E6_M26: _RestrictedRow("sp(1,3)", "sp(1)+sp(3)", (SigFamily.SP_PQ, (1, 3))),
    Family.E7_7: _RestrictedRow("e6(2)+so(2)", "su(6)+su(2)+so(2)", "recursive"),
    Family.E7_M5: _RestrictedRow("su(4,4)", "s(u(4)+u(4))", (SigFamily.SU_PQ, (4, 4))),
    Family.E7_M25: _RestrictedRow("su(2,6)", "s(u(2)+u(6))", (SigFamily.SU_PQ, (2, 6))),
    Family.E8_8: _RestrictedRow("so*(16)", "u(8)", (SigFamily.SOSTAR_2N, (8,))),
    Family.E8_M24: _RestrictedRow("so*(16)", "u(8)", (SigFamily.SOSTAR_2N, (8,))),
    Family.G2_2: _RestrictedRow("sl(2,R)+sl(2,R)", "so(2)+so(2)", None),
    Family.F4_4: _RestrictedRow("so(4,5)", "s(o(4)+o(5))", None),
}


def f44_equality_case() -> CaseResult:
    """Settle the split rank-four exceptional algebra by direct inspection.

    The bound through its restricted form meets the target with equality,
    so the case is decided at the source instead: semisimple classes meet
    the fixed set of the involution with witness diag(-I8, 1) there, and
    every involution fixed set of the ambient algebra stays strictly
    below the target, by the dims its rows state.
    """
    a = simple(Family.F4_4)
    d = dims(a)
    target = d.dim_s - d.rk_r
    fixed_dims = sorted({x for e in inv.isotropy_entries(a) for x in e.dims_s}, reverse=True)
    margin = target - fixed_dims[0]
    witness = (
        "witness diag(-I8, 1) inside s(o(4)+o(5)): restriction to so(4,5) meets the "
        "crude bound with equality, but the involution fixed sets have dim %s "
        "(compact class included), all below the target %d"
        % (", ".join(str(v) for v in fixed_dims), target)
    )
    return CaseResult(a, ROUTE_BERGER, margin, witness)


def check_restricted_form(a: SimpleAlgebra) -> CaseResult:
    """Inner-class margin for a real exceptional algebra of rank >= 2.

    Semisimple inner classes are conjugate into a distinguished noncompact
    subgroup; its unitary-type description carries an explicit centralizer
    dimension bound, which must clear the target with room rk twice over
    (once at the ambient level, once inside the subgroup).  g2(2)'s bound is
    a chain formed here from the exact kernel dim of its quarter turn
    (`matrixoracle.g22_case`); f4(4) is settled by `f44_equality_case`.
    """
    a = require_simple(a)
    row = _RESTRICTED_INDEX.get(a.family)
    if row is None:
        raise MissingTableRow(render(a))
    if a.family is Family.G2_2:
        # the chain dim S^A <= dim C_g(A) - dim C_K(A) for the quarter turn:
        # the "- 2" is dim C_K(A), an SO(2) x SO(2) inside the SO(4)
        # isotropy, and "counted 6" the usual count of C_g(A) as
        # S(O(1,2) x U(1,1)), printed beside the exact kernel dim
        centralizer = mo.g22_case().dim_centralizer_g
        d = dims(a)
        target = d.dim_s - d.rk_r
        chain = centralizer - 2
        witness = (
            "restricted pair %s / %s: quarter-turn centralizer computed exactly, "
            "dim %d (counted 6); chain %d - 2 = %d < %d"
            % (
                row.g_label,
                row.k_label,
                centralizer,
                centralizer,
                chain,
                target,
            )
        )
        return CaseResult(a, ROUTE_RESTRICTED, target - chain, witness)
    if a.family is Family.F4_4:
        return f44_equality_case()
    d = dims(a)
    g_bar = parse_algebra(row.g_label)
    gd = reductive_dims(g_bar)
    if gd.rk_cpt != d.rk_cpt:
        raise OracleInvariantError("%s row is not maximal rank" % row.g_label)
    rk = d.rk_r
    ds_bar = gd.dim_s
    if row.bound_spec == "recursive":
        # the subgroup has one real exceptional factor: reuse its own
        # restricted row, which must carry a centralizer bound
        factors = [f for f in g_bar.simples if f.family in REAL_EXCEPTIONAL]
        inner = _RESTRICTED_INDEX.get(factors[0].family) if len(factors) == 1 else None
        if inner is None or not isinstance(inner.bound_spec, tuple):
            raise OracleInvariantError(
                "%s has no exceptional factor with a restricted row" % row.g_label
            )
        inner_ds = reductive_dims(parse_algebra(inner.g_label)).dim_s
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
    return CaseResult(a, ROUTE_RESTRICTED, margin, witness)


def _is_equality_witness(a: SimpleAlgebra, label: str) -> bool:
    """Whether the instance labelled ``label`` in a row of ``a`` is an
    equality witness: sl(n-1,R)+R in sl(n,R), so(p,q-1) in so(p,q), or
    gl(p,R) in so(p,p).  Row labels are ``render`` texts of canonical
    values, and ``render`` is injective on those, so comparing labels
    compares the instances."""
    if a.family is Family.SL_R:
        n = a.params[0]
        return label == render(direct_sum(algebra(Family.SL_R, n - 1), SPLIT_LINE))
    if a.family is Family.SO:
        p, q = a.params
        if label == render(algebra(Family.SO, p, q - 1)):
            return True
        return p == q and label == render(direct_sum(algebra(Family.SL_R, p), SPLIT_LINE))
    return False


# one int object per margin value, shared by every case that has it: the
# library `sweep` keeps its cases, and at max-param 48 about half of them
# have a margin above 256, past CPython's cached small ints.  The table
# holds one entry per distinct margin: about 2.3k at max-param 48 (about
# 0.15 MB), and at most about 8.2k under SIZE_LIMIT, whose largest target
# is sp(128,C)'s 8,192.
_MARGINS: dict = {}


def check_involutions(a: SimpleAlgebra) -> list:
    """Margins for every instantiated involution row of ``a``.

    Outer classes of order four (even orthogonal split signature) square
    into the involution set, so their fixed sets are contained in fixed
    sets already listed here; no separate route is needed.  The two
    algebras with order-3 outer classes, so(8,C) and so(4,4), also get one
    ``triality`` case per order-3 class, after their involution rows.
    The rows are read once, through ``inv.isotropy_entries``, and only by
    their labels and dims: no instance value is built here.

    A row's cases are built in one batch: its witnesses and its margins by
    one comprehension each, and its ``berger_involution`` cases by one
    ``map`` of ``tuple.__new__``.  Each margin is then taken from the
    process-wide table `_MARGINS`, so that every case with one margin
    value holds the same int object.  Only a row whose ``dims_s`` holds the
    target has an instance at margin 0; such a row is then scanned, and
    each of those instances that `_is_equality_witness` accepts becomes an
    ``equality_case`` in place.  Every other margin-0 instance stays a
    failing ``berger_involution`` case.

    On real rank one the rows are listed, but the verdict is the ``rank1``
    case that `verify_case` returns in their place; up to max-param 64
    only sl(2,C) lists failing cases, two at margin 0.
    """
    a = require_simple(a)
    d = dims(a)
    target = d.dim_s - d.rk_r
    # each witness reads "T -> h (fixed dim X vs target Y)"; the head is
    # built once per row and the tail once per algebra
    tail = f" vs target {target})"
    out = []
    for entry in inv.isotropy_entries(a):
        head = entry.template + " -> "
        labels, dims_s = entry.labels, entry.dims_s
        witnesses = [f"{head}{label} (fixed dim {fixed}{tail}" for label, fixed in zip(labels, dims_s)]
        margins = [target - fixed for fixed in dims_s]
        margins = list(map(_MARGINS.setdefault, margins, margins))
        start = len(out)
        # `tuple.__new__` makes the same tuple as CaseResult's generated
        # `__new__`, without that Python frame per case (209,019 cases at
        # max-param 48); this is the one place a case skips it
        fields = zip(repeat(a), repeat(ROUTE_BERGER), margins, witnesses)
        out += map(tuple.__new__, repeat(CaseResult), fields)
        if target in dims_s:
            for i, label, fixed, witness in zip(count(start), labels, dims_s, witnesses):
                if fixed == target and _is_equality_witness(a, label):
                    out[i] = CaseResult(a, ROUTE_EQUALITY, 0, witness)
    if a in inv.TRIALITY_FORMS:
        for cls in inv.triality_classes(a):
            fixed = reductive_dims(cls.fixed_algebra).dim_s
            witness = "order-%d class fixing %s (%s, fixed dim %d vs target %d)" % (
                cls.order,
                render(cls.fixed_algebra),
                cls.kind,
                fixed,
                target,
            )
            out.append(CaseResult(a, ROUTE_TRIALITY, target - fixed, witness))
    return out


def verify_case(a: SimpleAlgebra) -> list:
    """All applicable routes for one algebra, rank-1 shortcut first."""
    a = require_simple(a)
    shortcut = rank1_shortcut(a)
    if shortcut is not None:
        return [shortcut]
    results = check_involutions(a)
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
    require_ints((rk_q,), "rational rank")
    if type(irreducible) is not bool:
        raise OutOfDomain("irreducible must be a bool, got %s" % type(irreducible).__name__)
    factors = _noncompact_factors(factors)
    if not factors:
        raise TooFewFactors("at least one simple factor is required")
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
    necessary; it reads `inv.max_fixed_dim` once per distinct factor.
    Swap involutions between isomorphic factors fix a diagonal and are
    checked separately.
    """
    factors = _noncompact_factors(factors)
    if len(factors) < 2:
        raise TooFewFactors("a product check needs at least two simple factors")
    per = [dims(a) for a in factors]
    dim_s = sum(d.dim_s for d in per)
    rk_min = min(d.rk_r for d in per)
    product_bound = sum(d.dim_s - d.rk_r for d in per)
    product_margin = (dim_s - rk_min) - product_bound
    top = {a: inv.max_fixed_dim(a)[0] for a in dict.fromkeys(factors)}
    naive_fixed_dim = max(dim_s - d.dim_s + top[a] for a, d in zip(factors, per))
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
        product_bound=product_bound,
        product_margin=product_margin,
        naive_fixed_dim=naive_fixed_dim,
        naive_bound=product_bound,
        naive_exceeds=naive_fixed_dim > product_bound,
        swap_fixed_dim=swap_fixed_dim,
        swap_margin=swap_margin,
        passed=passed,
    )


_SCOPES = ("complex", "real", "semisimple", "all")


def _require_sweep_args(scope: str, max_param: int) -> None:
    """OutOfDomain unless ``scope`` is one of `_SCOPES` and ``max_param`` is
    an int from 2 to ``SIZE_LIMIT``: the argument rule of every sweep entry
    point."""
    if scope not in _SCOPES:
        raise OutOfDomain("scope must be one of %s" % ", ".join(_SCOPES))
    require_max_param(max_param)


def _product_demos(max_param: int) -> list:
    sl2, sl3 = simple(Family.SL_R, 2), simple(Family.SL_R, 3)
    demos = [(sl2, sl2), (sl3, sl3), (sl3, simple(Family.SU, 1, 2)), (sl2, simple(Family.SO, 1, 4))]
    demos += ((a, a) for a in iter_noncompact_simple(min(max_param, 8)))
    return list(dict.fromkeys(demos))


_ROUTE, _MARGIN, _WITNESS = attrgetter("route"), attrgetter("margin"), attrgetter("witness")


def _sorted_cases(a: SimpleAlgebra) -> list:
    """``verify_case(a)`` ordered by route, then decreasing margin, then witness.

    Three stable sorts, least significant key first, give the order of the
    key ``(route, -margin, witness)`` without a Python call and a tuple per
    case; ``reverse=True`` keeps the sort stable.
    """
    cases = verify_case(a)
    cases.sort(key=_WITNESS)
    cases.sort(key=_MARGIN, reverse=True)
    cases.sort(key=_ROUTE)
    return cases


def iter_algebra_cases(scope: str = "all", max_param: int = 32) -> Iterator[tuple]:
    """Yield ``(algebra, cases)`` for every catalog algebra in ``scope``.

    The algebras come by rendered name and, within one algebra, its cases
    by route, then by decreasing margin, then by witness; rendered names
    are distinct, so this is the global order by (name, route, -margin,
    witness).  Each algebra is verified only when it is reached, so a
    caller that lets each list go holds one algebra's cases at a time.

    A scope outside ``complex``, ``real``, ``semisimple`` and ``all``, and
    a ``max_param`` that is not an int from 2 to ``SIZE_LIMIT``, raise
    OutOfDomain at the call rather than at the first item.
    """
    _require_sweep_args(scope, max_param)
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
    is ``semisimple`` or ``all``.  Arguments are refused as by
    ``iter_algebra_cases``."""
    _require_sweep_args(scope, max_param)
    if scope not in ("semisimple", "all"):
        return ()
    return tuple(check_semisimple(pair) for pair in _product_demos(max_param))


class CaseTally:
    """A sweep's counts, flags and verdict, folded one algebra at a time.

    `sweep` and ``liecheck verify`` pass each ``(algebra, cases)`` item of
    `iter_algebra_cases` to ``add``, which returns the cases it folded:
    `sweep` chains those lists into its tuple, one ``add`` call per algebra
    and no loop of its own.  The tally keeps ``count``; ``flagged`` and
    ``failures``, lists of the ``equality_case`` and the failed cases in the
    order added; ``route_counts`` in first-seen order; and the smallest
    strict margin, ``worst_strict_margin`` (None while no case is strict:
    a margin is strict when its route is outside `_PASS_ANY_MARGIN`), with
    ``worst_at``, the first four algebras added whose smallest strict
    margin it is.

    ``add`` folds each run of consecutive cases of one route as a whole: its
    length, its smallest margin (its low) and, for ``equality_case``, all
    of it as flagged.  Since `_passes` is monotone in the margin, a run
    whose low passes has no failure, and only a run whose low fails is
    scanned case by case.  Any order of cases folds exactly;
    `iter_algebra_cases` sorts each algebra's cases by route, so there a
    route is one run.
    """

    def __init__(self):
        self.count, self.flagged, self.failures = 0, [], []
        self.route_counts, self.worst_strict_margin, self.worst_at = {}, None, []

    def add(self, a: SimpleAlgebra, cases: list) -> list:
        strict = None
        counts = self.route_counts
        for route, run in groupby(cases, _ROUTE):
            run = list(run)
            counts[route] = counts.get(route, 0) + len(run)
            low = min(map(_MARGIN, run))
            if route == ROUTE_EQUALITY:
                self.flagged += run
            if route not in _PASS_ANY_MARGIN and (strict is None or low < strict):
                strict = low
            if not _passes(route, low):
                self.failures += [c for c in run if not _passes(route, c.margin)]
        self.count += len(cases)
        if strict is not None:
            if self.worst_strict_margin is None or strict < self.worst_strict_margin:
                self.worst_strict_margin, self.worst_at = strict, [a]
            elif strict == self.worst_strict_margin and len(self.worst_at) < 4:
                self.worst_at.append(a)
        return cases

    def passed(self, products) -> bool:
        """No case added failed, and every product check in ``products`` passed."""
        return not self.failures and all(p.passed for p in products)


def sweep(scope: str = "all", max_param: int = 32) -> SweepReport:
    """Run every applicable route over the catalog up to ``max_param``.

    ``cases`` materializes ``iter_algebra_cases``, in its order.  The fields
    after ``products`` are the `CaseTally` of its items and the product
    checks, with lists as tuples and ``route_counts`` as (route, count)
    pairs.  ``max_param`` is an int from 2 to ``SIZE_LIMIT``; other values
    raise OutOfDomain.

    The cases and product checks are built with Python's cyclic garbage
    collector paused, process-wide, and switched back on at return or raise
    only if it was on.  The sweep makes no reference cycles
    (``tests/test_verifier.py::test_sweep_makes_no_reference_cycles``), and
    at max-param 48 the collector would scan its 209,019 case records in
    hundreds of passes that free nothing.  Before switching it back on, the
    sweep promotes every tracked object into the oldest generation in one
    step (``gc.freeze()`` then ``gc.unfreeze()``, which also zeroes the
    young count), so no pass scans the records at all.  That promotes the
    caller's own young objects too.  The step is skipped when the caller
    has frozen objects (``gc.get_freeze_count()`` is not 0), so a caller's
    frozen set stays frozen.
    """
    _require_sweep_args(scope, max_param)
    tally = CaseTally()
    enabled = gc.isenabled()
    gc.disable()
    try:
        cases = tuple(chain.from_iterable(starmap(tally.add, iter_algebra_cases(scope, max_param))))
        products = product_checks(scope, max_param)
    finally:
        if enabled:
            if not gc.get_freeze_count():
                gc.freeze()
                gc.unfreeze()
            gc.enable()
    return SweepReport(
        scope, max_param, cases, products,
        tuple(tally.flagged), tuple(tally.failures), tally.passed(products),
        tuple(tally.route_counts.items()), tally.worst_strict_margin, tuple(tally.worst_at),
    )


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
    for family, row in _RESTRICTED_INDEX.items():
        a = simple(family)
        d = dims(a)
        gd = reductive_dims(parse_algebra(row.g_label))
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
    "ROUTES",
    "CaseResult",
    "CaseTally",
    "IsotypyViolated",
    "MissingTableRow",
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
