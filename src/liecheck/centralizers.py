"""Centralizer dimensions of finite-order elements, by eigenvalue signature.

A finite-order element of a classical group is conjugate (inside the
maximal compact) to a block element whose conjugacy class is described by
eigenvalue multiplicities only.  For each supported family the centralizer
is again a product of classical groups, so its dimension is a polynomial
in the multiplicities; `signature_dim` evaluates that polynomial and
`oracle_max` maximizes it exactly, which is what the closed-form bounds in
`bound` are validated against.  `oracle_max` finds the maximum by a
memoised walk over the best angle multisets, and the tests check it
against the brute-force maximum over `enumerate_signatures`.

Conventions:
  * Tags 1 and -1 are the real eigenvalues; integer tags >= 2 are
    distinct rotation-angle classes (the angle value never enters the
    dimension count).  Every other tag is rejected, and parameters, tags
    and multiplicities must be exactly ``int`` (not ``bool``).
  * A class with a single tag is treated as central and rejected.  This
    deliberately removes the one-rotation-class elements (complex or
    quaternionic scalar-like); for so*(2n) with n in {2, 3, 4} such a
    class actually exceeds the closed-form bound, see the bound() docstring.
  * For so(p,q), su(p,q), sp(p,q): mult_plus/mult_minus are the
    multiplicities inside the positive/negative part of the form.  For
    so*(2n), an angle block's two fields are the multiplicities of the
    two conjugate eigenvalues; +-1 blocks use mult_plus alone.
  * Blocks fill the coordinates by one rule, in `_validate`: a +-1 block
    fills its multiplicities, an angle block its multiplicities times the
    family's `_ANGLE_WIDTH` (2 for so(n) and so(p,q), whose angle blocks
    are rotation planes, 1 otherwise).  Two-parameter families fill
    (p, q) part by part; one-parameter families fill n with both parts.

Compact families report dim C_K(A); indefinite families report dim S^A,
the fixed-set dimension in the symmetric space.
"""

from dataclasses import dataclass
from enum import Enum
from itertools import chain

from liecheck.algebras import InputError, OutOfDomain


class InvalidSignature(InputError):
    """Malformed multiplicity data, or a central (single-tag) class."""


class OracleInvariantError(RuntimeError):
    """An internal consistency check failed (a bug, not bad input)."""


# Largest number of candidate block tuples `enumerate_signatures` will
# build.  A candidate costs it about 2 us for the families with +-1 blocks
# and up to about 11 us for su(n) and su(p,q), whose one angle table holds
# every candidate and whose tuples are the longest (su(45): 89,134
# candidates in 0.95 s, su(10,11): 94,664 in 0.82 s, so(52): 94,514 in
# 0.19 s, on a 2-core x86-64 host, Python 3.11), so the budget is about
# 1 s of work; the criterion-2 sizes (n <= 12, p+q <= 10) need at most
# 32,926.  `oracle_max` builds no candidate, but refuses the same sizes so
# that its refusals stay those of `enumerate_signatures`; its slowest
# in-budget calls, su(9,12) and su(10,11), take about 0.01 s.
ENUMERATION_BUDGET = 100_000


class SigFamily(Enum):
    SO_N = "so_n"
    SU_N = "su_n"
    SP_N_COMPACT = "sp_n_compact"
    SO_PQ = "so_pq"
    SU_PQ = "su_pq"
    SP_PQ = "sp_pq"
    SOSTAR_2N = "so_star_2n"


_DEFINITE = (SigFamily.SO_N, SigFamily.SU_N, SigFamily.SP_N_COMPACT)
_TWO_PARAM = (SigFamily.SO_PQ, SigFamily.SU_PQ, SigFamily.SP_PQ)
# su(n) and su(p,q) tag every block alike: their +-1 blocks are enumerated
# with the angle blocks, from one table with an empty prefix
_SU = (SigFamily.SU_N, SigFamily.SU_PQ)

# The dimension polynomial of `signature_dim`, one term per block: (term of
# a +-1 block, term of an angle block), each in (mult_plus, mult_minus).
# _CENTRE holds the constant: su(n) drops its one-dimensional centre.
_TERMS = {
    SigFamily.SO_N: (lambda a, _: a * (a - 1) // 2, lambda a, _: a * a),
    SigFamily.SU_N: (lambda a, _: a * a, lambda a, _: a * a),
    SigFamily.SP_N_COMPACT: (lambda a, _: a * (2 * a + 1), lambda a, _: a * a),
    SigFamily.SO_PQ: (lambda a, b: a * b, lambda a, b: 2 * a * b),
    SigFamily.SU_PQ: (lambda a, b: 2 * a * b, lambda a, b: 2 * a * b),
    SigFamily.SP_PQ: (lambda a, b: 4 * a * b, lambda a, b: 2 * a * b),
    # so*(2n): +-1 blocks centralize a smaller so*, angle blocks a u(a,b)
    SigFamily.SOSTAR_2N: (lambda a, _: a * (a - 1), lambda a, b: 2 * a * b),
}
_CENTRE = {SigFamily.SU_N: -1}

# coordinates an angle block fills per unit of multiplicity: 2 in the real
# models, whose angle blocks are rotation planes, and 1 over C and H
_ANGLE_WIDTH = {**dict.fromkeys(SigFamily, 1), SigFamily.SO_N: 2, SigFamily.SO_PQ: 2}

# dim C_K(A) of each indefinite family, as (compact family, centre): K's
# centralizer is that family's, part by part, plus the centre constant.
# K is s(u(p)+u(q)) for su(p,q), one dimension short of u(p)+u(q), and
# u(n) for so*(2n), whose two parts are the conjugate multiplicities
_COMPACT_PART = {
    SigFamily.SO_PQ: (SigFamily.SO_N, 0),
    SigFamily.SU_PQ: (SigFamily.SU_N, -1),
    SigFamily.SP_PQ: (SigFamily.SP_N_COMPACT, 0),
    SigFamily.SOSTAR_2N: (SigFamily.SU_N, 0),
}


@dataclass(frozen=True)
class Signature:
    """Conjugacy-class data: blocks of (tag, mult_plus, mult_minus).

    ``params`` is kept as a tuple, so a class given with list parameters
    hashes, and equals the same class given with a tuple.
    """

    family: SigFamily
    params: tuple[int, ...]
    blocks: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "params", tuple(self.params))


# `bound`'s closed forms, family -> (name, least n, formula); a least n of
# None stands for the (p, q) domain 1 <= p <= q, p+q >= 3.  The compact
# families bound dim C_K(A), the others dim S^A.  The families left out have
# only the exhaustive `oracle_max` and the matrix oracle.
_BOUNDS = {
    SigFamily.SO_N: ("so(n)", 3, lambda n: (n - 1) * (n - 2) // 2),
    SigFamily.SU_N: ("su(n)", 2, lambda n: (n - 1) ** 2),
    SigFamily.SU_PQ: ("su(p,q)", None, lambda p, q: 2 * p * (q - 1)),
    SigFamily.SP_PQ: ("sp(p,q)", None, lambda p, q: 4 * p * (q - 1)),
    SigFamily.SOSTAR_2N: ("so*(2n)", 2, lambda n: n * n - n - 2 * (n - 1)),
}
BOUNDED_FAMILIES = frozenset(_BOUNDS)


def bound(family: SigFamily, params) -> int:
    """Closed-form upper bound for the non-central centralizer dimension,
    from `_BOUNDS`.

    The so*(2n) bound n^2 - n - 2(n-1) is only attained/valid under the
    single-tag exclusion above: the excluded one-rotation-class elements
    reach 2*floor(n/2)*ceil(n/2), which exceeds the formula for n in
    {2, 3, 4}, meets it at n = 5 (12 = 12) and stays below it for n >= 6.
    The exceptional-group reductions this bound feeds use n = 5 and n = 8,
    where it holds for those elements too.

    Parameters must be exactly ``int`` (``bool`` and ``float`` are
    rejected), as many as the family takes.
    """
    _check_params(family, params, OutOfDomain)
    if family not in _BOUNDS:
        raise OutOfDomain(f"no closed-form bound for {family.value}")
    name, least, formula = _BOUNDS[family]
    if least is None:
        p, q = params
        if not (1 <= p <= q) or p + q < 3:
            raise OutOfDomain(f"{name} bound needs 1 <= p <= q, p+q >= 3, got ({p},{q})")
    elif params[0] < least:
        raise OutOfDomain(f"{name} bound needs n >= {least}, got {params[0]}")
    return formula(*params)


def _check_params(family, params, error, blocks=()):
    """Raise error unless params (and each block's entries) are exactly int,
    as many params as the family takes and three entries per block."""
    arity = 2 if family in _TWO_PARAM else 1
    if (
        len(params) != arity
        or set(map(len, blocks)) - {3}
        or set(map(type, chain(params, *blocks))) != {int}
    ):
        if blocks:
            raise error(
                f"{family.value} takes {arity} int parameter(s) and blocks of three ints"
                f" (tag, mult_plus, mult_minus), got {tuple(params)} {tuple(blocks)}"
            )
        raise error(f"{family.value} takes {arity} int parameter(s), got {tuple(params)}")


def _validate(sig: Signature) -> None:
    blocks = sig.blocks
    if not blocks:
        raise InvalidSignature("no blocks")
    _check_params(sig.family, sig.params, InvalidSignature, blocks)
    tags = [t for t, _, _ in blocks]
    if len(set(tags)) != len(tags):
        raise InvalidSignature(f"repeated eigenvalue tag in {blocks}")
    if any(t < 2 and t not in (1, -1) for t in tags):
        raise InvalidSignature(f"eigenvalue tags are 1, -1 or angle classes >= 2, got {tags}")
    if len(blocks) < 2:
        raise InvalidSignature("single eigenvalue tag: central element class")
    for t, mp, mm in blocks:
        if mp < 0 or mm < 0 or (mp, mm) == (0, 0):
            raise InvalidSignature(f"empty or negative block {(t, mp, mm)}")
        if sig.family in _DEFINITE and mm != 0:
            raise InvalidSignature("definite family blocks carry one multiplicity")
        if sig.family is SigFamily.SOSTAR_2N and t in (1, -1) and mm != 0:
            raise InvalidSignature("so* real-eigenvalue blocks carry one multiplicity")

    # the one fill rule of the module docstring; so*(2n)'s angle blocks
    # split n between the two conjugate multiplicities
    width = _ANGLE_WIDTH[sig.family]
    fill_p = sum(mp if t in (1, -1) else width * mp for t, mp, _ in blocks)
    fill_q = sum(mm if t in (1, -1) else width * mm for t, _, mm in blocks)
    fill = (fill_p, fill_q) if len(sig.params) == 2 else (fill_p + fill_q,)
    if fill != sig.params:
        raise InvalidSignature(f"multiplicities fill {fill} of {sig.params} coordinates")


def signature_dim(sig: Signature) -> int:
    """dim C_K(A) for compact families, dim S^A for indefinite ones."""
    _validate(sig)
    return _dim(sig)


def _dim(sig: Signature) -> int:
    """The dimension polynomial of `signature_dim`, for validated signatures."""
    return _blocks_dim(sig.family, sig.blocks) + _CENTRE.get(sig.family, 0)


def _blocks_dim(family, blocks):
    """Sum of the `_TERMS` of some blocks (no centre constant)."""
    real, angle = _TERMS[family]
    return sum(real(mp, mm) if t in (1, -1) else angle(mp, mm) for t, mp, mm in blocks)


def signature_compact_dim(sig: Signature) -> int:
    """dim C_K(A) for the indefinite families (cross-check channel): the
    `_TERMS` of K's compact family, applied to each part's multiplicity."""
    _validate(sig)
    if sig.family not in _COMPACT_PART:
        raise OutOfDomain(f"{sig.family.value} is compact; use signature_dim")
    compact, centre = _COMPACT_PART[sig.family]
    parts = ((t, m, 0) for t, mp, mm in sig.blocks for m in (mp, mm))
    return _blocks_dim(compact, parts) + centre


def _fill_pairs(p, q, cap_a, cap_b, stack, tags, out):
    """Append to out, for every nonincreasing multiset of pairs (a,b) !=
    (0,0), each at most (cap_a, cap_b), with componentwise sum (p, q): stack
    followed by the pairs as blocks (tag, a, b), tagged in order from
    tags[len(stack):].  With q = 0 the multisets are the partitions of p."""
    if not p and not q:
        out.append(tuple(stack))
        return
    depth = len(stack)
    if depth == len(tags):
        return
    tag = tags[depth]
    for a in range(min(p, cap_a), -1, -1):
        top = q if a < cap_a else min(q, cap_b)
        for b in range(top, -1 if a else 0, -1):
            stack.append((tag, a, b))
            _fill_pairs(p - a, q - b, a, b, stack, tags, out)
            stack.pop()


def _fill_total(total, cap_a, cap_b, stack, tags, out):
    """As `_fill_pairs`, for the pairs whose a+b sum to total (the so*
    angle-block shape)."""
    if not total:
        out.append(tuple(stack))
        return
    depth = len(stack)
    if depth == len(tags):
        return
    tag = tags[depth]
    for a in range(min(total, cap_a), -1, -1):
        top = total - a if a < cap_a else min(total - a, cap_b)
        for b in range(top, -1 if a else 0, -1):
            stack.append((tag, a, b))
            _fill_total(total - a - b, a, b, stack, tags, out)
            stack.pop()


def enumerate_signatures(family: SigFamily, params, order_le_4: bool = False):
    """All valid (non-central) signatures; order_le_4 keeps at most one
    angle class, so every enumerated element satisfies A^4 = 1.

    Every candidate is a valid signature by construction except for the
    block count, so the single-block (central) ones are the only ones
    dropped.  Raises OutOfDomain on the first `next()` when there are more
    than ENUMERATION_BUDGET candidates; with order_le_4 the budget still
    counts the full candidate set, so it may refuse a size whose order-4
    classes alone would fit.
    """
    params = tuple(params)
    for prefix, table in _candidates(family, params, order_le_4):
        for angles in table:
            blocks = prefix + angles
            if len(blocks) > 1:
                yield Signature(family, params, blocks)


def _check_budget(family, params):
    """Raise OutOfDomain when params are not ints or there are more than
    ENUMERATION_BUDGET candidate signatures.  params must be a tuple."""
    _check_params(family, params, OutOfDomain)
    if _candidate_count(family, params) > ENUMERATION_BUDGET:
        raise OutOfDomain(
            f"{family.value}{params}: more than the enumeration budget of "
            f"{ENUMERATION_BUDGET} candidate signatures"
        )


def _prefixes(family, params):
    """(prefix, (rp, rq)) for each run of candidates: the prefix holds the
    +-1 blocks, and the angle blocks fill what they leave, rp and rq in
    units of the family's `_ANGLE_WIDTH`.  su(n) and su(p,q) are one run
    with an empty prefix; a one-parameter family runs as (n, 0)."""
    p, q = params if len(params) == 2 else (*params, 0)
    if family in _SU:
        yield (), (p, q)
        return
    weight = _ANGLE_WIDTH[family]
    for ap in range(p + 1):
        for aq in range(q + 1):
            for bp in range(p - ap + 1):
                for bq in range(q - aq + 1):
                    rp, rq = p - ap - bp, q - aq - bq
                    if rp % weight or rq % weight:
                        continue
                    prefix = ((1, ap, aq),) if ap or aq else ()
                    if bp or bq:
                        prefix += ((-1, bp, bq),)
                    yield prefix, (rp // weight, rq // weight)


def _angle_tags(family, p, q):
    """The tags of the angle blocks filling (p, q), in block order: su's
    +-1 blocks are among them."""
    return ((1, -1) if family in _SU else ()) + tuple(range(2, p + q + 2))


def _candidates(family, params, order_le_4):
    """The candidates as runs (prefix, table): every tuple `prefix + angles`
    for angles in `table`, in order, over the runs of `_prefixes`.

    Tables are built once per remainder and live only as long as the
    generator.  Raises OutOfDomain on the first `next()`, before building
    any table, when there are more than ENUMERATION_BUDGET candidates.  The
    count is of the full candidate set even when order_le_4 keeps fewer of
    them, so the check is conservative there.  params must be a tuple.
    """
    _check_budget(family, params)
    tables = {}
    for prefix, key in _prefixes(family, params):
        table = tables.get(key)
        if table is None:
            table = tables[key] = _angle_table(family, *key, order_le_4)
        yield prefix, table


def _angle_table(family, p, q, order_le_4):
    """Every tagged angle multiset filling (p, q), as a block tuple, in
    enumeration order (descending block tuples); order_le_4 keeps at most
    one angle class (four eigenvalue classes for su, whose tags are all
    alike).  One depth-first walk builds the list."""
    tags = _angle_tags(family, p, q)
    if order_le_4:
        tags = tags[: 4 if family in _SU else 1]
    out = []
    if family is SigFamily.SOSTAR_2N:
        _fill_total(p, p, p, [], tags, out)
    else:
        _fill_pairs(p, q, p, q, [], tags, out)
    return out


def _multiset_counts(n, kinds):
    """c[t], t = 0, 1, ...: multisets of parts with weights summing to t,
    when kinds(k) distinct parts have weight k >= 1.

    Stops after t = n, or after the first count above ENUMERATION_BUDGET,
    so the work stays small for any n.  Uses the recurrence
    t c[t] = sum_j sigma(j) c[t - j] with sigma(j) = sum_{d | j} d kinds(d).
    """
    c, sigma = [1], [0]
    while len(c) <= n and c[-1] <= ENUMERATION_BUDGET:
        t = len(c)
        sigma.append(sum(d * kinds(d) for d in range(1, t + 1) if t % d == 0))
        c.append(sum(sigma[j] * c[t - j] for j in range(1, t + 1)) // t)
    return c


def _pair_partitions(p, q):
    """c[i][j] for i <= p, j <= q: multisets of pairs (a,b) != (0,0) with
    componentwise sum (i, j), the shapes `_fill_pairs` builds."""
    c = [[0] * (q + 1) for _ in range(p + 1)]
    c[0][0] = 1
    for a in range(p + 1):
        for b in range(q + 1):
            if (a, b) == (0, 0):
                continue
            for i in range(a, p + 1):
                row, src = c[i], c[i - a]
                for j in range(b, q + 1):
                    row[j] += src[j - b]
    return c


def _candidate_count(family, params):
    """Exact number of candidate block tuples `_candidates` yields for
    (family, params), capped at ENUMERATION_BUDGET + 1.

    Each count is at least the product, over the size parameters n, of the
    partition numbers p(n // weight): the candidates that split each size
    into blocks on its own.  So a partition number past the budget settles
    the answer, and the exact counts below only ever run on small sizes.
    """
    over = ENUMERATION_BUDGET + 1
    if min(params) < 0:
        return 0  # nothing fills a negative size
    if family is SigFamily.SOSTAR_2N:
        # angle blocks of total multiplicity k come in k + 1 shapes (a, k - a)
        (n,) = params
        angles = _multiset_counts(n, lambda k: k + 1)
        if angles[-1] > ENUMERATION_BUDGET:
            return over
        return min(sum((n - r + 1) * angles[r] for r in range(n + 1)), over)
    weight = _ANGLE_WIDTH[family]
    parts = [_multiset_counts(x // weight, lambda k: 1) for x in params]
    floor = 1
    for c in parts:
        floor *= c[-1]
    if floor > ENUMERATION_BUDGET:
        return over
    if family is SigFamily.SU_N:
        return floor
    if len(params) == 1:  # so(n), sp(n): +-1 blocks fill n - weight*r coordinates
        (n,) = params
        return min(sum((n - weight * r + 1) * parts[0][r] for r in range(n // weight + 1)), over)
    p, q = params
    if family is SigFamily.SU_PQ:
        return min(_pair_partitions(p, q)[p][q], over)
    pairs = _pair_partitions(p // weight, q // weight)
    total = sum(
        (p - weight * i + 1) * (q - weight * j + 1) * pairs[i][j]
        for i in range(p // weight + 1)
        for j in range(q // weight + 1)
    )
    return min(total, over)


def _best_pairs(p, q, cap_a, cap_b, need, term, total, memo):
    """The best (dim, pairs) among the multisets `_fill_pairs` walks:
    nonincreasing tuples of pairs (a, b) != (0, 0), each at most
    (cap_a, cap_b), that fill (p, q), at least need of them; dim adds
    term(a, b) once per pair, and ties go to the largest tuple.  With
    total, the pairs' a+b sum to p and q is 0 (the `_fill_total` shape).
    None when no multiset qualifies.

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
    for a in range(cap_a, -1, -1):
        room = p - a if total else q
        top = room if a < cap_a else min(room, cap_b)
        for b in range(top, -1 if a else 0, -1):
            rest_p, rest_q = (p - a - b, 0) if total else (p - a, q - b)
            rest = _best_pairs(rest_p, rest_q, a, b, need - 1 if need else 0, term, total, memo)
            if rest is not None:
                d = term(a, b) + rest[0]
                if best is None or d > best[0]:
                    best = d, ((a, b),) + rest[1]
    memo[key] = best
    return best


def oracle_max(family: SigFamily, params):
    """Exact maximum of signature_dim and the attaining signature.

    Only defined for the families with a closed-form bound.  Ties are
    broken toward the lexicographically largest block tuple, so the
    witness is independent of enumeration order.  For each +-1 prefix of
    `_prefixes`, `_best_pairs` finds the best angle multiset by a walk
    memoised on (remainder, cap, blocks still needed), one memo per call;
    the prefix's blocks and the needed count keep the class non-central.
    Tags depend only on position, so the winning pairs are tagged at the
    end: the order on pair tuples is the order on block tuples.  The
    tests check the result against a brute-force maximum over
    `enumerate_signatures`.  The winner becomes a `Signature`, re-checked
    through `signature_dim`.  Raises OutOfDomain outside `bound`'s domain,
    and when more than ENUMERATION_BUDGET candidate signatures exist: the
    walk builds none of them, but keeps `enumerate_signatures`' gate so
    that the two refuse the same sizes.
    """
    bound(family, params)  # domain gate only
    params = tuple(params)
    _check_budget(family, params)
    real, term = _TERMS[family]  # su's +-1 blocks share the angle term
    total = family is SigFamily.SOSTAR_2N
    centre = _CENTRE.get(family, 0)
    memo = {}
    best_dim, best = -1, ()  # every dimension is >= 0 and every tuple > ()
    for prefix, (rp, rq) in _prefixes(family, params):
        found = _best_pairs(rp, rq, rp, rq, max(2 - len(prefix), 0), term, total, memo)
        if found is None:
            continue
        d = centre + found[0]
        for _, a, b in prefix:
            d += real(a, b)
        if d >= best_dim:
            tags = _angle_tags(family, rp, rq)
            blocks = prefix + tuple((t, a, b) for t, (a, b) in zip(tags, found[1]))
            if d > best_dim or blocks > best:
                best_dim, best = d, blocks
    if not best:
        raise OutOfDomain(f"no non-central classes for {family.value}{params}")
    witness = Signature(family, params, best)
    checked = signature_dim(witness)
    if checked != best_dim:
        raise OracleInvariantError(
            f"{witness}: enumerated dimension {best_dim}, signature_dim {checked}"
        )
    return best_dim, witness
