"""Centralizer dimensions of finite-order elements, by eigenvalue signature.

A finite-order element of a classical group is conjugate (inside the
maximal compact) to a block element whose conjugacy class is described by
eigenvalue multiplicities only.  For each supported family the centralizer
is again a product of classical groups, so its dimension is a polynomial
in the multiplicities; `signature_dim` evaluates that polynomial and
`oracle_max` maximizes it exactly, which is what the closed-form bounds in
`bound` are validated against.  `enumerate_signatures` streams every
class, and `oracle_max` reads each run's best off a value table and walks
only the witness, both over one prefix generator (`_prefixes`) and one
step rule (`_steps`); their budget sums each prefix run's fills, stopping
once past it.  The tests check `oracle_max` against the brute force.

Conventions:
  * Tags 1 and -1 are the real eigenvalues; integer tags >= 2 are
    distinct rotation-angle classes (the angle value never enters the
    dimension count).  Every other tag is rejected, and parameters, tags
    and multiplicities must be exactly ``int`` (not ``bool``), at most
    10**SIZE_CAP_DIGITS in size all together, the catalog's cap.
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
    width its row's field gives (2 over R, for so(n) and so(p,q), whose
    angle blocks are rotation planes, 1 over C and H).  Two-parameter
    families fill (p, q) part by part; one-parameter families fill n with
    both parts.

Compact families report dim C_K(A); indefinite families report dim S^A,
the fixed-set dimension in the symmetric space.
"""

from enum import Enum
from itertools import chain
from typing import NamedTuple

from liecheck import algebras
from liecheck.algebras import Family, InputError, OutOfDomain, require_ints


class InvalidSignature(InputError):
    """Malformed multiplicity data, or a central (single-tag) class."""


class OracleInvariantError(RuntimeError):
    """An internal consistency check failed (a bug, not bad input)."""


# Largest number of candidate block tuples `enumerate_signatures` will
# walk, at about 3 to 6 us a candidate (so(52): 94,514 in 0.29-0.57 s,
# su(45): 89,134 in 0.36-0.51 s, so*(26): 61,402 in 0.12-0.23 s,
# su(10,11): 94,664 in 0.39-0.76 s, sp(5,10): 92,823 in 0.31-0.58 s, at
# tracemalloc peaks of 0.1 to 1.6 MB; five runs each on a 2-core x86-64
# host, Python 3.11), so the budget is under 1 s of work; the criterion-2
# sizes (n <= 12, p+q <= 10) need at most 32,926.  `oracle_max` refuses the
# same sizes, though it builds no candidate: in budget it takes at most about
# 3 ms (sp(5,10), sp(3,14)), and 1.5 ms on su(9,12) and su(10,11).
ENUMERATION_BUDGET = 100_000


class SigFamily(Enum):
    SO_N = "so_n"
    SU_N = "su_n"
    SP_N_COMPACT = "sp_n_compact"
    SO_PQ = "so_pq"
    SU_PQ = "su_pq"
    SP_PQ = "sp_pq"
    SOSTAR_2N = "so_star_2n"

    # members compare by identity, so the identity hash is consistent with
    # equality; it replaces Enum's Python-level hash(self._name_)
    __hash__ = object.__hash__


class _Row(NamedTuple):
    """One signature family: its matrix model, by catalog family, and that
    model's field (R, C or H); the terms of `signature_dim`'s polynomial
    for a +-1 block and for an angle block, in (mult_plus, mult_minus),
    and its constant; and, for an indefinite family, (compact family,
    constant), where dim C_K(A) is that family's block terms, part by part,
    plus the constant.  A definite family's compact part is None."""

    ambient: Family
    field: str
    real: object
    angle: object
    centre: int
    compact: tuple | None


# su(n) drops its one-dimensional centre.  so*(2n)'s +-1 blocks centralize
# a smaller so*, its angle blocks a u(a,b).  K is s(u(p)+u(q)) for su(p,q),
# one dimension short of u(p)+u(q), and u(n) for so*(2n), whose two parts
# are the conjugate multiplicities
_ROWS = {
    SigFamily.SO_N: (
        Family.SO_CPT, "R", lambda a, _: a * (a - 1) // 2, lambda a, _: a * a, 0, None
    ),
    SigFamily.SU_N: (Family.SU_CPT, "C", lambda a, _: a * a, lambda a, _: a * a, -1, None),
    SigFamily.SP_N_COMPACT: (
        Family.SP_CPT, "H", lambda a, _: a * (2 * a + 1), lambda a, _: a * a, 0, None
    ),
    SigFamily.SO_PQ: (
        Family.SO, "R", lambda a, b: a * b, lambda a, b: 2 * a * b, 0, (SigFamily.SO_N, 0)
    ),
    SigFamily.SU_PQ: (
        Family.SU, "C", lambda a, b: 2 * a * b, lambda a, b: 2 * a * b, 0, (SigFamily.SU_N, -1)
    ),
    SigFamily.SP_PQ: (
        Family.SP, "H", lambda a, b: 4 * a * b, lambda a, b: 2 * a * b, 0,
        (SigFamily.SP_N_COMPACT, 0),
    ),
    SigFamily.SOSTAR_2N: (
        Family.SO_STAR, "H", lambda a, _: a * (a - 1), lambda a, b: 2 * a * b, 0,
        (SigFamily.SU_N, 0),
    ),
}
_ROWS = {family: _Row(*row) for family, row in _ROWS.items()}

_DEFINITE = tuple(f for f, row in _ROWS.items() if row.compact is None)
_ARITY = {f: 2 if row.ambient in algebras._TWO_PARAM else 1 for f, row in _ROWS.items()}
# su(n) and su(p,q) tag every block alike: their +-1 blocks are enumerated
# with the angle blocks, from one table with an empty prefix
_SU = tuple(f for f, row in _ROWS.items() if row.field == "C")
# coordinates an angle block fills per unit of multiplicity: 2 in the real
# models, whose angle blocks are rotation planes, and 1 over C and H
_ANGLE_WIDTH = {f: 2 if row.field == "R" else 1 for f, row in _ROWS.items()}
# the matrix model of each family (also the CLI's `oracle --matrix` target)
SIG_AMBIENT = {f: row.ambient for f, row in _ROWS.items()}
# `oracle --family` names: each family by its model's name less "_cpt", and
# its parameter count
FAMILY_NAMES = {(row.ambient.value.removesuffix("_cpt"), _ARITY[f]): f for f, row in _ROWS.items()}


class _SignatureFields(NamedTuple):
    family: SigFamily
    params: tuple[int, ...]
    blocks: tuple[tuple[int, int, int], ...]


class Signature(_SignatureFields):
    """Conjugacy-class data: blocks of (tag, mult_plus, mult_minus).

    Lists given as ``params``, ``blocks`` or a block are kept as tuples, so
    a class given with lists hashes, and equals the same class given with
    tuples; `_replace` and `_make` build through the same ``__new__``.  Any
    other shape is kept as given, for `signature_dim` to refuse.
    """

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def __new__(cls, family, params, blocks):
        if type(params) is list:
            params = tuple(params)
        if type(blocks) is list or type(blocks) is tuple and list in map(type, blocks):
            blocks = tuple(tuple(b) if type(b) is list else b for b in blocks)
        return super().__new__(cls, family, params, blocks)


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
    """
    params = _check_params(family, params)
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


def _check_params(family, params, blocks=()):
    """params as a tuple; OutOfDomain unless family is a SigFamily, params a
    tuple or list of as many ints as the family takes and blocks a tuple of
    tuples of three ints (`require_ints` checks the ints)."""
    if type(family) is not SigFamily:
        raise OutOfDomain(f"family must be a SigFamily, got {type(family).__name__}")
    arity = _ARITY[family]
    if type(params) in (tuple, list) and type(blocks) is tuple and {*map(type, blocks)} <= {tuple}:
        params = tuple(params)
        require_ints(chain(params, *blocks), "parameters and blocks")
        if len(params) == arity and {*map(len, blocks)} <= {3}:
            return params
    shape = " and a tuple of blocks of three ints (tag, mult_plus, mult_minus)" if blocks else ""
    raise OutOfDomain(f"{family.value} takes a tuple of {arity} int parameter(s){shape}")


def _validate(sig: Signature) -> None:
    if type(sig) is not Signature or not sig.blocks:
        raise InvalidSignature("expected a Signature with blocks")
    blocks = sig.blocks
    try:
        _check_params(sig.family, sig.params, blocks)
    except OutOfDomain as exc:
        raise InvalidSignature(str(exc)) from None
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
    return _blocks_dim(sig.family, sig.blocks) + _ROWS[sig.family].centre


def _blocks_dim(family, blocks):
    """Sum of the block terms of the family's row (no centre constant)."""
    row = _ROWS[family]
    real, angle = row.real, row.angle
    return sum(real(mp, mm) if t in (1, -1) else angle(mp, mm) for t, mp, mm in blocks)


def signature_compact_dim(sig: Signature) -> int:
    """dim C_K(A) for the indefinite families (cross-check channel): the
    block terms of K's compact family, applied to each part's multiplicity."""
    _validate(sig)
    if sig.family in _DEFINITE:
        raise OutOfDomain(f"{sig.family.value} is compact; use signature_dim")
    compact, centre = _ROWS[sig.family].compact
    parts = ((t, m, 0) for t, mp, mm in sig.blocks for m in (mp, mm))
    return _blocks_dim(compact, parts) + centre


def _steps(p, q, cap_a, cap_b, total):
    """The one step rule of the angle walks: (a, b, rest_p, rest_q) for each
    pair (a, b) != (0, 0) at most the previous pair (cap_a, cap_b), in
    descending order, and the remainder it leaves of (p, q); with total,
    a+b counts against p (the so* shape, q = 0).  Stepping to (0, 0) walks
    each nonincreasing pair multiset filling (p, q) once."""
    for a in range(min(p, cap_a), -1, -1):
        room = p - a if total else q
        top = room if a < cap_a else min(room, cap_b)
        for b in range(top, -1 if a else 0, -1):
            yield (a, b, p - a - b, 0) if total else (a, b, p - a, q - b)


def enumerate_signatures(family: SigFamily, params, order_le_4: bool = False):
    """All valid (non-central) signatures; order_le_4 keeps at most one
    angle class, so every enumerated element satisfies A^4 = 1.

    Every candidate is a valid signature by construction except for the
    block count, so the single-block (central) ones are the only ones
    dropped.  Candidates stream, each +-1 prefix of `_prefixes` followed by
    the multisets of its `_angle_blocks` walk.  Raises OutOfDomain on the
    first `next()` when there are more than ENUMERATION_BUDGET candidates;
    with order_le_4 the budget still counts the full candidate set, so it
    may refuse a size whose order-4 classes alone would fit.
    """
    params = _check_budget(family, params)
    memo = _StepLists()
    for prefix, (p, q) in _prefixes(family, params):
        for angles in _angle_blocks(family, p, q, order_le_4, memo):
            blocks = prefix + angles
            if len(blocks) > 1:
                yield Signature(family, params, blocks)


def _check_budget(family, params):
    """params as a tuple; OutOfDomain when `_check_params` refuses them or
    there are more than ENUMERATION_BUDGET candidate signatures."""
    params = _check_params(family, params)
    if _candidate_count(family, params) > ENUMERATION_BUDGET:
        raise OutOfDomain(
            f"{algebras._name(SIG_AMBIENT[family], params)}: more than the enumeration budget of "
            f"{ENUMERATION_BUDGET} candidate signatures"
        )
    return params


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


class _StepLists(dict):
    """`_steps` lists keyed by their arguments, each built on first use."""

    def __missing__(self, key):
        steps = self[key] = list(_steps(*key))
        return steps


def _angle_blocks(family, p, q, order_le_4, memo):
    """Every tagged angle multiset filling (p, q), as a block tuple, in
    descending order; order_le_4 keeps at most one angle class (four
    eigenvalue classes for su, whose tags are all alike).  One depth-first
    walk over the `_StepLists` memo, holding only the open blocks."""
    if not p and not q:
        yield ()
        return
    tags = _angle_tags(family, p, q)
    if order_le_4:
        tags = tags[: 4 if family in _SU else 1]
    total = family is SigFamily.SOSTAR_2N
    opened = []  # the blocks above the top iterator, in order
    stack = [iter(memo[p, q, p, q, total])]
    while stack:
        tag = tags[len(opened)]
        deeper = len(stack) < len(tags)
        for a, b, rest_p, rest_q in stack[-1]:
            if not rest_p and not rest_q:
                yield (*opened, (tag, a, b))
            elif deeper:
                opened.append((tag, a, b))
                stack.append(iter(memo[rest_p, rest_q, a, b, total]))
                break
        else:
            stack.pop()
            if opened:
                opened.pop()


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
    componentwise sum (i, j), the shapes `_steps` walks."""
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
    """Exact number of candidate block tuples (each `_prefixes` prefix
    followed by each multiset of its `_angle_blocks` walk) for
    (family, params), capped at ENUMERATION_BUDGET + 1.

    table[i][j] counts the angle fills of (i, j) units of weight.  A
    one-parameter family runs as (n, 0), its one column a `_multiset_counts`
    list (so*(2n)'s angle blocks of total multiplicity k take k + 1 shapes),
    and a list cut short is past the budget.  A (p, q) family's count is at
    least the product of the partition numbers of p // weight and
    q // weight, the fills that split each part on its own, so a floor past
    the budget settles it and `_pair_partitions` only runs on small sizes.
    Each run of `_prefixes` that leaves (i, j) takes table[i][j] fills.
    """
    over = ENUMERATION_BUDGET + 1
    if min(params) < 0:
        return 0  # nothing fills a negative size
    weight = _ANGLE_WIDTH[family]
    p, q = params if len(params) == 2 else (*params, 0)
    if len(params) == 1:
        kinds = (lambda k: k + 1) if family is SigFamily.SOSTAR_2N else (lambda k: 1)
        table = [[c] for c in _multiset_counts(p // weight, kinds)]
        if len(table) <= p // weight:
            return over
    else:
        floor = 1
        for x in params:
            floor *= _multiset_counts(x // weight, lambda k: 1)[-1]
        if floor > ENUMERATION_BUDGET:
            return over
        table = _pair_partitions(p // weight, q // weight)
    total = 0
    for _, (rp, rq) in _prefixes(family, params):
        total += table[rp][rq]
        if total > ENUMERATION_BUDGET:
            return over
    return total


def _value_table(family, p, q):
    """table[i][j][need], (i, j) <= (p, q), need 0 to 2: the best angle-term
    sum of a pair multiset filling (i, j) with at least need pairs, or None.
    Each state reads `_steps` once, cap lifted: a first pair, plus its rest."""
    term, total = _ROWS[family].angle, family is SigFamily.SOSTAR_2N  # su's +-1 blocks too
    table = []
    for i in range(p + 1):
        table.append(row := [])
        for j in range(q + 1):
            best, two = 0, -1  # every sum is >= 0, and a nonempty state has a fill
            for a, b, rest_p, rest_q in _steps(i, j, i, j, total):
                d = term(a, b) + table[rest_p][rest_q][0]
                if d > best:
                    best = d
                if d > two and (rest_p or rest_q):
                    two = d
            row.append((best, best if i or j else None, two if two >= 0 else None))
    return table


def _witness_blocks(family, p, q, need, table):
    """The largest angle-block tuple of at least need pairs reaching the
    table's value for (p, q): each pair is the first under the last, in
    `_steps`' order, whose term plus its remainder's value meets the target."""
    term, total = _ROWS[family].angle, family is SigFamily.SOSTAR_2N
    blocks, tags, cap_a, cap_b, target = (), iter(_angle_tags(family, p, q)), p, q, table[p][q][need]
    while p or q:
        need = max(need - 1, 0)
        for a, b, rest_p, rest_q in _steps(p, q, cap_a, cap_b, total):
            rest = table[rest_p][rest_q][need]
            if rest is not None and term(a, b) + rest == target:
                break
        else:
            raise OracleInvariantError(f"no pair under {(cap_a, cap_b)} reaches {target} in {(p, q)}")
        blocks += ((next(tags), a, b),)
        p, q, cap_a, cap_b, target = rest_p, rest_q, a, b, rest
    return blocks


def oracle_max(family: SigFamily, params):
    """Exact maximum of signature_dim and the attaining signature.

    Only for the families with a closed-form bound; ties go to the largest
    block tuple.  Each +-1 prefix of `_prefixes` reads its run's dimension
    off one `_value_table`, built for this call only, needing the pairs that
    keep the class non-central; only the runs at the maximum walk the cap
    (`_witness_blocks`), and the winning `Signature` is re-checked through
    `signature_dim`.  Raises OutOfDomain outside `bound`'s domain and past
    ENUMERATION_BUDGET candidates, which the table does not build: the gate
    keeps its refusals those of `enumerate_signatures`.
    """
    bound(family, params)  # domain gate only
    params = _check_budget(family, params)
    row, width = _ROWS[family], _ANGLE_WIDTH[family]  # remainders count angle widths
    p, q = params if len(params) == 2 else (*params, 0)
    table = _value_table(family, p // width, q // width)
    best_dim, runs = -1, []  # every dimension is >= 0
    for prefix, (rp, rq) in _prefixes(family, params):
        need = 2 - len(prefix)  # a prefix holds at most the 1 and -1 blocks
        found = table[rp][rq][need]
        if found is not None:
            d = row.centre + found + sum(row.real(a, b) for _, a, b in prefix)
            if d > best_dim:
                best_dim, runs = d, []
            if d == best_dim:
                runs.append((prefix, rp, rq, need))
    if not runs:
        raise OracleInvariantError(f"no non-central classes for {family.value}{params}")
    best = max(prefix + _witness_blocks(family, rp, rq, need, table) for prefix, rp, rq, need in runs)
    witness = Signature(family, params, best)
    if (checked := signature_dim(witness)) != best_dim:
        raise OracleInvariantError(f"{witness}: enumerated dimension {best_dim}, signature_dim {checked}")
    return best_dim, witness
