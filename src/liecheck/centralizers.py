"""Centralizer dimensions of finite-order elements, by eigenvalue signature.

A finite-order element of a classical group is conjugate (inside the
maximal compact) to a block element whose conjugacy class is described by
eigenvalue multiplicities only.  For each supported family the centralizer
is again a product of classical groups, so its dimension is a polynomial
in the multiplicities; `signature_dim` evaluates that polynomial and
`oracle_max` maximizes it exhaustively, which is what the closed-form
bounds in `bound` are validated against.

Conventions:
  * Tags 1 and -1 are the real eigenvalues; integer tags >= 2 are
    distinct rotation-angle classes (the angle value never enters the
    dimension count).
  * A class with a single tag is treated as central and rejected.  This
    deliberately removes the one-rotation-class elements (complex or
    quaternionic scalar-like); for so*(2n) with n in {2, 4} such a class
    actually exceeds the closed-form bound, see the bound() docstring.
  * For so(p,q), su(p,q), sp(p,q): mult_plus/mult_minus are the
    multiplicities inside the positive/negative part of the form.  For
    so*(2n), an angle block's two fields are the multiplicities of the
    two conjugate eigenvalues; +-1 blocks use mult_plus alone.
  * For so(p,q) and so(n), a rotation block of multiplicity m occupies
    2m coordinates (m in each signature part for so(p,q)).

Compact families report dim C_K(A); indefinite families report dim S^A,
the fixed-set dimension in the symmetric space.
"""

from dataclasses import dataclass
from enum import Enum

from liecheck.algebras import OutOfDomain


class InvalidSignature(ValueError):
    """Malformed multiplicity data, or a central (single-tag) class."""


# Largest number of candidate block tuples `oracle_max` will build and
# test.  A candidate costs about 20 us, so the budget is a few seconds of
# work; the criterion-2 sizes (n <= 12, p+q <= 10) need at most 32,926.
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


@dataclass(frozen=True)
class Signature:
    """Conjugacy-class data: blocks of (tag, mult_plus, mult_minus)."""

    family: SigFamily
    params: tuple[int, ...]
    blocks: tuple[tuple[int, int, int], ...]


def bound(family: SigFamily, params) -> int:
    """Closed-form upper bound for the non-central centralizer dimension.

    so(n):    (n-1)(n-2)/2 on dim C_SO(n)(A), n >= 3
    su(n):    (n-1)^2 on dim C_SU(n)(A), n >= 2
    su(p,q):  2p(q-1) on dim S^A, p <= q, p+q >= 3
    sp(p,q):  4p(q-1) on dim S^A, p <= q, p+q >= 3
    so*(2n):  n^2 - n - 2(n-1) on dim S^A, n >= 2

    The so*(2n) bound is only attained/valid under the single-tag
    exclusion above: the excluded one-rotation-class elements reach
    2*floor(n/2)*ceil(n/2), which exceeds the formula for n in {2, 4}
    (those parameters never occur in the exceptional-group reductions
    this bound feeds, which use n = 5 and n = 8).
    """
    if family is SigFamily.SO_N:
        (n,) = params
        if n < 3:
            raise OutOfDomain(f"so(n) bound needs n >= 3, got {n}")
        return (n - 1) * (n - 2) // 2
    if family is SigFamily.SU_N:
        (n,) = params
        if n < 2:
            raise OutOfDomain(f"su(n) bound needs n >= 2, got {n}")
        return (n - 1) ** 2
    if family is SigFamily.SU_PQ:
        p, q = _pq_domain(params, "su(p,q)")
        return 2 * p * (q - 1)
    if family is SigFamily.SP_PQ:
        p, q = _pq_domain(params, "sp(p,q)")
        return 4 * p * (q - 1)
    if family is SigFamily.SOSTAR_2N:
        (n,) = params
        if n < 2:
            raise OutOfDomain(f"so*(2n) bound needs n >= 2, got {n}")
        return n * n - n - 2 * (n - 1)
    raise OutOfDomain(f"no closed-form bound for {family.value}")


def _pq_domain(params, label):
    p, q = params
    if not (1 <= p <= q) or p + q < 3:
        raise OutOfDomain(f"{label} bound needs 1 <= p <= q, p+q >= 3, got ({p},{q})")
    return p, q


def _validate(sig: Signature) -> None:
    blocks = sig.blocks
    if not blocks:
        raise InvalidSignature("no blocks")
    tags = [t for t, _, _ in blocks]
    if len(set(tags)) != len(tags):
        raise InvalidSignature(f"repeated eigenvalue tag in {blocks}")
    if any(t == 0 for t in tags):
        raise InvalidSignature("tag 0 is not a valid eigenvalue tag")
    if len(blocks) < 2:
        raise InvalidSignature("single eigenvalue tag: central element class")
    for t, mp, mm in blocks:
        if mp < 0 or mm < 0 or (mp, mm) == (0, 0):
            raise InvalidSignature(f"empty or negative block {(t, mp, mm)}")
        if sig.family in _DEFINITE and mm != 0:
            raise InvalidSignature("definite family blocks carry one multiplicity")
        if sig.family is SigFamily.SOSTAR_2N and t in (1, -1) and mm != 0:
            raise InvalidSignature("so* real-eigenvalue blocks carry one multiplicity")

    if sig.family is SigFamily.SO_N:
        (n,) = sig.params
        total = sum(mp if t in (1, -1) else 2 * mp for t, mp, _ in blocks)
        if total != n:
            raise InvalidSignature(f"multiplicities fill {total} of {n} coordinates")
    elif sig.family in (SigFamily.SU_N, SigFamily.SP_N_COMPACT):
        (n,) = sig.params
        if sum(mp for _, mp, _ in blocks) != n:
            raise InvalidSignature(f"multiplicities do not sum to {n}")
    elif sig.family is SigFamily.SO_PQ:
        p, q = sig.params
        tp = sum(mp if t in (1, -1) else 2 * mp for t, mp, _ in blocks)
        tq = sum(mm if t in (1, -1) else 2 * mm for t, _, mm in blocks)
        if (tp, tq) != (p, q):
            raise InvalidSignature(f"multiplicities fill {(tp, tq)} of {(p, q)}")
    elif sig.family in (SigFamily.SU_PQ, SigFamily.SP_PQ):
        p, q = sig.params
        if (sum(mp for _, mp, _ in blocks), sum(mm for _, _, mm in blocks)) != (p, q):
            raise InvalidSignature(f"multiplicities do not sum to {(p, q)}")
    else:  # SOSTAR_2N
        (n,) = sig.params
        if sum(mp + mm for _, mp, mm in blocks) != n:
            raise InvalidSignature(f"multiplicities do not sum to {n}")


def signature_dim(sig: Signature) -> int:
    """dim C_K(A) for compact families, dim S^A for indefinite ones."""
    _validate(sig)
    return _dim(sig)


def _dim(sig: Signature) -> int:
    """The dimension polynomial of `signature_dim`, for validated signatures."""
    fam = sig.family
    if fam is SigFamily.SO_N:
        return sum(
            mp * (mp - 1) // 2 if t in (1, -1) else mp * mp for t, mp, _ in sig.blocks
        )
    if fam is SigFamily.SU_N:
        return sum(mp * mp for _, mp, _ in sig.blocks) - 1
    if fam is SigFamily.SP_N_COMPACT:
        return sum(
            mp * (2 * mp + 1) if t in (1, -1) else mp * mp for t, mp, _ in sig.blocks
        )
    if fam is SigFamily.SO_PQ:
        return sum(
            mp * mm if t in (1, -1) else 2 * mp * mm for t, mp, mm in sig.blocks
        )
    if fam is SigFamily.SU_PQ:
        return sum(2 * mp * mm for _, mp, mm in sig.blocks)
    if fam is SigFamily.SP_PQ:
        return sum(
            4 * mp * mm if t in (1, -1) else 2 * mp * mm for t, mp, mm in sig.blocks
        )
    # so*(2n): +-1 blocks centralize a smaller so*, angle blocks a u(a,b)
    return sum(
        mp * (mp - 1) if t in (1, -1) else 2 * mp * mm for t, mp, mm in sig.blocks
    )


def signature_compact_dim(sig: Signature) -> int:
    """dim C_K(A) for the indefinite families (cross-check channel)."""
    _validate(sig)
    fam = sig.family
    if fam is SigFamily.SO_PQ:
        total = 0
        for t, mp, mm in sig.blocks:
            if t in (1, -1):
                total += mp * (mp - 1) // 2 + mm * (mm - 1) // 2
            else:
                total += mp * mp + mm * mm
        return total
    if fam is SigFamily.SU_PQ:
        return sum(mp * mp + mm * mm for _, mp, mm in sig.blocks) - 1
    if fam is SigFamily.SP_PQ:
        total = 0
        for t, mp, mm in sig.blocks:
            if t in (1, -1):
                total += mp * (2 * mp + 1) + mm * (2 * mm + 1)
            else:
                total += mp * mp + mm * mm
        return total
    if fam is SigFamily.SOSTAR_2N:
        return sum(
            mp * mp if t in (1, -1) else mp * mp + mm * mm for t, mp, mm in sig.blocks
        )
    raise OutOfDomain(f"{fam.value} is compact; use signature_dim")


def _partitions(n, cap=None):
    """Nonincreasing positive partitions of n (n = 0 gives the empty one)."""
    cap = n if cap is None else cap
    if n == 0:
        yield ()
        return
    for first in range(min(n, cap), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def _pair_multisets(p, q, single=False):
    """Nonincreasing multisets of pairs (a,b) != (0,0) with componentwise
    sums (p, q); with single=True, the one-block multiset only."""
    if single:
        if (p, q) != (0, 0):
            yield ((p, q),)
        else:
            yield ()
        return
    yield from _pair_rec(p, q, (p, q))


def _pair_rec(p, q, capped):
    if (p, q) == (0, 0):
        yield ()
        return
    for a in range(p, -1, -1):
        for b in range(q, -1, -1):
            if (a, b) == (0, 0) or (a, b) > capped:
                continue
            for rest in _pair_rec(p - a, q - b, (a, b)):
                yield ((a, b),) + rest


def _sum_pairs(total, cap=None):
    """Nonincreasing multisets of pairs (a,b) != (0,0) with sum of all
    a+b equal to total (the so* angle-block shape)."""
    if total == 0:
        yield ()
        return
    if cap is None:
        cap = (total, total)
    for a in range(min(total, cap[0]), -1, -1):
        top = total - a if a < cap[0] else min(total - a, cap[1])
        for b in range(top, -1, -1):
            if (a, b) == (0, 0):
                continue
            for rest in _sum_pairs(total - a - b, (a, b)):
                yield ((a, b),) + rest


def enumerate_signatures(family: SigFamily, params, order_le_4: bool = False):
    """All valid (non-central) signatures; order_le_4 keeps at most one
    angle class, so every enumerated element satisfies A^4 = 1."""
    for blocks in _raw_blocks(family, tuple(params), order_le_4):
        sig = Signature(family, tuple(params), blocks)
        try:
            _validate(sig)
        except InvalidSignature:
            continue
        yield sig


def _raw_blocks(family, params, order_le_4):
    if family is SigFamily.SU_N:
        # all tags contribute alike, so one representative per partition
        (n,) = params
        for part in _partitions(n):
            if order_le_4 and len(part) > 4:
                continue
            yield tuple((_tag(i), m, 0) for i, m in enumerate(part))
        return
    if family in (SigFamily.SO_N, SigFamily.SP_N_COMPACT):
        (n,) = params
        weight = 2 if family is SigFamily.SO_N else 1
        for a in range(n + 1):
            for b in range(n - a + 1):
                rem = n - a - b
                if rem % weight:
                    continue
                for angles in _partitions(rem // weight):
                    if order_le_4 and len(angles) > 1:
                        continue
                    yield _assemble(a, b, [(m, 0) for m in angles])
        return
    if family is SigFamily.SU_PQ:
        p, q = params
        for pairs in _pair_multisets(p, q):
            if order_le_4 and len(pairs) > 4:
                continue
            yield tuple((_tag(i), a, b) for i, (a, b) in enumerate(pairs))
        return
    if family in (SigFamily.SP_PQ, SigFamily.SO_PQ):
        p, q = params
        weight = 2 if family is SigFamily.SO_PQ else 1
        for ap in range(p + 1):
            for aq in range(q + 1):
                for bp in range(p - ap + 1):
                    for bq in range(q - aq + 1):
                        rp, rq = p - ap - bp, q - aq - bq
                        if rp % weight or rq % weight:
                            continue
                        for angles in _pair_multisets(
                            rp // weight, rq // weight, single=order_le_4
                        ):
                            yield _assemble(None, None, angles, (ap, aq), (bp, bq))
        return
    if family is SigFamily.SOSTAR_2N:
        (n,) = params
        for mp in range(n + 1):
            for mm in range(n - mp + 1):
                for angles in _sum_pairs(n - mp - mm):
                    if order_le_4 and len(angles) > 1:
                        continue
                    yield _assemble(mp, mm, angles)
        return
    raise OutOfDomain(f"cannot enumerate {family.value}")


def _assemble(a, b, angles, pair_a=None, pair_b=None):
    blocks = []
    if pair_a is not None:
        if pair_a != (0, 0):
            blocks.append((1, pair_a[0], pair_a[1]))
        if pair_b != (0, 0):
            blocks.append((-1, pair_b[0], pair_b[1]))
    else:
        if a:
            blocks.append((1, a, 0))
        if b:
            blocks.append((-1, b, 0))
    for i, (mp, mm) in enumerate(angles):
        blocks.append((2 + i, mp, mm))
    return tuple(blocks)


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
    componentwise sum (i, j), the shapes `_pair_multisets` builds."""
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
    """Exact number of block tuples `enumerate_signatures` builds and tests
    for nonnegative (family, params), capped at ENUMERATION_BUDGET + 1.

    Each count is at least the product, over the size parameters n, of the
    partition numbers p(n // weight): the candidates that split each size
    into blocks on its own.  So a partition number past the budget settles
    the answer, and the exact counts below only ever run on small sizes.
    """
    over = ENUMERATION_BUDGET + 1
    if family is SigFamily.SOSTAR_2N:
        # angle blocks of total multiplicity k come in k + 1 shapes (a, k - a)
        (n,) = params
        angles = _multiset_counts(n, lambda k: k + 1)
        if angles[-1] > ENUMERATION_BUDGET:
            return over
        return min(sum((n - r + 1) * angles[r] for r in range(n + 1)), over)
    weight = 2 if family in (SigFamily.SO_N, SigFamily.SO_PQ) else 1
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


def _tag(i):
    return (1, -1)[i] if i < 2 else i


def oracle_max(family: SigFamily, params):
    """Exhaustive maximum of signature_dim and the attaining signature.

    Only defined for the families with a closed-form bound.  Ties are
    broken toward the lexicographically largest block tuple so the
    witness is independent of enumeration order.  Raises OutOfDomain,
    before enumerating, when more than ENUMERATION_BUDGET candidate
    signatures would be built.
    """
    bound(family, params)  # domain gate only
    if _candidate_count(family, tuple(params)) > ENUMERATION_BUDGET:
        raise OutOfDomain(
            f"{family.value}{tuple(params)}: more than the enumeration budget of "
            f"{ENUMERATION_BUDGET} candidate signatures"
        )
    best = None
    best_key = None
    for sig in enumerate_signatures(family, params):
        key = (_dim(sig), sig.blocks)
        if best_key is None or key > best_key:
            best_key, best = key, sig
    if best is None:
        raise OutOfDomain(f"no non-central classes for {family.value}{tuple(params)}")
    return best_key[0], best
