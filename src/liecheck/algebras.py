"""Catalog of simple and reductive real Lie algebras.

Every algebra handled anywhere in the package goes through `algebra()`,
which normalizes parameters and rewrites the low-rank coincidences
(A1, B2=C2, A3=D3, so(4)-type splits) to a single representative, so two
isomorphic inputs compare equal afterwards.  The chosen representatives:

  * rank-1 coincidences        -> sl(2,R) / sl(2,C) / su(2)
  * B2=C2 (real and compact)   -> the so(p,q) / so(n) side
  * B2=C2 (complex)            -> sp(4,C)
  * A3=D3 (real and compact)   -> so(p,q) / so*(6) / so(6)
  * A3=D3 (complex)            -> sl(4,C)
  * so(2,2), so(4,C), so*(4)   -> sums of rank-1 pieces
  * so(2)-likes                -> abelian summands of a ReductiveAlgebra

so*(8) and so(2,6) are isomorphic through triality but are kept as two
catalog points; each side's data is stored under its own name, matching
the per-family classification tables.

Dimension formulas for the classical families are the textbook closed
forms; real ranks are the standard split ranks.  The exceptional entries
are constants.  Everything is exact integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache


class OutOfDomain(ValueError):
    """Parameters outside a family's domain, or a simple algebra required."""


class Family(Enum):
    # noncompact classical
    SL_R = "sl_r"          # sl(n,R)
    SL_H = "sl_h"          # sl(n,H), quaternionic n x n
    SU = "su"              # su(p,q)
    SO = "so"              # so(p,q)
    SP_R = "sp_r"          # sp(2n,R), stored param n
    SP = "sp"              # sp(p,q)
    SO_STAR = "so_star"    # so*(2n), stored param n
    # complex simple viewed as real
    SL_C = "sl_c"
    SO_C = "so_c"
    SP_C = "sp_c"          # sp(2n,C), stored param n
    G2_C = "g2_c"
    F4_C = "f4_c"
    E6_C = "e6_c"
    E7_C = "e7_c"
    E8_C = "e8_c"
    # compact forms
    SU_CPT = "su_cpt"
    SO_CPT = "so_cpt"
    SP_CPT = "sp_cpt"
    G2_CPT = "g2_cpt"
    F4_CPT = "f4_cpt"
    E6_CPT = "e6_cpt"
    E7_CPT = "e7_cpt"
    E8_CPT = "e8_cpt"
    # noncompact exceptional real forms
    G2_2 = "g2_2"
    F4_4 = "f4_4"
    F4_M20 = "f4_m20"
    E6_6 = "e6_6"
    E6_2 = "e6_2"
    E6_M14 = "e6_m14"
    E6_M26 = "e6_m26"
    E7_7 = "e7_7"
    E7_M5 = "e7_m5"
    E7_M25 = "e7_m25"
    E8_8 = "e8_8"
    E8_M24 = "e8_m24"

    # members compare by identity, so the identity hash is consistent with
    # equality; it replaces Enum's Python-level hash(self._name_)
    __hash__ = object.__hash__


COMPLEX_CLASSICAL = frozenset({Family.SL_C, Family.SO_C, Family.SP_C})
COMPLEX_EXCEPTIONAL = frozenset(
    {Family.G2_C, Family.F4_C, Family.E6_C, Family.E7_C, Family.E8_C}
)
COMPLEX = COMPLEX_CLASSICAL | COMPLEX_EXCEPTIONAL
COMPACT = frozenset(
    {
        Family.SU_CPT,
        Family.SO_CPT,
        Family.SP_CPT,
        Family.G2_CPT,
        Family.F4_CPT,
        Family.E6_CPT,
        Family.E7_CPT,
        Family.E8_CPT,
    }
)
REAL_EXCEPTIONAL = frozenset(
    {
        Family.G2_2,
        Family.F4_4,
        Family.F4_M20,
        Family.E6_6,
        Family.E6_2,
        Family.E6_M14,
        Family.E6_M26,
        Family.E7_7,
        Family.E7_M5,
        Family.E7_M25,
        Family.E8_8,
        Family.E8_M24,
    }
)

_TWO_PARAM = frozenset({Family.SU, Family.SO, Family.SP})
_ONE_PARAM = frozenset(
    {
        Family.SL_R,
        Family.SL_H,
        Family.SP_R,
        Family.SO_STAR,
        Family.SL_C,
        Family.SO_C,
        Family.SP_C,
        Family.SU_CPT,
        Family.SO_CPT,
        Family.SP_CPT,
    }
)


@dataclass(frozen=True, slots=True)
class SimpleAlgebra:
    family: Family
    params: tuple[int, ...] = ()


@dataclass(frozen=True, slots=True)
class ReductiveAlgebra:
    """Multiset of simple factors plus abelian summands.

    A gl(k,C)-style complex abelian summand is stored as one compact plus
    one split dimension.
    """

    simples: tuple[SimpleAlgebra, ...] = ()
    compact_abelian_dim: int = 0
    split_abelian_dim: int = 0


@dataclass(frozen=True, slots=True)
class SpaceDims:
    dim_g: int
    dim_k: int
    dim_s: int
    rk_r: int
    rk_cpt: int


class OutIso(Enum):
    TRIVIAL = "trivial"
    Z2 = "Z2"
    Z2xZ2 = "Z2xZ2"
    S3xZ2 = "S3xZ2"
    D4 = "D4"
    S4 = "S4"


_OUT_EXPONENT = {
    OutIso.TRIVIAL: 1,
    OutIso.Z2: 2,
    OutIso.Z2xZ2: 2,
    OutIso.S3xZ2: 6,
    OutIso.D4: 4,
    OutIso.S4: 12,
}


@dataclass(frozen=True)
class OutGroup:
    iso_type: OutIso
    exponent: int
    all_order_le_2: bool


# plain dict lookup: Enum's `value` is a Python-level property, and this
# key runs once per factor of every direct sum
_FAMILY_VALUE = {f: f.value for f in Family}


def _factor_key(a):
    return (_FAMILY_VALUE[a.family], a.params)


def reductive(simples=(), compact_abelian=0, split_abelian=0):
    simples = tuple(simples)
    if len(simples) > 1:
        simples = tuple(sorted(simples, key=_factor_key))
    return ReductiveAlgebra(simples, compact_abelian, split_abelian)


def direct_sum(*parts: ReductiveAlgebra) -> ReductiveAlgebra:
    simples = []
    c = s = 0
    for part in parts:
        simples.extend(part.simples)
        c += part.compact_abelian_dim
        s += part.split_abelian_dim
    return reductive(simples, c, s)


TRIVIAL_ALGEBRA = ReductiveAlgebra()
COMPACT_LINE = ReductiveAlgebra(compact_abelian_dim=1)
SPLIT_LINE = ReductiveAlgebra(split_abelian_dim=1)


def _raw(family, *params):
    return ReductiveAlgebra((SimpleAlgebra(family, params),))


@lru_cache(maxsize=None, typed=True)
def algebra(family: Family, *params: int) -> ReductiveAlgebra:
    """Canonical ReductiveAlgebra for the named family and parameters.

    Parameters must be ``int`` (``bool`` and ``float`` are rejected).  The
    result is a shared immutable value: equal arguments return the same
    object.  ``typed=True`` keeps ``algebra(F, 2.0)`` from hitting the
    cache entry of ``algebra(F, 2)``; errors are never cached, so invalid
    input raises on every call.
    """
    if any(type(x) is not int for x in params):
        raise OutOfDomain(f"{family.value}{params}: parameters must be int")
    if family in _TWO_PARAM:
        if len(params) != 2:
            raise OutOfDomain(f"{family.value} takes (p, q), got {params}")
        p, q = params
        if p < 0 or q < 0 or p + q < 1:
            raise OutOfDomain(f"{family.value}{params}: sizes must be nonnegative, not both zero")
        if p > q:
            p, q = q, p
        return _CANON_TWO[family](p, q)
    if family in _ONE_PARAM:
        if len(params) != 1:
            raise OutOfDomain(f"{family.value} takes one parameter, got {params}")
        (n,) = params
        if n < 1:
            raise OutOfDomain(f"{family.value}({n}): size must be >= 1")
        return _CANON_ONE[family](n)
    if params:
        raise OutOfDomain(f"{family.value} takes no parameters, got {params}")
    return _raw(family)


def simple(family: Family, *params: int) -> SimpleAlgebra:
    """Like algebra(), but the result must be one simple factor."""
    red = algebra(family, *params)
    if len(red.simples) != 1 or red.compact_abelian_dim or red.split_abelian_dim:
        raise OutOfDomain(
            f"{family.value}{tuple(params)} is not simple (canonically {render(red)})"
        )
    return red.simples[0]


def _canon_su_cpt(n):
    if n == 1:
        return TRIVIAL_ALGEBRA
    if n == 4:
        return _raw(Family.SO_CPT, 6)
    return _raw(Family.SU_CPT, n)


def _canon_so_cpt(n):
    if n == 1:
        return TRIVIAL_ALGEBRA
    if n == 2:
        return COMPACT_LINE
    if n == 3:
        return _raw(Family.SU_CPT, 2)
    if n == 4:
        return direct_sum(_raw(Family.SU_CPT, 2), _raw(Family.SU_CPT, 2))
    return _raw(Family.SO_CPT, n)


def _canon_sp_cpt(n):
    if n == 1:
        return _raw(Family.SU_CPT, 2)
    if n == 2:
        return _raw(Family.SO_CPT, 5)
    return _raw(Family.SP_CPT, n)


def _canon_su(p, q):
    if p == 0:
        return _canon_su_cpt(q)
    if (p, q) == (1, 1):
        return _raw(Family.SL_R, 2)
    if (p, q) == (1, 3):
        return _raw(Family.SO_STAR, 3)
    if (p, q) == (2, 2):
        return _raw(Family.SO, 2, 4)
    return _raw(Family.SU, p, q)


def _canon_so(p, q):
    if p == 0:
        return _canon_so_cpt(q)
    if (p, q) == (1, 1):
        return SPLIT_LINE
    if (p, q) == (1, 2):
        return _raw(Family.SL_R, 2)
    if (p, q) == (1, 3):
        return _raw(Family.SL_C, 2)
    if (p, q) == (2, 2):
        return direct_sum(_raw(Family.SL_R, 2), _raw(Family.SL_R, 2))
    return _raw(Family.SO, p, q)


def _canon_sp(p, q):
    if p == 0:
        return _canon_sp_cpt(q)
    if (p, q) == (1, 1):
        return _raw(Family.SO, 1, 4)
    return _raw(Family.SP, p, q)


def _canon_sl_r(n):
    if n == 1:
        return TRIVIAL_ALGEBRA
    if n == 4:
        return _raw(Family.SO, 3, 3)
    return _raw(Family.SL_R, n)


def _canon_sl_h(n):
    if n == 1:
        return _raw(Family.SU_CPT, 2)
    if n == 2:
        return _raw(Family.SO, 1, 5)
    return _raw(Family.SL_H, n)


def _canon_sp_r(n):
    if n == 1:
        return _raw(Family.SL_R, 2)
    if n == 2:
        return _raw(Family.SO, 2, 3)
    return _raw(Family.SP_R, n)


def _canon_so_star(n):
    if n == 1:
        return COMPACT_LINE
    if n == 2:
        return direct_sum(_raw(Family.SL_R, 2), _raw(Family.SU_CPT, 2))
    return _raw(Family.SO_STAR, n)


def _canon_sl_c(n):
    if n == 1:
        return TRIVIAL_ALGEBRA
    return _raw(Family.SL_C, n)


def _canon_so_c(n):
    if n == 1:
        return TRIVIAL_ALGEBRA
    if n == 2:
        return ReductiveAlgebra(compact_abelian_dim=1, split_abelian_dim=1)
    if n == 3:
        return _raw(Family.SL_C, 2)
    if n == 4:
        return direct_sum(_raw(Family.SL_C, 2), _raw(Family.SL_C, 2))
    if n == 5:
        return _raw(Family.SP_C, 2)
    if n == 6:
        return _raw(Family.SL_C, 4)
    return _raw(Family.SO_C, n)


def _canon_sp_c(n):
    if n == 1:
        return _raw(Family.SL_C, 2)
    return _raw(Family.SP_C, n)


_CANON_TWO = {Family.SU: _canon_su, Family.SO: _canon_so, Family.SP: _canon_sp}
_CANON_ONE = {
    Family.SL_R: _canon_sl_r,
    Family.SL_H: _canon_sl_h,
    Family.SP_R: _canon_sp_r,
    Family.SO_STAR: _canon_so_star,
    Family.SL_C: _canon_sl_c,
    Family.SO_C: _canon_so_c,
    Family.SP_C: _canon_sp_c,
    Family.SU_CPT: _canon_su_cpt,
    Family.SO_CPT: _canon_so_cpt,
    Family.SP_CPT: _canon_sp_cpt,
}

# exceptional constants: family -> (dim_g, rank of complexification)
_EXC_BASE = {"g2": (14, 2), "f4": (52, 4), "e6": (78, 6), "e7": (133, 7), "e8": (248, 8)}

# real exceptional forms: family -> (dim_k, rk_r)
_EXC_REAL = {
    Family.G2_2: (6, 2),
    Family.F4_4: (24, 4),
    Family.F4_M20: (36, 1),
    Family.E6_6: (36, 6),
    Family.E6_2: (38, 4),
    Family.E6_M14: (46, 2),
    Family.E6_M26: (52, 2),
    Family.E7_7: (63, 7),
    Family.E7_M5: (69, 4),
    Family.E7_M25: (79, 3),
    Family.E8_8: (120, 8),
    Family.E8_M24: (136, 4),
}

# rank of the maximal compact subalgebra of each real exceptional form
_EXC_RK_CPT = {
    Family.G2_2: 2,
    Family.F4_4: 4,
    Family.F4_M20: 4,
    Family.E6_6: 4,
    Family.E6_2: 6,
    Family.E6_M14: 6,
    Family.E6_M26: 4,
    Family.E7_7: 7,
    Family.E7_M5: 7,
    Family.E7_M25: 7,
    Family.E8_8: 8,
    Family.E8_M24: 8,
}


def _exc_letters(family: Family) -> str:
    return family.value[:2]


@lru_cache(maxsize=None)
def dims(a: SimpleAlgebra) -> SpaceDims:
    fam, params = a.family, a.params
    if fam is Family.SL_R:
        (n,) = params
        g, k = n * n - 1, n * (n - 1) // 2
        return SpaceDims(g, k, g - k, n - 1, n // 2)
    if fam is Family.SL_H:
        (n,) = params
        g, k = 4 * n * n - 1, n * (2 * n + 1)
        return SpaceDims(g, k, g - k, n - 1, n)
    if fam is Family.SU:
        p, q = params
        g, k = (p + q) ** 2 - 1, p * p + q * q - 1
        return SpaceDims(g, k, 2 * p * q, min(p, q), p + q - 1)
    if fam is Family.SO:
        p, q = params
        g = (p + q) * (p + q - 1) // 2
        k = (p * (p - 1) + q * (q - 1)) // 2
        return SpaceDims(g, k, p * q, min(p, q), p // 2 + q // 2)
    if fam is Family.SP_R:
        (n,) = params
        g, k = n * (2 * n + 1), n * n
        return SpaceDims(g, k, n * (n + 1), n, n)
    if fam is Family.SP:
        p, q = params
        m = p + q
        g = m * (2 * m + 1)
        k = p * (2 * p + 1) + q * (2 * q + 1)
        return SpaceDims(g, k, 4 * p * q, min(p, q), m)
    if fam is Family.SO_STAR:
        (n,) = params
        g, k = n * (2 * n - 1), n * n
        return SpaceDims(g, k, n * n - n, n // 2, n)
    if fam in COMPLEX:
        d, r = _complex_dim_rank(fam, params)
        return SpaceDims(2 * d, d, d, r, r)
    if fam in COMPACT:
        d, r = _compact_dim_rank(fam, params)
        return SpaceDims(d, d, 0, 0, r)
    dim_k, rk_r = _EXC_REAL[fam]
    dim_g = _EXC_BASE[_exc_letters(fam)][0]
    return SpaceDims(dim_g, dim_k, dim_g - dim_k, rk_r, _EXC_RK_CPT[fam])


def _complex_dim_rank(fam, params):
    if fam is Family.SL_C:
        (n,) = params
        return n * n - 1, n - 1
    if fam is Family.SO_C:
        (n,) = params
        return n * (n - 1) // 2, n // 2
    if fam is Family.SP_C:
        (n,) = params
        return n * (2 * n + 1), n
    return _EXC_BASE[_exc_letters(fam)]


def _compact_dim_rank(fam, params):
    if fam is Family.SU_CPT:
        (n,) = params
        return n * n - 1, n - 1
    if fam is Family.SO_CPT:
        (n,) = params
        return n * (n - 1) // 2, n // 2
    if fam is Family.SP_CPT:
        (n,) = params
        return n * (2 * n + 1), n
    return _EXC_BASE[_exc_letters(fam)]


def reductive_dims(h: ReductiveAlgebra) -> SpaceDims:
    dim_g = h.compact_abelian_dim + h.split_abelian_dim
    dim_k = h.compact_abelian_dim
    dim_s = h.split_abelian_dim
    rk_r = h.split_abelian_dim
    rk_cpt = h.compact_abelian_dim
    for a in h.simples:
        d = dims(a)
        dim_g += d.dim_g
        dim_k += d.dim_k
        dim_s += d.dim_s
        rk_r += d.rk_r
        rk_cpt += d.rk_cpt
    return SpaceDims(dim_g, dim_k, dim_s, rk_r, rk_cpt)


def is_compact(a: SimpleAlgebra) -> bool:
    return a.family in COMPACT


def is_complex(a: SimpleAlgebra) -> bool:
    return a.family in COMPLEX


_MAX_COMPACT_EXC = {
    Family.G2_2: lambda: direct_sum(algebra(Family.SU_CPT, 2), algebra(Family.SU_CPT, 2)),
    Family.F4_4: lambda: direct_sum(algebra(Family.SP_CPT, 3), algebra(Family.SU_CPT, 2)),
    Family.F4_M20: lambda: algebra(Family.SO_CPT, 9),
    Family.E6_6: lambda: algebra(Family.SP_CPT, 4),
    Family.E6_2: lambda: direct_sum(algebra(Family.SU_CPT, 6), algebra(Family.SU_CPT, 2)),
    Family.E6_M14: lambda: direct_sum(algebra(Family.SO_CPT, 10), COMPACT_LINE),
    Family.E6_M26: lambda: algebra(Family.F4_CPT),
    Family.E7_7: lambda: algebra(Family.SU_CPT, 8),
    Family.E7_M5: lambda: direct_sum(algebra(Family.SO_CPT, 12), algebra(Family.SU_CPT, 2)),
    Family.E7_M25: lambda: direct_sum(algebra(Family.E6_CPT), COMPACT_LINE),
    Family.E8_8: lambda: algebra(Family.SO_CPT, 16),
    Family.E8_M24: lambda: direct_sum(algebra(Family.E7_CPT), algebra(Family.SU_CPT, 2)),
}

_COMPACT_FORM = {
    Family.SL_C: lambda n: algebra(Family.SU_CPT, n),
    Family.SO_C: lambda n: algebra(Family.SO_CPT, n),
    Family.SP_C: lambda n: algebra(Family.SP_CPT, n),
    Family.G2_C: lambda: algebra(Family.G2_CPT),
    Family.F4_C: lambda: algebra(Family.F4_CPT),
    Family.E6_C: lambda: algebra(Family.E6_CPT),
    Family.E7_C: lambda: algebra(Family.E7_CPT),
    Family.E8_C: lambda: algebra(Family.E8_CPT),
}


def max_compact(a: SimpleAlgebra) -> ReductiveAlgebra:
    """Maximal compact subalgebra, up to isogeny, as a ReductiveAlgebra."""
    fam, params = a.family, a.params
    if fam in COMPACT:
        raise OutOfDomain(f"{render(a)} is already compact")
    if fam is Family.SL_R:
        return algebra(Family.SO_CPT, *params)
    if fam is Family.SL_H:
        return algebra(Family.SP_CPT, *params)
    if fam is Family.SU:
        p, q = params
        return direct_sum(algebra(Family.SU_CPT, p), algebra(Family.SU_CPT, q), COMPACT_LINE)
    if fam is Family.SO:
        p, q = params
        return direct_sum(algebra(Family.SO_CPT, p), algebra(Family.SO_CPT, q))
    if fam in (Family.SP_R, Family.SO_STAR):
        (n,) = params
        return direct_sum(algebra(Family.SU_CPT, n), COMPACT_LINE)
    if fam is Family.SP:
        p, q = params
        return direct_sum(algebra(Family.SP_CPT, p), algebra(Family.SP_CPT, q))
    if fam in COMPLEX:
        return _COMPACT_FORM[fam](*params)
    return _MAX_COMPACT_EXC[fam]()


def complexify(a: SimpleAlgebra) -> ReductiveAlgebra:
    """Complexification, canonicalized; a complex algebra doubles."""
    fam, params = a.family, a.params
    if fam in COMPLEX:
        return reductive((a, a))
    if fam is Family.SL_R:
        return algebra(Family.SL_C, *params)
    if fam is Family.SL_H:
        return algebra(Family.SL_C, 2 * params[0])
    if fam in (Family.SU, Family.SU_CPT):
        return algebra(Family.SL_C, sum(params))
    if fam in (Family.SO, Family.SO_CPT):
        return algebra(Family.SO_C, sum(params))
    if fam in (Family.SP_R, Family.SP_CPT):
        return algebra(Family.SP_C, *params)
    if fam is Family.SP:
        return algebra(Family.SP_C, sum(params))
    if fam is Family.SO_STAR:
        return algebra(Family.SO_C, 2 * params[0])
    letters = _exc_letters(fam)
    return algebra(Family[letters.upper() + "_C"])


def out_group(a: SimpleAlgebra) -> OutGroup:
    iso = _out_iso(a)
    return OutGroup(iso, _OUT_EXPONENT[iso], iso in (OutIso.TRIVIAL, OutIso.Z2, OutIso.Z2xZ2))


def _out_iso(a: SimpleAlgebra) -> OutIso:
    fam, params = a.family, a.params
    if fam is Family.SL_C:
        return OutIso.Z2 if params[0] == 2 else OutIso.Z2xZ2
    if fam is Family.SO_C:
        (n,) = params
        if n == 8:
            return OutIso.S3xZ2
        return OutIso.Z2 if n % 2 else OutIso.Z2xZ2
    if fam is Family.E6_C:
        return OutIso.Z2xZ2
    if fam in COMPLEX:
        return OutIso.Z2
    if fam is Family.SL_R:
        (n,) = params
        return OutIso.Z2 if n == 2 or n % 2 else OutIso.Z2xZ2
    if fam is Family.SU:
        p, q = params
        return OutIso.Z2xZ2 if p == q else OutIso.Z2
    if fam is Family.SL_H:
        return OutIso.Z2
    if fam is Family.SO:
        p, q = params
        if (p, q) == (3, 3):
            # canonical name of sl(4,R); follows the sl(n,R) n-even row
            return OutIso.Z2xZ2
        if p == q:
            if p == 4:
                return OutIso.S4
            return OutIso.D4 if p % 2 == 0 else OutIso.Z2xZ2
        if (p + q) % 2 == 1:
            return OutIso.Z2
        return OutIso.Z2 if p % 2 else OutIso.Z2xZ2
    if fam is Family.SP_R or fam is Family.SO_STAR:
        return OutIso.Z2
    if fam is Family.SP:
        p, q = params
        return OutIso.Z2 if p == q else OutIso.TRIVIAL
    if fam in (Family.E6_6, Family.E6_2, Family.E6_M14, Family.E6_M26, Family.E7_7, Family.E7_M25):
        return OutIso.Z2
    return OutIso.TRIVIAL


_EXC_RENDER = {
    Family.G2_2: "g2(2)",
    Family.F4_4: "f4(4)",
    Family.F4_M20: "f4(-20)",
    Family.E6_6: "e6(6)",
    Family.E6_2: "e6(2)",
    Family.E6_M14: "e6(-14)",
    Family.E6_M26: "e6(-26)",
    Family.E7_7: "e7(7)",
    Family.E7_M5: "e7(-5)",
    Family.E7_M25: "e7(-25)",
    Family.E8_8: "e8(8)",
    Family.E8_M24: "e8(-24)",
    Family.G2_CPT: "g2(-14)",
    Family.F4_CPT: "f4(-52)",
    Family.E6_CPT: "e6(-78)",
    Family.E7_CPT: "e7(-133)",
    Family.E8_CPT: "e8(-248)",
    Family.G2_C: "g2(C)",
    Family.F4_C: "f4(C)",
    Family.E6_C: "e6(C)",
    Family.E7_C: "e7(C)",
    Family.E8_C: "e8(C)",
}


@lru_cache(maxsize=None)
def render_simple(a: SimpleAlgebra) -> str:
    fam, params = a.family, a.params
    if fam is Family.SL_R:
        return f"sl({params[0]},R)"
    if fam is Family.SL_H:
        return f"sl({params[0]},H)"
    if fam is Family.SU:
        return f"su({params[0]},{params[1]})"
    if fam is Family.SO:
        return f"so({params[0]},{params[1]})"
    if fam is Family.SP_R:
        return f"sp({2 * params[0]},R)"
    if fam is Family.SP:
        return f"sp({params[0]},{params[1]})"
    if fam is Family.SO_STAR:
        return f"so*({2 * params[0]})"
    if fam is Family.SL_C:
        return f"sl({params[0]},C)"
    if fam is Family.SO_C:
        return f"so({params[0]},C)"
    if fam is Family.SP_C:
        return f"sp({2 * params[0]},C)"
    if fam is Family.SU_CPT:
        return f"su({params[0]})"
    if fam is Family.SO_CPT:
        return f"so({params[0]})"
    if fam is Family.SP_CPT:
        return f"sp({params[0]})"
    return _EXC_RENDER[fam]


def render(x) -> str:
    if isinstance(x, SimpleAlgebra):
        return render_simple(x)
    parts = [render_simple(a) for a in x.simples]
    parts.extend(["u(1)"] * x.compact_abelian_dim)
    parts.extend(["R"] * x.split_abelian_dim)
    return "+".join(parts) if parts else "0"


class ParseError(ValueError):
    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_EXC_PARSE = {v: k for k, v in _EXC_RENDER.items()}


def _parse_token(tok: str, offset: int) -> ReductiveAlgebra:
    tok = tok.strip()
    if tok == "R":
        return SPLIT_LINE
    if tok == "u(1)":
        return COMPACT_LINE
    if tok == "0":
        return TRIVIAL_ALGEBRA
    if tok in _EXC_PARSE:
        return algebra(_EXC_PARSE[tok])
    if not tok.endswith(")") or "(" not in tok:
        raise ParseError(f"cannot parse algebra token {tok!r}", offset)
    head, _, body = tok.partition("(")
    args = [s.strip() for s in body[:-1].split(",")]
    try:
        return _build_token(head.strip(), args)
    except ParseError:
        raise
    except (ValueError, KeyError) as exc:
        if isinstance(exc, OutOfDomain):
            raise
        raise ParseError(f"cannot parse algebra token {tok!r}", offset) from None


def _build_token(head: str, args: list[str]) -> ReductiveAlgebra:
    def ints(k):
        if len(args) != k or not all(s.lstrip("-").isdigit() for s in args):
            raise ValueError(args)
        return [int(s) for s in args]

    if head == "sl":
        if len(args) == 2 and args[1] in ("R", "C", "H"):
            fam = {"R": Family.SL_R, "C": Family.SL_C, "H": Family.SL_H}[args[1]]
            return _require_simple(algebra(fam, int(args[0])))
    elif head == "su":
        if len(args) == 1:
            return _require_simple(algebra(Family.SU_CPT, *ints(1)))
        return _require_simple(algebra(Family.SU, *ints(2)))
    elif head == "so":
        if len(args) == 1:
            return _require_simple(algebra(Family.SO_CPT, *ints(1)))
        if len(args) == 2 and args[1] == "C":
            return _require_simple(algebra(Family.SO_C, int(args[0])))
        return _require_simple(algebra(Family.SO, *ints(2)))
    elif head == "sp":
        if len(args) == 1:
            return _require_simple(algebra(Family.SP_CPT, *ints(1)))
        if len(args) == 2 and args[1] in ("R", "C"):
            size = int(args[0])
            if size % 2:
                raise OutOfDomain(f"sp({size},{args[1]}): matrix size must be even")
            fam = Family.SP_R if args[1] == "R" else Family.SP_C
            return _require_simple(algebra(fam, size // 2))
        return _require_simple(algebra(Family.SP, *ints(2)))
    elif head == "so*":
        (size,) = ints(1)
        if size % 2:
            raise OutOfDomain(f"so*({size}): size must be even")
        return _require_simple(algebra(Family.SO_STAR, size // 2))
    raise ValueError(head)


def _require_simple(red: ReductiveAlgebra) -> ReductiveAlgebra:
    if len(red.simples) > 1:
        raise OutOfDomain(f"not a simple algebra (canonically {render(red)})")
    return red


def parse_algebra(text: str) -> ReductiveAlgebra:
    """Parse a '+'-separated sum of algebra tokens (inverse of render)."""
    parts = []
    offset = 0
    for chunk in text.split("+"):
        if not chunk.strip():
            raise ParseError("empty summand", offset)
        parts.append(_parse_token(chunk, offset))
        offset += len(chunk) + 1
    return direct_sum(*parts)


def iter_noncompact_simple(max_param: int):
    """All canonical noncompact simple algebras with size parameter <= max_param.

    The size parameter is n for sl(n,R)/sl(n,C)/sl(n,H), p+q for the
    (p,q)-families, n for sp(2n,R)/sp(2n,C)/so*(2n) and so(n,C); the
    exceptional forms carry no parameter and are always included.
    """
    for n in range(2, max_param + 1):
        if n != 4:
            yield SimpleAlgebra(Family.SL_R, (n,))
    for n in range(3, max_param + 1):
        yield SimpleAlgebra(Family.SL_H, (n,))
    for p in range(1, max_param + 1):
        for q in range(p, max_param - p + 1):
            if (p, q) not in ((1, 1), (1, 3), (2, 2)):
                yield SimpleAlgebra(Family.SU, (p, q))
    for p in range(1, max_param + 1):
        for q in range(p, max_param - p + 1):
            if (p, q) not in ((1, 1), (1, 2), (1, 3), (2, 2)):
                yield SimpleAlgebra(Family.SO, (p, q))
    for n in range(3, max_param + 1):
        yield SimpleAlgebra(Family.SP_R, (n,))
    for p in range(1, max_param + 1):
        for q in range(p, max_param - p + 1):
            if (p, q) != (1, 1):
                yield SimpleAlgebra(Family.SP, (p, q))
    for n in range(3, max_param + 1):
        yield SimpleAlgebra(Family.SO_STAR, (n,))
    for n in range(2, max_param + 1):
        yield SimpleAlgebra(Family.SL_C, (n,))
    for n in range(7, max_param + 1):
        yield SimpleAlgebra(Family.SO_C, (n,))
    for n in range(2, max_param + 1):
        yield SimpleAlgebra(Family.SP_C, (n,))
    for fam in sorted(COMPLEX_EXCEPTIONAL | REAL_EXCEPTIONAL, key=lambda f: f.value):
        yield SimpleAlgebra(fam, ())
