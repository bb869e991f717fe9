"""Catalog of simple and reductive real Lie algebras.

Every algebra handled anywhere in the package goes through `algebra()`,
which normalizes parameters and rewrites the low-rank coincidences to a
single representative, so two isomorphic inputs compare equal afterwards.
`_COINCIDENCES` lists every coincidence with its representative; a (0, n)
signature of su, so or sp is the compact family's n.

so*(8) and so(2,6) are isomorphic through triality but are kept as two
catalog points; each side's data is stored under its own name, matching
the per-family classification tables.

Simple algebras are interned: `SimpleAlgebra(family, params)` returns the
one object for that key, so equality and hashing are identity.  Each value
computes its `SpaceDims`, its rendered name and its factor sort key once,
when it is first built, and carries them as slots that `dims`, `render`,
`reductive_dims` and `reductive` read.  A `ReductiveAlgebra` is an
immutable named tuple `(simples, compact_abelian_dim, split_abelian_dim)`
that compares and hashes as that tuple; `reductive` puts its simple factors
in sort-key order, so two sums of the same factors are equal.

Each exceptional family is one row of `_EXCEPTIONAL`, each classical one
a row of `_NAMES`, which states its name grammar for `render` and
`parse_algebra` (sizes are ASCII decimal, at most 10**SIZE_CAP_DIGITS).
Rows of both tables state the maximal compact and the complexification;
the family classes (`COMPACT`, `COMPLEX`, `REAL_EXCEPTIONAL`), the (p, q)
families and the catalog order are read off both alike.  A classical real
form's dimensions are read off its row too: dim g from the
complexification, dim K and rk K from the maximal compact, and rk_R from
the row's real-rank rule.  Everything is exact integer arithmetic.

The package refuses arguments by two guards stated here, both raising
OutOfDomain before any message formats the input: `require_simple` for a
simple algebra, `require_ints` for exact ints within the size cap.
"""

from __future__ import annotations

import re
from enum import Enum
from functools import lru_cache
from operator import attrgetter
from typing import NamedTuple


class InputError(ValueError):
    """An input liecheck refuses; the base of every error the CLI reports
    with exit status 2."""


class OutOfDomain(InputError):
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


class _Classical(NamedTuple):
    """One classical family; its related algebras are given by family."""

    head: str
    tag: str | int
    scale: int
    max_compact: tuple[Family, int] | None  # None for the compact forms
    complexification: tuple[Family, int] | None  # None for the complex algebras, which double
    real_rank: tuple[int, int] | None  # None but for the one-parameter real forms


# The classical families.  The tag is the field suffix of a one-parameter
# family named with one, else the number of parameters; scale turns a
# parameter into the printed size, as sp(2n,R) prints 2n.  The max compact
# is K's family at each parameter, with its count of u(1) summands; the
# complexification is a complex family and the factor on the summed size.
# A one-parameter real form's real rank (d, o) is n // d + o at size n; a
# (p, q) family's is min(p, q).
_NAMES = {
    # head, tag, scale, max compact, complexification, real rank
    Family.SL_R: ("sl", "R", 1, (Family.SO_CPT, 0), (Family.SL_C, 1), (1, -1)),
    Family.SL_H: ("sl", "H", 1, (Family.SP_CPT, 0), (Family.SL_C, 2), (1, -1)),
    Family.SU: ("su", 2, 1, (Family.SU_CPT, 1), (Family.SL_C, 1), None),
    Family.SO: ("so", 2, 1, (Family.SO_CPT, 0), (Family.SO_C, 1), None),
    Family.SP_R: ("sp", "R", 2, (Family.SU_CPT, 1), (Family.SP_C, 1), (1, 0)),
    Family.SP: ("sp", 2, 1, (Family.SP_CPT, 0), (Family.SP_C, 1), None),
    Family.SO_STAR: ("so*", 1, 2, (Family.SU_CPT, 1), (Family.SO_C, 2), (2, 0)),
    Family.SL_C: ("sl", "C", 1, (Family.SU_CPT, 0), None, None),
    Family.SO_C: ("so", "C", 1, (Family.SO_CPT, 0), None, None),
    Family.SP_C: ("sp", "C", 2, (Family.SP_CPT, 0), None, None),
    Family.SU_CPT: ("su", 1, 1, None, (Family.SL_C, 1), None),
    Family.SO_CPT: ("so", 1, 1, None, (Family.SO_C, 1), None),
    Family.SP_CPT: ("sp", 1, 1, None, (Family.SP_C, 1), None),
}
_NAMES = {family: _Classical(*row) for family, row in _NAMES.items()}
_NAMED = {(row.head, row.tag): family for family, row in _NAMES.items()}

# the (p, q) families, each with the compact family its (0, n) signature is
_TWO_PARAM = {f: row.max_compact[0] for f, row in _NAMES.items() if row.tag == 2}
_ONE_PARAM = frozenset(_NAMES).difference(_TWO_PARAM)

# Every size (n, or p + q) is at most 10**SIZE_CAP_DIGITS, so each
# dimension and rank has at most about twice as many digits: below the
# 4,300 that Python 3.11 converts from int to str by default.  sl(n,H) and
# so*(2n) complexify to size 2n, so `complexify` refuses them past half
# the cap.
SIZE_CAP_DIGITS = 2000
_SIZE_CAP = 10**SIZE_CAP_DIGITS


def require_ints(values, what: str) -> None:
    """OutOfDomain unless `values`, an iterable read once, are exact ints
    (``bool`` is not) whose sizes total at most 10**SIZE_CAP_DIGITS, checked
    before any message formats one; `what` names them, as "sl_r: sizes"."""
    total = 0
    for x in values:
        if type(x) is not int:
            raise OutOfDomain(f"{what} must be an int, got {type(x).__name__}")
        total += abs(x)
    if total > _SIZE_CAP:
        raise OutOfDomain(f"{what} must total at most 10**{SIZE_CAP_DIGITS}")


def _check_params(family, params):
    """Raise OutOfDomain unless `params` is a tuple in `family`'s domain."""
    if type(family) is not Family:
        raise OutOfDomain(f"expected a Family, got {type(family).__name__}")
    if type(params) is not tuple:
        raise OutOfDomain(f"{family.value}: parameters must be a tuple, not {type(params).__name__}")
    require_ints(params, f"{family.value}: sizes")
    if family in _TWO_PARAM:
        if len(params) != 2:
            raise OutOfDomain(f"{family.value} takes (p, q), got {params}")
        p, q = params
        if p < 0 or q < 0 or p + q < 1:
            raise OutOfDomain(f"{_name(family, params)}: sizes must be nonnegative, not both zero")
    elif family in _ONE_PARAM:
        if len(params) != 1:
            raise OutOfDomain(f"{family.value} takes one parameter, got {params}")
        if params[0] < 1:
            raise OutOfDomain(f"{_name(family, params)}: size must be >= 1")
    elif params:
        raise OutOfDomain(f"{family.value} takes no parameters, got {params}")


_INTERNED = {}


class SimpleAlgebra:
    """One simple algebra, interned on (family, params) by `dict.setdefault`,
    so threads that build one new key at once all get the first object stored.

    Built only from a `Family` and a tuple of exact ints in the family's
    domain (the one `algebra()` enforces, without collapsing coincidences);
    anything else raises OutOfDomain, so no float or bool tuple can alias
    an int one.  `space`, `name` and `sort_key` are computed once, here.
    """

    __slots__ = ("family", "params", "space", "name", "sort_key")

    def __new__(cls, family: Family, params: tuple[int, ...] = ()):
        _check_params(family, params)
        key = (family, params)
        self = _INTERNED.get(key)
        if self is None:
            self = object.__new__(cls)
            for attr, value in (
                ("family", family),
                ("params", params),
                ("space", _space(family, params)),
                ("name", _name(family, params)),
                ("sort_key", (family.value, params)),
            ):
                object.__setattr__(self, attr, value)
            self = _INTERNED.setdefault(key, self)
        return self

    def __setattr__(self, attr, value):
        raise AttributeError(f"cannot assign to field {attr!r}")

    def __delattr__(self, attr):
        raise AttributeError(f"cannot delete field {attr!r}")

    def __reduce__(self):
        return SimpleAlgebra, (self.family, self.params)

    def __repr__(self):
        return f"{type(self).__qualname__}(family={self.family!r}, params={self.params!r})"


class ReductiveAlgebra(NamedTuple):
    """Multiset of simple factors plus abelian summands.

    An immutable named tuple ``(simples, compact_abelian_dim,
    split_abelian_dim)`` that compares and hashes as that tuple.  A
    gl(k,C)-style complex abelian summand is stored as one compact plus one
    split dimension.  Canonical values list their simple factors in
    ``sort_key`` order, as `reductive` and `direct_sum` build them.
    """

    simples: tuple[SimpleAlgebra, ...] = ()
    compact_abelian_dim: int = 0
    split_abelian_dim: int = 0


class SpaceDims(NamedTuple):
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


class OutGroup(NamedTuple):
    iso_type: OutIso
    exponent: int


_SORT_KEY = attrgetter("sort_key")


def reductive(simples=(), compact_abelian=0, split_abelian=0):
    """The ReductiveAlgebra of these factors, in sort-key order, and abelian dims."""
    return ReductiveAlgebra(tuple(sorted(simples, key=_SORT_KEY)), compact_abelian, split_abelian)


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


def algebra(family: Family, *params: int) -> ReductiveAlgebra:
    """Canonical ReductiveAlgebra for the named family and parameters.

    Parameters must be ``int`` (``bool`` and ``float`` are rejected).  The
    result is a shared immutable value: equal arguments return the same
    object.  Its cache, `_canonical`, hashes the arguments before checking
    them, so an unhashable one is refused here: `_check_params` accepts
    only hashable arguments, and any other TypeError is raised as it came.
    """
    try:
        return _canonical(family, *params)
    except TypeError:
        _check_params(family, params)
        raise


@lru_cache(maxsize=None, typed=True)
def _canonical(family, *params):
    """`algebra`'s cache; ``typed=True`` keeps 2.0 off the entry of 2, and
    errors are never cached, so invalid input raises on every call."""
    _check_params(family, params)
    if family in _TWO_PARAM:
        p, q = sorted(params)
        if p == 0:
            return _canonical(_TWO_PARAM[family], q)
        params = (p, q)
    coincidence = _COINCIDENCES.get((family, params))
    if coincidence is not None:
        return parse_algebra(coincidence)
    return ReductiveAlgebra((SimpleAlgebra(family, params),))


def simple(family: Family, *params: int) -> SimpleAlgebra:
    """Like algebra(), but the result must be one simple factor."""
    return require_simple(algebra(family, *params))


# `render` writes each abelian dimension as that many `u(1)` or `R` terms,
# so a well-formed sum has at most this many of each
ABELIAN_CAP = 4096


def _is_well_formed_sum(x) -> bool:
    """True if `x` is a well-formed ReductiveAlgebra: a tuple of SimpleAlgebra
    factors and two exact int abelian dimensions (``bool`` is not one) in
    0..ABELIAN_CAP."""
    return (
        type(x) is ReductiveAlgebra
        and type(x.simples) is tuple
        and all(type(a) is SimpleAlgebra for a in x.simples)
        and type(x.compact_abelian_dim) is int
        and type(x.split_abelian_dim) is int
        and 0 <= x.compact_abelian_dim <= ABELIAN_CAP
        and 0 <= x.split_abelian_dim <= ABELIAN_CAP
    )


def as_simple(x) -> SimpleAlgebra | None:
    """`x` if a SimpleAlgebra, the one summand of a well-formed
    ReductiveAlgebra with no abelian part, else None."""
    if type(x) is SimpleAlgebra:
        return x
    if _is_well_formed_sum(x) and len(x.simples) == 1 and x[1:] == (0, 0):
        return x.simples[0]
    return None


def require_simple(x) -> SimpleAlgebra:
    """`as_simple(x)`, or OutOfDomain naming x's sum or type, never its ints;
    a malformed sum is named by its type and never rendered."""
    a = as_simple(x)
    if a is None:
        got = render(x) if _is_well_formed_sum(x) else type(x).__name__
        raise OutOfDomain(f"a single simple algebra is required, got {got}")
    return a


# Low-rank coincidences: (family, params) -> the canonical value, by name.
# Rank one goes to sl(2,R), sl(2,C) or su(2); B2=C2 to the so side, but
# sp(4,C) when complex; A3=D3 to the so side, but sl(4,C) when complex; D2
# to a sum of rank-one pieces, and so(2)-likes to abelian summands.  The
# (p, q) keys are sorted, with p >= 1.
_COINCIDENCES = {
    (Family.SU_CPT, (1,)): "0",
    (Family.SU_CPT, (4,)): "so(6)",
    (Family.SO_CPT, (1,)): "0",
    (Family.SO_CPT, (2,)): "u(1)",
    (Family.SO_CPT, (3,)): "su(2)",
    (Family.SO_CPT, (4,)): "su(2)+su(2)",
    (Family.SP_CPT, (1,)): "su(2)",
    (Family.SP_CPT, (2,)): "so(5)",
    (Family.SU, (1, 1)): "sl(2,R)",
    (Family.SU, (1, 3)): "so*(6)",
    (Family.SU, (2, 2)): "so(2,4)",
    (Family.SO, (1, 1)): "R",
    (Family.SO, (1, 2)): "sl(2,R)",
    (Family.SO, (1, 3)): "sl(2,C)",
    (Family.SO, (2, 2)): "sl(2,R)+sl(2,R)",
    (Family.SP, (1, 1)): "so(1,4)",
    (Family.SL_R, (1,)): "0",
    (Family.SL_R, (4,)): "so(3,3)",
    (Family.SL_H, (1,)): "su(2)",
    (Family.SL_H, (2,)): "so(1,5)",
    (Family.SP_R, (1,)): "sl(2,R)",
    (Family.SP_R, (2,)): "so(2,3)",
    (Family.SO_STAR, (1,)): "u(1)",
    (Family.SO_STAR, (2,)): "sl(2,R)+su(2)",
    (Family.SL_C, (1,)): "0",
    (Family.SO_C, (1,)): "0",
    (Family.SO_C, (2,)): "u(1)+R",
    (Family.SO_C, (3,)): "sl(2,C)",
    (Family.SO_C, (4,)): "sl(2,C)+sl(2,C)",
    (Family.SO_C, (5,)): "sp(4,C)",
    (Family.SO_C, (6,)): "sl(4,C)",
    (Family.SP_C, (1,)): "sl(2,C)",
}


class _Exceptional(NamedTuple):
    """One exceptional family; its related algebras are given by name."""

    name: str
    dim_g: int
    dim_k: int
    rk_r: int
    rk_cpt: int
    max_compact: str | None  # None for the compact forms
    complexification: str | None  # None for the complex algebras, which double
    out: OutIso


_EXCEPTIONAL = {
    # name, dim g, dim K, rk_R, rk K, max compact, complexification, Out type
    Family.G2_C: ("g2(C)", 28, 14, 2, 2, "g2(-14)", None, OutIso.Z2),
    Family.G2_CPT: ("g2(-14)", 14, 14, 0, 2, None, "g2(C)", OutIso.TRIVIAL),
    Family.G2_2: ("g2(2)", 14, 6, 2, 2, "su(2)+su(2)", "g2(C)", OutIso.TRIVIAL),
    Family.F4_C: ("f4(C)", 104, 52, 4, 4, "f4(-52)", None, OutIso.Z2),
    Family.F4_CPT: ("f4(-52)", 52, 52, 0, 4, None, "f4(C)", OutIso.TRIVIAL),
    Family.F4_4: ("f4(4)", 52, 24, 4, 4, "sp(3)+su(2)", "f4(C)", OutIso.TRIVIAL),
    Family.F4_M20: ("f4(-20)", 52, 36, 1, 4, "so(9)", "f4(C)", OutIso.TRIVIAL),
    Family.E6_C: ("e6(C)", 156, 78, 6, 6, "e6(-78)", None, OutIso.Z2xZ2),
    Family.E6_CPT: ("e6(-78)", 78, 78, 0, 6, None, "e6(C)", OutIso.TRIVIAL),
    Family.E6_6: ("e6(6)", 78, 36, 6, 4, "sp(4)", "e6(C)", OutIso.Z2),
    Family.E6_2: ("e6(2)", 78, 38, 4, 6, "su(6)+su(2)", "e6(C)", OutIso.Z2),
    Family.E6_M14: ("e6(-14)", 78, 46, 2, 6, "so(10)+u(1)", "e6(C)", OutIso.Z2),
    Family.E6_M26: ("e6(-26)", 78, 52, 2, 4, "f4(-52)", "e6(C)", OutIso.Z2),
    Family.E7_C: ("e7(C)", 266, 133, 7, 7, "e7(-133)", None, OutIso.Z2),
    Family.E7_CPT: ("e7(-133)", 133, 133, 0, 7, None, "e7(C)", OutIso.TRIVIAL),
    Family.E7_7: ("e7(7)", 133, 63, 7, 7, "su(8)", "e7(C)", OutIso.Z2),
    Family.E7_M5: ("e7(-5)", 133, 69, 4, 7, "so(12)+su(2)", "e7(C)", OutIso.TRIVIAL),
    Family.E7_M25: ("e7(-25)", 133, 79, 3, 7, "e6(-78)+u(1)", "e7(C)", OutIso.Z2),
    Family.E8_C: ("e8(C)", 496, 248, 8, 8, "e8(-248)", None, OutIso.Z2),
    Family.E8_CPT: ("e8(-248)", 248, 248, 0, 8, None, "e8(C)", OutIso.TRIVIAL),
    Family.E8_8: ("e8(8)", 248, 120, 8, 8, "so(16)", "e8(C)", OutIso.TRIVIAL),
    Family.E8_M24: ("e8(-24)", 248, 136, 4, 8, "e7(-133)+su(2)", "e8(C)", OutIso.TRIVIAL),
}
_EXCEPTIONAL = {family: _Exceptional(*row) for family, row in _EXCEPTIONAL.items()}
_EXCEPTIONAL_NAMED = {row.name: family for family, row in _EXCEPTIONAL.items()}

# The family classes, read off both tables alike: the complex algebras are
# the rows with no complexification, the compact ones those with no max compact.
COMPLEX_CLASSICAL = frozenset(f for f, row in _NAMES.items() if row.complexification is None)
COMPLEX_EXCEPTIONAL = frozenset(f for f, row in _EXCEPTIONAL.items() if row.complexification is None)
COMPLEX = COMPLEX_CLASSICAL | COMPLEX_EXCEPTIONAL
COMPACT = frozenset(
    f for table in (_NAMES, _EXCEPTIONAL) for f, row in table.items() if row.max_compact is None
)
REAL_EXCEPTIONAL = frozenset(_EXCEPTIONAL).difference(COMPACT, COMPLEX_EXCEPTIONAL)


def dims(a: SimpleAlgebra) -> SpaceDims:
    return require_simple(a).space


def _space(fam, params):
    if fam in _EXCEPTIONAL:
        row = _EXCEPTIONAL[fam]
        return SpaceDims(row.dim_g, row.dim_k, row.dim_g - row.dim_k, row.rk_r, row.rk_cpt)
    row = _NAMES[fam]
    if row.max_compact is None:
        d, r = _dim_rank(fam, *params)
        return SpaceDims(d, d, 0, 0, r)
    if row.complexification is None:
        d, r = _dim_rank(fam, *params)
        return SpaceDims(2 * d, d, d, r, r)
    # a classical real form, read off its row
    family, factor = row.complexification
    g = _dim_rank(family, factor * sum(params))[0]
    family, lines = row.max_compact
    k = rk_cpt = lines
    for n in params:
        d, r = _dim_rank(family, n)
        k += d
        rk_cpt += r
    if row.real_rank is None:
        rk_r = min(params)
    else:
        d, o = row.real_rank
        rk_r = params[0] // d + o
    return SpaceDims(g, k, g - k, rk_r, rk_cpt)


def _dim_rank(fam, n):
    """(dim, rank) of the classical complex or compact simple algebra of
    family `fam` at size n: sl(n,C) or su(n), so(n,C) or so(n), sp(2n,C) or
    sp(n).  su(0) counts as (-1, -1), so su(0)+su(q)+u(1) is su(q)."""
    if fam in (Family.SL_C, Family.SU_CPT):
        return n * n - 1, n - 1
    if fam in (Family.SO_C, Family.SO_CPT):
        return n * (n - 1) // 2, n // 2
    return n * (2 * n + 1), n


def reductive_dims(h: ReductiveAlgebra) -> SpaceDims:
    rk_cpt = dim_k = h.compact_abelian_dim
    rk_r = dim_s = h.split_abelian_dim
    dim_g = dim_k + dim_s
    for a in h.simples:
        g, k, s, r, c = a.space
        dim_g += g
        dim_k += k
        dim_s += s
        rk_r += r
        rk_cpt += c
    return SpaceDims(dim_g, dim_k, dim_s, rk_r, rk_cpt)


def is_compact(a: SimpleAlgebra) -> bool:
    return require_simple(a).family in COMPACT


def is_complex(a: SimpleAlgebra) -> bool:
    return require_simple(a).family in COMPLEX


def max_compact(a: SimpleAlgebra) -> ReductiveAlgebra:
    """Maximal compact subalgebra, up to isogeny, as a ReductiveAlgebra."""
    a = require_simple(a)
    fam, params = a.family, a.params
    if fam in COMPACT:
        raise OutOfDomain(f"{render(a)} is already compact")
    if fam in _EXCEPTIONAL:
        return parse_algebra(_EXCEPTIONAL[fam].max_compact)
    family, lines = _NAMES[fam].max_compact
    parts = [algebra(family, n) for n in params]
    if len(parts) > 1 or lines:
        return direct_sum(*parts, *(COMPACT_LINE,) * lines)
    return parts[0]  # `algebra`'s value as it is, with no `reductive` call


def complexify(a: SimpleAlgebra) -> ReductiveAlgebra:
    """Complexification, canonicalized; a complex algebra doubles."""
    a = require_simple(a)
    fam = a.family
    if fam in COMPLEX:
        return reductive((a, a))
    if fam in _EXCEPTIONAL:
        return parse_algebra(_EXCEPTIONAL[fam].complexification)
    family, factor = _NAMES[fam].complexification
    return algebra(family, factor * sum(a.params))


def real_forms(a: SimpleAlgebra) -> tuple[str, ...]:
    """Names of the noncompact exceptional forms whose complexification is
    `a`, in `_EXCEPTIONAL` row order; empty unless `a` is complex exceptional."""
    return tuple(
        row.name
        for fam, row in _EXCEPTIONAL.items()
        if fam not in COMPACT and row.complexification == a.name
    )


def out_group(a: SimpleAlgebra) -> OutGroup:
    """The outer automorphism group of `a`: its isomorphism type and its
    exponent, the lcm of the element orders (so every element has order
    at most 2 exactly when ``exponent <= 2``)."""
    iso = _out_iso(require_simple(a))
    return OutGroup(iso, _OUT_EXPONENT[iso])


def _out_iso(a: SimpleAlgebra) -> OutIso:
    fam, params = a.family, a.params
    if fam in _EXCEPTIONAL:
        return _EXCEPTIONAL[fam].out
    if fam is Family.SL_C:
        return OutIso.Z2 if params[0] == 2 else OutIso.Z2xZ2
    if fam is Family.SO_C:
        (n,) = params
        if n == 8:
            return OutIso.S3xZ2
        return OutIso.Z2 if n % 2 else OutIso.Z2xZ2
    if fam is Family.SP_C:
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
    return OutIso.TRIVIAL


def _name(fam, params):
    if fam in _EXCEPTIONAL:
        return _EXCEPTIONAL[fam].name
    row = _NAMES[fam]
    args = [str(row.scale * x) for x in params]
    if isinstance(row.tag, str):
        args.append(row.tag)
    return f"{row.head}({','.join(args)})"


def render(x) -> str:
    if isinstance(x, SimpleAlgebra):
        return x.name
    simples, c, s = x
    parts = [a.name for a in simples]
    if c:
        parts += ["u(1)"] * c
    if s:
        parts += ["R"] * s
    return "+".join(parts) or "0"


class ParseError(InputError):
    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# a size: ASCII decimal digits, so that no other digit or underscore form
# reaches int(); a minus sign parses, and algebra() refuses the size
_SIZE = re.compile(r"-?[0-9]+")


def _parse_token(tok: str, offset: int) -> ReductiveAlgebra:
    tok = tok.strip()
    if tok == "R":
        return SPLIT_LINE
    if tok == "u(1)":
        return COMPACT_LINE
    if tok == "0":
        return TRIVIAL_ALGEBRA
    if tok in _EXCEPTIONAL_NAMED:
        return algebra(_EXCEPTIONAL_NAMED[tok])
    if not tok.endswith(")") or "(" not in tok:
        raise ParseError(f"cannot parse algebra token {tok!r}", offset)
    head, _, body = tok.partition("(")
    args = [s.strip() for s in body[:-1].split(",")]
    try:
        return _build_token(head.strip(), args)
    except OutOfDomain:
        raise
    except (ValueError, KeyError):
        raise ParseError(f"cannot parse algebra token {tok!r}", offset) from None


def _build_token(head: str, args: list[str]) -> ReductiveAlgebra:
    """The algebra `_NAMES` calls head(args); KeyError or ValueError if none."""
    if len(args) == 2 and (head, args[1]) in _NAMED:
        family, sizes = _NAMED[head, args[1]], args[:1]
    else:
        family, sizes = _NAMED[head, len(args)], args
    if not all(_SIZE.fullmatch(s) for s in sizes):
        raise ValueError(sizes)
    scale = _NAMES[family].scale
    params = [int(s) for s in sizes]
    if any(n % scale for n in params):
        raise OutOfDomain(f"{head}({','.join(args)}): matrix size must be even")
    red = algebra(family, *(n // scale for n in params))
    if len(red.simples) > 1:
        raise OutOfDomain(f"not a simple algebra (canonically {render(red)})")
    return red


def parse_algebra(text: str) -> ReductiveAlgebra:
    """Parse a '+'-separated sum of algebra tokens (inverse of render)."""
    if not isinstance(text, str):
        raise ParseError(f"expected a str, got {type(text).__name__}", 0)
    parts = []
    offset = 0
    for chunk in text.split("+"):
        if not chunk.strip():
            raise ParseError("empty summand", offset)
        parts.append(_parse_token(chunk, offset))
        offset += len(chunk) + 1
    return direct_sum(*parts)


def is_canonical(a: SimpleAlgebra) -> bool:
    """True when `algebra()` names `a` as exactly this one factor.

    False for every low-rank coincidence (sl(4,R) is so(3,3), so(1,1) is a
    split line), for swapped (q, p) signatures and for compact (0, n) ones.
    """
    return algebra(a.family, *a.params) == ReductiveAlgebra((a,))


# largest size parameter (see `iter_noncompact_simple`) that sweeps, atlas
# exports and involution rows accept; the catalog grows as its square, and
# the split rows of su(p,q) alone as p*q
SIZE_LIMIT = 64


def require_max_param(max_param: int) -> None:
    """OutOfDomain unless a sweep or export size is an int in 2..SIZE_LIMIT."""
    require_ints((max_param,), "max-param")
    if max_param < 2:
        # no classical family starts below 2; a sweep would check only the
        # exceptional rows and still report PASS
        raise OutOfDomain("max-param must be at least 2, got %d" % max_param)
    if max_param > SIZE_LIMIT:
        raise OutOfDomain("max-param must be at most %d, got %d" % (SIZE_LIMIT, max_param))


# catalog order: the classical noncompact families in `_NAMES` order, then
# the exceptional forms by name
_NONCOMPACT_ORDER = (
    *(f for f in _NAMES if f not in COMPACT),
    *sorted(COMPLEX_EXCEPTIONAL | REAL_EXCEPTIONAL, key=lambda f: f.value),
)


def iter_noncompact_simple(max_param: int):
    """All canonical noncompact simple algebras with size parameter <= max_param.

    The size parameter is n for sl(n,R)/sl(n,C)/sl(n,H), p+q for the
    (p,q)-families, n for sp(2n,R)/sp(2n,C)/so*(2n) and so(n,C); the
    exceptional forms carry no parameter and are always included.  Each
    family runs from size 1 and keeps the parameters that `is_canonical`
    accepts, so the low-rank coincidences are stated only in `algebra()`.
    """
    require_max_param(max_param)
    for fam in _NONCOMPACT_ORDER:
        if fam in _TWO_PARAM:
            sizes = ((p, q) for p in range(1, max_param + 1) for q in range(p, max_param - p + 1))
        elif fam in _ONE_PARAM:
            sizes = ((n,) for n in range(1, max_param + 1))
        else:
            sizes = ((),)
        for params in sizes:
            a = SimpleAlgebra(fam, params)
            if is_canonical(a):
                yield a
