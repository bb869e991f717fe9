"""Fixed-point subalgebras of finite-order automorphisms.

For each noncompact simple algebra this module stores the classification rows
of involution fixed-point sets (linear involutions, and for complex ambient
algebras also the antilinear ones, whose fixed sets are the real forms), plus
one synthetic row for the Cartan involution.  Row templates keep the
free parameters of the printed tables; `instances` holds every admissible
instantiation as a canonical catalog value.

The two forms whose outer automorphism group has order-3 elements carry a
separate list of order-3 fixed-point classes.

The module only reports subalgebras and their dimensions; it does not
construct the automorphisms themselves, and it does not re-derive the
classification.
"""

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .algebras import (
    COMPACT,
    COMPACT_LINE,
    SPLIT_LINE,
    Family,
    ReductiveAlgebra,
    SimpleAlgebra,
    SpaceDims,
    algebra,
    direct_sum,
    max_compact,
    reductive,
    reductive_dims,
    render,
)

__all__ = [
    "IsotropyEntry",
    "Instantiation",
    "TrialityClass",
    "UnsupportedAlgebra",
    "entry_payload",
    "instantiations",
    "isotropy_entries",
    "max_fixed_dim",
    "triality_classes",
]

LINEAR = "linear"
REAL_FORM = "real_form"
CARTAN = "compact"


class UnsupportedAlgebra(ValueError):
    """The ambient algebra has no row set here (compact, or noncanonical)."""


@dataclass(frozen=True)
class IsotropyEntry:
    """One classification row: a template plus its admissible instances."""

    ambient: SimpleAlgebra
    template: str
    constraints: tuple
    source: str
    kind: str
    instances: tuple
    notes: tuple = ()


class Instantiation(NamedTuple):
    entry: IsotropyEntry
    isotropy: ReductiveAlgebra
    space: SpaceDims


@dataclass(frozen=True)
class TrialityClass:
    """A conjugacy class of order-3 automorphisms, named by its fixed set."""

    ambient: SimpleAlgebra
    fixed_algebra: ReductiveAlgebra
    order: int
    kind: str


def _entry(ambient, template, instances, *, source, kind=LINEAR, constraints=(), notes=()):
    ambient_red = reductive((ambient,))
    # distinct splits can still coincide through low-rank isomorphisms
    kept = dict.fromkeys(h for h in instances if h != ambient_red)
    if not kept:
        return None
    return IsotropyEntry(
        ambient, template, tuple(constraints), source, kind, tuple(kept), tuple(notes)
    )


_SPLIT_NOTE = (
    "signature splits across the two summands are assumed componentwise",
)


def _splits(p, q):
    """One (kp, kq) per unordered split of (p, q) into two nonzero parts.

    A split and its complement (p - kp, q - kq) give the same direct sum, and
    the lexicographically smaller of the two comes first in the (kp, kq) loop
    order, so keeping only that one leaves `_entry` with exactly the values,
    in exactly the first-occurrence order, that the loop over every ordered
    split gives after deduplication.
    """
    for kp in range(p + 1):
        for kq in range(q + 1):
            if (0, 0) != (kp, kq) <= (p - kp, q - kq):
                yield kp, kq


def _rows_sl_r(a):
    (n,) = a.params
    src = "sl-family"
    rows = [
        _entry(
            a,
            "so(k,l)",
            [algebra(Family.SO, k, n - k) for k in range(1, n // 2 + 1)],
            source=src,
            constraints=(f"k+l={n}", "1<=k<=l"),
        ),
        _entry(
            a,
            "s(gl(k,R)+gl(l,R))",
            [
                direct_sum(algebra(Family.SL_R, k), algebra(Family.SL_R, n - k), SPLIT_LINE)
                for k in range(1, n // 2 + 1)
            ],
            source=src,
            constraints=(f"k+l={n}", "1<=k<=l"),
        ),
    ]
    if n % 2 == 0:
        rows.append(
            _entry(
                a,
                f"gl({n // 2},C)",
                [direct_sum(algebra(Family.SL_C, n // 2), COMPACT_LINE)],
                source=src,
                constraints=(f"n={n} even",),
            )
        )
        rows.append(
            _entry(
                a,
                f"sp({n},R)",
                [algebra(Family.SP_R, n // 2)],
                source=src,
                constraints=(f"n={n} even",),
            )
        )
    return rows


def _rows_su(a):
    """Rows of su(p,q).

    The split row holds each unordered split once, in first-occurrence order
    (see `_splits`).
    """
    p, q = a.params
    src = "sl-family"
    rows = [_entry(a, f"so({p},{q})", [algebra(Family.SO, p, q)], source=src)]
    if p == q:
        rows.append(
            _entry(a, f"so*({2 * p})", [algebra(Family.SO_STAR, p)], source=src, constraints=("p=q",))
        )
    rows.append(
        _entry(
            a,
            "s(u(kp,kq)+u(lp,lq))",
            [
                direct_sum(
                    algebra(Family.SU, kp, kq),
                    algebra(Family.SU, p - kp, q - kq),
                    COMPACT_LINE,
                )
                for kp, kq in _splits(p, q)
            ],
            source=src,
            constraints=(f"kp+lp={p}", f"kq+lq={q}", "both summands nonzero"),
            notes=_SPLIT_NOTE,
        )
    )
    if p == q:
        rows.append(
            _entry(
                a,
                f"gl({p},C)",
                [direct_sum(algebra(Family.SL_C, p), SPLIT_LINE)],
                source=src,
                constraints=("p=q",),
            )
        )
    if p % 2 == 0 and q % 2 == 0:
        rows.append(
            _entry(
                a,
                f"sp({p // 2},{q // 2})",
                [algebra(Family.SP, p // 2, q // 2)],
                source=src,
                constraints=("p,q even",),
            )
        )
    if p == q:
        rows.append(
            _entry(
                a,
                f"sp({2 * p},R)",
                [algebra(Family.SP_R, p)],
                source=src,
                constraints=("p=q",),
            )
        )
    return rows


def _rows_so(a):
    """Rows of so(p,q).

    The split row holds each unordered split once, in first-occurrence order
    (see `_splits`).
    """
    p, q = a.params
    src = "so-family"
    rows = [
        _entry(
            a,
            "so(kp,kq)+so(lp,lq)",
            [
                direct_sum(algebra(Family.SO, kp, kq), algebra(Family.SO, p - kp, q - kq))
                for kp, kq in _splits(p, q)
            ],
            source=src,
            constraints=(f"kp+lp={p}", f"kq+lq={q}", "both summands nonzero"),
            notes=_SPLIT_NOTE,
        )
    ]
    if p == q:
        rows.append(_entry(a, f"so({p},C)", [algebra(Family.SO_C, p)], source=src, constraints=("p=q",)))
    if p % 2 == 0 and q % 2 == 0:
        rows.append(
            _entry(
                a,
                f"u({p // 2},{q // 2})",
                [direct_sum(algebra(Family.SU, p // 2, q // 2), COMPACT_LINE)],
                source=src,
                constraints=("p,q even",),
            )
        )
    if p == q:
        rows.append(
            _entry(
                a,
                f"gl({p},R)",
                [direct_sum(algebra(Family.SL_R, p), SPLIT_LINE)],
                source=src,
                constraints=("p=q",),
            )
        )
    return rows


def _rows_sp(a):
    """Rows of sp(p,q).

    The split row holds each unordered split once, in first-occurrence order
    (see `_splits`).
    """
    p, q = a.params
    src = "sp-family"
    rows = [
        _entry(
            a,
            "sp(kp,kq)+sp(lp,lq)",
            [
                direct_sum(algebra(Family.SP, kp, kq), algebra(Family.SP, p - kp, q - kq))
                for kp, kq in _splits(p, q)
            ],
            source=src,
            constraints=(f"kp+lp={p}", f"kq+lq={q}", "both summands nonzero"),
            notes=_SPLIT_NOTE,
        )
    ]
    if p == q:
        rows.append(
            _entry(a, f"sp({2 * p},C)", [algebra(Family.SP_C, p)], source=src, constraints=("p=q",))
        )
    rows.append(
        _entry(
            a,
            f"u({p},{q})",
            [direct_sum(algebra(Family.SU, p, q), COMPACT_LINE)],
            source=src,
        )
    )
    if p == q:
        rows.append(
            _entry(
                a,
                f"gl({p},H)",
                [direct_sum(algebra(Family.SL_H, p), SPLIT_LINE)],
                source=src,
                constraints=("p=q",),
            )
        )
    return rows


def _rows_sp_r(a):
    (n,) = a.params
    src = "sp-family"
    rows = [
        _entry(
            a,
            "sp(2k,R)+sp(2l,R)",
            [
                direct_sum(algebra(Family.SP_R, k), algebra(Family.SP_R, n - k))
                for k in range(1, n // 2 + 1)
            ],
            source=src,
            constraints=(f"k+l={n}", "1<=k<=l"),
        )
    ]
    if n % 2 == 0:
        rows.append(
            _entry(
                a,
                f"sp({n},C)",
                [algebra(Family.SP_C, n // 2)],
                source=src,
                constraints=(f"n={n} even",),
            )
        )
    rows.append(
        _entry(
            a,
            "u(k,l)",
            [
                direct_sum(algebra(Family.SU, k, n - k), COMPACT_LINE)
                for k in range(1, n // 2 + 1)
            ],
            source=src,
            constraints=(f"k+l={n}", "1<=k<=l"),
        )
    )
    rows.append(
        _entry(
            a,
            f"gl({n},R)",
            [direct_sum(algebra(Family.SL_R, n), SPLIT_LINE)],
            source=src,
        )
    )
    return rows


def _rows_so_star(a):
    (m,) = a.params  # the algebra is so*(2m)
    src = "so-family"
    rows = [
        _entry(
            a,
            "so*(2k)+so*(2l)",
            [
                direct_sum(algebra(Family.SO_STAR, k), algebra(Family.SO_STAR, m - k))
                for k in range(1, m // 2 + 1)
            ],
            source=src,
            constraints=(f"k+l={m}", "1<=k<=l"),
        ),
        _entry(a, f"so({m},C)", [algebra(Family.SO_C, m)], source=src),
        _entry(
            a,
            "u(k,l)",
            [
                direct_sum(algebra(Family.SU, k, m - k), COMPACT_LINE)
                for k in range(1, m // 2 + 1)
            ],
            source=src,
            constraints=(f"k+l={m}", "1<=k<=l"),
        ),
    ]
    if m % 2 == 0:
        rows.append(
            _entry(
                a,
                f"gl({m // 2},H)",
                [direct_sum(algebra(Family.SL_H, m // 2), SPLIT_LINE)],
                source=src,
                constraints=(f"{m} even",),
            )
        )
    return rows


def _rows_sl_h(a):
    (m,) = a.params
    src = "sl-family"
    return [
        _entry(a, f"so*({2 * m})", [algebra(Family.SO_STAR, m)], source=src),
        _entry(
            a,
            "s(gl(k,H)+gl(l,H))",
            [
                direct_sum(algebra(Family.SL_H, k), algebra(Family.SL_H, m - k), SPLIT_LINE)
                for k in range(1, m // 2 + 1)
            ],
            source=src,
            constraints=(f"k+l={m}", "1<=k<=l"),
        ),
        _entry(
            a,
            f"gl({m},C)",
            [direct_sum(algebra(Family.SL_C, m), COMPACT_LINE)],
            source=src,
        ),
        _entry(
            a,
            "sp(k,l)",
            [algebra(Family.SP, k, m - k) for k in range(1, m // 2 + 1)],
            source=src,
            constraints=(f"k+l={m}", "1<=k<=l"),
        ),
    ]


def _rows_sl_c(a):
    (n,) = a.params
    src = "sl-family"
    rows = [
        _entry(a, f"so({n},C)", [algebra(Family.SO_C, n)], source=src),
        _entry(
            a,
            "s(gl(k,C)+gl(l,C))",
            [
                direct_sum(
                    algebra(Family.SL_C, k),
                    algebra(Family.SL_C, n - k),
                    COMPACT_LINE,
                    SPLIT_LINE,
                )
                for k in range(1, n // 2 + 1)
            ],
            source=src,
            constraints=(f"k+l={n}", "1<=k<=l"),
        ),
    ]
    if n % 2 == 0:
        rows.append(
            _entry(
                a,
                f"sp({n},C)",
                [algebra(Family.SP_C, n // 2)],
                source=src,
                constraints=(f"n={n} even",),
            )
        )
    rows.append(_entry(a, f"sl({n},R)", [algebra(Family.SL_R, n)], source=src, kind=REAL_FORM))
    rows.append(
        _entry(
            a,
            "su(p,q)",
            [algebra(Family.SU, p, n - p) for p in range(1, n // 2 + 1)],
            source=src,
            kind=REAL_FORM,
            constraints=(f"p+q={n}", "1<=p<=q"),
        )
    )
    if n % 2 == 0:
        rows.append(
            _entry(
                a,
                f"sl({n // 2},H)",
                [algebra(Family.SL_H, n // 2)],
                source=src,
                kind=REAL_FORM,
                constraints=(f"n={n} even",),
            )
        )
    return rows


def _rows_so_c(a):
    (n,) = a.params
    src = "so-family"
    rows = [
        _entry(
            a,
            "so(k,C)+so(l,C)",
            [
                direct_sum(algebra(Family.SO_C, k), algebra(Family.SO_C, n - k))
                for k in range(1, n // 2 + 1)
            ],
            source=src,
            constraints=(f"k+l={n}", "1<=k<=l"),
        )
    ]
    if n % 2 == 0:
        rows.append(
            _entry(
                a,
                f"gl({n // 2},C)",
                [direct_sum(algebra(Family.SL_C, n // 2), COMPACT_LINE, SPLIT_LINE)],
                source=src,
                constraints=(f"n={n} even",),
            )
        )
    rows.append(
        _entry(
            a,
            "so(p,q)",
            [algebra(Family.SO, p, n - p) for p in range(1, n // 2 + 1)],
            source=src,
            kind=REAL_FORM,
            constraints=(f"p+q={n}", "1<=p<=q"),
        )
    )
    if n % 2 == 0:
        rows.append(
            _entry(
                a,
                f"so*({n})",
                [algebra(Family.SO_STAR, n // 2)],
                source=src,
                kind=REAL_FORM,
                constraints=(f"n={n} even",),
            )
        )
    return rows


def _rows_sp_c(a):
    (n,) = a.params  # the algebra is sp(2n,C)
    src = "sp-family"
    return [
        _entry(
            a,
            "sp(2k,C)+sp(2l,C)",
            [
                direct_sum(algebra(Family.SP_C, k), algebra(Family.SP_C, n - k))
                for k in range(1, n // 2 + 1)
            ],
            source=src,
            constraints=(f"k+l={n}", "1<=k<=l"),
        ),
        _entry(
            a,
            f"gl({n},C)",
            [direct_sum(algebra(Family.SL_C, n), COMPACT_LINE, SPLIT_LINE)],
            source=src,
        ),
        _entry(a, f"sp({2 * n},R)", [algebra(Family.SP_R, n)], source=src, kind=REAL_FORM),
        _entry(
            a,
            "sp(p,q)",
            [algebra(Family.SP, p, n - p) for p in range(1, n // 2 + 1)],
            source=src,
            kind=REAL_FORM,
            constraints=(f"p+q={n}", "1<=p<=q"),
        ),
    ]


_CLASSICAL_ROWS = {
    Family.SL_R: _rows_sl_r,
    Family.SU: _rows_su,
    Family.SO: _rows_so,
    Family.SP: _rows_sp,
    Family.SP_R: _rows_sp_r,
    Family.SO_STAR: _rows_so_star,
    Family.SL_H: _rows_sl_h,
    Family.SL_C: _rows_sl_c,
    Family.SO_C: _rows_so_c,
    Family.SP_C: _rows_sp_c,
}

_PRODUCT_SIGN_NOTE = (
    "printed with a product sign in the source row; stored as a direct sum",
)

# Fixed rows of the real exceptional forms: (template, instance, notes).
_EXCEPTIONAL_ROWS = {
    Family.G2_2: (
        ("sl(2,R)+sl(2,R)", direct_sum(algebra(Family.SL_R, 2), algebra(Family.SL_R, 2)), ()),
    ),
    Family.F4_4: (
        ("sp(6,R)+sp(2,R)", direct_sum(algebra(Family.SP_R, 3), algebra(Family.SP_R, 1)), ()),
        ("sp(1,2)+sp(1)", direct_sum(algebra(Family.SP, 1, 2), algebra(Family.SP_CPT, 1)), ()),
        ("so(4,5)", algebra(Family.SO, 4, 5), ()),
    ),
    Family.F4_M20: (
        ("sp(1,2)+sp(1)", direct_sum(algebra(Family.SP, 1, 2), algebra(Family.SP_CPT, 1)), ()),
        ("so(1,8)", algebra(Family.SO, 1, 8), ()),
    ),
    Family.E6_6: (
        ("sp(2,2)", algebra(Family.SP, 2, 2), ()),
        ("sp(8,R)", algebra(Family.SP_R, 4), ()),
        ("sl(6,R)+sl(2,R)", direct_sum(algebra(Family.SL_R, 6), algebra(Family.SL_R, 2)), ()),
        ("sl(3,H)+su(2)", direct_sum(algebra(Family.SL_H, 3), algebra(Family.SU_CPT, 2)), ()),
        ("so(5,5)+so(1,1)", direct_sum(algebra(Family.SO, 5, 5), SPLIT_LINE), ()),
        ("f4(4)", algebra(Family.F4_4), ()),
    ),
    Family.E6_2: (
        ("sp(1,3)", algebra(Family.SP, 1, 3), ()),
        ("sp(8,R)", algebra(Family.SP_R, 4), ()),
        ("su(2,4)+su(2)", direct_sum(algebra(Family.SU, 2, 4), algebra(Family.SU_CPT, 2)), ()),
        ("su(3,3)+sl(2,R)", direct_sum(algebra(Family.SU, 3, 3), algebra(Family.SL_R, 2)), ()),
        ("so(4,6)+so(2)", direct_sum(algebra(Family.SO, 4, 6), COMPACT_LINE), ()),
        ("so*(10)+so(2)", direct_sum(algebra(Family.SO_STAR, 5), COMPACT_LINE), ()),
        ("f4(4)", algebra(Family.F4_4), ()),
    ),
    Family.E6_M14: (
        ("sp(2,2)", algebra(Family.SP, 2, 2), ()),
        ("su(2,4)+su(2)", direct_sum(algebra(Family.SU, 2, 4), algebra(Family.SU_CPT, 2)), ()),
        ("su(1,5)+sl(2,R)", direct_sum(algebra(Family.SU, 1, 5), algebra(Family.SL_R, 2)), ()),
        ("so(2,8)+so(2)", direct_sum(algebra(Family.SO, 2, 8), COMPACT_LINE), ()),
        ("so*(10)+so(2)", direct_sum(algebra(Family.SO_STAR, 5), COMPACT_LINE), ()),
        ("f4(-20)", algebra(Family.F4_M20), ()),
    ),
    Family.E6_M26: (
        ("sp(1,3)", algebra(Family.SP, 1, 3), ()),
        ("sl(3,H)+sp(1)", direct_sum(algebra(Family.SL_H, 3), algebra(Family.SP_CPT, 1)), ()),
        ("so(1,9)+so(1,1)", direct_sum(algebra(Family.SO, 1, 9), SPLIT_LINE), ()),
        ("f4(-20)", algebra(Family.F4_M20), ()),
    ),
    Family.E7_7: (
        ("su(4,4)", algebra(Family.SU, 4, 4), ()),
        ("sl(8,R)", algebra(Family.SL_R, 8), ()),
        ("sl(4,H)", algebra(Family.SL_H, 4), ()),
        ("so(6,6)+sl(2,R)", direct_sum(algebra(Family.SO, 6, 6), algebra(Family.SL_R, 2)), ()),
        ("so*(12)+sp(1)", direct_sum(algebra(Family.SO_STAR, 6), algebra(Family.SP_CPT, 1)), ()),
        ("e6(6)+so(1,1)", direct_sum(algebra(Family.E6_6), SPLIT_LINE), ()),
        ("e6(2)+so(2)", direct_sum(algebra(Family.E6_2), COMPACT_LINE), ()),
    ),
    Family.E7_M5: (
        ("su(4,4)", algebra(Family.SU, 4, 4), ()),
        ("su(2,6)", algebra(Family.SU, 2, 6), ()),
        ("so(4,8)+su(2)", direct_sum(algebra(Family.SO, 4, 8), algebra(Family.SU_CPT, 2)), ()),
        ("so*(12)+sl(2,R)", direct_sum(algebra(Family.SO_STAR, 6), algebra(Family.SL_R, 2)), ()),
        ("e6(2)+so(2)", direct_sum(algebra(Family.E6_2), COMPACT_LINE), _PRODUCT_SIGN_NOTE),
        ("e6(-14)+so(2)", direct_sum(algebra(Family.E6_M14), COMPACT_LINE), ()),
    ),
    Family.E7_M25: (
        ("sl(4,H)", algebra(Family.SL_H, 4), ()),
        ("su(2,6)", algebra(Family.SU, 2, 6), ()),
        ("so(2,10)+sl(2,R)", direct_sum(algebra(Family.SO, 2, 10), algebra(Family.SL_R, 2)), ()),
        ("so*(12)+sp(1)", direct_sum(algebra(Family.SO_STAR, 6), algebra(Family.SP_CPT, 1)), ()),
        ("e6(-14)+so(2)", direct_sum(algebra(Family.E6_M14), COMPACT_LINE), ()),
        ("e6(-26)+so(1,1)", direct_sum(algebra(Family.E6_M26), SPLIT_LINE), ()),
    ),
    Family.E8_8: (
        ("e7(7)+sl(2,R)", direct_sum(algebra(Family.E7_7), algebra(Family.SL_R, 2)), ()),
        ("e7(-5)+su(2)", direct_sum(algebra(Family.E7_M5), algebra(Family.SU_CPT, 2)), ()),
        ("so(8,8)", algebra(Family.SO, 8, 8), ()),
        ("so*(16)", algebra(Family.SO_STAR, 8), ()),
    ),
    Family.E8_M24: (
        ("e7(-25)+sl(2,R)", direct_sum(algebra(Family.E7_M25), algebra(Family.SL_R, 2)), ()),
        ("e7(-5)+su(2)", direct_sum(algebra(Family.E7_M5), algebra(Family.SU_CPT, 2)), ()),
        ("so(4,12)", algebra(Family.SO, 4, 12), ()),
        ("so*(16)", algebra(Family.SO_STAR, 8), ()),
    ),
}

# Linear rows of the complex exceptional algebras.
_EXCEPTIONAL_COMPLEX_ROWS = {
    Family.G2_C: (
        ("sl(2,C)+sl(2,C)", direct_sum(algebra(Family.SL_C, 2), algebra(Family.SL_C, 2)), ()),
    ),
    Family.F4_C: (
        ("sp(6,C)+sp(2,C)", direct_sum(algebra(Family.SP_C, 3), algebra(Family.SP_C, 1)), ()),
        ("so(9,C)", algebra(Family.SO_C, 9), ()),
    ),
    Family.E6_C: (
        ("sp(8,C)", algebra(Family.SP_C, 4), ()),
        ("sl(6,C)+sl(2,C)", direct_sum(algebra(Family.SL_C, 6), algebra(Family.SL_C, 2)), ()),
        ("so(10,C)+so(2,C)", direct_sum(algebra(Family.SO_C, 10), algebra(Family.SO_C, 2)), ()),
        ("f4(C)", algebra(Family.F4_C), ()),
    ),
    Family.E7_C: (
        ("sl(8,C)", algebra(Family.SL_C, 8), ()),
        ("so(12,C)+sl(2,C)", direct_sum(algebra(Family.SO_C, 12), algebra(Family.SL_C, 2)), ()),
        ("e6(C)+so(2,C)", direct_sum(algebra(Family.E6_C), algebra(Family.SO_C, 2)), ()),
    ),
    Family.E8_C: (
        ("e7(C)+sl(2,C)", direct_sum(algebra(Family.E7_C), algebra(Family.SL_C, 2)), ()),
        ("so(16,C)", algebra(Family.SO_C, 16), ()),
    ),
}

_EXCEPTIONAL_REAL_FORMS = {
    Family.G2_C: (Family.G2_2,),
    Family.F4_C: (Family.F4_4, Family.F4_M20),
    Family.E6_C: (Family.E6_6, Family.E6_2, Family.E6_M14, Family.E6_M26),
    Family.E7_C: (Family.E7_7, Family.E7_M5, Family.E7_M25),
    Family.E8_C: (Family.E8_8, Family.E8_M24),
}


def _source_for(family):
    # only the exceptional families get here; classical rows carry their own
    return f"{family.value[:2]}-family"


def _require_row_ambient(a):
    if not isinstance(a, SimpleAlgebra):
        raise TypeError(f"expected a SimpleAlgebra, got {type(a).__name__}")
    if a.family in COMPACT:
        raise UnsupportedAlgebra(f"{render(a)} is compact; it has no involution rows here")
    canonical = algebra(a.family, *a.params)
    if canonical != reductive((a,)):
        raise UnsupportedAlgebra(
            f"{render(a)} is a noncanonical presentation; use {render(canonical)}"
        )


@lru_cache(maxsize=None)
def isotropy_entries(a):
    """All involution rows for the canonical noncompact simple algebra `a`.

    The returned tuple keeps the printed column order of the source tables
    and always ends with the synthetic Cartan row (`kind == "compact"`).
    """
    _require_row_ambient(a)
    fam = a.family
    if fam in _CLASSICAL_ROWS:
        rows = _CLASSICAL_ROWS[fam](a)
    elif fam in _EXCEPTIONAL_COMPLEX_ROWS:
        src = _source_for(fam)
        rows = [
            _entry(a, template, [inst], source=src, notes=notes)
            for template, inst, notes in _EXCEPTIONAL_COMPLEX_ROWS[fam]
        ]
        rows.extend(
            _entry(a, render(algebra(form)), [algebra(form)], source=src, kind=REAL_FORM)
            for form in _EXCEPTIONAL_REAL_FORMS[fam]
        )
    else:
        src = _source_for(fam)
        rows = [
            _entry(a, template, [inst], source=src, notes=notes)
            for template, inst, notes in _EXCEPTIONAL_ROWS[fam]
        ]
    rows = [row for row in rows if row is not None]
    rows.append(_entry(a, "compact", [max_compact(a)], source="cartan", kind=CARTAN))
    return tuple(rows)


def instantiations(a):
    """Every admissible (row, isotropy, dimensions) triple for `a`."""
    out = []
    for entry in isotropy_entries(a):
        for h in entry.instances:
            out.append(Instantiation(entry, h, reductive_dims(h)))
    return tuple(out)


def max_fixed_dim(a):
    """Largest fixed-space dimension over all rows, with its witness.

    Ties keep the earliest row in table order, so the reported witness is
    deterministic.
    """
    best = None
    for item in instantiations(a):
        if best is None or item.space.dim_s > best.space.dim_s:
            best = item
    return best.space.dim_s, best


def entry_payload(entry):
    """JSON-ready dict for one row, folding notes into the source label."""
    source = entry.source
    if entry.notes:
        source = f"{source} ({'; '.join(entry.notes)})"
    return {
        "ambient": render(entry.ambient),
        "isotropy_template": entry.template,
        "constraints": list(entry.constraints),
        "source_table": source,
    }


def _so44_rotation_classes():
    fixed = []
    for dp in range(3):
        for dq in range(3):
            if (dp, dq) == (0, 0):
                continue
            parts = [direct_sum(algebra(Family.SU, dp, dq), COMPACT_LINE)]
            sp, sq = 4 - 2 * dp, 4 - 2 * dq
            if sp + sq:
                parts.append(algebra(Family.SO, sp, sq))
            fixed.append(direct_sum(*parts))
    return tuple(dict.fromkeys(fixed))


def triality_classes(a):
    """Order-3 automorphism classes, for the two forms that have them.

    Everything except so(8,C) and so(4,4) raises UnsupportedAlgebra: either
    the outer automorphism group has no order-3 elements, or (for compact or
    noncanonical input) the algebra carries no rows here at all.
    """
    if isinstance(a, SimpleAlgebra) and a.family is Family.SO_C and a.params == (8,):
        classes = [
            (algebra(Family.G2_C), "outer"),
            (algebra(Family.SL_C, 3), "outer"),
            # compact-form counterpart of the principal class; recorded so
            # the list carries a dim_s = 0 bucket like the real-form list
            (algebra(Family.G2_CPT), "compact"),
        ]
    elif isinstance(a, SimpleAlgebra) and a.family is Family.SO and a.params == (4, 4):
        classes = [
            (algebra(Family.G2_2), "outer"),
            (algebra(Family.SL_R, 3), "outer"),
            (algebra(Family.SU, 1, 2), "outer"),
        ]
        for h in _so44_rotation_classes():
            kind = "compact" if reductive_dims(h).dim_s == 0 else "inner"
            classes.append((h, kind))
    else:
        raise UnsupportedAlgebra(
            f"{render(a)} admits no order-3 outer classes; only so(8,C) and so(4,4) do"
        )
    return tuple(TrialityClass(a, h, 3, kind) for h, kind in classes)
