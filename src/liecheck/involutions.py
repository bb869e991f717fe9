"""Fixed-point subalgebras of finite-order automorphisms.

For each noncompact simple algebra this module stores the classification rows
of involution fixed-point sets (linear involutions, and for complex ambient
algebras also the antilinear ones, whose fixed sets are the real forms), plus
one synthetic row for the Cartan involution.  Row templates keep the
free parameters of the printed tables; `instances` holds every admissible
instantiation as a canonical catalog value.

Rows are written as plain specs (`_Row`: template, instances, constraints,
kind, notes) by three helpers: `_one` for a single instance, `_sum_row` for
the k+l=n, 1<=k<=l rows, and `_split_row` for the (kp,kq)+(lp,lq) signature
splits of so/su/sp(p,q).  Each classical family has one row builder over its
parameters; `_CLASSICAL_ROWS` pairs it with the family's source label, and
`_EXCEPTIONAL_ROWS` pairs each exceptional family's rows with theirs.
`isotropy_entries` alone turns specs into `IsotropyEntry` values, dropping
instances equal to the ambient and repeats that low-rank isomorphisms
create.  Rows are built on each call and not kept: nothing in this module
holds an algebra's rows after its caller lets them go.  Algebras whose size
parameter exceeds `SIZE_LIMIT` get no rows.

The two forms whose outer automorphism group has order-3 elements carry a
separate list of order-3 fixed-point classes.

The module only reports subalgebras and their dimensions; it does not
construct the automorphisms themselves, and it does not re-derive the
classification.
"""

from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

from .algebras import (
    COMPACT,
    COMPACT_LINE,
    SIZE_LIMIT,
    SPLIT_LINE,
    Family,
    ReductiveAlgebra,
    SimpleAlgebra,
    SpaceDims,
    algebra,
    direct_sum,
    is_canonical,
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
    """The ambient algebra has no row set here (compact, noncanonical or too large)."""


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


class _Row(NamedTuple):
    """A row spec: an IsotropyEntry without its ambient and source."""

    template: str
    instances: list
    constraints: tuple = ()
    kind: str = LINEAR
    notes: tuple = ()


def _entry(ambient, source, row):
    """The row spec as an IsotropyEntry, or None when no instance is left.

    Instances are deduplicated by isomorphism type, not by class: distinct
    involution classes with isomorphic fixed algebras keep one instance.
    su(7,7)'s split row, for one, drops 12 instances such as (kp,kq) against
    (kq,kp), and distinct splits can coincide through low-rank isomorphisms.
    An instance equal to the ambient is dropped.
    """
    kept = dict.fromkeys(row.instances)
    kept.pop(reductive((ambient,)), None)
    if not kept:
        return None
    return IsotropyEntry(
        ambient, row.template, row.constraints, source, row.kind, tuple(kept), row.notes
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


def _one(template, instance, *constraints, kind=LINEAR, notes=()):
    """A row with a single instance."""
    return _Row(template, [instance], constraints, kind, notes)


def _sum_row(template, n, build, letters="kl", kind=LINEAR):
    """A row over k+l=n, 1<=k<=l: one instance build(k, l) per k."""
    a, b = letters
    instances = [build(k, n - k) for k in range(1, n // 2 + 1)]
    return _Row(template, instances, (f"{a}+{b}={n}", f"1<={a}<={b}"), kind)


def _split_row(template, family, p, q, compact_abelian=0):
    """family(kp,kq) + family(lp,lq) + compact_abelian * u(1), per split of (p, q).

    The row holds each unordered split once, in first-occurrence order (see
    `_splits`).  Each instance is the `direct_sum` of the two canonical
    parts, joined here without `direct_sum`'s loop over its arguments: the
    split rows hold most of the instances a sweep builds.
    """
    instances = []
    for kp, kq in _splits(p, q):
        x, y = algebra(family, kp, kq), algebra(family, p - kp, q - kq)
        instances.append(
            reductive(
                x.simples + y.simples,
                x.compact_abelian_dim + y.compact_abelian_dim + compact_abelian,
                x.split_abelian_dim + y.split_abelian_dim,
            )
        )
    constraints = (f"kp+lp={p}", f"kq+lq={q}", "both summands nonzero")
    return _Row(template, instances, constraints, notes=_SPLIT_NOTE)


def _pair(family, *extra):
    """The instance builder (k, l) -> family(k) + family(l) + extra."""
    return lambda k, l: direct_sum(algebra(family, k), algebra(family, l), *extra)


def _u(k, l):
    """u(k,l) = su(k,l) + u(1)."""
    return direct_sum(algebra(Family.SU, k, l), COMPACT_LINE)


def _rows_sl_r(n):
    rows = [
        _sum_row("so(k,l)", n, partial(algebra, Family.SO)),
        _sum_row("s(gl(k,R)+gl(l,R))", n, _pair(Family.SL_R, SPLIT_LINE)),
    ]
    if n % 2 == 0:
        even = f"n={n} even"
        rows.append(
            _one(f"gl({n // 2},C)", direct_sum(algebra(Family.SL_C, n // 2), COMPACT_LINE), even)
        )
        rows.append(_one(f"sp({n},R)", algebra(Family.SP_R, n // 2), even))
    return rows


def _rows_su(p, q):
    rows = [_one(f"so({p},{q})", algebra(Family.SO, p, q))]
    if p == q:
        rows.append(_one(f"so*({2 * p})", algebra(Family.SO_STAR, p), "p=q"))
    rows.append(_split_row("s(u(kp,kq)+u(lp,lq))", Family.SU, p, q, compact_abelian=1))
    if p == q:
        rows.append(_one(f"gl({p},C)", direct_sum(algebra(Family.SL_C, p), SPLIT_LINE), "p=q"))
    if p % 2 == 0 and q % 2 == 0:
        rows.append(_one(f"sp({p // 2},{q // 2})", algebra(Family.SP, p // 2, q // 2), "p,q even"))
    if p == q:
        rows.append(_one(f"sp({2 * p},R)", algebra(Family.SP_R, p), "p=q"))
    return rows


def _rows_so(p, q):
    rows = [_split_row("so(kp,kq)+so(lp,lq)", Family.SO, p, q)]
    if p == q:
        rows.append(_one(f"so({p},C)", algebra(Family.SO_C, p), "p=q"))
    if p % 2 == 0 and q % 2 == 0:
        rows.append(_one(f"u({p // 2},{q // 2})", _u(p // 2, q // 2), "p,q even"))
    if p == q:
        rows.append(_one(f"gl({p},R)", direct_sum(algebra(Family.SL_R, p), SPLIT_LINE), "p=q"))
    return rows


def _rows_sp(p, q):
    rows = [_split_row("sp(kp,kq)+sp(lp,lq)", Family.SP, p, q)]
    if p == q:
        rows.append(_one(f"sp({2 * p},C)", algebra(Family.SP_C, p), "p=q"))
    rows.append(_one(f"u({p},{q})", _u(p, q)))
    if p == q:
        rows.append(_one(f"gl({p},H)", direct_sum(algebra(Family.SL_H, p), SPLIT_LINE), "p=q"))
    return rows


def _rows_sp_r(n):
    rows = [_sum_row("sp(2k,R)+sp(2l,R)", n, _pair(Family.SP_R))]
    if n % 2 == 0:
        rows.append(_one(f"sp({n},C)", algebra(Family.SP_C, n // 2), f"n={n} even"))
    rows.append(_sum_row("u(k,l)", n, _u))
    rows.append(_one(f"gl({n},R)", direct_sum(algebra(Family.SL_R, n), SPLIT_LINE)))
    return rows


def _rows_so_star(m):  # the algebra is so*(2m)
    rows = [
        _sum_row("so*(2k)+so*(2l)", m, _pair(Family.SO_STAR)),
        _one(f"so({m},C)", algebra(Family.SO_C, m)),
        _sum_row("u(k,l)", m, _u),
    ]
    if m % 2 == 0:
        rows.append(
            _one(f"gl({m // 2},H)", direct_sum(algebra(Family.SL_H, m // 2), SPLIT_LINE), f"{m} even")
        )
    return rows


def _rows_sl_h(m):
    return [
        _one(f"so*({2 * m})", algebra(Family.SO_STAR, m)),
        _sum_row("s(gl(k,H)+gl(l,H))", m, _pair(Family.SL_H, SPLIT_LINE)),
        _one(f"gl({m},C)", direct_sum(algebra(Family.SL_C, m), COMPACT_LINE)),
        _sum_row("sp(k,l)", m, partial(algebra, Family.SP)),
    ]


def _rows_sl_c(n):
    rows = [
        _one(f"so({n},C)", algebra(Family.SO_C, n)),
        _sum_row("s(gl(k,C)+gl(l,C))", n, _pair(Family.SL_C, COMPACT_LINE, SPLIT_LINE)),
    ]
    if n % 2 == 0:
        rows.append(_one(f"sp({n},C)", algebra(Family.SP_C, n // 2), f"n={n} even"))
    rows.append(_one(f"sl({n},R)", algebra(Family.SL_R, n), kind=REAL_FORM))
    rows.append(_sum_row("su(p,q)", n, partial(algebra, Family.SU), "pq", REAL_FORM))
    if n % 2 == 0:
        rows.append(
            _one(f"sl({n // 2},H)", algebra(Family.SL_H, n // 2), f"n={n} even", kind=REAL_FORM)
        )
    return rows


def _rows_so_c(n):
    rows = [_sum_row("so(k,C)+so(l,C)", n, _pair(Family.SO_C))]
    if n % 2 == 0:
        gl = direct_sum(algebra(Family.SL_C, n // 2), COMPACT_LINE, SPLIT_LINE)
        rows.append(_one(f"gl({n // 2},C)", gl, f"n={n} even"))
    rows.append(_sum_row("so(p,q)", n, partial(algebra, Family.SO), "pq", REAL_FORM))
    if n % 2 == 0:
        rows.append(
            _one(f"so*({n})", algebra(Family.SO_STAR, n // 2), f"n={n} even", kind=REAL_FORM)
        )
    return rows


def _rows_sp_c(n):  # the algebra is sp(2n,C)
    return [
        _sum_row("sp(2k,C)+sp(2l,C)", n, _pair(Family.SP_C)),
        _one(f"gl({n},C)", direct_sum(algebra(Family.SL_C, n), COMPACT_LINE, SPLIT_LINE)),
        _one(f"sp({2 * n},R)", algebra(Family.SP_R, n), kind=REAL_FORM),
        _sum_row("sp(p,q)", n, partial(algebra, Family.SP), "pq", REAL_FORM),
    ]


# family -> (source label, row builder over the family's parameters)
_CLASSICAL_ROWS = {
    Family.SL_R: ("sl-family", _rows_sl_r),
    Family.SU: ("sl-family", _rows_su),
    Family.SO: ("so-family", _rows_so),
    Family.SP: ("sp-family", _rows_sp),
    Family.SP_R: ("sp-family", _rows_sp_r),
    Family.SO_STAR: ("so-family", _rows_so_star),
    Family.SL_H: ("sl-family", _rows_sl_h),
    Family.SL_C: ("sl-family", _rows_sl_c),
    Family.SO_C: ("so-family", _rows_so_c),
    Family.SP_C: ("sp-family", _rows_sp_c),
}

_PRODUCT_SIGN_NOTE = (
    "printed with a product sign in the source row; stored as a direct sum",
)


def _real_forms(*forms):
    """The real-form rows of a complex exceptional algebra."""
    return tuple(_one(render(algebra(f)), algebra(f), kind=REAL_FORM) for f in forms)


# family -> (source label, rows) for the exceptional families: the fixed rows
# of the real forms, and the linear rows of the complex algebras followed by
# their real forms.
_EXCEPTIONAL_ROWS = {
    Family.G2_2: ("g2-family", (
        _one("sl(2,R)+sl(2,R)", direct_sum(algebra(Family.SL_R, 2), algebra(Family.SL_R, 2))),
    )),
    Family.F4_4: ("f4-family", (
        _one("sp(6,R)+sp(2,R)", direct_sum(algebra(Family.SP_R, 3), algebra(Family.SP_R, 1))),
        _one("sp(1,2)+sp(1)", direct_sum(algebra(Family.SP, 1, 2), algebra(Family.SP_CPT, 1))),
        _one("so(4,5)", algebra(Family.SO, 4, 5)),
    )),
    Family.F4_M20: ("f4-family", (
        _one("sp(1,2)+sp(1)", direct_sum(algebra(Family.SP, 1, 2), algebra(Family.SP_CPT, 1))),
        _one("so(1,8)", algebra(Family.SO, 1, 8)),
    )),
    Family.E6_6: ("e6-family", (
        _one("sp(2,2)", algebra(Family.SP, 2, 2)),
        _one("sp(8,R)", algebra(Family.SP_R, 4)),
        _one("sl(6,R)+sl(2,R)", direct_sum(algebra(Family.SL_R, 6), algebra(Family.SL_R, 2))),
        _one("sl(3,H)+su(2)", direct_sum(algebra(Family.SL_H, 3), algebra(Family.SU_CPT, 2))),
        _one("so(5,5)+so(1,1)", direct_sum(algebra(Family.SO, 5, 5), SPLIT_LINE)),
        _one("f4(4)", algebra(Family.F4_4)),
    )),
    Family.E6_2: ("e6-family", (
        _one("sp(1,3)", algebra(Family.SP, 1, 3)),
        _one("sp(8,R)", algebra(Family.SP_R, 4)),
        _one("su(2,4)+su(2)", direct_sum(algebra(Family.SU, 2, 4), algebra(Family.SU_CPT, 2))),
        _one("su(3,3)+sl(2,R)", direct_sum(algebra(Family.SU, 3, 3), algebra(Family.SL_R, 2))),
        _one("so(4,6)+so(2)", direct_sum(algebra(Family.SO, 4, 6), COMPACT_LINE)),
        _one("so*(10)+so(2)", direct_sum(algebra(Family.SO_STAR, 5), COMPACT_LINE)),
        _one("f4(4)", algebra(Family.F4_4)),
    )),
    Family.E6_M14: ("e6-family", (
        _one("sp(2,2)", algebra(Family.SP, 2, 2)),
        _one("su(2,4)+su(2)", direct_sum(algebra(Family.SU, 2, 4), algebra(Family.SU_CPT, 2))),
        _one("su(1,5)+sl(2,R)", direct_sum(algebra(Family.SU, 1, 5), algebra(Family.SL_R, 2))),
        _one("so(2,8)+so(2)", direct_sum(algebra(Family.SO, 2, 8), COMPACT_LINE)),
        _one("so*(10)+so(2)", direct_sum(algebra(Family.SO_STAR, 5), COMPACT_LINE)),
        _one("f4(-20)", algebra(Family.F4_M20)),
    )),
    Family.E6_M26: ("e6-family", (
        _one("sp(1,3)", algebra(Family.SP, 1, 3)),
        _one("sl(3,H)+sp(1)", direct_sum(algebra(Family.SL_H, 3), algebra(Family.SP_CPT, 1))),
        _one("so(1,9)+so(1,1)", direct_sum(algebra(Family.SO, 1, 9), SPLIT_LINE)),
        _one("f4(-20)", algebra(Family.F4_M20)),
    )),
    Family.E7_7: ("e7-family", (
        _one("su(4,4)", algebra(Family.SU, 4, 4)),
        _one("sl(8,R)", algebra(Family.SL_R, 8)),
        _one("sl(4,H)", algebra(Family.SL_H, 4)),
        _one("so(6,6)+sl(2,R)", direct_sum(algebra(Family.SO, 6, 6), algebra(Family.SL_R, 2))),
        _one("so*(12)+sp(1)", direct_sum(algebra(Family.SO_STAR, 6), algebra(Family.SP_CPT, 1))),
        _one("e6(6)+so(1,1)", direct_sum(algebra(Family.E6_6), SPLIT_LINE)),
        _one("e6(2)+so(2)", direct_sum(algebra(Family.E6_2), COMPACT_LINE)),
    )),
    Family.E7_M5: ("e7-family", (
        _one("su(4,4)", algebra(Family.SU, 4, 4)),
        _one("su(2,6)", algebra(Family.SU, 2, 6)),
        _one("so(4,8)+su(2)", direct_sum(algebra(Family.SO, 4, 8), algebra(Family.SU_CPT, 2))),
        _one("so*(12)+sl(2,R)", direct_sum(algebra(Family.SO_STAR, 6), algebra(Family.SL_R, 2))),
        _one(
            "e6(2)+so(2)",
            direct_sum(algebra(Family.E6_2), COMPACT_LINE),
            notes=_PRODUCT_SIGN_NOTE,
        ),
        _one("e6(-14)+so(2)", direct_sum(algebra(Family.E6_M14), COMPACT_LINE)),
    )),
    Family.E7_M25: ("e7-family", (
        _one("sl(4,H)", algebra(Family.SL_H, 4)),
        _one("su(2,6)", algebra(Family.SU, 2, 6)),
        _one("so(2,10)+sl(2,R)", direct_sum(algebra(Family.SO, 2, 10), algebra(Family.SL_R, 2))),
        _one("so*(12)+sp(1)", direct_sum(algebra(Family.SO_STAR, 6), algebra(Family.SP_CPT, 1))),
        _one("e6(-14)+so(2)", direct_sum(algebra(Family.E6_M14), COMPACT_LINE)),
        _one("e6(-26)+so(1,1)", direct_sum(algebra(Family.E6_M26), SPLIT_LINE)),
    )),
    Family.E8_8: ("e8-family", (
        _one("e7(7)+sl(2,R)", direct_sum(algebra(Family.E7_7), algebra(Family.SL_R, 2))),
        _one("e7(-5)+su(2)", direct_sum(algebra(Family.E7_M5), algebra(Family.SU_CPT, 2))),
        _one("so(8,8)", algebra(Family.SO, 8, 8)),
        _one("so*(16)", algebra(Family.SO_STAR, 8)),
    )),
    Family.E8_M24: ("e8-family", (
        _one("e7(-25)+sl(2,R)", direct_sum(algebra(Family.E7_M25), algebra(Family.SL_R, 2))),
        _one("e7(-5)+su(2)", direct_sum(algebra(Family.E7_M5), algebra(Family.SU_CPT, 2))),
        _one("so(4,12)", algebra(Family.SO, 4, 12)),
        _one("so*(16)", algebra(Family.SO_STAR, 8)),
    )),
    Family.G2_C: ("g2-family", (
        _one("sl(2,C)+sl(2,C)", direct_sum(algebra(Family.SL_C, 2), algebra(Family.SL_C, 2))),
        *_real_forms(Family.G2_2),
    )),
    Family.F4_C: ("f4-family", (
        _one("sp(6,C)+sp(2,C)", direct_sum(algebra(Family.SP_C, 3), algebra(Family.SP_C, 1))),
        _one("so(9,C)", algebra(Family.SO_C, 9)),
        *_real_forms(Family.F4_4, Family.F4_M20),
    )),
    Family.E6_C: ("e6-family", (
        _one("sp(8,C)", algebra(Family.SP_C, 4)),
        _one("sl(6,C)+sl(2,C)", direct_sum(algebra(Family.SL_C, 6), algebra(Family.SL_C, 2))),
        _one("so(10,C)+so(2,C)", direct_sum(algebra(Family.SO_C, 10), algebra(Family.SO_C, 2))),
        _one("f4(C)", algebra(Family.F4_C)),
        *_real_forms(Family.E6_6, Family.E6_2, Family.E6_M14, Family.E6_M26),
    )),
    Family.E7_C: ("e7-family", (
        _one("sl(8,C)", algebra(Family.SL_C, 8)),
        _one("so(12,C)+sl(2,C)", direct_sum(algebra(Family.SO_C, 12), algebra(Family.SL_C, 2))),
        _one("e6(C)+so(2,C)", direct_sum(algebra(Family.E6_C), algebra(Family.SO_C, 2))),
        *_real_forms(Family.E7_7, Family.E7_M5, Family.E7_M25),
    )),
    Family.E8_C: ("e8-family", (
        _one("e7(C)+sl(2,C)", direct_sum(algebra(Family.E7_C), algebra(Family.SL_C, 2))),
        _one("so(16,C)", algebra(Family.SO_C, 16)),
        *_real_forms(Family.E8_8, Family.E8_M24),
    )),
}


def _require_row_ambient(a):
    if not isinstance(a, SimpleAlgebra):
        raise TypeError(f"expected a SimpleAlgebra, got {type(a).__name__}")
    if a.family in COMPACT:
        raise UnsupportedAlgebra(f"{render(a)} is compact; it has no involution rows here")
    if not is_canonical(a):
        raise UnsupportedAlgebra(
            f"{render(a)} is a noncanonical presentation; use "
            f"{render(algebra(a.family, *a.params))}"
        )
    if sum(a.params) > SIZE_LIMIT:
        raise UnsupportedAlgebra(
            f"{render(a)} has size {sum(a.params)}, past the size limit {SIZE_LIMIT}"
        )


def isotropy_entries(a):
    """All involution rows for the canonical noncompact simple algebra `a`.

    The returned tuple keeps the printed column order of the source tables
    and always ends with the synthetic Cartan row (`kind == "compact"`).
    Sizes past `SIZE_LIMIT` raise UnsupportedAlgebra.  The rows are built
    on every call and not kept, so a caller that reads them once, like a
    sweep, lets them go when it is done with them.
    """
    _require_row_ambient(a)
    fam = a.family
    if fam in _CLASSICAL_ROWS:
        source, rows_of = _CLASSICAL_ROWS[fam]
        rows = rows_of(*a.params)
    else:
        source, rows = _EXCEPTIONAL_ROWS[fam]
    entries = [_entry(a, source, row) for row in rows]
    entries.append(_entry(a, "cartan", _one("compact", max_compact(a), kind=CARTAN)))
    return tuple(e for e in entries if e is not None)


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
