"""Fixed-point subalgebras of finite-order automorphisms.

For each noncompact simple algebra this module stores the classification rows
of involution fixed-point sets (linear involutions, and for complex ambient
algebras also the antilinear ones, whose fixed sets are the real forms), plus
one synthetic row for the Cartan involution.  Row templates keep the
free parameters of the printed tables; each instantiation is stated by its
`render` label and its dim S, and by nothing else.

Rows are written as plain specs (`_Row`: template, constraints, kind,
notes, labels, dims_s) by three helpers, which name and measure each
instance as they build it: `_one` for a single instance, `_sum_row` for
the k+l=n, 1<=k<=l rows, and `_split_row` for the (kp,kq)+(lp,lq)
signature splits of so/su/sp(p,q).  Each classical family has one row
builder over its parameters, which `_CLASSICAL_ROWS` pairs with the
family's source label.  An exceptional row is a catalog name, written
once in `_EXCEPTIONAL_ROWS`: the name is the row template, and
`parse_algebra` of it the one instance.  The real-form rows of a complex
exceptional algebra are read from the catalog's complexification column
(`real_forms`).

`isotropy_entries` alone turns specs into `IsotropyEntry` values, adding
the ambient and the source and keeping the lists as the builder wrote
them.  Each row lists its distinct instances, by isomorphism type and
not by class, and never the ambient itself, so no row is filtered and
none is empty.  Low-rank isomorphisms make only two kinds of row that
would break this, and their builders leave the extra instances out: the
p = q signature splits, where so, su and sp(a,b) equal (b,a)
(`_split_row`), and the rows sp(2,R) = sl(2,R) and sp(2,C) = sl(2,C)
(`_rows_sl_r`, `_rows_sl_c`).  Each entry keeps every instance's label
and dim S (`labels`, `dims_s`), which every route reads
(`check_involutions`, and `max_fixed_dim` for the rank-one route, the
product checks and f4(4)), so no route builds or measures an instance
again.  A label is the instance: the `instances` property parses
the labels back into catalog values when read.  Rows are built on each
call and not kept: nothing in this module holds an algebra's rows after
its caller lets them go.  The one structure kept is the part table
`_PARTS`, which the split rows read their summands from: per family,
references to canonical values, or to their lone simple factors, that
`algebra`'s cache holds anyway.  It is empty at import and grows on
demand: an entry (a, b) exists only if a split row of some (p, q) with
a <= p and b <= q was built, so a + b never exceeds the largest size
parameter swept.  It grows under a lock; its lists only grow, so the split
rows read them without it.  Algebras whose size parameter exceeds
`SIZE_LIMIT` get no rows.

The two forms whose outer automorphism group has order-3 elements,
`TRIALITY_FORMS`, carry a separate list of order-3 fixed-point classes
(`triality_classes`).

The module only reports subalgebras and their dimensions; it does not
construct the automorphisms themselves, and it does not re-derive the
classification.
"""

import threading
from functools import partial
from typing import NamedTuple

from .algebras import (
    _canonical,
    COMPACT,
    COMPACT_LINE,
    SIZE_LIMIT,
    SPLIT_LINE,
    Family,
    InputError,
    ReductiveAlgebra,
    SimpleAlgebra,
    algebra,
    as_simple,
    direct_sum,
    is_canonical,
    max_compact,
    parse_algebra,
    real_forms,
    reductive_dims,
    render,
    require_simple,
    simple,
)

__all__ = [
    "IsotropyEntry",
    "TRIALITY_FORMS",
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


class UnsupportedAlgebra(InputError):
    """The ambient algebra has no row set here (compact, noncanonical or too large)."""


class IsotropyEntry(NamedTuple):
    """One classification row: a template plus its admissible instances.

    ``labels`` and ``dims_s`` are aligned, one item per instance:
    ``labels[i]`` is its ``render`` text and ``dims_s[i]`` its dim S (its
    split abelian dimension plus each simple factor's ``space.dim_s``),
    stated once here so that no reader re-derives them per case.  The
    labels are distinct and none is the ambient's, so ``labels`` is never
    empty.
    ``instances`` parses the labels on each read; a reader of labels and
    dims alone builds no value.
    """

    ambient: SimpleAlgebra
    template: str
    constraints: tuple
    source: str
    kind: str
    notes: tuple
    labels: tuple
    dims_s: tuple

    @property
    def instances(self) -> tuple:
        """The row's instances as ReductiveAlgebra values, in row order."""
        return tuple(map(parse_algebra, self.labels))


class TrialityClass(NamedTuple):
    """A conjugacy class of order-3 automorphisms, named by its fixed set."""

    ambient: SimpleAlgebra
    fixed_algebra: ReductiveAlgebra
    order: int
    kind: str


class _Row(NamedTuple):
    """A row spec: an IsotropyEntry without its ambient and source.

    ``labels`` and ``dims_s`` are the entry's own tuples, as `_named` or
    `_split_row`'s part table gives them: one item per distinct instance.
    """

    template: str
    constraints: tuple
    kind: str
    notes: tuple
    labels: tuple
    dims_s: tuple


def _named(h):
    """(render(h), dim S of h): an instance's label and its dim S."""
    fixed = h.split_abelian_dim
    for f in h.simples:
        fixed += f.space.dim_s
    return render(h), fixed


_SPLIT_NOTE = (
    "signature splits across the two summands are assumed componentwise",
)


def _one(template, instance, *constraints, kind=LINEAR, notes=()):
    """A row with a single instance."""
    label, fixed = _named(instance)
    return _Row(template, constraints, kind, notes, (label,), (fixed,))


def _sum_row(template, n, build, kind=LINEAR):
    """A row over k+l=n, 1<=k<=l (p and q on a real-form row): one instance build(k, l) per k."""
    a, b = "pq" if kind == REAL_FORM else "kl"
    named = [_named(build(k, n - k)) for k in range(1, n // 2 + 1)]
    labels, dims_s = zip(*named)
    return _Row(template, (f"{a}+{b}={n}", f"1<={a}<={b}"), kind, (), labels, dims_s)


# family -> its part table: _PARTS[family][a][b] stands for
# `_canonical(family, a, b)`: it is that value's lone simple factor when the
# value is one simple and nothing else, the value itself otherwise, and None
# at (0, 0).  `_parts` grows each list a only as far as the widest b a
# split row has asked of it, so every entry (a, b) lies in the (p, q) box of
# some row built so far; nothing is built at import.  Every call grows the
# table under the lock, so no two threads append one index; lists only
# grow, so `_split_row` reads entries without it.
_PARTS = {}
_PARTS_LOCK = threading.Lock()


def _parts(family, p, q):
    """The part table of `family`, grown to hold every (a, b) with a <= p, b <= q."""
    with _PARTS_LOCK:
        table = _PARTS.setdefault(family, [])
        for a in range(p + 1):
            if a == len(table):
                table.append([None] if a == 0 else [])
            row = table[a]
            for b in range(len(row), q + 1):
                value = _canonical(family, a, b)
                row.append(as_simple(value) or value)
    return table


def _split_row(template, family, p, q):
    """family(kp,kq) + family(lp,lq), and u(1) when family is su, per split of (p, q).

    The row holds one (kp, kq) per distinct sum: the lexicographically least
    split of its orbit, in (kp, kq) loop order.  A split and its complement
    (lp, lq) = (p - kp, q - kq) give the same direct sum, so the row keeps
    (0, 0) != (kp, kq) <= (lp, lq).  When p == q the swap (kq, kp) gives the
    same sum too, as so, su and sp(a,b) equal (b,a), so the row also keeps
    (kp, kq) <= (kq, kp) and (kp, kq) <= (lq, lp).  The least split of an
    orbit comes first in the loop over every ordered split, so the row
    holds exactly the values, in exactly the first-occurrence order, that
    loop gives after deduplication; no other two splits give one sum, and
    none gives the ambient.  The loop ranges state that set in closed form:
    kp <= lp is kp <= p // 2, kq <= lq binds only when kp == lp, and kq
    starts at 1 when kp == 0; when p == q the two swap conditions are
    kp <= kq <= lp.

    The split rows hold most of the instances a sweep states, so each one
    is stated here by its label and dim S (the row's ``labels`` and
    ``dims_s``) from its two summands, read from the family's part table
    (`_parts`) by index.  When both are lone simple factors x and y (97% of
    the split instances up to max-param 48), one ``sort_key`` comparison
    orders them as `reductive` would, the label is ``x+y`` (``+u(1)`` on su
    rows) and the dim S is the sum of theirs, with no value built.  Any
    other pair (a trivial, abelian or two-factor summand) is built by
    `direct_sum` from the two canonical values (and u(1) on su rows) and
    named by `_named`.
    """
    parts = _parts(family, p, q)
    extra = (COMPACT_LINE,) if family is Family.SU else ()
    tail = "+u(1)" * len(extra)
    labels, dims_s = [], []
    for kp in range(p // 2 + 1):
        lp = p - kp
        k_parts, l_parts = parts[kp], parts[lp]
        if p == q:
            kqs = range(max(kp, 1), lp + 1)
        else:
            kqs = range(1 if kp == 0 else 0, q + 1 if kp < lp else q // 2 + 1)
        for kq in kqs:
            x, y = k_parts[kq], l_parts[q - kq]
            if x.__class__ is SimpleAlgebra and y.__class__ is SimpleAlgebra:
                if y.sort_key < x.sort_key:
                    x, y = y, x
                labels.append(f"{x.name}+{y.name}{tail}")
                dims_s.append(x.space.dim_s + y.space.dim_s)
            else:
                label, fixed = _named(direct_sum(
                    _canonical(family, kp, kq), _canonical(family, lp, q - kq), *extra
                ))
                labels.append(label)
                dims_s.append(fixed)
    constraints = (f"kp+lp={p}", f"kq+lq={q}", "both summands nonzero")
    return _Row(template, constraints, LINEAR, _SPLIT_NOTE, tuple(labels), tuple(dims_s))


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
        if n >= 4:  # sp(2,R) is sl(2,R) itself
            rows.append(_one(f"sp({n},R)", algebra(Family.SP_R, n // 2), even))
    return rows


def _rows_su(p, q):
    rows = [_one(f"so({p},{q})", algebra(Family.SO, p, q))]
    if p == q:
        rows.append(_one(f"so*({2 * p})", algebra(Family.SO_STAR, p), "p=q"))
    rows.append(_split_row("s(u(kp,kq)+u(lp,lq))", Family.SU, p, q))
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
    if n % 2 == 0 and n >= 4:  # sp(2,C) is sl(2,C) itself
        rows.append(_one(f"sp({n},C)", algebra(Family.SP_C, n // 2), f"n={n} even"))
    rows.append(_one(f"sl({n},R)", algebra(Family.SL_R, n), kind=REAL_FORM))
    rows.append(_sum_row("su(p,q)", n, partial(algebra, Family.SU), REAL_FORM))
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
    rows.append(_sum_row("so(p,q)", n, partial(algebra, Family.SO), REAL_FORM))
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
        _sum_row("sp(p,q)", n, partial(algebra, Family.SP), REAL_FORM),
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

# family -> (source label, row names) for the exceptional families; a
# complex algebra's real-form rows follow its named rows
_EXCEPTIONAL_ROWS = {
    Family.G2_2: ("g2-family", ("sl(2,R)+sl(2,R)",)),
    Family.F4_4: ("f4-family", ("sp(6,R)+sp(2,R)", "sp(1,2)+sp(1)", "so(4,5)")),
    Family.F4_M20: ("f4-family", ("sp(1,2)+sp(1)", "so(1,8)")),
    Family.E6_6: ("e6-family", (
        "sp(2,2)", "sp(8,R)", "sl(6,R)+sl(2,R)", "sl(3,H)+su(2)", "so(5,5)+so(1,1)", "f4(4)",
    )),
    Family.E6_2: ("e6-family", (
        "sp(1,3)", "sp(8,R)", "su(2,4)+su(2)", "su(3,3)+sl(2,R)", "so(4,6)+so(2)",
        "so*(10)+so(2)", "f4(4)",
    )),
    Family.E6_M14: ("e6-family", (
        "sp(2,2)", "su(2,4)+su(2)", "su(1,5)+sl(2,R)", "so(2,8)+so(2)", "so*(10)+so(2)",
        "f4(-20)",
    )),
    Family.E6_M26: ("e6-family", ("sp(1,3)", "sl(3,H)+sp(1)", "so(1,9)+so(1,1)", "f4(-20)")),
    Family.E7_7: ("e7-family", (
        "su(4,4)", "sl(8,R)", "sl(4,H)", "so(6,6)+sl(2,R)", "so*(12)+sp(1)", "e6(6)+so(1,1)",
        "e6(2)+so(2)",
    )),
    Family.E7_M5: ("e7-family", (
        "su(4,4)", "su(2,6)", "so(4,8)+su(2)", "so*(12)+sl(2,R)", "e6(2)+so(2)", "e6(-14)+so(2)",
    )),
    Family.E7_M25: ("e7-family", (
        "sl(4,H)", "su(2,6)", "so(2,10)+sl(2,R)", "so*(12)+sp(1)", "e6(-14)+so(2)",
        "e6(-26)+so(1,1)",
    )),
    Family.E8_8: ("e8-family", ("e7(7)+sl(2,R)", "e7(-5)+su(2)", "so(8,8)", "so*(16)")),
    Family.E8_M24: ("e8-family", ("e7(-25)+sl(2,R)", "e7(-5)+su(2)", "so(4,12)", "so*(16)")),
    Family.G2_C: ("g2-family", ("sl(2,C)+sl(2,C)",)),
    Family.F4_C: ("f4-family", ("sp(6,C)+sp(2,C)", "so(9,C)")),
    Family.E6_C: ("e6-family", ("sp(8,C)", "sl(6,C)+sl(2,C)", "so(10,C)+so(2,C)", "f4(C)")),
    Family.E7_C: ("e7-family", ("sl(8,C)", "so(12,C)+sl(2,C)", "e6(C)+so(2,C)")),
    Family.E8_C: ("e8-family", ("e7(C)+sl(2,C)", "so(16,C)")),
}

# (family, row) -> the notes of that exceptional row
_EXCEPTIONAL_NOTES = {(Family.E7_M5, "e6(2)+so(2)"): _PRODUCT_SIGN_NOTE}


def _exceptional_rows(a):
    """The source label and rows of the exceptional algebra `a`."""
    source, names = _EXCEPTIONAL_ROWS[a.family]
    rows = [
        _one(name, parse_algebra(name), notes=_EXCEPTIONAL_NOTES.get((a.family, name), ()))
        for name in names
    ]
    rows.extend(_one(name, parse_algebra(name), kind=REAL_FORM) for name in real_forms(a))
    return source, rows


def isotropy_entries(a):
    """All involution rows for the canonical noncompact simple algebra `a`.

    The returned tuple keeps the printed column order of the source tables
    and always ends with the synthetic Cartan row (`kind == "compact"`).
    That row can repeat a class another row lists: the Cartan involution of
    so(p,q), for one, is the split (p,0)+(0,q), so max_compact is also an
    instance of the split row, and a sweep counts that case twice, once per
    row.  Up to max-param 48 the Cartan row repeats another row's instance
    for 1,722 of the 2,057 ambients.  The repeat is kept: the verify
    output, and so its pinned digests, include both cases.
    Sizes past `SIZE_LIMIT` raise UnsupportedAlgebra.  The rows are built
    on every call and not kept, so a caller that reads them once, like a
    sweep, lets them go when it is done with them.
    """
    a = require_simple(a)
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
    fam = a.family
    if fam in _CLASSICAL_ROWS:
        source, rows_of = _CLASSICAL_ROWS[fam]
        rows = rows_of(*a.params)
    else:
        source, rows = _exceptional_rows(a)
    sources = [source] * len(rows) + ["cartan"]
    rows.append(_one("compact", max_compact(a), kind=CARTAN))
    return tuple(
        IsotropyEntry(a, r.template, r.constraints, s, r.kind, r.notes, r.labels, r.dims_s)
        for s, r in zip(sources, rows)
    )


def instantiations(a):
    """Every (entry, instance, its SpaceDims) triple for `a`, as plain tuples,
    in row order.  Nothing in liecheck calls it; it stays while the
    benchmark tracer's layers name it."""
    return tuple((e, h, reductive_dims(h)) for e in isotropy_entries(a) for h in e.instances)


def max_fixed_dim(a):
    """(dim S, entry, label) of the largest fixed set, read off the rows.

    Ties keep the first instance in table order, so the reported witness is
    deterministic.
    """
    best = None
    for entry in isotropy_entries(a):
        top = max(entry.dims_s)
        if best is None or top > best[0]:
            best = (top, entry, entry.labels[entry.dims_s.index(top)])
    return best


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


# The two forms whose outer automorphism group has order-3 elements.
TRIALITY_FORMS = frozenset((simple(Family.SO_C, 8), simple(Family.SO, 4, 4)))


def triality_classes(a):
    """Order-3 automorphism classes, for the two forms in `TRIALITY_FORMS`.

    Everything except so(8,C) and so(4,4) raises UnsupportedAlgebra: either
    the outer automorphism group has no order-3 elements, or (for compact or
    noncanonical input) the algebra carries no rows here at all.
    """
    a = require_simple(a)
    if a not in TRIALITY_FORMS:
        raise UnsupportedAlgebra(
            f"{render(a)} admits no order-3 outer classes; only so(8,C) and so(4,4) do"
        )
    if a.family is Family.SO_C:
        classes = [
            (algebra(Family.G2_C), "outer"),
            (algebra(Family.SL_C, 3), "outer"),
            # compact-form counterpart of the principal class; recorded so
            # the list carries a dim_s = 0 bucket like the real-form list
            (algebra(Family.G2_CPT), "compact"),
        ]
    else:
        classes = [
            (algebra(Family.G2_2), "outer"),
            (algebra(Family.SL_R, 3), "outer"),
            (algebra(Family.SU, 1, 2), "outer"),
        ]
        for h in _so44_rotation_classes():
            kind = "compact" if reductive_dims(h).dim_s == 0 else "inner"
            classes.append((h, kind))
    return tuple(TrialityClass(a, h, 3, kind) for h, kind in classes)
