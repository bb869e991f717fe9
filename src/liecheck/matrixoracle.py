"""Exact matrix models for centralizer dimensions in classical real forms.

For a finite-order isometry A of the defining structure, the oracle computes
the kernel of X -> A X A^-1 - X over exact rationals, restricted to the
ambient algebra g, to the maximal compact k, and to the symmetric part p.
That yields (dim C_g(A), dim C_k(A), dim S^A) with no tolerances anywhere.

Conventions.

* Complex and quaternionic matrices are realified by one unit table,
  `_UNITS`, which states the convention: basis matrices and the block
  elements of `from_signature` alike are lists of F-matrix terms put
  through it.  It takes the conjugate transpose to the real transpose, so
  the Cartan involution is X -> -X^t in every model below, and it is a
  ring homomorphism, so conjugation can be carried out at the real level.
* Elements must have order dividing 4.  Keeping to fourth roots of unity is
  what keeps every entry rational; other rotation angles would drag in
  cyclotomic arithmetic.
* Elements must normalize the compact part as well as the algebra (for the
  standard models this means real-orthogonal matrices, possibly conjugated
  by another such).  Without that, the k/p split of the kernel would not be
  meaningful.
* Models are presentation-faithful: ``model(Family.SU, 2, 2)`` builds the
  su(2,2) matrix picture even though the abstract algebra is isomorphic to
  so(2,4).  The canonical catalog collapses such pairs; this module must
  not, because bases and elements live in the defining representation.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, compress, product
from math import gcd, lcm
from typing import NamedTuple

from liecheck._exact import in_span, reduced_form, sparse_ranks
from liecheck.algebras import Family, InputError, OutOfDomain, SimpleAlgebra, dims, require_simple
from liecheck.centralizers import (
    SIG_AMBIENT,
    InvalidSignature,
    OracleInvariantError,
    SigFamily,
    Signature,
    _validate,
)


class UnsupportedFamily(InputError):
    """No explicit matrix basis is wired for the requested ambient."""


class InvalidElement(InputError):
    """Entries, finite order, or invariance requirements are violated."""


class FixedDims(NamedTuple):
    dim_centralizer_g: int
    dim_centralizer_k: int
    dim_s_fixed: int


class MatrixElement(NamedTuple):
    """A validated finite-order element in the defining representation.

    Integral entries are ints, the others Fractions.  ``operator_rows`` holds,
    for every basis matrix M of the ambient (the k basis first, then p), the
    primitive integer multiple of A M A^-1 - M: the positive multiple whose
    values are coprime ints.  These are the rows of X -> A X A^-1 - X, up to
    a positive scale per row, that validation found inside the span of the
    basis (the k rows inside the span of the k basis), and that
    `matrix_fixed_dims` eliminates.  Each is a sparse row in the sense of
    `liecheck._exact`: the flattened cells i * N + j it reaches, strictly
    increasing, and their nonzero values.
    """

    ambient: SimpleAlgebra
    entries: tuple
    order: int
    operator_rows: tuple

    def __repr__(self):
        return f"MatrixElement(ambient={self.ambient!r}, entries={self.entries!r}, order={self.order!r})"

    def __hash__(self):
        # the rows hold lists, and they follow from the other three fields
        return hash(self[:3])


# largest realified size N accepted by `model`.  An element's operator rows
# keep only their nonzeros: a few per basis matrix for the signed
# permutations and diagonals built here, but up to N^2 each for a dense
# element, whose rows can still take dim g * N^2 entries
MATRIX_SIZE_LIMIT = 64


def model(family: Family, *params: int) -> SimpleAlgebra:
    """Ambient algebra in its defining matrix presentation (not collapsed)."""
    a = SimpleAlgebra(family, params)
    _size(a)
    return a


def _size(a: SimpleAlgebra) -> int:
    """Realified size of a model ambient, F-matrix size times dim_R F; else
    UnsupportedFamily, or OutOfDomain below least or past MATRIX_SIZE_LIMIT."""
    a = require_simple(a)
    shape = _SHAPES.get(a.family)
    if shape is None:
        raise UnsupportedFamily(f"no matrix basis wired for {a.family.value}")
    field, _, scale, least = shape
    if min(a.params) < least:
        raise OutOfDomain(f"{a.family.value}{a.params}: the model needs sizes >= {least}")
    size = len(_UNITS[field]["1"]) * scale * sum(a.params)
    if size > MATRIX_SIZE_LIMIT:
        raise OutOfDomain(
            f"{a.family.value}{a.params} acts on R^{size}, past the matrix size limit "
            f"{MATRIX_SIZE_LIMIT}"
        )
    return size


# ---------------------------------------------------------------------------
# small exact matrix helpers


def _zeros(n):
    return [[0] * n for _ in range(n)]


def _eye(n):
    m = _zeros(n)
    for i in range(n):
        m[i][i] = 1
    return m


def _sparse_rows(basis, n):
    """Sparse basis matrices as sparse rows over the n * n flattened cells."""
    return tuple(
        (tuple(i * n + j for i, j, _ in m), tuple(x for _, _, x in m)) for m in basis
    )


def _sparse_mul(a, b):
    """The product of two matrices given as lists of sparse rows, each a
    {column: value} dict of the nonzero entries."""
    out = []
    for row in a:
        acc = {}
        get = acc.get
        for k, x in row.items():
            for j, y in b[k].items():
                acc[j] = get(j, 0) + x * y
        out.append({j: v for j, v in acc.items() if v})
    return out


def _operator_rows(a, inv, basis):
    """A primitive integer multiple of A M A^-1 - M as a sparse row, for each
    sparse basis matrix M; A and A^-1 come as lists of {column: value} rows.

    A and A^-1 are scaled into ints by the lcm of their denominators, d and
    e, so that d A M e A^-1 - d e M is d e (A M A^-1 - M) in ints; each row
    is then divided by the gcd of its values.  A positive scale per row
    changes no span test and no rank.  A E_ij A^-1 is column i of A times
    row j of A^-1, so only the nonzeros of M, of those columns and of those
    rows are ever touched, and only the cells they reach are accumulated.
    """
    n = len(a)
    d = lcm(*[x.denominator for row in a for x in row.values()])
    e = d if inv is a else lcm(*[y.denominator for row in inv for y in row.values()])
    de = d * e
    cols = [[] for _ in range(n)]
    for r, row in enumerate(a):
        base = r * n
        for i, x in row.items():
            cols[i].append((base, x.numerator * (d // x.denominator)))
    inv_rows = [[(c, y.numerator * (e // y.denominator)) for c, y in row.items()] for row in inv]
    out = []
    for m in basis:
        acc = {}
        get = acc.get
        for i, j, x in m:
            cell = i * n + j
            acc[cell] = get(cell, 0) - de * x
            targets = inv_rows[j]
            for base, ar in cols[i]:
                coeff = ar * x
                for c, y in targets:
                    cell = base + c
                    acc[cell] = get(cell, 0) + coeff * y
        g = gcd(*acc.values())  # 0 for the zero row
        if g:
            keep = [cell for cell, v in acc.items() if v]
            keep.sort()
            out.append((keep, [acc[cell] // g for cell in keep]))
        else:
            out.append(([], []))
    return tuple(out)


# ---------------------------------------------------------------------------
# bases: one division-ring builder
#
# Every model is a realified F-matrix shape for F = R, C or H.  All but
# sp(2n,R) span k by matrices E_ij u - (E_ij u)* and p by E_ij u + (E_ij u)*,
# for units u of F, where (E_ij u)* = E_ji conj(u); sp(2n,R) lists its real
# 2n x 2n blocks directly.  A basis matrix is a list of terms (i, j, u, c),
# meaning the sum of c E_ij u; `_expand` realifies it through the unit table
# below.

# realified pattern of each unit: (row block, column block, sign) on the
# blocks of size n of R^(dn).  This table is the realification convention:
# complex z = x + iy -> [[x, -y], [y, x]] (real parts of all coordinates
# first), and quaternionic A + Bj -> [[A, B], [-conj(B), conj(A)]] followed
# by the complex map.
_UNITS = {
    "R": {"1": ((0, 0, 1),)},
    "C": {"1": ((0, 0, 1), (1, 1, 1)), "i": ((0, 1, -1), (1, 0, 1))},
    "H": {
        "1": ((0, 0, 1), (1, 1, 1), (2, 2, 1), (3, 3, 1)),
        "i": ((0, 2, -1), (1, 3, 1), (2, 0, 1), (3, 1, -1)),
        "j": ((0, 1, 1), (1, 0, -1), (2, 3, 1), (3, 2, -1)),
        "k": ((0, 3, -1), (1, 2, -1), (2, 1, 1), (3, 0, 1)),
    },
}


def _expand(field, n, terms):
    """The realified sum of c E_ij u over terms (i, j, u, c), as sorted triples."""
    units = _UNITS[field]
    return tuple(sorted(
        (a * n + i, b * n + j, c * s)
        for i, j, u, c in terms
        if c
        for a, b, s in units[u]
    ))


def _pairs(index_pairs, units, sign):
    """E_ij u + sign (E_ij u)* for every (i, j) and unit u."""
    return [
        ((i, j, u, 1), (j, i, u, sign if u == "1" else -sign))
        for i, j in index_pairs
        for u in units
    ]


def _trace_free(n, u):
    return [((d, d, u, 1), (d + 1, d + 1, u, -1)) for d in range(n - 1)]


def _unitary(field, pp, qq=0):
    # X* Q + Q X = 0 for Q = diag(I_p, -I_q): so, su (trace free) and sp(p,q);
    # k is the block diagonal, p the hermitian cross block
    n = pp + qq
    units = _UNITS[field]
    same = [*combinations(range(pp), 2), *combinations(range(pp, n), 2)]
    k = _pairs(same, units, -1)
    if field == "C":
        k += _trace_free(n, "i")
    elif field == "H":
        k += [((d, d, u, 1),) for d in range(n) for u in "ijk"]
    p = _pairs(product(range(pp), range(pp, n)), units, 1)
    return k, p


def _sl(field, n):
    # real trace zero: k is the compact form, p the hermitian trace-free part
    k, _ = _unitary(field, n)
    p = _pairs(combinations(range(n), 2), _UNITS[field], 1) + _trace_free(n, "1")
    return k, p


def _so_star(_, n):
    # A + Bj with A anti-hermitian and B complex skew (the form x* i y);
    # k is the A-part, a copy of u(n)
    k = [((d, d, "i", 1),) for d in range(n)] + _pairs(combinations(range(n), 2), "1i", -1)
    p = _pairs(combinations(range(n), 2), "jk", 1)
    return k, p


def _sp_r(_, n):
    # [[a, b], [c, -a^t]] on R^2n with b, c symmetric; k = {a skew, c = -b} is
    # u(n).  For i == j two terms name one cell, so each matrix keeps it once.
    def matrix(*terms):
        return tuple(dict.fromkeys((r, c, "1", x) for r, c, x in terms))

    k = [
        matrix((i, j, 1), (j, i, -1), (n + i, n + j, 1), (n + j, n + i, -1))
        for i, j in combinations(range(n), 2)
    ]
    p = []
    for i, j in combinations_with_replacement(range(n), 2):
        k.append(matrix((i, n + j, 1), (j, n + i, 1), (n + i, j, -1), (n + j, i, -1)))
        p.append(matrix((i, j, 1), (j, i, 1), (n + i, n + j, -1), (n + j, n + i, -1)))
        p.append(matrix((i, n + j, 1), (j, n + i, 1), (n + i, j, 1), (n + j, i, 1)))
    return k, p


# one row per model family: (field F, shape, scale, least), where the model
# is made of F-matrices of size scale * sum(params), each param >= least
_SHAPES = {
    Family.SL_R: ("R", _sl, 1, 2),
    Family.SO: ("R", _unitary, 1, 1),
    Family.SU: ("C", _unitary, 1, 1),
    Family.SP: ("H", _unitary, 1, 1),
    Family.SO_STAR: ("H", _so_star, 1, 1),
    Family.SL_H: ("H", _sl, 1, 1),
    Family.SP_R: ("R", _sp_r, 2, 1),
    Family.SO_CPT: ("R", _unitary, 1, 2),
    Family.SU_CPT: ("C", _unitary, 1, 2),
    Family.SP_CPT: ("H", _unitary, 1, 1),
}


class _Basis(NamedTuple):
    """An ambient's basis matrices, k, p and k + p, and the reduced forms of
    the spans of their sparse rows: of k + p, and of k alone."""

    k: tuple
    p: tuple
    matrices: tuple
    span: dict
    k_span: dict


@lru_cache(maxsize=None)
def _bases(a: SimpleAlgebra) -> _Basis:
    size = _size(a)
    field, shape, _, _ = _SHAPES[a.family]
    n = size // len(_UNITS[field]["1"])  # F-matrix size
    k, p = (tuple(_expand(field, n, m) for m in part) for part in shape(field, *a.params))
    rows = _sparse_rows(k + p, size)
    span = reduced_form(rows)
    # one pivot per row exactly when the rows are independent
    if len(span) != len(rows):
        raise OracleInvariantError(f"basis matrices of {a} are not independent")
    # a compact ambient has no p basis: its k span is the whole span
    return _Basis(k, p, k + p, span, reduced_form(rows[: len(k)]) if p else span)


# ---------------------------------------------------------------------------
# elements


def _entry(x):
    """An entry that is not an int: a Fraction, kept as an int when it is
    integral."""
    if type(x) is not Fraction:
        raise InvalidElement(f"entries must be int or Fraction, not {type(x).__name__}")
    return x.numerator if x.denominator == 1 else x


def element(ambient: SimpleAlgebra, rows) -> MatrixElement:
    """Validate entries, finite order, and both invariance requirements.

    The rows are read once, into the entries and into sparse rows, on which
    the order test and A^-1 are computed.  Conjugation preserves the ambient
    exactly when every operator row lies in the span of the basis, and the
    maximal compact when every k row lies in the span of the k basis.  Both
    spans are reduced once per ambient (`_bases`).  The k span lies inside
    the whole span, so each k row is tested against the k span only, and
    each p row against the whole span; only when a k row fails are the rows
    tested against the whole span, to tell which requirement is violated.
    """
    ambient = require_simple(ambient)
    n = _size(ambient)
    shaped = type(rows) in (list, tuple) and len(rows) == n
    if not shaped or any(type(r) not in (list, tuple) or len(r) != n for r in rows):
        raise InvalidElement(f"expected a {n} x {n} matrix of lists or tuples for {ambient}")
    entries = [[x if type(x) is int else _entry(x) for x in r] for r in rows]
    a = [dict(compress(enumerate(r), r)) for r in entries]
    eye = [{i: 1} for i in range(n)]
    a2 = _sparse_mul(a, a)
    if a == eye:
        order, inv = 1, a
    elif a2 == eye:
        order, inv = 2, a
    elif _sparse_mul(a2, a2) == eye:
        order, inv = 4, _sparse_mul(a2, a)
    else:
        raise InvalidElement("element order must divide 4")

    basis = _bases(ambient)
    nk = len(basis.k)
    moved = _operator_rows(a, inv, basis.matrices)
    # A M A^-1 lies in a span that holds M exactly when A M A^-1 - M does
    if not in_span(basis.k_span, moved[:nk]):
        if not in_span(basis.span, moved):
            raise InvalidElement("conjugation does not preserve the ambient algebra")
        raise InvalidElement(
            "conjugation must preserve the maximal compact subalgebra; "
            "bring the element to the standard orthogonal position first"
        )
    if not in_span(basis.span, moved[nk:]):
        raise InvalidElement("conjugation does not preserve the ambient algebra")
    return MatrixElement(ambient, tuple(map(tuple, entries)), order, moved)


def identity_element(ambient: SimpleAlgebra) -> MatrixElement:
    return element(ambient, _eye(_size(ambient)))


def q_split_element(ambient: SimpleAlgebra) -> MatrixElement:
    """diag(-I_{N-1}, 1), the equality-case witness of the split families."""
    if require_simple(ambient).family not in (Family.SL_R, Family.SO, Family.SO_CPT):
        raise InvalidElement(
            "q_split is wired for the sl(n,R), so(p,q) and so(n) models"
        )
    m = _eye(_size(ambient))
    for i in range(len(m) - 1):
        m[i][i] = -1
    return element(ambient, m)


def named_element(ambient: SimpleAlgebra, name: str) -> MatrixElement:
    builders = {"identity": identity_element, "q_split": q_split_element}
    if type(name) is not str or name not in builders:
        raise InvalidElement(f"unknown element name; use one of {sorted(builders)}")
    return builders[name](ambient)


def _realized(sig: Signature):
    """The block element of a signature, as real rows.

    One list of F-matrix terms (i, j, unit, c) is built a part at a time,
    mult_plus then mult_minus, and realified through `_UNITS` by `_expand`.
    A +-1 block puts its tag on the diagonal.  An angle block is a quarter
    turn, the only angle of order dividing 4: a rotation plane over R, the
    unit i over C and H, where su's tag 3 and so*(2n)'s mult_minus take -i.
    """
    fam, params, blocks = sig.family, sig.params, sig.blocks
    field = _SHAPES[SIG_AMBIENT[fam]][0]
    if field == "C":  # su tags each eigenvalue: 1, -1, i as 2 and -i as 3
        if any(t not in (1, -1, 2, 3) for t, _, _ in blocks):
            raise InvalidElement("eigenvalue tags beyond the fourth roots of unity need order > 4")
    elif sum(t not in (1, -1) for t, _, _ in blocks) > 1:
        raise InvalidElement("distinct rotation classes need order > 4")
    terms, fill, d = [], [], 0
    for part in (0, 1):
        start = d
        for t, *mults in blocks:
            for _ in range(mults[part]):
                if t in (1, -1):
                    terms.append((d, d, "1", t))
                    d += 1
                elif field == "R":
                    terms += [(d, d + 1, "1", -1), (d + 1, d, "1", 1)]
                    d += 2
                else:
                    minus = (t == 3 and field == "C") or (part and fam is SigFamily.SOSTAR_2N)
                    terms.append((d, d, "i", -1 if minus else 1))
                    d += 1
        fill.append(d - start)
    fill = tuple(fill) if len(params) == 2 else (d,)
    if fill != params:
        raise OracleInvariantError(f"blocks {blocks} fill {fill} of {params} coordinates")
    m = _zeros(len(_UNITS[field]["1"]) * d)
    for i, j, x in _expand(field, d, terms):
        m[i][j] = x
    return m


def from_signature(sig: Signature) -> MatrixElement:
    """Realize a centralizer class as an order-dividing-4 matrix element:
    its block F-matrix (`_realized`), realified through `_UNITS`."""
    _validate(sig)  # rejects malformed block data and central classes
    ambient = model(SIG_AMBIENT[sig.family], *sig.params)
    return element(ambient, _realized(sig))


# ---------------------------------------------------------------------------
# fixed dimensions


def matrix_fixed_dims(e: MatrixElement) -> FixedDims:
    """(dim C_g(A), dim C_k(A), dim S^A) by exact kernel computation."""
    nk = len(_bases(e.ambient).k)
    rows = e.operator_rows
    rank_k, rank_p, rank_g = sparse_ranks([rows[:nk], rows[nk:], rows])
    fixed_k = nk - rank_k
    fixed_p = len(rows) - nk - rank_p
    fixed_g = len(rows) - rank_g
    # a validated element respects the k/p split, so the counts must add up
    if fixed_g != fixed_k + fixed_p:
        raise OracleInvariantError(
            f"fixed dimensions do not split: {fixed_g} != {fixed_k} + {fixed_p}"
        )
    return FixedDims(fixed_g, fixed_k, fixed_p)


# ---------------------------------------------------------------------------
# the rank-two exceptional rotation case


class G2RotationReport(NamedTuple):
    """Exact centralizer data for blockdiag(1, R_t, I_2, R_t) in SO(3,4).

    The split rank-two exceptional algebra acts on the seven-dimensional
    space of imaginary split octonions, where the invariant form has
    signature (3,4); the double rotation above is the image of a torus
    element.  At t = pi/2 its centralizer is often counted as
    S(O(1,2) x U(1,1)), of dimension 3 + 4 - 1 = 6, but the determinant of a
    realified unitary block is identically +1, so the determinant condition
    removes components rather than dimensions: the exact kernel computation
    returns 7.  Both numbers are recorded side by side.  The report states
    no verdict: g2(2)'s is `verify.check_restricted_form`'s margin,
    ``strict_target - chain_upper_bound``, through the pass rule.
    """

    ambient: SimpleAlgebra
    quarter_turn: FixedDims
    quarter_signature: Signature
    counted_centralizer_dim: int
    compact_centralizer_dim: int
    chain_upper_bound: int
    strict_target: int
    half_turn: FixedDims
    half_signature: Signature
    half_turn_chain: int
    zero_turn_rejected: bool


def g22_case() -> G2RotationReport:
    """Bound dim S^A inside so(3,4) for the quarter-turn torus element.

    The chain is dim S^A <= dim C_g(A) - dim C_K(A), with dim C_K(A) = 2
    (an SO(2) x SO(2) inside the SO(4) isotropy of the exceptional form),
    checked against the target dim S - rk_R = 6 of g2(2).  Both turns are
    built by `from_signature` from the signatures the report records.  The
    half turn is an involution whose centralizer is strictly larger; there
    the chain is not strict and the case belongs to the involution route.
    The zero angle degenerates to the identity, whose single-tag class
    `from_signature` must reject as central.
    """
    quarter_signature = Signature(SigFamily.SO_PQ, (3, 4), ((1, 1, 2), (2, 1, 1)))
    half_signature = Signature(SigFamily.SO_PQ, (3, 4), ((1, 1, 2), (-1, 2, 2)))
    quarter = from_signature(quarter_signature)
    quarter_dims = matrix_fixed_dims(quarter)
    half_dims = matrix_fixed_dims(from_signature(half_signature))
    g = dims(SimpleAlgebra(Family.G2_2))

    compact_centralizer_dim = 2
    try:
        from_signature(Signature(SigFamily.SO_PQ, (3, 4), ((1, 3, 4),)))
    except InvalidSignature:
        zero_turn_rejected = True
    else:
        zero_turn_rejected = False
    return G2RotationReport(
        ambient=quarter.ambient,
        quarter_turn=quarter_dims,
        quarter_signature=quarter_signature,
        counted_centralizer_dim=6,
        compact_centralizer_dim=compact_centralizer_dim,
        chain_upper_bound=quarter_dims.dim_centralizer_g - compact_centralizer_dim,
        strict_target=g.dim_s - g.rk_r,
        half_turn=half_dims,
        half_signature=half_signature,
        half_turn_chain=half_dims.dim_centralizer_g - compact_centralizer_dim,
        zero_turn_rejected=zero_turn_rejected,
    )
