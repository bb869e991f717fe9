"""Exact matrix models for centralizer dimensions in classical real forms.

For a finite-order isometry A of the defining structure, the oracle computes
the kernel of X -> A X A^-1 - X over exact rationals, restricted to the
ambient algebra g, to the maximal compact k, and to the symmetric part p.
That yields (dim C_g(A), dim C_k(A), dim S^A) with no tolerances anywhere.

Conventions.

* Complex entries are realified as z = x + iy -> [[x, -y], [y, x]], with the
  real parts of all coordinates listed first.  Under this map the conjugate
  transpose becomes the real transpose, so the Cartan involution is
  X -> -X^t in every model below.
* Quaternionic matrices M = A + Bj are doubled to complex 2n x 2n via
  [[A, B], [-conj(B), conj(A)]] and then realified; both steps are ring
  homomorphisms, so conjugation can be carried out at the real level.
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

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from liecheck._exact import rank
from liecheck.algebras import Family, OutOfDomain, SimpleAlgebra
from liecheck.centralizers import SigFamily, Signature, signature_dim


class UnsupportedFamily(ValueError):
    """No explicit matrix basis is wired for the requested ambient."""


class InvalidElement(ValueError):
    """Entries, finite order, or invariance requirements are violated."""


class OracleInvariantError(RuntimeError):
    """An internal consistency check of the oracle failed (a bug, not bad input)."""


class FixedDims(NamedTuple):
    dim_centralizer_g: int
    dim_centralizer_k: int
    dim_s_fixed: int


@dataclass(frozen=True)
class MatrixElement:
    """A validated finite-order element in the defining representation.

    Integral entries are ints, the others Fractions.  ``operator_rows`` holds
    A M A^-1 - M, flattened, for every basis matrix M of the ambient (the k
    basis first, then p): the rows of X -> A X A^-1 - X that validation
    checked and that `matrix_fixed_dims` eliminates.
    """

    ambient: SimpleAlgebra
    entries: tuple
    order: int
    operator_rows: tuple = field(compare=False, repr=False)


_REAL_SIZE = {
    Family.SL_R: lambda p: p[0],
    Family.SO: lambda p: p[0] + p[1],
    Family.SU: lambda p: 2 * (p[0] + p[1]),
    Family.SP: lambda p: 4 * (p[0] + p[1]),
    Family.SO_STAR: lambda p: 4 * p[0],
    Family.SL_H: lambda p: 4 * p[0],
    Family.SP_R: lambda p: 2 * p[0],
    Family.SO_CPT: lambda p: p[0],
    Family.SU_CPT: lambda p: 2 * p[0],
    Family.SP_CPT: lambda p: 4 * p[0],
}


def model(family: Family, *params: int) -> SimpleAlgebra:
    """Ambient algebra in its defining matrix presentation (not collapsed)."""
    if family not in _REAL_SIZE:
        raise UnsupportedFamily(f"no matrix basis wired for {family.value}")
    if family in (Family.SO, Family.SU, Family.SP):
        if len(params) != 2 or min(params) < 1:
            raise OutOfDomain(f"{family.value} needs two positive parameters")
    elif family in (Family.SL_R, Family.SO_CPT, Family.SU_CPT):
        if len(params) != 1 or params[0] < 2:
            raise OutOfDomain(f"{family.value} needs one parameter >= 2")
    else:
        if len(params) != 1 or params[0] < 1:
            raise OutOfDomain(f"{family.value} needs one positive parameter")
    return SimpleAlgebra(family, tuple(params))


def _size(a: SimpleAlgebra) -> int:
    if a.family not in _REAL_SIZE:
        raise UnsupportedFamily(f"no matrix basis wired for {a.family.value}")
    return _REAL_SIZE[a.family](a.params)


# ---------------------------------------------------------------------------
# small exact matrix helpers


def _zeros(n):
    return [[0] * n for _ in range(n)]


def _eye(n):
    m = _zeros(n)
    for i in range(n):
        m[i][i] = 1
    return m


def _mul(a, b):
    n = len(a)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        arow = a[i]
        orow = out[i]
        for k in range(n):
            c = arow[k]
            if c:
                brow = b[k]
                for j in range(n):
                    if brow[j]:
                        orow[j] = orow[j] + c * brow[j]
    return out


def _is_identity(m):
    return all(
        x == (1 if i == j else 0)
        for i, row in enumerate(m)
        for j, x in enumerate(row)
    )


def _sparse(m):
    """The nonzero entries of a square matrix as (row, column, value)."""
    return tuple((i, j, x) for i, row in enumerate(m) for j, x in enumerate(row) if x)


def _dense_rows(basis, n):
    """Sparse basis matrices as flattened dense rows of length n * n."""
    rows = []
    for m in basis:
        row = [0] * (n * n)
        for i, j, x in m:
            row[i * n + j] = x
        rows.append(row)
    return rows


def _operator_rows(a, inv, basis):
    """A M A^-1 - M, flattened, for each sparse basis matrix M.

    A E_ij A^-1 is column i of A times row j of A^-1, so only the nonzeros
    of M, of those columns and of those rows are ever touched.
    """
    n = len(a)
    cols = [[(r, a[r][i]) for r in range(n) if a[r][i]] for i in range(n)]
    inv_rows = [[(c, y) for c, y in enumerate(row) if y] for row in inv]
    out = []
    for m in basis:
        row = [0] * (n * n)
        for i, j, x in m:
            row[i * n + j] -= x
            targets = inv_rows[j]
            for r, ar in cols[i]:
                base = r * n
                coeff = ar * x
                for c, y in targets:
                    row[base + c] += coeff * y
        out.append(row)
    return out


def _realify(x, y):
    """Complex x + iy on C^n as a real matrix on R^2n (real parts first)."""
    n = len(x)
    out = _zeros(2 * n)
    for i in range(n):
        for j in range(n):
            out[i][j] = x[i][j]
            out[i][n + j] = -y[i][j]
            out[n + i][j] = y[i][j]
            out[n + i][n + j] = x[i][j]
    return out


def _quat_real(ax, ay, bx, by):
    """A + Bj with complex parts (ax+i*ay, bx+i*by) as a real 4n x 4n matrix."""
    n = len(ax)
    x = _zeros(2 * n)
    y = _zeros(2 * n)
    for i in range(n):
        for j in range(n):
            x[i][j] = ax[i][j]
            y[i][j] = ay[i][j]
            x[i][n + j] = bx[i][j]
            y[i][n + j] = by[i][j]
            x[n + i][j] = -bx[i][j]
            y[n + i][j] = by[i][j]
            x[n + i][n + j] = ax[i][j]
            y[n + i][n + j] = -ay[i][j]
    return _realify(x, y)


def _cpair(n):
    return _zeros(n), _zeros(n)


def _qquad(n):
    return _zeros(n), _zeros(n), _zeros(n), _zeros(n)


# ---------------------------------------------------------------------------
# bases, one (k, p) pair per family


def _basis_sl_r(n):
    k, p = [], []
    for i in range(n):
        for j in range(i + 1, n):
            m = _zeros(n)
            m[i][j] = 1
            m[j][i] = -1
            k.append(m)
            m = _zeros(n)
            m[i][j] = 1
            m[j][i] = 1
            p.append(m)
    for d in range(n - 1):
        m = _zeros(n)
        m[d][d] = 1
        m[d + 1][d + 1] = -1
        p.append(m)
    return k, p


def _basis_so(pp, qq):
    # X^t Q + Q X = 0 for Q = diag(I_p, -I_q): same-part skew is k, the
    # symmetric cross block is p
    n = pp + qq
    k, p = [], []
    for part in (range(pp), range(pp, n)):
        for i in part:
            for j in part:
                if i < j:
                    m = _zeros(n)
                    m[i][j] = 1
                    m[j][i] = -1
                    k.append(m)
    for i in range(pp):
        for j in range(pp, n):
            m = _zeros(n)
            m[i][j] = 1
            m[j][i] = 1
            p.append(m)
    return k, p


def _basis_su(pp, qq):
    n = pp + qq
    k, p = [], []
    for part in (range(pp), range(pp, n)):
        for i in part:
            for j in part:
                if i >= j:
                    continue
                x, y = _cpair(n)
                x[i][j] = 1
                x[j][i] = -1
                k.append(_realify(x, y))
                x, y = _cpair(n)
                y[i][j] = 1
                y[j][i] = 1
                k.append(_realify(x, y))
    for d in range(n - 1):
        x, y = _cpair(n)
        y[d][d] = 1
        y[d + 1][d + 1] = -1
        k.append(_realify(x, y))
    for i in range(pp):
        for j in range(pp, n):
            x, y = _cpair(n)
            x[i][j] = 1
            x[j][i] = 1
            p.append(_realify(x, y))
            x, y = _cpair(n)
            y[i][j] = 1
            y[j][i] = -1
            p.append(_realify(x, y))
    return k, p


def _basis_sp_pq(pp, qq):
    # quaternionic A + Bj with A in u(p,q) and (diag form)*B symmetric; the
    # block-diagonal part is sp(p) + sp(q), the cross blocks form p
    n = pp + qq
    k, p = [], []
    for part in (range(pp), range(pp, n)):
        for d in part:
            ax, ay, bx, by = _qquad(n)
            ay[d][d] = 1
            k.append(_quat_real(ax, ay, bx, by))
        for i in part:
            for j in part:
                if i > j:
                    continue
                if i < j:
                    ax, ay, bx, by = _qquad(n)
                    ax[i][j] = 1
                    ax[j][i] = -1
                    k.append(_quat_real(ax, ay, bx, by))
                    ax, ay, bx, by = _qquad(n)
                    ay[i][j] = 1
                    ay[j][i] = 1
                    k.append(_quat_real(ax, ay, bx, by))
                ax, ay, bx, by = _qquad(n)
                bx[i][j] = 1
                bx[j][i] = 1
                k.append(_quat_real(ax, ay, bx, by))
                ax, ay, bx, by = _qquad(n)
                by[i][j] = 1
                by[j][i] = 1
                k.append(_quat_real(ax, ay, bx, by))
    for i in range(pp):
        for j in range(pp, n):
            ax, ay, bx, by = _qquad(n)
            ax[i][j] = 1
            ax[j][i] = 1
            p.append(_quat_real(ax, ay, bx, by))
            ax, ay, bx, by = _qquad(n)
            ay[i][j] = 1
            ay[j][i] = -1
            p.append(_quat_real(ax, ay, bx, by))
            ax, ay, bx, by = _qquad(n)
            bx[i][j] = 1
            bx[j][i] = -1
            p.append(_quat_real(ax, ay, bx, by))
            ax, ay, bx, by = _qquad(n)
            by[i][j] = 1
            by[j][i] = -1
            p.append(_quat_real(ax, ay, bx, by))
    return k, p


def _basis_so_star(n):
    # A + Bj with A anti-hermitian and B complex skew (the form x* i y);
    # k is the A-part, a copy of u(n)
    k, p = [], []
    for d in range(n):
        ax, ay, bx, by = _qquad(n)
        ay[d][d] = 1
        k.append(_quat_real(ax, ay, bx, by))
    for i in range(n):
        for j in range(i + 1, n):
            ax, ay, bx, by = _qquad(n)
            ax[i][j] = 1
            ax[j][i] = -1
            k.append(_quat_real(ax, ay, bx, by))
            ax, ay, bx, by = _qquad(n)
            ay[i][j] = 1
            ay[j][i] = 1
            k.append(_quat_real(ax, ay, bx, by))
            ax, ay, bx, by = _qquad(n)
            bx[i][j] = 1
            bx[j][i] = -1
            p.append(_quat_real(ax, ay, bx, by))
            ax, ay, bx, by = _qquad(n)
            by[i][j] = 1
            by[j][i] = -1
            p.append(_quat_real(ax, ay, bx, by))
    return k, p


def _basis_sl_h(n):
    # real trace zero; k is the compact sp(n) (A anti-hermitian, B
    # symmetric), p takes A hermitian traceless and B skew
    k, p = [], []
    for d in range(n):
        ax, ay, bx, by = _qquad(n)
        ay[d][d] = 1
        k.append(_quat_real(ax, ay, bx, by))
    for i in range(n):
        for j in range(i, n):
            if i < j:
                ax, ay, bx, by = _qquad(n)
                ax[i][j] = 1
                ax[j][i] = -1
                k.append(_quat_real(ax, ay, bx, by))
                ax, ay, bx, by = _qquad(n)
                ay[i][j] = 1
                ay[j][i] = 1
                k.append(_quat_real(ax, ay, bx, by))
            ax, ay, bx, by = _qquad(n)
            bx[i][j] = 1
            bx[j][i] = 1
            k.append(_quat_real(ax, ay, bx, by))
            ax, ay, bx, by = _qquad(n)
            by[i][j] = 1
            by[j][i] = 1
            k.append(_quat_real(ax, ay, bx, by))
    for d in range(n - 1):
        ax, ay, bx, by = _qquad(n)
        ax[d][d] = 1
        ax[d + 1][d + 1] = -1
        p.append(_quat_real(ax, ay, bx, by))
    for i in range(n):
        for j in range(i + 1, n):
            ax, ay, bx, by = _qquad(n)
            ax[i][j] = 1
            ax[j][i] = 1
            p.append(_quat_real(ax, ay, bx, by))
            ax, ay, bx, by = _qquad(n)
            ay[i][j] = 1
            ay[j][i] = -1
            p.append(_quat_real(ax, ay, bx, by))
            ax, ay, bx, by = _qquad(n)
            bx[i][j] = 1
            bx[j][i] = -1
            p.append(_quat_real(ax, ay, bx, by))
            ax, ay, bx, by = _qquad(n)
            by[i][j] = 1
            by[j][i] = -1
            p.append(_quat_real(ax, ay, bx, by))
    return k, p


def _basis_sp_r(n):
    # [[a, b], [c, -a^t]] with b, c symmetric; k = {a skew, c = -b} is u(n)
    big = 2 * n
    k, p = [], []
    for i in range(n):
        for j in range(i + 1, n):
            m = _zeros(big)
            m[i][j] = 1
            m[j][i] = -1
            m[n + i][n + j] = 1
            m[n + j][n + i] = -1
            k.append(m)
    for i in range(n):
        for j in range(i, n):
            m = _zeros(big)
            m[i][n + j] = 1
            m[j][n + i] = 1
            m[n + i][j] = -1
            m[n + j][i] = -1
            k.append(m)
            m = _zeros(big)
            m[i][j] = 1
            m[j][i] = 1
            m[n + i][n + j] = -1
            m[n + j][n + i] = -1
            p.append(m)
            m = _zeros(big)
            m[i][n + j] = 1
            m[j][n + i] = 1
            m[n + i][j] = 1
            m[n + j][i] = 1
            p.append(m)
    return k, p


@lru_cache(maxsize=None)
def _bases(a: SimpleAlgebra):
    fam = a.family
    if fam is Family.SL_R:
        k, p = _basis_sl_r(*a.params)
    elif fam is Family.SO:
        k, p = _basis_so(*a.params)
    elif fam is Family.SO_CPT:
        k, p = _basis_so(a.params[0], 0)
    elif fam is Family.SU:
        k, p = _basis_su(*a.params)
    elif fam is Family.SU_CPT:
        k, p = _basis_su(a.params[0], 0)
    elif fam is Family.SP:
        k, p = _basis_sp_pq(*a.params)
    elif fam is Family.SP_CPT:
        k, p = _basis_sp_pq(a.params[0], 0)
    elif fam is Family.SO_STAR:
        k, p = _basis_so_star(*a.params)
    elif fam is Family.SL_H:
        k, p = _basis_sl_h(*a.params)
    elif fam is Family.SP_R:
        k, p = _basis_sp_r(*a.params)
    else:
        raise UnsupportedFamily(f"no matrix basis wired for {fam.value}")
    k = tuple(map(_sparse, k))
    p = tuple(map(_sparse, p))
    if rank(_dense_rows(k + p, _size(a))) != len(k) + len(p):
        raise OracleInvariantError(f"basis matrices of {a} are not independent")
    return k, p


# ---------------------------------------------------------------------------
# elements


def element(ambient: SimpleAlgebra, rows) -> MatrixElement:
    """Validate entries, finite order, and both invariance requirements."""
    n = _size(ambient)
    if len(rows) != n or any(len(r) != n for r in rows):
        raise InvalidElement(f"expected a {n} x {n} matrix for {ambient}")
    a = []
    for r in rows:
        out = []
        for x in r:
            if isinstance(x, float):
                raise InvalidElement("floating point entries are not exact")
            x = Fraction(x)
            out.append(x.numerator if x.denominator == 1 else x)
        a.append(out)

    a2 = _mul(a, a)
    if _is_identity(a):
        order, inv = 1, a
    elif _is_identity(a2):
        order, inv = 2, a
    elif _is_identity(_mul(a2, a2)):
        order, inv = 4, _mul(a2, a)
    else:
        raise InvalidElement("element order must divide 4")

    bk, bp = _bases(ambient)
    nk = len(bk)
    basis = _dense_rows(bk + bp, n)
    moved = _operator_rows(a, inv, bk + bp)
    # span(B, A B A^-1) = span(B, A B A^-1 - B): the basis is carried into
    # its own span exactly when appending the operator rows keeps the rank
    if rank(basis + moved) != len(basis):
        raise InvalidElement("conjugation does not preserve the ambient algebra")
    if rank(basis[:nk] + moved[:nk]) != nk:
        raise InvalidElement(
            "conjugation must preserve the maximal compact subalgebra; "
            "bring the element to the standard orthogonal position first"
        )
    return MatrixElement(ambient, tuple(tuple(r) for r in a), order, tuple(moved))


def identity_element(ambient: SimpleAlgebra) -> MatrixElement:
    return element(ambient, _eye(_size(ambient)))


def q_split_element(ambient: SimpleAlgebra) -> MatrixElement:
    """diag(-I_{N-1}, 1), the equality-case witness of the split families."""
    if ambient.family not in (Family.SL_R, Family.SO, Family.SO_CPT):
        raise InvalidElement(
            "q_split is wired for the sl(n,R), so(p,q) and so(n) models"
        )
    m = _eye(_size(ambient))
    for i in range(len(m) - 1):
        m[i][i] = -1
    return element(ambient, m)


def named_element(ambient: SimpleAlgebra, name: str) -> MatrixElement:
    builders = {"identity": identity_element, "q_split": q_split_element}
    if name not in builders:
        raise InvalidElement(f"unknown element name {name!r}; use one of {sorted(builders)}")
    return builders[name](ambient)


# matrix model family of each centralizer-signature family (also the CLI's
# `oracle --matrix` target)
SIG_AMBIENT = {
    SigFamily.SO_N: Family.SO_CPT,
    SigFamily.SU_N: Family.SU_CPT,
    SigFamily.SP_N_COMPACT: Family.SP_CPT,
    SigFamily.SO_PQ: Family.SO,
    SigFamily.SU_PQ: Family.SU,
    SigFamily.SP_PQ: Family.SP,
    SigFamily.SOSTAR_2N: Family.SO_STAR,
}

# eigenvalue tags realizable at order dividing 4; angle tags mean a
# quarter-turn rotation (the only non-real angle available)
_SU_EIGEN = {1: (1, 0), -1: (-1, 0), 2: (0, 1), 3: (0, -1)}


def _single_angle(blocks):
    angles = [t for t, _, _ in blocks if t not in (1, -1)]
    if len(angles) > 1:
        raise InvalidElement("distinct rotation classes need order > 4")
    return angles


def _so_rows(params, blocks, split):
    cells = []
    parts = ((0, params[0]), (1, params[1])) if split else ((0, params[0]),)
    _single_angle(blocks)
    for which, total in parts:
        filled = 0
        for t, mp, mm in blocks:
            mult = (mp, mm)[which] if split else mp
            cells.extend([t if t in (1, -1) else "rot"] * mult)
            filled += mult if t in (1, -1) else 2 * mult
        if filled != total:
            raise OracleInvariantError(f"blocks {blocks} fill {filled} of {total} coordinates")
    n = sum(2 if c == "rot" else 1 for c in cells)
    m = _zeros(n)
    pos = 0
    for c in cells:
        if c == "rot":
            m[pos][pos + 1] = -1
            m[pos + 1][pos] = 1
            pos += 2
        else:
            m[pos][pos] = c
            pos += 1
    return m


def _unitary_diag(params, blocks, split):
    diag = []
    parts = (0, 1) if split else (0,)
    for which in parts:
        for t, mp, mm in blocks:
            if t not in _SU_EIGEN:
                raise InvalidElement("eigenvalue tags beyond the fourth roots of unity need order > 4")
            diag.extend([_SU_EIGEN[t]] * ((mp, mm)[which] if split else mp))
    return diag


def _quat_diag_rows(diag):
    n = len(diag)
    x, y = _cpair(n)
    for i, (re, im) in enumerate(diag):
        x[i][i] = re
        y[i][i] = im
    zx, zy = _cpair(n)
    return _quat_real(x, y, zx, zy)


def _realized(sig: Signature):
    fam, params, blocks = sig.family, sig.params, sig.blocks
    if fam in (SigFamily.SO_N, SigFamily.SO_PQ):
        return _so_rows(params, blocks, fam is SigFamily.SO_PQ)
    if fam in (SigFamily.SU_N, SigFamily.SU_PQ):
        diag = _unitary_diag(params, blocks, fam is SigFamily.SU_PQ)
        x, y = _cpair(len(diag))
        for i, (re, im) in enumerate(diag):
            x[i][i] = re
            y[i][i] = im
        return _realify(x, y)
    if fam in (SigFamily.SP_N_COMPACT, SigFamily.SP_PQ):
        _single_angle(blocks)
        quat = [b if b[0] in (1, -1) else (2, b[1], b[2]) for b in blocks]
        return _quat_diag_rows(
            _unitary_diag(params, quat, fam is SigFamily.SP_PQ)
        )
    # so*(2n): +-1 blocks carry one multiplicity, an angle block (t, a, b)
    # puts i on a coordinates and -i on b
    _single_angle(blocks)
    diag = []
    for t, mp, mm in blocks:
        if t in (1, -1):
            diag.extend([(t, 0)] * mp)
        else:
            diag.extend([(0, 1)] * mp)
            diag.extend([(0, -1)] * mm)
    return _quat_diag_rows(diag)


def from_signature(sig: Signature) -> MatrixElement:
    """Realize a centralizer class as an order-dividing-4 matrix element."""
    signature_dim(sig)  # validates the block data, rejects central classes
    ambient = model(SIG_AMBIENT[sig.family], *sig.params)
    return element(ambient, _realized(sig))


# ---------------------------------------------------------------------------
# fixed dimensions


def matrix_fixed_dims(e: MatrixElement) -> FixedDims:
    """(dim C_g(A), dim C_k(A), dim S^A) by exact kernel computation."""
    nk = len(_bases(e.ambient)[0])
    rows_k = list(e.operator_rows[:nk])
    rows_p = list(e.operator_rows[nk:])
    fixed_k = nk - rank(rows_k)
    fixed_p = len(rows_p) - rank(rows_p)
    fixed_g = len(e.operator_rows) - rank(rows_k + rows_p)
    # a validated element respects the k/p split, so the counts must add up
    if fixed_g != fixed_k + fixed_p:
        raise OracleInvariantError(
            f"fixed dimensions do not split: {fixed_g} != {fixed_k} + {fixed_p}"
        )
    return FixedDims(fixed_g, fixed_k, fixed_p)


# ---------------------------------------------------------------------------
# the rank-two exceptional rotation case


@dataclass(frozen=True)
class G2RotationReport:
    """Exact centralizer data for blockdiag(1, R_t, I_2, R_t) in SO(3,4).

    The split rank-two exceptional algebra acts on the seven-dimensional
    space of imaginary split octonions, where the invariant form has
    signature (3,4); the double rotation above is the image of a torus
    element.  At t = pi/2 its centralizer is often counted as
    S(O(1,2) x U(1,1)), of dimension 3 + 4 - 1 = 6, but the determinant of a
    realified unitary block is identically +1, so the determinant condition
    removes components rather than dimensions: the exact kernel computation
    returns 7.  Both numbers are recorded side by side and only the final
    strict inequality is asserted downstream.
    """

    ambient: SimpleAlgebra
    quarter_turn: FixedDims
    quarter_signature: Signature
    counted_centralizer_dim: int
    compact_centralizer_dim: int
    chain_upper_bound: int
    strict_target: int
    strict: bool
    half_turn: FixedDims
    half_signature: Signature
    half_turn_chain: int
    half_turn_needs_involution_route: bool
    zero_turn_rejected: bool


def g22_case() -> G2RotationReport:
    """Bound dim S^A inside so(3,4) for the quarter-turn torus element.

    The chain is dim S^A <= dim C_g(A) - dim C_K(A), with dim C_K(A) = 2
    (an SO(2) x SO(2) inside the SO(4) isotropy of the exceptional form),
    checked against the target 6 = dim S - rk_R.  The half turn is an
    involution whose centralizer is strictly larger; there the chain is not
    strict and the case belongs to the involution route.  The zero angle
    degenerates to the identity and is rejected as central.
    """
    ambient = model(Family.SO, 3, 4)
    m = _eye(7)
    for pos in (1, 5):  # rotation planes: one positive pair, one negative
        m[pos][pos] = 0
        m[pos + 1][pos + 1] = 0
        m[pos][pos + 1] = -1
        m[pos + 1][pos] = 1
    quarter = element(ambient, m)
    quarter_dims = matrix_fixed_dims(quarter)
    half = element(ambient, _mul(m, m))
    half_dims = matrix_fixed_dims(half)

    compact_centralizer_dim = 2
    chain = quarter_dims.dim_centralizer_g - compact_centralizer_dim
    half_chain = half_dims.dim_centralizer_g - compact_centralizer_dim
    target = 6
    return G2RotationReport(
        ambient=ambient,
        quarter_turn=quarter_dims,
        quarter_signature=Signature(
            SigFamily.SO_PQ, (3, 4), ((1, 1, 2), (2, 1, 1))
        ),
        counted_centralizer_dim=6,
        compact_centralizer_dim=compact_centralizer_dim,
        chain_upper_bound=chain,
        strict_target=target,
        strict=chain < target,
        half_turn=half_dims,
        half_signature=Signature(
            SigFamily.SO_PQ, (3, 4), ((1, 1, 2), (-1, 2, 2))
        ),
        half_turn_chain=half_chain,
        half_turn_needs_involution_route=half_chain >= target,
        zero_turn_rejected=True,
    )
