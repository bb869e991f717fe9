"""Exact linear algebra over the rationals.

Entries are plain Python ints (arbitrary precision) or fractions.Fraction;
there is no floating point and hence no tolerance anywhere.  Rank is
computed by fraction-free Bareiss elimination after splitting the matrix
into connected components of its nonzero pattern -- the operators arising
from block-diagonal group elements decompose into many small blocks, and
eliminating them separately keeps the integer growth down.

Only nonzero entries are ever looked at past a zero count: a row whose
nonzero entries are all ints hands them on as they are, and only a row
holding some other rational (a Fraction, or an int-like such as a bool) is
scaled by the lcm of its denominators into ints.  Elimination runs on
fresh blocks, so the caller's rows are never mutated.
"""

from fractions import Fraction
from itertools import compress
from math import lcm

# the elimination loop runs in pure Python; reported in benchmark provenance
BACKEND = "pure"

_INT_ONLY = {int}


def bareiss_rank(m):
    """Rank of a list-of-rows integer matrix.  Mutates m."""
    nr = len(m)
    nc = len(m[0]) if nr else 0
    row = 0
    prev = 1
    for col in range(nc):
        if row >= nr:
            break
        piv = -1
        for r in range(row, nr):
            if m[r][col]:
                piv = r
                break
        if piv < 0:
            continue
        if piv != row:
            m[row], m[piv] = m[piv], m[row]
        mrow = m[row]
        pivot = mrow[col]
        for r in range(row + 1, nr):
            mr = m[r]
            t = mr[col]
            # Sylvester identity: the division by the previous pivot is exact.
            for c in range(col + 1, nc):
                mr[c] = (pivot * mr[c] - t * mrow[c]) // prev
            mr[col] = 0
        prev = pivot
        row += 1
    return row


def _sparse_rows(rows, nc):
    """(columns, values) of the nonzero entries of every nonzero row.

    Values of a row that are all ints are taken as they are; a row holding
    any other rational is scaled by the lcm of its denominators into ints.
    """
    cols = list(range(nc))
    out = []
    for row in rows:
        if row.count(0) == nc:
            continue
        sup = list(compress(cols, row))
        vals = [row[c] for c in sup]
        if not set(map(type, vals)) <= _INT_ONLY:
            fracs = [Fraction(x) for x in vals]
            scale = lcm(*(x.denominator for x in fracs))
            vals = [int(x * scale) for x in fracs]
        out.append((sup, vals))
    return out


def _components(rows):
    """Split sparse rows into dense blocks connected through nonzero entries."""
    parent = {}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for sup, _ in rows:
        for c in sup:
            parent.setdefault(c, c)
        root = find(sup[0])
        for c in sup[1:]:
            rc = find(c)
            if rc != root:
                parent[rc] = root

    by_root = {}
    for row in rows:
        by_root.setdefault(find(row[0][0]), []).append(row)

    blocks = []
    for members in by_root.values():
        block_cols = sorted({c for sup, _ in members for c in sup})
        remap = {c: j for j, c in enumerate(block_cols)}
        block = []
        for sup, vals in members:
            packed = [0] * len(block_cols)
            for c, x in zip(sup, vals):
                packed[remap[c]] = x
            block.append(packed)
        blocks.append(block)
    return blocks


def rank(rows):
    """Exact rank of a matrix given as a list of equal-length rows."""
    if not rows:
        return 0
    blocks = _components(_sparse_rows(rows, len(rows[0])))
    return sum(bareiss_rank(block) for block in blocks)


def kernel_dim(rows, ncols):
    """Dimension of {x : Mx = 0} for the ncols-column matrix M."""
    return ncols - rank(rows)
