"""Exact linear algebra over the rationals.

Entries are plain Python ints (arbitrary precision) or fractions.Fraction;
there is no floating point and hence no tolerance anywhere.

A sparse row is a pair (columns, values): strictly increasing columns and
a nonzero value for each, so an all-zero row has no columns.
`sparse_ranks` ranks several sets of such rows at once.  It splits the
columns of their union once into classes joined through shared rows, and
ranks each set class by class: the operators arising from block-diagonal
group elements decompose into many small blocks, and eliminating them
separately keeps the integer growth down.  A class holding a single row of
a set counts 1.  A larger one goes to fraction-free Bareiss elimination,
unless it holds the same rows as when it was last eliminated: then it
takes that rank again (a class of the matrix oracle's operator rows that
holds only k rows has the same rows in the k set and in the whole).
Elimination runs on fresh blocks, so the caller's rows are never mutated:
a row whose values are all ints is packed as it is, and a row holding any
other rational (a Fraction, or an int-like such as a bool) is scaled by
the lcm of its denominators into ints.

`reduced_form` eliminates a set of sparse rows once into reduced echelon
form: each pivot is 1 and every other pivot column is cleared, so its
number of pivots is the rank.  `in_span` then tests whether other sparse
rows lie in that span, each in one pass with no coefficient growth; this
is how the matrix oracle validates an element against a basis it reduced
once.  Both scale rows into ints as `sparse_ranks` does, and neither
mutates the caller's rows.

`rank` takes dense rows and hands their nonzeros to `sparse_ranks`.
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


def _scaled_to_ints(vals):
    """The values of a row that are not all ints, scaled by the lcm of their
    denominators into ints."""
    fracs = [Fraction(x) for x in vals]
    scale = lcm(*(x.denominator for x in fracs))
    return [int(x * scale) for x in fracs]


def _block_rank(rows):
    """Rank of sparse rows packed densely over the columns they use."""
    block_cols = {c for cols, _ in rows for c in cols}
    remap = dict(zip(block_cols, range(len(block_cols))))
    width = len(block_cols)
    block = []
    for cols, vals in rows:
        if not _INT_ONLY.issuperset(map(type, vals)):
            vals = _scaled_to_ints(vals)
        packed = [0] * width
        for c, x in zip(cols, vals):
            packed[remap[c]] = x
        block.append(packed)
    return bareiss_rank(block)


def sparse_ranks(row_sets):
    """Exact rank of each set of sparse rows, over one column partition.

    The partition is taken from the union of the sets, so it may be coarser
    than one set alone needs; rows of different classes never share a
    column, so each set's rank is the sum of its ranks per class.
    """
    parent = {}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    # a row shared between sets is joined once; an all-zero row joins nothing
    rows = {id(row): row for row_set in row_sets for row in row_set if row[0]}
    get = parent.get
    for cols, _ in rows.values():
        root = find(parent.setdefault(cols[0], cols[0]))
        for c in cols[1:]:
            rc = get(c)
            if rc is None:
                parent[c] = root
            elif rc != root:
                rc = find(rc)
                if rc != root:
                    parent[rc] = root
    cls = {i: find(row[0][0]) for i, row in rows.items()}

    out = []
    last = {}  # class -> (its rows, their rank) as last eliminated
    for row_set in row_sets:
        by_class = {}
        for row in row_set:
            key = cls.get(id(row))
            if key is not None:
                by_class.setdefault(key, []).append(row)
        total = 0
        for key, members in by_class.items():
            if len(members) == 1:
                total += 1
                continue
            prior = last.get(key)
            if prior is None or prior[0] != members:
                prior = last[key] = (members, _block_rank(members))
            total += prior[1]
        out.append(total)
    return out


def _residual(reduced, cols, vals):
    """A row less its combination of the reduced rows, as {column: value}
    over the columns that are not pivots; the values may include zeros.

    Every reduced row is 1 at its own pivot and 0 at the others, so the
    coefficient of each is the row's own value at that pivot: one pass, with
    no coefficient growth.
    """
    acc = {}
    get = acc.get
    for c, x in zip(cols, vals):
        pivot_row = reduced.get(c)
        if pivot_row is None:
            acc[c] = get(c, 0) + x
        else:
            for pc, pv in pivot_row.items():
                acc[pc] = get(pc, 0) - x * pv
    return acc


def reduced_form(rows):
    """Reduced echelon form of sparse rows, as {pivot column: {column: value}}.

    A reduced row is 1 at its pivot, which it does not store, and 0 at every
    other pivot.  Each row is reduced against the form so far; what is left,
    if anything, is scaled to 1 at its first column, which becomes a new
    pivot and is cleared from the earlier rows.  The number of pivots is the
    rank of the rows.
    """
    form = {}
    users = {}  # column -> pivots whose rows are, or once were, nonzero there
    for cols, vals in rows:
        if not _INT_ONLY.issuperset(map(type, vals)):
            vals = _scaled_to_ints(vals)
        rest = {c: x for c, x in _residual(form, cols, vals).items() if x}
        if not rest:
            continue
        pivot = min(rest)
        lead = rest.pop(pivot)
        # an integral quotient is kept as an int
        row = {c: x // lead if not x % lead else Fraction(x, lead) for c, x in rest.items()}
        for other in users.pop(pivot, ()):
            orow = form[other]
            f = orow.pop(pivot, 0)
            if not f:  # the row lost this column after it was listed
                continue
            for c, x in row.items():
                y = orow.get(c, 0) - f * x
                if not y:
                    del orow[c]
                    continue
                if c not in orow:
                    users.setdefault(c, []).append(other)
                orow[c] = y
        form[pivot] = row
        for c in row:
            users.setdefault(c, []).append(pivot)
    return form


def in_span(reduced, rows):
    """Whether every sparse row lies in the span of a `reduced_form`."""
    for cols, vals in rows:
        if not cols:  # the zero row lies in every span
            continue
        if not _INT_ONLY.issuperset(map(type, vals)):
            vals = _scaled_to_ints(vals)
        if any(_residual(reduced, cols, vals).values()):
            return False
    return True


def rank(rows):
    """Exact rank of a matrix given as a list of equal-length dense rows."""
    if not rows:
        return 0
    cols = range(len(rows[0]))
    sparse = []
    for row in rows:
        sup = list(compress(cols, row))
        sparse.append((sup, [row[c] for c in sup]))
    return sparse_ranks([sparse])[0]
