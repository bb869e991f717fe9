"""Exact linear algebra over the rationals.

Entries are plain Python ints (arbitrary precision) or fractions.Fraction;
there is no floating point and hence no tolerance anywhere.

A sparse row is a pair (columns, values): strictly increasing columns and
a nonzero value for each, so an all-zero row has no columns.  There is one
elimination, `reduced_form`: every rank past two rows counts its pivots,
and every span test reads a form it built.

`reduced_form` eliminates a set of sparse rows once into reduced echelon
form over Q: each pivot is 1 and every other pivot column is cleared, so
its number of pivots is the rank.  int rows and Fraction rows go in as
they are; an integral quotient is kept as an int.  `in_span` then tests
whether other sparse rows lie in that span, each in one pass with no
coefficient growth; this is how the matrix oracle validates an element
against a basis it reduced once.  Neither mutates the caller's rows.

`sparse_ranks` ranks several sets of sparse rows at once.  It splits the
columns of their union once into classes joined through shared rows, and
ranks each set class by class: the operators arising from block-diagonal
group elements decompose into many small blocks, and eliminating them
separately keeps each reduced form small.  A class holding a single row
of a set counts 1.  A class holding two counts 1 when the two rows have
the same columns and proportional values, tested by cross-multiplication,
and 2 otherwise; no elimination runs.  A class of three or more rows
counts the pivots of its `reduced_form`, unless it holds the same rows as
when it was last eliminated: then it takes that rank again (a class of
the matrix oracle's operator rows that holds only k rows has the same
rows in the k set and in the whole, as in a compact ambient, where the k
set is every row).

`rank` takes dense rows and hands their nonzeros to `sparse_ranks`.
"""

from fractions import Fraction
from itertools import compress

# the elimination loop runs in pure Python; reported in benchmark provenance
BACKEND = "pure"


def sparse_ranks(row_sets):
    """Exact rank of each set of sparse rows, over one column partition.

    The partition is taken from the union of the sets, so it may be coarser
    than one set alone needs; rows of different classes never share a
    column, so each set's rank is the sum of its ranks per class.  A class
    of one row has rank 1; one of two rows has rank 1 exactly when the rows
    have the same columns and proportional values, else 2.  Only a class of
    three or more rows is eliminated, unless a set holds the same rows of
    it as when it was last eliminated: then it takes that rank again.
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
            if len(members) == 2:
                # rank 1 when a = f * b: the same columns, compared as sequences
                # (a list may meet a tuple), and a[i] * b[0] == b[i] * a[0] at each
                (ca, va), (cb, vb) = members
                a0, b0 = va[0], vb[0]
                proportional = tuple(ca) == tuple(cb) and all(x * b0 == y * a0 for x, y in zip(va, vb))
                total += 1 if proportional else 2
                continue
            prior = last.get(key)
            if prior is None or prior[0] != members:
                prior = last[key] = (members, len(reduced_form(members)))
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

    The rows are taken in decreasing order of their columns, compared as
    sequences, so a new pivot mostly lies left of every earlier one; as a
    row holds only columns right of its own pivot, no earlier row then
    needs clearing.  The form is the same in any order.
    """
    form = {}
    low = None  # the leftmost pivot so far
    for cols, vals in sorted(rows, key=lambda row: tuple(row[0]), reverse=True):
        rest = _residual(form, cols, vals)
        pivot = min(compress(rest, rest.values()), default=None)
        if pivot is None:
            continue
        lead = rest.pop(pivot)
        # an integral quotient is kept as an int
        row = {c: x // lead if not x % lead else Fraction(x, lead) for c, x in rest.items() if x}
        if low is None or pivot < low:  # then no earlier row holds it
            low = pivot
        else:
            for orow in form.values():
                f = orow.pop(pivot, 0)
                if f:
                    for c, x in row.items():
                        y = orow.get(c, 0) - f * x
                        if y:
                            orow[c] = y
                        else:
                            del orow[c]
        form[pivot] = row
    return form


def in_span(reduced, rows):
    """Whether every sparse row lies in the span of a `reduced_form`."""
    for cols, vals in rows:
        if not cols:  # the zero row lies in every span
            continue
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
