"""The operator rows of a matrix-oracle element, on either path.

An element on the span path stores its rows.  One on the map path stores
its basis map b -> (pi(b), eps_b), with A M_b A^-1 = eps_b M_pi(b), and
`operator_rows` expands it: the row of A M_b A^-1 - M_b is
eps_b M_pi(b) - M_b, kept as the primitive integer sparse row that the span
path stores, its cells increasing and its values divided by their gcd.
"""

from math import gcd

from liecheck import matrixoracle as mo


def operator_rows(e):
    """The rows `e` stores, or the rows its basis map expands to."""
    if e.basis_map is None:
        return e.operator_rows
    n = len(e.entries)
    matrices = mo._bases(e.ambient).matrices
    rows = []
    for m, (target, eps) in zip(matrices, e.basis_map):
        acc = {}
        for sign, triples in ((eps, matrices[target]), (-1, m)):
            for i, j, x in triples:
                acc[i * n + j] = acc.get(i * n + j, 0) + sign * x
        cells = sorted(c for c, v in acc.items() if v)
        g = gcd(*(acc[c] for c in cells))
        rows.append((cells, [acc[c] // g for c in cells]))
    return tuple(rows)
