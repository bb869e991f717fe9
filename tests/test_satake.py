"""Satake diagrams: the independent check of the catalog's dims, ranks and Out.

A real form's Satake diagram (Helgason, *Differential Geometry, Lie Groups,
and Symmetric Spaces*, ch. X, Table VI; Araki 1962) marks the Dynkin
diagram of its complexification: black nodes are compact simple roots, the
rest are white, and some pairs of white nodes are joined by arrows.  With
root data from `_rootdata`, which reads nothing from `liecheck`, the
diagram gives:

- a root alpha = sum n_i alpha_i vanishes on a iff n_i = 0 at every white
  node i (the white roots' restrictions, arrow-joined pairs identified,
  are linearly independent);
- rk_R = #white - #arrows;
- dim S = rk_R + #{alpha > 0 with a nonzero white coordinate}, since each
  g_lambda + g_-lambda splits evenly between k and p, and p meets the
  centralizer of a in a alone;
- dim g = rank + 2 |positive roots|, and dim K = dim g - dim S;
- rk K = the number of orbits of eps o (-w0) on the nodes.  The index
  involution eps swaps arrow-joined white nodes, and on the black nodes it
  is the -w0 of the black subdiagram: it must act there too, or su(1,4)
  would come out as 3, not 4.

A complex algebra viewed as real has (dim g, dim K, dim S, rk_R, rk K) =
(2 dim, dim, dim, rank, rank), and its outer automorphism group is
Aut(Dynkin diagram) x Z/2, Aut read off the Cartan matrix as the node
permutations that fix it.

The diagrams are stated here: one rule per classical real family, in
Bourbaki's numbering (nodes 1..rank), and one literal per noncompact
exceptional form.  A disagreement with the catalog is a finding; neither
side is edited to make them agree.
"""

from math import lcm

import _rootdata as rd

from liecheck.algebras import COMPLEX, Family, OutIso, dims, iter_noncompact_simple, out_group

# max-param of both checks.  Bound 16: 252 real forms and 45 complex ones,
# about 0.1 s for both tests; max-param 24 (524 and 69) takes about 0.5 s,
# most of it the A_n roots of sl(n,H), which complexifies to A_2n-1.
BOUND = 16

# (type, rank, white nodes, arrows) of each noncompact exceptional form
_EXCEPTIONAL = {
    "g2(2)": ("G", 2, (1, 2), ()),
    "f4(4)": ("F", 4, (1, 2, 3, 4), ()),
    "f4(-20)": ("F", 4, (4,), ()),
    "e6(6)": ("E", 6, (1, 2, 3, 4, 5, 6), ()),
    "e6(2)": ("E", 6, (1, 2, 3, 4, 5, 6), ((1, 6), (3, 5))),
    "e6(-14)": ("E", 6, (1, 2, 6), ((1, 6),)),
    "e6(-26)": ("E", 6, (1, 6), ()),
    "e7(7)": ("E", 7, (1, 2, 3, 4, 5, 6, 7), ()),
    "e7(-5)": ("E", 7, (1, 3, 4, 6), ()),
    "e7(-25)": ("E", 7, (1, 6, 7), ()),
    "e8(8)": ("E", 8, (1, 2, 3, 4, 5, 6, 7, 8), ()),
    "e8(-24)": ("E", 8, (1, 6, 7, 8), ()),
}

# the complex algebras' Dynkin types
_COMPLEX_EXCEPTIONAL = {
    "g2(C)": ("G", 2), "f4(C)": ("F", 4), "e6(C)": ("E", 6), "e7(C)": ("E", 7), "e8(C)": ("E", 8),
}


def _complex_type(a):
    if a.family is Family.SL_C:
        return "A", a.params[0] - 1
    if a.family is Family.SO_C:
        (n,) = a.params
        return ("B", n // 2) if n % 2 else ("D", n // 2)
    if a.family is Family.SP_C:
        return "C", a.params[0]
    return _COMPLEX_EXCEPTIONAL[a.name]


def _satake(a):
    """(type, rank, white nodes, arrows) of a noncompact real form's diagram."""
    if a.name in _EXCEPTIONAL:
        return _EXCEPTIONAL[a.name]
    # the size n, or p + q with p <= q
    F, fam, n, p = Family, a.family, sum(a.params), min(a.params)
    if fam is F.SL_R:  # split
        return "A", n - 1, range(1, n), ()
    if fam is F.SL_H:  # the odd nodes black
        return "A", 2 * n - 1, range(2, 2 * n, 2), ()
    if fam is F.SU:  # p white nodes at each end, i arrow-joined to n - i; black between
        white = [i for i in range(1, n) if min(i, n - i) <= p]
        return "A", n - 1, white, [(i, n - i) for i in range(1, p + 1) if i < n - i]
    if fam is F.SO and n % 2:  # B_m: the first p nodes white
        return "B", n // 2, range(1, p + 1), ()
    if fam is F.SO:  # D_m: the first p white; all white with the fork joined if q = p + 2
        m = n // 2
        if p >= m - 1:
            return "D", m, range(1, m + 1), [(m - 1, m)] if p == m - 1 else ()
        return "D", m, range(1, p + 1), ()
    if fam is F.SP_R:  # split
        return "C", n, range(1, n + 1), ()
    if fam is F.SP:  # the first p even nodes white
        return "C", n, range(2, 2 * p + 1, 2), ()
    # so*(2n): the even nodes white, and of the fork node n for n even, else
    # both fork nodes, arrow-joined
    assert fam is F.SO_STAR, a.name
    if n % 2:
        return "D", n, [*range(2, n - 2, 2), n - 1, n], [(n - 1, n)]
    return "D", n, [*range(2, n - 1, 2), n], ()


def _diagram_dims(kind, rank, white, arrows):
    """(dim g, dim K, dim S, rk_R, rk K) by the rules of the module docstring."""
    a = rd.cartan(kind, rank)
    white = {i - 1 for i in white}
    rk_r = len(white) - len(arrows)
    dim_s = rk_r + sum(1 for root in rd.positive_roots(a) if any(root[i] for i in white))
    dim_g = rd.dimension(a)
    eps = list(range(rank))
    for i, j in arrows:
        eps[i - 1], eps[j - 1] = j - 1, i - 1
    black = [i for i in range(rank) if i not in white]
    for i, j in zip(black, rd.opposition(rd.principal(a, black))):
        eps[i] = black[j]
    rk_k = len(rd.cycles([eps[j] for j in rd.opposition(a)]))
    return dim_g, dim_g - dim_s, dim_s, rk_r, rk_k


def test_satake_diagrams_give_the_catalog_dims():
    forms = list(iter_noncompact_simple(BOUND))
    for a in forms:
        if a.family in COMPLEX:
            kind, rank = _complex_type(a)
            d = rd.dimension(rd.cartan(kind, rank))
            expected = (2 * d, d, d, rank, rank)
        else:
            expected = _diagram_dims(*_satake(a))
        assert dims(a) == expected, a.name
    assert len(forms) == 297
    assert _EXCEPTIONAL.keys() <= {a.name for a in forms} and len(_EXCEPTIONAL) == 12


def test_complex_out_group_is_diagram_automorphisms_times_z2():
    orders = {OutIso.Z2: 2, OutIso.Z2xZ2: 4, OutIso.S3xZ2: 12}
    complex_forms = [a for a in iter_noncompact_simple(BOUND) if a.family in COMPLEX]
    for a in complex_forms:
        kind, rank = _complex_type(a)
        aut = rd.automorphisms(rd.cartan(kind, rank))
        exponent = lcm(2, *(lcm(*rd.cycles(g)) for g in aut))
        out = out_group(a)
        assert orders[out.iso_type] == 2 * len(aut), a.name
        assert out.exponent == exponent, a.name
        # Aut is a 2-group except for D4's S3
        assert len(aut) & (len(aut) - 1) == 0 or (kind, rank) == ("D", 4), a.name
    assert len(complex_forms) == 45

