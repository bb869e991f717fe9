"""Root data of the simple complex Lie algebras, for the tests' independent side.

Cartan matrices in Bourbaki's numbering (node i of his planches is index
i - 1 here), with a[i][j] = <alpha_i^vee, alpha_j>, so a root
beta = sum_j n_j alpha_j pairs with alpha_i^vee to sum_j a[i][j] n_j.  The
positive roots are built level by level from the simple roots by root
strings, and cached per Cartan matrix, so per (type, rank).  -w0 is read off a regular dominant weight reflected
to the antidominant chamber.  Standard library only, exact integer
arithmetic, and nothing read from `liecheck`.
"""

from functools import lru_cache


@lru_cache(maxsize=None)
def cartan(kind: str, rank: int) -> tuple[tuple[int, ...], ...]:
    """The Cartan matrix of type `kind` ("A" ... "G") and `rank`: A_n (n >= 1),
    B_n (n >= 2, alpha_n short), C_n (n >= 2, alpha_n long), D_n (n >= 3,
    alpha_{n-1} and alpha_n the fork), E6-E8 (alpha_2 on alpha_4), F4
    (alpha_1, alpha_2 long) and G2 (alpha_1 short)."""
    a = [[2 * (i == j) for j in range(rank)] for i in range(rank)]
    if kind == "D":
        edges = [(i, i + 1) for i in range(rank - 2)] + [(rank - 3, rank - 1)]
    elif kind == "E":
        edges = [(0, 2), (1, 3), *((i, i + 1) for i in range(2, rank - 1))]
    else:
        edges = [(i, i + 1) for i in range(rank - 1)]
    for i, j in edges:
        a[i][j] = a[j][i] = -1
    # a multiple bond: the short root's row reads -2 (-3 for G2)
    if kind == "B":
        a[rank - 1][rank - 2] = -2
    elif kind == "C":
        a[rank - 2][rank - 1] = -2
    elif kind == "F":
        a[2][1] = -2
    elif kind == "G":
        a[0][1] = -3
    return tuple(map(tuple, a))


def _near(a):
    """For each node i, its Dynkin neighbours j with a[i][j]."""
    return [[(j, x) for j, x in enumerate(row) if j != i and x] for i, row in enumerate(a)]


@lru_cache(maxsize=None)
def positive_roots(a: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    """The positive roots of Cartan matrix `a`, as coordinate tuples over the
    simple roots, by height.

    The alpha_i-string through a positive root beta != alpha_i runs from
    beta - p alpha_i to beta + q alpha_i with p - q = <beta, alpha_i^vee>, and
    has no gaps, so beta + alpha_i is a root iff q > 0: iff the pairing is
    negative, or beta - (pairing + 1) alpha_i is a root of a lower level.
    Each root carries its pairings, which alpha_i moves by column i of `a`."""
    rank = len(a)
    level = [(tuple(int(i == j) for j in range(rank)), tuple(row[i] for row in a)) for i in range(rank)]
    roots = [beta for beta, _ in level]
    seen = set(roots)
    while level:
        up = []
        for beta, pairing in level:
            for i, x in enumerate(pairing):
                if x >= 0:
                    if beta[i] <= x:
                        continue
                    down = list(beta)
                    down[i] -= x + 1
                    if tuple(down) not in seen:
                        continue
                gamma = list(beta)
                gamma[i] += 1
                gamma = tuple(gamma)
                if gamma not in seen:
                    seen.add(gamma)
                    up.append((gamma, tuple(y + row[i] for y, row in zip(pairing, a))))
        roots += [beta for beta, _ in up]
        level = up
    return tuple(roots)


def dimension(a) -> int:
    """dim g = rank + 2 |positive roots| for the Cartan matrix `a`."""
    return len(a) + 2 * len(positive_roots(a))


def principal(a, nodes) -> tuple[tuple[int, ...], ...]:
    """The Cartan matrix of the subdiagram on `nodes` (indices into `a`)."""
    return tuple(tuple(a[i][j] for j in nodes) for i in nodes)


@lru_cache(maxsize=None)
def opposition(a: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    """-w0 as a node permutation sigma, w0(omega_i) = -omega_sigma[i], for
    any Cartan matrix `a`, a sum of simple ones included.

    v = sum_i (i + 1) omega_i is regular and dominant.  Reflecting it at a
    node whose label <v, alpha_i^vee> is positive, until none is, applies a
    reduced word of w0, so the labels end as those of w0(v): -(i + 1) at
    sigma[i]."""
    near = _near(a)
    labels = list(range(1, len(a) + 1))
    while True:
        i = next((i for i, x in enumerate(labels) if x > 0), None)
        if i is None:
            return tuple(labels.index(-k) for k in range(1, len(a) + 1))
        # s_i(v) = v - <v, alpha_i^vee> alpha_i, in fundamental weights
        x = labels[i]
        labels[i] = -x
        for j, _ in near[i]:
            labels[j] -= x * a[j][i]


def automorphisms(a) -> list[tuple[int, ...]]:
    """The node permutations that fix the Cartan matrix `a`.  Nodes are
    mapped in order; a node with an earlier neighbour can only go to a
    neighbour of that neighbour's image, and a partial map is kept only
    while every entry among the mapped nodes agrees."""
    rank = len(a)
    near = _near(a)
    found = []

    def extend(image):
        i = len(image)
        if i == rank:
            found.append(tuple(image))
            return
        earlier = [j for j, _ in near[i] if j < i]
        targets = [t for t, _ in near[image[earlier[0]]]] if earlier else range(rank)
        for t in targets:
            if t not in image and all(
                a[i][j] == a[t][image[j]] and a[j][i] == a[image[j]][t] for j in range(i)
            ):
                extend(image + [t])

    extend([])
    return found


def cycles(permutation) -> list[int]:
    """The cycle lengths of a permutation of range(len(permutation))."""
    left = set(range(len(permutation)))
    lengths = []
    while left:
        i = j = left.pop()
        length = 1
        while permutation[j] != i:
            j = permutation[j]
            left.remove(j)
            length += 1
        lengths.append(length)
    return lengths
