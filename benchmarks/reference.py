"""Reference answers computed apart from the program.

Every function takes the benchmark's own edge lists. None calls
`annostream`, and none uses the routine a prover uses: the matching
number comes from the rank of a random Tutte matrix, not from
networkx's blossom matching, and components and distances come from
`scipy.sparse.csgraph`, not from networkx. Outputs that have many
correct values (an independent set, an order) are checked by their
defining properties instead.
"""

from __future__ import annotations

import random

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, shortest_path

# Mersenne prime 2^31 - 1: residues fit int32, products of two fit int64.
TUTTE_P = (1 << 31) - 1


def _sym_matrix(n: int, edges, weights=None) -> csr_matrix:
    rows, cols, vals = [], [], []
    for i, (u, v) in enumerate(edges):
        w = 1 if weights is None else weights[i]
        rows += [u - 1, v - 1]
        cols += [v - 1, u - 1]
        vals += [w, w]
    return csr_matrix((np.asarray(vals, dtype=np.float64), (rows, cols)),
                      shape=(n, n))


def triangles(n: int, edges) -> int:
    """trace(A^3) / 6 on the 0/1 adjacency matrix."""
    a = np.zeros((n, n), dtype=np.int64)
    for (u, v) in edges:
        a[u - 1, v - 1] = a[v - 1, u - 1] = 1
    return int(np.trace(a @ a @ a)) // 6


def induced_edges(edges, members) -> int:
    return sum(1 for (u, v) in edges if u in members and v in members)


def cross_edges(edges, left, right) -> int:
    return sum(1 for (u, v) in edges
               if (u in left and v in right) or (u in right and v in left))


def rank_mod(mat: np.ndarray, p: int) -> int:
    """Rank over F_p by Gaussian elimination; entries must lie in [0, p)."""
    a = np.array(mat, dtype=np.int64) % p
    rows, cols = a.shape
    rank = 0
    for c in range(cols):
        if rank == rows:
            break
        nz = np.nonzero(a[rank:, c])[0]
        if nz.size == 0:
            continue
        piv = rank + int(nz[0])
        if piv != rank:
            a[[rank, piv]] = a[[piv, rank]]
        inv = pow(int(a[rank, c]), p - 2, p)
        a[rank] = a[rank] * inv % p
        below = a[rank + 1:, c].copy()
        a[rank + 1:] = (a[rank + 1:] - below[:, None] * a[rank]) % p
        rank += 1
    return rank


def matching_number(n: int, edges, seed: int = 0) -> int:
    """Half the rank of a random Tutte matrix mod a large prime.

    The rank is twice the matching number except with probability at most
    n / p (Schwartz-Zippel; Lovasz 1979), and it never exceeds it, so the
    larger of two independent draws is kept.
    """
    best = 0
    for k in range(2):
        rng = random.Random(f"tutte/{seed}/{k}")
        t = np.zeros((n, n), dtype=np.int64)
        for (u, v) in edges:
            x = rng.randrange(1, TUTTE_P)
            t[u - 1, v - 1] = x
            t[v - 1, u - 1] = TUTTE_P - x
        best = max(best, rank_mod(t, TUTTE_P))
    return best // 2


def component_count(n: int, edges) -> int:
    count, _ = connected_components(_sym_matrix(n, edges), directed=False)
    return int(count)


def distances(n: int, edges, source: int, weights=None) -> tuple:
    """Distances from source for vertices 1..n, None when unreachable."""
    g = _sym_matrix(n, edges, weights)
    d = shortest_path(g, method="D", directed=False,
                      unweighted=weights is None, indices=source - 1)
    return tuple(None if np.isinf(x) else int(round(x)) for x in d)


def has_cycle(n: int, arcs) -> bool:
    """A loopless digraph has a cycle iff a strong component has 2+ nodes."""
    rows = [u - 1 for (u, _) in arcs]
    cols = [v - 1 for (_, v) in arcs]
    g = csr_matrix((np.ones(len(arcs)), (rows, cols)), shape=(n, n))
    count, labels = connected_components(g, directed=True,
                                         connection="strong")
    return int(count) < n


def is_maximal_independent(n: int, edges, members) -> bool:
    mem = set(members)
    if len(mem) != len(members) or not mem <= set(range(1, n + 1)):
        return False
    covered = set(mem)
    for (u, v) in edges:
        if u in mem and v in mem:
            return False
        if u in mem:
            covered.add(v)
        if v in mem:
            covered.add(u)
    return len(covered) == n


def is_topological_order(n: int, arcs, order) -> bool:
    if sorted(order) != list(range(1, n + 1)):
        return False
    pos = {v: i for i, v in enumerate(order)}
    return all(pos[u] < pos[v] for (u, v) in arcs)
