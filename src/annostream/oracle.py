"""Brute-force reference answers for every problem the schemes cover.

Everything here recomputes from the final edge multiset with plain data
structures and no shared code with the verifier/prover machinery, so a
scheme bug and an oracle bug cannot cancel. Sizes are desk scale: the
exact matching solver enumerates bitmask states up to n = 20, and larger
graphs fall back to the rank of a random Tutte matrix.
"""

from __future__ import annotations

import heapq
from functools import lru_cache

import numpy as np

from .stream import GraphInstance


def final_multiplicities(inst: GraphInstance) -> dict:
    return inst.final_edges()


def adjacency_sets(inst: GraphInstance) -> list:
    adj = [set() for _ in range(inst.n + 1)]
    for (u, v) in inst.final_edges():
        adj[u].add(v)
        adj[v].add(u)
    return adj


def oracle_triangles(inst: GraphInstance) -> int:
    """sum over u<v<w of A(uv) A(vw) A(uw) on final multiplicities."""
    mult = inst.final_edges()
    n = inst.n
    total = 0
    for (u, v), a in mult.items():
        for w in range(v + 1, n + 1):
            b = mult.get((v, w), 0)
            if b == 0:
                continue
            c = mult.get((u, w), 0)
            if c:
                total += a * b * c
    return total


def oracle_induced_edges(inst: GraphInstance, members) -> int:
    mem = set(members)
    return sum(a for (u, v), a in inst.final_edges().items()
               if u in mem and v in mem)


def oracle_cross_edges(inst: GraphInstance, left, right) -> int:
    ls, rs = set(left), set(right)
    return sum(a for (u, v), a in inst.final_edges().items()
               if (u in ls and v in rs) or (u in rs and v in ls))


def oracle_max_matching(inst: GraphInstance) -> int:
    """Maximum matching size: exact bitmask recursion for n <= 20, half
    the rank of a random Tutte matrix beyond."""
    if inst.n > 20:
        return tutte_rank_matching(inst)
    return bitmask_matching(inst)


def bitmask_matching(inst: GraphInstance) -> int:
    """Exact maximum matching size by bitmask recursion (n <= 20)."""
    n = inst.n
    if n > 20:
        raise ValueError("bitmask matching oracle capped at n=20")
    nbr = [0] * (n + 1)
    for (u, v) in inst.final_edges():
        nbr[u] |= 1 << (v - 1)
        nbr[v] |= 1 << (u - 1)

    @lru_cache(maxsize=None)
    def best(mask: int) -> int:
        if mask == 0:
            return 0
        low = (mask & -mask).bit_length()  # lowest-index vertex present
        rest = mask & ~(1 << (low - 1))
        out = best(rest)
        avail = nbr[low] & rest
        while avail:
            ubit = avail & -avail
            avail ^= ubit
            out = max(out, 1 + best(rest & ~ubit))
        return out

    result = best((1 << n) - 1)
    best.cache_clear()
    return result


TUTTE_PRIME = 2**31 - 1
TUTTE_SEED = 20160711


def tutte_rank_matching(inst: GraphInstance) -> int:
    """Maximum matching size as half the rank of a random Tutte matrix.

    The Tutte matrix has T[u][v] = x_uv = -T[v][u] for every edge uv and
    0 elsewhere; its rank over the rationals is twice the matching number
    (Lovasz 1979). The x_uv are drawn from a generator with a fixed seed
    and the rank is taken mod the prime p = 2^31 - 1 by Gaussian
    elimination in int64 (every product of two residues is below 2^62).
    The error is one-sided: the result is never above the true matching
    number, and falls below it with probability at most n/p (Schwartz-
    Zippel on a nonzero minor of degree at most n), under 1e-7 for
    n <= 200.
    """
    n, p = inst.n, TUTTE_PRIME
    rng = np.random.default_rng(TUTTE_SEED)
    T = np.zeros((n, n), dtype=np.int64)
    for (u, v) in sorted(inst.final_edges()):
        x = int(rng.integers(1, p))
        T[u - 1, v - 1] = x
        T[v - 1, u - 1] = p - x
    rank = 0
    for col in range(n):
        nz = np.flatnonzero(T[rank:, col])
        if nz.size == 0:
            continue
        piv = rank + int(nz[0])
        T[[rank, piv]] = T[[piv, rank]]
        T[rank] = T[rank] * pow(int(T[rank, col]), p - 2, p) % p
        below = T[rank + 1:, col].copy()
        T[rank + 1:] = (T[rank + 1:] - np.outer(below, T[rank]) % p) % p
        rank += 1
        if rank == n:
            break
    return rank // 2


def tutte_berge_bound(inst: GraphInstance) -> int:
    """max matching via min over all U of |V|-odd(G-U)+|U|, halved.

    Exponential in n; used only as an n <= 10 cross-check.
    """
    n = inst.n
    if n > 10:
        raise ValueError("set enumeration capped at n=10")
    edges = list(inst.final_edges())
    best = None
    for umask in range(1 << n):
        removed = {v for v in range(1, n + 1) if umask >> (v - 1) & 1}
        odd = sum(1 for comp in _components_of(
            [e for e in edges if e[0] not in removed and e[1] not in removed],
            [v for v in range(1, n + 1) if v not in removed]) if len(comp) % 2)
        val = n + len(removed) - odd
        best = val if best is None else min(best, val)
    return best // 2


def _components_of(edges, vertices) -> list:
    parent = {v: v for v in vertices}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for u, v in edges:
        ra, rb = find(u), find(v)
        if ra != rb:
            parent[ra] = rb
    groups: dict = {}
    for v in vertices:
        groups.setdefault(find(v), []).append(v)
    return list(groups.values())


def oracle_components(inst: GraphInstance) -> int:
    return len(_components_of(list(inst.final_edges()),
                              list(range(1, inst.n + 1))))


def oracle_is_mis(inst: GraphInstance, members) -> bool:
    """Independent and maximal (every outside vertex has a neighbor in)."""
    mem = set(members)
    adj = adjacency_sets(inst)
    for v in mem:
        if adj[v] & mem:
            return False
    for v in range(1, inst.n + 1):
        if v not in mem and not (adj[v] & mem):
            return False
    return True


def oracle_is_toposort(inst: GraphInstance, order) -> bool:
    order = list(order)
    if sorted(order) != list(range(1, inst.n + 1)):
        return False
    pos = {v: i for i, v in enumerate(order)}
    return all(pos[u] < pos[v] for (u, v) in inst.directed_edges())


def oracle_acyclic(inst: GraphInstance) -> bool:
    n = inst.n
    indeg = [0] * (n + 1)
    out = [[] for _ in range(n + 1)]
    for (u, v) in inst.directed_edges():
        out[u].append(v)
        indeg[v] += 1
    queue = [v for v in range(1, n + 1) if indeg[v] == 0]
    seen = 0
    while queue:
        v = queue.pop()
        seen += 1
        for w in out[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    return seen == n


def oracle_bfs(inst: GraphInstance, source=None) -> list:
    """1-indexed distance list, None when unreachable; index 0 unused."""
    src = source if source is not None else inst.source
    adj = adjacency_sets(inst)
    dist = [None] * (inst.n + 1)
    dist[src] = 0
    frontier = [src]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for v in frontier:
            for u in adj[v]:
                if dist[u] is None:
                    dist[u] = d
                    nxt.append(u)
        frontier = nxt
    return dist


def oracle_dijkstra(inst: GraphInstance, source=None) -> list:
    """Weighted distances; on turnstile streams the aggregated edge
    multiplicity is the weight."""
    src = source if source is not None else inst.source
    adj = [dict() for _ in range(inst.n + 1)]
    if inst.model == "weighted":
        pairs = inst.weighted_edges()
    else:
        pairs = [(u, v, c) for (u, v), c in final_multiplicities(inst).items()]
    for (u, v, w) in pairs:
        adj[u][v] = min(w, adj[u].get(v, w))
        adj[v][u] = min(w, adj[v].get(u, w))
    dist = [None] * (inst.n + 1)
    heap = [(0, src)]
    while heap:
        d, v = heapq.heappop(heap)
        if dist[v] is not None:
            continue
        dist[v] = d
        for u, w in adj[v].items():
            if dist[u] is None:
                heapq.heappush(heap, (d + w, u))
    return dist
