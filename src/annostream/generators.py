"""Deterministic instance generators.

Every generator is a pure function of its arguments including the seed,
so serialized streams are byte-identical across runs.
"""

from __future__ import annotations

from .field import make_rng
from .stream import AdjItem, EdgeToken, GraphInstance


def _pairs(n: int):
    return [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]


def gnp_edges(n: int, prob: float, seed: int) -> list:
    rng = make_rng(seed, "gnp")
    return [e for e in _pairs(n) if rng.random() < prob]


def vanilla_instance(n: int, edges, source=None, target=None,
                     shuffle_seed=None) -> GraphInstance:
    edges = list(edges)
    if shuffle_seed is not None:
        make_rng(shuffle_seed, "order").shuffle(edges)
    toks = [EdgeToken(u, v, 1) for (u, v) in edges]
    return GraphInstance(n=n, model="vanilla", source=source, target=target,
                         tokens=toks)


def turnstile_instance(n: int, edges, churn: int = 0, seed: int = 0,
                       source=None, target=None) -> GraphInstance:
    """Final graph = edges; churn extra edges get inserted then deleted."""
    rng = make_rng(seed, "turnstile")
    final = set(edges)
    spare = [e for e in _pairs(n) if e not in final]
    rng.shuffle(spare)
    toks = [EdgeToken(u, v, 1) for (u, v) in final]
    for (u, v) in spare[:churn]:
        toks.append(EdgeToken(u, v, 1))
        toks.append(EdgeToken(u, v, -1))
    rng.shuffle(toks)
    return GraphInstance(n=n, model="turnstile", source=source,
                         target=target, tokens=toks)


def weighted_instance(n: int, prob: float, W: int, seed: int,
                      source=None, target=None) -> GraphInstance:
    rng = make_rng(seed, "weighted")
    toks = [EdgeToken(u, v, 1, rng.randint(1, W))
            for (u, v) in _pairs(n) if rng.random() < prob]
    return GraphInstance(n=n, model="weighted", W=W, source=source,
                         target=target, tokens=toks)


def weighted_turnstile_instance(n: int, prob: float, W: int, seed: int,
                                churn: int = 0, source=None,
                                target=None) -> GraphInstance:
    """Turnstile stream whose aggregated multiplicity is the edge weight.

    Weights land in [1, W]; churn adds +1/-1 update pairs that cancel,
    possibly on edges that already carry weight.
    """
    rng = make_rng(seed, "wturnstile")
    toks = []
    for (u, v) in _pairs(n):
        if rng.random() < prob:
            w = rng.randint(1, W)
            while w:
                step = rng.randint(1, w)
                toks.append(EdgeToken(u, v, step))
                w -= step
    pool = _pairs(n)
    for _ in range(churn):
        u, v = pool[rng.randrange(len(pool))]
        toks.append(EdgeToken(u, v, 1))
        toks.append(EdgeToken(u, v, -1))
    rng.shuffle(toks)
    return GraphInstance(n=n, model="turnstile", W=W, source=source,
                         target=target, tokens=toks)


def adjlist_instance(n: int, edges) -> GraphInstance:
    rows: dict = {v: [] for v in range(1, n + 1)}
    for (u, v) in edges:
        rows[u].append(v)
        rows[v].append(u)
    toks = []
    for v in range(1, n + 1):
        for u in sorted(rows[v]):
            toks.append(AdjItem(v, u))
    return GraphInstance(n=n, model="adjlist", tokens=toks)


def dag_instance(n: int, prob: float, seed: int) -> GraphInstance:
    """Random DAG; edges point forward along a hidden permutation."""
    rng = make_rng(seed, "dag")
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    toks = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < prob:
                toks.append(EdgeToken(perm[i], perm[j], 1))
    rng.shuffle(toks)
    return GraphInstance(n=n, model="vanilla", tokens=toks)


def digraph_instance(n: int, prob: float, seed: int) -> GraphInstance:
    """Random directed graph, cycles allowed, no 2-cycles or loops."""
    rng = make_rng(seed, "digraph")
    toks = []
    for (u, v) in _pairs(n):
        if rng.random() < prob:
            if rng.random() < 0.5:
                u, v = v, u
            toks.append(EdgeToken(u, v, 1))
    rng.shuffle(toks)
    return GraphInstance(n=n, model="vanilla", tokens=toks)


def path_edges(n: int) -> list:
    return [(i, i + 1) for i in range(1, n)]


def cycle_edges(n: int) -> list:
    return path_edges(n) + [(1, n)]


def clique_edges(k: int) -> list:
    return _pairs(k)


def star_edges(center: int, leaves) -> list:
    return [(min(center, v), max(center, v)) for v in leaves]


def with_query_set(inst: GraphInstance, members,
                   right=None) -> GraphInstance:
    line = (list(members), list(right or ()))
    return GraphInstance.from_columns(
        inst.n, inst.model, inst.W, inst.source, inst.target,
        edges=inst.edges, queries=inst.queries + (line,))
