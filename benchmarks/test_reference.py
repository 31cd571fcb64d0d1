"""The benchmark's reference answers against brute force on small graphs.

Run from the repository root: python3 -m pytest -q benchmarks
"""

import itertools
import random

import reference
import streams


def _graphs(count=40, max_n=12):
    rng = random.Random(7)
    for _ in range(count):
        n = rng.randint(2, max_n)
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        m = rng.randint(0, len(pairs))
        yield n, sorted(rng.sample(pairs, m)), rng


def _brute_matching(n, edges):
    best = 0
    for k in range(1, n // 2 + 1):
        for pick in itertools.combinations(edges, k):
            ends = [x for e in pick for x in e]
            if len(set(ends)) == len(ends):
                best = k
                break
        else:
            break
    return best


def _brute_distances(n, edges, source, weights=None):
    w = weights or [1] * len(edges)
    dist = {source: 0}
    for _ in range(n):
        for (u, v), c in zip(edges, w):
            for a, b in ((u, v), (v, u)):
                if a in dist and dist.get(b, float("inf")) > dist[a] + c:
                    dist[b] = dist[a] + c
    return tuple(dist.get(v) for v in range(1, n + 1))


def _brute_components(n, edges):
    label = list(range(n + 1))
    for _ in range(n):
        for (u, v) in edges:
            label[u] = label[v] = min(label[u], label[v])
    return len({label[v] for v in range(1, n + 1)})


def test_triangles_and_edge_counts():
    for n, edges, rng in _graphs():
        es = set(edges)
        brute = sum(1 for a, b, c in itertools.combinations(range(1, n + 1), 3)
                    if {(a, b), (b, c), (a, c)} <= es)
        assert reference.triangles(n, edges) == brute
        u = set(rng.sample(range(1, n + 1), rng.randint(0, n)))
        w = set(range(1, n + 1)) - u
        assert reference.induced_edges(edges, u) == sum(
            1 for a, b in itertools.combinations(sorted(u), 2) if (a, b) in es)
        assert reference.cross_edges(edges, u, w) == sum(
            1 for a in u for b in w if (min(a, b), max(a, b)) in es)


def test_matching_number():
    for n, edges, _ in _graphs(count=30, max_n=10):
        assert reference.matching_number(n, edges) == _brute_matching(n, edges)


def test_components_and_distances():
    for n, edges, rng in _graphs():
        assert reference.component_count(n, edges) == _brute_components(n, edges)
        src = rng.randint(1, n)
        assert reference.distances(n, edges, src) == \
            _brute_distances(n, edges, src)
        weights = [rng.randint(1, 4) for _ in edges]
        assert reference.distances(n, edges, src, weights) == \
            _brute_distances(n, edges, src, weights)


def test_cycles_and_orders():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(3, 9)
        m = rng.randint(2, n * (n - 1) // 2)
        dag = streams.dag_arcs(rng, n, m)
        cyc = streams.cyclic_arcs(rng, n, m)
        for arcs in (dag, cyc):
            brute = not any(reference.is_topological_order(n, arcs, list(o))
                            for o in itertools.permutations(range(1, n + 1)))
            assert reference.has_cycle(n, arcs) == brute
        assert not reference.has_cycle(n, dag)
        assert reference.has_cycle(n, cyc)


def test_independent_sets():
    for n, edges, _ in _graphs(count=30, max_n=9):
        es = set(edges)
        for k in range(n + 1):
            for sub in itertools.combinations(range(1, n + 1), k):
                s = set(sub)
                indep = not any((a, b) in es
                                for a, b in itertools.combinations(sub, 2))
                maximal = all(v in s or any((min(v, x), max(v, x)) in es
                                            for x in s)
                              for v in range(1, n + 1))
                assert reference.is_maximal_independent(n, edges, sub) == \
                    (indep and maximal)


def test_builders_fix_structure():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(8, 12)
        edges = streams.layered_edges(rng, n, 3, 4)
        d = _brute_distances(n, edges, 1)
        assert max(d) == 3 and None not in d
        edges = streams.clustered_edges(rng, n, 3, 2)
        assert _brute_components(n, edges) == 3
