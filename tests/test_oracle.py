"""Brute-force reference answers, cross-checked against hand values,
closed forms, and an independent library implementation."""

import random

import networkx as nx

from annostream import GraphInstance
from annostream.generators import (clique_edges, cycle_edges, dag_instance,
                                   digraph_instance, gnp_edges, path_edges,
                                   star_edges, turnstile_instance,
                                   vanilla_instance, weighted_instance,
                                   weighted_turnstile_instance)
from annostream.oracle import (oracle_acyclic, oracle_bfs, oracle_components,
                               oracle_cross_edges, oracle_dijkstra,
                               oracle_induced_edges, oracle_is_mis,
                               oracle_is_toposort, oracle_max_matching,
                               oracle_triangles, tutte_berge_bound,
                               tutte_rank_matching)


def test_triangles_closed_forms():
    # C(k,3) in a clique, zero on trees and cycles above girth 3
    assert oracle_triangles(vanilla_instance(5, clique_edges(5))) == 10
    assert oracle_triangles(vanilla_instance(7, clique_edges(7))) == 35
    assert oracle_triangles(vanilla_instance(6, path_edges(6))) == 0
    assert oracle_triangles(vanilla_instance(5, cycle_edges(5))) == 0
    assert oracle_triangles(vanilla_instance(3, cycle_edges(3))) == 1


def test_triangles_counts_multiplicity_products():
    # doubling one edge of a triangle doubles the product count
    tokens = list(turnstile_instance(3, cycle_edges(3)).tokens)
    inst = GraphInstance(n=3, model="turnstile",
                         tokens=tokens + [type(tokens[0])(1, 2, 1)])
    assert oracle_triangles(inst) == 2


def test_triangles_match_networkx():
    rng = random.Random(0)
    for trial in range(20):
        n = rng.randrange(5, 13)
        edges = gnp_edges(n, 0.4, trial)
        inst = vanilla_instance(n, edges)
        g = nx.Graph(edges)
        g.add_nodes_from(range(1, n + 1))
        assert oracle_triangles(inst) == sum(nx.triangles(g).values()) // 3


def test_set_counts():
    inst = vanilla_instance(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6)])
    assert oracle_induced_edges(inst, {1, 2, 3}) == 2
    assert oracle_induced_edges(inst, {1, 3, 5}) == 0
    assert oracle_cross_edges(inst, {1, 2}, {3, 4}) == 1
    assert oracle_cross_edges(inst, {2}, {1, 3}) == 2


def test_matching_hand_values():
    assert oracle_max_matching(vanilla_instance(6, path_edges(6))) == 3
    assert oracle_max_matching(vanilla_instance(5, path_edges(5))) == 2
    assert oracle_max_matching(vanilla_instance(5, cycle_edges(5))) == 2
    assert oracle_max_matching(vanilla_instance(6, clique_edges(6))) == 3
    assert oracle_max_matching(
        vanilla_instance(5, star_edges(1, [2, 3, 4, 5]))) == 1
    assert oracle_max_matching(vanilla_instance(4, [])) == 0


def test_matching_tutte_berge_consistency():
    # the certificate bound meets the search value on every trial
    rng = random.Random(1)
    for trial in range(60):
        n = rng.randrange(2, 11)
        inst = vanilla_instance(n, gnp_edges(n, rng.uniform(0.1, 0.8),
                                             1000 + trial))
        assert oracle_max_matching(inst) == tutte_berge_bound(inst)


def test_matching_vs_networkx():
    rng = random.Random(2)
    for trial in range(25):
        n = rng.randrange(4, 17)
        edges = gnp_edges(n, 0.35, 2000 + trial)
        inst = vanilla_instance(n, edges)
        g = nx.Graph(edges)
        g.add_nodes_from(range(1, n + 1))
        assert oracle_max_matching(inst) == len(nx.max_weight_matching(g))


def test_tutte_rank_agrees_with_bitmask():
    # the n > 20 path against the exact recursion, on every density
    rng = random.Random(3)
    for trial in range(120):
        n = rng.randrange(1, 17)
        edges = gnp_edges(n, rng.choice([0.0, 0.1, 0.3, 0.6, 1.0]),
                          3000 + trial)
        inst = vanilla_instance(n, edges)
        assert tutte_rank_matching(inst) == oracle_max_matching(inst), \
            (n, edges)


def test_matching_past_twenty():
    assert oracle_max_matching(vanilla_instance(41, path_edges(41))) == 20
    assert oracle_max_matching(vanilla_instance(41, cycle_edges(41))) == 20
    assert oracle_max_matching(vanilla_instance(25, clique_edges(25))) == 12
    assert oracle_max_matching(
        vanilla_instance(30, star_edges(1, list(range(2, 31))))) == 1
    assert oracle_max_matching(vanilla_instance(30, [])) == 0


def test_components():
    inst = vanilla_instance(7, [(1, 2), (2, 3), (5, 6)])
    assert oracle_components(inst) == 4  # {123} {4} {56} {7}
    assert oracle_components(vanilla_instance(5, [])) == 5
    assert oracle_components(vanilla_instance(5, cycle_edges(5))) == 1


def test_mis_predicate():
    inst = vanilla_instance(5, path_edges(5))
    assert oracle_is_mis(inst, {1, 3, 5})
    assert oracle_is_mis(inst, {1, 4})
    assert not oracle_is_mis(inst, {1, 2})        # not independent
    assert not oracle_is_mis(inst, {1})           # 4 has no neighbor inside
    assert oracle_is_mis(vanilla_instance(3, []), {1, 2, 3})


def test_toposort_predicate_and_acyclicity():
    inst = digraph_instance(8, 0.3, 5)
    if oracle_acyclic(inst):
        order = [v for v in nx.topological_sort(
            nx.DiGraph(inst.directed_edges()))]
        full = order + [v for v in range(1, 9) if v not in order]
        assert oracle_is_toposort(inst, full)
    dag = dag_instance(12, 0.4, 6)
    assert oracle_acyclic(dag)
    cyc = GraphInstance(n=3, model="vanilla", tokens=[
        type(e)(u, v, 1) for (u, v) in ((1, 2), (2, 3), (3, 1))
        for e in [dag.tokens[0]]])
    assert not oracle_acyclic(cyc)
    assert not oracle_is_toposort(dag, list(range(2, 13)))  # not a perm


def test_bfs_hand_and_against_networkx():
    inst = vanilla_instance(6, path_edges(6), source=1)
    assert oracle_bfs(inst) == [None, 0, 1, 2, 3, 4, 5]
    star = vanilla_instance(5, star_edges(1, [2, 3, 4, 5]), source=1)
    assert oracle_bfs(star)[1:] == [0, 1, 1, 1, 1]
    rng = random.Random(3)
    for trial in range(25):
        n = rng.randrange(4, 15)
        edges = gnp_edges(n, 0.25, 3000 + trial)
        inst = vanilla_instance(n, edges, source=1)
        g = nx.Graph(edges)
        g.add_nodes_from(range(1, n + 1))
        ref = nx.single_source_shortest_path_length(g, 1)
        got = oracle_bfs(inst)
        for v in range(1, n + 1):
            assert got[v] == ref.get(v)


def test_dijkstra_weighted_model():
    inst = weighted_instance(9, 0.4, 5, seed=7, source=2)
    g = nx.Graph()
    g.add_nodes_from(range(1, 10))
    for (u, v, w) in inst.weighted_edges():
        g.add_edge(u, v, weight=w)
    ref = nx.single_source_dijkstra_path_length(g, 2)
    got = oracle_dijkstra(inst)
    for v in range(1, 10):
        assert got[v] == ref.get(v)


def test_dijkstra_turnstile_multiplicity_is_weight():
    # aggregated multiplicity acts as the weight on turnstile streams
    inst = weighted_turnstile_instance(8, 0.45, 4, seed=9, churn=5, source=1)
    mult = inst.final_edges()
    g = nx.Graph()
    g.add_nodes_from(range(1, 9))
    for (u, v), w in mult.items():
        g.add_edge(u, v, weight=w)
    ref = nx.single_source_dijkstra_path_length(g, 1)
    got = oracle_dijkstra(inst)
    for v in range(1, 9):
        assert got[v] == ref.get(v)


def test_dijkstra_two_vertex_hand_case():
    inst = GraphInstance(n=2, model="weighted", W=3, source=1, tokens=[
        type(t)(1, 2, 1, 3) for t in
        weighted_instance(3, 1.0, 3, seed=0).tokens[:1]])
    assert oracle_dijkstra(inst) == [None, 0, 3]
