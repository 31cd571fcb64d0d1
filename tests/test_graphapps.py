"""Matching, MIS, topological order, acyclicity, component count."""

import ast
import random
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annostream import graphapps
from annostream.graphapps import _deficiency_witness, _final_graph
from annostream.generators import (clique_edges, cycle_edges, dag_instance,
                                   digraph_instance, gnp_edges, path_edges,
                                   star_edges, turnstile_instance,
                                   vanilla_instance)
from annostream.oracle import (oracle_acyclic, oracle_components,
                               oracle_is_mis, oracle_is_toposort,
                               oracle_max_matching)
from annostream.protocol import get_scheme, run_adversarial, run_honest
from annostream.stream import EdgeToken, GraphInstance

PETERSEN = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1),
            (6, 8), (8, 10), (10, 7), (7, 9), (9, 6),
            (1, 6), (2, 7), (3, 8), (4, 9), (5, 10)]


@pytest.mark.parametrize("name", ["maxmatch-frugal", "maxmatch-laconic"])
def test_matching_hand_cases(name):
    cases = [
        (6, path_edges(6), 3),
        (5, cycle_edges(5), 2),      # odd cycle needs a blossom
        (6, clique_edges(6), 3),
        (5, star_edges(1, [2, 3, 4, 5]), 1),
        (10, PETERSEN, 5),
        (4, [], 0),
    ]
    for n, edges, want in cases:
        inst = turnstile_instance(n, edges, seed=n)
        scheme = get_scheme(name).configure(inst)
        res = run_honest(scheme, inst, seed=n)
        assert res.accepted, (name, n, res.reason)
        assert res.value == want


@pytest.mark.parametrize("name", ["maxmatch-frugal", "maxmatch-laconic"])
def test_matching_random_vs_oracle(name):
    rng = random.Random(1)
    for trial in range(15):
        n = rng.randrange(4, 14)
        inst = turnstile_instance(n, gnp_edges(n, rng.uniform(0.2, 0.7),
                                               100 + trial),
                                  churn=2, seed=trial)
        scheme = get_scheme(name).configure(inst)
        res = run_honest(scheme, inst, seed=trial)
        assert res.accepted, res.reason
        assert res.value == oracle_max_matching(inst)


def test_matching_costs_stay_in_budget():
    n = 12
    inst = turnstile_instance(n, gnp_edges(n, 0.4, 3), seed=3)
    for s in range(1, n + 1):
        scheme = get_scheme("maxmatch-frugal").configure(inst, s=s)
        res = run_honest(scheme, inst, seed=5)
        assert res.accepted, (s, res.reason)
        assert res.value == oracle_max_matching(inst)
        assert res.hcost == scheme.hcost_bound(inst), s
        assert res.vcost == scheme.vcost_bound(inst), s
    lac = get_scheme("maxmatch-laconic").configure(inst)
    res = run_honest(lac, inst, seed=5)
    assert res.accepted
    assert res.hcost <= lac.hcost_bound(inst)
    assert res.vcost <= lac.vcost_bound(inst)


def _witness_by_deletion(G) -> list:
    """N(D) - D with D = {v : nu(G - v) = nu(G)}, by n+1 blossom calls."""
    base = len(nx.max_weight_matching(G, maxcardinality=True))
    dset = set()
    for v in G:
        H = G.copy()
        H.remove_node(v)
        if len(nx.max_weight_matching(H, maxcardinality=True)) == base:
            dset.add(v)
    return sorted({u for v in dset for u in G.neighbors(v)} - dset)


@st.composite
def _random_graph(draw, n=None, planted=False):
    n = draw(st.integers(1, 14)) if n is None else n
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs),
                         max_size=len(pairs)))
    edges = {e for e, k in zip(pairs, keep) if k}
    if planted:  # a perfect matching on 1..n
        edges |= {(v, v + 1) for v in range(1, n, 2)}
    return n, sorted(edges)


@st.composite
def _star(draw):
    n = draw(st.integers(2, 14))
    return n, star_edges(1, list(range(2, n + 1)))


@st.composite
def _odd_cliques(draw):
    sizes = draw(st.lists(st.sampled_from([1, 3, 5]), min_size=1,
                          max_size=4))
    edges, start = [], 1
    for k in sizes:
        edges += [(start + a - 1, start + b - 1) for a, b in clique_edges(k)]
        start += k
    return start - 1, edges


_GRAPHS = st.one_of(
    _random_graph(),
    st.integers(0, 6).flatmap(lambda h: _random_graph(n=2 * h + 1)),
    st.integers(2, 7).flatmap(lambda h: _random_graph(n=2 * h,
                                                       planted=True)),
    st.integers(1, 14).map(lambda n: (n, [])),
    _star(),
    _odd_cliques(),
)


@settings(max_examples=300, deadline=None)
@given(_GRAPHS)
def test_witness_matches_deletion_definition(graph):
    n, edges = graph
    inst = vanilla_instance(n, edges)
    assert _deficiency_witness(inst) == _witness_by_deletion(
        _final_graph(inst))


def _pendant_stars(n, leaves=4):
    """Stars of `leaves` pendant vertices, centres joined in a path."""
    centres = list(range(1, n + 1, leaves + 1))
    edges = [(c, v) for c in centres
             for v in range(c + 1, min(c + leaves, n) + 1)]
    return edges + list(zip(centres, centres[1:]))


def _odd_components(n):
    """Triangles hung between n // 10 hub vertices; leftovers isolated."""
    hubs = n // 10
    edges = []
    for i, a in enumerate(range(hubs + 1, n - 1, 3)):
        edges += [(a, a + 1), (a + 1, a + 2), (a, a + 2),
                  (1 + i % hubs, a), (1 + (i + 1) % hubs, a + 1)]
    return edges


@pytest.mark.parametrize("n", [40, 96])
@pytest.mark.parametrize("builder", [_pendant_stars, _odd_components])
@pytest.mark.parametrize("name", ["maxmatch-frugal", "maxmatch-laconic"])
def test_matching_complete_on_deficient_graphs(name, builder, n):
    inst = vanilla_instance(n, builder(n))
    k = oracle_max_matching(inst)
    assert 2 * k < n and _deficiency_witness(inst)
    scheme = get_scheme(name).configure(inst)
    res = run_honest(scheme, inst, seed=n)
    assert res.accepted, res.reason
    assert res.value == k
    assert res.hcost == scheme.hcost_bound(inst)


def test_mis_output_is_a_true_mis():
    rng = random.Random(2)
    for trial in range(15):
        n = rng.randrange(3, 14)
        inst = turnstile_instance(n, gnp_edges(n, rng.uniform(0.1, 0.8),
                                               200 + trial), seed=trial)
        scheme = get_scheme("mis").configure(inst)
        res = run_honest(scheme, inst, seed=trial)
        assert res.accepted, res.reason
        assert oracle_is_mis(inst, res.value)
    empty = GraphInstance(n=4, model="turnstile", tokens=[])
    res = run_honest(get_scheme("mis").configure(empty), empty, seed=1)
    assert res.value == (1, 2, 3, 4)


def test_toposort_output_is_a_true_order():
    rng = random.Random(3)
    for trial in range(15):
        inst = dag_instance(rng.randrange(3, 14), rng.uniform(0.2, 0.7),
                            300 + trial)
        scheme = get_scheme("toposort").configure(inst)
        res = run_honest(scheme, inst, seed=trial)
        assert res.accepted, res.reason
        assert oracle_is_toposort(inst, res.value)


def test_toposort_refuses_cyclic_input():
    cyc = GraphInstance(n=3, model="vanilla",
                        tokens=[EdgeToken(1, 2, 1), EdgeToken(2, 3, 1),
                                EdgeToken(3, 1, 1)])
    scheme = get_scheme("toposort").configure(cyc)
    with pytest.raises(ValueError):
        run_honest(scheme, cyc, seed=1)


def test_acyclicity_both_verdicts():
    cyc = GraphInstance(n=3, model="vanilla",
                        tokens=[EdgeToken(1, 2, 1), EdgeToken(2, 3, 1),
                                EdgeToken(3, 1, 1)])
    res = run_honest(get_scheme("acyclicity").configure(cyc), cyc, seed=4)
    assert res.accepted and res.value is False
    rng = random.Random(4)
    for trial in range(12):
        inst = digraph_instance(rng.randrange(3, 12),
                                rng.uniform(0.1, 0.6), 400 + trial)
        scheme = get_scheme("acyclicity").configure(inst)
        res = run_honest(scheme, inst, seed=trial)
        assert res.accepted, res.reason
        assert res.value == oracle_acyclic(inst)


def test_components_hand_and_random():
    inst = vanilla_instance(7, [(1, 2), (2, 3), (5, 6)])
    res = run_honest(get_scheme("components").configure(inst), inst, seed=2)
    assert res.accepted and res.value == 4
    rng = random.Random(5)
    for trial in range(12):
        n = rng.randrange(3, 14)
        inst = turnstile_instance(n, gnp_edges(n, rng.uniform(0.05, 0.5),
                                               500 + trial),
                                  churn=3, seed=trial)
        scheme = get_scheme("components").configure(inst)
        res = run_honest(scheme, inst, seed=trial)
        assert res.accepted, res.reason
        assert res.value == oracle_components(inst)


@pytest.mark.parametrize("name,builder", [
    ("maxmatch-frugal",
     lambda: turnstile_instance(8, gnp_edges(8, 0.45, 21), seed=1)),
    ("maxmatch-laconic",
     lambda: turnstile_instance(8, gnp_edges(8, 0.45, 21), seed=1)),
    ("mis", lambda: turnstile_instance(8, gnp_edges(8, 0.4, 22), seed=2)),
    ("toposort", lambda: dag_instance(8, 0.5, 23)),
    ("acyclicity", lambda: dag_instance(8, 0.5, 24)),
    ("components", lambda: turnstile_instance(8, gnp_edges(8, 0.25, 25),
                                              seed=3)),
])
def test_adversarial_catch_rate(name, builder):
    inst = builder()
    scheme = get_scheme(name).configure(inst)
    for policy in scheme.mutations:
        st = run_adversarial(scheme, inst, policy, trials=60, seed=17)
        assert st.accepted_wrong == 0, (name, policy)


def test_only_graphapps_builds_a_graph_and_none_calls_components():
    """The provers share one final graph (`graphapps._final_graph`) and one
    components routine (`graphapps._groups`)."""
    found = []
    for path in sorted(Path(graphapps.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = getattr(func, "attr", getattr(func, "id", None))
            if name == "connected_components" or (
                    name == "Graph" and path.stem != "graphapps"):
                found.append(f"{path.name}:{node.lineno} {name}")
    assert not found


def test_final_graph_carries_the_edge_weights():
    inst = GraphInstance(4, "turnstile", tokens=[
        EdgeToken(1, 2, 1), EdgeToken(2, 3, 1), EdgeToken(2, 1, 1),
        EdgeToken(3, 4, 1), EdgeToken(4, 3, -1)])
    G = _final_graph(inst)
    assert sorted(G.edges(data="weight")) == [(1, 2, 2), (2, 3, 1)]


def test_graphapps_checks_its_sets_through_the_relations():
    """Every set check of the certified-graph schemes goes through a
    relation object (`setops.StreamEdgeCheck`, `setops.KeyCheck`,
    `setops.SameMultiset`, `edgecount.PairCount`); toposort's prefix charge
    keeps its own `PairSketch` and `LineArray`."""
    banned = {"LineCheck", "Fingerprint", "line_check_help",
              "edge_extension", "dense_indicator", "member_pair_charge",
              "stream_keys"}
    tree = ast.parse(Path(graphapps.__file__).read_text())
    found = sorted({name for node in ast.walk(tree)
                    for name in (getattr(node, "id", None),
                                 getattr(node, "attr", None),
                                 getattr(node, "name", None))
                    if name in banned})
    assert not found
