"""Induced and crossing edge counts on subsets declared after the stream,
and the grid kernels every pair charge goes through."""

import random
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annostream.edgecount import (LineArray, PairCount, PairSketch,
                                  degree_grid, grid_adjacency, line_rows,
                                  member_pair_charge, pair_charge)
from annostream.extension import ShapeConfig
from annostream.field import fe_random
from annostream.generators import (adjlist_instance, gnp_edges,
                                   turnstile_instance, vanilla_instance,
                                   with_query_set)
from annostream.oracle import oracle_cross_edges, oracle_induced_edges
from annostream.protocol import (Coins, SpaceMeter, get_scheme,
                                 run_adversarial, run_honest, stream_pass)
from annostream.stream import ProofTranscript, RejectError


def _split(rng, n):
    verts = list(range(1, n + 1))
    rng.shuffle(verts)
    k = rng.randrange(1, n)
    j = rng.randrange(1, n - k + 1)
    return verts[:k], verts[k:k + j]


def test_induced_hand_case():
    inst = vanilla_instance(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6)])
    inst = with_query_set(inst, [1, 2, 3])
    scheme = get_scheme("edgecount-induced").configure(inst)
    res = run_honest(scheme, inst, seed=3)
    assert res.accepted and res.value == (2,)


def test_cross_hand_case():
    inst = vanilla_instance(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6)])
    inst = with_query_set(inst, [1, 2], right=[3, 4])
    scheme = get_scheme("edgecount-cross").configure(inst)
    res = run_honest(scheme, inst, seed=3)
    assert res.accepted and res.value == (1,)


def test_multiple_queries_accumulate_members():
    # a second query reports on everything declared so far
    base = vanilla_instance(8, gnp_edges(8, 0.5, 1))
    inst = with_query_set(base, [1, 2, 3])
    inst = with_query_set(inst, [4, 5, 6, 7])
    scheme = get_scheme("edgecount-induced").configure(inst)
    res = run_honest(scheme, inst, seed=5)
    assert res.accepted
    assert res.value == (oracle_induced_edges(base, {1, 2, 3}),
                         oracle_induced_edges(base, {1, 2, 3, 4, 5, 6, 7}))


def test_turnstile_deletions_respected():
    rng = random.Random(2)
    for trial in range(10):
        n = rng.randrange(6, 13)
        base = turnstile_instance(n, gnp_edges(n, 0.4, 60 + trial),
                                  churn=4, seed=trial)
        left, right = _split(rng, n)
        ind = with_query_set(base, left)
        scheme = get_scheme("edgecount-induced").configure(ind)
        res = run_honest(scheme, ind, seed=trial)
        assert res.accepted
        assert res.value == (oracle_induced_edges(base, left),)

        cross = with_query_set(base, left, right=right)
        scheme = get_scheme("edgecount-cross").configure(cross)
        res = run_honest(scheme, cross, seed=trial)
        assert res.accepted
        assert res.value == (oracle_cross_edges(base, left, right),)


def test_induced_rejects_two_set_query():
    inst = vanilla_instance(4, [(1, 2)])
    inst = with_query_set(inst, [1], right=[2])
    scheme = get_scheme("edgecount-induced").configure(inst)
    with pytest.raises(ValueError):
        run_honest(scheme, inst, seed=1)


def test_queryless_stream_is_a_config_error():
    inst = vanilla_instance(4, [(1, 2)])
    scheme = get_scheme("edgecount-cross").configure(inst)
    with pytest.raises(ValueError):
        run_honest(scheme, inst, seed=1)


def test_costs_within_bounds():
    n = 10
    base = vanilla_instance(n, gnp_edges(n, 0.5, 9))
    inst = with_query_set(base, [1, 2, 3, 4])
    for t, s in ((1, n), (2, 5), (5, 2), (n, 1)):
        scheme = get_scheme("edgecount-induced").configure(inst, t=t, s=s)
        res = run_honest(scheme, inst, seed=1)
        assert res.accepted
        assert res.hcost <= (2 * t - 1) ** 2
        assert res.vcost <= s * s + 4 * s + 9


def test_adversarial_catch_rate():
    rng = random.Random(4)
    base = turnstile_instance(9, gnp_edges(9, 0.5, 11), seed=1)
    left, right = _split(rng, 9)
    cases = [
        ("edgecount-induced", with_query_set(base, left)),
        ("edgecount-cross", with_query_set(base, left, right=right)),
    ]
    for name, inst in cases:
        scheme = get_scheme(name).configure(inst)
        for policy in scheme.mutations:
            st = run_adversarial(scheme, inst, policy, trials=60, seed=8)
            assert st.accepted_wrong == 0, (name, policy)


# --- the grid kernels against the member-matrix triple product ---------------


def member_matrix(members, sc, Dt, p):
    """G[w, c] = Dt[w, x_c] * chi~_S(w, y_c) for every vertex c, in Python
    ints: the prover's per-list matrix before pair_charge grouped the
    vertices by grid cell."""
    Dt = Dt.astype(object)
    chi = np.zeros((Dt.shape[0], sc.s), dtype=object)
    for u in members:
        x, y = sc.shape(u)
        chi[:, y - 1] += Dt[:, x - 1]
    G = np.zeros((Dt.shape[0], sc.n), dtype=object)
    for c in range(1, sc.n + 1):
        x, y = sc.shape(c)
        G[:, c - 1] = Dt[:, x - 1] * chi[:, y - 1]
    return G % p


def reference_pair_charge(lefts, rights, adj, sc, Dt, p):
    """sum_k G_Lk Adj G_Rk^T, two products per list."""
    total = np.zeros((Dt.shape[0],) * 2, dtype=object)
    for left, right in zip(lefts, rights):
        total += (member_matrix(left, sc, Dt, p) @ adj.astype(object)
                  @ member_matrix(right, sc, Dt, p).T)
    return total % p


@st.composite
def _kernel_cases(draw):
    n = draw(st.integers(1, 10))
    t = draw(st.integers(1, n))
    s = -(-n // t) + draw(st.integers(0, 2))  # t*s >= n, often padded
    p = draw(st.sampled_from([97, 1048583, 33554393]))
    kind = draw(st.sampled_from(["symmetric", "directed", "multiplicity"]))
    top = {"symmetric": 1, "directed": 1, "multiplicity": p - 1}[kind]
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    adj = np.array([[rng.randint(0, top) for _ in range(n)]
                    for _ in range(n)], dtype=np.int64)
    if kind != "directed":
        adj = np.triu(adj, 1) + np.triu(adj, 1).T
    K = draw(st.sampled_from([0, 1, rng.randint(2, 6)]))

    def lists():
        return [[rng.randint(1, n) for _ in range(rng.randint(0, n + 2))]
                for _ in range(K)]
    return ShapeConfig(n, t, s), p, adj, lists(), lists()


@settings(max_examples=120, deadline=None)
@given(_kernel_cases())
def test_pair_charge_matches_member_matrix_product(case):
    sc, p, adj, lefts, rights = case
    Dt = degree_grid(sc.t, p)
    got = pair_charge(line_rows(lefts, sc, Dt, p),
                      line_rows(rights, sc, Dt, p),
                      grid_adjacency(adj, sc, p), p)
    want = reference_pair_charge(lefts, rights, adj, sc, Dt, p)
    assert got.dtype == np.int64 and got.shape == want.shape
    assert np.array_equal(got, want.astype(np.int64))


@settings(max_examples=120, deadline=None)
@given(_kernel_cases())
def test_line_rows_are_member_matrix_cells(case):
    sc, p, _, lefts, _ = case
    Dt = degree_grid(sc.t, p)
    stack = line_rows(lefts, sc, Dt, p)
    assert stack.shape == (len(lefts), 2 * sc.t - 1, sc.s)
    for members, rows in zip(lefts, stack):
        G = member_matrix(members, sc, Dt, p).astype(np.int64)
        for c in range(1, sc.n + 1):
            x, y = sc.shape(c)
            assert np.array_equal(G[:, c - 1],
                                  Dt[:, x - 1] * rows[:, y - 1] % p)
        want = np.zeros_like(rows)
        for u in members:
            x, y = sc.shape(u)
            want[:, y - 1] += Dt[:, x - 1]
        assert np.array_equal(rows, want % p)


def test_kernels_evaluate_the_verifier_sketches():
    # at a node pair (w1, w2) of the degree grid, A^ is the PairSketch
    # table and line_rows is the LineArray of the same members
    n, t, s, p = 11, 3, 4, 1048583
    sc = ShapeConfig(n, t, s)
    Dt = degree_grid(t, p)
    rng = random.Random(5)
    edges = [(rng.randint(1, n), rng.randint(1, n), rng.randint(1, 3))
             for _ in range(20)]
    adj = np.zeros((n, n), dtype=np.int64)
    for a, b, c in edges:
        adj[a - 1, b - 1] += c
    adj_hat = grid_adjacency(adj, sc, p)
    members = [rng.randint(1, n) for _ in range(7)]
    rows = line_rows([members], sc, Dt, p)[0]
    for w1 in range(1, 2 * t):
        line = LineArray(sc, w1, p)
        for v in members:
            line.add(v)
        assert np.array_equal(rows[w1 - 1], line.arr)
        for w2 in range(1, 2 * t):
            sketch = PairSketch(sc, w1, w2, p)
            for a, b, c in edges:
                sketch.add(a, b, c)
            assert np.array_equal(adj_hat[w1 - 1, w2 - 1].reshape(s, s),
                                  sketch.table)


def test_member_pair_charge_of_empty_lists_is_zero():
    inst = vanilla_instance(7, gnp_edges(7, 0.6, 3))
    sc = ShapeConfig(7, 3, 3)
    for lists in ([], [[]], [[], [], []]):
        coeffs = member_pair_charge(inst, lists, sc, 1048583)
        assert coeffs.shape == (5, 5) and not coeffs.any()


# --- the provers built on the kernels, at their edge cases --------------------


@pytest.mark.parametrize("name,inst,shape", [
    ("toposort", vanilla_instance(1, []), (None, None)),
    ("toposort", vanilla_instance(2, []), (None, None)),
    ("toposort", vanilla_instance(2, [(2, 1)]), (None, None)),
    ("acyclicity", vanilla_instance(1, []), (None, None)),
    ("acyclicity", vanilla_instance(2, [(1, 2)]), (None, None)),
    ("tri-sparse", vanilla_instance(5, []), (None, None)),
    ("tri-adj", adjlist_instance(7, [(1, 2), (2, 3), (1, 3), (3, 5)]),
     (3, 3)),
    ("tri-adj", adjlist_instance(10, [(2, 9), (9, 10), (2, 10), (4, 9)]),
     (4, 3)),
    ("sssp-unweighted", vanilla_instance(5, [(2, 3), (3, 4)], source=1),
     (2, 3)),
    ("sssp-unweighted", vanilla_instance(1, [], source=1), (None, None)),
], ids=["topo-n1", "topo-n2-empty", "topo-n2", "acyc-n1", "acyc-n2",
        "sparse-edgeless", "adj-padded", "adj-isolated", "bfs-horizon0",
        "bfs-n1"])
def test_rewired_provers_at_edge_cases(name, inst, shape):
    scheme = get_scheme(name).configure(inst, t=shape[0], s=shape[1])
    res = run_honest(scheme, inst, seed=4)
    assert res.accepted, res.reason
    assert scheme.output_correct(inst, res.value)
    assert res.hcost == scheme.hcost_bound(inst)


# --- the pair-count relation ------------------------------------------------


def _kept_pairs(rel, inst, p):
    """PairCount's stream side as `stream_pass` hands it out, and its
    meter."""
    meter = SpaceMeter()
    scheme = SimpleNamespace(name="pairs", t=None, s=None)
    st = stream_pass(scheme, inst, p, Coins(2, "pairs"), meter,
                     side=lambda inst, p, rng, meter: rel.stream(
                         inst, fe_random(rng, p), fe_random(rng, p), p,
                         meter))
    return st, meter


@pytest.mark.parametrize("complement", [False, True])
def test_pair_count_accepts_honest_help_and_rejects_other_lists(complement):
    inst = turnstile_instance(9, gnp_edges(9, 0.5, 8), churn=6, seed=8)
    p, sc = 1048583, ShapeConfig(9, 3, 3)
    rel = PairCount(sc, counts=2)
    st, meter = _kept_pairs(rel, inst, p)
    assert meter.peak == 9 + 4 * 3
    arrays = [st.sketch.table, *(a for line in st.lines
                                 for a in (line.arr, line.imp))]
    assert not any(a.flags.writeable for a in arrays)
    lists = [[1, 2, 5, 7]] if complement else [[1, 2, 3], [4, 6, 8, 9]]
    counted = ([[v for v in range(1, 10) if v not in lists[0]]]
               if complement else lists)
    tr = ProofTranscript()
    rel.prove(tr, "g", inst, counted, p)
    total = rel.check(st, tr.reader(p), "g", lists, "pair",
                      complement=complement)
    assert total == sum(2 * oracle_induced_edges(inst, m) for m in counted)
    with pytest.raises(RejectError, match="pair polynomial disagrees"):
        rel.check(st, tr.reader(p), "g", [[3, 4, 6, 8, 9]], "pair",
                  complement=complement)
