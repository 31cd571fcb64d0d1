"""Shortest-path schemes: hop counts, weighted variants, path queries."""

import random

import numpy as np
import pytest

from annostream.generators import (gnp_edges, path_edges, star_edges,
                                   turnstile_instance, vanilla_instance,
                                   weighted_instance,
                                   weighted_turnstile_instance)
from annostream.oracle import oracle_bfs, oracle_dijkstra
from annostream.protocol import (get_scheme, run_adversarial, run_honest,
                                 run_with_transcript)
from annostream.stream import EdgeToken, GraphInstance


def _dist_tuple(oracle_list):
    return tuple(oracle_list[1:])


def test_unweighted_path_and_star():
    inst = vanilla_instance(6, path_edges(6), source=1)
    res = run_honest(get_scheme("sssp-unweighted").configure(inst), inst)
    assert res.accepted and res.value == (0, 1, 2, 3, 4, 5)
    star = vanilla_instance(5, star_edges(1, [2, 3, 4, 5]), source=1)
    res = run_honest(get_scheme("sssp-unweighted").configure(star), star)
    assert res.accepted and res.value == (0, 1, 1, 1, 1)


def test_unweighted_unreachable_marked_none():
    inst = vanilla_instance(5, [(1, 2), (2, 3)], source=1)
    res = run_honest(get_scheme("sssp-unweighted").configure(inst), inst)
    assert res.accepted
    assert res.value == (0, 1, 2, None, None)


def test_unweighted_isolated_source():
    inst = vanilla_instance(4, [(2, 3)], source=1)
    res = run_honest(get_scheme("sssp-unweighted").configure(inst), inst)
    assert res.accepted
    assert res.value == (0, None, None, None)


def test_unweighted_random_vs_oracle():
    rng = random.Random(0)
    for trial in range(25):
        n = rng.randrange(4, 14)
        src = rng.randrange(1, n + 1)
        inst = turnstile_instance(n, gnp_edges(n, rng.uniform(0.1, 0.6),
                                               700 + trial),
                                  churn=2, seed=trial, source=src)
        for t, s in ((None, None), (2, (n + 1) // 2), (n, 1)):
            scheme = get_scheme("sssp-unweighted").configure(inst, t=t, s=s)
            res = run_honest(scheme, inst, seed=trial)
            assert res.accepted, res.reason
            assert res.value == _dist_tuple(oracle_bfs(inst))


def test_unweighted_costs():
    n = 16
    inst = vanilla_instance(n, path_edges(n), source=1)
    D = n - 1
    for t in (1, 2, 4, 8, 16):
        scheme = get_scheme("sssp-unweighted").configure(inst, t=t)
        res = run_honest(scheme, inst)
        assert res.accepted
        s = scheme.sc.s
        assert res.hcost == 1 + 2 * n + D * ((2 * t - 1) * n + n)
        assert res.vcost <= 2 * s + 16


def test_ball_growth_matches_bfs_thresholds():
    # over the integers: repeatedly expanding by one adjacency step from
    # the source reaches exactly the vertices within each hop count
    rng = random.Random(1)
    for trial in range(20):
        n = rng.randrange(4, 12)
        inst = vanilla_instance(n, gnp_edges(n, 0.3, 800 + trial), source=1)
        dist = oracle_bfs(inst)
        A = np.zeros((n, n), dtype=np.int64)
        for (u, v) in inst.final_edges():
            A[u - 1, v - 1] = A[v - 1, u - 1] = 1
        ball = {1}
        for d in range(1, n):
            ind = np.zeros(n, dtype=np.int64)
            ind[[v - 1 for v in ball]] = 1
            q = A @ ind
            ball = {1} | {int(i) + 1 for i in np.flatnonzero(q)}
            want = {v for v in range(1, n + 1)
                    if dist[v] is not None and dist[v] <= d}
            assert ball == want


def test_label_perturbation_exhaustive():
    # every single-entry corruption of the claimed label vector must be
    # rejected, each by one of the verifier's four catch rules
    graphs = [
        vanilla_instance(8, path_edges(8), source=1),
        vanilla_instance(8, gnp_edges(8, 0.3, 5), source=3),
        vanilla_instance(7, star_edges(2, [1, 3, 4, 5, 6, 7]), source=2),
        vanilla_instance(8, [(1, 2), (2, 3), (5, 6), (6, 7)], source=1),
    ]
    known = {
        "distance label out of range",
        "label zero must mark the source alone",
        "labels do not match the discovered balls",
        "ball still growing at the claimed horizon",
    }
    for inst in graphs:
        scheme = get_scheme("sssp-unweighted").configure(inst)
        cfg = scheme.field_config(inst, None)
        honest = scheme.prove(inst, cfg.p)
        res = run_with_transcript(scheme, inst, honest, seed=6, p=cfg.p)
        assert res.accepted
        labels = honest.blocks[1]
        assert labels.label == "distance_labels"
        Dhat = int(honest.blocks[0].values[0])
        true = labels.values.tolist()
        for v in range(inst.n):
            for wrong in range(0, Dhat + 3):
                if wrong == true[v]:
                    continue
                forged = honest.copy()
                forged.blocks[1].values = np.array(
                    true[:v] + [wrong] + true[v + 1:], dtype=np.int64)
                res = run_with_transcript(scheme, inst, forged,
                                          seed=6, p=cfg.p)
                assert not res.accepted, (v + 1, wrong)
                assert res.reason in known, res.reason


def test_false_zero_in_round_values_rejected():
    # claiming a discovered vertex was not discovered must trip either
    # the round identity or a later consistency check
    inst = vanilla_instance(7, path_edges(7), source=1)
    scheme = get_scheme("sssp-unweighted").configure(inst)
    cfg = scheme.field_config(inst, None)
    honest = scheme.prove(inst, cfg.p)
    hits = 0
    for bi, block in enumerate(honest.blocks):
        if block.label != "round_degrees":
            continue
        for pos in np.flatnonzero(block.values):
            forged = honest.copy()
            forged.blocks[bi].values = block.values.copy()
            forged.blocks[bi].values[pos] = 0
            res = run_with_transcript(scheme, inst, forged, seed=8, p=cfg.p)
            assert not res.accepted, (bi, pos)
            hits += 1
    assert hits > 10


def test_stpath_hand_cases():
    inst = vanilla_instance(4, path_edges(4), source=1, target=3)
    res = run_honest(get_scheme("stpath").configure(inst), inst)
    assert res.accepted and res.value == 2
    same = vanilla_instance(4, path_edges(4), source=2, target=2)
    res = run_honest(get_scheme("stpath").configure(same), same)
    assert res.accepted and res.value == 0
    adj = vanilla_instance(4, path_edges(4), source=2, target=3)
    res = run_honest(get_scheme("stpath").configure(adj), adj)
    assert res.accepted and res.value == 1


def test_stpath_unreachable_accepts_none():
    # a ball that stops growing before the target certifies "unreachable",
    # the oracle's None
    inst = vanilla_instance(5, [(1, 2), (3, 4)], source=1, target=4)
    res = run_honest(get_scheme("stpath").configure(inst), inst)
    assert res.accepted and res.value is None
    assert oracle_bfs(inst)[4] is None


def test_stpath_random_vs_oracle():
    rng = random.Random(2)
    done = 0
    trial = 0
    while done < 20:
        trial += 1
        n = rng.randrange(4, 13)
        inst = turnstile_instance(n, gnp_edges(n, 0.35, 900 + trial),
                                  seed=trial, source=1)
        dist = oracle_bfs(inst)
        targets = [v for v in range(1, n + 1) if dist[v] is not None]
        inst.target = rng.choice(targets)
        scheme = get_scheme("stpath").configure(inst)
        res = run_honest(scheme, inst, seed=trial)
        assert res.accepted, res.reason
        assert res.value == dist[inst.target]
        done += 1


def test_stpath_needs_target():
    inst = vanilla_instance(4, path_edges(4), source=1)
    scheme = get_scheme("stpath").configure(inst)
    with pytest.raises(ValueError):
        run_honest(scheme, inst)


def test_wturnstile_hand_cases():
    # single edge streamed as +2 then +1: weight 3
    inst = GraphInstance(n=2, model="turnstile", W=3, source=1,
                         tokens=[EdgeToken(1, 2, 2), EdgeToken(1, 2, 1)])
    res = run_honest(get_scheme("sssp-wturnstile").configure(inst), inst)
    assert res.accepted and res.value == (0, 3)

    # triangle with weights 1,1,3: two hops beat the heavy edge
    tri = GraphInstance(n=3, model="turnstile", W=3, source=1, tokens=[
        EdgeToken(1, 2, 1), EdgeToken(2, 3, 1), EdgeToken(1, 3, 3)])
    res = run_honest(get_scheme("sssp-wturnstile").configure(tri), tri)
    assert res.accepted and res.value == (0, 1, 2)

    # churn that cancels leaves the distances alone
    churned = GraphInstance(n=3, model="turnstile", W=3, source=1,
                            tokens=list(tri.tokens) + [
                                EdgeToken(2, 3, 1), EdgeToken(3, 2, -1)])
    res2 = run_honest(get_scheme("sssp-wturnstile").configure(churned),
                      churned)
    assert res2.accepted and res2.value == res.value


def test_wturnstile_random_vs_oracle():
    rng = random.Random(3)
    for trial in range(20):
        n = rng.randrange(4, 12)
        W = rng.choice((1, 3, 5))
        inst = weighted_turnstile_instance(n, rng.uniform(0.2, 0.6), W,
                                           seed=trial, churn=3,
                                           source=rng.randrange(1, n + 1))
        scheme = get_scheme("sssp-wturnstile").configure(inst)
        res = run_honest(scheme, inst, seed=trial)
        assert res.accepted, res.reason
        assert res.value == _dist_tuple(oracle_dijkstra(inst))


def test_wturnstile_costs():
    inst = weighted_turnstile_instance(10, 0.5, 4, seed=4, source=1)
    scheme = get_scheme("sssp-wturnstile").configure(inst)
    res = run_honest(scheme, inst)
    assert res.accepted
    assert res.hcost <= scheme.hcost_bound(inst)
    assert res.vcost <= 5 * 10 + 16


def test_wvanilla_hand_cases():
    single = GraphInstance(n=2, model="weighted", W=2, source=1,
                           tokens=[EdgeToken(1, 2, 1, 2)])
    res = run_honest(get_scheme("sssp-wvanilla").configure(single), single)
    assert res.accepted and res.value == (0, 2)

    tri = GraphInstance(n=3, model="weighted", W=3, source=1, tokens=[
        EdgeToken(1, 2, 1, 1), EdgeToken(2, 3, 1, 1), EdgeToken(1, 3, 1, 3)])
    res = run_honest(get_scheme("sssp-wvanilla").configure(tri), tri)
    assert res.accepted and res.value == (0, 1, 2)


def test_wvanilla_random_vs_oracle():
    rng = random.Random(4)
    for trial in range(20):
        n = rng.randrange(4, 12)
        W = rng.choice((1, 2, 4))
        inst = weighted_instance(n, rng.uniform(0.2, 0.7), W,
                                 seed=1000 + trial,
                                 source=rng.randrange(1, n + 1))
        scheme = get_scheme("sssp-wvanilla").configure(inst)
        res = run_honest(scheme, inst, seed=trial)
        assert res.accepted, res.reason
        assert res.value == _dist_tuple(oracle_dijkstra(inst))


def test_wvanilla_phantom_parent_rejected():
    # a parent claim along a non-edge must trip the containment check
    inst = GraphInstance(n=4, model="weighted", W=2, source=1, tokens=[
        EdgeToken(1, 2, 1, 1), EdgeToken(2, 3, 1, 1), EdgeToken(3, 4, 1, 1)])
    scheme = get_scheme("sssp-wvanilla").configure(inst)
    cfg = scheme.field_config(inst, None)
    honest = scheme.prove(inst, cfg.p)
    res = run_with_transcript(scheme, inst, honest, seed=9, p=cfg.p)
    assert res.accepted and res.value == (0, 1, 2, 3)
    # vertex 4's parent is 3; claim 2 instead with the same implied
    # weight budget: edge (2,4) of weight 2 does not exist
    forged = honest.copy()
    for b in forged.blocks:
        if b.label == "parent_labels":
            vals = b.values.copy()
            vals[3] = 2
            b.values = vals
    res = run_with_transcript(scheme, inst, forged, seed=9, p=cfg.p)
    assert not res.accepted


def test_wvanilla_costs():
    n, W = 10, 3
    inst = weighted_instance(n, 0.5, W, seed=5, source=1)
    scheme = get_scheme("sssp-wvanilla").configure(inst)
    res = run_honest(scheme, inst)
    assert res.accepted
    assert res.hcost <= scheme.hcost_bound(inst)
    assert res.vcost <= n * W + 8 * n + 16


@pytest.mark.parametrize("name,builder", [
    ("sssp-unweighted",
     lambda: turnstile_instance(8, gnp_edges(8, 0.4, 31), seed=1, source=1)),
    ("stpath",
     lambda: vanilla_instance(8, path_edges(8), source=1, target=6)),
    ("sssp-wturnstile",
     lambda: weighted_turnstile_instance(8, 0.5, 3, seed=2, source=1)),
    ("sssp-wvanilla",
     lambda: weighted_instance(8, 0.5, 3, seed=3, source=1)),
])
def test_adversarial_catch_rate(name, builder):
    inst = builder()
    scheme = get_scheme(name).configure(inst)
    for policy in scheme.mutations:
        st = run_adversarial(scheme, inst, policy, trials=60, seed=19)
        assert st.accepted_wrong == 0, (name, policy)
