"""End-to-end acceptance gates for the whole harness.

Each test covers one headline guarantee: completeness against the
brute-force oracles, soundness under adversarial transcript mutation,
exact help-size formulas, verifier space budgets, the help-vs-space
tradeoff curve, and the low-level algebraic invariants. Every test
prints a single summary line; run pytest with -s to see them.
"""

import csv
import itertools
import random
import subprocess
import sys
import time

import networkx as nx
import numpy as np

from annostream.edgecount import LineArray
from annostream.extension import (ShapeConfig, coeffs_from_values_nd,
                                  impulse_table, nd_eval, resolve_shape)
from annostream.field import fe_random_nonzero
from annostream.generators import (adjlist_instance, dag_instance,
                                   digraph_instance, gnp_edges,
                                   turnstile_instance, vanilla_instance,
                                   weighted_instance,
                                   weighted_turnstile_instance,
                                   with_query_set)
from annostream.oracle import oracle_bfs, oracle_max_matching
from annostream.protocol import (SCHEMES, get_scheme, run_adversarial,
                                 run_honest, run_with_transcript)
from annostream.setops import Fingerprint
from annostream.stream import serialize_stream

POOL_NS = (8, 12, 16)
GRID_T = (1, 2, 4, 8, 16, 32, 64)


# ---------------------------------------------------------------- pools

def _reachable_target(inst):
    dist = oracle_bfs(inst)
    cand = [v for v in range(1, inst.n + 1)
            if v != inst.source and dist[v] is not None]
    return cand[-1] if cand else inst.source


def _instance_for(name, i):
    n = POOL_NS[i % len(POOL_NS)]
    seed = 1000 + i
    if name in ("tri-laconic", "tri-frugal"):
        return turnstile_instance(n, gnp_edges(n, 0.4, seed),
                                  churn=i % 3, seed=seed)
    if name == "tri-sparse":
        return vanilla_instance(n, gnp_edges(n, 0.4, seed))
    if name == "tri-adj":
        return adjlist_instance(n, gnp_edges(n, 0.4, seed))
    if name == "edgecount-induced":
        base = turnstile_instance(n, gnp_edges(n, 0.4, seed), seed=seed)
        return with_query_set(base, list(range(1, 2 + i % (n - 1))))
    if name == "edgecount-cross":
        base = turnstile_instance(n, gnp_edges(n, 0.4, seed), seed=seed)
        half = n // 2
        return with_query_set(base, list(range(1, half + 1)),
                              right=list(range(half + 1, n + 1)))
    if name in ("maxmatch-frugal", "maxmatch-laconic", "mis"):
        return turnstile_instance(n, gnp_edges(n, 0.4, seed),
                                  churn=i % 2, seed=seed)
    if name == "components":
        return turnstile_instance(n, gnp_edges(n, 0.2, seed), seed=seed)
    if name == "toposort":
        return dag_instance(n, 0.45, seed)
    if name == "acyclicity":
        # alternate acyclic and arbitrary digraphs so both verdicts occur
        if i % 2:
            return dag_instance(n, 0.45, seed)
        return digraph_instance(n, 0.35, seed)
    if name == "sssp-unweighted":
        return turnstile_instance(n, gnp_edges(n, 0.3, seed),
                                  seed=seed, source=1 + i % n)
    if name == "stpath":
        inst = vanilla_instance(n, gnp_edges(n, 0.3, seed),
                                source=1 + i % n)
        inst.target = _reachable_target(inst)
        return inst
    if name == "sssp-wturnstile":
        return weighted_turnstile_instance(n, 0.35, 4, seed=seed,
                                           churn=i % 2, source=1)
    if name == "sssp-wvanilla":
        return weighted_instance(n, 0.4, 4, seed=seed, source=1)
    raise AssertionError(name)


def test_completeness_matches_oracles():
    t0 = time.time()
    per_scheme = 200
    runs = 0
    for name in sorted(SCHEMES):
        for i in range(per_scheme):
            inst = _instance_for(name, i)
            scheme = get_scheme(name).configure(inst)
            res = run_honest(scheme, inst, seed=i)
            assert res.accepted, (name, i, res.reason)
            assert scheme.output_correct(inst, res.value), (name, i)
            runs += 1
    dt = time.time() - t0
    assert dt < 300.0
    print(f"\nPASS completeness: {runs} honest runs over {len(SCHEMES)} "
          f"schemes, zero rejects, every output oracle-equal ({dt:.0f}s)")


# ---------------------------------------------------------- soundness

def _soundness_instances():
    """One n=9 instance per scheme on which every lie policy applies."""
    seed = 42
    ght = turnstile_instance(9, gnp_edges(9, 0.5, seed), churn=3, seed=seed)
    stv = vanilla_instance(9, gnp_edges(9, 0.45, seed), source=1)
    stv.target = _reachable_target(stv)
    return {
        "tri-laconic": ght,
        "tri-frugal": ght,
        "tri-sparse": vanilla_instance(9, gnp_edges(9, 0.5, seed)),
        "tri-adj": adjlist_instance(9, gnp_edges(9, 0.5, seed)),
        "edgecount-induced": with_query_set(ght, [1, 2, 3, 4]),
        "edgecount-cross": with_query_set(ght, [1, 2, 3], right=[4, 5, 6]),
        "maxmatch-frugal": ght,
        "maxmatch-laconic": ght,
        "mis": ght,
        "toposort": dag_instance(9, 0.5, seed),
        "acyclicity": dag_instance(9, 0.5, seed),
        "components": turnstile_instance(9, gnp_edges(9, 0.2, seed),
                                         seed=seed),
        "sssp-unweighted": turnstile_instance(9, gnp_edges(9, 0.35, seed),
                                              seed=seed, source=1),
        "stpath": stv,
        "sssp-wturnstile": weighted_turnstile_instance(9, 0.4, 3, seed=seed,
                                                       churn=2, source=1),
        "sssp-wvanilla": weighted_instance(9, 0.45, 3, seed=seed, source=1),
    }


def test_soundness_under_mutation():
    t0 = time.time()
    trials = 500
    insts = _soundness_instances()
    combos = 0
    worst = 0.0
    for name in sorted(SCHEMES):
        inst = insts[name]
        scheme = get_scheme(name).configure(inst)
        cfg = scheme.field_config(inst, None)
        assert cfg.p > inst.n ** 3
        for policy in scheme.mutations:
            st = run_adversarial(scheme, inst, policy, trials=trials,
                                 seed=11)
            rate = st.accepted_wrong / st.trials
            worst = max(worst, rate)
            assert rate <= 0.02, (name, policy, rate)
            combos += 1
    dt = time.time() - t0
    assert dt < 600.0
    print(f"\nPASS soundness: {combos} scheme/policy pairs x {trials} "
          f"forged transcripts, worst wrong-accept rate "
          f"{worst:.4f} <= 0.02 ({dt:.0f}s)")


# ------------------------------------------------- n=64 cost grids

_GRID_CACHE = {}


def _grid_instances():
    n = 64
    sp = turnstile_instance(n, gnp_edges(n, 0.08, 9), seed=9, source=1)
    return {
        "tri-laconic": turnstile_instance(n, gnp_edges(n, 0.15, 9), seed=9),
        "tri-frugal": turnstile_instance(n, gnp_edges(n, 0.15, 9), seed=9),
        "edgecount-induced": with_query_set(
            turnstile_instance(n, gnp_edges(n, 0.15, 9), seed=9),
            list(range(1, 17))),
        "sssp-unweighted": sp,
    }


def _grid_run(name, t):
    key = (name, t)
    if key not in _GRID_CACHE:
        inst = _grid_instances()[name]
        scheme = get_scheme(name).configure(inst, t=t)
        res = run_honest(scheme, inst, seed=5)
        assert res.accepted
        _GRID_CACHE[key] = (scheme, inst, res)
    return _GRID_CACHE[key]


def test_help_size_formulas():
    n = 64
    checked = 0
    for t in GRID_T:
        scheme, inst, res = _grid_run("tri-laconic", t)
        assert res.hcost == 2 * t - 1
        scheme, inst, res = _grid_run("tri-frugal", t)
        assert res.hcost <= (2 * t - 1) ** 2 * (2 * n - 1)
        assert res.hcost == scheme.hcost_bound(inst)
        scheme, inst, res = _grid_run("edgecount-induced", t)
        assert res.hcost <= (2 * t - 1) ** 2
        scheme, inst, res = _grid_run("sssp-unweighted", t)
        dist = oracle_bfs(inst)
        D = max(d for d in dist[1:] if d is not None)
        assert res.hcost == scheme.hcost_bound(inst)
        assert res.hcost <= D * (n * (2 * t - 1) + n + 16) + 2 * n + 16
        checked += 4
    print(f"\nPASS help sizes: {checked} runs at n=64 over t in "
          f"{GRID_T}, every transcript length matches its formula")


def test_space_budgets():
    n = 64
    checked = 0
    for t in GRID_T:
        s = resolve_shape(n, t, None)[1]
        _, _, res = _grid_run("tri-laconic", t)
        assert res.vcost <= n * s + 16
        _, _, res = _grid_run("tri-frugal", t)
        assert res.vcost <= 2 * s + 16
        _, _, res = _grid_run("edgecount-induced", t)
        assert res.vcost <= s * s + 4 * s + 16
        _, _, res = _grid_run("sssp-unweighted", t)
        assert res.vcost <= 2 * s + 16
        checked += 4
    # weight-carrying verifiers budget against n (shape-independent)
    W = 4
    wt = weighted_turnstile_instance(n, 0.1, W, seed=9, source=1)
    res = run_honest(get_scheme("sssp-wturnstile").configure(wt), wt, seed=5)
    assert res.accepted and res.vcost <= 10 * n
    wv = weighted_instance(n, 0.1, W, seed=9, source=1)
    res = run_honest(get_scheme("sssp-wvanilla").configure(wv), wv, seed=5)
    assert res.accepted and res.vcost <= 10 * W * n
    checked += 2
    print(f"\nPASS space budgets: {checked} runs at n=64, every verifier "
          f"peak within its budget")


# ------------------------------------------------- tradeoff curve

def _sweep_rows(tmp_path, name, inst, tag):
    src = tmp_path / f"{tag}.stream"
    src.write_text(serialize_stream(inst))
    out = tmp_path / f"{tag}.csv"
    cmd = [sys.executable, "-m", "annostream.cli", "sweep",
           "--scheme", name, "--input", str(src),
           "--t-grid", "2,4,8,16,32", "--out", str(out)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    with open(out, newline="") as fh:
        return list(csv.DictReader(fh))


def test_cost_tradeoff_curve(tmp_path):
    n = 64
    fixtures = {
        "edgecount-induced": with_query_set(
            turnstile_instance(n, gnp_edges(n, 0.3, 5), seed=5),
            list(range(1, 33))),
        "maxmatch-frugal": turnstile_instance(n, gnp_edges(n, 0.3, 5),
                                              seed=5),
    }
    lines = []
    ok = True
    for name, inst in fixtures.items():
        rows = _sweep_rows(tmp_path, name, inst, name)
        hb = [int(r["hbits"]) for r in rows]
        vb = [int(r["vbits"]) for r in rows]
        pb = [float(r["product_bits"]) for r in rows]
        hspread = max(hb) / min(hb)
        vspread = max(vb) / min(vb)
        pspread = max(pb) / min(pb)
        good = pspread <= 8.0 and hspread >= 16.0 and vspread >= 16.0
        ok = ok and good
        lines.append((name, hspread, vspread, pspread, good))
    verdict = "PASS" if ok else "FAIL"
    detail = "; ".join(
        f"{nm}: h x{h:.1f}, v x{v:.1f}, product x{p:.2f}"
        f" [{'ok' if g else 'out of band'}]"
        for nm, h, v, p, g in lines)
    print(f"\n{verdict} tradeoff curve at n=64, t in 2..32: {detail}")
    for nm, h, v, p, g in lines:
        assert p <= 8.0, (nm, "product spread", p)
        assert h >= 16.0, (nm, "help spread", h)
        assert v >= 16.0, (nm, "space spread", v)


# ------------------------------------------------- micro invariants

def test_micro_invariants():
    p = 1048583
    rng = random.Random(77)
    checks = 0

    # unit impulses: indicator on the grid, partition of unity off it
    for t in (3, 5):
        for w in range(1, t + 1):
            row = impulse_table(w, t, p)
            assert row == [1 if u == w else 0 for u in range(1, t + 1)]
            checks += 1
        for _ in range(4):
            r = rng.randrange(p)
            assert sum(impulse_table(r, t, p)) % p == 1
            checks += 1

    # sketch at a random point equals dense interpolation there: the line
    # at r, contracted with the impulses at r'
    dims = (4, 5)
    pt = (rng.randrange(p), rng.randrange(p))
    line = LineArray(ShapeConfig(dims[0] * dims[1], *dims), pt[0], p)
    vals = np.zeros(dims, dtype=np.int64)
    for _ in range(40):
        x = rng.randrange(1, dims[0] + 1)
        y = rng.randrange(1, dims[1] + 1)
        d = rng.randrange(1, 6)
        line.add((x - 1) * dims[1] + y, d)
        vals[x - 1, y - 1] = (vals[x - 1, y - 1] + d) % p
    value = int(line.arr @ impulse_table(pt[1], dims[1], p)) % p
    assert value == nd_eval(coeffs_from_values_nd(vals, p), pt, p)
    checks += 1

    # fingerprints ignore stream order
    keys = [rng.randrange(1, 900) for _ in range(80)]
    gamma = fe_random_nonzero(rng, p)
    a, b = Fingerprint(gamma, p), Fingerprint(gamma, p)
    for k in keys:
        a.add(k)
    shuffled = keys[:]
    rng.shuffle(shuffled)
    for k in shuffled:
        b.add(k)
    assert a.value == b.value
    checks += 1

    # vertex shaping is a bijection onto the (t, s) grid
    for (n, t, s) in ((16, 4, 4), (10, 4, 3), (12, 3, 4)):
        sc = ShapeConfig(n, t, s)
        seen = {sc.shape(v) for v in range(1, n + 1)}
        assert len(seen) == n
        for v in range(1, n + 1):
            assert sc.unshape(*sc.shape(v)) == v
        checks += 1

    # matching size equals the worst vertex-deletion deficiency bound
    for trial in range(25):
        n = rng.randrange(6, 11)
        edges = gnp_edges(n, 0.4, 500 + trial)
        inst = vanilla_instance(n, edges)
        G = nx.Graph()
        G.add_nodes_from(range(1, n + 1))
        G.add_edges_from(edges)
        best = min(
            (len(U) - sum(len(c) % 2
                          for c in nx.connected_components(
                              G.subgraph(set(G) - set(U)))) + n) // 2
            for r in range(n + 1)
            for U in itertools.combinations(range(1, n + 1), r))
        assert oracle_max_matching(inst) == best
        checks += 1

    # every single corrupted distance label is caught
    known = {
        "distance label out of range",
        "label zero must mark the source alone",
        "labels do not match the discovered balls",
        "ball still growing at the claimed horizon",
    }
    for inst in (vanilla_instance(8, gnp_edges(8, 0.3, 5), source=3),
                 vanilla_instance(8, [(1, 2), (2, 3), (5, 6), (6, 7)],
                                  source=1)):
        scheme = get_scheme("sssp-unweighted").configure(inst)
        cfg = scheme.field_config(inst, None)
        honest = scheme.prove(inst, cfg.p)
        assert run_with_transcript(scheme, inst, honest,
                                   seed=6, p=cfg.p).accepted
        labels = honest.blocks[1]
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
                assert not res.accepted and res.reason in known
                checks += 1

    print(f"\nPASS micro invariants: {checks} identity and "
          f"perturbation checks, zero failures")
