"""Triangle counting schemes across the four stream models."""

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annostream.extension import impulse_table
from annostream.field import next_prime
from annostream.generators import (adjlist_instance, clique_edges,
                                   cycle_edges, gnp_edges, path_edges,
                                   turnstile_instance, vanilla_instance)
from annostream.oracle import oracle_triangles
from annostream.protocol import (SpaceMeter, get_scheme, run_adversarial,
                                 run_honest)
from annostream.stream import EdgeToken, GraphInstance

DENSE = ("tri-laconic", "tri-frugal")
ALL = ("tri-laconic", "tri-frugal", "tri-sparse", "tri-adj")


def _instance_for(name, n, edges):
    if name == "tri-adj":
        return adjlist_instance(n, edges)
    if name == "tri-sparse":
        return vanilla_instance(n, edges)
    return turnstile_instance(n, edges, churn=3, seed=n)


@pytest.mark.parametrize("name", ALL)
def test_hand_counts(name):
    for n, edges, want in ((5, clique_edges(5), 10),
                           (6, path_edges(6), 0),
                           (3, cycle_edges(3), 1),
                           (4, [], 0)):
        inst = _instance_for(name, n, edges)
        scheme = get_scheme(name).configure(inst)
        res = run_honest(scheme, inst, seed=11)
        assert res.accepted, res.reason
        assert res.value == want


@pytest.mark.parametrize("name", DENSE)
@pytest.mark.parametrize("shape", [(None, None), (1, None), (None, 1)])
def test_runs_across_shapes(name, shape):
    rng = random.Random(5)
    for trial in range(8):
        n = rng.randrange(5, 12)
        inst = turnstile_instance(n, gnp_edges(n, 0.5, 40 + trial),
                                  churn=2, seed=trial)
        scheme = get_scheme(name).configure(inst, t=shape[0], s=shape[1])
        res = run_honest(scheme, inst, seed=trial)
        assert res.accepted, res.reason
        assert res.value == oracle_triangles(inst)


def test_turnstile_deletions_and_multiplicity():
    from annostream.stream import EdgeToken, GraphInstance

    def run(tokens):
        inst = GraphInstance(n=4, model="turnstile", tokens=tokens)
        return run_honest(get_scheme("tri-laconic").configure(inst), inst)

    tri = [EdgeToken(u, v, 1) for (u, v) in cycle_edges(3)]
    extra = [EdgeToken(1, 4, 1), EdgeToken(2, 4, 1)]
    assert run(tri + extra).value == 2            # {123} and {124}
    # net-deleting 1-2 kills both triangles
    assert run(tri + extra + [EdgeToken(2, 1, -1)]).value == 0
    # doubling 1-2 doubles each product term
    assert run(tri + extra + [EdgeToken(1, 2, 1)]).value == 4
    # insert-then-cancel leaves the count alone
    churned = tri + [EdgeToken(3, 4, 1)] + extra + [EdgeToken(3, 4, -1)]
    assert run(churned).value == 2


def test_laconic_transcript_is_odd_polynomial_length():
    inst = turnstile_instance(9, gnp_edges(9, 0.5, 3))
    for t in (1, 3, 9):
        scheme = get_scheme("tri-laconic").configure(inst, t=t)
        res = run_honest(scheme, inst)
        assert res.accepted
        assert res.hcost == 2 * t - 1
        assert res.vcost <= scheme.vcost_bound(inst)


def test_frugal_costs_within_bounds():
    inst = turnstile_instance(8, gnp_edges(8, 0.6, 4))
    for t, s in ((1, 8), (2, 4), (4, 2), (8, 1)):
        scheme = get_scheme("tri-frugal").configure(inst, t=t, s=s)
        res = run_honest(scheme, inst)
        assert res.accepted
        assert res.hcost <= (2 * t - 1) ** 2 * (2 * 8 - 1)
        assert res.vcost <= 2 * s + 16


def test_sparse_replay_checks_neighborhoods():
    # the sparse scheme replays adjacency ids; corrupting the replay
    # must trip the replay fingerprint, not just the count
    inst = vanilla_instance(7, gnp_edges(7, 0.5, 6))
    scheme = get_scheme("tri-sparse").configure(inst)
    cfg = scheme.field_config(inst, None)
    tr = scheme.prove(inst, cfg.p)
    from annostream.protocol import run_with_transcript
    res = run_with_transcript(scheme, inst, tr, seed=2, p=cfg.p)
    assert res.accepted and res.value == oracle_triangles(inst)


def test_adjlist_scheme_requires_adjacency_model():
    inst = vanilla_instance(5, clique_edges(5))
    scheme = get_scheme("tri-adj").configure(inst)
    with pytest.raises(ValueError, match="tri-adj takes adjlist streams"):
        run_honest(scheme, inst)


@pytest.mark.parametrize("name", ALL)
def test_adversarial_catch_rate(name):
    inst = _instance_for(name, 8, gnp_edges(8, 0.5, 7))
    scheme = get_scheme(name).configure(inst)
    for policy in scheme.mutations:
        st = run_adversarial(scheme, inst, policy, trials=60, seed=13)
        assert st.accepted_wrong == 0, (name, policy)


# one triangle whose edge 1-2 nets +1 from two huge opposite deltas
HUGE = ["n=3 model=turnstile", "1 2 {big}", "1 2 {drop}", "2 3 1", "1 3 1"]


@pytest.mark.parametrize("big", [2 ** 40, 2 ** 50])
def test_huge_turnstile_deltas_charge_exactly(big, tmp_path, capsys):
    from annostream import cli
    from annostream.stream import parse_stream
    text = "\n".join(HUGE).format(big=big, drop=1 - big) + "\n"
    inst = parse_stream(text)
    path = tmp_path / "g.stream"
    path.write_text(text)
    for name in DENSE:
        res = run_honest(get_scheme(name).configure(inst), inst)
        assert res.accepted and res.value == 1, (name, res.reason)
        assert cli.main(["run", "--scheme", name, "--input", str(path)]) == 0
        assert "output=1" in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("n,prob", [(130, 0.05), (300, 0.01)])
def test_churned_turnstile_at_large_moduli(n, prob):
    # p = 2197021 and 27000011: a deletion reduced to p - 1 times an
    # unreduced product of two residues would pass 2^63
    inst = turnstile_instance(n, gnp_edges(n, prob, 5), churn=60, seed=5)
    want = oracle_triangles(inst)
    for name in DENSE:
        res = run_honest(get_scheme(name).configure(inst), inst)
        assert res.accepted and res.value == want, (name, res.reason)


# the largest prime the vectorized kernels take: a float64 product there
# holds 8 full-size terms, so each staged block of charge rows splits
P_TOP = 33554393


def _frugal_charge_reference(scheme, inst, p):
    """tri-frugal's charge block by the per-token loop, in Python ints:
    token (a, b, delta) adds the product of its two charge rows,
    delta Dt[:, x_a] B[y_a] and Dt[:, x_b] B[y_b], then updates rows y_a
    and y_b of B."""
    t, s, n = scheme.t, scheme.s, scheme.n
    Dt = np.array([impulse_table(x, t, p) for x in range(1, 2 * t)],
                  dtype=object)
    Dn = np.array([impulse_table(x, n, p) for x in range(1, 2 * n)],
                  dtype=object)
    B = np.zeros((s, 2 * t - 1, 2 * n - 1), dtype=object)
    Q = np.zeros((2 * t - 1, 2 * t - 1, 2 * n - 1), dtype=object)
    a, b, delta, _ = inst.edges
    for u, v, d in zip(a.tolist(), b.tolist(), delta.tolist()):
        (xu, yu), (xv, yv) = divmod(u - 1, s), divmod(v - 1, s)
        left = d * Dt[:, xu, None] * B[yu]
        right = Dt[:, xv, None] * B[yv]
        Q = (Q + left[:, None, :] * right[None, :, :]) % p
        B[yu] = (B[yu] + d * np.outer(Dt[:, xu], Dn[:, v - 1])) % p
        B[yv] = (B[yv] + d * np.outer(Dt[:, xv], Dn[:, u - 1])) % p
    return Q


@st.composite
def _strict_churned_streams(draw):
    """A strict-turnstile stream on n <= 16: no multiplicity ever drops
    below zero, and deletions undo earlier insertions."""
    n = draw(st.integers(2, 16))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    size = draw(st.integers(0, 80))  # past two staged blocks
    steps = draw(st.lists(st.tuples(st.sampled_from(pairs),
                                    st.integers(1, 3), st.booleans(),
                                    st.booleans()),
                          min_size=size, max_size=size))
    counts: dict = {}
    tokens = []
    for (u, v), d, delete, flip in steps:
        have = counts.get((u, v), 0)
        d = -min(d, have) if delete and have else d
        counts[u, v] = have + d
        tokens.append(EdgeToken(v, u, d) if flip else EdgeToken(u, v, d))
    return GraphInstance(n=n, model="turnstile", tokens=tokens)


@settings(max_examples=60, deadline=None)
@given(inst=_strict_churned_streams(), data=st.data(),
       p=st.one_of(st.just(P_TOP),
                   st.integers(1 << 20, P_TOP - 1).map(next_prime)))
def test_frugal_staged_charge_matches_per_token_loop(inst, data, p):
    t = data.draw(st.integers(1, inst.n), label="t")
    scheme = get_scheme("tri-frugal").configure(inst, t=t)
    got = scheme.charge_block(inst, p)
    assert got.dtype == np.int64
    assert np.array_equal(got, _frugal_charge_reference(scheme, inst, p))


def test_frugal_prove_memory_follows_its_output():
    # the size of the benchmark's tri-frugal case: per-token staging lists
    # and their stacked float64 copies peaked at 58.9 MiB here
    n = 128
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    inst = turnstile_instance(n, random.Random(3).sample(pairs, 800))
    scheme = get_scheme("tri-frugal").configure(inst)
    p = scheme.field_config(inst, None).p
    tracemalloc.start()
    try:
        scheme.prove(inst, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 << 20


def test_laconic_prove_memory_follows_its_table():
    # the size of the benchmark's tri-laconic case (n = 256, 3200 edges):
    # the prover keeps an n x s x t float64 table and works in blocks of
    # at most 128 tokens (`triangles._LACONIC_BLOCK`); its peak here is
    # about 1.5 MiB
    n = 256
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    inst = turnstile_instance(n, random.Random(5).sample(pairs, 3200))
    scheme = get_scheme("tri-laconic").configure(inst)
    p = scheme.field_config(inst, None).p
    tracemalloc.start()
    try:
        scheme.prove(inst, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20


def _laconic_charge_reference(scheme, inst, p):
    """tri-laconic's charge polynomial by the per-token loop, in Python
    ints: token (a, b, delta) adds delta sum_y T_a[w, y] T_b[w, y] at each
    node w, then adds delta Dt[w, x_b] to T_a[w, y_b] and delta Dt[w, x_a]
    to T_b[w, y_a]."""
    t, s, n = scheme.t, scheme.s, scheme.n
    Dt = np.array([impulse_table(x, t, p) for x in range(1, 2 * t)],
                  dtype=object)
    T = np.zeros((n, s, 2 * t - 1), dtype=object)
    acc = np.zeros(2 * t - 1, dtype=object)
    a, b, delta, _ = inst.edges
    for u, v, d in zip(a.tolist(), b.tolist(), delta.tolist()):
        (xu, yu), (xv, yv) = divmod(u - 1, s), divmod(v - 1, s)
        acc = (acc + d * (T[u - 1] * T[v - 1]).sum(axis=0)) % p
        T[u - 1, yv] = (T[u - 1, yv] + d * Dt[:, xv]) % p
        T[v - 1, yu] = (T[v - 1, yu] + d * Dt[:, xu]) % p
    return acc


@settings(max_examples=60, deadline=None)
@given(inst=_strict_churned_streams(), data=st.data(),
       p=st.one_of(st.just(P_TOP),
                   st.integers(1 << 20, P_TOP - 1).map(next_prime)))
def test_laconic_charge_matches_per_token_loop(inst, data, p):
    t = data.draw(st.integers(1, inst.n), label="t")
    scheme = get_scheme("tri-laconic").configure(inst, t=t)
    got = scheme.prove(inst, p).blocks[-1].values
    assert got.dtype == np.int64
    assert got.tolist() == _laconic_charge_reference(scheme, inst, p).tolist()


def _columns(n, rows):
    """An edge stream of (u, v, delta) rows, as int64 columns; the deltas
    may pass the parser's bound on their sum, which the prover never reads."""
    u, v, d = (np.array(c, dtype=np.int64) for c in zip(*rows))
    return GraphInstance.from_columns(
        n, "turnstile", edges=(u, v, d, np.zeros_like(u)))


BIG = 2 ** 62 - 1


def _huge_star(n, tokens, seed):
    """Edges from vertex 1 to random vertices, either way round, each with
    a delta of +-(2^62 - 1)."""
    rng = random.Random(seed)
    return n, [(1, rng.randint(2, n))[::rng.choice([1, -1])]
               + (rng.choice([BIG, -BIG]),) for _ in range(tokens)]


# streams whose blocks of 1-3 tokens see every case of the in-block
# incidences: a vertex in every token, an edge churned inside a block,
# multiplicities above 1, deltas of +-(2^62 - 1); in full blocks of 128
# the last stream adds up to 127 residues to one cell of a gathered row
# and 300 to one cell of the table, and the float64 products stay exact
# only on reduced rows
BLOCK_STREAMS = {
    "star": (6, [(1, 2, 1), (3, 1, 1), (1, 4, 1), (2, 3, 1), (5, 1, 1),
                 (1, 3, -1), (4, 2, 1), (1, 6, 1), (3, 4, 1), (6, 1, 1),
                 (1, 3, 1), (4, 1, -1)]),
    "churn": (5, [(1, 3, 1), (2, 3, 1), (1, 2, 1), (2, 1, -1), (1, 2, 1),
                  (1, 2, -1), (2, 1, 1), (3, 4, 1), (1, 2, -1), (2, 1, 1),
                  (2, 4, 1), (1, 2, 1), (1, 2, -1)]),
    "multiplicity": (5, [(1, 2, 3), (2, 3, 2), (3, 1, 2), (1, 2, -1),
                         (3, 4, 3), (4, 1, 2), (2, 4, 1), (1, 2, 2),
                         (3, 4, -2)]),
    "huge": (4, [(1, 2, BIG), (2, 3, -BIG), (1, 3, BIG), (1, 2, -BIG),
                 (2, 3, BIG), (3, 4, -BIG), (1, 4, BIG), (2, 4, BIG),
                 (1, 2, BIG)]),
    "huge-star": _huge_star(5, 300, 3),
}


@pytest.mark.parametrize("block", [1, 2, 3, 128])
@pytest.mark.parametrize("name", sorted(BLOCK_STREAMS))
def test_laconic_blocks_charge_the_earlier_incidences(monkeypatch, block,
                                                      name):
    from annostream import triangles
    monkeypatch.setattr(triangles, "_LACONIC_BLOCK", block)
    n, rows = BLOCK_STREAMS[name]
    inst = _columns(n, rows)
    for p in (P_TOP, next_prime(1 << 20)):
        for t in range(1, n + 1):
            scheme = get_scheme("tri-laconic").configure(inst, t=t)
            got = scheme.prove(inst, p).blocks[-1].values
            want = _laconic_charge_reference(scheme, inst, p)
            assert got.tolist() == want.tolist(), (p, t)


def _adj_charge_reference(scheme, inst, p):
    """tri-adj's charge block row by row, in Python ints: row v first adds
    the edges it lists first to the revealed adjacency R (both ways), then
    adds sum_{c, c'} R[c, c'] L_v(w1, c) L_v(w2, c'), where
    L_v(w, c) = Dt[w, x_c] * sum over the u of row v with y_u = y_c of
    Dt[w, x_u]."""
    t, s, n = scheme.t, scheme.s, scheme.n
    Dt = np.array([impulse_table(x, t, p) for x in range(1, 2 * t)],
                  dtype=object)
    R = np.zeros((n, n), dtype=object)
    P = np.zeros((2 * t - 1, 2 * t - 1), dtype=object)
    rows: dict = {}
    for v, u, first in zip(*(c.tolist() for c in inst.edges[:3])):
        rows.setdefault(v, []).append((u, first))
    for v, items in rows.items():
        for u, first in items:
            if first:
                R[v - 1, u - 1] += 1
                R[u - 1, v - 1] += 1
        line = np.zeros((2 * t - 1, s), dtype=object)
        for u, _ in items:
            line[:, (u - 1) % s] += Dt[:, (u - 1) // s]
        L = np.array([Dt[:, c // s] * line[:, c % s] for c in range(n)],
                     dtype=object).T
        P = (P + L.dot(R).dot(L.T)) % p
    return P


@st.composite
def _adjacency_lists(draw):
    """An adjacency-list stream of a simple graph on n <= 10."""
    n = draw(st.integers(2, 10))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    return adjlist_instance(n, draw(st.lists(st.sampled_from(pairs),
                                             unique=True)))


@settings(max_examples=60, deadline=None)
@given(inst=_adjacency_lists(), data=st.data(),
       p=st.one_of(st.just(P_TOP),
                   st.integers(1 << 20, P_TOP - 1).map(next_prime)))
def test_adj_charge_matches_row_by_row_loop(inst, data, p):
    t = data.draw(st.integers(1, inst.n), label="t")
    scheme = get_scheme("tri-adj").configure(inst, t=t)
    got = scheme.prove(inst, p).blocks[-1].values
    assert got.dtype == np.int64
    assert got.tolist() == _adj_charge_reference(scheme, inst, p).ravel(
        ).tolist()


def _adj_stream_reference(scheme, inst, p, seed):
    """tri-adj's stream side by the per-row loop, in Python ints: the edges
    a row lists first join the pair sketch T (both ways), then the row adds
    l1^T T l2, its lines at the coins r1, r2. Returns (point, acc)."""
    rng = random.Random(seed)
    r1, r2 = rng.randrange(p), rng.randrange(p)
    t, s = scheme.t, scheme.s
    i1, i2 = impulse_table(r1, t, p), impulse_table(r2, t, p)
    T = [[0] * s for _ in range(s)]
    rows: list = []
    for v, u, first in zip(*(c.tolist() for c in inst.edges[:3])):
        if not rows or rows[-1][0] != v:
            rows.append((v, []))
        rows[-1][1].append((u, first))
    acc = 0
    for v, items in rows:
        xv, yv = divmod(v - 1, s)
        l1, l2 = [0] * s, [0] * s
        for u, first in items:
            xu, yu = divmod(u - 1, s)
            l1[yu] += i1[xu]
            l2[yu] += i2[xu]
            if first:
                T[yv][yu] += i1[xv] * i2[xu]
                T[yu][yv] += i1[xu] * i2[xv]
        acc += sum(l1[a] * T[a][b] * l2[b]
                   for a in range(s) for b in range(s))
    return (r1, r2), acc % p


ADJ_LISTS = {
    # four row blocks of 64, the last one short
    "gnp-200": (200, gnp_edges(200, 0.05, 3)),
    # 65 rows: a last block of one row, which lists no edge first (both of
    # vertex 65's neighbours come before it), like many rows of gnp-200
    "cycle-65": (65, cycle_edges(65)),
    # rows 65..128 list every edge first, charged in their own block
    "chords-130": (130, [(v, v + 1) for v in range(64, 129)]
                   + gnp_edges(130, 0.03, 5)),
}


@pytest.mark.parametrize("p", [P_TOP, 101])
@pytest.mark.parametrize("name", sorted(ADJ_LISTS))
def test_adj_stream_side_charges_row_blocks_as_row_by_row(name, p):
    n, edges = ADJ_LISTS[name]
    inst = adjlist_instance(n, sorted(set(edges)))
    scheme = get_scheme("tri-adj").configure(inst)
    for seed in range(4):
        st = scheme.stream_side(inst, p, random.Random(seed), SpaceMeter())
        assert (st.point, st.acc) == _adj_stream_reference(scheme, inst, p,
                                                           seed), seed


def test_laconic_sums_rows_in_bounded_chunks(monkeypatch):
    # past 2^13 products of two residues an int64 sum can wrap; with the
    # limit lowered to 2, rows of s = 3..4 take the chunked dot_mod path
    from annostream import extension
    monkeypatch.setattr(extension, "_INT64_TERMS", 2)
    p = P_TOP
    for n, t in ((9, 3), (8, 2)):
        inst = turnstile_instance(n, gnp_edges(n, 0.7, n), churn=3, seed=n)
        scheme = get_scheme("tri-laconic").configure(inst, t=t)
        got = scheme.prove(inst, p).blocks[-1].values
        assert got.tolist() == _laconic_charge_reference(scheme, inst,
                                                         p).tolist()
        res = run_honest(scheme, inst, seed=3)
        assert res.accepted and res.value == oracle_triangles(inst)
