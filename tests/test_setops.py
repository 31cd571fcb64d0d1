"""Fingerprints, key packings, and line-restricted set checks."""

import random
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annostream.edgecount import LineArray, PairSketch
from annostream.extension import ShapeConfig, extend_rows
from annostream.field import fe_random, fe_random_nonzero
from annostream.generators import (digraph_instance, gnp_edges,
                                   turnstile_instance, weighted_instance,
                                   weighted_turnstile_instance)
from annostream.protocol import Coins, SpaceMeter, stream_pass
from annostream.setops import (Fingerprint, KeyCheck, LineCheck,
                               SameMultiset, StreamEdgeCheck, dense_indicator,
                               directed_key, edge_extension, line_check_dims,
                               line_check_help, stream_keys, undirected_key,
                               weighted_key)
from annostream.stream import DELTA_BOUND, ProofTranscript, RejectError

P = 1048583


def _help(values):
    """A reader positioned on one help block labelled "g", the polynomial
    taking these values on its nodes."""
    tr = ProofTranscript()
    tr.add_values("g", values, P)
    return tr.reader(P)


def test_fingerprint_order_insensitive():
    rng = random.Random(0)
    keys = [rng.randrange(1, 500) for _ in range(60)]
    gamma = fe_random_nonzero(rng, P)
    a = Fingerprint(gamma, P)
    b = Fingerprint(gamma, P)
    for k in keys:
        a.add(k)
    shuffled = keys[:]
    rng.shuffle(shuffled)
    for k in shuffled:
        b.add(k)
    assert a.value == b.value


def test_fingerprint_multiplicity_cancels():
    g = 12345
    f = Fingerprint(g, P)
    f.add(7, 3)
    f.add(7, -3)
    f.add(9, 1)
    assert f.value == pow(g, 9, P)


def _fingerprint_reference(gamma, calls, p):
    return sum(m * pow(gamma, k, p) for keys, mults in calls
               for k, m in zip(keys, mults)) % p


@pytest.mark.parametrize("tables", [True, False])
def test_fingerprint_matches_python_ints_on_both_paths(monkeypatch, tables):
    from annostream import extension, setops
    built = []

    def power_table(x, count, p):
        built.append(count)
        return extension.power_table(x, count, p)
    monkeypatch.setattr(setops, "power_table", power_table)
    monkeypatch.setattr(setops, "_TABLE_KEYS", 1 if tables else 1 << 30)
    rng = random.Random(4)
    calls = [
        ([0], [5]),                             # key 0
        (list(range(10)), [1] * 10),            # count^2 >= max key
        ([3, 4, 200], [1, 2, 3]),               # 200 is past count^2
        ([7, 7, 7, 2], [-1, -4, 3, -(P - 1)]),  # negative multiplicities
        ([-1, -5, 9], [1, 1, 2]),               # negative keys
        ([], []),
        ([rng.randrange(0, 4096) for _ in range(300)],
         [rng.randrange(-9, 10) for _ in range(300)]),
    ]
    for gamma in (1, 12345, P - 1):
        f = Fingerprint(gamma, P)
        for keys, mults in calls:
            f.add(np.array(keys, dtype=np.int64),
                  np.array(mults, dtype=np.int64))
        assert f.value == _fingerprint_reference(gamma, calls, P), gamma
        # the same keys split across many small calls
        g = Fingerprint(gamma, P)
        for keys, mults in calls:
            for lo in range(0, len(keys), 3):
                g.add(keys[lo:lo + 3], np.array(mults[lo:lo + 3]))
        assert g.value == f.value
    assert bool(built) == tables


def test_fingerprint_separates_multisets():
    # different multisets collide only with prob <= maxkey/p per gamma
    rng = random.Random(1)
    hits = 0
    for trial in range(200):
        gamma = fe_random_nonzero(rng, P)
        a = Fingerprint(gamma, P)
        b = Fingerprint(gamma, P)
        a.add(3), a.add(5)
        b.add(4), b.add(4)
        hits += a.value == b.value
    assert hits == 0


def test_key_packings_are_injective():
    n, W = 7, 3
    seen = set()
    for u in range(1, n + 1):
        for v in range(1, n + 1):
            if u == v:
                continue
            k = undirected_key(u, v, n)
            assert k == undirected_key(v, u, n)
            assert 1 <= k <= n * n
            seen.add(k)
    assert len(seen) == n * (n - 1) // 2

    dseen = {directed_key(u, v, n)
             for u in range(1, n + 1) for v in range(1, n + 1)}
    assert len(dseen) == n * n

    wseen = set()
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            for w in range(1, W + 1):
                k = weighted_key(u, v, w, n, W)
                assert k == weighted_key(v, u, w, n, W)
                assert 1 <= k <= n * n * W
                wseen.add(k)
    assert len(wseen) == n * (n - 1) // 2 * W


def test_line_check_dims():
    assert line_check_dims(49, 7) == (7, 7)
    assert line_check_dims(50, 7) == (8, 7)
    assert line_check_dims(5, 9) == (1, 5)


def _random_sets(rng, universe, asize, bsize):
    a = set(rng.sample(range(1, universe + 1), asize))
    b = set(rng.sample(range(1, universe + 1), bsize))
    return a, b


def test_line_check_intersection_counts():
    rng = random.Random(2)
    universe = 36
    dims = line_check_dims(universe, 6)
    for _ in range(25):
        a, b = _random_sets(rng, universe, 12, 15)
        rho = rng.randrange(P)
        lc = LineCheck(dims, rho, P, "intersect")
        for k in a:
            lc.add_left(k)
        for k in b:
            lc.add_right(k)
        help_coeffs = line_check_help(
            dense_indicator(sorted(a), dims),
            extend_rows(dense_indicator(sorted(b), dims), P), P,
            "intersect")
        assert lc.finish(_help(help_coeffs), "g") == len(a & b)


def test_line_check_subset_accepts_and_rejects():
    rng = random.Random(3)
    universe = 30
    dims = line_check_dims(universe, 5)
    sub = set(rng.sample(range(1, universe + 1), 8))
    sup = sub | set(rng.sample(range(1, universe + 1), 10))

    def run(a, b, rho):
        lc = LineCheck(dims, rho, P, "subset")
        for k in a:
            lc.add_left(k)
        for k in b:
            lc.add_right(k)
        coeffs = line_check_help(
            dense_indicator(sorted(a), dims),
            extend_rows(dense_indicator(sorted(b), dims), P), P,
            "subset")
        return lc.finish(_help(coeffs), "g")

    assert run(sub, sup, rng.randrange(P)) == 0

    outside = next(k for k in range(1, universe + 1) if k not in sup)
    bad = sub | {outside}
    caught = 0
    for _ in range(30):
        try:
            run(bad, sup, rng.randrange(P))
        except RejectError:
            caught += 1
    assert caught == 30


def test_line_check_catches_forged_polynomial():
    # prover claims a zero-total polynomial for a non-subset pair: the
    # point check at the secret rho must catch it w.h.p.
    rng = random.Random(4)
    universe = 30
    dims = line_check_dims(universe, 5)
    a = {1, 2, 3}
    b = {2, 3}
    honest_for_legal = line_check_help(
        dense_indicator(sorted({2, 3}), dims),
        extend_rows(dense_indicator(sorted(b), dims), P), P,
        "subset")
    caught = 0
    for _ in range(40):
        rho = rng.randrange(P)
        lc = LineCheck(dims, rho, P, "subset")
        for k in a:
            lc.add_left(k)
        for k in b:
            lc.add_right(k)
        try:
            lc.finish(_help(honest_for_legal), "g")
        except RejectError:
            caught += 1
    assert caught >= 39


def test_line_check_multiplicity_left():
    # left side may carry multiplicities; intersect total weights them
    dims = line_check_dims(12, 4)
    rho = 98765
    lc = LineCheck(dims, rho, P, "intersect")
    lc.add_left(5, 3)
    lc.add_left(7, 2)
    lc.add_right(5)
    lc.add_right(6)
    coeffs = line_check_help(dense_indicator([5, 7], dims, [3, 2]),
                             extend_rows(dense_indicator([5, 6], dims), P),
                             P, "intersect")
    assert lc.finish(_help(coeffs), "g") == 3


def test_line_check_wrong_length_rejected():
    dims = (4, 3)
    lc = LineCheck(dims, 5, P, "intersect")
    with pytest.raises(RejectError):
        lc.finish(_help(np.zeros(2 * 4, dtype=np.int64)), "g")


def test_line_check_state_is_two_lines():
    lc = LineCheck((6, 4), 17, P, "subset")
    assert lc.cells == 8


# --- column updates against a Python-int reference ---------------------------


def _impulse(r, size, p):
    """delta_u(r) for u = 1..size by the Lagrange product, in Python ints."""
    out = []
    for u in range(1, size + 1):
        num = den = 1
        for w in range(1, size + 1):
            if w != u:
                num, den = num * (r - w) % p, den * (u - w) % p
        out.append(num * pow(den, -1, p) % p)
    return out


def _cell(v, s):
    return (v - 1) // s, (v - 1) % s


@st.composite
def _updates(draw):
    """A (possibly padded) grid, a point, and a column of updates with
    repeated cells, negative deltas and deltas up to the stream bound."""
    p = draw(st.sampled_from([97, 1048583, 33554393]))
    n = draw(st.integers(1, 12))
    t = draw(st.integers(1, n))
    s = draw(st.integers(-(-n // t), -(-n // t) + 2))
    k = draw(st.integers(0, 16))
    col = st.lists(st.integers(1, n), min_size=k, max_size=k)
    delta = st.lists(st.one_of(
        st.integers(-3, 3),
        st.integers(-DELTA_BOUND + 1, DELTA_BOUND - 1)), min_size=k,
        max_size=k)
    point = st.integers(0, p - 1)
    return (p, ShapeConfig(n, t, s), draw(col), draw(col), draw(delta),
            draw(point), draw(point), draw(st.integers(0, k)))


def _ints(xs):
    return np.array(xs, dtype=np.int64)


@settings(max_examples=200, deadline=None)
@given(_updates())
def test_pair_sketch_columns_match_python_ints(case):
    p, sc, a, b, d, r1, r2, cut = case
    i1, i2 = _impulse(r1, sc.t, p), _impulse(r2, sc.t, p)
    want = [[0] * sc.s for _ in range(sc.s)]
    for x, y, c in zip(a, b, d):
        (xa, ya), (xb, yb) = _cell(x, sc.s), _cell(y, sc.s)
        want[ya][yb] = (want[ya][yb] + c * i1[xa] * i2[xb]) % p
    sketch = PairSketch(sc, r1, r2, p)
    sketch.add(_ints(a[:cut]), _ints(b[:cut]), _ints(d[:cut]))
    for x, y, c in zip(a[cut:], b[cut:], d[cut:]):
        sketch.add(x, y, c)
    assert sketch.table.tolist() == want
    sym = PairSketch(sc, r1, r2, p)
    sym.add_sym(_ints(a), _ints(b), _ints(d))
    twice = PairSketch(sc, r1, r2, p)
    twice.add(_ints(a + b), _ints(b + a), _ints(d + d))
    assert sym.table.tolist() == twice.table.tolist()


@settings(max_examples=200, deadline=None)
@given(_updates())
def test_line_array_columns_match_python_ints(case):
    p, sc, a, b, d, r, _, cut = case
    imp = _impulse(r, sc.t, p)
    want = [0] * sc.s
    for v, c in zip(a, d):
        x, y = _cell(v, sc.s)
        want[y] = (want[y] + c * imp[x]) % p
    line = LineArray(sc, r, p)
    line.add(_ints(a[:cut]), _ints(d[:cut]))
    for v, c in zip(a[cut:], d[cut:]):
        line.add(v, c)
    assert line.arr.tolist() == want
    lists = [a[:cut], a[cut:], [], b]
    rows = line.rows([_ints(m) for m in lists]).tolist()
    for members, row in zip(lists, rows):
        alone = LineArray(sc, r, p)
        alone.add(_ints(members))
        assert row == alone.arr.tolist()


@settings(max_examples=200, deadline=None)
@given(_updates())
def test_line_check_columns_match_python_ints(case):
    p, sc, a, b, d, rho, _, cut = case
    dims = (sc.t, sc.s)  # keys 1..n on the grid, padded or not
    imp = _impulse(rho, sc.t, p)
    chk = LineCheck(dims, rho, p, "intersect")
    chk.add_left(_ints(a[:cut]), _ints(d[:cut]))
    chk.add_right(_ints(b))
    for v, c in zip(a[cut:], d[cut:]):
        chk.add_left(v, c)
    left, right = [0] * sc.s, [0] * sc.s
    for v, c in zip(a, d):
        x, y = _cell(v, sc.s)
        left[y] = (left[y] + c * imp[x]) % p
    for v in b:
        x, y = _cell(v, sc.s)
        right[y] = (right[y] + imp[x]) % p
    assert chk.left.arr.tolist() == left and chk.right.arr.tolist() == right


@settings(max_examples=200, deadline=None)
@given(_updates())
def test_fingerprint_columns_match_python_ints(case):
    p, sc, a, b, d, gamma, _, cut = case
    keys = [directed_key(x, y, sc.n) for x, y in zip(a, b)]
    fp = Fingerprint(gamma, p)
    fp.add(_ints(keys[:cut]), _ints(d[:cut]))
    for key, c in zip(keys[cut:], d[cut:]):
        fp.add(key, c)
    assert fp.value == sum(c * pow(gamma, key, p)
                           for key, c in zip(keys, d)) % p


def test_columns_refuse_vertices_off_the_grid():
    p, sc = 97, ShapeConfig(5, 2, 3)  # padded: cell 6 holds no vertex
    for bad in ([1, 6], [0, 2], [-1]):
        with pytest.raises(ValueError):
            PairSketch(sc, 3, 4, p).add(_ints(bad), _ints([1] * len(bad)))
        with pytest.raises(ValueError):
            LineArray(sc, 3, p).add(_ints(bad))
    for bad in ([1, 7], [0, 2], [-1]):  # keys of a 2 x 3 line check
        with pytest.raises(ValueError):
            LineCheck((2, 3), 3, p, "subset").add_left(_ints(bad))
    with pytest.raises(ValueError):
        sc.shape(6)


# --- the stream's edge keys --------------------------------------------------

# a turnstile stream with multiplicities up to 3 and churn that cancels, a
# digraph read as arcs, and a weighted stream
_TURNSTILE = weighted_turnstile_instance(9, 0.4, 3, seed=7, churn=8)
_KEYED = {"undirected": _TURNSTILE, "symmetric": _TURNSTILE,
          "directed": digraph_instance(9, 0.4, 7),
          "weighted": weighted_instance(9, 0.4, 4, 7)}


def _final_keys(inst, rule) -> Counter:
    """The final edge multiset under `rule`, from the instance's own edge
    views: final multiplicities, arcs or weighted edges."""
    n, out = inst.n, Counter()
    if rule == "directed":
        out.update(directed_key(u, v, n) for u, v in inst.directed_edges())
    elif rule == "weighted":
        out.update(weighted_key(u, v, w, n, inst.W)
                   for u, v, w in inst.weighted_edges())
    for (u, v), c in inst.final_edges().items():
        if rule == "undirected":
            out[undirected_key(u, v, n)] += c
        elif rule == "symmetric":
            out[directed_key(u, v, n)] += c
            out[directed_key(v, u, n)] += c
    return out


@pytest.mark.parametrize("rule", sorted(_KEYED))
def test_stream_keys_sum_to_the_final_edge_indicator(rule):
    inst = _KEYED[rule]
    keys, delta = stream_keys(inst, rule)
    sums = Counter()
    for k, d in zip(keys.tolist(), delta.tolist()):
        sums[k] += d
    if inst.model == "turnstile":
        assert 0 in sums.values() and max(sums.values()) > 1
    want = _final_keys(inst, rule)
    assert want and {k: c for k, c in sums.items() if c} == want
    n, W = inst.n, inst.W
    dims = (n * W, n) if rule == "weighted" else (n, n)
    assert (edge_extension(inst, dims, P, rule)
            == extend_rows(dense_indicator(list(want), dims,
                                           list(want.values())), P)).all()


def test_stream_keys_refuse_an_unknown_rule():
    with pytest.raises(ValueError, match="edge-key rule"):
        stream_keys(_TURNSTILE, "bidirected")


# --- relations: the prover's help, the kept stream side, the help check ------


def _relation_instance():
    """A small turnstile graph whose churn deletes some edges again."""
    return turnstile_instance(8, gnp_edges(8, 0.5, 11), churn=6, seed=11)


def _kept(side, inst):
    """The state `side(inst, p, coins, meter)` builds, as `stream_pass`
    hands it out, and the meter it filled."""
    meter = SpaceMeter()
    scheme = SimpleNamespace(name="relation", t=None, s=None)
    return stream_pass(scheme, inst, P, Coins(1, "relation"), meter,
                       side=side), meter


def _arrays(x):
    if isinstance(x, np.ndarray):
        yield x
    elif hasattr(x, "__dict__"):
        for y in vars(x).values():
            yield from _arrays(y)
    elif isinstance(x, (list, tuple)):
        for y in x:
            yield from _arrays(y)


def _edge_keys(inst):
    return [undirected_key(u, v, inst.n) for (u, v) in inst.final_edges()]


@pytest.mark.parametrize("mode", ["subset", "intersect"])
def test_stream_edge_check_accepts_honest_help_and_rejects_a_non_edge(mode):
    inst = _relation_instance()
    n, edges = inst.n, _edge_keys(inst)
    non_edges = sorted(set(range(1, n * n + 1)) - set(edges))[:3]
    keys = np.array(edges[:4] + (non_edges if mode == "intersect" else []))
    dims = line_check_dims(n * n, 5)
    rel = StreamEdgeCheck(dims, "undirected", mode, "g", "edges")
    st, meter = _kept(lambda inst, p, rng, meter: rel.stream(
        inst, fe_random(rng, p), p, meter), inst)
    assert meter.peak == 2 * dims[1]
    assert not any(a.flags.writeable for a in _arrays(st))
    tr = ProofTranscript()
    rel.prove(tr, inst, keys, P)
    assert rel.check(st, tr.reader(P), keys) == (4 if mode == "intersect"
                                                  else 0)
    bad = np.append(keys, non_edges[-1])
    tr = ProofTranscript()
    rel.prove(tr, inst, bad, P)
    if mode == "subset":
        with pytest.raises(RejectError, match="edges: containment violated"):
            rel.check(st, tr.reader(P), bad)
    else:
        # honest help for the longer list, checked against the claimed one
        with pytest.raises(RejectError, match="edges polynomial disagrees"):
            rel.check(st, tr.reader(P), keys)


def test_key_check_counts_the_overlap_of_two_help_lists():
    inst = _relation_instance()
    left, right = np.array([1, 3, 5, 7]), np.array([2, 3, 7, 8])
    dims = line_check_dims(inst.n, 3)
    rel = KeyCheck(dims, "intersect", "g", "overlap")
    st, meter = _kept(lambda inst, p, rng, meter: rel.stream(
        fe_random(rng, p), p, meter), inst)
    assert meter.peak == 2 * dims[1]
    assert not any(a.flags.writeable for a in _arrays(st))
    tr = ProofTranscript()
    rel.prove(tr, left, right, P)
    assert rel.check(st, tr.reader(P), left, right) == 2
    tr = ProofTranscript()
    rel.prove(tr, left, right[1:], P)
    with pytest.raises(RejectError, match="overlap polynomial disagrees"):
        rel.check(st, tr.reader(P), left, right)


@pytest.mark.parametrize("target", ["vertices", "symmetric", None])
def test_same_multiset_accepts_its_target_and_rejects_a_moved_entry(target):
    inst = _relation_instance()
    n = inst.n
    rel = SameMultiset(target)
    st, meter = _kept(lambda inst, p, rng, meter: rel.stream(
        inst, fe_random(rng, p), p), inst)
    value = st.value
    if target == "vertices":
        lists, copy = [np.arange(1, 4), np.arange(4, n + 1)], ()
    elif target == "symmetric":
        final = inst.final_edges()
        lists, copy = [np.array([directed_key(u, v, n) for (a, b) in final
                                 for (u, v) in ((a, b), (b, a))])], ()
    else:
        lists, copy = [np.array([5, 2, 7])], [np.array([2, 5, 7])]
    rel.check(st, lists, "lists differ", copy=copy)
    moved = [np.append(np.asarray(lists[0]), 1)] + list(lists[1:])
    with pytest.raises(RejectError, match="lists differ"):
        rel.check(st, moved, "lists differ", copy=copy)
    # the kept target is only read
    assert meter.peak == 0 and st.value == value
