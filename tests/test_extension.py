"""Low-degree extension machinery: impulses, interpolation, shaping."""

import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annostream.extension import (FloatResidues, ShapeConfig, StagedProduct,
                                  coeffs_from_serial,
                                  coeffs_from_values_1d, coeffs_from_values_nd,
                                  coeffs_to_serial, dot_mod, exact_chunk,
                                  extend_rows, grid_bump, impulse_array,
                                  impulse_block, impulse_table, mat_mulmod,
                                  nd_eval, nd_grid_sum, power_moments,
                                  power_sums, power_table, resolve_shape)
from annostream.edgecount import LineArray, degree_grid
from annostream.extension import _impulse_inv_denominators, _inverse_table
from annostream.field import fe_inv, next_prime

P = 1048583
# the largest prime the vectorized path takes: (P_TOP - 1)^2 > 2^50, so an
# exact float64 dot product holds at most 8 full-size terms
P_TOP = 33554393


# --- reference helpers, straight from the definitions ------------------------


def poly_eval(coeffs, x, p):
    """Horner's rule; coeffs[i] multiplies x^i."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


def unit_impulse(u, x, size, p):
    """delta_u(x) = prod_{x' != u} (x - x') / (u - x') over [size]."""
    num = den = 1
    for xp in range(1, size + 1):
        if xp != u:
            num = num * (x - xp) % p
            den = den * (u - xp) % p
    return num * pow(den, p - 2, p) % p


def dense_eval(array, point, p):
    """The extension of a grid array at a point, summed cell by cell."""
    arr = np.asarray(array, dtype=object)
    total = 0
    for idx in np.ndindex(*arr.shape):
        w = int(arr[idx])
        for x, size, c in zip(point, arr.shape, idx):
            w = w * unit_impulse(c + 1, x, size, p) % p
        total = (total + w) % p
    return total


def newton_coeffs(values, p):
    """Monomial coefficients along axis 0 by Newton forward differences.

    On the unit-spaced nodes 1..m the divided difference f[1..k+1] is
    Delta^k f(1) / k!, and the Newton basis grows by one factor a step.
    """
    vals = np.asarray(values, dtype=np.int64) % p
    m = vals.shape[0]
    d = vals.reshape(m, -1)
    coeffs = np.zeros_like(d)
    basis = np.zeros(m, dtype=np.int64)
    basis[0] = 1
    fact = 1
    for k in range(m):
        ck = d[0] * pow(fact, p - 2, p) % p
        coeffs = (coeffs + basis[:, None] * ck[None, :]) % p
        if k < m - 1:
            shifted = np.zeros(m, dtype=np.int64)
            shifted[1:k + 2] = basis[:k + 1]
            basis = (shifted - (k + 1) * basis) % p
            d = (d[1:] - d[:-1]) % p
            fact = fact * (k + 1) % p
    return coeffs.reshape(vals.shape)


def newton_coeffs_nd(tensor, p):
    out = np.asarray(tensor, dtype=np.int64) % p
    for axis in range(out.ndim):
        out = np.moveaxis(newton_coeffs(np.moveaxis(out, axis, 0), p),
                          0, axis)
    return out


def object_mulmod(a, b, p):
    return (np.asarray(a).astype(object) @ np.asarray(b).astype(object)) % p


def test_poly_eval_matches_horner_by_hand():
    # 2 + 3x + x^3 at x=5 mod 97: 2 + 15 + 125 = 142 = 45
    assert poly_eval([2, 3, 0, 1], 5, 97) == 45
    assert poly_eval([], 5, 97) == 0


def test_impulse_identity_on_grid():
    # delta_u(x) over the grid [1..g]: 1 at u, 0 elsewhere
    g = 9
    for u in range(1, g + 1):
        for x in range(1, g + 1):
            assert unit_impulse(u, x, g, P) == (1 if x == u else 0)


def test_impulse_table_matches_pointwise():
    rng = random.Random(1)
    for g in (1, 2, 3, 7, 64, 129, 130):
        # on the nodes, off them (past the last and at random) and at
        # points that are 0 mod p
        xs = {1, g, (g + 1) // 2, g + 1, 0, P, 2 * P, P + g}
        xs |= {rng.randrange(P) for _ in range(3)}
        for x in sorted(xs):
            tab = impulse_table(x, g, P)
            assert len(tab) == g
            assert tab == [unit_impulse(u, x, g, P)
                           for u in range(1, g + 1)], (g, x)


def test_impulse_array_is_the_table_kept_read_only():
    for x, g in ((0, 1), (5, 7), (P - 1, 12), (10 ** 9, 3)):
        arr = impulse_array(x, g, P)
        assert arr.dtype == np.int64 and arr.tolist() == impulse_table(x, g, P)
        assert not arr.flags.writeable and impulse_array(x, g, P) is arr


def test_impulse_partition_of_unity():
    # sum_u delta_u(x) == 1 identically (degree < g poly equal to 1 on grid)
    g = 6
    rng = random.Random(2)
    for _ in range(10):
        x = rng.randrange(P)
        assert sum(impulse_table(x, g, P)) % P == 1


def test_impulse_block_rows():
    g = 5
    xs = [3, 11, 10 ** 5]
    blk = impulse_block(xs, g, P)
    assert blk.shape == (3, g)
    for i, x in enumerate(xs):
        assert blk[i].tolist() == impulse_table(x, g, P)


def test_interpolation_round_trip_1d():
    rng = random.Random(3)
    for g in (1, 2, 5, 16):
        vals = np.array([rng.randrange(P) for _ in range(g)], dtype=np.int64)
        coeffs = coeffs_from_values_1d(vals, P)
        assert coeffs.shape == (g,)
        for x in range(1, g + 1):
            assert poly_eval(coeffs.tolist(), x, P) == vals[x - 1]
        # degree < g poly through g points is unique, so an off-grid
        # evaluation must agree with the Lagrange form
        x = rng.randrange(P)
        lag = sum(v * d for v, d in zip(vals.tolist(),
                                        impulse_table(x, g, P))) % P
        assert poly_eval(coeffs.tolist(), x, P) == lag


def test_interpolation_round_trip_nd():
    rng = random.Random(4)
    shape = (3, 4)
    vals = np.array([[rng.randrange(P) for _ in range(shape[1])]
                     for _ in range(shape[0])], dtype=np.int64)
    coeffs = coeffs_from_values_nd(vals, P)
    for x in range(1, shape[0] + 1):
        for y in range(1, shape[1] + 1):
            assert nd_eval(coeffs, (x, y), P) == vals[x - 1, y - 1]


def test_nd_eval_off_grid_matches_tensor_lagrange():
    rng = random.Random(5)
    shape = (4, 3)
    vals = np.array([[rng.randrange(P) for _ in range(shape[1])]
                     for _ in range(shape[0])], dtype=np.int64)
    coeffs = coeffs_from_values_nd(vals, P)
    pt = (rng.randrange(P), rng.randrange(P))
    tx = impulse_table(pt[0], shape[0], P)
    ty = impulse_table(pt[1], shape[1], P)
    direct = 0
    for i in range(shape[0]):
        for j in range(shape[1]):
            direct = (direct + vals[i, j] * tx[i] % P * ty[j]) % P
    assert nd_eval(coeffs, pt, P) == direct


def test_dense_eval_agrees_with_nd_eval():
    rng = random.Random(6)
    shape = (3, 3)
    vals = np.array([[rng.randrange(P) for _ in range(3)]
                     for _ in range(3)], dtype=np.int64)
    coeffs = coeffs_from_values_nd(vals, P)
    pt = (rng.randrange(P), rng.randrange(P))
    assert dense_eval(vals, pt, P) == nd_eval(coeffs, pt, P)


def test_grid_sum():
    rng = random.Random(7)
    shape = (3, 4)
    vals = np.array([[rng.randrange(P) for _ in range(shape[1])]
                     for _ in range(shape[0])], dtype=np.int64)
    coeffs = coeffs_from_values_nd(vals, P)
    assert nd_grid_sum(coeffs, shape, P) == int(vals.sum()) % P


def test_power_sums_small():
    ps = power_sums(4, 3, P)
    assert ps.tolist() == [4, 10, 30]
    coeffs = np.array([2, 1], dtype=np.int64)  # 2 + x summed over 1..4
    assert nd_grid_sum(coeffs, (4,), P) == 8 + 10


@settings(max_examples=120, deadline=None)
@given(m=st.integers(0, 40), count=st.integers(0, 70),
       trailing=st.sampled_from([(), (1,), (3,), (2, 2)]),
       p=st.sampled_from([2, 7, 101, P, P_TOP]), seed=st.integers(0, 2 ** 32))
def test_power_moments_match_python_ints(m, count, trailing, p, seed):
    # count runs past m, m runs past small p, and m = 0 is an empty weight
    # vector: S_k = sum_u w_u u^k over the nodes u = 1..m
    rng = np.random.default_rng(seed)
    w = rng.integers(-3 * p, 3 * p, size=(m,) + trailing)
    got = power_moments(w, count, p)
    assert got.dtype == np.int64 and got.shape == (count,) + trailing
    cols = math.prod(trailing)
    flat = w.reshape(m, cols)
    want = [[sum(int(flat[u - 1, c]) * pow(u, k, p) for u in range(1, m + 1))
             % p for c in range(cols)] for k in range(count)]
    assert got.reshape(count, cols).tolist() == want
    if not trailing:
        assert np.array_equal(power_sums(m, count, p),
                              power_moments(np.ones(m, dtype=np.int64),
                                            count, p))


@pytest.mark.parametrize("p", [2, 101, P_TOP])
def test_power_table_matches_python_ints(p):
    xs = [0, 1, 2, -1, p - 1, p, 3 * p + 5, -7 * p - 2]
    for count in (0, 1, 2, 5, 8, 33):
        got = power_table(xs, count, p)
        assert got.shape == (len(xs), count)
        assert got.tolist() == [[pow(x, r, p) for r in range(count)]
                                for x in xs]
    assert power_table([], 4, p).shape == (0, 4)
    with pytest.raises(ValueError, match="too large for vectorized path"):
        power_table([2], 3, 67108879)


def test_node_sums_hold_no_dense_table():
    # a dense m x M power table here is 64 MB; the blocked one about
    # m * sqrt(M) entries
    m, M, p = 200, 40000, P_TOP
    tracemalloc.start()
    try:
        S = power_moments(np.arange(m), M, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20
    assert S[0] == m * (m - 1) // 2 % p and S[1] == sum(
        u * (u - 1) for u in range(1, m + 1)) % p


def test_serial_order_round_trip():
    rng = random.Random(8)
    shape = (4, 5)
    tensor = np.array([[rng.randrange(P) for _ in range(shape[1])]
                       for _ in range(shape[0])], dtype=np.int64)
    flat = coeffs_to_serial(tensor)
    back = coeffs_from_serial(flat, shape)
    assert np.array_equal(back, tensor)


def test_grid_bump_shifts_total_by_one():
    # the impulse at 1 on [g], on the nodes 1..2g-1
    g = 6
    bump = grid_bump(g, P)
    assert bump.tolist() == [unit_impulse(1, x, g, P)
                             for x in range(1, 2 * g)]
    assert bump[:g].tolist() == [1] + [0] * (g - 1)


@settings(max_examples=150, deadline=None)
@given(m=st.integers(1, 300), trailing=st.sampled_from([(), (1,), (2, 3)]),
       last=st.booleans(), prime=st.sampled_from(["above m", P, P_TOP]),
       entries=st.sampled_from(["wide", "edge", "sparse"]),
       seed=st.integers(0, 2 ** 32))
def test_interpolation_matches_newton(m, trailing, last, prime, entries,
                                      seed):
    shape = (m,) + trailing
    p = next_prime(max(shape)) if prime == "above m" else prime
    rng = np.random.default_rng(seed)
    if entries == "edge":
        edge = np.array([0, 1, -1, p - 1, p, p + 1, 2 * p + 3, -p, -5 * p - 2])
        vals = rng.choice(edge, size=shape)
    else:
        vals = rng.integers(-3 * p, 3 * p, size=shape)
        if entries == "sparse":
            vals[rng.random(shape) < 0.9] = 0
    col = vals.reshape(m, -1)[:, -1].copy()
    assert np.array_equal(coeffs_from_values_1d(col, p),
                          newton_coeffs(col, p))
    if last:  # the long axis last, behind the short ones
        vals = np.moveaxis(vals, 0, -1)
    got = coeffs_from_values_nd(vals, p)
    assert got.dtype == np.int64 and got.shape == vals.shape
    assert np.array_equal(got, newton_coeffs_nd(vals, p))


def test_interpolation_of_a_long_line():
    # the length of the `mis`, `acyclicity` and `components` line-check
    # polynomials at n = 128
    vals = np.random.default_rng(12).integers(-P_TOP, 2 * P_TOP, size=2979)
    assert np.array_equal(coeffs_from_values_1d(vals, P_TOP),
                          newton_coeffs(vals, P_TOP))


def values_with_power_sums(S, p):
    """Values on 1..m whose sums sum_u f(u) inv(den_u) u^k are S_k.

    They are the values of the poly with coefficients
    c_i = sum_k a_{i+k+1} S_k, where a are those of prod_{x<=m} (X - x).
    """
    m = len(S)
    a = [1]
    for x in range(1, m + 1):
        a = [(lo - x * hi) % p for lo, hi in zip([0] + a, a + [0])]
    hankel = np.array([[a[i + k + 1] if i + k < m else 0 for k in range(m)]
                       for i in range(m)], dtype=object)
    c = hankel @ np.asarray(S, dtype=object) % p
    nodes = np.arange(1, m + 1, dtype=object)[:, None]
    vals = np.zeros_like(c)
    for row in c[::-1]:
        vals = (vals * nodes + row) % p
    return vals.astype(np.int64)


@pytest.mark.parametrize("p", [4194301, P_TOP])
def test_interpolation_exact_at_chunk_boundary(p):
    # both products inside the kernel run over the m nodes. Odd residues
    # near p, whose products carry low bits that an inexact float64 sum
    # would drop, go in as the weights w_u = f(u) inv(den_u) of the
    # Vandermonde product and as the power sums S_k of the Hankel product
    rng = np.random.default_rng(p)
    full = exact_chunk((p - 1) ** 2)
    for m in (full - 1, full, full + 1, 2 * full + 3):
        near = rng.integers(p - 5000, p, size=(m, 2)) | 1
        near[0] = p - 1
        den = np.array([(-1) ** (m - u) * math.factorial(u - 1)
                        * math.factorial(m - u) % p
                        for u in range(1, m + 1)], dtype=object)
        for vals in ((near * den[:, None] % p).astype(np.int64),
                     values_with_power_sums(near, p)):
            assert np.array_equal(coeffs_from_values_nd(vals, p),
                                  newton_coeffs_nd(vals, p))


def test_interpolation_keeps_its_input():
    for vals in (np.array([[3, -1], [0, 0], [P + 2, 5]], dtype=np.int64),
                 np.array([[3, 1], [0, 0], [7, 5]], dtype=np.int64)):
        before = vals.copy()
        coeffs_from_values_nd(vals, P)
        coeffs_from_values_1d(vals[:, 0], P)
        coeffs_from_values_1d(vals.T[0], P)
        assert np.array_equal(vals, before)


def test_interpolation_refuses_nodes_past_p():
    # m >= p nodes are not distinct mod p, so no interpolant exists
    with pytest.raises(ValueError, match="not distinct mod 7"):
        coeffs_from_values_1d(np.ones(7, dtype=np.int64), 7)
    with pytest.raises(ValueError, match="not distinct mod 7"):
        coeffs_from_values_nd(np.ones((2, 9), dtype=np.int64), 7)
    assert coeffs_from_values_1d(np.ones(6, dtype=np.int64),
                                 7).tolist() == [1, 0, 0, 0, 0, 0]


# 2g-1 nodes must be distinct mod p: g = 48 is the largest grid for 97
@pytest.mark.parametrize("g,p", [(1, 97), (6, P), (40, P_TOP), (48, 97)])
def test_grid_bump_shifts_grid_total_by_one(g, p):
    bump = grid_bump(g, p)
    assert bump.shape == (2 * g - 1,)
    assert bump.tolist() == [unit_impulse(1, x, g, p)
                             for x in range(1, 2 * g)]
    assert int(bump[:g].sum()) % p == 1


@pytest.mark.parametrize("size,p", [(1, 97), (2, 97), (7, 97), (96, 97),
                                    (97, 97), (2, 2), (5, 5), (13, 13),
                                    (40, P), (300, P_TOP)])
def test_impulse_denominators_invert_factorials_once(size, p):
    want = [fe_inv(math.prod(u - x for x in range(1, size + 1) if x != u), p)
            for u in range(1, size + 1)]
    assert list(_impulse_inv_denominators.__wrapped__(size, p)) == want
    with pytest.raises(ValueError, match="not distinct mod 7"):
        _impulse_inv_denominators.__wrapped__(8, 7)


def test_constant_tables_are_cached_and_read_only():
    tables = {
        "grid_bump": (grid_bump, (6, P)),
        "degree_grid": (degree_grid, (5, P)),
        "inverse_table": (_inverse_table, (9, 97)),
    }
    for name, (make, args) in tables.items():
        table = make(*args)
        assert make(*args) is table, name
        with pytest.raises(ValueError):
            table[1] = 3
    assert np.array_equal(degree_grid(5, P),
                          impulse_block(np.arange(1, 10), 5, P))
    inv = _inverse_table(9, 97)
    assert inv[0] == 0 and all(k * inv[k] % 97 == 1 for k in range(1, 9))


def test_shape_config_bijection():
    # the shaping criterion: every vertex hits exactly one grid cell
    for (n, t, s) in ((12, 3, 4), (10, 4, 3), (7, 7, 1), (7, 1, 7)):
        sc = ShapeConfig(n, t, s)
        seen = set()
        for v in range(1, n + 1):
            x, y = sc.shape(v)
            assert 1 <= x <= t and 1 <= y <= s
            assert sc.unshape(x, y) == v
            seen.add((x, y))
        assert len(seen) == n


def test_shape_config_rejects_undersized_grid():
    with pytest.raises(ValueError):
        ShapeConfig(10, 3, 3)


def test_resolve_shape_defaults():
    t, s = resolve_shape(16)
    assert (t, s) == (4, 4)
    assert resolve_shape(10) == (4, 3)
    assert resolve_shape(12, t=3) == (3, 4)
    assert resolve_shape(12, s=2) == (6, 2)
    assert resolve_shape(12, t=2, s=6) == (2, 6)


def test_point_sketch_matches_direct_lde():
    # f~ at a point (r, r') under pointwise updates: LineArray's line at r,
    # contracted with the impulses at r'
    rng = random.Random(9)
    dims = (3, 4)
    pt = (rng.randrange(P), rng.randrange(P))
    line = LineArray(ShapeConfig(dims[0] * dims[1], *dims), pt[0], P)
    vals = np.zeros(dims, dtype=np.int64)
    for _ in range(25):
        x = rng.randrange(1, dims[0] + 1)
        y = rng.randrange(1, dims[1] + 1)
        d = rng.randrange(1, 5)
        line.add((x - 1) * dims[1] + y, d)
        vals[x - 1, y - 1] = (vals[x - 1, y - 1] + d) % P
    value = int(line.arr @ impulse_table(pt[1], dims[1], P)) % P
    coeffs = coeffs_from_values_nd(vals, P)
    assert value == nd_eval(coeffs, pt, P)


_ENTRIES = (0, 1, -1, P - 1, P, P + 1, 2 * P + 3, -P, -5 * P - 2)


@settings(max_examples=150, deadline=None)
@given(g=st.integers(1, 40), extra=st.one_of(st.none(), st.integers(0, 45)),
       support=st.sampled_from(["empty", "sparse", "dense"]),
       trailing=st.sampled_from([(), (1,), (3,), (2, 3)]),
       seed=st.integers(0, 2 ** 32))
def test_extend_rows_matches_impulse_block(g, extra, support, trailing, seed):
    rng = random.Random(seed)
    vals = np.zeros((g,) + trailing, dtype=np.int64)
    rows = {"empty": [], "dense": range(g),
            "sparse": rng.sample(range(g), min(g, rng.randint(1, 3)))}
    for u in rows[support]:
        for idx in np.ndindex(*trailing):
            vals[(u,) + idx] = rng.choice(_ENTRIES + (rng.randrange(P),))
        vals[(u,) + (0,) * len(trailing)] = P + 1  # nonzero mod P
    count = None if extra is None else g + extra
    nodes = np.arange(1, (2 * g - 1 if count is None else count) + 1)
    want = object_mulmod(impulse_block(nodes, g, P),
                         (vals % P).reshape(g, -1), P)
    got = extend_rows(vals, P, count=count)
    assert got.dtype == np.int64
    assert got.shape == (len(nodes),) + trailing
    assert np.array_equal(got.reshape(len(nodes), -1), want.astype(np.int64))


def test_extend_rows_gathers_in_row_blocks():
    # a dense gather inv(x - u) here is 2999 x 3000 int64, 72 MB; built in
    # row blocks, the peak follows the output. The values are those of
    # u^2 + 3, so every extended row is x^2 + 3.
    g, p = 3000, P_TOP
    u = np.arange(1, g + 1, dtype=np.int64)
    vals = np.stack([u * u + 3, 7 * u], axis=1)
    tracemalloc.start()
    try:
        got = extend_rows(vals, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20
    x = np.arange(1, 2 * g, dtype=np.int64)
    assert np.array_equal(got, np.stack([(x * x + 3) % p, 7 * x % p], axis=1))


def test_extend_rows_keeps_its_input():
    vals = np.array([[3, -1], [0, 0], [P + 2, 5]], dtype=np.int64)
    before = vals.copy()
    extend_rows(vals, P)
    assert np.array_equal(vals, before)


def test_mat_mulmod():
    rng = random.Random(10)
    A = np.array([[rng.randrange(P) for _ in range(4)] for _ in range(3)],
                 dtype=np.int64)
    B = np.array([[rng.randrange(P) for _ in range(2)] for _ in range(4)],
                 dtype=np.int64)
    C = mat_mulmod(A, B, P)
    ref = (A.astype(object) @ B.astype(object)) % P
    assert np.array_equal(C, ref.astype(np.int64))


@pytest.mark.parametrize("p", [P, P_TOP])
def test_mat_mulmod_exact_at_chunk_boundary(p):
    # row and column 0 are all p-1; the rest are odd residues near p, whose
    # products carry low bits that an inexact float64 sum would drop
    rng = np.random.default_rng(p)
    full = (1 << 53) // ((p - 1) ** 2)
    for inner in (full - 1, full, full + 1, 2 * full + 3):
        a = rng.integers(p - 5000, p, size=(3, inner)) | 1
        b = rng.integers(p - 5000, p, size=(inner, 3)) | 1
        a[0], b[:, 0] = p - 1, p - 1
        assert np.array_equal(mat_mulmod(a, b, p), object_mulmod(a, b, p))
    # dot_mod against a 1-D operand is one int64 matmul up to 2^13 terms,
    # which at P_TOP is the most products of p-1 an int64 sum holds; one
    # term more takes the chunked path
    for inner in (1, 2, 1 << 13, (1 << 13) + 1):
        a = rng.integers(0, p, size=(2, inner))
        b = rng.integers(0, p, size=inner)
        a[0], b[:] = p - 1, p - 1
        want = [sum(x * y for x, y in zip(row, b.tolist())) % p
                for row in a.tolist()]
        assert dot_mod(a, b, p).tolist() == want
        assert int(dot_mod(a[0], b, p)) == want[0]


def test_mat_mulmod_reduces_only_what_needs_it():
    rng = np.random.default_rng(11)
    p = P_TOP
    resid = rng.integers(0, p, size=(4, 300))
    adj = rng.integers(0, 2, size=(300, 5))
    assert np.array_equal(mat_mulmod(resid, adj, p),
                          object_mulmod(resid, adj, p))
    neg = rng.integers(-3 * p, 0, size=(4, 30))
    assert np.array_equal(mat_mulmod(neg, neg.T, p),
                          object_mulmod(neg, neg.T, p))
    # unreduced, a product of these would pass 2^53 on its own
    top = 7 * p + (rng.integers(p - 5000, p, size=(3, 20)) | 1)
    top[0, 0] = p
    assert np.array_equal(mat_mulmod(top, top.T, p),
                          object_mulmod(top, top.T, p))
    empty = mat_mulmod(np.zeros((3, 0), dtype=np.int64),
                       np.zeros((0, 4), dtype=np.int64), p)
    assert empty.shape == (3, 4) and not empty.any()


def test_modulus_guard_refuses_overflow_primes():
    big = 67108879  # prime above the staged int64-product limit
    with pytest.raises(ValueError):
        impulse_block([5], 4, big)
    with pytest.raises(ValueError, match="too large for vectorized path"):
        extend_rows(np.ones((3, 2), dtype=np.int64), big)
    with pytest.raises(ValueError, match="too large for vectorized path"):
        extend_rows(np.zeros((3, 2), dtype=np.int64), big, count=5)
    with pytest.raises(ValueError):
        nd_eval(np.ones((2, 2), dtype=np.int64), (3, 4), big)
    # scalar path carries no overflow risk and stays usable
    assert impulse_table(2, 3, big)[1] == 1


# --- float64 residues --------------------------------------------------------


# a prime near 2^20 whose fl(1/p) falls short of 1/p by 0.94 of a rounding
# step: p * fl(1/p) rounds below 1, so at x = p and at many other x = kp
# the floor of the quotient is one short of k
P_SHORT = 1045663


@pytest.mark.parametrize("p", [3, 97, P_SHORT, P_TOP])
def test_float_reduction_at_multiples_of_p(p):
    # x = kp - 1, kp and kp + 1 up to the largest k below 2^51; where the
    # floor falls one short at x = kp, the remainder first comes out as p
    top = ((1 << 51) - 2) // p
    ks = {1, 2, p - 1, p, p + 1, top // 2, top - 1, top}
    ks |= set(random.Random(p).sample(range(1, top + 1), 400))
    xs = [0, (p - 1) ** 2 + (p - 1)]
    xs += [k * p + d for k in sorted(ks) for d in (-1, 0, 1)]
    arr = np.array(xs, dtype=np.float64)
    assert arr.tolist() == xs  # each is exact in float64
    out = FloatResidues(p, arr.size).reduce(arr)
    assert out is arr
    assert arr.tolist() == [x % p for x in xs]


@pytest.mark.parametrize("p,block", [(P, 32), (16777259, 31), (P_TOP, 8)])
def test_staged_product_stages_whole_exact_chunks(p, block):
    # a block is one exact float64 product: 32 rows, or fewer where
    # (p - 1)^2 allows fewer; just above 2^24 that is 31, not 31 + 1
    staged = StagedProduct(3, 2, p, 32)
    assert staged.block == block == min(32, exact_chunk((p - 1) ** 2))
    rng = np.random.default_rng(p)
    left = rng.integers(0, p, size=(3, 70, 2))
    right = rng.integers(0, p, size=(3, 70, 2))
    for lo in range(0, 70, block):
        k = min(block, 70 - lo)
        staged.left[:, :k] = left[:, lo:lo + k] * (p - 1)  # below 2^51
        staged.right[:, :k] = right[:, lo:lo + k]
        staged.add(k)
    want = np.einsum("zki,zkj->zij", (left * (p - 1) % p).astype(object),
                     right.astype(object)) % p
    assert staged.total().tolist() == want.tolist()
