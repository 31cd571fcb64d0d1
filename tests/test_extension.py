"""Low-degree extension machinery: impulses, interpolation, shaping."""

import random

import numpy as np
import pytest

from annostream.extension import (PointSketch, ShapeConfig, coeffs_from_serial,
                                  coeffs_from_values_1d, coeffs_from_values_nd,
                                  coeffs_to_serial, dense_eval, grid_bump,
                                  impulse_block, impulse_table, mat_mulmod,
                                  nd_eval, nd_grid_sum, power_sums,
                                  resolve_shape, unit_impulse)
from annostream.field import poly_eval

P = 1048583


def test_impulse_identity_on_grid():
    # delta_u(x) over the grid [1..g]: 1 at u, 0 elsewhere
    g = 9
    for u in range(1, g + 1):
        for x in range(1, g + 1):
            assert unit_impulse(u, x, g, P) == (1 if x == u else 0)


def test_impulse_table_matches_pointwise():
    g = 7
    rng = random.Random(1)
    for _ in range(20):
        x = rng.randrange(P)
        tab = impulse_table(x, g, P)
        assert len(tab) == g
        for u in range(1, g + 1):
            assert tab[u - 1] == unit_impulse(u, x, g, P)


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


def test_serial_order_round_trip():
    rng = random.Random(8)
    shape = (4, 5)
    tensor = np.array([[rng.randrange(P) for _ in range(shape[1])]
                       for _ in range(shape[0])], dtype=np.int64)
    flat = coeffs_to_serial(tensor)
    back = coeffs_from_serial(flat, shape)
    assert np.array_equal(back, tensor)


def test_grid_bump_shifts_total_by_one():
    g = 6
    bump = grid_bump(g, P)
    vals = [poly_eval(bump.tolist(), x, P) for x in range(1, g + 1)]
    assert vals == [1] + [0] * (g - 1)


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
    rng = random.Random(9)
    dims = (3, 4)
    pt = (rng.randrange(P), rng.randrange(P))
    sk = PointSketch(dims, pt, P)
    vals = np.zeros(dims, dtype=np.int64)
    for _ in range(25):
        x = rng.randrange(1, dims[0] + 1)
        y = rng.randrange(1, dims[1] + 1)
        d = rng.randrange(1, 5)
        sk.update((x, y), d)
        vals[x - 1, y - 1] = (vals[x - 1, y - 1] + d) % P
    coeffs = coeffs_from_values_nd(vals, P)
    assert sk.value == nd_eval(coeffs, pt, P)


def test_mat_mulmod():
    rng = random.Random(10)
    A = np.array([[rng.randrange(P) for _ in range(4)] for _ in range(3)],
                 dtype=np.int64)
    B = np.array([[rng.randrange(P) for _ in range(2)] for _ in range(4)],
                 dtype=np.int64)
    C = mat_mulmod(A, B, P)
    ref = (A.astype(object) @ B.astype(object)) % P
    assert np.array_equal(C, ref.astype(np.int64))


def test_modulus_guard_refuses_overflow_primes():
    big = 67108879  # prime above the staged int64-product limit
    with pytest.raises(ValueError):
        impulse_block([5], 4, big)
    with pytest.raises(ValueError):
        nd_eval(np.ones((2, 2), dtype=np.int64), (3, 4), big)
    # scalar path carries no overflow risk and stays usable
    assert impulse_table(2, 3, big)[1] == 1
