"""Low-degree extensions over F_p and the sketches built from them.

An array f over a grid [s_1] x ... x [s_k] (coordinates are 1-based) has a
unique extension polynomial with deg_{X_i} <= s_i - 1 agreeing with f on the
grid. The building block is the unit impulse

    delta_u(X) = prod_{x' in [s], x' != u} (u - x')^{-1} (X - x'),

which is 1 at u and 0 elsewhere on the grid, so

    f~(X_1..X_k) = sum_grid f(u) * prod_i delta_{u_i}(X_i).

A PointSketch maintains f~(r) for a fixed point r under pointwise updates
f(u) += delta at O(k) field operations per update: the increment changes the
extension by delta * prod_i delta_{u_i}(r_i). Impulse tables delta_u(r_i) for
all u in the domain are precomputed once per (point, domain) and shared
read-only; they are derived constants, not live verifier state.

Vertex shaping packs [n] into [t] x [s] with t*s >= n, row-major:
x = ceil(v/s), y = ((v-1) mod s) + 1.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .field import fe_inv

# numpy fast paths assume p^2 * 2^12 fits int64 so short dot products can
# defer reduction; every auto-chosen modulus at desk scale is far below this.
_NUMPY_P_LIMIT = 1 << 25


def _check_numpy_modulus(p: int):
    if p >= _NUMPY_P_LIMIT:
        raise ValueError(f"modulus {p} too large for vectorized path")


@lru_cache(maxsize=None)
def _impulse_inv_denominators(size: int, p: int) -> tuple:
    """inv of den_u = prod_{x' != u} (u - x') for each u in [size].

    den_u = (-1)^(size-u) * (u-1)! * (size-u)!.
    """
    fact = [1] * (size + 1)
    for i in range(1, size + 1):
        fact[i] = fact[i - 1] * i % p
    out = []
    for u in range(1, size + 1):
        den = fact[u - 1] * fact[size - u] % p
        if (size - u) % 2 == 1:
            den = p - den
        out.append(fe_inv(den, p))
    return tuple(out)


def unit_impulse(u: int, x: int, size: int, p: int) -> int:
    """delta_u(x) over the domain [size]."""
    if not 1 <= u <= size:
        raise ValueError(f"impulse index {u} outside domain [{size}]")
    num = 1
    for xp in range(1, size + 1):
        if xp != u:
            num = num * (x - xp) % p
    return num * _impulse_inv_denominators(size, p)[u - 1] % p


def impulse_table(x: int, size: int, p: int) -> list:
    """[delta_u(x) for u in 1..size] in O(size) via prefix/suffix products."""
    prefix = [1] * (size + 1)
    for u in range(1, size + 1):
        prefix[u] = prefix[u - 1] * (x - u) % p
    suffix = [1] * (size + 2)
    for u in range(size, 0, -1):
        suffix[u] = suffix[u + 1] * (x - u) % p
    inv_den = _impulse_inv_denominators(size, p)
    return [prefix[u - 1] * suffix[u + 1] % p * inv_den[u - 1] % p
            for u in range(1, size + 1)]


def impulse_block(xs, size: int, p: int) -> np.ndarray:
    """Matrix D[j, u-1] = delta_u(xs[j]) for a whole batch of points.

    Sequential over the domain, vectorized over the points; used by provers
    that evaluate extensions on full degree grids.
    """
    _check_numpy_modulus(p)
    xs = np.asarray(xs, dtype=np.int64) % p
    m = len(xs)
    prefix = np.ones((size + 1, m), dtype=np.int64)
    for u in range(1, size + 1):
        prefix[u] = prefix[u - 1] * ((xs - u) % p) % p
    suffix = np.ones((size + 2, m), dtype=np.int64)
    for u in range(size, 0, -1):
        suffix[u] = suffix[u + 1] * ((xs - u) % p) % p
    inv_den = np.array(_impulse_inv_denominators(size, p), dtype=np.int64)
    out = prefix[:-1].T * suffix[2:].T % p * inv_den[None, :] % p
    return out


class ShapeConfig:
    """Row-major packing of vertex ids [n] into the grid [t] x [s]."""

    __slots__ = ("n", "t", "s")

    def __init__(self, n: int, t: int, s: int):
        if t * s < n:
            raise ValueError(f"shape {t}x{s} cannot hold {n} vertices")
        if t < 1 or s < 1:
            raise ValueError("shape dimensions must be positive")
        self.n = n
        self.t = t
        self.s = s

    def shape(self, v: int) -> tuple:
        if not 1 <= v <= self.n:
            raise ValueError(f"vertex {v} outside [1, {self.n}]")
        return ((v - 1) // self.s + 1, (v - 1) % self.s + 1)

    def unshape(self, x: int, y: int) -> int:
        v = (x - 1) * self.s + y
        if not 1 <= v <= self.n:
            raise ValueError(f"cell ({x},{y}) maps outside [1, {self.n}]")
        return v

    def __repr__(self):
        return f"ShapeConfig(n={self.n}, t={self.t}, s={self.s})"


def resolve_shape(n: int, t=None, s=None) -> tuple:
    """Fill in missing grid dimensions; balanced split by default."""
    if t is None and s is None:
        t = int(np.ceil(np.sqrt(n)))
    if t is None:
        t = -(-n // s)
    if s is None:
        s = -(-n // t)
    ShapeConfig(n, t, s)  # validates
    return t, s


def grid_bump(g: int, p: int) -> np.ndarray:
    """Coefficients of the degree g-1 poly with grid sum 1 over [g].

    It is the impulse at 1, so adding c times this to a help polynomial
    shifts the claimed grid total by exactly c.
    """
    vals = np.zeros(g, dtype=np.int64)
    vals[0] = 1
    return coeffs_from_values_1d(vals, p)


class PointSketch:
    """f~(r) for a fixed point r, maintained under pointwise grid updates.

    dims are the grid sizes, point the (same-length) evaluation point.
    Each update costs k multiplications using the precomputed impulse
    tables, one per dimension.
    """

    __slots__ = ("dims", "point", "p", "tables", "value")

    def __init__(self, dims, point, p: int):
        if len(dims) != len(point):
            raise ValueError("point arity must match grid arity")
        self.dims = tuple(dims)
        self.point = tuple(x % p for x in point)
        self.p = p
        self.tables = [impulse_table(x, size, p)
                       for x, size in zip(self.point, self.dims)]
        self.value = 0

    def update(self, coords, delta: int):
        w = delta % self.p
        for table, c in zip(self.tables, coords):
            w = w * table[c - 1] % self.p
        self.value = (self.value + w) % self.p


def dense_eval(array, point, p: int) -> int:
    """Evaluate the extension of a dense grid array at an arbitrary point.

    array is nested sequences (or an ndarray) over [s_1] x ... x [s_k].
    Linear in the grid size; fine at desk scale.
    """
    arr = np.asarray(array, dtype=object)
    tables = [impulse_table(x, size, p) for x, size in zip(point, arr.shape)]
    total = 0
    for idx in np.ndindex(*arr.shape):
        w = int(arr[idx]) % p
        if w == 0:
            continue
        for table, c in zip(tables, idx):
            w = w * table[c] % p
        total = (total + w) % p
    return total


# --- coefficient blocks ---------------------------------------------------
#
# A coefficient block for a polynomial with degree bounds (d_1, ..., d_k) is
# the dense tensor C of shape (d_1+1, ..., d_k+1), C[e] multiplying X^e.
# Serialization order is graded lexicographic, lowest total degree first,
# ties broken lexicographically on the exponent tuple.


@lru_cache(maxsize=None)
def graded_lex_perm(shape: tuple) -> np.ndarray:
    """Permutation taking C.ravel() (C order) to graded-lex serial order."""
    grids = np.indices(shape).reshape(len(shape), -1)
    total = grids.sum(axis=0)
    # np.lexsort treats the last key as primary
    keys = tuple(grids[i] for i in reversed(range(len(shape)))) + (total,)
    return np.lexsort(keys)


@lru_cache(maxsize=None)
def _inverse_perm(shape: tuple) -> np.ndarray:
    perm = graded_lex_perm(shape)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(len(perm))
    return inv


def coeffs_to_serial(tensor: np.ndarray) -> np.ndarray:
    return tensor.reshape(-1)[graded_lex_perm(tensor.shape)]


def coeffs_from_serial(values, shape: tuple) -> np.ndarray:
    flat = np.asarray(values, dtype=np.int64)
    if flat.size != int(np.prod(shape)):
        raise ValueError("serialized length does not match degree bounds")
    return flat[_inverse_perm(shape)].reshape(shape)


def nd_eval(tensor: np.ndarray, point, p: int) -> int:
    """Evaluate a coefficient tensor at a point by iterated Horner.

    One axis runs on Python ints, which beats numpy's per-step overhead
    on a single row.
    """
    _check_numpy_modulus(p)
    acc = np.asarray(tensor, dtype=np.int64) % p
    if acc.ndim == 1:
        x, out = int(point[0]) % p, 0
        for c in reversed(acc.tolist()):
            out = (out * x + c) % p
        return out
    for x in reversed([c % p for c in point]):
        res = np.zeros(acc.shape[:-1], dtype=np.int64)
        for i in range(acc.shape[-1] - 1, -1, -1):
            res = (res * x + acc[..., i]) % p
        acc = res
    return int(acc)


@lru_cache(maxsize=None)
def power_sums(grid: int, count: int, p: int) -> np.ndarray:
    """S_i = sum_{x=1..grid} x^i mod p for i < count."""
    xs = np.arange(1, grid + 1, dtype=np.int64) % p
    powers = np.ones(grid, dtype=np.int64)
    out = np.zeros(count, dtype=np.int64)
    for i in range(count):
        out[i] = powers.sum() % p
        powers = powers * xs % p
    out.setflags(write=False)  # cached: every caller shares this array
    return out


def nd_grid_sum(tensor: np.ndarray, grid_sizes, p: int) -> int:
    """sum of the polynomial over [g_1] x ... x [g_k] via power sums."""
    _check_numpy_modulus(p)
    acc = np.asarray(tensor, dtype=np.int64) % p
    for g in reversed(list(grid_sizes)):
        acc = (acc * power_sums(g, acc.shape[-1], p) % p).sum(axis=-1) % p
    return int(acc)


# --- interpolation from grid values ----------------------------------------


@lru_cache(maxsize=None)
def _inv_factorials(m: int, p: int) -> np.ndarray:
    fact = [1] * m
    for i in range(1, m):
        fact[i] = fact[i - 1] * i % p
    return np.array([fe_inv(f, p) for f in fact], dtype=np.int64)


def coeffs_from_values_1d(values, p: int) -> np.ndarray:
    """Monomial coefficients of the poly taking these values on 1..M.

    Newton forward differences: on unit-spaced nodes the divided difference
    f[x_0..x_k] equals Delta^k f(1) / k!.
    """
    _check_numpy_modulus(p)
    vals = np.asarray(values, dtype=np.int64) % p
    m = len(vals)
    inv_fact = _inv_factorials(m, p)
    coeffs = np.zeros(m, dtype=np.int64)
    basis = np.zeros(m, dtype=np.int64)
    basis[0] = 1
    d = vals.copy()
    for k in range(m):
        ck = int(d[0]) * int(inv_fact[k]) % p
        coeffs = (coeffs + ck * basis) % p
        if k < m - 1:
            node = k + 1
            shifted = np.zeros(m, dtype=np.int64)
            shifted[1:k + 2] = basis[:k + 1]
            basis = (shifted - node * basis) % p
            d = (d[1:] - d[:-1]) % p
    return coeffs


def coeffs_from_values_nd(tensor: np.ndarray, p: int) -> np.ndarray:
    """Interpolate along every axis; grid along axis i is 1..shape[i]."""
    _check_numpy_modulus(p)
    out = np.asarray(tensor, dtype=np.int64) % p
    for axis in range(out.ndim):
        moved = np.moveaxis(out, axis, 0)
        m = moved.shape[0]
        flat = moved.reshape(m, -1)
        inv_fact = _inv_factorials(m, p)
        coeffs = np.zeros_like(flat)
        basis = np.zeros(m, dtype=np.int64)
        basis[0] = 1
        d = flat.copy()
        for k in range(m):
            ck = d[0] * int(inv_fact[k]) % p
            coeffs = (coeffs + basis[:, None] * ck[None, :]) % p
            if k < m - 1:
                node = k + 1
                shifted = np.zeros(m, dtype=np.int64)
                shifted[1:k + 2] = basis[:k + 1]
                basis = (shifted - node * basis) % p
                d = (d[1:] - d[:-1]) % p
        out = np.moveaxis(coeffs.reshape(moved.shape), 0, axis)
    return out


def mat_mulmod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """(a @ b) % p without overflow.

    Uses float64 BLAS when the accumulated dot products provably fit the
    53-bit mantissa, otherwise chunks an int64 matmul.
    """
    _check_numpy_modulus(p)
    a = np.ascontiguousarray(a % p)
    b = np.ascontiguousarray(b % p)
    inner = a.shape[-1]
    max_chunk = max(1, int((1 << 53) // ((p - 1) ** 2)))
    if inner <= max_chunk:
        return np.rint(a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64) % p
    out = None
    for lo in range(0, inner, max_chunk):
        hi = min(inner, lo + max_chunk)
        part = np.rint(a[..., lo:hi].astype(np.float64)
                       @ b[lo:hi].astype(np.float64)).astype(np.int64) % p
        out = part if out is None else (out + part) % p
    return out
