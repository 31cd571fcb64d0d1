"""Low-degree extensions over F_p and the field kernels behind them.

An array f over a grid [s_1] x ... x [s_k] (coordinates are 1-based) has a
unique extension polynomial with deg_{X_i} <= s_i - 1 agreeing with f on the
grid. The building block is the unit impulse

    delta_u(X) = prod_{x' in [s], x' != u} (u - x')^{-1} (X - x'),

which is 1 at u and 0 elsewhere on the grid, so

    f~(X_1..X_k) = sum_grid f(u) * prod_i delta_{u_i}(X_i).

A verifier needs f~ at one random point, from impulse tables at that
point (impulse_array: one table per point, shared by the sketches and
the claims at it). Provers need it on whole node ranges instead: a help
polynomial is a product of extensions, so it is known from its values on
1..2g-1. extend_rows gets those from the values on [g] in closed form. Off the
grid, x > g, every impulse shares the factor P(x) = prod_{x'}(x - x'):

    delta_u(x) = P(x) * inv(x - u) * inv(den_u),

so the extension at x is P(x) times a sum over the rows u where f is not
zero. The impulses' own den_u table and an O(g) table of inverses give
every constant, and the sums are one mat_mulmod, so the cost follows the
support of the input rather than a dense (2g-1) x g impulse block.

Help polynomials travel as their values on the nodes 1..m of each axis
(`stream`), so neither a prover nor a verifier interpolates: a verifier
contracts the values with one impulse table per axis at its random point
and sums the values on the grid. The interpolation below, from values on
1..m to monomial coefficients, and the coefficient form's serial order
and readers (coeffs_to_serial, coeffs_from_serial, nd_eval, nd_grid_sum)
are on no prove or verify path: they give the v=1 transcript layout, in
which help blocks were monomial coefficients. With w_u = f(u) * inv(den_u)
and M(X) = prod_{x<=m} (X - x) = sum_j a_j X^j, the extension is
sum_u w_u * M(X) / (X - u), so

    [X^i] f~ = sum_k a_{i+k+1} * S_k,   where S_k = sum_u w_u * u^k.

S is power_moments, a transposed-Vandermonde product, and the
coefficients are a Hankel product against it: two mat_mulmod calls per
axis, with power tables built by doubling instead of an m-step loop.

mat_mulmod is the modular matmul of int64 operands: float64 BLAS over
chunks of the inner axis sized from the operands' largest entries, so
that each dot product is exact; operands already in [0, p) are not
reduced again, and leading batch axes run as in np.matmul.

Kernels that keep their residues in float64 between products reduce
them in place with FloatResidues:

    r = x - floor(x * fl(1/p)) * p,  then r -= p where r >= p,

which is exact for integers 0 <= x < 2^51. fl(1/p) and the product
each round once, by a relative 2^-53 at most, so the quotient is
within (x/p)(2^-52 + 2^-106) < 1/(2p) of x/p. Write x/p = k + j/p
with 0 <= j < p. For j >= 1, x/p is at least 1/p from both k and
k + 1, so the floor is k. For j = 0, x = k p, the floor is k or one
too low, and then r = p, which the correction maps to 0. floor(.) * p
is an integer no larger than x, so it and the difference are exact.
Below p < 2^25 a product of two residues plus a residue,
(p-1)^2 + (p-1), is under 2^51. StagedProduct holds rows that a kernel
stages this way and multiplies each block of them in one exact float64
product: a block is never longer than an exact chunk.

This module is the field arithmetic of every vectorised kernel, and
check_vectorized_modulus is the one rule for which moduli they take.

Vertex shaping packs [n] into [t] x [s] with t*s >= n, row-major:
x = ceil(v/s), y = ((v-1) mod s) + 1.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt, prod

import numpy as np

from .field import fe_inv

# The vectorized paths hold residues in int64. Below this limit a product
# of two residues is under 2^50, so int64 has room for an unreduced sum of
# _INT64_TERMS = 2^13 of them (dot_mod), and float64 holds it exactly, so
# exact_chunk((p - 1)^2) >= 8 and mat_mulmod stays exact.
_NUMPY_P_LIMIT = 1 << 25
_INT64_TERMS = 1 << 13
_CHUNK_SUMS = 1 << 9


def check_vectorized_modulus(p: int):
    """ValueError unless the kernels below stay exact mod p; every scheme's
    `field_config` calls it, so a modulus is refused before proving."""
    if p >= _NUMPY_P_LIMIT:
        raise ValueError(f"modulus {p} too large for vectorized path (< 2^25)")


@lru_cache(maxsize=None)
def _impulse_inv_denominators(size: int, p: int) -> tuple:
    """inv of den_u = prod_{x' != u} (u - x') for each u in [size].

    den_u = (-1)^(size-u) * (u-1)! * (size-u)!, zero once size > p. One
    inversion, of (size-1)!, gives inv(k!) for every k < size, from
    inv((k-1)!) = inv(k!) * k.
    """
    if size > p:
        raise ValueError(f"{size} nodes are not distinct mod {p}")
    fact = 1
    for k in range(2, size):
        fact = fact * k % p
    inv_fact = [1] * max(size, 1)  # inv(k!) for k < size
    inv_fact[-1] = fe_inv(fact, p)
    for k in range(size - 1, 1, -1):
        inv_fact[k - 1] = inv_fact[k] * k % p
    out = []
    for u in range(1, size + 1):
        inv = inv_fact[u - 1] * inv_fact[size - u] % p
        out.append(p - inv if (size - u) % 2 == 1 else inv)
    return tuple(out)


@lru_cache(maxsize=None)
def _inv_den_array(size: int, p: int) -> np.ndarray:
    """_impulse_inv_denominators as a read-only int64 array."""
    out = np.array(_impulse_inv_denominators(size, p), dtype=np.int64)
    out.setflags(write=False)  # cached: every caller shares this array
    return out


def impulse_table(x: int, size: int, p: int) -> list:
    """[delta_u(x) for u in 1..size] in O(size), in two loops: the prefix
    products prod_{u' < u} (x - u'), then one backward loop that carries
    the suffix product prod_{u' > u} (x - u') and writes each entry."""
    prefix = [1] * size
    acc = 1
    for u in range(1, size):
        acc = acc * (x - u) % p
        prefix[u] = acc
    inv_den = _impulse_inv_denominators(size, p)
    out = [0] * size
    suffix = 1
    for u in range(size, 0, -1):
        out[u - 1] = prefix[u - 1] * suffix % p * inv_den[u - 1] % p
        suffix = suffix * (x - u) % p
    return out


# a verification holds tables at a few points, sssp-wturnstile one per vertex
@lru_cache(maxsize=256)
def impulse_array(x: int, size: int, p: int) -> np.ndarray:
    """impulse_table as a read-only int64 array, kept for the last 256
    (x, size, p) used: the sketches and the claims at one point share it."""
    out = np.fromiter(impulse_table(x, size, p), np.int64, size)
    out.setflags(write=False)  # cached: every caller shares this array
    return out


def impulse_block(xs, size: int, p: int) -> np.ndarray:
    """Matrix D[j, u-1] = delta_u(xs[j]) for a whole batch of points.

    Sequential over the domain, vectorized over the points; used by provers
    that evaluate extensions on full degree grids.
    """
    check_vectorized_modulus(p)
    xs = np.asarray(xs, dtype=np.int64) % p
    m = len(xs)
    prefix = np.ones((size + 1, m), dtype=np.int64)
    for u in range(1, size + 1):
        prefix[u] = prefix[u - 1] * ((xs - u) % p) % p
    suffix = np.ones((size + 2, m), dtype=np.int64)
    for u in range(size, 0, -1):
        suffix[u] = suffix[u + 1] * ((xs - u) % p) % p
    out = prefix[:-1].T * suffix[2:].T % p * _inv_den_array(size, p) % p
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

    def shape(self, v) -> tuple:
        """(x, y) of vertex v, or the columns (x, y) of an int array v."""
        x, y = self.grid_index(v)
        return x + 1, y + 1

    def grid_index(self, v) -> tuple:
        """0-based (x, y) of vertex v or of each entry of an int column;
        ValueError for any vertex outside [1, n]."""
        c = np.asarray(v) - 1
        if c.size and c.view(np.uint64).max() >= self.n:  # c < 0 wraps
            bad = c[(c < 0) | (c >= self.n)].flat[0] + 1
            raise ValueError(f"vertex {bad} outside [1, {self.n}]")
        return np.divmod(c, self.s)

    def unshape(self, x: int, y: int) -> int:
        v = (x - 1) * self.s + y
        if not 1 <= v <= self.n:
            raise ValueError(f"cell ({x},{y}) maps outside [1, {self.n}]")
        return v

    def __repr__(self):
        return f"ShapeConfig(n={self.n}, t={self.t}, s={self.s})"


def resolve_shape(n: int, t=None, s=None) -> tuple:
    """Fill in missing grid dimensions; balanced split by default."""
    if any(d is not None and d < 1 for d in (t, s)):
        raise ValueError("shape dimensions must be positive")
    if t is None and s is None:
        t = int(np.ceil(np.sqrt(n)))
    if t is None:
        t = -(-n // s)
    if s is None:
        s = -(-n // t)
    ShapeConfig(n, t, s)  # validates
    return t, s


@lru_cache(maxsize=None)
def grid_bump(g: int, p: int) -> np.ndarray:
    """Values on the nodes 1..2g-1 of the degree g-1 poly with grid sum 1
    over [g].

    It is the impulse at 1, so adding c times this to a help polynomial
    shifts the claimed grid total by exactly c.
    """
    vals = np.zeros(g, dtype=np.int64)
    vals[0] = 1
    out = extend_rows(vals, p)
    out.setflags(write=False)  # cached: every caller shares this array
    return out


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
    check_vectorized_modulus(p)
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


# --- powers of the nodes --------------------------------------------------


def power_table(x, count: int, p: int) -> np.ndarray:
    """T[i, r] = x[i]^r mod p for r < count, doubling the filled columns."""
    check_vectorized_modulus(p)
    step = np.asarray(x, dtype=np.int64) % p  # step = x^have
    out = np.ones((len(step), count), dtype=np.int64)
    have = 1
    while have < count:
        take = min(have, count - have)
        out[:, have:have + take] = out[:, :take] * step[:, None] % p
        have += take
        step = step * step % p
    return out


def _blocks(count: int, cols: int) -> tuple:
    """(b, q): q blocks of b powers cover count, b about sqrt(count * cols)
    so that no table of the powers of m nodes is m x count."""
    b = min(count, isqrt(count * cols - 1) + 1)
    return b, -(-count // b)


def _node_powers(m: int, count: int, cols: int, p: int) -> tuple:
    """(b, q, low, high) for the nodes u = 1..m in the blocks of _blocks:
    low[u-1, r] = u^r for r < b and high[u-1, j] = u^(jb) for j < q."""
    b, q = _blocks(count, cols)
    nodes = np.arange(1, m + 1, dtype=np.int64) % p
    low = power_table(nodes, b, p)
    return b, q, low, power_table(low[:, -1] * nodes % p, q, p)


def _unstack(blocks: np.ndarray, b: int, m: int) -> np.ndarray:
    """Row q*b + r of the result from column block q, row r of a product."""
    q = -(-m // b)
    return blocks.reshape(b, q, -1).transpose(1, 0, 2).reshape(q * b, -1)[:m]


def power_moments(weights, count: int, p: int) -> np.ndarray:
    """S_k = sum_u w_u u^k mod p for k < count over the nodes u = 1..m,
    along axis 0 of the (m, ...) weights: one mat_mulmod."""
    w, _ = _residues(weights, p)
    m, cols = len(w), prod(w.shape[1:])
    if not (m and count and cols):
        return np.zeros((count,) + w.shape[1:], dtype=np.int64)
    b, q, low, high = _node_powers(m, count, cols, p)
    stacked = w.reshape(m, 1, cols) * high[:, :, None] % p
    S = mat_mulmod(low.T, stacked.reshape(m, q * cols), p)
    return _unstack(S, b, count).reshape((count,) + w.shape[1:])


@lru_cache(maxsize=None)
def power_sums(grid: int, count: int, p: int) -> np.ndarray:
    """S_i = sum_{x=1..grid} x^i mod p for i < count."""
    out = power_moments(np.ones(grid, dtype=np.int64), count, p)
    out.setflags(write=False)  # cached: every caller shares this array
    return out


def nd_grid_sum(tensor: np.ndarray, grid_sizes, p: int) -> int:
    """sum of the polynomial over [g_1] x ... x [g_k] via power sums; an
    axis given as weights w sums sum_u w[u-1] f(.., u, ..) instead, via
    power_moments."""
    check_vectorized_modulus(p)
    acc = np.asarray(tensor, dtype=np.int64) % p
    for g in reversed(list(grid_sizes)):
        S = (power_sums(g, acc.shape[-1], p) if np.ndim(g) == 0
             else power_moments(g, acc.shape[-1], p))
        acc = (acc * S % p).sum(axis=-1) % p
    return int(acc)


# --- interpolation from grid values ----------------------------------------


@lru_cache(maxsize=None)
def _node_poly(m: int, p: int) -> np.ndarray:
    """a_0..a_m, lowest first, of M(X) = prod_{x=1..m} (X - x) mod p."""
    a = np.zeros(m + 1, dtype=np.int64)
    a[0] = 1
    for x in range(1, m + 1):
        a[1:x + 1] = (a[:x] - x * a[1:x + 1]) % p
        a[0] = -x * a[0] % p
    a.setflags(write=False)  # cached: every caller shares this array
    return a


def _interpolate_rows(values: np.ndarray, p: int) -> np.ndarray:
    """Coefficients along axis 0 of the interpolant of (m, cols) values.

    Two mat_mulmod calls (see the module docstring): the moments S of the
    weights w_u = f(u) * inv(den_u), then the Hankel rows a_{r+1+k}
    against q block-shifted copies of S, in the blocks of power_moments.
    """
    check_vectorized_modulus(p)
    flat, _ = _residues(values, p)
    m, cols = flat.shape
    if m >= p:
        raise ValueError(f"{m} nodes are not distinct mod {p}")
    if not flat.size:
        return flat.copy()
    S = power_moments(flat * _inv_den_array(m, p)[:, None] % p, m, p)
    # c_{jb+r} = sum_k a_{r+1+k} S_{k-jb}: one Hankel block against
    # q shifted copies of S, zero above the top
    b, q = _blocks(m, cols)
    a = np.concatenate((_node_poly(m, p), np.zeros(b, dtype=np.int64)))
    hankel = a[np.arange(1, b + 1)[:, None] + np.arange(m)]
    shifted = np.concatenate((np.zeros(((q - 1) * b, cols), dtype=np.int64),
                              S))
    gather = np.arange(m)[:, None] + b * np.arange(q - 1, -1, -1)
    return _unstack(mat_mulmod(hankel, shifted[gather].reshape(m, q * cols),
                               p), b, m)


def coeffs_from_values_1d(values, p: int) -> np.ndarray:
    """Monomial coefficients of the poly taking these values on 1..M."""
    vals = np.asarray(values, dtype=np.int64)
    return _interpolate_rows(vals.reshape(-1, 1), p).ravel()


def coeffs_from_values_nd(tensor: np.ndarray, p: int) -> np.ndarray:
    """Interpolate along every axis; grid along axis i is 1..shape[i]."""
    check_vectorized_modulus(p)
    out = np.asarray(tensor, dtype=np.int64) % p
    for axis in range(out.ndim):
        moved = out.swapaxes(0, axis)
        flat = _interpolate_rows(moved.reshape(moved.shape[0], -1), p)
        out = flat.reshape(moved.shape).swapaxes(0, axis)
    return out


def _residues(a, p: int):
    """a as int64 residues in [0, p) and its largest entry.

    An operand that is already reduced is returned as it is: a min/max
    scan costs far less than a `%` over every entry.
    """
    a = np.asarray(a, dtype=np.int64)
    if a.size == 0:
        return a, 0
    lo, hi = int(a.min()), int(a.max())
    if lo < 0 or hi >= p:
        a = a % p
        hi = int(a.max())
    return a, hi


def exact_chunk(bound: int) -> int:
    """Longest float64 dot product that stays exact with terms <= bound.

    Integers up to 2^53 are exact in float64, so chunk * bound <= 2^53
    keeps every partial sum exact whatever order BLAS adds in.
    """
    return max(1, (1 << 53) // bound) if bound else 1 << 53


def mat_mulmod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """(a @ b) % p without overflow, with np.matmul's leading batch axes.

    Runs float64 BLAS over chunks of the inner axis short enough that
    every dot product is exact, sized from the operands' largest entries:
    a 0/1 adjacency against residues is a single call. A chunk's product
    is then an integer below 2^53 that float64 holds as it is, and int64
    holds the sum of _CHUNK_SUMS of them on top of a residue.
    """
    check_vectorized_modulus(p)
    a, amax = _residues(a, p)
    b, bmax = _residues(b, p)
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    chunk = exact_chunk(amax * bmax)
    out = (a[..., :chunk] @ b[..., :chunk, :]).astype(np.int64)
    for k, lo in enumerate(range(chunk, a.shape[-1], chunk), 1):
        if k % _CHUNK_SUMS == 0:
            reduce_mod(out, p)
        out += (a[..., lo:lo + chunk] @ b[..., lo:lo + chunk, :]).astype(
            np.int64)
    return reduce_mod(out, p)


def reduce_mod(a: np.ndarray, p: int) -> np.ndarray:
    """Reduce an int64 array mod p in place and return it: `a %= p`, but
    numpy floor-divides by a scalar about twice as fast as it takes a
    remainder."""
    a -= a // p * p
    return a


class FloatResidues:
    """In-place reduction mod p of float64 arrays of integers, with its
    own scratch of `size` entries, so that a kernel's inner loop allocates
    nothing (see the module docstring for why it is exact). A kernel that
    needs a buffer of its own between reductions may lend it as the
    scratch: a contiguous float64 array of `size` entries that `reduce`
    overwrites."""

    def __init__(self, p: int, size: int, scratch=None):
        check_vectorized_modulus(p)
        self.p = float(p)
        self._inv = 1.0 / p
        self._q = np.empty(size) if scratch is None else scratch.reshape(size)
        self._ge = np.empty(size, dtype=bool)

    def reduce(self, x: np.ndarray) -> np.ndarray:
        """x mod p in place, for integers 0 <= x < 2^51; returns x."""
        q = self._q[:x.size].reshape(x.shape)
        np.multiply(x, self._inv, out=q)
        np.floor(q, out=q)
        q *= self.p
        x -= q
        return self.fold(x)

    def fold(self, x: np.ndarray) -> np.ndarray:
        """x mod p in place, for integers 0 <= x < 2p; returns x."""
        ge = self._ge[:x.size].reshape(x.shape)
        np.greater_equal(x, self.p, out=ge)
        np.subtract(x, self.p, out=x, where=ge)
        return x


class StagedProduct:
    """S[z] = sum_k left[z, k]^T right[z, k] mod p, shape (batch, width,
    width), over rows that a kernel writes in place into `left` and
    `right`, each (batch, block, width) in float64.

    A staged row holds integers below 2^51, such as products of two
    residues. `add(k)` reduces the first k staged rows of each side once,
    multiplies them in one np.matmul into a preallocated buffer and adds
    the product into int64 sums. A block is at most `most` rows and never
    longer than one exact chunk of residue products, so each product is
    exact, and the int64 sums take _CHUNK_SUMS of them between
    reductions.
    """

    def __init__(self, batch: int, width: int, p: int, most: int):
        self.block = min(most, exact_chunk((p - 1) ** 2))
        self.left = np.zeros((batch, self.block, width))
        self.right = np.zeros_like(self.left)
        self.mod = FloatResidues(p, self.left.size)
        self._prod = np.empty((batch, width, width))
        self._sums = np.zeros((batch, width, width), dtype=np.int64)
        self._adds = 0
        self._p = p

    def add(self, k: int):
        """Add the products of the first k staged rows into the sums."""
        left = self.mod.reduce(self.left[:, :k])
        right = self.mod.reduce(self.right[:, :k])
        np.matmul(left.transpose(0, 2, 1), right, out=self._prod)
        np.add(self._sums, self._prod, out=self._sums, casting="unsafe",
               dtype=np.int64)
        self._adds += 1
        if self._adds % _CHUNK_SUMS == 0:
            reduce_mod(self._sums, self._p)

    def total(self) -> np.ndarray:
        """The sums as int64 residues."""
        return reduce_mod(self._sums, self._p)


def int64_sums_exact(terms: int) -> bool:
    """Whether int64 holds an unreduced sum of `terms` products of two
    residues, as dot_mod sums at most _INT64_TERMS of them."""
    return terms <= _INT64_TERMS


def dot_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """sum(a * b, axis=-1) % p for residues, in int64 sums of at most
    _INT64_TERMS products; a and b broadcast, last axes of equal length.
    A 1-D b that short is one int64 matmul (a contraction against one
    impulse table or weight vector); any other shape is chunked einsums."""
    check_vectorized_modulus(p)
    if b.ndim == 1 and b.size <= _INT64_TERMS:
        return np.matmul(a, b) % p
    out = 0
    for lo in range(0, max(a.shape[-1], 1), _INT64_TERMS):
        hi = lo + _INT64_TERMS
        out = (out + np.einsum("...k,...k->...", a[..., lo:hi],
                               b[..., lo:hi])) % p
    return out


@lru_cache(maxsize=None)
def _inverse_table(m: int, p: int) -> np.ndarray:
    """[inv(k) for k in 0..m-1] (inv(0) read as 0) in O(m), for 2 <= m <= p.

    inv(k) = -(p // k) * inv(p mod k), since p = (p // k) k + p mod k.
    """
    inv = [0, 1]
    for k in range(2, m):
        inv.append(-(p // k) * inv[p % k] % p)
    out = np.array(inv, dtype=np.int64)
    out.setflags(write=False)  # cached: every caller shares this array
    return out


@lru_cache(maxsize=None)
def _node_product(g: int, count: int, p: int) -> np.ndarray:
    """P(x) = prod_{x' in [g]} (x - x') for x = g+1..count, as a read-only
    column: P(g+1) = g!, and P(x+1) = P(x) * x * inv(x-g)."""
    inv = _inverse_table(count, p)
    P = [1]
    for k in range(2, g + 1):
        P[0] = P[0] * k % p
    for x in range(g + 1, count):
        P.append(P[-1] * x % p * int(inv[x - g]) % p)
    out = np.array(P, dtype=np.int64)[:, None]
    out.setflags(write=False)  # cached: every caller shares this array
    return out


# blocked kernels (extend_rows' Toeplitz gather inv(x - u), tri-adj's
# row products) hold at most this many bytes of a block's rows at once, so
# their peak follows their output
_GATHER_BYTES = 1 << 22


def block_rows(row_bytes: int) -> int:
    """Rows of `row_bytes` each in one block of a blocked kernel: as many
    as _GATHER_BYTES holds, and at least one."""
    return max(1, _GATHER_BYTES // row_bytes)


def extend_rows(values, p: int, count=None) -> np.ndarray:
    """Extend values on the nodes [g] along axis 0 to the nodes 1..count.

    count >= g defaults to 2g-1, the nodes a product of two extensions
    needs. Rows 1..g are the values themselves. Row x > g is
    P(x) * sum_u inv(x-u) * inv(den_u) * f(u) over the rows u where f is
    not zero: a mat_mulmod of the Toeplitz gather inv(x-u) against them,
    one per block of _GATHER_BYTES of the gather.
    """
    check_vectorized_modulus(p)
    vals = np.asarray(values, dtype=np.int64)
    g = vals.shape[0]
    count = 2 * g - 1 if count is None else count
    if count >= p:
        raise ValueError(f"{count} nodes are not distinct mod {p}")
    flat, _ = _residues(vals.reshape(g, -1), p)
    out = np.zeros((count, flat.shape[1]), dtype=np.int64)
    out[:g] = flat
    support = np.flatnonzero(flat.any(axis=1))
    if count > g and support.size:
        inv = _inverse_table(count, p)
        P = _node_product(g, count, p)
        weights = flat[support] * _inv_den_array(g, p)[support, None] % p
        step = block_rows(8 * support.size)
        for lo in range(g, count, step):
            xs = np.arange(lo + 1, min(count, lo + step) + 1)
            tail = mat_mulmod(inv[xs[:, None] - (support + 1)], weights, p)
            out[lo:lo + xs.size] = P[lo - g:lo - g + xs.size] * tail % p
    return out.reshape((count,) + vals.shape[1:])
