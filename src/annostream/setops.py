"""Multiset fingerprints and line-restricted set comparison checkers.

Fingerprints: a multiset a over keys [N] maps to sum_j a_j gamma^j at a
random gamma; two multisets collide with probability <= N/p. Used for
equality of multisets that the verifier sees in different orders.

Line checks: a set S over universe [N] is laid out on a grid [H] x [V]
and the verifier keeps the restriction of its indicator extension to a
random line, L_S[y] = chi~_S(rho, y) for y in [V], at O(1) field
operations per insert: one cell of L_S changes. The prover then sends
the coefficients of

    g(X) = sum_y chi~_S(X, y) * chi~_T(X, y)        (intersection)
    g(X) = sum_y chi~_S(X, y) * (1 - chi~_T(X, y))  (containment)

of degree <= 2H-2. The verifier evaluates g(rho) from its two line
arrays, compares with the claimed polynomial at rho, and reads off
sum_{x in [H]} g(x), which on the grid counts exactly the relevant
key overlaps when T is 0/1-valued (S may carry positive multiplicities
when only a zero test is needed).
"""

from __future__ import annotations

from itertools import repeat

import numpy as np

from .extension import (ShapeConfig, coeffs_from_values_1d, extend_rows,
                        impulse_table, nd_eval, nd_grid_sum)
from .stream import RejectError


def undirected_key(u, v, n: int):
    """Key of the edge {u, v} in [n^2]; ints or int64 columns alike."""
    lo, hi = _ordered(u, v)
    return (lo - 1) * n + hi


def directed_key(u, v, n: int):
    return (u - 1) * n + v


def weighted_key(u, v, w, n: int, W: int):
    lo, hi = _ordered(u, v)
    return ((lo - 1) * n + (hi - 1)) * W + w


def _ordered(u, v) -> tuple:
    """(min, max) of ints or, entrywise, of int64 columns."""
    total, gap = u + v, abs(u - v)
    return (total - gap) // 2, (total + gap) // 2


def monomial(bases, exps, p: int) -> int:
    out = 1
    for b, e in zip(bases, exps):
        out = out * pow(b, e, p) % p
    return out


def add_to_line(arr, sc: ShapeConfig, imp, keys, mult, p: int):
    """arr[y] += mult * imp[x] mod p at the grid cell (x, y) of each key.

    keys and mult are scalars or equal-length int64 columns. mult is
    reduced mod p before its one product with a residue of imp, and int64
    adds 2^38 residues below the vectorised limit exactly.
    """
    x, y = sc.grid_index(keys)
    np.add.at(arr, y, mult % p * imp[x] % p)
    arr %= p


class Fingerprint:
    """sum_j mult_j * gamma^j accumulator; one field cell of state."""

    __slots__ = ("p", "gamma", "value")

    def __init__(self, gamma: int, p: int):
        self.p = p
        self.gamma = gamma % p
        self.value = 0

    def add(self, key, mult=1):
        """Add mult * gamma^key for a key or for each entry of a column."""
        keys = np.asarray(key).ravel().tolist()
        powers = np.fromiter(map(pow, repeat(self.gamma), keys,
                                 repeat(self.p)), np.int64, len(keys))
        terms = mult % self.p * powers % self.p
        self.value = (self.value + int(terms.sum())) % self.p


def check_grid_claim(reader, label: str, grid, point, expected: int, p: int,
                     what: str) -> int:
    """Read one claimed polynomial and return its total over the grid.

    The block holds 2g-1 coefficients along each axis of the grid
    [g_1] x ... x [g_k] (degree at most 2g-2, the degree of a product of
    two grid extensions); it must agree with the verifier's own value
    `expected` at its random point.
    """
    tensor = reader.coeffs(label, tuple(2 * g - 1 for g in grid))
    if nd_eval(tensor, point, p) != expected % p:
        raise RejectError(f"{what} disagrees at the random point")
    return nd_grid_sum(tensor, grid, p)


class LineCheck:
    """Verifier state for one containment or intersection instance.

    dims = (H, V) with H*V >= universe size. Mutable state is the two
    length-V line arrays; the impulse table for rho is shared read-only.
    """

    def __init__(self, dims, rho: int, p: int, mode: str):
        if mode not in ("subset", "intersect"):
            raise ValueError(f"unknown line-check mode {mode!r}")
        self.H, self.V = dims
        self.p = p
        self.mode = mode
        self.rho = rho % p
        self._sc = ShapeConfig(self.H * self.V, self.H, self.V)
        self._imp = np.array(impulse_table(self.rho, self.H, p),
                             dtype=np.int64)
        self.left = np.zeros(self.V, dtype=np.int64)
        self.right = np.zeros(self.V, dtype=np.int64)

    @property
    def cells(self) -> int:
        return 2 * self.V

    def add_left(self, key, mult=1):
        add_to_line(self.left, self._sc, self._imp, key, mult, self.p)

    def add_right(self, key, mult=1):
        add_to_line(self.right, self._sc, self._imp, key, mult, self.p)

    def point_value(self) -> int:
        if self.mode == "subset":
            prod = self.left * ((1 - self.right) % self.p) % self.p
        else:
            prod = self.left * self.right % self.p
        return int(prod.sum() % self.p)

    def finish(self, reader, label: str, what: str = "line check") -> int:
        """Read the help polynomial; returns its sum over the row grid."""
        total = check_grid_claim(reader, label, (self.H,), (self.rho,),
                                 self.point_value(), self.p,
                                 f"{what} polynomial")
        if self.mode == "subset" and total != 0:
            raise RejectError(f"{what}: containment violated")
        return total


def line_check_dims(universe: int, width: int) -> tuple:
    """Grid (H, V) with V = width capped at the universe, H minimal."""
    v = max(1, min(width, universe))
    h = -(-universe // v)
    return (h, v)


def dense_indicator(items, dims) -> np.ndarray:
    """Grid array from (key, mult) pairs; prover-side helper."""
    H, V = dims
    keys, mults = np.asarray(items, dtype=np.int64).reshape(-1, 2).T
    ShapeConfig(H * V, H, V).grid_index(keys)  # refuses keys off the grid
    arr = np.zeros(H * V, dtype=np.int64)
    np.add.at(arr, keys - 1, mults)
    return arr.reshape(H, V)


def line_check_help(dense_left: np.ndarray, dense_right: np.ndarray,
                    p: int, mode: str) -> np.ndarray:
    """Honest coefficients of g for a containment/intersection instance."""
    L = extend_rows(dense_left, p)
    R = extend_rows(dense_right, p)
    if mode == "subset":
        vals = (L * ((1 - R) % p) % p).sum(axis=1) % p
    else:
        vals = (L * R % p).sum(axis=1) % p
    return coeffs_from_values_1d(vals, p)
