"""Multiset fingerprints and line-restricted set comparison checkers.

Fingerprints: a multiset a over keys [N] maps to sum_j a_j gamma^j at a
random gamma; two multisets collide with probability <= N/p. Used for
equality of multisets that the verifier sees in different orders.

Line checks: a set S over universe [N] is laid out on a grid [H] x [V]
and the verifier keeps the restriction of its indicator extension to a
random line, L_S[y] = chi~_S(rho, y) for y in [V], at O(1) field
operations per insert: one cell of L_S changes (an `edgecount.LineArray`
on the key grid). The prover then sends the values on the nodes 1..2H-1
of

    g(X) = sum_y chi~_S(X, y) * chi~_T(X, y)        (intersection)
    g(X) = sum_y chi~_S(X, y) * (1 - chi~_T(X, y))  (containment)

of degree <= 2H-2. The verifier evaluates g(rho) from its two line
arrays, and the transcript reader (`grid_claim`) checks the claimed
polynomial at rho and reads off sum_{x in [H]} g(x), which on the grid
counts exactly the relevant key overlaps when T is 0/1-valued (S may
carry positive multiplicities when only a zero test is needed).

`stream_keys` is the one rule that keys the stream's edges for a sketch:
verifiers feed its columns to their sketches, and `edge_extension` builds
the prover's side of a line check from them.
"""

from __future__ import annotations

from itertools import repeat

import numpy as np

from .edgecount import LineArray
from .extension import ShapeConfig, extend_rows, power_table
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


def stream_keys(inst, rule: str) -> tuple:
    """The stream's (key, delta) columns, one row per edge token, keyed by
    `rule`: "undirected" (`undirected_key`), "directed" (`directed_key` of
    u -> v), "symmetric" (both ways: two rows per token) or "weighted"
    (`weighted_key` of the token's w). Summed per key, the deltas are the
    final edge multiset under the rule."""
    u, v, delta, w = inst.edges
    n = inst.n
    if rule == "undirected":
        return undirected_key(u, v, n), delta
    if rule == "directed":
        return directed_key(u, v, n), delta
    if rule == "symmetric":
        return (directed_key(np.concatenate([u, v]), np.concatenate([v, u]),
                             n), np.concatenate([delta, delta]))
    if rule == "weighted":
        return weighted_key(u, v, w, n, inst.W), delta
    raise ValueError(f"unknown edge-key rule {rule!r}")


def monomial(bases, exps, p: int) -> int:
    out = 1
    for b, e in zip(bases, exps):
        out = out * pow(b, e, p) % p
    return out


# keys below which Fingerprint.add takes pow per key: building its two
# power tables costs about as much as 40-48 pow calls
_TABLE_KEYS = 64


class Fingerprint:
    """sum_j mult_j * gamma^j accumulator; one field cell of state."""

    __slots__ = ("p", "gamma", "value")

    def __init__(self, gamma: int, p: int):
        self.p = p
        self.gamma = gamma % p
        self.value = 0

    def add(self, key, mult=1):
        """Add mult * gamma^key for a key or for each entry of a column.

        A column of count >= _TABLE_KEYS keys, all >= 0, with count^2 >= its
        largest key takes gamma^key = hi[key >> h] * lo[key mod 2^h] from
        two power tables of about sqrt(largest key) entries; any other call
        takes `pow` per key, which also gives a negative key its inverse
        power.
        """
        p, keys = self.p, np.asarray(key, dtype=np.int64).ravel()
        tables = keys.size >= _TABLE_KEYS
        top = int(keys.max()) if tables else 0
        if tables and keys.min() >= 0 and keys.size ** 2 >= top:
            h = (top.bit_length() + 1) // 2
            lo, hi = power_table([self.gamma, pow(self.gamma, 1 << h, p)],
                                 1 << h, p)
            powers = hi[keys >> h] * lo[keys & ((1 << h) - 1)] % p
        else:
            powers = np.fromiter(map(pow, repeat(self.gamma), keys.tolist(),
                                     repeat(p)), np.int64, keys.size)
        terms = mult % p * powers % p
        self.value = (self.value + int(terms.sum())) % p


class LineCheck:
    """Verifier state for one containment or intersection instance.

    dims = (H, V) with H*V >= universe size. The state is two
    `edgecount.LineArray`s, left and right, on the key grid [H] x [V] at
    rho; they share one impulse table.
    """

    def __init__(self, dims, rho: int, p: int, mode: str):
        if mode not in ("subset", "intersect"):
            raise ValueError(f"unknown line-check mode {mode!r}")
        self.H, self.V = dims
        self.p = p
        self.mode = mode
        self.rho = rho % p
        sc = ShapeConfig(self.H * self.V, self.H, self.V)
        self.left = LineArray(sc, self.rho, p)
        self.right = LineArray(sc, self.rho, p)

    @property
    def cells(self) -> int:
        return self.left.cells + self.right.cells

    def copy(self) -> "LineCheck":
        """The same check with lines of its own, writable."""
        out = object.__new__(LineCheck)
        vars(out).update(vars(self))
        out.left, out.right = self.left.copy(), self.right.copy()
        return out

    def add_left(self, key, mult=1):
        self.left.add(key, mult)

    def add_right(self, key, mult=1):
        self.right.add(key, mult)

    def point_value(self) -> int:
        p, left, right = self.p, self.left.arr, self.right.arr
        if self.mode == "subset":
            right = (1 - right) % p
        return int((left * right % p).sum() % p)

    def finish(self, reader, label: str, what: str = "line check") -> int:
        """Read the help polynomial; returns its sum over the row grid."""
        total = reader.grid_claim(label, (self.H,), (self.rho,),
                                  self.point_value(), f"{what} polynomial")
        if self.mode == "subset" and total != 0:
            raise RejectError(f"{what}: containment violated")
        return total


def line_check_dims(universe: int, width: int) -> tuple:
    """Grid (H, V) with V = width capped at the universe, H minimal."""
    v = max(1, min(width, universe))
    h = -(-universe // v)
    return (h, v)


def dense_indicator(keys, dims, mults=1) -> np.ndarray:
    """Grid array of keys, each adding its mult; prover-side helper."""
    H, V = dims
    keys = np.asarray(keys, dtype=np.int64).ravel()
    ShapeConfig(H * V, H, V).grid_index(keys)  # refuses keys off the grid
    arr = np.zeros(H * V, dtype=np.int64)
    np.add.at(arr, keys - 1, mults)
    return arr.reshape(H, V)


def line_check_help(dense_left: np.ndarray, right: np.ndarray,
                    p: int, mode: str) -> np.ndarray:
    """Honest g for a containment/intersection instance, on its nodes
    1..2H-1.

    The left side is a grid array (`dense_indicator`); the right side comes
    already extended to the nodes (`extend_rows`), since it is most often
    the stream's side, which `edge_extension` builds once per instance.
    """
    L = extend_rows(dense_left, p)
    if mode == "subset":
        return (L * ((1 - right) % p) % p).sum(axis=1) % p
    return (L * right % p).sum(axis=1) % p


def edge_extension(inst, dims, p: int, rule: str = "undirected"
                   ) -> np.ndarray:
    """The stream's side of a line check: the final edges' indicator on the
    grid dims under the edge-key `rule` (`stream_keys`), extended to the
    nodes 1..2H-1; built once per instance and read-only.
    """
    def build():
        keys, delta = stream_keys(inst, rule)
        out = extend_rows(dense_indicator(keys, dims, delta), p)
        out.setflags(write=False)  # cached: every caller shares this array
        return out
    return inst.cached(("edge_extension", rule, tuple(dims), p), build)


# --- relations: each set check written once. A relation gives the prover's
# help from the certificate's lists (`prove`), the verifier's stream-side
# state and meter group (`stream`) and the help-side `check`.


class KeyCheck:
    """Containment ("subset") or intersection ("intersect") of two key lists
    on the grid dims: a `LineCheck` whose help is the block `label`."""

    def __init__(self, dims, mode: str, label: str, what: str):
        self.dims, self.mode, self.label, self.what = dims, mode, label, what

    def prove(self, tr, left, right, p: int):
        right = dense_indicator(right, self.dims)
        self._prove(tr, left, extend_rows(right, p), p)

    def _prove(self, tr, left, right_ext, p: int):
        tr.add_values(self.label, line_check_help(
            dense_indicator(left, self.dims), right_ext, p, self.mode), p)

    def stream(self, rho: int, p: int, meter) -> LineCheck:
        check = LineCheck(self.dims, rho, p, self.mode)
        meter.alloc(self.label, check.cells)
        return check

    def check(self, state: LineCheck, reader, left, right=None) -> int:
        """The grid total of the help for `left` and `right` (or the side
        already in `state`); a subset rejects unless it is 0."""
        check = state.copy()
        check.add_left(left)
        if right is not None:
            check.add_right(right)
        return check.finish(reader, self.label, self.what)


class StreamEdgeCheck(KeyCheck):
    """A key list against the stream's final edges keyed by `rule`
    (`stream_keys`), which `stream` puts on the right side."""

    def __init__(self, dims, rule: str, mode: str, label: str, what: str):
        super().__init__(dims, mode, label, what)
        self.rule = rule

    def prove(self, tr, inst, keys, p: int):
        self._prove(tr, keys, edge_extension(inst, self.dims, p, self.rule),
                    p)

    def stream(self, inst, rho: int, p: int, meter,
               right: LineArray | None = None) -> LineCheck:
        """The check's state at rho. `right`, the right line of a check on
        the same dims, rule and rho, is shared read-only instead of keying
        the stream again; the meter group is this check's own either way."""
        check = super().stream(rho, p, meter)
        if right is None:
            check.add_right(*stream_keys(inst, self.rule))
        else:
            check.right = right
        return check


class SameMultiset:
    """Multiset equality by fingerprint against a target the stream side
    fixes: "vertices" ([n]: a partition), a `stream_keys` rule, or None
    (`check` then compares two help lists, as for a sorted copy)."""

    def __init__(self, target: str | None = None):
        self.target = target

    def stream(self, inst, gamma: int, p: int) -> Fingerprint:
        fp = Fingerprint(gamma, p)
        if self.target == "vertices":
            fp.add(np.arange(1, inst.n + 1))
        elif self.target is not None:
            fp.add(*stream_keys(inst, self.target))
        return fp

    def check(self, target: Fingerprint, lists, reason: str, copy=()):
        fp = Fingerprint(target.gamma, target.p)
        for keys, mult in ((lists, 1), (copy, -1)):
            fp.add(np.concatenate([np.asarray(x, dtype=np.int64) for x in keys]
                                  + [np.zeros(0, dtype=np.int64)]), mult)
        if fp.value != target.value:
            raise RejectError(reason)
