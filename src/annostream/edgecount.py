"""Edge counting over query sets that arrive after the edge stream.

The edge multiset is sketched as an ordered-pair grid function
a(c, d) on ([t] x [s])^2; a query set U becomes line restrictions
chi~_U(r1, y), chi~_U(r2, y). The prover answers each query with a
bivariate polynomial whose value at (r1, r2) must match the verifier's
bilinear form and whose grid total is the (ordered) pair count.

edgecount-induced counts ordered pairs inside U, i.e. twice the induced
edge count; edgecount-cross counts ordered pairs U x W, which equals the
cross edge count because the two sets are disjoint: `check_domain`
refuses a vertex listed twice among all the query-set members.

Queries are cumulative: each query line extends the running set(s) and
triggers one polynomial, so an extended set reuses all verifier state.

The sketch pieces below are the one place that lays vertices on a grid.
The verifier keeps a `PairSketch`, the adjacency extended along both x
axes at (r1, r2), and `LineArray` rows chi~_S(r, y). The prover evaluates
the same two objects on every node of the degree grid (`grid_adjacency`,
`line_rows`), and `pair_charge` contracts them: a help polynomial is the
verifier's bilinear form with the random points left free. The
triangle, predicate and shortest-path schemes build on them.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain

import numpy as np

from .extension import (ShapeConfig, coeffs_from_values_nd, dot_mod,
                        extend_rows, impulse_block, impulse_table,
                        mat_mulmod)
from .field import fe_random
from .oracle import oracle_cross_edges, oracle_induced_edges
from .protocol import Scheme, bump_grid_total, register, _clone_transcript
from .setops import add_to_line, check_grid_claim
from .stream import ProofTranscript, RejectError


class PairSketch:
    """a~(r1, y1, r2, y2) for the ordered-pair multiset; s*s cells."""

    def __init__(self, sc: ShapeConfig, r1: int, r2: int, p: int):
        self.sc = sc
        self.p = p
        self.i1 = np.array(impulse_table(r1, sc.t, p), dtype=np.int64)
        self.i2 = np.array(impulse_table(r2, sc.t, p), dtype=np.int64)
        self.table = np.zeros((sc.s, sc.s), dtype=np.int64)

    @property
    def cells(self) -> int:
        return self.sc.s * self.sc.s

    def add(self, a, b, delta=1):
        """Add delta to the pair (a, b): scalars or equal-length int64
        columns, one scatter of products of reduced residues per call."""
        p = self.p
        xa, ya = self.sc.grid_index(a)
        xb, yb = self.sc.grid_index(b)
        np.add.at(self.table, (ya, yb),
                  delta % p * self.i1[xa] % p * self.i2[xb] % p)
        self.table %= p

    def add_sym(self, a, b, delta=1):
        """add(a, b, delta) and add(b, a, delta) as one call."""
        if np.ndim(delta):
            delta = np.concatenate([delta, delta])
        self.add(np.ravel([a, b]), np.ravel([b, a]), delta)

    def bilinear(self, left: np.ndarray, right: np.ndarray) -> int:
        """left^T table right mod p for two lines, or the sum of it over
        the rows of two equal stacks of lines."""
        col = dot_mod(self.table, right[..., None, :], self.p)
        return int((left * col % self.p).sum() % self.p)


class LineArray:
    """chi~_S(r, y) for y in [s]; one cell touched per insert."""

    def __init__(self, sc: ShapeConfig, r: int, p: int):
        self.sc = sc
        self.p = p
        self.imp = np.array(impulse_table(r, sc.t, p), dtype=np.int64)
        self.arr = np.zeros(sc.s, dtype=np.int64)

    @property
    def cells(self) -> int:
        return self.sc.s

    def add(self, v, mult=1):
        """Insert vertex v, or each vertex of a column, mult times."""
        add_to_line(self.arr, self.sc, self.imp, v, mult, self.p)

    def rows(self, member_lists) -> np.ndarray:
        """The line after inserting each list alone, one row per list:
        `line_rows` at the one node r."""
        return line_rows(member_lists, self.sc, self.imp[None, :],
                         self.p)[:, 0]


def line_rows(member_lists, sc: ShapeConfig, Dt, p) -> np.ndarray:
    """chi~_S(w, y) of each list S on the nodes w = 1..2t-1: (K, 2t-1, s).

    `LineArray` holds row r of one list; a member listed twice counts twice.
    """
    sizes = [len(m) for m in member_lists]
    vs = np.fromiter(chain.from_iterable(member_lists), dtype=np.int64,
                     count=sum(sizes))
    xs, ys = np.divmod(vs - 1, sc.s)
    chi = np.zeros((len(sizes), sc.s, Dt.shape[0]), dtype=np.int64)
    np.add.at(chi, (np.repeat(np.arange(len(sizes)), sizes), ys), Dt[:, xs].T)
    return chi.transpose(0, 2, 1) % p


def extend_x(rows, sc: ShapeConfig, p) -> np.ndarray:
    """rows[(x, y), ...], one per vertex, on the nodes 1..2t-1 along x."""
    pad = np.zeros((sc.t * sc.s,) + rows.shape[1:], dtype=np.int64)
    pad[:sc.n] = rows
    return extend_rows(pad.reshape((sc.t, sc.s) + rows.shape[1:]), p)


def grid_adjacency(adj, sc: ShapeConfig, p) -> np.ndarray:
    """adj extended along both x axes: A^[w1, w2, (y1, y2)], as `PairSketch`
    holds it at the one node pair (r1, r2)."""
    wt, s = 2 * sc.t - 1, sc.s
    half = extend_x(adj, sc, p)  # (w1, y1, d)
    full = extend_x(np.moveaxis(half, 2, 0), sc, p)  # (w2, y2, w1, y1)
    return np.ascontiguousarray(full.transpose(2, 0, 3, 1)).reshape(
        wt, wt, s * s)


def pair_charge(left, right, adj_hat, p) -> np.ndarray:
    """sum_k G_Lk Adj G_Rk^T on the degree grid, from line-row stacks.

    With the member matrix G_S[w, c] = Dt[w, x_c] chi_S[w, y_c], grouping
    the vertices c by grid cell gives sum_{y1, y2} C * A^ for
    C = sum_k chi_Lk (x) chi_Rk: one mat_mulmod over the (K, 2t-1, s)
    stacks, then a contraction against `grid_adjacency`.
    """
    K, wt, s = left.shape
    C = mat_mulmod(left.reshape(K, wt * s).T, right.reshape(K, wt * s), p)
    C = C.reshape(wt, s, wt, s).transpose(0, 2, 1, 3).reshape(wt, wt, s * s)
    return dot_mod(C, adj_hat, p)


def adjacency_matrix(inst, p, directed=False) -> np.ndarray:
    """Final edge multiplicities mod p as an n x n matrix.

    Symmetric by default; `directed` counts each edge token u -> v in
    row u only.
    """
    n = inst.n
    adj = np.zeros((n, n), dtype=np.int64)
    if directed:
        u, v = inst.edges[:2]
        np.add.at(adj, (u - 1, v - 1), 1)
    elif inst.final_edges():
        edges = inst.final_edges()
        lo, hi = np.array(list(edges), dtype=np.int64).T - 1
        c = np.array(list(edges.values()), dtype=np.int64) % p
        adj[lo, hi] = c
        adj[hi, lo] = c
    return adj % p


@lru_cache(maxsize=None)
def degree_grid(t: int, p: int) -> np.ndarray:
    """Dt[w, x] = delta_x(w): impulses of [t] on the nodes 1..2t-1."""
    out = impulse_block(np.arange(1, 2 * t), t, p)
    out.setflags(write=False)  # cached: every caller shares this array
    return out


def member_pair_charge(inst, member_lists, sc: ShapeConfig, p) -> np.ndarray:
    """Coefficients of the pair charge of S x S summed over the lists S.

    Vertices sit on the grid `sc`; the charge counts ordered member pairs
    over the final edge multiset, on the (2t-1) x (2t-1) degree grid.
    """
    Dt = degree_grid(sc.t, p)
    rows = line_rows(member_lists, sc, Dt, p)
    adj_hat = grid_adjacency(adjacency_matrix(inst, p), sc, p)
    return coeffs_from_values_nd(pair_charge(rows, rows, adj_hat, p), p)


class _EdgeCountBase(Scheme):
    mutations = ("coefficient_flip", "block_truncation", "output_value_lie")

    def count_ceiling(self, inst) -> tuple:
        # an ordered pair count is at most twice the edge multiset's size
        return 2 * sum(abs(c) for c in inst.final_edges().values()), "2 sum c"

    def hcost_bound(self, inst) -> int:
        return len(inst.queries) * (2 * self.t - 1) ** 2

    def vcost_bound(self, inst) -> int:
        return self.s * self.s + 2 * self.s + len(inst.queries) + 8

    def oracle_value(self, inst):
        us: set = set()
        ws: set = set()
        out = []
        for left, right in inst.queries:
            us.update(left.tolist())
            ws.update(right.tolist())
            if self.query_arity == 2:
                out.append(oracle_cross_edges(inst, us, ws))
            else:
                out.append(oracle_induced_edges(inst, us))
        return tuple(out)

    def prove(self, inst, p: int) -> ProofTranscript:
        sc = self.sc
        Dt = degree_grid(self.t, p)
        adj_hat = grid_adjacency(adjacency_matrix(inst, p), sc, p)
        tr = ProofTranscript()
        us: list = []
        ws: list = []
        for new_us, new_ws in inst.queries:
            us += new_us.tolist()
            ws += new_ws.tolist()
            left = line_rows([us], sc, Dt, p)
            right = (line_rows([ws], sc, Dt, p) if self.query_arity == 2
                     else left)
            tr.add_coeffs("pair_poly", coeffs_from_values_nd(
                pair_charge(left, right, adj_hat, p), p))
        return tr

    def run_verifier(self, inst, reader, p, rng, meter):
        t, sc, cross = self.t, self.sc, self.query_arity == 2
        r1, r2 = fe_random(rng, p), fe_random(rng, p)
        sketch = PairSketch(sc, r1, r2, p)
        left = LineArray(sc, r1, p)
        right = LineArray(sc, r2, p)
        meter.alloc("pair_sketch", sketch.cells)
        meter.alloc("line_rows", left.cells + right.cells)
        meter.alloc("registers", 2)
        u, v, delta, _ = inst.edges
        sketch.add_sym(u, v, delta)
        expected: list = []
        for us, ws in inst.queries:
            left.add(us)
            right.add(ws if cross else us)
            expected.append(sketch.bilinear(left.arr, right.arr))
            meter.grow("query_registers")
        values = []
        for want in expected:
            total = check_grid_claim(reader, "pair_poly", (t, t), (r1, r2),
                                     want, p, "pair polynomial")
            if not cross:
                if total % 2:
                    raise RejectError("ordered pair total is odd")
                total //= 2
            values.append(total)
        return tuple(values)

    def mutate_output(self, inst, transcript, p, rng):
        out = _clone_transcript(transcript)
        step = 1 if self.query_arity == 2 else 2
        shift = step * rng.randrange(1, max(2, inst.n))
        bump_grid_total(out.blocks[rng.randrange(len(out.blocks))],
                        (self.t, self.t), shift, p)
        return out


@register
class EdgeCountInduced(_EdgeCountBase):
    name = "edgecount-induced"
    query_arity = 1


@register
class EdgeCountCross(_EdgeCountBase):
    name = "edgecount-cross"
    query_arity = 2
