"""Triangle counting schemes.

All four count sum_{u<v<w} A(uv) A(vw) A(uw) on the final edge multiset.
The first two run on edge streams and exploit the telescoping

    T = sum_j delta_j * C_{j-1}(a_j, b_j),
    C(a, b) = sum_u A(a, u) A(b, u),

charging each token the common-neighbor count just before its update
(a self-loop-free update never changes its own C term). The last two
charge each vertex for the edges among its (replayed or listed)
neighbors. In every case the verifier evaluates its running charge at
random points of the vertex-grid extension and the prover ships the
matching polynomial so the grid total can be read off.

Tradeoffs (help elements, verifier cells), grid [t] x [s] with ts >= n:

  tri-laconic   2t-1 help, about n*s cells
  tri-frugal    (2t-1)^2 (2n-1) help, about 2s cells
  tri-sparse    neighborhood replay (2m ids) + (2t-1)^2 help,
                      about s^2 + 2s cells
  tri-adj   (2t-1)^2 help on adjacency-list input,
                      about s^2 + 2s cells
"""

from __future__ import annotations

from functools import partial
from math import isqrt

import numpy as np

from .edgecount import (LineArray, PairCount, PairSketch, degree_grid,
                        line_rows)
from .extension import (FloatResidues, StagedProduct, block_rows, dot_mod,
                        exact_chunk, impulse_array, int64_sums_exact,
                        mat_mulmod, reduce_mod)
from .field import fe_random
from .oracle import oracle_triangles
from .protocol import (Scheme, StreamState, cached_build, register,
                       stream_pass)
from .setops import SameMultiset, directed_key
from .stream import ProofTranscript, RejectError


def _shaped_tokens(inst, sc, p):
    """(a, b, delta mod p, xa, ya, xb, yb) per edge token, in stream order,
    for the charges that depend on it. Every product the charges take is
    then one of two reduced residues, below p^2 < 2^50."""
    a, b, delta, _ = inst.edges
    xa, ya = sc.shape(a)
    xb, yb = sc.shape(b)
    return zip(*(c.tolist() for c in (a, b, delta % p, xa, ya, xb, yb)))


# tokens whose charge rows tri-frugal stages at most per batched product
_STAGE = 32
# tokens per block of tri-laconic's prover at most: 128 keeps its peak
# near its n x s x t table (1.5 MiB at the n = 256 test instance, where
# 256 peaked at 2.3)
_LACONIC_BLOCK = 128


class _TriangleBase(Scheme):
    # lies shift the grid total by a multiple of this, the number of
    # times the charge counts each triangle; 0 allows any nonzero shift
    _lie_step = 0

    def count_ceiling(self, inst) -> tuple:
        # the grid total is k = max(1, _lie_step) times trace(A^3)/6, and
        # trace(A^3) <= |A|_F^3 with |A|_F^2 = 2 sum c^2
        k = max(1, self._lie_step)
        sq = 2 * sum(c * c for c in inst.final_edges().values())
        return (isqrt(k * k * sq ** 3) // 6,
                f"{k if k > 1 else ''}|A|_F^3/6 with |A|_F^2 = 2 sum c^2")

    def oracle_value(self, inst):
        return oracle_triangles(inst)

    def mutate_output(self, inst, transcript, p, rng):
        """Shift the total of the charge polynomial, the last block, by
        a multiple of `_lie_step` (any nonzero residue when it is 0)."""
        out = transcript.copy()
        if self._lie_step:
            shift = self._lie_step * rng.randrange(1, max(2, inst.n))
        else:
            shift = rng.randrange(1, p)
        out.blocks[-1].shift_total(shift, p)
        return out


@register
class TrianglesLaconic(_TriangleBase):
    """One short univariate claim; verifier stores a full n x s table."""

    name = "tri-laconic"

    def hcost_bound(self, inst) -> int:
        return 2 * self.t - 1

    def vcost_bound(self, inst) -> int:
        return self.n * self.s + 8

    def prove(self, inst, p: int) -> ProofTranscript:
        """acc[w] = sum_{x1, x2} N[x1, x2] Dt[w, x1] Dt[w, x2], with the
        t x t count N = sum_k delta_k S_{a_k}^T S_{b_k}, where S_v[y, x] is
        the multiplicity mod p of the edge {v, (x, y)} just before token k.

        S is kept as n x s x t float64 residues and read in blocks of at
        most _LACONIC_BLOCK tokens. A block gathers the S rows of its 2K
        incidences (token k's endpoint, the other endpoint's cell, delta)
        and adds to each row the incidences of the same vertex at earlier
        tokens of the block: after one stable sort by (vertex, token) they
        are a run that two searchsorted calls bound. The a side is weighted
        by delta and reduced, the b side split into its h-bit halves, and
        both halves go into N by one float64 matmul each over the block's
        K*s rows, exact because the block is sized by exact_chunk(p << h).
        The block is then scattered into S.
        """
        t, s, n, sc = self.t, self.s, self.n, self.sc
        h = (p.bit_length() + 1) // 2
        step = min(_LACONIC_BLOCK, exact_chunk(p << h) // s)
        S = np.zeros((n, s, t))
        gathered = np.empty((2 * step, s, t))
        high = np.empty((step, s, t))
        # a reduction of the a side ends before the split fills high
        mod = FloatResidues(p, high.size, scratch=high)
        N = np.zeros((t, t), dtype=np.int64)
        a, b, delta, _ = inst.edges
        xa, ya = sc.grid_index(a)
        xb, yb = sc.grid_index(b)
        delta = (delta % p).astype(np.float64)
        for lo in range(0, a.size, step):
            block = slice(lo, lo + step)
            k = a[block].size
            # incidence i: vertex v[i]'s edge to cell (y[i], x[i]) changes
            # by d[i] at token i mod k; the first k are the a side
            v = np.concatenate([a[block], b[block]]) - 1
            y = np.concatenate([yb[block], ya[block]])
            x = np.concatenate([xb[block], xa[block]])
            d = np.concatenate([delta[block], delta[block]])
            key = v * k + np.tile(np.arange(k), 2)
            order = np.argsort(key, kind="stable")
            keys = key[order]
            first = np.searchsorted(keys, v * k)
            counts = np.searchsorted(keys, key) - first
            # "clip" writes into out as it goes; "raise" buffers a copy
            rows = np.take(S, v, axis=0, out=gathered[:2 * k], mode="clip")
            if counts.any():
                # pair incidence i with the sorted positions
                # first[i] .. first[i] + counts[i] - 1
                dst = np.repeat(np.arange(2 * k), counts)
                src = order[np.arange(dst.size) + np.repeat(
                    first - np.cumsum(counts) + counts, counts)]
                cell = (dst, y[src], x[src])
                np.add.at(rows, cell, d[src])
                rows[cell] %= p
            left = mod.reduce(np.multiply(rows[:k], d[:k, None, None],
                                          out=rows[:k]))
            left = left.reshape(k * s, t).T
            # b side = hi * 2^h + low, both halves below 2^h
            right, hi = rows[k:], high[:k]
            np.floor(np.multiply(right, 1.0 / (1 << h), out=hi), out=hi)
            top = (left @ hi.reshape(k * s, t)).astype(np.int64)
            right -= np.multiply(hi, 1 << h, out=hi)
            low = (left @ right.reshape(k * s, t)).astype(np.int64)
            N = (N + low + (top % p << h)) % p
            cell = (v, y, x)
            np.add.at(S, cell, d)
            S[cell] %= p
        Dt = degree_grid(t, p)
        tr = ProofTranscript()
        tr.add_values("charge_poly", dot_mod(mat_mulmod(Dt, N, p), Dt, p), p)
        return tr

    def stream_side(self, inst, p, rng, meter):
        t, s, n, sc = self.t, self.s, self.n, self.sc
        r = fe_random(rng, p)
        imp = impulse_array(r, t, p).tolist()
        meter.alloc("adjacency_rows", n * s)
        meter.alloc("registers", 2)
        table = np.zeros((n, s), dtype=np.int64)
        row_dot = np.dot if int64_sums_exact(s) else partial(dot_mod, p=p)
        acc = 0
        for (a, b, delta, xa, ya, xb, yb) in _shaped_tokens(inst, sc, p):
            acc = (acc + delta * int(row_dot(table[a - 1], table[b - 1]))) % p
            table[a - 1, yb - 1] = (table[a - 1, yb - 1]
                                    + delta * imp[xb - 1]) % p
            table[b - 1, ya - 1] = (table[b - 1, ya - 1]
                                    + delta * imp[xa - 1]) % p
        return StreamState(point=(r,), acc=acc)

    def run_verifier(self, inst, reader, p, rng, meter):
        st = stream_pass(self, inst, p, rng, meter)
        return reader.grid_claim("charge_poly", (self.t,), st.point, st.acc,
                                 "charge polynomial")


@register
class TrianglesFrugal(_TriangleBase):
    """Tiny verifier (two length-s rows); large trivariate claim."""

    name = "tri-frugal"

    def hcost_bound(self, inst) -> int:
        return (2 * self.t - 1) ** 2 * (2 * self.n - 1)

    def vcost_bound(self, inst) -> int:
        return 2 * self.s + 16

    def prove(self, inst, p: int) -> ProofTranscript:
        tr = ProofTranscript()
        tr.add_values("charge_poly", self.charge_block(inst, p), p)
        return tr

    def charge_block(self, inst, p: int) -> np.ndarray:
        """Q[i, j, z]: the sum over tokens of the products of their two
        charge rows at the nodes (i, z) and (j, z), shape (2t-1, 2t-1, 2n-1).

        B and the staged rows are float64 residues. The rows are staged,
        node z first, in a StagedProduct of two (2n-1, block, 2t-1)
        buffers, token k at [:, k], so a token writes 2n-1 contiguous runs
        and a block of tokens is one float64 product. Rows 1..n of
        degree_grid(n) are the identity, so a token changes one of B's
        first n rows and its n-1 extrapolated rows.
        """
        t, s, n, sc = self.t, self.s, self.n, self.sc
        wt, wn = 2 * t - 1, 2 * n - 1
        Dt = degree_grid(t, p).T.astype(np.float64)  # row x is contiguous
        ext = degree_grid(n, p)[n:].T.astype(np.float64)  # (n, n-1)
        B = np.zeros((s, wn, wt))  # row y is contiguous
        staged = StagedProduct(wn, wt, p, _STAGE)
        left, right, mod = staged.left, staged.right, staged.mod
        tmp = np.empty((n - 1, wt))
        a, b, delta, _ = inst.edges
        xa, ya = sc.grid_index(a)
        xb, yb = sc.grid_index(b)
        delta = (delta % p).astype(np.float64)[:, None]
        for lo in range(0, a.size, staged.block):
            block = slice(lo, lo + staged.block)
            ca = mod.reduce(delta[block] * Dt[xa[block]])
            cb = mod.reduce(delta[block] * Dt[xb[block]])
            cols = (c[block].tolist() for c in (a, b, ya, xb, yb))
            for k, (u, v, yu, xv, yv) in enumerate(zip(*cols)):
                np.multiply(B[yu], ca[k], out=left[:, k])
                np.multiply(B[yv], Dt[xv], out=right[:, k])
                for y, other, c in ((yu, v, ca[k]), (yv, u, cb[k])):
                    row = B[y, other - 1]
                    row += c
                    mod.fold(row)
                    np.multiply(ext[other - 1, :, None], c, out=tmp)
                    top = B[y, n:]
                    top += tmp
                    mod.reduce(top)
            staged.add(k + 1)
        return staged.total().transpose(1, 2, 0)

    def stream_side(self, inst, p, rng, meter):
        t, s, n, sc = self.t, self.s, self.n, self.sc
        r1, r2, r3 = (fe_random(rng, p) for _ in range(3))
        i1 = impulse_array(r1, t, p).tolist()
        i2 = impulse_array(r2, t, p).tolist()
        i3 = impulse_array(r3, n, p).tolist()
        meter.alloc("line_rows", 2 * s)
        meter.alloc("registers", 4)
        row1 = [0] * s
        row2 = [0] * s
        acc = 0
        for (a, b, delta, xa, ya, xb, yb) in _shaped_tokens(inst, sc, p):
            acc = (acc + delta * i1[xa - 1] * row1[ya - 1] % p
                   * i2[xb - 1] % p * row2[yb - 1]) % p
            for (x, y, other) in ((xa, ya, b), (xb, yb, a)):
                row1[y - 1] = (row1[y - 1]
                               + delta * i1[x - 1] * i3[other - 1]) % p
                row2[y - 1] = (row2[y - 1]
                               + delta * i2[x - 1] * i3[other - 1]) % p
        return StreamState(point=(r1, r2, r3), acc=acc)

    def run_verifier(self, inst, reader, p, rng, meter):
        st = stream_pass(self, inst, p, rng, meter)
        return reader.grid_claim("charge_poly", (self.t, self.t, self.n),
                                 st.point, st.acc, "charge polynomial")


@register
class TrianglesSparse(_TriangleBase):
    """Prover replays every neighborhood; help scales with edge count.

    The replay is tied to the stream by a fingerprint over directed
    keys; each apex is then charged for the edges among its claimed
    neighbors, so the grid total counts every triangle six times.
    """

    name = "tri-sparse"
    _lie_step = 6
    _replay = SameMultiset("symmetric")

    def __init__(self, n, t, s):
        super().__init__(n, t, s)
        self.pairs = PairCount(self.sc)

    def hcost_bound(self, inst) -> int:
        m = sum(abs(c) for c in inst.final_edges().values())
        return 2 * m + (2 * self.t - 1) ** 2

    def vcost_bound(self, inst) -> int:
        return self.s * self.s + 2 * self.s + 8

    def _neighborhoods(self, inst) -> dict:
        nbrs: dict = {v: [] for v in range(1, inst.n + 1)}
        for (u, v), c in sorted(inst.final_edges().items()):
            for _ in range(c):
                nbrs[u].append(v)
                nbrs[v].append(u)
        return {v: sorted(lst) for v, lst in nbrs.items()}

    def prove(self, inst, p: int) -> ProofTranscript:
        return self._transcript_for(inst, self._neighborhoods(inst), p)

    @cached_build
    def _transcript_for(self, inst, nbrs, p) -> ProofTranscript:
        lists = [nbrs.get(v, []) for v in range(1, self.n + 1)]
        tr = ProofTranscript()
        for lst in lists:
            tr.add_vertices("nbrs", lst)
        self.pairs.prove(tr, "charge_poly", inst, lists, p)
        return tr

    def stream_side(self, inst, p, rng, meter):
        r1, r2 = fe_random(rng, p), fe_random(rng, p)
        gamma = fe_random(rng, p)
        meter.alloc("registers", 5)
        return StreamState(pairs=self.pairs.stream(inst, r1, r2, p, meter),
                           replay=self._replay.stream(inst, gamma, p))

    def run_verifier(self, inst, reader, p, rng, meter):
        n, st = self.n, stream_pass(self, inst, p, rng, meter)
        lists, replayed = [], []
        for v in range(1, n + 1):
            members = reader.vertices("nbrs")
            if members.size and (members.min() < 1 or members.max() > n):
                bad = members[(members < 1) | (members > n)][0]
                raise RejectError(f"replayed neighbor {bad} out of range")
            lists.append(members)
            replayed.append(directed_key(v, members, n))
        self._replay.check(st.replay, replayed,
                           "replayed neighborhoods do not match stream")
        total = self.pairs.check(st.pairs, reader, "charge_poly", lists,
                                 "charge")
        if total % 6 != 0:
            raise RejectError("pair total is not a multiple of six")
        return total // 6

    def mutate_vertices(self, inst, transcript, p, rng):
        nbrs = self._neighborhoods(inst)
        donors = [v for v, lst in nbrs.items() if lst]
        if not donors or inst.n < 3:
            return None
        src = rng.choice(donors)
        u = rng.choice(nbrs[src])
        dst = rng.choice([v for v in nbrs if v != src and v != u])
        nbrs[src].remove(u)
        nbrs[dst].append(u)
        nbrs[dst].sort()
        return self._transcript_for(inst, nbrs, p)


@register
class TrianglesAdjList(_TriangleBase):
    """Adjacency-list input; each row is charged for the already revealed
    edges among its neighbors, counting every triangle four times."""

    name = "tri-adj"
    models = ("adjlist",)
    _lie_step = 4

    def hcost_bound(self, inst) -> int:
        return (2 * self.t - 1) ** 2

    def vcost_bound(self, inst) -> int:
        return self.s * self.s + 2 * self.s + 8

    def prove(self, inst, p: int) -> ProofTranscript:
        n, sc = self.n, self.sc
        Dt = degree_grid(self.t, p)
        rows: list = [[] for _ in range(n)]
        for v, u in zip(*(c.tolist() for c in inst.edges[:2])):
            rows[v - 1].append(u)
        # A^ of the edges revealed through row v is half + half^T, where
        # half is Dt[., x_v0] (x) line_rows(new_v0) at y1 = y_v0 summed
        # over the rows v0 <= v; the charge of row v is then q + q^T with
        # q = sum_{v0 <= v} (Dt[., x_v0] chi_v[., y_v0]) (x) <chi_v, new_v0>.
        # A block of rows takes one mat_mulmod for the inner products and
        # one, batched over its rows, for their q terms.
        chi = line_rows(rows, sc, Dt, p)  # (v, w1, y1)
        new = line_rows([[u for u in lst if u > v]
                         for v, lst in enumerate(rows, 1)], sc, Dt, p)
        new = np.ascontiguousarray(new.transpose(1, 0, 2))  # (w2, v0, y2)
        xs, ys = np.divmod(np.arange(n), sc.s)
        wt = Dt.shape[0]
        Q = np.zeros((wt, wt), dtype=np.int64)
        live = np.flatnonzero([len(lst) for lst in rows])
        # a and b of a row, in int64 and in mat_mulmod's float64 copies
        step = block_rows(4 * 8 * wt * n)
        for lo in range(0, live.size, step):
            vs = live[lo:lo + step]
            top = vs[-1] + 1
            block = chi[vs]  # (k, w1, y1) for row v = vs[k]
            b = mat_mulmod(new[:, :top], block.transpose(1, 2, 0), p)
            a = reduce_mod(block[:, :, ys[:top]] * Dt[:, xs[:top]], p)
            a *= np.arange(top) <= vs[:, None, None]  # (k, w1, v0 <= v)
            Q += mat_mulmod(a, b.transpose(2, 1, 0), p).sum(axis=0)
        P = (Q + Q.T) % p
        tr = ProofTranscript()
        tr.add_values("charge_poly", P, p)
        return tr

    def stream_side(self, inst, p, rng, meter):
        sc = self.sc
        r1, r2 = fe_random(rng, p), fe_random(rng, p)
        sketch = PairSketch(sc, r1, r2, p)
        b1 = LineArray(sc, r1, p)
        b2 = LineArray(sc, r2, p)
        meter.alloc("pair_sketch", sketch.cells)
        meter.alloc("line_rows", b1.cells + b2.cells)
        meter.alloc("registers", 4)
        v, u, first, _ = inst.edges
        acc = 0
        # one row per run of equal v: the edges it lists first join the
        # sketch, then the row is charged
        cuts = np.flatnonzero(v[1:] != v[:-1]) + 1
        bounds = [0, *cuts.tolist(), v.size] if v.size else []
        rows = [u[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
        lines1, lines2 = b1.rows(rows), b2.rows(rows)
        for k, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            new = first[lo:hi] == 1
            if new.any():
                sketch.add_sym(v[lo:hi][new], u[lo:hi][new])
            acc = (acc + sketch.bilinear(lines1[k], lines2[k])) % p
        return StreamState(point=(r1, r2), acc=acc)

    def run_verifier(self, inst, reader, p, rng, meter):
        st = stream_pass(self, inst, p, rng, meter)
        total = reader.grid_claim("charge_poly", (self.t, self.t),
                                  st.point, st.acc, "charge polynomial")
        if total % 4 != 0:
            raise RejectError("pair total is not a multiple of four")
        return total // 4
