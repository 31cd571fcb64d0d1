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

from math import isqrt

import numpy as np

from .edgecount import (LineArray, PairSketch, degree_grid, line_rows,
                        member_pair_charge)
from .extension import dot_mod, impulse_table, mat_mulmod, reduce_mod
from .field import fe_random
from .oracle import oracle_triangles
from .protocol import Scheme, register, _clone_transcript
from .setops import Fingerprint, check_grid_claim, directed_key
from .stream import ProofTranscript, RejectError


def _shaped_tokens(inst, sc, p):
    """(a, b, delta mod p, xa, ya, xb, yb) per edge token, in stream order,
    for the charges that depend on it. Every product the charges take is
    then one of two reduced residues, below p^2 < 2^50."""
    a, b, delta, _ = inst.edges
    xa, ya = sc.shape(a)
    xb, yb = sc.shape(b)
    return zip(*(c.tolist() for c in (a, b, delta % p, xa, ya, xb, yb)))


# tokens whose charge rows tri-frugal stages per batched product
_STAGE = 32


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
        out = _clone_transcript(transcript)
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
        t, s, n, sc = self.t, self.s, self.n, self.sc
        D = degree_grid(t, p)  # (2t-1, t)
        table = np.zeros((2 * t - 1, n, s), dtype=np.int64)
        acc = np.zeros(2 * t - 1, dtype=np.int64)
        for (a, b, delta, xa, ya, xb, yb) in _shaped_tokens(inst, sc, p):
            prod = table[:, a - 1, :] * table[:, b - 1, :] % p
            acc = (acc + delta * (prod.sum(axis=1) % p)) % p
            table[:, a - 1, yb - 1] = (table[:, a - 1, yb - 1]
                                       + delta * D[:, xb - 1]) % p
            table[:, b - 1, ya - 1] = (table[:, b - 1, ya - 1]
                                       + delta * D[:, xa - 1]) % p
        tr = ProofTranscript()
        tr.add_values("charge_poly", acc, p)
        return tr

    def run_verifier(self, inst, reader, p, rng, meter):
        t, s, n, sc = self.t, self.s, self.n, self.sc
        r = fe_random(rng, p)
        imp = impulse_table(r, t, p)
        meter.alloc("adjacency_rows", n * s)
        meter.alloc("registers", 2)
        table = np.zeros((n, s), dtype=np.int64)
        acc = 0
        for (a, b, delta, xa, ya, xb, yb) in _shaped_tokens(inst, sc, p):
            prod = table[a - 1] * table[b - 1] % p
            acc = (acc + delta * int(prod.sum() % p)) % p
            table[a - 1, yb - 1] = (table[a - 1, yb - 1]
                                    + delta * imp[xb - 1]) % p
            table[b - 1, ya - 1] = (table[b - 1, ya - 1]
                                    + delta * imp[xa - 1]) % p
        return check_grid_claim(reader, "charge_poly", (t,), (r,), acc, p,
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

        The rows are staged, node z first, in two fixed (2n-1, _STAGE,
        2t-1) blocks, token k at [:, k], so a token writes 2n-1 contiguous
        runs. A full block is one batched mat_mulmod into Q, and the
        staging never holds more than _STAGE tokens.
        """
        t, s, n, sc = self.t, self.s, self.n, self.sc
        wt, wn = 2 * t - 1, 2 * n - 1
        Dt = degree_grid(t, p)
        Dn = degree_grid(n, p)
        B = np.zeros((s, wn, wt), dtype=np.int64)  # row y is contiguous
        Q = np.zeros((wn, wt, wt), dtype=np.int64)  # residues, summed
        left = np.zeros((wn, _STAGE, wt), dtype=np.int64)
        right = np.zeros_like(left)
        k = 0
        for (a, b, delta, xa, ya, xb, yb) in _shaped_tokens(inst, sc, p):
            ca = delta * Dt[:, xa - 1] % p
            cb = delta * Dt[:, xb - 1] % p
            reduce_mod(np.multiply(B[ya - 1], ca, out=left[:, k]), p)
            reduce_mod(np.multiply(B[yb - 1], Dt[:, xb - 1],
                                   out=right[:, k]), p)
            k += 1
            if k == _STAGE:
                Q += mat_mulmod(left.transpose(0, 2, 1), right, p)
                k = 0
            B[ya - 1] += np.outer(Dn[:, b - 1], ca)
            reduce_mod(B[ya - 1], p)
            B[yb - 1] += np.outer(Dn[:, a - 1], cb)
            reduce_mod(B[yb - 1], p)
        if k:
            Q += mat_mulmod(left[:, :k].transpose(0, 2, 1), right[:, :k], p)
        return reduce_mod(Q, p).transpose(1, 2, 0)

    def run_verifier(self, inst, reader, p, rng, meter):
        t, s, n, sc = self.t, self.s, self.n, self.sc
        r1, r2, r3 = (fe_random(rng, p) for _ in range(3))
        i1 = impulse_table(r1, t, p)
        i2 = impulse_table(r2, t, p)
        i3 = impulse_table(r3, n, p)
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
        return check_grid_claim(reader, "charge_poly", (t, t, n),
                                (r1, r2, r3), acc, p, "charge polynomial")


@register
class TrianglesSparse(_TriangleBase):
    """Prover replays every neighborhood; help scales with edge count.

    The replay is tied to the stream by a fingerprint over directed
    keys; each apex is then charged for the edges among its claimed
    neighbors, so the grid total counts every triangle six times.
    """

    name = "tri-sparse"
    _lie_step = 6

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

    def _transcript_for(self, inst, nbrs, p) -> ProofTranscript:
        lists = [nbrs.get(v, []) for v in range(1, self.n + 1)]
        tr = ProofTranscript()
        for lst in lists:
            tr.add_vertices("nbrs", lst)
        tr.add_values("charge_poly",
                      member_pair_charge(inst, lists, self.sc, p), p)
        return tr

    def run_verifier(self, inst, reader, p, rng, meter):
        t, n, sc = self.t, self.n, self.sc
        r1, r2 = fe_random(rng, p), fe_random(rng, p)
        gamma = fe_random(rng, p)
        sketch = PairSketch(sc, r1, r2, p)
        b1 = LineArray(sc, r1, p)
        b2 = LineArray(sc, r2, p)
        meter.alloc("pair_sketch", sketch.cells)
        meter.alloc("line_rows", b1.cells + b2.cells)
        meter.alloc("registers", 5)
        fp_in = Fingerprint(gamma, p)
        fp_replay = Fingerprint(gamma, p)
        a, b, delta, _ = inst.edges
        sketch.add_sym(a, b, delta)
        fp_in.add(directed_key(a, b, n), delta)
        fp_in.add(directed_key(b, a, n), delta)
        lists, replayed = [], []
        for v in range(1, n + 1):
            members = reader.vertices("nbrs")
            if members.size and (members.min() < 1 or members.max() > n):
                bad = members[(members < 1) | (members > n)][0]
                raise RejectError(f"replayed neighbor {bad} out of range")
            lists.append(members)
            replayed.append(directed_key(v, members, n))
        fp_replay.add(np.concatenate(replayed))
        acc = sketch.bilinear(b1.rows(lists), b2.rows(lists))
        if fp_replay.value != fp_in.value:
            raise RejectError("replayed neighborhoods do not match stream")
        total = check_grid_claim(reader, "charge_poly", (t, t), (r1, r2),
                                 acc, p, "charge polynomial")
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
        # q = sum_{v0 <= v} (Dt[., x_v0] chi_v[., y_v0]) (x) <chi_v, new_v0>
        chi = line_rows(rows, sc, Dt, p)
        new = line_rows([[u for u in lst if u > v]
                         for v, lst in enumerate(rows, 1)], sc, Dt, p)
        new = np.ascontiguousarray(new.transpose(1, 0, 2))  # (w2, v0, y2)
        xs, ys = np.divmod(np.arange(n), sc.s)
        Q = np.zeros((Dt.shape[0],) * 2, dtype=np.int64)
        for v in np.flatnonzero([len(lst) for lst in rows]):
            a = chi[v][:, ys[:v + 1]] * Dt[:, xs[:v + 1]] % p
            b = dot_mod(new[:, :v + 1], chi[v][:, None, :], p)
            Q = (Q + dot_mod(a[:, None, :], b[None], p)) % p
        P = (Q + Q.T) % p
        tr = ProofTranscript()
        tr.add_values("charge_poly", P, p)
        return tr

    def run_verifier(self, inst, reader, p, rng, meter):
        t, sc = self.t, self.sc
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
        total = check_grid_claim(reader, "charge_poly", (t, t), (r1, r2),
                                 acc, p, "charge polynomial")
        if total % 4 != 0:
            raise RejectError("pair total is not a multiple of four")
        return total // 4
