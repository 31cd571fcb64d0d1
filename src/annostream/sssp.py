"""Shortest-path label certification via round-by-round ball growth.

The unweighted schemes replay breadth-first search: each round carries a
bivariate polynomial restricting the adjacency extension to the current
ball, and a degree vector naming which vertices the next ball contains.
The verifier audits every round with one random-point evaluation plus a
fingerprint tying the degree vector to the polynomial's partial sums, so
it never stores a ball explicitly, only an s-cell line restriction and a
running set fingerprint. Labels sent up front are compared against the
ball history through a second fingerprint in two fresh variables.

The weighted variants trade sketch width for per-vertex state. The
turnstile one aggregates update deltas into edge weights and composes a
weight-selector impulse with each vertex's weight-row extension; the
vanilla one stores one row sketch per (vertex, weight) class, which
makes every round check an exact polynomial identity rather than a
sum over selectors. Both close with an intersection check proving no
edge leaves the discovered region, which is what certifies the claimed
horizon and the unreachable remainder.
"""

from __future__ import annotations

from collections import deque

import networkx as nx
import numpy as np

from .edgecount import (LineArray, adjacency_matrix, degree_grid, extend_x,
                        line_rows)
from .extension import (dot_mod, extend_rows, impulse_array, impulse_block,
                        power_table)
from .field import FieldConfig, fe_random
from .graphapps import _final_graph
from .oracle import oracle_bfs, oracle_dijkstra
from .protocol import (Scheme, StreamState, cached_build, register,
                       stream_pass)
from .setops import (LineCheck, StreamEdgeCheck, dense_indicator,
                     edge_extension, line_check_help, stream_keys,
                     undirected_key, weighted_key)
from .stream import ProofTranscript, RejectError


def _horizon(dist) -> int:
    """Largest finite distance, 0 when nothing is reached."""
    return max((d for d in dist[1:] if d is not None), default=0)


def _ball_stream(scheme, inst, p, rng, meter) -> StreamState:
    """Stream side of the unweighted schemes' round-by-round audit: the
    adjacency line a(r1, y, r2), the source row fingerprinted at b0, and
    the powers of b0, b1 and beta that the rounds read."""
    n, sc, src = scheme.n, scheme.sc, inst.source
    r1, r2 = fe_random(rng, p), fe_random(rng, p)
    beta = fe_random(rng, p)
    b0 = fe_random(rng, p)
    b1 = fe_random(rng, p)
    impn = impulse_array(r2, n, p)
    # b0^v, b1^v and beta^v for v = 1..n
    b0pow, b1col, betapow = power_table([b0, b1, beta], n + 1, p)[:, 1:]
    asketch = LineArray(sc, r1, p)
    ball = LineArray(sc, r1, p)
    meter.alloc("adjacency_line", asketch.cells)
    meter.alloc("ball_line", ball.cells)
    meter.alloc("registers", 16)
    u, v, delta, _ = inst.edges
    d_ = delta % p
    asketch.add(u, d_ * impn[v - 1] % p)
    asketch.add(v, d_ * impn[u - 1] % p)
    g0 = int((d_[u == src] * b0pow[v[u == src] - 1] % p).sum()
             + (d_[v == src] * b0pow[u[v == src] - 1] % p).sum()) % p
    return StreamState(point=(r1, r2), b0pow=b0pow, b1col=b1col,
                       b1pow=tuple(b1col.tolist()), betapow=betapow,
                       asketch=asketch, ball=ball, g0=g0)


class _BallAudit:
    """Help side of the unweighted schemes' round-by-round audit.

    Every round checks one ball polynomial at (r1, r2) against the ball
    line b(r1, y), links its partial sums to the degree vector by a
    fingerprint at beta, and rebuilds its own copy of the ball line in
    place from that vector. `psi_prev` and `psi_cur` fingerprint the last
    two balls, so their equality means the ball stopped growing.
    """

    def __init__(self, scheme, inst, p, st):
        self.n, self.sc, self.p, self.st = scheme.n, scheme.sc, p, st
        self.src = inst.source
        self.ball = st.ball.copy()
        self.psi_prev = self.psi_cur = st.b1pow[self.src - 1]

    def _next_ball(self, q):
        """Ball line and fingerprint of {source} plus the support of q."""
        ball = self.ball
        members = np.flatnonzero(q) + 1
        members = np.concatenate([[self.src], members[members != self.src]])
        ball.arr[:] = 0
        ball.add(members)
        psi = int(self.st.b1col[members - 1].sum()) % self.p
        self.psi_prev, self.psi_cur = self.psi_cur, psi

    def horizon(self, reader) -> int:
        """Read the claimed horizon, at most n - 1 rounds."""
        Dhat = reader.scalar("horizon")
        if not 0 <= Dhat <= max(self.n - 1, 0):
            raise RejectError("distance horizon out of range")
        return Dhat

    def source_round(self, reader):
        """Read the source degree row, check it and grow the first ball."""
        p = self.p
        q0 = reader.scalars("source_degrees", self.n) % p
        if int((q0 * self.st.b0pow % p).sum() % p) != self.st.g0:
            raise RejectError("source degree row does not match the stream")
        self._next_ball(q0)
        return q0

    def round(self, reader, d):
        """Audit round d; returns its degree vector."""
        p, t, st = self.p, self.sc.t, self.st
        rhs = int((self.ball.arr * st.asketch.arr % p).sum() % p)
        ball = reader.claim(
            "ball_poly", (2 * t - 1, self.n), st.point, rhs,
            f"round {d}: ball polynomial wrong at random point")
        # sum_{x in [t], v in [n]} beta^v ball(x, v): the degrees' fingerprint
        link = ball.total((t, st.betapow))
        qd = reader.scalars("round_degrees", self.n) % p
        if int((qd * st.betapow % p).sum() % p) != link:
            raise RejectError(f"round {d}: degree fingerprints disagree")
        self._next_ball(qd)
        return qd


@register
class SsspUnweighted(Scheme):
    """Single-source distances on an unweighted edge stream.

    Transcript: claimed horizon, the label vector, the source degree
    row, then one (ball polynomial, degree vector) pair per round. The
    verifier keeps two s-cell lines: the adjacency restriction
    a(r1, y, r2) filled during the stream, and the current ball
    restriction b(r1, y) rebuilt in place after every round.
    """

    name = "sssp-unweighted"
    output_kind = "labels"
    header_fields = ("source",)
    scalar_flip_labels = ("source_degrees", "round_degrees")

    def oracle_value(self, inst):
        return tuple(oracle_bfs(inst)[1:])

    # prover ------------------------------------------------------------

    def _distances(self, inst) -> list:
        def build():
            src = inst.source
            adj = [[] for _ in range(inst.n + 1)]
            for (u, v) in inst.final_edges():
                adj[u].append(v)
                adj[v].append(u)
            dist = [None] * (inst.n + 1)
            dist[src] = 0
            queue = deque([src])
            while queue:
                v = queue.popleft()
                for u in adj[v]:
                    if dist[u] is None:
                        dist[u] = dist[v] + 1
                        queue.append(u)
            return dist
        return inst.cached(f"bfs:{inst.source}", build)

    def _assemble(self, inst, Dhat: int, labels, p: int) -> ProofTranscript:
        n, t, src = self.n, self.t, inst.source
        tr = ProofTranscript()
        tr.add_scalars("horizon", [Dhat])
        if labels is not None:
            tr.add_scalars("distance_labels", labels)
        Amat = adjacency_matrix(inst, p)
        q = Amat[src - 1].copy()
        tr.add_scalars("source_degrees", q.tolist())
        Dt = degree_grid(t, p)
        # the ball polynomial at (w, d) is sum_y chi_ball(w, y) E[w, y, d]
        ext = np.ascontiguousarray(
            extend_x(Amat, self.sc, p).transpose(0, 2, 1))  # (w, d, y)
        ball = {src} | {int(u) + 1 for u in np.flatnonzero(q)}
        for _ in range(Dhat):
            chi = line_rows([ball], self.sc, Dt, p)[0]
            tr.add_values("ball_poly", dot_mod(ext, chi[:, None, :], p), p)
            q = Amat[:, [v - 1 for v in ball]].sum(axis=1) % p
            tr.add_scalars("round_degrees", q.tolist())
            ball = {src} | {int(u) + 1 for u in np.flatnonzero(q)}
        return tr

    def prove(self, inst, p: int) -> ProofTranscript:
        dist = self._distances(inst)
        Dhat = _horizon(dist)
        labels = [dist[v] if dist[v] is not None else Dhat + 1
                  for v in range(1, inst.n + 1)]
        return self._assemble(inst, Dhat, labels, p)

    def hcost_bound(self, inst) -> int:
        Dhat = _horizon(self._distances(inst))
        n, wt = self.n, 2 * self.t - 1
        return 1 + 2 * n + Dhat * (wt * n + n)

    def vcost_bound(self, inst) -> int:
        return 2 * self.s + 16

    # verifier ----------------------------------------------------------

    def stream_side(self, inst, p, rng, meter):
        st = _ball_stream(self, inst, p, rng, meter)
        st.b2 = fe_random(rng, p)  # the labels' fingerprint variable
        return st

    def run_verifier(self, inst, reader, p, rng, meter):
        n, st = self.n, stream_pass(self, inst, p, rng, meter)
        audit = _BallAudit(self, inst, p, st)

        Dhat = audit.horizon(reader)
        b2pow = power_table([st.b2], Dhat + 2, p)[0].tolist()
        span = [0] * (Dhat + 2)
        for d in range(Dhat, 0, -1):
            span[d] = (span[d + 1] + b2pow[d]) % p
        labels = reader.scalars("distance_labels", n)
        value = []
        phi_hat = 0
        for v in range(1, n + 1):
            lab = int(labels[v - 1])
            if not 0 <= lab <= Dhat + 1:
                raise RejectError("distance label out of range")
            if (lab == 0) != (v == audit.src):
                raise RejectError("label zero must mark the source alone")
            value.append(lab if lab <= Dhat else None)
            phi_hat = (phi_hat + st.b1pow[v - 1] * span[max(1, lab)]) % p

        audit.source_round(reader)
        phi = b2pow[1] * audit.psi_cur % p if Dhat >= 1 else 0
        for d in range(1, Dhat + 1):
            audit.round(reader, d)
            if d + 1 <= Dhat:
                phi = (phi + b2pow[d + 1] * audit.psi_cur) % p

        if audit.psi_cur != audit.psi_prev:
            raise RejectError("ball still growing at the claimed horizon")
        if phi != phi_hat:
            raise RejectError("labels do not match the discovered balls")
        return tuple(value)

    # adversary ---------------------------------------------------------

    def mutate_output(self, inst, transcript, p, rng):
        src = inst.source
        out = transcript.copy()
        Dhat = int(out.blocks[0].values[0])
        blk = out.blocks[1]
        cands = []
        for v in range(1, inst.n + 1):
            if v == src:
                continue
            lab = int(blk.values[v - 1])
            alts = [x for x in range(1, Dhat + 2) if x != lab]
            if alts:
                cands.append((v, alts))
        if not cands:
            return None
        v, alts = cands[rng.randrange(len(cands))]
        blk.values[v - 1] = alts[rng.randrange(len(alts))]
        return out


@register
class StPath(SsspUnweighted):
    """Source-to-target distance; rounds stop at the first target hit.

    Same machinery as the full-labels scheme minus the label block: the
    answer is read off the first degree vector with a nonzero target
    entry. An unreachable target is only ever declared through the
    stabilization check: a ball that stops growing before it meets the
    target certifies the answer None, as it does for `sssp-unweighted`'s
    unreached labels.
    """

    name = "stpath"
    output_kind = "value"
    header_fields = ("source", "target")

    def oracle_value(self, inst):
        return oracle_bfs(inst)[inst.target]

    def _claimed_horizon(self, inst) -> int:
        dist = self._distances(inst)
        K = dist[inst.target]
        if inst.target == inst.source:
            return 0
        if K is not None:
            return K - 1
        return _horizon(dist)

    def prove(self, inst, p: int) -> ProofTranscript:
        return self._assemble(inst, self._claimed_horizon(inst), None, p)

    def hcost_bound(self, inst) -> int:
        n, wt = self.n, 2 * self.t - 1
        return 1 + n + self._claimed_horizon(inst) * (wt * n + n)

    def stream_side(self, inst, p, rng, meter):
        return _ball_stream(self, inst, p, rng, meter)

    def run_verifier(self, inst, reader, p, rng, meter):
        vt = inst.target
        audit = _BallAudit(self, inst, p, stream_pass(self, inst, p, rng,
                                                      meter))

        Dhat = audit.horizon(reader)
        q0 = audit.source_round(reader)
        hit = 0 if vt == audit.src else (1 if q0[vt - 1] else None)
        for d in range(1, Dhat + 1):
            qd = audit.round(reader, d)
            if hit is None and qd[vt - 1]:
                hit = d + 1

        if hit is not None:
            return int(hit)
        if audit.psi_cur != audit.psi_prev:
            raise RejectError("path status unresolved at the claimed horizon")
        return None

    def mutate_output(self, inst, transcript, p, rng):
        src, vt = inst.source, inst.target
        if vt == src:
            return None
        out = transcript.copy()
        qblocks = [b for b in out.blocks
                   if b.label in ("source_degrees", "round_degrees")]
        K = self._distances(inst)[vt]
        if K is not None and 2 <= K <= len(qblocks):
            qblocks[K - 2].values[vt - 1] = 1
        else:
            blk = qblocks[-1]
            blk.values[vt - 1] = (int(blk.values[vt - 1]) + 1) % p
        return out


class _WeightedScheme(Scheme):
    """Weighted distances: the shape knob is unused, W bounds the weights
    and the modulus must also exceed the largest relaxation round."""

    output_kind = "labels"
    header_fields = ("source",)

    def __init__(self, n: int, W: int):
        self.n = n
        self.W = W

    @classmethod
    def configure(cls, inst, t=None, s=None):
        return cls(inst.n, inst.W)

    def auto_field(self, inst):
        # a relaxation round reaches W(n-1): max(n^3, W^2 (n-1) n^2)
        return FieldConfig.auto_from_n(inst.n, D=inst.W * (inst.n - 1),
                                       W=inst.W)

    def oracle_value(self, inst):
        return tuple(oracle_dijkstra(inst)[1:])

    def _labels(self, inst):
        """(dist, prev) over the final graph's edge weights: the distance
        from the source (None where unreached) and the least predecessor
        on a shortest path (0 at the source and where unreached)."""
        def build():
            preds, dmap = nx.dijkstra_predecessor_and_distance(
                _final_graph(inst), inst.source)
            dist = [None] * (inst.n + 1)
            prev = [0] * (inst.n + 1)
            for v, d in dmap.items():
                dist[v] = int(d)
                prev[v] = min(preds[v], default=0)
            return dist, prev
        return inst.cached(f"wlabels:{inst.source}", build)

    def _crossing_keys(self, reached) -> np.ndarray:
        """Keys of the vertex pairs with exactly one end in `reached`."""
        n = self.n
        inside = np.zeros(n + 1, dtype=bool)
        inside[list(reached)] = True
        u, v = np.triu_indices(n, 1)
        cross = inside[u + 1] != inside[v + 1]
        return undirected_key(u[cross] + 1, v[cross] + 1, n)

    def _frontier_help(self, inst, reached, p) -> np.ndarray:
        """Intersection help, on its nodes, for the final edges against the
        pairs that cross out of `reached`."""
        n = self.n
        return line_check_help(dense_indicator(self._crossing_keys(reached),
                                               (n, n)),
                               edge_extension(inst, (n, n), p), p,
                               "intersect")

    def _check_frontier(self, inter, reader, reached, reason):
        """Finish a copy of the edge-side intersection `inter` against the
        pairs crossing out of `reached`; rejects with `reason` unless
        empty."""
        inter = inter.copy()
        inter.add_right(self._crossing_keys(reached))
        if inter.finish(reader, "frontier_inter", "frontier") != 0:
            raise RejectError(reason)


@register
class SsspWeightedTurnstile(_WeightedScheme):
    """Weighted distances where updates accumulate into edge weights.

    The verifier spends a cell per vertex: one sketch of each weight
    row, the label table it fills itself, and the source row kept
    exactly for bootstrapping the first ball. Round d sends one
    univariate polynomial, the sum of weight selectors over vertices
    that could relax a neighbor to distance d+1; the verifier checks it
    at a random point against its row sketches, then reads new labels
    off the vertex grid values.
    """

    name = "sssp-wturnstile"
    models = ("turnstile",)
    weight_bounded = True

    # prover ------------------------------------------------------------

    def prove(self, inst, p: int) -> ProofTranscript:
        n, W = self.n, self.W
        dist = self._labels(inst)[0]
        Dhat = _horizon(dist)
        tr = ProofTranscript()
        tr.add_scalars("horizon", [Dhat])
        M = W * (n - 1) + 1
        Vals = extend_rows(adjacency_matrix(inst, p), p, count=M)
        # the weight-w selector over the nodes {0..W} is the impulse at
        # w+1 over [W+1]: column w of each reached vertex's block
        sel = {v: impulse_block(Vals[:, v - 1] + 1, W + 1, p)
               for v in range(1, n + 1) if dist[v] is not None}
        for d in range(1, Dhat):
            pv = sum((block[:, d + 1 - dist[v]] for v, block in sel.items()
                      if d - W < dist[v] <= d), np.zeros(M, dtype=np.int64))
            tr.add_values("round_poly", pv, p)
        tr.add_values("frontier_inter",
                      self._frontier_help(inst, set(sel), p), p)
        return tr

    def hcost_bound(self, inst) -> int:
        n, W = self.n, self.W
        M = W * (n - 1) + 1
        Dhat = _horizon(self._labels(inst)[0])
        return 1 + max(Dhat - 1, 0) * M + (2 * n - 1)

    def vcost_bound(self, inst) -> int:
        return 5 * self.n + 16

    # verifier ----------------------------------------------------------

    def stream_side(self, inst, p, rng, meter):
        n, src = self.n, inst.source
        rho = fe_random(rng, p)
        rho_e = fe_random(rng, p)
        impn = impulse_array(rho, n, p)
        row = np.zeros(n, dtype=np.int64)
        wrow = np.zeros(n, dtype=np.int64)
        inter = LineCheck((n, n), rho_e, p, "intersect")
        meter.alloc("distance_labels", n)
        meter.alloc("row_sketch", n)
        meter.alloc("source_row", n)
        meter.alloc("frontier_lines", inter.cells)
        meter.alloc("registers", 16)
        u, v, delta, _ = inst.edges
        d_ = delta % p
        np.add.at(row, u - 1, d_ * impn[v - 1] % p)
        np.add.at(row, v - 1, d_ * impn[u - 1] % p)
        row %= p
        np.add.at(wrow, v[u == src] - 1, delta[u == src])
        np.add.at(wrow, u[v == src] - 1, delta[v == src])
        inter.add_left(*stream_keys(inst, "undirected"))
        return StreamState(rho=rho, row=row, wrow=wrow, inter=inter)

    def run_verifier(self, inst, reader, p, rng, meter):
        n, W, src = self.n, self.W, inst.source
        st = stream_pass(self, inst, p, rng, meter)
        rho, row, wrow = st.rho, st.row, st.wrow
        Dhat = reader.scalar("horizon")
        if not 0 <= Dhat <= W * (n - 1):
            raise RejectError("distance horizon out of range")
        dist = [None] * (n + 1)
        dist[src] = 0
        for u in range(1, n + 1):
            if u != src and wrow[u - 1] == 1:
                dist[u] = 1
        meter.free("source_row")

        M = W * (n - 1) + 1
        meter.alloc("round_values", n)
        for d in range(1, Dhat):
            # the selector of weight w = d + 1 - dist at each row sketch
            rhs = sum(impulse_array(row[v - 1] + 1, W + 1, p)[d + 1 - dv]
                      for v, dv in enumerate(dist[1:], 1)
                      if dv is not None and d - W < dv <= d)
            grid = reader.claim(
                "round_poly", (M,), (rho,), rhs,
                f"round {d}: relaxation polynomial wrong at random point"
            ).on_nodes(n)
            for u in range(1, n + 1):
                if dist[u] is None and grid[u - 1]:
                    dist[u] = d + 1
        meter.free("round_values")
        meter.free("row_sketch")

        reached = {v for v in range(1, n + 1) if dist[v] is not None}
        self._check_frontier(st.inter, reader, reached,
                             "an edge leaves the discovered region")
        return tuple(dist[1:])

    # adversary ---------------------------------------------------------

    def mutate_output(self, inst, transcript, p, rng):
        n, src = self.n, inst.source
        dist = self._labels(inst)[0]
        Dhat = int(transcript.blocks[0].values[0])
        if Dhat < 2:
            return None
        cands = [u for u in range(1, n + 1)
                 if u != src and (dist[u] is None or dist[u] > 2)]
        if not cands:
            return None
        u = cands[rng.randrange(len(cands))]
        out = transcript.copy()
        blk = next(b for b in out.blocks if b.label == "round_poly")
        impulse = np.zeros(blk.shape, dtype=np.int64)
        impulse[u - 1] = 1
        blk.add_values(impulse, p)
        return out


@register
class SsspWeightedVanilla(_WeightedScheme):
    """Weighted distances with one row sketch per weight class.

    Labels and parent pointers arrive first; parents induce weighted
    edges that must sit inside the stream (containment check), which
    upper-bounds every label. Round polynomials are label-relaxation
    counts whose point check against the per-weight sketches is an
    exact identity, and a nonzero count at a vertex forces its label
    down, which lower-bounds the labels. A final intersection proves
    the unlabeled remainder is cut off.
    """

    name = "sssp-wvanilla"
    models = ("weighted",)
    scalar_flip_labels = ("distance_labels", "parent_labels")

    def __init__(self, n: int, W: int):
        super().__init__(n, W)
        self.tree = StreamEdgeCheck((n * W, n), "weighted", "subset",
                                    "tree_subset", "parent edges")

    # prover ------------------------------------------------------------

    @cached_build
    def _assemble(self, inst, dist, prev, p, zero_entry=None):
        n, W, src = self.n, self.W, inst.source
        SENT = W * (n - 1) + 1
        Dhat = _horizon(dist)
        labs = np.array([SENT if x is None else x for x in dist[1:]])
        tr = ProofTranscript()
        tr.add_scalars("distance_labels", labs.tolist())
        tr.add_scalars("parent_labels", list(prev[1:]))
        Wmat = adjacency_matrix(inst, p)
        for d in range(Dhat):
            # the neighbours of the vertices labelled d + 1 - w by weight w
            near = np.flatnonzero((labs <= d) & (labs > d - W))
            cv = (Wmat[near] == d + 1 - labs[near, None]).sum(axis=0)
            if zero_entry is not None and zero_entry[0] == d:
                cv[zero_entry[1] - 1] = 0
            tr.add_values("round_poly", cv, p)
        self.tree.prove(tr, inst, [
            weighted_key(prev[v], v, dist[v] - dist[prev[v]], n, W)
            for v in range(1, n + 1) if v != src and dist[v] is not None], p)
        reached = {v for v in range(1, n + 1) if dist[v] is not None}
        tr.add_values("frontier_inter",
                      self._frontier_help(inst, reached, p), p)
        return tr

    def prove(self, inst, p: int) -> ProofTranscript:
        dist, prev = self._labels(inst)
        return self._assemble(inst, dist, prev, p)

    def hcost_bound(self, inst) -> int:
        n, W = self.n, self.W
        Dhat = _horizon(self._labels(inst)[0])
        return 2 * n + Dhat * n + (2 * n * W - 1) + (2 * n - 1)

    def vcost_bound(self, inst) -> int:
        return self.n * self.W + 8 * self.n + 16

    # verifier ----------------------------------------------------------

    def stream_side(self, inst, p, rng, meter):
        n, W = self.n, self.W
        rho = fe_random(rng, p)
        rho_w = fe_random(rng, p)
        rho_e = fe_random(rng, p)
        impn = impulse_array(rho, n, p)
        F = np.zeros((n, W), dtype=np.int64)
        tree = self.tree.stream(inst, rho_w, p, meter)
        inter = LineCheck((n, n), rho_e, p, "intersect")
        meter.alloc("weight_table", n * W)
        meter.alloc("labels", 2 * n)
        meter.alloc("frontier_lines", inter.cells)
        meter.alloc("registers", 16)
        u, v, _, w = inst.edges
        np.add.at(F, (u - 1, w - 1), impn[v - 1])
        np.add.at(F, (v - 1, w - 1), impn[u - 1])
        F %= p
        inter.add_left(*stream_keys(inst, "undirected"))
        return StreamState(rho=rho, F=F, tree=tree, inter=inter)

    def run_verifier(self, inst, reader, p, rng, meter):
        n, W, src = self.n, self.W, inst.source
        st = stream_pass(self, inst, p, rng, meter)
        rho, F = st.rho, st.F
        SENT = W * (n - 1) + 1
        labs = reader.scalars("distance_labels", n)
        prevs = reader.scalars("parent_labels", n)
        lab = [0] * (n + 1)
        for v in range(1, n + 1):
            lab[v] = int(labs[v - 1])
            if not 0 <= lab[v] <= SENT:
                raise RejectError("distance label out of range")
            if (lab[v] == 0) != (v == src):
                raise RejectError("label zero must mark the source alone")
        tree: list = []
        for v in range(1, n + 1):
            pv = int(prevs[v - 1])
            if v == src or lab[v] == SENT:
                if pv != 0:
                    raise RejectError("parent set on source or unreachable "
                                      "vertex")
                continue
            if not 1 <= pv <= n or pv == v:
                raise RejectError("parent label out of range")
            w = lab[v] - lab[pv]
            if not 1 <= w <= W:
                raise RejectError("implied tree weight out of range")
            tree.append(weighted_key(pv, v, w, n, W))

        labs = np.array(lab[1:], dtype=np.int64)
        Dhat = int(labs[labs < SENT].max(initial=0))
        meter.alloc("round_values", n)
        for d in range(Dhat):
            # round d counts the relaxations by weight w = d + 1 - label
            near = np.flatnonzero((labs <= d) & (labs > d - W))
            counts = reader.claim(
                "round_poly", (n,), (rho,), int(F[near, d - labs[near]].sum()),
                f"round {d}: relaxation count wrong at sketch point")
            if (counts.on_nodes(n).astype(bool) & (labs > d + 1)).any():
                raise RejectError(
                    f"round {d}: a label exceeds its relaxation round")
        meter.free("round_values")

        self.tree.check(st.tree, reader, np.array(tree, dtype=np.int64))
        reached = {v for v in range(1, n + 1) if lab[v] < SENT}
        self._check_frontier(st.inter, reader, reached,
                             "an edge leaves the labeled region")
        return tuple(lab[v] if lab[v] < SENT else None
                     for v in range(1, n + 1))

    # adversary ---------------------------------------------------------

    def mutate_output(self, inst, transcript, p, rng):
        n, W, src = self.n, self.W, inst.source
        dist, prev = self._labels(inst)
        Wmat = adjacency_matrix(inst, p)
        children = {prev[x] for x in range(1, n + 1)
                    if x != src and dist[x] is not None}
        cands = []
        for u in range(1, n + 1):
            if u == src or dist[u] is None or u in children:
                continue
            # second-best relaxation value, so no round between the true
            # label and the lie can expose the switch by itself
            relax = {}
            for v in range(1, n + 1):
                w = int(Wmat[u - 1, v - 1])
                if w and dist[v] is not None:
                    relax.setdefault(dist[v] + w, v)
            vals = sorted(relax)
            if len(vals) >= 2 and vals[1] <= W * (n - 1):
                cands.append((u, relax[vals[1]], vals[1]))
        if not cands:
            return None
        u, v, lie = cands[rng.randrange(len(cands))]
        dist2, prev2 = list(dist), list(prev)
        dist2[u], prev2[u] = lie, v
        return self._assemble(inst, dist2, prev2, p,
                              zero_entry=(dist[u] - 1, u))
