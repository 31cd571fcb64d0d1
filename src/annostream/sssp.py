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
from .extension import (coeffs_from_values_1d, coeffs_from_values_nd,
                        dot_mod, eval_on_nodes, extend_rows, impulse_block,
                        impulse_table, nd_eval, power_moments, power_sums,
                        power_table)
from .field import FieldConfig, fe_random
from .graphapps import _cached
from .oracle import oracle_bfs, oracle_dijkstra
from .protocol import Scheme, register, _clone_transcript
from .setops import (LineCheck, dense_indicator, line_check_help,
                     undirected_key, weighted_key)
from .stream import ProofTranscript, RejectError


def _mult_weighted_graph(inst) -> nx.Graph:
    """Aggregated turnstile stream as a weighted graph."""
    def build():
        G = nx.Graph()
        G.add_nodes_from(range(1, inst.n + 1))
        for (u, v), c in inst.final_edges().items():
            G.add_edge(u, v, weight=int(c))
        return G
    return _cached(inst, "wgraph", build)


def _horizon(dist) -> int:
    """Largest finite distance, 0 when nothing is reached."""
    return max((d for d in dist[1:] if d is not None), default=0)


class _BallAudit:
    """Verifier state of the unweighted schemes' round-by-round audit.

    The stream pass fills the adjacency line a(r1, y, r2) and the source
    row fingerprint; every round then checks one ball polynomial at
    (r1, r2) against the ball line b(r1, y), links its partial sums to
    the degree vector by a fingerprint at beta, and rebuilds the ball
    line in place from that vector. `psi_prev` and `psi_cur` fingerprint
    the last two balls, so their equality means the ball stopped growing.
    """

    def __init__(self, scheme, inst, p, rng, meter):
        n, t = scheme.n, scheme.t
        self.n, self.sc, self.p = n, scheme.sc, p
        self.src = src = inst.source
        self.r1, self.r2 = fe_random(rng, p), fe_random(rng, p)
        beta = fe_random(rng, p)
        b0 = fe_random(rng, p)
        b1 = fe_random(rng, p)
        impn = np.array(impulse_table(self.r2, n, p), dtype=np.int64)
        # b0^v, b1^v and beta^v for v = 1..n
        b0pow, self.b1col, self.betapow = power_table([b0, b1, beta], n + 1,
                                                      p)[:, 1:]
        self.b0pow, self.b1pow = b0pow, self.b1col.tolist()
        self.asketch = asketch = LineArray(self.sc, self.r1, p)
        self.ball = LineArray(self.sc, self.r1, p)
        meter.alloc("adjacency_line", asketch.cells)
        meter.alloc("ball_line", self.ball.cells)
        meter.alloc("registers", 16)
        u, v, delta, _ = inst.edges
        d_ = delta % p
        asketch.add(u, d_ * impn[v - 1] % p)
        asketch.add(v, d_ * impn[u - 1] % p)
        # the source row, fingerprinted at b0
        self.g0 = int((d_[u == src] * b0pow[v[u == src] - 1] % p).sum()
                      + (d_[v == src] * b0pow[u[v == src] - 1] % p).sum()) % p
        self.psi_prev = self.psi_cur = self.b1pow[src - 1]
        self.S_X = power_sums(t, 2 * t - 1, p)
        self.tau = power_moments(self.betapow, n, p)  # sum_v beta^v v^j

    def _next_ball(self, q):
        """Ball line and fingerprint of {source} plus the support of q."""
        ball = self.ball
        members = np.flatnonzero(q) + 1
        members = np.concatenate([[self.src], members[members != self.src]])
        ball.arr[:] = 0
        ball.add(members)
        psi = int(self.b1col[members - 1].sum()) % self.p
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
        if int((q0 * self.b0pow % p).sum() % p) != self.g0:
            raise RejectError("source degree row does not match the stream")
        self._next_ball(q0)
        return q0

    def round(self, reader, d):
        """Audit round d; returns its degree vector."""
        p = self.p
        C = reader.coeffs("ball_poly", (2 * self.sc.t - 1, self.n))
        rhs = int((self.ball.arr * self.asketch.arr % p).sum() % p)
        if nd_eval(C, (self.r1, self.r2), p) != rhs:
            raise RejectError(
                f"round {d}: ball polynomial wrong at random point")
        rows = (self.S_X[:, None] * C % p) * self.tau[None, :] % p
        link = int((rows.sum(axis=1) % p).sum() % p)
        qd = reader.scalars("round_degrees", self.n) % p
        if int((qd * self.betapow % p).sum() % p) != link:
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
    mutations = ("coefficient_flip", "block_truncation", "output_value_lie",
                 "qd_scalar_flip")
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
        return _cached(inst, f"bfs:{inst.source}", build)

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
            tr.add_coeffs("ball_poly", coeffs_from_values_nd(
                dot_mod(ext, chi[:, None, :], p), p))
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

    def run_verifier(self, inst, reader, p, rng, meter):
        n = self.n
        audit = _BallAudit(self, inst, p, rng, meter)
        b2 = fe_random(rng, p)

        Dhat = audit.horizon(reader)
        b2pow = power_table([b2], Dhat + 2, p)[0].tolist()
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
            phi_hat = (phi_hat + audit.b1pow[v - 1] * span[max(1, lab)]) % p

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
        out = _clone_transcript(transcript)
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
    stabilization check, and surfaces as a reject verdict.
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

    def run_verifier(self, inst, reader, p, rng, meter):
        vt = inst.target
        audit = _BallAudit(self, inst, p, rng, meter)

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
        raise RejectError("unreachable: ball stabilized before the target")

    def mutate_output(self, inst, transcript, p, rng):
        src, vt = inst.source, inst.target
        if vt == src:
            return None
        out = _clone_transcript(transcript)
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
    def configure(cls, inst, t=None, s=None, **kw):
        return cls(inst.n, inst.W)

    def auto_field(self, inst):
        # a relaxation round reaches W(n-1): max(n^3, W^2 (n-1) n^2)
        return FieldConfig.auto_from_n(inst.n, D=inst.W * (inst.n - 1),
                                       W=inst.W)

    def oracle_value(self, inst):
        return tuple(oracle_dijkstra(inst)[1:])

    def _weight_matrix(self, inst, edges, key) -> np.ndarray:
        """Symmetric n x n matrix of the (u, v, weight) edges, cached
        under `key`."""
        def build():
            Wmat = np.zeros((self.n, self.n), dtype=np.int64)
            for (u, v, w) in edges:
                Wmat[u - 1, v - 1] = w
                Wmat[v - 1, u - 1] = w
            return Wmat
        return _cached(inst, key, build)

    def _crossing_keys(self, reached) -> np.ndarray:
        """Keys of the vertex pairs with exactly one end in `reached`."""
        n = self.n
        inside = np.zeros(n + 1, dtype=bool)
        inside[list(reached)] = True
        u, v = np.triu_indices(n, 1)
        cross = inside[u + 1] != inside[v + 1]
        return undirected_key(u[cross] + 1, v[cross] + 1, n)

    def _frontier_help(self, edges, reached, p) -> np.ndarray:
        """Intersection help for the (u, v, count) edges against the
        pairs that cross out of `reached`."""
        n = self.n
        items = [(undirected_key(u, v, n), c) for (u, v, c) in edges]
        crossing = [(key, 1) for key in self._crossing_keys(reached).tolist()]
        return line_check_help(dense_indicator(items, (n, n)),
                               dense_indicator(crossing, (n, n)), p,
                               "intersect")

    def _check_frontier(self, inter, reader, reached, reason):
        """Finish the edge-side intersection `inter` against the pairs
        crossing out of `reached`; rejects with `reason` unless empty."""
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
    mutations = ("coefficient_flip", "block_truncation", "output_value_lie")

    # prover ------------------------------------------------------------

    def _distances(self, inst) -> list:
        def build():
            dmap = nx.single_source_dijkstra_path_length(
                _mult_weighted_graph(inst), inst.source)
            dist = [None] * (inst.n + 1)
            for v, d in dmap.items():
                dist[v] = int(d)
            return dist
        return _cached(inst, f"wdist:{inst.source}", build)

    def prove(self, inst, p: int) -> ProofTranscript:
        n, W = self.n, self.W
        dist = self._distances(inst)
        Dhat = _horizon(dist)
        tr = ProofTranscript()
        tr.add_scalars("horizon", [Dhat])
        M = W * (n - 1) + 1
        edges = [(u, v, c) for (u, v), c in inst.final_edges().items()]
        Vals = extend_rows(self._weight_matrix(inst, edges, "wmat"), p,
                           count=M)
        # the weight-w selector over the nodes {0..W} is the impulse at
        # w+1 over [W+1]: column w of each reached vertex's block
        sel = {v: impulse_block(Vals[:, v - 1] + 1, W + 1, p)
               for v in range(1, n + 1) if dist[v] is not None}
        for d in range(1, Dhat):
            pv = sum((block[:, d + 1 - dist[v]] for v, block in sel.items()
                      if d - W < dist[v] <= d), np.zeros(M, dtype=np.int64))
            tr.add_coeffs("round_poly", coeffs_from_values_1d(pv % p, p))
        tr.add_coeffs("frontier_inter",
                      self._frontier_help(edges, set(sel), p))
        return tr

    def hcost_bound(self, inst) -> int:
        n, W = self.n, self.W
        M = W * (n - 1) + 1
        Dhat = _horizon(self._distances(inst))
        return 1 + max(Dhat - 1, 0) * M + (2 * n - 1)

    def vcost_bound(self, inst) -> int:
        return 5 * self.n + 16

    # verifier ----------------------------------------------------------

    def run_verifier(self, inst, reader, p, rng, meter):
        n, W, src = self.n, self.W, inst.source
        rho = fe_random(rng, p)
        rho_e = fe_random(rng, p)
        impn = np.array(impulse_table(rho, n, p), dtype=np.int64)
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
        inter.add_left(undirected_key(u, v, n), delta)

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
            C = reader.coeffs("round_poly", (M,))
            grid, pt = eval_on_nodes(C, n, p), nd_eval(C, (rho,), p)
            # the selector of weight w = d + 1 - dist at each row sketch
            rhs = sum(impulse_table(int(row[v - 1]) + 1, W + 1, p)[d + 1 - dv]
                      for v, dv in enumerate(dist[1:], 1)
                      if dv is not None and d - W < dv <= d) % p
            if pt != rhs:
                raise RejectError(
                    f"round {d}: relaxation polynomial wrong at random point")
            for u in range(1, n + 1):
                if dist[u] is None and grid[u - 1]:
                    dist[u] = d + 1
        meter.free("round_values")
        meter.free("row_sketch")

        reached = {v for v in range(1, n + 1) if dist[v] is not None}
        self._check_frontier(inter, reader, reached,
                             "an edge leaves the discovered region")
        return tuple(dist[1:])

    # adversary ---------------------------------------------------------

    def mutate_output(self, inst, transcript, p, rng):
        n, W, src = self.n, self.W, inst.source
        dist = self._distances(inst)
        Dhat = int(transcript.blocks[0].values[0])
        if Dhat < 2:
            return None
        cands = [u for u in range(1, n + 1)
                 if u != src and (dist[u] is None or dist[u] > 2)]
        if not cands:
            return None
        u = cands[rng.randrange(len(cands))]
        out = _clone_transcript(transcript)
        blk = next(b for b in out.blocks if b.label == "round_poly")
        M = W * (n - 1) + 1
        vals = np.zeros(M, dtype=np.int64)
        vals[u - 1] = 1
        blk.values = (np.asarray(blk.values, dtype=np.int64)
                      + coeffs_from_values_1d(vals, p)) % p
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
    mutations = ("coefficient_flip", "block_truncation", "output_value_lie",
                 "qd_scalar_flip")
    scalar_flip_labels = ("distance_labels", "parent_labels")

    # prover ------------------------------------------------------------

    def _graph(self, inst) -> nx.Graph:
        def build():
            G = nx.Graph()
            G.add_nodes_from(range(1, inst.n + 1))
            for (u, v, w) in inst.weighted_edges():
                G.add_edge(u, v, weight=int(w))
            return G
        return _cached(inst, "wvgraph", build)

    def _labels(self, inst):
        def build():
            src = inst.source
            preds, dmap = nx.dijkstra_predecessor_and_distance(
                self._graph(inst), src)
            dist = [None] * (inst.n + 1)
            prev = [0] * (inst.n + 1)
            for v, d in dmap.items():
                dist[v] = int(d)
            for v in range(1, inst.n + 1):
                if v != src and dist[v] is not None:
                    prev[v] = min(preds[v])
            return dist, prev
        return _cached(inst, f"wvlabels:{inst.source}", build)

    def _assemble(self, inst, dist, prev, p, zero_entry=None):
        n, W, src = self.n, self.W, inst.source
        SENT = W * (n - 1) + 1
        Dhat = _horizon(dist)
        labs = np.array([SENT if x is None else x for x in dist[1:]])
        tr = ProofTranscript()
        tr.add_scalars("distance_labels", labs.tolist())
        tr.add_scalars("parent_labels", list(prev[1:]))
        Wmat = self._weight_matrix(inst, inst.weighted_edges(), "wvmat")
        for d in range(Dhat):
            # the neighbours of the vertices labelled d + 1 - w by weight w
            near = np.flatnonzero((labs <= d) & (labs > d - W))
            cv = (Wmat[near] == d + 1 - labs[near, None]).sum(axis=0)
            if zero_entry is not None and zero_entry[0] == d:
                cv[zero_entry[1] - 1] = 0
            tr.add_coeffs("round_poly", coeffs_from_values_1d(cv % p, p))
        tree = [(weighted_key(prev[v], v, dist[v] - dist[prev[v]], n, W), 1)
                for v in range(1, n + 1)
                if v != src and dist[v] is not None]
        edges = [(weighted_key(u, v, w, n, W), 1)
                 for (u, v, w) in inst.weighted_edges()]
        wdims = (n * W, n)
        tr.add_coeffs("tree_subset", line_check_help(
            dense_indicator(tree, wdims),
            dense_indicator(edges, wdims), p, "subset"))
        reached = {v for v in range(1, n + 1) if dist[v] is not None}
        tr.add_coeffs("frontier_inter", self._frontier_help(
            [(u, v, 1) for (u, v, w) in inst.weighted_edges()], reached, p))
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

    def run_verifier(self, inst, reader, p, rng, meter):
        n, W, src = self.n, self.W, inst.source
        rho = fe_random(rng, p)
        rho_w = fe_random(rng, p)
        rho_e = fe_random(rng, p)
        impn = np.array(impulse_table(rho, n, p), dtype=np.int64)
        F = np.zeros((n, W), dtype=np.int64)
        sub = LineCheck((n * W, n), rho_w, p, "subset")
        inter = LineCheck((n, n), rho_e, p, "intersect")
        meter.alloc("weight_table", n * W)
        meter.alloc("labels", 2 * n)
        meter.alloc("tree_lines", sub.cells)
        meter.alloc("frontier_lines", inter.cells)
        meter.alloc("registers", 16)
        u, v, _, w = inst.edges
        np.add.at(F, (u - 1, w - 1), impn[v - 1])
        np.add.at(F, (v - 1, w - 1), impn[u - 1])
        F %= p
        sub.add_right(weighted_key(u, v, w, n, W))
        inter.add_left(undirected_key(u, v, n))

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
        sub.add_left(np.array(tree, dtype=np.int64))

        labs = np.array(lab[1:], dtype=np.int64)
        Dhat = int(labs[labs < SENT].max(initial=0))
        meter.alloc("round_values", n)
        for d in range(Dhat):
            C = reader.coeffs("round_poly", (n,))
            # round d counts the relaxations by weight w = d + 1 - label
            near = np.flatnonzero((labs <= d) & (labs > d - W))
            if nd_eval(C, (rho,), p) != int(F[near, d - labs[near]].sum()) % p:
                raise RejectError(
                    f"round {d}: relaxation count wrong at sketch point")
            if (eval_on_nodes(C, n, p).astype(bool) & (labs > d + 1)).any():
                raise RejectError(
                    f"round {d}: a label exceeds its relaxation round")
        meter.free("round_values")

        sub.finish(reader, "tree_subset", "parent edges")
        reached = {v for v in range(1, n + 1) if lab[v] < SENT}
        self._check_frontier(inter, reader, reached,
                             "an edge leaves the labeled region")
        return tuple(lab[v] if lab[v] < SENT else None
                     for v in range(1, n + 1))

    # adversary ---------------------------------------------------------

    def mutate_output(self, inst, transcript, p, rng):
        n, W, src = self.n, self.W, inst.source
        dist, prev = self._labels(inst)
        Wmat = self._weight_matrix(inst, inst.weighted_edges(), "wvmat")
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
