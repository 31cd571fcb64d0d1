"""Certified graph predicates: matchings, independent sets, orderings,
connectivity.

These schemes wrap the set machinery around combinatorial certificates:

* maximum matching uses matching edges as the lower-bound witness and a
  vertex set plus component partition for the Tutte-Berge upper bound
  2k = |U| + n - odd(G - U);
* maximal independent set checks independence (no induced pairs) and
  maximality (a pointer into the set from every outside vertex);
* topological order counts prefix-to-next edges, which reaches the
  stream's edge total only when every edge points forward;
* acyclicity branches on a claimed verdict: an order certificate, or a
  cycle whose edges are checked against the stream;
* component counting verifies one spanning-tree block per component,
  with back-referencing records so the verifier never stores the tree.

Each set relation is declared once per scheme: `setops.SameMultiset`
ties a list to a strictly increasing copy or to [n], `StreamEdgeCheck`
puts a key list inside the stream's edges and `edgecount.PairCount`
counts the edges inside member lists.
"""

from __future__ import annotations

import heapq
import math

import networkx as nx
import numpy as np

from .edgecount import (LineArray, PairCount, PairSketch, degree_grid,
                        line_rows, pair_charge, stream_adjacency)
from .extension import ShapeConfig, dot_mod
from .field import fe_random
from .oracle import (oracle_acyclic, oracle_components, oracle_is_mis,
                     oracle_is_toposort, oracle_max_matching)
from .protocol import (Scheme, StreamState, cached_build, register,
                       stream_pass)
from .setops import (KeyCheck, SameMultiset, StreamEdgeCheck, directed_key,
                     line_check_dims, monomial, undirected_key)
from .stream import ProofTranscript, RejectError


def inner_split(n: int, s: int):
    """Pair-sketch grid whose table fits in about s cells."""
    sp = max(1, math.isqrt(s))
    tp = -(-n // sp)
    return tp, sp


def _final_graph(inst) -> nx.Graph:
    """The final edges on the vertices 1..n, each carrying its weight
    (`GraphInstance.weighted_edges`) as "weight"."""
    def build():
        G = nx.Graph()
        G.add_nodes_from(range(1, inst.n + 1))
        G.add_weighted_edges_from(inst.weighted_edges())
        return G
    return inst.cached("graph", build)


def _maximum_matching(inst) -> list:
    """One maximum-cardinality matching of the final graph, sorted."""
    def build():
        m = nx.max_weight_matching(_final_graph(inst), maxcardinality=True)
        return sorted((min(a, b), max(a, b)) for a, b in m)
    return inst.cached("matching", build)


def _deficiency_witness(inst) -> list:
    """Vertex set attaining the matching-number duality minimum.

    This is the Gallai-Edmonds set A(G) = N(D) - D, where D is the set of
    inessential vertices (those missed by some maximum matching). D is
    read off one maximum matching M: it is the set of vertices reached
    from an M-exposed vertex by an even-length alternating path, i.e. the
    even-labelled vertices of one Edmonds alternating forest rooted at
    every exposed vertex, blossom members included (Edmonds 1965). M is
    maximum, so the search can never meet an augmenting path.
    """
    def build():
        G = _final_graph(inst)
        dset = _even_vertices(G, _maximum_matching(inst))
        nbrs = set()
        for v in dset:
            nbrs.update(G.neighbors(v))
        return sorted(nbrs - dset)
    return inst.cached("witness", build)


def _even_vertices(G, matching) -> set:
    """Even-labelled vertices of the alternating forest grown from every
    vertex the maximum matching leaves exposed.

    Edmonds' search over vertices 1..n with blossoms contracted in place:
    `base` maps a vertex to the base of its outermost blossom, `parent`
    holds the forest edge into each odd vertex (and, after contraction,
    the cross edges of the blossom). Vertex 0 stands for "none".
    """
    n = G.number_of_nodes()
    mate = [0] * (n + 1)
    for a, b in matching:
        mate[a], mate[b] = b, a
    parent = [0] * (n + 1)
    base = list(range(n + 1))
    even = [False] * (n + 1)
    queue = [v for v in range(1, n + 1) if not mate[v]]
    for v in queue:
        even[v] = True

    def root_path(a):
        """Blossom bases from a up to its tree's root."""
        path = []
        while True:
            a = base[a]
            path.append(a)
            if not mate[a]:
                return path
            a = parent[mate[a]]

    def mark_path(v, b, child, inside):
        while base[v] != b:
            inside.add(base[v])
            inside.add(base[mate[v]])
            parent[v] = child
            child = mate[v]
            v = parent[mate[v]]

    head = 0
    while head < len(queue):
        v = queue[head]
        head += 1
        for to in G.neighbors(v):
            if base[v] == base[to] or mate[v] == to:
                continue
            if even[to]:
                left = set(root_path(v))
                for b in root_path(to):
                    if b in left:
                        break
                else:
                    raise RuntimeError("augmenting path found: the "
                                       "matching is not maximum")
                inside = set()
                mark_path(v, b, to, inside)
                mark_path(to, b, v, inside)
                for u in range(1, n + 1):
                    if base[u] in inside:
                        base[u] = b
                        if not even[u]:
                            even[u] = True
                            queue.append(u)
            elif not parent[to]:  # matched: every exposed vertex is even
                parent[to] = v
                even[mate[to]] = True
                queue.append(mate[to])
    return {v for v in range(1, n + 1) if even[v]}


def _components_outside(inst, witness) -> list:
    outside = set(range(1, inst.n + 1)) - set(witness)
    return _groups(outside, inst.final_edges())


def _groups(vertices, edges) -> list:
    """Vertex sets of the components that `edges` form on `vertices`.

    Union-find; edges with an end outside `vertices` are ignored. Each
    group is sorted and groups come in order of their least member.
    """
    parent = {v: v for v in vertices}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for (u, v) in edges:
        if u in parent and v in parent:
            parent[find(u)] = find(v)
    groups: dict = {}
    for v in sorted(vertices):
        groups.setdefault(find(v), []).append(v)
    return list(groups.values())


def _keys_within(groups, n) -> np.ndarray:
    """Undirected edge keys of every pair of distinct members of a group."""
    keys = [np.zeros(0, dtype=np.int64)]
    for members in groups:
        mem = np.array(sorted(members), dtype=np.int64)
        i, j = np.triu_indices(mem.size, 1)
        keys.append(undirected_key(mem[i], mem[j], n))
    return np.concatenate(keys)


def _increasing(ids, n) -> bool:
    """Whether ids is strictly increasing inside [1, n]."""
    return not ids.size or (ids[0] >= 1 and ids[-1] <= n
                            and bool((ids[1:] > ids[:-1]).all()))


def _in_range(ids, n) -> bool:
    """Whether every id lies in [1, n] (ids below 1 wrap past n)."""
    return not ids.size or bool((ids - 1).view(np.uint64).max() < n)


_COPY = SameMultiset()  # a list against its strictly increasing copy
_PARTITION = SameMultiset("vertices")


def _replace_matched_vertex(scheme, inst, transcript, p, rng):
    """Vertex lie of both matching schemes: one id of the `matching` block
    replaced by another vertex."""
    out = transcript.copy()
    blk = next(b for b in out.blocks if b.label == "matching")
    if blk.values.size == 0:
        return None
    pos = rng.randrange(blk.values.size)
    old = int(blk.values[pos])
    blk.values[pos] = rng.choice([v for v in range(1, inst.n + 1) if v != old])
    return out


class _SplitScheme(Scheme):
    """Schemes carrying a pair sketch on a (tp, sp) grid plus line checks
    over the edge-key universe.

    By default the sketch sits on the inner split, a table of about s
    cells, and the line checks have width s; a subclass picks another
    grid by overriding `_grid`.
    """

    def __init__(self, n: int, t: int, s: int):
        super().__init__(n, t, s)
        self.tp, self.sp, width = self._grid(n, t, s)
        self.isc = ShapeConfig(n, self.tp, self.sp)
        self.edge_dims = line_check_dims(n * n, width)

    @staticmethod
    def _grid(n: int, t: int, s: int) -> tuple:
        """(tp, sp, line width) for the shape knob (t, s)."""
        return (*inner_split(n, s), s)


@register
class MatchingFrugal(_SplitScheme):
    """Maximum matching size with about 3s^2 cells of verifier state.

    The pair sketch sits on the main [t] x [s] grid (s^2 cells, each pair
    count's help its values on the (2t-1) x (2t-1) node grid, as in
    edgecount) and the edge containment check has line width s^2, so help
    and space trade along h * v ~ n^2 over the whole shape range.

    Transcript: k, the matching, its endpoints sorted, the duality
    witness set, the component partition of the rest, then a containment
    polynomial for the matching and the two pair-count polynomials whose
    equality pins the partition to the true components.
    """

    name = "maxmatch-frugal"
    simple_graph = True

    def __init__(self, n: int, t: int, s: int):
        super().__init__(n, t, s)
        self.matched = StreamEdgeCheck(self.edge_dims, "undirected", "subset",
                                       "matching_subset",
                                       "matching containment")
        self.pairs = PairCount(self.isc, counts=2)

    @staticmethod
    def _grid(n: int, t: int, s: int) -> tuple:
        return t, s, s * s

    def oracle_value(self, inst):
        return oracle_max_matching(inst)

    def hcost_bound(self, inst) -> int:
        k = oracle_max_matching(inst)
        H = self.edge_dims[0]
        return 2 + 4 * k + inst.n + (2 * H - 1) + 2 * (2 * self.t - 1) ** 2

    def vcost_bound(self, inst) -> int:
        # pair sketch, subset lines, four set lines, registers
        return self.s * self.s + 2 * self.edge_dims[1] + 4 * self.s + 12

    # prover ------------------------------------------------------------

    def _certificate(self, inst):
        matching = _maximum_matching(inst)
        witness = _deficiency_witness(inst)
        blocks = _components_outside(inst, witness)
        return matching, witness, blocks

    def prove(self, inst, p: int) -> ProofTranscript:
        matching, witness, blocks = self._certificate(inst)
        return self._assemble(inst, matching, witness, blocks, p)

    @cached_build
    def _assemble(self, inst, matching, witness, blocks, p) -> ProofTranscript:
        n = inst.n
        tr = ProofTranscript()
        tr.add_scalars("k", [len(matching)])
        flat = [v for e in matching for v in e]
        tr.add_vertices("matching", flat)
        tr.add_vertices("endpoints", sorted(flat))
        tr.add_vertices("witness", witness)
        tr.add_scalars("component_count", [len(blocks)])
        for blk in blocks:
            tr.add_vertices("component", blk)
        self.matched.prove(tr, inst, [undirected_key(a, b, n)
                                      for (a, b) in matching], p)
        wset = set(witness)
        outside = [v for v in range(1, n + 1) if v not in wset]
        self.pairs.prove(tr, "inside_pairs", inst, [outside], p)
        self.pairs.prove(tr, "block_pairs", inst, blocks, p)
        return tr

    # verifier ----------------------------------------------------------

    def stream_side(self, inst, p, rng, meter):
        r1, r2 = fe_random(rng, p), fe_random(rng, p)
        rho = fe_random(rng, p)
        gamma = fe_random(rng, p)
        meter.alloc("registers", 12)
        return StreamState(pairs=self.pairs.stream(inst, r1, r2, p, meter),
                           matched=self.matched.stream(inst, rho, p, meter),
                           ends=_COPY.stream(inst, gamma, p),
                           parts=_PARTITION.stream(inst, gamma, p))

    def run_verifier(self, inst, reader, p, rng, meter):
        n, st = inst.n, stream_pass(self, inst, p, rng, meter)
        k = reader.scalar("k")
        if not 0 <= k <= n // 2:
            raise RejectError("claimed matching size out of range")
        pairs = reader.vertices("matching", 2 * k)
        a, b = pairs[0::2], pairs[1::2]
        if not _in_range(pairs, n) or (a == b).any():
            raise RejectError("bad matching pair")
        ends = reader.vertices("endpoints", 2 * k)
        if not _increasing(ends, n):
            raise RejectError("endpoint list not strictly increasing")
        _COPY.check(st.ends, [pairs],
                    "endpoint list does not match the matching", copy=[ends])

        witness = reader.vertices("witness")
        if not _in_range(witness, n):
            raise RejectError("witness vertex out of range")
        cblocks = reader.scalar("component_count")
        if not 0 <= cblocks <= n:
            raise RejectError("component count out of range")
        blocks = []
        for _ in range(cblocks):
            members = reader.vertices("component")
            if not _in_range(members, n):
                raise RejectError("component vertex out of range")
            blocks.append(members)
        odd = sum(len(members) % 2 for members in blocks)
        _PARTITION.check(st.parts, [witness, *blocks],
                         "witness and components do not partition V")
        if 2 * k != witness.size + n - odd:
            raise RejectError("duality count does not match claimed size")

        self.matched.check(st.matched, reader, undirected_key(a, b, n))
        total_in = self.pairs.check(st.pairs, reader, "inside_pairs",
                                    [witness], "outside-pair",
                                    complement=True)
        total_blk = self.pairs.check(st.pairs, reader, "block_pairs", blocks,
                                     "block-pair")
        if total_in != total_blk:
            raise RejectError("components leave cross edges unaccounted")
        return k

    # lies ---------------------------------------------------------------

    def mutate_output(self, inst, transcript, p, rng):
        matching, witness, blocks = self._certificate(inst)
        if not matching:
            return None
        evens = [i for i, b in enumerate(blocks) if len(b) >= 2
                 and len(b) % 2 == 0]
        if not evens:
            return None
        # underclaim by one: drop a matched pair, split an even component
        # so the duality count still balances, patch the pair total
        matching = matching[:-1]
        blocks = [list(b) for b in blocks]
        tgt = blocks[rng.choice(evens)]
        lone = tgt.pop(rng.randrange(len(tgt)))
        blocks.append([lone])
        G, rest = _final_graph(inst), set(tgt)
        gap = 2 * sum(1 for u in G.neighbors(lone) if u in rest)
        tr = self._assemble(inst, matching, witness, blocks, p)
        tr.blocks[-1].shift_total(gap, p)
        return tr

    mutate_vertices = _replace_matched_vertex


@register
class MatchingLaconic(Scheme):
    """Maximum matching with short help; verifier may hold n-sized state.

    The matching, witness set and a spanning edge set for the rest are
    stored outright, so only edge containment and the two pair counts
    need polynomial help. Verifier space is a few arrays of width s
    (default n) plus the stored certificate.
    """

    name = "maxmatch-laconic"
    simple_graph = True

    def __init__(self, n: int, s: int):
        self.n = n
        self.s = s
        self.edge_dims = line_check_dims(n * n, s)
        # the matching and forest are edges; outside and block pairs tie
        self.checks = tuple(
            StreamEdgeCheck(self.edge_dims, "undirected", mode, label, what)
            for mode, label, what in (
                ("subset", "matching_subset", "matching containment"),
                ("subset", "forest_subset", "forest containment"),
                ("intersect", "inside_inter", "outside pair count"),
                ("intersect", "block_inter", "block pair count")))

    @classmethod
    def configure(cls, inst, t=None, s=None):
        if s is None:
            s = inst.n
        if s < 1:
            raise ValueError("line width must be positive")
        return cls(inst.n, s)

    def oracle_value(self, inst):
        return oracle_max_matching(inst)

    def _forest(self, inst, witness):
        def build():
            blocks = _components_outside(inst, witness)
            G = _final_graph(inst)
            edges = []
            for blk in blocks:
                T = nx.bfs_tree(G.subgraph(blk), blk[0])
                edges.extend((min(a, b), max(a, b)) for a, b in T.edges())
            return sorted(edges)
        return inst.cached("forest", build)

    def hcost_bound(self, inst) -> int:
        k = oracle_max_matching(inst)
        witness = _deficiency_witness(inst)
        f = len(self._forest(inst, witness))
        H = self.edge_dims[0]
        return 2 * k + len(witness) + 2 * f + 4 * (2 * H - 1)

    def vcost_bound(self, inst) -> int:
        return 3 * inst.n + 8 * self.s + 24

    def prove(self, inst, p: int) -> ProofTranscript:
        matching = _maximum_matching(inst)
        witness = _deficiency_witness(inst)
        forest = self._forest(inst, witness)
        return self._assemble(inst, matching, witness, forest, p)

    @cached_build
    def _assemble(self, inst, matching, witness, forest, p) -> ProofTranscript:
        n = self.n
        tr = ProofTranscript()
        tr.add_vertices("matching", [v for e in matching for v in e])
        tr.add_vertices("witness", witness)
        tr.add_vertices("forest", [v for e in forest for v in e])
        wset = set(witness)
        outside = [v for v in range(1, n + 1) if v not in wset]
        keys = ([undirected_key(a, b, n) for (a, b) in matching],
                [undirected_key(a, b, n) for (a, b) in forest],
                _keys_within([outside], n),
                _keys_within(_groups(outside, forest), n))
        for check, keyed in zip(self.checks, keys):
            check.prove(tr, inst, keyed, p)
        return tr

    def stream_side(self, inst, p, rng, meter):
        rho = fe_random(rng, p)
        meter.alloc("stored_certificate", 3 * self.n)
        meter.alloc("registers", 8)
        return StreamState(checks=tuple(c.stream(inst, rho, p, meter)
                                        for c in self.checks))

    def run_verifier(self, inst, reader, p, rng, meter):
        n, st = self.n, stream_pass(self, inst, p, rng, meter)
        pairs = reader.vertices("matching")
        flat = pairs.tolist()
        if len(flat) % 2:
            raise RejectError("odd matching id list")
        k = len(flat) // 2
        seen: set = set()
        for i in range(k):
            a, b = flat[2 * i], flat[2 * i + 1]
            if not (1 <= a <= n and 1 <= b <= n) or a == b:
                raise RejectError("bad matching pair")
            if a in seen or b in seen:
                raise RejectError("matching endpoints collide")
            seen.update((a, b))
        witness = reader.vertices("witness").tolist()
        wset = set(witness)
        if len(wset) != len(witness) or not all(1 <= v <= n for v in witness):
            raise RejectError("bad witness set")
        fl = reader.vertices("forest")
        if fl.size % 2:
            raise RejectError("odd forest id list")
        outside = [v for v in range(1, n + 1) if v not in wset]
        a, b = fl[0::2], fl[1::2]
        if (np.isin(fl, witness).any() or (a == b).any()
                or not _in_range(fl, n)):
            raise RejectError("forest edge leaves the outside set")
        blocks = _groups(outside, zip(a.tolist(), b.tolist()))
        odd = sum(len(b) % 2 for b in blocks)
        if 2 * k != len(wset) + n - odd:
            raise RejectError("duality count does not match claimed size")

        keys = (undirected_key(pairs[0::2], pairs[1::2], n),
                undirected_key(a, b, n), _keys_within([outside], n),
                _keys_within(blocks, n))
        _, _, m1, m2 = (check.check(state, reader, keyed) for check, state,
                        keyed in zip(self.checks, st.checks, keys))
        if m1 != m2:
            raise RejectError("components leave cross edges unaccounted")
        return k

    def mutate_output(self, inst, transcript, p, rng):
        matching = _maximum_matching(inst)
        witness = _deficiency_witness(inst)
        forest = list(self._forest(inst, witness))
        if not matching or not forest:
            return None
        blocks = _components_outside(inst, witness)
        evens = [b for b in blocks if len(b) >= 2 and len(b) % 2 == 0]
        if not evens:
            return None
        blk = set(evens[0])
        G = _final_graph(inst)
        # detach a leaf of the block's tree to fake an extra odd component
        tree = [e for e in forest if e[0] in blk or e[1] in blk]
        degs: dict = {}
        for (a, b) in tree:
            degs[a] = degs.get(a, 0) + 1
            degs[b] = degs.get(b, 0) + 1
        leaves = [v for v, d in degs.items() if d == 1]
        if not leaves:
            return None
        lone = leaves[0]
        forest = [e for e in forest if lone not in e]
        gap = sum(1 for u in G.neighbors(lone) if u in blk and u != lone)
        tr = self._assemble(inst, matching[:-1], witness, forest, p)
        tr.blocks[-1].shift_total(gap, p)
        return tr

    mutate_vertices = _replace_matched_vertex


@register
class MaximalIndependentSet(_SplitScheme):
    """Validates a claimed maximal independent set and outputs it.

    Independence: the pair polynomial over the set totals zero.
    Maximality: every outside vertex names an edge into the set; the
    named partners must avoid the outside set, whose identity is pinned
    by the partition fingerprint.
    """

    name = "mis"
    simple_graph = True

    def __init__(self, n, t, s):
        super().__init__(n, t, s)
        self.vert_dims = line_check_dims(n, s)
        self.pairs = PairCount(self.isc)
        self.pointed = StreamEdgeCheck(self.edge_dims, "undirected", "subset",
                                       "pointer_subset", "pointer containment")
        self.partners = KeyCheck(self.vert_dims, "intersect", "partner_inter",
                                 "partner overlap")

    def oracle_value(self, inst):
        members = self._greedy(inst)
        return tuple(members)

    def output_correct(self, inst, value) -> bool:
        return oracle_is_mis(inst, value)

    def _greedy(self, inst) -> list:
        def build():
            G = _final_graph(inst)
            chosen: list = []
            taken: set = set()
            for v in range(1, inst.n + 1):
                if not (set(G.neighbors(v)) & taken):
                    chosen.append(v)
                    taken.add(v)
            return chosen
        return inst.cached("mis", build)

    def hcost_bound(self, inst) -> int:
        u = len(self._greedy(inst))
        H = self.edge_dims[0]
        Hv = self.vert_dims[0]
        return (inst.n + (inst.n - u) + (2 * self.tp - 1) ** 2
                + (2 * H - 1) + (2 * Hv - 1))

    def vcost_bound(self, inst) -> int:
        return 5 * self.s + 2 * self.sp + 24

    def _pointers(self, inst, members) -> list:
        G = _final_graph(inst)
        mem = set(members)
        out = []
        for v in range(1, inst.n + 1):
            if v in mem:
                continue
            inside = sorted(u for u in G.neighbors(v) if u in mem)
            if inside:
                out.append((v, inside[0]))
            else:
                nb = sorted(G.neighbors(v))
                out.append((v, nb[0] if nb else v % inst.n + 1))
        return out

    @cached_build
    def _assemble(self, inst, members, p) -> ProofTranscript:
        n = self.n
        pointers = self._pointers(inst, members)
        tr = ProofTranscript()
        tr.add_vertices("independent_set", members)
        tr.add_vertices("pointers", [x for pr in pointers for x in pr])
        self.pairs.prove(tr, "independent_pairs", inst, [members], p)
        self.pointed.prove(tr, inst, [undirected_key(v, u, n)
                                      for (v, u) in pointers], p)
        self.partners.prove(tr, [u for (_, u) in pointers],
                            [v for (v, _) in pointers], p)
        return tr

    def prove(self, inst, p: int) -> ProofTranscript:
        return self._assemble(inst, self._greedy(inst), p)

    def stream_side(self, inst, p, rng, meter):
        r1, r2 = fe_random(rng, p), fe_random(rng, p)
        rho, rho_v = fe_random(rng, p), fe_random(rng, p)
        gamma = fe_random(rng, p)
        meter.alloc("registers", 8)
        return StreamState(pairs=self.pairs.stream(inst, r1, r2, p, meter),
                           pointed=self.pointed.stream(inst, rho, p, meter),
                           partners=self.partners.stream(rho_v, p, meter),
                           parts=_PARTITION.stream(inst, gamma, p))

    def run_verifier(self, inst, reader, p, rng, meter):
        n, st = self.n, stream_pass(self, inst, p, rng, meter)
        members = reader.vertices("independent_set")
        if not _in_range(members, n):
            raise RejectError("set member out of range")
        ptr = reader.vertices("pointers")
        if ptr.size != 2 * (n - members.size):
            raise RejectError("pointer list has wrong length")
        sources, partners = ptr[0::2], ptr[1::2]
        if not _in_range(ptr, n) or (sources == partners).any():
            raise RejectError("bad pointer pair")
        _PARTITION.check(st.parts, [members, sources],
                         "set and pointer sources do not partition V")

        if self.pairs.check(st.pairs, reader, "independent_pairs", [members],
                            "set-pair") != 0:
            raise RejectError("claimed set is not independent")
        self.pointed.check(st.pointed, reader,
                           undirected_key(sources, partners, n))
        if self.partners.check(st.partners, reader, partners, sources) != 0:
            raise RejectError("a pointer partner lies outside the set")
        return tuple(members.tolist())

    def mutate_vertices(self, inst, transcript, p, rng):
        members = list(self._greedy(inst))
        if rng.random() < 0.5 and members:
            members.remove(rng.choice(members))
        else:
            taken = set(members)
            extra = [v for v in range(1, inst.n + 1) if v not in taken]
            if not extra:
                return None
            members = sorted(members + [rng.choice(extra)])
        return self._assemble(inst, members, p)


@register
class TopoSort(_SplitScheme):
    """Validates a claimed topological order of a DAG edge stream.

    The order must be a permutation (fingerprint against V) and the
    prefix-into-next pair count must reach the stream's edge total,
    which happens exactly when every edge points forward.
    """

    name = "toposort"
    models = ("vanilla",)
    acyclic = True

    def oracle_value(self, inst):
        return tuple(self._kahn(inst))

    def output_correct(self, inst, value) -> bool:
        return oracle_is_toposort(inst, value)

    def _kahn(self, inst) -> list:
        def build():
            n = inst.n
            indeg = [0] * (n + 1)
            out: dict = {v: [] for v in range(1, n + 1)}
            for (u, v) in inst.directed_edges():
                out[u].append(v)
                indeg[v] += 1
            heap = [v for v in range(1, n + 1) if indeg[v] == 0]
            heapq.heapify(heap)
            order = []
            while heap:
                v = heapq.heappop(heap)
                order.append(v)
                for w in out[v]:
                    indeg[w] -= 1
                    if indeg[w] == 0:
                        heapq.heappush(heap, w)
            return order
        return inst.cached("toposort", build)

    def hcost_bound(self, inst) -> int:
        return inst.n + (2 * self.tp - 1) ** 2

    def vcost_bound(self, inst) -> int:
        return self.s + 2 * self.sp + 16

    def _forward_help(self, inst, order, p) -> np.ndarray:
        """Pair charge of each prefix of the order into its next vertex, on
        its nodes."""
        Dt = degree_grid(self.tp, p)
        single = line_rows([[v] for v in order], self.isc, Dt, p)
        prefix = np.cumsum(single[:-1], axis=0) % p
        adj_hat = stream_adjacency(inst, self.isc, p, directed=True)
        return pair_charge(prefix, single[1:], adj_hat, p)

    @cached_build
    def _assemble(self, inst, order, p):
        tr = ProofTranscript()
        tr.add_vertices("order", order)
        tr.add_values("forward_pairs", self._forward_help(inst, order, p), p)
        return tr

    def _forged(self, inst, order, p):
        """Transcript for `order` whose forward count is patched up to
        the stream's edge total."""
        pos = {v: i for i, v in enumerate(order)}
        edges = inst.directed_edges()
        gap = sum(1 for (a, b) in edges if pos[a] > pos[b])
        tr = self._assemble(inst, order, p)
        tr.blocks[-1].shift_total(gap, p)
        return tr

    def prove(self, inst, p: int) -> ProofTranscript:
        return self._assemble(inst, self._kahn(inst), p)

    def stream_side(self, inst, p, rng, meter):
        r1, r2 = fe_random(rng, p), fe_random(rng, p)
        gamma = fe_random(rng, p)
        sketch = PairSketch(self.isc, r1, r2, p)
        pre1 = LineArray(self.isc, r1, p)
        meter.alloc("pair_sketch", sketch.cells)
        meter.alloc("prefix_line", pre1.cells)
        meter.alloc("registers", 8)
        u, v, delta, _ = inst.edges
        sketch.add(u, v, delta)
        return StreamState(point=(r1, r2),
                           parts=_PARTITION.stream(inst, gamma, p),
                           sketch=sketch, pre1=pre1, m=int(delta.sum()))

    def run_verifier(self, inst, reader, p, rng, meter):
        return self.check_order(reader, p,
                                stream_pass(self, inst, p, rng, meter))

    def check_order(self, reader, p, st):
        """The help side: the claimed order against the stream side `st`."""
        n, sketch, pre1 = self.n, st.sketch, st.pre1
        order = reader.vertices("order", n)
        if not _in_range(order, n):
            raise RejectError("order entry out of range")
        # entry i meets the prefix line pre1 as it stood after entries < i:
        # those lines are the running sum of one cell per entry
        xs, ys = self.isc.shape(order)
        cells = np.zeros((n, pre1.cells), dtype=np.int64)
        cells[np.arange(n), ys - 1] = pre1.imp[xs - 1]
        before = np.cumsum(cells[:-1], axis=0) % p
        hits = dot_mod(before, sketch.table[:, ys[1:] - 1].T, p)
        acc = int((hits * sketch.i2[xs[1:] - 1] % p).sum() % p)
        _PARTITION.check(st.parts, [order], "order is not a permutation of V")
        if reader.grid_claim("forward_pairs", (self.tp, self.tp), st.point,
                             acc, "forward-pair polynomial") != st.m % p:
            raise RejectError("an edge points backward in the order")
        return tuple(order.tolist())

    def _violating_order(self, inst, rng):
        order = list(self._kahn(inst))
        edges = inst.directed_edges()
        if not edges:
            return None
        u, v = edges[rng.randrange(len(edges))]
        iu, iv = order.index(u), order.index(v)
        order[iu], order[iv] = order[iv], order[iu]
        return order

    def mutate_vertices(self, inst, transcript, p, rng):
        order = self._violating_order(inst, rng)
        return None if order is None else self._assemble(inst, order, p)

    def mutate_output(self, inst, transcript, p, rng):
        order = self._violating_order(inst, rng)
        return None if order is None else self._forged(inst, order, p)


@register
class Acyclicity(_SplitScheme):
    """Claimed verdict plus certificate: an order when acyclic, a cycle
    checked edge-by-edge against the stream otherwise."""

    name = "acyclicity"
    models = ("vanilla",)

    def __init__(self, n, t, s):
        super().__init__(n, t, s)
        self.sorter = TopoSort(n, t, s)
        self.cycle = StreamEdgeCheck(self.edge_dims, "directed", "subset",
                                     "cycle_subset", "cycle containment")

    def oracle_value(self, inst):
        return oracle_acyclic(inst)

    def hcost_bound(self, inst) -> int:
        if oracle_acyclic(inst):
            return 1 + self.sorter.hcost_bound(inst)
        cyc = len(self._find_cycle(inst))
        return 1 + 2 * cyc + (2 * self.edge_dims[0] - 1)

    def vcost_bound(self, inst) -> int:
        return 2 * self.s + 2 * self.sp + 24

    def _find_cycle(self, inst) -> list:
        def build():
            n = inst.n
            out: dict = {v: [] for v in range(1, n + 1)}
            for (u, v) in inst.directed_edges():
                out[u].append(v)
            color = [0] * (n + 1)
            stack: list = []

            def dfs(v):
                color[v] = 1
                stack.append(v)
                for w in out[v]:
                    if color[w] == 1:
                        return stack[stack.index(w):]
                    if color[w] == 0:
                        got = dfs(w)
                        if got:
                            return got
                color[v] = 2
                stack.pop()
                return None

            for v in range(1, n + 1):
                if color[v] == 0:
                    got = dfs(v)
                    if got:
                        return got
            return []
        return inst.cached("cycle", build)

    @staticmethod
    def _acyclic(order_transcript) -> ProofTranscript:
        tr = ProofTranscript()
        tr.add_scalars("verdict", [1])
        tr.blocks.extend(order_transcript.blocks)
        return tr

    def prove(self, inst, p: int) -> ProofTranscript:
        if oracle_acyclic(inst):
            return self._acyclic(self.sorter.prove(inst, p))
        return self._cycle_transcript(inst, self._find_cycle(inst), p)

    @cached_build
    def _cycle_transcript(self, inst, cyc, p):
        n = self.n
        tr = ProofTranscript()
        tr.add_scalars("verdict", [0])
        tr.add_vertices("cycle", cyc)
        tr.add_vertices("cycle_sorted", sorted(cyc))
        self.cycle.prove(tr, inst, [directed_key(a, b, n) for a, b
                                    in zip(cyc, cyc[1:] + cyc[:1])], p)
        return tr

    def stream_side(self, inst, p, rng, meter):
        """The stream side of a cyclic verdict; an acyclic one takes the
        sorter's."""
        rho = fe_random(rng, p)
        gamma = fe_random(rng, p)
        meter.alloc("registers", 6)
        return StreamState(cycle=self.cycle.stream(inst, rho, p, meter),
                           ends=_COPY.stream(inst, gamma, p))

    def run_verifier(self, inst, reader, p, rng, meter):
        n = self.n
        verdict = reader.scalar("verdict")
        if verdict not in (0, 1):
            raise RejectError("verdict must be 0 or 1")
        if verdict == 1:
            st = stream_pass(self, inst, p, rng, meter,
                             side=self.sorter.stream_side, branch=1)
            self.sorter.check_order(reader, p, st)
            return True
        st = stream_pass(self, inst, p, rng, meter, branch=0)
        cyc = reader.vertices("cycle")
        if cyc.size < 2:
            raise RejectError("cycle too short")
        if not _in_range(cyc, n):
            raise RejectError("cycle vertex out of range")
        ordered = reader.vertices("cycle_sorted", cyc.size)
        if not _increasing(ordered, n):
            raise RejectError("cycle list not strictly increasing")
        _COPY.check(st.ends, [cyc], "sorted copy does not match the cycle",
                    copy=[ordered])
        self.cycle.check(st.cycle, reader,
                         directed_key(cyc, np.roll(cyc, -1), n))
        return False

    def mutate_output(self, inst, transcript, p, rng):
        verts = list(range(1, inst.n + 1))
        if not oracle_acyclic(inst):
            # claim acyclic with a forged forward count
            return self._acyclic(self.sorter._forged(inst, verts, p))
        if inst.n < 3:  # no room for the fabricated 3-cycle
            return None
        # claim cyclic with a fabricated cycle, patching the zero total
        rng.shuffle(verts)
        cyc = sorted(verts[:3])
        present = set(inst.directed_edges())
        missing = sum(e not in present for e in zip(cyc, cyc[1:] + cyc[:1]))
        if missing == 0:
            return None
        tr = self._cycle_transcript(inst, cyc, p)
        tr.blocks[-1].shift_total(-missing, p)
        return tr

    def mutate_vertices(self, inst, transcript, p, rng):
        out = transcript.copy()
        lists = [b for b in out.blocks if b.kind == "vertices"
                 and b.values.size >= 2]
        if not lists:
            return None
        blk = lists[rng.randrange(len(lists))]
        i, j = rng.sample(range(blk.values.size), 2)
        blk.values[i], blk.values[j] = blk.values[j], blk.values[i]
        return out


@register
class Components(_SplitScheme):
    """Connected component count via per-component spanning-tree blocks.

    Each block is a stream of records (vertex, child_count, parent,
    parent_index); index references only point backwards, and a pair of
    fingerprints forces every record to be referenced exactly its
    child_count times, so the records form one tree per block without
    the verifier storing any of it. Tree edges are containment-checked,
    blocks must partition V, and the blocks' internal pair total must
    absorb every stream edge.
    """

    name = "components"
    simple_graph = True

    def __init__(self, n, t, s):
        super().__init__(n, t, s)
        self.tree = StreamEdgeCheck(self.edge_dims, "undirected", "subset",
                                    "tree_subset", "tree containment")
        self.pairs = PairCount(self.isc)

    def oracle_value(self, inst):
        return oracle_components(inst)

    def hcost_bound(self, inst) -> int:
        c = oracle_components(inst)
        return (1 + 2 * c + 4 * (inst.n - c)
                + (2 * self.edge_dims[0] - 1) + (2 * self.tp - 1) ** 2)

    def vcost_bound(self, inst) -> int:
        return 3 * self.s + 2 * self.sp + 24

    def _blocks(self, inst) -> list:
        def build():
            G = _final_graph(inst)
            blocks = []
            for comp in _groups(range(1, inst.n + 1), inst.final_edges()):
                root = comp[0]
                T = nx.bfs_tree(G.subgraph(comp), root)
                order = list(T.nodes())
                idx = {v: i for i, v in enumerate(order)}
                kids = {v: 0 for v in order}
                recs = []
                for v in order:
                    if v == root:
                        continue
                    par = next(iter(T.pred[v]))
                    kids[par] += 1
                    recs.append((v, par, idx[par]))
                block = [root, kids[root]]
                for (v, par, pidx) in recs:
                    block.extend((v, kids[v], par, pidx))
                blocks.append(block)
            return blocks
        return inst.cached("comp_blocks", build)

    @cached_build
    def _assemble(self, inst, blocks, p):
        n = self.n
        tr = ProofTranscript()
        tr.add_scalars("component_count", [len(blocks)])
        members = []
        tree_edges = []
        for block in blocks:
            tr.add_scalars("tree_block", block)
            mem = [block[0]]
            for j in range(2, len(block), 4):
                v, _, par, _ = block[j:j + 4]
                mem.append(v)
                tree_edges.append((min(v, par), max(v, par)))
            members.append(mem)
        self.tree.prove(tr, inst, [undirected_key(a, b, n)
                                   for (a, b) in tree_edges], p)
        self.pairs.prove(tr, "block_pairs", inst, members, p)
        return tr

    def prove(self, inst, p: int) -> ProofTranscript:
        return self._assemble(inst, self._blocks(inst), p)

    def stream_side(self, inst, p, rng, meter):
        r1, r2 = fe_random(rng, p), fe_random(rng, p)
        rho = fe_random(rng, p)
        g = tuple(fe_random(rng, p) for _ in range(3))
        gamma = fe_random(rng, p)
        meter.alloc("registers", 12)
        return StreamState(g=g, tree=self.tree.stream(inst, rho, p, meter),
                           pairs=self.pairs.stream(inst, r1, r2, p, meter),
                           parts=_PARTITION.stream(inst, gamma, p),
                           m_total=int(inst.edges[2].sum()))

    def run_verifier(self, inst, reader, p, rng, meter):
        n, st = self.n, stream_pass(self, inst, p, rng, meter)
        g = st.g
        c = reader.scalar("component_count")
        if not 1 <= c <= n:
            raise RejectError("component count out of range")
        supply = refer = 0
        blocks, children, parents = [], [], []
        for bi in range(1, c + 1):
            vals = reader.scalars("tree_block").tolist()
            if len(vals) < 2 or (len(vals) - 2) % 4:
                raise RejectError("malformed tree block")
            root, kroot = vals[0], vals[1]
            if not 1 <= root <= n or not 0 <= kroot <= n:
                raise RejectError("bad root record")
            supply = (supply + kroot * monomial(g, (root, 0, bi), p)) % p
            pos = 0
            for j in range(2, len(vals), 4):
                v, kv, par, pidx = vals[j:j + 4]
                pos += 1
                if not 1 <= v <= n or not 1 <= par <= n:
                    raise RejectError("tree record vertex out of range")
                if not 0 <= kv <= n:
                    raise RejectError("bad child count")
                if not 0 <= pidx < pos:
                    raise RejectError("tree reference points forward")
                supply = (supply + kv * monomial(g, (v, pos, bi), p)) % p
                refer = (refer + monomial(g, (par, pidx, bi), p)) % p
            blocks.append([root] + vals[2::4])
            children.extend(vals[2::4])
            parents.extend(vals[4::4])
        if supply != refer:
            raise RejectError("tree references do not match child counts")
        _PARTITION.check(st.parts, blocks, "blocks do not partition V")
        self.tree.check(st.tree, reader, undirected_key(
            np.array(children, dtype=np.int64),
            np.array(parents, dtype=np.int64), n))
        if self.pairs.check(st.pairs, reader, "block_pairs", blocks,
                            "block-pair") != (2 * st.m_total) % p:
            raise RejectError("blocks do not absorb every stream edge")
        return c

    def mutate_output(self, inst, transcript, p, rng):
        blocks = [list(b) for b in self._blocks(inst)]
        splittable = [i for i, b in enumerate(blocks) if len(b) > 2]
        if not splittable:
            return None
        # promote one leaf record to its own block, patch the pair total
        bi = rng.choice(splittable)
        block = blocks[bi]
        recs = [(block[j], block[j + 1], block[j + 2], block[j + 3])
                for j in range(2, len(block), 4)]
        leaves = [r for r in recs if r[1] == 0]
        lone = leaves[-1]
        pos = recs.index(lone) + 1
        newrecs = []
        for q, r in enumerate(recs, start=1):
            if r is lone:
                continue
            if q > pos and r[3] >= pos:
                r = (r[0], r[1], r[2], r[3] - 1)
            newrecs.append(r)
        parent_pos = lone[3]
        fixed = []
        for q, r in enumerate([(block[0], block[1], None, None)] + newrecs):
            if q == parent_pos:
                fixed.append((r[0], r[1] - 1, r[2], r[3]))
            else:
                fixed.append(r)
        head = [fixed[0][0], fixed[0][1]]
        for r in fixed[1:]:
            head.extend(r)
        blocks[bi] = head
        blocks.append([lone[0], 0])
        G = _final_graph(inst)
        others = {v for v in
                  ([block[0]] + [r[0] for r in recs if r is not lone])}
        gap = 2 * sum(1 for u in G.neighbors(lone[0]) if u in others)
        tr = self._assemble(inst, blocks, p)
        tr.blocks[-1].shift_total(gap, p)
        return tr

    def mutate_vertices(self, inst, transcript, p, rng):
        out = transcript.copy()
        trees = [b for b in out.blocks if b.label == "tree_block"]
        donors = [b for b in trees if b.values.size > 2]
        if not donors:
            return None
        blk = donors[rng.randrange(len(donors))]
        pos = 2 + 4 * rng.randrange((blk.values.size - 2) // 4)
        old = int(blk.values[pos])
        blk.values[pos] = old % inst.n + 1
        return out
