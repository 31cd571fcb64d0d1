"""Input streams and proof transcripts.

Input grammar (text, `#` comments allowed):

    n=<int> model=<turnstile|vanilla|weighted|adjlist> [W=<int>]
        [source=<int>] [target=<int>]
    # turnstile body:  u v delta
    # vanilla body:    u v
    # weighted body:   u v w          (1 <= w <= W)
    # adjlist body:    v: u1 u2 ...   (one row per vertex, v = 1..n)
    # optional query-set lines after all edges (turnstile/vanilla only):
    #   U: v1 v2 ...
    #   U+W: v1 v2 | w1 w2 ...

Vertices are 1-based. Edges never repeat in vanilla/weighted/adjlist
bodies and self-loops are rejected everywhere. Turnstile deltas may be
negative (deletions), and their absolute values must sum to less than
DELTA_BOUND = 2^62, so every partial sum and final multiplicity fits
int64 exactly. Set lines accumulate: each line extends the running set(s)
and ends with a query marker.

A GraphInstance is one fixed columnar value. The body is parsed in
chunks of lines into read-only int64 columns (u, v, delta, w), one row
per edge token or adjacency item, and each query-set line into one pair
(U, W) of read-only vertex columns. Verifiers feed each column to a
linear sketch in one call; `final_edges()` is built once per instance;
`tokens` is a read-only token view, built only when it is walked.

A ProofTranscript is an ordered list of labeled blocks, each either a
coefficient block (serialized in graded lexicographic monomial order,
lowest total degree first), a scalar list, or a vertex-id list. Help cost
is the total number of field elements / ids across blocks; labels and
block boundaries are free framing.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from itertools import chain
from types import MappingProxyType
from typing import Optional

import numpy as np

from .extension import coeffs_from_serial, coeffs_to_serial

MODELS = ("turnstile", "vanilla", "weighted", "adjlist")


class ParseError(ValueError):
    """Raised for malformed input streams."""


class RejectError(Exception):
    """Raised by verifiers when a check fails; carries the reason."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


@dataclass(frozen=True)
class EdgeToken:
    u: int
    v: int
    delta: int = 1
    w: int = 0


@dataclass(frozen=True)
class AdjItem:
    v: int
    u: int


@dataclass(frozen=True)
class SetMember:
    side: int  # 0 = U, 1 = W
    v: int


@dataclass(frozen=True)
class SetQuery:
    pass


# A turnstile body's sum of |delta| stays below this, so every partial sum
# and final multiplicity of the int64 delta column is exact.
DELTA_BOUND = 1 << 62
# Text parsed per step, cut after a line end: only one chunk's lines and
# field strings are alive at once.
_CHUNK_CHARS = 1 << 16
_SET_LINE = ("U:", "U+W:")
_EMPTY = np.zeros(0, dtype=np.int64)
_EMPTY.flags.writeable = False


def _check_delta_total(total: int):
    if total >= DELTA_BOUND:
        raise ParseError(f"sum of |delta| reaches 2^62 = {DELTA_BOUND}; "
                         "the stream must stay below it")


def _read_only(cols) -> tuple:
    """The columns as contiguous int64 arrays that cannot be written."""
    cols = tuple(np.ascontiguousarray(c, dtype=np.int64) for c in cols)
    for col in cols:
        col.flags.writeable = False
    return cols


def _columns_of(tokens, model: str) -> tuple:
    """(edges, queries) of a token list; edges precede the query sets, and
    every query set ends with a SetQuery."""
    item = AdjItem if model == "adjlist" else EdgeToken
    rows: list = []
    queries: list = []
    line: tuple = ([], [])
    for tok in tokens:
        if isinstance(tok, SetMember):
            line[tok.side].append(tok.v)
        elif isinstance(tok, SetQuery):
            queries.append(line)
            line = ([], [])
        elif queries or any(line):
            raise ValueError("edges after query sets")
        elif not isinstance(tok, item):
            raise ValueError(f"{model} stream holds {tok!r}")
        elif item is AdjItem:  # one update of {v, u}, at its first listing
            rows.append((tok.v, tok.u, int(tok.u > tok.v), 0))
        else:
            rows.append((tok.u, tok.v, tok.delta, tok.w))
    if any(line):
        raise ValueError("query set without a closing SetQuery")
    _check_delta_total(sum(abs(row[2]) for row in rows))
    try:
        edges = _read_only(np.array(rows, dtype=np.int64).reshape(-1, 4).T)
        return edges, tuple(map(_read_only, queries))
    except OverflowError:
        raise ValueError("token field outside int64") from None


def _final_multiset(edges) -> dict:
    """Net multiplicity of each undirected edge, in order of first
    appearance, without the edges that cancel to zero."""
    u, v, delta, _ = edges
    if not u.size:
        return {}
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    order = np.lexsort((hi, lo))  # stable: each run starts at its first
    lo, hi = lo[order], hi[order]
    head = np.ones(lo.size, dtype=bool)
    head[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
    starts = np.flatnonzero(head)
    count = np.add.reduceat(delta[order], starts)
    keep = np.flatnonzero(count)
    keep = keep[np.argsort(order[starts][keep], kind="stable")]
    keys = zip(lo[starts][keep].tolist(), hi[starts][keep].tolist())
    return dict(zip(keys, count[keep].tolist()))


class TokenList(Sequence):
    """`GraphInstance.tokens`: a read-only view of the stream as one list
    of tokens, built from the instance's columns on first use; its length
    is known without building it."""

    __slots__ = ("_inst",)

    def __init__(self, inst):
        self._inst = inst

    def __len__(self):
        inst = self._inst
        return inst.edges[0].size + sum(u.size + w.size + 1
                                        for u, w in inst.queries)

    def __getitem__(self, i):
        return self._inst._token_list()[i]

    def __iter__(self):
        return iter(self._inst._token_list())

    def __eq__(self, other):
        if isinstance(other, (TokenList, list)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self):
        return repr(self._inst._token_list())


class GraphInstance:
    """A stream: its header fields and its body as read-only int64 columns,
    fixed when the instance is built.

    `edges` holds the body in stream order as columns (u, v, delta, w):
    one row per edge token, or, on an adjacency stream, one row
    (v, u, 1 or 0, 0) per item "u in row v", whose delta is 1 where the
    edge {v, u} is listed first (u > v). `queries` holds one pair (U, W)
    of vertex columns per query-set line, in stream order; each line
    extends the running sets. `final_edges()` is built once from the
    columns, and `tokens` is a read-only token view of the whole stream.
    """

    def __init__(self, n: int, model: str, W: int = 1,
                 source: Optional[int] = None, target: Optional[int] = None,
                 tokens=()):
        self.n = n
        self.model = model
        self.W = W
        self.source = source
        self.target = target
        # prover-side results derived from the stream, keyed by name
        self.prover_cache: dict = {}
        self.edges, self.queries = _columns_of(tokens, model)
        self._tokens: Optional[list] = None
        self._final = None

    @classmethod
    def from_columns(cls, n, model, W=1, source=None, target=None,
                     edges=None, queries=()):
        inst = cls(n, model, W, source, target)
        inst.edges = _read_only(edges or (_EMPTY,) * 4)
        inst.queries = tuple(map(_read_only, queries))
        return inst

    @property
    def tokens(self) -> TokenList:
        return TokenList(self)

    def _token_list(self) -> list:
        if self._tokens is None:
            u, v, delta, w = (c.tolist() for c in self.edges)
            items = (map(AdjItem, u, v) if self.model == "adjlist"
                     else map(EdgeToken, u, v, delta, w))
            self._tokens = list(items)
            for us, ws in self.queries:
                self._tokens += [SetMember(0, x) for x in us.tolist()]
                self._tokens += [SetMember(1, x) for x in ws.tolist()]
                self._tokens.append(SetQuery())
        return self._tokens

    def __eq__(self, other):
        if not isinstance(other, GraphInstance):
            return NotImplemented
        return (self.n, self.model, self.W, self.source, self.target,
                self.tokens) == (other.n, other.model, other.W,
                                 other.source, other.target, other.tokens)

    __hash__ = None

    def __repr__(self):
        return (f"GraphInstance(n={self.n}, model={self.model!r}, "
                f"W={self.W}, source={self.source}, target={self.target}, "
                f"tokens=<{len(self.tokens)}>)")

    def edge_stream(self, models=("turnstile", "vanilla")) -> tuple:
        """The columns (u, v, delta, w) of an edge stream without query
        sets; ValueError for any other input."""
        if self.model not in models:
            raise ValueError(f"scheme cannot run on {self.model} input")
        if self.queries:
            raise ValueError("unexpected query-set tokens in input")
        return self.edges

    def final_edges(self) -> Mapping:
        """Multiset of undirected edges after all updates, built once.

        Key is the ordered pair (min, max), in order of first appearance;
        adjacency rows count each edge once even though both endpoints
        list it. The mapping is read-only.
        """
        if self._final is None:
            self._final = MappingProxyType(_final_multiset(self.edges))
        return self._final

    def directed_edges(self) -> list:
        """Edge tokens read as ordered pairs (vanilla model)."""
        u, v = self.edges[:2]
        return list(zip(u.tolist(), v.tolist()))

    def weighted_edges(self) -> list:
        u, v, _, w = self.edges
        return list(zip(np.minimum(u, v).tolist(), np.maximum(u, v).tolist(),
                        w.tolist()))


def _body(raw: str) -> str:
    return raw.partition("#")[0].strip()


def _parse_header(line: str) -> dict:
    fields = {}
    for part in line.split():
        if "=" not in part:
            raise ParseError(f"bad header field {part!r}")
        key, val = part.split("=", 1)
        fields[key] = val
    return fields


def _header_int(hdr: dict, key: str, default=None):
    if key not in hdr:
        return default
    try:
        return int(hdr[key])
    except ValueError:
        raise ParseError(f"{key} must be an integer") from None


def _vertex(tokstr: str, n: int) -> int:
    try:
        v = int(tokstr)
    except ValueError:
        raise ParseError(f"bad vertex id {tokstr!r}") from None
    if not 1 <= v <= n:
        raise ParseError(f"vertex {v} outside [1, {n}]")
    return v


def _line_chunks(text: str):
    """text.splitlines() in pieces, one per slice of about _CHUNK_CHARS
    that ends just after a newline."""
    start = 0
    while start < len(text):
        end = text.find("\n", start + _CHUNK_CHARS)
        end = len(text) if end < 0 else end + 1
        yield text[start:end].splitlines()
        start = end


def parse_stream(text: str) -> GraphInstance:
    chunks = _line_chunks(text)
    for lines in chunks:
        top = next((i for i, raw in enumerate(lines) if _body(raw)), None)
        if top is not None:
            break
    else:
        raise ParseError("empty stream")

    hdr = _parse_header(_body(lines[top]))
    if "n" not in hdr or "model" not in hdr:
        raise ParseError("header must set n= and model=")
    n = _header_int(hdr, "n")
    if n < 1:
        raise ParseError("n must be positive")
    model = hdr["model"]
    if model not in MODELS:
        raise ParseError(f"unknown model {hdr['model']!r}")
    W = _header_int(hdr, "W", 1)
    if model == "weighted" and "W" not in hdr:
        raise ParseError("weighted model requires W=")
    if W < 1:
        raise ParseError("W must be positive")
    source = _header_int(hdr, "source")
    target = _header_int(hdr, "target")
    for label, val in (("source", source), ("target", target)):
        if val is not None and not 1 <= val <= n:
            raise ParseError(f"{label} {val} outside [1, {n}]")

    body = _BodyParser(n, model, W)
    body.feed(lines[top + 1:])
    for lines in chunks:
        body.feed(lines)
    return body.instance(source, target)


_LAYOUT = {"turnstile": "u v delta", "vanilla": "u v", "weighted": "u v w"}


class _BodyParser:
    """Parses a stream body chunk by chunk into int64 columns."""

    def __init__(self, n: int, model: str, W: int):
        self.n, self.model, self.W = n, model, W
        self.width = 2 if model == "vanilla" else 3
        self.edges: list = []
        self.queries: list = []
        self.in_queries = False
        self.delta_total = 0
        self.adj_row = 0

    def feed(self, lines: list):
        if self.in_queries:
            self._query_lines(lines)
        elif self.model == "adjlist":
            self._adjacency_rows(lines)
        else:
            rows = [raw.partition("#")[0].split() for raw in lines]
            for j, row in enumerate(rows):
                if row and row[0].startswith(_SET_LINE):
                    self._edge_rows(rows[:j])
                    self._query_lines(lines[j:])
                    return
            self._edge_rows(rows)

    def _ints(self, fields, count: int, check_row) -> np.ndarray:
        """fields as int64; on a bad field, check_row names the culprit."""
        try:
            return np.fromiter(map(int, fields), dtype=np.int64, count=count)
        except (ValueError, OverflowError):
            check_row()
            raise ParseError("stream value outside int64") from None

    def _vertex_range(self, ids):
        n = self.n
        if ids.size and (ids.min() < 1 or ids.max() > n):
            bad = ids[(ids < 1) | (ids > n)].flat[0]
            raise ParseError(f"vertex {bad} outside [1, {n}]")

    def _edge_rows(self, rows: list):
        rows = [row for row in rows if row]
        if not rows:
            return
        model, width, n = self.model, self.width, self.n
        for row in rows:
            if len(row) != width:
                raise ParseError(f"{model} line needs '{_LAYOUT[model]}': "
                                 f"{' '.join(row)!r}")

        def check_row():
            for row in rows:
                _vertex(row[0], n)
                _vertex(row[1], n)
                if width == 3:
                    what = "delta" if model == "turnstile" else "weight"
                    try:
                        third = int(row[2])
                    except ValueError:
                        raise ParseError(f"bad {what} {row[2]!r}") from None
                    if model == "turnstile":
                        _check_delta_total(abs(third))

        vals = self._ints(chain.from_iterable(rows), width * len(rows),
                          check_row).reshape(-1, width)
        u, v = vals[:, 0], vals[:, 1]
        self._vertex_range(vals[:, :2])
        if (u == v).any():
            raise ParseError(f"self-loop at {u[u == v][0]}")
        ones = np.ones(len(rows), dtype=np.int64)
        if model == "turnstile":
            delta, w = vals[:, 2], np.zeros_like(ones)
            self.delta_total += sum(map(abs, delta.tolist()))
            _check_delta_total(self.delta_total)
        elif model == "weighted":
            delta, w = ones, vals[:, 2]
            bad = np.flatnonzero((w < 1) | (w > self.W))
            if bad.size:
                raise ParseError(f"weight {w[bad[0]]} outside [1, {self.W}]")
        else:
            delta, w = ones, np.zeros_like(ones)
        self.edges.append((u, v, delta, w))

    def _adjacency_rows(self, lines: list):
        n = self.n
        heads, sizes, fields = [], [], []
        for raw in lines:
            line = _body(raw)
            if not line:
                continue
            if line.startswith(_SET_LINE):
                raise ParseError("query sets only valid for edge streams")
            head, colon, rest = line.partition(":")
            if not colon:
                raise ParseError(f"adjacency row missing ':': {line!r}")
            v = _vertex(head.strip(), n)
            self.adj_row += 1
            if v != self.adj_row:
                raise ParseError(
                    f"adjacency rows must cover 1..n in order, got {v}")
            neigh = rest.split()
            heads.append(v)
            sizes.append(len(neigh))
            fields.extend(neigh)

        def check_row():
            for tok in fields:
                _vertex(tok, n)

        u = self._ints(fields, len(fields), check_row)
        self._vertex_range(u)
        v = np.repeat(np.array(heads, dtype=np.int64), sizes)
        if (u == v).any():
            raise ParseError(f"self-loop at {v[u == v][0]}")
        self.edges.append((v, u, (u > v).astype(np.int64), np.zeros_like(u)))

    def _query_lines(self, lines: list):
        self.in_queries = True
        n = self.n
        for raw in lines:
            line = _body(raw)
            if not line:
                continue
            if not line.startswith(_SET_LINE):
                raise ParseError("edges after query sets")
            if self.model not in ("turnstile", "vanilla"):
                raise ParseError("query sets only valid for edge streams")
            left, right = line[len("U:"):], ""
            if line.startswith("U+W:"):
                left, bar, right = line[len("U+W:"):].partition("|")
                if not bar:
                    raise ParseError("U+W line needs a | divider")
            self.queries.append(([_vertex(tok, n) for tok in left.split()],
                                 [_vertex(tok, n) for tok in right.split()]))

    def instance(self, source, target) -> GraphInstance:
        edges = tuple(np.concatenate(c) for c in zip(*self.edges)) \
            if self.edges else None
        if self.model in ("vanilla", "weighted") and edges:
            lo, hi = np.minimum(*edges[:2]), np.maximum(*edges[:2])
            order = np.lexsort((hi, lo))
            lo, hi = lo[order], hi[order]
            same = np.flatnonzero((lo[1:] == lo[:-1]) & (hi[1:] == hi[:-1]))
            if same.size:
                i = same[0]
                raise ParseError(f"duplicate edge {(int(lo[i]), int(hi[i]))}")
        if self.model == "adjlist":
            self._check_adjacency(edges)
        return GraphInstance.from_columns(
            self.n, self.model, self.W, source, target, edges=edges,
            queries=self.queries)

    def _check_adjacency(self, edges):
        n = self.n
        if self.adj_row != n:
            raise ParseError(f"adjacency stream has {self.adj_row} of {n} "
                             "rows")
        if edges is None:
            return
        v, u = edges[:2]
        listed = v * (n + 1) + u
        ranked = np.sort(listed)
        twice = np.flatnonzero(ranked[1:] == ranked[:-1])
        if twice.size:
            raise ParseError("duplicate neighbor in row "
                             f"{ranked[twice[0]] // (n + 1)}")
        lone = np.flatnonzero(~np.isin(u * (n + 1) + v, listed))
        if lone.size:
            i = lone[0]
            raise ParseError(f"asymmetric adjacency: {u[i]} in row {v[i]} "
                             "only")


def serialize_stream(inst: GraphInstance) -> str:
    hdr = f"n={inst.n} model={inst.model}"
    if inst.model == "weighted" or inst.W != 1:
        hdr += f" W={inst.W}"
    if inst.source is not None:
        hdr += f" source={inst.source}"
    if inst.target is not None:
        hdr += f" target={inst.target}"
    out = [hdr]
    if inst.model == "adjlist":
        rows: dict = {v: [] for v in range(1, inst.n + 1)}
        for v, u in zip(*(c.tolist() for c in inst.edges[:2])):
            rows[v].append(u)
        for v in range(1, inst.n + 1):
            out.append(f"{v}: " + " ".join(map(str, rows[v])))
    else:
        u, v, delta, w = (c.tolist() for c in inst.edges)
        if inst.model == "vanilla":
            out.extend(f"{a} {b}" for a, b in zip(u, v))
        else:
            third = w if inst.model == "weighted" else delta
            out.extend(f"{a} {b} {c}" for a, b, c in zip(u, v, third))
        for us, ws in inst.queries:
            left = " ".join(map(str, us.tolist()))
            out.append(f"U+W: {left} | " + " ".join(map(str, ws.tolist()))
                       if ws.size else f"U: {left}")
    return "\n".join(out) + "\n"


# --- proof transcripts ------------------------------------------------------

_BLOCK_KINDS = ("coeffs", "scalars", "vertices")


@dataclass
class Block:
    label: str
    kind: str
    values: np.ndarray
    shape: Optional[tuple] = None  # degree-bound shape for coeff blocks

    def element_count(self) -> int:
        return int(self.values.size)


class ProofTranscript:
    """Ordered help blocks written by a prover, read once by a verifier."""

    def __init__(self):
        self.blocks: list = []

    # writer side -----------------------------------------------------------

    def add_coeffs(self, label: str, tensor: np.ndarray):
        tensor = np.asarray(tensor, dtype=np.int64)
        self.blocks.append(Block(label, "coeffs", coeffs_to_serial(tensor),
                                 shape=tensor.shape))

    def add_scalars(self, label: str, values):
        arr = np.atleast_1d(np.asarray(values, dtype=np.int64))
        self.blocks.append(Block(label, "scalars", arr))

    def add_vertices(self, label: str, ids):
        arr = np.asarray(list(ids), dtype=np.int64)
        self.blocks.append(Block(label, "vertices", arr))

    # accounting --------------------------------------------------------------

    def element_count(self) -> int:
        return sum(b.element_count() for b in self.blocks)

    def reader(self, p: int) -> "TranscriptReader":
        return TranscriptReader(self, p)

    # text round-trip ----------------------------------------------------------

    def dump(self) -> str:
        out = ["!transcript v=1"]
        for b in self.blocks:
            head = f"@{b.label} kind={b.kind} count={b.values.size}"
            if b.kind == "coeffs":
                head += " shape=" + ",".join(map(str, b.shape))
            out.append(head)
            vals = b.values.tolist()
            for i in range(0, len(vals), 16):
                out.append(" ".join(map(str, vals[i:i + 16])))
        return "\n".join(out) + "\n"

    @classmethod
    def load(cls, text: str) -> "ProofTranscript":
        """Parse `dump` output; any malformed text raises ParseError."""
        t = cls()
        cur = None
        pending: list = []

        def flush():
            if cur is None:
                return
            label, kind, count, shape = cur
            if len(pending) != count:
                raise ParseError(f"block {label}: {len(pending)} of "
                                 f"{count} values")
            try:
                arr = np.array(pending, dtype=np.int64)
            except OverflowError:
                raise ParseError(f"block {label}: value outside int64") \
                    from None
            t.blocks.append(Block(label, kind, arr, shape=shape))

        for raw in text.splitlines():
            line = raw.strip()
            if not line or line.startswith("!"):
                continue
            if line.startswith("@"):
                flush()
                parts = line[1:].split()
                if not parts:
                    raise ParseError("block header without a label")
                label = parts[0]
                fields = _parse_header(" ".join(parts[1:]))
                kind = fields.get("kind")
                if kind not in _BLOCK_KINDS:
                    raise ParseError(f"bad block kind {kind!r}")
                need = ("count", "shape") if kind == "coeffs" else ("count",)
                for key in need:
                    if key not in fields:
                        raise ParseError(f"block {label}: header lacks {key}=")
                count = _int_field(fields["count"], label)
                shape = None
                if kind == "coeffs":
                    shape = tuple(_int_field(x, label)
                                  for x in fields["shape"].split(","))
                    if min(shape) < 0 or math.prod(shape) != count:
                        raise ParseError(f"block {label}: shape does not "
                                         f"hold {count} values")
                cur = (label, kind, count, shape)
                pending = []
            else:
                if cur is None:
                    raise ParseError("transcript values before any block")
                pending.extend(_int_field(x, cur[0]) for x in line.split())
        flush()
        return t


def _int_field(raw: str, label: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ParseError(f"block {label}: bad integer {raw!r}") from None


class TranscriptReader:
    """Forward-only cursor; any structural mismatch is a proof rejection."""

    def __init__(self, transcript: ProofTranscript, p: int):
        self._blocks = transcript.blocks
        self._pos = 0
        self.p = p

    def at_end(self) -> bool:
        return self._pos >= len(self._blocks)

    def _next(self, label: str, kind: str) -> Block:
        if self.at_end():
            raise RejectError(f"missing help block {label}")
        b = self._blocks[self._pos]
        if b.label != label or b.kind != kind:
            raise RejectError(f"expected {kind} block {label}, "
                              f"got {b.kind} {b.label}")
        self._pos += 1
        return b

    def scalar(self, label: str) -> int:
        b = self._next(label, "scalars")
        if b.values.size != 1:
            raise RejectError(f"block {label} should hold one value")
        return int(b.values[0])

    def scalars(self, label: str, count: Optional[int] = None) -> np.ndarray:
        b = self._next(label, "scalars")
        if count is not None and b.values.size != count:
            raise RejectError(f"block {label}: expected {count} values, "
                              f"got {b.values.size}")
        return b.values

    def vertices(self, label: str,
                 count: Optional[int] = None) -> np.ndarray:
        b = self._next(label, "vertices")
        if count is not None and b.values.size != count:
            raise RejectError(f"block {label}: expected {count} ids, "
                              f"got {b.values.size}")
        return b.values

    def coeffs(self, label: str, shape: tuple) -> np.ndarray:
        b = self._next(label, "coeffs")
        expect = int(np.prod(shape))
        if b.values.size != expect:
            raise RejectError(f"block {label}: expected {expect} "
                              f"coefficients, got {b.values.size}")
        if b.values.size and not (0 <= b.values.min()
                                  and b.values.max() < self.p):
            raise RejectError(f"block {label}: coefficient outside [0, p)")
        return coeffs_from_serial(b.values, tuple(shape))
