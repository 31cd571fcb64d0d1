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
bodies and self-loops are rejected everywhere; turnstile deltas are
unrestricted (deletions allowed). Set lines accumulate: each line extends
the running set(s) and ends with a query marker.

A ProofTranscript is an ordered list of labeled blocks, each either a
coefficient block (serialized in graded lexicographic monomial order,
lowest total degree first), a scalar list, or a vertex-id list. Help cost
is the total number of field elements / ids across blocks; labels and
block boundaries are free framing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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


@dataclass
class GraphInstance:
    n: int
    model: str
    W: int = 1
    source: Optional[int] = None
    target: Optional[int] = None
    tokens: list = field(default_factory=list)
    # prover-side results derived from the tokens, keyed by name
    prover_cache: dict = field(default_factory=dict, init=False, repr=False,
                               compare=False)

    def final_edges(self) -> dict:
        """Multiset of undirected edges after all updates.

        Key is the ordered pair (min, max); adjacency rows count each edge
        once even though both endpoints list it.
        """
        mult: dict = {}
        for tok in self.tokens:
            if isinstance(tok, EdgeToken):
                key = (min(tok.u, tok.v), max(tok.u, tok.v))
                mult[key] = mult.get(key, 0) + tok.delta
            elif isinstance(tok, AdjItem):
                if tok.u > tok.v:
                    key = (tok.v, tok.u)
                    mult[key] = mult.get(key, 0) + 1
        return {k: c for k, c in mult.items() if c != 0}

    def directed_edges(self) -> list:
        """Edge tokens read as ordered pairs (vanilla model)."""
        return [(tok.u, tok.v) for tok in self.tokens
                if isinstance(tok, EdgeToken)]

    def weighted_edges(self) -> list:
        return [(min(tok.u, tok.v), max(tok.u, tok.v), tok.w)
                for tok in self.tokens if isinstance(tok, EdgeToken)]


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


def parse_stream(text: str) -> GraphInstance:
    lines = []
    for raw in text.splitlines():
        body = raw.split("#", 1)[0].strip()
        if body:
            lines.append(body)
    if not lines:
        raise ParseError("empty stream")

    hdr = _parse_header(lines[0])
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

    inst = GraphInstance(n=n, model=model, W=W, source=source, target=target)
    seen_pairs = set()
    seen_set_line = False
    adj_row = 0
    adj_rows: dict = {}

    for line in lines[1:]:
        if line.startswith(("U:", "U+W:")):
            if model not in ("turnstile", "vanilla"):
                raise ParseError("query sets only valid for edge streams")
            seen_set_line = True
            if line.startswith("U+W:"):
                rest = line[len("U+W:"):]
                if "|" not in rest:
                    raise ParseError("U+W line needs a | divider")
                left, right = rest.split("|", 1)
                for tok in left.split():
                    inst.tokens.append(SetMember(0, _vertex(tok, n)))
                for tok in right.split():
                    inst.tokens.append(SetMember(1, _vertex(tok, n)))
            else:
                for tok in line[len("U:"):].split():
                    inst.tokens.append(SetMember(0, _vertex(tok, n)))
            inst.tokens.append(SetQuery())
            continue
        if seen_set_line:
            raise ParseError("edges after query sets")

        if model == "adjlist":
            if ":" not in line:
                raise ParseError(f"adjacency row missing ':': {line!r}")
            head, rest = line.split(":", 1)
            v = _vertex(head.strip(), n)
            adj_row += 1
            if v != adj_row:
                raise ParseError(
                    f"adjacency rows must cover 1..n in order, got {v}")
            neigh = [_vertex(tok, n) for tok in rest.split()]
            if len(set(neigh)) != len(neigh):
                raise ParseError(f"duplicate neighbor in row {v}")
            if v in neigh:
                raise ParseError(f"self-loop at {v}")
            adj_rows[v] = set(neigh)
            for u in neigh:
                inst.tokens.append(AdjItem(v, u))
            continue

        parts = line.split()
        if model == "turnstile":
            if len(parts) != 3:
                raise ParseError(f"turnstile line needs 'u v delta': {line!r}")
            u, v = _vertex(parts[0], n), _vertex(parts[1], n)
            try:
                delta = int(parts[2])
            except ValueError:
                raise ParseError(f"bad delta {parts[2]!r}") from None
            if u == v:
                raise ParseError(f"self-loop at {u}")
            inst.tokens.append(EdgeToken(u, v, delta))
        elif model == "vanilla":
            if len(parts) != 2:
                raise ParseError(f"vanilla line needs 'u v': {line!r}")
            u, v = _vertex(parts[0], n), _vertex(parts[1], n)
            if u == v:
                raise ParseError(f"self-loop at {u}")
            key = (min(u, v), max(u, v))
            if key in seen_pairs:
                raise ParseError(f"duplicate edge {key}")
            seen_pairs.add(key)
            inst.tokens.append(EdgeToken(u, v, 1))
        elif model == "weighted":
            if len(parts) != 3:
                raise ParseError(f"weighted line needs 'u v w': {line!r}")
            u, v = _vertex(parts[0], n), _vertex(parts[1], n)
            try:
                w = int(parts[2])
            except ValueError:
                raise ParseError(f"bad weight {parts[2]!r}") from None
            if u == v:
                raise ParseError(f"self-loop at {u}")
            if not 1 <= w <= W:
                raise ParseError(f"weight {w} outside [1, {W}]")
            key = (min(u, v), max(u, v))
            if key in seen_pairs:
                raise ParseError(f"duplicate edge {key}")
            seen_pairs.add(key)
            inst.tokens.append(EdgeToken(u, v, 1, w))

    if model == "adjlist":
        if adj_row != n:
            raise ParseError(f"adjacency stream has {adj_row} of {n} rows")
        for v, neigh in adj_rows.items():
            for u in neigh:
                if v not in adj_rows[u]:
                    raise ParseError(
                        f"asymmetric adjacency: {u} in row {v} only")
    return inst


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
        for tok in inst.tokens:
            rows[tok.v].append(tok.u)
        for v in range(1, inst.n + 1):
            out.append(f"{v}: " + " ".join(map(str, rows[v])))
    else:
        pending_u: list = []
        pending_w: list = []
        for tok in inst.tokens:
            if isinstance(tok, EdgeToken):
                if inst.model == "turnstile":
                    out.append(f"{tok.u} {tok.v} {tok.delta}")
                elif inst.model == "weighted":
                    out.append(f"{tok.u} {tok.v} {tok.w}")
                else:
                    out.append(f"{tok.u} {tok.v}")
            elif isinstance(tok, SetMember):
                (pending_u if tok.side == 0 else pending_w).append(tok.v)
            elif isinstance(tok, SetQuery):
                if pending_w:
                    out.append("U+W: " + " ".join(map(str, pending_u))
                               + " | " + " ".join(map(str, pending_w)))
                else:
                    out.append("U: " + " ".join(map(str, pending_u)))
                pending_u, pending_w = [], []
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
