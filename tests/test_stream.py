"""Stream grammar, instance round trips, proof transcript encoding."""

import ast
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from annostream import stream as stream_mod
from annostream.stream import (DELTA_BOUND, MODELS, AdjItem, EdgeToken,
                               GraphInstance, ParseError, ProofTranscript,
                               RejectError, SetMember, SetQuery, parse_stream,
                               serialize_stream)


def test_parse_turnstile_with_comments_and_cancellation():
    inst = parse_stream("""
        # toy turnstile stream
        n=4 model=turnstile
        1 2 1
        3 4 2
        3 4 -2   # retracted
        2 1 1
    """)
    assert inst.n == 4 and inst.model == "turnstile"
    assert inst.final_edges() == {(1, 2): 2}


def test_parse_vanilla_rejects_duplicates_and_self_loops():
    with pytest.raises(ParseError):
        parse_stream("n=3 model=vanilla\n1 2\n2 1\n")
    with pytest.raises(ParseError):
        parse_stream("n=3 model=vanilla\n2 2\n")


def test_parse_weighted_needs_w_and_checks_range():
    with pytest.raises(ParseError):
        parse_stream("n=3 model=weighted\n1 2 1\n")
    with pytest.raises(ParseError):
        parse_stream("n=3 model=weighted W=4\n1 2 5\n")
    inst = parse_stream("n=3 model=weighted W=4 source=1\n1 2 3\n2 3 4\n")
    assert inst.W == 4 and inst.source == 1
    assert inst.weighted_edges() == [(1, 2, 3), (2, 3, 4)]


def test_weighted_edges_weigh_other_streams_by_net_multiplicity():
    inst = parse_stream("n=4 model=turnstile\n3 1 2\n2 4 1\n1 3 1\n"
                        "1 2 1\n4 2 -1\n")
    assert inst.weighted_edges() == [(1, 3, 3), (1, 2, 1)]
    inst = parse_stream("n=3 model=vanilla\n2 1\n3 2\n")
    assert inst.weighted_edges() == [(1, 2, 1), (2, 3, 1)]


def test_parse_header_errors():
    for bad in ("", "n=5\n1 2 1", "model=turnstile\n", "n=0 model=vanilla\n",
                "n=5 model=quantum\n", "n=5 model=vanilla source=9\n",
                "n=x model=vanilla\n"):
        with pytest.raises(ParseError):
            parse_stream(bad)


def test_parse_vertex_range():
    with pytest.raises(ParseError):
        parse_stream("n=3 model=vanilla\n1 4\n")
    with pytest.raises(ParseError):
        parse_stream("n=3 model=turnstile\n0 2 1\n")


@pytest.mark.parametrize("text", [
    "@x kind=scalars count=1\n1180591620717411303424\n",
    "@x kind=scalars\n1\n",
    "@x kind=coeffs count=1\n1\n",
    "@x kind=coeffs count=1 shape=1,a\n1\n",
    "@x kind=coeffs count=3 shape=5,7\n1 2 3\n",
    "@x kind=vertices count=two\n1\n",
    "@x kind=vertices count=1\n1.5\n",
    "@\n",
    "@x kind=scalars count=1 flag\n1\n",
])
def test_transcript_load_raises_parse_error(text):
    with pytest.raises(ParseError):
        ProofTranscript.load(text)


_FIELD = st.one_of(
    st.sampled_from(["kind=coeffs", "kind=scalars", "kind=vertices",
                     "kind=", "count=", "shape=", "flag", "=", "shape=,"]),
    st.builds("count={}".format, st.integers(-2, 12)),
    st.builds("shape={},{}".format, st.integers(-1, 4), st.integers(-1, 4)),
    st.builds("shape={}".format, st.integers(-1, 12)),
)
_HEADER = st.builds(lambda label, fields: " ".join(["@" + label] + fields),
                    st.sampled_from(["", "b", "b c"]),
                    st.lists(_FIELD, max_size=4))
_VALUES = st.lists(st.one_of(
    st.integers(min_value=-2 ** 70, max_value=2 ** 70).map(str),
    st.integers(-3, 12).map(str),
    st.text(max_size=4)), max_size=6).map(" ".join)
_TRANSCRIPT = st.lists(st.one_of(_HEADER, _VALUES, st.sampled_from(
    ["!transcript v=1", "!transcript v=2"])),
                       max_size=8).map("\n".join)


@settings(max_examples=300, deadline=None)
@given(_TRANSCRIPT)
def test_transcript_load_fuzz_raises_only_parse_error(text):
    try:
        ProofTranscript.load(text)
    except ParseError:
        pass


def test_query_sets():
    inst = parse_stream("n=5 model=vanilla\n1 2\n2 3\nU: 1 2 3\n")
    assert sum(1 for t in inst.tokens if isinstance(t, SetQuery)) == 1
    inst2 = parse_stream("n=5 model=vanilla\n1 2\nU+W: 1 2 | 3 4\n")
    assert sum(1 for t in inst2.tokens if isinstance(t, SetQuery)) == 1
    with pytest.raises(ParseError):
        parse_stream("n=5 model=vanilla\nU: 1 2\n3 4\n")
    with pytest.raises(ParseError):
        parse_stream("n=5 model=adjlist\n1:\nU: 1\n")


def test_adjlist_validation():
    good = "n=3 model=adjlist\n1: 2 3\n2: 1\n3: 1\n"
    inst = parse_stream(good)
    assert inst.final_edges() == {(1, 2): 1, (1, 3): 1}
    # missing reverse entry
    with pytest.raises(ParseError):
        parse_stream("n=3 model=adjlist\n1: 2\n2:\n3:\n")
    # rows out of order
    with pytest.raises(ParseError):
        parse_stream("n=3 model=adjlist\n2: 1\n1: 2\n3:\n")
    with pytest.raises(ParseError):
        parse_stream("n=2 model=adjlist\n1: 2 2\n2: 1\n")


def test_serialize_round_trip_all_models():
    cases = [
        "n=4 model=turnstile\n1 2 1\n3 4 -1\n",
        "n=4 model=vanilla source=2 target=4\n1 2\n2 3\n",
        "n=3 model=weighted W=5 source=1\n1 2 4\n",
        "n=3 model=adjlist\n1: 2\n2: 1 3\n3: 2\n",
        "n=6 model=turnstile W=3\n1 2 2\n1 2 1\n",
        "n=5 model=vanilla\n1 2\nU: 1 2 | 3\n".replace(" | 3", " 3"),
    ]
    for text in cases:
        a = parse_stream(text)
        b = parse_stream(serialize_stream(a))
        assert b.n == a.n and b.model == a.model and b.W == a.W
        assert b.source == a.source and b.target == a.target
        assert b.tokens == a.tokens
        # serialization is a fixed point after one round
        assert serialize_stream(b) == serialize_stream(a)


def test_final_edges_drops_net_zero():
    inst = GraphInstance(n=3, model="turnstile", tokens=[
        EdgeToken(1, 2, 1), EdgeToken(2, 1, -1), EdgeToken(2, 3, 5)])
    assert inst.final_edges() == {(2, 3): 5}


def test_transcript_round_trip_and_count():
    tr = ProofTranscript()
    tr.add_scalars("labels", [3, 1, 4, 1, 5])
    tr.add_values("block", np.arange(12, dtype=np.int64).reshape(3, 4), 97)
    tr.add_scalars("tail", [9])
    assert tr.element_count() == 5 + 12 + 1
    back = ProofTranscript.load(tr.dump())
    assert back.element_count() == tr.element_count()
    assert [b.label for b in back.blocks] == ["labels", "block", "tail"]
    assert np.array_equal(back.blocks[1].values, tr.blocks[1].values)
    assert back.blocks[1].shape == (3, 4)
    assert back.dump() == tr.dump()
    assert tr.dump().startswith("!transcript v=2\n")


# --- the writer's node values and the lies' block edits ---------------------

# small primes up to the largest the vectorised kernels take (below 2^25);
# every one exceeds the 9 nodes an axis may have here
_PRIMES = (11, 13, 101, 65537, 1048583, 33554393)


def _basis(x, m, p) -> list:
    """[delta_u(x) for u in 1..m] by Lagrange's formula, on Python ints."""
    out = []
    for u in range(1, m + 1):
        num = den = 1
        for v in range(1, m + 1):
            if v != u:
                num, den = num * (x - v) % p, den * (u - v) % p
        out.append(num * pow(den, -1, p) % p)
    return out


def _lagrange(vals, point, p) -> int:
    """Python-int value at `point` of the polynomial taking `vals` on the
    nodes 1..m of each axis of length m."""
    acc = np.asarray(vals).astype(object) % p
    for x in reversed(point):
        acc = (acc * np.array(_basis(x, acc.shape[-1], p), dtype=object)
               ).sum(axis=-1) % p
    return int(acc)


def _extended(vals, count, p):
    """The polynomial's Python-int values on the nodes 1..count of the
    last axis, by Lagrange's formula."""
    acc = np.asarray(vals).astype(object) % p
    rows = np.array([_basis(x, acc.shape[-1], p)
                     for x in range(1, count + 1)], dtype=object)
    return np.tensordot(acc, rows.T, axes=([-1], [0])) % p


def _node_values(shape, p, seed):
    rng = np.random.default_rng(seed)
    return rng.integers(-2 * p, 2 * p, size=shape, dtype=np.int64)


def _points(data, shape, p) -> tuple:
    """One coordinate per axis: 0, a node of the axis or any residue."""
    return tuple(data.draw(st.one_of(st.just(0), st.integers(1, m),
                                     st.integers(0, p - 1)))
                 for m in shape)


@settings(max_examples=150, deadline=None)
@given(shape=st.lists(st.integers(1, 9), min_size=1, max_size=3),
       p=st.sampled_from(_PRIMES), seed=st.integers(0, 2 ** 32 - 1),
       data=st.data())
def test_add_values_round_trips_every_node(shape, p, seed, data):
    shape = tuple(shape)
    vals = _node_values(shape, p, seed)
    tr = ProofTranscript()
    tr.add_values("h", vals, p)
    back = ProofTranscript.load(tr.dump())
    block = back.blocks[0]
    assert block.shape == shape and block.kind == "coeffs"
    assert block.values.tolist() == (vals % p).ravel().tolist()
    # the block's polynomial takes each value on its node
    node = tuple(data.draw(st.integers(1, m)) for m in shape)
    at = int(vals[tuple(x - 1 for x in node)]) % p
    assert _lagrange(vals, node, p) == at
    back.reader(p).claim("h", shape, node, at, "r")
    with pytest.raises(RejectError):
        back.reader(p).claim("h", shape, node, at + 1, "r")


def _grid_total(tr, grid, point, p) -> int:
    """The reader's grid total of block "h", claimed at `point` with the
    value the oracle gives there."""
    block = tr.blocks[0]
    at = _lagrange(block.values.reshape(block.shape), point, p)
    return tr.reader(p).grid_claim("h", grid, point, at, "h")


@settings(max_examples=150, deadline=None)
@given(grid=st.lists(st.integers(1, 5), min_size=1, max_size=3),
       p=st.sampled_from(_PRIMES), seed=st.integers(0, 2 ** 32 - 1),
       shift=st.integers(-2 ** 40, 2 ** 40), data=st.data())
def test_shift_total_moves_the_grid_total_by_the_shift(grid, p, seed, shift,
                                                       data):
    shape = tuple(2 * g - 1 for g in grid)
    vals = _node_values(shape, p, seed)
    tr = ProofTranscript()
    tr.add_values("h", vals, p)
    point = _points(data, shape, p)
    on_grid = vals[tuple(slice(g) for g in grid)]
    assert _grid_total(tr, grid, point, p) == int(on_grid.sum()) % p
    block = tr.blocks[0]
    block.shift_total(shift, p)
    assert block.shape == shape and block.values.size == vals.size
    assert _grid_total(tr, grid, point, p) == (int(on_grid.sum()) + shift) % p
    # the bump has degree g-1 on each axis: its values on the nodes past
    # [g] are those of the polynomial through its first g values
    bump = (block.values.reshape(shape) - vals) % p
    for axis, g in enumerate(grid):
        low = np.moveaxis(bump, axis, -1)
        assert (_extended(low[..., :g], 2 * g - 1, p) == low).all()


@settings(max_examples=150, deadline=None)
@given(shape=st.lists(st.integers(1, 9), min_size=1, max_size=3),
       p=st.sampled_from(_PRIMES), seed=st.integers(0, 2 ** 32 - 1))
def test_block_add_values_equals_adding_on_the_nodes(shape, p, seed):
    a = _node_values(shape, p, seed)
    b = _node_values(shape, p, seed + 1)
    tr = ProofTranscript()
    tr.add_values("h", a, p)
    loaded = ProofTranscript.load(tr.dump())
    loaded.blocks[0].add_values(b, p)
    both = ProofTranscript()
    both.add_values("h", a + b, p)
    assert loaded.dump() == both.dump()


@settings(max_examples=150, deadline=None)
@given(grid=st.lists(st.integers(1, 5), min_size=1, max_size=3),
       p=st.sampled_from(_PRIMES), seed=st.integers(0, 2 ** 32 - 1),
       data=st.data())
def test_reader_claims_read_what_the_polynomial_gives(grid, p, seed, data):
    shape = tuple(2 * g - 1 for g in grid)
    vals = _node_values(shape, p, seed)
    tr = ProofTranscript()
    tr.add_values("h", vals, p)
    point = _points(data, shape, p)
    at = _lagrange(vals, point, p)

    on_grid = vals[tuple(slice(g) for g in grid)]
    assert tr.reader(p).grid_claim("h", grid, point, at, "h") == \
        int(on_grid.sum()) % p
    # each axis summed over a grid [g] or weighed by w[u-1] at u = 1..len(w),
    # len(w) below or past the axis's m nodes, and the nodes distinct mod p
    axes = [data.draw(st.one_of(
        st.integers(1, m),
        st.lists(st.integers(0, p - 1), min_size=1,
                 max_size=min(m + 3, p - 1))))
        for m in shape]
    want = vals.astype(object) % p
    for axis in reversed(axes):
        w = [1] * axis if isinstance(axis, int) else axis
        if len(w) > want.shape[-1]:
            want = _extended(want, len(w), p)
        want = np.tensordot(want[..., :len(w)], np.array(w, dtype=object),
                            axes=([-1], [0])) % p
    claim = tr.reader(p).claim("h", shape, point, at, "r")
    assert claim.total(axes) == want
    if len(shape) == 1:  # up to 12 nodes, past the block's, distinct mod p
        m = data.draw(st.integers(0, min(12, p - 1)))
        assert claim.on_nodes(m).tolist() == [
            _lagrange(vals, (u,), p) for u in range(1, m + 1)]

    with pytest.raises(RejectError) as exc:
        tr.reader(p).claim("h", shape, point, at + 1, "the reason given")
    assert exc.value.reason == "the reason given"
    with pytest.raises(RejectError) as exc:
        tr.reader(p).grid_claim("h", grid, point, at + 1, "h")
    assert exc.value.reason == "h disagrees at the random point"


# the coefficient form, its serial order and the evaluations that read it:
# help travels as node values, so only `extension` names them
_COEFFICIENT_FORM = {
    "nd_eval", "nd_grid_sum", "power_sums", "power_moments",
    "coeffs_from_serial", "coeffs_to_serial", "coeffs_from_values_1d",
    "coeffs_from_values_nd", "graded_lex_perm"}
# what only `stream` names besides: the grid bump the lies shift by
_HELP_FORM = {"grid_bump"}


def test_only_stream_and_extension_touch_the_coefficient_form():
    found = []
    for path in sorted(Path(stream_mod.__file__).parent.glob("*.py")):
        if path.stem == "extension":
            continue
        banned = _COEFFICIENT_FORM | (
            set() if path.stem == "stream" else _HELP_FORM)
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = {a.name for a in node.names} & banned
            elif isinstance(node, (ast.Attribute, ast.Name)):
                names = {getattr(node, "attr", getattr(node, "id", None))
                         } & banned
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and path.stem != "stream"):
                names = {node.func.attr} & {"coeffs"}
            else:
                names = set()
            found += [f"{path.name}:{node.lineno} {n}" for n in names]
    assert not found


def test_transcript_reader_enforces_order_and_shape():
    tr = ProofTranscript()
    tr.add_scalars("a", [7])
    tr.add_values("b", np.ones((2, 2), dtype=np.int64), 97)
    r = tr.reader(97)
    assert r.scalar("a") == 7
    with pytest.raises(RejectError, match="expected 6 coefficients, got 4"):
        r.claim("b", (3, 2), (0, 0), 0, "r")
    # a help value must be a residue: -1 (read as 2^64 - 1 by the range
    # check) and p are refused, p - 1 and 0 read
    for value, refused in ((-1, True), (97, True), (96, False), (0, False)):
        tr = ProofTranscript()
        tr.add_values("b", np.ones((2, 2), dtype=np.int64), 97)
        tr.blocks[0].values[-1] = value
        if refused:
            with pytest.raises(RejectError) as exc:
                tr.reader(97).claim("b", (2, 2), (0, 0), 0, "r")
            assert exc.value.reason == "block b: value outside [0, p)"
        else:
            tr.reader(97).claim("b", (2, 2), (1, 1), 1, "r")


def test_transcript_load_refuses_other_versions():
    body = "@x kind=scalars count=2\n1 2\n"
    for version in ("1", "3", ""):
        with pytest.raises(ParseError, match=f"transcript version {version}"):
            ProofTranscript.load(f"!transcript v={version}\n" + body)
    # other notes are skipped, as is a transcript without the line
    for head in ("!transcript v=2\n", "! a note\n", ""):
        assert ProofTranscript.load(head + body).blocks[0].values.tolist() \
            == [1, 2]


def test_transcript_load_rejects_bad_counts():
    text = "!transcript v=2\n@x kind=scalars count=3\n1 2\n"
    with pytest.raises(ParseError):
        ProofTranscript.load(text)


@pytest.mark.parametrize("header", [
    "n=3 model=weighted W=x", "n=3 model=vanilla source=abc",
    "n=3 model=vanilla source=1 target=1.5", "n= model=vanilla",
    "n=3 model=turnstile W=" + "9" * 5000,
])
def test_parse_malformed_header_integers(header):
    with pytest.raises(ParseError):
        parse_stream(header + "\n1 2 1\n")


_INT = st.one_of(st.integers(-2, 12).map(str),
                 st.integers(min_value=-2 ** 70, max_value=2 ** 70).map(str),
                 st.sampled_from(["x", "1.5", "", "abc", "+3", "1_0"]))
_MODEL = st.sampled_from(["turnstile", "vanilla", "weighted", "adjlist",
                          "x", ""])
_HEADER_FIELD = st.one_of(
    st.builds("n={}".format, _INT), st.builds("model={}".format, _MODEL),
    st.builds("W={}".format, _INT), st.builds("source={}".format, _INT),
    st.builds("target={}".format, _INT),
    st.sampled_from(["flag", "=", "n", "#"]))
# mostly a well-formed n= and model= first, so later fields get parsed
_STREAM_HEADER = st.builds(
    lambda n, model, rest: " ".join([f"n={n}", f"model={model}"] + rest),
    st.one_of(st.integers(1, 9).map(str), _INT), _MODEL,
    st.lists(_HEADER_FIELD, max_size=4))
_BODY_LINE = st.lists(st.one_of(
    _INT, st.sampled_from(["U:", "U+W:", "|", ":", "1:", "2:", "#"]),
    st.text(max_size=3)), max_size=5).map(" ".join)
_STREAM = st.builds(lambda head, body: "\n".join([head] + body),
                    _STREAM_HEADER, st.lists(_BODY_LINE, max_size=8))


@settings(max_examples=400, deadline=None)
@given(st.one_of(_STREAM, st.lists(_HEADER_FIELD).map(" ".join),
                 st.text(max_size=40)))
def test_parse_stream_fuzz_raises_only_parse_error(text):
    try:
        parse_stream(text)
    except ParseError:
        pass


# --- the line-by-line parser this one replaced, kept as a reference ---------


def _ref_header(line):
    fields = {}
    for part in line.split():
        if "=" not in part:
            raise ParseError(f"bad header field {part!r}")
        key, val = part.split("=", 1)
        fields[key] = val
    return fields


def _ref_int(hdr, key, default=None):
    if key not in hdr:
        return default
    try:
        return int(hdr[key])
    except ValueError:
        raise ParseError(f"{key} must be an integer") from None


def _ref_vertex(tokstr, n):
    try:
        v = int(tokstr)
    except ValueError:
        raise ParseError(f"bad vertex id {tokstr!r}") from None
    if not 1 <= v <= n:
        raise ParseError(f"vertex {v} outside [1, {n}]")
    return v


def reference_parse(text):
    """(header, tokens) as the line-by-line parser gave them."""
    lines = []
    for raw in text.splitlines():
        body = raw.split("#", 1)[0].strip()
        if body:
            lines.append(body)
    if not lines:
        raise ParseError("empty stream")
    hdr = _ref_header(lines[0])
    if "n" not in hdr or "model" not in hdr:
        raise ParseError("header must set n= and model=")
    n = _ref_int(hdr, "n")
    if n < 1:
        raise ParseError("n must be positive")
    model = hdr["model"]
    if model not in MODELS:
        raise ParseError(f"unknown model {hdr['model']!r}")
    W = _ref_int(hdr, "W", 1)
    if model == "weighted" and "W" not in hdr:
        raise ParseError("weighted model requires W=")
    if W < 1:
        raise ParseError("W must be positive")
    source = _ref_int(hdr, "source")
    target = _ref_int(hdr, "target")
    for label, val in (("source", source), ("target", target)):
        if val is not None and not 1 <= val <= n:
            raise ParseError(f"{label} {val} outside [1, {n}]")

    tokens = []
    seen_pairs = set()
    seen_set_line = False
    adj_row = 0
    adj_rows = {}
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
                    tokens.append(SetMember(0, _ref_vertex(tok, n)))
                for tok in right.split():
                    tokens.append(SetMember(1, _ref_vertex(tok, n)))
            else:
                for tok in line[len("U:"):].split():
                    tokens.append(SetMember(0, _ref_vertex(tok, n)))
            tokens.append(SetQuery())
            continue
        if seen_set_line:
            raise ParseError("edges after query sets")
        if model == "adjlist":
            if ":" not in line:
                raise ParseError(f"adjacency row missing ':': {line!r}")
            head, rest = line.split(":", 1)
            v = _ref_vertex(head.strip(), n)
            adj_row += 1
            if v != adj_row:
                raise ParseError(
                    f"adjacency rows must cover 1..n in order, got {v}")
            neigh = [_ref_vertex(tok, n) for tok in rest.split()]
            if len(set(neigh)) != len(neigh):
                raise ParseError(f"duplicate neighbor in row {v}")
            if v in neigh:
                raise ParseError(f"self-loop at {v}")
            adj_rows[v] = set(neigh)
            for u in neigh:
                tokens.append(AdjItem(v, u))
            continue
        parts = line.split()
        if model == "turnstile":
            if len(parts) != 3:
                raise ParseError(f"turnstile line needs 'u v delta': {line!r}")
            u, v = _ref_vertex(parts[0], n), _ref_vertex(parts[1], n)
            try:
                delta = int(parts[2])
            except ValueError:
                raise ParseError(f"bad delta {parts[2]!r}") from None
            if u == v:
                raise ParseError(f"self-loop at {u}")
            tokens.append(EdgeToken(u, v, delta))
        elif model == "vanilla":
            if len(parts) != 2:
                raise ParseError(f"vanilla line needs 'u v': {line!r}")
            u, v = _ref_vertex(parts[0], n), _ref_vertex(parts[1], n)
            if u == v:
                raise ParseError(f"self-loop at {u}")
            key = (min(u, v), max(u, v))
            if key in seen_pairs:
                raise ParseError(f"duplicate edge {key}")
            seen_pairs.add(key)
            tokens.append(EdgeToken(u, v, 1))
        elif model == "weighted":
            if len(parts) != 3:
                raise ParseError(f"weighted line needs 'u v w': {line!r}")
            u, v = _ref_vertex(parts[0], n), _ref_vertex(parts[1], n)
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
            tokens.append(EdgeToken(u, v, 1, w))
    if model == "adjlist":
        if adj_row != n:
            raise ParseError(f"adjacency stream has {adj_row} of {n} rows")
        for v, neigh in adj_rows.items():
            for u in neigh:
                if v not in adj_rows[u]:
                    raise ParseError(
                        f"asymmetric adjacency: {u} in row {v} only")
    return (n, model, W, source, target), tokens


def reference_final_edges(tokens):
    mult = {}
    for tok in tokens:
        if isinstance(tok, EdgeToken):
            key = (min(tok.u, tok.v), max(tok.u, tok.v))
            mult[key] = mult.get(key, 0) + tok.delta
        elif isinstance(tok, AdjItem):
            if tok.u > tok.v:
                key = (tok.v, tok.u)
                mult[key] = mult.get(key, 0) + 1
    return {k: c for k, c in mult.items() if c != 0}


# integers as the grammar's int() reads them: signs, underscores,
# non-ASCII digits, padding
_DIGITS = ("0123456789",
           "".join(chr(0x660 + d) for d in range(10)),   # Arabic-Indic
           "".join(chr(0xFF10 + d) for d in range(10)))  # fullwidth


@st.composite
def _spelled(draw, value):
    text = str(abs(value))
    digits = draw(st.sampled_from(_DIGITS))
    text = "".join(digits[int(c)] for c in text)
    if len(text) > 1 and draw(st.booleans()):
        cut = draw(st.integers(1, len(text) - 1))
        text = text[:cut] + "_" + text[cut:]
    if draw(st.booleans()):
        text = "0" * draw(st.integers(1, 2)) + text
    sign = "-" if value < 0 else draw(st.sampled_from(["", "", "+"]))
    return sign + text


_GAP = st.sampled_from([" ", "  ", "\t", "\u3000"])
_FLAWS = {
    "turnstile": ("junk", "range", "loop", "width", "late edge",
                  "huge delta"),
    "vanilla": ("junk", "range", "loop", "width", "late edge", "repeat"),
    "weighted": ("junk", "range", "loop", "width", "repeat", "weight",
                 "query set"),
    "adjlist": ("range", "loop", "repeat", "drop row", "one-sided",
                "query set"),
}


@st.composite
def _joined(draw, values):
    """values spelled oddly, with odd gaps, maybe padded and commented."""
    text = draw(_GAP).join([draw(_spelled(x)) for x in values])
    if draw(st.integers(0, 4)) == 0:
        text = draw(_GAP) + text + draw(_GAP)
    if draw(st.integers(0, 4)) == 0:
        text += " # " + draw(st.sampled_from(["note", "1 2", "#", ""]))
    return text


@st.composite
def _odd_stream(draw):
    """A stream of any model in odd spellings; half of them have a flaw."""
    model = draw(st.sampled_from(MODELS))
    n = draw(st.integers(2, 6))
    W = draw(st.integers(1, 4))
    flaw = draw(st.sampled_from(_FLAWS[model])) if draw(
        st.booleans()) else None
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    edges = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=8,
                          unique=model != "turnstile"))
    rows = []
    if model == "adjlist":
        nbrs = {v: set() for v in range(1, n + 1)}
        for a, b in edges:
            nbrs[a].add(b)
            nbrs[b].add(a)
        if flaw == "one-sided":
            nbrs[edges[0][0]].discard(edges[0][1])
        if flaw in ("loop", "range"):
            nbrs[1].add(1 if flaw == "loop" else n + 1)
        for v in range(1, n + 1):
            listed = draw(st.permutations(sorted(nbrs[v])))
            if flaw == "repeat" and listed:
                listed = listed + listed[:1]
            rows.append(draw(_spelled(v)) + ":" + draw(_GAP)
                        + draw(_joined(listed)))
        if flaw == "drop row":
            rows.pop(draw(st.integers(0, n - 1)))
    else:
        for a, b in edges:
            if draw(st.booleans()):
                a, b = b, a
            row = [a, b]
            if model == "turnstile":
                row.append(draw(st.integers(-3, 3)))
            elif model == "weighted":
                row.append(draw(st.integers(1, W)))
            rows.append(row)
        row = rows[draw(st.integers(0, len(rows) - 1))]
        if flaw == "range":
            row[draw(st.integers(0, 1))] = draw(st.sampled_from([0, n + 1]))
        elif flaw == "loop":
            row[1] = row[0]
        elif flaw == "width":
            row.append(1)
        elif flaw == "weight":
            row[2] = draw(st.sampled_from([0, W + 1, -1]))
        elif flaw == "huge delta":
            row[2] = draw(st.sampled_from([2 ** 62, -2 ** 63, 2 ** 64]))
        elif flaw == "repeat":
            rows.append(row[::-1] if model == "vanilla" else list(row))
        rows = [draw(_joined(row)) for row in rows]
        if flaw == "junk":
            rows[-1] = draw(st.sampled_from(
                ["x", "1.5", "--1", "1__0", "_1", "0x1"])) + " " + rows[-1]
            rows[-1] = " ".join(rows[-1].split()[:len(row)])
    if model in ("turnstile", "vanilla") or flaw == "query set":
        for _ in range(draw(st.integers(0, 2))):
            left = draw(st.lists(st.integers(1, n), max_size=3))
            line = "U: " + " ".join(draw(_spelled(v)) for v in left)
            if draw(st.booleans()):
                line = "U+W: " + line[3:] + " | " + draw(
                    _spelled(draw(st.integers(1, n))))
            rows.append(line)
    if flaw == "late edge":
        rows.append("1 2" + " 1" * (model == "turnstile"))
    lines = [f"n={n} model={model}" + (f" W={W}" if model == "weighted"
                                       else "")] + rows
    if draw(st.integers(0, 3)) == 0:
        lines.insert(draw(st.integers(0, len(lines))), "# comment line")
    if draw(st.integers(0, 3)) == 0:
        lines.insert(draw(st.integers(1, len(lines))), "")
    return "\n".join(lines) + "\n"


@settings(max_examples=400, deadline=None)
@given(_odd_stream())
@example("n=3 model=turnstile\n1 2 \u0903\n")
def test_parser_matches_the_line_by_line_reference(text):
    try:
        header, tokens = reference_parse(text)
    except ParseError:
        header = None
    try:
        inst = parse_stream(text)
    except ParseError as exc:
        if header is not None:
            # the one refusal the reference lacks
            assert "2^62" in str(exc)
            assert sum(abs(t.delta) for t in tokens
                       if isinstance(t, EdgeToken)) >= DELTA_BOUND
        return
    assert header is not None, "the reference refused this stream"
    assert (inst.n, inst.model, inst.W, inst.source, inst.target) == header
    assert list(inst.tokens) == tokens
    # same multiset, in the same order of first appearance
    assert list(inst.final_edges().items()) == list(
        reference_final_edges(tokens).items())


def test_final_edges_built_once_and_follow_the_tokens(monkeypatch):
    inst = parse_stream("n=4 model=turnstile\n1 2 1\n3 4 2\n2 1 1\n")
    built = []
    build = stream_mod._final_multiset
    monkeypatch.setattr(stream_mod, "_final_multiset",
                        lambda *cols: built.append(1) or build(*cols))
    first = inst.final_edges()
    assert inst.final_edges() is first and len(built) == 1
    assert first == {(1, 2): 2, (3, 4): 2}
    with pytest.raises(TypeError):
        first[(1, 2)] = 5  # the cached multiset is read-only
    # the instance is one fixed value: no token edit can go stale
    with pytest.raises(AttributeError):
        inst.tokens = [EdgeToken(2, 3, 1), EdgeToken(3, 2, 4)]
    with pytest.raises(AttributeError):
        inst.tokens.append(EdgeToken(1, 4, -1))
    for col in inst.edges:
        with pytest.raises(ValueError):
            col[0] = 3
    assert inst.final_edges() is first and len(built) == 1
    assert len(inst.tokens) == 3 and inst.edges[2].tolist() == [1, 2, 1]


@st.composite
def _churned_tokens(draw):
    """Up to about 300 turnstile tokens over at most 6 keys, deltas in
    [-3, 3], endpoints in either order; a key may be cancelled to zero
    (in steps of at most 3) and come back later."""
    n = draw(st.integers(2, 5))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    keys = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=6,
                         unique=True))
    steps = draw(st.lists(st.tuples(st.sampled_from(keys),
                                    st.integers(-3, 3), st.booleans(),
                                    st.booleans()),
                          min_size=1, max_size=100))
    tokens, net = [], {}
    for (u, v), delta, flip, cancel in steps:
        tokens.append(EdgeToken(*((v, u) if flip else (u, v)), delta))
        net[u, v] = net.get((u, v), 0) + delta
        while cancel and net[u, v]:
            back = max(-3, min(3, -net[u, v]))
            tokens.append(EdgeToken(u, v, back))
            net[u, v] += back
    return n, tokens


@settings(max_examples=300, deadline=None)
@given(_churned_tokens())
@example((3, [EdgeToken(1, 2, 1), EdgeToken(2, 3, 2), EdgeToken(2, 1, -1),
              EdgeToken(3, 2, 1), EdgeToken(1, 2, 3)]))
def test_final_edges_keep_first_appearance_under_churn(case):
    n, tokens = case
    inst = GraphInstance(n=n, model="turnstile", tokens=tokens)
    assert list(inst.final_edges().items()) == list(
        reference_final_edges(tokens).items())


def test_final_edges_and_duplicates_with_ids_past_32_bits():
    # lo·(max + 1) + hi would pass int64 at these ids
    n = 2 ** 62
    a, b, c, d = 2 ** 62, 2 ** 62 - 7, 2 ** 33 + 5, 2 ** 32 + 1
    rows = [(a, c, 2), (d, b, 1), (c, a, -2), (b, c, 3), (a, c, 1),
            (b, d, -1), (1, a, 1), (d, b, 4), (c, b, -3), (b, c, 2)]
    text = f"n={n} model=turnstile\n" + "".join(
        f"{u} {v} {x}\n" for u, v, x in rows)
    _, tokens = reference_parse(text)
    inst = parse_stream(text)
    assert list(inst.tokens) == tokens
    final = list(inst.final_edges().items())
    assert final == list(reference_final_edges(tokens).items())
    assert final == [((c, a), 1), ((d, b), 4), ((c, b), 2), ((1, a), 1)]

    text = f"n={n} model=vanilla\n{a} {c}\n{d} {b}\n1 {a}\n{b} {d}\n"
    with pytest.raises(ParseError) as want:
        reference_parse(text)
    with pytest.raises(ParseError) as got:
        parse_stream(text)
    assert str(got.value) == str(want.value) == f"duplicate edge {(d, b)}"
    assert list(parse_stream(text[:text.rindex(f"{b} {d}")]).final_edges()
                ) == [(c, a), (d, b), (1, a)]


def test_tokens_are_built_only_on_demand():
    text = "n=5 model=vanilla\n1 2\n2 3\nU: 1 2\nU+W: 3 | 4\n"
    inst = parse_stream(text)
    assert len(inst.tokens) == 8 and inst._tokens is None
    assert list(inst.tokens) == [
        EdgeToken(1, 2), EdgeToken(2, 3), SetMember(0, 1), SetMember(0, 2),
        SetQuery(), SetMember(0, 3), SetMember(1, 4), SetQuery()]
    made = GraphInstance(n=5, model="vanilla", tokens=list(inst.tokens))
    assert made.edges[0].tolist() == [1, 2] and made.tokens == inst.tokens
    with pytest.raises(ValueError):
        GraphInstance(n=5, model="vanilla",
                      tokens=[SetQuery(), EdgeToken(1, 2)]).edges


def test_query_sets_are_closed_read_only_vertex_columns():
    with pytest.raises(ValueError, match="SetQuery"):
        GraphInstance(n=5, model="vanilla",
                      tokens=[EdgeToken(1, 2), SetMember(0, 1)])
    inst = GraphInstance(n=5, model="vanilla", tokens=[
        EdgeToken(1, 2), SetMember(0, 1), SetMember(1, 3), SetQuery(),
        SetMember(0, 4), SetQuery()])
    assert [(u.tolist(), w.tolist()) for u, w in inst.queries] == [
        ([1], [3]), ([4], [])]
    assert not any(c.flags.writeable for pair in inst.queries for c in pair)
    assert serialize_stream(inst).splitlines()[2:] == ["U+W: 1 | 3", "U: 4"]


def test_delta_bound():
    with pytest.raises(ParseError, match=r"2\^62"):
        parse_stream(f"n=3 model=turnstile\n1 2 {2 ** 62}\n")
    with pytest.raises(ParseError, match=r"2\^62"):
        parse_stream(f"n=3 model=turnstile\n1 2 {2 ** 61}\n"
                     f"2 3 {-2 ** 61}\n")
    with pytest.raises(ParseError, match=r"2\^62"):
        parse_stream(f"n=3 model=turnstile\n1 2 {-2 ** 70}\n")
    inst = parse_stream(f"n=3 model=turnstile\n1 2 {2 ** 40}\n"
                        f"2 1 {-2 ** 40}\n2 3 1\n")
    assert inst.final_edges() == {(2, 3): 1}
    assert inst.edges[2].tolist() == [2 ** 40, -2 ** 40, 1]


def test_parse_body_spans_chunks():
    # more lines than one chunk; an error in a later chunk still refuses
    lines = [f"{1 + i % 3} {2 + i % 3} {1 - 2 * (i % 2)}"
             for i in range(stream_mod._CHUNK_CHARS // 2)]
    text = "n=4 model=turnstile\n" + "\n".join(lines)
    inst = parse_stream(text)
    assert len(inst.tokens) == len(lines)
    assert list(inst.tokens) == reference_parse(text)[1]
    with pytest.raises(ParseError):
        parse_stream(text + "\n1 1 1")


# --- edge bodies past one chunk ---------------------------------------------


def _long_body(model, rows):
    """rows distinct edges of a model on n=200, about 8 characters a line."""
    pairs = [(u, v) for u in range(1, 201) for v in range(u + 1, 201)]
    out = []
    for i, (u, v) in enumerate(pairs[:rows]):
        line = f"{u} {v}" if i % 2 else f"{v} {u}"
        if model == "turnstile":
            line += f" {1 + i % 3}"
        elif model == "weighted":
            line += f" {1 + i % 4}"
        out.append(line)
    return out


def _chunk_of(text, line_no):
    """Index of the chunk of `text` that holds line `line_no`."""
    seen = 0
    for k, (_, lines) in enumerate(stream_mod._line_chunks(text)):
        seen += len(lines)
        if line_no < seen:
            return k
    raise IndexError(line_no)


def _flawed(model, flaw, at):
    """A header and a body of two chunks or more, with `flaw` written over
    the body from its line `at` on; also the text's line numbers of the
    flaw's first and last lines."""
    head = "n=200 model=" + model + (" W=4" if model == "weighted" else "")
    body = _long_body(model, stream_mod._CHUNK_CHARS // 5)
    last = at
    if flaw == "query":
        body[at:] = ["U: 1 2 3", "U+W: 4 | 5 6", "", "# note", "U: 7"] * 300
        last = len(body) - 1
    elif flaw == "junk":
        body[at] = "x " + body[at].split(" ", 1)[1]
    elif flaw == "width":
        body[at] += " 1"
    elif flaw == "late edge":
        body[at:at + 2] = ["U: 1", body[at]]
        last = at + 1
    elif flaw == "comments":
        body[at:at + 40] = ["# a comment-only line", "", "   # indented"] * 40
        last = at + 119
    elif flaw == "comment chunk":
        body[at:at] = ["# " + "c" * 60] * (stream_mod._CHUNK_CHARS // 50)
        last = at + stream_mod._CHUNK_CHARS // 50 - 1
    return "\n".join([head] + body) + "\n", at + 1, last + 1


def _first_line_of_second_chunk(model):
    """Body line number of the first line of a clean body's second chunk."""
    text, _, _ = _flawed(model, None, 0)
    return len(next(stream_mod._line_chunks(text))[1]) - 1


@pytest.mark.parametrize("text,match", [
    ("n=3 model=vanilla\n1 2 3\n2 3 1\n", "vanilla line needs 'u v'"),
    ("n=3 model=turnstile\n1 2\n2 3\n", "turnstile line needs 'u v delta'"),
    ("n=3 model=weighted W=2\n1 2 1 1\n", "weighted line needs 'u v w'"),
])
def test_a_body_all_of_one_wrong_width_is_refused(text, match):
    with pytest.raises(ParseError, match=match):
        parse_stream(text)


_SPANNING = ("query", "comments", "comment chunk")


@pytest.mark.parametrize("model,flaw,where", [
    (model, flaw, where)
    for model in ("turnstile", "vanilla", "weighted")
    for flaw in _SPANNING + ("junk", "width", "late edge")
    for where in ((-2, 0, 1, 500) if flaw in _SPANNING else (0, 1, 500))])
def test_flaws_past_the_first_chunk_match_the_reference(model, flaw, where):
    text, first, last = _flawed(model, flaw,
                                _first_line_of_second_chunk(model) + where)
    # the flaw starts in the second chunk or later, or spans the boundary
    assert (_chunk_of(text, first) >= 1) == (where >= 0)
    assert _chunk_of(text, last) >= 1
    try:
        want = reference_parse(text)
    except ParseError as exc:
        want = exc
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            inst = parse_stream(text)
        except ParseError as exc:
            assert isinstance(want, ParseError), str(exc)
            assert str(exc) == str(want)
            inst = None
    assert not [str(w.message) for w in caught]
    if inst is not None:
        assert not isinstance(want, ParseError), str(want)
        header, tokens = want
        assert (inst.n, inst.model, inst.W, inst.source,
                inst.target) == header
        assert list(inst.tokens) == tokens
        assert list(inst.final_edges().items()) == list(
            reference_final_edges(tokens).items())


# --- the line-by-line transcript loader this one replaced, kept as a
# reference ------------------------------------------------------------------


def _ref_int_field(raw, label):
    try:
        return int(raw)
    except ValueError:
        raise ParseError(f"block {label}: bad integer {raw!r}") from None


def reference_load(text):
    """[(label, kind, shape, values)] as the line-by-line loader read them."""
    blocks = []
    cur = None
    pending = []

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
            raise ParseError(f"block {label}: value outside int64") from None
        blocks.append((label, kind, shape, arr))

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
            fields = _ref_header(" ".join(parts[1:]))
            kind = fields.get("kind")
            if kind not in ("coeffs", "scalars", "vertices"):
                raise ParseError(f"bad block kind {kind!r}")
            need = ("count", "shape") if kind == "coeffs" else ("count",)
            for key in need:
                if key not in fields:
                    raise ParseError(f"block {label}: header lacks {key}=")
            count = _ref_int_field(fields["count"], label)
            shape = None
            if kind == "coeffs":
                shape = tuple(_ref_int_field(x, label)
                              for x in fields["shape"].split(","))
                if min(shape) < 0 or np.prod(shape, dtype=object) != count:
                    raise ParseError(f"block {label}: shape does not "
                                     f"hold {count} values")
            cur = (label, kind, count, shape)
            pending = []
        else:
            if cur is None:
                raise ParseError("transcript values before any block")
            pending.extend(_ref_int_field(x, cur[0]) for x in line.split())
    flush()
    return blocks


_EXTREME = st.sampled_from([2 ** 63 - 1, 2 ** 63, -2 ** 63, -2 ** 63 - 1,
                            2 ** 64])
_BAD_VALUE = st.sampled_from(["x", "1.5", "#", "0x1", "1__0", "_1", "--1",
                              "1e3", "+", "1,2", "\u0903", "\U0001b48a"])


@st.composite
def _odd_transcript(draw):
    """Blocks in odd spellings and line breaks; one in four has a flaw."""
    lines = ["!transcript v=2"] if draw(st.booleans()) else []
    for b in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["coeffs", "scalars", "vertices"]))
        values = draw(st.lists(st.integers(-3, 2 ** 25), max_size=40))
        flaw = draw(st.sampled_from([None] * 9 + ["count", "bad", "extreme"]))
        if flaw == "extreme" and values:
            values[draw(st.integers(0, len(values) - 1))] = draw(_EXTREME)
        count = len(values)
        if flaw == "count":
            count += draw(st.sampled_from([-1, 1]))
        head = f"@b{b} kind={kind} count={count}"
        if kind == "coeffs":
            head += f" shape=1,{count}"
        lines.append(draw(st.sampled_from(["", " ", "\t"])) + head)
        fields = [draw(_spelled(x)) for x in values]
        if flaw == "bad" and fields:
            fields[draw(st.integers(0, len(fields) - 1))] = draw(_BAD_VALUE)
        width = draw(st.integers(1, 16))
        for i in range(0, len(fields), width):
            lines.append(draw(_GAP).join(fields[i:i + width]))
            if draw(st.integers(0, 5)) == 0:
                lines.append(draw(st.sampled_from(["", "  ", "! a note"])))
    if draw(st.integers(0, 9)) == 0:
        lines.insert(0, draw(st.sampled_from(["1 2", "x"])))
    return "\n".join(lines) + "\n"


@settings(max_examples=400, deadline=None)
@given(_odd_transcript())
@example("@a kind=scalars count=3\n1 # 3\n")
@example("@a kind=scalars count=1\n1.0\n")
@example("@a kind=vertices count=3\n1_0 \u0663\n+007\n")
@example("@a kind=scalars count=2\n\u0903 \U0001b48a\n")
@example("@a kind=coeffs count=2 shape=2\n9223372036854775808 1\n")
@example("@a kind=scalars count=0\n\n! a note\n@b kind=scalars count=2\n"
         "-9223372036854775808\n\n 9223372036854775807\n")
def test_transcript_load_matches_the_line_by_line_reference(text):
    try:
        want = reference_load(text)
    except ParseError as exc:
        want = exc
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            got = ProofTranscript.load(text)
        except ParseError as exc:
            assert isinstance(want, ParseError), str(exc)
            assert str(exc) == str(want)
            got = None
    assert not [str(w.message) for w in caught]
    if got is not None:
        assert not isinstance(want, ParseError), str(want)
        assert [(b.label, b.kind, b.shape) for b in got.blocks] == [
            blk[:3] for blk in want]
        for b, blk in zip(got.blocks, want):
            assert b.values.dtype == np.int64
            assert b.values.tolist() == blk[3].tolist()


# --- the per-line transcript writer this one replaced, kept as a
# reference ------------------------------------------------------------------


def reference_dump(tr):
    out = ["!transcript v=2"]
    for b in tr.blocks:
        head = f"@{b.label} kind={b.kind} count={b.values.size}"
        if b.kind == "coeffs":
            head += " shape=" + ",".join(map(str, b.shape))
        out.append(head)
        vals = b.values.tolist()
        for i in range(0, len(vals), 16):
            out.append(" ".join(map(str, vals[i:i + 16])))
    return "\n".join(out) + "\n"


_INT64 = st.one_of(st.integers(-2 ** 63, 2 ** 63 - 1),
                   st.sampled_from([0, -1, 9, 10, -10, 99, 10 ** 9,
                                    2 ** 32, -2 ** 63, 2 ** 63 - 1]),
                   st.integers(0, 2 ** 25))


@st.composite
def _written_transcript(draw):
    """Blocks of any int64 values, of any size, with empty ones."""
    tr = ProofTranscript()
    for b in range(draw(st.integers(0, 4))):
        values = np.array(draw(st.lists(_INT64, max_size=70)),
                          dtype=np.int64)
        kind = draw(st.sampled_from(["coeffs", "scalars", "vertices"]))
        shape = (1, values.size) if kind == "coeffs" else None
        tr.blocks.append(stream_mod.Block(f"b{b}", kind, values, shape))
    return tr


@settings(max_examples=300, deadline=None)
@given(_written_transcript())
def test_transcript_dump_matches_the_per_line_writer(tr):
    text = tr.dump()
    assert text == reference_dump(tr)
    assert ProofTranscript.load(text).dump() == text
