"""Stream grammar, instance round trips, proof transcript encoding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annostream import stream as stream_mod
from annostream.stream import (DELTA_BOUND, MODELS, AdjItem, EdgeToken,
                               GraphInstance, ParseError, ProofTranscript,
                               SetMember, SetQuery, parse_stream,
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
_TRANSCRIPT = st.lists(st.one_of(_HEADER, _VALUES, st.just("!transcript v=1")),
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
    tr.add_coeffs("block", np.arange(12, dtype=np.int64).reshape(3, 4))
    tr.add_scalars("tail", [9])
    assert tr.element_count() == 5 + 12 + 1
    back = ProofTranscript.load(tr.dump())
    assert back.element_count() == tr.element_count()
    assert [b.label for b in back.blocks] == ["labels", "block", "tail"]
    assert np.array_equal(back.blocks[1].values, tr.blocks[1].values)
    assert back.blocks[1].shape == (3, 4)
    assert back.dump() == tr.dump()


def test_transcript_reader_enforces_order_and_shape():
    tr = ProofTranscript()
    tr.add_scalars("a", [7])
    tr.add_coeffs("b", np.ones((2, 2), dtype=np.int64))
    r = tr.reader(97)
    assert r.scalar("a") == 7
    with pytest.raises(Exception):
        r.coeffs("b", (3, 2))


def test_transcript_load_rejects_bad_counts():
    text = "!transcript v=1\n@x kind=scalars count=3\n1 2\n"
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
