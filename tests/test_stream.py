"""Stream grammar, instance round trips, proof transcript encoding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annostream.stream import (EdgeToken, GraphInstance, ParseError,
                               ProofTranscript, SetQuery, parse_stream,
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
