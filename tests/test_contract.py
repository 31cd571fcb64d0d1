"""Aim 3 as one property: every stream the parser accepts is either refused
with ValueError (exit 2 at the command line) or proved and verified with
the oracle's value and costs on their formulas.

The streams are drawn as text and parsed, over all four models, with and
without header fields and query-set lines, and with turnstile deltas up to
2^61; each draw also picks a scheme, a shape and a modulus (automatic, or
an explicit prime on either side of the vectorised limit).
"""

import contextlib
import io
import os
import tempfile
from unittest import mock

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from annostream import SCHEMES, cli
from annostream.protocol import run_honest
from annostream.stream import (DELTA_BOUND, MODELS, ParseError,
                               parse_stream)

# tiny primes refuse most shapes, the middle ones run, 33554393 is the
# largest the vectorised kernels take and 33554467 the first they refuse
_MODULI = (None, None, None, 2, 3, 7, 13, 101, 65537, 1048583, 33554393,
           33554467)


@st.composite
def _turnstile_body(draw, edges):
    """Tokens in a drawn order: each edge's final multiplicity (mostly
    small, sometimes up to 2^61, sometimes negative), plus churn pairs."""
    budget, tokens = DELTA_BOUND, []
    big = st.integers(1, 2 ** 61)
    for u, v in edges:
        mult = draw(st.one_of(st.integers(1, 3), st.integers(-2, -1), big))
        deltas = [mult]
        if draw(st.booleans()):
            churn = draw(st.one_of(st.integers(1, 3), big))
            deltas += [churn, -churn]
        for d in deltas:
            if abs(d) >= budget:
                d = 1 if d > 0 else -1
            budget -= abs(d)
            a, b = (u, v) if draw(st.booleans()) else (v, u)
            tokens.append(f"{a} {b} {d}")
    return draw(st.permutations(tokens))


@st.composite
def _query_lines(draw, n, arity):
    """Up to two query-set lines, at least one for a scheme that reads
    them: half over distinct vertices, and every one a U+W: line for a
    scheme that counts crossings."""
    lines = []
    for _ in range(draw(st.integers(1 if arity else 0, 2))):
        ids = st.lists(st.integers(1, n), max_size=4)
        left, right = draw(ids), draw(ids)
        if draw(st.booleans()):  # distinct members, as the schemes need
            perm = draw(st.permutations(range(1, n + 1)))
            cut = draw(st.integers(0, n))
            left, right = perm[:cut][:4], perm[cut:][:4]
        if arity == 2 or draw(st.booleans()):
            lines.append(f"U+W: {' '.join(map(str, left))} | "
                         f"{' '.join(map(str, right))}")
        else:
            lines.append("U: " + " ".join(map(str, left)))
    return lines


@st.composite
def _cases(draw):
    """(scheme name, stream text). Half the draws keep the model, header
    fields and query lines to what the scheme reads; the rest draw them
    freely."""
    name = draw(st.sampled_from(sorted(SCHEMES)))
    cls = SCHEMES[name]
    fits = draw(st.booleans())
    n = draw(st.sampled_from(range(1, 13)))
    model = draw(st.sampled_from(cls.models if fits else MODELS))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True,
                          max_size=20)) if pairs else []
    header = [f"n={n}", f"model={model}"]
    W = 1
    if model == "weighted" or draw(st.booleans()):
        W = draw(st.integers(1, 4))
        header.append(f"W={W}")
    for key in ("source", "target"):
        if (fits and key in cls.header_fields) or draw(st.booleans()):
            header.append(f"{key}={draw(st.integers(1, n))}")
    if model == "turnstile":
        body = draw(_turnstile_body(edges))
    elif model == "adjlist":
        rows = {v: [] for v in range(1, n + 1)}
        for u, v in edges:
            rows[u].append(v)
            rows[v].append(u)
        body = [f"{v}: " + " ".join(map(str, draw(st.permutations(nb))))
                for v, nb in rows.items()]
    else:
        # half the streams point every edge along one drawn vertex order
        rank = draw(st.permutations(range(n + 1)))
        acyclic = draw(st.booleans())
        oriented = [(u, v) if (rank[u] < rank[v] if acyclic
                               else draw(st.booleans())) else (v, u)
                    for u, v in edges]
        body = [f"{a} {b}" + (f" {draw(st.integers(1, W))}"
                              if model == "weighted" else "")
                for a, b in draw(st.permutations(oriented))]
    if model in ("turnstile", "vanilla") and (
            cls.query_arity if fits else draw(st.booleans())):
        body += draw(_query_lines(n, cls.query_arity))
    return name, "\n".join([" ".join(header)] + body) + "\n"


_SIZE = st.one_of(st.none(), st.integers(0, 13))
_DRAW = dict(case=_cases(),
             shape=st.one_of(st.just((None, None)), st.tuples(_SIZE, _SIZE)),
             p=st.sampled_from(_MODULI))


@settings(max_examples=600, deadline=None)
@given(seed=st.integers(0, 2 ** 16), **_DRAW)
def test_every_accepted_stream_is_refused_or_proved_exactly(case, shape, p,
                                                            seed):
    (name, text), (t, s) = case, shape
    try:
        inst = parse_stream(text)
    except ParseError:
        assume(False)
    try:
        scheme = SCHEMES[name].configure(inst, t=t, s=s)
        res = run_honest(scheme, inst, seed=seed, p=p)
    except ValueError:
        return
    assert res.accepted, res.reason
    assert scheme.output_correct(inst, res.value), (res.value,
                                                    scheme.oracle_value(inst))
    assert res.hcost == scheme.hcost_bound(inst)
    assert res.vcost <= scheme.vcost_bound(inst)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(**_DRAW)
def test_annostream_run_exits_zero_or_two(case, shape, p):
    name, text = case
    argv = ["run", "--scheme", name]
    for flag, val in zip(("--t", "--s"), shape):
        if val is not None:
            argv += [flag, str(val)]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g.stream")
        with open(path, "w") as fh:
            fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.dict(os.environ), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            os.environ.pop("ANNOSTREAM_MODULUS", None)
            if p is not None:
                os.environ["ANNOSTREAM_MODULUS"] = str(p)
            code = cli.main(argv + ["--input", path])
    assert code in (0, 2), out.getvalue() + err.getvalue()
