"""Runner plumbing: space meter, trial stats, mutation machinery, the
input domain."""

from pathlib import Path

import numpy as np
import pytest

import annostream  # registers schemes
from annostream import cli
from annostream.extension import resolve_shape
from annostream.generators import (clique_edges, gnp_edges, vanilla_instance,
                                   with_query_set)
from annostream.protocol import (MUTATIONS, SCHEMES, SpaceMeter, TrialStats,
                                 get_scheme, run_adversarial, run_honest,
                                 run_with_transcript, sweep_costs)
from annostream.stream import ParseError, ProofTranscript, parse_stream


def test_registry_holds_all_schemes():
    expected = {
        "tri-laconic", "tri-frugal", "tri-sparse", "tri-adj",
        "edgecount-induced", "edgecount-cross",
        "maxmatch-frugal", "maxmatch-laconic",
        "mis", "toposort", "acyclicity", "components",
        "sssp-unweighted", "stpath", "sssp-wturnstile", "sssp-wvanilla",
    }
    assert set(SCHEMES) == expected
    assert get_scheme("mis") is SCHEMES["mis"]
    with pytest.raises(KeyError):
        get_scheme("nope")


def test_space_meter_tracks_peak():
    m = SpaceMeter()
    m.alloc("a", 5)
    m.alloc("b", 3)
    assert m.current == 8 and m.peak == 8
    m.free("a")
    assert m.current == 3 and m.peak == 8
    m.alloc("c", 4)
    assert m.peak == 8
    m.grow("c", 10)
    assert m.peak == 17
    with pytest.raises(ValueError):
        m.alloc("b", 1)


def test_trial_stats_wilson():
    st = TrialStats(scheme="x", policy="y", trials=500, accepted=0,
                    accepted_wrong=0, rejected=500)
    assert st.wrong_rate == 0.0
    # Wilson upper bound at zero successes stays near z^2/(n+z^2)
    assert 0.0 < st.wilson_upper() < 0.02
    st2 = TrialStats(scheme="x", policy="y", trials=100, accepted_wrong=50)
    assert st2.wrong_rate == 0.5
    assert st2.wilson_upper() > 0.5
    empty = TrialStats(scheme="x", policy="y")
    assert empty.wrong_rate == 0.0


def test_run_honest_accepts_and_reports_costs():
    inst = vanilla_instance(5, clique_edges(5))
    scheme = get_scheme("tri-laconic").configure(inst, t=4)
    res = run_honest(scheme, inst, seed=7)
    assert res.accepted and res.value == 10
    assert res.hcost == 7 and res.vcost > 0 and res.p > 5 ** 3


def test_run_with_transcript_replays():
    inst = vanilla_instance(5, clique_edges(5))
    scheme = get_scheme("tri-laconic").configure(inst, t=4)
    cfg = scheme.field_config(inst, None)
    tr = scheme.prove(inst, cfg.p)
    res = run_with_transcript(scheme, inst, tr, seed=3, p=cfg.p)
    assert res.accepted and res.value == 10


def test_mutations_change_transcripts():
    inst = vanilla_instance(6, gnp_edges(6, 0.6, 1))
    scheme = get_scheme("tri-frugal").configure(inst, t=2)
    cfg = scheme.field_config(inst, None)
    honest = scheme.prove(inst, cfg.p)
    import random
    for policy in scheme.mutations:
        rng = random.Random(42)
        mutated = MUTATIONS[policy](scheme, inst, honest, cfg.p, rng)
        assert mutated is not None
        assert mutated.dump() != honest.dump(), policy
        # honest transcript untouched by the mutation
        res = run_with_transcript(scheme, inst, honest, seed=1, p=cfg.p)
        assert res.accepted


def test_run_adversarial_counts():
    inst = vanilla_instance(6, gnp_edges(6, 0.6, 1))
    scheme = get_scheme("tri-laconic").configure(inst, t=3)
    st = run_adversarial(scheme, inst, "coefficient_flip", trials=25, seed=5)
    assert st.trials == 25
    assert st.accepted + st.rejected == 25
    assert st.accepted_wrong <= st.accepted
    # a precomputed honest transcript gives the same trials
    cfg = scheme.field_config(inst)
    again = run_adversarial(scheme, inst, "coefficient_flip", trials=25,
                            seed=5, honest=scheme.prove(inst, cfg.p))
    assert again == st
    with pytest.raises(KeyError):
        run_adversarial(scheme, inst, "nonsense", trials=1)
    with pytest.raises(ValueError):
        run_adversarial(scheme, inst, "vertex_list_permutation_lie", trials=1)


def test_sweep_costs_rows():
    inst = vanilla_instance(9, gnp_edges(9, 0.5, 2))
    rows = sweep_costs("tri-laconic", inst, [(1, 9), (3, 3), (9, 1)], seed=1)
    assert [r["t"] for r in rows] == [1, 3, 9]
    for r in rows:
        assert set(r) == {"scheme", "n", "t", "s", "hcost_elems",
                          "vcost_elems", "hbits", "vbits", "product_bits"}
        assert r["hcost_elems"] == 2 * r["t"] - 1
        assert r["product_bits"] == r["hbits"] * r["vbits"]


# the CLI's refusal repros (tests/test_cli.py), now refused by every runner
NEGATIVE = "n=4 model=turnstile\n1 2 1\n2 3 1\n1 3 -1\n3 4 1\n"
HEAVY = "n=4 model=turnstile W=2 source=1\n1 2 5\n2 3 1\n3 4 2\n"
WRAP = "n=3 model=turnstile\n1 2 5000000\n2 3 5000000\n1 3 5000000\n"
CYCLIC = "n=3 model=turnstile\n1 2 1\n2 3 1\n3 1 1\n"
CYCLIC_ARCS = "n=3 model=vanilla\n1 2\n2 3\n3 1\n"
ADJ = "n=3 model=adjlist\n1: 2\n2: 1\n3:\n"


@pytest.mark.parametrize("text,name,reason", [
    (NEGATIVE, "tri-laconic", "edge 1 3 has final multiplicity -1"),
    (NEGATIVE, "mis", "edge 1 3 has final multiplicity -1"),
    (HEAVY, "sssp-wturnstile", "edge 1 2 has final multiplicity 5"),
    (WRAP, "tri-laconic", "the count would wrap mod p"),
    (CYCLIC, "toposort", "toposort takes vanilla streams, not turnstile"),
    (ADJ, "edgecount-cross",
     "edgecount-cross takes turnstile or vanilla streams, not adjlist"),
    (NEGATIVE, "edgecount-induced",
     "edgecount-induced needs at least one query-set line"),
    (NEGATIVE, "sssp-unweighted", "sssp-unweighted needs source= in the"),
    (CYCLIC_ARCS, "toposort", "toposort needs an acyclic stream"),
], ids=["negative", "negative-simple", "above-w", "wrap", "model-first",
        "model", "no-query", "no-source", "cyclic"])
def test_runners_refuse_inputs_outside_the_domain(text, name, reason):
    inst = parse_stream(text)
    scheme = get_scheme(name).configure(inst)
    with pytest.raises(ValueError, match=reason):
        run_honest(scheme, inst)
    with pytest.raises(ValueError, match=reason):
        run_with_transcript(scheme, inst, ProofTranscript())
    with pytest.raises(ValueError, match=reason):
        run_adversarial(scheme, inst, "coefficient_flip", 1)
    with pytest.raises(ValueError, match=reason):
        sweep_costs(name, inst, [resolve_shape(inst.n, 2, None)])


# --- the input domain of every scheme ---------------------------------------

# one small graph in each model: the triangle 1 2 3 and the path 3 4 5,
# acyclic with every edge u -> v for u < v; the turnstile body inserts
# and deletes 2 5 on the way
BODIES = {
    "turnstile": "1 2 1\n2 3 1\n2 5 1\n1 3 1\n2 5 -1\n3 4 1\n4 5 1\n",
    "vanilla": "1 2\n2 3\n1 3\n3 4\n4 5\n",
    "weighted": "1 2 1\n2 3 2\n1 3 1\n3 4 2\n4 5 1\n",
    "adjlist": "1: 2 3\n2: 1 3\n3: 1 2 4\n4: 3 5\n5: 4\n",
}
QUERIES = {"none": "", "U": "U: 1 2 3\n", "U+W": "U+W: 1 2 | 3 4\n"}
HEADERS = {"none": "", "source": " source=1", "source+target":
           " source=1 target=5"}

PAIR_MODELS = ("turnstile", "vanilla")
# what each scheme takes, written out here rather than read from the
# declarations it tests: stream models, query lines, header fields
DOMAIN = {
    "tri-laconic": (PAIR_MODELS, ("none",), "none"),
    "tri-frugal": (PAIR_MODELS, ("none",), "none"),
    "tri-sparse": (PAIR_MODELS, ("none",), "none"),
    "tri-adj": (("adjlist",), ("none",), "none"),
    "edgecount-induced": (PAIR_MODELS, ("U",), "none"),
    "edgecount-cross": (PAIR_MODELS, ("U", "U+W"), "none"),
    "maxmatch-frugal": (PAIR_MODELS, ("none",), "none"),
    "maxmatch-laconic": (PAIR_MODELS, ("none",), "none"),
    "mis": (PAIR_MODELS, ("none",), "none"),
    "toposort": (("vanilla",), ("none",), "none"),
    "acyclicity": (("vanilla",), ("none",), "none"),
    "components": (PAIR_MODELS, ("none",), "none"),
    "sssp-unweighted": (PAIR_MODELS, ("none",), "source"),
    "stpath": (PAIR_MODELS, ("none",), "source+target"),
    "sssp-wturnstile": (("turnstile",), ("none",), "source"),
    "sssp-wvanilla": (("weighted",), ("none",), "source"),
}
HEADER_RANK = ("none", "source", "source+target")


def _domain_input(model, query, header):
    """(stream text, instance); a query line on a weighted or adjacency
    stream does not parse, so its instance gets the line from
    `with_query_set`."""
    W = " W=2" if model == "weighted" else ""
    text = f"n=5 model={model}{W}{HEADERS[header]}\n{BODIES[model]}"
    try:
        return text + QUERIES[query], parse_stream(text + QUERIES[query])
    except ParseError:
        assert query != "none" and model in ("weighted", "adjlist")
    inst = parse_stream(text)
    left, _, right = QUERIES[query].partition(":")[2].partition("|")
    return text + QUERIES[query], with_query_set(
        inst, [int(x) for x in left.split()], [int(x) for x in right.split()])


def _refused_before_proving(monkeypatch, cls):
    def ran(*args, **kw):
        raise AssertionError(f"{cls.name} ran on an input outside its domain")
    monkeypatch.setattr(cls, "prove", ran)
    monkeypatch.setattr(cls, "run_verifier", ran)


def test_domain_table_covers_every_scheme():
    assert set(DOMAIN) == set(SCHEMES)


@pytest.mark.parametrize("model", tuple(BODIES))
@pytest.mark.parametrize("name", sorted(DOMAIN))
def test_every_runner_takes_exactly_the_domain(tmp_path, capsys, monkeypatch,
                                               name, model):
    models, queries, header_need = DOMAIN[name]
    cls = get_scheme(name)
    for query in QUERIES:
        for header in HEADERS:
            text, inst = _domain_input(model, query, header)
            path = tmp_path / "g.stream"
            path.write_text(text)
            argv = ["run", "--scheme", name, "--input", str(path)]
            scheme = cls.configure(inst)
            shape = [resolve_shape(inst.n, None, None)]
            case = f"{name} on {model}, query {query}, header {header}"
            takes = (model in models and query in queries and
                     HEADER_RANK.index(header)
                     >= HEADER_RANK.index(header_need))
            if takes:
                res = run_honest(scheme, inst, seed=1)
                assert res.accepted, (case, res.reason)
                honest = scheme.prove(inst, res.p)
                assert run_with_transcript(scheme, inst, honest,
                                           seed=2).accepted, case
                assert run_adversarial(scheme, inst, scheme.mutations[0],
                                       1).trials == 1, case
                assert len(sweep_costs(name, inst, shape)) == 1, case
                assert cli.main(argv) == 0, case
                capsys.readouterr()
                continue
            with monkeypatch.context() as mp:
                _refused_before_proving(mp, cls)
                for run in (lambda: run_honest(scheme, inst),
                            lambda: run_with_transcript(scheme, inst,
                                                        ProofTranscript()),
                            lambda: run_adversarial(scheme, inst,
                                                    scheme.mutations[0], 1),
                            lambda: sweep_costs(name, inst, shape)):
                    with pytest.raises(ValueError, match=name):
                        run()
                assert cli.main(argv) == 2, case
                assert "error: " in capsys.readouterr().err, case


def _readme_schemes() -> dict:
    """The README's scheme table as {name: {column: cell}}."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    rows = [line.strip().strip("|").split("|")
            for line in text.split("## Schemes", 1)[1].splitlines()
            if line.startswith("|")]
    head = [cell.strip() for cell in rows[0]]
    return {row[0].strip(): dict(zip(head, (c.strip() for c in row)))
            for row in rows[2:]}


def test_readme_scheme_table_lists_the_declared_domains():
    table = _readme_schemes()
    assert set(table) == set(SCHEMES)
    for name, cls in SCHEMES.items():
        row = table[name]
        assert tuple(row["input model"].split(", ")) == cls.models, name
        needs = row["needs"]
        assert ("U:" in needs) == (cls.query_arity >= 1), name
        assert ("U+W:" in needs) == (cls.query_arity == 2), name
        for key in ("source", "target"):
            assert (f"{key}=" in needs) == (key in cls.header_fields), name
        assert ("DAG" in needs) == cls.acyclic, name
        assert ("simple graph" in needs) == cls.simple_graph, name
        assert ("≤ W" in needs) == cls.weight_bounded, name


# --- the one modulus refusal ------------------------------------------------

# the smallest prime above 2^25, the vectorised kernels' limit
PAST_LIMIT = 33554467


@pytest.mark.parametrize("name", sorted(DOMAIN))
def test_every_scheme_refuses_a_modulus_past_the_limit(tmp_path, capsys,
                                                       monkeypatch, name):
    models, queries, header = DOMAIN[name]
    text, inst = _domain_input(models[0], queries[0], header)
    stream, proof = tmp_path / "g.stream", tmp_path / "g.proof"
    stream.write_text(text)
    cls = get_scheme(name)
    scheme = cls.configure(inst)
    proof.write_text(scheme.prove(inst, scheme.field_config(inst).p).dump())
    shape = [resolve_shape(inst.n, None, None)]
    monkeypatch.setenv("ANNOSTREAM_MODULUS", str(PAST_LIMIT))
    with monkeypatch.context() as mp:
        _refused_before_proving(mp, cls)
        for run in (lambda: scheme.field_config(inst, PAST_LIMIT),
                    lambda: run_honest(scheme, inst, p=PAST_LIMIT),
                    lambda: run_with_transcript(scheme, inst,
                                                ProofTranscript(),
                                                p=PAST_LIMIT),
                    lambda: run_adversarial(scheme, inst,
                                            scheme.mutations[0], 1,
                                            p=PAST_LIMIT),
                    lambda: sweep_costs(name, inst, shape, p=PAST_LIMIT)):
            with pytest.raises(ValueError,
                               match="too large for vectorized path"):
                run()
        argv = ["run", "--scheme", name, "--input", str(stream)]
        for extra in ([], ["--replay", str(proof)]):
            assert cli.main(argv + extra) == 2, extra
            out, err = capsys.readouterr()
            assert not out and "too large for vectorized path" in err


# --- query sets are sets ------------------------------------------------------

TRIANGLE = "n=3 model=vanilla\n1 2\n2 3\n1 3\n"
K4 = "n=4 model=vanilla\n1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n"


@pytest.mark.parametrize("name, text, twice", [
    ("edgecount-induced", TRIANGLE + "U: 1 2\nU: 2 3\n", 2),
    ("edgecount-induced", TRIANGLE + "U: 3 1 3\n", 3),
    ("edgecount-cross", K4 + "U+W: 1 2 | 1 2\n", 1),
    ("edgecount-cross", K4 + "U+W: 1 | 2\nU+W: 3 | 2\n", 2),
    ("edgecount-cross", K4 + "U: 4\nU+W: 1 | 4\n", 4),
    ("edgecount-cross", K4 + "U+W: 1 | 2 3 3\n", 3),
], ids=["across-U-lines", "within-a-U-line", "U-and-W-of-one-line",
        "W-across-lines", "U-line-then-W", "within-a-W-line"])
def test_a_vertex_listed_twice_among_query_sets_is_refused(
        tmp_path, capsys, monkeypatch, name, text, twice):
    inst = parse_stream(text)
    cls = get_scheme(name)
    path = tmp_path / "q.stream"
    path.write_text(text)
    with monkeypatch.context() as mp:
        _refused_before_proving(mp, cls)
        with pytest.raises(ValueError, match=f"vertex {twice} is listed "
                                             "twice"):
            run_honest(cls.configure(inst), inst)
        assert cli.main(["run", "--scheme", name, "--input", str(path)]) == 2
        assert f"vertex {twice} is listed twice" in capsys.readouterr().err
    # the same sets without the repeat are taken
    once = text.replace("U: 1 2\nU: 2 3", "U: 1 2\nU: 3")
    if once != text:
        res = run_honest(cls.configure(parse_stream(once)), parse_stream(once))
        assert res.accepted and res.value == (1, 3)
