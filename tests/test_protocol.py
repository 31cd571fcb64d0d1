"""Runner plumbing: space meter, trial stats, mutation machinery, the
input domain, the kept builds and stream passes."""

import random
from pathlib import Path

import numpy as np
import pytest

import annostream  # registers schemes
from annostream import cli, extension, graphapps, protocol, setops
from annostream.extension import resolve_shape
from annostream.generators import (adjlist_instance, clique_edges,
                                   dag_instance, gnp_edges, path_edges,
                                   turnstile_instance, vanilla_instance,
                                   weighted_instance,
                                   weighted_turnstile_instance,
                                   with_query_set)
from annostream.protocol import (MUTATIONS, SCHEMES, Coins, SpaceMeter,
                                 TrialStats, check_domain, get_scheme,
                                 run_adversarial, run_honest,
                                 run_with_transcript, sweep_costs)
from annostream.stream import (EdgeToken, GraphInstance, ParseError,
                               ProofTranscript, parse_stream)


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


def test_space_meter_restores_a_snapshot():
    m = SpaceMeter()
    m.alloc("a", 5)
    m.grow("q")
    snap = m.snapshot()
    m.free("a")
    m.alloc("b", 9)
    m.restore(snap)
    assert (m.current, m.peak) == (6, 6)
    m.free("a")
    m.grow("q", 2)
    assert (m.current, m.peak) == (3, 6)
    m.alloc("b", 9)
    assert (m.current, m.peak) == (12, 12)
    m.restore(snap)
    assert (m.current, m.peak) == (6, 6)


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


@pytest.mark.parametrize("name", sorted(DOMAIN))
def test_a_verification_builds_one_impulse_table_per_point(monkeypatch, name):
    """The sketches and the claims at one random point share its table:
    within one honest run no (point mod p, nodes) table is built twice."""
    models, queries, header = DOMAIN[name]
    inst = _domain_input(models[0], queries[0], header)[1]
    scheme = get_scheme(name).configure(inst)
    built = []
    table = extension.impulse_table

    def counting(x, size, p):
        built.append((x % p, size))
        return table(x, size, p)

    monkeypatch.setattr(extension, "impulse_table", counting)
    extension.impulse_array.cache_clear()
    res = run_honest(scheme, inst, seed=3)
    assert res.accepted, res.reason
    assert built and len(built) == len(set(built)), sorted(built)


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


def test_a_weighted_edge_listed_twice_is_refused():
    # the parser refuses such a stream (duplicate edge); an instance built
    # in the library is refused by the domain check, before proving
    inst = GraphInstance(3, "weighted", W=4, source=1, tokens=[
        EdgeToken(1, 2, 1, 1), EdgeToken(2, 3, 1, 1), EdgeToken(2, 1, 1, 4)])
    scheme = get_scheme("sssp-wvanilla").configure(inst)
    with pytest.raises(ValueError, match="edge 1 2 is listed twice"):
        check_domain(scheme, inst)
    with pytest.raises(ValueError, match="edge 1 2 is listed twice"):
        run_honest(scheme, inst)
    with pytest.raises(ParseError, match="duplicate edge"):
        parse_stream("n=3 model=weighted W=4 source=1\n1 2 1\n2 3 1\n2 1 4\n")
    once = GraphInstance(3, "weighted", W=4, source=1, tokens=[
        EdgeToken(1, 2, 1, 1), EdgeToken(2, 3, 1, 1)])
    res = run_honest(get_scheme("sssp-wvanilla").configure(once), once)
    assert res.accepted and res.value == (0, 1, 2)


# --- the build cache --------------------------------------------------------


def _matching_instance():
    return turnstile_instance(9, gnp_edges(9, 0.5, 42), churn=3, seed=42)


def test_a_lie_that_draws_nothing_is_assembled_once(monkeypatch):
    builds = []
    real = setops.line_check_help

    def counting(*args):
        builds.append(args[-1])
        return real(*args)

    monkeypatch.setattr(setops, "line_check_help", counting)
    inst = _matching_instance()
    scheme = get_scheme("maxmatch-laconic").configure(inst)
    st = run_adversarial(scheme, inst, "output_value_lie", trials=48, seed=3)
    assert st.trials == 48 and st.accepted_wrong == 0
    # four line checks for the honest prove, four for the one forgery
    assert len(builds) == 8
    run_adversarial(scheme, inst, "output_value_lie", trials=48, seed=4)
    assert len(builds) == 8


def test_editing_a_handed_out_build_leaves_the_kept_one():
    inst = _matching_instance()
    scheme = get_scheme("maxmatch-laconic").configure(inst)
    p = scheme.field_config(inst).p
    honest = scheme.prove(inst, p)
    first = scheme.mutate_output(inst, honest, p, random.Random(1))
    text = first.dump()
    first.blocks[-1].values[0] = (first.blocks[-1].values[0] + 1) % p
    first.blocks[-1].shift_total(5, p)
    del first.blocks[0]
    second = scheme.mutate_output(inst, honest, p, random.Random(1))
    assert second.dump() == text
    honest.blocks[0].values[:] = 0
    assert scheme.prove(inst, p).dump() != honest.dump()


@pytest.mark.parametrize("name, inst", [
    ("maxmatch-frugal", _matching_instance()),
    ("mis", _matching_instance()),
    ("toposort", dag_instance(9, 0.5, 42)),
    ("tri-sparse", vanilla_instance(9, gnp_edges(9, 0.5, 42))),
], ids=["maxmatch-frugal", "mis", "toposort", "tri-sparse"])
def test_a_zero_budget_keeps_nothing_and_changes_no_trial(monkeypatch, name,
                                                          inst):
    def stats(fresh):
        scheme = get_scheme(name).configure(fresh)
        return [run_adversarial(scheme, fresh, policy, trials=24, seed=9)
                for policy in scheme.mutations]

    kept = stats(inst)
    assert any(k[0] == "build" for k in inst.prover_cache
               if isinstance(k, tuple))
    monkeypatch.setattr(protocol, "_KEPT_ELEMS", 0)
    fresh = GraphInstance.from_columns(inst.n, inst.model, inst.W,
                                       inst.source, inst.target,
                                       edges=inst.edges, queries=inst.queries)
    assert stats(fresh) == kept
    assert not any(k[0] == "build" for k in fresh.prover_cache
                   if isinstance(k, tuple))


# --- the kept stream passes -------------------------------------------------


def _one_per_scheme():
    """A fresh small instance per scheme on which every policy of the scheme
    finds something to mutate."""
    seed = 42
    ght = turnstile_instance(9, gnp_edges(9, 0.5, seed), churn=3, seed=seed)
    return {
        "tri-laconic": ght,
        "tri-frugal": ght,
        "tri-sparse": vanilla_instance(9, gnp_edges(9, 0.5, seed)),
        "tri-adj": adjlist_instance(9, gnp_edges(9, 0.5, seed)),
        "edgecount-induced": with_query_set(ght, [1, 2, 3, 4]),
        "edgecount-cross": with_query_set(ght, [1, 2, 3], right=[4, 5, 6]),
        "maxmatch-frugal": ght,
        "maxmatch-laconic": ght,
        "mis": ght,
        "toposort": dag_instance(9, 0.5, seed),
        "acyclicity": dag_instance(9, 0.5, seed),
        "components": turnstile_instance(9, gnp_edges(9, 0.2, seed),
                                         seed=seed),
        "sssp-unweighted": turnstile_instance(9, gnp_edges(9, 0.35, seed),
                                              seed=seed, source=1),
        "stpath": vanilla_instance(8, path_edges(8), source=1, target=6),
        "sssp-wturnstile": weighted_turnstile_instance(9, 0.4, 3, seed=seed,
                                                       churn=2, source=1),
        "sssp-wvanilla": weighted_instance(9, 0.45, 3, seed=seed, source=1),
    }


def _stream_keys(inst) -> list:
    return [k for k in inst.prover_cache
            if isinstance(k, tuple) and k[0] == "stream"]


@pytest.mark.parametrize("name", sorted(SCHEMES))
def test_kept_stream_passes_change_no_trial(monkeypatch, name):
    """Every trial's verdict and costs are those it gets when no stream
    pass is kept and each verification runs its own."""
    verify = protocol._verify

    def trials():
        inst = _one_per_scheme()[name]
        scheme = get_scheme(name).configure(inst)
        seen = []

        def recording(*args, **kw):
            res = verify(*args, **kw)
            seen.append((res.status, res.reason, res.value, res.hcost,
                         res.vcost))
            return res

        monkeypatch.setattr(protocol, "_verify", recording)
        for policy in scheme.mutations:
            run_adversarial(scheme, inst, policy, trials=8, seed=3)
        return seen, _stream_keys(inst)

    kept, keys = trials()
    assert keys
    monkeypatch.setattr(protocol, "_KEPT_ELEMS", 0)
    assert trials() == (kept, [])


@pytest.mark.parametrize("name", sorted(SCHEMES))
def test_the_help_side_draws_no_coin(monkeypatch, name):
    """The coins close when the stream side ends, kept or not: a draw on
    the help side would raise out of the run."""
    closed = []
    close = Coins.close

    def closing(coins):
        closed.append(coins)
        close(coins)

    monkeypatch.setattr(Coins, "close", closing)
    inst = _one_per_scheme()[name]
    scheme = get_scheme(name).configure(inst)
    assert run_honest(scheme, inst, seed=5).accepted
    for policy in scheme.mutations:
        run_adversarial(scheme, inst, policy, trials=1, seed=5)
    assert len(closed) >= 1 + (name != "acyclicity") * len(scheme.mutations)
    for coins in closed:
        with pytest.raises(RuntimeError, match="after the stream side"):
            coins.randrange(7)


@pytest.mark.parametrize("name", sorted(SCHEMES))
def test_trials_that_share_coins_share_the_stream_pass(monkeypatch, name):
    """48 trials of every policy and the honest run take 49 coin draws,
    and each draw runs its stream side once (`acyclicity` once per verdict
    that it meets)."""
    passes = []

    def counting(side):
        def run(self, inst, p, rng, meter):
            passes.append((rng.seed, side.__qualname__))
            return side(self, inst, p, rng, meter)
        return run

    for cls in {k for c in SCHEMES.values() for k in c.__mro__
                if "stream_side" in vars(k)}:
        monkeypatch.setattr(cls, "stream_side",
                            counting(vars(cls)["stream_side"]))
    inst = _one_per_scheme()[name]
    scheme = get_scheme(name).configure(inst)
    assert run_honest(scheme, inst, seed=5).accepted
    for policy in scheme.mutations:
        run_adversarial(scheme, inst, policy, trials=48, seed=5)
    assert len({seed for seed, _ in passes}) == 49
    assert len(passes) == len(set(passes))
    if name != "acyclicity":
        assert len(passes) == 49


def _arrays(x):
    if isinstance(x, np.ndarray):
        yield x
    elif isinstance(x, (list, tuple)):
        for y in x:
            yield from _arrays(y)
    elif hasattr(x, "__dict__"):
        for y in vars(x).values():
            yield from _arrays(y)


@pytest.mark.parametrize("name", sorted(SCHEMES))
def test_a_handed_out_stream_state_is_read_only(monkeypatch, name):
    handed = []
    stream_pass = protocol.stream_pass

    def keeping(*args, **kw):
        handed.append(stream_pass(*args, **kw))
        return handed[-1]

    for module in (annostream.edgecount, annostream.triangles, graphapps,
                   annostream.sssp):
        monkeypatch.setattr(module, "stream_pass", keeping)
    inst = _one_per_scheme()[name]
    scheme = get_scheme(name).configure(inst)
    assert run_honest(scheme, inst, seed=5).accepted
    assert run_honest(scheme, inst, seed=5).accepted
    first, again = handed
    assert again is first
    kept = [v[0] for k, v in inst.prover_cache.items()
            if k in _stream_keys(inst)]
    assert kept == [first]
    assert not any(a.flags.writeable for a in _arrays(first))
