"""Runner plumbing: space meter, trial stats, mutation machinery."""

import numpy as np
import pytest

import annostream  # registers schemes
from annostream.extension import resolve_shape
from annostream.generators import clique_edges, gnp_edges, vanilla_instance
from annostream.protocol import (MUTATIONS, SCHEMES, SpaceMeter, TrialStats,
                                 get_scheme, run_adversarial, run_honest,
                                 run_with_transcript, sweep_costs)
from annostream.stream import ProofTranscript, parse_stream


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


@pytest.mark.parametrize("text,name,reason", [
    (NEGATIVE, "tri-laconic", "edge 1 3 has final multiplicity -1"),
    (NEGATIVE, "mis", "edge 1 3 has final multiplicity -1"),
    (HEAVY, "sssp-wturnstile", "edge 1 2 has final multiplicity 5"),
    (WRAP, "tri-laconic", "the count would wrap mod p"),
], ids=["negative", "negative-simple", "above-w", "wrap"])
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
