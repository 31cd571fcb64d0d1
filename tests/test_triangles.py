"""Triangle counting schemes across the four stream models."""

import random

import pytest

from annostream.generators import (adjlist_instance, clique_edges,
                                   cycle_edges, gnp_edges, path_edges,
                                   turnstile_instance, vanilla_instance)
from annostream.oracle import oracle_triangles
from annostream.protocol import get_scheme, run_adversarial, run_honest
from annostream.stream import ParseError

DENSE = ("tri-laconic", "tri-frugal")
ALL = ("tri-laconic", "tri-frugal", "tri-sparse", "tri-adj")


def _instance_for(name, n, edges):
    if name == "tri-adj":
        return adjlist_instance(n, edges)
    if name == "tri-sparse":
        return vanilla_instance(n, edges)
    return turnstile_instance(n, edges, churn=3, seed=n)


@pytest.mark.parametrize("name", ALL)
def test_hand_counts(name):
    for n, edges, want in ((5, clique_edges(5), 10),
                           (6, path_edges(6), 0),
                           (3, cycle_edges(3), 1),
                           (4, [], 0)):
        inst = _instance_for(name, n, edges)
        scheme = get_scheme(name).configure(inst)
        res = run_honest(scheme, inst, seed=11)
        assert res.accepted, res.reason
        assert res.value == want


@pytest.mark.parametrize("name", DENSE)
@pytest.mark.parametrize("shape", [(None, None), (1, None), (None, 1)])
def test_runs_across_shapes(name, shape):
    rng = random.Random(5)
    for trial in range(8):
        n = rng.randrange(5, 12)
        inst = turnstile_instance(n, gnp_edges(n, 0.5, 40 + trial),
                                  churn=2, seed=trial)
        scheme = get_scheme(name).configure(inst, t=shape[0], s=shape[1])
        res = run_honest(scheme, inst, seed=trial)
        assert res.accepted, res.reason
        assert res.value == oracle_triangles(inst)


def test_turnstile_deletions_and_multiplicity():
    from annostream.stream import EdgeToken, GraphInstance

    def run(tokens):
        inst = GraphInstance(n=4, model="turnstile", tokens=tokens)
        return run_honest(get_scheme("tri-laconic").configure(inst), inst)

    tri = [EdgeToken(u, v, 1) for (u, v) in cycle_edges(3)]
    extra = [EdgeToken(1, 4, 1), EdgeToken(2, 4, 1)]
    assert run(tri + extra).value == 2            # {123} and {124}
    # net-deleting 1-2 kills both triangles
    assert run(tri + extra + [EdgeToken(2, 1, -1)]).value == 0
    # doubling 1-2 doubles each product term
    assert run(tri + extra + [EdgeToken(1, 2, 1)]).value == 4
    # insert-then-cancel leaves the count alone
    churned = tri + [EdgeToken(3, 4, 1)] + extra + [EdgeToken(3, 4, -1)]
    assert run(churned).value == 2


def test_laconic_transcript_is_odd_polynomial_length():
    inst = turnstile_instance(9, gnp_edges(9, 0.5, 3))
    for t in (1, 3, 9):
        scheme = get_scheme("tri-laconic").configure(inst, t=t)
        res = run_honest(scheme, inst)
        assert res.accepted
        assert res.hcost == 2 * t - 1
        assert res.vcost <= scheme.vcost_bound(inst)


def test_frugal_costs_within_bounds():
    inst = turnstile_instance(8, gnp_edges(8, 0.6, 4))
    for t, s in ((1, 8), (2, 4), (4, 2), (8, 1)):
        scheme = get_scheme("tri-frugal").configure(inst, t=t, s=s)
        res = run_honest(scheme, inst)
        assert res.accepted
        assert res.hcost <= (2 * t - 1) ** 2 * (2 * 8 - 1)
        assert res.vcost <= 2 * s + 16


def test_sparse_replay_checks_neighborhoods():
    # the sparse scheme replays adjacency ids; corrupting the replay
    # must trip the replay fingerprint, not just the count
    inst = vanilla_instance(7, gnp_edges(7, 0.5, 6))
    scheme = get_scheme("tri-sparse").configure(inst)
    cfg = scheme.field_config(inst, None)
    tr = scheme.prove(inst, cfg.p)
    from annostream.protocol import run_with_transcript
    res = run_with_transcript(scheme, inst, tr, seed=2, p=cfg.p)
    assert res.accepted and res.value == oracle_triangles(inst)


def test_adjlist_scheme_requires_adjacency_model():
    inst = vanilla_instance(5, clique_edges(5))
    scheme = get_scheme("tri-adj").configure(inst)
    with pytest.raises(ValueError, match="tri-adj takes adjlist streams"):
        run_honest(scheme, inst)


@pytest.mark.parametrize("name", ALL)
def test_adversarial_catch_rate(name):
    inst = _instance_for(name, 8, gnp_edges(8, 0.5, 7))
    scheme = get_scheme(name).configure(inst)
    for policy in scheme.mutations:
        st = run_adversarial(scheme, inst, policy, trials=60, seed=13)
        assert st.accepted_wrong == 0, (name, policy)


# one triangle whose edge 1-2 nets +1 from two huge opposite deltas
HUGE = ["n=3 model=turnstile", "1 2 {big}", "1 2 {drop}", "2 3 1", "1 3 1"]


@pytest.mark.parametrize("big", [2 ** 40, 2 ** 50])
def test_huge_turnstile_deltas_charge_exactly(big, tmp_path, capsys):
    from annostream import cli
    from annostream.stream import parse_stream
    text = "\n".join(HUGE).format(big=big, drop=1 - big) + "\n"
    inst = parse_stream(text)
    path = tmp_path / "g.stream"
    path.write_text(text)
    for name in DENSE:
        res = run_honest(get_scheme(name).configure(inst), inst)
        assert res.accepted and res.value == 1, (name, res.reason)
        assert cli.main(["run", "--scheme", name, "--input", str(path)]) == 0
        assert "output=1" in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("n,prob", [(130, 0.05), (300, 0.01)])
def test_churned_turnstile_at_large_moduli(n, prob):
    # p = 2197021 and 27000011: a deletion reduced to p - 1 times an
    # unreduced product of two residues would pass 2^63
    inst = turnstile_instance(n, gnp_edges(n, prob, 5), churn=60, seed=5)
    want = oracle_triangles(inst)
    for name in DENSE:
        res = run_honest(get_scheme(name).configure(inst), inst)
        assert res.accepted and res.value == want, (name, res.reason)
