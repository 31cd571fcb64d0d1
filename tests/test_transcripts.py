"""Pinned honest transcripts and the harness-level trailing-help check.

The sha256 of every scheme's honest `dump()` on a small fixed input is
pinned, so a refactor of the provers or of the transcript layout that
changes a single help element shows up here. Any block appended after
the last one a verifier reads is rejected by the runner.
"""

import hashlib

import pytest

import annostream  # registers schemes
from annostream.generators import (adjlist_instance, dag_instance,
                                   digraph_instance, gnp_edges, path_edges,
                                   turnstile_instance, vanilla_instance,
                                   weighted_instance,
                                   weighted_turnstile_instance,
                                   with_query_set)
from annostream.protocol import (_clone_transcript, get_scheme,
                                 run_with_transcript)


def _cases():
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
        "acyclicity/cyclic": digraph_instance(9, 0.35, 43),
        "components": turnstile_instance(9, gnp_edges(9, 0.2, seed),
                                         seed=seed),
        "sssp-unweighted": turnstile_instance(9, gnp_edges(9, 0.35, seed),
                                              seed=seed, source=1),
        "stpath": vanilla_instance(8, path_edges(8), source=1, target=6),
        "sssp-wturnstile": weighted_turnstile_instance(9, 0.4, 3, seed=seed,
                                                       churn=2, source=1),
        "sssp-wvanilla": weighted_instance(9, 0.4, 3, seed=seed, source=1),
    }


PINNED = {
    "acyclicity":
        "5dc4daa815dc5c93d0b39da80a2afa92c00c8d30340a0dee365a566ac1289cdd",
    "acyclicity/cyclic":
        "ce8688645ddc586b3dc601ac247d2a73444f6b10492d43edc20bd8d78aa85f53",
    "components":
        "5bc47eaaa84d1b4e597a111ff0efeac12d3dcabc1be84fa57d76ac49af1a7d4c",
    "edgecount-cross":
        "75241694c239218867acde4a33cb9dd817a84145d9a23ce3b1a0db82128682e6",
    "edgecount-induced":
        "3865128b464c65a643f4bfb3a39aa61e39623ef9d90c74ce6829c6afe8470922",
    "maxmatch-frugal":
        "362ae07f293c7f412a64c7eaf2ff79615232b15546c390ec404bf25f975af02f",
    "maxmatch-laconic":
        "59845ad96f89a9daeaddc52804f4b8fa966d6a8eac2588399e1573716783a877",
    "mis":
        "b22404460258b4d7aac40404d5986d3d6aa0c5e0f32e4249c1a7b592c8e990e2",
    "sssp-unweighted":
        "b45d50cb5f500cbe50a230da4a92ed98dc582137b49737eec669a8a027fb51db",
    "sssp-wturnstile":
        "a171b01b528fc2232590c77b8da6c9cba463b5445dad79373e868579cc53fe1c",
    "sssp-wvanilla":
        "8b6b37d550cab713598bcdd6da03d846a4f3c1ece6bb0b358ebedd84d77c76dc",
    "stpath":
        "910ae13230c1d722d6960a1c2b538dc691d43d240d9871a74bb5e46dfc9e8bd9",
    "toposort":
        "1bff0f6f60d738163d003c552eba837f7ad2dc698436d3ba356d9000ca8f0c5b",
    "tri-adj":
        "c0f39be260eb1611e4d88895da12076a3d06a048a6d5e91912efe16cafd97703",
    "tri-frugal":
        "08b1bfb2d3d9476b1273105ef4098fd24d261cec67b81f7d244f56bf32c64ac6",
    "tri-laconic":
        "ef85197d9e1a0e80104b2c15fc67c56f9b7f9ff2f53bd481d79d02052eff2f30",
    "tri-sparse":
        "c1317bdf5ea6258266a37ac1829ef3b78584ce9870f6a7c35bd4dd7ef6fecbf1",
}


def _honest(key):
    inst = _cases()[key]
    scheme = get_scheme(key.split("/")[0]).configure(inst)
    p = scheme.field_config(inst, None).p
    return scheme, inst, p, scheme.prove(inst, p)


@pytest.mark.parametrize("key", sorted(PINNED))
def test_honest_transcript_is_pinned(key):
    _, _, _, tr = _honest(key)
    assert hashlib.sha256(tr.dump().encode()).hexdigest() == PINNED[key]


@pytest.mark.parametrize("key", sorted(PINNED))
def test_trailing_block_is_rejected(key):
    scheme, inst, p, tr = _honest(key)
    assert run_with_transcript(scheme, inst, tr, seed=3, p=p).accepted
    padded = _clone_transcript(tr)
    padded.add_scalars("extra", [1])
    res = run_with_transcript(scheme, inst, padded, seed=3, p=p)
    assert not res.accepted
    assert res.reason == "unexpected trailing help"
