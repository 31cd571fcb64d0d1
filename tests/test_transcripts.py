"""Pinned honest and forged transcripts, and the trailing-help check.

The sha256 of every scheme's honest transcript on a small fixed input is
pinned, and so is that of every mutation policy's forgeries of it at a
fixed adversary seed, so a refactor of the provers or of the lies that
changes a single help element shows up here. Each transcript is hashed
in the v=1 layout, which carried every help polynomial as its monomial
coefficients in graded-lex order (`_v1_dump`): the pins then name the
polynomials, whatever layout `dump()` writes.
The verifier's verdict on each of those transcripts (status, reason,
value and both costs) is pinned as well, so a rewrite of a verifier that
changes what it accepts, why it rejects or what it charges shows up too.
Any block appended after the last one a verifier reads is rejected by
the runner.
"""

import hashlib
import math

import pytest

import annostream  # registers schemes
from annostream.generators import (adjlist_instance, dag_instance,
                                   digraph_instance, gnp_edges, path_edges,
                                   turnstile_instance, vanilla_instance,
                                   weighted_instance,
                                   weighted_turnstile_instance,
                                   with_query_set)
from annostream.extension import coeffs_from_values_nd, coeffs_to_serial
from annostream.field import make_rng
from annostream.protocol import (MUTATIONS, _verify, get_scheme,
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


FORGED = {
    "acyclicity:coefficient_flip":
        "0f204ee87f25dfd22bb770aa3b973cff174ff8742246c07117b72e6d8d60fcd6",
    "acyclicity:block_truncation":
        "1f4464838cc69bc10f6e1f36760a5deab46af0f46a164ba6c557122237e96e3e",
    "acyclicity:output_value_lie":
        "8ccc988f7d80d003ee4bdc755f273147db61adccea35c2226bb689f4d19a284e",
    "acyclicity:vertex_list_permutation_lie":
        "0707d1cca7fc1e3e592be76cf194608f977e37f036aa7a282f758997ca6e9c1a",
    "acyclicity/cyclic:coefficient_flip":
        "2517350992b1695bb3b242ce854d889b27a81882b809552d2725a9e5518b5146",
    "acyclicity/cyclic:block_truncation":
        "b04cd7d4b147411b52aa45b487c5a4fee20cac06d4b9dc092ddc971587de76f9",
    "acyclicity/cyclic:output_value_lie":
        "862ea372793a2d869c8c06ac05e03af7dbf494d2981a172d2eef002540169df9",
    "acyclicity/cyclic:vertex_list_permutation_lie":
        "972915c6b29dadc71c4c77451b9a8c50115d8471745454efbc2898e8c6877dbc",
    "components:coefficient_flip":
        "b4d0b14c4ab2851ebd8dcb88ab8f3662140f322ad63af5f428e7ab1dd65b0030",
    "components:block_truncation":
        "cafaa3f9daa098e48fa818277b28f849cc2faae99127b74491f28c4d34409a64",
    "components:output_value_lie":
        "80a388d060e75653a57db0415f39b8f26d059d793f38970f736e595d266f2b9b",
    "components:vertex_list_permutation_lie":
        "aece2599992e816c3bb6153475620d897c6b67297fe619cd12ee2263556207c2",
    "edgecount-cross:coefficient_flip":
        "d7ae407c12c7b0dd7ec8f9a626c4297463ec6164062982e6ac2a5dee40ea31df",
    "edgecount-cross:block_truncation":
        "e0e785fd226fd32ecc488968c8cd89192f46ca1f509751af7de9fac442c4e837",
    "edgecount-cross:output_value_lie":
        "3b823d1779ac2ea467625fdaae2a2baf9a7332911d9564e3366a22e2941dc1e9",
    "edgecount-induced:coefficient_flip":
        "3c79aa787e30b5a0ac41f966f33fd2f2eff73fb35f898590f8043c159c19449d",
    "edgecount-induced:block_truncation":
        "18faee648f3a7b8dd8c73e58d97d09acc3cfdecb9a14eeaea25b2ae31a5836b7",
    "edgecount-induced:output_value_lie":
        "5abed1f8f3a5591ac75e0f98f6062b7ee023472589810e39d871c9a798988a78",
    "maxmatch-frugal:coefficient_flip":
        "d4ed03e723e27c11f1872b4570d4a4af9851261ec01df154d8342ce0a37c7e26",
    "maxmatch-frugal:block_truncation":
        "ff0937c57ac60cf92f734bfc65bfef0d80ad9d0874d07d3a6225a8748d3842ee",
    "maxmatch-frugal:output_value_lie":
        "cb84cd9c3f0a810b1a9ff1e800b130b22d1be10819e26eb5c9cae0335ab13b28",
    "maxmatch-frugal:vertex_list_permutation_lie":
        "a553ee815a3efc0b93d7848e2ff7f6c2898bdb6e907ae7b3b15dd7aedc1addd5",
    "maxmatch-laconic:coefficient_flip":
        "e78bb99c8a6d6a885be530445d7678834c7b3e350497b37d8be647f9e5e70ff5",
    "maxmatch-laconic:block_truncation":
        "7bc051ab527b2f79041ded201382008269662a34b7663cb7549583c6833dda4b",
    "maxmatch-laconic:output_value_lie":
        "efcc476f46e12b88956c0806ff000d0b3a989fd8029712e4fe965931ffe97ade",
    "maxmatch-laconic:vertex_list_permutation_lie":
        "8c96191f5339bd711614f3c8d00838e3d664720d2a8f223df7ea2f9c911182d4",
    "mis:coefficient_flip":
        "8c351d80f1e3f37138bd9264d907e857c2cf7ef587dbb30bd6cc50c2336a4cc7",
    "mis:block_truncation":
        "f00beb4ed5e3b21a411da00e57963b30eff705c1b2630ac750966164faae5b58",
    "mis:vertex_list_permutation_lie":
        "00a317a2e7d08c0b7dbdb5945afab06ba50ba80bd45b1d38646c45f98b340ab3",
    "sssp-unweighted:coefficient_flip":
        "608af8938252d44f6b376da33f0a652de3ad193eddec0a39a2629e496c14b7a0",
    "sssp-unweighted:block_truncation":
        "ec6e92f2a348ee1738ba7597bfa8cbedd0affd13a1abb512140b5b776fc53d5d",
    "sssp-unweighted:output_value_lie":
        "8ef59716c85c5c2dbebdf40b56c4178b6ea380373f1e69b1e62f2c8412b15f61",
    "sssp-unweighted:qd_scalar_flip":
        "5cb51989d4bf7b6aca802a0fa0242a61a2ddc957af90d9386d810259fbcdff38",
    "sssp-wturnstile:coefficient_flip":
        "6de8bcd809c6fc4958a02adf1af20621040858ad137f5938948808d959b66098",
    "sssp-wturnstile:block_truncation":
        "74f2a97efdc9c477a40e5dad7e1361cf4c639ab0a1d8ede60879243ab0bb8e13",
    "sssp-wturnstile:output_value_lie":
        "75429b4e15cbe34ef9fe78860e89aff5748da1c26be9a88990a47bda6d5c4266",
    "sssp-wvanilla:coefficient_flip":
        "e17baf33ca77373f9ca6d467a239ab3d8caec379789ddf30bf7dae9b58992a8c",
    "sssp-wvanilla:block_truncation":
        "7c3df751b4f48c9236d2e3d0a37e9aaffd37e9b153d054c9c49e874317c13670",
    "sssp-wvanilla:output_value_lie":
        "1c6b983e01f6b6fa6c1635e7605e1cc37ef8a1ebbced9c610cb1cc6a940098f0",
    "sssp-wvanilla:qd_scalar_flip":
        "5462c55207d8b64ef9c662b59c88c8b43b77be1bce33dca91faa980622363bbc",
    "stpath:coefficient_flip":
        "4593395f88a64f9220bcd4587ed438ae20cd3c2d3365e4fa51866ae7c3b1ae89",
    "stpath:block_truncation":
        "0fea1c46f534438b7eb5a01ac45c27ca7802479ad0ea012a2abc8d7485561a04",
    "stpath:output_value_lie":
        "57d3014199bd7f9a6320e40e0452068ec5ebf568c4a6ad0a95f3defbb0607f55",
    "stpath:qd_scalar_flip":
        "96e2d7f9fa3cfbde5610e780ba557897ee0089e507029f33924519dd905e46cb",
    "toposort:coefficient_flip":
        "a259ea47acf0222686b77bf1ce43c5220853f36f690f5e83be2ebb540d4057dd",
    "toposort:block_truncation":
        "73a75f4f588496d5b63daa3c8f0479c606e2d4c5bc8cb0e17ebf045ee1caf5ee",
    "toposort:output_value_lie":
        "c43f489c0eca54c5aae34b40cf9baea6bfc5bb662cba3ee6fc3c827e7c489a08",
    "toposort:vertex_list_permutation_lie":
        "0153f1d1253f56077df3b79595dffb81c84d50e6a6a76ffbddf81e8fa94261a7",
    "tri-adj:coefficient_flip":
        "4fbb1402e7bcf572e79cda524957affa6eb518fb979f1b277cf3f935c4d47ba7",
    "tri-adj:block_truncation":
        "e06a8339813b5377149babf0e2709dcba8dcbea1d02eb9377fd46930717d797a",
    "tri-adj:output_value_lie":
        "c2b82d401141720fd3cdeb0608c9a99e9c3890d0ae865d378463158d1d640fd1",
    "tri-frugal:coefficient_flip":
        "33e7eccdb0bf111c94de2e957a80f107b9e3f788655fa59b47c7084da85d6000",
    "tri-frugal:block_truncation":
        "90d7a09c0ee2dc1a8f17b31acdeec8209dfd26cd1e2ec790799ab7ad37cfd6cc",
    "tri-frugal:output_value_lie":
        "1e499048d1b6f32e95e2eb14224e370b452e01285f9a90e2203f314417f44335",
    "tri-laconic:coefficient_flip":
        "477a34cd67d04661245ef719e3f8131fba79f17fd51e17330d75c3d1bc1b4e58",
    "tri-laconic:block_truncation":
        "a3e037e288e4522fba34f031e664d5a7a07b1d3a0ae1916273d997db7110a2cc",
    "tri-laconic:output_value_lie":
        "fa45d8cab60d43acd5e276cab8083b1271f0d4a2412b5e140958ae3991d5f90e",
    "tri-sparse:coefficient_flip":
        "92f7ffccc3f587dd477137e9dda2c9aee92bf72ceccfa2c786043d7f4bdf6cd3",
    "tri-sparse:block_truncation":
        "ba6dc9230200d95145dcc2fb9f9d7f75e138aefa3f166dba67474e79e641446e",
    "tri-sparse:output_value_lie":
        "c8cca0466a75f8740b92891fc16bc3aeecc3554ec5f2287b4b99dc0b8d520688",
    "tri-sparse:vertex_list_permutation_lie":
        "4ad920bcde66c903fdce7171d1605015e69c4c9577806ff0e094b44804bda337",
}

# adversary seed and trial count behind FORGED
FORGED_SEED = 7
FORGED_TRIALS = 3


def _v1_dump(tr, p) -> bytes:
    """The transcript as the v=1 writer dumped it: each whole help block
    interpolated to its coefficients. A block cut short by a lie holds no
    polynomial, so its values are written as they are."""
    out = ["!transcript v=1"]
    for b in tr.blocks:
        vals = b.values
        head = f"@{b.label} kind={b.kind} count={vals.size}"
        if b.kind == "coeffs":
            head += " shape=" + ",".join(map(str, b.shape))
            if vals.size == math.prod(b.shape):
                vals = coeffs_to_serial(coeffs_from_values_nd(
                    vals.reshape(b.shape), p))
        out.append(head)
        vals = vals.tolist()
        for i in range(0, len(vals), 16):
            out.append(" ".join(map(str, vals[i:i + 16])))
    return ("\n".join(out) + "\n").encode()


def _honest(key):
    inst = _cases()[key]
    scheme = get_scheme(key.split("/")[0]).configure(inst)
    p = scheme.field_config(inst, None).p
    return scheme, inst, p, scheme.prove(inst, p)


@pytest.mark.parametrize("key", sorted(PINNED))
def test_honest_transcript_is_pinned(key):
    _, _, p, tr = _honest(key)
    assert hashlib.sha256(_v1_dump(tr, p)).hexdigest() == PINNED[key]


@pytest.mark.parametrize("key", sorted(PINNED))
def test_forged_transcripts_are_pinned(key):
    # every policy's forgeries, drawn as run_adversarial draws its trials
    scheme, inst, p, tr = _honest(key)
    got = {}
    for policy in scheme.mutations:
        h = hashlib.sha256()
        for i in range(FORGED_TRIALS):
            arng = make_rng(FORGED_SEED,
                            f"adversary/{scheme.name}/{policy}/{i}")
            forged = MUTATIONS[policy](scheme, inst, tr, p, arng)
            h.update(b"none" if forged is None else _v1_dump(forged, p))
        got[f"{key}:{policy}"] = h.hexdigest()
    assert got == {k: v for k, v in FORGED.items()
                   if k.split(":")[0] == key}


# sha256 over the verdicts on the honest transcript (verifier seed
# FORGED_SEED) and on every forgery behind FORGED, each forgery verified
# with the seed run_adversarial gives its trial
VERDICTS = {
    "acyclicity":
        "03788d1feaaf94f3434ab9e22332f34709cc3203fd63271bdcc55768c39bead0",
    "acyclicity/cyclic":
        "a7747d6e6298225accbb59f4c06b1ef21996c6734b3e542e4940bc10e9634494",
    "components":
        "8bfe54ce744a558f7260a1912d10981d12c21c0641ffc3fde28c6a04753c4028",
    "edgecount-cross":
        "882210099c12f0a7b5fb0b0a588de4ab9f205ae4f30a9111fcf824672c061446",
    "edgecount-induced":
        "394d06e9db4eadcf3b912c2319eb9c452770d2fb9dc27814b5292431b3378232",
    "maxmatch-frugal":
        "cb287c6e961c35f278e41c8c414aa49ae9d01bb034fb1c0ab03624bd8deb8abb",
    "maxmatch-laconic":
        "9a4dd8e3a9fae5aa300602b9f7241a3aafa006a4d6416230a85d07256e2501b6",
    "mis":
        "7d2ab9d7335ae8aa081f93e366b9ceba0114098dac2b6e04f8f96fca31a8b714",
    "sssp-unweighted":
        "a517e30159ddd91129fc1611163dd0af6d806af1d2c3e08976291aa01338c715",
    "sssp-wturnstile":
        "cbc3ec08bfd988f076883800c335db2d74ee442dcac7209f64eea83b0f577d8e",
    "sssp-wvanilla":
        "b025318fdcf6de8b74e446cfb6b81f01cf8168c0b69558cc628a8188243bbd39",
    "stpath":
        "1327d07aaf90279e948b303057e1e1ba5e90c9abffaa0efbcc61510d23d8c0b2",
    "toposort":
        "2c7726d3675265afbb3e8e5ff6b268af1ef2c0152c123e73d3cb7b42680c20d6",
    "tri-adj":
        "a3e4026ce4e8294b745bd1769e1ec0d90c4a04df011d98631282d3c05b081295",
    "tri-frugal":
        "17fa6bbec47975a32c789ba003aed8a8038563f7f086a0eedbf0241aa639d212",
    "tri-laconic":
        "e114034934faed4857007d1245e576a6f3d31890deefaf8e2a7e4a7a39e11fdc",
    "tri-sparse":
        "d1087fcb080e28a7c5e7c01ea84189c69a9e3dfa939f798e03eab960f49979b4",
}


def _verdict_line(res) -> bytes:
    return (f"{res.status}|{res.reason}|{res.value!r}|{res.hcost}|"
            f"{res.vcost}\n").encode()


@pytest.mark.parametrize("key", sorted(PINNED))
def test_verdicts_are_pinned(key):
    scheme, inst, p, tr = _honest(key)
    h = hashlib.sha256(_verdict_line(_verify(scheme, inst, tr, p,
                                             FORGED_SEED)))
    for policy in scheme.mutations:
        for i in range(FORGED_TRIALS):
            arng = make_rng(FORGED_SEED,
                            f"adversary/{scheme.name}/{policy}/{i}")
            forged = MUTATIONS[policy](scheme, inst, tr, p, arng)
            if forged is None:
                h.update(b"none\n")
                continue
            h.update(_verdict_line(_verify(scheme, inst, forged, p,
                                           (FORGED_SEED << 16) ^ (i + 1))))
    assert h.hexdigest() == VERDICTS[key]


@pytest.mark.parametrize("key", sorted(PINNED))
def test_trailing_block_is_rejected(key):
    scheme, inst, p, tr = _honest(key)
    assert run_with_transcript(scheme, inst, tr, seed=3, p=p).accepted
    padded = tr.copy()
    padded.add_scalars("extra", [1])
    res = run_with_transcript(scheme, inst, padded, seed=3, p=p)
    assert not res.accepted
    assert res.reason == "unexpected trailing help"
