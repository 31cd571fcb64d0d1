"""Fingerprints, key packings, and line-restricted set checks."""

import random

import numpy as np
import pytest

from annostream.field import fe_random_nonzero
from annostream.setops import (Fingerprint, LineCheck, dense_indicator,
                               directed_key, line_check_dims, line_check_help,
                               undirected_key, weighted_key)
from annostream.stream import ProofTranscript, RejectError

P = 1048583


def _help(coeffs):
    """A reader positioned on one help block labelled "g"."""
    tr = ProofTranscript()
    tr.add_coeffs("g", coeffs)
    return tr.reader(P)


def test_fingerprint_order_insensitive():
    rng = random.Random(0)
    keys = [rng.randrange(1, 500) for _ in range(60)]
    gamma = fe_random_nonzero(rng, P)
    a = Fingerprint(gamma, P)
    b = Fingerprint(gamma, P)
    for k in keys:
        a.add(k)
    shuffled = keys[:]
    rng.shuffle(shuffled)
    for k in shuffled:
        b.add(k)
    assert a.value == b.value


def test_fingerprint_multiplicity_cancels():
    g = 12345
    f = Fingerprint(g, P)
    f.add(7, 3)
    f.add(7, -3)
    f.add(9, 1)
    assert f.value == pow(g, 9, P)


def test_fingerprint_separates_multisets():
    # different multisets collide only with prob <= maxkey/p per gamma
    rng = random.Random(1)
    hits = 0
    for trial in range(200):
        gamma = fe_random_nonzero(rng, P)
        a = Fingerprint(gamma, P)
        b = Fingerprint(gamma, P)
        a.add(3), a.add(5)
        b.add(4), b.add(4)
        hits += a.value == b.value
    assert hits == 0


def test_key_packings_are_injective():
    n, W = 7, 3
    seen = set()
    for u in range(1, n + 1):
        for v in range(1, n + 1):
            if u == v:
                continue
            k = undirected_key(u, v, n)
            assert k == undirected_key(v, u, n)
            assert 1 <= k <= n * n
            seen.add(k)
    assert len(seen) == n * (n - 1) // 2

    dseen = {directed_key(u, v, n)
             for u in range(1, n + 1) for v in range(1, n + 1)}
    assert len(dseen) == n * n

    wseen = set()
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            for w in range(1, W + 1):
                k = weighted_key(u, v, w, n, W)
                assert k == weighted_key(v, u, w, n, W)
                assert 1 <= k <= n * n * W
                wseen.add(k)
    assert len(wseen) == n * (n - 1) // 2 * W


def test_line_check_dims():
    assert line_check_dims(49, 7) == (7, 7)
    assert line_check_dims(50, 7) == (8, 7)
    assert line_check_dims(5, 9) == (1, 5)


def _random_sets(rng, universe, asize, bsize):
    a = set(rng.sample(range(1, universe + 1), asize))
    b = set(rng.sample(range(1, universe + 1), bsize))
    return a, b


def test_line_check_intersection_counts():
    rng = random.Random(2)
    universe = 36
    dims = line_check_dims(universe, 6)
    for _ in range(25):
        a, b = _random_sets(rng, universe, 12, 15)
        rho = rng.randrange(P)
        lc = LineCheck(dims, rho, P, "intersect")
        for k in a:
            lc.add_left(k)
        for k in b:
            lc.add_right(k)
        help_coeffs = line_check_help(
            dense_indicator([(k, 1) for k in a], dims),
            dense_indicator([(k, 1) for k in b], dims), P, "intersect")
        assert lc.finish(_help(help_coeffs), "g") == len(a & b)


def test_line_check_subset_accepts_and_rejects():
    rng = random.Random(3)
    universe = 30
    dims = line_check_dims(universe, 5)
    sub = set(rng.sample(range(1, universe + 1), 8))
    sup = sub | set(rng.sample(range(1, universe + 1), 10))

    def run(a, b, rho):
        lc = LineCheck(dims, rho, P, "subset")
        for k in a:
            lc.add_left(k)
        for k in b:
            lc.add_right(k)
        coeffs = line_check_help(
            dense_indicator([(k, 1) for k in a], dims),
            dense_indicator([(k, 1) for k in b], dims), P, "subset")
        return lc.finish(_help(coeffs), "g")

    assert run(sub, sup, rng.randrange(P)) == 0

    outside = next(k for k in range(1, universe + 1) if k not in sup)
    bad = sub | {outside}
    caught = 0
    for _ in range(30):
        try:
            run(bad, sup, rng.randrange(P))
        except RejectError:
            caught += 1
    assert caught == 30


def test_line_check_catches_forged_polynomial():
    # prover claims a zero-total polynomial for a non-subset pair: the
    # point check at the secret rho must catch it w.h.p.
    rng = random.Random(4)
    universe = 30
    dims = line_check_dims(universe, 5)
    a = {1, 2, 3}
    b = {2, 3}
    honest_for_legal = line_check_help(
        dense_indicator([(k, 1) for k in {2, 3}], dims),
        dense_indicator([(k, 1) for k in b], dims), P, "subset")
    caught = 0
    for _ in range(40):
        rho = rng.randrange(P)
        lc = LineCheck(dims, rho, P, "subset")
        for k in a:
            lc.add_left(k)
        for k in b:
            lc.add_right(k)
        try:
            lc.finish(_help(honest_for_legal), "g")
        except RejectError:
            caught += 1
    assert caught >= 39


def test_line_check_multiplicity_left():
    # left side may carry multiplicities; intersect total weights them
    dims = line_check_dims(12, 4)
    rho = 98765
    lc = LineCheck(dims, rho, P, "intersect")
    lc.add_left(5, 3)
    lc.add_left(7, 2)
    lc.add_right(5)
    lc.add_right(6)
    coeffs = line_check_help(dense_indicator([(5, 3), (7, 2)], dims),
                             dense_indicator([(5, 1), (6, 1)], dims),
                             P, "intersect")
    assert lc.finish(_help(coeffs), "g") == 3


def test_line_check_wrong_length_rejected():
    dims = (4, 3)
    lc = LineCheck(dims, 5, P, "intersect")
    with pytest.raises(RejectError):
        lc.finish(_help(np.zeros(2 * 4, dtype=np.int64)), "g")


def test_line_check_state_is_two_lines():
    lc = LineCheck((6, 4), 17, P, "subset")
    assert lc.cells == 8
