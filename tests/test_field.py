import random

import pytest

from annostream.field import (FieldConfig, fe_inv, fe_pow, fe_random_nonzero,
                              is_prime, make_rng, next_prime, split_seed)


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31}
    for n in range(2, 32):
        assert is_prime(n) == (n in primes)
    assert not is_prime(0)
    assert not is_prime(1)
    assert not is_prime(-7)


def test_is_prime_carmichael_and_large():
    # Carmichael numbers fool Fermat tests; Miller-Rabin must not blink.
    for n in (561, 1105, 1729, 2465, 2821, 6601, 8911, 2047, 3215031751):
        assert not is_prime(n)
    assert is_prime((1 << 61) - 1)
    assert not is_prime((1 << 61) - 3)


def test_next_prime_is_strictly_greater():
    assert next_prime(1) == 2
    assert next_prime(2) == 3
    assert next_prime(4) == 5
    assert next_prime(13) == 17
    p = next_prime(10 ** 6)
    assert is_prime(p) and p > 10 ** 6


def test_inverse_and_pow():
    p = 1048583
    rng = random.Random(0)
    for _ in range(200):
        a = fe_random_nonzero(rng, p)
        assert a * fe_inv(a, p) % p == 1
    assert fe_pow(3, p - 1, p) == 1
    with pytest.raises(ZeroDivisionError):
        fe_inv(0, p)


def test_field_config_auto_scales_with_n():
    cfg = FieldConfig.auto_from_n(8)
    assert is_prime(cfg.p)
    assert cfg.p > 8 ** 3
    assert cfg.origin == "auto"
    big = FieldConfig.auto_from_n(64, D=63, W=5)
    assert big.p > 5 * 63 * 64 ** 2
    with pytest.raises(ValueError):
        FieldConfig(91)


def test_bits_per_element():
    assert FieldConfig(97).bits_per_element == 7
    assert FieldConfig(1048583).bits_per_element == 21


def test_split_seed_is_stable_and_label_sensitive():
    a = split_seed(7, "coins")
    assert a == split_seed(7, "coins")
    assert a != split_seed(7, "coinz")
    assert a != split_seed(8, "coins")
    r1 = make_rng(7, "coins").random()
    r2 = make_rng(7, "coins").random()
    assert r1 == r2
