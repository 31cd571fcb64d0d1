"""Prime field arithmetic for stream verification sketches.

Everything downstream (sketches, fingerprints, sum checks) works over a
single prime field F_p fixed per run. p stays below 2^64 so residues fit
machine words; Python ints carry the intermediate products. The automatic
modulus rule picks the smallest prime above max(n^3, D*W*n^2, 2^20): the
n^3 floor keeps single-token soundness error below 1/n for the triangle
and matching schemes, the D*W*n^2 term covers the weighted shortest-path
schemes, and the 2^20 floor keeps honest integer counts (which are output
by lifting a residue) from ever wrapping at desk scale.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

# Witnesses making Miller-Rabin deterministic for all n < 3.3 * 10^24,
# comfortably past 2^64 (Sorenson & Webster).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

DEFAULT_FLOOR = 1 << 20


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for n < 2^64 (and well past)."""
    if n < 2:
        return False
    for small in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % small == 0:
            return n == small
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    """Smallest prime strictly greater than n."""
    candidate = n + 1
    if candidate <= 2:
        return 2
    if candidate % 2 == 0:
        candidate += 1
    while not is_prime(candidate):
        candidate += 2
    return candidate


@dataclass(frozen=True)
class FieldConfig:
    """A prime modulus plus a record of how it was chosen.

    origin is 'auto' when derived from instance dimensions, 'explicit' when
    supplied by the caller (CLI flag or environment override).
    """

    p: int
    origin: str = "explicit"

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"modulus {self.p} is not prime")
        if self.p >= 1 << 64:
            raise ValueError("modulus must fit in 64 bits")

    @classmethod
    def auto_from_n(cls, n: int, D: int = 0, W: int = 1) -> "FieldConfig":
        """Smallest prime exceeding max(n^3, D*W*n^2, 2^20).

        D is an upper bound on the round count for weighted shortest paths
        (0 when not applicable); W is the maximum edge weight.
        """
        bound = max(n ** 3, D * W * n * n, DEFAULT_FLOOR)
        return cls(next_prime(bound), origin="auto")

    @property
    def bits_per_element(self) -> int:
        return (self.p - 1).bit_length()


def fe_inv(a: int, p: int) -> int:
    """Multiplicative inverse; raises on zero."""
    if a % p == 0:
        raise ZeroDivisionError("inverse of zero in prime field")
    # Fermat: a^(p-2). CPython's pow is faster than extended gcd here.
    return pow(a, p - 2, p)


def fe_pow(a: int, e: int, p: int) -> int:
    return pow(a, e, p)


def fe_random(rng: random.Random, p: int) -> int:
    """Uniform draw from {0, ..., p-1}."""
    return rng.randrange(p)


def fe_random_nonzero(rng: random.Random, p: int) -> int:
    return rng.randrange(1, p)


def split_seed(seed: int, label: str) -> int:
    """Derive an independent substream seed from (seed, label).

    SHA-256 keeps the derivation stable across platforms and Python
    versions, unlike hashing via the builtin hash().
    """
    digest = hashlib.sha256(f"{seed}/{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def make_rng(seed: int, label: str) -> random.Random:
    """Seeded RNG on an independent substream named by label.

    Verifier randomness and adversary randomness use different labels so
    attack trials can never be correlated with the verifier's coins.
    """
    return random.Random(split_seed(seed, label))
