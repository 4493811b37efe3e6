"""Seeded rational test points for reproducible verification sweeps.

One draw rule: each coordinate is p/q, p from NUMERATOR_RANGE and then q from
DENOMINATOR_RANGE, so every point is in the open positive orthant. Each of p
and q is drawn as `rng.randint` draws it, from `rng.getrandbits` with the
same rejection rule, so the values and the stream's state afterwards are
`randint`'s (the tests check both against it). `verify` takes the point as
integers over a common denominator (`random_common_point`), the tests as
Fractions (`random_point`).
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

NUMERATOR_RANGE = (1, 50)
DENOMINATOR_RANGE = (1, 10)


def stream(label: str, seed: int) -> random.Random:
    """Deterministic RNG bound to a label; string seeding is stable across runs."""
    return random.Random(f"{seed}|{label}")


def random_common_point(rng: random.Random, k: int) -> tuple:
    """(D, (n_1, ..., n_k)): k coordinates x_i = n_i / D drawn as p/q in
    lowest terms, D the lcm of their denominators (`scalars.common_denominator`
    of `random_point`'s draw), with no Fraction built. Each of p and q, in
    lo..hi, is lo + r for the first r = rng.getrandbits(w) below
    n = hi - lo + 1, w = n.bit_length(): `randint`'s draws without its
    pure-Python wrapper calls (`randrange`, `_randbelow`)."""
    (p0, p1), (q0, q1) = NUMERATOR_RANGE, DENOMINATOR_RANGE
    pn, qn = p1 - p0 + 1, q1 - q0 + 1
    pw, qw = pn.bit_length(), qn.bit_length()
    bits, gcd, pairs = rng.getrandbits, math.gcd, []
    for _ in range(k):
        p = bits(pw)
        while p >= pn:
            p = bits(pw)
        q = bits(qw)
        while q >= qn:
            q = bits(qw)
        p, q = p + p0, q + q0
        g = gcd(p, q)
        pairs.append((p // g, q // g))
    d = math.lcm(*(q for _, q in pairs))
    return d, tuple(p * (d // q) for p, q in pairs)


def random_point(rng: random.Random, k: int) -> tuple:
    """The draw of `random_common_point` as k Fractions."""
    d, n = random_common_point(rng, k)
    return tuple(Fraction(c, d) for c in n)


def random_rational(rng: random.Random) -> Fraction:
    """One coordinate of the draw (no caller in the package; `bench/tracer.py` times it by name)."""
    return random_point(rng, 1)[0]
