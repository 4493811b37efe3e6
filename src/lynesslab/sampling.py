"""Seeded rational test points for reproducible verification sweeps.

One draw rule: each coordinate is p/q, p from NUMERATOR_RANGE and then q from
DENOMINATOR_RANGE, so every point is in the open positive orthant. `verify`
takes it as integers over a common denominator (`random_common_point`), the
tests as Fractions (`random_point`).
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
    of `random_point`'s draw), with no Fraction built."""
    randint, gcd, pairs = rng.randint, math.gcd, []  # bound once: drawing is most of a warm `verify`
    for _ in range(k):
        p, q = randint(*NUMERATOR_RANGE), randint(*DENOMINATOR_RANGE)
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
