"""The one draw rule: `random_common_point` makes the draws of p/q, p in
1..50 then q in 1..10, per coordinate, and gives the point over the lcm D of
its reduced denominators, positive by construction; `random_point` is the
same draw as Fractions (derandomized, so every run draws the same cases).
The oracle is `rng.randint` itself, also over other ranges, so a bit width
fitted to 1..50 and 1..10 alone fails."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from lynesslab import sampling  # noqa: E402
from lynesslab.sampling import random_common_point, random_point, random_rational, stream  # noqa: E402
from lynesslab.scalars import common_denominator  # noqa: E402

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=200)


def _fraction_draw(rng, k, numerators=(1, 50), denominators=(1, 10)) -> tuple:
    """The rule as a Fraction per coordinate: numerator first, then denominator."""
    return tuple(Fraction(rng.randint(*numerators), rng.randint(*denominators)) for _ in range(k))


@SETTINGS
@given(label=st.text(max_size=12), seed=st.integers(-2**64, 2**64), k=st.integers(2, 9))
def test_the_common_point_is_the_fraction_draw_over_its_lcm(label, seed, k):
    rng, reference = stream(label, seed), stream(label, seed)
    d, n = random_common_point(rng, k)
    want = _fraction_draw(reference, k)
    assert (d, n) == common_denominator(want)
    assert d >= 1 and all(c >= 1 for c in n)  # the open positive orthant, by construction
    assert rng.random() == reference.random()  # the same draws, no more


@SETTINGS
@given(label=st.text(max_size=12), seed=st.integers(-2**64, 2**64), k=st.integers(1, 9))
def test_random_point_and_random_rational_are_the_same_draw(label, seed, k):
    for draw in (lambda rng: random_point(rng, k), lambda rng: tuple(random_rational(rng) for _ in range(k))):
        rng, reference = stream(label, seed), stream(label, seed)
        assert draw(rng) == _fraction_draw(reference, k)
        assert rng.random() == reference.random()


@pytest.mark.parametrize("numerators, denominators", [
    ((1, 1), (1, 64)), ((1, 64), (3, 7)), ((3, 7), (1, 1)), ((1, 2**40), (1, 10)), ((2, 2), (5, 5)),
])
def test_the_draw_is_randint_s_over_any_ranges(monkeypatch, numerators, denominators):
    monkeypatch.setattr(sampling, "NUMERATOR_RANGE", numerators)
    monkeypatch.setattr(sampling, "DENOMINATOR_RANGE", denominators)
    for seed in range(60):
        k = 1 + seed % 9
        rng, reference = stream("ranges", seed), stream("ranges", seed)
        want = _fraction_draw(reference, k, numerators, denominators)
        assert random_common_point(rng, k) == common_denominator(want)
        assert rng.getstate() == reference.getstate()  # the same draws, no more
