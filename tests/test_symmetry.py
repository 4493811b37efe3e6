"""Symmetry field: defining condition, shift and compatibility laws,
annihilation of the integrals, the k>=6 sum factorization, and equilibria."""

import math
import random
from fractions import Fraction

import pytest

from lynesslab.errors import DimensionError
from lynesslab.lyness import Params, fixed_point, step, two_periodic_point
from lynesslab.sampling import random_point, stream
from lynesslab.symmetry import (
    annihilation_residual,
    compatibility_residual,
    equilibrium_residual,
    factorization_residual,
    lie_residual,
    shift_residual,
    symmetry_vector,
)

P31 = Params(3, Fraction(1))


def test_golden_field_values():
    ones = (Fraction(1), Fraction(1), Fraction(1))
    assert symmetry_vector(P31, ones) == (12, 0, -12)
    assert symmetry_vector(P31, (Fraction(1), Fraction(1), Fraction(3))) == (0, -12, -48)


def _field_oracle(p, x):
    """The field with every chain and denominator rebuilt from its own slices,
    O(k^2) multiplications, in the left-to-right order the kernel must keep."""
    k, a = p.k, p.a
    links = [1 + x[i] + x[i + 1] for i in range(k - 1)]
    middle = a + sum(x) + x[0] * x[k - 1]
    out = [(x[0] + 1) * math.prod(links[1:]) * (a + sum(x[: k - 1]) - x[1] * x[k - 1])
           / math.prod(x[1:])]
    for i in range(1, k - 1):
        out.append((x[i] + 1) * math.prod(links[: i - 1] + links[i + 1 :]) * middle
                   * (x[i - 1] - x[i + 1]) / math.prod(x[j] for j in range(k) if j != i))
    out.append(-(x[k - 1] + 1) * math.prod(links[:-1]) * (a + sum(x[1:]) - x[0] * x[k - 2])
               / math.prod(x[: k - 1]))
    return tuple(out)


@pytest.mark.parametrize("a", [Fraction(0), Fraction(7, 10), Fraction(1e-300)])
@pytest.mark.parametrize("k", range(3, 12))
def test_field_keeps_the_order_of_its_multiplications(k, a):
    # prefix sharing must not regroup a product: float bits stay those of the oracle
    rng = random.Random(f"field-order|{k}|{a}")
    pf = Params(k, float(a))
    for _ in range(40):
        x = tuple(rng.choice((rng.uniform(1e-3, 1.0), rng.uniform(1.0, 1e3))) for _ in range(k))
        got, want = symmetry_vector(pf, x), _field_oracle(pf, x)
        assert [c.hex() for c in got] == [c.hex() for c in want]
    pq = Params(k, a)
    for _ in range(3):
        x = random_point(rng, k)
        assert symmetry_vector(pq, x) == _field_oracle(pq, x)


def test_golden_field_is_pushed_forward_by_the_map():
    ones = (Fraction(1), Fraction(1), Fraction(1))
    assert step(P31, ones) == (1, 1, 3)
    assert lie_residual(P31, ones) == (0, 0, 0)


def test_defining_condition_holds_exactly_everywhere():
    rng = stream("lie-sweep", 0)
    for k in range(3, 8):
        for a in (Fraction(0), Fraction(1), Fraction(7, 3)):
            p = Params(k, a)
            for _ in range(10):
                x = random_point(rng, k)
                assert lie_residual(p, x) == (0,) * k


def test_shift_law_holds_for_every_interior_index():
    rng = stream("shift-sweep", 0)
    for k in (3, 4, 5, 6, 7):
        p = Params(k, Fraction(2))
        for _ in range(10):
            x = random_point(rng, k)
            for i in range(1, k):
                assert shift_residual(p, x, i) == 0


def test_shift_law_rejects_out_of_range_indices():
    x = (Fraction(1), Fraction(1), Fraction(1))
    with pytest.raises(ValueError):
        shift_residual(P31, x, 0)
    with pytest.raises(ValueError):
        shift_residual(P31, x, 3)


def test_compatibility_identity_holds_exactly():
    rng = stream("compat-sweep", 0)
    for k in (3, 4, 5, 6, 7, 8):
        p = Params(k, Fraction(7, 3))
        for _ in range(10):
            x = random_point(rng, k)
            assert compatibility_residual(p, x) == 0


def test_integrals_are_annihilated_by_the_field():
    rng = stream("annihilation", 0)
    table = {3: ("V1", "V2"), 4: ("V1", "V2"), 5: ("V1", "V2", "V3")}
    for k, names in table.items():
        for a in (Fraction(0), Fraction(1), Fraction(10)):
            p = Params(k, a)
            for _ in range(10):
                x = random_point(rng, k)
                for name in names:
                    assert annihilation_residual(p, x, name) == 0


def test_annihilation_rejects_unregistered_combinations():
    x5 = tuple(Fraction(i) for i in (1, 2, 3, 4, 5))
    with pytest.raises(ValueError):
        annihilation_residual(Params(5, Fraction(1)), x5, "V4")
    x6 = tuple(Fraction(i) for i in (1, 2, 3, 4, 5, 6))
    with pytest.raises(ValueError):
        annihilation_residual(Params(6, Fraction(1)), x6, "V1")
    with pytest.raises(ValueError):
        annihilation_residual(Params(4, Fraction(1)), x5[:4], "V3")


def test_sum_factorization_holds_from_dimension_six_up():
    rng = stream("factorization", 0)
    for k in (6, 7, 9):
        for a in (Fraction(0), Fraction(5, 2)):
            p = Params(k, a)
            for _ in range(8):
                x = random_point(rng, k)
                assert factorization_residual(p, x) == 0


def test_sum_factorization_needs_dimension_six():
    with pytest.raises(DimensionError):
        factorization_residual(Params(5, Fraction(1)), tuple(Fraction(1) for _ in range(5)))


def test_field_vanishes_at_the_fixed_point_k4():
    # a = 4 puts the fixed point at (4,4,4,4) exactly.
    p = Params(4, Fraction(4))
    bar = (Fraction(4),) * 4
    assert step(p, bar) == bar
    assert equilibrium_residual(p, bar) == 0
    assert fixed_point(p).point == (4.0, 4.0, 4.0, 4.0)


def test_field_is_nonzero_away_from_equilibria_k4():
    p = Params(4, Fraction(4))
    assert equilibrium_residual(p, (Fraction(1), Fraction(2), Fraction(3), Fraction(4))) > 0


def test_field_vanishes_along_the_2_periodic_curve_k5():
    for a in (Fraction(0), Fraction(1), Fraction(7, 3)):
        p = Params(5, a)
        for x in (Fraction(5, 2), Fraction(3), Fraction(9, 2), Fraction(8)):
            pt = two_periodic_point(p, x)
            assert equilibrium_residual(p, pt) == 0
            assert symmetry_vector(p, pt) == (0,) * 5


def test_field_vanishes_at_the_fixed_point_k5():
    # a = 5 puts the fixed point at (5,5,5,5,5), which lies on the curve.
    p = Params(5, Fraction(5))
    bar = (Fraction(5),) * 5
    assert step(p, bar) == bar
    assert equilibrium_residual(p, bar) == 0


def test_equilibrium_residual_is_registered_for_k4_and_k5():
    with pytest.raises(DimensionError):
        equilibrium_residual(P31, (Fraction(1), Fraction(1), Fraction(1)))


def test_field_needs_dimension_three():
    with pytest.raises(DimensionError):
        symmetry_vector(Params(2, Fraction(1)), (Fraction(1), Fraction(1)))
