"""The cleared-denominator backend and the one signature driver: `Cleared`
agrees with Fraction and never calls gcd, and `level_signatures` returns what
`level_signature.kernel` returns, in value and in type, whatever the hints."""

import math
import re
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from lynesslab.errors import DomainError  # noqa: E402
from lynesslab.invariants import eval_z, level_signature, level_signatures  # noqa: E402
from lynesslab.lyness import Params, orbit  # noqa: E402
from lynesslab.reduction import ReducedParams  # noqa: E402
from lynesslab.scalars import Cleared, Dual, jvp  # noqa: E402

SETTINGS = settings(derandomize=True, deadline=None, max_examples=150)
rationals = st.fractions(min_value=-100, max_value=100, max_denominator=60)
# unreduced values, factors repeated and shared across operands, zero included
cleared = st.builds(
    Cleared,
    st.integers(-10**6, 10**6) | st.just(0),
    st.lists(st.sampled_from([2, 3, 6, 7, 10**20 + 39]), max_size=4).map(tuple),
)
operands = cleared | rationals | st.integers(-50, 50)


def value(c):
    return Fraction(c.n, math.prod(c.den)) if isinstance(c, Cleared) else Fraction(c)


@SETTINGS
@given(a=cleared, b=operands)
def test_ring_operations_agree_with_fraction(a, b):
    for got, want in ((a + b, value(a) + value(b)), (b + a, value(b) + value(a)),
                      (a * b, value(a) * value(b)), (b * a, value(b) * value(a)),
                      (a - b, value(a) - value(b))):
        assert isinstance(got, Cleared)
        assert value(got) == want
    if value(b) == 0:
        with pytest.raises(ZeroDivisionError):
            a / b
    else:
        assert value(a / b) == value(a) / value(b)


@SETTINGS
@given(a=cleared, b=operands)
def test_sign_negation_and_comparisons_agree_with_fraction(a, b):
    x, y = value(a), value(b)
    assert value(-a) == -x
    assert a.sign == (x > 0) - (x < 0)
    assert all(f > 0 for c in (a * b, a - b, a / -3) for f in c.den)
    assert (a > 0, a < 0) == (x > 0, x < 0)
    assert (a > b, a < b) == (x > y, x < y)
    assert (a >= 0, a <= 0) == (x >= 0, x <= 0)
    assert (a >= b, a <= b) == (x >= y, x <= y)
    assert (b >= a, b <= a) == (y >= x, y <= x)


def test_validated_constructors_take_cleared_values():
    assert Params(3, Cleared(1)).a == 1
    assert Params(3, Cleared(0, (7,))).a == 0
    rp = ReducedParams(Cleared(1), Cleared(2, (3,)))
    assert (rp.a, rp.kappa) == (1, Fraction(2, 3))
    for bad in (lambda: Params(3, Cleared(-1, (2,))), lambda: ReducedParams(Cleared(1), Cleared(0))):
        with pytest.raises(DomainError):
            bad()
    # the message shows the value, not an object address
    assert repr(Cleared(5)) == "Cleared(5, ())"
    with pytest.raises(DomainError, match=re.escape("got Cleared(-1, (2,))")):
        Params(3, Cleared(-1, (2,)))


@SETTINGS
@given(a=cleared, hint=rationals)
def test_fraction_is_the_reduced_value_and_returns_only_an_equal_hint(a, hint):
    x = value(a)
    assert a.fraction() == x and type(a.fraction()) is Fraction
    got = a.fraction(hint)
    assert got == x
    if hint == x:
        assert got is hint
    equal = Fraction(x.numerator, x.denominator)
    assert a.fraction(equal) is equal


def test_a_zero_divisor_raises():
    for zero in (0, Fraction(0), Cleared(0), Cleared(0, (3, 5))):
        with pytest.raises(ZeroDivisionError):
            Cleared(1, (2,)) / zero


def test_a_zero_product_of_denominator_factors_never_matches_a_hint():
    for c, hint in ((Cleared(0, (0,)), Fraction(0)), (Cleared(0, (2, 0)), Fraction(5)),
                    (Cleared(3, (0, 4)), Fraction(0))):
        with pytest.raises(ZeroDivisionError):
            c.fraction(hint)


def test_operations_and_a_confirmed_hint_call_no_gcd(monkeypatch):
    half, q = Fraction(1, 2), (Fraction(3, 2), Fraction(7, 3), 2, Fraction(9, 4))
    want = (half + q[0] * q[1] - q[2] / q[3] + 1) / q[0]
    calls = []
    real = math.gcd
    monkeypatch.setattr(math, "gcd", lambda *args: calls.append(args) or real(*args))
    x = tuple(map(Cleared.of, q))
    got = (half + x[0] * x[1] - x[2] / x[3] + 1) / x[0]
    assert got.fraction(want) is want
    assert not calls
    assert got.fraction(want + 1) == want  # a wrong hint: reduced with gcd
    assert calls


@SETTINGS
@given(a=cleared, b=operands)
def test_equality_and_reflected_operations_agree_with_fraction(a, b):
    x, y = value(a), value(b)
    assert (a == b, b == a, a != b, b != a) == (x == y, y == x, x != y, y != x)
    assert a == Cleared(a.n * 6, (*a.den, 2, 3)) == x
    for c in (Cleared(-a.n, a.den), a * a):
        assert (a == c) == (x == value(c))
    for m in (1, -4, 0):
        if x == 0:
            with pytest.raises(ZeroDivisionError):
                m / a
        else:
            assert isinstance(m / a, Cleared) and value(m / a) == m / x
    assert value(7 - a) == 7 - x and value(Fraction(1, 3) - a) == Fraction(1, 3) - x


def test_equality_and_reflected_operations_call_no_gcd(monkeypatch):
    q = (Fraction(3, 2), Fraction(-7, 6), 0, Fraction(9, 4))
    x = tuple(map(Cleared.of, q))  # Fractions are made before gcd is counted
    calls = []
    real = math.gcd
    monkeypatch.setattr(math, "gcd", lambda *args: calls.append(args) or real(*args))
    assert x[0] * x[1] == Cleared(-21, (2, 6)) == Cleared(-7, (4,))
    assert x[0] != x[1] and x[2] == 0 and x[2] != x[3]
    assert 2 / x[0] == Cleared(4, (3,)) and 1 - x[3] == Cleared(-5, (4,))
    assert (x[0] == q[0], q[0] == x[0], q[1] != x[0], 0 == x[2]) == (True,) * 4
    assert not calls


def test_equality_with_other_types_is_false_and_does_not_raise():
    c = Cleared(3, (2,))
    assert (c == None) is False and (c == 1.5) is False  # noqa: E711
    assert c != None and c != 1.5  # noqa: E711
    assert c.__eq__(1.5) is NotImplemented and c.__hash__ is None


def test_operations_with_other_types_are_not_implemented_so_the_other_side_runs():
    c = Cleared(5, (3,))
    names = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
             "__truediv__", "__rtruediv__")
    for other in (Dual(1, 0), 1.5, None, "1"):
        assert all(getattr(c, name)(other) is NotImplemented for name in names)
    d = Dual(Fraction(1, 2), Fraction(-3))
    for got, want in ((c + d, d + c), (c - d, -(d - c)), (c * d, d * c),
                      (c / d, Dual(c, 0) / d), (d / c, d / Dual(c, 0))):
        assert (got.value == want.value, got.deriv == want.deriv) == (True, True)
    with pytest.raises(TypeError):
        c + 1.5
    with pytest.raises(TypeError):
        "1" - c


def test_jvp_over_cleared_takes_the_exact_derivative_and_reports_a_pole():
    def f(c):
        return 1 / c[0] + c[1] * c[1]

    x = (Cleared(4, (2,)), Cleared(1))
    assert value(jvp(f, x, (Cleared(1), Cleared(3, (3,))))) == Fraction(-1, 4) + 2
    with pytest.raises(DomainError):
        jvp(f, (Cleared(0, (5,)), Cleared(1)), (1, 0))


def _same(p, states):
    """level_signatures equals the kernel on each state, in value and type."""
    states = list(states)
    got = list(level_signatures(p, states))
    want = [level_signature.kernel(p, x) for x in states]
    assert got == want
    for g, w in zip(got, want):
        assert [type(v) for v in vars(g).values()] == [type(v) for v in vars(w).values()]
    return got


@pytest.mark.parametrize("k", range(3, 9))
@pytest.mark.parametrize("n", [60, -60], ids=["forward", "backward"])
def test_exact_orbits_give_the_kernel_levels(k, n):
    for a in (Fraction(1), Fraction(7, 10), 0):
        p = Params(k, a)
        x0 = tuple(Fraction(i + 2, i % 3 + 1) for i in range(k))
        got = _same(p, orbit(p, x0, n))
        assert len({(s.v1, s.v2, s.v3) for s in got}) == 1
        assert all(type(s.v1) is Fraction for s in got)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(data=st.data(), k=st.integers(3, 8), a=st.fractions(0, 20, max_denominator=10))
def test_unrelated_points_give_the_kernel_levels(data, k, a):
    positive = st.fractions(min_value=Fraction(1, 100), max_value=100, max_denominator=100)
    points = data.draw(st.lists(st.tuples(*[positive] * k), min_size=1, max_size=6))
    _same(Params(k, a), points)


def test_an_exact_orbit_reduces_only_its_first_row(monkeypatch):
    p = Params(5, Fraction(1))
    rows = level_signatures(p, list(orbit(p, (1, 2, 3, 4, 5), 40)))
    calls = []
    real = math.gcd
    monkeypatch.setattr(math, "gcd", lambda *args: calls.append(args) or real(*args))
    next(rows)
    assert len(calls) == 3  # V1, V2 and V3 of row 0
    assert len(list(rows)) == 40
    assert len(calls) == 3


def test_points_on_the_invariant_hypersurface_give_z_sign_zero():
    # Z = prod_odd x(x+1) - S prod_even x(x+1) vanishes when a makes S the ratio
    for p, x0 in ((Params(3, Fraction(7)), (1, 1, 3)), (Params(5, Fraction(5)), (1, 1, 1, 1, 3))):
        assert eval_z.kernel(p, x0) == 0
        got = _same(p, orbit(p, x0, 12))
        assert {s.z_sign for s in got} == {0}


def test_int_fraction_mixed_and_float_states_keep_their_types():
    half = Fraction(1, 2)
    cases = [
        (Params(4, 1), [(1, 2, 3, 4), (2, 3, 4, 5)], float),  # int / int divides to float
        (Params(4, Fraction(1)), [(1, 2, 3, 4), (2, 3, 4, 5)], Fraction),
        (Params(5, 1), [(1, half, 3, 4, 5), (half, 3, 4, 5, 2)], Fraction),
        (Params(5, 1.0), [(1.0, 0.5, 3.0, 4.0, 5.0), (1, half, 3, 4, 5)], float),
        (Params(3, 2), [(1.0, 2.0, 3.0), (1, half, 3), (1, 2, 3), (1, half, 3)], None),
    ]
    for p, states, kind in cases:
        got = _same(p, states)
        if kind is not None:
            assert {type(s.v1) for s in got} == {kind}


@SETTINGS
@given(x=st.lists(rationals | st.integers(-50, 50), min_size=1, max_size=8))
def test_the_common_denominator_image_has_the_point_values_over_one_denominator(x):
    image = Cleared.common(x)
    d = math.lcm(*(Fraction(q).denominator for q in x))
    assert [c.fraction() for c in image] == [Fraction(q) for q in x]
    assert {c.den for c in image} == {(d,) if d != 1 else ()}


def test_the_common_denominator_image_of_an_integer_point_has_no_factor():
    image = Cleared.common((Fraction(3), 1, Fraction(-4, 2)))
    assert [(c.n, c.den) for c in image] == [(3, ()), (1, ()), (-2, ())]
    assert [c.fraction() for c in image] == [3, 1, -2]


class Factor(int):
    """A denominator factor that counts the products it enters."""

    products = 0

    def __mul__(self, other):
        Factor.products += 1
        return int(self) * other

    __rmul__ = __mul__


def test_int_operands_and_coordinate_sums_form_no_denominator_product(monkeypatch):
    q = (Fraction(3, 2), Fraction(-7, 6), 0, Fraction(9, 4))
    d = Factor(Cleared.common(q)[0].den[0])
    x = tuple(Cleared(c.n, (d,)) for c in Cleared.common(q))  # the image, counted factor
    c = x[1]
    calls = []
    real = math.gcd
    monkeypatch.setattr(math, "gcd", lambda *args: calls.append(args) or real(*args))
    Factor.products = 0
    got = (c - 0, c * 0, c * 5, -3 * c, sum(x), x[0] - x[3], x[0] + x[1] - x[3])
    tests = (c == 0, 0 == c, c != 0, x[2] == 0, x[2] != 0, x[0] == x[1])
    assert (c + 0) is c and (0 + c) is c
    assert Factor.products == 0 and not calls  # before value() below takes its own
    assert tests == (False, False, True, True, False, False)
    assert [value(g) for g in got] == [q[1], 0, 5 * q[1], -3 * q[1], sum(q), q[0] - q[3],
                                       q[0] + q[1] - q[3]]
    Factor.products = 0
    assert (c == -7) is False
    assert Factor.products == 1  # a nonzero int is compared over the denominator


@SETTINGS
@given(a=cleared, m=st.integers(-50, 50))
def test_int_fast_paths_agree_with_fraction(a, m):
    x = value(a)
    for got, want in ((a + 0, x), (a - 0, x), (a * 0, 0), (a * m, x * m), (m * a, m * x),
                      (a + m, x + m)):
        assert isinstance(got, Cleared) and value(got) == want
    assert (a == 0, 0 == a, a == m, m == a, a != m) == (x == 0, x == 0, x == m, m == x, x != m)
