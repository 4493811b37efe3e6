"""The exact forms (`tracing.compile_exact`), the one exact backend besides
Fraction, with `scalars.common_denominator` and `scalars.fraction_of`, and the
levels they give `level_signatures`. (The file keeps the name of `Cleared`,
the class the exact forms replaced, so that its tests keep their ids.) A
traced kernel's exact form keeps a rational point's denominators cleared,
never reduced: its ring operations, negation, comparisons, int literals and a
zero divisor agree with Fraction over each coordinate's own denominator and
over their common one, and sums over one common denominator form no product
of it. `level_signatures` returns what `level_signature.kernel` returns, in
value and in type, whatever the previous row's levels: the rows' rule
(`fraction_of`) returns the previous level only when one cross-multiplication
shows it equal."""

import math
import types
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from lynesslab import tracing  # noqa: E402
from lynesslab.invariants import eval_z, level_signature, level_signatures  # noqa: E402
from lynesslab.lyness import Params, orbit  # noqa: E402
from lynesslab.scalars import common_denominator, fold, fraction_of  # noqa: E402

SETTINGS = settings(derandomize=True, deadline=None, max_examples=150)
rationals = st.fractions(min_value=-100, max_value=100, max_denominator=60)
# unreduced (numerator, denominator) pairs, denominator factors repeated and shared, zero included
coordinates = st.tuples(
    st.integers(-10**6, 10**6) | st.just(0),
    st.lists(st.sampled_from([2, 3, 6, 7, 10**20 + 39]), max_size=4).map(math.prod),
)
A = Fraction(7, 3)


def _values(body, point, common: bool):
    """body's exact form at the point of (numerator, denominator) pairs, a =
    7/3, each coordinate over its own denominator or, with `common`, over
    their common one: its values as Fractions."""
    form = tracing.compile_exact(body, len(point), denominators=True, common=common)
    if common:
        d, n = common_denominator([Fraction(*c) for c in point])
    else:
        n, d = zip(*point)
    return [Fraction(*pair) for pair in form(A.numerator, A.denominator, d, tuple(n))]


def _agree(body, point):
    """The exact form gives body's values over Fraction in both layouts, or
    raises ZeroDivisionError where body does."""
    try:
        want = list(body(types.SimpleNamespace(a=A), tuple(Fraction(*c) for c in point)))
    except ZeroDivisionError:
        want = ZeroDivisionError
    for common in (False, True):
        try:
            got = _values(body, point, common)
        except ZeroDivisionError:
            got = ZeroDivisionError
        assert got == want, common


def _ring(p, x):
    u, v = x
    return (u + v, v + u, u * v, v * u, u - v, v - u, p.a * u - v, u / v)


@SETTINGS
@given(u=coordinates, v=coordinates)
def test_ring_operations_agree_with_fraction(u, v):
    _agree(_ring, (u, v))


def _signs(p, x):
    u, v = x
    return (-u, u > 0, u < 0, 0 < u, u > v, u < v, v > u, -u > v, p.a * u < v,
            (u > 0) - (u < 0), u / v > 0, u / v < 1, (u - v) * v > 0)


@SETTINGS
@given(u=coordinates, v=coordinates)
def test_sign_negation_and_comparisons_agree_with_fraction(u, v):
    assume(v[0] != 0)
    _agree(_signs, (u, v))


def test_a_zero_divisor_raises():
    def quotients(p, x):
        return (x[0] / x[1], 1 / (x[0] - x[1]))

    for point in (((1, 2), (0, 3)), ((0, 1), (0, 6)), ((1, 2), (3, 6)), ((-7, 14), (-1, 2))):
        for common in (False, True):
            with pytest.raises(ZeroDivisionError):
                _values(quotients, point, common)
    _agree(quotients, ((1, 2), (1, 3)))


@SETTINGS
@given(u=coordinates, m=st.integers(-50, 50))
def test_int_fast_paths_agree_with_fraction(u, m):
    def literals(p, x):
        c = x[0]
        return (c + 0, c - 0, c * 0, c * m, m * c, c + m, 0 + c, 1 * c, c * 1, 0 - c, m - c, c / 1)

    _agree(literals, (u,))


def test_int_operands_and_coordinate_sums_form_no_denominator_product(monkeypatch):
    def sums(p, x):
        c = x[1]
        return (c - 0, c * 0, c * 5, -3 * c, fold(x), x[0] - x[3], x[0] + x[1] - x[3])

    q = (Fraction(3, 2), Fraction(-7, 6), 0, Fraction(9, 4))
    sources = []
    real = tracing._define

    def define(*args):
        fn, source = real(*args)
        sources.append(source)
        return fn, source

    monkeypatch.setattr(tracing, "_define", define)
    form = tracing.compile_exact(sums, 4, denominators=True)
    d, n = common_denominator(q)
    calls = []
    real_gcd = math.gcd
    monkeypatch.setattr(math, "gcd", lambda *args: calls.append(args) or real_gcd(*args))
    pairs = form(A.numerator, A.denominator, d, n)
    assert not calls
    assert [Fraction(*pair) for pair in pairs] == list(sums(None, q))
    # over one denominator D = 12, no line of the form multiplies by it
    assert d == 12 and not [line for line in sources[0].splitlines() if line.lstrip().startswith("e") and "D" in line]


@SETTINGS
@given(pair=st.tuples(st.integers(-10**6, 10**6), st.integers(-10**4, 10**4).filter(bool)), hint=rationals)
def test_fraction_is_the_reduced_value_and_returns_only_an_equal_hint(pair, hint):
    x = Fraction(*pair)
    got = fraction_of(pair, hint)
    assert got == x and type(got) is Fraction
    if hint == x:
        assert got is hint
    equal = Fraction(x.numerator, x.denominator)
    assert fraction_of(pair, equal) is equal
    assert fraction_of(pair, None) == x
    if x.denominator == 1:
        assert fraction_of(pair, int(x)) == x  # an int hint is returned as it is
        assert type(fraction_of(pair, int(x))) is int


def test_a_zero_denominator_or_a_row_divisor_of_zero_raises():
    for pair in ((0, 0), (3, 0)):
        with pytest.raises(ZeroDivisionError):
            fraction_of(pair, None)
    # a row's denominator is never 0: a state that divides by zero raises, as the kernel does
    p = Params(5, Fraction(1))
    x = (Fraction(1, 2), 2, 3, 4, 5)
    rows = level_signatures(p, [x, (0, *x[1:]), x])
    assert next(rows) == level_signature.kernel(p, x)
    for call in (lambda: next(rows), lambda: level_signature.kernel(p, (Fraction(0), *x[1:]))):
        with pytest.raises(ZeroDivisionError):
            call()


def test_operations_and_a_confirmed_hint_call_no_gcd(monkeypatch):
    q = (Fraction(3, 2), Fraction(7, 3), 2, Fraction(9, 4))
    want = (Fraction(1, 2) + q[0] * q[1] - q[2] / q[3] + 1) / q[0]
    form = tracing.compile_exact(lambda p, x: ((p.a + x[0] * x[1] - x[2] / x[3] + 1) / x[0],), 4,
                                 denominators=True, common=False)
    d, n = tuple(Fraction(c).denominator for c in q), tuple(Fraction(c).numerator for c in q)
    calls = []
    real = math.gcd
    monkeypatch.setattr(math, "gcd", lambda *args: calls.append(args) or real(*args))
    [pair] = form(1, 2, d, n)
    assert fraction_of(pair, want) is want
    assert not calls
    assert fraction_of(pair, want + 1) == want  # a wrong hint: reduced with gcd
    assert calls


@SETTINGS
@given(x=st.lists(rationals | st.integers(-50, 50), min_size=1, max_size=8))
def test_the_common_denominator_image_has_the_point_values_over_one_denominator(x):
    d, n = common_denominator(x)
    assert d == math.lcm(*(Fraction(q).denominator for q in x))
    assert [Fraction(c, d) for c in n] == [Fraction(q) for q in x]


def test_the_common_denominator_image_of_an_integer_point_has_no_factor():
    assert common_denominator((Fraction(3), 1, Fraction(-4, 2))) == (1, (3, 1, -2))


def _same(p, states):
    """level_signatures equals the kernel on each state, in value and type."""
    states = list(states)
    got = list(level_signatures(p, states))
    want = [level_signature.kernel(p, x) for x in states]
    assert got == want
    for g, w in zip(got, want):
        assert [type(g), *map(type, g)] == [type(w), *map(type, w)]
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
