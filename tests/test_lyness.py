"""Map layer: step, inverse, Jacobian, fixed points, 2-periodic curves."""

import math
from fractions import Fraction

import pytest

from lynesslab.errors import DimensionError, DomainError
from lynesslab.lyness import (
    Params,
    fixed_point,
    in_orthant,
    inverse_step,
    iterate,
    jacobian,
    jacobian_det,
    orbit,
    require_point,
    step,
    two_periodic_point,
)
from lynesslab.sampling import random_point, stream


def test_step_matches_hand_computation():
    p = Params(3, Fraction(1))
    assert step(p, (Fraction(1), Fraction(1), Fraction(3))) == (1, 3, 5)
    assert step(p, (Fraction(1), Fraction(3), Fraction(5))) == (3, 5, 9)
    p4 = Params(4, Fraction(4))
    assert step(p4, (Fraction(1), Fraction(2), Fraction(3), Fraction(4))) == (2, 3, 4, 13)


def test_inverse_step_matches_hand_computation():
    p = Params(3, Fraction(1))
    assert inverse_step(p, (Fraction(1), Fraction(3), Fraction(5))) == (1, 1, 3)
    assert inverse_step(p, (Fraction(3), Fraction(5), Fraction(9))) == (1, 3, 5)


def test_kernels_sum_left_to_right_on_every_interpreter():
    # sum() of floats compensates since CPython 3.12 and would give 1.0000000000000002e16
    assert step.kernel(Params(4, 0.0), (1.0, 1e16, 1.0, 1.0))[-1] == 1e16
    assert inverse_step.kernel(Params(4, 0.0), (1e16, 1.0, 1.0, 1.0))[0] == 1e16


def test_step_and_inverse_are_mutually_inverse():
    rng = stream("round-trip", 0)
    for k in range(2, 9):
        p = Params(k, Fraction(7, 3))
        for _ in range(100 // (k - 1)):
            x = random_point(rng, k)
            assert inverse_step(p, step(p, x)) == x
            assert step(p, inverse_step(p, x)) == x


def test_iterate_walks_both_directions():
    p = Params(3, Fraction(1))
    x0 = (Fraction(1), Fraction(1), Fraction(3))
    fwd = iterate(p, x0, 3)
    assert fwd.indices == [0, 1, 2, 3]
    assert fwd.states[1] == (1, 3, 5)
    assert fwd.states[3] == (5, 9, 5)
    back = iterate(p, fwd.states[3], -3)
    assert back.states[-1] == x0
    assert back.indices == [0, -1, -2, -3]


def test_jacobian_golden_matrix():
    p = Params(3, Fraction(1))
    m = jacobian(p, (Fraction(1), Fraction(1), Fraction(3)))
    assert m.rows == [[0, 1, 0], [0, 0, 1], [-5, 1, 1]]
    # the shift rows are the int literals an exact form folds away
    assert {type(v) for row in m.rows[:-1] for v in row} == {int}
    assert jacobian_det(p, (Fraction(1), Fraction(1), Fraction(3))) == -5


def _det_by_elimination(rows):
    rows = [list(r) for r in rows]
    n = len(rows)
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        det *= rows[col][col]
        for r in range(col + 1, n):
            if rows[r][col] == 0:
                continue
            f = rows[r][col] / rows[col][col]
            for c in range(col, n):
                rows[r][c] -= f * rows[col][c]
    return det


def test_jacobian_det_closed_form_against_elimination_oracle():
    rng = stream("det-oracle", 0)
    for k in range(2, 8):
        for a in (Fraction(0), Fraction(1), Fraction(7, 3)):
            p = Params(k, a)
            for _ in range(10):
                x = random_point(rng, k)
                m = jacobian(p, x)
                assert _det_by_elimination(m.rows) == jacobian_det(p, x)


def test_jacobian_det_sign_tracks_parity():
    rng = stream("det-parity", 1)
    for k in (3, 4, 5, 6):
        p = Params(k, Fraction(2))
        for _ in range(10):
            x = random_point(rng, k)
            d = jacobian_det(p, x)
            assert (d > 0) == (k % 2 == 0)


def test_fixed_point_is_fixed_and_solves_its_quadratic():
    for k in (2, 3, 4, 5, 8):
        for a in (Fraction(0), Fraction(1), Fraction(10)):
            p = Params(k, a)
            fp = fixed_point(p)
            c = fp.point[0]
            assert fp.point == (c,) * k
            assert fp.quadratic == (1, -(k - 1), -a)
            assert abs(c * c - (k - 1) * c - float(a)) <= 1e-10 * max(1.0, c * c)
            moved = step(p, fp.point)
            assert max(abs(m - c) for m in moved) <= 1e-12 * max(1.0, c)


def test_fixed_point_with_rational_root_is_exactly_fixed():
    # a = k makes every coordinate equal to k.
    for k in (2, 3, 4, 5):
        p = Params(k, Fraction(k))
        point = (Fraction(k),) * k
        assert step(p, point) == point


def test_two_periodic_points_have_exact_period_two():
    for k, lo in ((3, 1), (5, 2)):
        for a in (Fraction(0), Fraction(1), Fraction(7, 3)):
            p = Params(k, a)
            for i in range(1, 21):
                x = Fraction(lo) + Fraction(i, 7)
                pt = two_periodic_point(p, x)
                assert step(p, step(p, pt)) == pt


def test_two_periodic_point_generically_moves_under_one_step():
    p = Params(3, Fraction(1))
    pt = two_periodic_point(p, Fraction(3))
    assert step(p, pt) != pt


def test_two_periodic_point_validates_parameter_and_dimension():
    with pytest.raises(DomainError):
        two_periodic_point(Params(3, Fraction(1)), Fraction(1))
    with pytest.raises(DomainError):
        two_periodic_point(Params(5, Fraction(1)), Fraction(2))
    with pytest.raises(DimensionError):
        two_periodic_point(Params(4, Fraction(1)), Fraction(3))


def test_params_and_point_validation():
    with pytest.raises(DimensionError):
        Params(1, Fraction(1))
    with pytest.raises(DomainError, match="got -1/2$"):
        Params(3, Fraction(-1, 2))
    p = Params(3, Fraction(1))
    with pytest.raises(DomainError):
        step(p, (Fraction(1), Fraction(0), Fraction(3)))
    with pytest.raises(DomainError):
        step(p, (Fraction(1), Fraction(-2), Fraction(3)))
    with pytest.raises(DimensionError):
        step(p, (Fraction(1), Fraction(2)))
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(DomainError):
            require_point(p, (1.0, bad, 3.0))
        assert not in_orthant((1.0, bad, 3.0))
    # the message lists the coordinates as they print
    with pytest.raises(DomainError, match=r"got 1/2, 0, 3$"):
        require_point(p, (Fraction(1, 2), Fraction(0), Fraction(3)))
    # tall rationals are tested without a float conversion
    assert in_orthant((Fraction(10**400), Fraction(1, 3), 1e308))
    assert not in_orthant((Fraction(-1, 3), Fraction(1), 1.0))


def test_float_states_are_accepted():
    p = Params(4, Fraction(4))
    x = (1.0, 2.0, 3.0, 4.0)
    y = step(p, x)
    assert y == (2.0, 3.0, 4.0, 13.0)
    assert all(math.isfinite(c) for c in inverse_step(p, y))


def test_random_sampling_is_reproducible():
    a = random_point(stream("sampling", 42), 5)
    b = random_point(stream("sampling", 42), 5)
    c = random_point(stream("sampling", 43), 5)
    assert a == b
    assert a != c
    assert all(isinstance(v, Fraction) and v > 0 for v in a)


def test_distinct_streams_decorrelate():
    xs = random_point(stream("suite-one", 7), 6)
    ys = random_point(stream("suite-two", 7), 6)
    assert xs != ys


def test_public_formulas_validate_and_expose_a_pure_kernel():
    p = Params(3, Fraction(1))
    x = (Fraction(1), Fraction(1), Fraction(3))
    assert step.kernel(p, x) == step(p, x)
    assert inverse_step.kernel(p, x) == inverse_step(p, x)
    assert jacobian_det.kernel(p, x) == jacobian_det(p, x)
    with pytest.raises(DomainError):
        step(p, (Fraction(-1), Fraction(1), Fraction(3)))
    # the kernel is plain arithmetic and does not look at the domain
    assert step.kernel(p, (Fraction(-1), Fraction(1), Fraction(3))) == (1, 3, -5)


def test_orbit_yields_the_start_and_each_image():
    p = Params(3, Fraction(1))
    x0 = (Fraction(1), Fraction(1), Fraction(3))
    assert list(orbit(p, x0, 3)) == iterate(p, x0, 3).states
    assert list(orbit(p, x0, 0)) == [x0]
    assert list(orbit(p, (5, 9, 5), -3)) == [(5, 9, 5), (3, 5, 9), (1, 3, 5), (1, 1, 3)]
    with pytest.raises(DomainError):
        next(orbit(p, (Fraction(0), Fraction(1), Fraction(3)), 2))


def test_orbit_stops_at_the_first_state_outside_the_float_range():
    p = Params(3, Fraction(1))
    states = list(orbit(p, (1e-300, 1e300, 1e300), 10))
    assert len(states) < 11
    assert all(0 < c < math.inf for s in states for c in s)
    trace = iterate(p, (1e-300, 1e300, 1e300), 10)
    assert trace.states == states and trace.truncated
    backward = list(orbit(p, (1e300, 1e300, 1e-300), -10))
    assert len(backward) < 11
    assert all(0 < c < math.inf for s in backward for c in s)
    # tall rationals compare against inf without a float conversion
    tall = (Fraction(10**400), Fraction(1), Fraction(1))
    assert len(list(orbit(p, tall, 3))) == 4


def _exact_starts(k):
    """Exact starts of four kinds: every coordinate a Fraction, ints and
    Fractions alternating, and only x1 or only xk a Fraction (the coordinate
    F or F^-1 divides by, so the first window sum is an int at int a)."""
    ints = tuple(range(2, k + 2))
    return (
        tuple(Fraction(i + 2, i % 3 + 1) for i in range(k)),
        tuple(Fraction(c, 3) if i % 2 else c for i, c in enumerate(ints)),
        (Fraction(1, 2),) + ints[1:],
        ints[:-1] + (Fraction(5, 3),),
    )


def _types(states):
    return [tuple(map(type, x)) for x in states]


def _bits(x):
    return tuple(c.hex() if isinstance(c, float) else c for c in x)


@pytest.mark.parametrize("k", range(2, 9))
@pytest.mark.parametrize("n", [30, -30], ids=["forward", "backward"])
def test_an_exact_orbit_carrying_its_window_sum_is_the_kernel_orbit(k, n, monkeypatch):
    """An exact orbit carries a + x2 + ... + xk (a + y1 + ... + y_{k-1}
    backward) from state to state and runs no step kernel, yet every state
    equals the kernel's iterate in value and in the type of each coordinate."""
    kernel = step.kernel if n > 0 else inverse_step.kernel
    for a in (0, 1, Fraction(7, 10)):
        p = Params(k, a)
        for x0 in _exact_starts(k):
            want = [x0]
            for _ in range(abs(n)):
                want.append(kernel(p, want[-1]))
            with monkeypatch.context() as m:
                for public in (step, inverse_step):
                    m.setattr(public, "kernel", None)  # the carried path calls neither
                got = list(orbit(p, x0, n))
            assert got == want
            assert _types(got) == _types(want)


@pytest.mark.parametrize("x0", [(1, 2, 3, 4), (1.0, 2.0, 3.0, 4.0), (1, 2.0, 3, 4)], ids=["int", "float", "mixed"])
def test_an_int_or_float_start_runs_the_step_kernel(x0, monkeypatch):
    """No Fraction among a and x0: the orbit runs `step.kernel` (F^-1's kernel
    backward) on every step, and its floats have the kernel's bits."""
    for n, public in ((25, step), (-25, inverse_step)):
        p = Params(4, 1)
        want = [x0]
        for _ in range(abs(n)):
            want.append(public.kernel(p, want[-1]))
        calls = []
        monkeypatch.setattr(public, "kernel", lambda p, x, real=public.kernel: calls.append(x) or real(p, x))
        got = list(orbit(p, x0, n))
        assert len(calls) == abs(n)
        assert _types(got) == _types(want)
        assert [_bits(x) for x in got] == [_bits(x) for x in want]
