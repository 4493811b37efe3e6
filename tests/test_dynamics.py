"""Orbit-level tooling: signatures, points of the invariant hypersurface,
odd-period certificates, density laws, the level profile on the 2-periodic
curve, and the rotation-number estimator."""

import math
from fractions import Fraction

import pytest

from lynesslab.cli import main
from lynesslab.dynamics import (
    measure_density_residual,
    odd_period_guard,
    orbit_signature,
    rotation_number,
    sample_g_point,
    solve_v1_level,
    v1_minimum,
    v_profile,
)
from lynesslab.errors import DegenerateOrbitError, DimensionError, DomainError, NoRootError
from lynesslab.invariants import eval_v1, eval_z
from lynesslab.lyness import Params, float_point, step, two_periodic_point
from lynesslab.sampling import random_point, stream

P31 = Params(3, Fraction(1))
P51 = Params(5, Fraction(1))


def test_orbit_signature_exact_levels_stay_constant():
    trace = orbit_signature(P31, (Fraction(1), Fraction(1), Fraction(3)), 25)
    assert len(trace.states) == 26
    assert all(sig.v1 == 32 and sig.v2 == 45 and sig.v3 == 12 for sig in trace.signatures)
    signs = [sig.z_sign for sig in trace.signatures]
    assert all(u == -v for u, v in zip(signs, signs[1:]))
    assert not trace.truncated


def test_orbit_signature_float_drift_is_tiny():
    x0 = (1.0, 2.0, 3.0, 4.0, 5.0)
    trace = orbit_signature(P51, x0, 5000)
    v1s = [sig.v1 for sig in trace.signatures]
    assert max(abs(v - 96.0) for v in v1s) <= 1e-9 * 96.0
    assert not trace.truncated


def test_orbit_signature_flags_float_overflow():
    p = Params(3, Fraction(1))
    trace = orbit_signature(p, (1e-300, 1e300, 1e300), 10)
    assert trace.truncated
    assert trace.note == "float overflow"
    assert len(trace.states) < 11


def test_orbit_signature_walks_backwards():
    trace = orbit_signature(P31, (Fraction(5), Fraction(9), Fraction(5)), -2)
    assert trace.indices == [0, -1, -2]
    assert trace.states[-1] == (1, 3, 5)


def test_sample_g_point_exact_linear_hole():
    p = Params(3, Fraction(2))
    got = sample_g_point(p, (Fraction(1), Fraction(1), None))
    assert got.point == (1, 1, 2)
    assert got.residual == 0
    assert got.image_residual == 0
    assert eval_z(p, got.point) == 0


def test_sample_g_point_exact_quadratic_hole():
    p = Params(5, Fraction(421))
    got = sample_g_point(p, (Fraction(3), Fraction(1), Fraction(3), Fraction(1), None))
    assert got.point == (3, 1, 3, 1, 3)
    assert got.residual == 0


def test_sample_g_point_shared_hole_found_numerically():
    p = Params(5, Fraction(1))
    got = sample_g_point(p, (Fraction(2), None, Fraction(2), None, Fraction(2)))
    t = got.point[1]
    assert got.point == (2, t, 2, t, 2)
    assert 1.5 <= t <= 1.7
    assert abs(got.residual) <= 1e-12
    assert abs(got.image_residual) <= 1e-9


def test_sample_g_point_reports_unreachable_configurations():
    p = Params(3, Fraction(1))
    with pytest.raises(NoRootError):
        sample_g_point(p, (Fraction(1), Fraction(10**7), None))


def test_sample_g_point_validates_template():
    with pytest.raises(ValueError):
        sample_g_point(P31, (Fraction(1), Fraction(1), Fraction(1)))  # no hole
    with pytest.raises(DimensionError):
        sample_g_point(Params(4, Fraction(1)), (Fraction(1), None, Fraction(1), Fraction(1)))
    for bad in (0, -1.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            sample_g_point(P31, (Fraction(1), bad, None))


def test_odd_period_guard_certifies_off_the_hypersurface():
    verdict = odd_period_guard(P31, (Fraction(1), Fraction(1), Fraction(3)), 9)
    assert verdict.z_value == 12
    assert verdict.certified_no_odd_period
    assert verdict.odd_period is None


def test_odd_period_guard_finds_the_fixed_point():
    p = Params(3, Fraction(3))
    verdict = odd_period_guard(p, (Fraction(3), Fraction(3), Fraction(3)), 9)
    assert verdict.z_value == 0
    assert not verdict.certified_no_odd_period
    assert verdict.odd_period == 1


def test_odd_period_guard_on_aperiodic_hypersurface_point():
    p = Params(3, Fraction(2))
    verdict = odd_period_guard(p, (Fraction(1), Fraction(1), Fraction(2)), 9)
    assert verdict.z_value == 0
    assert not verdict.certified_no_odd_period
    assert verdict.odd_period is None
    assert verdict.checked_up_to == 9


def test_odd_period_guard_requires_exact_coordinates():
    with pytest.raises(TypeError):
        odd_period_guard(P31, (1.0, 1.0, 3.0), 9)


def test_density_transformation_laws_hold_exactly():
    rng = stream("density", 0)
    for k in (3, 5, 7):
        p = Params(k, Fraction(7, 3))
        for _ in range(10):
            x = random_point(rng, k)
            assert measure_density_residual(p, x) == (0, 0)


def test_level_profile_golden_on_the_curve():
    v1, v2, v3 = v_profile(P51, Fraction(3))
    assert v1 == Fraction(32768, 441)
    assert v2 == Fraction(161051, 441)
    assert v3 == Fraction(25664, 441)
    # Cross-checks against the direct formulas at (3,7,3,7,3).
    pt = two_periodic_point(P51, Fraction(3))
    assert pt == (3, 7, 3, 7, 3)
    assert v1 == eval_v1(P51, pt)
    assert v3 == Fraction(64, 49) + Fraction(512, 9)


def test_level_profile_rejects_a_curve_point_outside_the_domain():
    # x > 2 holds, but y = (2x + a)/(x - 2) is nan at x = inf
    with pytest.raises(DomainError):
        v_profile(Params(5, 1.0), math.inf)
    # x is finite, but 2x overflows, so the point is (1e308, inf, ...)
    with pytest.raises(DomainError):
        v_profile(Params(5, 1.0), 1e308)


def test_minimum_of_the_level_profile_sits_at_the_fixed_parameter():
    for a in (Fraction(0), Fraction(1), Fraction(4)):
        p = Params(5, a)
        found = v1_minimum(p)
        expected = 2.0 + math.sqrt(4.0 + float(a))
        assert abs(found - expected) <= 1e-8


def test_level_solving_brackets_the_minimum():
    h = float(Fraction(32768, 441))
    left, right = solve_v1_level(P51, h)
    xmin = 2.0 + math.sqrt(5.0)
    assert left < xmin < right
    for root in (left, right):
        value = float(eval_v1(P51, two_periodic_point(P51, Fraction(root).limit_denominator(10**12))))
        assert abs(value - h) <= 1e-10 * h


def test_level_solving_refuses_values_at_or_below_the_minimum():
    at_min = float(eval_v1(P51, two_periodic_point(P51, Fraction(2.0 + math.sqrt(5.0)))))
    with pytest.raises(NoRootError):
        solve_v1_level(P51, at_min)


def test_rotation_number_is_self_consistent():
    x0 = (1.0, 1.0, 3.0)
    rho0 = rotation_number(P31, x0, 20000)
    rho2 = rotation_number(P31, step(P31, step(P31, x0)), 20000)
    assert 0.0 < rho0 <= 0.5
    assert abs(rho0 - rho2) <= 1e-4


def test_rotation_number_rejects_degenerate_orbits():
    p = Params(3, Fraction(3))
    with pytest.raises(DegenerateOrbitError):
        rotation_number(p, (3.0, 3.0, 3.0), 200)
    with pytest.raises(DimensionError):
        rotation_number(Params(4, Fraction(1)), (1.0, 1.0, 1.0, 1.0), 200)
    with pytest.raises(ValueError):
        rotation_number(P31, (1.0, 1.0, 3.0), 5)


def _api_and_cli_rows(k, a, x0, steps, capsys) -> int:
    """The number of rows the `orbit` command writes for a float start, after
    checking that `orbit_signature`, with a as a Fraction and as a float, keeps
    the same states with the same level cells and ends at the same state, and
    that every cell is finite."""
    argv = ["orbit", "--k", str(k), "--a", str(a), "--x0", ",".join(map(repr, x0)), "--steps", str(steps)]
    assert main(argv) == 0
    captured = capsys.readouterr()
    rows = [line.split(",") for line in captured.out.splitlines()[1:]]
    for pa in (Fraction(a), float(a)):
        trace = orbit_signature(Params(k, pa), x0, steps)
        assert len(trace.indices) == len(trace.states) == len(trace.signatures) == len(rows)
        assert rows == [[str(n)] + [repr(c) for c in x] + [str(v) for v in sig if v is not None]
                        for n, x, sig in zip(trace.indices, trace.states, trace.signatures)]
        assert trace.truncated == (len(rows) <= steps)
    assert all(math.isfinite(float(cell)) for row in rows for cell in row)
    warning = f"warning: float orbit left the domain at step {len(rows)}\n" if len(rows) <= steps else ""
    assert captured.err == warning
    return len(rows)


@pytest.mark.parametrize("a, x0, steps, rows", [
    # the float kernel overflows at rows 4, 12 and 20, where the levels are finite
    pytest.param(1, (1.0, 1e-100, 1.0), 20, 21, id="levels-overflow"),
    # the float levels are nan or inf at every state; the rounded exact ones are finite
    pytest.param(1, (1e300, 1e300, 1e300), 2, 3, id="nonfinite-x0"),
    # row 2's float levels divide by its coordinate product, which underflows
    pytest.param(0, (1e100, 1e-20, 1e-160), 5, 6, id="zero-division-row-2"),
    # the float levels are nan in rows 1 to 4, 9 and 10
    pytest.param(1, (1e-150, 1.0, 1e150), 10, 11, id="nonfinite-row-1"),
    # x0's exact V1 is about 2e500: no state gets levels
    pytest.param(1, (1e200, 1e200, 1e-300), 3, 0, id="nonfinite-then-zero-division"),
    # x0's exact V1 is about 1e900, and its first image underflows to 0.0
    pytest.param(0, (1e300, 1e-300, 1e-300), 5, 0, id="first-image-underflows"),
])
def test_api_and_cli_end_a_float_orbit_at_the_same_state_with_finite_levels(a, x0, steps, rows, capsys):
    assert _api_and_cli_rows(3, a, x0, steps, capsys) == rows


def test_api_and_cli_agree_on_log_uniform_float_starts(capsys):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=80)
    @hypothesis.given(data=st.data(), k=st.integers(3, 6),
                      a=st.sampled_from([Fraction(0), Fraction(1), Fraction(7, 3), Fraction(10**6)]))
    def check(data, k, a):
        x0 = tuple(10.0**e for e in data.draw(st.lists(st.floats(-300, 300), min_size=k, max_size=k)))
        try:
            float_point(Params(k, a), x0)
        except DomainError:  # the coordinate product underflows
            hypothesis.assume(False)
        _api_and_cli_rows(k, a, x0, 30, capsys)

    check()
