"""Flow integration: conservation drift, equilibria, determinism, boundary
truncation, the adaptive integrator, the orbit-transport probe, and RK4
states bit for bit those of the field built from `accumulate` prefix lists."""

import math
import warnings
from fractions import Fraction
from itertools import accumulate
from operator import mul

import pytest

from lynesslab import flow
from lynesslab.flow import (
    METHODS,
    integrate_flow,
    invariant_drift,
    transport_diagnostic,
)
from lynesslab.lyness import Params, float_point, in_orthant
from lynesslab.scalars import fold
from lynesslab.symmetry import symmetry_vector

P44 = Params(4, Fraction(4))
X1234 = (Fraction(1), Fraction(2), Fraction(3), Fraction(4))


def test_conserved_levels_drift_slowly_under_rk4():
    trace = integrate_flow(P44, X1234, dt=1e-3, t_max=2.0)
    drift = invariant_drift(trace)
    assert set(drift) == {"v1", "v2"}
    assert max(drift.values()) <= 1e-6
    assert len(trace.times) == 2001
    assert not trace.boundary_hit


def test_odd_dimension_traces_track_three_levels():
    p = Params(5, Fraction(1))
    x0 = tuple(Fraction(i) for i in (1, 2, 3, 4, 5))
    trace = integrate_flow(p, x0, dt=2.5e-4, t_max=1.0)
    drift = invariant_drift(trace)
    assert set(drift) == {"v1", "v2", "v3"}
    assert max(drift.values()) <= 1e-6


def test_halving_the_step_improves_the_drift_fourth_order():
    coarse = max(invariant_drift(integrate_flow(P44, X1234, dt=2e-3, t_max=2.0)).values())
    fine = max(invariant_drift(integrate_flow(P44, X1234, dt=1e-3, t_max=2.0)).values())
    assert coarse / fine >= 8.0


def test_equilibrium_stays_put_exactly():
    bar = (Fraction(4),) * 4
    trace = integrate_flow(P44, bar, dt=1e-2, t_max=1.0)
    assert all(s == (4.0, 4.0, 4.0, 4.0) for s in trace.states)
    assert max(invariant_drift(trace).values()) == 0.0


def test_integration_is_deterministic():
    one = integrate_flow(P44, X1234, dt=1e-3, t_max=1.0)
    two = integrate_flow(P44, X1234, dt=1e-3, t_max=1.0)
    assert one.times == two.times
    assert one.states == two.states


def test_boundary_approach_truncates_and_flags():
    p = Params(3, Fraction(1))
    trace = integrate_flow(p, (1e-6, 1.0, 1.0), dt=1e-3, t_max=1.0)
    assert trace.boundary_hit
    assert len(trace.times) < 1001
    assert trace.states  # the initial sample is always kept


def test_a_trace_of_one_sample_reports_no_drift():
    trace = integrate_flow(Params(5, 1), (0.01, 50, 1, 70, 2), dt=0.01, t_max=0.05)
    assert trace.boundary_hit and len(trace.signatures) == 1
    assert invariant_drift(trace) == {}


@pytest.mark.parametrize(
    "c, inside",
    [(1.0, True), (2 * flow.BOUNDARY_EPS, True), (flow.BOUNDARY_EPS, False), (0.0, False),
     (math.nan, False), (math.inf, False), (-math.inf, False)],
)
def test_the_truncation_rule_keeps_finite_coordinates_past_the_boundary(c, inside):
    assert flow._in_domain((1.0, c, 2.0)) is inside


@pytest.mark.parametrize("i", range(3))
def test_both_domain_rules_read_every_coordinate(i):
    """`lyness.in_orthant` and the truncation rule fail a point whose
    coordinate i is nan, inf or not positive; 1e-12 is in the orthant but not
    in the flow's domain; exact coordinates pass both."""
    def at(c):
        return (1.0, 2.0, 3.0)[:i] + (c,) + (1.0, 2.0, 3.0)[i + 1:]

    for c in (math.nan, math.inf, -math.inf, 0.0, -1.0, Fraction(0), -2):
        assert in_orthant(at(c)) is flow._in_domain(at(c)) is False
    for c in (flow.BOUNDARY_EPS, Fraction(1, 10**13)):
        assert (in_orthant(at(c)), flow._in_domain(at(c))) == (True, False)
    exact = (Fraction(1, 3), Fraction(10**400), 5)
    assert in_orthant(exact) is flow._in_domain(exact) is True


def test_method_and_grid_validation():
    with pytest.raises(ValueError):
        integrate_flow(P44, X1234, dt=1e-3, t_max=1.0, method="euler")
    with pytest.raises(ValueError):
        integrate_flow(P44, X1234, dt=-1e-3, t_max=1.0)
    with pytest.raises(ValueError):
        integrate_flow(P44, X1234, dt=1e-3, t_max=0.0)


def test_adaptive_integrator_conserves_tightly():
    trace = integrate_flow(P44, X1234, dt=1e-2, t_max=2.0, method=METHODS[1])
    assert max(invariant_drift(trace).values()) <= 1e-7
    assert trace.method == METHODS[1]


def test_transport_probe_at_an_equilibrium_is_exact():
    report = transport_diagnostic(P44, (Fraction(4),) * 4, t_max=1.0, samples=5)
    assert report.max_distance == 0.0


def test_transport_probe_confirms_orbit_to_orbit_mapping_k3():
    p = Params(3, Fraction(1))
    report = transport_diagnostic(p, (Fraction(1), Fraction(1), Fraction(3)), t_max=6.0, samples=40)
    assert report.max_distance <= 1e-6 * report.curve_scale
    # One map step lands on a different flow orbit here: the image points
    # stay far from the source orbit even though they hug the image orbit.
    assert report.min_source_distance >= 1e-2


def test_transport_probe_shows_image_is_a_different_orbit_k4():
    report = transport_diagnostic(P44, X1234, t_max=6.0, samples=40)
    assert report.max_distance <= 1e-3 * report.curve_scale
    assert report.min_source_distance >= 1e-2


def test_transport_probe_validates_sample_count():
    with pytest.raises(ValueError):
        transport_diagnostic(P44, X1234, t_max=1.0, samples=0)


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize(
    "dt, t_max",
    [
        (1e-3, float("inf")),
        (float("inf"), 1.0),
        (float("nan"), 1.0),
        (1e-3, float("nan")),
        (0.3, 1.0),   # would stop at t=0.9
        (2.0, 1.0),   # would step past t_max
        (1e-300, 1e300),  # t_max/dt overflows
    ],
)
def test_grid_must_be_finite_and_a_whole_number_of_steps(dt, t_max, method):
    with pytest.raises(ValueError):
        integrate_flow(P44, X1234, dt=dt, t_max=t_max, method=method)


def test_grid_accepts_rounding_noise_in_the_step_count():
    # 0.7/0.001 is 699.9999999999999 in float64; the grid is still 700 steps
    trace = integrate_flow(P44, X1234, dt=1e-3, t_max=0.7)
    assert len(trace.times) == 701
    assert not trace.boundary_hit
    with pytest.raises(ValueError):
        transport_diagnostic(P44, X1234, t_max=1.0, samples=5, dt=0.3)


def test_adaptive_integrator_truncates_at_the_boundary_event():
    # x3 falls below 1e-12 within the solver's first few steps, long before
    # the first grid time, so the trace ends with its in-domain start.
    p = Params(3, Fraction(1))
    trace = integrate_flow(p, (1e-11,) * 3, dt=1e-3, t_max=1.0, method=METHODS[1])
    assert trace.boundary_hit
    assert trace.states
    assert all(c > 0 for s in trace.states for c in s)


@pytest.mark.parametrize("x0", [(1e-300, 1, 1), (1, 1e-300, 1)])
def test_adaptive_integrator_truncates_where_it_cannot_take_a_step(x0):
    # The field overflows at x0, so the solver's first step is too small to
    # take; the trace keeps the one sample it reached instead of failing.
    trace = integrate_flow(Params(3, 1), x0, 0.1, 1.0, method="rk45-adaptive")
    assert trace.boundary_hit
    assert trace.times == [0.0]
    [state] = trace.states
    assert all(math.isfinite(c) for c in state)


def test_adaptive_integrator_truncates_where_it_takes_no_step():
    # x0 is inside the domain, but the field overflows to inf there, so the
    # run ends at t=0 before a step, and no arithmetic warns on the way
    x0 = (1e300, 1.0, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trace = integrate_flow(Params(3, 1), x0, 0.1, 1.0, method="rk45-adaptive")
    assert (trace.times, trace.states, trace.boundary_hit) == ([0.0], [x0], True)


def test_adaptive_integrator_truncates_where_the_field_is_nan():
    # the field is inf / inf = nan at this in-domain start, so the run ends at t=0
    x0 = (1e200, 1e200, 1e200)
    trace = integrate_flow(Params(3, 1), x0, 0.1, 0.2, method="rk45-adaptive")
    assert (trace.times, trace.states, trace.boundary_hit) == ([0.0], [x0], True)


@pytest.mark.parametrize("method", METHODS)
def test_a_truncated_run_keeps_only_in_domain_samples(method):
    # the field is as large as 6e23 here, and x1 falls to 1e-12 before t = 1e-17
    trace = integrate_flow(Params(4, 0), (1e-11, 1.0, 1.0, 1e6), 1e-19, 2e-17, method=method)
    assert trace.boundary_hit
    assert 1 < len(trace.states) == len(trace.times) < 201
    assert all(map(flow._in_domain, trace.states))


def _solve_ivp_samples(p, x0, dt, t_max):
    """(times, states) of `solve_ivp` run once over [0, t_max] with one dense
    output for the whole run, sampled at min(j * dt, t_max): the construction
    the stepped RK45 loop replaced, kept as a reference for its bits."""
    from scipy.integrate import solve_ivp

    p, x0 = float_point(p, x0)
    sol = solve_ivp(lambda _t, y: symmetry_vector.kernel(p, tuple(y)), (0.0, t_max), x0,
                    method="RK45", rtol=flow.RK45_TOL, atol=flow.RK45_TOL, dense_output=True)
    times = [min(j * dt, t_max) for j in range(flow._grid_steps(dt, t_max) + 1)]
    return times, [tuple(float(v) for v in sol.sol(t)) for t in times]


@pytest.mark.parametrize(
    "p, x0, dt, t_max",
    [
        (Params(3, 1), (1, 1, 3), 0.1, 0.3),  # 3 * 0.1 passes t_max, so the last time is t_max
        (Params(4, 4), (1, 2, 3, 4), 0.05, 0.5),
        (Params(5, Fraction(7, 10)), (1, 2, 3, 4, 5), 0.05, 0.5),
        (Params(6, 1), (1, 2, 3, 4, 5, 6), 0.05, 0.25),
    ],
    ids=["k3", "k4", "k5", "k6"],
)
def test_adaptive_integrator_gives_the_bits_of_one_dense_output(p, x0, dt, t_max):
    trace = integrate_flow(p, x0, dt, t_max, method="rk45-adaptive")
    times, states = _solve_ivp_samples(p, x0, dt, t_max)
    assert not trace.boundary_hit
    assert [t.hex() for t in trace.times] == [t.hex() for t in times]
    assert [[c.hex() for c in x] for x in trace.states] == [[c.hex() for c in x] for x in states]


@pytest.mark.parametrize("x0, samples", [
    ((1e-300, 1.0, 1.0), 1),
    # x0's V1 is about 1e700, past float64: x0 gets no levels, so no sample
    ((1e300, 1e-200, 1e-200), 0),
], ids=["x00", "x01"])
def test_adaptive_integrator_evaluates_no_field_at_a_start_outside_the_domain(x0, samples, monkeypatch):
    calls = []
    monkeypatch.setattr(symmetry_vector, "kernel", lambda p, x: calls.append(x) or (1.0,) * p.k)
    trace = integrate_flow(Params(3, 1), x0, 0.1, 1.0, method="rk45-adaptive")
    assert (trace.times, trace.states, trace.boundary_hit, calls) == ([0.0] * samples, [x0] * samples, True, [])


@pytest.mark.parametrize("h", [0.1, -0.1])
def test_an_rk4_step_that_divides_by_zero_truncates(h):
    # x2 x3 underflows to 0.0, and the field divides by it at x0
    x0 = (1e300, 1e-200, 1e-200)
    assert flow._rk4(Params(3, 1.0), x0, h, 5) == ([x0], True)


def _accumulate_field(p, x):
    """The field as it was built from two `accumulate` prefix lists, kept as a
    reference for the bits of `symmetry_vector.kernel`."""
    k, a = p.k, p.a
    links = [1 + x[i] + x[i + 1] for i in range(k - 1)]
    link_heads = list(accumulate(links[:-1], mul, initial=1))
    x_heads = list(accumulate(x[:-1], mul, initial=1))
    middle = a + fold(x) + x[0] * x[k - 1]
    out = [(x[0] + 1) * math.prod(links[1:]) * (a + fold(x[: k - 1]) - x[1] * x[k - 1])
           / math.prod(x[1:])]
    for i in range(1, k - 1):
        out.append((x[i] + 1) * math.prod(links[i + 1 :], start=link_heads[i - 1]) * middle
                   * (x[i - 1] - x[i + 1]) / math.prod(x[i + 1 :], start=x_heads[i]))
    out.append(-(x[k - 1] + 1) * link_heads[-1] * (a + fold(x[1:]) - x[0] * x[k - 2])
               / x_heads[-1])
    return tuple(out)


@pytest.mark.parametrize("k", range(3, 9))
def test_rk4_states_are_those_of_the_accumulate_field(k, monkeypatch):
    p = Params(k, 0.7)
    x0 = tuple(1.0 + 0.37 * i for i in range(k))
    got, hit = flow._rk4(p, x0, 1e-4, 40)
    monkeypatch.setattr(symmetry_vector, "kernel", _accumulate_field)
    # the compiled step holds the field as traced; drop it so it re-traces
    monkeypatch.delitem(flow._rk4_stages.compiled, k)
    want, want_hit = flow._rk4(p, x0, 1e-4, 40)
    assert (len(got), hit) == (len(want), want_hit) == (41, False)
    assert [[c.hex() for c in x] for x in got] == [[c.hex() for c in x] for x in want]
