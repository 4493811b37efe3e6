"""Order reduction of the double-step: lifts, reduced maps, projections,
and the exact semiconjugacy replay, whose reduced steps run as the traced
reduced step's exact form."""

import math
import types
from fractions import Fraction

import pytest

from lynesslab import reduction
from lynesslab.errors import DimensionError, DomainError
from lynesslab.invariants import eval_w
from lynesslab.lyness import Params, step
from lynesslab.reduction import (
    ReducedParams,
    lift_k3,
    lift_k5,
    project,
    reduced_step_k3,
    reduced_step_k5,
    replay,
    semiconjugacy_residual,
)
from lynesslab.sampling import random_point, stream


def test_reduced_step_k3_golden():
    rp = ReducedParams(a=Fraction(1), kappa=Fraction(1, 8))
    assert reduced_step_k3(rp, (Fraction(1), Fraction(3))) == (3, 9)


def test_reduced_step_k3_convention_pin():
    # Distinguishes this two-coordinate convention from nearby variants.
    rp = ReducedParams(a=Fraction(1), kappa=Fraction(1, 4))
    assert reduced_step_k3(rp, (Fraction(1), Fraction(1))) == (1, 5)


def test_reduced_step_k5_golden():
    rp = ReducedParams(a=Fraction(1), kappa=Fraction(1, 6))
    got = reduced_step_k5(rp, (Fraction(1), Fraction(2), Fraction(3), Fraction(5)))
    assert got == (3, 4, 5, 14)


def test_lift_k3_inverts_projection_on_the_level_set():
    rng = stream("lift-k3", 0)
    p = Params(3, Fraction(1))
    for _ in range(20):
        x = random_point(rng, 3)
        kappa = 1 / eval_w(p, x)
        rp = ReducedParams(a=p.a, kappa=kappa)
        lifted = lift_k3(rp, project(p, x))
        assert lifted == x
        assert eval_w(p, lifted) == 1 / kappa


def test_lift_k5_inverts_projection_on_the_level_set():
    rng = stream("lift-k5", 0)
    p = Params(5, Fraction(7, 3))
    for _ in range(20):
        x = random_point(rng, 5)
        kappa = 1 / eval_w(p, x)
        rp = ReducedParams(a=p.a, kappa=kappa)
        lifted = lift_k5(rp, project(p, x))
        assert lifted == x
        assert eval_w(p, lifted) == 1 / kappa


def test_reduced_step_commutes_with_rational_curve_fixed_points():
    # A 2-periodic point of the full map projects to a fixed point of the
    # reduced map, since the reduction tracks the double-step.
    p = Params(3, Fraction(3))
    pt = (Fraction(3), Fraction(3), Fraction(3))
    assert step(p, step(p, pt)) == pt
    rp = ReducedParams(a=p.a, kappa=1 / eval_w(p, pt))
    y = project(p, pt)
    assert reduced_step_k3(rp, y) == y


def test_semiconjugacy_residual_vanishes_exactly():
    rng = stream("semiconjugacy", 0)
    for k in (3, 5):
        p = Params(k, Fraction(1))
        for _ in range(5):
            x0 = random_point(rng, k)
            assert semiconjugacy_residual(p, x0, 30) == 0


def test_semiconjugacy_residual_with_zero_steps():
    p = Params(3, Fraction(1))
    assert semiconjugacy_residual(p, (Fraction(1), Fraction(1), Fraction(3)), 0) == 0


def test_semiconjugacy_rejects_other_dimensions_and_bad_counts():
    with pytest.raises(DimensionError):
        semiconjugacy_residual(Params(4, Fraction(1)), (Fraction(1),) * 4, 5)
    with pytest.raises(ValueError):
        semiconjugacy_residual(Params(3, Fraction(1)), (Fraction(1), Fraction(1), Fraction(3)), -1)


def test_reduced_params_validate():
    with pytest.raises(DomainError):
        ReducedParams(a=Fraction(-1), kappa=Fraction(1, 2))
    with pytest.raises(DomainError):
        ReducedParams(a=Fraction(1), kappa=Fraction(0))


def test_reduced_states_must_be_positive():
    rp = ReducedParams(a=Fraction(1), kappa=Fraction(1, 2))
    with pytest.raises(DomainError):
        reduced_step_k3(rp, (Fraction(1), Fraction(-3)))
    with pytest.raises(DomainError):
        lift_k5(rp, (Fraction(1), Fraction(0), Fraction(2), Fraction(3)))
    with pytest.raises(DomainError):
        reduced_step_k5(rp, (Fraction(1), Fraction(2), Fraction(-2), Fraction(3)))
    with pytest.raises(DomainError):
        lift_k3(rp, (Fraction(0), Fraction(1)))
    with pytest.raises(DomainError):
        reduced_step_k5(rp, (1.0, 2.0, math.inf, 3.0))


def test_projection_keeps_the_documented_coordinates():
    p3 = Params(3, Fraction(1))
    assert project(p3, (Fraction(1), Fraction(2), Fraction(3))) == (1, 3)
    p5 = Params(5, Fraction(1))
    assert project(p5, tuple(Fraction(i) for i in (1, 2, 3, 4, 5))) == (1, 2, 3, 5)
    with pytest.raises(DimensionError):
        project(Params(4, Fraction(1)), (Fraction(1),) * 4)


def test_replay_yields_each_reduced_state_with_its_gap():
    p = Params(3, Fraction(1))
    x0 = (Fraction(1), Fraction(1), Fraction(3))
    rows = list(replay(p, x0, 4))
    assert [y for y, _gap in rows][:2] == [(1, 3), (3, 9)]
    assert len(rows) == 5
    assert all(gap == 0 for _y, gap in rows)
    rp = ReducedParams(a=p.a, kappa=1 / eval_w(p, x0))
    assert rows[2][0] == reduced_step_k3(rp, rows[1][0])


def _fraction_replay(p, x0, n):
    """The replay on Fraction alone, as the reference: every reduced step is
    reduced with gcd and subtracted from the projected F^2 state."""
    full = tuple(x0)
    rp = ReducedParams(a=p.a, kappa=1 / eval_w.kernel(p, full))
    advance = (reduced_step_k3 if p.k == 3 else reduced_step_k5).kernel
    reduced = project(p, full)
    for j in range(n + 1):
        if j:
            reduced = advance(rp, reduced)
            full = step.kernel(p, step.kernel(p, full))
        yield reduced, max(abs(r - f) for r, f in zip(reduced, project(p, full)))


def _typed(rows):
    return [(y, tuple(map(type, y)), gap, type(gap)) for y, gap in rows]


REPLAY_CASES = [(k, a) for k in (3, 5) for a in (0, 1, Fraction(7, 3))]


def _points(k, a, count=3):
    rng = stream(f"replay|{k}|{a}", 0)
    return [random_point(rng, k) for _ in range(count)]


@pytest.mark.parametrize("k, a", REPLAY_CASES)
def test_replay_equals_the_fraction_loop_in_value_and_type(k, a):
    p = Params(k, a)
    for x0 in _points(k, a):
        assert _typed(replay(p, x0, 30)) == _typed(_fraction_replay(p, x0, 30))


def test_a_float_replay_equals_the_fraction_loop_run_on_floats():
    for k in (3, 5):
        p = Params(k, 1.0)
        for x0 in _points(k, "float"):
            x0 = tuple(map(float, x0))
            got = list(replay(p, x0, 30))
            assert _typed(got) == _typed(_fraction_replay(p, x0, 30))
            assert any(gap for _y, gap in got)  # rounding shows, so both paths ran


def _plus_one(real):
    def kernel(rp, y):
        out = real(rp, y)
        return (*out[:-1], out[-1] + 1)
    return kernel


def _double_kappa(real):  # a namespace: ReducedParams checks a and kappa, which fails on traced values
    return lambda rp, y: real(types.SimpleNamespace(a=rp.a, kappa=2 * rp.kappa), y)


@pytest.fixture
def fresh_reduced_step():
    """Empty the traced reduced step's exact forms for the test, so a patched
    kernel is traced while it is patched, then restore them, so no patched
    form outlives the test."""
    cache = reduction._reduced_step.compiled_exact
    saved = dict(cache)
    cache.clear()
    yield
    cache.clear()
    cache.update(saved)


@pytest.mark.parametrize("k, a", REPLAY_CASES)
@pytest.mark.parametrize("perturb", [_plus_one, _double_kappa])
def test_a_broken_reduced_step_gives_the_reference_rows_and_residual(k, a, perturb, monkeypatch,
                                                                     fresh_reduced_step):
    public = reduced_step_k3 if k == 3 else reduced_step_k5
    monkeypatch.setattr(public, "kernel", perturb(public.kernel))
    p = Params(k, a)
    for x0 in _points(k, a, 2):
        want = _typed(_fraction_replay(p, x0, 12))
        assert _typed(replay(p, x0, 12)) == want
        residual = semiconjugacy_residual(p, x0, 12)
        assert residual > 0 and residual == max(gap for *_y, gap, _t in want)


def _counting(counts, public):
    """Stand-in for a public reduction map: counts each public call and keeps
    the real kernel, so only a call that skips `.kernel` is counted."""

    def call(rp, coords):
        counts["public"] += 1
        return public(rp, coords)

    call.kernel = public.kernel
    return call


def test_a_valid_exact_replay_reduces_nothing_and_checks_the_domain_once(monkeypatch):
    counts = {"confirmed": 0, "fraction": 0, "public": 0}
    real_fraction_of = reduction.fraction_of

    def fraction_of(pair, hint):  # counts each coordinate confirmed, and each one reduced instead
        got = real_fraction_of(pair, hint)
        counts["confirmed" if got is hint else "fraction"] += 1
        return got

    monkeypatch.setattr(reduction, "fraction_of", fraction_of)
    # the positivity check runs only in the public forms; after its one
    # require_point the replay calls kernels alone
    for name in ("lift_k3", "lift_k5", "reduced_step_k3", "reduced_step_k5"):
        monkeypatch.setattr(reduction, name, _counting(counts, getattr(reduction, name)))
    for k, a in REPLAY_CASES:
        for x0 in _points(k, a, 2):
            assert all(gap == 0 for _y, gap in replay(Params(k, a), x0, 30))
    confirmed = sum(30 * (k - 1) * 2 for k, _ in REPLAY_CASES)  # each coordinate of 30 steps, 2 points
    assert counts == {"confirmed": confirmed, "fraction": 0, "public": 0}


def test_a_float_replay_whose_orbit_leaves_the_domain_raises_after_its_rows():
    # W(x0) = 1e300 is finite, but the first image (a + 1e300 + 1) / 1e-300
    # overflows, so F^2 never reaches a second state
    p, x0 = Params(3, 1.0), (1e-300, 1.0, 1e300)
    rows = replay(p, x0, 5)
    assert next(rows) == ((1e-300, 1e300), 0.0)
    with pytest.raises(DomainError, match="after 0 of 5 double-steps"):
        next(rows)
    with pytest.raises(DomainError):
        semiconjugacy_residual(p, x0, 5)
    assert semiconjugacy_residual(p, x0, 0) == 0.0  # no double-step asked, none missing


@pytest.mark.parametrize(
    "k, x0, n, error",
    [
        (4, (1, 2, 3, 4), 5, DimensionError),
        (5, (1, 2, 3, 4), 5, DimensionError),
        (3, (1, 0, 1), 5, DomainError),
        (5, (1.0, 2.0, math.inf, 4.0, 5.0), 5, DomainError),
        (3, (1, 1, 3), -1, ValueError),
    ],
    ids=["k4", "short-x0", "zero-coordinate", "inf-coordinate", "negative-n"],
)
def test_replay_checks_its_arguments_when_called(k, x0, n, error):
    # a caller that writes a header before the first row learns of a bad
    # argument before it writes anything
    with pytest.raises(error):
        replay(Params(k, Fraction(1)), x0, n)
