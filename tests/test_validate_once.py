"""Drivers validate their start point once at entry and call kernels from
then on, so the number of domain checks does not grow with the work done."""

from fractions import Fraction

import pytest

from lynesslab import dynamics, invariants, lyness, reduction
from lynesslab.dynamics import odd_period_guard
from lynesslab.flow import METHODS, integrate_flow, transport_diagnostic
from lynesslab.invariants import independence_rank
from lynesslab.lyness import Params
from lynesslab.reduction import replay

P44 = Params(4, Fraction(4))
X1234 = (Fraction(1), Fraction(2), Fraction(3), Fraction(4))
# On {Z = 0} at a = 1, where every orbit has period 8: the guard searches
# the whole budget without the heights growing.
Z0_POINT = (Fraction(2), Fraction(3), Fraction(4))

# name -> (run(size), small size, large size, require_point calls per run)
DRIVERS = {
    "rk4": (lambda n: integrate_flow(P44, X1234, dt=1e-3, t_max=n * 1e-3), 10, 1000, 1),
    "rk45": (
        lambda n: integrate_flow(P44, X1234, dt=1e-3, t_max=n * 1e-3, method=METHODS[1]),
        10, 1000, 1,
    ),
    "transport": (
        lambda n: transport_diagnostic(P44, X1234, t_max=n * 1e-3, samples=5), 10, 1000, 1,
    ),
    # size = k: one dual pass per coordinate and integral
    "independence_rank": (
        lambda k: independence_rank(Params(k, Fraction(1)), tuple(map(Fraction, range(1, k + 1)))),
        3, 9, 1,
    ),
    # the guard's own check (it needs exact coordinates) and the orbit's
    "odd_period_guard": (
        lambda n: odd_period_guard(Params(3, Fraction(1)), Z0_POINT, n), 10, 1000, 2,
    ),
    "replay": (
        lambda n: list(replay(Params(5, Fraction(1)), (Fraction(1),) * 5, n)), 5, 50, 1,
    ),
}


@pytest.mark.parametrize("name", sorted(DRIVERS))
def test_drivers_validate_once_whatever_the_work(name, monkeypatch):
    run, small, large, expected = DRIVERS[name]
    calls = []
    real = lyness.require_point

    def counting(p, x):
        calls.append(x)
        return real(p, x)

    # flow validates through lyness.float_point, so it needs no patch of its own
    for module in (lyness, invariants, dynamics, reduction):
        monkeypatch.setattr(module, "require_point", counting)
    counts = []
    for size in (small, large):
        calls.clear()
        run(size)
        counts.append(len(calls))
    assert counts == [expected, expected]
