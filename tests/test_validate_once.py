"""Drivers validate their start point once at entry and call kernels from
then on, so the number of domain checks does not grow with the work done;
each CLI run passes its start through one gate."""

from fractions import Fraction

import pytest

from lynesslab import cli, dynamics, invariants, lyness, reduction
from lynesslab.dynamics import odd_period_guard, rotation_number, sample_g_point, solve_v1_level
from lynesslab.flow import METHODS, integrate_flow, transport_diagnostic
from lynesslab.invariants import independence_rank
from lynesslab.lyness import Params
from lynesslab.reduction import replay

P44 = Params(4, Fraction(4))
X1234 = (Fraction(1), Fraction(2), Fraction(3), Fraction(4))
# On {Z = 0} at a = 1, where every orbit has period 8: the guard searches
# the whole budget without the heights growing.
Z0_POINT = (Fraction(2), Fraction(3), Fraction(4))
# size = holes: one hole at k=3, two at k=5, with a rational root (no check:
# the nodes and the root fill a checked template) or a float root (one check
# of the converted point)
G_TEMPLATES = {
    "exact": {1: (2, 3, None), 2: (1, 2, None, None, 5)},
    "float": {1: (1, 2, None), 2: (2, 3, None, None, 6)},
}


def _g_point_run(kind):
    def run(holes):
        template = [v and Fraction(v) for v in G_TEMPLATES[kind][holes]]
        found = sample_g_point(Params(len(template), Fraction(1)), template)
        assert isinstance(found.point[0], Fraction if kind == "exact" else float)

    return run


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
    # the guard's own check (it needs exact coordinates); its orbit runs the kernel
    "odd_period_guard": (
        lambda n: odd_period_guard(Params(3, Fraction(1)), Z0_POINT, n), 10, 1000, 1,
    ),
    "rotation_number": (
        lambda n: rotation_number(Params(3, Fraction(1)), (Fraction(1), Fraction(1), Fraction(3)), n),
        10, 1000, 1,
    ),
    # size = level h; the curve points come from the parameter x > 2 alone
    "solve_v1_level": (lambda h: solve_v1_level(Params(5, Fraction(1)), h), 100, 4000, 0),
    "sample_g_point_exact": (_g_point_run("exact"), 1, 2, 0),
    "sample_g_point_float": (_g_point_run("float"), 1, 2, 1),
    "replay": (
        lambda n: list(replay(Params(5, Fraction(1)), (Fraction(1),) * 5, n)), 5, 50, 1,
    ),
}


@pytest.mark.parametrize("name", sorted(DRIVERS))
def test_drivers_validate_once_whatever_the_work(name, monkeypatch):
    run, small, large, expected = DRIVERS[name]
    calls = []
    _count_checks(monkeypatch, calls)
    counts = []
    for size in (small, large):
        calls.clear()
        run(size)
        counts.append(len(calls))
    assert counts == [expected, expected]


def _count_checks(monkeypatch, calls):
    """Append x to calls at each require_point(p, x), wherever it is called from."""
    real = lyness.require_point

    def counting(p, x):
        calls.append(x)
        return real(p, x)

    # flow validates through lyness.float_point, so it needs no patch of its own
    for module in (lyness, invariants, dynamics, reduction, cli):
        monkeypatch.setattr(module, "require_point", counting)


# argv -> require_point calls per run; figure 1 runs two drivers, an orbit
# and a flow, and each checks its start
COMMANDS = {
    "orbit-float": (["orbit", "--k", "3", "--x0", "1,1,3", "--steps", "50"], 1),
    "orbit-exact": (["orbit", "--k", "3", "--x0", "1,1,3", "--steps", "50", "--exact"], 1),
    "flow": (["flow", "--k", "3", "--x0", "1,1,3", "--dt", "1e-2", "--t-max", "0.5"], 1),
    "reduce": (["reduce", "--k", "5", "--x0", "1,2,3,4,5", "--steps", "20"], 1),
    "figures-1": (["figures", "--which", "1", "--out", "OUT"], 2),
    "figures-2": (["figures", "--which", "2", "--out", "OUT"], 1),
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_commands_check_their_start_once(name, monkeypatch, tmp_path, capsys):
    argv, expected = COMMANDS[name]
    calls = []
    _count_checks(monkeypatch, calls)
    assert cli.main([str(tmp_path / "out.csv") if a == "OUT" else a for a in argv]) == 0
    capsys.readouterr()
    assert len(calls) == expected
