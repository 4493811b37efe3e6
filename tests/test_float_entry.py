"""Float runs enter float64 once, through `lyness.float_point`: the library
drivers compute with a and x0 in float64 whatever scalars they are given,
and exact input outside the float64 range is a DomainError."""

import math
from fractions import Fraction

import pytest

from lynesslab import dynamics, flow, lyness, symmetry
from lynesslab.dynamics import rotation_number, solve_v1_level
from lynesslab.errors import DimensionError, DomainError
from lynesslab.flow import METHODS, integrate_flow, transport_diagnostic
from lynesslab.lyness import Params, float_params, float_point

# name -> (run(a), owner, attribute): the kernel the run calls is owner.attribute,
# or with an int attribute k, traced kernel owner's compiled function at k, which
# the drivers call directly; compiled RK4 calls the field only when traced, so
# its spy is the whole step
DRIVERS = {
    "rk4": (
        lambda a: integrate_flow(Params(4, a), (1, 2, 3, 4), 1e-2, 0.5, method=METHODS[0]),
        flow._rk4_stages, 4,
    ),
    "rk45": (
        lambda a: integrate_flow(Params(5, a), (1, 2, 3, 4, 5), 1e-2, 0.5, method=METHODS[1]),
        symmetry.symmetry_vector, "kernel",
    ),
    "transport-field": (
        lambda a: transport_diagnostic(Params(4, a), (1, 2, 3, 4), 0.2, 5),
        flow._rk4_stages, 4,
    ),
    "transport-step": (
        lambda a: transport_diagnostic(Params(4, a), (1, 2, 3, 4), 0.2, 5),
        lyness.step, "kernel",
    ),
    "rotation": (lambda a: rotation_number(Params(3, a), (1, 1, 3), 500), lyness.step.kernel, 3),
}


def _hex(value):
    """float.hex of every float in a nested result, other leaves as they are."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return [_hex(v) for v in value]
    if hasattr(value, "v1"):  # LevelSignature
        return _hex([value.v1, value.v2, value.v3, value.z_sign])
    return value


def _result(run, a):
    out = run(a)
    if hasattr(out, "states"):  # FlowTrace
        return _hex([out.times, out.states, out.signatures, out.boundary_hit])
    if hasattr(out, "distances"):  # TransportReport
        return _hex([out.distances, out.source_distances, out.curve_scale,
                     out.base_truncated, out.image_truncated])
    return _hex(out)


@pytest.mark.parametrize("name", sorted(DRIVERS))
def test_float_drivers_compute_with_a_in_float64(name, monkeypatch):
    run, owner, attribute = DRIVERS[name]
    seen = []
    real = owner.at(attribute) if type(attribute) is int else getattr(owner, attribute)

    def spy(p, x, *rest):
        seen.append((type(p.a), all(isinstance(c, float) for c in x)))
        return real(p, x, *rest)

    if type(attribute) is int:
        monkeypatch.setitem(owner.compiled, attribute, spy)
    else:
        monkeypatch.setattr(owner, attribute, spy)
    run(Fraction(7, 10))
    assert seen
    assert set(seen) == {(float, True)}


@pytest.mark.parametrize("name", sorted(DRIVERS))
def test_an_exact_a_gives_the_bits_of_its_float(name):
    run = DRIVERS[name][0]
    assert _result(run, Fraction(7, 10)) == _result(run, 0.7)


def test_float_point_converts_once_and_keeps_k():
    fp, x = float_point(Params(3, Fraction(1, 3)), (Fraction(1, 3), 2, 0.5))
    assert fp == Params(3, 1 / 3)
    assert x == (1 / 3, 2.0, 0.5)
    assert [type(c) for c in x] == [float] * 3


@pytest.mark.parametrize(
    "a, x0, error",
    [
        (1, (1, 2), DimensionError),
        (1, (1, 0, 1), DomainError),
        (10**400, (1, 1, 1), DomainError),
        (1, (10**400, 1, 1), DomainError),
        (1, (Fraction(1, 10**400), 1, 1), DomainError),
        (math.inf, (1, 1, 1), DomainError),
        (1, (1, math.inf, 1), DomainError),
        (1, (1e-200, 1, 1e-200), DomainError),
    ],
    ids=["short", "zero", "a-overflow", "x0-overflow", "x0-underflow", "a-inf", "x0-inf",
         "x0-product-underflow"],
)
def test_float_point_refuses_points_outside_float64(a, x0, error):
    with pytest.raises(error):
        float_point(Params(3, a), x0)


@pytest.mark.parametrize(
    "run",
    [
        lambda p, x0: integrate_flow(p, x0, 1e-3, 1e-2),
        lambda p, x0: integrate_flow(p, x0, 1e-3, 1e-2, method=METHODS[1]),
        lambda p, x0: transport_diagnostic(p, x0, 1e-2, 2),
    ],
    ids=["rk4", "rk45", "transport"],
)
@pytest.mark.parametrize(
    "a, x0",
    [
        (1, (Fraction(1, 10**400), 1, 1)),
        (1, (10**400, 1, 1)),
        (10**400, (1, 1, 1)),
    ],
    ids=["x0-underflow", "x0-overflow", "a-overflow"],
)
def test_exact_input_outside_float64_is_a_domain_error(run, a, x0):
    with pytest.raises(DomainError):
        run(Params(3, a), x0)


def test_solve_v1_level_computes_with_a_in_float64(monkeypatch):
    seen = []
    real = dynamics.eval_v1.kernel

    def spy(p, x):
        seen.append((type(p.a), all(isinstance(c, float) for c in x)))
        return real(p, x)

    # the curve tools call the V1 kernel on points of the checked curve
    monkeypatch.setattr(dynamics.eval_v1, "kernel", spy)
    solve_v1_level(Params(5, Fraction(7, 10)), 200.0)
    assert seen
    assert set(seen) == {(float, True)}


@pytest.mark.parametrize("a", [0, Fraction(7, 10), Fraction(1, 3), 4],
                         ids=["0", "7/10", "1/3", "4"])
def test_solve_v1_level_gives_the_roots_of_a_in_float64(a):
    for h in (80.0, 200.0, 1e6):
        roots = solve_v1_level(Params(5, a), h)
        twin = solve_v1_level(Params(5, float(a)), h)
        assert [r.hex() for r in roots] == [r.hex() for r in twin]


def test_float_params_converts_a_alone():
    assert float_params(Params(5, Fraction(1, 3))) == Params(5, 1 / 3)
    for a in (10**400, math.inf):
        with pytest.raises(DomainError):
            float_params(Params(5, a))
        with pytest.raises(DomainError):
            solve_v1_level(Params(5, a), 200.0)
