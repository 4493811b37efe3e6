"""The order-k Lyness recurrence map on the open positive orthant.

State x = (x1, ..., xk) with every coordinate positive and finite
(`in_orthant`), parameter a >= 0:

    F(x1, ..., xk) = (x2, ..., xk, (a + x2 + ... + xk) / x1)

F is birational with inverse

    F^-1(y1, ..., yk) = ((a + y1 + ... + y_{k-1}) / yk, y1, ..., y_{k-1})

and maps the orthant onto itself whenever a >= 0. The Jacobian is
companion-shaped (a coordinate shift stacked on one rational row), so

    det DF(x) = (-1)^k (a + x2 + ... + xk) / x1^2,

by cofactor expansion along the first column. (A superficially similar
closed form with numerator a + x2 + ... + x_{k-1} over xk^2 is wrong; it
already fails at k=3, x=(1,1,1), a=1 and breaks the multiplicative
transport law of the coordinate product. See the README math notes.)

All functions accept coordinates from any scalar backend (Fraction, float,
Dual) and stay inside it. Formulas are pure ring arithmetic; the domain is
checked once at the boundary: a `@validated` public function runs
`require_point` and then its kernel, which stays reachable as `.kernel` for
drivers that validated their start point already. Every float run enters
float64 through `float_point`, the one place that converts a and x0.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import DimensionError, DomainError
from .scalars import RatMatrix


@dataclass(frozen=True)
class Params:
    """Dimension k >= 2 and parameter a >= 0 of the recurrence."""

    k: int
    a: object = 0

    def __post_init__(self):
        if not isinstance(self.k, int) or self.k < 2:
            raise DimensionError(f"k must be an integer >= 2, got {self.k!r}")
        if not self.a >= 0:
            raise DomainError(f"parameter a must be >= 0, got {self.a}")


def in_orthant(x) -> bool:
    """The domain rule: every coordinate satisfies 0 < c < inf. Only a float
    can be infinite, so an exact coordinate (int, Fraction, Cleared) is
    compared with 0 alone: no comparison with a float, which `Cleared` does
    not support and which costs a `Fraction` several times more."""
    return all(0 < c < math.inf if isinstance(c, float) else 0 < c for c in x)


def require_point(p: Params, x) -> tuple:
    """Validate x as a point of the open positive orthant, return it as a tuple."""
    x = tuple(x)
    if len(x) != p.k:
        raise DimensionError(f"expected {p.k} coordinates, got {len(x)}")
    if not in_orthant(x):
        raise DomainError(f"point must have positive finite coordinates, got {', '.join(map(str, x))}")
    return x


def float_point(p: Params, x0) -> tuple:
    """(params, x0) with a and x0 in float64, the one entry of every float run:
    x0 is validated once with `require_point`, then a and x0 are converted
    once, so no kernel falls back from Fraction to float per operation. A value
    past the float64 range, or a coordinate that underflows to 0, is a DomainError."""
    x = require_point(p, x0)
    fp = float_params(p)
    try:
        x = tuple(map(float, x))
    except OverflowError:
        raise DomainError("x0 must lie within the float64 range") from None
    if not in_orthant(x):
        raise DomainError("x0 must be finite in float64 and must not underflow to 0")
    return fp, x


def float_params(p: Params) -> Params:
    """p with a in float64, as `float_point` converts it, also for float runs
    with no start point; an a past the float64 range is a DomainError."""
    try:
        a = float(p.a)
    except OverflowError:
        a = math.inf
    if not a < math.inf:
        raise DomainError("a must lie within the float64 range")
    return Params(p.k, a)


def validated(kernel, check=None):
    """Public form of a pure kernel f(p, x, ...): run check(p, x) once, by
    default `require_point` as bound when the public form is called (a check
    passed in is bound here), then f on the checked point."""

    @functools.wraps(kernel)
    def public(p, x, *args):
        return kernel(p, (check or require_point)(p, x), *args)

    public.kernel = kernel
    return public


@validated
def step(p: Params, x) -> tuple:
    return x[1:] + ((p.a + sum(x[1:])) / x[0],)


@validated
def inverse_step(p: Params, y) -> tuple:
    return ((p.a + sum(y[:-1])) / y[-1],) + y[:-1]


@validated
def orbit(p: Params, x, n: int):
    """Yield x and then each image under F (F^-1 for n < 0), |n| images in
    all. Stops early at the first state outside `in_orthant`: float overflow
    or underflow."""
    advance = step.kernel if n >= 0 else inverse_step.kernel
    yield x
    for _ in range(abs(n)):
        x = advance(p, x)
        if not in_orthant(x):
            return
        yield x


@dataclass
class OrbitTrace:
    """A contiguous stretch of an orbit: states[j+1] is the image of states[j]
    under F (n >= 0) or F^-1 (n < 0); indices track the signed step count."""

    params: Params
    indices: list
    states: list
    signatures: list = None
    truncated: bool = False
    note: str = ""


def iterate(p: Params, x0, n: int) -> OrbitTrace:
    """Orbit trace of up to |n|+1 states from x0; negative n walks the inverse
    map. A float orbit that overflows is truncated and flagged."""
    states = list(orbit(p, x0, n))
    truncated = len(states) <= abs(n)
    return OrbitTrace(
        params=p,
        indices=[j if n >= 0 else -j for j in range(len(states))],
        states=states,
        truncated=truncated,
        note="float overflow" if truncated else "",
    )


@validated
def jacobian(p: Params, x) -> RatMatrix:
    """DF(x): shift rows for coordinates 1..k-1, one rational row at the bottom."""
    zero = x[0] - x[0]
    one = zero + 1
    rows = []
    for i in range(p.k - 1):
        rows.append([one if j == i + 1 else zero for j in range(p.k)])
    last = [-(p.a + sum(x[1:])) / (x[0] * x[0])] + [one / x[0]] * (p.k - 1)
    rows.append(last)
    return RatMatrix(rows)


@validated
def jacobian_det(p: Params, x):
    """det DF(x) = (-1)^k (a + x2 + ... + xk) / x1^2 (cofactor closed form)."""
    val = (p.a + sum(x[1:])) / (x[0] * x[0])
    return val if p.k % 2 == 0 else -val


class FixedPoint(NamedTuple):
    point: tuple                # float coordinates (c, ..., c)
    quadratic: tuple            # exact coefficients of c^2 - (k-1) c - a = 0


def fixed_point(p: Params) -> FixedPoint:
    """The unique orthant fixed point: all coordinates equal the positive root
    of c^2 - (k-1) c - a = 0."""
    km1 = p.k - 1
    c = (km1 + math.sqrt(km1 * km1 + 4.0 * p.a)) / 2.0
    return FixedPoint(point=(c,) * p.k, quadratic=(1, -km1, -p.a))


def two_periodic_point(p: Params, x) -> tuple:
    """Point of the 2-periodic curve through parameter x (k=3: x>1, k=5: x>2).

    k=3: (x, (x+a)/(x-1), x); k=5: (x, (2x+a)/(x-2), x, (2x+a)/(x-2), x).
    At the fixed-point parameter value the curve passes through the fixed point.
    """
    if p.k == 3:
        if not x > 1:
            raise DomainError(f"k=3 curve needs x > 1, got {x}")
        y = (x + p.a) / (x - 1)
        return (x, y, x)
    if p.k == 5:
        if not x > 2:
            raise DomainError(f"k=5 curve needs x > 2, got {x}")
        y = (2 * x + p.a) / (x - 2)
        return (x, y, x, y, x)
    raise DimensionError(f"2-periodic curve is parametrized for k in {{3, 5}}, got k={p.k}")
