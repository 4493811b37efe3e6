"""Order reduction of the second iterate along level sets of the 2-integral.

For odd k the alternating 2-integral W is constant along orbits of F^2, so
on a level {W = 1/kappa} the second iterate factors through fewer variables.
Conventions (pinned by golden tests):

  k=3, reduced state (x, z) = coordinates (1, 3) of the full state:
      lift(x, z)    = (x, kappa (x+1)(z+1), z)
      step(x, z)    = (z, (a + kappa + z (kappa+1)) / (kappa x (z+1)))

  k=5, reduced state (x, y, z, s) = coordinates (1, 2, 3, 5):
      lift(x,y,z,s) = (x, y, z, kappa (x+1)(z+1)(s+1) / y, s)
      step(x,y,z,s) = (z, c (x+1) / y, s,
                       ((c (x+1) + b) (x+1) + y^2) / (x y^2))
      with c = kappa (s+1)(z+1) and b = y (a+s+z); the last numerator is
      c x^2 + (2c + b) x + c + y (z+s+a+y) in Horner form in x+1.

In both cases the reduced step equals the projection of F^2 applied to the
lifted point, exactly over the rationals; `replay` steps both sides in one
pass, and `semiconjugacy_residual` returns the largest deviation (zero when
the convention holds). The lifts and steps are `lyness.validated` kernels
whose check is that the reduced state lies in the orthant (`in_orthant`).
An exact replay runs the reduced step's exact form, traced with kappa as an
input (`_reduced_step`).
"""

from __future__ import annotations

import functools
import itertools
import operator
import types
from dataclasses import dataclass

from .errors import DimensionError, DomainError
from .invariants import eval_w
from .lyness import Params, in_orthant, orbit, require_point, validated
from .scalars import exact_kinds, fraction_of
from .tracing import traced


@dataclass(frozen=True)
class ReducedParams:
    """Parameter a >= 0 and level constant kappa = 1/W > 0 of the reduction."""

    a: object
    kappa: object

    def __post_init__(self):
        if not self.a >= 0:
            raise DomainError(f"parameter a must be >= 0, got {self.a}")
        if not self.kappa > 0:
            raise DomainError(f"kappa must be > 0, got {self.kappa}")


def _positive(_rp: ReducedParams, coords) -> tuple:
    coords = tuple(coords)
    if not in_orthant(coords):
        raise DomainError(f"reduced state must be positive and finite, got {', '.join(map(str, coords))}")
    return coords


@functools.partial(validated, check=_positive)
def lift_k3(rp: ReducedParams, xz) -> tuple:
    """Insert the middle coordinate so the lifted point sits on {W = 1/kappa}."""
    x, z = xz
    return (x, rp.kappa * (x + 1) * (z + 1), z)


@functools.partial(validated, check=_positive)
def reduced_step_k3(rp: ReducedParams, xz) -> tuple:
    x, z = xz
    return (z, (rp.a + rp.kappa + z * (rp.kappa + 1)) / (rp.kappa * x * (z + 1)))


def _c_k5(rp: ReducedParams, z, s):
    """c = kappa (s+1)(z+1), shared by the k=5 lift and step."""
    return rp.kappa * (s + 1) * (z + 1)


@functools.partial(validated, check=_positive)
def lift_k5(rp: ReducedParams, xyzs) -> tuple:
    """Insert the fourth coordinate so the lifted point sits on {W = 1/kappa}."""
    x, y, z, s = xyzs
    return (x, y, z, _c_k5(rp, z, s) * (x + 1) / y, s)


@functools.partial(validated, check=_positive)
def reduced_step_k5(rp: ReducedParams, xyzs) -> tuple:
    x, y, z, s = xyzs
    cx = _c_k5(rp, z, s) * (x + 1)
    b = y * (rp.a + s + z)
    return (z, cx / y, s, ((cx + b) * (x + 1) + y * y) / (x * y * y))


def project(p: Params, x) -> tuple:
    """Drop the eliminated coordinate: (1,3) of three, (1,2,3,5) of five."""
    if p.k == 3:
        return (x[0], x[2])
    if p.k == 5:
        return (x[0], x[1], x[2], x[4])
    raise DimensionError(f"order reduction covers k in {{3, 5}}, got k={p.k}")


def replay(p: Params, x0, n: int):
    """Yield (y_j, gap_j) for j = 0..n: the reduced orbit y_j of project(x0)
    with kappa = 1/W(x0), and its largest deviation from the projection of
    the F^2 orbit of x0 (zero over the rationals when the convention holds).
    The F^2 orbit, every second state of `orbit`, is the reference; a float
    one that leaves the domain raises DomainError after the rows it reached,
    so a short run is never taken for a whole one. Over exact a, x0 and
    kappa each reduced step runs as its exact form, each coordinate over its
    own denominator (no gcd), and each coordinate is confirmed against the
    projected F^2 state by one cross-multiplication (`fraction_of`): a match
    takes that state's coordinate, and only a mismatch is reduced (gcd).
    The gap is zero where every coordinate matches, else measured. k, n, x0
    and kappa are checked when `replay` is called, before the first row is
    asked for.
    """
    if p.k not in (3, 5):
        raise DimensionError(f"order reduction covers k in {{3, 5}}, got k={p.k}")
    if n < 0:
        raise ValueError(f"the number of double-steps must be >= 0, got {n}")
    x0 = require_point(p, x0)
    return _replay(p, ReducedParams(a=p.a, kappa=1 / eval_w.kernel(p, x0)), x0, n)


@traced
def _reduced_step(p, y, kappa):
    """The reduced step of y (two coordinates for k=3, four for k=5) on the
    level kappa, an input of its own, so that the exact form takes it as a
    rational pair."""
    advance = reduced_step_k3 if len(y) == 2 else reduced_step_k5
    return advance.kernel(types.SimpleNamespace(a=p.a, kappa=kappa), y)


def _replay(p: Params, rp: ReducedParams, x0: tuple, n: int):
    advance = (reduced_step_k3 if p.k == 3 else reduced_step_k5).kernel
    reduced = project(p, x0)
    exact = exact_kinds((p.a, rp.kappa, *x0))
    if exact:
        form = _reduced_step.exact_form(len(reduced), denominators=True, common=False)
        an, ad, kappa = p.a.numerator, p.a.denominator, (rp.kappa.numerator, rp.kappa.denominator)
    zero = reduced[0] - reduced[0]  # the gap of a match, in the states' type
    yield reduced, zero
    done = 0  # double-steps taken along the F^2 orbit
    for done, full in enumerate(itertools.islice(orbit.kernel(p, x0, 2 * n), 2, None, 2), 1):
        target = project(p, full)
        if exact:
            pairs = form(an, ad, tuple(c.denominator for c in reduced), tuple(c.numerator for c in reduced), kappa)
            image = tuple(map(fraction_of, pairs, target))
        else:
            image = advance(rp, reduced)
        if all(map(operator.eq, image, target)):
            reduced, gap = target, zero
        else:
            reduced = image
            gap = max(abs(r - f) for r, f in zip(reduced, target))
        yield reduced, gap
    if done < n:
        raise DomainError(f"the F^2 orbit left the domain after {done} of {n} double-steps")


def semiconjugacy_residual(p: Params, x0, n: int):
    """Max deviation over n steps between the reduced orbit and the projected
    F^2 orbit started at x0, with kappa = 1/W(x0). Exactly zero over rationals.
    """
    return max(gap for _reduced, gap in replay(p, x0, n))
