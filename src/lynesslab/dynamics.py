"""Orbit-level diagnostics: signatures, points of the separating surface
{Z = 0} along a template (one kernel pass over `scalars.Poly`), densities,
level profiles along the 2-periodic curve, and a rotation-number estimator.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DegenerateOrbitError, DimensionError, DomainError, NoRootError
from .invariants import eval_pi, eval_v1, eval_v2, eval_v3, eval_z, orbit_levels
from .lyness import (
    OrbitTrace, Params, float_params, float_point, in_orthant, iterate, jacobian_det, orbit,
    require_point, step, two_periodic_point, validated,
)
from .scalars import Poly
from .tracing import traced


def orbit_signature(p: Params, x0, n: int) -> OrbitTrace:
    """Orbit trace with per-state invariant levels by `orbit_levels`: an exact
    orbit carries x0's levels and raises VerificationError if its last state
    is off them. A float orbit computes each state's and ends, flagged
    `truncated`, before its first state outside the orthant or whose levels
    overflow float64 (a start whose own levels overflow keeps no state)."""
    trace = iterate(p, x0, n)
    trace.signatures = [sig for _, sig in orbit_levels(p, trace.states)]
    if len(trace.signatures) < len(trace.states):  # the levels ended first
        del trace.states[len(trace.signatures) :], trace.indices[len(trace.signatures) :]
        trace.truncated, trace.note = True, "float overflow"
    return trace


@dataclass(frozen=True)
class GPoint:
    """A point of the invariant surface {Z = 0} with its defect and the defect
    of its image (the surface is invariant, so both should vanish)."""

    point: tuple
    residual: object
    image_residual: object


def _poly_eval(coeffs, t):
    acc = coeffs[-1] * 0
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def _perfect_square(q: Fraction):
    if q < 0:
        return None
    rn, rd = math.isqrt(q.numerator), math.isqrt(q.denominator)
    return Fraction(rn, rd) if rn * rn == q.numerator and rd * rd == q.denominator else None


def sample_g_point(p: Params, template) -> GPoint:
    """Solve Z = 0 along a template: None entries all bind to one unknown t.

    Z's coefficients in t come from one kernel pass with t a `scalars.Poly`.
    Z in t has degree >= 2. A rational root of a quadratic Z with exact
    coefficients (square discriminant) comes back exact with residual 0;
    otherwise the smallest positive root is found on a rational grid in
    (0, 1e6): a root on the grid comes back as it is, exact for exact
    coefficients, and one between two grid points of opposite sign is
    bisected and Newton-polished in float64 with |Z| <= 1e-12 demanded. No
    positive root in range raises NoRootError.
    """
    if p.k % 2 == 0:
        raise DimensionError("the separating surface lives in odd dimensions")
    template = tuple(template)
    if len(template) != p.k:
        raise DimensionError(f"template must have {p.k} entries")
    if None not in template:
        raise ValueError("template needs at least one None entry to solve for")
    if not in_orthant(v for v in template if v is not None):
        raise DomainError("fixed template coordinates must be positive and finite")

    def filled(t):
        return tuple(t if v is None else v for v in template)

    coeffs = eval_z.kernel(p, filled(Poly((0, 1)))).coeffs  # Z as a polynomial in t
    root = _exact_root(coeffs, len(coeffs) - 1)
    return _float_root(p, coeffs, filled) if root is None else _g_point(p, filled(root))


def _exact_root(coeffs, degree):
    if degree != 2 or any(isinstance(c, float) for c in coeffs):
        return None
    c0, c1, c2 = coeffs
    sq = _perfect_square(c1 * c1 - 4 * c2 * c0)
    roots = () if sq is None else ((-c1 - sq) / (2 * c2), (-c1 + sq) / (2 * c2))
    return min((r for r in roots if r > 0), default=None)


def _float_root(p, coeffs, filled):
    # exact-sign bracketing on a per-decade rational grid in (0, 1e6)
    grid = [Fraction(10) ** e * j for e in range(-6, 6) for j in range(1, 10)] + [Fraction(10) ** 6]
    signs = [(t, _poly_eval(coeffs, t)) for t in grid]
    for (t0, v0), (t1, v1) in zip(signs, signs[1:] + signs[-1:]):  # the last pairs with itself
        if v0 == 0:  # a root on the grid, in float for float coefficients
            return _g_point(p, filled(float(t0) if isinstance(v0, float) else t0))
        if v0 < 0 < v1 or v1 < 0 < v0:  # strict: a zero at t1 is met exact as the next t0
            break
    else:
        raise NoRootError("no sign change of Z on the template within (0, 1e6)")

    fc = [float(c) for c in coeffs]
    dfc = [float(c * (i + 1)) for i, c in enumerate(coeffs[1:])]
    root = _bisect(lambda t: _poly_eval(fc, t), float(t0), float(t1), 0.0)
    for _ in range(4):  # Newton polish on Z's coefficients in float64
        d = _poly_eval(dfc, root)
        if d == 0.0:
            break
        root -= _poly_eval(fc, root) / d
    # the float point is new: the conversion or Newton may leave the orthant
    found = _g_point(p, require_point(p, map(float, filled(root))))
    if not found.residual <= 1e-12:
        raise NoRootError(f"could not refine the root below 1e-12 (|Z| = {found.residual:.3e})")
    return found


def _bisect(g, lo, hi, tol):
    """Bisect g on [lo, hi], where g changes sign, keeping the half whose ends
    differ in sign; the first midpoint with |g| <= tol, or the last one."""
    lo_negative = g(lo) < 0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        g_mid = g(mid)
        if abs(g_mid) <= tol:
            return mid
        if (g_mid < 0) == lo_negative:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _g_point(p, point):
    """GPoint of a point in the orthant: a positive root on a checked template."""
    return GPoint(
        point=point,
        residual=abs(eval_z.kernel(p, point)),
        image_residual=abs(eval_z.kernel(p, step.kernel(p, point))),
    )


@dataclass(frozen=True)
class OddPeriodVerdict:
    """Outcome of the parity obstruction: off {Z = 0} no odd period can exist
    (certified without iteration); on it, brute-force search reports findings."""

    z_value: object
    certified_no_odd_period: bool
    odd_period: int = None
    checked_up_to: int = 0


def odd_period_guard(p: Params, x, max_odd_period: int) -> OddPeriodVerdict:
    """Certify odd-period exclusion via sign(Z), or search {Z=0} exactly."""
    x = require_point(p, x)
    if not all(isinstance(c, (int, Fraction)) for c in x):
        raise TypeError("certification needs exact rational coordinates")
    z = eval_z.kernel(p, x)
    if z != 0:
        return OddPeriodVerdict(z_value=z, certified_no_odd_period=True)
    for m, current in enumerate(orbit.kernel(p, x, max_odd_period)):
        if m % 2 == 1 and current == x:
            return OddPeriodVerdict(
                z_value=z, certified_no_odd_period=False, odd_period=m, checked_up_to=m
            )
    return OddPeriodVerdict(
        z_value=z, certified_no_odd_period=False, checked_up_to=max_odd_period
    )


@validated
@traced
def measure_density_residual(p: Params, x):
    """Residual pair of the invariance laws of the second iterate's densities:
    (pi o F^2 - det DF^2 * pi, Z o F^2 - det DF^2 * Z); both exactly zero."""
    if p.k % 2 == 0:
        raise DimensionError("density laws are stated in odd dimensions")
    x1 = step.kernel(p, x)
    x2 = step.kernel(p, x1)
    det2 = jacobian_det.kernel(p, x1) * jacobian_det.kernel(p, x)
    return (
        eval_pi.kernel(p, x2) - det2 * eval_pi.kernel(p, x),
        eval_z.kernel(p, x2) - det2 * eval_z.kernel(p, x),
    )


def v_profile(p: Params, x) -> tuple:
    """(V1, V2, V3) along the k=5 2-periodic curve at parameter x > 2."""
    if p.k != 5:
        raise DimensionError("the curve profile is defined for k=5")
    pt = require_point(p, two_periodic_point(p, x))  # x > 2 alone admits x = inf
    return (eval_v1.kernel(p, pt), eval_v2.kernel(p, pt), eval_v3.kernel(p, pt))


def _v1_on_curve(p: Params, x):
    """V1 at the k=5 curve point of parameter x, in x's backend (float or Fraction)."""
    return eval_v1.kernel(p, two_periodic_point(p, x))


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_V1_MIN_BRACKET = (2.0 + 1e-6, 100.0)
_V1_MIN_TOL = 1e-10


def v1_minimum(p: Params) -> float:
    """Golden-section minimizer of V1 along the k=5 curve; the profile is
    unimodal on (2, inf) (it blows up at both ends). Probes are floats, the
    values exact, so comparisons near the flat minimum stay exact."""
    if p.k != 5:
        raise DimensionError("the curve profile is defined for k=5")
    a, b = _V1_MIN_BRACKET
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = _v1_on_curve(p, Fraction(c)), _v1_on_curve(p, Fraction(d))
    while b - a > _V1_MIN_TOL:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = _v1_on_curve(p, Fraction(c))
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = _v1_on_curve(p, Fraction(d))
    return 0.5 * (a + b)


def solve_v1_level(p: Params, h: float) -> tuple:
    """The two curve parameters x- < x+ with V1(x) = h, one on each side of
    the minimum; requires h strictly above the minimum level."""
    if p.k != 5:
        raise DimensionError("the curve profile is defined for k=5")
    p, h = float_params(p), float(h)
    xmin = 2.0 + math.sqrt(4.0 + p.a)
    vmin = _v1_on_curve(p, xmin)
    if not h > vmin * (1 + 1e-12):
        raise NoRootError(f"level {h} does not exceed the curve minimum {vmin}")

    def gap(x):
        return _v1_on_curve(p, x) - h

    lo = 2.0 + 1e-9
    while gap(lo) < 0:
        lo = 2.0 + (lo - 2.0) / 1e3
        if lo - 2.0 < 1e-300:
            raise NoRootError("level too high to bracket against the x->2 blow-up")
    left = _bisect(gap, lo, xmin, 1e-12 * h)

    hi = xmin + 1.0
    while gap(hi) < 0:
        hi = 2.0 + (hi - 2.0) * 2.0
        if hi > 1e12:
            raise NoRootError("level too high to bracket on the right branch")
    right = _bisect(gap, xmin, hi, 1e-12 * h)
    return (left, right)


def rotation_number(p: Params, x0, n: int) -> float:
    """Average angular advance of the second-iterate orbit, measured in the
    centroid-centered principal plane; returns a value in (0, 1).

    The estimator is float64: build n states of the F^2 orbit, fit the best
    plane by SVD, wrap consecutive angle steps to (-pi, pi], and average the
    magnitude of the winding. Reading the circle in the opposite orientation
    turns an advance rho into 1 - rho, and the fitted plane carries no
    preferred orientation, so the orientation-free representative in (0, 1/2]
    is reported. Orbits with collapsed spread (fixed point, 2-periodic curve)
    raise DegenerateOrbitError.
    """
    if p.k != 3:
        raise DimensionError("the rotation-number estimator is wired for k=3")
    if n < 10:
        raise ValueError("need at least 10 samples")
    import numpy as np

    states = orbit.kernel(*float_point(p, x0), 2 * (n - 1))
    pts = np.array(list(itertools.islice(states, None, None, 2)))  # the F^2 orbit
    if len(pts) < n:
        raise DomainError("the float orbit left the domain before n samples")
    centered = pts - pts.mean(axis=0)
    _u, svals, vt = np.linalg.svd(centered, full_matrices=False)
    scale = float(svals[0])
    if scale <= 1e-9 or float(svals[1]) <= 1e-9 * scale:
        raise DegenerateOrbitError("orbit spread is too degenerate for a plane fit")
    theta = np.arctan2(centered @ vt[1], centered @ vt[0])
    dtheta = np.diff(theta)
    dtheta = (dtheta + np.pi) % (2.0 * np.pi) - np.pi
    return abs(float(dtheta.sum())) / (2.0 * np.pi * (n - 1))
