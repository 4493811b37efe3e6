"""Exact verification suites: every algebraic identity the package asserts,
replayed over seeded random rational points and reported per suite.

`SUITES` is the one table of them: (name, n/a rule k -> None or note,
residual (p, x) -> tuple, or a scalar as its one value), and `run_suites` is
its one reader: a trial passes when every value is 0. Five suites hold a
public residual's traced `.kernel` itself, so the API and `verify` share one
traced kernel per k; ten more are the difference of an identity's two
sides, traced once per k under the suite's name. Each inlines the kernels it
calls by attribute as they are when traced; integral annihilation is
`annihilation_residual` for every integral registered for k, and the tracer
merges their repeated X(x) into one. These fifteen run as their exact form
(`tracing.compile_exact`): integer straight-line code in the numerators of
the point over their common denominator, which returns each value's
numerator, 0 exactly where the value is. `det closed form` (its oracle
pivots on values) and `sign(Z) alternation` (it branches on a sign) are not
ring identities and run as written, on the point's common-denominator
`Cleared` image. Each suite draws its own string-seeded RNG stream, so
results do not depend on suite order, and draws each point as those
integers (`sampling.random_common_point`): no Fraction is built.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction

from .dynamics import measure_density_residual
from .errors import DimensionError
from .invariants import eval_pi, eval_v1, eval_v2, eval_v3, eval_w, eval_z
from .lyness import Params, inverse_step, jacobian, jacobian_det, step
from .sampling import random_common_point, stream
from .scalars import Cleared
from .symmetry import (
    ANNIHILATED,
    annihilation_residual,
    compatibility_residual,
    factorization_residual,
    lie_residual,
    shift_residuals,
)
from .tracing import traced

OK = "ok"
FAIL = "fail"
NA = "n/a"


@dataclass
class SuiteResult:
    name: str
    k: int
    a: Fraction
    trials: int
    failures: int
    status: str
    note: str = ""

    def line(self) -> str:
        if self.status == NA:
            return f"[k={self.k} a={self.a}] {self.name}: n/a {self.note}".rstrip()
        verdict = OK if self.failures == 0 else f"{self.failures} FAILED"
        return f"[k={self.k} a={self.a}] {self.name}: {self.trials - self.failures}/{self.trials} {verdict}"


def _det_gauss(matrix):
    """Independent determinant by exact Gaussian elimination (not Bareiss)."""
    rows = [list(r) for r in matrix.rows]
    n = len(rows)
    det = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if piv is None:
            return 0
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        det *= rows[col][col]
        inv = 1 / rows[col][col]
        for r in range(col + 1, n):
            factor = rows[r][col] * inv
            if factor == 0:
                continue
            for c in range(col, n):
                rows[r][c] -= factor * rows[col][c]
    return det


def _every(k):
    return None


def _odd(k):
    return None if k % 2 else "(even k)"


def _suite(name, na, residual):
    """A table entry whose residual, a lambda of its own, is traced under the suite's name."""
    residual.__qualname__ = name
    return name, na, traced(residual)


def _sign_alternation(p, x):
    """Z and W - W o F change sign under F: 0 where each flips and 1 where it
    does not; () where Z = 0 (nothing to flip)."""
    z = eval_z.kernel(p, x)
    if z == 0:
        return ()
    image = step.kernel(p, x)
    return int((eval_z.kernel(p, image) > 0) == (z > 0)), int(eval_w.kernel(p, image) == eval_w.kernel(p, x))


SUITES = (
    _suite("V1 invariance", _every,
           lambda p, x: eval_v1.kernel(p, step.kernel(p, x)) - eval_v1.kernel(p, x)),
    _suite("V2 invariance", _every,
           lambda p, x: eval_v2.kernel(p, step.kernel(p, x)) - eval_v2.kernel(p, x)),
    _suite("inverse round-trip", _every, lambda p, x: tuple(map(
        operator.sub,
        inverse_step.kernel(p, step.kernel(p, x)) + step.kernel(p, inverse_step.kernel(p, x)),
        x + x))),
    ("det closed form", _every,
     lambda p, x: _det_gauss(jacobian.kernel(p, x)) - jacobian_det.kernel(p, x)),
    ("symmetry condition", _every, lie_residual.kernel),
    ("shift law", _every, shift_residuals.kernel),
    ("compatibility identity", _every, compatibility_residual.kernel),
    _suite("integral annihilation",
           lambda k: None if any(j == k for j, _ in ANNIHILATED) else "(registered for k in 3..5)",
           lambda p, x: tuple(annihilation_residual.kernel(p, x, name)
                              for k, name in ANNIHILATED if k == p.k)),
    ("sum factorization", lambda k: None if k >= 6 else "(needs k >= 6)",
     factorization_residual.kernel),
    _suite("W 2-integral", _odd,
           lambda p, x: eval_w.kernel(p, step.kernel(p, step.kernel(p, x))) - eval_w.kernel(p, x)),
    _suite("V3 invariance", _odd,
           lambda p, x: eval_v3.kernel(p, step.kernel(p, x)) - eval_v3.kernel(p, x)),
    _suite("V3 = W + W o F", _odd, lambda p, x: (
        eval_v3.kernel(p, x) - (eval_w.kernel(p, x) + eval_w.kernel(p, step.kernel(p, x))))),
    _suite("V1 = W * (W o F)", _odd, lambda p, x: (
        eval_v1.kernel(p, x) - eval_w.kernel(p, x) * eval_w.kernel(p, step.kernel(p, x)))),
    _suite("Z transform law", _odd, lambda p, x: (
        eval_z.kernel(p, step.kernel(p, x)) - jacobian_det.kernel(p, x) * eval_z.kernel(p, x))),
    _suite("product transform law", _odd, lambda p, x: (
        eval_pi.kernel(p, step.kernel(p, x)) + jacobian_det.kernel(p, x) * eval_pi.kernel(p, x))),
    ("sign(Z) alternation", _odd, _sign_alternation),
    ("density laws (F^2)", _odd, measure_density_residual.kernel),
)


def run_suites(k: int, a, trials: int, seed: int) -> list:
    """All applicable identity suites for one (k, a), k >= 3, with trials >= 1
    points each (both checked before any suite runs); exact arithmetic only:
    each point is drawn as integers over its common denominator D
    (`random_common_point`, positive by construction, so not validated)
    and checked over D: by a traced residual's exact form, fetched
    once per suite, or on the point's `Cleared.over` image."""
    if k < 3:
        raise DimensionError(f"verification suites need k >= 3, got k={k}")
    p = Params(k, Fraction(a))
    if trials < 1:
        raise ValueError(f"the number of trials must be >= 1, got {trials}")
    an, ad = p.a.numerator, p.a.denominator
    results = []
    for name, na, residual in SUITES:
        note = na(k)
        if note is not None:
            results.append(SuiteResult(name, k, p.a, 0, 0, NA, note))
            continue
        rng = stream(f"{seed}|k={k}|a={p.a}|{name}", seed)
        form = residual.exact_form(k) if hasattr(residual, "exact_form") else None
        failures = 0
        for _ in range(trials):
            d, n = random_common_point(rng, k)
            r = form(an, ad, d, n) if form else residual(p, Cleared.over(d, n))
            if not all(v == 0 for v in (r if isinstance(r, tuple) else (r,))):
                failures += 1
        results.append(SuiteResult(name, k, p.a, trials, failures, FAIL if failures else OK))
    return results
