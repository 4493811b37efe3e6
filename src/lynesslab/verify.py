"""Exact verification suites: every algebraic identity the package asserts,
replayed over seeded random rational points and reported per suite.

`SUITES` is the one table of them: (name, n/a rule k -> None or note, traced
residual (p, x) -> tuple, or a scalar as its one value), and `run_suites` is
its one reader: a trial passes when every value is 0. Five suites hold a
public residual's traced `.kernel` itself, so the API and `verify` share one
traced kernel per k; twelve more are traced once per k under the suite's
name. Each inlines the kernels it calls by attribute as they are when
traced; integral annihilation is `annihilation_residual` for every integral
registered for k, and the tracer merges their repeated X(x) into one.
`det closed form` checks the closed form against a Laplace expansion of
DF(x) (`_det_expansion`), and `sign(Z) alternation` is ring arithmetic on
comparisons. All seventeen run as their exact form
(`tracing.compile_exact`): integer straight-line code in the numerators of
the point over their common denominator, which returns each value's
numerator, 0 exactly where the value is. Each suite draws its own
string-seeded RNG stream, so results do not depend on suite order, and draws
each point as those integers (`sampling.random_common_point`): no Fraction is
built.
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


def _det_expansion(rows):
    """The determinant of the square matrix rows by Laplace expansion along
    its first row: ring operations alone, so it traces, and blind to the
    matrix's shape. An entry that is the int 0 adds no term, so DF(x), whose
    shift rows hold one 1 each, takes k terms."""
    if not rows:
        return 1
    det = 0
    for j, entry in enumerate(rows[0]):
        if type(entry) is int and not entry:
            continue
        term = entry * _det_expansion([row[:j] + row[j + 1:] for row in rows[1:]])
        det = det - term if j % 2 else det + term
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
    """Z and W - W o F change sign under F, as ring arithmetic on comparisons:
    1 where Z and Z o F have one strict sign, and 1 where Z != 0 and
    W o F = W; 0 where each flips, and both 0 where Z = 0 (nothing to flip).
    The first is also 0 where Z != 0 and Z o F = 0, which the Z transform
    law rules out."""
    image = step.kernel(p, x)
    z, zi = eval_z.kernel(p, x), eval_z.kernel(p, image)
    w = eval_w.kernel(p, image) - eval_w.kernel(p, x)
    return ((zi > 0) * (z > 0) + (zi < 0) * (z < 0), ((z > 0) + (z < 0)) * (1 - (w > 0) - (w < 0)))


SUITES = (
    _suite("V1 invariance", _every,
           lambda p, x: eval_v1.kernel(p, step.kernel(p, x)) - eval_v1.kernel(p, x)),
    _suite("V2 invariance", _every,
           lambda p, x: eval_v2.kernel(p, step.kernel(p, x)) - eval_v2.kernel(p, x)),
    _suite("inverse round-trip", _every, lambda p, x: tuple(map(
        operator.sub,
        inverse_step.kernel(p, step.kernel(p, x)) + step.kernel(p, inverse_step.kernel(p, x)),
        x + x))),
    _suite("det closed form", _every,
           lambda p, x: _det_expansion(jacobian.kernel(p, x).rows) - jacobian_det.kernel(p, x)),
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
    _suite("sign(Z) alternation", _odd, _sign_alternation),
    ("density laws (F^2)", _odd, measure_density_residual.kernel),
)


def run_suites(k: int, a, trials: int, seed: int) -> list:
    """All applicable identity suites for one (k, a), k >= 3, with trials >= 1
    points each (both checked before any suite runs); exact arithmetic only:
    each point is drawn as integers over its common denominator D
    (`random_common_point`, positive by construction, so not validated)
    and checked over D by the suite's exact form, fetched once per suite."""
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
        form = residual.exact_form(k)
        failures = 0
        for _ in range(trials):
            d, n = random_common_point(rng, k)
            r = form(an, ad, d, n)
            if any(r if isinstance(r, tuple) else (r,)):
                failures += 1
        results.append(SuiteResult(name, k, p.a, trials, failures, FAIL if failures else OK))
    return results
