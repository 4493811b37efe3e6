"""Exact verification suites: every algebraic identity the package asserts,
replayed over seeded random rational points and reported per suite.

Each suite draws its own deterministic RNG stream (string-seeded, immune to
hash randomization), so suites could shard across workers without changing
results; they run sequentially here because the work is pure bigint math.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .dynamics import measure_density_residual
from .errors import DimensionError
from .invariants import eval_pi, eval_v1, eval_v2, eval_v3, eval_w, eval_z
from .lyness import Params, inverse_step, jacobian, jacobian_det, require_point, step
from .sampling import random_point, stream
from .scalars import Cleared, jvp
from .symmetry import (
    ANNIHILATED,
    compatibility_residual,
    factorization_residual,
    lie_residual,
    symmetry_vector,
)

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


def _checks_for(p: Params):
    """(name, n/a note, point-check) triples; each check returns True on pass,
    and the note is None where the suite applies to k. Checks take a point
    `run_suites` validated already, so they call kernels."""
    odd_only = None if p.k % 2 else "(even k)"
    F, F_inv, det = step.kernel, inverse_step.kernel, jacobian_det.kernel
    v1, v2, v3 = eval_v1.kernel, eval_v2.kernel, eval_v3.kernel
    w, z_of, pi = eval_w.kernel, eval_z.kernel, eval_pi.kernel
    field = symmetry_vector.kernel
    integrals = [fn.kernel for (k, _), fn in ANNIHILATED.items() if k == p.k]

    def v1_invariant(x):
        return v1(p, F(p, x)) == v1(p, x)

    def v2_invariant(x):
        return v2(p, F(p, x)) == v2(p, x)

    def inverse_round_trip(x):
        return F_inv(p, F(p, x)) == x and F(p, F_inv(p, x)) == x

    def det_closed_form(x):
        return _det_gauss(jacobian.kernel(p, x)) == det(p, x)

    def w_two_integral(x):
        return w(p, F(p, F(p, x))) == w(p, x)

    def v3_invariant(x):
        return v3(p, F(p, x)) == v3(p, x)

    def v3_is_w_sum(x):
        return v3(p, x) == w(p, x) + w(p, F(p, x))

    def v1_is_w_product(x):
        return v1(p, x) == w(p, x) * w(p, F(p, x))

    def z_transform(x):
        return z_of(p, F(p, x)) == det(p, x) * z_of(p, x)

    def pi_transform(x):
        return pi(p, F(p, x)) == -det(p, x) * pi(p, x)

    def sign_alternation(x):
        z = z_of(p, x)
        if z == 0:
            return True  # measure-zero template; nothing to flip
        zf = z_of(p, F(p, x))
        return (z > 0) != (zf > 0) and w(p, x) != w(p, F(p, x))

    def density_laws(x):
        r1, r2 = measure_density_residual.kernel(p, x)
        return r1 == 0 and r2 == 0

    def lie(x):
        return all(r == 0 for r in lie_residual.kernel(p, x))

    def shifts(x):
        # X_{i+1}(x) == X_i(F(x)) for all i, from one X(x) and one X(F(x))
        here, there = field(p, x), field(p, F(p, x))
        return here[1:] == there[:-1]

    def compatibility(x):
        return compatibility_residual.kernel(p, x) == 0

    def annihilations(x):
        here = field(p, x)
        return all(jvp(lambda pt: v(p, pt), x, here) == 0 for v in integrals)

    def factorization(x):
        return factorization_residual.kernel(p, x) == 0

    return [
        ("V1 invariance", None, v1_invariant),
        ("V2 invariance", None, v2_invariant),
        ("inverse round-trip", None, inverse_round_trip),
        ("det closed form", None, det_closed_form),
        ("symmetry condition", None, lie),
        ("shift law", None, shifts),
        ("compatibility identity", None, compatibility),
        ("integral annihilation", None if integrals else "(registered for k in 3..5)",
         annihilations),
        ("sum factorization", None if p.k >= 6 else "(needs k >= 6)", factorization),
        ("W 2-integral", odd_only, w_two_integral),
        ("V3 invariance", odd_only, v3_invariant),
        ("V3 = W + W o F", odd_only, v3_is_w_sum),
        ("V1 = W * (W o F)", odd_only, v1_is_w_product),
        ("Z transform law", odd_only, z_transform),
        ("product transform law", odd_only, pi_transform),
        ("sign(Z) alternation", odd_only, sign_alternation),
        ("density laws (F^2)", odd_only, density_laws),
    ]


def run_suites(k: int, a, trials: int, seed: int) -> list:
    """All applicable identity suites for one (k, a), k >= 3, with trials >= 1
    points each (both checked before any suite runs); exact arithmetic only:
    each point is drawn as Fractions, validated, and checked on its
    common-denominator Cleared image (`Cleared.common`)."""
    p = Params(k, Fraction(a))
    if k < 3:
        raise DimensionError(f"verification suites need k >= 3, got k={k}")
    if trials < 1:
        raise ValueError(f"the number of trials must be >= 1, got {trials}")
    results = []
    for name, na_note, check in _checks_for(p):
        if na_note is not None:
            results.append(
                SuiteResult(name=name, k=k, a=p.a, trials=0, failures=0, status=NA, note=na_note)
            )
            continue
        rng = stream(f"{seed}|k={k}|a={p.a}|{name}", seed)
        failures = 0
        for _ in range(trials):
            x = Cleared.common(require_point(p, random_point(rng, k)))
            if not check(x):
                failures += 1
        results.append(
            SuiteResult(
                name=name,
                k=k,
                a=p.a,
                trials=trials,
                failures=failures,
                status=OK if failures == 0 else FAIL,
            )
        )
    return results

