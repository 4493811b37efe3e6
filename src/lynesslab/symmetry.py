"""The Lie symmetry field of the recurrence and its exact residual checks.

With L_i = 1 + x_i + x_{i+1} (1 <= i <= k-1), the field X = (X_1, ..., X_k)
on the open positive orthant is

    X_1 = (x1+1) [prod_{i=2..k-1} L_i] (a + x1+...+x_{k-1} - x2 xk) / prod_{i=2..k} x_i
    X_m = (xm+1) [prod_{i in 1..k-1, i != m-1, m} L_i]
          (a + x1+...+xk + x1 xk) (x_{m-1} - x_{m+1}) / prod_{i != m} x_i
                                                          for 2 <= m <= k-1
    X_k = -(xk+1) [prod_{i=1..k-2} L_i] (a + x2+...+xk - x1 x_{k-1}) / prod_{i<k} x_i

`symmetry_vector` writes each component as its formula: every product is
`math.prod` over its own slice, left to right, and every sum is `fold`. A
product or sum that several components share (S, a prefix of the L_i or of
the x_i) is computed once by the tracer (`tracing.traced`), not by hand.

It satisfies the symmetry condition X(F(x)) = DF(x) X(x) componentwise over
the rationals, which is equivalent to the pair:

  * shift law: X_{i+1} = X_i o F for 1 <= i <= k-1, and
  * compatibility: X_k o F = -((a + x2+...+xk)/x1^2) X_1 + (1/x1) sum_{i>=2} X_i.

The compatibility identity reduces (for k >= 6) to a product factorization of
the weighted shift-difference sum

    C = sum_{m=2..k-1} x_m (x_m + 1) (x_{m-1} - x_{m+1}) M_m
      = L_2 L_3 [prod_{i=4..k-2} L_i] (x1 x2 L_{k-1} - x_{k-1} xk L_1),

with M_m = prod_{i in 1..k-1, i != m-1, m} L_i; `factorization_residual`
checks it directly. All residuals are exact zeros over rational inputs.
"""

from __future__ import annotations

import math

from .errors import DimensionError
from .invariants import eval_v1, eval_v2, eval_v3
from .lyness import Params, step, validated
from .scalars import Dual, fold, jvp
from .tracing import traced


def _links(x) -> list:
    """[L_1, ..., L_{k-1}] with L_i = 1 + x_i + x_{i+1}."""
    return [1 + x[i] + x[i + 1] for i in range(len(x) - 1)]


@validated
@traced
def symmetry_vector(p: Params, x) -> tuple:
    """X(x) by the formulas above, exact over rational coordinates. Defined for k >= 3."""
    if p.k < 3:
        raise DimensionError(f"the symmetry field needs k >= 3, got k={p.k}")
    k, a = p.k, p.a
    links = _links(x)
    middle = a + fold(x) + x[0] * x[k - 1]
    first = (
        (x[0] + 1) * math.prod(links[1:]) * (a + fold(x[: k - 1]) - x[1] * x[k - 1])
        / math.prod(x[1:])
    )
    middles = tuple(
        (x[m] + 1) * math.prod(links[: m - 1] + links[m + 1 :]) * middle * (x[m - 1] - x[m + 1])
        / math.prod(x[:m] + x[m + 1 :])
        for m in range(1, k - 1)
    )
    last = (
        -(x[k - 1] + 1) * math.prod(links[: k - 2]) * (a + fold(x[1:]) - x[0] * x[k - 2])
        / math.prod(x[: k - 1])
    )
    return (first, *middles, last)


@validated
@traced
def lie_residual(p: Params, x) -> tuple:
    """Componentwise X(F(x)) - DF(x) X(x); the zero tuple iff the symmetry holds.
    DF(x) X(x) is the derivative part of F on the duals x + X(x) eps."""
    image = symmetry_vector.kernel(p, step.kernel(p, x))
    pushed = step.kernel(p, tuple(map(Dual, x, symmetry_vector.kernel(p, x))))
    return tuple(im - pu.deriv for im, pu in zip(image, pushed))


@validated
@traced
def shift_residuals(p: Params, x) -> tuple:
    """The shift law's k-1 differences X_{i+1}(x) - X_i(F(x)), X(x) evaluated first."""
    here, image = symmetry_vector.kernel(p, x), symmetry_vector.kernel(p, step.kernel(p, x))
    return tuple(u - v for u, v in zip(here[1:], image[:-1]))


@validated
def shift_residual(p: Params, x, i: int):
    """X_{i+1}(x) - X_i(F(x)) for 1-based 1 <= i <= k-1: entry i-1 of
    `shift_residuals`, which it computes whole, with both field evaluations. A
    caller that wants every i calls `shift_residuals` once: looping over i
    here pays 2(k-1) field evaluations where that pays 2."""
    if not 1 <= i <= p.k - 1:
        raise DimensionError(f"shift index must satisfy 1 <= i <= k-1, got {i}")
    return shift_residuals.kernel(p, x)[i - 1]


@validated
@traced
def compatibility_residual(p: Params, x):
    """X_k(F(x)) + ((a + x2+...+xk)/x1^2) X_1(x) - (1/x1) sum_{i>=2} X_i(x)."""
    here = symmetry_vector.kernel(p, x)
    image_last = symmetry_vector.kernel(p, step.kernel(p, x))[-1]
    return image_last + (p.a + fold(x[1:])) / (x[0] * x[0]) * here[0] - fold(here[1:]) / x[0]


ANNIHILATED = {
    (3, "V1"): eval_v1,
    (3, "V2"): eval_v2,
    (4, "V1"): eval_v1,
    (4, "V2"): eval_v2,
    (5, "V1"): eval_v1,
    (5, "V2"): eval_v2,
    (5, "V3"): eval_v3,
}


@validated
def annihilation_residual(p: Params, x, which: str):
    """grad V . X at x (one dual pass of V along X), for the (k, integral)
    pairs where it vanishes identically.

    Supported pairs: k=3 and k=4 with V1 or V2, k=5 with V1, V2 or V3.
    """
    key = (p.k, str(which).upper())
    fn = ANNIHILATED.get(key)
    if fn is None:
        raise DimensionError(f"no annihilation identity registered for {key}")
    return jvp(lambda pt: fn.kernel(p, pt), x, symmetry_vector.kernel(p, x))


@validated
@traced
def factorization_residual(p: Params, x):
    """Residual of the product factorization of the weighted shift-difference
    sum (k >= 6); exactly zero over the rationals."""
    if p.k < 6:
        raise DimensionError(f"the factorization identity needs k >= 6, got k={p.k}")
    k = p.k
    links = _links(x)
    acc = x[0] - x[0]  # zero of the working field
    for i in range(1, k - 1):  # 0-based middle coordinates, chain M_{i+1}
        acc = acc + x[i] * (x[i] + 1) * (x[i - 1] - x[i + 1]) * math.prod(
            links[: i - 1] + links[i + 1 :]
        )
    rhs = (
        math.prod(links[1:3])
        * math.prod(links[3 : k - 2])
        * (x[0] * x[1] * links[-1] - x[k - 2] * x[k - 1] * links[0])
    )
    return acc - rhs


def equilibrium_residual(p: Params, x):
    """Sup-norm of X at x (k >= 3); zero exactly where X vanishes, as at the
    fixed point (k=4) and along the 2-periodic curves (k=3 and k=5)."""
    return max(abs(c) for c in symmetry_vector(p, x))
