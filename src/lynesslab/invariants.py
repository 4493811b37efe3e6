"""First integrals, the 2-integral, and the separating polynomial surface.

With S = a + x1 + ... + xk and L_i = 1 + x_i + x_{i+1}:

    V1 = S * prod_i (x_i + 1) / prod_i x_i                     (all k)
    V2 = (S + x1 xk) * prod_{i<k} L_i / prod_i x_i             (all k)

For odd k = 2l+1 the alternating product

    W = prod_{j=0..l} (x_{2j+1} + 1) / prod_{j=1..l} x_{2j}

is a 2-integral (invariant of the second iterate, not of the map) and

    V3 = W + W o F
       = [prod_odd x(x+1) + S * prod_even x(x+1)] / prod_i x_i

is a third first integral, with the factorization V1 = W * (W o F).
The polynomial

    Z = prod_odd x(x+1) - S * prod_even x(x+1) = prod_i x_i * (W - W o F)

transforms as Z o F = det DF * Z (and prod o F = -det DF * prod), so its
zero set is invariant, its sign flips each step off the zero set, and
1/prod and 1/(prod * (W - W o F)) are invariant densities of the second
iterate. "odd"/"even" above refer to 1-based coordinate positions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DimensionError
from .lyness import Params, require_point, validated
from .scalars import Cleared, RatMatrix, exact_kinds, exact_rank, gradient


# Each formula is written once, over the pieces the integrals share: S, the
# coordinate product pi and, for odd k, the odd/even terms. The public
# kernels build their own pieces; `level_signature` builds each piece once
# and feeds all of them, so every value is the same expression, evaluated in
# the same order, as its kernel (bit-identical over floats).


def _total(p: Params, x):
    """S = a + x1 + ... + xk."""
    return p.a + sum(x)


def _v1(x, total, pi):
    return total * math.prod(c + 1 for c in x) / pi


def _v2(x, total, pi):
    chain = math.prod(1 + x[i] + x[i + 1] for i in range(len(x) - 1))
    return (total + x[0] * x[-1]) * chain / pi


def _odd_terms(x, total):
    """(prod_odd x(x+1), S * prod_even x(x+1)), the two terms of V3 and Z."""
    odd = math.prod(x[i] * (x[i] + 1) for i in range(0, len(x), 2))
    even = math.prod(x[i] * (x[i] + 1) for i in range(1, len(x), 2))
    return odd, total * even


def _v3(odd, s_even, pi):
    return (odd + s_even) / pi


def _z(odd, s_even):
    return odd - s_even


def _sign(v) -> int:
    return (v > 0) - (v < 0)


@validated
def eval_v1(p: Params, x):
    return _v1(x, _total(p, x), math.prod(x))


@validated
def eval_v2(p: Params, x):
    return _v2(x, _total(p, x), math.prod(x))


def _require_odd(p: Params, what: str):
    if p.k % 2 == 0:
        raise DimensionError(f"{what} is defined for odd k only, got k={p.k}")


@validated
def eval_w(p: Params, x):
    """Alternating 2-integral (odd k): odd positions up top, even ones below."""
    _require_odd(p, "the alternating 2-integral")
    num = math.prod(x[i] + 1 for i in range(0, p.k, 2))
    den = math.prod(x[i] for i in range(1, p.k, 2))
    return num / den


@validated
def eval_v3(p: Params, x):
    """Third first integral for odd k, evaluated in cleared polynomial form."""
    _require_odd(p, "the third integral")
    return _v3(*_odd_terms(x, _total(p, x)), math.prod(x))


@validated
def eval_z(p: Params, x):
    """Separating polynomial (odd k); {Z = 0} is an invariant hypersurface."""
    _require_odd(p, "the separating polynomial")
    return _z(*_odd_terms(x, _total(p, x)))


@validated
def eval_pi(p: Params, x):
    """Coordinate product; 1/pi is an invariant density of the second iterate."""
    return math.prod(x)


@validated
def z_sign(p: Params, x) -> int:
    return _sign(eval_z.kernel(p, x))


@dataclass(frozen=True)
class LevelSignature:
    """Invariant levels attached to one state; v3/z_sign are None for even k."""

    v1: object
    v2: object
    v3: object = None
    z_sign: int = None


@validated
def level_signature(p: Params, x) -> LevelSignature:
    """V1, V2 (and V3, sign Z for odd k) in one pass over the shared pieces."""
    total, pi = _total(p, x), math.prod(x)
    v1, v2 = _v1(x, total, pi), _v2(x, total, pi)
    if p.k % 2 == 0:
        return LevelSignature(v1=v1, v2=v2)
    odd, s_even = _odd_terms(x, total)
    return LevelSignature(v1=v1, v2=v2, v3=_v3(odd, s_even, pi), z_sign=_sign(_z(odd, s_even)))


def level_signatures(p: Params, states):
    """`level_signature.kernel(p, x)` for each state x, equal in value and type.
    Where those levels are Fractions, the kernel runs over `Cleared` coordinates
    and each level is confirmed against the previous row's by one exact
    cross-multiplication; only row 0 and a changed level are reduced (gcd).
    Other states, floats among them, go straight to the kernel."""
    if type(p.a) not in (int, Fraction):
        yield from (level_signature.kernel(p, x) for x in states)
        return
    prev = LevelSignature(None, None)
    for x in states:
        if not exact_kinds((p.a, *x)):
            yield level_signature.kernel(p, x)
            continue
        sig = level_signature.kernel(p, tuple(map(Cleared.of, x)))
        v3 = None if sig.v3 is None else sig.v3.fraction(prev.v3)
        prev = LevelSignature(sig.v1.fraction(prev.v1), sig.v2.fraction(prev.v2), v3, sig.z_sign)
        yield prev


_EVALUATORS = {"V1": eval_v1, "V2": eval_v2, "V3": eval_v3}


def independence_rank(p: Params, x, which=("V1", "V2", "V3")) -> int:
    """Exact rank of the chosen integral gradients at a rational point."""
    x = require_point(p, x)
    if not all(isinstance(c, (int, Fraction)) for c in x):
        raise TypeError("exact rank needs rational coordinates")
    names = [str(n).upper() for n in which]
    rows = []
    for name in names:
        if name not in _EVALUATORS:
            raise ValueError(f"unknown integral {name!r}; choose from V1, V2, V3")
        fn = _EVALUATORS[name].kernel
        rows.append(list(gradient(lambda pt, fn=fn: fn(p, pt), x)))
    return exact_rank(RatMatrix(rows))
