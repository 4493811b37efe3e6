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

Each `eval_*` kernel is its formula as written. `level_signature` calls the
kernels of V1, V2, V3 and sign Z; the tracer (`tracing.traced`) runs the
pieces they share (S, the coordinate product, each x_i + 1) once.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import NamedTuple

from .errors import DimensionError, VerificationError
from .lyness import Params, require_point, validated
from .scalars import RatMatrix, exact_kinds, exact_rank, fold, fraction_of, gradient
from .tracing import traced


def _total(p: Params, x):
    """S = a + x1 + ... + xk."""
    return p.a + fold(x)


def _alternating(x, start: int):
    """prod x(x+1) over every second coordinate from 0-based index start."""
    return math.prod(x[i] * (x[i] + 1) for i in range(start, len(x), 2))


@validated
def eval_v1(p: Params, x):
    return _total(p, x) * math.prod(c + 1 for c in x) / math.prod(x)


@validated
def eval_v2(p: Params, x):
    chain = math.prod(1 + x[i] + x[i + 1] for i in range(p.k - 1))
    return (_total(p, x) + x[0] * x[-1]) * chain / math.prod(x)


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
    return (_alternating(x, 0) + _total(p, x) * _alternating(x, 1)) / math.prod(x)


@validated
def eval_z(p: Params, x):
    """Separating polynomial (odd k); {Z = 0} is an invariant hypersurface."""
    _require_odd(p, "the separating polynomial")
    return _alternating(x, 0) - _total(p, x) * _alternating(x, 1)


@validated
def eval_pi(p: Params, x):
    """Coordinate product; 1/pi is an invariant density of the second iterate."""
    return math.prod(x)


@validated
def z_sign(p: Params, x) -> int:
    z = eval_z.kernel(p, x)
    return (z > 0) - (z < 0)


class LevelSignature(NamedTuple):
    """Invariant levels attached to one state; v3/z_sign are None for even k."""

    v1: object
    v2: object
    v3: object = None
    z_sign: int = None


@validated
@traced
def level_signature(p: Params, x) -> LevelSignature:
    """V1, V2 (and V3, sign Z for odd k), each by its own kernel."""
    v1, v2 = eval_v1.kernel(p, x), eval_v2.kernel(p, x)
    if p.k % 2 == 0:
        return LevelSignature(v1, v2)
    return LevelSignature(v1, v2, eval_v3.kernel(p, x), z_sign.kernel(p, x))


def _exact_levels(p: Params, x, hint: LevelSignature) -> LevelSignature:
    """`level_signature.kernel(p, x)` at an exact point, by its exact form
    (`tracing.compile_exact`, each coordinate over its own denominator); each V
    is hint's level where `fraction_of` confirms it, and sign Z is read off Z's
    numerator, with no denominator of Z formed."""
    form = level_signature.kernel.exact_form(p.k, denominators=True, common=False)
    v1, v2, v3, z = form(p.a.numerator, p.a.denominator,
                         tuple(c.denominator for c in x), tuple(c.numerator for c in x))
    if z is not None:  # odd k: V3, and sign Z over the denominator 1
        v3, z = fraction_of(v3, hint.v3), z[0]
    return LevelSignature(fraction_of(v1, hint.v1), fraction_of(v2, hint.v2), v3, z)


def _float_levels(p: Params, states):
    """(x, `level_signature.kernel(p, x)`) for each state x by the float rule:
    by the compiled kernel at p.k; where that raises ArithmeticError or a
    level is not finite, by the kernel over `Fraction`, each level rounded
    once. Ends before a state whose rounded level overflows."""
    kernel, isfinite = level_signature.kernel.at(p.k), math.isfinite
    n = 2 + p.k % 2  # V1, V2 and, for odd k, V3
    for x in states:
        try:
            sig = kernel(p, x)
            finite = isfinite(sig.v1) and isfinite(sig.v2) and (n == 2 or isfinite(sig.v3))
        except ArithmeticError:
            finite = False
        if not finite:
            exact = kernel(Params(p.k, Fraction(p.a)), tuple(map(Fraction, x)))
            try:
                sig = LevelSignature(*map(float, exact[:n]), *exact[n:])
            except OverflowError:
                return
        yield x, sig


def level_signatures(p: Params, states):
    """`level_signature.kernel(p, x)` for each state x, equal in value and type,
    computed on every state (one orbit's rows take `orbit_levels`, which
    carries exact levels). Exact levels are confirmed against the previous
    state's by one cross-multiplication (`fraction_of`), so only the first and a
    changed level are reduced. Float levels end before a state whose levels
    overflow float64 (`_float_levels`)."""
    if type(p.a) not in (int, Fraction):  # no state is exact
        yield from map(operator.itemgetter(1), _float_levels(p, states))
        return
    hint = LevelSignature(None, None)
    for x in states:
        if exact_kinds((p.a, *x)):
            sig = hint = _exact_levels(p, x, hint)
        elif (sig := next(_float_levels(p, (x,)), (None, None))[1]) is None:
            return
        yield sig


def orbit_levels(p: Params, states):
    """(x, `level_signature.kernel(p, x)`) for each state x of one orbit of F
    or F^-1, the path chosen on the first state. Float levels are computed on
    every row, as `level_signatures` does, since their drift is what a float
    run shows. Exact rows carry row 0's levels: the paper proves V1 and V2
    first integrals for every k and V3 for odd k, and for odd k sign Z flips
    each step (0 stays 0), as Z o F = det DF * Z with det DF < 0 on the
    orthant. The last state's levels are computed again; unless they are row
    0's, with sign Z times (-1)^steps, VerificationError is raised."""
    states = iter(states)
    x = next(states)
    if not exact_kinds((p.a, *x)):
        yield from _float_levels(p, itertools.chain((x,), states))
        return
    first = sig = _exact_levels(p, x, LevelSignature(None, None))
    yield x, sig
    steps = 0
    for steps, x in enumerate(states, 1):
        if sig.z_sign:
            sig = sig._replace(z_sign=-sig.z_sign)
        yield x, sig
    last = _exact_levels(p, x, first)
    if last != sig:
        changed = [name for name, got, want in zip(("V1", "V2", "V3", "sign Z"), last, sig) if got != want]
        raise VerificationError(f"the exact orbit's last state, after {steps} steps, is off row 0's levels: "
                                f"{', '.join(changed)}")


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
