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
drivers that validated their start point already. `step`, `inverse_step`,
the symmetry field, the level signatures and the five residuals `verify`
holds are also `@traced`: their `.kernel` runs the body as straight-line code
compiled once per k, and `.kernel.exact_form(k)` is its exact form, integer
straight-line code in the numerators of a rational point over their common
denominator, which the `verify` suites run (`.kernel.exact` runs it at a
Fraction point). Every float run enters float64
through `float_point`, the one place that converts a and x0.
"""

from __future__ import annotations

import functools
import inspect
import linecache
import math
import re
import types
from dataclasses import dataclass
from typing import NamedTuple

from .errors import DimensionError, DomainError
from .scalars import RatMatrix, common_denominator, fold


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
    past the float64 range, or a coordinate or the coordinate product (which
    every level divides by) that underflows to 0, is a DomainError."""
    x = require_point(p, x0)
    fp = float_params(p)
    try:
        x = tuple(map(float, x))
    except OverflowError:
        raise DomainError("x0 must lie within the float64 range") from None
    if not (in_orthant(x) and math.prod(x)):
        raise DomainError("x0 must be finite in float64, and neither a coordinate nor their product may underflow to 0")
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


def _binary(symbol):
    """The forward and reflected methods of one recorded binary operator."""
    return (lambda self, other: self.record(symbol, self, other),
            lambda self, other: self.record(symbol, other, self))


class Recording:
    """A symbolic scalar of one trace. Each `+ - * /`, unary `-`, `<` or `>`
    on it records the operation (operator, *operands), each operand a
    recording's name or an int literal, in the order Python evaluated them,
    and returns its result as a new recording. The other operand is a
    recording or an int literal; a `Dual` runs its own method on the
    recording, and anything else (bool, ==, abs, **, float, ...) raises
    TypeError, so a kernel that branches on a value fails when it is traced.
    The tape maps each distinct operation to the name of its result, in the
    order first recorded: an operation recorded again (the same operator on
    the same operands in the same order) names the first result, so it runs
    once."""

    __slots__ = ("tape", "name")

    def __init__(self, tape: dict, name: str):
        self.tape, self.name = tape, name

    def record(self, symbol: str, *operands):
        key = [symbol]
        for v in operands:  # a plain loop, no generators: tracing runs this per operation
            if type(v) is Recording:
                v = v.name
            elif type(v) is not int:
                return NotImplemented
            key.append(v)
        return Recording(self.tape, self.tape.setdefault(tuple(key), f"t{len(self.tape)}"))

    __add__, __radd__ = _binary("+")
    __sub__, __rsub__ = _binary("-")
    __mul__, __rmul__ = _binary("*")
    __truediv__, __rtruediv__ = _binary("/")
    __lt__ = _binary("<")[0]
    __gt__ = _binary(">")[0]

    def __neg__(self):
        return self.record("-", self)

    def __bool__(self):
        raise TypeError("a traced kernel cannot branch on a value")

    def __eq__(self, other):
        raise TypeError("a traced kernel cannot compare values for equality")


def _line(symbol: str, *operands) -> str:
    """The source of one recorded operation: `-t1`, or `t1 * 3` with its operands in recorded order."""
    return f"{symbol}{operands[0]}" if len(operands) == 1 else f"{operands[0]} {symbol} {operands[1]}"


def _expression(out, names: dict, leaf=lambda v: v.name) -> str:
    """Source that rebuilds a kernel's result from the trace's variables, each
    recording as leaf gives it (by default its name); a tuple subclass is
    rebuilt by its constructor, whose type is added to names."""
    if isinstance(out, Recording):
        return leaf(out)
    if isinstance(out, tuple):
        items = "(" + "".join(_expression(v, names, leaf) + ", " for v in out) + ")"
        if type(out) is tuple:
            return items
        names[type(out).__name__] = type(out)
        return type(out).__name__ + items
    if out is None:
        return "None"
    raise TypeError(f"a traced kernel returns tuples of scalars, not {out!r}")


def _trace(kernel, k: int) -> tuple:
    """(tape, extra, result) of kernel run once at dimension k on recordings
    a, x0..x{k-1} and the extra inputs its signature names."""
    tape = {}
    x = tuple(Recording(tape, f"x{i}") for i in range(k))
    extra = list(inspect.signature(kernel).parameters)[2:]
    if any(re.fullmatch(r"[apx]|[xt]\d+", name) for name in extra):
        raise ValueError(f"{kernel.__qualname__}: no extra input may be named p, a, x, x<n> or t<n>")
    out = kernel(types.SimpleNamespace(k=k, a=Recording(tape, "a")), x, *(Recording(tape, n) for n in extra))
    return tape, extra, out


def _define(lines: list, names: dict, filename: str) -> tuple:
    """The function `kernel` that the source lines (a def, then its body)
    define, run in names, and that source."""
    source = "\n    ".join(lines) + "\n"
    exec(compile(source, filename, "exec"), names)
    return names["kernel"], source


def _compile(kernel, k: int):
    """kernel traced once at dimension k (`_trace`) and written out as one
    straight-line function of (p, x, *extra) that performs each distinct
    recorded operation once, in the order first recorded. Nothing is
    reordered, commuted or re-associated (`x0 + 1` and `1 + x0` stay two
    operations). Its source is kept in `linecache`, for tracebacks."""
    tape, extra, out = _trace(kernel, k)
    names = {}
    result = _expression(out, names)
    lines = [f"def kernel({', '.join(['p', 'x', *extra])}):", "a = p.a",
             "".join(f"x{i}, " for i in range(k)) + "= x",
             *(f"{name} = {_line(*key)}" for key, name in tape.items()),
             f"return {result}"]
    filename = f"<traced {kernel.__qualname__} k={k}>"
    fn, source = _define(lines, names, filename)
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    return fn


def traced(kernel):
    """A pure kernel f(p, x, *extra) run as straight-line code compiled once
    per k; extra are scalars past the point, such as a step size (the tracer
    records no float literal). The first call at dimension p.k traces f on
    `Recording` inputs and compiles what it recorded; that call and every
    later one at p.k run the compiled function. It performs f's operations on
    the same operands in the same order, each distinct one once (a repeat
    reuses the first result), so its results are f's, bit for bit. f stays
    the source, as `__wrapped__`; `compiled` maps k to its function.

    `exact_form(k)`, for a kernel of (p, x) alone, is f's exact form at
    dimension k (`exact.compile_exact`), traced and compiled on first use and
    kept in `compiled_exact`: a function of (an, ad, D, n), the rational point
    a = an/ad, x_i = n_i/D, that returns f's result with each value's
    numerator in its place, 0 exactly where the value is. `exact(p, x)` runs
    it at an int or Fraction a and point x, over x's common denominator."""
    compiled, compiled_exact = {}, {}

    @functools.wraps(kernel)
    def run(p, x, *extra):
        try:
            fn = compiled[p.k]
        except KeyError:
            fn = compiled[p.k] = _compile(kernel, p.k)
        return fn(p, x, *extra) if extra else fn(p, x)  # a call with *() costs more

    def exact_form(k: int):
        if k not in compiled_exact:
            from .exact import compile_exact  # loaded on first exact use; float runs never need it

            compiled_exact[k] = compile_exact(kernel, k)
        return compiled_exact[k]

    def exact(p, x):
        return exact_form(p.k)(p.a.numerator, p.a.denominator, *common_denominator(x))

    run.compiled, run.compiled_exact, run.exact_form, run.exact = compiled, compiled_exact, exact_form, exact
    return run


@validated
@traced
def step(p: Params, x) -> tuple:
    return x[1:] + ((p.a + fold(x[1:])) / x[0],)


@validated
@traced
def inverse_step(p: Params, y) -> tuple:
    return ((p.a + fold(y[:-1])) / y[-1],) + y[:-1]


@validated
def orbit(p: Params, x, n: int):
    """Yield x and then each image under F (F^-1 for n < 0), |n| images in
    all. Stops early at the first state outside `in_orthant`: float overflow
    or underflow. An image shifts the checked coordinates of the state
    before it and adds one, so only the added one is checked."""
    advance, added = (step.kernel, slice(-1, None)) if n >= 0 else (inverse_step.kernel, slice(1))
    yield x
    for _ in range(abs(n)):
        x = advance(p, x)
        if not in_orthant(x[added]):
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
    last = [-(p.a + fold(x[1:])) / (x[0] * x[0])] + [one / x[0]] * (p.k - 1)
    rows.append(last)
    return RatMatrix(rows)


@validated
def jacobian_det(p: Params, x):
    """det DF(x) = (-1)^k (a + x2 + ... + xk) / x1^2 (cofactor closed form)."""
    val = (p.a + fold(x[1:])) / (x[0] * x[0])
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
