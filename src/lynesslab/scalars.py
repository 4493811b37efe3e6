"""Scalar substrate: rationals, duals, polynomials in t, exact linear algebra.

Every formula in this package is written against plain arithmetic operators so
the same code runs over exact rationals (the stdlib Fraction, always reduced),
float64 or `Dual` numbers; division-free ones, such as Z, also run over `Poly`,
giving their coefficients along a line of inputs. The one other exact backend
is a traced kernel's exact form (`tracing.compile_exact`): integer
straight-line code in the numerators and denominators of a rational point,
which it never reduces, so it takes no gcd. The verify suites run it over a
point's common denominator D, drawn as the integers `common_denominator` gives
(`sampling.random_common_point`); the exact orbit rows and the reduce replay
run it over each coordinate's own, and `fraction_of` turns each (numerator,
denominator) pair it returns into the Fraction, confirming a known value by one
cross-multiplication. A directional derivative is one dual pass (`jvp`), a
gradient one per coordinate; ranks over the rationals use fraction-free integer
elimination.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError


MAX_LITERAL_DIGITS = 4300  # CPython's default int->str digit limit


def parse_rational(text: str) -> Fraction:
    """Parse 'p/q', an integer, or a finite decimal (exponent allowed) into an
    exact rational, with no float round-trip. Malformed text, zero denominators
    and literals whose numerator or denominator would need more than
    MAX_LITERAL_DIGITS digits (read off the text, before any big-integer work)
    raise ValueError."""
    literal = str(text).strip()
    try:
        if _literal_digits(literal) > MAX_LITERAL_DIGITS:
            raise ValueError("literal too large")
        return Fraction(literal)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational literal: {text!r}") from exc


def _literal_digits(literal: str) -> float:
    """Digits of the larger of the unreduced numerator and denominator of a
    literal, counted on its text (leading zeros too): 'p/q' parts as written;
    for a decimal 'w.f' with exponent e, wf times 10**(e - len(f))."""
    body = literal.lstrip("+-").lower().replace("_", "")
    if "/" in body:
        return max(len(part.strip()) for part in body.split("/"))
    head, _, exp = body.partition("e")
    if len(exp.lstrip("+-").lstrip("0")) > len(str(MAX_LITERAL_DIGITS)):
        return math.inf  # |e| alone is past the bound, on either side
    shift = int(exp or 0) - len(head.partition(".")[2])
    return max(len(head.replace(".", "")) + max(shift, 0), 1 - min(shift, 0))


def fold(xs):
    """x1 + x2 + ..., added left to right (0 for no items): `sum` before
    CPython 3.12, whose `sum` of floats compensates rounding, less its `0 +`,
    which changes a sum only where every item is -0.0. Kernels sum with
    `fold`, so a float result has the same bits on every interpreter."""
    xs = iter(xs)
    return functools.reduce(operator.add, xs, next(xs, 0))


def _lift(v):
    if isinstance(v, Dual):
        return v
    return Dual(v, 0)


@dataclass(frozen=True)
class Dual:
    """Forward-mode dual number: value + deriv * eps with eps^2 = 0.

    Works over any scalar field (Fraction or float). Ordering comparisons
    look at the value part only, so domain checks written for plain scalars
    keep working on duals.
    """

    value: object
    deriv: object

    def __add__(self, other):
        if not isinstance(other, Dual):  # a plain scalar adds to the value alone
            return Dual(self.value + other, self.deriv)
        return Dual(self.value + other.value, self.deriv + other.deriv)

    __radd__ = __add__

    def __sub__(self, other):
        o = _lift(other)
        return Dual(self.value - o.value, self.deriv - o.deriv)

    def __rsub__(self, other):
        o = _lift(other)
        return Dual(o.value - self.value, o.deriv - self.deriv)

    def __mul__(self, other):
        if not isinstance(other, Dual):
            return Dual(self.value * other, self.deriv * other)
        return Dual(self.value * other.value, self.value * other.deriv + self.deriv * other.value)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _lift(other)
        val = self.value / o.value
        return Dual(val, (self.deriv - val * o.deriv) / o.value)

    def __rtruediv__(self, other):
        return _lift(other).__truediv__(self)

    def __neg__(self):
        return Dual(-self.value, -self.deriv)

    # ordering on the value part, so positivity checks stay generic
    def __lt__(self, other):
        return self.value < _lift(other).value

    def __le__(self, other):
        return self.value <= _lift(other).value

    def __gt__(self, other):
        return self.value > _lift(other).value

    def __ge__(self, other):
        return self.value >= _lift(other).value


def _terms(v):
    return v.coeffs if isinstance(v, Poly) else (v,)


class Poly:
    """Polynomial in one unknown t: coefficients lowest first, no trailing
    zeros (the zero polynomial keeps one). Ring `+ - *` with ints, Fractions,
    floats and other polynomials, so a division-free kernel run with
    t = Poly((0, 1)) among its inputs returns its value in t."""

    def __init__(self, coeffs):
        coeffs = list(coeffs)
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    def __add__(self, other):
        return Poly(u + v for u, v in itertools.zip_longest(self.coeffs, _terms(other), fillvalue=0))

    __radd__ = __add__

    def __neg__(self):
        return Poly(-c for c in self.coeffs)

    def __sub__(self, other):
        return self + -Poly(_terms(other))

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        b = _terms(other)
        out = [0] * (len(self.coeffs) + len(b) - 1)
        for (i, u), (j, v) in itertools.product(enumerate(self.coeffs), enumerate(b)):
            out[i + j] += u * v
        return Poly(out)

    __rmul__ = __mul__


def jvp(f, x, v):
    """Derivative of f at x along v in one forward dual pass, exact over
    Fractions. A pole of f at x surfaces as DomainError."""
    try:
        return f(tuple(map(Dual, x, v))).deriv
    except ZeroDivisionError as exc:
        raise DomainError(f"pole encountered while differentiating at {tuple(x)}") from exc


def gradient(f, x):
    """Exact gradient of f at x: `jvp` along each unit vector."""
    x = tuple(x)
    return tuple(jvp(f, x, [int(j == i) for j in range(len(x))]) for i in range(len(x)))


def exact_kinds(values) -> bool:
    """Whether every value is an int or Fraction and one is a Fraction: the
    inputs whose arithmetic the exact forms repeat exactly (all-int ones
    divide to floats)."""
    kinds = set(map(type, values))
    return kinds <= {int, Fraction} and Fraction in kinds


def common_denominator(x) -> tuple:
    """(D, (n_1, ..., n_k)) for the int or Fraction point x: D is the lcm of
    its denominators and x_i = n_i / D; nothing is reduced."""
    d = math.lcm(*(q.denominator for q in x))
    return d, tuple(q.numerator * (d // q.denominator) for q in x)


def fraction_of(pair: tuple, hint):
    """The reduced value n/d of pair = (n, d), d != 0: hint (an int, a
    Fraction or None) itself if one exact cross-multiplication shows it
    equal (no gcd), else Fraction(n, d)."""
    n, d = pair
    if hint is not None and n * hint.denominator == d * hint.numerator:
        return hint
    return Fraction(n, d)


def cancel(d1, d2):
    """d1 and d2 less their shared factors: each factor of d2 cancels one equal one of d1."""
    rest, extra = list(d1), []
    for f in d2:
        if f in rest:
            rest.remove(f)
        else:
            extra.append(f)
    return rest, extra


@dataclass
class RatMatrix:
    """Dense rectangular matrix; exact rank only meaningful for rational entries."""

    rows: list

    def __post_init__(self):
        self.rows = [list(r) for r in self.rows]
        if self.rows:
            width = len(self.rows[0])
            if any(len(r) != width for r in self.rows):
                raise ValueError("ragged rows")

    @property
    def nrows(self):
        return len(self.rows)

    @property
    def ncols(self):
        return len(self.rows[0]) if self.rows else 0

    def matvec(self, vec):
        vec = tuple(vec)
        if len(vec) != self.ncols:
            raise ValueError("dimension mismatch")
        return tuple(sum(rij * vj for rij, vj in zip(row, vec)) for row in self.rows)


def exact_rank(matrix) -> int:
    """Rank over Q by fraction-free (Bareiss) elimination. Exact, no tolerance.

    Rows are scaled integer before elimination; scaling a row by a nonzero
    rational does not change rank.
    """
    rows = matrix.rows if isinstance(matrix, RatMatrix) else [list(r) for r in matrix]
    if not rows or not rows[0]:
        return 0
    work = []
    for row in rows:
        fracs = [Fraction(e) for e in row]
        scale = math.lcm(*(f.denominator for f in fracs))
        work.append([int(f * scale) for f in fracs])
    nr, nc = len(work), len(work[0])
    rank = 0
    prev = 1
    for col in range(nc):
        if rank == nr:
            break
        piv = next((r for r in range(rank, nr) if work[r][col] != 0), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        pval = work[rank][col]
        for r in range(rank + 1, nr):
            head = work[r][col]
            for c in range(col + 1, nc):
                # Bareiss update: division by the previous pivot is exact
                work[r][c] = (pval * work[r][c] - head * work[rank][c]) // prev
            work[r][col] = 0
        prev = pval
        rank += 1
    return rank
