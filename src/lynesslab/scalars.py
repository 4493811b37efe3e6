"""Exact scalar substrate: rationals, forward-mode duals, exact linear algebra.

Every formula in this package is written against plain arithmetic operators so
the same code runs over exact rationals (the stdlib Fraction: always reduced,
positive denominator, exact field operations), float64, `Dual` numbers, or
`Cleared` rationals, which are never reduced and so take no gcd; the exact
orbit rows run over `Cleared`, and the verify suites over a point's
common-denominator `Cleared` image (`Cleared.common`).
A directional derivative is one dual pass (`jvp`), a gradient one per
coordinate; ranks over the rationals use fraction-free integer elimination.
"""

from __future__ import annotations

import functools
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
    """0 + x1 + x2 + ..., added left to right: the order of `sum` before
    CPython 3.12, whose `sum` of floats compensates rounding. Kernels sum
    with `fold`, so a float result has the same bits on every interpreter."""
    return functools.reduce(operator.add, xs, 0)


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
    inputs whose arithmetic `Cleared` repeats exactly (all-int ones divide
    to floats)."""
    kinds = set(map(type, values))
    return kinds <= {int, Fraction} and Fraction in kinds


def _cancel(d1, d2):
    """d1 and d2 less their shared factors: each factor of d2 cancels one equal one of d1."""
    rest, extra = list(d1), []
    for f in d2:
        if f in rest:
            rest.remove(f)
        else:
            extra.append(f)
    return rest, extra


class Cleared:
    """Exact rational n / prod(den) that is never reduced, den a tuple of positive
    integer factors. Operations and equality with int, Fraction or Cleared
    operands only multiply integers and cancel factors shared by two
    denominators: no gcd. Any other operand type gets NotImplemented, so its
    own reflected operation runs (a `Dual` takes a `Cleared` value part)."""

    __slots__ = ("n", "den")

    def __init__(self, n: int, den: tuple = ()):
        self.n, self.den = n, den

    def __repr__(self):
        return f"Cleared({self.n}, {self.den})"

    @classmethod
    def of(cls, q):
        """q itself if Cleared; an int or Fraction q with no factor for a denominator 1."""
        if isinstance(q, cls):
            return q
        return cls(q.numerator, (q.denominator,) if q.denominator != 1 else ())

    @classmethod
    def common(cls, x) -> tuple:
        """The int or Fraction point x over one shared denominator D, the lcm of
        its denominators: x_i = Cleared(p_i * (D // q_i), (D,)), no factor if D = 1.
        Sums of its coordinates then add numerators over equal denominators."""
        d = math.lcm(*(q.denominator for q in x))
        den = (d,) if d != 1 else ()
        return tuple(cls(q.numerator * (d // q.denominator), den) for q in x)

    def __add__(self, other):
        if type(other) is int:  # the formulas' literals, without a lift
            return Cleared(self.n + other * math.prod(self.den), self.den) if other else self
        if type(other) is not Cleared:
            return self + Cleared.of(other) if isinstance(other, (int, Fraction)) else NotImplemented
        if not other.n or self.den == other.den:
            return Cleared(self.n + other.n, self.den)
        rest, extra = _cancel(self.den, other.den)
        return Cleared(self.n * math.prod(extra) + other.n * math.prod(rest), self.den + tuple(extra))

    __radd__ = __add__

    def __neg__(self):
        return Cleared(-self.n, self.den)

    def __sub__(self, other):
        if type(other) is Cleared or isinstance(other, (int, Fraction)):
            return self.__add__(-other)
        return NotImplemented

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if type(other) is int:
            return Cleared(self.n * other, self.den)
        if type(other) is not Cleared:
            return self * Cleared.of(other) if isinstance(other, (int, Fraction)) else NotImplemented
        return Cleared(self.n * other.n, self.den + other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not Cleared:
            return self / Cleared.of(other) if isinstance(other, (int, Fraction)) else NotImplemented
        if not other.n:
            raise ZeroDivisionError("Cleared division by zero")
        rest, extra = _cancel(self.den, other.den)
        n = self.n * math.prod(extra)
        return Cleared(n if other.n > 0 else -n, (*rest, abs(other.n)))

    def __rtruediv__(self, other):
        return Cleared.of(other) / self if isinstance(other, (int, Fraction)) else NotImplemented

    def __eq__(self, other):
        if type(other) is int:  # the zero tests, without a lift
            return self.n == other * math.prod(self.den) if other else not self.n
        if type(other) is not Cleared:
            return self == Cleared.of(other) if isinstance(other, (int, Fraction)) else NotImplemented
        rest, extra = _cancel(self.den, other.den)
        return self.n * math.prod(extra) == other.n * math.prod(rest)

    @property
    def sign(self) -> int:
        return (self.n > 0) - (self.n < 0)

    def __lt__(self, other):
        return (self - other).sign < 0

    def __gt__(self, other):
        return (self - other).sign > 0

    def __le__(self, other):
        return (self - other).sign <= 0

    def __ge__(self, other):
        return (self - other).sign >= 0

    def fraction(self, hint=None) -> Fraction:
        """The reduced value: hint itself if one exact cross-multiplication shows
        it equal (no gcd), else Fraction(n, prod(den))."""
        d = math.prod(self.den)
        if hint is not None and d and self.n * hint.denominator == d * hint.numerator:
            return hint
        return Fraction(self.n, d)


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
