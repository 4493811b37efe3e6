"""Exact forms of traced kernels: integer straight-line code at a rational point.

`lyness.traced` records a kernel once per k as a tape of `+ - * /` and unary
`-` on its inputs a and x. `compile_exact` writes that tape out as integer
code in an, ad, D and n_0..n_{k-1}, the point a = an/ad, x_i = n_i/D over the
lcm D of its denominators (`scalars.common_denominator`). It performs the
integer arithmetic of `scalars.Cleared` on that point without building a
`Cleared` per operation or cancelling factors as it runs: the cancelling is
done once, when the code is written. The `verify` suites run their traced
identities this way; `traced`'s `exact` loads this module on first use.
"""

from __future__ import annotations

import functools

from .lyness import _define, _expression, _trace
from .scalars import _cancel


def compile_exact(kernel, k: int, denominators: bool = False):
    """kernel traced once at dimension k (`_trace`) and written out as integer
    straight-line code in an, ad, D and n = (n0, ..., n{k-1}), the rational
    point a = an/ad, x_i = n_i/D, that returns kernel's result with the
    numerator of each value in its place (with `denominators`, a
    (numerator, denominator) pair). Each recorded value is a numerator and
    a tuple of nonzero denominator factors (D, ad, an int literal or a
    divisor's numerator), cancelled and multiplied as `Cleared` does it, but
    while the source is written: the code holds only int products, sums and
    differences, each distinct one once, and before the first division by
    each value a ZeroDivisionError where its numerator is 0. A component is 0
    exactly when its numerator is. Comparisons have no exact form. The
    source is not kept in `linecache`: for the forms of `verify --k-range
    3..8` it would hold about 0.5 MB, so a traceback gives only the form's
    name (`<exact name k=K>`) and line."""
    tape, inputs, out = _trace(kernel, k)
    if inputs:
        raise TypeError(f"{kernel.__qualname__}: the exact form takes no extra inputs")
    lines, named, checked = [], {}, set()

    def let(expression: str) -> str:
        if expression not in named:
            named[expression] = f"e{len(named)}"
            lines.append(f"{named[expression]} = {expression}")
        return named[expression]

    def product(factors):  # left to right, so products with one prefix share its lines
        return functools.reduce(lambda left, right: let(f"{left} * {right}"), factors)

    def scaled(n, factors):
        if not factors or n == 0:
            return n
        return product(factors) if n == 1 else let(f"{n} * {product(factors)}")

    def merged(*factors) -> tuple:  # one order, so equal products share their lines
        return tuple(sorted(factors, key=str))

    value = {"a": ("an", ("ad",)), **{f"x{i}": (f"n{i}", ("D",)) for i in range(k)}}
    for (symbol, *operands), name in tape.items():
        if symbol in ("<", ">"):
            raise TypeError(f"{kernel.__qualname__}: a comparison has no exact form")
        (un, ud), *other = [value[v] if isinstance(v, str) else (v, ()) for v in operands]
        if not other:  # unary minus
            value[name] = (-un if type(un) is int else let(f"-{un}"), ud)
            continue
        [(vn, vd)] = other
        # the literals 0 and 1 that `fold`, `math.prod` and `Dual`'s lift bring fold away
        if symbol == "*":
            if un == 0 or vn == 0:
                value[name] = (0, ())
            elif un == 1 and not ud:
                value[name] = (vn, vd)
            elif vn == 1 and not vd:
                value[name] = (un, ud)
            else:
                value[name] = (let(f"{un} * {vn}"), merged(*ud, *vd))
            continue
        rest, extra = _cancel(ud, vd)
        if symbol == "/":
            if not (type(vn) is int and vn) and vn not in checked:
                checked.add(vn)
                lines.append(f"if not {vn}: raise ZeroDivisionError")
            value[name] = (scaled(un, extra), merged(*rest, vn))
        elif vn == 0:
            value[name] = (un, ud)
        elif un == 0 and symbol == "+":
            value[name] = (vn, vd)
        else:
            value[name] = (let(f"{scaled(un, extra)} {symbol} {scaled(vn, rest)}"), merged(*ud, *extra))

    def leaf(v) -> str:
        n, d = value[v.name]
        return f"({n}, {product(d) if d else 1})" if denominators else str(n)

    names = {}
    result = _expression(out, names, leaf)
    header = ["def kernel(an, ad, D, n):", "".join(f"n{i}, " for i in range(k)) + "= n"]
    return _define([*header, *lines, f"return {result}"], names, f"<exact {kernel.__qualname__} k={k}>")[0]
