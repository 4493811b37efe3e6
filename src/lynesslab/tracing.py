"""The kernel tracer: a kernel's tape, and the two forms written from it.

`traced` runs a pure kernel once per k on `Recording` inputs, which record
each operation it performs as a tape, and writes that tape out as its
compiled form (`_compile`), straight-line code over any scalar backend that
a driver calls directly (`.at(k)`), and, on first exact use, as its exact
form (`compile_exact`), integer straight-line code in a rational point's
numerators and denominators, the one exact backend besides `Fraction`: the
`verify` suites run it over the point's common denominator, the exact orbit
rows (`level_signature`'s form) and the reduce replay (the reduced step,
with kappa as an extra input) over each coordinate's own.
"""

from __future__ import annotations

import functools
import inspect
import linecache
import re
import types

from .scalars import cancel


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
    the same operands, in either order for `+` and `*`) names the first
    result, so it runs once; `1 * v` and `v * 1` record nothing and give v."""

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
        if symbol == "*" and 1 in key:  # 1 * v is v
            return self
        tape, key = self.tape, tuple(key)
        swapped = (symbol, key[2], key[1]) if symbol in ("+", "*") else None  # u + v repeats v + u
        return Recording(tape, tape.get(key) or tape.get(swapped) or tape.setdefault(key, f"t{len(tape)}"))

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


def _expression(out, names: dict, leaf) -> str:
    """Source that rebuilds a kernel's result from the trace's variables, each
    recording as leaf gives it; a namedtuple, which holds every field, by
    `tuple.__new__` at half the cost of its `__new__`, its type put in names.
    Any other tuple subclass raises TypeError: its items may not build it."""
    if isinstance(out, Recording):
        return leaf(out)
    if isinstance(out, tuple):
        cls = type(out)
        items = "(" + "".join(_expression(v, names, leaf) + ", " for v in out) + ")"
        if cls is tuple:
            return items
        if "_fields" not in vars(cls):  # not a namedtuple class itself (nor a subclass of one)
            raise TypeError(f"a traced kernel returns tuples and namedtuples, not {cls.__qualname__}")
        names[cls.__name__] = cls
        return f"tuple.__new__({cls.__name__}, {items})"
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


def _define(lines: list, out, leaf, filename: str) -> tuple:
    """The function `kernel` that the source lines (a def, then its body) and
    a return of the traced result out, each recording as leaf gives it,
    define, and that source."""
    names = {}
    lines.append(f"return {_expression(out, names, leaf)}")  # leaf may add lines first
    source = "\n    ".join(lines) + "\n"
    exec(compile(source, filename, "exec"), names)
    return names["kernel"], source


def _compile(kernel, k: int):
    """kernel traced once at dimension k (`_trace`) and written out as one
    straight-line function of (p, x, *extra) that performs each distinct
    recorded operation once, in the order, and with the operand order, first
    recorded; nothing is re-associated (`(x0 + x1) + x2` and `x0 + (x1 + x2)`
    stay two operations). Its source is kept in `linecache`, for tracebacks."""
    tape, extra, out = _trace(kernel, k)
    lines = [f"def kernel({', '.join(['p', 'x', *extra])}):", "a = p.a",
             "".join(f"x{i}, " for i in range(k)) + "= x"]
    for (symbol, *operands), name in tape.items():
        lines.append(f"{name} = {symbol}{operands[0]}" if len(operands) == 1 else
                     f"{name} = {operands[0]} {symbol} {operands[1]}")
    filename = f"<traced {kernel.__qualname__} k={k}>"
    fn, source = _define(lines, out, lambda v: v.name, filename)
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    return fn


def compile_exact(kernel, k: int, denominators: bool = False, common: bool = True):
    """kernel traced once at dimension k (`_trace`) and written out as integer
    straight-line code in an, ad, the point's denominators and n = (n0, ...,
    n{k-1}), then one (numerator, denominator) pair per extra input, in the
    order of its signature: the rational point a = an/ad and x_i = n_i/D over
    one common denominator D (with `common` false, x_i = n_i/d_i over each
    coordinate's own, d = (d0, ..., d{k-1})), every denominator positive. It
    returns kernel's result with the numerator of each value in its place
    (with `denominators`, a (numerator, denominator) pair). Each recorded
    value is a numerator and a tuple of nonzero denominator factors (D or
    d_i, ad, an extra input's denominator, an int literal or a divisor's
    numerator), never reduced: a sum scales each numerator by the factors of
    the other denominator that its own lacks (`cancel`), a product joins the
    two tuples, a quotient adds the divisor's numerator. That is done while
    the source is written: the code holds only int products, sums and
    differences, each distinct one once, and before the first division by
    each value a ZeroDivisionError where its numerator is 0. A component is
    0 exactly when its numerator is. In a kernel that compares values, every
    factor is positive: a divisor's absolute value is the factor and its
    sign moves to the numerator, so a value's sign is its numerator's, and a
    comparison compares two numerators over a shared denominator and gives 0
    or 1, with no denominator formed. (Elsewhere no sign is read, so none is
    moved.) A product takes its distinct factors first, so a product whose
    distinct factors another has extends that one's line. The source is not kept in `linecache`: for the forms of
    `verify --k-range 3..8` it would hold about 0.5 MB, so a traceback gives
    only the form's name (`<exact name k=K>`) and line."""
    tape, extra, out = _trace(kernel, k)
    pairs = [f"q{j}" for j in range(len(extra))]
    lines = [f"def kernel({', '.join(['an', 'ad', 'D' if common else 'd', 'n', *pairs])}):",
             "".join(f"n{i}, " for i in range(k)) + "= n"]
    if not common:
        lines.append("".join(f"d{i}, " for i in range(k)) + "= d")
    lines += [f"{q}n, {q}d = {q}" for q in pairs]
    named, checked = {}, set()

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

    def minus(n) -> str:  # the source of -n
        return str(-n) if type(n) is int else f"-{n}"

    def negated(n):
        return -n if type(n) is int else let(minus(n))

    def merged(*factors) -> tuple:  # one order, distinct factors first, then the repeats
        distinct, repeats = [], []
        for f in sorted(factors, key=str):
            (repeats if f in distinct else distinct).append(f)
        return (*distinct, *repeats)

    value = {"a": ("an", ("ad",)), **{f"x{i}": (f"n{i}", ("D",) if common else (f"d{i}",)) for i in range(k)},
             **{name: (f"{q}n", (f"{q}d",)) for name, q in zip(extra, pairs)}}
    signed = any(key[0] in "<>" for key in tape)  # whether a sign is read, so factors must be positive
    for (symbol, *operands), name in tape.items():
        (un, ud), *other = [value[v] if isinstance(v, str) else (v, ()) for v in operands]
        if not other:  # unary minus
            value[name] = (negated(un), ud)
            continue
        [(vn, vd)] = other
        # the literal 0 that `Dual`'s lift brings folds away (`1 *` is never recorded)
        if symbol == "*":
            value[name] = (0, ()) if un == 0 or vn == 0 else (let(f"{un} * {vn}"), merged(*ud, *vd))
            continue
        rest, extra = cancel(ud, vd)
        left = scaled(un, extra)  # u's numerator over the denominator u and v share
        if symbol == "/":
            if not (type(vn) is int and vn) and vn not in checked:
                checked.add(vn)
                lines.append(f"if not {vn}: raise ZeroDivisionError")
            if not signed:
                value[name] = (left, merged(*rest, vn))
            elif type(vn) is int:
                value[name] = (left if vn > 0 else negated(left), merged(*rest, abs(vn)))
            else:
                value[name] = (left if left == 0 else let(f"{left} if {vn} > 0 else {minus(left)}"),
                               merged(*rest, let(f"{vn} if {vn} > 0 else -{vn}")))
            continue
        right = scaled(vn, rest)
        if symbol in ("<", ">"):  # over positive denominators, the order of the numerators
            value[name] = (let(f"{left} {symbol} {right}"), ())
        elif vn == 0:
            value[name] = (un, ud)
        elif un == 0 and symbol == "+":
            value[name] = (vn, vd)
        else:
            value[name] = (let(f"{left} {symbol} {right}"), merged(*ud, *extra))

    def leaf(v) -> str:
        n, d = value[v.name]
        return f"({n}, {product(d) if d else 1})" if denominators else str(n)

    return _define(lines, out, leaf, f"<exact {kernel.__qualname__} k={k}>")[0]


def traced(kernel):
    """A pure kernel f(p, x, *extra) run as straight-line code compiled once
    per k; extra are scalars past the point, such as a step size (the tracer
    records no float literal). The first call at dimension p.k traces f on
    `Recording` inputs and compiles what it recorded; that call and every
    later one at p.k run the compiled function. It performs f's operations,
    each distinct one once (a repeat, also a commuted `+` or `*`, reuses the
    first result), and no `1 * v`: IEEE 754 `+` and `*` commute exactly and
    `1 * v` is v for every float, so its results are f's, bit for bit. f
    stays the source, as `__wrapped__`; `compiled` maps k to its function,
    which `at(k)` returns, compiled on first use: `run` looks it up on every
    call, a driver once per run. A namedtuple result is built in C, by
    `tuple.__new__`; a result of another tuple subclass raises TypeError.

    `exact_form(k, denominators=False, common=True)` is f's exact form at
    dimension k (`compile_exact`), a function of (an, ad, D, n), or with
    `common` false of (an, ad, d, n), then one (numerator, denominator) pair
    per extra input, built on first use and kept in `compiled_exact` under
    (k, denominators, common): the `verify` suites run the numerators over a
    common denominator, the exact orbit rows `level_signature`'s pairs and
    the reduce replay the reduced step's over each coordinate's own."""
    compiled, compiled_exact = {}, {}

    def at(k: int):
        if k not in compiled:
            compiled[k] = _compile(kernel, k)
        return compiled[k]

    @functools.wraps(kernel)
    def run(p, x, *extra):
        return at(p.k)(p, x, *extra)

    def exact_form(k: int, denominators: bool = False, common: bool = True):
        key = (k, denominators, common)
        if key not in compiled_exact:
            compiled_exact[key] = compile_exact(kernel, k, denominators, common)
        return compiled_exact[key]

    run.at, run.compiled, run.compiled_exact, run.exact_form = at, compiled, compiled_exact, exact_form
    return run
