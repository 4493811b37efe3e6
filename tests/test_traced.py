"""Traced kernels: `step`, `inverse_step`, the symmetry field, the level
signatures and the residuals of the verify suites (five of them the public
residuals' own kernels) run as straight-line code compiled once per k, a
kernel that takes a `jvp` among them. The compiled form must give its body's
results (`__wrapped__`) in value and type, bit for bit over floats, and a
body that branches on a value must fail when traced. A repeated operation,
also a commuted `+` or `*`, is compiled once, a product with the literal 1
not at all; nothing is re-associated, and the compiled sources of the float
kernels are pinned by digest. A kernel's exact form
keeps the value of every int literal it folds, gives a comparison's 0 or 1
over either layout of the point (also where a divisor is negative), and
takes each extra input as a (numerator, denominator) pair
(tests/test_verify.py checks the exact forms of the suites)."""

import hashlib
import linecache
import math
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from lynesslab import tracing  # noqa: E402
from lynesslab.flow import _rk4_stages  # noqa: E402
from lynesslab.invariants import LevelSignature, level_signature, level_signatures  # noqa: E402
from lynesslab.lyness import Params, float_point, inverse_step, orbit, step  # noqa: E402
from lynesslab.scalars import Dual, common_denominator, jvp  # noqa: E402
from lynesslab.symmetry import symmetry_vector  # noqa: E402
from lynesslab.tracing import traced  # noqa: E402
from lynesslab.verify import SUITES  # noqa: E402

TRACED = (step, inverse_step, symmetry_vector, level_signature)

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=40)

# moderate coordinates, and ones whose products overflow to inf (and inf/inf to nan)
moderate = st.floats(min_value=1e-3, max_value=1e3)
huge = st.floats(min_value=1e150, max_value=1.7e308)
positive = st.fractions(min_value=Fraction(1, 100), max_value=100, max_denominator=100)
parameter = st.fractions(min_value=0, max_value=20, max_denominator=10)


def _shape(v):
    """v in a form that compares value and type: a float by its hex, a Dual
    by its parts."""
    if isinstance(v, LevelSignature):
        return (LevelSignature, _shape([v.v1, v.v2, v.v3, v.z_sign]))
    if isinstance(v, (tuple, list)):
        return [_shape(c) for c in v]
    if isinstance(v, Dual):
        return (Dual, _shape(v.value), _shape(v.deriv))
    if isinstance(v, float):
        return (float, v.hex())
    return (type(v), v)


def _outcome(kernel, p, x, *extra):
    try:
        return _shape(kernel(p, x, *extra))
    except ArithmeticError as exc:
        return type(exc)


def _assert_traced_equals_body(p, x):
    for fn in TRACED:
        assert _outcome(fn.kernel, p, x) == _outcome(fn.kernel.__wrapped__, p, x), fn.__name__


def _suite_residuals(k: int) -> list:
    """The traced residuals of the verify suites that apply to k."""
    return [residual for _, na, residual in SUITES if na(k) is None]


@SETTINGS
@given(data=st.data(), k=st.integers(3, 8), a=st.floats(min_value=0, max_value=20))
def test_float_kernels_give_the_bits_of_their_body(data, k, a):
    x = data.draw(st.tuples(*[st.one_of(moderate, huge)] * k))
    _assert_traced_equals_body(Params(k, a), x)


@pytest.mark.parametrize("k", range(3, 9))
def test_float_kernels_past_the_float64_range_give_the_bits_of_their_body(k):
    p = Params(k, 1.0)
    x = (1e300,) * k
    assert not all(map(math.isfinite, symmetry_vector.kernel(p, x)))
    _assert_traced_equals_body(p, x)


@SETTINGS
@given(data=st.data(), k=st.integers(3, 8), a=parameter)
def test_exact_and_dual_kernels_give_the_values_and_types_of_their_body(data, k, a):
    x = data.draw(st.tuples(*[positive] * k))
    v = data.draw(st.tuples(*[st.integers(-3, 3)] * k))
    p = Params(k, a)
    for point in (x, tuple(map(Dual, x, v))):
        _assert_traced_equals_body(p, point)


@pytest.mark.parametrize("k", range(3, 10))
def test_suite_residuals_give_the_values_and_types_of_their_body(k):
    exact = tuple(Fraction(2 * i + 3, i + 2) for i in range(k))
    points = {Params(k, Fraction(7, 3)): (exact,), Params(k, 0.7): (tuple(0.3 + 0.41 * i for i in range(k)),)}
    residuals = _suite_residuals(k)
    assert len(residuals) == (16 if k % 2 else 8)  # of 17: 1 n/a at odd k, 9 at even k
    for p, xs in points.items():
        for x in xs:
            for residual in residuals:
                assert _outcome(residual, p, x) == _outcome(residual.__wrapped__, p, x), residual.__name__


def _rk4_inputs(h: float) -> tuple:
    """The extra inputs of one RK4 step of size h: half, h and h6."""
    return 0.5 * h, h, h / 6.0


@SETTINGS
@given(data=st.data(), k=st.integers(3, 8), a=st.floats(min_value=0, max_value=20),
       h=st.floats(min_value=1e-4, max_value=1.0), sign=st.sampled_from((1.0, -1.0)))
def test_the_rk4_step_gives_the_bits_of_its_body(data, k, a, h, sign):
    x = data.draw(st.tuples(*[st.one_of(moderate, huge)] * k))
    p, extra = Params(k, a), _rk4_inputs(sign * h)
    assert _outcome(_rk4_stages, p, x, *extra) == _outcome(_rk4_stages.__wrapped__, p, x, *extra)


@pytest.mark.parametrize("k", range(3, 9))
@pytest.mark.parametrize("h", [0.1, -0.1])
def test_the_rk4_step_past_the_float64_range_gives_the_bits_of_its_body(k, h):
    p, extra = Params(k, 1.0), _rk4_inputs(h)
    for x in ((1e300,) * k, (1e300,) + (1e-200,) * (k - 1)):
        assert _outcome(_rk4_stages, p, x, *extra) == _outcome(_rk4_stages.__wrapped__, p, x, *extra)
    # the product of the small coordinates underflows to 0.0, and both divide by it
    assert _outcome(_rk4_stages, p, x, *extra) is ZeroDivisionError
    assert linecache.getlines(f"<traced _rk4_stages k={k}>")[0] == "def kernel(p, x, half, h, h6):\n"


@pytest.mark.parametrize("name", ["a", "x0", "x2", "t0", "t17"])
def test_an_extra_input_may_not_take_a_name_of_the_compiled_code(name):
    run = traced(eval(f"lambda p, x, {name}: (x[0] * {name},)"))
    with pytest.raises(ValueError):
        run(Params(3, 1.0), (2.0, 1.0, 1.0), 3.0)
    assert run.compiled == {}


def test_an_extra_input_is_an_input_of_the_compiled_code():
    run = traced(lambda p, x, t, x_: (x[0] * t + x_,))
    assert run(Params(3, 1.0), (2.0, 1.0, 1.0), 3.0, 0.5) == (6.5,)
    assert _recorded(run, 3) == ["x0 * t", "t0 + x_"]


def test_the_exact_form_keeps_the_value_of_every_int_literal():
    @traced
    def literals(p, x):
        zero = x[0] * 0
        return (0 - x[0], zero - x[1], zero + x[2], 1 * x[0], x[1] * 1, x[0] / 3 - 1,
                -(x[1] / x[2]), x[0] - 0, 0 / x[1], p.a * x[0] / 2, 1 / x[0] * x[1], -zero,
                x[2] / -4, -1 / (x[0] - x[1]))

    p, x = Params(3, Fraction(7, 3)), (Fraction(1, 2), Fraction(5, 3), Fraction(4))
    want = literals(p, x)
    pairs = tracing.compile_exact(literals.__wrapped__, 3, denominators=True)(7, 3, *common_denominator(x))
    assert [Fraction(*pair) for pair in pairs] == list(want)
    assert [v == 0 for v in literals.exact_form(3)(7, 3, *common_denominator(x))] == [v == 0 for v in want]


def _orders(p, x):
    """Comparisons of values over different denominators, of a value with a
    literal on either side, and of a quotient whose divisor x1 - x2 may be
    negative, whose sign the exact form moves to the numerator."""
    quotient = x[0] / (x[1] - x[2])
    return (x[0] < x[1], x[0] > x[1], x[1] < x[0], quotient > 0, quotient < 0, 0 < quotient,
            p.a * x[2] > x[0] / 3, x[1] / -2 < -x[0], -quotient > 1, (quotient > 0) - (quotient < 0))


@pytest.mark.parametrize("common", [True, False], ids=["common denominator", "own denominators"])
def test_a_comparisons_exact_form_gives_the_generic_0_or_1(common):
    pairs = tracing.compile_exact(_orders, 3, denominators=True, common=common)
    numerators = traced(_orders).exact_form(3, common=common)
    p = Params(3, Fraction(7, 3))
    # x0 below, above and at x1; x1 below and above x2, a quotient at 1 and at -1
    points = [(Fraction(1, 2), Fraction(5, 3), Fraction(4)), (Fraction(5, 2), Fraction(2, 3), Fraction(1, 7)),
              (Fraction(3, 2), Fraction(6, 4), Fraction(9, 5)), (Fraction(3, 4), Fraction(5, 4), Fraction(1, 2)),
              (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)), (Fraction(2), Fraction(1), Fraction(3, 7))]
    for x in points:
        want = [int(v) for v in _orders(p, x)]
        d, n = common_denominator(x) if common else (tuple(c.denominator for c in x), tuple(c.numerator for c in x))
        assert [Fraction(*pair) for pair in pairs(7, 3, d, n)] == want
        assert list(numerators(7, 3, d, n)) == want
    assert {tuple(_orders(p, x)[:3]) for x in points} == {(True, False, False), (False, True, True),
                                                          (False, False, False)}
    assert {_orders(p, x)[-1] for x in points} == {-1, 1}


def test_an_extra_input_of_the_exact_form_is_a_rational_pair():
    run = traced(lambda p, x, h, g: (x[0] * h + g / x[1], h / g - p.a, h * g - g * h))
    p, x = Params(3, Fraction(7, 3)), (Fraction(1, 2), Fraction(5, 3), Fraction(4))
    h, g = Fraction(-3, 8), Fraction(5, 6)
    want = run.__wrapped__(p, x, h, g)
    assert run(p, x, h, g) == want and want[-1] == 0
    for common in (True, False):
        d, n = common_denominator(x) if common else (tuple(c.denominator for c in x), tuple(c.numerator for c in x))
        pairs = run.exact_form(3, denominators=True, common=common)(7, 3, d, n, (-3, 8), (5, 6))
        assert [Fraction(*pair) for pair in pairs] == list(want)
        numerators = run.exact_form(3, common=common)(7, 3, d, n, (-3, 8), (5, 6))
        assert [v == 0 for v in numerators] == [v == 0 for v in want]


def _branches(p, x):
    if x[0] > 1:
        return (x[0],)
    return (x[1],)


def _equal(p, x):
    return (x[0] == x[1],)


def _absolute(p, x):
    return (abs(x[0]),)


def _power(p, x):
    return (x[0] ** 2,)


def _float_literal(p, x):
    return (0.5 * x[0],)


@pytest.mark.parametrize("body", [_branches, _equal, _absolute, _power, _float_literal])
def test_a_kernel_that_is_not_ring_arithmetic_fails_when_traced(body):
    run = traced(body)
    with pytest.raises(TypeError):
        run(Params(3, 1.0), (2.0, 1.0, 1.0))
    assert run.compiled == {}


def test_a_kernel_traced_inside_another_records_into_its_tape():
    @traced
    def twice(p, x):
        return step.kernel(p, step.kernel(p, x))

    p = Params(4, Fraction(1, 3))
    x = (Fraction(1), Fraction(2), Fraction(3), Fraction(4))
    assert twice(p, x) == step(p, step(p, x))
    assert twice(Params(4, 0.5), (1.0, 2.0, 3.0, 4.0)) == step.kernel.__wrapped__(
        Params(4, 0.5), step.kernel.__wrapped__(Params(4, 0.5), (1.0, 2.0, 3.0, 4.0))
    )
    # one straight-line function holding both steps' divisions, with no call to step
    source = linecache.getlines(f"<traced {twice.__qualname__} k=4>")
    assert sum(" / " in line for line in source) == 2
    assert "step" not in twice.compiled[4].__code__.co_names


def test_a_kernel_that_takes_a_jvp_traces():
    @traced
    def slope(p, x):
        return (jvp(lambda pt: pt[0] * pt[1] / (p.a + pt[2]), x, x[::-1]),)

    for p, x in ((Params(3, Fraction(1, 3)), (Fraction(1, 2), Fraction(2), Fraction(3, 5))),
                 (Params(3, 0.7), (0.5, 2.0, 0.6))):
        assert _outcome(slope, p, x) == _outcome(slope.__wrapped__, p, x)
    # the dual pass ran once, when traced: the compiled code is plain arithmetic
    assert slope.compiled[3].__code__.co_names == ("a",)


def test_a_long_orbit_compiles_each_kernel_once_per_k(monkeypatch):
    compiled = []
    real = tracing._compile
    monkeypatch.setattr(tracing, "_compile", lambda kernel, k: compiled.append((kernel.__name__, k)) or real(kernel, k))
    for fn in (step, inverse_step, level_signature):
        for k in list(fn.kernel.compiled):
            monkeypatch.delitem(fn.kernel.compiled, k)
    p, x0 = float_point(Params(5, 1), (1, 2, 3, 4, 5))
    forward = list(orbit(p, x0, 1000))
    assert len(forward) == len(list(orbit(p, forward[-1], -1000))) == 1001
    assert len(list(level_signatures(p, forward))) == 1001
    exact = Params(5, Fraction(1))  # the same k, so the same compiled kernels
    assert len(list(level_signatures(exact, orbit(exact, (1, 2, 3, 4, 5), 30)))) == 31
    assert compiled == [("step", 5), ("inverse_step", 5), ("level_signature", 5)]


def test_at_k_is_the_compiled_function_built_once_per_k(monkeypatch):
    compiled = []
    real = tracing._compile
    monkeypatch.setattr(tracing, "_compile", lambda kernel, k: compiled.append((kernel.__name__, k)) or real(kernel, k))
    for k in list(step.kernel.compiled):
        monkeypatch.delitem(step.kernel.compiled, k)
    for k in (3, 4, 3, 5, 4):
        fn = step.kernel.at(k)
        assert fn is step.kernel.compiled[k] is step.kernel.at(k)
        x = tuple(0.3 + 0.41 * i for i in range(k))
        for p in (Params(k, 0.7), Params(k, Fraction(7, 10))):
            assert _shape(fn(p, x)) == _shape(step.kernel(p, x))
    assert compiled == [("step", 3), ("step", 4), ("step", 5)]
    p, x, extra = Params(4, 0.7), (1.0, 2.0, 3.0, 4.0), _rk4_inputs(0.01)
    assert _shape(_rk4_stages.at(4)(p, x, *extra)) == _shape(_rk4_stages(p, x, *extra))


@pytest.mark.parametrize("k", range(3, 10))
def test_a_compiled_level_signature_is_a_level_signature(k):
    """The compiled kernel builds its namedtuple with `tuple.__new__`: the
    same type, fields and values as the constructor gives, over every
    backend and in the exact form."""
    a, x = Fraction(7, 10), tuple(Fraction(2 * i + 3, i + 2) for i in range(k))
    results = [level_signature.kernel(Params(k, a), x),
               level_signature.kernel(Params(k, float(a)), tuple(map(float, x))),
               level_signature.kernel(Params(k, a), tuple(map(Dual, x, range(k)))),
               level_signature.kernel.exact_form(k)(a.numerator, a.denominator, *common_denominator(x)),
               level_signature.kernel.exact_form(k, denominators=True, common=False)(
                   a.numerator, a.denominator, tuple(c.denominator for c in x), tuple(c.numerator for c in x))]
    for r in results:
        assert type(r) is LevelSignature and r == LevelSignature(*r)
        assert (r.v3 is None) == (r.z_sign is None) == (k % 2 == 0)
    assert results[0] == level_signature.kernel.__wrapped__(Params(k, a), x)


class _Pair(tuple):
    """A tuple subclass that is not a namedtuple, with a constructor that does
    not take its items."""

    def __new__(cls, first, second):
        return super().__new__(cls, (first, -second))


class _Levels(LevelSignature):
    """A subclass of a namedtuple, with a constructor of its own."""

    def __new__(cls, v1, v2):
        return super().__new__(cls, v2, v1)


@pytest.mark.parametrize("cls", [_Pair, _Levels])
def test_a_tuple_subclass_that_is_not_a_namedtuple_fails_when_traced(cls):
    """Rebuilt from its items, such a result could differ from the body's, so
    the kernel raises TypeError on its first call at k and compiles nothing."""
    @traced
    def kernel(p, x):
        return cls(x[0] + x[1], x[0] * x[1])

    p, x = Params(2, 0.5), (1.5, 2.5)
    assert type(kernel.__wrapped__(p, x)) is cls
    with pytest.raises(TypeError, match=f"tuples and namedtuples, not {cls.__name__}"):
        kernel(p, x)
    assert kernel.compiled == {}


def _recorded(run, k: int) -> list:
    """The right-hand sides of the operations compiled for run at k, in order."""
    source = linecache.getlines(f"<traced {run.__qualname__} k={k}>")
    return [line.split(" = ", 1)[1].strip() for line in source if line.lstrip().startswith("t")]


def _unordered(line: str):
    """A compiled operation with the operands of a `+` or `*` as a set, so
    that commuted copies compare equal."""
    parts = line.split(" ")
    return (parts[1], frozenset(parts[::2])) if len(parts) == 3 and parts[1] in ("+", "*") else line


@pytest.mark.parametrize("k", range(3, 10))
def test_no_compiled_kernel_repeats_an_operation(k):
    for run in [fn.kernel for fn in TRACED] + _suite_residuals(k):
        run(Params(k, 1.0), (2.0,) * k)
        lines = _recorded(run, k)
        assert lines and len(set(map(_unordered, lines))) == len(lines), run.__qualname__


@pytest.mark.parametrize("k", range(3, 10))
def test_no_compiled_float_kernel_multiplies_by_1_adds_to_0_or_commutes_a_repeat(k):
    for body in [fn.kernel.__wrapped__ for fn in TRACED] + [_rk4_stages.__wrapped__]:
        tracing._compile(body, k)
        lines = _recorded(body, k)
        assert not [line for line in lines if line.startswith(("1 * ", "0 + ")) or line.endswith(" * 1")], body.__name__
        assert len(set(map(_unordered, lines))) == len(lines), body.__name__


def test_a_repeated_operation_is_compiled_once():
    @traced
    def twice(p, x):
        return (x[0] * x[1] + x[0] * x[1],)

    assert twice(Params(3, 1.0), (2.0, 3.0, 5.0)) == (12.0,)
    assert _recorded(twice, 3) == ["x0 * x1", "t0 + t0"]


def test_a_commuted_repeat_is_compiled_once_and_nothing_is_reassociated():
    @traced
    def variants(p, x):
        return (x[0] + 1, 1 + x[0], x[1] * x[0], x[0] * x[1], (x[0] + x[1]) + x[2], x[0] + (x[1] + x[2]),
                1 * x[2], x[2] * 1)

    assert variants(Params(3, 1.0), (0.1, 0.2, 0.3)) == (1.1, 1.1, 0.020000000000000004, 0.020000000000000004,
                                                         0.6000000000000001, 0.6, 0.3, 0.3)
    # a commuted repeat keeps the order recorded first; a product with 1 records nothing
    assert _recorded(variants, 3) == ["x0 + 1", "x1 * x0", "x0 + x1", "t2 + x2", "x1 + x2", "x0 + t4"]
    source = linecache.getlines(f"<traced {variants.__qualname__} k=3>")
    assert source[-1].strip() == "return (t0, t0, t1, t1, t3, t5, x2, x2, )"


# float bits of the field and the level signatures at a = 0.7, x_i = 0.3 + 0.41 i,
# as computed by the kernels before the tracer shared any operation
GOLDEN = {
    6: (["0x1.092309c4afaafp+8", "-0x1.e311c32a401bcp+8", "-0x1.042001aa03828p+9",
         "-0x1.0c7c04102f5f6p+9", "-0x1.10f4dc3663df8p+9", "-0x1.aa570d70f59b1p+11"],
        ("0x1.3138c314e38fep+9", "0x1.5902f8cb8726cp+11", None, None)),
    8: (["0x1.3d32044d4d54cp+11", "-0x1.e527e486e71d4p+11", "-0x1.053fa083cfa1ap+12",
         "-0x1.0da4e11fe46aap+12", "-0x1.1222ab211f71dp+12", "-0x1.14d187f0d630ap+12",
         "-0x1.168c927d77492p+12", "-0x1.1e3c89a77b4a1p+15"],
        ("0x1.ccfaf8c7b37c3p+10", "0x1.5a807398c6071p+14", None, None)),
    9: (["0x1.c33f5ba2c3b37p+12", "-0x1.452b7479e68e6p+13", "-0x1.5e327febf8b4fp+13",
         "-0x1.697385118529cp+13", "-0x1.6f78c8ab2c401p+13", "-0x1.7311819a06a36p+13",
         "-0x1.75636462a304bp+13", "-0x1.76f8c462d0fb1p+13", "-0x1.aff22c072b097p+16"],
        ("0x1.6f46cbd137f0fp+11", "0x1.d07a2446c358dp+15", "0x1.774b26b413e06p+7", -1)),
}


@pytest.mark.parametrize("k", sorted(GOLDEN))
def test_golden_float_bits_of_the_field_and_the_levels(k):
    p, x = Params(k, 0.7), tuple(0.3 + 0.41 * i for i in range(k))
    field, (v1, v2, v3, sign) = GOLDEN[k]
    assert [c.hex() for c in symmetry_vector(p, x)] == field
    sig = level_signature(p, x)
    assert (sig.v1.hex(), sig.v2.hex(), sig.v3 and sig.v3.hex(), sig.z_sign) == (v1, v2, v3, sign)


# sha256 of each float kernel's compiled sources at k = 3..9, in order. Float
# bits under every interpreter follow the operation order these sources fix.
SOURCE_DIGESTS = {
    "step": "29bfa434d2b6220ffb182a1f793fae82663dd43b94c697ff93d82b9b9bba5ce6",
    "inverse_step": "223aab24ae05dcd0718c301271a5850a68cb4642b56b6fba417e6545886e6bd5",
    "symmetry_vector": "3f9e13c20b52fcb39abe002680bd26e51ba0da7079bc2e37269185f348f6a46e",
    "level_signature": "270a7925cc83eed6f47e47796f8ee178f64172bc1ea7df29ea94e4c2fe8678e6",
    "_rk4_stages": "4f85987664b7cb338f4622fce5ce677ab218a0ff91dd5126a67b7c7265a4835d",
}


@pytest.mark.parametrize("body", [fn.kernel.__wrapped__ for fn in TRACED] + [_rk4_stages.__wrapped__],
                         ids=lambda body: body.__name__)
def test_the_float_kernels_keep_their_compiled_operation_order(body):
    digest = hashlib.sha256()
    for k in range(3, 10):
        tracing._compile(body, k)  # afresh: a test may have traced a patched body under this name
        digest.update("".join(linecache.getlines(f"<traced {body.__qualname__} k={k}>")).encode())
    assert digest.hexdigest() == SOURCE_DIGESTS[body.__name__]
