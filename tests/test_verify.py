"""Identity suites: k and the trial count are checked before any suite runs,
each trial draws one point and validates none (the draw is positive by
construction), five suites hold their public residual's traced kernel (so
`verify` builds their exact forms, a public call afterwards builds only the
generic form and a second one nothing), the shift
law and the symmetry condition evaluate the field once at x and once at F(x)
and integral annihilation evaluates it once (each inlined into an exact form
that calls no function), a wrong field fails every suite that uses it, every
suite runs its exact form, which gives the same verdict on a point cleared
to its common denominator as the `Fraction` point it was made from, each
exact form's numerators over their denominators are the generic kernel's
components (over a common denominator and over each coordinate's own) and it
raises where the generic kernel divides by zero, the exact forms take no gcd,
the suites check the common-denominator image of each drawn point, the
determinant oracle expands dense rational matrices exactly and DF(x) in O(k)
lines, and a wrong closed form of det DF, or a step that is F^2, fails the
suite that checks it."""

import dis
import functools
import math
import sys
from fractions import Fraction

import pytest

from lynesslab import lyness, sampling, tracing, verify
from lynesslab.dynamics import measure_density_residual
from lynesslab.errors import DimensionError
from lynesslab.invariants import eval_z
from lynesslab.lyness import Params
from lynesslab.sampling import random_point, stream
from lynesslab.scalars import common_denominator, fold
from lynesslab.symmetry import (
    compatibility_residual, factorization_residual, lie_residual, shift_residual, shift_residuals,
    symmetry_vector,
)
from lynesslab.verify import run_suites
from test_lyness import _det_by_elimination


@pytest.mark.parametrize("k", [3, 5, 6])
def test_suites_draw_one_point_per_trial_and_validate_none(k, monkeypatch):
    draws, checks = [], []
    real = sampling.random_common_point
    monkeypatch.setattr(verify, "random_common_point", lambda rng, n: draws.append(n) or real(rng, n))
    for name, module in list(sys.modules.items()):
        if name.startswith("lynesslab") and hasattr(module, "require_point"):
            monkeypatch.setattr(module, "require_point", lambda p, x: checks.append(x))
    results = run_suites(k, 1, 2, 0)
    assert all(r.failures == 0 for r in results)
    assert draws == [k] * sum(r.trials for r in results)
    assert checks == []


@pytest.mark.parametrize(("k", "trials", "error", "message"), [
    (2, 1, DimensionError, "verification suites need k >= 3, got k=2"),
    (1, 1, DimensionError, "verification suites need k >= 3, got k=1"),
    (0, 1, DimensionError, "verification suites need k >= 3, got k=0"),
    (3, 0, ValueError, "the number of trials must be >= 1, got 0"),
    (8, 0, ValueError, "the number of trials must be >= 1, got 0"),
    (3, -1, ValueError, "the number of trials must be >= 1, got -1"),
])
def test_suites_check_k_and_trials_before_any_suite_runs(k, trials, error, message, monkeypatch):
    drawn = []
    monkeypatch.setattr(verify, "random_common_point", lambda rng, k: drawn.append(k))
    with pytest.raises(error, match=f"^{message}$"):
        run_suites(k, 1, trials, 0)
    assert drawn == []


def _components(r) -> list:
    """A residual's values: its tuple, or a scalar as its one value."""
    return list(r) if isinstance(r, tuple) else [r]


def _only(monkeypatch, name):
    monkeypatch.setattr(verify, "SUITES", tuple(s for s in verify.SUITES if s[0] == name))


def test_every_suite_holds_a_traced_residual():
    assert len(verify.SUITES) == 17
    assert all(hasattr(residual, "exact_form") for _, _, residual in verify.SUITES)


@pytest.fixture
def fresh_suites():
    """Empty both compiled caches (generic and exact) of every suite
    residual for the test, so a patched kernel reaches each suite traced while
    it is patched, then restore every cache, so no patched compilation
    outlives the test."""
    caches = [cache for _, _, residual in verify.SUITES
              for cache in (residual.compiled, residual.compiled_exact)]
    saved = [dict(cache) for cache in caches]
    for cache in caches:
        cache.clear()
    yield
    for cache, entries in zip(caches, saved):
        cache.clear()
        cache.update(entries)


PUBLIC_RESIDUALS = {
    "symmetry condition": lie_residual,
    "shift law": shift_residuals,
    "compatibility identity": compatibility_residual,
    "sum factorization": factorization_residual,
    "density laws (F^2)": measure_density_residual,
}


def test_five_suites_hold_their_public_residuals_kernel():
    held = {name: residual for name, _, residual in verify.SUITES}
    for name, public in PUBLIC_RESIDUALS.items():
        assert held[name] is public.kernel, name


@pytest.mark.parametrize("k", [3, 6, 7])
def test_a_public_residual_runs_what_its_suite_compiled(k, monkeypatch, fresh_suites):
    built = []
    for form in ("_compile", "compile_exact"):
        real = getattr(tracing, form)
        monkeypatch.setattr(tracing, form, lambda kernel, *args, real=real, form=form:
                            built.append((form, kernel.__name__)) or real(kernel, *args))
    applicable = [PUBLIC_RESIDUALS[name] for name, na, _ in verify.SUITES
                  if name in PUBLIC_RESIDUALS and na(k) is None]
    names = {public.__name__ for public in applicable}
    assert len(applicable) == {3: 4, 6: 4, 7: 5}[k]
    assert all(r.failures == 0 for r in run_suites(k, 1, 1, 0))
    # the suites built each public residual's exact form, once, and no generic form of it
    assert sorted(name for form, name in built if name in names) == sorted(names)
    assert all(form == "compile_exact" for form, name in built if name in names)
    built.clear()
    p = Params(k, Fraction(1))
    x = tuple(Fraction(i + 2, i + 1) for i in range(k))
    for public in applicable:
        assert _passes(public, p, x), public.__name__
        exact = _at_point(public.kernel.exact_form(k))  # the form the suite built
        assert not any(_components(exact(p, x))), public.__name__
    assert [shift_residual(p, x, i) for i in range(1, k)] == [0] * (k - 1)
    # a public call compiles its generic form once; the exact form is not rebuilt
    assert sorted(built) == sorted(("_compile", name) for name in names)
    built.clear()
    for public in applicable:
        assert _passes(public, p, x), public.__name__
    assert built == []


def _field_calls(monkeypatch, name, k):
    """Distinct points the field is evaluated at in two runs of the one suite
    `name` at k, of 3 and then 5 trials: each is a traced point, named by its
    recordings, because the suite runs its residual's exact form, which calls
    no function at all (the generic form is not built), and the tracer merges
    a repeated call at one point into one."""
    points = set()
    real = symmetry_vector.kernel
    monkeypatch.setattr(symmetry_vector, "kernel",
                        lambda p, x: points.add(tuple(c.name for c in x)) or real(p, x))
    _only(monkeypatch, name)
    for trials in (3, 5):
        [result] = run_suites(k, 1, trials, 0)
        assert (result.name, result.trials, result.failures) == (name, trials, 0)
    [residual] = [r for n, _, r in verify.SUITES if n == name]
    assert k not in residual.compiled
    code = residual.exact_form(k).__code__
    assert code.co_names == ("ZeroDivisionError",)  # raised, never called: no call to the field
    assert not [i.opname for i in dis.get_instructions(code) if "CALL" in i.opname]
    return len(points)


@pytest.mark.parametrize("k", [3, 8])
def test_shift_law_evaluates_the_field_twice_per_trial(k, monkeypatch, fresh_suites):
    # traced once per k with one X(x) and one X(F(x)), both inlined into every trial
    assert _field_calls(monkeypatch, "shift law", k) == 2


FIELD_SUITES = ("symmetry condition", "shift law", "compatibility identity", "integral annihilation")


@pytest.mark.parametrize("k", [3, 4, 5, 8])
def test_a_perturbed_field_fails_every_field_suite(k, monkeypatch, fresh_suites):
    real = symmetry_vector.kernel

    def perturbed(p, x):  # ring arithmetic, so the suites trace it
        out = list(real(p, x))
        out[1] = out[1] * (10**9 + 1) / 10**9
        return tuple(out)

    monkeypatch.setattr(symmetry_vector, "kernel", perturbed)
    by_name = {r.name: r for r in run_suites(k, 1, 2, 0)}
    for name in FIELD_SUITES:
        if name == "integral annihilation" and k > 5:
            assert by_name[name].status == verify.NA
        else:
            assert by_name[name].failures == 2, name
    assert by_name["V1 invariance"].failures == 0


@pytest.mark.parametrize("k", [3, 4, 5])
def test_integral_annihilation_evaluates_the_field_once_per_trial(k, monkeypatch, fresh_suites):
    # traced once per k with one X(x), along which every integral is differentiated
    assert _field_calls(monkeypatch, "integral annihilation", k) == 1


@pytest.mark.parametrize("k", [3, 8])
def test_symmetry_condition_evaluates_the_field_twice_and_builds_no_jacobian(
        k, monkeypatch, fresh_suites):
    def no_jacobian(p, x):
        raise AssertionError("the symmetry condition built DF(x)")

    monkeypatch.setattr(lyness.jacobian, "kernel", no_jacobian)
    assert _field_calls(monkeypatch, "symmetry condition", k) == 2


def _passes(residual, p, x) -> bool:
    r = residual(p, x)
    return all(v == 0 for v in (r if isinstance(r, tuple) else (r,)))


def _exact_verdict(residual, p, x):
    """The verdict `run_suites` reaches: on the exact form at x's common denominator."""
    return not any(_components(_at_point(residual.exact_form(p.k))(p, x)))


def _verdicts(k, points=5):
    """{(a, suite): [(verdict on the Fraction point, by `run_suites`' path on
    the point cleared to its common denominator)]} over seeded points, for
    every suite that applies to k."""
    out = {}
    for a in (Fraction(0), Fraction(1), Fraction(7, 3)):
        p = Params(k, a)
        for name, na, residual in verify.SUITES:
            if na(k) is None:
                check = functools.partial(_passes, residual, p)
                rng = stream(f"backends|k={k}|a={a}|{name}", 0)
                xs = [lyness.require_point(p, random_point(rng, k)) for _ in range(points)]
                out[a, name] = [(check(x), _exact_verdict(residual, p, x)) for x in xs]
    return out


@pytest.mark.parametrize("k", range(3, 9))
def test_every_check_gives_the_same_verdict_on_cleared_and_fraction_points(k):
    for key, pairs in _verdicts(k).items():
        assert all(pair == (True, True) for pair in pairs), key


@pytest.mark.parametrize("k", [3, 5, 6])
def test_a_broken_field_fails_on_both_backends(k, monkeypatch, fresh_suites):
    real = symmetry_vector.kernel

    def broken(p, x):  # ring arithmetic, so the suites trace it
        out = list(real(p, x))
        out[0] = out[0] * (10**6 + 1) / 10**6
        return tuple(out)

    monkeypatch.setattr(symmetry_vector, "kernel", broken)
    for (a, name), pairs in _verdicts(k).items():
        want = name not in FIELD_SUITES
        assert all(pair == (want, want) for pair in pairs), (a, name)


@pytest.mark.parametrize("k", [3, 6])
def test_suites_check_the_common_denominator_image_of_each_drawn_point(k, monkeypatch, fresh_suites):
    """Each suite checks the points `random_point` draws on the suite's own
    stream, over D, the lcm of a point's denominators: its exact form, the
    one path of every suite, takes (an, ad, D, n) with x_i = n_i / D."""
    a, seed, trials = Fraction(7, 3), 0, 2
    expected = []
    for name, na, _ in verify.SUITES:
        if na(k) is None:
            rng = stream(f"{seed}|k={k}|a={a}|{name}", seed)
            for x in [random_point(rng, k) for _ in range(trials)]:
                d = math.lcm(*(q.denominator for q in x))
                expected.append((7, 3, d, tuple(int(q * d) for q in x)))
    checked = []

    def spying(kernel, *args, real=tracing.compile_exact):
        fn = real(kernel, *args)
        return lambda an, ad, d, ns: checked.append((an, ad, d, ns)) or fn(an, ad, d, ns)

    monkeypatch.setattr(tracing, "compile_exact", spying)
    results = run_suites(k, a, trials, seed)
    assert all(r.failures == 0 for r in results)
    assert sum(r.trials for r in results) == len(expected)
    assert checked == expected


def _exact_kernels(k: int) -> list:
    """The traced residuals of the suites that apply to k, and three kernels
    whose components are not 0: F, F^-1 and the field."""
    return [lyness.step.kernel, lyness.inverse_step.kernel, symmetry_vector.kernel] + [
        residual for _, na, residual in verify.SUITES if na(k) is None]


def _at_point(form):
    """An exact form of (an, ad, D, n) as a function of (p, x), at x's common denominator."""
    return lambda p, x: form(p.a.numerator, p.a.denominator, *common_denominator(x))


def _assert_exact_gives_components(k, exact, pairs, generic, own=None):
    """At seeded points for a in {0, 1, 7/3}: the exact form's components are 0
    where the generic ones over Fraction are, and its (numerator,
    denominator) pairs are those components, also those of own, the pairs
    over each coordinate's own denominator, where given. Whether one was not 0."""
    nonzero = False
    for a in (Fraction(0), Fraction(1), Fraction(7, 3)):
        p = Params(k, a)
        rng = stream(f"exact|k={k}|a={a}", 0)
        for x in [lyness.require_point(p, random_point(rng, k)) for _ in range(3)]:
            want = generic(p, x)
            got = [pairs(a.numerator, a.denominator, *common_denominator(x))]
            if own is not None:
                got.append(own(a.numerator, a.denominator, tuple(c.denominator for c in x),
                               tuple(c.numerator for c in x)))
            want, got = (want, got) if isinstance(want, tuple) else ((want,), [(g,) for g in got])
            assert [c == 0 for c in _components(exact(p, x))] == [c == 0 for c in want]
            for layout in got:
                assert [Fraction(*pair) for pair in layout] == list(want)
            nonzero = nonzero or any(want)
    return nonzero


@pytest.mark.parametrize("k", range(3, 9))
def test_the_exact_form_gives_the_components_of_the_generic_form(k):
    nonzero = set()
    for run in _exact_kernels(k):
        pairs = tracing.compile_exact(run.__wrapped__, k, denominators=True)
        own = run.exact_form(k, denominators=True, common=False)
        if _assert_exact_gives_components(k, _at_point(run.exact_form(k)), pairs, run, own):
            nonzero.add(run.__name__)
    assert nonzero == {"step", "inverse_step", "symmetry_vector"}


@pytest.mark.parametrize("k", [3, 4, 5, 8])
def test_the_exact_form_of_a_perturbed_field_gives_its_nonzero_components(k, monkeypatch):
    real = symmetry_vector.kernel

    def perturbed(p, x):
        out = list(real(p, x))
        out[0] = out[0] * (10**6 + 1) / 10**6
        return tuple(out)

    monkeypatch.setattr(symmetry_vector, "kernel", perturbed)
    nonzero = set()
    for name, na, residual in verify.SUITES:
        if na(k) is None:
            body = residual.__wrapped__  # the generic kernel as written, run over Fraction
            pairs = tracing.compile_exact(body, k, denominators=True)
            if _assert_exact_gives_components(k, _at_point(tracing.compile_exact(body, k)), pairs, body):
                nonzero.add(name)
    assert nonzero == {name for name in FIELD_SUITES if name != "integral annihilation" or k <= 5}


@pytest.mark.parametrize("k", range(3, 9))
def test_the_exact_form_raises_where_the_generic_form_divides_by_zero(k):
    p = Params(k, Fraction(7, 3))
    for i in (0, k - 1):
        x = tuple(Fraction(0) if j == i else Fraction(j + 2, j + 1) for j in range(k))
        returned = []
        for run in _exact_kernels(k):
            outcomes = []
            for form in (run, _at_point(run.exact_form(k))):
                try:
                    form(p, x)
                    outcomes.append("returned")
                except ZeroDivisionError:
                    outcomes.append(ZeroDivisionError)
            assert outcomes[0] == outcomes[1], run.__qualname__
            if outcomes[0] == "returned":
                returned.append(run.__qualname__)
        if i == 0:  # every kernel divides by x1 but F^-1 and the polynomial factorization
            assert returned == ["inverse_step"] + ["factorization_residual"] * (k >= 6)


@pytest.mark.parametrize("k", range(3, 9))
def test_the_exact_forms_take_no_gcd(k, monkeypatch):
    kernels = _exact_kernels(k)
    inputs = []
    for a in (Fraction(0), Fraction(1), Fraction(7, 3)):
        p = Params(k, a)
        rng = stream(f"gcd|k={k}|a={a}", 0)
        for x in [lyness.require_point(p, random_point(rng, k)) for _ in range(3)]:
            inputs.append((a.numerator, a.denominator, *common_denominator(x)))  # the lcm is not counted
    for run in kernels:
        run.exact_form(k)  # built before gcd is counted
    calls = []
    real = math.gcd
    monkeypatch.setattr(math, "gcd", lambda *args: calls.append(args) or real(*args))
    for run in kernels:
        for args in inputs:
            run.exact_form(k)(*args)
    assert not calls
    assert Fraction(6, 4) and calls  # the spy sees a Fraction's gcd


def _product(lower, upper):
    n = len(lower)
    return [[sum(lower[i][m] * upper[m][j] for m in range(n)) for j in range(n)] for i in range(n)]


F = Fraction
# L U with L unit lower triangular and U upper triangular: det = prod diag(U).
# Every entry below the diagonal is nonzero, so each column is eliminated.
DENSE_3 = (_product([[1, 0, 0], [F(1, 2), 1, 0], [F(-2, 3), F(5, 7), 1]],
                    [[F(3, 2), F(-1, 4), 2], [0, F(2, 5), F(7, 3)], [0, 0, F(-5, 6)]]),
           F(3, 2) * F(2, 5) * F(-5, 6))
_L4U4 = _product([[1, 0, 0, 0], [3, 1, 0, 0], [F(-1, 2), F(4, 9), 1, 0], [F(5, 3), -2, F(1, 8), 1]],
                 [[F(2, 7), 1, F(-3, 5), 4], [0, F(-9, 4), 2, F(1, 3)], [0, 0, 5, F(-7, 2)],
                  [0, 0, 0, F(11, 6)]])
# L U with its last two rows exchanged, so the sign flips
DENSE_4 = (_L4U4[:2] + [_L4U4[3], _L4U4[2]], -(F(2, 7) * F(-9, 4) * 5 * F(11, 6)))
# the third row is the first plus 2/3 of the second
SINGULAR_3 = ([[F(1, 2), 3, F(-4, 5)], [2, F(7, 3), 1],
               [F(1, 2) + F(4, 3), 3 + F(14, 9), F(-4, 5) + F(2, 3)]], 0)


@pytest.mark.parametrize("rows, det", [DENSE_3, DENSE_4, SINGULAR_3],
                         ids=["dense-3x3", "dense-4x4-swap", "singular-3x3"])
def test_det_expansion_expands_dense_rational_matrices(rows, det):
    assert all(row[0] != 0 for row in rows)  # no zero to skip in the first column
    assert verify._det_expansion(rows) == det == _det_by_elimination(rows)


def _exact_source(monkeypatch, name, k) -> list:
    """The source lines of the suite `name`'s exact form at k, written afresh."""
    sources = []
    real = tracing._define

    def define(*args):
        fn, source = real(*args)
        sources.append(source)
        return fn, source

    monkeypatch.setattr(tracing, "_define", define)
    [residual] = [r for n, _, r in verify.SUITES if n == name]
    tracing.compile_exact(residual.__wrapped__, k)
    return sources[0].splitlines()


def test_the_det_exact_form_grows_linearly_in_k(monkeypatch):
    # DF(x)'s shift rows are int literals, so the expansion takes one term per row
    lines = {k: len(_exact_source(monkeypatch, "det closed form", k)) for k in (3, 8, 20, 40)}
    assert all(n <= 3 * k + 10 for k, n in lines.items()), lines
    _only(monkeypatch, "det closed form")
    [result] = run_suites(40, Fraction(7, 3), 2, 0)
    assert (result.trials, result.failures) == (2, 0)


def _wrong_closed_form(p, x):
    """(-1)^k (a + x2 + ... + x_{k-1}) / xk^2: the wrong closed form that
    `lyness`'s docstring quotes."""
    val = (p.a + fold(x[1:-1])) / (x[-1] * x[-1])
    return val if p.k % 2 == 0 else -val


@pytest.mark.parametrize("k", [3, 4, 5])
def test_a_wrong_closed_form_of_the_determinant_fails_its_suite(k, monkeypatch, fresh_suites):
    monkeypatch.setattr(lyness.jacobian_det, "kernel", _wrong_closed_form)
    _only(monkeypatch, "det closed form")
    [result] = run_suites(k, 1, 3, 0)
    assert (result.trials, result.failures) == (3, 3)


def test_the_sign_alternation_passes_where_z_is_zero():
    # on the invariant hypersurface Z = 0 there is nothing to flip, and W o F = W there
    [residual] = [r for name, _, r in verify.SUITES if name == "sign(Z) alternation"]
    for k, a, x in ((3, 7, (1, 1, 3)), (5, 5, (1, 1, 1, 1, 3))):
        p = Params(k, Fraction(a))
        assert eval_z(p, x) == 0
        assert residual(p, tuple(map(Fraction, x))) == (0, 0)
        assert residual.exact_form(k)(a, 1, 1, x) == (0, 0)


@pytest.mark.parametrize("k", [3, 5, 7])
def test_a_step_that_is_f_squared_fails_the_sign_alternation(k, monkeypatch, fresh_suites):
    real = lyness.step.kernel
    monkeypatch.setattr(lyness.step, "kernel", lambda p, x: real(p, real(p, x)))
    _only(monkeypatch, "sign(Z) alternation")
    [result] = run_suites(k, 1, 3, 0)
    assert (result.trials, result.failures) == (3, 3)
    # Z keeps its sign under F^2 on either side of Z = 0
    [(_, _, residual)] = verify.SUITES
    points = ((1,) * k, (2, 1) * (k // 2) + (2,))
    assert {eval_z(Params(k, Fraction(1)), x) > 0 for x in points} == {True, False}
    assert [residual.exact_form(k)(1, 1, 1, x)[0] for x in points] == [1, 1]
