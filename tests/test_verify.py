"""Identity suites: k and the trial count are checked before any suite runs,
each drawn point is validated once per trial, five suites hold their public
residual's compiled kernel (so a public call after `verify` compiles
nothing), the shift law and the symmetry condition evaluate the field once
at x and once at F(x) and integral annihilation evaluates it once (each
inlined into a residual traced once per k), a wrong field fails every suite
that uses it, every check gives the same verdict on both `Cleared` images of
a point as on the `Fraction` point they were made from, the suites check the
common-denominator image of each drawn point, and the determinant oracle
eliminates dense rational matrices exactly."""

import functools
from fractions import Fraction

import pytest

from lynesslab import lyness, verify
from lynesslab.dynamics import measure_density_residual
from lynesslab.errors import DimensionError
from lynesslab.lyness import Params
from lynesslab.sampling import random_point, stream
from lynesslab.scalars import Cleared, RatMatrix
from lynesslab.symmetry import (
    compatibility_residual, factorization_residual, lie_residual, shift_residual, shift_residuals,
    symmetry_vector,
)
from lynesslab.verify import run_suites


@pytest.mark.parametrize("k", [3, 5, 6])
def test_suites_validate_each_drawn_point_once(k, monkeypatch):
    calls = []
    real = lyness.require_point

    def counting(p, x):
        calls.append(x)
        return real(p, x)

    for module in (lyness, verify):
        monkeypatch.setattr(module, "require_point", counting)
    results = run_suites(k, 1, 2, 0)
    assert all(r.failures == 0 for r in results)
    assert len(calls) == sum(r.trials for r in results)


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
    monkeypatch.setattr(verify, "random_point", lambda rng, k: drawn.append(k))
    with pytest.raises(error, match=f"^{message}$"):
        run_suites(k, 1, trials, 0)
    assert drawn == []


def _only(monkeypatch, name):
    monkeypatch.setattr(verify, "SUITES", tuple(s for s in verify.SUITES if s[0] == name))


@pytest.fixture
def fresh_suites():
    """Empty the compiled cache of every traced suite residual for the test,
    so a patched kernel reaches each suite traced while it is patched, then
    restore every cache, so no patched compilation outlives the test."""
    caches = [residual.compiled for _, _, residual in verify.SUITES if hasattr(residual, "compiled")]
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
    compiled = []
    real = lyness._compile
    monkeypatch.setattr(lyness, "_compile", lambda kernel, n: compiled.append(kernel.__name__) or real(kernel, n))
    applicable = [PUBLIC_RESIDUALS[name] for name, na, _ in verify.SUITES
                  if name in PUBLIC_RESIDUALS and na(k) is None]
    assert len(applicable) == {3: 4, 6: 4, 7: 5}[k]
    assert all(r.failures == 0 for r in run_suites(k, 1, 1, 0))
    assert {public.__name__ for public in applicable} <= set(compiled)
    compiled.clear()
    p = Params(k, Fraction(1))
    x = tuple(Fraction(i + 2, i + 1) for i in range(k))
    for public in applicable:
        assert _passes(public, p, x), public.__name__
    assert [shift_residual(p, x, i) for i in range(1, k)] == [0] * (k - 1)
    assert compiled == []


def _field_calls(monkeypatch, name, k):
    """Distinct points the field is evaluated at in two runs of the one suite
    `name` at k, of 3 and then 5 trials: each is a traced point, named by its
    recordings, because the suite's compiled residual calls no function at all
    and the tracer merges a repeated call at one point into one."""
    points = set()
    real = symmetry_vector.kernel
    monkeypatch.setattr(symmetry_vector, "kernel",
                        lambda p, x: points.add(tuple(c.name for c in x)) or real(p, x))
    _only(monkeypatch, name)
    for trials in (3, 5):
        [result] = run_suites(k, 1, trials, 0)
        assert (result.name, result.trials, result.failures) == (name, trials, 0)
    [compiled] = [r.compiled[k] for n, _, r in verify.SUITES if n == name]
    assert compiled.__code__.co_names == ("a",)  # p.a, and no call to the field
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


def _cleared_verdict(check, x):
    """The verdict on both Cleared images of x, one denominator per coordinate
    and one common denominator, or None where the two differ."""
    own, common = check(tuple(map(Cleared.of, x))), check(Cleared.common(x))
    return own if own == common else None


def _passes(residual, p, x) -> bool:
    r = residual(p, x)
    return all(v == 0 for v in (r if isinstance(r, tuple) else (r,)))


def _verdicts(k, points=5):
    """{(a, suite): [(verdict on the Fraction point, on its Cleared images)]} over
    seeded points, for every suite that applies to k."""
    out = {}
    for a in (Fraction(0), Fraction(1), Fraction(7, 3)):
        p = Params(k, a)
        for name, na, residual in verify.SUITES:
            if na(k) is None:
                check = functools.partial(_passes, residual, p)
                rng = stream(f"backends|k={k}|a={a}|{name}", 0)
                xs = [lyness.require_point(p, random_point(rng, k)) for _ in range(points)]
                out[a, name] = [(check(x), _cleared_verdict(check, x)) for x in xs]
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
def test_suites_check_the_common_denominator_image_of_each_drawn_point(k, monkeypatch):
    drawn, checked = [], []
    real = lyness.require_point

    def recording(p, x):
        drawn.append(real(p, x))
        return drawn[-1]

    monkeypatch.setattr(verify, "require_point", recording)
    monkeypatch.setattr(verify, "SUITES", tuple(
        (name, na, lambda p, x, residual=residual: checked.append(x) or residual(p, x))
        for name, na, residual in verify.SUITES))
    assert all(r.failures == 0 for r in run_suites(k, Fraction(7, 3), 2, 0))
    assert len(checked) == len(drawn) > 0
    for x, image in zip(drawn, checked):
        assert [c.fraction() for c in image] == list(x)
        assert len({c.den for c in image}) == 1


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
@pytest.mark.parametrize("image", ["fraction", "common"])
def test_det_gauss_eliminates_dense_rational_matrices(rows, det, image):
    assert all(row[0] != 0 for row in rows)  # no zero to skip in the first column
    if image == "common":
        rows = [Cleared.common(row) for row in rows]
    assert verify._det_gauss(RatMatrix(rows)) == det
