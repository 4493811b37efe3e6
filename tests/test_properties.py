"""Property tests over generated rationals and polynomials (derandomized, so every
run draws the same examples)."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from lynesslab.invariants import eval_v1, eval_v2, eval_v3, eval_w, eval_z, level_signature, z_sign  # noqa: E402
from lynesslab.lyness import Params, orbit  # noqa: E402
from lynesslab.reduction import ReducedParams, lift_k5, project, replay  # noqa: E402
from lynesslab.scalars import Poly  # noqa: E402

SETTINGS = settings(derandomize=True, deadline=None, max_examples=60)
positive = st.fractions(min_value=Fraction(1, 100), max_value=100, max_denominator=100)
parameter = st.fractions(min_value=0, max_value=20, max_denominator=10)
wide = st.floats(min_value=1e-30, max_value=1e30)
coefficient = st.one_of(st.integers(-30, 30), st.fractions(min_value=-30, max_value=30, max_denominator=30))
polys = st.lists(coefficient, min_size=1, max_size=5).map(Poly)


def points(k):
    return st.tuples(*[positive] * k)


@SETTINGS
@given(data=st.data(), k=st.integers(3, 8), a=parameter)
def test_one_pass_signature_equals_the_separate_kernels(data, k, a):
    p = Params(k, a)
    x = data.draw(points(k))
    for q, y in ((p, x), (Params(k, float(a)), tuple(float(c) for c in x))):
        sig = level_signature.kernel(q, y)
        assert (sig.v1, sig.v2) == (eval_v1.kernel(q, y), eval_v2.kernel(q, y))
        if k % 2:
            assert (sig.v3, sig.z_sign) == (eval_v3.kernel(q, y), z_sign.kernel(q, y))


@SETTINGS
@given(x=points(5), a=parameter)
def test_k5_reduced_replay_tracks_the_double_step_exactly(x, a):
    p = Params(5, a)
    assert all(gap == 0 for _y, gap in replay(p, x, 3))
    rp = ReducedParams(a=a, kappa=1 / eval_w(p, x))
    assert lift_k5(rp, project(p, x)) == x


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(data=st.data(), k=st.integers(2, 9), a=parameter, exact=st.booleans())
def test_each_orbit_state_is_the_one_before_it_shifted(data, k, a, exact):
    # The orbit writer formats only the coordinate each state adds and reuses
    # the text of the other k-1, so F(x)[:-1] must be x[1:] item for item.
    p = Params(k, a if exact else float(a))
    x0 = data.draw(st.tuples(*[positive if exact else wide] * k))
    states = list(orbit.kernel(p, x0, 30))
    assert len(states) == 31
    for x, y in zip(states, states[1:]):
        assert [(type(c), c) for c in y[:-1]] == [(type(c), c) for c in x[1:]]


def at(f, t):
    """The polynomial f at t, term by term."""
    return sum(c * t**i for i, c in enumerate(f.coeffs))


@SETTINGS
@given(f=polys, g=polys, c=coefficient, t=coefficient)
def test_poly_ring_operations_agree_with_evaluation(f, g, c, t):
    ft, gt = at(f, t), at(g, t)
    for h, want in ((f + g, ft + gt), (f - g, ft - gt), (f * g, ft * gt), (-f, -ft),
                    (f + c, ft + c), (c + f, c + ft), (f - c, ft - c), (c - f, c - ft),
                    (f * c, ft * c), (c * f, c * ft)):
        assert at(h, t) == want
        assert len(h.coeffs) == 1 or h.coeffs[-1] != 0  # no trailing zeros


@SETTINGS
@given(data=st.data(), k=st.sampled_from([3, 5, 7]), a=parameter, t=positive)
def test_z_over_polys_is_z_at_every_filling_of_its_template(data, k, a, t):
    # sample_g_point reads Z's coefficients along a template from this one pass
    p, holes = Params(k, a), data.draw(st.integers(1, 2**k - 1))
    fixed = data.draw(points(k))
    fill = [None if holes >> i & 1 else c for i, c in enumerate(fixed)]
    z = eval_z.kernel(p, tuple(Poly((0, 1)) if v is None else v for v in fill))
    assert at(z, t) == eval_z.kernel(p, tuple(t if v is None else v for v in fill))
