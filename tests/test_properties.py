"""Property tests over generated positive rationals (derandomized, so every
run draws the same examples)."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from lynesslab.invariants import eval_v1, eval_v2, eval_v3, eval_w, level_signature, z_sign  # noqa: E402
from lynesslab.lyness import Params, orbit  # noqa: E402
from lynesslab.reduction import ReducedParams, lift_k5, project, replay  # noqa: E402

SETTINGS = settings(derandomize=True, deadline=None, max_examples=60)
positive = st.fractions(min_value=Fraction(1, 100), max_value=100, max_denominator=100)
parameter = st.fractions(min_value=0, max_value=20, max_denominator=10)
wide = st.floats(min_value=1e-30, max_value=1e30)


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
