"""Conserved quantities: the two first integrals, the 2-integral, the
alternating combination, the hypersurface polynomial, and exact gradient rank."""

from fractions import Fraction

import pytest

from lynesslab.errors import DimensionError
from lynesslab.invariants import (
    LevelSignature,
    eval_pi,
    eval_v1,
    eval_v2,
    eval_v3,
    eval_w,
    eval_z,
    independence_rank,
    level_signature,
    z_sign,
)
from lynesslab.lyness import Params, jacobian_det, step, two_periodic_point
from lynesslab.sampling import random_point, stream

P31 = Params(3, Fraction(1))
X113 = (Fraction(1), Fraction(1), Fraction(3))


def test_golden_values_on_a_small_point():
    assert eval_v1(P31, X113) == 32
    assert eval_v2(P31, X113) == 45
    assert eval_w(P31, X113) == 8
    assert eval_w(P31, step(P31, X113)) == 4
    assert eval_v3(P31, X113) == 12
    assert eval_z(P31, X113) == 12
    assert eval_pi(P31, X113) == 3
    assert z_sign(P31, X113) == 1


def test_v1_and_v2_are_invariant_for_all_dimensions():
    rng = stream("v1v2-invariance", 0)
    for k in range(2, 9):
        for a in (Fraction(0), Fraction(1), Fraction(7, 3)):
            p = Params(k, a)
            for _ in range(15):
                x = random_point(rng, k)
                y = step(p, x)
                assert eval_v1(p, y) == eval_v1(p, x)
                assert eval_v2(p, y) == eval_v2(p, x)


def test_w_is_a_2_integral_but_not_an_integral():
    rng = stream("w-2-integral", 0)
    for k in (3, 5, 7):
        p = Params(k, Fraction(1))
        changed = 0
        for _ in range(20):
            x = random_point(rng, k)
            y = step(p, x)
            assert eval_w(p, step(p, y)) == eval_w(p, x)
            changed += eval_w(p, y) != eval_w(p, x)
        assert changed >= 19  # equality only on a measure-zero set


def test_v3_combines_the_2_integral_and_is_invariant():
    rng = stream("v3", 0)
    for k in (3, 5, 7):
        p = Params(k, Fraction(7, 3))
        for _ in range(15):
            x = random_point(rng, k)
            y = step(p, x)
            assert eval_v3(p, x) == eval_w(p, x) + eval_w(p, y)
            assert eval_v3(p, y) == eval_v3(p, x)
            assert eval_v1(p, x) == eval_w(p, x) * eval_w(p, y)


def test_z_and_product_transform_laws():
    rng = stream("z-laws", 0)
    for k in (3, 5, 7):
        for a in (Fraction(0), Fraction(2)):
            p = Params(k, a)
            for _ in range(15):
                x = random_point(rng, k)
                y = step(p, x)
                d = jacobian_det(p, x)
                assert eval_z(p, y) == d * eval_z(p, x)
                assert eval_pi(p, y) == -d * eval_pi(p, x)


def test_z_relates_to_the_2_integral_gap():
    rng = stream("z-gap", 3)
    p = Params(5, Fraction(1))
    for _ in range(10):
        x = random_point(rng, 5)
        gap = eval_w(p, x) - eval_w(p, step(p, x))
        assert eval_z(p, x) == eval_pi(p, x) * gap


def test_sign_of_z_alternates_off_the_zero_set():
    rng = stream("z-alternation", 0)
    p = Params(5, Fraction(4))
    for _ in range(20):
        x = random_point(rng, 5)
        if eval_z(p, x) == 0:
            continue
        s = [z_sign(p, x)]
        for _ in range(6):
            x = step(p, x)
            s.append(z_sign(p, x))
        assert all(u == -v for u, v in zip(s, s[1:]))


def test_odd_only_quantities_reject_even_dimension():
    p = Params(4, Fraction(1))
    x = (Fraction(1),) * 4
    for fn in (eval_w, eval_v3, eval_z):
        with pytest.raises(DimensionError):
            fn(p, x)


def test_level_signature_carries_the_right_fields():
    sig = level_signature(P31, X113)
    assert (sig.v1, sig.v2, sig.v3, sig.z_sign) == (32, 45, 12, 1)
    sig4 = level_signature(Params(4, Fraction(4)), (Fraction(1), Fraction(2), Fraction(3), Fraction(4)))
    assert sig4.v3 is None and sig4.z_sign is None
    assert sig4.v1 == Fraction(14 * 2 * 3 * 4 * 5, 24)


def test_gradient_rank_is_two_generically_for_k3():
    assert independence_rank(P31, X113, which=("V1", "V2")) == 2


def test_gradient_rank_drops_to_one_on_the_2_periodic_curve():
    for a in (Fraction(1), Fraction(3)):
        p = Params(3, a)
        for x in (Fraction(2), Fraction(5, 2), Fraction(4)):
            pt = two_periodic_point(p, x)
            assert independence_rank(p, pt, which=("V1", "V2")) == 1
    p5 = Params(5, Fraction(1))
    for x in (Fraction(3), Fraction(7, 2)):
        pt = two_periodic_point(p5, x)
        assert independence_rank(p5, pt, which=("V1", "V2")) == 1


def test_gradient_rank_of_three_integrals():
    # Generic point: full rank.
    p = Params(5, Fraction(1))
    generic = tuple(Fraction(i) for i in (1, 2, 3, 4, 5))
    assert independence_rank(p, generic) == 3
    # On the zero set of Z the three gradients are dependent.
    on_g = (Fraction(3), Fraction(1), Fraction(3), Fraction(1), Fraction(3))
    p_g = Params(5, Fraction(421))
    assert eval_z(p_g, on_g) == 0
    assert independence_rank(p_g, on_g) == 2


def test_independence_rank_validates_inputs():
    with pytest.raises(TypeError):
        independence_rank(P31, (1.0, 1.0, 3.0), which=("V1", "V2"))
    with pytest.raises(ValueError):
        independence_rank(P31, X113, which=("V1", "V9"))


def test_invariants_accept_floats_through_the_same_code_path():
    x = (1.0, 1.0, 3.0)
    assert eval_v1(P31, x) == 32.0
    assert eval_v3(P31, x) == 12.0
    assert z_sign(P31, x) == 1


def _separate_signature(p, x):
    """The signature from the separate reference kernels."""
    if p.k % 2 == 0:
        return LevelSignature(v1=eval_v1.kernel(p, x), v2=eval_v2.kernel(p, x))
    return LevelSignature(
        v1=eval_v1.kernel(p, x),
        v2=eval_v2.kernel(p, x),
        v3=eval_v3.kernel(p, x),
        z_sign=z_sign.kernel(p, x),
    )


# A point of {Z = 0} for k=5 (see test_gradient_rank_of_three_integrals).
ON_Z = {5: (Fraction(421), (Fraction(3), Fraction(1), Fraction(3), Fraction(1), Fraction(3)))}


@pytest.mark.parametrize("k", range(3, 9))
def test_one_pass_signature_equals_the_separate_kernels(k):
    rng = stream(f"one-pass-signature|k={k}", 0)
    cases = [(a, random_point(rng, k)) for a in (Fraction(0), Fraction(1), Fraction(7, 3)) for _ in range(8)]
    if k in ON_Z:
        cases.append(ON_Z[k])
    for a, x in cases:
        p = Params(k, a)
        assert level_signature.kernel(p, x) == _separate_signature(p, x)
        # Float rows are bit-identical: == on finite positive floats is bitwise.
        pf, xf = Params(k, float(a)), tuple(float(c) for c in x)
        assert level_signature.kernel(pf, xf) == _separate_signature(pf, xf)
    if k in ON_Z:
        a, x = ON_Z[k]
        assert level_signature(Params(k, a), x).z_sign == 0
        assert level_signature(Params(k, float(a)), tuple(map(float, x))).z_sign == 0
