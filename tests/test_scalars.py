"""Scalar layer: rational parsing, dual-number arithmetic, exact gradients,
and fraction-free rank."""

import random
import time
from fractions import Fraction

import pytest

from lynesslab.errors import DomainError
from lynesslab.invariants import eval_v1, eval_v2, eval_v3, eval_w
from lynesslab.lyness import Params
from lynesslab.scalars import Cleared, Dual, RatMatrix, exact_rank, gradient, jvp, parse_rational


def test_parse_rational_accepts_common_forms():
    assert parse_rational("7/3") == Fraction(7, 3)
    assert parse_rational("0.5") == Fraction(1, 2)
    assert parse_rational("4") == Fraction(4)
    assert parse_rational("-2/5") == Fraction(-2, 5)
    assert parse_rational(" 10 ") == Fraction(10)


def test_parse_rational_rejects_garbage_and_zero_denominator():
    for bad in ("4/0", "abc", "1/2/3", ""):
        with pytest.raises(ValueError):
            parse_rational(bad)


def test_parse_rational_bounds_the_digits_of_a_literal():
    assert parse_rational("7" * 4000) == int("7" * 4000)
    assert parse_rational("1/" + "3" * 4000).denominator == int("3" * 4000)
    assert parse_rational("1e4299") == 10**4299
    assert parse_rational("1.5e-4298") == Fraction(15, 10**4299)
    for bad in ("7" * 5000, "1/" + "3" * 5000, "1e4300", "1e-4300", "1e5000", "1e999999",
                "-1e-99999999999999999999", "0." + "0" * 4300 + "1"):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="not a rational literal"):
            parse_rational(bad)
        assert time.perf_counter() - start < 1.0


def test_dual_product_rule():
    rng = random.Random("dual-product")
    for _ in range(50):
        uv, ud = Fraction(rng.randint(1, 30), rng.randint(1, 9)), Fraction(rng.randint(-9, 9))
        vv, vd = Fraction(rng.randint(1, 30), rng.randint(1, 9)), Fraction(rng.randint(-9, 9))
        u, v = Dual(uv, ud), Dual(vv, vd)
        prod = u * v
        assert prod.value == uv * vv
        assert prod.deriv == ud * vv + uv * vd


def test_dual_reciprocal_and_quotient_rule():
    u = Dual(Fraction(3), Fraction(1))
    r = 1 / u
    assert r.value == Fraction(1, 3)
    assert r.deriv == Fraction(-1, 9)
    v = Dual(Fraction(2), Fraction(5))
    q = u / v
    assert q.value == Fraction(3, 2)
    assert q.deriv == (Fraction(1) * 2 - 3 * Fraction(5)) / 4


def test_dual_sum_difference_negation():
    u, v = Dual(Fraction(2), Fraction(3)), Dual(Fraction(7), Fraction(-1))
    assert (u + v).value == 9 and (u + v).deriv == 2
    assert (u - v).value == -5 and (u - v).deriv == 4
    assert (-u).value == -2 and (-u).deriv == -3


def test_dual_mixes_with_plain_scalars():
    u = Dual(Fraction(5), Fraction(1))
    assert (2 + u).value == 7 and (2 + u).deriv == 1
    assert (2 * u).deriv == 2
    assert (1 - u).deriv == -1
    assert (Fraction(10) / u).value == 2
    assert u > 4 and u < 6 and u >= 5 and u <= 5


def test_dual_comparisons_use_the_value_part():
    assert Dual(Fraction(3), Fraction(99)) < Dual(Fraction(4), Fraction(-99))
    assert max(Dual(Fraction(1), 0), Dual(Fraction(2), 0)).value == 2


def _fd_gradient(f, x, h=1e-6):
    xf = [float(c) for c in x]
    out = []
    for i in range(len(xf)):
        hi = [v + (h if j == i else 0.0) for j, v in enumerate(xf)]
        lo = [v - (h if j == i else 0.0) for j, v in enumerate(xf)]
        out.append((f(hi) - f(lo)) / (2.0 * h))
    return out


def test_gradient_matches_finite_differences_at_a_simple_point():
    p = Params(3, Fraction(1))
    x = (Fraction(1), Fraction(1), Fraction(1))
    for ev in (eval_v1, eval_v2, eval_v3, eval_w):
        exact = gradient(lambda c, ev=ev: ev(p, c), x)
        approx = _fd_gradient(lambda c, ev=ev: ev(p, c), x)
        for g, fd in zip(exact, approx):
            assert abs(float(g) - fd) <= 1e-6 * max(1.0, abs(fd))


def test_gradient_matches_finite_differences_at_random_points():
    rng = random.Random("gradient-sweep")
    for k, evs in ((4, (eval_v1, eval_v2)), (5, (eval_v1, eval_v2, eval_v3, eval_w))):
        p = Params(k, Fraction(7, 3))
        for _ in range(25):
            x = tuple(
                Fraction(rng.randint(1, 20), rng.randint(1, 4)) + Fraction(1, 2)
                for _ in range(k)
            )
            for ev in evs:
                exact = gradient(lambda c, ev=ev: ev(p, c), x)
                approx = _fd_gradient(lambda c, ev=ev: ev(p, c), x)
                for g, fd in zip(exact, approx):
                    assert abs(float(g) - fd) <= 1e-5 * max(1.0, abs(fd))


def test_jvp_is_the_gradient_along_a_direction():
    p = Params(5, Fraction(7, 3))
    x = tuple(Fraction(n, 3) for n in (2, 5, 7, 1, 4))
    v = (Fraction(1, 2), -3, Fraction(5, 7), 0, 2)
    for ev in (eval_v1, eval_v2, eval_v3, eval_w):
        f = lambda c, ev=ev: ev(p, c)
        assert jvp(f, x, v) == sum(g * d for g, d in zip(gradient(f, x), v))
    with pytest.raises(DomainError):
        jvp(lambda c: 1 / c[0], (Fraction(0), Fraction(1)), (1, 0))


def test_gradient_reports_poles_as_domain_errors():
    with pytest.raises(DomainError):
        gradient(lambda c: 1 / c[0], (Fraction(0), Fraction(1)))


def test_exact_rank_small_cases():
    ident = RatMatrix([[Fraction(1), 0, 0], [0, Fraction(1), 0], [0, 0, Fraction(1)]])
    assert exact_rank(ident) == 3
    zero = RatMatrix([[Fraction(0)] * 3 for _ in range(2)])
    assert exact_rank(zero) == 0
    outer = RatMatrix([[Fraction(2 * j) for j in (1, 2, 3)], [Fraction(5 * j) for j in (1, 2, 3)]])
    assert exact_rank(outer) == 1


def test_exact_rank_sees_through_near_dependence():
    # Rows differ at the 40th decimal place; float pivoting would merge them.
    eps = Fraction(1, 10**40)
    m = RatMatrix([[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1) + eps]])
    assert exact_rank(m) == 2


def _float_rank(rows, tol=1e-9):
    work = [list(map(float, r)) for r in rows]
    nrows, ncols = len(work), len(work[0])
    rank, row = 0, 0
    for col in range(ncols):
        piv = max(range(row, nrows), key=lambda r: abs(work[r][col]), default=None)
        if piv is None or abs(work[piv][col]) < tol:
            continue
        work[row], work[piv] = work[piv], work[row]
        for r in range(nrows):
            if r != row and work[r][col]:
                f = work[r][col] / work[row][col]
                for c in range(ncols):
                    work[r][c] -= f * work[row][c]
        rank += 1
        row += 1
        if row == nrows:
            break
    return rank


def test_exact_rank_matches_float_oracle_on_random_integer_matrices():
    rng = random.Random("rank-oracle")
    for _ in range(40):
        n = rng.randint(2, 5)
        m = rng.randint(2, 5)
        r = rng.randint(1, min(n, m))
        left = [[Fraction(rng.randint(-4, 4)) for _ in range(r)] for _ in range(n)]
        right = [[Fraction(rng.randint(-4, 4)) for _ in range(m)] for _ in range(r)]
        rows = [
            [sum(left[i][t] * right[t][j] for t in range(r)) for j in range(m)]
            for i in range(n)
        ]
        assert exact_rank(RatMatrix(rows)) == _float_rank(rows)


def test_ratmatrix_validates_shape():
    with pytest.raises(ValueError):
        RatMatrix([[Fraction(1)], [Fraction(1), Fraction(2)]])
    empty = RatMatrix([])
    assert empty.nrows == 0 and empty.ncols == 0 and exact_rank(empty) == 0


def test_dual_with_a_plain_operand_equals_the_lifted_result():
    cleared = (Cleared(-3, (4,)), Cleared(0, (2, 5)), Cleared(5))
    duals = [Dual(Fraction(5, 3), Fraction(-2, 7)), Dual(Fraction(1, 2), 0), Dual(*cleared[:2]),
             Dual(cleared[2], cleared[0])]
    for u in duals:
        for o in (0, 3, -1, Fraction(-2, 5), Fraction(0), *cleared):
            lifted = Dual(o, 0)
            pairs = [(u + o, u + lifted), (u * o, u * lifted), (o + u, lifted + u), (o * u, lifted * u)]
            for got, want in pairs:
                assert (got.value == want.value, got.deriv == want.deriv) == (True, True)


@pytest.mark.parametrize("zero", [0, Fraction(0), 0.0, Cleared(0, (3,))],
                         ids=["int", "Fraction", "float", "Cleared"])
def test_dual_division_by_a_zero_value_part_raises(zero):
    one = zero + 1
    for num in (Dual(one, one), one):
        with pytest.raises(ZeroDivisionError):
            num / Dual(zero, one)
