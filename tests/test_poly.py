"""Polynomial layer: exactness of the monomial integrals, the
differentiation matrices, and hat gradients."""

from fractions import Fraction
from math import factorial

import numpy as np
import pytest

from conftest import triangle_rule
from svstokes import poly


def exact_monomial_integral(a, b, c):
    # independent oracle: int_T l0^a l1^b l2^c dx = 2|T| a! b! c! / (d+2)!
    d = a + b + c
    return 2.0 * factorial(a) * factorial(b) * factorial(c) / factorial(d + 2)


def _exponents(degree):
    return [(a, b, degree - a - b) for a in range(degree + 1)
            for b in range(degree - a + 1)]


def test_unit_integrals_match_factorial_formula():
    """The monomials of each degree <= 6, one at a time and stacked: the
    numerators a! b! c! over the denominator (a + b + c + 2)! / 2, whose
    quotient is the correctly rounded exact integral per unit area."""
    for d in range(7):
        expo = _exponents(d)
        num, den = poly.unit_integrals(np.array(expo)[:, None])
        assert num.shape == (len(expo), 1)
        assert den == factorial(d + 2) // 2
        for (a, b, c), n in zip(expo, num[:, 0]):
            assert n == factorial(a) * factorial(b) * factorial(c)
            assert poly.unit_integrals((a, b, c)) == (n, den)
            assert n / den == float(Fraction(int(n), int(den))), (a, b, c)


def test_unit_integrals_reject_mixed_degrees():
    with pytest.raises(ValueError, match="one"):
        poly.unit_integrals([(1, 0, 0), (1, 1, 0)])


def test_unit_integrals_match_a_quadrature_oracle():
    lam, w = triangle_rule()
    for d in range(9):
        for a, b, c in _exponents(d):
            got = float(w @ (lam[:, 0] ** a * lam[:, 1] ** b * lam[:, 2] ** c))
            assert np.divide(*poly.unit_integrals((a, b, c))) == pytest.approx(
                got, rel=1e-13), (a, b, c)


def test_int2_table_matches_factorial_formula():
    for i, (a, b, c) in enumerate(poly.MONO2):
        assert poly.INT2_UNIT[i] == pytest.approx(
            exact_monomial_integral(a, b, c), rel=1e-15)


def test_bary_poly_matches_raw_product():
    rng = np.random.default_rng(0)
    terms = [(1.7, (1, 0, 0)), (-0.4, (1, 1, 0)), (2.2, (0, 1, 2)),
             (0.9, (0, 0, 0))]
    coeffs = poly.bary_poly(terms)
    for _ in range(20):
        lam = rng.dirichlet((1.0, 1.0, 1.0))
        want = sum(cf * lam[0] ** a * lam[1] ** b * lam[2] ** c
                   for cf, (a, b, c) in terms)
        assert poly.eval3(coeffs, lam) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("monos", [poly.MONO3, poly.MONO2],
                         ids=["MONO3", "MONO2"])
def test_eval_table_matches_per_monomial_products(monos):
    rng = np.random.default_rng(3)
    for lam in (rng.dirichlet((1.0, 1.0, 1.0), size=(50, 4)),
                rng.dirichlet((1.0, 1.0, 1.0))):
        table = poly._eval_table(monos, lam)
        assert table.shape == lam.shape[:-1] + (len(monos),)
        for i, (a, b, c) in enumerate(monos):
            ref = lam[..., 0] ** a * lam[..., 1] ** b * lam[..., 2] ** c
            assert np.all(np.abs(table[..., i] - ref) <= np.spacing(ref))


def test_diff_matrices_against_finite_differences():
    rng = np.random.default_rng(1)
    c = rng.standard_normal(len(poly.MONO3))
    lam = np.array([0.3, 0.5, 0.2])
    h = 1e-6
    for s in range(3):
        lp, lm = lam.copy(), lam.copy()
        lp[s] += h
        lm[s] -= h
        fd = (poly.eval3(c, lp) - poly.eval3(c, lm)) / (2 * h)
        assert poly.eval2(poly.DIFF[s] @ c, lam) == pytest.approx(fd, rel=1e-8)


def test_hat_gradients_reproduce_barycentric_coordinates():
    rng = np.random.default_rng(2)
    for _ in range(10):
        pts = rng.standard_normal((3, 2))
        if poly.signed_area(*pts) < 0:
            pts = pts[[0, 2, 1]]
        if abs(poly.signed_area(*pts)) < 1e-3:
            continue
        g = poly.hat_gradients(*pts)
        centroid = pts.mean(axis=0)
        for s in range(3):
            for j in range(3):
                lam = 1.0 / 3.0 + g[s] @ (pts[j] - centroid)
                assert lam == pytest.approx(1.0 if s == j else 0.0, abs=1e-10)


def test_hat_gradients_reject_degenerate():
    with pytest.raises(ValueError):
        poly.hat_gradients((0, 0), (1, 1), (2, 2))
