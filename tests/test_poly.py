"""Polynomial layer: exactness of the monomial integral tables, the
quadrature rules, the differentiation matrices, and hat gradients."""

from math import factorial

import numpy as np
import pytest

from svstokes import poly


def exact_monomial_integral(a, b, c):
    # independent oracle: int_T l0^a l1^b l2^c dx = 2|T| a! b! c! / (d+2)!
    d = a + b + c
    return 2.0 * factorial(a) * factorial(b) * factorial(c) / factorial(d + 2)


def test_int3_table_matches_factorial_formula():
    for i, (a, b, c) in enumerate(poly.MONO3):
        assert poly.INT3_UNIT[i] == pytest.approx(
            exact_monomial_integral(a, b, c), rel=1e-15)


def test_int2_table_matches_factorial_formula():
    for i, (a, b, c) in enumerate(poly.MONO2):
        assert poly.INT2_UNIT[i] == pytest.approx(
            exact_monomial_integral(a, b, c), rel=1e-15)


def test_triangle_quadrature_exact_to_degree_six():
    for d in range(7):
        for a in range(d + 1):
            for b in range(d - a + 1):
                c = d - a - b
                got = float((poly.TRI_QP[:, 0] ** a * poly.TRI_QP[:, 1] ** b
                             * poly.TRI_QP[:, 2] ** c * poly.TRI_QW).sum())
                assert got == pytest.approx(
                    exact_monomial_integral(a, b, c), abs=1e-14)


def test_triangle_quadrature_points_valid():
    assert np.all(poly.TRI_QP >= 0.0)
    assert np.allclose(poly.TRI_QP.sum(axis=1), 1.0)
    assert np.all(poly.TRI_QW > 0.0)
    assert poly.TRI_QW.sum() == pytest.approx(1.0, abs=1e-15)


def test_edge_quadrature_exact_to_degree_nine():
    for k in range(10):
        got = float((poly.EDGE_QP ** k * poly.EDGE_QW).sum())
        assert got == pytest.approx(1.0 / (k + 1), rel=1e-13)


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
