"""Barycentric polynomial arithmetic on triangles.

Scalar polynomials of degree <= 3 are stored as homogeneous degree-3
polynomials in the barycentric coordinates (l0, l1, l2): since
l0 + l1 + l2 = 1 on the triangle, any lower-degree term can be multiplied
by powers of (l0 + l1 + l2) without changing its values.  A scalar cubic
is therefore a length-10 coefficient vector over MONO3; its partial
derivatives with respect to the barycentric coordinates are homogeneous
quadratics (length-6 vectors over MONO2).
"""

from __future__ import annotations

from math import factorial

import numpy as np

# Homogeneous monomial exponent tables, fixed order.
MONO3: tuple[tuple[int, int, int], ...] = tuple(
    (a, b, 3 - a - b) for a in range(3, -1, -1) for b in range(3 - a, -1, -1)
)
MONO2: tuple[tuple[int, int, int], ...] = tuple(
    (a, b, 2 - a - b) for a in range(2, -1, -1) for b in range(2 - a, -1, -1)
)
_IDX3 = {m: i for i, m in enumerate(MONO3)}
_IDX2 = {m: i for i, m in enumerate(MONO2)}
# Per monomial table, the position of each factor l_k**e_k in the powers
# l_k**0 .. l_k**3 laid out as a flat (3, 4) table: 4 k + e_k, one row per k.
_POWER_INDEX = {monos: (np.array(monos) + 4 * np.arange(3)).T
                for monos in (MONO3, MONO2)}


def bary_poly(terms) -> np.ndarray:
    """Build a degree-3 coefficient vector from (coef, exponents) terms.

    Each term has total degree <= 3 and is homogenized by multiplying with
    (l0 + l1 + l2)**(3 - degree), expanded multinomially.
    """
    out = np.zeros(len(MONO3))
    for coef, expo in terms:
        a, b, c = expo
        d = a + b + c
        if d > 3:
            raise ValueError(f"term degree {d} exceeds 3")
        m = 3 - d
        for i in range(m + 1):
            for j in range(m - i + 1):
                k = m - i - j
                w = factorial(m) // (factorial(i) * factorial(j) * factorial(k))
                out[_IDX3[(a + i, b + j, c + k)]] += coef * w
    return out


def _eval_table(monos, lam: np.ndarray) -> np.ndarray:
    """Monomial values at barycentric points lam of shape (..., 3), in
    shape (..., len(monos)).

    Each power l_k**e (e <= 3) is computed once; every monomial is then
    the product l0**a * l1**b * l2**c of three gathered powers, multiplied
    in that order.
    """
    lam = np.asarray(lam, dtype=float)
    powers = np.stack([np.ones_like(lam), lam, lam ** 2, lam ** 3], axis=-1)
    powers = powers.reshape(lam.shape[:-1] + (12,))
    i0, i1, i2 = _POWER_INDEX[monos]
    return (np.take(powers, i0, axis=-1) * np.take(powers, i1, axis=-1)
            * np.take(powers, i2, axis=-1))


def eval3(coeffs: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Evaluate a degree-3 coefficient vector at barycentric points; k
    stacked vectors, shape (k, 10), give values of shape (..., k), each
    from a matrix-vector product of its own: its bits do not depend on k."""
    table = _eval_table(MONO3, lam)
    coeffs = np.asarray(coeffs, dtype=float)
    values = np.matmul(table.reshape(-1, len(MONO3)), coeffs[..., None])
    return np.moveaxis(values[..., 0], -1, 0).reshape(
        table.shape[:-1] + coeffs.shape[:-1])


def eval2(coeffs: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Evaluate a degree-2 coefficient vector at barycentric points."""
    return _eval_table(MONO2, lam) @ np.asarray(coeffs)


def _diff_matrix(slot: int) -> np.ndarray:
    d = np.zeros((len(MONO2), len(MONO3)))
    for j, (a, b, c) in enumerate(MONO3):
        e = [a, b, c]
        if e[slot] == 0:
            continue
        coef = e[slot]
        e[slot] -= 1
        d[_IDX2[tuple(e)], j] = coef
    return d


# DIFF[s] maps degree-3 coefficients to the degree-2 coefficients of d/dl_s.
DIFF: np.ndarray = np.stack([_diff_matrix(s) for s in range(3)])   # (3, 6, 10)
DIFF.setflags(write=False)

# VERTEX2[s] is the index in MONO2 of l_s**2, the one degree-2 monomial
# that does not vanish at vertex s (where it is 1): the value of a
# homogeneous quadratic at vertex s is this coefficient.
VERTEX2 = np.array([_IDX2[(2, 0, 0)], _IDX2[(0, 2, 0)], _IDX2[(0, 0, 2)]])
VERTEX2.setflags(write=False)

# Exact integral of each degree-3 monomial over a triangle, per unit area:
# int_T l0^a l1^b l2^c dx = 2|T| a! b! c! / (a+b+c+2)!
INT3_UNIT = np.array(
    [2.0 * factorial(a) * factorial(b) * factorial(c) / factorial(a + b + c + 2)
     for a, b, c in MONO3]
)
INT2_UNIT = np.array(
    [2.0 * factorial(a) * factorial(b) * factorial(c) / factorial(a + b + c + 2)
     for a, b, c in MONO2]
)


def _dunavant6() -> tuple[np.ndarray, np.ndarray]:
    pts, wts = [], []

    def orbit3(a, w):
        b = 0.5 * (1.0 - a)
        for p in ((a, b, b), (b, a, b), (b, b, a)):
            pts.append(p)
            wts.append(w)

    def orbit6(a, b, w):
        c = 1.0 - a - b
        for p in ((a, b, c), (a, c, b), (b, a, c),
                  (b, c, a), (c, a, b), (c, b, a)):
            pts.append(p)
            wts.append(w)

    orbit3(0.501426509658179, 0.116786275726379)
    orbit3(0.873821971016996, 0.050844906370207)
    orbit6(0.053145049844816, 0.310352451033785, 0.082851075618374)
    w = np.array(wts)
    return np.array(pts), w / w.sum()


# Symmetric triangle rule, exact for polynomials up to degree 6.
TRI_QP, TRI_QW = _dunavant6()

# 5-point Gauss-Legendre on [0, 1], exact up to degree 9.
_g = np.array([-0.906179845938664, -0.538469310105683, 0.0,
               0.538469310105683, 0.906179845938664])
_gw = np.array([0.236926885056189, 0.478628670499366, 0.568888888888889,
                0.478628670499366, 0.236926885056189])
EDGE_QP = 0.5 * (_g + 1.0)
EDGE_QW = 0.5 * _gw


def hat_gradients(p0, p1, p2) -> np.ndarray:
    """Gradients of the three barycentric coordinates, shape (3, 2).

    Vertices must be in counter-clockwise order (positive signed area).
    Points of shape (..., 2) give a stack of triangles and gradients of
    shape (..., 3, 2); each triangle's values are those of a single call.
    """
    p0, p1, p2 = (np.asarray(p, dtype=float) for p in (p0, p1, p2))
    jac = np.stack([p1 - p0, p2 - p0], axis=-1)
    det = np.linalg.det(jac)
    if np.any(det == 0.0):
        raise ValueError("degenerate triangle")
    inv = np.linalg.inv(jac)
    return np.concatenate([-inv.sum(axis=-2, keepdims=True), inv], axis=-2)


def signed_area(p0, p1, p2):
    """Signed area (positive when counter-clockwise); points of shape
    (..., 2) give an array of areas."""
    p0, p1, p2 = (np.asarray(p, dtype=float) for p in (p0, p1, p2))
    u, v = p1 - p0, p2 - p0
    area = 0.5 * (u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0])
    return float(area) if area.ndim == 0 else area
