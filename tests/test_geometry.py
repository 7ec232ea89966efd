"""The corner kernel: angles and cotangents of a stack of triangles,
checked against heights and normals computed here, and the corner angles
of the two triangles at an interior edge."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import edge_pair_angles, edge_tris
from svstokes import poly
from svstokes.geometry import triangle_geometry
from svstokes.mesh import build_topology, crossed, perturbed_grid


def _random_triangle(rng):
    while True:
        pts = rng.standard_normal((3, 2))
        if poly.signed_area(*pts) < 0:
            pts = pts[[0, 2, 1]]
        if poly.signed_area(*pts) > 0.05:
            return pts


def _opposite_edges(pts):
    """Per vertex slot s of a counter-clockwise triangle, the length and
    the outward unit normal of the edge opposite it, and the height from
    the vertex onto that edge."""
    d = np.roll(pts, -2, axis=0) - np.roll(pts, -1, axis=0)  # p_{s+1} -> p_{s+2}
    lengths = np.hypot(d[:, 0], d[:, 1])
    normals = d[:, ::-1] * np.array([1.0, -1.0]) / lengths[:, None]
    heights = 2.0 * poly.signed_area(*pts) / lengths
    return lengths, normals, heights


def test_equilateral_triangle():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2]])
    angles, cot = triangle_geometry(*pts)
    assert angles.shape == cot.shape == (3,)
    assert np.allclose(angles, np.pi / 3)
    assert np.allclose(cot, 1.0 / np.tan(np.pi / 3))


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_triangle_geometry_identities(seed):
    rng = np.random.default_rng(seed)
    pts = _random_triangle(rng)
    angles, cot = triangle_geometry(*pts)
    lengths, normals, heights = _opposite_edges(pts)
    # angles sum to pi
    assert angles.sum() == pytest.approx(np.pi, abs=1e-12)
    # cotangent is cos/sin of each angle
    assert np.allclose(cot, np.cos(angles) / np.sin(angles))
    # law of sines
    ratio = lengths / np.sin(angles)
    assert np.allclose(ratio, ratio[0])
    # the height from vertex s is its side to vertex s + 1 times the sine
    # of the angle at s + 1
    side = np.roll(pts, -1, axis=0) - pts
    assert np.allclose(heights, np.hypot(side[:, 0], side[:, 1])
                       * np.sin(np.roll(angles, -1)))
    for s in range(3):
        n = normals[s]
        assert np.hypot(*n) == pytest.approx(1.0, abs=1e-12)
        # outward: points away from the opposite vertex
        mid = 0.5 * (pts[(s + 1) % 3] + pts[(s + 2) % 3])
        assert n @ (mid - pts[s]) > 0


def test_stacked_triangles_equal_single_calls():
    rng = np.random.default_rng(11)
    pts = np.array([[_random_triangle(rng) for _ in range(4)]
                     for _ in range(5)])                       # (5, 4, 3, 2)
    angles, cot = triangle_geometry(pts[..., 0, :], pts[..., 1, :],
                                    pts[..., 2, :])
    assert angles.shape == cot.shape == (5, 4, 3)
    for i in range(5):
        for j in range(4):
            one = triangle_geometry(*pts[i, j])
            assert angles[i, j].tobytes() == one[0].tobytes()
            assert cot[i, j].tobytes() == one[1].tobytes()
    # orientation does not matter
    flipped = triangle_geometry(pts[..., 0, :], pts[..., 2, :], pts[..., 1, :])
    assert np.array_equal(flipped[0], angles[..., [0, 2, 1]])


def test_degenerate_triangle_rejected():
    with pytest.raises(ValueError):
        triangle_geometry((0, 0), (1, 0), (2, 0))
    good = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    bad = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    with pytest.raises(ValueError):
        triangle_geometry(*np.stack([good, bad], axis=1))


def test_hat_gradient_matches_poly_layer():
    rng = np.random.default_rng(7)
    pts = _random_triangle(rng)
    _, normals, heights = _opposite_edges(pts)
    grads = poly.hat_gradients(*pts)
    for s in range(3):
        # gradient magnitude is 1 / height, direction inward
        assert np.hypot(*grads[s]) == pytest.approx(1.0 / heights[s])
        assert np.allclose(grads[s], -normals[s] / heights[s])


@pytest.mark.parametrize("mesh", [crossed(2), perturbed_grid(3, seed=5)],
                         ids=["crossed", "perturbed"])
def test_edge_pair_geometry_matches_patch_angles(mesh):
    topo = build_topology(mesh)
    for e in range(topo.E):
        if topo.boundary_edge[e]:
            continue
        for z in topo.edges[e].tolist():
            phi1, phi2, th1, th2 = edge_pair_angles(topo, e, z)
            patch = topo.patches[z]
            y = int(topo.edges[e][0]) if int(topo.edges[e][0]) != z \
                else int(topo.edges[e][1])
            # phi_1, phi_2 are the consecutive patch angles at z flanking
            # the spoke toward y
            pos = patch.spokes.index(y)
            if patch.boundary:
                pair = (patch.theta[pos - 1], patch.theta[pos])
            else:
                pair = (patch.theta[pos], patch.theta[(pos + 1) % patch.N])
            assert (phi1, phi2) == pair
            # the two triangles at the edge have angle sum 2 pi, of which
            # the angles at the two apexes are a positive part
            total = sum(topo.angle[t].sum() for t in edge_tris(topo, e))
            assert total == pytest.approx(2 * np.pi, abs=1e-12)
            assert phi1 + phi2 + th1 + th2 < total
