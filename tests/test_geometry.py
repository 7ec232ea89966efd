"""Per-triangle geometry: angles, cotangents, heights, normals, and the
edge-pair angle extraction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import edge_tris
from svstokes import poly
from svstokes.geometry import edge_pair_geometry, triangle_geometry
from svstokes.mesh import (build_topology, crossed, enumerate_patch,
                           perturbed_grid)


def _random_triangle(rng):
    while True:
        pts = rng.standard_normal((3, 2))
        if poly.signed_area(*pts) < 0:
            pts = pts[[0, 2, 1]]
        if poly.signed_area(*pts) > 0.05:
            return pts


def test_equilateral_triangle():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2]])
    geom = triangle_geometry(*pts)
    assert np.allclose(geom.angles, np.pi / 3)
    assert np.allclose(geom.edge_lengths, 1.0)
    assert geom.area == pytest.approx(np.sqrt(3) / 4)
    assert np.allclose(geom.cotangents, 1.0 / np.tan(np.pi / 3))


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_triangle_geometry_identities(seed):
    rng = np.random.default_rng(seed)
    pts = _random_triangle(rng)
    geom = triangle_geometry(*pts)
    # angles sum to pi
    assert geom.angles.sum() == pytest.approx(np.pi, abs=1e-12)
    # cotangent is cos/sin of each angle
    assert np.allclose(geom.cotangents,
                       np.cos(geom.angles) / np.sin(geom.angles))
    # height opposite each vertex: h = 2 |T| / edge length
    assert np.allclose(geom.heights, 2 * geom.area / geom.edge_lengths)
    # law of sines
    ratio = geom.edge_lengths / np.sin(geom.angles)
    assert np.allclose(ratio, ratio[0])
    for s in range(3):
        n = geom.normals[s]
        assert np.hypot(*n) == pytest.approx(1.0, abs=1e-12)
        # outward: points away from the opposite vertex
        mid = 0.5 * (pts[(s + 1) % 3] + pts[(s + 2) % 3])
        assert n @ (mid - pts[s]) > 0


def test_degenerate_triangle_rejected():
    with pytest.raises(ValueError):
        triangle_geometry((0, 0), (1, 0), (2, 0))


def test_hat_gradient_matches_poly_layer():
    rng = np.random.default_rng(7)
    pts = _random_triangle(rng)
    geom = triangle_geometry(*pts)
    grads = poly.hat_gradients(*pts)
    for s in range(3):
        # gradient magnitude is 1 / height, direction inward
        assert np.hypot(*grads[s]) == pytest.approx(1.0 / geom.heights[s])
        assert np.allclose(grads[s], -geom.normals[s] / geom.heights[s])


@pytest.mark.parametrize("mesh", [crossed(2), perturbed_grid(3, seed=5)],
                         ids=["crossed", "perturbed"])
def test_edge_pair_geometry_matches_patch_angles(mesh):
    topo = build_topology(mesh)
    for e in range(topo.E):
        if topo.boundary_edge[e]:
            continue
        for z in topo.edges[e]:
            z = int(z)
            phi1, phi2, th1, th2 = edge_pair_geometry(topo, e, z)
            patch = enumerate_patch(topo, z)
            y = int(topo.edges[e][0]) if int(topo.edges[e][0]) != z \
                else int(topo.edges[e][1])
            # phi_1, phi_2 are the consecutive patch angles at z flanking
            # the spoke toward y
            pos = patch.spokes.index(y)
            if patch.boundary:
                pair = {patch.theta[pos - 1], patch.theta[pos]}
            else:
                pair = {patch.theta[pos], patch.theta[(pos + 1) % patch.N]}
            assert {round(phi1, 12), round(phi2, 12)} == \
                {round(a, 12) for a in pair}
            # phi angles are the far-endpoint angles; all four angles of the
            # two triangles at this edge sum to 2 pi minus the apex angles
            tri_pair = edge_tris(topo, e)
            total = 0.0
            for t in tri_pair:
                pts = topo.mesh.vertices[topo.mesh.triangles[t]]
                total += triangle_geometry(*pts).angles.sum()
            assert phi1 + phi2 + th1 + th2 <= total + 1e-12
