"""Mesh format, validation, topology derivation, patch enumeration, and
the preset generators."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import PINCHED
from svstokes import poly
from svstokes.mesh import (MeshError, MeshFormatError, Triangulation,
                           VertexPatch, build_topology, crossed, dump_mesh,
                           enumerate_patch, generate, load_mesh, ngon_patch,
                           perturbed_grid, three_lines, type1_diagonal)

TWO_TRI = "vertices 4\n0 0\n1 0\n1 1\n0 1\ntriangles 2\n0 1 2\n0 2 3\n"


def test_load_dump_round_trip():
    mesh = load_mesh(TWO_TRI)
    again = load_mesh(dump_mesh(mesh))
    assert np.array_equal(mesh.vertices, again.vertices)
    assert np.array_equal(mesh.triangles, again.triangles)


def test_load_ignores_comments_and_blank_lines():
    text = "# header\n\nvertices 4\n0 0\n1 0\n# mid\n1 1\n0 1\n" \
           "triangles 2\n0 1 2\n0 2 3\n"
    mesh = load_mesh(text)
    assert mesh.num_vertices == 4
    assert mesh.num_triangles == 2


@pytest.mark.parametrize("text, what", [
    ("vertices x\n", "count"),
    ("vertices 1\n0 zz\ntriangles 0\n", "coordinate"),
    ("vertices 3\n0 0\n1 0\n0 1\ntriangles 1\n0 1 5\n", "index"),
    ("vertices 3\n0 0\n1 0\n0 1\ntriangles 2\n0 1 2\n", "end of file"),
    ("triangles 1\n0 1 2\n", "vertices"),
])
def test_load_rejects_malformed_input(text, what):
    with pytest.raises(MeshFormatError):
        load_mesh(text)


def test_duplicate_triangle_rejected():
    with pytest.raises(MeshError):
        load_mesh("vertices 3\n0 0\n1 0\n0 1\ntriangles 2\n0 1 2\n1 2 0\n")


def test_repeated_vertex_in_triangle_rejected():
    with pytest.raises(MeshError):
        load_mesh("vertices 3\n0 0\n1 0\n0 1\ntriangles 1\n0 1 1\n")


def test_degenerate_triangle_rejected():
    with pytest.raises(MeshError):
        load_mesh("vertices 3\n0 0\n1 1\n2 2\ntriangles 1\n0 1 2\n")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_coordinates_rejected(bad):
    with pytest.raises(MeshError, match="finite"):
        Triangulation([[0.0, 0.0], [1.0, bad], [0.0, 1.0]], [[0, 1, 2]])


def test_generator_rejects_infinite_length_scale():
    with pytest.raises(MeshError, match="finite"):
        generate("crossed", n=1, L=np.inf)


def test_clockwise_triangles_reoriented():
    mesh = load_mesh("vertices 3\n0 0\n1 0\n0 1\ntriangles 1\n0 2 1\n")
    p = mesh.vertices[mesh.triangles[0]]
    u, v = p[1] - p[0], p[2] - p[0]
    assert u[0] * v[1] - u[1] * v[0] > 0


def test_nonmanifold_edge_rejected():
    text = ("vertices 5\n0 0\n1 0\n0 1\n1 1\n0.5 -1\n"
            "triangles 3\n0 1 2\n1 3 2\n0 4 1\n")
    mesh = load_mesh(text)
    topo = build_topology(mesh)  # edge (0,1) has 2 triangles: fine
    assert topo.T == 3
    bad = ("vertices 5\n0 0\n2 0\n1 1\n1 -1\n1 2\n"
           "triangles 3\n0 1 2\n0 3 1\n0 1 4\n")
    with pytest.raises(MeshError):
        build_topology(load_mesh(bad))


def test_hanging_vertex_rejected():
    # vertex 4 sits in the middle of edge (0, 1) of triangle (0, 1, 2)
    text = ("vertices 5\n0 0\n2 0\n1 2\n1 -2\n1 0\n"
            "triangles 3\n0 1 2\n0 4 3\n4 1 3\n")
    with pytest.raises(MeshError):
        build_topology(load_mesh(text))
    # vertex 3 lies on the line of boundary edge (0, 1), but beyond it
    text = ("vertices 4\n0 0\n1 0\n0 1\n2 0\n"
            "triangles 2\n0 1 2\n1 3 2\n")
    assert build_topology(load_mesh(text)).T == 2
    # vertices 4 and 3 both sit inside edge (0, 1); the smaller index is named
    text = ("vertices 6\n0 0\n3 0\n1.5 2\n2 0\n1 0\n1.5 -2\n"
            "triangles 4\n0 1 2\n0 4 5\n4 3 5\n3 1 5\n")
    with pytest.raises(MeshError,
                       match=r"hanging vertex 3 on boundary edge \(0, 1\)"):
        load_mesh(text)


def test_two_triangle_topology_counts():
    topo = build_topology(load_mesh(TWO_TRI))
    assert (topo.T, topo.E, topo.E0, topo.V, topo.V0) == (2, 5, 1, 4, 0)
    assert topo.euler_ok


def test_tri_edges_name_each_side():
    for mesh in (crossed(2), perturbed_grid(3, seed=1)):
        topo = build_topology(mesh)
        # side s joins vertex slots s and s + 1
        tris = mesh.triangles
        sides = np.sort(np.stack([tris, np.roll(tris, -1, axis=1)], axis=2),
                        axis=2)
        assert np.array_equal(topo.edges[topo.tri_edges], sides)
        assert not topo.tri_edges.flags.writeable


@pytest.mark.parametrize("make", [
    lambda: crossed(2), lambda: type1_diagonal(3), lambda: three_lines(2),
    lambda: perturbed_grid(3, seed=1), lambda: perturbed_grid(6, seed=11)],
    ids=["crossed-2", "type1-3", "three-lines-2", "perturbed-3-s1",
         "perturbed-6-s11"])
def test_geometry_table_matches_the_per_triangle_formulas(make):
    mesh = make()
    topo = build_topology(mesh)
    assert topo.area.shape == (topo.T,)
    assert topo.hat_grads.shape == (topo.T, 3, 2)
    assert not topo.area.flags.writeable and not topo.hat_grads.flags.writeable
    for t in range(topo.T):
        p = mesh.vertices[mesh.triangles[t]]
        # bit for bit: the table is what a per-triangle call computes
        assert topo.hat_grads[t].tobytes() == poly.hat_gradients(*p).tobytes()
        assert topo.area[t].tobytes() == \
            np.float64(abs(poly.signed_area(*p))).tobytes()


@pytest.mark.parametrize("make", [
    lambda: crossed(2), lambda: type1_diagonal(3), lambda: three_lines(2),
    lambda: perturbed_grid(3, seed=1)],
    ids=["crossed-2", "type1-3", "three-lines-2", "perturbed-3-s1"])
def test_patch_table_matches_enumerate_patch(make):
    topo = build_topology(make())
    assert len(topo.patches) == topo.V
    for z, patch in enumerate(topo.patches):
        fresh = enumerate_patch(topo, z)
        for f in dataclasses.fields(VertexPatch):
            a, b = getattr(patch, f.name), getattr(fresh, f.name)
            if isinstance(a, np.ndarray):
                assert a.shape == b.shape and a.tobytes() == b.tobytes(), \
                    (z, f.name)
                assert not a.flags.writeable, (z, f.name)
            else:
                assert a == b, (z, f.name)
        assert patch.z == z and len(patch.slots) == patch.N
        for t, s in zip(patch.tris, patch.slots):
            assert topo.mesh.triangles[t][s] == z
        # the patch diameter equals the pairwise loop over its points
        pts = list(topo.mesh.vertices[list(patch.spokes)]) + [patch.center]
        assert patch.h_z == max(float(np.hypot(*(p - q)))
                                for i, p in enumerate(pts)
                                for q in pts[i + 1:])


def test_pinched_vertex_rejected_by_build_topology():
    mesh = load_mesh(PINCHED)
    with pytest.raises(MeshError, match="pinched\\) patch at vertex 0"):
        build_topology(mesh)


def test_crossed_counts():
    for n in (1, 2, 3):
        topo = build_topology(crossed(n))
        assert topo.T == 4 * n * n
        assert topo.V == (n + 1) ** 2 + n * n
        assert topo.euler_ok
        # Euler for a disk: V - E + T = 1
        assert topo.V - topo.E + topo.T == 1
    topo = build_topology(crossed(1))
    assert (topo.V0, topo.E0, topo.T) == (1, 4, 4)


def test_type1_counts():
    for n in (2, 3):
        topo = build_topology(type1_diagonal(n))
        assert topo.T == 2 * n * n
        assert topo.V == (n + 1) ** 2
        assert topo.V - topo.E + topo.T == 1


def test_three_lines_counts():
    topo = build_topology(three_lines(2))
    assert topo.T == 8
    assert topo.V - topo.E + topo.T == 1
    # every interior vertex is a regular hexagon center
    for v in range(topo.V):
        if not topo.boundary_vertex[v]:
            patch = enumerate_patch(topo, v)
            assert patch.N == 6
            assert np.allclose(patch.theta, np.pi / 3.0)


def test_ngon_patch_structure():
    topo = build_topology(ngon_patch(6))
    assert topo.T == 6
    assert topo.V0 == 1
    patch = enumerate_patch(topo, 0)
    assert not patch.boundary
    assert patch.N == 6
    assert np.isclose(sum(patch.theta), 2 * np.pi)


def test_ngon_patch_rejects_bad_perturbations():
    with pytest.raises(MeshError):
        ngon_patch(3, angle_shift=[0.0, -2.0, 0.0])
    with pytest.raises(MeshError):
        ngon_patch(2)


def test_interior_patch_is_ccw_and_closed():
    topo = build_topology(crossed(2))
    for v in range(topo.V):
        if topo.boundary_vertex[v]:
            continue
        patch = enumerate_patch(topo, v)
        assert len(patch.spokes) == patch.N
        assert np.isclose(sum(patch.theta), 2 * np.pi)
        tris = topo.mesh.triangles
        for k in range(patch.N):
            t = patch.tris[k]
            assert v in tris[t]
            # triangle k is bounded by the incoming and outgoing spokes
            s_in, s_out = patch.tri_spokes(k)
            assert patch.spokes[s_in] in tris[t]
            assert patch.spokes[s_out] in tris[t]


def test_boundary_patch_has_extra_spoke():
    topo = build_topology(crossed(2))
    for v in range(topo.V):
        if not topo.boundary_vertex[v]:
            continue
        patch = enumerate_patch(topo, v)
        assert patch.boundary
        assert len(patch.spokes) == patch.N + 1
        assert sum(patch.theta) < 2 * np.pi - 1e-9


def test_generate_presets_and_errors():
    mesh = generate("crossed", n=2)
    assert mesh.num_triangles == 16
    with pytest.raises(MeshError):
        generate("no_such_preset")


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 4))
def test_perturbed_grid_always_valid(seed, n):
    topo = build_topology(perturbed_grid(n, seed=seed))
    assert topo.euler_ok
    assert topo.V - topo.E + topo.T == 1
    # each triangle contributes 3 vertex incidences
    assert sum(len(topo.vertex_tris[v]) for v in range(topo.V)) == 3 * topo.T
    for v in range(topo.V):
        patch = enumerate_patch(topo, v)
        total = sum(patch.theta)
        assert total <= 2 * np.pi + 1e-9


def test_triangulation_arrays_read_only():
    mesh = load_mesh(TWO_TRI)
    with pytest.raises(ValueError):
        mesh.vertices[0, 0] = 5.0
