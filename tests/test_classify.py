"""Vertex taxonomy: the straight-line detector, patch coefficients, the
three determinants with their dual formulas, and classification."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (GOLDEN_MESHES, bench_mesh, bench_pool,
                      dual_determinants, edge_index, edge_weights,
                      random_interior_patch, rigid_motion)
from svstokes.classify import (BOUNDARY, EVEN, NOT_LI, ODD, SINGULAR,
                               Tolerances, alternating_functional,
                               classify_mesh, classify_vertex,
                               compute_dcoefficients, is_singular,
                               theta)
from svstokes.mesh import (Triangulation, build_topology, crossed,
                           ngon_patch, perturbed_grid, three_lines,
                           type1_diagonal)


def test_crossed_center_is_singular():
    topo = build_topology(crossed(1))
    patch = topo.patches[topo.V - 1 if topo.boundary_vertex[0] else 0]
    centers = [v for v in range(topo.V) if not topo.boundary_vertex[v]]
    assert len(centers) == 1
    patch = topo.patches[centers[0]]
    assert patch.N == 4
    assert theta(patch) == pytest.approx(0.0, abs=1e-14)
    assert is_singular(patch)


def test_regular_ngon_center_not_singular_except_four():
    for N in (3, 4, 5, 6, 8):
        topo = build_topology(ngon_patch(N))
        patch = topo.patches[0]
        # consecutive angle pairs sum to 4 pi / N; singular iff that is pi
        expect = abs(np.sin(4 * np.pi / N))
        assert theta(patch) == pytest.approx(expect, abs=1e-12)
        assert is_singular(patch) == (N == 4)


def test_single_triangle_boundary_corner_is_singular_by_convention():
    mesh = Triangulation([[0, 0], [1, 0], [0, 1]], [[0, 1, 2]])
    topo = build_topology(mesh)
    patch = topo.patches[0]
    assert patch.boundary and patch.N == 1
    assert theta(patch) == 0.0
    assert is_singular(patch)


def test_straight_boundary_vertex_is_singular():
    # boundary vertex with two collinear incident boundary edges
    topo = build_topology(type1_diagonal(2))
    reports, summary, _ = classify_mesh(topo)
    # mid-edge boundary vertices of the square grid lie on straight lines;
    # with the diagonal entering, only those where consecutive angles sum
    # to pi are singular.  At least the two corners cut by diagonals:
    assert summary["sigma_b"] >= 2


def test_alternating_functional_signs():
    topo = build_topology(crossed(1))
    center = [v for v in range(topo.V) if not topo.boundary_vertex[v]][0]
    patch = topo.patches[center]
    assert alternating_functional(patch, [1.0, 1.0, 1.0, 1.0]) == 0.0
    assert alternating_functional(patch, [1.0, -1.0, 1.0, -1.0]) == 4.0
    with pytest.raises(ValueError):
        alternating_functional(patch, [1.0])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_coefficient_invariants(seed):
    rng = np.random.default_rng(seed)
    mesh, topo, patch = random_interior_patch(rng)
    dco = compute_dcoefficients(patch, topo)
    # per-direction coefficients sum to zero around the patch
    assert np.allclose(dco.b.sum(axis=0), 0.0, atol=1e-12)
    # prefix sums close up
    assert np.allclose(dco.c[-1], 0.0, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 100_000), N=st.sampled_from([4, 6, 8]))
def test_dual_formula_agreement_even_valence(seed, N):
    # the alternating-sum identities telescope only for even valence
    rng = np.random.default_rng(seed)
    mesh, topo, patch = random_interior_patch(rng, N=N)
    dco = compute_dcoefficients(patch, topo)
    scale = max(1.0, float(np.abs(dco.D).max()))
    D0_simple, D_closed = dual_determinants(patch, topo, dco.D[0])
    assert dco.D[0] == pytest.approx(D0_simple, abs=1e-10 * scale)
    assert dco.D[1] == pytest.approx(D_closed[0], abs=1e-10 * scale)
    assert dco.D[2] == pytest.approx(D_closed[1], abs=1e-10 * scale)


def test_crossed_eight_valent_d0_value():
    for L in (1.0, 0.5, 2.0):
        topo = build_topology(crossed(2, L=L))
        found = False
        for v in range(topo.V):
            if topo.boundary_vertex[v]:
                continue
            patch = topo.patches[v]
            if patch.N != 8:
                continue
            found = True
            dco = compute_dcoefficients(patch, topo)
            Lmin = min(patch.edge_len)
            assert abs(dco.D[0]) == pytest.approx(4.0 / Lmin ** 2, rel=1e-10)
        assert found


@pytest.mark.parametrize("mesh", [ngon_patch(6), three_lines(3),
                                  type1_diagonal(3)],
                         ids=["hexagon", "three_lines", "type1"])
def test_degenerate_families_have_zero_decisions(mesh):
    topo = build_topology(mesh)
    for v in range(topo.V):
        if topo.boundary_vertex[v]:
            continue
        patch = topo.patches[v]
        if is_singular(patch):
            continue
        dco = compute_dcoefficients(patch, topo)
        for i in range(3):
            assert dco.decision(i) < 1e-10


def test_classification_statuses():
    topo = build_topology(crossed(2))
    reports, summary, _ = classify_mesh(topo)
    by_status = {}
    for r in reports:
        by_status.setdefault(r.status, []).append(r)
    # cell centers are 4-valent singular, grid crossings are 8-valent even
    assert all(r.valence == 4 for r in by_status[SINGULAR])
    assert all(r.valence == 8 for r in by_status[EVEN])
    assert summary["sigma_i"] == 4
    assert summary["n_local_interpolating"] >= 5

    topo = build_topology(type1_diagonal(3))
    reports, summary, _ = classify_mesh(topo)
    interior = [r for r in reports if not r.boundary]
    assert interior and all(r.status == NOT_LI for r in interior)

    topo = build_topology(ngon_patch(5))
    r = classify_mesh(topo)[0][0]
    assert r.status == ODD

    topo = build_topology(type1_diagonal(2))
    assert any(r.status == BOUNDARY for r in classify_mesh(topo)[0])


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 100_000),
       angle=st.floats(0.0, 2 * np.pi),
       scale=st.floats(0.25, 4.0))
def test_classification_invariant_under_similarity(seed, angle, scale):
    rng = np.random.default_rng(seed)
    mesh, topo, patch = random_interior_patch(rng)
    moved = rigid_motion(mesh, angle=angle, shift=(3.7, -1.2), scale=scale)
    topo2 = build_topology(moved)
    r1, d1 = classify_vertex(patch, topo)
    r2, d2 = classify_vertex(topo2.patches[0], topo2)
    assert r1.status == r2.status
    assert r1.singular == r2.singular
    if patch.N % 2 == 0 and not r1.singular:
        # D_0 h^2 is invariant under the whole similarity group; D_1, D_2
        # rotate as a vector, so only their norm (times h) is preserved
        assert d2.decision(0) == pytest.approx(d1.decision(0), rel=1e-8,
                                               abs=1e-12)
        n1 = np.hypot(d1.decision(1), d1.decision(2))
        n2 = np.hypot(d2.decision(1), d2.decision(2))
        assert n2 == pytest.approx(n1, rel=1e-8, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 100_000), scale=st.floats(0.25, 4.0))
def test_decision_values_invariant_under_scaling(seed, scale):
    rng = np.random.default_rng(seed)
    mesh, topo, patch = random_interior_patch(rng, N=int(
        np.random.default_rng(seed + 1).choice([4, 6, 8])))
    moved = rigid_motion(mesh, shift=(-2.0, 0.5), scale=scale)
    topo2 = build_topology(moved)
    d1 = compute_dcoefficients(patch, topo)
    d2 = compute_dcoefficients(topo2.patches[0], topo2)
    for i in range(3):
        assert d2.decision(i) == pytest.approx(d1.decision(i), rel=1e-8,
                                               abs=1e-12)


def _det_areas(mesh, tris):
    """Patch triangle areas by a per-triangle determinant of the edge
    vectors, the formula ``compute_dcoefficients`` used before it read
    ``topology.area``."""
    v = mesh.vertices
    return np.array([abs(np.linalg.det(np.column_stack(
        [v[tri[1]] - v[tri[0]], v[tri[2]] - v[tri[0]]]))) / 2.0
        for tri in mesh.triangles[list(tris)]])


@pytest.mark.parametrize("n,seed", [(3, 1), (4, 7), (5, 2), (6, 11)])
def test_dcoefficients_agree_with_determinant_areas(n, seed):
    """D read from the geometry table's areas matches D computed with the
    determinant areas to 1e-12 relative (the two area formulas round
    differently in the last bits)."""
    topo = build_topology(perturbed_grid(n, seed=seed, amplitude=0.3))
    checked = 0
    for patch in topo.patches:
        if patch.boundary:
            continue
        dco = compute_dcoefficients(patch, topo)
        areas = _det_areas(topo.mesh, patch.tris)
        assert np.allclose(topo.area[list(patch.tris)], areas,
                           rtol=1e-15, atol=0.0)
        cot = np.cos(patch.theta) / np.sin(patch.theta)
        elen2 = patch.edge_len ** 2
        d = (3.0 * dco.b / areas[:, None]
             - 12.0 * cot[:, None] * (dco.c / elen2[:, None]
                                      - np.roll(dco.c, 1, axis=0)
                                      / np.roll(elen2, 1)[:, None]))
        signs = np.array([(-1.0) ** (j + 1) for j in range(patch.N)])
        assert np.allclose(dco.D[1:], signs @ d, rtol=1e-12, atol=0.0)
        checked += 1
    assert checked


def _dcoefficients_loop(patch, topo):
    """(b, c, d0, d, D) by the per-triangle loop ``compute_dcoefficients``
    ran before it took array operations: scalar formulas per slot j, the
    cyclic j - 1 by negative indexing, the squared lengths as scalar
    ``elen[j] ** 2``."""
    n = patch.N
    y = topo.mesh.vertices[np.array(patch.spokes)]
    elen = patch.edge_len
    cot = topo.cot[patch.tris, patch.slots]
    areas = topo.area[list(patch.tris)]
    perp = (np.array([0.0, 1.0]), np.array([-1.0, 0.0]))
    b = np.empty((n, 2))
    for j in range(n):
        dy = y[j] - y[j - 1]
        for i in (0, 1):
            b[j, i] = -(dy @ perp[i]) / 3.0
    c = np.cumsum(b, axis=0)
    d0 = np.array([cot[j] * (1.0 / elen[j] ** 2 - 1.0 / elen[j - 1] ** 2)
                   for j in range(n)])
    d = np.empty((n, 2))
    for j in range(n):
        for i in (0, 1):
            d[j, i] = (3.0 * b[j, i] / areas[j]
                       - 12.0 * cot[j] * (c[j, i] / elen[j] ** 2
                                          - c[j - 1, i] / elen[j - 1] ** 2))
    signs = np.array([(-1.0) ** (j + 1) for j in range(n)])
    D = np.array([np.sum(signs * d0), np.sum(signs * d[:, 0]),
                  np.sum(signs * d[:, 1])])
    return b, c, d0, d, D


DCOEFF_MESHES = (sorted(GOLDEN_MESHES) + bench_pool("certify-dense")
                 + bench_pool("verify-fields"))


@pytest.mark.parametrize("name", DCOEFF_MESHES)
def test_dcoefficients_equal_the_per_triangle_loop(name):
    """The array program gives every coefficient bit for bit as the loop
    did, at each interior vertex of the golden and bench meshes."""
    mesh = GOLDEN_MESHES[name]() if name in GOLDEN_MESHES else bench_mesh(name)
    topo = build_topology(mesh)
    interior = [patch for patch in topo.patches if not patch.boundary]
    assert interior
    for patch in interior:
        dco = compute_dcoefficients(patch, topo)
        got = (dco.b, dco.c, dco.d0, dco.d, dco.D)
        for g, want in zip(got, _dcoefficients_loop(patch, topo)):
            assert np.array_equal(g, want), (patch.z, g, want)


def test_edge_weight_zero_on_supplementary_angles():
    # the two flanking angles at z sum to pi exactly when the outer
    # spokes from z are collinear; here both are right angles
    mesh = Triangulation([[0, 0], [1, 0], [0, 1], [-1, 0]],
                         [[0, 1, 2], [0, 2, 3]])
    topo = build_topology(mesh)
    e = edge_index(topo)[(0, 2)]
    weights = edge_weights(topo)
    assert weights[(e, 0)] == pytest.approx(0.0, abs=1e-14)
    # at the far endpoint the flanking angles are both 45 degrees
    assert weights[(e, 2)] == pytest.approx(2.0, rel=1e-12)


def test_tolerances_defaults():
    tol = Tolerances()
    assert tol.singular == 1e-10
    assert tol.decision == 1e-8
    assert tol.accept == 1e-8
    assert tol.rank == 1e-9
