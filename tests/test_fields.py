"""Local velocity fields: basis constructions, patch interpolants,
boundary interpolants, edge transfers, and path transfers."""

import numpy as np
import pytest

from conftest import random_interior_patch
from svstokes import poly
from svstokes.classify import (EVEN, ODD, SINGULAR, Tolerances,
                               classify_mesh, classify_vertex,
                               compute_dcoefficients)
from svstokes.fields import (FieldError, PatchField, UnacceptableEdgeError,
                             basis_chi, basis_chi_sum, basis_kappa,
                             basis_w, basis_xi, boundary_interpolant,
                             edge_transfer, kappa_field, local_interpolant,
                             path_interpolant, verify_field, w_field)
from svstokes.mesh import (Triangulation, build_topology, crossed,
                           enumerate_patch, ngon_patch, perturbed_grid)
from svstokes.trees import path_stats

TOL = Tolerances()


def _tri_area(topo, t):
    return abs(poly.signed_area(*topo.mesh.vertices[topo.mesh.triangles[t]]))


# ---------------------------------------------------------------------------
# basis fields

def test_w_field_properties(rng):
    for _ in range(10):
        mesh, topo, patch = random_interior_patch(rng)
        k = int(rng.integers(patch.n_interior_edges))
        y = patch.spokes[patch.edge_spoke(k)]
        f = w_field(topo, 0, int(y))
        t1, t2 = topo.edge_tris[topo.edge_index[(0, int(y))]]
        assert f.support == {t1, t2}
        for t in (t1, t2):
            assert f.div_at(t, 0) == pytest.approx(1.0, rel=1e-12)
            assert f.div_at(t, int(y)) == pytest.approx(0.0, abs=1e-12)
            assert f.div_mean(t) == pytest.approx(0.0, abs=1e-12)
        report = verify_field(f, vertex_divs={(t1, 0): 1.0, (t2, 0): 1.0})
        assert report.ok, report.failed


def test_chi_fields_and_their_sum(rng):
    for _ in range(10):
        mesh, topo, patch = random_interior_patch(rng)
        dco = compute_dcoefficients(patch, topo)
        for k in range(patch.N):
            chi = basis_chi(patch, topo, k)
            t1, t2 = patch.edge_tri_pair(k)
            assert chi.support == {t1, t2}
            ints = sorted(chi.div_integral(t) for t in (t1, t2))
            assert ints[0] == pytest.approx(-1.0, rel=1e-10)
            assert ints[1] == pytest.approx(1.0, rel=1e-10)
        total = basis_chi_sum(patch, topo)
        for j, t in enumerate(patch.tris):
            assert total.div_at(t, 0) == pytest.approx(
                12.0 * dco.d0[j], rel=1e-10, abs=1e-10)


def test_xi_fields(rng):
    for _ in range(10):
        mesh, topo, patch = random_interior_patch(rng)
        dco = compute_dcoefficients(patch, topo)
        for i in (1, 2):
            xi_tilde, xi = basis_xi(patch, topo, i)
            for j, t in enumerate(patch.tris):
                area = _tri_area(topo, t)
                assert xi_tilde.div_at(t, 0) == pytest.approx(
                    3.0 * dco.b[j, i - 1] / area, rel=1e-10, abs=1e-12)
                assert xi_tilde.div_integral(t) == pytest.approx(
                    dco.b[j, i - 1], rel=1e-10, abs=1e-12)
                assert xi.div_at(t, 0) == pytest.approx(
                    dco.d[j, i - 1], rel=1e-9, abs=1e-9)
                assert xi.div_mean(t) == pytest.approx(0.0, abs=1e-11)


def test_kappa_field_properties(rng):
    for _ in range(10):
        mesh, topo, patch = random_interior_patch(rng)
        k = int(rng.integers(patch.n_interior_edges))
        y = int(patch.spokes[patch.edge_spoke(k)])
        kap = kappa_field(topo, 0, y)
        e = topo.edge_index[(0, y)]
        for t in topo.edge_tris[e]:
            # zero mean along the shared edge
            assert kap.edge_integral(t, 0, y) == pytest.approx(0.0,
                                                               abs=1e-12)
            g = poly.hat_gradients(*topo.mesh.vertices[topo.mesh.triangles[t]])
            tri = list(topo.mesh.triangles[t])
            gz = kap.gradient_at_vertex(t, 0)
            gy = kap.gradient_at_vertex(t, y)
            assert np.allclose(gz, 0.5 * g[tri.index(y)], atol=1e-12)
            assert np.allclose(gy, -0.5 * g[tri.index(0)], atol=1e-12)


def test_basis_kappa_matches_kappa_field(rng):
    mesh, topo, patch = random_interior_patch(rng)
    y = int(patch.spokes[0])
    e = topo.edge_index[(0, y)]
    a = basis_kappa(topo, e, 0)
    b = kappa_field(topo, 0, y)
    for t in a.support:
        lam = np.array([[0.2, 0.5, 0.3], [0.7, 0.1, 0.2]])
        assert np.allclose(a.eval(t, lam), b.eval(t, lam))


# ---------------------------------------------------------------------------
# local interpolants

def _check_local(patch, topo, target, rng):
    f = local_interpolant(patch, target, topo,
                          classify_vertex(patch, topo, TOL))
    divs = {(t, patch.z): target[j] for j, t in enumerate(patch.tris)}
    report = verify_field(f, vertex_divs=divs, mean_zero=True,
                          support=patch.tris)
    assert report.ok, report.failed


def test_singular_interpolant_crossed_center(rng):
    topo = build_topology(crossed(1))
    center = [v for v in range(topo.V) if not topo.boundary_vertex[v]][0]
    patch = enumerate_patch(topo, center)
    assert classify_vertex(patch, topo).status == SINGULAR
    for _ in range(20):
        raw = rng.standard_normal(patch.N)
        signs = np.array([(-1.0) ** j for j in range(patch.N)])
        target = raw - signs * (signs @ raw) / patch.N
        _check_local(patch, topo, target, rng)


def test_singular_interpolant_rejects_inadmissible_target(rng):
    topo = build_topology(crossed(1))
    center = [v for v in range(topo.V) if not topo.boundary_vertex[v]][0]
    patch = enumerate_patch(topo, center)
    with pytest.raises(FieldError):
        local_interpolant(patch, [1.0, 0.0, 0.0, 0.0], topo,
                          classify_vertex(patch, topo, TOL))


@pytest.mark.parametrize("N", [3, 5, 7])
def test_odd_interpolant(N, rng):
    for _ in range(8):
        mesh, topo, patch = random_interior_patch(rng, N=N)
        assert classify_vertex(patch, topo).status == ODD
        _check_local(patch, topo, rng.standard_normal(N), rng)


def test_even_interpolant_crossed_eight_valent(rng):
    topo = build_topology(crossed(2))
    reports, _ = classify_mesh(topo)
    eights = [r.vertex for r in reports if r.status == EVEN]
    assert eights
    for v in eights:
        patch = enumerate_patch(topo, v)
        for _ in range(5):
            _check_local(patch, topo, rng.standard_normal(patch.N), rng)


def test_even_interpolant_random_patches(rng):
    done = 0
    while done < 8:
        mesh, topo, patch = random_interior_patch(
            rng, N=int(rng.choice([4, 6, 8])))
        r = classify_vertex(patch, topo)
        if r.status != EVEN:
            continue
        _check_local(patch, topo, rng.standard_normal(patch.N), rng)
        done += 1


def test_interpolants_reject_another_vertex_report():
    topo = build_topology(perturbed_grid(3, seed=1))
    reports, _ = classify_mesh(topo)
    inner = next(r.vertex for r in reports if r.local_interpolating
                 and not r.boundary)
    outer = next(r.vertex for r in reports if r.boundary)
    for z, other in ((inner, outer), (outer, inner)):
        patch = topo.patches[z]
        target = np.zeros(patch.N)
        interpolant = boundary_interpolant if patch.boundary \
            else local_interpolant
        with pytest.raises(FieldError, match="report of vertex"):
            interpolant(patch, target, topo, reports[other])


# ---------------------------------------------------------------------------
# boundary interpolants

@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_boundary_interpolant_perturbed_grids(seed, rng):
    topo = build_topology(perturbed_grid(3, seed=seed))
    reports, _ = classify_mesh(topo)
    for r in reports:
        if not r.boundary:
            continue
        patch = enumerate_patch(topo, r.vertex)
        target = rng.standard_normal(patch.N)
        if r.singular:
            if patch.N == 1:
                target[:] = 0.0
            else:
                signs = np.array([(-1.0) ** j for j in range(patch.N)])
                target -= signs * (signs @ target) / patch.N
        result = boundary_interpolant(patch, target, topo, r)
        divs = {(t, patch.z): target[j] for j, t in enumerate(patch.tris)}
        divs.update(result.side_effects)
        report = verify_field(result.field, vertex_divs=divs, mean_zero=True)
        assert report.ok, (r.vertex, report.failed)
        # declared side effects only hit interior vertices
        for (t, v) in result.side_effects:
            assert not topo.boundary_vertex[v]


# ---------------------------------------------------------------------------
# edge and path transfers

def test_edge_transfer_matches_targets_and_spill(rng):
    topo = build_topology(perturbed_grid(3, seed=7))
    reports, _ = classify_mesh(topo)
    interior = [r.vertex for r in reports if not r.boundary]
    for z in interior:
        patch = enumerate_patch(topo, z)
        neighbors = [int(y) for y in patch.spokes
                     if not topo.boundary_vertex[int(y)]]
        if not neighbors:
            continue
        y = neighbors[0]
        target = rng.standard_normal(patch.N)
        field, info = edge_transfer(topo, z, y, target, TOL)
        divs = {(t, z): target[j] for j, t in enumerate(patch.tris)}
        divs.update(info.spill)
        report = verify_field(field, vertex_divs=divs, mean_zero=True)
        assert report.ok, (z, y, report.failed)


def test_edge_transfer_rejects_zero_weight_edge():
    topo = build_topology(crossed(1))
    center = [v for v in range(topo.V) if not topo.boundary_vertex[v]][0]
    patch = enumerate_patch(topo, center)
    y = int(patch.spokes[0])
    # the flanking angles at the crossed center are both right angles
    with pytest.raises(UnacceptableEdgeError):
        edge_transfer(topo, center, y, [1.0, 0.0, 0.0, 0.0], TOL)


def _three_hop_path(topo):
    """An interior 4-vertex path with acceptable traversal weights whose
    intermediate vertices have even valence (so the alternating-sum
    amplification telescopes with a consistent sign)."""
    from svstokes.trees import edge_weights
    weights = edge_weights(topo)
    interior = [v for v in range(topo.V) if not topo.boundary_vertex[v]]
    even = {v for v in interior if enumerate_patch(topo, v).N % 2 == 0}
    iset = set(interior)
    for a in interior:
        for b in even:
            e1 = topo.edge_index.get((min(a, b), max(a, b)))
            if e1 is None or topo.boundary_edge[e1]:
                continue
            for c in even - {a, b}:
                e2 = topo.edge_index.get((min(b, c), max(b, c)))
                if e2 is None or topo.boundary_edge[e2]:
                    continue
                for d in iset - {a, b, c}:
                    e3 = topo.edge_index.get((min(c, d), max(c, d)))
                    if e3 is None or topo.boundary_edge[e3]:
                        continue
                    path = [a, b, c, d]
                    ws = [weights[(e, u)] for e, u in
                          ((e1, a), (e2, b), (e3, c))]
                    if min(abs(w) for w in ws) > 0.1:
                        return path
    return None


def test_path_interpolant_three_hops(rng):
    topo = build_topology(perturbed_grid(4, seed=3))
    path = _three_hop_path(topo)
    assert path is not None
    z = path[0]
    patch = enumerate_patch(topo, z)
    # delta target: the chain-signed alternating sum has magnitude one,
    # so the end-spill magnitude is an independent closed-form product
    target = np.zeros(patch.N)
    target[int(rng.integers(patch.N))] = 1.0
    result = path_interpolant(topo, path, target, TOL)
    divs = {(t, z): target[j] for j, t in enumerate(patch.tris)}
    divs.update(result.end_spill)
    report = verify_field(result.field, vertex_divs=divs, mean_zero=True)
    assert report.ok, report.failed

    stats = path_stats(topo, path, TOL)
    assert stats.acceptable
    amplification = abs(stats.rho_tilde[-1])      # over the first L-1 edges
    from svstokes.geometry import edge_pair_geometry
    e_last = stats.edges[-1]
    phi1, phi2, th1, th2 = edge_pair_geometry(topo, e_last, path[-2])
    M_last = abs(stats.M_fwd[-1])
    predicted = sorted(amplification * abs(np.cos(th) / np.sin(th)) / M_last
                       for th in (th1, th2))
    got = sorted(abs(v) for v in result.end_spill.values())
    assert len(got) == 2
    for p, g in zip(predicted, got):
        assert g == pytest.approx(p, rel=1e-9, abs=1e-12)


def test_path_interpolant_rejects_repeated_vertices():
    topo = build_topology(perturbed_grid(3, seed=1))
    interior = [v for v in range(topo.V) if not topo.boundary_vertex[v]]
    z = interior[0]
    patch = enumerate_patch(topo, z)
    with pytest.raises(Exception):
        path_interpolant(topo, [z, z], np.ones(patch.N), TOL)


# ---------------------------------------------------------------------------
# negative control

def test_verify_field_catches_corruption(rng):
    mesh, topo, patch = random_interior_patch(rng, N=5)
    f = local_interpolant(patch, rng.standard_normal(5), topo,
                          classify_vertex(patch, topo, TOL))
    t = sorted(f.support)[0]
    f.coeffs[t][0, 3] += 0.37          # break continuity / divergences
    divs = {(tt, 0): 0.0 for tt in patch.tris}
    report = verify_field(f, vertex_divs=divs, mean_zero=True)
    assert not report.ok


def _valid_field(kind, rng):
    """A verified interpolant on a perturbed grid, with the vertex
    divergences it must have: a local interpolant at a non-singular
    interior vertex, or a boundary interpolant with its side effects."""
    topo = build_topology(perturbed_grid(4, seed=3))
    reports, _ = classify_mesh(topo)
    if kind == "local":
        r = next(r for r in reports if not r.boundary and not r.singular
                 and r.local_interpolating)
    else:
        r = next(r for r in reports if r.boundary and not r.singular)
    patch = enumerate_patch(topo, r.vertex)
    target = rng.standard_normal(patch.N)
    divs = {(t, patch.z): target[j] for j, t in enumerate(patch.tris)}
    if kind == "local":
        f = local_interpolant(patch, target, topo, r)
    else:
        result = boundary_interpolant(patch, target, topo, r)
        f = result.field
        divs.update(result.side_effects)
    report = verify_field(f, vertex_divs=divs, mean_zero=True)
    assert report.ok, report.failed()
    return f, divs


def _checks(report):
    return {c.name: c.ok for c in report.checks}


def _edge_bump(topo, t, a, b):
    """One coefficient on triangle t: 1e-6 l_a^2 l_b in the first
    component, nonzero on the edge {a, b} only."""
    expo = [0, 0, 0]
    tri = topo.mesh.triangles[t].tolist()
    expo[tri.index(a)], expo[tri.index(b)] = 2, 1
    c = np.zeros((2, len(poly.MONO3)))
    c[0, poly.MONO3.index(tuple(expo))] = 1e-6
    return PatchField(topo, {t: c})


@pytest.mark.parametrize("kind", ["local", "boundary"])
def test_verify_field_catches_a_discontinuity(kind, rng):
    f, divs = _valid_field(kind, rng)
    topo = f.topology
    # a support triangle t and a triangle s outside the support that share
    # the edge {a, b}
    t, s, a, b = next(
        (t, s, a, b) for t in sorted(f.support)
        for a, b in zip(topo.mesh.triangles[t].tolist(),
                        np.roll(topo.mesh.triangles[t], -1).tolist())
        for s in topo.edge_tris[topo.edge_index[(min(a, b), max(a, b))]]
        if s not in f.support)
    checks = _checks(verify_field(f + _edge_bump(topo, s, a, b),
                                  vertex_divs=divs, mean_zero=True))
    assert not checks["continuity"]
    assert checks["zero_boundary_trace"]
    # the same coefficient on the support side leaves a trace on the
    # boundary of the support
    checks = _checks(verify_field(f + _edge_bump(topo, t, a, b),
                                  vertex_divs=divs, mean_zero=True))
    assert not checks["zero_boundary_trace"]
    assert checks["continuity"]


@pytest.mark.parametrize("kind", ["local", "boundary"])
def test_verify_field_catches_a_moved_target(kind, rng):
    f, divs = _valid_field(kind, rng)
    moved = dict(divs)
    key = next(iter(moved))
    moved[key] += 1e-6
    checks = _checks(verify_field(f, vertex_divs=moved, mean_zero=True))
    assert not checks["vertex_divergences"]
    assert checks["continuity"] and checks["zero_triangle_means"]


@pytest.mark.parametrize("kind", ["local", "boundary"])
def test_verify_field_catches_a_triangle_mean(kind, rng):
    f, divs = _valid_field(kind, rng)
    topo = f.topology
    # chi moves divergence integral between two triangles: it is continuous,
    # has zero trace on the boundary of its support, and carries means
    z = next(v for v in range(topo.V) if not topo.boundary_vertex[v])
    chi = 1e-6 * basis_chi(enumerate_patch(topo, z), topo, 0)
    expect = dict(divs)
    for key, val in chi.vertex_divergences(skip_zero=False).items():
        expect[key] = expect.get(key, 0.0) + val
    checks = _checks(verify_field(f + chi, vertex_divs=expect, mean_zero=True))
    assert not checks["zero_triangle_means"]
    assert checks["continuity"] and checks["zero_boundary_trace"]
    assert checks["vertex_divergences"]


def test_divergence_kernels_match_their_definitions(rng):
    topo = build_topology(perturbed_grid(3, seed=2))
    f = PatchField(topo, {t: rng.standard_normal((2, len(poly.MONO3)))
                          for t in range(topo.T)})
    for t in range(topo.T):
        dc = f.div_coeffs(t)
        g, c = topo.hat_grads[t], f.coeffs[t]
        ref = sum(g[s, 0] * (poly.DIFF[s] @ c[0]) + g[s, 1] * (poly.DIFF[s] @ c[1])
                  for s in range(3))
        assert np.allclose(dc, ref, rtol=1e-13, atol=1e-13 * np.abs(ref).max())
        for slot, v in enumerate(topo.mesh.triangles[t].tolist()):
            lam = np.zeros(3)
            lam[slot] = 1.0
            assert f.div_at(t, v) == poly.eval2(dc, lam)
