"""Local velocity fields: basis constructions, patch interpolants,
boundary interpolants, edge transfers, and path transfers."""

import dataclasses

import numpy as np
import pytest

from conftest import (GOLDEN_MESHES, bench_mesh, bench_pool, edge_tris,
                      random_interior_patch)
from svstokes import cli, poly
from svstokes.classify import (BOUNDARY, EVEN, ODD, SINGULAR, Tolerances,
                               classify_mesh, classify_vertex,
                               compute_dcoefficients)
from svstokes.fields import (FieldError, PatchField, UnacceptableEdgeError,
                             basis_chi, basis_chi_sum, basis_kappa,
                             basis_w, basis_xi, boundary_interpolant,
                             edge_transfer, kappa_field, local_interpolant,
                             path_interpolant, verify_field, w_field)
from svstokes.mesh import (Triangulation, build_topology, crossed,
                           enumerate_patch, ngon_patch, perturbed_grid,
                           three_lines, type1_diagonal)
from svstokes.trees import edge_weights, path_stats

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
        t1, t2 = edge_tris(topo, topo.edge_index[(0, int(y))])
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
            xi_tilde, xi = basis_xi(patch, topo, i, dco)
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
        for t in edge_tris(topo, e):
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
                          *classify_vertex(patch, topo, TOL))
    divs = {(t, patch.z): target[j] for j, t in enumerate(patch.tris)}
    report = verify_field(f, vertex_divs=divs, mean_zero=True,
                          support=patch.tris)
    assert report.ok, report.failed


def test_singular_interpolant_crossed_center(rng):
    topo = build_topology(crossed(1))
    center = [v for v in range(topo.V) if not topo.boundary_vertex[v]][0]
    patch = enumerate_patch(topo, center)
    assert classify_vertex(patch, topo)[0].status == SINGULAR
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
                          *classify_vertex(patch, topo, TOL))


@pytest.mark.parametrize("N", [3, 5, 7])
def test_odd_interpolant(N, rng):
    for _ in range(8):
        mesh, topo, patch = random_interior_patch(rng, N=N)
        assert classify_vertex(patch, topo)[0].status == ODD
        _check_local(patch, topo, rng.standard_normal(N), rng)


def test_even_interpolant_crossed_eight_valent(rng):
    topo = build_topology(crossed(2))
    reports, _, _ = classify_mesh(topo)
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
        r, _ = classify_vertex(patch, topo)
        if r.status != EVEN:
            continue
        _check_local(patch, topo, rng.standard_normal(patch.N), rng)
        done += 1


def test_interpolants_reject_another_vertex_report():
    topo = build_topology(perturbed_grid(3, seed=1))
    reports, _, _ = classify_mesh(topo)
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
    reports, _, _ = classify_mesh(topo)
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
    reports, _, _ = classify_mesh(topo)
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
                          *classify_vertex(patch, topo, TOL))
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
    reports, _, dcoefficients = classify_mesh(topo)
    if kind == "local":
        r = next(r for r in reports if not r.boundary and not r.singular
                 and r.local_interpolating)
    else:
        r = next(r for r in reports if r.boundary and not r.singular)
    patch = enumerate_patch(topo, r.vertex)
    target = rng.standard_normal(patch.N)
    divs = {(t, patch.z): target[j] for j, t in enumerate(patch.tris)}
    if kind == "local":
        f = local_interpolant(patch, target, topo, r,
                              dcoefficients[r.vertex])
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
        for s in edge_tris(topo, topo.edge_index[(min(a, b), max(a, b))])
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


# ---------------------------------------------------------------------------
# oracle: the constructions the per-patch table replaced, field by field
# with PatchField arithmetic and the chain basis by recursion

def _oracle_monomial(expo):
    return poly.bary_poly([(1.0, tuple(expo))])


def _oracle_edge(topo, z, y, profile):
    """{t: profile(slot of z, slot of y)} over the two triangles of the
    interior edge {z, y}."""
    e = topo.edge_index[(min(z, y), max(z, y))]
    out = {}
    for t in edge_tris(topo, e):
        tri = topo.mesh.triangles[t].tolist()
        out[t] = profile(tri.index(z), tri.index(y))
    return out


def _oracle_eta(sz, sy):
    expo = [0, 0, 0]
    expo[sz], expo[sy] = 2, 1
    return _oracle_monomial(expo)


def _oracle_kappa_profile(sz, sy):
    quad = [0, 0, 0]
    quad[sz] = quad[sy] = 1
    return _oracle_eta(sz, sy) - 0.5 * _oracle_monomial(quad)


def _oracle_w(topo, z, y):
    vec = topo.mesh.vertices[y] - topo.mesh.vertices[z]
    return PatchField(topo, {t: np.outer(vec, eta) for t, eta in
                             _oracle_edge(topo, z, y, _oracle_eta).items()})


def _oracle_kappa(topo, z, y):
    return _oracle_edge(topo, z, y, _oracle_kappa_profile)


def _oracle_patch_w(patch, topo, k):
    return _oracle_w(topo, patch.z, patch.spokes[patch.edge_spoke(k)])


def _oracle_chi(patch, topo, k):
    n = (12.0 / patch.edge_len[k]) * patch.normals[k]
    return PatchField(topo, {t: np.outer(n, eta) for t, eta in _oracle_edge(
        topo, patch.z, patch.spokes[k], _oracle_eta).items()})


def _oracle_chi_sum(patch, topo):
    out = PatchField(topo)
    for k in range(patch.N):
        out = out + _oracle_chi(patch, topo, k)
    return out


def _oracle_xi(patch, topo, i, dco):
    direction = np.eye(2)[i - 1]
    coeffs = {}
    for t in patch.tris:
        expo = [0, 0, 0]
        expo[topo.mesh.triangles[t].tolist().index(patch.z)] = 2
        coeffs[t] = np.outer(direction, _oracle_monomial(expo))
    xi_tilde = PatchField(topo, coeffs)
    xi = xi_tilde
    for k in range(patch.N - 1):
        xi = xi - dco.c[k, i - 1] * _oracle_chi(patch, topo, k)
    return xi_tilde, xi


def _oracle_chain_basis(patch, topo, seed, seed_pos):
    n = patch.N
    fields = [None] * n
    fields[seed_pos] = seed
    if patch.boundary:
        for p in range(seed_pos + 1, n):
            fields[p] = _oracle_patch_w(patch, topo, p - 1) - fields[p - 1]
        for p in range(seed_pos - 1, -1, -1):
            fields[p] = _oracle_patch_w(patch, topo, p) - fields[p + 1]
    else:
        for step in range(1, n):
            p = (seed_pos + step) % n
            fields[p] = (_oracle_patch_w(patch, topo, (p - 1) % n)
                         - fields[(p - 1) % n])
    return fields


def _oracle_combine(topo, a, basis):
    v = PatchField(topo)
    for j in range(len(a)):
        if a[j] != 0.0:
            v = v + a[j] * basis[j]
    return v


def _oracle_local(patch, a, topo, status, i=None, dco=None):
    if status == SINGULAR:
        v, b = PatchField(topo), 0.0
        for j in range(patch.N - 1):
            b = a[j] - b
            if b != 0.0:
                v = v + b * _oracle_patch_w(patch, topo, j)
        return v
    if patch.N % 2 == 1:
        seed = PatchField(topo)
        for j in range(patch.N):
            seed = seed + (0.5 * (-1.0) ** j) * _oracle_patch_w(patch, topo, j)
    else:
        if i == 0:
            xi = _oracle_chi_sum(patch, topo)
            dvals, det = 12.0 * dco.d0, 12.0 * dco.D[0]
        else:
            xi = _oracle_xi(patch, topo, i, dco)[1]
            dvals, det = dco.d[:, i - 1], dco.D[i]
        s = np.zeros(patch.N)
        for j in range(1, patch.N):
            s[j] = dvals[j] - s[j - 1]
        seed = xi
        for j in range(1, patch.N):
            if s[j] != 0.0:
                seed = seed - s[j] * _oracle_patch_w(patch, topo, j)
        seed = (-1.0 / det) * seed
    return _oracle_combine(topo, a, _oracle_chain_basis(patch, topo, seed, 0))


def _oracle_boundary(patch, a, topo):
    """Non-singular boundary interpolant: (field, side effects)."""
    sums = patch.theta[:-1] + patch.theta[1:]
    sines = np.abs(np.sin(sums))
    interior_far = np.array([not topo.boundary_vertex[patch.spokes[j + 1]]
                             for j in range(patch.N - 1)])
    usable = interior_far & (sines > 1e-8)
    s = int(np.argmax(np.where(usable, sines, -1.0) if usable.any()
                      else sines))
    y = patch.spokes[s + 1]
    coef = (2.0 * patch.edge_len[s + 1] * np.sin(patch.theta[s])
            / np.sin(sums[s]))
    seed = PatchField(topo, {t: np.outer(coef * patch.tangents[s + 2], c)
                             for t, c in _oracle_kappa(topo, patch.z, y).items()})
    v = _oracle_combine(topo, a, _oracle_chain_basis(patch, topo, seed, s))
    side = {key: val for key, val in v.vertex_divergences(tol=1e-12 * max(
        v.max_coeff(), 1e-30)).items() if key[1] != patch.z}
    return v, side


def _oracle_edge_transfer(topo, z, y, a):
    """(field, spill, chain-signed sum of a) of the transfer over {z, y}."""
    patch = topo.patches[z]
    k = next(k for k in range(patch.n_interior_edges)
             if patch.spokes[patch.edge_spoke(k)] == y)
    tA, tB = patch.edge_tri_pair(k)
    cotA = 1.0 / np.tan(patch.theta[k])
    cotB = 1.0 / np.tan(patch.theta[(k + 1) % patch.N])
    M = cotA + cotB
    n1 = 2.0 * patch.edge_len[patch.edge_spoke(k)] * patch.normals[k]
    r = PatchField(topo, {t: np.outer(n1, c)
                          for t, c in _oracle_kappa(topo, z, y).items()})
    seed = (1.0 / M) * (r + cotB * _oracle_w(topo, z, y))
    v = _oracle_combine(topo, a, _oracle_chain_basis(patch, topo, seed, k))
    if patch.boundary:
        signs = np.array([(-1.0) ** abs(p - k) for p in range(patch.N)])
    else:
        signs = np.array([(-1.0) ** ((p - k) % patch.N)
                          for p in range(patch.N)])
    return v, {(tA, y): v.div_at(tA, y), (tB, y): v.div_at(tB, y)}, signs @ a


def _assert_same_field(got, want, rtol=1e-12):
    """Equal coefficients to rtol relative to the largest one; a triangle
    missing from one support counts as zero there."""
    scale = max(want.max_coeff(), got.max_coeff())
    for t in got.support | want.support:
        g = got.coeffs.get(t, np.zeros((2, len(poly.MONO3))))
        w = want.coeffs.get(t, np.zeros((2, len(poly.MONO3))))
        assert np.abs(g - w).max() <= rtol * scale, t


def _assert_same_values(got, want, rtol=1e-12):
    assert got.keys() == want.keys()
    scale = max([abs(v) for v in want.values()] + [1e-300])
    for key in want:
        assert abs(got[key] - want[key]) <= rtol * scale, key


ORACLE_MESHES = ([("golden", name) for name in sorted(GOLDEN_MESHES)]
                 + [("bench", key) for key in
                    bench_pool("verify-fields", perturbed_only=True)])


def _oracle_mesh(source, name):
    return (GOLDEN_MESHES[name]() if source == "golden"
            else bench_mesh(name))


def _target(rng, patch, singular):
    a = rng.standard_normal(patch.N)
    if singular:
        signs = (-1.0) ** np.arange(patch.N)
        a = a - signs * (signs @ a) / patch.N
    return a


@pytest.mark.parametrize("source,name", ORACLE_MESHES,
                         ids=[n for _, n in ORACLE_MESHES])
def test_table_views_equal_the_oracle_fields(source, name):
    """w, kappa, chi and the uncorrected xi are gathered bit for bit; the
    sums of correctors agree to roundoff."""
    topo = build_topology(_oracle_mesh(source, name))
    _, _, dcoefficients = classify_mesh(topo)
    for patch in topo.patches:
        for k in range(patch.n_interior_edges):
            y = patch.spokes[patch.edge_spoke(k)]
            for got, want in ((w_field(topo, patch.z, y),
                               _oracle_w(topo, patch.z, y)),
                              (basis_w(patch, topo, k),
                               _oracle_patch_w(patch, topo, k))):
                assert got.coeffs.keys() == want.coeffs.keys()
                for t in want.coeffs:
                    assert np.array_equal(got.coeffs[t], want.coeffs[t])
            kappa = kappa_field(topo, patch.z, y).coeffs
            want = _oracle_kappa(topo, patch.z, y)
            assert kappa.keys() == want.keys()
            for t in want:
                assert np.array_equal(kappa[t], want[t])
        if patch.boundary:
            continue
        for k in range(patch.N):
            got, want = basis_chi(patch, topo, k), _oracle_chi(patch, topo, k)
            assert got.coeffs.keys() == want.coeffs.keys()
            for t in want.coeffs:
                assert np.array_equal(got.coeffs[t], want.coeffs[t])
        _assert_same_field(basis_chi_sum(patch, topo),
                           _oracle_chi_sum(patch, topo))
        dco = dcoefficients[patch.z]
        if dco is None:
            continue
        for i in (1, 2):
            (tilde, xi), (want_tilde, want_xi) = (
                basis_xi(patch, topo, i, dco), _oracle_xi(patch, topo, i, dco))
            for t in want_tilde.coeffs:
                assert np.array_equal(tilde.coeffs[t], want_tilde.coeffs[t])
            _assert_same_field(xi, want_xi)


@pytest.mark.parametrize("source,name", ORACLE_MESHES,
                         ids=[n for _, n in ORACLE_MESHES])
def test_interpolants_equal_the_oracle(source, name):
    """Every interpolating and boundary vertex: the singular, odd and
    boundary interpolants, the even one with each direction index whose
    determinant is certified, and an edge transfer on every interior
    vertex, all to 1e-12 of the largest coefficient."""
    topo = build_topology(_oracle_mesh(source, name))
    reports, _, dcoefficients = classify_mesh(topo)
    rng = np.random.default_rng(sum(map(ord, name)))
    transfers = 0
    for r in reports:
        patch = topo.patches[r.vertex]
        a = _target(rng, patch, r.singular)
        if r.boundary and not r.singular:
            result = boundary_interpolant(patch, a, topo, r)
            want, side = _oracle_boundary(patch, a, topo)
            _assert_same_field(result.field, want)
            _assert_same_values(result.side_effects, side)
        elif r.boundary:
            _assert_same_field(boundary_interpolant(patch, a, topo, r).field,
                               _oracle_local(patch, a, topo, SINGULAR))
        elif r.status == EVEN:
            dco = dcoefficients[r.vertex]
            for i in range(3):
                if dco.decision(i) <= TOL.decision:
                    continue
                forced = dataclasses.replace(r, even_index=i)
                _assert_same_field(
                    local_interpolant(patch, a, topo, forced, dco),
                    _oracle_local(patch, a, topo, EVEN, i, dco))
        elif r.local_interpolating:
            _assert_same_field(local_interpolant(patch, a, topo, r),
                               _oracle_local(patch, a, topo, r.status))
        if r.boundary:
            continue
        k = r.vertex % patch.N
        y = patch.spokes[k]
        try:
            field, info = edge_transfer(topo, r.vertex, y, a, TOL)
        except UnacceptableEdgeError:
            continue
        want, spill, s_a = _oracle_edge_transfer(topo, r.vertex, y, a)
        _assert_same_field(field, want)
        _assert_same_values(info.spill, spill)
        assert info.s_a == pytest.approx(s_a, rel=1e-12, abs=1e-12)
        transfers += 1
    assert transfers


def test_oracle_meshes_cover_every_interpolant_branch():
    kinds = set()
    for source, name in ORACLE_MESHES:
        topo = build_topology(_oracle_mesh(source, name))
        reports, _, dcoefficients = classify_mesh(topo)
        for r in reports:
            kinds.add((r.status, r.boundary))
            if r.status == EVEN:
                kinds |= {f"even {i}" for i in range(3) if
                          dcoefficients[r.vertex].decision(i) > TOL.decision}
    assert kinds >= {(SINGULAR, False), (ODD, False), (SINGULAR, True),
                     (BOUNDARY, True), "even 0", "even 1", "even 2"}


def _oracle_path(topo, path, a):
    acc, _, _ = _oracle_edge_transfer(topo, path[0], path[1], a)
    for z, ynext in zip(path[1:-1], path[2:]):
        patch = topo.patches[z]
        residual = np.array([acc.div_at(t, z) if t in acc.support else 0.0
                             for t in patch.tris])
        acc = acc + _oracle_edge_transfer(topo, z, ynext, -residual)[0]
    return acc


# crossed-2 and three-lines-2 have no interior two-hop path
PATH_MESHES = [("golden", "type1-3"), ("golden", "perturbed-3-s1")] \
    + ORACLE_MESHES[4::4]


@pytest.mark.parametrize("source,name", PATH_MESHES,
                         ids=[n for _, n in PATH_MESHES])
def test_path_interpolant_equals_the_oracle(source, name, rng):
    topo = build_topology(_oracle_mesh(source, name))
    weights = edge_weights(topo)
    interior = [z for z in range(topo.V) if not topo.boundary_vertex[z]]

    def step(z, avoid):
        return next((y for y in topo.patches[z].spokes
                     if y not in avoid and not topo.boundary_vertex[y]
                     and abs(weights[(topo.edge_index[(min(z, y), max(z, y))],
                                      z)]) > 0.1), None)
    paths = 0
    for z in interior:
        y = step(z, {z})
        w = step(y, {z, y}) if y is not None else None
        if w is None:
            continue
        path = [z, y, w]
        a = rng.standard_normal(topo.patches[z].N)
        result = path_interpolant(topo, path, a, TOL)
        want = _oracle_path(topo, path, a)
        _assert_same_field(result.field, want)
        paths += 1
    assert paths, "no interior path with acceptable weights"


# ---------------------------------------------------------------------------
# target blocks and the stacked verifier

# The meshes of the CI field-suite step: together they reach every
# interpolant branch.
CI_MESHES = {
    "crossed-3": lambda: crossed(3),
    "type1-4": lambda: type1_diagonal(4),
    "three-lines-4": lambda: three_lines(4),
    "perturbed-5-s3": lambda: perturbed_grid(5, seed=3),
    "perturbed-6-s11": lambda: perturbed_grid(6, seed=11),
}


def _interpolant_cases(topo, reports, dcoefficients):
    """(branch, interpolant, report and d-coefficient arguments) of every
    interpolating and boundary vertex, the even ones once per certified
    direction index."""
    for r in reports:
        if r.boundary:
            branch = "boundary singular" if r.singular else "boundary"
            yield branch, boundary_interpolant, (r,)
        elif r.status == EVEN:
            dco = dcoefficients[r.vertex]
            for i in range(3):
                if dco.decision(i) > TOL.decision:
                    yield (f"even {i}", local_interpolant,
                           (dataclasses.replace(r, even_index=i), dco))
        elif r.local_interpolating:
            yield r.status, local_interpolant, (r, None)


def _block_targets(rng, patch, singular, samples):
    a = rng.standard_normal((samples, patch.N))
    if singular:
        signs = (-1.0) ** np.arange(patch.N)
        a -= signs * (a @ signs)[:, None] / patch.N
    return a


def test_block_interpolants_equal_the_row_by_row_calls():
    """A target block (S, N) gives, row for row, the field and side
    effects of the single-target call to 1e-15 of their largest entry."""
    branches = set()
    for name, make in CI_MESHES.items():
        topo = build_topology(make())
        reports, _, dcoefficients = classify_mesh(topo)
        rng = np.random.default_rng(sum(map(ord, name)))
        for branch, interpolant, args in _interpolant_cases(topo, reports,
                                                            dcoefficients):
            patch = topo.patches[args[0].vertex]
            a = _block_targets(rng, patch, args[0].singular, 3)
            block = interpolant(patch, a, topo, *args)
            assert isinstance(block, list) and len(block) == len(a)
            for row, got in zip(a, block):
                want = interpolant(patch, row, topo, *args)
                if patch.boundary:
                    _assert_same_values(got.side_effects, want.side_effects,
                                        rtol=1e-15)
                    got, want = got.field, want.field
                assert isinstance(want, PatchField)
                assert got.coeffs.keys() == want.coeffs.keys()
                _assert_same_field(got, want, rtol=1e-15)
            branches.add(branch)
    assert branches == {SINGULAR, ODD, "even 0", "even 1", "even 2",
                        "boundary", "boundary singular"}


def test_block_interpolant_checks_every_row():
    topo = build_topology(crossed(2))
    reports, _, _ = classify_mesh(topo)
    r = next(r for r in reports if r.singular and not r.boundary)
    patch = topo.patches[r.vertex]
    a = _block_targets(np.random.default_rng(3), patch, True, 3)
    a[2, 0] += 1.0
    with pytest.raises(FieldError, match="alternating-sum"):
        local_interpolant(patch, a, topo, r)
    with pytest.raises(FieldError, match=f"expected {patch.N} target values"):
        local_interpolant(patch, a[:, 1:], topo, r)
    assert local_interpolant(patch, a[:0], topo, r) == []


def _field_cases(topo, reports, dcoefficients, rng):
    """Verified interpolants with their expected vertex divergences, and
    corrupted copies: a continuity jump, a boundary trace, a moved
    target, a triangle mean, an expected value outside the support and
    an empty field with and without expectations."""
    fields, divs = [], []
    for _, interpolant, args in _interpolant_cases(topo, reports,
                                                   dcoefficients):
        patch = topo.patches[args[0].vertex]
        a = _block_targets(rng, patch, args[0].singular, 1)[0]
        got = interpolant(patch, a, topo, *args)
        expected = {(t, patch.z): v for t, v in zip(patch.tris, a.tolist())}
        if patch.boundary:
            expected.update(got.side_effects)
            got = got.field
        fields.append(got)
        divs.append(expected)
    # a field, a support triangle t and a triangle s outside the support
    # that share the edge {a, b}
    f, d, t, s, a, b = next(
        (f, d, t, s, a, b) for f, d in zip(fields, divs)
        for t in sorted(f.support)
        for a, b in zip(topo.mesh.triangles[t].tolist(),
                        np.roll(topo.mesh.triangles[t], -1).tolist())
        for s in edge_tris(topo, topo.edge_index[(min(a, b), max(a, b))])
        if s not in f.support)
    z = next(v for v in range(topo.V) if not topo.boundary_vertex[v])
    chi = 1e-6 * basis_chi(topo.patches[z], topo, 0)
    with_chi = dict(d)
    for key, val in chi.vertex_divergences(skip_zero=False).items():
        with_chi[key] = with_chi.get(key, 0.0) + val
    moved = dict(d)
    moved[next(iter(moved))] += 1e-6
    outside = next(u for u in range(topo.T) if u not in f.support)
    beyond = dict(d)
    beyond[(outside, int(topo.mesh.triangles[outside][0]))] = 1.0
    empty = PatchField(topo)
    corrupted = [(f + _edge_bump(topo, s, a, b), d),
                 (f + _edge_bump(topo, t, a, b), d),
                 (f, moved), (f + chi, with_chi), (f, beyond),
                 (empty, {}), (empty, {(outside, int(
                     topo.mesh.triangles[outside][1])): 0.5})]
    for g, e in corrupted:
        fields.insert(len(fields) // 2, g)
        divs.insert(len(divs) // 2, e)
    return fields, divs


@pytest.mark.parametrize("name", sorted(CI_MESHES))
def test_stacked_verify_field_equals_the_per_field_calls(name):
    topo = build_topology(CI_MESHES[name]())
    reports, _, dcoefficients = classify_mesh(topo)
    rng = np.random.default_rng(sum(map(ord, name)))
    fields, divs = _field_cases(topo, reports, dcoefficients, rng)
    # the first verified field with a support misses its first triangle
    j = next(i for i, f in enumerate(fields) if f.support)
    supports = [f.support | {0} for f in fields]
    supports[j] = set(sorted(fields[j].support)[1:])
    for support in (None, supports):
        stacked = verify_field(fields, vertex_divs=divs, mean_zero=True,
                               support=support)
        want, failing = [], []
        for i, (f, d) in enumerate(zip(fields, divs)):
            single = verify_field(f, vertex_divs=d, mean_zero=True,
                                  support=None if support is None
                                  else support[i])
            want += [(c.name, c.ok, c.deviation, c.detail, i)
                     for c in single.checks]
            if not single.ok:
                failing.append(i)
        assert [(c.name, c.ok, c.deviation, c.detail, c.field)
                for c in stacked.checks] == want
        assert stacked.failed_fields() == failing
        # six of the seven corrupted fields fail (an empty field expected
        # to be zero passes), and field j by its support
        assert len(failing) == 6 + (support is not None)
    checks = {c.name for c in stacked.checks if not c.ok}
    assert checks == {"continuity", "zero_boundary_trace",
                      "vertex_divergences", "zero_triangle_means",
                      "support"}


def test_single_field_report_names_its_field_zero():
    topo = build_topology(perturbed_grid(4, seed=3))
    report = verify_field(PatchField(topo), vertex_divs={(0, 99): 1.0})
    assert [(c.name, c.ok, c.field) for c in report.checks] == [
        ("continuity", True, 0), ("zero_boundary_trace", True, 0),
        ("vertex_divergences", False, 0), ("zero_triangle_means", True, 0)]
    assert report.checks[2].detail == \
        "expected values outside support: [(0, 99)]"
    assert report.failed_fields() == [0]
    assert verify_field([]).checks == []
    with pytest.raises(FieldError, match="one entry per field"):
        verify_field([PatchField(topo)], vertex_divs=[])
    other = build_topology(perturbed_grid(4, seed=3))
    with pytest.raises(FieldError, match="different topologies"):
        verify_field([PatchField(topo), PatchField(other)])


@pytest.mark.parametrize("kind", ["local", "boundary"])
def test_suite_reports_one_corrupted_sample(monkeypatch, kind):
    """One corrupted sample's field fails its vertex as FAIL (1/2) and no
    other vertex."""
    mesh = perturbed_grid(5, seed=3)
    topo = build_topology(mesh)
    reports, _, _ = classify_mesh(topo)
    victim = next(r.vertex for r in reports if not r.singular and (
        r.boundary if kind == "boundary"
        else r.local_interpolating and not r.boundary))
    name = f"{kind}_interpolant"
    original = getattr(cli, name)

    def corrupting(patch, targets, *args):
        out = original(patch, targets, *args)
        if patch.z == victim:
            field = out[1].field if kind == "boundary" else out[1]
            t = min(field.coeffs)
            field.coeffs[t][0, 3] += 0.37
        return out

    monkeypatch.setattr(cli, name, corrupting)
    lines, ok = cli.run_field_suites(mesh, TOL, 2, 7)
    assert not ok
    failed = [ln for ln in lines if "FAIL" in ln]
    assert failed == [f"vertex {victim:4d} [{reports[victim].status}]: "
                      "FAIL (1/2)"]
    assert all(ln.endswith("pass") for ln in lines if ln not in failed)


def test_suite_fields_isolate_a_failing_row():
    """A block whose construction raises is retried row by row: only the
    offending target counts as failed."""
    topo = build_topology(crossed(2))
    reports, _, dcoefficients = classify_mesh(topo)
    r = next(r for r in reports if r.singular and not r.boundary)
    patch = topo.patches[r.vertex]
    a = _block_targets(np.random.default_rng(4), patch, True, 3)
    a[1, 0] += 1.0
    built = cli._suite_fields(patch, a, topo, r, dcoefficients[r.vertex])
    assert [b is None for b in built] == [False, True, False]
    field, divs = built[2]
    assert verify_field(field, vertex_divs=divs).ok
    assert divs == {(t, patch.z): v for t, v in zip(patch.tris, a[2].tolist())}
