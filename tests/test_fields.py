"""Local velocity fields: the per-patch table, patch interpolants,
boundary interpolants, edge transfers, path transfers, field blocks and
the verifier."""

import dataclasses

import numpy as np
import pytest

from conftest import (GOLDEN_MESHES, MIXED, admissible_target, as_dict,
                      bench_mesh, bench_pool, corner_divergences, decision,
                      dense, div_at, div_integral, div_mean, edge_index,
                      edge_pair_angles, edge_tris, edge_weights, fan,
                      on_patch, path_interpolant, path_stats,
                      random_interior_patch, scalar_edge_integral,
                      scalar_gradient_at_vertex, SLIVER_EPS, SLIVERS,
                      sliver_mesh, stack_fields, support,
                      type1_with_crossed, values)
from svstokes import cli, fields, poly
from svstokes.classify import (BOUNDARY, EVEN, ODD, SINGULAR, Tolerances,
                               classify_mesh)
from svstokes.fields import (FieldBlock, FieldError, UnacceptableEdgeError,
                             boundary_interpolant, center_divergences,
                             edge_table, edge_transfer, field_block,
                             local_interpolant, verify_field)
from svstokes.mesh import (Triangulation, build_topology, crossed,
                           perturbed_grid, three_lines, type1_diagonal)
from svstokes.trees import build_tree_cover, tree_interpolant

TOL = Tolerances()


def _classify(topo, z):
    """The report of vertex z, from classify_mesh."""
    return classify_mesh(topo, TOL)[0][z]


def _tri_area(topo, t):
    return abs(poly.signed_area(*topo.mesh.vertices[topo.mesh.triangles[t]]))


def _field(block):
    """The dense coefficients (T, 2, 10) of a block of one field."""
    assert isinstance(block, FieldBlock) and block.F == 1
    return dense(block)[0]


def _zero(topo, F=None):
    """A block of one field, or of F fields, that vanish everywhere."""
    shape = (topo.T, 2, len(poly.MONO3))
    return field_block(topo, np.zeros(shape if F is None else (F,) + shape))


def _add(block, c):
    """The block of one field plus the dense coefficients c (T, 2, 10)."""
    return field_block(block.topology, _field(block) + c)


# ---------------------------------------------------------------------------
# the per-patch table

def test_w_field_properties(rng):
    for _ in range(10):
        mesh, topo, patch = random_interior_patch(rng)
        k = int(rng.integers(patch.N - patch.boundary))
        y = int(patch.spokes[k + patch.boundary])
        row = edge_table([patch.z], topo).w[0, k]
        w = on_patch(topo, patch, row)
        t1, t2 = edge_tris(topo, edge_index(topo)[(0, y)])
        assert support(w) == {t1, t2}
        for t in (t1, t2):
            assert div_at(topo, w, t, 0) == pytest.approx(1.0, rel=1e-12)
            assert div_at(topo, w, t, y) == pytest.approx(0.0, abs=1e-12)
            assert div_mean(topo, w, t) == pytest.approx(0.0, abs=1e-12)
        report = verify_field(field_block(topo, w),
                              values({(t1, 0): 1.0, (t2, 0): 1.0}))
        assert report.ok, report.failed()


def test_chi_fields_and_their_sum(rng):
    for _ in range(10):
        mesh, topo, patch = random_interior_patch(rng)
        table = edge_table([patch.z], topo)
        for k in range(patch.N):
            chi = on_patch(topo, patch, table.chi[0, k])
            t1, t2 = patch.tris[k], patch.tris[(k + 1) % patch.N]
            assert support(chi) == {t1, t2}
            ints = sorted(div_integral(topo, chi, t) for t in (t1, t2))
            assert ints[0] == pytest.approx(-1.0, rel=1e-10)
            assert ints[1] == pytest.approx(1.0, rel=1e-10)
        total = on_patch(topo, patch, table.chi[0].sum(axis=0))
        for j, t in enumerate(patch.tris):
            assert div_at(topo, total, t, 0) == pytest.approx(
                12.0 * patch.d0[j], rel=1e-10, abs=1e-10)


def test_xi_fields(rng):
    for _ in range(10):
        mesh, topo, patch = random_interior_patch(rng)
        table = edge_table([patch.z], topo)
        for i in (1, 2):
            xi_tilde, xi = (on_patch(topo, patch, x[0])
                            for x in fields._xi(table, [i], patch.c[None]))
            for j, t in enumerate(patch.tris):
                area = _tri_area(topo, t)
                assert div_at(topo, xi_tilde, t, 0) == pytest.approx(
                    3.0 * patch.b[j, i - 1] / area, rel=1e-10, abs=1e-12)
                assert div_integral(topo, xi_tilde, t) == pytest.approx(
                    patch.b[j, i - 1], rel=1e-10, abs=1e-12)
                assert div_at(topo, xi, t, 0) == pytest.approx(
                    patch.d[j, i - 1], rel=1e-9, abs=1e-9)
                assert div_mean(topo, xi, t) == pytest.approx(0.0, abs=1e-11)


def test_kappa_field_properties(rng):
    for _ in range(10):
        mesh, topo, patch = random_interior_patch(rng)
        k = int(rng.integers(patch.N - patch.boundary))
        y = int(patch.spokes[k + patch.boundary])
        kap = on_patch(topo, patch, edge_table([patch.z], topo).kappa[0, k])
        e = edge_index(topo)[(0, y)]
        for t in edge_tris(topo, e):
            # zero mean along the shared edge
            assert scalar_edge_integral(topo, t, kap[t], 0, y) == \
                pytest.approx(0.0, abs=1e-12)
            g = poly.hat_gradients(*topo.mesh.vertices[topo.mesh.triangles[t]])
            tri = list(topo.mesh.triangles[t])
            gz = scalar_gradient_at_vertex(topo, t, kap[t], 0)
            gy = scalar_gradient_at_vertex(topo, t, kap[t], y)
            assert np.allclose(gz, 0.5 * g[tri.index(y)], atol=1e-12)
            assert np.allclose(gy, -0.5 * g[tri.index(0)], atol=1e-12)


# ---------------------------------------------------------------------------
# local interpolants

def _check_local(patch, topo, target, rng):
    block, _ = local_interpolant([_classify(topo, patch.z)],
                                 target[None, None], topo)
    assert set(block.tri.tolist()) <= set(patch.tris)
    divs = {(t, patch.z): target[j] for j, t in enumerate(patch.tris)}
    report = verify_field(block, values(divs))
    assert report.ok, report.failed()


def test_singular_interpolant_crossed_center(rng):
    topo = build_topology(crossed(1))
    center = [v for v in range(topo.V) if not topo.boundary_vertex[v]][0]
    patch = fan(topo, center)
    assert _classify(topo, center).status == SINGULAR
    for _ in range(20):
        raw = rng.standard_normal(patch.N)
        signs = np.array([(-1.0) ** j for j in range(patch.N)])
        target = raw - signs * (signs @ raw) / patch.N
        _check_local(patch, topo, target, rng)


def test_singular_interpolant_rejects_inadmissible_target(rng):
    topo = build_topology(crossed(1))
    center = [v for v in range(topo.V) if not topo.boundary_vertex[v]][0]
    report = _classify(topo, center)
    with pytest.raises(FieldError):
        local_interpolant([report], [[[1.0, 0.0, 0.0, 0.0]]], topo)


@pytest.mark.parametrize("N", [3, 5, 7])
def test_odd_interpolant(N, rng):
    for _ in range(8):
        mesh, topo, patch = random_interior_patch(rng, N=N)
        assert _classify(topo, 0).status == ODD
        _check_local(patch, topo, rng.standard_normal(N), rng)


def test_even_interpolant_crossed_eight_valent(rng):
    topo = build_topology(crossed(2))
    reports, _ = classify_mesh(topo)
    eights = [r.vertex for r in reports if r.status == EVEN]
    assert eights
    for v in eights:
        patch = fan(topo, v)
        for _ in range(5):
            _check_local(patch, topo, rng.standard_normal(patch.N), rng)


def test_even_interpolant_random_patches(rng):
    done = 0
    while done < 8:
        mesh, topo, patch = random_interior_patch(
            rng, N=int(rng.choice([4, 6, 8])))
        if _classify(topo, 0).status != EVEN:
            continue
        _check_local(patch, topo, rng.standard_normal(patch.N), rng)
        done += 1


# ---------------------------------------------------------------------------
# boundary interpolants

@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_boundary_interpolant_perturbed_grids(seed, rng):
    topo = build_topology(perturbed_grid(3, seed=seed))
    reports, _ = classify_mesh(topo)
    for r in reports:
        if not r.boundary:
            continue
        patch = fan(topo, r.vertex)
        target = rng.standard_normal(patch.N)
        if r.singular:
            if patch.N == 1:
                target[:] = 0.0
            else:
                signs = np.array([(-1.0) ** j for j in range(patch.N)])
                target -= signs * (signs @ target) / patch.N
        block, side = boundary_interpolant([r], target[None, None], topo)
        divs = {(t, patch.z): target[j] for j, t in enumerate(patch.tris)}
        divs.update(as_dict(side))
        report = verify_field(block, values(divs))
        assert report.ok, (r.vertex, report.failed())
        # declared side effects only hit interior vertices
        for v in side.vertex.tolist():
            assert not topo.boundary_vertex[v]


# ---------------------------------------------------------------------------
# edge and path transfers

def test_edge_transfer_matches_targets_and_spill(rng):
    topo = build_topology(perturbed_grid(3, seed=7))
    reports, _ = classify_mesh(topo)
    interior = [r.vertex for r in reports if not r.boundary]
    for z in interior:
        patch = fan(topo, z)
        neighbors = [int(y) for y in patch.spokes
                     if not topo.boundary_vertex[int(y)]]
        if not neighbors:
            continue
        y = neighbors[0]
        target = rng.standard_normal(patch.N)
        block, spill = edge_transfer([reports[z]], [y], target[None, None],
                                     topo, TOL)
        assert set(spill.vertex.tolist()) == {y}
        divs = {(t, z): target[j] for j, t in enumerate(patch.tris)}
        divs.update(as_dict(spill))
        report = verify_field(block, values(divs))
        assert report.ok, (z, y, report.failed())


def test_edge_transfer_rejects_zero_weight_edge():
    topo = build_topology(crossed(1))
    center = [v for v in range(topo.V) if not topo.boundary_vertex[v]][0]
    patch = fan(topo, center)
    y = int(patch.spokes[0])
    # the flanking angles at the crossed center are both right angles
    with pytest.raises(UnacceptableEdgeError):
        edge_transfer([_classify(topo, center)], [y],
                      [[[1.0, 0.0, 0.0, 0.0]]], topo, TOL)


@pytest.mark.parametrize("name", sorted(GOLDEN_MESHES))
def test_edge_transfer_weight_is_the_edge_weight(name):
    """The weight edge_transfer tests against ``tol.accept`` is
    ``edge_weights[(e, z)]`` bit for bit: it refuses the edge at an
    acceptance bound of exactly that weight's magnitude and takes it at
    the next double below."""
    topo = build_topology(GOLDEN_MESHES[name]())
    reports, _ = classify_mesh(topo)
    for (e, z), w in edge_weights(topo).items():
        y = int(sum(topo.edges[e])) - z
        target = np.ones((1, 1, topo.fans.degree[z]))
        with pytest.raises(UnacceptableEdgeError):
            edge_transfer([reports[z]], [y], target, topo,
                          Tolerances(accept=abs(w)))
        if w != 0.0:
            edge_transfer([reports[z]], [y], target, topo,
                          Tolerances(accept=np.nextafter(abs(w), 0.0)))


def _three_hop_path(topo):
    """An interior 4-vertex path with acceptable traversal weights whose
    intermediate vertices have even valence (so the alternating-sum
    amplification telescopes with a consistent sign)."""
    weights = edge_weights(topo)
    index = edge_index(topo)
    interior = [v for v in range(topo.V) if not topo.boundary_vertex[v]]
    even = {v for v in interior if topo.fans.degree[v] % 2 == 0}
    iset = set(interior)
    for a in interior:
        for b in even:
            e1 = index.get((min(a, b), max(a, b)))
            if e1 is None or topo.boundary_edge[e1]:
                continue
            for c in even - {a, b}:
                e2 = index.get((min(b, c), max(b, c)))
                if e2 is None or topo.boundary_edge[e2]:
                    continue
                for d in iset - {a, b, c}:
                    e3 = index.get((min(c, d), max(c, d)))
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
    patch = fan(topo, z)
    # delta target: the chain-signed alternating sum has magnitude one,
    # so the end-spill magnitude is an independent closed-form product
    target = np.zeros(patch.N)
    target[int(rng.integers(patch.N))] = 1.0
    result = path_interpolant(topo, path, target, TOL)
    divs = {(t, z): target[j] for j, t in enumerate(patch.tris)}
    divs.update(as_dict(result.end_spill))
    report = verify_field(result.field, values(divs))
    assert report.ok, report.failed()

    stats = path_stats(topo, path, TOL)
    assert stats.acceptable
    amplification = abs(stats.rho_tilde[-1])      # over the first L-1 edges
    _, _, th1, th2 = edge_pair_angles(topo, stats.edges[-1], path[-2])
    M_last = abs(stats.M_fwd[-1])
    predicted = sorted(amplification * abs(np.cos(th) / np.sin(th)) / M_last
                       for th in (th1, th2))
    got = sorted(np.abs(result.end_spill.value).tolist())
    assert len(got) == 2
    for p, g in zip(predicted, got):
        assert g == pytest.approx(p, rel=1e-9, abs=1e-12)


# ---------------------------------------------------------------------------
# negative control

def test_verify_field_catches_corruption(rng):
    mesh, topo, patch = random_interior_patch(rng, N=5)
    block, _ = local_interpolant([_classify(topo, patch.z)],
                                 rng.standard_normal((1, 1, 5)), topo)
    c = _field(block)
    c[block.tri[0], 0, 3] += 0.37      # break continuity / divergences
    divs = {(tt, 0): 0.0 for tt in patch.tris}
    report = verify_field(field_block(topo, c), values(divs))
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
    patch = fan(topo, r.vertex)
    target = rng.standard_normal(patch.N)
    divs = {(t, patch.z): target[j] for j, t in enumerate(patch.tris)}
    interpolant = local_interpolant if kind == "local" else boundary_interpolant
    block, side = interpolant([r], target[None, None], topo)
    divs.update(as_dict(side))
    report = verify_field(block, values(divs))
    assert report.ok, report.failed()
    return block, divs


def _checks(report):
    return {c.name: c.ok for c in report.checks}


def _edge_bump(topo, t, a, b):
    """One coefficient on triangle t: 1e-6 l_a^2 l_b in the first
    component, nonzero on the edge {a, b} only."""
    expo = [0, 0, 0]
    tri = topo.mesh.triangles[t].tolist()
    expo[tri.index(a)], expo[tri.index(b)] = 2, 1
    c = np.zeros((topo.T, 2, len(poly.MONO3)))
    c[t, 0, poly.MONO3.index(tuple(expo))] = 1e-6
    return c


def _edge_off_support(topo, block):
    """A support triangle t and a triangle s outside the support of a
    one-field block that share the edge {a, b}: (t, s, a, b)."""
    inside = set(block.tri.tolist())
    return next(
        (t, s, a, b) for t in sorted(inside)
        for a, b in zip(topo.mesh.triangles[t].tolist(),
                        np.roll(topo.mesh.triangles[t], -1).tolist())
        for s in edge_tris(topo, edge_index(topo)[(min(a, b), max(a, b))])
        if s not in inside)


def _chi(topo, scale=1e-6):
    """scale times a normal corrector of the first interior vertex: it
    moves divergence integral between two triangles, is continuous, has
    zero trace on the boundary of its support, and carries means."""
    z = next(v for v in range(topo.V) if not topo.boundary_vertex[v])
    patch = fan(topo, z)
    return scale * on_patch(topo, patch, edge_table([z], topo).chi[0, 0])


@pytest.mark.parametrize("kind", ["local", "boundary"])
def test_verify_field_catches_a_discontinuity(kind, rng):
    block, divs = _valid_field(kind, rng)
    topo = block.topology
    t, s, a, b = _edge_off_support(topo, block)
    checks = _checks(verify_field(_add(block, _edge_bump(topo, s, a, b)),
                                  values(divs)))
    assert not checks["continuity"]
    assert checks["zero_boundary_trace"]
    # the same coefficient on the support side leaves a trace on the
    # boundary of the support
    checks = _checks(verify_field(_add(block, _edge_bump(topo, t, a, b)),
                                  values(divs)))
    assert not checks["zero_boundary_trace"]
    assert checks["continuity"]


@pytest.mark.parametrize("kind", ["local", "boundary"])
def test_verify_field_catches_a_moved_target(kind, rng):
    block, divs = _valid_field(kind, rng)
    moved = dict(divs)
    key = next(iter(moved))
    moved[key] += 1e-6
    checks = _checks(verify_field(block, values(moved)))
    assert not checks["vertex_divergences"]
    assert checks["continuity"] and checks["zero_triangle_means"]


@pytest.mark.parametrize("kind", ["local", "boundary"])
def test_verify_field_catches_a_triangle_mean(kind, rng):
    block, divs = _valid_field(kind, rng)
    chi = _chi(block.topology)
    expect = dict(divs)
    for key, val in corner_divergences(block.topology, chi).items():
        expect[key] = expect.get(key, 0.0) + val
    checks = _checks(verify_field(_add(block, chi), values(expect)))
    assert not checks["zero_triangle_means"]
    assert checks["continuity"] and checks["zero_boundary_trace"]
    assert checks["vertex_divergences"]


def test_divergence_kernels_match_their_definitions(rng):
    topo = build_topology(perturbed_grid(3, seed=2))
    c = rng.standard_normal((topo.T, 2, len(poly.MONO3)))
    for t in range(topo.T):
        dc = fields._div_coeffs(topo.hat_grads[t], c[t])
        g = topo.hat_grads[t]
        ref = sum(g[s, 0] * (poly.DIFF[s] @ c[t, 0])
                  + g[s, 1] * (poly.DIFF[s] @ c[t, 1]) for s in range(3))
        assert np.allclose(dc, ref, rtol=1e-13, atol=1e-13 * np.abs(ref).max())
        for slot, v in enumerate(topo.mesh.triangles[t].tolist()):
            lam = np.zeros(3)
            lam[slot] = 1.0
            assert div_at(topo, c, t, v) == poly.eval2(dc, lam)
    # the gathered center divergences are those of each triangle
    for z in range(topo.V):
        want = [div_at(topo, c, t, z) for t in fan(topo, z).tris]
        assert np.allclose(center_divergences(topo, c, z), want,
                           rtol=1e-14, atol=1e-14 * np.abs(want).max())


# ---------------------------------------------------------------------------
# oracle: the constructions the per-patch table replaced, field by field
# on dense (T, 2, 10) coefficients and the chain basis by recursion

def _oracle_monomial(expo):
    return poly.bary_poly([(1.0, tuple(expo))])


def _oracle_edge(topo, z, y, profile):
    """Dense (T, 10): profile(slot of z, slot of y) on the two triangles of
    the interior edge {z, y}, zero elsewhere."""
    e = edge_index(topo)[(min(z, y), max(z, y))]
    out = np.zeros((topo.T, len(poly.MONO3)))
    for t in edge_tris(topo, e):
        tri = topo.mesh.triangles[t].tolist()
        out[t] = profile(tri.index(z), tri.index(y))
    return out


def _oracle_vector(direction, scalar):
    """The vector field direction (2,) times the dense scalar (T, 10)."""
    return direction[:, None] * scalar[:, None, :]


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
    return _oracle_vector(vec, _oracle_edge(topo, z, y, _oracle_eta))


def _oracle_kappa(topo, z, y):
    return _oracle_edge(topo, z, y, _oracle_kappa_profile)


def _oracle_patch_w(patch, topo, k):
    return _oracle_w(topo, patch.z, patch.spokes[k + patch.boundary])


def _oracle_chi(patch, topo, k):
    n = (12.0 / patch.edge_len[k]) * patch.normals[k]
    return _oracle_vector(n, _oracle_edge(topo, patch.z, patch.spokes[k],
                                          _oracle_eta))


def _oracle_chi_sum(patch, topo):
    out = np.zeros((topo.T, 2, len(poly.MONO3)))
    for k in range(patch.N):
        out = out + _oracle_chi(patch, topo, k)
    return out


def _oracle_xi(patch, topo, i):
    direction = np.eye(2)[i - 1]
    xi_tilde = np.zeros((topo.T, 2, len(poly.MONO3)))
    for t in patch.tris:
        expo = [0, 0, 0]
        expo[topo.mesh.triangles[t].tolist().index(patch.z)] = 2
        xi_tilde[t] = np.outer(direction, _oracle_monomial(expo))
    xi = xi_tilde
    for k in range(patch.N - 1):
        xi = xi - patch.c[k, i - 1] * _oracle_chi(patch, topo, k)
    return xi_tilde, xi


def _oracle_chain_basis(patch, topo, seed, seed_pos):
    n = patch.N
    basis = [None] * n
    basis[seed_pos] = seed
    if patch.boundary:
        for p in range(seed_pos + 1, n):
            basis[p] = _oracle_patch_w(patch, topo, p - 1) - basis[p - 1]
        for p in range(seed_pos - 1, -1, -1):
            basis[p] = _oracle_patch_w(patch, topo, p) - basis[p + 1]
    else:
        for step in range(1, n):
            p = (seed_pos + step) % n
            basis[p] = (_oracle_patch_w(patch, topo, (p - 1) % n)
                        - basis[(p - 1) % n])
    return basis


def _oracle_combine(topo, a, basis):
    v = np.zeros((topo.T, 2, len(poly.MONO3)))
    for j in range(len(a)):
        if a[j] != 0.0:
            v = v + a[j] * basis[j]
    return v


def _oracle_local(patch, a, topo, status, i=None):
    if status == SINGULAR:
        v, b = np.zeros((topo.T, 2, len(poly.MONO3))), 0.0
        for j in range(patch.N - 1):
            b = a[j] - b
            if b != 0.0:
                v = v + b * _oracle_patch_w(patch, topo, j)
        return v
    if patch.N % 2 == 1:
        seed = np.zeros((topo.T, 2, len(poly.MONO3)))
        for j in range(patch.N):
            seed = seed + (0.5 * (-1.0) ** j) * _oracle_patch_w(patch, topo, j)
    else:
        if i == 0:
            xi = _oracle_chi_sum(patch, topo)
            dvals, det = 12.0 * patch.d0, 12.0 * patch.D[0]
        else:
            xi = _oracle_xi(patch, topo, i)[1]
            dvals, det = patch.d[:, i - 1], patch.D[i]
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
    coef = (2.0 * patch.edge_len[s] * np.sin(patch.theta[s])
            / np.sin(sums[s]))
    seed = _oracle_vector(coef * patch.tangents[s + 1],
                          _oracle_kappa(topo, patch.z, y))
    v = _oracle_combine(topo, a, _oracle_chain_basis(patch, topo, seed, s))
    return v, _oracle_side(topo, patch.z, v)


def _oracle_side(topo, z, v):
    """The vertex divergences of the dense field v away from z that are
    not negligible, at most 1e-12 of its largest coefficient."""
    tol = 1e-12 * max(np.abs(v).max(), 1e-30)
    return {key: val for key, val in corner_divergences(topo, v).items()
            if key[1] != z and not abs(val) <= tol}


def _oracle_edge_transfer(topo, z, y, a):
    """(field, spill) of the transfer over {z, y}: the spill, the
    non-negligible divergences away from z, lies at y on the edge's two
    triangles."""
    patch = fan(topo, z)
    bd = patch.boundary
    k = next(k for k in range(patch.N - bd) if patch.spokes[k + bd] == y)
    tA, tB = patch.tris[k], patch.tris[(k + 1) % patch.N]
    cotA = 1.0 / np.tan(patch.theta[k])
    cotB = 1.0 / np.tan(patch.theta[(k + 1) % patch.N])
    M = cotA + cotB
    n1 = 2.0 * patch.edge_len[k] * patch.normals[k]
    r = _oracle_vector(n1, _oracle_kappa(topo, z, y))
    seed = (1.0 / M) * (r + cotB * _oracle_w(topo, z, y))
    v = _oracle_combine(topo, a, _oracle_chain_basis(patch, topo, seed, k))
    spill = _oracle_side(topo, z, v)
    assert set(spill) <= {(tA, y), (tB, y)}
    return v, spill


def _assert_same_field(got, want, rtol=1e-12):
    """Equal dense coefficients to rtol relative to the largest one."""
    scale = max(np.abs(want).max(), np.abs(got).max())
    assert np.abs(got - want).max() <= rtol * scale


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
    """The w, kappa and chi rows and the uncorrected xi of every patch's
    table are the oracle fields bit for bit; the sums of correctors agree
    to roundoff."""
    topo = build_topology(_oracle_mesh(source, name))
    for z in range(topo.V):
        patch = fan(topo, z)
        table = edge_table([z], topo)
        for k in range(patch.N - patch.boundary):
            y = patch.spokes[k + patch.boundary]
            assert np.array_equal(on_patch(topo, patch, table.w[0, k]),
                                  _oracle_w(topo, patch.z, y))
            assert np.array_equal(on_patch(topo, patch, table.kappa[0, k]),
                                  _oracle_kappa(topo, patch.z, y))
        if patch.boundary:
            assert table.chi is None
            continue
        for k in range(patch.N):
            assert np.array_equal(on_patch(topo, patch, table.chi[0, k]),
                                  _oracle_chi(patch, topo, k))
        _assert_same_field(on_patch(topo, patch, table.chi[0].sum(axis=0)),
                           _oracle_chi_sum(patch, topo))
        for i in (1, 2):
            tilde, xi = (on_patch(topo, patch, x[0])
                         for x in fields._xi(table, [i], patch.c[None]))
            want_tilde, want_xi = _oracle_xi(patch, topo, i)
            assert np.array_equal(tilde, want_tilde)
            _assert_same_field(xi, want_xi)


@pytest.mark.parametrize("source,name", ORACLE_MESHES,
                         ids=[n for _, n in ORACLE_MESHES])
def test_interpolants_equal_the_oracle(source, name):
    """Every interpolating and boundary vertex: the singular, odd and
    boundary interpolants, the even one with each direction index whose
    determinant is certified, and an edge transfer on every interior
    vertex, all to 1e-12 of the largest coefficient."""
    topo = build_topology(_oracle_mesh(source, name))
    reports, _ = classify_mesh(topo)
    rng = np.random.default_rng(sum(map(ord, name)))
    transfers = 0
    for r in reports:
        patch = fan(topo, r.vertex)
        a = _target(rng, patch, r.singular)
        if r.boundary and not r.singular:
            block, side = boundary_interpolant([r], a[None, None], topo)
            want, want_side = _oracle_boundary(patch, a, topo)
            _assert_same_field(_field(block), want)
            _assert_same_values(as_dict(side), want_side)
        elif r.boundary:
            block, side = boundary_interpolant([r], a[None, None], topo)
            _assert_same_field(_field(block),
                               _oracle_local(patch, a, topo, SINGULAR))
            assert not len(side.field)
        elif r.status == EVEN:
            for i in range(3):
                if decision(patch, i) <= TOL.decision:
                    continue
                forced = dataclasses.replace(r, even_index=i)
                block, _ = local_interpolant([forced], a[None, None], topo)
                _assert_same_field(_field(block),
                                   _oracle_local(patch, a, topo, EVEN, i))
        elif r.local_interpolating:
            block, _ = local_interpolant([r], a[None, None], topo)
            _assert_same_field(_field(block),
                               _oracle_local(patch, a, topo, r.status))
        if r.boundary:
            continue
        k = r.vertex % patch.N
        y = patch.spokes[k]
        try:
            block, spill = edge_transfer([r], [y], a[None, None], topo, TOL)
        except UnacceptableEdgeError:
            continue
        want, want_spill = _oracle_edge_transfer(topo, r.vertex, y, a)
        _assert_same_field(_field(block), want)
        _assert_same_values(as_dict(spill), want_spill)
        transfers += 1
    assert transfers


def test_oracle_meshes_cover_every_interpolant_branch():
    kinds = set()
    for source, name in ORACLE_MESHES:
        topo = build_topology(_oracle_mesh(source, name))
        reports, _ = classify_mesh(topo)
        for r in reports:
            kinds.add((r.status, r.boundary))
            if r.status == EVEN:
                kinds |= {f"even {i}" for i in range(3) if
                          decision(fan(topo, r.vertex), i) > TOL.decision}
    assert kinds >= {(SINGULAR, False), (ODD, False), (SINGULAR, True),
                     (BOUNDARY, True), "even 0", "even 1", "even 2"}


def _oracle_path(topo, path, a):
    acc, _ = _oracle_edge_transfer(topo, path[0], path[1], a)
    for z, ynext in zip(path[1:-1], path[2:]):
        patch = fan(topo, z)
        residual = np.array([div_at(topo, acc, t, z) for t in patch.tris])
        acc = acc + _oracle_edge_transfer(topo, z, ynext, -residual)[0]
    return acc


# crossed-2 and three-lines-2 have no interior two-hop path
PATH_MESHES = [("golden", "type1-3"), ("golden", "perturbed-3-s1")] \
    + ORACLE_MESHES[4::4]


def _two_hop_paths(topo):
    weights = edge_weights(topo)
    index = edge_index(topo)
    interior = [z for z in range(topo.V) if not topo.boundary_vertex[z]]

    def step(z, avoid):
        return next((y for y in fan(topo, z).spokes
                     if y not in avoid and not topo.boundary_vertex[y]
                     and abs(weights[(index[(min(z, y), max(z, y))],
                                      z)]) > 0.1), None)
    for z in interior:
        y = step(z, {z})
        w = step(y, {z, y}) if y is not None else None
        if w is not None:
            yield [z, y, w]


@pytest.mark.parametrize("source,name", PATH_MESHES,
                         ids=[n for _, n in PATH_MESHES])
def test_path_interpolant_equals_the_oracle(source, name, rng):
    topo = build_topology(_oracle_mesh(source, name))
    paths = 0
    for path in _two_hop_paths(topo):
        a = rng.standard_normal(topo.fans.degree[path[0]])
        result = path_interpolant(topo, path, a, TOL)
        want = _oracle_path(topo, path, a)
        _assert_same_field(_field(result.field), want)
        end = path[-1]
        _assert_same_values(as_dict(result.end_spill), {
            (t, end): div_at(topo, want, t, end)
            for t in fan(topo, end).tris
            if div_at(topo, want, t, end) != 0.0})
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


def _interpolant_cases(topo, reports):
    """(branch, interpolant, report) of every interpolating and boundary
    vertex, the even ones once per certified direction index."""
    for r in reports:
        if r.boundary:
            branch = "boundary singular" if r.singular else "boundary"
            yield branch, boundary_interpolant, r
        elif r.status == EVEN:
            patch = fan(topo, r.vertex)
            for i in range(3):
                if decision(patch, i) > TOL.decision:
                    yield (f"even {i}", local_interpolant,
                           dataclasses.replace(r, even_index=i))
        elif r.local_interpolating:
            yield r.status, local_interpolant, r


def _block_targets(rng, patch, singular, samples):
    a = rng.standard_normal((samples, patch.N))
    if singular:
        signs = (-1.0) ** np.arange(patch.N)
        a -= signs * (a @ signs)[:, None] / patch.N
    return a


def test_block_interpolants_equal_the_row_by_row_calls():
    """A target block (S, N) gives, field for field, the rows and side
    effects of the single-target call to 1e-15 of their largest entry."""
    branches = set()
    for name, make in CI_MESHES.items():
        topo = build_topology(make())
        reports, _ = classify_mesh(topo)
        rng = np.random.default_rng(sum(map(ord, name)))
        for branch, interpolant, r in _interpolant_cases(topo, reports):
            patch = fan(topo, r.vertex)
            a = _block_targets(rng, patch, r.singular, 3)
            block, side = interpolant([r], a[None], topo)
            assert isinstance(block, FieldBlock) and block.F == len(a)
            for s, row in enumerate(a):
                want, want_side = interpolant([r], row[None, None], topo)
                _assert_same_values(as_dict(side, s), as_dict(want_side),
                                    rtol=1e-15)
                assert np.array_equal(block.tri[block.field == s], want.tri)
                _assert_same_field(dense(block)[s], _field(want), rtol=1e-15)
            branches.add(branch)
    assert branches == {SINGULAR, ODD, "even 0", "even 1", "even 2",
                        "boundary", "boundary singular"}


# The meshes of the grouped-call tests: together they reach every
# interpolant branch with groups of several vertices.
GROUP_MESHES = {**GOLDEN_MESHES, **{k: CI_MESHES[k] for k in (
    "crossed-3", "type1-4", "three-lines-4", "perturbed-5-s3")},
    "mixed-6": lambda: type1_with_crossed(*MIXED["mixed-6"])}


def _assert_same_rows(block, side, g, S, want, want_side):
    """Member g of a grouped call with S targets a vertex has the field,
    tri and coeffs rows and the side effects of its group-of-one call, bit
    for bit."""
    mine = block.field // S == g
    assert np.array_equal(block.field[mine] - g * S, want.field)
    assert np.array_equal(block.tri[mine], want.tri)
    assert np.array_equal(block.coeffs[mine], want.coeffs)
    mine = side.field // S == g
    assert np.array_equal(side.field[mine] - g * S, want_side.field)
    for got_a, want_a in zip(side[1:], want_side[1:]):
        assert np.array_equal(got_a[mine], want_a)


def test_grouped_interpolants_equal_the_one_patch_calls():
    """A group of patches of one shape and class gives, vertex for vertex,
    the field, tri and coeffs rows and the side effects of the one-patch
    call, bit for bit; the even vertices enter once per certified
    direction index, so an even group mixes the three."""
    branches, largest = set(), {}
    for name, make in GROUP_MESHES.items():
        topo = build_topology(make())
        reports, _ = classify_mesh(topo)
        rng = np.random.default_rng(sum(map(ord, name)))
        groups = {}
        for case in _interpolant_cases(topo, reports):
            r = case[2]
            groups.setdefault((r.boundary, r.status, r.valence), []).append(
                case)
        for cases in groups.values():
            interpolant = cases[0][1]
            group = [r for _, _, r in cases]
            a = np.stack([_block_targets(rng, fan(topo, r.vertex),
                                         r.singular, 3) for r in group])
            S = a.shape[1]
            block, side = interpolant(group, a, topo)
            assert block.F == len(cases) * S
            for g, (branch, _, r) in enumerate(cases):
                want, want_side = interpolant([r], a[g:g + 1], topo)
                _assert_same_rows(block, side, g, S, want, want_side)
                branches.add(branch)
                largest[branch] = max(largest.get(branch, 0), len(cases))
    assert branches == {SINGULAR, ODD, "even 0", "even 1", "even 2",
                        "boundary", "boundary singular"}
    assert min(largest.values()) > 1


@pytest.mark.parametrize("name", sorted(GOLDEN_MESHES) + sorted(MIXED))
def test_grouped_edge_transfer_equals_the_one_vertex_calls(name):
    """A group of vertices of one patch shape and class, each sent over an
    acceptable interior edge of its own, gives, vertex for vertex, the
    rows and the spills of its group-of-one transfer bit for bit."""
    make = GOLDEN_MESHES.get(name) or (
        lambda: type1_with_crossed(*MIXED[name]))
    topo = build_topology(make())
    reports, _ = classify_mesh(topo)
    fans = topo.fans
    rng = np.random.default_rng(sum(map(ord, name)))
    groups = {}
    for r in reports:
        corners = np.arange(fans.offset[r.vertex],
                            fans.offset[r.vertex + 1] - r.boundary)
        far = fans.far[corners[np.abs(fans.weight[corners]) > TOL.accept]]
        if len(far):
            groups.setdefault((r.boundary, r.status, r.valence), []).append(
                (r, far[r.vertex % len(far)]))
    largest, spills = 0, 0
    for cases in groups.values():
        group, y = zip(*cases)
        a = rng.standard_normal((len(cases), 2, group[0].valence))
        block, spill = edge_transfer(list(group), y, a, topo, TOL)
        assert block.F == 2 * len(cases)
        for g, r in enumerate(group):
            want, want_spill = edge_transfer([r], y[g:g + 1], a[g:g + 1],
                                             topo, TOL)
            _assert_same_rows(block, spill, g, 2, want, want_spill)
        largest, spills = max(largest, len(cases)), spills + len(spill.field)
    assert largest > 1 and spills


# The three constructions as calls on (reports, targets, topology); the
# transfers go to vertex 0, which the group checks never reach.
CONSTRUCTIONS = {
    "local": local_interpolant,
    "boundary": boundary_interpolant,
    "transfer": lambda reports, target, topo: edge_transfer(
        reports, np.zeros(len(target), dtype=np.int64), target, topo),
}


@pytest.mark.parametrize("name", sorted(CONSTRUCTIONS))
def test_an_empty_group_is_a_field_error(name):
    topo = build_topology(crossed(1))
    with pytest.raises(FieldError, match="at least one vertex"):
        CONSTRUCTIONS[name]([], np.zeros((0, 1, 4)), topo)
    with pytest.raises(FieldError, match="at least one vertex"):
        edge_table([], topo)


def test_grouped_interpolants_reject_mixed_groups():
    """A group may mix valences, its targets padded with zeros to the
    largest; it may not mix boundary and interior vertices or classes, nor
    carry a non-zero target past a vertex's valence."""
    topo = build_topology(perturbed_grid(5, seed=3))
    reports, _ = classify_mesh(topo)
    odd = [r for r in reports if r.status == ODD]
    assert len({r.valence for r in odd}) > 1
    three = [r for r in odd if r.valence == odd[0].valence][:2]
    a = np.zeros((2, 1, three[0].valence))
    assert local_interpolant(three, a, topo)[0].F == 2
    other = next(r for r in odd if r.valence != odd[0].valence)
    N = max(three[0].valence, other.valence)
    mixed = np.zeros((2, 1, N))
    assert local_interpolant([three[0], other], mixed, topo)[0].F == 2
    short = next(g for g, r in enumerate([three[0], other]) if r.valence < N)
    mixed[short, 0, -1] = 1e-300
    with pytest.raises(FieldError, match="zero past each vertex's valence"):
        local_interpolant([three[0], other], mixed, topo)
    mixed[short, 0, -1] = np.nan
    with pytest.raises(FieldError, match="zero past each vertex's valence"):
        local_interpolant([three[0], other], mixed, topo)
    with pytest.raises(FieldError, match=r"\(G, S, N\) = \(2, S, "):
        local_interpolant(three, a[..., 1:], topo)
    with pytest.raises(FieldError, match=r"\(G, S, N\) = \(2, S, "):
        local_interpolant(three, np.zeros((2, 1, N + 1)), topo)
    # a bare report, a 1-D and a 2-D target are not a group
    for construct in CONSTRUCTIONS.values():
        for group, target in ((three[0], a[:1]), (three[:1], a[0, 0]),
                              (three[:1], a[0])):
            with pytest.raises(FieldError, match=r"shape \(G, S, N\)"):
                construct(group, target, topo)
    with pytest.raises(FieldError, match=r"far ends y of shape \(2,\)"):
        edge_transfer(three, [three[0].vertex], a, topo)
    boundary, twin = next((r, s) for r in reports for s in reports
                          if r.boundary and s.boundary and r.singular
                          and not s.singular and r.valence == s.valence)
    with pytest.raises(FieldError, match="one class"):
        boundary_interpolant([boundary, twin],
                             np.zeros((2, 1, boundary.valence)), topo)
    even = next(r for r in reports if r.status == EVEN)
    with pytest.raises(FieldError, match="one class"):
        local_interpolant([three[0], even], np.zeros(
            (2, 1, max(three[0].valence, even.valence))), topo)
    inner = next(r for r in reports if not r.boundary
                 and r.valence >= twin.valence)
    for construct in CONSTRUCTIONS.values():
        with pytest.raises(FieldError, match="all interior or all on the "
                                             "boundary"):
            construct([twin, inner], np.zeros((2, 1, inner.valence)), topo)


# Meshes of the mixed-valence tests: the goldens, every verify-fields
# benchmark mesh, the mixed type-1/crossed grids and a type-1 strip of
# three squares, whose vertices all lie on the boundary (no seed edge of
# a boundary vertex ends at an interior vertex).
PADDED_MESHES = ([("golden", name) for name in sorted(GOLDEN_MESHES)]
                 + [("bench", key) for key in bench_pool("verify-fields")]
                 + [("mixed", name) for name in sorted(MIXED)]
                 + [("strip", "type1-3x1")])


def _padded_mesh(source, name):
    if source == "golden":
        return GOLDEN_MESHES[name]()
    if source == "bench":
        return bench_mesh(name)
    if source == "strip":
        verts = [(float(i), float(j)) for i in range(4) for j in range(2)]
        tris = [t for i in range(3) for t in (
            (2 * i, 2 * i + 2, 2 * i + 3), (2 * i, 2 * i + 3, 2 * i + 1))]
        return Triangulation(np.array(verts), np.array(tris))
    return type1_with_crossed(*MIXED[name])


def _padded(rng, topo, group, S, singular):
    """Random targets (G, S, N) of a group, zero past each valence."""
    a = np.zeros((len(group), S, max(r.valence for r in group)))
    for g, r in enumerate(group):
        a[g, :, :r.valence] = _block_targets(rng, fan(topo, r.vertex),
                                             singular, S)
    return a


@pytest.mark.parametrize("source,name", PADDED_MESHES,
                         ids=[name for _, name in PADDED_MESHES])
def test_mixed_valence_calls_equal_the_one_vertex_calls(source, name):
    """One call per class, its vertices in vertex order whatever their
    valence, gives vertex for vertex the field, tri and coeffs rows and
    the side effects of the vertex's group-of-one call, bit for bit: for
    local_interpolant and boundary_interpolant on every class, and for
    edge_transfer on every interior and every boundary vertex sent over
    an acceptable edge of its own."""
    topo = build_topology(_padded_mesh(source, name))
    reports, _ = classify_mesh(topo)
    fans = topo.fans
    rng = np.random.default_rng(sum(map(ord, name)))
    classes, transfers = {}, {}
    for _, interpolant, r in _interpolant_cases(topo, reports):
        classes.setdefault((r.boundary, r.status), []).append(
            (interpolant, r))
    for r in reports:
        corners = np.arange(fans.offset[r.vertex],
                            fans.offset[r.vertex + 1] - r.boundary)
        far = fans.far[corners[np.abs(fans.weight[corners]) > TOL.accept]]
        if len(far):
            transfers.setdefault((r.boundary, r.status), []).append(
                (r, far[r.vertex % len(far)]))
    mixed = 0
    for cases in classes.values():
        interpolant = cases[0][0]
        group = [r for _, r in cases]
        _assert_padded_table(topo, [r.vertex for r in group])
        a = _padded(rng, topo, group, 2, group[0].singular)
        block, side = interpolant(group, a, topo)
        assert block.F == 2 * len(group)
        for g, r in enumerate(group):
            want, want_side = interpolant([r], a[g:g + 1, :, :r.valence],
                                          topo)
            _assert_same_rows(block, side, g, 2, want, want_side)
        mixed += len({r.valence for r in group}) > 1
    for cases in transfers.values():
        group, y = (list(c) for c in zip(*cases))
        a = _padded(rng, topo, group, 2, False)
        block, spill = edge_transfer(group, y, a, topo, TOL)
        for g, r in enumerate(group):
            want, want_spill = edge_transfer(
                [r], y[g:g + 1], a[g:g + 1, :, :r.valence], topo, TOL)
            _assert_same_rows(block, spill, g, 2, want, want_spill)
        mixed += len({r.valence for r in group}) > 1
    if name not in ("crossed-2", "three-lines-2", "three_lines-6"):
        assert mixed


def _assert_padded_table(topo, z):
    """The edge table of a group holds each vertex's group-of-one table,
    and zeros past its own edges and triangles."""
    table = edge_table(z, topo)
    N = table.corner.shape[1]
    for g, v in enumerate(z):
        one = edge_table([v], topo)
        n, m = one.corner.shape[1], one.w.shape[1]
        assert table.n[g] == n
        assert np.array_equal(table.corner[g, :n], one.corner[0])
        for got, want in ((table.w, one.w), (table.kappa, one.kappa),
                          (table.chi, one.chi)):
            if want is None:
                assert got is None
                continue
            assert np.array_equal(got[g, :m, :n], want[0])
            assert not got[g, m:].any() and not got[g, :, n:].any()
        assert np.array_equal(table.l_z2[g, :n], one.l_z2[0])
        assert not table.l_z2[g, n:].any()
    assert N == max(table.n)


def test_combine_adds_in_q_order():
    """_combine sums its terms one row after another, in q order, whatever
    the size of a row (a single column included): the same bits as a
    running sum, so that zero terms past a valence add nothing."""
    rng = np.random.default_rng(9)
    for Q in (1, 2, 3, 7, 8, 9, 12, 17):
        for tail in ((), (1,), (2,), (3, 2)):
            c = rng.standard_normal((3, 2, Q)) * 10.0 ** rng.integers(
                -8, 8, (3, 2, Q))
            rows = rng.standard_normal((3, Q) + tail)
            got = fields._combine(c, rows)
            want = c[..., 0].reshape(c.shape[:2] + (1,) * len(tail)) \
                * rows[:, None, 0]
            for q in range(1, Q):
                want = want + c[..., q].reshape(
                    c.shape[:2] + (1,) * len(tail)) * rows[:, None, q]
            assert np.array_equal(got, want), (Q, tail)
            padded = fields._combine(
                np.concatenate([c, np.zeros((3, 2, 4))], axis=-1),
                np.concatenate([rows, np.zeros((3, 4) + tail)], axis=1))
            assert np.array_equal(padded, want), (Q, tail)


def test_block_interpolant_checks_every_row():
    topo = build_topology(crossed(2))
    reports, _ = classify_mesh(topo)
    r = next(r for r in reports if r.singular and not r.boundary)
    patch = fan(topo, r.vertex)
    a = _block_targets(np.random.default_rng(3), patch, True, 3)
    a[2, 0] += 1.0
    with pytest.raises(FieldError, match="alternating-sum"):
        local_interpolant([r], a[None], topo)
    with pytest.raises(FieldError, match=rf"= \(1, S, {patch.N}\)"):
        local_interpolant([r], a[None, :, 1:], topo)
    assert local_interpolant([r], a[None, :0], topo)[0].F == 0


def _assert_block(block):
    """The FieldBlock invariants: rows sorted by (field, tri), one per
    pair, none all zero, every field index in range, arrays read-only."""
    key = block.field * block.topology.T + block.tri
    assert len(block.field) == len(block.tri) == len(block.coeffs)
    assert np.all(np.diff(key) > 0)
    assert block.coeffs.any(axis=(1, 2)).all()
    assert np.all((0 <= block.field) & (block.field < block.F))
    assert np.all((0 <= block.tri) & (block.tri < block.topology.T))
    for a in (block.field, block.tri, block.coeffs):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[...] = 0


@pytest.mark.parametrize("name", sorted(CI_MESHES))
def test_interpolant_blocks_are_sorted_nonzero_and_read_only(name):
    topo = build_topology(CI_MESHES[name]())
    reports, _ = classify_mesh(topo)
    rng = np.random.default_rng(sum(map(ord, name)))
    blocks = []
    for _, interpolant, r in _interpolant_cases(topo, reports):
        patch = fan(topo, r.vertex)
        for a in (_block_targets(rng, patch, r.singular, 3),
                  _target(rng, patch, r.singular)[None]):
            blocks.append(interpolant([r], a[None], topo)[0])
    for r in reports:
        if r.boundary:
            continue
        patch = fan(topo, r.vertex)
        for y in patch.spokes:
            try:
                blocks.append(edge_transfer(
                    [r], [y], rng.standard_normal((1, 2, patch.N)), topo,
                    TOL)[0])
            except UnacceptableEdgeError:
                continue
    for path in _two_hop_paths(topo):
        blocks.append(path_interpolant(
            topo, path, rng.standard_normal(topo.fans.degree[path[0]]),
            TOL).field)
    cover = build_tree_cover(topo, reports, TOL)
    if cover.complete:
        blocks.append(tree_interpolant(
            topo, cover, admissible_target(topo, reports, rng), reports,
            TOL))
    stacked, _ = stack_fields(topo, [(b, values()) for b in blocks])
    assert stacked.F == sum(b.F for b in blocks)
    for block in blocks + [stacked]:
        _assert_block(block)


def test_field_block_drops_zero_rows():
    topo = build_topology(crossed(1))
    c = np.random.default_rng(5).standard_normal((3, topo.T, 2,
                                                  len(poly.MONO3)))
    c[0, 1] = c[1] = c[2, 0] = 0.0
    block = field_block(topo, c)
    _assert_block(block)
    assert block.F == 3
    assert block.field.tolist() == [0, 0, 0, 2, 2, 2]
    assert block.tri.tolist() == [0, 2, 3, 1, 2, 3]
    assert np.array_equal(dense(block), c)
    one = field_block(topo, c[2])
    assert one.F == 1 and np.array_equal(dense(one)[0], c[2])


def _field_cases(topo, reports, rng):
    """Verified interpolants with their expected vertex divergences, and
    corrupted copies: a continuity jump, a boundary trace, a moved
    target, a triangle mean, an expected value outside the support and
    an empty field with and without expectations."""
    blocks, divs = [], []
    for _, interpolant, r in _interpolant_cases(topo, reports):
        patch = fan(topo, r.vertex)
        a = _block_targets(rng, patch, r.singular, 1)[0]
        got, side = interpolant([r], a[None, None], topo)
        expected = {(t, patch.z): v for t, v in zip(patch.tris, a.tolist())}
        expected.update(as_dict(side))
        blocks.append(got)
        divs.append(expected)
    # a field, a support triangle t and a triangle s outside the support
    # that share the edge {a, b}
    f, d = next((f, d) for f, d in zip(blocks, divs) if len(f.tri))
    t, s, a, b = _edge_off_support(topo, f)
    chi = _chi(topo)
    with_chi = dict(d)
    for key, val in corner_divergences(topo, chi).items():
        with_chi[key] = with_chi.get(key, 0.0) + val
    moved = dict(d)
    moved[next(iter(moved))] += 1e-6
    outside = next(u for u in range(topo.T) if u not in f.tri)
    beyond = dict(d)
    beyond[(outside, int(topo.mesh.triangles[outside][0]))] = 1.0
    empty = _zero(topo)
    corrupted = [(_add(f, _edge_bump(topo, s, a, b)), d),
                 (_add(f, _edge_bump(topo, t, a, b)), d),
                 (f, moved), (_add(f, chi), with_chi), (f, beyond),
                 (empty, {}), (empty, {(outside, int(
                     topo.mesh.triangles[outside][1])): 0.5})]
    for g, e in corrupted:
        blocks.insert(len(blocks) // 2, g)
        divs.insert(len(divs) // 2, e)
    return blocks, divs


@pytest.mark.parametrize("name", sorted(CI_MESHES))
def test_stacked_verify_field_equals_the_per_field_calls(name):
    topo = build_topology(CI_MESHES[name]())
    reports, _ = classify_mesh(topo)
    rng = np.random.default_rng(sum(map(ord, name)))
    blocks, divs = _field_cases(topo, reports, rng)
    stacked = verify_field(*stack_fields(
        topo, [(b, values(d)) for b, d in zip(blocks, divs)]))
    want, failing = [], []
    for i, (b, d) in enumerate(zip(blocks, divs)):
        single = verify_field(b, values(d))
        want += [(c.name, c.ok, c.deviation, c.detail, i)
                 for c in single.checks]
        if not single.ok:
            failing.append(i)
    assert [(c.name, c.ok, c.deviation, c.detail, c.field)
            for c in stacked.checks] == want
    assert stacked.failed_fields() == failing
    # six of the seven corrupted fields fail (an empty field expected to
    # be zero passes)
    assert len(failing) == 6
    checks = {c.name for c in stacked.checks if not c.ok}
    assert checks == {"continuity", "zero_boundary_trace",
                      "vertex_divergences", "zero_triangle_means"}


@pytest.mark.parametrize("name", sorted(CI_MESHES))
def test_chunked_verify_field_equals_one_pass(monkeypatch, name):
    """Walking the block in ranges of VERIFY_FIELDS fields gives the
    FieldCheck list of one pass over every field."""
    topo = build_topology(CI_MESHES[name]())
    reports, _ = classify_mesh(topo)
    rng = np.random.default_rng(sum(map(ord, name)))
    blocks, divs = _field_cases(topo, reports, rng)
    block, expected = stack_fields(
        topo, [(b, values(d)) for b, d in zip(blocks, divs)])
    passes = []
    original = fields._verify_range

    def counted(*args):
        passes.append(args[2])
        return original(*args)

    monkeypatch.setattr(fields, "_verify_range", counted)
    monkeypatch.setattr(fields, "VERIFY_FIELDS", block.F)
    whole = verify_field(block, expected).checks
    assert passes == [block.F]
    for size in (1, 3, 7):
        passes.clear()
        monkeypatch.setattr(fields, "VERIFY_FIELDS", size)
        assert verify_field(block, expected).checks == whole
        assert passes == [size] * (block.F // size) + (
            [block.F % size] if block.F % size else [])
    assert any(not c.ok for c in whole)


@pytest.mark.parametrize("eps", SLIVER_EPS)
@pytest.mark.parametrize("name", sorted(SLIVERS))
def test_suite_passes_on_a_sliver_and_still_catches_a_bad_field(
        monkeypatch, name, eps):
    """A triangle of height eps makes hat gradients of 1/eps, which carry
    the roundoff of every coefficient of a field into its vertex
    divergences and triangle means.  The suite passes on the sliver
    family, yet a field with one coefficient moved by 1e-6, on the sliver
    or off it, fails (any but that of the bubble l0 l1 l2, whose
    divergence has no vertex value and zero mean)."""
    mesh = sliver_mesh(name, eps)
    _, v, (a, b) = SLIVERS[name]
    topo = build_topology(mesh)
    thin = int(np.flatnonzero(np.isin(mesh.triangles, [a, b, v]).all(
        axis=1))[0])
    assert topo.area[thin] < eps
    blocks = []
    spy = cli.verify_field

    def kept(block, expected):
        blocks.append((block, expected))
        return spy(block, expected)

    monkeypatch.setattr(cli, "verify_field", kept)
    lines, ok = cli.run_field_suites(mesh, TOL, 2, 5)
    assert ok, [ln for ln in lines if "FAIL" in ln]
    block, expected = blocks[0]
    coeffs = block.coeffs.copy()
    f = block.field[block.tri == thin][0]
    for t in (thin, block.tri[(block.field == f) & (block.tri != thin)][0]):
        for c in (0, 3, 9):
            moved = coeffs.copy()
            moved[(block.field == f) & (block.tri == t), 0, c] += 1e-6
            report = verify_field(FieldBlock(topo, block.F, block.field,
                                             block.tri, moved), expected)
            assert report.failed_fields() == [f], (t, c)


def test_roundoff_reach_is_the_term_sum_at_unit_coefficients():
    """The verifier's reach of a row, sum_s g_s + 2 g_v at the vertex
    coefficient of l_v^2 and _MEAN_REACH sum_s g_s in the mean, is the
    sum of the term magnitudes of the divergence at unit coefficients."""
    grads = np.abs(np.random.default_rng(8).standard_normal((5, 3, 2)))
    terms = fields._div_coeffs(grads, np.ones((5, 2, len(poly.MONO3))))
    g = grads.sum(axis=2)
    assert np.allclose(terms[:, poly.VERTEX2],
                       g.sum(axis=1)[:, None] + 2.0 * g, rtol=1e-15)
    assert np.allclose(np.matmul(terms[:, None], poly.INT2_UNIT)[:, 0],
                       fields._MEAN_REACH * g.sum(axis=1), rtol=1e-15)


def test_single_field_report_names_its_field_zero():
    topo = build_topology(perturbed_grid(4, seed=3))
    empty = _zero(topo)
    report = verify_field(empty, values({(0, 99): 1.0}))
    assert [(c.name, c.ok, c.field) for c in report.checks] == [
        ("continuity", True, 0), ("zero_boundary_trace", True, 0),
        ("vertex_divergences", False, 0), ("zero_triangle_means", True, 0)]
    assert report.checks[2].detail == \
        "expected values outside support: [(0, 99)]"
    assert report.failed_fields() == [0]
    assert verify_field(_zero(topo, F=0)).checks == []
    with pytest.raises(FieldError, match="outside 0 .. 0"):
        verify_field(empty, values({}, {(0, 1): 1.0}))


@pytest.mark.parametrize("kind", ["local", "boundary"])
def test_suite_reports_one_corrupted_sample(monkeypatch, kind):
    """One corrupted sample's field fails its vertex as FAIL (1/2) and no
    other vertex."""
    mesh = perturbed_grid(5, seed=3)
    topo = build_topology(mesh)
    reports, _ = classify_mesh(topo)
    victim = next(r.vertex for r in reports if not r.singular and (
        r.boundary if kind == "boundary"
        else r.local_interpolating and not r.boundary))
    name = f"{kind}_interpolant"
    original = getattr(cli, name)

    def corrupting(group, targets, *args):
        block, side = original(group, targets, *args)
        group = [r.vertex for r in group]
        if victim not in group:
            return block, side
        f = group.index(victim) * targets.shape[1] + 1    # its second sample
        c = dense(block)
        c[f, block.tri[block.field == f][0], 0, 3] += 0.37    # lowest triangle
        return field_block(block.topology, c), side

    monkeypatch.setattr(cli, name, corrupting)
    lines, ok = cli.run_field_suites(mesh, TOL, 2, 7)
    assert not ok
    failed = [ln for ln in lines if "FAIL" in ln]
    assert failed == [f"vertex {victim:4d} [{reports[victim].status}]: "
                      "FAIL (1/2)"]
    assert all(ln.endswith("pass") for ln in lines if ln not in failed)


def test_suite_fails_a_boundary_seed_that_pollutes_a_second_vertex(
        monkeypatch):
    """A boundary field that also leaves a divergence at a second vertex y
    fails its vertex as FAIL (2/2) and no other vertex: only the far end
    of the seed edge may take one.  The pollution, 0.37 times the edge
    field of y along its spoke to the victim, is continuous, has zero
    trace and zero triangle means, and a divergence at y alone, so only
    the vertex check sees it."""
    mesh = perturbed_grid(5, seed=3)
    topo = build_topology(mesh)
    reports, _ = classify_mesh(topo)
    fans = topo.fans
    # a boundary vertex with two interior neighbours: one is the far end
    # of its seed edge, where its fields spill, and the other is y
    victim = next(r for r in reports if r.boundary and not r.singular
                  and (~topo.boundary_vertex[fan(topo, r.vertex).far]).sum()
                  >= 2)
    _, side = boundary_interpolant(
        [victim], np.arange(1.0, victim.valence + 1)[None, None], topo)
    assert len(set(side.vertex.tolist())) == 1
    y = next(int(v) for v in fan(topo, victim.vertex).far
             if not topo.boundary_vertex[v] and v not in side.vertex)
    table = edge_table([y], topo)
    k = np.flatnonzero(fans.far[table.corner[0]] == victim.vertex)[0]
    pollution = dict(zip(fans.tri[table.corner[0]].tolist(),
                         0.37 * table.w[0, k]))
    spilling_block = fields._spilling_block

    def polluting(topology, table, coeffs, *args):
        coeffs = coeffs.copy()
        for g in np.flatnonzero(table.z == victim.vertex):
            for j, t in enumerate(fans.tri[table.corner[g]].tolist()):
                coeffs[g, :, j] += pollution.get(t, 0.0)
        return spilling_block(topology, table, coeffs, *args)

    monkeypatch.setattr(fields, "_spilling_block", polluting)
    lines, ok = cli.run_field_suites(mesh, TOL, 2, 7)
    assert not ok
    failed = [ln for ln in lines if "FAIL" in ln]
    assert failed == [f"vertex {victim.vertex:4d} [{victim.status}]: "
                      "FAIL (2/2)"]
    assert all(ln.endswith("pass") for ln in lines if ln not in failed)


def test_suite_fields_isolate_a_failing_row():
    """A block whose construction raises is retried row by row: only the
    offending target is left out."""
    topo = build_topology(crossed(2))
    reports, _ = classify_mesh(topo)
    r = next(r for r in reports if r.singular and not r.boundary)
    patch = fan(topo, r.vertex)
    a = _block_targets(np.random.default_rng(4), patch, True, 3)
    a[1, 0] += 1.0
    built = list(cli._suite_fields(topo, [r], a[None]))
    assert [(vertices.tolist(), block.F) for vertices, block, _ in built] \
        == [([r.vertex], 1), ([r.vertex], 1)]
    _, block, expected = built[1]
    assert verify_field(block, expected).ok
    assert as_dict(expected) == {(t, patch.z): v
                                 for t, v in zip(patch.tris, a[2].tolist())}


def test_suite_group_with_a_violating_row_fails_that_vertex_only(
        monkeypatch):
    """One row of one vertex of a singular group breaks the alternating-sum
    condition: the group call raises, each vertex is retried alone and the
    offending vertex row by row, so that vertex reports FAIL (1/2) and
    every other vertex passes."""
    mesh = crossed(3)
    topo = build_topology(mesh)
    reports, _ = classify_mesh(topo)
    group = [r.vertex for r in reports if r.status == SINGULAR
             and not r.boundary]
    victim = group[1]
    original = cli.local_interpolant
    calls, bad = [], []

    def violating(group, targets, *args):
        targets = np.array(targets)
        calls.append(targets.shape)
        for g, r in enumerate(group):
            if r.vertex == victim:
                if not bad:
                    bad.append(targets[g, -1].copy())
                targets[g, (targets[g] == bad[0]).all(axis=1), 0] += 1.0
        return original(group, targets, *args)

    monkeypatch.setattr(cli, "local_interpolant", violating)
    lines, ok = cli.run_field_suites(mesh, TOL, 2, 7)
    assert not ok
    assert [ln for ln in lines if "FAIL" in ln] == [
        f"vertex {victim:4d} [{SINGULAR}]: FAIL (1/2)"]
    assert sum(f"vertex {z:4d} [{SINGULAR}]: pass" in lines
               for z in group) == len(group) - 1
    # the group, then each of its vertices, the victim with its two rows
    singular = [shape for shape in calls if shape[-1] == 4]
    assert singular == [(len(group), 2, 4)] + [(1, 2, 4)] * 2 \
        + [(1, 1, 4)] * 2 + [(1, 2, 4)] * (len(group) - 2)
