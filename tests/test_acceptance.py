"""Acceptance suite: one test per primary acceptance criterion.

Each test prints a single summary line (visible with ``pytest -s`` or in
captured output) and fails atomically if any sub-check misses its stated
tolerance or time budget.
"""

import time
from math import factorial

import numpy as np
import pytest

from conftest import (admissible_target, decision, dense, div_at,
                      div_integral, div_mean, dual_determinants, edge_index,
                      edge_pair_angles, edge_tris, edge_weights, fan,
                      on_patch, path_interpolant, path_stats,
                      random_interior_patch,
                      rigid_motion, scalar_edge_integral,
                      scalar_gradient_at_vertex, support, svd_oracle, values)
from svstokes import fields, poly, solver
from svstokes.classify import EVEN, ODD, SINGULAR, Tolerances, classify_mesh
from svstokes.fields import edge_table, local_interpolant, verify_field
from svstokes.mesh import (Triangulation, build_topology, crossed,
                           ngon_patch, perturbed_grid, three_lines,
                           type1_diagonal)
from svstokes.trees import build_tree_cover, check_hypotheses, tree_interpolant

TOL = Tolerances()
RTOL = 1e-9


def _report(n, label, ok=True):
    print(f"[ACCEPTANCE {n}] {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {n} failed"


def _tri_area(topo, t):
    return abs(poly.signed_area(*topo.mesh.vertices[topo.mesh.triangles[t]]))


# ---------------------------------------------------------------------------

def test_A1_field_lemma_suite():
    """Elementary field constructions on 100 random patches, < 10 s."""
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    for trial in range(100):
        mesh, topo, patch = random_interior_patch(rng)
        # edge fields: support, unit divergence at the center, zero at the
        # far endpoint, zero triangle means
        table = edge_table([patch.z], topo)
        k = int(rng.integers(patch.N))
        y = int(patch.spokes[k])
        f = on_patch(topo, patch, table.w[0, k])
        e = edge_index(topo)[(0, y)]
        t1, t2 = edge_tris(topo, e)
        assert support(f) == {t1, t2}
        for t in (t1, t2):
            assert abs(div_at(topo, f, t, 0) - 1.0) < RTOL
            assert abs(div_at(topo, f, t, y)) < RTOL
            assert abs(div_mean(topo, f, t)) < RTOL
        # normal correctors: unit +/- divergence integrals and the summed
        # vertex-divergence identity against the patch coefficients
        for j in range(patch.N):
            chi = on_patch(topo, patch, table.chi[0, j])
            pair = patch.tris[j], patch.tris[(j + 1) % patch.N]
            ints = sorted(div_integral(topo, chi, t) for t in pair)
            assert abs(ints[0] + 1.0) < RTOL and abs(ints[1] - 1.0) < RTOL
        total = on_patch(topo, patch, table.chi[0].sum(axis=0))
        scale = max(np.abs(patch.d0).max(), 1.0)
        for j, t in enumerate(patch.tris):
            assert abs(div_at(topo, total, t, 0) - 12.0 * patch.d0[j]) \
                < RTOL * 12 * scale
        # directional correctors: raw divergence values/integrals and the
        # mean-zero corrected divergence values
        for i in (1, 2):
            xi_tilde, xi = (on_patch(topo, patch, x[0])
                            for x in fields._xi(table, [i], patch.c[None]))
            bs = max(np.abs(patch.b[:, i - 1]).max(), 1.0)
            ds = max(np.abs(patch.d[:, i - 1]).max(), 1.0)
            for j, t in enumerate(patch.tris):
                area = _tri_area(topo, t)
                assert abs(div_at(topo, xi_tilde, t, 0)
                           - 3.0 * patch.b[j, i - 1] / area) \
                    < RTOL * 3 * bs / area
                assert abs(div_integral(topo, xi_tilde, t)
                           - patch.b[j, i - 1]) < RTOL * bs
                assert abs(div_at(topo, xi, t, 0) - patch.d[j, i - 1]) \
                    < 10 * RTOL * ds
                assert abs(div_mean(topo, xi, t)) < 10 * RTOL * ds
        # zero-edge-mean scalar: edge mean and the two gradient identities
        kap = on_patch(topo, patch, table.kappa[0, k])
        for t in (t1, t2):
            assert abs(scalar_edge_integral(topo, t, kap[t], 0, y)) < RTOL
            g = poly.hat_gradients(*topo.mesh.vertices[topo.mesh.triangles[t]])
            tri = list(topo.mesh.triangles[t])
            assert np.abs(scalar_gradient_at_vertex(topo, t, kap[t], 0)
                          - 0.5 * g[tri.index(y)]).max() < RTOL * np.abs(g).max()
            assert np.abs(scalar_gradient_at_vertex(topo, t, kap[t], y)
                          + 0.5 * g[tri.index(0)]).max() < RTOL * np.abs(g).max()
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"field-lemma suite took {elapsed:.1f}s"
    _report(1, f"field lemmas on 100 random patches in {elapsed:.2f}s")


def test_A2_local_interpolant_suite():
    """Kronecker interpolants for all three local-interpolating classes."""
    rng = np.random.default_rng(202)

    def run(patch, topo, target):
        report = classify_mesh(topo, TOL)[0][patch.z]
        f, _ = local_interpolant([report], target[None, None], topo)
        assert set(f.tri.tolist()) <= set(patch.tris)
        divs = {(t, patch.z): target[j] for j, t in enumerate(patch.tris)}
        rep = verify_field(f, values(divs))
        assert rep.ok, rep.failed()

    # singular, valence 4
    topo = build_topology(crossed(1))
    center = [v for v in range(topo.V) if not topo.boundary_vertex[v]][0]
    patch = fan(topo, center)
    assert classify_mesh(topo)[0][center].status == SINGULAR
    for _ in range(50):
        raw = rng.standard_normal(4)
        signs = np.array([1.0, -1.0, 1.0, -1.0])
        run(patch, topo, raw - signs * (signs @ raw) / 4.0)
    # odd valences
    for N in (3, 5, 7):
        mesh, topo, patch = random_interior_patch(rng, N=N)
        assert classify_mesh(topo)[0][0].status == ODD
        for _ in range(50):
            run(patch, topo, rng.standard_normal(N))
    # even: the 8-valent grid crossings of the crossed mesh
    topo = build_topology(crossed(2))
    reports, _ = classify_mesh(topo)
    even = [r.vertex for r in reports if r.status == EVEN]
    assert even
    patch = fan(topo, even[0])
    for _ in range(50):
        run(patch, topo, rng.standard_normal(8))
    _report(2, "local interpolants, 50 random targets per vertex class")


def test_A3_determinant_regressions():
    """Degenerate families give zero decisions; the 8-valent crossing
    gives |D_0| = 4 / L_min^2."""
    for mesh in (ngon_patch(6), three_lines(3), type1_diagonal(3)):
        topo = build_topology(mesh)
        reports = classify_mesh(topo)[0]
        for v in range(topo.V):
            if topo.boundary_vertex[v]:
                continue
            if reports[v].singular:
                continue
            patch = fan(topo, v)
            for i in range(3):
                assert decision(patch, i) < 1e-10
    for L in (1.0, 0.5, 2.0):
        topo = build_topology(crossed(2, L=L))
        for v in range(topo.V):
            if topo.boundary_vertex[v]:
                continue
            patch = fan(topo, v)
            if patch.N != 8:
                continue
            expect = 4.0 / min(patch.edge_len) ** 2
            assert abs(abs(patch.D[0]) - expect) < 1e-10 * expect
            # cross-check through the dual formula
            D0_simple, _ = dual_determinants(patch, topo, patch.D[0])
            assert abs(abs(D0_simple) - expect) < 1e-10 * expect
    _report(3, "determinant regressions incl. |D_0| = 4/L^2 on crossings")


def test_A4_dual_formula_agreement():
    """Dual determinant formulas agree on 1000 random even-valence
    interior patches, < 5 s."""
    rng = np.random.default_rng(404)
    start = time.perf_counter()
    for trial in range(1000):
        N = int(rng.choice([4, 6, 8]))
        mesh, topo, patch = random_interior_patch(rng, N=N)
        scale = max(1.0, float(np.abs(patch.D).max()))
        D0_simple, D_closed = dual_determinants(patch, topo, patch.D[0])
        assert abs(patch.D[0] - D0_simple) < 1e-10 * scale
        assert abs(patch.D[1] - D_closed[0]) < 1e-10 * scale
        assert abs(patch.D[2] - D_closed[1]) < 1e-10 * scale
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"dual-formula suite took {elapsed:.1f}s"
    _report(4, f"dual formulas on 1000 random patches in {elapsed:.2f}s")


def test_A5_ontoness_oracle():
    """Stable crossed grids (K=0, beta>0, clean gap) versus deficient
    diagonal grids (K>=1, alternating spurious mode), < 60 s per mesh."""
    for n in (1, 2, 3):
        start = time.perf_counter()
        topo = build_topology(crossed(n))
        reports, summary = classify_mesh(topo)
        nodes = solver.number_dofs(topo)
        assert 2 * (nodes.max() + 1) <= 3000
        cert = solver.certify(topo, reports)
        beta_svd = svd_oracle(cert)[1]
        rr = solver.divergence_rank(cert, TOL)
        beta = solver.infsup_constant(rr)
        assert rr.K == 0
        assert rr.gap > 10.0
        assert beta > 0.0
        assert beta == pytest.approx(beta_svd, rel=1e-12)
        assert time.perf_counter() - start < 60.0
    for n in (2, 3):
        start = time.perf_counter()
        topo = build_topology(type1_diagonal(n))
        reports, summary = classify_mesh(topo)
        cert = solver.certify(topo, reports)
        rr = solver.divergence_rank(cert, TOL)
        assert rr.K >= 1
        modes = solver.spurious_modes(cert, rr)
        assert len(modes) == rr.K
        assert any(solver.checkerboard_signature(topo, m) for m in modes)
        assert time.perf_counter() - start < 60.0
    _report(5, "crossed grids onto (K=0), diagonal grids deficient with "
               "checkerboard mode")


def test_A6_dimension_identities():
    """Integer-exact nullity and spline-dimension identities."""
    meshes = [crossed(1), crossed(2), crossed(3), type1_diagonal(2),
              type1_diagonal(3), perturbed_grid(3, seed=1),
              Triangulation([[0, 0], [1, 0], [1, 1], [0, 1]],
                            [[0, 1, 2], [0, 2, 3]]),
              Triangulation([[0, 0], [1, 0], [0, 1]], [[0, 1, 2]])]
    for mesh in meshes:
        topo = build_topology(mesh)
        reports, summary = classify_mesh(topo)
        cert = solver.certify(topo, reports)
        rr = solver.divergence_rank(cert, TOL)
        sd = solver.strang_dimensions(topo, summary["sigma_i"],
                                      summary["sigma_b"], rr.K)
        assert cert.shape[1] == 2 * (topo.V0 + 2 * topo.E0 + topo.T)
        assert rr.nullity == sd.dim_s4
        if rr.K == 0 and sd.hypothesis_ok:
            assert sd.identity_ok is True
    # the 2-triangle clamp case
    topo = build_topology(meshes[-2])
    reports, summary = classify_mesh(topo)
    cert = solver.certify(topo, reports)
    rr = solver.divergence_rank(cert, TOL)
    sd = solver.strang_dimensions(topo, summary["sigma_i"],
                                  summary["sigma_b"], rr.K)
    assert sd.dim_s4 == 0
    _report(6, "nullity and spline-dimension identities integer-exact on "
               f"{len(meshes)} meshes")


def test_A7_tree_machinery():
    """Path spill closed form, global round-trip, and cover => K = 0."""
    rng = np.random.default_rng(707)
    topo = build_topology(perturbed_grid(4, seed=3))
    weights = edge_weights(topo)
    index = edge_index(topo)
    interior = [v for v in range(topo.V) if not topo.boundary_vertex[v]]
    valence = {v: int(topo.fans.degree[v]) for v in interior}

    def find_paths(limit):
        # the alternating functional the spill product telescopes through
        # is only consistently signed at even valence, so intermediate
        # vertices are restricted to even patches
        found = []
        for a in interior:
            for b in interior:
                if valence[b] % 2:
                    continue
                for c in interior:
                    if valence[c] % 2:
                        continue
                    for d in interior:
                        path = [a, b, c, d]
                        if len(set(path)) != 4:
                            continue
                        ok = True
                        for u, v in zip(path[:-1], path[1:]):
                            e = index.get((min(u, v), max(u, v)))
                            if e is None or topo.boundary_edge[e] or \
                                    abs(weights[(e, u)]) < 0.1:
                                ok = False
                                break
                        if ok:
                            found.append(path)
                            if len(found) == limit:
                                return found
        return found

    paths = find_paths(5)
    assert paths
    for path in paths:
        patch = fan(topo, path[0])
        target = np.zeros(patch.N)
        target[int(rng.integers(patch.N))] = 1.0    # |alternating sum| = 1
        result = path_interpolant(topo, path, target, TOL)
        stats = path_stats(topo, path, TOL)
        assert stats.acceptable
        amplification = abs(stats.rho_tilde[-1])
        _, _, th1, th2 = edge_pair_angles(topo, stats.edges[-1], path[-2])
        M_last = abs(stats.M_fwd[-1])
        predicted = sorted(amplification * abs(np.cos(t) / np.sin(t)) / M_last
                           for t in (th1, th2))
        got = sorted(np.abs(result.end_spill.value).tolist())
        assert len(got) == 2
        for p, g in zip(predicted, got):
            assert abs(g - p) < RTOL * max(p, 1.0)

    # global round-trip and the cover => K = 0 consistency
    for mesh in (crossed(2), perturbed_grid(3, seed=2)):
        topo = build_topology(mesh)
        reports, summary = classify_mesh(topo)
        cover = build_tree_cover(topo, reports, TOL)
        assert cover.complete
        p = admissible_target(topo, reports, rng)
        f = dense(tree_interpolant(topo, cover, p, reports, TOL))[0]
        scale = max(np.abs(p).max(), 1.0)
        for t in range(topo.T):
            for slot, v in enumerate(topo.mesh.triangles[t]):
                got = div_at(topo, f, t, int(v))
                assert abs(got - p[t, slot]) < RTOL * scale
        cert = solver.certify(topo, reports)
        rr = solver.divergence_rank(cert, TOL)
        assert rr.K == 0
    _report(7, "path spill closed form, interpolant round-trip, "
               "complete cover => K = 0")


def _seminorm_beta(topo, reports):
    """The rank's seminorm beta, which agrees with the SVD's to 1e-8."""
    cert = solver.certify(topo, reports, seminorm=True)
    beta_svd = svd_oracle(cert)[1]
    beta = solver.infsup_constant(solver.divergence_rank(cert, TOL))
    assert abs(beta - beta_svd) < 1e-8 * beta_svd
    return beta


def test_A8_invariance_under_similarity():
    """Classification, acceptability, rho, Upsilon, K and beta invariant
    under rigid motions; dimensionless quantities also under scaling."""
    base = perturbed_grid(3, seed=13)
    topo0 = build_topology(base)
    reports0, summary0 = classify_mesh(topo0)
    cover0 = build_tree_cover(topo0, reports0, TOL)
    cert0 = solver.certify(topo0, reports0)
    rr0 = solver.divergence_rank(cert0, TOL)
    beta0 = solver.infsup_constant(rr0)
    beta0s = _seminorm_beta(topo0, reports0)

    cases = [("rotation", dict(angle=0.7, shift=(3.0, -2.0), scale=1.0)),
             ("shrink", dict(angle=0.0, shift=(0.0, 0.0), scale=0.5)),
             ("grow+rotate", dict(angle=2.1, shift=(-1.0, 4.0), scale=2.0))]
    for name, motion in cases:
        rigid = motion["scale"] == 1.0
        topo1 = build_topology(rigid_motion(base, **motion))
        reports1, summary1 = classify_mesh(topo1)
        for r0, r1 in zip(reports0, reports1):
            assert r0.status == r1.status and r0.singular == r1.singular
        assert summary1["sigma"] == summary0["sigma"]
        cover1 = build_tree_cover(topo1, reports1, TOL)
        assert np.array_equal(cover1.tree, cover0.tree)
        assert abs(cover1.rho_bar - cover0.rho_bar) < 1e-8 * cover0.rho_bar
        assert abs(cover1.upsilon_bar - cover0.upsilon_bar) \
            < 1e-8 * max(cover0.upsilon_bar, 1.0)
        # per-path statistics (cotangent-built, hence similarity invariant)
        weights0 = edge_weights(topo0)
        weights1 = edge_weights(topo1)
        for key, w0 in weights0.items():
            assert abs(weights1[key] - w0) < 1e-8 * max(abs(w0), 1.0)
        cert1 = solver.certify(topo1, reports1)
        beta1_svd = svd_oracle(cert1)[1]
        rr1 = solver.divergence_rank(cert1, TOL)
        beta1 = solver.infsup_constant(rr1)
        assert rr1.K == rr0.K and rr1.rank == rr0.rank
        assert abs(beta1 - beta1_svd) < 1e-8 * beta1_svd
        if rigid:
            assert abs(beta1 - beta0) < 1e-8 * beta0
        else:
            # the full-H1 constant is not dimensionless; the seminorm
            # variant is exactly scale invariant
            beta1s = _seminorm_beta(topo1, reports1)
            assert abs(beta1s - beta0s) < 1e-8 * beta0s
        # dimensionless decision quantities under pure scaling
        if not rigid and motion["angle"] == 0.0:
            for v in range(topo0.V):
                if topo0.boundary_vertex[v]:
                    continue
                if reports0[v].singular:
                    continue
                d0, d1 = fan(topo0, v), fan(topo1, v)
                for i in range(3):
                    assert abs(decision(d1, i) - decision(d0, i)) \
                        < 1e-8 * max(decision(d0, i), 1e-12)
    _report(8, "similarity invariance of classification, trees, K, beta")
