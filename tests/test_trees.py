"""Transfer paths, trees, greedy disjoint covers, and the global
vertex-divergence interpolant."""

import numpy as np
import pytest

from conftest import (GOLDEN_MESHES, admissible_target, dense, div_at,
                      div_mean, support)
from svstokes.classify import Tolerances, classify_mesh
from svstokes.fields import FieldError
from svstokes.mesh import (MeshError, build_topology, crossed,
                           perturbed_grid, type1_diagonal)
from svstokes.trees import (VERDICT_NONE, VERDICT_THM_ALL_LOCAL, Tree,
                            TreeCover, build_tree_cover, check_hypotheses,
                            edge_weights, path_stats, tree_interpolant,
                            tree_stats)

TOL = Tolerances()


# ---------------------------------------------------------------------------
# paths

def _some_interior_path(topo, hops):
    weights = edge_weights(topo)
    interior = [v for v in range(topo.V) if not topo.boundary_vertex[v]]

    def extend(path):
        if len(path) == hops + 1:
            return path
        u = path[-1]
        for v in interior:
            if v in path:
                continue
            e = topo.edge_index.get((min(u, v), max(u, v)))
            if e is None or topo.boundary_edge[e]:
                continue
            if abs(weights[(e, u)]) < 0.1:
                continue
            got = extend(path + [v])
            if got:
                return got
        return None

    for start in interior:
        got = extend([start])
        if got:
            return got
    raise AssertionError("no interior path found")


def test_path_stats_against_manual_products():
    topo = build_topology(perturbed_grid(4, seed=3))
    weights = edge_weights(topo)
    path = _some_interior_path(topo, 3)
    stats = path_stats(topo, path, TOL)
    assert stats.acceptable
    assert list(stats.vertices) == path
    rt = 1.0
    for j in range(len(path) - 1):
        e = stats.edges[j]
        near = weights[(e, path[j])]
        far = weights[(e, path[j + 1])]
        assert stats.M_fwd[j] == pytest.approx(near)
        assert stats.M_bwd[j] == pytest.approx(far)
        # amplification prefix: product of far/near over the earlier edges
        assert stats.rho_tilde[j] == pytest.approx(rt, rel=1e-12)
        assert stats.rho[j] == pytest.approx(rt / near, rel=1e-12)
        rt *= far / near
    assert stats.rho_P == pytest.approx(np.abs(stats.rho).max())


def _loop_edge_weights(topo):
    """(interior edge, endpoint) -> the sum of the cotangents at the
    endpoint in the edge's two triangles, one triangle side at a time."""
    cots = {}
    for t, tri in enumerate(topo.mesh.triangles.tolist()):
        for s in range(3):
            e = int(topo.tri_edges[t, s])
            if topo.boundary_edge[e]:
                continue
            for slot in (s, (s + 1) % 3):
                cots.setdefault((e, tri[slot]), []).append(topo.cot[t, slot])
    return {key: float(a + b) for key, (a, b) in cots.items()}


@pytest.mark.parametrize("name", sorted(GOLDEN_MESHES))
def test_edge_weights_and_path_stats_read_the_corner_table(name):
    """edge_weights and the weights path_stats reads for each hop, in
    both directions, equal the corner-table cotangent sums bit for bit."""
    topo = build_topology(GOLDEN_MESHES[name]())
    weights = edge_weights(topo)
    assert weights == _loop_edge_weights(topo)
    for (e, a), w in weights.items():
        b = int(sum(topo.edges[e])) - a
        stats = path_stats(topo, [a, b], TOL)
        assert stats.edges == (e,)
        assert stats.M_fwd[0] == w and stats.M_bwd[0] == weights[(e, b)]


def test_path_stats_rejects_bad_paths():
    topo = build_topology(perturbed_grid(3, seed=1))
    with pytest.raises(MeshError):
        path_stats(topo, [0], TOL)
    with pytest.raises(MeshError):
        path_stats(topo, [0, 0], TOL)
    with pytest.raises(MeshError):
        path_stats(topo, [0, topo.V - 1], TOL)  # not an edge


def test_path_not_acceptable_through_zero_weight():
    topo = build_topology(crossed(1))
    center = [v for v in range(topo.V) if not topo.boundary_vertex[v]][0]
    # every spoke of the crossed center has weight 0 at the center
    y = int(topo.edges[0][0]) if int(topo.edges[0][0]) != center else \
        int(topo.edges[0][1])
    for e in range(topo.E):
        if topo.boundary_edge[e]:
            continue
        a, b = (int(v) for v in topo.edges[e])
        if center in (a, b):
            other = b if a == center else a
            stats = path_stats(topo, [center, other], TOL)
            assert not stats.acceptable
            # traversed the other way the weight is nonzero
            assert path_stats(topo, [other, center], TOL).acceptable


# ---------------------------------------------------------------------------
# tree shape statistics

def test_singleton_tree_stats():
    t = Tree(root=0, parents={}, rho_of={0: 0.0})
    assert t.rho == 1.0
    assert t.upsilon == 0.0
    assert t.depth == 0
    assert tree_stats(t)["size"] == 1


def test_star_tree_upsilon():
    for k in (1, 2, 5, 9):
        t = Tree(root=0, parents={i: (0, i) for i in range(1, k + 1)},
                 rho_of={i: 1.0 for i in range(k + 1)})
        assert t.depth == 1
        assert t.upsilon == pytest.approx(np.sqrt(k))


def test_chain_tree_upsilon():
    for L in (1, 2, 4, 7):
        t = Tree(root=0, parents={i: (i - 1, i) for i in range(1, L + 1)},
                 rho_of={i: 1.0 for i in range(L + 1)})
        assert t.depth == L
        # the deepest vertex walks past ancestors with 1, 2, ..., L
        # descendants each
        assert t.upsilon == pytest.approx(np.sqrt(L * (L + 1) / 2))


# ---------------------------------------------------------------------------
# greedy covers

def test_cover_on_crossed_grid():
    topo = build_topology(crossed(2))
    reports, _, _ = classify_mesh(topo)
    cover = build_tree_cover(topo, reports, TOL)
    assert cover.complete
    assert cover.rho_bar >= 1.0
    # every interior vertex is local interpolating, hence its own root
    for r in reports:
        if not r.boundary:
            assert cover.trees[cover.assignment[r.vertex]].root == r.vertex
    verdict, _ = check_hypotheses(topo, reports, cover)
    assert verdict == VERDICT_THM_ALL_LOCAL


def test_cover_respects_rho_recurrence():
    topo = build_topology(perturbed_grid(4, seed=9))
    reports, _, _ = classify_mesh(topo)
    cover = build_tree_cover(topo, reports, TOL)
    assert cover.complete
    weights = edge_weights(topo)
    for tree in cover.trees:
        for v, (parent, e) in tree.parents.items():
            Mc = weights[(e, v)]
            Mu = weights[(e, parent)]
            assert abs(Mc) > TOL.accept
            expect = max(1.0 / abs(Mc), abs(Mu / Mc) * tree.rho_of[parent])
            assert tree.rho_of[v] == pytest.approx(expect, rel=1e-12)


def test_cover_trees_are_disjoint():
    topo = build_topology(perturbed_grid(4, seed=9))
    reports, _, _ = classify_mesh(topo)
    cover = build_tree_cover(topo, reports, TOL)
    seen = {}
    for i, tree in enumerate(cover.trees):
        for v in tree.vertices:
            assert v not in seen or seen[v] == i
            seen[v] = i
    assert seen.keys() == cover.assignment.keys()


def test_type1_has_no_cover():
    topo = build_topology(type1_diagonal(3))
    reports, _, dcoefficients = classify_mesh(topo)
    cover = build_tree_cover(topo, reports, TOL)
    assert not cover.complete
    interior = {r.vertex for r in reports if not r.boundary}
    assert interior <= cover.uncovered
    verdict, note = check_hypotheses(topo, reports, cover)
    assert verdict == VERDICT_NONE
    with pytest.raises(FieldError):
        tree_interpolant(topo, cover, np.zeros((topo.T, 3)), reports,
                         dcoefficients, TOL)


# ---------------------------------------------------------------------------
# the global interpolant

def _check_roundtrip(topo, cover, p, reports, dcoefficients):
    block = tree_interpolant(topo, cover, p, reports, dcoefficients, TOL)
    assert block.F == 1
    f = dense(block)[0]
    scale = max(np.abs(p).max(), 1.0)
    for t in range(topo.T):
        for slot, v in enumerate(topo.mesh.triangles[t]):
            got = div_at(topo, f, t, int(v))
            assert got == pytest.approx(p[t, slot], abs=1e-9 * scale)
        if t in support(f):
            assert abs(div_mean(topo, f, t)) < 1e-9 * scale


@pytest.mark.parametrize("mesh", [crossed(2), perturbed_grid(3, seed=2)],
                         ids=["crossed", "perturbed"])
def test_tree_interpolant_roundtrip(mesh, rng):
    topo = build_topology(mesh)
    reports, _, dcoefficients = classify_mesh(topo)
    cover = build_tree_cover(topo, reports, TOL)
    assert cover.complete
    _check_roundtrip(topo, cover, admissible_target(topo, reports, rng),
                     reports, dcoefficients)


def test_tree_interpolant_with_forced_multihop(rng):
    """A hand-built cover routes one chain of interior vertices through a
    two-hop path to its root; the interpolant must still round-trip."""
    topo = build_topology(perturbed_grid(3, seed=2))
    reports, _, dcoefficients = classify_mesh(topo)
    chain = _some_interior_path(topo, 2)
    r, u, w = chain
    weights = edge_weights(topo)
    e1 = topo.edge_index[(min(r, u), max(r, u))]
    e2 = topo.edge_index[(min(u, w), max(u, w))]
    big = Tree(root=r, parents={u: (r, e1), w: (u, e2)},
               rho_of={r: 0.0, u: 1.0, w: 1.0})
    trees = [big]
    assignment = {r: 0, u: 0, w: 0}
    base = build_tree_cover(topo, reports, TOL)
    assert base.complete
    for v in range(topo.V):
        if v in assignment:
            continue
        # reuse the greedy cover's root guarantees via singleton trees for
        # local-interpolating vertices; hang everything else off the greedy
        # cover's own parent relations when those avoid the big chain
        rep = reports[v]
        if rep.local_interpolating:
            trees.append(Tree(root=v, parents={}, rho_of={v: 0.0}))
            assignment[v] = len(trees) - 1
    # attach remaining (boundary) vertices to any already-assigned neighbor
    # across an acceptable interior edge, repeating until everyone is placed
    progress = True
    while progress and len(assignment) < topo.V:
        progress = False
        for v in range(topo.V):
            if v in assignment:
                continue
            for e in range(topo.E):
                if topo.boundary_edge[e]:
                    continue
                a, b = (int(x) for x in topo.edges[e])
                if v not in (a, b):
                    continue
                other = b if a == v else a
                if other in assignment and abs(weights[(e, v)]) > TOL.accept:
                    ti = assignment[other]
                    trees[ti].parents[v] = (other, e)
                    trees[ti].rho_of[v] = 1.0 / abs(weights[(e, v)])
                    assignment[v] = ti
                    progress = True
                    break
    assert len(assignment) == topo.V
    cover = TreeCover(trees=trees, assignment=assignment, uncovered=set())
    assert max(t.depth for t in cover.trees) >= 2
    _check_roundtrip(topo, cover, admissible_target(topo, reports, rng),
                     reports, dcoefficients)
