"""Transfer paths, trees, greedy disjoint covers, and the global
vertex-divergence interpolant."""

import heapq
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (GOLDEN_MESHES, MIXED, admissible_target, dense, div_at,
                      div_mean, edge_index, edge_weights, fan,
                      path_interpolant, path_stats, support,
                      type1_with_crossed)
from svstokes import trees
from svstokes.classify import NOT_LI, Tolerances, classify_mesh
from svstokes.fields import (FieldError, boundary_interpolant,
                             center_divergences, local_interpolant)
from svstokes.mesh import (Triangulation, build_topology, crossed,
                           perturbed_grid, type1_diagonal)
from svstokes.trees import (VERDICT_COVER, VERDICT_NONE,
                            VERDICT_THM_ALL_LOCAL, TreeCover,
                            build_tree_cover, check_hypotheses,
                            tree_interpolant)

TOL = Tolerances()


# ---------------------------------------------------------------------------
# paths

def _some_interior_path(topo, hops):
    weights = edge_weights(topo)
    index = edge_index(topo)
    interior = [v for v in range(topo.V) if not topo.boundary_vertex[v]]

    def extend(path):
        if len(path) == hops + 1:
            return path
        u = path[-1]
        for v in interior:
            if v in path:
                continue
            e = index.get((min(u, v), max(u, v)))
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
    """edge_weights (read per side from ``topo.cot``) and the weights
    of the path_stats oracle for each hop, in both directions, equal the
    corner-table cotangent sums bit for bit."""
    topo = build_topology(GOLDEN_MESHES[name]())
    weights = edge_weights(topo)
    assert weights == _loop_edge_weights(topo)
    for (e, a), w in weights.items():
        b = int(sum(topo.edges[e])) - a
        stats = path_stats(topo, [a, b], TOL)
        assert stats.edges == (e,)
        assert stats.M_fwd[0] == w and stats.M_bwd[0] == weights[(e, b)]


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
# the dict cover the array cover replaced, kept as the oracle: one Tree of
# dicts per root, grown over a neighbour dict and the edge_weights dict,
# with its statistics walked vertex by vertex

@dataclass
class Tree:
    root: int
    parents: dict                 # vertex -> (parent vertex, edge index)
    rho_of: dict                  # vertex -> rho of its root path (root: 0)

    @property
    def vertices(self):
        return set(self.parents) | {self.root}

    def path_to_root(self, z):
        out = [z]
        while out[-1] != self.root:
            out.append(self.parents[out[-1]][0])
        return out

    def depth_of(self, z):
        return len(self.path_to_root(z)) - 1

    @property
    def depth(self):
        return max((self.depth_of(z) for z in self.parents), default=0)

    @property
    def rho(self) -> float:
        return max(max(self.rho_of.values(), default=0.0), 1.0)

    @property
    def upsilon(self) -> float:
        children = {}
        for v, (p, _) in self.parents.items():
            children.setdefault(p, []).append(v)
        ndesc = {}

        def count(v):
            total = 0
            for c in children.get(v, []):
                total += 1 + count(c)
            ndesc[v] = total
            return total

        count(self.root)
        best = 0.0
        for z in self.vertices:
            s = 0.0
            v = z
            while v != self.root:
                v = self.parents[v][0]
                s += ndesc[v]
            best = max(best, s)
        return float(np.sqrt(best))


@dataclass
class DictCover:
    trees: list
    assignment: dict              # vertex -> tree index, in join order
    uncovered: set


def dict_cover(topology, reports, tol=TOL):
    weights = edge_weights(topology)
    neighbors = {}
    interior = np.flatnonzero(~topology.boundary_edge)
    for e, (a, b) in zip(interior.tolist(), topology.edges[interior].tolist()):
        neighbors.setdefault(a, []).append((b, e))
        neighbors.setdefault(b, []).append((a, e))
    roots = [r.vertex for r in reports if r.local_interpolating]
    trees_ = [Tree(root=r, parents={}, rho_of={r: 0.0}) for r in roots]
    assignment = {r: i for i, r in enumerate(roots)}
    heap = []
    counter = 0

    def push_frontier(u, ti):
        nonlocal counter
        for (c, e) in neighbors.get(u, []):
            if c in assignment:
                continue
            Mc = weights[(e, c)]
            if abs(Mc) <= tol.accept:
                continue
            Mu = weights[(e, u)]
            rho_c = max(1.0 / abs(Mc), abs(Mu / Mc) * trees_[ti].rho_of[u])
            counter += 1
            heapq.heappush(heap, (rho_c, trees_[ti].root, counter, c, u, e,
                                  ti))

    for i, r in enumerate(roots):
        push_frontier(r, i)
    while heap:
        rho_c, _, _, c, u, e, ti = heapq.heappop(heap)
        if c in assignment:
            continue
        trees_[ti].parents[c] = (u, e)
        trees_[ti].rho_of[c] = rho_c
        assignment[c] = ti
        push_frontier(c, ti)
    return DictCover(trees=trees_, assignment=assignment,
                     uncovered=set(range(topology.V)) - set(assignment))


def dict_tree_stats(tree):
    sizes = {}
    for z in tree.vertices:
        d = tree.depth_of(z)
        sizes[d] = sizes.get(d, 0) + 1
    return {"rho": tree.rho, "upsilon": tree.upsilon, "depth": tree.depth,
            "level_sizes": sizes, "size": len(tree.vertices),
            "vertices": sorted(tree.vertices)}


def array_cover(dcover, V):
    """The TreeCover of a dict cover; its join order is the dict cover's
    assignment order."""
    tree, parent, edge = (np.full(V, -1) for _ in range(3))
    rho, depth = np.zeros(V), np.full(V, -1)
    for i, t in enumerate(dcover.trees):
        for v in t.vertices:
            tree[v], rho[v], depth[v] = i, t.rho_of[v], t.depth_of(v)
        for v, (p, e) in t.parents.items():
            parent[v], edge[v] = p, e
    return TreeCover(roots=np.array([t.root for t in dcover.trees], dtype=int),
                     tree=tree, parent=parent, parent_edge=edge, rho=rho,
                     depth=depth, order=np.array(list(dcover.assignment),
                                                 dtype=int))


def assert_cover_matches_oracle(topo, tol=TOL):
    reports, _ = classify_mesh(topo, tol)
    cover = build_tree_cover(topo, reports, tol)
    oracle = dict_cover(topo, reports, tol)
    assert all(not a.flags.writeable for a in vars(cover).values()
               if isinstance(a, np.ndarray))
    assert cover.roots.tolist() == [t.root for t in oracle.trees]
    assert cover.order.tolist() == list(oracle.assignment)
    assert cover.uncovered.tolist() == sorted(oracle.uncovered)
    assert cover.complete == (not oracle.uncovered)
    want = array_cover(oracle, topo.V)
    for name in ("tree", "parent", "parent_edge", "depth"):
        assert np.array_equal(getattr(cover, name), getattr(want, name)), name
    # rho bit for bit: the same floats, not merely close ones
    assert cover.rho.tolist() == want.rho.tolist()
    stats = cover.stats
    got = zip(stats.rho.tolist(), stats.upsilon.tolist(),
              stats.depth.tolist(), stats.level_sizes, stats.size.tolist(),
              stats.vertices, strict=True)
    for t, row in zip(oracle.trees, got, strict=True):
        expect = dict_tree_stats(t)
        # the floats by repr: the same bits, not merely close values
        assert (repr(row[0]), repr(row[1]), *row[2:]) == (
            repr(expect["rho"]), repr(expect["upsilon"]), expect["depth"],
            expect["level_sizes"], expect["size"], expect["vertices"])
    assert repr(cover.rho_bar) == repr(
        max((t.rho for t in oracle.trees), default=0.0))
    assert repr(cover.upsilon_bar) == repr(
        max((t.upsilon for t in oracle.trees), default=0.0))
    return cover


# ---------------------------------------------------------------------------
# the array cover against the oracle

@pytest.mark.parametrize("name", sorted(GOLDEN_MESHES))
def test_cover_matches_dict_cover_golden(name):
    assert_cover_matches_oracle(build_topology(GOLDEN_MESHES[name]()))


@pytest.mark.parametrize("mesh", [lambda: crossed(32),
                                  lambda: perturbed_grid(32, seed=3)],
                         ids=["crossed-32", "perturbed-32-s3"])
def test_cover_matches_dict_cover_at_32(mesh):
    cover = assert_cover_matches_oracle(build_topology(mesh()))
    assert cover.complete


@settings(max_examples=15, deadline=None)
@given(n=st.integers(2, 7), seed=st.integers(0, 10_000),
       accept=st.sampled_from([1e-8, 0.3, 1.0]))
def test_cover_matches_dict_cover_perturbed(n, seed, accept):
    assert_cover_matches_oracle(build_topology(perturbed_grid(n, seed=seed)),
                                Tolerances(accept=accept))


# ---------------------------------------------------------------------------
# tree shape statistics on hand-built covers

def _cover(parent):
    """The cover of the forest given by a parent list (-1 at the roots):
    trees numbered by root, transfer factors 1, join order by depth."""
    parent = np.array(parent)
    roots = np.flatnonzero(parent < 0)
    tree, depth = np.full(len(parent), -1), np.full(len(parent), -1)
    tree[roots], depth[roots] = np.arange(len(roots)), 0
    while (tree < 0).any():
        hang = (tree < 0) & (tree[parent] >= 0)
        tree[hang], depth[hang] = tree[parent[hang]], depth[parent[hang]] + 1
    rho = np.where(parent < 0, 0.0, 1.0)
    return TreeCover(roots=roots, tree=tree, parent=parent,
                     parent_edge=np.where(parent < 0, -1, np.arange(len(parent))),
                     rho=rho, depth=depth,
                     order=np.argsort(depth, kind="stable"))


def test_singleton_tree_stats():
    stats = _cover([-1]).stats
    assert stats.rho.tolist() == [1.0]
    assert stats.upsilon.tolist() == [0.0]
    assert stats.depth.tolist() == [0]
    assert stats.size.tolist() == [1]
    assert stats.level_sizes == [{0: 1}]
    assert stats.vertices == [[0]]


def test_star_tree_upsilon():
    for k in (1, 2, 5, 9):
        stats = _cover([-1] + [0] * k).stats
        assert stats.depth.tolist() == [1]
        assert stats.level_sizes == [{0: 1, 1: k}]
        assert stats.upsilon[0] == pytest.approx(np.sqrt(k))


def test_chain_tree_upsilon():
    for L in (1, 2, 4, 7):
        stats = _cover([-1] + list(range(L))).stats
        assert stats.depth.tolist() == [L]
        # the deepest vertex walks past ancestors with 1, 2, ..., L
        # descendants each
        assert stats.upsilon[0] == pytest.approx(np.sqrt(L * (L + 1) / 2))


def test_forest_stats_per_tree():
    """Two trees side by side, a chain and a star, keep their own
    statistics; the cover's bars are their maxima."""
    cover = _cover([-1, 0, 1, 2, -1, 4, 4, 4, 4])
    stats = cover.stats
    assert stats.size.tolist() == [4, 5]
    assert stats.depth.tolist() == [3, 1]
    assert stats.vertices == [[0, 1, 2, 3], [4, 5, 6, 7, 8]]
    assert stats.upsilon.tolist() == [np.sqrt(6.0), 2.0]
    assert cover.upsilon_bar == np.sqrt(6.0) and cover.rho_bar == 1.0


# ---------------------------------------------------------------------------
# greedy covers

def test_cover_on_crossed_grid():
    topo = build_topology(crossed(2))
    reports, _ = classify_mesh(topo)
    cover = build_tree_cover(topo, reports, TOL)
    assert cover.complete
    assert cover.rho_bar >= 1.0
    # every interior vertex is local interpolating, hence its own root
    for r in reports:
        if not r.boundary:
            assert cover.roots[cover.tree[r.vertex]] == r.vertex
    verdict, _ = check_hypotheses(topo, reports, cover)
    assert verdict == VERDICT_THM_ALL_LOCAL


def test_cover_respects_rho_recurrence():
    topo = build_topology(perturbed_grid(4, seed=9))
    reports, _ = classify_mesh(topo)
    cover = build_tree_cover(topo, reports, TOL)
    assert cover.complete
    weights = edge_weights(topo)
    for v in np.flatnonzero(cover.parent >= 0).tolist():
        parent, e = int(cover.parent[v]), int(cover.parent_edge[v])
        Mc = weights[(e, v)]
        Mu = weights[(e, parent)]
        assert abs(Mc) > TOL.accept
        expect = max(1.0 / abs(Mc), abs(Mu / Mc) * cover.rho[parent])
        assert cover.rho[v] == pytest.approx(expect, rel=1e-12)


def test_cover_trees_are_disjoint():
    """One tree index per vertex; each vertex hangs off a vertex of its own
    tree across the interior edge that joins them, one level up, and every
    root heads its own tree."""
    topo = build_topology(perturbed_grid(4, seed=9))
    reports, _ = classify_mesh(topo)
    cover = build_tree_cover(topo, reports, TOL)
    child = np.flatnonzero(cover.parent >= 0)
    up = cover.parent[child]
    assert np.array_equal(cover.tree[up], cover.tree[child])
    assert np.array_equal(cover.depth[up] + 1, cover.depth[child])
    assert np.array_equal(np.sort(topo.edges[cover.parent_edge[child]], axis=1),
                          np.sort(np.stack([child, up], axis=1), axis=1))
    assert not topo.boundary_edge[cover.parent_edge[child]].any()
    assert np.array_equal(cover.tree[cover.roots], np.arange(len(cover.roots)))
    assert np.array_equal(np.sort(cover.order),
                          np.flatnonzero(cover.tree >= 0))


def test_type1_has_no_cover():
    topo = build_topology(type1_diagonal(3))
    reports, _ = classify_mesh(topo)
    cover = build_tree_cover(topo, reports, TOL)
    assert not cover.complete
    interior = {r.vertex for r in reports if not r.boundary}
    assert interior <= set(cover.uncovered.tolist())
    verdict, note = check_hypotheses(topo, reports, cover)
    assert verdict == VERDICT_NONE
    with pytest.raises(FieldError):
        tree_interpolant(topo, cover, np.zeros((topo.T, 3)), reports, TOL)


# ---------------------------------------------------------------------------
# the global interpolant

def _check_roundtrip(topo, cover, p, reports):
    block = tree_interpolant(topo, cover, p, reports, TOL)
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
    reports, _ = classify_mesh(topo)
    cover = build_tree_cover(topo, reports, TOL)
    assert cover.complete
    _check_roundtrip(topo, cover, admissible_target(topo, reports, rng),
                     reports)


def _forced_multihop_cover(topo, reports):
    """A hand-built cover that routes one chain of interior vertices
    (r, u, w) through a two-hop path to its root r; every other local
    interpolating vertex roots a singleton tree, and the remaining
    vertices hang off already placed neighbours across acceptable
    interior edges.  Returns the cover and the chain."""
    chain = _some_interior_path(topo, 2)
    r, u, w = chain
    weights = edge_weights(topo)
    index = edge_index(topo)
    e1 = index[(min(r, u), max(r, u))]
    e2 = index[(min(u, w), max(u, w))]
    big = Tree(root=r, parents={u: (r, e1), w: (u, e2)},
               rho_of={r: 0.0, u: 1.0, w: 1.0})
    trees_ = [big]
    assignment = {r: 0, u: 0, w: 0}
    for v in range(topo.V):
        if v not in assignment and reports[v].local_interpolating:
            trees_.append(Tree(root=v, parents={}, rho_of={v: 0.0}))
            assignment[v] = len(trees_) - 1
    # attach the remaining vertices to any already-assigned neighbour
    # across an acceptable interior edge, repeating until all are placed
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
                    trees_[ti].parents[v] = (other, e)
                    trees_[ti].rho_of[v] = 1.0 / abs(weights[(e, v)])
                    assignment[v] = ti
                    progress = True
                    break
    assert len(assignment) == topo.V
    cover = array_cover(DictCover(trees=trees_, assignment=assignment,
                                  uncovered=set()), topo.V)
    assert cover.complete and cover.depth.max() >= 2
    return cover, chain


def test_tree_interpolant_with_forced_multihop(rng):
    """The interpolant round-trips on a cover with a two-hop chain."""
    topo = build_topology(perturbed_grid(3, seed=2))
    reports, _ = classify_mesh(topo)
    cover, _ = _forced_multihop_cover(topo, reports)
    _check_roundtrip(topo, cover, admissible_target(topo, reports, rng),
                     reports)


def _count_transfers(monkeypatch):
    """The (vertex, target vertex) pairs of every edge transfer that
    ``tree_interpolant`` makes, in call order."""
    calls = []
    transfer = trees.edge_transfer

    def counted(reports, y, target, topology, tol):
        calls.extend((r.vertex, int(v)) for r, v in zip(reports, y))
        return transfer(reports, y, target, topology, tol)

    monkeypatch.setattr(trees, "edge_transfer", counted)
    return calls


def _assert_one_hop_each(topo, cover, calls):
    """One transfer per non-root vertex with a residual, to its parent,
    deepest first and by ascending vertex within a depth; every interior
    non-root vertex has a residual."""
    sent = [z for z, _ in calls]
    assert sent == sorted(set(sent), key=lambda z: (-cover.depth[z], z))
    assert all(y == cover.parent[z] for z, y in calls)
    interior = {z for z in np.flatnonzero(cover.parent >= 0).tolist()
                if not topo.boundary_vertex[z]}
    assert interior <= set(sent)
    return sent


def test_tree_interpolant_sends_each_residual_one_hop(rng, monkeypatch):
    """The chain's middle vertex forwards its own residual together with
    the spill of its child in a single transfer."""
    topo = build_topology(perturbed_grid(3, seed=2))
    reports, _ = classify_mesh(topo)
    cover, (r, u, w) = _forced_multihop_cover(topo, reports)
    calls = _count_transfers(monkeypatch)
    _check_roundtrip(topo, cover, admissible_target(topo, reports, rng),
                     reports)
    sent = _assert_one_hop_each(topo, cover, calls)
    assert sent.index(w) < sent.index(u)
    assert (u, r) in calls and (w, u) in calls


@pytest.mark.parametrize("name", sorted(MIXED))
def test_tree_interpolant_on_multihop_greedy_covers(name, rng, monkeypatch):
    """On a greedy cover whose NotLI vertices sit three or more edges from
    their roots: the verdict is the cover's, the arrays match the dict
    oracle, each residual goes one hop at a time, the field round-trips,
    and it equals the path oracle's to roundoff (not bit for bit: a
    residual that crosses a vertex now reaches it as a spill, and is sent
    on together with that vertex's own)."""
    topo = build_topology(type1_with_crossed(*MIXED[name]))
    cover = assert_cover_matches_oracle(topo)
    reports, _ = classify_mesh(topo)
    assert any(r.status == NOT_LI for r in reports)
    verdict, _ = check_hypotheses(topo, reports, cover)
    assert verdict == VERDICT_COVER and cover.depth.max() >= 3
    p = admissible_target(topo, reports, rng)
    calls = _count_transfers(monkeypatch)
    _check_roundtrip(topo, cover, p, reports)
    _assert_one_hop_each(topo, cover, calls)
    got = dense(tree_interpolant(topo, cover, p, reports, TOL))[0]
    want = _path_tree_interpolant(topo, dict_cover(topo, reports), p, reports)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def _path_tree_interpolant(topo, dcover, p, reports):
    """The interpolant that sent each residual along its whole root path
    with ``path_interpolant``, tree by tree: the oracle of the one-hop
    ``tree_interpolant``."""
    pscale = max(float(np.abs(p).max()), 1e-30)
    acc = np.zeros((topo.T, 2, 10))

    def residual(z):
        patch = fan(topo, z)
        return p[patch.tris, patch.slots] - center_divergences(topo, acc, z)

    def add(block):
        acc[block.tri] += block.coeffs

    for z in np.flatnonzero(topo.boundary_vertex).tolist():
        a = residual(z)
        if np.abs(a).max() > 1e-13 * pscale:
            add(boundary_interpolant([reports[z]], a[None, None], topo)[0])
    for tree in dcover.trees:
        for z in sorted(tree.parents):
            a = residual(z)
            if np.abs(a).max() > 1e-13 * pscale:
                add(path_interpolant(topo, tree.path_to_root(z), a,
                                     TOL).field)
        a = residual(tree.root)
        if np.abs(a).max() > 1e-13 * pscale:
            add(local_interpolant([reports[tree.root]], a[None, None],
                                  topo)[0])
    return acc


@pytest.mark.parametrize("mesh", [lambda: crossed(2), lambda: crossed(8),
                                  lambda: perturbed_grid(3, seed=1),
                                  lambda: perturbed_grid(3, seed=2),
                                  lambda: perturbed_grid(8, seed=5)],
                         ids=["crossed-2", "crossed-8", "perturbed-3-s1",
                              "perturbed-3-s2", "perturbed-8-s5"])
def test_tree_interpolant_equals_the_path_interpolant_oracle(mesh, rng):
    """On the greedy covers the one-hop interpolant gives the path
    oracle's coefficients bit for bit."""
    topo = build_topology(mesh())
    reports, _ = classify_mesh(topo)
    cover = build_tree_cover(topo, reports, TOL)
    assert cover.complete
    p = admissible_target(topo, reports, rng)
    got = dense(tree_interpolant(topo, cover, p, reports, TOL))[0]
    want = _path_tree_interpolant(topo, dict_cover(topo, reports), p, reports)
    assert np.array_equal(got, want)
