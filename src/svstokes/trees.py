"""Acceptable paths, transfer trees, disjoint covers, and the global
vertex-divergence interpolant built from them."""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import poly
from .classify import Tolerances
from .fields import (FieldBlock, FieldError, boundary_interpolant,
                     center_divergences, edge_transfer, field_block,
                     local_interpolant)
from .mesh import MeshError, MeshTopology


def _side_ends(topology: MeshTopology, side):
    """The vertices at the two ends of the sides with flat indices
    ``side`` (3 t + s): column 0 at vertex slot s, column 1 at s + 1, and
    the edge weights there: at each end, the sum of the cotangents of the
    angles at that vertex in the side's triangle and in its twin's."""
    t, s = np.divmod(side, 3)
    u, k = np.divmod(topology.twin.ravel()[side], 3)
    # the twin runs back: its slot k + 1 is slot s of t, its slot k is s + 1
    ends = topology.mesh.triangles[t[:, None], (s[:, None] + [0, 1]) % 3]
    cot = topology.cot
    weight = np.stack([cot[t, s] + cot[u, (k + 1) % 3],
                       cot[t, (s + 1) % 3] + cot[u, k]], axis=1)
    return ends, weight


@dataclass(frozen=True)
class Path:
    vertices: tuple
    edges: tuple          # interior edge indices
    M_fwd: np.ndarray     # weight of edge i at its near endpoint y_{i-1}
    M_bwd: np.ndarray     # weight of edge i at its far endpoint y_i
    rho_tilde: np.ndarray  # amplification prefix, entry j for vertex y_j
    rho: np.ndarray        # per-vertex transfer factor, entry j for y_{j+1}
    acceptable: bool

    @property
    def rho_P(self) -> float:
        return float(np.abs(self.rho).max())


def path_stats(topology: MeshTopology, vertices,
               tol: Tolerances = Tolerances()) -> Path:
    verts = [int(v) for v in vertices]
    if len(verts) < 2:
        raise MeshError("a path needs at least two vertices")
    if len(set(verts)) != len(verts):
        raise MeshError("path vertices must be distinct")
    # the edges are sorted pairs in lexicographic order, so their keys
    # a V + b ascend
    V = topology.V
    keys = topology.edges @ [V, 1]
    a, b = np.array(verts[:-1]), np.array(verts[1:])
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    hop = lo * V + hi
    edges = np.minimum(np.searchsorted(keys, hop), len(keys) - 1)
    bad = ((lo < 0) | (hi >= V) | (keys[edges] != hop)
           | topology.boundary_edge[edges])
    if bad.any():
        j = int(np.argmax(bad))
        raise MeshError(f"({a[j]}, {b[j]}) is not an interior mesh edge")
    edges = edges.tolist()
    ends, weight = _side_ends(topology, topology.mesh.sides.first[edges])
    forward = (ends[:, 0] == verts[:-1])[:, None]
    M_fwd, M_bwd = np.where(forward, weight, weight[:, ::-1]).T
    acceptable = bool(np.all(np.abs(M_fwd) > tol.accept))
    L = len(edges)
    rho_tilde = np.ones(L)        # entry j: product over the first j edges
    for j in range(1, L):
        rho_tilde[j] = rho_tilde[j - 1] * M_bwd[j - 1] / M_fwd[j - 1]
    rho = rho_tilde / M_fwd
    return Path(vertices=tuple(verts), edges=tuple(edges), M_fwd=M_fwd,
                M_bwd=M_bwd, rho_tilde=rho_tilde, rho=rho,
                acceptable=acceptable)


@dataclass(frozen=True)
class TreeStats:
    """Per-tree statistics of a cover, entry i for tree i; the fields are
    the per-tree entries of the ``analyze`` report."""
    rho: np.ndarray       # (R,) max transfer factor; 1 for a singleton tree
    upsilon: np.ndarray   # (R,) sqrt of the max, over the tree's vertices,
                          # of the descendant counts summed over the
                          # vertex's strict ancestors
    depth: np.ndarray     # (R,) max vertex depth
    size: np.ndarray      # (R,) number of vertices
    level_sizes: list     # per tree, {depth: number of vertices}
    vertices: list        # per tree, its vertices in ascending order


@dataclass(frozen=True)
class TreeCover:
    """Disjoint transfer trees as read-only arrays: per vertex (V,), the
    tree, the parent, the interior edge to the parent, the transfer factor
    of the root path and the depth; per tree (R,), the root; and the
    covered vertices in the order they joined, roots first."""
    roots: np.ndarray        # (R,) root vertex of each tree
    tree: np.ndarray         # (V,) tree index, -1 when uncovered
    parent: np.ndarray       # (V,) parent vertex, -1 at roots and uncovered
    parent_edge: np.ndarray  # (V,) edge to the parent, -1 likewise
    rho: np.ndarray          # (V,) transfer factor; 0 at roots and uncovered
    depth: np.ndarray        # (V,) edges to the root, -1 when uncovered
    order: np.ndarray        # covered vertices in join order

    @property
    def complete(self):
        return bool((self.tree >= 0).all())

    @property
    def uncovered(self):
        return np.flatnonzero(self.tree < 0)

    @cached_property
    def stats(self) -> TreeStats:
        R = len(self.roots)
        order = self.order
        tree = self.tree[order]
        rho = np.ones(R)
        np.maximum.at(rho, tree, self.rho[order])
        depth = np.zeros(R, dtype=np.int64)
        np.maximum.at(depth, tree, self.depth[order])
        size = np.bincount(tree, minlength=R)
        # a child joins after its parent: descendant counts accumulate in
        # reverse join order, ancestor sums in join order
        parent = self.parent.tolist()
        grown = order[R:].tolist()
        ndesc = [0] * len(parent)
        for v in reversed(grown):
            ndesc[parent[v]] += 1 + ndesc[v]
        above = [0] * len(parent)
        for v in grown:
            above[v] = above[parent[v]] + ndesc[parent[v]]
        best = np.zeros(R, dtype=np.int64)
        np.maximum.at(best, tree, np.asarray(above)[order])
        # vertices by tree, ascending within each; levels by (tree, depth)
        covered = np.flatnonzero(self.tree >= 0)
        covered = covered[np.argsort(self.tree[covered], kind="stable")]
        vertices = np.split(covered, np.cumsum(size))[:-1]
        levels = int(depth.max(initial=0)) + 1
        key, count = np.unique(self.tree[covered] * levels
                               + self.depth[covered], return_counts=True)
        level_sizes = [{} for _ in range(R)]
        for k, n in zip(key.tolist(), count.tolist()):
            level_sizes[k // levels][k % levels] = n
        return TreeStats(rho=rho, upsilon=np.sqrt(best), depth=depth,
                         size=size, level_sizes=level_sizes,
                         vertices=[v.tolist() for v in vertices])

    @property
    def rho_bar(self) -> float:
        return float(self.stats.rho.max(initial=0.0))

    @property
    def upsilon_bar(self) -> float:
        return float(self.stats.upsilon.max(initial=0.0))


def build_tree_cover(topology: MeshTopology, reports,
                     tol: Tolerances = Tolerances()) -> TreeCover:
    """Greedy multi-source growth of disjoint transfer trees.

    Every local interpolating vertex seeds a tree.  Frontier edges are
    expanded in order of the transfer amplification they would give the
    new vertex, breaking ties by lower root index.  A vertex joins at
    most one tree; vertices with no acceptable route to any root are
    reported as uncovered.  Expansion checks the edge weight at the new
    vertex, since that is the endpoint the transfer starts from.
    """
    V = topology.V
    interior = np.flatnonzero(~topology.boundary_edge)
    ends, weight = _side_ends(topology, topology.mesh.sides.first[interior])
    # each interior edge from both ends, from its tail to its head, kept
    # when acceptable at the head; grouped by tail, in edge order
    tail, head = ends.ravel(), ends[:, ::-1].ravel()
    M_tail, M_head = weight.ravel(), weight[:, ::-1].ravel()
    edge = np.repeat(interior, 2)
    keep = np.flatnonzero(np.abs(M_head) > tol.accept)
    keep = keep[np.lexsort((edge[keep], tail[keep]))]
    start = np.searchsorted(tail[keep], np.arange(V + 1)).tolist()
    nbr, edge = head[keep].tolist(), edge[keep].tolist()
    inv = (1.0 / np.abs(M_head[keep])).tolist()
    ratio = np.abs(M_tail[keep] / M_head[keep]).tolist()

    roots = [r.vertex for r in reports if r.local_interpolating]
    tree, parent, parent_edge = [-1] * V, [-1] * V, [-1] * V
    rho, depth = [0.0] * V, [-1] * V
    for i, r in enumerate(roots):
        tree[r], depth[r] = i, 0
    order = list(roots)
    heap = []
    counter = 0

    def push_frontier(u, ti):
        nonlocal counter
        root, rho_u = roots[ti], rho[u]
        for j in range(start[u], start[u + 1]):
            if tree[nbr[j]] >= 0:
                continue
            counter += 1
            heapq.heappush(heap, (max(inv[j], ratio[j] * rho_u), root,
                                  counter, nbr[j], u, edge[j], ti))

    for i, r in enumerate(roots):
        push_frontier(r, i)
    while heap:
        rho_c, _, _, c, u, e, ti = heapq.heappop(heap)
        if tree[c] >= 0:
            continue
        tree[c], parent[c], parent_edge[c] = ti, u, e
        rho[c], depth[c] = rho_c, depth[u] + 1
        order.append(c)
        push_frontier(c, ti)

    cover = TreeCover(roots=np.array(roots, dtype=np.int64),
                      tree=np.array(tree), parent=np.array(parent),
                      parent_edge=np.array(parent_edge), rho=np.array(rho),
                      depth=np.array(depth),
                      order=np.array(order, dtype=np.int64))
    for a in vars(cover).values():
        a.setflags(write=False)
    return cover


VERDICT_THM_ALL_LOCAL = "all-interior-local"      # every interior vertex in L_h
VERDICT_COVER = "complete-disjoint-cover"          # full tree cover exists
VERDICT_NONE = "none"


def check_hypotheses(topology: MeshTopology, reports, cover: TreeCover):
    """Strongest applicable stability hypothesis, plus a narrative."""
    interior_ok = all(r.local_interpolating for r in reports if not r.boundary)
    if interior_ok:
        return VERDICT_THM_ALL_LOCAL, ("every interior vertex is local "
                                       "interpolating; patch-local interpolation "
                                       "suffices")
    if cover.complete:
        return VERDICT_COVER, (
            f"{len(cover.roots)} disjoint transfer trees cover all vertices "
            f"(rho_bar={cover.rho_bar:.3g}, upsilon_bar={cover.upsilon_bar:.3g})")
    missing = cover.uncovered.tolist()
    return VERDICT_NONE, (
        f"{len(missing)} vertices have no acceptable route to any local "
        f"interpolating vertex (e.g. {missing[:8]})")


def tree_interpolant(topology: MeshTopology, cover: TreeCover, p, reports,
                     dcoefficients, tol: Tolerances = Tolerances()) -> FieldBlock:
    """Global field whose divergence matches p at every vertex of every
    triangle, with zero divergence mean on every triangle.

    ``p`` is a (T, 3) array of per-triangle vertex values (slot-aligned
    with the triangle's vertex list), and ``reports`` and
    ``dcoefficients`` the vertex reports and d-coefficients of
    ``classify_mesh``.  Boundary vertices are matched first; the residuals
    are then sent up the cover's trees one edge transfer at a time and
    resolved at the roots.  The field is accumulated densely, (T, 2, 10), and
    returned as a block of one field.
    """
    if not cover.complete:
        raise FieldError("tree cover is incomplete; cannot interpolate")
    p = np.asarray(p, dtype=float)
    if p.shape != (topology.T, 3):
        raise FieldError(f"expected ({topology.T}, 3) vertex values")
    pscale = max(float(np.abs(p).max()), 1e-30)
    acc = np.zeros((topology.T, 2, len(poly.MONO3)))
    fans = topology.fans

    def residual(z):
        corners = fans.corners(z)
        return (p[fans.tri[corners], fans.slot[corners]]
                - center_divergences(topology, acc, z))

    def add(block):
        acc[block.tri] += block.coeffs

    # boundary pass
    boundary = [z for z in range(topology.V) if topology.boundary_vertex[z]]
    for z in boundary:
        a = residual(z)
        if np.abs(a).max() <= 1e-13 * pscale:
            continue
        add(boundary_interpolant(reports[z], a, topology)[0])
    for z in boundary:
        a = residual(z)
        if np.abs(a).max() > 1e-9 * pscale:
            raise FieldError(
                f"boundary pass left residual {np.abs(a).max():.3e} at vertex "
                f"{z} (pollution cycle between boundary vertices)")

    # up the trees: each vertex's residual, with the spills of its
    # children, goes one hop to its parent; deepest first, then the roots
    for z in np.argsort(-cover.depth, kind="stable").tolist():
        a = residual(z)
        if np.abs(a).max() <= 1e-13 * pscale:
            continue
        if cover.parent[z] >= 0:
            add(edge_transfer(topology, z, int(cover.parent[z]), a, tol)[0])
        else:
            add(local_interpolant(reports[z], a, topology, dcoefficients[z]))
    return field_block(topology, acc)
