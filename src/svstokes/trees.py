"""Acceptable paths, transfer trees, disjoint covers, and the global
vertex-divergence interpolant built from them."""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from . import poly
from .classify import Tolerances
from .fields import (FieldBlock, FieldError, boundary_interpolant,
                     center_divergences, field_block, local_interpolant,
                     path_interpolant)
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


def edge_weights(topology: MeshTopology):
    """Map (interior edge index, endpoint vertex) -> cot-sum weight."""
    # each interior edge once, by its side in the lower triangle
    twin = topology.twin.ravel()
    side = np.flatnonzero(twin > np.arange(len(twin)))
    ends, weight = _side_ends(topology, side)
    edge = np.repeat(topology.tri_edges.ravel()[side], 2)
    return dict(zip(zip(edge.tolist(), ends.ravel().tolist()),
                    weight.ravel().tolist()))


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
    edges = []
    for a, b in zip(verts[:-1], verts[1:]):
        e = topology.edge_index.get((min(a, b), max(a, b)))
        if e is None or topology.boundary_edge[e]:
            raise MeshError(f"({a}, {b}) is not an interior mesh edge")
        edges.append(e)
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
        """Max transfer amplification; 1 for a singleton tree."""
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
class TreeCover:
    trees: list
    assignment: dict              # vertex -> tree index
    uncovered: set

    @property
    def complete(self):
        return not self.uncovered

    @property
    def rho_bar(self):
        return max((t.rho for t in self.trees), default=0.0)

    @property
    def upsilon_bar(self):
        return max((t.upsilon for t in self.trees), default=0.0)


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
    weights = edge_weights(topology)
    neighbors = {}
    interior = np.flatnonzero(~topology.boundary_edge)
    for e, (a, b) in zip(interior.tolist(), topology.edges[interior].tolist()):
        neighbors.setdefault(a, []).append((b, e))
        neighbors.setdefault(b, []).append((a, e))

    roots = [r.vertex for r in reports if r.local_interpolating]
    trees = [Tree(root=r, parents={}, rho_of={r: 0.0}) for r in roots]
    assignment = {r: i for i, r in enumerate(roots)}

    heap = []
    counter = 0

    def push_frontier(u, tree_idx):
        root = trees[tree_idx].root
        for (c, e) in neighbors.get(u, []):
            if c in assignment:
                continue
            Mc = weights[(e, c)]
            if abs(Mc) <= tol.accept:
                continue
            Mu = weights[(e, u)]
            rho_u = trees[tree_idx].rho_of[u]
            rho_c = max(1.0 / abs(Mc), abs(Mu / Mc) * rho_u)
            nonlocal counter
            counter += 1
            heapq.heappush(heap, (rho_c, root, counter, c, u, e, tree_idx))

    for i, r in enumerate(roots):
        push_frontier(r, i)
    while heap:
        rho_c, _, _, c, u, e, ti = heapq.heappop(heap)
        if c in assignment:
            continue
        trees[ti].parents[c] = (u, e)
        trees[ti].rho_of[c] = rho_c
        assignment[c] = ti
        push_frontier(c, ti)

    uncovered = set(range(topology.V)) - set(assignment)
    return TreeCover(trees=trees, assignment=assignment, uncovered=uncovered)


def tree_stats(tree: Tree):
    sizes = {}
    for z in tree.vertices:
        d = tree.depth_of(z)
        sizes[d] = sizes.get(d, 0) + 1
    return {"rho": tree.rho, "upsilon": tree.upsilon,
            "depth": tree.depth, "level_sizes": sizes,
            "size": len(tree.vertices)}


VERDICT_THM_ALL_LOCAL = "all-interior-local"      # every interior vertex in L_h
VERDICT_COVER = "complete-disjoint-cover"          # full tree cover exists
VERDICT_REACHABLE = "reachable-only"               # paths exist, no cover built
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
            f"{len(cover.trees)} disjoint transfer trees cover all vertices "
            f"(rho_bar={cover.rho_bar:.3g}, upsilon_bar={cover.upsilon_bar:.3g})")
    # Reachability without disjointness: greedy growth already explores every
    # acceptable edge, so an uncovered vertex has no acceptable path either.
    reachable = set(cover.assignment)
    if len(reachable) == topology.V:
        return VERDICT_REACHABLE, "all vertices reachable but cover incomplete"
    missing = sorted(cover.uncovered)
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
    ``classify_mesh``.  Boundary vertices are matched first; interior
    residuals are then transferred along the cover's trees to their roots
    and resolved there.  The field is accumulated densely, (T, 2, 10), and
    returned as a block of one field.
    """
    if not cover.complete:
        raise FieldError("tree cover is incomplete; cannot interpolate")
    p = np.asarray(p, dtype=float)
    if p.shape != (topology.T, 3):
        raise FieldError(f"expected ({topology.T}, 3) vertex values")
    pscale = max(float(np.abs(p).max()), 1e-30)
    acc = np.zeros((topology.T, 2, len(poly.MONO3)))

    def residual(patch):
        return (p[patch.tris, patch.slots]
                - center_divergences(topology, acc, patch))

    def add(block):
        acc[block.tri] += block.coeffs

    # boundary pass
    boundary = [z for z in range(topology.V) if topology.boundary_vertex[z]]
    for z in boundary:
        patch = topology.patches[z]
        a = residual(patch)
        if np.abs(a).max() <= 1e-13 * pscale:
            continue
        add(boundary_interpolant(patch, a, topology, reports[z])[0])
    for z in boundary:
        a = residual(topology.patches[z])
        if np.abs(a).max() > 1e-9 * pscale:
            raise FieldError(
                f"boundary pass left residual {np.abs(a).max():.3e} at vertex "
                f"{z} (pollution cycle between boundary vertices)")

    # interior transfers, tree by tree
    for tree in cover.trees:
        for z in sorted(tree.parents):
            a = residual(topology.patches[z])
            if np.abs(a).max() <= 1e-13 * pscale:
                continue
            add(path_interpolant(topology, tree.path_to_root(z), a,
                                 tol).field)
        r = tree.root
        patch = topology.patches[r]
        a = residual(patch)
        if np.abs(a).max() > 1e-13 * pscale:
            add(local_interpolant(patch, a, topology, reports[r],
                                  dcoefficients[r]))
    return field_block(topology, acc)
