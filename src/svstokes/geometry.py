"""Per-triangle geometric primitives and edge-pair angle data."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import MeshError, MeshTopology


@dataclass(frozen=True)
class TriangleGeom:
    """Angles, edge data, and hat-function geometry of one triangle.

    Slot conventions: vertex slot s has the opposite edge also in slot s
    (``edge_lengths[s]`` is the edge not containing vertex s, etc.).
    """

    points: np.ndarray        # (3, 2)
    area: float
    angles: np.ndarray        # (3,) interior angle at each vertex
    cotangents: np.ndarray    # (3,)
    edge_lengths: np.ndarray  # (3,) length of the edge opposite each vertex
    normals: np.ndarray       # (3, 2) outward unit normal of the opposite edge
    heights: np.ndarray       # (3,) distance from each vertex to its opposite edge


def triangle_geometry(p0, p1, p2) -> TriangleGeom:
    """Compute all TriangleGeom fields for one non-degenerate triangle."""
    pts = np.array([p0, p1, p2], dtype=float)
    # edge opposite vertex s runs from pts[s+1] to pts[s+2]
    edge_vec = np.array([pts[(s + 2) % 3] - pts[(s + 1) % 3] for s in range(3)])
    lengths = np.hypot(edge_vec[:, 0], edge_vec[:, 1])
    u, v = pts[1] - pts[0], pts[2] - pts[0]
    cross = float(u[0] * v[1] - u[1] * v[0])
    area = 0.5 * abs(cross)
    diam = lengths.max()
    if area < 1e-14 * diam * diam:
        raise MeshError("degenerate (collinear) triangle")
    angles = np.empty(3)
    for s in range(3):
        u = pts[(s + 1) % 3] - pts[s]
        v = pts[(s + 2) % 3] - pts[s]
        angles[s] = np.arctan2(abs(u[0] * v[1] - u[1] * v[0]), u @ v)
    cotangents = np.cos(angles) / np.sin(angles)
    heights = 2.0 * area / lengths
    normals = np.empty((3, 2))
    for s in range(3):
        d = edge_vec[s]
        n = np.array([d[1], -d[0]]) / lengths[s]
        if n @ (pts[s] - pts[(s + 1) % 3]) > 0:
            n = -n
        normals[s] = n
    return TriangleGeom(points=pts, area=area, angles=angles,
                        cotangents=cotangents, edge_lengths=lengths,
                        normals=normals, heights=heights)


def edge_pair_geometry(topology: MeshTopology, e: int, z: int):
    """Angles of the two triangles sharing interior edge e = {z, y}.

    Returns (phi_1, phi_2, theta_1, theta_2): phi_i is the angle at z in
    triangle T_i and theta_i the angle at y, where (T_1, T_2) follow the
    counter-clockwise patch order at z.
    """
    if topology.boundary_edge[e]:
        raise MeshError(f"edge {e} is a boundary edge")
    a, b = topology.edges[e]
    if z == a:
        y = int(b)
    elif z == b:
        y = int(a)
    else:
        raise MeshError(f"vertex {z} is not an endpoint of edge {e}")
    patch = topology.patches[z]
    slot = None
    for k in range(patch.n_interior_edges):
        if patch.spokes[patch.edge_spoke(k)] == y:
            slot = k
            break
    if slot is None:
        raise MeshError(f"edge {e} not found in the patch of vertex {z}")
    t1, t2 = patch.edge_tri_pair(slot)
    mesh = topology.mesh
    phis, thetas = [], []
    for t in (t1, t2):
        tri = mesh.triangles[t]
        g = triangle_geometry(*mesh.vertices[tri])
        phis.append(g.angles[int(np.where(tri == z)[0][0])])
        thetas.append(g.angles[int(np.where(tri == y)[0][0])])
    return phis[0], phis[1], thetas[0], thetas[1]
