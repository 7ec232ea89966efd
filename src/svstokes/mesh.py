"""Triangulation data model, file I/O, connectivity, vertex patches, generators."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .poly import hat_gradients, signed_area

DEGENERACY_RATIO = 1e-14


class MeshError(ValueError):
    """Invalid or non-conforming mesh data."""


class MeshFormatError(MeshError):
    """Mesh file could not be parsed."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class Triangulation:
    """A conforming 2D triangulation.

    Parameters
    ----------
    vertices : (V, 2) array of vertex coordinates.
    triangles : (T, 3) array of vertex indices.  Triangles listed clockwise
        are silently reoriented to counter-clockwise.
    """

    def __init__(self, vertices, triangles):
        v = np.asarray(vertices, dtype=float)
        t = np.asarray(triangles, dtype=np.int64)
        if v.ndim != 2 or v.shape[1] != 2:
            raise MeshError("vertices must be an (V, 2) array")
        if t.ndim != 2 or t.shape[1] != 3:
            raise MeshError("triangles must be a (T, 3) array")
        if t.size and (t.min() < 0 or t.max() >= len(v)):
            raise MeshError("triangle vertex index out of range")
        if not np.isfinite(v).all():
            raise MeshError("vertex coordinates must be finite")
        seen = set()
        diam = 0.0
        if len(v) > 1:
            lo, hi = v.min(axis=0), v.max(axis=0)
            diam = float(np.hypot(*(hi - lo)))
        for i, tri in enumerate(t):
            if len(set(tri)) != 3:
                raise MeshError(f"triangle {i} has repeated vertices")
            key = tuple(sorted(tri))
            if key in seen:
                raise MeshError(f"duplicate triangle {i}")
            seen.add(key)
            area = signed_area(v[tri[0]], v[tri[1]], v[tri[2]])
            if area < 0:
                t[i] = tri[[0, 2, 1]]
                area = -area
            if area < DEGENERACY_RATIO * diam * diam:
                raise MeshError(f"triangle {i} is degenerate")
        self.vertices = v
        self.triangles = t
        self.vertices.setflags(write=False)
        self.triangles.setflags(write=False)
        self._validate_conformity()

    @property
    def num_vertices(self):
        return len(self.vertices)

    @property
    def num_triangles(self):
        return len(self.triangles)

    def _validate_conformity(self):
        edge_count = {}
        for tri in self.triangles:
            for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
                key = (min(a, b), max(a, b))
                edge_count[key] = edge_count.get(key, 0) + 1
        for (a, b), n in edge_count.items():
            if n > 2:
                raise MeshError(f"edge ({a}, {b}) shared by {n} triangles")
        # T-junction check: no vertex may lie strictly inside a boundary edge
        # (projection parameter s in (0, 1), cross product at roundoff).
        boundary = [e for e, n in edge_count.items() if n == 1]
        used = np.unique(self.triangles)
        r_all = self.vertices[used]
        for a, b in boundary:
            pa, pb = self.vertices[a], self.vertices[b]
            d = pb - pa
            L2 = d @ d
            r = r_all - pa
            s = (r[:, 0] * d[0] + r[:, 1] * d[1]) / L2
            cross = d[0] * r[:, 1] - d[1] * r[:, 0]
            hanging = ((s > 0) & (s < 1) & (np.abs(cross) < 1e-12 * L2)
                       & (used != a) & (used != b))
            if hanging.any():
                w = used[np.argmax(hanging)]
                raise MeshError(
                    f"hanging vertex {w} on boundary edge ({a}, {b})")
        # Connectivity across shared edges.
        if self.num_triangles:
            adj = {}
            for i, tri in enumerate(self.triangles):
                for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
                    adj.setdefault((min(a, b), max(a, b)), []).append(i)
            reached = {0}
            stack = [0]
            while stack:
                i = stack.pop()
                tri = self.triangles[i]
                for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
                    for j in adj[(min(a, b), max(a, b))]:
                        if j not in reached:
                            reached.add(j)
                            stack.append(j)
            if len(reached) != self.num_triangles:
                raise MeshError("triangulation is not edge-connected")


def load_mesh(text: str) -> Triangulation:
    """Parse the plain-text mesh format.

    Format: ``vertices N`` followed by N ``x y`` lines, then
    ``triangles M`` followed by M ``i j k`` lines (0-based indices).
    ``#``-prefixed lines are comments.
    """
    tokens = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens.append((lineno, line.split()))

    pos = 0

    def take(what):
        nonlocal pos
        if pos >= len(tokens):
            raise MeshFormatError(f"unexpected end of file, expected {what}")
        item = tokens[pos]
        pos += 1
        return item

    lineno, fields = take("'vertices N'")
    if len(fields) != 2 or fields[0] != "vertices":
        raise MeshFormatError("expected 'vertices N'", lineno)
    try:
        nv = int(fields[1])
    except ValueError:
        raise MeshFormatError("vertex count is not an integer", lineno) from None
    verts = np.empty((nv, 2))
    for i in range(nv):
        lineno, fields = take("vertex coordinates")
        if len(fields) != 2:
            raise MeshFormatError("expected 'x y'", lineno)
        try:
            x, y = float(fields[0]), float(fields[1])
        except ValueError:
            raise MeshFormatError("bad coordinate", lineno) from None
        if not (math.isfinite(x) and math.isfinite(y)):
            raise MeshFormatError("coordinate is not a finite number",
                                  lineno)
        verts[i] = x, y

    lineno, fields = take("'triangles M'")
    if len(fields) != 2 or fields[0] != "triangles":
        raise MeshFormatError("expected 'triangles M'", lineno)
    try:
        nt = int(fields[1])
    except ValueError:
        raise MeshFormatError("triangle count is not an integer", lineno) from None
    tris = np.empty((nt, 3), dtype=np.int64)
    for i in range(nt):
        lineno, fields = take("triangle indices")
        if len(fields) != 3:
            raise MeshFormatError("expected 'i j k'", lineno)
        try:
            tris[i] = [int(f) for f in fields]
        except ValueError:
            raise MeshFormatError("bad vertex index", lineno) from None
        if tris[i].min() < 0 or tris[i].max() >= nv:
            raise MeshFormatError(
                f"vertex index out of range in triangle {i}", lineno)
    if pos != len(tokens):
        raise MeshFormatError("trailing content", tokens[pos][0])
    return Triangulation(verts, tris)


def dump_mesh(mesh: Triangulation) -> str:
    lines = [f"vertices {mesh.num_vertices}"]
    lines += [f"{float(x)!r} {float(y)!r}" for x, y in mesh.vertices]
    lines.append(f"triangles {mesh.num_triangles}")
    lines += [f"{i} {j} {k}" for i, j, k in mesh.triangles]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class MeshTopology:
    """Derived connectivity of a Triangulation, its per-triangle geometry
    table and its per-vertex patch table (computed once; read-only)."""

    mesh: Triangulation
    edges: np.ndarray            # (E, 2) sorted vertex pairs
    edge_tris: tuple             # per edge, tuple of incident triangle indices
    edge_index: dict             # (a, b) sorted pair -> edge index
    tri_edges: np.ndarray        # (T, 3) edge index of each triangle side,
                                 # side s joining vertex slots s and s + 1
    vertex_tris: tuple           # per vertex, tuple of incident triangles
    boundary_edge: np.ndarray    # (E,) bool
    boundary_vertex: np.ndarray  # (V,) bool
    euler_ok: bool
    area: np.ndarray             # (T,) triangle areas
    hat_grads: np.ndarray        # (T, 3, 2) barycentric gradients, row s
                                 # for the triangle's vertex slot s
    patches: tuple               # (V,) VertexPatch of each vertex

    @property
    def T(self):
        return self.mesh.num_triangles

    @property
    def E(self):
        return len(self.edges)

    @property
    def E0(self):
        return int(np.count_nonzero(~self.boundary_edge))

    @property
    def V(self):
        return self.mesh.num_vertices

    @property
    def V0(self):
        return int(np.count_nonzero(~self.boundary_vertex))

    def counts(self):
        return {"T": self.T, "E": self.E, "E0": self.E0,
                "V": self.V, "V0": self.V0}


def build_topology(mesh: Triangulation) -> MeshTopology:
    """Derive edges, boundary flags, incidence (with the edge of each
    triangle side, ``tri_edges``), the triangle areas and hat gradients
    (one batched computation) and the vertex patches (one
    ``enumerate_patch`` per vertex) from a Triangulation.

    Raises MeshError when a vertex has no triangles or a non-manifold
    (pinched) patch.
    """
    edge_index = {}
    edge_tris = []
    for i, tri in enumerate(mesh.triangles):
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            key = (min(a, b), max(a, b))
            j = edge_index.get(key)
            if j is None:
                edge_index[key] = len(edge_tris)
                edge_tris.append([i])
            else:
                if len(edge_tris[j]) >= 2:
                    raise MeshError(f"edge {key} shared by >2 triangles")
                edge_tris[j].append(i)
    edges = np.array(sorted(edge_index), dtype=np.int64).reshape(-1, 2)
    # re-key after sorting edges deterministically
    edge_index = {tuple(e): i for i, e in enumerate(edges)}
    tris_of = [None] * len(edges)
    tri_edges = np.empty((mesh.num_triangles, 3), dtype=np.int64)
    for i, tri in enumerate(mesh.triangles):
        for side, (a, b) in enumerate(
                ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0]))):
            j = edge_index[(min(a, b), max(a, b))]
            tri_edges[i, side] = j
            if tris_of[j] is None:
                tris_of[j] = []
            if i not in tris_of[j]:
                tris_of[j].append(i)
    edge_tris = tuple(tuple(ts) for ts in tris_of)
    boundary_edge = np.array([len(ts) == 1 for ts in edge_tris])
    boundary_vertex = np.zeros(mesh.num_vertices, dtype=bool)
    for (a, b), is_b in zip(edges, boundary_edge):
        if is_b:
            boundary_vertex[a] = boundary_vertex[b] = True
    vtris = [[] for _ in range(mesh.num_vertices)]
    for i, tri in enumerate(mesh.triangles):
        for v in tri:
            vtris[v].append(i)
    pts = mesh.vertices[mesh.triangles]
    area = np.abs(signed_area(pts[:, 0], pts[:, 1], pts[:, 2]))
    hat_grads = hat_gradients(pts[:, 0], pts[:, 1], pts[:, 2])
    for a in (tri_edges, area, hat_grads):
        a.setflags(write=False)
    topo = MeshTopology(
        mesh=mesh,
        edges=edges,
        edge_tris=edge_tris,
        edge_index=edge_index,
        tri_edges=tri_edges,
        vertex_tris=tuple(tuple(ts) for ts in vtris),
        boundary_edge=boundary_edge,
        boundary_vertex=boundary_vertex,
        euler_ok=(mesh.num_triangles - len(edges) + mesh.num_vertices == 1),
        area=area,
        hat_grads=hat_grads,
        patches=(),
    )
    patches = tuple(enumerate_patch(topo, z) for z in range(mesh.num_vertices))
    return replace(topo, patches=patches)


@dataclass(frozen=True)
class VertexPatch:
    """Ordered triangle fan around a vertex.

    Triangles are ordered counter-clockwise; ``tris[j]`` and ``tris[j+1]``
    are edge-adjacent.  For an interior vertex the order is cyclic and
    ``spokes[k]`` is the far endpoint of the edge shared by ``tris[k]`` and
    ``tris[(k+1) % N]``.  For a boundary vertex ``spokes`` has N+1 entries
    ``s_0 .. s_N``; triangle ``tris[j]`` has the two center edges
    ``{z, s_j}`` and ``{z, s_j+1}``, and ``s_0``, ``s_N`` lie on the
    domain boundary.
    """

    z: int
    center: np.ndarray
    tris: tuple
    slots: tuple            # slot of z in each of tris
    spokes: tuple
    boundary: bool
    theta: np.ndarray       # (N,) angle of each triangle at z
    edge_len: np.ndarray    # |z - spoke| per spoke
    tangents: np.ndarray    # unit vectors z -> spoke, per spoke
    normals: np.ndarray     # per interior edge slot, unit normal out of tris[k]
    opp_normals: np.ndarray  # (N, 2) m_j: outward unit normal of far edge of tris[j]
    opp_dist: np.ndarray     # (N,) h_j: distance from z to the far edge of tris[j]
    h_z: float               # patch diameter

    @property
    def N(self):
        return len(self.tris)

    @property
    def n_interior_edges(self):
        return self.N if not self.boundary else self.N - 1

    def edge_spoke(self, k):
        """Spoke slot of interior edge k (edge shared by tris[k], tris[k+1])."""
        return k if not self.boundary else k + 1

    def edge_tri_pair(self, k):
        return self.tris[k], self.tris[(k + 1) % self.N]

    def tri_spokes(self, j):
        """Spoke slots of the two center edges of tris[j] (CCW incoming, outgoing)."""
        if self.boundary:
            return j, j + 1
        return (j - 1) % self.N, j


def enumerate_patch(topology: MeshTopology, z: int) -> VertexPatch:
    """Order the triangles incident to z counter-clockwise.

    For an interior vertex the fan starts at the incident triangle with the
    smallest global index; for a boundary vertex it starts at the triangle
    carrying the clockwise-most boundary edge, so that the fan sweeps
    counter-clockwise and ends on the other boundary edge.

    ``build_topology`` calls this once per vertex and stores the result in
    ``topology.patches``; everything else reads the table.
    """
    mesh = topology.mesh
    incident = topology.vertex_tris[z]
    if not incident:
        raise MeshError(f"vertex {z} has no incident triangles")
    # Per triangle, the CCW (incoming, outgoing) far endpoints of the two
    # center edges: for CCW triangle (z, a, b), the angle at z sweeps a -> b.
    inout = {}
    slot_of = {}
    for t in incident:
        tri = mesh.triangles[t]
        s = int(np.where(tri == z)[0][0])
        slot_of[t] = s
        inout[t] = (tri[(s + 1) % 3], tri[(s + 2) % 3])
    by_incoming = {}
    for t, (a, b) in inout.items():
        if a in by_incoming:
            raise MeshError(f"non-manifold patch at vertex {z}")
        by_incoming[a] = t

    outgoing_set = {b for _, b in inout.values()}
    starts = [t for t, (a, b) in inout.items() if a not in outgoing_set]
    if not starts:
        boundary = False
        start = min(incident)
    elif len(starts) == 1:
        boundary = True
        start = starts[0]
    else:
        raise MeshError(f"non-manifold (pinched) patch at vertex {z}")

    order = [start]
    while True:
        nxt = by_incoming.get(inout[order[-1]][1])
        if nxt is None or nxt == start:
            break
        if nxt in order:
            raise MeshError(f"non-manifold patch at vertex {z}")
        order.append(nxt)
    if len(order) != len(incident):
        raise MeshError(f"non-manifold (pinched) patch at vertex {z}")

    center = mesh.vertices[z]
    if boundary:
        spokes = [inout[order[0]][0]] + [inout[t][1] for t in order]
    else:
        spokes = [inout[t][1] for t in order]

    pts = mesh.vertices[np.array(spokes)]
    vecs = pts - center
    edge_len = np.hypot(vecs[:, 0], vecs[:, 1])
    tangents = vecs / edge_len[:, None]

    n = len(order)
    theta = np.empty(n)
    opp_normals = np.empty((n, 2))
    opp_dist = np.empty(n)
    for j, t in enumerate(order):
        a, b = inout[t]
        va = mesh.vertices[a] - center
        vb = mesh.vertices[b] - center
        theta[j] = np.arctan2(va[0] * vb[1] - va[1] * vb[0],
                              va @ vb) % (2 * np.pi)
        f = mesh.vertices[b] - mesh.vertices[a]
        m = np.array([f[1], -f[0]])
        # m must point away from z
        if m @ (mesh.vertices[a] - center) < 0:
            m = -m
        opp_normals[j] = m / np.hypot(*m)
        fa = center - mesh.vertices[a]
        opp_dist[j] = abs(f[0] * fa[1] - f[1] * fa[0]) / np.hypot(*f)

    n_int = n if not boundary else n - 1
    normals = np.empty((n_int, 2))
    for k in range(n_int):
        s = k if not boundary else k + 1
        tvec = tangents[s]
        # for a CCW fan, the normal out of tris[k] is the CCW rotation
        # of the spoke tangent (it points towards tris[k+1])
        normals[k] = np.array([-tvec[1], tvec[0]])

    allpts = np.vstack([pts, center[None, :]])
    diff = allpts[:, None, :] - allpts[None, :, :]
    h_z = float(np.hypot(diff[..., 0], diff[..., 1]).max())

    for a in (theta, edge_len, tangents, normals, opp_normals, opp_dist):
        a.setflags(write=False)
    return VertexPatch(
        z=z, center=center, tris=tuple(order),
        slots=tuple(slot_of[t] for t in order), spokes=tuple(spokes),
        boundary=boundary, theta=theta, edge_len=edge_len,
        tangents=tangents, normals=normals, opp_normals=opp_normals,
        opp_dist=opp_dist, h_z=h_z,
    )


# ---------------------------------------------------------------------------
# Generators


def _grid_points(n, L):
    return {(i, j): (i * L, j * L) for i in range(n + 1) for j in range(n + 1)}


def crossed(n: int, L: float = 1.0) -> Triangulation:
    """n x n squares of side L, each split by both diagonals (4 triangles)."""
    if n < 1 or L <= 0:
        raise MeshError("crossed requires n >= 1 and L > 0")
    verts = []
    index = {}
    for i in range(n + 1):
        for j in range(n + 1):
            index[(i, j)] = len(verts)
            verts.append((i * L, j * L))
    centers = {}
    for i in range(n):
        for j in range(n):
            centers[(i, j)] = len(verts)
            verts.append(((i + 0.5) * L, (j + 0.5) * L))
    tris = []
    for i in range(n):
        for j in range(n):
            c = centers[(i, j)]
            v00, v10 = index[(i, j)], index[(i + 1, j)]
            v11, v01 = index[(i + 1, j + 1)], index[(i, j + 1)]
            tris += [(v00, v10, c), (v10, v11, c), (v11, v01, c), (v01, v00, c)]
    return Triangulation(np.array(verts), np.array(tris))


def type1_diagonal(n: int, L: float = 1.0) -> Triangulation:
    """n x n squares of side L, each split by the lower-left diagonal."""
    if n < 1 or L <= 0:
        raise MeshError("type1_diagonal requires n >= 1 and L > 0")
    index = {}
    verts = []
    for i in range(n + 1):
        for j in range(n + 1):
            index[(i, j)] = len(verts)
            verts.append((i * L, j * L))
    tris = []
    for i in range(n):
        for j in range(n):
            v00, v10 = index[(i, j)], index[(i + 1, j)]
            v11, v01 = index[(i + 1, j + 1)], index[(i, j + 1)]
            tris += [(v00, v10, v11), (v00, v11, v01)]
    return Triangulation(np.array(verts), np.array(tris))


def three_lines(n: int, L: float = 1.0) -> Triangulation:
    """Equilateral mesh of a rhombus; every interior vertex is a regular
    hexagon center."""
    if n < 1 or L <= 0:
        raise MeshError("three_lines requires n >= 1 and L > 0")
    e1 = np.array([1.0, 0.0]) * L
    e2 = np.array([0.5, np.sqrt(3) / 2]) * L
    index = {}
    verts = []
    for i in range(n + 1):
        for j in range(n + 1):
            index[(i, j)] = len(verts)
            verts.append(i * e1 + j * e2)
    tris = []
    for i in range(n):
        for j in range(n):
            a, b = index[(i, j)], index[(i + 1, j)]
            c, d = index[(i, j + 1)], index[(i + 1, j + 1)]
            tris += [(a, b, c), (b, d, c)]
    return Triangulation(np.array(verts), np.array(tris))


def ngon_patch(N: int, radius: float = 1.0, length_scale=None,
               angle_shift=None) -> Triangulation:
    """Single interior vertex of valence N at the origin.

    ``length_scale`` and ``angle_shift`` optionally perturb each spoke
    (sequences of length N); angles must remain strictly increasing.
    """
    if N < 3 or radius <= 0:
        raise MeshError("ngon_patch requires N >= 3 and radius > 0")
    length_scale = np.ones(N) if length_scale is None else np.asarray(length_scale, float)
    angle_shift = np.zeros(N) if angle_shift is None else np.asarray(angle_shift, float)
    if len(length_scale) != N or len(angle_shift) != N:
        raise MeshError("perturbation arrays must have length N")
    ang = 2 * np.pi * np.arange(N) / N + angle_shift
    gaps = np.diff(np.concatenate([ang, [ang[0] + 2 * np.pi]]))
    if np.any(gaps <= 0) or np.any(gaps >= np.pi):
        raise MeshError("spoke angles must be increasing with gaps < pi")
    r = radius * length_scale
    if np.any(r <= 0):
        raise MeshError("spoke lengths must be positive")
    verts = [(0.0, 0.0)] + [(r[k] * np.cos(ang[k]), r[k] * np.sin(ang[k]))
                            for k in range(N)]
    tris = [(0, 1 + k, 1 + (k + 1) % N) for k in range(N)]
    return Triangulation(np.array(verts), np.array(tris))


def perturbed_grid(n: int, seed: int = 0, amplitude: float = 0.15,
                   L: float = 1.0) -> Triangulation:
    """Square grid with random diagonal directions and jittered interior
    vertices; produces a mix of vertex valences (4..8)."""
    if n < 1 or L <= 0:
        raise MeshError("perturbed_grid requires n >= 1 and L > 0")
    if not 0 <= amplitude < 0.5:
        raise MeshError("amplitude must lie in [0, 0.5)")
    rng = np.random.default_rng(seed)
    index = {}
    verts = []
    for i in range(n + 1):
        for j in range(n + 1):
            index[(i, j)] = len(verts)
            x, y = i * L, j * L
            if 0 < i < n and 0 < j < n:
                x += rng.uniform(-amplitude, amplitude) * L
                y += rng.uniform(-amplitude, amplitude) * L
            verts.append((x, y))
    tris = []
    for i in range(n):
        for j in range(n):
            v00, v10 = index[(i, j)], index[(i + 1, j)]
            v11, v01 = index[(i + 1, j + 1)], index[(i, j + 1)]
            if rng.integers(2):
                tris += [(v00, v10, v11), (v00, v11, v01)]
            else:
                tris += [(v00, v10, v01), (v10, v11, v01)]
    try:
        return Triangulation(np.array(verts), np.array(tris))
    except MeshError as exc:
        raise MeshError(f"amplitude {amplitude} produced an invalid mesh: {exc}")


PRESETS = {
    "ngon_patch": ngon_patch,
    "three_lines": three_lines,
    "crossed": crossed,
    "type1_diagonal": type1_diagonal,
    "perturbed_grid": perturbed_grid,
}


def generate(preset: str, **params) -> Triangulation:
    """Build a mesh from one of the named families."""
    try:
        fn = PRESETS[preset]
    except KeyError:
        raise MeshError(f"unknown preset {preset!r}; "
                        f"choose from {sorted(PRESETS)}") from None
    return fn(**params)
