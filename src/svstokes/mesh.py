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
        are silently reoriented to counter-clockwise.  ``sides`` holds
        the side table of the reoriented triangles.
    """

    def __init__(self, vertices, triangles):
        v = np.asarray(vertices, dtype=float)
        t = np.array(triangles, dtype=np.int64)
        if v.ndim != 2 or v.shape[1] != 2:
            raise MeshError("vertices must be an (V, 2) array")
        if t.ndim != 2 or t.shape[1] != 3:
            raise MeshError("triangles must be a (T, 3) array")
        if t.size and (t.min() < 0 or t.max() >= len(v)):
            raise MeshError("triangle vertex index out of range")
        if not np.isfinite(v).all():
            raise MeshError("vertex coordinates must be finite")
        diam = float(np.hypot(*np.ptp(v, axis=0))) if len(v) > 1 else 0.0
        key = np.sort(t, axis=1)
        _, first, inverse = np.unique(key, axis=0, return_index=True,
                                      return_inverse=True)
        area = signed_area(*v[t].transpose(1, 0, 2))
        # per triangle, the three checks in the order they are reported
        bad = np.stack([
            (key[:, 0] == key[:, 1]) | (key[:, 1] == key[:, 2]),
            first[inverse.reshape(-1)] != np.arange(len(t)),
            np.abs(area) < DEGENERACY_RATIO * diam * diam,
        ], axis=1)
        if bad.any():
            i = int(np.argmax(bad.any(axis=1)))
            raise MeshError(("triangle {} has repeated vertices",
                             "duplicate triangle {}", "triangle {} is degenerate")
                            [int(np.argmax(bad[i]))].format(i))
        flip = area < 0
        if flip.any():
            t[flip] = t[flip][:, [0, 2, 1]]
        self.vertices = v
        self.triangles = t
        self.vertices.setflags(write=False)
        self.triangles.setflags(write=False)
        self.sides = side_table(t, len(v))
        self._validate_conformity()

    @property
    def num_vertices(self):
        return len(self.vertices)

    @property
    def num_triangles(self):
        return len(self.triangles)

    def _validate_conformity(self):
        sides = self.sides
        # Each check names the first offending edge in the order the
        # triangle sides first reach it.
        order = np.argsort(sides.first)
        count = sides.count[order]
        shared = order[count > 2]
        if len(shared):
            (a, b), n = sides.edges[shared[0]], sides.count[shared[0]]
            raise MeshError(f"edge ({a}, {b}) shared by {n} triangles")
        # T-junction check: no vertex may lie strictly inside a boundary edge
        # (projection parameter s in (0, 1), cross product at roundoff).
        boundary = order[count == 1]
        used = np.unique(self.triangles)
        r_all = self.vertices[used]
        step = max(1, (1 << 18) // max(len(used), 1))  # ~2**18 pairs a block
        for lo in range(0, len(boundary), step):
            a, b = sides.edges[boundary[lo:lo + step]].T
            pa, d = self.vertices[a], self.vertices[b] - self.vertices[a]
            L2 = (d[:, None, :] @ d[:, :, None])[:, 0]  # the BLAS dot d @ d
            r = r_all - pa[:, None]
            s = (r[..., 0] * d[:, :1] + r[..., 1] * d[:, 1:]) / L2
            cross = d[:, :1] * r[..., 1] - d[:, 1:] * r[..., 0]
            hanging = ((s > 0) & (s < 1) & (np.abs(cross) < 1e-12 * L2)
                       & (used != a[:, None]) & (used != b[:, None]))
            if hanging.any():
                j = int(np.argmax(hanging.any(axis=1)))
                w = used[np.argmax(hanging[j])]
                raise MeshError(
                    f"hanging vertex {w} on boundary edge ({a[j]}, {b[j]})")
        # Connectivity across shared edges: every triangle takes the
        # smallest label among itself and its neighbours, then its label's
        # label, until nothing changes; connected iff all labels reach 0.
        label, old = np.arange(self.num_triangles), None
        across = np.where(sides.twin >= 0, sides.twin // 3, label[:, None])
        while not np.array_equal(label, old):
            old, low = label, np.minimum(label, label[across].min(axis=1))
            label = low[low]
        if label.any():
            raise MeshError("triangulation is not edge-connected")


@dataclass(frozen=True)
class SideTable:
    """The edges of a triangulation, derived from its 3T triangle sides:
    side ``s`` of triangle ``t`` joins vertex slots ``s`` and ``s + 1`` and
    has the flat index ``3 t + s``.  All arrays are read-only."""

    edges: np.ndarray      # (E, 2) sorted vertex pairs, lexicographic order
    tri_edges: np.ndarray  # (T, 3) edge of each side
    count: np.ndarray      # (E,) number of sides on each edge
    first: np.ndarray      # (E,) flat index of the first side on each edge
    twin: np.ndarray       # (T, 3) flat index 3 u + k of the other side on
                           # the same edge, -1 unless the edge has two sides


def side_table(triangles, num_vertices) -> SideTable:
    """Derive the edges, the edge of each side, the edge multiplicities and
    the half-edge twins with one ``np.unique`` over the side keys
    ``min(a, b) V + max(a, b)``."""
    tris = np.asarray(triangles, dtype=np.int64)
    a, b = tris.ravel(), np.roll(tris, -1, axis=1).ravel()
    keys = np.minimum(a, b) * num_vertices + np.maximum(a, b)
    uniq, first, inverse, count = np.unique(
        keys, return_index=True, return_inverse=True, return_counts=True)
    # the two sides of an edge: each one is their index sum minus itself
    side = np.arange(len(keys))
    pair_sum = np.zeros(len(uniq), dtype=np.int64)
    np.add.at(pair_sum, inverse, side)
    twin = np.where(count[inverse] == 2, pair_sum[inverse] - side, -1)
    table = SideTable(
        edges=np.stack([uniq // num_vertices, uniq % num_vertices], axis=1),
        tri_edges=inverse.reshape(tris.shape), count=count, first=first,
        twin=twin.reshape(tris.shape))
    for arr in vars(table).values():
        arr.setflags(write=False)
    return table


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
    edge_index: dict             # (a, b) sorted pair -> edge index
    tri_edges: np.ndarray        # (T, 3) edge index of each triangle side,
                                 # side s joining vertex slots s and s + 1
    twin: np.ndarray             # (T, 3) side 3 u + k of the neighbour u
                                 # across each side, -1 on the boundary
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
    """Read the edges, the edge of each triangle side (``tri_edges``) and
    the half-edge twins from the mesh's side table, and derive from it the
    boundary flags and each vertex's triangles, the triangle areas and hat
    gradients (one batched computation) and the vertex patches (one
    ``enumerate_patch`` per vertex).

    Raises MeshError when a vertex has no triangles or a non-manifold
    (pinched) patch.
    """
    sides = mesh.sides
    edges = sides.edges
    boundary_edge = sides.count == 1
    boundary_vertex = np.zeros(mesh.num_vertices, dtype=bool)
    boundary_vertex[edges[boundary_edge]] = True
    # each vertex's triangles in ascending order, by one stable sort of slots
    flat = mesh.triangles.ravel()
    by_vertex = (np.argsort(flat, kind="stable") // 3).tolist()
    ends = np.cumsum(np.bincount(flat, minlength=mesh.num_vertices)).tolist()
    vertex_tris = tuple(tuple(by_vertex[lo:hi])
                        for lo, hi in zip([0] + ends[:-1], ends))
    pts = mesh.vertices[mesh.triangles]
    area = np.abs(signed_area(pts[:, 0], pts[:, 1], pts[:, 2]))
    hat_grads = hat_gradients(pts[:, 0], pts[:, 1], pts[:, 2])
    for a in (area, hat_grads):
        a.setflags(write=False)
    topo = MeshTopology(
        mesh=mesh,
        edges=edges,
        edge_index=dict(zip(map(tuple, edges.tolist()), range(len(edges)))),
        tri_edges=sides.tri_edges,
        twin=sides.twin,
        vertex_tris=vertex_tris,
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
    fan = np.asarray(incident)
    corners = mesh.triangles[fan]
    slot = np.argmax(corners == z, axis=1)
    rows = np.arange(len(fan))
    incoming = corners[rows, (slot + 1) % 3]
    outgoing = corners[rows, (slot + 2) % 3]
    by_incoming = {}
    for i, a in enumerate(incoming.tolist()):
        if a in by_incoming:
            raise MeshError(f"non-manifold patch at vertex {z}")
        by_incoming[a] = i

    outgoing_list = outgoing.tolist()
    outgoing_set = set(outgoing_list)
    starts = [i for i, a in enumerate(incoming.tolist())
              if a not in outgoing_set]
    if not starts:
        boundary = False
        start = int(np.argmin(fan))
    elif len(starts) == 1:
        boundary = True
        start = starts[0]
    else:
        raise MeshError(f"non-manifold (pinched) patch at vertex {z}")

    order = [start]
    while True:
        nxt = by_incoming.get(outgoing_list[order[-1]])
        if nxt is None or nxt == start:
            break
        if nxt in order:
            raise MeshError(f"non-manifold patch at vertex {z}")
        order.append(nxt)
    if len(order) != len(fan):
        raise MeshError(f"non-manifold (pinched) patch at vertex {z}")

    center = mesh.vertices[z]
    a_idx, b_idx = incoming[order], outgoing[order]
    spokes = np.concatenate([a_idx[:1], b_idx]) if boundary else b_idx

    pts = mesh.vertices[spokes]
    vecs = pts - center
    edge_len = np.hypot(vecs[:, 0], vecs[:, 1])
    tangents = vecs / edge_len[:, None]

    # the angle at z of each fan triangle, the outward unit normal of its
    # far edge and the distance from z to that edge, all triangles at once
    va = mesh.vertices[a_idx] - center
    vb = mesh.vertices[b_idx] - center
    # Stacked 1 x 2 by 2 x 1 products take the BLAS dot of a 1-D
    # ``va @ vb`` (which a kernel may fuse into a multiply-add), so each
    # angle is bit for bit that of its triangle computed alone.
    dots = (va[:, None, :] @ vb[:, :, None])[:, 0, 0]
    theta = np.arctan2(va[:, 0] * vb[:, 1] - va[:, 1] * vb[:, 0],
                       dots) % (2 * np.pi)
    f = mesh.vertices[b_idx] - mesh.vertices[a_idx]
    m = f[:, ::-1] * np.array([1.0, -1.0])                 # (f1, -f0)
    # m must point away from z
    m[(m * va).sum(axis=1) < 0] *= -1.0
    opp_normals = m / np.hypot(m[:, 0], m[:, 1])[:, None]
    opp_dist = (np.abs(f[:, 0] * va[:, 1] - f[:, 1] * va[:, 0])
                / np.hypot(f[:, 0], f[:, 1]))

    # for a CCW fan, the normal out of tris[k] is the CCW rotation of the
    # spoke tangent of interior edge k (it points towards tris[k+1])
    n_int = len(order) - int(boundary)
    edge_tangents = tangents[int(boundary):int(boundary) + n_int]
    normals = edge_tangents[:, ::-1] * np.array([-1.0, 1.0])

    allpts = np.vstack([pts, center[None, :]])
    diff = allpts[:, None, :] - allpts[None, :, :]
    h_z = float(np.hypot(diff[..., 0], diff[..., 1]).max())

    for a in (theta, edge_len, tangents, normals, opp_normals, opp_dist):
        a.setflags(write=False)
    return VertexPatch(
        z=z, center=center, tris=tuple(fan[order].tolist()),
        slots=tuple(slot[order].tolist()), spokes=tuple(spokes),
        boundary=boundary, theta=theta, edge_len=edge_len,
        tangents=tangents, normals=normals, opp_normals=opp_normals,
        opp_dist=opp_dist, h_z=h_z,
    )


# ---------------------------------------------------------------------------
# Generators


def _squares(n):
    """The n x n squares of the lattice whose point (i, j) has the index
    i (n + 1) + j: each as (i, j, its corners counter-clockwise from (i, j))."""
    for i in range(n):
        for j in range(n):
            v00 = i * (n + 1) + j
            yield i, j, (v00, v00 + n + 1, v00 + n + 2, v00 + 1)


def crossed(n: int, L: float = 1.0) -> Triangulation:
    """n x n squares of side L, each split by both diagonals (4 triangles)."""
    if n < 1 or L <= 0:
        raise MeshError("crossed requires n >= 1 and L > 0")
    verts = [(i * L, j * L) for i in range(n + 1) for j in range(n + 1)]
    verts += [((i + 0.5) * L, (j + 0.5) * L) for i in range(n) for j in range(n)]
    tris = []
    for i, j, (v00, v10, v11, v01) in _squares(n):
        c = (n + 1) ** 2 + i * n + j
        tris += [(v00, v10, c), (v10, v11, c), (v11, v01, c), (v01, v00, c)]
    return Triangulation(np.array(verts), np.array(tris))


def type1_diagonal(n: int, L: float = 1.0) -> Triangulation:
    """n x n squares of side L, each split by the lower-left diagonal."""
    if n < 1 or L <= 0:
        raise MeshError("type1_diagonal requires n >= 1 and L > 0")
    verts = [(i * L, j * L) for i in range(n + 1) for j in range(n + 1)]
    tris = []
    for _, _, (v00, v10, v11, v01) in _squares(n):
        tris += [(v00, v10, v11), (v00, v11, v01)]
    return Triangulation(np.array(verts), np.array(tris))


def three_lines(n: int, L: float = 1.0) -> Triangulation:
    """Equilateral mesh of a rhombus; every interior vertex is a regular
    hexagon center."""
    if n < 1 or L <= 0:
        raise MeshError("three_lines requires n >= 1 and L > 0")
    e1 = np.array([1.0, 0.0]) * L
    e2 = np.array([0.5, np.sqrt(3) / 2]) * L
    verts = [i * e1 + j * e2 for i in range(n + 1) for j in range(n + 1)]
    tris = []
    for _, _, (a, b, d, c) in _squares(n):
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
    verts = []
    for i in range(n + 1):
        for j in range(n + 1):
            x, y = i * L, j * L
            if 0 < i < n and 0 < j < n:
                x += rng.uniform(-amplitude, amplitude) * L
                y += rng.uniform(-amplitude, amplitude) * L
            verts.append((x, y))
    tris = []
    for _, _, (v00, v10, v11, v01) in _squares(n):
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
