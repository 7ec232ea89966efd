"""Triangulation data model, file I/O, connectivity, vertex fans with the
patch coefficients and determinants of every interior fan, generators."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .geometry import triangle_geometry
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
        the side table of the reoriented triangles, ``area`` their areas.
    """

    def __init__(self, vertices, triangles):
        v = np.array(vertices, dtype=float)
        t = np.array(triangles, dtype=np.int64)
        if v.ndim != 2 or v.shape[1] != 2:
            raise MeshError("vertices must be an (V, 2) array")
        if t.ndim != 2 or t.shape[1] != 3:
            raise MeshError("triangles must be a (T, 3) array")
        if not len(t):
            raise MeshError("mesh has no triangles")
        if t.size and (t.min() < 0 or t.max() >= len(v)):
            raise MeshError("triangle vertex index out of range")
        if not np.isfinite(v).all():
            raise MeshError("vertex coordinates must be finite")
        # per triangle, the three checks in the order they are reported; a
        # duplicate's sorted key equals the one before it in a stable sort
        key, bad = np.sort(t, axis=1), np.zeros((len(t), 3), dtype=bool)
        bad[:, 0] = (key[:, 0] == key[:, 1]) | (key[:, 1] == key[:, 2])
        order = np.lexsort(key.T[::-1])
        ranked = key[order]
        bad[order[1:], 1] = (ranked[1:] == ranked[:-1]).all(axis=1)
        # Beyond about 1e154 the squares overflow, and below about 1e-162
        # the squared diameter rounds to 0: the degeneracy test and every
        # later stage would read inf or 0, so the scale itself is the error.
        with np.errstate(over="ignore", invalid="ignore"):
            diam = float(np.hypot(*np.ptp(v, axis=0))) if len(v) > 1 else 0.0
            area = signed_area(*v[t].transpose(1, 0, 2))
        if not (math.isfinite(diam * diam) and np.isfinite(area).all()):
            raise MeshError(f"length scale {diam:.3g} is out of range: the "
                            f"squared diameter or a triangle area overflows")
        if diam * diam == 0 < diam:
            raise MeshError(f"length scale {diam:.3g} is out of range: the "
                            f"squared diameter underflows")
        flip, area = area < 0, np.abs(area)
        bad[:, 2] = area <= DEGENERACY_RATIO * diam * diam
        if bad.any():
            i = int(np.argmax(bad.any(axis=1)))
            raise MeshError(("triangle {} has repeated vertices",
                             "duplicate triangle {}", "triangle {} is degenerate")
                            [int(np.argmax(bad[i]))].format(i))
        if flip.any():
            t[flip] = t[flip][:, [0, 2, 1]]
        self.vertices = v
        self.triangles = t
        self.area = area
        for arr in (v, t, area):
            arr.setflags(write=False)
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
        order = sides.first.argsort()
        count = sides.count[order]
        shared = order[count > 2]
        if len(shared):
            (a, b), n = sides.edges[shared[0]], sides.count[shared[0]]
            raise MeshError(f"edge ({a}, {b}) shared by {n} triangles")
        # Every triangle is counter-clockwise, so the two sides of an edge
        # run the same way only when both triangles lie on the same side
        # of it: they overlap.
        first = sides.first[order[count == 2]]
        other = sides.twin.ravel()[first]
        start = self.triangles.ravel()
        same = (start[first] == start[other]).nonzero()[0]
        if len(same):
            t, u = first[same[0]] // 3, other[same[0]] // 3
            a, b = sides.edges[order[count == 2][same[0]]]
            raise MeshError(
                f"triangles {t} and {u} overlap across edge ({a}, {b})")
        # T-junction check: no vertex may lie strictly inside a boundary edge
        # (projection parameter s in (0, 1), cross product at roundoff).
        boundary = order[count == 1]
        used = np.bincount(self.triangles.ravel()).nonzero()[0]
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
        while old is None or (label != old).any():
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
    the half-edge twins from one stable sort of the side keys
    ``min(a, b) V + max(a, b)``: a run of equal keys is an edge, its first
    entry the edge's first side, and a run of two holds two twins."""
    tris = np.asarray(triangles, dtype=np.int64)
    a, b = tris.ravel(), tris[:, [1, 2, 0]].ravel()
    keys = np.minimum(a, b) * num_vertices + np.maximum(a, b)
    order = keys.argsort(kind="stable")
    ranked = keys[order]
    # the start of every run and the end of the last
    new = np.concatenate([[True], ranked[1:] != ranked[:-1], [True]])
    bounds = new.nonzero()[0]
    start, count = bounds[:-1], bounds[1:] - bounds[:-1]
    tri_edges = np.empty_like(order)
    tri_edges[order] = new[:-1].cumsum() - 1
    twin = np.full(len(keys), -1)
    pair = start[count == 2]
    twin[order[pair]], twin[order[pair + 1]] = order[pair + 1], order[pair]
    uniq = ranked[start]
    table = SideTable(
        edges=np.stack([uniq // num_vertices, uniq % num_vertices], axis=1),
        tri_edges=tri_edges.reshape(tris.shape), count=count,
        first=order[start], twin=twin.reshape(tris.shape))
    for arr in vars(table).values():
        arr.setflags(write=False)
    return table


def load_mesh(text: str) -> Triangulation:
    """Parse the plain-text mesh format.

    Format: ``vertices N`` followed by N ``x y`` lines, then
    ``triangles M`` followed by M ``i j k`` lines (0-based indices).
    ``#``-prefixed lines are comments.  An error names the first offending
    line; the checks of a line run in the order field count, number, value.
    """
    # the number and the fields of every line that is not blank or a comment
    rows = [(lineno, fields) for lineno, fields
            in enumerate(map(str.split, text.splitlines()), start=1)
            if fields and fields[0][0] != "#"]
    pos = 0

    def block(header, what, item, width, convert, messages, valid):
        """The numbers of the n lines after the line ``header``, converted
        in one pass and checked by ``valid`` as one list (a line's list on
        failure); the count is checked before anything is allocated."""
        nonlocal pos
        if pos == len(rows):
            raise MeshFormatError(f"unexpected end of file, expected "
                                  f"'{header}'")
        lineno, fields = rows[pos]
        pos += 1
        if len(fields) != 2 or fields[0] != header.split()[0]:
            raise MeshFormatError(f"expected '{header}'", lineno)
        try:
            n = int(fields[1])
        except ValueError:
            raise MeshFormatError(f"{what} count is not an integer",
                                  lineno) from None
        if n < 0:
            raise MeshFormatError(f"{what} count is negative", lineno)
        if n > len(rows) - pos:
            raise MeshFormatError(
                f"unexpected end of file, expected {item}", lineno)
        lines, fields = zip(*rows[pos:pos + n]) if n else ((), ())
        pos += n
        widths = list(map(len, fields))
        stop = n if widths.count(width) == n else next(
            i for i, w in enumerate(widths) if w != width)
        error, values = messages[0], []
        try:
            values.extend(map(convert, chain.from_iterable(fields[:stop])))
        except ValueError:
            # extend keeps the numbers converted before the bad one
            stop, error = len(values) // width, messages[1]
        del values[stop * width:]
        if not valid(values):
            i = next(i for i in range(stop)
                     if not valid(values[i * width:(i + 1) * width]))
            raise MeshFormatError(messages[2].format(i), lines[i])
        if stop < n:
            raise MeshFormatError(error, lines[stop])
        return values

    coords = block("vertices N", "vertex", "vertex coordinates", 2, float,
                   ("expected 'x y'", "bad coordinate",
                    "coordinate is not a finite number"),
                   lambda x: all(map(math.isfinite, x)))
    nv = len(coords) // 2
    # the indices are compared as Python integers, before an oversized one
    # overflows int64
    index = block("triangles M", "triangle", "triangle indices", 3, int,
                  ("expected 'i j k'", "bad vertex index",
                   "vertex index out of range in triangle {}"),
                  lambda i: min(i, default=0) >= 0
                  and max(i, default=-1) < nv)
    if pos != len(rows):
        raise MeshFormatError("trailing content", rows[pos][0])
    return Triangulation(np.array(coords).reshape(-1, 2),
                         np.array(index, dtype=np.int64).reshape(-1, 3))


def dump_mesh(mesh: Triangulation) -> str:
    lines = [f"vertices {mesh.num_vertices}"]
    lines += [f"{float(x)!r} {float(y)!r}" for x, y in mesh.vertices]
    lines.append(f"triangles {mesh.num_triangles}")
    lines += [f"{i} {j} {k}" for i, j, k in mesh.triangles]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class MeshTopology:
    """Derived connectivity of a Triangulation, its per-triangle geometry
    table and its per-vertex fan table (computed once; read-only)."""

    mesh: Triangulation
    edges: np.ndarray            # (E, 2) sorted vertex pairs
    tri_edges: np.ndarray        # (T, 3) edge index of each triangle side,
                                 # side s joining vertex slots s and s + 1
    twin: np.ndarray             # (T, 3) side 3 u + k of the neighbour u
                                 # across each side, -1 on the boundary
    boundary_edge: np.ndarray    # (E,) bool
    boundary_vertex: np.ndarray  # (V,) bool
    euler_ok: bool
    area: np.ndarray             # (T,) triangle areas
    hat_grads: np.ndarray        # (T, 3, 2) barycentric gradients, row s
                                 # for the triangle's vertex slot s
    angle: np.ndarray            # (T, 3) interior angle at vertex slot s
    cot: np.ndarray              # (T, 3) its cotangent
    fans: FanTable               # the vertex fans, one CSR table

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


def build_topology(mesh: Triangulation) -> MeshTopology:
    """Read the edges, the edge of each triangle side (``tri_edges``) and
    the half-edge twins from the mesh's side table, and derive from it the
    boundary edges, the hat gradients and corner angles and cotangents (one
    batched computation each) and the vertex fans (one ``enumerate_patch``
    call), whose open fans are the boundary vertices; the triangle areas
    are the mesh's own.

    Raises MeshError when a vertex has no triangles or a non-manifold
    (pinched) patch.
    """
    sides = mesh.sides
    edges = sides.edges
    pts = mesh.vertices[mesh.triangles]
    hat_grads = hat_gradients(pts[:, 0], pts[:, 1], pts[:, 2])
    angle, cot = triangle_geometry(pts[:, 0], pts[:, 1], pts[:, 2])
    for a in (hat_grads, angle, cot):
        a.setflags(write=False)
    fans = enumerate_patch(mesh, angle, cot)
    return MeshTopology(
        mesh=mesh, edges=edges, tri_edges=sides.tri_edges, twin=sides.twin,
        boundary_edge=sides.count == 1, boundary_vertex=fans.boundary,
        euler_ok=(mesh.num_triangles - len(edges) + mesh.num_vertices == 1),
        area=mesh.area, hat_grads=hat_grads, angle=angle, cot=cot, fans=fans)


@dataclass(frozen=True)
class FanTable:
    """Every vertex's counter-clockwise triangle fan, as CSR rows of
    corners: fan z holds the corners ``offset[z] .. offset[z + 1]``.  Each
    corner also indexes the spoke after it, the edge of z shared with the
    next corner; on an interior fan the last corner shares one with the
    first, on a boundary fan the spoke after the last corner lies on the
    domain boundary and there is no next corner (the first one's other
    spoke, the other boundary edge, is the near end of its triangle).

    An interior fan also carries the patch coefficients of its vertex z,
    with y_{j+1} the far end of the spoke after corner j, theta_{j+1} the
    angle of corner j and |T_{j+1}| the area of its triangle, and index
    j - 1 cyclic:

    - ``b[j]`` = -((y_{j+1} - y_j) . e_i^perp) / 3 for the directions
      i = 1, 2 (columns), with (x, y)^perp = (-y, x);
    - ``c[j]``, the prefix sums of ``b`` (``c`` at the last corner is zero
      analytically);
    - ``d0[j]`` = cot theta_{j+1} (|e_{j+1}|^-2 - |e_j|^-2), the vertex
      divergence pattern of the normal correctors;
    - ``d[j]`` = 3 b_j / |T_{j+1}| - 12 cot theta_{j+1} (c_j / |e_{j+1}|^2
      - c_{j-1} / |e_j|^2), that of the directional correctors;
    - ``D[z]`` = [D_0, D_1, D_2], the alternating sums
      sum_j (-1)^(j+1) of ``d0`` and of the columns of ``d``, which certify
      an even-valence interior vertex.

    ``h_z[z]`` is the diameter of the interior patch of z.  They are all
    NaN on a boundary fan, where no decision reads them, as are
    ``pair_sin`` and ``weight`` at its last corner.  All arrays are
    read-only."""

    offset: np.ndarray        # (V + 1,) corner offsets
    degree: np.ndarray        # (V,) corners of each fan, its valence N
    center: np.ndarray        # (3T,) the vertex whose fan holds each corner
    position: np.ndarray      # (3T,) the place of each corner in its fan
    tri: np.ndarray           # (3T,) triangle of each fan corner
    slot: np.ndarray          # (3T,) slot of the center in it
    theta: np.ndarray         # (3T,) angle at the center
    boundary: np.ndarray      # (V,) bool, the fan is open
    far: np.ndarray           # (3T,) far end of the spoke after each corner
    vec: np.ndarray           # (3T, 2) that spoke, far - center
    edge_len: np.ndarray      # (3T,) its length
    tangent: np.ndarray       # (3T, 2) its unit vector
    normal: np.ndarray        # (3T, 2) the tangent's counter-clockwise rotation
    pair_sin: np.ndarray      # (3T,) sin(theta_j + theta_next) at the spoke
    weight: np.ndarray        # (3T,) edge weight M_e^z = cot_j + cot_next
    h_z: np.ndarray           # (V,) patch diameter of an interior fan
    b: np.ndarray             # (3T, 2) patch coefficients b_j, columns i = 1, 2
    c: np.ndarray             # (3T, 2) their prefix sums c_j
    d0: np.ndarray            # (3T,) normal corrector pattern d_{0,j}
    d: np.ndarray             # (3T, 2) directional corrector patterns d_j
    D: np.ndarray             # (V, 3) determinants [D_0, D_1, D_2]

    def corners(self, z: int) -> slice:
        """The corners of fan z, in fan order."""
        return slice(self.offset[z], self.offset[z + 1])


def enumerate_patch(mesh: Triangulation, angle, cot) -> FanTable:
    """Order every vertex's triangles counter-clockwise, all fans at once,
    with the corner angles ``angle`` (T, 3), and derive the spoke after
    every corner, with its angle-pair sine and edge weight, and the patch
    coefficients of every interior fan from the corner cotangents ``cot``
    (T, 3) and the mesh's triangle areas (``build_topology`` makes this one
    call).  The corner of z after corner ``3 t + s`` is
    ``twin[t, (s + 2) % 3]``, across the side ending at z.  An interior
    fan starts at its triangle with the smallest index, a boundary fan at
    the corner whose side ``s`` has no twin, so that it ends on the other
    boundary edge.  Every fan takes its k-th step at once.  Raises
    MeshError for the first vertex with no triangles or a pinched patch
    (``Triangulation`` has already rejected overlapping triangles)."""
    V, tris = mesh.num_vertices, mesh.triangles
    vertex = tris.ravel()                  # the start of each side
    twin, n = mesh.sides.twin.ravel(), len(vertex)
    corner = np.arange(n)
    deg = np.bincount(vertex, minlength=V)
    offset = np.concatenate([[0], deg.cumsum()])
    opened = (twin < 0).nonzero()[0]            # side s leaves the fan open
    open_at = vertex[opened]
    n_open = np.bincount(open_at, minlength=V)
    start = np.full(V, n)
    np.minimum.at(start, vertex, corner)
    start[open_at] = opened
    nxt = mesh.sides.twin[:, [2, 0, 1]].ravel()
    # every fan's walk, one column, one row a step, to the largest valence
    z = deg.nonzero()[0]
    walk = np.empty((int(deg.max(initial=1)), len(z)), dtype=np.int64)
    walk[0] = start[z]
    for k in range(1, len(walk)):
        walk[k] = nxt[walk[k - 1]]
    inside = np.arange(len(walk))[:, None] < deg[z]
    # a fan that opens or closes before its last corner is one of two
    bad = (deg == 0) | (n_open > 1)
    bad[z] |= (inside[1:] & ((walk[1:] < 0) | (walk[1:] == walk[0]))).any(0)
    if bad.any():
        z = int(np.argmax(bad))
        raise MeshError(("non-manifold (pinched) patch at vertex {}"
                         if deg[z] else "vertex {} has no incident triangles")
                        .format(z))
    order = walk.T[inside.T]
    boundary = n_open > 0
    center = np.arange(V).repeat(deg)
    first = offset[center]
    position = corner - first
    tri, slot = np.divmod(order, 3)
    far = tris[tri, (slot + 2) % 3]
    y = mesh.vertices[far]                              # y_{j+1}
    vec = y - mesh.vertices[center]
    edge_len = np.hypot(vec[:, 0], vec[:, 1])
    tangent = vec / edge_len[:, None]
    theta, corner_cot = angle.ravel()[order], cot.ravel()[order]
    # the next corner, cyclic; the last corner of a boundary fan has none
    last = position == deg[center] - 1
    succ = np.where(last, first, corner + 1)
    fan_open = boundary[center]
    open_end = last & fan_open
    pair_sin = np.where(open_end, np.nan, np.sin(theta + theta[succ]))
    weight = np.where(open_end, np.nan, corner_cot + corner_cot[succ])
    # The patch coefficients run over every corner, prev the one before it
    # in its fan (cyclic), and are NaN on a boundary fan.  Elementwise
    # operations only, no BLAS dot, whose rounding depends on the kernel:
    # the NotLI decision values are roundoff, and ties between equal |D_i|
    # must not move.
    prev = succ.argsort()                       # succ is a permutation
    # |e_{j+1}|^2 by libm pow, as the scalar ``edge_len ** 2`` of the
    # formula rounds it; the product edge_len * edge_len differs from it in
    # the last bit about once in a thousand
    elen2 = np.float_power(edge_len, 2)
    # -(dy . e_i^perp) is -dy_y for i = 1 and dy_x for i = 2
    b = (y - y[prev])[:, ::-1] * np.array([-1.0, 1.0]) / 3.0
    b[fan_open] = np.nan
    # Near the bottom of the double range elen2 underflows and its inverse
    # overflows: d0 is then not finite, and so is the decision that reads
    # it (classify_mesh rejects the mesh)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        inv = 1.0 / elen2
        d0 = corner_cot * (inv - inv[prev])
    d0[fan_open] = np.nan
    c = np.full((n, 2), np.nan)
    D, h_z = np.full((V, 3), np.nan), np.full(V, np.nan)
    # Each interior fan is a row of its corners, padded to the largest
    # valence by repeating the last: its prefix sums run along the row.
    zi = (~boundary).nonzero()[0]
    deg_i = deg[zi]
    j = np.arange(deg_i.max(initial=0))
    valid = j < deg_i[:, None]
    km = offset[zi, None] + np.minimum(j, deg_i[:, None] - 1)
    c[~fan_open] = b[km.T].cumsum(axis=0).transpose(1, 0, 2)[valid]
    ce = c / elen2[:, None]
    d = (3.0 * b / mesh.area[tri][:, None]
         - 12.0 * corner_cot[:, None] * (ce - ce[prev]))
    coeffs = np.concatenate([d0[None], d.T])            # (3, 3T)
    # The rows by valence.  h_z, the largest spoke or distance between two
    # far ends (the near ends among them), is a maximum, which repeats do
    # not move: blocks of about 2**18 far-end pairs, each padded only to
    # its own largest valence.
    by = deg_i.argsort(kind="stable")
    zi, deg_i, km, valid = zi[by], deg_i[by], km[by], valid[by]
    step = max(1, (1 << 18) // max(len(j), 1) ** 2)
    for lo in range(0, len(zi), step):
        g = slice(lo, lo + step)
        ends = y[km[g, :deg_i[g][-1]]]
        gap = ends[:, :, None] - ends[:, None, :]
        h_z[zi[g]] = np.maximum(np.hypot(gap[..., 0], gap[..., 1]).max(
            axis=(1, 2)), edge_len[km[g]].max(axis=1))
    # D sums one block per valence m, the terms times (-1)^(j+1) laid out
    # contiguously by np.take: numpy sums a contiguous row of 8 or more
    # terms pairwise, so a padded or strided row would move their bits.
    # A sum can overflow near the ends of the double range, where no
    # decision reads D (the even-valence check rejects one that is read).
    terms = (np.take(coeffs, km[valid], axis=1)
             * np.where(j % 2 == 1, 1.0, -1.0)[valid.nonzero()[1]])
    counts = np.bincount(deg_i)
    sums, lo = [np.empty((3, 0))], 0
    with np.errstate(over="ignore", invalid="ignore"):
        for m in counts.nonzero()[0]:
            hi = lo + counts[m] * m
            sums.append(terms[:, lo:hi].reshape(3, -1, m).sum(axis=2))
            lo = hi
    D[zi] = np.concatenate(sums, axis=1).T
    table = FanTable(
        offset=offset, degree=deg, center=center, position=position,
        tri=tri, slot=slot, theta=theta, boundary=boundary, far=far, vec=vec,
        edge_len=edge_len, tangent=tangent,
        normal=tangent[:, ::-1] * np.array([-1.0, 1.0]), pair_sin=pair_sin,
        weight=weight, h_z=h_z, b=b, c=c, d0=d0, d=d, D=D)
    for arr in vars(table).values():
        arr.setflags(write=False)
    return table


# ---------------------------------------------------------------------------
# Generators


# The split codes of a lattice square: its diagonal from the upper-left
# corner (i, j + 1), from the lower-left corner (i, j), or both; and their
# triangles over its corners 0-3, counter-clockwise from (i, j), and centre 4.
UPPER, LOWER, CROSS = 0, 1, 2
_SPLITS = [np.array(t) for t in (
    ((0, 1, 3), (1, 2, 3)), ((0, 1, 2), (0, 2, 3)),
    ((0, 1, 4), (1, 2, 4), (2, 3, 4), (3, 0, 4)))]


@np.errstate(invalid="ignore")   # an infinite L: Triangulation names it
def _lattice(preset, n, L, split=None, e2=(0.0, 1.0), seed=None,
             amplitude=0.0):
    """The points and triangles of the n x n squares of the lattice spanned
    by (L, 0) and L e2: point (i, j) at index i (n + 1) + j, square (i, j)
    cut by its code in ``split`` (one for all, or one per square in order),
    the centre of each CROSS square after the lattice points, in order.
    With a seed, the interior points are jittered by up to ``amplitude`` L
    per coordinate and every square draws UPPER or LOWER, from one stream."""
    if n < 1 or L <= 0:
        raise MeshError(f"{preset} requires n >= 1 and L > 0")
    if not 0 <= amplitude < 0.5:
        raise MeshError("amplitude must lie in [0, 0.5)")
    if seed is not None:
        rng = np.random.default_rng(seed)
        jitter = rng.uniform(-amplitude, amplitude, ((n - 1) ** 2, 2)) * L
        split = rng.integers(2, size=n * n)
    codes = np.broadcast_to(split, n * n)
    i, j = np.divmod(np.arange((n + 1) ** 2), n + 1)
    v00, cross = np.flatnonzero((i < n) & (j < n)), codes == CROSS
    x, y = (np.concatenate([k, k[v00[cross]] + 0.5]) for k in (i, j))
    points = np.stack([x * L + y * (e2[0] * L), y * (e2[1] * L)], axis=1)
    if seed is not None:
        points[np.flatnonzero((0 < i) & (i < n) & (0 < j) & (j < n))] += jitter
    corners = np.stack([v00, v00 + n + 1, v00 + n + 2, v00 + 1,
                        len(i) + np.cumsum(cross) - 1], axis=1)
    return points, np.concatenate([c[_SPLITS[k]]
                                   for c, k in zip(corners, codes)])


def crossed(n: int, L: float = 1.0) -> Triangulation:
    """n x n squares of side L, each split by both diagonals (4 triangles)."""
    return Triangulation(*_lattice("crossed", n, L, CROSS))


def type1_diagonal(n: int, L: float = 1.0) -> Triangulation:
    """n x n squares of side L, each split by the lower-left diagonal."""
    return Triangulation(*_lattice("type1_diagonal", n, L, LOWER))


def three_lines(n: int, L: float = 1.0) -> Triangulation:
    """Equilateral mesh of a rhombus; every interior vertex is a regular
    hexagon center."""
    return Triangulation(*_lattice("three_lines", n, L, UPPER,
                                   e2=(0.5, np.sqrt(3) / 2)))


def ngon_patch(N: int, L: float = 1.0, length_scale=None,
               angle_shift=None) -> Triangulation:
    """Single interior vertex of valence N at the origin, with spokes of
    length L.

    ``length_scale`` and ``angle_shift`` optionally perturb each spoke
    (sequences of length N); angles must remain strictly increasing.
    """
    if N < 3 or L <= 0:
        raise MeshError("ngon_patch requires N >= 3 and radius > 0")
    length_scale = np.ones(N) if length_scale is None else np.asarray(length_scale, float)
    angle_shift = np.zeros(N) if angle_shift is None else np.asarray(angle_shift, float)
    if len(length_scale) != N or len(angle_shift) != N:
        raise MeshError("perturbation arrays must have length N")
    ang = 2 * np.pi * np.arange(N) / N + angle_shift
    gaps = np.diff(np.concatenate([ang, [ang[0] + 2 * np.pi]]))
    if np.any(gaps <= 0) or np.any(gaps >= np.pi):
        raise MeshError("spoke angles must be increasing with gaps < pi")
    r = L * length_scale
    if np.any(r <= 0):
        raise MeshError("spoke lengths must be positive")
    verts = [(0.0, 0.0)] + [(r[k] * np.cos(ang[k]), r[k] * np.sin(ang[k]))
                            for k in range(N)]
    tris = [(0, 1 + k, 1 + (k + 1) % N) for k in range(N)]
    return Triangulation(np.array(verts), np.array(tris))


def perturbed_grid(n: int, seed: int = 0, amplitude: float = 0.15,
                   L: float = 1.0) -> Triangulation:
    """Square grid with random diagonals and interior vertices jittered by
    at most ``amplitude L`` per coordinate; valences 4..8.  Below an
    amplitude of 0.25 no triangle folds: a vertex moves at most
    ``amplitude L sqrt(2)`` toward the hypotenuse of its right triangle,
    the hypotenuse as much toward it, and they lie ``L / sqrt(2)`` apart.
    Above it, a draw that folds is rejected."""
    points, tris = _lattice("perturbed_grid", n, L, seed=seed,
                            amplitude=amplitude)
    try:
        return Triangulation(points, tris)
    except MeshError as exc:
        raise MeshError(f"amplitude {amplitude} produced an invalid mesh: {exc}")


# every spelling of every preset that ``svstokes gen`` accepts
PRESETS = {
    "crossed": crossed,
    "type1": type1_diagonal, "type1_diagonal": type1_diagonal,
    "three_lines": three_lines, "three-lines": three_lines,
    "ngon": ngon_patch, "ngon_patch": ngon_patch,
    "perturbed_grid": perturbed_grid, "perturbed-grid": perturbed_grid,
}


def generate(preset: str, **params) -> Triangulation:
    """Build a mesh from one of the named families."""
    try:
        fn = PRESETS[preset]
    except KeyError:
        raise MeshError(f"unknown preset {preset!r}; "
                        f"choose from {sorted(PRESETS)}") from None
    return fn(**params)
