"""Shared test helpers: the fan of a vertex by name, random
shape-regular patches, admissible pressure targets, the golden and benchmark meshes, the type-1 grids with
crossed squares, edge lookups and edge weights, corner angles of an edge
pair, dual determinant formulas and dense views of field blocks."""

import importlib.util
import pathlib
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from svstokes import fields, poly
from svstokes.fields import FieldBlock, VertexValues
from svstokes.mesh import (Triangulation, build_topology, crossed, load_mesh,
                           ngon_patch, perturbed_grid, three_lines,
                           type1_diagonal)
from svstokes.trees import _side_ends

ROOT = pathlib.Path(__file__).resolve().parent.parent

# The meshes of the reports under docs/golden/.
GOLDEN_MESHES = {
    "crossed-2": lambda: crossed(2),
    "type1-3": lambda: type1_diagonal(3),
    "three-lines-2": lambda: three_lines(2),
    "perturbed-3-s1": lambda: perturbed_grid(3, seed=1),
}


def type1_with_crossed(n, squares):
    """The n x n type-1 grid with the listed unit squares (i, j) split by
    both diagonals instead: the crossed centers are singular, hence local
    interpolating, and the NotLI vertices of the type-1 part reach them
    only along trees several edges deep."""
    def idx(i, j):
        return i * (n + 1) + j
    verts = [(float(i), float(j)) for i in range(n + 1) for j in range(n + 1)]
    tris = []
    for i in range(n):
        for j in range(n):
            a, b, d, e = idx(i, j), idx(i + 1, j), idx(i + 1, j + 1), idx(i, j + 1)
            if (i, j) in squares:
                verts.append((i + 0.5, j + 0.5))
                c = len(verts) - 1
                tris += [(a, b, c), (b, d, c), (d, e, c), (e, a, c)]
            else:
                tris += [(a, b, d), (a, d, e)]
    return Triangulation(np.array(verts), np.array(tris))


MIXED = {
    "mixed-3": (3, [(0, 2)]),
    "mixed-6": (6, [(0, 1), (1, 0), (1, 1), (1, 3), (2, 4), (3, 3), (3, 5),
                    (4, 4)]),
}


def _bench_meshes():
    """bench/meshes.py, which generates the benchmark's mesh files."""
    spec = importlib.util.spec_from_file_location(
        "svstokes_bench_meshes", ROOT / "bench" / "meshes.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


BENCH_MESHES = _bench_meshes()


def bench_pool(workload, perturbed_only=False):
    """Keys of every mesh a benchmark workload can draw."""
    return [k for k in BENCH_MESHES.pool_keys(workload)
            if not perturbed_only or k.startswith("perturbed")]


def bench_mesh(key):
    """A benchmark mesh, read back from the file text the benchmark
    writes."""
    return load_mesh(BENCH_MESHES.mesh_text(*BENCH_MESHES.build(key)))


def fan(topo, z):
    """The fan of vertex z as named slices of the fan table: the
    triangles ``tris`` of its corners, the slots ``slots`` of z in them and
    the angles ``theta`` at z; its ``spokes`` with their lengths
    ``edge_len``, unit tangents ``tangents`` and the tangents' rotations
    ``normals``; and its valence ``N``, ``boundary`` flag and diameter
    ``h_z``.  Interior edge k of the fan, shared by tris[k] and
    tris[k + 1], ends at spoke k + boundary."""
    fans = topo.fans
    c, s = fans.corners(z), fans.spokes(z)
    return SimpleNamespace(
        z=z, N=int(fans.degree[z]), boundary=bool(fans.boundary[z]),
        tris=fans.tri[c], slots=fans.slot[c], theta=fans.theta[c],
        spokes=fans.spoke[s], edge_len=fans.edge_len[s],
        tangents=fans.tangent[s], normals=fans.normal[s],
        h_z=float(fans.h_z[z]))


def edge_index(topo):
    """{(a, b): edge index} of the mesh edges, keyed by sorted vertex
    pairs."""
    return dict(zip(map(tuple, topo.edges.tolist()), range(topo.E)))


def edge_weights(topo):
    """{(interior edge index, endpoint vertex): cot-sum weight}, each
    interior edge read once, through its side in the lower triangle."""
    twin = topo.twin.ravel()
    side = np.flatnonzero(twin > np.arange(len(twin)))
    ends, weight = _side_ends(topo, side)
    edge = np.repeat(topo.tri_edges.ravel()[side], 2)
    return dict(zip(zip(edge.tolist(), ends.ravel().tolist()),
                    weight.ravel().tolist()))


def edge_tris(topo, e):
    """The triangles of edge e in ascending order: the triangle of one of
    its sides and, on an interior edge, that of the side's twin."""
    side = int(np.flatnonzero(topo.tri_edges.ravel() == e)[0])
    twin = int(topo.twin.ravel()[side])
    return tuple(sorted({side // 3} | ({twin // 3} if twin >= 0 else set())))


def edge_pair_angles(topo, e, z):
    """Angles of the two triangles sharing interior edge e = {z, y}, read
    from ``topo.angle``: (phi_1, phi_2, theta_1, theta_2), where phi_i is
    the angle at z in triangle T_i and theta_i the angle at y, and
    (T_1, T_2) follow the counter-clockwise patch order at z."""
    a, b = topo.edges[e].tolist()
    y = b if a == z else a
    patch = fan(topo, z)
    k = next(k for k in range(patch.N - patch.boundary)
             if patch.spokes[k + patch.boundary] == y)
    pair = patch.tris[k], patch.tris[(k + 1) % patch.N]
    rows = [topo.mesh.triangles[t].tolist() for t in pair]
    phi = [topo.angle[t, row.index(z)] for t, row in zip(pair, rows)]
    theta = [topo.angle[t, row.index(y)] for t, row in zip(pair, rows)]
    return phi[0], phi[1], theta[0], theta[1]


def dual_determinants(patch, topo, D0):
    """The dual formulas of an even interior patch's determinants: D_0 by
    the consecutive-cotangent simplification, and (D_1, D_2) by the
    closed-form anchor identity, which reads D_0 (``D0``)."""
    y = topo.mesh.vertices[list(patch.spokes)]       # y_{j+1} = y[j]
    elen2 = patch.edge_len ** 2
    cot = topo.cot[patch.tris, patch.slots]
    inv_area = 1.0 / topo.area[list(patch.tris)]
    signs = np.array([(-1.0) ** (j + 1) for j in range(patch.N)])
    tsum = cot + np.roll(cot, -1)           # cot theta_j + cot theta_{j+1}
    asum = inv_area + np.roll(inv_area, -1)
    D0_simple = float(np.sum(signs * (tsum / elen2)))
    # y . e_i^perp for the directions i = 1, 2: e_1^perp = (0, 1),
    # e_2^perp = (-1, 0)
    D_closed = [float(np.sum(signs * (4.0 * tsum / elen2 - asum) * yperp)
                      - 4.0 * D0 * yperp[-1])
                for yperp in (y[:, 1], -y[:, 0])]
    return D0_simple, D_closed


def dense(block):
    """The fields of a FieldBlock as dense coefficients (F, T, 2, 10)."""
    out = np.zeros((block.F, block.topology.T, 2, len(poly.MONO3)))
    out[block.field, block.tri] = block.coeffs
    return out


def on_patch(topo, patch, rows):
    """Dense coefficients (T, ...) of rows (N, ...) over patch.tris."""
    out = np.zeros((topo.T,) + rows.shape[1:])
    out[list(patch.tris)] = rows
    return out


def support(c):
    """The triangles where the dense field c (T, 2, 10) is nonzero."""
    return set(np.flatnonzero(c.any(axis=(1, 2))).tolist())


def _div(topo, c, t):
    return fields._div_coeffs(topo.hat_grads[t], c[t])


def div_at(topo, c, t, v):
    """Divergence of the dense field c (T, 2, 10) on triangle t at its
    vertex v."""
    slot = topo.mesh.triangles[t].tolist().index(v)
    return float(_div(topo, c, t)[poly.VERTEX2[slot]])


def div_mean(topo, c, t):
    """Mean of the divergence of the dense field c over triangle t."""
    return float(poly.INT2_UNIT @ _div(topo, c, t))


def div_integral(topo, c, t):
    return float(topo.area[t]) * div_mean(topo, c, t)


def corner_divergences(topo, c):
    """{(triangle, vertex): divergence} of the dense field c at every
    vertex of every triangle of its support."""
    return {(t, int(v)): div_at(topo, c, t, int(v)) for t in sorted(support(c))
            for v in topo.mesh.triangles[t]}


def scalar_edge_integral(topo, t, c, va, vb):
    """Integral of the scalar cubic c (10,) on triangle t along its edge
    from va to vb."""
    tri = topo.mesh.triangles[t].tolist()
    lam = np.zeros((len(poly.EDGE_QP), 3))
    lam[:, tri.index(va)] = 1.0 - poly.EDGE_QP
    lam[:, tri.index(vb)] = poly.EDGE_QP
    length = float(np.hypot(*(topo.mesh.vertices[vb] - topo.mesh.vertices[va])))
    return length * float(poly.EDGE_QW @ poly.eval3(c, lam))


def scalar_gradient_at_vertex(topo, t, c, v):
    """Gradient of the scalar cubic c (10,) on triangle t at its vertex v."""
    slot = topo.mesh.triangles[t].tolist().index(v)
    return (poly.DIFF[:, poly.VERTEX2[slot]] @ c) @ topo.hat_grads[t]


def values(*divs):
    """VertexValues of one {(triangle, vertex): value} dict per field."""
    rows = [(i, t, v, x) for i, d in enumerate(divs) for (t, v), x in d.items()]
    cols = list(zip(*rows)) or [()] * 4
    return VertexValues(*(np.array(c, dtype=d) for c, d in
                          zip(cols, [np.int64] * 3 + [float])))


def stack_fields(topology, parts):
    """One (FieldBlock, VertexValues) pair of a sequence of them on
    ``topology``, the fields of each part numbered after those of the
    parts before it."""
    parts = list(parts)
    blocks, vals = [b for b, _ in parts], [v for _, v in parts]
    offset = np.cumsum([0] + [b.F for b in blocks])
    none = (np.zeros(0, dtype=np.int64),)

    def numbered(groups):
        return (np.concatenate(none + tuple(g.field for g in groups))
                + np.repeat(offset[:-1], [len(g.field) for g in groups]))

    block = FieldBlock(
        topology, int(offset[-1]), numbered(blocks),
        np.concatenate(none + tuple(b.tri for b in blocks)),
        np.concatenate([np.zeros((0, 2, len(poly.MONO3)))]
                       + [b.coeffs for b in blocks]))
    for a in (block.field, block.tri, block.coeffs):
        a.setflags(write=False)
    return block, VertexValues(numbered(vals), *(
        np.concatenate(none + tuple(v[i] for v in vals)) for i in (1, 2, 3)))


def as_dict(vals, field=0):
    """{(triangle, vertex): value} of one field's VertexValues entries."""
    return {(t, v): x for f, t, v, x in zip(*(a.tolist() for a in vals))
            if f == field}


# Vertex 0 is pinched: its triangles form two fans that share no edge.
PINCHED = ("vertices 9\n0 0\n1 -1\n1 1\n-1 1\n-1 -1\n3 0\n3 3\n-3 3\n"
           "-3 0\ntriangles 8\n0 1 2\n0 3 4\n1 5 2\n2 5 6\n2 6 7\n"
           "2 7 3\n3 7 8\n3 8 4\n")


def random_interior_patch(rng, N=None):
    """Single-interior-vertex mesh with randomized spoke angles/lengths,
    kept shape-regular (bounded angle distortion)."""
    if N is None:
        N = int(rng.integers(3, 9))
    base = 2.0 * np.pi / N
    amp = 0.9 * min(0.3 * base, 0.5 * (np.pi - base))
    shift = rng.uniform(-amp, amp, size=N)
    scale = rng.uniform(0.7, 1.3, size=N)
    mesh = ngon_patch(N, radius=1.0, length_scale=scale, angle_shift=shift)
    topo = build_topology(mesh)
    return mesh, topo, fan(topo, 0)


def rigid_motion(mesh, angle=0.0, shift=(0.0, 0.0), scale=1.0):
    c, s = np.cos(angle), np.sin(angle)
    R = np.array([[c, -s], [s, c]])
    verts = scale * (mesh.vertices @ R.T) + np.asarray(shift)
    return Triangulation(verts, mesh.triangles)


def admissible_target(topology, reports, rng):
    """Random per-triangle vertex values satisfying the alternating-sum
    constraint at every singular vertex (the discrete pressure space's
    pointwise conditions)."""
    p = rng.standard_normal((topology.T, 3))
    for r in reports:
        if not r.singular:
            continue
        patch = fan(topology, r.vertex)
        slots = list(zip(patch.tris, patch.slots))
        if patch.N == 1:
            t, s = slots[0]
            p[t, s] = 0.0
            continue
        signs = np.array([(-1.0) ** j for j in range(patch.N)])
        alt = sum(sg * p[t, s] for sg, (t, s) in zip(signs, slots))
        t, s = slots[-1]
        p[t, s] -= signs[-1] * alt
    return p


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)
