"""Shared test helpers: the fan of a vertex by name, the per-vertex
oracles of the fan table's spoke columns, of the d-coefficients and of the
vertex classification, the named meshes of the high-valence fans, random
shape-regular patches, admissible pressure targets, the golden and
benchmark meshes, the type-1 grids with crossed squares, edge lookups and
edge weights, corner angles of an edge pair, dual determinant formulas,
dense views of field blocks, the oracles of transfers composed along a
path (the path lemma) and of field blocks as velocity DOF vectors, the
full assembly of the divergence pairing and its norms, uncondensed, the
einsum oracle of the Gram blocks, the json oracle of the report writer,
the Krylov start of a synthetic certificate, the oracles of the rank's
inverse Lanczos and lift (triangular solves and Givens rotations), and
Gauss quadrature on a triangle and along an edge."""

import importlib.util
import json
import pathlib
import sys
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg

from svstokes import cli, fields, poly, solver
from svstokes.classify import (BOUNDARY, EVEN, NOT_LI, ODD, SINGULAR,
                               Tolerances, VertexReport, classify_mesh)
from svstokes.fields import (FieldBlock, VertexValues, center_divergences,
                             edge_transfer, field_block)
from svstokes.mesh import (CROSS, LOWER, Triangulation, _lattice,
                           build_topology, crossed, load_mesh, ngon_patch,
                           perturbed_grid, three_lines, type1_diagonal)

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
    codes = np.full(n * n, LOWER)
    codes[[i * n + j for i, j in squares]] = CROSS
    return Triangulation(*_lattice("type1_with_crossed", n, 1.0, codes))


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


# Fans of valence 9 and more, where np.sum adds pairwise instead of in
# order and no bench mesh reaches: regular ngons (the even ones NotLI,
# with roundoff decision values) and ngons with seeded spoke angle shifts
# of up to 0.3 of the regular gap, and the type-1 grids with crossed
# squares.
HIGH_VALENCE = ([f"ngon-{N}" for N in range(9, 35)]
                + [f"ngon-{N}-shifted" for N in range(9, 35)] + sorted(MIXED))


def named_mesh(name):
    """A golden, mixed, high-valence or benchmark mesh by its name."""
    if name in GOLDEN_MESHES:
        return GOLDEN_MESHES[name]()
    if name in MIXED:
        return type1_with_crossed(*MIXED[name])
    if name.startswith("ngon-"):
        N = int(name.split("-")[1])
        shift = None
        if name.endswith("-shifted"):
            shift = np.random.default_rng(N).uniform(-0.3, 0.3, N) \
                * (2 * np.pi / N)
        return ngon_patch(N, angle_shift=shift)
    return bench_mesh(name)


def fan(topo, z):
    """The fan of vertex z as named slices of the fan table: the
    triangles ``tris`` of its corners, the slots ``slots`` of z in them,
    the angles ``theta`` at z and the d-coefficients ``b``, ``c``, ``d0``
    and ``d``; the spoke after each corner, with its far end ``far``, its
    vector ``vec``, length ``edge_len``, unit tangent ``tangents`` and the
    tangent's rotation ``normals``, and ``pair_sin`` and the edge weight
    ``weight`` there; and its valence ``N``, ``boundary`` flag, diameter
    ``h_z`` and determinants ``D``.  ``spokes`` lists the neighbours of z
    in fan order: the far ends, after the near end of the first corner on
    a boundary fan.  Interior edge k of the fan, shared by tris[k] and
    tris[k + 1], is the spoke after corner k and ends at spoke
    k + boundary."""
    fans = topo.fans
    c = fans.corners(z)
    boundary = bool(fans.boundary[z])
    near = topo.mesh.triangles[fans.tri[c.start], (fans.slot[c.start] + 1) % 3]
    return SimpleNamespace(
        z=z, N=int(fans.degree[z]), boundary=boundary,
        tris=fans.tri[c], slots=fans.slot[c], theta=fans.theta[c],
        b=fans.b[c], c=fans.c[c], d0=fans.d0[c], d=fans.d[c], D=fans.D[z],
        far=fans.far[c], vec=fans.vec[c], edge_len=fans.edge_len[c],
        tangents=fans.tangent[c], normals=fans.normal[c],
        pair_sin=fans.pair_sin[c], weight=fans.weight[c],
        spokes=np.concatenate([[near], fans.far[c]]) if boundary
        else fans.far[c], h_z=float(fans.h_z[z]))


def fan_columns(topology, z):
    """The per-vertex oracle of the fan table's spoke columns at vertex z,
    one corner at a time in fan order: the far end ``far`` of the spoke
    after corner j (slot + 2 of its counter-clockwise triangle), the spoke
    ``vec``, its length ``edge_len``, unit ``tangent`` and the tangent's
    counter-clockwise rotation ``normal``; and, with the next corner
    cyclic, ``pair_sin`` = sin(theta_j + theta_next) from ``topology.angle``
    and ``weight`` = cot_j + cot_next from ``topology.cot``, both NaN at
    the last corner of a boundary fan."""
    fans = topology.fans
    c = fans.corners(z)
    tris, slots = fans.tri[c].tolist(), fans.slot[c].tolist()
    n, boundary = len(tris), bool(fans.boundary[z])
    cols = {name: [] for name in ("far", "vec", "edge_len", "tangent",
                                  "normal", "pair_sin", "weight")}
    for j, (t, s) in enumerate(zip(tris, slots)):
        far = int(topology.mesh.triangles[t, (s + 2) % 3])
        vec = topology.mesh.vertices[far] - topology.mesh.vertices[z]
        length = np.hypot(vec[0], vec[1])
        tangent = vec / length
        cols["far"].append(far)
        cols["vec"].append(vec)
        cols["edge_len"].append(length)
        cols["tangent"].append(tangent)
        cols["normal"].append(np.array([-tangent[1], tangent[0]]))
        if boundary and j == n - 1:
            cols["pair_sin"].append(np.nan)
            cols["weight"].append(np.nan)
        else:
            u, r = tris[(j + 1) % n], slots[(j + 1) % n]
            cols["pair_sin"].append(np.sin(topology.angle[t, s]
                                           + topology.angle[u, r]))
            cols["weight"].append(topology.cot[t, s] + topology.cot[u, r])
    return SimpleNamespace(**{name: np.array(col, dtype=(
        np.int64 if name == "far" else float)) for name, col in cols.items()})


def decision(coeffs, i):
    """The decision quantity |D_i| h_z^s (s = 2 for i = 0, else 1) of the
    d-coefficients of an interior fan: a ``fan`` or the oracle's."""
    s = 2 if i == 0 else 1
    return abs(coeffs.D[i]) * coeffs.h_z ** s


def compute_dcoefficients(topology, z):
    """The per-vertex oracle of the fan table's d-coefficient columns: b,
    c, d0, d and D of the interior vertex z, one array program over the
    slices of its fan, with its diameter h_z."""
    fans = topology.fans
    assert not fans.boundary[z], "interior vertices only"
    corners = fans.corners(z)
    tris = fans.tri[corners]
    n = len(tris)
    prev = np.arange(-1, n - 1)                     # x[prev][j] = x[j - 1]
    y = topology.mesh.vertices[fans.far[corners]]   # y_{j+1} = y[j]
    elen2 = np.float_power(fans.edge_len[corners], 2)
    cot = topology.cot[tris, fans.slot[corners]]    # cot theta_{j+1} = cot[j]
    areas = topology.area[tris]                     # |T_{j+1}| = areas[j]
    dy = y - y[prev]                                # y_{j+1} - y_j
    b = dy[:, ::-1] * np.array([-1.0, 1.0]) / 3.0   # -(dy . e_i^perp) / 3
    c = np.cumsum(b, axis=0)
    inv = 1.0 / elen2
    d0 = cot * (inv - inv[prev])
    ce = c / elen2[:, None]
    d = 3.0 * b / areas[:, None] - 12.0 * cot[:, None] * (ce - ce[prev])
    signs = np.where(np.arange(n) % 2 == 1, 1.0, -1.0)    # (-1)^(j+1)
    D = np.array([np.sum(signs * d0), np.sum(signs * d[:, 0]),
                  np.sum(signs * d[:, 1])])
    return SimpleNamespace(b=b, c=c, d0=d0, d=d, D=D,
                           h_z=float(fans.h_z[z]))


def classify_vertex(topology, z, th, tol=Tolerances()):
    """The per-vertex oracle of ``classify_mesh``: the report of vertex z,
    whose Theta(z) is ``th``, and, for an even-valence interior vertex
    that is not singular, the oracle d-coefficients its decision was
    taken on (None otherwise)."""
    fans = topology.fans
    n, boundary = int(fans.degree[z]), bool(fans.boundary[z])
    base = dict(vertex=z, valence=n, boundary=boundary, theta_value=th,
                singular=th <= tol.singular)
    if th <= tol.singular:
        return VertexReport(status=SINGULAR, conditioning=1.0, **base), None
    if boundary:
        return VertexReport(status=BOUNDARY, **base), None
    if n % 2 == 1:
        return VertexReport(status=ODD, conditioning=1.0, **base), None
    coeffs = compute_dcoefficients(topology, z)
    decisions = [decision(coeffs, i) for i in range(3)]
    best = int(np.argmax(decisions))
    if decisions[best] > tol.decision:
        return VertexReport(status=EVEN, even_index=best,
                            decision_value=decisions[best],
                            conditioning=1.0 + 1.0 / decisions[best],
                            **base), coeffs
    return VertexReport(status=NOT_LI, decision_value=decisions[best],
                        **base), coeffs


def edge_index(topo):
    """{(a, b): edge index} of the mesh edges, keyed by sorted vertex
    pairs."""
    return dict(zip(map(tuple, topo.edges.tolist()), range(topo.E)))


def edge_weights(topo):
    """{(interior edge index, endpoint vertex): cot-sum weight}, each
    interior edge read once, through its side in the lower triangle: at
    each end, the sum of the cotangents of the angles at that vertex in the
    side's triangle and in its twin's, read from ``topo.cot``."""
    twin = topo.twin.ravel()
    side = np.flatnonzero(twin > np.arange(len(twin)))
    t, s = np.divmod(side, 3)
    u, k = np.divmod(twin[side], 3)
    # the twin runs back: its slot k + 1 is slot s of t, its slot k is s + 1
    ends = topo.mesh.triangles[t[:, None], (s[:, None] + [0, 1]) % 3]
    weight = np.stack([topo.cot[t, s] + topo.cot[u, (k + 1) % 3],
                       topo.cot[t, (s + 1) % 3] + topo.cot[u, k]], axis=1)
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


def triangle_rule(n=5):
    """A collapsed Gauss-Legendre rule on a triangle: n^2 barycentric
    points and weights per unit area (summing to 1), exact for degree
    <= 2n - 2.  The unit square maps by (u, v) -> (u, (1 - u) v), whose
    Jacobian 1 - u adds one degree in u."""
    x, w = np.polynomial.legendre.leggauss(n)
    x, w = 0.5 * (x + 1.0), 0.5 * w
    u, v = np.meshgrid(x, x, indexing="ij")
    l1, l2 = u.ravel(), ((1.0 - u) * v).ravel()
    lam = np.column_stack([1.0 - l1 - l2, l1, l2])
    return lam, 2.0 * (np.outer(w, w) * (1.0 - u)).ravel()


def scalar_edge_integral(topo, t, c, va, vb):
    """Integral of the scalar cubic c (10,) on triangle t along its edge
    from va to vb, by 2-point Gauss-Legendre (exact to degree 3)."""
    tri = topo.mesh.triangles[t].tolist()
    x, w = np.polynomial.legendre.leggauss(2)
    lam = np.zeros((len(x), 3))
    lam[:, tri.index(va)] = 0.5 * (1.0 - x)
    lam[:, tri.index(vb)] = 0.5 * (1.0 + x)
    length = float(np.hypot(*(topo.mesh.vertices[vb] - topo.mesh.vertices[va])))
    return 0.5 * length * float(w @ poly.eval3(c, lam))


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
    mesh = ngon_patch(N, length_scale=scale, angle_shift=shift)
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


# ---------------------------------------------------------------------------
# the path lemma: transfers composed hop by hop along a path of vertices


def path_stats(topology, vertices, tol=Tolerances()):
    """The oracle of a transfer path's statistics, one hop at a time: per
    hop i from y_i to y_{i+1}, its edge, its weights ``M_fwd`` at y_i and
    ``M_bwd`` at y_{i+1} (each the sum of the cotangents at that end in
    the edge's two triangles, read from ``topology.cot``), the
    amplification prefix ``rho_tilde`` (the product of M_bwd / M_fwd over
    the earlier hops), the transfer factors ``rho = rho_tilde / M_fwd``
    and their largest modulus ``rho_P``, and whether every M_fwd clears
    ``tol.accept``."""
    verts = [int(v) for v in vertices]
    index = edge_index(topology)
    edges, M_fwd, M_bwd = [], [], []
    for a, b in zip(verts[:-1], verts[1:]):
        e = index[min(a, b), max(a, b)]
        at = [sum(topology.cot[t, topology.mesh.triangles[t].tolist().index(v)]
                  for t in edge_tris(topology, e)) for v in (a, b)]
        edges.append(e)
        M_fwd.append(at[0])
        M_bwd.append(at[1])
    M_fwd, M_bwd = np.array(M_fwd), np.array(M_bwd)
    rho_tilde = np.ones(len(edges))
    for j in range(1, len(edges)):
        rho_tilde[j] = rho_tilde[j - 1] * M_bwd[j - 1] / M_fwd[j - 1]
    rho = rho_tilde / M_fwd
    return SimpleNamespace(
        vertices=tuple(verts), edges=tuple(edges), M_fwd=M_fwd, M_bwd=M_bwd,
        rho_tilde=rho_tilde, rho=rho, rho_P=float(np.abs(rho).max()),
        acceptable=bool(np.all(np.abs(M_fwd) > tol.accept)))


def path_interpolant(topology, vertices, target, tol=Tolerances()):
    """The oracle of a target vector (N,) at vertices[0] transferred along
    the path: one ``edge_transfer`` per hop, each removing the vertex
    divergences the fields so far leave at its start.  The field (one
    FieldBlock) matches the targets at the start, leaves zero vertex
    divergence at every intermediate vertex, and its ``end_spill``
    (VertexValues) is what it leaves at the end vertex."""
    verts = [int(v) for v in vertices]
    reports, _ = classify_mesh(topology, tol)
    acc = np.zeros((topology.T, 2, len(poly.MONO3)))
    a = np.asarray(target, dtype=float)
    for z, ynext in zip(verts[:-1], verts[1:]):
        block, _ = edge_transfer([reports[z]], [ynext], a[None, None],
                                 topology, tol)
        acc[block.tri] += block.coeffs
        # what the next hop removes; at the end vertex, the spill
        vals = center_divergences(topology, acc, ynext)
        a = -vals
    end = verts[-1]
    hit = np.flatnonzero(vals != 0.0)
    tris = topology.fans.tri[topology.fans.corners(end)]
    end_spill = VertexValues(np.zeros(len(hit), dtype=np.int64), tris[hit],
                             np.full(len(hit), end), vals[hit])
    return SimpleNamespace(field=field_block(topology, acc),
                           end_spill=end_spill)


def velocity_coefficients(topology, nodes, block):
    """Nodal coefficients (velocity DOFs, F) of the piecewise-cubic fields
    of a ``FieldBlock`` that vanish on the boundary (values sampled at the
    interior Lagrange nodes of ``solver.number_dofs``), one column per
    field.  A node shared by several triangles takes its value from the
    highest-numbered one; triangles outside a field's support give
    zeros."""
    n = int(nodes.max(initial=-1)) + 1
    flat = nodes.ravel()
    interior = np.flatnonzero(flat >= 0)
    last = np.full(n, -1, dtype=np.int64)
    np.maximum.at(last, flat[interior], interior)
    owns = np.zeros(flat.shape, dtype=bool)         # the node's last slot
    owns[last] = True
    row, j = np.nonzero(owns.reshape(nodes.shape)[block.tri])
    at_nodes = poly.eval3(block.coeffs.reshape(-1, 10),
                          np.array(solver.P3_NODES)).reshape(10, -1, 2)
    out = np.zeros((n, 2, block.F))
    out[nodes[block.tri[row], j], :, block.field[row]] = at_nodes[j, row]
    return out.reshape(2 * n, block.F)


# ---------------------------------------------------------------------------
# the full assembly: the pairing and its norms with every node, the cubic
# bubbles included, as dense matrices


def dense_divergence(topology, nodes):
    """The full-assembly oracle of the divergence pairing: B[q-dof, v-dof]
    = integral of (pressure basis q) * div(velocity basis v), shape
    (6T, 2n), with pressure DOF 6t + q and velocity DOF 2g + c of node g
    of ``solver.number_dofs``, each entry from exactly one triangle's
    block of ``solver.assemble_divergence``."""
    T = topology.T
    n = int(nodes.max(initial=-1)) + 1
    div = solver.assemble_divergence(topology)
    B = np.zeros((6 * T, 2 * n))
    t, a = np.nonzero(nodes >= 0)
    B.reshape(T, 6, n, 2)[t, :, nodes[t, a], :] = div[t, :, :, a]
    return B


def gram_blocks_oracle(topology, seminorm=False):
    """``solver.assemble_norms`` as first written: the hat-gradient Gram
    g g^T contracted with _GG by one three-operand einsum, whose order of
    summation is numpy's own."""
    area, g = topology.area, topology.hat_grads
    K = np.einsum("tsc,tuc,suab->tab", g, g, solver._GG) * area[:, None, None]
    if not seminorm:
        K = K + area[:, None, None] * solver._MM3
    return K


def dense_norms(topology, nodes, seminorm=False):
    """(A_s, M): the full-assembly oracle of the scalar H1 Gram matrix of
    the cubic nodes (seminorm only if requested), the blocks of
    ``solver.assemble_norms`` summed at the global nodes triangle by
    triangle, and the (T, 6, 6) pressure mass blocks.  The velocity Gram
    matrix is A = A_s (x) I_2 in the DOF order 2g + c."""
    K = solver.assemble_norms(topology, seminorm=seminorm)
    M = topology.area[:, None, None] * solver._MM2
    n = int(nodes.max(initial=-1)) + 1
    interior = nodes >= 0
    t, a, b = np.nonzero(interior[:, :, None] & interior[:, None, :])
    A_s = np.zeros((n, n))
    np.add.at(A_s, (nodes[t, a], nodes[t, b]), K[t, a, b])
    return A_s, M


def uncondensed_pairing(topology, reports, seminorm=False):
    """The weighted pairing W = N^T L_M^-1 B L_A^-T of the certificate from
    the full assembly, no node condensed and no coordinate rotated: N is
    an orthonormal basis of the u with Z^T u = 0, Z = L_M^-1 C^T.  Its
    singular values are those of ``solver.certify``'s factor."""
    nodes = solver.number_dofs(topology)
    B = dense_divergence(topology, nodes)
    A_s, blocks = dense_norms(topology, nodes, seminorm)
    L_M = scipy.linalg.block_diag(*np.linalg.cholesky(blocks))
    C = solver.pressure_constraints(topology, reports)
    N = scipy.linalg.null_space(
        scipy.linalg.solve_triangular(L_M, C.T, lower=True).T)
    W = N.T @ scipy.linalg.solve_triangular(L_M, B, lower=True)
    L_A = np.linalg.cholesky(np.kron(A_s, np.eye(2)))
    return scipy.linalg.solve_triangular(L_A, W.T, lower=True).T


def _rounded(obj):
    """obj as plain JSON values, each float rounded to cli.FLOAT_DIGITS
    significant digits (json.dumps writes floats itself, never through
    a ``default=`` hook, so the rounding has to happen beforehand)."""
    if isinstance(obj, dict):
        return {k: _rounded(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_rounded(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _rounded(obj.tolist())
    if isinstance(obj, (bool, str)) or obj is None:
        return obj
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(f"{obj:.{cli.FLOAT_DIGITS}g}")
    raise TypeError(f"not JSON serializable: {type(obj)}")


def to_json_oracle(obj):
    """``cli.to_json`` as first written: the floats rounded in a copy of
    obj, then json's indented encoder with sorted keys."""
    return json.dumps(_rounded(obj), indent=2, sort_keys=True)


def krylov_start(p):
    """The rank scale's Krylov start of a synthetic certificate with p
    constrained pressures: a fixed-seed normal vector."""
    return np.random.default_rng(0).standard_normal(p)


# ---------------------------------------------------------------------------
# the rank's inverse Lanczos and lift as first written: two solve_triangular
# calls and the whole tridiagonal eigenproblem every step, and one Givens
# rotation per pivot and row


def _inverse_gram(F, X):
    """(F^T F)^-1 X for the square upper triangular F: two triangular
    solves."""
    X = scipy.linalg.solve_triangular(F, X, trans="T", check_finite=False)
    return scipy.linalg.solve_triangular(F, X, check_finite=False)


def inverse_lanczos_oracle(F, thr):
    """(s_min, Y, steps): ``solver._inverse_lanczos`` with the whole
    tridiagonal eigenproblem solved on every step, and the number of steps
    it took."""
    p = len(F)
    steps = min(p, solver.LANCZOS_STEPS)
    basis = np.empty((steps, p))
    alpha, beta = [], []
    q = np.random.default_rng(0).standard_normal(p)
    q /= np.linalg.norm(q)
    for k in range(steps):
        basis[k] = q
        w = _inverse_gram(F, q)
        alpha.append(float(q @ w))
        done = basis[:k + 1]
        for _ in range(2):
            w -= done.T @ (done @ w)
        beta.append(float(np.linalg.norm(w)))
        theta, S = scipy.linalg.eigh_tridiagonal(alpha, beta[:-1])
        s = 1.0 / np.sqrt(np.maximum(theta, np.finfo(float).tiny))
        converged = beta[-1] * np.abs(S[-1]) <= solver.LANCZOS_RTOL * theta
        lift = (s <= thr) & (theta >= solver.LANCZOS_RANGE * theta[-1])
        if converged[-1] and converged[lift].all():
            return float(s[-1]), done.T @ S[:, lift], k + 1
        q = w / beta[-1]
    raise solver.RankIndeterminateError(
        f"inverse Lanczos did not converge in {steps} steps")


def givens_lift(R, rows):
    """``solver._lift`` by one Givens rotation per pivot and row: R, upper
    triangular in either memory order, is replaced in place by the
    triangular factor of [R; rows], and returned."""
    p = len(R)
    C = np.ascontiguousarray(R)
    flat = C.reshape(-1)
    drot = scipy.linalg.blas.drot
    for w in rows:
        w = np.array(w)                 # contiguous: drot rotates it in place
        for j in range(p):
            r = np.hypot(C[j, j], w[j])
            if w[j] == 0.0 or r == 0.0:
                continue
            drot(flat, w, C[j, j] / r, w[j] / r, n=p - j, offx=j * p + j,
                 offy=j, overwrite_x=1, overwrite_y=1)
    R[...] = C
    return R
