"""Shared test helpers: the fan of a vertex by name, the per-vertex
oracles of the d-coefficients and of the vertex classification, random
shape-regular patches, admissible pressure targets, the golden and
benchmark meshes, the type-1 grids with crossed squares, edge lookups and
edge weights, corner angles of an edge pair, dual determinant formulas,
dense views of field blocks, the oracles of transfers composed along a
path (the path lemma) and of field blocks as velocity DOF vectors, the
full assembly of the divergence pairing and its norms, uncondensed, and
the Krylov start of a synthetic certificate."""

import importlib.util
import pathlib
import sys
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg

from svstokes import fields, poly, solver
from svstokes.classify import (BOUNDARY, EVEN, NOT_LI, ODD, SINGULAR,
                               Tolerances, VertexReport)
from svstokes.fields import (FieldBlock, VertexValues, center_divergences,
                             edge_transfer, field_block)
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
    triangles ``tris`` of its corners, the slots ``slots`` of z in them,
    the angles ``theta`` at z and the d-coefficients ``b``, ``c``, ``d0``
    and ``d``; its ``spokes`` with their lengths ``edge_len``, unit
    tangents ``tangents`` and the tangents' rotations ``normals``; and its
    valence ``N``, ``boundary`` flag, diameter ``h_z`` and determinants
    ``D``.  Interior edge k of the fan, shared by tris[k] and tris[k + 1],
    ends at spoke k + boundary."""
    fans = topo.fans
    c, s = fans.corners(z), fans.spokes(z)
    return SimpleNamespace(
        z=z, N=int(fans.degree[z]), boundary=bool(fans.boundary[z]),
        tris=fans.tri[c], slots=fans.slot[c], theta=fans.theta[c],
        b=fans.b[c], c=fans.c[c], d0=fans.d0[c], d=fans.d[c], D=fans.D[z],
        spokes=fans.spoke[s], edge_len=fans.edge_len[s],
        tangents=fans.tangent[s], normals=fans.normal[s],
        h_z=float(fans.h_z[z]))


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
    corners, spokes = fans.corners(z), fans.spokes(z)
    tris = fans.tri[corners]
    n = len(tris)
    prev = np.arange(-1, n - 1)                     # x[prev][j] = x[j - 1]
    y = topology.mesh.vertices[fans.spoke[spokes]]  # y_{j+1} = y[j]
    elen2 = np.float_power(fans.edge_len[spokes], 2)
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
    acc = np.zeros((topology.T, 2, len(poly.MONO3)))
    a = target
    for z, ynext in zip(verts[:-1], verts[1:]):
        block, _ = edge_transfer(topology, z, ynext, a, tol)
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


def dense_norms(topology, nodes, seminorm=False):
    """(A_s, M): the full-assembly oracle of the scalar H1 Gram matrix of
    the cubic nodes (seminorm only if requested), the blocks of
    ``solver.assemble_norms`` summed at the global nodes triangle by
    triangle, and the (T, 6, 6) pressure mass blocks.  The velocity Gram
    matrix is A = A_s (x) I_2 in the DOF order 2g + c."""
    K, M = solver.assemble_norms(topology, seminorm=seminorm)
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


def krylov_start(p):
    """The rank scale's Krylov start of a synthetic certificate with p
    constrained pressures: a fixed-seed normal vector."""
    return np.random.default_rng(0).standard_normal(p)
