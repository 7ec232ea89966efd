"""Local velocity fields as per-triangle cubic vector polynomials.

All constructions live on small vertex patches: the per-patch table of
edge fields, normal correctors and zero-edge-mean scalars, the local
interpolants (singular / odd / even vertex cases), the boundary
interpolant, and the edge transfer that moves vertex-divergence targets
across one acceptable mesh edge (``trees.tree_interpolant`` composes
them along the trees of a cover).  The table and
the interpolants take a group of vertices of one shape at once, the
interpolants by their vertex reports, and read the vertex fans, with the
d-coefficients of the even seeds, off the fan table ``topology.fans``.
Each construction returns its fields as one FieldBlock of support rows,
which verify_field checks; the boundary interpolant and the edge transfer
also return, as VertexValues, the divergences they leave away from the
patch center.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import prod
from typing import NamedTuple

import numpy as np

from . import poly
from .classify import SINGULAR, Tolerances, VertexReport
from .mesh import MeshTopology


class FieldError(ValueError):
    """A field construction's preconditions are not met."""


class UnacceptableEdgeError(FieldError):
    """Transfer requested across an edge with (near-)zero weight."""


# ---------------------------------------------------------------------------
# Field blocks


# The divergence's degree-2 coefficients as one contraction with the
# stacked DIFF: div = sum_s DIFF[s] @ (g @ c)[s] = _DIV @ (g @ c).ravel().
_DIV = poly.DIFF.transpose(1, 0, 2).reshape(len(poly.MONO2), -1)    # (6, 30)


def _div_coeffs(grads, coeffs):
    """Degree-2 divergence coefficients, shape (..., 6), of vector cubics
    with coefficients (..., 2, 10) on triangles with hat gradients
    (..., 3, 2).  Both products are stacked, one per triangle, so each
    triangle's bits do not depend on how many are computed with it."""
    gc = grads @ coeffs                                  # (..., 3, 10)
    gc = gc.reshape(gc.shape[:-2] + (_DIV.shape[1], 1))
    return (_DIV @ gc)[..., 0]


def _frozen(a):
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class FieldBlock:
    """F piecewise cubic vector fields with local support, as one block of
    rows.

    Row i holds ``coeffs[i]`` (2, 10), the coefficients of field
    ``field[i]`` on triangle ``tri[i]``: one barycentric-monomial vector per
    Cartesian component, in the triangle's own vertex order.  The rows are
    sorted by (field, tri), one per pair, and none is all zero: a field
    vanishes on every triangle without a row.  The arrays are read-only;
    ``field_block`` builds the block of dense coefficients.
    """

    topology: MeshTopology
    F: int
    field: np.ndarray       # (R,)
    tri: np.ndarray         # (R,)
    coeffs: np.ndarray      # (R, 2, 10)


def _rows_block(topology, tris, coeffs):
    """FieldBlock of coefficients (..., N, 2, 10), one field per leading
    index in C order, over the triangles ``tris`` broadcast to (..., N),
    ascending along N."""
    rows = coeffs.reshape(-1, 2, len(poly.MONO3))
    N = coeffs.shape[-3]
    keep = np.flatnonzero(rows.any(axis=(1, 2)))
    tri = np.broadcast_to(tris, coeffs.shape[:-2]).reshape(-1)[keep]
    return FieldBlock(topology, prod(coeffs.shape[:-3]), _frozen(keep // N),
                      _frozen(tri), _frozen(rows[keep]))


def field_block(topology: MeshTopology, coeffs) -> FieldBlock:
    """The block of dense coefficients (T, 2, 10), one field, or of the F
    fields of (F, T, 2, 10) ones."""
    return _rows_block(topology, np.arange(topology.T), np.asarray(coeffs))


class VertexValues(NamedTuple):
    """Vertex divergences of the fields of a block: entry i is the
    divergence of field ``field[i]`` on triangle ``tri[i]`` at its vertex
    ``vertex[i]``."""

    field: np.ndarray
    tri: np.ndarray
    vertex: np.ndarray
    value: np.ndarray


_NO_VALUES = VertexValues(*(_frozen(np.zeros(0, dtype=np.int64))
                            for _ in range(3)), _frozen(np.zeros(0)))


def center_divergences(topology: MeshTopology, coeffs, z: int):
    """Divergence at vertex z on each triangle of its fan, in fan order, of
    the field with dense coefficients ``coeffs`` (T, 2, 10)."""
    fans = topology.fans
    corners = fans.corners(z)
    tris = fans.tri[corners]
    div = _div_coeffs(topology.hat_grads[tris], coeffs[tris])
    return div[np.arange(len(tris)), poly.VERTEX2[fans.slot[corners]]]


# ---------------------------------------------------------------------------
# Vertex groups
#
# Every construction takes a group of G vertices of one patch shape (the
# same valence N, all interior or all on the boundary) and builds their
# fields in one array program with a leading G axis.  One vertex is a
# group of one.


def _group(topology, reports, target, what):
    """(vertex ids (G,), reports, targets (G, S, N)) of an interpolant call.
    A group takes a sequence of G vertex reports and a target array
    (G, S, N); one report, with a target vector (N,) or block (S, N), is a
    group of one.  The shape of a vertex is read off the fan table."""
    one = isinstance(reports, VertexReport)
    reports = (reports,) if one else tuple(reports)
    fans = topology.fans
    z = np.array([r.vertex for r in reports], dtype=np.int64)
    if len(set(zip(fans.degree[z].tolist(),
                   fans.boundary[z].tolist()))) != 1:
        raise FieldError("a patch group needs patches of one shape "
                         "(valence, boundary)")
    n = int(fans.degree[z[0]])
    a = np.asarray(target, dtype=float)
    if one:
        if a.ndim not in (1, 2) or a.shape[-1] != n:
            raise FieldError(f"expected {n} {what}, got "
                             f"{a.shape[-1] if a.ndim else a.size}")
        a = a.reshape((1,) * (3 - a.ndim) + a.shape)
    elif a.ndim != 3 or a.shape[::2] != (len(z), n):
        raise FieldError(f"expected {what} of shape ({len(z)}, S, {n}), "
                         f"got {a.shape}")
    if len({r.status for r in reports}) > 1:
        raise FieldError("a patch group needs vertices of one class")
    return z, reports, a


# ---------------------------------------------------------------------------
# The per-patch edge-field table

# _SQUARE[a, b] holds the degree-3 coefficients of l_a^2 l_b (l_a^3 when
# a == b): a single monomial each.  _KAPPA[a, b] (a != b) is the
# zero-edge-mean scalar l_a^2 l_b - l_a l_b / 2 of the edge from slot a to
# slot b, homogenized.  Every field of a patch is gathered from these two.
_SQUARE = np.zeros((3, 3, len(poly.MONO3)))
_KAPPA = np.zeros((3, 3, len(poly.MONO3)))
for _a in range(3):
    for _b in range(3):
        _cubic, _quad = [0, 0, 0], [0, 0, 0]
        _cubic[_a] += 2
        _cubic[_b] += 1
        _quad[_a] += 1
        _quad[_b] += 1
        _SQUARE[_a, _b] = poly.bary_poly([(1.0, _cubic)])
        if _a != _b:
            _KAPPA[_a, _b] = poly.bary_poly([(1.0, _cubic), (-0.5, _quad)])
# _L_Z2[s] is l_s^2, homogenized: the sum of the l_s^2 l_b.
_L_Z2 = _SQUARE.sum(axis=1)
for _table in (_SQUARE, _KAPPA, _L_Z2):
    _table.setflags(write=False)


_PAIR = np.array([0, 1])          # an edge's triangles: tris[k], tris[k+1]
_SPOKE_SLOT = np.array([2, 1])    # the spoke's slot after z's in each


@dataclass(frozen=True)
class EdgeTable:
    """The interior-edge fields of a group of G vertices ``z`` of one
    patch shape, each over the triangles tris[j] of its fan.

    ``corner[g, j]`` and ``spoke[g]`` index the fan table
    (``topology.fans``) at triangle j and at the spokes of vertex z[g].
    Row [g, k] belongs to interior edge k of z[g], shared by tris[k] and
    tris[k+1] (cyclically on an interior fan), and is zero off those two
    triangles: ``w[g, k]`` is its edge field (unit vertex divergence at
    z), ``chi[g, k]`` its normal corrector (interior fans only, else
    None) and ``kappa[g, k]`` its zero-edge-mean scalar.  ``l_z2[g, j]``
    is l_z^2 on tris[j], the profile of the directional correctors.
    """

    z: np.ndarray               # (G,)
    corner: np.ndarray          # (G, N)
    spoke: np.ndarray           # (G, N + boundary)
    w: np.ndarray               # (G, n_int, N, 2, 10)
    chi: np.ndarray | None      # (G, N, N, 2, 10)
    kappa: np.ndarray           # (G, n_int, N, 10)
    l_z2: np.ndarray            # (G, N, 10)


def edge_table(z, topology: MeshTopology) -> EdgeTable:
    """Gather every edge field of a group of vertices of one patch shape,
    the ids ``z`` (or one id, a group of one), from _SQUARE and _KAPPA by
    the slot of z and the slot of the spoke in each edge triangle."""
    fans = topology.fans
    z = np.atleast_1d(np.asarray(z, dtype=np.int64))
    n, bd = int(fans.degree[z[0]]), int(fans.boundary[z[0]])
    m = n - bd                                        # interior edges
    corner = fans.offset[z][:, None] + np.arange(n)
    spoke = fans.spoke_offset[z][:, None] + np.arange(n + bd)
    slots = fans.slot[corner]
    k = np.arange(m)
    pos = (k[:, None] + _PAIR) % n                    # (m, 2) edge triangles
    sz = slots[:, pos]
    # the edge's spoke is the outgoing one of tris[k], the incoming one of
    # tris[k+1]: slots z + 2 and z + 1 of a counter-clockwise triangle
    sy = (sz + _SPOKE_SLOT) % 3
    eta = np.zeros((len(z), m, n, len(poly.MONO3)))   # l_z^2 l_y
    kappa = np.zeros_like(eta)
    eta[:, k[:, None], pos] = _SQUARE[sz, sy]
    kappa[:, k[:, None], pos] = _KAPPA[sz, sy]
    vertices = topology.mesh.vertices
    vec = vertices[fans.spoke[spoke[:, bd:n]]] - vertices[z][:, None]
    w = vec[:, :, None, :, None] * eta[:, :, :, None, :]
    chi = None
    if not bd:
        normal = (12.0 / fans.edge_len[spoke])[..., None] * fans.normal[spoke]
        chi = normal[:, :, None, :, None] * eta[:, :, :, None, :]
    return EdgeTable(z=z, corner=corner, spoke=spoke, w=w,
                     chi=chi, kappa=kappa, l_z2=_L_Z2[slots])


def _sorted_rows(topology, table, coeffs):
    """The fan triangles (G, N) of each vertex of the group in ascending
    order, and the coefficients (G, S, N, 2, 10) over them in that order."""
    tris = topology.fans.tri[table.corner]
    order = np.argsort(tris, axis=1)
    g = np.arange(len(tris))[:, None]
    return (tris[g, order],
            coeffs[g[..., None], np.arange(coeffs.shape[1])[:, None],
                   order[:, None]])


def _patch_block(topology, table, coeffs):
    """FieldBlock of the group's (G, S, N, 2, 10) coefficients over the
    fan triangles: field g S + s is the field of target s of vertex g."""
    tris, rows = _sorted_rows(topology, table, coeffs)
    return _rows_block(topology, tris[:, None], rows)


def _xi(table: EdgeTable, i, c):
    """(uncorrected, mean-zero corrected) corrector of direction i[g] in
    {0, 1, 2} of each vertex of an interior group, each (G, N, 2, 10),
    from the vertices' c-coefficients (G, N, 2).  Directions 1 and 2 are the
    directional correctors; direction 0 is the sum of the normal
    correctors, whose uncorrected part is zero."""
    i = np.asarray(i)
    G, n, n_mono = table.l_z2.shape
    tilde = np.zeros((G, n, 2, n_mono))
    g = np.flatnonzero(i > 0)
    tilde[g, :, i[g] - 1] = table.l_z2[g]
    # c_{N,i} = 0: the last corrector drops out
    weights = c[np.arange(G), :, np.maximum(i - 1, 0)]
    weights[:, -1] = 0.0
    weights[i == 0] = -1.0
    return tilde, tilde - _combine(weights, table.chi)


# ---------------------------------------------------------------------------
# Kronecker bases in closed form
#
# A chain basis v_0..v_{N-1} with div v_p|tris[q](z) = delta_pq starts from
# a seed with a Kronecker vertex divergence at tris[s] and steps along the
# fan: each next field is the edge field of the edge joining consecutive
# triangles minus the previous field.  So every v_p is a signed sum of
# edge fields plus (-1)^(steps from s) times the seed, and an interpolant
# sum_p a_p v_p is one contraction of the table with signed sums of a.


def _combine(c, rows):
    """sum_q c[g, ..., q] rows[g, q] for each member g of a group: weights
    (G, ..., Q) and rows (G, Q, ...), where a leading axis of 1 stands for
    the whole group.

    The terms are added in q order, so a member of a group and a block
    row get the very bits of their own call (a BLAS product would sum
    groups and blocks of different sizes in different orders)."""
    c = np.asarray(c)
    flat = rows.reshape(rows.shape[:2] + (prod(rows.shape[2:]),))
    flat = flat.reshape(flat.shape[:1] + (1,) * (c.ndim - 2) + flat.shape[1:])
    terms = c[..., None] * flat
    return terms.sum(axis=-2).reshape(terms.shape[:-2] + rows.shape[2:])


@lru_cache(maxsize=None)
def _signed_prefix(n):
    """P[p, q] = (-1)^(q - p) for p <= q: (a @ P)[q] = a_q - a_{q-1} + ..."""
    p, q = np.arange(n)[:, None], np.arange(n)
    return _frozen(np.where(p <= q, (-1.0) ** (q - p), 0.0))


@lru_cache(maxsize=None)
def _chains(n: int, boundary: bool):
    """(S, sign): the chain basis of a patch of n triangles seeded at
    tris[s] is v_p = sum_q S[s, p, q] w_q + sign[s, p] seed, for every
    seed position s.

    On an interior patch the chain runs once round the cycle; on a
    boundary patch it runs forward and backward from the seed, so the
    sign of the pollution a seed leaves elsewhere alternates with the
    distance from the seed.
    """
    s = np.arange(n)[:, None, None]
    p, q = np.arange(n)[:, None], np.arange(n - int(boundary))
    if boundary:
        forward = (s <= q) & (q < p)
        backward = (p <= q) & (q < s)
        steps = np.where(forward, p - 1 - q, q - p)
        on_chain = forward | backward
        dist = np.abs(p - s)
    else:
        rp, rq = (p - s) % n, (q - s) % n
        steps = rp - 1 - rq
        on_chain = rq < rp
        dist = rp
    return (_frozen(np.where(on_chain, (-1.0) ** steps, 0.0)),
            _frozen((-1.0) ** dist[..., 0]))


def _contract(table, a, seed, seed_pos):
    """Coefficients (G, S, N, 2, 10) of sum_p a[g, s, p] v_p for the chain
    basis of each vertex's seed (G, N, 2, 10) at tris[seed_pos[g]]."""
    G, n = table.corner.shape
    S, sign = _chains(n, table.spoke.shape[1] > n)
    seed_pos = np.broadcast_to(seed_pos, G)
    S, sign = S[seed_pos], sign[seed_pos]
    return (_combine(_combine(a, S), table.w)
            + _combine(a, sign)[..., None, None, None] * seed[:, None])


# ---------------------------------------------------------------------------
# Local interpolants


def _even_seed(table: EdgeTable, reports, fans):
    """Determinant-normalized corrector seeds (G, N, 2, 10) of a group of
    even interior vertices, each for its direction index in {0, 1, 2},
    from the d-coefficients of their fans in the fan table ``fans``."""
    i = np.array([r.even_index for r in reports])
    g = np.arange(len(i))
    xi = _xi(table, i, fans.c[table.corner])[1]
    dvals = np.where((i == 0)[:, None], 12.0 * fans.d0[table.corner],
                     fans.d[table.corner][g, :, np.maximum(i - 1, 0)])
    det = np.where(i == 0, 12.0 * fans.D[table.z, 0], fans.D[table.z, i])
    # telescoping weights s_0 = 0, s_j = d_j - s_{j-1}; the weight of
    # triangle j multiplies the edge field of the edge joining triangles
    # j and j+1 (cyclic slot j)
    n = dvals.shape[1]
    s = _combine(dvals[:, None, 1:], _signed_prefix(n - 1)[None])[:, 0]
    return (-1.0 / det)[:, None, None, None] * (
        xi - _combine(s, table.w[:, 1:]))


def local_interpolant(reports, target, topology: MeshTopology) -> FieldBlock:
    """Patch fields matching per-triangle vertex-divergence targets at the
    patch centers, with zero triangle means and no pollution elsewhere.

    Dispatches on the vertex class in the reports (from
    ``classify_mesh``): telescoping over edge fields at a singular vertex,
    the alternating-sum seed for odd valence, and the
    determinant-normalized corrector seed for certified even valence,
    which reads the d-coefficients of the vertex's fan in the fan table.

    ``reports`` is a group of the G reports of vertices of one patch
    shape and one class, with targets (G, S, N); field g S + s of the
    block matches target s of vertex g.  One report, with one target
    vector (N,) or a block (S, N) of them, is a group of one.  The group
    shares one edge table and one contraction, and each field has the
    very bits of a call on its vertex and target alone.
    """
    z, reports, a = _group(topology, reports, target, "target values")
    report = reports[0]
    if not report.local_interpolating:
        raise FieldError(f"vertex {report.vertex} is not local "
                         f"interpolating ({report.status})")
    n = a.shape[-1]
    table = edge_table(z, topology)

    if report.status == SINGULAR:
        alt = (a * (-1.0) ** np.arange(n)).sum(axis=-1)
        scale = np.maximum(np.abs(a).max(axis=-1), 1e-30)
        bad = np.abs(alt) > 1e-9 * scale
        if bad.any():
            raise FieldError(
                "target violates the alternating-sum constraint at a "
                f"singular vertex (residual {alt[bad][0]:.3e})")
        # weights b_j = a_j - b_{j-1} on the edges 0 .. N-2
        b = _combine(a, _signed_prefix(n)[None, :, :-1])
        return _patch_block(topology, table,
                            _combine(b, table.w[:, :n - 1]))

    if n % 2 == 1:
        seed = _combine(0.5 * _chains(n, False)[1][:1], table.w)
    else:
        seed = _even_seed(table, reports, topology.fans)
    return _patch_block(topology, table, _contract(table, a, seed, 0))


def boundary_interpolant(reports, p_values, topology: MeshTopology):
    """Match vertex-divergence targets at boundary vertices.

    Singular boundary vertices (by their reports, from ``classify_mesh``)
    route through local_interpolant (no side effects).  Otherwise the seed
    uses the zero-edge-mean scalar on the straightest interior edge, which
    pollutes that edge's far endpoint.

    ``reports`` is a group of the G reports of boundary vertices of one
    patch shape and one class, with targets (G, S, N), or one report with
    one target vector (N,) or a block (S, N) of them (a group of one), as
    for local_interpolant.  Returns the FieldBlock of their fields and, as
    VertexValues, the residual divergences they leave at interior
    vertices.
    """
    z, reports, a = _group(topology, reports, p_values, "values")
    fans = topology.fans
    if not fans.boundary[z[0]]:
        raise FieldError("patch center is not a boundary vertex")
    if reports[0].singular:
        return local_interpolant(reports, a, topology), _NO_VALUES
    if a.shape[-1] < 2:
        raise FieldError("non-singular boundary patch needs >= 2 triangles")

    table = edge_table(z, topology)
    theta = fans.theta[table.corner]
    sums = theta[:, :-1] + theta[:, 1:]
    sines = np.abs(np.sin(sums))
    # The seed pollutes the far endpoint of its interior edge.  Prefer a
    # pair whose far endpoint is an interior vertex (the pollution is then
    # absorbed by the interior interpolation passes); fall back to the
    # overall straightest pair otherwise.
    interior_far = ~topology.boundary_vertex[fans.spoke[table.spoke[:, 1:-1]]]
    usable = interior_far & (sines > 1e-8)
    # seed pair: tris[s], tris[s+1]
    s = np.where(usable.any(axis=1),
                 np.argmax(np.where(usable, sines, -1.0), axis=1),
                 np.argmax(sines, axis=1))
    g = np.arange(len(z))
    coef = (2.0 * fans.edge_len[table.spoke[g, s + 1]] * np.sin(theta[g, s])
            / np.sin(sums[g, s]))
    tvec = fans.tangent[table.spoke[g, s + 2]]
    seed = (coef[:, None] * tvec)[:, None, :, None] \
        * table.kappa[g, s][:, :, None, :]

    coeffs = _contract(table, a, seed, s)
    return (_patch_block(topology, table, coeffs),
            _side_effects(topology, table, coeffs))


def _side_effects(topology, table, coeffs):
    """The non-negligible vertex divergences away from the patch centers
    of the fields of the group's (G, S, N, 2, 10) coefficients, in
    (field, triangle, slot) order."""
    tris, rows = _sorted_rows(topology, table, coeffs)
    verts = topology.mesh.triangles[tris]                        # (G, N, 3)
    vals = _div_coeffs(topology.hat_grads[tris][:, None],
                       rows)[..., poly.VERTEX2]                  # (G, S, N, 3)
    tol = 1e-12 * np.maximum(np.abs(coeffs).max(axis=(2, 3, 4),
                                                initial=0.0), 1e-30)
    keep = ~(np.abs(vals) <= tol[..., None, None]) \
        & (verts != table.z[:, None, None])[:, None]
    g, s, j, slot = np.nonzero(keep)
    return VertexValues(g * coeffs.shape[1] + s, tris[g, j],
                        verts[g, j, slot], vals[keep])


# ---------------------------------------------------------------------------
# Edge transfer


def edge_transfer(topology: MeshTopology, z: int, y: int, target,
                  tol: Tolerances = Tolerances()):
    """Match targets at z while polluting only the far endpoint y.

    ``target`` is one target vector (N,), or a block (S, N) of them,
    indexed by the triangle order of the fan of z.  Returns the FieldBlock
    of the fields and, as VertexValues, the divergences they spill at y,
    as ``boundary_interpolant`` does; the spill scales with the
    chain-signed alternating sum of the targets divided by the edge weight.
    """
    fans = topology.fans
    n, bd = int(fans.degree[z]), int(fans.boundary[z])
    a = np.asarray(target, dtype=float)
    if a.ndim not in (1, 2) or a.shape[-1] != n:
        raise FieldError(f"expected {n} targets, got "
                         f"{a.shape[-1] if a.ndim else a.size}")
    table = edge_table(z, topology)
    # interior edge k of z ends at the spoke after corner k
    k = np.flatnonzero(fans.spoke[table.spoke[0, bd:n]] == y)
    if not len(k):
        raise FieldError(f"{{{z}, {y}}} is not an interior edge at {z}")
    k = int(k[0])
    corners = table.corner[0, (k + _PAIR) % n]      # in the edge triangles
    cotA, cotB = topology.cot[fans.tri[corners], fans.slot[corners]]
    M = cotA + cotB
    if abs(M) <= tol.accept:
        raise UnacceptableEdgeError(
            f"edge ({z}, {y}) has weight {M:.3e} below tolerance")

    spoke = table.spoke[0, k + bd]
    r = (2.0 * fans.edge_len[spoke] * fans.normal[spoke])[:, None] \
        * table.kappa[0, k][:, None, :]
    seed = (1.0 / M) * (r + cotB * table.w[0, k])

    coeffs = _contract(table, a.reshape((1,) * (3 - a.ndim) + a.shape),
                       seed[None], k)
    return (_patch_block(topology, table, coeffs),
            _side_effects(topology, table, coeffs))


# ---------------------------------------------------------------------------
# Verifier


@dataclass(slots=True)
class FieldCheck:
    name: str
    ok: bool
    deviation: float
    detail: str = ""
    field: int = 0          # index of the checked field in its block


# The checks of every field, in the order of FieldReport.checks.
CHECKS = ("continuity", "zero_boundary_trace", "vertex_divergences",
          "zero_triangle_means")


@dataclass
class FieldReport:
    """The checks of F fields: ``passed[f, c]`` and ``deviation[f, c]`` of
    check CHECKS[c] on field f, and the detail of each failing check that
    names its offender, keyed (f, check name)."""

    passed: np.ndarray      # (F, 4) bool
    deviation: np.ndarray   # (F, 4)
    details: dict

    @property
    def checks(self):
        """One FieldCheck per field and check, field by field."""
        return [FieldCheck(name, ok, d, self.details.get((f, name), ""), f)
                for f, (oks, devs) in enumerate(zip(self.passed.tolist(),
                                                    self.deviation.tolist()))
                for name, ok, d in zip(CHECKS, oks, devs)]

    @property
    def ok(self):
        return bool(self.passed.all())

    def failed(self):
        return [c for c in self.checks if not c.ok]

    def failed_fields(self):
        """Indices of the fields with a failing check, ascending."""
        return np.flatnonzero(~self.passed.all(axis=1)).tolist()


_TRACE_S = np.array([0.2, 0.4, 0.6, 0.8])


def _trace_lambdas():
    """Barycentric coordinates of the trace points on local edge k (slots
    k and k+1) in both directions: [k, 0] runs from slot k to slot k+1,
    [k, 1] back, each at the fractions _TRACE_S."""
    lam = np.zeros((3, 2, len(_TRACE_S), 3))
    for k in range(3):
        for d, (a, b) in enumerate(((k, (k + 1) % 3), ((k + 1) % 3, k))):
            lam[k, d, :, a] = 1.0 - _TRACE_S
            lam[k, d, :, b] = _TRACE_S
    return lam


_TRACE_LAM = _trace_lambdas()

# Relative tolerance of every check, against the field's largest
# coefficient or divergence coefficient (at least 1).
RTOL = 1e-9

# Fields per pass of verify_field.  A pass holds the check arrays of its
# rows, about 1.4 KB per support triangle: every benchmark mesh (at most
# 98 fields) takes one pass, and crossed(32) at two samples (4226 fields)
# 34: one pass over all of them raised that run's peak RSS from 82 to
# 102 MiB, and passes of 512 left it 0 to 2 MiB above passes of 128.
VERIFY_FIELDS = 128


def verify_field(block: FieldBlock,
                 expected: VertexValues = _NO_VALUES) -> FieldReport:
    """Check the fields of a block against their expected properties.

    ``expected`` lists expected vertex divergences, at most one entry per
    (field, triangle, vertex); every support (triangle, vertex) pair of a
    field not listed for it is expected to give zero.  Continuity across
    internal support edges, a vanishing trace on the support-region
    boundary and zero triangle means are always checked.

    The block is walked in ranges of VERIFY_FIELDS fields, and the checks
    of a range are one array program over its rows reduced to per-field
    maxima, so a field's checks are those of a call on it alone.  Each
    FieldCheck carries the index of its field.
    """
    e_field = np.asarray(expected.field, dtype=np.int64)
    if len(e_field) and (e_field.min() < 0 or e_field.max() >= block.F):
        raise FieldError(f"expected values name a field outside "
                         f"0 .. {block.F - 1}")
    # by field, and within a field in the order given
    order = np.argsort(e_field, kind="stable")
    e_field, e_tri, e_vertex = (np.asarray(a, dtype=np.int64)[order] for a in
                                (e_field, expected.tri, expected.vertex))
    e_value = np.asarray(expected.value, dtype=float)[order]
    passed, deviation, details = [np.zeros((0, len(CHECKS)), bool)], [
        np.zeros((0, len(CHECKS)))], {}
    for lo in range(0, block.F, VERIFY_FIELDS):
        hi = min(lo + VERIFY_FIELDS, block.F)
        r = slice(*np.searchsorted(block.field, [lo, hi]))
        e = slice(*np.searchsorted(e_field, [lo, hi]))
        ok, dev, found = _verify_range(
            block.topology, lo, hi - lo, block.field[r] - lo, block.tri[r],
            block.coeffs[r], VertexValues(e_field[e] - lo, e_tri[e],
                                          e_vertex[e], e_value[e]))
        passed.append(ok)
        deviation.append(dev)
        details.update(found)
    return FieldReport(np.concatenate(passed), np.concatenate(deviation),
                       details)


def _verify_range(topo, first, F, owner, ts, coeffs, expected):
    """(passed, deviation, details), as in FieldReport, of the checks of
    the F fields first .. first + F - 1, whose rows are numbered from 0 in
    ``owner`` and ``expected.field``."""
    T = topo.T
    tris = topo.mesh.triangles
    key = owner * T + ts
    # a sentinel after the last row, which no (field, triangle) key matches
    keyed = np.append(key, -1)

    def row_of(query):
        """Row of each (field, triangle) key, and whether it is in the block."""
        pos = np.searchsorted(key, query)
        return pos, keyed[pos] == query

    def per_field(row_max, at=np.maximum.at):
        out = np.zeros(F)
        at(out, owner, row_max)
        return out

    divs = _div_coeffs(topo.hat_grads[ts], coeffs)              # (R, 6)
    # traces[i, k, d] is the (4, 2) trace of row i on local edge k, direction d
    values = poly.eval3(coeffs.reshape(-1, len(poly.MONO3)), _TRACE_LAM)
    traces = values.reshape(values.shape[:-1] + (len(ts), 2))
    traces = traces.transpose(3, 0, 1, 2, 4)
    dtol = RTOL * np.maximum(per_field(np.abs(divs).max(axis=1)), 1.0)
    cscale = np.maximum(per_field(np.abs(coeffs).max(axis=(1, 2))), 1.0)

    # trace continuity / zero boundary trace: the twin side of a support
    # side runs the other way, so its reversed trace meets the same points
    twin = topo.twin[ts]                                         # (R, 3)
    row, inside = row_of(owner[:, None] * T + twin // 3)
    inside &= twin >= 0
    row = np.where(inside, row, 0)
    fwd = traces[:, :, 0]                                        # (R, 3, 4, 2)
    jump = np.abs(fwd - traces[row, twin % 3, 1]).max(axis=(2, 3))
    worst_cont = per_field(np.where(inside, jump, 0.0).max(axis=1))
    worst_trace = per_field(np.where(inside, 0.0, np.abs(fwd).max(
        axis=(2, 3))).max(axis=1))
    # one dot product per row, as in _div_coeffs
    means = np.matmul(divs[:, None], poly.INT2_UNIT)[:, 0]
    worst_mean = per_field(np.abs(means))

    # expected vertex divergences: those on a support (triangle, vertex)
    # pair are compared with it; the others lie outside the support, where
    # the field (hence its divergence) is identically zero.  A NaN
    # deviation is passed over, as by a running maximum.
    e_owner, e_tri, e_vertex, e_val = expected
    on_mesh = (e_tri >= 0) & (e_tri < T)
    kt = np.where(on_mesh, e_tri, 0)
    e_row, found = row_of(e_owner * T + kt)
    slot = tris[kt] == e_vertex[:, None]                         # (n, 3)
    matched = on_mesh & found & slot.any(axis=1)
    want = np.zeros((len(ts), 3))
    want[e_row[matched], slot[matched].argmax(axis=1)] = e_val[matched]
    dev = np.abs(divs[:, poly.VERTEX2] - want)                   # (R, 3)
    left = ~matched
    worst_div = per_field(np.fmax.reduce(dev, axis=1), at=np.fmax.at)
    np.fmax.at(worst_div, e_owner[left], np.abs(e_val[left]))
    outside = left & (np.abs(e_val) > dtol[e_owner])
    missing = np.bincount(e_owner[outside], minlength=F) > 0
    ok_div = (worst_div <= dtol) & ~missing

    # the details name the offenders of a failing vertex_divergences check
    details = {}
    for i in np.flatnonzero(~ok_div).tolist():
        mine = e_owner == i
        if missing[i]:
            keys = sorted(zip(e_tri[outside & mine].tolist(),
                              e_vertex[outside & mine].tolist()))
            details[first + i, "vertex_divergences"] = (
                f"expected values outside support: {keys}")
            continue
        # the first largest deviation: support pairs in (triangle, slot)
        # order, then the unmatched entries in the order given
        rows = np.flatnonzero(owner == i)
        rest = np.flatnonzero(left & mine)
        devs = np.concatenate([dev[rows].ravel(), np.abs(e_val[rest])])
        devs = np.where(np.isnan(devs), -1.0, devs)
        j = int(np.argmax(devs)) if len(devs) else 0
        worst_key = None
        if len(devs) and devs[j] > 0.0:
            if j < 3 * len(rows):
                t = int(ts[rows[j // 3]])
                worst_key = (t, int(tris[t, j % 3]))
            else:
                k = rest[j - 3 * len(rows)]
                worst_key = (int(e_tri[k]), int(e_vertex[k]))
        details[first + i, "vertex_divergences"] = f"worst at {worst_key}"

    # columns in CHECKS order
    passed = np.stack([worst_cont <= RTOL * cscale,
                       worst_trace <= RTOL * cscale, ok_div,
                       worst_mean <= dtol], axis=1)
    deviation = np.stack([worst_cont, worst_trace, worst_div, worst_mean],
                         axis=1)
    return passed, deviation, details
