"""Local velocity fields as per-triangle cubic vector polynomials.

All constructions live on small vertex patches: the per-patch table of
edge fields, normal correctors and zero-edge-mean scalars, the local
interpolants (singular / odd / even vertex cases), the boundary
interpolant, and the edge/path transfer machinery that moves
vertex-divergence targets along acceptable mesh edges.  Each returns its
fields as one FieldBlock of support rows, which verify_field checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import prod
from typing import NamedTuple

import numpy as np

from . import poly
from .classify import SINGULAR, DCoefficients, Tolerances, VertexReport
from .mesh import MeshTopology, VertexPatch


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
    (..., 3, 2)."""
    gc = grads @ coeffs                                  # (..., 3, 10)
    return gc.reshape(gc.shape[:-2] + _DIV.shape[1:]) @ _DIV.T


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
    """FieldBlock of coefficients (N, 2, 10) over the ascending triangles
    ``tris``, one field, or of the F fields of (F, N, 2, 10) ones."""
    rows = coeffs.reshape((-1,) + coeffs.shape[-3:])
    F, N = rows.shape[:2]
    rows = rows.reshape(F * N, 2, len(poly.MONO3))
    keep = np.flatnonzero(rows.any(axis=(1, 2)))
    return FieldBlock(topology, F, _frozen(keep // N),
                      _frozen(np.asarray(tris)[keep % N]), _frozen(rows[keep]))


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


def stack_fields(topology: MeshTopology, parts):
    """One (FieldBlock, VertexValues) pair of a sequence of them on
    ``topology``, the fields of each part numbered after those of the
    parts before it."""
    parts = list(parts)
    if any(block.topology is not topology for block, _ in parts):
        raise FieldError("fields live on different topologies")
    blocks, values = [b for b, _ in parts], [v for _, v in parts]
    offset = np.cumsum([0] + [b.F for b in blocks])
    none = (np.zeros(0, dtype=np.int64),)

    def numbered(groups):
        return (np.concatenate(none + tuple(g.field for g in groups))
                + np.repeat(offset[:-1], [len(g.field) for g in groups]))

    block = FieldBlock(
        topology, int(offset[-1]), _frozen(numbered(blocks)),
        _frozen(np.concatenate(none + tuple(b.tri for b in blocks))),
        _frozen(np.concatenate([np.zeros((0, 2, len(poly.MONO3)))]
                               + [b.coeffs for b in blocks])))
    return block, VertexValues(numbered(values), *(
        np.concatenate(none + tuple(v[i] for v in values)) for i in (1, 2, 3)))


def center_divergences(topology: MeshTopology, coeffs, patch: VertexPatch):
    """Divergence at the patch center on each of ``patch.tris`` of the
    field with dense coefficients ``coeffs`` (T, 2, 10)."""
    tris = np.asarray(patch.tris)
    div = _div_coeffs(topology.hat_grads[tris], coeffs[tris])
    return div[np.arange(patch.N), poly.VERTEX2[np.asarray(patch.slots)]]


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
    """The interior-edge fields of one vertex patch, over ``patch.tris``.

    Row k belongs to interior edge k, shared by tris[k] and tris[k+1]
    (cyclically on an interior patch), and is zero off those two
    triangles: ``w[k]`` is its edge field (unit vertex divergence at z),
    ``chi[k]`` its normal corrector (interior patches only, else None) and
    ``kappa[k]`` its zero-edge-mean scalar.  ``l_z2[j]`` is l_z^2 on
    tris[j], the profile of the directional correctors.
    """

    patch: VertexPatch
    w: np.ndarray               # (n_int, N, 2, 10)
    chi: np.ndarray | None      # (N, N, 2, 10)
    kappa: np.ndarray           # (n_int, N, 10)
    l_z2: np.ndarray            # (N, 10)


def edge_table(patch: VertexPatch, topology: MeshTopology) -> EdgeTable:
    """Gather every edge field of the patch from _SQUARE and _KAPPA by the
    slot of z and the slot of the spoke in each edge triangle."""
    n, m = patch.N, patch.n_interior_edges
    slots = np.asarray(patch.slots)
    k = np.arange(m)
    pos = (k[:, None] + _PAIR) % n                    # (m, 2) edge triangles
    sz = slots[pos]
    # the edge's spoke is the outgoing one of tris[k], the incoming one of
    # tris[k+1]: slots z + 2 and z + 1 of a counter-clockwise triangle
    sy = (sz + _SPOKE_SLOT) % 3
    eta = np.zeros((m, n, len(poly.MONO3)))          # l_z^2 l_y
    kappa = np.zeros((m, n, len(poly.MONO3)))
    eta[k[:, None], pos] = _SQUARE[sz, sy]
    kappa[k[:, None], pos] = _KAPPA[sz, sy]
    vec = topology.mesh.vertices[_edge_spokes(patch)] - patch.center  # y - z
    w = vec[:, None, :, None] * eta[:, :, None, :]
    chi = None
    if not patch.boundary:
        normal = (12.0 / patch.edge_len)[:, None] * patch.normals
        chi = normal[:, None, :, None] * eta[:, :, None, :]
    return EdgeTable(patch=patch, w=w, chi=chi, kappa=kappa,
                     l_z2=_L_Z2[slots])


def _edge_spokes(patch: VertexPatch) -> np.ndarray:
    """The far endpoint of each interior edge of the patch."""
    return np.asarray(patch.spokes)[np.arange(patch.n_interior_edges)
                                    + int(patch.boundary)]


def _patch_block(topology, patch, coeffs):
    """FieldBlock of (N, 2, 10) coefficients over patch.tris, or of the S
    fields of (S, N, 2, 10) ones."""
    order = np.argsort(patch.tris)
    return _rows_block(topology, np.asarray(patch.tris)[order],
                       coeffs[..., order, :, :])


def _edge_slot(patch: VertexPatch, y: int) -> int:
    """Interior edge slot of the edge {z, y} of the patch."""
    k = np.flatnonzero(_edge_spokes(patch) == y)
    if not len(k):
        raise FieldError(f"{{{patch.z}, {y}}} is not an interior edge at "
                         f"{patch.z}")
    return int(k[0])


def _xi(table: EdgeTable, i: int, dco: DCoefficients):
    """(uncorrected, mean-zero corrected) directional corrector of
    direction i in {1, 2}, each (N, 2, 10)."""
    n, n_mono = table.l_z2.shape
    tilde = np.zeros((n, 2, n_mono))
    tilde[:, i - 1] = table.l_z2
    # c_{N,i} = 0: the last corrector drops out
    return tilde, tilde - _combine(dco.c[:-1, i - 1], table.chi[:-1])


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
    """sum_q c[..., q] rows[q] for one weight vector or a block of them.

    The terms are added in q order, so a row of a block gets the very bits
    of its own call (a BLAS product would sum a block and a vector in
    different orders)."""
    c = np.asarray(c)
    terms = c[..., :, None] * rows.reshape(len(rows), prod(rows.shape[1:]))
    return terms.sum(axis=-2).reshape(c.shape[:-1] + rows.shape[1:])


@lru_cache(maxsize=None)
def _signed_prefix(n):
    """P[p, q] = (-1)^(q - p) for p <= q: (a @ P)[q] = a_q - a_{q-1} + ..."""
    p, q = np.arange(n)[:, None], np.arange(n)
    return _frozen(np.where(p <= q, (-1.0) ** (q - p), 0.0))


@lru_cache(maxsize=None)
def _chain(n: int, boundary: bool, seed_pos: int):
    """(S, sign): the chain basis of a patch of n triangles seeded at
    tris[seed_pos] is v_p = sum_q S[p, q] w_q + sign[p] seed.

    On an interior patch the chain runs once round the cycle; on a
    boundary patch it runs forward and backward from the seed, so the
    sign of the pollution a seed leaves elsewhere alternates with the
    distance from the seed.
    """
    p, q = np.arange(n)[:, None], np.arange(n - int(boundary))
    if boundary:
        forward = (seed_pos <= q) & (q < p)
        backward = (p <= q) & (q < seed_pos)
        steps = np.where(forward, p - 1 - q, q - p)
        on_chain = forward | backward
        dist = np.abs(np.arange(n) - seed_pos)
    else:
        rp, rq = (p - seed_pos) % n, (q - seed_pos) % n
        steps = rp - 1 - rq
        on_chain = rq < rp
        dist = rp[:, 0]
    return (_frozen(np.where(on_chain, (-1.0) ** steps, 0.0)),
            _frozen((-1.0) ** dist))


def _contract(table: EdgeTable, a, seed, seed_pos):
    """Coefficients (N, 2, 10) of sum_p a_p v_p for the chain basis of
    ``seed`` at ``seed_pos``, and the chain signs; a block of targets
    (S, N) gives (S, N, 2, 10)."""
    patch = table.patch
    S, sign = _chain(patch.N, patch.boundary, seed_pos)
    return (_combine(_combine(a, S), table.w)
            + _combine(a, sign)[..., None, None, None] * seed), sign


# ---------------------------------------------------------------------------
# Local interpolants


def _check_report(patch: VertexPatch, report: VertexReport):
    if report.vertex != patch.z:
        raise FieldError(f"report of vertex {report.vertex} given for the "
                         f"patch of vertex {patch.z}")


def _even_seed(table: EdgeTable, i: int, dco: DCoefficients):
    """Determinant-normalized corrector seed of an even interior vertex
    for direction index i in {0, 1, 2}."""
    if i == 0:
        xi = table.chi.sum(axis=0)
        dvals, det = 12.0 * dco.d0, 12.0 * dco.D[0]
    else:
        xi = _xi(table, i, dco)[1]
        dvals, det = dco.d[:, i - 1], dco.D[i]
    # telescoping weights s_0 = 0, s_j = d_j - s_{j-1}; the weight of
    # triangle j multiplies the edge field of the edge joining triangles
    # j and j+1 (cyclic slot j)
    s = dvals[1:] @ _signed_prefix(len(dvals) - 1)
    return (-1.0 / det) * (xi - _combine(s, table.w[1:]))


def _targets(patch: VertexPatch, target, what: str):
    """A target vector (N,) or block (S, N) as floats."""
    a = np.asarray(target, dtype=float)
    if a.ndim not in (1, 2) or a.shape[-1] != patch.N:
        raise FieldError(f"expected {patch.N} {what}, got "
                         f"{a.shape[-1] if a.ndim else a.size}")
    return a


def local_interpolant(patch: VertexPatch, target, topology: MeshTopology,
                      report: VertexReport,
                      dco: DCoefficients | None = None) -> FieldBlock:
    """Patch field matching per-triangle vertex-divergence targets at the
    patch center, with zero triangle means and no pollution elsewhere.

    Dispatches on the vertex class in ``report`` (from ``classify_mesh``):
    telescoping over edge fields at a singular vertex, the alternating-sum
    seed for odd valence, and the determinant-normalized corrector seed
    for certified even valence, which reads the vertex's d-coefficients
    ``dco`` (the ``classify_mesh`` ones).

    ``target`` is one target vector (N,), giving a block of one field, or
    a block (S, N) of them, giving the S fields of one edge table and one
    contraction.
    """
    _check_report(patch, report)
    a = _targets(patch, target, "target values")
    if not report.local_interpolating:
        raise FieldError(
            f"vertex {patch.z} is not local interpolating ({report.status})")
    table = edge_table(patch, topology)

    if report.status == SINGULAR:
        for row in a.reshape(-1, patch.N):
            alt = sum((-1.0) ** j * row[j] for j in range(patch.N))
            scale = max(np.abs(row).max(), 1e-30)
            if abs(alt) > 1e-9 * scale:
                raise FieldError(
                    "target violates the alternating-sum constraint at a "
                    f"singular vertex (residual {alt:.3e})")
        # weights b_j = a_j - b_{j-1} on the edges 0 .. N-2
        b = _combine(a, _signed_prefix(patch.N)[:, :-1])
        return _patch_block(topology, patch,
                            _combine(b, table.w[:patch.N - 1]))

    if patch.N % 2 == 1:
        seed = _combine(0.5 * _chain(patch.N, False, 0)[1], table.w)
    else:
        if dco is None:
            raise FieldError(f"vertex {patch.z} is {report.status}: its "
                             "d-coefficients from classify_mesh are needed")
        seed = _even_seed(table, report.even_index, dco)
    return _patch_block(topology, patch, _contract(table, a, seed, 0)[0])


def boundary_interpolant(patch: VertexPatch, p_values, topology: MeshTopology,
                         report: VertexReport):
    """Match vertex-divergence targets at a boundary vertex.

    Singular boundary vertices (by ``report``, from ``classify_mesh``)
    route through local_interpolant (no side effects).  Otherwise the seed
    uses the zero-edge-mean scalar on the straightest interior edge, which
    pollutes that edge's far endpoint.

    ``p_values`` is one target vector (N,) or a block (S, N) of them.
    Returns the FieldBlock of their fields and, as VertexValues, the
    residual divergences they leave at interior vertices.
    """
    _check_report(patch, report)
    if not patch.boundary:
        raise FieldError("patch center is not a boundary vertex")
    a = _targets(patch, p_values, "values")
    if report.singular:
        return local_interpolant(patch, a, topology, report), _NO_VALUES
    if patch.N < 2:
        raise FieldError("non-singular boundary patch needs >= 2 triangles")

    sums = patch.theta[:-1] + patch.theta[1:]
    sines = np.abs(np.sin(sums))
    # The seed pollutes the far endpoint of its interior edge.  Prefer a
    # pair whose far endpoint is an interior vertex (the pollution is then
    # absorbed by the interior interpolation passes); fall back to the
    # overall straightest pair otherwise.
    interior_far = ~topology.boundary_vertex[np.asarray(patch.spokes[1:-1])]
    usable = interior_far & (sines > 1e-8)
    if usable.any():
        masked = np.where(usable, sines, -1.0)
        s = int(np.argmax(masked))               # seed pair: tris[s], tris[s+1]
    else:
        s = int(np.argmax(sines))
    sin_pair = np.sin(sums[s])
    coef = 2.0 * patch.edge_len[s + 1] * np.sin(patch.theta[s]) / sin_pair
    tvec = patch.tangents[s + 2]
    table = edge_table(patch, topology)
    seed = (coef * tvec)[:, None] * table.kappa[s][:, None, :]

    coeffs = _contract(table, a, seed, s)[0].reshape(-1, patch.N, 2,
                                                     len(poly.MONO3))
    return (_patch_block(topology, patch, coeffs),
            _side_effects(topology, patch, coeffs))


def _side_effects(topology, patch, coeffs):
    """The non-negligible vertex divergences away from the patch center of
    the fields of (S, N, 2, 10) patch coefficients, in (field, triangle,
    slot) order."""
    order = np.argsort(patch.tris)
    tris = np.asarray(patch.tris)[order]
    verts = topology.mesh.triangles[tris]                        # (N, 3)
    vals = _div_coeffs(topology.hat_grads[tris],
                       coeffs[:, order])[..., poly.VERTEX2]      # (S, N, 3)
    tol = 1e-12 * np.maximum(np.abs(coeffs).max(axis=(1, 2, 3),
                                                initial=0.0), 1e-30)
    keep = ~(np.abs(vals) <= tol[:, None, None]) & (verts != patch.z)
    field, j, slot = np.nonzero(keep)
    return VertexValues(field, tris[j], verts[j, slot], vals[keep])


# ---------------------------------------------------------------------------
# Edge and path transfer


@dataclass
class TransferInfo:
    z: int
    y: int
    s_a: float            # chain-signed alternating sum of the targets,
                          # one per row of a target block
    spill: VertexValues   # the divergences left at y


def edge_transfer(topology: MeshTopology, z: int, y: int, target,
                  tol: Tolerances = Tolerances()):
    """Match targets at z while polluting only the far endpoint y.

    ``target`` is one target vector (N,), or a block (S, N) of them,
    indexed by the patch triangle order at z (``topology.patches[z].tris``).
    Returns (FieldBlock, TransferInfo); the spill at y scales with the
    chain-signed alternating sum of the targets divided by the edge weight.
    """
    patch = topology.patches[z]
    a = _targets(patch, target, "targets")
    k = _edge_slot(patch, y)
    pos = (k + _PAIR) % patch.N                      # the two edge triangles
    pair = np.asarray(patch.tris)[pos]
    cotA, cotB = topology.cot[pair, np.asarray(patch.slots)[pos]]
    M = cotA + cotB
    if abs(M) <= tol.accept:
        raise UnacceptableEdgeError(
            f"edge ({z}, {y}) has weight {M:.3e} below tolerance")

    elen = patch.edge_len[patch.edge_spoke(k)]
    table = edge_table(patch, topology)
    r = (2.0 * elen * patch.normals[k])[:, None] * table.kappa[k][:, None, :]
    seed = (1.0 / M) * (r + cotB * table.w[k])

    coeffs, signs = _contract(table, a, seed, k)
    rows = coeffs.reshape(-1, patch.N, 2, len(poly.MONO3))
    slot_y = (topology.mesh.triangles[pair] == y).argmax(axis=1)
    div = _div_coeffs(topology.hat_grads[pair], rows[:, pos])    # (S, 2, 6)
    at_y = div[:, _PAIR, poly.VERTEX2[slot_y]]                   # (S, 2)
    S = len(rows)
    spill = VertexValues(np.repeat(np.arange(S), 2), np.tile(pair, S),
                         np.full(2 * S, y), at_y.ravel())
    info = TransferInfo(z=z, y=y, s_a=a @ signs, spill=spill)
    return _patch_block(topology, patch, coeffs), info


@dataclass
class PathResult:
    field: FieldBlock
    end_spill: VertexValues  # the divergences left at the end vertex


def path_interpolant(topology: MeshTopology, vertices, target,
                     tol: Tolerances = Tolerances()) -> PathResult:
    """Transfer vertex-divergence targets from the path start to its end.

    Matches the targets (N,) at vertices[0], leaves zero vertex divergence
    at every intermediate vertex, and pollutes only the two triangles at
    the far end.  Every traversed edge must have weight above tolerance.
    """
    verts = [int(v) for v in vertices]
    if len(verts) < 2:
        raise FieldError("a path needs at least two vertices")
    if len(set(verts)) != len(verts):
        raise FieldError("path vertices must be distinct")
    if np.ndim(target) != 1:
        raise FieldError("a path transfers one target vector")
    acc = np.zeros((topology.T, 2, len(poly.MONO3)))
    a = target
    for z, ynext in zip(verts[:-1], verts[1:]):
        block, _ = edge_transfer(topology, z, ynext, a, tol)
        acc[block.tri] += block.coeffs
        # what the next hop removes; at the end vertex, the spill
        vals = center_divergences(topology, acc, topology.patches[ynext])
        a = -vals
    end = topology.patches[verts[-1]]
    hit = np.flatnonzero(vals != 0.0)
    end_spill = VertexValues(np.zeros(len(hit), dtype=np.int64),
                             np.asarray(end.tris)[hit],
                             np.full(len(hit), end.z), vals[hit])
    return PathResult(field=field_block(topology, acc), end_spill=end_spill)


# ---------------------------------------------------------------------------
# Verifier


@dataclass(slots=True)
class FieldCheck:
    name: str
    ok: bool
    deviation: float
    detail: str = ""
    field: int = 0          # index of the checked field in its block


@dataclass
class FieldReport:
    checks: list

    @property
    def ok(self):
        return all(c.ok for c in self.checks)

    def failed(self):
        return [c for c in self.checks if not c.ok]

    def failed_fields(self):
        """Indices of the fields with a failing check, ascending."""
        return sorted({c.field for c in self.checks if not c.ok})


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
    checks = []
    for lo in range(0, block.F, VERIFY_FIELDS):
        hi = min(lo + VERIFY_FIELDS, block.F)
        r = slice(*np.searchsorted(block.field, [lo, hi]))
        e = slice(*np.searchsorted(e_field, [lo, hi]))
        checks += _verify_range(
            block.topology, lo, hi - lo, block.field[r] - lo, block.tri[r],
            block.coeffs[r], VertexValues(e_field[e] - lo, e_tri[e],
                                          e_vertex[e], e_value[e]))
    return FieldReport(checks)


def _verify_range(topo, first, F, owner, ts, coeffs, expected):
    """The checks of the F fields first .. first + F - 1, whose rows are
    numbered from 0 in ``owner`` and ``expected.field``."""
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
    worst_mean = per_field(np.abs(divs @ poly.INT2_UNIT))

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
            details[i, "vertex_divergences"] = (
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
        details[i, "vertex_divergences"] = f"worst at {worst_key}"

    columns = [
        ("continuity", worst_cont <= RTOL * cscale, worst_cont),
        ("zero_boundary_trace", worst_trace <= RTOL * cscale, worst_trace),
        ("vertex_divergences", ok_div, worst_div),
        ("zero_triangle_means", worst_mean <= dtol, worst_mean)]
    names = [name for name, _, _ in columns]
    oks = np.stack([ok for _, ok, _ in columns], axis=1).tolist()
    devs = np.stack([d for _, _, d in columns], axis=1).tolist()
    return [FieldCheck(name, ok, d, details.get((i, name), ""), first + i)
            for i, (ok_row, dev_row) in enumerate(zip(oks, devs))
            for name, ok, d in zip(names, ok_row, dev_row)]
