"""Local velocity fields as per-triangle cubic vector polynomials.

All constructions live on small vertex patches: the edge fields w, the
normal correctors chi, the directional correctors xi, the zero-edge-mean
scalar kappa, the local interpolants (singular / odd / even vertex cases),
the boundary interpolant, and the edge/path transfer machinery that moves
vertex-divergence targets along acceptable mesh edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import prod

import numpy as np

from . import poly
from .classify import SINGULAR, DCoefficients, Tolerances, VertexReport
from .mesh import MeshTopology, VertexPatch


class FieldError(ValueError):
    """A field construction's preconditions are not met."""


class UnacceptableEdgeError(FieldError):
    """Transfer requested across an edge with (near-)zero weight."""


# ---------------------------------------------------------------------------
# Polynomial containers


def _tri_slots(mesh, t, *verts):
    tri = mesh.triangles[t].tolist()
    out = []
    for v in verts:
        if v not in tri:
            raise FieldError(f"vertex {v} not in triangle {t}")
        out.append(tri.index(v))
    return out


# The divergence's degree-2 coefficients as one contraction with the
# stacked DIFF: div = sum_s DIFF[s] @ (g @ c)[s] = _DIV @ (g @ c).ravel().
_DIV = poly.DIFF.transpose(1, 0, 2).reshape(len(poly.MONO2), -1)    # (6, 30)


def _div_coeffs(grads, coeffs):
    """Degree-2 divergence coefficients, shape (..., 6), of vector cubics
    with coefficients (..., 2, 10) on triangles with hat gradients
    (..., 3, 2)."""
    gc = grads @ coeffs                                  # (..., 3, 10)
    return gc.reshape(gc.shape[:-2] + _DIV.shape[1:]) @ _DIV.T


def _edge_lambda(mesh, t, va, vb, s):
    """Barycentric coords in triangle t of the point (1-s) va + s vb."""
    sa, sb = _tri_slots(mesh, t, va, vb)
    lam = np.zeros(np.shape(s) + (3,)) if np.ndim(s) else np.zeros(3)
    if np.ndim(s):
        lam[..., sa] = 1.0 - np.asarray(s)
        lam[..., sb] = np.asarray(s)
    else:
        lam[sa], lam[sb] = 1.0 - s, s
    return lam


class ScalarPatchField:
    """Piecewise cubic scalar with local support, one coefficient vector
    (length 10, barycentric monomial basis) per support triangle."""

    def __init__(self, topology: MeshTopology, coeffs=None):
        self.topology = topology
        self.coeffs = {} if coeffs is None else dict(coeffs)

    @property
    def support(self):
        return frozenset(self.coeffs)

    def eval(self, t, lam):
        if t not in self.coeffs:
            return np.zeros(np.shape(np.asarray(lam))[:-1])
        return poly.eval3(self.coeffs[t], lam)

    def gradient_at_vertex(self, t, v):
        (slot,) = _tri_slots(self.topology.mesh, t, v)
        c = self.coeffs.get(t)
        if c is None:
            return np.zeros(2)
        # d/dl_s at vertex `slot`, for s = 0, 1, 2, then the chain rule
        partials = poly.DIFF[:, poly.VERTEX2[slot]] @ c
        return partials @ self.topology.hat_grads[t]

    def edge_integral(self, t, va, vb):
        """Integral of the trace along the straight edge from va to vb."""
        mesh = self.topology.mesh
        lam = _edge_lambda(mesh, t, va, vb, poly.EDGE_QP)
        vals = self.eval(t, lam)
        length = float(np.hypot(*(mesh.vertices[vb] - mesh.vertices[va])))
        return length * float(poly.EDGE_QW @ vals)


class PatchField:
    """Piecewise cubic vector field with local support.

    ``coeffs[t]`` is a (2, 10) array: one barycentric-monomial coefficient
    vector per Cartesian component, in triangle t's own vertex order.
    """

    def __init__(self, topology: MeshTopology, coeffs=None):
        self.topology = topology
        self.coeffs = {} if coeffs is None else {t: np.array(c) for t, c in coeffs.items()}

    @property
    def support(self):
        return frozenset(self.coeffs)

    def copy(self):
        return PatchField(self.topology, self.coeffs)

    def __add__(self, other):
        if other.topology is not self.topology:
            raise FieldError("fields live on different topologies")
        out = {t: c.copy() for t, c in self.coeffs.items()}
        for t, c in other.coeffs.items():
            if t in out:
                out[t] = out[t] + c
            else:
                out[t] = c.copy()
        return PatchField(self.topology, out)

    def __sub__(self, other):
        return self + (-1.0) * other

    def __rmul__(self, a):
        return PatchField(self.topology,
                          {t: float(a) * c for t, c in self.coeffs.items()})

    def __mul__(self, a):
        return self.__rmul__(a)

    def max_coeff(self):
        if not self.coeffs:
            return 0.0
        return max(float(np.abs(c).max()) for c in self.coeffs.values())

    def eval(self, t, lam):
        if t not in self.coeffs:
            return np.zeros(np.shape(np.asarray(lam))[:-1] + (2,))
        return poly.eval3(self.coeffs[t], lam)

    def div_coeffs(self, t):
        """Degree-2 coefficient vector of the divergence on triangle t."""
        c = self.coeffs.get(t)
        if c is None:
            return np.zeros(len(poly.MONO2))
        return _div_coeffs(self.topology.hat_grads[t], c)

    def div_at(self, t, v):
        """Divergence restricted to triangle t, evaluated at vertex v."""
        (slot,) = _tri_slots(self.topology.mesh, t, v)
        return float(self.div_coeffs(t)[poly.VERTEX2[slot]])

    def div_mean(self, t):
        """Mean of the divergence over triangle t (integral / area)."""
        return float(poly.INT2_UNIT @ self.div_coeffs(t))

    def div_integral(self, t):
        return float(self.topology.area[t]) * self.div_mean(t)

    def vertex_divergences(self, skip_zero=True, tol=0.0):
        """Map (triangle, vertex) -> divergence value over the support."""
        out = {}
        mesh = self.topology.mesh
        for t in sorted(self.coeffs):
            vals = self.div_coeffs(t)[poly.VERTEX2].tolist()
            for v, val in zip(mesh.triangles[t].tolist(), vals):
                if skip_zero and abs(val) <= tol:
                    continue
                out[(t, v)] = val
        return out


def eval_divergence_at_vertex(f: PatchField, t: int, v: int) -> float:
    if t not in f.support:
        raise FieldError(f"triangle {t} is outside the field's support")
    return f.div_at(t, v)


def triangle_mean_divergence(f: PatchField, t: int) -> float:
    return f.div_mean(t)


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


def _frozen(a):
    a.setflags(write=False)
    return a


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


def _patch_field(topology, patch, coeffs):
    """PatchField of (N, 2, 10) coefficients over patch.tris, without the
    triangles where they vanish; (S, N, 2, 10) coefficients give the list
    of the S fields of their rows."""
    rows = coeffs.reshape((-1,) + coeffs.shape[-3:])
    nonzero = rows.any(axis=(2, 3)).tolist()
    fields = [PatchField(topology, {t: c for t, c, keep in
                                    zip(patch.tris, row, row_nonzero) if keep})
              for row, row_nonzero in zip(rows, nonzero)]
    return fields if coeffs.ndim == 4 else fields[0]


def _edge_slot(patch: VertexPatch, y: int) -> int:
    """Interior edge slot of the edge {z, y} of the patch."""
    k = np.flatnonzero(_edge_spokes(patch) == y)
    if not len(k):
        raise FieldError(f"{{{patch.z}, {y}}} is not an interior edge at "
                         f"{patch.z}")
    return int(k[0])


def _interior_edge_index(topology, z, y):
    key = (min(z, y), max(z, y))
    e = topology.edge_index.get(key)
    if e is None:
        raise FieldError(f"{key} is not a mesh edge")
    if topology.boundary_edge[e]:
        raise FieldError(f"edge {key} is a boundary edge")
    return e


def _edge_row(topology, z, y):
    """(patch of z, table, slot of the interior edge {z, y})."""
    _interior_edge_index(topology, z, y)
    patch = topology.patches[z]
    return patch, edge_table(patch, topology), _edge_slot(patch, y)


# ---------------------------------------------------------------------------
# Elementary fields: views of the table


def w_field(topology: MeshTopology, z: int, y: int) -> PatchField:
    """Two-triangle edge field: unit vertex divergence at z on both
    triangles sharing the interior edge {z, y}, zero everywhere else."""
    patch, table, k = _edge_row(topology, z, y)
    return _patch_field(topology, patch, table.w[k])


def kappa_field(topology: MeshTopology, z: int, y: int) -> ScalarPatchField:
    """Scalar cubic on the two triangles of interior edge {z, y} with zero
    edge mean and gradient at z equal to half the hat gradient of y."""
    patch, table, k = _edge_row(topology, z, y)
    return ScalarPatchField(topology, {t: c for t, c in
                                       zip(patch.tris, table.kappa[k])
                                       if c.any()})


def basis_w(patch: VertexPatch, topology: MeshTopology, k: int) -> PatchField:
    """The edge field of the k-th interior edge of a vertex patch."""
    if not 0 <= k < patch.n_interior_edges:
        raise FieldError(f"no interior edge slot {k} in this patch")
    return _patch_field(topology, patch, edge_table(patch, topology).w[k])


def basis_kappa(topology: MeshTopology, e: int, z: int) -> ScalarPatchField:
    if topology.boundary_edge[e]:
        raise FieldError(f"edge {e} is a boundary edge")
    a, b = topology.edges[e]
    y = int(b) if z == a else int(a) if z == b else None
    if y is None:
        raise FieldError(f"vertex {z} is not an endpoint of edge {e}")
    return kappa_field(topology, z, y)


def _interior_table(patch, topology) -> EdgeTable:
    if patch.boundary:
        raise FieldError("chi and xi fields are defined on interior patches")
    return edge_table(patch, topology)


def basis_chi(patch: VertexPatch, topology: MeshTopology, k: int) -> PatchField:
    """Normal corrector of interior edge k: moves one unit of divergence
    integral from tris[k] to tris[k+1] without touching spoke vertices."""
    table = _interior_table(patch, topology)
    if not 0 <= k < patch.N:
        raise FieldError(f"edge slot {k} out of range")
    return _patch_field(topology, patch, table.chi[k])


def basis_chi_sum(patch: VertexPatch, topology: MeshTopology) -> PatchField:
    table = _interior_table(patch, topology)
    return _patch_field(topology, patch, table.chi.sum(axis=0))


def _xi(table: EdgeTable, i: int, dco: DCoefficients):
    """(uncorrected, mean-zero corrected) directional corrector of
    direction i in {1, 2}, each (N, 2, 10)."""
    n, n_mono = table.l_z2.shape
    tilde = np.zeros((n, 2, n_mono))
    tilde[:, i - 1] = table.l_z2
    # c_{N,i} = 0: the last corrector drops out
    return tilde, tilde - _combine(dco.c[:-1, i - 1], table.chi[:-1])


def basis_xi(patch: VertexPatch, topology: MeshTopology, i: int,
             dco: DCoefficients):
    """Directional corrector pair (uncorrected, mean-zero corrected) for
    Cartesian direction i in {1, 2}; ``dco`` holds the patch's
    d-coefficients."""
    table = _interior_table(patch, topology)
    if i not in (1, 2):
        raise FieldError("direction index must be 1 or 2")
    return tuple(_patch_field(topology, patch, x) for x in _xi(table, i, dco))


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
                      dco: DCoefficients | None = None):
    """Patch field matching per-triangle vertex-divergence targets at the
    patch center, with zero triangle means and no pollution elsewhere.

    Dispatches on the vertex class in ``report`` (from ``classify_mesh``):
    telescoping over edge fields at a singular vertex, the alternating-sum
    seed for odd valence, and the determinant-normalized corrector seed
    for certified even valence, which reads the vertex's d-coefficients
    ``dco`` (the ``classify_mesh`` ones).

    ``target`` is one target vector (N,), giving one ``PatchField``, or a
    block (S, N) of them, giving a list of S fields from one edge table
    and one contraction.
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
        return _patch_field(topology, patch,
                            _combine(b, table.w[:patch.N - 1]))

    if patch.N % 2 == 1:
        seed = _combine(0.5 * _chain(patch.N, False, 0)[1], table.w)
    else:
        if dco is None:
            raise FieldError(f"vertex {patch.z} is {report.status}: its "
                             "d-coefficients from classify_mesh are needed")
        seed = _even_seed(table, report.even_index, dco)
    return _patch_field(topology, patch, _contract(table, a, seed, 0)[0])


@dataclass
class BoundaryResult:
    field: PatchField
    side_effects: dict  # (triangle, interior vertex) -> divergence value


def boundary_interpolant(patch: VertexPatch, p_values, topology: MeshTopology,
                         report: VertexReport):
    """Match vertex-divergence targets at a boundary vertex.

    Singular boundary vertices (by ``report``, from ``classify_mesh``)
    route through local_interpolant (no side effects).  Otherwise the seed
    uses the zero-edge-mean scalar on the straightest interior edge, which
    pollutes that edge's far endpoint; the residual divergences left at
    interior vertices are returned.

    ``p_values`` is one target vector (N,), giving one ``BoundaryResult``,
    or a block (S, N), giving a list of S.
    """
    _check_report(patch, report)
    if not patch.boundary:
        raise FieldError("patch center is not a boundary vertex")
    a = _targets(patch, p_values, "values")
    if report.singular:
        fields = local_interpolant(patch, a, topology, report)
        if a.ndim == 1:
            return BoundaryResult(fields, {})
        return [BoundaryResult(f, {}) for f in fields]
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
    results = [BoundaryResult(f, side) for f, side in zip(
        _patch_field(topology, patch, coeffs),
        _side_effects(topology, patch, coeffs))]
    return results[0] if a.ndim == 1 else results


def _side_effects(topology, patch, coeffs):
    """For each row of (S, N, 2, 10) patch coefficients, the dict
    (triangle, vertex) -> divergence of its non-negligible vertex
    divergences away from the patch center, in triangle then slot order."""
    order = np.argsort(patch.tris)
    tris = np.asarray(patch.tris)[order]
    verts = topology.mesh.triangles[tris]                        # (N, 3)
    vals = _div_coeffs(topology.hat_grads[tris],
                       coeffs[:, order])[..., poly.VERTEX2]      # (S, N, 3)
    tol = 1e-12 * np.maximum(np.abs(coeffs).max(axis=(1, 2, 3),
                                                initial=0.0), 1e-30)
    keep = ~(np.abs(vals) <= tol[:, None, None]) & (verts != patch.z)
    row, j, slot = np.nonzero(keep)
    out = [{} for _ in range(len(coeffs))]
    for r, t, v, val in zip(row.tolist(), tris[j].tolist(),
                            verts[j, slot].tolist(), vals[keep].tolist()):
        out[r][(t, v)] = val
    return out


# ---------------------------------------------------------------------------
# Edge and path transfer


@dataclass
class TransferInfo:
    z: int
    y: int
    order: tuple          # patch triangle order at z (targets are indexed by it)
    edge_pos: int         # position in `order` of the first edge triangle
    M_z: float            # edge weight at z
    s_a: float            # chain-signed alternating sum of the targets
    spill: dict           # (triangle, y) -> divergence value left at y


def edge_transfer(topology: MeshTopology, z: int, y: int, target,
                  tol: Tolerances = Tolerances()):
    """Match targets at z while polluting only the far endpoint y.

    ``target`` is indexed by the patch triangle order at z
    (``topology.patches[z].tris``).
    Returns (field, TransferInfo); the spill at y scales with the
    chain-signed alternating sum of the targets divided by the edge weight.
    """
    patch = topology.patches[z]
    a = np.asarray(target, dtype=float)
    if len(a) != patch.N:
        raise FieldError(f"expected {patch.N} targets, got {len(a)}")
    k = _edge_slot(patch, y)
    tA, tB = patch.edge_tri_pair(k)
    thA, thB = patch.theta[k], patch.theta[(k + 1) % patch.N]
    cotA, cotB = 1.0 / np.tan(thA), 1.0 / np.tan(thB)
    M = cotA + cotB
    if abs(M) <= tol.accept:
        raise UnacceptableEdgeError(
            f"edge ({z}, {y}) has weight {M:.3e} below tolerance")

    elen = patch.edge_len[patch.edge_spoke(k)]
    table = edge_table(patch, topology)
    r = (2.0 * elen * patch.normals[k])[:, None] * table.kappa[k][:, None, :]
    seed = (1.0 / M) * (r + cotB * table.w[k])

    coeffs, signs = _contract(table, a, seed, k)
    v = _patch_field(topology, patch, coeffs)
    s_a = float(signs @ a)
    spill = {(tA, y): v.div_at(tA, y), (tB, y): v.div_at(tB, y)}
    info = TransferInfo(z=z, y=y, order=patch.tris, edge_pos=k,
                        M_z=M, s_a=s_a, spill=spill)
    return v, info


@dataclass
class PathResult:
    field: PatchField
    infos: list            # per-hop TransferInfo
    end_spill: dict        # (triangle, end vertex) -> divergence value


def path_interpolant(topology: MeshTopology, vertices, target,
                     tol: Tolerances = Tolerances()) -> PathResult:
    """Transfer vertex-divergence targets from the path start to its end.

    Matches the targets at vertices[0], leaves zero vertex divergence at
    every intermediate vertex, and pollutes only the two triangles at the
    far end.  Every traversed edge must have weight above tolerance.
    """
    verts = [int(v) for v in vertices]
    if len(verts) < 2:
        raise FieldError("a path needs at least two vertices")
    if len(set(verts)) != len(verts):
        raise FieldError("path vertices must be distinct")
    acc, info = edge_transfer(topology, verts[0], verts[1], target, tol)
    infos = [info]
    for ell in range(1, len(verts) - 1):
        z, ynext = verts[ell], verts[ell + 1]
        patch = topology.patches[z]
        residual = np.array([acc.div_at(t, z) if t in acc.support else 0.0
                             for t in patch.tris])
        f, info = edge_transfer(topology, z, ynext, -residual, tol)
        acc = acc + f
        infos.append(info)
    end = verts[-1]
    end_patch = topology.patches[end]
    end_spill = {}
    for t in end_patch.tris:
        val = acc.div_at(t, end) if t in acc.support else 0.0
        if val != 0.0:
            end_spill[(t, end)] = val
    return PathResult(field=acc, infos=infos, end_spill=end_spill)


# ---------------------------------------------------------------------------
# Verifier


@dataclass
class FieldCheck:
    name: str
    ok: bool
    deviation: float
    detail: str = ""
    field: int = 0          # index of the checked field in a stacked call


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


def verify_field(f, vertex_divs=None, mean_zero=True, support=None,
                 rtol=1e-9) -> FieldReport:
    """Check constructed fields against their expected properties.

    ``f`` is one PatchField, or a sequence of fields on one topology; then
    ``vertex_divs`` (and ``support``, when given) is a matching sequence.
    ``vertex_divs`` maps (triangle, vertex) to the expected divergence
    value; every support (triangle, vertex) pair not listed is expected to
    give zero.  Continuity across internal support edges and a vanishing
    trace on the support-region boundary are always checked.

    The support triangles of all fields are stacked into one block of rows
    sorted by (field, triangle), and every check is one array program over
    the block reduced to per-field maxima.  Each FieldCheck carries the
    index of its field; a field's checks are those of a call on it alone.
    """
    if isinstance(f, PatchField):
        fields, expected = [f], [vertex_divs]
        supports = None if support is None else [support]
    else:
        fields = list(f)
        expected = ([None] * len(fields) if vertex_divs is None
                    else list(vertex_divs))
        supports = None if support is None else list(support)
    if len(expected) != len(fields) or (supports is not None
                                        and len(supports) != len(fields)):
        raise FieldError("vertex_divs and support need one entry per field")
    if not fields:
        return FieldReport([])
    topo = fields[0].topology
    T, F = topo.T, len(fields)
    tris = topo.mesh.triangles

    # the block: every support triangle of every field, sorted by (field,
    # triangle), and every expected vertex divergence, by field
    tri_list, count, blocks = [], [], []
    exp_keys, exp_vals, exp_count = [], [], []
    for g, d in zip(fields, expected):
        if g.topology is not topo:
            raise FieldError("fields live on different topologies")
        ts = sorted(g.coeffs)
        tri_list += ts
        count.append(len(ts))
        blocks += map(g.coeffs.__getitem__, ts)
        d = d or {}
        exp_keys += d
        exp_vals += d.values()
        exp_count.append(len(d))
    owner = np.repeat(np.arange(F), count)
    ts = np.array(tri_list, dtype=np.int64)
    coeffs = np.array(blocks).reshape(len(ts), 2, len(poly.MONO3))
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
    dtol = rtol * np.maximum(per_field(np.abs(divs).max(axis=1)), 1.0)
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

    # expected vertex divergences: those on a support (triangle, vertex)
    # pair are compared with it; the others lie outside the support, where
    # the field (hence its divergence) is identically zero.  A NaN
    # deviation is passed over, as by a running maximum.
    e_owner = np.repeat(np.arange(F), exp_count)
    e_val = np.array(exp_vals, dtype=float)
    kt, kv = np.array(exp_keys, dtype=np.int64).reshape(-1, 2).T
    on_mesh = (kt >= 0) & (kt < T)
    kt = np.where(on_mesh, kt, 0)
    e_row, found = row_of(e_owner * T + kt)
    slot = tris[kt] == kv[:, None]                               # (n, 3)
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

    columns = []
    if supports is not None:
        allowed = np.array([i * T + t for i, s in enumerate(supports)
                            for t in s if 0 <= t < T], dtype=np.int64)
        extra = ~np.isin(key, allowed)
        columns.append(("support", np.bincount(owner[extra], minlength=F) == 0,
                        np.zeros(F)))
    columns += [
        ("continuity", worst_cont <= rtol * cscale, worst_cont),
        ("zero_boundary_trace", worst_trace <= rtol * cscale, worst_trace),
        ("vertex_divergences", ok_div, worst_div)]
    if mean_zero:
        worst_mean = per_field(np.abs(divs @ poly.INT2_UNIT))
        columns.append(("zero_triangle_means", worst_mean <= dtol, worst_mean))

    # details name the offenders of the failing checks only
    details = {}
    if supports is not None:
        for i in np.flatnonzero(~columns[0][1]).tolist():
            extra_tris = sorted(fields[i].support - set(supports[i]))
            details[i, "support"] = f"extra triangles {extra_tris}"
    for i in np.flatnonzero(~ok_div).tolist():
        mine = e_owner == i
        if missing[i]:
            keys = sorted(exp_keys[j] for j in np.flatnonzero(outside & mine))
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
                worst_key = exp_keys[rest[j - 3 * len(rows)]]
        details[i, "vertex_divergences"] = f"worst at {worst_key}"

    names = [name for name, _, _ in columns]
    oks = np.stack([ok for _, ok, _ in columns], axis=1).tolist()
    devs = np.stack([d for _, _, d in columns], axis=1).tolist()
    return FieldReport([
        FieldCheck(name, ok, d, details.get((i, name), ""), i)
        for i, (ok_row, dev_row) in enumerate(zip(oks, devs))
        for name, ok, d in zip(names, ok_row, dev_row)])
