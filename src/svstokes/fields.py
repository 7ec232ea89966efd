"""Local velocity fields as per-triangle cubic vector polynomials.

All constructions live on small vertex patches: the edge fields w, the
normal correctors chi, the directional correctors xi, the zero-edge-mean
scalar kappa, the local interpolants (singular / odd / even vertex cases),
the boundary interpolant, and the edge/path transfer machinery that moves
vertex-divergence targets along acceptable mesh edges.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import poly
from .classify import (SINGULAR, Tolerances, VertexReport,
                       compute_dcoefficients)
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


# Degree-3 coefficients of every product of hat functions of degree <= 3
# (homogenized), expanded once: the fields only ever ask for these few.
_HAT_MONOMIALS = {
    (a, b, c): poly.bary_poly([(1.0, (a, b, c))])
    for a in range(4) for b in range(4 - a) for c in range(4 - a - b)
}
for _coeffs in _HAT_MONOMIALS.values():
    _coeffs.setflags(write=False)


def _hat_monomial(exponents):
    """Degree-3 coefficients of a product of hat functions (homogenized),
    read-only."""
    return _HAT_MONOMIALS[tuple(exponents)]


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
# Elementary fields


def _interior_edge_index(topology, z, y):
    key = (min(z, y), max(z, y))
    e = topology.edge_index.get(key)
    if e is None:
        raise FieldError(f"{key} is not a mesh edge")
    if topology.boundary_edge[e]:
        raise FieldError(f"edge {key} is a boundary edge")
    return e


def w_field(topology: MeshTopology, z: int, y: int) -> PatchField:
    """Two-triangle edge field: unit vertex divergence at z on both
    triangles sharing the interior edge {z, y}, zero everywhere else."""
    e = _interior_edge_index(topology, z, y)
    mesh = topology.mesh
    vec = mesh.vertices[y] - mesh.vertices[z]
    coeffs = {}
    for t in topology.edge_tris[e]:
        sz, sy = _tri_slots(mesh, t, z, y)
        expo = [0, 0, 0]
        expo[sz] = 2
        expo[sy] = 1
        eta = _hat_monomial(expo)
        coeffs[t] = np.outer(vec, eta)
    return PatchField(topology, coeffs)


def kappa_field(topology: MeshTopology, z: int, y: int) -> ScalarPatchField:
    """Scalar cubic on the two triangles of interior edge {z, y} with zero
    edge mean and gradient at z equal to half the hat gradient of y."""
    e = _interior_edge_index(topology, z, y)
    mesh = topology.mesh
    coeffs = {}
    for t in topology.edge_tris[e]:
        sz, sy = _tri_slots(mesh, t, z, y)
        cubic = [0, 0, 0]
        cubic[sz] = 2
        cubic[sy] = 1
        quad = [0, 0, 0]
        quad[sz] = 1
        quad[sy] = 1
        coeffs[t] = _hat_monomial(cubic) - 0.5 * _hat_monomial(quad)
    return ScalarPatchField(topology, coeffs)


def basis_w(patch: VertexPatch, topology: MeshTopology, k: int) -> PatchField:
    """The edge field of the k-th interior edge of a vertex patch."""
    if not 0 <= k < patch.n_interior_edges:
        raise FieldError(f"no interior edge slot {k} in this patch")
    y = patch.spokes[patch.edge_spoke(k)]
    return w_field(topology, patch.z, y)


def basis_kappa(topology: MeshTopology, e: int, z: int) -> ScalarPatchField:
    if topology.boundary_edge[e]:
        raise FieldError(f"edge {e} is a boundary edge")
    a, b = topology.edges[e]
    y = int(b) if z == a else int(a) if z == b else None
    if y is None:
        raise FieldError(f"vertex {z} is not an endpoint of edge {e}")
    return kappa_field(topology, z, y)


def basis_chi(patch: VertexPatch, topology: MeshTopology, k: int) -> PatchField:
    """Normal corrector of interior edge k: moves one unit of divergence
    integral from tris[k] to tris[k+1] without touching spoke vertices."""
    if patch.boundary:
        raise FieldError("chi fields are defined on interior patches")
    if not 0 <= k < patch.N:
        raise FieldError(f"edge slot {k} out of range")
    y = patch.spokes[k]
    e = _interior_edge_index(topology, patch.z, y)
    scale = 12.0 / patch.edge_len[k]
    n = patch.normals[k]
    mesh = topology.mesh
    coeffs = {}
    for t in topology.edge_tris[e]:
        sz, sy = _tri_slots(mesh, t, patch.z, y)
        expo = [0, 0, 0]
        expo[sz] = 2
        expo[sy] = 1
        eta = _hat_monomial(expo)
        coeffs[t] = scale * np.outer(n, eta)
    return PatchField(topology, coeffs)


def basis_chi_sum(patch: VertexPatch, topology: MeshTopology) -> PatchField:
    out = PatchField(topology)
    for k in range(patch.N):
        out = out + basis_chi(patch, topology, k)
    return out


def basis_xi(patch: VertexPatch, topology: MeshTopology, i: int):
    """Directional corrector pair (uncorrected, mean-zero corrected) for
    Cartesian direction i in {1, 2}."""
    if patch.boundary:
        raise FieldError("xi fields are defined on interior patches")
    if i not in (1, 2):
        raise FieldError("direction index must be 1 or 2")
    mesh = topology.mesh
    direction = np.zeros(2)
    direction[i - 1] = 1.0
    coeffs = {}
    for t in patch.tris:
        (sz,) = _tri_slots(mesh, t, patch.z)
        expo = [0, 0, 0]
        expo[sz] = 2
        coeffs[t] = np.outer(direction, _hat_monomial(expo))
    xi_tilde = PatchField(topology, coeffs)
    dco = compute_dcoefficients(patch, topology)
    xi = xi_tilde
    for k in range(patch.N - 1):   # c_{N,i} = 0: the last corrector drops out
        xi = xi - dco.c[k, i - 1] * basis_chi(patch, topology, k)
    return xi_tilde, xi


# ---------------------------------------------------------------------------
# Kronecker bases by seed-and-chain


def _patch_w(patch, topology, edge_slot):
    return w_field(topology, patch.z, patch.spokes[patch.edge_spoke(edge_slot)])


def _chain_basis(patch, topology, seed, seed_pos):
    """Extend a seed field with a Kronecker vertex divergence at
    tris[seed_pos] into a full basis v_0..v_{N-1}, div v_p|tris[q](z) = d_pq.

    Each step subtracts the previous field from the edge field of the edge
    joining consecutive triangles, so any pollution the seed leaves at
    another vertex alternates in sign along the chain.
    """
    n = patch.N
    fields = [None] * n
    fields[seed_pos] = seed
    if patch.boundary:
        for p in range(seed_pos + 1, n):
            fields[p] = _patch_w(patch, topology, p - 1) - fields[p - 1]
        for p in range(seed_pos - 1, -1, -1):
            fields[p] = _patch_w(patch, topology, p) - fields[p + 1]
    else:
        for step in range(1, n):
            p = (seed_pos + step) % n
            fields[p] = _patch_w(patch, topology, (p - 1) % n) - fields[(p - 1) % n]
    return fields


def _chain_signs(patch, seed_pos):
    """Sign (-1)^distance of each position from the seed along the chain."""
    n = patch.N
    signs = np.empty(n)
    if patch.boundary:
        for p in range(n):
            signs[p] = (-1.0) ** abs(p - seed_pos)
    else:
        for p in range(n):
            signs[p] = (-1.0) ** ((p - seed_pos) % n)
    return signs


# ---------------------------------------------------------------------------
# Local interpolants


def _check_report(patch: VertexPatch, report: VertexReport):
    if report.vertex != patch.z:
        raise FieldError(f"report of vertex {report.vertex} given for the "
                         f"patch of vertex {patch.z}")


def local_interpolant(patch: VertexPatch, target, topology: MeshTopology,
                      report: VertexReport) -> PatchField:
    """Patch field matching per-triangle vertex-divergence targets at the
    patch center, with zero triangle means and no pollution elsewhere.

    Dispatches on the vertex class in ``report`` (from ``classify_mesh``):
    telescoping over edge fields at a singular vertex, the alternating-sum
    seed for odd valence, and the determinant-normalized corrector seed
    for certified even valence.
    """
    _check_report(patch, report)
    a = np.asarray(target, dtype=float)
    if len(a) != patch.N:
        raise FieldError(f"expected {patch.N} target values, got {len(a)}")
    if not report.local_interpolating:
        raise FieldError(
            f"vertex {patch.z} is not local interpolating ({report.status})")

    if report.status == SINGULAR:
        alt = sum((-1.0) ** j * a[j] for j in range(patch.N))
        scale = max(np.abs(a).max(), 1e-30)
        if abs(alt) > 1e-9 * scale:
            raise FieldError(
                "target violates the alternating-sum constraint at a "
                f"singular vertex (residual {alt:.3e})")
        v = PatchField(topology)
        b = 0.0
        n_edges = patch.N - 1 if not patch.boundary else patch.n_interior_edges
        for j in range(n_edges):
            b = a[j] - b
            if b != 0.0:
                v = v + b * _patch_w(patch, topology, j)
        return v

    if patch.N % 2 == 1:
        seed = PatchField(topology)
        for j in range(patch.N):
            seed = seed + (0.5 * (-1.0) ** j) * _patch_w(patch, topology, j)
    else:
        dco = compute_dcoefficients(patch, topology)
        i = report.even_index
        if i == 0:
            xi = basis_chi_sum(patch, topology)
            dvals = 12.0 * dco.d0
            det = 12.0 * dco.D[0]
        else:
            _, xi = basis_xi(patch, topology, i)
            dvals = dco.d[:, i - 1]
            det = dco.D[i]
        # telescoping weights: s_1 = 0, s_j = d_j - s_{j-1}
        s = np.zeros(patch.N)
        for j in range(1, patch.N):
            s[j] = dvals[j] - s[j - 1]
        seed = xi
        for j in range(1, patch.N):
            if s[j] != 0.0:
                # the weight for triangle j multiplies the edge field of the
                # edge joining triangles j and j+1 (cyclic slot j)
                seed = seed - s[j] * _patch_w(patch, topology, j)
        seed = (-1.0 / det) * seed

    basis = _chain_basis(patch, topology, seed, 0)
    v = PatchField(topology)
    for j in range(patch.N):
        if a[j] != 0.0:
            v = v + a[j] * basis[j]
    return v


@dataclass
class BoundaryResult:
    field: PatchField
    side_effects: dict  # (triangle, interior vertex) -> divergence value


def boundary_interpolant(patch: VertexPatch, p_values, topology: MeshTopology,
                         report: VertexReport) -> BoundaryResult:
    """Match vertex-divergence targets at a boundary vertex.

    Singular boundary vertices (by ``report``, from ``classify_mesh``)
    route through local_interpolant (no side effects).  Otherwise the seed
    uses the zero-edge-mean scalar on the straightest interior edge, which
    pollutes that edge's far endpoint; the residual divergences left at
    interior vertices are returned.
    """
    _check_report(patch, report)
    if not patch.boundary:
        raise FieldError("patch center is not a boundary vertex")
    a = np.asarray(p_values, dtype=float)
    if len(a) != patch.N:
        raise FieldError(f"expected {patch.N} values, got {len(a)}")
    if report.singular:
        return BoundaryResult(local_interpolant(patch, a, topology, report),
                              {})
    if patch.N < 2:
        raise FieldError("non-singular boundary patch needs >= 2 triangles")

    sums = patch.theta[:-1] + patch.theta[1:]
    sines = np.abs(np.sin(sums))
    # The seed pollutes the far endpoint of its interior edge.  Prefer a
    # pair whose far endpoint is an interior vertex (the pollution is then
    # absorbed by the interior interpolation passes); fall back to the
    # overall straightest pair otherwise.
    interior_far = np.array([not topology.boundary_vertex[patch.spokes[j + 1]]
                             for j in range(patch.N - 1)])
    usable = interior_far & (sines > 1e-8)
    if usable.any():
        masked = np.where(usable, sines, -1.0)
        s = int(np.argmax(masked))               # seed pair: tris[s], tris[s+1]
    else:
        s = int(np.argmax(sines))
    sin_pair = np.sin(sums[s])
    y = patch.spokes[s + 1]
    coef = 2.0 * patch.edge_len[s + 1] * np.sin(patch.theta[s]) / sin_pair
    tvec = patch.tangents[s + 2]
    kappa = kappa_field(topology, patch.z, y)
    seed = PatchField(topology,
                      {t: np.outer(coef * tvec, c) for t, c in kappa.coeffs.items()})

    basis = _chain_basis(patch, topology, seed, s)
    v = PatchField(topology)
    for j in range(patch.N):
        if a[j] != 0.0:
            v = v + a[j] * basis[j]
    side = {key: val for key, val in v.vertex_divergences(tol=1e-12 * max(
        v.max_coeff(), 1e-30)).items() if key[1] != patch.z}
    return BoundaryResult(v, side)


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
    k = None
    for slot in range(patch.n_interior_edges):
        if patch.spokes[patch.edge_spoke(slot)] == y:
            k = slot
            break
    if k is None:
        raise FieldError(f"{{{z}, {y}}} is not an interior edge at {z}")
    tA, tB = patch.edge_tri_pair(k)
    posA = k            # position of tA in patch.tris
    if patch.boundary:
        thA, thB = patch.theta[k], patch.theta[k + 1]
    else:
        thA, thB = patch.theta[k], patch.theta[(k + 1) % patch.N]
    cotA, cotB = 1.0 / np.tan(thA), 1.0 / np.tan(thB)
    M = cotA + cotB
    if abs(M) <= tol.accept:
        raise UnacceptableEdgeError(
            f"edge ({z}, {y}) has weight {M:.3e} below tolerance")

    elen = patch.edge_len[patch.edge_spoke(k)]
    kappa = kappa_field(topology, z, y)
    n1 = patch.normals[k]
    r = PatchField(topology,
                   {t: np.outer(2.0 * elen * n1, c) for t, c in kappa.coeffs.items()})
    seed = (1.0 / M) * (r + cotB * w_field(topology, z, y))

    basis = _chain_basis(patch, topology, seed, posA)
    signs = _chain_signs(patch, posA)
    v = PatchField(topology)
    for j in range(patch.N):
        if a[j] != 0.0:
            v = v + a[j] * basis[j]
    s_a = float(signs @ a)
    spill = {(tA, y): v.div_at(tA, y), (tB, y): v.div_at(tB, y)}
    info = TransferInfo(z=z, y=y, order=patch.tris, edge_pos=posA,
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


@dataclass
class FieldReport:
    checks: list

    @property
    def ok(self):
        return all(c.ok for c in self.checks)

    def failed(self):
        return [c for c in self.checks if not c.ok]


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


def verify_field(f: PatchField, vertex_divs=None, mean_zero=True,
                 support=None, rtol=1e-9) -> FieldReport:
    """Check a constructed field against its expected properties.

    ``vertex_divs`` maps (triangle, vertex) to the expected divergence
    value; every support (triangle, vertex) pair not listed is expected to
    give zero.  Continuity across internal support edges and a vanishing
    trace on the support-region boundary are always checked.

    The traces and the divergence coefficients of all support triangles
    are computed once, each by one stacked product; every check reads them.
    """
    topo = f.topology
    tris = topo.mesh.triangles
    ts = sorted(f.support)
    row = {t: i for i, t in enumerate(ts)}
    coeffs = np.array([f.coeffs[t] for t in ts]).reshape(
        len(ts), 2, len(poly.MONO3))
    divs = _div_coeffs(topo.hat_grads[ts], coeffs)              # (n, 6)
    # traces[i, k, d] is the (4, 2) trace of ts[i] on local edge k, direction d
    values = poly.eval3(coeffs.reshape(-1, len(poly.MONO3)), _TRACE_LAM)
    traces = values.reshape(values.shape[:-1] + (len(ts), 2))
    traces = traces.transpose(3, 0, 1, 2, 4)
    checks = []
    dscale = float(np.abs(divs).max()) if len(ts) else 0.0
    dtol = rtol * max(dscale, 1.0)
    cscale = max(f.max_coeff(), 1.0)

    if support is not None:
        ok = f.support <= frozenset(support)
        checks.append(FieldCheck("support", ok, 0.0,
                                 "" if ok else f"extra triangles {sorted(f.support - set(support))}"))

    # trace continuity / zero boundary trace
    worst_cont, worst_trace = 0.0, 0.0
    for i, t in enumerate(ts):
        tri = tris[t].tolist()
        for k in range(3):
            a, b = tri[k], tri[(k + 1) % 3]
            here = traces[i, k, 0]
            e = topo.edge_index[(min(a, b), max(a, b))]
            others = [s for s in topo.edge_tris[e] if s != t]
            if others and others[0] in row:
                # the same points, from a to b, in the neighbour's slots
                other = tris[others[0]].tolist()
                sa, sb = other.index(a), other.index(b)
                k2, d2 = (sa, 0) if sb == (sa + 1) % 3 else (sb, 1)
                there = traces[row[others[0]], k2, d2]
                worst_cont = max(worst_cont, float(np.abs(here - there).max()))
            else:
                worst_trace = max(worst_trace, float(np.abs(here).max()))
    checks.append(FieldCheck("continuity", worst_cont <= rtol * cscale, worst_cont))
    checks.append(FieldCheck("zero_boundary_trace", worst_trace <= rtol * cscale,
                             worst_trace))

    expected = dict(vertex_divs or {})
    worst_div = 0.0
    worst_key = None
    for t, vals in zip(ts, divs[:, poly.VERTEX2].tolist()):
        for v, got in zip(tris[t].tolist(), vals):
            want = expected.pop((t, v), 0.0)
            dev = abs(got - want)
            if dev > worst_div:
                worst_div, worst_key = dev, (t, v)
    # Entries left in ``expected`` refer to triangles outside the support,
    # where the field (hence its divergence) is identically zero.
    missing = {k: v for k, v in expected.items() if abs(v) > dtol}
    for k, v in expected.items():
        if abs(v) > worst_div:
            worst_div, worst_key = abs(v), k
    ok = worst_div <= dtol and not missing
    detail = "" if ok else (f"worst at {worst_key}" if not missing
                            else f"expected values outside support: {sorted(missing)}")
    checks.append(FieldCheck("vertex_divergences", ok, worst_div, detail))

    if mean_zero:
        means = divs @ poly.INT2_UNIT
        worst_mean = float(np.abs(means).max()) if len(ts) else 0.0
        checks.append(FieldCheck("zero_triangle_means", worst_mean <= dtol,
                                 worst_mean))
    return FieldReport(checks)
