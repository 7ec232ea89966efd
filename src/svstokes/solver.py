"""Global linear-algebra certification.

Assembles the divergence pairing between the zero-trace cubic Lagrange
velocity space and the raw discontinuous quadratic pressure space,
computes its rank (hence the deficiency K of the constrained pressure
space), the inf-sup constant on the constrained space, spurious pressure
modes, and the integer spline-dimension identities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import poly
from .classify import Tolerances
from .mesh import MeshError, MeshTopology


class SolverError(Exception):
    pass


class RankIndeterminateError(SolverError):
    """Singular-value spectrum has no clear gap at the rank threshold."""


# ---------------------------------------------------------------------------
# reference Lagrange bases on the unit triangle (barycentric coordinates)

def _lagrange_basis(monos, nodes):
    """Coefficient vectors (rows) of the Lagrange basis for the given
    barycentric monomial table and node set."""
    table = np.stack([
        [l0 ** a * l1 ** b * l2 ** c for a, b, c in monos]
        for (l0, l1, l2) in nodes
    ])
    return np.linalg.inv(table)  # column j = coeffs of basis fn j; transpose below


# Cubic scalar nodes: 3 vertices, 2 per edge, 1 center.  Edge nodes are
# listed per local edge (i, j) with the node closer to i first.
P3_EDGE_SLOTS = ((0, 1), (1, 2), (2, 0))
_P3_NODES = [
    (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0),
]
for (i, j) in P3_EDGE_SLOTS:
    for frac in (2.0 / 3.0, 1.0 / 3.0):
        lam = [0.0, 0.0, 0.0]
        lam[i] = frac
        lam[j] = 1.0 - frac
        _P3_NODES.append(tuple(lam))
_P3_NODES.append((1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0))
P3_NODES = tuple(_P3_NODES)

# Quadratic pressure nodes: 3 vertices then midpoints of (0,1), (1,2), (2,0).
P2_NODES = (
    (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0),
    (0.5, 0.5, 0.0), (0.0, 0.5, 0.5), (0.5, 0.0, 0.5),
)

P3_BASIS = _lagrange_basis(poly.MONO3, P3_NODES).T   # (10 nodes, 10 coeffs)
P2_BASIS = _lagrange_basis(poly.MONO2, P2_NODES).T   # (6 nodes, 6 coeffs)

# Quadrature tables on the reference triangle.
_QP, _QW = poly.TRI_QP, poly.TRI_QW
_P3_AT_QP = np.stack([poly.eval3(c, _QP) for c in P3_BASIS])        # (10, nq)
_P2_AT_QP = np.stack([poly.eval2(c, _QP) for c in P2_BASIS])        # (6, nq)
_DP3_AT_QP = np.stack([[poly.eval2(poly.DIFF[s] @ c, _QP)
                        for c in P3_BASIS] for s in range(3)])      # (3, 10, nq)

# Reference tensors: everything except the per-triangle hat gradients.
_PD = np.einsum("qn,san,n->qsa", _P2_AT_QP, _DP3_AT_QP, _QW)        # (6, 3, 10)
_GG = np.einsum("san,tbn,n->stab", _DP3_AT_QP, _DP3_AT_QP, _QW)     # (3,3,10,10)
_MM3 = np.einsum("an,bn,n->ab", _P3_AT_QP, _P3_AT_QP, _QW)          # (10, 10)
_MM2 = np.einsum("an,bn,n->ab", _P2_AT_QP, _P2_AT_QP, _QW)          # (6, 6)
_IV2 = _P2_AT_QP @ _QW                                              # (6,)


# ---------------------------------------------------------------------------
# DOF numbering

def number_dofs(topology: MeshTopology) -> np.ndarray:
    """Global node of each of the 10 local cubic nodes of every triangle,
    shape (T, 10) in P3_NODES order, -1 at boundary nodes (read-only).

    Numbering: interior vertices, then each interior edge's pair of nodes
    (the one nearer the smaller-indexed endpoint first), then the cells.
    Both velocity components share the scalar nodes: velocity DOF of node
    g, component c is 2g + c."""
    T = topology.T
    V0, E0 = topology.V0, topology.E0
    vertex_node = np.full(topology.V, -1, dtype=np.int64)
    vertex_node[~topology.boundary_vertex] = np.arange(V0)
    edge_node = np.full((topology.E, 2), -1, dtype=np.int64)
    edge_node[~topology.boundary_edge] = V0 + np.arange(2 * E0).reshape(E0, 2)
    tris = topology.mesh.triangles
    # Side s runs from slot s to slot s + 1; its node nearer slot s is edge
    # node k = 0 when that slot holds the smaller endpoint.
    k = (tris > np.roll(tris, -1, axis=1)).astype(np.int64)
    near = edge_node[topology.tri_edges, k]
    far = edge_node[topology.tri_edges, 1 - k]
    nodes = np.concatenate([
        vertex_node[tris],
        np.stack([near, far], axis=2).reshape(T, 6),
        (V0 + 2 * E0 + np.arange(T))[:, None],
    ], axis=1)
    expect = T + 2 * E0 + V0
    n = np.unique(nodes[nodes >= 0]).size
    if n != expect:
        raise SolverError(f"node count {n} != T + 2 E0 + V0 = {expect}")
    nodes.setflags(write=False)
    return nodes


def _n_nodes(nodes: np.ndarray) -> int:
    return int(nodes.max(initial=-1)) + 1


# ---------------------------------------------------------------------------
# assembly

def assemble_divergence(topology: MeshTopology, nodes: np.ndarray) -> np.ndarray:
    """B[q-dof, v-dof] = integral of (pressure basis q) * div(velocity
    basis v); pressure DOF of triangle t, local node q is 6t + q.  Each
    entry comes from exactly one triangle."""
    T = topology.T
    n = _n_nodes(nodes)
    div = (topology.area[:, None, None, None]                   # (T, 6, 2, 10)
           * np.einsum("tsc,qsa->tqca", topology.hat_grads, _PD))
    B = np.zeros((6 * T, 2 * n))
    t, a = np.nonzero(nodes >= 0)
    B.reshape(T, 6, n, 2)[t, :, nodes[t, a], :] = div[t, :, :, a]
    return B


def assemble_norms(topology: MeshTopology, nodes: np.ndarray,
                   seminorm: bool = False):
    """(A_s, M): the scalar H1 Gram matrix of the cubic nodes (seminorm
    only if requested) and the pressure mass matrix, which is block
    diagonal: M[t] is the 6x6 block of triangle t, shape (T, 6, 6).  Both
    velocity components share every block, so the velocity Gram matrix is
    A = A_s (x) I_2 in the DOF order 2g + c; it is never formed."""
    area = topology.area
    g = topology.hat_grads
    K = np.einsum("tsc,tuc,suab->tab", g, g, _GG) * area[:, None, None]
    if not seminorm:
        K = K + area[:, None, None] * _MM3                  # (T, 10, 10)
    n = _n_nodes(nodes)
    interior = nodes >= 0
    t, a, b = np.nonzero(interior[:, :, None] & interior[:, None, :])
    A_s = np.zeros((n, n))
    # np.add.at adds in index order, which is triangle order here: every
    # entry sums its contributions triangle by triangle.
    np.add.at(A_s, (nodes[t, a], nodes[t, b]), K[t, a, b])
    return A_s, area[:, None, None] * _MM2


def pressure_constraints(topology: MeshTopology, reports) -> np.ndarray:
    """Rows of the constraint matrix cutting the raw 6T-dimensional
    pressure space down to the constrained space: global mean zero plus
    one alternating-sum condition per singular vertex.  Each row has unit
    2-norm, so the rank decision on them does not depend on the length
    scale (the mean row scales with area, the alternating rows do not)."""
    rows = [(topology.area[:, None] * _IV2).ravel()]
    for r in reports:
        if not r.singular:
            continue
        patch = topology.patches[r.vertex]
        row = np.zeros(6 * topology.T)
        for j, (t, slot) in enumerate(zip(patch.tris, patch.slots)):
            row[6 * t + slot] = (-1.0) ** j
        rows.append(row)
    C = np.vstack(rows)
    return C / np.linalg.norm(C, axis=1, keepdims=True)


def _block_apply(F: np.ndarray, X: np.ndarray) -> np.ndarray:
    """F X for a block-diagonal F stored as its (T, 6, 6) blocks; X has
    6T rows."""
    T, k = F.shape[0], X.shape[1]
    return np.matmul(F, X.reshape(T, 6, k)).reshape(6 * T, k)


def _apply_q(reflectors: np.ndarray, tau: np.ndarray, X: np.ndarray,
             trans: str) -> np.ndarray:
    """Q X (trans "N") or Q^T X (trans "T"), with Q the full orthogonal
    factor of a Householder QR held as (reflectors, tau); X may be
    overwritten."""
    lapack = scipy.linalg.lapack
    work = lapack.dormqr("L", trans, reflectors, tau, X, -1)[1]
    out, _, info = lapack.dormqr("L", trans, reflectors, tau, X,
                                 int(work[0]), overwrite_c=1)
    if info != 0:
        raise SolverError(f"dormqr failed with info {info}")
    return out


def constrained_basis(C: np.ndarray, L_M_inv: np.ndarray):
    """Householder QR ``(reflectors, tau)`` of Z = L_M^-1 C^T, where C
    holds the constraint rows (see ``pressure_constraints``) and L_M_inv
    the (T, 6, 6) inverses of the Cholesky factors of the mass blocks,
    M = L_M L_M^T.  In the M-weighted coordinates u = L_M^T q the
    constrained pressures are the u orthogonal to Z, so the trailing
    6T - len(C) columns of the orthogonal factor Q are an orthonormal
    basis of them; Q is never formed."""
    Z = _block_apply(L_M_inv, C.T)
    lengths = np.linalg.norm(Z, axis=0)
    (reflectors, tau), R = scipy.linalg.qr(Z, mode="raw", overwrite_a=True,
                                           check_finite=False)
    # A row in the span of the others leaves a diagonal entry of R at
    # roundoff size relative to its own column.
    independent = int(np.sum(np.abs(np.diag(R))
                             > max(Z.shape) * np.finfo(float).eps * lengths))
    if independent != C.shape[0]:
        raise SolverError(
            f"constrained pressure dimension {C.shape[1] - independent} != "
            f"6T - 1 - sigma = {C.shape[1] - C.shape[0]}; constraint rows "
            f"are linearly dependent")
    return reflectors, tau


# ---------------------------------------------------------------------------
# the certificate: one values-only SVD gives K and beta; the spurious modes
# come from the same triangular factor

# Relative size of the constraints applied to the divergences, C M^-1 B,
# above which the constrained space does not contain the range of B.
RANGE_RTOL = 1e6 * np.finfo(float).eps


@dataclass(frozen=True)
class Certificate:
    """Spectrum of the weighted divergence pairing

        W = Q_2^T L_M^-1 B L_A^-T,   A = L_A L_A^T,   M = L_M L_M^T,

    with Q_2 the trailing columns of the orthogonal factor of
    ``constrained_basis``: an orthonormal basis of the constrained
    pressures in M-weighted coordinates.  The squared singular values of
    W are the eigenvalues of the pressure Schur complement in the mass
    inner product: the number of zero singular values is K, the smallest
    nonzero one is beta, and the nonzero ones lie in [beta, sqrt(2)].
    With W^T = Q_X R (Q_X has orthonormal columns), ``factor`` is R: W
    has the singular values of R, and its left null vectors are the null
    vectors of R, which ``spurious_modes`` maps back through the
    reflectors and L_M^-T.  A spectrum alone (no factor) certifies K and
    beta but no modes.
    """

    singular_values: np.ndarray     # descending, min(p, n) of them
    shape: tuple                    # (p, n): constrained pressures, velocities
    factor: np.ndarray | None = None        # R, (min(p, n), p), upper
    reflectors: np.ndarray | None = None    # QR of Z, (6T, 1 + sigma)
    tau: np.ndarray | None = None           # its scalars, (1 + sigma,)
    mass_factor_inv: np.ndarray | None = None   # L_M^-1, (T, 6, 6)
    divergence: np.ndarray | None = None    # B, (6T, n)


def _check_range_inclusion(G: np.ndarray, k: int):
    """Every divergence, as a pressure M^-1 B, satisfies the k constraint
    rows.  With G = Q^T L_M^-1 B, C M^-1 B is R_Z^T G[:k] for the
    invertible triangular factor R_Z of Z, so it vanishes exactly when the
    first k rows of G do.  The SVD only sees the remaining rows, so a
    range outside the constrained space would go unnoticed there."""
    dev = float(np.linalg.norm(G[:k]))
    scale = float(np.linalg.norm(G))
    if dev > RANGE_RTOL * scale:
        raise SolverError(
            f"divergences violate the pressure constraints at {dev:.3e} "
            f"relative to {scale:.3e}; range inclusion violated")


def certify(topology: MeshTopology, reports,
            seminorm: bool = False) -> Certificate:
    """Assemble the pairing and its norms, check that the constrained
    pressures contain every divergence, and take the singular values of
    the square factor of W; every command builds this same certificate."""
    nodes = number_dofs(topology)
    B = assemble_divergence(topology, nodes)
    A_s, blocks = assemble_norms(topology, nodes, seminorm=seminorm)
    C = pressure_constraints(topology, reports)
    try:
        # 6 x 6 triangular blocks: inverting them once makes every
        # application of L_M^-1 or L_M^-T one batched product.
        L_M_inv = np.linalg.inv(np.linalg.cholesky(blocks))
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"pressure mass matrix is not SPD: {exc}") from exc
    reflectors, tau = constrained_basis(C, L_M_inv)
    k = C.shape[0]
    G = _apply_q(reflectors, tau, _block_apply(L_M_inv, B), "T")
    _check_range_inclusion(G, k)
    p, n = G.shape[0] - k, G.shape[1]
    try:
        # A_s is symmetric and only one triangle is read, so its transpose
        # is the column-major operand LAPACK factors in place.
        L_s = scipy.linalg.cholesky(A_s.T, lower=True, overwrite_a=True,
                                    check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise SolverError(f"velocity Gram matrix is not SPD: {exc}") from exc
    del A_s
    # W = G[k:] L_A^-T with L_A = L_s (x) I_2.  With X = W^T = Q_X R (Q_X
    # has orthonormal columns), W = R^T Q_X^T has the singular values of
    # R.  The rows of X for component c are L_s^-1 G[k:, c::2]^T: one
    # solve with 2p right-hand sides, column 2j + c for row j of G[k:] and
    # component c.  Column-major, that result is the stacked (n, p) matrix
    # [x-rows; y-rows], a row permutation of X: its QR has the same R up
    # to row signs.  The right-hand side is the one copy of G[k:].
    m = n // 2
    rhs = np.ascontiguousarray(G[k:].reshape(p, m, 2).transpose(0, 2, 1))
    del G
    X = scipy.linalg.solve_triangular(L_s, rhs.reshape(2 * p, m).T,
                                      lower=True, overwrite_b=True,
                                      check_finite=False)
    del L_s, rhs
    _, R = scipy.linalg.qr(X.reshape(n, p, order="F"), mode="raw",
                           overwrite_a=True, check_finite=False)
    del X, _
    s = scipy.linalg.svd(R, compute_uv=False, check_finite=False)
    return Certificate(singular_values=s, shape=(p, n), factor=R,
                       reflectors=reflectors, tau=tau,
                       mass_factor_inv=L_M_inv, divergence=B)


@dataclass(frozen=True)
class RankResult:
    rank: int
    nullity: int
    K: int
    expected_dim: int       # 6T - 1 - sigma
    gap: float              # smallest accepted / largest rejected s.v.,
                            # the latter floored at eps * max(shape) * smax
    singular_values: np.ndarray


def divergence_rank(cert: Certificate, topology: MeshTopology, sigma: int,
                    tol: Tolerances = Tolerances()) -> RankResult:
    """Rank of the pairing and the deficiency K, with the gap test: the
    accepted singular values must clear the rejected ones by 10x."""
    sv = cert.singular_values
    smax = sv[0] if len(sv) else 0.0
    thr = tol.rank * smax
    accepted = sv[sv > thr]
    rejected = sv[sv <= thr]
    gap = float("inf")
    # A rejected value below roundoff level is noise whose size depends on
    # the LAPACK kernel; the gap measures against the roundoff floor then,
    # and also when nothing is rejected.
    floor = np.finfo(float).eps * max(cert.shape) * smax
    largest_rejected = max(rejected[0], floor) if len(rejected) else floor
    if largest_rejected > 0.0:
        gap = (float(accepted[-1] / largest_rejected) if len(accepted)
               else 0.0)
        if gap < 10.0:
            raise RankIndeterminateError(
                f"singular values {accepted[-1]:.3e} / "
                f"{largest_rejected:.3e} straddle the threshold {thr:.3e} "
                f"with gap {gap:.2f} < 10")
    rank = int(len(accepted))
    expected = 6 * topology.T - 1 - sigma
    K = expected - rank
    if K < 0:
        raise SolverError(
            f"rank {rank} exceeds the constrained pressure dimension "
            f"{expected}; range inclusion violated")
    return RankResult(rank=rank, nullity=cert.shape[1] - rank, K=K,
                      expected_dim=expected, gap=gap, singular_values=sv)


def infsup_constant(cert: Certificate, zero_tol: float = 1e-10):
    """(beta, eigenvalues): the eigenvalues of the pressure Schur complement
    on the constrained space in the mass inner product, ascending, those
    below zero_tol times the largest reported as exactly 0; beta is the
    square root of the smallest nonzero one."""
    s = cert.singular_values
    eig = np.zeros(cert.shape[0])
    eig[len(eig) - len(s):] = s[::-1] ** 2
    scale = eig[-1] if len(eig) and eig[-1] > 0 else 1.0
    eig[eig <= zero_tol * scale] = 0.0
    nonzero = s[s ** 2 > zero_tol * scale]
    beta = float(nonzero[-1]) if len(nonzero) else 0.0
    return beta, eig


def spurious_modes(cert: Certificate, rank: RankResult):
    """M-orthonormal basis of the constrained pressures with zero pairing
    against every velocity, returned as raw coefficient vectors.

    The null vectors of the square factor R come from block inverse
    iteration on R^T R from a fixed-seed start.  R is zero-padded to
    square when there are fewer velocities than constrained pressures,
    and its diagonal entries below eps * p * max|r_ii| are raised to that
    floor: exact zero pivots occur, and the floor perturbs R only at
    roundoff level.  The vectors are mapped back through the reflectors
    and L_M^-T, and accepted only if they pair with no velocity."""
    p = cert.shape[0]
    K = p - rank.rank
    if not K:
        return []
    R = np.zeros((p, p))
    R[:cert.factor.shape[0]] = cert.factor
    diag = np.diagonal(R)
    floor = np.finfo(float).eps * p * np.abs(diag).max()
    low = np.flatnonzero(np.abs(diag) < floor)
    R[low, low] = np.copysign(floor, diag[low])
    V = np.random.default_rng(0).standard_normal((p, K))
    # Each step shrinks the other directions by (s_null / s_K+1)^2,
    # roundoff over beta squared, so the second step only polishes.
    for _ in range(2):
        V = scipy.linalg.solve_triangular(R, V, trans="T", check_finite=False)
        V = scipy.linalg.solve_triangular(R, V, check_finite=False)
        V, _ = np.linalg.qr(V)
    U = np.zeros((cert.reflectors.shape[0], K))
    U[-p:] = V
    Q = _block_apply(cert.mass_factor_inv.transpose(0, 2, 1),
                     _apply_q(cert.reflectors, cert.tau, U, "N"))
    B = cert.divergence
    scale = float(np.abs(Q.T @ B).max())
    bscale = max(float(np.abs(B).max()), 1.0)
    if scale > 1e-8 * bscale:
        raise SolverError(f"extracted modes pair with velocities at {scale:.3e}")
    return [Q[:, k] for k in range(Q.shape[1])]


def checkerboard_signature(topology: MeshTopology, mode,
                           rel_tol: float = 0.1) -> bool:
    """True when the mode's per-triangle vertex values alternate in sign
    around every interior vertex (near-zero patches are allowed)."""
    mode = np.asarray(mode)
    scale = float(np.abs(mode).max())
    if scale == 0.0:
        return False
    for patch in topology.patches:
        if patch.boundary:
            continue
        vals = mode[6 * np.array(patch.tris) + patch.slots]
        local = np.abs(vals).max()
        if local < 1e-8 * scale:
            continue
        signs = {np.sign(v) * (-1.0) ** j for j, v in enumerate(vals)
                 if abs(v) >= rel_tol * local}
        if len(signs) > 1:
            return False
    return True


# ---------------------------------------------------------------------------
# spline dimension arithmetic

@dataclass(frozen=True)
class SplineDims:
    dim_s4: int             # clamped C1-quartic zero-BC spline dimension
    dim_s4_raw: int         # unclamped 2 E0 - E + 3 V0 + sigma + K
    strang_dimension: int   # E + 4V - V0 + sigma_i
    hypothesis_ok: bool     # E0 + 3 V0 + sigma >= E - E0
    identity_ok: bool | None
    caveat: str | None


def strang_dimensions(topology: MeshTopology, sigma: int, sigma_i: int,
                      sigma_b: int, K: int) -> SplineDims:
    E, E0, V, V0 = topology.E, topology.E0, topology.V, topology.V0
    if not topology.euler_ok:
        raise MeshError("mesh is not simply connected (Euler check failed)")
    raw = 2 * E0 - E + 3 * V0 + sigma + K
    strang = E + 4 * V - V0 + sigma_i
    hyp = (E0 + 3 * V0 + sigma) >= (E - E0)
    identity = None
    caveat = None
    if K == 0:
        identity = (raw + 6 * (E - E0) - sigma_b) == strang
        if not hyp:
            caveat = ("dimension-count hypothesis E0 + 3 V0 + sigma >= "
                      "E - E0 fails; identity reported for information only")
    elif not hyp:
        caveat = "dimension-count hypothesis fails"
    return SplineDims(dim_s4=max(0, raw), dim_s4_raw=raw,
                      strang_dimension=strang, hypothesis_ok=hyp,
                      identity_ok=identity, caveat=caveat)


def nullity_crosscheck(result: RankResult, topology: MeshTopology,
                       sigma: int) -> dict:
    """Integer identity between the divergence-free velocity dimension
    and the combinatorial formula; mismatch is a hard failure."""
    expect = max(0, 2 * topology.E0 - topology.E + 3 * topology.V0
                 + sigma + result.K)
    report = {"nullity": result.nullity, "expected": expect,
              "ok": result.nullity == expect}
    if not report["ok"]:
        raise SolverError(
            f"nullity(B) = {result.nullity} but the dimension formula "
            f"gives {expect}")
    return report


# ---------------------------------------------------------------------------
# helpers for cross-module oracles and export

def velocity_coefficients(topology: MeshTopology, nodes: np.ndarray,
                          field) -> np.ndarray:
    """Nodal coefficient vector of a piecewise-cubic ``PatchField`` that
    vanishes on the boundary (values sampled at the interior Lagrange
    nodes).  A node shared by several triangles takes its value from the
    highest-numbered one; triangles outside the support give zeros."""
    n = _n_nodes(nodes)
    support = np.array(sorted(field.support), dtype=np.int64)
    vals = np.zeros((topology.T, 10, 2))
    if len(support):
        coeffs = np.stack([field.coeffs[t] for t in support])   # (S, 2, 10)
        at_nodes = poly.eval3(coeffs.reshape(-1, 10), np.array(P3_NODES))
        vals[support] = at_nodes.reshape(10, -1, 2).transpose(1, 0, 2)
    flat = nodes.ravel()
    interior = np.flatnonzero(flat >= 0)
    last = np.full(n, -1, dtype=np.int64)
    np.maximum.at(last, flat[interior], interior)
    return vals.reshape(-1, 2)[last].ravel()
