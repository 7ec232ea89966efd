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
from .mesh import MeshTopology


class SolverError(Exception):
    pass


class RankIndeterminateError(SolverError):
    """Singular-value spectrum has no clear gap at the rank threshold."""


# ---------------------------------------------------------------------------
# reference Lagrange bases on the unit triangle (barycentric coordinates)

def _lagrange_basis(monos, nodes):
    """Coefficient vectors (rows) of the Lagrange basis for the given
    barycentric monomial table and node set, exactly: every coefficient
    of the cubic and the quadratic basis is a multiple of 1/2."""
    table = np.stack([
        [l0 ** a * l1 ** b * l2 ** c for a, b, c in monos]
        for (l0, l1, l2) in nodes
    ])
    # column j = coeffs of basis fn j; transpose below
    return np.round(2.0 * np.linalg.inv(table)) / 2.0


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

# Reference tensors: everything except the per-triangle hat gradients.
# Each contracts the basis coefficients, multiples of 1/2, with the integer
# numerators of the monomial (pair) integrals: exact in any order and under
# any BLAS kernel, so each entry is the exact integral rounded once.
_MONO2, _MONO3 = np.array(poly.MONO2), np.array(poly.MONO3)
_N2, _D2 = poly.unit_integrals(_MONO2)                              # (6,)
_N22, _D4 = poly.unit_integrals(_MONO2[:, None] + _MONO2)           # (6, 6)
_N33, _D6 = poly.unit_integrals(_MONO3[:, None] + _MONO3)           # (10, 10)
_DP3 = poly.DIFF @ P3_BASIS.T                                       # (3, 6, 10)
_PD = np.einsum("qi,ij,sja->qsa", P2_BASIS, _N22, _DP3) / _D4       # (6, 3, 10)
_GG = np.einsum("sia,ij,tjb->stab", _DP3, _N22, _DP3) / _D4         # (3,3,10,10)
_MM3 = P3_BASIS @ _N33 @ P3_BASIS.T / _D6                           # (10, 10)
_MM2 = P2_BASIS @ _N22 @ P2_BASIS.T / _D4                           # (6, 6)
_IV2 = P2_BASIS @ _N2 / _D2                                         # (6,)


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

def assemble_divergence(topology: MeshTopology) -> np.ndarray:
    """Per-triangle blocks of the divergence pairing, shape (T, 6, 2, 10):
    entry [t, q, c, a] is the integral over triangle t of pressure basis q
    times the derivative along x_c of cubic basis a.  In the global
    pairing B[6t + q, 2 g + c], g = nodes[t, a] (see ``number_dofs``),
    each entry comes from exactly one triangle; B is never formed."""
    return (topology.area[:, None, None, None]
            * np.einsum("tsc,qsa->tqca", topology.hat_grads, _PD))


def assemble_norms(topology: MeshTopology, seminorm: bool = False):
    """(K, M): the per-triangle scalar H1 Gram blocks of the cubic nodes
    (seminorm only if requested), shape (T, 10, 10), and the blocks of the
    pressure mass matrix, which is block diagonal, shape (T, 6, 6).  Both
    velocity components share every Gram block, so the velocity Gram
    matrix is A = A_s (x) I_2 in the DOF order 2g + c, with A_s the sum of
    the K blocks at the global nodes; neither is formed."""
    area = topology.area
    g = topology.hat_grads
    K = np.einsum("tsc,tuc,suab->tab", g, g, _GG) * area[:, None, None]
    if not seminorm:
        K = K + area[:, None, None] * _MM3                  # (T, 10, 10)
    return K, area[:, None, None] * _MM2


def pressure_constraints(topology: MeshTopology, reports) -> np.ndarray:
    """Rows of the constraint matrix cutting the raw 6T-dimensional
    pressure space down to the constrained space: global mean zero plus
    one alternating-sum condition per singular vertex.  Each row has unit
    2-norm, so the rank decision on them does not depend on the length
    scale (the mean row scales with area, the alternating rows do not)."""
    fans = topology.fans
    singular = [r.vertex for r in reports if r.singular]
    C = np.zeros((1 + len(singular), 6 * topology.T))
    C[0] = (topology.area[:, None] * _IV2).ravel()
    # row i + 1 alternates over the fan of the i-th singular vertex
    row = np.zeros(topology.V, dtype=np.int64)
    row[singular] = np.arange(1, len(singular) + 1)
    row = row[fans.center]
    on = row > 0
    C[row[on], 6 * fans.tri[on] + fans.slot[on]] = \
        np.where(fans.position[on] % 2, -1.0, 1.0)
    return C / np.linalg.norm(C, axis=1, keepdims=True)


# The block size of every compact-WY QR in ``certify``, capped at the
# smaller side: of 32, 48 and 64, 64 was the fastest on X_rc of 802 x 503
# and 1700 x 1000 with one OpenBLAS thread, and within 5 % of 32 on Y.
QR_BLOCK = 64


def _apply_q(reflectors: np.ndarray, t: np.ndarray, X: np.ndarray,
             trans: str, side: str = "L") -> np.ndarray:
    """Q X (trans "N") or Q^T X (trans "T"), or X Q and X Q^T on side "R",
    with Q the full orthogonal factor of a compact-WY Householder QR held
    as (reflectors, t) (``_compact_wy``); in place when X is F-contiguous."""
    out, info = scipy.linalg.lapack.dgemqrt(reflectors, t, X, side=side,
                                            trans=trans, overwrite_c=1)
    if info != 0:
        raise SolverError(f"dgemqrt failed with info {info}")
    return out


def _compact_wy(a: np.ndarray):
    """(a, t): the compact-WY Householder QR of a (LAPACK dgeqrt), in
    place when a is F-contiguous: R on and above the diagonal of a, the
    reflectors below it, and t their block reflector factor."""
    a, t, info = scipy.linalg.lapack.dgeqrt(min(QR_BLOCK, *a.shape), a,
                                            overwrite_a=1)
    if info != 0:
        raise SolverError(f"dgeqrt failed with info {info}")
    return a, t


# Relative size of the constraints applied to the divergences, C M^-1 B,
# above which the constrained space does not contain the range of B.
RANGE_RTOL = 1e6 * np.finfo(float).eps


def _check_range_inclusion(part: np.ndarray, whole: np.ndarray):
    """Every divergence, as a pressure M^-1 B, satisfies the constraint
    rows: ``part``, the coordinates that carry C M^-1 B (in ``certify``
    times L_A^-T on the velocity side), vanishes to RANGE_RTOL relative
    to ``whole``.  The factor R never sees them, so a range outside the
    constrained space would go unnoticed there."""
    dev = float(np.linalg.norm(part))
    scale = float(np.linalg.norm(whole))
    if dev > RANGE_RTOL * scale:
        raise SolverError(
            f"divergences violate the pressure constraints at {dev:.3e} "
            f"relative to {scale:.3e}; range inclusion violated")


def _bubble_rotation(L_M_inv: np.ndarray, bubble: np.ndarray):
    """(F, R_b): F = O^T L_M^-1, shape (T, 6, 6), where O_t is the
    orthogonal factor of the complete QR of triangle t's weighted bubble
    divergences, L_M^-1 bubble_t = O_t [R_t; 0], and R_b holds the 2 x 2
    triangles R_t, shape (T, 2, 2).  In the coordinates F q of a pressure
    q, the bubble divergences live on the first 2 of each triangle's 6."""
    O, R = np.linalg.qr(np.matmul(L_M_inv, bubble), mode="complete")
    return np.matmul(O.transpose(0, 2, 1), L_M_inv), R[:, :2]


def constrained_basis(C: np.ndarray, F: np.ndarray):
    """The compact-WY Householder QR ``(reflectors, t)`` of the complement
    rows of Z = F C^T (``_compact_wy``), where C holds the constraint rows
    (see ``pressure_constraints``) and F the (T, 6, 6) blocks of
    ``_bubble_rotation``.  Every bubble divergence satisfies every
    constraint row (it has mean zero and vanishes at the vertices), so Z
    vanishes on the 2T bubble coordinates, the first 2 of each triangle's
    6; SolverError if it does not.  The constrained pressures are then the
    bubble coordinates plus the complement coordinates u, 4 a triangle in
    triangle order, orthogonal to Z: the trailing 4T - len(C) columns of
    the orthogonal factor Q of Z's complement rows are an orthonormal
    basis of those u; Q is never formed."""
    T, k = F.shape[0], C.shape[0]
    Z = np.matmul(F, C.T.reshape(T, 6, k))
    _check_range_inclusion(Z[:, :2], Z)
    Z = Z[:, 2:].reshape(4 * T, k)
    lengths = np.linalg.norm(Z, axis=0)
    reflectors, t = _compact_wy(Z)
    # A row in the span of the others leaves a diagonal entry of R at
    # roundoff size relative to its own column.
    independent = int(np.sum(np.abs(np.diag(reflectors))
                             > max(Z.shape) * np.finfo(float).eps * lengths))
    if independent != k:
        raise SolverError(
            f"constrained pressure dimension {C.shape[1] - independent} != "
            f"6T - 1 - sigma = {C.shape[1] - k}; constraint rows "
            f"are linearly dependent")
    return reflectors, t


# ---------------------------------------------------------------------------
# the certificate: one triangular factor R gives K, beta and the spurious
# modes; the scale of its spectrum comes from a short Krylov space of R^T R,
# the bottom of its spectrum from inverse Lanczos on R^T R

# Inverse Lanczos: the most steps one run may take; the Ritz residual,
# relative to its Ritz value, below which a Ritz pair counts as converged;
# and the fraction of the largest Ritz value below which a Ritz value is
# not lifted in the same round, since it carries the largest one's roundoff.
LANCZOS_STEPS = 300
LANCZOS_RTOL = 1e-12
LANCZOS_RANGE = 1e-8

# The rank scale: the dimension of the Krylov space of R^T R it is read
# from, and the bound on its top Ritz value, 1 up to roundoff, that every
# singular value of W obeys (||div v|| <= |v|_1 <= ||v||_H1 on H^1_0).
SCALE_STEPS = 10
SCALE_BOUND = 1.0 + 1e-12

@dataclass(frozen=True)
class Certificate:
    """Triangular factor of the weighted divergence pairing

        W = Q_2^T F B L_A^-T,   A = L_A L_A^T,   F = O^T L_M^-1,

    with M = L_M L_M^T, O the per-triangle rotations of
    ``_bubble_rotation`` and Q_2 the orthonormal basis of the constrained
    pressures of ``constrained_basis``: the trailing columns of the
    orthogonal factor of Z on the complement coordinates, then the 2T
    bubble coordinates.  The squared
    singular values of W are the eigenvalues of the pressure Schur
    complement in the mass inner product: the number of zero singular
    values is K, the smallest nonzero one is beta, and the nonzero ones
    lie in [beta, 1]: for a velocity v in H^1_0, ||div v||^2 + ||rot v||^2
    = |v|_1^2, which is at most the squared norm of v in the seminorm and
    in the full H1 norm.  With W^T = Q_X R (Q_X has orthonormal columns),
    ``factor`` is R: W has the singular values of R, and its left null
    vectors are the null vectors of R: ``divergence_rank`` finds them, and
    ``spurious_modes`` maps them back through the reflectors and F^T and
    checks their pairing on the per-triangle divergence blocks.  A factor
    alone (no reflectors) certifies K and beta but no modes.
    """

    factor: np.ndarray              # R, (min(p, n), p), upper
    shape: tuple                    # (p, n): constrained pressures, velocities
    start: np.ndarray               # the rank scale's Krylov start, (p,)
    reflectors: np.ndarray | None = None    # QR of Z's complement rows,
                                            # (4T, 1 + sigma)
    tau: np.ndarray | None = None           # its T factor, (nb, 1 + sigma)
    pressure_map: np.ndarray | None = None  # F = O^T L_M^-1, (T, 6, 6)
    divergence: np.ndarray | None = None    # B by triangle, (T, 6, 2, 10)
    nodes: np.ndarray | None = None         # ``number_dofs``, (T, 10)


def _condense(div: np.ndarray, K: np.ndarray):
    """(div_r, bubble, K_r): the divergence and Gram blocks with local
    node 9, the cubic bubble b_T, eliminated triangle by triangle.

    The bubble of triangle t couples only to the other nodes of t.  With
    the bubbles ordered first, A = L_A L_A^T has L_A^-1 = [[D^-1/2, 0],
    [-L_S^-1 A_rb D^-1, L_S^-1]], where D = diag(K_99) and S = L_S L_S^T =
    A_rr - A_rb D^-1 A_br is the sum of the blocks K_r = K_rr - K_r9 K_9r
    / K_99.  So B L_A^-T has the columns div_r L_S^-T, with div_r =
    div_rr - div_r9 K_9r / K_99 on the other nodes, and the bubble columns
    div_9 / sqrt(K_99)."""
    k99 = K[:, 9, 9]
    if not np.all(k99 > 0.0):
        raise SolverError("velocity Gram matrix is not SPD: a cubic bubble "
                          "has a Gram entry <= 0")
    w = K[:, 9, :9] / k99[:, None]                       # K_9r / K_99
    K_r = K[:, :9, :9] - K[:, :9, 9, None] * w[:, None, :]
    div_r = div[..., :9] - div[..., 9, None] * w[:, None, None, :]
    return div_r, div[..., 9] / np.sqrt(k99)[:, None, None], K_r


def certify(topology: MeshTopology, reports,
            seminorm: bool = False) -> Certificate:
    """Assemble the pairing and its norms, check that the constrained
    pressures contain every divergence, and factor W; every command
    builds this same certificate.

    The bubbles are condensed out (``_condense``), so the Cholesky factor
    L_S and its inverse cover only the m = V0 + 2 E0 other nodes.
    In the coordinates of ``_bubble_rotation`` the bubble columns of W are
    the 2 x 2 triangles R_t on the bubble coordinates, and the constraints
    act on the 4T complement coordinates alone.  With the rows of X = W^T
    ordered as the other velocities, then the bubble ones, and its columns
    as the constrained complement coordinates (p - 2T), then the bubble
    ones (2T),

        X = [[X_rc, X_rb], [0, blockdiag(R_t^T)]],

    and R = [[R_11, R_12], [0, R_22]] comes from the QR of X_rc, Q^T X_rb
    = [R_12; Y] and the QR of [Y; blockdiag(R_t^T)].

    Every dense kernel runs at BLAS-3 rate and in place: L_S is inverted
    in its own storage (dtrtri), and each triangle's 12 rows of F div_r
    meet only the rows of L_S^-T at its 9 nodes, so the rows of F div_r
    L_S^-T are two batched products with those rows, gathered; every
    Householder QR, of Z, X_rc and Y, is compact-WY (dgeqrt), and each Q
    or Q^T is applied by dgemqrt; blockdiag(R_t^T) is scattered into Y.
    S sums its blocks with np.bincount, in triangle order."""
    nodes = number_dofs(topology)
    T = topology.T
    div = assemble_divergence(topology)
    K, blocks = assemble_norms(topology, seminorm=seminorm)
    div_r, bubble, K_r = _condense(div, K)
    C = pressure_constraints(topology, reports)
    try:
        # 6 x 6 triangular blocks: inverting them once makes every
        # application of L_M^-1 or L_M^-T one batched product.
        L_M_inv = np.linalg.inv(np.linalg.cholesky(blocks))
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"pressure mass matrix is not SPD: {exc}") from exc
    F, R_b = _bubble_rotation(L_M_inv, bubble)
    reflectors, tau = constrained_basis(C, F)
    k = C.shape[0]
    p, m = 6 * T - k, _n_nodes(nodes) - T
    inner = nodes[:, :9]                # the other nodes are 0 .. m - 1
    interior = inner >= 0
    t, a, b = np.nonzero(interior[:, :, None] & interior[:, None, :])
    # np.bincount adds in input order, which is triangle order here: every
    # entry sums its contributions triangle by triangle.
    S = np.bincount(inner[t, a] * m + inner[t, b], weights=K_r[t, a, b],
                    minlength=m * m).reshape(m, m)
    try:
        # S is symmetric and only one triangle is read, so its transpose
        # is the column-major operand LAPACK factors in place.
        L_S = scipy.linalg.cholesky(S.T, lower=True, overwrite_a=True,
                                    check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise SolverError(f"velocity Gram matrix is not SPD: {exc}") from exc
    del S
    # P = F div_r, zero at the boundary nodes: triangle t's pressure
    # coordinates against (component, local node).
    div_r = div_r * interior[:, None, None, :]
    P = np.matmul(F, div_r.reshape(T, 6, 18)).reshape(T, 6, 2, 9)
    del div_r
    # The rows of L_S^-T at each triangle's 9 nodes, the columns of L_S^-1
    # (inverted in its own storage, column-major), gathered before G
    # exists; a boundary node reads node 0, which P weights by 0.
    if m:                         # (LAPACK rejects an empty triangle)
        L_S, info = scipy.linalg.lapack.dtrtri(L_S, lower=1, overwrite_c=1)
        if info != 0:
            raise SolverError(f"dtrtri failed with info {info}")
        H = L_S.T[np.where(interior, inner, 0)]                 # (T, 9, m)
    else:
        H = np.empty((T, 9, 0))
    del L_S
    # G = F div_r L_S^-T, triangle by triangle: each pressure row meets
    # only its triangle's 9 rows of L_S^-T.  Rows 4t .. 4t + 3 are
    # triangle t's complement coordinates, rows 4T + 2t, 4T + 2t + 1 its
    # bubble ones; each row is (component, node).
    G = np.empty((6 * T, 2, m))
    np.matmul(P[:, 2:].reshape(T, 8, 9), H, out=G[:4 * T].reshape(T, 8, m))
    np.matmul(P[:, :2].reshape(T, 4, 9), H, out=G[4 * T:].reshape(T, 4, m))
    del P, H
    # Q^T G on the complement rows, as G^T Q on the transposed view: its
    # first k rows carry C M^-1 B L_A^-T (times the invertible factor of
    # Z); Q acts on the pressures and L_S^-T on the velocities, so the
    # order of the two does not matter.
    applied = _apply_q(reflectors, tau, G[:4 * T].reshape(4 * T, 2 * m).T,
                       "N", "R")
    if not np.shares_memory(applied, G):
        G[:4 * T] = applied.T.reshape(4 * T, 2, m)
    del applied
    _check_range_inclusion(G[:k], G)
    # Column-major, the rows G[k:] are the stacked (2m, p) matrix [x-rows;
    # y-rows] of X's other velocities: a row permutation, which leaves R
    # unchanged up to row signs.
    X = G[k:].reshape(2 * p, m).T.reshape(2 * m, p, order="F")
    del G
    # The compact-WY QR of X_rc = X[:, :pc] and Q^T X_rb on the bubble
    # columns X[:, pc:], both in place: the first top rows of Q^T X_rb are
    # R_12, the rest Y's first rows.  A wide X_rc (2m < pc) has 2m
    # reflectors, none when m = 0.
    pc = p - 2 * T
    top = min(2 * m, pc)
    if top:
        _apply_q(X[:, :top], _compact_wy(X[:, :pc])[1], X[:, pc:], "T")
    # Y = [X[top:, pc:]; blockdiag(R_t^T)], column-major for its QR in
    # place; R_22 is its triangle.  Each copy out of X is made before R
    # exists, so the largest array, X, never lives beside R.
    Y = np.zeros((2 * m - top + 2 * T, 2 * T), order="F")
    Y[:2 * m - top] = X[top:, pc:]
    t2 = 2 * np.arange(T)[:, None, None]
    Y[2 * m - top + t2 + np.arange(2)[:, None], t2 + np.arange(2)] = \
        R_b.transpose(0, 2, 1)
    R_22 = np.triu(_compact_wy(Y)[0][:2 * T])
    del Y
    R_1 = np.triu(X[:top])              # [R_11, R_12]
    del X
    R = np.zeros((top + 2 * T, p))
    R[:top] = R_1
    R[top:, pc:] = R_22
    del R_1, R_22
    # The rank scale's Krylov start: a fixed-seed raw pressure x in the
    # constrained coordinates.  A fixed vector of those coordinates would
    # move with their basis, which roundoff can change discretely (the
    # sign of a Householder reflector whose leading entry is near zero).
    y = np.matmul(F, np.random.default_rng(0).standard_normal((T, 6, 1)))
    c = _apply_q(reflectors, tau, y[:, 2:].reshape(4 * T, 1), "T")
    start = np.concatenate([c[k:, 0], y[:, :2].ravel()])
    return Certificate(factor=R, shape=(p, 2 * (m + T)), start=start,
                       reflectors=reflectors, tau=tau, pressure_map=F,
                       divergence=div, nodes=nodes)


def _floored(R: np.ndarray) -> np.ndarray:
    """The square R with its diagonal entries below eps * p * max|r_ii|
    raised to that floor, for solving with it (a copy only if one is):
    exact zero pivots occur, and the floor perturbs R only at roundoff
    level."""
    diag = np.diagonal(R)
    floor = np.finfo(float).eps * len(R) * np.abs(diag).max(initial=0.0)
    low = np.flatnonzero(np.abs(diag) < floor)
    if len(low):
        R = R.copy()
        R[low, low] = np.copysign(floor, diag[low])
    return R


def _rank_scale(R: np.ndarray, start: np.ndarray) -> float:
    """A lower bound on the largest singular value of R, within a few
    tenths of a percent of it on the certificates: the square root of the
    top Ritz value of R^T R on a Krylov space of at most SCALE_STEPS
    dimensions, from ``start`` (a certificate's ``start``).

    The basis is built with full reorthogonalization, two passes a step,
    and must stay orthonormal to working precision for the Rayleigh-Ritz
    value to be a lower bound.  So the space stops growing at breakdown,
    when the new residual is at roundoff level, eps * p times the largest
    Rayleigh quotient so far (the top Ritz value is at least that): the
    space is then invariant, and its top Ritz value an eigenvalue.  The
    Ritz values come from one eigenvalue problem, that of the k x k Gram
    matrix (R Q^T)^T (R Q^T) of the basis rows Q.

    A square R is upper triangular, so R q and R^T w are triangular
    products (dtrmv) on R^T, an F-contiguous lower view that they read in
    place; a wide R takes dense products."""
    p = R.shape[1]
    if not R.size:
        return 0.0
    steps = min(p, SCALE_STEPS)
    basis = np.empty((steps, p))
    images = np.empty((steps, R.shape[0]))     # R q for each basis row q
    # (given the C-ordered R itself, dtrmv would copy it on every call)
    square = len(R) == p
    dtrmv = scipy.linalg.blas.dtrmv
    q = np.array(start, dtype=float)
    q /= np.linalg.norm(q)
    top = 0.0
    for k in range(steps):
        basis[k] = q
        images[k] = dtrmv(R.T, q, lower=1, trans=1) if square else R @ q
        w = dtrmv(R.T, images[k], lower=1) if square else images[k] @ R
        top = max(top, float(q @ w))
        done = basis[:k + 1]
        for _ in range(2):
            w -= done.T @ (done @ w)
        residual = float(np.linalg.norm(w))
        if residual <= np.finfo(float).eps * p * top:
            break
        q = w / residual
    images = images[:k + 1]
    theta = scipy.linalg.eigh(images @ images.T, eigvals_only=True,
                              overwrite_a=True, check_finite=False)[-1]
    return float(np.sqrt(max(theta, 0.0)))


def _tridiagonal_eigh(d: np.ndarray, e: np.ndarray, top: bool = False):
    """(theta, S): the eigenvalues, ascending, and the eigenvectors (the
    columns of S) of the symmetric tridiagonal matrix with diagonal d and
    off-diagonal e, or only its largest pair if top.  These are the LAPACK
    drivers that scipy.linalg.eigh_tridiagonal picks, dstebz + dstein for
    one pair and dstevd for all, called without its argument checks, which
    cost more than the solve at Lanczos sizes; the 1 x 1 case needs no
    LAPACK, as there."""
    n = len(d)
    if n == 1:
        return d.copy(), np.ones((1, 1))
    lapack = scipy.linalg.lapack
    if top:
        m, theta, iblock, isplit, info = lapack.dstebz(d, e, 2, 0.0, 1.0, n,
                                                       n, 0.0, "B")
        theta = theta[:m]
        if info == 0:
            S, info = lapack.dstein(d, e, theta, iblock, isplit)
    else:
        theta, S, info = lapack.dstevd(d, e)
    if info != 0:
        raise SolverError(f"tridiagonal eigensolver failed with info {info}")
    return theta, S


def _inverse_lanczos(F: np.ndarray, thr: float):
    """(s_min, Y): the smallest singular value of the square triangular F
    and, as the columns of Y, the Ritz vectors of the singular values at or
    below thr whose Ritz values lie within LANCZOS_RANGE of the largest.

    Lanczos with full reorthogonalization on (F^T F)^-1 from a fixed-seed
    start, two dtrsv a step on F or F^T, whichever is F-contiguous.  Once
    the top Ritz pair has converged, it stops if the largest Ritz value
    and every one in Y have a Ritz residual within LANCZOS_RTOL of
    themselves; after LANCZOS_STEPS steps without that, or at a step that
    overflows, it raises RankIndeterminateError."""
    p = len(F)
    steps = min(p, LANCZOS_STEPS)
    basis = np.empty((steps, p))
    alpha, beta = np.empty(steps), np.empty(steps)
    lower = not F.flags.f_contiguous
    A = F.T if lower else F             # F = A, or F = A^T
    dtrsv = scipy.linalg.blas.dtrsv
    q = np.random.default_rng(0).standard_normal(p)
    q /= np.linalg.norm(q)
    for k in range(steps):
        basis[k] = q
        w = dtrsv(A, dtrsv(A, q, lower=lower, trans=not lower),
                  lower=lower, trans=lower, overwrite_x=1)
        alpha[k] = q @ w
        done = basis[:k + 1]
        for _ in range(2):
            w -= done.T @ (done @ w)
        beta[k] = np.linalg.norm(w)
        if not (np.isfinite(alpha[k]) and np.isfinite(beta[k])):
            raise RankIndeterminateError(
                f"inverse Lanczos overflowed at step {k + 1}: the factor is "
                f"too ill-conditioned to decide the rank")
        d, e = alpha[:k + 1], beta[:k]
        top, z = _tridiagonal_eigh(d, e, top=True)
        # (an invariant subspace, beta 0, has every residual 0)
        if beta[k] * abs(z[-1, 0]) <= LANCZOS_RTOL * top[0]:
            theta, S = _tridiagonal_eigh(d, e)
            # the small Ritz values carry roundoff of the largest, down to 0
            s = 1.0 / np.sqrt(np.maximum(theta, np.finfo(float).tiny))
            converged = beta[k] * np.abs(S[-1]) <= LANCZOS_RTOL * theta
            lift = (s <= thr) & (theta >= LANCZOS_RANGE * theta[-1])
            if converged[-1] and converged[lift].all():
                return float(s[-1]), done.T @ S[:, lift]
        q = w / beta[k]
    raise RankIndeterminateError(
        f"inverse Lanczos did not converge in {steps} steps")


# The lift's dtpqrt block size: of 1, 4, 8, 16, 32 and 64, 16 was the
# fastest for one row at p = 765 with one OpenBLAS thread.
LIFT_BLOCK = 16


def _lift(R: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The triangular factor of [R; rows] for the upper triangular R, by
    one triangular-pentagonal QR (LAPACK dtpqrt), in R's place when R is
    F-ordered: R^T R gains rows^T rows."""
    R, _, _, info = scipy.linalg.lapack.dtpqrt(
        0, min(LIFT_BLOCK, len(R)), R, rows, overwrite_a=1, overwrite_b=1)
    if info != 0:
        raise SolverError(f"dtpqrt failed with info {info}")
    return R


def _square(R: np.ndarray, p: int) -> np.ndarray:
    """The wide upper trapezoidal R, fewer rows than its p columns, padded
    with zero rows to a p x p upper triangular matrix that has R's rows in
    order and p - len(R) zero pivots.  The trailing rows that vanish left
    of their place at the bottom, R_22 of ``certify``'s factor on the 2T
    bubble columns, stay at the bottom; the zero rows go right above them,
    on the columns that no row starts on.  Below R_22 they would push
    each of its rows off its pivot."""
    n = len(R)
    shift = p - n
    ahead = (R != 0) & (np.arange(p) < shift + np.arange(n)[:, None])
    starts = np.flatnonzero(ahead.any(axis=1))     # rows that cannot shift
    top = starts[-1] + 1 if len(starts) else 0
    square = np.zeros((p, p))
    square[:top] = R[:top]
    square[top + shift:] = R[top:]
    return square


@dataclass(frozen=True)
class RankResult:
    rank: int
    nullity: int
    K: int                  # the lifted directions: p - rank
    gap: float              # beta / the largest |R v| of the lifted v,
                            # floored at eps * max(shape) * scale
    beta: float             # smallest accepted singular value
    scale: float            # lower bound on the largest singular value
    null_basis: np.ndarray  # (p, p - rank) orthonormal basis of the lifted
                            # directions: the null vectors of R


def _threshold(cert: Certificate, tol: Tolerances):
    """(scale, thr): the ``_rank_scale`` of the certificate and the
    threshold tol.rank * scale above which ``divergence_rank`` and
    ``infsup_constant`` both accept a singular value; a relative
    threshold needs the largest singular value only to a few digits.  A
    scale above 1 (beyond roundoff) breaks the bound every singular value
    of the pairing obeys, so the pairing or its norms are wrong:
    SolverError."""
    scale = _rank_scale(cert.factor, cert.start)
    if scale * scale > SCALE_BOUND:
        raise SolverError(
            f"singular value {scale:.17g} of the weighted pairing exceeds "
            f"the bound 1; the pairing or its norms are wrong")
    return scale, tol.rank * scale


def divergence_rank(cert: Certificate,
                    tol: Tolerances = Tolerances()) -> RankResult:
    """Rank of the pairing, the deficiency K and beta, with the gap test:
    the accepted singular values must clear the rejected ones by 10x.

    A singular value is accepted above the threshold of ``_threshold``.
    Inverse Lanczos finds the smallest singular value of the square
    factor; while it is at or below the threshold, every converged Ritz
    vector v there is lifted: R is replaced by the factor of [R; scale
    v^T], which moves v to the top of the spectrum and leaves the rest in
    place.  The number of lifted vectors is K = p - rank, with p =
    cert.shape[0] the constrained pressure dimension 6T - 1 - sigma;
    their orthonormal basis is ``null_basis`` (the identity at scale 0),
    and beta is the smallest singular value of the lifted factor.  A wide
    R (fewer velocities than constrained pressures) is zero-padded to
    square first (``_square``)."""
    p = cert.shape[0]
    scale, thr = _threshold(cert, tol)
    R, beta = cert.factor, 0.0
    if len(R) < p:      # fewer velocities than constrained pressures
        R = _square(R, p)
    # A rejected value below roundoff level is noise whose size depends on
    # the LAPACK kernel; the gap measures against the roundoff floor then,
    # and also when nothing is rejected.
    largest_rejected = np.finfo(float).eps * max(cert.shape) * scale
    lifted = 0 if scale > 0.0 else p
    rounds = [np.zeros((p, 0))]        # the directions lifted in each round
    while lifted < p:
        F = _floored(R)
        beta, Y = _inverse_lanczos(F, thr)
        if not Y.shape[1]:
            break
        # One step of block inverse iteration damps the Ritz vectors'
        # error along each larger singular value s_j by (s / s_j)^2; the
        # singular values of R (unfloored) on that block then decide what
        # is lifted.
        V = scipy.linalg.solve_triangular(F, Y, trans="T", check_finite=False)
        V = scipy.linalg.solve_triangular(F, V, check_finite=False)
        V = np.linalg.qr(V)[0]
        del F
        RV = R @ V
        mu, Z = np.linalg.eigh(RV.T @ RV)
        s = np.sqrt(np.maximum(mu, 0.0))
        if s[0] > thr:
            raise RankIndeterminateError(
                f"inverse Lanczos put singular value {beta:.3e} at or below "
                f"the threshold {thr:.3e}, its block puts none there")
        largest_rejected = max(largest_rejected, float(s[s <= thr][-1]))
        V = V @ Z[:, s <= thr]
        if R is cert.factor:
            R = R.copy(order="F")
        R = _lift(R, scale * V.T)
        rounds.append(V)
        lifted += V.shape[1]
    if lifted == p:                 # nothing accepted
        beta = 0.0
    null_basis = np.linalg.qr(np.hstack(rounds))[0] if scale else np.eye(p)
    gap = float("inf")
    if largest_rejected > 0.0:
        gap = float(beta / largest_rejected)
        if gap < 10.0:
            raise RankIndeterminateError(
                f"singular values {beta:.3e} / {largest_rejected:.3e} "
                f"straddle the threshold {thr:.3e} with gap {gap:.2f} < 10")
    rank = p - lifted
    return RankResult(rank=rank, nullity=cert.shape[1] - rank, K=lifted,
                      gap=gap, beta=beta, scale=scale, null_basis=null_basis)


def infsup_constant(cert: Certificate, tol: Tolerances = Tolerances(),
                    rank: RankResult | None = None):
    """(beta, eigenvalues): beta is the smallest singular value that the
    rank accepts, above the threshold of ``_threshold``.  Given the
    ``divergence_rank`` of the same certificate, beta is read from it and
    no eigenvalue is listed (None).  Otherwise one values-only SVD of the
    factor lists the eigenvalues of the pressure Schur complement on the
    constrained space in the mass inner product, ascending, with those of
    the singular values at or below the threshold reported as exactly 0."""
    if rank is not None:
        return rank.beta, None
    thr = _threshold(cert, tol)[1]
    s = scipy.linalg.svd(cert.factor, compute_uv=False, check_finite=False)
    accepted = s > thr
    eig = np.zeros(cert.shape[0])
    eig[len(eig) - len(s):] = np.where(accepted, s, 0.0)[::-1] ** 2
    beta = float(s[accepted][-1]) if accepted.any() else 0.0
    return beta, eig


def spurious_modes(cert: Certificate, rank: RankResult):
    """M-orthonormal basis of the constrained pressures with zero pairing
    against every velocity, returned as raw coefficient vectors.

    They are the null vectors of the factor R that ``divergence_rank``
    lifted, ``rank.null_basis``, mapped back through the reflectors (their
    complement coordinates) and F^T, and accepted only if they pair with
    no velocity: B^T q sums the per-triangle blocks at the global nodes."""
    V = rank.null_basis
    if not V.shape[1]:
        return []
    F, nodes = cert.pressure_map, cert.nodes
    T, K = len(F), V.shape[1]
    pc = len(V) - 2 * T
    U = np.zeros((4 * T, K))
    U[4 * T - pc:] = V[:pc]
    U = _apply_q(cert.reflectors, cert.tau, U, "N")
    u = np.concatenate([V[pc:].reshape(T, 2, K), U.reshape(T, 4, K)], axis=1)
    Q = np.matmul(F.transpose(0, 2, 1), u)                  # (T, 6, K)
    t, a = np.nonzero(nodes >= 0)
    div = cert.divergence[t, :, :, a]                       # (., 6, 2)
    pairing = np.zeros((_n_nodes(nodes), K, 2))
    np.add.at(pairing, nodes[t, a], np.einsum("iqk,iqc->ikc", Q[t], div))
    scale = float(np.abs(pairing).max())
    bscale = max(float(np.abs(div).max()), 1.0)
    if scale > 1e-8 * bscale:
        raise SolverError(f"extracted modes pair with velocities at {scale:.3e}")
    Q = Q.reshape(6 * T, K)
    return [Q[:, k] for k in range(K)]


def checkerboard_signature(topology: MeshTopology, mode,
                           rel_tol: float = 0.1) -> bool:
    """True when the mode's per-triangle vertex values alternate in sign
    around every interior vertex (near-zero patches are allowed)."""
    mode = np.asarray(mode)
    scale = float(np.abs(mode).max())
    if scale == 0.0:
        return False
    fans = topology.fans
    vals = mode[6 * fans.tri + fans.slot]
    size, lo = np.abs(vals), fans.offset[:-1]
    local = np.maximum.reduceat(size, lo)
    # the signs of the values at or above rel_tol of their fan's largest,
    # times the alternating sign: more than one of them breaks the pattern
    sign = np.sign(vals) * np.where(fans.position % 2, -1.0, 1.0)
    keep = size >= rel_tol * local[fans.center]
    mixed = (np.maximum.reduceat(np.where(keep, sign, -np.inf), lo)
             > np.minimum.reduceat(np.where(keep, sign, np.inf), lo))
    return not (mixed & ~fans.boundary & (local >= 1e-8 * scale)).any()


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
    """The spline dimensions of a mesh of a disk (``analyze_mesh`` checks
    Euler's relation before it certifies) and deficiency K."""
    E, E0, V, V0 = topology.E, topology.E0, topology.V, topology.V0
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

