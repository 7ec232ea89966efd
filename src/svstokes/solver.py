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

from . import RankIndeterminateError, SolverError, poly
from .classify import Tolerances
from .mesh import MeshTopology


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
# The pressure mass block of triangle t is |T_t| _MM2, so F_t = _MM2_L_INV
# / sqrt(|T_t|) has F_t^T F_t |T_t| _MM2 = I: the inverse Cholesky factor
# of _MM2, once, serves every triangle.
_MM2_L_INV = np.linalg.inv(np.linalg.cholesky(_MM2))                # (6, 6)


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
    """K: the per-triangle scalar H1 Gram blocks of the cubic nodes
    (seminorm only if requested), shape (T, 10, 10).  Both velocity
    components share every block, so the velocity Gram matrix is A = A_s
    (x) I_2 in the DOF order 2g + c, with A_s the sum of the K blocks at
    the global nodes; it is never formed.  The pressure mass matrix needs
    no assembly: its block on triangle t is |T_t| _MM2.

    The Gram matrix g g^T of each triangle's hat gradients g meets _GG in
    a sum of 9 terms in a fixed order, elementwise: a triangle's block has
    the same bits on any mesh that holds it and under any BLAS kernel,
    whose contraction would add in an order of its own."""
    area = topology.area
    g = topology.hat_grads
    K = np.zeros((len(area), 10, 10))
    # Hat gradients near the top of the double range overflow here, to
    # infinite terms of both signs: the bubble's Gram entry K_99 is then
    # NaN, which ``_condense`` rejects.
    with np.errstate(over="ignore", invalid="ignore"):
        gg = (g[:, :, None, 0] * g[:, None, :, 0]
              + g[:, :, None, 1] * g[:, None, :, 1])            # (T, 3, 3)
        for s in range(3):
            for u in range(3):
                K += gg[:, s, u, None, None] * _GG[s, u]
        K *= area[:, None, None]
    if not seminorm:
        K = K + area[:, None, None] * _MM3                  # (T, 10, 10)
    return K


def pressure_constraints(topology: MeshTopology, reports) -> np.ndarray:
    """Rows of the constraint matrix cutting the raw 6T-dimensional
    pressure space down to the constrained space: global mean zero plus
    one alternating-sum condition per singular vertex.  Each row has unit
    2-norm, so the rank decision on them does not depend on the length
    scale (the mean row scales with area, the alternating rows do not)."""
    fans = topology.fans
    singular = [r.vertex for r in reports if r.singular]
    C = np.zeros((1 + len(singular), 6 * topology.T))
    # the areas scaled exactly by a power of two, so that the squares of
    # the norm below neither under- nor overflow
    area = np.ldexp(topology.area, -np.frexp(topology.area.max())[1])
    C[0] = (area[:, None] * _IV2).ravel()
    # row i + 1 alternates over the fan of the i-th singular vertex
    row = np.zeros(topology.V, dtype=np.int64)
    row[singular] = np.arange(1, len(singular) + 1)
    row = row[fans.center]
    on = row > 0
    C[row[on], 6 * fans.tri[on] + fans.slot[on]] = \
        np.where(fans.position[on] % 2, -1.0, 1.0)
    return C / np.linalg.norm(C, axis=1, keepdims=True)


# The columns of one panel of the staircase QR in ``certify``, whole
# triangles of 6: of 24, 36, 48, 60, 72 and 96, 48 was the fastest at
# T = 128 and 144 with one OpenBLAS thread (182-204 Mflop there).
STAIRCASE_PANEL = 48


def _staircase_qr(P: np.ndarray, L_inv: np.ndarray, label: np.ndarray,
                  bubble: np.ndarray, last: np.ndarray, Q_z: np.ndarray,
                  lift: np.ndarray):
    """(R, dev, size): R, 6T x 6T, upper triangular and column-major, is
    the triangular factor of [X; lift], with X = [L_inv P^T;
    blockdiag(bubble_t)] and ``lift`` (k, 6T) rows over every column, and
    dev = ||X Q_z|| and size = ||X|| are Frobenius norms, Q_z (6T, k) in
    the column order of X.  Column 6t + q of X holds, on the x and y rows
    of the nodes, the rows (q, x) and (q, y) of triangle t's pairing P[t]
    (T, 12, 9) with the columns of L_inv, the inverse Cholesky factor of
    S, at its 9 node labels ``label[t]`` (a boundary node may read any
    label, as P weights it by 0), and on the two bubble rows of triangle t
    the column q of bubble[t] (T, 2, 6): a 2 x 6 block on the triangle's
    own 6 columns.

    The node in place l of the level order has label m - 1 - l, so L_inv
    is upper triangular in level order, and column 6t + q is zero beyond
    the place of its last node, last[t], which ascends with t: X is a
    row-sorted staircase (George & Heath, Linear Algebra Appl. 34, 1980),
    and is never formed.  Each panel of STAIRCASE_PANEL columns gathers
    only the rows it can touch into one column-major window over its
    columns and all later ones: the rows the earlier panels left
    unconsumed (for the first panel, the lift rows), the x and y rows of
    the nodes its last triangle newly reaches, each a product of P with
    the gathered rows of L_inv^T, and its triangles' bubble rows.  dgeqrt
    factors the panel, dgemqrt applies its Q^T to the rest of the window
    in place, the first rows of the window are rows of R and the others
    carry over to the next panel.  A window with fewer rows than panel
    columns leaves zero rows in R at the pivotless columns; no later row
    reaches them.

    A gathered row of X is zero left of its panel, so dev and size are
    summed over the rows as they are gathered, while they are in cache."""
    T, m = len(P), len(L_inv)
    p = 6 * T
    panels = [(c0, min(c0 + STAIRCASE_PANEL, p))
              for c0 in range(0, p, STAIRCASE_PANEL)]
    # The rows of each window and the places of the nodes it adds, counted
    # first, so that two buffers of the largest window serve every panel:
    # a window never overlaps the carried rows it is filled from.
    rows, nodes, carry, reached = [], [], len(lift), 0
    for c0, c1 in panels:
        top = max(int(last[c1 // 6 - 1]) + 1, reached)
        nodes.append((reached, top))
        rows.append(carry + 2 * (top - reached) + (c1 - c0) // 3)
        carry, reached = rows[-1] - min(rows[-1], c1 - c0), top
    size = max(r * (p - c0) for r, (c0, _) in zip(rows, panels))
    buffers = (np.empty(size), np.empty(size))
    R = np.zeros((p, p), order="F")
    pair = 2 * np.arange(STAIRCASE_PANEL // 6)[:, None, None]
    held = lift
    bubble_dev = np.matmul(bubble, Q_z.reshape(T, 6, -1))
    dev2 = float(np.vdot(bubble_dev, bubble_dev))
    size2 = float(np.vdot(bubble, bubble))
    for i, ((c0, c1), r, (reached, top)) in enumerate(zip(panels, rows,
                                                          nodes)):
        nb, width, n, h = c1 - c0, p - c0, top - reached, len(held)
        W = buffers[i % 2][:r * width].reshape((r, width), order="F")
        W[:h] = held
        if n:
            # places reached .. top - 1 are labels m - top .. m - reached
            # - 1; the order of the rows in a window does not matter
            block = np.matmul(P[c0 // 6:], L_inv.T[label[c0 // 6:],
                                                   m - top:m - reached])
            size2 += float(np.vdot(block, block))
            # P's rows are (q, component), so each column's x and y rows
            # are one contiguous run of 2n
            W[h:h + 2 * n] = block.reshape(width, 2 * n).T
            block_dev = W[h:h + 2 * n] @ Q_z[c0:]
            dev2 += float(np.vdot(block_dev, block_dev))
        bubble_rows = W[h + 2 * n:]
        bubble_rows[...] = 0.0
        t = pair[:nb // 6]
        bubble_rows[t + np.arange(2)[:, None], 3 * t + np.arange(6)] = \
            bubble[c0 // 6:c1 // 6]
        # the compact-WY QR of the panel in place, one block, and its Q^T
        # on the rest of the window
        k = min(r, nb)
        _, tau, info = scipy.linalg.lapack.dgeqrt(k, W[:, :nb], overwrite_a=1)
        if not info and nb < width:
            info = scipy.linalg.lapack.dgemqrt(W[:, :k], tau, W[:, nb:],
                                               trans="T", overwrite_c=1)[1]
        if info:
            raise SolverError(f"staircase QR failed with info {info}")
        R[c0:c0 + k, c0:c1] = np.triu(W[:k, :nb])
        R[c0:c0 + k, c1:] = W[:k, nb:]
        held = W[k:, nb:]
    return R, np.sqrt(dev2), np.sqrt(size2)


def _pairing_products(P: np.ndarray, L_inv: np.ndarray, label: np.ndarray,
                      bubble: np.ndarray):
    """(product, adjoint): q -> X q and u -> X^T u for the X of
    ``_staircase_qr`` with the same arguments, X never formed.  X q is
    L_inv times the pairing P^T q summed at the node labels (x rows, then
    y rows), over the bubble rows' products; a boundary node's label
    meets only P's zero weights."""
    T, m = len(P), len(L_inv)
    P = P.reshape(T, 6, 18)     # row q; columns (component, local node)
    flat = label.ravel()

    def product(q):
        z = np.matmul(q.reshape(T, 1, 6), P).reshape(T, 2, 9)
        u = np.empty((2, m))
        for c in range(2):
            u[c] = np.bincount(flat, weights=z[:, c].ravel(),
                               minlength=m)[:m]
        return np.concatenate([(u @ L_inv.T).ravel(),
                               np.matmul(bubble, q.reshape(T, 6, 1)).ravel()])

    def adjoint(u):
        w = np.matmul(bubble.transpose(0, 2, 1), u[2 * m:].reshape(T, 2, 1))
        if m:
            g = u[:2 * m].reshape(2, m) @ L_inv
            w += np.matmul(P, g[:, label].transpose(1, 0, 2).reshape(T, 18, 1))
        return w.ravel()

    return product, adjoint


# Relative size of the constraints applied to the divergences, C M^-1 B,
# above which the constrained space does not contain the range of B.
RANGE_RTOL = 1e6 * np.finfo(float).eps


def constrained_basis(C: np.ndarray, F: np.ndarray) -> np.ndarray:
    """Q_z, (6T, k): orthonormal columns spanning Z = F C^T, where C holds
    the k constraint rows (see ``pressure_constraints``) and F the (T, 6,
    6) pressure coordinates of ``certify``, both in the same triangle
    order.  The constrained pressures are the coordinates F q orthogonal
    to Q_z.  Q_z comes from the thin Householder QR of Z, whose diagonal
    shows a dependent row; SolverError if one is."""
    T, k = F.shape[0], C.shape[0]
    Z = np.matmul(F, C.T.reshape(T, 6, k)).reshape(6 * T, k)
    lengths = np.linalg.norm(Z, axis=0)
    Q_z, R = np.linalg.qr(Z)
    # A row in the span of the others leaves a diagonal entry of R at
    # roundoff size relative to its own column.
    independent = int(np.sum(np.abs(np.diag(R))
                             > max(Z.shape) * np.finfo(float).eps * lengths))
    if independent != k:
        raise SolverError(
            f"constrained pressure dimension {C.shape[1] - independent} != "
            f"6T - 1 - sigma = {C.shape[1] - k}; constraint rows "
            f"are linearly dependent")
    return Q_z


def _level_positions(inner: np.ndarray, m: int) -> np.ndarray:
    """The place of each of the m velocity nodes in level order: by the
    breadth-first level of the node graph (two nodes are adjacent when a
    triangle holds both) from a pseudo-peripheral node, then by number.
    ``inner`` holds each triangle's nodes, -1 at the boundary ones.  The
    root is found as George and Liu do (Computer Solution of Large Sparse
    Positive Definite Systems, 1981), from the node in the fewest
    triangles: a node of the last level in the fewest triangles becomes
    the root while its eccentricity grows.  Topology alone decides it: no
    coordinate is read."""
    if not m:
        return np.zeros(0, dtype=np.int64)
    node = np.where(inner >= 0, inner, m)       # m: the boundary sentinel
    count = np.bincount(node.ravel(), minlength=m + 1)[:m]

    def levels(root):
        level = np.full(m + 1, -1)
        level[m], level[root], depth = m, 0, 0
        while True:
            reached = node[(level[node] == depth).any(axis=1)].ravel()
            reached = reached[level[reached] < 0]
            if not reached.size:
                return level[:m], depth
            depth += 1
            level[reached] = depth

    level, depth = levels(int(np.argmin(count)))
    while True:
        far = np.flatnonzero(level == depth)
        root = int(far[np.argmin(count[far])])
        other, other_depth = levels(root)
        if other_depth <= depth:
            break
        level, depth = other, other_depth
    position = np.empty(m, dtype=np.int64)
    position[np.argsort(level, kind="stable")] = np.arange(m)
    return position


# The largest diagonal block that ``_invert_lower`` hands to dtrtri.
INVERSE_BLOCK = 64


def _invert_lower(L: np.ndarray, band: int, lo: int = 0, hi: int = -1):
    """Replace the lower triangular L[lo:hi, lo:hi] (all of L by default),
    column-major, zero above its diagonal and zero below its band-th
    subdiagonal, by its inverse, in place, by recursive 2 x 2 blocks: with
    L = [[L11, 0], [L21, L22]], the inverse is [[X11, 0], [X21, X22]], X21
    = -X22 (L21 X11).  Diagonal blocks of at most INVERSE_BLOCK go to
    dtrtri.  L21 is zero outside its top right band x band corner, so L21
    X11 reads that corner and as many last rows of X11, and dtrmm applies
    X22."""
    hi = len(L) if hi < 0 else hi
    n = hi - lo
    if n <= INVERSE_BLOCK:
        block, info = scipy.linalg.lapack.dtrtri(L[lo:hi, lo:hi], lower=1)
        if info != 0:
            raise SolverError(f"dtrtri failed with info {info}")
        L[lo:hi, lo:hi] = block
        return
    mid = lo + n // 2
    _invert_lower(L, band, lo, mid)
    _invert_lower(L, band, mid, hi)
    rows, cols = min(band, hi - mid), min(band, mid - lo)
    X21 = L[mid:hi, lo:mid]
    X21[:rows] = L[mid:mid + rows, mid - cols:mid] @ L[mid - cols:mid, lo:mid]
    X21[...] = scipy.linalg.blas.dtrmm(-1.0, L[mid:hi, mid:hi], X21, lower=1)


# ---------------------------------------------------------------------------
# the certificate: one triangular factor R gives K, beta and the spurious
# modes; the scale of its spectrum comes from a short Krylov space of the
# pairing's Gram matrix, the bottom of its spectrum from inverse Lanczos on
# R^T R

# Inverse Lanczos: the most steps one run may take; the Ritz residual,
# relative to its Ritz value, below which a Ritz pair counts as converged;
# and the fraction of the largest Ritz value below which a Ritz value is
# not lifted in the same round, since it carries the largest one's roundoff.
LANCZOS_STEPS = 300
LANCZOS_RTOL = 1e-12
LANCZOS_RANGE = 1e-8

# The rank scale: the dimension of the Krylov space of W W^T it is read
# from, and the bound on its top Ritz value, 1 up to roundoff, that every
# singular value of W obeys (||div v|| <= |v|_1 <= ||v||_H1 on H^1_0).
SCALE_STEPS = 10
SCALE_BOUND = 1.0 + 1e-12

@dataclass(frozen=True)
class Certificate:
    """Triangular factor of the weighted divergence pairing on the raw
    pressures

        W = F B L_A^-T,   A = L_A L_A^T,   F_t = L^-1 / sqrt(|T_t|),

    with _MM2 = L L^T the reference pressure mass block, so that F^T F is
    the inverse of the pressure mass matrix M, its 6T rows (6 a triangle)
    in the triangle order ``order``.  The constrained pressures are the
    coordinates orthogonal to the k = 1 + sigma ``constraints`` Q_z of
    ``constrained_basis``; every divergence satisfies the constraints, so
    W^T Q_z = 0 to roundoff.  ``scale`` is the rank scale, a lower bound
    on the largest singular value of W within a few tenths of a percent,
    and ``factor`` is R, 6T x 6T, born lifted: [W^T; 2 scale Q_z^T] = Q_X
    R (Q_X has orthonormal columns), so R has the singular values of W on
    the constrained pressures plus k values 2 scale, at the top of its
    spectrum.  The squared singular values of W there are the eigenvalues
    of the pressure Schur complement in the mass inner product: the
    number of zero singular values is K, the smallest nonzero one is beta,
    and the nonzero ones lie in [beta, 1]: for a velocity v in H^1_0,
    ||div v||^2 + ||rot v||^2 = |v|_1^2, which is at most the squared norm
    of v in the seminorm and in the full H1 norm.  The null vectors of R
    are the left null vectors of W orthogonal to Q_z; ``divergence_rank``
    lifts them in place (it consumes the factor) and reads K and beta for
    every command; ``spurious_modes`` maps them back through ``order`` and
    F^T and checks their pairing on the per-triangle divergence blocks.
    """

    factor: np.ndarray              # R, (6T, 6T), upper, column-major
    shape: tuple                    # (p, n): constrained pressures, velocities
    scale: float                    # the rank scale
    constraints: np.ndarray         # Q_z, (6T, 1 + sigma)
    order: np.ndarray | None = None         # the triangle of each 6 columns
    pressure_map: np.ndarray | None = None  # F, (T, 6, 6), in the column
                                            # order
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
    """Assemble the pairing and its norms, factor W on the raw pressures,
    and check that the constrained pressures contain every divergence;
    every command builds this same certificate.

    The bubbles are condensed out (``_condense``), so the Cholesky factor
    L_S and its inverse cover only the m = V0 + 2 E0 other nodes, and X =
    W^T is the rows L_S^-1 (F div_r)^T of the other velocities over the
    rows (F_t b_t)^T of the bubbles, b_t triangle t's condensed bubble
    divergences: a 2 x 6 block on the triangle's own 6 columns.  The
    pressure coordinates F_t are one constant factor over the square root
    of the area, as every mass block is the reference block times the
    area.

    The nodes are put in level order (``_level_positions``) and S is
    factored in the reverse of it, so L_S^-1 is upper triangular in level
    order and each triangle's 6 columns of X are zero beyond the place of
    its last node.  With the triangles sorted by that place, X is a
    staircase, and ``_staircase_qr`` factors it window by window, at a
    cost that grows like the window height times p^2, not like p^3.  No
    constraint rotation mixes the columns: R factors the raw pairing with
    the rows 2 scale Q_z^T stacked on it, which lift the constraint
    directions, exact null vectors of X, to the top of the spectrum.  The
    one range-inclusion check, ||X Q_z|| summed over the rows of X as the
    staircase gathers them, confirms that they are null vectors (every
    divergence has mean zero and alternates to zero at the singular
    vertices).

    S sums its blocks with np.bincount, in triangle order, straight into
    lower band storage of its bandwidth in the reverse level order, and is
    factored there (dpbtrf).  L_S is inverted in its own column-major
    storage (``_invert_lower``), and each triangle's 12 rows of F div_r
    meet only the rows of L_S^-T at its 9 nodes, so the rows of F div_r
    L_S^-T are one batched product with those rows, gathered in level
    order.  The rank scale is read from X^T X (``_rank_scale`` on
    ``_pairing_products``) before the staircase, as its first rows need
    it."""
    nodes = number_dofs(topology)
    T = topology.T
    div = assemble_divergence(topology)
    div_r, bubble, K_r = _condense(div, assemble_norms(topology,
                                                       seminorm=seminorm))
    C = pressure_constraints(topology, reports)
    F = _MM2_L_INV / np.sqrt(topology.area)[:, None, None]
    k = C.shape[0]
    p, m = 6 * T - k, _n_nodes(nodes) - T
    inner = nodes[:, :9]                # the other nodes are 0 .. m - 1
    interior = inner >= 0
    # each node's place in level order (the boundary nodes, -1, read the
    # appended -1); S is factored in the reverse order: labels m - 1 - place
    place = np.append(_level_positions(inner, m), -1)[inner]
    label = m - 1 - place
    # S[i, j], i >= j, sums the blocks' entries (a, b) at labels (j, i),
    # and lies at [i - j, j] of the band.  np.bincount adds in input order,
    # which is triangle order here: every entry sums its contributions
    # triangle by triangle.
    t, a, b = np.nonzero(interior[:, :, None] & interior[:, None, :]
                         & (label[:, None, :] >= label[:, :, None]))
    below = label[t, b] - label[t, a]
    band = int(below.max(initial=0))
    S = np.bincount(label[t, a] * (band + 1) + below, weights=K_r[t, a, b],
                    minlength=(band + 1) * m).reshape((band + 1, m), order="F")
    try:
        S = scipy.linalg.cholesky_banded(S, overwrite_ab=True, lower=True,
                                         check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise SolverError(f"velocity Gram matrix is not SPD: {exc}") from exc
    # L_S in full column-major storage, where its entry (j + d, j) lies d +
    # j (m + 1) entries from the start.  The band's unused corner, zero,
    # lands above the diagonal.
    L_S = np.zeros(m * m + band)
    np.lib.stride_tricks.as_strided(
        L_S, (band + 1, m), (L_S.itemsize, L_S.itemsize * (m + 1)))[...] = S
    L_S = L_S[:m * m].reshape((m, m), order="F")
    del S
    # The triangles by the place of their last node, -1 when they have
    # none: the column order of X and R.
    last = place.max(axis=1)
    order = np.argsort(last, kind="stable")
    F, bubble, last = F[order], bubble[order], last[order]
    Q_z = constrained_basis(
        C.reshape(k, T, 6)[:, order].reshape(k, 6 * T), F)
    # P = F div_r, zero at the boundary nodes: triangle t's pressure
    # coordinates against (component, local node).
    div_r = (div_r * interior[:, None, None, :])[order]
    P = np.matmul(F, div_r.reshape(T, 6, 18)).reshape(T, 12, 9)
    del div_r
    if m:                         # (LAPACK rejects an empty triangle)
        _invert_lower(L_S, band)
    # a boundary node reads label 0, which P weights by 0
    label = np.where(interior, label, 0)[order]
    bubble = np.matmul(F, bubble).transpose(0, 2, 1)
    # The rank scale's Krylov start: a fixed-seed raw pressure x in the
    # coordinates F x, less its constraint directions.  A fixed vector of
    # those coordinates would not be the same pressure on a reordered
    # mesh.
    y = np.random.default_rng(0).standard_normal((T, 6, 1))[order]
    y = np.matmul(F, y).reshape(6 * T)
    scale = _rank_scale(*_pairing_products(P, L_S, label, bubble),
                        y - Q_z @ (Q_z.T @ y))
    # X Q_z is (C M^-1 B L_A^-T)^T up to the order of its rows and an
    # invertible factor on the right: the constraint directions must be
    # null vectors of X, to RANGE_RTOL relative to X.  The constrained
    # spectrum never sees them, so a range outside the constrained space
    # would go unnoticed there.
    R, dev, size = _staircase_qr(P, L_S, label, bubble, last, Q_z,
                                 2.0 * scale * Q_z.T)
    del P, L_S
    if dev > RANGE_RTOL * size:
        raise SolverError(
            f"divergences violate the pressure constraints at {dev:.3e} "
            f"relative to {size:.3e}; range inclusion violated")
    return Certificate(factor=R, shape=(p, 2 * (m + T)), scale=scale,
                       constraints=Q_z, order=order, pressure_map=F,
                       divergence=div, nodes=nodes)


def _floor_pivots(R: np.ndarray):
    """(low, pivots): the diagonal entries of R below eps * p * max|r_ii|,
    raised in place to that floor for solving with R, and their values
    before, which the caller puts back: exact zero pivots occur, and the
    floor perturbs R only at roundoff level."""
    diag = np.diagonal(R)
    floor = np.finfo(float).eps * len(R) * np.abs(diag).max(initial=0.0)
    low = np.flatnonzero(np.abs(diag) < floor)
    pivots = diag[low]
    R[low, low] = np.copysign(floor, pivots)
    return low, pivots


def _rank_scale(product, adjoint, start: np.ndarray) -> float:
    """A lower bound on the largest singular value of a matrix X, within a
    few tenths of a percent of it on the certificates: the square root of
    the top Ritz value of X^T X on a Krylov space of at most SCALE_STEPS
    dimensions, from ``start``.  X is given by its products, product(q) =
    X q and adjoint(u) = X^T u (``_pairing_products`` in ``certify``).

    The basis is built with full reorthogonalization, two passes a step,
    and must stay orthonormal to working precision for the Rayleigh-Ritz
    value to be a lower bound.  So the space stops growing at breakdown,
    when the new residual is at roundoff level, eps * p times the largest
    Rayleigh quotient so far (the top Ritz value is at least that): the
    space is then invariant, and its top Ritz value an eigenvalue.  The
    Ritz values come from one eigenvalue problem, that of the k x k Gram
    matrix (X Q^T)^T (X Q^T) of the basis rows Q."""
    p = len(start)
    if not p:
        return 0.0
    steps = min(p, SCALE_STEPS)
    basis = np.empty((steps, p))
    images = []                         # X q for each basis row q
    q = np.array(start, dtype=float)
    q /= np.linalg.norm(q)
    top = 0.0
    for k in range(steps):
        basis[k] = q
        images.append(product(q))
        w = adjoint(images[k])
        top = max(top, float(q @ w))
        done = basis[:k + 1]
        for _ in range(2):
            w -= done.T @ (done @ w)
        residual = float(np.linalg.norm(w))
        if residual <= np.finfo(float).eps * p * top:
            break
        q = w / residual
    images = np.array(images)
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
    """(s_min, Y): the smallest singular value of the upper triangular F
    and, as the columns of Y, the Ritz vectors of the singular values at or
    below thr whose Ritz values lie within LANCZOS_RANGE of the largest.

    Lanczos with full reorthogonalization on (F^T F)^-1 from a fixed-seed
    start, two dtrsv a step on the column-major F, read in place.  Once
    the top Ritz pair has converged, it stops if the largest Ritz value
    and every one in Y have a Ritz residual within LANCZOS_RTOL of
    themselves; after LANCZOS_STEPS steps without that, or at a step that
    overflows, it raises RankIndeterminateError."""
    p = len(F)
    steps = min(p, LANCZOS_STEPS)
    basis = np.empty((steps, p))
    alpha, beta = np.empty(steps), np.empty(steps)
    dtrsv = scipy.linalg.blas.dtrsv
    q = np.random.default_rng(0).standard_normal(p)
    q /= np.linalg.norm(q)
    # near the top of the double range a step can overflow, which the
    # finiteness test reports
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            basis[k] = q
            w = dtrsv(F, dtrsv(F, q, trans=1), overwrite_x=1)
            alpha[k] = q @ w
            done = basis[:k + 1]
            for _ in range(2):
                w -= done.T @ (done @ w)
            beta[k] = np.linalg.norm(w)
            if not (np.isfinite(alpha[k]) and np.isfinite(beta[k])):
                raise RankIndeterminateError(
                    f"inverse Lanczos overflowed at step {k + 1}: the factor "
                    f"is too ill-conditioned to decide the rank")
            d, e = alpha[:k + 1], beta[:k]
            top, z = _tridiagonal_eigh(d, e, top=True)
            # (an invariant subspace, beta 0, has every residual 0)
            if beta[k] * abs(z[-1, 0]) <= LANCZOS_RTOL * top[0]:
                theta, S = _tridiagonal_eigh(d, e)
                # the small Ritz values carry roundoff of the largest, down
                # to 0
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
    """The triangular factor of [R; rows] for the upper triangular,
    column-major R, by one triangular-pentagonal QR (LAPACK dtpqrt), in
    R's place: R^T R gains rows^T rows.  ``divergence_rank`` lifts its
    rounds 1 and later by it; the constraint directions' round 0 is part
    of ``certify``'s staircase."""
    R, _, _, info = scipy.linalg.lapack.dtpqrt(
        0, min(LIFT_BLOCK, len(R)), R, rows, overwrite_a=1, overwrite_b=1)
    if info != 0:
        raise SolverError(f"dtpqrt failed with info {info}")
    return R


@dataclass(frozen=True)
class RankResult:
    rank: int
    nullity: int
    K: int                  # the lifted directions: p - rank
    gap: float              # beta / rejected
    rejected: float         # the largest |R v| of the lifted v, floored
                            # at floor
    floor: float            # eps * max(shape) * scale: the roundoff floor
    beta: float             # smallest accepted singular value
    scale: float            # lower bound on the largest singular value
    null_basis: np.ndarray  # (6T, p - rank) orthonormal basis of the lifted
                            # directions: the null vectors of R orthogonal
                            # to the constraints


def divergence_rank(cert: Certificate,
                    tol: Tolerances = Tolerances()) -> RankResult:
    """Rank of the pairing, the deficiency K and beta, with the gap test:
    the accepted singular values must clear the rejected ones by 10x.

    A singular value is accepted above thr = tol.rank * scale, a relative
    threshold on the certificate's rank scale; a scale above 1 (beyond
    roundoff) breaks the bound every singular value obeys: SolverError.
    The certificate's factor is born with the constraint directions Q_z
    lifted to the top of its spectrum; they are not counted.  Inverse
    Lanczos finds the smallest singular value of the square factor; while
    it is at or below the threshold, every converged Ritz vector v there
    is lifted: R is replaced by the factor of [R; scale v^T], which moves
    v to the top of the spectrum and leaves the rest in place.  The
    number of those is K = p - rank, with p = cert.shape[0] the
    constrained pressure dimension 6T - 1 - sigma; their orthonormal basis
    is ``null_basis`` (every constrained direction at scale 0), and beta
    is the smallest singular value of the lifted factor (read by
    ``infsup_constant``).  Every factor here is square and column-major.

    The rank consumes the factor: it is lifted and floored in its own
    storage, the largest array of an analysis, and left read-only, so that
    a second rank of the certificate is a SolverError instead of a reading
    of the lifted factor."""
    if not cert.factor.flags.writeable:
        raise SolverError("the certificate's factor is read-only: an earlier "
                          "divergence_rank lifted it; certify again")
    p, scale = cert.shape[0], cert.scale
    if scale * scale > SCALE_BOUND:
        raise SolverError(
            f"singular value {scale:.17g} of the weighted pairing exceeds "
            f"the bound 1; the pairing or its norms are wrong")
    thr = tol.rank * scale
    # a writeable view lifts the factor, which is read-only from here on
    R = cert.factor.view()
    cert.factor.flags.writeable = False
    beta = 0.0
    # A rejected value below roundoff level is noise whose size depends on
    # the LAPACK kernel; the gap measures against the roundoff floor then,
    # and also when nothing is rejected.
    floor = np.finfo(float).eps * max(cert.shape) * scale
    largest_rejected = floor
    lifted = 0 if scale > 0.0 else p
    Q_z = cert.constraints
    rounds = [np.zeros((len(R), 0))]   # the directions lifted in each round
    while lifted < p:
        low, pivots = _floor_pivots(R)
        beta, Y = _inverse_lanczos(R, thr)
        if Y.shape[1]:
            # One step of block inverse iteration damps the Ritz vectors'
            # error along each larger singular value s_j by (s / s_j)^2;
            # the singular values of R (unfloored) on that block then
            # decide what is lifted.
            V = scipy.linalg.solve_triangular(R, Y, trans="T",
                                              check_finite=False)
            V = scipy.linalg.solve_triangular(R, V, check_finite=False)
            V = np.linalg.qr(V)[0]
        R[low, low] = pivots
        if not Y.shape[1]:
            break
        RV = R @ V
        mu, Z = np.linalg.eigh(RV.T @ RV)
        s = np.sqrt(np.maximum(mu, 0.0))
        if s[0] > thr:
            raise RankIndeterminateError(
                f"inverse Lanczos put singular value {beta:.3e} at or below "
                f"the threshold {thr:.3e}, its block puts none there")
        largest_rejected = max(largest_rejected, float(s[s <= thr][-1]))
        V = V @ Z[:, s <= thr]
        R = _lift(R, scale * V.T)
        rounds.append(V)
        lifted += V.shape[1]
    if lifted == p:                 # nothing accepted
        beta = 0.0
    if scale:
        null_basis = np.linalg.qr(np.hstack(rounds))[0]
    else:
        null_basis = np.linalg.qr(Q_z, mode="complete")[0][:, Q_z.shape[1]:]
    gap = float("inf")
    if largest_rejected > 0.0:
        gap = float(beta / largest_rejected)
        if gap < 10.0:
            raise RankIndeterminateError(
                f"singular values {beta:.3e} / {largest_rejected:.3e} "
                f"straddle the threshold {thr:.3e} with gap {gap:.2f} < 10")
    rank = p - lifted
    return RankResult(rank=rank, nullity=cert.shape[1] - rank, K=lifted,
                      gap=gap, rejected=largest_rejected, floor=floor,
                      beta=beta, scale=scale, null_basis=null_basis)


def infsup_constant(rank: RankResult) -> float:
    """The inf-sup constant beta of a ``divergence_rank``: the smallest
    singular value of the weighted pairing on the constrained pressures
    that the rank accepts, 0 when it accepts none.  ``analyze`` and
    ``infsup`` both read beta here."""
    return rank.beta


def spurious_modes(cert: Certificate, rank: RankResult):
    """M-orthonormal basis of the constrained pressures with zero pairing
    against every velocity, returned as raw coefficient vectors.

    They are the null vectors of the factor R that ``divergence_rank``
    lifted, ``rank.null_basis``, mapped back through F^T to each
    triangle's place in the mesh, and accepted only if they pair with no
    velocity: B^T q sums the per-triangle blocks at the global nodes."""
    V = rank.null_basis
    if not V.shape[1]:
        return []
    F, nodes = cert.pressure_map, cert.nodes
    T, K = len(F), V.shape[1]
    Q = np.empty((T, 6, K))
    Q[cert.order] = np.matmul(F.transpose(0, 2, 1), V.reshape(T, 6, K))
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


def strang_dimensions(topology: MeshTopology, sigma_i: int, sigma_b: int,
                      K: int) -> SplineDims:
    """The spline dimensions of a mesh of a disk (``analyze_mesh`` checks
    Euler's relation before it certifies) and deficiency K."""
    E, E0, V, V0 = topology.E, topology.E0, topology.V, topology.V0
    sigma = sigma_i + sigma_b
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

