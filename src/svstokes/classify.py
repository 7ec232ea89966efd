"""Vertex-level scalar criteria and the vertex taxonomy.

Every vertex decision quantity lives here, read off the fan table
``topology.fans``: the straight-line detector Theta(z), the patch
coefficients b_ji / c_ji / d_ji, the determinants D_0, D_1, D_2
certifying even-valence interior vertices, and the resulting per-vertex
classification.  The edge weights M_e^z = cot phi_1 + cot phi_2, the
cotangents of the two angles at z beside the edge e, are sums of two
entries of the corner table ``topology.cot``; ``trees.build_tree_cover``
reads them at both ends of each interior edge.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .mesh import FanTable, MeshError, MeshTopology

# With (x, y)^perp = (-y, x), -(v . e_i^perp) is -v_y for i = 1 and v_x
# for i = 2: the swapped columns of v times _TURN.
_TURN = np.array([-1.0, 1.0])

SINGULAR = "SingularLI"
ODD = "OddLI"
EVEN = "EvenLI"
NOT_LI = "NotLI"
BOUNDARY = "BoundaryNonSingular"


@dataclass(frozen=True)
class Tolerances:
    singular: float = 1e-10   # Theta(z) threshold for singularity
    decision: float = 1e-8    # |D_i| h_z^s threshold for the even-N test
    accept: float = 1e-8      # |M_e^z| threshold for edge acceptability
    rank: float = 1e-9        # singular-value threshold (relative)


def theta(fans: FanTable) -> np.ndarray:
    """Theta(z) of every vertex, (V,): the max |sin| of the sums of
    consecutive angles at z.

    Consecutive pairs wrap around on an interior fan; on a boundary fan
    only the N-1 adjacent pairs count, so a single-triangle fan gets the
    vacuous value 0 (treated as singular).
    """
    # each corner's successor in its fan: the next corner, or on an
    # interior fan the first one after the last
    last = fans.position == fans.degree[fans.center] - 1
    nxt = np.arange(len(fans.tri)) + 1
    nxt[last] = fans.offset[fans.center[last]]
    paired = ~(last & fans.boundary[fans.center])
    out = np.zeros(len(fans.degree))
    np.maximum.at(out, fans.center[paired], np.abs(np.sin(
        fans.theta[paired] + fans.theta[nxt[paired]])))
    return out


@dataclass(frozen=True)
class DCoefficients:
    """Patch coefficients for an interior vertex (arrays indexed by the
    patch triangle slot; slot j corresponds to the (j+1)-th triangle)."""

    b: np.ndarray      # (N, 2) per-triangle coefficients, columns i=1,2
    c: np.ndarray      # (N, 2) prefix sums of b
    d0: np.ndarray     # (N,) vertex divergence pattern of the normal corrector
    d: np.ndarray      # (N, 2) vertex divergence pattern of the directional
                       # correctors, columns i=1,2
    D: np.ndarray      # (3,) alternating sums: [D_0, D_1, D_2]
    h_z: float

    def decision(self, i: int) -> float:
        """Scale-invariant decision quantity |D_i| h_z^s."""
        s = 2 if i == 0 else 1
        return abs(self.D[i]) * self.h_z ** s


def compute_dcoefficients(topology: MeshTopology, z: int) -> DCoefficients:
    """All b/c/d coefficients and determinants of the interior vertex z,
    over the slices of its fan."""
    fans = topology.fans
    if fans.boundary[z]:
        raise MeshError("coefficients are defined for interior vertices only")
    corners, spokes = fans.corners(z), fans.spokes(z)
    tris = fans.tri[corners]
    n = len(tris)
    # Index j - 1 is cyclic: x[prev][j] = x[j - 1], and x[-1] at j = 0.
    prev = np.arange(-1, n - 1)
    y = topology.mesh.vertices[fans.spoke[spokes]]  # y_{j+1} = y[j]
    # |e_{j+1}|^2 = elen2[j] by libm pow, as the scalar ``elen[j] ** 2``
    # of the formula rounds it; the product elen * elen differs from it
    # in the last bit about once in a thousand, and the NotLI decision
    # values are roundoff.
    elen2 = np.float_power(fans.edge_len[spokes], 2)
    cot = topology.cot[tris, fans.slot[corners]]    # cot theta_{j+1} = cot[j]
    areas = topology.area[tris]                     # |T_{j+1}| = areas[j]

    # Elementwise operations only, no BLAS dot: every entry rounds as the
    # scalar formula for it does.
    dy = y - y[prev]                                 # y_{j+1} - y_j
    b = dy[:, ::-1] * _TURN / 3.0                    # -(dy . e_i^perp) / 3
    c = np.cumsum(b, axis=0)

    inv = 1.0 / elen2
    d0 = cot * (inv - inv[prev])
    ce = c / elen2[:, None]
    d = (3.0 * b / areas[:, None]
         - 12.0 * cot[:, None] * (ce - ce[prev]))
    # c_{0,i} = c_{N,i} = 0 by the zero-sum property; the cyclic c[j-1] at
    # j=0 picks up c[N-1], which equals the b sum and is zero analytically,
    # so no special-casing is needed beyond verifying the invariant in tests.

    # Alternating sums by np.sum, not a BLAS dot: BLAS rounding depends on
    # the kernel, and the decisions of D_i that cancel analytically (NotLI
    # values, ties between equal |D_i|) must not.  One 1-D sum per D_i: a
    # 2-D reduction may add in another order.
    signs = np.where(np.arange(n) % 2 == 1, 1.0, -1.0)    # (-1)^(j+1)
    D = np.array([np.sum(signs * d0), np.sum(signs * d[:, 0]),
                  np.sum(signs * d[:, 1])])
    return DCoefficients(b=b, c=c, d0=d0, d=d, D=D, h_z=float(fans.h_z[z]))


@dataclass(frozen=True)
class VertexReport:
    vertex: int
    valence: int
    boundary: bool
    theta_value: float
    singular: bool
    status: str                  # SingularLI | OddLI | EvenLI | NotLI | BoundaryNonSingular
    even_index: int | None = None       # chosen i for EvenLI
    decision_value: float | None = None  # |D_i| h_z^s for the chosen i
    conditioning: float | None = None    # 1 + 1/(|D_i| h_z^s) proxy

    @property
    def local_interpolating(self) -> bool:
        return self.status in (SINGULAR, ODD, EVEN)


def classify_vertex(topology: MeshTopology, z: int, th: float,
                    tol: Tolerances = Tolerances()):
    """The report of vertex z, whose Theta(z) is ``th``, and, for an
    even-valence interior vertex that is not singular, the d-coefficients
    its decision was taken on (None otherwise): the even local
    interpolant is built from the same ones."""
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
    decisions = [coeffs.decision(i) for i in range(3)]
    best = int(np.argmax(decisions))
    if decisions[best] > tol.decision:
        return VertexReport(status=EVEN, even_index=best,
                            decision_value=decisions[best],
                            conditioning=1.0 + 1.0 / decisions[best],
                            **base), coeffs
    return VertexReport(status=NOT_LI, decision_value=decisions[best],
                        **base), coeffs


def classify_mesh(topology: MeshTopology, tol: Tolerances = Tolerances()):
    """Classify every vertex; returns (reports, summary, dcoefficients).
    The one place a vertex class is decided: later stages read
    ``reports[z]``, and the even interpolant at z reads
    ``dcoefficients[z]`` (None where ``classify_vertex`` computed none)."""
    reports, dcoefficients = zip(*(
        classify_vertex(topology, z, th, tol)
        for z, th in enumerate(theta(topology.fans).tolist())))
    reports = list(reports)
    counts = {}
    for r in reports:
        counts[r.status] = counts.get(r.status, 0) + 1
    sigma_i = sum(1 for r in reports if r.singular and not r.boundary)
    sigma_b = sum(1 for r in reports if r.singular and r.boundary)
    summary = {
        "counts": counts,
        "sigma": sigma_i + sigma_b,
        "sigma_i": sigma_i,
        "sigma_b": sigma_b,
        "n_local_interpolating": sum(1 for r in reports if r.local_interpolating),
    }
    return reports, summary, dcoefficients
