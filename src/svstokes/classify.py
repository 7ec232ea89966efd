"""Vertex-level scalar criteria and the vertex taxonomy.

Every vertex class is decided here, read off the fan table
``topology.fans``: the straight-line detector Theta(z), and the decision
quantities |D_i| h_z^s of the determinants D_0, D_1, D_2 certifying
even-valence interior vertices, which ``mesh.enumerate_patch`` stores
in the table with the patch coefficients b_ji / c_ji / d_ji they sum.
``classify_mesh`` decides every vertex in one array program.  The edge
weights M_e^z = cot phi_1 + cot phi_2, the cotangents of the two angles
at z beside the edge e, are the fan table's column ``weight``;
``trees.build_tree_cover`` reads them at both ends of each interior
edge.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .mesh import FanTable, MeshError, MeshTopology

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
    consecutive angles at z, ``fans.pair_sin``.

    Consecutive pairs wrap around on an interior fan; on a boundary fan
    only the N-1 adjacent pairs count (``pair_sin`` is NaN at its last
    corner), so a single-triangle fan gets the vacuous value 0 (treated as
    singular).
    """
    out = np.zeros(len(fans.degree))
    np.fmax.at(out, fans.center, np.abs(fans.pair_sin))
    return out


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


def classify_mesh(topology: MeshTopology, tol: Tolerances = Tolerances()):
    """Classify every vertex; returns (reports, summary).  The one place a
    vertex class is decided, in one array program over Theta(z), the
    determinants ``fans.D`` and the patch diameters ``fans.h_z``: later
    stages read ``reports[z]``, and the even interpolant at z reads the
    d-coefficients of its fan off the fan table.

    Raises MeshError for the first interior, non-singular, even-valence
    vertex whose |D_i| h_z^s is not finite: at a length scale near the
    ends of the double range the squared edge lengths over- or underflow,
    and such a value decides nothing."""
    fans = topology.fans
    th = theta(fans)
    singular = th <= tol.singular
    # |D_i| h_z^s with s = 2 for i = 0 and 1 otherwise, h_z^2 by libm pow
    # as the scalar ``h_z ** 2``; NaN on boundary fans, never read
    decisions = np.abs(fans.D) * np.float_power(fans.h_z[:, None],
                                                [2.0, 1.0, 1.0])
    best = np.argmax(decisions, axis=1)
    value = decisions[np.arange(len(best)), best]
    odd = fans.degree % 2 == 1
    even = ~singular & ~fans.boundary & ~odd
    undecided = even & ~np.isfinite(value)
    if undecided.any():
        z = int(np.argmax(undecided))
        raise MeshError(f"vertex {z}: the even-valence decision |D_i| h_z^s "
                        f"is {value[z]}, not finite; the mesh's length "
                        f"scale is out of range")
    local = singular | ~fans.boundary & (odd | (value > tol.decision))
    status = np.where(singular, SINGULAR, np.where(
        fans.boundary, BOUNDARY, np.where(odd, ODD, np.where(
            local, EVEN, NOT_LI)))).tolist()
    reports = [
        VertexReport(vertex=z, valence=n, boundary=bd, theta_value=t,
                     singular=sg, status=s,
                     even_index=i if s == EVEN else None,
                     decision_value=v if s in (EVEN, NOT_LI) else None,
                     conditioning=(1.0 + 1.0 / v if s == EVEN else
                                   1.0 if s in (SINGULAR, ODD) else None))
        for z, (t, sg, s, n, bd, i, v) in enumerate(zip(
            th.tolist(), singular.tolist(), status,
            fans.degree.tolist(), fans.boundary.tolist(), best.tolist(),
            value.tolist()))]
    sigma_i = int(np.count_nonzero(singular & ~fans.boundary))
    sigma_b = int(np.count_nonzero(singular & fans.boundary))
    summary = {
        "counts": dict(Counter(status)),
        "sigma": sigma_i + sigma_b,
        "sigma_i": sigma_i,
        "sigma_b": sigma_b,
        "n_local_interpolating": int(np.count_nonzero(local)),
    }
    return reports, summary
