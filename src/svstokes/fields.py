"""Local velocity fields as per-triangle cubic vector polynomials.

All constructions live on small vertex patches: the per-patch table of
edge fields, normal correctors and zero-edge-mean scalars, the local
interpolants (singular / odd / even vertex cases), the boundary
interpolant, and the edge transfer that moves vertex-divergence targets
across one acceptable mesh edge (``trees.tree_interpolant`` composes
them along the trees of a cover).  The table takes the ids of a group of
vertices, all interior or all on the boundary, every construction their
reports, of any classes, with targets (G, S, N) padded with zeros to the
group's largest valence N, and all read the vertex fans, with the
d-coefficients of the even seeds, off the fan table ``topology.fans``.
Every member of a group goes through one chain contraction of the edge
fields; only its seed differs by class: none at a singular vertex,
whose telescoping weights are its rows of the chain table, the half
alternating sum at an odd one, the corrector seed at an even one and
the zero-edge-mean scalar at the straightest edge at a non-singular
boundary one.  Every construction returns one FieldBlock of support
rows and, as VertexValues, the divergences its fields leave away from
the patch centers (none for a local interpolant); ``stack_blocks``
joins such pairs into one, which verify_field checks.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import prod
from typing import NamedTuple

import numpy as np

from . import poly
from .classify import EVEN, ODD, Tolerances
from .mesh import FanTable, MeshTopology


class FieldError(ValueError):
    """A field construction's preconditions are not met."""


class UnacceptableEdgeError(FieldError):
    """Transfer requested across an edge with (near-)zero weight."""


# ---------------------------------------------------------------------------
# Field blocks


# The divergence's degree-2 coefficients as one contraction with the
# stacked DIFF: div = sum_s DIFF[s] @ (g @ c)[s] = _DIV @ (g @ c).ravel().
_DIV = poly.DIFF.transpose(1, 0, 2).reshape(len(poly.MONO2), -1)    # (6, 30)
# Its entries summed over the monomials of each barycentric slot, (6, 3):
# at unit coefficients, the terms of divergence coefficient i of a row sum
# to sum_s _DIV_REACH[i, s] g_s, with g_s = |grad l_s|_1 (no entry of
# _DIV is negative).  At the vertex coefficient of l_v^2 that is
# sum_s g_s + 2 g_v (3 from l_v^3, 1 from each l_s l_v^2), and in the
# triangle mean _MEAN_REACH sum_s g_s, the same weight for every slot.
_DIV_REACH = _DIV.reshape(len(poly.MONO2), 3, -1).sum(axis=2)
_MEAN_REACH = float((poly.INT2_UNIT @ _DIV_REACH)[0])


def _reach(grads):
    """sum_s g_s and sum_s g_s + 2 g_v (..., 3) of hat gradients (..., 3, 2)"""
    g = np.abs(grads[..., 0]) + np.abs(grads[..., 1])
    g_sum = g[..., 0] + g[..., 1] + g[..., 2]
    return g_sum, g_sum[..., None] + 2.0 * g


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


def stack_blocks(topology: MeshTopology, parts):
    """One (FieldBlock, VertexValues) pair of a sequence of them on
    ``topology``: the fields of each part are numbered after those of the
    parts before it, and no parts give a block of no fields."""
    offset = np.cumsum([0] + [b.F for b, _ in parts]).tolist()
    blocks = [(b.field + o, b.tri, b.coeffs)
              for (b, _), o in zip(parts, offset)]
    values = [(v.field + o, *v[1:]) for (_, v), o in zip(parts, offset)]
    empty = (_NO_VALUES.field, _NO_VALUES.tri,
             np.zeros((0, 2, len(poly.MONO3))))
    block = FieldBlock(topology, offset[-1], *(
        _frozen(np.concatenate(a)) for a in zip(empty, *blocks)))
    return block, VertexValues(*(np.concatenate(a)
                                 for a in zip(_NO_VALUES, *values)))


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
# Every construction takes a group of G vertices, all interior or all on
# the boundary, of any classes, and builds their fields in one array
# program with a leading G axis.  The vertices may differ in valence: the
# group's arrays run to its largest valence N, and the places of a vertex
# past its own valence n are zero (a padding corner repeats its last
# corner, so every gather stays finite).  Every sum runs across the
# padded axis in order (``_combine``), or adds a triangle's two edges
# (``_edge_sum``), so a zero term adds nothing and a vertex's fields have
# the bits of a group of one.


def _group(topology, reports, target, what):
    """(edge table, reports, targets (G, S, N)) of a construction's call
    on a sequence of G vertex reports, with a target array (G, S, N), N
    the largest valence of the group and zeros past each vertex's own.
    The valence of a vertex is read off the fan table by ``edge_table``."""
    a = np.asarray(target, dtype=float)
    if (not isinstance(reports, Sequence) or a.ndim != 3
            or len(a) != len(reports)):
        raise FieldError(f"expected a sequence of G reports and {what} of "
                         f"shape (G, S, N), got {a.shape}")
    table = edge_table(np.array([r.vertex for r in reports], dtype=np.int64),
                       topology)
    n = table.corner.shape[1]
    if a.shape[2] != n:
        raise FieldError(f"expected {what} of shape (G, S, N) = "
                         f"({len(a)}, S, {n}), got {a.shape}")
    padding = np.arange(n) >= table.n[:, None]                 # (G, N)
    if (padding & (a != 0.0).any(axis=1)).any():
        raise FieldError(f"{what} must be zero past each vertex's valence")
    return table, reports, a


# ---------------------------------------------------------------------------
# The per-patch edge-field table

# _SQUARE[a, b] holds the degree-3 coefficients of l_a^2 l_b (l_a^3 when
# a == b): a single monomial each.  _KAPPA[a, b] (a != b) is the
# zero-edge-mean scalar l_a^2 l_b - l_a l_b / 2 of the edge from slot a to
# slot b, homogenized.  Every field of a patch is gathered from these two.
# Slot a = _PAD, of the padding places, gathers zeros.
_PAD = 3
_SQUARE = np.zeros((4, 3, len(poly.MONO3)))
_KAPPA = np.zeros((4, 3, len(poly.MONO3)))
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
# The spoke of the edge before a triangle is its incoming one, slot z + 1
# of a counter-clockwise triangle; the spoke of the edge after it is its
# outgoing one, slot z + 2.
_SPOKE_SLOT = np.array([1, 2])[:, None, None]
# The edge before triangle j is edge j - 1, the edge after it edge j.
_BEFORE_AFTER = np.array([-1, 0])[:, None]


@dataclass(frozen=True)
class EdgeTable:
    """The interior-edge fields of a group of G vertices ``z``, all
    interior or all on the boundary, each over the triangles tris[j] of
    its fan, padded to the largest valence N of the group.

    ``n[g]`` is the valence of z[g], and ``corner[g, j]`` indexes the fan
    table ``fans`` at triangle j of z[g] and at the spoke after it (its
    last corner again for j >= n[g]).  Interior edge k of z[g] is the
    spoke after corner k, shared by tris[k] and tris[k+1] (cyclically on
    an interior fan), and each of its fields is zero off those two
    triangles: its edge field (unit vertex divergence at z), its normal
    corrector (interior fans only) and its zero-edge-mean scalar.  So
    triangle j holds the fields of two edges, the edge before it, j - 1
    (n - 1 for triangle 0 of an interior fan), and the edge after it, j:
    ``w_tri[0, g, j]`` and ``w_tri[1, g, j]`` are their edge fields on
    tris[j], ``chi_tri`` their normal correctors and ``kappa_tri`` their
    scalars, zero where the triangle has no such edge (at the ends of a
    boundary fan, and past the valence).  They are gathered by the
    corners of the edges' spokes ``spoke`` and the slots ``sz`` and ``sy``
    of z and of the spoke in the triangle; ``chi_tri`` and ``kappa_tri``,
    which only some constructions read, on first use.  ``last[g]`` is the
    edge before triangle 0 (M = N - boundary, past the edges of the group,
    where there is none); ``edge_row`` gives one edge's fields over the
    whole fan.  ``l_z2[g, j]`` is l_z^2 on tris[j], the profile of the
    directional correctors.
    """

    fans: FanTable
    z: np.ndarray               # (G,)
    n: np.ndarray               # (G,)
    boundary: bool
    corner: np.ndarray          # (G, N)
    spoke: np.ndarray           # (2, G, N)
    sz: np.ndarray              # (2, G, N)
    sy: np.ndarray              # (2, G, N)
    last: np.ndarray            # (G,)
    w_tri: np.ndarray           # (2, G, N, 2, 10)
    l_z2: np.ndarray            # (G, N, 10)

    @cached_property
    def chi_tri(self) -> np.ndarray | None:         # (2, G, N, 2, 10)
        if self.boundary:
            return None
        fans, spoke = self.fans, self.spoke
        normal = (12.0 / fans.edge_len[spoke])[..., None] * fans.normal[spoke]
        return _outer(normal, _SQUARE[self.sz, self.sy])

    @cached_property
    def kappa_tri(self) -> np.ndarray:              # (2, G, N, 10)
        return _KAPPA[self.sz, self.sy]

    def edges(self):
        """(G, M) bool: the interior edges of each vertex."""
        M = self.corner.shape[1] - self.boundary
        return np.arange(M) < (self.n - self.boundary)[:, None]

    def edge_row(self, tri, g, k):
        """The dense rows (len(g), N, ...) of edge k[i] of member g[i],
        out of a per-triangle table ``tri`` (``w_tri``, ``chi_tri`` or
        ``kappa_tri``): nonzero on tris[k] and on the triangle after it."""
        after = (k + 1) % self.n[g]
        out = np.zeros((len(g),) + tri.shape[2:])
        out[np.arange(len(g)), k] = tri[1, g, k]
        out[np.arange(len(g)), after] = tri[0, g, after]
        return out


def _outer(vec, mono):
    """The products (..., 2, 10) of vectors (..., 2) and coefficients
    (..., 10), one rounding each."""
    return np.einsum("...c,...m->...cm", vec, mono)


def edge_table(z, topology: MeshTopology) -> EdgeTable:
    """Gather every edge field of a group of vertices, the ids ``z`` (G,),
    all interior or all on the boundary, from _SQUARE and _KAPPA by the
    slot of z and the slot of the spoke in each edge triangle."""
    fans = topology.fans
    z = np.asarray(z, dtype=np.int64)
    if not len(z):
        raise FieldError("a patch group needs at least one vertex")
    bd = bool(fans.boundary[z[0]])
    if (fans.boundary[z] != bd).any():
        raise FieldError("a patch group needs patches all interior or all "
                         "on the boundary")
    deg = fans.degree[z]
    N = int(deg.max())
    j, n, offset = np.arange(N), deg[:, None], fans.offset[z][:, None]
    corner = offset + np.minimum(j, n - 1)
    slots = fans.slot[corner]
    # the edges before and after each triangle, j - 1 and j, where it has
    # them: edge n - 1 before triangle 0 of an interior fan
    last = deg - 1 if not bd else np.full(len(z), N - 1)
    k = (j + _BEFORE_AFTER)[:, None]                          # (2, 1, N)
    # the edge after the last triangle of a boundary fan is a boundary edge
    has = (j < n - np.array([0, bd])[:, None, None]) & ((k >= 0) | (not bd))
    spoke = offset + np.minimum(np.where(k < 0, n - 1, k), n - 1)
    sz = np.where(has, slots, _PAD)
    sy = (sz + _SPOKE_SLOT) % 3
    # l_z^2 l_y times the spoke
    w_tri = _outer(fans.vec[spoke], _SQUARE[sz, sy])
    return EdgeTable(fans=fans, z=z, n=deg, boundary=bd, corner=corner,
                     spoke=spoke, sz=sz, sy=sy, last=last, w_tri=w_tri,
                     l_z2=_L_Z2[np.where(j < n, slots, _PAD)])


def _sorted_rows(topology, table, coeffs):
    """The fan triangles (G, N) of each vertex of the group in ascending
    order, its padding places last, and the coefficients (G, S, N, 2, 10)
    over them in that order."""
    tris = topology.fans.tri[table.corner]
    padding = np.arange(tris.shape[1]) >= table.n[:, None]
    order = np.argsort(np.where(padding, topology.T, tris), axis=1)
    g = np.arange(len(tris))[:, None]
    return (tris[g, order],
            coeffs[g[..., None], np.arange(coeffs.shape[1])[:, None],
                   order[:, None]])


def _patch_block(topology, table, coeffs):
    """FieldBlock of the group's (G, S, N, 2, 10) coefficients over the
    fan triangles: field g S + s is the field of target s of vertex g."""
    tris, rows = _sorted_rows(topology, table, coeffs)
    return _rows_block(topology, tris[:, None], rows)


def _xi(table: EdgeTable, i, c, g=slice(None)):
    """(uncorrected, mean-zero corrected) corrector of direction i[m] in
    {0, 1, 2} of each member g[m] of an interior group (all by default),
    each (G', N, 2, 10), from the members' c-coefficients (G', N, 2).
    Directions 1 and 2 are the directional correctors; direction 0 is the
    sum of the normal correctors, whose uncorrected part is zero."""
    i, n, l_z2 = np.asarray(i), table.n[g], table.l_z2[g]
    G, N, n_mono = l_z2.shape
    tilde = np.zeros((G, N, 2, n_mono))
    m = np.flatnonzero(i > 0)
    tilde[m, :, i[m] - 1] = l_z2[m]
    # c_{n,i} = 0: the last corrector drops out, and so does the padding
    j = np.arange(N)
    weights = np.where(j < n[:, None] - 1,
                       c[np.arange(G), :, np.maximum(i - 1, 0)], 0.0)
    weights[i == 0] = np.where(j < n[i == 0, None], -1.0, 0.0)
    return tilde, tilde - _edge_sum(table, weights, table.chi_tri, g)


def _edge_sum(table: EdgeTable, weights, rows, g=slice(None)):
    """sum_k weights[m, ..., k] times the field of edge k of member g[m]
    (all by default), over the interior edges k, dense over the member's
    triangles: (G', ..., N, 2, 10) from weights (G', ..., M) and an edge
    table's fields on the triangles, ``w_tri`` or ``chi_tri``.

    A field is zero off its edge's two triangles, so each triangle adds
    the terms of its own two edges (a zero term for a missing one): the
    bits of the dense sum over every edge in order (``_combine``), whose
    other terms are zero, as a sum of two terms has the same bits in
    either order."""
    before, after = rows[:, g]                            # (G', N, 2, 10)
    G, N = before.shape[:2]
    # the weights of the edge after each triangle (a zero past the edges
    # of a boundary fan), shifted by one for the edge before it
    w = weights
    if w.shape[-1] < N:
        w = np.concatenate([w, np.zeros(w.shape[:-1] + (1,))], axis=-1)
    w_before = np.concatenate([w[np.arange(G), ..., table.last[g]][..., None],
                               w[..., :-1]], axis=-1)
    shape = (G,) + (1,) * (w.ndim - 2) + before.shape[1:]
    return (w_before[..., None, None] * before.reshape(shape)
            + w[..., None, None] * after.reshape(shape))


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

    The terms are added in q order, across the rows, so a member of a
    group and a block row get the very bits of their own call, and zero
    terms past a vertex's valence add nothing (a BLAS product would sum
    groups and blocks of different sizes in different orders, and so
    would numpy's pairwise sum along a contiguous axis: a single column
    gets a twin, so that no sum runs along one)."""
    c = np.asarray(c)
    size = prod(rows.shape[2:])
    flat = rows.reshape(rows.shape[:2] + (size,))
    if size == 1:
        flat = np.repeat(flat, 2, axis=-1)
    flat = flat.reshape(flat.shape[:1] + (1,) * (c.ndim - 2) + flat.shape[1:])
    terms = c[..., None] * flat
    return terms.sum(axis=-2)[..., :size].reshape(terms.shape[:-2]
                                                  + rows.shape[2:])


@lru_cache(maxsize=None)
def _signed_prefix(N):
    """P[n, p, q] = (-1)^(q - p) for p <= q < n, else 0, for every n <= N:
    (a @ P[n])[q] = a_q - a_{q-1} + ... for q < n."""
    n = np.arange(N + 1)[:, None, None]
    p, q = np.arange(N)[:, None], np.arange(N)
    return _frozen(np.where((p <= q) & (q < n), (-1.0) ** (q - p), 0.0))


@lru_cache(maxsize=None)
def _chain_signs(N):
    """(T, t): the entries of the chain bases of every patch of at most N
    triangles, by the places a, b = -N .. N of triangle p and edge q from
    the seed, at index a + N, with a last index of zeros.

    T[a, b] is the chain entry: a chain runs forward from the seed, over
    0 <= b < a, with the sign (-1)^(a - 1 - b), and backward, over
    a <= b < 0, with the sign (-1)^(b - a).  t[a] = (-1)^|a| is the sign
    of the pollution a seed leaves at distance |a|."""
    a, b = np.arange(-N, N + 1)[:, None], np.arange(-N, N + 1)
    forward = (0 <= b) & (b < a)
    steps = np.where(forward, a - 1 - b, b - a)
    T, t = np.zeros((2 * N + 2, 2 * N + 2)), np.zeros(2 * N + 2)
    # (-1)^k as 1 - 2 (k & 1), by the parity of k (negative k included)
    T[:-1, :-1] = np.where(forward | ((a <= b) & (b < 0)),
                           1.0 - 2.0 * (steps & 1), 0.0)
    t[:-1] = 1.0 - 2.0 * (np.abs(a[:, 0]) & 1)
    return _frozen(T), _frozen(t)


def _chains(n, s, N, boundary: bool):
    """(S, sign) of a group of patches of n[g] <= N triangles, each seeded
    at tris[s[g]]: the chain basis of patch g is v_p = sum_q S[g, p, q] w_q
    + sign[g, p] seed, and the entries past n[g] (past its n[g] - 1 edges
    on a boundary patch) are zero.

    On an interior patch the chain runs once round the cycle, forward
    from the seed: the places are taken mod n.  On a boundary patch it
    runs forward and backward from the seed, so the sign of the pollution
    a seed leaves elsewhere alternates with the distance from the seed.
    """
    n, s = n[:, None], (np.zeros_like(n) + s)[:, None]
    p, q = np.arange(N), np.arange(N - int(boundary))
    rp, rq = p - s, q - s
    if not boundary:
        rp, rq = rp % n, rq % n
    T, t = _chain_signs(N)
    rp = np.where(p < n, rp + N, 2 * N + 1)
    rq = np.where(q < n - int(boundary), rq + N, 2 * N + 1)
    return T[rp[:, :, None], rq[:, None, :]], t[rp]


def _contract(table, a, seed, seed_pos, singular=None):
    """Coefficients (G, S, N, 2, 10) of sum_p a[g, s, p] v_p for the chain
    basis of each vertex's seed (G, N, 2, 10) at tris[seed_pos[g]].  The
    members flagged ``singular`` (G,) take no seed: their weights are the
    telescoping prefix sums b_j = a_j - b_{j-1} on the edges 0 .. n-2."""
    N = table.corner.shape[1]
    S, sign = _chains(table.n, seed_pos, N, table.boundary)
    if singular is not None and singular.any():
        S[singular] = _signed_prefix(N)[table.n[singular] - 1][
            :, :, :S.shape[2]]
        sign[singular] = 0.0
    return (_edge_sum(table, _combine(a, S), table.w_tri)
            + _combine(a, sign)[..., None, None, None] * seed[:, None])


def _singular(reports, a):
    """The singular members (G,) of a group, whose targets (G, S, N) must
    meet the alternating-sum constraint.  A violation names the first
    offending vertex and target row."""
    singular = np.array([r.singular for r in reports])
    if singular.any():
        a = a[singular]
        alt = _combine(a, (-1.0) ** np.arange(a.shape[-1])[None])
        scale = np.maximum(np.abs(a).max(axis=-1), 1e-30)
        bad = np.abs(alt) > 1e-9 * scale
        if bad.any():
            g, s = np.argwhere(bad)[0]
            vertex = reports[np.flatnonzero(singular)[g]].vertex
            raise FieldError(
                f"vertex {vertex}, target {s}: target violates the "
                "alternating-sum constraint at a singular vertex "
                f"(residual {alt[g, s]:.3e})")
    return singular


# ---------------------------------------------------------------------------
# Local interpolants


def _even_seed(table: EdgeTable, g, reports, fans):
    """Determinant-normalized corrector seeds (G', N, 2, 10) of the even
    interior members g of a group, their reports ``reports``, each for its
    direction index in {0, 1, 2}, from the d-coefficients of their fans in
    the fan table ``fans``; an overflow (of 12 D_0 at tiny length scales)
    is a FieldError."""
    i = np.array([r.even_index for r in reports])
    corner, n, m = table.corner[g], table.n[g], np.arange(len(g))
    xi = _xi(table, i, fans.c[corner], g)[1]
    N = corner.shape[1]
    with np.errstate(over="ignore"):
        dvals = np.where((i == 0)[:, None], 12.0 * fans.d0[corner],
                         fans.d[corner][m, :, np.maximum(i - 1, 0)])
        det = np.where(i == 0, 12.0 * fans.D[table.z[g], 0],
                       fans.D[table.z[g], i])
    dvals = np.where(np.arange(N) < n[:, None], dvals, 0.0)
    finite = np.isfinite(det) & np.isfinite(dvals).all(axis=1)
    if not finite.all():
        raise FieldError(f"vertex {reports[np.argmin(finite)].vertex}: "
                         f"the even seed overflows at this length scale")
    # telescoping weights s_0 = 0, s_j = d_j - s_{j-1}: s_j multiplies
    # the edge field of edge j, joining triangles j and j+1 (cyclic slot j)
    s = _combine(dvals[:, None, 1:], _signed_prefix(N - 1)[n - 1])[:, 0]
    s = np.concatenate([np.zeros((len(g), 1)), s], axis=1)
    return (-1.0 / det)[:, None, None, None] * (
        xi - _edge_sum(table, s, table.w_tri, g))


def local_interpolant(reports, target, topology: MeshTopology):
    """Patch fields matching per-triangle vertex-divergence targets at the
    patch centers, with zero triangle means and no pollution elsewhere.

    Every member of the group goes through one chain contraction of the
    edge fields; the vertex class in its report (from ``classify_mesh``)
    picks its seed: none at a singular vertex (telescoping over the edge
    fields), the alternating-sum seed for odd valence, and the
    determinant-normalized corrector seed for certified even valence,
    which reads the d-coefficients of the vertex's fan in the fan table.

    ``reports`` is a group of the G reports of local-interpolating
    vertices, of any classes, all interior or all on the boundary, with
    targets (G, S, N): N is the largest valence of the group, and the
    targets past a vertex's own valence are zero.  Field g S + s of the
    block matches target s of vertex g.  The group shares one edge table
    and one contraction, and each field has the very bits of a group of
    one with its target alone.  Returns the FieldBlock and, as
    VertexValues, its divergences away from the centers: none.
    """
    table, reports, a = _group(topology, reports, target, "target values")
    for r in reports:
        if not r.local_interpolating:
            raise FieldError(f"vertex {r.vertex} is not local interpolating "
                             f"({r.status})")
    singular = _singular(reports, a)
    seed = np.zeros(table.l_z2.shape[:2] + (2, len(poly.MONO3)))
    odd = np.flatnonzero([r.status == ODD for r in reports])
    if len(odd):
        # half the alternating sum of the edge fields
        N = a.shape[-1]
        half = np.where(np.arange(N) < table.n[odd, None],
                        0.5 * (-1.0) ** np.arange(N), 0.0)
        seed[odd] = _edge_sum(table, half, table.w_tri, odd)
    even = np.flatnonzero([r.status == EVEN for r in reports])
    if len(even):
        seed[even] = _even_seed(table, even, [reports[g] for g in even],
                                topology.fans)
    return (_patch_block(topology, table,
                         _contract(table, a, seed, 0, singular)), _NO_VALUES)


def boundary_interpolant(reports, p_values, topology: MeshTopology):
    """Match vertex-divergence targets at boundary vertices.

    Every member of the group goes through one chain contraction of the
    edge fields.  A singular boundary vertex (by its report, from
    ``classify_mesh``) takes no seed: the fields of local_interpolant,
    with no side effects.  Otherwise the seed uses the zero-edge-mean
    scalar on the straightest interior edge, which pollutes that edge's
    far endpoint.

    ``reports`` is a group of the G reports of boundary vertices, singular
    or not, with targets (G, S, N) padded to the largest valence N, as
    for local_interpolant.  Returns the FieldBlock of their fields and, as
    VertexValues, the divergences they spill at the far endpoint of their
    seed edge.
    """
    table, reports, a = _group(topology, reports, p_values, "values")
    fans = topology.fans
    if not table.boundary:
        raise FieldError("patch center is not a boundary vertex")
    singular = _singular(reports, a)
    ns = np.flatnonzero(~singular)
    if (table.n[ns] < 2).any():
        raise FieldError("non-singular boundary patch needs >= 2 triangles")
    s = np.zeros(len(reports), dtype=np.int64)
    far = np.full(len(reports), -1)
    seed = np.zeros(table.l_z2.shape[:2] + (2, len(poly.MONO3)))
    if len(ns):
        pairs = table.corner[ns, :-1]             # the interior edges' spokes
        sines = np.where(table.edges()[ns], np.abs(fans.pair_sin[pairs]),
                         -1.0)
        # The seed pollutes the far endpoint of its interior edge.  Prefer
        # a pair whose far endpoint is an interior vertex (the pollution is
        # then absorbed by the interior interpolation passes); fall back to
        # the overall straightest pair otherwise.
        interior_far = ~topology.boundary_vertex[fans.far[pairs]]
        usable = interior_far & (sines > 1e-8)
        # seed pair: tris[s], tris[s+1]
        s[ns] = np.where(usable.any(axis=1),
                         np.argmax(np.where(usable, sines, -1.0), axis=1),
                         np.argmax(sines, axis=1))
        here, there = table.corner[ns, s[ns]], table.corner[ns, s[ns] + 1]
        coef = (2.0 * fans.edge_len[here] * np.sin(fans.theta[here])
                / fans.pair_sin[here])
        seed[ns] = (coef[:, None] * fans.tangent[there])[:, None, :, None] \
            * table.edge_row(table.kappa_tri, ns, s[ns])[:, :, None, :]
        far[ns] = fans.far[here]
    return _spilling_block(topology, table,
                           _contract(table, a, seed, s, singular), far)


def _spilling_block(topology, table, coeffs, far):
    """The FieldBlock of the group's (G, S, N, 2, 10) coefficients, as
    ``_patch_block`` gives it, and, as VertexValues, the non-negligible
    vertex divergences of its fields at the far end of each seed edge,
    ``far`` (G,), in (field, triangle, slot) order.  Only those are
    declared: ``verify_field`` requires zero divergence at every other
    vertex away from the patch centers."""
    tris, rows = _sorted_rows(topology, table, coeffs)
    verts = topology.mesh.triangles[tris]                        # (G, N, 3)
    grads = topology.hat_grads[tris]
    vals = _div_coeffs(grads[:, None], rows)[..., poly.VERTEX2]  # (G, S, N, 3)
    # negligible up to 1e-12 times the field's largest coefficient times
    # the reach of the row's terms, which scale as a divergence does
    cmax = np.abs(rows).max(axis=(2, 3, 4), initial=0.0)[..., None, None]
    keep = ~(np.abs(vals) <= 1e-12 * cmax * _reach(grads)[1][:, None]) \
        & (verts == np.asarray(far)[:, None, None])[:, None]
    g, s, j, slot = np.nonzero(keep)
    return (_rows_block(topology, tris[:, None], rows),
            VertexValues(g * rows.shape[1] + s, tris[g, j],
                         verts[g, j, slot], vals[keep]))


# ---------------------------------------------------------------------------
# Edge transfer


def edge_transfer(reports, y, target, topology: MeshTopology,
                  tol: Tolerances = Tolerances()):
    """Match targets at the vertices z of a group while polluting only the
    far end y[g] of one interior edge {z[g], y[g]} of each, ``y`` (G,).

    ``reports`` is a group of the G reports of vertices of any classes,
    all interior or all on the boundary, with targets (G, S, N) indexed by
    the triangle order of each fan and padded to the largest valence N,
    as for local_interpolant.  Returns the FieldBlock
    of the fields and, as VertexValues, the divergences they spill at y,
    as ``boundary_interpolant`` does; the spill scales with the
    chain-signed alternating sum of the targets divided by the edge weight.
    """
    table, _, a = _group(topology, reports, target, "targets")
    fans, z, y = topology.fans, table.z, np.asarray(y, dtype=np.int64)
    g, n = np.arange(len(z)), table.n
    if y.shape != z.shape:
        raise FieldError(f"expected far ends y of shape ({len(z)},), got "
                         f"{y.shape}")
    # interior edge k of z is the spoke after corner k; on a boundary fan
    # the spoke after the last corner is a boundary edge
    edges = table.edges()
    hit = (fans.far[table.corner[:, :edges.shape[1]]] == y[:, None]) & edges
    if not hit.any(axis=1).all():
        i = int(np.argmin(hit.any(axis=1)))
        raise FieldError(f"{{{z[i]}, {y[i]}}} is not an interior edge at "
                         f"{z[i]}")
    k = hit.argmax(axis=1)
    # the corners of each edge's triangles
    here, there = table.corner[g[:, None],
                               (k[:, None] + _PAIR) % n[:, None]].T
    M = fans.weight[here]
    if (np.abs(M) <= tol.accept).any():
        i = int(np.argmax(np.abs(M) <= tol.accept))
        raise UnacceptableEdgeError(
            f"edge ({z[i]}, {y[i]}) has weight {M[i]:.3e} below tolerance")

    r = (2.0 * fans.edge_len[here][:, None] * fans.normal[here])[
        :, None, :, None] * table.edge_row(table.kappa_tri, g, k)[
            :, :, None, :]
    cotB = topology.cot[fans.tri[there], fans.slot[there]]
    seed = (1.0 / M)[:, None, None, None] * (
        r + cotB[:, None, None, None] * table.edge_row(table.w_tri, g, k))
    return _spilling_block(topology, table, _contract(table, a, seed, k), y)


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

# Fields per pass of verify_field, and per interpolant call of the field
# suites (``cli.run_field_suites``).  A pass holds the check arrays of its
# rows, about 1.4 KB per support triangle, and a call its edge tables and
# contractions: every benchmark mesh (at most 98 fields) takes one pass
# and one call per fan kind, and crossed(32) at two samples (4226 fields)
# 34 passes: one pass over all of them raised that run's peak RSS from 82
# to 102 MiB, and passes of 512 left it 0 to 2 MiB above passes of 128.
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


def _row_max(x, ufunc=np.maximum):
    """``ufunc``'s reduction (R,) of each row of x (R, ...), over a
    transposed copy: numpy reduces a short trailing axis one row at a
    time, a leading one in passes over whole rows."""
    x = x.reshape(len(x), prod(x.shape[1:]))
    return ufunc.reduce(np.ascontiguousarray(x.T), axis=0)


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

    hat_grads = topo.hat_grads[ts]
    divs = _div_coeffs(hat_grads, coeffs)                       # (R, 6)
    # traces[:, k, d, i] is the trace of row i on local edge k, direction
    # d: both components at the 4 points, copied once into a contiguous
    # (8, 3, 2, R), rows last, so that each maximum over the points and
    # sides of a row is a pass over whole slabs of rows (numpy reduces a
    # short trailing axis one row at a time)
    values = poly.eval3(coeffs.reshape(-1, len(poly.MONO3)), _TRACE_LAM)
    traces = values.reshape((len(ts), 2) + values.shape[1:]).transpose(
        1, 4, 2, 3, 0).reshape(2 * len(_TRACE_S), 3, 2, len(ts))
    dtol = RTOL * np.maximum(per_field(_row_max(np.abs(divs))), 1.0)
    cmax = per_field(_row_max(np.abs(coeffs)))
    cscale = np.maximum(cmax, 1.0)
    # Every coefficient of a field carries roundoff in proportion to the
    # field's largest, cmax, and a divergence coefficient sums its terms
    # times the hat gradients: on a sliver triangle, whose gradients are
    # large, that roundoff outgrows dtol.  cmax times the reach of a row's
    # terms (see _DIV_REACH) bounds them; a vertex divergence or a
    # triangle mean passes within RTOL of the larger of the two.
    g_sum, v_reach = _reach(hat_grads)
    scale = RTOL * cmax[owner]

    # trace continuity / zero boundary trace: the twin side of a support
    # side runs the other way, so its reversed trace meets the same points
    twin = topo.twin[ts].T                                       # (3, R)
    row, inside = row_of(owner * T + twin // 3)
    inside &= twin >= 0
    row = np.where(inside, row, 0)
    fwd = traces[:, :, 0]                                        # (8, 3, R)
    jump = np.abs(fwd - traces[:, twin % 3, 1, row])
    worst_cont = per_field(np.where(inside, jump, 0.0).max(axis=(0, 1)))
    worst_trace = per_field(np.where(inside, 0.0, np.abs(fwd)).max(
        axis=(0, 1)))
    # one dot product per row, as in _div_coeffs
    means = np.matmul(divs[:, None], poly.INT2_UNIT)[:, 0]
    worst_mean = per_field(np.abs(means))
    mtol = np.maximum(dtol[owner], scale * _MEAN_REACH * g_sum)
    ok_mean = np.bincount(owner[~(np.abs(means) <= mtol)], minlength=F) == 0

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
    worst_div = per_field(_row_max(dev, np.fmax), at=np.fmax.at)
    np.fmax.at(worst_div, e_owner[left], np.abs(e_val[left]))
    outside = left & (np.abs(e_val) > dtol[e_owner])
    missing = np.bincount(e_owner[outside], minlength=F) > 0
    vtol = np.maximum(dtol[owner, None], scale[:, None] * v_reach)
    off = np.bincount(owner[(dev > vtol).any(axis=1)], minlength=F) > 0
    ok_div = ~off & ~missing

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
                       worst_trace <= RTOL * cscale, ok_div, ok_mean], axis=1)
    deviation = np.stack([worst_cont, worst_trace, worst_div, worst_mean],
                         axis=1)
    return passed, deviation, details
