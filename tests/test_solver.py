"""Global linear algebra: assembly, rank / deficiency, inf-sup constants,
spurious modes, and the integer dimension identities."""

import itertools
from fractions import Fraction
from math import factorial
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg

from conftest import (GOLDEN_MESHES, bench_mesh, bench_pool, dense,
                      dense_divergence, dense_norms, edge_index, edge_tris,
                      fan, gram_blocks_oracle, rigid_motion, stack_fields,
                      svd_oracle, synthetic_certificate, triangle_rule,
                      values, velocity_coefficients)
from svstokes import fields, poly, solver
from svstokes.classify import Tolerances, classify_mesh
from svstokes.fields import field_block, local_interpolant
from svstokes.mesh import (Triangulation, build_topology, crossed,
                           perturbed_grid, type1_diagonal)
from svstokes.solver import (P2_BASIS, P2_NODES, P3_BASIS, P3_NODES,
                             RankIndeterminateError,
                             certify, checkerboard_signature,
                             divergence_rank, infsup_constant, number_dofs,
                             pressure_constraints, spurious_modes,
                             strang_dimensions)

TOL = Tolerances()


# Per-triangle oracles of the pressure-moment layout: the moments of a
# field's divergence by a quadrature rule of the tests' own, and nodal P2
# values back from moments by one mass-matrix solve per triangle.

_LAM, _W = triangle_rule()
_P2_AT_LAM = np.stack([poly.eval2(c, _LAM) for c in P2_BASIS])


def _divergence_moments(topology, block):
    """Moment vector (pressure-DOF layout) of the divergence of a block's
    one field."""
    out = np.zeros(6 * topology.T)
    for t, c in zip(block.tri.tolist(), block.coeffs):
        vals = poly.eval2(fields._div_coeffs(topology.hat_grads[t], c), _LAM)
        out[6 * t:6 * t + 6] = topology.area[t] * (_P2_AT_LAM * vals) @ _W
    return out


def _pressure_from_moments(topology, moments):
    """Per-triangle P2 nodal values of a moment vector."""
    out = np.zeros((topology.T, 6))
    for t in range(topology.T):
        out[t] = scipy.linalg.solve(topology.area[t] * solver._MM2,
                                    moments[6 * t:6 * t + 6], assume_a="pos")
    return out


def _two_triangle_square():
    return Triangulation([[0, 0], [1, 0], [1, 1], [0, 1]],
                         [[0, 1, 2], [0, 2, 3]])


def _setup(mesh):
    topo = build_topology(mesh)
    reports, summary = classify_mesh(topo)
    nodes = number_dofs(topo)
    B = dense_divergence(topo, nodes)
    return topo, reports, summary, nodes, B


def _n_velocity(nodes):
    return 2 * (int(nodes.max()) + 1)


def _rank(mesh):
    topo = build_topology(mesh)
    reports, summary = classify_mesh(topo)
    cert = certify(topo, reports)
    return topo, summary, divergence_rank(cert, TOL)


def _spectrum(B):
    """A certificate whose factor, the R of the QR of B^T stacked on zero
    rows up to p x p, has the singular values of a synthetic B: p =
    B.shape[0] constrained pressures against n = B.shape[1] velocities."""
    R = scipy.linalg.qr(B.T, mode="r")[0]
    factor = np.zeros((len(B), len(B)), order="F")
    factor[:len(R)] = R
    return synthetic_certificate(factor, B.shape)


# ---------------------------------------------------------------------------
# reference bases and DOF counting

def test_lagrange_bases_are_kronecker():
    for basis, nodes, ev in ((P3_BASIS, P3_NODES, poly.eval3),
                             (P2_BASIS, P2_NODES, poly.eval2)):
        vals = np.stack([ev(c, np.array(nodes)) for c in basis])
        assert np.allclose(vals, np.eye(len(nodes)), atol=1e-12)


def test_p2_mass_matrix_against_factorial_formula():
    # independent oracle: expand basis-function products over monomial
    # pairs and integrate each with the exact factorial formula
    prod_int = np.zeros((6, 6))
    for i, (a1, b1, c1) in enumerate(poly.MONO2):
        for j, (a2, b2, c2) in enumerate(poly.MONO2):
            a, b, c = a1 + a2, b1 + b2, c1 + c2
            prod_int[i, j] = (2.0 * factorial(a) * factorial(b) * factorial(c)
                              / factorial(a + b + c + 2))
    expect = P2_BASIS @ prod_int @ P2_BASIS.T
    assert np.allclose(solver._MM2, expect, atol=1e-14)


def _exact_lagrange_basis(monos, nodes):
    """Rows: the monomial coefficients of each Lagrange basis function of
    the nodes, by Gauss-Jordan elimination in rational arithmetic."""
    nodes = [[Fraction(x).limit_denominator(6) for x in lam] for lam in nodes]
    n = len(monos)
    rows = [[l0 ** a * l1 ** b * l2 ** c for a, b, c in monos]
            + [Fraction(int(i == j)) for j in range(n)]
            for i, (l0, l1, l2) in enumerate(nodes)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [x / rows[col][col] for x in rows[col]]
        for r in range(n):
            if r != col:
                rows[r] = [x - rows[r][col] * y
                           for x, y in zip(rows[r], rows[col])]
    return np.array([row[n:] for row in rows], dtype=object).T


def test_reference_tensors_match_exact_rational_integrals():
    """The Lagrange bases are exact, and every entry of each reference
    tensor is the correctly rounded value of the same contraction in
    rational arithmetic: exact nodes, basis and monomial integrals
    2 a! b! c! / (a + b + c + 2)!."""
    def integrals(left, right):
        return np.array([[Fraction(2 * factorial(a) * factorial(b) * factorial(c),
                                   factorial(a + b + c + 2))
                          for a, b, c in np.add(m, right).tolist()]
                         for m in left], dtype=object)

    p3 = _exact_lagrange_basis(poly.MONO3, P3_NODES)
    p2 = _exact_lagrange_basis(poly.MONO2, P2_NODES)
    assert np.array_equal(P3_BASIS, p3.astype(float))
    assert np.array_equal(P2_BASIS, p2.astype(float))
    int22 = integrals(poly.MONO2, poly.MONO2)
    dp3 = [poly.DIFF[s].astype(int).astype(object) @ p3.T for s in range(3)]
    exact = {
        "_PD": np.stack([p2 @ int22 @ d for d in dp3], axis=1),
        "_GG": np.array([[d.T @ int22 @ e for e in dp3] for d in dp3]),
        "_MM3": p3 @ integrals(poly.MONO3, poly.MONO3) @ p3.T,
        "_MM2": p2 @ int22 @ p2.T,
        "_IV2": p2 @ integrals(poly.MONO2, [(0, 0, 0)])[:, 0],
    }
    for name, want in exact.items():
        got = getattr(solver, name)
        assert got.shape == want.shape, name
        assert np.array_equal(got, want.astype(float)), name


@pytest.mark.parametrize("mesh", [crossed(4), type1_diagonal(8)],
                         ids=["crossed-4", "type1-8"])
def test_divergence_blocks_are_integral_in_units_of_1_1920(mesh):
    """On these grids every divergence-block entry is an exact multiple of
    1/1920, so the reference tensor's rounding is all that moves it."""
    x = 1920.0 * solver.assemble_divergence(build_topology(mesh))
    assert np.abs(x - np.round(x)).max() <= 1e-12


def test_dof_counts():
    topo = build_topology(_two_triangle_square())
    assert _n_velocity(number_dofs(topo)) == 8        # T=2, E0=1, V0=0
    topo = build_topology(crossed(1))
    assert _n_velocity(number_dofs(topo)) == 26       # T=4, E0=4, V0=1
    topo = build_topology(Triangulation([[0, 0], [1, 0], [0, 1]],
                                        [[0, 1, 2]]))
    assert _n_velocity(number_dofs(topo)) == 2        # only the cell node


NODE_MESHES = {"crossed-2": lambda: crossed(2),
               "type1-3": lambda: type1_diagonal(3),
               "perturbed-3": lambda: perturbed_grid(3, seed=1)}


@pytest.mark.parametrize("name", sorted(NODE_MESHES))
def test_node_array_invariants(name):
    topo = build_topology(NODE_MESHES[name]())
    nodes = number_dofs(topo)
    tris = topo.mesh.triangles
    assert nodes.shape == (topo.T, 10) and nodes.dtype == np.int64
    assert not nodes.flags.writeable
    # every id 0 .. n-1 occurs
    n = topo.T + 2 * topo.E0 + topo.V0
    assert np.array_equal(np.unique(nodes[nodes >= 0]), np.arange(n))
    # -1 exactly at the boundary vertex and boundary edge nodes
    boundary = np.concatenate([
        topo.boundary_vertex[tris],
        np.repeat(topo.boundary_edge[topo.tri_edges], 2, axis=1),
        np.zeros((topo.T, 1), dtype=bool)], axis=1)
    assert np.array_equal(nodes == -1, boundary)
    # the two triangles of an interior edge list its nodes in opposite order
    for e in range(topo.E):
        if topo.boundary_edge[e]:
            continue
        pairs = []
        for t in edge_tris(topo, e):
            (side,) = np.flatnonzero(topo.tri_edges[t] == e)
            pairs.append(nodes[t, 3 + 2 * side:5 + 2 * side])
        assert np.array_equal(pairs[0], pairs[1][::-1])
    # a vertex node is the same in every incident triangle
    for z in range(topo.V):
        patch = fan(topo, z)
        assert len(set(nodes[patch.tris, patch.slots].tolist())) == 1


# The per-triangle assembly the node array replaced, kept as the oracle:
# dicts of interior vertex, interior edge and cell nodes, and a scatter of
# each triangle's local matrices one entry at a time.

def _oracle_local_nodes(topo):
    index = edge_index(topo)
    vertex_node, edge_node, n = {}, {}, 0
    for v in range(topo.V):
        if not topo.boundary_vertex[v]:
            vertex_node[v] = n
            n += 1
    for e in range(topo.E):
        if not topo.boundary_edge[e]:
            edge_node[(e, 0)], edge_node[(e, 1)] = n, n + 1
            n += 2
    local = []
    for t in range(topo.T):
        tri = topo.mesh.triangles[t]
        out = [vertex_node.get(int(v)) for v in tri]
        for (i, j) in solver.P3_EDGE_SLOTS:
            a, b = int(tri[i]), int(tri[j])
            e = index[(min(a, b), max(a, b))]
            for near in (a, b):
                out.append(edge_node.get((e, 0 if near == min(a, b) else 1)))
        out.append(n + t)
        local.append(out)
    return local, n + topo.T


def _oracle_assembly(topo, field):
    """B, A and the nodal vector u of the dense field (T, 2, 10)."""
    local, n = _oracle_local_nodes(topo)
    B = np.zeros((6 * topo.T, 2 * n))
    A = {semi: np.zeros((2 * n, 2 * n)) for semi in (False, True)}
    u = np.zeros(2 * n)
    for t in range(topo.T):
        area, g = topo.area[t], topo.hat_grads[t]
        div_qa = np.einsum("sc,qsa->qca", g, solver._PD)
        # the 9 terms of g g^T against _GG in solver.assemble_norms' order
        gg = g[:, None, 0] * g[None, :, 0] + g[:, None, 1] * g[None, :, 1]
        semi = np.zeros((10, 10))
        for i, j in itertools.product(range(3), range(3)):
            semi += gg[i, j] * solver._GG[i, j]
        semi *= area
        K = {True: semi, False: semi + area * solver._MM3}
        vals = poly.eval3(field[t], np.array(P3_NODES))
        idx = [(a, node) for a, node in enumerate(local[t]) if node is not None]
        for a, na in idx:
            for c in (0, 1):
                B[6 * t:6 * t + 6, 2 * na + c] += area * div_qa[:, c, a]
                u[2 * na + c] = vals[a, c]
            for b, nb in idx:
                for c, semi in itertools.product((0, 1), (False, True)):
                    A[semi][2 * na + c, 2 * nb + c] += K[semi][a, b]
    return B, A, u


@pytest.mark.parametrize("name", sorted(NODE_MESHES))
def test_assembly_matches_the_per_triangle_oracle(name):
    topo = build_topology(NODE_MESHES[name]())
    nodes = number_dofs(topo)
    # A discontinuous field on every other triangle: shared nodes take the
    # value of the last triangle that writes them, zeros off the support.
    rng = np.random.default_rng(3)
    field = np.zeros((topo.T, 2, 10))
    field[::2] = rng.standard_normal((len(field[::2]), 2, 10))
    B, A, u = _oracle_assembly(topo, field)
    assert np.array_equal(dense_divergence(topo, nodes), B)
    for semi in (False, True):
        # both velocity components share the scalar Gram matrix
        A_s = dense_norms(topo, nodes, semi)[0]
        assert np.array_equal(np.kron(A_s, np.eye(2)), A[semi])
    block = field_block(topo, field)
    assert np.array_equal(velocity_coefficients(topo, nodes, block),
                          u[:, None])


GRAM_MESHES = ([("golden", name) for name in sorted(GOLDEN_MESHES)]
               + [("bench", key) for key in bench_pool("certify-dense")
                  + bench_pool("verify-fields")])


@pytest.mark.parametrize("source,name", GRAM_MESHES)
def test_gram_blocks_agree_with_the_einsum_oracle(source, name):
    """The 9-term contraction of assemble_norms sums in another order than
    numpy's einsum: every entry lies within 8 ulp of the oracle, relative
    to the largest entry of its triangle's block (an entry that cancels to
    near 0 carries the roundoff of the block's scale, not its own), in
    the seminorm and the full H1 norm."""
    topo = build_topology(GOLDEN_MESHES[name]() if source == "golden"
                          else bench_mesh(name))
    for seminorm in (True, False):
        got = solver.assemble_norms(topo, seminorm=seminorm)
        want = gram_blocks_oracle(topo, seminorm=seminorm)
        scale = np.abs(want).max(axis=(1, 2), keepdims=True)
        assert (np.abs(got - want) <= 8 * np.finfo(float).eps * scale).all()


@pytest.mark.parametrize("key", ["perturbed-8-p0", "crossed-6"])
def test_gram_blocks_of_a_subset_are_the_rows_of_the_whole_mesh(key):
    """A triangle's Gram block has the same bits whichever triangles are
    assembled with it: every other triangle, the triangles reversed, and
    each single one of the first four give the whole mesh's rows bit for
    bit (a BLAS contraction would block and order its sums by the size of
    the batch)."""
    topo = build_topology(bench_mesh(key))
    whole = solver.assemble_norms(topo)
    picks = ([np.arange(0, topo.T, 2), np.arange(topo.T)[::-1]]
             + [np.array([t]) for t in range(4)])
    for pick in picks:
        part = SimpleNamespace(area=topo.area[pick],
                               hat_grads=topo.hat_grads[pick])
        assert np.array_equal(solver.assemble_norms(part), whole[pick])


@pytest.mark.parametrize("name", sorted(NODE_MESHES))
def test_velocity_coefficients_give_one_column_per_field(name):
    """A block of F fields gives F columns, each that of a one-field call
    and of the per-triangle oracle."""
    topo = build_topology(NODE_MESHES[name]())
    nodes = number_dofs(topo)
    rng = np.random.default_rng(4)
    singles = []
    for _ in range(4):
        field = np.zeros((topo.T, 2, 10))
        some = rng.random(topo.T) < 0.4
        field[some] = rng.standard_normal((some.sum(), 2, 10))
        singles.append(field_block(topo, field))
    empty = field_block(topo, np.zeros((topo.T, 2, 10)))
    singles.insert(2, empty)
    block, _ = stack_fields(topo, [(b, values()) for b in singles])
    columns = velocity_coefficients(topo, nodes, block)
    assert columns.shape == (2 * (nodes.max() + 1), len(singles))
    for j, single in enumerate(singles):
        one = velocity_coefficients(topo, nodes, single)
        assert one.shape == (len(columns), 1)
        assert np.array_equal(columns[:, j], one[:, 0])
        assert np.array_equal(one[:, 0],
                              _oracle_assembly(topo, dense(single)[0])[2])
    assert not columns[:, 2].any()


# ---------------------------------------------------------------------------
# assembly identities

def test_divergence_columns_have_zero_total_integral():
    topo, reports, summary, nodes, B = _setup(crossed(2))
    # the Lagrange pressure basis is a partition of unity, so in the moment
    # layout the total-integral functional is the all-ones row; zero-trace
    # fields have divergence with zero integral over the domain
    assert np.abs(np.ones(B.shape[0]) @ B).max() < 1e-12 * max(
        np.abs(B).max(), 1.0)


def test_divergence_range_satisfies_constraints():
    # every column of B is the moment vector of an actual divergence; the
    # recovered pressure must be mean-zero and alternate-sum-zero at
    # singular vertices
    topo, reports, summary, nodes, B = _setup(crossed(2))
    C = pressure_constraints(topo, reports)
    rng = np.random.default_rng(5)
    for _ in range(5):
        m = B @ rng.standard_normal(B.shape[1])
        pvals = _pressure_from_moments(topo, m).reshape(-1)
        dev = np.abs(C @ pvals).max()
        assert dev < 1e-9 * max(np.abs(pvals).max(), 1.0)


def test_injection_oracle_field_to_matrix():
    # sampling a locally constructed field into the DOF vector and applying
    # B must reproduce the field's divergence moments exactly
    topo, reports, summary, nodes, B = _setup(perturbed_grid(3, seed=4))
    rng = np.random.default_rng(8)
    interior = [r for r in reports if not r.boundary]
    for r in interior[:3]:
        f, _ = local_interpolant(
            [r], rng.standard_normal((1, 1, r.valence)), topo)
        u = velocity_coefficients(topo, nodes, f)[:, 0]
        expect = _divergence_moments(topo, f)
        assert np.abs(B @ u - expect).max() < 1e-10 * max(
            np.abs(expect).max(), 1.0)


def test_norm_matrices_scaling_laws():
    base = perturbed_grid(2, seed=6)
    topo0 = build_topology(base)
    A0s, M0 = dense_norms(topo0, number_dofs(topo0), seminorm=True)
    for lam in (0.5, 2.0):
        topo1 = build_topology(rigid_motion(base, scale=lam))
        A1s, M1 = dense_norms(topo1, number_dofs(topo1), seminorm=True)
        # H1 seminorm Gram is scale invariant in 2D; mass scales with area
        assert np.allclose(A1s, A0s, atol=1e-10 * np.abs(A0s).max())
        assert np.allclose(M1, lam ** 2 * M0, atol=1e-12 * np.abs(M0).max())


# ---------------------------------------------------------------------------
# rank, deficiency, inf-sup

def test_crossed_grid_is_stable():
    topo, reports, summary, nodes, B = _setup(crossed(2))
    assert _n_velocity(nodes) == 122
    cert = certify(topo, reports)
    beta_svd = svd_oracle(cert)[1]
    rr = divergence_rank(cert, TOL)
    beta = infsup_constant(rr)
    assert (rr.rank, rr.K) == (91, 0)
    assert rr.gap > 10.0
    assert beta == pytest.approx(0.4115428141731681, rel=1e-8)
    assert beta == pytest.approx(beta_svd, rel=1e-8)
    assert spurious_modes(cert, rr) == []


def test_type1_grid_is_deficient_with_checkerboard():
    topo, reports, summary, nodes, B = _setup(type1_diagonal(3))
    assert _n_velocity(nodes) == 128
    cert = certify(topo, reports)
    beta_svd = svd_oracle(cert)[1]
    rr = divergence_rank(cert, TOL)
    beta = infsup_constant(rr)
    assert (rr.rank, rr.K) == (104, 1)
    assert beta == pytest.approx(0.09099515790841745, rel=1e-8)
    assert beta == pytest.approx(beta_svd, rel=1e-8)
    modes = spurious_modes(cert, rr)
    assert len(modes) == 1
    assert checkerboard_signature(topo, modes[0])


def test_two_triangle_square_is_deficient():
    topo, summary, rr = _rank(_two_triangle_square())
    assert rr.K == 1
    sd = strang_dimensions(topo, summary["sigma_i"], summary["sigma_b"], rr.K)
    assert sd.dim_s4 == 0 and sd.dim_s4_raw == 0
    assert not sd.hypothesis_ok
    assert sd.caveat is not None


def test_checkerboard_rejects_constant_mode():
    topo = build_topology(type1_diagonal(3))
    assert not checkerboard_signature(topo, np.ones(6 * topo.T))
    assert not checkerboard_signature(topo, np.zeros(6 * topo.T))


def _loop_pressure_constraints(topology, reports):
    """The constraint rows with one Python loop over each singular fan:
    the oracle of the scatter over the fan table."""
    rows = [(topology.area[:, None] * solver._IV2).ravel()]
    for r in reports:
        if not r.singular:
            continue
        patch = fan(topology, r.vertex)
        row = np.zeros(6 * topology.T)
        for j, (t, slot) in enumerate(zip(patch.tris, patch.slots)):
            row[6 * t + slot] = (-1.0) ** j
        rows.append(row)
    C = np.vstack(rows)
    return C / np.linalg.norm(C, axis=1, keepdims=True)


def _loop_checkerboard_signature(topology, mode, rel_tol=0.1):
    """The checkerboard test with one loop over the patches and a set of
    signs per patch: the oracle of the segment reduction."""
    scale = float(np.abs(mode).max())
    if scale == 0.0:
        return False
    for z in range(topology.V):
        patch = fan(topology, z)
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


FAN_MESHES = {"crossed-2": lambda: crossed(2),
              "type1-3": lambda: type1_diagonal(3),
              "perturbed-5-s3": lambda: perturbed_grid(5, seed=3),
              "two-triangles": lambda: _two_triangle_square()}


@pytest.mark.parametrize("name", sorted(FAN_MESHES))
def test_constraint_rows_equal_the_per_fan_loop(name):
    """Bit for bit, in the report order given, whatever it is."""
    topo = build_topology(FAN_MESHES[name]())
    reports, summary = classify_mesh(topo)
    for order in (reports, reports[::-1]):
        C = pressure_constraints(topo, order)
        assert C.shape == (1 + summary["sigma"], 6 * topo.T)
        assert C.tobytes() == _loop_pressure_constraints(topo, order).tobytes()


@pytest.mark.parametrize("name", sorted(FAN_MESHES))
def test_checkerboard_signature_equals_the_per_fan_loop(name, rng):
    """On random modes, on modes that alternate around every fan, with one
    value flipped, with fans below the 1e-8 floor, and at several
    relative tolerances."""
    topo = build_topology(FAN_MESHES[name]())
    fans = topo.fans
    corner = 6 * fans.tri + fans.slot
    alternating = np.where(fans.position % 2, -1.0, 1.0)
    seen = set()
    for _ in range(8):
        modes = [rng.standard_normal(6 * topo.T)]
        mode = rng.standard_normal(6 * topo.T)
        mode[corner] = alternating * np.abs(mode[corner])
        modes.append(mode)
        flipped = mode.copy()
        flipped[corner[rng.integers(len(corner))]] *= -1.0
        modes.append(flipped)
        # every third fan below the floor, and not alternating
        quiet = mode.copy()
        low = corner[fans.center % 3 == 0]
        quiet[low] = 1e-10 * rng.standard_normal(len(low))
        modes.append(quiet)
        for m in modes:
            for rel_tol in (0.0, 0.1, 0.5, 2.0):
                got = checkerboard_signature(topo, m, rel_tol)
                assert got is _loop_checkerboard_signature(topo, m, rel_tol)
                seen.add(got)
    # without an interior fan every nonzero mode passes
    assert seen == ({True, False} if topo.V0 else {True})


def test_seminorm_infsup_is_scale_invariant():
    base = crossed(2)
    betas = []
    for lam in (0.5, 1.0, 2.0):
        topo = build_topology(rigid_motion(base, scale=lam))
        reports, summary = classify_mesh(topo)
        cert = certify(topo, reports, seminorm=True)
        beta_svd = svd_oracle(cert)[1]
        beta = infsup_constant(divergence_rank(cert, TOL))
        assert beta == pytest.approx(beta_svd, rel=1e-9)
        betas.append(beta)
    assert betas[0] == pytest.approx(betas[1], rel=1e-9)
    assert betas[2] == pytest.approx(betas[1], rel=1e-9)


def test_rank_indeterminate_on_straddling_spectrum():
    # singular values 1, 2e-9, 9e-10 straddle the 1e-9 relative threshold
    # with ratio 2.2 across it
    B = np.zeros((12, 8))
    B[0, 0], B[1, 1], B[2, 2] = 1.0, 2e-9, 9e-10
    with pytest.raises(RankIndeterminateError):
        divergence_rank(_spectrum(B), TOL)


def test_gap_measures_against_the_roundoff_floor():
    floor = np.finfo(float).eps * 12
    B = np.zeros((12, 8))
    B[0, 0], B[1, 1] = 1.0, 1e-3
    # a rejected value below roundoff is replaced by the floor, whatever
    # its size (it is noise that moves with the LAPACK kernel)
    for noise in (1e-17, 1e-16, 0.0):
        B[2, 2] = noise
        rr = divergence_rank(_spectrum(B), TOL)
        assert (rr.rank, rr.K, rr.nullity) == (2, 10, 6)
        assert rr.gap == pytest.approx(1e-3 / floor, rel=1e-12)
        assert rr.rejected == rr.floor == pytest.approx(floor, rel=1e-12)
    # above the floor, the rejected value itself sets the gap
    B[2, 2] = 1e-12
    rr = divergence_rank(_spectrum(B), TOL)
    assert rr.gap == pytest.approx(1e9, rel=1e-12)
    assert rr.rejected == pytest.approx(1e-12, rel=1e-12)
    assert rr.rejected > rr.floor


# ---------------------------------------------------------------------------
# integer dimension identities

def test_strang_identity_on_stable_meshes():
    for mesh in (crossed(1), crossed(2), perturbed_grid(3, seed=1)):
        topo, summary, rr = _rank(mesh)
        sd = strang_dimensions(topo, summary["sigma_i"],
                               summary["sigma_b"], rr.K)
        if rr.K == 0:
            assert sd.identity_ok is True


def test_crossed_two_spline_dimensions():
    topo, summary, rr = _rank(crossed(2))
    sd = strang_dimensions(topo, summary["sigma_i"], summary["sigma_b"], rr.K)
    assert sd.dim_s4 == 31
    assert sd.strang_dimension == 79
    assert sd.hypothesis_ok and sd.identity_ok
