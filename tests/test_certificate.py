"""The weighted-SVD certificate: agreement with an independent computation
(singular values of the raw divergence matrix, generalized eigenproblem of
the pressure Schur complement), the properties of the spurious modes, the
single factorization behind an analysis, the checks that guard it, and
invariance under similarity over the double range."""

import dataclasses
from collections import Counter
from functools import cache

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import rigid_motion
from svstokes import cli, solver
from svstokes.classify import Tolerances, classify_mesh
from svstokes.mesh import (build_topology, crossed, perturbed_grid,
                           three_lines, type1_diagonal)

TOL = Tolerances()

# The meshes of the golden reports under docs/golden/.
GOLDEN_MESHES = {
    "crossed-2": lambda: crossed(2),
    "type1-3": lambda: type1_diagonal(3),
    "three-lines-2": lambda: three_lines(2),
    "perturbed-3-s1": lambda: perturbed_grid(3, seed=1),
}


def _classified(mesh):
    topo = build_topology(mesh)
    reports, summary = classify_mesh(topo, TOL)
    return topo, reports, summary


def _schur_pencil(topo, reports, seminorm=False):
    """B, an orthonormal basis N of the constrained pressures, and the
    pencil (S, G) of the pressure Schur complement on N in the mass inner
    product: S = N^T B A^-1 B^T N, G = N^T M N."""
    nodes = solver.number_dofs(topo)
    B = solver.assemble_divergence(topo, nodes)
    A, blocks = solver.assemble_norms(topo, nodes, seminorm=seminorm)
    M = scipy.linalg.block_diag(*blocks)
    N = scipy.linalg.null_space(solver.pressure_constraints(topo, reports))
    BtN = B.T @ N
    S = BtN.T @ scipy.linalg.solve(A, BtN, assume_a="pos")
    return B, N, S, N.T @ M @ N


def _oracle(topo, reports, sigma, seminorm):
    """(rank, K, beta) computed the way the certificate does not: the rank
    from the singular values of the raw B, beta from the generalized
    eigenproblem S x = lambda G x of the Schur complement on N."""
    B, _, S, G = _schur_pencil(topo, reports, seminorm)
    sv = scipy.linalg.svdvals(B)
    rank = int(np.sum(sv > TOL.rank * sv[0]))
    eig = scipy.linalg.eigh(S, G, eigvals_only=True)
    beta = float(np.sqrt(eig[eig > 1e-10 * eig[-1]][0]))
    return rank, 6 * topo.T - 1 - sigma - rank, beta


def _oracle_modes(topo, reports, K):
    """The spurious modes of the oracle: N x for the K null vectors x of
    the Schur pencil."""
    _, N, S, G = _schur_pencil(topo, reports)
    _, x = scipy.linalg.eigh(S, G, subset_by_index=[0, K - 1])
    return N @ x


def _assert_same_span(P, Q):
    """The columns of P and Q span the same subspace: every cosine of the
    principal angles between them is 1 to 1e-10."""
    assert P.shape == Q.shape
    cosines = np.cos(scipy.linalg.subspace_angles(P, Q))
    assert cosines.min() >= 1.0 - 1e-10, cosines


@pytest.mark.parametrize("name,seminorm",
                         [(name, False) for name in GOLDEN_MESHES]
                         + [("type1-3", True)])
def test_certificate_agrees_with_the_raw_rank_and_schur_eigenproblem(
        name, seminorm):
    topo, reports, summary = _classified(GOLDEN_MESHES[name]())
    cert = solver.certify(topo, reports, seminorm=seminorm)
    rr = solver.divergence_rank(cert, topo, summary["sigma"], TOL)
    beta, eig = solver.infsup_constant(cert)
    rank, K, beta_ref = _oracle(topo, reports, summary["sigma"], seminorm)
    assert (rr.rank, rr.K) == (rank, K)
    assert beta == pytest.approx(beta_ref, rel=1e-9)
    # the nonzero singular values lie in [beta, sqrt(2)]
    assert cert.singular_values[0] <= np.sqrt(2.0) * (1 + 1e-12)
    assert np.sum(eig == 0.0) == rr.K
    assert np.sqrt(eig[rr.K]) == pytest.approx(beta, rel=1e-12)


@pytest.mark.parametrize("name", ["type1-3", "three-lines-2"])
def test_modes_are_mass_orthonormal_and_pair_with_no_velocity(name):
    topo, reports, summary = _classified(GOLDEN_MESHES[name]())
    cert = solver.certify(topo, reports)
    rr = solver.divergence_rank(cert, topo, summary["sigma"], TOL)
    Q = np.column_stack(solver.spurious_modes(cert, rr))
    assert Q.shape == (6 * topo.T, rr.K) and rr.K >= 1
    nodes = solver.number_dofs(topo)
    B = solver.assemble_divergence(topo, nodes)
    _, blocks = solver.assemble_norms(topo, nodes)
    M = scipy.linalg.block_diag(*blocks)
    assert np.abs(Q.T @ M @ Q - np.eye(rr.K)).max() < 1e-10
    assert np.abs(Q.T @ B).max() < 1e-12 * np.abs(B).max()
    C = solver.pressure_constraints(topo, reports)
    assert np.abs(C @ Q).max() < 1e-12 * np.abs(Q).max()


@pytest.mark.parametrize("name", ["type1-3", "three-lines-2"])
def test_modes_span_the_null_space_of_the_schur_pencil(name):
    topo, reports, summary = _classified(GOLDEN_MESHES[name]())
    cert = solver.certify(topo, reports)
    rr = solver.divergence_rank(cert, topo, summary["sigma"], TOL)
    modes = np.column_stack(solver.spurious_modes(cert, rr))
    oracle = _oracle_modes(topo, reports, rr.K)
    _assert_same_span(modes, oracle)
    # Roundoff leaves the null pivot of R near 1e-14 here; another LAPACK
    # kernel can leave it at exactly zero, and the modes must not change.
    R = cert.factor.copy()
    null_pivot = np.argmin(np.abs(np.diag(R)))
    R[null_pivot, null_pivot] = 0.0
    zeroed = dataclasses.replace(cert, factor=R)
    _assert_same_span(np.column_stack(solver.spurious_modes(zeroed, rr)),
                      oracle)


def test_modes_with_fewer_velocities_than_constrained_pressures():
    # two triangles: 8 velocity DOFs against 9 constrained pressures, so
    # the factor R is wide and is zero-padded to square for the modes
    topo, reports, summary = _classified(type1_diagonal(1))
    cert = solver.certify(topo, reports)
    p, n = cert.shape
    assert n < p and cert.factor.shape == (n, p)
    rr = solver.divergence_rank(cert, topo, summary["sigma"], TOL)
    modes = np.column_stack(solver.spurious_modes(cert, rr))
    assert modes.shape[1] == rr.K == p - rr.rank == 1
    _assert_same_span(modes, _oracle_modes(topo, reports, rr.K))


def test_modes_of_a_factor_with_exact_zero_pivots():
    """A synthetic certificate with T = 3, two constraint rows, A = I and
    B chosen so that W = R^T.  R is upper triangular with pivots 2, 7 and
    12 exactly zero and those columns combinations of the earlier ones,
    so its null space is known exactly."""
    rng = np.random.default_rng(7)
    T, k = 3, 2
    p = 6 * T - k
    R = np.triu(rng.standard_normal((p, p)))
    R[np.diag_indices(p)] = rng.uniform(1.0, 2.0, p)
    null = []
    for j in (2, 7, 12):
        c = rng.standard_normal(j)
        R[:j, j] = R[:j, :j] @ c
        R[j, j] = 0.0
        null.append(np.concatenate([c, [-1.0], np.zeros(p - j - 1)]))
    null = np.column_stack(null)
    assert np.abs(R @ null).max() < 1e-12
    F = rng.standard_normal((T, 6, 6))
    L_M = np.linalg.cholesky(F @ F.transpose(0, 2, 1) + np.eye(6))
    L_M_inv = np.linalg.inv(L_M)
    L = scipy.linalg.block_diag(*L_M)
    C = rng.standard_normal((k, 6 * T))
    reflectors, tau = solver.constrained_basis(C, L_M_inv)
    Q = scipy.linalg.qr(np.linalg.solve(L, C.T))[0]
    cert = solver.Certificate(
        singular_values=scipy.linalg.svdvals(R), shape=(p, p), factor=R,
        reflectors=reflectors, tau=tau, mass_factor_inv=L_M_inv,
        divergence=L @ Q[:, k:] @ R.T)
    rr = solver.RankResult(rank=p - 3, nullity=3, K=3, expected_dim=p,
                           gap=np.inf, singular_values=cert.singular_values)
    modes = np.column_stack(solver.spurious_modes(cert, rr))
    assert np.abs(modes.T @ L @ L.T @ modes - np.eye(3)).max() < 1e-12
    assert np.abs(C @ modes).max() < 1e-12 * np.abs(modes).max()
    _assert_same_span(modes, np.linalg.solve(L.T, Q[:, k:] @ null))


def test_analyze_takes_one_values_only_svd_and_no_null_space(monkeypatch):
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if name == "svd" and not kwargs.get("compute_uv", True):
                calls["svd values only"] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("svd", "svdvals", "null_space", "eigh", "eigvalsh",
                 "solve", "lstsq", "pinv"):
        monkeypatch.setattr(scipy.linalg, name,
                            counted(name, getattr(scipy.linalg, name)))
    for mesh, K in ((type1_diagonal(3), 1), (crossed(2), 0)):
        calls.clear()
        report, modes = cli.analyze_mesh(mesh, TOL)
        assert report["divergence"]["K"] == len(modes) == K
        assert calls["null_space"] == calls["svdvals"] == 0
        assert calls["svd"] == calls["svd values only"] == 1
        assert calls["eigh"] == calls["eigvalsh"] == calls["solve"] == 0
        assert calls["lstsq"] == calls["pinv"] == 0


def test_velocity_gram_not_spd_is_a_solver_error(monkeypatch):
    assemble = solver.assemble_norms

    def negated(*args, **kwargs):
        A, M = assemble(*args, **kwargs)
        return -A, M

    monkeypatch.setattr(solver, "assemble_norms", negated)
    topo, reports, _ = _classified(crossed(1))
    with pytest.raises(solver.SolverError, match="not SPD"):
        solver.certify(topo, reports)


def test_divergence_outside_the_constrained_space_is_a_solver_error(
        monkeypatch):
    constraints = solver.pressure_constraints

    def one_sign_flipped(*args, **kwargs):
        C = constraints(*args, **kwargs)
        C[-1, np.flatnonzero(C[-1])[0]] *= -1.0
        return C

    monkeypatch.setattr(solver, "pressure_constraints", one_sign_flipped)
    topo, reports, _ = _classified(crossed(2))
    with pytest.raises(solver.SolverError, match="range inclusion"):
        solver.certify(topo, reports)


def test_constrained_basis_rejects_dependent_rows():
    topo, reports, _ = _classified(crossed(2))
    C = solver.pressure_constraints(topo, reports)
    assert np.allclose(np.linalg.norm(C, axis=1), 1.0, rtol=1e-14)
    _, blocks = solver.assemble_norms(topo, solver.number_dofs(topo))
    L_M = np.linalg.cholesky(blocks)
    L_M_inv = np.linalg.inv(L_M)
    reflectors, tau = solver.constrained_basis(C, L_M_inv)
    k, m = C.shape
    assert reflectors.shape == (m, k) and tau.shape == (k,)
    # the trailing m - k columns of Q, mapped through L_M^-T, are an
    # M-orthonormal basis of the pressures that C annihilates
    Q = scipy.linalg.lapack.dorgqr(
        np.hstack([reflectors, np.zeros((m, m - k))]), tau)[0]
    L = scipy.linalg.block_diag(*L_M)
    basis = np.linalg.solve(L.T, Q[:, k:])
    assert np.abs(C @ basis).max() < 1e-12 * np.abs(basis).max()
    assert np.abs(basis.T @ L @ L.T @ basis - np.eye(m - k)).max() < 1e-12
    with pytest.raises(solver.SolverError, match="linearly dependent"):
        solver.constrained_basis(np.vstack([C, C[-1]]), L_M_inv)


# ---------------------------------------------------------------------------
# invariance under rotation plus scaling over the double range

SIMILARITY_BASES = {"crossed-2": lambda: crossed(2),
                    "perturbed-3-s13": lambda: perturbed_grid(3, seed=13)}


def _invariants(mesh):
    """sigma, the vertex classes, K and the seminorm beta of a mesh."""
    topo, reports, summary = _classified(mesh)
    cert = solver.certify(topo, reports, seminorm=True)
    rr = solver.divergence_rank(cert, topo, summary["sigma"], TOL)
    beta, _ = solver.infsup_constant(cert)
    return (summary["sigma"], [(r.status, r.singular) for r in reports],
            rr.K, beta)


@cache
def _base_invariants(name):
    return _invariants(SIMILARITY_BASES[name]())


@settings(max_examples=16, deadline=None)
@given(name=st.sampled_from(sorted(SIMILARITY_BASES)),
       angle=st.floats(0.0, 2 * np.pi),
       exponent=st.floats(-8.0, 8.0))
@example(name="crossed-2", angle=0.0, exponent=-7.0)
@example(name="perturbed-3-s13", angle=0.0, exponent=np.log10(3e7))
@example(name="crossed-2", angle=1.0, exponent=-8.0)
@example(name="perturbed-3-s13", angle=2.0, exponent=8.0)
def test_certificate_invariant_under_rotation_and_scaling(name, angle,
                                                          exponent):
    sigma, classes, K, beta = _invariants(rigid_motion(
        SIMILARITY_BASES[name](), angle=angle, scale=10.0 ** exponent))
    sigma0, classes0, K0, beta0 = _base_invariants(name)
    assert (sigma, classes, K) == (sigma0, classes0, K0)
    assert beta == pytest.approx(beta0, rel=1e-8)
