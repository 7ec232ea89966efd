"""The certificate: agreement with an independent computation (singular
values of the raw divergence matrix, generalized eigenproblem of the
pressure Schur complement), the properties of the spurious modes, the
single factorization behind an analysis, the checks that guard it,
invariance under similarity over the double range, and K and beta from
the lifted inverse Lanczos against the full SVD and an inertia count."""

import dataclasses
import json
import subprocess
import sys
from collections import Counter
from functools import cache

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (GOLDEN_MESHES, MIXED, bench_mesh, bench_pool,
                      dense_divergence, dense_norms, factor_products,
                      givens_lift, inverse_lanczos_oracle, krylov_start,
                      raw_pairing, rigid_motion, svd_oracle,
                      synthetic_certificate, type1_with_crossed,
                      uncondensed_pairing)
from svstokes import cli, solver
from svstokes.classify import Tolerances, classify_mesh
from svstokes.mesh import (Triangulation, build_topology, crossed, dump_mesh,
                           ngon_patch, perturbed_grid, type1_diagonal)

TOL = Tolerances()


def _classified(mesh):
    topo = build_topology(mesh)
    reports, summary = classify_mesh(topo, TOL)
    return topo, reports, summary


def _schur_pencil(topo, reports, seminorm=False):
    """B, an orthonormal basis N of the constrained pressures, and the
    pencil (S, G) of the pressure Schur complement on N in the mass inner
    product: S = N^T B A^-1 B^T N, G = N^T M N."""
    nodes = solver.number_dofs(topo)
    B = dense_divergence(topo, nodes)
    A_s, blocks = dense_norms(topo, nodes, seminorm=seminorm)
    A = np.kron(A_s, np.eye(2))
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
    s_max = scipy.linalg.svdvals(cert.factor)[cert.constraints.shape[1]]
    K_svd, beta_svd, _ = svd_oracle(cert)
    rr = solver.divergence_rank(cert, TOL)
    beta = solver.infsup_constant(rr)
    rank, K, beta_ref = _oracle(topo, reports, summary["sigma"], seminorm)
    assert (rr.rank, rr.K) == (rank, K) and K_svd == K
    assert beta == pytest.approx(beta_ref, rel=1e-9)
    # the nonzero singular values lie in [beta, 1]
    assert s_max ** 2 <= 1.0 + 1e-12
    assert beta == pytest.approx(beta_svd, rel=1e-12)


CONDENSED_MESHES = {
    **GOLDEN_MESHES,
    "ngon-5": lambda: ngon_patch(5),
    "one-triangle": lambda: Triangulation([[0.0, 0.0], [1.0, 0.0],
                                           [0.0, 1.0]], [[0, 1, 2]]),
    "perturbed-8-p3": lambda: bench_mesh("perturbed-8-p3"),
    # two triangles: fewer velocities than raw pressures (n < 6T), so
    # the one panel of the staircase QR is wide
    "two-triangle-square": lambda: type1_diagonal(1),
    "crossed-1": lambda: crossed(1),
}


@pytest.mark.parametrize("seminorm", [False, True])
@pytest.mark.parametrize("name", sorted(CONDENSED_MESHES))
def test_condensed_factor_has_the_singular_values_of_the_full_pairing(
        name, seminorm):
    """The factor of the condensed pairing on the raw pressures has the
    singular values of W assembled in full, to 1e-12 s_max, plus one at
    twice the rank scale per constraint row, and the modes pair with no
    velocity under the full B.  On one triangle the bubble is the only
    velocity node, and no other node remains; on the two-triangle square
    the one panel is wide, and the factor is still 6T x 6T."""
    topo, reports, summary = _classified(CONDENSED_MESHES[name]())
    cert = solver.certify(topo, reports, seminorm=seminorm)
    W = uncondensed_pairing(topo, reports, seminorm)
    assert cert.shape == W.shape
    _assert_raw_spectrum(cert, W)
    if name == "one-triangle":
        assert W.shape == (2, 2) and topo.V0 == topo.E0 == 0
    if name == "two-triangle-square":
        assert cert.shape[1] < 6 * topo.T
    rr = solver.divergence_rank(cert, TOL)
    modes = solver.spurious_modes(cert, rr)
    assert len(modes) == rr.K
    if rr.K:
        B = dense_divergence(topo, solver.number_dofs(topo))
        assert np.abs(np.column_stack(modes).T @ B).max() < \
            1e-12 * np.abs(B).max()


def _assert_raw_spectrum(cert, W):
    """certify's factor is 6T x 6T and born lifted: its singular values
    are exactly k = 6T - p at the top, those of the constraint directions,
    within 1e-14 s_max of twice the rank scale, then those of the
    full-assembly pairing W on the constrained pressures (p - n zeros
    among them when p > n), to 1e-12 s_max."""
    p = W.shape[0]
    k = cert.constraints.shape[1]
    assert cert.factor.shape == (p + k, p + k)
    s = np.zeros(p)
    s[:min(W.shape)] = scipy.linalg.svdvals(W)
    got = scipy.linalg.svdvals(cert.factor)
    assert np.abs(got[k:] - s).max() <= 1e-12 * s[0]
    assert np.abs(got[:k] - 2.0 * cert.scale).max() <= 1e-14 * s[0]


RAW_SPECTRUM_MESHES = (sorted(GOLDEN_MESHES) + bench_pool("certify-dense")
                       + bench_pool("verify-fields")
                       + ["type1-1", "one-triangle", "ngon-5"])


@pytest.mark.parametrize("name", RAW_SPECTRUM_MESHES)
def test_raw_factor_is_the_oracle_spectrum_plus_k_roundoff_values(name):
    """The raw factor against the full-assembly oracle on the goldens, both
    bench pools, the two-triangle square (type1-1), one triangle and the
    5-gon: the constrained spectrum and k values at twice the rank
    scale."""
    mesh = (CONDENSED_MESHES[name]() if name in CONDENSED_MESHES
            else _oracle_case(name))
    topo, reports, summary = _classified(mesh)
    cert = solver.certify(topo, reports)
    assert cert.constraints.shape[1] == 1 + summary["sigma"]
    _assert_raw_spectrum(cert, uncondensed_pairing(topo, reports))


def test_a_constraint_row_that_a_bubble_violates_is_a_solver_error(
        monkeypatch):
    """A weight on an edge midpoint: the divergence of a cubic bubble is
    nonzero there, so the range check X Q_z = 0 fails."""
    constraints = solver.pressure_constraints

    def midpoint_added(*args, **kwargs):
        C = constraints(*args, **kwargs)
        t = np.flatnonzero(C[-1])[0] // 6
        C[-1, 6 * t + 3] = 0.5
        return C / np.linalg.norm(C, axis=1, keepdims=True)

    monkeypatch.setattr(solver, "pressure_constraints", midpoint_added)
    topo, reports, _ = _classified(crossed(2))
    with pytest.raises(solver.SolverError, match="range inclusion"):
        solver.certify(topo, reports)


@pytest.mark.parametrize("name", ["type1-3", "three-lines-2"])
def test_modes_are_mass_orthonormal_and_pair_with_no_velocity(name):
    topo, reports, summary = _classified(GOLDEN_MESHES[name]())
    cert = solver.certify(topo, reports)
    rr = solver.divergence_rank(cert, TOL)
    Q = np.column_stack(solver.spurious_modes(cert, rr))
    assert Q.shape == (6 * topo.T, rr.K) and rr.K >= 1
    nodes = solver.number_dofs(topo)
    B = dense_divergence(topo, nodes)
    _, blocks = dense_norms(topo, nodes)
    M = scipy.linalg.block_diag(*blocks)
    assert np.abs(Q.T @ M @ Q - np.eye(rr.K)).max() < 1e-10
    assert np.abs(Q.T @ B).max() < 1e-12 * np.abs(B).max()
    C = solver.pressure_constraints(topo, reports)
    assert np.abs(C @ Q).max() < 1e-12 * np.abs(Q).max()


@pytest.mark.parametrize("name", ["type1-3", "three-lines-2"])
def test_modes_span_the_null_space_of_the_schur_pencil(name):
    topo, reports, summary = _classified(GOLDEN_MESHES[name]())
    cert = solver.certify(topo, reports)
    # (the rank consumes the factor: the zeroed one is a copy)
    R = cert.factor.copy(order="F")
    rr = solver.divergence_rank(cert, TOL)
    modes = np.column_stack(solver.spurious_modes(cert, rr))
    oracle = _oracle_modes(topo, reports, rr.K)
    _assert_same_span(modes, oracle)
    # Roundoff leaves the null pivot of R near 1e-14 here; another LAPACK
    # kernel can leave it at exactly zero, and the modes must not change.
    null_pivot = np.argmin(np.abs(np.diag(R)))
    R[null_pivot, null_pivot] = 0.0
    zeroed = dataclasses.replace(cert, factor=R)
    rr = solver.divergence_rank(zeroed, TOL)
    _assert_same_span(np.column_stack(solver.spurious_modes(zeroed, rr)),
                      oracle)


def test_modes_with_fewer_velocities_than_constrained_pressures():
    # two triangles: 8 velocity DOFs against 9 constrained pressures, so
    # the 6T x 6T factor R has zero rows at its pivotless columns
    topo, reports, summary = _classified(type1_diagonal(1))
    cert = solver.certify(topo, reports)
    p, n = cert.shape
    assert n < p and cert.factor.shape == (6 * topo.T, 6 * topo.T)
    rr = solver.divergence_rank(cert, TOL)
    modes = np.column_stack(solver.spurious_modes(cert, rr))
    assert modes.shape[1] == rr.K == p - rr.rank == 1
    _assert_same_span(modes, _oracle_modes(topo, reports, rr.K))


def test_modes_of_a_factor_with_exact_zero_pivots():
    """A synthetic certificate with T = 3, two constraint rows, A = I and
    F = L_M^-1, and a pairing B chosen so that W = R^T.  R is upper
    triangular with pivots 3, 5, 10, 15 and 17 exactly zero and those
    columns combinations of the earlier ones, so its null space is known
    exactly: the null vectors at 5 and 17 span the constraint directions
    Z = L_M^-1 C^T, and the other three, less their
    part along Z, are the modes.  It is scaled by a power of two,
    exactly, to singular values at most 1, as those of a certificate are,
    born lifted as certify's factor is, the constraint directions at
    twice its rank scale, and its modes come from the directions the rank
    lifts.  Each triangle's block of B touches all 3T velocity nodes."""
    rng = np.random.default_rng(7)
    T, k = 3, 2
    n = 6 * T
    p = n - k
    R = np.triu(rng.standard_normal((n, n)))
    R[np.diag_indices(n)] = rng.uniform(1.0, 2.0, n)
    null = {}
    for j in (3, 5, 10, 15, 17):
        c = rng.standard_normal(j)
        R[:j, j] = R[:j, :j] @ c
        R[j, j] = 0.0
        null[j] = np.concatenate([c, [-1.0], np.zeros(n - j - 1)])
    R *= 2.0 ** -np.ceil(np.log2(scipy.linalg.svdvals(R)[0]))
    R = np.asfortranarray(R)
    assert np.abs(R @ np.column_stack(list(null.values()))).max() < 1e-12
    F = rng.standard_normal((T, 6, 6))
    L_M = np.linalg.cholesky(F @ F.transpose(0, 2, 1) + np.eye(6))
    L_M_inv = np.linalg.inv(L_M)
    L = scipy.linalg.block_diag(*L_M)
    Z = np.column_stack([null[5], null[17]])
    C = (L @ Z).T
    Q_z = solver.constrained_basis(C, L_M_inv)
    _assert_same_span(Q_z, Z)
    B = L @ R.T
    nodes = np.full((T, 10), -1)
    nodes[:, :n // 2] = np.arange(n // 2)
    div = np.zeros((T, 6, 2, 10))
    div[..., :n // 2] = B.reshape(T, 6, n // 2, 2).transpose(0, 1, 3, 2)
    start = krylov_start(n)
    scale = solver._rank_scale(*factor_products(R),
                               start - Q_z @ (Q_z.T @ start))
    cert = solver.Certificate(
        factor=givens_lift(R.copy(order="F"), 2.0 * scale * Q_z.T),
        shape=(p, n), scale=scale, constraints=Q_z, order=np.arange(T),
        pressure_map=L_M_inv, divergence=div, nodes=nodes)
    rr = solver.divergence_rank(cert, TOL)
    assert (rr.rank, rr.K) == (p - 3, 3)
    modes = np.column_stack(solver.spurious_modes(cert, rr))
    assert np.abs(modes.T @ L @ L.T @ modes - np.eye(3)).max() < 1e-12
    assert np.abs(C @ modes).max() < 1e-12 * np.abs(modes).max()
    assert np.abs(modes.T @ B).max() < 1e-12 * np.abs(B).max()
    U = np.column_stack([null[j] for j in (3, 10, 15)])
    _assert_same_span(modes, np.linalg.solve(L.T, U - Q_z @ (Q_z.T @ U)))


def _counted_calls(monkeypatch, targets):
    """A Counter of the calls of each (module, name) in targets, by
    "module.name"."""
    calls = Counter()

    def counted(label, fn):
        def wrapper(*args, **kwargs):
            calls[label] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module, fname in targets:
        monkeypatch.setattr(module, fname,
                            counted(f"{module.__name__}.{fname}",
                                    getattr(module, fname)))
    return calls


@pytest.mark.parametrize("name", ["type1-3", "three-lines-2"])
def test_modes_take_no_solve_and_no_qr_of_their_own(monkeypatch, name):
    """The modes are the rank's lifted directions mapped back: given the
    rank, spurious_modes makes no triangular solve and no QR
    factorization of its own."""
    topo, reports, summary = _classified(GOLDEN_MESHES[name]())
    cert = solver.certify(topo, reports)
    rr = solver.divergence_rank(cert, TOL)
    calls = _counted_calls(monkeypatch, (
        (scipy.linalg, "solve_triangular"), (scipy.linalg, "qr"),
        (np.linalg, "qr"), (np.linalg, "solve"), (scipy.linalg, "solve")))
    modes = solver.spurious_modes(cert, rr)
    assert not calls, calls
    assert len(modes) == rr.K >= 1
    assert rr.null_basis.shape == (6 * topo.T, rr.K)


@pytest.mark.parametrize("name", ["type1-3", "perturbed-3-s1"])
def test_certify_takes_no_triangular_solve_and_no_block_diag(monkeypatch,
                                                              name):
    """certify inverts L_S in place and forms the pairing rows triangle by
    triangle with the gathered rows of L_S^-T, factors each panel of the
    staircase by the compact-WY QR and applies its Q^T to the later
    columns by dgemqrt, and scatters the bubble blocks itself; the range
    check multiplies the rows of X by Q_z as they are gathered: no
    triangular solve or product, no block_diag, no dormqr and no scipy
    QR.  (L_S of these meshes is one dtrtri block.)"""
    topo, reports, summary = _classified(GOLDEN_MESHES[name]())
    lapack, blas = scipy.linalg.lapack, scipy.linalg.blas
    calls = _counted_calls(monkeypatch, (
        (scipy.linalg, "solve_triangular"), (scipy.linalg, "block_diag"),
        (scipy.linalg, "qr"), (lapack, "dormqr"), (lapack, "dgeqrf"),
        (lapack, "dtrtri"), (lapack, "dgeqrt"), (lapack, "dgemqrt"),
        (blas, "dtrmm"), (blas, "dtrsm")))
    solver.certify(topo, reports)
    panels = -(-6 * topo.T // solver.STAIRCASE_PANEL)
    assert panels == 3
    assert calls == {"scipy.linalg.lapack.dtrtri": 1,
                     "scipy.linalg.lapack.dgeqrt": panels,
                     "scipy.linalg.lapack.dgemqrt": panels - 1}, calls


def _staircase(monkeypatch, topo, reports):
    """(cert, windows, last, bubble, lift): ``solver.certify``'s
    certificate; each panel's window as the staircase QR filled it, before
    the panel is factored, with the columns c0 its panel starts at, (c0,
    rows x (6T - c0)); the place of each triangle's last node in level
    order, in the column order; and the 2 x 6 bubble blocks and the lift
    rows the QR was given."""
    lapack = scipy.linalg.lapack
    dgeqrt, dgemqrt = lapack.dgeqrt, lapack.dgemqrt
    staircase_qr = solver._staircase_qr
    seen, windows = [], []

    def recorded_qr(P, L_inv, label, bubble, last, Q_z, lift):
        seen.append((last.copy(), bubble.copy(), lift.copy()))
        return staircase_qr(P, L_inv, label, bubble, last, Q_z, lift)

    def recorded_geqrt(nb, A, **kwargs):
        windows.append([A.copy()])
        return dgeqrt(nb, A, **kwargs)

    def recorded_gemqrt(V, tau, C, **kwargs):
        windows[-1].append(C.copy())
        return dgemqrt(V, tau, C, **kwargs)

    monkeypatch.setattr(solver, "_staircase_qr", recorded_qr)
    monkeypatch.setattr(lapack, "dgeqrt", recorded_geqrt)
    monkeypatch.setattr(lapack, "dgemqrt", recorded_gemqrt)
    cert = solver.certify(topo, reports)
    p = len(cert.factor)
    windows = [np.hstack(w) for w in windows]
    return (cert, [(p - w.shape[1], w) for w in windows], *seen[-1])


def _dense_pairing_rows(topo, cert):
    """The rows F div_r L_S^-T of the full assembly, the bubbles
    condensed and S factored densely in the reverse level order, as (T, 6,
    2, m): the triangles in cert's column order, the nodes in level
    order."""
    nodes = solver.number_dofs(topo)
    T, n = topo.T, int(nodes.max()) + 1
    m = n - T                           # the bubbles are the last T nodes
    if not m:
        return np.zeros((T, 6, 2, 0))
    B = dense_divergence(topo, nodes).reshape(6 * T, n, 2)
    A_s, _ = dense_norms(topo, nodes)
    A_br = A_s[m:, :m] / np.diag(A_s)[m:, None]          # D^-1 A_br
    div_r = B[:, :m] - np.einsum("qbc,bg->qgc", B[:, m:], A_br)
    S = A_s[:m, :m] - A_s[:m, m:] @ A_br
    F = _pressure_map(topo)
    P = np.matmul(F, div_r.transpose(0, 2, 1).reshape(T, 6, 2 * m))
    rows = P.reshape(6 * T * 2, m)
    # the nodes in the reverse level order, as S is factored
    reverse = np.argsort(solver._level_positions(nodes[:, :9], m))[::-1]
    L_S = np.linalg.cholesky(S[np.ix_(reverse, reverse)])
    G = scipy.linalg.solve_triangular(L_S, rows[:, reverse].T,
                                      lower=True).T[:, ::-1]
    return G.reshape(T, 6, 2, m)[cert.order]


@pytest.mark.parametrize("name", sorted(CONDENSED_MESHES))
def test_staircase_norms_are_those_of_the_factor(monkeypatch, name):
    """The norms the staircase QR sums over the rows of X as it gathers
    them, ||X Q|| and ||X||, are those of the full assembly's pairing,
    ||W^T Q|| and ||W|| (X^T X = W W^T), to 1e-13, for columns Q that X
    does not annihilate (certify's Q_z give roundoff only); with the lift
    rows they are the norms of the finished factor, R^T R = X^T X +
    lift^T lift, to 1e-13."""
    topo, reports, _ = _classified(CONDENSED_MESHES[name]())
    staircase_qr, seen = solver._staircase_qr, []

    def recorded_qr(*args):
        seen.append(args)
        return staircase_qr(*args)

    monkeypatch.setattr(solver, "_staircase_qr", recorded_qr)
    cert = solver.certify(topo, reports)
    T = topo.T
    Q = np.random.default_rng(5).standard_normal((6 * T, 3))
    *args, _, lift = seen[0]
    R, dev, size = staircase_qr(*args, Q, lift)
    W = raw_pairing(topo)[0].reshape(T, 6, -1)[cert.order].reshape(6 * T, -1)
    assert dev == pytest.approx(np.linalg.norm(W.T @ Q), rel=1e-13)
    assert size == pytest.approx(np.linalg.norm(W), rel=1e-13)
    assert np.hypot(dev, np.linalg.norm(lift @ Q)) == pytest.approx(
        np.linalg.norm(R @ Q), rel=1e-13)
    assert np.hypot(size, np.linalg.norm(lift)) == pytest.approx(
        np.linalg.norm(R), rel=1e-13)


@pytest.mark.parametrize("name", sorted(GOLDEN_MESHES)
                         + ["one-triangle", "two-triangle-square"])
def test_pairing_rows_are_the_dense_product_with_the_inverse_factor(
        monkeypatch, name):
    """Each window of the staircase QR, as certify fills it, holds: the
    rows of X = [L_S^-1 (F div_r)^T; blockdiag(bubble_t)] at the x and y
    rows of the places its panel newly reaches, up to the last node of
    its last triangle, equal to 1e-13 to the full assembly's rows times
    L_S^-T of its dense Schur complement (in any order); its triangles'
    bubble rows, exactly; in the first window, the lift rows 2 scale
    Q_z^T first, exactly; and, with the carried rows, the Gram matrix of
    every row gathered so far on its columns, the lift rows among them,
    less that of the rows of R written before it.  No panel has a nonzero
    row beyond its window.  On one triangle no other node remains (m =
    0); on the two-triangle square the one panel is wide."""
    topo, reports, summary = _classified(CONDENSED_MESHES[name]())
    cert, windows, last, bubble, lift = _staircase(monkeypatch, topo,
                                                   reports)
    T, R = topo.T, cert.factor
    G = _dense_pairing_rows(topo, cert)
    m = G.shape[-1]
    # X's node rows (place, component) and bubble rows (triangle, j): the
    # bubble row 2t + j holds row j of bubble[t] on the columns 6t .. 6t + 5,
    # (F_t b_t)^T for the condensed bubble divergences b_t
    nodes = G.transpose(3, 2, 0, 1).reshape(2 * m, 6 * T)
    bubbles = np.zeros((2 * T, 6 * T))
    t = np.arange(T)[:, None, None]
    bubbles[2 * t + np.arange(2)[:, None], 6 * t + np.arange(6)] = bubble
    K = solver.assemble_norms(topo)
    b = solver._condense(solver.assemble_divergence(topo), K)[1]
    F = _pressure_map(topo)
    want = np.matmul(F, b)[cert.order].transpose(0, 2, 1)
    assert np.abs(bubble - want).max() <= 1e-13 * np.abs(want).max()
    size = np.abs(G).max(initial=0.0)
    assert [c0 for c0, _ in windows] == list(
        range(0, 6 * T, solver.STAIRCASE_PANEL))
    assert np.array_equal(lift, 2.0 * cert.scale * cert.constraints.T)
    assert np.array_equal(windows[0][1][:len(lift)], lift)
    reached = 0
    for c0, W in windows:
        c1 = min(c0 + solver.STAIRCASE_PANEL, 6 * T)
        top = int(last[c1 // 6 - 1]) + 1
        n, nb = top - reached, c1 - c0
        assert not nodes[2 * top:, c0:c1].any()
        h = len(W) - 2 * n - nb // 3
        assert h >= 0
        new, want = W[h:h + 2 * n], nodes[2 * reached:2 * top, c0:]
        if n:
            # every new row is one of the dense rows, and every dense row
            # one of the new rows
            dist = np.abs(new[:, None] - want[None]).max(axis=2)
            assert dist.min(axis=1).max() <= 1e-13 * size
            assert dist.min(axis=0).max() <= 1e-13 * size
        assert np.array_equal(W[h + 2 * n:],
                              bubbles[2 * (c0 // 6):2 * (c1 // 6), c0:])
        gathered = np.vstack([lift[:, c0:], nodes[:2 * top, c0:],
                              bubbles[:2 * (c1 // 6), c0:]])
        gram = gathered.T @ gathered
        got = W.T @ W + R[:c0, c0:].T @ R[:c0, c0:]
        assert np.abs(got - gram).max() <= 1e-12 * np.abs(gram).max()
        reached = top
    assert reached == m


@pytest.mark.parametrize("name", sorted(GOLDEN_MESHES)
                         + ["one-triangle", "two-triangle-square", "ngon-5",
                            "perturbed-8-p3"])
def test_pairing_rows_are_an_exact_staircase(monkeypatch, name):
    """Triangle t's rows of the full assembly, times L_S^-T of the Schur
    complement factored in the reverse level order, are nonzero only up
    to the place of its last node in level order, last[t], which ascends
    in certify's column order: every entry beyond it is exactly 0, as
    L_S^-1 is exactly 0 above its diagonal in the reverse level order,
    and the QR never reads it."""
    topo, reports, summary = _classified(CONDENSED_MESHES[name]())
    cert, _, last, _, _ = _staircase(monkeypatch, topo, reports)
    G = _dense_pairing_rows(topo, cert)
    nodes = solver.number_dofs(topo)[cert.order, :9]
    m = G.shape[-1]
    position = np.append(solver._level_positions(nodes, m), -1)
    assert np.array_equal(last, position[nodes].max(axis=1))
    assert np.all(np.diff(last) >= 0)
    beyond = np.arange(m) > last[:, None]               # (T, m)
    assert not G.transpose(0, 3, 1, 2)[beyond].any()


@pytest.mark.parametrize("angle,scale", [(1.0, 1e-7), (2.5, 3e7)])
def test_level_order_is_a_function_of_topology_alone(monkeypatch, angle,
                                                     scale):
    """A rotated and scaled copy of a mesh gets the same level order, the
    same last places and the same triangle order: no coordinate decides
    them."""
    orders = []
    for mesh in (perturbed_grid(5, seed=3),
                 rigid_motion(perturbed_grid(5, seed=3), angle=angle,
                              scale=scale)):
        topo, reports, summary = _classified(mesh)
        cert, _, last, _, _ = _staircase(monkeypatch, topo, reports)
        nodes = solver.number_dofs(topo)
        m = int(nodes.max()) + 1 - topo.T
        orders.append((solver._level_positions(nodes[:, :9], m), last,
                       cert.order))
    for a, b in zip(*orders):
        assert np.array_equal(a, b)
    position = orders[0][0]
    assert sorted(position) == list(range(len(position)))


def test_analyze_takes_no_svd_and_one_gram_eigenvalue(monkeypatch,
                                                      tmp_path):
    """The one dense eigenvalue problem of analyze is the Ritz matrix of
    the rank scale, at most SCALE_STEPS x SCALE_STEPS."""
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if name == "eigh" and kwargs.get("eigvals_only") and \
                    len(args[0]) <= solver.SCALE_STEPS:
                calls["eigh of a Ritz matrix"] += 1
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
        assert calls["null_space"] == calls["svdvals"] == calls["svd"] == 0
        assert calls["eigh"] == calls["eigh of a Ritz matrix"] == 1
        assert calls["eigvalsh"] == calls["solve"] == 0
        assert calls["lstsq"] == calls["pinv"] == 0
    calls.clear()
    path = tmp_path / "type1-3.mesh"
    path.write_text(dump_mesh(type1_diagonal(3)))
    out = tmp_path / "spline.json"
    assert cli.main(["spline-dim", "--mesh", str(path), "--out", str(out)]) == 0
    assert calls["svd"] == calls["svdvals"] == 0 and calls["eigh"] == 1


def test_cli_does_not_import_arpack():
    code = ("import sys, svstokes.cli; "
            "sys.exit('scipy.sparse.linalg' in sys.modules)")
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0


def test_velocity_gram_not_spd_is_a_solver_error(monkeypatch):
    assemble = solver.assemble_norms

    def negated(*args, **kwargs):
        return -assemble(*args, **kwargs)

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


def _pressure_map(topo):
    """F_t = L_t^-1 for the Cholesky factor L_t of each triangle's mass
    block |T_t| _MM2, (T, 6, 6), in mesh order: F^T F = M^-1."""
    blocks = topo.area[:, None, None] * solver._MM2
    return np.linalg.inv(np.linalg.cholesky(blocks))


@pytest.mark.parametrize("name", sorted(GOLDEN_MESHES)
                         + ["crossed-6-x1e-7", "crossed-6-x3e7"])
def test_pressure_map_inverts_each_mass_block(name):
    """certify's pressure coordinates, one constant factor over the
    square root of the area, have F_t^T F_t M_t = I on every triangle to
    1e-13, also on crossed-6 scaled by 1e-7 and by 3e7, and equal the
    inverse Cholesky factor of each mass block to 1e-13."""
    if name in GOLDEN_MESHES:
        mesh = GOLDEN_MESHES[name]()
    else:
        mesh = rigid_motion(crossed(6), scale=float(name.split("-x")[1]))
    topo, reports, summary = _classified(mesh)
    cert = solver.certify(topo, reports)
    F = cert.pressure_map
    M = topo.area[cert.order, None, None] * solver._MM2
    eye = np.matmul(np.matmul(F.transpose(0, 2, 1), F), M)
    assert np.abs(eye - np.eye(6)).max() <= 1e-13
    want = _pressure_map(topo)[cert.order]
    assert np.abs(F - want).max() <= 1e-13 * np.abs(want).max()


def test_constrained_basis_rejects_dependent_rows():
    topo, reports, _ = _classified(crossed(2))
    C = solver.pressure_constraints(topo, reports)
    assert np.allclose(np.linalg.norm(C, axis=1), 1.0, rtol=1e-14)
    F = _pressure_map(topo)
    Q_z = solver.constrained_basis(C, F)
    k, m = C.shape
    T = topo.T
    # orthonormal columns spanning F C^T
    assert Q_z.shape == (m, k)
    assert np.abs(Q_z.T @ Q_z - np.eye(k)).max() < 1e-14
    Z = np.matmul(F, C.T.reshape(T, 6, k)).reshape(m, k)
    _assert_same_span(Q_z, Z)
    # the coordinates orthogonal to Q_z, mapped through F^T, are an
    # M-orthonormal basis of the pressures that C annihilates
    u = scipy.linalg.null_space(Q_z.T).reshape(T, 6, m - k)
    basis = np.matmul(F.transpose(0, 2, 1), u).reshape(m, m - k)
    M = scipy.linalg.block_diag(*(topo.area[:, None, None] * solver._MM2))
    assert np.abs(C @ basis).max() < 1e-12 * np.abs(basis).max()
    assert np.abs(basis.T @ M @ basis - np.eye(m - k)).max() < 1e-12
    with pytest.raises(solver.SolverError, match="linearly dependent"):
        solver.constrained_basis(np.vstack([C, C[-1]]), F)


# ---------------------------------------------------------------------------
# the factor of S: the band of its level order, its Cholesky factor and the
# block inverse

def _dense_gram(topo):
    """S as certify first assembled it: the condensed Gram blocks summed
    by one np.bincount in triangle order into a dense m x m array, at the
    labels m - 1 - place of the level order; S[i, j], i <= j, is the
    triangle it factored."""
    nodes = solver.number_dofs(topo)
    m = solver._n_nodes(nodes) - topo.T
    K_r = solver._condense(solver.assemble_divergence(topo),
                           solver.assemble_norms(topo))[2]
    inner = nodes[:, :9]
    interior = inner >= 0
    label = m - 1 - np.append(solver._level_positions(inner, m), -1)[inner]
    t, a, b = np.nonzero(interior[:, :, None] & interior[:, None, :])
    return np.bincount(label[t, a] * m + label[t, b], weights=K_r[t, a, b],
                       minlength=m * m).reshape(m, m)


def _factor_of_S(monkeypatch, topo, reports):
    """(band, L_inv, calls): the band of S that certify hands to
    cholesky_banded, before it is factored, the inverse factor it hands
    to the staircase QR, and the order of every dtrtri operand, every
    dtrmm call and every dense Cholesky factorization, by name."""
    seen, calls = {}, Counter()
    banded, staircase_qr = scipy.linalg.cholesky_banded, solver._staircase_qr
    lapack = scipy.linalg.lapack

    def recorded_banded(ab, **kwargs):
        seen["band"] = ab.copy()
        return banded(ab, **kwargs)

    def recorded_qr(P, L_inv, *args):
        seen["L_inv"] = L_inv.copy(order="F")
        return staircase_qr(P, L_inv, *args)

    def counted(name, fn, order=False):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if order:
                calls[f"{name} {len(args[0])}"] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(scipy.linalg, "cholesky_banded", recorded_banded)
    monkeypatch.setattr(solver, "_staircase_qr", recorded_qr)
    monkeypatch.setattr(lapack, "dtrtri", counted("dtrtri", lapack.dtrtri,
                                                  order=True))
    for module, name in ((lapack, "dpotrf"), (scipy.linalg.blas, "dtrmm"),
                         (scipy.linalg, "cholesky"), (np.linalg, "cholesky")):
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    solver.certify(topo, reports)
    return seen["band"], seen["L_inv"], calls


FACTOR_MESHES = (sorted(GOLDEN_MESHES) + bench_pool("certify-dense")
                 + bench_pool("verify-fields") + sorted(MIXED)
                 + ["one-triangle", "crossed-3"])


def _factor_case(name):
    if name == "one-triangle":
        return CONDENSED_MESHES[name]()
    if name == "crossed-3":
        return crossed(3)
    return _oracle_case(name)


@pytest.mark.parametrize("name", FACTOR_MESHES)
def test_band_of_S_is_the_dense_bincount_bit_for_bit(monkeypatch, name):
    """certify sums S straight into lower band storage of its bandwidth b
    in the reverse level order: entry [d, j] of the band is S[j, j + d] of
    the dense np.bincount assembly, bit for bit, the band's unused corner
    is zero, and no entry of S lies beyond b, while one lies at b.  On
    one triangle no node but the bubble remains: m = 0."""
    topo, reports, _ = _classified(_factor_case(name))
    band, _, _ = _factor_of_S(monkeypatch, topo, reports)
    S = _dense_gram(topo)
    m, b = len(S), len(band) - 1
    assert band.shape == (b + 1, m)
    for d in range(b + 1):
        assert np.array_equal(band[d, :m - d], np.diagonal(S, d))
        assert not band[d, m - d:].any()
    assert not np.triu(S, b + 1).any() and not np.tril(S, -b - 1).any()
    assert np.diagonal(S, b).any() or m == 0
    assert (m == 0) == (name == "one-triangle")


@pytest.mark.parametrize("name", FACTOR_MESHES)
def test_block_inverse_is_the_dense_inverse_factor(monkeypatch, name):
    """The inverse factor certify hands to the staircase QR is
    np.linalg.inv(np.linalg.cholesky(S)) of the dense assembly to 1e-13
    relative, exactly zero above its diagonal, from one band Cholesky
    factorization and no dense one; dtrtri sees only diagonal blocks of
    at most INVERSE_BLOCK, and dtrmm joins them where m exceeds it
    (crossed-3 and the bench meshes; on crossed-3, on crossed-4 and mixed-6
    the bandwidth is at least m / 2)."""
    topo, reports, _ = _classified(_factor_case(name))
    _, L_inv, calls = _factor_of_S(monkeypatch, topo, reports)
    S = _dense_gram(topo)
    m = len(S)
    assert L_inv.shape == (m, m)
    assert not calls["dpotrf"] and not calls["cholesky"]
    orders = [int(key.split()[1]) for key in calls if key.startswith("dtrtri ")]
    assert all(0 < n <= solver.INVERSE_BLOCK for n in orders)
    assert sum(n * calls[f"dtrtri {n}"] for n in orders) == m
    assert bool(calls["dtrmm"]) == (m > solver.INVERSE_BLOCK)
    if not m:
        return
    want = np.linalg.inv(np.linalg.cholesky(np.triu(S) + np.triu(S, 1).T))
    assert np.abs(L_inv - want).max() <= 1e-13 * np.abs(want).max()
    assert not np.triu(L_inv, 1).any()


@pytest.mark.parametrize("m,band", [(1, 0), (5, 4), (64, 63), (64, 5),
                                    (65, 64), (65, 1), (130, 65),
                                    (130, 129), (200, 0), (200, 100),
                                    (401, 151)])
def test_block_inverse_of_a_banded_factor(monkeypatch, m, band):
    """_invert_lower on lower triangular factors of bandwidth 0 to m - 1,
    m up to and past INVERSE_BLOCK and a band of at least m / 2 among
    them: the inverse np.linalg.inv gives, to 1e-13 relative, in L's own
    storage, zero above the diagonal, and dtrtri only on diagonal blocks
    of at most INVERSE_BLOCK."""
    # off-diagonal rows of 1-norm below 1 over a diagonal of 1 .. 2: the
    # inverse is well conditioned, as that of a Cholesky factor of S is
    rng = np.random.default_rng(m + band)
    L = np.tril(rng.uniform(-1.0, 1.0, (m, m)), -1) / (band + 1)
    L[np.tril_indices(m, -band - 1)] = 0.0
    L[np.diag_indices(m)] = rng.uniform(1.0, 2.0, m)
    X = L.copy(order="F")
    orders = []
    dtrtri = scipy.linalg.lapack.dtrtri

    def recorded(c, **kwargs):
        orders.append(len(c))
        return dtrtri(c, **kwargs)

    monkeypatch.setattr(scipy.linalg.lapack, "dtrtri", recorded)
    assert solver._invert_lower(X, band) is None
    want = np.linalg.inv(L)
    assert np.abs(X - want).max() <= 1e-13 * np.abs(want).max()
    assert not np.triu(X, 1).any()
    assert max(orders) <= solver.INVERSE_BLOCK and sum(orders) == m


def test_a_sign_flipped_gram_block_is_a_solver_error(monkeypatch):
    """One triangle's Gram block on its other nodes flipped in sign and
    scaled up, its bubble entries kept: K_99 > 0, so _condense passes it,
    and the band Cholesky factorization of S fails: SolverError."""
    assemble = solver.assemble_norms

    def flipped(*args, **kwargs):
        K = assemble(*args, **kwargs)
        K[5, :9, :9] *= -100.0
        return K

    monkeypatch.setattr(solver, "assemble_norms", flipped)
    topo, reports, _ = _classified(crossed(2))
    with pytest.raises(solver.SolverError,
                       match="not SPD: .*leading minor not positive"):
        solver.certify(topo, reports)


@pytest.mark.parametrize("key", ["perturbed-8-p0", "crossed-6"])
def test_analyze_takes_no_dense_cholesky_and_no_lift_at_K_0(monkeypatch, key):
    """A certify-dense item with K = 0 runs no dense Cholesky
    factorization (dpotrf) of S, dtrtri only on blocks of at most
    INVERSE_BLOCK, and no dtpqrt: the constraint directions are lifted in
    the staircase, and nothing else is."""
    lapack = scipy.linalg.lapack
    sizes = []
    dtrtri = lapack.dtrtri

    def recorded(c, **kwargs):
        sizes.append(len(c))
        return dtrtri(c, **kwargs)

    calls = _counted_calls(monkeypatch, (
        (lapack, "dpotrf"), (lapack, "dtpqrt"), (scipy.linalg, "cholesky"),
        (np.linalg, "cholesky"), (scipy.linalg, "cholesky_banded")))
    monkeypatch.setattr(lapack, "dtrtri", recorded)
    report, modes = cli.analyze_mesh(bench_mesh(key), TOL)
    assert report["divergence"]["K"] == len(modes) == 0
    assert calls == {"scipy.linalg.cholesky_banded": 1}, calls
    assert sizes and max(sizes) <= solver.INVERSE_BLOCK


# ---------------------------------------------------------------------------
# invariance under rotation plus scaling over the double range

SIMILARITY_BASES = {"crossed-2": lambda: crossed(2),
                    "perturbed-3-s13": lambda: perturbed_grid(3, seed=13)}


def _invariants(mesh):
    """sigma, the vertex classes, K and the seminorm beta of a mesh; beta
    agrees with the SVD's to 1e-8."""
    topo, reports, summary = _classified(mesh)
    cert = solver.certify(topo, reports, seminorm=True)
    beta_svd = svd_oracle(cert)[1]
    rr = solver.divergence_rank(cert, TOL)
    beta = solver.infsup_constant(rr)
    assert beta == pytest.approx(beta_svd, rel=1e-8)
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
@example(name="crossed-2", angle=6.283185307179585, exponent=0.0)
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


# ---------------------------------------------------------------------------
# K and beta from the bottom of the spectrum, against the full SVD and the
# inertia of [[-tau I, R], [R^T, -tau I]]

def _negative_eigenvalues(d):
    """Negative eigenvalues of the block-diagonal D of an LDL^T
    factorization (1 x 1 and 2 x 2 blocks)."""
    off, n, i, count = np.diagonal(d, -1), len(d), 0, 0
    while i < n:
        if i + 1 < n and off[i] != 0.0:
            count += int(np.sum(np.linalg.eigvalsh(d[i:i + 2, i:i + 2]) < 0))
            i += 2
        else:
            count += int(d[i, i] < 0)
            i += 1
    return count


def _inertia_K(cert, tol=TOL):
    """#{s < tau} for tau = tol.rank * s_max, s_max the largest singular
    value but the k lifted ones of the constraint directions, which lie
    above tau: the symmetric matrix [[-tau I, R], [R^T, -tau I]] of the 6T
    x 6T factor has the eigenvalues -tau -+ s, so 6T + #{s < tau} of them
    are negative (Sylvester)."""
    R = cert.factor
    p = len(R)
    tau = tol.rank * scipy.linalg.svdvals(R)[p - cert.shape[0]]
    H = np.block([[-tau * np.eye(p), R], [R.T, -tau * np.eye(p)]])
    _, d, _ = scipy.linalg.ldl(H)
    return _negative_eigenvalues(d) - p


def _oracle_case(name):
    if name in GOLDEN_MESHES:
        return GOLDEN_MESHES[name]()
    if name in MIXED:
        return type1_with_crossed(*MIXED[name])
    return {"crossed-8": lambda: crossed(8),
            "type1-1": lambda: type1_diagonal(1)}.get(
                name, lambda: bench_mesh(name))()


ORACLE_MESHES = (sorted(GOLDEN_MESHES) + bench_pool("certify-dense")
                 + ["crossed-8"] + sorted(MIXED) + ["type1-1"])


def _certify_with_start(monkeypatch, topo, reports):
    """(cert, product, adjoint, start): certify's certificate, the
    products of X and the Krylov start it read its rank scale from."""
    rank_scale, seen = solver._rank_scale, []

    def recorded(product, adjoint, start):
        seen.append((product, adjoint, start.copy()))
        return rank_scale(product, adjoint, start)

    with monkeypatch.context() as patch:
        patch.setattr(solver, "_rank_scale", recorded)
        cert = solver.certify(topo, reports)
    return (cert, *seen[-1])


def _oracle_factor(topo, cert):
    """The unlifted oracle factor: the R of the QR of the full assembly's
    W^T, its columns in cert's order, over zero rows up to 6T x 6T."""
    T = topo.T
    W = raw_pairing(topo)[0].reshape(T, 6, -1)[cert.order].reshape(6 * T, -1)
    R = scipy.linalg.qr(W.T, mode="r")[0][:6 * T]
    factor = np.zeros((6 * T, 6 * T), order="F")
    factor[:len(R)] = R
    return factor


@pytest.mark.parametrize("name", ORACLE_MESHES)
def test_lifted_lanczos_agrees_with_the_svd_and_the_inertia(monkeypatch,
                                                             name):
    """The same K as the full SVD and as the inertia oracle, beta within
    1e-12 of the SVD's, and the same gap; type1-1 has fewer velocities
    than constrained pressures (p > n).  On every mesh certify's factor
    is 6T x 6T and column-major, and its rank scale, read from X^T X, is
    that of the unlifted oracle factor from the same start to 1e-13."""
    topo, reports, summary = _classified(_oracle_case(name))
    cert, _, _, start = _certify_with_start(monkeypatch, topo, reports)
    assert cert.factor.shape == (6 * topo.T,) * 2
    assert cert.factor.flags.f_contiguous
    # the oracles read the factor before the rank consumes it
    R = _oracle_factor(topo, cert)
    scale = solver._rank_scale(*factor_products(R), start)
    assert cert.scale == pytest.approx(scale, rel=1e-13, abs=0.0)
    K, beta, gap = svd_oracle(cert, cert.scale)
    inertia_K = _inertia_K(cert)
    s_max = scipy.linalg.svdvals(R)[0]
    for c in (1.0, 1e-50, 1e50):
        for c_start in (start, krylov_start(len(R))):
            _assert_scale_bounds(
                solver._rank_scale(*factor_products(c * R), c_start),
                c * s_max)
    rr = solver.divergence_rank(cert, TOL)
    assert rr.K == cert.shape[0] - rr.rank == K == inertia_K
    assert rr.beta == pytest.approx(beta, rel=1e-12)
    assert rr.gap == pytest.approx(gap, rel=1e-12)
    assert solver.infsup_constant(rr) == rr.beta
    if name == "type1-1":
        assert cert.shape[0] > cert.shape[1]
    assert rr.scale == cert.scale


@pytest.mark.parametrize("name", ["type1-3", "perturbed-3-s1"])
def test_rank_consumes_the_factor(name):
    """divergence_rank lifts certify's factor in its own storage, where
    K > 0 (type1-3; perturbed-3-s1, K = 0, lifts nothing and keeps every
    bit), and leaves it read-only: a second rank of the certificate is a
    SolverError, and the rank of a copy of the factor gives the same rank,
    K, beta, gap and null basis bits, and the SVD's beta to 1e-12."""
    topo, reports, summary = _classified(GOLDEN_MESHES[name]())
    cert = solver.certify(topo, reports)
    raw = cert.factor.copy(order="F")
    copy = dataclasses.replace(cert, factor=cert.factor.copy(order="F"))
    beta_svd = svd_oracle(copy)[1]
    rr = solver.divergence_rank(cert, TOL)
    assert not cert.factor.flags.writeable
    assert np.array_equal(cert.factor, raw) == (rr.K == 0)
    assert rr.K == (name == "type1-3")
    with pytest.raises(solver.SolverError, match="read-only"):
        solver.divergence_rank(cert, TOL)
    assert solver.infsup_constant(rr) == pytest.approx(beta_svd, rel=1e-12)
    other = solver.divergence_rank(copy, TOL)
    for field in ("rank", "nullity", "K", "gap", "beta", "scale"):
        assert getattr(other, field) == getattr(rr, field), field
    assert np.array_equal(other.null_basis, rr.null_basis)


# ---------------------------------------------------------------------------
# the kernels of the rank: two dtrsv a Lanczos step, the whole tridiagonal
# eigenproblem only once the top Ritz pair has converged, and the lift by
# one dtpqrt, against the oracles of the triangular solves, the whole
# eigenproblem every step and the Givens lift

def _calls_per_lanczos_run(monkeypatch):
    """(calls, runs): a Counter of the dtrsv, solve_triangular, drot,
    eigh_tridiagonal, dstebz and dstevd calls and of the tridiagonal
    eigenproblems of solver._tridiagonal_eigh, "top" for the largest pair
    alone and "full" otherwise, and per run of solver._inverse_lanczos the
    Counter of those made inside it."""
    calls = _counted_calls(monkeypatch, (
        (scipy.linalg.blas, "dtrsv"), (scipy.linalg, "solve_triangular"),
        (scipy.linalg.blas, "drot"), (scipy.linalg, "eigh_tridiagonal"),
        (scipy.linalg.lapack, "dstebz"), (scipy.linalg.lapack, "dstevd")))
    tridiagonal_eigh = solver._tridiagonal_eigh

    def split(d, e, top=False):
        calls["tridiagonal " + ("top" if top else "full")] += 1
        return tridiagonal_eigh(d, e, top)

    monkeypatch.setattr(solver, "_tridiagonal_eigh", split)
    runs = []
    lanczos = solver._inverse_lanczos

    def recorded(F, thr):
        before = calls.copy()
        out = lanczos(F, thr)
        runs.append(calls - before)
        return out

    monkeypatch.setattr(solver, "_inverse_lanczos", recorded)
    return calls, runs


def _blas2_operands(monkeypatch):
    """The matrix operand of every scipy.linalg.blas dtrsv and dtrmv call,
    as a list per name."""
    operands = {"dtrsv": [], "dtrmv": []}
    for fname, seen in operands.items():
        def recorded(a, *args, _fn=getattr(scipy.linalg.blas, fname),
                     _seen=seen, **kwargs):
            _seen.append(a)
            return _fn(a, *args, **kwargs)
        monkeypatch.setattr(scipy.linalg.blas, fname, recorded)
    return operands


@pytest.mark.parametrize("name", ["type1-3", "perturbed-3-s1"])
def test_divergence_rank_takes_no_givens_and_no_solve_in_lanczos(monkeypatch,
                                                                 name):
    """Each Lanczos step is two dtrsv on the factor and one top Ritz pair,
    by LAPACK's dstebz from the second step on, each run solves the whole
    tridiagonal eigenproblem once, by dstevd, and each round of lifts is
    one dtpqrt, after the first run: the constraint directions' round 0
    is part of certify's staircase, so K = 0 takes no dtpqrt.  No drot,
    no eigh_tridiagonal, and no solve_triangular inside a Lanczos run, and
    no dtrmv: the rank scale is certify's.  Every factor that dtrsv reads
    is column-major, so BLAS reads it in place: on type1-3 the born-lifted
    factor and the factor lifted again, on perturbed-3-s1 (K = 0) the
    born-lifted factor."""
    topo, reports, summary = _classified(GOLDEN_MESHES[name]())
    cert = solver.certify(topo, reports)
    calls, runs = _calls_per_lanczos_run(monkeypatch)
    lifts = _counted_calls(monkeypatch, ((scipy.linalg.lapack, "dtpqrt"),))
    operands = _blas2_operands(monkeypatch)
    rr = solver.divergence_rank(cert, TOL)
    seen = operands["dtrsv"]
    assert seen and all(a.flags.f_contiguous for a in seen)
    assert not operands["dtrmv"]
    assert not calls["scipy.linalg.blas.drot"]
    assert len(runs) == 1 + lifts["scipy.linalg.lapack.dtpqrt"]
    assert len(runs) == 1 + (rr.K > 0)
    for run in runs:
        steps = run["tridiagonal top"]
        assert steps > 0 and run["scipy.linalg.blas.dtrsv"] == 2 * steps
        assert run["tridiagonal full"] == 1
        assert run["scipy.linalg.lapack.dstebz"] == steps - 1
        assert run["scipy.linalg.lapack.dstevd"] == 1
        assert not run["scipy.linalg.eigh_tridiagonal"]
        assert not run["scipy.linalg.solve_triangular"]


LANCZOS_ORACLE_MESHES = (sorted(GOLDEN_MESHES) + bench_pool("certify-dense")
                         + ["crossed-6-x1e-7", "type1-1"])


@pytest.mark.parametrize("name", LANCZOS_ORACLE_MESHES)
def test_lanczos_and_lift_agree_with_their_oracles(monkeypatch, name):
    """The same Lanczos steps, run by run, the same rank and beta to 1e-13
    as with the oracles of ``inverse_lanczos_oracle`` and ``givens_lift``.
    crossed-6 at L = 1e-7 is the certify-dense item of the most steps; on
    type1-1 the factor with a zero row is lifted."""
    mesh = (crossed(6, 1e-7) if name == "crossed-6-x1e-7"
            else _oracle_case(name))
    topo, reports, summary = _classified(mesh)
    cert = solver.certify(topo, reports)
    # the rank consumes the factor: the oracles lift a copy of it
    copy = dataclasses.replace(cert, factor=cert.factor.copy(order="F"))
    with monkeypatch.context() as patch:
        runs = _calls_per_lanczos_run(patch)[1]
        rr = solver.divergence_rank(cert, TOL)
    oracle_steps = []

    def oracle(F, thr):
        s_min, Y, steps = inverse_lanczos_oracle(F, thr)
        oracle_steps.append(steps)
        return s_min, Y

    monkeypatch.setattr(solver, "_inverse_lanczos", oracle)
    monkeypatch.setattr(solver, "_lift", givens_lift)
    ref = solver.divergence_rank(copy, TOL)
    assert [run["tridiagonal top"] for run in runs] == oracle_steps
    assert (rr.rank, rr.K) == (ref.rank, ref.K)
    assert rr.beta == pytest.approx(ref.beta, rel=1e-13, abs=0.0)
    if name == "crossed-6-x1e-7":
        # its three smallest singular values lie within 3e-4, and the
        # rounding of certify's OpenBLAS kernel can decide the last step:
        # on the born-lifted staircase factor it is 96 under SkylakeX,
        # Cooperlake, Zen, Haswell, Sandybridge, Prescott, Nehalem, Atom
        # and Core2 (94 on the staircase factor lifted by a dtpqrt before
        # it, 95 on the rotated factor before that under the first five)
        assert oracle_steps in ([96],)
    if name == "type1-1":
        assert cert.shape[1] < cert.shape[0] < len(cert.factor)
        assert rr.K == 1


@pytest.mark.parametrize("n", [1, 2, 5, 40])
def test_tridiagonal_eigenpairs_are_those_of_eigh_tridiagonal(n):
    """The direct dstebz + dstein and dstevd calls give scipy's
    eigh_tridiagonal results bit for bit, the largest pair alone and the
    whole problem, and the 1 x 1 case takes no LAPACK call."""
    rng = np.random.default_rng(n)
    d, e = rng.uniform(0.5, 2.0, n), rng.uniform(0.0, 0.5, n - 1)
    top = solver._tridiagonal_eigh(d, e, top=True)
    want = scipy.linalg.eigh_tridiagonal(d, e, select="i",
                                         select_range=(n - 1, n - 1))
    full = solver._tridiagonal_eigh(d, e)
    for got, ref in ((top, want), (full, scipy.linalg.eigh_tridiagonal(d, e))):
        assert all(np.array_equal(a, b) for a, b in zip(got, ref))


@pytest.mark.parametrize("entry", [np.nan, np.inf, 1e-200])
def test_a_non_finite_lanczos_step_is_indeterminate(entry):
    """A factor whose Lanczos step is NaN, infinite or overflows (a pivot
    of 1e-200 squares below the smallest double) decides no rank."""
    F = np.eye(8)
    if entry == 1e-200:
        F[3, 3] = entry
    else:
        F[2, 5] = entry
    with pytest.raises(solver.RankIndeterminateError, match="overflowed"):
        solver._inverse_lanczos(F, 1e-8)


def test_a_wide_factor_is_padded_at_its_pivotless_columns():
    """The two-triangle square has n = 8 velocities against 6T = 12 raw
    pressures, all in one panel of the staircase QR, and k = 3 lift rows
    of the constraint directions, so certify's R has rows 0 .. 10: it is
    12 x 12, upper triangular and column-major, with a zero row, the only
    zero pivot, at column 11."""
    topo, reports, summary = _classified(type1_diagonal(1))
    cert = solver.certify(topo, reports)
    R = cert.factor
    assert cert.constraints.shape[1] == 3
    assert R.shape == (12, 12) and R.flags.f_contiguous
    assert not np.tril(R, -1).any()
    assert np.flatnonzero(np.diag(R) == 0.0).tolist() == [11]
    assert not R[11:].any()


@pytest.mark.parametrize("e", range(-8, 9))
def test_two_triangle_square_is_exit_3_at_every_length_scale(tmp_path,
                                                             capsys, e):
    """The two-triangle square, whose X_rc is wide, has K = 1 against
    its verdict at every length scale 1e-8 .. 1e8: exit 3, never a
    traceback.  With the zero rows padded below the bubble rows, the
    inverse Lanczos vectors overflowed from L = 3e4 on.  Its rejected
    singular values are exactly 0, so the message names the roundoff
    floor, not a singular value of that size."""
    path, out = tmp_path / "mesh", tmp_path / "report.json"
    assert cli.main(["gen", "type1", "--n", "1", "--L", f"1e{e}",
                     "--out", str(path)]) == 0
    assert cli.main(["analyze", "--mesh", str(path), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "(K = 1)" in err and not out.exists()
    assert "rejects singular values at or below the roundoff floor" in err
    assert "a singular value" not in err


@pytest.mark.parametrize("rows", [1, 3])
@pytest.mark.parametrize("name", ["type1-3", "three-lines-2", "type1-1"])
def test_lift_by_dtpqrt_matches_the_givens_oracle(name, rows):
    """The dtpqrt lift and the Givens oracle both give R^T R + w^T w to
    1e-13, on certify's factors, the one with a zero row of the
    two-triangle square (type1-1) among them.  An F-ordered factor is
    lifted in its own storage; LAPACK lifts a C-ordered one in a copy, and
    the lift returns that copy."""
    topo, reports, summary = _classified(_oracle_case(name))
    cert = solver.certify(topo, reports)
    p, n = cert.shape
    assert (n < p) == (name == "type1-1")
    R = cert.factor
    w = np.random.default_rng(5).standard_normal((rows, len(R)))
    want = R.T @ R + w.T @ w
    in_place = R.copy(order="F")
    assert solver._lift(in_place, w.copy()) is in_place
    copied = solver._lift(R.copy(), w.copy())
    oracle = givens_lift(R.copy(), w)
    for got in (in_place, copied, oracle):
        assert not np.tril(got, -1).any()
        assert np.abs(got.T @ got - want).max() <= 1e-13 * np.abs(want).max()


# ---------------------------------------------------------------------------
# the rank scale: a Krylov lower bound on s_max, and the bound 1 on it

def _assert_scale_bounds(scale, s_max):
    """A rank scale lies below s_max, by at most 1 %."""
    assert s_max * (1 - 1e-2) <= scale <= s_max * (1 + 1e-14), (scale, s_max)


@pytest.mark.parametrize("key,length", [("crossed-6", 1e-7),
                                        ("perturbed-8-p0", 3e7)])
def test_rank_scale_on_the_scaled_bench_copies(key, length):
    """The two scaled certify-dense items: in the full H1 norm s_max
    moves with the length scale, and the rank scale follows it."""
    topo, reports, summary = _classified(rigid_motion(bench_mesh(key),
                                                      scale=length))
    cert = solver.certify(topo, reports)
    # the largest singular value but the lifted ones
    k = cert.constraints.shape[1]
    _assert_scale_bounds(cert.scale, scipy.linalg.svdvals(cert.factor)[k])
    rr = solver.divergence_rank(cert, TOL)
    assert rr.K == 0


@pytest.mark.parametrize("name", sorted(GOLDEN_MESHES))
def test_rank_scale_by_pairing_products_is_the_dense_one(monkeypatch, name):
    """certify's products X q and X^T u run on P, the bubble blocks and
    L_S^-1, X never formed, and are each other's transposes; with dense
    products of X, formed column by column, in their place the rank scale
    agrees to 1e-13."""
    topo, reports, summary = _classified(GOLDEN_MESHES[name]())
    cert, product, adjoint, start = _certify_with_start(monkeypatch, topo,
                                                        reports)
    p = 6 * topo.T
    assert cert.factor.shape == (p, p)
    X = np.column_stack([product(e) for e in np.eye(p)])
    u = np.random.default_rng(5).standard_normal(len(X))
    assert np.abs(adjoint(u) - X.T @ u).max() <= \
        1e-13 * np.abs(X).max() * np.abs(u).max()
    dense = solver._rank_scale(lambda q: X @ q, lambda u: X.T @ u, start)
    assert cert.scale == pytest.approx(dense, rel=1e-13, abs=0.0)


def _ritz_sizes(monkeypatch):
    """The orders of the matrices scipy.linalg.eigh is called on."""
    sizes = []
    eigh = scipy.linalg.eigh

    def recorded(a, *args, **kwargs):
        sizes.append(len(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh", recorded)
    return sizes


@pytest.mark.parametrize("distinct", [1, 2, 4, solver.SCALE_STEPS])
def test_rank_scale_is_exact_with_few_distinct_singular_values(monkeypatch,
                                                               distinct):
    """With d <= SCALE_STEPS distinct singular values the Krylov space is
    invariant after d steps: the space stops growing there (breakdown)
    and its top Ritz value is s_max^2."""
    sizes = _ritz_sizes(monkeypatch)
    values = np.linspace(0.9, 0.2, distinct)
    R = _factor_with_spectrum(np.repeat(values, 40 // distinct + 1)[:40])
    assert solver._rank_scale(*factor_products(R),
                              krylov_start(len(R))) == pytest.approx(
        0.9, rel=1e-14)
    assert sizes == [distinct]


def test_rank_scale_of_small_and_zero_factors(monkeypatch):
    """p < SCALE_STEPS: the space is the whole space and the scale is
    s_max.  An all-zero factor has scale 0, and every pressure is
    rejected; an empty one has scale 0 and no eigenvalue problem."""
    sizes = _ritz_sizes(monkeypatch)
    p = solver.SCALE_STEPS - 3
    s = _spread(0.1, 0.8, p)
    assert solver._rank_scale(*factor_products(_factor_with_spectrum(s)),
                              krylov_start(p)) == pytest.approx(s[0],
                                                                rel=1e-14)
    assert solver._rank_scale(
        *factor_products(_factor_with_spectrum(np.ones(1))),
        krylov_start(1)) == 1.0
    zero = _synthetic_of(np.zeros((P_SYNTH, P_SYNTH)))
    assert zero.scale == 0.0
    assert sizes == [p, 1, 1]
    assert solver._rank_scale(*factor_products(np.zeros((0, 0))),
                              krylov_start(0)) == 0.0
    assert len(sizes) == 3
    rr = solver.divergence_rank(zero, TOL)
    assert (rr.rank, rr.K, rr.beta, rr.scale) == (0, P_SYNTH, 0.0, 0.0)


@pytest.mark.parametrize("top,raises", [(1.0, False), (1.0 + 1e-13, False),
                                        (1.0 + 1e-9, True), (1.4, True)])
def test_a_singular_value_above_one_is_a_solver_error(top, raises):
    """|v|_1 <= ||v||_H1 bounds every singular value of W by 1.  Two
    distinct singular values make the scale exact, so a top above 1 is
    seen."""
    cert = _synthetic(np.concatenate([[top], np.full(P_SYNTH - 1, 0.5)]))
    if not raises:
        assert solver.divergence_rank(cert, TOL).K == 0
        return
    with pytest.raises(solver.SolverError, match="exceeds the bound 1"):
        solver.divergence_rank(cert, TOL)


def test_a_singular_value_above_one_is_exit_4(tmp_path, monkeypatch, capsys):
    cert = _synthetic(np.concatenate([[1.0 + 1e-9],
                                      np.full(P_SYNTH - 1, 0.5)]))
    monkeypatch.setattr(solver, "certify", lambda *args, **kwargs: cert)
    path = tmp_path / "mesh"
    path.write_text(dump_mesh(crossed(1)))
    out = tmp_path / "report.json"
    assert cli.main(["analyze", "--mesh", str(path), "--out", str(out)]) == 4
    assert "exceeds the bound 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("angle", [0.0, 6.283185307179585])
def test_seminorm_cluster_of_ones_passes_the_bound(angle):
    """In the seminorm the gradients of the C1 quartic splines attain the
    bound: crossed-2 has a cluster of singular values 1 at the top, also
    turned by 2 pi, and the rank scale stays within roundoff of 1."""
    topo, reports, summary = _classified(rigid_motion(crossed(2),
                                                      angle=angle))
    cert = solver.certify(topo, reports, seminorm=True)
    # every singular value but the lifted ones
    s = scipy.linalg.svdvals(cert.factor)[cert.constraints.shape[1]:]
    assert np.sum(np.abs(s - 1.0) < 1e-14) > 1
    _assert_scale_bounds(cert.scale, s[0])
    rr = solver.divergence_rank(cert, TOL)
    assert rr.scale ** 2 <= solver.SCALE_BOUND


def _factor_with_spectrum(s, seed=0):
    """An upper triangular factor with the singular values s: the R of
    the QR of U diag(s) V^T for random orthogonal U and V."""
    rng = np.random.default_rng(seed)
    U = scipy.linalg.qr(rng.standard_normal((len(s), len(s))))[0]
    V = scipy.linalg.qr(rng.standard_normal((len(s), len(s))))[0]
    return scipy.linalg.qr((U * s) @ V.T, mode="r")[0]


# the constrained pressures of a synthetic certificate: 6T - 1 at T = 4
P_SYNTH = 23


def _synthetic_of(R):
    """The certificate of a square factor R alone (no modes)."""
    return synthetic_certificate(R)


def _synthetic(s, seed=0):
    return _synthetic_of(_factor_with_spectrum(np.asarray(s, dtype=float),
                                               seed))


def _spread(low, high, k, seed=1):
    return np.sort(np.random.default_rng(seed).uniform(low, high, k))[::-1]


def _count_lanczos_runs(monkeypatch):
    runs = []
    lanczos = solver._inverse_lanczos

    def counted(F, thr):
        s_min, Y = lanczos(F, thr)
        runs.append(Y.shape[1])
        return s_min, Y

    monkeypatch.setattr(solver, "_inverse_lanczos", counted)
    return runs


@pytest.mark.parametrize("zeros,gap_rel,lifting_runs", [
    ([0.0, 0.0, 0.0], 1e-12, 1),
    ([0.0, 3e-17, 1e-15], 1e-12, 1),
    # 1e-10 lies 1e12 below the Ritz values of the other two: a second
    # round lifts it.  Any method knows it only to eps * s_max absolute,
    # so the gap agrees to about 1e-6.
    ([1e-16, 1e-12, 1e-10], 1e-5, 2)])
def test_three_null_directions_are_lifted_and_repeated(monkeypatch, zeros,
                                                       gap_rel, lifting_runs):
    runs = _count_lanczos_runs(monkeypatch)
    cert = _synthetic(np.concatenate([_spread(0.3, 1.0, P_SYNTH - 3), zeros]))
    K, beta, gap = svd_oracle(cert, cert.scale)
    inertia_K = _inertia_K(cert)
    rr = solver.divergence_rank(cert, TOL)
    assert rr.K == K == inertia_K == 3 and rr.rank == P_SYNTH - 3
    assert rr.beta == pytest.approx(beta, rel=1e-12)
    assert rr.gap == pytest.approx(gap, rel=gap_rel)
    # one run per round of lifts, and a last run that lifts nothing
    assert sum(runs) == 3 and runs[-1] == 0
    assert len(runs) == lifting_runs + 1


def test_exact_zero_pivots_give_the_known_deficiency():
    """The factor of ``test_modes_of_a_factor_with_exact_zero_pivots``,
    three pivots exactly zero: K = 3 without a spectrum.  It is scaled by
    a power of two, exactly, to singular values at most 1, as those of a
    certificate are."""
    rng = np.random.default_rng(7)
    p = P_SYNTH
    R = np.triu(rng.standard_normal((p, p)))
    R[np.diag_indices(p)] = rng.uniform(1.0, 2.0, p)
    for j in (2, 7, 12):
        R[:j, j] = R[:j, :j] @ rng.standard_normal(j)
        R[j, j] = 0.0
    R *= 2.0 ** -np.ceil(np.log2(scipy.linalg.svdvals(R)[0]))
    cert = _synthetic_of(R)
    K, beta, _ = svd_oracle(cert)
    inertia_K = _inertia_K(cert)
    rr = solver.divergence_rank(cert, TOL)
    assert rr.K == K == inertia_K == 3
    assert rr.beta == pytest.approx(beta, rel=1e-12)


def test_straddling_spectrum_is_indeterminate():
    # 2e-9 accepted and 9e-10 rejected: ratio 2.2 across the threshold
    cert = _synthetic(np.concatenate([_spread(0.3, 1.0, P_SYNTH - 2),
                                      [2e-9, 9e-10]]))
    with pytest.raises(solver.RankIndeterminateError, match="straddle"):
        solver.divergence_rank(cert, TOL)


@pytest.mark.parametrize("small", [1e-8, 6e-7, 1e-6, 9e-6])
def test_beta_is_the_smallest_accepted_value_in_the_old_band(small):
    """A singular value between tol.rank (1e-9) and 1e-5 times s_max is
    accepted by the rank, so it is beta, in analyze and in infsup."""
    s = np.concatenate([_spread(0.3, 1.0, P_SYNTH - 1), [small]])
    cert = _synthetic(s)
    K_svd, beta_svd, _ = svd_oracle(cert)
    rr = solver.divergence_rank(cert, TOL)
    assert rr.K == K_svd == 0 and rr.rank == P_SYNTH
    assert solver.infsup_constant(rr) == pytest.approx(small, rel=1e-9)
    assert beta_svd == pytest.approx(small, rel=1e-9)


def test_analyze_and_infsup_accept_at_one_threshold(tmp_path, monkeypatch):
    """A singular value between tol.rank * scale and tol.rank * s_max: the
    rank scale of 40 spread singular values lies 0.3 % below s_max, and
    the small one 0.15 % below tol.rank * s_max.  The SVD at tol.rank *
    s_max rejects it; the rank accepts it, and analyze and infsup, which
    read the one rank, both make it beta with K = 0."""
    top = _spread(0.3, 1.0, 39)
    small = TOL.rank * top[0] * (1 - 1.5e-3)
    cert = _synthetic(np.concatenate([top, [small]]))
    s = scipy.linalg.svdvals(cert.factor)
    assert TOL.rank * cert.scale < s[-1] < TOL.rank * s[0]
    assert svd_oracle(cert)[0] == 1

    def fresh(*args, **kwargs):     # each rank consumes a factor of its own
        return dataclasses.replace(cert, factor=cert.factor.copy(order="F"))

    rr = solver.divergence_rank(fresh(), TOL)
    assert (rr.rank, rr.K) == (40, 0)
    assert solver.infsup_constant(rr) == pytest.approx(s[-1], rel=1e-12)
    monkeypatch.setattr(solver, "certify", fresh)
    path = tmp_path / "mesh"
    path.write_text(dump_mesh(crossed(1)))
    for command in ("analyze", "infsup"):
        out = tmp_path / f"{command}.json"
        assert cli.main([command, "--mesh", str(path), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        got = report.get("divergence", report)
        assert got["K"] == 0 and got.get("rank", 40) == 40
        assert got["beta"] == pytest.approx(s[-1], rel=1e-9)


def _crossed_shifted(dx, n=2):
    """crossed-n with the centre vertex of square (0, 0) moved by dx in
    x: it stops being singular (Theta(z) = 2 dx), and its patch gives one
    small but nonzero singular value."""
    mesh = crossed(n)
    v = mesh.vertices.copy()
    v[np.argmin(np.hypot(v[:, 0] - 0.5, v[:, 1] - 0.5)), 0] += dx
    return Triangulation(v, mesh.triangles)


@pytest.mark.parametrize("dx", [1e-5, 1e-6, 1e-8])
def test_shifted_crossed_centre_reports_its_small_beta(tmp_path, dx):
    path = tmp_path / "shifted.mesh"
    path.write_text(dump_mesh(_crossed_shifted(dx)))
    topo, reports, summary = _classified(_crossed_shifted(dx))
    cert = solver.certify(topo, reports)
    K, beta, _ = svd_oracle(cert)
    assert K == 0 and beta < 1e-4
    for command in ("analyze", "infsup"):
        out = tmp_path / f"{command}.json"
        assert cli.main([command, "--mesh", str(path), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        got = report["divergence"] if command == "analyze" else report
        assert got["beta"] == pytest.approx(beta, rel=1e-9)
        assert got["K"] == 0
        if command == "analyze":
            assert got["rank"] == 92


def _perturbed_shifted(dx):
    """perturbed-5 (seed 0) with its interior vertex 21, of valence 4,
    moved to the crossing of the lines through its opposite neighbours,
    where it is singular, and then by dx in x."""
    mesh = perturbed_grid(5, seed=0)
    fans = build_topology(mesh).fans
    a, b, c, d = mesh.vertices[fans.far[fans.corners(21)]]

    def cross(u, w):
        return u[0] * w[1] - u[1] * w[0]

    v = mesh.vertices.copy()
    v[21] = a + cross(b - a, d - b) / cross(c - a, d - b) * (c - a)
    v[21, 0] += dx
    return Triangulation(v, mesh.triangles)


# The shifted meshes by name (crossed-n by n), and the shifts at which
# each one gives exit 3: its band.  The perturbed vertex is NotLI at 1e-10
# and 2e-10 (K = 1 under the verdict none), SingularLI up to 1e-11.
SHIFTED_BANDS = {2: (2e-10, 3e-10, 1e-9), 4: (2e-10, 3e-10, 1e-9),
                 "perturbed-5-s0": (3e-10, 1e-9)}


@pytest.mark.parametrize("mesh", list(SHIFTED_BANDS))
@pytest.mark.parametrize("dx", [10.0 ** -e for e in range(12, 0, -1)]
                         + [2e-10, 3e-10])
def test_shifted_crossed_centre_is_consistent_or_exit_3(tmp_path, capsys,
                                                        mesh, dx):
    """Theta(z) between tol.singular and about tol.rank / 0.3 makes the
    shifted vertex not singular, yet rejects the singular value its patch
    gives: that is exit 3, naming the vertex, never a stable verdict with
    K > 0.  Elsewhere the report's K agrees with its verdict."""
    shifted = (_perturbed_shifted(dx) if mesh == "perturbed-5-s0"
               else _crossed_shifted(dx, mesh))
    path = tmp_path / "shifted.mesh"
    path.write_text(dump_mesh(shifted))
    out = tmp_path / "report.json"
    code = cli.main(["analyze", "--mesh", str(path), "--out", str(out)])
    if code == 3:
        err = capsys.readouterr().err
        assert "implies K = 0" in err and "smallest Theta(z)" in err, err
        # the patch's singular value lies well above the roundoff floor
        assert "rejects a singular value" in err, err
        assert not out.exists()
        return
    assert code == 0
    report = json.loads(out.read_text())
    if report["trees"]["verdict"] != "none":
        assert report["divergence"]["K"] == 0
    assert dx not in SHIFTED_BANDS[mesh]


REPORT_MESHES = (sorted(GOLDEN_MESHES) + sorted(MIXED)
                 + bench_pool("certify-dense") + bench_pool("verify-fields"))


@cache
def _report(name):
    return cli.analyze_mesh(_oracle_case(name), TOL)[0]


@pytest.mark.parametrize("name", REPORT_MESHES)
def test_a_stable_verdict_has_K_0(name):
    """The main theorem: every interior vertex local interpolating, or a
    complete disjoint tree cover, gives K = 0."""
    report = _report(name)
    if report["trees"]["verdict"] != "none":
        assert report["divergence"]["K"] == 0


@pytest.mark.parametrize("name", REPORT_MESHES)
def test_nullity_is_the_spline_dimension(name):
    """The DOF identity: n = 2 (V0 + 2 E0 + T) velocities, and the
    divergence-free ones, n - rank of them, number dim S4 = max(0, 2 E0 -
    E + 3 V0 + sigma + K)."""
    report = _report(name)
    mesh, div = report["mesh"], report["divergence"]
    assert div["velocity_dofs"] == 2 * (mesh["V0"] + 2 * mesh["E0"]
                                        + mesh["T"])
    assert div["nullity"] == report["spline"]["dim_s4"]


def test_straddle_is_exit_3(tmp_path, monkeypatch, capsys):
    cert = _synthetic(np.concatenate([_spread(0.3, 1.0, P_SYNTH - 2),
                                      [2e-9, 9e-10]]))
    monkeypatch.setattr(solver, "certify", lambda *args, **kwargs: cert)
    path = tmp_path / "mesh"
    path.write_text(dump_mesh(crossed(1)))
    out = tmp_path / "report.json"
    assert cli.main(["analyze", "--mesh", str(path), "--out", str(out)]) == 3
    assert "straddle" in capsys.readouterr().err and not out.exists()


@pytest.mark.parametrize("steps", [1, 2, 5])
def test_lanczos_step_cap_is_exit_3_never_K_0(tmp_path, monkeypatch, capsys,
                                               steps):
    monkeypatch.setattr(solver, "LANCZOS_STEPS", steps)
    path = tmp_path / "mesh"
    path.write_text(dump_mesh(crossed(2)))
    out = tmp_path / "report.json"
    assert cli.main(["analyze", "--mesh", str(path), "--out", str(out)]) == 3
    assert "did not converge" in capsys.readouterr().err
    assert not out.exists()
    topo, reports, summary = _classified(crossed(2))
    with pytest.raises(solver.RankIndeterminateError):
        solver.divergence_rank(solver.certify(topo, reports), TOL)
