"""The weighted-SVD certificate: agreement with an independent computation
(singular values of the raw divergence matrix, generalized eigenproblem of
the pressure Schur complement), the properties of the spurious modes, the
single factorization behind an analysis, the checks that guard it, and
invariance under similarity over the double range."""

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


def _oracle(topo, reports, sigma, seminorm):
    """(rank, K, beta) computed the way the certificate does not: the rank
    from the singular values of the raw B, beta from the generalized
    eigenproblem S x = lambda G x of the Schur complement on N."""
    dm = solver.number_dofs(topo)
    B = solver.assemble_divergence(topo, dm)
    A, blocks = solver.assemble_norms(topo, dm, seminorm=seminorm)
    M = scipy.linalg.block_diag(*blocks)
    sv = scipy.linalg.svdvals(B)
    rank = int(np.sum(sv > TOL.rank * sv[0]))
    N = scipy.linalg.null_space(solver.pressure_constraints(topo, reports))
    BtN = B.T @ N
    S = BtN.T @ scipy.linalg.solve(A, BtN, assume_a="pos")
    eig = scipy.linalg.eigh(S, N.T @ M @ N, eigvals_only=True)
    beta = float(np.sqrt(eig[eig > 1e-10 * eig[-1]][0]))
    return rank, 6 * topo.T - 1 - sigma - rank, beta


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
    # without the modes: the same spectrum, no vectors
    values = solver.certify(topo, reports, seminorm=seminorm, modes=False)
    assert values.left is None and values.shape == cert.shape
    assert np.abs(values.singular_values - cert.singular_values).max() \
        < 1e-13


@pytest.mark.parametrize("name", ["type1-3", "three-lines-2"])
def test_modes_are_mass_orthonormal_and_pair_with_no_velocity(name):
    topo, reports, summary = _classified(GOLDEN_MESHES[name]())
    cert = solver.certify(topo, reports)
    rr = solver.divergence_rank(cert, topo, summary["sigma"], TOL)
    Q = np.column_stack(solver.spurious_modes(cert, rr))
    assert Q.shape == (6 * topo.T, rr.K) and rr.K >= 1
    dm = solver.number_dofs(topo)
    B = solver.assemble_divergence(topo, dm)
    _, blocks = solver.assemble_norms(topo, dm)
    M = scipy.linalg.block_diag(*blocks)
    assert np.abs(Q.T @ M @ Q - np.eye(rr.K)).max() < 1e-10
    assert np.abs(Q.T @ B).max() < 1e-12 * np.abs(B).max()
    C = solver.pressure_constraints(topo, reports)
    assert np.abs(C @ Q).max() < 1e-12 * np.abs(Q).max()


def test_analyze_takes_one_svd_and_one_null_space(monkeypatch):
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("svd", "svdvals", "null_space", "eigh", "eigvalsh",
                 "solve", "lstsq", "pinv"):
        monkeypatch.setattr(scipy.linalg, name,
                            counted(name, getattr(scipy.linalg, name)))
    report, modes = cli.analyze_mesh(type1_diagonal(3), TOL)
    assert report["divergence"]["K"] == len(modes) == 1
    assert calls["null_space"] == 1
    assert calls["svd"] + calls["svdvals"] == 1
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
    assert solver.constrained_basis(C).shape[1] == C.shape[1] - C.shape[0]
    with pytest.raises(solver.SolverError, match="linearly dependent"):
        solver.constrained_basis(np.vstack([C, C[-1]]))


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
