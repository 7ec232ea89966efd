"""Divergence-stability toolkit for cubic Lagrange Stokes elements."""

__version__ = "0.1.0"


# The solver's errors, here so that the command line names them without
# importing the solver, and scipy.linalg with it.
class SolverError(Exception):
    """A numerical invariant of the certificate does not hold."""


class RankIndeterminateError(SolverError):
    """Singular-value spectrum has no clear gap at the rank threshold."""
