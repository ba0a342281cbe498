"""Simultaneous Pade approximation over prime fields.

Three independent solvers (direct order basis, Hermite-Pade duality with an
adjoint-row solve, divide-and-conquer row-space intersection) backed by
shifted minimal approximant bases over GF(p)[x], plus a brute-force
coefficient-space oracle for cross-checking.
"""

from .adjrow import AdjRowResult, adjoint_first_row, det_power_of_x, \
    lifted_vector_solve
from .appbasis import (ApproximantBasisResult, NegativePart, m_basis,
                       neg_min_basis, pm_basis, popov_basis)
from .ffpoly import (NEG_INF, Poly, PrimeField, is_prime, poly_divrem,
                     poly_mul, poly_substitute_shift)
from .oracle import SolutionSpace, oracle_solution_space, spec_matches_oracle
from .polymat import (PolyMatrix, cofactor_adjoint, determinant,
                      is_popov, is_row_reduced, mat_mul, popov_canonical,
                      row_space_membership, shifted_leading_matrix,
                      shifted_row_degrees)
from .solvers import (PreconditionError, ProblemInstance, SolutionSpec,
                      ValidationError, complete, direct_sim_pade,
                      duality_sim_pade, recursive_sim_pade,
                      validate_instance, verify_solution)

__all__ = [
    "AdjRowResult", "ApproximantBasisResult", "NEG_INF", "NegativePart",
    "Poly", "PolyMatrix", "PreconditionError",
    "PrimeField", "ProblemInstance", "SolutionSpace", "SolutionSpec",
    "ValidationError", "adjoint_first_row", "cofactor_adjoint", "complete",
    "det_power_of_x", "determinant", "direct_sim_pade", "duality_sim_pade",
    "is_popov", "is_prime", "is_row_reduced", "lifted_vector_solve",
    "m_basis", "mat_mul", "neg_min_basis", "oracle_solution_space",
    "pm_basis", "poly_divrem", "poly_mul", "poly_substitute_shift",
    "popov_basis", "popov_canonical", "recursive_sim_pade",
    "row_space_membership", "shifted_leading_matrix", "shifted_row_degrees",
    "spec_matches_oracle", "validate_instance", "verify_solution",
]

__version__ = "0.1.0"
