"""Numerical toolkit for zero-sum stochastic differential games whose
payoffs are squeezed between two reflecting barriers.

Three independent routes to the same value are provided and meant to be
cross-validated against each other: backward solving of the doubly
reflected backward equation on lattices or simulated paths (``drbsde``),
backward sup-inf game induction on a controlled Markov chain (``game``),
and a monotone finite-difference sweep for the associated double-obstacle
Isaacs equation (``pde``).  ``model`` holds the problem catalog, ``paths``
the forward simulation layer, ``linalg`` the series square root for
symmetric positive definite matrices, and ``cli`` the batch entry point.
"""

__version__ = "0.1.0"

from .model import (ControlGrid, GameProblem, NumericsError, ProblemError,
                    ValidationReport, make_preset, preset_names,
                    validate_problem)
from .paths import (PathEnsemble, StatePaths, TimeGrid, constant_controls,
                    euler_forward, simulate_brownian)
from .game import (BinaryTree, CflError, DppReport, Lattice, OracleCase,
                   ValueSurface, build_lattice, dpp_check, dynkin_brute_force,
                   dynkin_oracle_corpus, enumerate_stopping_rules,
                   lattice_occupancy, value_backward_induction)
from .drbsde import (DrbsdeSolution, RegressionError, StabilityReport,
                     check_flat_off, compare_drbsde, solve_drbsde_lattice,
                     solve_drbsde_lsmc, stability_gap)
from .pde import (CrossCheckReport, RefinementStudy, ResidualReport,
                  cross_check, hamiltonian, isaacs_hamiltonian, make_pde_grid,
                  refinement_study, solve_obstacle_pde, viscosity_residual)
from .linalg import (SpdError, check_spd, random_spd, spd_sqrt_series,
                     sqrt_coefficient)

__all__ = [
    "__version__",
    "ControlGrid", "GameProblem", "NumericsError", "ProblemError",
    "ValidationReport", "make_preset", "preset_names", "validate_problem",
    "PathEnsemble", "StatePaths", "TimeGrid",
    "constant_controls", "euler_forward", "simulate_brownian",
    "BinaryTree", "CflError", "DppReport", "Lattice", "OracleCase",
    "ValueSurface", "build_lattice", "dpp_check", "dynkin_brute_force", "dynkin_oracle_corpus", "enumerate_stopping_rules",
    "lattice_occupancy", "value_backward_induction",
    "DrbsdeSolution", "RegressionError", "StabilityReport",
    "check_flat_off", "compare_drbsde", "solve_drbsde_lattice",
    "solve_drbsde_lsmc", "stability_gap",
    "CrossCheckReport", "RefinementStudy", "ResidualReport",
    "cross_check", "hamiltonian", "isaacs_hamiltonian", "make_pde_grid",
    "refinement_study", "solve_obstacle_pde", "viscosity_residual",
    "SpdError", "check_spd", "random_spd", "spd_sqrt_series", "sqrt_coefficient",
]
