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

from . import model, paths, game, drbsde, pde, linalg
from .model import *
from .paths import *
from .game import *
from .drbsde import *
from .pde import *
from .linalg import *

__all__ = ["__version__", *model.__all__, *paths.__all__, *game.__all__,
           *drbsde.__all__, *pde.__all__, *linalg.__all__]
