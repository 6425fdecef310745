"""Forward layer: counter-based Brownian ensembles, Euler stepping of the
controlled state, and a path table of controls that switches regime.

The increments of path p come from a Philox stream keyed (seed, p), so the
ensemble is bit-reproducible and the first paths of a large run coincide
with a small run -- handy when growing a study without invalidating
earlier numbers.
"""

import numpy as np

from drgame import (TimeGrid, constant_controls, euler_forward, make_preset,
                    simulate_brownian)

grid = TimeGrid(0.0, 1.0, 50)
ens = simulate_brownian(grid, n_paths=50_000, d=1, seed=7)
print(f"increment mean {ens.dW.mean():+.2e} (theory 0), "
      f"variance {ens.dW.var():.6f} (theory dt = {grid.dt})")

small = simulate_brownian(grid, n_paths=8, d=1, seed=7)
print("first 8 paths identical to a fresh 8-path draw:",
      np.array_equal(small.dW, ens.dW[:8]))
print()

p = make_preset("uncertain-volatility", {"sigma_lo": 1.0, "sigma_hi": 2.0})
mu_hi = constant_controls(ens.n_paths, grid.n_steps, index=1)   # sigma = 2
nu = constant_controls(ens.n_paths, grid.n_steps)
states = euler_forward(p, ens, [0.0], mu_hi, nu)
print(f"sigma=2 regime: var X_T = {states.X[:, -1, 0].var():.4f} (theory 4.0)")

# switch half the paths to the low-volatility regime from t = 0.5
mu_mixed = np.array(mu_hi)  # a writable copy of the read-only view
mu_mixed[0::2, grid.index_of(0.5):] = 0
states2 = euler_forward(p, ens, [0.0], mu_mixed, nu)
switched = states2.X[0::2, -1, 0].var()
kept = states2.X[1::2, -1, 0].var()
print(f"after switching: switched paths var {switched:.3f} "
      f"(theory 4*0.5 + 1*0.5 = 2.5), untouched var {kept:.3f} (theory 4)")
