"""The finite-difference route: double-obstacle Isaacs equation, residual
diagnostics, and the cross-validation against the lattice route.

On matching grids the central-difference update is the same affine map as
the three-point chain, so the two independently coded solvers agree to
rounding.  Volatility selection shows the nonlinearity doing its work:
convex payoffs ride the high-volatility regime, concave ones the low.
"""

import numpy as np

from drgame import (build_lattice, cross_check, make_preset, make_pde_grid,
                    solve_obstacle_pde, viscosity_residual,
                    value_backward_induction)

print("cross-check at x=0 on one lattice (identical affine updates):")
for name, steps, span, nodes in (
        ("dynkin-flat", 100, 4.0, 41),
        ("uncertain-volatility", 256, 6.0, 49),
        ("bsb-convex", 100, 4.0, 41),
        ("linear-quadratic", 256, 6.0, 49)):
    p = make_preset(name, {})
    lat = build_lattice(p, steps, -span, span, nodes)
    rep = cross_check(p, lat, "supinf", 0.0)
    print(f"  {name:22s} lattice {rep.lattice_root:+.8f}  "
          f"pde {rep.pde_root:+.8f}  rel gap {rep.rel_gap:.1e}")
print()

print("volatility selection, sigma in {1, 2}:")
dx = 0.05
n_steps = int(round(1.0 / (dx * dx / 4.0)))
nodes = int(round(16.0 / dx)) + 1
for h, closed_form in (("square", 4.0), ("neg-square", -1.0)):
    p = make_preset("uncertain-volatility", {"h": h})
    g = make_pde_grid(p, n_steps, -8.0, 8.0, nodes)
    w = solve_obstacle_pde(p, g, "supinf")
    print(f"  h = {h:10s} w(0,0) = {w.root(0.0):+.6f}  "
          f"(closed form {closed_form:+.1f})")
print()

print("interior equation residual under refinement (window |x| <= 2):")
p = make_preset("uncertain-volatility", {"h": "square"})
for dx, steps in ((0.2, 100), (0.1, 400), (0.05, 1600)):
    g = make_pde_grid(p, steps, -6.0, 6.0, int(round(12 / dx)) + 1)
    w = solve_obstacle_pde(p, g, "supinf")
    rep = viscosity_residual(p, g, w, "supinf")
    window = np.abs(rep.x_inner) <= 2.0
    print(f"  dx = {dx:5.2f}: max residual {np.max(np.abs(rep.field[:, window])):.2e}")
