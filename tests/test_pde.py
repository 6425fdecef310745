import numpy as np
import pytest
from dataclasses import replace

from drgame import (CflError, ProblemError, build_lattice, cross_check,
                    hamiltonian, isaacs_hamiltonian, make_preset,
                    make_pde_grid, refinement_study, solve_drbsde_lattice,
                    solve_obstacle_pde, stability_gap, viscosity_residual,
                    value_backward_induction)
from drgame.game import _saddle
from drgame.model import ControlGrid, GameProblem
from drgame.pde import _hamiltonians, _layer_derivatives

BIG = 1e6


def scalar_problem(T=1.0, b0=0.0, sig=1.0, h=None, l_lo=None, l_hi=None,
                   f=None, gamma=None):
    h = h or (lambda x: x[..., 0])
    l_lo = l_lo or (lambda t, x: np.full(np.shape(x)[:-1], -BIG))
    l_hi = l_hi or (lambda t, x: np.full(np.shape(x)[:-1], BIG))
    f = f or (lambda t, x, y, z, u, v: np.zeros(np.shape(x)[:-1]))
    return GameProblem(
        state_dim=1, noise_dim=1, horizon=T,
        drift=lambda t, x, u, v: np.full_like(x, b0),
        diffusion=lambda t, x, u, v: np.full(np.shape(x)[:-1] + (1, 1), sig),
        generator=f, terminal=h, lower_obstacle=l_lo, upper_obstacle=l_hi,
        lipschitz=gamma or max(1.0, abs(b0) + sig), holder_q=2.0,
        u_grid=ControlGrid.singleton(), v_grid=ControlGrid.singleton())


class TestHamiltonian:
    def test_pure_diffusion_term(self):
        # sigma = u, b = f = 0: H = u^2 Gamma / 2
        p = make_preset("uncertain-volatility", {"sigma_lo": 1.0, "sigma_hi": 2.0})
        val = hamiltonian(p, 0.3, [0.5], 0.0, [0.0], [[2.0]], 1.0,
                          p.v_grid.point(0))
        assert abs(val - 1.0) < 1e-15

    def test_constant_generator_passthrough(self):
        p = scalar_problem(sig=0.0,
                           f=lambda t, x, y, z, u, v: np.full(np.shape(x)[:-1], 0.7))
        val = hamiltonian(p, 0.0, [0.0], 0.0, [0.0], [[0.0]], 0.0, 0.0)
        assert abs(val - 0.7) < 1e-15

    def test_three_term_sum(self):
        # b = 1, sigma = 1, f = 0, z = 3, Gamma = 4: H = 2 + 3 = 5
        p = scalar_problem(b0=1.0, sig=1.0)
        val = hamiltonian(p, 0.0, [0.0], 0.0, [3.0], [[4.0]], 0.0, 0.0)
        assert abs(val - 5.0) < 1e-14

    def test_dimension_mismatch_rejected(self):
        p = make_preset("linear-quadratic", {})
        with pytest.raises(ProblemError):
            hamiltonian(p, 0.0, [0.0, 1.0], 0.0, [0.0], [[0.0]], 0.0, 1.0)


class TestIsaacs:
    def test_singleton_grids_degenerate(self):
        p = scalar_problem(b0=0.5, sig=1.5)
        args = (0.2, [0.3], 1.0, [2.0], [[1.0]])
        direct = hamiltonian(p, *args, 0.0, 0.0)
        assert isaacs_hamiltonian(p, *args, "supinf") == direct
        assert isaacs_hamiltonian(p, *args, "infsup") == direct

    def test_two_point_maximisation(self):
        # sigma = u in {1, 2}, Gamma = 2: sup gives u=2: H = 4
        p = make_preset("uncertain-volatility", {"sigma_lo": 1.0, "sigma_hi": 2.0})
        val = isaacs_hamiltonian(p, 0.0, [0.0], 0.0, [0.0], [[2.0]], "supinf")
        assert abs(val - 4.0) < 1e-15

    def test_minimax_inequality(self):
        p = make_preset("linear-quadratic", {})
        rng = np.random.default_rng(4)
        for _ in range(20):
            args = (float(rng.uniform(0, 1)), [float(rng.uniform(-2, 2))],
                    float(rng.uniform(-1, 1)), [float(rng.uniform(-2, 2))],
                    [[float(rng.uniform(-2, 2))]])
            lo = isaacs_hamiltonian(p, *args, "supinf")
            hi = isaacs_hamiltonian(p, *args, "infsup")
            assert lo <= hi + 1e-12

    def test_pointwise_oracle_of_the_sweep_hamiltonians(self):
        # a generator that reads (y, z) on top of the preset's coupling term
        lq = make_preset("linear-quadratic", {"h": "square"})
        p = replace(lq, generator=lambda t, x, y, z, u, v: lq.generator(t, x, y, z, u, v)
                    - 0.5 * y + 0.3 * np.abs(z[..., 0]))
        g = build_lattice(p, 100, -4, 4, 41)
        surf = solve_obstacle_pde(p, g, "supinf")
        for j in (0, 37, 99):
            t, w = float(g.knots[j]), surf.W[j]
            d2, dc = _layer_derivatives(w, g.dx)
            table = _hamiltonians(p, t, g.x_nodes[:, None], w, d2, dc, *g.coefficients(t))
            for order in ("supinf", "infsup"):
                sweep = _saddle(table, order)
                for i in range(1, g.n_nodes - 1, 3):
                    ref = isaacs_hamiltonian(p, t, [g.x_nodes[i]], w[i], [dc[i]],
                                             [[d2[i]]], order)
                    # the same three terms summed in the same order
                    assert abs(sweep[i] - ref) <= 1e-13 * max(1.0, abs(ref)), (j, i, order)


class TestSolver:
    def test_heat_kernel_benchmark(self):
        p = scalar_problem(sig=np.sqrt(2.0), h=lambda x: x[..., 0] ** 2,
                           gamma=np.sqrt(2.0))
        dx = 0.05
        n_steps = int(round(1.0 / (dx * dx / 2.0)))
        g = make_pde_grid(p, n_steps, -6.0, 6.0, int(round(12 / dx)) + 1)
        w = solve_obstacle_pde(p, g, "supinf")
        assert abs(w.root(0.0) - 2.0) < 0.01 * 2.0

    def test_dynkin_flat_zero(self):
        p = make_preset("dynkin-flat", {})
        g = make_pde_grid(p, 100, -4, 4, 41)
        w = solve_obstacle_pde(p, g, "supinf")
        assert np.max(np.abs(w.W)) == 0.0

    def test_convex_volatility_selection_matches_single_sigma(self):
        p = make_preset("uncertain-volatility", {"h": "square"})
        single = scalar_problem(sig=2.0, h=lambda x: x[..., 0] ** 2, gamma=2.0)
        dx = 0.1
        n_steps = int(round(1.0 / (dx * dx / 4.0)))
        g = make_pde_grid(p, n_steps, -8.0, 8.0, int(round(16 / dx)) + 1)
        w_game = solve_obstacle_pde(p, g, "supinf")
        g2 = make_pde_grid(single, n_steps, -8.0, 8.0, int(round(16 / dx)) + 1)
        w_single = solve_obstacle_pde(single, g2, "supinf")
        assert abs(w_game.root(0.0) - w_single.root(0.0)) < 0.01 * abs(w_single.root(0.0))

    def test_cfl_guard(self):
        p = make_preset("dynkin-flat", {})
        with pytest.raises(CflError, match="CFL"):
            make_pde_grid(p, 10, -2, 2, 41)

    def test_obstacle_sandwich(self):
        p = make_preset("dynkin-flat", {"l_lo": -0.3, "l_hi": 0.4, "h": 0.05})
        g = make_pde_grid(p, 100, -4, 4, 41)
        w = solve_obstacle_pde(p, g, "supinf")
        assert np.all(w.W >= -0.3) and np.all(w.W <= 0.4)

    def test_terminal_outside_the_obstacles_is_rejected(self):
        p = scalar_problem(l_lo=lambda t, x: np.full(np.shape(x)[:-1], -1.0))
        g = make_pde_grid(p, 50, -2.0, 2.0, 21)  # h = x reaches -2 < l_lo
        with pytest.raises(ProblemError, match="terminal layer"):
            solve_obstacle_pde(p, g, "supinf")

    def test_order_inequality(self):
        p = make_preset("linear-quadratic", {})
        g = make_pde_grid(p, 400, -6, 6, 121)
        lo = solve_obstacle_pde(p, g, "supinf")
        hi = solve_obstacle_pde(p, g, "infsup")
        assert np.max(lo.W - hi.W) <= 0.0

    def test_refinement_convergence(self):
        p = replace(make_preset("uncertain-volatility", {}),
                    terminal=lambda x: np.cos(x[..., 0]))
        g = build_lattice(p, 100, -10.0, 10.0, 101)
        w = solve_obstacle_pde(p, g, "supinf")
        study = refinement_study(p, g, w, "supinf", 0.0, levels=3)
        assert study.roots[0] == w.root(0.0)
        assert study.resolutions == ["100x101", "400x201", "1600x401"]
        d1, d2 = study.diffs
        assert d2 <= d1 / 2.0
        lines = study.to_csv().strip().split("\n")
        assert lines[0] == "resolution,root_value,diff"
        assert len(lines) == 4

    def test_refinement_rejects_a_root_off_the_grid_or_surface(self):
        p = make_preset("uncertain-volatility", {})
        g = build_lattice(p, 100, -4.0, 4.0, 41)
        w = solve_obstacle_pde(p, g, "supinf")
        for x0 in (100.0, -4.5):
            with pytest.raises(ProblemError, match="outside the grid"):
                refinement_study(p, g, w, "supinf", x0, levels=2)
        other = solve_obstacle_pde(p, build_lattice(p, 100, -4.0, 4.0, 21), "supinf")
        with pytest.raises(ProblemError, match="surface does not live on the given grid"):
            refinement_study(p, g, other, "supinf", 0.0, levels=2)


class TestGridProblem:
    """The grid routes step on the drift and diffusion of the problem their
    grid was built for; the solver's problem supplies f, h and the obstacles."""

    def test_coefficients_come_from_the_grid_problem(self):
        p = make_preset("linear-quadratic", {})
        g = make_pde_grid(p, 100, -4, 4, 41)
        q = replace(p, diffusion=lambda t, x, u, v: 10.0 * p.diffusion(t, x, u, v))
        with pytest.raises(CflError):
            make_pde_grid(q, 100, -4, 4, 41)
        for order in ("supinf", "infsup"):
            w = solve_obstacle_pde(p, g, order)
            assert np.array_equal(solve_obstacle_pde(q, g, order).W, w.W)
            assert np.array_equal(viscosity_residual(q, g, w, order).field,
                                  viscosity_residual(p, g, w, order).field)
            assert np.array_equal(value_backward_induction(q, g, order).W,
                                  value_backward_induction(p, g, order).W)

    def test_different_control_grid_is_rejected(self):
        # the stencil steps with the grid problem's points and the generator
        # reads the solver's, so every table index must name the same point
        p = make_preset("linear-quadratic", {})
        g = make_pde_grid(p, 100, -4, 4, 41)
        w = solve_obstacle_pde(p, g, "supinf")
        sol = solve_drbsde_lattice(p, g)
        consumers = (lambda q: value_backward_induction(q, g, "supinf"),
                     lambda q: solve_obstacle_pde(q, g, "supinf"),
                     lambda q: viscosity_residual(q, g, w, "supinf"),
                     lambda q: solve_drbsde_lattice(q, g, mu=0),
                     lambda q: stability_gap(g, q, sol, p, sol, root_index=20),
                     lambda q: stability_gap(g, p, sol, q, sol, root_index=20))
        others = [replace(p, u_grid=ControlGrid(points=(1.0,))),  # fewer points
                  replace(p, u_grid=ControlGrid(points=(-1.0, 0.0, 1.0))),
                  replace(p, u_grid=ControlGrid(points=(-2.0, 2.0))),  # same size
                  replace(p, v_grid=ControlGrid(points=p.v_grid.points[::-1]))]
        for q in others:
            for solve in consumers:
                with pytest.raises(ProblemError, match="different control grid"):
                    solve(q)
        for solve in consumers:
            solve(replace(p, u_grid=ControlGrid(points=(-1, 1))))  # equal by value

    def test_array_valued_control_points_compare_by_value(self):
        a = replace(scalar_problem(), u_grid=ControlGrid(
            points=(np.array([0.0, 1.0]), np.array([1.0, 0.0]))))
        g = build_lattice(a, 50, -3, 3, 31)
        same = replace(a, u_grid=ControlGrid(points=tuple(u.copy() for u in a.u_grid.points)))
        assert np.array_equal(value_backward_induction(same, g, "supinf").W,
                              value_backward_induction(a, g, "supinf").W)
        moved = replace(a, u_grid=ControlGrid(points=(np.array([0.0, 1.0]),
                                                      np.array([1.0, 1.0]))))
        with pytest.raises(ProblemError, match="different control grid"):
            solve_drbsde_lattice(moved, g)


class TestResidual:
    def test_flat_solution_zero_residual(self):
        p = make_preset("dynkin-flat", {})
        g = make_pde_grid(p, 100, -4, 4, 41)
        w = solve_obstacle_pde(p, g, "supinf")
        rep = viscosity_residual(p, g, w, "supinf")
        assert rep.max_abs == 0.0

    def test_consistency_order_under_refinement(self):
        # the trusted window keeps 4 sigma sqrt(T) clear of the fold boundary,
        # where the continuum equation has no counterpart
        p = scalar_problem(sig=np.sqrt(2.0), h=lambda x: x[..., 0] ** 2,
                           gamma=np.sqrt(2.0))
        maxima = []
        for dx, steps in ((0.2, 50), (0.1, 200), (0.05, 800)):
            g = make_pde_grid(p, steps, -6, 6, int(round(12 / dx)) + 1)
            w = solve_obstacle_pde(p, g, "supinf")
            rep = viscosity_residual(p, g, w, "supinf")
            window = np.abs(rep.x_inner) <= 2.0
            maxima.append(float(np.max(np.abs(rep.field[:, window]))))
        assert maxima[1] < maxima[0] and maxima[2] < maxima[1]
        assert maxima[2] < 0.05

    def test_bump_dominates_residual(self):
        p = make_preset("dynkin-flat", {"l_lo": -50.0, "l_hi": 50.0})
        g = make_pde_grid(p, 100, -4, 4, 41)
        w = solve_obstacle_pde(p, g, "supinf")
        delta = 0.5
        j, i = 50, 20
        w.W[j, i] += delta
        rep = viscosity_residual(p, g, w, "supinf")
        # the forward time difference feels the bump as delta / dt
        assert rep.field[j, i - 1] >= 0.5 * delta / g.grid.dt


class TestCrossCheck:
    def test_matching_grids_on_presets(self):
        cases = [
            ("dynkin-flat", {}, 100, (-4.0, 4.0), 41),
            ("uncertain-volatility", {}, 256, (-6.0, 6.0), 49),
            ("bsb-convex", {}, 100, (-4.0, 4.0), 41),
            ("linear-quadratic", {}, 256, (-6.0, 6.0), 49),
        ]
        for name, params, steps, (lo, hi), nodes in cases:
            p = make_preset(name, params)
            lat = build_lattice(p, steps, lo, hi, nodes)
            g = make_pde_grid(p, steps, lo, hi, nodes)
            rep = cross_check(p, lat, g, "supinf", 0.0)
            assert rep.rel_gap <= 1e-10, f"{name}: {rep}"

    def test_flat_game_roots_are_zero(self):
        p = make_preset("dynkin-flat", {})
        lat = build_lattice(p, 100, -4, 4, 41)
        g = make_pde_grid(p, 100, -4, 4, 41)
        rep = cross_check(p, lat, g, "supinf", 0.0)
        assert rep.lattice_root == 0.0 and rep.pde_root == 0.0

    def test_lattice_at_double_resolution(self):
        p = replace(make_preset("uncertain-volatility", {}),
                    terminal=lambda x: np.cos(x[..., 0]))
        lat = build_lattice(p, 1024, -6, 6, 97)
        g = make_pde_grid(p, 256, -6, 6, 49)
        rep = cross_check(p, lat, g, "supinf", 0.0)
        assert rep.rel_gap < 5e-3  # scheme-consistency level, not identity

    def test_domain_mismatch_rejected(self):
        p = make_preset("dynkin-flat", {})
        lat = build_lattice(p, 100, -4, 4, 41)
        g = make_pde_grid(p, 100, -3, 3, 31)
        with pytest.raises(ProblemError):
            cross_check(p, lat, g, "supinf", 0.0)
