import tracemalloc

import numpy as np
import pytest

from dataclasses import replace

from drgame import (ProblemError, RegressionError, TimeGrid,
                    build_lattice, check_flat_off, compare_drbsde,
                    constant_controls, euler_forward, make_preset,
                    simulate_brownian, solve_drbsde_lattice, solve_drbsde_lsmc,
                    stability_gap)
from drgame.drbsde import _basis_matrix, _fit
from drgame.model import ControlGrid, GameProblem

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


def simulate(p, n_paths, n_steps, seed, x0=0.0):
    grid = TimeGrid(0.0, p.horizon, n_steps)
    ens = simulate_brownian(grid, n_paths, p.noise_dim, seed)
    mu = constant_controls(n_paths, n_steps)
    nu = constant_controls(n_paths, n_steps)
    st = euler_forward(p, ens, [x0], mu, nu)
    return st, mu, nu


class TestLatticeSolver:
    def test_martingale_case(self):
        # f = 0, inactive obstacles, h(x) = x on a driftless chain: Y = x, K = 0
        p = scalar_problem(T=0.09)
        lat = build_lattice(p, 9, -2, 2, 41)  # walk cone stays interior
        sol = solve_drbsde_lattice(p, lat)
        center = 20
        assert abs(sol.Y[0, center]) <= 1e-14
        assert np.all(sol.K_lo == 0.0) and np.all(sol.K_hi == 0.0)

    def test_dynkin_flat_zero_everywhere(self):
        p = make_preset("dynkin-flat", {})
        lat = build_lattice(p, 100, -4, 4, 41)
        sol = solve_drbsde_lattice(p, lat)
        assert np.max(np.abs(sol.Y)) == 0.0

    def test_two_step_binomial_matches_stopping_oracle(self):
        from drgame import BinaryTree, dynkin_brute_force
        p = scalar_problem(T=0.4, sig=1.0 / np.sqrt(0.2),
                           l_lo=lambda t, x: x[..., 0] - 0.5, gamma=3.0)
        lat = build_lattice(p, 2, -4, 4, 9)
        sol = solve_drbsde_lattice(p, lat)
        tree = BinaryTree(grid=lat.grid, x0=0.0, dx=1.0)
        bf = dynkin_brute_force(tree, p.lower_obstacle, p.upper_obstacle,
                                p.terminal)
        assert abs(sol.Y[0, 4] - bf) <= 1e-12

    def test_terminal_obstacle_violation_detected(self):
        p = scalar_problem(h=lambda x: np.full(np.shape(x)[:-1], 5.0),
                           l_hi=lambda t, x: np.full(np.shape(x)[:-1], 1.0))
        lat = build_lattice(p, 25, -2, 2, 21)
        with pytest.raises(ProblemError, match="terminal"):
            solve_drbsde_lattice(p, lat)

    def test_k_cumulative_nondecreasing_from_zero(self):
        p = scalar_problem(b0=-0.5, l_lo=lambda t, x: x[..., 0] - 0.3)
        lat = build_lattice(p, 100, -4, 4, 41)
        sol = solve_drbsde_lattice(p, lat)
        assert np.all(sol.K_lo[0] == 0.0) and np.all(sol.K_hi[0] == 0.0)
        assert np.min(np.diff(sol.K_lo, axis=0)) >= 0.0
        assert sol.K_lo[-1].max() > 0.0  # the drift makes the barrier bind

    def test_z_field_is_the_stencil_gradient_moment(self):
        # one step from a quadratic terminal layer with b = 0 the dW-moment
        # collapses to sigma * central difference: Z = 2 sigma x exactly
        sig = 1.3
        p = scalar_problem(sig=sig, h=lambda x: x[..., 0] ** 2, gamma=2.0)
        lat = build_lattice(p, 200, -4, 4, 41)
        sol = solve_drbsde_lattice(p, lat)
        x = lat.x_nodes[1:-1]
        assert np.max(np.abs(sol.Z[-2, 1:-1, 0] - 2.0 * sig * x)) < 1e-12

    def test_node_control_table_matches_frozen_fast_path(self):
        p = make_preset("uncertain-volatility", {"h": "square"})
        lat = build_lattice(p, 256, -6, 6, 49)
        frozen = solve_drbsde_lattice(p, lat, mu=1, nu=0)
        table = np.full((256, 49), 1, dtype=np.int64)
        tabled = solve_drbsde_lattice(p, lat, mu=table, nu=0)
        assert np.array_equal(frozen.Y, tabled.Y)

    def test_fractional_node_controls_are_rejected(self):
        p = make_preset("uncertain-volatility", {"h": "square"})
        lat = build_lattice(p, 64, -6, 6, 25)
        with pytest.raises(ProblemError, match="mu control indices must be integers"):
            solve_drbsde_lattice(p, lat, mu=0.9)
        with pytest.raises(ProblemError, match="nu control indices must be integers"):
            solve_drbsde_lattice(p, lat, nu=np.zeros((64, 25)))

    def test_mixed_node_controls_sit_between_frozen_regimes(self):
        p = make_preset("uncertain-volatility", {"h": "square"})
        lat = build_lattice(p, 256, -6, 6, 49)
        low = solve_drbsde_lattice(p, lat, mu=0)
        high = solve_drbsde_lattice(p, lat, mu=1)
        mixed_tab = np.zeros((256, 49), dtype=np.int64)
        mixed_tab[:, 24:] = 1  # high volatility on the right half only
        mixed = solve_drbsde_lattice(p, lat, mu=mixed_tab)
        # convex data: value is monotone in the volatility assignment away
        # from the folded edges (the fold reverses the effect there)
        win = np.abs(lat.x_nodes) <= 3.0
        assert np.all(mixed.Y[:, win] >= low.Y[:, win] - 1e-12)
        assert np.all(mixed.Y[:, win] <= high.Y[:, win] + 1e-12)

    def test_obstacle_sandwich_everywhere(self):
        p = make_preset("dynkin-flat", {"l_lo": -0.2, "l_hi": 0.25, "h": 0.0})
        lat = build_lattice(p, 100, -4, 4, 41)
        sol = solve_drbsde_lattice(p, lat)
        knots = lat.grid.knots
        xb = lat.x_nodes[:, None]
        for j in range(sol.Y.shape[0]):
            lo = p.lower_obstacle(float(knots[j]), xb)
            hi = p.upper_obstacle(float(knots[j]), xb)
            assert np.all(sol.Y[j] >= lo) and np.all(sol.Y[j] <= hi)


class TestFlatOff:
    def test_lattice_residuals_vanish(self):
        p = scalar_problem(b0=-0.5, l_lo=lambda t, x: x[..., 0] - 0.3)
        lat = build_lattice(p, 100, -4, 4, 41)
        sol = solve_drbsde_lattice(p, lat)
        res_lo, res_hi = check_flat_off(sol, p, lat)
        assert res_lo == 0.0 and res_hi == 0.0

    def test_inactive_obstacles_give_zero_k(self):
        p = scalar_problem()
        lat = build_lattice(p, 25, -3, 3, 31)
        sol = solve_drbsde_lattice(p, lat)
        assert check_flat_off(sol, p, lat) == (0.0, 0.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("pushing", [None, "lo", "hi"])
    def test_infinite_obstacles_that_never_push_give_zero(self, pushing):
        # an infinite side beside a finite one that pushes (mirrored for hi)
        sign = -1.0 if pushing == "hi" else 1.0
        lo = lambda t, x: np.full(np.shape(x)[:-1], -np.inf)
        hi = lambda t, x: np.full(np.shape(x)[:-1], np.inf)
        barrier = lambda t, x: sign * (x[..., 0] - 0.3)
        p = scalar_problem(b0=-0.5, h=lambda x: sign * x[..., 0],
                           l_lo=barrier if pushing == "lo" else lo,
                           l_hi=barrier if pushing == "hi" else hi)
        lat = build_lattice(p, 25, -3, 3, 31)
        sol = solve_drbsde_lattice(p, lat)
        for side in ("lo", "hi"):
            assert (getattr(sol, f"K_{side}")[-1].max() > 0.0) == (side == pushing)
        assert check_flat_off(sol, p, lat) == (0.0, 0.0)

    @pytest.mark.parametrize("side", ["lo", "hi"])
    def test_corrupted_solution_is_flagged(self, side):
        # the upper case mirrors Y, its terminal data and its barrier
        sign = 1.0 if side == "lo" else -1.0
        p = scalar_problem(b0=-0.5, h=lambda x: sign * x[..., 0],
                           **{f"l_{side}": lambda t, x: sign * (x[..., 0] - 0.3)})
        lat = build_lattice(p, 100, -4, 4, 41)
        sol = solve_drbsde_lattice(p, lat)
        dk = np.diff(getattr(sol, f"K_{side}"), axis=0)
        j, i = np.unravel_index(np.argmax(dk), dk.shape)
        assert dk[j, i] > 0.0
        sol.Y[j, i] += 0.1
        res = check_flat_off(sol, p, lat)[side == "hi"]
        assert res >= 0.1 * dk[j, i] - 1e-15


class TestComparison:
    def test_identical_inputs(self):
        p = make_preset("dynkin-flat", {})
        lat = build_lattice(p, 50, -3, 3, 31)
        sol = solve_drbsde_lattice(p, lat)
        rep = compare_drbsde(sol, sol)
        assert rep.max_violation == 0.0

    def test_shifted_terminal_orders_everywhere(self):
        base = scalar_problem(h=lambda x: np.sin(x[..., 0]),
                              l_lo=lambda t, x: np.full(np.shape(x)[:-1], -2.0),
                              l_hi=lambda t, x: np.full(np.shape(x)[:-1], 2.0))
        lifted = scalar_problem(h=lambda x: np.sin(x[..., 0]) + 1.0,
                                l_lo=lambda t, x: np.full(np.shape(x)[:-1], -2.0),
                                l_hi=lambda t, x: np.full(np.shape(x)[:-1], 3.0))
        lat = build_lattice(base, 100, -4, 4, 41)
        s1 = solve_drbsde_lattice(base, lat)
        s2 = solve_drbsde_lattice(lifted, lat)
        rep = compare_drbsde(s1, s2)
        assert rep.max_violation == 0.0
        assert np.all(s2.Y >= s1.Y)

    def test_constant_generator_offset_integrates_exactly(self):
        # f2 = f1 + 0.5 with inactive obstacles: Y2 - Y1 = 0.5 (T - t)
        f1 = lambda t, x, y, z, u, v: np.zeros(np.shape(x)[:-1])
        f2 = lambda t, x, y, z, u, v: np.full(np.shape(x)[:-1], 0.5)
        p1 = scalar_problem(f=f1)
        p2 = scalar_problem(f=f2)
        lat = build_lattice(p1, 100, -4, 4, 41)
        s1 = solve_drbsde_lattice(p1, lat)
        s2 = solve_drbsde_lattice(p2, lat)
        T = 1.0
        knots = lat.grid.knots
        for j in (0, 50, 100):
            expect = 0.5 * (T - knots[j])
            assert np.max(np.abs((s2.Y[j] - s1.Y[j]) - expect)) < 1e-12

    def test_grid_mismatch_rejected(self):
        p = make_preset("dynkin-flat", {})
        s1 = solve_drbsde_lattice(p, build_lattice(p, 50, -3, 3, 31))
        s2 = solve_drbsde_lattice(p, build_lattice(p, 25, -3, 3, 31))
        with pytest.raises(ProblemError):
            compare_drbsde(s1, s2)

    def test_randomized_ordered_pairs_never_violate(self):
        rng = np.random.default_rng(17)
        for _ in range(12):
            b0 = float(rng.uniform(-0.4, 0.4))
            sig = float(rng.uniform(0.6, 1.4))
            c_y = float(rng.uniform(0.0, 0.5))
            d_xi = float(rng.uniform(0.0, 0.5))
            d_f = float(rng.uniform(0.0, 0.5))
            d_lo = float(rng.uniform(0.0, 0.3))
            d_hi = float(rng.uniform(0.0, 0.3))

            def mk(shift_h, shift_f, shift_lo, shift_hi):
                return scalar_problem(
                    b0=b0, sig=sig,
                    h=lambda x: np.sin(x[..., 0]) + shift_h,
                    l_lo=lambda t, x: np.full(np.shape(x)[:-1], -2.0 + shift_lo),
                    l_hi=lambda t, x: np.full(np.shape(x)[:-1], 2.0 + shift_hi),
                    f=lambda t, x, y, z, u, v: c_y * y + 0.2 * np.cos(x[..., 0]) + shift_f,
                    gamma=2.0)

            p1 = mk(0.0, 0.0, 0.0, 0.0)
            p2 = mk(d_xi, d_f, d_lo, d_hi)
            lat = build_lattice(p1, 100, -4, 4, 41)
            rep = compare_drbsde(solve_drbsde_lattice(p1, lat),
                                 solve_drbsde_lattice(p2, lat))
            assert rep.max_violation == 0.0


class TestStability:
    def test_zero_perturbation(self):
        p = make_preset("dynkin-flat", {})
        lat = build_lattice(p, 50, -3, 3, 31)
        sol = solve_drbsde_lattice(p, lat)
        rep = stability_gap(lat, p, sol, p, sol, varpi=2.0, root_index=15)
        assert rep.gap == 0.0 and rep.driver == 0.0

    def test_root_index_has_no_default(self):
        p = make_preset("dynkin-flat", {})
        lat = build_lattice(p, 50, -3, 3, 31)
        sol = solve_drbsde_lattice(p, lat)
        with pytest.raises(TypeError, match="root_index"):
            stability_gap(lat, p, sol, p, sol, varpi=2.0)

    def test_root_index_outside_the_nodes_is_rejected(self):
        p = make_preset("dynkin-flat", {})
        lat = build_lattice(p, 50, -3, 3, 31)
        sol = solve_drbsde_lattice(p, lat)
        for root in (-1, 31):
            with pytest.raises(ProblemError, match="root_index"):
                stability_gap(lat, p, sol, p, sol, varpi=2.0, root_index=root)

    def test_root_at_a_point_off_the_solution_is_rejected(self):
        p = make_preset("dynkin-flat", {})
        sol = solve_drbsde_lattice(p, build_lattice(p, 50, -3, 3, 31))
        assert sol.root_at(30) == sol.Y[0, 30]
        for index in (-1, 31, 2.0):
            with pytest.raises(ProblemError, match="index must be an index in"):
                sol.root_at(index)

    def test_uniform_terminal_shift_is_exact(self):
        eps = 0.25
        p1 = scalar_problem(h=lambda x: np.cos(x[..., 0]))
        p2 = scalar_problem(h=lambda x: np.cos(x[..., 0]) + eps)
        lat = build_lattice(p1, 50, -4, 4, 41)
        s1 = solve_drbsde_lattice(p1, lat)
        s2 = solve_drbsde_lattice(p2, lat)
        rep = stability_gap(lat, p1, s1, p2, s2, varpi=2.0, root_index=20)
        assert abs(rep.gap - eps ** 2) < 1e-12
        assert abs(rep.driver - eps ** 2) < 1e-12

    def test_clamping_contracts_the_gap(self):
        eps = 0.2
        p1 = make_preset("dynkin-flat", {"h": 0.0})
        p2 = make_preset("dynkin-flat", {"h": eps})
        lat = build_lattice(p1, 50, -3, 3, 31)
        s1 = solve_drbsde_lattice(p1, lat)
        s2 = solve_drbsde_lattice(p2, lat)
        rep = stability_gap(lat, p1, s1, p2, s2, varpi=2.0, root_index=15)
        assert rep.gap <= eps ** 2 + 1e-15
        assert abs(rep.driver - eps ** 2) < 1e-12

    def test_one_lipschitz_terminal_stability(self):
        # sup|Y1 - Y2| <= (1 + gamma dt)^N * delta for a terminal sup-shift
        delta = 0.3
        c_y = 0.5
        f = lambda t, x, y, z, u, v: c_y * y
        p1 = scalar_problem(h=lambda x: np.sin(x[..., 0]), f=f, gamma=1.0)
        p2 = scalar_problem(h=lambda x: np.sin(x[..., 0]) + delta, f=f, gamma=1.0)
        lat = build_lattice(p1, 100, -4, 4, 41)
        s1 = solve_drbsde_lattice(p1, lat)
        s2 = solve_drbsde_lattice(p2, lat)
        bound = (1.0 + p1.lipschitz * lat.grid.dt) ** 100 * delta
        assert np.max(np.abs(s1.Y - s2.Y)) <= bound + 1e-12

    def test_node_control_tables_follow_the_table_rule(self):
        # a constant table gives the frozen figures; mixed tables run
        p1 = make_preset("linear-quadratic", {})
        p2 = make_preset("linear-quadratic", {"c_x": 0.7})
        lat = build_lattice(p1, 64, -4, 4, 21)
        table = np.ones((64, 21), dtype=np.int64)
        frozen = stability_gap(lat, p1, solve_drbsde_lattice(p1, lat, mu=1),
                               p2, solve_drbsde_lattice(p2, lat, mu=1), mu=1,
                               root_index=10)
        tabled = stability_gap(lat, p1, solve_drbsde_lattice(p1, lat, mu=table),
                               p2, solve_drbsde_lattice(p2, lat, mu=table), mu=table,
                               root_index=10)
        assert (tabled.gap, tabled.driver) == (frozen.gap, frozen.driver) > (0.0, 0.0)
        table[:, 10:] = 0
        s1, s2 = (solve_drbsde_lattice(q, lat, mu=table, nu=table) for q in (p1, p2))
        assert stability_gap(lat, p1, s1, p2, s2, mu=table, nu=table,
                             root_index=10).driver > 0.0
        with pytest.raises(ProblemError, match="mu control indices must be integers"):
            stability_gap(lat, p1, s1, p2, s2, mu=0.5, root_index=10)

    def test_varpi_range_enforced(self):
        p = make_preset("dynkin-flat", {})
        lat = build_lattice(p, 50, -3, 3, 31)
        sol = solve_drbsde_lattice(p, lat)
        with pytest.raises(ProblemError):
            stability_gap(lat, p, sol, p, sol, varpi=3.0, root_index=15)

    def test_obstacles_must_match(self):
        p1 = make_preset("dynkin-flat", {"l_lo": -1.0})
        p2 = make_preset("dynkin-flat", {"l_lo": -0.5})
        lat = build_lattice(p1, 50, -3, 3, 31)
        s1 = solve_drbsde_lattice(p1, lat)
        s2 = solve_drbsde_lattice(p2, lat)
        with pytest.raises(ProblemError, match="identical obstacles"):
            stability_gap(lat, p1, s1, p2, s2, varpi=2.0, root_index=15)


class TestLsmc:
    def test_martingale_root_near_zero(self):
        p = scalar_problem()
        st, mu, nu = simulate(p, 20_000, 25, seed=21)
        sol = solve_drbsde_lsmc(p, st, mu, nu)
        assert abs(sol.root) <= 3.0 * sol.se_root + 1e-12

    def test_linear_generator_reproduces_discrete_recursion(self):
        rho = 0.5
        N = 40
        p = scalar_problem(h=lambda x: np.full(np.shape(x)[:-1], 1.0),
                           f=lambda t, x, y, z, u, v: -rho * y, gamma=1.0)
        st, mu, nu = simulate(p, 5_000, N, seed=22)
        sol = solve_drbsde_lsmc(p, st, mu, nu)
        exact = (1.0 - rho * st.grid.dt) ** N
        assert abs(sol.root - exact) <= 3.0 * sol.se_root + 1e-10

    def test_dynkin_flat_root(self):
        p = make_preset("dynkin-flat", {})
        st, mu, nu = simulate(p, 5_000, 25, seed=23)
        sol = solve_drbsde_lsmc(p, st, mu, nu)
        assert abs(sol.root) <= 3.0 * sol.se_root + 1e-12

    def test_flat_off_residuals_vanish_along_paths(self):
        p = scalar_problem(b0=-0.5, l_lo=lambda t, x: x[..., 0] - 0.3)
        st, mu, nu = simulate(p, 4_000, 25, seed=24)
        sol = solve_drbsde_lsmc(p, st, mu, nu)
        assert sol.K_lo[-1].max() > 0.0
        assert check_flat_off(sol, p, st) == (0.0, 0.0)

    @pytest.mark.parametrize("degree", [3, 5])
    def test_each_obstacle_is_evaluated_once_per_step(self, degree):
        calls = {"lo": 0, "hi": 0}

        def l_lo(t, x):
            calls["lo"] += 1
            return x[..., 0] - 0.3

        def l_hi(t, x):
            calls["hi"] += 1
            return np.full(np.shape(x)[:-1], BIG)

        p = scalar_problem(b0=-0.5, l_lo=l_lo, l_hi=l_hi)
        st, mu, nu = simulate(p, 2_000, 15, seed=24)
        calls.update(lo=0, hi=0)
        sol = solve_drbsde_lsmc(p, st, mu, nu, degree, se_batches=4)
        # one sweep: the root lane and the SE batch lane share each step's
        # obstacle values, plus one evaluation for the terminal check
        assert calls == {"lo": 15 + 1, "hi": 15 + 1}
        assert sol.K_lo[-1].max() > 0.0
        assert check_flat_off(sol, p, st) == (0.0, 0.0)

    def test_an_infinite_obstacle_gives_a_non_finite_design(self):
        # the obstacles are regressors, so LSMC cannot take an infinite one
        p = scalar_problem(l_hi=lambda t, x: np.full(np.shape(x)[:-1], np.inf))
        st, mu, nu = simulate(p, 500, 5, seed=27)
        with pytest.raises(RegressionError, match="non-finite design matrix"):
            solve_drbsde_lsmc(p, st, mu, nu)

    def test_insufficient_paths_raise(self):
        p = scalar_problem()
        st, mu, nu = simulate(p, 5, 4, seed=26)
        with pytest.raises(RegressionError, match="step"):
            solve_drbsde_lsmc(p, st, mu, nu, se_batches=0)

    @pytest.mark.parametrize("degree", [3, 5])
    def test_se_root_is_the_batch_means_se_of_separate_slice_solves(self, degree):
        p = make_preset("linear-quadratic", {})
        n_paths, n_steps, batches = 2003, 12, 5
        grid = TimeGrid(0.0, p.horizon, n_steps)
        ens = simulate_brownian(grid, n_paths, p.noise_dim, 29)
        rng = np.random.default_rng(29)
        mu = rng.integers(0, p.u_grid.size, (n_paths, n_steps))
        nu = rng.integers(0, p.v_grid.size, (n_paths, n_steps))
        st = euler_forward(p, ens, [0.0], mu, nu)
        sol = solve_drbsde_lsmc(p, st, mu, nu, degree, se_batches=batches)
        edges = np.linspace(0, n_paths, batches + 1, dtype=int)
        roots = []
        for a, b in zip(edges[:-1], edges[1:]):
            part = replace(st, X=st.X[a:b],
                           ens=replace(ens, dW=ens.dW[a:b]))
            roots.append(solve_drbsde_lsmc(p, part, mu[a:b], nu[a:b], degree,
                                           se_batches=0).root)
        assert sol.se_root == float(np.std(roots, ddof=1) / np.sqrt(batches))
        assert sol.se_root > 0.0

    @staticmethod
    def random_control_states(p, n_paths, n_steps, seed):
        grid = TimeGrid(0.0, p.horizon, n_steps)
        ens = simulate_brownian(grid, n_paths, p.noise_dim, seed)
        rng = np.random.default_rng(seed)
        mu = rng.integers(0, p.u_grid.size, (n_paths, n_steps))
        nu = rng.integers(0, p.v_grid.size, (n_paths, n_steps))
        return euler_forward(p, ens, [0.0], mu, nu), mu, nu

    @pytest.mark.parametrize("degree", [3, 5])
    def test_batch_lane_leaves_the_root_lane_bit_identical(self, degree):
        # both barriers bind, so both lanes clamp on both sides
        p = make_preset("linear-quadratic", {"h": 0.0, "l_lo": -0.2, "l_hi": 0.2})
        st, mu, nu = self.random_control_states(p, 2003, 12, 31)
        alone, laned = (solve_drbsde_lsmc(p, st, mu, nu, degree, se_batches=se)
                        for se in (0, 5))
        assert alone.se_root is None and laned.se_root > 0.0
        assert laned.K_lo[-1].max() > 0.0 and laned.K_hi[-1].max() > 0.0
        for field in ("Y", "Z", "K_lo", "K_hi"):
            assert np.array_equal(getattr(alone, field), getattr(laned, field)), field

    @pytest.mark.parametrize("degree", [3, 5])
    def test_batch_lane_adds_one_layer_of_memory(self, degree):
        p = make_preset("linear-quadratic", {})
        n_paths, n_steps, d = 4000, 30, p.noise_dim
        st, mu, nu = self.random_control_states(p, n_paths, n_steps, 5)
        peaks = []
        for se in (0, 0, 20):  # the first solve warms up numpy's lazy imports
            tracemalloc.start()
            try:
                solve_drbsde_lsmc(p, st, mu, nu, degree, se_batches=se)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # a layer of targets (the blocks' designs are row slices of the
        # root's); a second history of n_steps + 1 layers would add 992 kB
        # per array
        assert peaks[2] - peaks[1] <= 4 * n_paths * (1 + d) * 8

    def test_control_steps_must_match_the_state_grid(self):
        p = scalar_problem()
        st, _, _ = simulate(p, 50, 10, seed=30)
        for n_steps in (8, 12):
            mu = nu = constant_controls(50, n_steps)
            with pytest.raises(ProblemError, match="mu controls of shape .* do not fit"):
                solve_drbsde_lsmc(p, st, mu, nu)

    def test_states_must_carry_ensemble(self):
        p = scalar_problem()
        st, mu, nu = simulate(p, 50, 4, seed=27)
        st.ens = None
        with pytest.raises(ProblemError, match="ensemble"):
            solve_drbsde_lsmc(p, st, mu, nu)

    @pytest.mark.parametrize("case", ["steps", "noise-dim", "paths", "knots", "grid"])
    def test_states_that_do_not_fit_together_are_rejected(self, case):
        p = scalar_problem()
        st, mu, nu = simulate(p, 200, 4, seed=32)
        other = {"steps": lambda: simulate_brownian(TimeGrid(0.0, 1.0, 5), 200, 1, 32),
                 "noise-dim": lambda: simulate_brownian(st.grid, 200, 2, 32),
                 "paths": lambda: simulate_brownian(st.grid, 150, 1, 32),
                 "grid": lambda: simulate_brownian(TimeGrid(0.0, 2.0, 4), 200, 1, 32)}
        if case == "knots":
            st = replace(st, X=st.X[:, :-1])
        else:
            st = replace(st, ens=other[case]())
        with pytest.raises(ProblemError, match="states do not fit together"):
            solve_drbsde_lsmc(p, st, mu, nu)

    def test_path_major_states_solve_bit_identically(self):
        p = scalar_problem(b0=-0.5, l_lo=lambda t, x: x[..., 0] - 0.3)
        st, mu, nu = simulate(p, 2_000, 12, seed=33)
        assert not st.X.flags.c_contiguous  # knot-major behind (n_paths, n_knots, k)
        path_major = replace(st, X=np.ascontiguousarray(st.X),
                             ens=replace(st.ens, dW=np.ascontiguousarray(st.ens.dW)))
        sols = [solve_drbsde_lsmc(p, s, mu, nu, se_batches=5) for s in (st, path_major)]
        for field in ("Y", "Z", "K_lo", "K_hi", "se_root"):
            assert np.array_equal(getattr(sols[0], field), getattr(sols[1], field)), field
        assert sols[0].K_lo[-1].max() > 0.0
        assert check_flat_off(sols[1], p, path_major) == (0.0, 0.0)

    def test_lattice_consistency_on_binding_problem(self):
        # drift pushes Y onto the lower barrier at the root: both routes exact
        p = scalar_problem(b0=-0.5, l_lo=lambda t, x: x[..., 0] - 0.3)
        lat = build_lattice(p, 64, -4, 4, 33)
        lat_root = solve_drbsde_lattice(p, lat).root_at(16)
        st, mu, nu = simulate(p, 20_000, 64, seed=28)
        sol = solve_drbsde_lsmc(p, st, mu, nu)
        assert abs(sol.root - lat_root) <= 3.0 * sol.se_root + 1e-10


class TestRegression:
    """The batched fit against a rank-revealing lstsq on each block."""

    @staticmethod
    def scaled_lstsq_fit(A, y):
        # columns scaled to unit norm, so a 1e6 column costs no digits
        norm = np.linalg.norm(A, axis=0)
        B = A * np.divide(1.0, norm, out=np.zeros_like(norm), where=norm > 0)
        return B @ np.linalg.lstsq(B, y, rcond=None)[0]

    @pytest.mark.parametrize("l_lo", [None, lambda t, x: x[..., 0] - 0.3])
    def test_batched_fit_matches_lstsq_per_block(self, l_lo):
        # constant 1e6 upper obstacle, and a lower one constant or affine in x
        p = scalar_problem(l_lo=l_lo)
        rng = np.random.default_rng(40)
        x = rng.normal(0.2, 0.7, (3001, 1))
        y = np.column_stack([np.sin(3 * x[:, 0]), rng.standard_normal((3001, 2))])
        A = _basis_matrix(p, 0.4, x, 3)
        blocks = [slice(0, 1000), slice(1000, 2001), slice(2001, 3001)]
        refs = [self.scaled_lstsq_fit(A[s], y[s]) for s in blocks]
        rank, cond, fallback = _fit([A[s] for s in blocks], [y[s] for s in blocks], 5)
        assert rank.tolist() == [4, 4, 4] and not fallback.any()
        assert np.all(cond < 1e3)
        for s, ref in zip(blocks, refs):
            assert np.max(np.abs(y[s] - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("x0", [0.0, 0.7])
    def test_point_cross_section_gives_the_sample_mean(self, x0):
        p = scalar_problem(l_lo=lambda t, x: x[..., 0] - 0.3)
        y = np.random.default_rng(41).standard_normal((64, 2))
        A = _basis_matrix(p, 0.0, np.full((64, 1), x0), 3)
        mean = y.mean(axis=0)
        rank, _, fallback = _fit([A], [y], 0)
        assert rank.tolist() == [1] and not fallback.any()
        assert np.allclose(y, mean, rtol=1e-14, atol=1e-15)

    def test_zero_obstacle_column_is_dropped(self):
        # l_lo = 0 gives an all-zero column: its Gram diagonal is zero
        p = scalar_problem(l_lo=lambda t, x: np.zeros(np.shape(x)[:-1]))
        rng = np.random.default_rng(42)
        x = rng.normal(0.2, 0.7, (500, 1))
        y = np.column_stack([np.sin(3 * x[:, 0]), rng.standard_normal((500, 1))])
        A = _basis_matrix(p, 0.5, x, 3)
        assert not A[:, -2].any()
        ref = self.scaled_lstsq_fit(A, y)
        rank, _, fallback = _fit([A], [y], 3)
        assert rank.tolist() == [4] and not fallback.any()
        assert np.max(np.abs(y - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_nearly_collinear_block_falls_back_to_lstsq(self):
        p = make_preset("linear-quadratic", {})
        rng = np.random.default_rng(0)
        x = [rng.normal(0.0, 1.0, (500, 1)), 1.0 + 0.01 * rng.random((2000, 1))]
        y = [rng.standard_normal((500, 2)), rng.standard_normal((2000, 2))]
        designs = [_basis_matrix(p, 0.5, xb, 3) for xb in x]
        A = designs[1]
        ref = A @ np.linalg.lstsq(A, y[1], rcond=None)[0]
        ref0 = self.scaled_lstsq_fit(designs[0], y[0])
        rank, cond, fallback = _fit(designs, y, 2)
        assert fallback.tolist() == [False, True]
        assert cond[1] > 1e8 and rank[1] == 4
        assert np.array_equal(y[1], ref)
        assert np.max(np.abs(y[0] - ref0)) <= 1e-12

    def test_too_few_paths_names_the_step(self):
        p = scalar_problem()
        st, mu, nu = simulate(p, 5, 4, seed=26)
        with pytest.raises(RegressionError, match=r"^rank-deficient regression at step 3: "
                                                  r"5 paths for 6 basis functions$"):
            solve_drbsde_lsmc(p, st, mu, nu, se_batches=0)

    def test_non_finite_design_names_the_step(self):
        p = scalar_problem(l_lo=lambda t, x: np.full(np.shape(x)[:-1], -np.inf))
        st, mu, nu = simulate(p, 50, 4, seed=27)
        with pytest.raises(RegressionError, match=r"^non-finite design matrix at step 3$"):
            solve_drbsde_lsmc(p, st, mu, nu, se_batches=0)

    def test_zero_design_is_rank_zero(self):
        with pytest.raises(RegressionError, match=r"^rank-deficient regression at step 7$"):
            _fit([np.zeros((10, 3))], [np.ones((10, 2))], 7)

    def test_solution_carries_the_regression_diagnostics(self):
        p = make_preset("linear-quadratic", {})
        st, mu, nu = simulate(p, 2000, 10, seed=43)
        sol = solve_drbsde_lsmc(p, st, mu, nu)
        # the two constant obstacle columns duplicate the intercept
        assert (sol.lsmc_rank_min, sol.lsmc_fallbacks) == (4, 0)
        assert 1.0 <= sol.lsmc_cond_max < 1e3
        lat = solve_drbsde_lattice(p, build_lattice(p, 100, -2, 2, 9))
        assert lat.lsmc_rank_min is None and lat.lsmc_fallbacks is None
