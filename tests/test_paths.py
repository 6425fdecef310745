from dataclasses import replace

import numpy as np
import pytest

from drgame import (ProblemError, TimeGrid,
                    constant_controls, euler_forward, make_preset,
                    simulate_brownian)
from drgame.model import ControlGrid, GameProblem, _evaluate
from drgame.paths import _DRAW_CHUNK


def plain_problem(b0=0.0, sig=1.0):
    return GameProblem(
        state_dim=1, noise_dim=1, horizon=1.0,
        drift=lambda t, x, u, v: np.full_like(x, b0),
        diffusion=lambda t, x, u, v: np.full(np.shape(x)[:-1] + (1, 1), sig),
        generator=lambda t, x, y, z, u, v: np.zeros(np.shape(x)[:-1]),
        terminal=lambda x: x[..., 0],
        lower_obstacle=lambda t, x: np.full(np.shape(x)[:-1], -1e6),
        upper_obstacle=lambda t, x: np.full(np.shape(x)[:-1], 1e6),
        lipschitz=max(1.0, abs(b0) + sig), holder_q=2.0,
        u_grid=ControlGrid.singleton(), v_grid=ControlGrid.singleton())


class TestTimeGrid:
    def test_knots(self):
        g = TimeGrid(0.0, 1.0, 4)
        assert np.allclose(g.knots, [0.0, 0.25, 0.5, 0.75, 1.0])
        assert g.dt == 0.25

    def test_index_of(self):
        g = TimeGrid(0.0, 1.0, 4)
        assert g.index_of(0.5) == 2
        with pytest.raises(ProblemError):
            g.index_of(0.3)

    @pytest.mark.parametrize("n_steps", [2.5, 4.0, np.float64(4.0), True, "4"],
                             ids=["fraction", "float", "numpy-float", "bool", "str"])
    def test_non_integer_n_steps_is_rejected(self, n_steps):
        with pytest.raises(ProblemError, match="n_steps must be an integer"):
            TimeGrid(0.0, 1.0, n_steps)

    def test_numpy_integer_n_steps(self):
        g = TimeGrid(0.0, 1.0, np.int64(4))
        assert g == TimeGrid(0.0, 1.0, 4)
        assert np.array_equal(g.knots, [0.0, 0.25, 0.5, 0.75, 1.0])


class TestBrownian:
    def test_moments(self):
        grid = TimeGrid(0.0, 1.0, 100)
        ens = simulate_brownian(grid, 10_000, 1, seed=7)
        means = ens.dW.mean(axis=0)
        bound = 4.0 * np.sqrt(grid.dt / 10_000)
        assert np.max(np.abs(means)) <= bound
        var = ens.dW.var()
        assert abs(var - grid.dt) < 4.0 * grid.dt * np.sqrt(2.0 / ens.dW.size)

    def test_deterministic(self):
        grid = TimeGrid(0.0, 1.0, 20)
        a = simulate_brownian(grid, 64, 2, seed=7)
        b = simulate_brownian(grid, 64, 2, seed=7)
        assert np.array_equal(a.dW, b.dW)

    def test_seed_sensitivity(self):
        grid = TimeGrid(0.0, 1.0, 20)
        a = simulate_brownian(grid, 64, 1, seed=7)
        b = simulate_brownian(grid, 64, 1, seed=8)
        assert not np.array_equal(a.dW, b.dW)

    @pytest.mark.parametrize("seed", [0, 1203, 2 ** 64 - 3])
    @pytest.mark.parametrize("n_steps", [1, 50])
    @pytest.mark.parametrize("d", [1, 3])
    def test_path_p_is_the_philox_stream_keyed_seed_and_p(self, d, n_steps, seed):
        grid = TimeGrid(0.0, 0.7, n_steps)
        # the second ensemble crosses a block of the draw buffer
        for n_paths, checked in ((5, range(5)),
                                 (_DRAW_CHUNK + 7, (0, _DRAW_CHUNK - 1, _DRAW_CHUNK,
                                                    _DRAW_CHUNK + 6))):
            ens = simulate_brownian(grid, n_paths, d, seed)
            for p in checked:
                key = np.array([seed % 2 ** 64, p], dtype=np.uint64)
                normals = np.random.Generator(np.random.Philox(key=key)).standard_normal(
                    (n_steps, d))
                assert np.array_equal(ens.dW[p], normals * np.sqrt(grid.dt))

    @pytest.mark.parametrize("seed, key", [(np.int64(-1), 2 ** 64 - 1),
                                           (np.uint64(5), 5), (np.int32(7), 7),
                                           (np.uint64(2 ** 64 - 3), 2 ** 64 - 3)],
                             ids=["int64-neg", "uint64", "int32", "uint64-max"])
    def test_numpy_integer_seeds_key_the_python_int_stream(self, seed, key):
        grid = TimeGrid(0.0, 1.0, 4)
        ens = simulate_brownian(grid, 3, 2, seed)
        assert np.array_equal(ens.dW, simulate_brownian(grid, 3, 2, key).dW)

    @pytest.mark.parametrize("seed", [1.0, np.float64(3.0), True, np.bool_(False), "7"],
                             ids=["float", "numpy-float", "bool", "numpy-bool", "str"])
    def test_non_integer_seeds_are_rejected(self, seed):
        with pytest.raises(ProblemError, match="seed must be an integer"):
            simulate_brownian(TimeGrid(0.0, 1.0, 4), 3, 1, seed)

    @pytest.mark.parametrize("n_paths, d", [(2.5, 1), (3, 1.0), (True, 1), (3, True)],
                             ids=["fraction-paths", "float-d", "bool-paths", "bool-d"])
    def test_non_integer_path_count_or_dimension_is_rejected(self, n_paths, d):
        with pytest.raises(ProblemError, match="must be an integer"):
            simulate_brownian(TimeGrid(0.0, 1.0, 4), n_paths, d, 0)

    def test_per_path_streams_do_not_depend_on_path_count(self):
        grid = TimeGrid(0.0, 1.0, 10)
        small = simulate_brownian(grid, 8, 1, seed=3)
        large = simulate_brownian(grid, 32, 1, seed=3)
        assert np.array_equal(small.dW, large.dW[:8])


def identity_noise_problem():
    return GameProblem(
        state_dim=2, noise_dim=2, horizon=0.5,
        drift=lambda t, x, u, v: np.zeros_like(x),
        diffusion=lambda t, x, u, v: np.broadcast_to(np.eye(2), np.shape(x)[:-1] + (2, 2)),
        generator=lambda t, x, y, z, u, v: np.zeros(np.shape(x)[:-1]),
        terminal=lambda x: x[..., 0],
        lower_obstacle=lambda t, x: np.full(np.shape(x)[:-1], -1e6),
        upper_obstacle=lambda t, x: np.full(np.shape(x)[:-1], 1e6),
        lipschitz=1.0, holder_q=2.0,
        u_grid=ControlGrid.singleton(), v_grid=ControlGrid.singleton())


def coupled_problem(points):
    """k = d = 3, state-dependent non-diagonal diffusion, both players acting."""
    a = np.array([[0.3, 0.1, 0.0], [0.2, 0.4, 0.1], [0.0, 0.1, 0.5]])

    def scalar(c):
        return np.asarray(c, dtype=float)[..., :1]

    def diffusion(t, x, u, v):
        u, v = scalar(u), scalar(v)
        return ((a + 0.1 * np.sin(x)[..., :, None] * np.cos(x)[..., None, :])
                * (1.0 + 0.2 * u + 0.1 * v))

    return GameProblem(
        state_dim=3, noise_dim=3, horizon=1.0,
        drift=lambda t, x, u, v: -0.5 * x + scalar(u) - t * scalar(v),
        diffusion=diffusion,
        generator=lambda t, x, y, z, u, v: np.zeros(np.shape(x)[:-1]),
        terminal=lambda x: x[..., 0],
        lower_obstacle=lambda t, x: np.full(np.shape(x)[:-1], -1e6),
        upper_obstacle=lambda t, x: np.full(np.shape(x)[:-1], 1e6),
        lipschitz=3.0, holder_q=2.0,
        u_grid=ControlGrid(points=points((0.0, 0.5, 1.0))),
        v_grid=ControlGrid(points=points((0.0, 1.0))))


class TestLayout:
    def test_layers_are_contiguous_behind_path_first_shapes(self):
        p = coupled_problem(tuple)
        grid = TimeGrid(0.0, 1.0, 6)
        ens = simulate_brownian(grid, 37, 3, seed=4)
        st = euler_forward(p, ens, [0.1, 0.2, 0.3], 0, 1)
        assert ens.dW.shape == (37, 6, 3) and st.X.shape == (37, 7, 3)
        assert all(ens.dW[:, j].flags.c_contiguous for j in range(6))
        assert all(st.X[:, j].flags.c_contiguous for j in range(7))
        assert np.array_equal(st.X[:, 0], np.broadcast_to([0.1, 0.2, 0.3], (37, 3)))
        assert ens.dW.nbytes == 37 * 6 * 3 * 8 and st.X.nbytes == 37 * 7 * 3 * 8

    @pytest.mark.parametrize("points", [tuple, lambda c: tuple((x, 0.0) for x in c)],
                             ids=["scalar-points", "vector-points"])
    def test_euler_equals_the_path_major_loop_bit_for_bit(self, points):
        p = coupled_problem(points)
        n_paths, n_steps = _DRAW_CHUNK + 7, 8
        grid = TimeGrid(0.0, 1.0, n_steps)
        ens = simulate_brownian(grid, n_paths, 3, seed=12)
        rng = np.random.default_rng(12)
        mu = rng.integers(0, 3, (n_paths, n_steps))
        nu = rng.integers(0, 2, (n_paths, n_steps))
        x0 = np.array([0.1, -0.2, 0.3])
        dW = np.ascontiguousarray(ens.dW)  # the path-major loop, inline
        X = np.empty((n_paths, n_steps + 1, 3))
        X[:, 0] = x0
        for j in range(n_steps):
            t, xj = float(grid.knots[j]), X[:, j]
            bv = _evaluate(p, "drift", t, xj, ui=mu[:, j], vi=nu[:, j])
            sv = _evaluate(p, "diffusion", t, xj, ui=mu[:, j], vi=nu[:, j])
            X[:, j + 1] = xj + bv * grid.dt + np.einsum("mkd,md->mk", sv, dW[:, j])
        st = euler_forward(p, ens, x0, mu, nu)
        assert np.array_equal(st.X, X)
        assert np.ptp(X[:, -1], axis=0).min() > 0.1  # the paths really move

    def test_csv_rows_stay_in_path_step_coord_order(self, tmp_path):
        ens = simulate_brownian(TimeGrid(0.0, 0.5, 2), 3, 2, 17)
        st = euler_forward(identity_noise_problem(), ens, [1.0, -1.0], 0, 0)
        ens.to_csv(tmp_path / "increments.csv")
        st.to_csv(tmp_path / "states.csv")
        assert (tmp_path / "increments.csv").read_text() == """path,step,coord,value
0,0,0,-0.31453016828164593
0,0,1,-0.081297389833981423
0,1,0,0.12898358974520341
0,1,1,0.71346070578018439
1,0,0,0.67936630766574135
1,0,1,0.61960248918641103
1,1,0,0.11800450264474788
1,1,1,-1.1922616996095372
2,0,0,-0.25794084555982599
2,0,1,-0.26524580029658645
2,1,0,0.32862212251077116
2,1,1,-0.52585674720592201
"""
        assert (tmp_path / "states.csv").read_text() == """path,step,coord,value
0,0,0,1
0,0,1,-1
0,1,0,0.68546983171835407
0,1,1,-1.0812973898339815
0,2,0,0.81445342146355748
0,2,1,-0.3678366840537971
1,0,0,1
1,0,1,-1
1,1,0,1.6793663076657412
1,1,1,-0.38039751081358897
1,2,0,1.7973708103104891
1,2,1,-1.5726592104231263
2,0,0,1
2,0,1,-1
2,1,0,0.74205915444017401
2,1,1,-1.2652458002965865
2,2,0,1.0706812769509453
2,2,1,-1.7911025475025086
"""


class TestEulerForward:
    def test_driftless_unit_diffusion_is_cumsum(self):
        p = plain_problem(0.0, 1.0)
        grid = TimeGrid(0.0, 1.0, 50)
        ens = simulate_brownian(grid, 200, 1, seed=1)
        mu = constant_controls(200, 50)
        nu = constant_controls(200, 50)
        st = euler_forward(p, ens, [0.0], mu, nu)
        expect = np.concatenate(
            [np.zeros((200, 1, 1)), np.cumsum(ens.dW, axis=1)], axis=1)
        assert np.allclose(st.X, expect, rtol=0, atol=0)

    def test_deterministic_ode(self):
        p = plain_problem(1.0, 0.0)
        grid = TimeGrid(0.0, 1.0, 50)
        ens = simulate_brownian(grid, 16, 1, seed=2)
        mu = constant_controls(16, 50)
        nu = constant_controls(16, 50)
        st = euler_forward(p, ens, [0.0], mu, nu)
        assert np.max(np.abs(st.X[:, -1, 0] - 1.0)) < 1e-12

    def test_controlled_volatility_variance(self):
        p = make_preset("uncertain-volatility", {"sigma_lo": 1.0, "sigma_hi": 2.0})
        grid = TimeGrid(0.0, 1.0, 50)
        n = 20_000
        ens = simulate_brownian(grid, n, 1, seed=5)
        mu = constant_controls(n, 50, index=1)  # sigma = 2
        nu = constant_controls(n, 50)
        st = euler_forward(p, ens, [0.0], mu, nu)
        v = st.X[:, -1, 0].var(ddof=1)
        se = 4.0 * np.sqrt(2.0 / (n - 1))
        assert abs(v - 4.0) <= 3.0 * se

    def test_pasted_controls_change_the_realised_variance(self):
        p = make_preset("uncertain-volatility", {"sigma_lo": 1.0, "sigma_hi": 2.0})
        grid = TimeGrid(0.0, 1.0, 50)
        n = 20_000
        ens = simulate_brownian(grid, n, 1, seed=6)
        mu = np.ones((n, 50), int)  # sigma = 2, then sigma = 1 from t = 0.5
        mu[:, grid.index_of(0.5):] = 0
        st = euler_forward(p, ens, [0.0], mu, constant_controls(n, 50))
        v = st.X[:, -1, 0].var(ddof=1)
        expect = 4.0 * 0.5 + 1.0 * 0.5
        se = expect * np.sqrt(2.0 / (n - 1))
        assert abs(v - expect) <= 4.0 * se

    def test_nonfinite_state_reported(self):
        p = plain_problem(np.inf, 0.0)
        grid = TimeGrid(0.0, 1.0, 4)
        ens = simulate_brownian(grid, 2, 1, seed=0)
        with pytest.raises(Exception, match="step 1"):
            euler_forward(p, ens, [0.0], constant_controls(2, 4),
                          constant_controls(2, 4))

    def test_moment_bound_across_starting_points(self):
        # sup-over-grid second moment grows no faster than 1 + |x0|^2
        p = make_preset("uncertain-volatility", {})
        grid = TimeGrid(0.0, 1.0, 32)
        ens = simulate_brownian(grid, 4000, 1, seed=9)
        mu = constant_controls(4000, 32, index=1)
        nu = constant_controls(4000, 32)
        norm_u = p.u_grid.norm(1) ** 2
        ratios = []
        for x0 in (0.0, 2.0, 8.0):
            st = euler_forward(p, ens, [x0], mu, nu)
            m = np.mean(np.max(st.X[:, :, 0] ** 2, axis=1))
            ratios.append(m / (1.0 + x0 ** 2 + norm_u))
        assert max(ratios) <= 6.0

    def test_short_horizon_increment_rate(self):
        p = make_preset("uncertain-volatility", {})
        grid = TimeGrid(0.0, 1.0, 64)
        ens = simulate_brownian(grid, 4000, 1, seed=11)
        mu = constant_controls(4000, 64, index=1)
        nu = constant_controls(4000, 64)
        st = euler_forward(p, ens, [0.5], mu, nu)
        dev = (st.X[:, :, 0] - 0.5) ** 2
        for frac in (8, 4, 2, 1):
            j = 64 // frac
            m = np.mean(np.max(dev[:, : j + 1], axis=1))
            s = grid.knots[j]
            assert m <= 20.0 * s, f"sup-deviation {m} too large at s={s}"

    def test_continuous_dependence_on_x0(self):
        # common random numbers; state-dependent diffusion
        p = make_preset("bsb-convex", {})
        estimates = []
        for n_steps in (16, 64):
            grid = TimeGrid(0.0, 1.0, n_steps)
            ens = simulate_brownian(grid, 4000, 1, seed=13)
            mu = constant_controls(4000, n_steps, index=1)
            nu = constant_controls(4000, n_steps)
            a = euler_forward(p, ens, [1.0], mu, nu)
            b = euler_forward(p, ens, [1.5], mu, nu)
            est = np.mean(np.max(np.abs(a.X[:, :, 0] - b.X[:, :, 0]), axis=1))
            estimates.append(est)
            assert est <= 3.0 * 0.5
        assert max(estimates) / min(estimates) <= 1.5

    def test_path_count_comes_from_the_increments(self):
        p = plain_problem()
        ens = simulate_brownian(TimeGrid(0.0, 1.0, 4), 5, 1, seed=0)
        assert (ens.n_paths, ens.d) == (5, 1)
        with pytest.raises(TypeError):
            replace(ens, n_paths=4)  # a count is no field: it is dW's
        part = replace(ens, dW=ens.dW[:4])
        assert part.n_paths == 4
        st = euler_forward(p, part, [0.0], 0, 0)
        assert np.array_equal(st.X, euler_forward(p, ens, [0.0], 0, 0).X[:4])

    @pytest.mark.parametrize("change", [
        lambda ens: replace(ens, dW=ens.dW[:, :3]),
        lambda ens: replace(ens, grid=TimeGrid(0.0, 1.0, 5)),
        lambda ens: replace(ens, dW=np.zeros((5, 4, 2))),
        lambda ens: replace(ens, dW=ens.dW[:, :, 0]),
    ], ids=["3-step-dW", "5-step-grid", "2-d-noise", "2-axis-dW"])
    def test_increments_that_do_not_fit_are_rejected(self, change):
        ens = simulate_brownian(TimeGrid(0.0, 1.0, 4), 5, 1, seed=0)
        with pytest.raises(ProblemError, match="does not fit"):
            euler_forward(plain_problem(), change(ens), [0.0], 0, 0)


class TestControlTables:
    def test_constant_controls_are_a_read_only_zero_stride_view(self):
        mu = constant_controls(1000, 50, index=1)
        assert mu.strides == (0, 0)
        assert not mu.flags.writeable
        assert np.all(mu == 1)

    def test_fractional_indices_are_rejected(self):
        p = make_preset("uncertain-volatility", {})
        ens = simulate_brownian(TimeGrid(0.0, 1.0, 2), 1, 1, seed=0)
        with pytest.raises(ProblemError, match="mu control indices must be integers"):
            euler_forward(p, ens, [0.0], [[0.7, 1.2]], 0)

    def test_euler_rejects_a_fractional_table(self):
        p = make_preset("uncertain-volatility", {})
        ens = simulate_brownian(TimeGrid(0.0, 1.0, 6), 4, 1, seed=0)
        with pytest.raises(ProblemError, match="mu control indices must be integers"):
            euler_forward(p, ens, [0.0], np.full((4, 6), 0.5), constant_controls(4, 6))
