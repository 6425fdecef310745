import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from drgame import (ProblemError, TimeGrid, concat_paths,
                    constant_controls, euler_forward, make_preset,
                    paste_controls, simulate_brownian)
from drgame.model import ControlGrid, GameProblem


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

    def test_restrict(self):
        g = TimeGrid(0.0, 1.0, 4).restrict_from(0.5)
        assert g.t0 == 0.5 and g.n_steps == 2


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
        ens = simulate_brownian(grid, 5, d, seed)
        for p in range(5):
            bitgen = np.random.Philox(key=np.array([seed % 2 ** 64, p], dtype=np.uint64))
            normals = np.random.Generator(bitgen).standard_normal((n_steps, d))
            assert np.array_equal(ens.dW[p], normals * np.sqrt(grid.dt))

    def test_per_path_streams_do_not_depend_on_path_count(self):
        grid = TimeGrid(0.0, 1.0, 10)
        small = simulate_brownian(grid, 8, 1, seed=3)
        large = simulate_brownian(grid, 32, 1, seed=3)
        assert np.array_equal(small.dW, large.dW[:8])


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
        mu_hi = constant_controls(n, 50, index=1)
        nu = constant_controls(n, 50)
        mu_mixed = paste_controls(
            mu_hi, [(np.arange(n), grid.index_of(0.5),
                     np.zeros(25, dtype=int))])
        st = euler_forward(p, ens, [0.0], mu_mixed, nu)
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


class TestConcat:
    def test_zero_continuation_freezes_the_path(self):
        g = TimeGrid(0.0, 1.0, 4)
        omega = np.array([0.0, 0.1, 0.3, 0.2, 0.5])
        out = concat_paths(g, omega, 0.5, np.zeros(3))
        assert np.allclose(out, [0.0, 0.1, 0.3, 0.3, 0.3])

    def test_identity_at_left_endpoint(self):
        g = TimeGrid(0.0, 1.0, 4)
        tilde = np.array([0.0, 1.0, -1.0, 2.0, 0.5])
        out = concat_paths(g, np.zeros(5), 0.0, tilde)
        assert np.allclose(out, tilde)

    def test_linear_paths_splice_to_identity(self):
        g = TimeGrid(0.0, 1.0, 4)
        omega = g.knots.copy()
        tilde = g.knots[2:] - 0.5
        out = concat_paths(g, omega, 0.5, tilde)
        assert np.allclose(out, g.knots)

    def test_no_jump_at_the_splice_knot(self):
        g = TimeGrid(0.0, 1.0, 10)
        rng = np.random.default_rng(0)
        omega = np.concatenate([[0.0], np.cumsum(rng.standard_normal(10))])
        tilde = np.concatenate([[0.0], np.cumsum(rng.standard_normal(5))])
        out = concat_paths(g, omega, 0.5, tilde)
        assert out[5] == omega[5]

    def test_continuation_must_start_at_zero(self):
        g = TimeGrid(0.0, 1.0, 4)
        with pytest.raises(ProblemError, match="start at 0"):
            concat_paths(g, np.zeros(5), 0.5, np.ones(3))

    def test_grid_mismatch(self):
        g = TimeGrid(0.0, 1.0, 4)
        with pytest.raises(ProblemError):
            concat_paths(g, np.zeros(5), 0.5, np.zeros(4))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(2, 12), st.integers(0, 10 ** 6), st.data())
    def test_splicing_is_associative(self, n_steps, seed, data):
        # (omega +_s tilde) +_r hat equals omega +_s (tilde +_r hat)
        i = data.draw(st.integers(1, n_steps - 1))
        j = data.draw(st.integers(i, n_steps - 1))
        g = TimeGrid(0.0, 1.0, n_steps)
        rng = np.random.default_rng(seed)
        omega = np.concatenate([[0.0], np.cumsum(rng.standard_normal(n_steps))])
        tilde = np.concatenate([[0.0],
                                np.cumsum(rng.standard_normal(n_steps - i))])
        hat = np.concatenate([[0.0], np.cumsum(rng.standard_normal(n_steps - j))])
        s, r = float(g.knots[i]), float(g.knots[j])
        sub = g.restrict_from(s)
        left = concat_paths(g, concat_paths(g, omega, s, tilde), r, hat)
        right = concat_paths(g, omega, s,
                             concat_paths(sub, tilde, r, hat))
        assert np.allclose(left, right, atol=1e-12)


class TestPaste:
    def test_constant_controls_are_a_read_only_zero_stride_view(self):
        mu = constant_controls(1000, 50, index=1)
        assert mu.strides == (0, 0)
        assert not mu.flags.writeable
        assert np.all(mu == 1)
        out = paste_controls(mu, [([0], 49, [0])])
        assert out.flags.writeable and out[0, 49] == 0

    def test_empty_replacement_list_is_identity(self):
        mu = np.arange(12).reshape(3, 4) % 2
        out = paste_controls(mu, [])
        assert np.array_equal(out, mu)

    def test_full_replacement_from_t0(self):
        mu = np.zeros((3, 4), dtype=int)
        out = paste_controls(mu, [(np.arange(3), 0, np.ones(4, dtype=int))])
        assert np.all(out == 1)

    def test_single_path_midpoint_replacement(self):
        mu = np.zeros((2, 4), dtype=int)
        out = paste_controls(mu, [([0], 2, np.array([1, 1]))])
        assert np.array_equal(out[0], [0, 0, 1, 1])
        assert np.array_equal(out[1], [0, 0, 0, 0])

    def test_idempotent(self):
        mu = np.zeros((4, 6), dtype=int)
        repl = [([1, 2], 3, np.array([1, 1, 1]))]
        once = paste_controls(mu, repl)
        twice = paste_controls(once, repl)
        assert np.array_equal(once, twice)

    def test_overlapping_sets_rejected(self):
        mu = np.zeros((4, 6), dtype=int)
        with pytest.raises(ProblemError, match="overlap"):
            paste_controls(mu, [([0, 1], 2, np.zeros(4, dtype=int)),
                                ([1, 3], 2, np.zeros(4, dtype=int))])

    def test_out_of_range_index(self):
        mu = np.zeros((4, 6), dtype=int)
        with pytest.raises(ProblemError, match="out of range"):
            paste_controls(mu, [([9], 2, np.zeros(4, dtype=int))])

    def test_fractional_indices_are_rejected(self):
        mu = np.zeros((4, 6), dtype=int)
        p = make_preset("uncertain-volatility", {})
        ens = simulate_brownian(TimeGrid(0.0, 1.0, 2), 1, 1, seed=0)
        with pytest.raises(ProblemError, match="mu control indices must be integers"):
            euler_forward(p, ens, [0.0], [[0.7, 1.2]], 0)
        with pytest.raises(ProblemError, match="mu control indices must be integers"):
            paste_controls([[0.7, 1.2]], [])
        with pytest.raises(ProblemError, match="replacement control indices must be"):
            paste_controls(mu, [([1], 2, [0.5, 1.0, 1.0, 1.0])])
        with pytest.raises(ProblemError, match="path indices must be integers"):
            paste_controls(mu, [([1.5], 2, [1, 1, 1, 1])])
        with pytest.raises(ProblemError, match="knot index must be integers"):
            paste_controls(mu, [([0], 2.5, [1, 1, 1])])

    def test_euler_rejects_a_fractional_table(self):
        p = make_preset("uncertain-volatility", {})
        ens = simulate_brownian(TimeGrid(0.0, 1.0, 6), 4, 1, seed=0)
        with pytest.raises(ProblemError, match="mu control indices must be integers"):
            euler_forward(p, ens, [0.0], np.full((4, 6), 0.5), constant_controls(4, 6))
