import numpy as np
import pytest
from dataclasses import fields, replace

from drgame import (BinaryTree, CflError, DppReport, ProblemError, TimeGrid,
                    build_lattice, cross_check, dpp_check,
                    dynkin_brute_force, dynkin_oracle_corpus,
                    lattice_occupancy, make_preset, refinement_study,
                    solve_drbsde_lattice, solve_obstacle_pde, value_backward_induction)
from drgame.game import _refine, _stencil, backward_sweep
from drgame.model import ControlGrid, GameProblem


def scalar_problem(T=1.0, b0=0.0, sig=1.0, h=None, l_lo=None, l_hi=None,
                   f=None, gamma=None):
    h = h or (lambda x: x[..., 0])
    l_lo = l_lo or (lambda t, x: np.full(np.shape(x)[:-1], -1e6))
    l_hi = l_hi or (lambda t, x: np.full(np.shape(x)[:-1], 1e6))
    f = f or (lambda t, x, y, z, u, v: np.zeros(np.shape(x)[:-1]))
    return GameProblem(
        state_dim=1, noise_dim=1, horizon=T,
        drift=lambda t, x, u, v: np.full_like(x, b0),
        diffusion=lambda t, x, u, v: np.full(np.shape(x)[:-1] + (1, 1), sig),
        generator=f, terminal=h, lower_obstacle=l_lo, upper_obstacle=l_hi,
        lipschitz=gamma or max(1.0, abs(b0) + sig), holder_q=2.0,
        u_grid=ControlGrid.singleton(), v_grid=ControlGrid.singleton())


def surface_sandwich_violation(p, surf):
    worst = 0.0
    knots = surf.grid.knots
    xb = surf.x_nodes[:, None]
    for j in range(surf.W.shape[0]):
        lo = np.asarray(p.lower_obstacle(float(knots[j]), xb))
        hi = np.asarray(p.upper_obstacle(float(knots[j]), xb))
        worst = max(worst, float(np.max(lo - surf.W[j])),
                    float(np.max(surf.W[j] - hi)))
    return worst


def stencil_tables(lat):
    """(p_up, p_dn, p_stay) per (step, u, v, node), read layer by layer."""
    layers = [lat.stencil(float(t)) for t in lat.knots[:-1]]
    return tuple(np.array([getattr(st, name) for st in layers])
                 for name in ("p_up", "p_dn", "p_stay"))


class TestStencil:
    def test_driftless_matched_step_is_binomial(self):
        # dt = dx^2 with sigma = 1: p_up = p_dn = 1/2, p_stay = 0
        p = scalar_problem(T=0.04, sig=1.0)
        lat = build_lattice(p, n_steps=4, x_min=-1.0, x_max=1.0, n_nodes=21)
        p_up, p_dn, p_stay = stencil_tables(lat)
        assert abs(lat.dx - 0.1) < 1e-15
        assert abs(lat.grid.dt - lat.dx ** 2) < 1e-15
        inner = slice(1, -1)
        assert np.allclose(p_up[:, 0, 0, inner], 0.5, atol=1e-13)
        assert np.allclose(p_dn[:, 0, 0, inner], 0.5, atol=1e-13)
        assert np.allclose(p_stay[:, 0, 0, inner], 0.0, atol=1e-13)

    def test_frozen_state(self):
        p = scalar_problem(sig=0.0)
        lat = build_lattice(p, n_steps=5, x_min=-1, x_max=1, n_nodes=11)
        p_up, p_dn, p_stay = stencil_tables(lat)
        assert np.allclose(p_stay, 1.0)
        assert np.allclose(p_up, 0.0)

    def test_hand_computed_weights(self):
        # b = 1, sigma = 1, dx = 0.1, dt = 0.005
        p = scalar_problem(T=0.05, b0=1.0, sig=1.0)
        lat = build_lattice(p, n_steps=10, x_min=-1.0, x_max=1.0, n_nodes=21)
        p_up, p_dn, p_stay = stencil_tables(lat)
        assert abs(lat.grid.dt - 0.005) < 1e-15
        inner = slice(1, -1)
        assert np.allclose(p_up[:, 0, 0, inner], 0.275, atol=1e-13)
        assert np.allclose(p_dn[:, 0, 0, inner], 0.225, atol=1e-13)
        assert np.allclose(p_stay[:, 0, 0, inner], 0.5, atol=1e-13)

    def test_probabilities_sum_to_one_and_are_nonnegative(self):
        p = make_preset("linear-quadratic", {})
        lat = build_lattice(p, n_steps=100, x_min=-4, x_max=4, n_nodes=41)
        p_up, p_dn, p_stay = stencil_tables(lat)
        total = p_up + p_dn + p_stay
        assert np.max(np.abs(total - 1.0)) < 1e-12
        assert p_up.min() >= 0 and p_dn.min() >= 0 and p_stay.min() >= 0

    def test_local_moments_match_drift_and_diffusion(self):
        p = scalar_problem(T=0.05, b0=1.0, sig=1.0)
        lat = build_lattice(p, n_steps=10, x_min=-1.0, x_max=1.0, n_nodes=21)
        p_up, p_dn, p_stay = stencil_tables(lat)
        dt, dx = lat.grid.dt, lat.dx
        inner = slice(1, -1)
        first = (p_up - p_dn)[:, 0, 0, inner] * dx
        assert np.max(np.abs(first - 1.0 * dt)) < 1e-15
        second = (p_up + p_dn)[:, 0, 0, inner] * dx ** 2
        central = second - first ** 2
        assert np.max(np.abs(central - 1.0 * dt)) <= (1.0 * dt) ** 2 + 1e-15

    def test_cfl_violation_reported(self):
        p = scalar_problem(sig=1.0)
        with pytest.raises(CflError, match="CFL"):
            build_lattice(p, n_steps=10, x_min=-1, x_max=1, n_nodes=41)

    def test_drift_dominance_reported(self):
        p = scalar_problem(T=0.001, b0=50.0, sig=0.1, gamma=51.0)
        with pytest.raises(CflError):
            build_lattice(p, n_steps=10, x_min=-1, x_max=1, n_nodes=21)

    def test_gamma_dt_guard(self):
        p = scalar_problem(T=10.0, sig=0.1, gamma=1.0)
        with pytest.raises(CflError, match="gamma"):
            build_lattice(p, n_steps=5, x_min=-10, x_max=10, n_nodes=11)

    @pytest.mark.parametrize("lo, hi", [(-np.inf, 2.0), (-2.0, np.inf),
                                        (-np.inf, np.inf), (np.nan, 2.0)])
    def test_grid_bounds_must_be_finite(self, lo, hi):
        with pytest.raises(ProblemError, match="need finite x_min < x_max"):
            build_lattice(make_preset("dynkin-flat", {}), 50, lo, hi, 21)

    @pytest.mark.parametrize("n_nodes", [21.0, True])
    def test_node_count_must_be_an_integer(self, n_nodes):
        with pytest.raises(ProblemError, match="n_nodes must be an integer"):
            build_lattice(make_preset("dynkin-flat", {}), 50, -2, 2, n_nodes)


def slice_moments(st, vals, dt):
    """Reference for ``Lattice.moments``: the neighbour products on
    ``[..., 1:]`` and ``[..., :-1]`` slices, so no product touches the
    placeholder dW of an edge node."""
    stay = st.p_stay * vals
    dn = st.p_dn[..., 1:] * vals[:-1]
    up = st.p_up[..., :-1] * vals[1:]
    z = stay * st.dw_stay
    stay[..., 1:] += dn
    stay[..., :-1] += up
    z[..., 1:] += np.multiply(dn, st.dw_dn[..., 1:], out=dn)
    z[..., :-1] += np.multiply(up, st.dw_up[..., :-1], out=up)
    z /= dt
    return stay, (z if st.all_move else np.where(st.moves, z, 0.0))


class TestMoments:
    """The padded read of ``Lattice.moments`` against the slice reference."""

    @staticmethod
    def random_layers(rng, n):
        """(b, sig, vals): signed drifts, some non-moving nodes, signed zeros."""
        shape = (2, 3, n)
        b = rng.uniform(-2.0, 2.0, shape)
        sig = rng.uniform(0.5, 2.0, shape) * rng.choice([-1.0, 1.0], shape)
        sig[rng.random(shape) < 0.1] = rng.choice([0.0, -0.0])
        vals = rng.standard_normal(n) * rng.choice([1.0, 1e-300, 1e300])
        zeros = rng.random(n) < rng.choice([0.1, 0.5, 1.0])
        vals[zeros] = rng.choice([0.0, -0.0], int(zeros.sum()))
        vals[[0, 1, -2, -1]] = rng.choice([0.0, -0.0, 1.5, -1.5], 4)
        return b, sig, vals

    def test_bit_equal_to_the_slice_reference_on_random_layers(self):
        lat = build_lattice(scalar_problem(), 50, -2, 2, 17)
        rng = np.random.default_rng(2024)
        for trial in range(200):
            b, sig, vals = self.random_layers(rng, lat.n_nodes)
            full = _stencil(b, sig, lat.dt, lat.dx)
            ui, vi = rng.integers(0, 2, lat.n_nodes), rng.integers(0, 3, lat.n_nodes)
            for st in (full, full.pair(1, 2), full.pair(ui, vi), full.pair(0, vi)):
                got = lat.moments(st, vals)
                want = slice_moments(st, vals, lat.dt)
                for g, w in zip(got, want):
                    assert g.shape == w.shape
                    assert np.array_equal(g.view(np.int64), w.view(np.int64)), trial

    def test_edge_placeholders_are_plus_one(self):
        b, sig, _ = self.random_layers(np.random.default_rng(1), 9)
        st = _stencil(b, sig, 0.01, 0.5)
        assert np.all(st.dw_dn[..., 0] == 1.0) and np.all(st.dw_up[..., -1] == 1.0)
        assert np.all(st.p_dn[..., 0] == 0.0) and np.all(st.p_up[..., -1] == 0.0)


class TestNodeStencil:
    """Per-node controls: each node's weights come from its own control pair."""

    @staticmethod
    def mixed(n):
        nodes = np.arange(n)
        return nodes % 2, (nodes // 3) % 2  # every pair of the 2 x 2 grids

    def test_per_node_stencil_gathers_the_all_pairs_stencil(self):
        p = make_preset("linear-quadratic", {})
        lat = build_lattice(p, 100, -4, 4, 41)
        ui, vi = self.mixed(lat.n_nodes)
        nodes = np.arange(lat.n_nodes)
        for t in lat.knots[:-1:9]:
            full = lat.stencil(float(t))
            mixed = lat.stencil(float(t)).pair(ui, vi)
            for name in ("p_up", "p_dn", "p_stay", "b", "sig"):
                assert np.array_equal(getattr(mixed, name),
                                      getattr(full, name)[ui, vi, nodes]), name
            assert mixed.fold_dn == full.fold_dn[ui[0], vi[0]]
            assert mixed.fold_up == full.fold_up[ui[-1], vi[-1]]

    def test_one_pair_on_every_node_selects_a_view(self):
        lat = build_lattice(make_preset("linear-quadratic", {}), 100, -4, 4, 41)
        full = lat.stencil(0.5)
        st = full.pair(np.full(lat.n_nodes, 1), np.zeros(lat.n_nodes, dtype=int))
        for name, a in full.arrays().items():
            assert np.shares_memory(getattr(st, name), a), name
            assert np.array_equal(getattr(st, name), a[1, 0]), name

    def test_mixed_tables_on_a_shared_lattice_call_no_coefficient(self):
        base = make_preset("linear-quadratic", {})
        calls = []

        def drift(t, x, u, v):
            calls.append(t)
            return base.drift(t, x, u, v)

        p = replace(base, drift=drift)
        lat = build_lattice(p, 100, -4, 4, 41)
        ui, vi = self.mixed(lat.n_nodes)
        mu, nu = np.tile(ui, (100, 1)), np.tile(vi, (100, 1))
        calls.clear()
        lat.stencil(float(lat.knots[3])).pair(ui, vi)
        solve_drbsde_lattice(p, lat, mu, nu)
        lattice_occupancy(lat, mu, nu, root_index=lat.n_nodes // 2)
        assert calls == []

    def test_gathered_stencil_matches_the_per_layer_one_bit_for_bit(self):
        # the second problem freezes the nodes whose u picks sigma = 0
        frozen = replace(scalar_problem(), u_grid=ControlGrid(points=(1.0, 0.0)),
                         diffusion=lambda t, x, u, v: u * np.ones(np.shape(x)[:-1] + (1, 1)))
        rng = np.random.default_rng(11)
        for p in (make_preset("linear-quadratic", {}), frozen):
            lat = build_lattice(p, 100, -4, 4, 41)
            per_layer = replace(lat, shared_stencil=None)
            nv = p.v_grid.size
            for ui, vi in [(rng.integers(0, 2, 41), rng.integers(0, nv, 41)),
                           (rng.integers(0, 2, 41), nv - 1), (0, rng.integers(0, nv, 41))]:
                a = lat.stencil(0.5).pair(ui, vi)
                b = per_layer.stencil(0.5).pair(ui, vi)
                for name, arr in b.arrays().items():
                    assert same_bits(getattr(a, name), arr), name
                assert a.all_move == b.all_move == bool(np.all(b.moves))

    def test_mixed_tables_give_the_same_drbsde_and_occupancy_with_and_without_sharing(self):
        rng = np.random.default_rng(5)
        for name in ("uncertain-volatility", "linear-quadratic"):
            p = make_preset(name, {})
            lat = build_lattice(p, 120, -4, 4, 41)
            per_layer = replace(lat, shared_stencil=None)
            mu = rng.integers(0, p.u_grid.size, (120, 41))
            nu = rng.integers(0, p.v_grid.size, (120, 41))
            a = solve_drbsde_lattice(p, lat, mu, nu)
            b = solve_drbsde_lattice(p, per_layer, mu, nu)
            for field in ("Y", "Z", "K_lo", "K_hi"):
                assert same_bits(getattr(a, field), getattr(b, field)), (name, field)
            pi_a, fold_a = lattice_occupancy(lat, mu, nu, root_index=2)
            pi_b, fold_b = lattice_occupancy(per_layer, mu, nu, root_index=2)
            assert same_bits(pi_a, pi_b) and fold_a == fold_b and fold_a > 0, name


class TestLatticeMemory:
    def test_lattice_arrays_do_not_grow_with_the_step_count(self):
        p = make_preset("linear-quadratic", {})

        def held_bytes(n_steps):
            lat = build_lattice(p, n_steps, -4, 4, 41)
            return sum(v.nbytes for v in vars(lat).values()
                       if isinstance(v, np.ndarray))

        assert held_bytes(100) == held_bytes(400)


def k_case(name, n=6, m=5):
    """Candidate layers cands[j] (j < n) and per-knot obstacles (n + 1, m)."""
    rng = np.random.default_rng(7)
    cands = rng.uniform(-0.9, 0.9, (n, m))
    lo, hi = np.full((n + 1, m), -1.0), np.full((n + 1, m), 1.0)
    if name == "signed-zero-floor":  # lo - cand is -0.0 at every layer
        lo[:], cands[:] = -0.0, 0.0
    elif name == "signed-zero-from-middle":
        lo[3:], cands[3:] = -0.0, 0.0
    elif name == "first-push-mid":
        cands[2, 1] = -1.3
        cands[4, :3] = -1.1 - rng.uniform(0.0, 0.3, 3)
        cands[3, 4] = 1.7
    elif name == "push-from-row-1":
        cands[0] = -1.0 - rng.uniform(0.0, 1.0, m)
        cands[1, 2] = 1.25
    return cands, lo, hi


class TestKBits:
    """backward_sweep's K against a dense reference, compared as int64."""

    CASES = ["signed-zero-floor", "signed-zero-from-middle", "first-push-mid",
             "push-from-row-1", "never"]

    @staticmethod
    def sweep(cands, lo, hi):
        knots = np.linspace(0.0, 1.0, len(cands) + 1)
        _, K_lo, K_hi = backward_sweep(make_preset("dynkin-flat"), knots, None,
                                       lambda j, t, nxt: cands[j],
                                       terminal=np.zeros(cands.shape[1]),
                                       obstacles=lambda j: (lo[j], hi[j]))
        return K_lo, K_hi

    @staticmethod
    def dense(cands, lo, hi):
        K_lo, K_hi = np.zeros((2, len(cands) + 1, cands.shape[1]))
        K_lo[1:] = np.cumsum(np.maximum(lo[:-1] - cands, 0.0), axis=0)
        K_hi[1:] = np.cumsum(np.maximum(cands - hi[:-1], 0.0), axis=0)
        return K_lo, K_hi

    @pytest.mark.parametrize("case", CASES)
    def test_k_has_the_bits_of_a_dense_cumulative_sum(self, case):
        cands, lo, hi = k_case(case)
        got = self.sweep(cands, lo, hi)
        for g, w in zip(got, self.dense(cands, lo, hi)):
            assert g.shape == w.shape
            assert np.array_equal(g.view(np.int64), w.view(np.int64))
        K_lo, K_hi = got
        if case == "first-push-mid":
            assert not K_lo[:3].any() and K_lo[3, 1] > 0.0
            assert not K_hi[:4].any() and K_hi[4, 4] > 0.0
        elif case == "push-from-row-1":
            assert (K_lo[1] > 0.0).all() and K_hi[2, 2] > 0.0
        else:
            # an upper obstacle that never pushes: +0.0, no sign bit anywhere
            assert not K_hi.view(np.int64).any()
        if case == "never":
            assert not K_lo.view(np.int64).any()


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestSharedStencil:
    """A time-homogeneous lattice reuses one stencil; the per-layer path of
    ``replace(lat, shared_stencil=None)`` must give the same bits."""

    PRESETS = ("dynkin-flat", "uncertain-volatility", "bsb-convex", "linear-quadratic")

    @staticmethod
    def lattices(name):
        lat = build_lattice(make_preset(name, {}), 120, -4, 4, 41)
        return lat, replace(lat, shared_stencil=None)

    def test_every_preset_lattice_holds_the_shared_stencil(self):
        for name in self.PRESETS:
            lat, _ = self.lattices(name)
            assert lat.shared_stencil is not None, name
            head, tail = lat.split(60)
            assert head.shared_stencil is tail.shared_stencil is lat.shared_stencil
            assert lat.stencil(float(lat.knots[7])) is lat.shared_stencil

    def test_per_layer_path_gives_the_same_value_surfaces(self):
        for name in self.PRESETS:
            lat, per_layer = self.lattices(name)
            p = lat.problem
            for order in ("supinf", "infsup"):
                a = value_backward_induction(p, lat, order).W
                b = value_backward_induction(p, per_layer, order).W
                assert same_bits(a, b), (name, order)
            a = solve_obstacle_pde(p, lat, "supinf").W
            b = solve_obstacle_pde(p, per_layer, "supinf").W
            assert same_bits(a, b), name

    def test_per_layer_path_gives_the_same_drbsde_and_occupancy(self):
        for name in self.PRESETS:
            lat, per_layer = self.lattices(name)
            p = lat.problem
            n_steps, n = lat.grid.n_steps, lat.n_nodes
            rows = np.arange(n_steps)[:, None] % 2  # one pair per layer, varying
            nodes = np.arange(n)
            controls = [
                (0, 0),
                (p.u_grid.size - 1, 0),
                (np.broadcast_to(rows % p.u_grid.size, (n_steps, n)),
                 np.broadcast_to((rows + 1) % p.v_grid.size, (n_steps, n))),
                (np.tile(nodes % p.u_grid.size, (n_steps, 1)),
                 np.tile((nodes // 3) % p.v_grid.size, (n_steps, 1))),
            ]
            for mu, nu in controls:
                a = solve_drbsde_lattice(p, lat, mu, nu)
                b = solve_drbsde_lattice(p, per_layer, mu, nu)
                for field in ("Y", "Z", "K_lo", "K_hi"):
                    assert same_bits(getattr(a, field), getattr(b, field)), (name, field)
                pi_a, fold_a = lattice_occupancy(lat, mu, nu, root_index=n // 2)
                pi_b, fold_b = lattice_occupancy(per_layer, mu, nu, root_index=n // 2)
                assert same_bits(pi_a, pi_b) and fold_a == fold_b, name

    def test_time_dependent_diffusion_has_no_shared_stencil(self):
        p = replace(scalar_problem(),
                    diffusion=lambda t, x, u, v: np.full(np.shape(x)[:-1] + (1, 1), 1.0 + t))
        lat = build_lattice(p, 40, -4, 4, 21)
        assert lat.shared_stencil is None
        first, last = (lat.stencil(float(t)) for t in lat.knots[[0, -2]])
        assert not np.array_equal(first.sig, last.sig)
        # the scan reports the largest margin, which the last layer attains
        assert lat.cfl[0] == pytest.approx(lat.dt * (1.0 + lat.knots[-2]) ** 2 / lat.dx ** 2)

    def test_cfl_break_on_the_last_layer_only_is_still_reported(self):
        def diffusion(t, x, u, v):
            return np.full(np.shape(x)[:-1] + (1, 1), 10.0 if t > 0.85 else 1.0)

        p = replace(scalar_problem(gamma=1.0), diffusion=diffusion)
        with pytest.raises(CflError) as err:
            build_lattice(p, 10, -1, 1, 5)
        assert str(err.value) == "CFL violation: dt*max(sigma^2) = 10 exceeds dx^2 = 0.25"

    def test_homogeneous_sweeps_call_no_coefficient(self):
        base = make_preset("linear-quadratic", {})
        calls = []

        def drift(t, x, u, v):
            calls.append(t)
            return base.drift(t, x, u, v)

        scalar = replace(base, drift=drift)
        per_pair = replace(scalar, **{g: replace(getattr(base, g), points=tuple(
            np.array([u]) for u in getattr(base, g).points)) for g in ("u_grid", "v_grid")})
        pairs = base.u_grid.size * base.v_grid.size
        # the scan calls the drift once per knot on scalar control points, and
        # once per pair and knot on 1-element array points
        for p, scan_calls in ((scalar, 100), (per_pair, 100 * pairs)):
            calls.clear()
            lat = build_lattice(p, 100, -4, 4, 41)
            assert len(calls) == scan_calls
            calls.clear()
            value_backward_induction(p, lat, "supinf")
            solve_obstacle_pde(p, lat, "infsup")
            solve_drbsde_lattice(p, lat)
            assert calls == []

    def test_shared_stencil_is_read_only(self):
        lat, _ = self.lattices("linear-quadratic")
        for st in (lat.shared_stencil, lat.stencil(0.0).pair(1, 0)):
            for name, a in st.arrays().items():
                with pytest.raises(ValueError):
                    a[...] = 0.0
                assert not a.flags.writeable, name


class TestBackwardInduction:
    def test_heat_kernel_closed_form(self):
        # b=0, sigma^2=2, h=x^2: value x^2 + sigma^2 (T - t)
        p = scalar_problem(sig=np.sqrt(2.0), h=lambda x: x[..., 0] ** 2,
                           gamma=np.sqrt(2.0))
        dx = 0.05
        n_steps = int(round(1.0 / (dx * dx / 2.0)))
        lat = build_lattice(p, n_steps, -6.0, 6.0, int(round(12 / dx)) + 1)
        surf = value_backward_induction(p, lat, "supinf")
        assert abs(surf.root(0.0) - 2.0) < 0.01 * 2.0

    def test_convex_payoff_selects_high_volatility(self):
        p = make_preset("uncertain-volatility", {"h": "square"})
        dx = 0.05
        n_steps = int(round(1.0 / (dx * dx / 4.0)))
        lat = build_lattice(p, n_steps, -8.0, 8.0, int(round(16 / dx)) + 1)
        surf = value_backward_induction(p, lat, "supinf")
        assert abs(surf.root(0.0) - 4.0) < 0.01 * 4.0

    def test_concave_payoff_selects_low_volatility(self):
        p = make_preset("uncertain-volatility", {"h": "neg-square"})
        dx = 0.05
        n_steps = int(round(1.0 / (dx * dx / 4.0)))
        lat = build_lattice(p, n_steps, -8.0, 8.0, int(round(16 / dx)) + 1)
        surf = value_backward_induction(p, lat, "supinf")
        assert abs(surf.root(0.0) - (-1.0)) < 0.01

    def test_dynkin_flat_is_identically_zero(self):
        p = make_preset("dynkin-flat", {})
        lat = build_lattice(p, 100, -4, 4, 41)
        surf = value_backward_induction(p, lat, "supinf")
        assert np.max(np.abs(surf.W)) == 0.0

    def test_order_inequality_and_strict_gap(self):
        p = make_preset("linear-quadratic", {})
        lat = build_lattice(p, 400, -6, 6, 121)
        lo = value_backward_induction(p, lat, "supinf")
        hi = value_backward_induction(p, lat, "infsup")
        assert np.max(lo.W - hi.W) <= 0.0
        assert np.max(hi.W - lo.W) > 1e-3  # the coupling breaks the saddle

    def test_monotone_in_terminal_data(self):
        p = make_preset("dynkin-flat", {})
        lat = build_lattice(p, 50, -3, 3, 31)
        base = value_backward_induction(p, lat, "supinf")
        rng = np.random.default_rng(3)
        bump = rng.uniform(0.0, 0.4, size=31)
        lifted = value_backward_induction(
            p, lat, "supinf", terminal=base.W[-1] + bump)
        assert np.min(lifted.W - base.W) >= 0.0

    def test_obstacle_sandwich_exact(self):
        for name in ("dynkin-flat", "linear-quadratic"):
            p = make_preset(name, {})
            lat = build_lattice(p, 100, -4, 4, 41)
            for order in ("supinf", "infsup"):
                surf = value_backward_induction(p, lat, order)
                assert surface_sandwich_violation(p, surf) <= 0.0

    def test_spatial_regularity_uniform_across_refinements(self):
        p = make_preset("uncertain-volatility", {"h": "square"})
        slopes = []
        for level in range(3):
            dx = 0.2 / (2 ** level)
            n_steps = int(round(1.0 / (dx * dx / 4.0)))
            lat = build_lattice(p, n_steps, -6, 6, int(round(12 / dx)) + 1)
            surf = value_backward_induction(p, lat, "supinf")
            slopes.append(float(np.max(np.abs(np.diff(surf.W, axis=1))) / dx))
        # value is x^2 + sig^2 (T-t): slope bounded by 2 * |x|_max plus dust
        assert max(slopes) <= 13.0

    def test_terminal_outside_the_obstacles_is_rejected(self):
        p = scalar_problem(l_hi=lambda t, x: np.full(np.shape(x)[:-1], 1.0))
        lat = build_lattice(p, 50, -2.0, 2.0, 21)  # h = x reaches 2 > l_hi
        with pytest.raises(ProblemError, match="terminal layer"):
            value_backward_induction(p, lat, "supinf")
        with pytest.raises(ProblemError, match="terminal layer"):
            solve_drbsde_lattice(p, lat)

    def test_comparison_consistency_with_drbsde_solver(self):
        # singleton controls: game induction and the backward solver agree
        p = make_preset("dynkin-flat", {"l_lo": -0.4, "l_hi": 0.6, "h": 0.1})
        lat = build_lattice(p, 80, -3, 3, 31)
        surf = value_backward_induction(p, lat, "supinf")
        sol = solve_drbsde_lattice(p, lat)
        assert np.array_equal(surf.W, sol.Y)

    def test_surface_csv_format(self, tmp_path):
        p = make_preset("dynkin-flat", {"T": 0.25})
        lat = build_lattice(p, 4, -1, 1, 9)
        surf = value_backward_induction(p, lat, "supinf")
        surf.to_csv(tmp_path / "surface.csv")
        lines = (tmp_path / "surface.csv").read_text().strip().split("\n")
        assert lines[0] == "time,x,value,kind"
        assert len(lines) == 1 + 5 * 9
        assert lines[1].endswith(",lower-game")


class TestDynkin:
    def test_trivial_flat_game(self):
        grid = TimeGrid(0.0, 1.0, 3)
        tree = BinaryTree(grid=grid, x0=0.0, dx=0.7)
        val = dynkin_brute_force(
            tree,
            lambda t, x: np.full(np.shape(x)[:-1], -1.0),
            lambda t, x: np.full(np.shape(x)[:-1], 1.0),
            lambda x: np.zeros(np.shape(x)[:-1]))
        assert val == 0.0

    def test_depth_one_maximizer_stops(self):
        # continuation value 0 < 0.2 at the root: maximizer claims l_lo
        grid = TimeGrid(0.0, 1.0, 1)
        tree = BinaryTree(grid=grid, x0=0.0, dx=1.0)
        val = dynkin_brute_force(
            tree,
            lambda t, x: np.full(np.shape(x)[:-1], 0.2),
            lambda t, x: np.full(np.shape(x)[:-1], 1e6),
            lambda x: x[..., 0])
        assert abs(val - 0.2) < 1e-15

    def test_depth_one_minimizer_stops(self):
        grid = TimeGrid(0.0, 1.0, 1)
        tree = BinaryTree(grid=grid, x0=0.0, dx=1.0)
        val = dynkin_brute_force(
            tree,
            lambda t, x: np.full(np.shape(x)[:-1], -1e6),
            lambda t, x: np.full(np.shape(x)[:-1], -0.2),
            lambda x: x[..., 0])
        assert abs(val - (-0.2)) < 1e-15

    def test_depth_limit(self):
        grid = TimeGrid(0.0, 1.0, 5)
        tree = BinaryTree(grid=grid, x0=0.0, dx=1.0)
        with pytest.raises(ProblemError, match="depth"):
            dynkin_brute_force(tree, lambda t, x: x[..., 0] - 1,
                               lambda t, x: x[..., 0] + 1, lambda x: x[..., 0])

    def test_stopping_rule_counts(self):
        from drgame import enumerate_stopping_rules
        # S(m) = 1 + S(m-1)^2: every adapted rule is stop-now or a free
        # pair of sub-rules on the two subtrees
        for depth, count in ((1, 2), (2, 5), (3, 26), (4, 677)):
            rules = enumerate_stopping_rules(depth)
            assert rules.shape == (count, 2 ** depth)
            assert rules.min() == 0 and rules.max() == depth
            # adaptedness: two leaves sharing a prefix stop together on it
            for r in rules[: min(50, count)]:
                for leaf in range(2 ** depth):
                    lvl = r[leaf]
                    if lvl == depth:
                        continue
                    shift = depth - lvl
                    same_prefix = np.arange(2 ** depth) >> shift == leaf >> shift
                    assert np.all(r[same_prefix] == lvl)

    def test_martingale_value_inside_cone(self):
        p = scalar_problem(T=0.09, sig=1.0)
        # dt = dx^2 exactly: 9 steps, dx = 0.1; 41 nodes leave a wide margin
        lat = build_lattice(p, 9, -2.0, 2.0, 41)
        surf = value_backward_induction(p, lat, "supinf")
        center = 20
        cone = slice(center - 9, center + 10)
        assert np.allclose(surf.W[0][cone], lat.x_nodes[cone], atol=1e-12)

    def test_two_step_lower_obstacle_game_matches_brute_force(self):
        p = scalar_problem(
            T=0.4, sig=1.0 / np.sqrt(0.2),
            h=lambda x: x[..., 0],
            l_lo=lambda t, x: x[..., 0] - 0.3,
            l_hi=lambda t, x: x[..., 0] + 1e6,
            gamma=3.0)
        dx = 1.0
        lat = build_lattice(p, 2, -4.0, 4.0, 9)
        tree = BinaryTree(grid=lat.grid, x0=0.0, dx=dx)
        rec = value_backward_induction(p, lat, "supinf").W[0, 4]
        bf = dynkin_brute_force(tree, p.lower_obstacle, p.upper_obstacle,
                                p.terminal)
        assert abs(rec - bf) < 1e-12

    def test_oracle_corpus_agreement(self):
        cases = dynkin_oracle_corpus(n_trees=12, seed=7)
        for case in cases:
            assert abs(case.recursion_value() - case.brute_force_value()) <= 1e-12


def reference_rules(depth):
    """Stopping rules row by row: stop now, then each pair of sub-rules."""
    if depth == 0:
        return np.zeros((1, 1), dtype=np.int64)
    sub = reference_rules(depth - 1)
    rows = [np.zeros(2 * sub.shape[1], dtype=np.int64)]
    for a in range(len(sub)):
        for b in range(len(sub)):
            rows.append(np.concatenate([sub[a] + 1, sub[b] + 1]))
    return np.stack(rows)


def reference_brute_force(tree, l_lo, l_hi, h):
    """dynkin_brute_force with per-level leaf loops and the payoff matrix
    summed leaf by leaf over the whole matrix: the bits the blocked
    accumulation must reproduce."""
    N, n_leaves = tree.depth, 1 << tree.depth
    leaves, knots = np.arange(n_leaves), tree.grid.knots
    X = np.empty((n_leaves, N + 1))
    X[:, 0] = tree.x0
    ups = np.zeros(n_leaves, dtype=np.int64)
    for m in range(N):
        X[:, m + 1] = X[:, m] + tree.dx * (2 * ((leaves >> (N - 1 - m)) & 1) - 1)
        ups += (leaves >> m) & 1
    wts = tree.p_up ** ups * (1.0 - tree.p_up) ** (N - ups)
    P = np.empty((len(X), N + 1, N + 1))
    for ta in range(N + 1):
        for sb in range(N + 1):
            if min(ta, sb) == N:
                P[:, ta, sb] = h(X[:, [N]])
            elif ta <= sb:
                P[:, ta, sb] = l_lo(float(knots[ta]), X[:, [ta]])
            else:
                P[:, ta, sb] = l_hi(float(knots[sb]), X[:, [sb]])
    rules = reference_rules(N)
    M = np.zeros((len(rules), len(rules)))
    for leaf in range(len(X)):
        flat = P[leaf].ravel()
        M += wts[leaf] * flat[rules[:, leaf][:, None] * (N + 1) + rules[None, :, leaf]]
    return float(M.min(axis=1).max())


class TestDynkinGolden:
    @pytest.mark.parametrize("seed", [3227, 6073])
    def test_brute_force_matches_the_leaf_by_leaf_sum(self, seed):
        for case in dynkin_oracle_corpus(n_trees=40, seed=seed):
            p = case.problem
            args = (case.tree, p.lower_obstacle, p.upper_obstacle, p.terminal)
            assert dynkin_brute_force(*args).hex() == reference_brute_force(*args).hex()

    def test_stopping_rules_match_the_row_by_row_enumeration(self):
        from drgame import enumerate_stopping_rules
        for depth in range(5):
            assert same_bits(enumerate_stopping_rules(depth), reference_rules(depth))


class TestDpp:
    def test_matched_identity_on_presets(self):
        for name in ("dynkin-flat", "uncertain-volatility", "linear-quadratic"):
            p = make_preset(name, {})
            lat = build_lattice(p, 64, -4, 4, 33)
            for j in (1, 32, 63):
                t_mid = float(lat.grid.knots[j])
                rep = dpp_check(p, lat, t_mid, "supinf", 0.0)
                assert abs(rep.direct - rep.matched) <= 1e-12

    def test_split_halves_keep_the_parent_arithmetic(self):
        # the halves' own dt differs from the parent's by ulps at most of
        # these knots; stepping on the parent's clock keeps the gap at 0
        for name in ("linear-quadratic", "uncertain-volatility"):
            p = make_preset(name, {"T": 0.7})
            lat = build_lattice(p, 777, -6, 6, 121)
            for j in (2, 3, 5, 7, 388):
                t_mid = float(lat.grid.knots[j])
                for order in ("supinf", "infsup"):
                    rep = dpp_check(p, lat, t_mid, order, 0.0)
                    assert abs(rep.direct - rep.matched) == 0.0, (name, j, order)

    def test_interior_knot_required(self):
        p = make_preset("dynkin-flat", {})
        lat = build_lattice(p, 25, -2, 2, 21)
        with pytest.raises(ProblemError):
            dpp_check(p, lat, 0.0, "supinf", 0.0)
        with pytest.raises(ProblemError):
            dpp_check(p, lat, 0.55, "supinf", 0.0)

    @pytest.mark.parametrize("t_mid", [np.nan, np.inf, -np.inf, 1e308])
    def test_non_finite_t_mid_is_not_a_knot(self, t_mid):
        p = make_preset("dynkin-flat", {})
        lat = build_lattice(p, 25, -2, 2, 21)
        with pytest.raises(ProblemError, match="is not a knot"):
            lat.grid.index_of(t_mid)
        with pytest.raises(ProblemError, match="is not a knot"):
            dpp_check(p, lat, t_mid, "supinf", 0.0)

    def test_report_holds_the_three_roots(self):
        assert [f.name for f in fields(DppReport)] == ["direct", "matched", "refined"]
        p = make_preset("uncertain-volatility", {})
        lat = build_lattice(p, 100, -2.0, 3.0, 21)
        rep = dpp_check(p, lat, 0.5, "infsup", 0.0)
        assert rep.matched == rep.direct
        assert rep.refined != rep.direct  # a consistency gap, not an identity

    def test_non_interior_knot_is_rejected_before_any_solve(self, monkeypatch):
        from drgame import game
        calls = []
        solve = game.value_backward_induction
        monkeypatch.setattr(game, "value_backward_induction",
                            lambda *a, **k: calls.append(a) or solve(*a, **k))
        p = make_preset("dynkin-flat", {})
        lat = build_lattice(p, 25, -2, 2, 21)
        for t_mid in (lat.grid.t0, lat.grid.T):
            with pytest.raises(ProblemError, match="strictly interior"):
                dpp_check(p, lat, t_mid, "supinf", 0.0)
        assert calls == []

    def test_cross_resolution_gap_shrinks(self):
        p = replace(make_preset("uncertain-volatility", {}),
                    terminal=lambda x: np.cos(x[..., 0]))
        gaps = []
        for dx, steps in ((0.2, 100), (0.1, 400)):
            lat = build_lattice(p, steps, -10, 10, int(round(20 / dx)) + 1)
            rep = dpp_check(p, lat, 0.5, "supinf", 0.0)
            gaps.append(abs(rep.direct - rep.refined))
        assert gaps[1] <= gaps[0] / 2.0

ROOT_ROUTES = ["ValueSurface.root", "dpp_check", "dpp_check.refined",
               "cross_check", "refinement_study"]


class TestRootReader:
    @staticmethod
    def roots(route, x0):
        """(root, nodes, initial layer) for each root ``route`` reports at x0,
        on [-2, 3] with 21 nodes, where x = 0 is node 8, not the middle one."""
        p = make_preset("uncertain-volatility", {})
        lat = build_lattice(p, 100, -2.0, 3.0, 21)
        surf = value_backward_induction(p, lat, "supinf")
        x, W0 = lat.x_nodes, surf.W[0]
        if route == "ValueSurface.root":
            return [(surf.root(x0), x, W0)]
        if route == "dpp_check":
            rep = dpp_check(p, lat, 0.5, "supinf", x0)
            return [(rep.direct, x, W0), (rep.matched, x, W0)]
        if route == "dpp_check.refined":
            rep = dpp_check(p, lat, 0.5, "supinf", x0)
            head, tail = lat.split(lat.grid.index_of(0.5))
            fine = _refine(p, tail)
            fine_mid = value_backward_induction(p, fine, "supinf").W[0]
            refined = value_backward_induction(
                p, head, "supinf", terminal=np.interp(x, fine.x_nodes, fine_mid))
            return [(rep.direct, x, W0), (rep.refined, x, refined.W[0])]
        w = solve_obstacle_pde(p, lat, "supinf")
        if route == "cross_check":
            rep = cross_check(p, lat, "supinf", x0)
            return [(rep.lattice_root, x, W0), (rep.pde_root, x, w.W[0])]
        study = refinement_study(p, lat, w, "supinf", x0, levels=2)
        fine = solve_obstacle_pde(p, build_lattice(p, 400, -2.0, 3.0, 41), "supinf")
        return [(study.roots[0], x, w.W[0]), (study.roots[1], fine.x_nodes, fine.W[0])]

    @pytest.mark.parametrize("route", ROOT_ROUTES)
    @pytest.mark.parametrize("x0", [3.5, -2.5, np.nan, 0.0, 0.1],
                             ids=["above", "below", "nan", "node", "between"])
    def test_every_grid_route_reads_its_root_at_x0(self, route, x0):
        if not -2.0 <= x0 <= 3.0:
            with pytest.raises(ProblemError, match="outside the grid"):
                self.roots(route, x0)
            return
        for root, x, layer in self.roots(route, x0):
            node = x == x0
            expect = layer[node][0] if node.any() else np.interp(x0, x, layer)
            assert root.hex() == float(expect).hex(), route

    def test_a_lattice_drbsde_solution_has_no_single_root(self):
        p = make_preset("dynkin-flat", {})
        sol = solve_drbsde_lattice(p, build_lattice(p, 50, -6, 6, 41))
        with pytest.raises(ProblemError, match="root_at"):
            sol.root
        assert sol.root_at(20) == sol.Y[0, 20]


class TestOccupancy:
    @pytest.mark.parametrize("root", [True, False, np.True_, 2.0])
    def test_root_index_must_be_an_integer(self, root):
        lat = build_lattice(make_preset("dynkin-flat", {}), 50, -2, 2, 21)
        with pytest.raises(ProblemError, match="root_index must be an integer"):
            lattice_occupancy(lat, root_index=root)

    def test_distribution_is_normalized(self):
        p = make_preset("dynkin-flat", {})
        lat = build_lattice(p, 50, -6, 6, 41)
        pi, folded = lattice_occupancy(lat, root_index=20)
        assert np.allclose(pi.sum(axis=1), 1.0, atol=1e-12)
        assert folded < 1e-6  # six-sigma domain: edges unreachable in probability

    def test_folded_mass_reported_for_narrow_domain(self):
        p = make_preset("dynkin-flat", {})
        lat = build_lattice(p, 100, -1.0, 1.0, 21)
        _, folded = lattice_occupancy(lat, root_index=10)
        assert folded > 1e-3

    def test_the_chain_starts_at_root_index(self):
        # x0 = 0 on [-2, 3] is node 8 of 21, not the middle node 10
        lat = build_lattice(make_preset("dynkin-flat", {}), 50, -2, 3, 21)
        pi, _ = lattice_occupancy(lat, root_index=8)
        assert lat.x_nodes[8] == 0.0
        assert pi[0].tolist() == [float(i == 8) for i in range(21)]
        with pytest.raises(TypeError, match="root_index"):
            lattice_occupancy(lat)

    @pytest.mark.parametrize("root", [-1, 41, 2.0])
    def test_root_index_outside_the_nodes_is_rejected(self, root):
        lat = build_lattice(make_preset("dynkin-flat", {}), 50, -6, 6, 41)
        with pytest.raises(ProblemError, match="root_index"):
            lattice_occupancy(lat, root_index=root)

    def test_fractional_node_controls_are_rejected(self):
        lat = build_lattice(make_preset("linear-quadratic", {}), 50, -4, 4, 21)
        for mu in (0.9, np.full((50, 21), 1.0)):
            with pytest.raises(ProblemError, match="mu control indices must be integers"):
                lattice_occupancy(lat, mu=mu, root_index=10)
