"""Broadcast controls: a problem with scalar control points is called once
per callable per layer or step, and must give the per-pair bits."""

from dataclasses import replace

import numpy as np
import pytest

from drgame import (ControlGrid, ProblemError, TimeGrid, build_lattice,
                    constant_controls, euler_forward, lattice_occupancy,
                    make_preset, preset_names, simulate_brownian,
                    solve_drbsde_lattice, solve_drbsde_lsmc, solve_obstacle_pde,
                    validate_problem, value_backward_induction)
from drgame import cli
from drgame.model import _scalar_controls


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def wide_linear_quadratic():
    """linear-quadratic on 21 x 21 control grids."""
    p = make_preset("linear-quadratic", {})
    return replace(p, name="linear-quadratic-21",
                   u_grid=ControlGrid(points=tuple(np.linspace(-1.0, 1.0, 21))),
                   v_grid=ControlGrid(points=tuple(np.linspace(1.0, 2.0, 21))))


def one_element_points(p):
    """``p`` with each scalar control point as a 1-element array: the solvers
    then call every callable once per control pair in use."""
    return replace(p, **{g: replace(getattr(p, g), points=tuple(
        np.array([u]) for u in getattr(p, g).points)) for g in ("u_grid", "v_grid")})


PROBLEMS = [make_preset(name, {}) for name in preset_names()] + [wide_linear_quadratic()]


@pytest.fixture(params=PROBLEMS, ids=lambda p: p.name)
def both(request):
    """A problem with scalar control points and its per-pair reference."""
    p = request.param
    return p, one_element_points(p)


class TestBothPathsGiveTheSameBits:
    N_STEPS, N_NODES = 120, 41

    def lattices(self, both):
        return [build_lattice(p, self.N_STEPS, -4, 4, self.N_NODES) for p in both]

    def test_lattice_construction(self, both):
        a, b = self.lattices(both)
        assert a.cfl == b.cfl
        for name, arr in b.shared_stencil.arrays().items():
            assert same_bits(getattr(a.shared_stencil, name), arr), name

    def test_value_induction_in_both_orders_and_the_pde_sweep(self, both):
        (p, q), (lat_p, lat_q) = both, self.lattices(both)
        for order in ("supinf", "infsup"):
            assert same_bits(value_backward_induction(p, lat_p, order).W,
                             value_backward_induction(q, lat_q, order).W), order
            assert same_bits(solve_obstacle_pde(p, lat_p, order).W,
                             solve_obstacle_pde(q, lat_q, order).W), order

    def test_drbsde_lattice_and_occupancy_with_fixed_and_mixed_tables(self, both):
        (p, q), (lat_p, lat_q) = both, self.lattices(both)
        rng = np.random.default_rng(3)
        shape = (self.N_STEPS, self.N_NODES)
        nu, nv = p.u_grid.size, p.v_grid.size
        for mu, nu_ in [(0, 0), (nu - 1, nv - 1),
                        (rng.integers(0, nu, shape), rng.integers(0, nv, shape)),
                        (rng.integers(0, nu, shape), nv - 1)]:
            a = solve_drbsde_lattice(p, lat_p, mu, nu_)
            b = solve_drbsde_lattice(q, lat_q, mu, nu_)
            for field in ("Y", "Z", "K_lo", "K_hi"):
                assert same_bits(getattr(a, field), getattr(b, field)), field
            pi_a, fold_a = lattice_occupancy(lat_p, mu, nu_, root_index=3)
            pi_b, fold_b = lattice_occupancy(lat_q, mu, nu_, root_index=3)
            assert same_bits(pi_a, pi_b) and fold_a == fold_b

    def test_lsmc_on_paths_with_mixed_controls(self, both):
        p, q = both
        n_paths, n_steps = 400, 10
        grid = TimeGrid(0.0, p.horizon, n_steps)
        rng = np.random.default_rng(8)
        controls = [
            (constant_controls(n_paths, n_steps), constant_controls(n_paths, n_steps)),
            (rng.integers(0, p.u_grid.size, (n_paths, n_steps)),
             rng.integers(0, p.v_grid.size, (n_paths, n_steps))),
        ]
        ens = simulate_brownian(grid, n_paths, 1, seed=5)
        for mu, nu in controls:
            states = euler_forward(p, ens, [0.1], mu, nu)
            assert same_bits(states.X, euler_forward(q, ens, [0.1], mu, nu).X)
            a = solve_drbsde_lsmc(p, states, mu, nu, se_batches=4)
            b = solve_drbsde_lsmc(q, states, mu, nu, se_batches=4)
            assert same_bits(a.Y, b.Y) and same_bits(a.Z, b.Z)
            assert a.se_root == b.se_root


class TestDeclaration:
    LQ = make_preset("linear-quadratic", {})

    @staticmethod
    def counted(p, calls):
        """``p`` with drift and diffusion that count their calls in ``calls``."""
        def wrap(name):
            def fn(t, x, u, v):
                calls[name] += 1
                return getattr(p, name)(t, x, u, v)
            return fn
        return replace(p, drift=wrap("drift"), diffusion=wrap("diffusion"))

    def test_array_valued_control_points_take_the_per_pair_path(self):
        pairs_of_points = ControlGrid(points=((0.0, 1.0), (1.0, 0.0)))
        assert not _scalar_controls(replace(self.LQ, u_grid=pairs_of_points))
        calls = {"drift": 0, "diffusion": 0}
        build_lattice(self.counted(one_element_points(self.LQ), calls), 50, -4, 4, 21)
        assert calls == {"drift": 50 * 4, "diffusion": 50 * 4}
        # a generator written for one point runs, and validates, on such grids
        p = one_element_points(replace(self.LQ, generator=self.item_generator))
        value_backward_induction(p, build_lattice(p, 50, -4, 4, 21), "supinf")
        assert validate_problem(p, samples=50, seed=1).passed

    def test_each_callable_is_called_once_per_knot_by_the_scan(self):
        calls = {"drift": 0, "diffusion": 0}
        build_lattice(self.counted(self.LQ, calls), 50, -4, 4, 21)
        assert calls == {"drift": 50, "diffusion": 50}

    def test_euler_calls_each_coefficient_once_per_step(self):
        p = wide_linear_quadratic()
        n_paths, n_steps = 2000, 50
        rng = np.random.default_rng(2)
        mu = rng.integers(0, p.u_grid.size, (n_paths, n_steps))
        nu = rng.integers(0, p.v_grid.size, (n_paths, n_steps))
        ens = simulate_brownian(TimeGrid(0.0, p.horizon, n_steps), n_paths, 1, seed=4)
        calls = {"drift": 0, "diffusion": 0}
        euler_forward(self.counted(p, calls), ens, [0.0], mu, nu)
        assert calls == {"drift": n_steps, "diffusion": n_steps}

    @staticmethod
    def item_generator(t, x, y, z, u, v):
        return 0.5 * x[..., 0] + 1.0 * u.item() * (v.item() - 1.5)

    @staticmethod
    def float_u_generator(t, x, y, z, u, v):
        # the preset's generator before it took arrays
        return 0.5 * x[..., 0] + 1.0 * float(u) * (float(v) - 1.5)

    @staticmethod
    def misaligned_generator(t, x, y, z, u, v):
        # (nU, m) for every pair at once, which broadcasts as (1, nU, m)
        return np.squeeze(u)[..., None] * x[..., 0]

    @pytest.mark.parametrize("gen", ["float_u_generator", "misaligned_generator"])
    def test_validate_rejects_a_false_declaration(self, gen):
        p = replace(self.LQ, generator=getattr(self, gen))
        with pytest.raises(ProblemError, match="^generator declares broadcast controls"):
            validate_problem(p, samples=50, seed=1)

    @staticmethod
    def all_pairs_only_drift(t, x, u, v):
        # right for one point and for (nU, 1, 1, 1) points, but gathered (m, 1)
        # points become (m, 1, 1, 1)
        return 0.0 * x + np.reshape(u, (-1, 1, 1, 1) if np.ndim(u) else ())

    def test_validate_checks_the_gathered_form(self, tmp_path, monkeypatch):
        bad = replace(self.LQ, drift=self.all_pairs_only_drift)
        # the all-pairs form is right
        assert same_bits(build_lattice(bad, 50, -4, 4, 21).shared_stencil.b,
                         build_lattice(self.LQ, 50, -4, 4, 21).shared_stencil.b)
        with pytest.raises(ProblemError, match="^drift declares .* a control pair per state"):
            validate_problem(bad, samples=50, seed=1)
        monkeypatch.setattr(cli, "make_preset", lambda name, params: bad)
        conf = tmp_path / "lq.ini"
        conf.write_text("[problem]\npreset = linear-quadratic\n[mc]\nsamples = 50\n")
        out = tmp_path / "out"
        assert cli.main(["validate", "--config", str(conf), "--out", str(out)]) == 3
        assert "error=drift declares" in (out / "run.txt").read_text()

    def test_validate_names_the_callable(self):
        def diffusion(t, x, u, v):  # 2 for one pair, 1 for a grid of v
            return np.ones(np.shape(x)[:-1] + (1, 1)) * (1.0 + np.size(v) % 2)

        with pytest.raises(ProblemError, match="^diffusion declares"):
            validate_problem(replace(self.LQ, diffusion=diffusion), samples=20, seed=0)

    def test_cli_exits_3_on_a_false_declaration(self, tmp_path, monkeypatch):
        bad = replace(self.LQ, generator=self.misaligned_generator)
        monkeypatch.setattr(cli, "make_preset", lambda name, params: bad)
        conf = tmp_path / "lq.ini"
        conf.write_text("[problem]\npreset = linear-quadratic\n[mc]\nsamples = 50\n")
        out = tmp_path / "out"
        assert cli.main(["validate", "--config", str(conf), "--out", str(out)]) == 3
        manifest = (out / "run.txt").read_text()
        assert "status=3" in manifest and "error=generator declares" in manifest
