import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from pathlib import Path

from drgame import ProblemError, cli, game, make_preset, pde
from drgame.cli import (ConfigError, RunConfig, SUBCOMMANDS, main,
                        parse_config, run, serialize_config)

MINIMAL = "[problem]\npreset = dynkin-flat\n"


def tiny_cfg(tmp_path, **over):
    cfg = RunConfig(out_dir=str(tmp_path / "out"))
    cfg.n_steps = 25
    cfg.n_nodes = 21
    cfg.x_min, cfg.x_max = -2.0, 2.0
    cfg.n_paths = 300
    cfg.samples = 200
    cfg.trials = 20
    for k, v in over.items():
        setattr(cfg, k, v)
    return cfg


class TestParse:
    def test_minimal_document_gets_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg == RunConfig()

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# top\n\n[problem]\npreset = dynkin-flat # inline\n")
        assert cfg.preset == "dynkin-flat"

    def test_preset_params_are_typed(self):
        cfg = parse_config("[problem]\npreset = uncertain-volatility\n"
                           "sigma_hi = 3.0\nh = square\n")
        assert cfg.problem_params == {"sigma_hi": 3.0, "h": "square"}

    def test_numeric_terminal_allowed(self):
        cfg = parse_config("[problem]\npreset = dynkin-flat\nh = 0.25\n")
        assert cfg.problem_params["h"] == 0.25

    def test_negative_step_count_rejected(self):
        with pytest.raises(ConfigError, match="n_steps"):
            parse_config(MINIMAL + "[grid]\nn_steps = -1\n")

    def test_unknown_key_is_fatal_with_line_number(self):
        with pytest.raises(ConfigError, match="line 3"):
            parse_config("[grid]\nn_steps = 10\nn_stepz = 10\n")

    def test_unknown_preset_key_is_fatal(self):
        with pytest.raises(ConfigError, match="sigma_hi"):
            parse_config("[problem]\npreset = dynkin-flat\nsigma_hi = 2.0\n")

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config("[grids]\nn_steps = 10\n")

    def test_type_mismatch(self):
        with pytest.raises(ConfigError, match="integer"):
            parse_config("[grid]\nn_steps = 2.5\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("[grid]\nn_steps = 5\nn_steps = 6\n")

    def test_key_outside_section(self):
        with pytest.raises(ConfigError, match="outside"):
            parse_config("n_steps = 5\n")

    def test_q_constraint(self):
        with pytest.raises(ConfigError, match="q"):
            parse_config("[problem]\npreset = dynkin-flat\nq = 2.5\n")

    def test_unknown_preset_name(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            parse_config("[problem]\npreset = nope\n")


@st.composite
def config_documents(draw):
    preset = draw(st.sampled_from(["dynkin-flat", "uncertain-volatility"]))
    lines = ["[problem]", f"preset = {preset}"]
    if preset == "uncertain-volatility" and draw(st.booleans()):
        lines.append(f"sigma_hi = {draw(st.floats(2.0, 9.0))!r}")
    lines.append("[grid]")
    lines.append(f"n_steps = {draw(st.integers(1, 500))}")
    lines.append(f"x_min = {draw(st.floats(-9.0, -1.0))!r}")
    if draw(st.booleans()):
        lines.append("[mc]")
        lines.append(f"seed = {draw(st.integers(-10**6, 10**6))}")
    return "\n".join(lines) + "\n"


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(config_documents())
    def test_serialize_then_parse_is_identity(self, doc):
        cfg = parse_config(doc)
        again = parse_config(serialize_config(cfg))
        assert again == cfg


class TestRun:
    def test_validate_every_preset(self, tmp_path):
        for i, preset in enumerate(["dynkin-flat", "uncertain-volatility",
                                    "bsb-convex", "linear-quadratic"]):
            cfg = tiny_cfg(tmp_path, preset=preset,
                           out_dir=str(tmp_path / f"v{i}"))
            assert run("validate", cfg) == 0
            text = (tmp_path / f"v{i}" / "validation.csv").read_text()
            assert text.startswith("assumption,max_ratio,pass")

    def test_simulate_writes_paths(self, tmp_path):
        cfg = tiny_cfg(tmp_path, n_paths=20)
        assert run("simulate", cfg) == 0
        states = (tmp_path / "out" / "states.csv").read_text()
        assert states.splitlines()[0] == "path,step,coord,value"

    def test_drbsde_lattice_and_lsmc(self, tmp_path):
        cfg = tiny_cfg(tmp_path)
        assert run("drbsde", cfg) == 0
        header = (tmp_path / "out" / "drbsde.csv").read_text().splitlines()[0]
        assert header == "time,point,Y,Z0,K_lo,K_hi"
        cfg2 = tiny_cfg(tmp_path, mode="lsmc", out_dir=str(tmp_path / "o2"))
        assert run("drbsde", cfg2) == 0

    def test_lsmc_manifest_records_the_regression_diagnostics(self, tmp_path):
        assert run("drbsde", tiny_cfg(tmp_path, mode="lsmc")) == 0
        lines = (tmp_path / "out" / "run.txt").read_text().splitlines()
        items = dict(line.split("=", 1) for line in lines)
        # dynkin-flat: the two constant obstacle columns duplicate the intercept
        assert items["diag.lsmc_rank_min"] == "4"
        assert items["diag.lsmc_fallbacks"] == "0"
        assert 1.0 <= float(items["diag.lsmc_cond_max"]) < 1e3
        assert run("drbsde", tiny_cfg(tmp_path, out_dir=str(tmp_path / "lat"))) == 0
        assert "diag.lsmc" not in (tmp_path / "lat" / "run.txt").read_text()

    def test_value_and_pde_and_crosscheck(self, tmp_path):
        for sub in ("value", "pde", "crosscheck"):
            cfg = tiny_cfg(tmp_path, out_dir=str(tmp_path / sub))
            assert run(sub, cfg) == 0
        cc = (tmp_path / "crosscheck" / "crosscheck.csv").read_text()
        assert cc.splitlines()[0] == "lattice_root,pde_root,rel_gap"
        conv = (tmp_path / "pde" / "convergence.csv").read_text()
        assert conv.splitlines()[0] == "resolution,root_value,diff"

    def test_grid_subcommands_run_on_the_defaults(self, tmp_path):
        for sub in ("value", "pde", "drbsde", "crosscheck", "dpp-check"):
            cfg = RunConfig(out_dir=str(tmp_path / sub))
            assert run(sub, cfg) == 0, sub
            assert (tmp_path / sub / "run.txt").is_file()

    def test_grid_manifests_record_the_lattice_diagnostics(self, tmp_path):
        # dynkin-flat: sigma = 1 and no drift on the default 500 x 41 grid
        cfg = RunConfig()
        dt, dx = 1.0 / cfg.n_steps, (cfg.x_max - cfg.x_min) / (cfg.n_nodes - 1)
        gamma = make_preset(cfg.preset, {}).lipschitz
        for sub in ("value", "pde", "crosscheck", "dpp-check", "drbsde"):
            assert run(sub, RunConfig(out_dir=str(tmp_path / sub))) == 0, sub
            lines = (tmp_path / sub / "run.txt").read_text().splitlines()
            items = dict(line.split("=", 1) for line in lines)
            assert items["diag.time_homogeneous"] == "true", sub
            assert items["diag.broadcast_controls"] == "true", sub
            assert float(items["diag.cfl_diffusion"]) == pytest.approx(dt / dx ** 2), sub
            assert float(items["diag.cfl_drift"]) == 0.0, sub
            assert float(items["diag.gamma_dt"]) == pytest.approx(gamma * dt), sub

    def test_pde_cfl_violation_exits_2(self, tmp_path):
        conf = tmp_path / "bad.ini"
        conf.write_text(MINIMAL + "[grid]\nn_steps = 5\nn_nodes = 41\n")
        code = main(["pde", "--config", str(conf), "--out", str(tmp_path / "o")])
        assert code == 2

    def test_failed_run_leaves_its_manifest(self, tmp_path):
        conf = tmp_path / "bad.ini"
        conf.write_text(MINIMAL + "[grid]\nn_steps = 5\nn_nodes = 41\n")
        out = tmp_path / "o"
        assert main(["value", "--config", str(conf), "--out", str(out)]) == 2
        lines = (out / "run.txt").read_text().splitlines()
        manifest = dict(line.split("=", 1) for line in lines)
        assert manifest["status"] == "2"
        assert manifest["error"].startswith("CFL violation")
        assert manifest["subcommand"] == "value"
        assert manifest["grid.n_steps"] == "5"

    def test_problem_error_manifest_has_status_3(self, tmp_path):
        cfg = tiny_cfg(tmp_path, problem_params={"l_lo": 2.0})
        with pytest.raises(ProblemError):
            run("value", cfg)
        manifest = (tmp_path / "out" / "run.txt").read_text().splitlines()
        assert "status=3" in manifest
        assert any(line.startswith("error=obstacle separation") for line in manifest)

    def test_dynkin_oracle(self, tmp_path):
        cfg = tiny_cfg(tmp_path)
        assert run("dynkin-oracle", cfg) == 0
        lines = (tmp_path / "out" / "oracle.csv").read_text().splitlines()
        assert lines[0] == "tree,depth,recursion_value,brute_force_value,abs_diff"
        assert len(lines) >= 21
        assert all(float(line.split(",")[-1]) <= 1e-12 for line in lines[1:])

    def test_dpp_check(self, tmp_path):
        cfg = tiny_cfg(tmp_path)
        assert run("dpp-check", cfg) == 0

    def test_dpp_check_solves_the_full_lattice_once(self, tmp_path, monkeypatch):
        # full, tail and head of the matched route; fine tail and head of
        # the refined route, which reuses the matched route's direct value
        calls = []
        solve = game.value_backward_induction

        def spy(p, lat, order, **kw):
            calls.append((lat.grid.t0, lat.grid.n_steps))
            return solve(p, lat, order, **kw)

        monkeypatch.setattr(game, "value_backward_induction", spy)
        assert run("dpp-check", RunConfig(out_dir=str(tmp_path))) == 0
        assert len(calls) == 5, calls
        assert calls.count((0.0, 500)) == 1, calls

    def test_pde_solves_its_base_lattice_once(self, tmp_path, monkeypatch):
        # the 500 x 41 surface is level 0 of the refinement study too
        builds, solves = [], []

        def spies(mod):
            build, solve = mod.build_lattice, mod.solve_obstacle_pde

            def build_spy(p, n_steps, x_min, x_max, n_nodes, **kw):
                builds.append((n_steps, n_nodes))
                return build(p, n_steps, x_min, x_max, n_nodes, **kw)

            def solve_spy(p, g, order):
                solves.append((g.grid.n_steps, g.n_nodes))
                return solve(p, g, order)

            monkeypatch.setattr(mod, "build_lattice", build_spy)
            monkeypatch.setattr(mod, "solve_obstacle_pde", solve_spy)

        for mod in (cli, pde):
            spies(mod)
        assert run("pde", RunConfig(out_dir=str(tmp_path))) == 0
        assert builds == solves == [(500, 41), (2000, 81)]
        rows = (tmp_path / "convergence.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in rows[1:]] == ["500x41", "2000x81"]

    def test_sqrt_check(self, tmp_path):
        cfg = tiny_cfg(tmp_path, trials=30)
        assert run("sqrt-check", cfg) == 0
        lines = (tmp_path / "out" / "sqrt.csv").read_text().splitlines()
        assert lines[0] == "trial,residual"
        assert len(lines) == 31

    def test_manifest_lists_every_setting(self, tmp_path):
        cfg = tiny_cfg(tmp_path)
        run("validate", cfg)
        manifest = (tmp_path / "out" / "run.txt").read_text()
        for key in ("subcommand=validate", "tool_version=", "threads=",
                    "wall_time_s=", "problem.preset=dynkin-flat",
                    "grid.n_steps=25", "grid.n_nodes=21", "grid.x_min=",
                    "grid.x_max=", "grid.x0=", "mc.n_paths=300", "mc.seed=",
                    "mc.samples=200", "solver.order=", "solver.mode=",
                    "solver.basis_degree=", "solver.t_mid=", "solver.trials=",
                    "output.dir="):
            assert key in manifest, key

    def test_unknown_subcommand(self, tmp_path):
        with pytest.raises(ConfigError):
            run("frobnicate", tiny_cfg(tmp_path))

    def test_run_is_reexecutable_from_its_manifest(self, tmp_path):
        cfg = tiny_cfg(tmp_path, preset="uncertain-volatility",
                       problem_params={"sigma_hi": 2.5}, n_steps=160,
                       out_dir=str(tmp_path / "first"))
        assert run("value", cfg) == 0
        manifest = (tmp_path / "first" / "run.txt").read_text()

        # rebuild a config document from the manifest's section.key lines
        sections = {}
        for line in manifest.splitlines():
            key, _, value = line.partition("=")
            if "." in key:
                section, name = key.split(".", 1)
                if section in ("problem", "grid", "mc", "solver", "output"):
                    sections.setdefault(section, []).append(f"{name} = {value}")
        doc = "\n".join(f"[{s}]\n" + "\n".join(rows)
                        for s, rows in sections.items())
        cfg2 = parse_config(doc)
        cfg2.out_dir = str(tmp_path / "second")
        assert run("value", cfg2) == 0
        a = (tmp_path / "first" / "surface.csv").read_bytes()
        b = (tmp_path / "second" / "surface.csv").read_bytes()
        assert a == b


class TestMainEntry:
    def test_bad_config_path_is_exit_3(self, tmp_path):
        assert main(["validate", "--config", str(tmp_path / "missing.ini")]) == 3

    def test_config_error_is_exit_3(self, tmp_path):
        conf = tmp_path / "c.ini"
        conf.write_text("[problem]\npreset = nope\n")
        assert main(["validate", "--config", str(conf)]) == 3

    def test_usage_error_is_exit_3(self):
        assert main(["definitely-not-a-subcommand"]) == 3

    def test_seed_and_out_overrides(self, tmp_path):
        conf = tmp_path / "c.ini"
        conf.write_text(MINIMAL + "[grid]\nn_steps = 25\nn_nodes = 21\n"
                        "[mc]\nsamples = 100\n")
        out = tmp_path / "ovr"
        assert main(["validate", "--config", str(conf), "--out", str(out),
                     "--seed", "9"]) == 0
        assert "mc.seed=9" in (out / "run.txt").read_text()


class TestDeterminism:
    SWEEP = ("validate", "value", "pde", "crosscheck", "dpp-check",
             "dynkin-oracle", "sqrt-check", "simulate", "drbsde")

    def _csv_bytes(self, root: Path):
        out = {}
        for f in sorted(root.rglob("*.csv")):
            out[f.relative_to(root).as_posix()] = f.read_bytes()
        return out

    def _sweep(self, base: Path, threads: int):
        for i, sub in enumerate(self.SWEEP):
            cfg = tiny_cfg(base, n_paths=150, trials=20,
                           out_dir=str(base / f"{i}_{sub}"))
            if sub == "drbsde":
                cfg.mode = "lsmc"
            status = run(sub, cfg, threads=threads)
            assert status == 0, sub

    def test_bit_identical_csv_across_runs_and_thread_hints(self, tmp_path):
        a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        self._sweep(a, threads=1)
        self._sweep(b, threads=1)
        self._sweep(c, threads=8)
        bytes_a = self._csv_bytes(a)
        assert bytes_a, "sweep produced no artifacts"
        assert bytes_a == self._csv_bytes(b)
        assert bytes_a == self._csv_bytes(c)
