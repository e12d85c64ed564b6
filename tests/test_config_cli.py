import json

import numpy as np
import pytest

from aclab import cli, varifold
from aclab.config import example_config, load_config, parse_config
from aclab.errors import ConfigError, DomainMismatch
from aclab.geometry import build_domain
from aclab.potential import DoubleWell
from aclab.solver import Field, Solution, solve_single

SMALL = """\
[domain]
shape = interval
params = 1.0
cells = 512

[solver]
tol = 1e-10
constraint_mean = 0.0

[init]
recipe = step-x
pre_steps = 10

[sweep]
epsilons = 0.1 0.05 0.025

[diagnostics]
checks = equipartition varifold
samples = 3
fields = 2

[output]
dir = {out}
seed = 11
"""


@pytest.fixture()
def small_cfg(tmp_path):
    text = SMALL.format(out=tmp_path / "out")
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return path


class TestConfig:
    def test_example_config_parses(self):
        cfg = parse_config(example_config())
        assert cfg.shape == "interval"
        assert cfg.epsilons == (0.1, 0.05, 0.025)
        assert cfg.constraint_mean == 0.0

    def test_ascending_epsilons_rejected(self):
        text = example_config().replace("epsilons = 0.1 0.05 0.025",
                                        "epsilons = 0.025 0.05 0.1")
        with pytest.raises(ConfigError, match="descend"):
            parse_config(text)

    def test_missing_domain_block(self):
        with pytest.raises(ConfigError, match=r"\[domain\]"):
            parse_config("[solver]\ntol = 1e-8\n")

    def test_unknown_shape(self):
        with pytest.raises(ConfigError, match="shape"):
            parse_config("[domain]\nshape = hexagon\nparams = 1\ncells = 64\n")

    def test_unknown_check(self):
        text = example_config().replace(
            "checks = equipartition ratios monotonicity pohozaev "
            "boundary-energy varifold", "checks = vibes")
        with pytest.raises(ConfigError, match="vibes"):
            parse_config(text)

    def test_dt_factor_gate(self):
        text = example_config().replace("dt_factor = 0.125",
                                        "dt_factor = 0.5")
        with pytest.raises(ConfigError, match="dt_factor"):
            parse_config(text)


class TestSolutionIO:
    def test_roundtrip(self, tmp_path):
        well = DoubleWell()
        dom = build_domain("interval", (1.0,), 64)
        sol = solve_single(dom, well, 0.1, constraint=0.0, pre_steps=5)
        path = tmp_path / "s.txt"
        cli.save_solution(path, sol)
        back = cli.load_solution(path, dom)
        assert np.array_equal(back.field.values, sol.field.values)
        assert back.lam == sol.lam
        assert back.residual_norm == sol.residual_norm
        assert back.constraint == sol.constraint

    def test_domain_mismatch(self, tmp_path):
        well = DoubleWell()
        dom = build_domain("interval", (1.0,), 64)
        sol = solve_single(dom, well, 0.1, constraint=0.0, pre_steps=5)
        path = tmp_path / "s.txt"
        cli.save_solution(path, sol)
        other = build_domain("interval", (1.0,), 128)
        with pytest.raises(DomainMismatch):
            cli.load_solution(path, other)

    def test_wrong_node_count(self, tmp_path):
        well = DoubleWell()
        dom = build_domain("interval", (1.0,), 64)
        sol = solve_single(dom, well, 0.1, constraint=0.0, pre_steps=5)
        path = tmp_path / "s.txt"
        cli.save_solution(path, sol)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-5]) + "\n")
        with pytest.raises(DomainMismatch):
            cli.load_solution(path, dom)


class TestBadSolutionFiles:
    @pytest.fixture
    def saved(self, tmp_path):
        dom = build_domain("interval", (1.0,), 64)
        sol = solve_single(dom, DoubleWell(), 0.1, constraint=0.0, pre_steps=5)
        path = tmp_path / "s.txt"
        cli.save_solution(path, sol)
        return path, dom

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_value(self, saved, bad):
        path, dom = saved
        lines = path.read_text().splitlines()
        lines[7] = bad
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DomainMismatch, match="non-finite nodal"):
            cli.load_solution(path, dom)

    @pytest.mark.parametrize("key", ["epsilon", "lambda"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_header_field(self, saved, key, bad):
        path, dom = saved
        head, *rest = path.read_text().splitlines()
        head = json.loads(head)
        head[key] = bad
        path.write_text("\n".join([json.dumps(head), *rest]) + "\n")
        with pytest.raises(DomainMismatch, match="non-finite epsilon"):
            cli.load_solution(path, dom)

    @pytest.mark.parametrize("line, bad", [(7, "0.25,0.5"), (0, '{"schema": ')])
    def test_unparsable_line(self, saved, line, bad):
        path, dom = saved
        lines = path.read_text().splitlines()
        lines[line] = bad
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DomainMismatch, match="unparsable"):
            cli.load_solution(path, dom)

    def test_nan_energy_stays_legal(self, tmp_path):
        dom = build_domain("interval", (1.0,), 64)
        sol = Solution(field=Field(dom, 0.1, np.zeros(dom.n_nodes)), lam=0.0,
                       residual_norm=0.0, iterations=0)
        path = tmp_path / "s.txt"
        cli.save_solution(path, sol)
        assert '"energy": NaN' in path.read_text()
        assert np.isnan(cli.load_solution(path, dom).energy)


class TestCli:
    def test_example_config_subcommand(self, capsys):
        assert cli.main(["example-config"]) == 0
        out = capsys.readouterr().out
        parse_config(out)

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[solver]\ntol = 1e-8\n")
        assert cli.main(["solve", "--config", str(bad)]) == 2

    def test_solve_default_sweep(self, small_cfg, tmp_path):
        assert cli.main(["solve", "--config", str(small_cfg)]) == 0
        out = tmp_path / "out"
        sols = sorted(out.glob("solution_*.txt"))
        assert len(sols) == 3
        for p in sols:
            head = json.loads(p.read_text().splitlines()[0])
            assert head["residual_norm"] <= 1e-10

    def test_solve_deterministic_outputs(self, small_cfg, tmp_path):
        cli.main(["solve", "--config", str(small_cfg),
                  "--out", str(tmp_path / "a")])
        cli.main(["solve", "--config", str(small_cfg),
                  "--out", str(tmp_path / "b")])
        for name in ("summary.csv", "solution_00.txt"):
            assert (tmp_path / "a" / name).read_bytes() \
                == (tmp_path / "b" / name).read_bytes()

    def test_parallel_cold_agrees(self, small_cfg, tmp_path, monkeypatch):
        monkeypatch.setenv("AC_LAB_THREADS", "2")
        cli.main(["solve", "--config", str(small_cfg),
                  "--out", str(tmp_path / "seq")])
        cli.main(["solve", "--config", str(small_cfg), "--parallel-cold",
                  "--out", str(tmp_path / "par")])
        for name in ("solution_00.txt", "solution_01.txt"):
            a = cli.load_solution(tmp_path / "seq" / name)
            b = cli.load_solution(tmp_path / "par" / name)
            assert abs(a.energy - b.energy) < 1e-9
            assert b.residual_norm <= 1e-10

    def test_diagnose_outputs(self, small_cfg, tmp_path):
        cli.main(["solve", "--config", str(small_cfg)])
        out = tmp_path / "out"
        sols = sorted(str(p) for p in out.glob("solution_*.txt"))
        assert cli.main(["diagnose", "--config", str(small_cfg), *sols]) == 0
        assert (out / "equipartition.csv").exists()
        assert (out / "varifold_mass.csv").exists()
        rows = (out / "equipartition.csv").read_text().splitlines()
        assert rows[0] == "epsilon,kinetic,potential,ratio,xi_l1"
        assert len(rows) == 4

    def test_diagnose_empty_checks(self, small_cfg, tmp_path):
        text = (small_cfg.read_text()
                .replace("checks = equipartition varifold", "checks ="))
        cfgpath = small_cfg.parent / "empty.cfg"
        cfgpath.write_text(text)
        cli.main(["solve", "--config", str(small_cfg)])
        out = tmp_path / "out"
        sols = sorted(str(p) for p in out.glob("solution_*.txt"))
        assert cli.main(["diagnose", "--config", str(cfgpath), *sols]) == 0

    def test_diagnose_domain_mismatch_exit(self, small_cfg, tmp_path):
        cli.main(["solve", "--config", str(small_cfg)])
        out = tmp_path / "out"
        sols = sorted(str(p) for p in out.glob("solution_*.txt"))
        other = small_cfg.read_text().replace("cells = 512", "cells = 256")
        cfgpath = small_cfg.parent / "other.cfg"
        cfgpath.write_text(other)
        assert cli.main(["diagnose", "--config", str(cfgpath), *sols]) == 2

    def test_unresolvable_epsilon_exit(self, small_cfg):
        text = small_cfg.read_text().replace("epsilons = 0.1 0.05 0.025",
                                             "epsilons = 0.001")
        bad = small_cfg.parent / "tiny_eps.cfg"
        bad.write_text(text)
        assert cli.main(["solve", "--config", str(bad)]) == 2

    def test_diagnose_isolates_failures(self, small_cfg, tmp_path):
        # a pure-phase solution breaks interface sampling but not the
        # equipartition table
        well = DoubleWell()
        dom = build_domain("interval", (1.0,), 512)
        f = Field(dom, 0.05, np.ones(dom.n_nodes))
        sol = Solution(field=f, lam=0.0, residual_norm=0.0, iterations=0,
                       constraint=None, energy=0.0)
        out = tmp_path / "out"
        out.mkdir(parents=True, exist_ok=True)
        cli.save_solution(out / "pure.txt", sol)
        cfg = load_config(small_cfg)
        report = cli.cmd_diagnose(cfg, [out / "pure.txt"])
        assert len(report.tables["equipartition"]) == 1
        assert any("integrality" in str(msg) for _, msg in report.errors)


class TestSeededFaults:
    def test_tampered_potential_fails_construction(self):
        # W(1) = 0.1 violates the well invariant by name
        from aclab.errors import InvalidPotential
        with pytest.raises(InvalidPotential, match=r"W\([+-]1\)"):
            DoubleWell(kind="user-polynomial",
                       coefficients=(0.35, 0.0, -0.5, 0.0, 0.25))

    def test_perturbed_heteroclinic_fails_criterion(self, monkeypatch):
        import aclab.acceptance as acc

        def bad_jet(t, eps):
            from aclab.potential import heteroclinic_jet
            q, q1, q2 = heteroclinic_jet(t, eps)
            return q + 1e-3, q1, q2

        monkeypatch.setattr(acc, "heteroclinic_jet", bad_jet)
        ctx = acc.AcceptanceContext(seed=1)
        res = acc.criterion_2(ctx)
        assert not res.passed
        assert "ODE residual" in res.subs[0].label

    def test_perturbed_h0_fails_criterion(self, monkeypatch):
        import aclab.acceptance as acc
        from aclab.potential import EnergyConstant

        monkeypatch.setattr(
            acc, "compute_h0",
            lambda well: EnergyConstant(h0=0.95, quadrature_error=1e-12))
        ctx = acc.AcceptanceContext(seed=1)
        res = acc.criterion_1(ctx)
        assert not res.passed


class TestFileRecipe:
    def test_seed_from_file(self, tmp_path):
        import numpy as np
        from aclab.solver import SQRT2
        dom_cells = 256
        xs = (np.arange(dom_cells) + 0.5) / dom_cells
        init = np.tanh((xs - 0.5) / (0.1 * SQRT2))
        init_path = tmp_path / "init.txt"
        np.savetxt(init_path, init)
        cfg_text = SMALL.format(out=tmp_path / "out").replace(
            "cells = 512", "cells = 256").replace(
            "recipe = step-x", f"recipe = file\nfile = {init_path}").replace(
            "epsilons = 0.1 0.05 0.025", "epsilons = 0.1")
        cfg_path = tmp_path / "file.cfg"
        cfg_path.write_text(cfg_text)
        assert cli.main(["solve", "--config", str(cfg_path)]) == 0
        sol = cli.load_solution(tmp_path / "out" / "solution_00.txt")
        assert sol.residual_norm <= 1e-10

    def test_file_recipe_requires_path(self):
        text = example_config().replace("recipe = step-x", "recipe = file")
        with pytest.raises(ConfigError, match="init.file"):
            parse_config(text)


class TestMoreCli:
    def test_diagnose_deterministic_outputs(self, small_cfg, tmp_path):
        cli.main(["solve", "--config", str(small_cfg)])
        out = tmp_path / "out"
        sols = sorted(str(p) for p in out.glob("solution_*.txt"))
        cli.main(["diagnose", "--config", str(small_cfg),
                  "--out", str(tmp_path / "d1"), *sols])
        cli.main(["diagnose", "--config", str(small_cfg),
                  "--out", str(tmp_path / "d2"), *sols])
        for name in ("equipartition.csv", "varifold_mass.csv",
                     "integrality.csv"):
            assert (tmp_path / "d1" / name).read_bytes() \
                == (tmp_path / "d2" / name).read_bytes()

    def test_diagnose_extracts_once_per_solution(self, tmp_path, monkeypatch):
        text = (SMALL.format(out=tmp_path / "out")
                .replace("shape = interval", "shape = disk")
                .replace("cells = 512", "cells = 64")
                .replace("constraint_mean = 0.0", "constraint_mean = 0.3")
                .replace("recipe = step-x", "recipe = radial")
                .replace("epsilons = 0.1 0.05 0.025", "epsilons = 0.12 0.1")
                .replace("checks = equipartition varifold", "checks = varifold"))
        path = tmp_path / "disk.cfg"
        path.write_text(text)
        cfg = load_config(path)
        cli.cmd_solve(cfg)
        out = tmp_path / "out"
        dom = build_domain("disk", (1.0,), 64)
        pure = Solution(field=Field(dom, 0.11, np.ones(dom.n_nodes)), lam=0.0,
                        residual_norm=0.0, iterations=0)
        cli.save_solution(out / "pure.txt", pure)
        sols = sorted(out.glob("solution_*.txt")) + [out / "pure.txt"]

        calls = []
        real = varifold.extract_interface

        def counting(sol):
            calls.append(sol.field.epsilon)
            return real(sol)

        monkeypatch.setattr(cli, "extract_interface", counting)
        monkeypatch.setattr(varifold, "extract_interface", counting)
        report = cli.cmd_diagnose(cfg, sols)
        assert {e for e, _ in report.errors} == {0.11}  # the pure phase
        assert len(report.tables["free_boundary"]) == 4  # 2 fields x 2 eps
        assert "first_variation_C" in report.fitted_constants
        assert calls == [0.12, 0.1]

    def test_user_polynomial_through_config(self, tmp_path):
        text = SMALL.format(out=tmp_path / "out").replace(
            "[solver]",
            "[potential]\nkind = user-polynomial\n"
            "coefficients = 0.25 0.0 -0.5 0.0 0.25\n\n[solver]").replace(
            "epsilons = 0.1 0.05 0.025", "epsilons = 0.1")
        cfg = tmp_path / "poly.cfg"
        cfg.write_text(text)
        assert cli.main(["solve", "--config", str(cfg)]) == 0
        sol = cli.load_solution(tmp_path / "out" / "solution_00.txt")
        assert sol.residual_norm <= 1e-10
