import base64
import csv
import io
import json
import math
import os
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from aclab import cli, solver, tables, varifold
from aclab.config import example_config, load_config, parse_config
from aclab.errors import ConfigError, DomainMismatch, NoConvergence
from aclab.geometry import build_domain, grid_axes
from aclab.potential import DoubleWell, compute_h0
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


def tiny_disk_cfg(tmp_path, checks="varifold"):
    """The SMALL run on a 64-cell disk at eps 0.12 and 0.1, writing to
    tmp_path/out."""
    text = (SMALL.format(out=tmp_path / "out")
            .replace("shape = interval", "shape = disk")
            .replace("cells = 512", "cells = 64")
            .replace("constraint_mean = 0.0", "constraint_mean = 0.3")
            .replace("recipe = step-x", "recipe = radial")
            .replace("epsilons = 0.1 0.05 0.025", "epsilons = 0.12 0.1")
            .replace("checks = equipartition varifold", f"checks = {checks}"))
    path = tmp_path / "disk.cfg"
    path.write_text(text)
    return load_config(path)


# the example config on a 64-cell unit disk at eps 0.1 from the radial seed
DISK_LINES = dict(shape="disk", cells="64", recipe="radial", epsilons="0.1")


def example_with(**lines):
    """The example config with each key's line, commented out or not, set
    to key = value."""
    text = example_config()
    for key, value in lines.items():
        text = re.sub(rf"(?m)^(# )?{key} = .*$", f"{key} = {value}", text)
    return text


ALL_CHECKS = ("equipartition ratios monotonicity pohozaev boundary-energy "
              "varifold")


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

    def test_absent_constraint_mean_is_unconstrained(self, tmp_path):
        # a config with no [solver] section is unconstrained, as is one
        # whose [solver] section lacks constraint_mean, and its solution
        # header holds a null constraint
        cfg = parse_config(
            SMALL.format(out=tmp_path / "out")
            .replace("[solver]\ntol = 1e-10\nconstraint_mean = 0.0\n", "")
            .replace("epsilons = 0.1 0.05 0.025", "epsilons = 0.1"))
        assert cfg.constraint_mean is None
        cli.cmd_solve(cfg)
        head = json.loads((tmp_path / "out" / "solution_00.txt")
                          .read_text().split("\n", 1)[0])
        assert head["constraint"] is None

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

    def test_every_example_key_is_read_and_typed(self):
        # a documented key the parser never reads would accept "abc"
        keys = re.findall(r"(?m)^(\w+) = ", example_config())
        assert len(keys) == 13  # every active key of the example config
        for key in keys:
            if key == "dir":
                continue
            text = re.sub(rf"(?m)^{key} = .*$", f"{key} = abc",
                          example_config())
            with pytest.raises(ConfigError):
                parse_config(text)

    @pytest.mark.parametrize("line", [
        "offset = abc", "radius = 0.1 0.2", "value = inf"])
    def test_recipe_scalars_typed(self, line):
        text = example_config().replace("recipe = step-x",
                                        f"recipe = step-x\n{line}")
        with pytest.raises(ConfigError):
            parse_config(text)

    @pytest.mark.parametrize("key, bad", [
        ("tol", "nan"), ("tol", "inf"), ("tol", "0"),
        ("constraint_mean", "nan"), ("samples", "inf"), ("fields", "nan"),
        ("samples", "2.5"), ("seed", "1 2"), ("samples", "0"),
        ("samples", "-1"), ("fields", "-1"), ("seed", "-1")])
    def test_hostile_scalars(self, key, bad):
        text = re.sub(rf"(?m)^{key} = .*$", f"{key} = {bad}", example_config())
        with pytest.raises(ConfigError, match=key):
            parse_config(text)

    @pytest.mark.parametrize("bad", ["", "0.1 nan", "inf 0.1"],
                             ids=["empty", "nan", "inf"])
    def test_hostile_epsilons(self, bad):
        text = re.sub(r"(?m)^epsilons = .*$", f"epsilons = {bad}",
                      example_config())
        with pytest.raises(ConfigError, match="sweep.epsilons"):
            parse_config(text)

    def test_least_counts_accepted(self):
        text = re.sub(r"(?m)^(samples|fields|seed) = .*$",
                      lambda m: f"{m[1]} = {1 if m[1] == 'samples' else 0}",
                      example_config())
        cfg = parse_config(text)
        assert (cfg.samples, cfg.fields, cfg.seed) == (1, 0, 0)

    def test_constraint_mean_outside_unit_interval(self):
        text = example_config().replace("constraint_mean = 0.0",
                                        "constraint_mean = 1.5")
        with pytest.raises(ConfigError, match=r"constraint_mean must lie"):
            parse_config(text)

    def test_domain_without_cells(self):
        with pytest.raises(ConfigError, match="missing key 'cells'"):
            parse_config("[domain]\nshape = interval\nparams = 1\n")

    def test_key_outside_any_section(self):
        with pytest.raises(ConfigError, match="config parse error"):
            parse_config("cells = 64\n" + example_config())

    def test_missing_config_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config"):
            load_config(tmp_path / "absent.cfg")

    def test_init_center_parsed_as_floats(self):
        text = example_config().replace("recipe = step-x",
                                        "recipe = step-x\ncenter = 0.25")
        center = parse_config(text).recipe_params["center"]
        assert center == (0.25,)
        assert all(type(c) is float for c in center)

    def test_retired_preflow_keys_ignored(self):
        text = (example_config()
                .replace("tol = 1e-10", "tol = 1e-10\ndt_factor = 0.5\n"
                                        "max_steps = 20000")
                .replace("recipe = step-x", "recipe = step-x\npre_steps = 30"))
        assert parse_config(text) == parse_config(example_config())

    @pytest.mark.parametrize("edit,where", [
        (("constraint_mean = 0.0", "constraint_mean = 0.0\n"
                                   "constraint_mena = 0.3"),
         "solver.constraint_mena: unknown key"),
        (("constraint_mean = 0.0", "constraint_mena = 0.3"),
         "solver.constraint_mena: unknown key"),
        (("recipe = step-x", "recipe = step-x\nradius_ = 0.2"),
         "init.radius_: unknown key"),
        # a retired key outside the section it was read from
        (("tol = 1e-10", "tol = 1e-10\npre_steps = 30"),
         "solver.pre_steps: unknown key"),
        (("[diagnostics]", "[diagnostic]"), "[diagnostic]: unknown section"),
        (("[output]", "[extra]\n[output]"), "[extra]: unknown section")])
    def test_unknown_key_or_section_rejected(self, edit, where):
        # each edit used to parse, the unknown name ignored: constraint_mena
        # in place of constraint_mean gave an unconstrained run, and
        # [diagnostic] the default checks
        with pytest.raises(ConfigError, match="^" + re.escape(where)):
            parse_config(example_config().replace(*edit))

    @pytest.mark.parametrize("head", ["[DEFAULT]\n", "[DEFAULT]\nseed = 3\n"])
    def test_default_section_rejected(self, head):
        # an empty [DEFAULT] used to pass silently, and one with a key was
        # reported as an unknown key of [domain], where configparser copied it
        with pytest.raises(ConfigError,
                           match=r"^\[DEFAULT\]: unknown section, not one of "):
            parse_config(head + example_config())

    def test_percent_in_value_is_literal(self):
        # % used to start an interpolation, which raised outside ConfigError
        cfg = parse_config(example_config().replace("dir = out", "dir = out%1"))
        assert cfg.out_dir == "out%1"
        with pytest.raises(ConfigError,
                           match=r"^output\.seed: expected integers, got "
                                 r"'%\(x\)s'$"):
            parse_config(example_config().replace("seed = 7", "seed = %(x)s"))

    def test_every_documented_key_accepted(self):
        # the example config, its commented keys set, on a disk (center
        # takes two values there)
        text = re.sub(r"(?m)^# (\w+ = )", r"\1", example_config())
        text = text.replace("shape = interval", "shape = disk")
        assert "\ncoefficients = " in text and "\nfile = " in text
        cfg = parse_config(text)
        assert cfg.recipe_params["center"] == (0.0, 0.0)


class TestSolutionIO:
    def test_roundtrip(self, tmp_path):
        well = DoubleWell()
        dom = build_domain("interval", (1.0,), 64)
        sol = solve_single(dom, well, 0.1, constraint=0.0)
        path = tmp_path / "s.txt"
        cli.save_solution(path, sol)
        back = cli.load_solution(path, dom)
        assert np.array_equal(back.field.values, sol.field.values)
        assert back.lam == sol.lam
        assert back.residual_norm == sol.residual_norm
        assert back.constraint == sol.constraint
        assert back.iterations == sol.iterations
        assert back.factorizations == sol.factorizations >= 1

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_bit_for_bit(self, tmp_path_factory, data):
        shape, params = data.draw(st.sampled_from([
            ("rectangle", (1.0, 1.0)), ("disk", (1.0,)),
            ("annulus", (0.4, 1.0)), ("half-disk", (1.0,))]))
        dom = build_domain(shape, params, 2 * data.draw(st.integers(16, 24)))
        finite = st.floats(allow_nan=False, allow_infinity=False)
        edge = st.sampled_from([-0.0, 5e-324, -2.5e-310, 1e300, -1e300])
        values = data.draw(arrays(np.float64, dom.n_nodes,
                                  elements=st.one_of(edge, finite)))
        sol = Solution(
            field=Field(dom, data.draw(st.floats(1e-300, 1e300)), values),
            lam=data.draw(st.one_of(edge, finite)),
            residual_norm=data.draw(st.floats(0.0, 1e300)),
            iterations=data.draw(st.integers(0, 10**6)),
            factorizations=data.draw(st.integers(0, 10**6)))
        path = tmp_path_factory.mktemp("io") / "s.txt"
        cli.save_solution(path, sol)
        back = cli.load_solution(path, dom)
        assert back.field.values.tobytes() == values.tobytes()
        got = (back.lam, back.residual_norm, back.field.epsilon)
        want = (sol.lam, sol.residual_norm, sol.field.epsilon)
        assert np.array(got).tobytes() == np.array(want).tobytes()
        assert (back.iterations, back.factorizations) == \
            (sol.iterations, sol.factorizations)

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_base64_body_roundtrip(self, tmp_path_factory, data):
        # node counts of every residue mod 3, so the last line holds three,
        # one or two values; both zeros, subnormals and the largest doubles
        dom = build_domain("interval", (1.0,), data.draw(st.integers(16, 60)))
        edge = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.5e-310,
                                -2.2250738585072009e-308,
                                1.7976931348623157e308,
                                -1.7976931348623157e308])
        finite = st.floats(allow_nan=False, allow_infinity=False)
        values = data.draw(arrays(np.float64, dom.n_nodes,
                                  elements=st.one_of(edge, finite)))
        sol = Solution(field=Field(dom, 0.1, values), lam=0.0,
                       residual_norm=0.0, iterations=0)
        path = tmp_path_factory.mktemp("b64") / "s.txt"
        cli.save_solution(path, sol)
        back = cli.load_solution(path, dom).field.values
        assert back.dtype == np.float64 and back.flags.writeable
        assert back.tobytes() == values.tobytes()
        head, *body = path.read_bytes().decode("ascii").split("\n")
        assert json.loads(head)["schema"] == "aclab-solution-2"
        assert body[-1] == ""
        body = body[:-1]
        assert all(len(line) == 32 for line in body[:-1])
        assert len(body[-1]) == {0: 32, 1: 12, 2: 24}[dom.n_nodes % 3]
        assert base64.b64decode("".join(body)) == values.astype("<f8").tobytes()

    def test_header_without_factorizations_loads(self, tmp_path):
        # files written before the count was stored still load, with 0
        dom = build_domain("interval", (1.0,), 64)
        sol = solve_single(dom, DoubleWell(), 0.1, constraint=0.0)
        path = tmp_path / "s.txt"
        cli.save_solution(path, sol)
        head, *rest = path.read_text().splitlines()
        old = json.loads(head)
        del old["factorizations"]
        path.write_text("\n".join([json.dumps(old), *rest]) + "\n")
        assert cli.load_solution(path, dom).factorizations == 0

    def test_missing_file_is_domain_mismatch(self, tmp_path):
        dom = build_domain("interval", (1.0,), 64)
        with pytest.raises(DomainMismatch, match="cannot read"):
            cli.load_solution(tmp_path / "absent.txt", dom)

    def test_domain_mismatch(self, tmp_path):
        well = DoubleWell()
        dom = build_domain("interval", (1.0,), 64)
        sol = solve_single(dom, well, 0.1, constraint=0.0)
        path = tmp_path / "s.txt"
        cli.save_solution(path, sol)
        other = build_domain("interval", (1.0,), 128)
        with pytest.raises(DomainMismatch):
            cli.load_solution(path, other)

    def test_wrong_node_count(self, tmp_path):
        well = DoubleWell()
        dom = build_domain("interval", (1.0,), 64)
        sol = solve_single(dom, well, 0.1, constraint=0.0)
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
        sol = solve_single(dom, DoubleWell(), 0.1, constraint=0.0)
        path = tmp_path / "s.txt"
        cli.save_solution(path, sol)
        return path, dom

    @pytest.fixture
    def saved_text(self, tmp_path):
        """The saved solution as a file of the text schema, one value a
        line, as written before the base64 body."""
        dom = build_domain("interval", (1.0,), 64)
        sol = solve_single(dom, DoubleWell(), 0.1, constraint=0.0)
        path = tmp_path / "s.txt"
        _reference_save_solution(path, sol)
        return path, dom

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_value(self, saved_text, bad):
        path, dom = saved_text
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

    @pytest.mark.parametrize("line, bad", [(7, "0.25,0.5"), (7, "0.25 0.5"),
                                           (0, '{"schema": ')])
    def test_unparsable_line(self, saved_text, line, bad):
        path, dom = saved_text
        lines = path.read_text().splitlines()
        lines[line] = bad
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DomainMismatch,
                           match=": unparsable solution file: "):
            cli.load_solution(path, dom)

    @pytest.mark.parametrize("edit", [
        lambda body: [f"{v} {v}" for v in body],
        lambda body: [],
        lambda body: ["", "  ", ""],
        lambda body: body[:7] + ["#"] + body[7:],
        lambda body: ["# nodal values", *body],
        lambda body: body[:7] + ["1_000"] + body[8:],
        lambda body: body[:7] + ["\u0660.\u0665"] + body[8:]],
        ids=["two-numbers-every-line", "empty", "blank", "hash-line",
             "hash-comment", "underscore", "non-ascii-digits"])
    def test_unparsable_body(self, saved_text, edit):
        # a body of one number a line, parsed to float()'s bits: each edit
        # is unparsable, with no warning; float() took 1_000 and the
        # Arabic-Indic 0.5, which the C reader rejects
        path, dom = saved_text
        head, *body = path.read_text().splitlines()
        path.write_text("\n".join([head, *edit(body)]) + "\n")
        self.assert_unparsable(path, dom)

    @staticmethod
    def assert_unparsable(path, dom):
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # the file name holds the test name, so match more than it
            with pytest.raises(DomainMismatch,
                               match=": unparsable solution file: "):
                cli.load_solution(path, dom)

    @pytest.mark.parametrize("edit", [
        lambda body: body[:7] + [body[7][:5] + "!" + body[7][6:]] + body[8:],
        lambda body: body[:7] + [body[7][:5] + "\u00e9" + body[7][6:]]
        + body[8:],
        lambda body: body[:7] + ["#"] + body[7:],
        lambda body: body[:7] + [body[7] + " "] + body[8:],
        lambda body: body[:7] + [body[7][:-4]] + body[8:],
        lambda body: body[:7] + [body[7][:-1]] + body[8:],
        lambda body: body[:7] + [body[7][:-4] + "AA=="] + body[8:],
        lambda body: [],
        lambda body: ["", ""]],
        ids=["non-alphabet", "non-ascii", "hash-line", "trailing-space",
             "cut-by-4", "cut-by-1", "inner-padding", "empty", "blank"])
    def test_unparsable_base64_body(self, saved, edit):
        # a base64 body: each edit is unparsable, with no warning; a line
        # cut by 4 characters still decodes, to 3 bytes fewer than 64
        # values
        path, dom = saved
        head, *body = path.read_text().splitlines()
        assert len(body) == 22 and all(len(line) == 32 for line in body[:-1])
        path.write_text("\n".join([head, *edit(body)]) + "\n")
        self.assert_unparsable(path, dom)

    @staticmethod
    def write_base64(path, values):
        """Replace the body of the file at path by that of values."""
        head = path.read_text().split("\n", 1)[0]
        text = base64.b64encode(np.asarray(values, "<f8").tobytes()).decode()
        lines = [text[k:k + 32] for k in range(0, len(text), 32)]
        path.write_text("\n".join([head, *lines]) + "\n")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_base64_value(self, saved, bad):
        path, dom = saved
        values = cli.load_solution(path, dom).field.values.copy()
        values[7] = bad
        self.write_base64(path, values)
        with pytest.raises(DomainMismatch, match="non-finite nodal"):
            cli.load_solution(path, dom)

    def test_one_base64_value_too_many(self, saved):
        path, dom = saved
        values = cli.load_solution(path, dom).field.values
        self.write_base64(path, np.append(values, 0.5))
        with pytest.raises(DomainMismatch, match="65 nodal values for a "
                                                 "domain with 64 active"):
            cli.load_solution(path, dom)

    @staticmethod
    def rewrite_header(path, edit):
        head, *rest = path.read_text().splitlines()
        head = edit(json.loads(head))
        path.write_text("\n".join([json.dumps(head), *rest]) + "\n")

    def test_unknown_schema(self, saved):
        path, dom = saved
        self.rewrite_header(path, lambda head: dict(head, schema="other/0"))
        with pytest.raises(DomainMismatch, match="unknown solution schema"):
            cli.load_solution(path, dom)

    def test_header_not_an_object(self, saved):
        path, dom = saved
        self.rewrite_header(path, lambda head: list(head))
        with pytest.raises(DomainMismatch, match="not a JSON object"):
            cli.load_solution(path, dom)

    @pytest.mark.parametrize("key", ["domain", "epsilon", "lambda",
                                     "residual_norm", "iterations"])
    def test_missing_header_key(self, saved, key):
        path, dom = saved
        self.rewrite_header(path, lambda head: {k: v for k, v in head.items()
                                                if k != key})
        with pytest.raises(DomainMismatch, match=f"lacks '{key}'"):
            cli.load_solution(path, dom)

    @pytest.mark.parametrize("key, bad", [("epsilon", "abc"),
                                          ("epsilon", "0.1"),
                                          ("lambda", True),
                                          ("residual_norm", "1e-12"),
                                          ("energy", "nan"),
                                          ("iterations", None),
                                          ("iterations", float("inf")),
                                          ("iterations", 2.7),
                                          ("factorizations", -3),
                                          ("converged", "no"),
                                          ("constraint", "abc"),
                                          pytest.param("constraint", [1, 2],
                                                       id="constraint-list")])
    def test_unconvertible_header_value(self, saved, key, bad):
        path, dom = saved
        self.rewrite_header(path, lambda head: dict(head, **{key: bad}))
        with pytest.raises(DomainMismatch,
                           match=f"bad solution header value {key}: "):
            cli.load_solution(path, dom)

    @pytest.mark.parametrize("key, good", [("converged", False),
                                           ("constraint", None),
                                           ("constraint", -1),
                                           ("factorizations", 0),
                                           ("energy", float("nan"))])
    def test_legal_header_value_loads(self, saved, key, good):
        path, dom = saved
        self.rewrite_header(path, lambda head: dict(head, **{key: good}))
        got = getattr(cli.load_solution(path, dom), key)
        # repr, so that the NaN energy compares equal to itself
        assert repr(got) == repr(good) and type(got) is type(good)

    @pytest.mark.parametrize("bad", [0.0, -0.1])
    def test_non_positive_epsilon(self, saved, bad):
        path, dom = saved
        self.rewrite_header(path, lambda head: dict(head, epsilon=bad))
        with pytest.raises(DomainMismatch, match="not positive"):
            cli.load_solution(path, dom)

    def test_blank_lines_and_crlf_skipped(self, saved_text):
        path, dom = saved_text
        want = cli.load_solution(path, dom).field.values
        head, *rest = path.read_text().splitlines()
        lines = [head, "", *rest[:5], "  ", *rest[5:], "\t", ""]
        path.write_bytes("\r\n".join(lines).encode())
        assert np.array_equal(cli.load_solution(path, dom).field.values, want)

    def test_base64_blank_lines_and_crlf_skipped(self, saved):
        path, dom = saved
        want = cli.load_solution(path, dom).field.values
        head, *rest = path.read_text().splitlines()
        path.write_bytes("\r\n".join([head, "", *rest, ""]).encode())
        back = cli.load_solution(path, dom).field.values
        assert back.tobytes() == want.tobytes()

    @pytest.mark.parametrize("stored", [
        {"shape": "interval"}, 5,
        {"shape": "interval", "params": [1.0], "cells": "x"}],
        ids=["no-params", "not-an-object", "bad-cells"])
    def test_malformed_stored_domain(self, saved, stored):
        # a malformed descriptor never equals the configured domain's
        path, dom = saved
        self.rewrite_header(path, lambda head: dict(head, domain=stored))
        with pytest.raises(DomainMismatch, match="does not match"):
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

    @pytest.mark.parametrize("key, bad", [
        ("epsilons", ""), ("epsilons", "0.1 nan"), ("epsilons", "inf 0.1"),
        ("samples", "0"), ("samples", "-1"), ("seed", "-1")])
    @pytest.mark.parametrize("command", ["solve", "diagnose"])
    def test_hostile_value_exit_code(self, tmp_path, capsys, key, bad,
                                     command):
        # before any solve or diagnose starts: no traceback, no output
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(re.sub(rf"(?m)^{key} = .*$", f"{key} = {bad}",
                              example_config()))
        args = [command, "--config", str(cfg), "--out", str(tmp_path / "o")]
        if command == "diagnose":
            args.append(str(tmp_path / "absent.txt"))
        assert cli.main(args) == 2
        assert "config error: " in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("where, lines", [
        ("domain.cells", dict(cells="16.5")),
        ("sweep.epsilons", dict(epsilons="0.1 abc")),
        ("potential.coefficients",
         dict(kind="user-polynomial", coefficients="1 2 3")),
        ("potential.coefficients",
         dict(kind="user-polynomial", coefficients="0.25 0.0 -0.5 0.0 nan")),
        ("domain.params", dict(DISK_LINES, params="nan")),
        ("domain.params", dict(DISK_LINES, params="inf")),
        ("domain.params", dict(DISK_LINES, params="1e400")),
        ("init.center", dict(DISK_LINES, center="0.5", radius="0.5")),
        ("sweep.epsilons", dict(DISK_LINES, epsilons="0.05")),
        ("domain.params", dict(DISK_LINES, shape="annulus",
                               params="1.0 0.4")),
        ("domain.cells", dict(DISK_LINES, cells="8")),
        ("domain.cells", dict(DISK_LINES, cells="64 64 64")),
        ("domain.cells", dict(shape="rectangle", params="1.0 1.0",
                              cells="32 48"))],
        ids=["cells", "epsilons", "coefficients", "nan-coefficient",
             "nan-params", "inf-params", "overflow-params", "center",
             "unresolvable-epsilon", "annulus-radii", "too-few-cells",
             "cell-arity", "non-uniform-cells"])
    def test_hostile_config_names_its_key(self, tmp_path, capsys, where,
                                          lines):
        # a rejected run leaves no output directory behind
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(example_with(**lines))
        assert cli.main(["solve", "--config", str(cfg),
                         "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith(f"config error: {where}")
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_disk_mean_within_rounding_of_zero(self, tmp_path):
        # (1 - 1e-17) / 2 rounds to 1/2, a lens fraction the orthogonal arc
        # cannot take; the seed is the diameter, as at m = 0
        cfg = tmp_path / "disk.cfg"
        cfg.write_text(example_with(**DISK_LINES, constraint_mean="1e-17"))
        assert cli.main(["solve", "--config", str(cfg),
                         "--out", str(tmp_path / "o")]) == 0
        dom = build_domain("disk", (1.0,), 64)
        assert np.array_equal(
            solver.seed_field(dom, 0.1, "radial", 1e-17).values,
            solver.seed_field(dom, 0.1, "radial", 0.0).values)

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

    def test_solve_isolates_failed_epsilon(self, small_cfg, tmp_path,
                                           monkeypatch, capsys):
        # Newton fails at the middle epsilon; the last one starts from the
        # recipe seed again, and the written files keep their indices
        real_refine, real_seed = solver.newton_refine, solver.seed_field
        starts, seeded = {}, []

        def failing(sol, well, **kw):
            starts[sol.field.epsilon] = sol.field.values
            if sol.field.epsilon == 0.05:
                raise NoConvergence("forced at eps 0.05")
            return real_refine(sol, well, **kw)

        def seeding(dom, e, *args, **kw):
            seeded.append(e)
            return real_seed(dom, e, *args, **kw)

        monkeypatch.setattr(solver, "newton_refine", failing)
        monkeypatch.setattr(solver, "seed_field", seeding)
        assert cli.main(["solve", "--config", str(small_cfg)]) == 0
        assert "solver error at eps=0.05: forced" in capsys.readouterr().err
        out = tmp_path / "out"
        assert sorted(p.name for p in out.glob("solution_*.txt")) == [
            "solution_00.txt", "solution_02.txt"]
        assert [r.split(",")[0] for r in
                (out / "summary.csv").read_text().splitlines()[1:]] == [
            "0.10000000000000001", "0.025000000000000001"]
        assert seeded == [0.1, 0.025]
        dom = build_domain("interval", (1.0,), 512)
        seed = real_seed(dom, 0.025, "step-x", 0.0).values
        w = dom.cut_cell_weights
        assert np.array_equal(starts[0.025],
                              seed + (0.0 - float(w @ seed) / float(w.sum())))

        errors = []
        sols = solver.epsilon_sweep(dom, DoubleWell(), [0.1, 0.05, 0.025],
                                    constraint=0.0, errors=errors)
        assert [s.field.epsilon for s in sols] == [0.1, 0.025]
        assert [e for e, _ in errors] == [0.05]
        with pytest.raises(NoConvergence, match="forced"):
            solver.epsilon_sweep(dom, DoubleWell(), [0.1, 0.05, 0.025],
                                 constraint=0.0)

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

    def test_diagnose_malformed_header_exit(self, small_cfg, tmp_path,
                                            capsys):
        dom = build_domain("interval", (1.0,), 512)
        sol = Solution(field=Field(dom, 0.05, np.ones(dom.n_nodes)), lam=0.0,
                       residual_norm=0.0, iterations=0)
        path = tmp_path / "s.txt"
        cli.save_solution(path, sol)
        TestBadSolutionFiles.rewrite_header(
            path, lambda head: dict(head, iterations=None))
        assert cli.main(["diagnose", "--config", str(small_cfg),
                         str(path)]) == 2
        assert "bad solution header" in capsys.readouterr().err

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

    def test_diagnose_prints_every_error_once(self, tmp_path, capsys):
        # the unconstrained step-x solve on the 128-cell annulus at eps 0.08
        # (two radial segments) finds no stable integrality window; each
        # recorded error reaches stderr once, as the solver's errors do
        text = (SMALL.format(out=tmp_path / "out")
                .replace("shape = interval", "shape = annulus")
                .replace("params = 1.0", "params = 0.4 1.0")
                .replace("cells = 512", "cells = 128")
                .replace("constraint_mean = 0.0\n", "")
                .replace("epsilons = 0.1 0.05 0.025", "epsilons = 0.08")
                .replace("checks = equipartition varifold",
                         f"checks = {ALL_CHECKS}"))
        path = tmp_path / "annulus.cfg"
        path.write_text(text)
        cfg = load_config(path)
        assert cfg.constraint_mean is None
        cli.cmd_solve(cfg)
        capsys.readouterr()
        report = cli.cmd_diagnose(
            cfg, sorted((tmp_path / "out").glob("solution_*.txt")))
        err = capsys.readouterr().err.splitlines()
        # the integrality error names its sample point
        assert any(e == 0.08 and msg.startswith(
            "integrality: no stable window in the density-ratio curve at [")
            for e, msg in report.errors)
        assert sorted(err) == sorted(f"diagnostic error at eps={e:g}: {msg}"
                                     for e, msg in report.errors)

    def test_diagnose_writes_errors_csv(self, small_cfg, tmp_path,
                                        monkeypatch):
        # the pure-phase solution's per-epsilon errors and a failed check,
        # whose message holds commas and a quote, each as one where,message
        # row, in the order they were recorded
        from aclab.errors import AcLabError

        def failing(*args):
            raise AcLabError('forced, with "commas", twice')

        dom = build_domain("interval", (1.0,), 512)
        sol = Solution(field=Field(dom, 0.05, np.ones(dom.n_nodes)), lam=0.0,
                       residual_norm=0.0, iterations=0)
        out = tmp_path / "out"
        out.mkdir()
        cli.save_solution(out / "pure.txt", sol)
        cfg = load_config(small_cfg)
        monkeypatch.setattr(cli, "_diag_equipartition", failing)
        report = cli.cmd_diagnose(cfg, [out / "pure.txt"])
        assert ("equipartition", 'forced, with "commas", twice') \
            in report.errors
        assert any(where == 0.05 for where, _ in report.errors)
        with open(out / "errors.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows == [["where", "message"]] + [
            [_reference_g17(where), msg] for where, msg in report.errors]
        assert '"forced, with ""commas"", twice"' in \
            (out / "errors.csv").read_text()

    def test_no_errors_no_errors_csv(self, tmp_path):
        cfg, paths = _solved(tmp_path, "disk", "equipartition pohozaev")
        report = cli.cmd_diagnose(cfg, paths, out_dir=tmp_path / "d")
        assert report.errors == []
        assert not (tmp_path / "d" / "errors.csv").exists()


class TestWriters:
    @pytest.mark.parametrize("shape,params,cells", [
        ("interval", (1.0,), 2500), ("disk", (1.0,), 64),
        ("annulus", (0.4, 1.0), 80), ("half-disk", (1.0,), 96),
        ("interval", (1.0,), 2501)])
    def test_solution_bytes(self, tmp_path, shape, params, cells):
        # the base64 text cut into 32-character lines one by one is the
        # reference; the node counts leave 1, 2 and 0 values for the last
        # line
        dom = build_domain(shape, params, cells)
        rng = np.random.default_rng(3)
        u = np.tanh(rng.standard_normal(dom.n_nodes) * 10.0 ** rng.integers(
            -20, 3, dom.n_nodes))
        u[:4] = (-0.0, 0.0, 1.0, -1.0)
        sol = Solution(field=Field(dom, 0.05, u), lam=0.25,
                       residual_norm=1e-11, iterations=3)
        cli.save_solution(tmp_path / "s.txt", sol)
        _, body = (tmp_path / "s.txt").read_bytes().split(b"\n", 1)
        text = base64.b64encode(u.astype("<f8").tobytes())
        assert body == b"".join(text[k:k + 32] + b"\n"
                                for k in range(0, len(text), 32))
        back = cli.load_solution(tmp_path / "s.txt", dom).field.values
        assert np.array_equal(back, u)


# doubles that format in their own way: both zeros, NaNs of either sign
# and another payload, both infinities, subnormals and extremes
SPECIAL_DOUBLES = np.concatenate([
    [0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 2.2250738585072009e-308,
     -2.5e-310, 1.7976931348623157e308, 0.1, 1.0, -1.0],
    np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
              0x7FF8DEADBEEF0001], dtype=np.uint64).view(np.float64)])


class TestG17Texts:
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_is_per_value_formatting(self, data):
        # arrays drawn from a small pool repeat most values, arrays of free
        # doubles hardly any
        pool = data.draw(st.lists(st.one_of(
            st.sampled_from(SPECIAL_DOUBLES.tolist()), st.floats()),
            min_size=1, max_size=8))
        n = data.draw(st.integers(0, 3 * tables.CHUNK_ROWS))
        if data.draw(st.booleans()):
            picks = data.draw(arrays(np.intp, n,
                                     elements=st.integers(0, len(pool) - 1)))
            a = np.array(pool, dtype=np.float64)[picks]
        else:
            a = data.draw(arrays(np.float64, n, elements=st.one_of(
                st.sampled_from(pool), st.floats())))
        want = ["%.17g" % v for v in a.tolist()]
        assert tables.g17_texts(a) == want
        # a strided view, as a column of the (N, 2) normals
        assert tables.g17_texts(np.stack([a, a], axis=1)[:, 1]) == want


# The writers and the line parser as they were before each distinct value
# was formatted once and the nodal lines were parsed in C: the references
# for the bytes and bits the present ones must give.  The solution writer,
# one %.17g value a line, writes the text schema of the files written
# before the base64 body, which load_solution still reads.

def _reference_g17(x):
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".17g")
    return str(x)


# every type of value a table may hold; strs that need no quoting
TABLE_VALUES = st.one_of(
    st.floats(), st.sampled_from(SPECIAL_DOUBLES.tolist()),
    st.floats(width=32).map(np.float32), st.integers(),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    st.booleans(), st.booleans().map(np.bool_),
    st.text(st.characters(blacklist_characters=',"\n\r',
                          blacklist_categories=("Cs",)), max_size=8))
# strs that hold what a CSV writer quotes: a comma, a quote or a line end
QUOTED_STRS = st.one_of(st.sampled_from(["", '""', ",", '"', "\n", "\r",
                                         "a,b", 'say "x"', "\r\n"]),
                        st.text(',"\n\r ab', max_size=6))


def _reference_write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_reference_g17(v) for v in row) + "\n")


def _reference_save_solution(path, sol):
    head = {
        "schema": "aclab-solution-1",
        "domain": sol.field.dom.to_descriptor(),
        "epsilon": sol.field.epsilon,
        "lambda": sol.lam,
        "residual_norm": sol.residual_norm,
        "iterations": sol.iterations,
        "factorizations": sol.factorizations,
        "constraint": sol.constraint,
        "converged": sol.converged,
        "energy": sol.energy,
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(head) + "\n")
        fh.writelines("%.17g\n" % v for v in sol.field.values.tolist())


def _reference_export_atoms(V, path):
    dom = V.dom
    coords = ("x", "y")[:dom.dim]
    axes = [["%.17g" % v for v in axis.tolist()] for axis in grid_axes(dom)]
    cells = np.unravel_index(dom.grid_index, dom.n_cells)
    row = ",".join(["%s"] * dom.dim + ["%.17g"] * (dom.dim + 1) + ["%d"]) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(coords + ("weight",) + tuple("n" + c for c in coords)
                          + ("zero_flag",)) + "\n")
        for i in range(V.weights.size):
            fh.write(row % (*(axes[a][cells[a][i]] for a in range(dom.dim)),
                            V.weights[i], *V.normals[i], V.zero_flag[i]))


def _reference_parse(path):
    """The nodal values of a solution file, each line through float()."""
    with open(path, "r", encoding="utf-8") as fh:
        fh.readline()
        return np.array([line for line in fh if line.strip()], dtype=float)


@pytest.fixture(scope="module", params=["interval", "folded-disk"])
def reference_solution(request):
    """A converged 512-cell interval solution, or a disk-64 one from the
    folded Newton solve, which is mirror-symmetric: most of its values
    repeat, as most of its atom file's texts do."""
    well = DoubleWell()
    if request.param == "interval":
        dom = build_domain("interval", (1.0,), 512)
        return solve_single(dom, well, 0.05, constraint=0.2)
    dom = build_domain("disk", (1.0,), 64)
    sol = solve_single(dom, well, 0.1, constraint=0.3, recipe="radial")
    bits = sol.field.values.view(np.int64)
    assert np.unique(bits).size <= 0.5 * bits.size
    return sol


class TestReferenceBytes:
    """export_atoms and write_csv give the reference bytes, and
    load_solution the reference bits."""

    def test_solution_file(self, tmp_path, reference_solution):
        # a text-schema file as the reference writer wrote it and a base64
        # one load to the solution's bits, which the reference parse gives
        sol = reference_solution
        cli.save_solution(tmp_path / "s.txt", sol)
        _reference_save_solution(tmp_path / "ref.txt", sol)
        want = sol.field.values.tobytes()
        assert _reference_parse(tmp_path / "ref.txt").tobytes() == want
        for name in ("s.txt", "ref.txt"):
            got = cli.load_solution(tmp_path / name, sol.field.dom)
            assert got.field.values.tobytes() == want
            assert (got.lam, got.energy, got.iterations) == \
                (sol.lam, sol.energy, sol.iterations)

    @pytest.mark.parametrize("zero_normals", [False, True])
    def test_atom_file(self, tmp_path, reference_solution, zero_normals):
        # clipping u to +-0.5 makes flat plateaus of zero-normal atoms
        sol = reference_solution
        if zero_normals:
            sol = Solution(field=Field(sol.field.dom, sol.field.epsilon,
                                       np.clip(sol.field.values, -0.5, 0.5)),
                           lam=sol.lam, residual_norm=0.0, iterations=0)
        V = varifold.build_varifold(sol, DoubleWell(), compute_h0(
            DoubleWell()))
        assert V.zero_flag.any() == zero_normals
        varifold.export_atoms(V, tmp_path / "a.csv")
        _reference_export_atoms(V, tmp_path / "ref.csv")
        assert (tmp_path / "a.csv").read_bytes() == \
            (tmp_path / "ref.csv").read_bytes()

    def test_csv(self, tmp_path):
        # every value type the tables hold, and some they might
        rows = [(0.1, np.float64(-0.0), 3, np.int64(-7), True, np.bool_(False),
                 "interior-radial", float("nan"), -math.inf,
                 np.float32(0.1), np.int32(5), 5e-324, None),
                (np.float64(1e300), math.inf, 0, np.int64(0), False,
                 np.bool_(True), "", np.nan, np.float64(-math.inf),
                 np.float16(2.5), np.uint8(255), -2.5e-310, (1, 2))]
        header = [f"c{k}" for k in range(len(rows[0]))]
        cli.write_csv(tmp_path / "t.csv", header, cli._text_columns(rows))
        _reference_write_csv(tmp_path / "ref.csv", header, rows)
        assert (tmp_path / "t.csv").read_bytes() == \
            (tmp_path / "ref.csv").read_bytes()

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_random_tables(self, tmp_path_factory, data):
        # tables of the values the writer may meet, each column drawn from
        # a small pool, over 0 to 2 chunks of rows: the reference bytes
        # where no str needs quoting
        pool = data.draw(st.lists(TABLE_VALUES, min_size=1, max_size=6))
        n_cols = data.draw(st.integers(1, 4))
        n_rows = data.draw(st.integers(0, 2 * tables.CHUNK_ROWS + 1))
        columns = [[pool[k] for k in data.draw(arrays(
            np.intp, n_rows, elements=st.integers(0, len(pool) - 1)))]
            for _ in range(n_cols)]
        rows = list(zip(*columns))
        header = [f"c{k}" for k in range(n_cols)]
        path = tmp_path_factory.mktemp("csv")
        cli.write_csv(path / "t.csv", header, cli._text_columns(rows))
        _reference_write_csv(path / "ref.csv", header, rows)
        assert (path / "t.csv").read_bytes() == (path / "ref.csv").read_bytes()

    @given(rows=st.integers(2, 4).flatmap(lambda n: st.lists(st.lists(
        st.one_of(QUOTED_STRS, TABLE_VALUES), min_size=n, max_size=n),
        max_size=20)))
    @settings(max_examples=60, deadline=None)
    def test_strs_quoted_as_csv_writer(self, tmp_path_factory, rows):
        # strs with commas, quotes, line ends and empty ones among numbers:
        # csv.writer's bytes under its default "\r\n" terminator, which
        # quotes a bare "\r" as RFC 4180 does, with each row's terminator
        # written as "\n"; the numbers are given to it as their reference
        # texts.  Tables hold at least two columns; csv.writer writes a lone
        # empty field as "", this writer as an empty line
        path = tmp_path_factory.mktemp("csv")
        header = [f"c{k}" for k in range(len(rows[0]))] if rows else ["c0"]
        cli.write_csv(path / "t.csv", header, cli._text_columns(rows))

        def line(row):
            buf = io.StringIO(newline="")
            csv.writer(buf).writerow(row)
            return buf.getvalue().removesuffix("\r\n") + "\n"

        ref = "".join(map(line, [header] + [
            [v if isinstance(v, str) else _reference_g17(v) for v in row]
            for row in rows]))
        assert (path / "t.csv").read_bytes() == ref.encode("utf-8")

    @given(rows=st.integers(2, 4).flatmap(lambda n: st.lists(st.lists(
        QUOTED_STRS, min_size=n, max_size=n), max_size=20)))
    @example(rows=[["0.1", "a\rb"]])
    @settings(max_examples=60, deadline=None)
    def test_strs_read_back_by_csv_reader(self, tmp_path_factory, rows):
        # csv.reader reads every table row back as its strs, line ends among
        # them; a bare "\r" left unquoted used to split its row in two
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        header = [f"c{k}" for k in range(len(rows[0]))] if rows else ["c0"]
        cli.write_csv(path, header, cli._text_columns(rows))
        with open(path, encoding="utf-8", newline="") as fh:
            assert list(csv.reader(fh)) == [header] + rows

    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_parse_of_random_doubles(self, tmp_path_factory, data):
        # any finite doubles, subnormals and -0.0 among them, written by
        # the reference writer, parse to the reference parser's bits
        dom = build_domain("interval", (1.0,), 64)
        edge = st.sampled_from([-0.0, 0.0, 5e-324, -2.5e-310, 1e300])
        finite = st.floats(allow_nan=False, allow_infinity=False)
        values = data.draw(arrays(np.float64, dom.n_nodes,
                                  elements=st.one_of(edge, finite)))
        sol = Solution(field=Field(dom, 0.1, values), lam=0.0,
                       residual_norm=0.0, iterations=0)
        path = tmp_path_factory.mktemp("parse") / "s.txt"
        _reference_save_solution(path, sol)
        got = cli.load_solution(path, dom).field.values
        assert got.tobytes() == _reference_parse(path).tobytes()


def _solved(tmp_path, shape, checks="varifold"):
    """A solved run with these diagnose checks, on the 64-cell disk or on
    the SMALL interval: its config and its solution files."""
    if shape == "disk":
        cfg = tiny_disk_cfg(tmp_path, checks)
    else:
        path = tmp_path / "run.cfg"
        path.write_text(SMALL.format(out=tmp_path / "out").replace(
            "checks = equipartition varifold", f"checks = {checks}"))
        cfg = load_config(path)
    cli.cmd_solve(cfg)
    return cfg, sorted((tmp_path / "out").glob("solution_*.txt"))


def _atom_bytes(out):
    return {p.name: p.read_bytes()
            for p in sorted(out.glob("varifold_atoms_*.csv"))}


def _in_process_atoms(cfg, paths, out):
    """The atom files of an in-process export of the stored solutions."""
    dom = build_domain(cfg.shape, cfg.params, cfg.cells)
    h0 = compute_h0(cfg.well)
    out.mkdir()
    for k, path in enumerate(paths):
        V = varifold.build_varifold(cli.load_solution(path, dom), cfg.well,
                                    h0)
        varifold.export_atoms(V, out / f"varifold_atoms_{k:02d}.csv")
    return _atom_bytes(out)


def _assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestAtomWriter:
    """diagnose writes the varifold atoms from one forked writer, or
    in-process where the writer does not deliver, with the same bytes."""

    @staticmethod
    def parent_calls(monkeypatch, in_child=None):
        """Record each _write_atoms call the parent makes; in_child, when
        given, replaces the call in a forked child."""
        parent, calls = os.getpid(), []
        real = cli._write_atoms

        def recording(*args):
            if os.getpid() != parent:
                return (in_child or real)(*args)
            calls.append(args[0])
            return real(*args)

        monkeypatch.setattr(cli, "_write_atoms", recording)
        return calls

    @pytest.mark.parametrize("shape", ["disk", "interval"])
    def test_forked_atoms_are_the_in_process_bytes(self, tmp_path,
                                                   monkeypatch, shape):
        cfg, paths = _solved(tmp_path, shape)
        calls = self.parent_calls(monkeypatch)
        cli.cmd_diagnose(cfg, paths, out_dir=tmp_path / "d")
        _assert_no_child()
        assert calls == []  # the forked writer delivered
        want = _in_process_atoms(cfg, paths, tmp_path / "ref")
        assert len(want) == len(paths)
        assert _atom_bytes(tmp_path / "d") == want

    @pytest.mark.parametrize("how", ["refused", "deleted", "nonzero-exit"])
    def test_undelivered_writer_writes_in_process(self, tmp_path,
                                                  monkeypatch, how):
        def refuse():
            raise OSError("forced")

        def partial_then_fail(out, *args):
            (out / "varifold_atoms_00.csv").write_text("partial")
            os._exit(1)

        cfg, paths = _solved(tmp_path, "disk")
        calls = self.parent_calls(monkeypatch, partial_then_fail)
        if how == "refused":
            monkeypatch.setattr(os, "fork", refuse)
        elif how == "deleted":
            monkeypatch.delattr(os, "fork")
        cli.cmd_diagnose(cfg, paths, out_dir=tmp_path / "d")
        _assert_no_child()
        assert calls == [tmp_path / "d"]
        assert _atom_bytes(tmp_path / "d") == _in_process_atoms(
            cfg, paths, tmp_path / "ref")

    def test_unwritable_atom_path_raises_as_in_process(self, tmp_path):
        cfg, paths = _solved(tmp_path, "disk")
        (tmp_path / "d" / "varifold_atoms_00.csv").mkdir(parents=True)
        with pytest.raises(IsADirectoryError):
            cli.cmd_diagnose(cfg, paths, out_dir=tmp_path / "d")
        _assert_no_child()

    def test_varifold_build_error_raises_as_in_process(self, tmp_path,
                                                       monkeypatch):
        # build_varifold raises for no solution; if it did, the child would
        # fail and the in-process writer raise the error, as it does for an
        # unwritable atom path, and no child would be left
        cfg, paths = _solved(tmp_path, "disk")
        real = cli.build_varifold

        def failing(sol, well, h0):
            if sol.field.epsilon == 0.1:
                raise NoConvergence("forced")
            return real(sol, well, h0)

        monkeypatch.setattr(cli, "build_varifold", failing)
        with pytest.raises(NoConvergence, match="forced"):
            cli.cmd_diagnose(cfg, paths)
        _assert_no_child()

    def test_checks_without_varifold_fork_nothing(self, tmp_path,
                                                  monkeypatch):
        forks = []

        def counting():
            forks.append(1)
            raise OSError("forced")

        cfg, paths = _solved(tmp_path, "disk", "equipartition pohozaev")
        monkeypatch.setattr(os, "fork", counting)
        report = cli.cmd_diagnose(cfg, paths)
        assert report.tables["pohozaev"]
        assert forks == []
        assert _atom_bytes(tmp_path / "out") == {}

    def test_writer_killed_when_a_check_raises(self, tmp_path, monkeypatch):
        import time

        def boom(*args):
            raise RuntimeError("forced")

        cfg, paths = _solved(tmp_path, "disk", ALL_CHECKS)
        # a writer still running when a check raises is killed, not awaited
        self.parent_calls(monkeypatch, lambda *args: time.sleep(60))
        monkeypatch.setattr(cli, "_diag_pohozaev", boom)
        t0 = time.monotonic()
        with pytest.raises(RuntimeError, match="forced"):
            cli.cmd_diagnose(cfg, paths)
        assert time.monotonic() - t0 < 30
        _assert_no_child()


class TestLifetime:
    def test_solve_and_diagnose_leave_no_domain_or_field(self, tmp_path):
        # with the cycle collector off, a cache that closes a reference
        # cycle through a Domain or a Field keeps it alive after return
        import gc
        from aclab.geometry import Domain
        cfg = tiny_disk_cfg(tmp_path, ALL_CHECKS)

        def alive():
            return {id(o) for o in gc.get_objects()
                    if isinstance(o, (Domain, Field))}

        gc.collect()
        before = alive()
        gc.disable()
        try:
            cli.cmd_solve(cfg)
            sols = sorted((tmp_path / "out").glob("solution_*.txt"))
            report = cli.cmd_diagnose(cfg, sols)
            left = alive() - before
        finally:
            gc.enable()
        assert len(sols) == 2 and len(report.tables["pohozaev"]) == 4
        assert report.tables["free_boundary"]
        assert not left


class TestBoundaryNormalField:
    def test_built_once_per_diagnose(self, tmp_path, monkeypatch):
        # Pohozaev and the first-variation bound of both solutions share
        # one field, kept on the domain
        built = []

        def counting(dom, a):
            built.append(dom)
            return make(dom, a)

        make = cli.make_boundary_normal_field
        monkeypatch.setattr(cli, "make_boundary_normal_field", counting)
        cfg = tiny_disk_cfg(tmp_path, ALL_CHECKS)
        cli.cmd_solve(cfg)
        report = cli.cmd_diagnose(
            cfg, sorted((tmp_path / "out").glob("solution_*.txt")))
        assert len(report.tables["pohozaev"]) == 4
        assert "first_variation_C" in report.fitted_constants
        assert len(built) == 1

    def test_failed_build_is_retried(self, monkeypatch):
        from aclab.errors import InvalidCutoffScale
        dom = build_domain("disk", (1.0,), 64)
        make = cli.make_boundary_normal_field
        calls = []

        def failing_once(dom, a):
            calls.append(a)
            if len(calls) == 1:
                raise InvalidCutoffScale("first build fails")
            return make(dom, a)

        monkeypatch.setattr(cli, "make_boundary_normal_field", failing_once)
        with pytest.raises(InvalidCutoffScale):
            cli._boundary_normal_field(dom)
        X = cli._boundary_normal_field(dom)
        assert cli._boundary_normal_field(dom) is X
        assert len(calls) == 2


class TestKeptData:
    def test_everything_kept_is_read_only(self, tmp_path, monkeypatch):
        # every array a solve plus diagnose leaves in a domain's or a
        # field's cache is read-only
        import dataclasses

        import scipy.sparse as sp
        domains, sols = [], []

        def recording(fn, into):
            def wrapped(*args, **kw):
                out = fn(*args, **kw)
                into.extend(out if isinstance(out, list) else [out])
                return out
            return wrapped

        monkeypatch.setattr(cli, "build_domain",
                            recording(cli.build_domain, domains))
        monkeypatch.setattr(cli, "epsilon_sweep",
                            recording(cli.epsilon_sweep, sols))
        monkeypatch.setattr(cli, "load_solution",
                            recording(cli.load_solution, sols))
        cfg = tiny_disk_cfg(tmp_path, ALL_CHECKS)
        cli.cmd_solve(cfg)
        cli.cmd_diagnose(cfg, sorted((tmp_path / "out").glob("solution_*")))

        def arrays(v):
            if isinstance(v, np.ndarray):
                yield v
            elif sp.issparse(v):
                yield from (v.data, v.indices, v.indptr)
            elif isinstance(v, (tuple, list)):
                for x in v:
                    yield from arrays(x)
            elif isinstance(v, dict):
                yield from arrays(list(v.values()))
            elif dataclasses.is_dataclass(v):
                yield from arrays(list(vars(v).values()))

        found = [a for obj in domains + [s.field for s in sols]
                 for a in arrays(list(obj.cache.values()))]
        assert len(domains) == 2 and len(sols) == 4
        # the solve's stiffness, mirror maps and fold along y (21), the
        # diagnose's gradient stencils, distance and axis text (9), the
        # rotational fields' cutoff and (-y, x) at the nodes and the
        # boundary samples (4), and the gradient and densities of both
        # diagnosed fields (10)
        fold = list(arrays(solver.fold(domains[0], (1,))))
        assert len(fold) == 16
        assert not [a for a in fold if a.flags.writeable]
        assert len(found) >= 44
        assert not [a for a in found if a.flags.writeable]


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

        monkeypatch.setattr(acc, "compute_h0", lambda well: 0.95)
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
        sol = cli.load_solution(tmp_path / "out" / "solution_00.txt",
                                build_domain("interval", (1.0,), dom_cells))
        assert sol.residual_norm <= 1e-10

    @pytest.mark.parametrize("content", [
        None, "0.5\n" * 255, "0.5\n" * 257, "0.5\nabc\n" + "0.5\n" * 254,
        "0.5\nnan\n" + "0.5\n" * 254, "0.5 0.5\n" * 256],
        ids=["missing", "short", "long", "unparsable", "nan", "two-columns"])
    def test_bad_init_file_is_config_error(self, tmp_path, capsys, content):
        init_path = tmp_path / "init.txt"
        if content is not None:
            init_path.write_text(content)
        cfg_text = SMALL.format(out=tmp_path / "out").replace(
            "cells = 512", "cells = 256").replace(
            "recipe = step-x", f"recipe = file\nfile = {init_path}")
        cfg_path = tmp_path / "file.cfg"
        cfg_path.write_text(cfg_text)
        assert cli.main(["solve", "--config", str(cfg_path)]) == 2
        assert "config error: init.file" in capsys.readouterr().err

    def test_empty_init_file_prints_one_line(self, tmp_path, capsys):
        # numpy warns of an empty input; the config error alone is printed
        import warnings
        init_path = tmp_path / "init.txt"
        init_path.write_text("")
        cfg_path = tmp_path / "file.cfg"
        cfg_path.write_text(SMALL.format(out=tmp_path / "out").replace(
            "recipe = step-x", f"recipe = file\nfile = {init_path}"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["solve", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"config error: init.file {init_path}: 0 values for a domain "
            "with 512 active nodes"]
        assert not (tmp_path / "out").exists()

    def test_init_file_comments_allowed(self, tmp_path):
        dom = build_domain("interval", (1.0,), 256)
        init_path = tmp_path / "init.txt"
        init_path.write_text("# a step at 0.5\n" + "".join(
            f"{v}\n" for v in np.sign(dom.points[:, 0] - 0.5)))
        cfg_path = tmp_path / "file.cfg"
        cfg_path.write_text(SMALL.format(out=tmp_path / "out").replace(
            "cells = 512", "cells = 256").replace(
            "recipe = step-x", f"recipe = file\nfile = {init_path}").replace(
            "epsilons = 0.1 0.05 0.025", "epsilons = 0.1"))
        assert cli.main(["solve", "--config", str(cfg_path)]) == 0

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

    def test_empty_tables_recorded_not_written(self, small_cfg, tmp_path):
        # a 1D run has no interface polylines and no free-boundary rows:
        # both tables are on the report, empty, and neither CSV is written
        cfg = load_config(small_cfg)
        cli.cmd_solve(cfg)
        out = tmp_path / "out"
        report = cli.cmd_diagnose(cfg, sorted(out.glob("solution_*.txt")))
        for name in ("free_boundary", "interface"):
            assert report.tables[name] == []
            assert not (out / f"{name}.csv").exists()
        assert report.tables["varifold_mass"]
        assert (out / "varifold_mass.csv").exists()

    def test_summary_counts_factorizations(self, small_cfg, tmp_path):
        assert cli.main(["solve", "--config", str(small_cfg)]) == 0
        out = tmp_path / "out"
        header, *rows = (out / "summary.csv").read_text().splitlines()
        cols = header.split(",")
        assert cols[cols.index("iterations") + 1] == "factorizations"
        for k, row in enumerate(rows):
            vals = dict(zip(cols, row.split(",")))
            head = json.loads(
                (out / f"solution_{k:02d}.txt").read_text().splitlines()[0])
            assert int(vals["factorizations"]) == head["factorizations"]
            assert 1 <= head["factorizations"] <= head["iterations"]

    def test_missing_solution_path_exit(self, small_cfg, tmp_path, capsys):
        # an unexpanded glob reaches diagnose as a literal path; that is a
        # bad input (exit 2), not an acceptance failure (exit 1)
        missing = tmp_path / "out" / "solution_*.txt"
        assert cli.main(["diagnose", "--config", str(small_cfg),
                         str(missing)]) == 2
        assert "cannot read solution file" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_diagnose_extracts_once_per_solution(self, tmp_path, monkeypatch):
        cfg = tiny_disk_cfg(tmp_path)
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

    def test_diagnose_differentiates_each_array_once(self, tmp_path,
                                                     monkeypatch):
        # a solution's gradient and a test field's Jacobian are computed
        # once and shared by every check that needs them
        from aclab import diagnostics
        cfg = tiny_disk_cfg(tmp_path, ALL_CHECKS)
        cli.cmd_solve(cfg)
        sols = sorted((tmp_path / "out").glob("solution_*.txt"))
        seen = []
        real = diagnostics.node_gradient

        def recording(dom, values):
            seen.append(values)
            return real(dom, values)

        monkeypatch.setattr(diagnostics, "node_gradient", recording)
        monkeypatch.setattr(varifold, "node_gradient", recording,
                            raising=False)
        report = cli.cmd_diagnose(cfg, sols)
        assert report.tables["free_boundary"]
        assert not [k for k, v in enumerate(seen)
                    if any(v is w for w in seen[:k])]

    def test_user_polynomial_through_config(self, tmp_path):
        text = SMALL.format(out=tmp_path / "out").replace(
            "[solver]",
            "[potential]\nkind = user-polynomial\n"
            "coefficients = 0.25 0.0 -0.5 0.0 0.25\n\n[solver]").replace(
            "epsilons = 0.1 0.05 0.025", "epsilons = 0.1")
        cfg = tmp_path / "poly.cfg"
        cfg.write_text(text)
        assert cli.main(["solve", "--config", str(cfg)]) == 0
        sol = cli.load_solution(tmp_path / "out" / "solution_00.txt",
                                build_domain("interval", (1.0,), 512))
        assert sol.residual_norm <= 1e-10
