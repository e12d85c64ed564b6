"""Run configuration: a flat-sectioned plain-text key/value file.

Sections: [domain], [potential], [solver], [init], [sweep], [diagnostics],
[output].  All defaults are documented in the generated example config.
Keys the parser does not read are ignored, so older configs that still set
the retired pre-flow keys (init.pre_steps, solver.max_steps,
solver.dt_factor) keep parsing.
"""
from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field

from .errors import ConfigError
from .geometry import SHAPES_1D, SHAPES_2D
from .solver import RECIPES

DIAGNOSTIC_CHECKS = ("equipartition", "ratios", "monotonicity", "pohozaev",
                     "boundary-energy", "varifold")

EXAMPLE_CONFIG = """\
# aclab run configuration (key = value per section; '#' starts a comment)

[domain]
# shape: interval | rectangle | disk | annulus | half-disk
shape = interval
# shape dimensions: interval length | rectangle sides | disk radius |
# annulus inner outer | half-disk radius
params = 1.0
# cells per axis (one value per axis; spacing must be uniform)
cells = 2048

[potential]
# kind: standard-quartic | user-polynomial
kind = standard-quartic
# coefficients (ascending degree), only for user-polynomial
# coefficients = 0.25 0.0 -0.5 0.0 0.25

[solver]
# Newton stopping tolerance on the discrete L2 residual
tol = 1e-10
# target spatial mean m in (-1, 1); comment out for unconstrained runs
constraint_mean = 0.0

[init]
# recipe: constant | step-x | step-y | two-layer | radial | file
recipe = step-x
# value = 0.0          # constant recipe
# offset = 0.5         # step recipes: interface position
# center = 0.0 0.0     # radial recipe
# radius = 0.25        # radial recipe
# file = init.txt      # file recipe: one nodal value per line, row-major

[sweep]
# strictly descending epsilons, each > 2h
epsilons = 0.1 0.05 0.025

[diagnostics]
# any of: equipartition ratios monotonicity pohozaev boundary-energy varifold
checks = equipartition ratios monotonicity pohozaev boundary-energy varifold
# sampled interface centers for ratio/monotonicity/integrality scans
samples = 10
# random tangential fields for the free-boundary check
fields = 5

[output]
dir = out
seed = 7
"""


@dataclass(frozen=True)
class RunConfig:
    shape: str
    params: tuple
    cells: tuple
    potential_kind: str = "standard-quartic"
    coefficients: tuple = ()
    tol: float = 1e-10
    constraint_mean: float | None = 0.0
    recipe: str = "step-x"
    recipe_params: dict = field(default_factory=dict)
    epsilons: tuple = (0.1, 0.05, 0.025)
    checks: tuple = DIAGNOSTIC_CHECKS
    samples: int = 10
    fields: int = 5
    out_dir: str = "out"
    seed: int = 7


def _floats(text):
    try:
        return tuple(float(v) for v in text.replace(",", " ").split())
    except ValueError as exc:
        raise ConfigError(f"expected numbers, got {text!r}") from exc


def _ints(text):
    vals = _floats(text)
    if any(not math.isfinite(v) or v != int(v) for v in vals):
        raise ConfigError(f"expected integers, got {text!r}")
    return tuple(int(v) for v in vals)


def _scalar(section, key, parse=_floats, least=-math.inf):
    """The one finite number section[key] holds, which must be at least
    least; a ConfigError naming the key for anything else."""
    try:
        vals = parse(section[key])
        if len(vals) != 1 or not math.isfinite(vals[0]):
            raise ConfigError(f"expected one finite number, got "
                              f"{section[key]!r}")
        if vals[0] < least:
            raise ConfigError(f"must be at least {least}, got {vals[0]}")
    except ConfigError as exc:
        raise ConfigError(f"{section.name}.{key}: {exc}") from exc
    return vals[0]


def parse_config(text: str) -> RunConfig:
    """Parse the sectioned key/value format into a validated RunConfig."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc

    if not cp.has_section("domain"):
        raise ConfigError("missing [domain] block")
    dom = cp["domain"]
    for key in ("shape", "params", "cells"):
        if key not in dom:
            raise ConfigError(f"[domain] is missing key {key!r}")
    shape = dom["shape"].strip()
    if shape not in SHAPES_1D + SHAPES_2D:
        raise ConfigError(f"domain.shape {shape!r} is not a supported shape")

    kw = dict(shape=shape, params=_floats(dom["params"]),
              cells=_ints(dom["cells"]))

    if cp.has_section("potential"):
        pot = cp["potential"]
        kind = pot.get("kind", "standard-quartic").strip()
        if kind not in ("standard-quartic", "user-polynomial"):
            raise ConfigError(f"potential.kind {kind!r} unknown")
        kw["potential_kind"] = kind
        if "coefficients" in pot:
            kw["coefficients"] = _floats(pot["coefficients"])

    if cp.has_section("solver"):
        sv = cp["solver"]
        if "tol" in sv:
            kw["tol"] = _scalar(sv, "tol")
            if not kw["tol"] > 0.0:
                raise ConfigError("solver.tol must be positive")
        kw["constraint_mean"] = (_scalar(sv, "constraint_mean")
                                 if "constraint_mean" in sv else None)
        if kw["constraint_mean"] is not None \
                and not -1.0 < kw["constraint_mean"] < 1.0:
            raise ConfigError("solver.constraint_mean must lie in (-1, 1)")

    if cp.has_section("init"):
        init = cp["init"]
        recipe = init.get("recipe", "step-x").strip()
        if recipe not in RECIPES:
            raise ConfigError(f"init.recipe {recipe!r} not one of {RECIPES}")
        kw["recipe"] = recipe
        rp = {}
        for key in ("value", "offset", "radius", "left", "right"):
            if key in init:
                rp[key] = _scalar(init, key)
        if "center" in init:
            rp["center"] = _floats(init["center"])
        if "file" in init:
            rp["file"] = init["file"].strip()
        if recipe == "file" and "file" not in rp:
            raise ConfigError("init.recipe = file needs init.file = PATH")
        kw["recipe_params"] = rp

    if cp.has_section("sweep") and "epsilons" in cp["sweep"]:
        text = cp["sweep"]["epsilons"]
        eps = _floats(text)
        if not eps or not all(math.isfinite(e) for e in eps):
            raise ConfigError(f"sweep.epsilons: expected finite numbers, "
                              f"got {text!r}")
        if any(b >= a for a, b in zip(eps, eps[1:])):
            raise ConfigError("sweep.epsilons must descend")
        kw["epsilons"] = eps

    if cp.has_section("diagnostics"):
        dg = cp["diagnostics"]
        if "checks" in dg:
            checks = tuple(dg["checks"].split())
            for c in checks:
                if c not in DIAGNOSTIC_CHECKS:
                    raise ConfigError(
                        f"diagnostics check {c!r} not one of "
                        f"{DIAGNOSTIC_CHECKS}")
            kw["checks"] = checks
        for key, least in (("samples", 1), ("fields", 0)):
            if key in dg:
                kw[key] = _scalar(dg, key, _ints, least)

    if cp.has_section("output"):
        out = cp["output"]
        if "dir" in out:
            kw["out_dir"] = out["dir"].strip()
        if "seed" in out:
            kw["seed"] = _scalar(out, "seed", _ints, 0)

    return RunConfig(**kw)


def load_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def example_config() -> str:
    return EXAMPLE_CONFIG
