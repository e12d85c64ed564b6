"""Run configuration: a flat-sectioned plain-text key/value file.

Sections: [domain], [potential], [solver], [init], [sweep], [diagnostics],
[output].  All defaults are documented in the generated example config.
Every value is read through _numbers or _word, whose ConfigError starts
with section.key; the shape parameters and cell counts are checked by the
code build_domain uses, and the potential is built here as well.
An unknown section or key is a ConfigError naming it; the retired pre-flow
keys (init.pre_steps, solver.max_steps, solver.dt_factor) are accepted and
ignored, so older configs that still set them keep parsing.
"""
from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field

from .errors import ConfigError, InvalidPotential, InvalidShapeParams
from .geometry import SHAPES_1D, SHAPES_2D, check_cells, check_params
from .potential import KINDS, DoubleWell
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
# center = 0.0 0.0     # radial recipe: one value per axis
# radius = 0.25        # radial recipe
# left = 0.25          # two-layer recipe: first interface position
# right = 0.75         # two-layer recipe: second interface position
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
    well: DoubleWell = DoubleWell()
    tol: float = 1e-10
    constraint_mean: float | None = None
    recipe: str = "step-x"
    recipe_params: dict = field(default_factory=dict)
    epsilons: tuple = (0.1, 0.05, 0.025)
    checks: tuple = DIAGNOSTIC_CHECKS
    samples: int = 10
    fields: int = 5
    out_dir: str = "out"
    seed: int = 7


def _numbers(section, key, integer=False, count=None, ok=None, want=""):
    """The numbers section[key] holds: finite, integers when integer is set,
    exactly count of them when count is given, and each passing ok, which
    want describes; a ConfigError naming section.key for anything else."""
    text = section[key]
    where = f"{section.name}.{key}"
    what = "integers" if integer else "finite numbers"
    try:
        vals = tuple(float(v) for v in text.replace(",", " ").split())
    except ValueError:
        vals = ()
    if not vals or not all(math.isfinite(v) and (not integer or v == int(v))
                           for v in vals):
        raise ConfigError(f"{where}: expected {what}, got {text!r}")
    if count is not None and len(vals) != count:
        raise ConfigError(f"{where}: expected {count} value(s), got {text!r}")
    if ok is not None and not all(ok(v) for v in vals):
        raise ConfigError(f"{where} must {want}, got {text!r}")
    return tuple(int(v) for v in vals) if integer else vals


def _word(section, key, allowed):
    """The one word section[key] holds, which must be one of allowed."""
    word = section[key].strip()
    if word not in allowed:
        raise ConfigError(f"{section.name}.{key}: {word!r} is not one of "
                          f"{allowed}")
    return word


def parse_config(text: str) -> RunConfig:
    """Parse the sectioned key/value format into a validated RunConfig."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc
    # the keys each section may hold; the retired pre-flow keys are ignored
    known = {"domain": "shape params cells", "potential": "kind coefficients",
             "solver": "tol constraint_mean max_steps dt_factor",
             "init": "recipe value offset center radius left right file "
                     "pre_steps",
             "sweep": "epsilons", "diagnostics": "checks samples fields",
             "output": "dir seed"}
    for name in cp.sections():
        if name not in known:
            raise ConfigError(f"[{name}]: unknown section, not one of "
                              f"{tuple(known)}")
        for key in cp[name]:
            if key not in known[name].split():
                raise ConfigError(f"{name}.{key}: unknown key")

    if not cp.has_section("domain"):
        raise ConfigError("missing [domain] block")
    dom = cp["domain"]
    for key in ("shape", "params", "cells"):
        if key not in dom:
            raise ConfigError(f"[domain] is missing key {key!r}")
    shape = _word(dom, "shape", SHAPES_1D + SHAPES_2D)
    kw = dict(shape=shape, params=_numbers(dom, "params"),
              cells=_numbers(dom, "cells", integer=True))
    try:
        params = check_params(shape, kw["params"])
    except InvalidShapeParams as exc:
        raise ConfigError(f"domain.params: {exc}") from exc
    try:
        check_cells(shape, params, kw["cells"])
    except InvalidShapeParams as exc:
        raise ConfigError(f"domain.cells: {exc}") from exc

    if cp.has_section("potential"):
        pot = cp["potential"]
        kind = (_word(pot, "kind", KINDS) if "kind" in pot
                else "standard-quartic")
        coefficients = (_numbers(pot, "coefficients")
                        if "coefficients" in pot else ())
        try:
            kw["well"] = DoubleWell(kind=kind, coefficients=coefficients)
        except InvalidPotential as exc:
            raise ConfigError(f"potential.coefficients: {exc}") from exc

    if cp.has_section("solver"):
        sv = cp["solver"]
        if "tol" in sv:
            kw["tol"] = _numbers(sv, "tol", count=1, ok=lambda v: v > 0.0,
                                 want="be positive")[0]
        if "constraint_mean" in sv:
            kw["constraint_mean"] = _numbers(
                sv, "constraint_mean", count=1, ok=lambda v: -1.0 < v < 1.0,
                want="lie in (-1, 1)")[0]

    if cp.has_section("init"):
        init = cp["init"]
        if "recipe" in init:
            kw["recipe"] = _word(init, "recipe", RECIPES)
        rp = {}
        for key in ("value", "offset", "radius", "left", "right"):
            if key in init:
                rp[key] = _numbers(init, key, count=1)[0]
        if "center" in init:
            rp["center"] = _numbers(init, "center",
                                    count=1 if shape in SHAPES_1D else 2)
        if "file" in init:
            rp["file"] = init["file"].strip()
        if kw.get("recipe") == "file" and "file" not in rp:
            raise ConfigError("init.recipe = file needs init.file = PATH")
        kw["recipe_params"] = rp

    if cp.has_section("sweep") and "epsilons" in cp["sweep"]:
        eps = _numbers(cp["sweep"], "epsilons")
        if any(b >= a for a, b in zip(eps, eps[1:])):
            raise ConfigError("sweep.epsilons must descend")
        kw["epsilons"] = eps

    if cp.has_section("diagnostics") and "checks" in cp["diagnostics"]:
        kw["checks"] = tuple(cp["diagnostics"]["checks"].split())
        for c in kw["checks"]:
            if c not in DIAGNOSTIC_CHECKS:
                raise ConfigError(f"diagnostics.checks: {c!r} is not one of "
                                  f"{DIAGNOSTIC_CHECKS}")
    for name, key, least in (("diagnostics", "samples", 1),
                             ("diagnostics", "fields", 0),
                             ("output", "seed", 0)):
        if cp.has_section(name) and key in cp[name]:
            kw[key] = _numbers(cp[name], key, integer=True, count=1,
                               ok=lambda v: v >= least,
                               want=f"be at least {least}")[0]

    if cp.has_section("output") and "dir" in cp["output"]:
        kw["out_dir"] = cp["output"]["dir"].strip()

    return RunConfig(**kw)


def load_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def example_config() -> str:
    return EXAMPLE_CONFIG
