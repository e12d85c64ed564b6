"""Config-driven experiment runner: epsilon sweeps, diagnostic suites and
CSV report emission.

Subcommands: solve, diagnose, check, example-config.  solve is a thin
wrapper over solver.epsilon_sweep that writes its solutions.  Every table
goes through _emit, which records it on the RunReport and writes its CSV;
the boundary-normal test field is kept on the domain.  When the checks
include varifold, diagnose writes the varifold atom files from one forked
writer (forked.Forked) while the rest of the suite runs, and reaps it
before it returns, so every file is complete then; where fork is
unavailable or the writer fails, the same writer runs in-process.  solve
and diagnose create the output directory only once the domain, the sweep's
gates and the solution files have been accepted.  Exit codes: 0 success,
1 acceptance failure, 2 config error, 3 solver error.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import acceptance as accept
from .config import RunConfig, example_config, load_config
from .diagnostics import (almost_monotonicity_fit, boundary_energy,
                          energy_ratio_curve, equipartition_report,
                          make_boundary_normal_field, make_radial_field,
                          make_rotational_field, monotonicity_scan,
                          pohozaev_residual, radius_ladder,
                          xi_integral_bound_fit)
from .errors import (AcLabError, ConfigError, DomainMismatch,
                     InvalidShapeParams, UnresolvedInterface)
from .forked import Forked
from .geometry import Domain, build_domain, kept, signed_distance
from .potential import compute_h0
from .solver import Field, Solution, epsilon_sweep
from .tables import write_rows
from .varifold import (build_varifold, export_atoms, extract_interface,
                       first_variation_bound_constant,
                       free_boundary_test, integrality_check,
                       sample_interface_nodes)

SOLUTION_SCHEMA = "aclab-solution-1"

# tables whose CSV is written only when they have rows
SKIPPED_WHEN_EMPTY = ("free_boundary", "integrality", "interface",
                      "fitted_constants")


@dataclass
class RunReport:
    """Per-epsilon summaries, diagnostic tables and fitted constants."""

    solutions: list = field(default_factory=list)
    tables: dict = field(default_factory=dict)
    fitted_constants: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)


def _g17(x):
    """17-significant-digit decimal rendering (round-trip exact)."""
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".17g")
    return str(x)


def write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_g17(v) for v in row) + "\n")


def _emit(report, out, name, header, rows):
    """Record rows as report.tables[name] and write them to out/name.csv,
    unless they are empty and name is in SKIPPED_WHEN_EMPTY."""
    report.tables[name] = rows
    if rows or name not in SKIPPED_WHEN_EMPTY:
        write_csv(out / f"{name}.csv", header, rows)


def _fit(report, name, value, pick=max):
    """Fold value into the fitted constant name: the largest value seen,
    from 0.0, or with pick=min the smallest, from inf."""
    start = math.inf if pick is min else 0.0
    report.fitted_constants[name] = pick(
        report.fitted_constants.get(name, start), value)


def save_solution(path, sol: Solution):
    """JSON header line followed by one nodal value per line (row-major)."""
    head = {
        "schema": SOLUTION_SCHEMA,
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
        write_rows(fh, "%.17g\n", [sol.field.values.tolist()])


def load_solution(path, dom: Domain) -> Solution:
    """Read a stored solution on dom.

    A missing file, an unparsable header or value line, a header that is
    not a JSON object, lacks a required key or holds an unconvertible value,
    a stored domain other than dom, non-finite nodal values, a non-finite
    epsilon or lambda and an epsilon that is not positive raise
    DomainMismatch; the energy may be NaN (its default).  Files written
    before the factorization count was stored read it as 0.
    """
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise DomainMismatch(f"{path}: cannot read solution file: "
                             f"{exc.strerror}") from exc
    with fh:
        try:
            head = json.loads(fh.readline())
            # numpy parses each line as float(line) would
            values = np.array([line for line in fh if line.strip()],
                              dtype=float)
        except ValueError as exc:
            raise DomainMismatch(f"{path}: unparsable solution file: {exc}") from exc
    if not isinstance(head, dict):
        raise DomainMismatch(f"{path}: solution header is not a JSON object")
    if head.get("schema") != SOLUTION_SCHEMA:
        raise DomainMismatch(f"{path}: unknown solution schema")
    try:
        stored = head["domain"]
        eps, lam = float(head["epsilon"]), float(head["lambda"])
        residual = float(head["residual_norm"])
        iterations = int(head["iterations"])
        factorizations = int(head.get("factorizations", 0))
        energy = float(head.get("energy", math.nan))
    except KeyError as exc:
        raise DomainMismatch(f"{path}: solution header lacks {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainMismatch(f"{path}: bad solution header value: {exc}") \
            from exc
    if stored != dom.to_descriptor():
        raise DomainMismatch(
            f"{path}: stored domain {stored} does not match configured "
            f"domain {dom.to_descriptor()}")
    if values.size != dom.n_nodes:
        raise DomainMismatch(
            f"{path}: {values.size} nodal values for a domain with "
            f"{dom.n_nodes} active nodes")
    if not np.all(np.isfinite(values)):
        raise DomainMismatch(f"{path}: non-finite nodal values")
    if not (math.isfinite(eps) and math.isfinite(lam)):
        raise DomainMismatch(f"{path}: non-finite epsilon {eps} or lambda {lam}")
    if not eps > 0.0:
        raise DomainMismatch(f"{path}: epsilon {eps} is not positive")
    return Solution(field=Field(dom, eps, values), lam=lam,
                    residual_norm=residual, iterations=iterations,
                    factorizations=factorizations,
                    constraint=head.get("constraint"),
                    converged=bool(head.get("converged", True)),
                    energy=energy)


def _recipe_params(cfg: RunConfig, dom: Domain) -> dict:
    """cfg.recipe_params, plus the file recipe's nodal values, read once and
    checked against dom; a bad init file is a ConfigError."""
    if cfg.recipe != "file":
        return cfg.recipe_params
    path = cfg.recipe_params["file"]
    try:
        values = np.loadtxt(path, dtype=float, ndmin=1)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"init.file {path}: {exc}") from exc
    if values.shape != (dom.n_nodes,):
        raise ConfigError(f"init.file {path}: {values.size} values for a "
                          f"domain with {dom.n_nodes} active nodes")
    if not np.all(np.isfinite(values)):
        raise ConfigError(f"init.file {path}: non-finite values")
    return dict(cfg.recipe_params, values=values)


def cmd_solve(cfg: RunConfig, out_dir=None, verbose=False) -> RunReport:
    """Run the epsilon sweep and write solution files plus a summary CSV.

    Solver failures on one epsilon are recorded and do not abort the sweep;
    solution_KK.txt keeps the index KK of its epsilon in the config.
    """
    dom = build_domain(cfg.shape, cfg.params, cfg.cells)
    report = RunReport()
    try:
        sols = epsilon_sweep(dom, cfg.well, cfg.epsilons,
                             cfg.constraint_mean, cfg.recipe,
                             _recipe_params(cfg, dom), newton_tol=cfg.tol,
                             errors=report.errors)
    except UnresolvedInterface as exc:
        # only the sweep's up-front gates raise it: errors collects the rest
        raise ConfigError(f"sweep.epsilons: {exc}") from exc
    out = Path(out_dir or cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for sol in sols:
        e = sol.field.epsilon
        fn = out / f"solution_{cfg.epsilons.index(e):02d}.txt"
        save_solution(fn, sol)
        rows.append((e, sol.energy, sol.lam, sol.residual_norm,
                     sol.max_abs, sol.iterations, sol.factorizations,
                     sol.converged))
        report.solutions.append(sol)
        if verbose:
            print(f"eps={e:g}: energy={sol.energy:.6f} lambda={sol.lam:+.3e} "
                  f"residual={sol.residual_norm:.2e} -> {fn}")
    _emit(report, out, "summary",
          ("epsilon", "energy", "lambda", "residual_norm", "max_abs_u",
           "iterations", "factorizations", "converged"), rows)
    for e, msg in report.errors:
        print(f"solver error at eps={e:g}: {msg}", file=sys.stderr)
    return report


def _diag_equipartition(report, out, sols, well):
    rep = equipartition_report(sols, well)
    rows = [(r.epsilon, r.kinetic, r.potential, r.ratio, r.xi_l1)
            for r in rep.rows]
    _emit(report, out, "equipartition",
          ("epsilon", "kinetic", "potential", "ratio", "xi_l1"), rows)


def _interior_margin(dom):
    return min(0.15 * dom.extent,
               0.5 * float(signed_distance(dom).max()))


@kept
def _boundary_normal_field(dom):
    """The boundary-normal test field, cut off at a fifth of the largest
    distance to the boundary; kept on dom, and built again on the next use
    when the build raises."""
    return make_boundary_normal_field(
        dom, 0.2 * float(signed_distance(dom).max()))


def _interior_radial_field(dom):
    """The radial test field about the center of the grid box, of support
    radius 0.3 extent."""
    center = dom.origin + 0.5 * np.asarray(dom.n_cells) * dom.cell_size
    return make_radial_field(dom, center, 0.3 * dom.extent)


def _diag_ratios(report, out, sols, well, cfg, rng):
    rows, mono_rows, viol_rows = [], [], []
    for sol in sols:
        dom = sol.field.dom
        eps = sol.field.epsilon
        try:
            pts = sample_interface_nodes(sol, cfg.samples, rng,
                                         interior_margin=_interior_margin(dom))
        except AcLabError:
            continue
        for p in pts:
            rr = radius_ladder(dom, eps, p)
            if rr.size < 3:
                continue
            curve = energy_ratio_curve(sol.field, well, p, rr, lam=sol.lam)
            for r, I, It in zip(curve.radii, curve.I_values,
                                curve.I_tilde_values):
                rows.append((eps, *curve.center, int(curve.boundary_centered),
                             r, I, It))
            scan = monotonicity_scan(curve, dom)
            mono_rows.append((eps, *curve.center, 0.0, scan.fitted_c1,
                              scan.max_deficit, len(scan.violations)))
            for lo, hi, d in scan.violations:
                viol_rows.append((eps, *curve.center, lo, hi, d))
            _fit(report, "xi_integral_C", xi_integral_bound_fit(curve))
            _fit(report, "almost_monotone_c", almost_monotonicity_fit(curve))
            _fit(report, "density_ratio_lower_c",
                 float(curve.I_values.min()), min)
            _fit(report, "density_ratio_upper_C", float(curve.I_values.max()))
    dim = sols[0].field.dom.dim
    center_cols = ("center_x", "center_y")[:dim]
    _emit(report, out, "ratio_curves",
          ("epsilon", *center_cols, "boundary_centered", "radius", "I",
           "I_tilde"), rows)
    if "monotonicity" in cfg.checks:
        _emit(report, out, "monotonicity",
              ("epsilon", *center_cols, "c1", "fitted_c1", "max_deficit",
               "violations"), mono_rows)
        _emit(report, out, "monotonicity_violations",
              ("epsilon", *center_cols, "rho_lo", "rho_hi", "deficit"),
              viol_rows)


def _diag_pohozaev(report, out, sols, well, radial):
    rows = []
    for sol in sols:
        eps = sol.field.epsilon
        rows.append((eps, "interior-radial",
                     pohozaev_residual(sol, well, radial)))
        try:
            rb = pohozaev_residual(sol, well,
                                   _boundary_normal_field(sol.field.dom))
            rows.append((eps, "boundary-normal", rb))
        except AcLabError as exc:
            report.errors.append((eps, f"pohozaev boundary field: {exc}"))
    _emit(report, out, "pohozaev", ("epsilon", "field", "residual"), rows)


def _diag_boundary_energy(report, out, sols, well):
    rows = [(s.field.epsilon, boundary_energy(s, well)) for s in sols]
    _emit(report, out, "boundary_energy", ("epsilon", "value"), rows)


def _write_atoms(out, sols, well, h0):
    """Write varifold_atoms_KK.csv for each solution in turn, up to the
    first whose varifold build raises; _diag_varifold reports that one."""
    for k, sol in enumerate(sols):
        try:
            V = build_varifold(sol, well, h0)
        except AcLabError:
            return
        export_atoms(V, out / f"varifold_atoms_{k:02d}.csv")


def _diag_varifold(report, out, sols, well, cfg, rng, h0):
    mass_rows, fb_rows, integ_rows, iface_rows = [], [], [], []
    for sol in sols:
        dom = sol.field.dom
        eps = sol.field.epsilon
        V = build_varifold(sol, well, h0)
        mass_rows.append((eps, V.mass, V.total_measure,
                          V.total_measure - V.mass))
        if dom.dim == 2 and sol.field.values.min() < 0 < sol.field.values.max():
            try:
                curve = extract_interface(sol)
                for cid, chain in enumerate(curve.polylines):
                    for p in chain:
                        iface_rows.append((eps, cid, *p))
                for _ in range(cfg.fields):
                    X = make_rotational_field(dom, rng)
                    if not X.tangential_on_boundary:
                        continue
                    lhs, rhs, deficit = free_boundary_test(V, sol, h0, X,
                                                           curve=curve)
                    fb_rows.append((eps, lhs, rhs, deficit, X.c1_norm))
                _fit(report, "first_variation_C",
                     first_variation_bound_constant(
                         V, sol, h0, _boundary_normal_field(dom),
                         curve=curve))
            except AcLabError as exc:
                report.errors.append((eps, f"varifold: {exc}"))
        try:
            pts = sample_interface_nodes(sol, cfg.samples, rng,
                                         interior_margin=_interior_margin(dom))
            rep = integrality_check(V, pts)
            for r in rep.rows:
                integ_rows.append((eps, *r.point, r.plateau,
                                   r.nearest_integer, r.deviation))
        except AcLabError as exc:
            report.errors.append((eps, f"integrality: {exc}"))
    dim = sols[0].field.dom.dim
    pc = ("x", "y")[:dim]
    _emit(report, out, "varifold_mass",
          ("epsilon", "mass", "total_measure", "zero_normal_share"),
          mass_rows)
    _emit(report, out, "free_boundary",
          ("epsilon", "lhs", "rhs", "deficit", "c1_norm"), fb_rows)
    _emit(report, out, "integrality",
          ("epsilon", *pc, "plateau", "nearest_integer", "deviation"),
          integ_rows)
    _emit(report, out, "interface", ("epsilon", "chain", "x", "y"),
          iface_rows)


def cmd_diagnose(cfg: RunConfig, solution_paths, out_dir=None,
                 verbose=False) -> RunReport:
    """Run the configured diagnostics over stored solutions.

    With varifold among the checks, one forked writer writes the atom files
    while the checks run; it is reaped before this returns, and killed
    first when a check raises anything but an AcLabError.  Where it does not
    deliver, the same writer runs here.
    """
    dom = build_domain(cfg.shape, cfg.params, cfg.cells)
    well = cfg.well
    sols = [load_solution(p, dom) for p in solution_paths]
    out = Path(out_dir or cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    report = RunReport()
    if not sols:
        return report
    rng = np.random.default_rng(cfg.seed)
    h0 = compute_h0(well).h0
    # one ratio scan serves ratios and monotonicity; it runs where ratios
    # stands in checks, or where monotonicity does when ratios is absent
    scan_at = "ratios" if "ratios" in cfg.checks else "monotonicity"
    runners = {
        "equipartition": lambda: _diag_equipartition(report, out, sols, well),
        scan_at: lambda: _diag_ratios(report, out, sols, well, cfg, rng),
        "pohozaev": lambda: _diag_pohozaev(report, out, sols, well,
                                           _interior_radial_field(dom)),
        "boundary-energy": lambda: _diag_boundary_energy(report, out, sols,
                                                         well),
        "varifold": lambda: _diag_varifold(report, out, sols, well, cfg, rng,
                                           h0),
    }
    writer = (Forked(lambda: _write_atoms(out, sols, well, h0))
              if "varifold" in cfg.checks else None)
    try:
        for name in cfg.checks:
            if name not in runners:
                continue
            try:
                runners[name]()
            except AcLabError as exc:
                report.errors.append((name, str(exc)))
                print(f"diagnostic {name} failed: {exc}", file=sys.stderr)
        _emit(report, out, "fitted_constants", ("name", "value"),
              sorted(report.fitted_constants.items()))
        if writer is not None and writer.result() is None:
            _write_atoms(out, sols, well, h0)
    finally:
        if writer is not None:
            writer.close()
    if verbose:
        for name, rows in report.tables.items():
            print(f"{name}: {len(rows)} rows")
    return report


def cmd_check(seed: int = 7, verbose: bool = True) -> int:
    """Run the built-in acceptance suite; nonzero exit on any failure."""
    results = accept.run_acceptance(seed=seed, verbose=verbose)
    failed = [r for r in results if not r.passed]
    if not verbose:
        for r in results:
            print(accept.format_result_line(r))
    print(f"\n{len(results) - len(failed)}/{len(results)} criteria passed")
    if failed:
        for r in failed:
            for s in r.subs:
                if not s.passed:
                    note = f" [{s.note}]" if s.note else ""
                    print(f"  criterion {r.index}: {s.label}: measured "
                          f"{s.measured}, want {s.threshold}{note}")
        return 1
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(
        prog="aclab",
        description="Allen-Cahn critical-point laboratory")
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="run the epsilon sweep")
    ps.add_argument("--config", required=True)
    ps.add_argument("--out", default=None)
    ps.add_argument("--verbose", action="store_true")

    pd = sub.add_parser("diagnose", help="run diagnostics on stored solutions")
    pd.add_argument("--config", required=True)
    pd.add_argument("--out", default=None)
    pd.add_argument("--verbose", action="store_true")
    pd.add_argument("solutions", nargs="+")

    pc = sub.add_parser("check", help="run the built-in acceptance suite")
    pc.add_argument("--verbose", action="store_true")
    pc.add_argument("--seed", type=int, default=7)

    pe = sub.add_parser("example-config", help="print a documented config")

    args = p.parse_args(argv)
    try:
        if args.command == "example-config":
            print(example_config(), end="")
            return 0
        if args.command == "check":
            return cmd_check(seed=args.seed, verbose=args.verbose)
        cfg = load_config(args.config)
        if args.command == "solve":
            report = cmd_solve(cfg, out_dir=args.out, verbose=args.verbose)
            return 3 if report.errors and not report.solutions else 0
        report = cmd_diagnose(cfg, args.solutions, out_dir=args.out,
                              verbose=args.verbose)
        return 0
    except (ConfigError, InvalidShapeParams) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DomainMismatch as exc:
        print(f"domain mismatch: {exc}", file=sys.stderr)
        return 2
    except AcLabError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
