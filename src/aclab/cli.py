"""Config-driven experiment runner: epsilon sweeps, diagnostic suites and
CSV report emission.

Subcommands: solve, diagnose, check, example-config.  Exit codes: 0 success,
1 acceptance failure, 2 config error, 3 solver error.  AC_LAB_THREADS caps
the worker count of --parallel-cold sweeps.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
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
                     InvalidShapeParams)
from .geometry import Domain, build_domain, domain_from_descriptor
from .potential import DoubleWell, compute_h0
from .solver import (Field, Solution, gradient_flow, newton_refine,
                     resharpen, seed_field)
from .varifold import (build_varifold, extract_interface,
                       first_variation_bound_constant,
                       free_boundary_test, integrality_check,
                       sample_interface_nodes)

SOLUTION_SCHEMA = "aclab-solution-1"


@dataclass
class RunReport:
    """Per-epsilon summaries, diagnostic tables and pass/fail checks."""

    solutions: list = field(default_factory=list)
    tables: dict = field(default_factory=dict)
    fitted_constants: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    errors: list = field(default_factory=list)

    @property
    def all_passed(self):
        return all(ok for _, ok, _, _ in self.checks)


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


def save_solution(path, sol: Solution):
    """JSON header line followed by one nodal value per line (row-major)."""
    head = {
        "schema": SOLUTION_SCHEMA,
        "domain": sol.field.dom.to_descriptor(),
        "epsilon": sol.field.epsilon,
        "lambda": sol.lam,
        "residual_norm": sol.residual_norm,
        "iterations": sol.iterations,
        "constraint": sol.constraint,
        "converged": sol.converged,
        "energy": sol.energy,
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(head) + "\n")
        fh.writelines("%.17g\n" % v for v in sol.field.values.tolist())


def load_solution(path, dom: Domain | None = None) -> Solution:
    """Read a stored solution; validates against dom when given.

    An unparsable header or value line, non-finite nodal values and a
    non-finite epsilon or lambda raise DomainMismatch; the energy may be NaN
    (its default).
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            head = json.loads(fh.readline())
            values = np.array([float(line) for line in fh if line.strip()])
        except ValueError as exc:
            raise DomainMismatch(f"{path}: unparsable solution file: {exc}") from exc
    if head.get("schema") != SOLUTION_SCHEMA:
        raise DomainMismatch(f"{path}: unknown solution schema")
    if dom is None:
        dom = domain_from_descriptor(head["domain"])
    else:
        want = dom.to_descriptor()
        if head["domain"] != want:
            raise DomainMismatch(
                f"{path}: stored domain {head['domain']} does not match "
                f"configured domain {want}")
    if values.size != dom.n_nodes:
        raise DomainMismatch(
            f"{path}: {values.size} nodal values for a domain with "
            f"{dom.n_nodes} active nodes")
    if not np.all(np.isfinite(values)):
        raise DomainMismatch(f"{path}: non-finite nodal values")
    eps, lam = float(head["epsilon"]), float(head["lambda"])
    if not (math.isfinite(eps) and math.isfinite(lam)):
        raise DomainMismatch(f"{path}: non-finite epsilon {eps} or lambda {lam}")
    f = Field(dom, eps, values)
    return Solution(field=f, lam=lam,
                    residual_norm=float(head["residual_norm"]),
                    iterations=int(head["iterations"]),
                    constraint=head.get("constraint"),
                    converged=bool(head.get("converged", True)),
                    energy=float(head.get("energy", math.nan)))


def _make_well(cfg: RunConfig) -> DoubleWell:
    if cfg.potential_kind == "standard-quartic":
        return DoubleWell()
    return DoubleWell(kind="user-polynomial", coefficients=cfg.coefficients)


def _worker_count():
    env = os.environ.get("AC_LAB_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return os.cpu_count() or 1


def _solve_one(dom, well, cfg, eps, warm_values=None, warm_eps=None):
    if warm_values is not None:
        f0 = Field(dom, eps, resharpen(warm_values, warm_eps, eps))
    elif cfg.recipe == "file":
        values = np.loadtxt(cfg.recipe_params["file"])
        f0 = seed_field(dom, eps, "file", cfg.constraint_mean,
                        cfg.recipe_params, values=values)
    else:
        f0 = seed_field(dom, eps, cfg.recipe, cfg.constraint_mean,
                        cfg.recipe_params)
    flowed = gradient_flow(f0, well, constraint=cfg.constraint_mean,
                           stop_tol=cfg.tol, max_steps=cfg.pre_steps,
                           dt_factor=cfg.dt_factor)
    return newton_refine(flowed, well, tol=cfg.tol)


def cmd_solve(cfg: RunConfig, out_dir=None, parallel_cold=False,
              verbose=False) -> RunReport:
    """Run the epsilon sweep and write solution files plus a summary CSV.

    Solver failures on one epsilon are recorded and do not abort the sweep.
    """
    out = Path(out_dir or cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    dom = build_domain(cfg.shape, cfg.params, cfg.cells)
    well = _make_well(cfg)
    h = dom.cell_size
    for e in cfg.epsilons:
        if e <= 2.0 * h:
            raise ConfigError(f"sweep epsilon {e} <= 2h = {2 * h}: "
                              "interface unresolvable")

    report = RunReport()
    sols: list = [None] * len(cfg.epsilons)
    if parallel_cold:
        with ThreadPoolExecutor(max_workers=_worker_count()) as pool:
            futs = {pool.submit(_solve_one, dom, well, cfg, e): k
                    for k, e in enumerate(cfg.epsilons)}
            for fut, k in futs.items():
                try:
                    sols[k] = fut.result()
                except AcLabError as exc:
                    report.errors.append((cfg.epsilons[k], str(exc)))
    else:
        prev = None
        for k, e in enumerate(cfg.epsilons):
            try:
                if prev is None:
                    sols[k] = _solve_one(dom, well, cfg, e)
                else:
                    sols[k] = _solve_one(dom, well, cfg, e,
                                         warm_values=prev.field.values,
                                         warm_eps=prev.field.epsilon)
                prev = sols[k]
            except AcLabError as exc:
                report.errors.append((e, str(exc)))
                prev = None

    rows = []
    for k, (e, sol) in enumerate(zip(cfg.epsilons, sols)):
        if sol is None:
            continue
        fn = out / f"solution_{k:02d}.txt"
        save_solution(fn, sol)
        rows.append((e, sol.energy, sol.lam, sol.residual_norm,
                     sol.max_abs, sol.iterations, sol.converged))
        report.solutions.append(sol)
        if verbose:
            print(f"eps={e:g}: energy={sol.energy:.6f} lambda={sol.lam:+.3e} "
                  f"residual={sol.residual_norm:.2e} -> {fn}")
    write_csv(out / "summary.csv",
              ("epsilon", "energy", "lambda", "residual_norm", "max_abs_u",
               "iterations", "converged"), rows)
    report.tables["summary"] = rows
    for e, msg in report.errors:
        print(f"solver error at eps={e:g}: {msg}", file=sys.stderr)
    return report


def _diag_equipartition(report, out, sols, well):
    rep = equipartition_report(sols, well)
    rows = [(r.epsilon, r.kinetic, r.potential, r.ratio, r.xi_l1)
            for r in rep.rows]
    write_csv(out / "equipartition.csv",
              ("epsilon", "kinetic", "potential", "ratio", "xi_l1"), rows)
    report.tables["equipartition"] = rows
    report.checks.append(("xi_l1_decreasing", rep.xi_l1_decreasing,
                          " -> ".join(_g17(r.xi_l1) for r in rep.rows),
                          "strictly decreasing"))


def _interior_margin(dom):
    from .geometry import signed_distance
    return min(0.15 * dom.extent,
               0.5 * float(signed_distance(dom).values.max()))


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
            scan = monotonicity_scan(curve, sol.field, well, c1=0.0)
            mono_rows.append((eps, *curve.center, 0.0, scan.fitted_c1,
                              scan.max_deficit, len(scan.violations)))
            for lo, hi, d in scan.violations:
                viol_rows.append((eps, *curve.center, lo, hi, d))
            report.fitted_constants["xi_integral_C"] = max(
                report.fitted_constants.get("xi_integral_C", 0.0),
                xi_integral_bound_fit(sol.field, well, sol.lam, curve))
            report.fitted_constants["almost_monotone_c"] = max(
                report.fitted_constants.get("almost_monotone_c", 0.0),
                almost_monotonicity_fit(curve))
            report.fitted_constants["density_ratio_lower_c"] = min(
                report.fitted_constants.get("density_ratio_lower_c",
                                            math.inf),
                float(curve.I_values.min()))
            report.fitted_constants["density_ratio_upper_C"] = max(
                report.fitted_constants.get("density_ratio_upper_C", 0.0),
                float(curve.I_values.max()))
    dim = sols[0].field.dom.dim
    center_cols = ("center_x", "center_y")[:dim]
    write_csv(out / "ratio_curves.csv",
              ("epsilon", *center_cols, "boundary_centered", "radius",
               "I", "I_tilde"), rows)
    report.tables["ratio_curves"] = rows
    if "monotonicity" in cfg.checks:
        write_csv(out / "monotonicity.csv",
                  ("epsilon", *center_cols, "c1", "fitted_c1", "max_deficit",
                   "violations"), mono_rows)
        write_csv(out / "monotonicity_violations.csv",
                  ("epsilon", *center_cols, "rho_lo", "rho_hi", "deficit"),
                  viol_rows)
        report.tables["monotonicity"] = mono_rows
        worst = max((m[-2] for m in mono_rows), default=0.0)
        report.checks.append(("interior_monotonicity_deficit",
                              worst <= 1e-3, _g17(worst), "<= 1e-3"))


def _diag_pohozaev(report, out, sols, well):
    rows = []
    for sol in sols:
        dom = sol.field.dom
        eps = sol.field.epsilon
        center = dom.origin + 0.5 * np.asarray(dom.n_cells) * dom.cell_size
        rho = 0.3 * dom.extent
        ri = pohozaev_residual(sol, well,
                               make_radial_field(dom, center, rho))
        rows.append((eps, "interior-radial", ri))
        try:
            from .geometry import signed_distance
            a = 0.2 * float(signed_distance(dom).values.max())
            rb = pohozaev_residual(sol, well,
                                   make_boundary_normal_field(dom, a))
            rows.append((eps, "boundary-normal", rb))
        except AcLabError as exc:
            report.errors.append((eps, f"pohozaev boundary field: {exc}"))
    write_csv(out / "pohozaev.csv", ("epsilon", "field", "residual"), rows)
    report.tables["pohozaev"] = rows


def _diag_boundary_energy(report, out, sols, well):
    rows = [(s.field.epsilon, boundary_energy(s, well)) for s in sols]
    write_csv(out / "boundary_energy.csv", ("epsilon", "value"), rows)
    report.tables["boundary_energy"] = rows


def _diag_varifold(report, out, sols, well, cfg, rng, h0):
    from .varifold import export_atoms
    mass_rows, fb_rows, integ_rows, iface_rows = [], [], [], []
    for k, sol in enumerate(sols):
        dom = sol.field.dom
        eps = sol.field.epsilon
        V = build_varifold(sol, well, h0)
        export_atoms(V, out / f"varifold_atoms_{k:02d}.csv")
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
                    lhs, rhs, deficit = free_boundary_test(V, sol, well, h0,
                                                           X, curve=curve)
                    fb_rows.append((eps, lhs, rhs, deficit, X.c1_norm))
                from .geometry import signed_distance
                a = 0.2 * float(signed_distance(dom).values.max())
                Xn = make_boundary_normal_field(dom, a)
                report.fitted_constants["first_variation_C"] = max(
                    report.fitted_constants.get("first_variation_C", 0.0),
                    first_variation_bound_constant(V, sol, h0, Xn,
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
    write_csv(out / "varifold_mass.csv",
              ("epsilon", "mass", "total_measure", "zero_normal_share"),
              mass_rows)
    if fb_rows:
        write_csv(out / "free_boundary.csv",
                  ("epsilon", "lhs", "rhs", "deficit", "c1_norm"), fb_rows)
    if integ_rows:
        write_csv(out / "integrality.csv",
                  ("epsilon", *pc, "plateau", "nearest_integer", "deviation"),
                  integ_rows)
    if iface_rows:
        write_csv(out / "interface.csv", ("epsilon", "chain", "x", "y"),
                  iface_rows)
    report.tables["varifold_mass"] = mass_rows
    report.tables["free_boundary"] = fb_rows
    report.tables["integrality"] = integ_rows


def cmd_diagnose(cfg: RunConfig, solution_paths, out_dir=None,
                 verbose=False) -> RunReport:
    """Run the configured diagnostics over stored solutions."""
    out = Path(out_dir or cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    dom = build_domain(cfg.shape, cfg.params, cfg.cells)
    well = _make_well(cfg)
    sols = [load_solution(p, dom) for p in solution_paths]
    report = RunReport()
    if not sols:
        return report
    rng = np.random.default_rng(cfg.seed)
    h0 = compute_h0(well).h0

    runners = {
        "equipartition": lambda: _diag_equipartition(report, out, sols, well),
        "ratios": lambda: _diag_ratios(report, out, sols, well, cfg, rng),
        "monotonicity": lambda: None,  # folded into the ratios scan
        "pohozaev": lambda: _diag_pohozaev(report, out, sols, well),
        "boundary-energy": lambda: _diag_boundary_energy(report, out, sols,
                                                         well),
        "varifold": lambda: _diag_varifold(report, out, sols, well, cfg, rng,
                                           h0),
    }
    if "monotonicity" in cfg.checks and "ratios" not in cfg.checks:
        runners["monotonicity"] = lambda: _diag_ratios(report, out, sols,
                                                       well, cfg, rng)
    for name in cfg.checks:
        try:
            runners[name]()
        except AcLabError as exc:
            report.errors.append((name, str(exc)))
            print(f"diagnostic {name} failed: {exc}", file=sys.stderr)
    if report.fitted_constants:
        write_csv(out / "fitted_constants.csv", ("name", "value"),
                  sorted(report.fitted_constants.items()))
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
    ps.add_argument("--parallel-cold", action="store_true",
                    help="cold-start epsilons concurrently instead of "
                         "warm-starting sequentially")
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
            report = cmd_solve(cfg, out_dir=args.out,
                               parallel_cold=args.parallel_cold,
                               verbose=args.verbose)
            return 3 if report.errors and not report.solutions else 0
        report = cmd_diagnose(cfg, args.solutions, out_dir=args.out,
                              verbose=args.verbose)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except InvalidShapeParams as exc:
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
