"""Built-in acceptance suite: every gate criterion at its stated tolerance.

Each criterion function returns a CriterionResult with per-assertion
sub-checks; run_acceptance executes all of them on canned configurations
and prints one pass/fail line per criterion.

Two sub-checks fail structurally at the pinned grid resolution and are
annotated as such: the measured 1D sweep quantities |E - h0| and the L1
discrepancy both carry an O((h/eps)^2) discretization floor that grows as
eps shrinks at fixed h, while their continuum counterparts are already
exponentially small; no fixed 2048-cell grid can show a monotone approach
at eps = 0.025.  The criteria are implemented exactly as stated and left
red rather than loosened.

The disk case of criteria 7, 8 and 10 is the largest single cost.
run_acceptance forks one worker process (forked.Forked, as diagnose's atom
writer does) before anything else.  It builds and solves the disk and sends
back, pickled, only the DiskMeasurements those criteria read
(_measure_disk), never the solution, while the parent runs criteria 1-6
and 9; then 7, 8 and 10 run.  Results are returned and printed in index
order.  Where fork is unavailable, where the worker does not deliver, and
on a context used without run_acceptance, the same _measure_disk runs
in-process.  Python 3.12 and later emit a DeprecationWarning when a process
that runs other threads (a multi-threaded BLAS, say) forks; it is left
visible.

AcceptanceContext builds what the criteria share on first use and keeps
it until the context goes: the 1D sweep, one 256^2 unit square, rect_sol
on it and rect_sol's varifold, and the DiskMeasurements.  The Pohozaev
ladder solves on 64^2, 128^2 and that same square, and keeps of each
solution only its PohozaevRung (criterion 6's two residuals and criterion
10's _slack pair); each solution is dropped once it is measured.
"""
from __future__ import annotations

import math
import pickle
import time
from dataclasses import dataclass

import numpy as np

from .diagnostics import (density_fields, energy_ratio_curve,
                          equipartition_report, make_boundary_normal_field,
                          make_radial_field, make_rotational_field,
                          monotonicity_scan, plateau_value, pohozaev_residual,
                          radius_ladder)
from .forked import Forked
from .geometry import build_domain
from .potential import DoubleWell, compute_h0, heteroclinic_jet
from .solver import epsilon_sweep, orthogonal_arc, solve_single
from .varifold import (build_varifold, density_estimate, extract_interface,
                       free_boundary_test, integrality_check,
                       sample_interface_nodes)

# sub-checks that cannot pass at the pinned resolution (see module docstring
# and the repository notes); they stay implemented and red
STRUCTURAL_LIMIT_NOTE = ("discrete (h/eps)^2 floor exceeds the exponentially "
                         "small continuum value at eps=0.025 on 2048 cells")


@dataclass
class SubCheck:
    label: str
    passed: bool
    measured: str
    threshold: str
    note: str = ""


@dataclass
class CriterionResult:
    index: int
    name: str
    runtime: float
    budget: float
    subs: list

    @property
    def passed(self):
        return all(s.passed for s in self.subs) and self.runtime <= self.budget


@dataclass(frozen=True)
class DiskMeasurements:
    """Every value criteria 7, 8 and 10 read of the disk solution: the
    monotonicity fitted_c1 at three boundary points, (deficit, c1_norm) of
    five free-boundary tests, the varifold mass, lam, energy and _slack."""

    fitted_c1: tuple
    free_boundary: tuple
    varifold_mass: float
    lam: float
    energy: float
    slack: tuple


@dataclass(frozen=True)
class PohozaevRung:
    """Every value criteria 6 and 10 read of one solve of the Pohozaev
    ladder: the residuals of the interior and the boundary-crossing field,
    and _slack."""

    interior: float
    boundary: float
    slack: tuple


def _slack(sol, well):
    """Whether sol keeps criterion 10's two bounds on xi and on max|u|."""
    eps = sol.field.epsilon
    xi = float(density_fields(sol.field, well).xi.max())
    return xi <= eps ** (-0.8), (sol.max_abs - 1.0) / eps <= 10.0


class AcceptanceContext:
    """Lazily built shared artifacts reused across criteria."""

    def __init__(self, seed: int = 7, verbose: bool = False):
        self.seed = seed
        self.verbose = verbose
        self.well = DoubleWell()
        self.h0 = compute_h0(self.well)
        self._cache = {}
        self._worker = None

    def fork_disk_solve(self):
        """Start _measure_disk in one forked worker; disk waits for it."""
        self._worker = Forked(lambda: pickle.dumps(self._measure_disk()))

    def close(self):
        """Reap the worker, killing it first if its result was never used."""
        if self._worker is not None:
            self._worker.close()
            self._worker = None

    def _measure_disk(self):
        """Solve the disk case and take its DiskMeasurements."""
        dom, eps, well = build_domain("disk", (1.0,), 256), 0.02, self.well
        sol = solve_single(dom, well, eps, constraint=0.3, recipe="radial")
        fitted = []
        for ang in (0.3, 1.0, 2.2):
            x = dom.nearest_boundary_point(np.array([math.cos(ang),
                                                     math.sin(ang)]))
            c = energy_ratio_curve(sol.field, well, x,
                                   radius_ladder(dom, eps, x), lam=sol.lam)
            fitted.append(monotonicity_scan(c, dom).fitted_c1)
        varifold = build_varifold(sol, well, self.h0)
        curve = extract_interface(sol)
        rng = np.random.default_rng(self.seed + 1)
        tests = []
        for _ in range(5):
            X = make_rotational_field(dom, rng)
            _, _, deficit = free_boundary_test(varifold, sol, self.h0, X,
                                               curve=curve)
            tests.append((deficit, X.c1_norm))
        return DiskMeasurements(tuple(fitted), tuple(tests), varifold.mass,
                                sol.lam, sol.energy, _slack(sol, well))

    def _get(self, key, builder):
        if key not in self._cache:
            t0 = time.time()
            self._cache[key] = builder()
            if self.verbose:
                print(f"  [setup] {key} built in {time.time() - t0:.1f}s")
        return self._cache[key]

    @property
    def sweep_1d(self):
        return self._get("sweep_1d", lambda: epsilon_sweep(
            build_domain("interval", (1.0,), 2048), self.well,
            [0.1, 0.05, 0.025], constraint=0.0))

    @property
    def square(self):
        """The 256^2 unit square of rect_sol and of the finest Pohozaev
        solve."""
        return self._get("square", lambda: build_domain(
            "rectangle", (1.0, 1.0), (256, 256)))

    @property
    def rect_sol(self):
        return self._get("rect_sol", lambda: solve_single(
            self.square, self.well, 0.02, constraint=0.0, recipe="step-x"))

    @property
    def disk(self):
        def build():
            data = None if self._worker is None else self._worker.result()
            return self._measure_disk() if data is None else pickle.loads(data)
        return self._get("disk", build)

    @property
    def pohozaev(self):
        """The PohozaevRung of the unit square at 64, 128 and 256 cells a
        side, eps 0.04; each solution is dropped once it is measured."""
        def build():
            rungs = []
            for n in (64, 128, 256):
                dom = (self.square if n == 256 else
                       build_domain("rectangle", (1.0, 1.0), (n, n)))
                sol = solve_single(dom, self.well, 0.04, constraint=0.0,
                                   recipe="step-x")
                Xi = make_radial_field(dom, np.array([0.45, 0.55]), 0.35)
                Xb = make_boundary_normal_field(dom, 0.08)
                rungs.append(PohozaevRung(
                    pohozaev_residual(sol, self.well, Xi),
                    pohozaev_residual(sol, self.well, Xb),
                    _slack(sol, self.well)))
            return tuple(rungs)
        return self._get("pohozaev", build)

    @property
    def rect_varifold(self):
        return self._get("rect_varifold",
                         lambda: build_varifold(self.rect_sol, self.well,
                                                self.h0))


def _fmt(x):
    return f"{x:.6g}"


def criterion_1(ctx: AcceptanceContext) -> CriterionResult:
    t0 = time.time()
    h0 = compute_h0(ctx.well)
    err = abs(h0 - 0.9428090416)
    subs = [SubCheck("h0 equals 2*sqrt(2)/3", err <= 1e-8,
                     _fmt(h0), "0.9428090416 +- 1e-8")]
    return CriterionResult(1, "h0 oracle", time.time() - t0, 1.0, subs)


def criterion_2(ctx: AcceptanceContext) -> CriterionResult:
    t0 = time.time()
    eps = 0.1
    t = np.linspace(-10 * eps, 10 * eps, 1000)
    q, q1, q2 = heteroclinic_jet(t, eps)
    ode = np.abs(-(eps**2) * q2 + ctx.well.wp(q)).max()
    disc = np.abs(0.5 * eps * q1**2 - ctx.well.w(q) / eps).max()
    subs = [
        SubCheck("heteroclinic ODE residual sup", ode < 1e-12,
                 _fmt(ode), "< 1e-12"),
        SubCheck("exact profile discrepancy sup", disc < 1e-12,
                 _fmt(disc), "< 1e-12"),
    ]
    return CriterionResult(2, "heteroclinic exactness", time.time() - t0,
                           1.0, subs)


def criterion_3(ctx: AcceptanceContext) -> CriterionResult:
    t0 = time.time()
    sweep = ctx.sweep_1d
    h0 = ctx.h0
    subs = []
    for sol in sweep:
        e = sol.field.epsilon
        subs.append(SubCheck(f"energy within 3% of h0 (eps={e})",
                             abs(sol.energy - h0) <= 0.03 * h0,
                             _fmt(sol.energy), f"{_fmt(h0)} +- 3%"))
        subs.append(SubCheck(f"residual <= 1e-10 (eps={e})",
                             sol.residual_norm <= 1e-10,
                             _fmt(sol.residual_norm), "<= 1e-10"))
    gaps = [abs(s.energy - h0) for s in sweep]
    mono = all(b <= a for a, b in zip(gaps, gaps[1:]))
    subs.append(SubCheck("energies monotone toward h0", mono,
                         " -> ".join(_fmt(g) for g in gaps),
                         "|E - h0| non-increasing",
                         note="" if mono else STRUCTURAL_LIMIT_NOTE))
    return CriterionResult(3, "1D Gamma-limit", time.time() - t0, 30.0, subs)


def criterion_4(ctx: AcceptanceContext) -> CriterionResult:
    t0 = time.time()
    rep = equipartition_report(ctx.sweep_1d, ctx.well)
    last = rep.rows[-1]
    subs = [
        SubCheck("kinetic/potential ratio at eps=0.025",
                 0.98 <= last.ratio <= 1.02, _fmt(last.ratio),
                 "[0.98, 1.02]"),
        SubCheck("L1 discrepancy strictly decreasing",
                 rep.xi_l1_decreasing,
                 " -> ".join(_fmt(r.xi_l1) for r in rep.rows),
                 "strictly decreasing",
                 note="" if rep.xi_l1_decreasing else STRUCTURAL_LIMIT_NOTE),
    ]
    return CriterionResult(4, "equipartition and vanishing discrepancy",
                           time.time() - t0, 30.0, subs)


def criterion_5(ctx: AcceptanceContext) -> CriterionResult:
    t0 = time.time()
    sol = ctx.rect_sol
    h0 = ctx.h0
    curve = extract_interface(sol)
    angles = [abs(math.degrees(a) - 90.0) for a in curve.orthogonality_angles]
    subs = [
        SubCheck("energy within 5% of h0",
                 abs(sol.energy - h0) <= 0.05 * h0, _fmt(sol.energy),
                 f"{_fmt(h0)} +- 5%"),
        SubCheck("interface length within 5% of 1",
                 abs(curve.length - 1.0) <= 0.05, _fmt(curve.length),
                 "1 +- 0.05"),
        SubCheck("contact angles within 5 deg of 90",
                 bool(angles) and max(angles) <= 5.0,
                 ", ".join(_fmt(90 - a) for a in angles), "90 +- 5 deg"),
    ]
    return CriterionResult(5, "2D straight interface", time.time() - t0,
                           300.0, subs)


def criterion_6(ctx: AcceptanceContext) -> CriterionResult:
    t0 = time.time()
    res_int = [r.interior for r in ctx.pohozaev]
    res_bnd = [r.boundary for r in ctx.pohozaev]
    oi = min(math.log2(a / b) for a, b in zip(res_int, res_int[1:]))
    ob = min(math.log2(a / b) for a, b in zip(res_bnd, res_bnd[1:]))
    subs = [
        SubCheck("interior-supported order >= 1.8", oi >= 1.8, _fmt(oi),
                 ">= 1.8"),
        SubCheck("boundary-crossing order >= 0.8", ob >= 0.8, _fmt(ob),
                 ">= 0.8"),
    ]
    return CriterionResult(6, "Pohozaev residual order", time.time() - t0,
                           300.0, subs)


def criterion_7(ctx: AcceptanceContext) -> CriterionResult:
    t0 = time.time()
    sol = ctx.rect_sol
    h0 = ctx.h0
    dom = sol.field.dom
    rng = np.random.default_rng(ctx.seed)
    pts = sample_interface_nodes(sol, 10, rng)
    plateaus = []
    worst_viol = 0.0
    for p in pts:
        rr = radius_ladder(dom, sol.field.epsilon, p)
        c = energy_ratio_curve(sol.field, ctx.well, p, rr, lam=sol.lam)
        plateaus.append(plateau_value(c.radii, c.I_values))
        rep = monotonicity_scan(c, dom)
        worst_viol = max(worst_viol, rep.max_deficit)
    ok_plateau = all(0.9 * h0 <= v <= 1.1 * h0 for v in plateaus)

    contact = np.array([0.5, 0.0])
    rr = radius_ladder(dom, sol.field.epsilon, contact)
    theta = density_estimate(ctx.rect_varifold, contact, rr).plateau()

    fitted = ctx.disk.fitted_c1
    subs = [
        SubCheck("interior I(r) plateaus in [0.9, 1.1] h0", ok_plateau,
                 f"[{_fmt(min(plateaus))}, {_fmt(max(plateaus))}]",
                 f"[{_fmt(0.9 * h0)}, {_fmt(1.1 * h0)}]"),
        SubCheck("contact-point density in [0.4, 0.6]",
                 0.4 <= theta <= 0.6, _fmt(theta), "[0.4, 0.6]"),
        SubCheck("interior monotonicity: no violation beyond 1e-3 at c1=0",
                 worst_viol <= 1e-3, _fmt(worst_viol), "<= 1e-3"),
        SubCheck("disk boundary-centered fitted c1 <= 50",
                 max(fitted) <= 50.0, _fmt(max(fitted)), "<= 50"),
    ]
    return CriterionResult(7, "density ratios and monotonicity",
                           time.time() - t0, 180.0, subs)


def criterion_8(ctx: AcceptanceContext) -> CriterionResult:
    t0 = time.time()
    disk, h0 = ctx.disk, ctx.h0
    tests = disk.free_boundary
    deficits_ok = [deficit <= 0.1 * c1_norm for deficit, c1_norm in tests]
    measured = [deficit / c1_norm for deficit, c1_norm in tests]
    r_arc, _, _ = orthogonal_arc(1.0, 0.3)
    lam_oracle = h0 / (2.0 * r_arc)
    lam_ok = abs(abs(disk.lam) - lam_oracle) <= 0.15 * lam_oracle
    subs = [
        SubCheck("first-variation deficit <= 0.1 c1_norm (5 fields)",
                 all(deficits_ok),
                 "max deficit/c1_norm " + _fmt(max(measured)), "<= 0.1"),
        SubCheck("lambda within 15% of h0 * curvature / 2", lam_ok,
                 _fmt(abs(disk.lam)), f"{_fmt(lam_oracle)} +- 15%"),
    ]
    return CriterionResult(8, "free-boundary first variation",
                           time.time() - t0, 300.0, subs)


def criterion_9(ctx: AcceptanceContext) -> CriterionResult:
    t0 = time.time()
    rng = np.random.default_rng(ctx.seed + 2)
    pts = sample_interface_nodes(ctx.rect_sol, 20, rng)
    rep = integrality_check(ctx.rect_varifold, pts)
    ints_ok = all(r.nearest_integer == 1 for r in rep.rows)

    # two-band even-parity check: reported, non-gating (metastability caveat)
    dom = build_domain("interval", (1.0,), 1024)
    two = solve_single(dom, ctx.well, 0.02, constraint=0.5,
                       recipe="two-layer")
    V2 = build_varifold(two, ctx.well, ctx.h0)
    theta2 = density_estimate(V2, np.array([0.5]),
                              [0.16, 0.18, 0.2]).theta.mean()
    subs = [
        SubCheck("single-interface nearest integer is 1", ints_ok,
                 f"{sum(r.nearest_integer == 1 for r in rep.rows)}/20", "20/20"),
        SubCheck("max deviation <= 0.15", rep.max_deviation <= 0.15,
                 _fmt(rep.max_deviation), "<= 0.15"),
        SubCheck("two-band parity (reported, non-gating)", True,
                 _fmt(theta2), "near 2 expected"),
    ]
    return CriterionResult(9, "integrality", time.time() - t0, 120.0, subs)


def criterion_10(ctx: AcceptanceContext) -> CriterionResult:
    t0 = time.time()
    sols = list(ctx.sweep_1d) + [ctx.rect_sol]
    disk = ctx.disk
    xi_ok, c0_ok = zip(*[_slack(sol, ctx.well) for sol in sols],
                       *[r.slack for r in ctx.pohozaev], disk.slack)
    mass_ok = [
        ctx.rect_varifold.mass <= ctx.rect_sol.energy / ctx.h0 + 0.01,
        disk.varifold_mass <= disk.energy / ctx.h0 + 0.01,
        build_varifold(ctx.sweep_1d[-1], ctx.well, ctx.h0).mass
        <= ctx.sweep_1d[-1].energy / ctx.h0 + 0.01,
    ]
    subs = [
        SubCheck("max xi <= eps^(-4/5) on every solution", all(xi_ok),
                 f"{sum(xi_ok)}/{len(xi_ok)}", "all"),
        SubCheck("(max|u| - 1)/eps <= 10 across sweeps", all(c0_ok),
                 f"{sum(c0_ok)}/{len(c0_ok)}", "all"),
        SubCheck("varifold mass <= E0/h0 + 0.01", all(mass_ok),
                 f"{sum(mass_ok)}/{len(mass_ok)}", "all"),
    ]
    return CriterionResult(10, "slack bounds", time.time() - t0, 600.0, subs)


CRITERIA = (criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
            criterion_6, criterion_7, criterion_8, criterion_9, criterion_10)

# positions in CRITERIA of the criteria that read the disk (7, 8 and 10):
# they run after every other one, so that the rest overlaps the worker
_DISK_POSITIONS = (6, 7, 9)


def run_acceptance(seed: int = 7, verbose: bool = True):
    """Run every criterion, those that read the disk last; returns the list
    of CriterionResult in index order, and prints each one in that order as
    soon as every one before it has run."""
    ctx = AcceptanceContext(seed=seed, verbose=verbose)
    ctx.fork_disk_solve()
    results = [None] * len(CRITERIA)
    printed = 0
    try:
        for k in sorted(range(len(CRITERIA)),
                        key=lambda k: k in _DISK_POSITIONS):
            results[k] = CRITERIA[k](ctx)
            while (verbose and printed < len(results)
                   and results[printed] is not None):
                _print_result(results[printed])
                printed += 1
    finally:
        ctx.close()
    return results


def _print_result(res: CriterionResult):
    print(format_result_line(res))
    for s in res.subs:
        mark = "ok" if s.passed else "FAIL"
        extra = f"  [{s.note}]" if s.note else ""
        print(f"      {mark:4s} {s.label}: {s.measured} "
              f"(want {s.threshold}){extra}")


def format_result_line(res: CriterionResult) -> str:
    status = "PASS" if res.passed else "FAIL"
    return (f"[{status}] criterion {res.index:2d} - {res.name} "
            f"({res.runtime:.1f}s / budget {res.budget:.0f}s)")
