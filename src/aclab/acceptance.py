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

The disk solution of criteria 7 and 8 is the largest single cost.
run_acceptance solves it in one forked worker process (forked.Forked, the
fork transport diagnose's atom writer uses too) while criteria 1-6 run, and
the first use of disk_sol takes the worker's result, bit for bit what the
same call gives in-process.  Where fork is unavailable, where the
worker does not deliver, and on a context used without run_acceptance, the
disk is solved in-process by that same call.  Python 3.12 and later emit a
DeprecationWarning when a process that runs other threads (a multi-threaded
BLAS, say) forks; it is left visible.
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
from .solver import (Field, Solution, epsilon_sweep, orthogonal_arc,
                     solve_single)
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


# Solution fields the disk worker sends back beside the nodal values
_SCALARS = ("lam", "residual_norm", "iterations", "factorizations",
            "constraint", "converged", "energy")


def _solution_bytes(sol):
    """The disk worker's payload: the nodal values as raw float64 bytes,
    then the pickled epsilon and Solution scalars."""
    return (sol.field.values.astype(np.float64).tobytes()
            + pickle.dumps((sol.field.epsilon,
                            {k: getattr(sol, k) for k in _SCALARS})))


def _solution_from_bytes(data, dom):
    """The Solution on dom that _solution_bytes encoded, or None for no
    payload or one no longer than dom's nodal values."""
    n = dom.n_nodes
    if data is None or len(data) <= 8 * n:
        return None
    eps, scalars = pickle.loads(data[8 * n:])
    values = np.frombuffer(data, dtype=np.float64, count=n).copy()
    return Solution(field=Field(dom, eps, values), **scalars)


def _disk_domain():
    return build_domain("disk", (1.0,), 256)


class AcceptanceContext:
    """Lazily built shared artifacts reused across criteria."""

    def __init__(self, seed: int = 7, verbose: bool = False):
        self.seed = seed
        self.verbose = verbose
        self.well = DoubleWell()
        self.h0 = compute_h0(self.well).h0
        self._cache = {}
        self._worker = None

    def fork_disk_solve(self):
        """Start the disk solve in one forked worker; disk_sol waits for it."""
        dom = _disk_domain()
        self._worker = dom, Forked(
            lambda: _solution_bytes(self._solve_disk(dom)))

    def close(self):
        """Reap the worker, killing it first if its result was never used."""
        if self._worker is not None:
            self._worker[1].close()
            self._worker = None

    def _solve_disk(self, dom):
        return solve_single(dom, self.well, 0.02, constraint=0.3,
                            recipe="radial")

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
    def rect_sol(self):
        return self._get("rect_sol", lambda: solve_single(
            build_domain("rectangle", (1.0, 1.0), (256, 256)), self.well,
            0.02, constraint=0.0, recipe="step-x"))

    @property
    def disk_sol(self):
        def build():
            if self._worker is None:
                return self._solve_disk(_disk_domain())
            dom, worker = self._worker
            sol = _solution_from_bytes(worker.result(), dom)
            return self._solve_disk(dom) if sol is None else sol
        return self._get("disk_sol", build)

    @property
    def pohozaev_sols(self):
        def build():
            sols = []
            for n in (64, 128, 256):
                dom = build_domain("rectangle", (1.0, 1.0), (n, n))
                sols.append(solve_single(dom, self.well, 0.04, constraint=0.0,
                                         recipe="step-x"))
            return sols
        return self._get("pohozaev_sols", build)

    @property
    def rect_varifold(self):
        return self._get("rect_varifold",
                         lambda: build_varifold(self.rect_sol, self.well,
                                                self.h0))

    @property
    def disk_varifold(self):
        return self._get("disk_varifold",
                         lambda: build_varifold(self.disk_sol, self.well,
                                                self.h0))

    @property
    def disk_curve(self):
        return self._get("disk_curve",
                         lambda: extract_interface(self.disk_sol))


def _fmt(x):
    return f"{x:.6g}"


def criterion_1(ctx: AcceptanceContext) -> CriterionResult:
    t0 = time.time()
    ec = compute_h0(ctx.well)
    err = abs(ec.h0 - 0.9428090416)
    subs = [SubCheck("h0 equals 2*sqrt(2)/3", err <= 1e-8,
                     _fmt(ec.h0), "0.9428090416 +- 1e-8")]
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
    res_int, res_bnd = [], []
    for sol in ctx.pohozaev_sols:
        dom = sol.field.dom
        Xi = make_radial_field(dom, np.array([0.45, 0.55]), 0.35)
        Xb = make_boundary_normal_field(dom, 0.08)
        res_int.append(pohozaev_residual(sol, ctx.well, Xi))
        res_bnd.append(pohozaev_residual(sol, ctx.well, Xb))
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
    pts = sample_interface_nodes(sol, 10, rng, interior_margin=0.15)
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

    disk = ctx.disk_sol
    fitted = []
    for ang in (0.3, 1.0, 2.2):
        x = disk.field.dom.nearest_boundary_point(
            np.array([math.cos(ang), math.sin(ang)]))
        rr = radius_ladder(disk.field.dom, disk.field.epsilon, x)
        c = energy_ratio_curve(disk.field, ctx.well, x, rr, lam=disk.lam)
        rep = monotonicity_scan(c, disk.field.dom)
        fitted.append(rep.fitted_c1)
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
    sol = ctx.disk_sol
    h0 = ctx.h0
    rng = np.random.default_rng(ctx.seed + 1)
    deficits_ok = []
    measured = []
    for _ in range(5):
        X = make_rotational_field(sol.field.dom, rng)
        lhs, rhs, deficit = free_boundary_test(ctx.disk_varifold, sol, h0, X,
                                               curve=ctx.disk_curve)
        deficits_ok.append(deficit <= 0.1 * X.c1_norm)
        measured.append(deficit / X.c1_norm)
    r_arc, _, _ = orthogonal_arc(1.0, 0.3)
    lam_oracle = h0 / (2.0 * r_arc)
    lam_ok = abs(abs(sol.lam) - lam_oracle) <= 0.15 * lam_oracle
    subs = [
        SubCheck("first-variation deficit <= 0.1 c1_norm (5 fields)",
                 all(deficits_ok),
                 "max deficit/c1_norm " + _fmt(max(measured)), "<= 0.1"),
        SubCheck("lambda within 15% of h0 * curvature / 2", lam_ok,
                 _fmt(abs(sol.lam)), f"{_fmt(lam_oracle)} +- 15%"),
    ]
    return CriterionResult(8, "free-boundary first variation",
                           time.time() - t0, 300.0, subs)


def criterion_9(ctx: AcceptanceContext) -> CriterionResult:
    t0 = time.time()
    rng = np.random.default_rng(ctx.seed + 2)
    pts = sample_interface_nodes(ctx.rect_sol, 20, rng, interior_margin=0.15)
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
    sols = list(ctx.sweep_1d) + [ctx.rect_sol, ctx.disk_sol] \
        + list(ctx.pohozaev_sols)
    xi_ok, c0_ok = [], []
    for sol in sols:
        eps = sol.field.epsilon
        d = density_fields(sol.field, ctx.well)
        xi_ok.append(float(d.xi.max()) <= eps ** (-0.8))
        c0_ok.append((sol.max_abs - 1.0) / eps <= 10.0)
    mass_ok = [
        ctx.rect_varifold.mass <= ctx.rect_sol.energy / ctx.h0 + 0.01,
        ctx.disk_varifold.mass <= ctx.disk_sol.energy / ctx.h0 + 0.01,
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


def run_acceptance(seed: int = 7, verbose: bool = True):
    """Run every criterion; returns the list of CriterionResult."""
    ctx = AcceptanceContext(seed=seed, verbose=verbose)
    ctx.fork_disk_solve()
    results = []
    try:
        for crit in CRITERIA:
            res = crit(ctx)
            results.append(res)
            if verbose:
                print(format_result_line(res))
                for s in res.subs:
                    mark = "ok" if s.passed else "FAIL"
                    extra = f"  [{s.note}]" if s.note else ""
                    print(f"      {mark:4s} {s.label}: {s.measured} "
                          f"(want {s.threshold}){extra}")
    finally:
        ctx.close()
    return results


def format_result_line(res: CriterionResult) -> str:
    status = "PASS" if res.passed else "FAIL"
    return (f"[{status}] criterion {res.index:2d} - {res.name} "
            f"({res.runtime:.1f}s / budget {res.budget:.0f}s)")
