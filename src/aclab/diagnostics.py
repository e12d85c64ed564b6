"""Scalar and field diagnostics: energy density, discrepancy, density ratios,
almost-monotonicity scans, Pohozaev residuals and boundary energy.

Everything here is read-only over Solution and Domain; reductions are
order-insensitive up to floating-point reassociation, so tests compare with
tolerances, never bitwise.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BallEscapesU, InvalidCutoffScale
from .geometry import (Domain, ball_restrictions, boundary_integral,
                       signed_distance)
from .potential import DoubleWell
from .solver import Field, Solution

# W-tilde convention: W - eps*lam*u + eps*Lambda0*C0 with C0 fixed and
# Lambda0 = max(1, |lam|); keeps the shifted potential nonnegative.
C0 = 2.0

# unit-ball volumes omega_k for k = 0, 1, 2
OMEGA = (1.0, 2.0, math.pi)


def unit_ball_volume(k: int) -> float:
    return OMEGA[k]


# ---------------------------------------------------------------------------
# gradients on the cut-cell grid
# ---------------------------------------------------------------------------

def node_gradient(dom: Domain, values: np.ndarray) -> np.ndarray:
    """Centered differences where both neighbors exist, one-sided otherwise."""
    h = dom.cell_size
    g = np.zeros((dom.n_nodes, dom.dim))
    u = values
    for a in range(dom.dim):
        left = dom.neighbors[:, a, 0]
        right = dom.neighbors[:, a, 1]
        has_l, has_r = left >= 0, right >= 0
        both = has_l & has_r
        g[both, a] = (u[right[both]] - u[left[both]]) / (2.0 * h)
        only_r = has_r & ~has_l
        g[only_r, a] = (u[right[only_r]] - u[only_r]) / h
        only_l = has_l & ~has_r
        g[only_l, a] = (u[only_l] - u[left[only_l]]) / h
    return g


def node_jacobian(dom: Domain, vec_values: np.ndarray) -> np.ndarray:
    """J[i, a, b] = d_a X_b by the same centered/one-sided differences."""
    J = np.empty((dom.n_nodes, dom.dim, dom.dim))
    for b in range(dom.dim):
        J[:, :, b] = node_gradient(dom, vec_values[:, b])
    return J


# ---------------------------------------------------------------------------
# density and discrepancy
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DensityFields:
    """Energy density e, discrepancy xi and its positive/negative parts."""

    e: np.ndarray
    xi: np.ndarray
    xi_plus: np.ndarray
    xi_minus: np.ndarray


def density_fields(f: Field, well: DoubleWell) -> DensityFields:
    g = node_gradient(f.dom, f.values)
    kin = 0.5 * f.epsilon * np.sum(g * g, axis=1)
    pot = well.w(f.values) / f.epsilon
    e = kin + pot
    xi = kin - pot
    return DensityFields(e=e, xi=xi, xi_plus=np.maximum(xi, 0.0),
                         xi_minus=np.maximum(-xi, 0.0))


def tilted_densities(f: Field, d: DensityFields, lam: float):
    """(e_tilde, xi_tilde) of f with W replaced by the shifted W-tilde, from
    its density fields d."""
    lam0 = max(1.0, abs(lam))
    shift = -lam * f.values + lam0 * C0
    return d.e + shift, d.xi - shift


# ---------------------------------------------------------------------------
# energy density ratio curves and the almost-monotonicity scan
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RatioCurve:
    """Ball-averaged energy ratios I(r) (and the W-tilde variant) at one center."""

    center: np.ndarray
    boundary_centered: bool
    radii: np.ndarray
    I_values: np.ndarray
    I_tilde_values: np.ndarray
    # ball integrals reused by the monotonicity scan
    e_tilde_integrals: np.ndarray = field(default=None, repr=False)
    neg_xi_tilde_integrals: np.ndarray = field(default=None, repr=False)


def radius_ladder(dom: Domain, epsilon: float, x) -> np.ndarray:
    """Geometric ladder r_j = r_min 2^{j/4} between the grid/epsilon floor and
    the domain-scale ceiling.

    Interior centers keep their balls inside the domain (the monotonicity
    formulas cover fully-interior or exactly boundary-centered balls only);
    boundary-adjacent centers are treated as boundary-centered and scan up
    to the domain scale.
    """
    h = dom.cell_size
    x = np.asarray(x, dtype=float)
    r_min = max(4.0 * h, 2.0 * epsilon)
    dist_u = float(min((x - dom.u_lo).min(), (dom.u_hi - x).min()))
    r_max = min(0.4 * dom.extent, dist_u)
    d_bnd = float(dom.distance_to_boundary(x[None, :])[0])
    if d_bnd >= 0.5 * h:
        r_max = min(r_max, d_bnd)
    if r_min > r_max:
        return np.array([])
    n = int(math.floor(4.0 * math.log2(r_max / r_min))) + 1
    return r_min * 2.0 ** (np.arange(n) / 4.0)


def energy_ratio_curve(f: Field, well: DoubleWell, x, radii,
                       lam: float = 0.0) -> RatioCurve:
    """I(r) = (omega_{n-1} r^{n-1})^{-1} * integral of e over B_r(x) in Omega."""
    dom = f.dom
    n = dom.dim
    om = unit_ball_volume(n - 1)
    d = density_fields(f, well)
    et, xt = tilted_densities(f, d, lam)
    radii = np.sort(np.asarray(radii, dtype=float))
    I = np.empty(radii.size)
    I_t = np.empty(radii.size)
    Et = np.empty(radii.size)
    Dt = np.empty(radii.size)
    center = None
    bflag = False
    for k, (r, ball) in enumerate(zip(radii, ball_restrictions(dom, x, radii))):
        center, bflag = ball.center, ball.boundary_flag
        bw, bi = ball.node_weights, ball.node_index
        norm = om * r ** (n - 1)
        I[k] = float(np.sum(bw * d.e[bi])) / norm
        Et[k] = float(np.sum(bw * et[bi]))
        Dt[k] = float(np.sum(bw * (-xt[bi])))
        I_t[k] = Et[k] / norm
    return RatioCurve(center=center, boundary_centered=bflag, radii=radii,
                      I_values=I, I_tilde_values=I_t, e_tilde_integrals=Et,
                      neg_xi_tilde_integrals=Dt)


@dataclass(frozen=True)
class MonotonicityReport:
    c1: float
    violations: list          # (rho_lo, rho_hi, deficit) beyond the tolerance
    max_deficit: float
    fitted_c1: float          # smallest c1 >= 0 passing everywhere (inf if none)
    tolerance: float


def _monotonicity_deficits(curve: RatioCurve, kappa0: float, n: int, c1: float):
    """Integrated-form deficits of the almost-monotonicity inequality.

    Between consecutive radii the differential inequality
    d/drho [e^{c1 rho} rho^{-(n-1)} int e~] >=
    e^{c1 rho} (1 + 3 kappa0 rho)^{-1} rho^{-n} int(-xi~) is integrated
    exactly on the left and by the trapezoid rule on the right; a negative
    margin is a violation.
    """
    rho = curve.radii
    F = np.exp(c1 * rho) * rho ** (1 - n) * curve.e_tilde_integrals
    G = (np.exp(c1 * rho) / (1.0 + 3.0 * kappa0 * rho)
         * rho ** (-n) * curve.neg_xi_tilde_integrals)
    drho = np.diff(rho)
    return np.diff(F) - 0.5 * drho * (G[:-1] + G[1:])


def monotonicity_scan(curve: RatioCurve, f: Field, well: DoubleWell,
                      c1: float, tolerance: float = 1e-3,
                      c1_cap: float = 200.0) -> MonotonicityReport:
    """Check the discrete almost-monotonicity inequality along the curve and
    fit the smallest c1 that makes every interval pass."""
    kappa0 = f.dom.kappa0 if curve.boundary_centered else 0.0
    n = f.dom.dim

    def deficits(c):
        return np.maximum(0.0, -_monotonicity_deficits(curve, kappa0, n, c))

    d0 = deficits(c1)
    viol = [(float(curve.radii[j]), float(curve.radii[j + 1]), float(d0[j]))
            for j in np.flatnonzero(d0 > tolerance)]

    def passes(c):
        return bool(np.all(deficits(c) <= tolerance))

    if passes(0.0):
        fitted = 0.0
    elif not passes(c1_cap):
        fitted = math.inf
    else:
        lo, hi = 0.0, c1_cap
        for _ in range(50):
            mid = 0.5 * (lo + hi)
            if passes(mid):
                hi = mid
            else:
                lo = mid
        fitted = hi
    return MonotonicityReport(c1=c1, violations=viol,
                              max_deficit=float(d0.max(initial=0.0)),
                              fitted_c1=fitted, tolerance=tolerance)


def almost_monotonicity_fit(curve: RatioCurve, cap: float = 1e4) -> float:
    """Smallest c with I(r) >= e^{-c(r-s)} I(s) - c r^{1/8} on all pairs s<r."""
    r = curve.radii
    I = curve.I_values

    def ok(c):
        for j in range(len(r)):
            lower = np.exp(-c * (r[j] - r[:j])) * I[:j] - c * r[j] ** 0.125
            if np.any(I[j] < lower - 1e-12):
                return False
        return True

    if ok(0.0):
        return 0.0
    if not ok(cap):
        return math.inf
    lo, hi = 0.0, cap
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi


def xi_integral_bound_fit(f: Field, well: DoubleWell, lam: float,
                          curve: RatioCurve) -> float:
    """Fitted C in r^{-n} int_{B_r} xi+ <= C r^{-7/8} (I(r) + 1)."""
    dom = f.dom
    n = dom.dim
    d = density_fields(f, well)
    best = 0.0
    balls = ball_restrictions(dom, curve.center, curve.radii)
    for r, I, ball in zip(curve.radii, curve.I_values, balls):
        lhs = float(np.sum(ball.node_weights * d.xi_plus[ball.node_index])) / r**n
        best = max(best, lhs * r ** (7.0 / 8.0) / (I + 1.0))
    return best


# ---------------------------------------------------------------------------
# test vector fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TestVectorField:
    """Vector field sampled on the active nodes and the boundary samples."""

    values: np.ndarray              # (N, dim)
    boundary_values: np.ndarray     # (M, dim) at the boundary sample points
    tangential_on_boundary: bool
    support_radius: float
    c1_norm: float
    evaluator: object = field(default=None, repr=False, compare=False)


def _smoothstep(t):
    t = np.clip(t, 0.0, 1.0)
    return t**3 * (10.0 - 15.0 * t + 6.0 * t * t)


def _smoothstep_int(t):
    """Antiderivative of the quintic smoothstep with value 0 at 0."""
    t = np.clip(t, 0.0, 1.0)
    return 2.5 * t**4 - 3.0 * t**5 + t**6


def radial_cutoff(t):
    """Decreasing C^2 cutoff: 1 on t <= 1/2, 0 on t >= 1, quintic bridge."""
    return 1.0 - _smoothstep(2.0 * np.asarray(t, dtype=float) - 1.0)


# Blended-ramp cutoff profile chi: chi(s) = s on [0, 1], constant beyond
# 3 + CHI_BLEND, with 0 <= chi' <= 1 and 0 <= -chi'' <= 1/2 everywhere and
# C^2 regularity.  The decay is the extremal -chi'' = 1/2 ramp with quintic
# blends of width CHI_BLEND at both ends.
CHI_BLEND = 0.1
_CHI_END = 3.0 + CHI_BLEND


def cutoff_derivatives(s):
    """(chi'(s), chi''(s)) of the blended-ramp cutoff, vectorized."""
    s = np.asarray(s, dtype=float)
    d = CHI_BLEND
    e = _CHI_END
    chi_p = np.ones_like(s)
    chi_pp = np.zeros_like(s)

    seg = (s > 1.0) & (s <= 1.0 + d)
    t = (s[seg] - 1.0) / d
    chi_pp[seg] = -0.5 * _smoothstep(t)
    chi_p[seg] = 1.0 - 0.5 * d * _smoothstep_int(t)

    seg = (s > 1.0 + d) & (s <= e - d)
    chi_pp[seg] = -0.5
    chi_p[seg] = (1.0 - 0.25 * d) - 0.5 * (s[seg] - 1.0 - d)

    seg = (s > e - d) & (s <= e)
    t = (s[seg] - (e - d)) / d
    chi_pp[seg] = -0.5 * (1.0 - _smoothstep(t))
    chi_p[seg] = 0.25 * d - 0.5 * d * (t - _smoothstep_int(t))

    chi_p[s > e] = 0.0
    return chi_p, chi_pp


def scaled_cutoff_derivatives(s, a: float):
    """(chi_a'(s), chi_a''(s)) for chi_a(s) = a chi(s/a)."""
    cp, cpp = cutoff_derivatives(np.asarray(s, dtype=float) / a)
    return cp, cpp / a


def _c1_norm(dom: Domain, values: np.ndarray) -> float:
    J = node_jacobian(dom, values)
    sup_x = float(np.linalg.norm(values, axis=1).max(initial=0.0))
    sup_j = float(np.sqrt(np.sum(J * J, axis=(1, 2))).max(initial=0.0))
    return sup_x + sup_j


def _tangential_flag(dom: Domain, boundary_values: np.ndarray) -> bool:
    dots = np.abs(np.sum(boundary_values * dom.boundary.normals, axis=1))
    return bool(dots.max(initial=0.0) <= 1e-12)


def field_from_callable(dom: Domain, fn, support_radius: float) -> TestVectorField:
    """Wrap an analytic vector field; fn maps (k, dim) points to vectors."""
    vals = np.asarray(fn(dom.points), dtype=float)
    bvals = np.asarray(fn(dom.boundary.points), dtype=float)
    return TestVectorField(values=vals, boundary_values=bvals,
                           tangential_on_boundary=_tangential_flag(dom, bvals),
                           support_radius=support_radius,
                           c1_norm=_c1_norm(dom, vals), evaluator=fn)


def make_radial_field(dom: Domain, x, rho: float) -> TestVectorField:
    """Truncated radial field phi(r/rho) * r grad r centered at x."""
    x = np.asarray(x, dtype=float)
    if np.any(x - rho < dom.u_lo) or np.any(x + rho > dom.u_hi):
        raise BallEscapesU(f"support ball of radius {rho} at {x} leaves U")

    def fn(pts):
        rel = np.atleast_2d(pts) - x[None, :]
        r = np.linalg.norm(rel, axis=1)
        return radial_cutoff(r / rho)[:, None] * rel

    return field_from_callable(dom, fn, support_radius=float(rho))


def make_boundary_normal_field(dom: Domain, a: float) -> TestVectorField:
    """X = -zeta grad(chi_a o d): equals the outward normal on the boundary
    and vanishes at depth beyond 4a."""
    sd = signed_distance(dom)
    if not a > 0.0 or 4.0 * a >= float(sd.values.max()):
        raise InvalidCutoffScale(
            f"cutoff scale a={a} must satisfy 0 < 4a < max distance "
            f"{float(sd.values.max()):.4g}")

    def fn(pts):
        pts = np.atleast_2d(pts)
        d = dom.distance_to_boundary(pts)
        from .geometry import _shape_sdist_grad
        g = _shape_sdist_grad(dom.shape, dom.params, pts)
        cp, _ = scaled_cutoff_derivatives(np.maximum(d, 0.0), a)
        return -cp[:, None] * g

    return field_from_callable(dom, fn, support_radius=4.0 * a)


def make_rotational_field(dom: Domain, rng: np.random.Generator,
                          n_bumps: int = 3) -> TestVectorField:
    """Random smooth field tangential to all circles about the origin.

    psi(p) * (-y, x) with psi a sum of Gaussian bumps; tangential on the
    boundary of disks and annuli.  Supported inside U by a radial cutoff.
    """
    R = 0.5 * dom.extent
    centers = rng.uniform(-0.8 * R, 0.8 * R, size=(n_bumps, 2))
    sig = rng.uniform(0.2 * R, 0.5 * R, size=n_bumps)
    amp = rng.uniform(-1.0, 1.0, size=n_bumps)
    r_support = 0.45 * float(np.min(dom.u_hi - dom.u_lo))

    def fn(pts):
        pts = np.atleast_2d(pts)
        psi = np.zeros(pts.shape[0])
        for c, s, am in zip(centers, sig, amp):
            d2 = np.sum((pts - c[None, :]) ** 2, axis=1)
            psi += am * np.exp(-0.5 * d2 / s**2)
        rr = np.linalg.norm(pts, axis=1)
        psi *= radial_cutoff(rr / r_support)
        return psi[:, None] * np.stack([-pts[:, 1], pts[:, 0]], axis=1)

    return field_from_callable(dom, fn, support_radius=r_support)


# ---------------------------------------------------------------------------
# Pohozaev residual and boundary energy
# ---------------------------------------------------------------------------

def pohozaev_residual(sol: Solution, well: DoubleWell,
                      X: TestVectorField) -> float:
    """|LHS - RHS| of the W-tilde Pohozaev identity under the module quadratures.

    LHS integrates (e~ div X - eps grad-X(grad u, grad u)) over the domain,
    RHS integrates e~ (X . nu) over the boundary.
    """
    f = sol.field
    dom, eps = f.dom, f.epsilon
    g = node_gradient(dom, f.values)
    J = node_jacobian(dom, X.values)
    lam0 = max(1.0, abs(sol.lam))
    wt = well.w(f.values) - eps * sol.lam * f.values + eps * lam0 * C0
    e_t = 0.5 * eps * np.sum(g * g, axis=1) + wt / eps
    divX = np.trace(J, axis1=1, axis2=2)
    quad = np.einsum("iab,ia,ib->i", J, g, g)
    lhs = float(np.sum(dom.cut_cell_weights * (e_t * divX - eps * quad)))
    xdotnu = np.sum(X.boundary_values * dom.boundary.normals, axis=1)
    rhs = float(np.sum(dom.boundary.weights * e_t[dom.boundary.node] * xdotnu))
    return abs(lhs - rhs)


def boundary_energy(sol: Solution, well: DoubleWell) -> float:
    """Energy density integrated over the boundary inside the shrunk box."""
    d = density_fields(sol.field, well)
    return boundary_integral(sol.field.dom, d.e,
                             within_box=sol.field.dom.shrunk_u_box(0.9))


# ---------------------------------------------------------------------------
# equipartition across a sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EquipartitionRow:
    epsilon: float
    kinetic: float
    potential: float
    ratio: float
    xi_l1: float


@dataclass(frozen=True)
class EquipartitionReport:
    rows: list
    xi_l1_decreasing: bool


def equipartition_report(sweep: list, well: DoubleWell) -> EquipartitionReport:
    """Kinetic/potential split, their ratio, and the L1 discrepancy per epsilon."""
    rows = []
    for sol in sweep:
        f = sol.field
        w = f.dom.cut_cell_weights
        g = node_gradient(f.dom, f.values)
        kin = float(np.sum(w * 0.5 * f.epsilon * np.sum(g * g, axis=1)))
        pot = float(np.sum(w * well.w(f.values)) / f.epsilon)
        xi_l1 = float(np.sum(w * np.abs(density_fields(f, well).xi)))
        rows.append(EquipartitionRow(
            epsilon=f.epsilon, kinetic=kin, potential=pot,
            ratio=kin / pot if pot > 0.0 else 0.0, xi_l1=xi_l1))
    xs = [r.xi_l1 for r in rows]
    decreasing = all(b < a for a, b in zip(xs, xs[1:]))
    return EquipartitionReport(rows=rows, xi_l1_decreasing=decreasing)


# ---------------------------------------------------------------------------
# plateau detection shared with the varifold density estimates
# ---------------------------------------------------------------------------

def plateau_value(radii: np.ndarray, values: np.ndarray,
                  slope_tol: float = 0.2) -> float:
    """Median of the curve over the window where |d value / d log r| stays
    below slope_tol.  Raises NoPlateau when no window survives the filter."""
    from .errors import NoPlateau
    radii = np.asarray(radii, dtype=float)
    values = np.asarray(values, dtype=float)
    if radii.size < 2:
        raise NoPlateau("need at least two radii")
    slopes = np.diff(values) / np.diff(np.log(radii))
    stable = np.abs(slopes) < slope_tol
    if not stable.any():
        raise NoPlateau("no stable window in the density-ratio curve")
    keep = np.zeros(radii.size, dtype=bool)
    keep[:-1] |= stable
    keep[1:] |= stable
    return float(np.median(values[keep]))
