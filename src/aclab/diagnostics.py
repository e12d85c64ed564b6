"""Scalar and field diagnostics: energy density, discrepancy, density ratios,
almost-monotonicity scans, Pohozaev residuals and boundary energy.

Everything here is read-only over Solution and Domain; both fitted
monotonicity constants come from one bisection.  Per-node vector rows
reduce through the row kernels of geometry, which give the bits of the
numpy reductions they stand for; other reductions are order-insensitive up
to floating-point reassociation, so tests compare with tolerances.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidCutoffScale, NoPlateau
from .geometry import (Domain, _shape_sdist, _shape_sdist_grad,
                       ball_integrals, boundary_integral, kept, read_only,
                       require_ball_in_u, row_distance, row_dot, row_form,
                       row_norm, row_sq_distance, row_trace, signed_distance)
from .potential import DoubleWell
from .solver import Field, Solution

# W-tilde convention: W - eps*lam*u + eps*Lambda0*C0 with C0 fixed and
# Lambda0 = max(1, |lam|); keeps the shifted potential nonnegative.
C0 = 2.0

# unit-ball volumes omega_k for k = 0, 1, 2
OMEGA = (1.0, 2.0, math.pi)

# a monotonicity interval passes when its deficit is at most this
MONOTONICITY_TOLERANCE = 1e-3


# ---------------------------------------------------------------------------
# gradients on the cut-cell grid
# ---------------------------------------------------------------------------

def node_gradient(dom: Domain, values: np.ndarray) -> np.ndarray:
    """Centered differences where both neighbors exist, one-sided where one
    does, 0 where none does."""
    g = np.empty((dom.n_nodes, dom.dim))
    for a, (left, right, span) in enumerate(_gradient_stencil(dom)):
        g[:, a] = (values[right] - values[left]) / span
    return g


@kept
def _gradient_stencil(dom: Domain):
    """Per axis, node_gradient's (left, right, span): the left and right
    neighbors, each the node itself where it is missing, and the number of
    neighbors present (at least 1) times h."""
    node = np.arange(dom.n_nodes)
    stencil = []
    for a in range(dom.dim):
        left, right = dom.neighbors[:, a, 0], dom.neighbors[:, a, 1]
        has_l, has_r = left >= 0, right >= 0
        span = np.maximum(has_l.astype(int) + has_r, 1) * dom.cell_size
        stencil.append((np.where(has_l, left, node),
                        np.where(has_r, right, node), span))
    return tuple(stencil)


@kept
def field_gradient(f: Field) -> np.ndarray:
    """node_gradient of f."""
    return node_gradient(f.dom, f.values)


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
    """Energy density e, discrepancy xi and its positive part."""

    e: np.ndarray
    xi: np.ndarray
    xi_plus: np.ndarray


@kept
def density_fields(f: Field, well: DoubleWell) -> DensityFields:
    """The density fields of f under well, kept per field and well value."""
    g = field_gradient(f)
    kin = 0.5 * f.epsilon * row_dot(g, g)
    pot = well.w(f.values) / f.epsilon
    e = kin + pot
    xi = kin - pot
    return DensityFields(e=e, xi=xi, xi_plus=np.maximum(xi, 0.0))


@kept
def tilted_integrands(f: Field, well: DoubleWell, lam: float):
    """(e_tilde, -xi_tilde) of f with W replaced by the shifted W-tilde, the
    tilted fields a ratio curve integrates, kept per field, well value and
    lam."""
    d = density_fields(f, well)
    lam0 = max(1.0, abs(lam))
    shift = -lam * f.values + lam0 * C0
    return d.e + shift, -(d.xi - shift)


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
    # ball integrals reused by the monotonicity scan and the xi+ bound fit
    e_tilde_integrals: np.ndarray = field(repr=False)
    neg_xi_tilde_integrals: np.ndarray = field(repr=False)
    xi_plus_integrals: np.ndarray = field(repr=False)


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
                       lam: float) -> RatioCurve:
    """I(r) = (omega_{n-1} r^{n-1})^{-1} * integral of e over B_r(x) in Omega,
    for each of radii, sorted; RadiusTooSmall when radii is empty."""
    n = f.dom.dim
    radii = np.sort(np.asarray(radii, dtype=float))
    d = density_fields(f, well)
    (e, et, neg_xt, xp), center, bflag = ball_integrals(
        f.dom, x, radii, (d.e, *tilted_integrands(f, well, lam), d.xi_plus))
    norm = OMEGA[n - 1] * radii ** (n - 1)
    return RatioCurve(center=center, boundary_centered=bflag, radii=radii,
                      I_values=e / norm, I_tilde_values=et / norm,
                      e_tilde_integrals=et, neg_xi_tilde_integrals=neg_xt,
                      xi_plus_integrals=xp)


@dataclass(frozen=True)
class MonotonicityReport:
    violations: list          # (rho_lo, rho_hi, deficit) at c1 = 0
    max_deficit: float        # at c1 = 0
    fitted_c1: float          # smallest c1 >= 0 passing everywhere (inf if none)


def _smallest_passing(ok, cap: float, steps: int) -> float:
    """The smallest c in [0, cap] with ok(c), for ok monotone in c: 0.0 when
    ok(0.0), inf when not ok(cap), else the upper end of a bracket halved
    steps times."""
    if ok(0.0):
        return 0.0
    if not ok(cap):
        return math.inf
    lo, hi = 0.0, cap
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _monotonicity_margins(curve: RatioCurve, kappa0: float, n: int):
    """The integrated-form margins of the almost-monotonicity inequality,
    as a function of c1.

    Between consecutive radii the differential inequality
    d/drho [e^{c1 rho} rho^{-(n-1)} int e~] >=
    e^{c1 rho} (1 + 3 kappa0 rho)^{-1} rho^{-n} int(-xi~) is integrated
    exactly on the left and by the trapezoid rule on the right; a negative
    margin is a violation.  The factors free of c1 are computed once.
    """
    rho = curve.radii
    lift = rho ** (1 - n)
    tilt = 1.0 + 3.0 * kappa0 * rho
    scale = rho ** (-n)
    half_step = 0.5 * (rho[1:] - rho[:-1])

    def margins(c1):
        grow = np.exp(c1 * rho)
        F = grow * lift * curve.e_tilde_integrals
        G = grow / tilt * scale * curve.neg_xi_tilde_integrals
        return (F[1:] - F[:-1]) - half_step * (G[:-1] + G[1:])

    return margins


def monotonicity_scan(curve: RatioCurve, dom: Domain) -> MonotonicityReport:
    """Check the discrete almost-monotonicity inequality along the curve at
    c1 = 0 and fit the smallest c1 in [0, 200] that makes every interval
    pass."""
    kappa0 = dom.kappa0 if curve.boundary_centered else 0.0
    margins = _monotonicity_margins(curve, kappa0, dom.dim)
    d0 = np.maximum(0.0, -margins(0.0))

    def passes(c):
        d = d0 if c == 0.0 else np.maximum(0.0, -margins(c))
        return bool((d <= MONOTONICITY_TOLERANCE).all())

    viol = [(float(curve.radii[j]), float(curve.radii[j + 1]), float(d0[j]))
            for j in np.flatnonzero(d0 > MONOTONICITY_TOLERANCE)]
    return MonotonicityReport(
        violations=viol, max_deficit=float(d0.max(initial=0.0)),
        fitted_c1=_smallest_passing(passes, 200.0, 50))


def almost_monotonicity_fit(curve: RatioCurve) -> float:
    """Smallest c in [0, 1e4] with I(r) >= e^{-c(r-s)} I(s) - c r^{1/8} on
    all pairs s<r."""
    r = curve.radii
    I = curve.I_values
    # every pair s = r[i] < r[j] = r at once; r^{1/8} by the scalar power,
    # whose bits the vector power need not give
    j, i = np.tril_indices(r.size, -1)
    gap = r[j] - r[i]
    root = np.array([rj ** 0.125 for rj in r])[j]
    I_s, I_r = I[i], I[j]

    def ok(c):
        lower = np.exp(-c * gap) * I_s - c * root
        return not (I_r < lower - 1e-12).any()

    return _smallest_passing(ok, 1e4, 60)


def xi_integral_bound_fit(curve: RatioCurve) -> float:
    """Fitted C in r^{-n} int_{B_r} xi+ <= C r^{-7/8} (I(r) + 1), from the
    ball integrals the curve keeps."""
    n = curve.center.size  # the dimension of the domain
    best = 0.0
    for r, I, xp in zip(curve.radii, curve.I_values, curve.xi_plus_integrals):
        best = max(best, xp / r**n * r ** (7.0 / 8.0) / (I + 1.0))
    return best


# ---------------------------------------------------------------------------
# test vector fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TestVectorField:
    """Vector field sampled on the active nodes and the boundary samples,
    with its node Jacobian."""

    values: np.ndarray              # (N, dim)
    boundary_values: np.ndarray     # (M, dim) at the boundary sample points
    normal_sup: float               # max |X . nu| over the boundary samples
    c1_norm: float
    jacobian: np.ndarray = field(repr=False, compare=False)  # node_jacobian
    evaluator: object = field(default=None, repr=False, compare=False)

    @property
    def tangential_on_boundary(self) -> bool:
        return self.normal_sup <= 1e-12


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


def _c1_norm(values: np.ndarray, J: np.ndarray) -> float:
    sup_x = float(row_norm(values).max(initial=0.0))
    sup_j = float(row_norm(J).max(initial=0.0))
    return sup_x + sup_j


def field_from_callable(dom: Domain, fn) -> TestVectorField:
    """Wrap an analytic vector field; fn maps (k, dim) points to vectors."""
    return _sampled_field(dom, np.asarray(fn(dom.points), dtype=float),
                          np.asarray(fn(dom.boundary.points), dtype=float),
                          fn)


def _sampled_field(dom: Domain, vals, bvals, fn) -> TestVectorField:
    """The field fn, given its values at the nodes and at the boundary
    samples."""
    J = read_only(node_jacobian(dom, vals))
    dots = np.abs(row_dot(bvals, dom.boundary.normals))
    return TestVectorField(values=vals, boundary_values=bvals,
                           normal_sup=float(dots.max(initial=0.0)),
                           c1_norm=_c1_norm(vals, J), jacobian=J, evaluator=fn)


def make_radial_field(dom: Domain, x, rho: float) -> TestVectorField:
    """Truncated radial field phi(r/rho) * r grad r centered at x."""
    x = np.asarray(x, dtype=float)
    require_ball_in_u(dom, x, rho)

    def fn(pts):
        pts = np.atleast_2d(pts)
        r = row_distance(pts, x)
        return radial_cutoff(r / rho)[:, None] * (pts - x[None, :])

    return field_from_callable(dom, fn)


def make_boundary_normal_field(dom: Domain, a: float) -> TestVectorField:
    """X = -zeta grad(chi_a o d): equals the outward normal on the boundary
    and vanishes at depth beyond 4a."""
    d_max = float(signed_distance(dom).max())
    if not a > 0.0 or 4.0 * a >= d_max:
        raise InvalidCutoffScale(
            f"cutoff scale a={a} must satisfy 0 < 4a < max distance "
            f"{d_max:.4g}")

    # fn holds dom's shape, not dom: kept on dom, it would close a cycle
    shape, params = dom.shape, dom.params

    def fn(pts):
        pts = np.atleast_2d(pts)
        d = _shape_sdist(shape, params, pts)
        g = _shape_sdist_grad(shape, params, pts)
        cp, _ = scaled_cutoff_derivatives(np.maximum(d, 0.0), a)
        return -cp[:, None] * g

    return field_from_callable(dom, fn)


def _rotation(dom: Domain, pts):
    """The domain-only factors of a rotational field at pts: the radial
    cutoff of support 0.45 min(u_hi - u_lo) and (-y, x)."""
    r_support = 0.45 * float(np.min(dom.u_hi - dom.u_lo))
    return (radial_cutoff(row_norm(pts) / r_support),
            np.stack([-pts[:, 1], pts[:, 0]], axis=1))


@kept
def _rotation_at_samples(dom: Domain):
    """_rotation at the nodes and at the boundary samples, kept per
    domain."""
    return _rotation(dom, dom.points), _rotation(dom, dom.boundary.points)


def make_rotational_field(dom: Domain,
                          rng: np.random.Generator) -> TestVectorField:
    """Random smooth field tangential to all circles about the origin.

    psi(p) * (-y, x) with psi a sum of three Gaussian bumps; tangential on
    the boundary of disks and annuli.  Supported inside U by a radial cutoff.
    At the nodes and the boundary samples, the cutoff and (-y, x) are kept
    per domain.
    """
    R = 0.5 * dom.extent
    centers = rng.uniform(-0.8 * R, 0.8 * R, size=(3, 2))
    sig = rng.uniform(0.2 * R, 0.5 * R, size=3)
    amp = rng.uniform(-1.0, 1.0, size=3)

    def field(pts, cutoff, rot):
        psi = np.zeros(pts.shape[0])
        for c, s, am in zip(centers, sig, amp):
            d2 = row_sq_distance(pts, c)
            psi += am * np.exp(-0.5 * d2 / s**2)
        psi *= cutoff
        return psi[:, None] * rot

    def fn(pts):
        pts = np.atleast_2d(pts)
        return field(pts, *_rotation(dom, pts))

    nodes, samples = _rotation_at_samples(dom)
    return _sampled_field(dom, field(dom.points, *nodes),
                          field(dom.boundary.points, *samples), fn)


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
    g = field_gradient(f)
    J = X.jacobian
    lam0 = max(1.0, abs(sol.lam))
    wt = well.w(f.values) - eps * sol.lam * f.values + eps * lam0 * C0
    e_t = 0.5 * eps * row_dot(g, g) + wt / eps
    divX = row_trace(J)
    quad = row_form(J, g, g)
    lhs = float(np.sum(dom.cut_cell_weights * (e_t * divX - eps * quad)))
    xdotnu = row_dot(X.boundary_values, dom.boundary.normals)
    rhs = float(np.sum(dom.boundary.weights * e_t[dom.boundary.node] * xdotnu))
    return abs(lhs - rhs)


def boundary_energy(sol: Solution, well: DoubleWell) -> float:
    """Energy density integrated over every boundary sample."""
    return boundary_integral(sol.field.dom, density_fields(sol.field, well).e)


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
        g = field_gradient(f)
        kin = float(np.sum(w * 0.5 * f.epsilon * row_dot(g, g)))
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

def plateau_value(radii: np.ndarray, values: np.ndarray) -> float:
    """Median of the curve over the window where |d value / d log r| stays
    below 0.2.  Raises NoPlateau when no window survives the filter."""
    radii = np.asarray(radii, dtype=float)
    values = np.asarray(values, dtype=float)
    if radii.size < 2:
        raise NoPlateau("need at least two radii")
    slopes = np.diff(values) / np.diff(np.log(radii))
    stable = np.abs(slopes) < 0.2
    if not stable.any():
        raise NoPlateau("no stable window in the density-ratio curve")
    keep = np.zeros(radii.size, dtype=bool)
    keep[:-1] |= stable
    keep[1:] |= stable
    return float(np.median(values[keep]))
