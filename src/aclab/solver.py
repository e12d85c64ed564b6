"""Discrete Allen-Cahn energy, constrained gradient flow and Newton refinement.

The energy is the finite-volume form: face-centered differences for the
gradient term, nodal potential with cut-cell weights.  energy_gradient is the
exact derivative of assemble_energy divided by the cell weight, which makes
the scheme variational: missing neighbors across the boundary act as mirror
ghost nodes, i.e. the homogeneous Neumann condition.

Stencil application and reductions are data-parallel over nodes; the time
loop of the flow is sequential.  Solutions are immutable once returned.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import cg, splu

from .errors import (Blowup, NoConvergence, SingularJacobian,
                     UnresolvedInterface)
from .geometry import Domain
from .potential import SQRT2, DoubleWell

RECIPES = ("constant", "step-x", "step-y", "two-layer", "radial", "file")


@dataclass(frozen=True)
class Field:
    """Scalar grid function with its diffuse-interface width epsilon."""

    dom: Domain
    epsilon: float
    values: np.ndarray

    def __post_init__(self):
        if not self.epsilon > 0.0:
            raise ValueError("epsilon must be positive")
        if self.values.shape != (self.dom.n_nodes,):
            raise ValueError("values must have one entry per active node")

    def mean(self):
        w = self.dom.cut_cell_weights
        return float(w @ self.values / w.sum())


@dataclass(frozen=True)
class Solution:
    """A converged critical point with its multiplier and solver metadata."""

    field: Field
    lam: float
    residual_norm: float
    iterations: int
    constraint: float | None = None
    converged: bool = True
    energy: float = math.nan

    @property
    def max_abs(self):
        return float(np.abs(self.field.values).max())


def stiffness_matrix(dom: Domain) -> sp.csr_matrix:
    """Symmetric face-weighted stiffness A with A @ 1 = 0.

    Face weight is min of the adjacent cut-cell volumes, divided by h^2;
    the quadratic form u.A.u equals twice the kinetic energy sum over faces.
    """
    h = dom.cell_size
    w = dom.cut_cell_weights
    rows, cols, vals = [], [], []
    for a in range(dom.dim):
        i = np.flatnonzero(dom.neighbors[:, a, 1] >= 0)
        j = dom.neighbors[i, a, 1]
        aw = np.minimum(w[i], w[j]) / h**2
        rows += [i, j, i, j]
        cols += [i, j, j, i]
        vals += [aw, aw, -aw, -aw]
    n = dom.n_nodes
    return sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n))


def assemble_energy(f: Field, well: DoubleWell) -> float:
    """Total discrete energy: sum of eps |grad u|^2 / 2 + W(u) / eps."""
    dom, eps, u = f.dom, f.epsilon, f.values
    h = dom.cell_size
    w = dom.cut_cell_weights
    kinetic = 0.0
    for a in range(dom.dim):
        i = np.flatnonzero(dom.neighbors[:, a, 1] >= 0)
        j = dom.neighbors[i, a, 1]
        aw = np.minimum(w[i], w[j])
        kinetic += 0.5 * eps * float(np.sum(aw * ((u[j] - u[i]) / h) ** 2))
    potential = float(np.sum(w * well.w(u)) / eps)
    return kinetic + potential


def energy_gradient(f: Field, well: DoubleWell, lam: float = 0.0,
                    A: sp.spmatrix | None = None) -> np.ndarray:
    """Pointwise residual -eps lap(u) + W'(u)/eps - lam at every node."""
    if A is None:
        A = stiffness_matrix(f.dom)
    w = f.dom.cut_cell_weights
    return (f.epsilon * (A @ f.values)) / w + well.wp(f.values) / f.epsilon - lam


def residual_norm(f: Field, well: DoubleWell, lam: float,
                  A: sp.spmatrix | None = None) -> float:
    """Discrete L2 norm of the Euler-Lagrange residual."""
    r = energy_gradient(f, well, lam, A)
    return float(np.sqrt(np.sum(f.dom.cut_cell_weights * r * r)))


def _chemical_mean(f: Field, well: DoubleWell, A) -> float:
    """Spatial mean of -eps lap(u) + W'(u)/eps (the multiplier candidate)."""
    w = f.dom.cut_cell_weights
    num = f.epsilon * float(np.sum(A @ f.values)) \
        + float(np.sum(w * well.wp(f.values))) / f.epsilon
    return num / float(w.sum())


def gradient_flow(init: Field, well: DoubleWell, dt: float | None = None,
                  constraint: float | None = None, stop_tol: float = 1e-8,
                  max_steps: int = 20000, dt_factor: float = 0.125,
                  history: list | None = None) -> Solution:
    """Semi-implicit descent: implicit in eps*lap, explicit in W'/eps.

    With a constraint the multiplier is the spatial mean of the chemical
    potential each step and the update is mean-projected.  Hitting max_steps
    returns the best iterate flagged converged=False rather than raising.
    history, when a list, collects (residual, energy, mean) per step.
    """
    dom, eps = init.dom, init.epsilon
    h = dom.cell_size
    if dt is None:
        dt = dt_factor * eps * h * h
    if dt > 0.25 * eps * h * h * (1.0 + 1e-12):
        raise ValueError(f"dt={dt} violates the stability bound eps*h^2/4")
    A = stiffness_matrix(dom)
    w = dom.cut_cell_weights
    wsum = float(w.sum())
    M = sp.diags(w)
    lhs = (M + dt * eps * A).tocsr()
    diag_inv = sp.diags(1.0 / lhs.diagonal())

    u = init.values.copy()
    if constraint is not None:
        u = u + (constraint - float(w @ u) / wsum)
    lam = 0.0
    best = (np.inf, u, lam, 0)
    for steps in range(max_steps + 1):
        f = Field(dom, eps, u)
        lam = _chemical_mean(f, well, A) if constraint is not None else 0.0
        rn = residual_norm(f, well, lam, A)
        if history is not None:
            history.append((rn, assemble_energy(f, well),
                            float(w @ u) / wsum))
        if rn < best[0]:
            best = (rn, u.copy(), lam, steps)
        if rn <= stop_tol:
            return Solution(field=f, lam=lam, residual_norm=rn,
                            iterations=steps, constraint=constraint,
                            energy=assemble_energy(f, well))
        if steps == max_steps:
            break
        rhs = w * u - dt * (w * well.wp(u) / eps - lam * w)
        u_new, info = cg(lhs, rhs, x0=u, rtol=1e-10, atol=0.0, M=diag_inv)
        if info != 0:
            raise SingularJacobian(f"flow linear solve failed (info={info})")
        u = u_new
        if constraint is not None:
            u = u + (constraint - float(w @ u) / wsum)
        if np.abs(u).max() > 10.0:
            raise Blowup(f"field magnitude exceeded 10 at step {steps + 1}")
    rn, u, lam, it = best
    f = Field(dom, eps, u)
    return Solution(field=f, lam=lam, residual_norm=rn, iterations=it,
                    constraint=constraint, converged=False,
                    energy=assemble_energy(f, well))


def newton_refine(sol: Solution, well: DoubleWell, tol: float = 1e-12,
                  max_iter: int = 40,
                  basin_threshold: float | None = None) -> Solution:
    """Damped Newton on the residual, bordered with the mean constraint.

    Quadratic near the solution; raises SingularJacobian if the
    linearization cannot be factorized, NoConvergence (carrying the best
    iterate) if the budget runs out.
    """
    if basin_threshold is not None and sol.residual_norm > basin_threshold:
        raise NoConvergence(
            f"residual {sol.residual_norm:.3e} outside the Newton basin "
            f"threshold {basin_threshold:.3e}", best=sol)
    dom = sol.field.dom
    eps = sol.field.epsilon
    m = sol.constraint
    A = stiffness_matrix(dom)
    w = dom.cut_cell_weights
    wsum = float(w.sum())
    u = sol.field.values.copy()
    lam = sol.lam

    def fvec(u, lam):
        return eps * (A @ u) + w * well.wp(u) / eps - lam * w

    def norm_of(F):
        return float(np.sqrt(np.sum(F * F / w)))

    F = fvec(u, lam)
    rn = norm_of(F)
    best = (rn, u.copy(), lam, 0)
    for it in range(1, max_iter + 1):
        if rn <= tol and (m is None or abs(w @ u / wsum - m) <= 1e-13):
            f = Field(dom, eps, u)
            return Solution(field=f, lam=lam, residual_norm=rn,
                            iterations=it - 1, constraint=m,
                            energy=assemble_energy(f, well))
        J = (eps * A + sp.diags(w * well.wpp(u) / eps)).tocsc()
        try:
            # J is symmetric: order A + A^T by minimum degree and prefer
            # diagonal pivots, which halves the fill of the default COLAMD
            lu = splu(J, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.1,
                      options=dict(SymmetricMode=True))
            p = lu.solve(F)
        except RuntimeError as exc:
            raise SingularJacobian(str(exc)) from exc
        if not np.all(np.isfinite(p)):
            raise SingularJacobian("non-finite Newton direction")
        if m is not None:
            q = lu.solve(w)
            wq = float(w @ q)
            if abs(wq) < 1e-300:
                raise SingularJacobian("degenerate constraint border")
            G = float(w @ u) - m * wsum
            dlam = (float(w @ p) - G) / wq
            du = -p + dlam * q
        else:
            dlam = 0.0
            du = -p
        step = 1.0
        for _ in range(30):
            u_try = u + step * du
            lam_try = lam + step * dlam
            F_try = fvec(u_try, lam_try)
            if norm_of(F_try) < rn or rn < 10.0 * tol:
                break
            step *= 0.5
        u, lam, F = u_try, lam_try, F_try
        rn = norm_of(F)
        if rn < best[0]:
            best = (rn, u.copy(), lam, it)
    if best[0] <= tol:
        rn, u, lam, it = best
        f = Field(dom, eps, u)
        return Solution(field=f, lam=lam, residual_norm=rn, iterations=it,
                        constraint=m, energy=assemble_energy(f, well))
    rn, u, lam, it = best
    f = Field(dom, eps, u)
    raise NoConvergence(
        f"Newton stalled at residual {rn:.3e} after {max_iter} iterations",
        best=Solution(field=f, lam=lam, residual_norm=rn, iterations=it,
                      constraint=m, converged=False,
                      energy=assemble_energy(f, well)))


# ---------------------------------------------------------------------------
# initial data recipes
# ---------------------------------------------------------------------------

def _lens_area(r):
    """Area cut from the unit disk by an orthogonal circular arc of radius r."""
    d = math.hypot(1.0, r)
    return math.acos(1.0 / d) + r * r * math.acos(r / d) - r


def orthogonal_arc(R: float, m: float):
    """Circular arc meeting the circle of radius R orthogonally, enclosing a
    minority-phase lens with area fraction (1 - |m|)/2 of the disk.

    Returns (arc_radius, arc_center_distance, arc_length) scaled to R; the
    arc center sits on the positive x-axis.
    """
    frac = 0.5 * (1.0 - abs(m))
    if not (0.0 < frac < 0.5):
        raise ValueError("constraint must give a lens fraction in (0, 1/2)")
    target = frac * math.pi
    lo, hi = 1e-8, 1e8
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if _lens_area(mid) < target:
            lo = mid
        else:
            hi = mid
    r = math.sqrt(lo * hi)
    d = math.hypot(1.0, r)
    beta = math.acos(r / d)
    return r * R, d * R, 2.0 * beta * r * R


def seed_field(dom: Domain, epsilon: float, recipe: str,
               constraint: float | None = None, recipe_params=None,
               values=None) -> Field:
    """Interface-bearing initial data: step profiles smoothed by the
    heteroclinic width at the given epsilon."""
    if recipe not in RECIPES:
        raise ValueError(f"unknown init recipe {recipe!r}")
    p = dict(recipe_params or {})
    pts = dom.points
    s2e = epsilon * SQRT2
    if recipe == "constant":
        u = np.full(dom.n_nodes, float(p.get("value", constraint or 0.0)))
        return Field(dom, epsilon, u)
    if recipe == "file":
        if values is None:
            raise ValueError("file recipe needs nodal values")
        return Field(dom, epsilon, np.asarray(values, dtype=float).copy())
    if recipe in ("step-x", "step-y"):
        a = 0 if recipe == "step-x" else 1
        lo = dom.origin[a]
        L = dom.n_cells[a] * dom.cell_size
        frac = 0.5 * (1.0 - (constraint or 0.0))
        x0 = float(p.get("offset", lo + frac * L))
        return Field(dom, epsilon, np.tanh((pts[:, a] - x0) / s2e))
    if recipe == "two-layer":
        lo = dom.origin[0]
        L = dom.n_cells[0] * dom.cell_size
        width = 0.5 * (1.0 - (constraint if constraint is not None else 0.0)) * L
        a = float(p.get("left", lo + 0.5 * (L - width)))
        b = float(p.get("right", a + width))
        u = np.tanh((pts[:, 0] - a) / s2e) * np.tanh((pts[:, 0] - b) / s2e)
        return Field(dom, epsilon, u)
    # radial
    if dom.shape in ("disk",) and constraint is not None and constraint != 0.0:
        R = dom.params[0]
        r_arc, d_arc, _ = orthogonal_arc(R, constraint)
        center = np.array([d_arc, 0.0])
        s = r_arc - np.linalg.norm(pts - center, axis=1)
        u = -np.sign(constraint) * np.tanh(s / s2e)
        return Field(dom, epsilon, u)
    center = np.asarray(p.get("center", np.zeros(dom.dim)), dtype=float)
    rho0 = float(p.get("radius", 0.5 * dom.extent / 2.0))
    s = rho0 - np.linalg.norm(pts - center[None, :], axis=1)
    return Field(dom, epsilon, np.tanh(s / s2e))


def resharpen(values: np.ndarray, eps_old: float, eps_new: float) -> np.ndarray:
    """Map a converged profile to a narrower interface width.

    Pointwise atanh/tanh rescaling preserves the zero set and sharpens the
    tails; plateaus map to themselves.
    """
    clipped = np.clip(values, -1.0 + 1e-15, 1.0 - 1e-15)
    return np.tanh(np.arctanh(clipped) * (eps_old / eps_new))


def epsilon_sweep(dom: Domain, well: DoubleWell, epsilons,
                  constraint: float | None = None, recipe: str = "step-x",
                  recipe_params=None, pre_steps: int = 100,
                  flow_tol: float = 1e-8, newton_tol: float = 1e-10,
                  dt_factor: float = 0.125) -> list[Solution]:
    """Solve at the largest epsilon, then warm-start each smaller one.

    Warm starts resharpen the previous solution to the new width before the
    short pre-flow and the Newton lock-in.
    """
    eps_list = [float(e) for e in epsilons]
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise UnresolvedInterface("epsilons must be strictly descending")
    h = dom.cell_size
    for e in eps_list:
        if e <= 2.0 * h:
            raise UnresolvedInterface(
                f"epsilon {e} <= 2h = {2 * h}: interface unresolvable")
    sols = []
    prev = None
    for e in eps_list:
        if prev is None:
            f0 = seed_field(dom, e, recipe, constraint, recipe_params)
        else:
            f0 = Field(dom, e, resharpen(prev.field.values, prev.field.epsilon, e))
        flowed = gradient_flow(f0, well, constraint=constraint,
                               stop_tol=flow_tol, max_steps=pre_steps,
                               dt_factor=dt_factor)
        sols.append(newton_refine(flowed, well, tol=newton_tol))
        prev = sols[-1]
    return sols


def solve_single(dom: Domain, well: DoubleWell, epsilon: float,
                 constraint: float | None = None, recipe: str = "step-x",
                 recipe_params=None, pre_steps: int = 100,
                 newton_tol: float = 1e-10) -> Solution:
    """One epsilon: seed, short pre-flow, Newton."""
    return epsilon_sweep(dom, well, [epsilon], constraint, recipe,
                         recipe_params, pre_steps=pre_steps,
                         newton_tol=newton_tol)[0]
