"""Discrete Allen-Cahn energy, constrained gradient flow and Newton refinement.

The energy is the finite-volume form: face-centered differences for the
gradient term (eps u.A.u / 2 with the face-weighted stiffness A kept per
domain), nodal potential with cut-cell weights.  Its exact gradient less the
multiplier term is the one residual F that Newton and residual_norm share;
the scheme is variational: missing neighbors across the boundary act as
mirror ghost nodes, i.e. the homogeneous Neumann condition.

Everything runs in one thread: stencils and reductions are whole-array
numpy operations over the nodes, per-node vector rows go through the row
kernels of geometry (row_distance here), and the time loop of the flow is
sequential.  Solutions are immutable once returned.
Newton factors only the black Schur complement of a red-black split, each
LU in the minimum-degree order of its own matrix, and holds one LU at a
time, so a solve's bits depend only on its inputs.  Between factorizations
it steps along the kept LU with good-Broyden secant updates, whose pairs
live on the folded unknowns and go with the LU.  The system is folded
along every exact symmetry that Newton's start has bitwise.  When
translation along an axis is exact (every grid line along it fully active
with equal cut-cell weights: the rectangle) and the start is constant along
it (step-x, step-y), each line collapses onto one node, so a 2D solve
factors a 1D-sized system.  Otherwise, when the domain is exactly
mirror-symmetric along an axis (an even cell count, and the active set and
cut-cell weights map exactly onto themselves) and the start is
mirror-symmetric along it, the system is folded onto the low half.  Both
are exact because the Newton map commutes with the symmetry; any other
start runs unfolded, with unchanged arithmetic.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import cg, splu

from .errors import (AcLabError, Blowup, NoConvergence, SingularJacobian,
                     UnresolvedInterface)
from .geometry import Domain, kept, line_maps, mirror_maps, row_distance
from .potential import SQRT2, DoubleWell

RECIPES = ("constant", "step-x", "step-y", "two-layer", "radial", "file")

# Newton takes a step along its kept LU, Broyden-updated, only if the step
# cuts the residual norm below this factor times its value, and refactors at
# the same iterate otherwise
CHORD_CONTRACTION = 0.5
# the most secant pairs the Broyden updates of one LU hold; when they are
# full, the updates restart from the LU's own bordered solve
BROYDEN_PAIRS = 8
# J is symmetric: SuperLU's symmetric mode with diagonal pivots preferred
LU_OPTIONS = dict(diag_pivot_thresh=0.1, options=dict(SymmetricMode=True))


@dataclass(frozen=True)
class Field:
    """Scalar grid function with its diffuse-interface width epsilon.

    Fields derived from the values are built by kept builders and held in
    cache, read-only, for as long as the field lives; values are never
    written.
    """

    dom: Domain
    epsilon: float
    values: np.ndarray
    cache: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)

    def __post_init__(self):
        if not self.epsilon > 0.0:
            raise ValueError("epsilon must be positive")
        if self.values.shape != (self.dom.n_nodes,):
            raise ValueError("values must have one entry per active node")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("values must be finite")


@dataclass(frozen=True)
class Solution:
    """A converged critical point with its multiplier and solver metadata.

    iterations counts the Newton iterations that produced it, steps along a
    kept LU included (the flow steps for a gradient_flow result);
    factorizations counts the Jacobian LUs among them.  On solver results,
    residual_norm and energy equal residual_norm and assemble_energy of
    field, exactly.
    """

    field: Field
    lam: float
    residual_norm: float
    iterations: int
    constraint: float | None = None
    converged: bool = True
    energy: float = math.nan
    factorizations: int = 0

    @property
    def max_abs(self):
        return float(np.abs(self.field.values).max())


def stiffness_matrix(dom: Domain) -> sp.csr_matrix:
    """Symmetric face-weighted stiffness A with A @ 1 = 0.

    Face weight is min of the adjacent cut-cell volumes, divided by h^2;
    the quadratic form u.A.u equals twice the kinetic energy sum over faces.

    The CSR is built straight from the neighbor table, canonical and with
    exact-size arrays.  Row k holds its columns in ascending active index,
    -x, -y, k, +y, +x (in 1D -x, k, +x), missing neighbors dropped; an
    off-diagonal entry is minus the weight of that face.  The diagonal sums
    the weights of k's faces from the left in the order +x, -x, +y, -y:
    the order in which summing the duplicates of the face-by-face COO
    assembly adds them, so A has that assembly's bits.
    """
    h = dom.cell_size
    w = dom.cut_cell_weights
    n, dim = dom.n_nodes, dom.dim
    nbr = dom.neighbors
    # slots of row k: -a for a = 0..dim-1, then k, then +a for a = dim-1..0
    cols = np.empty((n, 2 * dim + 1), dtype=np.int32)
    vals = np.empty((n, 2 * dim + 1))
    cols[:, dim] = np.arange(n)
    diag = vals[:, dim]
    diag[:] = 0.0
    for a in range(dim):
        minus, plus = a, 2 * dim - a
        # up[k]: the weight of the face from k to its +a neighbor, 0 where
        # there is none; the trailing 0 is up[-1], read for a missing -a one
        i = np.flatnonzero(nbr[:, a, 1] >= 0)
        up = np.zeros(n + 1)
        up[i] = np.minimum(w[i], w[nbr[i, a, 1]]) / h**2
        down = up[nbr[:, a, 0]]
        up = up[:n]
        cols[:, minus], cols[:, plus] = nbr[:, a, 0], nbr[:, a, 1]
        np.negative(down, out=vals[:, minus])
        np.negative(up, out=vals[:, plus])
        diag += up
        diag += down
    keep = cols >= 0
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(keep.sum(axis=1), out=indptr[1:])
    return sp.csr_matrix((vals[keep], cols[keep], indptr), shape=(n, n))


@kept
def _stiffness(dom: Domain) -> sp.csr_matrix:
    """stiffness_matrix(dom), kept on the domain."""
    return stiffness_matrix(dom)


@dataclass(frozen=True)
class _Fold:
    """The Newton system folded along its symmetries and split red-black.

    The folded unknowns are the nodes in low: those on the low side of each
    mirror axis and first on their line along each collapsed axis; every
    node takes the value of its image among them, at position rep in low.
    The folded stiffness restricts A to low and adds each column to that of
    its image.  A face that crosses a mirror axis couples a node to its own
    image, so its coupling lands on the diagonal: the Neumann condition on
    the symmetry line.  A face along a collapsed line joins two nodes of one
    image, so it drops out.  With no axes, low holds every node and the fold
    is A itself.

    The folded nodes are split by the parity of their grid indices: on the
    5-point stencil no two nodes of one colour are neighbours, so the
    red-red and black-black blocks are diagonal.  red and black are
    positions in low, a_red and a_black the folded diag(A) on each colour,
    off_red the largest off-diagonal |A| in each red row, A_br the
    black-red block and A_rb its transpose.
    """

    low: np.ndarray
    rep: np.ndarray
    red: np.ndarray
    black: np.ndarray
    a_red: np.ndarray
    a_black: np.ndarray
    off_red: np.ndarray
    A_br: sp.csr_matrix
    A_rb: sp.csr_matrix


def _fold_matrix(M: sp.csr_matrix, low: np.ndarray,
                 rep: np.ndarray) -> sp.csr_matrix:
    """M[low] with each column added to the column of its image in low."""
    M = M[low]
    F = sp.csr_matrix((M.data, rep[M.indices], M.indptr),
                      shape=(low.size, low.size))
    F.sum_duplicates()
    return F


def _symmetries(dom: Domain, u: np.ndarray) -> tuple:
    """The axes of fold that u is bitwise invariant under: each axis a
    along which u is mirror-symmetric but not constant, then dim + a for
    each axis a along whose lines u is constant."""
    lines = [a for a, line in enumerate(line_maps(dom))
             if line is not None and np.array_equal(u[line], u)]
    return tuple(a for a, image in enumerate(mirror_maps(dom))
                 if a not in lines and image is not None
                 and np.array_equal(u[image], u)) \
        + tuple(dom.dim + a for a in lines)


@kept
def fold(dom: Domain, axes: tuple) -> _Fold:
    """The fold of the Newton system along axes, which index the maps
    mirror_maps(dom) + line_maps(dom) and must each name one: a < dim folds
    onto the low half along axis a, dim + a collapses every grid line along
    axis a onto its first node."""
    n = dom.n_nodes
    coords = np.unravel_index(dom.grid_index, dom.n_cells)
    maps = mirror_maps(dom) + line_maps(dom)
    image = np.arange(n)
    for k in axes:
        if k < dom.dim:
            high = coords[k] >= dom.n_cells[k] // 2
            image[high] = maps[k][image[high]]
        else:
            image = maps[k][image]
    low = np.flatnonzero(image == np.arange(n))
    rep = np.empty(n, dtype=np.int64)
    rep[low] = np.arange(low.size)
    rep = rep[image]
    A = _fold_matrix(_stiffness(dom), low, rep)
    colour = sum(coords)[low] % 2
    red = np.flatnonzero(colour == 0)
    black = np.flatnonzero(colour == 1)
    diag = A.diagonal()
    off = abs(A - sp.diags(diag)).max(axis=1).toarray().ravel()
    A_br = A[black][:, red].tocsr()
    return _Fold(low, rep, red, black, diag[red], diag[black], off[red],
                 A_br, A_br.T.tocsr())


def _lu(M: sp.spmatrix):
    """Factor M with LU_OPTIONS in the minimum-degree order on M + M^T;
    return its solve."""
    # rebinding M frees the caller's matrix before splu runs
    M = M.tocsc()
    try:
        lu = splu(M, permc_spec="MMD_AT_PLUS_A", **LU_OPTIONS)
    except RuntimeError as exc:
        raise SingularJacobian(str(exc)) from exc
    return lu.solve


def _factor_jacobian(dom: Domain, eps: float, d: np.ndarray, axes: tuple):
    """Factor the Newton Jacobian J = eps A + diag(d), folded along axes;
    return its solve, which reads f on the folded nodes only and returns a
    solution invariant under axes.  d must be invariant under axes.

    On the folded nodes split red-black (fold), the red block of J is the
    diagonal p_r = eps diag(A)_r + d_r, so the red unknowns are eliminated
    exactly and only the black Schur complement

        S = eps A_bb + diag(d_b) - eps^2 A_br diag(1/p_r) A_rb

    goes to the LU (Saad, Iterative Methods for Sparse Linear Systems,
    2003, sec. 3.3).  A red pivot is weak when |p_r| < 0.1 max_j |J_rj|, the
    diagonal pivot threshold of LU_OPTIONS; then the folded J is factored
    whole.
    """
    fd = fold(dom, axes)
    d_low = d[fd.low]
    p_r = eps * fd.a_red + d_low[fd.red]
    if not np.all(np.abs(p_r) >= 0.1 * eps * fd.off_red):
        solve_j = _lu(_fold_matrix(
            eps * _stiffness(dom) + sp.diags(d), fd.low, fd.rep))
        return lambda f: solve_j(f[fd.low])[fd.rep]
    M = fd.A_br.copy()
    M.data *= (eps * eps / p_r)[M.indices]
    solve_s = _lu(sp.diags(eps * fd.a_black + d_low[fd.black]) - M @ fd.A_rb)

    def solve(f):
        f = f[fd.low]
        f_r = f[fd.red]
        x_b = solve_s(f[fd.black] - eps * (fd.A_br @ (f_r / p_r)))
        x = np.empty_like(f)
        x[fd.black] = x_b
        x[fd.red] = (f_r - eps * (fd.A_rb @ x_b)) / p_r
        return x[fd.rep]

    return solve


def _residual(dom: Domain, eps: float, well: DoubleWell, u: np.ndarray,
              lam: float) -> np.ndarray:
    """F = eps A u + w W'(u)/eps - lam w: the gradient of assemble_energy
    less lam times that of the mass, i.e. the residual integrated per cell."""
    w = dom.cut_cell_weights
    return eps * (_stiffness(dom) @ u) + w * well.wp(u) / eps - lam * w


def _norm(dom: Domain, F: np.ndarray) -> float:
    """sqrt(sum F^2 / w): the discrete L2 norm of the nodal residual F / w."""
    return float(np.sqrt(np.sum(F * F / dom.cut_cell_weights)))


def assemble_energy(f: Field, well: DoubleWell) -> float:
    """Total discrete energy: eps u.A.u / 2 + sum w W(u) / eps, where u.A.u
    is twice the face sum of the face weight times |grad u|^2."""
    u, eps = f.values, f.epsilon
    kinetic = 0.5 * eps * float(u @ (_stiffness(f.dom) @ u))
    return kinetic + float(np.sum(f.dom.cut_cell_weights * well.w(u)) / eps)


def residual_norm(f: Field, well: DoubleWell, lam: float) -> float:
    """Discrete L2 norm of the Euler-Lagrange residual."""
    return _norm(f.dom, _residual(f.dom, f.epsilon, well, f.values, lam))


def _chemical_mean(f: Field, well: DoubleWell) -> float:
    """Spatial mean of -eps lap(u) + W'(u)/eps (the multiplier candidate)."""
    w = f.dom.cut_cell_weights
    num = f.epsilon * float(np.sum(_stiffness(f.dom) @ f.values)) \
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
    w = dom.cut_cell_weights
    wsum = float(w.sum())
    lhs = (sp.diags(w) + dt * eps * _stiffness(dom)).tocsr()
    diag_inv = sp.diags(1.0 / lhs.diagonal())

    u = init.values.copy()
    if constraint is not None:
        u = u + (constraint - float(w @ u) / wsum)
    lam = 0.0
    best = (np.inf, u, lam, 0)
    for steps in range(max_steps + 1):
        f = Field(dom, eps, u)
        lam = _chemical_mean(f, well) if constraint is not None else 0.0
        rn = residual_norm(f, well, lam)
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
        if not np.abs(u).max() <= 10.0:
            raise Blowup(f"field magnitude exceeded 10 at step {steps + 1}")
    rn, u, lam, it = best
    f = Field(dom, eps, u)
    return Solution(field=f, lam=lam, residual_norm=rn, iterations=it,
                    constraint=constraint, converged=False,
                    energy=assemble_energy(f, well))


def newton_refine(sol: Solution, well: DoubleWell, tol: float = 1e-12,
                  max_iter: int = 40) -> Solution:
    """Damped Newton on the residual, bordered with the mean constraint,
    with good-Broyden updates between factorizations.

    The first iteration, and every iteration whose step along the kept LU
    fails, factors the Jacobian at the current iterate and halves the fresh
    direction up to 30 times until the residual norm falls; near the
    rounding floor (below 10 tol) the full fresh step is taken.  Every other
    iteration steps along the kept LU, with the good-Broyden inverse
    H_{k+1} = (I + a_k s_k^T) H_k, a_k = (s_k - H_k y_k) / (s_k^T H_k y_k),
    updated from the step s_k and residual change y_k of each step taken
    since the factorization (Broyden, Math. Comp. 19, 1965; Kelley,
    Iterative Methods for Linear and Nonlinear Equations, 1995, ch. 7-8).
    H_0 is the bordered solve through the LU, so a direction costs one LU
    solve and k dot products and axpys.  The pairs live on the folded
    unknowns and lambda, at most BROYDEN_PAIRS of them; when they are full
    the updates restart from H_0.  Such a step is tried at 1, 1/2 and 1/4
    and taken at the first trial whose residual norm is below
    CHORD_CONTRACTION times the current one; otherwise the iteration
    refactors at the same iterate.  max_iter counts iterations of both
    kinds.  At most one LU is alive at a time, and the pairs are released
    with it.

    The Newton map commutes with every exact symmetry of the discrete
    problem.  So when the start u is bitwise invariant under one, every
    iterate stays so, and each LU factors the Jacobian folded along it
    (fold): a line map (geometry.line_maps) along which u is constant
    collapses each grid line onto one node, and a mirror map
    (geometry.mirror_maps) along which u is symmetric folds onto the low
    half.  A start that is not exactly invariant runs unfolded, with
    unchanged arithmetic.
    Raises SingularJacobian if the linearization cannot be factorized,
    NoConvergence, naming the smallest residual reached, if the budget runs
    out.
    """
    dom = sol.field.dom
    eps = sol.field.epsilon
    m = sol.constraint
    w = dom.cut_cell_weights
    wsum = float(w.sum())
    u = sol.field.values.copy()
    lam = sol.lam
    factorizations = 0
    axes = _symmetries(dom, u)
    F = _residual(dom, eps, well, u, lam)
    rn = rn_best = _norm(dom, F)
    solve = pairs = None
    for it in range(max_iter + 1):
        # the one acceptance test, of iterates 0 to max_iter
        if rn <= tol and (m is None or abs(w @ u / wsum - m) <= 1e-13):
            f = Field(dom, eps, u)
            return Solution(field=f, lam=lam, residual_norm=rn, iterations=it,
                            constraint=m, energy=assemble_energy(f, well),
                            factorizations=factorizations)
        if it == max_iter:
            break
        stale = solve is not None
        while True:
            if not stale:
                # release the stale LU, its pairs and the failed trial
                # before SuperLU builds the next LU, so that at most one is
                # alive
                solve = pairs = a = s = q = p = d = du = u_try = F_try = None
                solve = _factor_jacobian(dom, eps, w * well.wpp(u) / eps,
                                         axes)
                factorizations += 1
                fd = fold(dom, axes)
                # a_k and s_k of pair k, on the folded unknowns and lambda
                pairs = np.empty((2, BROYDEN_PAIRS, fd.low.size + 1))
                k = 0
                if m is not None:
                    q = solve(w)
                    wq = float(w @ q)
                    if abs(wq) < 1e-300:
                        raise SingularJacobian("degenerate constraint border")
                    q = q[fd.low]
            # d = -H_0 (F, G): the bordered solve through the LU
            p = solve(F)
            if not np.all(np.isfinite(p)):
                raise SingularJacobian("non-finite Newton direction")
            d = np.empty(fd.low.size + 1)
            np.negative(p[fd.low], out=d[:-1])
            d[-1] = 0.0
            if m is not None:
                G = float(w @ u) - m * wsum
                d[-1] = (float(w @ p) - G) / wq
                d[:-1] += d[-1] * q
            if stale and k == BROYDEN_PAIRS:
                k = 0  # the pairs are full: restart the updates from H_0
            elif stale:
                # d = -H_k (F, G), then the pair of the last step
                for a, s in zip(pairs[0, :k], pairs[1, :k]):
                    d += (s @ d) * a
                s = np.multiply(step, d_last, out=pairs[1, k])
                hy = d_last - d
                den = float(s @ hy)
                if den == 0.0:
                    stale = False
                    continue
                a = np.divide(s - hy, den, out=pairs[0, k])
                d += (s @ d) * a
                k += 1
            # a step along the kept LU is taken only if it contracts; a
            # fresh one if it lowers the residual or sits at its rounding
            # floor
            du = d[:-1][fd.rep]
            target = CHORD_CONTRACTION * rn if stale else rn
            step = 1.0
            for _ in range(3 if stale else 30):
                u_try = u + step * du
                lam_try = lam + step * float(d[-1])
                F_try = _residual(dom, eps, well, u_try, lam_try)
                rn_try = _norm(dom, F_try)
                taken = rn_try < target or (not stale and rn < 10.0 * tol)
                if taken:
                    break
                step *= 0.5
            if taken or not stale:
                break
            # no trial along the kept LU contracts: refactor at this iterate
            stale = False
        d_last = d
        u, lam, F, rn = u_try, lam_try, F_try, rn_try
        rn_best = min(rn_best, rn)
    raise NoConvergence(f"Newton stalled at residual {rn_best:.3e} "
                        f"after {max_iter} iterations")


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
               constraint: float | None = None, recipe_params=None) -> Field:
    """Interface-bearing initial data: step profiles smoothed by the
    transition-profile width at the given epsilon.  The file recipe takes
    its nodal values from recipe_params["values"].  The radial recipe seeds a
    circle of recipe_params["radius"] when it is given; otherwise, given a
    constraint m, it seeds the disk with an orthogonal arc (the diameter at
    m = 0 or within rounding of it), the rectangle with a quarter circle
    about the origin corner, and the annulus and half-disk with a circle
    about the origin, each enclosing the area that m asks for."""
    if recipe not in RECIPES:
        raise ValueError(f"unknown init recipe {recipe!r}")
    p = dict(recipe_params or {})
    pts = dom.points
    s2e = epsilon * SQRT2
    if recipe == "constant":
        u = np.full(dom.n_nodes, float(p.get("value", constraint or 0.0)))
        return Field(dom, epsilon, u)
    if recipe == "file":
        if "values" not in p:
            raise ValueError("file recipe needs nodal values")
        return Field(dom, epsilon, np.asarray(p["values"], dtype=float).copy())
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
    center = np.asarray(p.get("center", np.zeros(dom.dim)), dtype=float)
    sign = 1.0
    if "radius" in p:
        rho0 = float(p["radius"])
    elif dom.shape == "disk" and constraint is not None:
        if 0.5 * (1.0 - abs(constraint)) == 0.5:
            # the m -> 0 limit of the orthogonal arc, taken wherever the lens
            # fraction rounds to 1/2: the diameter on the y-axis
            return Field(dom, epsilon, -np.tanh(pts[:, 0] / s2e))
        R = dom.params[0]
        r_arc, d_arc, _ = orthogonal_arc(R, constraint)
        center = np.array([d_arc, 0.0])
        s = r_arc - row_distance(pts, center)
        u = -np.sign(constraint) * np.tanh(s / s2e)
        return Field(dom, epsilon, u)
    elif dom.shape == "rectangle" and constraint is not None:
        # the minority phase (-1 at m = 0) fills a quarter disk about the
        # origin corner, with area fraction (1 - |m|)/2 of the rectangle
        rho0 = math.sqrt(2.0 * (1.0 - abs(constraint))
                         * dom.params[0] * dom.params[1] / math.pi)
        sign = 1.0 if constraint < 0.0 else -1.0
    elif dom.shape in ("annulus", "half-disk") and constraint is not None:
        # u = +1 on r < rho has mean m when rho^2 - r_in^2 is the fraction
        # (1+m)/2 of R^2 - r_in^2; r_in = 0 on the half-disk
        r_in = dom.params[0] if dom.shape == "annulus" else 0.0
        R = dom.params[-1]
        rho0 = math.sqrt(r_in**2 + 0.5 * (1.0 + constraint) * (R**2 - r_in**2))
    else:
        rho0 = 0.5 * dom.extent / 2.0
    s = rho0 - row_distance(pts, center)
    return Field(dom, epsilon, sign * np.tanh(s / s2e))


def resharpen(values: np.ndarray, eps_old: float, eps_new: float) -> np.ndarray:
    """Map a converged profile to a narrower interface width.

    Pointwise atanh/tanh rescaling preserves the zero set and sharpens the
    tails; plateaus map to themselves.
    """
    clipped = np.clip(values, -1.0 + 1e-15, 1.0 - 1e-15)
    return np.tanh(np.arctanh(clipped) * (eps_old / eps_new))


def _newton_start(f: Field, well: DoubleWell,
                  constraint: float | None) -> Solution:
    """f mean-projected onto the constraint, with the chemical mean as its
    multiplier: the state Newton starts from."""
    u, lam = f.values, 0.0
    if constraint is not None:
        w = f.dom.cut_cell_weights
        u = u + (constraint - float(w @ u) / float(w.sum()))
        lam = _chemical_mean(Field(f.dom, f.epsilon, u), well)
    return Solution(field=Field(f.dom, f.epsilon, u), lam=lam,
                    residual_norm=math.inf, iterations=0,
                    constraint=constraint, converged=False)


def epsilon_sweep(dom: Domain, well: DoubleWell, epsilons,
                  constraint: float | None = None, recipe: str = "step-x",
                  recipe_params=None, newton_tol: float = 1e-10,
                  errors: list | None = None) -> list[Solution]:
    """Solve at the largest epsilon, then warm-start each smaller one.

    The first epsilon starts from the recipe seed, each later one from the
    previous solution resharpened to the new width; every start goes
    straight to Newton.  errors, when a list, collects (epsilon, message)
    for each epsilon whose solve fails, the sweep goes on and the next
    epsilon starts from the recipe seed again; without it a failure raises.
    The order and resolvability gates raise before any solve starts.
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
        start = _newton_start(f0, well, constraint)
        try:
            prev = newton_refine(start, well, tol=newton_tol)
        except AcLabError as exc:
            if errors is None:
                raise
            errors.append((e, str(exc)))
            prev = None
        else:
            sols.append(prev)
    return sols


def solve_single(dom: Domain, well: DoubleWell, epsilon: float,
                 constraint: float | None = None, recipe: str = "step-x",
                 recipe_params=None) -> Solution:
    """One epsilon: seed, then Newton."""
    return epsilon_sweep(dom, well, [epsilon], constraint, recipe,
                         recipe_params)[0]
