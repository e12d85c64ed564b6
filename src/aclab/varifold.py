"""Discrete varifold of a solution: mass, first variation, density ratios,
free-boundary relation and integrality diagnostics.

Construction is a parallel map over nodes; all queries are read-only.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diagnostics import (TestVectorField, density_fields, node_gradient,
                          node_jacobian, plateau_value, radius_ladder,
                          unit_ball_volume)
from .errors import BallEscapesU, NoInterface, NotTangential, RadiusTooSmall
from .geometry import Domain, _shape_sdist_grad
from .potential import DoubleWell
from .solver import Solution

# |grad u| below this multiple of 1/eps gets the zero-normal flag; separates
# phase plateaus from transition layers on the natural gradient scale
GRADIENT_FLOOR = 1e-8


@dataclass(frozen=True)
class DiscreteVarifold:
    """Weighted point set with unit normals; weights are cell_weight * e / h0."""

    dom: Domain
    points: np.ndarray      # (K, dim)
    node_index: np.ndarray  # (K,) active-node index of each atom
    weights: np.ndarray     # (K,)
    normals: np.ndarray     # (K, dim); zero rows where flagged
    zero_flag: np.ndarray   # (K,) bool
    epsilon: float
    h0: float

    @property
    def mass(self):
        """Varifold mass: atoms with a well-defined normal."""
        return float(self.weights[~self.zero_flag].sum())

    @property
    def total_measure(self):
        """Mass of the underlying energy measure including zero-normal atoms."""
        return float(self.weights.sum())


@dataclass(frozen=True)
class InterfaceCurve:
    """Zero level set as polylines, with per-segment quadrature data.

    Segment normals are oriented from {u<0} into {u>0} (the gradient
    direction); this global sign convention is fixed here once.
    """

    polylines: list
    seg_mid: np.ndarray
    seg_len: np.ndarray
    seg_normal: np.ndarray
    orthogonality_angles: list  # radians, one per boundary contact point

    @property
    def length(self):
        return float(self.seg_len.sum())


def build_varifold(sol: Solution, well: DoubleWell, h0: float) -> DiscreteVarifold:
    """One atom per node with positive energy density; normals follow the
    grad u / |grad u| convention with a gradient floor of 1e-8 / eps."""
    f = sol.field
    dom = f.dom
    d = density_fields(f, well)
    keep = d.e > 0.0
    idx = np.flatnonzero(keep)
    w = dom.cut_cell_weights[idx] * d.e[idx] / h0
    g = node_gradient(dom, f.values)[idx]
    gn = np.linalg.norm(g, axis=1)
    zero = gn <= GRADIENT_FLOOR / f.epsilon
    normals = np.zeros_like(g)
    normals[~zero] = g[~zero] / gn[~zero, None]
    return DiscreteVarifold(dom=dom, points=dom.points[idx], node_index=idx,
                            weights=w, normals=normals, zero_flag=zero,
                            epsilon=f.epsilon, h0=h0)


def export_atoms(V: DiscreteVarifold, path):
    """Write the atoms as CSV: position, weight, normal, zero flag."""
    dim = V.dom.dim
    coords = ("x", "y")[:dim]
    ncols = tuple("n" + c for c in coords)
    row = ",".join(["%.17g"] * (2 * dim + 1) + ["%d"]) + "\n"
    table = np.column_stack((V.points, V.weights, V.normals, V.zero_flag))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(coords + ("weight",) + ncols + ("zero_flag",)) + "\n")
        fh.writelines(row % tuple(r) for r in table.tolist())


def first_variation(V: DiscreteVarifold, X: TestVectorField) -> float:
    """delta V(X) = sum of weight * <grad X, I - nu x nu> over the atoms."""
    J_nodes = node_jacobian(V.dom, X.values)
    live = ~V.zero_flag
    J = J_nodes[V.node_index[live]]
    nu = V.normals[live]
    divX = np.trace(J, axis1=1, axis2=2)
    nn = np.einsum("iab,ia,ib->i", J, nu, nu)
    return float(np.sum(V.weights[live] * (divX - nn)))


def _chain_segments(segments):
    """Connect shared endpoints into polylines (greedy walk over a hash map)."""
    key = lambda p: (round(p[0] * 1e9), round(p[1] * 1e9))
    links = {}
    for si, (a, b) in enumerate(segments):
        links.setdefault(key(a), []).append((si, 0))
        links.setdefault(key(b), []).append((si, 1))
    used = [False] * len(segments)
    polylines = []
    for start in range(len(segments)):
        if used[start]:
            continue
        used[start] = True
        a, b = segments[start]
        chain = [a, b]
        # extend forward then backward
        for head in (1, 0):
            while True:
                p = chain[-1] if head else chain[0]
                cands = [(si, end) for si, end in links.get(key(p), [])
                         if not used[si]]
                if not cands:
                    break
                si, end = cands[0]
                used[si] = True
                nxt = segments[si][1 - end]
                if head:
                    chain.append(nxt)
                else:
                    chain.insert(0, nxt)
        polylines.append(np.array(chain))
    return polylines


# corner k of cell (i, j) sits at grid node (i + di, j + dj); edge k runs from
# corner k to corner k + 1 (counter-clockwise)
_CELL_CORNERS = ((0, 0), (1, 0), (1, 1), (0, 1))


def _cell_segments(U, origin, h):
    """Marching-squares segments of the zero level set of the nodal grid U.

    One numpy pass over all cells.  Cells touching a NaN (inactive) corner are
    skipped.  Segments come in row-major (i, j) cell order, and within a cell
    in edge order, with the saddle split by the sign of the corner mean.
    Returns the start and end points, each of shape (S, 2).
    """
    nx, ny = U.shape
    vals = np.stack([U[di:nx - 1 + di, dj:ny - 1 + dj]
                     for di, dj in _CELL_CORNERS], axis=-1).reshape(-1, 4)
    nxt = lambda a: np.roll(a, -1, axis=1)     # value at corner k + 1
    neg = vals < 0.0
    crosses = neg != nxt(neg)                  # edge k: exactly one end < 0
    keep = ~np.isnan(vals).any(axis=1) & crosses.any(axis=1)
    cells = np.flatnonzero(keep)
    vals, crosses = vals[keep], crosses[keep]
    i, j = np.divmod(cells, ny - 1)
    ox, oy = origin
    # corner positions, integer offset added before the half-cell shift
    cx = np.stack([ox + ((i + di) + 0.5) * h for di, _ in _CELL_CORNERS], 1)
    cy = np.stack([oy + ((j + dj) + 0.5) * h for _, dj in _CELL_CORNERS], 1)
    # edges without a crossing give inf/nan here and are never selected
    with np.errstate(divide="ignore", invalid="ignore"):
        t = vals / (vals - nxt(vals))
        pts = np.stack([cx + t * (nxt(cx) - cx), cy + t * (nxt(cy) - cy)], -1)

    # crossed-edge pairs per cell: (first, second) for two crossings; for a
    # saddle (0, 1) and (2, 3) when the corner mean is >= 0, else (3, 0), (1, 2)
    saddle = crosses.all(axis=1)
    order = np.argsort(~crosses, axis=1, kind="stable")
    pos = vals.mean(axis=1) >= 0.0
    start = np.stack([np.where(saddle, np.where(pos, 0, 3), order[:, 0]),
                      np.where(pos, 2, 1)], axis=1)
    end = np.stack([np.where(saddle, np.where(pos, 1, 0), order[:, 1]),
                    np.where(pos, 3, 2)], axis=1)
    emit = np.stack([np.ones_like(saddle), saddle], axis=1)
    row = np.broadcast_to(np.arange(cells.size)[:, None], emit.shape)[emit]
    return pts[row, start[emit]], pts[row, end[emit]]


def extract_interface(sol: Solution) -> InterfaceCurve:
    """Marching-squares zero level set with linear edge interpolation."""
    f = sol.field
    dom = f.dom
    if dom.dim != 2:
        raise NoInterface("interface extraction needs a 2D solution")
    if not (f.values.min() < 0.0 < f.values.max()):
        raise NoInterface("field has no sign change")
    nx, ny = dom.grid_shape
    U = np.full(nx * ny, np.nan)
    U[dom.grid_index] = f.values
    U = U.reshape(nx, ny)
    h = dom.cell_size
    seg_a, seg_b = _cell_segments(U, dom.origin, h)
    if seg_a.shape[0] == 0:
        raise NoInterface("no zero level set segments found")

    grad = node_gradient(dom, f.values)
    mids = 0.5 * (seg_a + seg_b)
    dirs = seg_b - seg_a
    lens = np.linalg.norm(dirs, axis=1)
    ok = lens > 1e-14
    mids, dirs, lens = mids[ok], dirs[ok], lens[ok]
    tangents = dirs / lens[:, None]
    normals = np.stack([-tangents[:, 1], tangents[:, 0]], axis=1)
    # orient along grad u ({u<0} -> {u>0}) using the nearest node's gradient
    cell = np.clip(np.round((mids - dom.origin[None, :]) / h - 0.5).astype(int),
                   0, [nx - 1, ny - 1])
    flat = cell[:, 0] * ny + cell[:, 1]
    near = dom.active_of_grid[flat]
    near[near < 0] = 0
    flip = np.sum(normals * grad[near], axis=1) < 0.0
    normals[flip] *= -1.0

    polylines = _chain_segments(list(zip(seg_a, seg_b)))
    angles = []
    for chain in polylines:
        for walk in (chain, chain[::-1]):
            end_pt = walk[0]
            db = float(dom.distance_to_boundary(end_pt[None, :])[0])
            # the tangent runs to the first point off the end: exact-zero
            # nodes leave zero-length steps in the polyline
            off = np.flatnonzero((walk[1:] != end_pt).any(axis=1))
            if abs(db) < 2.0 * h and off.size:
                t = walk[1 + off[0]] - end_pt
                t = t / np.linalg.norm(t)
                bp = dom.nearest_boundary_point(end_pt)
                nu = -_shape_sdist_grad(dom.shape, dom.params, bp[None, :])[0]
                tau = np.array([-nu[1], nu[0]])
                angles.append(float(np.arccos(min(1.0, abs(float(t @ tau))))))
    return InterfaceCurve(polylines=polylines, seg_mid=mids, seg_len=lens,
                          seg_normal=normals, orthogonality_angles=angles)


def interface_pairing(curve: InterfaceCurve, X: TestVectorField) -> float:
    """Polyline quadrature of X . nu_M over the interface."""
    xv = np.asarray(X.evaluator(curve.seg_mid), dtype=float)
    return float(np.sum(curve.seg_len * np.sum(xv * curve.seg_normal, axis=1)))


def _zero_crossing_pairing_1d(sol: Solution, X: TestVectorField) -> float:
    """Counting-measure analogue of the interface pairing in 1D: the sum of
    X at the zero crossings, signed by the slope ({u<0} -> {u>0})."""
    dom = sol.field.dom
    u = sol.field.values
    x = dom.points[:, 0]
    total = 0.0
    for i in np.flatnonzero(np.diff(np.sign(u)) != 0):
        t = u[i] / (u[i] - u[i + 1])
        xc = x[i] + t * (x[i + 1] - x[i])
        val = float(np.asarray(X.evaluator(np.array([[xc]])))[0, 0])
        total += val * (1.0 if u[i + 1] > u[i] else -1.0)
    return total


def free_boundary_test(V: DiscreteVarifold, sol: Solution, well: DoubleWell,
                       h0: float, X: TestVectorField,
                       curve: InterfaceCurve | None = None):
    """Check delta V(X) = -(2 lam / h0) * int_M X . nu_M for tangential X.

    In 2D the pairing uses curve, the extract_interface(sol) result, which is
    extracted here when not given.  Returns (lhs, rhs, deficit).
    """
    if not X.tangential_on_boundary:
        raise NotTangential("X is not tangential along the boundary")
    lhs = first_variation(V, X)
    if not (sol.field.values.min() < 0.0 < sol.field.values.max()):
        rhs = 0.0
    elif V.dom.dim == 1:
        rhs = -(2.0 * sol.lam / h0) * _zero_crossing_pairing_1d(sol, X)
    else:
        if curve is None:
            curve = extract_interface(sol)
        rhs = -(2.0 * sol.lam / h0) * interface_pairing(curve, X)
    return lhs, rhs, abs(lhs - rhs)


def first_variation_bound_constant(V: DiscreteVarifold, sol: Solution,
                                   h0: float, X: TestVectorField,
                                   curve: InterfaceCurve | None = None) -> float:
    """Fitted C in |h0 dV(X) + 2 lam int_M X . nu_M| <= C sup |X . nu|.

    curve is the extract_interface(sol) result, extracted here when not given.
    """
    lhs = h0 * first_variation(V, X)
    if sol.field.values.min() < 0.0 < sol.field.values.max():
        if curve is None:
            curve = extract_interface(sol)
        lhs += 2.0 * sol.lam * interface_pairing(curve, X)
    sup = float(np.abs(np.sum(X.boundary_values * V.dom.boundary.normals,
                              axis=1)).max(initial=0.0))
    if sup <= 1e-14:
        return 0.0 if abs(lhs) <= 1e-10 else math.inf
    return abs(lhs) / sup


@dataclass(frozen=True)
class DensityCurve:
    center: np.ndarray
    radii: np.ndarray
    theta: np.ndarray

    def plateau(self, slope_tol: float = 0.2) -> float:
        return plateau_value(self.radii, self.theta, slope_tol)


def density_estimate(V: DiscreteVarifold, x, radii) -> DensityCurve:
    """Theta-hat(r) = mass(B_r(x)) / (omega_{n-1} r^{n-1}); the same full-ball
    normalization is used for boundary-centered points."""
    x = np.asarray(x, dtype=float)
    radii = np.sort(np.asarray(radii, dtype=float))
    if radii.size == 0:
        raise RadiusTooSmall(f"no density radius at {x}: the ball floor "
                             "exceeds the room to the boundary")
    if np.any(x - radii[-1] < V.dom.u_lo) or np.any(x + radii[-1] > V.dom.u_hi):
        raise BallEscapesU("density ball leaves the padding box U")
    n = V.dom.dim
    om = unit_ball_volume(n - 1)
    live = ~V.zero_flag
    dist = np.linalg.norm(V.points[live] - x[None, :], axis=1)
    w = V.weights[live]
    theta = np.array([float(w[dist < r].sum()) / (om * r ** (n - 1))
                      for r in radii])
    return DensityCurve(center=x, radii=radii, theta=theta)


@dataclass(frozen=True)
class IntegralityRow:
    point: np.ndarray
    plateau: float
    nearest_integer: int
    deviation: float


@dataclass(frozen=True)
class IntegralityReport:
    rows: list
    max_deviation: float


def sample_interface_nodes(sol: Solution, count: int,
                           rng: np.random.Generator,
                           interior_margin: float | None = None) -> np.ndarray:
    """Interior nodes with |u| <= 0.5, at least interior_margin from the
    boundary; returns their positions."""
    dom = sol.field.dom
    if interior_margin is None:
        interior_margin = 4.0 * dom.cell_size
    d = dom.distance_to_boundary(dom.points)
    cand = np.flatnonzero((np.abs(sol.field.values) <= 0.5)
                          & (d > interior_margin))
    if cand.size == 0:
        raise NoInterface("no interface nodes found (|u| <= 0.5)")
    pick = rng.choice(cand, size=min(count, cand.size), replace=False)
    return dom.points[pick]


def integrality_check(V: DiscreteVarifold, sample_points, radii=None,
                      slope_tol: float = 0.2) -> IntegralityReport:
    """Per sample point: plateau of Theta-hat, nearest integer, deviation."""
    rows = []
    for p in np.atleast_2d(np.asarray(sample_points, dtype=float)):
        if radii is None:
            rr = radius_ladder(V.dom, V.epsilon, p)
        else:
            rr = np.asarray(radii, dtype=float)
        val = density_estimate(V, p, rr).plateau(slope_tol)
        rows.append(IntegralityRow(point=p, plateau=val,
                                   nearest_integer=int(round(val)),
                                   deviation=abs(val - round(val))))
    return IntegralityReport(rows=rows,
                             max_deviation=max(r.deviation for r in rows))
