"""Discrete varifold of a solution: mass, first variation, density ratios,
free-boundary relation and integrality diagnostics.

Construction is one pass of whole-array numpy operations over the nodes,
in one thread; per-node vector rows (norms, dot products, the trace and the
quadratic form of a test field's Jacobian) go through the row kernels of
geometry.  Interface corners take their coordinates from the grid axes
the nodes sit on.  All queries are read-only.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diagnostics import (OMEGA, TestVectorField, density_fields,
                          field_gradient, plateau_value, radius_ladder)
from .errors import NoInterface, NoPlateau, NotTangential, RadiusTooSmall
from .geometry import (Domain, grid_axes, kept, require_ball_in_u,
                       row_distance, row_dot, row_form, row_norm, row_trace,
                       signed_distance)
from .potential import DoubleWell
from .solver import Solution
from .tables import g17_texts, write_csv

# |grad u| below this multiple of 1/eps gets the zero-normal flag; separates
# phase plateaus from transition layers on the natural gradient scale
GRADIENT_FLOOR = 1e-8


@dataclass(frozen=True)
class DiscreteVarifold:
    """One atom per active node, of weight cell_weight * e / h0, with unit
    normals."""

    dom: Domain
    weights: np.ndarray     # (N,)
    normals: np.ndarray     # (N, dim); zero rows where flagged
    zero_flag: np.ndarray   # (N,) bool
    epsilon: float

    @property
    def points(self):
        """Atom positions: the active nodes."""
        return self.dom.points

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
    """One atom per active node, the varifold of the energy measure over
    the whole domain: nodes of zero energy density give atoms of weight 0.
    Normals follow the grad u / |grad u| convention with a gradient floor
    of 1e-8 / eps; below it an atom gets the zero-normal flag."""
    f = sol.field
    dom = f.dom
    w = dom.cut_cell_weights * density_fields(f, well).e / h0
    g = field_gradient(f)
    gn = row_norm(g)
    zero = gn <= GRADIENT_FLOOR / f.epsilon
    normals = np.zeros_like(g)
    normals[~zero] = g[~zero] / gn[~zero, None]
    return DiscreteVarifold(dom=dom, weights=w, normals=normals,
                            zero_flag=zero, epsilon=f.epsilon)


@kept
def _node_texts(dom: Domain) -> tuple:
    """Per axis, the %.17g texts of the active nodes' coordinates."""
    return tuple(g17_texts(axis) for axis in dom.points.T)


def export_atoms(V: DiscreteVarifold, path):
    """Write the atoms as CSV: position, weight, normal, zero flag.

    Each atom sits on its node, whose coordinate texts are formatted once
    per domain; weights and normals are formatted once per distinct value
    (g17_texts).
    """
    dom = V.dom
    coords = ("x", "y")[:dom.dim]
    write_csv(path, coords + ("weight",) + tuple("n" + c for c in coords)
              + ("zero_flag",),
              [*_node_texts(dom), *map(g17_texts, (V.weights, *V.normals.T)),
               np.where(V.zero_flag, "1", "0").tolist()])


def first_variation(V: DiscreteVarifold, X: TestVectorField) -> float:
    """delta V(X) = sum of weight * <grad X, I - nu x nu> over the atoms."""
    live = ~V.zero_flag
    J = X.jacobian[live]
    nu = V.normals[live]
    divX = row_trace(J)
    nn = row_form(J, nu, nu)
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


def _cell_segments(U, axes):
    """Marching-squares segments of the zero level set of the nodal grid U,
    whose node (i, j) sits at (axes[0][i], axes[1][j]).

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
    ax, ay = axes
    cx = np.stack([ax[i + di] for di, _ in _CELL_CORNERS], 1)
    cy = np.stack([ay[j + dj] for _, dj in _CELL_CORNERS], 1)
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
    nx, ny = dom.n_cells
    U = np.full(nx * ny, np.nan)
    U[dom.grid_index] = f.values
    U = U.reshape(nx, ny)
    h = dom.cell_size
    seg_a, seg_b = _cell_segments(U, grid_axes(dom))
    if seg_a.shape[0] == 0:
        raise NoInterface("no zero level set segments found")

    grad = field_gradient(f)
    mids = 0.5 * (seg_a + seg_b)
    dirs = seg_b - seg_a
    lens = row_norm(dirs)
    ok = lens > 1e-14
    mids, dirs, lens = mids[ok], dirs[ok], lens[ok]
    tangents = dirs / lens[:, None]
    normals = np.stack([-tangents[:, 1], tangents[:, 0]], axis=1)
    # orient along grad u ({u<0} -> {u>0}) using the nearest node's gradient;
    # each midpoint rounds to an active corner of its marching-squares cell
    cell = np.round((mids - dom.origin[None, :]) / h - 0.5).astype(int)
    near = dom.active_of_grid[cell[:, 0] * ny + cell[:, 1]]
    flip = row_dot(normals, grad[near]) < 0.0
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
                nu = -dom.distance_gradient(bp)[0]
                tau = np.array([-nu[1], nu[0]])
                angles.append(float(np.arccos(min(1.0, abs(float(t @ tau))))))
    return InterfaceCurve(polylines=polylines, seg_mid=mids, seg_len=lens,
                          seg_normal=normals, orthogonality_angles=angles)


def interface_pairing(curve: InterfaceCurve, X: TestVectorField) -> float:
    """Polyline quadrature of X . nu_M over the interface."""
    xv = np.asarray(X.evaluator(curve.seg_mid), dtype=float)
    return float(np.sum(curve.seg_len * row_dot(xv, curve.seg_normal)))


def free_boundary_test(V: DiscreteVarifold, sol: Solution, h0: float,
                       X: TestVectorField, curve: InterfaceCurve):
    """Check delta V(X) = -(2 lam / h0) * int_M X . nu_M for tangential X.

    sol is a 2D solution with a sign change and curve its
    extract_interface(sol) result.  Returns (lhs, rhs, deficit).
    """
    if not X.tangential_on_boundary:
        raise NotTangential("X is not tangential along the boundary")
    lhs = first_variation(V, X)
    rhs = -(2.0 * sol.lam / h0) * interface_pairing(curve, X)
    return lhs, rhs, abs(lhs - rhs)


def first_variation_bound_constant(V: DiscreteVarifold, sol: Solution,
                                   h0: float, X: TestVectorField,
                                   curve: InterfaceCurve) -> float:
    """Fitted C in |h0 dV(X) + 2 lam int_M X . nu_M| <= C sup |X . nu|.

    sol is a 2D solution with a sign change and curve its
    extract_interface(sol) result.
    """
    lhs = h0 * first_variation(V, X)
    lhs += 2.0 * sol.lam * interface_pairing(curve, X)
    if X.normal_sup <= 1e-14:
        return 0.0 if abs(lhs) <= 1e-10 else math.inf
    return abs(lhs) / X.normal_sup


@dataclass(frozen=True)
class DensityCurve:
    radii: np.ndarray
    theta: np.ndarray

    def plateau(self) -> float:
        return plateau_value(self.radii, self.theta)


def density_estimate(V: DiscreteVarifold, x, radii) -> DensityCurve:
    """Theta-hat(r) = mass(B_r(x)) / (omega_{n-1} r^{n-1}); the same full-ball
    normalization is used for boundary-centered points."""
    return _density_curve(V.dom, _live_atoms(V), x, radii)


def _live_atoms(V: DiscreteVarifold):
    """(points, weights) of the atoms with a well-defined normal."""
    live = ~V.zero_flag
    return V.points[live], V.weights[live]


def _density_curve(dom: Domain, atoms, x, radii) -> DensityCurve:
    """density_estimate over the live atoms (points, weights): one distance
    pass, cut to the atoms the largest ball reaches, and one comparison
    with the whole ladder; each radius then adds the weights of its ball in
    atom order, as np.sum does."""
    x = np.asarray(x, dtype=float)
    radii = np.sort(np.asarray(radii, dtype=float))
    if radii.size == 0:
        raise RadiusTooSmall(f"no density radius at {x}: the ball floor "
                             "exceeds the room to the boundary")
    require_ball_in_u(dom, x, radii[-1])
    n = dom.dim
    om = OMEGA[n - 1]
    points, weights = atoms
    dist = row_distance(points, x)
    near = np.flatnonzero(dist < radii[-1])
    w = weights[near]
    mass = [np.add.reduce(w[inside])
            for inside in dist[near] < radii[:, None]]
    return DensityCurve(radii=radii, theta=mass / (om * radii ** (n - 1)))


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
                           rng: np.random.Generator) -> np.ndarray:
    """Interior nodes with |u| <= 0.5, farther from the boundary than the
    interior margin min(0.15 extent, half the largest distance to the
    boundary); returns their positions."""
    dom = sol.field.dom
    d = signed_distance(dom)
    margin = min(0.15 * dom.extent, 0.5 * float(d.max()))
    band = np.abs(sol.field.values) <= 0.5
    cand = np.flatnonzero(band & (d > margin))
    if cand.size == 0:
        raise NoInterface(f"no interface nodes (|u| <= 0.5) beyond the "
                          f"interior margin {margin:.3g}: "
                          f"{np.count_nonzero(band)} lie within it")
    pick = rng.choice(cand, size=min(count, cand.size), replace=False)
    return dom.points[pick]


def integrality_check(V: DiscreteVarifold, sample_points) -> IntegralityReport:
    """Per sample point: plateau of Theta-hat over its radius_ladder, nearest
    integer, deviation.  A NoPlateau names the point."""
    atoms = _live_atoms(V)
    rows = []
    for p in np.atleast_2d(np.asarray(sample_points, dtype=float)):
        rr = radius_ladder(V.dom, V.epsilon, p)
        try:
            val = _density_curve(V.dom, atoms, p, rr).plateau()
        except NoPlateau as exc:
            raise NoPlateau(f"{exc} at {p}") from exc
        rows.append(IntegralityRow(point=p, plateau=val,
                                   nearest_integer=int(round(val)),
                                   deviation=abs(val - round(val))))
    return IntegralityReport(rows=rows,
                             max_deviation=max(r.deviation for r in rows))
