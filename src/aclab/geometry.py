"""Discretized domains: cut-cell Cartesian grids with analytic boundary geometry.

Supported shapes (all with closed-form distance and normals): interval,
rectangle, disk, annulus, half-disk.  A Domain is immutable after
construction; every query here is read-only and safe to run concurrently.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import BallEscapesU, InvalidShapeParams, RadiusTooSmall

SHAPES_1D = ("interval",)
SHAPES_2D = ("rectangle", "disk", "annulus", "half-disk")

# cells with an inside-volume fraction below this are dropped from the
# active set (sliver guard for the solver's conditioning)
SLIVER_FRACTION = 0.01
# per-axis subsample count for cut-cell volume fractions
SUBSAMPLES = 16


@dataclass(frozen=True)
class BoundarySamples:
    """Quadrature samples along the analytic boundary.

    points are positions on the exact boundary, normals the outward unit
    normals there, weights the arclength shares (counting weights in 1D),
    node the nearest active grid node used to evaluate node-indexed fields.
    """

    points: np.ndarray
    normals: np.ndarray
    weights: np.ndarray
    node: np.ndarray


@dataclass(frozen=True)
class Domain:
    dim: int
    shape: str
    params: tuple
    n_cells: tuple
    cell_size: float
    origin: np.ndarray
    grid_shape: tuple
    points: np.ndarray            # (N, dim) active cell centers
    cut_cell_weights: np.ndarray  # (N,) volume quadrature weights
    interior_mask: np.ndarray     # (N,) True where the center lies inside
    grid_index: np.ndarray        # (N,) flat grid index per active node
    active_of_grid: np.ndarray    # (prod(grid),) active index or -1
    neighbors: np.ndarray         # (N, dim, 2) active index of -/+ neighbor or -1
    boundary: BoundarySamples
    kappa0: float
    u_lo: np.ndarray              # padding box U
    u_hi: np.ndarray

    @property
    def n_nodes(self):
        return self.points.shape[0]

    @property
    def volume(self):
        return float(self.cut_cell_weights.sum())

    @property
    def extent(self):
        """Maximum side of the bounding box of the domain."""
        return float(max(hi - lo for lo, hi in zip(self._box_lo(), self._box_hi())))

    def _box_lo(self):
        return self.origin

    def _box_hi(self):
        return self.origin + np.asarray(self.n_cells) * self.cell_size

    def shrunk_u_box(self, factor=0.9):
        """The padding box U scaled by factor about its center."""
        c = 0.5 * (self.u_lo + self.u_hi)
        half = 0.5 * factor * (self.u_hi - self.u_lo)
        return c - half, c + half

    def inside(self, pts):
        """Exact analytic indicator of the open domain."""
        return _shape_inside(self.shape, self.params, np.atleast_2d(pts))

    def distance_to_boundary(self, pts):
        """Signed distance to the boundary (positive inside)."""
        return _shape_sdist(self.shape, self.params, np.atleast_2d(pts))

    def nearest_boundary_point(self, p):
        return _nearest_boundary_point(self.shape, self.params, np.asarray(p, float))

    def to_descriptor(self):
        """JSON-serializable descriptor; masks and weights are recomputed."""
        return {"shape": self.shape, "params": list(self.params),
                "cells": list(self.n_cells)}


@dataclass(frozen=True)
class SignedDistance:
    """Per-node signed distance (positive inside) and its analytic gradient."""

    values: np.ndarray
    gradient: np.ndarray


@dataclass(frozen=True)
class BallRestriction:
    """Quadrature weights over B_r(center) intersected with the domain."""

    center: np.ndarray
    radius: float
    node_index: np.ndarray
    node_weights: np.ndarray
    boundary_flag: bool

    @property
    def volume(self):
        return float(self.node_weights.sum())


# ---------------------------------------------------------------------------
# analytic shape geometry
# ---------------------------------------------------------------------------

def _check_params(shape, params):
    p = tuple(float(v) for v in params)
    if any(v <= 0.0 for v in p):
        raise InvalidShapeParams(f"{shape}: parameters must be positive, got {p}")
    if shape == "interval":
        if len(p) != 1:
            raise InvalidShapeParams("interval expects one length parameter")
    elif shape == "rectangle":
        if len(p) != 2:
            raise InvalidShapeParams("rectangle expects two side lengths")
    elif shape in ("disk", "half-disk"):
        if len(p) != 1:
            raise InvalidShapeParams(f"{shape} expects one radius parameter")
    elif shape == "annulus":
        if len(p) != 2:
            raise InvalidShapeParams("annulus expects inner and outer radii")
        if p[0] >= p[1]:
            raise InvalidShapeParams("annulus inner radius must be < outer")
    else:
        raise InvalidShapeParams(f"unknown shape {shape!r}")
    return p


def _shape_inside(shape, params, pts):
    if shape == "interval":
        x = pts[:, 0]
        return (x > 0.0) & (x < params[0])
    if shape == "rectangle":
        x, y = pts[:, 0], pts[:, 1]
        return (x > 0.0) & (x < params[0]) & (y > 0.0) & (y < params[1])
    rho = np.hypot(pts[:, 0], pts[:, 1])
    if shape == "disk":
        return rho < params[0]
    if shape == "annulus":
        return (rho > params[0]) & (rho < params[1])
    # half-disk: upper half of the disk of radius R
    return (rho < params[0]) & (pts[:, 1] > 0.0)


def _shape_sdist(shape, params, pts):
    if shape == "interval":
        x = pts[:, 0]
        return np.minimum(x, params[0] - x)
    if shape == "rectangle":
        x, y = pts[:, 0], pts[:, 1]
        return np.minimum.reduce([x, params[0] - x, y, params[1] - y])
    rho = np.hypot(pts[:, 0], pts[:, 1])
    if shape == "disk":
        return params[0] - rho
    if shape == "annulus":
        return np.minimum(params[1] - rho, rho - params[0])
    return np.minimum(params[0] - rho, pts[:, 1])


def _shape_sdist_grad(shape, params, pts):
    """Gradient of the signed distance (unit vector of the active branch)."""
    n = pts.shape[0]
    if shape == "interval":
        g = np.where(pts[:, 0] < 0.5 * params[0], 1.0, -1.0)
        return g[:, None]
    g = np.zeros_like(pts)
    if shape == "rectangle":
        branches = np.stack([pts[:, 0], params[0] - pts[:, 0],
                             pts[:, 1], params[1] - pts[:, 1]])
        k = np.argmin(branches, axis=0)
        dirs = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        return dirs[k]
    rho = np.hypot(pts[:, 0], pts[:, 1])
    safe = rho > 1e-12
    phat = np.zeros_like(pts)
    phat[safe] = pts[safe] / rho[safe, None]
    phat[~safe] = np.array([1.0, 0.0])  # medial point; any unit vector
    if shape == "disk":
        return -phat
    if shape == "annulus":
        outer = (params[1] - rho) <= (rho - params[0])
        g[outer] = -phat[outer]
        g[~outer] = phat[~outer]
        return g
    # half-disk
    arc = (params[0] - rho) <= pts[:, 1]
    g[arc] = -phat[arc]
    g[~arc] = np.array([0.0, 1.0])
    return g


def _nearest_boundary_point(shape, params, p):
    pts = np.atleast_2d(p)
    if shape == "interval":
        x = pts[0, 0]
        return np.array([0.0]) if x < 0.5 * params[0] else np.array([params[0]])
    d = _shape_sdist(shape, params, pts)[0]
    g = _shape_sdist_grad(shape, params, pts)[0]
    # walking distance d against the inward gradient lands on the boundary
    return pts[0] - d * g


def _shape_kappa0(shape, params):
    if shape in ("interval", "rectangle"):
        return 0.0
    if shape == "disk" or shape == "half-disk":
        return 1.0 / params[0]
    return 1.0 / params[0]  # annulus: inner radius is the smaller one


def _boundary_pieces(shape, params):
    """Parametrized smooth boundary pieces as (length, point_fn, normal_fn)."""
    if shape == "interval":
        L = params[0]
        return [
            (None, np.array([[0.0]]), np.array([[-1.0]])),
            (None, np.array([[L]]), np.array([[1.0]])),
        ]
    pieces = []
    if shape == "rectangle":
        Lx, Ly = params

        def edge(p0, p1, nrm):
            p0, p1 = np.asarray(p0, float), np.asarray(p1, float)
            ln = float(np.linalg.norm(p1 - p0))
            return (ln,
                    lambda t, p0=p0, p1=p1: p0 + t[:, None] * (p1 - p0),
                    lambda t, nrm=np.asarray(nrm, float): np.tile(nrm, (len(t), 1)))

        pieces = [edge((0, 0), (Lx, 0), (0, -1)), edge((Lx, 0), (Lx, Ly), (1, 0)),
                  edge((Lx, Ly), (0, Ly), (0, 1)), edge((0, Ly), (0, 0), (-1, 0))]
        return pieces

    def circle(R, sign, t0=0.0, t1=2.0 * math.pi):
        ln = R * (t1 - t0)
        return (ln,
                lambda t, R=R, t0=t0, t1=t1: np.stack(
                    [R * np.cos(t0 + t * (t1 - t0)), R * np.sin(t0 + t * (t1 - t0))], axis=1),
                lambda t, sign=sign, t0=t0, t1=t1: sign * np.stack(
                    [np.cos(t0 + t * (t1 - t0)), np.sin(t0 + t * (t1 - t0))], axis=1))

    if shape == "disk":
        pieces = [circle(params[0], +1.0)]
    elif shape == "annulus":
        pieces = [circle(params[1], +1.0), circle(params[0], -1.0)]
    else:  # half-disk: upper arc plus the flat diameter
        R = params[0]
        pieces = [circle(R, +1.0, 0.0, math.pi),
                  (2.0 * R,
                   lambda t, R=R: np.stack([-R + 2.0 * R * t, np.zeros_like(t)], axis=1),
                   lambda t: np.tile(np.array([0.0, -1.0]), (len(t), 1)))]
    return pieces


# ---------------------------------------------------------------------------
# domain construction
# ---------------------------------------------------------------------------

def _grid_box(shape, params):
    if shape == "interval":
        return np.array([0.0]), np.array([params[0]])
    if shape == "rectangle":
        return np.zeros(2), np.array(params)
    if shape == "disk":
        R = params[0]
        return np.array([-R, -R]), np.array([R, R])
    if shape == "annulus":
        R = params[1]
        return np.array([-R, -R]), np.array([R, R])
    R = params[0]
    return np.array([-R, 0.0]), np.array([R, R])


def _normalize_cells(shape, params, n_cells, lo, hi):
    extent = hi - lo
    cells = (int(n_cells),) if np.isscalar(n_cells) \
        else tuple(int(c) for c in np.atleast_1d(n_cells))
    if len(cells) == 1 and len(extent) > 1:
        # single count sets the x-axis; other axes follow the uniform spacing
        h = extent[0] / cells[0]
        cells = tuple(int(round(e / h)) for e in extent)
    if len(cells) != len(extent):
        raise InvalidShapeParams(
            f"{shape}: expected {len(extent)} cell counts, got {len(cells)}")
    if any(c < 16 for c in cells):
        raise InvalidShapeParams("need at least 16 cells per axis")
    hs = extent / np.asarray(cells)
    if np.ptp(hs) > 1e-12 * hs[0]:
        raise InvalidShapeParams(
            f"cell counts {cells} give non-uniform spacing {tuple(hs)}")
    return cells, float(hs[0])


def _subsample_offsets(dim, h):
    k = SUBSAMPLES
    off = ((np.arange(k) + 0.5) / k - 0.5) * h
    if dim == 1:
        return off[:, None]
    ox, oy = np.meshgrid(off, off, indexing="ij")
    return np.stack([ox.ravel(), oy.ravel()], axis=1)


def build_domain(shape: str, params, n_cells) -> Domain:
    """Build the cut-cell discretization of a supported shape.

    Cells fully inside keep the full volume weight h^dim; cells cut by the
    boundary get a subsampled fraction; slivers below SLIVER_FRACTION are
    dropped from the active set.
    """
    params = _check_params(shape, params)
    dim = 1 if shape in SHAPES_1D else 2
    lo, hi = _grid_box(shape, params)
    cells, h = _normalize_cells(shape, params, n_cells, lo, hi)

    axes = [lo[a] + (np.arange(cells[a]) + 0.5) * h for a in range(dim)]
    if dim == 1:
        pts = axes[0][:, None]
        grid_shape = (cells[0],)
    else:
        X, Y = np.meshgrid(axes[0], axes[1], indexing="ij")
        pts = np.stack([X.ravel(), Y.ravel()], axis=1)
        grid_shape = (cells[0], cells[1])

    d = _shape_sdist(shape, params, pts)
    circum = 0.5 * h * math.sqrt(dim)
    frac = np.where(d >= circum, 1.0, np.where(d <= -circum, 0.0, np.nan))
    cut = np.isnan(frac)
    if cut.any():
        sub = _subsample_offsets(dim, h)
        probes = pts[cut][:, None, :] + sub[None, :, :]
        ins = _shape_inside(shape, params, probes.reshape(-1, dim))
        frac[cut] = ins.reshape(cut.sum(), -1).mean(axis=1)
    frac[frac < SLIVER_FRACTION] = 0.0

    active = frac > 0.0
    n_active = int(active.sum())
    active_of_grid = np.full(pts.shape[0], -1, dtype=np.int64)
    active_of_grid[active] = np.arange(n_active)
    grid_index = np.flatnonzero(active)
    weights = frac[active] * h**dim
    apts = pts[active]

    # neighbor table (active indices, -1 where the neighbor is missing)
    nbr = np.full((n_active, dim, 2), -1, dtype=np.int64)
    strides = (1,) if dim == 1 else (grid_shape[1], 1)
    coords = np.unravel_index(grid_index, grid_shape)
    for a in range(dim):
        for s, side in ((-1, 0), (+1, 1)):
            ok = (coords[a] + s >= 0) & (coords[a] + s < grid_shape[a])
            gi = grid_index[ok] + s * strides[a]
            nbr[ok, a, side] = active_of_grid[gi]

    # boundary quadrature samples
    bp, bn, bw = [], [], []
    for piece in _boundary_pieces(shape, params):
        if piece[0] is None:
            bp.append(piece[1]); bn.append(piece[2]); bw.append(np.array([1.0]))
            continue
        ln, point_fn, normal_fn = piece
        k = max(8, int(round(ln / h)))
        t = (np.arange(k) + 0.5) / k
        bp.append(point_fn(t)); bn.append(normal_fn(t))
        bw.append(np.full(k, ln / k))
    bp = np.concatenate(bp); bn = np.concatenate(bn); bw = np.concatenate(bw)
    tree = cKDTree(apts)
    _, bnode = tree.query(bp)

    margin = 0.5 * float(np.max(hi - lo))
    return Domain(
        dim=dim, shape=shape, params=params, n_cells=cells, cell_size=h,
        origin=lo, grid_shape=grid_shape, points=apts,
        cut_cell_weights=weights,
        interior_mask=_shape_inside(shape, params, apts),
        grid_index=grid_index,
        active_of_grid=active_of_grid, neighbors=nbr,
        boundary=BoundarySamples(points=bp, normals=bn, weights=bw,
                                 node=bnode.astype(np.int64)),
        kappa0=_shape_kappa0(shape, params),
        u_lo=lo - margin, u_hi=hi + margin,
    )


def domain_from_descriptor(desc) -> Domain:
    return build_domain(desc["shape"], desc["params"], desc["cells"])


def signed_distance(dom: Domain) -> SignedDistance:
    """Exact analytic signed distance and gradient at the active nodes."""
    return SignedDistance(
        values=_shape_sdist(dom.shape, dom.params, dom.points),
        gradient=_shape_sdist_grad(dom.shape, dom.params, dom.points),
    )


def ball_restriction(dom: Domain, x, r: float) -> BallRestriction:
    """Quadrature weights for integrals over B_r(x) intersected with the domain.

    Centers within h/2 of the boundary are snapped to the nearest boundary
    point and flagged (the monotonicity formulas only cover balls that are
    fully interior or exactly boundary-centered).
    """
    return next(ball_restrictions(dom, x, (r,)))


def ball_restrictions(dom: Domain, x, radii):
    """Yield ball_restriction(dom, x, r) for each r in radii, in order.

    The center is snapped and the node distances are computed once, so a
    ladder of radii costs one distance pass.
    """
    h = dom.cell_size
    x = np.asarray(x, dtype=float)
    dist_b = float(dom.distance_to_boundary(x[None, :])[0])
    boundary_flag = abs(dist_b) < 0.5 * h
    if boundary_flag:
        x = dom.nearest_boundary_point(x)
    s = np.linalg.norm(dom.points - x[None, :], axis=1)
    for r in radii:
        if r <= 2.0 * h:
            raise RadiusTooSmall(f"radius {r} must exceed 2h = {2 * h}")
        if np.any(x - r < dom.u_lo) or np.any(x + r > dom.u_hi):
            raise BallEscapesU(
                f"ball of radius {r} at {x} leaves the padding box U")
        idx = np.flatnonzero(s < r + h)
        # clipped-linear fraction of each cell inside the sphere: smooth and
        # monotone in r, which the monotonicity scans difference in rho
        frac = np.clip(0.5 + (r - s[idx]) / h, 0.0, 1.0)
        w = frac * dom.cut_cell_weights[idx]
        keep = w > 0.0
        yield BallRestriction(center=x, radius=float(r), node_index=idx[keep],
                              node_weights=w[keep],
                              boundary_flag=boundary_flag)


def boundary_integral(dom: Domain, f, within_box=None) -> float:
    """Sum f(node) * surface_weight over the boundary samples.

    Approximates the boundary integral of a node-indexed field; within_box
    optionally restricts the samples to an axis-aligned box (lo, hi).
    """
    b = dom.boundary
    vals = np.asarray(f)[b.node]
    w = b.weights
    if within_box is not None:
        lo, hi = within_box
        keep = np.all((b.points >= lo) & (b.points <= hi), axis=1)
        return float(np.sum(vals[keep] * w[keep]))
    return float(np.sum(vals * w))
