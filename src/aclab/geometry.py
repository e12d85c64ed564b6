"""Discretized domains: cut-cell Cartesian grids with analytic boundary geometry.

Supported shapes (all with closed-form distance and normals): interval,
rectangle, disk, annulus, half-disk.  The signed distance is the one
statement of each shape: a point is inside exactly when it is positive,
and every shape snaps a point to the boundary by the same walk along its
gradient.  Nodes sit symmetrically about the centre of the grid box, whose
cell counts are Domain.n_cells.  A Domain is immutable after construction;
data derived from its grid is built once and kept in its cache, read-only.
"""
from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import BallEscapesU, InvalidShapeParams, RadiusTooSmall

SHAPES_1D = ("interval",)
SHAPES_2D = ("rectangle", "disk", "annulus", "half-disk")

# cells with an inside-volume fraction below this are dropped from the
# active set (sliver guard for the solver's conditioning)
SLIVER_FRACTION = 0.01
# per-axis subsample count for cut-cell volume fractions
SUBSAMPLES = 16
# cut cells whose subsamples are probed together
CUT_BLOCK = 256
# a point whose signed distance is within this many ulps of the domain scale
# is on the boundary: the walk of nearest_boundary_point lands within about
# one (1.08 at most over 2M random points per shape)
SNAP_TOLERANCE = 8 * np.finfo(float).eps


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


def read_only(value):
    """Make every array value holds read-only and return value: a numpy
    array, the arrays of a sparse matrix, and recursively the items of a
    tuple and the fields of a dataclass."""
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    elif sp.issparse(value):
        for a in (value.data, value.indices, value.indptr):
            a.flags.writeable = False
    elif isinstance(value, tuple):
        for v in value:
            read_only(v)
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            read_only(getattr(value, f.name))
    return value


def kept(build):
    """Decorator: build(obj, *args) is computed on the first call for obj
    and args, made read-only and kept in obj.cache under (build, *args) for
    as long as obj lives.  obj is a Domain or a Field; args must hash."""

    @functools.wraps(build)
    def get(obj, *args):
        key = (build, *args)
        if key not in obj.cache:
            obj.cache[key] = read_only(build(obj, *args))
        return obj.cache[key]

    return get


# ---------------------------------------------------------------------------
# per-node row kernels
# ---------------------------------------------------------------------------
# Per-node vectors and Jacobians are (N, dim) and (N, dim, dim) arrays with
# dim <= 2.  numpy reduces such short trailing axes on its slow strided path;
# these kernels add the terms column by column instead, in numpy's order for
# C-ordered rows and from its 0.0 start, so they give numpy's bits, signed
# zeros included.  A square is never -0.0, so sums of squares need no start.

def row_dot(a, b):
    """np.sum(a * b, axis=1)."""
    out = a[:, 0] * b[:, 0]
    out += 0.0
    for k in range(1, a.shape[1]):
        out += a[:, k] * b[:, k]
    return out


def row_norm(a):
    """np.linalg.norm(a, axis=1) of (N, dim) rows; of (N, dim, dim) ones,
    the Frobenius norm np.sqrt(np.sum(a * a, axis=(1, 2)))."""
    columns = [a[(slice(None),) + k] for k in np.ndindex(a.shape[1:])]
    out = columns[0] * columns[0]
    for c in columns[1:]:
        out += c * c
    return np.sqrt(out, out=out)


def row_sq_distance(points, x):
    """np.sum((points - x) ** 2, axis=1)."""
    out = points[:, 0] - x[0]
    out *= out
    for k in range(1, points.shape[1]):
        d = points[:, k] - x[k]
        d *= d
        out += d
    return out


def row_distance(points, x):
    """np.linalg.norm(points - x, axis=1)."""
    out = row_sq_distance(points, x)
    return np.sqrt(out, out=out)


def row_trace(J):
    """np.trace(J, axis1=1, axis2=2)."""
    out = J[:, 0, 0] + 0.0
    for k in range(1, J.shape[1]):
        out += J[:, k, k]
    return out


def row_form(J, u, v):
    """np.einsum("iab,ia,ib->i", J, u, v): the terms t_ab = (J_ab u_a) v_b
    added from 0.0 in row-major (a, b) order; in 2D, where numpy's einsum
    keeps (a, b) innermost, as it adds them there, 0.0 + ((t00 + t01) +
    (t10 + t11)).  It does so on a single row, and on two rows when J is not
    C-contiguous (numpy 2.4, every layout of up to 12 rows checked)."""
    if J.shape[1] == 2 and (J.shape[0] == 1 or (
            J.shape[0] == 2 and not J.flags.c_contiguous)):
        t = [J[:, a, b] * u[:, a] * v[:, b] for a in (0, 1) for b in (0, 1)]
        return 0.0 + ((t[0] + t[1]) + (t[2] + t[3]))
    out = np.zeros(J.shape[0])
    for a in range(J.shape[1]):
        for b in range(J.shape[2]):
            t = J[:, a, b] * u[:, a]
            t *= v[:, b]
            out += t
    return out


@dataclass(frozen=True)
class Domain:
    """The cut-cell discretization of one shape.  Data derived from its grid
    is built by functions decorated with kept and held in cache, read-only,
    for the domain's lifetime."""

    dim: int
    shape: str
    params: tuple
    n_cells: tuple
    cell_size: float
    origin: np.ndarray
    points: np.ndarray            # (N, dim) active cell centers
    cut_cell_weights: np.ndarray  # (N,) volume quadrature weights
    grid_index: np.ndarray        # (N,) flat grid index per active node
    active_of_grid: np.ndarray    # (prod(grid),) active index or -1
    neighbors: np.ndarray         # (N, dim, 2) active index of -/+ neighbor or -1
    boundary: BoundarySamples
    kappa0: float
    u_lo: np.ndarray              # padding box U
    u_hi: np.ndarray
    # the values of kept builders
    cache: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)

    @property
    def n_nodes(self):
        return self.points.shape[0]

    @property
    def extent(self):
        """Maximum side of the bounding box of the domain."""
        hi = self.origin + np.asarray(self.n_cells) * self.cell_size
        return float(np.max(hi - self.origin))

    def distance_to_boundary(self, pts):
        """Signed distance to the boundary (positive inside)."""
        return _shape_sdist(self.shape, self.params, np.atleast_2d(pts))

    def distance_gradient(self, pts):
        """Unit gradient of the signed distance: at a boundary point, the
        inward normal."""
        return _shape_sdist_grad(self.shape, self.params, np.atleast_2d(pts))

    def nearest_boundary_point(self, p):
        return _nearest_boundary_point(self.shape, self.params, np.asarray(p, float))

    def to_descriptor(self):
        """JSON-serializable descriptor, which a stored solution must match."""
        return {"shape": self.shape, "params": list(self.params),
                "cells": list(self.n_cells)}


# ---------------------------------------------------------------------------
# analytic shape geometry
# ---------------------------------------------------------------------------

def check_params(shape, params):
    """params as floats, checked against shape; InvalidShapeParams if not."""
    p = tuple(float(v) for v in params)
    if not all(0.0 < v < math.inf for v in p):
        raise InvalidShapeParams(
            f"{shape}: parameters must be finite and positive, got {p}")
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


def _shape_sdist(shape, params, pts):
    """Signed distance to the boundary, positive exactly inside: for finite
    floats a - b > 0 holds exactly when a > b."""
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
    d = _shape_sdist(shape, params, pts)[0]
    if abs(d) <= SNAP_TOLERANCE * max(params):
        # on the boundary up to rounding, as every snapped point is: keep it,
        # so that snapping is idempotent
        return pts[0].copy()
    g = _shape_sdist_grad(shape, params, pts)[0]
    # walking distance d against the inward gradient lands on the boundary
    return pts[0] - d * g


def _boundary_samples(shape, params, h):
    """Boundary quadrature samples as (points, normals, weights): each
    smooth piece of length l gets k = max(8, round(l / h)) samples at the
    midpoints of k equal arclength steps, each weighing l / k; the two end
    points of the interval weigh 1."""
    if shape == "interval":
        return (np.array([[0.0], [params[0]]]), np.array([[-1.0], [1.0]]),
                np.ones(2))

    def steps(length):
        k = max(8, int(round(length / h)))
        return (np.arange(k) + 0.5) / k, np.full(k, length / k)

    def segment(p0, p1, normal):
        p0, p1 = np.asarray(p0, float), np.asarray(p1, float)
        t, w = steps(float(np.linalg.norm(p1 - p0)))
        return (p0 + t[:, None] * (p1 - p0),
                np.tile(np.asarray(normal, float), (t.size, 1)), w)

    def arc(R, sign, angle=2.0 * math.pi):
        # counter-clockwise from angle 0; outward normals for sign +1
        t, w = steps(R * angle)
        c = np.stack([np.cos(t * angle), np.sin(t * angle)], axis=1)
        return R * c, sign * c, w

    if shape == "rectangle":
        Lx, Ly = params
        pieces = [segment((0, 0), (Lx, 0), (0, -1)),
                  segment((Lx, 0), (Lx, Ly), (1, 0)),
                  segment((Lx, Ly), (0, Ly), (0, 1)),
                  segment((0, Ly), (0, 0), (-1, 0))]
    elif shape == "disk":
        pieces = [arc(params[0], 1.0)]
    elif shape == "annulus":
        pieces = [arc(params[1], 1.0), arc(params[0], -1.0)]
    else:  # half-disk: upper arc plus the flat diameter
        R = params[0]
        pieces = [arc(R, 1.0, math.pi), segment((-R, 0), (R, 0), (0, -1))]
    return tuple(np.concatenate(a) for a in zip(*pieces))


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


def check_cells(shape, params, n_cells):
    """The cell count per axis and the spacing h that n_cells gives on the
    grid box of checked params; InvalidShapeParams unless that is a uniform
    grid of at least 16 cells per axis."""
    lo, hi = _grid_box(shape, params)
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
            f"cell counts {cells} give non-uniform spacing "
            f"{tuple(hs.tolist())}")
    return cells, float(hs[0])


def _subsample_offsets(dim, h):
    k = SUBSAMPLES
    off = ((np.arange(k) + 0.5) / k - 0.5) * h
    if dim == 1:
        return off[:, None]
    ox, oy = np.meshgrid(off, off, indexing="ij")
    return np.stack([ox.ravel(), oy.ravel()], axis=1)


def _grid_axes(lo, hi, cells, h):
    """Per axis, the cell centers (lo + hi)/2 + (i - (n - 1)/2) h: exact
    mirror images across the midpoint when it is 0, whatever h is."""
    return [(lo[a] + hi[a]) / 2 + (np.arange(n) - (n - 1) / 2) * h
            for a, n in enumerate(cells)]


def _nearest_active_node(pts, lo, h, cells, active_of_grid, apts):
    """Active index of the node nearest to each point, by an exact search
    over the window of cells around it.

    A node outside the window of half-width k cells around the cell holding
    a point lies at least (k + 1/2) h from it, so a node within k h found in
    the window is the nearest; points without one retry with twice the
    width.  Ties go to the node with the lowest active index.
    """
    dim = len(cells)
    shape = np.asarray(cells)
    strides = np.array((1,) if dim == 1 else (cells[1], 1))
    home = np.floor((pts - lo) / h).astype(np.int64)
    node = np.empty(pts.shape[0], dtype=np.int64)
    todo = np.arange(pts.shape[0])
    k = 2
    while todo.size:
        steps = np.arange(-k, k + 1)
        offs = np.stack(np.meshgrid(*[steps] * dim, indexing="ij"),
                        axis=-1).reshape(-1, dim)
        cell = home[todo, None, :] + offs[None, :, :]
        inside = np.all((cell >= 0) & (cell < shape), axis=2)
        act = np.where(inside, active_of_grid[
            np.where(inside, cell @ strides, 0)], -1)
        dist = np.sum((apts[act] - pts[todo, None, :]) ** 2, axis=2)
        dist[act < 0] = np.inf
        best = np.min(dist, axis=1)
        act = np.where(dist == best[:, None], act, np.iinfo(np.int64).max)
        node[todo] = act.min(axis=1)
        found = (best < (k * h) ** 2) | (k > max(cells))
        todo, k = todo[~found], 2 * k
    return node


def build_domain(shape: str, params, n_cells) -> Domain:
    """Build the cut-cell discretization of a supported shape.

    Cells fully inside keep the full volume weight h^dim; cells cut by the
    boundary get a subsampled fraction; slivers below SLIVER_FRACTION are
    dropped from the active set.
    """
    params = check_params(shape, params)
    dim = 1 if shape in SHAPES_1D else 2
    lo, hi = _grid_box(shape, params)
    cells, h = check_cells(shape, params, n_cells)

    axes = _grid_axes(lo, hi, cells, h)
    if dim == 1:
        pts = axes[0][:, None]
    else:
        X, Y = np.meshgrid(axes[0], axes[1], indexing="ij")
        pts = np.stack([X.ravel(), Y.ravel()], axis=1)

    d = _shape_sdist(shape, params, pts)
    circum = 0.5 * h * math.sqrt(dim)
    frac = np.where(d >= circum, 1.0, np.where(d <= -circum, 0.0, np.nan))
    cut = np.flatnonzero(np.isnan(frac))
    sub = _subsample_offsets(dim, h)
    # a probe is inside where its signed distance is positive; a block of
    # cut cells at a time keeps the distance temporaries in cache
    for start in range(0, cut.size, CUT_BLOCK):
        block = cut[start:start + CUT_BLOCK]
        probes = pts[block][:, None, :] + sub[None, :, :]
        ins = _shape_sdist(shape, params, probes.reshape(-1, dim)) > 0.0
        frac[block] = ins.reshape(block.size, -1).mean(axis=1)
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
    strides = (1,) if dim == 1 else (cells[1], 1)
    coords = np.unravel_index(grid_index, cells)
    for a in range(dim):
        for s, side in ((-1, 0), (+1, 1)):
            ok = (coords[a] + s >= 0) & (coords[a] + s < cells[a])
            gi = grid_index[ok] + s * strides[a]
            nbr[ok, a, side] = active_of_grid[gi]

    bp, bn, bw = _boundary_samples(shape, params, h)
    bnode = _nearest_active_node(bp, lo, h, cells, active_of_grid, apts)

    margin = 0.5 * float(np.max(hi - lo))
    return Domain(
        dim=dim, shape=shape, params=params, n_cells=cells, cell_size=h,
        origin=lo, points=apts,
        cut_cell_weights=weights,
        grid_index=grid_index,
        active_of_grid=active_of_grid, neighbors=nbr,
        boundary=BoundarySamples(points=bp, normals=bn, weights=bw,
                                 node=bnode),
        # boundary curvature bound: 1/radius, the inner one on the annulus
        kappa0=0.0 if shape in ("interval", "rectangle") else 1.0 / params[0],
        u_lo=lo - margin, u_hi=hi + margin,
    )


@kept
def signed_distance(dom: Domain) -> np.ndarray:
    """Exact analytic signed distance (positive inside) at the active
    nodes."""
    return dom.distance_to_boundary(dom.points)


@kept
def mirror_maps(dom: Domain) -> tuple:
    """Per axis, the active index of the mirror image of every node across
    the grid's midline on that axis, or None when that reflection is not an
    exact symmetry of the discretization: the axis has an odd cell count,
    or the active set or cut_cell_weights do not map exactly onto
    themselves."""
    coords = np.unravel_index(dom.grid_index, dom.n_cells)
    maps = []
    for a, n in enumerate(dom.n_cells):
        image = None
        if n % 2 == 0:
            flipped = list(coords)
            flipped[a] = n - 1 - coords[a]
            image = dom.active_of_grid[
                np.ravel_multi_index(flipped, dom.n_cells)]
            w = dom.cut_cell_weights
            if not (np.all(image >= 0) and np.array_equal(w[image], w)):
                image = None
        maps.append(image)
    return tuple(maps)


@kept
def line_maps(dom: Domain) -> tuple:
    """Per axis of a 2D domain, the active index of the first node of every
    node's grid line along that axis, or None when translation along it is
    not an exact symmetry of the discretization: some line is not fully
    active, or cut_cell_weights vary along one.  A 1D domain, whose one line
    is the whole domain, has none."""
    if dom.dim < 2:
        return (None,)
    coords = np.unravel_index(dom.grid_index, dom.n_cells)
    w = dom.cut_cell_weights
    maps = []
    for a, n in enumerate(dom.n_cells):
        first = list(coords)
        first[a] = np.zeros_like(coords[a])
        line = dom.active_of_grid[np.ravel_multi_index(first, dom.n_cells)]
        if not (np.all(line >= 0)
                and np.all(np.bincount(line)[line] == n)
                and np.array_equal(w[line], w)):
            line = None
        maps.append(line)
    return tuple(maps)


@kept
def grid_axes(dom: Domain) -> tuple:
    """Per axis, the grid coordinates; node coordinates are among them."""
    lo, hi = _grid_box(dom.shape, dom.params)
    return tuple(_grid_axes(lo, hi, dom.n_cells, dom.cell_size))


def require_ball_in_u(dom: Domain, x, radii):
    """Raise BallEscapesU, naming the first radius r of radii (one radius
    or several) whose ball B_r(x) leaves the padding box U."""
    radii = np.atleast_1d(radii)
    r = radii[:, None]
    out = ((x - r < dom.u_lo) | (x + r > dom.u_hi)).any(axis=1)
    if out.any():
        raise BallEscapesU(f"ball of radius {radii[out.argmax()]} at {x} "
                           "leaves the padding box U")


def ball_integrals(dom: Domain, x, radii, values):
    """The integrals of the node fields values over B_r(x) intersected with
    the domain, for each r of the ascending radii: (integrals, center,
    boundary_flag), where integrals[i, k] integrates values[i] over the ball
    of radii[k].

    Centers within h/2 of the boundary are snapped to the nearest boundary
    point and flagged (the monotonicity formulas only cover balls that are
    fully interior or exactly boundary-centered).  A node weighs its cut-cell
    weight times the clipped-linear fraction of its cell inside the sphere,
    smooth and monotone in r, which the monotonicity scans difference in
    rho.  Each integral adds the products of the nodes of positive weight,
    in node order, as np.sum does.  The ladder is checked once and costs one
    distance pass and one gather of the fields, cut to the nodes the largest
    ball can reach; each ball then costs its mask, its weights and one
    reduction over the gathered fields.  Raises RadiusTooSmall for no radius
    or one not above 2h, else BallEscapesU for the smallest radius whose
    ball leaves U.
    """
    h = dom.cell_size
    x = np.asarray(x, dtype=float)
    radii = np.asarray(radii, dtype=float)
    if radii.size == 0:
        raise RadiusTooSmall(f"no ball radius at {x}: the ball floor exceeds "
                             "the room to the boundary")
    dist_b = float(dom.distance_to_boundary(x[None, :])[0])
    boundary_flag = abs(dist_b) < 0.5 * h
    if boundary_flag:
        x = dom.nearest_boundary_point(x)
    small = ~(radii > 2.0 * h)
    if small.any():
        raise RadiusTooSmall(f"radius {radii[small.argmax()]} must exceed "
                             f"2h = {2 * h}")
    require_ball_in_u(dom, x, radii)
    s = row_distance(dom.points, x)
    near = np.flatnonzero(s < radii[-1] + h)
    s, cw = s[near], dom.cut_cell_weights[near]
    fields = np.array([v.take(near) for v in values])
    sums = np.empty((len(values), radii.size))
    for k, r in enumerate(radii.tolist()):
        inside = (s < r + h).nonzero()[0]
        w = np.clip(0.5 + (r - s[inside]) / h, 0.0, 1.0)
        w *= cw[inside]
        keep = w > 0.0
        terms = fields.take(inside[keep], axis=1)
        terms *= w[keep]
        sums[:, k] = np.add.reduce(terms, axis=1)
    return sums, x, boundary_flag


def boundary_integral(dom: Domain, f) -> float:
    """Sum f(node) * surface_weight over every boundary sample: the boundary
    integral of a node-indexed field."""
    b = dom.boundary
    return float(np.sum(np.asarray(f)[b.node] * b.weights))
