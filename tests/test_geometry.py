import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from aclab.errors import BallEscapesU, InvalidShapeParams, RadiusTooSmall
from aclab.geometry import (ball_integrals, boundary_integral,
                            build_domain, mirror_maps, row_distance, row_dot,
                            row_form, row_norm, row_sq_distance, row_trace,
                            signed_distance)
from aclab.varifold import DiscreteVarifold, density_estimate


class TestBuildDomain:
    def test_unit_disk_area(self):
        dom = build_domain("disk", (1.0,), 128)
        assert abs(dom.cut_cell_weights.sum() - math.pi) < 0.05

    def test_interval_exact(self):
        dom = build_domain("interval", (1.0,), 256)
        assert dom.cut_cell_weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_rectangle_edge_normal(self):
        dom = build_domain("rectangle", (2.0, 1.0), (128, 64))
        b = dom.boundary
        mid_right = np.array([2.0, 0.5])
        k = np.argmin(np.linalg.norm(b.points - mid_right, axis=1))
        assert np.allclose(b.normals[k], [1.0, 0.0])

    def test_invalid_params(self):
        with pytest.raises(InvalidShapeParams):
            build_domain("disk", (-1.0,), 64)
        with pytest.raises(InvalidShapeParams):
            build_domain("annulus", (1.0, 0.5), 64)
        with pytest.raises(InvalidShapeParams):
            build_domain("interval", (1.0,), 8)
        with pytest.raises(InvalidShapeParams):
            build_domain("pentagon", (1.0,), 64)

    @pytest.mark.parametrize("shape,params,cells,message", [
        ("interval", (1.0, 2.0), 64, "one length parameter"),
        ("rectangle", (1.0,), 64, "two side lengths"),
        ("half-disk", (1.0, 2.0), 64, "half-disk expects one radius"),
        ("annulus", (1.0,), 64, "inner and outer radii"),
        ("rectangle", (1.0, 0.5), (64, 32, 16), "expected 2 cell counts"),
        ("rectangle", (1.0, 0.5), (64, 64), "non-uniform spacing"),
        ("disk", (math.nan,), 64, "finite and positive"),
        ("disk", (math.inf,), 64, "finite and positive")])
    def test_invalid_params_messages(self, shape, params, cells, message):
        with pytest.raises(InvalidShapeParams, match=message):
            build_domain(shape, params, cells)

    def test_normals_unit_length(self):
        for shape, params, n in [("disk", (1.0,), 64), ("annulus", (0.5, 1.0), 64),
                                 ("half-disk", (1.0,), 64),
                                 ("rectangle", (2.0, 1.0), (64, 32))]:
            dom = build_domain(shape, params, n)
            ln = np.linalg.norm(dom.boundary.normals, axis=1)
            assert np.abs(ln - 1.0).max() < 1e-12

    def test_kappa0(self):
        assert build_domain("interval", (1.0,), 64).kappa0 == 0.0
        assert build_domain("rectangle", (1.0, 1.0), 64).kappa0 == 0.0
        assert build_domain("disk", (2.0,), 64).kappa0 == 0.5
        assert build_domain("annulus", (0.5, 1.0), 64).kappa0 == 2.0
        assert build_domain("half-disk", (1.0,), 64).kappa0 == 1.0

    @pytest.mark.parametrize("shape,params,n,vol,perim", [
        ("disk", (1.0,), 64, math.pi, 2 * math.pi),
        ("annulus", (0.5, 1.0), 64, math.pi * 0.75, 3 * math.pi),
        ("half-disk", (1.0,), 64, math.pi / 2, math.pi + 2),
        ("rectangle", (2.0, 1.0), (64, 32), 2.0, 6.0),
        ("interval", (1.0,), 64, 1.0, 2.0),
    ])
    def test_refinement_halves_volume_error(self, shape, params, n, vol, perim):
        # subsampled cut cells sit far below the first-order 2h|dOmega|
        # contract; halving is asserted above the subsample noise floor
        def err(cells):
            dom = build_domain(shape, params, cells)
            return abs(dom.cut_cell_weights.sum() - vol)

        coarse = err(n)
        fine = err(tuple(2 * c for c in n) if isinstance(n, tuple) else 2 * n)
        floor = 1.2e-4 * perim
        assert fine <= max(0.5 * coarse, floor)

    @pytest.mark.parametrize("shape,params", [
        ("interval", (1.0,)), ("rectangle", (1.0, 0.5)), ("disk", (1.0,)),
        ("annulus", (0.4, 1.0)), ("half-disk", (1.0,))])
    @pytest.mark.parametrize("cells", [32, 48, 100, 256])
    def test_boundary_node_matches_kdtree(self, shape, params, cells):
        # the k-d tree is the reference for the nearest active node; on the
        # half-disk at 48 cells two samples are equidistant from two nodes
        from scipy.spatial import cKDTree
        dom = build_domain(shape, params, cells)
        _, ref = cKDTree(dom.points).query(dom.boundary.points)
        assert dom.boundary.node.dtype == np.int64
        assert np.array_equal(dom.boundary.node, ref)


class TestSignedDistance:
    def test_disk_center(self):
        dom = build_domain("disk", (1.0,), 64)
        sd = signed_distance(dom)
        k = np.argmin(np.linalg.norm(dom.points, axis=1))
        assert sd[k] == pytest.approx(1.0, abs=dom.cell_size)

    def test_rectangle_nearest_edge(self):
        dom = build_domain("rectangle", (1.0, 1.0), 64)
        assert float(dom.distance_to_boundary(np.array([[0.3, 0.5]]))[0]) \
            == pytest.approx(0.3, abs=1e-14)

    def test_annulus_midring(self):
        dom = build_domain("annulus", (0.5, 1.0), 64)
        assert float(dom.distance_to_boundary(np.array([[0.75, 0.0]]))[0]) \
            == pytest.approx(0.25, abs=1e-14)

    def test_gradient_unit_and_nonnegative(self):
        for shape, params, n in [("disk", (1.0,), 64), ("half-disk", (1.0,), 64),
                                 ("rectangle", (1.0, 1.0), 64),
                                 ("interval", (1.0,), 64)]:
            dom = build_domain(shape, params, n)
            sd = signed_distance(dom)
            h = dom.cell_size
            deep = sd > 2 * h
            ln = np.linalg.norm(dom.distance_gradient(dom.points[deep]),
                                axis=1)
            assert np.abs(ln - 1.0).max() < 10 * h * h

    def test_normal_matches_distance_gradient(self):
        dom = build_domain("disk", (1.0,), 128)
        b = dom.boundary
        # nu agrees with -grad d at the associated node to O(h)
        err = np.linalg.norm(
            b.normals + dom.distance_gradient(dom.points[b.node]), axis=1)
        assert err.max() < 6 * dom.cell_size


    def test_cached_once_and_read_only(self):
        dom = build_domain("annulus", (0.5, 1.0), 64)
        sd = signed_distance(dom)
        assert signed_distance(dom) is sd
        assert np.array_equal(sd, dom.distance_to_boundary(dom.points))
        assert not sd.flags.writeable
        with pytest.raises(ValueError):
            sd[0] = 0.0

    @pytest.mark.parametrize("shape,params", [
        ("interval", (1.0,)), ("rectangle", (1.0, 0.5)), ("disk", (1.0,)),
        ("annulus", (0.5, 1.0)), ("half-disk", (1.0,))])
    def test_distance_gradient_is_inward_normal(self, shape, params):
        dom = build_domain(shape, params, 64)
        b = dom.boundary
        # at every boundary sample, -grad d is the outward normal
        assert np.allclose(-dom.distance_gradient(b.points), b.normals,
                           atol=1e-12)

    @pytest.mark.parametrize("shape,params", [
        ("rectangle", (1.0, 0.5)), ("disk", (1.0,)), ("annulus", (0.4, 1.0)),
        ("half-disk", (1.0,)), ("interval", (1.0,))])
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_snap_is_idempotent(self, shape, params, data):
        dom = _domain(shape, params, 2 * data.draw(st.integers(16, 48)))
        on_boundary = data.draw(st.booleans())
        pool = dom.boundary.points if on_boundary else dom.points
        x = pool[data.draw(st.integers(0, len(pool) - 1))]
        y = dom.nearest_boundary_point(x)
        assert np.array_equal(dom.nearest_boundary_point(y), y)

    @pytest.mark.parametrize("length", [1.0, 0.7])
    def test_interval_snaps_to_exact_ends(self, length):
        # the interval takes the path of every shape, p - d grad d, which
        # lands exactly on 0 and on L
        dom = build_domain("interval", (length,), 64)
        x = dom.points[:, 0]
        want = np.where(x < 0.5 * length, 0.0, length)
        got = [dom.nearest_boundary_point(p)[0] for p in dom.points]
        assert np.array_equal(got, want)


# the inside of each shape as explicit inequalities
INSIDE = {
    "interval": lambda x, y, p: (x > 0.0) & (x < p[0]),
    "rectangle": lambda x, y, p: ((x > 0.0) & (x < p[0])
                                  & (y > 0.0) & (y < p[1])),
    "disk": lambda x, y, p: np.hypot(x, y) < p[0],
    "annulus": lambda x, y, p: ((np.hypot(x, y) > p[0])
                                & (np.hypot(x, y) < p[1])),
    "half-disk": lambda x, y, p: (np.hypot(x, y) < p[0]) & (y > 0.0),
}


class TestInside:
    @pytest.mark.parametrize("shape,params", [
        ("interval", (1.0,)), ("rectangle", (1.0, 0.5)), ("disk", (1.0,)),
        ("annulus", (0.4, 1.0)), ("half-disk", (1.0,))])
    @given(data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_positive_distance_is_inside(self, shape, params, data):
        # build_domain probes cut cells by the sign of the signed distance:
        # it is positive exactly where the shape's inequalities hold, on
        # nodes, on boundary samples and a few ulps either side of them
        dom = _domain(shape, params, 2 * data.draw(st.integers(16, 48)))
        pool = np.concatenate([dom.points, dom.boundary.points])
        p = pool[data.draw(st.integers(0, len(pool) - 1))]
        for _ in range(data.draw(st.integers(0, 3))):
            p = np.nextafter(p, data.draw(st.sampled_from([-1.0, 1.0])))
        x, y = p[0], p[-1]
        inside = bool(dom.distance_to_boundary(p[None, :])[0] > 0.0)
        assert inside == bool(INSIDE[shape](x, y, params))


@functools.lru_cache(maxsize=None)
def _domain(shape, params, cells):
    return build_domain(shape, params, cells)


def ball_volumes(dom, x, radii):
    """ball_integrals of the field 1: (volumes, center, boundary_flag)."""
    sums, center, flag = ball_integrals(dom, x, radii,
                                        np.ones((1, dom.n_nodes)))
    return sums[0], center, flag


class TestBallRestriction:
    def test_half_ball_of_unit_disk(self):
        dom = build_domain("disk", (1.0,), 128)
        (area,), _, flag = ball_volumes(dom, np.zeros(2), [0.5])
        assert abs(area - math.pi / 4) < 4 * dom.cell_size * math.pi
        assert not flag

    def test_flat_boundary_half_ball(self):
        dom = build_domain("half-disk", (1.0,), 128)
        (area,), center, flag = ball_volumes(dom, np.array([0.2, 0.0]), [0.3])
        assert flag
        assert center[1] == 0.0
        half = 0.5 * math.pi * 0.3**2
        assert abs(area - half) < 4 * dom.cell_size * 2 * math.pi * 0.3

    def test_interval_boundary_ball(self):
        dom = build_domain("interval", (1.0,), 256)
        (length,), _, flag = ball_volumes(dom, np.array([0.0]), [0.25])
        assert abs(length - 0.25) <= dom.cell_size
        assert flag

    def test_radius_gate(self):
        dom = build_domain("interval", (1.0,), 64)
        h = dom.cell_size
        with pytest.raises(RadiusTooSmall, match=f"radius {1.5 * h} must "):
            ball_volumes(dom, np.array([0.5]), [1.5 * h, 0.2])
        with pytest.raises(RadiusTooSmall, match="no ball radius"):
            ball_volumes(dom, np.array([0.5]), [])

    def test_escapes_padding(self):
        dom = build_domain("disk", (1.0,), 64)
        with pytest.raises(BallEscapesU, match="radius 1.4 "):
            ball_volumes(dom, np.array([0.9, 0.0]), [1.4])

    def test_monotone_in_radius(self):
        dom = build_domain("disk", (1.0,), 64)
        vols, _, _ = ball_volumes(dom, np.array([0.3, 0.1]),
                                  [0.1, 0.15, 0.2, 0.3, 0.4])
        assert np.all(np.diff(vols) >= 0.0)

    def test_full_weight_deep_inside(self):
        # a node deeper than h sqrt(2) weighs its whole cut cell: the
        # integral of its indicator is its cut-cell weight
        dom = build_domain("disk", (1.0,), 64)
        h = dom.cell_size
        dist = np.linalg.norm(dom.points, axis=1)
        deep = np.flatnonzero(dist < 0.4 - h * math.sqrt(2))
        indicators = np.zeros((deep.size, dom.n_nodes))
        indicators[np.arange(deep.size), deep] = 1.0
        sums, _, _ = ball_integrals(dom, np.zeros(2), [0.4], indicators)
        assert np.array_equal(sums[:, 0], dom.cut_cell_weights[deep])

    @pytest.mark.parametrize("shape, x", [
        ("disk", (0.3, 0.1)),
        ("disk", (math.cos(1.0), math.sin(1.0))),
        ("half-disk", (0.2, 0.0)),
    ])
    def test_ladder_matches_single_balls(self, shape, x):
        # one distance pass for the ladder, cut to the largest ball: the
        # same integrals and density ratios bit for bit
        dom = build_domain(shape, (1.0,), 64)
        radii = (0.1, 0.15, 0.2, 0.3)
        values = np.random.default_rng(3).standard_normal((3, dom.n_nodes))
        ladder, center, flag = ball_integrals(dom, np.array(x), radii, values)
        assert ladder.shape == (3, len(radii))
        for k, r in enumerate(radii):
            one, c, f = ball_integrals(dom, np.array(x), (r,), values)
            assert np.array_equal(center, c)
            assert flag == f
            assert np.array_equal(ladder[:, k], one[:, 0])
        # a varifold with an atom on every node, a tenth of them flagged
        rng = np.random.default_rng(4)
        n = dom.n_nodes
        V = DiscreteVarifold(dom=dom, weights=rng.random(n),
                             normals=np.zeros_like(dom.points),
                             zero_flag=rng.random(n) < 0.1, epsilon=0.05)
        theta = density_estimate(V, np.array(x), radii).theta
        assert theta.size == len(radii)
        for r, t in zip(radii, theta):
            one = density_estimate(V, np.array(x), (r,)).theta
            assert np.array_equal(one, [t])

    def test_ladder_checks_every_radius(self):
        # the smallest radius whose ball leaves U is the one named
        dom = build_domain("disk", (1.0,), 64)
        with pytest.raises(BallEscapesU, match="radius 1.2 "):
            ball_volumes(dom, np.array([0.9, 0.0]), [0.3, 1.2, 1.4])
        with pytest.raises(RadiusTooSmall):
            ball_volumes(dom, np.zeros(2), [dom.cell_size, 0.3])


class TestBoundaryIntegral:
    def test_unit_disk_circumference(self):
        dom = build_domain("disk", (1.0,), 128)
        ones = np.ones(dom.n_nodes)
        assert abs(boundary_integral(dom, ones) - 2 * math.pi) < 0.05

    def test_rectangle_perimeter(self):
        dom = build_domain("rectangle", (2.0, 1.0), (128, 64))
        ones = np.ones(dom.n_nodes)
        assert abs(boundary_integral(dom, ones) - 6.0) < 0.02

    def test_odd_function_cancels(self):
        dom = build_domain("disk", (1.0,), 128)
        assert abs(boundary_integral(dom, dom.points[:, 0])) < 0.02


class TestMirrorMaps:
    @pytest.mark.parametrize("shape,params,symmetric", [
        ("interval", (1.0,), (True,)),
        ("rectangle", (1.0, 0.5), (True, True)),
        ("disk", (1.0,), (True, True)),
        ("annulus", (0.4, 1.0), (True, True)),
        ("half-disk", (1.0,), (True, False))])
    @pytest.mark.parametrize("cells", [64, 96])
    def test_which_axes_mirror(self, shape, params, symmetric, cells):
        dom = build_domain(shape, params, cells)
        maps = mirror_maps(dom)
        assert tuple(m is not None for m in maps) == symmetric
        w = dom.cut_cell_weights
        for a, image in enumerate(maps):
            if image is None:
                continue
            # an involution without fixed nodes that keeps the weights and
            # reflects the node across the midline of axis a
            assert np.array_equal(image[image], np.arange(dom.n_nodes))
            assert not np.any(image == np.arange(dom.n_nodes))
            assert np.array_equal(w[image], w)
            mid = dom.origin[a] + 0.5 * dom.n_cells[a] * dom.cell_size
            assert np.allclose(dom.points[image, a],
                               2 * mid - dom.points[:, a], rtol=0.0,
                               atol=1e-12)

    def test_odd_cell_count_has_none(self):
        assert mirror_maps(build_domain("disk", (1.0,), 97)) == (None, None)
        # 130 x 65 cells: only x has an even count
        rect = mirror_maps(build_domain("rectangle", (1.0, 0.5), 130))
        assert rect[0] is not None and rect[1] is None


# signed zeros, subnormals and magnitudes whose products overflow, among
# ordinary floats
ROW_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -2.5e-310,
                     1e150, -1e150]),
    st.floats(-1e3, 1e3, allow_subnormal=True))


@st.composite
def row_array(draw, rows, trailing):
    """A float array of shape (rows,) + trailing: C-contiguous, every other
    row of a larger array, or every other entry along the trailing axes."""
    layout = draw(st.sampled_from(["C", "rows", "columns"]))
    if layout == "C":
        return draw(hnp.arrays(np.float64, (rows,) + trailing,
                               elements=ROW_VALUES))
    if layout == "rows":
        return draw(hnp.arrays(np.float64, (2 * rows,) + trailing,
                               elements=ROW_VALUES))[::2]
    a = draw(hnp.arrays(np.float64, (rows,) + tuple(2 * t for t in trailing),
                        elements=ROW_VALUES))
    return a[(slice(None),) + (slice(None, None, 2),) * len(trailing)]


def _same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


class TestRowKernels:
    # each kernel gives the bits of the numpy reduction it replaces, signed
    # zeros included, on C-ordered and strided rows in 1D and 2D
    @given(dim=st.sampled_from([1, 2]), rows=st.integers(0, 12),
           data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_vector_rows(self, dim, rows, data):
        a = data.draw(row_array(rows, (dim,)))
        b = data.draw(row_array(rows, (dim,)))
        x = data.draw(hnp.arrays(np.float64, (dim,), elements=ROW_VALUES))
        with np.errstate(all="ignore"):
            _same_bits(row_dot(a, b), np.sum(a * b, axis=1))
            _same_bits(row_norm(a), np.linalg.norm(a, axis=1))
            _same_bits(row_sq_distance(a, x),
                       np.sum((a - x[None, :]) ** 2, axis=1))
            _same_bits(row_distance(a, x),
                       np.linalg.norm(a - x[None, :], axis=1))

    @given(dim=st.sampled_from([1, 2]), rows=st.integers(0, 12),
           data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_jacobian_rows(self, dim, rows, data):
        J = data.draw(row_array(rows, (dim, dim)))
        u = data.draw(row_array(rows, (dim,)))
        v = data.draw(row_array(rows, (dim,)))
        with np.errstate(all="ignore"):
            _same_bits(row_trace(J), np.trace(J, axis1=1, axis2=2))
            _same_bits(row_form(J, u, v), np.einsum("iab,ia,ib->i", J, u, v))
            _same_bits(row_norm(J),
                       np.sqrt(np.sum(J * J, axis=(1, 2))))
