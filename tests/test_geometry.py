import math

import numpy as np
import pytest

from aclab.errors import BallEscapesU, InvalidShapeParams, RadiusTooSmall
from aclab.geometry import (ball_restriction, ball_restrictions,
                            boundary_integral, build_domain,
                            domain_from_descriptor, signed_distance)


class TestBuildDomain:
    def test_unit_disk_area(self):
        dom = build_domain("disk", (1.0,), 128)
        assert abs(dom.volume - math.pi) < 0.05

    def test_interval_exact(self):
        dom = build_domain("interval", (1.0,), 256)
        assert dom.volume == pytest.approx(1.0, abs=1e-12)

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
            return abs(build_domain(shape, params, cells).volume - vol)

        coarse = err(n)
        fine = err(tuple(2 * c for c in n) if isinstance(n, tuple) else 2 * n)
        floor = 1.2e-4 * perim
        assert fine <= max(0.5 * coarse, floor)

    def test_descriptor_roundtrip(self):
        dom = build_domain("annulus", (0.5, 1.0), 64)
        dom2 = domain_from_descriptor(dom.to_descriptor())
        assert dom2.shape == dom.shape
        assert dom2.n_cells == dom.n_cells
        assert np.allclose(dom2.cut_cell_weights, dom.cut_cell_weights)


class TestSignedDistance:
    def test_disk_center(self):
        dom = build_domain("disk", (1.0,), 64)
        sd = signed_distance(dom)
        k = np.argmin(np.linalg.norm(dom.points, axis=1))
        assert sd.values[k] == pytest.approx(1.0, abs=dom.cell_size)

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
            assert sd.values[dom.interior_mask].min() >= 0.0
            h = dom.cell_size
            deep = sd.values > 2 * h
            ln = np.linalg.norm(sd.gradient[deep], axis=1)
            assert np.abs(ln - 1.0).max() < 10 * h * h

    def test_normal_matches_distance_gradient(self):
        dom = build_domain("disk", (1.0,), 128)
        sd = signed_distance(dom)
        b = dom.boundary
        # nu agrees with -grad d at the associated node to O(h)
        err = np.linalg.norm(b.normals + sd.gradient[b.node], axis=1)
        assert err.max() < 6 * dom.cell_size


class TestBallRestriction:
    def test_half_ball_of_unit_disk(self):
        dom = build_domain("disk", (1.0,), 128)
        ball = ball_restriction(dom, np.zeros(2), 0.5)
        assert abs(ball.volume - math.pi / 4) < 4 * dom.cell_size * math.pi
        assert not ball.boundary_flag

    def test_flat_boundary_half_ball(self):
        dom = build_domain("half-disk", (1.0,), 128)
        ball = ball_restriction(dom, np.array([0.2, 0.0]), 0.3)
        assert ball.boundary_flag
        half = 0.5 * math.pi * 0.3**2
        assert abs(ball.volume - half) < 4 * dom.cell_size * 2 * math.pi * 0.3

    def test_interval_boundary_ball(self):
        dom = build_domain("interval", (1.0,), 256)
        ball = ball_restriction(dom, np.array([0.0]), 0.25)
        assert abs(ball.volume - 0.25) <= dom.cell_size
        assert ball.boundary_flag

    def test_radius_gate(self):
        dom = build_domain("interval", (1.0,), 64)
        with pytest.raises(RadiusTooSmall):
            ball_restriction(dom, np.array([0.5]), 1.5 * dom.cell_size)

    def test_escapes_padding(self):
        dom = build_domain("disk", (1.0,), 64)
        with pytest.raises(BallEscapesU):
            ball_restriction(dom, np.array([0.9, 0.0]), 1.4)

    def test_monotone_in_radius(self):
        dom = build_domain("disk", (1.0,), 64)
        vols = [ball_restriction(dom, np.array([0.3, 0.1]), r).volume
                for r in (0.1, 0.15, 0.2, 0.3, 0.4)]
        assert all(b >= a for a, b in zip(vols, vols[1:]))

    def test_full_weight_deep_inside(self):
        dom = build_domain("disk", (1.0,), 64)
        h = dom.cell_size
        ball = ball_restriction(dom, np.zeros(2), 0.4)
        dist = np.linalg.norm(dom.points[ball.node_index], axis=1)
        deep = dist < 0.4 - h * math.sqrt(2)
        assert np.array_equal(ball.node_weights[deep],
                              dom.cut_cell_weights[ball.node_index[deep]])

    @pytest.mark.parametrize("shape, x", [
        ("disk", (0.3, 0.1)),
        ("disk", (math.cos(1.0), math.sin(1.0))),
        ("half-disk", (0.2, 0.0)),
    ])
    def test_ladder_matches_single_balls(self, shape, x):
        # one distance pass for the ladder, the same balls bit for bit
        dom = build_domain(shape, (1.0,), 64)
        radii = (0.1, 0.15, 0.2, 0.3)
        ladder = list(ball_restrictions(dom, np.array(x), radii))
        assert len(ladder) == len(radii)
        for r, ball in zip(radii, ladder):
            one = ball_restriction(dom, np.array(x), r)
            assert np.array_equal(ball.center, one.center)
            assert ball.radius == one.radius
            assert ball.boundary_flag == one.boundary_flag
            assert np.array_equal(ball.node_index, one.node_index)
            assert np.array_equal(ball.node_weights, one.node_weights)

    def test_ladder_checks_every_radius(self):
        dom = build_domain("disk", (1.0,), 64)
        balls = ball_restrictions(dom, np.array([0.9, 0.0]), (0.3, 1.4))
        assert next(balls).radius == 0.3
        with pytest.raises(BallEscapesU):
            next(balls)
        with pytest.raises(RadiusTooSmall):
            list(ball_restrictions(dom, np.zeros(2), (0.3, dom.cell_size)))


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
