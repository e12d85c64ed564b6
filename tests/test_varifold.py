import math
import warnings

import numpy as np
import pytest

from aclab.diagnostics import (density_fields, field_from_callable,
                               make_radial_field, make_rotational_field,
                               radius_ladder)
from aclab.errors import NoInterface, NotTangential, RadiusTooSmall
from aclab.geometry import build_domain
from aclab.potential import DoubleWell, compute_h0
from aclab.solver import (Field, Solution, epsilon_sweep, orthogonal_arc,
                          solve_single)
from aclab.varifold import (_cell_segments, build_varifold, density_estimate,
                            extract_interface, first_variation,
                            first_variation_bound_constant,
                            free_boundary_test, integrality_check,
                            sample_interface_nodes)

H0 = 2.0 * math.sqrt(2.0) / 3.0


def loop_segments(U, origin, h):
    """Per-cell marching squares over the nodal grid U: the loop reference
    for the vectorised pass, segments in row-major cell order."""
    nx, ny = U.shape
    ox, oy = origin

    def corner_xy(i, j):
        return np.array([ox + (i + 0.5) * h, oy + (j + 0.5) * h])

    segments = []
    for i in range(nx - 1):
        for j in range(ny - 1):
            vals = np.array([U[i, j], U[i + 1, j], U[i + 1, j + 1], U[i, j + 1]])
            if np.isnan(vals).any():
                continue
            if vals.min() > 0.0 or vals.max() < 0.0:
                continue
            corners = [corner_xy(i, j), corner_xy(i + 1, j),
                       corner_xy(i + 1, j + 1), corner_xy(i, j + 1)]
            pts = []
            for k in range(4):
                va, vb = vals[k], vals[(k + 1) % 4]
                if va == 0.0 and vb == 0.0:
                    continue
                if (va < 0.0 <= vb) or (vb < 0.0 <= va):
                    t = va / (va - vb)
                    pts.append(corners[k] + t * (corners[(k + 1) % 4] - corners[k]))
            if len(pts) == 2:
                segments.append((pts[0], pts[1]))
            elif len(pts) == 4:
                if vals.mean() >= 0.0:
                    segments.append((pts[0], pts[1]))
                    segments.append((pts[2], pts[3]))
                else:
                    segments.append((pts[3], pts[0]))
                    segments.append((pts[1], pts[2]))
    return segments


def nodal_grid(sol):
    dom = sol.field.dom
    nx, ny = dom.grid_shape
    U = np.full(nx * ny, np.nan)
    U[dom.grid_index] = sol.field.values
    return U.reshape(nx, ny)


def disk24_field():
    """A few values on a coarse disk: saddle cells of both center signs,
    exact zeros at corners, and NaN (inactive) corners around the rim."""
    dom = build_domain("disk", (1.0,), 24)
    rng = np.random.default_rng(5)
    vals = rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0], size=dom.n_nodes)
    return Solution(field=Field(dom, 0.1, vals), lam=0.0,
                    residual_norm=0.0, iterations=0)


@pytest.fixture(scope="module")
def quartic():
    return DoubleWell()


@pytest.fixture(scope="module")
def h0(quartic):
    return compute_h0(quartic).h0


@pytest.fixture(scope="module")
def band_sol(quartic):
    # horizontal interface {y = 0.5} in the unit square
    dom = build_domain("rectangle", (1.0, 1.0), (128, 128))
    return solve_single(dom, quartic, 0.04, constraint=0.0, recipe="step-y",
                        pre_steps=20)


@pytest.fixture(scope="module")
def band_varifold(band_sol, quartic, h0):
    return build_varifold(band_sol, quartic, h0)


class TestBuildVarifold:
    def test_pure_phase_empty(self, quartic, h0):
        dom = build_domain("interval", (1.0,), 64)
        f = Field(dom, 0.1, np.ones(dom.n_nodes))
        sol = Solution(field=f, lam=0.0, residual_norm=0.0, iterations=0)
        V = build_varifold(sol, quartic, h0)
        assert V.weights.size == 0
        assert V.mass == 0.0

    def test_1d_heteroclinic_unit_mass(self, quartic, h0):
        dom = build_domain("interval", (1.0,), 1024)
        sol = solve_single(dom, quartic, 0.025, constraint=0.0, pre_steps=10)
        V = build_varifold(sol, quartic, h0)
        assert V.mass == pytest.approx(1.0, abs=0.02)

    def test_2d_straight_interface_mass(self, band_varifold):
        assert band_varifold.mass == pytest.approx(1.0, abs=0.05)

    def test_mass_bounded_by_energy(self, band_sol, band_varifold, h0):
        assert band_varifold.mass <= band_sol.energy / h0 + 0.01

    def test_zero_normal_share_bound(self, quartic, h0):
        dom = build_domain("interval", (1.0,), 1024)
        sweep = epsilon_sweep(dom, quartic, [0.1, 0.05], constraint=0.0,
                              pre_steps=10)
        shares = []
        for sol in sweep:
            V = build_varifold(sol, quartic, h0)
            share = V.total_measure - V.mass
            d = density_fields(sol.field, quartic)
            xi_l1 = float(np.sum(sol.field.dom.cut_cell_weights * np.abs(d.xi)))
            assert share <= xi_l1 / h0 + 1e-12
            shares.append(share)
        assert shares[-1] <= shares[0] + 1e-12


class TestFirstVariation:
    def test_constant_field_zero(self, band_varifold):
        dom = band_varifold.dom
        X = field_from_callable(
            dom, lambda p: np.tile([0.3, -0.7], (np.atleast_2d(p).shape[0], 1)),
            support_radius=1.0)
        dv = first_variation(band_varifold, X)
        assert abs(dv) <= 1e-10 * band_varifold.mass

    def test_normal_stretch_vanishes(self, band_varifold):
        # X = (0, y - 1/2): <grad X, I - nu x nu> = d_x X_x = 0 on {y = 1/2}
        dom = band_varifold.dom

        def fn(p):
            p = np.atleast_2d(p)
            return np.stack([np.zeros(p.shape[0]), p[:, 1] - 0.5], axis=1)

        dv = first_variation(band_varifold, field_from_callable(dom, fn, 1.0))
        assert abs(dv) <= 0.05

    def test_tangential_stretch_integrates_length(self, band_varifold):
        dom = band_varifold.dom

        def fn(p):
            p = np.atleast_2d(p)
            return np.stack([p[:, 0] - 0.5, np.zeros(p.shape[0])], axis=1)

        dv = first_variation(band_varifold, field_from_callable(dom, fn, 1.0))
        assert dv == pytest.approx(band_varifold.mass, rel=0.02)

    def test_linearity(self, band_varifold):
        dom = band_varifold.dom
        rng = np.random.default_rng(8)
        X1 = make_rotational_field(dom, rng)
        X2 = make_rotational_field(dom, rng)
        a, b = 0.37, -1.21

        def combo(p):
            return a * X1.evaluator(p) + b * X2.evaluator(p)

        lhs = first_variation(band_varifold,
                              field_from_callable(dom, combo, 1.0))
        rhs = a * first_variation(band_varifold, X1) \
            + b * first_variation(band_varifold, X2)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_isometry_invariance(self, quartic, h0):
        # rotate the square problem by 90 degrees: mass and dV agree
        dom = build_domain("rectangle", (1.0, 1.0), (96, 96))
        sol_x = solve_single(dom, quartic, 0.05, constraint=0.0,
                             recipe="step-x", pre_steps=10)
        sol_y = solve_single(dom, quartic, 0.05, constraint=0.0,
                             recipe="step-y", pre_steps=10)
        Vx = build_varifold(sol_x, quartic, h0)
        Vy = build_varifold(sol_y, quartic, h0)
        assert Vx.mass == pytest.approx(Vy.mass, abs=1e-10)

        def fx(p):
            p = np.atleast_2d(p) - 0.5
            return np.stack([p[:, 0] ** 2, p[:, 0] * p[:, 1]], axis=1)

        def fy(p):
            # fx conjugated by the rotation (x, y) -> (y, x) up to sign
            p = np.atleast_2d(p) - 0.5
            return np.stack([p[:, 0] * p[:, 1], p[:, 1] ** 2], axis=1)

        dvx = first_variation(Vx, field_from_callable(dom, fx, 1.0))
        dvy = first_variation(Vy, field_from_callable(dom, fy, 1.0))
        assert dvx == pytest.approx(dvy, abs=1e-10)


class TestInterface:
    def test_synthetic_linear_field(self):
        dom = build_domain("rectangle", (1.0, 1.0), (64, 64))
        f = Field(dom, 0.05, dom.points[:, 1] - 0.5)
        sol = Solution(field=f, lam=0.0, residual_norm=0.0, iterations=0)
        curve = extract_interface(sol)
        assert len(curve.polylines) == 1
        assert curve.length == pytest.approx(1.0, abs=dom.cell_size)

    def test_no_interface(self, quartic):
        dom = build_domain("rectangle", (1.0, 1.0), (32, 32))
        f = Field(dom, 0.05, np.ones(dom.n_nodes))
        sol = Solution(field=f, lam=0.0, residual_norm=0.0, iterations=0)
        with pytest.raises(NoInterface):
            extract_interface(sol)

    def test_contact_angles_orthogonal(self, band_sol):
        curve = extract_interface(band_sol)
        assert len(curve.orthogonality_angles) == 2
        for ang in curve.orthogonality_angles:
            assert abs(math.degrees(ang) - 90.0) <= 5.0

    def test_vectorised_segments_match_loop(self):
        sol = disk24_field()
        dom = sol.field.dom
        U = nodal_grid(sol)
        cells = np.stack([U[:-1, :-1], U[1:, :-1], U[1:, 1:], U[:-1, 1:]],
                         axis=-1).reshape(-1, 4)
        cells = cells[~np.isnan(cells).any(axis=1)]
        neg = cells < 0.0
        saddle = (neg == [True, False, True, False]).all(axis=1) | (
            neg == [False, True, False, True]).all(axis=1)
        assert np.isnan(U).any()
        assert (saddle & (cells.mean(axis=1) >= 0.0)).any()
        assert (saddle & (cells.mean(axis=1) < 0.0)).any()
        assert ((cells == 0.0).any(axis=1) & neg.any(axis=1)).any()

        ref = loop_segments(U, dom.origin, dom.cell_size)
        a, b = _cell_segments(U, dom.origin, dom.cell_size)
        assert np.array_equal(a, np.array([p for p, _ in ref]))
        assert np.array_equal(b, np.array([q for _, q in ref]))

        mids = np.array([0.5 * (p + q) for p, q in ref])
        lens = np.linalg.norm(np.array([q - p for p, q in ref]), axis=1)
        curve = extract_interface(sol)
        assert np.array_equal(curve.seg_mid, mids[lens > 1e-14])
        assert np.array_equal(curve.seg_len, lens[lens > 1e-14])

    def test_contact_angle_skips_zero_length_steps(self):
        # exact-zero nodes leave zero-length steps in the polylines: a chain
        # end's tangent runs to the first point that differs from the end,
        # and an end with no such point has no contact angle
        sol = disk24_field()
        dom = sol.field.dom
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            curve = extract_interface(sol)
        expect, zero_first_steps = [], 0
        for chain in curve.polylines:
            for walk in (chain, chain[::-1]):
                end = walk[0]
                if abs(1.0 - np.hypot(*end)) >= 2.0 * dom.cell_size:
                    continue
                steps = [q - end for q in walk[1:] if np.any(q != end)]
                zero_first_steps += bool(np.all(walk[1] == end))
                if steps:
                    t = steps[0] / np.linalg.norm(steps[0])
                    tau = np.array([-end[1], end[0]]) / np.hypot(*end)
                    expect.append(math.acos(min(1.0, abs(float(t @ tau)))))
        assert zero_first_steps == 3
        # two of the three are the ends of a chain that never leaves its end
        assert len(curve.orthogonality_angles) == len(expect) == 48
        assert np.all(np.isfinite(curve.orthogonality_angles))
        assert np.allclose(curve.orthogonality_angles, expect,
                           rtol=0.0, atol=1e-12)

    def test_vertices_on_zero_level(self, band_sol):
        # by linear interpolation the crossing points carry value zero
        dom = band_sol.field.dom
        nx, ny = dom.grid_shape
        U = nodal_grid(band_sol)
        curve = extract_interface(band_sol)
        h = dom.cell_size
        for chain in curve.polylines:
            for p in chain[::7]:
                i = (p - dom.origin) / h - 0.5
                i0 = np.clip(np.floor(i).astype(int), 0, [nx - 2, ny - 2])
                t = i - i0
                patch = U[i0[0]:i0[0] + 2, i0[1]:i0[1] + 2]
                val = (patch[0, 0] * (1 - t[0]) * (1 - t[1])
                       + patch[1, 0] * t[0] * (1 - t[1])
                       + patch[0, 1] * (1 - t[0]) * t[1]
                       + patch[1, 1] * t[0] * t[1])
                assert abs(val) < 0.02  # bilinear wiggle off the cut edges

    def test_normals_follow_gradient(self, band_sol):
        curve = extract_interface(band_sol)
        # u increases with y: normals point along +y
        assert np.all(curve.seg_normal[:, 1] > 0.9)


class TestFreeBoundary:
    def test_pure_phase_trivial(self, quartic, h0):
        dom = build_domain("rectangle", (1.0, 1.0), (32, 32))
        f = Field(dom, 0.05, np.ones(dom.n_nodes))
        sol = Solution(field=f, lam=0.0, residual_norm=0.0, iterations=0)
        V = build_varifold(sol, quartic, h0)
        X = make_radial_field(dom, np.array([0.5, 0.5]), 0.3)
        assert free_boundary_test(V, sol, quartic, h0, X) == (0.0, 0.0, 0.0)

    def test_straight_interface_stationary(self, band_sol, band_varifold,
                                           quartic, h0):
        # lam ~ 0 and the interface is flat: both sides vanish
        dom = band_sol.field.dom
        X = make_radial_field(dom, np.array([0.5, 0.5]), 0.3)
        assert X.tangential_on_boundary
        lhs, rhs, deficit = free_boundary_test(band_varifold, band_sol,
                                               quartic, h0, X)
        assert deficit <= 0.05 * X.c1_norm

    def test_disk_arc_relation(self, quartic, h0):
        dom = build_domain("disk", (1.0,), 160)
        sol = solve_single(dom, quartic, 0.04, constraint=0.3,
                           recipe="radial", pre_steps=20)
        r_arc, _, _ = orthogonal_arc(1.0, 0.3)
        assert abs(sol.lam) == pytest.approx(h0 / (2 * r_arc), rel=0.15)
        V = build_varifold(sol, quartic, h0)
        rng = np.random.default_rng(17)
        for _ in range(3):
            X = make_rotational_field(dom, rng)
            lhs, rhs, deficit = free_boundary_test(V, sol, quartic, h0, X)
            assert deficit <= 0.1 * X.c1_norm

    def test_not_tangential_rejected(self, band_sol, band_varifold,
                                     quartic, h0):
        from aclab.diagnostics import make_boundary_normal_field
        X = make_boundary_normal_field(band_sol.field.dom, 0.05)
        with pytest.raises(NotTangential):
            free_boundary_test(band_varifold, band_sol, quartic, h0, X)

    def test_general_field_bound_constant(self, band_sol, band_varifold,
                                          quartic, h0):
        from aclab.diagnostics import make_boundary_normal_field
        X = make_boundary_normal_field(band_sol.field.dom, 0.05)
        C = first_variation_bound_constant(band_varifold, band_sol, h0, X)
        assert np.isfinite(C)


class TestDensity:
    def test_interior_unit_density(self, band_varifold, band_sol):
        dom = band_varifold.dom
        x = np.array([0.5, 0.5])
        curve = density_estimate(band_varifold, x,
                                 radius_ladder(dom, 0.04, x))
        assert 0.9 <= curve.plateau() <= 1.1

    def test_boundary_contact_half_density(self, band_varifold):
        dom = band_varifold.dom
        x = np.array([0.0, 0.5])
        radii = radius_ladder(dom, 0.04, x)
        curve = density_estimate(band_varifold, x, radii)
        assert 0.4 <= curve.plateau() <= 0.6

    def test_two_band_doubling(self, quartic, h0):
        dom = build_domain("interval", (1.0,), 1024)
        sol = solve_single(dom, quartic, 0.02, constraint=0.5,
                           recipe="two-layer", pre_steps=10)
        V = build_varifold(sol, quartic, h0)
        # layers sit at 0.375 and 0.625; radii spanning both count two sheets
        curve = density_estimate(V, np.array([0.5]), [0.16, 0.18, 0.2])
        assert np.all((1.8 <= curve.theta) & (curve.theta <= 2.2))

    def test_integrality_single_interface(self, band_sol, band_varifold,
                                          quartic):
        rng = np.random.default_rng(23)
        pts = sample_interface_nodes(band_sol, 8, rng, interior_margin=0.15)
        rep = integrality_check(band_varifold, pts)
        assert all(r.nearest_integer == 1 for r in rep.rows)
        assert rep.max_deviation <= 0.15

    def test_ball_floor_beyond_boundary_is_typed(self, quartic, h0):
        # within 2h of the boundary the radius ladder is empty
        dom = build_domain("interval", (1.0,), 64)
        x = dom.points[:, 0]
        f = Field(dom, 0.05, np.tanh((x - 0.5) / (math.sqrt(2.0) * 0.05)))
        sol = Solution(field=f, lam=0.0, residual_norm=0.0, iterations=0)
        V = build_varifold(sol, quartic, h0)
        p = np.array([[x.min() + dom.cell_size]])
        assert radius_ladder(dom, 0.05, p[0]).size == 0
        with pytest.raises(RadiusTooSmall):
            integrality_check(V, p)

    def test_atom_export_columns(self, band_varifold, tmp_path):
        from aclab.varifold import export_atoms
        path = tmp_path / "atoms.csv"
        export_atoms(band_varifold, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "x,y,weight,nx,ny,zero_flag"
        assert len(lines) == band_varifold.weights.size + 1

    def test_sampling_excludes_pure_phase(self, band_sol):
        rng = np.random.default_rng(2)
        pts = sample_interface_nodes(band_sol, 20, rng)
        u = band_sol.field.values
        dom = band_sol.field.dom
        for p in pts:
            k = np.argmin(np.linalg.norm(dom.points - p, axis=1))
            assert abs(u[k]) <= 0.5


class TestHalfDisk:
    def test_solve_and_contact_density(self, quartic, h0):
        # interface hits the flat edge of the half-disk orthogonally
        dom = build_domain("half-disk", (1.0,), (128, 64))
        sol = solve_single(dom, quartic, 0.05, constraint=0.0,
                           recipe="step-x", pre_steps=20)
        assert sol.residual_norm <= 1e-10
        V = build_varifold(sol, quartic, h0)
        assert V.mass == pytest.approx(1.0, abs=0.08)
        contact = np.array([0.0, 0.0])
        rr = radius_ladder(dom, 0.05, contact)
        curve = density_estimate(V, contact, rr)
        assert 0.4 <= curve.plateau() <= 0.6

    def test_1d_free_boundary_pairing(self, quartic, h0):
        dom = build_domain("interval", (1.0,), 512)
        sol = solve_single(dom, quartic, 0.05, constraint=0.0, pre_steps=10)
        V = build_varifold(sol, quartic, h0)

        def fn(p):
            p = np.atleast_2d(p)
            x = p[:, 0]
            return (x * (1.0 - x) * np.sin(3 * x))[:, None]

        X = field_from_callable(dom, fn, support_radius=0.5)
        assert X.tangential_on_boundary  # vanishes at both endpoints
        lhs, rhs, deficit = free_boundary_test(V, sol, quartic, h0, X)
        assert lhs == 0.0  # codimension-one tangent planes are trivial in 1D
        assert deficit <= 1e-10  # lam ~ 0 kills the multiplier side
