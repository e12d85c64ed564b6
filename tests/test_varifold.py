import math
import re
import warnings

import numpy as np
import pytest

from aclab.diagnostics import (C0, OMEGA, density_fields, field_from_callable,
                               field_gradient, make_radial_field,
                               make_rotational_field, node_jacobian,
                               pohozaev_residual, radial_cutoff,
                               radius_ladder)
from aclab.errors import (NoInterface, NoPlateau, NotTangential,
                          RadiusTooSmall)
from aclab.geometry import (ball_integrals, build_domain, grid_axes,
                            signed_distance)
from aclab.potential import DoubleWell, compute_h0
from aclab.solver import (Field, Solution, epsilon_sweep, orthogonal_arc,
                          seed_field, solve_single)
from aclab.varifold import (DensityCurve, _cell_segments, build_varifold,
                            density_estimate, extract_interface,
                            first_variation, first_variation_bound_constant,
                            free_boundary_test, integrality_check,
                            sample_interface_nodes)

H0 = 2.0 * math.sqrt(2.0) / 3.0


def loop_segments(U, axes):
    """Per-cell marching squares over the nodal grid U with node (i, j) at
    (axes[0][i], axes[1][j]): the loop reference for the vectorised pass,
    segments in row-major cell order."""
    nx, ny = U.shape

    def corner_xy(i, j):
        return np.array([axes[0][i], axes[1][j]])

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


def loop_density_estimate(V, x, radii):
    """Theta-hat over the ladder as density_estimate computed it before the
    live atoms were gathered once per varifold: the live atoms gathered
    and measured at every call, and one masked sum per radius.  The
    reference for density_estimate and integrality_check."""
    radii = np.sort(np.asarray(radii, dtype=float))
    live = ~V.zero_flag
    dist = np.linalg.norm(V.points[live] - x[None, :], axis=1)
    w = V.weights[live]
    n = V.dom.dim
    theta = [float(w[dist < r].sum()) / (OMEGA[n - 1] * r ** (n - 1))
             for r in radii]
    return DensityCurve(radii=radii, theta=np.array(theta))


def nodal_grid(sol):
    dom = sol.field.dom
    nx, ny = dom.n_cells
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
    return compute_h0(quartic)


@pytest.fixture(scope="module")
def band_sol(quartic):
    # horizontal interface {y = 0.5} in the unit square
    dom = build_domain("rectangle", (1.0, 1.0), (128, 128))
    return solve_single(dom, quartic, 0.04, constraint=0.0, recipe="step-y")


@pytest.fixture(scope="module")
def band_varifold(band_sol, quartic, h0):
    return build_varifold(band_sol, quartic, h0)


@pytest.fixture(scope="module")
def band_curve(band_sol):
    return extract_interface(band_sol)


class TestBuildVarifold:
    def test_pure_phase_empty(self, quartic, h0):
        # every node is an atom, of weight 0 and without a normal
        dom = build_domain("interval", (1.0,), 64)
        f = Field(dom, 0.1, np.ones(dom.n_nodes))
        sol = Solution(field=f, lam=0.0, residual_norm=0.0, iterations=0)
        V = build_varifold(sol, quartic, h0)
        assert V.weights.size == dom.n_nodes
        assert not V.weights.any() and V.zero_flag.all()
        assert V.mass == 0.0 and V.total_measure == 0.0

    def test_zero_density_nodes_are_atoms(self, quartic, h0, tmp_path):
        # plateaus of exactly +-1 have e == 0: their nodes are atoms of
        # weight 0 without a normal, so mass and total measure are those of
        # the nodes of positive density alone, and the atom file keeps its
        # rows when the plateaus move off +-1 by rounding
        from aclab.varifold import export_atoms
        dom = build_domain("interval", (1.0,), 256)
        u = np.clip((dom.points[:, 0] - 0.5) / 0.1, -1.0, 1.0)
        sol = Solution(field=Field(dom, 0.05, u), lam=0.0, residual_norm=0.0,
                       iterations=0)
        V = build_varifold(sol, quartic, h0)
        e = density_fields(sol.field, quartic).e
        pos = e > 0.0
        assert V.weights.size == dom.n_nodes and not pos.all()
        assert not V.weights[~pos].any() and V.zero_flag[~pos].all()
        w = dom.cut_cell_weights[pos] * e[pos] / h0
        assert V.mass == float(w[~V.zero_flag[pos]].sum())
        assert V.total_measure == float(w.sum())
        export_atoms(V, tmp_path / "exact.csv")
        near = np.where(np.abs(u) == 1.0, np.sign(u) * (1.0 - 1e-13), u)
        export_atoms(build_varifold(Solution(
            field=Field(dom, 0.05, near), lam=0.0, residual_norm=0.0,
            iterations=0), quartic, h0), tmp_path / "near.csv")
        x = [np.loadtxt(tmp_path / name, dtype=str, delimiter=",",
                        skiprows=1, usecols=0)
             for name in ("exact.csv", "near.csv")]
        assert x[0].size == dom.n_nodes
        assert np.array_equal(x[0], x[1])

    def test_1d_heteroclinic_unit_mass(self, quartic, h0):
        dom = build_domain("interval", (1.0,), 1024)
        sol = solve_single(dom, quartic, 0.025, constraint=0.0)
        V = build_varifold(sol, quartic, h0)
        assert V.mass == pytest.approx(1.0, abs=0.02)

    def test_2d_straight_interface_mass(self, band_varifold):
        assert band_varifold.mass == pytest.approx(1.0, abs=0.05)

    def test_mass_bounded_by_energy(self, band_sol, band_varifold, h0):
        assert band_varifold.mass <= band_sol.energy / h0 + 0.01

    def test_zero_normal_share_bound(self, quartic, h0):
        dom = build_domain("interval", (1.0,), 1024)
        sweep = epsilon_sweep(dom, quartic, [0.1, 0.05], constraint=0.0)
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
            dom, lambda p: np.tile([0.3, -0.7], (np.atleast_2d(p).shape[0], 1)))
        dv = first_variation(band_varifold, X)
        assert abs(dv) <= 1e-10 * band_varifold.mass

    def test_normal_stretch_vanishes(self, band_varifold):
        # X = (0, y - 1/2): <grad X, I - nu x nu> = d_x X_x = 0 on {y = 1/2}
        dom = band_varifold.dom

        def fn(p):
            p = np.atleast_2d(p)
            return np.stack([np.zeros(p.shape[0]), p[:, 1] - 0.5], axis=1)

        dv = first_variation(band_varifold, field_from_callable(dom, fn))
        assert abs(dv) <= 0.05

    def test_tangential_stretch_integrates_length(self, band_varifold):
        dom = band_varifold.dom

        def fn(p):
            p = np.atleast_2d(p)
            return np.stack([p[:, 0] - 0.5, np.zeros(p.shape[0])], axis=1)

        dv = first_variation(band_varifold, field_from_callable(dom, fn))
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
                              field_from_callable(dom, combo))
        rhs = a * first_variation(band_varifold, X1) \
            + b * first_variation(band_varifold, X2)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_isometry_invariance(self, quartic, h0):
        # rotate the square problem by 90 degrees: mass and dV agree
        dom = build_domain("rectangle", (1.0, 1.0), (96, 96))
        sol_x = solve_single(dom, quartic, 0.05, constraint=0.0,
                             recipe="step-x")
        sol_y = solve_single(dom, quartic, 0.05, constraint=0.0,
                             recipe="step-y")
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

        dvx = first_variation(Vx, field_from_callable(dom, fx))
        dvy = first_variation(Vy, field_from_callable(dom, fy))
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

    def test_1d_solution_has_no_interface_curve(self):
        dom = build_domain("interval", (1.0,), 64)
        f = Field(dom, 0.05, dom.points[:, 0] - 0.5)
        sol = Solution(field=f, lam=0.0, residual_norm=0.0, iterations=0)
        with pytest.raises(NoInterface, match="2D"):
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

        ref = loop_segments(U, grid_axes(dom))
        a, b = _cell_segments(U, grid_axes(dom))
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
        nx, ny = dom.n_cells
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
    def test_straight_interface_stationary(self, band_sol, band_varifold,
                                           band_curve, h0):
        # lam ~ 0 and the interface is flat: both sides vanish
        dom = band_sol.field.dom
        X = make_radial_field(dom, np.array([0.5, 0.5]), 0.3)
        assert X.tangential_on_boundary
        lhs, rhs, deficit = free_boundary_test(band_varifold, band_sol, h0,
                                               X, curve=band_curve)
        assert deficit <= 0.05 * X.c1_norm

    def test_disk_arc_relation(self, quartic, h0):
        dom = build_domain("disk", (1.0,), 160)
        sol = solve_single(dom, quartic, 0.04, constraint=0.3,
                           recipe="radial")
        r_arc, _, _ = orthogonal_arc(1.0, 0.3)
        assert abs(sol.lam) == pytest.approx(h0 / (2 * r_arc), rel=0.15)
        V = build_varifold(sol, quartic, h0)
        curve = extract_interface(sol)
        rng = np.random.default_rng(17)
        for _ in range(3):
            X = make_rotational_field(dom, rng)
            lhs, rhs, deficit = free_boundary_test(V, sol, h0, X,
                                                   curve=curve)
            assert deficit <= 0.1 * X.c1_norm

    def test_not_tangential_rejected(self, band_sol, band_varifold,
                                     band_curve, h0):
        from aclab.diagnostics import make_boundary_normal_field
        X = make_boundary_normal_field(band_sol.field.dom, 0.05)
        with pytest.raises(NotTangential):
            free_boundary_test(band_varifold, band_sol, h0, X,
                               curve=band_curve)

    def test_general_field_bound_constant(self, band_sol, band_varifold,
                                          band_curve, h0):
        from aclab.diagnostics import make_boundary_normal_field
        X = make_boundary_normal_field(band_sol.field.dom, 0.05)
        C = first_variation_bound_constant(band_varifold, band_sol, h0, X,
                                           curve=band_curve)
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
                           recipe="two-layer")
        V = build_varifold(sol, quartic, h0)
        # layers sit at 0.375 and 0.625; radii spanning both count two sheets
        curve = density_estimate(V, np.array([0.5]), [0.16, 0.18, 0.2])
        assert np.all((1.8 <= curve.theta) & (curve.theta <= 2.2))

    def test_integrality_single_interface(self, band_sol, band_varifold,
                                          quartic):
        rng = np.random.default_rng(23)
        pts = sample_interface_nodes(band_sol, 8, rng)
        rep = integrality_check(band_varifold, pts)
        assert all(r.nearest_integer == 1 for r in rep.rows)
        assert rep.max_deviation <= 0.15

    @pytest.mark.parametrize("shape,params,cells,eps,m,recipe", [
        ("interval", (1.0,), 2048, 0.025, 0.2, "step-x"),
        ("disk", (1.0,), 64, 0.08, 0.3, "radial"),
        ("rectangle", (1.0, 1.0), 128, 0.04, 0.0, "step-y")])
    def test_integrality_matches_loop_reference(self, quartic, h0, shape,
                                                params, cells, eps, m,
                                                recipe):
        # the live atoms gathered once per varifold and the ladder compared
        # at once give the per-call loop's ratios and plateaus bit for bit;
        # the interval and the disk have zero-normal atoms among them
        dom = build_domain(shape, params, cells)
        sol = solve_single(dom, quartic, eps, constraint=m, recipe=recipe)
        V = build_varifold(sol, quartic, h0)
        pts = sample_interface_nodes(sol, 10, np.random.default_rng(29))
        rep = integrality_check(V, pts)
        assert len(rep.rows) == len(pts)
        for row, p in zip(rep.rows, pts):
            radii = radius_ladder(dom, eps, p)
            want = loop_density_estimate(V, p, radii)
            got = density_estimate(V, p, radii)
            assert np.array_equal(got.radii, want.radii)
            assert np.array_equal(got.theta, want.theta)
            assert row.plateau == want.plateau()
            assert np.array_equal(row.point, p)
        if shape != "rectangle":
            assert V.zero_flag.any()

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

    def test_no_plateau_names_its_point(self, quartic, h0):
        # a ladder of one radius has no plateau; the error says where
        dom = build_domain("interval", (1.0,), 64)
        x = dom.points[:, 0]
        f = Field(dom, 0.05, np.tanh((x - 0.5) / (math.sqrt(2.0) * 0.05)))
        sol = Solution(field=f, lam=0.0, residual_norm=0.0, iterations=0)
        V = build_varifold(sol, quartic, h0)
        p = np.array([[0.5], [x.min() + 6 * dom.cell_size]])
        assert radius_ladder(dom, 0.05, p[1]).size == 1
        with pytest.raises(NoPlateau, match=re.escape(
                f"need at least two radii at {p[1]}")):
            integrality_check(V, p)

    @pytest.mark.parametrize("shape,params,cells", [
        ("interval", (1.0,), 2500), ("disk", (1.0,), 64),
        ("annulus", (0.4, 1.0), 80), ("half-disk", (1.0,), 96)])
    def test_atom_export_bytes(self, quartic, h0, tmp_path, shape, params,
                               cells):
        # the per-row writer is the reference; plateaus at +-0.5 give
        # zero-normal atoms, and the atom count spans a partial chunk
        from aclab.tables import CHUNK_ROWS
        from aclab.varifold import export_atoms
        dom = build_domain(shape, params, cells)
        x = dom.points[:, 0]
        u = np.clip(3.0 * np.sin(7.0 * x + dom.points.sum(axis=1)), -0.5, 0.5)
        V = build_varifold(Solution(field=Field(dom, 0.05, u), lam=0.0,
                                    residual_norm=0.0, iterations=0),
                           quartic, h0)
        assert V.weights.size > CHUNK_ROWS and V.weights.size % CHUNK_ROWS
        assert V.zero_flag.any() and not V.zero_flag.all()
        coords = ("x", "y")[:dom.dim]
        row = ",".join(["%.17g"] * (2 * dom.dim + 1) + ["%d"]) + "\n"
        table = np.column_stack((V.points, V.weights, V.normals, V.zero_flag))
        ref = ",".join(coords + ("weight",) + tuple("n" + c for c in coords)
                       + ("zero_flag",)) + "\n"
        ref += "".join(row % tuple(r) for r in table.tolist())
        export_atoms(V, tmp_path / "atoms.csv")
        assert (tmp_path / "atoms.csv").read_bytes() == ref.encode()

    def test_atom_export_columns(self, band_varifold, tmp_path):
        from aclab.varifold import export_atoms
        path = tmp_path / "atoms.csv"
        export_atoms(band_varifold, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "x,y,weight,nx,ny,zero_flag"
        assert len(lines) == band_varifold.weights.size + 1

    @pytest.mark.parametrize("shape,params,recipe", [
        ("disk", (1.0,), "radial"), ("rectangle", (1.0, 1.0), "step-x"),
        ("annulus", (0.4, 1.0), "step-x")])
    def test_sampling_keeps_the_interior_margin(self, shape, params, recipe):
        # every interface node farther from the boundary than min(0.15
        # extent, half the largest distance to it) is a candidate, and no
        # node within that margin: 0.3 on the unit disk, 0.15 on the unit
        # square, half the largest distance on the thin annulus
        dom = build_domain(shape, params, 64)
        f = seed_field(dom, 0.08, recipe, 0.3)
        sol = Solution(field=f, lam=0.0, residual_norm=0.0, iterations=0)
        d = signed_distance(dom)
        margin = {"disk": 0.3, "rectangle": 0.15,
                  "annulus": 0.5 * float(d.max())}[shape]
        assert margin == min(0.15 * dom.extent, 0.5 * float(d.max()))
        band = np.abs(f.values) <= 0.5
        assert np.any(band & (d > 0.0) & (d <= margin))
        pts = sample_interface_nodes(sol, dom.n_nodes,
                                     np.random.default_rng(5))
        want = dom.points[band & (d > margin)]
        assert len(pts) == len(want) > 0
        assert np.array_equal(np.unique(pts, axis=0), np.unique(want, axis=0))

    def test_interface_within_the_margin_is_named(self):
        # on the 1 x 0.5 half-disk the radial m = 0.3 interface hugs the
        # flat side: every node with |u| <= 0.5 lies within the margin
        # 0.246, and the error says so rather than that there is none
        dom = build_domain("half-disk", (1.0,), (128, 64))
        f = seed_field(dom, 0.04, "radial", 0.3)
        sol = Solution(field=f, lam=0.0, residual_norm=0.0, iterations=0)
        band = int(np.count_nonzero(np.abs(f.values) <= 0.5))
        assert band == 650
        with pytest.raises(NoInterface) as info:
            sample_interface_nodes(sol, 10, np.random.default_rng(1))
        assert str(info.value) == (
            "no interface nodes (|u| <= 0.5) beyond the interior margin "
            "0.246: 650 lie within it")
        bare = Solution(field=Field(dom, 0.04, np.ones(dom.n_nodes)),
                        lam=0.0, residual_norm=0.0, iterations=0)
        with pytest.raises(NoInterface, match=r"0\.246: 0 lie within it$"):
            sample_interface_nodes(bare, 10, np.random.default_rng(1))

    def test_sampling_excludes_pure_phase(self, band_sol):
        rng = np.random.default_rng(2)
        dom = band_sol.field.dom
        pts = sample_interface_nodes(band_sol, 20, rng)
        u = band_sol.field.values
        for p in pts:
            k = np.argmin(np.linalg.norm(dom.points - p, axis=1))
            assert abs(u[k]) <= 0.5


class TestHalfDisk:
    def test_solve_and_contact_density(self, quartic, h0):
        # interface hits the flat edge of the half-disk orthogonally
        dom = build_domain("half-disk", (1.0,), (128, 64))
        sol = solve_single(dom, quartic, 0.05, constraint=0.0,
                           recipe="step-x")
        assert sol.residual_norm <= 1e-10
        V = build_varifold(sol, quartic, h0)
        assert V.mass == pytest.approx(1.0, abs=0.08)
        contact = np.array([0.0, 0.0])
        rr = radius_ladder(dom, 0.05, contact)
        curve = density_estimate(V, contact, rr)
        assert 0.4 <= curve.plateau() <= 0.6


class TestRowKernelCallSites:
    """The diagnostics that reduce per-node rows through the row kernels
    give, bit for bit, what numpy's row reductions (linalg.norm, sum over
    axis 1, trace, einsum) give on a disk-64 solution."""

    @pytest.fixture(scope="class")
    def disk64(self, quartic, h0):
        dom = build_domain("disk", (1.0,), 64)
        sol = solve_single(dom, quartic, 0.08, constraint=0.3,
                           recipe="radial")
        return sol, build_varifold(sol, quartic, h0)

    @staticmethod
    def same_bits(got, want):
        got, want = np.asarray(got), np.asarray(want)
        assert got.shape == want.shape
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    @staticmethod
    def rotational_reference(dom, rng):
        # make_rotational_field's draws from rng, and its field as a
        # function of the points, with numpy reductions and every factor
        # computed per call
        R = 0.5 * dom.extent
        centers = rng.uniform(-0.8 * R, 0.8 * R, size=(3, 2))
        sig = rng.uniform(0.2 * R, 0.5 * R, size=3)
        amp = rng.uniform(-1.0, 1.0, size=3)
        r_support = 0.45 * float(np.min(dom.u_hi - dom.u_lo))

        def at(pts):
            psi = np.zeros(pts.shape[0])
            for c, s, am in zip(centers, sig, amp):
                d2 = np.sum((pts - c[None, :]) ** 2, axis=1)
                psi += am * np.exp(-0.5 * d2 / s**2)
            psi *= radial_cutoff(np.linalg.norm(pts, axis=1) / r_support)
            return psi[:, None] * np.stack([-pts[:, 1], pts[:, 0]], axis=1)

        return at

    def test_fields_and_norms(self, disk64, quartic):
        sol, _ = disk64
        f = sol.field
        g = field_gradient(f)
        kin = 0.5 * f.epsilon * np.sum(g * g, axis=1)
        self.same_bits(density_fields(f, quartic).e,
                       kin + quartic.w(f.values) / f.epsilon)
        dom = f.dom
        X = make_rotational_field(dom, np.random.default_rng(11))
        values = self.rotational_reference(
            dom, np.random.default_rng(11))(dom.points)
        self.same_bits(X.values, values)
        J = node_jacobian(dom, values)
        c1 = (float(np.linalg.norm(values, axis=1).max())
              + float(np.sqrt(np.sum(J * J, axis=(1, 2))).max()))
        assert X.c1_norm == c1

    def test_rotational_factors_kept_per_domain(self, monkeypatch):
        # the cutoff and (-y, x) at the nodes and the boundary samples are
        # computed on a domain's first rotational field only; every field
        # keeps the bits of computing them per call, off the grid too
        from aclab import diagnostics
        dom = build_domain("disk", (1.0,), 64)
        calls = []
        real = diagnostics.radial_cutoff
        monkeypatch.setattr(diagnostics, "radial_cutoff",
                            lambda t: calls.append(1) or real(t))
        rng, ref = np.random.default_rng(21), np.random.default_rng(21)
        fields = [make_rotational_field(dom, rng) for _ in range(3)]
        assert len(calls) == 2
        off_grid = np.random.default_rng(22).uniform(-1.0, 1.0, (50, 2))
        for X in fields:
            at = self.rotational_reference(dom, ref)
            values = at(dom.points)
            self.same_bits(X.values, values)
            self.same_bits(X.boundary_values, at(dom.boundary.points))
            self.same_bits(X.evaluator(off_grid), at(off_grid))
            self.same_bits(X.jacobian, node_jacobian(dom, values))

    def test_first_variation_and_pohozaev(self, disk64, quartic):
        sol, V = disk64
        f = sol.field
        dom, eps = f.dom, f.epsilon
        X = make_rotational_field(dom, np.random.default_rng(12))
        g = field_gradient(f)
        gn = np.linalg.norm(g, axis=1)
        live = ~V.zero_flag
        self.same_bits(V.normals[live], g[live] / gn[live, None])
        J = X.jacobian[live]
        nu = V.normals[live]
        div = np.trace(J, axis1=1, axis2=2)
        nn = np.einsum("iab,ia,ib->i", J, nu, nu)
        assert first_variation(V, X) == float(np.sum(V.weights[live]
                                                     * (div - nn)))
        J = X.jacobian
        lam0 = max(1.0, abs(sol.lam))
        wt = (quartic.w(f.values) - eps * sol.lam * f.values
              + eps * lam0 * C0)
        e_t = 0.5 * eps * np.sum(g * g, axis=1) + wt / eps
        lhs = float(np.sum(dom.cut_cell_weights
                           * (e_t * np.trace(J, axis1=1, axis2=2)
                              - eps * np.einsum("iab,ia,ib->i", J, g, g))))
        xn = np.sum(X.boundary_values * dom.boundary.normals, axis=1)
        rhs = float(np.sum(dom.boundary.weights * e_t[dom.boundary.node]
                           * xn))
        assert pohozaev_residual(sol, quartic, X) == abs(lhs - rhs)

    def test_density_and_ball_weights(self, disk64):
        sol, V = disk64
        dom = sol.field.dom
        h = dom.cell_size
        x = sample_interface_nodes(sol, 1, np.random.default_rng(13))[0]
        radii = radius_ladder(dom, sol.field.epsilon, x)
        assert radii.size >= 2
        live = ~V.zero_flag
        dist = np.linalg.norm(V.points[live] - x[None, :], axis=1)
        theta = [float(V.weights[live][dist < r].sum()) / (2.0 * r)
                 for r in radii]
        self.same_bits(density_estimate(V, x, radii).theta, theta)
        s = np.linalg.norm(dom.points - x[None, :], axis=1)
        values = np.stack([sol.field.values, dom.points[:, 0]])
        sums, _, _ = ball_integrals(dom, x, radii, values)
        for r, got in zip(radii, sums.T):
            idx = np.flatnonzero(s < r + h)
            w = (np.clip(0.5 + (r - s[idx]) / h, 0.0, 1.0)
                 * dom.cut_cell_weights[idx])
            idx, w = idx[w > 0.0], w[w > 0.0]
            self.same_bits(got, [np.sum(w * v[idx]) for v in values])
