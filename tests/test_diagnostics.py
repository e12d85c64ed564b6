import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aclab.diagnostics import (C0, MONOTONICITY_TOLERANCE, OMEGA, RatioCurve,
                               _smallest_passing, almost_monotonicity_fit,
                               boundary_energy, cutoff_derivatives,
                               density_fields, energy_ratio_curve,
                               equipartition_report,
                               make_boundary_normal_field, make_radial_field,
                               make_rotational_field, monotonicity_scan,
                               plateau_value, pohozaev_residual,
                               radius_ladder, scaled_cutoff_derivatives,
                               xi_integral_bound_fit)
from aclab.errors import (BallEscapesU, InvalidCutoffScale, NoPlateau,
                          RadiusTooSmall)
from aclab.geometry import build_domain, mirror_maps, row_distance
from aclab.potential import SQRT2, DoubleWell
from aclab.solver import (Field, Solution, assemble_energy, epsilon_sweep,
                          seed_field, solve_single)
from aclab.varifold import build_varifold

H0 = 2.0 * math.sqrt(2.0) / 3.0


@pytest.fixture(scope="module")
def quartic():
    return DoubleWell()


@pytest.fixture(scope="module")
def rect_sol(quartic):
    dom = build_domain("rectangle", (1.0, 1.0), (128, 128))
    return solve_single(dom, quartic, 0.04, constraint=0.0, recipe="step-x")


@pytest.fixture(scope="module")
def line_sweep(quartic):
    dom = build_domain("interval", (1.0,), 1024)
    return epsilon_sweep(dom, quartic, [0.1, 0.05, 0.025], constraint=0.0)


def loop_balls(dom, x, radii):
    """Per radius, (center, node_index, node_weights, boundary_flag) of the
    ball: the per-radius generator ratio curves used before a ladder was
    integrated in one call, kept as the reference for
    geometry.ball_integrals."""
    h = dom.cell_size
    x = np.asarray(x, dtype=float)
    dist_b = float(dom.distance_to_boundary(x[None, :])[0])
    boundary_flag = abs(dist_b) < 0.5 * h
    if boundary_flag:
        x = dom.nearest_boundary_point(x)
    s = row_distance(dom.points, x)
    near = np.flatnonzero(s < max(radii, default=0.0) + h)
    s = s[near]
    for r in radii:
        if r <= 2.0 * h:
            raise RadiusTooSmall(f"radius {r} must exceed 2h = {2 * h}")
        if np.any(x - r < dom.u_lo) or np.any(x + r > dom.u_hi):
            raise BallEscapesU(
                f"ball of radius {r} at {x} leaves the padding box U")
        inside = s < r + h
        idx = near[inside]
        frac = np.clip(0.5 + (r - s[inside]) / h, 0.0, 1.0)
        w = frac * dom.cut_cell_weights[idx]
        keep = w > 0.0
        yield x, idx[keep], w[keep], boundary_flag


def loop_ratio_curve(f, well, x, radii, lam):
    """energy_ratio_curve as a loop over the balls with four np.sum calls
    each: (center, boundary flag, rows I, I_tilde, e_tilde, -xi_tilde and
    xi+ integrals)."""
    d = density_fields(f, well)
    shift = -lam * f.values + max(1.0, abs(lam)) * C0
    et, xt = d.e + shift, d.xi - shift
    n = f.dom.dim
    radii = np.sort(np.asarray(radii, dtype=float))
    rows = np.empty((5, radii.size))
    center = flag = None
    for k, (r, (center, bi, bw, flag)) in enumerate(
            zip(radii, loop_balls(f.dom, x, radii))):
        norm = OMEGA[n - 1] * r ** (n - 1)
        rows[0, k] = float(np.sum(bw * d.e[bi])) / norm
        rows[2, k] = float(np.sum(bw * et[bi]))
        rows[3, k] = float(np.sum(bw * (-xt[bi])))
        rows[4, k] = float(np.sum(bw * d.xi_plus[bi]))
        rows[1, k] = rows[2, k] / norm
    return center, flag, rows


def loop_monotonicity_scan(curve, dom):
    """monotonicity_scan's (violations, max_deficit, fitted_c1) as it was
    written before its factors were hoisted: the loop reference."""
    kappa0 = dom.kappa0 if curve.boundary_centered else 0.0
    rho, n = curve.radii, dom.dim

    def deficits(c1):
        F = np.exp(c1 * rho) * rho ** (1 - n) * curve.e_tilde_integrals
        G = (np.exp(c1 * rho) / (1.0 + 3.0 * kappa0 * rho)
             * rho ** (-n) * curve.neg_xi_tilde_integrals)
        margin = np.diff(F) - 0.5 * np.diff(rho) * (G[:-1] + G[1:])
        return np.maximum(0.0, -margin)

    def passes(c):
        return bool(np.all(deficits(c) <= MONOTONICITY_TOLERANCE))

    d0 = deficits(0.0)
    viol = [(float(rho[j]), float(rho[j + 1]), float(d0[j]))
            for j in np.flatnonzero(d0 > MONOTONICITY_TOLERANCE)]
    return viol, float(d0.max(initial=0.0)), _smallest_passing(passes, 200.0,
                                                               50)


def loop_almost_monotonicity_fit(curve):
    """almost_monotonicity_fit with one pass per radius r over the s < r."""
    r, I = curve.radii, curve.I_values

    def ok(c):
        for j in range(len(r)):
            lower = np.exp(-c * (r[j] - r[:j])) * I[:j] - c * r[j] ** 0.125
            if np.any(I[j] < lower - 1e-12):
                return False
        return True

    return _smallest_passing(ok, 1e4, 60)


class TestDensityFields:
    def test_pure_phase(self, quartic):
        dom = build_domain("interval", (1.0,), 64)
        d = density_fields(Field(dom, 0.1, np.ones(dom.n_nodes)), quartic)
        assert np.all(d.e == 0.0)
        assert np.all(d.xi == 0.0)

    def test_constant_zero(self, quartic):
        dom = build_domain("interval", (1.0,), 64)
        d = density_fields(Field(dom, 0.1, np.zeros(dom.n_nodes)), quartic)
        assert np.allclose(d.e, 2.5)
        assert np.allclose(d.xi, -2.5)

    def test_heteroclinic_near_equipartition(self, quartic):
        dom = build_domain("interval", (1.0,), 1024)
        eps = 0.05
        u = np.tanh((dom.points[:, 0] - 0.5) / (eps * SQRT2))
        d = density_fields(Field(dom, eps, u), quartic)
        # discrete gradients leave an O(h^2/eps^3) defect
        assert np.abs(d.xi).max() <= 0.01 * d.e.max()

    def test_part_identities(self, quartic, rect_sol):
        d = density_fields(rect_sol.field, quartic)
        assert d.e.min() >= 0.0
        assert np.all(np.abs(d.xi) <= d.e + 1e-15)
        assert np.array_equal(d.xi_plus, np.maximum(d.xi, 0.0))

    def test_kept_per_field_and_well(self, quartic, rect_sol):
        f = rect_sol.field
        d = density_fields(f, quartic)
        assert density_fields(f, quartic) is d
        for a in (d.e, d.xi, d.xi_plus):
            with pytest.raises(ValueError):
                a[0] = 0.0
        # an equal well shares the entry; a different well gets its own,
        # here the doubled quartic
        assert density_fields(f, DoubleWell()) is d
        other = DoubleWell(kind="user-polynomial",
                           coefficients=(0.5, 0.0, -1.0, 0.0, 0.5))
        d2 = density_fields(f, other)
        assert d2 is not d and density_fields(f, other) is d2
        assert np.allclose(d2.e, d.e + (d.e - d.xi) / 2, rtol=1e-9,
                           atol=1e-9)
        fresh = Field(f.dom, f.epsilon, f.values)
        assert density_fields(fresh, quartic) is not d
        assert np.array_equal(density_fields(fresh, quartic).e, d.e)


class TestRatioCurve:
    def test_interior_interface_plateau(self, quartic, rect_sol):
        x = np.array([0.5, 0.5])
        radii = radius_ladder(rect_sol.field.dom, 0.04, x)
        c = energy_ratio_curve(rect_sol.field, quartic, x, radii,
                               lam=rect_sol.lam)
        sel = (c.radii >= 0.1) & (c.radii <= 0.3)
        assert np.all(np.abs(c.I_values[sel] - H0) <= 0.05 * H0)

    def test_boundary_contact_half(self, quartic, rect_sol):
        x = np.array([0.5, 0.0])
        radii = radius_ladder(rect_sol.field.dom, 0.04, x)
        c = energy_ratio_curve(rect_sol.field, quartic, x, radii,
                               lam=rect_sol.lam)
        assert c.boundary_centered
        val = plateau_value(c.radii, c.I_values)
        assert abs(val - 0.5 * H0) <= 0.07 * H0

    def test_pure_phase_small(self, quartic, rect_sol):
        x = np.array([0.15, 0.5])
        c = energy_ratio_curve(rect_sol.field, quartic, x,
                               [0.06, 0.08, 0.1], lam=rect_sol.lam)
        assert np.all(c.I_values < 0.05 * H0)

    def test_two_sided_density_bounds(self, quartic, rect_sol):
        # c <= I(r,x) <= C at transition nodes, with c above the floor
        dom = rect_sol.field.dom
        u = rect_sol.field.values
        d = dom.distance_to_boundary(dom.points)
        rng = np.random.default_rng(0)
        nodes = np.flatnonzero((np.abs(u) <= 0.9) & (d > 0.2))
        lo, hi = np.inf, 0.0
        for i in rng.choice(nodes, 6, replace=False):
            x = dom.points[i]
            c = energy_ratio_curve(rect_sol.field, quartic, x,
                                   radius_ladder(dom, 0.04, x), lam=rect_sol.lam)
            lo = min(lo, c.I_values.min())
            hi = max(hi, c.I_values.max())
        assert lo > 0.01 * H0
        assert hi < 10.0 * (rect_sol.energy + 1.0)

    @pytest.mark.parametrize("shape, params, cells, x, flagged", [
        ("interval", (1.0,), 256, (0.43,), False),
        ("interval", (1.0,), 256, (0.0007,), True),
        ("disk", (1.0,), 64, (0.31, -0.12), False),
        ("disk", (1.0,), 64, (0.994 * math.cos(1.0), 0.994 * math.sin(1.0)),
         True),
        ("half-disk", (1.0,), (64, 32), (0.2, 0.004), True),
        ("annulus", (0.4, 1.0), 64, (0.0, 0.72), False),
    ])
    def test_matches_loop_reference(self, quartic, shape, params, cells, x,
                                    flagged):
        # one call for the ladder gives the per-radius loop's center, flag
        # and five arrays bit for bit, at two lam on each side of 1
        dom = build_domain(shape, params, cells)
        f0 = seed_field(dom, 0.08, "radial" if dom.dim == 2 else "step-x",
                        constraint=0.3)
        noise = np.random.default_rng(5).standard_normal(dom.n_nodes)
        f = Field(dom, 0.08, f0.values + 0.01 * noise)
        x = np.array(x)
        radii = radius_ladder(dom, 0.08, x)
        assert radii.size >= 3
        for lam in (0.7, -1.3):
            center, flag, rows = loop_ratio_curve(f, quartic, x, radii, lam)
            c = energy_ratio_curve(f, quartic, x, radii[::-1], lam=lam)
            assert flag == flagged == c.boundary_centered
            assert np.array_equal(c.center, center)
            assert np.array_equal(c.radii, radii)
            for got, want in zip((c.I_values, c.I_tilde_values,
                                  c.e_tilde_integrals,
                                  c.neg_xi_tilde_integrals,
                                  c.xi_plus_integrals), rows):
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("x, radii", [
        ((0.9, 0.0), (0.3, 1.2, 1.4)),
        ((0.0, 0.0), (0.3, 1.0 / 32)),
        ((0.9, 0.0), (1.4, 1.0 / 32)),
        ((0.999, 0.01), (0.3, 0.2, 1.3)),
    ])
    def test_bad_radius_errors_match_loop(self, quartic, x, radii):
        # the same error type and message as the per-radius loop: the
        # smallest radius when it is too small, else the smallest whose
        # ball leaves U
        dom = build_domain("disk", (1.0,), 64)
        f = seed_field(dom, 0.08, "radial", constraint=0.3)
        with pytest.raises((RadiusTooSmall, BallEscapesU)) as want:
            loop_ratio_curve(f, quartic, np.array(x), radii, 0.5)
        with pytest.raises(want.type) as got:
            energy_ratio_curve(f, quartic, np.array(x), radii, lam=0.5)
        assert str(got.value) == str(want.value)

    def test_no_radius_is_typed(self, quartic):
        # an empty ladder raises, as density_estimate does, instead of
        # returning a curve without a center
        dom = build_domain("interval", (1.0,), 256)
        f = seed_field(dom, 0.05, "step-x")
        with pytest.raises(RadiusTooSmall, match="no ball radius at"):
            energy_ratio_curve(f, quartic, np.array([0.5]), [], lam=0.0)


class TestMonotonicityScan:
    def test_interior_flat_no_violations(self, quartic, rect_sol):
        x = np.array([0.5, 0.45])
        radii = radius_ladder(rect_sol.field.dom, 0.04, x)
        c = energy_ratio_curve(rect_sol.field, quartic, x, radii,
                               lam=rect_sol.lam)
        rep = monotonicity_scan(c, rect_sol.field.dom)
        assert rep.violations == []
        assert rep.fitted_c1 == 0.0

    def test_constant_field_trivial(self, quartic):
        # the shifted-potential constant makes this an exact-equality case;
        # ladder-scale radii keep the ball quadrature noise inside tolerance
        dom = build_domain("rectangle", (1.0, 1.0), (128, 128))
        f = Field(dom, 0.05, np.ones(dom.n_nodes))
        x = np.array([0.5, 0.5])
        c = energy_ratio_curve(f, quartic, x, radius_ladder(dom, 0.05, x),
                               lam=0.0)
        rep = monotonicity_scan(c, dom)
        assert rep.violations == []

    def test_boundary_centered_disk_fitted_c1(self, quartic):
        dom = build_domain("disk", (1.0,), 128)
        sol = solve_single(dom, quartic, 0.05, constraint=0.3,
                           recipe="radial")
        x = dom.nearest_boundary_point(np.array([0.9, 0.3]))
        radii = radius_ladder(dom, 0.05, x)
        c = energy_ratio_curve(sol.field, quartic, x, radii, lam=sol.lam)
        assert c.boundary_centered
        rep = monotonicity_scan(c, dom)
        assert rep.fitted_c1 <= 50.0

    def test_smallest_passing_bisection(self):
        from aclab.diagnostics import _smallest_passing
        assert _smallest_passing(lambda c: True, 200.0, 50) == 0.0
        assert _smallest_passing(lambda c: False, 200.0, 50) == math.inf
        # the upper end of the bracket: passes, within cap / 2^steps above
        c = _smallest_passing(lambda c: c >= 0.3, 1.0, 60)
        assert 0.3 <= c <= 0.3 + 2.0 ** -60

    def test_almost_monotonicity_constant(self, quartic, rect_sol):
        x = np.array([0.5, 0.55])
        radii = radius_ladder(rect_sol.field.dom, 0.04, x)
        c = energy_ratio_curve(rect_sol.field, quartic, x, radii,
                               lam=rect_sol.lam)
        assert almost_monotonicity_fit(c) < 1e3

    def test_xi_integral_bound_constant(self, quartic, rect_sol):
        x = np.array([0.5, 0.5])
        radii = radius_ladder(rect_sol.field.dom, 0.04, x)
        c = energy_ratio_curve(rect_sol.field, quartic, x, radii,
                               lam=rect_sol.lam)
        C_fit = xi_integral_bound_fit(c)
        assert np.isfinite(C_fit)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), size=st.integers(2, 10),
           dim=st.sampled_from([1, 2]), boundary=st.booleans(),
           kappa0=st.floats(0.0, 3.0))
    @example(data=None, size=6, dim=2, boundary=True, kappa0=1.0)
    def test_scans_match_loop_references(self, data, size, dim, boundary,
                                         kappa0):
        # fitted_c1, the violations and the almost-monotonicity constant of
        # the loop references, on random increasing ladders; the example
        # and many draws fail at c = 0, so both bisections run
        if data is None:
            rho = 0.05 * 2.0 ** (np.arange(size) / 4.0)
            falling = np.linspace(2.0, 1.0, size)
            I, et, nx = falling, falling * rho, 0.01 * falling
        else:
            def values(lo, hi):
                return np.array(data.draw(st.lists(
                    st.floats(lo, hi, allow_subnormal=False), min_size=size,
                    max_size=size)))

            steps = st.lists(st.floats(1.001, 1.3), min_size=size - 1,
                             max_size=size - 1)
            rho = data.draw(st.floats(0.005, 0.1)) * np.cumprod(
                [1.0, *data.draw(steps)])
            I, et, nx = values(-2.0, 3.0), values(0.0, 3.0), values(-2.0, 2.0)
        curve = RatioCurve(center=np.zeros(dim), boundary_centered=boundary,
                           radii=rho, I_values=I, I_tilde_values=I,
                           e_tilde_integrals=et, neg_xi_tilde_integrals=nx,
                           xi_plus_integrals=np.zeros(size))
        dom = SimpleNamespace(dim=dim, kappa0=kappa0)
        rep = monotonicity_scan(curve, dom)
        viol, max_deficit, fitted = loop_monotonicity_scan(curve, dom)
        assert rep.violations == viol
        assert rep.max_deficit == max_deficit
        assert rep.fitted_c1 == fitted
        assert almost_monotonicity_fit(curve) == (
            loop_almost_monotonicity_fit(curve))
        if data is None:
            assert 0.0 < fitted < math.inf
            assert 0.0 < almost_monotonicity_fit(curve) < math.inf


class TestPohozaev:
    def test_constant_field_divergence_theorem(self, quartic):
        dom = build_domain("rectangle", (1.0, 1.0), (64, 64))
        f = Field(dom, 0.05, np.ones(dom.n_nodes))
        sol = Solution(field=f, lam=0.0, residual_norm=0.0, iterations=0)
        X = make_boundary_normal_field(dom, 0.06)
        # only the W-tilde constant survives; the identity reduces to the
        # divergence theorem under quadrature
        res = pohozaev_residual(sol, quartic, X)
        assert res < 0.05

    def test_interior_field_order_two(self, quartic):
        residuals = []
        for n in (128, 256):
            dom = build_domain("interval", (1.0,), n)
            sol = solve_single(dom, quartic, 0.05, constraint=0.0)
            X = make_radial_field(dom, np.array([0.45]), 0.3)
            residuals.append(pohozaev_residual(sol, quartic, X))
        order = math.log2(residuals[0] / residuals[1])
        assert order >= 1.8

    def test_boundary_field_first_order(self, quartic):
        residuals = []
        for n in (64, 128):
            dom = build_domain("rectangle", (1.0, 1.0), (n, n))
            sol = solve_single(dom, quartic, 0.06, constraint=0.0)
            X = make_boundary_normal_field(dom, 0.08)
            residuals.append(pohozaev_residual(sol, quartic, X))
        assert residuals[1] <= 0.6 * residuals[0]


class TestBoundaryEnergy:
    def test_1d_interior_interface(self, quartic):
        dom = build_domain("interval", (1.0,), 512)
        sol = solve_single(dom, quartic, 0.025, constraint=0.0)
        assert boundary_energy(sol, quartic) <= 1e-6

    def test_2d_two_contact_lines(self, quartic, rect_sol):
        val = boundary_energy(rect_sol, quartic)
        assert 0.3 * H0 * 2 <= val <= 3.0 * H0 * 2

    def test_pure_phase_zero(self, quartic):
        dom = build_domain("rectangle", (1.0, 1.0), (32, 32))
        f = Field(dom, 0.1, np.ones(dom.n_nodes))
        sol = Solution(field=f, lam=0.0, residual_norm=0.0, iterations=0)
        assert boundary_energy(sol, quartic) == 0.0


class TestEquipartition:
    def test_ratio_tends_to_one(self, quartic, line_sweep):
        rep = equipartition_report(line_sweep, quartic)
        assert rep.rows[-1].ratio == pytest.approx(1.0, abs=0.02)

    def test_constant_field_zero_ratio(self, quartic):
        dom = build_domain("interval", (1.0,), 64)
        f = Field(dom, 0.1, np.zeros(dom.n_nodes))
        sol = Solution(field=f, lam=0.0, residual_norm=0.0, iterations=0)
        rep = equipartition_report([sol], quartic)
        assert rep.rows[0].ratio == 0.0
        assert rep.rows[0].kinetic == 0.0


class TestRadialField:
    def test_linear_inside_half_support(self):
        dom = build_domain("rectangle", (1.0, 1.0), (64, 64))
        x = np.array([0.5, 0.5])
        X = make_radial_field(dom, x, 0.4)
        r = np.linalg.norm(dom.points - x, axis=1)
        k = np.argmin(np.abs(r - 0.1))
        assert np.linalg.norm(X.values[k]) == pytest.approx(r[k], rel=1e-12)

    def test_vanishes_outside(self):
        dom = build_domain("rectangle", (1.0, 1.0), (64, 64))
        x = np.array([0.5, 0.5])
        X = make_radial_field(dom, x, 0.3)
        r = np.linalg.norm(dom.points - x, axis=1)
        assert np.all(X.values[r >= 0.3] == 0.0)

    def test_divergence_at_center(self, quartic):
        dom = build_domain("rectangle", (1.0, 1.0), (128, 128))
        x = np.array([0.5, 0.5])
        X = make_radial_field(dom, x, 0.4)
        from aclab.diagnostics import node_jacobian
        J = node_jacobian(dom, X.values)
        assert np.array_equal(X.jacobian, J) and not X.jacobian.flags.writeable
        k = np.argmin(np.linalg.norm(dom.points - x, axis=1))
        assert np.trace(J[k]) == pytest.approx(2.0, abs=1e-6)

    def test_interior_support_is_tangential(self):
        dom = build_domain("rectangle", (1.0, 1.0), (64, 64))
        X = make_radial_field(dom, np.array([0.5, 0.5]), 0.3)
        assert X.tangential_on_boundary


class TestBoundaryNormalField:
    def test_equals_normal_on_boundary(self):
        dom = build_domain("disk", (1.0,), 64)
        X = make_boundary_normal_field(dom, 0.05)
        assert np.allclose(X.boundary_values, dom.boundary.normals, atol=1e-14)
        assert not X.tangential_on_boundary

    def test_vanishes_deep_inside(self):
        dom = build_domain("disk", (1.0,), 64)
        a = 0.05
        X = make_boundary_normal_field(dom, a)
        d = dom.distance_to_boundary(dom.points)
        assert np.all(np.linalg.norm(X.values[d >= 4 * a], axis=1) == 0.0)

    def test_cutoff_derivative_bounds(self):
        # sampled bounds 0 <= chi_a' <= 1 and 0 <= -chi_a'' <= 1/(2a)
        a = 0.07
        s = np.linspace(0.0, 5 * a, 1000)
        cp, cpp = scaled_cutoff_derivatives(s, a)
        assert np.all((0.0 <= cp) & (cp <= 1.0 + 1e-15))
        assert np.all((0.0 <= -cpp) & (-cpp <= 0.5 / a + 1e-12))

    def test_cutoff_identity_region(self):
        s = np.linspace(0.0, 1.0, 100)
        cp, cpp = cutoff_derivatives(s)
        assert np.all(cp == 1.0)
        assert np.all(cpp == 0.0)

    def test_invalid_scale(self):
        dom = build_domain("disk", (1.0,), 64)
        with pytest.raises(InvalidCutoffScale):
            make_boundary_normal_field(dom, 0.3)
        with pytest.raises(InvalidCutoffScale):
            make_boundary_normal_field(dom, -0.1)


class TestRotationalField:
    def test_tangential_on_disk(self):
        dom = build_domain("disk", (1.0,), 64)
        rng = np.random.default_rng(4)
        X = make_rotational_field(dom, rng)
        assert X.tangential_on_boundary
        assert X.c1_norm > 0.0


class TestSlackBounds:
    def test_pointwise_xi_bound(self, quartic, line_sweep):
        for sol in line_sweep:
            d = density_fields(sol.field, quartic)
            assert d.xi.max() <= sol.field.epsilon ** (-0.8)

    def test_plateau_requires_stability(self):
        with pytest.raises(NoPlateau):
            plateau_value(np.array([0.1, 0.2, 0.4]),
                          np.array([0.0, 5.0, 0.0]))


def quarter_turn(dom):
    """The node map of a quarter-turn of a square grid about its centre:
    the node at grid index (i, j) goes to (n - 1 - j, i)."""
    i, j = np.unravel_index(dom.grid_index, dom.n_cells)
    return dom.active_of_grid[np.ravel_multi_index(
        (dom.n_cells[1] - 1 - j, i), dom.n_cells)]


class TestMirrorInvariance:
    @given(symmetry=st.sampled_from([
               (("rectangle", (1.0, 0.5)), 0), (("rectangle", (1.0, 0.5)), 1),
               (("disk", (1.0,)), 0), (("disk", (1.0,)), 1),
               (("rectangle", (1.0, 1.0)), "quarter-turn")]),
           quarter=st.integers(8, 20), seed=st.integers(0, 2**32 - 1),
           eps=st.floats(0.08, 0.3))
    @settings(max_examples=30, deadline=None)
    def test_mirror_keeps_energy_discrepancy_and_mass(self, symmetry, quarter,
                                                      seed, eps):
        # mapping a field by a symmetry of the domain (u o sigma) leaves its
        # energy, L1 discrepancy and varifold mass unchanged: the reflection
        # across a mirror axis, or the quarter-turn of the unit square, which
        # mirror_maps does not cover
        well = DoubleWell()
        shape, axis = symmetry
        dom = build_domain(*shape, 4 * quarter)
        if axis == "quarter-turn":
            image = quarter_turn(dom)
            assert dom.n_nodes == 16 * quarter**2
            assert np.array_equal(dom.cut_cell_weights[image],
                                  dom.cut_cell_weights)
        else:
            image = mirror_maps(dom)[axis]
        assert image is not None
        rng = np.random.default_rng(seed)
        normal = rng.standard_normal(2)
        front = dom.points @ (normal / np.linalg.norm(normal))
        u = (np.tanh((front - 0.2 * rng.standard_normal()) / (eps * SQRT2))
             + 0.1 * rng.standard_normal(dom.n_nodes))
        measured = []
        for v in (u, u[image]):
            sol = Solution(field=Field(dom, eps, v), lam=0.0,
                           residual_norm=0.0, iterations=0)
            measured.append((
                assemble_energy(sol.field, well),
                equipartition_report([sol], well).rows[0].xi_l1,
                build_varifold(sol, well, H0).mass))
        for a, b in zip(*measured):
            assert b == pytest.approx(a, rel=1e-12, abs=0.0)
