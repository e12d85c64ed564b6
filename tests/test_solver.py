import gc
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scipy.sparse as sp
from scipy.sparse.linalg import splu

from aclab import solver
from aclab.errors import Blowup, UnresolvedInterface
from aclab.geometry import build_domain
from aclab.potential import SQRT2, DoubleWell
from aclab.solver import (LU_OPTIONS, Field, Solution, assemble_energy,
                          energy_gradient, epsilon_sweep, gradient_flow,
                          newton_refine, resharpen, residual_norm, seed_field,
                          solve_single, stiffness_matrix)

H0 = 2.0 * math.sqrt(2.0) / 3.0
SHAPES = [("interval", (1.0,)), ("rectangle", (1.0, 0.5)), ("disk", (1.0,)),
          ("annulus", (0.4, 1.0)), ("half-disk", (1.0,))]


@pytest.fixture(scope="module")
def quartic():
    return DoubleWell()


@pytest.fixture(scope="module")
def line256():
    return build_domain("interval", (1.0,), 256)


def tanh_field(dom, eps, x0=0.5):
    return Field(dom, eps, np.tanh((dom.points[:, 0] - x0) / (eps * SQRT2)))


class TestField:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_values(self, line256, bad):
        u = np.zeros(line256.n_nodes)
        u[17] = bad
        with pytest.raises(ValueError, match="finite"):
            Field(line256, 0.1, u)

    def test_rejects_bad_epsilon_and_shape(self, line256):
        with pytest.raises(ValueError):
            Field(line256, 0.0, np.zeros(line256.n_nodes))
        with pytest.raises(ValueError):
            Field(line256, 0.1, np.zeros(line256.n_nodes + 1))


class TestAssembleEnergy:
    def test_well_value_zero(self, quartic, line256):
        f = Field(line256, 0.1, np.ones(line256.n_nodes))
        assert assemble_energy(f, quartic) == 0.0

    def test_constant_zero_field(self, quartic, line256):
        f = Field(line256, 0.1, np.zeros(line256.n_nodes))
        assert assemble_energy(f, quartic) == pytest.approx(2.5, rel=1e-12)

    def test_heteroclinic_energy(self, quartic):
        dom = build_domain("interval", (1.0,), 1024)
        f = tanh_field(dom, 0.02)
        assert assemble_energy(f, quartic) == pytest.approx(0.9428, abs=0.01)

    @pytest.mark.parametrize("shape,params", SHAPES)
    def test_matches_face_sum(self, quartic, shape, params):
        # the kinetic term from u.A.u against the sum over faces of the
        # face weight min(w_i, w_j) times the squared difference quotient
        dom = build_domain(shape, params, 48)
        u = seed_field(dom, 0.1, "radial" if dom.dim == 2 else "step-x",
                       0.2).values
        h, w = dom.cell_size, dom.cut_cell_weights
        kinetic = 0.0
        for a in range(dom.dim):
            i = np.flatnonzero(dom.neighbors[:, a, 1] >= 0)
            j = dom.neighbors[i, a, 1]
            kinetic += 0.5 * 0.1 * float(
                np.sum(np.minimum(w[i], w[j]) * ((u[j] - u[i]) / h) ** 2))
        ref = kinetic + float(np.sum(w * quartic.w(u)) / 0.1)
        assert assemble_energy(Field(dom, 0.1, u), quartic) == pytest.approx(
            ref, rel=1e-13, abs=0.0)


class TestEnergyGradient:
    def test_local_max_is_critical(self, quartic, line256):
        f = Field(line256, 0.07, np.full(line256.n_nodes, quartic.gamma))
        assert np.abs(energy_gradient(f, quartic)).max() < 1e-12

    def test_constant_shift(self, quartic, line256):
        f = Field(line256, 0.1, np.zeros(line256.n_nodes))
        g = energy_gradient(f, quartic, lam=0.3)
        assert np.allclose(g, -0.3, atol=1e-14)

    def test_stencil_consistency_order(self, quartic):
        # residual of the exact profile quarters when h halves
        maxes = []
        for n in (256, 512):
            dom = build_domain("interval", (1.0,), n)
            f = tanh_field(dom, 0.05)
            maxes.append(np.abs(energy_gradient(f, quartic)).max())
        assert maxes[1] == pytest.approx(maxes[0] / 4.0, rel=0.2)

    def test_matches_fd_derivative_of_energy(self, quartic):
        # elementwise against central differences of assemble_energy,
        # including cut cells of a curved domain
        dom = build_domain("disk", (1.0,), 24)
        rng = np.random.default_rng(5)
        u = 0.3 * rng.standard_normal(dom.n_nodes)
        f = Field(dom, 0.3, u)
        g = energy_gradient(f, quartic)
        w = dom.cut_cell_weights
        order = np.argsort(w)
        picks = np.r_[order[:3], order[-3:],
                      rng.integers(0, dom.n_nodes, 6)]
        delta = 1e-6
        for i in picks:
            up, um = u.copy(), u.copy()
            up[i] += delta
            um[i] -= delta
            fd = (assemble_energy(Field(dom, 0.3, up), quartic)
                  - assemble_energy(Field(dom, 0.3, um), quartic)) / (2 * delta)
            ref = fd / w[i]
            assert g[i] == pytest.approx(ref, rel=1e-6, abs=1e-8)


class TestGradientFlow:
    def test_flow_to_nearest_well(self, quartic):
        # the explicit-reaction floor sits near (cg rtol)/dt, so the stop
        # tolerance stays a notch above it
        dom = build_domain("interval", (1.0,), 16)
        f = Field(dom, 0.1, np.full(dom.n_nodes, 0.2))
        sol = gradient_flow(f, quartic, stop_tol=1e-5, max_steps=30000)
        assert sol.converged
        assert sol.lam == 0.0
        assert np.abs(sol.field.values - 1.0).max() < 1e-5
        assert sol.energy < 1e-8

    def test_energy_descent(self, quartic):
        dom = build_domain("interval", (1.0,), 64)
        rng = np.random.default_rng(1)
        f = Field(dom, 0.1, 0.5 * rng.standard_normal(dom.n_nodes))
        hist = []
        gradient_flow(f, quartic, constraint=0.0, stop_tol=0.0,
                      max_steps=300, history=hist)
        energies = [e for _, e, _ in hist]
        diffs = np.diff(energies)
        assert diffs.max() <= 1e-12

    def test_mean_conservation(self, quartic):
        dom = build_domain("interval", (1.0,), 64)
        rng = np.random.default_rng(2)
        f = Field(dom, 0.1, 0.4 + 0.3 * rng.standard_normal(dom.n_nodes))
        hist = []
        gradient_flow(f, quartic, constraint=0.4, stop_tol=0.0,
                      max_steps=200, history=hist)
        means = np.array([m for _, _, m in hist])
        assert np.abs(means - 0.4).max() < 1e-10

    def test_blowup_guard(self, quartic):
        dom = build_domain("interval", (1.0,), 16)
        f = Field(dom, 0.1, np.full(dom.n_nodes, 11.0))
        with pytest.raises(Blowup):
            gradient_flow(f, quartic, max_steps=10)

    def test_dt_stability_gate(self, quartic):
        dom = build_domain("interval", (1.0,), 16)
        f = Field(dom, 0.1, np.zeros(dom.n_nodes))
        with pytest.raises(ValueError):
            gradient_flow(f, quartic, dt=0.1 * dom.cell_size**2)

    def test_max_steps_returns_best_flagged(self, quartic):
        dom = build_domain("interval", (1.0,), 32)
        f = Field(dom, 0.1, np.full(dom.n_nodes, 0.2))
        sol = gradient_flow(f, quartic, stop_tol=1e-14, max_steps=5)
        assert not sol.converged
        assert np.isfinite(sol.residual_norm)


class TestNewtonRefine:
    def test_from_exact_profile(self, quartic):
        dom = build_domain("interval", (1.0,), 256)
        f = tanh_field(dom, 0.05)
        start = Solution(field=f, lam=0.0, residual_norm=1e9, iterations=0)
        sol = newton_refine(start, quartic, tol=1e-12)
        assert sol.factorizations <= 2
        assert sol.residual_norm <= 1e-12

    def test_discrete_solution_is_fixed_point(self, quartic):
        dom = build_domain("interval", (1.0,), 256)
        f = tanh_field(dom, 0.05)
        start = Solution(field=f, lam=0.0, residual_norm=1e9, iterations=0)
        sol = newton_refine(start, quartic, tol=1e-12)
        again = newton_refine(sol, quartic, tol=1e-12)
        assert again.iterations == 0
        assert np.array_equal(again.field.values, sol.field.values)

    def test_refines_partially_converged(self, quartic):
        # the flow's reachable floor is far above 1e-6 at the default dt, so
        # the 1e-6 state is produced by a cheap first Newton stage
        dom = build_domain("interval", (1.0,), 128)
        rough = newton_refine(
            gradient_flow(tanh_field(dom, 0.1), quartic, constraint=0.0,
                          stop_tol=1e-2, max_steps=100),
            quartic, tol=1e-6)
        assert rough.residual_norm <= 1e-6
        sol = newton_refine(rough, quartic, tol=1e-12)
        assert sol.residual_norm <= 1e-12
        assert sol.iterations <= 5

    @pytest.mark.parametrize("shape,params,recipe,m", [
        ("interval", (1.0,), "step-x", 0.3),
        ("disk", (1.0,), "radial", 0.3),
        ("rectangle", (1.0, 0.5), "step-x", 0.0)])
    def test_reports_its_own_residual_norm(self, quartic, shape, params,
                                           recipe, m):
        # Newton and residual_norm evaluate one residual the same way; 96
        # cells give cell weights that are not powers of two, where two
        # different roundings of the norm would differ
        dom = build_domain(shape, params, 96)
        sol = solve_single(dom, quartic, 0.1, constraint=m, recipe=recipe)
        assert sol.residual_norm == residual_norm(sol.field, quartic,
                                                  sol.lam)

    def test_unstable_critical_point_is_fixed(self, quartic, line256):
        f = Field(line256, 0.1, np.full(line256.n_nodes, quartic.gamma))
        start = Solution(field=f, lam=0.0,
                         residual_norm=0.0, iterations=0)
        sol = newton_refine(start, quartic, tol=1e-12)
        assert sol.iterations == 0
        assert np.allclose(sol.field.values, quartic.gamma)
        assert sol.residual_norm <= 1e-12

    def test_chord_direction_lowering_nothing_is_not_taken(self, quartic,
                                                           monkeypatch):
        # acceptance's disk solve meets a chord direction along which 30
        # halvings lower nothing; Newton refactors at that iterate instead
        # of taking the last trial, so every LU is built at the lowest
        # residual norm evaluated so far
        dom = build_domain("disk", (1.0,), 256)
        w = dom.cut_cell_weights
        norms, lowest, lus = {}, [math.inf], []

        def key(d):
            return hashlib.sha1(d.tobytes()).digest()

        def recording_residual(dom, eps, well, u, lam):
            F = residual(dom, eps, well, u, lam)
            norms[key(w * well.wpp(u) / eps)] = rn = solver._norm(dom, F)
            lowest[0] = min(lowest[0], rn)
            return F

        def recording_factor(dom, eps, d):
            lus.append((norms[key(d)], lowest[0]))
            return factor(dom, eps, d)

        residual, factor = solver._residual, solver._factor_jacobian
        monkeypatch.setattr(solver, "_residual", recording_residual)
        monkeypatch.setattr(solver, "_factor_jacobian", recording_factor)
        sol = solve_single(dom, quartic, 0.02, constraint=0.3,
                           recipe="radial")
        assert sol.residual_norm <= 1e-10
        assert len(lus) == sol.factorizations > 1
        assert all(rn == low for rn, low in lus)


    @given(st.floats(-0.5, 0.5))
    @settings(max_examples=25, deadline=None)
    def test_mean_flip_symmetry(self, m):
        # W is even: the step-x seeds for m and -m are mirror-negations of
        # each other, so the energy is unchanged and lambda flips sign
        dom = build_domain("interval", (1.0,), 256)
        well = DoubleWell()
        a = solve_single(dom, well, 0.05, constraint=m)
        b = solve_single(dom, well, 0.05, constraint=-m)
        assert abs(a.energy - b.energy) <= 1e-10
        assert abs(a.lam + b.lam) <= 1e-10


class TestFactorizations:
    @pytest.fixture(scope="class")
    def disk_jacobian(self, quartic):
        dom = build_domain("disk", (1.0,), 128)
        eps = 0.05
        u = seed_field(dom, eps, "radial", 0.3).values
        w = dom.cut_cell_weights
        d = w * quartic.wpp(u) / eps
        J = (eps * stiffness_matrix(dom) + sp.diags(d)).tocsc()
        return dom, eps, d, J

    @pytest.fixture
    def recorded_splu(self, monkeypatch):
        # (permc_spec, L+U fill) of every LU the solver makes
        calls = []

        def recording(M, permc_spec, **kw):
            lu = splu(M, permc_spec=permc_spec, **kw)
            calls.append((permc_spec, lu.L.nnz + lu.U.nnz))
            return lu

        monkeypatch.setattr(solver, "splu", recording)
        return calls

    def test_reordered_natural_factor_keeps_fill(self, disk_jacobian,
                                                 recorded_splu):
        # the first LU under a key orders by MMD and keeps p; the later
        # one factors J[p][:, p] in the natural order with the same fill
        dom, _, _, J = disk_jacobian
        b = np.random.default_rng(3).standard_normal(J.shape[0])
        for _ in range(2):
            x = solver._ordered_lu(dom, "test_order", J.tocsr())(b)
            assert np.linalg.norm(J @ x - b) <= 1e-12 * np.linalg.norm(b)
        (first, fill0), (later, fill1) = recorded_splu
        assert (first, later) == ("MMD_AT_PLUS_A", "NATURAL")
        assert fill0 == fill1
        mmd = splu(J, permc_spec="MMD_AT_PLUS_A", **LU_OPTIONS)
        assert np.array_equal(dom.cache["test_order"],
                              np.argsort(mmd.perm_c))

    def test_domain_keeps_one_order(self, disk_jacobian):
        # the second factorization on a domain runs through the kept order
        dom, eps, d, J = disk_jacobian
        b = np.random.default_rng(4).standard_normal(J.shape[0])
        kept = None
        for scale in (1.0, 0.5):
            solve = solver._factor_jacobian(dom, eps, scale * d)
            Js = J + sp.diags((scale - 1.0) * d)
            if kept is None:
                kept = dom.cache["schur_order"]
            assert dom.cache["schur_order"] is kept
            x = solve(b)
            assert np.linalg.norm(Js @ x - b) <= 1e-12 * np.linalg.norm(b)

    @pytest.mark.parametrize("shape,params", SHAPES)
    @given(half_cells=st.integers(16, 64))
    @settings(max_examples=10, deadline=None)
    def test_red_black_colouring(self, shape, params, half_cells):
        dom = build_domain(shape, params, 2 * half_cells)
        rb = solver._split_red_black(dom)
        colour = np.full(dom.n_nodes, -1)
        colour[rb.red], colour[rb.black] = 0, 1
        assert colour.min() == 0
        # no stencil neighbour shares a node's colour
        for side in dom.neighbors.reshape(dom.n_nodes, -1).T:
            has = side >= 0
            assert np.all(colour[side[has]] != colour[has])

    @pytest.mark.parametrize("shape,params,recipe,m", [
        ("interval", (1.0,), "step-x", 0.3),
        ("rectangle", (1.0, 0.5), "step-x", 0.0),
        ("disk", (1.0,), "radial", 0.3),
        ("annulus", (0.4, 1.0), "radial", 0.0),
        ("half-disk", (1.0,), "radial", 0.0)])
    def test_schur_solve_matches_whole(self, quartic, shape, params, recipe,
                                       m):
        dom = build_domain(shape, params, 96)
        eps = 0.06
        u = seed_field(dom, eps, recipe, m).values
        d = dom.cut_cell_weights * quartic.wpp(u) / eps
        # W'' < 0 in the interface band: diag(d) is indefinite
        assert d.min() < 0.0 < d.max()
        J = (eps * stiffness_matrix(dom) + sp.diags(d)).tocsr()
        # a right-hand side in the range of J: with a random one, the
        # near-null translation mode of the step seeds alone puts the
        # residual of either factorization near 1e-11
        b = J @ np.random.default_rng(5).standard_normal(dom.n_nodes)
        # the MMD factors, then the natural ones under the kept orders
        for _ in range(2):
            whole = solver._ordered_lu(dom, "jacobian_order", J)(b)
            x = solver._factor_jacobian(dom, eps, d)(b)
            assert np.linalg.norm(J @ x - b) <= 1e-12 * np.linalg.norm(b)
            assert np.linalg.norm(x - whole) <= 1e-10 * np.linalg.norm(whole)
        rb = solver._split_red_black(dom)
        assert len(dom.cache["schur_order"]) == len(rb.black)
        assert len(dom.cache["jacobian_order"]) == dom.n_nodes

    def test_weak_red_pivot_factors_whole(self, disk_jacobian):
        _, eps, d, _ = disk_jacobian
        dom = build_domain("disk", (1.0,), 128)
        rb = solver._split_red_black(dom)
        i = len(rb.red) // 2
        d = d.copy()
        d[rb.red[i]] = -eps * rb.a_red[i]
        J = (eps * stiffness_matrix(dom) + sp.diags(d)).tocsr()
        assert J[rb.red[i], rb.red[i]] == 0.0
        b = np.random.default_rng(6).standard_normal(dom.n_nodes)
        for _ in range(2):  # MMD, then the kept order of J
            x = solver._factor_jacobian(dom, eps, d)(b)
            assert np.linalg.norm(J @ x - b) <= 1e-12 * np.linalg.norm(b)
        assert "jacobian_order" in dom.cache
        assert "schur_order" not in dom.cache

    def test_schur_fill_below_whole(self, disk_jacobian, recorded_splu):
        _, eps, d, _ = disk_jacobian
        dom = build_domain("disk", (1.0,), 128)
        weak = d.copy()
        rb = solver._split_red_black(dom)
        weak[rb.red[0]] = -eps * rb.a_red[0]
        # Schur, whole J, Schur, whole J: each keeps its own order
        for dd in (d, weak, d, weak):
            solver._factor_jacobian(dom, eps, dd)
        specs = [spec for spec, _ in recorded_splu]
        fill = [f for _, f in recorded_splu]
        assert specs == ["MMD_AT_PLUS_A"] * 2 + ["NATURAL"] * 2
        assert fill[0] == fill[2] < fill[1] == fill[3]

    def test_stiffness_built_once_per_domain(self, quartic, monkeypatch):
        built = []

        def counting(dom):
            built.append(dom)
            return stiffness_matrix(dom)

        monkeypatch.setattr(solver, "stiffness_matrix", counting)
        dom = build_domain("interval", (1.0,), 256)
        sweep = epsilon_sweep(dom, quartic, [0.1, 0.07, 0.05], constraint=0.2)
        assert len(sweep) == 3
        assert built == [dom]
        energy_gradient(sweep[-1].field, quartic, sweep[-1].lam)
        assert built == [dom]

    def test_disk_sweep_chord_steps(self, quartic):
        dom = build_domain("disk", (1.0,), 128)
        sweep = epsilon_sweep(dom, quartic, [0.08, 0.06, 0.04],
                              constraint=0.3, recipe="radial",
                              newton_tol=1e-10)
        assert len(sweep) == 3
        for sol in sweep:
            assert sol.factorizations < sol.iterations
            assert sol.residual_norm <= 1e-10

    def test_one_lu_alive_at_a_time(self, quartic, monkeypatch):
        # Newton releases the stale LU before SuperLU builds the next one.
        # SuperLU objects take no weak references, so each factor hides
        # behind a proxy that reports its release; with the cycle
        # collector off, only reference counts release it
        alive, at_entry = set(), []

        class Factor:
            def __init__(self, lu):
                self.lu, self.perm_c = lu, lu.perm_c
                alive.add(id(self))

            def solve(self, b):
                return self.lu.solve(b)

            def __del__(self):
                alive.discard(id(self))

        def tracked(M, **kw):
            at_entry.append(len(alive))
            return Factor(splu(M, **kw))

        monkeypatch.setattr(solver, "splu", tracked)
        dom = build_domain("disk", (1.0,), 128)
        gc.disable()
        try:
            sweep = epsilon_sweep(dom, quartic, [0.08, 0.06, 0.04],
                                  constraint=0.3, recipe="radial",
                                  newton_tol=1e-10)
        finally:
            gc.enable()
        assert [sol.factorizations for sol in sweep] == [2, 1, 2]
        assert at_entry == [0] * 5
        assert not alive


class TestSweep:
    def test_1d_gamma_limit(self, quartic):
        dom = build_domain("interval", (1.0,), 512)
        sweep = epsilon_sweep(dom, quartic, [0.1, 0.05], constraint=0.0)
        for sol in sweep:
            assert abs(sol.energy - H0) < 0.03 * H0
            assert sol.residual_norm <= 1e-10
            assert abs(sol.field.mean()) < 1e-10

    def test_two_layer_counts_double(self, quartic):
        dom = build_domain("interval", (1.0,), 512)
        sol = solve_single(dom, quartic, 0.02, constraint=0.5,
                           recipe="two-layer")
        u = sol.field.values
        crossings = np.sum(np.diff(np.sign(u)) != 0)
        assert crossings == 2
        assert sol.energy == pytest.approx(2 * H0, abs=0.05)

    def test_2d_sweep_straight_interface(self, quartic):
        dom = build_domain("rectangle", (1.0, 1.0), (128, 128))
        sweep = epsilon_sweep(dom, quartic, [0.08, 0.04], constraint=0.0,
                              recipe="step-x")
        for sol in sweep:
            assert abs(sol.energy - H0) <= 0.05 * H0
            assert abs(sol.lam) <= 1.0  # multiplier bound for the run

    def test_resolvability_gate(self, quartic):
        dom = build_domain("interval", (1.0,), 64)
        with pytest.raises(UnresolvedInterface):
            epsilon_sweep(dom, quartic, [0.01], constraint=0.0)

    def test_descending_gate(self, quartic):
        dom = build_domain("interval", (1.0,), 64)
        with pytest.raises(UnresolvedInterface):
            epsilon_sweep(dom, quartic, [0.05, 0.1], constraint=0.0)

    def test_c0_bound_across_sweep(self, quartic):
        dom = build_domain("interval", (1.0,), 512)
        sweep = epsilon_sweep(dom, quartic, [0.1, 0.05], constraint=0.0)
        for sol in sweep:
            assert (sol.max_abs - 1.0) / sol.field.epsilon < 10.0

    def test_neumann_normal_derivative(self, quartic):
        # one-sided second-order estimate of du/dnu at the walls is O(h)
        errs = []
        for n in (128, 256):
            dom = build_domain("interval", (1.0,), n)
            sol = solve_single(dom, quartic, 0.1, constraint=0.0)
            u = sol.field.values
            h = dom.cell_size
            est = abs(3 * u[0] - 4 * u[1] + u[2]) / (2 * h)
            errs.append(est)
        assert errs[0] < 10 * (1.0 / 128)
        assert errs[1] < 10 * (1.0 / 256)

    @pytest.mark.parametrize("shape,params", [("annulus", (0.4, 1.0)),
                                              ("half-disk", (1.0,)),
                                              ("rectangle", (1.0, 1.0))])
    @pytest.mark.parametrize("m", [0.3, 0.0, -0.3])
    def test_matched_radial_seed_sweep(self, quartic, shape, params, m):
        # the radial seed is the circle about the origin (a quarter circle
        # about the rectangle's corner) that holds the constraint's area;
        # the multiplier then matches the sharp-interface oracle
        # |lambda| = h0 / (2 rho) (criterion 8)
        if shape == "rectangle":
            rho = math.sqrt(2.0 * (1.0 - abs(m)) * params[0] * params[1]
                            / math.pi)
        else:
            r_in = params[0] if shape == "annulus" else 0.0
            R = params[-1]
            rho = math.sqrt(r_in**2 + 0.5 * (1.0 + m) * (R**2 - r_in**2))
        dom = build_domain(shape, params, 128)
        errors = []
        sweep = epsilon_sweep(dom, quartic, [0.08, 0.06, 0.04],
                              constraint=m, recipe="radial", errors=errors)
        assert not errors
        assert [sol.field.epsilon for sol in sweep] == [0.08, 0.06, 0.04]
        oracle = H0 / (2.0 * rho)
        assert abs(abs(sweep[-1].lam) - oracle) <= 0.02 * oracle


class TestSeeds:
    def test_resharpen_preserves_sign_pattern(self):
        dom = build_domain("interval", (1.0,), 64)
        u = np.tanh((dom.points[:, 0] - 0.37) / (0.1 * SQRT2))
        v = resharpen(u, 0.1, 0.05)
        assert np.array_equal(np.sign(v), np.sign(u))
        assert np.abs(v).min() <= np.abs(u).max()

    def test_step_offset_matches_constraint(self):
        dom = build_domain("interval", (1.0,), 256)
        f = seed_field(dom, 0.05, "step-x", constraint=0.5)
        assert f.mean() == pytest.approx(0.5, abs=0.01)

    @pytest.mark.parametrize("shape,params", [("annulus", (0.4, 1.0)),
                                              ("half-disk", (1.0,)),
                                              ("disk", (1.0,)),
                                              ("rectangle", (1.0, 1.0))])
    @pytest.mark.parametrize("m", [0.5, -0.5])
    def test_radial_seed_matches_constraint(self, shape, params, m):
        dom = build_domain(shape, params, 256)
        f = seed_field(dom, 0.02, "radial", constraint=m)
        assert f.mean() == pytest.approx(m, abs=0.02)
        # an explicit radius is kept
        g = seed_field(dom, 0.02, "radial", constraint=m,
                       recipe_params={"radius": 0.7})
        r = np.linalg.norm(dom.points, axis=1)
        assert np.array_equal(g.values, np.tanh((0.7 - r) / (0.02 * SQRT2)))

    def test_unknown_recipe(self):
        dom = build_domain("interval", (1.0,), 64)
        with pytest.raises(ValueError):
            seed_field(dom, 0.05, "zigzag")
