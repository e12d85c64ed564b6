import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aclab.errors import Blowup, UnresolvedInterface
from aclab.geometry import build_domain
from aclab.potential import SQRT2, DoubleWell
from aclab.solver import (Field, Solution, assemble_energy, energy_gradient,
                          epsilon_sweep, gradient_flow, newton_refine,
                          resharpen, seed_field, solve_single)

H0 = 2.0 * math.sqrt(2.0) / 3.0


@pytest.fixture(scope="module")
def quartic():
    return DoubleWell()


@pytest.fixture(scope="module")
def line256():
    return build_domain("interval", (1.0,), 256)


def tanh_field(dom, eps, x0=0.5):
    return Field(dom, eps, np.tanh((dom.points[:, 0] - x0) / (eps * SQRT2)))


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
        assert sol.iterations <= 2
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

    def test_basin_threshold_gate(self, quartic, line256):
        from aclab.errors import NoConvergence
        from aclab.solver import residual_norm
        f = Field(line256, 0.1, np.full(line256.n_nodes, 0.5))
        rn = residual_norm(f, quartic, 0.0)
        start = Solution(field=f, lam=0.0, residual_norm=rn, iterations=0)
        with pytest.raises(NoConvergence):
            newton_refine(start, quartic, basin_threshold=0.5 * rn)

    def test_unstable_critical_point_is_fixed(self, quartic, line256):
        f = Field(line256, 0.1, np.full(line256.n_nodes, quartic.gamma))
        start = Solution(field=f, lam=0.0,
                         residual_norm=0.0, iterations=0)
        sol = newton_refine(start, quartic, tol=1e-12)
        assert sol.iterations == 0
        assert np.allclose(sol.field.values, quartic.gamma)
        assert sol.residual_norm <= 1e-12


    @given(st.floats(-0.5, 0.5))
    @settings(max_examples=25, deadline=None)
    def test_mean_flip_symmetry(self, m):
        # W is even: the step-x seeds for m and -m are mirror-negations of
        # each other, so the energy is unchanged and lambda flips sign
        dom = build_domain("interval", (1.0,), 256)
        well = DoubleWell()
        a = solve_single(dom, well, 0.05, constraint=m, pre_steps=10)
        b = solve_single(dom, well, 0.05, constraint=-m, pre_steps=10)
        assert abs(a.energy - b.energy) <= 1e-10
        assert abs(a.lam + b.lam) <= 1e-10


class TestSweep:
    def test_1d_gamma_limit(self, quartic):
        dom = build_domain("interval", (1.0,), 512)
        sweep = epsilon_sweep(dom, quartic, [0.1, 0.05], constraint=0.0,
                              pre_steps=20)
        for sol in sweep:
            assert abs(sol.energy - H0) < 0.03 * H0
            assert sol.residual_norm <= 1e-10
            assert abs(sol.field.mean()) < 1e-10

    def test_two_layer_counts_double(self, quartic):
        dom = build_domain("interval", (1.0,), 512)
        sol = solve_single(dom, quartic, 0.02, constraint=0.5,
                           recipe="two-layer", pre_steps=20)
        u = sol.field.values
        crossings = np.sum(np.diff(np.sign(u)) != 0)
        assert crossings == 2
        assert sol.energy == pytest.approx(2 * H0, abs=0.05)

    def test_2d_sweep_straight_interface(self, quartic):
        dom = build_domain("rectangle", (1.0, 1.0), (128, 128))
        sweep = epsilon_sweep(dom, quartic, [0.08, 0.04], constraint=0.0,
                              recipe="step-x", pre_steps=20)
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
        sweep = epsilon_sweep(dom, quartic, [0.1, 0.05], constraint=0.0,
                              pre_steps=20)
        for sol in sweep:
            assert (sol.max_abs - 1.0) / sol.field.epsilon < 10.0

    def test_neumann_normal_derivative(self, quartic):
        # one-sided second-order estimate of du/dnu at the walls is O(h)
        errs = []
        for n in (128, 256):
            dom = build_domain("interval", (1.0,), n)
            sol = solve_single(dom, quartic, 0.1, constraint=0.0, pre_steps=5)
            u = sol.field.values
            h = dom.cell_size
            est = abs(3 * u[0] - 4 * u[1] + u[2]) / (2 * h)
            errs.append(est)
        assert errs[0] < 10 * (1.0 / 128)
        assert errs[1] < 10 * (1.0 / 256)


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

    def test_unknown_recipe(self):
        dom = build_domain("interval", (1.0,), 64)
        with pytest.raises(ValueError):
            seed_field(dom, 0.05, "zigzag")
