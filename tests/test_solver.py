import gc
import hashlib
import math
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scipy.sparse as sp
from scipy.sparse.linalg import splu

from aclab import solver
from aclab.config import example_config, parse_config
from aclab.errors import Blowup, NoConvergence, UnresolvedInterface
from aclab.geometry import build_domain, line_maps, mirror_maps
from aclab.potential import SQRT2, DoubleWell
from aclab.solver import (LU_OPTIONS, Field, Solution, assemble_energy,
                          epsilon_sweep, gradient_flow, newton_refine,
                          resharpen, residual_norm, seed_field, solve_single,
                          stiffness_matrix)

H0 = 2.0 * math.sqrt(2.0) / 3.0
SHAPES = [("interval", (1.0,)), ("rectangle", (1.0, 0.5)), ("disk", (1.0,)),
          ("annulus", (0.4, 1.0)), ("half-disk", (1.0,))]


@pytest.fixture(scope="module")
def quartic():
    return DoubleWell()


def energy_gradient(f, well, lam=0.0):
    """Newton's residual per unit cell volume: -eps lap(u) + W'(u)/eps - lam
    at every node."""
    F = solver._residual(f.dom, f.epsilon, well, f.values, lam)
    return F / f.dom.cut_cell_weights


def field_mean(f):
    """The cut-cell-weighted mean of a field, the constrained quantity."""
    w = f.dom.cut_cell_weights
    return float(w @ f.values / w.sum())


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


def coo_stiffness(dom):
    """The face-by-face COO assembly of the stiffness, each face's four
    entries summed by scipy: the reference stiffness_matrix reproduces."""
    h, w = dom.cell_size, dom.cut_cell_weights
    rows, cols, vals = [], [], []
    for a in range(dom.dim):
        i = np.flatnonzero(dom.neighbors[:, a, 1] >= 0)
        j = dom.neighbors[i, a, 1]
        aw = np.minimum(w[i], w[j]) / h**2
        rows += [i, j, i, j]
        cols += [i, j, j, i]
        vals += [aw, aw, -aw, -aw]
    n = dom.n_nodes
    return sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n))


class TestStiffness:
    CASES = [("interval", (1.0,), 2048), ("rectangle", (1.0, 1.0), 256),
             ("rectangle", (1.0, 0.5), 256), ("disk", (1.0,), 256),
             ("annulus", (0.4, 1.0), 128), ("half-disk", (1.0,), 128)]

    @pytest.mark.parametrize("shape,params,cells", CASES)
    def test_bitwise_the_coo_assembly(self, shape, params, cells):
        dom = build_domain(shape, params, cells)
        A, want = stiffness_matrix(dom), coo_stiffness(dom)
        assert np.array_equal(A.indptr, want.indptr)
        assert np.array_equal(A.indices, want.indices)
        assert A.data.tobytes() == want.data.tobytes()
        # canonical: each row's columns strictly ascending, so sorted and
        # free of duplicates
        rows = np.repeat(np.arange(dom.n_nodes), np.diff(A.indptr))
        same_row = rows[1:] == rows[:-1]
        assert np.all(np.diff(A.indices)[same_row] > 0)
        assert A.indices.size == A.data.size == A.indptr[-1]

    def test_peak_memory_within_three_results(self):
        # the face-by-face COO assembly peaks near 6.5 times its result
        dom = build_domain("rectangle", (1.0, 1.0), 256)
        stiffness_matrix(dom)
        tracemalloc.start()
        try:
            A = stiffness_matrix(dom)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * (A.data.nbytes + A.indices.nbytes
                            + A.indptr.nbytes)


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

    @pytest.fixture(scope="class")
    def step_start(self, quartic, line256):
        # converges in 2 iterations on 1 LU, at 2.6e-7 after the first
        return solver._newton_start(
            seed_field(line256, 0.05, "step-x", 0.2), quartic, 0.2)

    def test_exhausted_budget_raises_with_best(self, quartic, step_start):
        # the message names the smallest residual the budget reached
        with pytest.raises(NoConvergence) as info:
            newton_refine(step_start, quartic, tol=1e-10, max_iter=1)
        found = re.fullmatch(r"Newton stalled at residual (\S+) after 1 "
                             r"iterations", str(info.value))
        assert found
        assert 1e-10 < float(found[1]) < 1e-6

    def test_last_iterate_of_budget_is_accepted(self, quartic, step_start):
        # the iterate the last step reaches passes the same test as every
        # other: max_iter=2 returns what the unbounded run returns
        free = newton_refine(step_start, quartic, tol=1e-10)
        two = newton_refine(step_start, quartic, tol=1e-10, max_iter=2)
        assert two.converged
        assert np.array_equal(two.field.values, free.field.values)
        assert (two.lam, two.residual_norm, two.energy) == \
            (free.lam, free.residual_norm, free.energy)
        assert (two.iterations, two.factorizations) == \
            (free.iterations, free.factorizations) == (2, 1)

    def test_unstable_critical_point_is_fixed(self, quartic, line256):
        f = Field(line256, 0.1, np.full(line256.n_nodes, quartic.gamma))
        start = Solution(field=f, lam=0.0,
                         residual_norm=0.0, iterations=0)
        sol = newton_refine(start, quartic, tol=1e-12)
        assert sol.iterations == 0
        assert np.allclose(sol.field.values, quartic.gamma)
        assert sol.residual_norm <= 1e-12

    def test_krylov_step_contracts(self, quartic, monkeypatch):
        # acceptance's disk solve factors once: every later iteration is an
        # inexact Newton step through that LU, solved by GMRES to the
        # forcing term eta_k = 0.5 |F_k| / |F_{k-1}| clipped to [1e-6, 0.1],
        # and taken only if it cuts the residual norm below
        # KRYLOV_CONTRACTION times its value.  The right-hand side of each
        # GMRES solve is minus the folded residual of its iterate
        dom = build_domain("disk", (1.0,), 256)
        fd = solver.fold(dom, (1,))
        norm_of, norms, etas = {}, [], []

        def key(a):
            return hashlib.sha1(a.tobytes()).digest()

        def recording_residual(dom, eps, well, u, lam):
            F = residual(dom, eps, well, u, lam)
            norms.append(solver._norm(dom, F))
            norm_of[key(-F[fd.low])] = norms[-1]
            return F

        def recording_gmres(apply, precondition, b, eta, basis):
            etas.append((norm_of[key(b[:-1])], eta))
            return gmres(apply, precondition, b, eta, basis)

        residual, gmres = solver._residual, solver._gmres
        monkeypatch.setattr(solver, "_residual", recording_residual)
        monkeypatch.setattr(solver, "_gmres", recording_gmres)
        sol = solve_single(dom, quartic, 0.02, constraint=0.3,
                           recipe="radial")
        assert sol.residual_norm <= 1e-10
        assert sol.factorizations == 1
        assert sol.iterations <= 8
        assert len(norms) <= 12
        assert len(etas) == sol.iterations - 1
        rns = [rn for rn, _ in etas] + [sol.residual_norm]
        for k, (rn, eta) in enumerate(etas):
            assert rns[k + 1] < solver.KRYLOV_CONTRACTION * rn
            if k:
                assert eta == min(max(0.5 * rn / rns[k - 1], 1e-6), 0.1)

    def test_stalled_solve_names_its_best_residual(self, quartic,
                                                   monkeypatch):
        # the 1 x 0.5 rectangle's radial seed at m = 0.3 and eps 0.08 lies
        # outside Newton's basin: the budget runs out on steps through the
        # kept LUs and fresh ones alike, with no more LUs than iterations
        dom = build_domain("rectangle", (1.0, 0.5), (128, 64))
        lus = []
        factor = solver._factor_jacobian

        def counting(dom, eps, d, axes):
            lus.append(axes)
            return factor(dom, eps, d, axes)

        start = solver._newton_start(seed_field(dom, 0.08, "radial", 0.3),
                                     quartic, 0.3)
        monkeypatch.setattr(solver, "_factor_jacobian", counting)
        with pytest.raises(NoConvergence) as info:
            newton_refine(start, quartic, tol=1e-10)
        found = re.fullmatch(r"Newton stalled at residual (\S+) after 40 "
                             r"iterations", str(info.value))
        assert found
        assert float(found[1]) > 0.1
        assert 1 <= len(lus) <= 40

    def test_slow_kept_lu_tail_is_bounded(self, quartic):
        # the example config at m = 0.5968: along the LU of each eps the
        # plain chord residual falls by just under 2x per step (18 and 16
        # iterations on one LU at eps 0.1 and 0.05); the inexact Newton
        # steps through the same LU converge superlinearly
        cfg, sweep = self.example_sweep_at_high_mean()
        assert [sol.field.epsilon for sol in sweep] == list(cfg.epsilons)
        for sol in sweep:
            assert sol.iterations <= 10
            assert sol.factorizations == 1
            assert sol.residual_norm <= cfg.tol

    @staticmethod
    def example_sweep_at_high_mean():
        text = re.sub(r"(?m)^constraint_mean = .*$",
                      "constraint_mean = 0.5968", example_config())
        cfg = parse_config(text)
        dom = build_domain(cfg.shape, cfg.params, cfg.cells)
        return cfg, epsilon_sweep(dom, cfg.well, cfg.epsilons,
                                  cfg.constraint_mean, cfg.recipe,
                                  cfg.recipe_params, newton_tol=cfg.tol)

    @pytest.mark.parametrize("case", ["disk", "example", "annulus"])
    def test_same_states_as_refactoring_every_iteration(self, quartic,
                                                        monkeypatch, case):
        # with every GMRES solve failed, each iteration refactors at its
        # iterate: plain damped Newton.  Both reach the same branch: the
        # disk-128 sweep, the example config at m = 0.5968 and the
        # thin-band annulus, whose lambda pins the branch it reaches
        def sweep():
            if case == "example":
                return self.example_sweep_at_high_mean()[1]
            shape, params = (("disk", (1.0,)) if case == "disk"
                             else ("annulus", (0.4, 1.0)))
            return epsilon_sweep(build_domain(shape, params, 128), quartic,
                                 [0.08, 0.06, 0.04], constraint=0.3,
                                 recipe="radial")

        krylov = sweep()
        monkeypatch.setattr(solver, "_gmres", lambda *args: None)
        fresh = sweep()
        assert len(krylov) == len(fresh) == 3
        for a, b in zip(krylov, fresh):
            assert b.factorizations == b.iterations > a.factorizations
            assert np.abs(a.field.values - b.field.values).max() <= 1e-8
            assert abs(a.lam - b.lam) <= 1e-9
        if case == "annulus":
            assert [round(a.lam, 4) for a in krylov] == [0.2468, 0.5004,
                                                         0.5601]

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
        # (permc_spec, L+U fill, size) of every LU the solver makes
        calls = []

        def recording(M, permc_spec, **kw):
            lu = splu(M, permc_spec=permc_spec, **kw)
            calls.append((permc_spec, lu.L.nnz + lu.U.nnz, M.shape[0]))
            return lu

        monkeypatch.setattr(solver, "splu", recording)
        return calls

    @pytest.mark.parametrize("shape,params,cells,recipe,axes", [
        pytest.param("disk", (1.0,), 64, "radial", (1,),
                     id="folded-disk-arc"),
        pytest.param("disk", (1.0,), 63, "radial", (), id="unfolded"),
        pytest.param("rectangle", (1.0, 0.5), (64, 32), "step-x", (3,),
                     id="collapsed-rectangle"),
        pytest.param("disk", (1.0,), 64, None, (), id="weak-pivot-whole-J")])
    def test_second_solve_on_one_domain_is_bitwise_the_first(
            self, quartic, monkeypatch, shape, params, cells, recipe, axes):
        # a solve's bits depend only on its inputs: two solves on one domain
        # give the energy, multiplier and values of a solve on a fresh one.
        # No solve reaches the whole-J path of a weak red pivot, so there
        # two factorizations (at d, then at d / 2) stand in for two solves
        seen, sizes = [], []
        factor = solver._factor_jacobian

        def recording(dom, eps, d, axes):
            seen.append(axes)
            return factor(dom, eps, d, axes)

        def recording_splu(M, **kw):
            sizes.append(M.shape[0])
            return splu(M, **kw)

        monkeypatch.setattr(solver, "_factor_jacobian", recording)
        monkeypatch.setattr(solver, "splu", recording_splu)

        def solve(dom):
            if recipe is not None:
                sol = solve_single(dom, quartic, 0.1, constraint=0.3,
                                   recipe=recipe)
                return (repr(sol.energy), repr(sol.lam),
                        sol.field.values.tobytes())
            eps = 0.1
            u = seed_field(dom, eps, "radial", 0.3).values
            d = dom.cut_cell_weights * quartic.wpp(u) / eps
            fd = solver.fold(dom, ())
            r = fd.low[fd.red[0]]
            d[r] = -eps * fd.a_red[0]
            later = 0.5 * d
            later[r] = d[r]  # keeps the weak pivot exactly zero
            b = np.random.default_rng(9).standard_normal(dom.n_nodes)
            return tuple(solver._factor_jacobian(dom, eps, dd, ())(b).tobytes()
                         for dd in (d, later))

        dom = build_domain(shape, params, cells)
        first, second = solve(dom), solve(dom)
        fresh = solve(build_domain(shape, params, cells))
        assert first == fresh
        assert second == fresh
        assert set(seen) == {axes}
        if recipe is None:
            assert sizes == [dom.n_nodes] * 6

    @pytest.mark.parametrize("shape,params", SHAPES)
    @given(half_cells=st.integers(16, 64))
    @settings(max_examples=10, deadline=None)
    def test_red_black_colouring(self, shape, params, half_cells):
        dom = build_domain(shape, params, 2 * half_cells)
        fd = solver.fold(dom, ())
        colour = np.full(dom.n_nodes, -1)
        colour[fd.low[fd.red]], colour[fd.low[fd.black]] = 0, 1
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
        whole = solver._lu(J)(b)
        x = solver._factor_jacobian(dom, eps, d, ())(b)
        assert np.linalg.norm(J @ x - b) <= 1e-12 * np.linalg.norm(b)
        assert np.linalg.norm(x - whole) <= 1e-10 * np.linalg.norm(whole)

    def test_weak_red_pivot_factors_whole(self, disk_jacobian,
                                          recorded_splu):
        _, eps, d, _ = disk_jacobian
        dom = build_domain("disk", (1.0,), 128)
        fd = solver.fold(dom, ())
        i = len(fd.red) // 2
        r = fd.low[fd.red[i]]
        d = d.copy()
        d[r] = -eps * fd.a_red[i]
        J = (eps * stiffness_matrix(dom) + sp.diags(d)).tocsr()
        assert J[r, r] == 0.0
        b = np.random.default_rng(6).standard_normal(dom.n_nodes)
        x = solver._factor_jacobian(dom, eps, d, ())(b)
        assert np.linalg.norm(J @ x - b) <= 1e-12 * np.linalg.norm(b)
        assert [n for _, _, n in recorded_splu] == [dom.n_nodes]

    def test_schur_fill_below_whole(self, disk_jacobian, recorded_splu):
        _, eps, d, _ = disk_jacobian
        dom = build_domain("disk", (1.0,), 128)
        weak = d.copy()
        fd = solver.fold(dom, ())
        weak[fd.low[fd.red[0]]] = -eps * fd.a_red[0]
        # Schur, whole J, Schur, whole J: each ordered by minimum degree
        for dd in (d, weak, d, weak):
            solver._factor_jacobian(dom, eps, dd, ())
        specs = [spec for spec, _, _ in recorded_splu]
        fill = [f for _, f, _ in recorded_splu]
        assert specs == ["MMD_AT_PLUS_A"] * 4
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
        residual_norm(sweep[-1].field, quartic, sweep[-1].lam)
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
        # Newton releases the stale LU and its Arnoldi basis before SuperLU
        # builds the next one.  SuperLU objects take no weak references, so
        # each factor hides behind a proxy that reports its release; with
        # the cycle collector off, only reference counts release it.  The
        # basis is the one array of shape (2, KRYLOV_SIZE + 1, n) that
        # Newton's locals own or view
        alive, at_entry, basis_at_entry, basis_at_solve = set(), [], [], []

        def basis_held():
            frame = sys._getframe()
            while frame.f_code is not newton_refine.__code__:
                frame = frame.f_back
            held = set()
            for v in frame.f_locals.values():
                while isinstance(v, np.ndarray) and v.base is not None:
                    v = v.base
                if isinstance(v, np.ndarray) and \
                        v.shape[:2] == (2, solver.KRYLOV_SIZE + 1):
                    held.add(id(v))
            return len(held)

        class Factor:
            def __init__(self, lu):
                self.lu, self.perm_c = lu, lu.perm_c
                alive.add(id(self))

            def solve(self, b):
                basis_at_solve.append(basis_held())
                return self.lu.solve(b)

            def __del__(self):
                alive.discard(id(self))

        def tracked(M, **kw):
            # first: reading Newton's locals refreshes the snapshot of them
            # that the frame keeps from the last read, which holds the LU
            basis_at_entry.append(basis_held())
            at_entry.append(len(alive))
            return Factor(splu(M, **kw))

        monkeypatch.setattr(solver, "splu", tracked)
        dom = build_domain("disk", (1.0,), 128)
        # the rectangle's radial seed stalls (test_stalled_solve_names_its_
        # best_residual), so its solve refactors time and again
        rect = build_domain("rectangle", (1.0, 0.5), (128, 64))
        stall = solver._newton_start(seed_field(rect, 0.08, "radial", 0.3),
                                     quartic, 0.3)
        gc.disable()
        try:
            sweep = epsilon_sweep(dom, quartic, [0.08, 0.06, 0.04],
                                  constraint=0.3, recipe="radial",
                                  newton_tol=1e-10)
            with pytest.raises(NoConvergence):
                newton_refine(stall, quartic, tol=1e-10, max_iter=8)
        finally:
            gc.enable()
        assert [sol.factorizations for sol in sweep] == [1, 1, 1]
        assert at_entry == basis_at_entry == [0] * 10
        assert set(basis_at_solve) == {1}
        assert not alive


class TestFold:
    def test_identity_fold_is_the_red_black_split(self):
        # with no axes, the fold is the red-black split of the whole system
        # by grid-index parity, array for array
        dom = build_domain("disk", (1.0,), 96)
        A = stiffness_matrix(dom)
        colour = sum(np.unravel_index(dom.grid_index, dom.n_cells)) % 2
        red, black = np.flatnonzero(colour == 0), np.flatnonzero(colour == 1)
        diag = A.diagonal()
        off = abs(A - sp.diags(diag)).max(axis=1).toarray().ravel()
        A_br = A[black][:, red].tocsr()
        fd = solver.fold(dom, ())
        nodes = np.arange(dom.n_nodes)
        for got, want in ((fd.low, nodes), (fd.rep, nodes), (fd.red, red),
                          (fd.black, black), (fd.a_red, diag[red]),
                          (fd.a_black, diag[black]), (fd.off_red, off[red])):
            assert np.array_equal(got, want)
        for got, want in ((fd.A_br, A_br), (fd.A_rb, A_br.T.tocsr())):
            for part in ("data", "indices", "indptr"):
                assert np.array_equal(getattr(got, part), getattr(want, part))

    def test_folded_sweep_matches_unfolded(self, quartic, monkeypatch):
        # the radial m = 0.3 seed is an orthogonal arc centred on the x
        # axis, so every iterate stays mirror-symmetric in y and Newton, its
        # LUs and its GMRES solves run on the system folded along y; the
        # same sweep forced to run unfolded gives the same solutions and
        # counts
        dom = build_domain("disk", (1.0,), 128)
        image = mirror_maps(dom)[1]
        factor = solver._factor_jacobian
        seen = []

        def recording(dom, eps, d, axes):
            seen.append(axes)
            return factor(dom, eps, d, axes)

        def sweep():
            return epsilon_sweep(dom, quartic, [0.08, 0.06, 0.04],
                                 constraint=0.3, recipe="radial")

        monkeypatch.setattr(solver, "_factor_jacobian", recording)
        folded = sweep()
        assert set(seen) == {(1,)}
        seen.clear()
        monkeypatch.setattr(solver, "_symmetries", lambda dom, u: ())
        unfolded = sweep()
        assert set(seen) == {()}
        assert len(folded) == len(unfolded) == 3
        for a, b in zip(folded, unfolded):
            u = a.field.values
            assert np.array_equal(u[image], u)
            assert np.abs(u - b.field.values).max() <= 1e-9
            assert (a.iterations, a.factorizations) == (b.iterations,
                                                        b.factorizations)
            assert a.residual_norm <= 1e-10

    def test_every_iterate_is_mirror_symmetric(self, quartic, monkeypatch):
        # the GMRES solves live on the folded unknowns, so every iterate of
        # the folded disk-128 sweep, trials included, is bitwise symmetric
        # in y, through the kept LUs as after each factorization
        dom = build_domain("disk", (1.0,), 128)
        image = mirror_maps(dom)[1]
        residual = solver._residual
        iterates = []

        def recording(dom, eps, well, u, lam):
            iterates.append(u)
            return residual(dom, eps, well, u, lam)

        monkeypatch.setattr(solver, "_residual", recording)
        sweep = epsilon_sweep(dom, quartic, [0.08, 0.06, 0.04],
                              constraint=0.3, recipe="radial")
        assert len(sweep) == 3
        assert solver._symmetries(dom, sweep[0].field.values) == (1,)
        assert sum(s.iterations - s.factorizations for s in sweep) >= 10
        assert len(iterates) > sum(s.iterations for s in sweep)
        for u in iterates:
            assert np.array_equal(u[image], u)

    def test_spacing_off_a_power_of_two_folds(self, quartic, monkeypatch):
        # at 96 cells h = 1/48, and nodes placed symmetrically about the
        # centre are still exact mirror images: the radial m = 0.3 seed is
        # bitwise symmetric in y, and Newton folds along y
        dom = build_domain("disk", (1.0,), 96)
        image = mirror_maps(dom)[1]
        assert np.array_equal(dom.points[image, 1], -dom.points[:, 1])
        u = seed_field(dom, 0.08, "radial", 0.3).values
        assert np.array_equal(u[image], u)
        factor = solver._factor_jacobian
        seen = []

        def recording(dom, eps, d, axes):
            seen.append(axes)
            return factor(dom, eps, d, axes)

        monkeypatch.setattr(solver, "_factor_jacobian", recording)
        sol = solve_single(dom, quartic, 0.08, constraint=0.3,
                           recipe="radial")
        assert sol.residual_norm <= 1e-10
        assert seen and set(seen) == {(1,)}
        assert np.array_equal(sol.field.values[image], sol.field.values)

    @pytest.mark.parametrize("weak", [False, True])
    def test_folded_solve_matches_whole(self, quartic, monkeypatch, weak):
        # on a right-hand side symmetric in y, the folded solve (Schur, or
        # whole on a weak red pivot) matches the whole folded J and the
        # unfolded J
        dom = build_domain("disk", (1.0,), 128)
        eps = 0.06
        image = mirror_maps(dom)[1]
        u = seed_field(dom, eps, "radial", 0.3).values
        assert np.array_equal(u[image], u)
        d = dom.cut_cell_weights * quartic.wpp(u) / eps
        fd = solver.fold(dom, (1,))
        if weak:
            i = len(fd.red) // 2
            r = fd.low[fd.red[i]]
            d[[r, image[r]]] = -eps * fd.a_red[i]
        J = (eps * stiffness_matrix(dom) + sp.diags(d)).tocsr()
        b = J @ np.random.default_rng(8).standard_normal(dom.n_nodes)
        b = b + b[image]
        sizes = []

        def recording(M, **kw):
            sizes.append(M.shape[0])
            return splu(M, **kw)

        monkeypatch.setattr(solver, "splu", recording)
        x = solver._factor_jacobian(dom, eps, d, (1,))(b[fd.low])[fd.rep]
        assert sizes == [fd.low.size if weak else fd.black.size]
        assert np.array_equal(x[image], x)
        J_fold = solver._fold_matrix(J, fd.low, fd.rep).tocsc()
        whole = splu(J_fold, permc_spec="MMD_AT_PLUS_A",
                     **LU_OPTIONS).solve(b[fd.low])[fd.rep]
        assert np.linalg.norm(x - whole) <= 1e-12 * np.linalg.norm(whole)
        assert np.linalg.norm(J @ x - b) <= 1e-12 * np.linalg.norm(b)

    def test_concentric_seed_folds_both_axes(self, quartic, monkeypatch):
        # a circle about the centre is symmetric in x and y: each LU is of
        # the Schur complement on a quarter of the black nodes
        sizes = []

        def recording(M, **kw):
            sizes.append(M.shape[0])
            return splu(M, **kw)

        monkeypatch.setattr(solver, "splu", recording)
        dom = build_domain("disk", (1.0,), 128)
        sol = solve_single(dom, quartic, 0.08, constraint=-0.5,
                           recipe="radial", recipe_params={"radius": 0.5})
        assert sol.residual_norm <= 1e-10
        for image in mirror_maps(dom):
            assert np.array_equal(sol.field.values[image], sol.field.values)
        fd = solver.fold(dom, (0, 1))
        assert 4 * fd.low.size == dom.n_nodes
        assert sizes == [fd.black.size] * sol.factorizations
        whole = solver.fold(dom, ()).black.size
        assert abs(4 * fd.black.size - whole) <= 0.01 * whole

    @pytest.mark.parametrize("shape,params,recipe,cells,nudge", [
        pytest.param("disk", (1.0,), "radial", 97, False, id="97-False"),
        pytest.param("disk", (1.0,), "radial", 128, True, id="128-True"),
        pytest.param("rectangle", (1.0, 0.5), "step-x", (64, 32), True,
                     id="rectangle-step-x")])
    def test_asymmetric_start_runs_unfolded(self, quartic, monkeypatch,
                                            shape, params, recipe, cells,
                                            nudge):
        # an odd cell count has no mirror map, and a start one ulp off
        # symmetric (on the rectangle, also off constant along y) folds
        # nothing: both take the unfolded path, the same arithmetic as a
        # domain without mirror or line maps
        def refine():
            dom = build_domain(shape, params, cells)
            start = solver._newton_start(
                seed_field(dom, 0.1, recipe, 0.3), quartic, 0.3)
            u = start.field.values.copy()
            if nudge:
                k = int(np.argmax(dom.points[:, 1] > 0.3))
                u[k] = np.nextafter(u[k], np.inf)
            return newton_refine(
                Solution(field=Field(dom, 0.1, u), lam=start.lam,
                         residual_norm=math.inf, iterations=0,
                         constraint=0.3, converged=False),
                quartic, tol=1e-10)

        factor = solver._factor_jacobian
        seen = []

        def recording(dom, eps, d, axes):
            seen.append(axes)
            return factor(dom, eps, d, axes)

        monkeypatch.setattr(solver, "_factor_jacobian", recording)
        sol = refine()
        assert seen and set(seen) == {()}
        for maps in ("mirror_maps", "line_maps"):
            monkeypatch.setattr(solver, maps, lambda dom: (None,) * dom.dim)
        plain = refine()
        assert np.array_equal(sol.field.values, plain.field.values)
        assert (sol.lam, sol.iterations) == (plain.lam, plain.iterations)


class TestCollapse:
    """A start constant along the grid lines of an axis collapses each line
    onto one node when translation along it is exact (the rectangle)."""

    @staticmethod
    def recorded_sweep(monkeypatch, dom, quartic, seen):
        factor = solver._factor_jacobian

        def recording(dom, eps, d, axes):
            seen.append(axes)
            return factor(dom, eps, d, axes)

        monkeypatch.setattr(solver, "_factor_jacobian", recording)
        return epsilon_sweep(dom, quartic, [0.08, 0.06, 0.04],
                             constraint=0.3, recipe="step-x")

    def test_step_x_sweep_collapses_y_lines(self, quartic, monkeypatch):
        # the 1 x 0.5 rectangle: every y-line is one node of the fold, and
        # every solution is exactly constant along y
        dom = build_domain("rectangle", (1.0, 0.5), (128, 64))
        lines = line_maps(dom)
        assert lines[0] is not None and lines[1] is not None
        seen = []
        sweep = self.recorded_sweep(monkeypatch, dom, quartic, seen)
        assert len(sweep) == 3 and set(seen) == {(dom.dim + 1,)}
        assert solver.fold(dom, (dom.dim + 1,)).low.size == dom.n_cells[0]
        for sol in sweep:
            u = sol.field.values
            assert np.array_equal(u[lines[1]], u)
            assert sol.residual_norm <= 1e-10

    def test_collapsed_sweep_matches_uncollapsed(self, quartic, monkeypatch):
        # without line maps the same start folds along the y mirror only;
        # both give the same solutions and counts
        def sweep():
            seen = []
            dom = build_domain("rectangle", (1.0, 0.5), (128, 64))
            return self.recorded_sweep(monkeypatch, dom, quartic, seen), seen

        collapsed, seen = sweep()
        assert set(seen) == {(3,)}
        monkeypatch.setattr(solver, "line_maps",
                            lambda dom: (None,) * dom.dim)
        folded, seen = sweep()
        assert set(seen) == {(1,)}
        assert len(collapsed) == len(folded) == 3
        for a, b in zip(collapsed, folded):
            assert abs(a.energy - b.energy) <= 1e-12
            assert abs(a.lam - b.lam) <= 1e-12
            assert np.abs(a.field.values - b.field.values).max() <= 1e-12
            assert (a.iterations, a.factorizations) == (b.iterations,
                                                        b.factorizations)

    @pytest.mark.parametrize("shape,params", [
        s for s in SHAPES if s[0] != "rectangle"])
    def test_curved_shapes_and_interval_have_no_line_maps(self, shape,
                                                          params):
        dom = build_domain(shape, params, 64)
        assert line_maps(dom) == (None,) * dom.dim

    def test_constant_start_collapses_to_one_node(self, quartic):
        # constant along both axes: the fold is one red node, the black
        # Schur complement empty, and the solve that of diag(d)
        dom = build_domain("rectangle", (1.0, 0.5), (32, 16))
        eps = 0.1
        d = dom.cut_cell_weights * quartic.wpp(np.full(dom.n_nodes, 0.3)) \
            / eps
        fd = solver.fold(dom, (2, 3))
        assert (fd.low.size, fd.red.size, fd.black.size) == (1, 1, 0)
        b = dom.cut_cell_weights * 2.0
        x = solver._factor_jacobian(dom, eps, d, (2, 3))(b[fd.low])[fd.rep]
        J = eps * stiffness_matrix(dom) + sp.diags(d)
        assert np.abs(J @ x - b).max() <= 1e-12 * np.abs(b).max()


class TestSweep:
    @pytest.mark.parametrize("m", [0.0, 0.3])
    def test_quarter_turn_keeps_lambda_energy_and_counts(self, quartic, m):
        # on the unit square a step-y sweep is a step-x sweep turned by a
        # quarter (and mirrored), a symmetry of the discrete problem that
        # mirror_maps does not cover; each collapses onto its own grid
        # lines, so the two agree to rounding, with the same counts
        dom = build_domain("rectangle", (1.0, 1.0), 64)
        along_x, along_y = (
            epsilon_sweep(dom, quartic, [0.1, 0.08], constraint=m,
                          recipe=recipe) for recipe in ("step-x", "step-y"))
        assert len(along_x) == len(along_y) == 2
        for a, b in zip(along_x, along_y):
            assert abs(a.lam - b.lam) <= 1e-12
            assert b.energy == pytest.approx(a.energy, rel=1e-12, abs=0.0)
            assert (a.iterations, a.factorizations) == (b.iterations,
                                                        b.factorizations)

    def test_disk_diameter_seed_at_zero_mean(self, quartic):
        # at m = 0 the disk's radial seed is the diameter, the m -> 0+
        # limit of the orthogonal arc; each epsilon converges to it, with a
        # vanishing multiplier and the energy h0 times its length 2
        dom = build_domain("disk", (1.0,), 128)
        errors = []
        sweep = epsilon_sweep(dom, quartic, [0.08, 0.06, 0.04],
                              constraint=0.0, recipe="radial", errors=errors)
        assert not errors
        assert len(sweep) == 3
        for sol in sweep:
            assert abs(sol.lam) <= 1e-10
            assert abs(sol.energy / (2.0 * H0) - 1.0) <= 0.01

    def test_1d_gamma_limit(self, quartic):
        dom = build_domain("interval", (1.0,), 512)
        sweep = epsilon_sweep(dom, quartic, [0.1, 0.05], constraint=0.0)
        for sol in sweep:
            assert abs(sol.energy - H0) < 0.03 * H0
            assert sol.residual_norm <= 1e-10
            assert abs(field_mean(sol.field)) < 1e-10

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
        assert field_mean(f) == pytest.approx(0.5, abs=0.01)

    @pytest.mark.parametrize("shape,params", [("annulus", (0.4, 1.0)),
                                              ("half-disk", (1.0,)),
                                              ("disk", (1.0,)),
                                              ("rectangle", (1.0, 1.0))])
    @pytest.mark.parametrize("m", [0.5, -0.5])
    def test_radial_seed_matches_constraint(self, shape, params, m):
        dom = build_domain(shape, params, 256)
        f = seed_field(dom, 0.02, "radial", constraint=m)
        assert field_mean(f) == pytest.approx(m, abs=0.02)
        # an explicit radius is kept
        g = seed_field(dom, 0.02, "radial", constraint=m,
                       recipe_params={"radius": 0.7})
        r = np.linalg.norm(dom.points, axis=1)
        assert np.array_equal(g.values, np.tanh((0.7 - r) / (0.02 * SQRT2)))

    def test_unknown_recipe(self):
        dom = build_domain("interval", (1.0,), 64)
        with pytest.raises(ValueError):
            seed_field(dom, 0.05, "zigzag")
