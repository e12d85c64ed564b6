import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aclab.errors import InvalidPotential, UnsupportedPotential
from aclab.potential import (DoubleWell, compute_h0, eval_potential,
                             heteroclinic, heteroclinic_jet)

H0_EXACT = 2.0 * math.sqrt(2.0) / 3.0  # closed form for the standard quartic


@pytest.fixture(scope="module")
def quartic():
    return DoubleWell()


class TestEvalPotential:
    def test_wells(self, quartic):
        assert eval_potential(quartic, 1.0) == (0.0, 0.0, 2.0)
        assert eval_potential(quartic, -1.0) == (0.0, 0.0, 2.0)

    def test_local_max(self, quartic):
        assert eval_potential(quartic, 0.0) == (0.25, 0.0, -1.0)

    def test_half(self, quartic):
        w, wp, wpp = eval_potential(quartic, 0.5)
        assert w == pytest.approx(0.140625, abs=1e-15)
        assert wp == pytest.approx(-0.375, abs=1e-15)
        assert wpp == pytest.approx(-0.25, abs=1e-15)

    @given(st.floats(-2.0, 2.0))
    @settings(max_examples=200, deadline=None)
    def test_quartic_closed_forms(self, s):
        well = DoubleWell()
        w, wp, wpp = eval_potential(well, s)
        assert w == pytest.approx(0.25 * (1 - s * s) ** 2, rel=1e-12, abs=1e-15)
        assert wp == pytest.approx(s**3 - s, rel=1e-12, abs=1e-15)
        assert wpp == pytest.approx(3 * s * s - 1, rel=1e-12, abs=1e-15)

    @given(st.lists(st.floats(-1e100, 1e100), min_size=1, max_size=64))
    @settings(max_examples=200, deadline=None)
    def test_quartic_wp_exactly_odd(self, xs):
        # W is even, so W' is odd: exactly, not to rounding (+0 == -0)
        well = DoubleWell()
        s = np.array(xs)
        assert np.array_equal(well.wp(-s), -well.wp(s))
        assert np.array_equal(well.wp(np.array([-1.0, 0.0, 1.0])), np.zeros(3))


class TestConstruction:
    def test_user_polynomial_quartic_matches(self):
        # (1 - s^2)^2 / 4 = 1/4 - s^2/2 + s^4/4
        well = DoubleWell(kind="user-polynomial",
                          coefficients=(0.25, 0.0, -0.5, 0.0, 0.25))
        for s in (-1.3, -0.5, 0.0, 0.7, 1.0):
            assert float(well.w(s)) == pytest.approx(0.25 * (1 - s * s) ** 2,
                                                     abs=1e-12)

    def test_degenerate_rejected_before_quadrature(self):
        # W == 0 violates the convexity axiom at construction; the
        # quadrature gate is never reached
        with pytest.raises(InvalidPotential):
            DoubleWell(kind="user-polynomial", coefficients=(0.0, 0.0, 0.0))

    def test_shifted_well_rejected(self):
        # W(1) != 0
        with pytest.raises(InvalidPotential):
            DoubleWell(kind="user-polynomial",
                       coefficients=(0.35, 0.0, -0.5, 0.0, 0.25))

    def test_negative_potential_rejected(self):
        with pytest.raises(InvalidPotential):
            DoubleWell(kind="user-polynomial",
                       coefficients=(-0.25, 0.0, 0.5, 0.0, -0.25))

    def test_parameter_ranges(self):
        with pytest.raises(InvalidPotential):
            DoubleWell(alpha=1.5)
        with pytest.raises(InvalidPotential):
            DoubleWell(kappa=0.0)
        with pytest.raises(InvalidPotential):
            DoubleWell(gamma=1.0)

    def test_asymmetric_well_accepted(self):
        # W = (1-s^2)^2 (1 + s/4) / 4: wells at +-1 stay, maximum shifts
        c = np.polynomial.polynomial.polymul(
            (0.25, 0.0, -0.5, 0.0, 0.25), (1.0, 0.25))
        gam = -0.0831  # near the shifted critical point
        import scipy.optimize as so
        wp = np.polynomial.polynomial.polyder(c)
        gam = float(so.brentq(
            lambda s: np.polynomial.polynomial.polyval(s, wp), -0.3, 0.2))
        well = DoubleWell(kind="user-polynomial", coefficients=tuple(c),
                          gamma=gam, alpha=0.75, kappa=0.05)
        assert float(well.w(0.99)) > 0.0


class TestH0:
    def test_quartic_oracle(self, quartic):
        ec = compute_h0(quartic)
        # independent oracle: closed-form antiderivative of (1-s^2)/sqrt(2)
        assert ec.h0 == pytest.approx(H0_EXACT, abs=1e-10)
        assert ec.h0 == pytest.approx(0.9428090416, abs=1e-8)
        assert ec.quadrature_error < 1e-10

    def test_quadrature_against_scipy(self, quartic):
        from scipy.integrate import quad
        ref, _ = quad(lambda s: math.sqrt(2.0 * float(quartic.w(s))), -1, 1,
                      epsabs=1e-13)
        assert compute_h0(quartic).h0 == pytest.approx(ref, abs=1e-10)

    def test_scaled_by_four_doubles(self):
        well = DoubleWell(kind="user-polynomial",
                          coefficients=(1.0, 0.0, -2.0, 0.0, 1.0))
        assert compute_h0(well).h0 == pytest.approx(1.8856180832, abs=1e-8)

    @pytest.mark.parametrize("c", [0.25, 4.0])
    def test_h0_scaling(self, c):
        # scaling W scales W'' too, so the convexity constant comes along
        coeffs = tuple(c * x for x in (0.25, 0.0, -0.5, 0.0, 0.25))
        well = DoubleWell(kind="user-polynomial", coefficients=coeffs,
                          kappa=min(0.999, 0.999 * c * 0.1807))
        assert compute_h0(well).h0 == pytest.approx(
            math.sqrt(c) * H0_EXACT, rel=1e-9)


class TestHeteroclinic:
    def test_odd_symmetry(self):
        assert heteroclinic(0.0, 0.1) == 0.0

    def test_well_limit(self):
        assert heteroclinic(1e3, 0.1) == pytest.approx(1.0, abs=1e-15)

    def test_analytic_inverse(self):
        t = 0.1 * math.sqrt(2.0) * math.atanh(0.5)
        assert heteroclinic(t, 0.1) == pytest.approx(0.5, rel=1e-14)

    def test_requires_quartic(self):
        well = DoubleWell(kind="user-polynomial",
                          coefficients=(1.0, 0.0, -2.0, 0.0, 1.0))
        with pytest.raises(UnsupportedPotential):
            heteroclinic(0.3, 0.1, well)

    @pytest.mark.parametrize("eps", [0.1, 0.03])
    def test_ode_residual(self, quartic, eps):
        t = np.linspace(-10 * eps, 10 * eps, 1000)
        q, _, q2 = heteroclinic_jet(t, eps)
        res = -(eps**2) * q2 + quartic.wp(q)
        assert np.abs(res).max() < 1e-12

    @pytest.mark.parametrize("eps", [0.1, 0.03])
    def test_pointwise_equipartition(self, quartic, eps):
        t = np.linspace(-10 * eps, 10 * eps, 1000)
        q, q1, _ = heteroclinic_jet(t, eps)
        disc = 0.5 * eps * q1**2 - quartic.w(q) / eps
        assert np.abs(disc).max() < 1e-12

    def test_total_energy_equals_h0(self, quartic):
        eps = 0.05
        from scipy.integrate import quad

        def density(t):
            q, q1, _ = heteroclinic_jet(t, eps)
            return 0.5 * eps * q1**2 + float(quartic.w(q)) / eps

        val, _ = quad(density, -3.0, 3.0, epsabs=1e-12, limit=200)
        assert val == pytest.approx(H0_EXACT, abs=1e-8)
