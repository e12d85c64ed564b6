"""Double-well potential, heteroclinic profile and the layer-energy constant.

All operations here are pure functions of immutable inputs and safe for
concurrent use.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidPotential, QuadratureFailure, UnsupportedPotential

SQRT2 = math.sqrt(2.0)

# Default convexity window for the standard quartic: W'' = 3s^2 - 1 >= kappa
# requires |s| bounded away from 1/sqrt(3); the 0.05 margin keeps the sampled
# check away from the boundary of validity.
QUARTIC_ALPHA = 1.0 / math.sqrt(3.0) + 0.05
QUARTIC_KAPPA = 3.0 * QUARTIC_ALPHA**2 - 1.0


@dataclass(frozen=True)
class DoubleWell:
    """A validated double-well potential with wells at +-1.

    kind is either "standard-quartic" (W(s) = (1-s^2)^2/4) or
    "user-polynomial" with coefficients in ascending degree.  alpha and
    kappa define the convexity window W''(t) >= kappa for |t| >= alpha;
    gamma locates the interior local maximum.
    """

    kind: str = "standard-quartic"
    alpha: float = QUARTIC_ALPHA
    kappa: float = QUARTIC_KAPPA
    gamma: float = 0.0
    coefficients: tuple = field(default=())

    def __post_init__(self):
        if self.kind not in ("standard-quartic", "user-polynomial"):
            raise InvalidPotential(f"unknown potential kind {self.kind!r}")
        if not (0.0 < self.alpha < 1.0):
            raise InvalidPotential("alpha must lie in (0, 1)")
        if not (0.0 < self.kappa < 1.0):
            raise InvalidPotential("kappa must lie in (0, 1)")
        if not (-1.0 < self.gamma < 1.0):
            raise InvalidPotential("gamma must lie in (-1, 1)")
        if self.kind == "user-polynomial" and len(self.coefficients) < 3:
            raise InvalidPotential("user polynomial needs at least 3 coefficients")
        _validate_axioms(self)

    # -- evaluation ------------------------------------------------------

    def w(self, s):
        """W(s); accepts scalars or arrays."""
        if self.kind == "standard-quartic":
            s = np.asarray(s, dtype=float)
            return 0.25 * (1.0 - s * s) ** 2
        return np.polynomial.polynomial.polyval(np.asarray(s, dtype=float),
                                                np.asarray(self.coefficients))

    def wp(self, s):
        """W'(s).

        The quartic cube is two multiplications rather than the generic
        power loop: exactly odd in s and within 1 ulp of s**3.
        """
        if self.kind == "standard-quartic":
            s = np.asarray(s, dtype=float)
            return s * s * s - s
        c = np.polynomial.polynomial.polyder(np.asarray(self.coefficients))
        return np.polynomial.polynomial.polyval(np.asarray(s, dtype=float), c)

    def wpp(self, s):
        """W''(s)."""
        if self.kind == "standard-quartic":
            s = np.asarray(s, dtype=float)
            return 3.0 * s * s - 1.0
        c = np.polynomial.polynomial.polyder(np.asarray(self.coefficients), 2)
        return np.polynomial.polynomial.polyval(np.asarray(s, dtype=float), c)


@dataclass(frozen=True)
class EnergyConstant:
    """The per-layer energy h0 = int_{-1}^{1} sqrt(2 W) together with the
    quadrature error estimate of the computation."""

    h0: float
    quadrature_error: float

    def __post_init__(self):
        if not self.h0 > 0.0:
            raise QuadratureFailure("h0 must be positive")
        if not self.quadrature_error < 1e-10:
            raise QuadratureFailure(
                f"quadrature error {self.quadrature_error:.3e} exceeds 1e-10")


def _validate_axioms(well: DoubleWell):
    """Reject potentials violating the double-well axioms.

    Checks wells at +-1, the interior maximum at gamma, nonnegativity on
    [-2, 2] and the sampled convexity bound W'' >= kappa for |t| >= alpha.
    """
    tol = 1e-12 if well.kind == "standard-quartic" else 1e-9
    for s in (-1.0, 1.0):
        if abs(float(well.w(s))) > tol:
            raise InvalidPotential(f"W({s:+.0f}) = {float(well.w(s)):.3e} != 0")
        if abs(float(well.wp(s))) > tol:
            raise InvalidPotential(f"W'({s:+.0f}) = {float(well.wp(s)):.3e} != 0")
    if abs(float(well.wp(well.gamma))) > 1e-9:
        raise InvalidPotential("W'(gamma) != 0: gamma is not a critical point")
    if float(well.wpp(well.gamma)) >= 0.0:
        raise InvalidPotential("W''(gamma) >= 0: local maximum is degenerate")
    ts = np.linspace(-2.0, 2.0, 4001)
    wv = np.asarray(well.w(ts))
    if wv.min() < -1e-12:
        raise InvalidPotential(f"W < 0 on [-2, 2] (min {wv.min():.3e})")
    outer = ts[np.abs(ts) >= well.alpha]
    wpp = np.asarray(well.wpp(outer))
    if wpp.min() < well.kappa - 1e-12:
        raise InvalidPotential(
            f"W'' >= kappa fails for |t| >= alpha (min {wpp.min():.3e} "
            f"< kappa {well.kappa:.3e})")


def eval_potential(well: DoubleWell, s: float):
    """Return (W(s), W'(s), W''(s)) at a single point."""
    return float(well.w(s)), float(well.wp(s)), float(well.wpp(s))


def _adaptive_simpson(f, a, b, tol, max_depth=40):
    """Adaptive Simpson with interval-halving error estimate.

    Returns (integral, error_estimate).  The per-interval acceptance test is
    the classical |S2 - S1| / 15 Richardson estimate against the tolerance
    share of the interval.
    """
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)

    def recurse(a, fa, m, fm, b, fb, whole, tol, depth):
        lm = 0.5 * (a + m)
        rm = 0.5 * (m + b)
        flm, frm = f(lm), f(rm)
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        err = (left + right - whole) / 15.0
        if abs(err) <= tol or depth >= max_depth:
            return left + right + err, abs(err), depth >= max_depth and abs(err) > tol
        li, le, lbad = recurse(a, fa, lm, flm, m, fm, left, tol / 2.0, depth + 1)
        ri, re, rbad = recurse(m, fm, rm, frm, b, fb, right, tol / 2.0, depth + 1)
        return li + ri, le + re, lbad or rbad

    val, err, exhausted = recurse(a, fa, m, fm, b, fb, whole, tol, 0)
    if exhausted:
        raise QuadratureFailure(
            f"adaptive quadrature hit max depth {max_depth} with error {err:.3e}")
    return val, err


def compute_h0(well: DoubleWell) -> EnergyConstant:
    """Layer-energy constant h0 = int_{-1}^{1} sqrt(2 W(s)) ds.

    Uses adaptive Simpson quadrature (interval halving, max depth 40); the
    sqrt vanishing at the wells is mild enough for adaptivity to resolve.
    Raises QuadratureFailure if the error estimate exceeds 1e-10.
    """

    def integrand(s):
        return math.sqrt(max(2.0 * float(well.w(s)), 0.0))

    val, err = _adaptive_simpson(integrand, -1.0, 1.0, tol=1e-12)
    if err >= 1e-10:
        raise QuadratureFailure(f"h0 error estimate {err:.3e} exceeds 1e-10")
    return EnergyConstant(h0=val, quadrature_error=err)


def heteroclinic(t, epsilon: float, well: DoubleWell | None = None):
    """One-dimensional transition profile q(t) = tanh(t / (eps sqrt 2)).

    Solves -eps^2 q'' + W'(q) = 0 exactly for the standard quartic; raises
    UnsupportedPotential otherwise.  Accepts scalars or arrays.
    """
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    if well is not None and well.kind != "standard-quartic":
        raise UnsupportedPotential(
            "closed-form heteroclinic profile requires the standard quartic")
    return np.tanh(np.asarray(t, dtype=float) / (epsilon * SQRT2))


def heteroclinic_jet(t, epsilon: float):
    """Profile with its first and second analytic derivatives (q, q', q'')."""
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    z = np.asarray(t, dtype=float) / (epsilon * SQRT2)
    q = np.tanh(z)
    sech2 = 1.0 - q * q
    q1 = sech2 / (epsilon * SQRT2)
    q2 = -sech2 * q / epsilon**2
    return q, q1, q2
