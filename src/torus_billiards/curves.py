"""Convex analytic generator curves in the xz half-plane.

A generator is a closed, positively oriented, unit-speed curve
``tau -> (gamma1(tau), gamma2(tau))`` with ``gamma1 > 0`` that is revolved
about the z-axis to produce a solid-torus domain.  This module owns the
curve representation, its differential invariants (curvature, markers of the
inner saddle region) and the arc-length reparametrization of raw parametric
input curves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import InvariantViolation, NonConformingCurveError, NumericsError

UNIT_SPEED_TOL = 1e-10
DEFAULT_SCAN_POINTS = 4096
KAPPA_PRIME_STEP = 1e-6
# sample count of the invariant checks of every generator
VERIFY_POINTS = 1024


class ProfileCurve:
    """Unit-speed convex closed generator curve on the periodic interval [a, b).

    ``eval``, ``deriv1`` and ``deriv2`` map tau to ``(gamma1, gamma2)`` pairs
    (last axis of length 2) and must accept numpy arrays.  ``kappa_prime`` is
    an optional analytic derivative of the curvature; when absent it is
    obtained by central differences.
    """

    def __init__(self, eval_fn, deriv1_fn, deriv2_fn, period,
                 kappa_prime=None):
        self._eval = eval_fn
        self._d1 = deriv1_fn
        self._d2 = deriv2_fn
        self.period = (float(period[0]), float(period[1]))
        self._kappa_prime = kappa_prime
        self._verify()

    @property
    def period_length(self):
        a, b = self.period
        return b - a

    def wrap(self, tau):
        a, b = self.period
        return a + np.mod(tau - a, b - a)

    def eval(self, tau):
        return np.asarray(self._eval(self.wrap(tau)), dtype=float)

    def deriv1(self, tau):
        return np.asarray(self._d1(self.wrap(tau)), dtype=float)

    def deriv2(self, tau):
        return np.asarray(self._d2(self.wrap(tau)), dtype=float)

    def gamma1(self, tau):
        return self.eval(tau)[..., 0]

    def gamma2(self, tau):
        return self.eval(tau)[..., 1]

    def curvature(self, tau):
        d2 = self.deriv2(tau)
        return np.hypot(d2[..., 0], d2[..., 1])

    def curvature_prime(self, tau):
        if self._kappa_prime is not None:
            return np.asarray(self._kappa_prime(self.wrap(tau)), dtype=float)
        h = KAPPA_PRIME_STEP
        return (self.curvature(tau + h) - self.curvature(tau - h)) / (2.0 * h)

    def convexity(self, tau):
        """gamma1' gamma2'' - gamma2' gamma1''; strictly positive on a valid curve."""
        d1 = self.deriv1(tau)
        d2 = self.deriv2(tau)
        return d1[..., 0] * d2[..., 1] - d1[..., 1] * d2[..., 0]

    def _verify(self):
        a, b = self.period
        tau = np.linspace(a, b, VERIFY_POINTS, endpoint=False)
        d1 = self.deriv1(tau)
        speed_err = np.abs(d1[..., 0] ** 2 + d1[..., 1] ** 2 - 1.0)
        if speed_err.max() > UNIT_SPEED_TOL:
            i = int(np.argmax(speed_err))
            raise InvariantViolation(
                f"curve is not unit speed: |gamma'|^2-1 = {speed_err[i]:.3e} "
                f"at tau = {tau[i]:.6f}")
        conv = self.convexity(tau)
        if conv.min() <= 0.0:
            i = int(np.argmin(conv))
            raise NonConformingCurveError(
                f"curve is not strictly convex at tau = {tau[i]:.6f} "
                f"(gamma1'gamma2''-gamma2'gamma1'' = {conv[i]:.3e})")
        g1 = self.gamma1(tau)
        if g1.min() <= 0.0:
            i = int(np.argmin(g1))
            raise NonConformingCurveError(
                f"curve touches the rotation axis at tau = {tau[i]:.6f}")
        gap = np.linalg.norm(self.eval(a) - self.eval(b - 1e-13))
        if gap > 1e-6:
            raise NonConformingCurveError(f"curve is not closed: gap {gap:.3e}")


@dataclass
class CurveMarkers:
    """Special parameters of the generator.

    ``tau1_star`` and ``tau2_star`` are the zeros of gamma2' bounding the
    inner (saddle) region, ``lambda_star`` the unique zero of gamma1' between
    them, and ``z_h_zeros`` the finite zero set of the inflection-degeneracy
    function h on the inner region.  ``inner_span`` is the length of the
    inner interval measured forward from ``tau1_star``.
    """

    tau1_star: float
    tau2_star: float
    lambda_star: float
    inner_span: float
    z_h_zeros: list = field(default_factory=list)

    def in_inner(self, curve: ProfileCurve, tau, margin=0.0):
        """True when tau lies strictly inside the inner region (+margin shrink)."""
        a, b = curve.period
        rel = np.mod(np.asarray(tau) - self.tau1_star, b - a)
        return (rel > margin) & (rel < self.inner_span - margin)

    def dist_to_z_h(self, curve: ProfileCurve, tau):
        if not self.z_h_zeros:
            return np.inf
        half = curve.period_length / 2.0
        d = [abs((tau - z + half) % curve.period_length - half)
             for z in self.z_h_zeros]
        return min(d)


def brent_root(f, a, b, xtol, rtol):
    """Root of f in [a, b] by Brent's method (Algorithms for Minimization
    without Derivatives, 1973, ch. 4), step for step as scipy's brentq; raises
    NumericsError on a same-sign bracket, a NaN or 100 iterations."""
    def value(x):
        if math.isnan(fx := float(f(x))):
            raise NumericsError(f"root function is NaN at x = {x!r}")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0 or fcur == 0.0:
        return xpre if fpre == 0.0 else xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise NumericsError(f"root bracket [{a!r}, {b!r}] has no sign change")
    for _ in range(100):       # the first pass sets xblk, fblk, spre, scur
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        stry = math.inf        # bisect unless an interpolated step is short
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:   # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:              # inverse quadratic; a zero divisor bisects
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                den = dblk * dpre * (fblk - fpre)
                if den != 0.0:
                    stry = -fcur * (fblk * dblk - fpre * dpre) / den
        short = 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta)
        spre, scur = (scur, stry) if short else (sbis, sbis)
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = value(xcur)
    raise NumericsError(f"root not converged in 100 iterations near {xcur!r}")


def _scan_zeros(fn, lo, hi, n):
    """All simple zeros of fn on [lo, hi): one call of fn on a dense array
    scan, then brent_root on each sign change with scalar calls."""
    ts = np.linspace(lo, hi, n + 1)
    vals = np.asarray(fn(ts), dtype=float)
    v0, v1 = vals[:-1], vals[1:]
    zeros = []
    for i in np.nonzero((v0 == 0.0) | (v0 * v1 < 0.0))[0]:
        if v0[i] == 0.0:
            zeros.append(ts[i])
        else:
            zeros.append(brent_root(fn, ts[i], ts[i + 1], 1e-14, 1e-15))
    return zeros


def find_markers(curve: ProfileCurve, n_grid=DEFAULT_SCAN_POINTS) -> CurveMarkers:
    """Locate (tau1*, tau2*, lambda*) and the zero set of h.

    Raises NonConformingCurveError when the sign pattern of the convex
    generator (exactly two zeros of gamma2', one zero of gamma1' in the
    descending branch) is not matched.
    """
    a, b = curve.period

    def g2p(t):
        return curve.deriv1(t)[..., 1]

    def g1p(t):
        return curve.deriv1(t)[..., 0]

    zeros2 = _scan_zeros(g2p, a, b, n_grid)
    if len(zeros2) != 2:
        raise NonConformingCurveError(
            f"expected exactly two zeros of gamma2', found {len(zeros2)}")
    # tau1* starts the branch on which gamma2' < 0
    t0, t1 = zeros2
    mid_fwd = t0 + ((t1 - t0) % (b - a)) / 2.0
    if g2p(mid_fwd) < 0.0:
        tau1, tau2 = t0, t1
    else:
        tau1, tau2 = t1, t0
    span = (tau2 - tau1) % (b - a)
    if span == 0.0:
        span = b - a

    lam_zeros = _scan_zeros(lambda t: g1p(tau1 + ((t - tau1) % (b - a))),
                            tau1 + 1e-9, tau1 + span - 1e-9, n_grid)
    if len(lam_zeros) != 1:
        raise NonConformingCurveError(
            f"expected one zero of gamma1' in the inner region, "
            f"found {len(lam_zeros)}")
    lam = float(curve.wrap(lam_zeros[0]))
    if g1p(tau1 + 0.25 * ((lam_zeros[0] - tau1) % (b - a))) >= 0.0:
        raise NonConformingCurveError(
            "gamma1' is not negative on (tau1*, lambda*); wrong orientation")

    markers = CurveMarkers(
        tau1_star=float(curve.wrap(tau1)),
        tau2_star=float(curve.wrap(tau2)),
        lambda_star=lam,
        inner_span=float(span),
    )
    markers.z_h_zeros = zero_set_h(curve, markers, n_grid=n_grid)
    return markers


def h_value(curve: ProfileCurve, markers: CurveMarkers, tau):
    """Inflection-degeneracy function h on the inner region.

    h = (gamma1'/gamma1)(gamma1*kappa + |gamma2'|) + |gamma2'| kappa'/(3 kappa)
    """
    d1 = curve.deriv1(tau)
    g1 = curve.gamma1(tau)
    kap = curve.curvature(tau)
    kap_p = curve.curvature_prime(tau)
    g2p_abs = np.abs(d1[..., 1])
    return (d1[..., 0] / g1) * (g1 * kap + g2p_abs) + g2p_abs * kap_p / (3.0 * kap)


def zero_set_h(curve: ProfileCurve, markers: CurveMarkers,
               n_grid=DEFAULT_SCAN_POINTS):
    """Zeros of h on the open inner interval, as wrapped tau values."""
    t1 = markers.tau1_star
    span = markers.inner_span
    eps = 1e-7 * span
    zeros = _scan_zeros(lambda t: h_value(curve, markers, t),
                        t1 + eps, t1 + span - eps, n_grid)
    return [float(curve.wrap(z)) for z in zeros]


def circle_generator(R=2.0, r=1.0) -> ProfileCurve:
    """Circle of radius r centered at (R, 0); tau = 0 at the outer equator."""
    if not (R > r > 0):
        raise NonConformingCurveError("need R > r > 0 for a valid solid torus")

    def ev(t):
        ang = np.asarray(t) / r
        return np.stack([R + r * np.cos(ang), r * np.sin(ang)], axis=-1)

    def d1(t):
        ang = np.asarray(t) / r
        return np.stack([-np.sin(ang), np.cos(ang)], axis=-1)

    def d2(t):
        ang = np.asarray(t) / r
        return np.stack([-np.cos(ang) / r, -np.sin(ang) / r], axis=-1)

    return ProfileCurve(ev, d1, d2, (0.0, 2.0 * np.pi * r),
                        kappa_prime=lambda t: np.zeros_like(np.asarray(t, dtype=float)))


@dataclass
class ParametricCurve:
    """Raw closed parametric curve (x(t), z(t)) on [t0, t1], not unit speed."""

    eval_fn: Callable
    deriv1_fn: Callable
    deriv2_fn: Callable
    span: tuple

    def eval(self, t):
        return np.asarray(self.eval_fn(t), dtype=float)

    def deriv1(self, t):
        return np.asarray(self.deriv1_fn(t), dtype=float)

    def deriv2(self, t):
        return np.asarray(self.deriv2_fn(t), dtype=float)


def reparametrize_arclength(raw: ParametricCurve) -> ProfileCurve:
    """Arc-length reparametrization of a raw convex closed curve.

    The parameter map t(s) solves dt/ds = 1/|raw'(t)|; first and second
    derivatives of the unit-speed curve follow by the chain rule, so the
    unit-speed identity holds exactly and only t(s) carries ODE error.
    """
    t0, t1 = raw.span
    ts = np.linspace(t0, t1, 2048, endpoint=False)
    d1 = raw.deriv1(ts)
    d2 = raw.deriv2(ts)
    cross = d1[..., 0] * d2[..., 1] - d1[..., 1] * d2[..., 0]
    if cross.min() <= 0.0:
        i = int(np.argmin(cross))
        raise NonConformingCurveError(
            f"raw curve is not strictly convex at t = {ts[i]:.6f}")
    if raw.eval(ts)[..., 0].min() <= 0.0:
        raise NonConformingCurveError("raw curve touches the rotation axis")

    def speed(t):
        d = raw.deriv1(t)
        return float(np.hypot(d[..., 0], d[..., 1]))

    from scipy.integrate import quad, solve_ivp
    total, err = quad(speed, t0, t1, limit=400, epsabs=1e-13, epsrel=1e-13)

    sol = solve_ivp(lambda s, t: 1.0 / speed(t[0]), (0.0, total), [t0],
                    dense_output=True, rtol=1e-12, atol=1e-14, method="DOP853")
    if not sol.success:
        raise NonConformingCurveError("arc-length ODE failed: " + sol.message)

    def t_of_s(s):
        s = np.asarray(s, dtype=float)
        return sol.sol(s.ravel())[0].reshape(s.shape)

    def ev(s):
        return raw.eval(t_of_s(s))

    def dv1(s):
        d = raw.deriv1(t_of_s(s))
        return d / np.hypot(d[..., 0], d[..., 1])[..., None]

    def dv2(s):
        t = t_of_s(s)
        d = raw.deriv1(t)
        dd = raw.deriv2(t)
        sp2 = d[..., 0] ** 2 + d[..., 1] ** 2
        dot = d[..., 0] * dd[..., 0] + d[..., 1] * dd[..., 1]
        # gamma'' = raw'' / |raw'|^2 - raw' (raw'.raw'') / |raw'|^4
        return dd / sp2[..., None] - d * (dot / sp2 ** 2)[..., None]

    return ProfileCurve(ev, dv1, dv2, (0.0, total))


def ellipse_generator(center=3.0, semi_x=2.0, semi_z=1.0) -> ProfileCurve:
    """Arc-length ellipse ((center + a cos t), b sin t); t = 0 at the outer vertex."""
    a_e, b_e = float(semi_x), float(semi_z)
    raw = ParametricCurve(
        eval_fn=lambda t: np.stack(
            [center + a_e * np.cos(np.asarray(t)), b_e * np.sin(np.asarray(t))], axis=-1),
        deriv1_fn=lambda t: np.stack(
            [-a_e * np.sin(np.asarray(t)), b_e * np.cos(np.asarray(t))], axis=-1),
        deriv2_fn=lambda t: np.stack(
            [-a_e * np.cos(np.asarray(t)), -b_e * np.sin(np.asarray(t))], axis=-1),
        span=(0.0, 2.0 * np.pi),
    )
    return reparametrize_arclength(raw)


def curve_from_samples(points: Sequence) -> ProfileCurve:
    """Closed generator from an (n, 2) sample table via a periodic quintic
    spline, whose curvature derivative is continuous."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < 4:
        raise NonConformingCurveError("sample table must be an (n>=4, 2) array")
    if np.allclose(pts[0], pts[-1]):
        pts = pts[:-1]
    t = np.arange(len(pts) + 1, dtype=float)
    closed = np.vstack([pts, pts[:1]])
    from scipy.interpolate import make_interp_spline
    spl = make_interp_spline(t, closed, k=5, bc_type="periodic", axis=0)
    raw = ParametricCurve(eval_fn=spl, deriv1_fn=spl.derivative(1),
                          deriv2_fn=spl.derivative(2), span=(0.0, float(len(pts))))
    return reparametrize_arclength(raw)
