import numpy as np
import pytest
from scipy.special import ellipe

import torus_billiards as tb
from torus_billiards import curves
from torus_billiards.curves import ProfileCurve, ParametricCurve, h_value, zero_set_h

from oracles import scan_zeros_scalar

TWO_PI = 2.0 * np.pi


def test_circle_markers():
    curve = tb.circle_generator(2.0, 1.0)
    m = tb.find_markers(curve)
    assert m.tau1_star == pytest.approx(np.pi / 2, abs=1e-10)
    assert m.tau2_star == pytest.approx(3 * np.pi / 2, abs=1e-10)
    assert m.lambda_star == pytest.approx(np.pi, abs=1e-10)
    assert m.inner_span == pytest.approx(np.pi, abs=1e-10)


def test_circle_curvature_constant():
    curve = tb.circle_generator(2.0, 1.0)
    tau = np.linspace(0, TWO_PI, 64, endpoint=False)
    assert np.allclose(curve.curvature(tau), 1.0, atol=1e-12)
    assert np.allclose(curve.curvature_prime(tau), 0.0, atol=1e-12)
    # r = 0.5 doubles the curvature
    small = tb.circle_generator(2.0, 0.5)
    assert np.allclose(small.curvature(np.linspace(0, np.pi, 7)), 2.0,
                       atol=1e-12)


def test_circle_unit_speed_and_convexity():
    curve = tb.circle_generator(2.0, 1.0)
    tau = np.linspace(0, TWO_PI, 256, endpoint=False)
    d1 = curve.deriv1(tau)
    assert np.allclose(d1[..., 0] ** 2 + d1[..., 1] ** 2, 1.0, atol=1e-14)
    assert curve.convexity(tau).min() > 0.0


def test_wrap_periodicity():
    curve = tb.circle_generator(2.0, 1.0)
    assert curve.wrap(TWO_PI + 0.3) == pytest.approx(0.3, abs=1e-12)
    assert curve.wrap(-0.3) == pytest.approx(TWO_PI - 0.3, abs=1e-12)
    assert np.allclose(curve.eval(0.7), curve.eval(0.7 + 3 * TWO_PI))


def test_non_unit_speed_rejected():
    def ev(t):
        ang = np.asarray(t)
        return np.stack([2.0 + np.cos(ang), np.sin(ang)], axis=-1)

    def d1(t):
        ang = np.asarray(t)
        return np.stack([-2.0 * np.sin(ang), 2.0 * np.cos(ang)], axis=-1)

    def d2(t):
        ang = np.asarray(t)
        return np.stack([-np.cos(ang), -np.sin(ang)], axis=-1)

    with pytest.raises(tb.InvariantViolation):
        ProfileCurve(ev, d1, d2, (0.0, TWO_PI))


def test_wrong_orientation_rejected():
    # clockwise circle: unit speed but negative convexity
    def ev(t):
        ang = np.asarray(t)
        return np.stack([2.0 + np.cos(ang), -np.sin(ang)], axis=-1)

    def d1(t):
        ang = np.asarray(t)
        return np.stack([-np.sin(ang), -np.cos(ang)], axis=-1)

    def d2(t):
        ang = np.asarray(t)
        return np.stack([-np.cos(ang), np.sin(ang)], axis=-1)

    with pytest.raises(tb.NonConformingCurveError):
        ProfileCurve(ev, d1, d2, (0.0, TWO_PI))


def test_axis_touching_circle_rejected():
    with pytest.raises(tb.NonConformingCurveError):
        tb.circle_generator(R=1.0, r=1.5)


def test_ellipse_perimeter():
    curve = tb.ellipse_generator(center=3.0, semi_x=2.0, semi_z=1.0)
    # complete elliptic integral of the second kind as independent oracle
    perimeter = 4.0 * 2.0 * ellipe(1.0 - (1.0 / 2.0) ** 2)
    assert curve.period_length == pytest.approx(perimeter, abs=1e-9)


def test_ellipse_unit_speed_exact():
    curve = tb.ellipse_generator()
    tau = np.linspace(0, curve.period_length, 128, endpoint=False)
    d1 = curve.deriv1(tau)
    assert np.abs(d1[..., 0] ** 2 + d1[..., 1] ** 2 - 1.0).max() < 1e-12


def test_ellipse_markers_symmetry():
    curve = tb.ellipse_generator(center=3.0, semi_x=2.0, semi_z=1.0)
    m = tb.find_markers(curve)
    # top and bottom of the ellipse are a quarter/three-quarter period in
    g = curve.eval(np.array([m.tau1_star, m.tau2_star, m.lambda_star]))
    assert g[0, 1] == pytest.approx(1.0, abs=1e-8)    # top: gamma2 = semi_z
    assert g[1, 1] == pytest.approx(-1.0, abs=1e-8)   # bottom
    assert g[2, 0] == pytest.approx(1.0, abs=1e-8)    # innermost: center-semi_x


def _sampled_circle():
    t = np.linspace(0, TWO_PI, 64, endpoint=False)
    pts = np.stack([2.0 + np.cos(t), np.sin(t)], axis=-1)
    return tb.curve_from_samples(pts)


# the scalar oracle costs about 0.5 ms a point on the arc-length curves,
# so those two scan a coarser grid
@pytest.mark.parametrize("make,n_grid", [
    (lambda: tb.circle_generator(2.0, 1.0), curves.DEFAULT_SCAN_POINTS),
    (lambda: tb.ellipse_generator(3.0, 2.0, 1.0), 1024),
    (_sampled_circle, 1024)], ids=["circle", "ellipse", "samples"])
def test_find_markers_matches_scalar_scan(monkeypatch, make, n_grid):
    curve = make()
    fast = tb.find_markers(curve, n_grid)
    monkeypatch.setattr(curves, "_scan_zeros", scan_zeros_scalar)
    assert tb.find_markers(curve, n_grid) == fast     # bit-identical fields


def test_find_markers_scans_in_array_calls():
    curve = tb.ellipse_generator(3.0, 2.0, 1.0)
    calls = []
    deriv1 = curve.deriv1
    curve.deriv1 = lambda tau: calls.append(np.size(tau)) or deriv1(tau)
    tb.find_markers(curve)
    assert len(calls) < 100       # one call per scan, plus brentq polishing
    assert max(calls) == curves.DEFAULT_SCAN_POINTS + 1


def test_h_sign_change_circle():
    curve = tb.circle_generator(2.0, 1.0)
    m = tb.find_markers(curve)
    ha = float(h_value(curve, m, 2 * np.pi / 3))
    hb = float(h_value(curve, m, 4 * np.pi / 3))
    assert ha * hb < 0.0
    assert abs(float(h_value(curve, m, np.pi))) < 1e-12


def test_zero_set_h_circle():
    curve = tb.circle_generator(2.0, 1.0)
    m = tb.find_markers(curve)
    assert len(m.z_h_zeros) == 1
    assert m.z_h_zeros[0] == pytest.approx(np.pi, abs=1e-8)
    doubled = zero_set_h(curve, m, n_grid=8192)
    assert len(doubled) == 1
    assert doubled[0] == pytest.approx(np.pi, abs=1e-8)


def test_in_inner_and_dist_to_z_h():
    curve = tb.circle_generator(2.0, 1.0)
    m = tb.find_markers(curve)
    assert bool(m.in_inner(curve, np.pi))
    assert bool(m.in_inner(curve, 2 * np.pi / 3))
    assert not bool(m.in_inner(curve, 0.0))
    assert not bool(m.in_inner(curve, np.pi / 2))   # endpoint excluded
    assert m.dist_to_z_h(curve, np.pi) == pytest.approx(0.0, abs=1e-8)
    assert m.dist_to_z_h(curve, np.pi + 0.25) == pytest.approx(0.25, abs=1e-8)


def test_curve_from_samples_circle():
    t = np.linspace(0, TWO_PI, 64, endpoint=False)
    pts = np.stack([2.0 + np.cos(t), np.sin(t)], axis=-1)
    curve = tb.curve_from_samples(pts)
    assert curve.period_length == pytest.approx(TWO_PI, abs=1e-3)
    tau = np.linspace(0, curve.period_length, 50, endpoint=False)
    g = curve.eval(tau)
    resid = (g[..., 0] - 2.0) ** 2 + g[..., 1] ** 2 - 1.0
    assert np.abs(resid).max() < 1e-5


def test_curve_from_samples_ellipse():
    # 64 samples of an ellipse: the arc-length map at rtol 1e-10 left a
    # closure gap of 1.75e-6, above the 1e-6 check of ProfileCurve
    t = np.linspace(0, TWO_PI, 64, endpoint=False)
    pts = np.stack([3.0 + 1.5 * np.cos(t), 0.8 * np.sin(t)], axis=-1)
    curve = tb.curve_from_samples(pts)
    assert tb.find_markers(curve).lambda_star == pytest.approx(3.69699,
                                                               abs=1e-5)


def test_curve_from_samples_single_h_zero():
    # a cubic spline's curvature derivative jumps at the knots and gave
    # two spurious zeros of h, 0.0056 either side of the true one
    t = np.linspace(0, TWO_PI, 64, endpoint=False)
    pts = np.stack([3.0 + 1.5 * np.cos(t), 0.8 * np.sin(t)], axis=-1)
    zeros = tb.find_markers(tb.curve_from_samples(pts)).z_h_zeros
    exact = tb.find_markers(tb.ellipse_generator(3.0, 1.5, 0.8)).z_h_zeros
    assert len(exact) == 1
    assert len(zeros) == 1
    assert zeros[0] == pytest.approx(exact[0], abs=1e-6)


def test_curve_from_samples_validation():
    with pytest.raises(tb.NonConformingCurveError):
        tb.curve_from_samples(np.zeros((3, 2)))


def test_reparametrize_rejects_nonconvex():
    # peanut-shaped curve with a concave waist
    def ev(t):
        t = np.asarray(t)
        r = 1.0 + 0.6 * np.cos(2 * t)
        return np.stack([4.0 + r * np.cos(t), r * np.sin(t)], axis=-1)

    def d1(t):
        t = np.asarray(t)
        r = 1.0 + 0.6 * np.cos(2 * t)
        rp = -1.2 * np.sin(2 * t)
        return np.stack([rp * np.cos(t) - r * np.sin(t),
                         rp * np.sin(t) + r * np.cos(t)], axis=-1)

    def d2(t):
        t = np.asarray(t)
        r = 1.0 + 0.6 * np.cos(2 * t)
        rp = -1.2 * np.sin(2 * t)
        rpp = -2.4 * np.cos(2 * t)
        return np.stack(
            [rpp * np.cos(t) - 2 * rp * np.sin(t) - r * np.cos(t),
             rpp * np.sin(t) + 2 * rp * np.cos(t) - r * np.sin(t)], axis=-1)

    raw = ParametricCurve(ev, d1, d2, (0.0, TWO_PI))
    with pytest.raises(tb.NonConformingCurveError):
        tb.reparametrize_arclength(raw)
