import numpy as np
import pytest

import torus_billiards as tb
from torus_billiards.grazing import GrazingClass, _sign_ladder, local_curvature_radius

from oracles import normal_curvature_from_indicator, tube_hessian

TWO_PI = 2.0 * np.pi


def test_principal_curvatures_circle(circle_domain):
    k1, k2 = tb.principal_curvatures(circle_domain, 0.0)
    assert float(k1) == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert float(k2) == pytest.approx(1.0, abs=1e-12)
    k1, _ = tb.principal_curvatures(circle_domain, np.pi)
    assert float(k1) == pytest.approx(-1.0, abs=1e-12)
    # azimuthal curvature vanishes at the top of the tube
    k1, _ = tb.principal_curvatures(circle_domain, np.pi / 2)
    assert abs(float(k1)) < 1e-12


def test_normal_curvature_euler(circle_domain):
    # azimuthal direction at the outer equator: 1/(R+r)
    kn = tb.normal_curvature(circle_domain, 0.0, 0.0,
                             circle_domain.phi_hat(0.0))
    assert kn == pytest.approx(1.0 / 3.0, abs=1e-12)
    # meridian direction: tube curvature
    kn = tb.normal_curvature(circle_domain, 0.0, 0.0,
                             circle_domain.meridian_tangent(0.0, 0.0))
    assert kn == pytest.approx(1.0, abs=1e-12)


def test_normal_curvature_rejects_non_tangent(circle_domain):
    with pytest.raises(ValueError):
        tb.normal_curvature(circle_domain, 0.0, 0.0, [1.0, 0.0, 0.0])


def test_normal_curvature_indicator_oracle(circle_domain):
    for tau, theta in ((0.0, 0.0), (0.0, np.pi / 2), (2 * np.pi / 3, 0.7)):
        w = (np.cos(theta) * circle_domain.phi_hat(0.0)
             + np.sin(theta) * circle_domain.meridian_tangent(tau, 0.0))
        a = tb.normal_curvature(circle_domain, tau, 0.0, w)
        b = normal_curvature_from_indicator(circle_domain, tau, 0.0, w,
                                            tube_hessian)
        assert a == pytest.approx(b, abs=1e-9)


def test_normal_curvature_fd_indicator_oracle(ellipse_domain):
    """Euler's formula against central differences of the generic
    indicator's unit gradient on the ellipse."""
    dom = ellipse_domain
    m = dom.markers
    for rel, theta in ((0.3, 0.0), (0.5, np.pi / 2), (1.4, 0.7)):
        tau = float(dom.profile.wrap(m.tau1_star + rel * m.inner_span))
        w = (np.cos(theta) * dom.phi_hat(0.4)
             + np.sin(theta) * dom.meridian_tangent(tau, 0.4))
        a = tb.normal_curvature(dom, tau, 0.4, w)
        b = normal_curvature_from_indicator(dom, tau, 0.4, w)
        assert a == pytest.approx(b, abs=1e-6)


def test_classify_convex_concave(circle_domain):
    assert tb.classify(circle_domain, [3.0, 0.0, 0.0], [0.0, 1.0, 0.0]) \
        is GrazingClass.CONVEX
    assert tb.classify(circle_domain, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]) \
        is GrazingClass.CONCAVE
    assert tb.classify(circle_domain, [3.0, 0.0, 0.0], [1.0, 0.0, 0.0]) \
        is GrazingClass.NON_GRAZING


def test_inflection_directions_circle(circle_domain):
    tau = 2 * np.pi / 3
    d = tb.inflection_directions(circle_domain, tau, 0.0)
    assert d.theta == pytest.approx(np.pi / 6, abs=1e-12)
    x = circle_domain.sigma(tau, 0.0)
    assert tb.signed_angular_momentum(x, d.I1) > 0.0
    assert tb.signed_angular_momentum(x, d.I2) > 0.0
    # zero normal curvature along both directions
    for w in (d.I1, d.I2):
        assert abs(tb.normal_curvature(circle_domain, tau, 0.0, w)) < 1e-10
    assert tb.classify(circle_domain, x, d.I1) is GrazingClass.INFLECTION_PLUS
    assert tb.classify(circle_domain, x, d.I2) is GrazingClass.INFLECTION_MINUS
    # reversing an inflection direction swaps the orientation
    assert tb.classify(circle_domain, x, -d.I1) is GrazingClass.INFLECTION_MINUS


def test_inflection_negative_momentum(circle_domain):
    tau = 2 * np.pi / 3
    d = tb.inflection_directions(circle_domain, tau, 0.0,
                                 positive_momentum=False)
    x = circle_domain.sigma(tau, 0.0)
    assert tb.signed_angular_momentum(x, d.I1) < 0.0
    assert tb.signed_angular_momentum(x, d.I2) < 0.0


def test_inflection_undefined_outside_inner_region(circle_domain):
    with pytest.raises(tb.UndefinedInflectionError):
        tb.inflection_directions(circle_domain, 0.0, 0.0)


def test_inflection_undefined_in_z_h_band(circle_domain):
    with pytest.raises(tb.UndefinedInflectionError):
        tb.inflection_directions(circle_domain, np.pi, 0.0)
    with pytest.raises(tb.UndefinedInflectionError):
        tb.inflection_directions(circle_domain, np.pi + 5e-4, 0.0)
    # just outside the band it resolves again
    d = tb.inflection_directions(circle_domain, np.pi + 5e-3, 0.0)
    assert np.isfinite(d.theta)


def test_concave_direction(circle_domain):
    tau = 2 * np.pi / 3
    u = tb.concave_direction(circle_domain, tau, 0.0, 0.5)
    assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-12)
    x = circle_domain.sigma(tau, 0.0)
    assert tb.classify(circle_domain, x, u) is GrazingClass.CONCAVE
    # inside the Z_h band the formal angle pair is used
    u_band = tb.concave_direction(circle_domain, np.pi, 0.0, 0.3)
    assert np.linalg.norm(u_band) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        tb.concave_direction(circle_domain, tau, 0.0, 1.5)
    with pytest.raises(tb.UndefinedInflectionError):
        tb.concave_direction(circle_domain, 0.0, 0.0, 0.5)


def test_inflection_momentum_value(circle_domain):
    omega = tb.inflection_momentum(circle_domain, 2 * np.pi / 3)
    # gamma1 cos(theta) = 1.5 * cos(pi/6)
    assert omega == pytest.approx(1.5 * np.cos(np.pi / 6), abs=1e-12)
    assert omega == pytest.approx(1.2990381056766582, abs=1e-12)


def test_classify_phi_equivariance(circle_domain):
    tau = 2 * np.pi / 3
    for phi in (0.0, 1.0, 4.0):
        d = tb.inflection_directions(circle_domain, tau, phi)
        x = circle_domain.sigma(tau, phi)
        assert tb.classify(circle_domain, x, d.I1) \
            is GrazingClass.INFLECTION_PLUS


def test_sign_ladder_ambiguous():
    class FlatIndicator(tb.CircleTorusDomain):
        def xi(self, p):
            return np.zeros(np.shape(p)[:-1])

    dom = FlatIndicator()
    with pytest.raises(tb.GrazingAmbiguousError):
        _sign_ladder(dom, np.array([3.0, 0.0, 0.0]),
                     np.array([0.0, 1.0, 0.0]), 0.0)


def test_local_curvature_radius(circle_domain):
    assert local_curvature_radius(circle_domain, 0.0) == pytest.approx(1.0)
