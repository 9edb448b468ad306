import warnings
from collections import Counter

import numpy as np
import pytest

import torus_billiards as tb
from torus_billiards import grazing
from torus_billiards.curves import h_value
from torus_billiards.grazing import GrazingClass, _euler_taylor

from oracles import (_sign_ladder, classify_by_ladder, local_curvature_radius,
                     normal_curvature_from_indicator, tube_hessian)

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


@pytest.mark.parametrize("tau,phi,w", [
    (0.0, 0.0, [0.0, 0.0, 0.0]), (0.0, 0.0, [np.nan, 1.0, 0.0]),
    (0.0, 0.0, [0.0, np.inf, 0.0]), (np.nan, 0.0, [0.0, 1.0, 0.0]),
    (0.0, np.inf, [0.0, 1.0, 0.0])])
def test_normal_curvature_rejects_degenerate_input(circle_domain, tau, phi, w):
    """A zero or non-finite direction and a non-finite tau or phi raise
    ValueError, with no RuntimeWarning and no NaN on the way."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite"):
            tb.normal_curvature(circle_domain, tau, phi, w)


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
    with pytest.raises(ValueError, match="velocity"):
        tb.classify(circle_domain, [3.0, 0.0, 0.0], [0.0, 0.0, 0.0])


@pytest.mark.parametrize("x", [[3.0, 0.0, 0.0, 7.0], [3.0, 0.0],
                               [[3.0, 0.0, 0.0]], 3.0])
def test_classify_rejects_a_point_that_is_not_a_3_vector(circle_domain, x):
    with pytest.raises(ValueError, match="3-vector"):
        tb.classify(circle_domain, x, [0.0, 1.0, 0.0])


@pytest.mark.parametrize("x", [[np.nan, 0.0, 0.0], [3.0, 0.0, np.inf]])
def test_classify_rejects_a_point_that_is_not_finite(circle_domain, x):
    """A non-finite point raises ValueError before its foot solve: it
    warned from xi_grad and raised NumericsError ("bounce point off the
    boundary: xi = nan")."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite"):
            tb.classify(circle_domain, x, [0.0, 1.0, 0.0])


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


def test_classify_phi_equivariance(circle_domain, ellipse_domain,
                                   tilted_ellipse_domain):
    for dom in (circle_domain, ellipse_domain, tilted_ellipse_domain):
        m = dom.markers
        tau = float(dom.profile.wrap(m.tau1_star + 0.3 * m.inner_span))
        for phi in (0.0, 1.0, 4.0):
            d = tb.inflection_directions(dom, tau, phi)
            x = dom.sigma(tau, phi)
            assert tb.classify(dom, x, d.I1) is GrazingClass.INFLECTION_PLUS
            assert tb.classify(dom, x, d.I2) is GrazingClass.INFLECTION_MINUS


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


def _classes(fn, dom, rows):
    out = []
    for tau, phi, theta in rows:
        w = (np.cos(theta) * dom.phi_hat(phi)
             + np.sin(theta) * dom.meridian_tangent(tau, phi))
        try:
            out.append(fn(dom, dom.sigma(tau, phi), w))
        except tb.GrazingAmbiguousError:
            out.append(None)
    return out


@pytest.mark.parametrize("fixture,n_tau,seed", [
    ("circle_domain", 32, 1), ("generic_circle_domain", 8, 2),
    ("ellipse_domain", 8, 3), ("tilted_ellipse_domain", 6, 4)])
def test_classify_matches_ladder_oracle(request, fixture, n_tau, seed):
    """classify equals the sign ladder wherever the ladder resolves: on a
    jittered tau x theta grid at random azimuths, and on the flat rows,
    where both Taylor terms vanish (the azimuthal tangents where
    gamma2' = 0, and the inflection directions at the zeros of h)."""
    dom = request.getfixturevalue(fixture)
    m = dom.markers
    rng = np.random.default_rng(seed)
    a, span = dom.profile.period[0], dom.profile.period_length
    rows = [(a + span * (i + rng.uniform()) / n_tau, rng.uniform(0, TWO_PI),
             np.pi * (j + rng.uniform()) / 8)
            for i in range(n_tau) for j in range(16)]
    flat = [(tau, 0.3, theta) for tau in (m.tau1_star, m.tau2_star)
            for theta in (0.0, np.pi)]
    for tau in m.z_h_zeros:
        th = float(tb.inflection_angle(dom, tau))
        flat += [(tau, 0.3, theta) for theta in (th, np.pi - th, np.pi + th,
                                                 -th)]
    want = _classes(classify_by_ladder, dom, rows + flat)
    got = _classes(tb.classify, dom, rows + flat)
    assert None not in got
    assert None not in want[len(rows):]
    assert [g for g, w in zip(got, want) if w] == [w for w in want if w]


def test_classify_resolves_ladder_ambiguous_rows(circle_domain):
    """On the default 64 x 16 classify-boundary grid of the circle the
    ladder leaves 8 rows ambiguous, where the quadratic and the cubic term
    cross inside it; the Taylor model reads them at s0 and agrees with the
    ladder on every other row."""
    rows = [(TWO_PI * i / 64, 0.0, np.pi * j / 8)
            for i in range(64) for j in range(16)]
    want = _classes(classify_by_ladder, circle_domain, rows)
    got = _classes(tb.classify, circle_domain, rows)
    P, M = GrazingClass.INFLECTION_PLUS, GrazingClass.INFLECTION_MINUS
    resolved = {rows[k][0::2]: g for k, (g, w) in enumerate(zip(got, want))
                if w is None}
    assert resolved == {
        (TWO_PI * i / 64, np.pi * j / 8): c
        for i, classes in ((19, (M, M, P, P)), (45, (P, P, M, M)))
        for j, c in zip((1, 7, 9, 15), classes)}
    assert all(g is w for g, w in zip(got, want) if w is not None)


def _section_terms(dom, tau):
    """k1, k2 and their tau-derivatives, (gamma2'/gamma1)' and kappa'."""
    prof = dom.profile
    (t1, t2), (_, a2) = prof.deriv1(tau), prof.deriv2(tau)
    g1 = float(prof.gamma1(tau))
    k1 = t2 / g1
    return (k1, float(prof.curvature(tau)), (a2 - k1 * t1) / g1,
            float(prof.curvature_prime(tau)))


@pytest.mark.parametrize("fixture", ["circle_domain", "ellipse_domain"])
def test_taylor_model_residual_is_quartic(request, fixture):
    """xi(x + s u) - (kappa_n s^2/2 + c3 s^3/6) falls 16-fold when s halves."""
    dom = request.getfixturevalue(fixture)
    rng = np.random.default_rng(18)
    ratios = []
    for _ in range(40):
        tau = rng.uniform(*dom.profile.period)
        phi, theta = rng.uniform(0, TWO_PI, 2)
        k1, k2, dk1, dk2 = _section_terms(dom, tau)
        kn, c3 = _euler_taylor(k1, k2, np.cos(theta) ** 2, np.sin(theta),
                               dk1, dk2)
        x = dom.sigma(tau, phi)
        u = (np.cos(theta) * dom.phi_hat(phi)
             + np.sin(theta) * dom.meridian_tangent(tau, phi))
        res = [float(dom.xi(x + s * u)) - (kn * s * s / 2 + c3 * s ** 3 / 6)
               for s in (2e-2, 1e-2)]
        ratios.append(res[0] / res[1])
    assert 15.0 < np.median(ratios) < 17.0
    assert min(ratios) > 12.0 and max(ratios) < 20.0


@pytest.mark.parametrize("fixture", ["circle_domain", "ellipse_domain"])
def test_cubic_term_at_inflection_angle_is_h(request, fixture):
    """At the inflection angle kappa_n = 0 and c3 = (3/gamma1) h sin cos^2,
    so classify calls the direction turned toward increasing tau
    inflection+ exactly where h > 0, as inflection_directions orders I1."""
    dom = request.getfixturevalue(fixture)
    m = dom.markers
    for rel in np.linspace(0.05, 0.95, 19):
        tau = float(dom.profile.wrap(m.tau1_star + rel * m.inner_span))
        theta = float(tb.inflection_angle(dom, tau))
        k1, k2, dk1, dk2 = _section_terms(dom, tau)
        kn, c3 = _euler_taylor(k1, k2, np.cos(theta) ** 2, np.sin(theta),
                               dk1, dk2)
        h = float(h_value(dom.profile, m, tau))
        assert abs(kn) < 1e-12
        assert abs(c3 - 3.0 / float(dom.profile.gamma1(tau)) * h
                   * np.sin(theta) * np.cos(theta) ** 2) < 1e-12


def _fan(dom, tau, phi, n):
    """Boundary point sigma(tau, phi) and n tangent directions at it."""
    e_az, e_m = dom.phi_hat(phi), dom.meridian_tangent(tau, phi)
    return dom.sigma(tau, phi), [np.cos(th) * e_az + np.sin(th) * e_m
                                 for th in np.pi * (np.arange(n) + 0.37) / 8]


def _fan_row(dom, tau, phi, x, w):
    """(class, kappa_n bits) of one fan direction, as classify-boundary
    reads it."""
    kn = tb.normal_curvature(dom, tau, phi, w)
    try:
        cls = tb.classify(dom, x, w)
    except tb.GrazingAmbiguousError:
        cls = None
    return cls, float(kn).hex()


def _evict(dom):
    """Put another point of dom in both grazing memos."""
    m = dom.markers
    tau = float(dom.profile.wrap(m.tau1_star + 0.71 * m.inner_span))
    x, (w,) = _fan(dom, tau, 1.3, 1)
    _fan_row(dom, tau, 1.3, x, w)


@pytest.mark.parametrize("fixture", ["circle_domain", "generic_circle_domain",
                                     "ellipse_domain"])
def test_fan_memo_matches_cold_reads(request, fixture):
    """Over a 16-direction fan each direction read right after the one
    before it (the point's geometry read once) gives the bits of the same
    direction read after another point evicted the memos."""
    dom = request.getfixturevalue(fixture)
    m = dom.markers
    tau = float(dom.profile.wrap(m.tau1_star + 0.3 * m.inner_span))
    x, fan = _fan(dom, tau, 0.4, 16)
    _evict(dom)
    warm = [_fan_row(dom, tau, 0.4, x, w) for w in fan]
    cold = []
    for w in fan:
        _evict(dom)
        cold.append(_fan_row(dom, tau, 0.4, x, w))
    assert warm == cold
    assert len({c for c, _ in warm}) > 1


def test_fan_memo_keys_on_the_domain_and_the_bits():
    """The point (3, 0, 0) lies on the boundary of three tori: it is the
    outer equator of the first two and the inner equator of the third, and
    (tau, phi) = (0, 0) is that point on the first two.  No domain reads
    the geometry of another, and phi = -0.0 is its own memo entry."""
    a, b = tb.CircleTorusDomain(2.0, 1.0), tb.CircleTorusDomain(2.5, 0.5)
    c = tb.CircleTorusDomain(4.0, 1.0)
    x, e_az, e_z = [3.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]
    for _ in range(2):
        assert tb.normal_curvature(a, 0.0, 0.0, e_z) == pytest.approx(1.0)
        assert tb.normal_curvature(b, 0.0, 0.0, e_z) == pytest.approx(2.0)
        assert tb.classify(a, x, e_az) is GrazingClass.CONVEX
        assert tb.classify(c, x, e_az) is GrazingClass.CONCAVE
    misses = grazing._section_geometry.cache_info().misses
    tb.normal_curvature(a, 0.0, 0.0, e_z)
    tb.normal_curvature(a, 0.0, -0.0, e_z)
    assert grazing._section_geometry.cache_info().misses == misses + 2


def test_fan_reads_its_point_once(ellipse_domain, monkeypatch):
    """A fan of n directions at one ellipse point through normal_curvature
    and classify takes one foot solve and 20 profile reads, whatever n (n
    foot solves and 20 n profile reads when each direction read the point's
    geometry again).  An invalid point or velocity is refused before any of
    them."""
    dom = ellipse_domain
    m = dom.markers
    tau = float(dom.profile.wrap(m.tau1_star + 0.3 * m.inner_span))
    calls = Counter()

    def counted(name, fn):
        def wrap(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrap

    monkeypatch.setattr(grazing, "bounce_foot",
                        counted("foot", grazing.bounce_foot))
    for attr in ("eval", "deriv1", "deriv2"):
        monkeypatch.setattr(dom.profile, attr,
                            counted("profile", getattr(dom.profile, attr)))
    counts = {}
    for n in (4, 16):
        x, fan = _fan(dom, tau, 0.4, n)
        _evict(dom)
        calls.clear()
        for w in fan:
            _fan_row(dom, tau, 0.4, x, w)
        counts[n] = dict(calls)
    assert counts[4]["foot"] == counts[16]["foot"] == 1
    assert counts[4]["profile"] == counts[16]["profile"]
    calls.clear()
    for bad_x, bad_v in ((x[:2], fan[0]), (x, [0.0, 0.0, 0.0])):
        with pytest.raises(ValueError):
            tb.classify(dom, bad_x, bad_v)
    assert not calls
