import tracemalloc

import numpy as np
import pytest

import torus_billiards as tb
from torus_billiards.domain import PointClass, bounce_foot

from oracles import nearest_parameter_full_table, tube_hessian

TWO_PI = 2.0 * np.pi


def fd_grad(fn, p, h=1e-6):
    g = np.zeros(3)
    for i in range(3):
        dp = np.zeros(3)
        dp[i] = h
        g[i] = (fn(p + dp) - fn(p - dp)) / (2 * h)
    return g


def test_xi_signs_circle(circle_domain):
    assert float(circle_domain.xi([2.0, 0.0, 0.0])) == pytest.approx(-1.0)
    assert float(circle_domain.xi([3.0, 0.0, 0.0])) == pytest.approx(0.0, abs=1e-14)
    assert float(circle_domain.xi([3.5, 0.0, 0.0])) > 0.0
    assert float(circle_domain.xi([0.0, 0.0, 0.0])) > 0.0  # hole is outside


def test_xi_batched(circle_domain):
    pts = np.array([[2.0, 0.0, 0.0], [3.0, 0.0, 0.0], [0.0, 2.0, 1.0]])
    vals = circle_domain.xi(pts)
    assert vals.shape == (3,)
    assert vals[0] == pytest.approx(-1.0)
    assert abs(vals[1]) < 1e-14
    assert abs(vals[2]) < 1e-14


def test_generic_indicator_is_signed_distance(generic_circle_domain):
    dom = generic_circle_domain
    # distance to the generator circle: |(rho, z) - (2, 0)| - 1
    for p, want in [([2.5, 0.0, 0.0], -0.5), ([3.2, 0.0, 0.0], 0.2),
                    ([0.0, 2.0, 0.7], -0.3)]:
        assert float(dom.xi(p)) == pytest.approx(want, abs=1e-9)


def test_grad_xi_matches_fd(circle_domain, generic_circle_domain):
    rng = np.random.default_rng(3)
    for dom, tol in ((circle_domain, 1e-8), (generic_circle_domain, 1e-6)):
        for _ in range(10):
            p = np.array([2.0, 0.0, 0.0]) + rng.uniform(-0.6, 0.6, 3)
            g = dom.grad_xi(p)
            assert np.allclose(g, fd_grad(lambda q: float(dom.xi(q)), p),
                               atol=tol)


@pytest.mark.parametrize("fixture", ["generic_circle_domain",
                                     "ellipse_domain"])
def test_xi_grad_near_boundary_is_foot_normal(request, fixture):
    """1e-12 to 1e-10 off the boundary, grad xi is the outward normal of
    the foot point to rounding; the offset over its length, which the
    signed distance's gradient also is, keeps few digits there."""
    dom = request.getfixturevalue(fixture)
    rng = np.random.default_rng(11)
    a, b = dom.profile.period
    tau = rng.uniform(a, b, 200)
    phi = rng.uniform(0.0, TWO_PI, 200)
    off = rng.choice([-1.0, 1.0], 200) * 10.0 ** rng.uniform(-12, -10, 200)
    n = dom.outward_normal(tau, phi)
    _, g = dom.xi_grad(dom.sigma(tau, phi) + off[:, None] * n)
    assert np.abs(g - n).max() <= 1e-12


@pytest.mark.parametrize("make", [
    lambda: tb.ellipse_generator(3.0, 2.0, 1.0),
    lambda: tb.curve_from_samples(np.stack(
        [3.0 + 1.5 * np.cos(np.linspace(0, TWO_PI, 64, endpoint=False)),
         0.8 * np.sin(np.linspace(0, TWO_PI, 64, endpoint=False))], axis=-1)),
], ids=["ellipse", "samples"])
def test_arclength_indicator_takes_any_shape(make):
    """xi and grad_xi of an arc-length generator take an (..., 3) array,
    and equal the flat call reshaped, bit for bit."""
    dom = tb.ToroidalDomain(make())
    rng = np.random.default_rng(4)
    p = dom.sigma(rng.uniform(*dom.profile.period, 4), 0.0)
    p = (p + rng.uniform(-0.2, 0.2, (4, 3))).reshape(2, 2, 3)
    flat = p.reshape(-1, 3)
    assert np.array_equal(dom.xi(p), dom.xi(flat).reshape(2, 2))
    assert np.array_equal(dom.grad_xi(p), dom.grad_xi(flat).reshape(2, 2, 3))


def test_hessian_xi_symmetric_and_fd(circle_domain):
    p = np.array([2.3, 0.4, 0.5])
    H = tube_hessian(circle_domain, p)
    assert np.allclose(H, H.T, atol=1e-12)
    for i in range(3):
        e = np.zeros(3)
        e[i] = 1e-6
        fd = (circle_domain.grad_xi(p + e) - circle_domain.grad_xi(p - e)) / 2e-6
        assert np.allclose(H[i], fd, atol=1e-6)


def test_unit_normals(circle_domain):
    assert np.allclose(circle_domain.grad_xi([3.0, 0.0, 0.0]),
                       [1.0, 0.0, 0.0], atol=1e-12)
    assert np.allclose(circle_domain.grad_xi([1.0, 0.0, 0.0]),
                       [-1.0, 0.0, 0.0], atol=1e-12)
    assert np.allclose(circle_domain.grad_xi([0.0, 2.0, 1.0]),
                       [0.0, 0.0, 1.0], atol=1e-12)


def test_outward_normal_consistent_with_gradient(circle_domain):
    rng = np.random.default_rng(7)
    for _ in range(20):
        tau = rng.uniform(0, TWO_PI)
        phi = rng.uniform(0, TWO_PI)
        n1 = circle_domain.outward_normal(tau, phi)
        x = circle_domain.sigma(tau, phi)
        n2 = circle_domain.grad_xi(x)
        assert np.allclose(n1, n2, atol=1e-9)
        assert np.linalg.norm(n1) == pytest.approx(1.0, abs=1e-12)


def test_surface_tangents_orthogonal_to_normal(circle_domain):
    tau, phi = 1.1, 2.2
    n = circle_domain.outward_normal(tau, phi)
    t_m = circle_domain.meridian_tangent(tau, phi)
    t_a = circle_domain.phi_hat(phi)
    assert abs(float(n @ t_m)) < 1e-12
    assert abs(float(n @ t_a)) < 1e-12
    assert abs(float(t_m @ t_a)) < 1e-12


def test_classify_point(circle_domain):
    assert circle_domain.classify_point([2.0, 0.0, 0.0]) is PointClass.INSIDE
    assert circle_domain.classify_point([3.0, 0.0, 0.0]) is PointClass.BOUNDARY
    assert circle_domain.classify_point([3.1, 0.0, 0.0]) is PointClass.OUTSIDE


def test_foot_roundtrip(circle_domain, generic_circle_domain):
    """foot at a boundary point gives xi = 0, its tau and its normal."""
    rng = np.random.default_rng(5)
    for dom in (circle_domain, generic_circle_domain):
        for _ in range(20):
            tau = rng.uniform(0, TWO_PI)
            phi = rng.uniform(-2 * TWO_PI, 2 * TWO_PI)
            x = dom.sigma(tau, phi)
            xi, t, n = dom.foot(x)
            assert abs(float(xi)) <= 1e-12
            assert float(t) == pytest.approx(tau, abs=1e-8)
            assert np.allclose(n, dom.outward_normal(tau, phi), atol=1e-12)
            b_tau, b_n = bounce_foot(dom, x)
            assert b_tau == float(t) and np.array_equal(b_n, n)


def test_bounce_foot_rejects_off_boundary(circle_domain):
    for p in ([2.0, 0.0, 0.0], [3.0 + 2e-9, 0.0, 0.0]):
        with pytest.raises(tb.NumericsError):
            bounce_foot(circle_domain, p)


def test_nearest_parameter_analytic_vs_newton(circle_domain,
                                              generic_circle_domain):
    rng = np.random.default_rng(9)
    rho = rng.uniform(1.2, 2.8, 30)
    z = rng.uniform(-0.8, 0.8, 30)
    a = np.asarray(circle_domain.nearest_parameter(rho, z))
    b = np.asarray(generic_circle_domain.nearest_parameter(rho, z))
    d = np.abs(a - b)
    d = np.minimum(d, TWO_PI - d)
    assert d.max() < 1e-9


@pytest.fixture(scope="module")
def sampled_circle_domain():
    t = np.linspace(0, TWO_PI, 64, endpoint=False)
    pts = np.stack([2.0 + np.cos(t), np.sin(t)], axis=-1)
    return tb.ToroidalDomain(tb.curve_from_samples(pts))


SEED_DOMAINS = ["generic_circle_domain", "ellipse_domain",
                "sampled_circle_domain"]


def _seed_test_points(domain, rng):
    """20,000 points: 16,000 uniform in the domain's bounding box, 2,000
    deep inside near z = 0 (the ellipse's medial axis, the circle's centre
    and its horizontal diameter) and 2,000 within 1e-2 of the generator's
    centroid."""
    g = domain.profile.eval(np.linspace(*domain.profile.period, 256))
    lo = np.array([-g[:, 0].max(), -g[:, 0].max(), g[:, 1].min()]) - 0.2
    box = rng.uniform(lo, -lo, (16_000, 3))
    rho = np.concatenate([rng.uniform(g[:, 0].min(), g[:, 0].max(), 2_000),
                          np.full(2_000, g[:, 0].mean())])
    z = rng.choice([-1.0, 1.0], 4_000) * 10.0 ** rng.uniform(-8, -2, 4_000)
    ang = rng.uniform(0.0, TWO_PI, 2_000)
    rho[2_000:] += 10.0 ** rng.uniform(-8, -2, 2_000) * np.cos(ang)
    z[2_000:] = g[:, 1].mean() + np.abs(z[2_000:]) * np.sin(ang)
    phi = rng.uniform(0.0, TWO_PI, 4_000)
    near = np.stack([rho * np.cos(phi), rho * np.sin(phi), z], axis=-1)
    return np.concatenate([box, near])


@pytest.mark.parametrize("fixture", SEED_DOMAINS)
def test_seed_matches_full_table(request, monkeypatch, fixture):
    """The coarse-to-fine seed starts Newton where the full-table argmin
    does, so the indicator is bit-identical to the full-table form."""
    domain = request.getfixturevalue(fixture)
    p = _seed_test_points(domain, np.random.default_rng(8))
    rho, z = np.hypot(p[:, 0], p[:, 1]), p[:, 2]
    got = [domain.nearest_parameter(rho, z), domain.xi(p), domain.grad_xi(p)]
    monkeypatch.setattr(tb.ToroidalDomain, "nearest_parameter",
                        nearest_parameter_full_table)
    want = [domain.nearest_parameter(rho, z), domain.xi(p),
            domain.grad_xi(p)]
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


def test_seed_ties_match_full_table(request, monkeypatch):
    """Where every seed sample is equally near up to rounding (the centre
    of a circular generator, the ellipse's medial axis at z = 0), the seed
    may pick another tied sample; xi then agrees to 2 ulps."""
    phi = np.linspace(0.0, TWO_PI, 7)
    centre = np.stack([2.0 * np.cos(phi), 2.0 * np.sin(phi), 0.0 * phi], -1)
    rho = np.linspace(1.55, 4.45, 30)
    medial = np.stack([rho, 0.0 * rho, 0.0 * rho], axis=-1)
    cases = [("generic_circle_domain", centre), ("ellipse_domain", medial),
             ("sampled_circle_domain", centre)]
    got = [request.getfixturevalue(f).xi(p) for f, p in cases]
    monkeypatch.setattr(tb.ToroidalDomain, "nearest_parameter",
                        nearest_parameter_full_table)
    for (f, p), a in zip(cases, got):
        b = request.getfixturevalue(f).xi(p)
        ulp = np.spacing(np.maximum(np.abs(a), np.abs(b)))
        assert np.all(np.abs(a - b) <= 2 * ulp), f


def test_xi_seed_memory(generic_circle_domain):
    """An 8,192-point xi call holds no 8,192 x 2048 distance matrix (the
    full-table seed peaked at 256 MB)."""
    p = np.random.default_rng(4).uniform(-3.0, 3.0, (8192, 3))
    tracemalloc.start()
    try:
        generic_circle_domain.xi(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20


def test_march_xi_memory(generic_circle_domain):
    """An 8,192-point march_xi call stays under the bound of xi's."""
    p = np.random.default_rng(4).uniform(-3.0, 3.0, (8192, 3))
    tracemalloc.start()
    try:
        generic_circle_domain.march_xi(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20


def test_rotation_z():
    R = tb.rotation_z(0.7)
    assert np.allclose(R @ R.T, np.eye(3), atol=1e-14)
    assert np.allclose(R @ [1.0, 0.0, 0.0],
                       [np.cos(0.7), np.sin(0.7), 0.0], atol=1e-14)
    assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-14)


def test_domain_hash(circle_domain, ellipse_domain):
    h1 = circle_domain.domain_hash()
    assert h1 == circle_domain.domain_hash()
    assert h1 != ellipse_domain.domain_hash()
    assert len(h1) == 16


def test_extremal_radii(circle_domain):
    assert circle_domain.r_min == pytest.approx(1.0, abs=1e-6)
    assert circle_domain.r_max == pytest.approx(3.0, abs=1e-6)
    assert circle_domain.max_curvature == pytest.approx(1.0, abs=1e-9)
