"""Reference implementations kept for the tests to compare against.

Each is the plain form that faster production code replaced and takes the
same arguments as the function it stands in for, so a test can swap it in
with ``monkeypatch.setattr``.
"""

import mpmath
import numpy as np
from scipy.optimize import brentq

from torus_billiards.domain import bounce_foot
from torus_billiards.errors import GrazingAmbiguousError
from torus_billiards.grazing import (DEFAULT_GRAZE_THRESHOLD,
                                     LADDER_BASE_FRACTION, GrazingClass,
                                     principal_curvatures)


def bisect_exits(domain, base, w, lo, hi, n_bisect=60):
    """Exit roots along the rays base + s w by a fixed-count bisection of
    the brackets [lo, hi] (stands in for ``analysis._polish_exits``)."""
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    for _ in range(n_bisect):
        mid = 0.5 * (lo + hi)
        inside = domain.xi(base + mid[:, None] * w) <= 0.0
        lo = np.where(inside, mid, lo)
        hi = np.where(inside, hi, mid)
    return 0.5 * (lo + hi)


def scan_zeros_scalar(fn, lo, hi, n):
    """All simple zeros of fn on [lo, hi), one scalar call per grid point
    (stands in for ``curves._scan_zeros``)."""
    ts = np.linspace(lo, hi, n + 1)
    vals = np.array([float(fn(t)) for t in ts])
    zeros = []
    for i in range(n):
        v0, v1 = vals[i], vals[i + 1]
        if v0 == 0.0:
            zeros.append(ts[i])
        elif v0 * v1 < 0.0:
            zeros.append(brentq(fn, ts[i], ts[i + 1], xtol=1e-14, rtol=1e-15))
    return zeros


def nearest_parameter_full_table(domain, rho, z, n_newton=8):
    """Generator parameter of the nearest curve point to (rho, z), seeded by
    the argmin over every sample of the domain's seed table, then the same
    fixed Newton iterations (stands in for
    ``ToroidalDomain.nearest_parameter``)."""
    rho = np.asarray(rho, dtype=float)
    z = np.asarray(z, dtype=float)
    shape = np.broadcast_shapes(rho.shape, z.shape)
    rho_f = np.broadcast_to(rho, shape).reshape(-1)
    z_f = np.broadcast_to(z, shape).reshape(-1)
    pts = domain.profile.eval(domain._seed_tau)
    idx = np.empty(rho_f.size, dtype=int)
    chunk = 256  # rows of the distance matrix held at once
    for i in range(0, rho_f.size, chunk):
        d2 = ((rho_f[i:i + chunk, None] - pts[None, :, 0]) ** 2
              + (z_f[i:i + chunk, None] - pts[None, :, 1]) ** 2)
        idx[i:i + chunk] = np.argmin(d2, axis=1)
    tau = domain._seed_tau[idx]
    for _ in range(n_newton):
        g = domain.profile.eval(tau)
        d1 = domain.profile.deriv1(tau)
        dd = domain.profile.deriv2(tau)
        ex = rho_f - g[..., 0]
        ez = z_f - g[..., 1]
        f = ex * d1[..., 0] + ez * d1[..., 1]
        fp = -1.0 + ex * dd[..., 0] + ez * dd[..., 1]
        fp = np.where(np.abs(fp) < 1e-12, -1.0, fp)
        tau = tau - f / fp
    return domain.profile.wrap(tau).reshape(shape)


# central-difference step of hessian_xi
HESSIAN_STEP = 1e-5


def hessian_xi(domain, p):
    """Hessian of xi at p by central differences of grad_xi, symmetrized."""
    p = np.asarray(p, dtype=float)
    H = np.empty(p.shape[:-1] + (3, 3))
    for i in range(3):
        dp = np.zeros(3)
        dp[i] = HESSIAN_STEP
        H[..., i, :] = ((domain.grad_xi(p + dp) - domain.grad_xi(p - dp))
                        / (2 * HESSIAN_STEP))
    return 0.5 * (H + np.swapaxes(H, -1, -2))


def tube_hessian(domain, p):
    """Closed-form Hessian of the circle torus's xi = hypot(rho - R, z) - r:
    (1/d) e_m e_m^T + ((rho - R)/(d rho)) e_phi e_phi^T, with d the
    distance to the tube's centre circle, e_m the meridian direction
    normal to the gradient and e_phi the azimuthal one."""
    x, y, z = np.asarray(p, dtype=float)
    rho = np.hypot(x, y)
    d = np.hypot(rho - domain.R, z)
    e_rho = np.array([x / rho, y / rho, 0.0])
    e_m = (-z * e_rho + (rho - domain.R) * np.array([0.0, 0.0, 1.0])) / d
    e_phi = np.array([-y / rho, x / rho, 0.0])
    return (np.outer(e_m, e_m) / d
            + (rho - domain.R) / (d * rho) * np.outer(e_phi, e_phi))


def normal_curvature_from_indicator(domain, tau, phi, w, hessian=hessian_xi):
    """kappa_n = (w^T Hess(xi) w) / |grad xi| at sigma(tau, phi), with the
    Hessian from ``hessian(domain, p)`` (stands in for
    ``grazing.normal_curvature``)."""
    w = np.asarray(w, dtype=float)
    w = w / np.linalg.norm(w)
    p = domain.sigma(tau, phi)
    return (float(w @ hessian(domain, p) @ w)
            / float(np.linalg.norm(domain.grad_xi(p))))


def local_curvature_radius(domain, tau):
    """1 / the larger principal curvature magnitude at tau."""
    k1, k2 = principal_curvatures(domain, tau)
    return 1.0 / max(abs(float(k1)), abs(float(k2)), 1e-12)


def _sign_ladder(domain, x, u, tau):
    """Stable signs of xi(x + s u) and xi(x - s u) over a geometric ladder
    s = s0, s0/2, s0/4 with s0 = LADDER_BASE_FRACTION times the local
    curvature radius; GrazingAmbiguousError where they change."""
    s0 = LADDER_BASE_FRACTION * local_curvature_radius(domain, tau)
    rungs = s0 / np.array([1.0, 2.0, 4.0])
    vals = domain.xi(x + np.concatenate([rungs, -rungs])[:, None] * u)
    pattern = None
    for s, f, b in zip(rungs, vals[:3], vals[3:]):
        if f == 0.0 or b == 0.0:
            raise GrazingAmbiguousError(
                f"indicator vanished exactly on the ladder at s = {s:.3e}")
        cur = (bool(f > 0.0), bool(b > 0.0))
        if pattern is None:
            pattern = cur
        elif cur != pattern:
            raise GrazingAmbiguousError(
                f"sign pattern unstable across ladder rungs near s = {s:.3e}")
    return pattern


def classify_by_ladder(domain, x, v, graze_threshold=DEFAULT_GRAZE_THRESHOLD):
    """Grazing class from the signs of xi on the sign ladder along the
    tangential part u of v (stands in for ``grazing.classify``)."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    tau, n = bounce_foot(domain, x)
    vhat = v / np.linalg.norm(v)
    nd = float(np.dot(n, vhat))
    if abs(nd) >= graze_threshold:
        return GrazingClass.NON_GRAZING
    u = vhat - nd * n
    fwd_out, bwd_out = _sign_ladder(domain, x, u / np.linalg.norm(u), tau)
    return {(True, True): GrazingClass.CONVEX,
            (False, False): GrazingClass.CONCAVE,
            (True, False): GrazingClass.INFLECTION_PLUS,
            (False, True): GrazingClass.INFLECTION_MINUS}[fwd_out, bwd_out]


def clamped_march_xi(domain, p):
    """The domain's march_xi raised to at least -blip_tol - 1.5 march_step.

    It keeps the march_xi contract, and a tracer reading it certifies no
    march point as deep enough to jump over, so it reads every one (set it
    on a domain instance with ``functools.partial(clamped_march_xi, d)``).
    """
    return np.maximum(type(domain).march_xi(domain, p),
                      -domain.blip_tol - 1.5 * domain.march_step)


def ray_torus_roots(R, r, x, w, dps=50):
    """Real roots s, ascending, of the ray-torus quartic
    (|p|^2 + R^2 - r^2)^2 = 4 R^2 (p_x^2 + p_y^2) on the ray p = x + s w:
    mpmath's polyroots at dps digits from the exact values of the double
    inputs (the reference exits of the circle torus of radii R > r)."""
    with mpmath.workdps(dps):
        x = [mpmath.mpf(float(c)) for c in x]
        w = [mpmath.mpf(float(c)) for c in w]
        k = 4 * mpmath.mpf(R) ** 2
        a = w[0] ** 2 + w[1] ** 2
        b = 2 * (x[0] * w[0] + x[1] * w[1])
        c = x[0] ** 2 + x[1] ** 2
        # |p|^2 + R^2 - r^2 = a2 s^2 + b2 s + c2
        a2, b2 = a + w[2] ** 2, b + 2 * x[2] * w[2]
        c2 = c + x[2] ** 2 + mpmath.mpf(R) ** 2 - mpmath.mpf(r) ** 2
        roots = mpmath.polyroots(
            [a2 * a2, 2 * a2 * b2, b2 * b2 + 2 * a2 * c2 - k * a,
             2 * b2 * c2 - k * b, c2 * c2 - k * c], maxsteps=200,
            extraprec=2 * dps)
        tiny = mpmath.mpf(10) ** (10 - dps)
        return sorted(mpmath.re(s) for s in roots if abs(mpmath.im(s)) <= tiny)
