"""Solid-torus domains of revolution and their indicator functions.

The boundary is sigma(tau, phi) = (gamma1 cos phi, gamma1 sin phi, gamma2).
The indicator xi of every domain is the signed distance to the generator in
the (rho, z) half-plane: negative inside, zero on the boundary and positive
outside.  Its gradient is the unit outward normal at the nearest boundary
point.  CircleTorusDomain evaluates both in closed form.
"""

from __future__ import annotations

import enum
import hashlib
import math

import numpy as np

from .curves import ProfileCurve, circle_generator, find_markers
from .errors import NumericsError

TWO_PI = 2.0 * np.pi
# ray-march step as a fraction of the smallest curvature radius, so a convex
# cross-section cannot be crossed and re-entered within one step
MARCH_STEP_FRACTION = 0.1
# a near-surface march interval is subdivided into this many parts
BLIP_SUBDIVISIONS = 32
# nearest-point seed table: its size and the stride of its coarse search
SEED_TABLE_SIZE = 2048
SEED_COARSE_STRIDE = 32
# |xi| up to which a point lies on the boundary
BOUNDARY_BAND = 1e-9
# rows of march_xi's certificate product at a time: BLAS splits a taller
# one over threads, which cost process time and gained no wall time
MARCH_SLICE = 256


class PointClass(enum.Enum):
    INSIDE = "inside"
    BOUNDARY = "boundary"
    OUTSIDE = "outside"


def point_class(xi) -> PointClass:
    """Class of a point whose indicator value is xi."""
    v = float(xi)
    if abs(v) <= BOUNDARY_BAND:
        return PointClass.BOUNDARY
    return PointClass.INSIDE if v < 0 else PointClass.OUTSIDE


def bounce_foot(domain, p):
    """(tau, outward normal) of a bounce point p from one foot solve;
    NumericsError unless p lies on the boundary (|sigma(tau, phi) - p| is
    |xi| for the foot point in p's meridian)."""
    xi, tau, n = domain.foot(p)
    if point_class(xi) is not PointClass.BOUNDARY:
        raise NumericsError(f"bounce point off the boundary: xi = "
                            f"{float(xi):.3e} at p = {np.asarray(p).tolist()}")
    return float(tau), n


def _revolve(a, b, phi):
    """The meridian-plane vector (a, b) turned to azimuth phi."""
    phi = np.asarray(phi, dtype=float)
    return np.stack([a * np.cos(phi), a * np.sin(phi),
                     b + np.zeros_like(phi)], axis=-1)


def rotation_z(dphi):
    c, s = np.cos(dphi), np.sin(dphi)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


class ToroidalDomain:
    """Domain obtained by revolving a ProfileCurve about the z-axis."""

    def __init__(self, profile: ProfileCurve):
        self.profile = profile
        self.markers = find_markers(profile)
        a, b = profile.period
        self._seed_tau = np.linspace(a, b, SEED_TABLE_SIZE, endpoint=False)
        pts = profile.eval(self._seed_tau)
        # row c: the samples within one stride of coarse sample c (its middle
        # column), stored whole so that the fine search reads one row a point
        win = (np.arange(0, SEED_TABLE_SIZE, SEED_COARSE_STRIDE)[:, None]
               + np.arange(-SEED_COARSE_STRIDE, SEED_COARSE_STRIDE + 1))
        table = np.vstack([pts.T, self._seed_tau])[:, win % len(pts)]
        self._win_rho, self._win_z, self._win_tau = np.ascontiguousarray(table)
        # march certificates of the coarse samples q_i: rows act on
        # (rho, z, 1) and give (p - q_i).n_i along the outward normal n_i of
        # the tangent line at q_i, then along that of the chord q_i q_{i+1}
        m = SEED_COARSE_STRIDE
        q = np.stack([self._win_rho[:, m], self._win_z[:, m]])
        chord = np.roll(q, -1, axis=1) - q
        tan = np.hstack([profile.deriv1(self._win_tau[:, m]).T,
                         chord / np.hypot(*chord)])
        nrm = np.stack([tan[1], -tan[0]])
        self._cert = np.vstack(
            [nrm, -np.einsum("ij,ij->j", nrm, np.hstack([q, q]))])
        kap = profile.curvature(self._seed_tau)
        self.max_curvature = float(kap.max())
        self.r_min = float(profile.gamma1(self.markers.lambda_star))
        self.r_max = float(profile.gamma1(self._seed_tau).max())
        # the domain lies in the cylinder rho <= r_max over the generator's z
        # range, so no segment inside it is longer than this
        self.diameter = float(np.hypot(2.0 * self.r_max, np.ptp(pts[:, 1])))
        # march rule of both tracers: the step along a unit ray, and the
        # depth (the chord sagitta bound) within which both ends of a step
        # may hide an exterior blip
        self.march_step = MARCH_STEP_FRACTION / self.max_curvature
        self.blip_tol = self.max_curvature * self.march_step ** 2

    # -- geometry ---------------------------------------------------------

    def sigma(self, tau, phi):
        g = self.profile.eval(tau)
        return _revolve(g[..., 0], g[..., 1], phi)

    def outward_normal(self, tau, phi):
        d1 = self.profile.deriv1(tau)
        return _revolve(d1[..., 1], -d1[..., 0], phi)

    def meridian_tangent(self, tau, phi):
        """Unit tangent along increasing tau (sigma_tau direction)."""
        d1 = self.profile.deriv1(tau)
        return _revolve(d1[..., 0], d1[..., 1], phi)

    @staticmethod
    def phi_hat(phi):
        """Unit vector perpendicular to the meridian plane at azimuth phi."""
        phi = np.asarray(phi, dtype=float)
        return np.stack([-np.sin(phi), np.cos(phi), np.zeros_like(phi)], axis=-1)

    # -- indicator --------------------------------------------------------

    def nearest_parameter(self, rho, z):
        """Generator parameter of the nearest curve point to (rho, z)."""
        rho = np.asarray(rho, dtype=float)
        z = np.asarray(z, dtype=float)
        shape = np.broadcast_shapes(rho.shape, z.shape)
        rho_f = np.broadcast_to(rho, shape).reshape(-1)
        z_f = np.broadcast_to(z, shape).reshape(-1)
        m = SEED_COARSE_STRIDE  # the column of each row's coarse sample
        c = np.argmin((rho_f[:, None] - self._win_rho[:, m]) ** 2
                      + (z_f[:, None] - self._win_z[:, m]) ** 2, axis=1)
        d2 = ((rho_f[:, None] - self._win_rho[c]) ** 2
              + (z_f[:, None] - self._win_z[c]) ** 2)
        tau = self._win_tau[c, np.argmin(d2, axis=1)]
        # a point leaves once its iterate is a fixed point of its own Newton
        # map, so the result equals that of 8 steps for every point
        act = np.arange(tau.size)
        for _ in range(8):
            t = tau[act]
            g = self.profile.eval(t)
            d1 = self.profile.deriv1(t)
            dd = self.profile.deriv2(t)
            ex = rho_f[act] - g[..., 0]
            ez = z_f[act] - g[..., 1]
            f = ex * d1[..., 0] + ez * d1[..., 1]
            fp = -1.0 + ex * dd[..., 0] + ez * dd[..., 1]
            fp = np.where(np.abs(fp) < 1e-12, -1.0, fp)
            tau[act] = t_new = t - f / fp
            act = act[t_new != t]
            if not act.size:
                break
        return self.profile.wrap(tau).reshape(shape)

    def _foot(self, rho, z):
        """(xi, tau, d1) of (rho, z): its signed distance to the generator,
        and the parameter of and unit tangent at its nearest point on it."""
        tau = self.nearest_parameter(rho, z)
        g = self.profile.eval(tau)
        d1 = self.profile.deriv1(tau)
        ex = rho - g[..., 0]
        ez = z - g[..., 1]
        # outward normal of the generator is (gamma2', -gamma1')
        dist = np.hypot(ex, ez)
        return np.where(ex * d1[..., 1] - ez * d1[..., 0] >= 0.0, dist,
                        -dist), tau, d1

    def xi(self, p):
        """Signed distance to the generator in the (rho, z) half-plane."""
        p = np.asarray(p, dtype=float)
        return self._foot(np.hypot(p[..., 0], p[..., 1]), p[..., 2])[0]

    def march_xi(self, p):
        """xi as a ray march reads it, on an (..., 3) array of points.

        The value has the sign of xi, lies on the same side of -blip_tol
        and equals xi wherever it is in (-blip_tol, 0].  A convex region
        lies within every tangent line and holds the polygon of its coarse
        samples, so a point beyond a tangent line is outside (the value is
        its distance to that line) and a point deeper than blip_tol inside
        every chord is inside (minus its distance to the nearest chord);
        both tests keep a margin of BOUNDARY_BAND for rounding.  Only the
        other points pay the nearest-point solve of xi.
        """
        p = np.asarray(p, dtype=float)
        q = np.stack([np.hypot(p[..., 0], p[..., 1]), p[..., 2],
                      np.ones(p.shape[:-1])], axis=-1)
        k = self._cert.shape[1] // 2
        # largest offsets beyond a tangent line (out) and inside a chord (deep)
        out, deep = np.concatenate([
            (q[i:i + MARCH_SLICE] @ self._cert).reshape(-1, 2, k).max(axis=2)
            for i in range(0, max(len(q), 1), MARCH_SLICE)]).T.reshape(
                (2,) + p.shape[:-1])
        val = np.where(out > BOUNDARY_BAND, out, deep)
        exact = ((out <= BOUNDARY_BAND)
                 & (val >= -self.blip_tol - BOUNDARY_BAND))
        if exact.any():
            val[exact] = self.xi(p[exact])
        return val

    def blip_brackets(self, base, w, lo, hi):
        """Exits hidden inside near march intervals [lo, hi] of the rays
        base + s w; base and w are (k, 3) arrays or one 3-vector each.

        march_xi is read at the BLIP_SUBDIVISIONS - 1 evenly spaced inner
        points of each interval.  Returns (has, lo, hi): whether a ray has
        an outside inner point and, for the rays that have one, the bracket
        of the first.
        """
        fine = lo[:, None] + np.arange(1, BLIP_SUBDIVISIONS) * (
            (hi - lo) / BLIP_SUBDIVISIONS)[:, None]
        sub = base[..., None, :] + fine[..., None] * w[..., None, :]
        hit = self.march_xi(sub.reshape(-1, 3)).reshape(fine.shape) > 0.0
        has = hit.any(axis=1)
        q = np.argmax(hit, axis=1)[has]
        return (has, np.where(q > 0, fine[has, q - 1], lo[has]),
                fine[has, q])

    def foot(self, p):
        """(xi, tau, grad_xi) of p from one nearest-point solve: tau is the
        generator parameter of the nearest boundary point, and the gradient
        is the outward normal there, turned to the azimuth of p."""
        p = np.asarray(p, dtype=float)
        rho = np.hypot(p[..., 0], p[..., 1])
        xi, tau, d1 = self._foot(rho, p[..., 2])
        rho_safe = np.where(rho == 0, 1.0, rho)
        return xi, tau, np.stack([d1[..., 1] * p[..., 0] / rho_safe,
                                  d1[..., 1] * p[..., 1] / rho_safe,
                                  -d1[..., 0] + np.zeros_like(rho)], axis=-1)

    def xi_grad(self, p):
        """(xi, grad_xi) of p: foot without tau."""
        xi, _, g = self.foot(p)
        return xi, g

    def grad_xi(self, p):
        return self.xi_grad(p)[1]

    # -- queries ----------------------------------------------------------

    def classify_point(self, p) -> PointClass:
        return point_class(self.xi(p))

    # -- metadata ---------------------------------------------------------

    def domain_hash(self):
        sample = self.profile.eval(np.linspace(*self.profile.period, 64,
                                               endpoint=False))
        return hashlib.sha256(np.ascontiguousarray(sample).tobytes()).hexdigest()[:16]


class CircleTorusDomain(ToroidalDomain):
    """Standard solid torus: ToroidalDomain(circle_generator(R, r)) with
    closed-form fast paths.  xi is the signed distance hypot(rho - R, z) - r
    and grad_xi its unit gradient."""

    def __init__(self, R=2.0, r=1.0):
        self.R = float(R)
        self.r = float(r)
        super().__init__(circle_generator(R, r))

    def outward_normal(self, tau, phi):
        if np.isscalar(tau) and np.isscalar(phi):
            ang = tau / self.r
            c = math.cos(ang)
            return np.array([c * math.cos(phi), c * math.sin(phi),
                             math.sin(ang)])
        return super().outward_normal(tau, phi)

    def nearest_parameter(self, rho, z):
        if np.ndim(rho) == 0 and np.ndim(z) == 0:
            return (self.r * math.atan2(z, rho - self.R)) % (TWO_PI * self.r)
        ang = np.arctan2(np.asarray(z, dtype=float),
                         np.asarray(rho, dtype=float) - self.R)
        return (self.r * ang) % (TWO_PI * self.r)

    def xi(self, p):
        p = np.asarray(p, dtype=float)
        if p.ndim == 1:
            return math.hypot(math.hypot(p[0], p[1]) - self.R, p[2]) - self.r
        return np.hypot(np.hypot(p[..., 0], p[..., 1]) - self.R,
                        p[..., 2]) - self.r

    march_xi = xi

    def xi_grad(self, p):
        """(xi, grad_xi) from one hypot.  On the tube's centre circle the
        gradient is the normal at tau = 0, as nearest_parameter reads it."""
        p = np.asarray(p, dtype=float)
        if p.ndim == 1:
            rho = math.hypot(p[0], p[1])
            ex = rho - self.R
            d = math.hypot(ex, p[2])
            cx, cz = (ex / d, p[2] / d) if d != 0.0 else (1.0, 0.0)
            c = cx / rho if rho != 0.0 else 0.0
            return d - self.r, np.array([c * p[0], c * p[1], cz])
        rho = np.hypot(p[..., 0], p[..., 1])
        ex = rho - self.R
        d = np.hypot(ex, p[..., 2])
        d_safe = np.where(d == 0, 1.0, d)
        c = np.where(d == 0, 1.0, ex / d_safe) / np.where(rho == 0, 1.0, rho)
        return d - self.r, np.stack([c * p[..., 0], c * p[..., 1],
                                     p[..., 2] / d_safe], axis=-1)

    def foot(self, p):
        """(xi, tau, grad_xi) in closed form."""
        xi, g = self.xi_grad(p)
        p = np.asarray(p, dtype=float)
        return xi, self.nearest_parameter(np.hypot(p[..., 0], p[..., 1]),
                                          p[..., 2]), g
