"""Orthogonal curvilinear chart for the periodic annular cylinder.

Chart coordinates x = (theta, z, r) map to eta(x) = (r cos theta, r sin theta, z)
with diagonal metric (r^2, 1, 1).  The normalized frame operators are
D_i = (1/sqrt(g_ii)) d_i; their connection coefficients Gamma_{D,ij}^k are
not symmetric in (i, j) because D_ij = D_i D_j is an ordered composition.
For the annulus the only nonzero entries are Gamma_{D,11}^3 = -1/r and its
antisymmetric partner Gamma_{D,13}^1 = +1/r.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi
# finite-difference steps of the chart operators and of the frame-derivative
# cross-check of the Christoffel table; sample points of the identity suite
FD_STEP = 1e-3
FRAME_FD_STEP = 1e-4
SUITE_POINTS = 20

# 4th-order central first-derivative stencil
_C4_OFFSETS = np.array([-2, -1, 1, 2], dtype=float)
_C4_WEIGHTS = np.array([1.0, -8.0, 8.0, -1.0]) / 12.0
# 4th-order one-sided (forward) stencil
_F4_OFFSETS = np.array([0, 1, 2, 3, 4], dtype=float)
_F4_WEIGHTS = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0


@dataclass
class OrthoChart:
    """Annular cylinder chart, periodic in theta and z."""

    H: float = TWO_PI
    R1: float = 1.0
    R2: float = 3.0

    def __post_init__(self):
        if not (np.isfinite(self.H) and self.H > 0.0):
            raise ValueError(
                f"period H must be finite and positive, got {self.H}")
        if not (np.isfinite(self.R2) and 0.0 < self.R1 < self.R2):
            raise ValueError("radii must satisfy finite 0 < R1 < R2, "
                             f"got {self.R1}, {self.R2}")

    # -- frame ------------------------------------------------------------

    def eta(self, x):
        th, z, r = x
        return np.array([r * np.cos(th), r * np.sin(th), z])

    def check_r(self, r):
        if not self.R1 < r < self.R2:
            raise ValueError(f"r = {r} outside the annulus ({self.R1}, {self.R2})")

    def metric_diag(self, x):
        return np.array([x[2] ** 2, 1.0, 1.0])

    def frame(self, x):
        """Orthonormal matrix Q with columns D_1 eta, D_2 eta, D_3 eta."""
        th = x[0]
        return np.array([[-np.sin(th), 0.0, np.cos(th)],
                         [np.cos(th), 0.0, np.sin(th)],
                         [0.0, 1.0, 0.0]])

    def wrap(self, x):
        """Wrap the periodic coordinates theta and z into their ranges."""
        return np.array([x[0] % TWO_PI, x[1] % self.H, x[2]])

    # -- Christoffel symbols ----------------------------------------------

    def christoffel(self, i, j, k, x):
        """Gamma_{D,ij}^k = <D_i D_j eta, D_k eta> (analytic table).

        Indices are 1-based; the table is not symmetric in (i, j).
        """
        for idx in (i, j, k):
            if idx not in (1, 2, 3):
                raise ValueError(f"index {idx} out of range")
        r = x[2]
        self.check_r(r)
        if (i, j, k) == (1, 1, 3):
            return -1.0 / r
        if (i, j, k) == (1, 3, 1):
            return 1.0 / r
        return 0.0

    def christoffel_generic(self, i, j, k, x):
        """<D_i(D_j eta), D_k eta> by finite differences; cross-check."""
        comp = lambda p: self.frame(p)[:, j - 1]
        dij = np.array([self.d_operator(i, lambda p, c=c: comp(p)[c], x,
                                        FRAME_FD_STEP) for c in range(3)])
        return float(dij @ self.frame(x)[:, k - 1])

    # -- velocity transform -----------------------------------------------

    def transform_velocity(self, v, x):
        """Chart components of a Cartesian vector: Q^T v."""
        return self.frame(x).T @ np.asarray(v, dtype=float)

    def inverse_transform(self, vv, x):
        return self.frame(x) @ np.asarray(vv, dtype=float)

    # -- differential operators -------------------------------------------

    def d_operator(self, i, u, x, step=FD_STEP):
        """D_i u = (1/sqrt(g_ii)) d_i u by a 4th-order stencil.

        theta and z wrap periodically; an r-stencil that would leave the
        annulus falls back to a one-sided stencil (with a warning).
        """
        x = np.asarray(x, dtype=float)
        axis = i - 1
        scale = 1.0 / np.sqrt(self.metric_diag(x)[axis])
        if axis == 2 and not (self.R1 < x[2] - 2 * step
                              and x[2] + 2 * step < self.R2):
            warnings.warn("one-sided r-stencil near the annulus boundary",
                          RuntimeWarning, stacklevel=2)
            sgn = 1.0 if x[2] - self.R1 < self.R2 - x[2] else -1.0
            acc = 0.0
            for off, wgt in zip(_F4_OFFSETS, _F4_WEIGHTS):
                p = x.copy()
                p[axis] += sgn * off * step
                acc += wgt * u(self.wrap(p))
            return scale * sgn * acc / step
        acc = 0.0
        for off, wgt in zip(_C4_OFFSETS, _C4_WEIGHTS):
            p = x.copy()
            p[axis] += off * step
            acc += wgt * u(self.wrap(p))
        return scale * acc / step

    def d2_operator(self, i, j, u, x):
        """Ordered composition D_i D_j u."""
        return self.d_operator(i, lambda p: self.d_operator(j, u, p), x)

    # -- identity residuals -----------------------------------------------

    def commutator_residual(self, i, j, u, x):
        """| (D_i D_j - D_j D_i) u - (Gamma_{D,jj}^i D_j u - Gamma_{D,ii}^j D_i u) |."""
        if i == j:
            raise ValueError("commutator needs distinct indices")
        lhs = self.d2_operator(i, j, u, x) - self.d2_operator(j, i, u, x)
        rhs = (self.christoffel(j, j, i, x) * self.d_operator(j, u, x)
               - self.christoffel(i, i, j, x) * self.d_operator(i, u, x))
        return abs(lhs - rhs)

    def laplace_beltrami(self, u, x):
        """Delta_bel u = Delta_D u - sum_i sum_{k != i} Gamma_{D,kk}^i D_i u."""
        lap_d = sum(self.d2_operator(i, i, u, x) for i in (1, 2, 3))
        corr = sum(self.christoffel(k, k, i, x) * self.d_operator(i, u, x)
                   for i in (1, 2, 3) for k in (1, 2, 3) if k != i)
        return lap_d - corr

    def cylindrical_laplacian(self, u, x):
        """Analytic-form Laplacian u_rr + u_r/r + u_thth/r^2 + u_zz by FD."""
        def second(axis):
            acc = -2.5 * u(self.wrap(x))
            for off, wgt in ((1, 4.0 / 3.0), (2, -1.0 / 12.0)):
                for sgn in (1.0, -1.0):
                    p = np.array(x, dtype=float)
                    p[axis] += sgn * off * FD_STEP
                    acc += wgt * u(self.wrap(p))
            return acc / FD_STEP ** 2

        r = x[2]
        return (second(2) + self.d_operator(3, u, x) / r + second(0) / r ** 2
                + second(1))

    def laplace_beltrami_residual(self, u, x):
        """|Delta_bel u - Delta_cyl u|."""
        return abs(self.laplace_beltrami(u, x)
                   - self.cylindrical_laplacian(u, x))

    def zeta_residuals(self, x):
        """Residuals of the three first-order correction systems.

        zeta_r = zeta_theta = 1/r and zeta_z = 1 solve (with analytic
        derivatives: D_3 (1/r) = -1/r^2, flat directions zero):
          zeta_r:     D1 z = G_33^1 z,  D2 z = G_33^2 z,  D3 z = (G_11^3+G_22^3) z
          zeta_theta: D1 z = (G_22^1+G_33^1) z, D2 z = G_11^2 z, D3 z = G_11^3 z
          zeta_z:     D1 z = G_22^1 z,  D2 z = (G_11^2+G_33^2) z, D3 z = G_22^3 z
        """
        r = x[2]
        self.check_r(r)
        G = lambda i, j, k: self.christoffel(i, j, k, x)
        inv_r = 1.0 / r
        d_inv_r = (0.0, 0.0, -1.0 / r ** 2)   # (D1, D2, D3) of 1/r
        d_one = (0.0, 0.0, 0.0)
        res = {}
        res["zeta_r"] = (
            abs(d_inv_r[0] - G(3, 3, 1) * inv_r),
            abs(d_inv_r[1] - G(3, 3, 2) * inv_r),
            abs(d_inv_r[2] - (G(1, 1, 3) + G(2, 2, 3)) * inv_r),
        )
        res["zeta_theta"] = (
            abs(d_inv_r[0] - (G(2, 2, 1) + G(3, 3, 1)) * inv_r),
            abs(d_inv_r[1] - G(1, 1, 2) * inv_r),
            abs(d_inv_r[2] - G(1, 1, 3) * inv_r),
        )
        res["zeta_z"] = (
            abs(d_one[0] - G(2, 2, 1)),
            abs(d_one[1] - (G(1, 1, 2) + G(3, 3, 2))),
            abs(d_one[2] - G(2, 2, 3)),
        )
        return res

    def dv_identity_residual(self, i, j, x, v):
        """|D_i v_j - sum_k Gamma_{D,ij}^k v_k| for a fixed Cartesian v."""
        v = np.asarray(v, dtype=float)
        comp = lambda p: float(self.transform_velocity(v, p)[j - 1])
        lhs = self.d_operator(i, comp, x)
        vv = self.transform_velocity(v, x)
        rhs = sum(self.christoffel(i, j, k, x) * vv[k - 1] for k in (1, 2, 3))
        return abs(lhs - rhs)


def _max(vals):
    """Largest of vals, NaN if any is NaN (Python max drops a NaN unless it
    comes first)."""
    return float(np.max(np.fromiter(vals, dtype=float)))


def identity_suite(chart: OrthoChart, seed=7):
    """Run the full appendix identity suite; returns {name: max residual},
    NaN where any residual is NaN."""
    rng = np.random.default_rng(seed)
    n = SUITE_POINTS
    pts = np.stack([rng.uniform(0, TWO_PI, n), rng.uniform(0, chart.H, n),
                    rng.uniform(chart.R1 + 0.3, chart.R2 - 0.3, n)], axis=1)
    fields = [
        lambda p: p[2] * np.cos(p[0]),                       # harmonic
        lambda p: p[2] ** 2,
        lambda p: np.cos(TWO_PI * p[1] / chart.H),
        lambda p: p[2] * np.sin(p[0]) + np.sin(TWO_PI * p[1] / chart.H),
    ]
    out = {}
    anti = []
    for x in pts:
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                for k in (1, 2, 3):
                    anti.append(abs(chart.christoffel(i, j, k, x)
                                    + chart.christoffel(i, k, j, x))
                                if j != k else
                                abs(chart.christoffel(i, j, j, x)))
                    if len({i, j, k}) == 3:
                        anti.append(abs(chart.christoffel(i, j, k, x)))
    out["christoffel_antisymmetry"] = _max(anti)
    out["frame_orthonormality"] = _max(
        float(np.abs(chart.frame(x).T @ chart.frame(x) - np.eye(3)).max())
        for x in pts)
    out["commutator"] = _max(
        chart.commutator_residual(i, j, u, x)
        for x in pts[:6] for u in fields for (i, j) in ((1, 3), (2, 3), (1, 2)))
    out["laplace_beltrami"] = _max(
        chart.laplace_beltrami_residual(u, x)
        for x in pts[:6] for u in fields)
    out["zeta"] = _max(r for x in pts
                       for grp in chart.zeta_residuals(x).values() for r in grp)
    rng2 = np.random.default_rng(seed + 1)
    vs = rng2.standard_normal((4, 3))
    out["dv_identity"] = _max(
        chart.dv_identity_residual(i, j, x, v)
        for x in pts[:4] for v in vs for i in (1, 2, 3) for j in (1, 2, 3))
    out["christoffel_generic_match"] = _max(
        abs(chart.christoffel_generic(i, j, k, x)
            - chart.christoffel(i, j, k, x))
        for x in pts[:4] for i in (1, 2, 3) for j in (1, 2, 3)
        for k in (1, 2, 3))
    return out
