"""Classification of tangential boundary phases.

A grazing phase (x, v) has n(x).v = 0.  The Taylor model of the boundary's
normal section along v says whether the ray exits on both sides (convex
grazing), stays inside on both sides (concave grazing), or crosses the
surface (inflection grazing, split by orientation).  The inflection
directions at an inner-region point make an angle theta with the azimuthal
tangent where tan(theta) = sqrt(|gamma2'| / (kappa * gamma1)).
"""

from __future__ import annotations

import enum
import functools
import math
import struct
from dataclasses import dataclass

import numpy as np

from .curves import h_value
from .domain import ToroidalDomain, bounce_foot
from .errors import GrazingAmbiguousError, UndefinedInflectionError


class GrazingClass(enum.Enum):
    CONVEX = "convex"                    # ray exits both ways
    CONCAVE = "concave"                  # ray stays inside both ways
    INFLECTION_PLUS = "inflection+"      # exits forward, inside backward
    INFLECTION_MINUS = "inflection-"     # inside forward, exits backward
    NON_GRAZING = "non-grazing"


DEFAULT_GRAZE_THRESHOLD = 1e-7
DEFAULT_ZH_BAND = 1e-3
LADDER_BASE_FRACTION = 1e-2
# largest |n.w| of a direction w taken as tangent
TANGENT_TOL = 1e-10


def principal_curvatures(domain: ToroidalDomain, tau):
    """(kappa1, kappa2): azimuthal and meridian principal curvatures.

    Signs follow the inward-normal convention: positive where the surface
    bends away from the inward normal (locally convex).
    """
    prof = domain.profile
    d1 = prof.deriv1(tau)
    return d1[..., 1] / prof.gamma1(tau), prof.curvature(tau)


def _euler_taylor(k1, k2, cos2, sin_t, dk1, dk2):
    """(kappa_n, c3) of the normal section xi(x + s u) = kappa_n s^2/2
    + c3 s^3/6 + O(s^4), u at angle theta from the azimuthal tangent toward
    the meridian one (cos2 = cos^2 theta, sin_t = sin theta), from Euler's
    formula and the tau-derivatives dk1, dk2 of the principal curvatures."""
    return (k1 * cos2 + k2 * (1.0 - cos2),
            sin_t * (3.0 * cos2 * dk1 + sin_t * sin_t * dk2))


@functools.lru_cache(maxsize=1)
def _section_geometry(domain, key):
    """(outward normal, kappa1, kappa2, azimuthal unit tangent) at
    sigma(tau, phi), (tau, phi) packed in key bit for bit: the part of
    normal_curvature that is shared by every direction of a fan."""
    tau, phi = struct.unpack("dd", key)
    k1, k2 = principal_curvatures(domain, tau)
    return (domain.outward_normal(tau, phi), float(k1), float(k2),
            domain.phi_hat(phi))


def normal_curvature(domain: ToroidalDomain, tau, phi, w):
    """Euler's formula in the tangent direction w at sigma(tau, phi)."""
    tau, phi = float(tau), float(phi)
    if not (math.isfinite(tau) and math.isfinite(phi)):
        raise ValueError(f"tau and phi must be finite, got {tau!r}, {phi!r}")
    w = np.asarray(w, dtype=float)
    norm = np.linalg.norm(w)
    if not 0.0 < norm < math.inf:
        raise ValueError(f"direction must be finite and nonzero, got {w.tolist()!r}")
    w = w / norm
    n, k1, k2, e_az = _section_geometry(domain, struct.pack("dd", tau, phi))
    if abs(float(np.dot(n, w))) > TANGENT_TOL:
        raise ValueError(f"direction is not tangent: n.w = {float(np.dot(n, w)):.3e}")
    cos_t = float(np.dot(w, e_az))
    return _euler_taylor(k1, k2, min(cos_t * cos_t, 1.0), 0.0, 0.0, 0.0)[0]


@dataclass
class InflectionDirections:
    """The two zero-normal-curvature tangent directions at an inner point.

    Both have positive angular momentum; I1 crosses outward going forward
    (trajectory cannot continue), I2 is the time reverse.
    """

    tau: float
    phi: float
    theta: float
    I1: np.ndarray
    I2: np.ndarray


def inflection_angle(domain: ToroidalDomain, tau):
    """theta with tan(theta) = sqrt(|gamma2'| / (kappa * gamma1))."""
    prof = domain.profile
    d1 = prof.deriv1(tau)
    return np.arctan(np.sqrt(np.abs(d1[..., 1])
                             / (prof.curvature(tau) * prof.gamma1(tau))))


def _formal_pair(domain: ToroidalDomain, tau, phi, positive_momentum=True):
    """Tangent directions at angles theta and -theta from the azimuthal tangent."""
    theta = float(inflection_angle(domain, tau))
    e_az = domain.phi_hat(phi)
    if not positive_momentum:
        e_az = -e_az
    e_m = domain.meridian_tangent(tau, phi)
    c_plus = np.cos(theta) * e_az + np.sin(theta) * e_m
    c_minus = np.cos(theta) * e_az - np.sin(theta) * e_m
    return theta, c_plus, c_minus


@functools.lru_cache(maxsize=1)
def _point_geometry(domain, key):
    """The part of classify that is shared by every direction at a boundary
    point, x's float64 bytes in key: its outward normal, cos and sin of its
    azimuth, the profile's unit tangent (t1, t2) at the foot, the principal
    curvatures k1, k2 and their tau-derivatives, and the Taylor step s0."""
    x = np.frombuffer(key)
    tau, n = bounce_foot(domain, x)
    prof = domain.profile
    t1, t2 = prof.deriv1(tau).tolist()
    a1, a2 = prof.deriv2(tau).tolist()
    g1 = float(prof.gamma1(tau))
    phi = math.atan2(x[1], x[0])
    k1, k2 = t2 / g1, math.hypot(a1, a2)
    return (n, math.cos(phi), math.sin(phi), t1, t2, k1, k2,
            (a2 - k1 * t1) / g1, float(prof.curvature_prime(tau)),
            LADDER_BASE_FRACTION / max(abs(k1), k2))


def classify(domain: ToroidalDomain, x, v,
             graze_threshold=DEFAULT_GRAZE_THRESHOLD) -> GrazingClass:
    """Classify a tangential boundary phase by the signs of the normal
    section's Taylor model at +-s0, s0 = LADDER_BASE_FRACTION / kappa_max,
    or, on a flat phase where both model terms at s0 lie below the quartic
    scale kappa_max^3 s0^4 = LADDER_BASE_FRACTION^3 s0, of xi at x +- s0 u."""
    x = np.asarray(x, dtype=float)
    if x.shape != (3,):
        raise ValueError(f"point must be a 3-vector, got shape {x.shape}")
    vx, vy, vz = np.asarray(v, dtype=float).tolist()
    speed = math.sqrt(vx * vx + vy * vy + vz * vz)
    if not 0.0 < speed < math.inf:
        raise ValueError(f"velocity must be finite and nonzero, got {v!r}")
    n, c, s, t1, t2, k1, k2, dk1, dk2, s0 = _point_geometry(domain,
                                                           x.tobytes())
    vr = c * vx + s * vy
    nd = float(np.dot(n, (vx, vy, vz))) / speed
    if abs(nd) >= graze_threshold:
        return GrazingClass.NON_GRAZING
    # v's components along the azimuthal and the meridian unit tangents
    va, vm = c * vy - s * vx, t1 * vr + t2 * vz
    cos_t, sin_t = va / math.hypot(va, vm), vm / math.hypot(va, vm)
    kn, c3 = _euler_taylor(k1, k2, cos_t * cos_t, sin_t, dk1, dk2)
    fwd, bwd = kn * s0 * s0 / 2.0, c3 * s0 ** 3 / 6.0
    if max(abs(fwd), abs(bwd)) >= LADDER_BASE_FRACTION ** 3 * s0:
        fwd, bwd = fwd + bwd, fwd - bwd
    else:
        u = np.array([sin_t * t1 * c - cos_t * s, sin_t * t1 * s + cos_t * c,
                      sin_t * t2])
        fwd, bwd = domain.xi(x + np.array([[s0], [-s0]]) * u).tolist()
        if fwd == 0.0 or bwd == 0.0:
            raise GrazingAmbiguousError(
                f"xi vanished exactly at s = +-{s0:.3e} on a flat phase")
    if fwd > 0.0:
        return GrazingClass.CONVEX if bwd > 0.0 else GrazingClass.INFLECTION_PLUS
    return GrazingClass.INFLECTION_MINUS if bwd > 0.0 else GrazingClass.CONCAVE


def inflection_directions(domain: ToroidalDomain, tau, phi,
                          positive_momentum=True) -> InflectionDirections:
    """Inflection directions I1 (forward-blocked) and I2 at sigma(tau, phi).

    Undefined on the outer region and within DEFAULT_ZH_BAND of the zero set
    of h, where the tangent-plane section degenerates.  The sign of the
    paper's h orders the formal pair: I1 turns toward increasing tau
    exactly when h > 0.
    """
    markers = domain.markers
    prof = domain.profile
    tau = float(prof.wrap(tau))
    if not bool(markers.in_inner(prof, tau)):
        raise UndefinedInflectionError(
            f"tau = {tau:.6g} is not in the inner region "
            f"({markers.tau1_star:.6g}, span {markers.inner_span:.6g})")
    if markers.dist_to_z_h(prof, tau) <= DEFAULT_ZH_BAND:
        raise UndefinedInflectionError(
            f"tau = {tau:.6g} lies within {DEFAULT_ZH_BAND} of a zero of h; "
            "inflection directions degenerate there")
    h = float(h_value(prof, markers, tau))
    if h == 0.0:
        raise UndefinedInflectionError(
            f"h vanishes at tau = {tau:.6g}; inflection directions "
            "degenerate there")
    theta, c_plus, c_minus = _formal_pair(domain, tau, phi, positive_momentum)
    i1, i2 = (c_plus, c_minus) if h > 0.0 else (c_minus, c_plus)
    return InflectionDirections(tau=tau, phi=float(phi), theta=theta, I1=i1, I2=i2)


def concave_direction(domain: ToroidalDomain, tau, phi, eta):
    """Unit concave-grazing direction between I1 and I2 (eta in (0,1)).

    Inside the Z_h band the directions are taken as the formal angle pair.
    """
    if not 0.0 < eta < 1.0:
        raise ValueError(f"eta must lie in (0, 1), got {eta}")
    try:
        d = inflection_directions(domain, tau, phi)
        i1, i2 = d.I1, d.I2
    except UndefinedInflectionError:
        if not bool(domain.markers.in_inner(domain.profile, tau)):
            raise
        _, i1, i2 = _formal_pair(domain, tau, phi)
    v = eta * i1 + (1.0 - eta) * i2
    return v / np.linalg.norm(v)


def inflection_momentum(domain: ToroidalDomain, tau):
    """Angular momentum of the inflection directions at tau: gamma1 cos(theta)."""
    return float(domain.profile.gamma1(tau)) * float(np.cos(inflection_angle(domain, tau)))
