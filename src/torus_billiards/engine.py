"""Specular billiard cycles in a toroidal domain.

Backward cycles iterate (t, x, v) -> (t - t_b, x - t_b v, R v) where t_b is
the smallest s > 0 with xi(x - s v) = 0 (sup of the empty set is 0, so a
boundary state whose backward ray exits immediately has t_b = 0).  Forward
cycles are the time reverse.  Tangential impacts are routed to the grazing
classifier; trajectories stop on blocking inflection phases and freeze on
convex grazing.
"""

from __future__ import annotations

import enum
import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import grazing
from .domain import (PointClass, ToroidalDomain, bounce_foot, point_class,
                     rotation_z)
from .errors import (GrazingAmbiguousError, NumericsError,
                     TrajectoryStoppedError)
from .grazing import DEFAULT_GRAZE_THRESHOLD

TWO_PI = 2.0 * np.pi
XI_ROOT_TOL = 1e-12     # longest last Newton step of an exit polish
XI_FLOOR = 1e-14        # |xi| at its rounding: no step improves the root
DEFAULT_MAX_BOUNCES = 10_000


class TrajectoryStatus(enum.Enum):
    COMPLETED = "completed"
    STOPPED_AT_INFLECTION_MINUS = "stopped-at-inflection-minus"
    STOPPED_AT_INFLECTION_PLUS = "stopped-at-inflection-plus"
    STUCK_CONVEX_GRAZING = "stuck-convex-grazing"
    MAX_BOUNCES_REACHED = "max-bounces-reached"
    GRAZING_AMBIGUOUS = "grazing-ambiguous"


@dataclass
class PhaseState:
    """Point of phase space: position in the closed domain, velocity, time."""

    x: np.ndarray
    v: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.v = np.asarray(self.v, dtype=float)
        self.t = float(self.t)
        if self.x.shape != (3,) or self.v.shape != (3,):
            raise ValueError("position and velocity must be 3-vectors")
        if not (np.isfinite(self.x).all() and np.isfinite(self.v).all()
                and math.isfinite(self.t)):
            raise ValueError("position, velocity and time must be finite")
        if np.linalg.norm(self.v) == 0.0:
            raise ValueError("velocity must be nonzero")


@dataclass
class BounceEvent:
    k: int
    t: float
    x: np.ndarray
    tau: float
    phi: float              # unwrapped azimuth
    v_in: np.ndarray
    v_out: np.ndarray
    normal_dot: float       # n(x).v_in / |v_in|
    graze: grazing.GrazingClass = grazing.GrazingClass.NON_GRAZING


@dataclass
class Trajectory:
    direction: int          # +1 forward, -1 backward
    origin: PhaseState
    phi0: float
    events: list = field(default_factory=list)
    end_state: PhaseState = None
    phi_end: float = 0.0
    total_length: float = 0.0
    winding: float = 0.0
    status: TrajectoryStatus = TrajectoryStatus.COMPLETED
    diagnostics: dict = field(default_factory=dict)


def signed_angular_momentum(x, v):
    """L_z = x1 v2 - x2 v1; positive when the azimuth increases."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    return x[..., 0] * v[..., 1] - x[..., 1] * v[..., 0]


def angular_momentum(x, v):
    """omega = |L_z|; conserved quantity."""
    return abs(signed_angular_momentum(x, v))


def _wrap_pi(a):
    return (a + np.pi) % TWO_PI - np.pi


def graze_stop(domain: ToroidalDomain, x_b, v, direction, graze_threshold):
    """(grazing class, stop status or None) of a tangential phase at the
    boundary point x_b; an ambiguous class stops as GRAZING_AMBIGUOUS."""
    try:
        g = grazing.classify(domain, x_b, v, graze_threshold)
    except GrazingAmbiguousError:
        return (grazing.GrazingClass.NON_GRAZING,
                TrajectoryStatus.GRAZING_AMBIGUOUS)
    if g is grazing.GrazingClass.CONVEX:
        return g, TrajectoryStatus.STUCK_CONVEX_GRAZING
    if g is grazing.GrazingClass.INFLECTION_MINUS and direction < 0:
        return g, TrajectoryStatus.STOPPED_AT_INFLECTION_MINUS
    if g is grazing.GrazingClass.INFLECTION_PLUS and direction > 0:
        return g, TrajectoryStatus.STOPPED_AT_INFLECTION_PLUS
    return g, None


def start_rule(domain: ToroidalDomain, x, w, graze_threshold, speed=1.0,
               what="position"):
    """(n, tangent, leaves) of rays w of speed ``speed`` from x: the unit
    outward normal at x (None inside, ValueError outside the closed domain),
    whether |n.w| < graze_threshold speed (the stop rule applies before the
    ray moves) and whether n.w >= graze_threshold speed (it exits at s = 0)."""
    f, n = domain.xi_grad(x)
    cls = point_class(f)
    if cls is PointClass.OUTSIDE:
        raise ValueError(f"{what} lies outside the closed domain")
    if cls is PointClass.INSIDE:
        return None, False, False
    nd = (w @ n) / speed
    return n, np.abs(nd) < graze_threshold, nd >= graze_threshold


def _count(name, value, least):
    """value as an int; a non-bool integer >= least."""
    if isinstance(value, bool) or not (
            isinstance(value, numbers.Integral) and value >= least):
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def bounce_cap(max_bounces, default):
    """max_bounces as an int, default if None; a non-bool integer >= 1."""
    return (default if max_bounces is None
            else _count("max_bounces", max_bounces, 1))


class BilliardEngine:
    """Trajectory integrator over an immutable ToroidalDomain."""

    def __init__(self, domain: ToroidalDomain,
                 graze_threshold=DEFAULT_GRAZE_THRESHOLD,
                 max_bounces=DEFAULT_MAX_BOUNCES):
        if not 0.0 < graze_threshold < 1.0:
            raise ValueError(
                f"graze_threshold must lie in (0, 1), got {graze_threshold!r}")
        self.domain = domain
        self.graze_threshold = float(graze_threshold)
        self.max_bounces = bounce_cap(max_bounces, DEFAULT_MAX_BOUNCES)

    # -- exit times -------------------------------------------------------

    def _refine_root(self, x, v, lo, hi):
        """Root of xi along the ray in [lo, hi] (xi(lo) <= 0 < xi(hi)).

        Safeguarded Newton from the bracket midpoint: steps that leave the
        bracket fall back to bisection.  It ends on a step along the ray of
        at most XI_ROOT_TOL, or where |xi| <= XI_FLOOR; a stop on |xi| alone
        would end up to |xi|/a off a wall met at |n.w| = a.
        """
        dom = self.domain
        speed = math.sqrt(float(v @ v))
        s = 0.5 * (lo + hi)
        for _ in range(80):
            f, g = dom.xi_grad(x + s * v)
            f = float(f)
            if f > 0.0:
                hi = s
            else:
                lo = s
            slope = float(np.dot(g, v))
            s_new = s - f / slope if slope != 0.0 else s
            if abs(f) <= max(XI_ROOT_TOL * abs(slope) / speed, XI_FLOOR):
                return s_new if lo <= s_new <= hi else s
            if not lo < s_new < hi:
                s_new = 0.5 * (lo + hi)
            s = s_new
        raise NumericsError(f"exit-time polish stalled at s = {s:.6e}")

    def _first_exit(self, x, v, max_s, n):
        """Smallest s in (0, max_s] with xi(x + s v) = 0, or None.

        ``n`` is the unit outward normal at a boundary start x, None inside.
        The march points lie whole march steps from x, the last one clipped
        to max_s, and reach at most one step past the domain's diameter,
        where a ray with no exit raises NumericsError.  A boundary start
        reads 0, and a bracket from it is polished like any other.
        """
        dom = self.domain
        step = dom.march_step / math.sqrt(float(v @ v))
        m = math.floor(dom.diameter / dom.march_step) + 1
        if max_s < m * step:
            m = math.ceil(max_s / step)
        s = np.minimum(step * np.arange(m + 1), max_s)
        if n is None:
            vals = dom.march_xi(x + s[:, None] * v)
        else:
            vals = np.concatenate(([0.0], dom.march_xi(x + s[1:, None] * v)))
        pos = np.flatnonzero(vals > 0.0)
        k = pos[0] if pos.size else m + 1   # the first point outside
        # near-surface pairs ahead of the first crossing may hide a short
        # blip (exit and re-entry between march points)
        near = np.flatnonzero((vals[1:k] > -dom.blip_tol)
                              & (vals[:k - 1] > -dom.blip_tol))
        if near.size:
            has, lo, hi = dom.blip_brackets(x, v, s[near], s[near + 1])
        if near.size and has.any():
            return self._refine_root(x, v, float(lo[0]), float(hi[0]))
        if pos.size:
            return self._refine_root(x, v, float(s[k - 1]), float(s[k]))
        if s[-1] < max_s:
            raise NumericsError("no exit within the domain's diameter")
        return None

    def backward_exit(self, x, v):
        """(t_b, x_b): backward exit time and point; t_b = 0 on immediate exit."""
        x = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)
        n, _, leaves = start_rule(self.domain, x, -v, self.graze_threshold,
                                  math.sqrt(float(v @ v)))
        s = 0.0 if leaves else self._first_exit(x, -v, math.inf, n)
        return s, x - s * v

    def forward_exit(self, x, v):
        return self.backward_exit(x, -np.asarray(v, dtype=float))

    # -- reflection -------------------------------------------------------

    def reflect(self, x_b, v):
        """Specular reflection v - 2 (n.v) n at the boundary point x_b."""
        v = np.asarray(v, dtype=float)
        n = self.domain.grad_xi(np.asarray(x_b, dtype=float))
        return v - 2.0 * float(np.dot(n, v)) * n

    # -- cycles -----------------------------------------------------------

    def _run(self, state: PhaseState, length, direction, max_bounces, phi0):
        if not (math.isfinite(length) and length >= 0.0):
            raise ValueError(
                f"length must be finite and non-negative, got {length}")
        dom, graze = self.domain, self.graze_threshold
        x = state.x.copy()
        v = state.v.copy()
        t = state.t
        speed0 = math.sqrt(float(v @ v))
        omega0 = float(angular_momentum(x, v))
        if phi0 is None:
            phi0 = float(np.arctan2(x[1], x[0])) if np.hypot(x[0], x[1]) > 0 else 0.0
        phi = float(phi0)
        traj = Trajectory(direction=direction, origin=PhaseState(x, v, t),
                          phi0=phi0)
        remaining = float(length)
        cap = bounce_cap(max_bounces, self.max_bounces)
        status = TrajectoryStatus.COMPLETED
        drift_v = drift_w = 0.0

        n, tangent, leaves = start_rule(dom, x, direction * v, graze, speed0,
                                        "origin position")
        if tangent:
            _, stop = graze_stop(dom, x, v, direction, graze)
            if stop is not None:
                status, remaining = stop, 0.0

        k = 0
        while remaining > 0.0:
            ray_v = direction * v
            # relative slack so a bounce landing exactly at the length budget
            # is not lost to rounding of the accumulated chord lengths
            max_s = (remaining / speed0) * (1.0 + 1e-12) + 1e-13
            s = 0.0 if leaves else self._first_exit(x, ray_v, max_s, n)
            leaves = False   # a reflected ray points inward
            if s is None:
                break  # budget exhausted in free flight
            if s * speed0 > remaining:
                remaining = s * speed0
            x_b = x + s * ray_v
            phi += float(_wrap_pi(np.arctan2(x_b[1], x_b[0])
                                  - np.arctan2(x[1], x[0])))
            tau, n = bounce_foot(dom, x_b)
            dn = float(np.dot(n, v))
            nd = dn / speed0
            remaining -= s * speed0
            t += direction * s
            graze_cls, stop = grazing.GrazingClass.NON_GRAZING, None
            if abs(nd) < graze:
                graze_cls, stop = graze_stop(dom, x_b, v, direction, graze)
            v_out = v if stop is not None else v - 2.0 * dn * n
            k += 1
            traj.events.append(BounceEvent(
                k=k, t=t, x=x_b, tau=tau, phi=phi,
                v_in=v.copy(), v_out=v_out, normal_dot=nd, graze=graze_cls))
            drift_v = max(drift_v,
                          abs(math.sqrt(float(v_out @ v_out)) - speed0) / speed0)
            if omega0 > 0:
                drift_w = max(drift_w,
                              abs(float(angular_momentum(x_b, v_out)) - omega0)
                              / omega0)
            x, v = x_b, v_out
            if stop is not None:
                status = stop
                remaining = 0.0
                break
            if k >= cap:
                status = TrajectoryStatus.MAX_BOUNCES_REACHED
                remaining = 0.0
                break

        if remaining > 0.0:
            # final partial free flight
            s = remaining / speed0
            x_end = x + s * direction * v
            phi += float(_wrap_pi(np.arctan2(x_end[1], x_end[0])
                                  - np.arctan2(x[1], x[0])))
            t += direction * s
            x = x_end
        traj.status = status
        traj.end_state = PhaseState(x, v, t)
        traj.phi_end = phi
        traj.total_length = abs(t - state.t) * speed0
        traj.winding = (phi - phi0) / TWO_PI
        traj.diagnostics = {"speed_drift": drift_v, "omega_drift": drift_w}
        return traj

    def backward_cycles(self, state: PhaseState, length, max_bounces=None,
                        phi0=None) -> Trajectory:
        return self._run(state, length, -1, max_bounces, phi0)

    def forward_cycles(self, state: PhaseState, length, max_bounces=None,
                       phi0=None) -> Trajectory:
        return self._run(state, length, +1, max_bounces, phi0)

    # -- evaluation -------------------------------------------------------

    def _segments(self, traj: Trajectory):
        """(t_start, x_start, v) per free-flight segment plus the time range."""
        o = traj.origin
        segs = [(o.t, o.x, o.v)] + [(ev.t, ev.x, ev.v_out)
                                    for ev in traj.events]
        return segs, o.t, traj.end_state.t

    def trajectory_eval(self, traj: Trajectory, s):
        """(X(s), V(s)): piecewise-linear position, piecewise-constant velocity.

        At a bounce time the half-open convention applies: backward runs use
        the pre-bounce velocity on [t^{k+1}, t^k); forward runs use the
        post-bounce velocity on [t^k, t^{k+1}).
        """
        segs, t_a, t_b = self._segments(traj)
        s = float(s)
        lo, hi = min(t_a, t_b), max(t_a, t_b)
        if not lo <= s <= hi:
            raise ValueError(f"time {s} outside trajectory range [{lo}, {hi}]")
        times = np.array([seg[0] for seg in segs])
        if traj.direction > 0:
            idx = int(np.searchsorted(times, s, side="right")) - 1
        else:
            idx = int(np.searchsorted(-times, -s, side="left")) - 1
        idx = min(max(idx, 0), len(segs) - 1)
        t_k, x_k, v_k = segs[idx]
        return x_k + (s - t_k) * v_k, v_k

    # -- arrival time -----------------------------------------------------

    def arrival_time_S0(self, x, phi_unwrapped, v):
        """Forward time until the trajectory of (R_phi x, R_phi v) reaches
        azimuth 0, i.e. crosses the half-plane S0 = {y = 0, x > 0}.

        The state is given in its azimuth-0 representative together with its
        unwrapped azimuth phi < 0; negative-orientation inputs are mirrored.
        ValueError unless x lies on S0 (x[1] == 0 < x[0]).
        """
        x = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)
        if not (x[1] == 0.0 and x[0] > 0.0):
            raise ValueError(f"state must lie on the half-plane S0 "
                             f"(y = 0, x > 0), got x = {x.tolist()}")
        if angular_momentum(x, v) <= 0.0:
            raise ValueError("arrival time requires omega > 0")
        if signed_angular_momentum(x, v) < 0.0:
            x = x * np.array([1.0, -1.0, 1.0])
            v = v * np.array([1.0, -1.0, 1.0])
            phi_unwrapped = -float(phi_unwrapped)
        phi_unwrapped = float(phi_unwrapped)
        if phi_unwrapped >= 0.0:
            raise ValueError("unwrapped azimuth must be negative")
        Rm = rotation_z(phi_unwrapped)
        xs = Rm @ x
        vs = Rm @ v
        # phi' = omega / rho^2 >= omega / r_max^2: one budget is enough
        speed = float(np.linalg.norm(v))
        budget = 1.5 * abs(phi_unwrapped) * self.domain.r_max ** 2 \
            / float(angular_momentum(x, v)) * speed + 4.0 * self.domain.r_max
        traj = self.forward_cycles(PhaseState(xs, vs, 0.0), budget,
                                   phi0=phi_unwrapped)
        if traj.phi_end < 0.0:
            if traj.status is not TrajectoryStatus.COMPLETED:
                raise TrajectoryStoppedError(
                    f"trajectory terminated with status {traj.status.value} "
                    "before reaching azimuth 0")
            raise NumericsError("azimuth 0 not reached within the time budget")
        segs, _, _ = self._segments(traj)
        phis = [traj.phi0] + [ev.phi for ev in traj.events] + [traj.phi_end]
        for i in range(len(segs)):
            if phis[i] <= 0.0 <= phis[i + 1]:
                # on a straight chord, unwrapped azimuth 0 is where y = 0
                t_k, x_k, v_k = segs[i]
                return float(t_k - x_k[1] / v_k[1])
        raise NumericsError("azimuth-0 crossing not bracketed")


# -- export ---------------------------------------------------------------


def trajectory_to_jsonl(traj: Trajectory, domain: ToroidalDomain, seed=None):
    """Serialize a trajectory as JSON Lines: header record then one record
    per bounce event."""
    header = {
        "record": "header",
        "origin": {"x": traj.origin.x.tolist(), "v": traj.origin.v.tolist(),
                   "t": traj.origin.t},
        "direction": traj.direction,
        "seed": seed,
        "domain_hash": domain.domain_hash(),
        "status": traj.status.value,
        "winding": traj.winding,
        "total_length": traj.total_length,
        "diagnostics": traj.diagnostics,
    }
    lines = [json.dumps(header, sort_keys=True)]
    for ev in traj.events:
        lines.append(json.dumps({
            "record": "bounce",
            "k": ev.k,
            "t": ev.t,
            "x": ev.x.tolist(),
            "tau": ev.tau,
            "phi_unwrapped": ev.phi,
            "v_in": ev.v_in.tolist(),
            "v_out": ev.v_out.tolist(),
            "normal_dot": ev.normal_dot,
            "graze": ev.graze.value,
        }, sort_keys=True))
    return lines
