"""Phase-space diagnostics: bounce statistics, recurrence residuals,
angular-momentum rings, Monte Carlo bad-set measure, finite-difference
Jacobians and the specular basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import grazing
from .domain import PointClass, ToroidalDomain
from .engine import (DEFAULT_MAX_BOUNCES, XI_FLOOR, XI_ROOT_TOL,
                     BilliardEngine, PhaseState, Trajectory,
                     TrajectoryStatus, _count, angular_momentum, bounce_cap,
                     graze_stop, start_rule)
from .errors import DegenerateBasisError, NonSmoothPointError, NumericsError

# samples per random-stream chunk: chunk c of seed s is always the same
# directions, so the chunk fixes which samples a call draws
BADSET_CHUNK = 1024
# rays per tracer call: wider batches spread each march round over more
# rays; the batch fixes only how the samples are traced, not their outputs
BADSET_BATCH = 4 * BADSET_CHUNK
# trim of the inner region at each end for the recurrence residuals
EDGE_MARGIN = 0.05


# -- cross-section frame and rings ----------------------------------------


def cross_section_frame(x, v):
    """(v_x, v_phi, v_y): radial, azimuthal and vertical components of v
    in the meridian cross-section through x."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    rho = np.hypot(x[..., 0], x[..., 1])
    rho = np.where(rho == 0, 1.0, rho)
    cx, sx = x[..., 0] / rho, x[..., 1] / rho
    v_x = v[..., 0] * cx + v[..., 1] * sx
    v_phi = -v[..., 0] * sx + v[..., 1] * cx
    v_y = v[..., 2]
    return v_x, v_phi, v_y


@dataclass
class RingSpec:
    """Open neighborhood of a distinguished direction family on the sphere.

    kinds: 'angular-momentum' (needs tau_ref), 'perp', 'azimuth-aligned',
    'symmetric'.
    """

    kind: str
    epsilon: float
    tau_ref: float = None

    KINDS = ("angular-momentum", "perp", "azimuth-aligned", "symmetric")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown ring kind {self.kind!r}")
        if self.epsilon <= 0:
            raise ValueError("ring half-width must be positive")
        if self.kind == "angular-momentum" and self.tau_ref is None:
            raise ValueError("angular-momentum ring needs tau_ref")


def ring_reference_momentum(domain: ToroidalDomain, tau_ref):
    """omega of the inflection directions at tau_ref (phi-independent)."""
    # validates that the inflection directions exist at tau_ref
    grazing.inflection_directions(domain, tau_ref, 0.0)
    return grazing.inflection_momentum(domain, tau_ref)


def ring_membership(domain: ToroidalDomain, x, v, specs):
    """Membership flags of unit direction(s) v at x for each RingSpec.

    v may be a single 3-vector or an (n, 3) batch; flags are booleans or
    boolean arrays accordingly.
    """
    v = np.asarray(v, dtype=float)
    v_x, v_phi, v_y = cross_section_frame(x, v)
    flags = []
    for spec in specs:
        if spec.kind == "angular-momentum":
            ref = ring_reference_momentum(domain, spec.tau_ref)
            m = np.abs(angular_momentum(x, v) - ref) < spec.epsilon
        elif spec.kind == "perp":
            m = np.abs(v_phi) < spec.epsilon
        elif spec.kind == "azimuth-aligned":
            m = np.abs(v_phi) > 1.0 - spec.epsilon
        else:  # symmetric
            m = np.abs(np.abs(v_x) - np.abs(v_y)) < spec.epsilon
        flags.append(bool(m) if m.ndim == 0 else m)
    return flags


# -- bounce counting ------------------------------------------------------


def bounce_count(engine: BilliardEngine, x, v, L, max_bounces=None):
    """(N, capped): number of backward bounces within travel length L."""
    speed = float(np.linalg.norm(v))
    # small relative margin so a bounce landing exactly at length L counts
    margin = L * (1.0 + 1e-12) + 1e-12
    traj = engine.backward_cycles(PhaseState(x, v, 0.0), margin,
                                  max_bounces=max_bounces)
    t0 = traj.origin.t
    n = sum(1 for ev in traj.events
            if abs(ev.t - t0) * speed <= L * (1.0 + 1e-12))
    capped = traj.status is TrajectoryStatus.MAX_BOUNCES_REACHED
    return n, capped


# -- recurrence residuals -------------------------------------------------


def recurrence_residuals(domain: ToroidalDomain, traj: Trajectory,
                         inner_only=True, gate=0.1,
                         z_h_band=grazing.DEFAULT_ZH_BAND):
    """Per-step records of the bounce-parameter recurrences.

    For consecutive bounce parameter steps (d_tau_i, d_phi_i):
    r1 = |d_phi|/|d_tau| and
    r2 = |d_tau_{i+1} - d_tau_i| / (d_tau_i^2 + d_tau_{i+1}^2
                                    + d_phi_i^2 + d_phi_{i+1}^2).
    Steps violating the smallness gate (or leaving the trimmed inner region
    when inner_only) are filtered out.
    """
    evs = traj.events
    if len(evs) < 3:
        return []
    per = domain.profile.period_length
    half = per / 2.0
    taus = np.array([ev.tau for ev in evs])
    phis = np.array([ev.phi for ev in evs])
    d_tau = (np.diff(taus) + half) % per - half
    d_phi = np.diff(phis)
    # each step's gate and each bounce's tau are tested once, as arrays
    ok = ~((np.abs(d_tau) >= gate) | (np.abs(d_phi) >= gate))
    if inner_only:
        markers, prof = domain.markers, domain.profile
        inner = (markers.in_inner(prof, taus, EDGE_MARGIN)
                 & ~(markers.dist_to_z_h(prof, taus) <= z_h_band))
        ok &= inner[:-1] & inner[1:]
    records = []
    for i in np.nonzero(ok[:-1] & ok[1:])[0].tolist():
        denom = (d_tau[i] ** 2 + d_tau[i + 1] ** 2
                 + d_phi[i] ** 2 + d_phi[i + 1] ** 2)
        records.append({
            "i": i,
            "d_tau": float(d_tau[i]),
            "d_phi": float(d_phi[i]),
            "r1": float(abs(d_phi[i]) / abs(d_tau[i])) if d_tau[i] != 0 else np.inf,
            "r2": float(abs(d_tau[i + 1] - d_tau[i]) / denom) if denom > 0 else np.inf,
        })
    return records


# -- bad-set measure ------------------------------------------------------


@dataclass
class BadSetReport:
    x: np.ndarray
    epsilon_graze: float
    L: float
    n_samples: int
    fraction: float
    ci95: float
    breakdown: dict = field(default_factory=dict)


def _sample_directions(seed, chunk_index, n):
    """Deterministic per-chunk unit direction samples."""
    rng = np.random.default_rng([int(seed), int(chunk_index)])
    g = rng.standard_normal((n, 3))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    return g


def _polish_exits(domain: ToroidalDomain, base, w, lo, hi):
    """Roots s of xi(base + s w) in the brackets [lo, hi], one per ray of
    unit direction w.

    The batched form of ``BilliardEngine._refine_root``: safeguarded Newton
    from the bracket midpoint, bisecting when a step leaves the bracket,
    until the Newton step is at most XI_ROOT_TOL or |xi| <= XI_FLOOR; only
    unconverged rays, kept in compacted arrays, are evaluated again.
    """
    l = np.array(lo, dtype=float)
    h = np.array(hi, dtype=float)
    s = 0.5 * (l + h)
    out = np.empty_like(s)
    act = np.arange(len(s))
    for _ in range(80):
        f, g = domain.xi_grad(base + s[:, None] * w)
        above = f > 0.0
        h = np.where(above, s, h)
        l = np.where(above, l, s)
        slope = np.einsum("ij,ij->i", g, w)
        safe = np.where(slope != 0.0, slope, 1.0)
        s_new = np.where(slope != 0.0, s - f / safe, s)
        done = np.abs(f) <= np.maximum(XI_ROOT_TOL * np.abs(slope), XI_FLOOR)
        out[act[done]] = np.where((l <= s_new) & (s_new <= h), s_new, s)[done]
        s_new = np.where((l < s_new) & (s_new < h), s_new, 0.5 * (l + h))
        keep = ~done
        act, s, l, h = act[keep], s_new[keep], l[keep], h[keep]
        base, w = base[keep], w[keep]
        if not act.size:
            return out
    raise NumericsError(f"exit-time polish stalled at s = {s[0]:.6e}")


def _trace_min_graze(domain: ToroidalDomain, x0, dirs, L, *,
                     max_bounces=DEFAULT_MAX_BOUNCES,
                     graze_threshold=grazing.DEFAULT_GRAZE_THRESHOLD,
                     decided_below=0.0):
    """Vectorized backward tracer: minimum |n.v_hat| over bounces per sample.

    Returns (min_nd, n_bounces, stopped) arrays.  Near-tangential
    impacts whose exterior excursion is shorter than the march step are the
    very statistic being measured, so the rays march on the engine's grid
    by the domain's march rule, blip subdivision included.  A ray jumps
    over the points its last value certifies as deeper than blip_tol +
    march_step (march_xi >= xi inside, xi is 1-Lipschitz).  A ray whose
    step crosses the wall or holds a blip leaves the march with its exit
    bracket; the held brackets are polished and bounced in one batch once
    their rays are at least as many as the marching ones, or at once when
    a chord ends within its first march step (it creeps, and so will its
    next chord).  The polish works row by row, so the outputs are those of
    polishing each march step's exits.  Runs stop and are capped as the
    engine's are, and retire once min_nd < decided_below.
    """
    n = len(dirs)
    x0 = np.asarray(x0, dtype=float)
    max_bounces = bounce_cap(max_bounces, DEFAULT_MAX_BOUNCES)
    start = np.broadcast_to(x0, (n, 3)).copy()   # each ray's chord start
    # backward rays travel against the velocity
    w = -dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
    left = np.full(n, float(L))   # length left at the chord start
    j = np.zeros(n)               # grid index of the last march point
    # xi at each ray's last march point; a bounce point counts as 0
    xi_prev = np.full(n, float(domain.march_xi(x0)))
    min_nd = np.full(n, np.inf)
    bounces = np.zeros(n, dtype=int)
    stopped = np.zeros(n, dtype=bool)
    active = np.ones(n, dtype=bool)
    step, tol = domain.march_step, domain.blip_tol

    def bounce(ci, sb):
        """Reflect the rays ci at their exits, sb along their chords."""
        wv = w[ci]
        xb = start[ci] + sb[:, None] * wv
        nrm = domain.grad_xi(xb)
        nd = np.abs(np.einsum("ij,ij->i", nrm, wv))
        min_nd[ci] = np.minimum(min_nd[ci], nd)
        bounces[ci] += 1
        active[ci] = True
        left[ci] -= sb
        wr = wv - 2.0 * np.einsum("ij,ij->i", nrm, wv)[:, None] * nrm
        # the next chord starts at the bounce point, as the engine's does
        start[ci] = xb
        j[ci] = 0.0
        xi_prev[ci] = 0.0
        w[ci] = wr
        # a run ends at the engine's stop rule (the backward run's velocity
        # is -w), at the bounce cap, when its length is spent or decided
        for r in np.nonzero(nd < graze_threshold)[0]:
            stopped[ci[r]] = graze_stop(domain, xb[r], -wv[r], -1,
                                        graze_threshold)[1] is not None
        active[ci[stopped[ci] | (bounces[ci] >= max_bounces)
                  | (left[ci] <= 0.0) | (min_nd[ci] < decided_below)]] = False

    # the engine's start rule: at a boundary base point a tangential ray
    # meets the stop rule before it moves, and a ray that leaves at once
    # bounces in place (the zero-length chord)
    n0, tangent, leaves = start_rule(domain, x0, w, graze_threshold)
    if n0 is not None:
        for r in np.nonzero(tangent)[0]:
            stopped[r] = graze_stop(domain, x0, -w[r], -1,
                                    graze_threshold)[1] is not None
        active[stopped] = False
        out = np.nonzero(leaves)[0]
        if out.size:
            bounce(out, np.zeros(out.size))

    pend = []   # (rays, lo, hi) of the exit brackets waiting for the polish
    held = 0    # rays in pend, out of the march until their bounce
    while active.any() or pend:
        idx = np.nonzero(active)[0]
        creep = False
        if idx.size:
            k = np.floor((-xi_prev[idx] - tol) / step)   # steps certified deep
            last = np.ceil(left[idx] / step)   # index of the clipped point
            jn = np.minimum(j[idx] + np.maximum(k, 1.0), last)
            s = np.minimum(jn * step, left[idx])
            xi = domain.march_xi(start[idx] + s[:, None] * w[idx])
            crossed = xi > 0.0
            # exit bracket [lo, hi] of each step, narrowed where a blip is found
            lo, hi = (jn - 1.0) * step, s
            near = np.nonzero((xi > -tol) & ~crossed
                              & (xi_prev[idx] > -tol))[0]
            if near.size:
                rays = idx[near]
                has, b_lo, b_hi = domain.blip_brackets(start[rays], w[rays],
                                                       lo[near], hi[near])
                rows = near[has]
                crossed[rows] = True
                lo[rows], hi[rows] = b_lo, b_hi
            ok = ~crossed
            ii = idx[ok]
            j[ii], xi_prev[ii] = jn[ok], xi[ok]
            active[ii[jn[ok] >= last[ok]]] = False
            ci = idx[crossed]
            if ci.size:
                active[ci] = False
                pend.append((ci, lo[crossed], hi[crossed]))
                held += ci.size
                # a chord that ends within its first march step creeps, and
                # so will its next chord: it does not wait
                creep = (j[ci] == 0.0).any()
        # the brackets go through one polish once the rays holding them are
        # at least as many as the rays still marching
        if pend and (creep or held >= np.count_nonzero(active)):
            ci, lo, hi = (pend[0] if len(pend) == 1 else
                          (np.concatenate(c) for c in zip(*pend)))
            pend, held = [], 0
            bounce(ci, _polish_exits(domain, start[ci], w[ci], lo, hi))
    return min_nd, bounces, stopped


def _trace_samples(engine: BilliardEngine, x, L, n_samples, seed,
                   decided_below):
    """Draw n_samples directions in stream chunks of BADSET_CHUNK and trace
    them by _trace_min_graze, once each, in batches of BADSET_BATCH rays
    under the engine's bounce cap and stop rule.  The chunks fix the
    samples; every ray is traced row by row, so the batches change no
    output.  Returns (units, min_nd, bounces, stopped), one entry per
    sample.

    Raises ValueError unless x is a finite point of the closed domain, L is
    finite and positive, n_samples is an integer >= 1 and seed an integer
    >= 0.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (3,) or not np.all(np.isfinite(x)):
        raise ValueError(
            f"base point must be 3 finite coordinates, got {x.tolist()}")
    if engine.domain.classify_point(x) is PointClass.OUTSIDE:
        raise ValueError(f"base point {x.tolist()} lies outside the domain")
    if not (math.isfinite(L) and L > 0.0):
        raise ValueError(f"length must be finite and positive, got {L}")
    n_samples = _count("n_samples", n_samples, 1)
    seed = _count("seed", seed, 0)
    dirs = np.concatenate([
        _sample_directions(seed, c, min(BADSET_CHUNK, n_samples - c0))
        for c, c0 in enumerate(range(0, n_samples, BADSET_CHUNK))])
    units = dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
    traced = [_trace_min_graze(engine.domain, x, dirs[b0:b0 + BADSET_BATCH],
                               L, max_bounces=engine.max_bounces,
                               graze_threshold=engine.graze_threshold,
                               decided_below=decided_below)
              for b0 in range(0, n_samples, BADSET_BATCH)]
    return (units, *(np.concatenate(col) for col in zip(*traced)))


def _badset_rows(engine: BilliardEngine, x, L, n_samples, seed, deltas,
                 spec_rows):
    """Bad-set fraction per threshold in deltas, with the ring specs of the
    same index in spec_rows, over one traced sample set.  Every threshold
    and angular-momentum ring is checked before any ray is traced.

    A sample is bad at delta when its backward run comes within delta of
    grazing, is ended by the engine's stop rule (stopped_at_inflection) or
    bounce cap (max_bounces), or its direction falls in any of the row's
    ring specs.  The stop and cap counts leave out near-grazing (perhaps
    retired) samples.
    """
    if len(deltas) == 0:
        raise ValueError("at least one threshold delta is required")
    for d in deltas:
        # graze_threshold's range; from 1 on, every bounce is near grazing
        if not 0.0 < d < 1.0:
            raise ValueError(f"threshold delta must lie in (0, 1), got {d}")
    for spec in (s for specs in spec_rows for s in specs):
        if spec.kind == "angular-momentum":
            ring_reference_momentum(engine.domain, spec.tau_ref)
    # a sample below the smallest threshold is bad in every row
    units, min_nd, bounces, stopped = _trace_samples(
        engine, x, L, n_samples, seed, min(deltas))
    n = len(min_nd)
    rows = []
    for delta, specs in zip(deltas, spec_rows):
        grz = min_nd < delta
        # a run stopped on its last allowed bounce is stopped, as in the engine
        capped = (bounces >= engine.max_bounces) & ~(stopped | grz)
        stop = stopped & ~grz
        ring = np.logical_or.reduce(
            ring_membership(engine.domain, x, units, specs), axis=0)
        frac = int(np.count_nonzero(grz | stop | capped | ring)) / n
        rows.append({
            "delta": float(delta), "fraction": frac,
            "ci95": 1.96 * math.sqrt(max(frac * (1.0 - frac), 1.0 / n) / n),
            "near_grazing": int(np.count_nonzero(grz)),
            "ring_excluded": int(np.count_nonzero(ring)),
            "stopped_at_inflection": int(np.count_nonzero(stop)),
            "max_bounces": int(np.count_nonzero(capped))})
    return rows


def badset_measure(engine: BilliardEngine, x, eps_graze, L, n_samples, seed,
                   *, ring_specs=None) -> BadSetReport:
    """Monte Carlo estimate of the bad-direction measure at base point x.

    Uniform directions on the sphere; a sample is bad as in badset_scan,
    with the given ring_specs in place of ring kinds.
    """
    x = np.asarray(x, dtype=float)
    row, = _badset_rows(engine, x, L, n_samples, seed, [eps_graze],
                        [ring_specs or ()])
    breakdown = {k: row[k] for k in ("near_grazing", "ring_excluded",
                                     "stopped_at_inflection", "max_bounces")}
    return BadSetReport(x=x, epsilon_graze=float(eps_graze), L=float(L),
                        n_samples=int(n_samples), fraction=row["fraction"],
                        ci95=row["ci95"], breakdown=breakdown)


def badset_scan(engine: BilliardEngine, x, phi, deltas, L, n_samples, seed,
                speed_band=None, ring_kinds=(), tau_ref=None):
    """Bad-set rows at several thresholds delta from one traced sample set.

    A sample is bad at threshold delta when its backward run of length L
    comes within delta of grazing at a bounce, is ended by the engine's
    stop rule, reaches the engine's max_bounces, or its direction falls in
    any of the requested ring exclusions with half-width delta
    (``ring_kinds`` from RingSpec.KINDS; 'angular-momentum' needs
    ``tau_ref``).  Each row holds delta, fraction, ci95 and the counts
    near_grazing, ring_excluded, stopped_at_inflection and max_bounces.
    ``speed_band`` must be None: samples are unit directions.
    """
    if speed_band is not None:
        raise ValueError("speed_band must be None: samples are unit directions")
    spec_rows = [[RingSpec(kind=k, epsilon=float(d),
                           tau_ref=tau_ref if k == "angular-momentum" else None)
                  for k in ring_kinds] for d in deltas]
    return _badset_rows(engine, np.asarray(x, dtype=float), L, n_samples,
                        seed, deltas, spec_rows)


# -- Jacobians ------------------------------------------------------------


@dataclass
class JacobianResult:
    det: float
    rel_spread: float


def _eval_X(engine: BilliardEngine, t, x, v, s):
    """X(s; t, x, v) via a backward run over the time horizon t - s."""
    speed = float(np.linalg.norm(v))
    # tiny horizon slack so rounding cannot leave the end time short of s
    length = (t - s) * speed * (1.0 + 1e-12) + 1e-12
    traj = engine.backward_cycles(PhaseState(x, v, t), length)
    s_eval = max(s, traj.end_state.t) if t > s else s
    X, _ = engine.trajectory_eval(traj, s_eval)
    return X, len(traj.events)


def jacobian_det(engine: BilliardEngine, t, x, v, s, h=1e-5) -> JacobianResult:
    """det dX(s;t,x,v)/dv by central differences with a Richardson check.

    Differentiability is guarded by requiring every perturbed trajectory to
    have the same bounce count as the base one; s must stay clear of the
    base trajectory's bounce times.
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    if s >= t:
        raise ValueError("evaluation time must precede the origin time")
    if not (math.isfinite(h) and h > 0.0):
        raise ValueError(f"step h must be finite and positive, got {h}")
    speed = float(np.linalg.norm(v))
    base = engine.backward_cycles(PhaseState(x, v, t), (t - s) * speed)
    delta_t = 10.0 * h * speed
    for ev in base.events:
        if abs(ev.t - s) < delta_t:
            raise ValueError(
                f"evaluation time {s} within {delta_t} of bounce time {ev.t}")
    n_base = len(base.events)

    def det_at(step):
        cols = []
        for i in range(3):
            dv = np.zeros(3)
            dv[i] = step
            xp, np_ = _eval_X(engine, t, x, v + dv, s)
            xm, nm_ = _eval_X(engine, t, x, v - dv, s)
            if np_ != n_base or nm_ != n_base:
                raise NonSmoothPointError(
                    f"perturbed bounce counts ({np_}, {nm_}) differ from base "
                    f"{n_base}; dX/dv undefined here")
            cols.append((xp - xm) / (2.0 * step))
        return float(np.linalg.det(np.stack(cols, axis=1)))

    d1 = det_at(h)
    d2 = det_at(h / 2.0)
    rel = abs(d1 - d2) / max(abs(d2), 1e-300)
    return JacobianResult(det=d2, rel_spread=rel)


# -- specular basis -------------------------------------------------------


def specular_basis(domain: ToroidalDomain, x_k, v_k):
    """Orthonormal triple (e0, e1, e2) with e0 = v_hat and e1 normal to the
    plane of v and the azimuthal tangent at x_k."""
    x_k = np.asarray(x_k, dtype=float)
    v_k = np.asarray(v_k, dtype=float)
    e0 = v_k / np.linalg.norm(v_k)
    phi = np.arctan2(x_k[1], x_k[0])
    az = domain.phi_hat(phi)
    c = np.cross(e0, az)
    nc = np.linalg.norm(c)
    if nc < 1e-12:
        raise DegenerateBasisError(
            "velocity parallel to the azimuthal tangent; basis undefined")
    e1 = c / nc
    e2 = np.cross(e0, e1)
    return e0, e1, e2
