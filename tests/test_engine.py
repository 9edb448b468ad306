import json
import math
import sys

import numpy as np
import pytest

import torus_billiards as tb
from torus_billiards import analysis
from torus_billiards.engine import TrajectoryStatus, _wrap_pi

from conftest import random_interior_states
from oracles import bisect_exits

TWO_PI = 2.0 * np.pi
SQRT3 = np.sqrt(3.0)


# -- exit times ------------------------------------------------------------


def test_backward_exit_examples(circle_engine):
    t, xb = circle_engine.backward_exit([2.0, 0.0, 0.0], [1.0, 0.0, 0.0])
    assert t == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(xb, [1.0, 0.0, 0.0], atol=1e-12)

    t, xb = circle_engine.backward_exit([1.0, 0.0, 0.0], [-1.0, 0.0, 0.0])
    assert t == pytest.approx(2.0, abs=1e-12)
    assert np.allclose(xb, [3.0, 0.0, 0.0], atol=1e-12)

    t, xb = circle_engine.backward_exit([2.0, 0.0, 1.0], [0.0, 0.0, 1.0])
    assert t == pytest.approx(2.0, abs=1e-12)
    assert np.allclose(xb, [2.0, 0.0, -1.0], atol=1e-12)


def test_backward_exit_immediate(circle_engine):
    # boundary state whose backward ray leaves at once: sup(empty) = 0
    t, xb = circle_engine.backward_exit([3.0, 0.0, 0.0], [-1.0, 0.0, 0.0])
    assert t == 0.0
    assert np.allclose(xb, [3.0, 0.0, 0.0])


def test_backward_exit_speed_scaling(circle_engine):
    t, _ = circle_engine.backward_exit([2.0, 0.0, 0.0], [2.0, 0.0, 0.0])
    assert t == pytest.approx(0.5, abs=1e-12)


def test_forward_exit_mirror(circle_engine):
    t, xb = circle_engine.forward_exit([2.0, 0.0, 0.0], [1.0, 0.0, 0.0])
    assert t == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(xb, [3.0, 0.0, 0.0], atol=1e-12)


def test_exit_rejects_exterior(circle_engine):
    with pytest.raises(ValueError):
        circle_engine.backward_exit([3.5, 0.0, 0.0], [1.0, 0.0, 0.0])


def test_exit_near_tangential_chord(circle_domain, circle_engine):
    # boundary start with a shallow chord much shorter than the march step
    dom = circle_engine.domain
    x = dom.sigma(0.0, 0.0)
    n = dom.outward_normal(0.0, 0.0)
    u = dom.phi_hat(0.0)
    delta = 1e-4
    v = np.cos(delta) * u - np.sin(delta) * n   # slightly inward
    t, xb = circle_engine.forward_exit(x, v)
    assert 0.0 < t < circle_domain.march_step
    assert abs(float(dom.xi(xb))) < 1e-10


def _wall_chords(domain, rng, n):
    """(x, w, a, l0) of n wall chords on the convex outer side: a start x on
    the boundary, a unit direction w at |n.w| = a below the tangent plane,
    a log-uniform in [1e-7, 1e-3], and the leading-order chord 2a/kappa_n."""
    m = 4 * n
    tau = domain.profile.wrap(rng.uniform(-0.8, 0.8, m)
                              * domain.markers.tau1_star)
    phi = rng.uniform(0.0, TWO_PI, m)
    theta = rng.uniform(0.0, TWO_PI, m)
    a = 10.0 ** rng.uniform(-7.0, -3.0, m)
    k1, k2 = tb.principal_curvatures(domain, tau)
    kn = k1 * np.cos(theta) ** 2 + k2 * np.sin(theta) ** 2
    u = (np.cos(theta)[:, None] * domain.phi_hat(phi)
         + np.sin(theta)[:, None] * domain.meridian_tangent(tau, phi))
    w = (np.sqrt(1.0 - a * a)[:, None] * u
         - a[:, None] * domain.outward_normal(tau, phi))
    keep = np.flatnonzero(kn > 0.1)[:n]
    assert keep.size == n
    return (domain.sigma(tau, phi)[keep], w[keep], a[keep],
            2.0 * a[keep] / kn[keep])


@pytest.mark.parametrize("fixture", ["circle_domain", "generic_circle_domain",
                                     "ellipse_domain"])
def test_wall_chord_exits_to_rounding(request, fixture):
    """Both polishes end a wall chord within 8 eps_xi / a of the
    bisection root, eps_xi being xi's rounding at boundary points; a stop
    on |xi| <= XI_ROOT_TOL alone may end XI_ROOT_TOL / a away."""
    domain = request.getfixturevalue(fixture)
    rng = np.random.default_rng(5)
    tau = rng.uniform(*domain.profile.period, 1024)
    eps_xi = np.abs(domain.xi(domain.sigma(tau, rng.uniform(0.0, TWO_PI,
                                                            1024)))).max()
    bound = 8.0 * eps_xi
    x, w, a, l0 = _wall_chords(domain, rng, 40)
    assert (domain.xi(x + 0.5 * l0[:, None] * w) < 0.0).all()
    ref = bisect_exits(domain, x, w, 0.5 * l0, 1.5 * l0, n_bisect=80)
    engine = tb.BilliardEngine(domain)
    got = np.array([engine.backward_exit(p, -d)[0] for p, d in zip(x, w)])
    assert (np.abs(got - ref) <= bound / a).all()
    tracer = analysis._polish_exits(domain, x, w, np.zeros(len(a)),
                                    np.full(len(a), domain.march_step))
    assert (np.abs(tracer - ref) <= bound / a).all()


# -- conservation and statuses ---------------------------------------------


def test_invariants_on_random_trajectory(circle_engine):
    rng = np.random.default_rng(0)
    (x, v), = random_interior_states(rng, 1)
    traj = circle_engine.forward_cycles(tb.PhaseState(x, v, 0.0), 1e9,
                                        max_bounces=100)
    assert traj.status is TrajectoryStatus.MAX_BOUNCES_REACHED
    assert len(traj.events) == 100
    assert traj.diagnostics["speed_drift"] < 1e-10
    assert traj.diagnostics["omega_drift"] < 1e-10
    # every bounce is on the boundary, hit from inside
    for ev in traj.events:
        assert abs(float(circle_engine.domain.xi(ev.x))) < 1e-10
        assert ev.normal_dot > 0.0  # forward run: outgoing ray crosses outward


def test_backward_normal_dot_sign(circle_engine):
    rng = np.random.default_rng(1)
    (x, v), = random_interior_states(rng, 1)
    traj = circle_engine.backward_cycles(tb.PhaseState(x, v, 0.0), 30.0)
    assert len(traj.events) >= 2
    for ev in traj.events:
        assert ev.normal_dot < 0.0


def test_stuck_convex_grazing(circle_engine):
    traj = circle_engine.forward_cycles(
        tb.PhaseState([3.0, 0.0, 0.0], [0.0, 1.0, 0.0]), 5.0)
    assert traj.status is TrajectoryStatus.STUCK_CONVEX_GRAZING
    assert traj.events == []


def test_inflection_stops(circle_domain, circle_engine):
    tau = 2 * np.pi / 3
    d = tb.inflection_directions(circle_domain, tau, 0.0)
    x = circle_domain.sigma(tau, 0.0)
    fwd = circle_engine.forward_cycles(tb.PhaseState(x, d.I1, 0.0), 5.0)
    assert fwd.status is TrajectoryStatus.STOPPED_AT_INFLECTION_PLUS
    bwd = circle_engine.backward_cycles(tb.PhaseState(x, d.I2, 0.0), 5.0)
    assert bwd.status is TrajectoryStatus.STOPPED_AT_INFLECTION_MINUS
    # the non-blocking orientations continue
    cont = circle_engine.backward_cycles(tb.PhaseState(x, d.I1, 0.0), 5.0)
    assert cont.status is TrajectoryStatus.COMPLETED
    assert cont.total_length == pytest.approx(5.0, rel=1e-9)


def test_boundary_start_reflects_in_place(circle_engine):
    # boundary state pointing outward: zero-length chord, reflect at once
    traj = circle_engine.forward_cycles(
        tb.PhaseState([3.0, 0.0, 0.0], [1.0, 0.0, 0.0]), 3.5)
    assert traj.events[0].t == 0.0
    assert np.allclose(traj.events[0].v_out, [-1.0, 0.0, 0.0], atol=1e-12)
    assert traj.status is TrajectoryStatus.COMPLETED
    assert len(traj.events) == 2  # in-place bounce then the inner wall


@pytest.mark.parametrize("fixture", ["circle_domain", "generic_circle_domain",
                                     "ellipse_domain"])
def test_one_bounce_rule(request, fixture):
    """Every bounce reads tau and its normal from the one foot solve, so an
    event's v_out is reflect(x, v_in) bit for bit."""
    domain = request.getfixturevalue(fixture)
    eng = tb.BilliardEngine(domain, max_bounces=10)
    rng = np.random.default_rng(23)
    events = []
    for _ in range(5):
        tau, phi = rng.uniform(*domain.profile.period), rng.uniform(0, TWO_PI)
        x = (domain.sigma(tau, phi)
             - 0.3 * domain.outward_normal(tau, phi))
        v = rng.standard_normal(3)
        traj = eng.forward_cycles(tb.PhaseState(x, v), 12.0)
        assert traj.status in (TrajectoryStatus.COMPLETED,
                               TrajectoryStatus.MAX_BOUNCES_REACHED)
        events += traj.events
    assert len(events) >= 20
    for ev in events:
        assert np.array_equal(ev.v_out, eng.reflect(ev.x, ev.v_in))
        assert ev.tau == float(domain.foot(ev.x)[1])


@pytest.mark.parametrize("fixture", ["circle_domain",
                                     "generic_circle_domain"])
def test_boundary_start_bounce_counts_against_cap(request, fixture):
    """The zero-length chord of a boundary start whose ray leaves at once
    is the run's first bounce: with max_bounces=1 it is the only one."""
    engine = tb.BilliardEngine(request.getfixturevalue(fixture))
    x, v = np.array([3.0, 0.0, 0.0]), np.array([-0.8, 0.6, 0.0])
    traj = engine.backward_cycles(tb.PhaseState(x, v), 5.0, max_bounces=1)
    assert len(traj.events) == 1
    assert traj.events[0].t == 0.0
    assert traj.status is TrajectoryStatus.MAX_BOUNCES_REACHED
    t, xb = engine.backward_exit(x, v)
    assert t == 0.0
    assert np.array_equal(xb, x)


def test_zero_length_run_records_no_bounce(circle_engine):
    """The bounce loop runs only while length remains: a run of length 0
    records no bounce and keeps its velocity, also from a boundary start
    whose ray leaves at once."""
    x, v = np.array([3.0, 0.0, 0.0]), np.array([-0.8, 0.6, 0.0])
    traj = circle_engine.backward_cycles(tb.PhaseState(x, v), 0.0)
    assert traj.events == []
    assert traj.status is TrajectoryStatus.COMPLETED
    assert np.array_equal(traj.end_state.x, x)
    assert np.array_equal(traj.end_state.v, v)


def test_winding_sign(circle_engine):
    fwd = circle_engine.forward_cycles(
        tb.PhaseState([2.0, 0.0, 0.0], [0.0, 1.0, 0.0]), 12.0)
    assert fwd.winding > 0.5
    rev = circle_engine.forward_cycles(
        tb.PhaseState([2.0, 0.0, 0.0], [0.0, -1.0, 0.0]), 12.0)
    assert rev.winding == pytest.approx(-fwd.winding, abs=1e-9)


def test_angular_momentum_helpers():
    x = np.array([2.0, 0.0, 0.0])
    v = np.array([0.3, 0.4, 0.5])
    assert tb.signed_angular_momentum(x, v) == pytest.approx(0.8)
    assert tb.angular_momentum(x, v) == pytest.approx(0.8)
    assert tb.signed_angular_momentum(x, -v) == pytest.approx(-0.8)
    assert tb.angular_momentum(x, -v) == pytest.approx(0.8)


def test_phase_state_validation():
    with pytest.raises(ValueError):
        tb.PhaseState([2.0, 0.0, 0.0], [0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="finite"):
        tb.PhaseState([2.0, 0.0, 0.0], [np.nan, 0.5, 0.0])
    with pytest.raises(ValueError, match="finite"):
        tb.PhaseState([2.0, np.inf, 0.0], [1.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="finite"):
        tb.PhaseState([2.0, 0.0, 0.0], [1.0, 0.0, 0.0], np.nan)


@pytest.mark.parametrize("kwargs", [
    {"max_bounces": 0}, {"max_bounces": -1}, {"max_bounces": True},
    {"max_bounces": 2.5}, {"graze_threshold": 0.0},
    {"graze_threshold": 2.0}])
def test_engine_rejects_bad_cap_and_threshold(circle_domain, kwargs):
    with pytest.raises(ValueError, match=next(iter(kwargs))):
        tb.BilliardEngine(circle_domain, **kwargs)


@pytest.mark.parametrize("cap", [0, -1, True, 2.5])
@pytest.mark.parametrize("run", [
    "forward_cycles", "backward_cycles", "tracer", "bounce_count"])
def test_per_call_cap_is_checked(circle_engine, run, cap):
    """A per-call max_bounces obeys the constructor's rule: the run would
    bounce within its length, and every entry point rejects the cap before
    it moves."""
    x, v = np.array([2.0, 0.0, 0.0]), np.array([0.3, 0.9, 0.2])
    calls = {
        "forward_cycles": lambda: circle_engine.forward_cycles(
            tb.PhaseState(x, v), 5.0, max_bounces=cap),
        "backward_cycles": lambda: circle_engine.backward_cycles(
            tb.PhaseState(x, v), 5.0, max_bounces=cap),
        "tracer": lambda: analysis._trace_min_graze(
            circle_engine.domain, x, v[None], 5.0, max_bounces=cap),
        "bounce_count": lambda: analysis.bounce_count(
            circle_engine, x, v, 5.0, max_bounces=cap),
    }
    with pytest.raises(ValueError, match="max_bounces"):
        calls[run]()


@pytest.mark.parametrize("length", [np.nan, np.inf, -3.0])
def test_cycles_reject_invalid_length(circle_engine, length):
    state = tb.PhaseState([2.0, 0.0, 0.0], [1.0, 0.0, 0.0])
    for run in (circle_engine.forward_cycles, circle_engine.backward_cycles):
        with pytest.raises(ValueError, match="length"):
            run(state, length)


# -- evaluation ------------------------------------------------------------


def test_trajectory_eval_forward_convention(circle_engine):
    st = tb.PhaseState([3.0, 0.0, 0.0], [-SQRT3 / 2, 0.5, 0.0])
    traj = circle_engine.forward_cycles(st, 9.0 * SQRT3)
    t1 = traj.events[0].t
    # half-open convention: at a bounce time the post-bounce velocity applies
    X, V = circle_engine.trajectory_eval(traj, t1)
    assert np.allclose(V, traj.events[0].v_out, atol=1e-12)
    assert np.allclose(X, traj.events[0].x, atol=1e-9)
    # mid-segment point lies on the chord
    X, V = circle_engine.trajectory_eval(traj, 0.5 * t1)
    assert np.allclose(X, st.x + 0.5 * t1 * st.v, atol=1e-9)
    assert np.allclose(V, st.v, atol=1e-12)
    with pytest.raises(ValueError):
        circle_engine.trajectory_eval(traj, -1.0)


def test_trajectory_eval_backward_convention(circle_engine):
    rng = np.random.default_rng(2)
    (x, v), = random_interior_states(rng, 1)
    traj = circle_engine.backward_cycles(tb.PhaseState(x, v, 0.0), 10.0)
    ev = traj.events[0]
    # half-open convention: each segment velocity applies on [t^{k+1}, t^k),
    # so at the bounce time itself the origin-side velocity still holds
    X, V = circle_engine.trajectory_eval(traj, ev.t)
    assert np.allclose(X, ev.x, atol=1e-9)
    assert np.allclose(V, ev.v_in, atol=1e-12)
    X, V = circle_engine.trajectory_eval(traj, 0.5 * ev.t)
    assert np.allclose(V, v, atol=1e-12)
    assert np.allclose(X, x + 0.5 * ev.t * v, atol=1e-9)
    # strictly past the bounce the reflected velocity applies
    t2 = traj.events[1].t
    _, V = circle_engine.trajectory_eval(traj, 0.5 * (ev.t + t2))
    assert np.allclose(V, ev.v_out, atol=1e-12)


# -- arrival time ----------------------------------------------------------


def test_arrival_time_chords(circle_engine):
    x = np.array([3.0, 0.0, 0.0])
    v = np.array([-SQRT3 / 2, 0.5, 0.0])
    assert circle_engine.arrival_time_S0(x, -TWO_PI / 3, v) == \
        pytest.approx(3 * SQRT3, abs=1e-9)
    assert circle_engine.arrival_time_S0(x, -2 * TWO_PI / 3, v) == \
        pytest.approx(6 * SQRT3, abs=1e-9)


@pytest.mark.parametrize("phi", [-0.05, -0.2, -0.4])
def test_arrival_time_crossing_is_exact(circle_engine, phi):
    """A free chord from azimuth phi along the rotated y axis meets the
    plane y = 0 after 2 tan(-phi), to the last bits."""
    t = circle_engine.arrival_time_S0([2.0, 0.0, 0.0], phi, [0.0, 1.0, 0.0])
    assert abs(t - 2.0 * np.tan(-phi)) <= 2 * np.spacing(t)


def test_arrival_time_mirrors_negative_momentum(circle_engine):
    x = np.array([3.0, 0.0, 0.0])
    v = np.array([-SQRT3 / 2, -0.5, 0.0])   # L_z < 0: azimuth decreases,
    # so the state sits at positive unwrapped azimuth and is mirrored
    assert circle_engine.arrival_time_S0(x, TWO_PI / 3, v) == \
        pytest.approx(3 * SQRT3, abs=1e-9)


def test_arrival_time_validation(circle_engine):
    with pytest.raises(ValueError):
        circle_engine.arrival_time_S0([3.0, 0.0, 0.0], -1.0, [1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        circle_engine.arrival_time_S0([3.0, 0.0, 0.0], 0.5,
                                      [-SQRT3 / 2, 0.5, 0.0])


# -- serialization ---------------------------------------------------------


def test_trajectory_to_jsonl(circle_engine):
    st = tb.PhaseState([3.0, 0.0, 0.0], [-SQRT3 / 2, 0.5, 0.0])
    traj = circle_engine.forward_cycles(st, 9.0 * SQRT3)
    lines = tb.trajectory_to_jsonl(traj, circle_engine.domain, seed=42)
    header = json.loads(lines[0])
    assert header["record"] == "header"
    assert header["seed"] == 42
    assert header["direction"] == 1
    assert header["status"] == "completed"
    assert header["winding"] == pytest.approx(1.0, abs=1e-9)
    assert header["domain_hash"] == circle_engine.domain.domain_hash()
    bounces = [json.loads(s) for s in lines[1:]]
    assert len(bounces) == 3
    for k, rec in enumerate(bounces, start=1):
        assert rec["record"] == "bounce"
        assert rec["k"] == k
        assert rec["phi_unwrapped"] == pytest.approx(k * TWO_PI / 3, abs=1e-9)
        assert rec["graze"] == "non-grazing"
    # byte determinism
    again = tb.trajectory_to_jsonl(traj, circle_engine.domain, seed=42)
    assert lines == again


# -- generic (non-quadric) domain ------------------------------------------


def test_engine_on_ellipse(ellipse_domain):
    eng = tb.BilliardEngine(ellipse_domain)
    rng = np.random.default_rng(4)
    x = np.array([3.0, 0.0, 0.0])
    v = rng.standard_normal(3)
    v /= np.linalg.norm(v)
    fw = eng.forward_cycles(tb.PhaseState(x, v, 0.0), 25.0)
    assert fw.status is TrajectoryStatus.COMPLETED
    assert len(fw.events) >= 2
    assert fw.diagnostics["speed_drift"] < 1e-9
    assert fw.diagnostics["omega_drift"] < 1e-8
    bk = eng.backward_cycles(tb.PhaseState(fw.end_state.x, fw.end_state.v,
                                           fw.end_state.t), 25.0)
    assert np.allclose(bk.end_state.x, x, atol=1e-6)
    assert np.allclose(bk.end_state.v, v, atol=1e-6)


def test_ellipse_creep_chord_without_bounce(ellipse_domain):
    """A creep start that legitimately bounces nowhere within length 3: it
    leaves the boundary at |n.v| = 0.018 and meets it again after 6.226."""
    eng = tb.BilliardEngine(ellipse_domain)
    x = np.array([1.8105028306771498, 1.1525701136484396, 0.9043078528920818])
    v = np.array([-0.9476398091660866, 0.26851308405626306,
                  -0.17285692284157114])
    traj = eng.forward_cycles(tb.PhaseState(x, v, 0.0), 3.0)
    assert traj.status is TrajectoryStatus.COMPLETED
    assert len(traj.events) == 0
    t_exit, _ = eng.forward_exit(x, v)
    assert t_exit == pytest.approx(6.226, abs=1e-3)
    s = np.linspace(0.0, 6.2, 2049)[1:]
    for chunk in np.array_split(s, 8):      # bounded (n, 2048) seed matrix
        assert ellipse_domain.xi(x + chunk[:, None] * v).max() < 0.0


def _march_starts(domain, rng):
    """Two interior starts (part of the way from the cross-section's centre
    to its rim) and three creep starts (near-tangential departures from the
    inner region, as in the benchmark's creep orbits), with the length of
    each run."""
    prof = domain.profile
    a, b = prof.period
    centre = prof.eval(np.linspace(a, b, 64, endpoint=False)).mean(axis=0)
    starts = []
    for _ in range(2):
        rz = centre + rng.uniform(0.0, 0.85) * (prof.eval(rng.uniform(a, b))
                                                - centre)
        phi = rng.uniform(0.0, TWO_PI)
        v = rng.standard_normal(3)
        starts.append((np.array([rz[0] * np.cos(phi), rz[0] * np.sin(phi),
                                 rz[1]]), v / np.linalg.norm(v), 10.0))
    m = domain.markers
    for _ in range(3):
        tau = float(prof.wrap(m.tau1_star
                              + rng.uniform(0.15, 0.85) * m.inner_span))
        phi = rng.uniform(0.0, TWO_PI)
        theta = float(tb.inflection_angle(domain, tau))
        alpha = theta + rng.uniform(0.2, 0.8) * (0.5 * np.pi - theta)
        tilt = 0.02 * 4.0 ** -rng.uniform(0.0, 1.0)
        u = (np.cos(alpha) * domain.phi_hat(phi)
             + np.sin(alpha) * domain.meridian_tangent(tau, phi))
        v = (np.cos(tilt) * u
             - np.sin(tilt) * domain.outward_normal(tau, phi))
        starts.append((domain.sigma(tau, phi), v, 3.0))
    return starts


@pytest.mark.parametrize("fixture", ["ellipse_domain",
                                     "generic_circle_domain"])
def test_engine_march_matches_exact_xi(request, monkeypatch, fixture):
    """Certified march values leave forward orbits bit-identical to a march
    on the exact indicator, from interior and from creep starts."""
    domain = request.getfixturevalue(fixture)
    eng = tb.BilliardEngine(domain, max_bounces=8)
    starts = _march_starts(domain, np.random.default_rng(12))

    def orbits():
        out = []
        for x, v, length in starts:
            traj = eng.forward_cycles(tb.PhaseState(x, v), length)
            out.append((traj.status, [(ev.x, ev.t, ev.tau, ev.normal_dot)
                                      for ev in traj.events]))
        return out

    got = orbits()
    monkeypatch.setattr(tb.ToroidalDomain, "march_xi", tb.ToroidalDomain.xi)
    want = orbits()
    assert sum(len(evs) for _, evs in got) >= 10
    for (st_a, evs_a), (st_b, evs_b) in zip(got, want):
        assert st_a is st_b
        assert len(evs_a) == len(evs_b)
        for (xa, *ra), (xb, *rb) in zip(evs_a, evs_b):
            assert np.array_equal(xa, xb)
            assert ra == rb


@pytest.mark.parametrize("fixture", ["circle_domain", "ellipse_domain"])
def test_first_exit_grid_within_diameter(request, monkeypatch, fixture):
    """The march grid of one exit reaches at most one step past the
    domain's diameter, however long the run's length budget."""
    domain = request.getfixturevalue(fixture)
    eng = tb.BilliardEngine(domain, max_bounces=20)
    march = domain.march_xi
    sizes = []

    def recorded(p):
        if sys._getframe(1).f_code.co_name == "_first_exit":
            sizes.append(len(p))
        return march(p)

    monkeypatch.setattr(domain, "march_xi", recorded)
    for x, v, _ in _march_starts(domain, np.random.default_rng(13)):
        eng.forward_cycles(tb.PhaseState(x, v), 1e9)
    assert len(sizes) >= 20
    assert max(sizes) <= math.ceil(domain.diameter / domain.march_step) + 1


def test_diameter_of_circle_torus(circle_domain):
    assert circle_domain.diameter == pytest.approx(np.hypot(6.0, 2.0),
                                                   abs=1e-12)


def test_exit_beyond_diameter_raises():
    """A ray still inside one step past the domain's diameter has no exit
    the march can find: exits and runs longer than that raise, a shorter
    run ends in free flight."""
    class Solid(tb.CircleTorusDomain):
        def xi(self, p):
            return np.full(np.shape(p)[:-1], -1.0)

        march_xi = xi

    eng = tb.BilliardEngine(Solid())
    x, v = np.array([2.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0])
    with pytest.raises(tb.NumericsError):
        eng.backward_exit(x, v)
    with pytest.raises(tb.NumericsError):
        eng.forward_cycles(tb.PhaseState(x, v), 100.0)
    traj = eng.forward_cycles(tb.PhaseState(x, v), 1.0)
    assert traj.status is TrajectoryStatus.COMPLETED
    assert len(traj.events) == 0


def test_wrap_pi():
    assert _wrap_pi(np.pi + 0.1) == pytest.approx(-np.pi + 0.1, abs=1e-12)
    assert _wrap_pi(-0.3) == pytest.approx(-0.3, abs=1e-12)
