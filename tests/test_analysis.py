import functools

import numpy as np
import pytest

import torus_billiards as tb
from torus_billiards import analysis
from torus_billiards.analysis import _sample_directions, _trace_min_graze
from torus_billiards.domain import BOUNDARY_BAND
from torus_billiards.engine import XI_ROOT_TOL
from torus_billiards.grazing import DEFAULT_GRAZE_THRESHOLD

from conftest import random_interior_states
from oracles import (bisect_exits, clamped_march_xi,
                     nearest_parameter_full_table)

TWO_PI = 2.0 * np.pi
SQRT3 = np.sqrt(3.0)


# -- cross-section frame and rings ----------------------------------------


def test_cross_section_frame_axes():
    x = np.array([2.0, 0.0, 0.0])
    assert tb.cross_section_frame(x, [1.0, 0.0, 0.0]) == (1.0, 0.0, 0.0)
    assert tb.cross_section_frame(x, [0.0, 1.0, 0.0]) == (0.0, 1.0, 0.0)
    assert tb.cross_section_frame(x, [0.0, 0.0, 1.0]) == (0.0, 0.0, 1.0)
    # rotating the base point rotates the decomposition with it
    R = tb.rotation_z(0.9)
    vx, vphi, vy = tb.cross_section_frame(R @ x, R @ [0.3, 0.4, 0.5])
    assert (vx, vphi, vy) == pytest.approx((0.3, 0.4, 0.5), abs=1e-12)


def test_cross_section_frame_batched():
    x = np.array([2.0, 0.0, 0.0])
    v = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    vx, vphi, vy = tb.cross_section_frame(x, v)
    assert np.allclose(vx, [1.0, 0.0])
    assert np.allclose(vphi, [0.0, 1.0])


def test_ring_spec_validation():
    with pytest.raises(ValueError):
        tb.RingSpec(kind="bogus", epsilon=0.1)
    with pytest.raises(ValueError):
        tb.RingSpec(kind="perp", epsilon=-0.1)
    with pytest.raises(ValueError):
        tb.RingSpec(kind="angular-momentum", epsilon=0.1)   # tau_ref missing


def test_ring_membership(circle_domain):
    x = np.array([2.0, 0.0, 0.0])
    specs = [tb.RingSpec("perp", 0.05),
             tb.RingSpec("azimuth-aligned", 0.05),
             tb.RingSpec("symmetric", 0.05),
             tb.RingSpec("angular-momentum", 0.05, tau_ref=2 * np.pi / 3)]
    v_perp = np.array([0.8, 0.0, 0.6])          # no azimuthal component
    flags = tb.ring_membership(circle_domain, x, v_perp, specs)
    assert flags[0] and not flags[1] and not flags[2]
    v_az = np.array([0.0, 1.0, 0.0])
    flags = tb.ring_membership(circle_domain, x, v_az, specs)
    assert flags[1] and not flags[0]
    v_sym = np.array([1.0, 0.0, 1.0]) / np.sqrt(2.0)
    flags = tb.ring_membership(circle_domain, x, v_sym, specs)
    assert flags[2]
    # angular-momentum ring: |2 v_phi| near omega_I(2 pi/3)
    vphi = tb.inflection_momentum(circle_domain, 2 * np.pi / 3) / 2.0
    v_am = np.array([np.sqrt(1 - vphi ** 2), vphi, 0.0])
    flags = tb.ring_membership(circle_domain, x, v_am, specs)
    assert flags[3]


def test_ring_membership_batched(circle_domain):
    x = np.array([2.0, 0.0, 0.0])
    v = np.array([[0.8, 0.0, 0.6], [0.0, 1.0, 0.0]])
    flags = tb.ring_membership(circle_domain, x, v,
                               [tb.RingSpec("perp", 0.05)])
    assert flags[0].tolist() == [True, False]


# -- bounce counting -------------------------------------------------------


def test_bounce_count_golden(circle_engine):
    x0 = np.array([3.0, 0.0, 0.0])
    v = np.array([-SQRT3 / 2, 0.5, 0.0])
    # interior launch: chord midpoint, half a chord back to the first bounce
    mid = x0 + 1.5 * SQRT3 * v
    n, capped = tb.bounce_count(circle_engine, mid, v, 1.5 * SQRT3)
    assert (n, capped) == (1, False)
    n, capped = tb.bounce_count(circle_engine, mid, v, 4.5 * SQRT3)
    assert (n, capped) == (2, False)
    # boundary launch whose backward ray exits at once: the zero-length
    # chord (sup-empty-set convention) counts as a bounce
    n, capped = tb.bounce_count(circle_engine, x0, v, 3 * SQRT3)
    assert (n, capped) == (2, False)
    n, capped = tb.bounce_count(circle_engine, x0, v, 3 * SQRT3,
                                max_bounces=1)
    assert capped


# -- recurrence residuals --------------------------------------------------


def test_recurrence_residuals_short_trajectory(circle_domain, circle_engine):
    traj = circle_engine.forward_cycles(
        tb.PhaseState([2.0, 0.0, 0.0], [1.0, 0.0, 0.0]), 1.5)
    assert tb.recurrence_residuals(circle_domain, traj) == []


def test_recurrence_residuals_gate(circle_domain, circle_engine):
    tau0 = 2 * np.pi / 3
    x = circle_domain.sigma(tau0, 0.0)
    n = circle_domain.grad_xi(x)
    u = (np.cos(np.pi / 3) * circle_domain.phi_hat(0.0)
         + np.sin(np.pi / 3) * circle_domain.meridian_tangent(tau0, 0.0))
    v = np.cos(0.01) * u - np.sin(0.01) * n
    traj = circle_engine.forward_cycles(tb.PhaseState(x, v, 0.0), 3.0,
                                        max_bounces=400)
    recs = tb.recurrence_residuals(circle_domain, traj, gate=0.1)
    assert len(recs) > 5
    for r in recs:
        assert abs(r["d_tau"]) < 0.1
        assert abs(r["d_phi"]) < 0.1
        assert np.isfinite(r["r1"]) and np.isfinite(r["r2"])


# -- bad-set measure -------------------------------------------------------


def test_sample_directions_deterministic():
    a = _sample_directions(11, 0, 64)
    b = _sample_directions(11, 0, 64)
    assert np.array_equal(a, b)
    c = _sample_directions(11, 1, 64)
    assert not np.allclose(a, c)
    assert np.allclose(np.linalg.norm(a, axis=1), 1.0, atol=1e-12)


@pytest.mark.parametrize("fixture,x,n,L,graze_threshold", [
    ("circle_domain", [2.0, 0.0, 0.0], 64, 8.0, DEFAULT_GRAZE_THRESHOLD),
    ("generic_circle_domain", [2.0, 0.0, 0.0], 32, 4.0,
     DEFAULT_GRAZE_THRESHOLD),
    ("ellipse_domain", [3.0, 0.0, 0.0], 8, 3.0, DEFAULT_GRAZE_THRESHOLD),
    # a wide threshold makes convex tangencies stop some of the runs
    ("circle_domain", [2.0, 0.0, 0.0], 64, 8.0, 0.6),
    ("generic_circle_domain", [2.0, 0.0, 0.0], 32, 4.0, 0.6),
    ("ellipse_domain", [3.0, 0.0, 0.0], 16, 3.0, 0.6)],
    ids=["quadric", "generic", "ellipse",
         "quadric-stopped", "generic-stopped", "ellipse-stopped"])
def test_tracer_matches_engine(request, fixture, x, n, L, graze_threshold):
    """The vectorized bad-set tracer must reproduce the honest engine's
    per-bounce minimum |n.v_hat| statistic and end every run where the
    engine ends it: both march by the domain's march rule and stop by
    graze_stop."""
    domain = request.getfixturevalue(fixture)
    engine = tb.BilliardEngine(domain, graze_threshold=graze_threshold)
    x = np.array(x)
    dirs = _sample_directions(3, 0, n)
    min_nd, bounces, stopped = _trace_min_graze(
        domain, x, dirs, L, graze_threshold=graze_threshold)
    assert bounces.sum() >= n
    if graze_threshold != DEFAULT_GRAZE_THRESHOLD:
        assert 0 < stopped.sum() < n
    for i in range(len(dirs)):
        traj = engine.backward_cycles(tb.PhaseState(x, dirs[i], 0.0), L)
        assert stopped[i] == (traj.status is not tb.TrajectoryStatus.COMPLETED)
        ref = min((abs(ev.normal_dot) for ev in traj.events), default=np.inf)
        assert min_nd[i] == pytest.approx(ref, abs=1e-12)
        assert bounces[i] == len(traj.events)


@pytest.mark.parametrize("fixture", ["circle_domain", "generic_circle_domain"])
def test_tracer_and_engine_catch_sub_step_blip(request, fixture):
    """A ray that cuts through the hole of the torus for less than one march
    step, with no march point outside: both tracers find the exit by the
    domain's blip test."""
    domain = request.getfixturevalue(fixture)
    engine = tb.BilliardEngine(domain)
    x = np.array([1.0 - 1e-4, -0.537, 0.0])
    v = np.array([0.0, 1.0, 0.0])
    blip = 2.0 * np.sqrt(1.0 - x[0] ** 2)     # chord through the hole
    assert blip < domain.march_step
    marched = x + np.arange(0.0, 0.6, domain.march_step)[:, None] * v
    assert np.all(domain.xi(marched) < 0.0)
    t, _ = engine.forward_exit(x, v)
    assert t == pytest.approx(0.522858, abs=1e-6)
    traj = engine.backward_cycles(tb.PhaseState(x, -v), 0.6)
    assert len(traj.events) == 1
    nd = abs(traj.events[0].normal_dot)
    assert nd == pytest.approx(0.0141418, abs=1e-7)
    min_nd, bounces, stopped = _trace_min_graze(domain, x, -v[None], 0.6)
    assert bounces[0] == 1 and not stopped[0]
    assert min_nd[0] == pytest.approx(nd, abs=1e-12)


def test_sub_step_blip_independent_of_length_budget(circle_domain):
    """Which near-tangential bounce a run sees depends on its ray, not on
    its length budget: the march points lie whole steps from the ray start.
    The ray leaves the inner equator at |n.w| = 1e-3 for 2e-3, less than
    step/32, and both tracers agree on its bounce count at every L."""
    domain = circle_domain
    engine = tb.BilliardEngine(domain)
    tau = domain.markers.lambda_star
    w = (np.sqrt(1.0 - 1e-6) * domain.phi_hat(0.0)
         + 1e-3 * domain.outward_normal(tau, 0.0))
    x, v = domain.sigma(tau, 0.0) - 0.3 * w, -w
    runs = []
    for L in (0.6, 2.0, 2.05, 2.1, 3.0):
        traj = engine.backward_cycles(tb.PhaseState(x, v), L)
        runs.append([(ev.x.tolist(), ev.t, ev.normal_dot)
                     for ev in traj.events])
        _, bounces, _ = _trace_min_graze(domain, x, v[None], L)
        assert bounces[0] == len(traj.events)
    assert all(r == runs[0] for r in runs)


# (domain fixture, base point, samples, L): the quadric, the generic circle
# and the arc-length ellipse
TRACER_CASES = [("circle_domain", [2.0, 0.0, 0.0], 256, 8.0),
                ("generic_circle_domain", [2.0, 0.0, 0.0], 64, 4.0),
                ("ellipse_domain", [3.0, 0.0, 0.0], 8, 3.0)]


@pytest.mark.parametrize("fixture,x,n,L", TRACER_CASES)
def test_tracer_matches_bisection_oracle(request, monkeypatch, fixture, x, n,
                                        L):
    """The Newton exit polish leaves the tracer's outputs where the 60-step
    bisection put them: same bounces and stops, min_nd to 1e-12."""
    domain = request.getfixturevalue(fixture)
    x = np.array(x)
    dirs = _sample_directions(5, 0, n)
    min_nd, bounces, stopped = _trace_min_graze(domain, x, dirs, L)
    monkeypatch.setattr(analysis, "_polish_exits", bisect_exits)
    ref_nd, ref_bounces, ref_stopped = _trace_min_graze(domain, x, dirs, L)
    assert np.array_equal(bounces, ref_bounces)
    assert np.array_equal(stopped, ref_stopped)
    assert bounces.sum() > n
    assert np.array_equal(np.isinf(min_nd), np.isinf(ref_nd))
    fin = np.isfinite(ref_nd)
    assert np.abs(min_nd[fin] - ref_nd[fin]).max() <= 1e-12


def test_tracer_matches_full_table_seed(generic_circle_domain, monkeypatch):
    """The coarse-to-fine nearest-point seed leaves the tracer's outputs on
    the benchmark's generic-circle scan inputs bit-identical."""
    x = np.array([2.0, 0.0, 0.0])
    dirs = _sample_directions(0, 0, 1024)
    got = _trace_min_graze(generic_circle_domain, x, dirs, 1.5)
    monkeypatch.setattr(tb.ToroidalDomain, "nearest_parameter",
                        nearest_parameter_full_table)
    want = _trace_min_graze(generic_circle_domain, x, dirs, 1.5)
    assert got[1].sum() > 0
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("fixture,x,n,L", TRACER_CASES + [
    ("generic_circle_domain", [2.0, 0.0, 0.0], 1024, 1.5)])
def test_tracer_march_matches_exact_xi(request, monkeypatch, fixture, x, n,
                                       L):
    """Certified march values leave the tracer's outputs bit-identical to a
    march on the exact indicator (the last case is the benchmark's
    generic-circle scan)."""
    domain = request.getfixturevalue(fixture)
    x = np.array(x)
    dirs = _sample_directions(0, 0, n)
    got = _trace_min_graze(domain, x, dirs, L)
    monkeypatch.setattr(tb.ToroidalDomain, "march_xi", tb.ToroidalDomain.xi)
    want = _trace_min_graze(domain, x, dirs, L)
    assert got[1].sum() > 0
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("fixture,x,n,L", TRACER_CASES + [
    ("circle_domain", [2.0, 0.0, 0.0], 1024, 10.0),
    ("generic_circle_domain", [2.0, 0.0, 0.0], 1024, 1.5),
    ("circle_domain", [3.0, 0.0, 0.0], 256, 5.0),
    ("circle_domain", [2.0, 0.0, 1.0], 256, 5.0)])
def test_tracer_jumps_match_step_by_step_march(request, monkeypatch, fixture,
                                              x, n, L):
    """Jumping over the march points a ray's last march value certifies as
    deep leaves the outputs bit-identical to the march that reads every
    point (the benchmark's two scan inputs and two boundary base points
    follow TRACER_CASES)."""
    domain = request.getfixturevalue(fixture)
    x = np.array(x)
    dirs = _sample_directions(0, 0, n)
    got = _trace_min_graze(domain, x, dirs, L)
    monkeypatch.setattr(domain, "march_xi",
                        functools.partial(clamped_march_xi, domain))
    want = _trace_min_graze(domain, x, dirs, L)
    assert got[1].sum() > 0
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("x,L,n,polish,march", [
    pytest.param([2.0, 0.0, 0.0], 10.0, 1024, 21, None, id="x0-10.0-21-None"),
    pytest.param([3.0, 0.0, 0.0], 5.0, 1024, 128, 216, id="x1-5.0-128-216"),
    pytest.param([2.0, 0.0, 0.0], 10.0, 2000, 22, 185, id="cli-2000")])
def test_tracer_work_counts(circle_engine, monkeypatch, x, L, n, polish,
                            march):
    """Calls of the tracer, of the exit polish and of march_xi on n quadric
    samples of seed 0, retired below 0.005 as the benchmark's CLI run
    retires them.  From the tube centre the pooled polish takes at most 21
    calls on 1,024 samples (72 when each march iteration polished its own
    exits); at the outer equator, where chords creep and are polished at
    once, both counts are those of the per-iteration polish.  The CLI's
    2,000 samples, two stream chunks, are one tracer batch: at most 22
    polish and 185 march_xi calls (2, 36 and 305 when each chunk was traced
    on its own)."""
    domain = circle_engine.domain
    calls = {"trace": 0, "polish": 0, "march": 0}

    def counted(name, fn):
        def wrap(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrap

    monkeypatch.setattr(analysis, "_trace_min_graze",
                        counted("trace", analysis._trace_min_graze))
    monkeypatch.setattr(analysis, "_polish_exits",
                        counted("polish", analysis._polish_exits))
    monkeypatch.setattr(domain, "march_xi", counted("march", domain.march_xi))
    analysis._trace_samples(circle_engine, np.array(x), L, n, 0, 0.005)
    assert calls["trace"] == 1
    if march is None:
        assert calls["polish"] <= polish
    elif n == 1024:
        assert (calls["polish"], calls["march"]) == (polish, march)
    else:
        assert calls["polish"] <= polish and calls["march"] <= march


def _trace_per_chunk(engine, x, L, n, seed, decided_below):
    """The samples of _trace_samples traced one stream chunk per tracer
    call."""
    chunks = []
    for c0 in range(0, n, analysis.BADSET_CHUNK):
        dirs = _sample_directions(seed, c0 // analysis.BADSET_CHUNK,
                                  min(analysis.BADSET_CHUNK, n - c0))
        chunks.append((dirs / np.linalg.norm(dirs, axis=1, keepdims=True),
                       *_trace_min_graze(
                           engine.domain, x, dirs, L,
                           max_bounces=engine.max_bounces,
                           graze_threshold=engine.graze_threshold,
                           decided_below=decided_below)))
    return tuple(np.concatenate(col) for col in zip(*chunks))


@pytest.mark.parametrize("decided_below", [0.0, 0.005])
@pytest.mark.parametrize("fixture,x,L", [
    ("circle_domain", [3.0, 0.0, 0.0], 2.0),
    ("generic_circle_domain", [2.0, 0.0, 0.0], 1.5)])
def test_trace_samples_independent_of_batch(request, monkeypatch, fixture, x,
                                            L, decided_below):
    """Across a batch boundary (BADSET_BATCH + 1 samples, five stream
    chunks), the batched samples equal those traced chunk by chunk, bit
    for bit, and so do batches of 1,000 rays, whose boundaries fall inside
    the chunks; a numpy integer count and seed are accepted.  A cap of 100
    bounces ends the creeping runs along the outer equator early."""
    engine = tb.BilliardEngine(request.getfixturevalue(fixture),
                               max_bounces=100)
    x = np.array(x)
    n = analysis.BADSET_BATCH + 1
    want = _trace_per_chunk(engine, x, L, n, 4, decided_below)
    assert want[2].sum() > 0
    for batch in (analysis.BADSET_BATCH, 1000):
        monkeypatch.setattr(analysis, "BADSET_BATCH", batch)
        got = analysis._trace_samples(engine, x, L, np.int64(n), np.int64(4),
                                      decided_below)
        assert len(got[0]) == n
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)


EPS = (0.02, 0.01, 0.005)


@pytest.mark.parametrize("x", [[3.0, 0.0, 0.0], [2.0, 0.0, 1.0]])
def test_badset_rows_unmoved_by_retired_samples(circle_engine, x):
    """A sample retired once its min_nd is below the smallest delta is bad
    in every row: fraction, ci95 and near_grazing equal those of full
    traces, and the exclusive stop and cap counts are those of the full
    traces' samples that are not near-grazing."""
    x = np.array(x)
    rows = tb.badset_scan(circle_engine, x, 0.0, EPS, 5.0, 512, 3)
    full = analysis._trace_samples(circle_engine, x, 5.0, 512, 3, 0.0)
    assert rows[-1]["near_grazing"] > 0
    for delta, row in zip(EPS, rows):
        assert row == analysis._badset_row(circle_engine, x, full, delta, ())


def _creep_rays(domain, per_tilt):
    """(x, v) of the creeping-ray sweep: per tilt, per_tilt points 1e-7
    inside the middle 70% of the inner region, each with a backward ray
    tilted inward from a random tangent direction."""
    rng = np.random.default_rng(0)
    m = domain.markers
    for tilt in np.geomspace(1e-5, 3e-2, 7):
        for _ in range(per_tilt):
            tau = m.tau1_star + m.inner_span * rng.uniform(0.15, 0.85)
            theta = rng.uniform(0.0, np.pi)
            n = domain.outward_normal(tau, 0.0)
            u = (np.cos(theta) * domain.meridian_tangent(tau, 0.0)
                 + np.sin(theta) * domain.phi_hat(0.0))
            w = np.cos(tilt) * u - np.sin(tilt) * n
            yield domain.sigma(tau, 0.0) - 1e-7 * n, -w


@pytest.mark.parametrize("fixture,per_tilt,picks", [
    ("generic_circle_domain", 12, (16, 25)),
    ("ellipse_domain", 3, (10, 13)),
])
def test_tracer_follows_engine_on_creeping_rays(request, fixture, per_tilt,
                                                picks):
    """Rays that creep along the inner wall at |n.v| of 1e-4 to 2e-3: the
    tracer gives the engine's bounce count, stop and min |n.v| (a normal
    from the foot offset used to reflect them onto other chords)."""
    domain = request.getfixturevalue(fixture)
    engine = tb.BilliardEngine(domain)
    rays = list(_creep_rays(domain, per_tilt))
    L = 0.05
    for i in picks:
        x, v = rays[i]
        traj = engine.backward_cycles(tb.PhaseState(x, v), L)
        min_nd, bounces, stopped = _trace_min_graze(domain, x, v[None], L)
        assert bounces[0] == len(traj.events) > 0
        assert stopped[0] == (traj.status is not
                              tb.TrajectoryStatus.COMPLETED)
        ref = min(abs(ev.normal_dot) for ev in traj.events)
        assert abs(min_nd[0] - ref) <= 1e-10


def test_badset_accepts_boundary_base_point(circle_engine, circle_domain):
    """A base point whose xi rounds to just above 0 is a boundary start, as
    in the engine; the tracer follows the engine from it."""
    taus = np.linspace(0.0, TWO_PI, 40, endpoint=False)
    xs = [circle_domain.sigma(t, 0.3) for t in taus]
    assert max(float(circle_domain.xi(x)) for x in xs) > 0.0
    dirs = _sample_directions(3, 0, 8)
    for x in xs:
        rows = tb.badset_scan(circle_engine, x, 0.3, [0.05], 1.0, 8, 3)
        assert rows[0]["max_bounces"] == 0
    min_nd, bounces, _ = _trace_min_graze(circle_domain, xs[12], dirs, 1.0)
    for i, d in enumerate(dirs):
        traj = circle_engine.backward_cycles(tb.PhaseState(xs[12], d), 1.0)
        assert bounces[i] == len(traj.events)
        if traj.events:
            ref = min(abs(ev.normal_dot) for ev in traj.events)
            assert abs(min_nd[i] - ref) <= 1e-10


@pytest.mark.parametrize("fixture,off", [
    ("circle_domain", 2.5e-10),   # the quadric's xi is 2 r times the distance
    ("generic_circle_domain", 5e-10),
    ("ellipse_domain", 5e-10),
])
def test_tracer_follows_engine_from_boundary_band(request, fixture, off):
    """A base point outside by more than XI_ROOT_TOL but within
    BOUNDARY_BAND is a boundary start: a ray that leaves it at once bounces
    in place, as in the engine, where the exit polish used to stall on a
    bracket with xi > 0 throughout."""
    domain = request.getfixturevalue(fixture)
    engine = tb.BilliardEngine(domain)
    x = domain.sigma(0.1, 0.4) + off * domain.outward_normal(0.1, 0.4)
    assert XI_ROOT_TOL < float(domain.xi(x)) <= BOUNDARY_BAND
    n = 12 if fixture == "ellipse_domain" else 32
    rows = tb.badset_scan(engine, x, 0.4, [0.05], 1.0, n, 5)
    assert rows[0]["max_bounces"] == 0
    dirs = _sample_directions(5, 0, n)
    min_nd, bounces, stopped = _trace_min_graze(domain, x, dirs, 1.0)
    for i, d in enumerate(dirs):
        traj = engine.backward_cycles(tb.PhaseState(x, d), 1.0)
        assert bounces[i] == len(traj.events)
        assert stopped[i] == (traj.status is not
                              tb.TrajectoryStatus.COMPLETED)
        if traj.events:
            ref = min(abs(ev.normal_dot) for ev in traj.events)
            assert abs(min_nd[i] - ref) <= 1e-10


@pytest.mark.parametrize("fixture", ["circle_domain",
                                     "generic_circle_domain"])
def test_tracer_stops_tangential_start_as_engine(request, fixture):
    """A ray tangent to a convex wall at the base point stops before it
    moves, in the tracer as in the engine: no bounce is counted."""
    domain = request.getfixturevalue(fixture)
    engine = tb.BilliardEngine(domain)
    x = np.array([3.0, 0.0, 0.0])
    dirs = np.array([[0.0, 1.0, 0.0], [0.0, 0.6, 0.8], [0.0, -0.8, 0.6]])
    min_nd, bounces, stopped = _trace_min_graze(domain, x, dirs, 1.0)
    assert np.all(np.isinf(min_nd)) and np.all(stopped)
    for i, d in enumerate(dirs):
        traj = engine.backward_cycles(tb.PhaseState(x, d), 1.0)
        assert traj.status is tb.TrajectoryStatus.STUCK_CONVEX_GRAZING
        assert bounces[i] == len(traj.events) == 0


def _exit_brackets(domain, base, dirs, h=0.05, m=120):
    """(lo, hi) grid brackets of the first exit along each ray."""
    s = h * np.arange(m + 1)
    lo, hi = [], []
    for b, w in zip(base, dirs):
        k = int(np.argmax(domain.xi(b + s[:, None] * w) > 0.0))
        assert k > 0
        lo.append(s[k - 1])
        hi.append(s[k])
    return np.array(lo), np.array(hi)


@pytest.mark.parametrize("fixture,x", [
    ("circle_domain", [2.0, 0.0, 0.0]), ("ellipse_domain", [3.0, 0.0, 0.0]),
    ("generic_circle_domain", [2.0, 0.0, 0.0])])
def test_polish_exits_matches_engine_refine_root(request, fixture, x):
    """The batched polish stays within 1e-12 of the engine's, and each
    root is bit-identical however the batch is made up (each row alone, the
    batch reversed): the tracer pools brackets of different march
    iterations into one batch on this property."""
    domain = request.getfixturevalue(fixture)
    engine = tb.BilliardEngine(domain)
    dirs = _sample_directions(9, 0, 24)
    base = np.tile(x, (len(dirs), 1))
    # one shallow exit (|n.w| of a few hundredths) just below the top of
    # the tube
    top = domain.profile.eval(domain.markers.tau1_star)
    base = np.vstack([base, [top[0], 0.0, top[1] - 1e-3]])
    dirs = np.vstack([dirs, [1.0, 0.0, 0.0]])
    lo, hi = _exit_brackets(domain, base, dirs)
    got = analysis._polish_exits(domain, base, dirs, lo, hi)
    ref = np.array([engine._refine_root(b, w, a, c)
                    for b, w, a, c in zip(base, dirs, lo, hi)])
    assert np.abs(got - ref).max() <= 1e-12
    assert np.abs(domain.xi(base + got[:, None] * dirs)).max() <= XI_ROOT_TOL
    alone = [analysis._polish_exits(domain, base[i:i + 1], dirs[i:i + 1],
                                    lo[i:i + 1], hi[i:i + 1])[0]
             for i in range(len(got))]
    assert np.array_equal(got, alone)
    rev = analysis._polish_exits(domain, base[::-1], dirs[::-1], lo[::-1],
                                 hi[::-1])
    assert np.array_equal(got, rev[::-1])


def test_polish_exits_raises_without_root(circle_domain):
    base = np.array([[4.0, 0.0, 0.0]])   # outside: no root on the bracket
    w = np.array([[1.0, 0.0, 0.0]])
    with pytest.raises(tb.NumericsError):
        analysis._polish_exits(circle_domain, base, w, [0.0], [1.0])


def test_badset_measure_deterministic(circle_engine):
    kw = dict(x=[2.0, 0.0, 0.0], phi=0.0, eps_graze=0.05, L=5.0,
              n_samples=1500, seed=7)
    a = tb.badset_measure(circle_engine, **kw)
    b = tb.badset_measure(circle_engine, **kw)
    assert a.fraction == b.fraction
    assert a.breakdown == b.breakdown
    assert 0.0 <= a.fraction <= 1.0
    assert a.ci95 > 0.0
    assert set(a.breakdown) == {"near_grazing", "ring_excluded",
                                "stopped_at_inflection", "max_bounces"}


def test_badset_measure_ring_exclusions_increase_fraction(circle_engine):
    kw = dict(x=[2.0, 0.0, 0.0], phi=0.0, eps_graze=0.02, L=5.0,
              n_samples=1500, seed=7)
    plain = tb.badset_measure(circle_engine, **kw)
    ringed = tb.badset_measure(
        circle_engine, ring_specs=[tb.RingSpec("perp", 0.05)], **kw)
    assert ringed.fraction > plain.fraction
    assert ringed.breakdown["ring_excluded"] > 0


def test_badset_scan_monotone(circle_engine):
    rows = tb.badset_scan(circle_engine, [2.0, 0.0, 0.0], 0.0,
                          [0.1, 0.05], 5.0, 1500, 7,
                          ring_kinds=("perp",))
    assert rows[0]["fraction"] >= rows[1]["fraction"]
    assert rows[0]["near_grazing"] >= rows[1]["near_grazing"]


@pytest.mark.parametrize("ring_kinds", [(), ("perp", "angular-momentum")])
def test_badset_scan_rows_match_measure(circle_engine, ring_kinds):
    x, tau_ref = [2.6, 0.0, 0.4], 2 * np.pi / 3
    deltas = [0.3, 0.1, 0.02]
    rows = tb.badset_scan(circle_engine, x, 0.0, deltas, 5.0, 1100, 3,
                          ring_kinds=ring_kinds, tau_ref=tau_ref)
    assert [r["delta"] for r in rows] == deltas
    assert rows[0]["near_grazing"] > 0
    for d, row in zip(deltas, rows):
        specs = [tb.RingSpec(k, d, tau_ref if k == "angular-momentum"
                             else None) for k in ring_kinds]
        rep = tb.badset_measure(circle_engine, x, 0.0, d, 5.0, 1100, 3,
                                ring_specs=specs)
        assert row["fraction"] == rep.fraction
        assert row["ci95"] == rep.ci95
        assert {k: row[k] for k in rep.breakdown} == rep.breakdown
        assert (row["ring_excluded"] > 0) == bool(ring_kinds)


def test_badset_scan_counts_capped_samples(circle_domain):
    engine = tb.BilliardEngine(circle_domain, max_bounces=3)
    # no chord of the torus is longer than 6, so every run of length 20
    # reaches the cap
    rows = tb.badset_scan(engine, [2.0, 0.0, 0.0], 0.0, [1e-9],
                          20.0, 200, 1)
    row = rows[0]
    assert row["near_grazing"] == 0
    assert row["max_bounces"] == 200
    assert row["fraction"] == 1.0


def _never(*args, **kwargs):
    raise AssertionError("traced before the inputs were checked")


@pytest.mark.parametrize("deltas,ring_kinds,tau_ref", [
    ([0.01, -1.0], (), None),
    ([0.01, np.nan], (), None),
    ([0.01], ("bogus",), None),
    ([0.01], ("angular-momentum",), None),
    ([0.01], ("angular-momentum",), 0.0),   # outer region: no inflection
    ([], (), None),     # was traced in full, then returned no row
], ids=["negative", "nan", "unknown-ring", "no-tau-ref", "outer-tau-ref",
        "empty"])
def test_badset_scan_checks_rows_before_tracing(circle_engine, monkeypatch,
                                                deltas, ring_kinds, tau_ref):
    monkeypatch.setattr(analysis, "_trace_min_graze", _never)
    with pytest.raises((ValueError, tb.UndefinedInflectionError)):
        tb.badset_scan(circle_engine, [2.0, 0.0, 0.0], 0.0, deltas, 10.0,
                       20_000, 0, ring_kinds=ring_kinds, tau_ref=tau_ref)


@pytest.mark.parametrize("eps,specs", [
    (-1.0, ()),
    (0.01, (tb.RingSpec("angular-momentum", 0.01, 0.0),)),
], ids=["negative", "outer-tau-ref"])
def test_badset_measure_checks_row_before_tracing(circle_engine, monkeypatch,
                                                  eps, specs):
    monkeypatch.setattr(analysis, "_trace_min_graze", _never)
    with pytest.raises((ValueError, tb.UndefinedInflectionError)):
        tb.badset_measure(circle_engine, [2.0, 0.0, 0.0], 0.0, eps, 10.0,
                          20_000, 0, ring_specs=specs)


def test_badset_scan_rejects_speed_band(circle_engine):
    with pytest.raises(ValueError):
        tb.badset_scan(circle_engine, [2.0, 0.0, 0.0], 0.0, [0.1], 1.0, 8, 0,
                       (0.5, 3.0))


INVALID_INPUTS = [
    ([9.0, 0.0, 0.0], 4.0, 0.05),        # base point outside the domain
    ([np.nan, 0.0, 0.0], 4.0, 0.05),
    ([2.0, 0.0, 0.0], np.nan, 0.05),
    ([2.0, 0.0, 0.0], 0.0, 0.05),
    ([2.0, 0.0, 0.0], 4.0, -1.0),
    ([2.0, 0.0, 0.0], 4.0, np.inf),
    ([2.0, 0.0, 0.0], 4.0, 1.0),         # every bounce near grazing
]
# sample counts and seeds that are not integers in range: a float was
# truncated (2.7 traced 2 samples, seed 1.5 ran as seed 1), "16" traced 16
# and True traced 1
INVALID_COUNTS = [(2.7, 0), (3.9, 0), ("16", 0), (True, 0), (0, 0),
                  (16, 1.5), (16, -1), (16, True), (16, "0")]


@pytest.mark.parametrize("x,L,delta,n,seed", [
    pytest.param(x, L, delta, 16, 0, id=f"x{i}-{L}-{delta}")
    for i, (x, L, delta) in enumerate(INVALID_INPUTS)] + [
    pytest.param([2.0, 0.0, 0.0], 1.0, 0.1, n, seed, id=f"n{n!r}-seed{seed!r}")
    for n, seed in INVALID_COUNTS])
def test_badset_rejects_invalid_inputs(circle_engine, x, L, delta, n, seed):
    with pytest.raises(ValueError):
        tb.badset_scan(circle_engine, x, 0.0, [delta], L, n, seed)
    with pytest.raises(ValueError):
        tb.badset_measure(circle_engine, x, 0.0, delta, L, n, seed)


# -- Jacobians -------------------------------------------------------------


def test_jacobian_free_flight(circle_engine):
    res = tb.jacobian_det(circle_engine, 1.0, [2.0, 0.0, 0.0],
                          [0.3, 0.2, 0.1], -1.0)
    assert abs(res.det) == pytest.approx(8.0, rel=1e-6)   # (t-s)^3 = 2^3
    assert res.det < 0.0
    assert res.rel_spread < 1e-6
    res = tb.jacobian_det(circle_engine, 0.5, [2.0, 0.0, 0.0],
                          [0.3, 0.2, 0.1], 0.0)
    assert abs(res.det) == pytest.approx(0.125, rel=1e-6)


def test_jacobian_validation(circle_engine):
    with pytest.raises(ValueError):
        tb.jacobian_det(circle_engine, 0.0, [2.0, 0.0, 0.0],
                        [1.0, 0.0, 0.0], 1.0)   # s >= t
    # s too close to a bounce time of the base trajectory (bounce at -0.5)
    with pytest.raises(ValueError):
        tb.jacobian_det(circle_engine, 1.0, [2.5, 0.0, 0.0],
                        [1.0, 0.0, 0.0], -0.5 - 1e-6)


def test_jacobian_nonsmooth_at_grazing(circle_engine):
    # backward ray from the outer equator grazing the torus hole: the
    # perturbed rays straddle clipping the inner wall
    a = np.arcsin(1.0 / 3.0)
    v = np.array([np.cos(a), np.sin(a), 0.0])
    with pytest.raises(tb.NonSmoothPointError):
        tb.jacobian_det(circle_engine, 1.0, [3.0, 0.0, 0.0], v, -2.0)


# -- specular basis --------------------------------------------------------


def test_specular_basis(circle_domain):
    rng = np.random.default_rng(6)
    for x, v in random_interior_states(rng, 10):
        e0, e1, e2 = tb.specular_basis(circle_domain, x, v)
        M = np.stack([e0, e1, e2])
        assert np.allclose(M @ M.T, np.eye(3), atol=1e-12)
        assert np.allclose(e0, v / np.linalg.norm(v), atol=1e-12)
        assert np.linalg.det(M) == pytest.approx(1.0, abs=1e-12)


def test_specular_basis_degenerate(circle_domain):
    with pytest.raises(tb.DegenerateBasisError):
        tb.specular_basis(circle_domain, [2.0, 0.0, 0.0], [0.0, 1.0, 0.0])
