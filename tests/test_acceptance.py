"""End-to-end acceptance suite on the circle torus (R = 2, r = 1).

Each test pins one property of the full stack: conservation, reflection
algebra, reversibility, a closed golden orbit, rotational equivariance,
inflection geometry, the Z_h marker, Euler's curvature formula, Jacobian
determinants, bad-set scaling, recurrence diagnostics, the curvilinear-chart
identity suite, and byte-level determinism of the batch front end.
"""

import json
import time

import numpy as np
import pytest

import torus_billiards as tb
from torus_billiards.curves import zero_set_h
from torus_billiards.cli import main as cli_main
from torus_billiards.engine import TrajectoryStatus
from torus_billiards.orthochart import OrthoChart

from oracles import normal_curvature_from_indicator, tube_hessian

from conftest import random_interior_states

TWO_PI = 2.0 * np.pi
SQRT3 = np.sqrt(3.0)


def test_01_conservation_64x200(circle_engine):
    rng = np.random.default_rng(5)
    states = random_interior_states(rng, 64)
    # process time: the runtime budget should gate the work done, not
    # scheduler noise from whatever else shares the host
    t0 = time.process_time()
    for x, v in states:
        traj = circle_engine.forward_cycles(tb.PhaseState(x, v, 0.0), 1e9,
                                            max_bounces=200)
        assert len(traj.events) == 200
        assert traj.diagnostics["speed_drift"] < 1e-9
        assert traj.diagnostics["omega_drift"] < 1e-8
    elapsed = time.process_time() - t0
    assert elapsed < 5.0, f"64 x 200 bounces took {elapsed:.2f} s"


def test_02_reflection_algebra(circle_domain, generic_circle_domain,
                               ellipse_domain):
    rng = np.random.default_rng(2)
    for domain, count in ((circle_domain, 10_000),
                          (generic_circle_domain, 500), (ellipse_domain, 200)):
        engine = tb.BilliardEngine(domain)
        taus = rng.uniform(*domain.profile.period, count)
        phis = rng.uniform(0, TWO_PI, count)
        vs = rng.standard_normal((count, 3))
        vs /= np.linalg.norm(vs, axis=1, keepdims=True)
        worst_inv = worst_norm = worst_tan = 0.0
        for tau, phi, v in zip(taus, phis, vs):
            x = domain.sigma(tau, phi)
            n = domain.grad_xi(x)
            rv = engine.reflect(x, v)
            rrv = engine.reflect(x, rv)
            worst_inv = max(worst_inv, float(np.abs(rrv - v).max()))
            worst_norm = max(worst_norm, abs(float(n @ rv) + float(n @ v)))
            t_in = v - float(n @ v) * n
            t_out = rv - float(n @ rv) * n
            worst_tan = max(worst_tan, float(np.abs(t_out - t_in).max()))
        assert worst_inv < 1e-14
        assert worst_norm < 1e-14
        assert worst_tan < 1e-14


def test_03_reversibility_1000_states(circle_engine):
    rng = np.random.default_rng(3)
    worst = 0.0
    for x, v in random_interior_states(rng, 1000):
        fw = circle_engine.forward_cycles(tb.PhaseState(x, v, 0.0), 1e9,
                                          max_bounces=10)
        assert fw.status is TrajectoryStatus.MAX_BOUNCES_REACHED
        bk = circle_engine.backward_cycles(
            tb.PhaseState(fw.end_state.x, fw.end_state.v, fw.end_state.t),
            fw.total_length)
        worst = max(worst,
                    float(np.abs(bk.end_state.x - x).max()),
                    float(np.abs(bk.end_state.v - v).max()))
    assert worst < 1e-6, f"worst reversal error {worst:.3e}"


def test_04_golden_orbit(circle_engine):
    st = tb.PhaseState([3.0, 0.0, 0.0], [-SQRT3 / 2, 0.5, 0.0])
    traj = circle_engine.forward_cycles(st, 9 * SQRT3)
    assert traj.status is TrajectoryStatus.COMPLETED
    assert len(traj.events) == 3
    for k, ev in enumerate(traj.events, start=1):
        assert ev.phi == pytest.approx(k * TWO_PI / 3, abs=1e-9)
        assert ev.t == pytest.approx(k * 3 * SQRT3, abs=1e-9)
    assert traj.winding == pytest.approx(1.0, abs=1e-9)
    # the orbit closes on the start point one revolution later
    assert np.allclose(traj.end_state.x, st.x, atol=1e-9)
    assert np.allclose(traj.end_state.v, st.v, atol=1e-9)


def test_05_rotational_equivariance(circle_engine, generic_circle_domain,
                                    ellipse_domain):
    rng = np.random.default_rng(4)
    for engine, count in ((circle_engine, 100),
                          (tb.BilliardEngine(generic_circle_domain), 6),
                          (tb.BilliardEngine(ellipse_domain), 4)):
        pairs = random_interior_states(rng, count)
        dphis = rng.uniform(-TWO_PI, TWO_PI, count)
        for (x, v), dphi in zip(pairs, dphis):
            R = tb.rotation_z(dphi)
            a = engine.forward_cycles(tb.PhaseState(x, v, 0.0), 8.0)
            b = engine.forward_cycles(tb.PhaseState(R @ x, R @ v, 0.0), 8.0)
            assert len(a.events) == len(b.events)
            for ea, eb in zip(a.events, b.events):
                assert abs(ea.t - eb.t) < 1e-9
                assert np.abs(R @ ea.x - eb.x).max() < 1e-9
                assert np.abs(R @ ea.v_out - eb.v_out).max() < 1e-9
            assert np.abs(R @ a.end_state.x - b.end_state.x).max() < 1e-9
            assert np.abs(R @ a.end_state.v - b.end_state.v).max() < 1e-9


def test_06_inflection_angle_and_sign_ladder(circle_domain):
    tau = 2 * np.pi / 3
    d = tb.inflection_directions(circle_domain, tau, 0.0)
    # closed form: tan(theta) = sqrt(|gamma2'| / (kappa gamma1)) = 1/sqrt(3)
    assert d.theta == pytest.approx(np.pi / 6, abs=1e-12)
    assert float(tb.inflection_angle(circle_domain, tau)) == \
        pytest.approx(np.pi / 6, abs=1e-12)
    x = circle_domain.sigma(tau, 0.0)
    radius = 1.0 / circle_domain.max_curvature
    for s in (1e-2, 5e-3, 2.5e-3):
        assert float(circle_domain.xi(x + s * radius * d.I1)) > 0.0
        assert float(circle_domain.xi(x - s * radius * d.I1)) < 0.0


def test_07_z_h_single_zero(circle_domain):
    zeros = circle_domain.markers.z_h_zeros
    assert len(zeros) == 1
    assert zeros[0] == pytest.approx(np.pi, abs=1e-8)
    doubled = zero_set_h(circle_domain.profile, circle_domain.markers,
                         n_grid=8192)
    assert len(doubled) == 1
    assert doubled[0] == pytest.approx(np.pi, abs=1e-8)


def test_08_euler_formula_oracle(circle_domain):
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(1000):
        tau = rng.uniform(0, TWO_PI)
        phi = rng.uniform(0, TWO_PI)
        theta = rng.uniform(0, TWO_PI)
        w = (np.cos(theta) * circle_domain.phi_hat(phi)
             + np.sin(theta) * circle_domain.meridian_tangent(tau, phi))
        a = tb.normal_curvature(circle_domain, tau, phi, w)
        b = normal_curvature_from_indicator(circle_domain, tau, phi, w,
                                            tube_hessian)
        worst = max(worst, abs(a - b))
    assert worst < 1e-7


def test_09_jacobian(circle_engine):
    # free flight: |det dX/dv| = (t - s)^3
    res = tb.jacobian_det(circle_engine, 1.0, [2.0, 0.0, 0.0],
                          [0.3, 0.2, 0.1], -1.0, h=1e-5)
    assert abs(res.det) == pytest.approx(8.0, rel=1e-6)
    # one-bounce planar case: Richardson-consistent
    res = tb.jacobian_det(circle_engine, 1.0, [2.5, 0.0, 0.0],
                          [1.0, 0.0, 0.0], -1.0, h=1e-5)
    assert res.rel_spread < 1e-4
    # grazing the torus hole: perturbed bounce counts differ
    a = np.arcsin(1.0 / 3.0)
    v = np.array([np.cos(a), np.sin(a), 0.0])
    with pytest.raises(tb.NonSmoothPointError):
        tb.jacobian_det(circle_engine, 1.0, [3.0, 0.0, 0.0], v, -2.0)


def test_10_badset_scaling(circle_engine):
    deltas = [0.02, 0.01, 0.005]
    t0 = time.process_time()
    rows = tb.badset_scan(
        circle_engine, [2.0, 0.0, 0.0], 0.0, deltas, 10.0, 100_000,
        seed=20260824,
        ring_kinds=("perp", "azimuth-aligned", "symmetric",
                    "angular-momentum"),
        tau_ref=2 * np.pi / 3)
    elapsed = time.process_time() - t0
    assert elapsed < 60.0, f"bad-set scan took {elapsed:.1f} s"
    fractions = [r["fraction"] for r in rows]
    assert all(f > 0 for f in fractions)
    slope = np.polyfit(np.log(deltas), np.log(fractions), 1)[0]
    assert 0.7 <= slope <= 1.3, f"log-log slope {slope:.3f}"


def test_11_recurrence_bounded_under_refinement(circle_domain, circle_engine):
    tau0 = 2 * np.pi / 3
    x = circle_domain.sigma(tau0, 0.0)
    n = circle_domain.grad_xi(x)
    u = (np.cos(np.pi / 3) * circle_domain.phi_hat(0.0)
         + np.sin(np.pi / 3) * circle_domain.meridian_tangent(tau0, 0.0))
    r1_max, r2_max = [], []
    for level in range(4):
        tilt = 0.02 / 2 ** level
        v = np.cos(tilt) * u - np.sin(tilt) * n
        traj = circle_engine.forward_cycles(tb.PhaseState(x, v, 0.0), 3.0,
                                            max_bounces=400)
        recs = tb.recurrence_residuals(circle_domain, traj)
        assert len(recs) >= 5
        r1_max.append(max(r["r1"] for r in recs))
        r2_max.append(max(r["r2"] for r in recs))
    for series in (r1_max, r2_max):
        assert max(series) <= 10.0 * series[0], series


def test_12_appendix_identities():
    chart = OrthoChart()
    t0 = time.process_time()
    res = tb.identity_suite(chart)
    elapsed = time.process_time() - t0
    assert elapsed < 1.0
    assert res["christoffel_antisymmetry"] == 0.0
    assert res["frame_orthonormality"] < 1e-12
    assert res["commutator"] < 1e-6
    assert res["laplace_beltrami"] < 1e-6
    assert res["dv_identity"] < 1e-6
    assert res["zeta"] < 1e-12
    assert res["christoffel_generic_match"] < 1e-6
    # convergence order of the stencils: fourth order in the step
    x = np.array([1.0, 2.0, 2.1])
    u = lambda p: np.sin(5.0 * p[2]) * np.cos(3.0 * p[0])
    exact = 5.0 * np.cos(5.0 * x[2]) * np.cos(3.0 * x[0])
    errs = [abs(chart.d_operator(3, u, x, st) - exact)
            for st in (8e-3, 4e-3, 2e-3)]
    assert 12.0 < errs[0] / errs[1] < 20.0
    assert 12.0 < errs[1] / errs[2] < 20.0


def test_13_badset_cli_determinism(tmp_path):
    argv = ["badset", "--x", "2,0,0", "--eps", "0.02,0.01",
            "--length", "5", "--samples", "2000"]
    out1, out2 = tmp_path / "run1.csv", tmp_path / "run2.csv"
    assert cli_main(["--out", str(out1)] + argv) == 0
    assert cli_main(["--out", str(out2)] + argv) == 0
    assert out1.read_bytes() == out2.read_bytes()
