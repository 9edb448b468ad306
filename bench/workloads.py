"""Benchmark workloads: seeded inputs, timed operations and output checks.

Every workload runs the same six parts, each sized to its share of the run:

- orbits  (a) interior orbits, ``forward_cycles`` up to a fixed bounce cap;
- creep   (b) near-tangential "creeping" orbits from an inner-region
          boundary point, many short chords per orbit;
- launch  (c) tangential launches with known stop statuses;
- sweep   (d) ``grazing.classify`` plus ``grazing.normal_curvature`` over a
          jittered (tau, theta) grid, as the ``classify-boundary`` command;
- cli     the ``badset`` command run in-process through ``cli.main``;
- scan    one ``badset_scan`` call with three deltas and all ring kinds.

A workload chooses the domain of each part and how much of the run each
part gets, so that one layer of the package does most of its work.  The
program sees only inputs drawn from ``np.random.default_rng([seed, ...])``.
Checks use oracles that a correct optimisation keeps: conservation laws,
reversal over a few bounces, a closed orbit, stop statuses, sign rules,
agreement between the quadric and the generic indicator over a few bounces,
and the tracer against the engine.  Long chaotic orbits are never compared
point by point.
"""

from __future__ import annotations

import contextlib
import math
import os
import re
import time

import numpy as np

import torus_billiards as tb
from torus_billiards import analysis, cli, grazing
from torus_billiards.engine import TrajectoryStatus
from torus_billiards.errors import TorusBilliardsError

from hostspeed import Speedometer

TWO_PI = 2.0 * math.pi
EPS = (0.02, 0.01, 0.005)
RING_KINDS = ("perp", "azimuth-aligned", "symmetric", "angular-momentum")
BASE_POINT = (2.0, 0.0, 0.0)          # centre line of the circle tube

# tolerances taken from the package's own tests
SPEED_DRIFT_TOL = 1e-9                 # test_01
OMEGA_DRIFT_TOL = 1e-8                 # test_01
REVERSAL_TOL = 1e-6                    # test_03
REVERSAL_BOUNCES = 10                  # test_03
GOLDEN_TOL = 1e-9                      # test_04
COMPARE_TOL = 1e-9                     # quadric vs generic circle
COMPARE_BOUNCES = 10                   # chaotic orbits separate beyond this
KAPPA_SIGN_TOL = 1e-9                  # round-off of kappa_n at convex rows
TRACER_TOL = 1e-8                      # test_tracer_matches_engine
TRACER_LENGTH = 8.0                    # test_tracer_matches_engine
LAUNCH_LENGTH = 5.0                    # test_inflection_stops
CREEP_LENGTH = 3.0                     # test_11

WORKLOADS = {
    # Closed-form indicator: the engine's per-bounce Python path dominates.
    "scalar-quadric": dict(
        scalar="quadric", orbit_cap=200, creep_cap=400, compare_orbits=0,
        n_tau=32, n_theta=16, cli_samples=300, cli_length=10.0,
        scan_domain="quadric", scan_samples=1024, scan_length=10.0,
        tracer_domains=("quadric",), tracer_samples=16,
        shares=dict(orbits=0.4, creep=0.15, sweep=0.13, cli=0.22, scan=0.1),
        trace_ops=dict(orbits=12, creep=3, compare=0, launches=2, sweep=4,
                       cli=1, scan=1)),
    # Arc-length ellipse: every xi is a Newton solve on a solve_ivp profile.
    "scalar-generic": dict(
        scalar="ellipse", orbit_cap=3, creep_cap=8, compare_orbits=5,
        n_tau=8, n_theta=8, cli_samples=300, cli_length=10.0,
        scan_domain="generic-circle", scan_samples=256, scan_length=1.5,
        tracer_domains=(), tracer_samples=0,
        shares=dict(orbits=0.3, creep=0.12, compare=0.05, sweep=0.18, cli=0.15,
                    scan=0.2),
        trace_ops=dict(orbits=3, creep=1, compare=1, launches=1, sweep=1,
                       cli=1, scan=1)),
    # Batched (n, 3) indicator calls from the vectorized bad-set tracer.
    "badset": dict(
        scalar="quadric", orbit_cap=200, creep_cap=400, compare_orbits=0,
        n_tau=32, n_theta=16, cli_samples=2000, cli_length=10.0,
        scan_domain="generic-circle", scan_samples=1024, scan_length=1.5,
        tracer_domains=("quadric", "generic-circle"), tracer_samples=6,
        shares=dict(orbits=0.12, creep=0.04, sweep=0.05, cli=0.26, scan=0.53),
        trace_ops=dict(orbits=6, creep=1, compare=0, launches=1, sweep=2,
                       cli=1, scan=1)),
}


def build_domain(kind):
    if kind == "quadric":
        return tb.CircleTorusDomain(2.0, 1.0)
    if kind == "generic-circle":
        return tb.ToroidalDomain(tb.circle_generator(2.0, 1.0))
    if kind == "ellipse":
        return tb.ToroidalDomain(tb.ellipse_generator(3.0, 2.0, 1.0))
    raise ValueError(f"unknown domain kind {kind!r}")


def _ci95(frac, n):
    return 1.96 * math.sqrt(max(frac * (1.0 - frac), 1.0 / n) / n)


def tail_percentile(values):
    """(value, percentile): the highest percentile with >= 10 values beyond it."""
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


class Workload:
    """One workload in one process: set-up, timed parts, checks."""

    def __init__(self, name, seed, out_dir):
        self.name = name
        self.cfg = WORKLOADS[name]
        self.seed = int(seed)
        self.out_dir = out_dir
        self.checks = {}          # name -> None (passed) or first failure
        self.failures = []        # (op, message) of operations that failed
        self.attempted = 0
        self.ambiguous = 0
        self.phases = 0
        self.ci95_repr = False
        self.cli_outputs = []
        self.scan_rows = None
        self.tracer = None        # set by the traced run
        self.verify = True        # run reference computations inside parts

    # -- set-up -----------------------------------------------------------

    def build(self):
        """Build every domain and engine the workload uses."""
        cfg = self.cfg
        kinds = {cfg["scalar"], cfg["scan_domain"], "quadric",
                 *cfg["tracer_domains"]}
        if cfg["compare_orbits"]:
            kinds.add("generic-circle")
        self.domains = {k: build_domain(k) for k in sorted(kinds)}
        self.engines = {k: tb.BilliardEngine(d) for k, d in self.domains.items()}

    def setup(self):
        """Build, then make the first calls of every part.

        First calls load lazily imported code and fill the caches of numpy
        and scipy; their cost belongs to set-up, not to the timed parts.
        """
        self.build()
        cfg = self.cfg
        x, v = self.interior_state(cfg["scalar"], -1)
        self.engines[cfg["scalar"]].forward_cycles(tb.PhaseState(x, v), 1e9,
                                                   max_bounces=2)
        taus, thetas, _ = self.sweep_grid(-1)
        self._sweep_row(self.domains[cfg["scalar"]], taus, thetas, 0)
        tb.badset_scan(self.engines[cfg["scan_domain"]], BASE_POINT, 0.0, EPS,
                       0.5, 8, seed=0)

    @contextlib.contextmanager
    def untraced(self):
        """Input preparation: calls into the package are not recorded."""
        if self.tracer is None:
            yield
            return
        self.tracer.enabled = False
        try:
            yield
        finally:
            self.tracer.enabled = True

    # -- seeded inputs ----------------------------------------------------

    def rng(self, part, k):
        return np.random.default_rng([self.seed, part, k + 1])

    def interior_state(self, kind, k):
        """Interior point and unit velocity, both from the seed.

        The point lies on a segment from the centre of the cross-section
        towards a boundary point, at most 0.85 of the way.
        """
        dom = self.domains[kind]
        r = self.rng(1, k)
        with self.untraced():
            a, b = dom.profile.period
            rim = dom.profile.eval(a + r.uniform() * (b - a))
            c = dom.profile.eval(np.linspace(a, b, 64, endpoint=False)).mean(axis=0)
        rz = c + r.uniform(0.0, 0.85) * (rim - c)
        phi = r.uniform(0.0, TWO_PI)
        x = np.array([rz[0] * math.cos(phi), rz[0] * math.sin(phi), rz[1]])
        v = r.standard_normal(3)
        return x, v / np.linalg.norm(v)

    @staticmethod
    def inner_tau(dom, r):
        """Inner-region tau away from both ends and from the Z_h band."""
        m = dom.markers
        rel = r.uniform(0.15, 0.4)
        if r.uniform() < 0.5:
            rel = 1.0 - rel
        return float(dom.profile.wrap(m.tau1_star + rel * m.inner_span))

    @staticmethod
    def outer_tau(dom, r):
        m = dom.markers
        outer = dom.profile.period_length - m.inner_span
        return float(dom.profile.wrap(m.tau2_star + r.uniform(0.2, 0.8) * outer))

    def sweep_grid(self, g):
        """Jittered (tau, theta) grid and azimuth of sweep pass g."""
        dom = self.domains[self.cfg["scalar"]]
        r = self.rng(4, g)
        n_tau, n_theta = self.cfg["n_tau"], self.cfg["n_theta"]
        a, _ = dom.profile.period
        step = dom.profile.period_length / n_tau
        taus = a + (r.permutation(n_tau) + r.uniform(0, 1, n_tau)) * step
        thetas = (np.arange(n_theta) + r.uniform(0, 1, n_theta)) * (TWO_PI / n_theta)
        return taus, thetas, float(r.uniform(0.0, TWO_PI))

    # -- bookkeeping ------------------------------------------------------

    def check(self, name, ok, message):
        if name not in self.checks:
            self.checks[name] = None
        if not ok and self.checks[name] is None:
            self.checks[name] = message

    def _op(self, label, fn, *args):
        """Run one operation; (result, seconds), result None if it raised."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op = self.attempted
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        except Exception as e:  # an operation that raises is a failed one
            self.failures.append((label, f"{type(e).__name__}: {e}"))
            return None, time.perf_counter() - t0
        return out, time.perf_counter() - t0

    def _fail(self, label, message):
        self.failures.append((label, message))

    def _check_orbit(self, label, traj, statuses, cap=None):
        d = traj.diagnostics
        self.check("orbit_conservation",
                   d["speed_drift"] < SPEED_DRIFT_TOL
                   and d["omega_drift"] < OMEGA_DRIFT_TOL,
                   f"{label}: speed drift {d['speed_drift']:.3e}, "
                   f"omega drift {d['omega_drift']:.3e}")
        if traj.status is TrajectoryStatus.GRAZING_AMBIGUOUS:
            self._fail(label, "ended grazing-ambiguous")
            return
        self.check(label.split("#")[0] + "_status", traj.status in statuses,
                   f"{label}: status {traj.status.value}")
        if cap is not None and traj.status is TrajectoryStatus.MAX_BOUNCES_REACHED:
            self.check("orbit_cap", len(traj.events) == cap,
                       f"{label}: {len(traj.events)} bounces, cap {cap}")

    # -- parts ------------------------------------------------------------

    def run_orbits(self, limit):
        """(a) interior orbits; returns per-orbit (bounces, seconds)."""
        kind = self.cfg["scalar"]
        eng = self.engines[kind]
        cap = self.cfg["orbit_cap"]
        out = []
        for k in limit:
            x, v = self.interior_state(kind, k)
            traj, dt = self._op(f"orbit#{k}", eng.forward_cycles,
                                tb.PhaseState(x, v), 1e9, cap)
            if traj is not None:
                self._check_orbit(f"orbit#{k}", traj,
                                  (TrajectoryStatus.MAX_BOUNCES_REACHED,), cap)
                out.append((len(traj.events), dt))
        return out

    def creep_start(self, k):
        dom = self.domains[self.cfg["scalar"]]
        r = self.rng(2, k)
        tau = self.inner_tau(dom, r)
        phi = r.uniform(0.0, TWO_PI)
        with self.untraced():
            theta = float(grazing.inflection_angle(dom, tau))
            alpha = theta + r.uniform(0.2, 0.8) * (0.5 * math.pi - theta)
            tilt = 0.02 * 4.0 ** -r.uniform(0.0, 1.0)
            u = (math.cos(alpha) * dom.phi_hat(phi)
                 + math.sin(alpha) * dom.meridian_tangent(tau, phi))
            n = dom.outward_normal(tau, phi)
            return dom.sigma(tau, phi), math.cos(tilt) * u - math.sin(tilt) * n

    def run_creep(self, limit):
        """(b) creeping orbits; returns per-orbit (bounces, seconds)."""
        eng = self.engines[self.cfg["scalar"]]
        cap = self.cfg["creep_cap"]
        out = []
        for k in limit:
            x, v = self.creep_start(k)
            traj, dt = self._op(f"creep#{k}", eng.forward_cycles,
                                tb.PhaseState(x, v), CREEP_LENGTH, cap)
            if traj is not None:
                self._check_orbit(f"creep#{k}", traj,
                                  (TrajectoryStatus.COMPLETED,
                                   TrajectoryStatus.MAX_BOUNCES_REACHED), cap)
                self.check("creep_bounces", len(traj.events) > 0,
                           f"creep#{k}: no bounce")
                out.append((len(traj.events), dt))
        return out

    def run_launches(self, limit):
        """(c) tangential launches with the stop statuses of the tests."""
        dom = self.domains[self.cfg["scalar"]]
        eng = self.engines[self.cfg["scalar"]]
        S = TrajectoryStatus
        for k in limit:
            r = self.rng(3, k)
            tau = self.inner_tau(dom, r)
            phi = r.uniform(0.0, TWO_PI)
            eta = r.uniform(0.25, 0.75)
            tau_out = self.outer_tau(dom, r)
            with self.untraced():
                x = dom.sigma(tau, phi)
                x_out = dom.sigma(tau_out, phi)
                v_out = dom.phi_hat(phi)
            d, _ = self._op(f"launch#{k}", grazing.inflection_directions,
                            dom, tau, phi)
            if d is None:
                continue
            v_mix, _ = self._op(f"launch#{k}", grazing.concave_direction,
                                dom, tau, phi, eta)
            cases = [("I1-forward", eng.forward_cycles, x, d.I1,
                      S.STOPPED_AT_INFLECTION_PLUS),
                     ("I2-backward", eng.backward_cycles, x, d.I2,
                      S.STOPPED_AT_INFLECTION_MINUS),
                     ("I1-backward", eng.backward_cycles, x, d.I1, S.COMPLETED),
                     ("outer-azimuthal", eng.forward_cycles, x_out, v_out,
                      S.STUCK_CONVEX_GRAZING)]
            if v_mix is not None:
                cases.insert(3, ("concave-forward", eng.forward_cycles, x,
                                 v_mix, S.COMPLETED))
            for case, run, x0, v0, want in cases:
                label = f"launch#{k}:{case}"
                traj, _ = self._op(label, run, tb.PhaseState(x0, v0),
                                   LAUNCH_LENGTH)
                if traj is not None:
                    self._check_orbit(label, traj, (want,))

    def _sweep_row(self, dom, taus, thetas, i, phi=0.0):
        """One tau row of the sweep, as the classify-boundary command does."""
        tau = float(taus[i])
        e_az = dom.phi_hat(phi)
        e_m = dom.meridian_tangent(tau, phi)
        x = dom.sigma(tau, phi)
        rows = []
        for th in thetas:
            w = math.cos(th) * e_az + math.sin(th) * e_m
            kn = grazing.normal_curvature(dom, tau, phi, w)
            try:
                cls = grazing.classify(dom, x, w).value
            except TorusBilliardsError:
                cls = "ambiguous"
            rows.append((tau, float(th), cls, kn))
        return rows

    def run_sweep(self, limit):
        """(d) sweep rows; returns per-row (phases, seconds)."""
        dom = self.domains[self.cfg["scalar"]]
        n_tau = self.cfg["n_tau"]
        out = []
        grid = None
        for k in limit:
            g, i = divmod(k, n_tau)
            if i == 0 or grid is None:
                grid = self.sweep_grid(g)
            taus, thetas, phi = grid
            rows, dt = self._op(f"sweep#{k}", self._sweep_row, dom, taus,
                                thetas, i, phi)
            if rows is None:
                continue
            self.attempted += len(rows) - 1     # one operation per phase
            self.phases += len(rows)
            for tau, th, cls, kn in rows:
                self.ambiguous += cls == "ambiguous"
                self.check("sweep_sign",
                           not (cls == "convex" and kn <= -KAPPA_SIGN_TOL)
                           and not (cls == "concave" and kn >= KAPPA_SIGN_TOL),
                           f"tau={tau!r} theta={th!r}: {cls} with kappa_n={kn!r}")
                self.check("sweep_tangent", cls != "non-grazing",
                           f"tau={tau!r} theta={th!r}: tangent classed non-grazing")
            out.append((len(rows), dt))
        return out

    def cli_argv(self, path):
        return ["--seed", str(self.seed), "--out", path, "badset",
                "--x", ",".join(repr(c) for c in BASE_POINT),
                "--eps", ",".join(repr(e) for e in EPS),
                "--length", repr(self.cfg["cli_length"]),
                "--samples", str(self.cfg["cli_samples"])]

    def run_cli(self, limit):
        """CLI badset commands, all with one argv; returns (samples, seconds)."""
        n = self.cfg["cli_samples"]
        out = []
        for k in limit:
            path = os.path.join(self.out_dir, f"badset-{k}.csv")
            code, dt = self._op(f"cli#{k}", cli.main, self.cli_argv(path))
            if code is None:
                continue
            if code != 0:
                self._fail(f"cli#{k}", f"exit code {code}")
                continue
            with open(path, "rb") as f:
                data = f.read()
            os.remove(path)
            self.check_cli_output(f"cli#{k}", data, n)
            out.append((n, dt))
        return out

    def check_cli_output(self, label, data, n):
        if self.cli_outputs:
            self.check("cli_determinism", data == self.cli_outputs[0],
                       f"{label}: output bytes differ from the first command")
        else:
            self.cli_outputs.append(data)
        lines = data.decode().splitlines()
        ok = (len(lines) == 2 + len(EPS) and lines[0].startswith("# ")
              and lines[1].startswith("delta,fraction,ci95,"))
        self.check("badset_rows", ok, f"{label}: unexpected layout {lines[:2]}")
        if not ok:
            return
        rows = []
        for line in lines[2:]:
            cols = line.split(",")
            m = re.fullmatch(r"np\.float64\((.*)\)", cols[2])
            if m:
                self.ci95_repr = True
                cols[2] = m.group(1)
            rows.append({"delta": float(cols[0]), "fraction": float(cols[1]),
                         "ci95": float(cols[2]),
                         "near_grazing": int(cols[3]),
                         "stopped": int(cols[5]), "max_bounces": int(cols[6])})
        self.check("badset_rows", [r["delta"] for r in rows] == list(EPS),
                   f"{label}: rows for deltas {[r['delta'] for r in rows]}")
        self.check_rows(label, rows, n)
        for r in rows:
            bad = round(r["fraction"] * n)
            self.check("badset_rows",
                       bad >= max(r["near_grazing"], r["stopped"], r["max_bounces"]),
                       f"{label}: breakdown {r} exceeds {bad} bad samples")

    def check_rows(self, label, rows, n):
        """One row per delta, integer counts, monotone fractions, ci95 formula."""
        self.check("badset_rows", len(rows) == len(EPS),
                   f"{label}: {len(rows)} rows for {len(EPS)} deltas")
        prev = 1.0
        for r in rows:
            f = r["fraction"]
            self.check("badset_rows", abs(f * n - round(f * n)) < 1e-6,
                       f"{label}: fraction {f!r} times n={n} is not an integer")
            self.check("badset_rows", f <= prev,
                       f"{label}: fraction rises to {f!r} at delta {r['delta']}")
            self.check("badset_rows",
                       math.isclose(r["ci95"], _ci95(f, n), rel_tol=1e-9),
                       f"{label}: ci95 {r['ci95']!r} != {_ci95(f, n)!r}")
            self.check("badset_rows", r["near_grazing"] <= round(f * n),
                       f"{label}: near_grazing {r['near_grazing']} > bad count")
            prev = f

    def scan_args(self, kind, k):
        """Arguments of scan call k: its own sample seed and tau_ref.

        Each call draws afresh, so a run averages its rate over several
        draws and its peak memory is the largest of several.
        """
        r = self.rng(6, k)
        tau_ref = self.inner_tau(self.domains[kind], r)
        return (self.engines[kind], BASE_POINT, 0.0, EPS,
                self.cfg["scan_length"], self.cfg["scan_samples"],
                int(r.integers(2**31)), None, RING_KINDS, tau_ref)

    def run_scan(self, limit):
        """badset_scan calls; returns per-call (samples, seconds)."""
        kind = self.cfg["scan_domain"]
        n = self.cfg["scan_samples"]
        out = []
        for k in limit:
            rows, dt = self._op(f"scan#{k}", analysis.badset_scan,
                                *self.scan_args(kind, k))
            if rows is None:
                continue
            out.append((n, dt))
            self.check_rows(f"scan#{k}", rows, n)
            if k != 0:
                continue
            self.scan_rows = rows
            if self.verify and kind != "quadric":
                ref = tb.badset_scan(*self.scan_args("quadric", k))
                worst = max(abs(a["fraction"] - b["fraction"])
                            for a, b in zip(rows, ref))
                self.check("scan_generic_vs_quadric", worst <= 1.0 / n,
                           f"scan#{k}: fractions differ by {worst!r} > 1/n")
        return out

    def check_scan_repeat(self):
        """The first scan call, made again, gives the same rows."""
        if self.scan_rows is None:
            return
        rows = tb.badset_scan(*self.scan_args(self.cfg["scan_domain"], 0))
        self.check("scan_determinism", rows == self.scan_rows,
                   "scan#0: rows differ when the call is made again")

    def run_compare(self, limit):
        """Generic-circle orbits over the first bounces, against the quadric."""
        out = []
        for k in limit:
            gen = self.engines["generic-circle"]
            x, v = self.interior_state("generic-circle", 1000 + k)
            traj, dt = self._op(f"compare#{k}", gen.forward_cycles,
                                tb.PhaseState(x, v), 1e9, COMPARE_BOUNCES)
            if traj is None:
                continue
            self._check_orbit(f"compare#{k}", traj,
                              (TrajectoryStatus.MAX_BOUNCES_REACHED,),
                              COMPARE_BOUNCES)
            out.append((len(traj.events), dt))
            if not self.verify:
                continue
            ref = self.engines["quadric"].forward_cycles(tb.PhaseState(x, v), 1e9,
                                      max_bounces=COMPARE_BOUNCES)
            worst = max((float(np.abs(a.x - b.x).max())
                         for a, b in zip(traj.events, ref.events)), default=0.0)
            self.check("generic_vs_quadric",
                       len(traj.events) == len(ref.events) and worst <= COMPARE_TOL,
                       f"compare#{k}: bounce points differ by {worst:.3e}")
        return out

    # -- untimed checks ---------------------------------------------------

    def check_reversal(self, n):
        kind = self.cfg["scalar"]
        eng = self.engines[kind]
        worst = 0.0
        for k in range(n):
            x, v = self.interior_state(kind, k)
            fw = eng.forward_cycles(tb.PhaseState(x, v), 1e9,
                                    max_bounces=REVERSAL_BOUNCES)
            end = fw.end_state
            bk = eng.backward_cycles(tb.PhaseState(end.x, end.v, end.t),
                                     fw.total_length)
            worst = max(worst, float(np.abs(bk.end_state.x - x).max()),
                        float(np.abs(bk.end_state.v - v).max()))
        self.check("reversal", worst <= REVERSAL_TOL,
                   f"worst reversal error {worst:.3e} on {kind}")

    def check_golden(self):
        s3 = math.sqrt(3.0)
        eng = self.engines["quadric"]
        st = tb.PhaseState([3.0, 0.0, 0.0], [-s3 / 2, 0.5, 0.0])
        traj = eng.forward_cycles(st, 9 * s3)
        ok = (traj.status is TrajectoryStatus.COMPLETED and len(traj.events) == 3
              and all(abs(ev.phi - k * TWO_PI / 3) <= GOLDEN_TOL
                      and abs(ev.t - 3 * s3 * k) <= GOLDEN_TOL
                      for k, ev in enumerate(traj.events, start=1))
              and abs(traj.winding - 1.0) <= GOLDEN_TOL
              and np.allclose(traj.end_state.x, st.x, atol=GOLDEN_TOL)
              and np.allclose(traj.end_state.v, st.v, atol=GOLDEN_TOL))
        self.check("golden_triangle", ok,
                   f"triangle orbit: status {traj.status.value}, "
                   f"{len(traj.events)} bounces, winding {traj.winding!r}")

    def check_tracer(self):
        """Vectorized tracer against the engine, as test_tracer_matches_engine."""
        m = self.cfg["tracer_samples"]
        for kind in self.cfg["tracer_domains"]:
            dom, eng = self.domains[kind], self.engines[kind]
            x = np.array(BASE_POINT)
            dirs = analysis._sample_directions(self.seed, 0, m)
            min_nd, bounces, stopped = analysis._trace_min_graze(
                dom, x, dirs, TRACER_LENGTH)
            for i in range(m):
                if stopped[i]:
                    continue
                traj = eng.backward_cycles(tb.PhaseState(x, dirs[i]), TRACER_LENGTH)
                ref = min(abs(ev.normal_dot) for ev in traj.events)
                self.check("tracer_vs_engine",
                           abs(min_nd[i] - ref) <= TRACER_TOL
                           and bounces[i] == len(traj.events),
                           f"{kind} sample {i}: tracer ({min_nd[i]!r}, "
                           f"{bounces[i]}) vs engine ({ref!r}, {len(traj.events)})")

    def run_checks(self):
        self.check_reversal(2)
        self.check_golden()
        self.check_tracer()
        self.check_scan_repeat()

    # -- reporting --------------------------------------------------------

    def known_defects(self):
        return {
            "ci95_repr": self.ci95_repr,
            "ambiguous_phases": {"count": self.ambiguous, "of": self.phases},
        }

    def failed_checks(self):
        return {k: v for k, v in self.checks.items() if v is not None}


def interleave(parts, seconds, rounds=10):
    """Run timed parts in turns so that each one spans the whole run.

    ``parts`` maps a name to (fn, share, min_ops), where fn(range) runs the
    operations with those indices and returns their (work, seconds) pairs.
    Host speed drifts over seconds; a part run in one block would see only
    the speed of its own block.  In round r a part runs operations until its
    time reaches share * seconds * (r + 1) / rounds, so long operations
    spread over the run too.  Parts short of min_ops run more at the end.
    The host reference loop runs between any two operations, and each
    operation's seconds are rescaled to the reference speed (hostspeed.py).
    Returns the rescaled pairs and the raw pairs of every part, and the
    Speedometer that holds the loop times.
    """
    raw = {name: [] for name in parts}
    spans = {name: [] for name in parts}
    spent = dict.fromkeys(parts, 0.0)
    count = dict.fromkeys(parts, 0)
    host = Speedometer()
    host.sample()

    def step(name, fn):
        t = time.perf_counter()
        pairs = fn(range(count[name], count[name] + 1))
        end = time.perf_counter()
        host.sample()
        spent[name] += end - t
        count[name] += 1
        raw[name] += pairs
        spans[name] += [(t, end)] * len(pairs)

    for r in range(rounds):
        for name, (fn, share, _) in parts.items():
            while spent[name] < share * seconds * (r + 1) / rounds:
                step(name, fn)
    for name, (fn, _, min_ops) in parts.items():
        while count[name] < min_ops:
            step(name, fn)
    done = {name: [(w, host.rescale(s, *span))
                   for (w, s), span in zip(raw[name], spans[name])]
            for name in parts}
    return done, raw, host


def rate(pairs):
    """Work per second over (work, seconds) pairs."""
    work = sum(w for w, _ in pairs)
    secs = sum(s for _, s in pairs)
    return work / secs if secs > 0 else float("nan")
