#!/usr/bin/env python3
"""Benchmark of the torus_billiards package.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads are ``scalar-quadric``,
``scalar-generic`` and ``badset`` (see bench/README.md).  Each run starts
one child process for the workload, with BLAS and OpenMP limited to one
thread, plus extra set-up-only children so that ``setup_s`` is the median
of several fresh-process set-ups.  With ``--trace 0`` the child measures
for about S seconds and the last line of output holds the end-to-end
metrics; with ``--trace 1`` it runs a fixed work list four times, untraced
and under the layer tracer in turn, and reports the per-layer metrics.
End-to-end times are rescaled to a reference host speed (hostspeed.py),
because the speed of a shared host drifts while it runs.  A line
before the last one holds the details: sample counts, percentiles, checks,
known defects, versions and the seed.  The exit code is non-zero when an
output check fails or the package cannot be found.
"""

import time

from hostspeed import Speedometer  # the script's own directory

HOST = Speedometer()
T_START = time.perf_counter()

import argparse  # noqa: E402  (the clock starts before any other import)
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 3            # fresh-process set-ups per run, median reported
DEADLINE_S = 170             # every child must end this long after start
END_TO_END = {
    "setup_s": "s", "bounces_per_s": "1/s", "orbit_ms_p50": "ms",
    "orbit_ms_tail": "ms", "phases_per_s": "1/s", "samples_per_s": "1/s",
    "scan_samples_per_s": "1/s", "peak_rss_mb": "MB",
}
PER_LAYER = {
    "engine.orbits": "count", "engine.bounces": "count",
    "engine.self_s": "s", "engine.xi_points_per_bounce": "ratio",
    "domain.xi.calls": "count", "domain.xi.points": "count",
    "domain.grad_xi.calls": "count", "domain.nearest_parameter.points": "count",
    "domain.boundary_params.calls": "count", "domain.self_s": "s",
    "domain.xi.points_per_s": "1/s",
    "curves.calls": "count", "curves.points": "count", "curves.self_s": "s",
    "curves.find_markers_s": "s",
    "grazing.classify.calls": "count", "grazing.self_s": "s",
    "grazing.ambiguous": "count",
    "analysis.samples_traced": "count", "analysis.retrace_ratio": "ratio",
    "analysis.self_s": "s", "analysis.xi_points_per_sample": "ratio",
    "cli.commands": "count", "cli.self_s": "s",
    "trace.overhead": "ratio", "trace.unattributed_s": "s",
}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--child", choices=("setup", "run"), help=argparse.SUPPRESS)
    p.add_argument("--out-dir", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


# -- child process ------------------------------------------------------------


def timed_run(w, seconds):
    """End-to-end metrics of one workload from about ``seconds`` of work."""
    from workloads import interleave, rate, tail_percentile

    cfg = w.cfg
    sh = cfg["shares"]
    done, raw, host = interleave({
        # with 22 or more orbits the tail percentile lies above the median
        "orbits": (w.run_orbits, sh["orbits"], 22),
        "creep": (w.run_creep, sh["creep"], 2),
        "compare": (w.run_compare, sh.get("compare", 0.0),
                    cfg["compare_orbits"]),
        "sweep": (w.run_sweep, sh["sweep"], 2),
        "cli": (w.run_cli, sh["cli"], 2),
        "scan": (w.run_scan, sh["scan"], 1),
    }, seconds)
    w.run_launches(range(4))
    w.run_checks()

    def timings(parts):
        orbit_ms = [1e3 * s for _, s in parts["orbits"]]
        tail, pct = tail_percentile(orbit_ms)
        return {
            "bounces_per_s": rate(parts["orbits"] + parts["creep"]
                                  + parts["compare"]),
            "orbit_ms_p50": statistics.median(orbit_ms),
            "orbit_ms_tail": tail,
            "phases_per_s": rate(parts["sweep"]),
            # the commands repeat one argv and the scan calls have one size,
            # so the median call is the typical one
            "samples_per_s": statistics.median(n / s for n, s in parts["cli"]),
            "scan_samples_per_s": statistics.median(
                n / s for n, s in parts["scan"]),
        }, pct

    metrics, pct = timings(done)
    orbits, creep = done["orbits"], done["creep"]
    details = {
        "orbits": len(orbits), "orbit_bounces": sum(b for b, _ in orbits),
        "creep_orbits": len(creep), "creep_bounces": sum(b for b, _ in creep),
        "compare_orbits": len(done["compare"]),
        "orbit_ms_tail_percentile": pct,
        "orbit_ms_tail_beyond": 10 if len(orbits) > 10 else 0,
        "phases": w.phases,
        "cli_rates": [n / s for n, s in done["cli"]],
        "scan_rates": [n / s for n, s in done["scan"]],
        "raw_wall": timings(raw)[0],
        "host_ref_ms": host.summary(),
    }
    return metrics, details


def traced_run(w, out_dir):
    """Per-layer metrics from a fixed work list, run untraced and traced twice."""
    from tracing import LAYERS, Tracer

    ops = w.cfg["trace_ops"]
    parts = [("setup", w.build)]
    parts += [(name, getattr(w, "run_" + name)) for name in ops]

    def work(tracer):
        w.tracer = tracer
        walls = {}
        t0 = time.perf_counter()
        for name, fn in parts:
            if tracer is not None:
                tracer.part = name
            t = time.perf_counter()
            if name == "setup":
                fn()
            else:
                fn(range(ops[name]))
            walls[name] = time.perf_counter() - t
        return time.perf_counter() - t0, walls

    # untraced and traced passes alternate so that host drift over the
    # run falls on both sides of trace.overhead
    w.verify = False
    untraced, passes = [], []
    for _ in range(2):
        untraced.append(work(None)[0])
        tracer = Tracer()
        tracer.install()
        try:
            wall, walls = work(tracer)
        finally:
            tracer.uninstall()
        passes.append((tracer, wall, walls))
    w.tracer = None
    tracer, wall1, walls = passes[0]
    same = tracer.exact_counts() == passes[1][0].exact_counts()
    w.check("trace_counts_repeat", same,
            "per-layer counts differ between two traced passes")
    span_file = os.path.join(out_dir, "spans.npz")
    tracer.save_spans(span_file)

    c = tracer.counts
    own = tracer.layer_self()
    covered = sum(own.values())

    def ratio(a, b):
        return a / b if b else 0.0

    metrics = {
        "engine.orbits": c["engine.orbits"],
        "engine.bounces": c["engine.bounces"],
        "engine.self_s": own["engine"],
        "engine.xi_points_per_bounce": ratio(c["xi_points_under.engine"],
                                             c["engine.bounces"]),
        "domain.xi.calls": c["domain.xi.calls"],
        "domain.xi.points": c["domain.xi.points"],
        "domain.grad_xi.calls": c["domain.grad_xi.calls"],
        "domain.nearest_parameter.points": c["domain.nearest_parameter.points"],
        "domain.boundary_params.calls": c["domain.boundary_params.calls"],
        "domain.self_s": own["domain"],
        "domain.xi.points_per_s": ratio(c["domain.xi.points"],
                                        tracer.span_s["domain.xi"]),
        "curves.calls": c["curves.calls.total"],
        "curves.points": c["curves.points"],
        "curves.self_s": own["curves"],
        "curves.find_markers_s": tracer.span_s["curves.find_markers"],
        "grazing.classify.calls": c["grazing.classify.calls"],
        "grazing.self_s": own["grazing"],
        "grazing.ambiguous": c["grazing.ambiguous"],
        "analysis.samples_traced": c["analysis.samples_traced"],
        "analysis.retrace_ratio": ratio(c["analysis.samples_traced_in_cli"],
                                        c["cli.samples_requested"]),
        "analysis.self_s": own["analysis"],
        "analysis.xi_points_per_sample": ratio(c["xi_points_under.analysis"],
                                               c["analysis.samples_traced"]),
        "cli.commands": c["cli.main.calls"],
        "cli.self_s": own["cli"],
        "trace.overhead": sum(p[1] for p in passes) / sum(untraced) - 1.0,
        "trace.unattributed_s": wall1 - covered,
    }
    by_part = {}
    for name, _ in parts:
        layer_s = tracer.layer_self(name)
        by_part[name] = {"wall_s": walls[name],
                         "self_s": layer_s,
                         "unattributed_s": walls[name] - sum(layer_s.values()),
                         "dominant": max(LAYERS, key=layer_s.get)}
    details = {"untraced_wall_s": untraced, "traced_wall_s": wall1,
               "spans": len(tracer.spans), "counts": tracer.exact_counts(),
               "parts": by_part, "prediction": prediction(w.name, by_part)}
    return metrics, details


PREDICTED = {
    # workload -> [(part, layers whose summed self time should lead)]
    "scalar-quadric": [("orbits", ("engine",))],
    "scalar-generic": [("orbits", ("curves", "domain"))],
    "badset": [("cli", ("analysis",)), ("scan", ("domain",))],
}


def prediction(workload, by_part):
    out = []
    for part, layers in PREDICTED[workload]:
        s = by_part[part]["self_s"]
        lead = sum(s[k] for k in layers)
        others = max((v for k, v in s.items() if k not in layers), default=0.0)
        out.append({"part": part, "layers": list(layers),
                    "dominant": by_part[part]["dominant"],
                    "met": lead > others})
    return out


def child_main(args):
    sys.path.insert(0, str(SRC))
    import workloads  # imports numpy, scipy and torus_billiards

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    w = workloads.Workload(args.workload, args.seed, args.out_dir)
    w.setup()
    setup_wall = time.perf_counter() - T_START
    HOST.sample(5)      # a fresh interpreter times its first loops unevenly
    result = {"setup_s": HOST.rescale(setup_wall, T_START,
                                      T_START + setup_wall),
              "setup_wall_s": setup_wall}
    if args.child == "run":
        if args.trace:
            metrics, details = traced_run(w, args.out_dir)
        else:
            metrics, details = timed_run(w, args.seconds)
        details["known_defects"] = w.known_defects()
        details["failed_checks"] = w.failed_checks()
        details["checks_run"] = sorted(w.checks)
        details["failures"] = w.failures[:20]
        result.update(metrics=metrics, details=details,
                      attempted=w.attempted, failed=len(w.failures),
                      correct=not w.failed_checks(),
                      peak_rss_mb=resource.getrusage(
                          resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    print(json.dumps(result))
    return 0


# -- parent process -----------------------------------------------------------


def spawn(args, role, out_dir, env):
    cmd = [sys.executable, str(HERE / "run.py"), "--child", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir]
    left = DEADLINE_S - (time.perf_counter() - T_START)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT,
                          timeout=max(left, 1.0), text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{role} child exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def versions():
    import numpy
    import scipy

    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def main(argv=None):
    args = parse_args(argv)
    if args.child:
        return child_main(args)
    if not (SRC / "torus_billiards" / "__init__.py").is_file():
        print(f"package sources not found under {SRC}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    OUT.mkdir(exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix="run-", dir=OUT)
    try:
        res = spawn(args, "run", out_dir, env)
        setups = [res]
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(spawn(args, "setup", out_dir, env))
        spans = Path(out_dir, "spans.npz")
        if spans.exists():
            kept = OUT / f"spans-{args.workload}-seed{args.seed}.npz"
            shutil.move(str(spans), kept)
            res["details"]["spans_file"] = str(kept.relative_to(ROOT))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    if args.trace:
        metrics = res["metrics"]
    else:
        metrics = dict(res["metrics"],
                       setup_s=statistics.median(r["setup_s"] for r in setups),
                       peak_rss_mb=res["peak_rss_mb"])
    details = dict(res["details"], workload=args.workload, seed=args.seed,
                   seconds=args.seconds, trace=args.trace,
                   nproc=os.cpu_count(),
                   setup_samples_s=[r["setup_s"] for r in setups],
                   setup_wall_s=[r["setup_wall_s"] for r in setups],
                   peak_rss_mb=res["peak_rss_mb"],
                   failed_frac=(res["failed"]
                                + res["details"]["known_defects"]
                                ["ambiguous_phases"]["count"])
                   / res["attempted"],
                   **versions())
    print(json.dumps({"details": details}, sort_keys=True))
    print(json.dumps({
        "correct": res["correct"], "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": metrics[k], "unit": unit}
                    for k, unit in (PER_LAYER if args.trace
                                    else END_TO_END).items()}}))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
