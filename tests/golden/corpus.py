"""Golden output corpus of the command-line subcommands, of the bad-set
tracer and of the billiard engine.

Every subcommand runs on a circle config and an ellipse config with reduced
grids; the outputs are committed under ``tests/golden/<config>/``.  The
tracer's (min_nd, bounces, stopped) arrays of each input in TRACERS are
committed under ``tests/golden/tracer/``, and the bounce events and end
states of the forward orbits of each input in ENGINES under
``tests/golden/engine/``.  ``tests/test_golden.py`` compares fresh runs
against them.  Run

    PYTHONPATH=src python tests/golden/corpus.py

from the root of a checkout to rewrite the corpus; against the files it
replaces it prints each file's verdict, the largest change of each numeric
output field, and the changed rows of every other field with their
transitions.  A file is "bit-identical", "within bounds" (every numeric
field moved by at most its FIELD_BOUNDS entry, every other field not at
all) or "beyond bounds"; the files of the BYTE_EXACT configs and domain
kinds are beyond bounds as soon as a byte changes.  With ``--check`` it
runs every case, writes no file, prints the same report and exits 1 if
any file would be beyond bounds.
"""

import argparse
import functools
import json
import math
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np

import torus_billiards as tb
from torus_billiards import grazing
from torus_billiards.analysis import _sample_directions, _trace_min_graze
from torus_billiards.cli import main

HERE = Path(__file__).resolve().parent

# the recurrence-check starts leave the boundary at sigma(tau, 0) at 0.01
# rad below the tangent plane: at tau = 2 pi / 3, 60 degrees from the
# azimuth on the circle, and at 0.3 of the inner region, 1.5 times the
# inflection angle from the azimuth on the ellipse
CONFIGS = {
    "circle": {
        "curve": {"kind": "circle", "R": 2.0, "r": 1.0},
        "seed": 7,
        "simulate": {"x": [2.2, 0.1, 0.3], "v": [0.3, 0.5, 0.7],
                     "length": 12.0},
        "classify_boundary": {"n_tau": 8, "n_theta": 6, "phi": 0.3},
        "inflection_map": {"n_tau": 12},
        "badset": {"x": [2.5, 0.0, 0.6], "eps": [0.2, 0.1, 0.05],
                   "length": 3.0, "samples": 2500},
        "jacobian": {"t": 1.0, "x": [2.5, 0.0, 0.0], "v": [1.0, 0.1, 0.05],
                     "s": -1.0},
        "recurrence_check": {
            "x": [1.5000000000000002, 0.0, 0.8660254037844387],
            "v": [-0.7449625836454157, 0.49997500020833274,
                  -0.44165116113854463],
            "length": 3.0},
    },
    "ellipse": {
        "curve": {"kind": "ellipse", "center": 3.0, "semi_x": 2.0,
                  "semi_z": 1.0},
        "seed": 7,
        "simulate": {"x": [3.2, 0.1, 0.2], "v": [0.3, 0.5, 0.7],
                     "length": 8.0},
        "classify_boundary": {"n_tau": 6, "n_theta": 4, "phi": 0.3},
        "inflection_map": {"n_tau": 12},
        "badset": {"x": [3.0, 0.0, 0.9], "eps": [0.2, 0.1, 0.05],
                   "length": 2.0, "samples": 96},
        "jacobian": {"t": 1.0, "x": [3.5, 0.0, 0.0], "v": [1.0, 0.1, 0.05],
                     "s": -1.0},
        "recurrence_check": {
            "x": [1.5886328223937787, 0.0, 0.7085271148615007],
            "v": [-0.7295484328550812, 0.572296004140661,
                  -0.37448146517995723],
            "length": 1.0},
    },
}
COMMANDS = ("simulate", "classify-boundary", "inflection-map", "badset",
            "jacobian", "recurrence-check", "coords-check")
# name: (domain, base point, samples, length) of the tracer arrays, with the
# directions of seed 0: the three TRACER_CASES of tests/test_analysis.py,
# the benchmark's generic-circle scan and the quadric's outer equator
TRACERS = {
    "quadric": ("quadric", [2.0, 0.0, 0.0], 256, 8.0),
    "generic": ("generic-circle", [2.0, 0.0, 0.0], 64, 4.0),
    "ellipse": ("ellipse", [3.0, 0.0, 0.0], 8, 3.0),
    "generic-scan": ("generic-circle", [2.0, 0.0, 0.0], 1024, 1.5),
    "quadric-equator": ("quadric", [3.0, 0.0, 0.0], 256, 5.0),
}

# name: (domain, length, interior, boundary and creeping starts) of the
# engine's forward orbits, with the starts of seed 0; every chord of a
# creeping orbit starts at a bounce point and ends within one march step
ENGINES = {
    "quadric": ("quadric", 10.0, 20, 5, 0),
    "quadric-creep": ("quadric", 3.0, 0, 0, 6),
    "generic": ("generic-circle", 8.0, 20, 5, 0),
    "ellipse": ("ellipse", 6.0, 20, 5, 0),
}

# the largest change of each numeric field within bounds (0 where none is
# given), and the configs and domain kinds whose files must reproduce byte
# for byte: the circle config and the quadric's tracer arrays and engine
# events
FIELD_BOUNDS = {
    **dict.fromkeys(["simulate:bounce." + k for k in (
        "x", "t", "tau", "phi_unwrapped", "v_out", "normal_dot")], 1e-9),
    "simulate:header.total_length": 1e-9,
    "simulate:header.winding": 1e-9,
    "simulate:header.diagnostics.omega_drift": 1e-12,
    "simulate:header.diagnostics.speed_drift": 1e-12,
    "classify-boundary:kappa_n": 1e-12,
    **dict.fromkeys(["inflection-map:" + k for k in (
        "tau", "theta", "omega_I")], 1e-10),
    "jacobian:jacobian.det": 1e-6,
    "jacobian:jacobian.rel_spread": 1e-9,
    "recurrence-check:d_tau": 1e-9,
    "recurrence-check:d_phi": 1e-9,
    "recurrence-check:r1": 1e-6,
    "recurrence-check:r2": 1e-6,
    "tracer:min_nd": 1e-12,
    **dict.fromkeys(["engine:" + k for k in (
        "t", "x", "y", "z", "tau", "phi", "vx", "vy", "vz", "normal_dot")],
        1e-9),
}
BYTE_EXACT = ("circle", "quadric")


def golden_path(config, cmd):
    return HERE / config / f"{cmd}.txt"


def tracer_path(name):
    return HERE / "tracer" / f"{name}.csv"


def engine_path(name):
    return HERE / "engine" / f"{name}.csv"


@functools.cache
def _domain(kind):
    if kind == "quadric":
        return tb.CircleTorusDomain(2.0, 1.0)
    if kind == "generic-circle":
        return tb.ToroidalDomain(tb.circle_generator(2.0, 1.0))
    return tb.ToroidalDomain(tb.ellipse_generator(3.0, 2.0, 1.0))


def run_tracer(name):
    """CSV of the tracer's (min_nd, bounces, stopped) arrays, one row per
    sample."""
    kind, x, n, L = TRACERS[name]
    min_nd, bounces, stopped = _trace_min_graze(
        _domain(kind), np.array(x), _sample_directions(0, 0, n), L)
    return "min_nd,bounces,stopped\n" + "".join(
        f"{m!r},{b},{int(s)}\n"
        for m, b, s in zip(min_nd.tolist(), bounces.tolist(), stopped))


def _unit(r):
    v = r.standard_normal(3)
    return v / np.linalg.norm(v)


def engine_starts(dom, n_interior, n_boundary, n_creep):
    """(x, v) starts of seed 0.  Interior points lie on segments from the
    cross-section's centre towards a boundary point, at most 0.9 of the
    way; boundary points get a random direction, inward or outward; a
    creeping start leaves an inner-region boundary point between the
    inflection direction and the meridian, tilted 0.005-0.02 rad into the
    wall."""
    r = np.random.default_rng(0)
    a, b = dom.profile.period
    c = dom.profile.eval(np.linspace(a, b, 64, endpoint=False)).mean(axis=0)
    out = []
    for _ in range(n_interior):
        rz = c + r.uniform(0.0, 0.9) * (dom.profile.eval(r.uniform(a, b)) - c)
        phi = r.uniform(0.0, 2.0 * math.pi)
        out.append((np.array([rz[0] * math.cos(phi), rz[0] * math.sin(phi),
                              rz[1]]), _unit(r)))
    for _ in range(n_boundary):
        out.append((dom.sigma(r.uniform(a, b), r.uniform(0.0, 2.0 * math.pi)),
                    _unit(r)))
    m = dom.markers
    for _ in range(n_creep):
        tau = float(dom.profile.wrap(m.tau1_star
                                     + r.uniform(0.15, 0.85) * m.inner_span))
        phi = r.uniform(0.0, 2.0 * math.pi)
        theta = float(grazing.inflection_angle(dom, tau))
        alpha = theta + r.uniform(0.2, 0.8) * (0.5 * math.pi - theta)
        tilt = 0.02 * 4.0 ** -r.uniform(0.0, 1.0)
        u = (math.cos(alpha) * dom.phi_hat(phi)
             + math.sin(alpha) * dom.meridian_tangent(tau, phi))
        out.append((dom.sigma(tau, phi), math.cos(tilt) * u
                    - math.sin(tilt) * dom.outward_normal(tau, phi)))
    return out


def run_engine(name):
    """CSV of the engine's forward orbits: one "bounce" row per event (its
    grazing class under "class") and one "end" row per orbit (end state,
    unwrapped azimuth and status)."""
    kind, length, *counts = ENGINES[name]
    dom = _domain(kind)
    eng = tb.BilliardEngine(dom)
    rows = ["start,record,k,t,x,y,z,tau,phi,vx,vy,vz,normal_dot,class\n"]

    def row(i, record, k, t, x, tau, phi, v, nd, cls):
        nums = [float(t), *np.asarray(x).tolist(), tau, float(phi),
                *np.asarray(v).tolist(), nd]
        rows.append(f"{i},{record},{k}," + ",".join(
            "" if u is None else repr(float(u)) for u in nums) + f",{cls}\n")

    for i, (x, v) in enumerate(engine_starts(dom, *counts)):
        traj = eng.forward_cycles(tb.PhaseState(x, v), length)
        for e in traj.events:
            row(i, "bounce", e.k, e.t, e.x, e.tau, e.phi, e.v_out,
                e.normal_dot, e.graze.value)
        end = traj.end_state
        row(i, "end", len(traj.events), end.t, end.x, None, traj.phi_end,
            end.v, None, traj.status.value)
    return "".join(rows)


def run_case(config, cmd):
    """(exit code, output text) of one subcommand on one config."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "config.json"
        cfg.write_text(json.dumps(CONFIGS[config]))
        out = Path(tmp) / "out.txt"
        code = main(["--config", str(cfg), "--out", str(out), cmd])
        return code, out.read_text() if out.exists() else ""


def _number(text):
    try:
        return float(text)
    except ValueError:
        return text


def _flatten(name, obj, out):
    if isinstance(obj, dict):
        for k in sorted(obj):
            _flatten(f"{name}.{k}", obj[k], out)
    elif isinstance(obj, list):
        for item in obj:
            _flatten(name, item, out)
    else:
        out.append((name, obj))


def fields(cmd, text):
    """(field name, value) pairs of an output, in order.  JSON records are
    flattened under their "record" name, CSV rows under their header."""
    out, header = [], None
    for line in text.splitlines():
        if line.startswith("{") or line.startswith("# {"):
            rec = json.loads(line.lstrip("# "))
            _flatten(f"{cmd}:{rec.get('record')}", rec, out)
        elif header is None:
            header = line.split(",")
        else:
            out += [(f"{cmd}:{h}", _number(v))
                    for h, v in zip(header, line.split(","))]
    return out


def _numeric(u, v):
    return (all(isinstance(w, (int, float)) for w in (u, v))
            and math.isfinite(u) and math.isfinite(v))


def _same(u, v):
    """Equal values, NaN counting as equal to NaN."""
    return u == v or all(isinstance(w, float) and math.isnan(w)
                         for w in (u, v))


def changes(cmd, old, new):
    """{field: largest change} from old to new output text.  Finite numbers
    give the largest absolute difference; any other value that differs
    (NaN on one side only included), and a changed layout, give inf."""
    a, b = fields(cmd, old), fields(cmd, new)
    if [n for n, _ in a] != [n for n, _ in b]:
        return {f"{cmd}:layout": math.inf}
    out = {}
    for (name, u), (_, v) in zip(a, b):
        if _numeric(u, v):
            d = abs(u - v)
        else:
            d = 0.0 if _same(u, v) else math.inf
        out[name] = max(out.get(name, 0.0), d)
    return out


def report(cmd, old, new):
    """One line per changed field: the largest change of a numeric field,
    or the number of changed rows of any other field and of each
    transition, as in "classify-boundary:class 2 rows: convex→concave 2"."""
    moved = {k: d for k, d in changes(cmd, old, new).items() if d}
    turns = {}
    if f"{cmd}:layout" not in moved:
        for (name, u), (_, v) in zip(fields(cmd, old), fields(cmd, new)):
            if not (_same(u, v) or _numeric(u, v)):
                turns.setdefault(name, Counter())[f"{u}→{v}"] += 1
    return [f"{k} {d:.3g}" if k not in turns else
            f"{k} {sum(turns[k].values())} rows: "
            + ", ".join(f"{t} {n}" for t, n in sorted(turns[k].items()))
            for k, d in sorted(moved.items())]


def beyond_bounds(cmd, old, new):
    """{field: change} of the fields that moved beyond their FIELD_BOUNDS
    from old to new output text."""
    return {k: d for k, d in changes(cmd, old, new).items()
            if d > FIELD_BOUNDS.get(k, 0.0)}


def verdict(cmd, old, new, exact):
    """"bit-identical", "within bounds" or "beyond bounds" of new against
    old; with exact any change of a byte is beyond bounds."""
    if old == new:
        return "bit-identical"
    if exact or beyond_bounds(cmd, old, new):
        return "beyond bounds"
    return "within bounds"


def _write(label, cmd, path, text, check, exact):
    """Report the verdict and the change of one corpus file and, unless
    check, write it; True if it is beyond bounds."""
    old = path.read_text() if path.exists() else None
    if not check:
        path.write_text(text)
    if old is None:
        print(f"{label}: new")
        return False
    v = verdict(cmd, old, text, exact)
    print(f"{label}: " + "; ".join([v, *report(cmd, old, text)]))
    return v == "beyond bounds"


def rewrite(check=False):
    """Rewrite the corpus, or with check only compare against it; prints
    each file's verdict and the largest change per field, and returns
    whether any file is beyond bounds."""
    beyond = False
    for config in CONFIGS:
        if not check:
            (HERE / config).mkdir(exist_ok=True)
        for cmd in COMMANDS:
            code, text = run_case(config, cmd)
            if code != 0:
                sys.exit(f"{config} {cmd}: exit {code}")
            beyond |= _write(f"{config} {cmd}", cmd, golden_path(config, cmd),
                             text, check, config in BYTE_EXACT)
    for sub, names, path, run in (("tracer", TRACERS, tracer_path, run_tracer),
                                  ("engine", ENGINES, engine_path, run_engine)):
        if not check:
            (HERE / sub).mkdir(exist_ok=True)
        for name, (kind, *_) in names.items():
            beyond |= _write(f"{sub} {name}", sub, path(name), run(name),
                             check, kind in BYTE_EXACT)
    return beyond


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description="Rewrite the golden corpus.")
    ap.add_argument("--check", action="store_true",
                    help="write no file; exit 1 if any file would be "
                    "beyond bounds")
    args = ap.parse_args()
    sys.exit(1 if rewrite(args.check) and args.check else 0)
