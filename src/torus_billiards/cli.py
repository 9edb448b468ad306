"""Batch command-line front end.

Subcommands: simulate, classify-boundary, inflection-map, badset, jacobian,
recurrence-check, coords-check.  Configuration comes from a JSON file
(--config); --seed and --out override it, as do environment variables with
the TORUS_BILLIARDS_ prefix (TORUS_BILLIARDS_SEED, ...) for unset flags.
Every emitted file begins with a metadata record carrying the tool version,
a hash of the effective configuration and the seed, so identical inputs
produce byte-identical outputs.

Exit codes: 0 success, 1 configuration error, usage error or invalid input,
2 numeric failure, 3 identity-suite failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import __version__
from . import analysis, grazing
from .curves import circle_generator, ellipse_generator
from .domain import ToroidalDomain, CircleTorusDomain
from .engine import (DEFAULT_MAX_BOUNCES, BilliardEngine, PhaseState,
                     trajectory_to_jsonl)
from .errors import NonConformingCurveError, TorusBilliardsError
from .orthochart import OrthoChart, identity_suite

ENV_PREFIX = "TORUS_BILLIARDS_"

COORDS_THRESHOLDS = {
    "christoffel_antisymmetry": 1e-15,
    "frame_orthonormality": 1e-12,
    "commutator": 1e-6,
    "laplace_beltrami": 1e-6,
    "zeta": 1e-12,
    "dv_identity": 1e-6,
    "christoffel_generic_match": 1e-6,
}


class ConfigError(Exception):
    pass


DEFAULT_CONFIG = {
    "curve": {"kind": "circle", "R": 2.0, "r": 1.0},
    "tolerances": {"graze_threshold": grazing.DEFAULT_GRAZE_THRESHOLD,
                   "z_h_band": grazing.DEFAULT_ZH_BAND},
    "caps": {"max_bounces": DEFAULT_MAX_BOUNCES},
    "seed": 0,
}

# keys of each config block; "curve" takes the circle and the ellipse keys,
# because the default R and r are merged into every curve block
BLOCK_KEYS = {
    "curve": {"kind", "R", "r", "center", "semi_x", "semi_z"},
    "tolerances": {"graze_threshold", "z_h_band"},
    "caps": {"max_bounces"},
    "simulate": {"x", "v", "t", "length", "direction"},
    "classify_boundary": {"n_tau", "n_theta", "phi"},
    "inflection_map": {"n_tau"},
    "badset": {"x", "eps", "length", "samples"},
    "jacobian": {"t", "x", "v", "s", "h"},
    "recurrence_check": {"x", "v", "length", "inner_only", "gate"},
    "coords_check": {"H", "R1", "R2"},
}
TOP_KEYS = set(BLOCK_KEYS) | {"seed"}


def _merge(base, override):
    out = dict(base)
    for k, v in override.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _merge(out[k], v)
        else:
            out[k] = v
    return out


def _invalid(key, val):
    """What the value of a config block key must be, if val is not; else
    None.  Names are checked where they are read."""
    if key in ("kind", "direction"):
        return None
    if key == "inner_only":
        return None if type(val) is bool else "true or false"
    if key in ("n_tau", "n_theta", "samples", "max_bounces"):
        return None if type(val) is int and val >= 1 else "an integer >= 1"
    if key == "gate":
        ok = type(val) in (int, float) and 0 < val < math.inf
        return None if ok else "a finite number > 0"
    ok = all(type(w) in (int, float) and math.isfinite(w)
             for w in (val if type(val) is list else [val]))
    return None if ok else "a finite number or a list of them"


def load_config(path):
    cfg = DEFAULT_CONFIG
    if path:
        try:
            with open(path) as f:
                user = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            raise ConfigError(f"cannot read config {path}: {e}")
        if not isinstance(user, dict):
            raise ConfigError("config root must be a JSON object")
        unknown = set(user) - TOP_KEYS
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for name in sorted(set(user) & set(BLOCK_KEYS)):
            if not isinstance(user[name], dict):
                raise ConfigError(f"config block {name} must be a JSON object")
            unknown = set(user[name]) - BLOCK_KEYS[name]
            if unknown:
                raise ConfigError(
                    f"unknown keys in config block {name}: {sorted(unknown)}")
        cfg = _merge(cfg, user)
    for name, val in cfg["tolerances"].items():
        top = 1 if name == "graze_threshold" else math.inf
        if type(val) not in (int, float) or not 0 < val < top:
            raise ConfigError(f"tolerance {name} must be a number in (0, {top})")
    for name in BLOCK_KEYS:
        for key, val in cfg.get(name, {}).items():
            want = _invalid(key, val)
            if want:
                raise ValueError(f"{name}.{key} must be {want}, got {val!r}")
    seed = cfg["seed"]
    if type(seed) is not int or not 0 <= seed < 2 ** 64:
        raise ConfigError("seed must be a 64-bit unsigned integer")
    return cfg


def config_hash(cfg):
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def build_domain(cfg):
    # a curve of the wrong shape is invalid input, not a numeric failure
    cur = cfg["curve"]
    kind = cur.get("kind")
    try:
        if kind == "circle":
            return CircleTorusDomain(R=cur.get("R", 2.0), r=cur.get("r", 1.0))
        if kind == "ellipse":
            return ToroidalDomain(ellipse_generator(
                center=cur.get("center", 3.0), semi_x=cur.get("semi_x", 2.0),
                semi_z=cur.get("semi_z", 1.0)))
    except NonConformingCurveError as e:
        raise ValueError(f"curve: {e}") from e
    raise ConfigError(f"unknown curve kind {kind!r}")


def build_engine(cfg):
    dom = build_domain(cfg)
    return BilliardEngine(dom,
                          graze_threshold=cfg["tolerances"]["graze_threshold"],
                          max_bounces=cfg["caps"]["max_bounces"])


def meta_record(cfg):
    return {"record": "meta", "version": __version__,
            "config_hash": config_hash(cfg), "seed": cfg["seed"]}


def emit(lines, out_path):
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _csv(val):
    if isinstance(val, float):
        return repr(val)
    return str(val)


# -- subcommands ----------------------------------------------------------


def cmd_simulate(cfg, args):
    block = cfg.get("simulate")
    if not block or "x" not in block or "v" not in block:
        raise ConfigError("simulate requires a config block with x and v")
    engine = build_engine(cfg)
    state = PhaseState(np.asarray(block["x"], dtype=float),
                       np.asarray(block["v"], dtype=float),
                       float(block.get("t", 0.0)))
    length = float(block.get("length", 10.0))
    direction = block.get("direction", "forward")
    if direction not in ("forward", "backward"):
        raise ConfigError("simulate.direction must be forward or backward")
    run = engine.forward_cycles if direction == "forward" \
        else engine.backward_cycles
    traj = run(state, length)
    lines = [json.dumps(meta_record(cfg), sort_keys=True)]
    lines += trajectory_to_jsonl(traj, engine.domain, seed=cfg["seed"])
    emit(lines, args.out)
    return 0


def cmd_classify_boundary(cfg, args):
    block = cfg.get("classify_boundary", {})
    n_tau = int(block.get("n_tau", 64))
    n_theta = int(block.get("n_theta", 16))
    phi = float(block.get("phi", 0.0))
    dom = build_domain(cfg)
    lines = ["# " + json.dumps(meta_record(cfg), sort_keys=True),
             "tau,theta_dir,class,kappa_n"]
    a, b = dom.profile.period
    for tau in np.linspace(a, b, n_tau, endpoint=False):
        e_az = dom.phi_hat(phi)
        e_m = dom.meridian_tangent(tau, phi)
        x = dom.sigma(tau, phi)
        for th in np.linspace(0.0, 2 * np.pi, n_theta, endpoint=False):
            w = np.cos(th) * e_az + np.sin(th) * e_m
            kn = grazing.normal_curvature(dom, tau, phi, w)
            try:
                cls = grazing.classify(dom, x, w).value
            except TorusBilliardsError:
                cls = "ambiguous"
            lines.append(f"{_csv(float(tau))},{_csv(float(th))},{cls},"
                         f"{_csv(float(kn))}")
    emit(lines, args.out)
    return 0


def cmd_inflection_map(cfg, args):
    block = cfg.get("inflection_map", {})
    n_tau = int(block.get("n_tau", 128))
    dom = build_domain(cfg)
    band = cfg["tolerances"]["z_h_band"]
    m = dom.markers
    lines = ["# " + json.dumps(meta_record(cfg), sort_keys=True),
             "tau,theta,omega_I"]
    for rel in np.linspace(0.0, m.inner_span, n_tau + 2)[1:-1]:
        tau = float(dom.profile.wrap(m.tau1_star + rel))
        if m.dist_to_z_h(dom.profile, tau) <= band:
            continue
        theta = float(grazing.inflection_angle(dom, tau))
        omega = grazing.inflection_momentum(dom, tau)
        lines.append(f"{_csv(tau)},{_csv(theta)},{_csv(omega)}")
    emit(lines, args.out)
    return 0


def cmd_badset(cfg, args):
    block = dict(cfg.get("badset", {}))
    if args.x is not None:
        block["x"] = [float(c) for c in args.x.split(",")]
    if args.eps is not None:
        block["eps"] = [float(c) for c in args.eps.split(",")]
    if args.length is not None:
        block["length"] = args.length
    if args.samples is not None:
        block["samples"] = args.samples
    if "x" not in block:
        raise ConfigError("badset requires a base point x")
    eps = block.get("eps", [0.01])
    if np.isscalar(eps):
        eps = [float(eps)]
    cfg = dict(cfg, badset=block)
    engine = build_engine(cfg)
    rows = analysis.badset_scan(
        engine, np.asarray(block["x"], dtype=float), 0.0,
        [float(d) for d in eps],
        float(block.get("length", 10.0)), int(block.get("samples", 1000)),
        cfg["seed"])
    lines = ["# " + json.dumps(meta_record(cfg), sort_keys=True),
             "delta,fraction,ci95,near_grazing,ring_excluded,"
             "stopped_at_inflection,max_bounces"]
    lines += [",".join(_csv(val) for val in row.values()) for row in rows]
    emit(lines, args.out)
    return 0


def cmd_jacobian(cfg, args):
    block = dict(cfg.get("jacobian", {}))
    if args.state is not None:
        vals = [float(c) for c in args.state.split(",")]
        if len(vals) != 7:
            raise ConfigError("--state wants t,x1,x2,x3,v1,v2,v3")
        block["t"], block["x"], block["v"] = vals[0], vals[1:4], vals[4:7]
    if args.s is not None:
        block["s"] = args.s
    if args.h is not None:
        block["h"] = args.h
    for key in ("t", "x", "v", "s"):
        if key not in block:
            raise ConfigError(f"jacobian requires {key}")
    cfg = dict(cfg, jacobian=block)
    engine = build_engine(cfg)
    res = analysis.jacobian_det(engine, float(block["t"]),
                                np.asarray(block["x"], dtype=float),
                                np.asarray(block["v"], dtype=float),
                                float(block["s"]),
                                h=float(block.get("h", 1e-5)))
    lines = [json.dumps(meta_record(cfg), sort_keys=True),
             json.dumps({"record": "jacobian", "det": res.det,
                         "rel_spread": res.rel_spread}, sort_keys=True)]
    emit(lines, args.out)
    return 0


def cmd_recurrence_check(cfg, args):
    block = cfg.get("recurrence_check")
    if not block or "x" not in block or "v" not in block:
        raise ConfigError("recurrence-check requires a config block with x, v")
    engine = build_engine(cfg)
    state = PhaseState(np.asarray(block["x"], dtype=float),
                       np.asarray(block["v"], dtype=float))
    traj = engine.forward_cycles(state, float(block.get("length", 50.0)))
    recs = analysis.recurrence_residuals(
        engine.domain, traj,
        inner_only=block.get("inner_only", True),
        gate=float(block.get("gate", 0.1)),
        z_h_band=cfg["tolerances"]["z_h_band"])
    lines = ["# " + json.dumps(meta_record(cfg), sort_keys=True),
             "i,d_tau,d_phi,r1,r2"]
    for r in recs:
        lines.append(f"{r['i']},{_csv(r['d_tau'])},{_csv(r['d_phi'])},"
                     f"{_csv(r['r1'])},{_csv(r['r2'])}")
    emit(lines, args.out)
    return 0


def cmd_coords_check(cfg, args):
    block = cfg.get("coords_check", {})
    chart = OrthoChart(H=float(block.get("H", 2 * np.pi)),
                       R1=float(block.get("R1", 1.0)),
                       R2=float(block.get("R2", 3.0)))
    res = identity_suite(chart, seed=cfg["seed"] + 7)
    lines = ["# " + json.dumps(meta_record(cfg), sort_keys=True),
             "identity,residual,threshold,pass"]
    ok = True
    for name, val in sorted(res.items()):
        thr = COORDS_THRESHOLDS[name]
        good = val < thr
        ok = ok and good
        lines.append(f"{name},{_csv(float(val))},{_csv(float(thr))},"
                     f"{'yes' if good else 'NO'}")
    emit(lines, args.out)
    return 0 if ok else 3


# -- dispatch -------------------------------------------------------------


def build_parser():
    p = argparse.ArgumentParser(
        prog="torus-billiards",
        description="Billiard dynamics in solid-torus domains of revolution.")
    p.add_argument("--config", help="JSON configuration file")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--out", help="output path (default: stdout)")
    sub = p.add_subparsers(dest="cmd", required=True)
    for name in ("simulate", "classify-boundary", "inflection-map",
                 "recurrence-check", "coords-check"):
        sub.add_parser(name)
    pb = sub.add_parser("badset")
    pb.add_argument("--x", help="base point, comma separated")
    pb.add_argument("--eps", help="grazing threshold(s), comma separated")
    pb.add_argument("--length", type=float)
    pb.add_argument("--samples", type=int)
    pj = sub.add_parser("jacobian")
    pj.add_argument("--state", help="t,x1,x2,x3,v1,v2,v3")
    pj.add_argument("--s", type=float)
    pj.add_argument("--h", type=float)
    return p


HANDLERS = {
    "simulate": cmd_simulate,
    "classify-boundary": cmd_classify_boundary,
    "inflection-map": cmd_inflection_map,
    "badset": cmd_badset,
    "jacobian": cmd_jacobian,
    "recurrence-check": cmd_recurrence_check,
    "coords-check": cmd_coords_check,
}


def _apply_env(args):
    for name, cast in (("CONFIG", str), ("SEED", int), ("OUT", str)):
        val = os.environ.get(ENV_PREFIX + name)
        attr = name.lower()
        if val is not None and getattr(args, attr) is None:
            try:
                setattr(args, attr, cast(val))
            except ValueError:
                raise ConfigError(f"bad value for {ENV_PREFIX}{name}: {val!r}")


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:   # argparse printed the help or a usage error
        return 1 if e.code else 0
    try:
        _apply_env(args)
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg = dict(cfg, seed=args.seed)
            if not 0 <= cfg["seed"] < 2 ** 64:
                raise ConfigError("seed must be a 64-bit unsigned integer")
        return HANDLERS[args.cmd](cfg, args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except TorusBilliardsError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 2
    except (TypeError, ValueError, OverflowError) as e:
        # a config value of the wrong JSON type, or one out of range
        print(f"invalid input: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
