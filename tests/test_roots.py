"""The package's one bracketed root finder, curves.brent_root, against
scipy's brentq, and the import boundary it makes: scipy is loaded only
when an arc-length (ellipse or sampled) generator is built."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq

import torus_billiards as tb
from torus_billiards import curves
from torus_billiards.curves import brent_root
from torus_billiards.errors import NumericsError


def _same(got, want):
    return got == want and math.copysign(1.0, got) == math.copysign(1.0, want)


def _both(calls):
    """brent_root that also runs scipy's brentq on the same call and keeps
    the pair of roots in calls."""
    def root(f, a, b, xtol, rtol):
        got = brent_root(f, a, b, xtol, rtol)
        calls.append((got, brentq(f, a, b, xtol=xtol, rtol=rtol)))
        return got
    return root


def _poly(roots):
    return lambda x: float(np.prod(x - np.asarray(roots)))


CASES = {
    "clustered": (_poly([0.3, 0.3 + 1e-7, 0.3 + 2e-7]), 0.0, 1.0),
    "cluster-of-five": (_poly(0.5 + 1e-4 * np.arange(5)), 0.0, 0.5002 + 3e-5),
    "triple": (_poly([0.7] * 3), -1.0, 2.0),
    "odd-power": (lambda x: (x - 0.2) ** 21, -1.0, 1.0),
    "tiny-values": (lambda x: 1e-310 * math.tanh(40.0 * (x - 0.1)), -1.0, 1.0),
    "root-at-a": (lambda x: x - 0.25, 0.25, 1.0),
    "root-at-b": (lambda x: x - 0.75, 0.0, 0.75),
    "minus-zero-end": (lambda x: x, -0.0, 1.0),
    "minus-zero-value": (lambda x: -0.0 if x == 0.5 else x - 0.5, 0.0, 0.5),
    "root-at-zero": (lambda x: math.sin(x), -1.0, 2.0),
    "wiggly": (lambda x: math.sin(37.0 * x) + 0.3 * x - 0.01, 0.05, 0.13),
}


@pytest.mark.parametrize("xtol,rtol", [(1e-15, 1e-15), (1e-14, 1e-15),
                                       (2e-12, 8.9e-16), (1e-300, 1e-10)])
@pytest.mark.parametrize("name", CASES)
def test_matches_scipy_bit_for_bit(name, xtol, rtol):
    """The same root, or (a root of high multiplicity at a tight
    tolerance) no convergence on both sides."""
    f, a, b = CASES[name]
    try:
        want = brentq(f, a, b, xtol=xtol, rtol=rtol)
    except RuntimeError:
        with pytest.raises(NumericsError, match="not converged"):
            brent_root(f, a, b, xtol, rtol)
        return
    assert _same(brent_root(f, a, b, xtol, rtol), want)


def test_matches_scipy_on_the_ellipse_markers(ellipse_domain, monkeypatch):
    """The zeros of gamma1', gamma2' and h on the arc-length ellipse."""
    calls = []
    monkeypatch.setattr(curves, "brent_root", _both(calls))
    markers = curves.find_markers(ellipse_domain.profile)
    assert len(calls) == 4      # two of gamma2', one of gamma1', one of h
    assert all(_same(got, want) for got, want in calls)
    assert markers.z_h_zeros == ellipse_domain.markers.z_h_zeros


@pytest.mark.parametrize("f,a,b,message", [
    (lambda x: x * x + 1.0, -1.0, 1.0, "no sign change"),
    (lambda x: 1e-200, 0.0, 1.0, "no sign change"),
    (lambda x: -0.0 * x - 1.0, -1.0, 1.0, "no sign change"),
    (lambda x: math.nan, 0.0, 1.0, "NaN"),
    (lambda x: math.nan if x == 1.0 else x, -1.0, 1.0, "NaN"),
    (lambda x: math.nan if 0.0 < x < 0.5 else x - 0.25, -1.0, 2.0, "NaN"),
    (lambda x: 1.0 if x > 0.0 else -1.0, -1.0, 1.0, "not converged"),
], ids=["no-sign-change", "tiny-same-sign", "negative", "nan-at-a",
        "nan-at-b", "nan-inside", "step"])
def test_raises_numerics_error_where_scipy_raises(f, a, b, message):
    with pytest.raises((ValueError, RuntimeError)):
        brentq(f, a, b, xtol=1e-300, rtol=1e-15)
    with pytest.raises(NumericsError, match=message):
        brent_root(f, a, b, 1e-300, 1e-15)


def test_scipy_is_loaded_only_by_arc_length_generators(tmp_path):
    """A fresh interpreter builds the quadric and the generic circle,
    runs a quadric creeping orbit and a CLI badset on the default config
    with no scipy module loaded; building an ellipse then loads scipy."""
    script = f"""
import json, math, sys
import torus_billiards as tb
from torus_billiards import cli

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

dom = tb.CircleTorusDomain()
tb.ToroidalDomain(tb.circle_generator())
n = dom.outward_normal(0.3, 0.0)
v = math.cos(0.01) * dom.phi_hat(0.0) - math.sin(0.01) * n
bounces = len(tb.BilliardEngine(dom).forward_cycles(
    tb.PhaseState(dom.sigma(0.3, 0.0), v), 1.0).events)
code = cli.main(["--out", {str(tmp_path / "badset.txt")!r}, "badset",
                 "--x", "2,0,0", "--samples", "64", "--length", "2"])
before = scipy_modules()
tb.ellipse_generator()
print(json.dumps({{"bounces": bounces, "code": code, "before": before,
                  "after": scipy_modules()}}))
"""
    src = str(Path(tb.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]]
                 if os.environ.get("PYTHONPATH") else [])))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["code"] == 0
    assert out["bounces"] > 1
    assert out["before"] == []
    assert "scipy.integrate" in out["after"]
