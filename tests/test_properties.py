"""Property tests of the generic signed-distance indicator, of the bad-set
tracer's march and of the configuration reader.

The examples are derandomized, so a run is repeatable; each property draws
at most 200 examples.
"""

import copy
import functools
import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import torus_billiards as tb
from torus_billiards.analysis import _sample_directions, _trace_min_graze
from torus_billiards.cli import BLOCK_KEYS, HANDLERS, main

from oracles import clamped_march_xi

PROPERTY = settings(derandomize=True, max_examples=200, deadline=None)
# away from these sets the closed forms keep their digits: the gradient
# direction loses them in 1 / distance to the tube's centre line, and the
# azimuthal components in 1 / rho
MARGIN = 1e-3


def points(xy, z):
    return st.tuples(st.floats(-xy, xy), st.floats(-xy, xy),
                     st.floats(-z, z)).map(np.array)


@PROPERTY
@given(p=points(3.5, 1.5))
def test_generic_circle_xi_is_quadric_distance(circle_domain,
                                               generic_circle_domain, p):
    """The closed-form circle torus and the generic indicator on the same
    generator agree on xi, its unit gradient and the march rule."""
    rho = np.hypot(p[0], p[1])
    assume(np.hypot(rho - 2.0, p[2]) > MARGIN and rho > MARGIN)
    assert abs(float(generic_circle_domain.xi(p))
               - float(circle_domain.xi(p))) <= 1e-12
    g = circle_domain.grad_xi(p)
    assert np.abs(generic_circle_domain.grad_xi(p) - g).max() <= 1e-12
    assert abs(np.linalg.norm(g) - 1.0) <= 1e-12
    for name in ("blip_tol", "march_step", "diameter"):
        a = getattr(circle_domain, name)
        assert abs(getattr(generic_circle_domain, name) - a) <= np.spacing(a)


@PROPERTY
@given(p=points(5.5, 1.5))
def test_ellipse_grad_xi_is_unit(ellipse_domain, p):
    rho = np.hypot(p[0], p[1])
    # the medial axis of the generator (3 + a cos t, b sin t), a = 2, b = 1,
    # is the segment z = 0, |rho - 3| <= (a^2 - b^2) / a = 3/2
    assume(abs(p[2]) > MARGIN or abs(rho - 3.0) > 1.5 + MARGIN)
    assume(rho > MARGIN)
    assert abs(np.linalg.norm(ellipse_domain.grad_xi(p)) - 1.0) <= 1e-12


@pytest.fixture(scope="module")
def march_domains(generic_circle_domain, ellipse_domain,
                  tilted_ellipse_domain):
    """The generic circle, the ellipse, a 64-point sampled circle and the
    tilted ellipse without mirror symmetry."""
    t = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    circle = np.stack([2.0 + np.cos(t), np.sin(t)], axis=-1)
    return [generic_circle_domain, ellipse_domain,
            tb.ToroidalDomain(tb.curve_from_samples(circle)),
            tilted_ellipse_domain]


unit = st.floats(0.0, 1.0)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(k=st.integers(0, 3), box=st.tuples(unit, unit, unit),
       tau=unit, phi=unit, depth=st.floats(-6.0, -1.0),
       outward=st.booleans())
def test_march_xi_agrees_with_xi(march_domains, k, box, tau, phi, depth,
                                 outward):
    """On a point of the bounding box and one within 1e-6 to 1e-1 of the
    boundary, march_xi and xi have the same sign and the same side of
    -blip_tol, and are equal where march_xi lies in (-blip_tol, 0]."""
    dom = march_domains[k]
    prof = dom.profile
    g = prof.eval(np.linspace(*prof.period, 256, endpoint=False))
    lo = np.array([-g[:, 0].max(), -g[:, 0].max(), g[:, 1].min()]) - 0.2
    hi = np.array([g[:, 0].max(), g[:, 0].max(), g[:, 1].max()]) + 0.2
    t = prof.period[0] + tau * prof.period_length
    d = (1.0 if outward else -1.0) * 10.0 ** depth
    rz = prof.eval(t) + d * dom.outward_normal(t, 0.0)[[0, 2]]
    a = 2.0 * np.pi * phi
    p = np.array([lo + np.array(box) * (hi - lo),
                  [rz[0] * np.cos(a), rz[0] * np.sin(a), rz[1]]])
    got, want = dom.march_xi(p), dom.xi(p)
    tol = dom.blip_tol
    assert np.array_equal(np.sign(got), np.sign(want))
    assert np.array_equal(got > -tol, want > -tol)
    band = (got > -tol) & (got <= 0.0)
    assert np.array_equal(got[band], want[band])


@pytest.mark.parametrize("k", range(4),
                         ids=["quadric", "generic", "ellipse", "tilted"])
@settings(derandomize=True, max_examples=12, deadline=None)
@given(tau=unit, phi=unit,
       depth=st.sampled_from([0.0, 1e-9, 1e-6, 1e-3, 0.1, 0.4]),
       seed=st.integers(0, 2**16), L=st.floats(0.2, 1.5))
def test_tracer_jump_is_invisible(circle_domain, generic_circle_domain,
                                  ellipse_domain, tilted_ellipse_domain, k,
                                  tau, phi, depth, seed, L):
    """From a base point on the boundary, within 1e-6 of it or deeper
    inside (depth along the inward normal), the tracer's outputs equal
    those of the march that reads every point."""
    dom = [circle_domain, generic_circle_domain, ellipse_domain,
           tilted_ellipse_domain][k]
    prof = dom.profile
    t = prof.period[0] + tau * prof.period_length
    a = 2.0 * np.pi * phi
    x = dom.sigma(t, a) - depth * dom.outward_normal(t, a)
    dirs = _sample_directions(seed, 0, 4)
    # the cap bounds the cost of a ray that creeps along the wall
    got = _trace_min_graze(dom, x, dirs, L, max_bounces=50)
    dom.march_xi = functools.partial(clamped_march_xi, dom)
    try:
        want = _trace_min_graze(dom, x, dirs, L, max_bounces=50)
    finally:
        del dom.march_xi
    for u, v in zip(got, want):
        assert np.array_equal(u, v)


# -- configuration fuzz ------------------------------------------------------

# a small valid block for each subcommand; numbers drawn below are bounded so
# that every run stays short (the cap keeps a simulated orbit to 50 bounces)
FUZZ_BASE = {
    "caps": {"max_bounces": 50},
    "simulate": {"x": [2.0, 0.0, 0.0], "v": [0.3, 0.9, 0.2], "length": 3.0},
    "classify_boundary": {"n_tau": 2, "n_theta": 2},
    "inflection_map": {"n_tau": 4},
    "badset": {"x": [2.0, 0.0, 0.0], "eps": [0.05], "length": 2.0,
               "samples": 8},
    "jacobian": {"t": 1.0, "x": [2.0, 0.0, 0.0], "v": [0.3, 0.2, 0.1],
                 "s": -1.0},
    "recurrence_check": {"x": [2.0, 0.0, 0.0], "v": [0.1, 0.9, 0.2],
                         "length": 3.0},
}
FUZZ_PATHS = [("seed",)] + [(block,) for block in sorted(BLOCK_KEYS)] + [
    (block, key) for block in sorted(BLOCK_KEYS)
    for key in sorted(BLOCK_KEYS[block])]
# a small alphabet: strings may spell numbers ("1e1"), and drawing them
# needs no Unicode tables, which take seconds to build on a first run
text = st.text("ab1.-e", max_size=4)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | text
    | st.floats(-10.0, 10.0).filter(lambda f: f == 0.0 or abs(f) >= 1e-2)
    | st.sampled_from([float("nan"), float("inf"), float("-inf")]),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(text, inner, max_size=3)),
    max_leaves=6)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(derandomize=True, max_examples=100, deadline=None)
@given(path=st.sampled_from(FUZZ_PATHS), value=json_values)
def test_config_values_never_raise(fuzz_dir, path, value):
    cfg = copy.deepcopy(FUZZ_BASE)
    if len(path) == 1:
        cfg[path[0]] = value
    else:
        cfg.setdefault(path[0], {})[path[1]] = value
    cmd = path[0].replace("_", "-")
    if cmd not in HANDLERS:
        cmd = "simulate"
    conf = fuzz_dir / "config.json"
    conf.write_text(json.dumps(cfg))
    code = main(["--config", str(conf), "--out", str(fuzz_dir / "out"), cmd])
    # coords-check exits 3 when an identity misses its threshold
    assert code in ((0, 1, 2, 3) if cmd == "coords-check" else (0, 1, 2))
