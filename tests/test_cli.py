import json

import numpy as np
import pytest

import torus_billiards as tb
from torus_billiards import analysis
from torus_billiards.cli import main, load_config, config_hash, ConfigError
from torus_billiards.orthochart import OrthoChart

SQRT3 = np.sqrt(3.0)


def write_config(tmp_path, cfg, name="config.json"):
    """Write cfg as JSON, or as it is if it is a string."""
    path = tmp_path / name
    path.write_text(cfg if isinstance(cfg, str) else json.dumps(cfg))
    return str(path)


def run(tmp_path, cfg, argv, name="out.txt"):
    out = tmp_path / name
    code = main(["--config", write_config(tmp_path, cfg), "--out", str(out)]
                + argv)
    text = out.read_text() if out.exists() else ""
    return code, text


# -- configuration ---------------------------------------------------------


def test_load_config_defaults():
    cfg = load_config(None)
    assert cfg["curve"]["kind"] == "circle"
    assert cfg["seed"] == 0


def test_load_config_rejects_unknown_keys(tmp_path):
    path = write_config(tmp_path, {"curve": {}, "bogus": 1})
    with pytest.raises(ConfigError):
        load_config(path)
    # keys inside each block, and blocks that are not JSON objects
    for cfg, name in [({"badset": {"x": [2, 0, 0], "sample": 5}}, "sample"),
                      ({"curve": {"kind": "ellipse", "semi_y": 1}}, "semi_y"),
                      ({"tolerances": {"graze": 1e-6}}, "graze"),
                      ({"caps": 5}, "caps"),
                      ({"simulate": [2, 0, 0]}, "simulate")]:
        with pytest.raises(ConfigError, match=name):
            load_config(write_config(tmp_path, cfg))


def test_load_config_rejects_bad_seed(tmp_path):
    path = write_config(tmp_path, {"seed": -1})
    with pytest.raises(ConfigError):
        load_config(path)
    path = write_config(tmp_path, {"seed": 1.5})
    with pytest.raises(ConfigError):
        load_config(path)


@pytest.mark.parametrize("value", [0.0, 2])
def test_load_config_rejects_bad_tolerance(tmp_path, value):
    path = write_config(tmp_path, {"tolerances": {"graze_threshold": value}})
    with pytest.raises(ConfigError):
        load_config(path)


def test_load_config_accepts_every_curve_key(tmp_path):
    path = write_config(tmp_path, {"curve": {"kind": "ellipse", "center": 3.0,
                                             "semi_x": 2.0, "semi_z": 1.0}})
    assert load_config(path)["curve"]["semi_x"] == 2.0


def test_misspelled_block_key_exit_code(tmp_path, capsys):
    # used to run the default 1000 samples with exit 0
    code, text = run(tmp_path, {"badset": {"x": [2, 0, 0], "sample": 5}},
                     ["badset"])
    assert code == 1
    assert text == ""
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "'sample'" in err


def test_config_hash_canonical():
    a = config_hash({"b": 1, "a": 2})
    b = config_hash({"a": 2, "b": 1})
    assert a == b and len(a) == 16


def test_bad_config_exit_code(tmp_path):
    code, _ = run(tmp_path, {"bogus": 1}, ["simulate"])
    assert code == 1


def test_missing_block_exit_code(tmp_path):
    code, _ = run(tmp_path, {}, ["simulate"])
    assert code == 1


def test_unknown_curve_kind_exit_code(tmp_path):
    cfg = {"curve": {"kind": "square"},
           "simulate": {"x": [2, 0, 0], "v": [1, 0, 0]}}
    code, _ = run(tmp_path, cfg, ["simulate"])
    assert code == 1


# -- simulate --------------------------------------------------------------


def triangle_config():
    return {"simulate": {"x": [3.0, 0.0, 0.0],
                         "v": [-SQRT3 / 2, 0.5, 0.0],
                         "length": 9 * SQRT3,
                         "direction": "forward"}}


def test_simulate_triangle(tmp_path):
    code, text = run(tmp_path, triangle_config(), ["simulate"])
    assert code == 0
    lines = text.strip().split("\n")
    meta = json.loads(lines[0])
    assert meta["record"] == "meta"
    assert {"version", "config_hash", "seed"} <= set(meta)
    header = json.loads(lines[1])
    assert header["record"] == "header"
    assert header["status"] == "completed"
    assert header["winding"] == pytest.approx(1.0, abs=1e-9)
    bounces = [json.loads(s) for s in lines[2:]]
    assert len(bounces) == 3
    assert all(b["record"] == "bounce" for b in bounces)


def test_simulate_backward(tmp_path):
    cfg = {"simulate": {"x": [2.0, 0.0, 0.0], "v": [1.0, 0.0, 0.0],
                        "length": 3.0, "direction": "backward"}}
    code, text = run(tmp_path, cfg, ["simulate"])
    assert code == 0
    header = json.loads(text.strip().split("\n")[1])
    assert header["direction"] == -1


def test_simulate_bad_direction(tmp_path):
    cfg = {"simulate": {"x": [2, 0, 0], "v": [1, 0, 0],
                        "direction": "sideways"}}
    code, _ = run(tmp_path, cfg, ["simulate"])
    assert code == 1


BADSET_ARGV = ["badset", "--x", "2,0,0", "--samples", "8", "--length", "1"]


@pytest.mark.parametrize("cfg,argv", [
    ({"tolerances": {"graze_threshold": "abc"}}, ["inflection-map"]),
    ({"curve": {"kind": "circle", "R": "2"}}, ["inflection-map"]),
    ({"classify_boundary": {"n_tau": None}}, ["classify-boundary"]),
    ({"caps": {"max_bounces": [1]},
      "simulate": {"x": [2.0, 0.0, 0.0], "v": [1.0, 0.0, 0.0]}}, ["simulate"]),
    ({"seed": True}, ["inflection-map"]),
    ({"curve": {"kind": "ellipse", "semi_x": "2"}}, ["inflection-map"]),
    ({"curve": {"kind": "circle", "R": True}}, ["inflection-map"]),
    ({"curve": {"kind": "circle", "R": float("inf")}}, ["inflection-map"]),
    ({"caps": {"max_bounces": 0}}, BADSET_ARGV),
    ({"caps": {"max_bounces": True}}, BADSET_ARGV),
    ({"caps": {"max_bounces": -1},
      "simulate": {"x": [2.0, 0.0, 0.0], "v": [1.0, 0.0, 0.0]}}, ["simulate"]),
    ({"tolerances": {"graze_threshold": 2}}, BADSET_ARGV),
    ({"classify_boundary": {"n_tau": 2.7}}, ["classify-boundary"]),
    ({"simulate": {"x": ["2", 0.0, 0.0], "v": [1.0, 0.0, 0.0]}},
     ["simulate"]),
    ({"badset": {"eps": [0.1, "0.2"]}}, BADSET_ARGV),
    ({"badset": {"eps": []}}, BADSET_ARGV),
    ({"recurrence_check": {"x": [2.0, 0.0, 0.0], "v": [0.1, 0.9, 0.2],
                           "inner_only": "false"}}, ["recurrence-check"]),
    ({"recurrence_check": {"x": [2.0, 0.0, 0.0], "v": [0.1, 0.9, 0.2],
                           "inner_only": 0}}, ["recurrence-check"]),
    ({"recurrence_check": {"x": [2.0, 0.0, 0.0], "v": [0.1, 0.9, 0.2],
                           "gate": 0}}, ["recurrence-check"]),
    ({"recurrence_check": {"x": [2.0, 0.0, 0.0], "v": [0.1, 0.9, 0.2],
                           "gate": -1}}, ["recurrence-check"]),
    ({"curve": {"kind": "circle", "R": 1.0, "r": 2.0}}, ["inflection-map"]),
    ({"curve": {"kind": "circle", "r": -1}}, ["inflection-map"]),
    ({"curve": {"kind": "ellipse", "center": 0.5}}, ["inflection-map"]),
    ({"badset": {"phi": 0.0}}, BADSET_ARGV),
    ({}, BADSET_ARGV + ["--eps", "1.5"]),
    ({"badset": {"eps": [0.05, 1.0]}}, BADSET_ARGV),
    ({}, ["--config", "no-such-dir/config.json", "inflection-map"]),
    ("{\"seed\": ", ["inflection-map"]),
    ([{"seed": 1}], ["inflection-map"]),
    ({}, ["--seed", "-1", "inflection-map"]),
    ({}, ["--seed", str(2 ** 64), "inflection-map"]),
    ({}, ["TORUS_BILLIARDS_SEED=abc", "inflection-map"]),
], ids=["string-tolerance", "string-radius", "null-count", "list-cap",
        "boolean-seed", "string-semi-axis", "boolean-radius",
        "infinite-radius", "zero-cap", "boolean-cap", "negative-cap",
        "threshold-above-one", "fractional-count", "string-coordinate",
        "string-eps", "empty-eps", "string-flag", "integer-flag",
        "zero-gate", "negative-gate", "tube-past-axis", "negative-radius",
        "ellipse-past-axis", "badset-phi", "eps-flag-above-one",
        "eps-config-at-one", "missing-config",
        "malformed-json", "list-root", "negative-seed-flag",
        "seed-flag-past-64-bits", "string-seed-env"])
def test_wrong_json_type_exit_code(tmp_path, monkeypatch, capsys, cfg, argv):
    # each of the first 26 ended in a traceback, was accepted (an empty eps
    # list traced every sample, then wrote no row; a gate of 0 wrote no
    # row; a badset phi was never read; an eps of 1 or more counted every
    # bouncing sample near grazing), or (a radius of true, a curve of
    # the wrong shape) exited 2 as a numeric failure; the rest are the
    # config errors of an unreadable file, a bad seed flag and a bad
    # environment value.  Leading NAME=value items set the environment.
    while "=" in argv[0]:
        monkeypatch.setenv(*argv[0].split("=", 1))
        argv = argv[1:]
    code, text = run(tmp_path, cfg, argv)
    assert code == 1
    assert text == ""
    err = capsys.readouterr().err
    assert err.startswith(("config error: ", "invalid input: "))
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv,want", [
    (["badset", "--x", "2,0,0", "--samples", "abc"], 1),
    (["no-such-command"], 1),
    (["--help"], 0),
    (["badset", "--help"], 0),
], ids=["string-samples", "unknown-subcommand", "help", "subcommand-help"])
def test_usage_exit_code(capsys, argv, want):
    # a usage error exited 2, the code of a numeric failure
    assert main(argv) == want
    out = capsys.readouterr()
    assert (out.err if want else out.out).startswith("usage: ")


# -- scan subcommands ------------------------------------------------------


def test_classify_boundary(tmp_path):
    cfg = {"classify_boundary": {"n_tau": 8, "n_theta": 4}}
    code, text = run(tmp_path, cfg, ["classify-boundary"])
    assert code == 0
    lines = text.strip().split("\n")
    assert lines[0].startswith("# ")
    assert lines[1] == "tau,theta_dir,class,kappa_n"
    rows = [l.split(",") for l in lines[2:]]
    assert len(rows) == 8 * 4
    classes = {r[2] for r in rows}
    assert classes <= {"convex", "concave", "inflection+", "inflection-",
                       "ambiguous"}
    assert "convex" in classes and "concave" in classes


def test_inflection_map(tmp_path):
    cfg = {"inflection_map": {"n_tau": 16}}
    code, text = run(tmp_path, cfg, ["inflection-map"])
    assert code == 0
    lines = text.strip().split("\n")
    assert lines[1] == "tau,theta,omega_I"
    for row in lines[2:]:
        tau, theta, omega = map(float, row.split(","))
        assert 0.0 < theta < np.pi / 2
        assert omega > 0.0


def test_recurrence_check(tmp_path):
    cfg = {"recurrence_check": {"x": [2.0, 0.0, 0.0],
                                "v": [0.1, 0.9, 0.2], "length": 30.0}}
    code, text = run(tmp_path, cfg, ["recurrence-check"])
    assert code == 0
    assert text.strip().split("\n")[1] == "i,d_tau,d_phi,r1,r2"


def test_recurrence_check_reads_z_h_band(tmp_path):
    # an orbit creeping along the inner region near tau = 2 pi / 3; every
    # tau of the circle lies within 4 of its one zero of h, pi
    dom = tb.CircleTorusDomain()
    tau = 2.0 * np.pi / 3.0
    d = tb.inflection_directions(dom, tau, 0.0)
    v = np.cos(0.1) * d.I1 + np.sin(0.1) * dom.phi_hat(0.0)
    block = {"x": dom.sigma(tau, 0.0).tolist(), "v": v.tolist(), "length": 3.0}
    rows = []
    for band in (1e-3, 4.0):
        cfg = {"recurrence_check": block, "tolerances": {"z_h_band": band}}
        code, text = run(tmp_path, cfg, ["recurrence-check"])
        assert code == 0
        rows.append(len(text.strip().split("\n")) - 2)
    assert rows[0] > 0
    assert rows[1] == 0


def test_recurrence_check_inner_only_flag(tmp_path):
    # an orbit creeping in the outer region: inner_only keeps none of its
    # bounces, and the string "false" was read as true
    dom = tb.CircleTorusDomain()
    v = (np.cos(0.05) * dom.phi_hat(0.0)
         - np.sin(0.05) * dom.outward_normal(0.3, 0.0))
    block = {"x": dom.sigma(0.3, 0.0).tolist(), "v": v.tolist(),
             "length": 10.0, "gate": 0.5}
    rows = {}
    for flag in (True, False):
        code, text = run(tmp_path, {"recurrence_check": dict(
            block, inner_only=flag)}, ["recurrence-check"])
        assert code == 0
        rows[flag] = len(text.strip().split("\n")) - 2
    assert rows[False] > rows[True]


def test_jacobian_cli(tmp_path):
    code, text = run(tmp_path, {}, ["jacobian",
                                    "--state", "1,2,0,0,0.3,0.2,0.1",
                                    "--s", "-1"])
    assert code == 0
    rec = json.loads(text.strip().split("\n")[1])
    assert rec["record"] == "jacobian"
    assert abs(rec["det"]) == pytest.approx(8.0, rel=1e-6)


def test_jacobian_cli_missing_state(tmp_path):
    code, _ = run(tmp_path, {}, ["jacobian", "--s", "-1"])
    assert code == 1


@pytest.mark.parametrize("h", ["0", "nan"])
def test_jacobian_invalid_step_exit_code(tmp_path, capsys, h):
    # --h 0 wrote {"det": NaN, ...}, which is not JSON, with exit 0
    code, text = run(tmp_path, {}, ["jacobian",
                                    "--state", "1,2,0,0,0.3,0.2,0.1",
                                    "--s", "-1", "--h", h])
    assert code == 1
    assert text == ""
    err = capsys.readouterr().err
    assert err.startswith("invalid input: ") and err.count("\n") == 1


# -- badset ----------------------------------------------------------------


def test_badset_flags_and_determinism(tmp_path):
    argv = ["badset", "--x", "2,0,0", "--eps", "0.05,0.02",
            "--length", "4", "--samples", "600"]
    code1, text1 = run(tmp_path, {}, argv, name="a.csv")
    code2, text2 = run(tmp_path, {}, argv, name="b.csv")
    assert code1 == code2 == 0
    assert text1 == text2
    lines = text1.strip().split("\n")
    assert lines[1].startswith("delta,fraction,ci95")
    assert len(lines) == 4
    for row in lines[2:]:
        cols = row.split(",")
        floats = [float(c) for c in cols[:3]]   # fails on a numpy repr
        counts = [int(c) for c in cols[3:]]
        assert len(counts) == 4 and floats[2] > 0.0
    d1 = float(lines[2].split(",")[1])
    d2 = float(lines[3].split(",")[1])
    assert d1 >= d2   # larger threshold, larger bad fraction


def test_badset_traces_each_sample_once(tmp_path, monkeypatch):
    calls = []
    trace = analysis._trace_min_graze

    def counting(domain, x0, dirs, L, **kwargs):
        calls.append(len(dirs))
        return trace(domain, x0, dirs, L, **kwargs)

    monkeypatch.setattr(analysis, "_trace_min_graze", counting)
    code, text = run(tmp_path, {}, ["badset", "--x", "2,0,0",
                                    "--eps", "0.02,0.01,0.005",
                                    "--length", "2", "--samples", "2000"])
    assert code == 0
    assert len(text.strip().split("\n")) == 2 + 3
    assert calls == [2000]     # one batch of at most BADSET_BATCH rays


def test_badset_honours_cap_and_graze_threshold(tmp_path, circle_domain):
    """caps.max_bounces and tolerances.graze_threshold reach the tracer,
    and the counts are the statuses of the engine's backward runs."""
    argv = ["badset", "--x", "2,0,0", "--length", "20", "--samples", "200",
            "--eps", "0.001"]

    def row(cfg):
        code, text = run(tmp_path, cfg, argv)
        assert code == 0
        header, values = text.split("\n")[1:3]
        return dict(zip(header.split(","), values.split(",")))

    capped_row = row({"caps": {"max_bounces": 2},
                      "tolerances": {"graze_threshold": 0.6}})
    assert float(capped_row["fraction"]) == 1.0
    engine = tb.BilliardEngine(circle_domain, graze_threshold=0.6,
                               max_bounces=2)
    statuses = [engine.backward_cycles(tb.PhaseState([2.0, 0.0, 0.0], d),
                                       20.0).status
                for d in analysis._sample_directions(0, 0, 200)]
    capped = statuses.count(tb.TrajectoryStatus.MAX_BOUNCES_REACHED)
    assert capped > 0
    assert int(capped_row["max_bounces"]) == capped
    assert int(capped_row["stopped_at_inflection"]) == 200 - capped
    # the threshold alone stops some runs
    stopped_row = row({"tolerances": {"graze_threshold": 0.6}})
    assert int(stopped_row["stopped_at_inflection"]) > 0


def _meta_hash(text):
    return json.loads(text.split("\n")[0].lstrip("# "))["config_hash"]


def test_config_hash_tracks_flag_overrides(tmp_path):
    badset = ["badset", "--x", "2,0,0", "--length", "1", "--samples", "16"]
    _, a = run(tmp_path, {}, badset + ["--eps", "0.02"], name="a.csv")
    _, b = run(tmp_path, {}, badset + ["--eps", "0.05"], name="b.csv")
    _, c = run(tmp_path, {}, badset + ["--eps", "0.02"], name="c.csv")
    assert _meta_hash(a) != _meta_hash(b)
    assert _meta_hash(a) == _meta_hash(c)
    jac = ["jacobian", "--state", "1,2,0,0,0.3,0.2,0.1"]
    _, d = run(tmp_path, {}, jac + ["--s", "-1"], name="d.json")
    _, e = run(tmp_path, {}, jac + ["--s", "-0.5"], name="e.json")
    assert _meta_hash(d) != _meta_hash(e)


def test_badset_requires_base_point(tmp_path):
    code, _ = run(tmp_path, {}, ["badset"])
    assert code == 1


def test_badset_seed_changes_output(tmp_path):
    argv = ["badset", "--x", "2,0,0", "--eps", "0.05", "--samples", "600"]
    _, base = run(tmp_path, {}, argv, name="c.csv")
    code, other = run(tmp_path, {}, ["--seed", "5"] + argv, name="d.csv")
    assert code == 0
    assert json.loads(other.split("\n")[0][2:])["seed"] == 5
    assert base != other


def test_seed_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("TORUS_BILLIARDS_SEED", "99")
    argv = ["badset", "--x", "2,0,0", "--eps", "0.05", "--samples", "128"]
    code, text = run(tmp_path, {}, argv)
    assert code == 0
    assert json.loads(text.split("\n")[0][2:])["seed"] == 99
    code, text = run(tmp_path, {}, ["--seed", "1"] + argv)
    assert code == 0
    assert json.loads(text.split("\n")[0][2:])["seed"] == 1


@pytest.mark.parametrize("flags", [
    ["--x", "9,0,0"],          # outside the domain: was fraction 1.0, exit 0
    ["--x", "nan,0,0"],        # was fraction 0.0, exit 0
    ["--eps", "-1"],           # was accepted
    ["--samples", "0"],        # was a traceback
    ["--length", "nan"],       # was an endless march
    ["--eps", "0.01,-1"],      # was rejected only after tracing
], ids=["outside", "nan-x", "negative-eps", "zero-samples", "nan-length",
        "negative-second-eps"])
def test_badset_invalid_input_exit_code(tmp_path, monkeypatch, capsys, flags):
    def never(*args, **kwargs):
        raise AssertionError("traced a sample of an invalid input")

    if "--length" in flags or "--eps" in flags:
        # the length and the thresholds are checked before any sample is
        # traced, so a NaN length cannot start the march that never ends
        # and a bad threshold costs no tracing
        monkeypatch.setattr(analysis, "_trace_min_graze", never)
    argv = ["badset", "--x", "2,0,0", "--eps", "0.05", "--length", "4",
            "--samples", "64"] + flags
    code, text = run(tmp_path, {}, argv)
    assert code == 1
    assert text == ""
    err = capsys.readouterr().err
    assert err.startswith("invalid input: ") and err.count("\n") == 1


def test_badset_base_point_boundary_band(tmp_path, capsys, circle_domain):
    """Base points up to BOUNDARY_BAND outside are on the boundary and are
    traced; one with xi = 2e-9 lies outside and exits 1."""
    x = circle_domain.sigma(np.linspace(0.0, 2.0 * np.pi, 40,
                                        endpoint=False)[12], 0.3)
    assert 0.0 < float(circle_domain.xi(x)) <= 1e-9
    argv = ["badset", "--eps", "0.05", "--length", "1", "--samples", "16",
            "--x", ",".join(repr(float(c)) for c in x)]
    code, text = run(tmp_path, {}, argv)
    assert code == 0
    assert len(text.splitlines()) == 3
    # xi = 2.5e-10: the rays that leave it at once bounce in place
    code, text = run(tmp_path, {}, argv[:-1] + ["3.00000000025,0,0"],
                     name="band.txt")
    assert code == 0
    assert len(text.splitlines()) == 3
    assert float(circle_domain.xi([3.000000002, 0.0, 0.0])) == pytest.approx(
        2e-9, rel=1e-6)
    code, text = run(tmp_path, {}, argv[:-1] + ["3.000000002,0,0"],
                     name="outside.txt")
    assert code == 1
    assert text == ""
    assert capsys.readouterr().err.startswith("invalid input: ")


@pytest.mark.parametrize("block", [
    {"length": float("nan")},           # was a completed run of length 0
    {"length": -3.0},                   # was a completed run of length 0
    {"v": [float("nan"), 0.5, 0.0]},    # wrote NaN into the header
    {"t": float("nan")},                # wrote NaN into every record
    {"x": {"a": 1}},                    # was a traceback
    {"x": [2.0, 0.0]},                  # was a traceback
], ids=["nan-length", "negative-length", "nan-velocity", "nan-time",
        "object-position", "short-position"])
def test_simulate_invalid_input_exit_code(tmp_path, capsys, block):
    cfg = {"simulate": dict({"x": [2.0, 0.0, 0.0], "v": [1.0, 0.0, 0.0]},
                            **block)}
    code, text = run(tmp_path, cfg, ["simulate"])
    assert code == 1
    assert text == ""
    err = capsys.readouterr().err
    assert err.startswith("invalid input: ") and err.count("\n") == 1


# -- coords-check ----------------------------------------------------------


def test_coords_check_passes(tmp_path):
    code, text = run(tmp_path, {}, ["coords-check"])
    assert code == 0
    lines = text.strip().split("\n")
    assert lines[1] == "identity,residual,threshold,pass"
    assert all(row.endswith(",yes") for row in lines[2:])
    assert len(lines) == 2 + 7


def test_coords_check_degenerate_chart_exit_code(tmp_path, capsys):
    # H = 0 gave NaN residuals that every identity reported as "yes"
    code, text = run(tmp_path, {"coords_check": {"H": 0.0}}, ["coords-check"])
    assert code == 1
    assert text == ""
    err = capsys.readouterr().err
    assert err.startswith("invalid input: ") and err.count("\n") == 1


def test_coords_check_reports_late_nan(tmp_path, monkeypatch):
    """A NaN residual after finite ones is reported, and fails the suite."""
    residual = OrthoChart.commutator_residual
    calls = []

    def late_nan(self, *args):
        calls.append(1)
        return np.nan if len(calls) == 5 else residual(self, *args)

    monkeypatch.setattr(OrthoChart, "commutator_residual", late_nan)
    code, text = run(tmp_path, {}, ["coords-check"])
    assert code == 3
    rows = {l.split(",")[0]: l.split(",")[1:]
            for l in text.strip().split("\n")[2:]}
    assert rows.pop("commutator") == ["nan", "1e-06", "NO"]
    assert all(r[2] == "yes" for r in rows.values())


# -- ellipse domain through the CLI ---------------------------------------


def test_classify_boundary_ellipse(tmp_path):
    cfg = {"curve": {"kind": "ellipse"},
           "classify_boundary": {"n_tau": 4, "n_theta": 2}}
    code, text = run(tmp_path, cfg, ["classify-boundary"])
    assert code == 0
    assert len(text.strip().split("\n")) == 2 + 8
