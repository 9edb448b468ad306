"""Fresh command-line outputs, tracer arrays and engine events against the
golden corpus in tests/golden/.

The files of corpus.BYTE_EXACT, the circle config and the quadric's tracer
arrays and engine events, must reproduce byte for byte.  The ellipse config
and the other tracer arrays and engine events are compared field by field:
each numeric field may move by at most its corpus.FIELD_BOUNDS entry (0
where none is given), every other field not at all.
A change made on purpose is recorded by rewriting the corpus with
``tests/golden/corpus.py``, whose report of each file's verdict and changed
fields (the largest change of a number, the changed rows and transitions of
any other value) goes with the change.
"""

import math

import pytest

from golden.corpus import (BYTE_EXACT, COMMANDS, ENGINES, TRACERS,
                           beyond_bounds, changes, engine_path, golden_path,
                           report, run_case, run_engine, run_tracer,
                           tracer_path, verdict)


def _assert_bytes(cmd, want, text):
    """Byte for byte; a mismatch fails with report()'s per-field summary,
    since pytest's string diff of a long file takes minutes."""
    if text != want:
        raise AssertionError("; ".join(report(cmd, want, text))
                             or "bytes differ; no field moved")


@pytest.mark.parametrize("cmd", COMMANDS)
def test_circle_outputs_are_golden(cmd):
    code, text = run_case("circle", cmd)
    assert code == 0
    _assert_bytes(cmd, golden_path("circle", cmd).read_text(), text)


@pytest.mark.parametrize("cmd", COMMANDS)
def test_ellipse_outputs_within_field_bounds(cmd):
    code, text = run_case("ellipse", cmd)
    assert code == 0
    over = beyond_bounds(cmd, golden_path("ellipse", cmd).read_text(), text)
    assert not over, f"fields beyond their bounds: {over}"


def _check_golden(cmd, kind, want, text):
    """Byte for byte on the quadric, within FIELD_BOUNDS elsewhere."""
    if kind in BYTE_EXACT:
        _assert_bytes(cmd, want, text)
        return
    over = beyond_bounds(cmd, want, text)
    assert not over, f"fields beyond their bounds: {over}"


@pytest.mark.parametrize("name", TRACERS)
def test_tracer_arrays_are_golden(name):
    _check_golden("tracer", TRACERS[name][0], tracer_path(name).read_text(),
                  run_tracer(name))


@pytest.mark.parametrize("name", ENGINES)
def test_engine_events_are_golden(name):
    _check_golden("engine", ENGINES[name][0], engine_path(name).read_text(),
                  run_engine(name))


def test_nan_fields_compare_as_values():
    """NaN on both sides is unchanged; NaN on one side is a change of inf
    and a transition of its field."""
    assert changes("c", "a\nnan\n", "a\nnan\n") == {"c:a": 0.0}
    assert changes("c", "a\nnan\n", "a\n1.0\n") == {"c:a": math.inf}
    assert report("c", "a\nnan\n", "a\nnan\n") == []
    assert report("c", "a\n1.0\nnan\n", "a\nnan\nnan\n") == [
        "c:a 1 rows: 1.0→nan 1"]


def test_report_counts_changed_rows_of_text_fields():
    head = "tau,theta_dir,class,kappa_n\n"
    old = head + "0.0,0.0,ambiguous,0.5\n0.0,1.0,convex,0.25\n" \
        "0.1,0.0,ambiguous,0.5\n0.1,1.0,ambiguous,0.5\n"
    new = head + "0.0,0.0,inflection+,0.5\n0.0,1.0,convex,0.2505\n" \
        "0.1,0.0,inflection-,0.5\n0.1,1.0,inflection+,0.5\n"
    cmd = "classify-boundary"
    assert report(cmd, old, new) == [
        "classify-boundary:class 3 rows: ambiguous→inflection+ 2, "
        "ambiguous→inflection- 1",
        "classify-boundary:kappa_n 0.0005"]
    assert changes(cmd, old, new)["classify-boundary:class"] == float("inf")
    assert report(cmd, old, old) == []
    assert report(cmd, old, head) == ["classify-boundary:layout inf"]


def test_one_ulp_moves_a_quadric_event_out_of_the_corpus():
    want = engine_path("quadric-creep").read_text()
    head, first, rest = want.split("\n", 2)
    cells = first.split(",")
    cells[3] = repr(math.nextafter(float(cells[3]), math.inf))
    with pytest.raises(AssertionError):
        _check_golden("engine", "quadric", want,
                      "\n".join([head, ",".join(cells), rest]))


def test_verdict_sorts_a_file_into_three_classes():
    """--check fails only a file beyond bounds: a bounded field may move by
    its bound, an unbounded one not at all, and a file of BYTE_EXACT not by
    one byte."""
    old = "min_nd,bounces\n0.5,3\n"
    assert verdict("tracer", old, old, exact=True) == "bit-identical"
    small = "min_nd,bounces\n0.5000000000001,3\n"
    assert verdict("tracer", old, small, exact=False) == "within bounds"
    assert verdict("tracer", old, small, exact=True) == "beyond bounds"
    for new in ("min_nd,bounces\n0.500000001,3\n", "min_nd,bounces\n0.5,4\n"):
        assert verdict("tracer", old, new, exact=False) == "beyond bounds"
