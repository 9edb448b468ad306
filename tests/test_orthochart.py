import numpy as np
import pytest

import torus_billiards as tb
from torus_billiards.orthochart import OrthoChart

TWO_PI = 2.0 * np.pi


@pytest.fixture(scope="module")
def chart():
    return OrthoChart()


@pytest.mark.parametrize("kw", [{"H": 0.0}, {"H": -1.0}, {"H": np.inf},
                                {"H": np.nan}, {"R1": 0.0}, {"R1": 3.0},
                                {"R1": 2.0, "R2": 1.0}, {"R2": np.inf},
                                {"R1": np.nan}])
def test_chart_rejects_degenerate_inputs(kw):
    with pytest.raises(ValueError):
        OrthoChart(**kw)


def test_eta_and_metric(chart):
    x = np.array([0.5, 1.0, 2.0])
    p = chart.eta(x)
    assert np.allclose(p, [2.0 * np.cos(0.5), 2.0 * np.sin(0.5), 1.0])
    assert np.allclose(chart.metric_diag(x), [4.0, 1.0, 1.0])


def test_check_r(chart):
    chart.check_r(2.0)
    with pytest.raises(ValueError):
        chart.check_r(0.5)
    with pytest.raises(ValueError):
        chart.check_r(3.5)


def test_frame_orthonormal(chart):
    rng = np.random.default_rng(1)
    for _ in range(5):
        x = np.array([rng.uniform(0, TWO_PI), rng.uniform(0, chart.H),
                      rng.uniform(1.2, 2.8)])
        Q = chart.frame(x)
        assert np.allclose(Q.T @ Q, np.eye(3), atol=1e-14)


def test_velocity_transform_roundtrip(chart):
    x = np.array([1.1, 0.4, 1.7])
    v = np.array([0.3, -0.7, 0.2])
    vv = chart.transform_velocity(v, x)
    assert np.allclose(chart.inverse_transform(vv, x), v, atol=1e-14)
    assert np.linalg.norm(vv) == pytest.approx(np.linalg.norm(v), abs=1e-14)


def test_christoffel_table(chart):
    x = np.array([0.7, 1.0, 2.0])
    assert chart.christoffel(1, 1, 3, x) == pytest.approx(-0.5)
    assert chart.christoffel(1, 3, 1, x) == pytest.approx(0.5)
    # the table is NOT symmetric in (i, j)
    assert chart.christoffel(3, 1, 1, x) == 0.0
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            for k in (1, 2, 3):
                if (i, j, k) not in ((1, 1, 3), (1, 3, 1)):
                    assert chart.christoffel(i, j, k, x) == 0.0
    with pytest.raises(ValueError):
        chart.christoffel(0, 1, 1, x)


def test_christoffel_generic_match(chart):
    rng = np.random.default_rng(2)
    for _ in range(3):
        x = np.array([rng.uniform(0, TWO_PI), rng.uniform(0, chart.H),
                      rng.uniform(1.3, 2.7)])
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                for k in (1, 2, 3):
                    assert chart.christoffel_generic(i, j, k, x) == \
                        pytest.approx(chart.christoffel(i, j, k, x), abs=1e-8)


def test_d_operator_fourth_order(chart):
    x = np.array([1.0, 2.0, 2.1])
    u = lambda p: np.sin(5.0 * p[2]) * np.cos(3.0 * p[0])
    exact = 5.0 * np.cos(5.0 * x[2]) * np.cos(3.0 * x[0])
    errs = [abs(chart.d_operator(3, u, x, st) - exact)
            for st in (8e-3, 4e-3, 2e-3)]
    assert 12.0 < errs[0] / errs[1] < 20.0
    assert 12.0 < errs[1] / errs[2] < 20.0


def test_d_operator_theta_scaling(chart):
    # D_1 carries the 1/r normalization
    x = np.array([0.3, 1.0, 2.0])
    u = lambda p: np.sin(p[0])
    assert chart.d_operator(1, u, x) == pytest.approx(np.cos(0.3) / 2.0,
                                                      abs=1e-9)


def test_d_operator_periodic_wrap(chart):
    u = lambda p: np.sin(p[0]) + np.cos(TWO_PI * p[1] / chart.H)
    a = chart.d_operator(1, u, np.array([0.0, 0.0, 2.0]))
    b = chart.d_operator(1, u, np.array([TWO_PI, chart.H, 2.0]))
    assert a == pytest.approx(b, abs=1e-10)


def test_one_sided_r_stencil_warns(chart):
    u = lambda p: p[2] ** 2
    with pytest.warns(RuntimeWarning):
        val = chart.d_operator(3, u, np.array([0.0, 0.0, chart.R1 + 1e-4]))
    assert val == pytest.approx(2.0 * (chart.R1 + 1e-4), abs=1e-6)


def test_commutator_identity(chart):
    x = np.array([1.0, 2.0, 2.1])
    for u in (lambda p: p[2] * np.cos(p[0]),
              lambda p: p[2] ** 2 + np.sin(p[0])):
        assert chart.commutator_residual(1, 3, u, x) < 1e-8
        assert chart.commutator_residual(2, 3, u, x) < 1e-8
    with pytest.raises(ValueError):
        chart.commutator_residual(1, 1, u, x)


def test_laplace_beltrami_matches_cylindrical(chart):
    x = np.array([0.8, 1.5, 1.9])
    for u in (lambda p: p[2] * np.cos(p[0]),
              lambda p: p[2] ** 2 * np.sin(2 * p[0])
              + np.cos(TWO_PI * p[1] / chart.H)):
        assert chart.laplace_beltrami_residual(u, x) < 1e-7


def test_laplace_beltrami_harmonic(chart):
    # u = r cos(theta) is the Cartesian coordinate x1: harmonic
    u = lambda p: p[2] * np.cos(p[0])
    assert abs(chart.laplace_beltrami(u, np.array([0.8, 1.5, 1.9]))) < 1e-8


def test_zeta_residuals_exact(chart):
    for r in (1.3, 2.0, 2.7):
        res = chart.zeta_residuals(np.array([0.5, 1.0, r]))
        assert set(res) == {"zeta_r", "zeta_theta", "zeta_z"}
        for grp in res.values():
            assert max(grp) < 1e-15


def test_dv_identity(chart):
    x = np.array([1.2, 0.7, 2.2])
    v = np.array([0.4, -0.3, 0.8])
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            assert chart.dv_identity_residual(i, j, x, v) < 1e-8


def test_identity_suite_keys_and_runtime(chart):
    res = tb.identity_suite(chart)
    assert set(res) == {"christoffel_antisymmetry", "frame_orthonormality",
                        "commutator", "laplace_beltrami", "zeta",
                        "dv_identity", "christoffel_generic_match"}
    assert all(np.isfinite(v) for v in res.values())
