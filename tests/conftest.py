import numpy as np
import pytest

import torus_billiards as tb


@pytest.fixture(scope="session")
def circle_domain():
    return tb.CircleTorusDomain(R=2.0, r=1.0)


@pytest.fixture(scope="session")
def circle_engine(circle_domain):
    return tb.BilliardEngine(circle_domain)


@pytest.fixture(scope="session")
def generic_circle_domain():
    """Same geometry as circle_domain but through the generic signed-distance
    indicator (no quadric shortcut)."""
    return tb.ToroidalDomain(tb.circle_generator(2.0, 1.0))


@pytest.fixture(scope="session")
def ellipse_domain():
    return tb.ToroidalDomain(tb.ellipse_generator(center=3.0, semi_x=2.0,
                                                  semi_z=1.0))


@pytest.fixture(scope="session")
def tilted_ellipse_domain():
    """An ellipse without mirror symmetry: semi-axes 1.5 and 0.8 about
    (3, 0), tilted 0.3 rad, 256 samples from t = 0.37."""
    t = 0.37 + np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False)
    c, s = np.cos(0.3), np.sin(0.3)
    x, z = 1.5 * np.cos(t), 0.8 * np.sin(t)
    return tb.ToroidalDomain(tb.curve_from_samples(
        np.stack([3.0 + c * x - s * z, s * x + c * z], axis=-1)))


def random_interior_states(rng, n, center=(2.0, 0.0, 0.0), radius=0.5):
    """(x, v) samples with x in the tube around the circle-torus center line."""
    out = []
    while len(out) < n:
        x = np.asarray(center) + rng.uniform(-radius, radius, 3)
        if (np.hypot(x[0], x[1]) - 2.0) ** 2 + x[2] ** 2 >= 0.9 ** 2:
            continue
        v = rng.standard_normal(3)
        v /= np.linalg.norm(v)
        out.append((x, v))
    return out
