"""Property tests of the generic signed-distance indicator.

The examples are derandomized, so a run is repeatable; each property draws
at most 200 points.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

PROPERTY = settings(derandomize=True, max_examples=200, deadline=None)
# away from these sets the closed forms keep their digits: the distance to
# the tube's centre line loses them in sqrt(xi_quadric + r^2), the gradient
# direction in 1 / distance, and the azimuthal components in 1 / rho
MARGIN = 1e-3


def points(xy, z):
    return st.tuples(st.floats(-xy, xy), st.floats(-xy, xy),
                     st.floats(-z, z)).map(np.array)


@PROPERTY
@given(p=points(3.5, 1.5))
def test_generic_circle_xi_is_quadric_distance(circle_domain,
                                               generic_circle_domain, p):
    rho = np.hypot(p[0], p[1])
    assume(np.hypot(rho - 2.0, p[2]) > MARGIN and rho > MARGIN)
    want = np.sqrt(circle_domain.xi(p) + 1.0) - 1.0
    assert abs(float(generic_circle_domain.xi(p)) - want) <= 1e-12
    g = circle_domain.grad_xi(p)
    assert np.abs(generic_circle_domain.grad_xi(p)
                  - g / np.linalg.norm(g)).max() <= 1e-12


@PROPERTY
@given(p=points(5.5, 1.5))
def test_ellipse_grad_xi_is_unit(ellipse_domain, p):
    rho = np.hypot(p[0], p[1])
    # the medial axis of the generator (3 + a cos t, b sin t), a = 2, b = 1,
    # is the segment z = 0, |rho - 3| <= (a^2 - b^2) / a = 3/2
    assume(abs(p[2]) > MARGIN or abs(rho - 3.0) > 1.5 + MARGIN)
    assume(rho > MARGIN)
    assert abs(np.linalg.norm(ellipse_domain.grad_xi(p)) - 1.0) <= 1e-12
