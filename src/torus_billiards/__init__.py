"""Specular billiard dynamics in solid-torus domains of revolution.

The domain is generated by revolving a closed, strictly convex, unit-speed
generator curve about the z-axis.  The package provides the generator-curve
machinery, the domain indicator geometry, an event-driven billiard engine
with backward/forward cycles, classification of tangential (grazing)
boundary phases, phase-space diagnostics, and the orthogonal curvilinear
chart for the periodic annular cylinder together with its differential
identities.
"""

__version__ = "0.1.0"

from .curves import (ProfileCurve, CurveMarkers, ParametricCurve,
                     circle_generator, ellipse_generator, curve_from_samples,
                     find_markers, h_value, zero_set_h,
                     reparametrize_arclength)
from .domain import (ToroidalDomain, CircleTorusDomain, PointClass,
                     rotation_z)
from .engine import (BilliardEngine, PhaseState, BounceEvent, Trajectory,
                     TrajectoryStatus, angular_momentum,
                     signed_angular_momentum, trajectory_to_jsonl)
from .grazing import (GrazingClass, InflectionDirections, classify,
                      principal_curvatures, normal_curvature,
                      inflection_angle, inflection_directions,
                      concave_direction, inflection_momentum)
from .analysis import (RingSpec, BadSetReport, JacobianResult,
                       cross_section_frame, ring_membership, bounce_count,
                       recurrence_residuals, badset_measure, badset_scan,
                       jacobian_det, specular_basis)
from .orthochart import OrthoChart, identity_suite
from .errors import (TorusBilliardsError, InvariantViolation,
                     NonConformingCurveError, NumericsError,
                     GrazingAmbiguousError, UndefinedInflectionError,
                     TrajectoryStoppedError, NonSmoothPointError,
                     DegenerateBasisError)
