"""Numerical toolkit for constant, linear, and affine vector fields on R^n.

A field C x + B is its generator [[C, B], [0, 0]], whose exponential gives the
flow, cross-validated against fixed-step RK4 integration.  On top of the
field algebra (brackets, generators, coordinate changes) sit
canonical parameters and invariants, and the realization of the three field
classes as fundamental vector fields of translation, general linear, and
general affine group actions.
"""

from .actions import (
    ActionAxiomReport,
    GroupAction,
    GroupElement,
    act,
    affine_element,
    chart_conjugated_action,
    check_action_axioms,
    det_weighted_action,
    exp_translation_action,
    fundamental_field_analytic,
    fundamental_field_chart,
    fundamental_field_numeric,
    identity_element,
    inverse,
    linear_element,
    multiply,
    one_parameter_subgroup,
    standard_affine_action,
    standard_linear_action,
    standard_translation_action,
    tangent_for_field,
    translation_element,
)
from .charts import (
    Chart,
    ChartDomainError,
    Coordinate,
    diagonal_scaling_chart,
    exponential_chart,
    get_chart,
    identity_chart,
    lambert_chart,
    lambert_w,
)
from .fields import (
    AffineField,
    GeneratorIndex,
    all_generators,
    bracket,
    constant_field,
    constant_generator,
    evaluate,
    evaluate_many,
    generator,
    linear_change,
    linear_field,
    linear_generator,
    zero_field,
)
from .flows import (
    FlowMap,
    Orbit,
    flow_at,
    group_law_defect,
    make_flow,
    orbit,
)
from .invariants import (
    DegenerateFieldError,
    InvariantBundle,
    ScalarField,
    VerificationReport,
    bundle_coordinates,
    constant_field_bundle,
    directional_derivative,
    planar_affine_family,
    straightened_frame_flow,
    verify_bundle,
)
from .linalg import augment_affine, mat_exp, rank, solve_linear
from .oracle import DivergenceError, OdeProblem, integrate
from .validate import CheckResult, run_all

__version__ = "0.1.0"
