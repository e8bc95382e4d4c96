"""jacobisplit: numerical splitting, comparison and reduction checks for
finite-dimensional families of Jacobi fields along a geodesic.

The package integrates the matrix Jacobi equation for a family of fields,
tracks its Riccati operator, and mechanically verifies the hypotheses and
conclusions of a collection of splitting and rigidity statements on model
curvature fields, including deliberate counterexamples that must trip
specific hypothesis gates.
"""

from .cli import (
    VERSION as __version__,
    CheckSpec,
    RunReport,
    Scenario,
    builtin_scenarios,
    get_scenario,
    list_scenarios,
    main,
    run_scenario,
    scenario_from_config,
)
from .comparison import (
    ComparisonReport,
    ModelSolution,
    RigidityReport,
    ScalarTrace,
    comparison_check,
    export_scalar_csv,
    model_solution,
    rigidity_check,
    scalar_traces,
)
from .curvature import (
    CurvatureField,
    constant_sectional,
    diagonal_constant,
    fubini_study_model,
    load_sampled_field,
    ric_k_floor,
    ric_k_floor_sampled,
    ric_k_traces,
    sampled_field,
    sampled_field_from_json,
)
from .jacobi import (
    DEFAULT_STEP,
    FamilySpec,
    JacobiTrajectory,
    ResidualReport,
    SingularTimeError,
    ZeroEvent,
    default_resolvability_cap,
    export_csv,
    integrate,
    riccati,
    riccati_series,
    singular_events,
    wronskian,
)
from .reduction import (
    ReducedSystem,
    export_reduction_csv,
    hce_residual,
    recovered_curvature_deviation,
    reduce,
    reduced_boundary_check,
    riccati_residual,
)
from .splitting import (
    SpanResult,
    SplittingReport,
    boundary_eigenvalue_gate,
    check_splitting,
    parallel_span,
    self_adjoint_gate,
    sine_span,
    vanishing_span,
)
from .symlin import orthonormal_columns, spectrum

__all__ = [
    "__version__",
    # symlin
    "spectrum",
    "orthonormal_columns",
    # curvature
    "CurvatureField",
    "constant_sectional",
    "diagonal_constant",
    "fubini_study_model",
    "sampled_field",
    "sampled_field_from_json",
    "load_sampled_field",
    "ric_k_floor",
    "ric_k_floor_sampled",
    "ric_k_traces",
    # jacobi
    "DEFAULT_STEP",
    "FamilySpec",
    "JacobiTrajectory",
    "SingularTimeError",
    "ZeroEvent",
    "ResidualReport",
    "integrate",
    "wronskian",
    "riccati",
    "riccati_series",
    "singular_events",
    "default_resolvability_cap",
    "export_csv",
    # splitting
    "SpanResult",
    "SplittingReport",
    "self_adjoint_gate",
    "boundary_eigenvalue_gate",
    "vanishing_span",
    "parallel_span",
    "sine_span",
    "check_splitting",
    # comparison
    "ScalarTrace",
    "scalar_traces",
    "ModelSolution",
    "model_solution",
    "ComparisonReport",
    "comparison_check",
    "RigidityReport",
    "rigidity_check",
    "export_scalar_csv",
    # reduction
    "ReducedSystem",
    "reduce",
    "hce_residual",
    "riccati_residual",
    "recovered_curvature_deviation",
    "reduced_boundary_check",
    "export_reduction_csv",
    # cli
    "CheckSpec",
    "Scenario",
    "RunReport",
    "builtin_scenarios",
    "list_scenarios",
    "get_scenario",
    "scenario_from_config",
    "run_scenario",
    "main",
]
