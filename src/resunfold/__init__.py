"""Numerical toolkit for 2x2 parametric linear ODE systems with a
confluent pair of singular points.

The package computes the formal invariants (h, lambda, alpha) and the
analytic monodromy invariant gamma of systems

    h(z) dy/dz = A(z) y,      h(z) = z^2 + h1 z + h0,

decides analytic equivalence, builds universal normal forms, and provides
the phase-portrait and connection-matrix machinery (theta function, the
quotient vector field chi, trajectory domains, Picard solver for the
diagonalizing transformations, Gamma-function connection coefficients).
"""

from .algebra import (
    BranchedLog,
    CSeries,
    CSeriesMat2,
    DivisionByNonUnit,
    PoleAtNonPositiveInteger,
    ZeroModulus,
    log_gamma,
    ramified_sqrt,
)
from .system import (
    BadDescriptor,
    GaugeTransform,
    NotAnUnfoldingBase,
    ParametricSystem,
    SingularGauge,
    gauge_apply,
    genericity_check,
)
from .invariants import (
    FormalInvariants,
    InvariantMismatch,
    NonGeneric,
    ReducedParams,
    ReducedSystem,
    RootOutsideUnitDisc,
    Step1Failure,
    check_unit_disc,
    extract_formal,
    prenormalize,
    reduce,
)
from .monodromy import (
    Contour,
    MonodromyResult,
    SingularityTooClose,
    StepUnderflow,
    Transport,
    gamma_closed_form,
    gamma_numeric,
    propagate,
)
from .normal_forms import (
    DegenerateDenominator,
    build_b_form,
    build_q_form,
    decide_equivalence,
    gamma_of_q,
    q_from_gamma,
)
from .geometry import (
    DomainConfig,
    OnCut,
    PoleAtZero,
    RamifiedPoint,
    TrajectoryRecord,
    bifurcation_sets,
    chi,
    classify_regions,
    theta,
    trace_trajectory,
)
from .normalization import (
    ConnectionData,
    ContractionViolated,
    GammaPole,
    NoOverlap,
    PSolution,
    assemble_F,
    connecting_arc,
    connection_data,
    connection_matrices,
    inner_arc_solutions,
    kappa_formulas,
    outer_arc_solutions,
    solve_p,
    verify_cocycles,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
