"""Polynomial diffusions: closed-form moments, admissibility, simulation, pricing."""

from .polynomial import Polynomial, DivisionFailure, divide_exact
from .basis import Basis, DegreeTooHigh, monomial_basis
from .generator import (
    GeneratorMatrix,
    ModelCoefficients,
    NotPolynomialOnE,
    PointOutsideStateSpace,
    apply_generator,
    conditional_moment,
    generator_matrix,
    joint_moment,
    matrix_exp,
    moment_by_ode,
)
from .statespace import (
    BoxOrthant,
    BoxOrthantParams,
    FullSpace,
    Quadric,
    QuadricParams,
    Simplex,
    SimplexParams,
    StateSpace,
    assemble_model,
    skew_symmetric_basis,
    MEMBERSHIP_TOL,
)
from .conditions import (
    BoundaryVerdict,
    CheckReport,
    ConditionResult,
    UniquenessReport,
    ValidationReport,
    check_necessary,
    check_sufficient,
    classify_boundary,
    h_factor,
    uniqueness_report,
    validate_params,
)
from .simulate import (
    PathSet,
    boundary_hit_stats,
    dispersion,
    mc_moment,
    simulate_paths,
)
from .pricing import (
    InvalidStatePriceDensity,
    LognormalIndexPricer,
    PricingModel,
    SimplexIndexModel,
    TabulatedIndexPricer,
    bond_price,
    constituent_option_price,
    fit_index_payoff,
    index_weights,
    price_cashflow,
    short_rate,
    swaption_payoff_vector,
    swaption_price_mc,
    variance_swap_rate,
)
from .specfile import ModelSpec, PricingBlock, SpecError, load_instrument, load_model_spec

__version__ = "0.1.0"
