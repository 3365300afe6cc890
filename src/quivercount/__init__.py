"""Exact counting of stable quiver representations over finite fields."""

from .qpoly import PoleError, QPoly, RationalFunction, poly_gcd
from .series import (
    DimVector,
    Series,
    TruncationError,
    TruncationSpec,
    adams,
    height,
    monomial_twist,
    ordinary_exp,
    ordinary_log,
    ordinary_pow,
    plethystic_exp,
    plethystic_log,
    plethystic_pow,
    series_bar,
    twisted_inverse,
    twisted_mul,
)
from .quiver import (
    INFINITY,
    Quiver,
    q_binomial_series,
    q_exponential,
    qbinom,
    parse_theta,
    qbinom_vec,
    slope,
    topological_order,
)
from .counting import (
    CountingContext,
    CountTable,
    IntegralityError,
    InvariantError,
    absolutely_stable_table,
    necklace_count,
    positivity_report,
    rep_ratio,
    residual_q1_expansion,
    residual_series,
    residual_series_recursive,
    semistable_ratio,
    semistable_ratio_reference,
    semistable_series,
    semistable_series_closed,
    stable_end_degree_poly,
)
from .oracle import (
    Budget,
    BudgetError,
    DivisibilityError,
    RepPoint,
    count_absolutely_stable,
    count_semistable_ratio,
    count_stable_with_end_dim,
    endomorphism_dim,
    enumerate_points,
    gl_order,
    is_semistable,
    is_stable,
)
from .verify import VerificationReport, VerificationRow, run_verification

__version__ = "0.1.0"
