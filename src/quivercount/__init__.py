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
    Quiver,
    q_binomial_series,
    q_exponential,
    qbinom,
    parse_theta,
    qbinom_vec,
    slope,
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

__version__ = "0.1.0"
