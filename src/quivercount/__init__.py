"""Exact counting of stable quiver representations over finite fields.

`import quivercount` loads no submodule.  Each name below resolves on first
access (PEP 562), importing only the module that defines it, so a process
that needs only part of the package, such as the CLI's `necklaces`, never
pays for the rest.  Every other attribute is an `AttributeError`, which is
what lets `from quivercount import cli` fall through to the submodule
import.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    **dict.fromkeys(("PoleError", "QPoly", "RationalFunction", "poly_gcd"), "qpoly"),
    **dict.fromkeys((
        "Series", "TruncationError", "adams", "monomial_twist", "ordinary_exp",
        "ordinary_log", "ordinary_pow", "plethystic_exp", "plethystic_log",
        "plethystic_pow", "q_binomial_series", "q_exponential", "residual_series",
        "semistable_ratio_reference", "semistable_series_closed", "series_bar",
        "twisted_inverse", "twisted_mul"), "series"),
    **dict.fromkeys((
        "DimVector", "Quiver", "TruncationSpec", "height", "qbinom", "parse_theta",
        "qbinom_vec", "slope"), "quiver"),
    "necklace_count": "numtheory",
    **dict.fromkeys((
        "CountingContext", "CountTable", "IntegralityError", "InvariantError",
        "absolutely_stable_table", "positivity_report", "rep_ratio",
        "residual_q1_expansion", "residual_series_recursive", "semistable_ratio",
        "semistable_series", "stable_end_degree_poly"), "counting"),
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
