"""Exact computations in the tautological ring of moduli of abelian varieties.

Everything is carried out over arbitrary-precision rationals; there is no
floating point anywhere in the computational paths.
"""

from .rationals import Rational, bernoulli, boundary_constant, zeta_negative_odd
from .graded import (
    GradedPolynomial,
    GradedRing,
    graded_exp,
    graded_log,
    named_series,
    substitute_power_sums,
)
from .charclass import (
    BundleClasses,
    BorelSerreReport,
    borel_serre_check,
    chern_character,
    dual_bundle,
    exterior_alternating_sum_dual,
    newton_power_sums,
    symmetric_to_elementary,
    todd,
    todd_dual,
)
from .tautring import (
    RingReport,
    TautRing,
    TautRingElement,
    build_ring,
    determinant,
    ring_report,
)
from .boundary import (
    BinomialExpansionReport,
    BoundaryClass,
    GrrReport,
    PushforwardResult,
    binomial_expansion_check,
    grr_coefficient,
    grr_report,
    pushforward,
    sum_powers_quotient,
)
from .satake import (
    ConsistencyReport,
    RecursionReport,
    SatakeClassExpression,
    consistency_report,
    leading_stratum_constants,
    p_rank_constant,
    recursion_check,
    stratum_constant,
    stratum_table,
)

__version__ = "0.1.0"

__all__ = [
    "Rational",
    "bernoulli",
    "zeta_negative_odd",
    "boundary_constant",
    "GradedRing",
    "GradedPolynomial",
    "graded_exp",
    "graded_log",
    "named_series",
    "substitute_power_sums",
    "BundleClasses",
    "newton_power_sums",
    "chern_character",
    "todd",
    "todd_dual",
    "dual_bundle",
    "exterior_alternating_sum_dual",
    "symmetric_to_elementary",
    "borel_serre_check",
    "BorelSerreReport",
    "TautRing",
    "TautRingElement",
    "build_ring",
    "determinant",
    "ring_report",
    "RingReport",
    "BoundaryClass",
    "PushforwardResult",
    "pushforward",
    "sum_powers_quotient",
    "binomial_expansion_check",
    "BinomialExpansionReport",
    "grr_coefficient",
    "grr_report",
    "GrrReport",
    "SatakeClassExpression",
    "p_rank_constant",
    "stratum_constant",
    "leading_stratum_constants",
    "consistency_report",
    "ConsistencyReport",
    "recursion_check",
    "RecursionReport",
    "stratum_table",
]
