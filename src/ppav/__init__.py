"""Exact arithmetic for simple ordinary isogeny classes over finite fields.

The package certifies convenient endomorphism orders, counts principally
polarized abelian varieties per stratum through class numbers (exactly for
elliptic curves, by a certified square-root-of-discriminant estimator for
abelian surfaces), and reproduces the limiting Frobenius-angle measures.
"""

from .errors import (
    DomainError,
    FactorError,
    InternalError,
    NotWeilShape,
    PpavError,
    RankError,
    SearchLimitError,
    UnsupportedDegree,
)
from .weil import IsogenyClassSpec, isogeny_class
from .orders import (
    MINIMAL_ORDER_CERTIFICATE,
    ConvenienceCertificate,
    FieldContext,
    Lattice,
    RingContext,
    convenient_certificate,
    is_gorenstein,
    lattice_discriminant,
    minimal_order,
    multiplier_ring,
    trace_dual,
)
from .strata import (
    StratumReport,
    analyze,
    disc_ratio_exact,
    disc_ratio_trig,
    ec_stratum_counts,
    example_family,
    find_heavy_isogeny_class,
    h_minus_estimate,
)
from .quadratic import (
    class_number_imaginary,
    kronecker_class_number,
)

__version__ = "0.1.0"

__all__ = [
    "MINIMAL_ORDER_CERTIFICATE",
    "ConvenienceCertificate",
    "DomainError",
    "FactorError",
    "FieldContext",
    "InternalError",
    "IsogenyClassSpec",
    "Lattice",
    "NotWeilShape",
    "PpavError",
    "RankError",
    "RingContext",
    "SearchLimitError",
    "StratumReport",
    "UnsupportedDegree",
    "analyze",
    "class_number_imaginary",
    "convenient_certificate",
    "disc_ratio_exact",
    "disc_ratio_trig",
    "ec_stratum_counts",
    "example_family",
    "find_heavy_isogeny_class",
    "h_minus_estimate",
    "is_gorenstein",
    "isogeny_class",
    "kronecker_class_number",
    "lattice_discriminant",
    "minimal_order",
    "multiplier_ring",
    "trace_dual",
]
