"""Convergence acceleration for numeric sequences over exact rationals.

Computes limits of slowly convergent sequences - and anti-limits of
divergent series - with the E-algorithm and Levin transforms, built on
lazy memoizing streams of arbitrary-precision rational numbers. See
README.md for the worked examples and the CLI. The names imported here
are the public API.
"""
from .scalars import (
    Undefined,
    UndefinedReason,
    is_defined,
    parse_scalar,
    render_decimal,
)
from .streams import (
    NumStream,
    forward_difference,
    from_function,
    from_values,
    iota,
    last_defined,
    partial_sums,
    take,
)
from .transforms import (
    GConvention,
    Kind,
    Method,
    TransformSpec,
    aitken,
    e_algorithm,
    g_algorithm,
    levin,
)
from .sequences import (
    BUILTIN_SEQUENCES,
    SequenceParseError,
    alternating_naturals_terms,
    catalan_stream,
    grandi_terms,
    leibniz_pi4_terms,
    load_sequence,
    open_source,
    plain_lambda_terms_stream,
)
from .estimators import (
    AccelerationReport,
    AtIndex,
    InsufficientTermsError,
    TakeLast,
    accelerate_sequence,
    growth_coefficient,
    ratio_stream,
    sum_series,
)

__version__ = "0.1.0"
