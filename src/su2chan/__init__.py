"""Exact and numerical toolkit for component channels of SU(2)
tensor-product decompositions, their covariant symbol calculus, and the
large-level trace limit.
"""

from .repspace import (
    IsotypicDecomposition,
    KernelOperator,
    compose,
)
from .intertwine import (
    ChannelSpec,
    InvalidSpecError,
    apply_channel,
    apply_normalized_channel,
    c_squared,
    channel_report,
    choi_min_eigenvalue,
    normalization_factor,
    pk_orthogonality_check,
)
from .symbolcalc import (
    IsotypicFunction,
    berezin_eigenvalue,
    e_eigenvalue_3f2,
    e_limit_apply,
    e_limit_eigenvalue,
    e_nu_apply,
    e_nu_eigenvalue,
    functions_equal,
    inverse_berezin,
    symbol,
)
from .quadrature import (
    ConvergenceRecord,
    FloatRangeError,
    QuadratureGrid,
    channel_output_moments,
    functional_from_moments,
    fund_ineq_check,
    i_n_integral,
    input_band,
    limit_moments,
    random_band_limited_state,
    random_operator,
    random_psd_trace_one,
)

__version__ = "1.0.0"
