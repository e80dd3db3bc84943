"""Exact and numerical toolkit for component channels of SU(2)
tensor-product decompositions, their covariant symbol calculus, and the
large-level trace limit.
"""

from .exactnum import (
    CRational,
    NonTerminatingError,
    Rational,
    binomial,
    factorial,
    falling_pochhammer,
    hyp2f1_terminating,
    hyp3f2_terminating,
    rising_pochhammer,
)
from .repspace import (
    IsotypicDecomposition,
    KernelOperator,
    LevelMismatchError,
    PolySpaceParams,
    compose,
    gram_diagonal,
    inner_product,
    isotypic_projectors,
    monomial_norm_sq,
    operator_trace,
    rank_one,
    reproducing_identity_operator,
    to_orthonormal_matrix,
)
from .intertwine import (
    ChannelSpec,
    InvalidSpecError,
    apply_channel,
    apply_normalized_channel,
    c_squared,
    channel_report,
    choi_matrix,
    choi_min_eigenvalue,
    choi_partial_trace_output,
    normalization_factor,
    pk_orthogonality_check,
)
from .symbolcalc import (
    BandLimitExceededError,
    IsotypicFunction,
    SingularComponentError,
    berezin_apply,
    berezin_eigenvalue,
    e_eigenvalue_3f2,
    e_limit_apply,
    e_limit_coefficient,
    e_limit_eigenvalue,
    e_nu_apply,
    e_nu_coefficient,
    e_nu_coefficient_sum,
    e_nu_eigenvalue,
    functions_equal,
    integrate_exact,
    invariant_monomial_integral,
    inverse_berezin,
    symbol,
    toeplitz,
)
from .quadrature import (
    ConvergenceRecord,
    NonFiniteSampleError,
    QuadratureGrid,
    SpectrumOutOfRangeError,
    channel_output_spectrum,
    entropy_poly_coeffs,
    functional_convergence,
    fund_ineq_check,
    i_n_integral,
    integrate_invariant,
    limit_functional,
    limit_moment,
    moment_convergence,
    random_band_limited_state,
    random_operator,
    random_psd_trace_one,
    symbol_values,
    trace_functional,
    trace_moment,
)

__version__ = "1.0.0"
