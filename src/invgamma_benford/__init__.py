"""First-digit-law analysis of the inverse gamma distribution.

Evaluates the CDF of log_B(X) mod 1 for inverse-gamma X through a rapidly
convergent gamma-coefficient series with certified truncation error,
cross-checks it against a direct summation oracle and Monte Carlo
sampling, and sweeps (alpha, beta) grids of the maximum deviation from
uniformity.  See the `cli` module (console script ``invgamma-benford``)
for the command-line interface.
"""

__version__ = "0.1.0"

from .analysis import (
    DeviationGrid,
    DeviationGridError,
    DeviationReport,
    deviation_grid,
    first_digit_probs,
    max_deviation,
)
from .benford import (
    BaseConfig,
    SignificandDecomposition,
    benford_digit_prob,
    benford_significand_cdf,
    decompose_significand,
    log_mod_1,
    log_mod_1_array,
)
from .oracle import (
    OracleConfig,
    OracleTailWarning,
    SampleBatch,
    empirical_log_cdf,
    fb_cdf_oracle,
    ks_distance,
    oracle_window,
    sample_invgamma,
)
from .series import (
    InvGammaParams,
    SeriesEvaluation,
    TruncationSpec,
    canonicalize_beta,
    cutoff_alpha1,
    fb_cdf_series,
    fb_cdf_series_values,
    fb_prime_series,
    fb_prime_series_values,
    invgamma_cdf,
    invgamma_pdf,
    tail_bound_alpha1,
    tail_bound_general,
    truncation_cutoff,
)
from .special import complex_log_gamma, regularized_upper_gamma

__all__ = [
    "__version__",
    "BaseConfig",
    "SignificandDecomposition",
    "InvGammaParams",
    "TruncationSpec",
    "SeriesEvaluation",
    "OracleConfig",
    "SampleBatch",
    "OracleTailWarning",
    "DeviationReport",
    "DeviationGrid",
    "DeviationGridError",
    "complex_log_gamma",
    "regularized_upper_gamma",
    "decompose_significand",
    "log_mod_1",
    "log_mod_1_array",
    "benford_digit_prob",
    "benford_significand_cdf",
    "invgamma_pdf",
    "invgamma_cdf",
    "canonicalize_beta",
    "truncation_cutoff",
    "tail_bound_general",
    "tail_bound_alpha1",
    "cutoff_alpha1",
    "fb_prime_series",
    "fb_cdf_series",
    "fb_prime_series_values",
    "fb_cdf_series_values",
    "fb_cdf_oracle",
    "oracle_window",
    "sample_invgamma",
    "empirical_log_cdf",
    "ks_distance",
    "max_deviation",
    "deviation_grid",
    "first_digit_probs",
]
