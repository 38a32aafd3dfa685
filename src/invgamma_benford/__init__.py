"""First-digit-law analysis of the inverse gamma distribution.

Evaluates the CDF of log_B X mod 1 for inverse-gamma X through a rapidly
convergent gamma-coefficient series with certified truncation error,
cross-checks it against a direct summation oracle and Monte Carlo
sampling, and sweeps (alpha, beta) grids of the maximum deviation from
uniformity.  See the `cli` module (console script ``invgamma-benford``)
for the command-line interface.

The package top re-exports the documented core below.  Everything else
(the paper's tail expressions, the density series, significand helpers,
special functions, oracle and sampler settings) is imported from its
module: `special`, `benford`, `series`, `oracle` or `analysis`.
"""

__version__ = "0.1.0"

from .analysis import (
    DeviationGrid,
    DeviationReport,
    deviation_grid,
    first_digit_probs,
    max_deviation,
)
from .benford import BaseConfig
from .oracle import fb_cdf_oracle, ks_distance, sample_invgamma
from .series import (
    InvGammaParams,
    SeriesEvaluation,
    TruncationSpec,
    certified_cutoff,
    fb_cdf_series,
    fb_cdf_series_values,
)

__all__ = [
    "__version__",
    "BaseConfig",
    "InvGammaParams",
    "TruncationSpec",
    "SeriesEvaluation",
    "DeviationReport",
    "DeviationGrid",
    "certified_cutoff",
    "fb_cdf_series",
    "fb_cdf_series_values",
    "max_deviation",
    "deviation_grid",
    "first_digit_probs",
    "fb_cdf_oracle",
    "sample_invgamma",
    "ks_distance",
]
