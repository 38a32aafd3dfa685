"""The package top re-exports the documented core; every other name lives in its module."""

import importlib

import pytest

import invgamma_benford

CORE = [
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

# Public names that are imported from their own module, not from the package top.
MODULE_ONLY = {
    "special": ["complex_log_gamma", "regularized_upper_gamma"],
    "benford": ["SignificandDecomposition", "decompose_significand", "log_mod_1",
                "log_mod_1_array", "benford_digit_prob"],
    "series": ["canonicalize_beta", "truncation_cutoff", "tail_bound_general", "tail_bound_alpha1",
               "cutoff_alpha1", "fb_prime_series", "fb_prime_series_values"],
    "oracle": ["OracleConfig", "SampleBatch", "OracleTailWarning", "oracle_window"],
}


def test_top_level_names_are_the_core():
    assert len(invgamma_benford.__all__) == len(set(invgamma_benford.__all__))
    assert sorted(invgamma_benford.__all__) == sorted(CORE)


def test_core_names_resolve():
    for name in CORE:
        assert getattr(invgamma_benford, name) is not None, name


@pytest.mark.parametrize("module", sorted(MODULE_ONLY))
def test_module_only_names_stay_in_their_module(module):
    mod = importlib.import_module(f"invgamma_benford.{module}")
    for name in MODULE_ONLY[module]:
        assert hasattr(mod, name), name
        assert name in mod.__all__, name
        assert name not in invgamma_benford.__all__, name
