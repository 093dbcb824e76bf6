"""The package's public names: a removal or a new export has to change this list."""

import ris_secrecy

PUBLIC_API = {
    "ChannelStats", "ConfigError", "ConvergenceError", "EstimateWithCI", "LinkGeometry",
    "McConfig", "NumericsConfig", "Row", "SecrecyCapacity", "SopEvaluation", "SweepSpec",
    "SystemParams", "ThetaSet", "UnsupportedRegimeError",
    "avg_secrecy_capacity", "avg_secrecy_capacity_reference", "ccdf_rho_d", "cdf_rho_d",
    "db_to_linear", "derive_stats", "destination_rate", "draw_chunks", "e1_scaled",
    "eavesdropper_rate", "emit", "ks_distance", "load_config", "load_preset", "load_table",
    "model_law_chunks", "pdf_rho_d", "run_sweep", "run_sweeps", "sample_quantity",
    "save_config", "simulate_metrics", "sop", "sop_asymptotic", "sop_asymptotic_reference",
    "sop_detail", "sop_reference", "theta_coefficients",
}


def test_public_api_is_pinned_and_resolves():
    assert len(ris_secrecy.__all__) == len(set(ris_secrecy.__all__))
    assert set(ris_secrecy.__all__) == PUBLIC_API
    for name in ris_secrecy.__all__:
        assert getattr(ris_secrecy, name) is not None, name
