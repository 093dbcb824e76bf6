"""Secrecy performance of a RIS-aided wiretap link with hardware impairments.

Closed-form secrecy outage probability and average secrecy capacity for
a surface-assisted link whose transceivers suffer residual hardware
impairments, together with the signal-level Monte Carlo simulator that
cross-validates every closed form.
"""

from .channel import (
    ChannelStats,
    ConvergenceError,
    LinkGeometry,
    SystemParams,
    cdf_rho_d,
    ccdf_rho_d,
    db_to_linear,
    derive_stats,
    pdf_rho_d,
)
from .montecarlo import (
    EstimateWithCI,
    McConfig,
    draw_chunks,
    ks_distance,
    model_law_chunks,
    sample_quantity,
    simulate_metrics,
)
from .secrecy import (
    NumericsConfig,
    SecrecyCapacity,
    SopEvaluation,
    ThetaSet,
    UnsupportedRegimeError,
    avg_secrecy_capacity,
    avg_secrecy_capacity_reference,
    destination_rate,
    e1_scaled,
    eavesdropper_rate,
    sop,
    sop_asymptotic,
    sop_asymptotic_reference,
    sop_detail,
    sop_reference,
    theta_coefficients,
)
from .sweeps import (
    ConfigError,
    Row,
    SweepSpec,
    emit,
    load_config,
    load_preset,
    load_table,
    run_sweep,
    run_sweeps,
    save_config,
)

__version__ = "0.1.0"

__all__ = [
    "ChannelStats",
    "ConfigError",
    "ConvergenceError",
    "EstimateWithCI",
    "LinkGeometry",
    "McConfig",
    "NumericsConfig",
    "Row",
    "SecrecyCapacity",
    "SopEvaluation",
    "SweepSpec",
    "SystemParams",
    "ThetaSet",
    "UnsupportedRegimeError",
    "avg_secrecy_capacity",
    "avg_secrecy_capacity_reference",
    "ccdf_rho_d",
    "cdf_rho_d",
    "db_to_linear",
    "derive_stats",
    "destination_rate",
    "draw_chunks",
    "e1_scaled",
    "eavesdropper_rate",
    "emit",
    "ks_distance",
    "load_config",
    "load_preset",
    "load_table",
    "model_law_chunks",
    "pdf_rho_d",
    "run_sweep",
    "run_sweeps",
    "sample_quantity",
    "save_config",
    "simulate_metrics",
    "sop",
    "sop_asymptotic",
    "sop_asymptotic_reference",
    "sop_detail",
    "sop_reference",
    "theta_coefficients",
]
