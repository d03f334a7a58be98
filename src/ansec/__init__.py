"""Achievable secrecy rates for multi-antenna artificial-noise transmission.

The library evaluates closed-form ergodic capacities for the intended
receiver and for colluding eavesdroppers under Rayleigh fading,
optimizes the information/noise power split, solves for the critical
SNR of positive secrecy, models channel-estimation error, and
cross-checks every closed form against a direct channel simulation.
"""
from .montecarlo import (
    COND_LIMIT,
    ChannelDraw,
    GramConditionError,
    McEstimate,
    mc_capacities,
    mc_secrecy_rate_imperfect,
    sample_channel,
    sir_mmse,
)
from .optimize import (
    CriticalSnr,
    OptResult,
    critical_snr,
    critical_snr_exact,
    critical_snr_upper_bound,
    from_db,
    high_snr_optimal_z,
    optimize_phi,
    optimize_phi_adaptive,
    to_db,
)
from .secrecy import (
    CsiError,
    PowerSplit,
    RateReport,
    SystemConfig,
    capacity_bob,
    capacity_eve,
    ccdf_sir,
    secrecy_rate,
    secrecy_rate_large_na,
)
from .specfun import (
    expint_en,
    hyp2f1_1b_c,
    hyp2f1_appendix_closed_form,
    scaled_expint_en,
    scaled_expint_sum,
)

__version__ = "0.1.0"

__all__ = [
    "COND_LIMIT",
    "ChannelDraw",
    "CriticalSnr",
    "CsiError",
    "GramConditionError",
    "McEstimate",
    "OptResult",
    "PowerSplit",
    "RateReport",
    "SystemConfig",
    "capacity_bob",
    "capacity_eve",
    "ccdf_sir",
    "critical_snr",
    "critical_snr_exact",
    "critical_snr_upper_bound",
    "expint_en",
    "from_db",
    "high_snr_optimal_z",
    "hyp2f1_1b_c",
    "hyp2f1_appendix_closed_form",
    "mc_capacities",
    "mc_secrecy_rate_imperfect",
    "optimize_phi",
    "optimize_phi_adaptive",
    "sample_channel",
    "scaled_expint_en",
    "scaled_expint_sum",
    "secrecy_rate",
    "secrecy_rate_large_na",
    "sir_mmse",
    "to_db",
    "__version__",
]
