"""Twin-field differential-phase-shift quantum secret sharing toolkit.

Event-level Monte Carlo of the three-party protocol, a matching
analytic key-rate model with intensity optimization, collusion-leakage
bounds, and reference curves for benchmarking.
"""

from .attacks import LeakageReport, beta_bound, leakage_report
from .bounds import plob_bound, repeaterless_bound
from .channel import ChannelState, click_probability, transmittance
from .core import (
    Outcome,
    Owner,
    ParameterError,
    ProtocolConfig,
    RateBreakdown,
    RatePoint,
    SimulationReport,
    SystemParams,
)
from .keyrate import (
    DegenerateChannelError,
    binary_entropy,
    collision_probability,
    gain,
    key_rate,
    qber,
    rate_at_transmittance,
)
from .mcsim import run_measurement, run_protocol, sift
from .optimize import (dps_qss_baseline, find_crossover,
                       maximize_rate_at_transmittance, optimize_mu,
                       scan_distances)

__version__ = "0.1.0"

__all__ = [
    "ChannelState",
    "DegenerateChannelError",
    "LeakageReport",
    "Outcome",
    "Owner",
    "ParameterError",
    "ProtocolConfig",
    "RateBreakdown",
    "RatePoint",
    "SimulationReport",
    "SystemParams",
    "beta_bound",
    "binary_entropy",
    "click_probability",
    "collision_probability",
    "dps_qss_baseline",
    "find_crossover",
    "gain",
    "key_rate",
    "leakage_report",
    "maximize_rate_at_transmittance",
    "optimize_mu",
    "plob_bound",
    "qber",
    "rate_at_transmittance",
    "repeaterless_bound",
    "run_measurement",
    "run_protocol",
    "scan_distances",
    "sift",
    "transmittance",
    "__version__",
]
