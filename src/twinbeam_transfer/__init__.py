"""Conditional transfer of twin-beam intensity correlations, simulated end to end.

Two independent twin-beam pairs are modeled as a four-channel Gaussian
process (model). Post-selecting on the signal-difference photocurrent
(selection) transfers the intensity correlation onto the two initially
independent idlers; the closed-form expectation for the conditioned noise
and the acceptance probability lives in oracle. Statistics helpers are in
stats, the wideband detection chain (simulate) in dsp_chain, and run/sweep
orchestration plus the CLI in scenario and cli.

The top level re-exports the names the README and the demos use; every
other public name is imported from its module, e.g.
``from twinbeam_transfer.errors import ValidationError``.
"""

__version__ = "0.1.0"

from .model import (
    MeasurementSetting,
    TwinPairParams,
    build_covariance,
    sample_batch,
)
from .stats import variance_db
from .oracle import JointFockDistribution, fock_transfer, predict_transfer
from .selection import SelectionConfig, conditional_statistics, select
from .dsp_chain import SignalChainConfig, decimation_plan
from .scenario import ScenarioConfig, SweepAxis, run_scenario, run_sweep

__all__ = [
    "__version__",
    # model
    "MeasurementSetting", "TwinPairParams", "build_covariance", "sample_batch",
    # stats
    "variance_db",
    # oracle
    "JointFockDistribution", "fock_transfer", "predict_transfer",
    # selection
    "SelectionConfig", "conditional_statistics", "select",
    # dsp_chain
    "SignalChainConfig", "decimation_plan",
    # scenario
    "ScenarioConfig", "SweepAxis", "run_scenario", "run_sweep",
]
