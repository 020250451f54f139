"""MUAA algorithms: the paper's approaches plus every baseline."""

from repro.algorithms.base import OfflineAlgorithm, OnlineAlgorithm, SolveResult
from repro.algorithms.batched import BatchedReconciliation
from repro.algorithms.bounds import (
    capacity_bound,
    combined_bound,
    full_lp_bound,
    vendor_lp_bound,
)
from repro.algorithms.calibration import (
    GammaBounds,
    calibrate_from_problem,
    choose_g,
    estimate_gamma_bounds,
    observed_efficiencies,
)
from repro.algorithms.fallback import FallbackChain, FallbackTier
from repro.algorithms.greedy import GreedyEfficiency
from repro.algorithms.lp_rounding import LPRounding
from repro.algorithms.nearest import NearestVendor
from repro.algorithms.online_afa import (
    AdaptiveExponentialThreshold,
    OnlineAdaptiveFactorAware,
    StaticThreshold,
    ThresholdFunction,
)
from repro.algorithms.online_static import OnlineStaticThreshold
from repro.algorithms.optimal import ExactOptimal
from repro.algorithms.pacing import BudgetPacingOnline
from repro.algorithms.recalibrating import RecalibratingOnlineAFA
from repro.algorithms.random_baseline import RandomAssignment
from repro.algorithms.recon import Reconciliation

__all__ = [
    "OfflineAlgorithm",
    "OnlineAlgorithm",
    "SolveResult",
    "BatchedReconciliation",
    "capacity_bound",
    "combined_bound",
    "full_lp_bound",
    "vendor_lp_bound",
    "LPRounding",
    "FallbackChain",
    "FallbackTier",
    "GammaBounds",
    "calibrate_from_problem",
    "choose_g",
    "estimate_gamma_bounds",
    "observed_efficiencies",
    "GreedyEfficiency",
    "NearestVendor",
    "AdaptiveExponentialThreshold",
    "OnlineAdaptiveFactorAware",
    "StaticThreshold",
    "ThresholdFunction",
    "OnlineStaticThreshold",
    "ExactOptimal",
    "BudgetPacingOnline",
    "RecalibratingOnlineAFA",
    "RandomAssignment",
    "Reconciliation",
]
