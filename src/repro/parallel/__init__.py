"""Simulated-MPI substrate: communicator, halo exchange, scaling models."""

from .comm import MessageTimeout, RankComm, RankDeadError, SimComm
from .distributed import DistributedSolver
from .halo import (
    HaloExchangeError,
    HaloPlan,
    build_halo_plan,
    distributed_unzip,
    exchange_ghosts,
)
from .loadbalance import (
    octant_work_weights,
    partition_by_work,
    predicted_imbalance,
    publish_balance_metrics,
)
from .scaling import (
    DEFAULT_O_A,
    DEFAULT_SPILL_BPP,
    ScalingPoint,
    ScalingStudy,
    StepCost,
    efficiencies,
)

__all__ = [
    "DEFAULT_O_A",
    "DistributedSolver",
    "DEFAULT_SPILL_BPP",
    "HaloExchangeError",
    "HaloPlan",
    "MessageTimeout",
    "RankComm",
    "RankDeadError",
    "ScalingPoint",
    "ScalingStudy",
    "SimComm",
    "StepCost",
    "build_halo_plan",
    "distributed_unzip",
    "efficiencies",
    "exchange_ghosts",
    "octant_work_weights",
    "partition_by_work",
    "predicted_imbalance",
    "publish_balance_metrics",
]
