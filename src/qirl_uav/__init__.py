"""Quantum-inspired reinforcement learning for UAV trajectory planning:
uplink-rate grid worlds, collapse/amplification action selection, tabular
baselines, exact DP oracles, and a reproducible experiment harness."""

from .agents import (
    QiRLAgent,
    QiRLConfig,
    QLConfig,
    QLearningAgent,
    Rollout,
    greedy_rollout,
    qirl_select,
    qirl_update,
    ql_select,
    ql_update,
)
from .channel import CarrierConfig, GroundUser, path_loss_db, rate_field, snr
from .gridworld import Action, EnvConfig, GridWorld, StepOutcome, build, manhattan
from .harness import (
    ConvergenceMetric,
    EpisodeLog,
    RunConfig,
    convergence_metrics,
    make_rng,
    run,
)
from .layout import LayoutError, parse_layout
from .oracle import DPResult, dp_optimal, enumerate_paths
from .quantum import (
    AmplitudeRegister,
    PhasePair,
    amplitude_ratio,
    collapse,
    collapse_many,
    grover_analytic,
    grover_matrix,
    uniform_register,
)

__version__ = "0.1.0"
