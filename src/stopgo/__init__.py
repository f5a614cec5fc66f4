"""stopgo: mixed-traffic microsimulation with a learned Stop/Go policy.

Robot vehicles crossing unsignalized intersections pick Stop or Go with a
shared distributional Q-network trained online from their own transitions;
human-driven vehicles follow IDM with gap acceptance, signalized
intersections run fixed-time plans, and a sweep harness measures collision
rates across network configurations, demand levels, and turning layouts.
"""

from .agent import GO, STOP, RewardWeights, build_observation, compute_reward
from .engine import (AlwaysGoPolicy, DemandSchedule, EngineConfig,
                     RandomPolicy, Simulation, run_rollout, write_events_csv)
from .idm import VehicleState, idm_acceleration
from .metrics import (ExperimentSpec, ResultRow, aggregate, collision_rate,
                      run_sweep, summarize)
from .netmodel import (GridGeometry, Network, NetworkError, ParseError,
                       generate_grid, load_network, parse_network,
                       remove_left_turns, save_network, serialize_network,
                       validate_network)
from .rainbow import Learner, LearnerConfig, PolicySnapshot, load_policy
from .training import ScenarioConfig, make_policy, train

__version__ = "0.1.0"

__all__ = [
    "GO", "STOP", "RewardWeights", "build_observation", "compute_reward",
    "AlwaysGoPolicy", "DemandSchedule", "EngineConfig", "RandomPolicy",
    "Simulation", "run_rollout", "write_events_csv",
    "VehicleState", "idm_acceleration",
    "ExperimentSpec", "ResultRow", "aggregate", "collision_rate",
    "run_sweep", "summarize",
    "GridGeometry", "Network", "NetworkError", "ParseError",
    "generate_grid", "load_network", "parse_network", "remove_left_turns",
    "save_network", "serialize_network", "validate_network",
    "Learner", "LearnerConfig", "PolicySnapshot", "load_policy",
    "ScenarioConfig", "make_policy", "train",
    "__version__",
]
