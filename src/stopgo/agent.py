"""Robot-vehicle interface: observations, Stop/Go actions, rewards.

An RV is controlled (`Simulation.controlled`, derived, never stored) while
its front bumper is within CONTROL_ZONE meters of the stop line of a
downstream unsignalized intersection. While controlled it picks Stop or Go
at a fixed cadence; Stop brakes toward the stop line through a virtual
standing leader, Go releases that constraint. Outside the zone (including
inside the conflict zone itself) the vehicle is plain IDM.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .idm import STOP_SPEED
from .netmodel import Network, UNSIGNALIZED

GO = 0
STOP = 1
ACTION_NAMES = {GO: "Go", STOP: "Stop"}

CONTROL_ZONE = 30.0   # meters upstream of the stop line
DECISION_PERIOD = 1.0  # seconds between Stop/Go choices


@dataclass(frozen=True)
class RewardWeights:
    """alpha scales the flow term; beta_penalty enters with a negative sign."""
    alpha: float = 1.0
    beta_penalty: float = 10.0

    def __post_init__(self):
        if self.alpha <= 0 or self.beta_penalty <= 0:
            raise ValueError("alpha and beta_penalty must be > 0")


def observation_lanes(net: Network, intersection_id: str,
                      ego_lane: str | None = None) -> list[str]:
    """Deterministic lane order for one intersection's observation vector.

    Ego lane first (when given), remaining incoming lanes sorted by id, so
    a shared policy always sees its own approach in slot 0.
    """
    lanes = sorted(net.incoming_lanes[intersection_id])
    if ego_lane is not None:
        if ego_lane not in lanes:
            raise ValueError(f"{ego_lane!r} does not enter {intersection_id!r}")
        lanes.remove(ego_lane)
        lanes.insert(0, ego_lane)
    return lanes


def observation_length(net: Network, intersection_id: str) -> int:
    """Three entries (queue, delay, occupancy) per incoming lane."""
    return 3 * len(net.incoming_lanes[intersection_id])


def _unsignalized_lengths(net: Network) -> dict[str, int]:
    """Observation length of each unsignalized intersection, in network
    order: the intersections where a policy decides."""
    return {i.id: observation_length(net, i.id)
            for i in net.intersections if i.control == UNSIGNALIZED}


def observation_dim(net: Network) -> int:
    """Shared observation length across unsignalized intersections."""
    sizes = set(_unsignalized_lengths(net).values())
    if not sizes:
        raise ValueError("network has no unsignalized intersections to train on")
    if len(sizes) > 1:
        raise ValueError(
            f"unsignalized intersections disagree on lane count: {sorted(sizes)}")
    return sizes.pop()


def check_policy_fits(policy, net: Network) -> None:
    """A policy that reads one observation length says so in `obs_dim`;
    raise ValueError naming the first unsignalized intersection of net
    whose observations have another length."""
    expected = getattr(policy, "obs_dim", None)
    if expected is None:
        return
    for iid, length in _unsignalized_lengths(net).items():
        if length != expected:
            raise ValueError(
                f"intersection {iid} gives observations of length "
                f"{length}, the policy reads {expected}")


def default_obs_scale(obs_dim: int) -> np.ndarray:
    """Fixed input scaling for (queue, delay, occupancy) triples."""
    if obs_dim % 3 != 0:
        raise ValueError("observation length must be a multiple of 3")
    return np.tile(np.array([10.0, 50.0, 1.0]), obs_dim // 3)


def lane_queue_and_delay(vehicles) -> tuple[int, float]:
    """Queue length (vehicles below STOP_SPEED) and mean accumulated waiting
    time over all vehicles on the lane (0 for an empty lane)."""
    queue = 0
    total_wait = 0.0
    n = 0
    for v in vehicles:
        n += 1
        total_wait += v.waiting_time
        if v.speed < STOP_SPEED:
            queue += 1
    delay = total_wait / n if n else 0.0
    return queue, delay


def build_observation(world, net: Network, rv_id: str) -> np.ndarray:
    """Flatten per-lane (queue, delay, occupancy) triples for the RV's
    intersection, ego lane first.

    world must expose vehicles (id map), lane_vehicles (lane id -> vehicle
    list), controlled(vehicle id) -> whether the Stop/Go policy drives it,
    and zone_entry_lanes(intersection id) -> set of lane ids whose vehicles
    currently occupy the conflict zone.
    """
    if not world.controlled(rv_id):
        raise ValueError(f"{rv_id!r} is not inside any control zone")
    rv = world.vehicles[rv_id]
    iid = net.lane_by_id[rv.lane].downstream_intersection
    occupied_from = world.zone_entry_lanes(iid)
    obs = np.empty(observation_length(net, iid), dtype=np.float64)
    for slot, lane_id in enumerate(observation_lanes(net, iid, rv.lane)):
        queue, delay = lane_queue_and_delay(world.lane_vehicles.get(lane_id, ()))
        obs[3 * slot] = queue
        obs[3 * slot + 1] = delay
        obs[3 * slot + 2] = 1.0 if lane_id in occupied_from else 0.0
    return obs


def compute_reward(approach_delay: float, action: int, collided: bool,
                   weights: RewardWeights = RewardWeights()) -> float:
    """alpha * (+delay for Go, -delay for Stop) - beta_penalty if the RV was
    involved in a collision after acting.

    approach_delay is the RV's own approach lane's mean waiting time at
    decision time. The safety contribution is never positive.
    """
    flow = approach_delay if action == GO else -approach_delay
    reward = weights.alpha * flow
    if collided:
        reward -= weights.beta_penalty
    return reward
