"""Car-following dynamics: IDM acceleration law and kinematic integration.

All human-driven vehicles, and robot vehicles outside their control zones,
follow the Intelligent Driver Model. Braking for red signals and for Stop
decisions is expressed through the same law by feeding it a virtual standing
leader at the stop line, so every deceleration goes through one code path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

HV = "HV"
RV = "RV"

NO_LEADER_GAP = math.inf  # sentinel: free road ahead

# Hard physical deceleration cap. Deliberately finite so that bad policy
# decisions can still produce collisions; the engine must not be able to
# brake its way out of every conflict.
B_EMERGENCY = 6.0

STOP_SPEED = 0.1  # below this a vehicle counts as stopped/queued

# IDM parameters, shared by every vehicle. The acceleration exponent delta
# is the literal 4 in idm_acceleration, and the engine caps the desired
# speed at each lane's speed limit.
DESIRED_SPEED = 13.9   # v0, urban 50 km/h
TIME_HEADWAY = 1.5     # T
MIN_GAP = 2.0          # s0
MAX_ACCEL = 1.0        # a
COMFORT_DECEL = 1.5    # b
_TWO_SQRT_AB = 2.0 * math.sqrt(MAX_ACCEL * COMFORT_DECEL)


def idm_acceleration(speed: float, approach_rate: float, gap: float,
                     desired_speed: float = DESIRED_SPEED) -> float:
    """IDM acceleration a*[1 - (v/v0)^4 - (s*/s)^2].

    speed: current speed (>= 0). approach_rate: own speed minus leader
    speed. gap: bumper-to-bumper distance (> 0; math.inf when no leader).
    Result is clamped to [-B_EMERGENCY, MAX_ACCEL]. With gap = inf the
    interaction term is exactly 0, so free-flow equilibrium at v0 returns
    exactly 0 and a standing start returns exactly MAX_ACCEL.
    """
    free = (speed / desired_speed) ** 4.0
    if gap == math.inf:
        interaction = 0.0
    elif gap <= 0.0:
        raise ValueError(f"gap must be > 0, got {gap!r}")
    else:
        s_star = MIN_GAP + speed * TIME_HEADWAY \
            + speed * approach_rate / _TWO_SQRT_AB
        if s_star < MIN_GAP:
            s_star = MIN_GAP
        interaction = (s_star / gap) ** 2
    accel = MAX_ACCEL * (1.0 - free - interaction)
    if accel > MAX_ACCEL:
        return MAX_ACCEL
    if accel < -B_EMERGENCY:
        return -B_EMERGENCY
    return accel


@dataclass(slots=True)
class VehicleState:
    """One vehicle's kinematic and routing state.

    position is measured from the lane start; route_index points into the
    route's lane chain at the current lane. waiting_time accumulates seconds
    spent below STOP_SPEED since entering the current lane (it resets on
    lane change) and feeds the delay observable.
    """
    id: str
    kind: str                      # HV or RV
    lane: str
    position: float
    speed: float
    route_id: str
    route_index: int
    length: float = 5.0
    waiting_time: float = 0.0
    current_action: int | None = None   # last Stop/Go decision on this lane
    collided_at: float | None = None    # set when involved in a collision


def advance_vehicle(vehicle: VehicleState, accel: float, dt: float) -> None:
    """Semi-implicit Euler update in place: speed first, then position.

    Speed is floored at 0; lane handoff (position past lane end) is the
    engine's job since it needs the route and network.
    """
    v = vehicle.speed + accel * dt
    if v < 0.0:
        v = 0.0
    vehicle.speed = v
    vehicle.position += v * dt
    if v < STOP_SPEED:
        vehicle.waiting_time += dt
