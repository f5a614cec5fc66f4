import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stopgo.idm import (
    B_EMERGENCY,
    DESIRED_SPEED,
    MAX_ACCEL,
    MIN_GAP,
    NO_LEADER_GAP,
    STOP_SPEED,
    VehicleState,
    advance_vehicle,
    idm_acceleration,
)


@dataclass(frozen=True)
class _ReferenceParams:
    desired_speed: float = 13.9
    time_headway: float = 1.5
    min_gap: float = 2.0
    max_accel: float = 1.0
    comfort_decel: float = 1.5
    accel_exponent: float = 4.0


def _reference_idm(speed, approach_rate, gap, p=_ReferenceParams()):
    """The law as it was written with a parameter object, kept as the
    reference that the constant form must match bit for bit."""
    free = (speed / p.desired_speed) ** p.accel_exponent
    if gap == math.inf:
        interaction = 0.0
    else:
        s_star = p.min_gap + speed * p.time_headway \
            + speed * approach_rate / (2.0 * math.sqrt(p.max_accel
                                                       * p.comfort_decel))
        if s_star < p.min_gap:
            s_star = p.min_gap
        interaction = (s_star / gap) ** 2
    accel = p.max_accel * (1.0 - free - interaction)
    if accel > p.max_accel:
        return p.max_accel
    if accel < -B_EMERGENCY:
        return -B_EMERGENCY
    return accel


def test_law_matches_parameter_object_reference_bit_for_bit():
    rng = np.random.default_rng(2000)
    n = 100_000
    speeds = rng.uniform(0.0, 20.0, n)
    speeds[rng.random(n) < 0.05] = 0.0
    rates = rng.uniform(-15.0, 15.0, n)
    gaps = np.exp(rng.uniform(math.log(1e-3), math.log(200.0), n))
    gaps[rng.random(n) < 0.1] = math.inf
    slow = rng.random(n) < 0.5
    limits = rng.uniform(5.0, DESIRED_SPEED, n)
    seen = {"inf": 0, "floor": 0, "emergency": 0, "max": 0, "slow": 0}
    for v, dv, s, is_slow, v0 in zip(speeds.tolist(), rates.tolist(),
                                     gaps.tolist(), slow.tolist(),
                                     limits.tolist()):
        if is_slow:
            got = idm_acceleration(v, dv, s, v0)
            want = _reference_idm(v, dv, s, _ReferenceParams(desired_speed=v0))
            seen["slow"] += 1
        else:
            got = idm_acceleration(v, dv, s)
            want = _reference_idm(v, dv, s)
        assert got == want, (v, dv, s, v0 if is_slow else DESIRED_SPEED)
        seen["inf"] += s == math.inf
        # s* < s0 exactly when v * (T + dv / (2 sqrt(a b))) < 0.
        seen["floor"] += s != math.inf and v * (1.5 + dv / math.sqrt(6.0)) < 0
        seen["emergency"] += want == -B_EMERGENCY
        seen["max"] += want == MAX_ACCEL
    # The law reaches MAX_ACCEL only at rest on a free road.
    assert min(seen.values()) > 100, seen


def test_closed_form_hand_value():
    # v=5, dv=2, s=20 with a=1, b=1.5, so 2*sqrt(a*b) = sqrt(6):
    # s* = 2 + 7.5 + 10/sqrt(6) = 9.5 + sqrt(50/3),
    # accel = 1 - (5/13.9)^4 - (s*/20)^2, and (5/13.9)^4 = 6250000/373301041
    accel = idm_acceleration(5.0, 2.0, 20.0)
    expected = 1.0 - 6250000 / 373301041 - (9.5 + math.sqrt(50 / 3)) ** 2 / 400
    assert accel == pytest.approx(expected, rel=1e-12)


def test_free_road_at_desired_speed_is_exactly_zero():
    assert idm_acceleration(DESIRED_SPEED, 0.0, NO_LEADER_GAP) == 0.0
    assert idm_acceleration(10.0, 0.0, NO_LEADER_GAP, 10.0) == 0.0


def test_free_road_at_rest_is_exactly_max_accel():
    assert idm_acceleration(0.0, 0.0, NO_LEADER_GAP) == MAX_ACCEL


def test_standing_at_minimum_gap_holds_still():
    assert idm_acceleration(0.0, 0.0, MIN_GAP) == 0.0


def test_braking_clamped_at_emergency_limit():
    accel = idm_acceleration(13.9, 13.9, 0.5)
    assert accel == -B_EMERGENCY


def test_acceleration_never_exceeds_max():
    for gap in (5.0, 50.0, NO_LEADER_GAP):
        for speed in (0.0, 5.0, 13.9):
            assert idm_acceleration(speed, 0.0, gap) <= MAX_ACCEL


def test_rejects_nonpositive_gap():
    with pytest.raises(ValueError):
        idm_acceleration(5.0, 0.0, 0.0)


def _vehicle(position=0.0, speed=10.0):
    return VehicleState(id="V0", kind="HV", lane="L", position=position,
                        speed=speed, route_id="R", route_index=0)


def test_vehicle_state_rejects_unknown_attributes():
    # A misspelt field would otherwise be a silent new attribute.
    v = _vehicle()
    with pytest.raises(AttributeError):
        v.colided_at = 1.0
    assert not hasattr(v, "__dict__")


def test_advance_is_semi_implicit():
    v = _vehicle(position=100.0, speed=10.0)
    advance_vehicle(v, 1.0, 0.1)
    assert v.speed == pytest.approx(10.1)
    assert v.position == pytest.approx(100.0 + 10.1 * 0.1)


def test_advance_floors_speed_at_zero():
    v = _vehicle(speed=0.2)
    advance_vehicle(v, -6.0, 0.1)
    assert v.speed == 0.0


def test_waiting_time_accrues_only_below_stop_speed():
    v = _vehicle(speed=0.0)
    advance_vehicle(v, 0.0, 0.1)
    advance_vehicle(v, 0.0, 0.1)
    assert v.waiting_time == pytest.approx(0.2)
    moving = _vehicle(speed=5.0)
    advance_vehicle(moving, 0.0, 0.1)
    assert moving.waiting_time == 0.0
    assert moving.speed > STOP_SPEED


@settings(max_examples=30, deadline=None)
@given(
    speeds=st.lists(st.floats(min_value=0.0, max_value=13.9),
                    min_size=2, max_size=8),
    gaps=st.lists(st.floats(min_value=2.0, max_value=40.0),
                  min_size=1, max_size=7),
    leader_brakes=st.booleans(),
)
def test_platoon_never_produces_negative_gap(speeds, gaps, leader_brakes):
    gaps = (gaps * len(speeds))[: len(speeds) - 1]
    length = 5.0
    vehicles = []
    position = 0.0
    for i, speed in enumerate(speeds):
        vehicles.append(_vehicle(position=position, speed=speed))
        if i < len(gaps):
            # a start is only fair if the follower can brake out of it:
            # cover the stopping-distance deficit plus one step of travel
            follower = speeds[i + 1]
            deficit = max(0.0, (follower ** 2 - speed ** 2) / (2 * B_EMERGENCY))
            position -= length + max(gaps[i], 2.0 + deficit + follower * 0.1)
    for step in range(400):
        accels = []
        for i, v in enumerate(vehicles):
            if i == 0:
                gap = NO_LEADER_GAP
                rate = 0.0
                if leader_brakes and step < 100:
                    accels.append(max(-B_EMERGENCY, -3.0))
                    continue
            else:
                lead = vehicles[i - 1]
                gap = lead.position - length - v.position
                rate = v.speed - lead.speed
            accels.append(idm_acceleration(v.speed, rate, max(gap, 1e-3)))
        for v, a in zip(vehicles, accels):
            advance_vehicle(v, a, 0.1)
        for lead, follow in zip(vehicles, vehicles[1:]):
            assert lead.position - length - follow.position >= 0.0


def test_no_leader_sentinel_is_infinite():
    assert math.isinf(NO_LEADER_GAP)
