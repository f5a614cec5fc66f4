import numpy as np
import pytest
from hypothesis import given, strategies as st

from stopgo.agent import (
    GO,
    STOP,
    RewardWeights,
    build_observation,
    compute_reward,
    default_obs_scale,
    lane_queue_and_delay,
    observation_lanes,
    observation_length,
)
from stopgo.engine import AlwaysGoPolicy, DemandSchedule, Simulation
from stopgo.idm import VehicleState


def test_observation_lanes_put_ego_first(net_1u):
    iid = net_1u.intersections[0].id
    plain = observation_lanes(net_1u, iid)
    assert plain == sorted(plain)
    ego = plain[2]
    ordered = observation_lanes(net_1u, iid, ego)
    assert ordered[0] == ego
    assert ordered[1:] == sorted(set(plain) - {ego})


def test_observation_lanes_reject_foreign_ego(net_1u):
    iid = net_1u.intersections[0].id
    with pytest.raises(ValueError):
        observation_lanes(net_1u, iid, "L_nowhere")


def test_observation_length_is_three_per_approach(net_1u):
    assert observation_length(net_1u, net_1u.intersections[0].id) == 12


def _veh(vid, speed, waiting):
    return VehicleState(id=vid, kind="HV", lane="L", position=0.0,
                        speed=speed, route_id="R", route_index=0,
                        waiting_time=waiting)


def test_default_obs_scale_tiles_queue_delay_occupancy():
    scale = default_obs_scale(12)
    assert scale == pytest.approx(np.tile([10.0, 50.0, 1.0], 4))


def test_lane_queue_and_delay():
    vehicles = [_veh("a", 0.0, 4.0), _veh("b", 0.05, 2.0), _veh("c", 8.0, 0.0)]
    queue, delay = lane_queue_and_delay(vehicles)
    assert queue == 2
    assert delay == pytest.approx(2.0)
    assert lane_queue_and_delay([]) == (0, 0.0)


def test_build_observation_from_live_simulation(net_1u):
    schedule = DemandSchedule(total_vehicles=12, horizon=30.0,
                              rv_penetration=1.0)
    sim = Simulation(net_1u, schedule, AlwaysGoPolicy(), seed=4,
                     log_decisions=False)
    controlled = None
    for _ in range(600):
        sim.step()
        controlled = next((v for v in sim.vehicles.values()
                           if sim.controlled(v.id)), None)
        if controlled is not None:
            break
    assert controlled is not None
    obs = build_observation(sim, net_1u, controlled.id)
    iid = net_1u.lane_by_id[controlled.lane].downstream_intersection
    assert obs.shape == (observation_length(net_1u, iid),)
    assert obs.dtype == np.float64
    lanes = observation_lanes(net_1u, iid, controlled.lane)
    for slot, lane_id in enumerate(lanes):
        queue, delay = lane_queue_and_delay(sim.lane_vehicles.get(lane_id, ()))
        assert obs[3 * slot] == queue
        assert obs[3 * slot + 1] == pytest.approx(delay)
        assert obs[3 * slot + 2] in (0.0, 1.0)


def test_build_observation_requires_control(net_1u):
    schedule = DemandSchedule(total_vehicles=4, horizon=20.0,
                              rv_penetration=1.0)
    sim = Simulation(net_1u, schedule, AlwaysGoPolicy(), seed=1,
                     log_decisions=False)
    while not sim.vehicles:
        sim.step()
    uncontrolled = next(v for v in sim.vehicles.values()
                        if not sim.controlled(v.id))
    with pytest.raises(ValueError):
        build_observation(sim, net_1u, uncontrolled.id)


def test_reward_signs():
    assert compute_reward(3.0, GO, False) == pytest.approx(3.0)
    assert compute_reward(3.0, STOP, False) == pytest.approx(-3.0)
    assert compute_reward(3.0, GO, True) == pytest.approx(3.0 - 10.0)
    assert compute_reward(0.0, STOP, True) == pytest.approx(-10.0)


def test_reward_weights_scale_terms():
    w = RewardWeights(alpha=0.5, beta_penalty=2.0)
    assert compute_reward(4.0, GO, True, w) == pytest.approx(2.0 - 2.0)


@given(delay=st.floats(min_value=0.0, max_value=1e3),
       action=st.sampled_from([GO, STOP]),
       alpha=st.floats(min_value=1e-3, max_value=10.0),
       beta=st.floats(min_value=1e-3, max_value=100.0))
def test_safety_term_never_positive(delay, action, alpha, beta):
    w = RewardWeights(alpha=alpha, beta_penalty=beta)
    safe = compute_reward(delay, action, False, w)
    crashed = compute_reward(delay, action, True, w)
    assert crashed - safe == pytest.approx(-beta)
    assert crashed <= safe


def test_reward_weights_validation():
    with pytest.raises(ValueError):
        RewardWeights(alpha=0.0)
    with pytest.raises(ValueError):
        RewardWeights(beta_penalty=-1.0)
