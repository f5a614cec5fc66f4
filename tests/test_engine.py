import hashlib
import math
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from stopgo import engine
from stopgo.engine import (
    CROSSING,
    EVENT_COLUMNS,
    REAR_END,
    AlwaysGoPolicy,
    DemandSchedule,
    EngineConfig,
    RandomPolicy,
    Simulation,
    format_event,
    run_rollout,
    write_events_csv,
)
from stopgo.metrics import ExperimentSpec, MetricError
from stopgo.idm import HV, VehicleState
from stopgo.netmodel import (UNSIGNALIZED, GridGeometry, Intersection, Lane,
                             Movement, Network, Route, generate_grid,
                             remove_left_turns, validate_network)
from stopgo.rainbow import Learner, LearnerConfig
from stopgo.signals import permitted_movements, phase_at
from stopgo.training import ScenarioConfig, observation_dim


class AlwaysStopPolicy:
    def decide(self, obs, rng):
        return 1


def test_arrival_times_are_evenly_spread():
    schedule = DemandSchedule(total_vehicles=4, horizon=100.0)
    assert [schedule.arrival_time(k) for k in range(4)] == [
        pytest.approx(12.5), pytest.approx(37.5),
        pytest.approx(62.5), pytest.approx(87.5)]


@pytest.mark.parametrize("total,rate", [(100, 0.6), (7, 0.25), (10, 0.0),
                                        (10, 1.0), (33, 0.4), (50, 0.8)])
def test_rv_quota_matches_rounded_penetration(total, rate):
    schedule = DemandSchedule(total_vehicles=total, horizon=100.0,
                              rv_penetration=rate)
    assert sum(schedule.is_rv(k) for k in range(total)) == round(rate * total)


def test_every_scheduled_vehicle_spawns_even_when_queued(net_1u):
    # dense horizon forces spawn queuing; queued vehicles must not be dropped
    schedule = DemandSchedule(total_vehicles=40, horizon=20.0)
    _, summary = run_rollout(net_1u, schedule, AlwaysGoPolicy(), seed=2,
                             duration=300.0, log_decisions=False)
    assert summary.spawned == 40


def test_spawned_ids_and_event_stream(net_1u):
    schedule = DemandSchedule(total_vehicles=5, horizon=50.0,
                              rv_penetration=0.6)
    events, summary = run_rollout(net_1u, schedule, RandomPolicy(), seed=3,
                                  duration=200.0)
    assert summary.spawned == 5
    assert summary.rv_spawned == 3
    spawns = [e for e in events if e.event_type == "Spawn"]
    assert [e.vehicle_ids[0] for e in spawns] == [
        f"V{k:06d}" for k in range(5)]
    assert all(e.event_type in ("Spawn", "Departure", "Collision", "Decision")
               for e in events)
    times = [e.time for e in events]
    assert times == sorted(times)


def test_rollout_is_deterministic_per_seed(net_2u):
    schedule = DemandSchedule(total_vehicles=30, horizon=120.0,
                              rv_penetration=0.5)
    first, s1 = run_rollout(net_2u, schedule, RandomPolicy(), seed=11,
                            duration=240.0)
    second, s2 = run_rollout(net_2u, schedule, RandomPolicy(), seed=11,
                             duration=240.0)
    other, _ = run_rollout(net_2u, schedule, RandomPolicy(), seed=12,
                           duration=240.0)
    assert [format_event(e) for e in first] == [format_event(e) for e in second]
    assert s1 == s2
    assert [format_event(e) for e in first] != [format_event(e) for e in other]


@pytest.mark.parametrize("grid,demand,horizon,seed,steps", [
    ((2, 0, 1, 2), 60, 120.0, 8, 2400),
    ((6, 8, 2, 7), 1200, 1000.0, 1, 1500),
], ids=["2U-demand60", "6U+8S-demand1200"])
def test_no_negative_gaps_among_healthy_vehicles(grid, demand, horizon, seed,
                                                 steps):
    u, s, rows, cols = grid
    net = generate_grid(u, s, GridGeometry(rows=rows, cols=cols))
    schedule = DemandSchedule(total_vehicles=demand, horizon=horizon,
                              rv_penetration=0.5)
    sim = Simulation(net, schedule, RandomPolicy(), seed=seed,
                     log_decisions=False)
    for _ in range(steps):
        sim.step()
        # The lane lists are kept front first and partition the vehicles.
        on_lanes = []
        for lane_id, vehicles in sim.lane_vehicles.items():
            assert vehicles == sorted(vehicles,
                                      key=lambda v: (-v.position, v.id))
            assert all(v.lane == lane_id for v in vehicles)
            on_lanes.extend(v.id for v in vehicles)
        assert sorted(on_lanes) == sorted(sim.vehicles)
        # The engine walks only the occupied lanes, in lane id order.
        assert sim.occupied_lanes == sorted(
            lane_id for lane_id, vehicles in sim.lane_vehicles.items()
            if vehicles)
        for vehicles in sim.lane_vehicles.values():
            for lead, follow in zip(vehicles, vehicles[1:]):
                if lead.collided_at is not None or follow.collided_at is not None:
                    continue
                assert lead.position - lead.length - follow.position >= -1e-9
        # Each vehicle's record holds its next movement and its zone.
        zones = {i.id: {} for i in net.intersections}
        for vid, v in sim.vehicles.items():
            chain = net.route_by_id[v.route_id].lane_chain
            assert chain[v.route_index] == v.lane
            if v.route_index + 1 < len(chain):
                assert v.next_move == net.movement_by_lanes[
                    (v.lane, chain[v.route_index + 1])]
            else:
                assert v.next_move is None
            if v.zone is not None:
                iid = net.lane_by_id[v.zone.from_lane].downstream_intersection
                zones[iid][vid] = v.zone
        assert sim.zone_occupancy == zones


def test_collided_vehicles_freeze_then_leave(net_1u):
    schedule = DemandSchedule(total_vehicles=30, horizon=60.0,
                              rv_penetration=1.0)
    sim = Simulation(net_1u, schedule, AlwaysGoPolicy(), seed=1,
                     log_decisions=False)
    frozen_seen = False
    for _ in range(3000):
        sim.step()
        for v in sim.vehicles.values():
            if v.collided_at is not None:
                frozen_seen = True
                assert v.speed == 0.0
                assert sim.clock - v.collided_at <= sim.config.collision_dwell + 0.2
        if sim.summary().collision_events and not sim.vehicles:
            break
    assert frozen_seen, "scenario expected to produce at least one collision"
    assert sim.summary().collided >= 2


def test_collision_kinds_and_dedup(net_1u):
    schedule = DemandSchedule(total_vehicles=50, horizon=100.0,
                              rv_penetration=1.0)
    events, summary = run_rollout(net_1u, schedule, RandomPolicy(), seed=7,
                                  duration=400.0, log_decisions=False)
    collisions = [e for e in events if e.event_type == "Collision"]
    assert collisions, "seed chosen to produce collisions"
    assert all(e.extra in (f"kind={CROSSING}", f"kind={REAR_END}")
               for e in collisions)
    pairs = [tuple(sorted(e.vehicle_ids)) for e in collisions]
    assert len(pairs) == len(set(pairs))  # one event per contact pair


def test_collided_count_matches_log_recount(net_1u):
    schedule = DemandSchedule(total_vehicles=50, horizon=100.0,
                              rv_penetration=1.0)
    events, summary = run_rollout(net_1u, schedule, RandomPolicy(), seed=7,
                                  duration=400.0, log_decisions=False)
    ids = set()
    for e in events:
        if e.event_type == "Collision":
            ids.update(e.vehicle_ids)
    assert summary.collided == len(ids)
    assert summary.collision_events == sum(
        1 for e in events if e.event_type == "Collision")


def test_collided_vehicles_never_depart(net_1u):
    schedule = DemandSchedule(total_vehicles=50, horizon=100.0,
                              rv_penetration=1.0)
    events, summary = run_rollout(net_1u, schedule, RandomPolicy(), seed=7,
                                  duration=400.0, log_decisions=False)
    departed = {e.vehicle_ids[0] for e in events
                if e.event_type == "Departure"}
    crashed = set()
    for e in events:
        if e.event_type == "Collision":
            crashed.update(e.vehicle_ids)
    assert not departed & crashed
    assert summary.departed == len(departed)
    assert summary.spawned == summary.departed + summary.collided


def test_always_stop_rvs_never_enter_the_zone(net_1u):
    schedule = DemandSchedule(total_vehicles=8, horizon=80.0,
                              rv_penetration=1.0)
    sim = Simulation(net_1u, schedule, AlwaysStopPolicy(), seed=5,
                     log_decisions=False)
    stop_line = {lane.id: lane.length - sim.config.zone_length
                 for lane in net_1u.lanes}
    for _ in range(4000):
        sim.step()
        for v in sim.vehicles.values():
            lane = net_1u.lane_by_id[v.lane]
            if lane.downstream_intersection is not None:
                assert v.position <= stop_line[v.lane] + 1e-6
    assert sim.summary().departed == 0
    assert sim.summary().collision_events == 0


@pytest.mark.parametrize("all_red", [0.0, 3.0])
def test_red_signal_holds_vehicles_at_the_line(net_1s, all_red):
    schedule = DemandSchedule(total_vehicles=40, horizon=200.0,
                              rv_penetration=0.0)
    sim = Simulation(net_1s, schedule, AlwaysGoPolicy(), seed=9,
                     config=EngineConfig(all_red=all_red),
                     log_decisions=False)
    config = sim.config
    plan = net_1s.intersections[0].plan
    previous = {}
    for _ in range(4000):
        t = sim.clock
        sim.step()
        for vid, v in sim.vehicles.items():
            lane = net_1s.lane_by_id[v.lane]
            if lane.downstream_intersection is None:
                continue
            line = lane.length - config.zone_length
            was = previous.get((vid, v.lane))
            if was is not None and was <= line < v.position:
                move = v.next_move
                if move is not None:
                    # allow dilemma-zone crossers committed just before a
                    # phase flip; mid-red entries are never acceptable
                    recently_green = any(
                        move.id in permitted_movements(
                            plan, phase_at(plan, t - dt), all_red)
                        for dt in (0.0, 1.0, 2.0, 3.0))
                    assert recently_green
        previous = {(vid, v.lane): v.position
                    for vid, v in sim.vehicles.items()}
    assert sim.summary().departed > 0


@pytest.mark.parametrize("all_red", [0.0, 1.05, 3.0])
def test_signals_with_several_timings_follow_each_plan(all_red):
    """The engine looks each signal's phase up only near a boundary and
    reuses the permitted sets while no signal changes phase or enters its
    clearance tail; with several timings each intersection still follows
    its own, also where phase ends fall between two steps."""
    net = generate_grid(0, 6, GridGeometry(rows=2, cols=3))
    intersections = []
    for k, inter in enumerate(net.intersections):
        if k % 2:   # every other plan gets longer, unequal phases
            phases = tuple(replace(phase, duration=phase.duration + k + j)
                           for j, phase in enumerate(inter.plan.phases))
            inter = replace(inter, plan=replace(inter.plan, phases=phases))
        elif k == 2:    # phases that are not multiples of dt
            phases = tuple(replace(phase, duration=(14.95, 15.05)[j % 2])
                           for j, phase in enumerate(inter.plan.phases))
            inter = replace(inter, plan=replace(inter.plan, phases=phases))
        intersections.append(inter)
    net = replace(net, intersections=tuple(intersections))
    assert len({tuple(p.duration for p in i.plan.phases)
                for i in net.intersections}) == 5
    schedule = DemandSchedule(total_vehicles=60, horizon=200.0,
                              rv_penetration=0.0)
    sim = Simulation(net, schedule, AlwaysGoPolicy(), seed=2,
                     config=EngineConfig(all_red=all_red))
    longest = max(i.plan.cycle_length for i in net.intersections)
    while sim.clock < 2 * longest:
        t = sim.clock
        sim.step()
        assert sim.permitted == {
            i.id: permitted_movements(i.plan, phase_at(i.plan, t), all_red)
            for i in net.intersections}


def test_rollouts_without_a_learner_compute_no_rewards(net_2u, monkeypatch):
    calls = []
    reward = engine.compute_reward
    monkeypatch.setattr(engine, "compute_reward",
                        lambda *args: calls.append(args) or reward(*args))
    schedule = DemandSchedule(total_vehicles=60, horizon=120.0,
                              rv_penetration=0.8)
    events, _ = run_rollout(net_2u, schedule, RandomPolicy(), seed=1,
                            duration=150.0)
    assert any(e.event_type == "Decision" for e in events)
    assert calls == []
    sim = Simulation(net_2u, schedule, RandomPolicy(), seed=1)
    for _ in range(1500):
        sim.step()
    assert sim.pending == {} and calls == []


def test_transition_stream_is_unchanged(net_2u):
    """A sink-driven run with collisions: 659 transitions, 60 of them
    terminal (three from the horizon flush), in a fixed order."""
    rows = []
    sim = Simulation(net_2u, DemandSchedule(total_vehicles=60, horizon=120.0,
                                            rv_penetration=0.8),
                     RandomPolicy(), seed=1, log_decisions=False,
                     transition_sink=lambda *row: rows.append(row))
    for _ in range(1500):
        sim.step()
    assert sim.summary().collision_events == 8
    sim.flush_pending()
    assert (len(rows), sum(row[4] for row in rows)) == (659, 60)
    digest = hashlib.sha256()
    for obs, action, reward, next_obs, terminal in rows:
        digest.update(repr((obs.tobytes(), action, reward, next_obs.tobytes(),
                            terminal)).encode())
    assert digest.hexdigest() == (
        "c1e8f871349cb609e2bb8b1761a9bb828e1587d66337ce90a44a53c0c033b0d5")


def test_all_red_must_be_shorter_than_every_phase(net_1s):
    schedule = DemandSchedule(total_vehicles=10)
    with pytest.raises(ValueError, match="all_red = 15 must be shorter"):
        Simulation(net_1s, schedule, AlwaysGoPolicy(), seed=1,
                   config=EngineConfig(all_red=15.0))
    Simulation(net_1s, schedule, AlwaysGoPolicy(), seed=1,
               config=EngineConfig(all_red=14.9))


def test_all_signalized_grid_has_no_crossing_collisions(net_1s):
    schedule = DemandSchedule(total_vehicles=120, horizon=400.0,
                              rv_penetration=0.0)
    events, _ = run_rollout(net_1s, schedule, AlwaysGoPolicy(), seed=4,
                            duration=600.0, log_decisions=False)
    crossing = [e for e in events if e.event_type == "Collision"
                and e.extra == f"kind={CROSSING}"]
    assert crossing == []


def test_zone_occupancy_empties_after_drain(net_1u):
    schedule = DemandSchedule(total_vehicles=20, horizon=60.0,
                              rv_penetration=0.0)
    sim = Simulation(net_1u, schedule, AlwaysGoPolicy(), seed=6,
                     log_decisions=False)
    for _ in range(3000):
        sim.step()
    assert not sim.vehicles
    assert all(not occupants for occupants in sim.zone_occupancy.values())


def test_decision_tick_asks_the_controlled_rvs(monkeypatch):
    """The tick finds the RVs from the unsignalized approach lanes; they
    are the vehicles `controlled` admits, in id order."""
    net = generate_grid(12, 2, GridGeometry(rows=2, cols=7))
    schedule = DemandSchedule(total_vehicles=1200, horizon=1000.0,
                              rv_penetration=0.6)
    sim = Simulation(net, schedule, RandomPolicy(), seed=1)
    expected, asked = [], []
    decision_step, build = sim._decision_step, engine.build_observation

    def checked_decision_step():
        expected.append(sorted(filter(sim.controlled, sim.vehicles)))
        asked.append([])
        decision_step()

    def recorded_build(world, net, rv_id):
        asked[-1].append(rv_id)
        return build(world, net, rv_id)

    monkeypatch.setattr(sim, "_decision_step", checked_decision_step)
    monkeypatch.setattr(engine, "build_observation", recorded_build)
    for _ in range(1500):
        sim.step()
    assert len(asked) == 150
    assert asked == expected
    assert sum(map(len, asked)) > 1000


def _short_link_net(link_length):
    """W -> J0 -> LINK -> J1 -> E, crossed at J0 and at J1 by one stream
    each; both junctions unsignalized."""
    lanes = (Lane("W", 60.0, 13.9, "J0"), Lane("LINK", link_length, 13.9, "J1"),
             Lane("E", 60.0, 13.9), Lane("N0", 60.0, 13.9, "J0"),
             Lane("S0", 60.0, 13.9), Lane("N1", 60.0, 13.9, "J1"),
             Lane("S1", 60.0, 13.9))
    movements = (Movement("M_W", "W", "LINK", "straight"),
                 Movement("M_LINK", "LINK", "E", "straight"),
                 Movement("M_N0", "N0", "S0", "straight"),
                 Movement("M_N1", "N1", "S1", "straight"))
    net = Network(
        (Intersection("J0", UNSIGNALIZED, "CZ_J0"),
         Intersection("J1", UNSIGNALIZED, "CZ_J1")),
        lanes, movements, (("M_N0", "M_W"), ("M_LINK", "M_N1")),
        (Route("R0", ("W", "LINK", "E")), Route("R1", ("N0", "S0")),
         Route("R2", ("N1", "S1"))))
    validate_network(net)
    return net


@pytest.mark.parametrize("zone_length", [12.0, 0.5])
def test_zone_entry_matches_a_full_scan(zone_length):
    """LINK's stop line lies 5 cm past its start, within one step's
    travel. After every step each vehicle's zone is what a scan of every
    vehicle gives: one outside a zone enters the zone ahead once its front
    is past the stop line, and one inside leaves once its rear has entered
    the exit lane. At zone_length 0.5 some vehicles pass W's stop line and
    end in one step, and enter J1's zone on LINK, the lane just handed to
    them."""
    net = _short_link_net(zone_length + 0.05)
    schedule = DemandSchedule(total_vehicles=150, horizon=300.0,
                              rv_penetration=0.5)
    sim = Simulation(net, schedule, RandomPolicy(), seed=3,
                     config=EngineConfig(zone_length=zone_length),
                     log_decisions=False)
    before = {}     # vehicle id -> (zone, lane) before the step
    entered_on_hand_off = 0
    for _ in range(3000):
        sim.step()
        zones = {i.id: {} for i in net.intersections}
        for vid, v in sim.vehicles.items():
            zone, lane_before = before.get(vid, (None, None))
            lane = net.lane_by_id[v.lane]
            if zone is None:
                if lane.downstream_intersection is not None \
                        and v.position > lane.length - zone_length \
                        and v.next_move is not None:
                    zone = v.next_move
                    entered_on_hand_off += lane_before not in (None, v.lane)
            elif v.lane == zone.to_lane and v.position >= v.length:
                zone = None
            assert v.zone == zone, vid
            if zone is not None:
                iid = net.lane_by_id[zone.from_lane].downstream_intersection
                zones[iid][vid] = zone
        assert sim.zone_occupancy == zones
        before = {vid: (v.zone, v.lane) for vid, v in sim.vehicles.items()}
    assert sim.summary().collision_events > 0
    assert (entered_on_hand_off > 0) == (zone_length < 1.0)


def test_a_wreck_that_left_its_zone_enters_the_next_one():
    """A leaves J0's zone on LINK and runs into B in the same step. LINK's
    stop line lies behind A, so at the next step A, now a wreck, enters
    J1's zone as a moving vehicle would."""
    net = _short_link_net(12.05)
    sim = Simulation(net, DemandSchedule(total_vehicles=1, horizon=1000.0),
                     AlwaysGoPolicy(), seed=1, log_decisions=False)
    placed = {}
    for vid, position, speed in (("B", 10.0, 0.0), ("A", 4.95, 3.0)):
        v = VehicleState(id=vid, kind=HV, lane="LINK", position=position,
                         speed=speed, route_id="R0", route_index=1)
        v.next_move = net.movement_by_id["M_LINK"]
        sim.vehicles[vid] = v
        sim.lane_vehicles["LINK"].append(v)
        placed[vid] = v
    sim.occupied_lanes.append("LINK")
    a, b = placed["A"], placed["B"]
    a.zone = net.movement_by_id["M_W"]
    b.zone = net.movement_by_id["M_LINK"]
    sim.zone_occupancy["J0"]["A"] = a.zone
    sim.zone_occupancy["J1"]["B"] = b.zone
    sim.step()
    assert a.collided_at == 0.0 and a.position >= a.length
    assert a.zone is None and "A" not in sim.zone_occupancy["J0"]
    sim.step()
    assert a.zone == net.movement_by_id["M_LINK"]
    assert sim.zone_occupancy["J1"] == {"A": a.zone, "B": b.zone}


def test_summary_text_is_key_value_lines(net_1u):
    schedule = DemandSchedule(total_vehicles=10, horizon=40.0)
    _, summary = run_rollout(net_1u, schedule, AlwaysGoPolicy(), seed=1,
                             duration=200.0, log_decisions=False)
    text = summary.as_text()
    lines = dict(line.split(" = ") for line in text.strip().splitlines())
    assert int(lines["spawned"]) == 10
    assert int(lines["departed"]) == summary.departed
    assert "collision_rate" in lines


def test_event_csv_format(tmp_path, net_1u):
    schedule = DemandSchedule(total_vehicles=6, horizon=30.0,
                              rv_penetration=0.5)
    events, _ = run_rollout(net_1u, schedule, RandomPolicy(), seed=2,
                            duration=120.0)
    path = tmp_path / "events.csv"
    write_events_csv(events, path)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(EVENT_COLUMNS)
    assert len(lines) == len(events) + 1
    first = lines[1].split(",")
    assert len(first) == len(EVENT_COLUMNS)
    float(first[0])  # time parses
    assert first[1] == "Spawn"


def test_engine_config_decision_steps():
    assert EngineConfig().decision_steps == 10
    assert EngineConfig(dt=0.5).decision_steps == 2


@pytest.mark.parametrize("make,name", [
    (lambda: EngineConfig(dt=math.nan), "dt"),
    (lambda: EngineConfig(all_red=math.inf), "all_red"),
    (lambda: DemandSchedule(total_vehicles=10, horizon=math.inf), "horizon"),
    (lambda: DemandSchedule(total_vehicles=10, rv_penetration=math.nan),
     "rv_penetration"),
    (lambda: ScenarioConfig(episode_duration=math.nan), "episode_duration"),
    (lambda: ExperimentSpec(("1U+0S",), (0.5, math.nan), (5,)), "rv_rates"),
    (lambda: ExperimentSpec(("1U+0S",), (0.5,), (5,), duration=math.inf),
     "duration"),
], ids=["dt", "all_red", "horizon", "rv_penetration", "episode_duration",
        "rv_rates", "sweep-duration"])
def test_configs_reject_non_finite_numbers(make, name):
    with pytest.raises((ValueError, MetricError),
                       match=f"^{name} must be finite, got (nan|inf)$"):
        make()


@pytest.mark.parametrize("duration", [math.inf, math.nan])
def test_run_rollout_rejects_non_finite_duration(net_1u, duration):
    with pytest.raises(ValueError, match="duration must be finite"):
        run_rollout(net_1u, DemandSchedule(total_vehicles=5), AlwaysGoPolicy(),
                    seed=1, duration=duration)


def test_demand_schedule_validation():
    with pytest.raises(ValueError):
        DemandSchedule(total_vehicles=-1)
    with pytest.raises(ValueError):
        DemandSchedule(total_vehicles=10, rv_penetration=1.5)


def test_batch_policy_logs_what_per_row_decisions_log():
    """The dense benchmark's greedy 512^3 policy asked once per decision
    tick (decide_batch) logs the same events as when each RV asks it alone
    (a wrapper that exposes only decide)."""
    net = generate_grid(12, 2, GridGeometry(rows=2, cols=7))
    policy = Learner(observation_dim(net), LearnerConfig(), 1).snapshot()

    class PerRow:
        def decide(self, obs, rng):
            return policy.decide(obs, rng)

    schedule = DemandSchedule(total_vehicles=1200, horizon=1000.0,
                              rv_penetration=0.6)
    logs = []
    for p in (policy, PerRow()):
        events, _ = run_rollout(net, schedule, p, seed=1, duration=300.0)
        logs.append([format_event(e) for e in events])
    assert sum(",Decision," in line for line in logs[0]) > 2000
    assert logs[0] == logs[1]


@st.composite
def rollouts(draw):
    """A small grid (up to 2x3, any unsignalized/signalized split, with or
    without left turns), its demand and the engine settings it runs with."""
    rows, cols = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    unsignalized = draw(st.integers(0, rows * cols))
    net = generate_grid(unsignalized, rows * cols - unsignalized,
                        GridGeometry(rows=rows, cols=cols))
    if draw(st.booleans()):
        net = remove_left_turns(net)
    schedule = DemandSchedule(
        total_vehicles=draw(st.integers(1, 300)),
        horizon=draw(st.floats(0.0, 300.0)),
        rv_penetration=draw(st.floats(0.0, 1.0)))
    config = EngineConfig(all_red=draw(st.floats(0.0, 3.0)),
                          zone_length=draw(st.floats(2.0, 40.0)),
                          collision_dwell=draw(st.floats(0.0, 20.0)))
    return (net, schedule, config, draw(st.integers(0, 2**16)),
            draw(st.floats(0.1, 300.0)))


@settings(derandomize=True, deadline=None, max_examples=40)
@given(rollouts())
def test_rollout_invariants(rollout):
    net, schedule, config, seed, duration = rollout
    sim = Simulation(net, schedule, RandomPolicy(), seed, config)
    steps = round(duration / config.dt)
    for _ in range(steps):
        sim.step()
    sim.flush_pending()
    events = sim.events

    collided = {vid for e in events if e.event_type == "Collision"
                for vid in e.vehicle_ids}
    departed = {e.vehicle_ids[0] for e in events
                if e.event_type == "Departure"}
    assert not collided & departed
    assert sim.spawned == sim.departed + sim.collision_removed + \
        len(sim.vehicles)
    # The last step spawned at the clock it started with.
    last_spawn = (sim.step_count - 1) * config.dt
    due = sum(1 for k in range(schedule.total_vehicles)
              if schedule.arrival_time(k) <= last_spawn)
    backlog = sum(len(queue) for queue in sim._spawn_queues.values())
    assert sim.spawned + backlog == due
    assert all(a.time <= b.time for a, b in zip(events, events[1:]))
    again, _ = run_rollout(net, schedule, RandomPolicy(), seed, duration,
                           config)
    assert [format_event(e) for e in again] == \
        [format_event(e) for e in events]
