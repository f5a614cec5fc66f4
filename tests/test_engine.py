import hashlib
import math
from dataclasses import replace

import pytest

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
from stopgo.netmodel import GridGeometry, generate_grid
from stopgo.signals import permitted_movements, phase_at
from stopgo.training import ScenarioConfig


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
                move = sim.next_move.get(vid)
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
    """The engine looks a phase up once per distinct timing and reuses the
    permitted sets while no timing changes phase or enters its clearance
    tail; with several timings each intersection still follows its own,
    also where phase ends fall between two steps."""
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
    assert EngineConfig(dt=0.5, decision_period=1.0).decision_steps == 2


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
