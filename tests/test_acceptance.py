"""End-to-end acceptance checks.

Each test is one pass/fail gate over the assembled system: exact equation
oracles, statistical sampling bounds, physical safety invariants,
reproducibility guarantees, directional learning results, and experiment
plumbing. Slow gates (training, the full sweep) sit at the end.
"""

import hashlib
import math
import statistics

import numpy as np
import pytest

from stopgo.agent import GO, STOP, RewardWeights, compute_reward
from stopgo.cli import run as cli_run
from stopgo.engine import (
    CROSSING,
    DemandSchedule,
    RandomPolicy,
    run_rollout,
)
from stopgo.idm import (
    B_EMERGENCY,
    DESIRED_SPEED,
    MIN_GAP,
    NO_LEADER_GAP,
    VehicleState,
    advance_vehicle,
    idm_acceleration,
)
from stopgo.metrics import (
    ExperimentSpec,
    collision_rate,
    run_sweep,
    summarize,
    write_results_csv,
    write_summary_csv,
)
from stopgo.netmodel import GridGeometry, generate_grid, remove_left_turns
from stopgo.qnet import NetSpec, forward_batch, init_params, loss_and_grads
from stopgo.rainbow import LearnerConfig, categorical_projection
from stopgo.replay import ReplayBuffer, Transition
from stopgo.training import ScenarioConfig, train

EVAL_SEEDS = range(1000, 1020)
DESK_LEARNER = LearnerConfig(hidden=(128, 128), momentum=0.9, warmup=500,
                             episodes=200)
DESK_SCENARIO = ScenarioConfig(demand=60, episode_duration=400.0,
                               rv_penetration=0.6)


@pytest.fixture(scope="module")
def trained_snapshot(tmp_path_factory):
    net = generate_grid(1, 0, GridGeometry(rows=1, cols=1))
    ckpt = tmp_path_factory.mktemp("desk_training")
    learner = train(net, episodes=200, seed=3, checkpoint_dir=ckpt,
                    learner_config=DESK_LEARNER, scenario=DESK_SCENARIO,
                    quiet=True)
    return learner.snapshot()


def _eval_rates(net, policy, demand, seeds, duration=400.0, horizon=240.0,
                rv_rate=0.6):
    rates = []
    for seed in seeds:
        schedule = DemandSchedule(total_vehicles=demand, horizon=horizon,
                                  rv_penetration=rv_rate)
        _, summary = run_rollout(net, schedule, policy, seed=seed,
                                 duration=duration, log_decisions=False)
        rates.append(summary.collided / max(1, summary.departed))
    return rates


def test_01_equation_oracles():
    spec = NetSpec(obs_dim=6, actions=2, atoms=9, hidden=(12,))
    for trial in range(100):
        trial_rng = np.random.default_rng(trial)
        params = init_params(spec, trial_rng)
        x = trial_rng.normal(size=(3, 6))
        base, _ = forward_batch(params, x)
        shifted = dict(params)
        shifted["ba"] = params["ba"] + trial_rng.normal() * 5.0
        moved, _ = forward_batch(shifted, x)
        assert np.max(np.abs(moved - base)) < 1e-6

    assert collision_rate(7, 100) == 0.07
    assert collision_rate(0, 1) == 0.0
    assert collision_rate(3, 8) == 0.375
    assert collision_rate(125, 1000) == 0.125

    w = RewardWeights(alpha=1.0, beta_penalty=10.0)
    assert compute_reward(4.0, GO, False, w) == 4.0
    assert compute_reward(4.0, STOP, False, w) == -4.0
    assert compute_reward(4.0, GO, True, w) == -6.0
    assert compute_reward(4.0, STOP, True, w) == -14.0
    assert compute_reward(0.0, GO, True, w) == -10.0


def test_02_categorical_projection_against_brute_force():
    rng = np.random.default_rng(42)
    support = np.linspace(-60.0, 60.0, 51)
    dz = support[1] - support[0]
    failures = 0.0
    for _ in range(1000):
        values = rng.uniform(-80.0, 80.0, size=(1, 51))
        masses = rng.uniform(0.01, 1.0, size=(1, 51))
        masses /= masses.sum()
        out = categorical_projection(values, masses, support)
        assert abs(out.sum() - 1.0) < 1e-6
        assert np.all(out >= 0)
        expected = np.zeros(51)
        for value, mass in zip(values[0], masses[0]):
            clipped = min(max(value, -60.0), 60.0)
            # division roundoff can push b a hair past the last atom
            b = min(max((clipped + 60.0) / dz, 0.0), 50.0)
            lo, hi = int(math.floor(b)), int(math.ceil(b))
            if lo == hi:
                expected[lo] += mass
            else:
                expected[lo] += mass * (hi - b)
                expected[hi] += mass * (b - lo)
        failures = max(failures, float(np.max(np.abs(out[0] - expected))))
    assert failures < 1e-9


def test_03_per_sampling_frequencies_within_4_sigma():
    n, draws = 1000, 100_000
    rng = np.random.default_rng(7)
    buf = ReplayBuffer(capacity=n, alpha_per=0.5, priority_floor=0.0)
    priorities = rng.uniform(0.05, 5.0, size=n)
    obs = np.zeros(2)
    indices = [buf.insert(Transition(obs, 0, 0.0, obs, False))
               for _ in range(n)]
    buf.update_priorities(indices, priorities)
    probs = priorities ** 0.5
    probs /= probs.sum()
    counts = np.zeros(n)
    for _ in range(draws // 1000):
        idx, _, _ = buf.sample(1000, beta=0.0, rng=rng)
        np.add.at(counts, idx, 1)
    sigma = np.sqrt(draws * probs * (1 - probs))
    worst = float(np.max(np.abs(counts - draws * probs) / sigma))
    assert worst <= 4.0, f"worst deviation {worst:.2f} sigma"


def test_04_gradients_match_central_differences():
    spec = NetSpec(obs_dim=8, actions=2, atoms=51, hidden=(8, 8))
    rng = np.random.default_rng(11)
    params = init_params(spec, rng)
    eps = 1e-5
    worst = 0.0
    for _ in range(20):
        x = rng.normal(size=(8, 8))
        actions = rng.integers(0, 2, size=8)
        masses = rng.uniform(0.01, 1.0, size=(8, 51))
        masses /= masses.sum(axis=1, keepdims=True)
        weights = rng.uniform(0.5, 1.5, size=8)

        def mean_loss():
            per_sample, _ = loss_and_grads(params, x, actions, masses, weights)
            return float(np.mean(weights * per_sample))

        _, grads = loss_and_grads(params, x, actions, masses, weights)
        for key, grad in grads.items():
            flat = params[key].reshape(-1)
            flat_grad = grad.reshape(-1)
            for slot in range(flat.size):
                keep = flat[slot]
                flat[slot] = keep + eps
                up = mean_loss()
                flat[slot] = keep - eps
                down = mean_loss()
                flat[slot] = keep
                fd = (up - down) / (2 * eps)
                g = flat_grad[slot]
                rel = abs(g - fd) / (abs(g) + abs(fd) + 1e-8)
                worst = max(worst, rel)
    assert worst < 1e-4, f"max relative gradient error {worst:.2e}"


def test_05_idm_platoons_never_interpenetrate():
    rng = np.random.default_rng(101)
    length = 5.0
    worst_gap = math.inf
    for platoon in range(100):
        count = 20
        speeds = rng.uniform(0.0, DESIRED_SPEED, size=count)
        gaps = rng.uniform(MIN_GAP, 30.0, size=count - 1)
        vehicles = []
        position = 0.0
        for i in range(count):
            vehicles.append(VehicleState(
                id=f"P{i}", kind="HV", lane="L", position=position,
                speed=float(speeds[i]), route_id="R", route_index=0))
            if i < count - 1:
                # fair starts only: the follower must be able to brake out,
                # so cover the stopping deficit plus one step of travel
                deficit = max(0.0, (speeds[i + 1] ** 2 - speeds[i] ** 2)
                              / (2 * B_EMERGENCY))
                gap = max(float(gaps[i]),
                          MIN_GAP + deficit + speeds[i + 1] * 0.1)
                position -= length + gap
        for _ in range(10_000):
            accels = [idm_acceleration(vehicles[0].speed, 0.0, NO_LEADER_GAP)]
            for i in range(1, count):
                lead, follow = vehicles[i - 1], vehicles[i]
                gap = lead.position - length - follow.position
                accels.append(idm_acceleration(
                    follow.speed, follow.speed - lead.speed, max(gap, 1e-3)))
            for vehicle, accel in zip(vehicles, accels):
                advance_vehicle(vehicle, accel, 0.1)
            for lead, follow in zip(vehicles, vehicles[1:]):
                gap = lead.position - length - follow.position
                if gap < worst_gap:
                    worst_gap = gap
                    assert gap >= 0.0, f"negative gap {gap:.4f} in platoon {platoon}"
    assert worst_gap >= 0.0


def test_06_simulate_cli_is_byte_deterministic(tmp_path):
    net = tmp_path / "pair.txt"
    assert cli_run(["netgen", "--unsignalized", "2", "--signalized", "0",
                    "--rows", "1", "--cols", "2", "--out", str(net)]) == 0
    digests = []
    for name in ("one", "two"):
        events = tmp_path / f"{name}.csv"
        summary = tmp_path / f"{name}.txt"
        assert cli_run(["simulate", "--network", str(net),
                        "--demand", "300", "--rv-rate", "0.6",
                        "--policy", "random", "--seed", "13",
                        "--duration", "1000",
                        "--events", str(events),
                        "--summary", str(summary)]) == 0
        digests.append(hashlib.sha256(events.read_bytes()).hexdigest())
        digests.append(hashlib.sha256(summary.read_bytes()).hexdigest())
    assert digests[0] == digests[2], "event logs differ between identical runs"
    assert digests[1] == digests[3], "summaries differ between identical runs"


def test_07_all_signalized_grid_has_zero_crossing_collisions():
    net = generate_grid(0, 4, GridGeometry(rows=2, cols=2))
    crossings = 0
    for seed in range(10):
        schedule = DemandSchedule(total_vehicles=150, horizon=1000.0,
                                  rv_penetration=0.0)
        events, _ = run_rollout(net, schedule, RandomPolicy(), seed=seed,
                                duration=1000.0, log_decisions=False)
        crossings += sum(1 for e in events if e.event_type == "Collision"
                         and e.extra == f"kind={CROSSING}")
    assert crossings == 0, f"{crossings} crossing collisions under signals"


def test_08_left_turn_removal_on_the_14_intersection_grid():
    net = generate_grid(14, 0, GridGeometry(rows=2, cols=7))
    once = remove_left_turns(net)
    assert all(m.turn != "left" for m in once.movements)
    assert len(once.routes) == len(net.routes)
    twice = remove_left_turns(once)
    assert twice == once


def test_09_trained_policy_beats_random_by_over_one_pooled_sd(trained_snapshot):
    net = generate_grid(1, 0, GridGeometry(rows=1, cols=1))
    trained = _eval_rates(net, trained_snapshot, demand=60, seeds=EVAL_SEEDS)
    random_rates = _eval_rates(net, RandomPolicy(), demand=60,
                               seeds=EVAL_SEEDS)
    mean_trained = statistics.mean(trained)
    mean_random = statistics.mean(random_rates)
    pooled = math.sqrt((statistics.variance(trained)
                        + statistics.variance(random_rates)) / 2)
    margin = mean_random - mean_trained
    print(f"trained {mean_trained:.4f} random {mean_random:.4f} "
          f"margin {margin:.4f} pooled sd {pooled:.4f}")
    assert mean_trained < mean_random
    assert margin > pooled, (
        f"margin {margin:.4f} must exceed pooled sd {pooled:.4f}")


def test_10_lower_demand_gives_no_worse_collision_rate(trained_snapshot):
    net = generate_grid(2, 0, GridGeometry(rows=1, cols=2))
    policy = trained_snapshot
    seeds = range(2000, 2010)
    low = _eval_rates(net, policy, demand=225, seeds=seeds,
                      duration=600.0, horizon=600.0)
    high = _eval_rates(net, policy, demand=300, seeds=seeds,
                       duration=600.0, horizon=600.0)
    mean_low, mean_high = statistics.mean(low), statistics.mean(high)
    diffs = [h - l for h, l in zip(high, low)]
    noise = statistics.stdev(diffs) if len(diffs) > 1 else 0.0
    print(f"demand 225 CR {mean_low:.4f} vs 300 CR {mean_high:.4f} "
          f"(paired sd {noise:.4f})")
    if mean_low > mean_high:
        # directional trend can wash out at high RV penetration; only a
        # gap beyond paired noise is a failure
        assert mean_low - mean_high <= noise, (
            f"demand 225 rate {mean_low:.4f} exceeds demand 300 rate "
            f"{mean_high:.4f} beyond noise {noise:.4f}")


def test_11_sweep_plumbing_table_shape(tmp_path):
    spec = ExperimentSpec(
        configs=("12U+2S", "10U+4S", "8U+6S", "6U+8S", "4U+10S"),
        rv_rates=(0.25, 0.4, 0.6, 0.8),
        demands=(120,),
        rollouts=10, base_seed=1, duration=1000.0, rows=2, cols=7)
    rows = run_sweep(spec, RandomPolicy())
    assert len(rows) == 200
    for row in rows:
        if row.n_departed > 0:
            assert row.collision_rate == pytest.approx(
                collision_rate(row.n_collided, row.n_departed))
        else:
            assert math.isnan(row.collision_rate)
    cells = summarize(rows)
    assert len(cells) == 20
    results_path = tmp_path / "results.csv"
    summary_path = tmp_path / "summary.csv"
    write_results_csv(rows, results_path)
    written = write_summary_csv(rows, summary_path)
    assert len(written) == 20
    assert len(results_path.read_text().splitlines()) == 201
    lines = summary_path.read_text().splitlines()
    assert len(lines) == 5  # header + one row per rv rate
    assert lines[0].endswith("12U+2S,10U+4S,8U+6S,6U+8S,4U+10S")
