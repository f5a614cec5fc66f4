"""Each benchmark check must pass on good data and fail on doctored data.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import checks
import run

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from stopgo.qnet import NetSpec, init_params, loss_and_grads  # noqa: E402
from stopgo.rainbow import categorical_projection            # noqa: E402


def clean_rollout() -> checks.RolloutFacts:
    """Three vehicles: one departs, two collide and are removed; a fourth
    and fifth are still on the road at the horizon, far apart."""
    events = [
        (0.5, "Spawn", ("V000000",), "L_in", ""),
        (1.0, "Spawn", ("V000001",), "L_in", ""),
        (1.5, "Spawn", ("V000002",), "L_in", ""),
        (9.0, "Collision", ("V000001", "V000002"), "Z_J0", "kind=Crossing"),
        (12.0, "Departure", ("V000000",), "L_out", ""),
        (20.0, "Spawn", ("V000003",), "L_in", ""),
        (30.0, "Spawn", ("V000004",), "L_in", ""),
    ]
    return checks.RolloutFacts(
        label="clean", events=events, spawned=5, departed=1, collided=2,
        collision_events=1, collision_removed=2,
        remaining=[("V000003", "L_a", 80.0, 5.0, False),
                   ("V000004", "L_a", 40.0, 5.0, False)],
        arrivals=6, fully_signalized=False)


def test_clean_rollout_passes():
    assert checks.rollout_problems(clean_rollout()) == []
    assert checks.signalized_collision(clean_rollout()) is None


def test_departure_after_collision_fails():
    f = clean_rollout()
    f.events.insert(5, (15.0, "Departure", ("V000002",), "L_out", ""))
    f = replace(f, departed=2, collision_removed=1)
    assert any("after colliding" in p for p in checks.rollout_problems(f))


@pytest.mark.parametrize("field,value,needle", [
    ("departed", 2, "Departure events"),
    ("spawned", 4, "Spawn events"),
    ("collided", 1, "distinct ids"),
    ("collision_events", 2, "Collision events"),
    ("collision_removed", 1, "in_network"),
    ("arrivals", 4, "exceeds"),
])
def test_miscounted_summary_fails(field, value, needle):
    f = replace(clean_rollout(), **{field: value})
    assert any(needle in p for p in checks.rollout_problems(f))


def test_time_running_backwards_fails():
    f = clean_rollout()
    f.events[-1], f.events[-2] = f.events[-2], f.events[-1]
    assert any("event time falls" in p for p in checks.rollout_problems(f))


def test_overlapping_healthy_vehicles_fail_but_wrecks_do_not():
    f = replace(clean_rollout(), remaining=[("A", "L_a", 42.0, 5.0, False),
                                            ("B", "L_a", 40.0, 5.0, False)])
    assert any("overlaps" in p for p in checks.rollout_problems(f))
    wrecked = replace(f, remaining=[("A", "L_a", 42.0, 5.0, True),
                                    ("B", "L_a", 40.0, 5.0, False)])
    assert not any("overlaps" in p for p in checks.rollout_problems(wrecked))


def test_collision_on_fully_signalized_grid_is_reported():
    f = replace(clean_rollout(), fully_signalized=True)
    message = checks.signalized_collision(f)
    assert message is not None and "t=9.0 s on Z_J0" in message


class Row:
    def __init__(self, config, rate, seed, departed, collided, rate_value=None):
        self.config, self.rv_rate, self.demand = config, rate, 120
        self.left_turns_removed, self.seed = False, seed
        self.n_departed, self.n_collided = departed, collided
        self.collision_rate = (collided / departed if rate_value is None
                               else rate_value)


def sweep_rows():
    return [Row("12U+2S", 0.25, 11, 100, 5), Row("12U+2S", 0.8, 12, 90, 9),
            Row("4U+10S", 0.25, 13, 80, 0), Row("4U+10S", 0.8, 14, 95, 3)]


def sweep(rows):
    return checks.sweep_problems(rows, ("12U+2S", "4U+10S"), (0.25, 0.8),
                                 (120,), False, 1, 11)


def test_sweep_rows_pass_and_misordered_or_misrated_rows_fail():
    assert sweep(sweep_rows()) == []
    rows = sweep_rows()
    rows[1], rows[2] = rows[2], rows[1]
    assert any("canonical order" in p for p in sweep(rows))
    rows = sweep_rows()
    rows[3] = Row("4U+10S", 0.8, 14, 95, 3, rate_value=3 / 94)
    assert any("collision_rate" in p for p in sweep(rows))
    rows = sweep_rows()
    rows[0] = Row("12U+2S", 0.25, 11, 0, 0, rate_value=0.0)
    assert any("nothing departed" in p for p in sweep(rows))


def projection_inputs(seed=0):
    rng = np.random.default_rng(seed)
    support = np.linspace(-60.0, 60.0, 51)
    values = rng.uniform(-80.0, 80.0, size=(4, 51))
    values[0, :3] = support[:3]          # exact hits on atoms
    masses = rng.uniform(0.01, 1.0, size=(4, 51))
    masses /= masses.sum(axis=1, keepdims=True)
    return values, masses, support


def test_projection_check_accepts_the_program_and_rejects_a_wrong_projection():
    values, masses, support = projection_inputs()
    right = categorical_projection(values, masses, support)
    assert checks.projection_problems(values, masses, support, right) == []
    # Mass of each target given wholly to its lower neighbour.
    dz = support[1] - support[0]
    lower = np.floor((np.clip(values, -60.0, 60.0) + 60.0) / dz).astype(int)
    wrong = np.zeros_like(right)
    for b in range(len(values)):
        np.add.at(wrong[b], lower[b], masses[b])
    assert checks.projection_problems(values, masses, support, wrong) != []


def test_is_weight_check():
    assert checks.is_weight_problems([0.2, 1.0, 0.7]) == []
    assert checks.is_weight_problems([0.2, 0.9]) != []
    assert checks.is_weight_problems([0.0, 1.0]) != []
    assert checks.is_weight_problems([1.5, 1.0]) != []


def test_gradient_check_accepts_backprop_and_rejects_a_scaled_gradient():
    rng = np.random.default_rng(3)
    params = init_params(NetSpec(obs_dim=6, atoms=11, hidden=(8, 8)), rng)
    x = rng.normal(size=(5, 6))
    actions = rng.integers(0, 2, size=5)
    targets = rng.uniform(0.01, 1.0, size=(5, 11))
    targets /= targets.sum(axis=1, keepdims=True)
    weights = rng.uniform(0.5, 1.0, size=5)

    def loss(p):
        per_sample, _ = loss_and_grads(p, x, actions, targets, weights)
        return float(np.mean(weights * per_sample))

    _, grads = loss_and_grads(params, x, actions, targets, weights)
    coordinates = [("Wv", 3), ("Wa", 7), ("W1", 5), ("b0", 2), ("W0", 11)]
    assert checks.gradient_problems(loss, params, grads, coordinates, x) == []
    doctored = {k: v * 1.1 for k, v in grads.items()}
    assert checks.gradient_problems(loss, params, doctored, coordinates, x) != []


def test_benchmark_json_names_what_the_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        run.per_layer_names()
    assert [w["name"] for w in spec["workloads"]] == list(
        run.workloads.WORKLOADS)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
