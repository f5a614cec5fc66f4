"""What the benchmark (perfbench/) reads of stopgo must keep working.

The traced benchmark run (perfbench/tracing.py) wraps each function in
LAYERS where its caller looks it up, e.g. `stopgo.engine.phase_at`. A name
that moves or disappears would crash only a traced run, so check here, in a
fresh interpreter that imports stopgo the way the benchmark does, that every
place still resolves to a callable.

The traced run counts the engine's decisions as calls to the per-row
`decide` of RandomPolicy, PolicySnapshot and TrainingPolicy. The policies
that draw random numbers must stay per row, once per decision, in sorted
RV id order, so count their calls here.

The benchmark also checks every rollout it runs with perfbench/checks.py,
which reads a finished `Simulation` directly; run those checks here on two
real 2x7 rollouts (spawn conservation and the event counts)."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from stopgo import engine, rainbow, training
from stopgo.engine import DemandSchedule, RandomPolicy, Simulation, run_rollout
from stopgo.netmodel import GridGeometry, generate_grid

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

SCRIPT = """
import sys
import run, tracing
sys.path.insert(0, str(run.SRC))
modules = run.fresh_import()
for _, places, _ in tracing.LAYERS:
    for place in places:
        try:
            owner, attribute = tracing._owner(modules, place)
            ok = callable(getattr(owner, attribute))
        except (AttributeError, KeyError):
            ok = False
        if not ok:
            print(place)
"""


def test_every_traced_place_resolves():
    result = subprocess.run([sys.executable, "-c", SCRIPT], cwd=PERFBENCH,
                            env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == []


@pytest.mark.parametrize("name", ["phase_at", "idm_acceleration",
                                  "advance_vehicle"])
def test_engine_calls_hot_functions_through_module_globals(monkeypatch, name):
    """The tracer counts calls by replacing `stopgo.engine.<name>`. A
    reference bound at import or in `Simulation.__init__` would bypass the
    replacement and read as zero calls."""
    calls = []
    original = getattr(engine, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    net = generate_grid(4, 10, GridGeometry(rows=2, cols=7))
    schedule = DemandSchedule(total_vehicles=120, horizon=1000.0,
                              rv_penetration=0.6)
    sim = Simulation(net, schedule, RandomPolicy(), 1)
    monkeypatch.setattr(engine, name, counting)
    for _ in range(300):
        sim.step()
    assert sim.vehicles and calls


class DecisionRecorder:
    """Records every observation the engine builds, as (step, RV id, obs),
    and every observation a per-row policy is asked to decide on."""

    def __init__(self, monkeypatch, policy_class):
        self.built, self.decided = [], []
        build, decide = engine.build_observation, policy_class.decide

        def building(world, net, rv_id):
            obs = build(world, net, rv_id)
            self.built.append((world.step_count, rv_id, obs))
            return obs

        def deciding(policy, obs, rng):
            self.decided.append(obs)
            return decide(policy, obs, rng)

        monkeypatch.setattr(engine, "build_observation", building)
        monkeypatch.setattr(policy_class, "decide", deciding)

    def decided_ids(self) -> list[str]:
        """The RV id of each decide call, in call order; each observation
        must be decided on exactly once, in the order it was built."""
        assert [id(obs) for obs in self.decided] == \
            [id(obs) for _, _, obs in self.built]
        ticks: dict[int, list[str]] = {}
        for step, rv_id, _ in self.built:
            ticks.setdefault(step, []).append(rv_id)
        assert all(ids == sorted(set(ids)) for ids in ticks.values())
        return [rv_id for _, rv_id, _ in self.built]


def test_random_policy_decides_once_per_decision_in_id_order(monkeypatch):
    """RandomPolicy draws on the simulation's rng, so it must be asked per
    RV, in sorted id order: once per Decision event, as the benchmark's
    traced `engine.decisions` counts."""
    recorder = DecisionRecorder(monkeypatch, RandomPolicy)
    net = generate_grid(4, 10, GridGeometry(rows=2, cols=7))
    schedule = DemandSchedule(total_vehicles=120, horizon=1000.0,
                              rv_penetration=0.6)
    events, _ = run_rollout(net, schedule, RandomPolicy(), seed=1,
                            duration=300.0)
    decisions = [e.vehicle_ids[0] for e in events if e.event_type == "Decision"]
    assert len(decisions) > 50
    assert recorder.decided_ids() == decisions


def test_training_policy_decides_once_per_decision_in_id_order(
        monkeypatch, tmp_path):
    """TrainingPolicy draws epsilon on the learner's rng, so it too must be
    asked per RV; every decision becomes one stored transition."""
    recorder = DecisionRecorder(monkeypatch, training.TrainingPolicy)
    stored = []
    store = rainbow.Learner.store
    monkeypatch.setattr(rainbow.Learner, "store", lambda learner, *row:
                        stored.append(row) or store(learner, *row))
    net = generate_grid(1, 0, GridGeometry(rows=1, cols=1))
    training.train(
        net, episodes=1, seed=1, checkpoint_dir=tmp_path,
        learner_config=rainbow.LearnerConfig(hidden=(16,), atoms=11,
                                             warmup=16, episodes=1),
        scenario=training.ScenarioConfig(demand=40, episode_duration=120.0,
                                         rv_penetration=0.8),
        quiet=True)
    assert len(recorder.decided_ids()) == len(stored) > 50


def _load_checks():
    spec = importlib.util.spec_from_file_location(
        "perfbench_checks", PERFBENCH / "checks.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


checks = _load_checks()


# name: (unsignalized, signalized, demand, rv rate, seed, duration)
ROLLOUTS = {
    "12U+2S-demand1200": (12, 2, 1200, 0.6, 1, 300.0),
    "0U+14S-demand600": (0, 14, 600, 0.6, 3, 200.0),
}


@pytest.mark.parametrize("name", list(ROLLOUTS))
def test_benchmark_rollout_checks_pass(name):
    u, s, demand, rate, seed, duration = ROLLOUTS[name]
    net = generate_grid(u, s, GridGeometry(rows=2, cols=7))
    schedule = DemandSchedule(total_vehicles=demand, horizon=1000.0,
                              rv_penetration=rate)
    sim = Simulation(net, schedule, RandomPolicy(), seed)
    for _ in range(round(duration / sim.config.dt)):
        sim.step()
    sim.flush_pending()
    assert checks.rollout_problems(checks.facts_from_sim(sim, name)) == []
