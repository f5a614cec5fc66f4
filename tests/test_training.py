import numpy as np
import pytest

from stopgo.engine import AlwaysGoPolicy, RandomPolicy
from stopgo.rainbow import LearnerConfig, PolicySnapshot
from stopgo.training import (
    CHECKPOINT_FILE,
    CURVE_COLUMNS,
    CURVE_FILE,
    ScenarioConfig,
    make_policy,
    observation_dim,
    resolve_checkpoint,
    train,
)

FAST = LearnerConfig(hidden=(16,), atoms=11, batch_size=8, warmup=16,
                     episodes=3)
SHORT = ScenarioConfig(demand=20, episode_duration=60.0, rv_penetration=0.8)


def test_observation_dim(net_1u, net_2u):
    assert observation_dim(net_1u) == 12
    assert observation_dim(net_2u) == 12


def test_train_writes_checkpoint_and_curve(tmp_path, net_1u):
    learner = train(net_1u, episodes=3, seed=1, checkpoint_dir=tmp_path,
                    learner_config=FAST, scenario=SHORT, quiet=True)
    assert learner.episodes_done == 3
    assert (tmp_path / CHECKPOINT_FILE).exists()
    curve = (tmp_path / CURVE_FILE).read_text().splitlines()
    assert curve[0] == ",".join(CURVE_COLUMNS)
    assert len(curve) == 4
    first = dict(zip(CURVE_COLUMNS, curve[1].split(",")))
    assert int(first["episode"]) == 0
    assert float(first["epsilon"]) == pytest.approx(1.0, abs=0.05)


def test_training_fills_buffer_and_steps(tmp_path, net_1u):
    learner = train(net_1u, episodes=2, seed=5, checkpoint_dir=tmp_path,
                    learner_config=FAST, scenario=SHORT, quiet=True)
    assert len(learner.buffer) > 0
    assert learner.train_steps > 0


def test_resolve_checkpoint_accepts_dir_or_file(tmp_path, net_1u):
    train(net_1u, episodes=1, seed=1, checkpoint_dir=tmp_path,
          learner_config=FAST, scenario=SHORT, quiet=True)
    direct = tmp_path / CHECKPOINT_FILE
    assert resolve_checkpoint(tmp_path) == str(direct)
    assert resolve_checkpoint(direct) == str(direct)
    with pytest.raises(FileNotFoundError):
        resolve_checkpoint(tmp_path / "nowhere")


def test_make_policy_baselines_and_checkpoint(tmp_path, net_1u):
    assert isinstance(make_policy("random"), RandomPolicy)
    assert isinstance(make_policy("always-go"), AlwaysGoPolicy)
    train(net_1u, episodes=1, seed=1, checkpoint_dir=tmp_path,
          learner_config=FAST, scenario=SHORT, quiet=True)
    snap = make_policy(str(tmp_path / CHECKPOINT_FILE))
    assert isinstance(snap, PolicySnapshot)
    assert snap.decide(np.zeros(12)) in (0, 1)


def test_make_policy_rejects_unknown_token():
    with pytest.raises((FileNotFoundError, OSError)):
        make_policy("no-such-policy")


def test_deterministic_same_seed_same_params(tmp_path, net_1u):
    a = train(net_1u, episodes=2, seed=9, checkpoint_dir=tmp_path / "a",
              learner_config=FAST, scenario=SHORT, quiet=True)
    b = train(net_1u, episodes=2, seed=9, checkpoint_dir=tmp_path / "b",
              learner_config=FAST, scenario=SHORT, quiet=True)
    for key in a.params:
        assert np.array_equal(a.params[key], b.params[key])
