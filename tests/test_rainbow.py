import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stopgo.qnet import NetSpec, forward_batch, init_params, q_values_batch
from stopgo.rainbow import (
    CHECKPOINT_VERSION,
    Learner,
    LearnerConfig,
    PolicySnapshot,
    categorical_projection,
    double_q_target,
    load_policy,
)

TINY = LearnerConfig(hidden=(16,), atoms=11, batch_size=8, warmup=16,
                     target_sync=3, buffer_capacity=64, episodes=10)


def brute_force_projection(values, masses, support):
    """Per-atom linear mass split, written independently of the batched code."""
    v_min, v_max = support[0], support[-1]
    out = np.zeros((values.shape[0], support.size))
    if support.size == 1:
        return masses.sum(axis=1, keepdims=True)
    dz = support[1] - support[0]
    for row in range(values.shape[0]):
        for value, mass in zip(values[row], masses[row]):
            clipped = min(max(value, v_min), v_max)
            # division roundoff can push b a hair past the last atom
            b = min(max((clipped - v_min) / dz, 0.0), support.size - 1.0)
            lo, hi = int(np.floor(b)), int(np.ceil(b))
            if lo == hi:
                out[row, lo] += mass
            else:
                out[row, lo] += mass * (hi - b)
                out[row, hi] += mass * (b - lo)
    return out


def add_at_projection(values, masses, support):
    """The projection as two np.add.at scatters, the form it had before
    np.bincount; categorical_projection must match it bit for bit."""
    batch, z = values.shape[0], len(support)
    out = np.zeros((batch, z))
    if z == 1:
        out[:, 0] = masses.sum(axis=1)
        return out
    v_min, v_max = float(support[0]), float(support[-1])
    b = (np.clip(values, v_min, v_max) - v_min) / ((v_max - v_min) / (z - 1))
    lower = np.floor(b).astype(np.int64)
    upper = np.ceil(b).astype(np.int64)
    lower_mass = masses * (upper - b)
    upper_mass = masses * (b - lower)
    exact = lower == upper
    lower_mass[exact] += masses[exact]
    rows = np.repeat(np.arange(batch), values.shape[1])
    np.add.at(out, (rows, lower.ravel()), lower_mass.ravel())
    np.add.at(out, (rows, upper.ravel()), upper_mass.ravel())
    return out


@pytest.mark.parametrize("atoms", [1, 2, 11, 51])
def test_projection_equals_add_at_reference_exactly(atoms):
    rng = np.random.default_rng(atoms)
    support = np.linspace(-60.0, 60.0, atoms)
    for _ in range(50):
        values = rng.uniform(-90.0, 90.0, size=(32, atoms))
        # exact atom hits, and values clipped at both ends
        hits = rng.random(values.shape) < 0.2
        values[hits] = rng.choice(support, size=hits.sum())
        values[:, 0] = -1e3
        values[:, -1] = 1e3
        masses = rng.dirichlet(np.ones(atoms), size=32)
        assert np.array_equal(categorical_projection(values, masses, support),
                              add_at_projection(values, masses, support))


def test_projection_exact_atom_hit_keeps_mass_whole():
    support = np.linspace(-2.0, 2.0, 5)
    values = np.array([[1.0, -2.0]])
    masses = np.array([[0.25, 0.75]])
    out = categorical_projection(values, masses, support)
    assert out[0] == pytest.approx([0.75, 0.0, 0.0, 0.25, 0.0])


def test_projection_clamps_out_of_range_values():
    support = np.linspace(-1.0, 1.0, 3)
    values = np.array([[-50.0, 50.0]])
    masses = np.array([[0.4, 0.6]])
    out = categorical_projection(values, masses, support)
    assert out[0] == pytest.approx([0.4, 0.0, 0.6])


def test_projection_splits_mass_linearly():
    support = np.array([0.0, 1.0])
    values = np.array([[0.25]])
    masses = np.array([[1.0]])
    out = categorical_projection(values, masses, support)
    assert out[0] == pytest.approx([0.75, 0.25])


def test_projection_single_atom_support_collapses_everything():
    support = np.array([0.0])
    values = np.array([[-7.0, 3.0, 0.0]])
    masses = np.array([[0.2, 0.5, 0.3]])
    out = categorical_projection(values, masses, support)
    assert out == pytest.approx(np.array([[1.0]]))


@settings(max_examples=40, deadline=None)
@given(
    atoms=st.integers(min_value=2, max_value=21),
    batch=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_projection_matches_brute_force(atoms, batch, seed):
    rng = np.random.default_rng(seed)
    support = np.linspace(-10.0, 10.0, atoms)
    values = rng.uniform(-14.0, 14.0, size=(batch, atoms))
    masses = rng.uniform(0.05, 1.0, size=(batch, atoms))
    masses /= masses.sum(axis=1, keepdims=True)
    out = categorical_projection(values, masses, support)
    assert out.sum(axis=1) == pytest.approx(np.ones(batch))
    assert np.all(out >= 0)
    assert out == pytest.approx(brute_force_projection(values, masses, support),
                                abs=1e-12)


def test_double_q_target_composes_selection_and_evaluation(rng):
    config = LearnerConfig(hidden=(8,), atoms=7, v_min=-4.0, v_max=4.0)
    spec = NetSpec(obs_dim=3, atoms=7, hidden=(8,))
    online = init_params(spec, rng)
    target = init_params(spec, rng)
    rewards = np.array([0.5, -1.0])
    next_obs = rng.normal(size=(2, 3))
    terminals = np.array([0.0, 0.0])
    got = double_q_target(online, target, rewards, next_obs, terminals, config)
    support = config.support
    select = np.argmax(q_values_batch(online, next_obs, support), axis=1)
    dists, _ = forward_batch(target, next_obs)
    masses = dists[np.arange(2), select]
    values = rewards[:, None] + config.gamma * support[None, :]
    assert got == pytest.approx(categorical_projection(values, masses, support))


def test_double_q_target_terminal_rows_collapse_to_reward(rng):
    config = LearnerConfig(hidden=(8,), atoms=5, v_min=-2.0, v_max=2.0)
    spec = NetSpec(obs_dim=3, atoms=5, hidden=(8,))
    online = init_params(spec, rng)
    target = init_params(spec, rng)
    got = double_q_target(online, target, np.array([0.0]),
                          rng.normal(size=(1, 3)), np.array([1.0]), config)
    # reward 0 sits exactly on the middle atom of [-2, 2] x 5
    assert got[0] == pytest.approx([0.0, 0.0, 1.0, 0.0, 0.0])


def _filled_learner(seed=0):
    learner = Learner(obs_dim=6, config=TINY, seed=seed)
    rng = np.random.default_rng(99)
    for _ in range(40):
        obs = rng.uniform(0, 5, size=6)
        nxt = rng.uniform(0, 5, size=6)
        learner.store(obs, int(rng.integers(2)), float(rng.normal()),
                      nxt, bool(rng.random() < 0.1))
    return learner


def test_epsilon_and_beta_schedules():
    learner = Learner(obs_dim=6, config=TINY, seed=1)
    assert learner.epsilon() == pytest.approx(TINY.eps_start)
    assert learner.beta_is() == pytest.approx(TINY.beta_start)
    learner.episodes_done = TINY.episodes
    assert learner.epsilon() == pytest.approx(TINY.eps_end)
    assert learner.beta_is() == pytest.approx(TINY.beta_end)
    learner.episodes_done = TINY.episodes // 2
    assert TINY.eps_end < learner.epsilon() < TINY.eps_start


def test_act_returns_valid_action():
    learner = _filled_learner()
    obs = np.arange(6.0)
    for _ in range(10):
        assert learner.act(obs) in (0, 1)
    assert learner.act(obs, epsilon=0.0) in (0, 1)


def test_ready_respects_warmup():
    learner = Learner(obs_dim=6, config=TINY, seed=0)
    assert not learner.ready()
    rng = np.random.default_rng(0)
    for _ in range(TINY.warmup):
        learner.store(rng.uniform(size=6), 0, 0.0, rng.uniform(size=6), False)
    assert learner.ready()


def test_train_step_updates_parameters_and_counter():
    learner = _filled_learner()
    before = {k: v.copy() for k, v in learner.params.items()}
    loss = learner.train_step()
    assert loss is not None and np.isfinite(loss)
    assert learner.train_steps == 1
    assert any(not np.allclose(before[k], learner.params[k]) for k in before)


def test_target_network_syncs_on_schedule():
    learner = _filled_learner()
    for _ in range(TINY.target_sync):
        learner.train_step()
    for key in learner.params:
        assert learner.target_params[key] == pytest.approx(learner.params[key])


def test_save_load_round_trip(tmp_path):
    learner = _filled_learner(seed=3)
    for _ in range(4):
        learner.train_step()
    path = tmp_path / "ck.npz"
    learner.save(path)
    clone = Learner.load(path)
    assert clone.config == learner.config
    assert clone.train_steps == learner.train_steps
    assert clone.episodes_done == learner.episodes_done
    for key in learner.params:
        assert np.array_equal(clone.params[key], learner.params[key])
        assert np.array_equal(clone.target_params[key],
                              learner.target_params[key])
    assert np.array_equal(clone.obs_scale, learner.obs_scale)
    obs = np.arange(6.0)
    eps = 0.3
    original_actions = [learner.act(obs, epsilon=eps) for _ in range(20)]
    clone_actions = [clone.act(obs, epsilon=eps) for _ in range(20)]
    assert original_actions == clone_actions  # identical restored rng stream


def test_momentum_free_learner_holds_no_velocity(tmp_path):
    learner = _filled_learner()
    for _ in range(3):
        learner.train_step()
    assert TINY.momentum == 0.0 and learner.velocity == {}
    path = tmp_path / "ck.npz"
    learner.save(path)
    with np.load(path) as data:
        assert not any(k.startswith("velocity/") for k in data.files)
    assert Learner.load(path).velocity == {}


def test_momentum_velocity_round_trips_and_zero_arrays_still_load(tmp_path):
    learner = Learner(obs_dim=6, config=replace(TINY, momentum=0.9), seed=0)
    rng = np.random.default_rng(99)
    for _ in range(40):
        learner.store(rng.uniform(0, 5, size=6), int(rng.integers(2)),
                      float(rng.normal()), rng.uniform(0, 5, size=6), False)
    learner.train_step()
    path = tmp_path / "ck.npz"
    learner.save(path)
    clone = Learner.load(path)
    assert clone.velocity.keys() == learner.params.keys()
    for key, value in learner.velocity.items():
        assert np.array_equal(clone.velocity[key], value)
    # A checkpoint written with a zero velocity for every parameter loads it.
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files}
    arrays.update({f"velocity/{k}": np.zeros_like(v)
                   for k, v in learner.params.items()})
    np.savez_compressed(path, **arrays)
    assert all(not v.any() for v in Learner.load(path).velocity.values())


def test_snapshot_and_load_policy_decide_greedily(tmp_path):
    learner = _filled_learner(seed=5)
    path = tmp_path / "ck.npz"
    learner.save(path)
    snap = load_policy(path)
    assert isinstance(snap, PolicySnapshot)
    obs = np.array([1.0, 12.0, 0.0, 3.0, 40.0, 1.0])
    q = q_values_batch(learner.params,
                       (obs / learner.obs_scale)[None, :],
                       learner.config.support)[0]
    assert snap.decide(obs) == int(np.argmax(q))
    assert snap.decide(obs) == learner.snapshot().decide(obs)
    for key, value in learner.params.items():
        assert np.array_equal(snap.params[key], value)
    assert snap.params.keys() == learner.params.keys()
    assert np.array_equal(snap.support, learner.config.support)
    assert np.array_equal(snap.obs_scale, learner.obs_scale)


@pytest.mark.parametrize("load", [load_policy, Learner.load],
                         ids=["load_policy", "Learner.load"])
def test_loading_rejects_another_checkpoint_version(tmp_path, load):
    path = tmp_path / "ck.npz"
    Learner(6, TINY, seed=1).save(path)
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files}
    meta = json.loads(bytes(arrays["meta_json"]).decode("utf-8"))
    meta["version"] = CHECKPOINT_VERSION + 1
    arrays["meta_json"] = np.frombuffer(json.dumps(meta).encode("utf-8"),
                                        dtype=np.uint8)
    np.savez_compressed(path, **arrays)
    with pytest.raises(ValueError,
                       match=f"checkpoint version {CHECKPOINT_VERSION + 1}"):
        load(path)
