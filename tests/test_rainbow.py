import json
import re
import zipfile
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stopgo.qnet import (NetSpec, forward_batch, init_params, layout,
                         q_values_batch)
from stopgo.rainbow import (
    BETA_END,
    BETA_START,
    CHECKPOINT_VERSION,
    EPS_END,
    EPS_START,
    GAMMA,
    TARGET_SYNC,
    Learner,
    LearnerConfig,
    PolicySnapshot,
    categorical_projection,
    double_q_target,
    load_policy,
)

TINY = LearnerConfig(hidden=(16,), atoms=11, batch_size=8, warmup=16,
                     episodes=10)

LOADERS = pytest.mark.parametrize("load", [load_policy, Learner.load],
                                  ids=["load_policy", "Learner.load"])


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
    config = LearnerConfig(hidden=(8,), atoms=7)
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
    values = rewards[:, None] + GAMMA * support[None, :]
    assert got == pytest.approx(categorical_projection(values, masses, support))


def test_double_q_target_terminal_rows_collapse_to_reward(rng):
    config = LearnerConfig(hidden=(8,), atoms=5)
    spec = NetSpec(obs_dim=3, atoms=5, hidden=(8,))
    online = init_params(spec, rng)
    target = init_params(spec, rng)
    got = double_q_target(online, target, np.array([0.0]),
                          rng.normal(size=(1, 3)), np.array([1.0]), config)
    # reward 0 sits exactly on the middle atom of [-60, 60] x 5
    assert got[0] == pytest.approx([0.0, 0.0, 1.0, 0.0, 0.0])


def _filled_learner(seed=0, config=TINY):
    learner = Learner(obs_dim=6, config=config, seed=seed)
    rng = np.random.default_rng(99)
    for _ in range(40):
        obs = rng.uniform(0, 5, size=6)
        nxt = rng.uniform(0, 5, size=6)
        learner.store(obs, int(rng.integers(2)), float(rng.normal()),
                      nxt, bool(rng.random() < 0.1))
    return learner


def test_epsilon_and_beta_schedules():
    learner = Learner(obs_dim=6, config=TINY, seed=1)
    assert learner.epsilon() == pytest.approx(EPS_START)
    assert learner.beta_is() == pytest.approx(BETA_START)
    learner.episodes_done = TINY.episodes
    assert learner.epsilon() == pytest.approx(EPS_END)
    assert learner.beta_is() == pytest.approx(BETA_END)
    learner.episodes_done = TINY.episodes // 2
    assert EPS_END < learner.epsilon() < EPS_START


def test_act_returns_valid_action():
    learner = _filled_learner()
    obs = np.arange(6.0)
    for _ in range(10):
        assert learner.act(obs) in (0, 1)


def test_act_is_greedy_and_ties_toward_go(monkeypatch):
    learner = _filled_learner()
    monkeypatch.setattr(learner, "epsilon", lambda: 0.0)
    state = learner.rng.bit_generator.state
    obs = np.array([1.0, 12.0, 0.0, 3.0, 40.0, 1.0])
    q = q_values_batch(learner.params, (obs / learner.obs_scale)[None, :],
                       TINY.support)[0]
    assert learner.act(obs) == int(np.argmax(q)) == \
        learner.snapshot().decide(obs)
    assert learner.rng.bit_generator.state == state  # greedy draws nothing
    # all-zero weights produce identical logits for both actions: a tie
    learner.params = {k: np.zeros_like(v) for k, v in learner.params.items()}
    assert learner.act(obs) == 0
    assert learner.snapshot().decide(obs) == 0


def test_act_explores_at_full_epsilon():
    learner = _filled_learner()
    assert learner.epsilon() == EPS_START == 1.0
    # Greedy, the zero network would always pick Go.
    learner.params = {k: np.zeros_like(v) for k, v in learner.params.items()}
    picks = {learner.act(np.arange(6.0)) for _ in range(64)}
    assert picks == {0, 1}


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
    for _ in range(TARGET_SYNC):
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
    for key in learner.params:
        assert np.array_equal(clone.params[key], learner.params[key])
    assert np.array_equal(clone.obs_scale, learner.obs_scale)


def test_untrained_learner_holds_one_network():
    learner = _filled_learner(seed=3)
    assert learner.target_params is None
    start = {k: v.copy() for k, v in learner.params.items()}
    learner.train_step()
    # The first step copied the online network before it moved it.
    assert learner.target_params.keys() == start.keys()
    for key, value in start.items():
        assert learner.target_params[key].tobytes() == value.tobytes()


def test_load_draws_no_weights(tmp_path, monkeypatch):
    learner = _filled_learner(seed=3)
    for _ in range(2):
        learner.train_step()
    path = tmp_path / "ck.npz"
    learner.save(path)

    def no_draw(*args):
        raise AssertionError("Learner.load drew weights")

    monkeypatch.setattr("stopgo.qnet.init_params", no_draw)
    clone = Learner.load(path)
    assert clone.params.keys() == learner.params.keys()
    assert all(np.array_equal(clone.params[k], v)
               for k, v in learner.params.items())


def test_momentum_free_learner_holds_no_velocity():
    learner = _filled_learner()
    for _ in range(3):
        learner.train_step()
    assert TINY.momentum == 0.0 and learner.velocity == {}


def test_snapshot_and_load_policy_decide_greedily(tmp_path):
    learner = _filled_learner(seed=5, config=replace(TINY, momentum=0.9))
    learner.train_step()
    path = tmp_path / "ck.npz"
    learner.save(path)
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files}
    obs = np.array([1.0, 12.0, 0.0, 3.0, 40.0, 1.0])
    q = q_values_batch(learner.params,
                       (obs / learner.obs_scale)[None, :],
                       learner.config.support)[0]
    # The same arrays stored, as save writes them, and deflated, as earlier
    # versions wrote them: both load alike.
    for writer in (np.savez, np.savez_compressed):
        writer(path, **arrays)
        snap = load_policy(path)
        assert isinstance(snap, PolicySnapshot)
        assert snap.decide(obs) == int(np.argmax(q))
        assert snap.decide(obs) == learner.snapshot().decide(obs)
        for key, value in learner.params.items():
            assert np.array_equal(snap.params[key], value)
        assert snap.params.keys() == learner.params.keys()
        assert np.array_equal(snap.support, learner.config.support)
        assert np.array_equal(snap.obs_scale, learner.obs_scale)
        clone = Learner.load(path)
        assert clone.config == learner.config
        assert clone.params.keys() == learner.params.keys()
        assert all(np.array_equal(clone.params[k], v)
                   for k, v in learner.params.items())
        assert np.array_equal(clone.obs_scale, learner.obs_scale)


def test_checkpoint_entries_are_stored_uncompressed(tmp_path):
    path = tmp_path / "ck.npz"
    Learner(6, replace(TINY, momentum=0.9), seed=1).save(path)
    with zipfile.ZipFile(path) as archive:
        entries = archive.infolist()
    assert {e.filename for e in entries} >= {"meta_json.npy", "obs_scale.npy"}
    assert all(e.compress_type == zipfile.ZIP_STORED for e in entries)


def _trained_momentum_learner():
    """A learner with a target network, momentum velocity and non-zero
    counters: the state a checkpoint leaves out."""
    learner = _filled_learner(seed=5, config=replace(TINY, momentum=0.9))
    for _ in range(3):
        learner.train_step()
    learner.episodes_done = 2
    return learner


def test_checkpoint_holds_only_the_policy(tmp_path):
    learner = _trained_momentum_learner()
    path = tmp_path / "ck.npz"
    learner.save(path)
    with np.load(path) as data:
        files = set(data.files)
        meta = json.loads(bytes(data["meta_json"]).decode("utf-8"))
    names = layout(TINY.net_spec(6))
    assert files == {f"online/{k}" for k in names} | {"obs_scale", "meta_json"}
    assert meta == {"version": CHECKPOINT_VERSION, "obs_dim": 6,
                    "config": json.loads(json.dumps(asdict(learner.config)))}


def test_checkpoint_with_resume_state_still_loads(tmp_path):
    """Version-1 checkpoints were first written with the target network,
    the momentum velocity, the counters and the RNG state, to resume a run
    from; both loaders read the policy and leave the rest."""
    learner = _trained_momentum_learner()
    arrays = {f"online/{k}": v for k, v in learner.params.items()}
    arrays.update({f"target/{k}": v for k, v in learner.target_params.items()})
    arrays.update({f"velocity/{k}": v for k, v in learner.velocity.items()})
    arrays["obs_scale"] = learner.obs_scale
    meta = {"version": 1, "obs_dim": 6, "config": asdict(learner.config),
            "train_steps": learner.train_steps,
            "episodes_done": learner.episodes_done,
            "rng_state": learner.rng.bit_generator.state}
    arrays["meta_json"] = np.frombuffer(json.dumps(meta).encode("utf-8"),
                                        dtype=np.uint8)
    path = tmp_path / "ck.npz"
    np.savez(path, **arrays)
    rng = np.random.default_rng(4)
    rows = [rng.uniform(0, 5, size=6) for _ in range(16)]
    expected = learner.snapshot().decide_batch(rows)
    for policy in (load_policy(path), Learner.load(path).snapshot()):
        assert policy.params.keys() == learner.params.keys()
        assert all(np.array_equal(policy.params[k], v)
                   for k, v in learner.params.items())
        assert policy.decide_batch(rows) == expected


def _spoil(path, fault):
    """Damage a saved checkpoint the way an interrupted copy or a wrong
    file would."""
    whole = path.read_bytes()
    if fault == "truncated":
        path.write_bytes(whole[:len(whole) // 2])
    elif fault == "empty":
        path.write_bytes(b"")
    elif fault == "text":
        path.write_text("not a checkpoint\n")
    elif fault == "bad_crc":
        # The zip directory stays whole; one weight's bytes change, which
        # zipfile finds only when that entry is read.
        with np.load(path) as data:
            weights = data["online/Wa"].tobytes()
        at = whole.index(weights) + len(weights) // 2
        path.write_bytes(whole[:at] + bytes([whole[at] ^ 0xFF])
                         + whole[at + 1:])
    elif fault == "no_meta":
        with np.load(path) as data:
            np.savez(path, **{k: data[k] for k in data.files
                              if k != "meta_json"})


@pytest.mark.parametrize("fault",
                         ["truncated", "empty", "text", "bad_crc", "no_meta"])
@LOADERS
def test_unreadable_checkpoint_fails_naming_the_file(tmp_path, load, fault):
    path = tmp_path / "ck.npz"
    Learner(6, TINY, seed=1).save(path)
    _spoil(path, fault)
    with pytest.raises(ValueError, match="is not a readable checkpoint") as info:
        load(path)
    assert str(path) in str(info.value)


def _checkpoint_arrays(path) -> dict[str, np.ndarray]:
    with np.load(path) as data:
        return {k: data[k] for k in data.files}


def _rewrite_meta(path, edit) -> None:
    """Rewrite a saved checkpoint with edit(meta) applied to its metadata."""
    arrays = _checkpoint_arrays(path)
    meta = json.loads(bytes(arrays["meta_json"]).decode("utf-8"))
    edit(meta)
    arrays["meta_json"] = np.frombuffer(json.dumps(meta).encode("utf-8"),
                                        dtype=np.uint8)
    np.savez(path, **arrays)


@LOADERS
def test_loading_rejects_another_checkpoint_version(tmp_path, load):
    path = tmp_path / "ck.npz"
    Learner(6, TINY, seed=1).save(path)
    _rewrite_meta(path, lambda meta: meta.update(
        version=CHECKPOINT_VERSION + 1))
    with pytest.raises(ValueError,
                       match=f"checkpoint version {CHECKPOINT_VERSION + 1}"):
        load(path)


# The learner settings that are constants now, at their fixed values, as
# checkpoints written while they were settings store them in their config.
RETIRED_SETTINGS = {
    "gamma": 0.99, "learning_rate": 5e-4, "v_min": -60.0, "v_max": 60.0,
    "target_sync": 500, "eps_start": 1.0, "eps_end": 0.05,
    "eps_fraction": 1.0 / 3.0, "buffer_capacity": 50_000, "alpha_per": 0.5,
    "beta_start": 0.4, "beta_end": 1.0, "priority_floor": 1e-3,
    "grad_clip": 10.0,
}


@LOADERS
def test_checkpoint_with_the_retired_settings_loads(tmp_path, load):
    learner = _filled_learner(seed=2)
    learner.train_step()
    path = tmp_path / "ck.npz"
    learner.save(path)
    _rewrite_meta(path, lambda meta: meta["config"].update(RETIRED_SETTINGS))
    loaded = load(path)
    assert loaded.params.keys() == learner.params.keys()
    assert all(np.array_equal(loaded.params[k], v)
               for k, v in learner.params.items())
    obs = np.array([1.0, 12.0, 0.0, 3.0, 40.0, 1.0])
    assert load_policy(path).decide(obs) == learner.snapshot().decide(obs)
    assert Learner.load(path).config == learner.config


@pytest.mark.parametrize("key,value", [("gamma", 0.9), ("v_min", -10.0),
                                       ("target_sync", 3)])
@LOADERS
def test_checkpoint_with_another_retired_value_is_rejected(tmp_path, load,
                                                           key, value):
    path = tmp_path / "ck.npz"
    Learner(6, TINY, seed=1).save(path)
    _rewrite_meta(path, lambda meta: meta["config"].update(
        RETIRED_SETTINGS, **{key: value}))
    with pytest.raises(ValueError, match="is not a readable checkpoint") as info:
        load(path)
    assert str(path) in str(info.value)
    assert f"{key} = {value}" in str(info.value)


def _misfit(arrays, fault) -> None:
    """Arrays that no longer fit the network the config describes."""
    if fault == "renamed":
        arrays["online/bq"] = arrays.pop("online/bv")
    elif fault == "reshaped":
        arrays["online/W0"] = arrays["online/W0"].T.copy()
    elif fault == "missing":
        del arrays["online/ba"]
    elif fault == "obs_scale":
        arrays["obs_scale"] = arrays["obs_scale"][:-1]


@pytest.mark.parametrize("fault",
                         ["renamed", "reshaped", "missing", "obs_scale"])
@LOADERS
def test_checkpoint_that_does_not_fit_its_network_fails_naming_the_file(
        tmp_path, load, fault):
    path = tmp_path / "ck.npz"
    Learner(6, TINY, seed=1).save(path)
    arrays = _checkpoint_arrays(path)
    _misfit(arrays, fault)
    np.savez(path, **arrays)
    with pytest.raises(ValueError, match="is not a readable checkpoint") as info:
        load(path)
    assert str(path) in str(info.value)


@pytest.mark.parametrize("hidden", [(16,), (128, 128), (512, 512, 512)])
def test_decide_batch_equals_one_decide_per_row(hidden):
    snap = Learner(12, LearnerConfig(hidden=hidden), seed=2).snapshot()
    rng = np.random.default_rng(7)
    for k in (1, 2, 6, 12):
        for _ in range(5):
            rows = [rng.uniform(0.0, [10.0, 60.0, 1.0] * 4) for _ in range(k)]
            actions = snap.decide_batch(rows)
            assert actions == [snap.decide(x) for x in rows]
            assert all(type(a) is int for a in actions)


HIDDEN_MESSAGE = "hidden must be one or more widths >= 1"


# A tuple value gets its id from its place in the list, so the tuple cases
# name theirs: a case's id stays put when another case is added or dropped.
@pytest.mark.parametrize("field,value,message", [
    ("atoms", 0, "atoms must be >= 1"),
    ("batch_size", 0, "batch_size must be >= 1"),
    ("episodes", 0, "episodes must be >= 1"),
    ("episodes", -3, "episodes must be >= 1"),
    ("warmup", -4, "warmup must be >= 0"),
    ("momentum", 1.0, "momentum must be in [0, 1)"),
    ("momentum", 1.5, "momentum must be in [0, 1)"),
    ("momentum", -0.5, "momentum must be in [0, 1)"),
    pytest.param("hidden", (), HIDDEN_MESSAGE,
                 id=f"hidden-value8-{HIDDEN_MESSAGE}"),
    pytest.param("hidden", (0,), HIDDEN_MESSAGE,
                 id=f"hidden-value9-{HIDDEN_MESSAGE}"),
    pytest.param("hidden", (16, -4), HIDDEN_MESSAGE,
                 id=f"hidden-value10-{HIDDEN_MESSAGE}"),
])
def test_learner_config_rejects_bad_settings_by_name(field, value, message):
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        LearnerConfig(**{field: value})
