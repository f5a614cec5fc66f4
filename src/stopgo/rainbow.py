"""Rainbow-style distributional Q-learning for the shared Stop/Go policy.

Exactly four ingredients: Double Q-learning (online net selects the next
action, target net evaluates it), a dueling network head, prioritized
replay, and C51 categorical projection onto a fixed atom support. One
network is trained from every RV's transitions; execution stays
decentralized because each RV feeds only its own observation.
"""

from __future__ import annotations

import inspect
import json
import zipfile
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, asdict

import numpy as np

from . import qnet
from .agent import default_obs_scale
from .engine import require_finite
from .qnet import NetSpec
from .replay import ReplayBuffer, Transition

CHECKPOINT_VERSION = 1

# Learner constants. The replay buffer's capacity, priority exponent and
# priority floor, and the gradient-norm clip, are the defaults of
# ReplayBuffer and qnet.sgd_step.
GAMMA = 0.99
LEARNING_RATE = 5e-4
# The support bounds cover the reward range |alpha * d_max| + beta_penalty.
V_MIN = -60.0
V_MAX = 60.0
TARGET_SYNC = 500             # learner steps between target-network copies
EPS_START = 1.0
EPS_END = 0.05
EPS_FRACTION = 1.0 / 3.0      # fraction of episodes spent annealing epsilon
BETA_START = 0.4
BETA_END = 1.0


@dataclass(frozen=True)
class LearnerConfig:
    batch_size: int = 32
    atoms: int = 51
    hidden: tuple[int, ...] = (512, 512, 512)
    momentum: float = 0.0
    warmup: int = 500
    episodes: int = 200

    def __post_init__(self):
        require_finite(self)
        for name in ("batch_size", "atoms"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not self.hidden or min(self.hidden) < 1:
            raise ValueError("hidden must be one or more widths >= 1")

    @property
    def gamma(self) -> float:
        """The fixed discount, still readable where a config is at hand."""
        return GAMMA

    @property
    def support(self) -> np.ndarray:
        return np.linspace(V_MIN, V_MAX, self.atoms)

    def net_spec(self, obs_dim: int) -> NetSpec:
        return NetSpec(obs_dim=obs_dim, actions=2, atoms=self.atoms,
                       hidden=tuple(self.hidden))


def categorical_projection(values: np.ndarray, masses: np.ndarray,
                           support: np.ndarray) -> np.ndarray:
    """Project target atoms (values with probability masses) onto support.

    values, masses: [B, J]; returns [B, Z]. Each target value is clipped to
    the support range and its mass split linearly between the two
    neighboring support atoms; an exact hit puts all mass on that atom.
    """
    values = np.atleast_2d(values)
    masses = np.atleast_2d(masses)
    batch, _ = values.shape
    z = len(support)
    v_min, v_max = float(support[0]), float(support[-1])
    if z == 1:
        return masses.sum(axis=1, keepdims=True)
    dz = (v_max - v_min) / (z - 1)
    b = (np.clip(values, v_min, v_max) - v_min) / dz
    lower = np.floor(b).astype(np.int64)
    upper = np.ceil(b).astype(np.int64)
    lower_mass = masses * (upper - b)
    upper_mass = masses * (b - lower)
    exact = lower == upper
    lower_mass[exact] += masses[exact]
    # One bincount over the flat cells of all lower atoms, then all upper
    # atoms: it adds in input order from zero, as two np.add.at calls do.
    row_start = np.arange(batch)[:, None] * z
    cells = np.concatenate(((row_start + lower).ravel(),
                            (row_start + upper).ravel()))
    mass = np.concatenate((lower_mass.ravel(), upper_mass.ravel()))
    return np.bincount(cells, mass, minlength=batch * z).reshape(batch, z)


def double_q_target(online_params, target_params, rewards: np.ndarray,
                    next_obs: np.ndarray, terminals: np.ndarray,
                    config: LearnerConfig) -> np.ndarray:
    """Projected target distributions [B, Z].

    The online network picks a* at the next observation; the target network
    supplies a*'s distribution; the support is shifted by reward + gamma*z
    and projected back. Terminal rows zero the gamma term, which collapses
    every atom onto the bare reward.
    """
    support = config.support
    q_next = qnet.q_values_batch(online_params, next_obs, support)
    a_star = np.argmax(q_next, axis=1)
    dist_next, _ = qnet.forward_batch(target_params, next_obs)
    chosen = dist_next[np.arange(len(a_star)), a_star]
    keep = 1.0 - terminals.astype(np.float64)
    values = rewards[:, None] + GAMMA * support[None, :] * keep[:, None]
    return categorical_projection(values, chosen, support)


class Learner:
    """Owns the online/target parameters, the replay buffer, and the RNG.

    `target_params` is None until the first train_step copies the online
    parameters into it, so an untrained learner holds one network.
    `params`, when given, are the online parameters (Learner.load);
    otherwise they are drawn from the seed.
    """

    def __init__(self, obs_dim: int, config: LearnerConfig = LearnerConfig(),
                 seed: int = 0, params: dict[str, np.ndarray] | None = None):
        self.config = config
        self.obs_dim = obs_dim
        self.rng = np.random.default_rng(seed)
        self.params = (qnet.init_params(config.net_spec(obs_dim), self.rng)
                       if params is None else params)
        self.target_params: dict[str, np.ndarray] | None = None
        # Momentum buffers, created by the first momentum step.
        self.velocity: dict[str, np.ndarray] = {}
        self.buffer = ReplayBuffer()
        self.obs_scale = default_obs_scale(obs_dim)
        self.train_steps = 0
        self.episodes_done = 0

    def scale(self, obs: np.ndarray) -> np.ndarray:
        return np.asarray(obs, dtype=np.float64) / self.obs_scale

    def epsilon(self) -> float:
        horizon = max(1.0, self.config.episodes * EPS_FRACTION)
        frac = min(1.0, self.episodes_done / horizon)
        return EPS_START + frac * (EPS_END - EPS_START)

    def beta_is(self) -> float:
        frac = min(1.0, self.episodes_done / max(1, self.config.episodes))
        return BETA_START + frac * (BETA_END - BETA_START)

    def act(self, obs: np.ndarray) -> int:
        """Epsilon-greedy: a uniform random action with probability
        epsilon, else the greedy one."""
        eps = self.epsilon()
        if eps > 0.0 and self.rng.random() < eps:
            return int(self.rng.integers(2))
        return _greedy(self.params, self.scale(obs)[None, :],
                       self.config.support)[0]

    def store(self, obs, action, reward, next_obs, terminal) -> None:
        self.buffer.insert(Transition(
            obs=np.asarray(obs, dtype=np.float64), action=int(action),
            reward=float(reward),
            next_obs=np.asarray(next_obs, dtype=np.float64),
            terminal=bool(terminal)))

    def ready(self) -> bool:
        need = max(self.config.warmup, self.config.batch_size)
        return len(self.buffer) >= need

    def train_step(self) -> float | None:
        """One prioritized batch update; returns the mean per-sample loss,
        or None while the buffer is warming up."""
        if not self.ready():
            return None
        cfg = self.config
        if self.target_params is None:
            self.target_params = {k: v.copy() for k, v in self.params.items()}
        indices, batch, weights = self.buffer.sample(
            cfg.batch_size, self.beta_is(), self.rng)
        targets = double_q_target(self.params, self.target_params,
                                  batch.reward, self.scale(batch.next_obs),
                                  batch.terminal, cfg)
        per_sample, grads = qnet.loss_and_grads(
            self.params, self.scale(batch.obs), batch.action, targets, weights)
        qnet.sgd_step(self.params, grads, LEARNING_RATE,
                      momentum=cfg.momentum, velocity=self.velocity)
        self.buffer.update_priorities(indices, per_sample)
        self.train_steps += 1
        if self.train_steps % TARGET_SYNC == 0:
            self.target_params = {k: v.copy() for k, v in self.params.items()}
        return float(per_sample.mean())

    # -- checkpointing -----------------------------------------------------

    def save(self, path) -> None:
        """Write parameters, counters and RNG state to one .npz whose zip
        entries are stored, not deflated: deflate shrank a 512-wide
        learner's file by under 5% and took most of its save time. Before
        the first train_step the target group holds the online parameters,
        which the first step would copy."""
        target = self.params if self.target_params is None \
            else self.target_params
        arrays = {f"online/{k}": v for k, v in self.params.items()}
        arrays.update({f"target/{k}": v for k, v in target.items()})
        arrays.update({f"velocity/{k}": v for k, v in self.velocity.items()})
        arrays["obs_scale"] = self.obs_scale
        meta = {
            "version": CHECKPOINT_VERSION,
            "obs_dim": self.obs_dim,
            "config": asdict(self.config),
            "train_steps": self.train_steps,
            "episodes_done": self.episodes_done,
            "rng_state": self.rng.bit_generator.state,
        }
        arrays["meta_json"] = np.frombuffer(
            json.dumps(meta).encode("utf-8"), dtype=np.uint8).copy()
        np.savez(path, **arrays)

    @classmethod
    def load(cls, path) -> "Learner":
        """Restore parameters, counters, and RNG state from a checkpoint,
        stored or, as older versions wrote it, deflated. The replay buffer
        is not saved: the loaded learner starts with an empty one."""
        with _open_checkpoint(path, "online", "target", "velocity") as (
                meta, config, obs_scale, params, target, velocity):
            learner = cls(meta["obs_dim"], config, params=params)
            learner.target_params = target
            learner.velocity = velocity
            learner.obs_scale = obs_scale
            learner.train_steps = meta["train_steps"]
            learner.episodes_done = meta["episodes_done"]
            learner.rng.bit_generator.state = meta["rng_state"]
        return learner

    def snapshot(self) -> "PolicySnapshot":
        return PolicySnapshot({k: v.copy() for k, v in self.params.items()},
                              self.config.support.copy(), self.obs_scale.copy())


class PolicySnapshot:
    """Read-only greedy policy view, safe to share across rollouts. It
    draws no randomness, so the engine asks it once per decision tick
    (decide_batch); each row is still one RV's own observation."""

    def __init__(self, params, support, obs_scale):
        self.params = params
        self.support = support
        self.obs_scale = obs_scale

    @property
    def obs_dim(self) -> int:
        return len(self.obs_scale)

    def decide(self, obs: np.ndarray, rng=None) -> int:
        return self.decide_batch([obs])[0]

    def decide_batch(self, observations) -> list[int]:
        scaled = np.stack(observations) / self.obs_scale
        return _greedy(self.params, scaled, self.support)


def _greedy(params, scaled: np.ndarray, support: np.ndarray) -> list[int]:
    """The greedy action of each scaled observation row. Exact ties go to
    Go (index 0), because argmax returns the first maximum."""
    q = qnet.q_values_batch(params, scaled, support)
    return np.argmax(q, axis=1).tolist()


def _default(function, name: str):
    return inspect.signature(function).parameters[name].default


# The settings that checkpoints written before they became constants store
# in their config, and the value each is fixed at now.
_RETIRED = {
    "gamma": GAMMA, "learning_rate": LEARNING_RATE,
    "v_min": V_MIN, "v_max": V_MAX, "target_sync": TARGET_SYNC,
    "eps_start": EPS_START, "eps_end": EPS_END, "eps_fraction": EPS_FRACTION,
    "buffer_capacity": _default(ReplayBuffer, "capacity"),
    "alpha_per": _default(ReplayBuffer, "alpha_per"),
    "beta_start": BETA_START, "beta_end": BETA_END,
    "priority_floor": _default(ReplayBuffer, "priority_floor"),
    "grad_clip": _default(qnet.sgd_step, "clip_norm"),
}

# What np.load, zipfile and the checks below raise on a file that is not a
# whole checkpoint: not a zip, truncated, a failed CRC, a damaged entry
# header, a missing or unexpected key, another version or arrays that do
# not fit the network.
_UNREADABLE = (OSError, EOFError, ValueError, KeyError, TypeError,
               NotImplementedError, RuntimeError, zipfile.BadZipFile,
               zlib.error)


@contextmanager
def _open_checkpoint(path, *groups: str):
    """A checkpoint, stored or deflated, as its metadata, learner config,
    observation scale and then each parameter group named ("online",
    "target", "velocity") as a dict of arrays. The version, the config
    and every array read are checked against the network the config
    describes. zipfile checks each entry's CRC as it is read, so a fault
    met anywhere in the with-block becomes a ValueError naming the file."""
    try:
        with np.load(path, allow_pickle=False) as data:
            meta = json.loads(bytes(data["meta_json"]).decode("utf-8"))
            if meta["version"] != CHECKPOINT_VERSION:
                raise ValueError(
                    f"unsupported checkpoint version {meta['version']}")
            config = _stored_config(meta["config"])
            obs_dim = meta["obs_dim"]
            obs_scale = data["obs_scale"]
            if obs_scale.shape != (obs_dim,):
                raise ValueError(f"obs_scale has shape {obs_scale.shape}, "
                                 f"the network reads {obs_dim} values")
            layout = qnet.layout(config.net_spec(obs_dim))
            arrays = []
            for group in groups:
                arrays.append(_arrays(data, group + "/"))
                # Momentum velocity exists only for the parameters stepped.
                _check_layout(group, arrays[-1], layout,
                              whole=group != "velocity")
            yield (meta, config, obs_scale, *arrays)
    except FileNotFoundError:
        raise
    except _UNREADABLE as error:
        raise ValueError(
            f"{path} is not a readable checkpoint: {error}") from error


def _stored_config(stored: dict) -> LearnerConfig:
    """The LearnerConfig in a checkpoint's metadata. A checkpoint written
    before the retired settings became constants stores them as well; it
    loads only where each holds the value now fixed, since a policy
    trained with another support or discount would decide differently."""
    fields = dict(stored)
    for key, fixed in _RETIRED.items():
        value = fields.pop(key, fixed)
        if value != fixed:
            raise ValueError(f"it was trained with {key} = {value}, "
                             f"which is now fixed at {fixed}")
    return LearnerConfig(**dict(fields, hidden=tuple(fields["hidden"])))


def _arrays(data, prefix: str) -> dict[str, np.ndarray]:
    return {k[len(prefix):]: data[k] for k in data.files if k.startswith(prefix)}


def _check_layout(group: str, arrays: dict, layout: dict,
                  whole: bool) -> None:
    """Each array must have a parameter's name and shape; a whole group
    must hold every parameter."""
    for name, array in arrays.items():
        if name not in layout:
            raise ValueError(f"{group}/{name} is not a parameter of the "
                             "network")
        if array.shape != layout[name]:
            raise ValueError(f"{group}/{name} has shape {array.shape}, the "
                             f"network's is {layout[name]}")
    missing = [name for name in layout if name not in arrays]
    if whole and missing:
        raise ValueError(f"{group}/{missing[0]} is missing")


def load_policy(path) -> PolicySnapshot:
    """The greedy policy of a saved Learner: reads only the online
    parameters, the observation scale and the atom support."""
    with _open_checkpoint(path, "online") as (_, config, obs_scale, params):
        return PolicySnapshot(params, config.support, obs_scale)
