"""Rainbow-style distributional Q-learning for the shared Stop/Go policy.

Exactly four ingredients: Double Q-learning (online net selects the next
action, target net evaluates it), a dueling network head, prioritized
replay, and C51 categorical projection onto a fixed atom support. One
network is trained from every RV's transitions; execution stays
decentralized because each RV feeds only its own observation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict

import numpy as np

from . import qnet
from .agent import default_obs_scale
from .qnet import NetSpec
from .replay import ReplayBuffer, Transition

CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class LearnerConfig:
    gamma: float = 0.99
    learning_rate: float = 5e-4
    batch_size: int = 32
    atoms: int = 51
    # Support bounds cover the reward range |alpha * d_max| + beta_penalty.
    v_min: float = -60.0
    v_max: float = 60.0
    hidden: tuple[int, ...] = (512, 512, 512)
    target_sync: int = 500
    eps_start: float = 1.0
    eps_end: float = 0.05
    eps_fraction: float = 1.0 / 3.0   # fraction of episodes spent annealing
    buffer_capacity: int = 50_000
    alpha_per: float = 0.5
    beta_start: float = 0.4
    beta_end: float = 1.0
    priority_floor: float = 1e-3
    momentum: float = 0.0
    grad_clip: float = 10.0
    warmup: int = 500
    episodes: int = 200

    def __post_init__(self):
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must be in (0, 1)")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.v_min >= self.v_max:
            raise ValueError("v_min must be < v_max")

    @property
    def support(self) -> np.ndarray:
        return np.linspace(self.v_min, self.v_max, self.atoms)


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
    values = rewards[:, None] + config.gamma * support[None, :] * keep[:, None]
    return categorical_projection(values, chosen, support)


class Learner:
    """Owns the online/target parameters, the replay buffer, and the RNG."""

    def __init__(self, obs_dim: int, config: LearnerConfig = LearnerConfig(),
                 seed: int = 0):
        self.config = config
        self.obs_dim = obs_dim
        self.rng = np.random.default_rng(seed)
        spec = NetSpec(obs_dim=obs_dim, actions=2, atoms=config.atoms,
                       hidden=tuple(config.hidden))
        self.params = qnet.init_params(spec, self.rng)
        self.target_params = {k: v.copy() for k, v in self.params.items()}
        # Momentum buffers, created by the first momentum step.
        self.velocity: dict[str, np.ndarray] = {}
        self.buffer = ReplayBuffer(config.buffer_capacity, config.alpha_per,
                                   config.priority_floor)
        self.obs_scale = default_obs_scale(obs_dim)
        self.train_steps = 0
        self.episodes_done = 0

    def scale(self, obs: np.ndarray) -> np.ndarray:
        return np.asarray(obs, dtype=np.float64) / self.obs_scale

    def epsilon(self) -> float:
        horizon = max(1.0, self.config.episodes * self.config.eps_fraction)
        frac = min(1.0, self.episodes_done / horizon)
        return self.config.eps_start + frac * (self.config.eps_end
                                               - self.config.eps_start)

    def beta_is(self) -> float:
        frac = min(1.0, self.episodes_done / max(1, self.config.episodes))
        return self.config.beta_start + frac * (self.config.beta_end
                                                - self.config.beta_start)

    def act(self, obs: np.ndarray, epsilon: float | None = None) -> int:
        eps = self.epsilon() if epsilon is None else epsilon
        return qnet.select_action(self.params, self.scale(obs),
                                  self.config.support, eps, self.rng)

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
        indices, batch, weights = self.buffer.sample(
            cfg.batch_size, self.beta_is(), self.rng)
        targets = double_q_target(self.params, self.target_params,
                                  batch.reward, self.scale(batch.next_obs),
                                  batch.terminal, cfg)
        per_sample, grads = qnet.loss_and_grads(
            self.params, self.scale(batch.obs), batch.action, targets, weights)
        qnet.sgd_step(self.params, grads, cfg.learning_rate, cfg.grad_clip,
                      cfg.momentum, self.velocity)
        self.buffer.update_priorities(indices, per_sample)
        self.train_steps += 1
        if self.train_steps % cfg.target_sync == 0:
            self.target_params = {k: v.copy() for k, v in self.params.items()}
        return float(per_sample.mean())

    # -- checkpointing -----------------------------------------------------

    def save(self, path) -> None:
        arrays = {f"online/{k}": v for k, v in self.params.items()}
        arrays.update({f"target/{k}": v for k, v in self.target_params.items()})
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
        np.savez_compressed(path, **arrays)

    @classmethod
    def load(cls, path) -> "Learner":
        """Restore parameters, counters, and RNG state. The replay buffer
        is not saved: the loaded learner starts with an empty one."""
        with np.load(path, allow_pickle=False) as data:
            meta, config = _read_meta(data)
            learner = cls(meta["obs_dim"], config, seed=0)
            learner.params = _arrays(data, "online/")
            learner.target_params = _arrays(data, "target/")
            learner.velocity = _arrays(data, "velocity/")
            learner.obs_scale = data["obs_scale"]
        learner.train_steps = meta["train_steps"]
        learner.episodes_done = meta["episodes_done"]
        learner.rng.bit_generator.state = meta["rng_state"]
        return learner

    def snapshot(self) -> "PolicySnapshot":
        return PolicySnapshot({k: v.copy() for k, v in self.params.items()},
                              self.config.support.copy(), self.obs_scale.copy())


class PolicySnapshot:
    """Read-only greedy policy view, safe to share across rollouts."""

    def __init__(self, params, support, obs_scale):
        self.params = params
        self.support = support
        self.obs_scale = obs_scale

    def decide(self, obs: np.ndarray, rng=None) -> int:
        scaled = np.asarray(obs, dtype=np.float64) / self.obs_scale
        return int(np.argmax(qnet.q_values(self.params, scaled, self.support)))


def _read_meta(data) -> tuple[dict, LearnerConfig]:
    """An open checkpoint's metadata and learner config, after checking its
    version. The arrays are decompressed only when read."""
    meta = json.loads(bytes(data["meta_json"]).decode("utf-8"))
    if meta["version"] != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {meta['version']}")
    cfg = dict(meta["config"], hidden=tuple(meta["config"]["hidden"]))
    return meta, LearnerConfig(**cfg)


def _arrays(data, prefix: str) -> dict[str, np.ndarray]:
    return {k[len(prefix):]: data[k] for k in data.files if k.startswith(prefix)}


def load_policy(path) -> PolicySnapshot:
    """The greedy policy of a saved Learner: reads only the online
    parameters, the observation scale and the atom support."""
    with np.load(path, allow_pickle=False) as data:
        _, config = _read_meta(data)
        return PolicySnapshot(_arrays(data, "online/"), config.support,
                              data["obs_scale"])
