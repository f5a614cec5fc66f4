"""Training driver: episodes of simulation feeding the shared learner.

Each episode is a fixed-duration rollout on the training network. Every
controlled RV's decisions stream into the replay buffer through the
engine's transition sink, and one gradient step runs per decision tick once
the buffer has warmed up. All RVs share the single policy; epsilon-greedy
exploration anneals over the first third of the episode budget.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .agent import observation_dim
from .engine import (AlwaysGoPolicy, DemandSchedule, EngineConfig,
                     RandomPolicy, Simulation, require_finite)
from .netmodel import Network
from .rainbow import Learner, LearnerConfig, load_policy

CHECKPOINT_FILE = "checkpoint.npz"
CURVE_FILE = "training_curve.csv"
CURVE_COLUMNS = ("episode", "steps", "mean_reward", "collisions",
                 "epsilon", "loss")


@dataclass(frozen=True)
class ScenarioConfig:
    """Per-episode traffic scenario used during training."""
    demand: int = 120
    episode_duration: float = 240.0
    rv_penetration: float = 0.6
    axis_bias: float = 2.0

    def __post_init__(self):
        require_finite(self)
        if self.episode_duration <= 0:
            raise ValueError("episode_duration must be > 0")
        self.schedule()   # the schedule checks the rest

    def schedule(self) -> DemandSchedule:
        """The spawn plan of every episode."""
        return DemandSchedule(total_vehicles=self.demand,
                              horizon=self.episode_duration,
                              rv_penetration=self.rv_penetration,
                              axis_bias=self.axis_bias)


class TrainingPolicy:
    """Engine-facing adapter: epsilon-greedy over the learner's network."""

    def __init__(self, learner: Learner):
        self.learner = learner

    def decide(self, obs, rng) -> int:
        return self.learner.act(obs)


def train(net: Network, episodes: int, seed: int, checkpoint_dir,
          learner_config: LearnerConfig = LearnerConfig(),
          scenario: ScenarioConfig = ScenarioConfig(),
          engine_config: EngineConfig = EngineConfig(),
          quiet: bool = False) -> Learner:
    """Run the full training loop and leave a checkpoint + curve CSV in
    checkpoint_dir. Bit-reproducible for fixed inputs and seed.

    `episodes` is how many episodes run; `learner_config.episodes` is the
    horizon that epsilon and beta anneal over. The CLI passes one value
    for both; the benchmark's desk training runs 15 episodes of a
    200-episode horizon."""
    learner = Learner(observation_dim(net), learner_config, seed)
    os.makedirs(checkpoint_dir, exist_ok=True)
    curve_path = os.path.join(checkpoint_dir, CURVE_FILE)
    ckpt_path = os.path.join(checkpoint_dir, CHECKPOINT_FILE)

    policy = TrainingPolicy(learner)
    schedule = scenario.schedule()
    with open(curve_path, "w", encoding="utf-8", newline="\n") as curve:
        curve.write(",".join(CURVE_COLUMNS) + "\n")
        for episode in range(episodes):
            ep_rewards: list[float] = []
            ep_losses: list[float] = []

            def sink(obs, action, reward, next_obs, terminal):
                learner.store(obs, action, reward, next_obs, terminal)
                ep_rewards.append(reward)

            sim = Simulation(net, schedule, policy, seed=seed + 1 + episode,
                             config=engine_config, transition_sink=sink,
                             log_decisions=False)
            steps = round(scenario.episode_duration / engine_config.dt)
            for _ in range(steps):
                sim.step()
                if sim.step_count % engine_config.decision_steps == 0:
                    loss = learner.train_step()
                    if loss is not None:
                        ep_losses.append(loss)
            sim.flush_pending()

            epsilon = learner.epsilon()
            learner.episodes_done = episode + 1
            mean_reward = sum(ep_rewards) / len(ep_rewards) if ep_rewards else 0.0
            mean_loss = sum(ep_losses) / len(ep_losses) if ep_losses else 0.0
            collisions = sim.summary().collision_events
            row = (f"{episode},{learner.train_steps},{mean_reward:.6f},"
                   f"{collisions},{epsilon:.4f},{mean_loss:.6f}")
            curve.write(row + "\n")
            if not quiet and (episode % 10 == 0 or episode == episodes - 1):
                print(f"episode {episode}: reward {mean_reward:.2f} "
                      f"collisions {collisions} "
                      f"eps {epsilon:.2f} loss {mean_loss:.4f}")

    learner.save(ckpt_path)
    return learner


def resolve_checkpoint(path) -> str:
    """Accept either a checkpoint file or a directory containing one."""
    if os.path.isdir(path):
        candidate = os.path.join(path, CHECKPOINT_FILE)
        if os.path.exists(candidate):
            return candidate
        raise FileNotFoundError(f"no {CHECKPOINT_FILE} inside {path}")
    if os.path.exists(path):
        return str(path)
    raise FileNotFoundError(path)


def make_policy(source: str):
    """Map a policy source token to a policy object.

    "random" and "always-go" are built-in baselines; anything else is
    treated as a checkpoint path (file or directory).
    """
    if source == "random":
        return RandomPolicy()
    if source == "always-go":
        return AlwaysGoPolicy()
    return load_policy(resolve_checkpoint(source))
