"""The three workloads: what one round runs, and what is checked after it.

A round is the same fixed set of operations every time it runs in one
invocation: rollouts on paper-sweep and dense-grid, training episodes on
desk-training.  Inputs come from the benchmark's --seed; stopgo receives
only the networks, schedules and policies built from it.  `m` maps the
short module names ("engine", "metrics", ...) to the imported stopgo
modules.
"""

from __future__ import annotations

import csv
import hashlib
import math
import random

import numpy as np

import checks

PAPER_CONFIGS = ("12U+2S", "10U+4S", "8U+6S", "6U+8S", "4U+10S")
PAPER_RV_RATES = (0.25, 0.4, 0.6, 0.8)
LEFTS_CONFIGS = ("12U+2S", "4U+10S")

# Rollouts of the dense grid stop past the kept failure's first collision
# (t = 380.3 s) but well short of the schedule's 1000 s, so that two rounds
# fit in one run.
DENSE_DEMAND = 1200
DENSE_HORIZON = 1000.0
DENSE_STEPS = 6000
KEPT_SEED = 1
# The greedy policy is an untrained network, and its Stop/Go mix, and so
# the traffic it makes, depends wholly on its initialisation: over seeds
# 0-8 a 600 s rollout costs 6 s to 19 s.  A fixed initialisation keeps the
# workload the same size for every --seed; seed 1 chooses Go about 80% of
# the time and makes about 12 000 decisions per 1000 s.
POLICY_SEED = 1

DESK_EPISODES = 15


def _grid(m, label: str, rows: int, cols: int, remove_lefts: bool = False):
    u, s = label.rstrip("S").split("U+")
    net = m["netmodel"].generate_grid(
        int(u), int(s), m["netmodel"].GridGeometry(rows=rows, cols=cols))
    return m["netmodel"].remove_left_turns(net) if remove_lefts else net


def params_digest(params) -> str:
    h = hashlib.sha256()
    for key in sorted(params):
        h.update(key.encode())
        h.update(np.ascontiguousarray(params[key]).tobytes())
    return h.hexdigest()


class Workload:
    """A workload sets up its inputs, runs a round, and checks what the
    round returned; the rollouts a round stepped are checked by the run."""
    name = ""

    def digest(self, result) -> str:
        return ""

    def round_problems(self, m, state, result) -> list[str]:
        return []

    def final_problems(self, m, state, result) -> list[str]:
        return []


class PaperSweep(Workload):
    name = "paper-sweep"

    def setup(self, m, seed, scratch):
        spec = m["metrics"].ExperimentSpec
        specs = (
            spec(configs=PAPER_CONFIGS, rv_rates=PAPER_RV_RATES, demands=(120,),
                 rollouts=1, base_seed=100 * seed + 1, duration=1000.0),
            spec(configs=LEFTS_CONFIGS, rv_rates=(0.6,), demands=(120,),
                 remove_lefts=True, rollouts=1, base_seed=100 * seed + 51,
                 duration=1000.0),
        )
        networks = {(label, s.remove_lefts): _grid(m, label, s.rows, s.cols,
                                                   s.remove_lefts)
                    for s in specs for label in s.configs}
        return {"specs": specs, "networks": networks, "seed": seed}

    def run_round(self, m, state):
        rows = [m["metrics"].run_sweep(s, m["engine"].RandomPolicy())
                for s in state["specs"]]
        return rows, {}

    def digest(self, rows) -> str:
        return repr(rows)

    def round_problems(self, m, state, rows):
        problems = []
        for s, spec_rows in zip(state["specs"], rows):
            problems += checks.sweep_problems(
                spec_rows, s.configs, s.rv_rates, s.demands, s.remove_lefts,
                s.rollouts, s.base_seed)
        return problems

    def final_problems(self, m, state, rows):
        """Replay two rows, picked by the seed, through Simulation."""
        engine = m["engine"]
        flat = [(s, row) for s, spec_rows in zip(state["specs"], rows)
                for row in spec_rows]
        problems = []
        for s, row in random.Random(state["seed"]).sample(flat, 2):
            schedule = engine.DemandSchedule(
                total_vehicles=row.demand, horizon=s.duration,
                rv_penetration=row.rv_rate, axis_bias=s.axis_bias)
            sim = engine.Simulation(state["networks"][(row.config, s.remove_lefts)],
                                    schedule, engine.RandomPolicy(), row.seed)
            for _ in range(round(s.duration / sim.config.dt)):
                sim.step()
            sim.flush_pending()
            label = f"replay of {row.config} rv {row.rv_rate} seed {row.seed}"
            summary = sim.summary()
            if (summary.departed, summary.collided) != (row.n_departed,
                                                        row.n_collided):
                problems.append(
                    f"{label}: departed/collided {summary.departed}/"
                    f"{summary.collided}, sweep row says {row.n_departed}/"
                    f"{row.n_collided}")
            problems += checks.rollout_problems(checks.facts_from_sim(sim, label))
        return problems


class DenseGrid(Workload):
    name = "dense-grid"

    def setup(self, m, seed, scratch):
        mixed = _grid(m, "12U+2S", 2, 7)
        signalized = _grid(m, "0U+14S", 2, 7)
        rainbow = m["rainbow"]
        learner = rainbow.Learner(m["training"].observation_dim(mixed),
                                  rainbow.LearnerConfig(), POLICY_SEED)
        scratch.mkdir(parents=True, exist_ok=True)
        path = scratch / "dense-policy.npz"
        learner.save(path)
        policy = rainbow.load_policy(path)
        return {"rollouts": ((mixed, policy, seed),
                             (signalized, m["engine"].RandomPolicy(), KEPT_SEED))}

    def run_round(self, m, state):
        engine = m["engine"]
        for net, policy, seed in state["rollouts"]:
            schedule = engine.DemandSchedule(total_vehicles=DENSE_DEMAND,
                                             horizon=DENSE_HORIZON,
                                             rv_penetration=0.6)
            sim = engine.Simulation(net, schedule, policy, seed)
            for _ in range(DENSE_STEPS):
                sim.step()
            sim.flush_pending()
        return None, {}


class DeskTraining(Workload):
    name = "desk-training"

    def setup(self, m, seed, scratch):
        rainbow, training = m["rainbow"], m["training"]
        return {
            "net": _grid(m, "1U+0S", 1, 1),
            "learner_config": rainbow.LearnerConfig(
                hidden=(128, 128), momentum=0.9, warmup=500, episodes=200),
            "scenario": training.ScenarioConfig(
                demand=60, episode_duration=400.0, rv_penetration=0.6),
            "checkpoint_dir": scratch / "desk",
            "seed": seed,
        }

    def run_round(self, m, state):
        learner = m["training"].train(
            state["net"], episodes=DESK_EPISODES, seed=state["seed"],
            checkpoint_dir=state["checkpoint_dir"],
            learner_config=state["learner_config"],
            scenario=state["scenario"], quiet=True)
        return learner, {"learner_steps": learner.train_steps}

    def digest(self, learner) -> str:
        return params_digest(learner.params)

    def round_problems(self, m, state, learner):
        path = state["checkpoint_dir"] / m["training"].CURVE_FILE
        with open(path, encoding="utf-8", newline="") as f:
            rows = list(csv.DictReader(f))
        problems = []
        if len(rows) != DESK_EPISODES:
            problems.append(f"training curve has {len(rows)} rows, expected "
                            f"{DESK_EPISODES}")
        for row in rows:
            if not all(math.isfinite(float(v)) for v in row.values()):
                problems.append(f"training curve row is not finite: {row}")
        return problems

    def final_problems(self, m, state, learner):
        rainbow, qnet = m["rainbow"], m["qnet"]
        cfg = learner.config
        rng = np.random.default_rng(state["seed"])
        indices, transitions, weights = learner.buffer.sample(
            cfg.batch_size, learner.beta_is(), rng)
        problems = checks.is_weight_problems(weights)

        x = learner.scale(np.stack([t.obs for t in transitions]))
        next_x = learner.scale(np.stack([t.next_obs for t in transitions]))
        actions = np.array([t.action for t in transitions], dtype=np.int64)
        rewards = np.array([t.reward for t in transitions])
        keep = 1.0 - np.array([t.terminal for t in transitions], dtype=np.float64)
        support = cfg.support
        a_star = np.argmax(qnet.q_values_batch(learner.params, next_x, support),
                           axis=1)
        dist_next, _ = qnet.forward_batch(learner.target_params, next_x)
        masses = dist_next[np.arange(len(a_star)), a_star]
        values = rewards[:, None] + cfg.gamma * support[None, :] * keep[:, None]
        problems += checks.projection_problems(
            values, masses, support,
            rainbow.categorical_projection(values, masses, support))

        targets = rainbow.double_q_target(learner.params, learner.target_params,
                                          rewards, next_x, 1.0 - keep, cfg)
        params = {k: v.copy() for k, v in learner.params.items()}

        def loss(p):
            per_sample, _ = qnet.loss_and_grads(p, x, actions, targets, weights)
            return float(np.mean(weights * per_sample))

        _, grads = qnet.loss_and_grads(params, x, actions, targets, weights)
        keys = sorted(params)
        coordinates = []
        for _ in range(8):
            key = keys[int(rng.integers(len(keys)))]
            coordinates.append((key, int(rng.integers(params[key].size))))
        problems += checks.gradient_problems(loss, params, grads, coordinates, x)

        ckpt = state["checkpoint_dir"] / m["training"].CHECKPOINT_FILE
        loaded = rainbow.Learner.load(ckpt)
        if params_digest(loaded.params) != params_digest(learner.params):
            problems.append("reloaded checkpoint parameters differ from the "
                            "trained ones")
        trained, reloaded = learner.snapshot(), rainbow.load_policy(ckpt)
        obs = np.stack([t.obs for t in transitions])
        if [trained.decide(o) for o in obs] != [reloaded.decide(o) for o in obs]:
            problems.append("reloaded checkpoint picks other greedy actions")
        return problems


WORKLOADS = {w.name: w for w in (PaperSweep(), DenseGrid(), DeskTraining())}
