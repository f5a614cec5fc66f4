"""Timing stopgo's layers from the outside.

`StepCounter` is the one hook present in every run: it wraps
`Simulation.step` to count vehicle-steps and to collect the simulations a
round stepped, so their outputs can be checked afterwards.

`Tracer` is installed only in a traced run.  It replaces each function in
`LAYERS` where its caller looks it up (for example
`stopgo.engine.idm_acceleration`) by a wrapper that records a span: name,
start, end and the enclosing span.  Spans stay in memory until the run
writes them out.  Calls to hot leaf functions (IDM, signal phase lookup)
are folded into per-name totals instead of stored one by one.  A span's
self time is its duration minus the time its direct children cover.
"""

from __future__ import annotations

import functools
import itertools
import time
from collections import defaultdict

# (span name, places the caller looks the function up, keep every span)
LAYERS = [
    ("engine.step", ["engine.Simulation.step"], True),
    ("engine.run_rollout", ["metrics.run_rollout"], True),
    ("engine.RandomPolicy.decide", ["engine.RandomPolicy.decide"], False),
    ("idm.idm_acceleration", ["engine.idm_acceleration"], False),
    ("idm.advance_vehicle", ["engine.advance_vehicle"], False),
    ("signals.phase_at", ["engine.phase_at"], False),
    ("agent.build_observation", ["engine.build_observation"], True),
    ("agent.compute_reward", ["engine.compute_reward"], False),
    ("rainbow.PolicySnapshot.decide", ["rainbow.PolicySnapshot.decide"], True),
    ("rainbow.Learner.act", ["rainbow.Learner.act"], True),
    ("rainbow.Learner.train_step", ["rainbow.Learner.train_step"], True),
    ("rainbow.Learner.store", ["rainbow.Learner.store"], True),
    ("rainbow.Learner.save", ["rainbow.Learner.save"], True),
    ("rainbow.double_q_target", ["rainbow.double_q_target"], True),
    ("rainbow.categorical_projection", ["rainbow.categorical_projection"], True),
    ("rainbow.load_policy", ["rainbow.load_policy", "training.load_policy"], True),
    ("replay.ReplayBuffer.sample", ["replay.ReplayBuffer.sample"], True),
    ("replay.ReplayBuffer.update_priorities",
     ["replay.ReplayBuffer.update_priorities"], True),
    ("replay.ReplayBuffer.insert", ["replay.ReplayBuffer.insert"], True),
    ("qnet.forward_batch", ["qnet.forward_batch"], True),
    ("qnet.loss_and_grads", ["qnet.loss_and_grads"], True),
    ("qnet.sgd_step", ["qnet.sgd_step"], True),
    ("training.TrainingPolicy.decide", ["training.TrainingPolicy.decide"], True),
    ("training.train", ["training.train"], True),
    ("metrics.run_sweep", ["metrics.run_sweep"], True),
    ("netmodel.generate_grid",
     ["netmodel.generate_grid", "metrics.generate_grid"], True),
    ("netmodel.remove_left_turns",
     ["netmodel.remove_left_turns", "metrics.remove_left_turns"], True),
]

# The spans whose calls are the engine's Stop/Go decisions.
DECIDE_SPANS = ("engine.RandomPolicy.decide", "rainbow.PolicySnapshot.decide",
                "training.TrainingPolicy.decide")


def _owner(modules, place: str):
    module, *path = place.split(".")
    owner = modules[module]
    for part in path[:-1]:
        owner = getattr(owner, part)
    return owner, path[-1]


class Patches:
    """Attribute replacements that can be undone."""

    def __init__(self):
        self._saved = []

    def set(self, owner, attribute, value):
        self._saved.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, value)

    def undo(self):
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)


class StepCounter:
    """Counts vehicle-steps and collects the simulations that were stepped."""

    def __init__(self, engine):
        self.vehicle_steps = 0
        self.sims = []
        self.patches = Patches()
        original = engine.Simulation.step
        counter = self

        @functools.wraps(original)
        def step(sim):
            original(sim)
            counter.vehicle_steps += len(sim.vehicles)
            if not counter.sims or counter.sims[-1] is not sim:
                counter.sims.append(sim)

        self.patches.set(engine.Simulation, "step", step)

    def take(self):
        """Return (vehicle-steps, simulations) since the last take."""
        out = self.vehicle_steps, self.sims
        self.vehicle_steps, self.sims = 0, []
        return out

    def remove(self):
        self.patches.undo()


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.own = defaultdict(float)
        self.spans = []            # (id, parent id, name, start, end)
        self._stack = []           # open spans: [id, seconds covered by children]
        self._ids = itertools.count(1)
        self.patches = Patches()

    def _wrap(self, name, fn, keep):
        stack, ids, clock = self._stack, self._ids, time.perf_counter
        calls, total, own, spans = self.calls, self.total, self.own, self.spans

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else 0
            # A folded span lends its enclosing span's id to its children.
            frame = [next(ids) if keep else parent, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                calls[name] += 1
                total[name] += duration
                own[name] += duration - frame[1]
                if keep:
                    spans.append((frame[0], parent, name, start, end))

        return functools.wraps(fn)(traced)

    def install(self, modules):
        for name, places, keep in LAYERS:
            owner, attribute = _owner(modules, places[0])
            wrapped = self._wrap(name, getattr(owner, attribute), keep)
            for place in places:
                self.patches.set(*_owner(modules, place), wrapped)

    def remove(self):
        self.patches.undo()

    def take(self) -> dict:
        """Return and clear the calls, times and spans recorded so far."""
        out = {"calls": dict(self.calls), "total": dict(self.total),
               "own": dict(self.own), "spans": list(self.spans)}
        for store in (self.calls, self.total, self.own, self.spans):
            store.clear()
        return out


def write_spans(path, buckets) -> int:
    """Write spans as CSV (bucket, id, parent, name, start, end); returns
    the number written."""
    count = 0
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("bucket,id,parent,name,start_s,end_s\n")
        for label, bucket in buckets:
            for span_id, parent, name, start, end in bucket["spans"]:
                f.write(f"{label},{span_id},{parent},{name},{start:.9f},{end:.9f}\n")
                count += 1
    return count
