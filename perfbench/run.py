"""stopgo benchmark: run one workload, check its outputs, print its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload dense-grid --seed 1 --seconds 15 --trace 0

Workloads are paper-sweep, dense-grid and desk-training (see README.md).
The run sets up the workload, then repeats whole rounds of it until at
least --seconds of round time and at least two rounds have passed, checks
every round's outputs and that every round gave the same outputs, and
prints as its last line one JSON object with the keys correct, attempted,
failed and metrics.  With --trace 0 the metrics are the end-to-end ones;
with --trace 1 the run times each layer from the outside and reports the
per-layer metrics instead.  A full record, with the environment, goes to
perfbench/out/.
"""

import os

THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_PINS)   # before anything imports NumPy

import argparse                   # noqa: E402
import hashlib                    # noqa: E402
import importlib                  # noqa: E402
import json                       # noqa: E402
import platform                   # noqa: E402
import resource                   # noqa: E402
import shutil                     # noqa: E402
import statistics                 # noqa: E402
import subprocess                 # noqa: E402
import sys                        # noqa: E402
import time                       # noqa: E402
from collections import Counter   # noqa: E402
from pathlib import Path          # noqa: E402

import checks                     # noqa: E402
import tracing                    # noqa: E402
import workloads                  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MODULES = ("agent", "engine", "idm", "metrics", "netmodel", "qnet", "rainbow",
           "replay", "signals", "training")
SETUPS = 3          # set-ups per untraced run; setup_s is their median
MIN_ROUNDS = 2      # so that every run repeats its workload at least once

KEPT_FAULT = ("generate_grid never marks a left turn and the opposing right "
              "turn as conflicting, though both exit onto the same lane")

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("rollouts_per_s", "1/s"),
              ("vehicle_steps_per_s", "1/s"), ("peak_rss_mb", "MB"))

ENGINE_COUNTS = ("vehicle_steps", "decisions", "spawned", "departed",
                 "collided", "collision_events", "backlog_at_horizon",
                 "in_network_at_horizon")

# Calls (.calls), total seconds (.s) or self seconds (.self_s) of a span.
SPAN_METRICS = (
    "engine.step.calls", "engine.step.self_s",
    "engine.run_rollout.calls", "engine.run_rollout.s",
    "idm.idm_acceleration.calls", "idm.idm_acceleration.s",
    "idm.advance_vehicle.calls", "idm.advance_vehicle.s",
    "signals.phase_at.calls", "signals.phase_at.s",
    "agent.build_observation.calls", "agent.build_observation.s",
    "agent.compute_reward.calls",
    "rainbow.PolicySnapshot.decide.calls", "rainbow.PolicySnapshot.decide.s",
    "rainbow.Learner.act.calls", "rainbow.Learner.act.s",
    "rainbow.Learner.train_step.calls", "rainbow.Learner.train_step.s",
    "rainbow.Learner.train_step.self_s",
    "rainbow.double_q_target.s", "rainbow.categorical_projection.s",
    "rainbow.Learner.store.calls", "rainbow.Learner.store.s",
    "rainbow.Learner.save.s", "rainbow.load_policy.s",
    "replay.ReplayBuffer.sample.s", "replay.ReplayBuffer.update_priorities.s",
    "replay.ReplayBuffer.insert.s",
    "qnet.forward_batch.calls", "qnet.forward_batch.s",
    "qnet.loss_and_grads.s", "qnet.sgd_step.s",
    "training.train.self_s", "metrics.run_sweep.self_s",
    "netmodel.generate_grid.s", "netmodel.remove_left_turns.s",
)


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric a traced run reports, with its unit."""
    names = [(f"engine.{c}", "count") for c in ENGINE_COUNTS]
    names += [(n, "count" if n.endswith(".calls") else "s") for n in SPAN_METRICS]
    return names + [("trace.overhead_s", "s")]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("paper-sweep", "dense-grid", "desk-training"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def fresh_import() -> dict:
    """Import stopgo from this checkout's src/, afresh, and return its
    modules by short name."""
    for name in [n for n in sys.modules if n == "stopgo" or n.startswith("stopgo.")]:
        del sys.modules[name]
    package = importlib.import_module("stopgo")
    if Path(package.__file__).resolve().parent != SRC / "stopgo":
        raise RuntimeError(f"imported stopgo from {package.__file__}, not {SRC}")
    return {name: importlib.import_module(f"stopgo.{name}") for name in MODULES}


def environment(args, rounds: int, setups: int) -> dict:
    import numpy
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        commit = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    sources = hashlib.sha256()
    for path in sorted((SRC / "stopgo").glob("*.py")):
        sources.update(path.name.encode())
        sources.update(path.read_bytes())
    return {
        "commit": commit, "source_sha256": sources.hexdigest(),
        "nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(), "python": platform.python_version(),
        "numpy": numpy.__version__,
        "thread_pins": {k: os.environ.get(k) for k in THREAD_PINS},
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": rounds, "setups": setups,
    }


class Run:
    """One invocation: rounds of one workload and what was found in them."""

    def __init__(self, workload, m, state, counter):
        self.workload, self.m, self.state, self.counter = workload, m, state, counter
        self.rounds = []        # per round: times, operations, counts
        self.problems = []      # failed checks: the run is not correct
        self.failures = []      # operations that failed the kept check
        self.digests = set()
        self.result = None

    def round(self) -> dict:
        self.counter.take()
        start, cpu_start = time.perf_counter(), time.process_time()
        result, extra = self.workload.run_round(self.m, self.state)
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu_start
        vehicle_steps, sims = self.counter.take()
        self.result = result

        digest = hashlib.sha256(self.workload.digest(result).encode())
        counts = Counter(vehicle_steps=vehicle_steps)
        failed = 0
        for index, sim in enumerate(sims):
            facts = checks.facts_from_sim(
                sim, f"round {len(self.rounds)} rollout {index} "
                     f"({self._label(sim)})")
            self.problems += checks.rollout_problems(facts)
            kept = checks.signalized_collision(facts)
            if kept is not None:
                failed += 1
                self.failures.append(f"{kept}; fault: {KEPT_FAULT}")
            for event in facts.events:
                digest.update(repr(event).encode())
            counts.update(spawned=facts.spawned, departed=facts.departed,
                          collided=facts.collided,
                          collision_events=facts.collision_events,
                          backlog_at_horizon=facts.arrivals - facts.spawned,
                          in_network_at_horizon=len(facts.remaining))
        self.problems += self.workload.round_problems(self.m, self.state, result)
        self.digests.add(digest.hexdigest())
        if len(self.digests) > 1:
            self.problems.append(f"round {len(self.rounds)} gave other outputs "
                                 f"than round 0: the workload is not deterministic")
        entry = {"wall": wall, "cpu": cpu, "ops": len(sims), "failed": failed,
                 "extra": extra, "counts": counts}
        self.rounds.append(entry)
        return entry

    @staticmethod
    def _label(sim) -> str:
        controls = Counter(i.control for i in sim.net.intersections)
        return (f"{controls['unsignalized']}U+{controls['signalized']}S, "
                f"{sim.schedule.total_vehicles} vehicles")

    def walls(self):
        return [r["wall"] for r in self.rounds]


def end_to_end(run: Run, setup_times) -> tuple[dict, dict]:
    rounds = run.rounds
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(run.walls()),
        "rollouts_per_s": statistics.median(r["ops"] / r["wall"] for r in rounds),
        "vehicle_steps_per_s": statistics.median(
            r["counts"]["vehicle_steps"] / r["wall"] for r in rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    extra = {f"{k}_per_s": statistics.median(r["extra"][k] / r["wall"] for r in rounds)
             for k in rounds[0]["extra"]}
    return metrics, extra


def per_layer(setup_bucket, traced_buckets, traced_rounds, untraced_wall,
              problems) -> dict:
    first = traced_buckets[0]
    for bucket in traced_buckets[1:]:
        if bucket["calls"] != first["calls"]:
            problems.append("traced rounds made different numbers of calls")
    n = len(traced_buckets)

    def value(kind, name):
        inside = sum(b[kind].get(name, 0) for b in traced_buckets) / n
        return setup_bucket[kind].get(name, 0) + inside

    out = {}
    counts = traced_rounds[0]["counts"]
    for count in ENGINE_COUNTS:
        out[f"engine.{count}"] = counts[count]
    out["engine.decisions"] = sum(first["calls"].get(name, 0)
                                  for name in tracing.DECIDE_SPANS)
    for metric in SPAN_METRICS:
        span, _, kind = metric.rpartition(".")
        if kind == "calls":
            out[metric] = int(value("calls", span))
        else:
            out[metric] = value("own" if kind == "self_s" else "total", span)
    out["trace.overhead_s"] = (statistics.median(r["wall"] for r in traced_rounds)
                               - untraced_wall)
    return out


def measure(args) -> int:
    workload = workloads.WORKLOADS[args.workload]
    scratch = OUT / f"tmp-{workload.name}-seed{args.seed}"
    record = {}
    try:
        if args.trace:
            tracer = tracing.Tracer()
            m = fresh_import()
            counter = tracing.StepCounter(m["engine"])
            tracer.install(m)
            state = workload.setup(m, args.seed, scratch)
            setup_bucket = tracer.take()
            tracer.remove()
            run = Run(workload, m, state, counter)
            untraced_wall = run.round()["wall"]
            tracer.install(m)
            buckets, traced = [], []
            while not traced or sum(run.walls()) < args.seconds:
                traced.append(run.round())
                buckets.append(tracer.take())
            tracer.remove()
            metrics = per_layer(setup_bucket, buckets, traced, untraced_wall,
                                run.problems)
            spans_path = OUT / f"trace-{workload.name}.csv"
            record["spans"] = tracing.write_spans(
                spans_path, [("setup", setup_bucket)]
                + [(f"round{i + 1}", b) for i, b in enumerate(buckets)])
            record["spans_file"] = str(spans_path.relative_to(ROOT))
            units = dict(per_layer_names())
            setups = 1
        else:
            setup_times = []
            for _ in range(SETUPS):
                start = time.perf_counter()
                m = fresh_import()
                state = workload.setup(m, args.seed, scratch)
                setup_times.append(time.perf_counter() - start)
            counter = tracing.StepCounter(m["engine"])
            run = Run(workload, m, state, counter)
            while len(run.rounds) < MIN_ROUNDS or sum(run.walls()) < args.seconds:
                run.round()
            metrics, record["extra"] = end_to_end(run, setup_times)
            record["setup_times"] = setup_times
            units = dict(END_TO_END)
            setups = SETUPS
        counter.remove()
        run.problems += workload.final_problems(m, state, run.result)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = sum(r["ops"] for r in run.rounds)
    failed = sum(r["failed"] for r in run.rounds)
    record.update(
        environment=environment(args, len(run.rounds), setups),
        rounds=run.rounds,
        problems=run.problems, failures=run.failures)
    result = {"correct": not run.problems, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    record["result"] = result
    OUT.mkdir(parents=True, exist_ok=True)
    record_path = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"{workload.name} seed {args.seed}: {len(run.rounds)} rounds, "
          f"{attempted} operations, {failed} failed")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    for name, value in record.get("extra", {}).items():
        print(f"  {name} = {value:.6g} 1/s")
    for failure in run.failures[:1]:
        print(f"  failed operation (each round): {failure}")
    for problem in run.problems[:20]:
        print(f"  CHECK FAILED: {problem}")
    print(f"  record: {record_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "stopgo" / "__init__.py").is_file():
        print(f"error: no stopgo sources at {SRC / 'stopgo'}; run from the "
              f"root of a stopgo checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
