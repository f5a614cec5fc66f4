"""Command-line surface: netgen, transform, train, simulate, sweep.

Exit codes: 0 success, 1 usage error (bad flags/arguments), 2 runtime
error (unreadable files, invalid documents, failed runs). Options may also
be supplied through `key = value` config files; explicit flags win.
"""

from __future__ import annotations

import argparse
import dataclasses
import re
import sys
import typing

from . import configfile, metrics, netmodel, training
from .configfile import as_bool, as_float, as_int, as_list
from .engine import DemandSchedule, EngineConfig, run_rollout, write_events_csv
from .rainbow import LearnerConfig
from .training import ScenarioConfig


class _Parser(argparse.ArgumentParser):
    """argparse maps usage errors to exit code 2; this tool reserves 2 for
    runtime failures, so remap usage problems to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> _Parser:
    parser = _Parser(prog="stopgo", description=__doc__)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p = sub.add_parser("netgen", help="generate a grid network document")
    p.add_argument("--unsignalized", type=int, required=True)
    p.add_argument("--signalized", type=int, required=True)
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--cols", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--block-length", type=float, default=150.0)
    p.add_argument("--stub-length", type=float, default=120.0)
    p.add_argument("--speed-limit", type=float, default=13.9)
    p.add_argument("--cycle", type=float, default=60.0)

    p = sub.add_parser("transform", help="rewrite a network document")
    p.add_argument("--no-left-turns", action="store_true",
                   help="replace every left turn with its straight movement")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("train", help="train the Stop/Go policy")
    p.add_argument("--network", required=True)
    p.add_argument("--episodes", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--checkpoint", required=True,
                   help="directory for checkpoint.npz and training_curve.csv")
    p.add_argument("--config", default=None, help="learner/scenario config file")
    p.add_argument("--quiet", action="store_true")

    p = sub.add_parser("simulate", help="run one rollout")
    p.add_argument("--network", required=True)
    p.add_argument("--demand", type=int, default=None)
    p.add_argument("--rv-rate", type=float, default=None)
    p.add_argument("--policy", default=None,
                   help="checkpoint path, 'random', or 'always-go'")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--duration", type=float, default=None)
    p.add_argument("--events", default=None, help="event log CSV path")
    p.add_argument("--summary", default=None, help="summary text path")
    p.add_argument("--config", default=None)
    p.add_argument("--no-decision-log", action="store_true",
                   help="omit per-decision rows from the event log")

    p = sub.add_parser("sweep", help="run the experiment grid")
    p.add_argument("--spec", required=True, help="sweep spec config file")
    p.add_argument("--policy", default=None)
    p.add_argument("--out", required=True, help="per-rollout results CSV")
    p.add_argument("--summary", default=None, help="per-cell summary CSV")
    p.add_argument("--quiet", action="store_true")

    return parser


# Config keys that differ from the name of the dataclass field they set.
_ALIASES = {"total_vehicles": "demand", "episode_duration": "duration",
            "rv_penetration": "rv_rate", "remove_lefts": "remove_left_turns"}

# Per subcommand: the dataclasses built from its config, and the keys the
# subcommand reads itself.
_CONFIGS = {
    "train": ((LearnerConfig, ScenarioConfig, EngineConfig), ("seed",)),
    "simulate": ((DemandSchedule, EngineConfig),
                 ("duration", "policy", "seed")),
    "sweep": ((metrics.ExperimentSpec, EngineConfig), ("policy",)),
}

_READERS = {int: as_int, float: as_float, bool: as_bool}


def config_keys(command: str) -> set[str]:
    """Every key the subcommand's config may set."""
    classes, own = _CONFIGS[command]
    return {_ALIASES.get(f.name, f.name)
            for cls in classes for f in dataclasses.fields(cls)} | set(own)


def _read(values: dict, key: str, hint):
    """values[key] as the type a field declares; a tuple field takes a
    comma-separated list."""
    if typing.get_origin(hint) is tuple:
        item = typing.get_args(hint)[0]
        return tuple(_read({key: text}, key, item)
                     for text in as_list(values, key, []))
    if hint is str:
        return str(values[key])
    return _READERS[hint](values, key, None)


def _build(cls, values: dict):
    """The dataclass cls with each field read from its config key; a field
    whose key is absent keeps its default."""
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for f in dataclasses.fields(cls):
        key = _ALIASES.get(f.name, f.name)
        if key in values:
            kwargs[f.name] = _read(values, key, hints[f.name])
        elif f.default is dataclasses.MISSING:
            raise configfile.ConfigError(f"missing key {key!r}")
    try:
        return cls(**kwargs)
    except ValueError as error:
        # The dataclass names its field; name the key the user wrote.
        raise configfile.ConfigError(re.sub(
            r"\w+", lambda m: _ALIASES.get(m[0], m[0]), str(error))) from None


def _config(command: str, path, flags: dict) -> dict:
    """The config file's values under the explicitly set flags. Every key
    must be one the subcommand reads."""
    values = configfile.merge_options(
        configfile.load_config(path) if path else {}, flags)
    unknown = sorted(set(values) - config_keys(command))
    if unknown:
        raise configfile.ConfigError(
            f"unknown config key{'s' if len(unknown) > 1 else ''} "
            + ", ".join(map(repr, unknown)))
    return values


def _cmd_netgen(args) -> int:
    geometry = netmodel.GridGeometry(
        rows=args.rows, cols=args.cols, block_length=args.block_length,
        stub_length=args.stub_length, speed_limit=args.speed_limit,
        cycle_length=args.cycle)
    net = netmodel.generate_grid(args.unsignalized, args.signalized, geometry)
    netmodel.save_network(net, args.out)
    print(f"wrote {args.out}: {len(net.intersections)} intersections, "
          f"{len(net.lanes)} lanes, {len(net.routes)} routes")
    return 0


def _cmd_transform(args) -> int:
    if not args.no_left_turns:
        print("transform: no transform selected (use --no-left-turns)",
              file=sys.stderr)
        return 1
    net = netmodel.load_network(args.in_path)
    out = netmodel.remove_left_turns(net)
    netmodel.save_network(out, args.out)
    lefts = sum(1 for m in out.movements if m.turn == netmodel.LEFT)
    print(f"wrote {args.out}: {len(out.movements)} movements "
          f"({lefts} left turns), {len(out.routes)} routes")
    return 0


def _cmd_train(args) -> int:
    values = _config("train", args.config,
                     {"episodes": args.episodes, "seed": args.seed})
    learner_config = _build(LearnerConfig, values)
    scenario = _build(ScenarioConfig, values)
    net = netmodel.load_network(args.network)
    seed = as_int(values, "seed", 0)
    training.train(net, learner_config.episodes, seed, args.checkpoint,
                   learner_config=learner_config, scenario=scenario,
                   engine_config=_build(EngineConfig, values),
                   quiet=args.quiet)
    print(f"checkpoint written to {args.checkpoint}")
    return 0


def _cmd_simulate(args) -> int:
    values = _config("simulate", args.config,
                     {"demand": args.demand, "rv_rate": args.rv_rate,
                      "policy": args.policy, "seed": args.seed,
                      "duration": args.duration})
    if "demand" not in values:
        print("simulate: --demand is required (flag or config)", file=sys.stderr)
        return 1
    net = netmodel.load_network(args.network)
    duration = as_float(values, "duration", 1000.0)
    # The schedule's horizon defaults to the run's duration.
    schedule = _build(DemandSchedule, {"horizon": duration, **values})
    policy_token = str(values.get("policy", "random"))
    policy = training.make_policy(policy_token)
    seed = as_int(values, "seed", 0)
    events, summary = run_rollout(
        net, schedule, policy, seed, duration, _build(EngineConfig, values),
        log_decisions=not args.no_decision_log)
    if args.events:
        write_events_csv(events, args.events)
    text = (f"network = {args.network}\n"
            f"policy = {policy_token}\n"
            f"seed = {seed}\n"
            f"demand = {schedule.total_vehicles}\n"
            f"rv_penetration = {schedule.rv_penetration:g}\n"
            + summary.as_text())
    if args.summary:
        with open(args.summary, "w", encoding="utf-8", newline="\n") as f:
            f.write(text)
    else:
        print(text, end="")
    return 0


def _cmd_sweep(args) -> int:
    values = _config("sweep", args.spec, {"policy": args.policy})
    spec = _build(metrics.ExperimentSpec, values)
    policy = training.make_policy(str(values.get("policy", "random")))

    def progress(cell_index, label, rate, demand, seed):
        if not args.quiet:
            print(f"cell {cell_index} [{label} rate={rate:g} "
                  f"demand={demand}] seed {seed}", flush=True)

    rows = metrics.run_sweep(spec, policy, _build(EngineConfig, values),
                             progress=progress)
    metrics.write_results_csv(rows, args.out)
    if args.summary:
        cells = metrics.write_summary_csv(rows, args.summary)
        print(f"wrote {args.out} ({len(rows)} rows) and "
              f"{args.summary} ({len(cells)} cells)")
    else:
        print(f"wrote {args.out} ({len(rows)} rows)")
    return 0


_COMMANDS = {
    "netgen": _cmd_netgen,
    "transform": _cmd_transform,
    "train": _cmd_train,
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
}

_RUNTIME_ERRORS = (OSError, ValueError, KeyError, FloatingPointError,
                   netmodel.ParseError, netmodel.NetworkError,
                   configfile.ConfigError, metrics.MetricError)


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_request:
        return int(exit_request.code or 0)
    if args.command is None:
        parser.print_help()
        return 1
    try:
        return _COMMANDS[args.command](args)
    except _RUNTIME_ERRORS as error:
        print(f"stopgo {args.command}: {error}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
