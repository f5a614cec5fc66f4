"""Collision-rate metric, per-cell aggregation, and the experiment sweep.

The sweep walks the Cartesian product of network configurations, RV
penetration rates, demand totals, and the left-turn transform flag, runs a
fixed number of seeded rollouts per cell, and emits one row per rollout
plus a per-cell summary laid out configs-as-columns, rates-as-rows.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .agent import check_policy_fits
from .engine import DemandSchedule, EngineConfig, require_finite, run_rollout
from .netmodel import (GridGeometry, Network, NetworkError, generate_grid,
                       remove_left_turns)

RESULT_COLUMNS = ("config", "rv_rate", "demand", "left_turns_removed",
                  "seed", "n_departed", "n_collided", "collision_rate")


class MetricError(Exception):
    pass


def collision_rate(n_collided: int, n_departed: int) -> float:
    """Distinct collided vehicles over departed vehicles; undefined (error)
    when nothing departed, never silently zero."""
    if n_departed <= 0:
        raise MetricError("collision rate undefined: no vehicle departed")
    if n_collided < 0:
        raise MetricError("collided count must be >= 0")
    return n_collided / n_departed


def format_percent(rate: float) -> str:
    return f"{rate * 100:.3f}%"


@dataclass(frozen=True)
class ResultRow:
    config: str               # e.g. "12U+2S"
    rv_rate: float
    demand: int
    left_turns_removed: bool
    seed: int
    n_departed: int
    n_collided: int
    collision_rate: float


@dataclass(frozen=True)
class CellSummary:
    mean: float
    std: float     # (n-1)-normalized, 0 for a single rollout
    low: float
    high: float
    count: int


def aggregate(rows) -> CellSummary:
    rates = [r.collision_rate for r in rows]
    if not rates:
        raise MetricError("cannot aggregate zero rows")
    keys = {(r.config, r.rv_rate, r.demand, r.left_turns_removed) for r in rows}
    if len(keys) != 1:
        raise MetricError(f"rows span {len(keys)} cells, expected one")
    n = len(rates)
    mean = sum(rates) / n
    if n > 1:
        var = sum((x - mean) ** 2 for x in rates) / (n - 1)
        std = math.sqrt(var)
    else:
        std = 0.0
    return CellSummary(mean=mean, std=std, low=min(rates), high=max(rates),
                       count=n)


_LABEL_RE = re.compile(r"^(\d+)U\+(\d+)S$")


def parse_config_label(label: str) -> tuple[int, int]:
    m = _LABEL_RE.match(label.strip())
    if not m:
        raise MetricError(f"bad configuration label {label!r} (want e.g. 12U+2S)")
    return int(m.group(1)), int(m.group(2))


@dataclass(frozen=True)
class ExperimentSpec:
    configs: tuple[str, ...]           # labels like "12U+2S"
    rv_rates: tuple[float, ...]
    demands: tuple[int, ...]
    remove_lefts: bool = False
    rollouts: int = 10
    base_seed: int = 1
    duration: float = 1000.0
    rows: int = 2
    cols: int = 7
    axis_bias: float = 2.0

    def __post_init__(self):
        require_finite(self, MetricError)
        if not (self.configs and self.rv_rates and self.demands):
            raise MetricError("configs, rv_rates, and demands must be non-empty")
        for rate in self.rv_rates:
            if not 0.0 <= rate <= 1.0:
                raise MetricError(f"rv_rates: {rate:g} is not in [0, 1]")
        for demand in self.demands:
            if demand <= 0:
                raise MetricError(f"demands: {demand} is not > 0")
        if self.rollouts < 1:
            raise MetricError("rollouts must be >= 1")
        if self.duration <= 0:
            raise MetricError("duration must be > 0")

    def cells(self):
        """Canonical cell order: configs outermost, then rates, then demands."""
        index = 0
        for label in self.configs:
            for rate in self.rv_rates:
                for demand in self.demands:
                    yield index, label, rate, demand
                    index += 1


def build_network(spec: ExperimentSpec, label: str) -> Network:
    u, s = parse_config_label(label)
    try:
        net = generate_grid(u, s, GridGeometry(rows=spec.rows, cols=spec.cols))
    except NetworkError as error:
        raise NetworkError(f"{label}: {error}") from None
    if spec.remove_lefts:
        net = remove_left_turns(net)
    return net


def run_sweep(spec: ExperimentSpec, policy,
              engine_config: EngineConfig = EngineConfig(),
              progress=None) -> list[ResultRow]:
    """Execute every rollout of the sweep in canonical order.

    Rollout seeds are base_seed + cell_index * rollouts + k, recorded in
    each row, so any row can be reproduced in isolation. Rollouts share no
    state, and this runner executes them one after another. A process pool
    over cells is not a drop-in change: perfbench counts vehicle steps by
    wrapping `Simulation.step` in its own process, so rollouts run in child
    processes would count no steps and skip its rollout checks. A pool
    needs a declared change to the benchmark first.
    """
    # Every network is built and checked against the policy before the
    # first rollout, so a label that does not fit the grid, or a policy
    # that does not fit a network, fails before any work is done.
    networks = {label: build_network(spec, label) for label in spec.configs}
    for net in networks.values():
        check_policy_fits(policy, net)
    results: list[ResultRow] = []
    for cell_index, label, rate, demand in spec.cells():
        net = networks[label]
        schedule = DemandSchedule(total_vehicles=demand,
                                  horizon=spec.duration,
                                  rv_penetration=rate,
                                  axis_bias=spec.axis_bias)
        for k in range(spec.rollouts):
            seed = spec.base_seed + cell_index * spec.rollouts + k
            _, summary = run_rollout(net, schedule, policy, seed,
                                     spec.duration, engine_config,
                                     log_decisions=False)
            rate_value = (collision_rate(summary.collided, summary.departed)
                          if summary.departed > 0 else float("nan"))
            results.append(ResultRow(
                config=label, rv_rate=rate, demand=demand,
                left_turns_removed=spec.remove_lefts, seed=seed,
                n_departed=summary.departed, n_collided=summary.collided,
                collision_rate=rate_value))
            if progress is not None:
                progress(cell_index, label, rate, demand, seed)
    return results


def summarize(rows) -> dict[tuple, CellSummary]:
    """Group rows by cell and aggregate; keys are (config, rv_rate, demand,
    left_turns_removed) in first-seen (canonical) order."""
    grouped: dict[tuple, list[ResultRow]] = {}
    for row in rows:
        key = (row.config, row.rv_rate, row.demand, row.left_turns_removed)
        grouped.setdefault(key, []).append(row)
    return {key: aggregate(cell_rows) for key, cell_rows in grouped.items()}


def write_results_csv(rows, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(",".join(RESULT_COLUMNS) + "\n")
        for r in rows:
            f.write(f"{r.config},{r.rv_rate:g},{r.demand},"
                    f"{int(r.left_turns_removed)},{r.seed},"
                    f"{r.n_departed},{r.n_collided},{r.collision_rate:.6f}\n")


def write_summary_csv(rows, path) -> dict[tuple, CellSummary]:
    """Table-shaped summary: one block per (demand, transform) with config
    labels as columns and RV rates as rows; cells are mean±std percent."""
    cells = summarize(rows)
    configs = list(dict.fromkeys(r.config for r in rows))
    rates = sorted({r.rv_rate for r in rows})
    blocks = list(dict.fromkeys((r.demand, r.left_turns_removed) for r in rows))
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("demand,left_turns_removed,rv_rate,"
                + ",".join(configs) + "\n")
        for demand, removed in blocks:
            for rate in rates:
                out = [str(demand), str(int(removed)), f"{rate:g}"]
                for label in configs:
                    cell = cells.get((label, rate, demand, removed))
                    if cell is None:
                        out.append("")
                    else:
                        out.append(f"{format_percent(cell.mean)}"
                                   f"±{format_percent(cell.std)}")
                f.write(",".join(out) + "\n")
    return cells
