import csv
import math

import pytest

from stopgo.engine import RandomPolicy
from stopgo.metrics import (
    CellSummary,
    ExperimentSpec,
    MetricError,
    ResultRow,
    aggregate,
    build_network,
    collision_rate,
    format_percent,
    parse_config_label,
    run_sweep,
    summarize,
    write_results_csv,
    write_summary_csv,
)


def test_collision_rate_exact_on_integers():
    assert collision_rate(7, 100) == 0.07
    assert collision_rate(0, 50) == 0.0
    assert collision_rate(3, 8) == 0.375


def test_collision_rate_requires_departures():
    with pytest.raises(MetricError):
        collision_rate(1, 0)
    with pytest.raises(MetricError):
        collision_rate(1, -5)


def test_format_percent():
    assert format_percent(0.0753) == "7.530%"
    assert format_percent(0.0) == "0.000%"


def test_config_label_round_trip():
    assert parse_config_label("12U+2S") == (12, 2)
    assert parse_config_label("0U+14S") == (0, 14)
    with pytest.raises(MetricError):
        parse_config_label("12U-2S")


def _row(config="2U+0S", rate=0.6, demand=50, seed=0, departed=40, collided=4):
    return ResultRow(config=config, rv_rate=rate, demand=demand,
                     left_turns_removed=False, seed=seed,
                     n_departed=departed, n_collided=collided,
                     collision_rate=collided / departed)


def test_aggregate_matches_streaming_recomputation(rng):
    rates = rng.uniform(0.0, 0.4, size=20)
    rows = [_row(seed=i, departed=100, collided=0) for i in range(20)]
    rows = [ResultRow(config=r.config, rv_rate=r.rv_rate, demand=r.demand,
                      left_turns_removed=r.left_turns_removed, seed=r.seed,
                      n_departed=r.n_departed, n_collided=r.n_collided,
                      collision_rate=float(rate))
            for r, rate in zip(rows, rates)]
    cell = aggregate(rows)
    # independent streaming mean/variance (Welford)
    mean, m2 = 0.0, 0.0
    for n, x in enumerate(rates, start=1):
        delta = x - mean
        mean += delta / n
        m2 += delta * (x - mean)
    std = math.sqrt(m2 / (len(rates) - 1))
    assert cell.mean == pytest.approx(mean, abs=1e-12)
    assert cell.std == pytest.approx(std, abs=1e-12)
    assert cell.low == pytest.approx(min(rates))
    assert cell.high == pytest.approx(max(rates))
    assert cell.count == 20


def test_aggregate_single_row():
    cell = aggregate([_row()])
    assert cell.mean == pytest.approx(0.1)
    assert cell.std == 0.0
    assert cell.count == 1


def test_aggregate_rejects_mixed_cells():
    with pytest.raises(MetricError):
        aggregate([_row(config="2U+0S"), _row(config="0U+2S")])
    with pytest.raises(MetricError):
        aggregate([])


def test_cells_enumerate_in_canonical_order():
    spec = ExperimentSpec(configs=("2U+0S", "0U+2S"), rv_rates=(0.25, 0.6),
                          demands=(50,), rollouts=1, rows=1, cols=2)
    assert list(spec.cells()) == [
        (0, "2U+0S", 0.25, 50), (1, "2U+0S", 0.6, 50),
        (2, "0U+2S", 0.25, 50), (3, "0U+2S", 0.6, 50)]


def test_build_network_applies_config_label():
    spec = ExperimentSpec(configs=("1U+1S",), rv_rates=(0.5,), demands=(20,),
                          rows=1, cols=2)
    net = build_network(spec, "1U+1S")
    controls = sorted(i.control for i in net.intersections)
    assert controls == ["signalized", "unsignalized"]


def test_build_network_rejects_wrong_total():
    from stopgo.netmodel import NetworkError

    spec = ExperimentSpec(configs=("3U+0S",), rv_rates=(0.5,), demands=(20,),
                          rows=1, cols=2)
    with pytest.raises(NetworkError):
        build_network(spec, "3U+0S")
    with pytest.raises(NetworkError):
        build_network(spec, "1U+0S")


def _tiny_spec(**overrides):
    base = dict(configs=("2U+0S", "0U+2S"), rv_rates=(0.4, 0.8),
                demands=(15,), rollouts=2, base_seed=100, duration=120.0,
                rows=1, cols=2)
    base.update(overrides)
    return ExperimentSpec(**base)


def test_run_sweep_rows_and_seed_layout():
    spec = _tiny_spec()
    rows = run_sweep(spec, RandomPolicy())
    assert len(rows) == 8
    expected_cells = list(spec.cells())
    for i, row in enumerate(rows):
        k = i % spec.rollouts
        cell_index, label, rate, demand = expected_cells[i // spec.rollouts]
        assert (row.config, row.rv_rate, row.demand) == (label, rate, demand)
        assert row.seed == spec.base_seed + cell_index * spec.rollouts + k
        if row.n_departed > 0:
            assert row.collision_rate == pytest.approx(
                row.n_collided / row.n_departed)
        else:
            assert math.isnan(row.collision_rate)


def test_run_sweep_is_reproducible():
    spec = _tiny_spec(rv_rates=(0.5,), configs=("2U+0S",))
    first = run_sweep(spec, RandomPolicy())
    second = run_sweep(spec, RandomPolicy())
    assert first == second


def test_summarize_groups_by_cell():
    rows = [_row(rate=0.25, seed=s) for s in range(3)]
    rows += [_row(rate=0.6, seed=s, collided=8) for s in range(3)]
    cells = summarize(rows)
    assert len(cells) == 2
    for key, cell in cells.items():
        assert isinstance(cell, CellSummary)
        assert cell.count == 3


def test_results_csv_round_trip(tmp_path):
    rows = [_row(seed=s) for s in range(3)]
    path = tmp_path / "results.csv"
    write_results_csv(rows, path)
    with open(path, newline="") as f:
        read = list(csv.DictReader(f))
    assert len(read) == 3
    assert read[0]["config"] == "2U+0S"
    assert int(read[1]["seed"]) == 1
    assert float(read[2]["collision_rate"]) == pytest.approx(0.1)


def test_summary_csv_is_table_shaped(tmp_path):
    rows = []
    for config in ("2U+0S", "0U+2S"):
        for rate in (0.25, 0.6):
            for seed in range(3):
                rows.append(_row(config=config, rate=rate, seed=seed,
                                 collided=2 + seed))
    path = tmp_path / "summary.csv"
    cells = write_summary_csv(rows, path)
    assert len(cells) == 4
    lines = path.read_text().splitlines()
    assert lines[0] == "demand,left_turns_removed,rv_rate,2U+0S,0U+2S"
    assert len(lines) == 3  # header + one row per rate
    for line, rate in zip(lines[1:], ("0.25", "0.6")):
        fields = line.split(",")
        assert fields[:3] == ["50", "0", rate]
        assert all("%±" in cell for cell in fields[3:])
