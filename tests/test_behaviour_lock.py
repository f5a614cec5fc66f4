"""Behaviour lock: SHA-256 digests of fixed rollouts, generated networks and
one tiny training run.

A refactor must leave every digest unchanged: the event logs (decision rows
included), the serialized networks (routes included), the training curve and
the checkpoint's parameters stay byte-identical. A change that alters
behaviour on purpose records the new digests here and says why in CHANGES.md.

Beside each event-log digest the lock pins the counts the log implies, and
beside the training digests the curve's last row. They are compared first,
so that a failure says what moved, e.g. `Collision kind=Crossing 53 → 61`.
"""

import hashlib
from collections import Counter

import numpy as np
import pytest

from stopgo.cli import run
from stopgo.engine import (DemandSchedule, EngineConfig, RandomPolicy,
                           run_rollout, write_events_csv)
from stopgo.netmodel import (GridGeometry, generate_grid, remove_left_turns,
                             serialize_network)
from stopgo.rainbow import Learner

# name: (unsignalized, signalized, rows, cols, remove lefts, demand,
#        horizon, rv rate, seed, duration, all_red, speed limit, cycle)
ROLLOUTS = {
    "12U+2S-demand120": (12, 2, 2, 7, False, 120, 1000.0, 0.6, 1, 1000.0, 0.0,
                         13.9, 60.0),
    "4U+10S-no-lefts": (4, 10, 2, 7, True, 120, 1000.0, 0.6, 2, 1000.0, 0.0,
                        13.9, 60.0),
    "0U+14S-demand600": (0, 14, 2, 7, False, 600, 1000.0, 0.6, 3, 200.0, 0.0,
                         13.9, 60.0),
    "1S-all-red-2": (0, 1, 1, 1, False, 120, 300.0, 0.0, 4, 400.0, 2.0, 13.9,
                     60.0),
    # Hundreds of vehicles queue at merges: 53 Crossing collisions and 93
    # dwell removals in 300 s.
    "12U+2S-demand1200": (12, 2, 2, 7, False, 1200, 1000.0, 0.6, 1, 300.0,
                          0.0, 13.9, 60.0),
    # Every lane is slower than the IDM desired speed, so vehicles spawn and
    # drive at the speed limit.
    "1U+1S-speed-limit-10": (1, 1, 1, 2, False, 120, 400.0, 0.6, 5, 400.0,
                             0.0, 10.0, 60.0),
    # A 47.3 s cycle makes 11.825 s phases and all_red 1.05 s tails, so no
    # phase boundary falls on the 0.1 s step grid.
    "4U+10S-cycle-47.3": (4, 10, 2, 7, False, 300, 1000.0, 0.6, 7, 600.0,
                          1.05, 13.9, 47.3),
}

# name: (unsignalized, signalized, rows, cols); each is locked with and
# without left turns.
NETWORKS = {
    "12U+2S": (12, 2, 2, 7),
    "10U+4S": (10, 4, 2, 7),
    "8U+6S": (8, 6, 2, 7),
    "6U+8S": (6, 8, 2, 7),
    "4U+10S": (4, 10, 2, 7),
    "5U+4S-3x3": (5, 4, 3, 3),
}

DIGESTS = {
    "12U+2S-demand120":
        "5ed1ae14660b131145aa394fd399afa541918b3630d0d25c830f2e215762f2b2",
    "4U+10S-no-lefts":
        "6ec1d815e38938cafca398c264ae74abc4f90cbca8f3cd49b5c9d2d53b5deeef",
    "0U+14S-demand600":
        "bcd986f5ac591a51a92b8f6fc2778201032b89c1aefa93b732d200189f892dfe",
    "1S-all-red-2":
        "6293693cf3d273f729a3cf1cef54aa0ac64ea06aab57a340b3b696eb130057ba",
    "12U+2S-demand1200":
        "64d9c3ba179bae8ea18c4d86ae472f402b816600d56298288594e6d1ec8614bc",
    "1U+1S-speed-limit-10":
        "df41c56ad523d0c985030e129d270bf6671db6b34c9b75233217b061ceb9569d",
    "4U+10S-cycle-47.3":
        "3d3db3bf1e5dc36a2e216f0d738d9cb1414f5f76e3d76bb6698786e5a9c0a567",
    "training_curve.csv":
        "02f925c71520efc031f3a15967d659ec5264030d6c07c4f0dcdaed4b23de3c62",
    "checkpoint-params":
        "312e87320be86871bae5622d062d268e1ddf8b635ef57a69f70afc5490cea5b2",
}

COUNT_KEYS = ("Spawn", "Departure", "Decision action=Go",
              "Decision action=Stop", "Collision kind=Crossing",
              "Collision kind=RearEnd", "collided vehicles")

# name: the count of each of COUNT_KEYS in the rollout's event log.
COUNTS = {
    "12U+2S-demand120": (120, 102, 723, 724, 3, 0, 6),
    "4U+10S-no-lefts": (120, 98, 234, 205, 2, 0, 4),
    "0U+14S-demand600": (120, 30, 0, 0, 0, 0, 0),
    "1S-all-red-2": (117, 92, 0, 0, 0, 0, 0),
    "12U+2S-demand1200": (356, 116, 2068, 2043, 53, 0, 95),
    "1U+1S-speed-limit-10": (120, 65, 271, 244, 13, 1, 26),
    "4U+10S-cycle-47.3": (180, 121, 409, 405, 7, 0, 14),
}

CURVE_LAST_ROW = "1,80,-0.545312,3,0.0500,2.409464"

NETWORK_DIGESTS = {
    "12U+2S":
        "8125498e317fc07cc11ee092ca595b466e927bac4f0b6173ad7a724dbe957af8",
    "12U+2S-no-lefts":
        "c2d2700e9edf020f95fcee7d545febfae52541afb293bf5d80e7897b4e50af68",
    "10U+4S":
        "8b5f3ef5fd8ba63bd9f7586f4cfe04422e5662b248a13807452e5b2e78dbf47f",
    "10U+4S-no-lefts":
        "dee4415b4864504085b39f2e6098487612ae99e49f37143f86e99ac89171f7e8",
    "8U+6S":
        "73962318ece6796d22be320baf2a5da75f4c565e7a3b6ee35c8f3351078c05c1",
    "8U+6S-no-lefts":
        "cf8be77b7b790e55d4b0a4b3d7fc9f750d78a9dc265dfc028bdde2e158ece108",
    "6U+8S":
        "d52d8b4171124576de100d8fcc38e53f37ab42a1d95ee01bd646278b628a02b3",
    "6U+8S-no-lefts":
        "5386365f6c558f84523e19e2fabbcfd999e34750532b22fc2cf54c5f6aef94f9",
    "4U+10S":
        "7d2c9abd17fbf69d3549497789138df98b10814e62bcc81b2df0d60b0d713602",
    "4U+10S-no-lefts":
        "a7a2e3e6f46926531ae8384ecaf876161721e70a1aee6ec783e7e9ad702361dc",
    "5U+4S-3x3":
        "8c1f05f9b51f9c2d64bc328d27e0578571047e67fdb8d8601828f1a2889ffa3f",
    "5U+4S-3x3-no-lefts":
        "1b6bab223dbe2585332ffc18b3bae024995f256409308cd7b576fe447523fc52",
}

# The settings of FAST_TRAIN_CFG in test_cli.py, copied so that the lock's
# inputs stay fixed.
TRAIN_CFG = """\
hidden = 16
atoms = 11
batch_size = 8
warmup = 16
episodes = 2
demand = 15
duration = 50
rv_rate = 0.8
"""


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _event_counts(events) -> dict[str, int]:
    """The count of each of COUNT_KEYS: Spawn and Departure rows, Decision
    rows by action, Collision rows by kind, and distinct collided vehicles."""
    rows = Counter(e.event_type if e.event_type in ("Spawn", "Departure")
                   else f"{e.event_type} {e.extra}" for e in events)
    rows["collided vehicles"] = len({vid for e in events
                                     if e.event_type == "Collision"
                                     for vid in e.vehicle_ids})
    return {key: rows[key] for key in COUNT_KEYS}


def _assert_unmoved(expected: dict, got: dict) -> None:
    moved = [f"{key} {expected[key]} → {got[key]}" for key in expected
             if got[key] != expected[key]]
    assert not moved, ", ".join(moved)


@pytest.mark.parametrize("name", sorted(ROLLOUTS))
def test_event_log_digest(name, tmp_path):
    (u, s, rows, cols, no_lefts, demand, horizon, rv_rate, seed, duration,
     all_red, speed_limit, cycle) = ROLLOUTS[name]
    net = generate_grid(u, s, GridGeometry(rows=rows, cols=cols,
                                           speed_limit=speed_limit,
                                           cycle_length=cycle))
    if no_lefts:
        net = remove_left_turns(net)
    schedule = DemandSchedule(total_vehicles=demand, horizon=horizon,
                              rv_penetration=rv_rate)
    events, _ = run_rollout(net, schedule, RandomPolicy(), seed, duration,
                            EngineConfig(all_red=all_red), log_decisions=True)
    _assert_unmoved(dict(zip(COUNT_KEYS, COUNTS[name])), _event_counts(events))
    path = tmp_path / "events.csv"
    write_events_csv(events, path)
    assert _sha256(path.read_bytes()) == DIGESTS[name]


@pytest.mark.parametrize("no_lefts", [False, True])
@pytest.mark.parametrize("name", sorted(NETWORKS))
def test_network_digest(name, no_lefts):
    u, s, rows, cols = NETWORKS[name]
    net = generate_grid(u, s, GridGeometry(rows=rows, cols=cols))
    if no_lefts:
        net = remove_left_turns(net)
        name += "-no-lefts"
    text = serialize_network(net)
    assert _sha256(text.encode()) == NETWORK_DIGESTS[name]


def test_training_digests(tmp_path):
    net = tmp_path / "net.txt"
    assert run(["netgen", "--unsignalized", "1", "--signalized", "0",
                "--rows", "1", "--cols", "1", "--out", str(net)]) == 0
    cfg = tmp_path / "train.cfg"
    cfg.write_text(TRAIN_CFG)
    ckpt = tmp_path / "ck"
    assert run(["train", "--network", str(net), "--checkpoint", str(ckpt),
                "--config", str(cfg), "--seed", "1", "--quiet"]) == 0
    curve = (ckpt / "training_curve.csv").read_bytes()
    header, *_, last = curve.decode().splitlines()
    columns = header.split(",")
    _assert_unmoved(dict(zip(columns, CURVE_LAST_ROW.split(","))),
                    dict(zip(columns, last.split(","))))
    params = Learner.load(ckpt / "checkpoint.npz").params
    h = hashlib.sha256()
    for key in sorted(params):
        array = np.ascontiguousarray(params[key], dtype=np.float64)
        h.update(f"{key}:{array.shape}".encode())
        h.update(array.tobytes())
    assert {"training_curve.csv": _sha256(curve),
            "checkpoint-params": h.hexdigest()} == {
        "training_curve.csv": DIGESTS["training_curve.csv"],
        "checkpoint-params": DIGESTS["checkpoint-params"]}
