"""Behaviour lock: SHA-256 digests of fixed rollouts and one tiny training run.

A refactor must leave every digest unchanged: the event logs (decision rows
included), the training curve and the checkpoint's parameters stay
byte-identical. A change that alters behaviour on purpose records the new
digests here and says why in CHANGES.md.
"""

import hashlib

import numpy as np
import pytest

from stopgo.cli import run
from stopgo.engine import (DemandSchedule, EngineConfig, RandomPolicy,
                           run_rollout, write_events_csv)
from stopgo.netmodel import GridGeometry, generate_grid, remove_left_turns
from stopgo.rainbow import Learner

# name: (unsignalized, signalized, rows, cols, remove lefts, demand,
#        horizon, rv rate, seed, duration, all_red)
ROLLOUTS = {
    "12U+2S-demand120": (12, 2, 2, 7, False, 120, 1000.0, 0.6, 1, 1000.0, 0.0),
    "4U+10S-no-lefts": (4, 10, 2, 7, True, 120, 1000.0, 0.6, 2, 1000.0, 0.0),
    "0U+14S-demand600": (0, 14, 2, 7, False, 600, 1000.0, 0.6, 3, 200.0, 0.0),
    "1S-all-red-2": (0, 1, 1, 1, False, 120, 300.0, 0.0, 4, 400.0, 2.0),
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
    "training_curve.csv":
        "02f925c71520efc031f3a15967d659ec5264030d6c07c4f0dcdaed4b23de3c62",
    "checkpoint-params":
        "312e87320be86871bae5622d062d268e1ddf8b635ef57a69f70afc5490cea5b2",
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


@pytest.mark.parametrize("name", sorted(ROLLOUTS))
def test_event_log_digest(name, tmp_path):
    (u, s, rows, cols, no_lefts, demand, horizon, rv_rate, seed, duration,
     all_red) = ROLLOUTS[name]
    net = generate_grid(u, s, GridGeometry(rows=rows, cols=cols))
    if no_lefts:
        net = remove_left_turns(net)
    schedule = DemandSchedule(total_vehicles=demand, horizon=horizon,
                              rv_penetration=rv_rate)
    events, _ = run_rollout(net, schedule, RandomPolicy(), seed, duration,
                            EngineConfig(all_red=all_red), log_decisions=True)
    path = tmp_path / "events.csv"
    write_events_csv(events, path)
    assert _sha256(path.read_bytes()) == DIGESTS[name]


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
