import re
from pathlib import Path

import numpy as np
import pytest

from stopgo.cli import config_keys, run
from stopgo.netmodel import load_network
from stopgo.rainbow import Learner, LearnerConfig

FAST_TRAIN_CFG = """\
hidden = 16
atoms = 11
batch_size = 8
warmup = 16
episodes = 2
demand = 15
duration = 50
rv_rate = 0.8
"""


def _netgen(tmp_path, name="net.txt", unsignalized=1, signalized=0,
            rows=1, cols=1):
    path = tmp_path / name
    code = run(["netgen", "--unsignalized", str(unsignalized),
                "--signalized", str(signalized), "--rows", str(rows),
                "--cols", str(cols), "--out", str(path)])
    assert code == 0
    return path


def test_netgen_writes_loadable_network(tmp_path, capsys):
    path = _netgen(tmp_path, unsignalized=1, signalized=1, rows=1, cols=2)
    net = load_network(path)
    assert len(net.intersections) == 2
    assert "2 intersections" in capsys.readouterr().out


def test_transform_removes_left_turns(tmp_path):
    src = _netgen(tmp_path)
    dst = tmp_path / "nolefts.txt"
    assert run(["transform", "--no-left-turns", "--in", str(src),
                "--out", str(dst)]) == 0
    out = load_network(dst)
    assert all(m.turn != "left" for m in out.movements)
    again = tmp_path / "again.txt"
    assert run(["transform", "--no-left-turns", "--in", str(dst),
                "--out", str(again)]) == 0
    assert dst.read_bytes() == again.read_bytes()


def test_transform_without_selection_is_usage_error(tmp_path):
    src = _netgen(tmp_path)
    assert run(["transform", "--in", str(src),
                "--out", str(tmp_path / "o.txt")]) == 1


def test_simulate_writes_events_and_summary(tmp_path):
    net = _netgen(tmp_path)
    events = tmp_path / "events.csv"
    summary = tmp_path / "summary.txt"
    code = run(["simulate", "--network", str(net), "--demand", "10",
                "--rv-rate", "0.5", "--policy", "random", "--seed", "3",
                "--duration", "120", "--events", str(events),
                "--summary", str(summary)])
    assert code == 0
    assert events.read_text().startswith("time,event_type,")
    text = summary.read_text()
    assert "spawned = 10" in text
    assert "policy = random" in text


def test_simulate_same_seed_is_byte_identical(tmp_path):
    net = _netgen(tmp_path)
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for p in paths:
        assert run(["simulate", "--network", str(net), "--demand", "15",
                    "--rv-rate", "0.6", "--policy", "random", "--seed", "9",
                    "--duration", "150", "--events", str(p)]) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_simulate_flag_overrides_config_file(tmp_path, capsys):
    net = _netgen(tmp_path)
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("demand = 10\nduration = 120\npolicy = always-go\n")
    code = run(["simulate", "--network", str(net), "--demand", "5",
                "--config", str(cfg)])
    assert code == 0
    out = capsys.readouterr().out
    assert "demand = 5" in out
    assert "policy = always-go" in out


def test_simulate_requires_demand(tmp_path):
    net = _netgen(tmp_path)
    assert run(["simulate", "--network", str(net)]) == 1


# Engine settings that are now constants: keys no subcommand reads.
RETIRED_ENGINE_KEYS = {"vehicle_length", "gap_accept_tta", "engage_range",
                       "control_zone", "decision_period"}


@pytest.mark.parametrize("line,key", [("dt = 0", "dt"),
                                      ("zone_length = 500", "zone_length"),
                                      ("zone_length = 0", "zone_length"),
                                      ("zone_length = -3", "zone_length"),
                                      ("horizon = -50", "horizon"),
                                      ("axis_bias = -1", "axis_bias"),
                                      ("control_zone = -1", "control_zone"),
                                      ("vehicle_length = 0", "vehicle_length"),
                                      ("vehicle_length = -5",
                                       "vehicle_length"),
                                      ("all_red = -1", "all_red"),
                                      ("all_red = 15", "all_red"),
                                      ("engage_range = -1", "engage_range"),
                                      ("gap_accept_tta = -1",
                                       "gap_accept_tta"),
                                      ("collision_dwell = -5",
                                       "collision_dwell"),
                                      ("decision_period = 0",
                                       "decision_period"),
                                      ("decision_period = -3",
                                       "decision_period")])
def test_simulate_rejects_bad_engine_setting(tmp_path, capsys, line, key):
    # One signalized junction (four 15 s phases), so that an all_red as
    # long as a phase reaches a signal plan.
    net = _netgen(tmp_path, unsignalized=0, signalized=1)
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(line + "\n")
    assert run(["simulate", "--network", str(net), "--demand", "10",
                "--duration", "50", "--config", str(cfg)]) == 2
    expected = (f"unknown config key {key!r}" if key in RETIRED_ENGINE_KEYS
                else f"{key} ")
    assert expected in capsys.readouterr().err


def test_sweep_rejects_zero_duration(tmp_path, capsys):
    spec = tmp_path / "sweep.cfg"
    spec.write_text("configs = 1U+0S\nrv_rates = 0.5\ndemands = 5\n"
                    "rows = 1\ncols = 1\nduration = 0\n")
    out = tmp_path / "r.csv"
    assert run(["sweep", "--spec", str(spec), "--policy", "random",
                "--out", str(out), "--quiet"]) == 2
    assert ": duration must be > 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("lines,name", [
    ("configs = 1U+0S\nrv_rates = 0.25, 1.5\ndemands = 5\n", "rv_rates"),
    ("configs = 1U+0S\nrv_rates = 0.5\ndemands = 5, 0\n", "demands"),
    ("configs = 1U+0S, 2U+0S\nrv_rates = 0.5\ndemands = 5\n", "2U+0S"),
], ids=["rv_rates", "demands", "label"])
def test_sweep_rejects_bad_spec_before_any_rollout(tmp_path, capsys, lines,
                                                   name):
    spec = tmp_path / "sweep.cfg"
    spec.write_text(lines + "rollouts = 1\nrows = 1\ncols = 1\n"
                    "duration = 30\n")
    out = tmp_path / "r.csv"
    assert run(["sweep", "--spec", str(spec), "--policy", "random",
                "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert name in captured.err
    assert "cell" not in captured.out
    assert not out.exists()


@pytest.mark.parametrize("key", ["alpha", "beta_penalty"])
def test_simulate_rejects_reward_keys(tmp_path, capsys, key):
    # A rollout's outputs do not depend on the reward weights.
    net = _netgen(tmp_path)
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(f"{key} = 2\n")
    assert run(["simulate", "--network", str(net), "--demand", "10",
                "--duration", "50", "--config", str(cfg)]) == 2
    assert f"unknown config key {key!r}" in capsys.readouterr().err


HAND_WRITTEN_NETWORK = """\
[intersection]
id = J
control = unsignalized

[lane]
id = In
length = 100
speed_limit = 13.9
downstream = J

[lane]
id = Out
length = 100
speed_limit = 13.9

[movement]
id = M
from = In
to = Out
turn = straight

[route]
id = R
lanes = In, Out
"""


def test_simulate_runs_a_network_with_free_lane_ids(tmp_path):
    # Lane ids outside the grid generator's L_{u}_{v} convention weigh 1
    # in the route draw.
    net = tmp_path / "net.txt"
    net.write_text(HAND_WRITTEN_NETWORK)
    events = tmp_path / "events.csv"
    assert run(["simulate", "--network", str(net), "--demand", "10",
                "--rv-rate", "0.5", "--duration", "50",
                "--events", str(events),
                "--summary", str(tmp_path / "s.txt")]) == 0
    rows = events.read_text().splitlines()
    assert rows[1] == "2.5,Spawn,V000000,In,kind=RV;route=R"
    assert any(",Departure," in row for row in rows)


@pytest.mark.parametrize("flags,key", [
    (["--demand", "0"], "demand"),
    (["--demand", "10", "--rv-rate", "1.5"], "rv_rate"),
])
def test_simulate_error_names_the_key(tmp_path, capsys, flags, key):
    net = _netgen(tmp_path)
    assert run(["simulate", "--network", str(net), "--duration", "50",
                *flags]) == 2
    assert f": {key} must be" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value,name", [
    ("--cycle", "nan", "intersection 'J1' phase 0 has duration nan"),
    ("--cycle", "inf", "intersection 'J1' phase 0 has duration inf"),
    ("--block-length", "nan", "lane 'L_J1_J0' has length nan"),
    ("--stub-length", "inf", "lane 'L_BN0x0_J0' has length inf"),
    ("--speed-limit", "inf", "lane 'L_BN0x0_J0' has speed limit inf"),
])
def test_netgen_rejects_non_finite_geometry(tmp_path, capsys, flag, value,
                                            name):
    out = tmp_path / "net.txt"
    assert run(["netgen", "--unsignalized", "1", "--signalized", "1",
                "--rows", "1", "--cols", "2", "--out", str(out),
                f"{flag}={value}"]) == 2
    assert f"{name}, not a positive finite number" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags,config,key", [
    (["--duration", "inf"], "", "duration"),
    (["--duration", "nan"], "", "duration"),
    (["--rv-rate", "nan"], "", "rv_rate"),
    ([], "horizon = inf", "horizon"),
    ([], "all_red = nan", "all_red"),
    ([], "dt = inf", "dt"),
])
def test_simulate_rejects_non_finite_numbers(tmp_path, capsys, flags, config,
                                             key):
    net = _netgen(tmp_path)
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(config + "\n")
    events, summary = tmp_path / "events.csv", tmp_path / "summary.txt"
    assert run(["simulate", "--network", str(net), "--demand", "10",
                "--config", str(cfg), "--events", str(events),
                "--summary", str(summary), *flags]) == 2
    assert f": {key} must be finite, got " in capsys.readouterr().err
    assert not events.exists() and not summary.exists()


@pytest.mark.parametrize("line,key", [("duration = inf", "duration"),
                                      ("rv_rates = 0.5, nan", "rv_rates"),
                                      ("axis_bias = nan", "axis_bias")])
def test_sweep_rejects_non_finite_numbers(tmp_path, capsys, line, key):
    spec = tmp_path / "sweep.cfg"
    spec.write_text("configs = 1U+0S\nrv_rates = 0.5\ndemands = 5\n"
                    "rows = 1\ncols = 1\nduration = 30\n")
    name = line.split(" = ")[0]
    spec.write_text("\n".join(l for l in spec.read_text().splitlines()
                              if not l.startswith(name + " ")) + "\n" + line)
    out = tmp_path / "r.csv"
    assert run(["sweep", "--spec", str(spec), "--policy", "random",
                "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert f": {key} must be finite, got " in captured.err
    assert "cell" not in captured.out
    assert not out.exists()


def test_train_writes_checkpoint_then_simulate_uses_it(tmp_path):
    net = _netgen(tmp_path)
    cfg = tmp_path / "train.cfg"
    cfg.write_text(FAST_TRAIN_CFG)
    ckpt_dir = tmp_path / "ck"
    code = run(["train", "--network", str(net), "--checkpoint", str(ckpt_dir),
                "--config", str(cfg), "--seed", "1", "--quiet"])
    assert code == 0
    assert (ckpt_dir / "checkpoint.npz").exists()
    assert (ckpt_dir / "training_curve.csv").exists()
    learner = Learner.load(ckpt_dir / "checkpoint.npz")
    assert learner.episodes_done == 2
    assert learner.config.hidden == (16,)
    code = run(["simulate", "--network", str(net), "--demand", "8",
                "--rv-rate", "0.5", "--policy", str(ckpt_dir),
                "--seed", "2", "--duration", "100",
                "--summary", str(tmp_path / "s.txt")])
    assert code == 0


def test_train_resume_extends_episodes(tmp_path):
    net = _netgen(tmp_path)
    cfg = tmp_path / "train.cfg"
    cfg.write_text(FAST_TRAIN_CFG)
    ckpt_dir = tmp_path / "ck"
    assert run(["train", "--network", str(net), "--checkpoint", str(ckpt_dir),
                "--config", str(cfg), "--seed", "1", "--quiet"]) == 0
    cfg.write_text(FAST_TRAIN_CFG.replace("episodes = 2", "episodes = 3"))
    assert run(["train", "--network", str(net), "--checkpoint", str(ckpt_dir),
                "--config", str(cfg), "--seed", "1", "--quiet",
                "--resume"]) == 0
    learner = Learner.load(ckpt_dir / "checkpoint.npz")
    assert learner.episodes_done == 3


def test_sweep_runs_spec_and_writes_csvs(tmp_path):
    spec = tmp_path / "sweep.cfg"
    spec.write_text(
        "configs = 2U+0S, 0U+2S\n"
        "rv_rates = 0.4, 0.8\n"
        "demands = 12\n"
        "rollouts = 2\n"
        "base_seed = 5\n"
        "duration = 90\n"
        "rows = 1\n"
        "cols = 2\n")
    out = tmp_path / "results.csv"
    summary = tmp_path / "cells.csv"
    code = run(["sweep", "--spec", str(spec), "--policy", "random",
                "--out", str(out), "--summary", str(summary), "--quiet"])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 9  # header + 2 configs x 2 rates x 2 rollouts
    assert summary.read_text().count("\n") == 3  # header + one row per rate


def test_usage_errors_exit_1():
    assert run([]) == 1
    assert run(["frobnicate"]) == 1
    assert run(["netgen", "--unsignalized", "1"]) == 1


def test_runtime_errors_exit_2(tmp_path):
    assert run(["simulate", "--network", str(tmp_path / "missing.txt"),
                "--demand", "5"]) == 2
    bad = tmp_path / "bad.txt"
    bad.write_text("[lane]\nid only garbage\n")
    assert run(["simulate", "--network", str(bad), "--demand", "5"]) == 2
    spec = tmp_path / "sweep.cfg"
    spec.write_text("configs = 9U+9S\nrv_rates = 0.4\ndemands = 5\n"
                    "rollouts = 1\nrows = 1\ncols = 2\nduration = 30\n")
    assert run(["sweep", "--spec", str(spec), "--policy", "random",
                "--out", str(tmp_path / "r.csv")]) == 2


def test_netgen_rejects_impossible_grid(tmp_path):
    assert run(["netgen", "--unsignalized", "5", "--signalized", "0",
                "--rows", "1", "--cols", "2",
                "--out", str(tmp_path / "x.txt")]) == 2


@pytest.mark.parametrize("line,key", [("hidden = 16,abc", "hidden"),
                                      ("learning_rat = 0.1", "learning_rat"),
                                      ("demand = 0", "demand"),
                                      ("duration = -5", "duration"),
                                      ("duration = nan",
                                       "duration must be finite"),
                                      ("rv_rate = inf",
                                       "rv_rate must be finite"),
                                      ("hidden = 0", "hidden must be"),
                                      ("hidden = ", "hidden must be"),
                                      ("atoms = 0", "atoms must be >= 1"),
                                      ("alpha = 2",
                                       "unknown config key 'alpha'"),
                                      ("beta_penalty = 2",
                                       "unknown config key 'beta_penalty'"),
                                      ("gamma = 0.9",
                                       "unknown config key 'gamma'"),
                                      ("learning_rate = 0.1",
                                       "unknown config key 'learning_rate'"),
                                      ("target_sync = 3",
                                       "unknown config key 'target_sync'")])
def test_train_config_error_names_the_key(tmp_path, capsys, line, key):
    net = _netgen(tmp_path)
    cfg = tmp_path / "train.cfg"
    # Replace the line that sets the same key (the hidden line for a key the
    # config lacks): a second line for one key is an error of its own.
    name = line.split(" = ")[0]
    old = next((l for l in FAST_TRAIN_CFG.splitlines()
                if l.startswith(name + " = ")), "hidden = 16")
    cfg.write_text(FAST_TRAIN_CFG.replace(old, line))
    assert cfg.read_text().count(name + " = ") == 1
    ckpt_dir = tmp_path / "ck"
    assert run(["train", "--network", str(net), "--checkpoint", str(ckpt_dir),
                "--config", str(cfg), "--quiet"]) == 2
    assert key in capsys.readouterr().err
    assert not ckpt_dir.exists()


def _checkpoint(tmp_path, obs_dim):
    path = tmp_path / f"ck{obs_dim}.npz"
    Learner(obs_dim, LearnerConfig(hidden=(16,), atoms=11), seed=1).save(path)
    return path


def _t_junction(tmp_path):
    """The 1U grid without its north approach: three incoming lanes."""
    blocks = _netgen(tmp_path).read_text().split("\n\n")
    path = tmp_path / "t.txt"
    path.write_text("\n\n".join(b for b in blocks if "L_BN0x0_J0" not in b
                                  and "M_J0_n_" not in b))
    return path


def test_simulate_rejects_a_checkpoint_of_another_observation_length(
        tmp_path, capsys):
    events = tmp_path / "e.csv"
    assert run(["simulate", "--network", str(_t_junction(tmp_path)),
                "--demand", "60", "--rv-rate", "0.6", "--duration", "100",
                "--policy", str(_checkpoint(tmp_path, 12)),
                "--events", str(events)]) == 2
    err = capsys.readouterr().err
    assert "intersection J0 gives observations of length 9, " \
           "the policy reads 12" in err
    assert not events.exists()


def test_sweep_rejects_a_checkpoint_of_another_observation_length(
        tmp_path, capsys):
    spec = tmp_path / "sweep.cfg"
    # The fully signalized config comes first and has nothing to check.
    spec.write_text("configs = 0U+2S, 2U+0S\nrv_rates = 0.5\ndemands = 5\n"
                    "rollouts = 1\nrows = 1\ncols = 2\nduration = 30\n")
    out = tmp_path / "r.csv"
    assert run(["sweep", "--spec", str(spec), "--out", str(out),
                "--policy", str(_checkpoint(tmp_path, 9))]) == 2
    captured = capsys.readouterr()
    assert "gives observations of length 12, the policy reads 9" \
        in captured.err
    assert "cell" not in captured.out
    assert not out.exists()


@pytest.mark.parametrize("fault", ["truncated", "text", "renamed_entry"])
@pytest.mark.parametrize("command", ["simulate", "train"])
def test_unreadable_checkpoint_fails_naming_the_file(tmp_path, capsys,
                                                     command, fault):
    net = _netgen(tmp_path)
    ckpt_dir = tmp_path / "ck"
    ckpt_dir.mkdir()
    path = ckpt_dir / "checkpoint.npz"
    if fault == "truncated":
        whole = _checkpoint(tmp_path, 12).read_bytes()
        path.write_bytes(whole[:len(whole) // 2])
    elif fault == "text":
        path.write_text("not a checkpoint\n")
    else:
        # One parameter's entry under another name: every array still reads.
        with np.load(_checkpoint(tmp_path, 12)) as data:
            arrays = {k.replace("online/bv", "online/bq"): data[k]
                      for k in data.files}
        np.savez(path, **arrays)
    if command == "simulate":
        argv = ["simulate", "--network", str(net), "--demand", "10",
                "--policy", str(path)]
    else:
        cfg = tmp_path / "train.cfg"
        cfg.write_text(FAST_TRAIN_CFG)
        argv = ["train", "--network", str(net), "--checkpoint", str(ckpt_dir),
                "--config", str(cfg), "--quiet", "--resume"]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert f"{path} is not a readable checkpoint" in err
    assert "Traceback" not in err
    assert not (ckpt_dir / "training_curve.csv").exists()


@pytest.mark.parametrize("obs_dim", [9, 12])
def test_checkpoint_runs_on_a_network_without_unsignalized_junctions(
        tmp_path, obs_dim):
    net = _netgen(tmp_path, unsignalized=0, signalized=1)
    assert run(["simulate", "--network", str(net), "--demand", "20",
                "--rv-rate", "0.6", "--duration", "60",
                "--policy", str(_checkpoint(tmp_path, obs_dim)),
                "--summary", str(tmp_path / "s.txt")]) == 0


def _readme_config_keys() -> dict[str, set[str]]:
    """The README's "Config files" bullets: `(commands): keys`."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    section = readme.read_text().split("## Config files", 1)[1]
    section = section.split("\n## ", 1)[0]
    keys: dict[str, set[str]] = {}
    for item in section.split("\n- ")[1:]:
        head, _, body = item.split("\n\n", 1)[0].partition(":")
        for command in re.findall(r"`(\w+)`", head):
            keys.setdefault(command, set()).update(re.findall(r"`(\w+)`", body))
    return keys


def test_readme_lists_the_config_keys_each_subcommand_reads():
    assert _readme_config_keys() == {
        command: config_keys(command)
        for command in ("train", "simulate", "sweep")}
