import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import rarecc.cli
import rarecc.experiments
from rarecc.cli import cli_main, load_config


def write_cfg(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def lt_cfg(tmp_path):
    return write_cfg(tmp_path / "lt.json", {
        "problem": {"c": [3.0, 2.0, 1.0], "h": 100.0,
                    "A": [[[1, 0, 0], [0, 2, 0], [0, 0, 4]]]},
        "tail": {"kind": "light", "beta": 0.5, "theta": 1.0},
        "experiment": {"kind": "cvar_ratio", "delta_grid": [0.01],
                       "replications": 1, "budget": 50000},
        "master_seed": 3,
    })


@pytest.fixture
def ht_cfg(tmp_path):
    return write_cfg(tmp_path / "ht.json", {
        "problem": {"c": [1.0, 1.0], "h": 100.0,
                    "A": [[[1.0, 0.0], [0.0, 1.0]]]},
        "tail": {"kind": "heavy", "alpha": 2.0,
                 "atoms": [[0.5, [1.0, 0.0]], [0.5, [0.0, 1.0]]]},
        "experiment": {"kind": "frechet_check", "k_grid": [200],
                       "replications": 50, "budget": 10000},
        "master_seed": 13,
    })


def test_lt_limit_json(lt_cfg, capsys):
    assert cli_main(["lt-limit", lt_cfg]) == 0
    out = json.loads(capsys.readouterr().out)
    assert set(out) == {"y_star", "value", "residual", "method", "gap"}
    assert out["method"] == "cut-loop" and 0.0 <= out["gap"] <= 1e-8
    assert np.allclose(out["y_star"], [1.0, 0.5, 0.25], rtol=1e-6)


def test_ht_limit_json(ht_cfg, capsys):
    assert cli_main(["ht-limit", ht_cfg]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["value"] == pytest.approx(2.0, rel=1e-8)


@pytest.mark.parametrize("command, tail", [
    ("lt-limit", {"kind": "light", "beta": 0.5, "theta": 1.0}),
    ("ht-limit", {"kind": "heavy", "alpha": 2.0,
                  "atoms": [[0.5, [1.0, 0.0]], [0.5, [0.0, 1.0]]]}),
])
def test_unbounded_limit_exit_1(tmp_path, capsys, command, tail):
    cfg = write_cfg(tmp_path / "unbounded.json", {
        "problem": {"c": [1.0, 1.0], "h": 10.0, "A": [[[1.0, 0.5], [0.0, 0.0]]]},
        "tail": tail,
    })
    assert cli_main([command, cfg]) == 1
    assert "error:" in capsys.readouterr().err


def test_missing_config_exit_2(capsys):
    assert cli_main(["lt-limit", "/nonexistent/cfg.json"]) == 2
    assert "/nonexistent/cfg.json" in capsys.readouterr().err


def test_malformed_json_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli_main(["experiment", str(bad)]) == 2


def test_config_not_utf8_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    assert cli_main(["lt-limit", str(bad)]) == 2
    err = capsys.readouterr().err
    assert str(bad) in err and "UTF-8" in err


def test_wrong_tail_kind_exit_2(lt_cfg):
    assert cli_main(["ht-limit", lt_cfg]) == 2


@pytest.mark.parametrize("command, sections, needle", [
    ("lt-limit", {"tail": {"kind": "heavy", "alpha": 2.0, "atoms": [[1.0, [0.5, 0.5]]]}},
     "lt-limit needs a light tail model"),
    ("lt-limit", {"tail": {"kind": "medium", "beta": 1.0}},
     "tail kind must be 'light' or 'heavy'"),
    ("ht-limit", {"tail": {"kind": "heavy", "alpha": 2.0}}, "heavy tail needs atoms when n >= 2"),
    ("lt-limit", {"tail": {"kind": "light", "theta": 1.0}},
     "a light tail needs beta in its tail section"),
    ("ht-limit", {"tail": {"kind": "heavy", "atoms": [[0.5, [1.0, 0.0]], [0.5, [0.0, 1.0]]]}},
     "a heavy tail needs alpha in its tail section"),
    ("lt-limit", {}, "a config needs a tail section"),
    ("lt-limit", {"problem": None, "tail": {"kind": "light", "beta": 0.5}},
     "a config needs a problem section"),
    ("lt-limit", {"tail": "light"}, "a config's tail section must be an object, got 'light'"),
], ids=["lt-limit-on-heavy", "unknown-kind", "missing-atoms", "missing-beta", "missing-alpha",
        "missing-tail", "missing-problem", "tail-not-an-object"])
def test_tail_config_exit_2(tmp_path, capsys, command, sections, needle):
    # the problem is the 2 x 2 identity unless a case leaves it out (None)
    raw = {"problem": {"c": [1.0, 1.0], "h": 10.0, "A": [[[1.0, 0.0], [0.0, 1.0]]]}, **sections}
    cfg = write_cfg(tmp_path / "tail.json", {k: v for k, v in raw.items() if v is not None})
    out = tmp_path / "sol.json"
    assert cli_main([command, cfg, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and needle in captured.err
    assert not out.exists()


@pytest.mark.parametrize("command, fields", [
    ("cvar", {"delta_grid": []}),
    ("oracle", {"delta_grid": []}),
    ("sample-size", {"delta_grid": []}),
    ("scenario", {"k_grid": []}),
    ("cvar", {"delta_grid": ["x"]}),
    ("experiment", {"kind": "cvar_ratio", "delta_grid": ["x"]}),
    ("scenario", {"radius": "big"}),
    ("sample-size", {"beta_conf": "q"}),
    ("experiment", {"kind": "cvar_ratio", "eta": "x"}),
    ("experiment", {"kind": "cvar_ratio", "delta_grid": 0.01}),
])
def test_malformed_experiment_field_exit_2(tmp_path, capsys, command, fields):
    cfg = write_cfg(tmp_path / "bad_field.json", {
        "problem": {"c": [1.0], "h": 10.0, "A": [[[1.0]]]},
        "tail": {"kind": "light", "beta": 1.0},
        "experiment": fields,
    })
    assert cli_main([command, cfg, "--out", str(tmp_path / "out")]) == 2
    assert "error: experiment config is invalid" in capsys.readouterr().err


def test_duplicate_grid_exit_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "dup.json", {
        "problem": {"c": [1.0], "h": 10.0, "A": [[[1.0]]]},
        "tail": {"kind": "heavy", "alpha": 2.0},
        "experiment": {"kind": "frechet_check", "k_grid": [100, 100],
                       "replications": 3},
    })
    assert cli_main(["experiment", cfg, "--out", str(tmp_path / "r.csv")]) == 2
    assert "k_grid" in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("y_probe", [[1.0, 2.0, 3.0], [math.nan], [-1.0]])
def test_bad_y_probe_exit_2(tmp_path, capsys, y_probe):
    cfg = write_cfg(tmp_path / "y.json", {
        "problem": {"c": [1.0], "h": 10.0, "A": [[[1.0]]]},
        "tail": {"kind": "heavy", "alpha": 2.0},
        "experiment": {"kind": "tail_ratio", "r_grid": [10.0], "budget": 20000,
                       "y_probe": y_probe},
    })
    out = tmp_path / "r.csv"
    assert cli_main(["experiment", cfg, "--out", str(out)]) == 2
    assert "y_probe" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("k_grid", [[0], [100.7]])
def test_bad_k_grid_exit_2(tmp_path, capsys, k_grid):
    cfg = write_cfg(tmp_path / "k.json", {
        "problem": {"c": [1.0], "h": 10.0, "A": [[[1.0]]]},
        "tail": {"kind": "heavy", "alpha": 2.0},
        "experiment": {"kind": "frechet_check", "k_grid": k_grid, "replications": 3},
    })
    assert cli_main(["experiment", cfg, "--out", str(tmp_path / "r.csv")]) == 2
    assert "k_grid" in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()


def test_bad_delta_grid_exit_2_before_any_replication(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(rarecc.experiments, "cvar_solve", lambda *args: calls.append(args))
    cfg = write_cfg(tmp_path / "d.json", {
        "problem": {"c": [1.0], "h": 10.0, "A": [[[1.0]]]},
        "tail": {"kind": "heavy", "alpha": 2.0},
        "experiment": {"kind": "cvar_ratio", "delta_grid": [0.02, 1.5], "budget": 200000},
    })
    assert cli_main(["experiment", cfg, "--out", str(tmp_path / "r.csv")]) == 2
    assert "delta_grid" in capsys.readouterr().err
    assert not calls and not (tmp_path / "r.csv").exists()


def test_small_delta_budget_exit_2_before_any_replication(tmp_path, capsys, monkeypatch):
    # delta * budget = 20 < 100 at the second grid point
    calls = []
    monkeypatch.setattr(rarecc.experiments, "cvar_solve", lambda *args: calls.append(args))
    cfg = write_cfg(tmp_path / "d.json", {
        "problem": {"c": [1.0, 1.0], "h": 100.0, "A": [[[1.0, 0.0], [0.0, 1.0]]]},
        "tail": {"kind": "heavy", "alpha": 2.0,
                 "atoms": [[0.5, [1.0, 0.0]], [0.5, [0.0, 1.0]]]},
        "experiment": {"kind": "cvar_ratio", "delta_grid": [0.02, 0.0001],
                       "replications": 4, "budget": 200000},
    })
    assert cli_main(["experiment", cfg, "--out", str(tmp_path / "r.csv")]) == 2
    assert "need delta * budget >= 100" in capsys.readouterr().err
    assert not calls and not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("radius", ["1e309", '"inf"'])
def test_infinite_scenario_radius_exit_2(tmp_path, capsys, radius):
    # a bad configuration: exit 2, not exit 0 with "value": Infinity
    path = tmp_path / "s.json"
    cfg = write_cfg(path, {
        "problem": {"c": [1.0], "h": 10.0, "A": [[[1.0]]]},
        "tail": {"kind": "heavy", "alpha": 2.0},
        "experiment": {"k_grid": [1000], "radius": "RADIUS"},
    })
    path.write_text(path.read_text().replace('"RADIUS"', radius))
    out = tmp_path / "r.json"
    assert cli_main(["scenario", cfg, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "radius must be finite" in captured.err and not captured.out
    assert not out.exists()


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_bad_workers_exit_2(ht_cfg, tmp_path, capsys, workers):
    out = tmp_path / "r.csv"
    assert cli_main(["experiment", ht_cfg, "--out", str(out), "--workers", workers]) == 2
    assert "workers" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command,key,value", [
    ("experiment", "replications", 2.9),
    ("experiment", "budget", 5000.5),
    ("experiment", "workers", 2.5),
    ("oracle", "budget", 5000.5),
    ("cvar", "budget", 5000.5),
    ("scenario", "k_grid", [100.7]),
    ("sample-size", "dim", 2.7),
])
def test_non_integral_count_exit_2(tmp_path, capsys, command, key, value):
    # each of these runs, and exits 0, with the value rounded down
    payload = {
        "problem": {"c": [1.0], "h": 10.0, "A": [[[1.0]]]},
        "tail": {"kind": "heavy", "alpha": 2.0},
        "experiment": {"kind": "frechet_check", "k_grid": [100], "replications": 3,
                       "budget": 5000, "delta_grid": [0.05], "dim": 2},
    }
    (payload if key == "workers" else payload["experiment"])[key] = value
    out = tmp_path / "r.out"
    assert cli_main([command, write_cfg(tmp_path / "n.json", payload), "--out", str(out)]) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("seed", [2.7, -1, True, "5"])
def test_bad_master_seed_exit_2(tmp_path, capsys, seed):
    # int() ran 2.7 as seed 2 and "5" as seed 5
    cfg = write_cfg(tmp_path / "s.json", {
        "problem": {"c": [1.0], "h": 10.0, "A": [[[1.0]]]},
        "tail": {"kind": "heavy", "alpha": 2.0},
        "experiment": {"k_grid": [100]},
        "master_seed": seed,
    })
    out = tmp_path / "r.out"
    assert cli_main(["scenario", cfg, "--out", str(out)]) == 2
    assert "master_seed" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["scenario", "cvar", "experiment"])
def test_negative_cli_seed_exit_2(ht_cfg, tmp_path, capsys, command):
    # the sampler keys on seed mod 2^64, so --seed -5 drew 2^64 - 5's stream
    out = tmp_path / "r.out"
    assert cli_main([command, ht_cfg, "--out", str(out), "--seed", "-5"]) == 2
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, flag", [
    ("lt-limit", "--seed"), ("lt-limit", "--reps"), ("ht-limit", "--workers"),
    ("sample-size", "--seed"), ("oracle", "--reps"), ("cvar", "--workers"),
    ("scenario", "--reps"),
])
def test_unread_flag_exit_2(lt_cfg, ht_cfg, tmp_path, capsys, command, flag):
    # each flag was accepted and ignored, and the command exited 0
    cfg = lt_cfg if command == "lt-limit" else ht_cfg
    out = tmp_path / "r.out"
    assert cli_main([command, cfg, "--out", str(out), flag, "3"]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


def test_experiment_reads_reps_and_workers(ht_cfg, tmp_path):
    out = tmp_path / "r.csv"
    argv = ["experiment", ht_cfg, "--out", str(out), "--seed", "7", "--reps", "3"]
    assert cli_main(argv + ["--workers", "2"]) == 0
    assert len(out.read_text().splitlines()) == 1 + 3 + 1
    serial = out.read_bytes()
    assert cli_main(argv + ["--workers", "1"]) == 0
    assert out.read_bytes() == serial


@pytest.mark.parametrize("experiment, needle", [
    ({"kind": "tail_ratio", "r_grid": [-5.0], "budget": 20000}, "r_grid"),
    ({"kind": "scenario_convergence", "k_grid": [1]}, "k >= 2"),
])
def test_nonsense_grid_exit_2(tmp_path, capsys, experiment, needle):
    # both ran and exited 0: r = -5 wrote stat = 1 rows, and k = 1 solved
    # the scenario program at risk level 1
    cfg = write_cfg(tmp_path / "g.json", {
        "problem": {"c": [1.0], "h": 10.0, "A": [[[1.0]]]},
        "tail": {"kind": "heavy", "alpha": 2.0},
        "experiment": experiment,
    })
    out = tmp_path / "r.csv"
    assert cli_main(["experiment", cfg, "--out", str(out)]) == 2
    assert needle in capsys.readouterr().err
    assert not out.exists()


def test_successive_calls_share_parser(lt_cfg, ht_cfg, tmp_path, capsys):
    # the parser is built once; each call must still parse its own argv
    assert cli_main(["lt-limit", lt_cfg]) == 0
    assert json.loads(capsys.readouterr().out)["method"] == "cut-loop"
    out = tmp_path / "r.csv"
    assert cli_main(["experiment", ht_cfg, "--out", str(out), "--reps", "2"]) == 0
    assert len(out.read_text().splitlines()) == 1 + 2 + 1
    assert capsys.readouterr().out.startswith("wrote 3 rows")
    assert cli_main(["scenario", ht_cfg]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 13
    assert cli_main(["lt-limit"]) == 2
    assert cli_main(["--help"]) == 0
    assert "Exit codes" in capsys.readouterr().out


@pytest.mark.parametrize("seed", [0, 7.0, 2 ** 64 + 1])
def test_integral_master_seed_accepted(tmp_path, seed):
    cfg = write_cfg(tmp_path / "s.json", {
        "problem": {"c": [1.0], "h": 10.0, "A": [[[1.0]]]},
        "tail": {"kind": "heavy", "alpha": 2.0},
        "master_seed": seed,
    })
    loaded = load_config(cfg)["master_seed"]
    assert loaded == seed and type(loaded) is int


def test_non_finite_atom_exit_2(tmp_path, capsys):
    # json reads NaN; the cut LP used to reject it with exit 1
    cfg = write_cfg(tmp_path / "nan.json", {
        "problem": {"c": [1.0, 1.0], "h": 10.0, "A": [[[1.0, 0.0], [0.0, 1.0]]]},
        "tail": {"kind": "heavy", "alpha": 2.0, "atoms": [[1.0, [math.nan, math.nan]]]},
    })
    assert cli_main(["ht-limit", cfg]) == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("theta", ["inf", "Infinity"])
def test_theta_string_infinity(tmp_path, theta):
    cfg = write_cfg(tmp_path / "inf.json", {
        "problem": {"c": [1.0], "h": 10.0, "A": [[[1.0]]]},
        "tail": {"kind": "light", "beta": 0.5, "theta": theta},
    })
    assert load_config(cfg)["tail"].theta == math.inf


def test_experiment_deterministic_bytes(ht_cfg, tmp_path, capsys):
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    assert cli_main(["experiment", ht_cfg, "--out", str(out1), "--seed", "7"]) == 0
    assert cli_main(["experiment", ht_cfg, "--out", str(out2), "--seed", "7"]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    header = out1.read_text().splitlines()[0]
    assert header == "kind,grid,rep,stat,target,aux1,aux2,seed"


def test_experiment_reps_override(ht_cfg, tmp_path):
    out = tmp_path / "r.csv"
    assert cli_main(["experiment", ht_cfg, "--out", str(out), "--reps", "4"]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 4 + 1     # header + reps + aggregate


def test_scenario_and_methods_json(ht_cfg, capsys):
    assert cli_main(["scenario", ht_cfg, "--seed", "3"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert set(out) == {"method", "x", "value", "delta", "violation",
                        "violation_halfwidth", "seed", "gap"}
    assert out["method"] == "scenario" and out["gap"] <= 1e-12


def test_oracle_and_cvar_json(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "sc.json", {
        "problem": {"c": [1.0], "h": 10.0, "A": [[[1.0]]]},
        "tail": {"kind": "heavy", "alpha": 2.0},
        "experiment": {"kind": "cvar_ratio", "delta_grid": [0.01],
                       "replications": 1, "budget": 50000},
        "master_seed": 4,
    })
    assert cli_main(["oracle", cfg]) == 0
    oracle = json.loads(capsys.readouterr().out)
    assert oracle["method"] == "ccp_oracle" and oracle["gap"] is None
    assert oracle["value"] == pytest.approx(0.1, rel=0.1)
    assert cli_main(["cvar", cfg]) == 0
    cvar = json.loads(capsys.readouterr().out)
    assert cvar["method"] == "cvar" and cvar["gap"] <= 1e-12
    assert cvar["value"] <= oracle["value"] * 1.05


def test_sample_size_cli(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "ss.json", {
        "problem": {"c": [1.0, 1.0], "h": 1.0, "A": [[[1.0], [1.0]]]},
        "tail": {"kind": "light", "beta": 1.0},
        "experiment": {"kind": "cvar_ratio", "delta_grid": [0.01],
                       "replications": 1, "beta_conf": 0.01, "dim": 2},
    })
    assert cli_main(["sample-size", cfg]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["k"] == 3045


def test_out_file_written(ht_cfg, tmp_path, capsys):
    dest = tmp_path / "sol.json"
    assert cli_main(["ht-limit", ht_cfg, "--out", str(dest)]) == 0
    assert json.loads(dest.read_text())["value"] == pytest.approx(2.0, rel=1e-8)


@pytest.mark.parametrize("command", ["ht-limit", "experiment"])
def test_out_in_missing_directory_exit_2_before_work(ht_cfg, tmp_path, capsys,
                                                     monkeypatch, command):
    def ran(*args, **kwargs):
        raise AssertionError("the command ran before its output path was checked")

    monkeypatch.setattr(rarecc.cli, "solve_ht_limit", ran)
    monkeypatch.setattr(rarecc.cli, "run_experiment", ran)
    dest = tmp_path / "missing" / "out.txt"
    assert cli_main([command, ht_cfg, "--out", str(dest)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and str(dest) in captured.err


def test_config_out_in_missing_directory_exit_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "c.json", {
        "problem": {"c": [1.0], "h": 10.0, "A": [[[1.0]]]},
        "tail": {"kind": "heavy", "alpha": 2.0},
        "experiment": {"kind": "frechet_check", "k_grid": [200], "replications": 3},
        "out": str(tmp_path / "missing" / "r.csv"),
    })
    assert cli_main(["experiment", cfg]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("out", [5, ["r.csv"], {"path": "r.csv"}, True])
def test_config_out_not_a_string_exit_2(tmp_path, capsys, monkeypatch, out):
    monkeypatch.chdir(tmp_path)
    cfg = write_cfg(tmp_path / "c.json", {
        "problem": {"c": [1.0], "h": 10.0, "A": [[[1.0]]]},
        "tail": {"kind": "heavy", "alpha": 2.0},
        "experiment": {"kind": "frechet_check", "k_grid": [200], "replications": 3},
        "out": out,
    })
    assert cli_main(["experiment", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "out must be a path string" in err
    assert list(tmp_path.iterdir()) == [tmp_path / "c.json"]


@pytest.mark.parametrize("command", ["ht-limit", "experiment"])
def test_failed_write_exit_1(ht_cfg, tmp_path, capsys, command):
    # a directory passes the up-front check, but cannot be opened as a file
    dest = tmp_path / "a_directory"
    dest.mkdir()
    assert cli_main([command, ht_cfg, "--out", str(dest)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(dest) in err


@pytest.mark.parametrize("command, name", [("cvar", "cvar_solve"),
                                           ("experiment", "run_experiment")])
def test_value_error_in_a_run_propagates(lt_cfg, tmp_path, capsys, monkeypatch, command, name):
    # only reading the config's fields maps a ValueError to exit 2; one
    # raised by the solver or the experiment is a fault, not a bad config
    def broken(*args, **kwargs):
        raise ValueError("raised inside the run")

    monkeypatch.setattr(rarecc.cli, name, broken)
    with pytest.raises(ValueError, match="raised inside the run"):
        cli_main([command, lt_cfg, "--out", str(tmp_path / "r.out")])
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("experiment, needle", [
    ({"delta_grid": [0.01]}, "missing key 'kind'"),
    ({"kind": "no_such_kind"}, "'no_such_kind'"),
], ids=["missing-kind", "unknown-kind"])
def test_experiment_kind_exit_2(tmp_path, capsys, experiment, needle):
    cfg = write_cfg(tmp_path / "k.json", {
        "problem": {"c": [1.0], "h": 10.0, "A": [[[1.0]]]},
        "tail": {"kind": "heavy", "alpha": 2.0},
        "experiment": experiment,
    })
    out = tmp_path / "r.csv"
    assert cli_main(["experiment", cfg, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and needle in captured.err
    assert not out.exists()


def test_documented_exit_codes_from_the_process(tmp_path):
    # console_main hands cli_main's code to sys.exit: 0 on success, 2 for a
    # bad config, 1 for a failed write, as the process's own exit status
    src = pathlib.Path(rarecc.cli.__file__).resolve().parents[1]
    example = src.parent / "scripts" / "configs" / "lt_limit_example.json"
    no_tail = json.loads(example.read_text())
    del no_tail["tail"]
    (tmp_path / "a_directory").mkdir()
    cases = [([str(example), "--out", str(tmp_path / "sol.json")], 0),
             ([write_cfg(tmp_path / "no_tail.json", no_tail)], 2),
             ([str(example), "--out", str(tmp_path / "a_directory")], 1)]
    env = {**os.environ, "PYTHONPATH": str(src)}
    for args, code in cases:
        run = subprocess.run([sys.executable, "-m", "rarecc.cli", "lt-limit", *args], env=env,
                             cwd=tmp_path, capture_output=True, text=True, timeout=60)
        assert run.returncode == code, (args, run.stderr)
        if code:
            assert run.stderr.startswith("error:"), run.stderr
    assert json.loads((tmp_path / "sol.json").read_text())["value"] == 4.25
    assert "Is a directory" in run.stderr
