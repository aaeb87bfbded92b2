import json

import numpy as np
import pytest

from rarecc.cli import cli_main


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
    assert set(out) == {"y_star", "value", "residual", "method"}
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


def test_wrong_tail_kind_exit_2(lt_cfg):
    assert cli_main(["ht-limit", lt_cfg]) == 2


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
                        "violation_halfwidth", "seed"}
    assert out["method"] == "scenario"


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
    assert oracle["method"] == "ccp_oracle"
    assert oracle["value"] == pytest.approx(0.1, rel=0.1)
    assert cli_main(["cvar", cfg]) == 0
    cvar = json.loads(capsys.readouterr().out)
    assert cvar["method"] == "cvar"
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
