import csv
import json
import os
import subprocess
import sys

import pytest

from quditqkd import cli

RUN = [sys.executable, "-m", "quditqkd.cli"]


def run_cli(args, **env):
    """Run the CLI in a child Python that inherits this environment (so it finds
    the package through PYTHONPATH or an install), minus any QUDIT_QKD_SEED from
    the calling shell; pass QUDIT_QKD_SEED in ``env`` to set it on purpose."""
    child_env = {k: v for k, v in os.environ.items() if k != "QUDIT_QKD_SEED"}
    return subprocess.run(RUN + args, capture_output=True, text=True, env={**child_env, **env})


def test_thresholds_csv_matches_reference_table(tmp_path):
    out = tmp_path / "thr.csv"
    res = run_cli(["--output", str(out), "--format", "csv", "thresholds", "--p", "2", "--n", "1..4"])
    assert res.returncode == 0
    rows = list(csv.DictReader(out.open()))
    got = [(r["N"], r["sbmer_percent"], r["ber_percent"]) for r in rows]
    assert got == [
        ("2", "27.64", "27.64"),
        ("4", "43.31", "27.07"),
        ("8", "60.44", "32.74"),
        ("16", "75.34", "38.85"),
    ]


def test_thresholds_json_carries_full_precision(tmp_path):
    out = tmp_path / "thr.json"
    res = run_cli(["--output", str(out), "thresholds", "--p", "2", "--n", "1..2"])
    assert res.returncode == 0
    doc = json.loads(out.read_text())
    assert doc["schema_version"] == 1
    assert doc["tool"]["name"] == "quditqkd"
    full = doc["result"]["full_precision"]
    assert abs(full[0]["e_sbmer"] - 0.2763932022500211) < 1e-12


def test_thresholds_reject_odd_p():
    res = run_cli(["thresholds", "--p", "3", "--n", "1"])
    assert res.returncode == 3


def test_verify_report(tmp_path):
    out = tmp_path / "v.json"
    res = run_cli(["--output", str(out), "verify", "--p", "2", "--n", "2"])
    assert res.returncode == 0
    doc = json.loads(out.read_text())
    r = doc["result"]
    assert r["order_up_to_phase"] == 5
    assert r["unitarity_residual"] < 1e-10
    assert r["conjugation_residual"] < 1e-10
    assert r["mub_ok"] and r["all_ok"]
    assert doc["field"]["modulus"] == [1, 1, 1]


def test_build_t_coefficients_flat(tmp_path):
    out = tmp_path / "t.json"
    res = run_cli(["--output", str(out), "build-t", "--p", "3", "--n", "1"])
    assert res.returncode == 0
    doc = json.loads(out.read_text())
    re = doc["result"]["coefficients_re"]
    im = doc["result"]["coefficients_im"]
    for i in range(3):
        for j in range(3):
            mag = (re[i][j] ** 2 + im[i][j] ** 2) ** 0.5
            assert abs(mag - 1 / 3) < 1e-12


def test_classes_output(tmp_path):
    out = tmp_path / "c.json"
    res = run_cli(["--output", str(out), "classes", "--p", "2", "--n", "1"])
    assert res.returncode == 0
    doc = json.loads(out.read_text())
    assert doc["result"]["sizes"] == [1, 3]
    assert doc["result"]["classes"][0] == [[0, 0]]


def test_simulate_deterministic(tmp_path):
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    args = [
        "simulate", "--p", "2", "--n", "1", "--L", "20000",
        "--channel", "pauli-iid", "--qer", "0.1", "--ep-rounds", "1", "--pec-r", "3",
    ]
    assert run_cli(["--output", str(f1), "--seed", "7"] + args).returncode == 0
    assert run_cli(["--output", str(f2), "--seed", "7"] + args).returncode == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_simulate_report_roundtrip(tmp_path):
    out = tmp_path / "sim.json"
    res = run_cli(
        ["--output", str(out), "--seed", "3", "simulate", "--p", "2", "--n", "1",
         "--L", "20000", "--channel", "noiseless"]
    )
    assert res.returncode == 0
    doc = json.loads(out.read_text())
    assert doc["seed"] == 3
    assert doc["config"]["L"] == 20000
    assert doc["result"]["keys_match"] is True
    assert json.loads(json.dumps(doc)) == doc


def test_simulate_requires_seed():
    res = run_cli(["simulate", "--p", "2", "--n", "1", "--L", "1000", "--channel", "noiseless"])
    assert res.returncode == 3


def test_seed_env_fallback(tmp_path):
    out = tmp_path / "sim.json"
    res = run_cli(
        ["--output", str(out), "simulate", "--p", "2", "--n", "1", "--L", "20000",
         "--channel", "noiseless"],
        QUDIT_QKD_SEED="42",
    )
    assert res.returncode == 0
    assert json.loads(out.read_text())["seed"] == 42


def test_attack_command(tmp_path):
    out = tmp_path / "atk.json"
    res = run_cli(["--output", str(out), "attack", "--p", "2", "--n", "4", "--q", "0.84"])
    assert res.returncode == 0
    doc = json.loads(out.read_text())
    assert abs(doc["result"]["eve_ber_at_2"] - 0.28) < 1e-12
    assert doc["result"]["survives_at_16"] is True


def test_attack_rejects_odd_characteristic():
    res = run_cli(["attack", "--p", "3", "--n", "1", "--q", "0.5"])
    assert res.returncode == 3
    assert "characteristic 2" in res.stderr


def test_usage_error_exit_code():
    res = run_cli(["simulate", "--p", "2", "--n", "1"])  # missing required flags
    assert res.returncode == 2


def test_unknown_command_exit_code():
    res = run_cli(["frobnicate"])
    assert res.returncode == 2


def test_config_file_merge_and_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"L": 20000, "channel": "noiseless", "seed": 5}))
    out = tmp_path / "r.json"
    res = run_cli(
        ["--config", str(cfg), "--output", str(out), "simulate", "--p", "2", "--n", "1",
         "--L", "30000", "--channel", "noiseless"]
    )
    assert res.returncode == 0
    doc = json.loads(out.read_text())
    assert doc["config"]["L"] == 30000  # flag overrides file
    assert doc["seed"] == 5  # file fills the seed


@pytest.mark.parametrize("flag", [["--delta", "0.02"], ["--del", "0.02"], ["--delta=0.02"]])
def test_abbreviated_flag_overrides_config_file(tmp_path, capsys, flag):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"delta": 0.5}))
    code = cli.main(
        ["simulate", "--p", "2", "--n", "2", "--L", "100000", "--channel", "noiseless",
         "--seed", "1", "--config", str(cfg), *flag, "--print-effective-config"]
    )
    assert code == 0
    assert json.loads(capsys.readouterr().out)["delta"] == 0.02


def test_main_leaves_sys_argv_alone(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["host-program", "--its-own-flag"])
    assert cli.main(["thresholds", "--p", "2", "--n", "2"]) == 0
    assert sys.argv == ["host-program", "--its-own-flag"]
    assert json.loads(capsys.readouterr().out)["command"] == "thresholds"


def test_config_file_unknown_key(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"frobnicator": 1}))
    res = run_cli(["--config", str(cfg), "thresholds", "--p", "2", "--n", "1"])
    assert res.returncode == 3
    assert "unknown config key" in res.stderr


@pytest.mark.parametrize("values", [{"delta": "x"}, {"test_count": 1.5}, {"format": "xml"}])
def test_config_file_values_are_type_checked(tmp_path, values):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(values))
    res = run_cli(
        ["simulate", "--p", "2", "--n", "2", "--L", "100000", "--channel", "noiseless",
         "--seed", "1", "--config", str(cfg)]
    )
    assert res.returncode == 3
    assert res.stderr.startswith("config error:")
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("flags", [["--trials", "0"], ["--trials", "2", "--workers", "0"]])
def test_simulate_rejects_nonpositive_trials_and_workers(flags):
    res = run_cli(
        ["simulate", "--p", "2", "--n", "1", "--L", "1000", "--channel", "noiseless",
         "--seed", "1"] + flags
    )
    assert res.returncode == 3
    assert res.stderr.startswith("config error:")


def test_print_effective_config():
    res = run_cli(
        ["--print-effective-config", "--seed", "9", "simulate", "--p", "2", "--n", "2",
         "--L", "1000", "--channel", "noiseless"]
    )
    assert res.returncode == 0
    eff = json.loads(res.stdout)
    assert eff["seed"] == 9 and eff["L"] == 1000


def test_io_error_exit_code(tmp_path):
    res = run_cli(["--output", "/nonexistent-dir/x.json", "thresholds", "--p", "2", "--n", "1"])
    assert res.returncode == 5
