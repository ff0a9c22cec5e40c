import argparse
import csv
import hashlib
import io
import json
import os
import resource
import stat
import subprocess
import sys
import threading
from contextlib import redirect_stderr, redirect_stdout

import pytest

from quditqkd import cli, fields, protocol

RUN = [sys.executable, "-m", "quditqkd.cli"]


def run_cli(args, timeout=None, **env):
    """Run the CLI in a child Python that inherits this environment (so it finds
    the package through PYTHONPATH or an install), minus any QUDIT_QKD_SEED from
    the calling shell; pass QUDIT_QKD_SEED in ``env`` to set it on purpose."""
    child_env = {k: v for k, v in os.environ.items() if k != "QUDIT_QKD_SEED"}
    return subprocess.run(RUN + args, capture_output=True, text=True, env={**child_env, **env},
                          timeout=timeout)


def test_thresholds_csv_matches_reference_table(tmp_path):
    out = tmp_path / "thr.csv"
    res = run_cli(["--output", str(out), "--format", "csv", "thresholds", "--p", "2", "--n", "1..4"])
    assert res.returncode == 0
    with out.open() as fh:
        rows = list(csv.DictReader(fh))
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


def test_deep_purification_closed_form_does_not_underflow():
    # 12 rounds at N = 2, e00 = 0.6: the worst-case closed form's 2^12-th
    # powers underflow double precision, and the run still ends in exit 0
    res = run_cli(["simulate", "--p", "2", "--n", "1", "--L", "2000000", "--channel", "pauli-iid",
                   "--qer", "0.4", "--abort-threshold", "0.45", "--ep-rounds", "12", "--seed", "1"])
    assert res.returncode == 0, res.stderr
    r = json.loads(res.stdout)["result"]
    assert not r["aborted"] and r["ep_rounds"] == 12
    assert r["analytic_spin_bound"] is not None and r["analytic_phase_bound"] is not None


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


# (pec_r, ep_rounds, analytic_target_met, spin bound, phase bound) of each
# trial of `simulate --p 2 --n 2 --L 1000000 --channel pauli-iid --qer 0.4
# --trials 20 --workers 2 --seed 5`, recorded when the raw labels were
# first read from generator words
PINNED_TRIAL_BOUNDS = [
    (2129, 4, False, 6.267223388620124e-07, 2.596765470818852),
    (2129, 4, False, 7.404773277475975e-07, 2.635350705358464),
    (2129, 4, False, 1.1307736414389857e-06, 2.7201959768104227),
    (2129, 4, False, 5.49573796240889e-07, 2.564185384424214),
    (2129, 4, False, 3.7048017745489875e-07, 2.454173246223615),
    (2129, 4, False, 1.7930226191407856e-07, 2.2009937751613795),
    (2129, 4, False, 4.1394100062975077e-07, 2.4870184415491847),
    (2129, 4, False, 4.490741502777657e-06, 2.892381525351347),
    (2129, 4, False, 7.070903419201821e-07, 2.6249824395017574),
    (2129, 4, False, 5.28021194645137e-06, 2.904689980781882),
    (2129, 4, False, 3.8700015618343615e-07, 2.467271803793896),
    (2129, 4, False, 1.1198704191172772e-06, 2.7184522001035076),
    (2129, 4, False, 6.732948316139651e-07, 2.61372274105638),
    (2129, 4, False, 3.7527577773063134e-07, 2.4580593445268),
    (2129, 4, False, 6.34079824985743e-07, 2.599565578771231),
    (2129, 4, False, 3.1634189855851493e-07, 2.4047555747549727),
    (2129, 4, False, 1.1590581253604304e-06, 2.724602417761309),
    (2129, 4, False, 1.5260615961833506e-06, 2.7699291294296584),
    (2129, 4, False, 3.6580983496357303e-07, 2.450319888423802),
    (2129, 4, False, 1.564262956100608e-06, 2.7736804281251244),
]


def test_trial_bounds_are_pinned(tmp_path):
    out = tmp_path / "trials.json"
    assert cli.main(["--output", str(out), "simulate", "--p", "2", "--n", "2",
                     "--L", "1000000", "--channel", "pauli-iid", "--qer", "0.4",
                     "--trials", "20", "--workers", "2", "--seed", "5"]) == 0
    trials = json.loads(out.read_text())["result"]["trials"]
    keys = ("pec_r", "ep_rounds", "analytic_target_met",
            "analytic_spin_bound", "analytic_phase_bound")
    assert [tuple(t[k] for k in keys) for t in trials] == PINNED_TRIAL_BOUNDS


# md5 of json.dumps(result, sort_keys=True) and (pec_r, ep_rounds,
# analytic_target_met) for one run down each repetition-count path: the
# twirl channels' (per-qubit attack, intercept-resend, grouped attack)
# recorded when the twirl's mask was first drawn from generator bytes,
# pauli-iid's when its raw labels were first read from generator words; the
# noiseless report, blind to which registers are tested, from before the
# protocol stages were split out of run_protocol
PINNED_REPORTS = {
    "first certified r": (
        "--p 2 --n 1 --L 200000 --channel per-qubit-attack --q-prime 0.1 --seed 8",
        "cd638186df90ccbbc4c462b3086cd88f", (53, 3, True)),
    "explicit rounds, smallest bound": (
        "--p 2 --n 3 --L 2000000 --channel pauli-iid --qer 0.3 --ep-rounds 2 --seed 4",
        "8f25109b3a50033aa08c404245b6642e", (35, 2, None)),
    "explicit r": (
        "--p 2 --n 2 --L 2000000 --channel intercept-resend --q 0.2 --pec-r 7 --seed 4",
        "b9092f29e7cec1abff0d830bcbafc62f", (7, 4, None)),
    "odd p, bound-free r": (
        "--p 3 --n 1 --L 200000 --channel pauli-iid --qer 0.1 --abort-threshold 0.3 --seed 3",
        "bd3cdbf991877c337a2453bc79cb8079", (53, 4, None)),
    "odd p, multi-block": (  # 799,771 sifted registers: several pool blocks
        "--p 3 --n 2 --L 8000000 --channel pauli-iid --qer 0.1 --abort-threshold 0.3 --seed 3",
        "40c2167384f1e89a2cd5a172c670724a", (205, 4, None)),
    "automatic, smallest bound": (
        "--p 2 --n 2 --L 1000000 --channel pauli-iid --qer 0.4 --seed 5",
        "c816b74d7dc8185b0286cd51e8e91bf3", (2129, 4, False)),
    # 256 flat labels in uint8, two pool blocks
    "N = 16 pauli-iid": (
        "--p 2 --n 4 --L 3000000 --channel pauli-iid --qer 0.1 --seed 3",
        "0eee20c981497f85e6de8856127b6398", (53, 3, True)),
    "grouped attack": (
        "--p 2 --n 3 --L 2000000 --channel grouped-attack --q 0.3 --seed 6",
        "db1201b113b7988abd9e98c33ee5990a", (185, 3, True)),
    "noiseless": (
        "--p 2 --n 3 --L 500000 --channel noiseless --seed 2",
        "134ffd1470fcd33f38c4755bdca0648c", (35, 2, True)),
}


@pytest.mark.parametrize("path", PINNED_REPORTS)
def test_whole_report_is_pinned(capsys, path):
    argv, digest, headline = PINNED_REPORTS[path]
    assert cli.main(["simulate", *argv.split()]) == 0
    res = json.loads(capsys.readouterr().out)["result"]
    assert (res["pec_r"], res["ep_rounds"], res["analytic_target_met"]) == headline
    assert hashlib.md5(json.dumps(res, sort_keys=True).encode()).hexdigest() == digest


@pytest.mark.parametrize("p, n, seed", [(2, 1, 3), (2, 2, 5), (2, 4, 7)])
def test_twirl_channel_names_give_one_result(capsys, p, n, seed):
    # the grouped, per-qubit and noiseless channels are the measurement twirl
    # at some q; only the report's config block says which name was given
    def result(*channel):
        argv = ["simulate", "--p", str(p), "--n", str(n), "--L", "300000", "--seed", str(seed)]
        assert cli.main([*argv, "--channel", *channel]) == 0
        return json.loads(capsys.readouterr().out)["result"]

    assert result("grouped-attack", "--q", "0.3") == result("intercept-resend", "--q", "0.3")
    q = repr(1 - (1 - 0.1) ** n)  # a group with a measured qubit is accounted as fully measured
    assert result("per-qubit-attack", "--q-prime", "0.1") == result("intercept-resend", "--q", q)
    assert result("noiseless") == result("intercept-resend", "--q", "0")


# md5 of the classes stdout, recorded while the orbits were walked label by
# label with scalar field calls
PINNED_CLASSES = {
    (2, 2): "f31dc8c143c74750315ec77f6d4e16fb",
    (3, 2): "a4ec07dc0d93d3ed2d189f91d8b2d5d5",
    (2, 4): "58798fcdd5f24ec189fd2fd06b6faddb",
    (3, 3): "e0970d15140faedae4925dcf7ca67d90",
    (2, 6): "c7c19e974ef5dc0a6b399e9db2adb86c",
    (2, 8): "8bcc1d32fff467e5c56b393df9f024e4",
}


@pytest.mark.parametrize("p,n", PINNED_CLASSES)
def test_classes_report_is_pinned(capsys, p, n):
    assert cli.main(["classes", "--p", str(p), "--n", str(n)]) == 0
    assert hashlib.md5(capsys.readouterr().out.encode()).hexdigest() == PINNED_CLASSES[p, n]


# md5 of the verify and build-t stdouts for every prime power N <= 64,
# recorded while T was assembled label by label and its powers were
# walked once for the order and again for unbiasedness
PINNED_T_REPORTS = {
    (2, 1): ("52c63cb5ae054b67f0fd97150978c9ec", "5739d95ac95510c5ef2484358ea02c26"),
    (3, 1): ("cad4832d286567c52918f96d7122c563", "0f6e309a8811ff7d291ac3aacebfce87"),
    (2, 2): ("60d14ab7d05c8678e409a4ad0b669c8b", "2783f5559fc0b1887dc3a174fbdaaf81"),
    (5, 1): ("4d3812dd31ff1a365a3cfd017e1b3701", "26bc9772f222a460e45050fae68933d4"),
    (7, 1): ("e40e9f1675cf34b66bb87aca67ac30f1", "3dc73f82a88357ad05815359c3de4f71"),
    (2, 3): ("f992d3f73cfa319ea10a294b39e2cb6d", "5e361c34cefc72704833d4ffed1f73dc"),
    (3, 2): ("21807b6f5b15384e9ae7f19d0e52561b", "32d1cf42792b3d726e6fc405e087d16f"),
    (11, 1): ("43c0350402b474bd6701fd5c78e02ee5", "6dfd66a496f65bea2d96f092d0dae61d"),
    (13, 1): ("f7e15cf84d99647b335d817b9bc7120e", "d4a97247e5f48c4acce4a5b897aa35af"),
    (2, 4): ("f8acabcc54e82591fd35a25cd512de35", "0cfd29ae38727d2a84d568616693aa66"),
    (17, 1): ("98f806f494332ddecebf3921d9a805b1", "a9c7772652aa935c77bf4c61982040da"),
    (19, 1): ("64ac93b3de3c62a46926eb65a0de4571", "ed26fdd33801f406ccb0f5f51e54dbb5"),
    (23, 1): ("6f83201049b5e2e10b26132476a6b0e6", "ec84de2dc4c54033bf31c14e040287b6"),
    (5, 2): ("482af734622afe45a0321c4cca3e58ab", "bcce6bb9ccd0b134685dbddddd708f03"),
    (3, 3): ("d962a399a20850a5e33d038404e89687", "90413108f20e01b3502869a0b0c3f4d3"),
    (29, 1): ("9ade3a95157922b7def6c0df22f564b9", "64d827e995c45251864eaa275dbf3bca"),
    (31, 1): ("f691e61617ee09ba0838678133b7ca37", "b099234aa4504bce2d78769350b9196d"),
    (2, 5): ("b0d25d2f4bbf33cda3246d16e185a794", "ef87bc396e9241eebee4cbe9a5b4f3f4"),
    (37, 1): ("31a009277de5ea4c924dcb22338a57fa", "80153ad23b2f24536bc87c5248c071df"),
    (41, 1): ("ba574a9e31b990c505ca7b1f2defd47b", "2b81de3c73bbe70fd1d0196a42e52125"),
    (43, 1): ("38ef508e7cf690ffc506d5367ed3a8cb", "0db953a224a4cd3d7f2086829db3d2bc"),
    (47, 1): ("7857f421661c674b20d64bd24194985d", "d467eede89a8c78a949af274c825c53c"),
    (7, 2): ("e4c0cdd70388539da990311f22227258", "d9a88d2da2c6a32fb4e6a399cd607822"),
    (53, 1): ("01a69fce915927a57e5572d9def3e165", "7ad69597db1d27d763346b1dff34ed28"),
    (59, 1): ("e3351b7c553f8a525dcde330c72d683b", "c3e6d491696f55f2d54e4f662f040538"),
    (61, 1): ("778e92e5b3e118a9e6a40ec267996c41", "44c59cb5d00bb6b6375639ecb64b8e65"),
    (2, 6): ("4c6de984857fb2d4c8bdd309c01f2e4d", "622ff7116d4e34054ad212507c837534"),
}


@pytest.mark.parametrize("p,n", PINNED_T_REPORTS)
def test_t_reports_are_pinned(capsys, p, n):
    for command, digest in zip(("verify", "build-t"), PINNED_T_REPORTS[p, n]):
        assert cli.main([command, "--p", str(p), "--n", str(n)]) == 0
        assert hashlib.md5(capsys.readouterr().out.encode()).hexdigest() == digest, command


# md5 of one whole simulate stdout, config and field included, recorded
# when the twirl's mask was first drawn from generator bytes
PINNED_SIMULATE_STDOUT = (
    "--p 2 --n 1 --L 200000 --channel per-qubit-attack --q-prime 0.1 --seed 8",
    "49d9b2651fb91dfd57b1bef9e4fa10ea")


def test_whole_simulate_stdout_is_pinned(capsys):
    argv, digest = PINNED_SIMULATE_STDOUT
    assert cli.main(["simulate", *argv.split()]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["config"]["test_fraction"] == 0.01
    assert hashlib.md5(out.encode()).hexdigest() == digest


# one run of each command; simulate on each channel kind, trials included
SCALAR_FREE_RUNS = [
    "verify --p 2 --n 4", "verify --p 7 --n 2", "build-t --p 5 --n 1", "classes --p 3 --n 2",
    "attack --p 2 --n 4 --q 0.84", "thresholds --p 2 --n 1..4",
    "simulate --p 2 --n 4 --L 1000000 --channel grouped-attack --q 0.5 --seed 1",
    "simulate --p 2 --n 2 --L 200000 --channel pauli-iid --qer 0.1 --trials 2 --seed 1",
    "simulate --p 3 --n 1 --L 200000 --channel intercept-resend --q 1 --abort-threshold 0.6 --seed 1",
]


def test_no_command_calls_a_scalar_field_method(monkeypatch, capsys):
    # the package reads the field tables; GF's checked scalar methods serve the
    # tests and perfbench's fields.scalar_calls, so no command may call one
    # (the methods are listed by introspection: one added later is counted too)
    wrapped, calls = [], []
    for name, attr in list(vars(fields.GF).items()):
        if not name.startswith("_") and name != "elements" and callable(attr):
            def counted(*args, _name=name, _method=attr, **kwargs):
                calls.append(_name)
                return _method(*args, **kwargs)
            monkeypatch.setattr(fields.GF, name, counted)
            wrapped.append(name)
    assert {"add", "mul", "pow", "sub", "trace"} <= set(wrapped)
    protocol.field_setup.cache_clear()
    for argv in SCALAR_FREE_RUNS:
        assert cli.main(argv.split()) == 0, argv
    capsys.readouterr()
    assert calls == []


def test_odd_p_simulate_reports_no_analytic_bound(tmp_path):
    # no residual bound is derived for odd p: nothing is certified, every
    # round runs and r is the bound-free isqrt of the survivors, made odd
    out = tmp_path / "p3.json"
    assert cli.main(["--output", str(out), "simulate", "--p", "3", "--n", "1",
                     "--L", "200000", "--channel", "pauli-iid", "--qer", "0.1",
                     "--abort-threshold", "0.3", "--seed", "3"]) == 0
    res = json.loads(out.read_text())["result"]
    assert res["analytic_target_met"] is None
    assert res["analytic_spin_bound"] is None and res["analytic_phase_bound"] is None
    assert res["ep_rounds"] == 4 and res["survivors_per_round"] == [22271, 11099, 5549, 2774]
    assert res["pec_r"] == 53 and res["key_length"] == 52 and res["keys_match"]


def test_oversized_run_exits_3_without_traceback():
    def cap_address_space():  # runs in the child only
        limit = 2_000_000 * 1024
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    child_env = {k: v for k, v in os.environ.items() if k != "QUDIT_QKD_SEED"}
    res = subprocess.run(
        RUN + ["simulate", "--p", "2", "--n", "1", "--L", "1000000000000",
               "--channel", "noiseless", "--seed", "1"],
        capture_output=True, text=True, env=child_env, preexec_fn=cap_address_space)
    assert res.returncode == 3, res.stderr
    assert "Traceback" not in res.stderr
    assert res.stderr == "config error: out of memory at L=1000000000000\n"


def test_field_above_parameter_search_cap_exits_3_without_traceback():
    res = run_cli(["classes", "--p", "2", "--n", "9"])
    assert res.returncode == 3, res.stderr
    assert "Traceback" not in res.stderr
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error: ")


def test_attack_above_the_table_cap_reports_its_modulus(capsys):
    # GF(4096) has no arithmetic tables, but the attack report needs only its modulus
    assert cli.main(["attack", "--p", "2", "--n", "12", "--q", "0.84"]) == 0
    assert hashlib.md5(capsys.readouterr().out.encode()).hexdigest() == "ef99afb6d04faf076376f6416de14897"


def test_internal_value_error_exits_4_without_traceback(monkeypatch, capsys):
    # a ValueError below every config check is a fault of the program, not of its input
    def broken_stage(*args):
        raise ValueError("broken stage")

    monkeypatch.setattr(protocol, "sift", broken_stage)
    assert cli.main(["simulate", "--p", "2", "--n", "1", "--L", "1000",
                     "--channel", "noiseless", "--seed", "1"]) == 4
    assert capsys.readouterr().err == "internal error: ValueError('broken stage')\n"


@pytest.mark.parametrize("argv", [
    ["thresholds", "--p", "2", "--n", "0..2"],
    ["thresholds", "--p", "2", "--n", "x"],
    ["attack", "--p", "2", "--n", "2", "--q", "1.5"],
    ["build-t", "--p", "4", "--n", "1"],
    ["verify", "--p", "2", "--n", "7"],
    ["simulate", "--p", "2", "--n", "1", "--L", "1000", "--channel", "pauli-iid",
     "--qer", "1.5", "--seed", "1"],
    ["simulate", "--p", "2", "--n", "1", "--L", "1000", "--channel", "noiseless", "--seed", "-1"],
    ["simulate", "--p", "2", "--n", "1", "--L", str(2**63), "--channel", "noiseless",
     "--seed", "1"],
    ["thresholds", "--p", "2", "--n", "4..2"],
    # NaN and out-of-range values fall through every later comparison
    ["simulate", "--p", "2", "--n", "1", "--L", "1000", "--channel", "noiseless",
     "--epsilon-i", "nan", "--seed", "1"],
    ["simulate", "--p", "2", "--n", "1", "--L", "1000", "--channel", "noiseless",
     "--epsilon-i", "-1", "--seed", "1"],
    ["simulate", "--p", "2", "--n", "1", "--L", "1000", "--channel", "noiseless",
     "--delta", "nan", "--abort-threshold", "0.3", "--seed", "1"],
    ["simulate", "--p", "2", "--n", "1", "--L", "1000", "--channel", "noiseless",
     "--delta", "-0.5", "--abort-threshold", "0.3", "--seed", "1"],
    # 2**-1 is a float, which the attack calculus cannot take as a dimension
    ["attack", "--p", "2", "--n", "-1", "--q", "0.5"],
    ["simulate", "--p", "2", "--n", "1", "--L", "1000", "--channel", "pauli-iid",
     "--qer", "nan", "--seed", "1"],
    ["simulate", "--p", "2", "--n", "2", "--L", "1000", "--channel", "grouped-attack",
     "--q", "1.5", "--seed", "1"],
    ["simulate", "--p", "2", "--n", "1", "--L", "1000", "--channel", "intercept-resend",
     "--q", "nan", "--seed", "1"],
    # q' is checked before the per-qubit rule 1 - (1 - q')^n, which maps 1.5 to 0.75 at n = 2
    ["simulate", "--p", "2", "--n", "2", "--L", "1000", "--channel", "per-qubit-attack",
     "--q-prime", "1.5", "--seed", "1"],
])
def test_bad_arguments_are_config_errors(capsys, argv):
    assert cli.main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    if "--qer" in argv:
        # the message names the flag the user passed, not the e00 it sets
        assert err == "config error: --qer must lie in [0, 1]\n"
    if "simulate" in argv and ("--q" in argv or "--q-prime" in argv):
        assert err == "config error: attack probabilities must lie in [0, 1]\n"


@pytest.mark.parametrize("flags, message", [
    (["--p", "3", "--channel", "grouped-attack", "--q", "0.5"],
     "grouped attack requires characteristic 2"),
    (["--p", "3", "--channel", "per-qubit-attack", "--q-prime", "0.1"],
     "per-qubit attack requires characteristic 2"),
    (["--p", "2", "--channel", "intercept-resend"], "intercept-resend channel needs --q"),
    (["--p", "2", "--channel", "grouped-attack"], "grouped-attack channel needs --q"),
    (["--p", "2", "--channel", "per-qubit-attack"], "per-qubit-attack channel needs --q-prime"),
    # the run's config is checked before the attack probability, for q' as for q
    (["--p", "2", "--channel", "per-qubit-attack", "--q-prime", "1.5", "--L", "0"],
     "L must lie in [1, 2^63), got 0"),
    (["--p", "2", "--channel", "grouped-attack", "--q", "1.5", "--L", "0"],
     "L must lie in [1, 2^63), got 0"),
])
def test_attack_channel_arguments_are_checked(capsys, flags, message):
    assert cli.main(["simulate", "--n", "1", "--L", "1000", "--seed", "1", *flags]) == 3
    assert capsys.readouterr().err == f"config error: {message}\n"


@pytest.mark.parametrize("channel, flags", [
    ("pauli-iid", ["--qer", "0.2", "--q", "7"]),
    ("pauli-iid", ["--qer", "0.2", "--q-prime", "0.1"]),
    ("intercept-resend", ["--q", "0.2", "--q-prime", "5"]),
    ("intercept-resend", ["--q", "0.2", "--qer", "0.1"]),
    ("grouped-attack", ["--q", "0.2", "--qer", "0.1"]),
    ("grouped-attack", ["--q", "0.2", "--q-prime", "0.1"]),
    ("per-qubit-attack", ["--q-prime", "0.1", "--qer", "0.1"]),
    ("per-qubit-attack", ["--q-prime", "0.1", "--q", "0.2"]),
    ("noiseless", ["--qer", "0.1"]),
    ("noiseless", ["--q", "0.2"]),
    ("noiseless", ["--q-prime", "0.1"]),
])
def test_channel_flags_the_channel_does_not_read_are_config_errors(capsys, channel, flags):
    # the report's config block would record a value the run never read;
    # the stray flag is the last one given
    argv = ["simulate", "--p", "2", "--n", "2", "--L", "1000", "--seed", "1", "--channel", channel]
    assert cli.main([*argv, *flags]) == 3
    message = f"{flags[-2]} does not apply to the {channel} channel"
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_channel_flag_from_config_file_is_checked(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"q": 7}))
    assert cli.main(["simulate", "--config", str(cfg), "--p", "2", "--L", "1000", "--seed", "1",
                     "--channel", "pauli-iid", "--qer", "0.2"]) == 3
    assert capsys.readouterr().err == "config error: --q does not apply to the pauli-iid channel\n"


@pytest.mark.parametrize("flags, message", [
    # a stray flag is named before a missing one ...
    (["--p", "2", "--channel", "pauli-iid", "--q", "0.2"], "--q does not apply to the pauli-iid channel"),
    (["--p", "2", "--channel", "per-qubit-attack", "--q", "0.2"],
     "--q does not apply to the per-qubit-attack channel"),
    # ... and before the characteristic the qubit attacks need
    (["--p", "3", "--channel", "grouped-attack", "--q", "0.5", "--qer", "0.1"],
     "--qer does not apply to the grouped-attack channel"),
    (["--p", "3", "--channel", "per-qubit-attack", "--q-prime", "0.1", "--q", "0.2"],
     "--q does not apply to the per-qubit-attack channel"),
])
def test_stray_channel_flag_is_the_first_channel_error(capsys, flags, message):
    assert cli.main(["simulate", "--n", "1", "--L", "1000", "--seed", "1", *flags]) == 3
    assert capsys.readouterr().err == f"config error: {message}\n"


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


@pytest.mark.parametrize("command", [["simulate", "--seed", "1"], ["verify"]])
def test_required_options_from_config_file(tmp_path, capsys, command):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"p": 2, "n": 2, "L": 100000, "channel": "noiseless"}))
    assert cli.main([*command, "--config", str(cfg)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["field"]["N"] == 4
    if command[0] == "simulate":
        assert doc["config"]["L"] == 100000 and doc["result"]["keys_match"]
        # a flag still wins over the file
        assert cli.main([*command, "--config", str(cfg), "--L", "20000"]) == 0
        assert json.loads(capsys.readouterr().out)["config"]["L"] == 20000


@pytest.mark.parametrize("command,file,missing", [
    (["simulate", "--seed", "1"], {"p": 2}, "--L, --channel"),
    (["simulate", "--seed", "1", "--L", "1000"], {"channel": "noiseless"}, "--p"),
    (["verify"], {"n": 2}, "--p"),
    (["attack", "--p", "2"], {}, "--q"),
], ids=["simulate-L-channel", "simulate-p", "verify-p", "attack-q"])
def test_required_option_missing_from_flags_and_file_is_a_usage_error(
        tmp_path, capsys, command, file, missing):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(file))
    assert cli.main([*command, "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.endswith(f"the following arguments are required: {missing}\n")
    assert cli.main(command) == 2


@pytest.mark.parametrize("flag", [["--delta", "0.02"], ["--del", "0.02"], ["--delta=0.02"],
                                  ["--del=0.02"]])
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


def test_main_builds_one_parser_per_process(monkeypatch):
    built, init = [], argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    argv = ["thresholds", "--p", "2", "--n", "2"]
    assert cli.main(argv) == 0  # builds the parser, unless an earlier call did
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert cli.main(argv) == 0 and cli.main(["verify", "--p", "2"]) == 0
    assert built == []
    argparse.ArgumentParser(prog="probe")
    assert built == ["probe"]  # the counter sees a build


# (argv, config file, (md5 of stdout, exit code, last stderr line)) of runs
# that show how each option's value is resolved.  {cfg} stands for the
# config file's path in argv, stdout and stderr; a file of None is not
# written and a str is written as it is.  Recorded on Python 3.11 while the
# flags that beat the file were found by parsing argv a second time.
NO_OUTPUT = hashlib.md5(b"").hexdigest()
OPTION_RESOLUTION = {
    "late common option wins": (
        "--seed 1 verify --p 2 --seed 2 --print-effective-config", None,
        ("c0d7a019d744d7a54434727dd008014f", 0, "")),
    "late format wins": (
        "--format csv thresholds --p 2 --n 1..2 --format json", None,
        ("729799c469cedcd1a48f6d1c44f919b2", 0, "")),
    "early format": (
        "--format csv thresholds --p 2 --n 1..2", None,
        ("62b93b644a11d89f565270204fd72ee7", 0, "")),
    "early echo flag": (
        "--print-effective-config verify --p 3", None,
        ("4bd9838142d1056dc81bf838b6e340f0", 0, "")),
    "simulate defaults": (
        "simulate --p 2 --L 1000 --channel noiseless --print-effective-config", None,
        ("0d770ce6f7e82fa5146eacfbe7011a86", 0, "")),
    "csv report": (
        "verify --p 2 --n 2 --format csv", None,
        ("117333cd51a61fdf8995a66ecc750c06", 0, "")),
    "file fills, flags win": (
        "simulate --config {cfg} --p 2 --L 2000 --print-effective-config",
        {"L": 1000, "channel": "noiseless", "seed": 3, "delta": 0.5, "epsilon-i": 0.02},
        ("231b1581a03ff660ec3aa7d12f63e011", 0, "")),
    "abbreviated flag beats file": (
        "simulate --config {cfg} --p 2 --del 0.02 --ep-rounds-m 3 --print-effective-config",
        {"L": 1000, "channel": "noiseless", "delta": 0.5, "ep_rounds_max": 2},
        ("acb691d19646267b7ef13b25eb3396d6", 0, "")),
    "early flag beats file": (
        "--seed 9 --config {cfg} verify --p 2 --print-effective-config", {"seed": 4, "n": 2},
        ("44736bfdeeb699ec13ad2ca49335490d", 0, "")),
    "flag beats file for p": (
        "verify --p 2 --config {cfg}", {"p": 3},
        ("52c63cb5ae054b67f0fd97150978c9ec", 0, "")),
    "file report": (
        "--config {cfg} verify --p 2", {"n": 2, "seed": 5, "output": None},
        ("5f5147728d5a26f04473a57d958b26b5", 0, "")),
    "file format": (
        "thresholds --p 2 --n 1..2 --config {cfg}", {"format": "csv"},
        ("62b93b644a11d89f565270204fd72ee7", 0, "")),
    "file seed null": (
        "verify --p 2 --config {cfg} --print-effective-config", {"seed": None},
        ("866f8f81aa8e1adbedfb4ea90c54a432", 0, "")),
    "file delta null": (
        "simulate --p 2 --L 1000 --channel noiseless --seed 1 --config {cfg}", {"delta": None},
        (NO_OUTPUT, 3, "config error: config key 'delta': invalid value None")),
    "file workers null": (
        "simulate --p 2 --L 1000 --channel noiseless --seed 1 --config {cfg}", {"workers": None},
        (NO_OUTPUT, 3, "config error: config key 'workers': invalid value None")),
    "file n null": (
        "verify --p 2 --config {cfg}", {"n": None},
        (NO_OUTPUT, 3, "config error: invalid extension degree 'None'")),
    "file value checked under a flag": (
        "simulate --p 2 --L 1000 --channel noiseless --seed 1 --delta 0.02 --config {cfg}",
        {"delta": "x"},
        (NO_OUTPUT, 3, "config error: config key 'delta': invalid value 'x'")),
    "file common value checked under a flag": (
        "--seed 2 --config {cfg} verify --p 2", {"seed": "x"},
        (NO_OUTPUT, 3, "config error: config key 'seed': invalid value 'x'")),
    "file keys of another command": (
        "verify --p 2 --config {cfg} --print-effective-config", {"L": 5, "delta": "x"},
        ("866f8f81aa8e1adbedfb4ea90c54a432", 0, "")),
    "file command key": (
        "verify --p 2 --config {cfg}", {"command": "classes"},
        (NO_OUTPUT, 3, "config error: unknown config key 'command'")),
    "file echo key": (
        "verify --p 2 --config {cfg}", {"print_effective_config": True},
        (NO_OUTPUT, 3, "config error: unknown config key 'print_effective_config'")),
    "file config key": (
        "verify --p 2 --config {cfg}", {"config": "other.json"},
        (NO_OUTPUT, 3, "config error: unknown config key 'config'")),
    "file missing": (
        "verify --p 2 --config {cfg}", None,
        (NO_OUTPUT, 3,
         "config error: cannot read config file: [Errno 2] No such file or directory: '{cfg}'")),
    "file malformed": (
        "verify --p 2 --config {cfg}", "{",
        (NO_OUTPUT, 3,
         "config error: malformed config file: Expecting property name enclosed in double "
         "quotes: line 1 column 2 (char 1)")),
    "file not an object": (
        "verify --p 2 --config {cfg}", "[]",
        (NO_OUTPUT, 3, "config error: config file must hold a JSON object")),
    "file bad choice": (
        "simulate --p 2 --L 1000 --seed 1 --config {cfg}", {"channel": "x"},
        (NO_OUTPUT, 3,
         "config error: config key 'channel': 'x' is not one of ['noiseless', 'pauli-iid', "
         "'intercept-resend', 'grouped-attack', 'per-qubit-attack']")),
    "file gives required": (
        "simulate --seed 1 --config {cfg} --print-effective-config",
        {"p": 2, "L": 10, "channel": "noiseless"},
        ("87f33e474e75ceeef7d0b852951008ce", 0, "")),
    "required missing": (
        "simulate --p 2 --config {cfg}", {"L": 10},
        (NO_OUTPUT, 2,
         "quditqkd simulate: error: the following arguments are required: --channel")),
    "help": (
        "--help", None,
        ("c44ef6862ecc4972da534b2847d4c227", 0, "")),
    "simulate help": (
        "simulate --help", None,
        ("46d758ed925081ceccd563c2baaa6c31", 0, "")),
    "no command": (
        "", None,
        (NO_OUTPUT, 2, "quditqkd: error: the following arguments are required: command")),
    "unknown command": (
        "frobnicate", None,
        (NO_OUTPUT, 2,
         "quditqkd: error: argument command: invalid choice: 'frobnicate' (choose from "
         "'build-t', 'verify', 'classes', 'thresholds', 'simulate', 'attack')")),
    "unknown flag": (
        "verify --p 2 --frob", None,
        (NO_OUTPUT, 2, "quditqkd: error: unrecognized arguments: --frob")),
    "bad flag type": (
        "verify --p two", None,
        (NO_OUTPUT, 2, "quditqkd verify: error: argument --p: invalid int value: 'two'")),
    "ambiguous abbreviation": (
        "simulate --p 2 --ep 3", None,
        (NO_OUTPUT, 2,
         "quditqkd simulate: error: ambiguous option: --ep could match --epsilon-i, "
         "--ep-rounds-max, --ep-rounds")),
}


def _outcome(tmp_path, argv, file):
    cfg = tmp_path / "cfg.json"
    if file is not None:
        cfg.write_text(file if isinstance(file, str) else json.dumps(file))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main([a.replace("{cfg}", str(cfg)) for a in argv.split()])
    out, err = (s.getvalue().replace(str(cfg), "{cfg}") for s in (out, err))
    lines = err.splitlines()
    return hashlib.md5(out.encode()).hexdigest(), code, lines[-1] if lines else ""


@pytest.mark.parametrize("case", OPTION_RESOLUTION)
def test_option_resolution_is_pinned(tmp_path, monkeypatch, case):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps --help to the terminal width
    monkeypatch.delenv(cli.SEED_ENV, raising=False)
    argv, file, pinned = OPTION_RESOLUTION[case]
    assert _outcome(tmp_path, argv, file) == pinned


def test_config_file_unknown_key(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"frobnicator": 1}))
    res = run_cli(["--config", str(cfg), "thresholds", "--p", "2", "--n", "1"])
    assert res.returncode == 3
    assert "unknown config key" in res.stderr


@pytest.mark.parametrize("values", [{"delta": "x"}, {"test_count": 1.5}, {"format": "xml"},
                                    {"delta": None}, {"workers": None}, {"format": None}])
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


def test_simulate_rejects_a_field_with_more_sets_than_a_byte_indexes():
    # N = 256 has 257 sets, more than 8-bit set indices hold: a config error,
    # not a run that never returns
    res = run_cli(["simulate", "--p", "2", "--n", "8", "--L", "1000", "--channel", "noiseless",
                   "--abort-threshold", "0.5", "--seed", "1"], timeout=30)
    assert res.returncode == 3 and res.stdout == ""
    assert res.stderr == ("config error: simulation supports N <= 255 (N + 1 <= 256 sets), "
                          "got N = 256\n")


@pytest.mark.parametrize("flags", [["--trials", "0"], ["--trials", "2", "--workers", "0"]])
def test_simulate_rejects_nonpositive_trials_and_workers(flags):
    res = run_cli(
        ["simulate", "--p", "2", "--n", "1", "--L", "1000", "--channel", "noiseless",
         "--seed", "1"] + flags
    )
    assert res.returncode == 3
    assert res.stderr.startswith("config error:")


@pytest.mark.parametrize("L", ["5", "30"])
def test_simulate_too_few_particles_is_a_protocol_abort(tmp_path, L):
    out = tmp_path / "sim.json"
    res = run_cli(
        ["--output", str(out), "--seed", "1", "simulate", "--p", "2", "--n", "1", "--L", L,
         "--channel", "noiseless"]
    )
    assert res.returncode == 0, res.stderr
    result = json.loads(out.read_text())["result"]
    assert result["aborted"] is True and result["key_length"] == 0
    if L == "5":
        assert result["abort_reason"] == "set 0 holds 0 particles, cannot test 1"


def test_print_effective_config():
    res = run_cli(
        ["--print-effective-config", "--seed", "9", "simulate", "--p", "2", "--n", "2",
         "--L", "1000", "--channel", "noiseless"]
    )
    assert res.returncode == 0
    eff = json.loads(res.stdout)
    assert eff["seed"] == 9 and eff["L"] == 1000
    # the test share the run uses when neither --test-count nor --test-fraction is given
    assert eff["test_fraction"] == 0.01 and eff["test_count"] is None
    # the library's defaults are the CLI's
    for key in ("delta", "epsilon_i", "ep_rounds_max"):
        assert eff[key] == getattr(protocol.ProtocolConfig, key), key


def test_io_error_exit_code(tmp_path):
    res = run_cli(["--output", "/nonexistent-dir/x.json", "thresholds", "--p", "2", "--n", "1"])
    assert res.returncode == 5


def test_output_that_is_not_a_regular_file_is_written_in_place(capsys, tmp_path):
    # a rename over a FIFO would replace it with a regular file, and its reader
    # would never get the report
    argv = ["thresholds", "--p", "2", "--n", "1..3"]
    assert cli.main(argv) == 0
    want = capsys.readouterr().out
    fifo = tmp_path / "report"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_text()), daemon=True)
    reader.start()
    assert cli.main(["--output", str(fifo)] + argv) == 0
    reader.join(timeout=30)
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert len(got) == 1
    report = json.loads(got[0])
    assert report["config"].pop("output") == str(fifo)
    assert report == json.loads(want)


def test_output_keeps_the_mode_a_plain_write_gives(tmp_path):
    # a new report gets 0o666 less the umask and an existing one keeps its
    # own mode, as open(path, "w") gives, not the temporary file's 0o600
    argv = ["thresholds", "--p", "2", "--n", "2"]
    new, old = tmp_path / "new.json", tmp_path / "old.json"
    old.write_text("{}")
    old.chmod(0o640)
    umask = os.umask(0o022)
    try:
        with redirect_stdout(io.StringIO()):
            for path in (new, old):
                assert cli.main(["--output", str(path)] + argv) == 0
    finally:
        os.umask(umask)
    assert stat.S_IMODE(os.stat(new).st_mode) == 0o644
    assert stat.S_IMODE(os.stat(old).st_mode) == 0o640
    assert json.loads(old.read_text())["command"] == "thresholds"


def test_output_onto_a_symlink_writes_its_target(capsys, tmp_path):
    # a rename over the link would replace the link and leave the target stale
    argv = ["thresholds", "--p", "2", "--n", "1..3"]
    assert cli.main(argv) == 0
    want = capsys.readouterr().out
    target, link = tmp_path / "tgt.json", tmp_path / "link.json"
    target.write_text("{}")
    link.symlink_to(target)
    assert cli.main(["--output", str(link)] + argv) == 0
    assert link.is_symlink() and os.readlink(link) == str(target)
    report = json.loads(target.read_text())
    assert report["config"].pop("output") == str(link)
    assert report == json.loads(want)
