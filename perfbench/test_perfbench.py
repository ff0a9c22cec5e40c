"""Tests of the benchmark itself: python3 -m pytest -q perfbench"""

import io
import json
import shutil
import subprocess
import sys
import types
from concurrent.futures import ThreadPoolExecutor
from contextlib import redirect_stdout
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run as bench  # noqa: E402
import workloads  # noqa: E402
from quditqkd import cli  # noqa: E402
from spans import Span, Tracer, attribute_wall  # noqa: E402


def _report(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert cli.main(argv) == 0
    return [buf.getvalue()]


def _edit(texts, fn):
    report = json.loads(texts[0])
    fn(report["result"])
    return [json.dumps(report)]


# -- attribution and tracing --------------------------------------------

def test_attribution_splits_parallel_children_and_sums_to_root():
    spans = [
        Span(0, "root", None, 0.0, 10.0),
        Span(1, "fan", 0, 1.0, 9.0),
        Span(2, "work", 1, 2.0, 6.0),   # two pool threads overlap on [3, 6]
        Span(3, "work", 1, 3.0, 8.0),
        Span(4, "leaf", 3, 4.0, 5.0),
    ]
    shares, wall = attribute_wall(spans)
    assert wall == 10.0
    assert sum(shares.values()) == pytest.approx(10.0)
    assert shares["root"] == pytest.approx(2.0)
    assert shares["fan"] == pytest.approx(2.0)        # [1, 2] and [8, 9]
    # [2, 3] alone, [3, 4] and [5, 6] shared by two work spans, [6, 8] alone;
    # on [4, 5] thread 1 is in work and thread 2 in leaf
    assert shares["work"] == pytest.approx(1 + 2 * 1 + 0.5 + 2)
    assert shares["leaf"] == pytest.approx(0.5)


def test_tracer_nests_pool_threads_and_counts_exactly():
    mod = types.SimpleNamespace()
    mod.leaf = lambda x: x + 1
    mod.trial = lambda x: mod.leaf(x)

    def fan(n):
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(mod.trial, range(n)))

    mod.fan = fan
    tracer = Tracer()
    tracer.wrap(mod, "fan", "fan")
    tracer.wrap(mod, "trial", "trial")
    tracer.count(mod, "leaf", "leaf_calls")
    try:
        assert mod.fan(50) == list(range(1, 51))
        spans, counts = tracer.drain()
        assert mod.fan(3) == [1, 2, 3]
        assert tracer.drain()[1]["leaf_calls"] == 3
    finally:
        tracer.restore()
    assert counts["leaf_calls"] == 50
    (root,) = [s for s in spans if s.name == "fan"]
    trials = [s for s in spans if s.name == "trial"]
    assert len(trials) == 50 and all(s.parent == root.sid for s in trials)
    assert mod.fan.__name__ == "fan"   # restored original


# -- output checks ----------------------------------------------------------

@pytest.fixture(scope="module")
def sim_texts():
    argv = workloads.WORKLOADS["sim-large"].argvs(11)[0]
    argv[argv.index("--L") + 1] = "15000000"
    return _report(argv)


def test_grouped_attack_prediction_matches_closed_forms():
    gf = workloads.make_field(2, 4)
    q = 0.84
    err = 1 - workloads.per_set_label_rates(
        gf, workloads.raw_label_rates(gf, {"channel": "grouped-attack", "q": q}))[:, 0, :].sum(1)
    assert err.sum() / 16 == pytest.approx(q * 15 / 16)
    assert err.mean() == pytest.approx(q * 15 / 17)


@pytest.mark.parametrize("corrupt", [
    lambda r: r.update(key_length=r["key_length"] + 1),
    lambda r: r.update(qer_estimate=r["qer_estimate"] + 0.02),
    lambda r: r.update(empirical_sbmer=r["empirical_sbmer"] * 1.01),
    lambda r: r["survivors_per_round"].__setitem__(1, int(r["survivors_per_round"][1] * 1.1)),
    lambda r: r["survivors_per_round"].pop(),
    lambda r: r.update(keys_match=False),
])
def test_single_run_check_rejects_corrupted_report(sim_texts, corrupt):
    assert workloads.check_single_run(sim_texts) == []
    assert workloads.check_single_run(_edit(sim_texts, corrupt))


def test_trials_check():
    argv = workloads.WORKLOADS["trials-small"].argvs(5)[0]
    argv[argv.index("--trials") + 1] = "2"
    texts = _report(argv)
    assert workloads.check_trials(texts) == []

    def shift(r):
        for t in r["trials"]:
            t["qer_estimate"] += 0.1

    assert workloads.check_trials(_edit(texts, shift))
    assert workloads.check_trials(_edit(texts, lambda r: r["trials"][1].update(keys_match=False)))
    assert workloads.check_trials(_edit(texts, lambda r: r["trials"].pop()))


def test_verify_check():
    texts = _report(["verify", "--p", "3", "--n", "1"])
    assert workloads.check_verify(texts) == []
    assert workloads.check_verify(_edit(texts, lambda r: r.update(mub_max_deviation=1e-9)))
    assert workloads.check_verify(_edit(texts, lambda r: r.update(all_ok=False)))


# -- failed ops are counted, not crashed on -----------------------------------

def test_runner_counts_corrupted_and_failing_ops(sim_texts):
    corrupted = _edit(sim_texts, lambda r: r.update(key_length=r["key_length"] + 1))[0]
    outputs = iter([corrupted, "not json", None])

    def fake_main(argv):
        text = next(outputs)
        if text is None:
            raise RuntimeError("boom")
        sys.stdout.write(text)
        return 0

    w = workloads.WORKLOADS["sim-large"]
    runner = bench.Runner(w, types.SimpleNamespace(main=fake_main), 1)
    results = [runner.op(i) for i in range(3)]
    assert "key length" in results[0].problems[0]
    assert "malformed report" in results[1].problems[0]
    assert "exception" in results[2].problems[0]


def test_traced_layers_sum_to_op_wall_and_keep_reports():
    base = workloads.WORKLOADS["trials-small"]

    def small(seed):
        argv = base.argvs(seed)[0]
        argv[argv.index("--trials") + 1] = "2"
        argv[argv.index("--L") + 1] = "200000"
        return [argv]

    w = replace(base, argvs=small, check=lambda texts: [])
    from quditqkd import _kernels, fields, protocol

    runner = bench.Runner(w, cli, 3)
    warm = runner.op(0)
    untraced = bench.measure(runner, 0.0, warm, bench.make_reference())
    runner.tracer = Tracer()
    bench.instrument(runner.tracer, cli, protocol, _kernels, fields)
    try:
        traced = bench.measure(runner, 0.0, warm, lambda: 1.0)
    finally:
        runner.tracer.restore()
    assert not traced[0].problems            # byte-identical to the untraced warm-up
    assert untraced[0].ref > 0 and traced[0].ref == 1.0
    m = bench.layer_metrics(untraced, traced)
    assert set(m) == set(bench.PER_LAYER)
    assert sum(m[k] for k in bench.LAYER_TIMES) == pytest.approx(m["trace.op_wall_s"])
    assert m["rates.calls"] > 0 and m["protocol.sifted"] > 0
    assert 0 < m["protocol.ep_survival.r1"] <= 1


def test_bare_directory_exits_nonzero_without_result(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "sim-large", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
