"""The names the benchmark wraps still exist and still run.

perfbench/run.py wraps functions of cli, protocol, _kernels and fields by
name; a rename or deletion there breaks the benchmark, so it is checked
here by loading the benchmark's own instrumentation and driving a small
traced run through it.
"""

import importlib.util
import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

from quditqkd import _kernels, cli, fields, protocol

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while it executes
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_scalar_field_methods_the_benchmark_counts_exist():
    for name in ("add", "sub", "mul", "pow", "trace"):
        assert callable(vars(fields.GF)[name]), name


def test_benchmark_instrumentation_wraps_and_restores(monkeypatch):
    run, spans = _load("run", monkeypatch), _load("spans", monkeypatch)
    originals = (cli.main, protocol.pec_majority, _kernels.group_sums, fields.GF.mul)
    tracer = spans.Tracer()
    run.instrument(tracer, cli, protocol, _kernels, fields)
    try:
        with redirect_stdout(io.StringIO()):
            assert cli.main(["simulate", "--p", "2", "--n", "2", "--L", "20000",
                             "--channel", "noiseless", "--seed", "1"]) == 0
        names = {s.name for s in tracer.spans}
        assert {"cli.self_s", "protocol.body_self_s", "toperator.params_s",
                "kernels.group_sums_s", "kernels.plurality_s"} <= names
        assert all(s.attrs["elements"] > 0 for s in tracer.spans
                   if s.name in ("kernels.group_sums_s", "kernels.plurality_s"))
    finally:
        tracer.restore()
    assert (cli.main, protocol.pec_majority, _kernels.group_sums, fields.GF.mul) == originals
