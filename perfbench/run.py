"""Benchmark of the quditqkd command line, run from the repository root:

    python3 perfbench/run.py --workload sim-large --seed 1 --seconds 30 --trace 0

One process runs one workload: a checked warm-up op, then closed-loop ops
(one client, no think time) of ``quditqkd.cli.main`` until --seconds have
passed.  With --trace 0 it reports the end-to-end metrics; with --trace 1
it spends half the time untraced and half traced and reports the
per-layer metrics.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  See README.md.
"""

from __future__ import annotations

import argparse
import io
import json
import platform
import resource
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7

END_TO_END = {"op_rel_p50": "ref", "setup_s": "s", "peak_rss_mb": "MB"}
REF_ELEMENTS = 1 << 19

LAYER_TIMES = (
    "cli.self_s",
    "protocol.body_self_s",
    "protocol.sample_raw_labels_s",
    "protocol.estimate_qer_s",
    "protocol.ep_round_self_s",
    "protocol.pec_self_s",
    "protocol.trials_self_s",
    "kernels.ep_round_s",
    "kernels.group_sums_s",
    "kernels.plurality_s",
    "rates.analytic_s",
    "toperator.params_s",
    "toperator.build_T_s",
    "toperator.verify_T_s",
)
EP_ROUNDS_REPORTED = 4
PER_LAYER = {
    **{name: "s" for name in LAYER_TIMES},
    "cli.report_bytes": "B",
    "protocol.pool_bytes": "B",
    "protocol.trials_concurrency": "ratio",
    "protocol.sifted": "count",
    **{f"protocol.ep_survival.r{k}": "ratio" for k in range(1, EP_ROUNDS_REPORTED + 1)},
    "protocol.key_yield": "ratio",
    **{f"kernels.{k}.{unit}": u
       for k in ("ep_round", "group_sums", "plurality")
       for unit, u in (("elements", "count"), ("bytes", "B"))},
    "rates.calls": "count",
    "fields.scalar_calls": "count",
    "trace.op_wall_s": "s",
    "trace.untraced_op_s_p50": "s",
    "trace.traced_op_s_p50": "s",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "ratio",
}


# ----------------------------------------------------------------------
# Running ops
# ----------------------------------------------------------------------

def op_seed(seed: int, index: int) -> int:
    """The simulator seed of op *index* under benchmark seed *seed*."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0] % 2**31)


@dataclass
class OpResult:
    index: int
    argvs: list
    wall: float
    texts: list
    problems: list
    ref: float = 0.0          # reference-task seconds around the op
    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)


class Runner:
    """Runs and checks the ops of one workload against ``cli.main``."""

    def __init__(self, workload, cli, seed: int):
        self.workload, self.cli, self.seed = workload, cli, seed
        self.tracer = None

    def op(self, index: int) -> OpResult:
        argvs = self.workload.argvs(op_seed(self.seed, index))
        texts, problems, wall = [], [], 0.0
        for argv in argvs:
            out, err = io.StringIO(), io.StringIO()
            t0 = perf_counter()
            try:
                with redirect_stdout(out), redirect_stderr(err):
                    code = self.cli.main(argv)
            except Exception as exc:  # a traceback is a failed op, not a crash
                code = f"exception {exc!r}"
            wall += perf_counter() - t0
            if code != 0:
                problems.append(f"{' '.join(argv)}: exit {code}: {err.getvalue().strip()}")
            texts.append(out.getvalue())
        result = OpResult(index, argvs, wall, texts, problems)
        if self.tracer is not None:
            result.spans, result.counts = self.tracer.drain()
        if not problems:
            try:
                result.problems = self.workload.check(texts)
            except (KeyError, IndexError, TypeError, ValueError) as exc:
                result.problems = [f"malformed report: {exc!r}"]
        return result


def _ref_step(a: int, b: int) -> int:
    return (a * b + 1) % 251


def make_reference():
    """A fixed task that never touches the package: scalar Python calls and
    dict updates like the field arithmetic, then a NumPy gather like the
    simulator's, about 0.07 s together.  Timed before and after every op, it
    tracks the speed the shared machine gives this process at the moment, so
    op times divided by it (op_rel_p50) stay comparable when that speed
    drifts."""
    rng = np.random.default_rng(0)
    values = rng.integers(0, 16, REF_ELEMENTS, dtype=np.uint8)
    perm = rng.permutation(REF_ELEMENTS).astype(np.int32)

    def reference() -> float:
        t0 = perf_counter()
        table = {}
        for i in range(100_000):
            table[i % 997, i & 7] = _ref_step(i, table.get((i % 991, 3), 1))
        for _ in range(8):
            values[perm].sum()
        return perf_counter() - t0

    return reference


def measure(runner: Runner, seconds: float, warm: OpResult, reference) -> list[OpResult]:
    """Closed-loop ops until *seconds* have passed (at least one op), each
    bracketed by reference timings.  Op 0 repeats the warm-up's inputs, so
    its reports must match byte for byte."""
    ops = []
    before = reference()
    deadline = perf_counter() + seconds
    while not ops or perf_counter() < deadline:
        res = runner.op(len(ops))
        after = reference()
        res.ref, before = (before + after) / 2, after
        if res.index == 0 and res.texts != warm.texts:
            res.problems.append("reports differ from the warm-up run of the same seed")
        ops.append(res)
    return ops


def setup_seconds(workload) -> list[float]:
    """setup_s samples, each from a fresh interpreter."""
    cmd = [sys.executable, str(HERE / "setup_probe.py")] + [f"{p}:{n}" for p, n in workload.fields]
    env = {"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin", "PYTHONDONTWRITEBYTECODE": "1"}
    out = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        out.append(float(proc.stdout))
    return out


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------

def _run_attrs(args, out):
    return {"sifted": out.n_sifted, "key": out.key_length}


def _round_attrs(args, out):
    regs = args[1:5]
    return {"pairs": regs[0].size // 2, "survivors": out[0].size,
            "pool_bytes": sum(x.nbytes for x in regs)}


def _ep_kernel_attrs(args, out):
    # inputs a, b, s, bob, perm and the four surviving outputs
    return {"elements": args[4].size,
            "bytes": sum(x.nbytes for x in args[:5]) + sum(x.nbytes for x in out)}


def _group_kernel_attrs(args, out):
    # the (ell, r) input block and the ell outputs
    return {"elements": args[0].size, "bytes": args[0].nbytes + out.nbytes}


def instrument(tracer, cli, protocol, kernels, fields) -> None:
    """Wrap each name where its caller looks it up (see README.md)."""
    w = tracer.wrap
    w(cli, "main", "cli.self_s")
    for owner in (cli, protocol):
        w(owner, "run_protocol", "protocol.body_self_s", _run_attrs)
        for name in ("find_char_poly", "choose_M", "equiv_classes"):
            w(owner, name, "toperator.params_s")
        w(owner, "worst_case_distribution", "rates.analytic_s")
    w(cli, "run_trials", "protocol.trials_self_s")
    w(cli, "build_T", "toperator.build_T_s")
    w(cli, "verify_T", "toperator.verify_T_s")
    w(protocol, "sample_raw_labels", "protocol.sample_raw_labels_s")
    w(protocol, "estimate_qer", "protocol.estimate_qer_s")
    w(protocol, "locc2_ep_round", "protocol.ep_round_self_s", _round_attrs)
    w(protocol, "pec_majority", "protocol.pec_self_s")
    w(protocol, "conjugation_tables", "toperator.params_s")
    w(protocol, "ep_closed_form", "rates.analytic_s")
    w(kernels, "ep_round", "kernels.ep_round_s", _ep_kernel_attrs)
    w(kernels, "group_sums", "kernels.group_sums_s", _group_kernel_attrs)
    w(kernels, "plurality", "kernels.plurality_s", _group_kernel_attrs)
    for method in ("add", "sub", "mul", "pow", "trace"):
        tracer.count(fields.GF, method, "fields.scalar_calls")


def layer_metrics(untraced: list[OpResult], traced: list[OpResult]) -> dict[str, float]:
    """Per-layer metrics: times are means per traced op, attributed so that
    they sum to trace.op_wall_s; counts come from traced op 0, whose inputs
    are fixed by the seed."""
    from spans import attribute_wall

    times = dict.fromkeys(LAYER_TIMES, 0.0)
    op_wall = fan_in = fan_wall = 0.0
    for res in traced:
        shares, wall = attribute_wall(res.spans)
        for name, seconds in shares.items():
            times[name] += seconds / len(traced)
        op_wall += wall / len(traced)
        fans = {s.sid: s for s in res.spans if s.name == "protocol.trials_self_s"}
        fan_wall += sum(s.t1 - s.t0 for s in fans.values())
        fan_in += sum(s.t1 - s.t0 for s in res.spans
                      if s.name == "protocol.body_self_s" and s.parent in fans)

    first = traced[0]
    m = dict(times)
    m["cli.report_bytes"] = sum(len(t.encode()) for t in first.texts)
    runs = [s for s in first.spans if s.name == "protocol.body_self_s"]
    rounds: dict[int, list] = {s.sid: [] for s in runs}
    for s in sorted(first.spans, key=lambda s: s.t0):
        if s.name == "protocol.ep_round_self_s":
            rounds[s.parent].append(s.attrs)
    sifted = sum(s.attrs["sifted"] for s in runs)
    m["protocol.sifted"] = sifted
    m["protocol.key_yield"] = sum(s.attrs["key"] for s in runs) / sifted if sifted else 0.0
    m["protocol.pool_bytes"] = max((r[0]["pool_bytes"] for r in rounds.values() if r), default=0)
    m["protocol.trials_concurrency"] = fan_in / fan_wall if fan_wall else 0.0
    for k in range(EP_ROUNDS_REPORTED):
        done = [r[k] for r in rounds.values() if len(r) > k]
        pairs = sum(a["pairs"] for a in done)
        m[f"protocol.ep_survival.r{k + 1}"] = (
            sum(a["survivors"] for a in done) / pairs if pairs else 0.0)
    for kernel in ("ep_round", "group_sums", "plurality"):
        calls = [s.attrs for s in first.spans if s.name == f"kernels.{kernel}_s"]
        m[f"kernels.{kernel}.elements"] = sum(a["elements"] for a in calls)
        m[f"kernels.{kernel}.bytes"] = sum(a["bytes"] for a in calls)
    m["rates.calls"] = sum(1 for s in first.spans if s.name == "rates.analytic_s")
    m["fields.scalar_calls"] = first.counts.get("fields.scalar_calls", 0)
    m["trace.op_wall_s"] = op_wall
    m["trace.untraced_op_s_p50"] = statistics.median(r.wall for r in untraced)
    m["trace.traced_op_s_p50"] = statistics.median(r.wall for r in traced)
    m["trace.overhead_s"] = m["trace.traced_op_s_p50"] - m["trace.untraced_op_s_p50"]
    # the same comparison on reference-normalized op times, which the
    # machine's drift between the two halves does not move
    m["trace.overhead_frac"] = (statistics.median(r.wall / r.ref for r in traced)
                                / statistics.median(r.wall / r.ref for r in untraced) - 1)
    return m


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------

def _git_rev() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _cpu() -> dict:
    info = {"model": platform.processor() or None, "caches": {}}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["model"] = line.split(":", 1)[1].strip()
                break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            info["caches"][f"L{level}-{kind}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return info


def provenance(workload, seed: int, ops: list[OpResult]) -> dict:
    from quditqkd import _kernels
    from workloads import nproc

    return {
        "git_rev": _git_rev(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernel_path": "numba" if _kernels.USING_NUMBA else "numpy",
        "nproc": nproc(),
        "cpu": _cpu(),
        "workload": workload.name,
        "seed": seed,
        "op_argvs": {r.index: r.argvs for r in ops},
    }


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", help="also write provenance, per-op results and spans here")
    args = ap.parse_args(argv)
    if not (SRC / "quditqkd" / "cli.py").is_file():
        print(f"error: no quditqkd sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    setup = setup_seconds(workload)
    from quditqkd import _kernels, cli, fields, protocol
    from spans import Tracer

    runner = Runner(workload, cli, args.seed)
    reference = make_reference()
    warm = runner.op(0)
    if args.trace:
        untraced = measure(runner, args.seconds / 2, warm, reference)
        runner.tracer = Tracer()
        instrument(runner.tracer, cli, protocol, _kernels, fields)
        try:
            traced = measure(runner, args.seconds / 2, warm, reference)
        finally:
            runner.tracer.restore()
            runner.tracer = None
        timed = untraced + traced
    else:
        untraced = timed = measure(runner, args.seconds, warm, reference)
    ops = [warm] + timed
    failed = [r for r in ops if r.problems]
    for r in failed:
        print(f"op {r.index} failed: {'; '.join(r.problems)}", file=sys.stderr)

    walls = [r.wall for r in untraced]
    e2e = {
        "op_rel_p50": statistics.median(r.wall / r.ref for r in untraced),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    metrics = layer_metrics(untraced, traced) if args.trace else e2e
    units = PER_LAYER if args.trace else END_TO_END

    print(f"workload {workload.name}: {len(ops)} ops (1 warm-up), seed {args.seed}, "
          f"{'traced' if args.trace else 'untraced'}")
    for name, value in e2e.items():
        print(f"  {name:<28} {value:.6g} {END_TO_END[name]}")
    print(f"  {'op_s_p50':<28} {statistics.median(walls):.6g} s "
          f"(reference task {statistics.median(r.ref for r in untraced):.6g} s)")
    print(f"  {'failed_frac':<28} {len(failed) / len(ops):.6g} ({len(failed)}/{len(ops)})")
    if workload.particles:
        print(f"  {'particles_per_s':<28} {workload.particles * len(walls) / sum(walls):.6g} 1/s")
    print(f"  op_s quartiles over {len(walls)} ops: "
          + (", ".join(f"{q:.4g}" for q in statistics.quantiles(walls, n=4))
             if len(walls) > 1 else "n/a"))
    if args.trace:
        for name, value in metrics.items():
            print(f"  {name:<28} {value:.6g} {PER_LAYER[name]}")
    prov = provenance(workload, args.seed, ops)
    print("provenance " + json.dumps(prov, sort_keys=True))
    if args.record:
        record = {"provenance": prov, "trace": args.trace, "setup_s_samples": setup,
                  "metrics": metrics, "end_to_end": e2e,
                  "ops": [{"index": r.index, "wall": r.wall, "ref": r.ref,
                           "problems": r.problems}
                          for r in ops]}
        if args.trace:
            record["spans_op0"] = [vars(s) for s in traced[0].spans]
        Path(args.record).write_text(json.dumps(record, indent=1) + "\n")

    result = {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
