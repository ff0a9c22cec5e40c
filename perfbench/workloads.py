"""The benchmark's workloads: the CLI invocations of one op and the check
of their reports.

Every bound a check applies comes from the analytic model in
``quditqkd.rates`` and ``quditqkd.toperator`` at a fixed z, never from a
choice of seed.  Checks read the channel and sizes from the report's own
``config``, so they also hold for smaller inputs (the benchmark's tests
use that).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from quditqkd.fields import make_field
from quditqkd.rates import ErrorDistribution, ep_step, worst_case_distribution
from quditqkd.toperator import choose_M, conjugation_tables, equiv_classes, find_char_poly

Z = 6.0                 # two-sided z of every statistical check
RESIDUAL_TOL = 1e-10    # the package's own verification tolerance
TRIALS = 20             # trials per trials-small op
T_SWEEP = ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1), (2, 4))


def nproc() -> int:
    return len(os.sched_getaffinity(0))


# ----------------------------------------------------------------------
# Analytic predictions
# ----------------------------------------------------------------------

def raw_label_rates(gf, config: dict) -> np.ndarray:
    """The channel's pre-sift label distribution as an (N, N) array."""
    N = gf.N
    if config["channel"] == "grouped-attack":
        rates = np.zeros((N, N))
        rates[0, :] = config["q"] / N   # measurement twirl: (0, c), c uniform
        rates[0, 0] += 1.0 - config["q"]
        return rates
    if config["channel"] == "pauli-iid":
        partition = equiv_classes(gf, choose_M(gf, find_char_poly(gf)))
        return worst_case_distribution(gf, partition, 1.0 - config["qer"]).rates
    raise ValueError(f"no prediction for channel {config['channel']!r}")


def per_set_label_rates(gf, raw: np.ndarray) -> np.ndarray:
    """(N+1, N, N): the label distribution within each sifted set."""
    ca, cb = conjugation_tables(gf, choose_M(gf, find_char_poly(gf)))
    out = np.zeros((gf.N + 1, gf.N, gf.N))
    for k in range(gf.N + 1):
        np.add.at(out[k], (ca[k], cb[k]), raw)
    return out


def _within(label: str, value: float, mean: float, sd: float, slack: float = 0.0) -> list[str]:
    if abs(value - mean) <= Z * sd + slack:
        return []
    return [f"{label} {value:.6g} is {abs(value - mean) / max(sd, 1e-300):.1f} sd "
            f"from its prediction {mean:.6g}"]


# ----------------------------------------------------------------------
# Report checks: each returns a list of problems, empty when correct
# ----------------------------------------------------------------------

def _parse(text: str) -> dict:
    report = json.loads(text)
    return report["config"], report["result"], make_field(report["field"]["p"], report["field"]["n"])


def check_single_run(texts: list[str]) -> list[str]:
    """One explicit-parameter ``simulate`` run (sim-large)."""
    config, res, gf = _parse(texts[0])
    N = gf.N
    if res["aborted"] or not res["keys_match"]:
        return [f"run aborted ({res['abort_reason']}) or keys differ"]
    per_set = per_set_label_rates(gf, raw_label_rates(gf, config))
    err = 1.0 - per_set[:, 0, :].sum(axis=1)          # P(spin label != 0) per set
    tests = config["test_count"]
    problems = _within("QER estimate", res["qer_estimate"], err.sum() / N,
                       math.sqrt((err * (1 - err)).sum() / tests) / N)
    sbmer = err.mean()
    problems += _within("sifted SBMER", res["empirical_sbmer"], sbmer,
                        math.sqrt(sbmer * (1 - sbmer) / res["n_sifted"]))
    dist = ErrorDistribution(gf, per_set.mean(axis=0), check=False)
    pool = res["n_sifted"] - (N + 1) * tests
    if len(res["survivors_per_round"]) != config["ep_rounds"]:
        problems.append(f"{len(res['survivors_per_round'])} purification rounds, "
                        f"want {config['ep_rounds']}")
    for k, survivors in enumerate(res["survivors_per_round"], 1):
        pairs, keep = pool // 2, float((dist.row_sums() ** 2).sum())
        problems += _within(f"round {k} survivors", survivors, pairs * keep,
                            math.sqrt(pairs * keep * (1 - keep)), slack=1.0)
        dist, pool = ep_step(dist), survivors
    if res["key_length"] != pool // config["pec_r"]:
        problems.append(f"key length {res['key_length']} != {pool} // {config['pec_r']}")
    return problems


def check_trials(texts: list[str]) -> list[str]:
    """A ``simulate --trials`` run with automatic parameters (trials-small)."""
    config, res, gf = _parse(texts[0])
    trials = res["trials"]
    if len(trials) != config["trials"]:
        return [f"{len(trials)} trial reports, want {config['trials']}"]
    bad = [t["seed"] for t in trials if t["aborted"] or not t["keys_match"]]
    if bad:
        return [f"{len(bad)} trials aborted or disagree on the key"]
    per_set = per_set_label_rates(gf, raw_label_rates(gf, config))
    err = 1.0 - per_set[:, 0, :].sum(axis=1)
    var = 0.0
    for t in trials:
        tests = np.maximum(np.floor(np.array(t["set_sizes"]) * config["test_fraction"]), 1)
        var += float((err * (1 - err) / tests).sum()) / gf.N**2
    mean = sum(t["qer_estimate"] for t in trials) / len(trials)
    return _within("mean QER estimate", mean, err.sum() / gf.N, math.sqrt(var) / len(trials))


def check_verify(texts: list[str]) -> list[str]:
    """One ``verify`` report per field of the sweep (t-sweep)."""
    problems = []
    for text in texts:
        report = json.loads(text)
        res, N = report["result"], report["field"]["N"]
        if not res["all_ok"]:
            problems.append(f"N={N}: verification not all_ok")
        for key in ("unitarity_residual", "conjugation_residual",
                    "mub_max_deviation", "lambda_flatness"):
            if not res[key] < RESIDUAL_TOL:
                problems.append(f"N={N}: {key} {res[key]:.3g} >= {RESIDUAL_TOL}")
    return problems


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    fields: tuple[tuple[int, int], ...]          # (p, n) whose set-up setup_s times
    particles: int                               # transmitted particles per op
    argvs: Callable[[int], list[list[str]]]     # simulator seed -> CLI invocations
    check: Callable[[list[str]], list[str]]      # report texts -> problems


def _sim_large(seed: int) -> list[list[str]]:
    return [["simulate", "--p", "2", "--n", "4", "--L", "150000000",
             "--channel", "grouped-attack", "--q", "0.84", "--delta", "0.0065",
             "--ep-rounds", "4", "--pec-r", "25", "--test-count", "5190",
             "--seed", str(seed)]]


def _trials_small(seed: int) -> list[list[str]]:
    return [["simulate", "--p", "2", "--n", "2", "--L", "1000000",
             "--channel", "pauli-iid", "--qer", "0.4", "--trials", str(TRIALS),
             "--workers", str(min(2, nproc())), "--seed", str(seed)]]


def _t_sweep(seed: int) -> list[list[str]]:
    return [["verify", "--p", str(p), "--n", str(n)] for p, n in T_SWEEP]


# Why each workload exists is in README.md and BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("sim-large", ((2, 4),), 150_000_000, _sim_large, check_single_run),
        Workload("trials-small", ((2, 2),), TRIALS * 1_000_000, _trials_small, check_trials),
        Workload("t-sweep", T_SWEEP, 0, _t_sweep, check_verify),
    )
}
