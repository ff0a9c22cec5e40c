"""Batch command-line front end.

Subcommands: build-t, verify, thresholds, classes, simulate, attack.
Options may come from a JSON config file (--config); explicit flags
override file values and unknown file keys are rejected.  Reports are
written atomically as JSON or CSV and embed the tool version, the
resolved configuration, the seed, and the field modulus so a run can be
reproduced exactly.

Exit codes: 0 success (a protocol abort is a successful simulation),
2 usage error, 3 config semantics error, 4 internal invariant failure,
5 I/O failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import tempfile
from typing import Optional

import numpy as np

from . import __version__
from .exceptions import ConfigError, InvariantViolation
from .fields import make_field
from .protocol import ChannelModel, ProtocolConfig, run_protocol, run_trials
from .rates import attack_calculus, thresholds, worst_case_distribution
from .toperator import build_T, choose_M, equiv_classes, find_char_poly, verify_T

SCHEMA_VERSION = 1
SEED_ENV = "QUDIT_QKD_SEED"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CONFIG = 3
EXIT_INVARIANT = 4
EXIT_IO = 5


def _build_parser() -> argparse.ArgumentParser:
    # common options are accepted both before and after the subcommand;
    # SUPPRESS keeps an unset late occurrence from clobbering an early one
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=argparse.SUPPRESS,
                        help="JSON config file; flags override its values")
    common.add_argument("--output", default=argparse.SUPPRESS, help="report path (default: stdout)")
    common.add_argument("--format", choices=("json", "csv"), default=argparse.SUPPRESS)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help=f"RNG seed (falls back to ${SEED_ENV})")
    common.add_argument("--print-effective-config", action="store_true",
                        default=argparse.SUPPRESS,
                        help="echo the fully resolved configuration and exit")

    top = argparse.ArgumentParser(prog="quditqkd", description=__doc__, parents=[common])
    sub = top.add_subparsers(dest="command", required=True)

    def add_field(p):
        p.add_argument("--p", type=int, required=True, help="prime characteristic")
        p.add_argument("--n", default="1", help="extension degree (thresholds accepts a..b)")

    for name in ("build-t", "verify", "classes"):
        add_field(sub.add_parser(name, parents=[common]))

    thr = sub.add_parser("thresholds", parents=[common])
    add_field(thr)

    sim = sub.add_parser("simulate", parents=[common])
    add_field(sim)
    sim.add_argument("--L", type=int, required=True)
    sim.add_argument(
        "--channel",
        required=True,
        choices=("noiseless", "pauli-iid", "intercept-resend", "grouped-attack", "per-qubit-attack"),
    )
    sim.add_argument("--qer", type=float, help="pauli-iid: worst-case channel with this QER")
    sim.add_argument("--q", type=float, help="intercept-resend / grouped-attack probability")
    sim.add_argument("--q-prime", type=float, help="per-qubit-attack probability")
    sim.add_argument("--test-count", type=int)
    sim.add_argument("--test-fraction", type=float)
    sim.add_argument("--delta", type=float, default=0.01)
    sim.add_argument("--epsilon-i", type=float, default=0.01)
    sim.add_argument("--abort-threshold", type=float)
    sim.add_argument("--ep-rounds-max", type=int, default=4)
    sim.add_argument("--ep-rounds", type=int)
    sim.add_argument("--pec-r", type=int)
    sim.add_argument("--trials", type=int, default=1)
    sim.add_argument("--workers", type=int, default=4, help="thread fan-out for --trials > 1")

    atk = sub.add_parser("attack", parents=[common])
    add_field(atk)
    atk.add_argument("--q", type=float, required=True)
    return top


_FLAG_KEYS = {
    "output", "format", "seed", "p", "n", "L", "channel", "qer", "q", "q_prime",
    "test_count", "test_fraction", "delta", "epsilon_i", "abort_threshold",
    "ep_rounds_max", "ep_rounds", "pec_r", "trials", "workers",
}


def _subparsers(parser: argparse.ArgumentParser) -> argparse._SubParsersAction:
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))


def _merge_config_file(args: argparse.Namespace, parser: argparse.ArgumentParser,
                       argv: list[str]) -> None:
    """File values fill in only options that argv left at default."""
    if not args.config:
        return
    try:
        with open(args.config) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed config file: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    explicit = _explicit_flags(argv)
    actions = {a.dest: a for a in _subparsers(parser).choices[args.command]._actions}
    for key, value in data.items():
        attr = key.replace("-", "_")
        if attr not in _FLAG_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        if attr not in explicit and hasattr(args, attr):
            setattr(args, attr, _convert_file_value(actions[attr], key, value))


def _convert_file_value(action: argparse.Action, key: str, value):
    """A config-file value checked as argparse checks the flag's text; null
    is accepted only where the option defaults to unset."""
    if value is None and action.default in (None, argparse.SUPPRESS):
        return None
    try:
        out = action.type(str(value)) if action.type else str(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config key {key!r}: invalid value {value!r}") from exc
    if action.choices is not None and out not in action.choices:
        raise ConfigError(f"config key {key!r}: {value!r} is not one of {list(action.choices)}")
    return out


def _explicit_flags(argv: list[str]) -> set[str]:
    """Option dests that appear in argv.  argv is parsed again with every
    default suppressed, so argparse's own matching (abbreviations,
    --flag=value) decides which options were given."""
    probe = _build_parser()
    for p in (probe, *_subparsers(probe).choices.values()):
        for action in p._actions:
            action.default = argparse.SUPPRESS
    return set(vars(probe.parse_args(argv)))


def _resolve_seed(args: argparse.Namespace) -> Optional[int]:
    if getattr(args, "seed", None) is not None:
        return int(args.seed)
    env = os.environ.get(SEED_ENV)
    return int(env) if env else None


def _parse_degree_range(text: str) -> list[int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(text)]


def _degree(args) -> int:
    try:
        return int(args.n)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid extension degree {args.n!r}") from exc


def _report_skeleton(args, gf=None, seed=None) -> dict:
    resolved = {
        k: v for k, v in sorted(vars(args).items()) if k in _FLAG_KEYS and v is not None
    }
    out = {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "quditqkd", "version": __version__},
        "command": args.command,
        "seed": seed,
        "config": resolved,
    }
    if gf is not None:
        out["field"] = {"p": gf.p, "n": gf.n, "N": gf.N, "modulus": list(gf.modulus)}
    return out


def _write_atomic(path: Optional[str], text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".quditqkd-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _to_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    if rows:
        writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    return buf.getvalue()


def _emit(args, report: dict, csv_rows: Optional[list[dict]] = None) -> None:
    if args.format == "csv" and csv_rows is not None:
        _write_atomic(args.output, _to_csv(csv_rows))
    elif args.format == "csv":
        flat = [{"key": k, "value": json.dumps(v)} for k, v in sorted(report.items())]
        _write_atomic(args.output, _to_csv(flat))
    else:
        _write_atomic(args.output, json.dumps(report, indent=2, sort_keys=True) + "\n")


# ----------------------------------------------------------------------
# Command implementations
# ----------------------------------------------------------------------

def _cmd_build_t(args, seed):
    gf = make_field(args.p, _degree(args))
    c = find_char_poly(gf)
    params = choose_M(gf, c)
    top = build_T(gf, params)
    report = _report_skeleton(args, gf, seed)
    report["result"] = {
        "c": c,
        "M": [[params.alpha, params.beta], [params.beta, params.gamma]],
        "coefficients_re": np.round(top.coeffs.real, 15).tolist(),
        "coefficients_im": np.round(top.coeffs.imag, 15).tolist(),
        "matrix_re": np.round(top.matrix.real, 15).tolist(),
        "matrix_im": np.round(top.matrix.imag, 15).tolist(),
    }
    _emit(args, report)


def _cmd_verify(args, seed):
    gf = make_field(args.p, _degree(args))
    top = build_T(gf, choose_M(gf, find_char_poly(gf)))
    rep = verify_T(top)
    report = _report_skeleton(args, gf, seed)
    report["result"] = {
        "unitarity_residual": rep.unitarity_residual,
        "conjugation_residual": rep.conjugation_residual,
        "order_up_to_phase": rep.order_up_to_phase,
        "order_ok": rep.order_ok,
        "mub_powers_checked": rep.mub_powers_checked,
        "mub_max_deviation": rep.mub_max_deviation,
        "mub_ok": rep.mub_ok,
        "lambda_flatness": rep.lambda_flatness,
        "all_ok": rep.all_ok,
        "notes": rep.notes,
    }
    if not rep.all_ok:
        raise InvariantViolation("verification failed: " + json.dumps(report["result"]))
    _emit(args, report)


def _cmd_thresholds(args, seed):
    degrees = _parse_degree_range(args.n)
    if args.p != 2:
        raise ConfigError("threshold formulas exist only for characteristic 2")
    rows, full = [], []
    for n in degrees:
        t = thresholds(2**n)
        rows.append(
            {
                "N": t.N,
                "sbmer_percent": f"{100 * t.e_sbmer:.2f}",
                "ber_percent": f"{100 * t.e_ber:.2f}",
            }
        )
        full.append({"N": t.N, "e_qer": t.e_qer, "e_sbmer": t.e_sbmer, "e_ber": t.e_ber})
    report = _report_skeleton(args, None, seed)
    report["result"] = {"rows": rows, "full_precision": full}
    _emit(args, report, csv_rows=rows)


def _cmd_classes(args, seed):
    gf = make_field(args.p, _degree(args))
    params = choose_M(gf, find_char_poly(gf))
    classes = equiv_classes(gf, params)
    report = _report_skeleton(args, gf, seed)
    report["result"] = {
        "M": [[params.alpha, params.beta], [params.beta, params.gamma]],
        "classes": [[list(lbl) for lbl in cls] for cls in classes],
        "sizes": [len(cls) for cls in classes],
    }
    rows = [
        {"class_index": i, "size": len(cls), "members": ";".join(f"({a},{b})" for a, b in cls)}
        for i, cls in enumerate(classes)
    ]
    _emit(args, report, csv_rows=rows)


def _make_channel(args, gf) -> ChannelModel:
    kind = args.channel
    if kind == "noiseless":
        return ChannelModel.noiseless()
    if kind == "pauli-iid":
        if args.qer is None:
            raise ConfigError("pauli-iid channel needs --qer")
        params = choose_M(gf, find_char_poly(gf))
        dist = worst_case_distribution(gf, equiv_classes(gf, params), 1.0 - args.qer)
        return ChannelModel.pauli_iid(dist)
    if kind == "intercept-resend":
        if args.q is None:
            raise ConfigError("intercept-resend channel needs --q")
        return ChannelModel.intercept_resend(args.q)
    if kind == "grouped-attack":
        if args.q is None:
            raise ConfigError("grouped-attack channel needs --q")
        if gf.p != 2:
            raise ConfigError("grouped attack requires characteristic 2")
        return ChannelModel.grouped_qubit_attack(args.q)
    if args.q_prime is None:
        raise ConfigError("per-qubit-attack channel needs --q-prime")
    if gf.p != 2:
        raise ConfigError("per-qubit attack requires characteristic 2")
    return ChannelModel.per_qubit_attack(args.q_prime)


def _cmd_simulate(args, seed):
    for name in ("trials", "workers"):
        if getattr(args, name) < 1:
            raise ConfigError(f"--{name} must be at least 1, got {getattr(args, name)}")
    if seed is None:
        raise ConfigError(f"simulate requires a seed (--seed, config file, or ${SEED_ENV})")
    gf = make_field(args.p, _degree(args))
    if args.test_count is None and args.test_fraction is None:
        args.test_fraction = 0.01
    config = ProtocolConfig(
        gf=gf,
        L=args.L,
        rng_seed=seed,
        test_count=args.test_count,
        test_fraction=args.test_fraction,
        delta=args.delta,
        epsilon_i=args.epsilon_i,
        abort_threshold=args.abort_threshold,
        ep_rounds_max=args.ep_rounds_max,
        ep_rounds=args.ep_rounds,
        pec_r=args.pec_r,
    )
    channel = _make_channel(args, gf)
    report = _report_skeleton(args, gf, seed)
    report["config"] = {
        "L": args.L,
        "channel": args.channel,
        "qer": args.qer,
        "q": args.q,
        "q_prime": args.q_prime,
        "test_count": args.test_count,
        "test_fraction": args.test_fraction,
        "delta": args.delta,
        "epsilon_i": args.epsilon_i,
        "abort_threshold": args.abort_threshold,
        "ep_rounds_max": args.ep_rounds_max,
        "ep_rounds": args.ep_rounds,
        "pec_r": args.pec_r,
        "trials": args.trials,
    }
    if args.trials == 1:
        report["result"] = run_protocol(config, channel).to_dict()
        rows = [_sim_csv_row(report["result"])]
    else:
        results = run_trials(config, channel, args.trials, workers=args.workers)
        report["result"] = {"trials": [r.to_dict() for r in results]}
        rows = [_sim_csv_row(r.to_dict()) for r in results]
    _emit(args, report, csv_rows=rows)


def _sim_csv_row(res: dict) -> dict:
    keys = (
        "N", "L", "seed", "n_sifted", "qer_estimate", "aborted", "ep_rounds",
        "pec_r", "key_length", "keys_match", "key_mismatch_count",
        "empirical_sbmer", "empirical_ber", "phase_residual_rate",
    )
    return {k: res.get(k) for k in keys}


def _cmd_attack(args, seed):
    if args.p != 2:
        raise ConfigError("grouped attack requires characteristic 2")
    n = _degree(args)
    rep = attack_calculus(2**n, args.q)
    report = _report_skeleton(args, make_field(2, n), seed)
    report["result"] = {
        "N": rep.N,
        "q": rep.q,
        "eve_ber_at_N": rep.eve_ber_at_N,
        "eve_ber_at_2": rep.eve_ber_at_2,
        "eve_ber_at_16": rep.eve_ber_at_16,
        "q_interval": list(rep.q_interval),
        "q_in_interval": rep.q_in_interval,
        "sbmer_ceiling_p2": rep.sbmer_ceiling_p2,
        "sbmer_ceiling_podd": rep.sbmer_ceiling_podd,
        "per_qubit_q": rep.per_qubit_q,
        "per_qubit_six_state_ber": rep.per_qubit_six_state_ber,
        "defeats_qubit_schemes": rep.defeats_qubit_schemes,
        "survives_at_16": rep.survives_at_16,
    }
    _emit(args, report)


_COMMANDS = {
    "build-t": _cmd_build_t,
    "verify": _cmd_verify,
    "thresholds": _cmd_thresholds,
    "classes": _cmd_classes,
    "simulate": _cmd_simulate,
    "attack": _cmd_attack,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    for key, default in (
        ("config", None), ("output", None), ("format", "json"),
        ("seed", None), ("print_effective_config", False),
    ):
        if not hasattr(args, key):
            setattr(args, key, default)
    try:
        _merge_config_file(args, parser, argv)
        seed = _resolve_seed(args)
        if args.print_effective_config:
            eff = {k: v for k, v in sorted(vars(args).items()) if k != "print_effective_config"}
            eff["seed"] = seed
            sys.stdout.write(json.dumps(eff, indent=2, sort_keys=True, default=str) + "\n")
            return EXIT_OK
        _COMMANDS[args.command](args, seed)
        return EXIT_OK
    except ValueError as exc:
        # ConfigError and invalid field parameters both land here
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InvariantViolation as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
