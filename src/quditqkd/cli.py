"""Batch command-line front end.

Subcommands: build-t, verify, thresholds, classes, simulate, attack.
Options may come from a JSON config file (--config); explicit flags
override file values and unknown file keys are rejected.  Reports are
written atomically as JSON or CSV and embed the tool version, the
resolved configuration, the seed, and the field modulus so a run can be
reproduced exactly.

Exit codes: 0 success (a protocol abort is a successful simulation),
2 usage error, 3 config semantics error (also a run too large for
memory), 4 internal failure (a broken invariant, or a ValueError raised
below every config check), 5 I/O failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
import tempfile
from dataclasses import asdict
from typing import Optional

import numpy as np

from . import __version__
from .exceptions import ConfigError, InvariantViolation
from .fields import make_field
from .protocol import ChannelModel, ProtocolConfig, run_protocol, run_trials
from .rates import attack_calculus, thresholds, worst_case_distribution
# verify_T is not called here; kept because benchmark instrumentation wraps cli.verify_T by name
from .toperator import build_T, choose_M, equiv_classes, find_char_poly, verify_T  # noqa: F401

SCHEMA_VERSION = 1
SEED_ENV = "QUDIT_QKD_SEED"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CONFIG = 3
EXIT_INVARIANT = 4
EXIT_IO = 5


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Every default is suppressed, so a parse holds exactly the options argv
    # gave; _resolve_options adds the rest.  The common options work before
    # or after the subcommand, and the later one wins.  Built once, never changed.
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--config", help="JSON config file; flags override its values")
    common.add_argument("--output", help="report path (default: stdout)")
    common.add_argument("--format", choices=("json", "csv"))
    common.add_argument("--seed", type=int, help=f"RNG seed (falls back to ${SEED_ENV})")
    common.add_argument("--print-effective-config", action="store_true",
                        help="echo the fully resolved configuration and exit")

    top = argparse.ArgumentParser(prog="quditqkd", description=__doc__, parents=[common])
    sub = top.add_subparsers(dest="command", required=True)

    def add_command(name):
        p = sub.add_parser(name, parents=[common], argument_default=argparse.SUPPRESS)
        p.add_argument("--p", type=int, help="prime characteristic (required)")
        p.add_argument("--n", help="extension degree (thresholds accepts a..b)")
        return p

    for name in ("build-t", "verify", "classes", "thresholds"):
        add_command(name)

    sim = add_command("simulate")
    sim.add_argument("--L", type=int, help="transmitted particles (required)")
    sim.add_argument(
        "--channel",
        help="(required)",
        choices=("noiseless", "pauli-iid", "intercept-resend", "grouped-attack", "per-qubit-attack"),
    )
    sim.add_argument("--qer", type=float, help="pauli-iid: worst-case channel with this QER")
    sim.add_argument("--q", type=float, help="intercept-resend / grouped-attack probability")
    sim.add_argument("--q-prime", type=float, help="per-qubit-attack probability")
    sim.add_argument("--test-count", type=int)
    sim.add_argument("--test-fraction", type=float)
    sim.add_argument("--delta", type=float)
    sim.add_argument("--epsilon-i", type=float)
    sim.add_argument("--abort-threshold", type=float)
    sim.add_argument("--ep-rounds-max", type=int)
    sim.add_argument("--ep-rounds", type=int)
    sim.add_argument("--pec-r", type=int)
    sim.add_argument("--trials", type=int)
    sim.add_argument("--workers", type=int, help="threads for --trials > 1, at most one per CPU")

    add_command("attack").add_argument("--q", type=float, help="attack probability (required)")
    return top


# every option with a value when neither argv nor the config file gives one;
# the rest default to None
_DEFAULTS = {"format": "json", "n": "1", "delta": 0.01, "epsilon_i": 0.01, "ep_rounds_max": 4,
             "trials": 1, "workers": 4}

# argparse is not told: a config file may supply these (see _resolve_options)
_REQUIRED = {"build-t": ("p",), "verify": ("p",), "classes": ("p",), "thresholds": ("p",),
             "simulate": ("p", "L", "channel"), "attack": ("p", "q")}

# options that steer the run itself: no config file sets them, no report records them
_RUN_KEYS = ("command", "config", "print_effective_config")


def _subparsers(parser: argparse.ArgumentParser) -> argparse._SubParsersAction:
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))


def _resolve_options(parser: argparse.ArgumentParser, given: dict) -> argparse.Namespace:
    """Every option of the subcommand, lowest precedence first: None or its
    _DEFAULTS value, then the config file, then the options argv gave.  A
    required option that is still None is a usage error (exit 2)."""
    sub = _subparsers(parser).choices[given["command"]]
    actions = {a.dest: a for a in sub._actions if a.dest != "help"}
    values = {k: _DEFAULTS.get(k) for k in actions}
    if given.get("config"):
        values.update(_read_config_file(given["config"], parser, actions, given))
    values.update(given)
    missing = [f"--{k}" for k in _REQUIRED[given["command"]] if values[k] is None]
    if missing:
        sub.error("the following arguments are required: " + ", ".join(missing))
    return argparse.Namespace(**values)


def _read_config_file(path: str, parser: argparse.ArgumentParser,
                      actions: dict[str, argparse.Action], given: dict) -> dict:
    """The file's values for the subcommand's options that argv left unset.
    A key no subcommand has is an error; one another subcommand has is ignored."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed config file: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    flag_keys = {a.dest for p in _subparsers(parser).choices.values() for a in p._actions}
    flag_keys -= {"help", *_RUN_KEYS}
    values = {}
    for key, value in data.items():
        attr = key.replace("-", "_")
        if attr not in flag_keys:
            raise ConfigError(f"unknown config key {key!r}")
        if attr in actions and attr not in given:
            values[attr] = _convert_file_value(actions[attr], key, value)
    return values


def _convert_file_value(action: argparse.Action, key: str, value):
    """A config-file value checked as argparse checks the flag's text; null
    is accepted only where the option defaults to None."""
    if value is None and action.dest not in _DEFAULTS:
        return None
    try:
        out = action.type(str(value)) if action.type else str(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config key {key!r}: invalid value {value!r}") from exc
    if action.choices is not None and out not in action.choices:
        raise ConfigError(f"config key {key!r}: {value!r} is not one of {list(action.choices)}")
    return out


def _resolve_seed(args: argparse.Namespace) -> Optional[int]:
    if args.seed is not None:
        return args.seed
    env = os.environ.get(SEED_ENV)
    try:
        return int(env) if env else None
    except ValueError as exc:
        raise ConfigError(f"${SEED_ENV} is not an integer: {env!r}") from exc


def _parse_degree_range(text: str) -> list[int]:
    try:
        lo, sep, hi = text.partition("..")
        degrees = list(range(int(lo), int(hi if sep else lo) + 1))
    except ValueError as exc:
        raise ConfigError(f"invalid extension degree range {text!r}") from exc
    if not degrees:
        raise ConfigError(f"empty extension degree range {text!r}")
    if degrees[0] < 1:
        raise ConfigError(f"extension degrees must be positive, got {text!r}")
    return degrees


def _degree(args) -> int:
    try:
        n = int(args.n)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid extension degree {args.n!r}") from exc
    if n < 1:
        raise ConfigError(f"extension degree must be positive, got {n}")
    return n


def _report_skeleton(args, gf=None, seed=None) -> dict:
    resolved = {
        k: v for k, v in sorted(vars(args).items()) if k not in _RUN_KEYS and v is not None
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
    path = os.path.realpath(path)  # through a symlink to its target, as open() writes
    if os.path.exists(path) and not os.path.isfile(path):
        # a FIFO or a device: a rename would replace it with a regular file
        with open(path, "w") as fh:
            fh.write(text)
        return
    # the mode open(path, "w") leaves, not mkstemp's 0o600: the file's own, else 0o666 less the umask
    umask = os.umask(0)
    os.umask(umask)
    mode = os.stat(path).st_mode & 0o7777 if os.path.exists(path) else 0o666 & ~umask
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), prefix=".quditqkd-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.chmod(tmp, mode)
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
    report = _report_skeleton(args, gf, seed)
    report["result"] = asdict(top.report)
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


# the simulate report's config, null where unset (--workers cannot change results)
_SIM_CONFIG_KEYS = (
    "L", "channel", "qer", "q", "q_prime", "test_count", "test_fraction", "delta",
    "epsilon_i", "abort_threshold", "ep_rounds_max", "ep_rounds", "pec_r", "trials",
)


def _cmd_simulate(args, seed):
    for name in ("trials", "workers"):
        if getattr(args, name) < 1:
            raise ConfigError(f"--{name} must be at least 1, got {getattr(args, name)}")
    if seed is None:
        raise ConfigError(f"simulate requires a seed (--seed, config file, or ${SEED_ENV})")
    if seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {seed}")
    gf = make_field(args.p, _degree(args))
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
    report["config"] = {k: getattr(args, k) for k in _SIM_CONFIG_KEYS}
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
    report["result"] = asdict(rep)
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
    try:
        args = parser.parse_args(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        args = _resolve_options(parser, vars(args))
        seed = _resolve_seed(args)
        # the default test share is set before the echo, so that it shows the share the run uses
        if args.command == "simulate" and args.test_count is None and args.test_fraction is None:
            args.test_fraction = 0.01
        if args.print_effective_config:
            eff = {k: v for k, v in sorted(vars(args).items()) if k != "print_effective_config"}
            eff["seed"] = seed
            sys.stdout.write(json.dumps(eff, indent=2, sort_keys=True, default=str) + "\n")
            return EXIT_OK
        _COMMANDS[args.command](args, seed)
        return EXIT_OK
    except SystemExit as exc:  # usage error from _resolve_options
        return int(exc.code)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError:
        print(f"config error: out of memory at L={getattr(args, 'L', None)}", file=sys.stderr)
        return EXIT_CONFIG
    except InvariantViolation as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except ValueError as exc:  # raised below every config check: a fault of the program
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INVARIANT
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
