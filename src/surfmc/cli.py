"""Command-line interface: campaigns, fatal patterns, scaling probe, oracle check.

Exit codes: 0 success, 1 configuration error, 2 acceptance-suite failure.
``campaign --config FILE`` (JSON, keys matching the campaign config fields)
seeds the campaign's options; explicit flags override file values.  The
``SURFMC_WORKERS`` environment variable overrides the worker count.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import ConfigError, InvalidParameterError
from .harness import (
    ExperimentConfig,
    _CampaignInterrupted,
    fatal_pattern_suite,
    oracle_check,
    run_campaign,
    scaling_probe,
    write_plot_data,
    write_results_csv,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SUITE_FAILURE = 2


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(",") if v)
    except ValueError:
        raise argparse.ArgumentTypeError(f"comma-separated integers expected, got {text!r}")


def _float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in text.split(",") if v)
    except ValueError:
        raise argparse.ArgumentTypeError(f"comma-separated numbers expected, got {text!r}")


def _load_config_file(path: str | None) -> dict:
    if not path:
        return {}
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return data


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as a one-line ``ConfigError`` (exit 1)
    rather than a usage block with exit code 2."""

    def error(self, message: str):
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="surfmc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    camp = sub.add_parser("campaign", help="run a decoder-comparison campaign")
    camp.add_argument("--config", help="JSON file with campaign options")
    camp.add_argument("--L", type=_int_list, help="comma-separated code distances")
    camp.add_argument("--p", type=_float_list, help="comma-separated error rates")
    camp.add_argument("--model", choices=("depolarizing", "independent_xz"))
    camp.add_argument("--algorithms", help="comma-separated algorithm names")
    camp.add_argument("--n-sample", type=int, help="Metropolis steps per class (default L^4)")
    camp.add_argument("--beta-star-factor", type=float)
    camp.add_argument("--burn-in", type=int)
    camp.add_argument("--refine-steps", type=int)
    camp.add_argument("--target-errors", type=int, help="stop after this many logical errors")
    camp.add_argument("--trials", type=int, help="fixed trial budget")
    camp.add_argument("--seed", type=int)
    camp.add_argument("--workers", type=int)
    camp.add_argument("--out", default="results.csv", help="CSV output path")
    camp.add_argument("--plot-data-dir", help="emit two-column rate-ratio files here")

    fatal = sub.add_parser("fatal-patterns", help="deterministic low-p separation suite")
    fatal.add_argument("--L", type=_int_list, default=(3, 5, 7))

    probe = sub.add_parser("scaling-probe", help="minimal n_sample achieving matcher parity")
    probe.add_argument("--p", type=float, required=True)
    probe.add_argument("--L", type=_int_list, required=True)
    probe.add_argument("--seed", type=int, required=True)
    probe.add_argument("--confidence", type=float, default=0.95)
    probe.add_argument("--target-errors", type=int, default=200)
    probe.add_argument("--max-trials", type=int, default=50_000)
    probe.add_argument("--max-n-sample", type=int)

    oracle = sub.add_parser("oracle-check", help="sampler vs exact enumeration at desk scale")
    oracle.add_argument("--L", type=int, default=3)
    oracle.add_argument("--p", type=float, default=0.1)
    oracle.add_argument(
        "--syndromes", type=int, default=300,
        help="syndromes to compare (default 300); the pass bar is calibrated on the same "
        "syndromes, so a sound sampler can fail by chance at small counts: keep 300 or more",
    )
    oracle.add_argument("--n-sample-factor", type=int, default=10)
    oracle.add_argument("--seed", type=int, default=2024)
    return parser


def _campaign_config(args: argparse.Namespace) -> ExperimentConfig:
    values = _load_config_file(args.config)
    overrides = {
        "L_values": args.L,
        "p_values": args.p,
        "model_kind": args.model,
        "algorithms": args.algorithms,
        "n_sample": args.n_sample,
        "beta_star_factor": args.beta_star_factor,
        "burn_in": args.burn_in,
        "refine_steps": args.refine_steps,
        "target_logical_errors": args.target_errors,
        "max_trials": args.trials,
        "seed": args.seed,
        "workers": args.workers,
    }
    for key, value in overrides.items():
        if value is not None:
            values[key] = value
    if "algorithms" in values and isinstance(values["algorithms"], str):
        values["algorithms"] = tuple(values["algorithms"].split(","))
    for key in ("L_values", "p_values", "algorithms"):
        if key in values:
            if not isinstance(values[key], (list, tuple)):
                raise ConfigError(f"{key} must be a list, got {values[key]!r}")
            values[key] = tuple(values[key])
    if "L_values" not in values or "p_values" not in values:
        raise ConfigError("a campaign needs --L and --p (or a config file with them)")
    if "seed" not in values:
        raise ConfigError("a campaign needs an explicit --seed")
    if "target_logical_errors" not in values and "max_trials" in values:
        values["target_logical_errors"] = None
    try:
        cfg = ExperimentConfig(**values)
    except TypeError as exc:
        raise ConfigError(f"bad config key: {exc}") from exc
    cfg.validate()
    return cfg


def _cmd_campaign(args: argparse.Namespace) -> int:
    cfg = _campaign_config(args)
    if os.path.isdir(args.out) or not os.path.isdir(os.path.dirname(args.out) or "."):
        raise ConfigError(f"--out {args.out} is not a file path in an existing directory")
    if args.plot_data_dir:
        head = args.plot_data_dir  # its nearest existing part must be a directory
        while head and not os.path.exists(head):
            head = os.path.dirname(head)
        if head and not os.path.isdir(head):
            raise ConfigError(f"--plot-data-dir {args.plot_data_dir}: {head} is not a directory")
    try:
        result = run_campaign(cfg)
        code = EXIT_OK
    except _CampaignInterrupted as stop:
        result = stop.result
        code = 130
        print("interrupted: flushing partial results", file=sys.stderr)
    write_results_csv(result, args.out)
    print(f"wrote {args.out}")
    if args.plot_data_dir:
        for path in write_plot_data(result, args.plot_data_dir):
            print(f"wrote {path}")
    for row in result.rows():
        L, p, model, alg, trials, failures, rate, lo, hi, _ = row
        print(
            f"L={L} p={p} {alg}: {failures}/{trials} failures, "
            f"rate={rate:.5f} [{lo:.5f}, {hi:.5f}]"
        )
    return code


def _cmd_fatal(args: argparse.Namespace) -> int:
    report = fatal_pattern_suite(args.L)
    print(report.summary())
    return EXIT_OK if report.all_passed else EXIT_SUITE_FAILURE


def _cmd_probe(args: argparse.Namespace) -> int:
    result = scaling_probe(
        p=args.p, L_values=args.L, seed=args.seed, confidence=args.confidence,
        target_errors=args.target_errors, max_trials=args.max_trials,
        max_n_sample=args.max_n_sample,
    )
    print(result.summary())
    return EXIT_OK


def _cmd_oracle(args: argparse.Namespace) -> int:
    result = oracle_check(
        L=args.L, p=args.p, n_syndromes=args.syndromes,
        n_sample_factor=args.n_sample_factor, seed=args.seed,
    )
    print(result.summary())
    return EXIT_OK if result.passed else EXIT_SUITE_FAILURE


def main(argv: list[str] | None = None) -> int:
    handlers = {
        "campaign": _cmd_campaign,
        "fatal-patterns": _cmd_fatal,
        "scaling-probe": _cmd_probe,
        "oracle-check": _cmd_oracle,
    }
    try:
        args = _build_parser().parse_args(argv)
        return handlers[args.command](args)
    except (ConfigError, InvalidParameterError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
