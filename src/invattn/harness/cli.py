"""Command-line entry point.

Subcommands: `run` (full experiment), `invert` (single-image roundtrip),
`logdet` (series estimate + dense oracle for one block), `lipschitz`
(empirical constant of one block's residual branch), `selftest` (oracle
suites). Every subcommand but `selftest` takes its input, block and limits
from one validated `ExperimentConfig`. Exit codes: 0 success, 2 invariant
violation, 3 configuration error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from ..attention import KINDS, VARIANTS, PHI_CHOICES, make_residual_branch
from ..errors import InvariantViolation, PpmParseError
from ..inversion import estimate_lipschitz, normal_sampler, roundtrip
from ..logdet import DENSE_ORACLE_MAX_DIM, LogDetConfig, brute_force_logdet, logdet_series
from .experiment import (
    CONFIG_TYPES,
    EXIT_CONFIG,
    EXIT_INVARIANT,
    EXIT_IO,
    EXIT_OK,
    SYNTHETIC_SOURCES,
    ExperimentConfig,
    check_image,
    config_from_mapping,
    make_block,
    parse_config_file,
    run_experiment,
    squeeze_levels,
    synthetic_batch,
    unsqueeze_levels,
)
from .ppm import load_ppm, save_ppm
from .selftest import run_selftest


class _CliError(Exception):
    """Argument/config problem; mapped to exit code 3."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep argparse from sys.exit(2)
        raise _CliError(message)


def _add_block_flags(sub: argparse.ArgumentParser, single_kind: bool) -> None:
    # every dest is an ExperimentConfig key; a flag left unset keeps the config's value
    if single_kind:
        sub.add_argument("--kind", dest="kinds", choices=KINDS, default="embedded")
    else:
        sub.add_argument("--kind", dest="kinds", help="comma-separated kinds (default: all four)")
    sub.add_argument("--variant", choices=VARIANTS)
    sub.add_argument("--size", type=int, help="square image side")
    sub.add_argument("--seed", type=int)
    sub.add_argument("--c", type=float, help="Lipschitz target in (0, 1)")
    sub.add_argument("--iters", type=int, help="inverse iteration count N")
    sub.add_argument("--precision", type=int, choices=(32, 64))
    sub.add_argument("--squeeze", dest="squeeze_levels", type=int, help="squeeze levels before the block")
    sub.add_argument("--phi", choices=PHI_CHOICES)


def build_parser() -> _Parser:
    parser = _Parser(prog="invattn", description="Invertible attention blocks at desk scale")
    commands = parser.add_subparsers(dest="command", required=True)

    run_p = commands.add_parser("run", help="full reconstruction experiment")
    run_p.add_argument("--config", help="flat key = value config file; flags win")
    _add_block_flags(run_p, single_kind=False)
    run_p.add_argument("--out", dest="out_dir", help="output directory")
    run_p.add_argument("--synthetic", choices=SYNTHETIC_SOURCES)
    run_p.add_argument("--image-dir", help="directory of .ppm inputs")
    run_p.add_argument("--batch", type=int)
    run_p.add_argument("--tol", type=float)
    run_p.add_argument("--workers", type=int)
    run_p.add_argument("--logdet", action="store_true", default=None,
                       help="also estimate log-determinants against the dense oracle")
    run_p.add_argument("--vscore-floor", type=float)
    run_p.add_argument("--stress-weight-scale", type=float)
    run_p.add_argument("--stress-logit-scale", type=float)

    inv_p = commands.add_parser("invert", help="single-image forward + inverse roundtrip")
    _add_block_flags(inv_p, single_kind=True)
    inv_p.add_argument("--image", help="input .ppm (default: synthetic checkerboard)")
    inv_p.add_argument("--synthetic", choices=SYNTHETIC_SOURCES)
    inv_p.add_argument("--tol", type=float)
    inv_p.add_argument("--out", help="where to write the reconstruction .ppm")

    ld_p = commands.add_parser("logdet", help="series estimate + dense oracle on one block")
    _add_block_flags(ld_p, single_kind=True)
    ld_p.add_argument("--terms", dest="logdet_terms", type=int, default=10, help="series terms K")
    ld_p.add_argument("--samples", dest="logdet_samples", type=int, default=8, help="Hutchinson probes S")

    lips_p = commands.add_parser("lipschitz", help="empirical Lipschitz constant of one block")
    _add_block_flags(lips_p, single_kind=True)
    lips_p.add_argument("--pairs", type=int, default=2000)

    commands.add_parser("selftest", help="run the oracle self-test suites")
    return parser


def _config(args) -> ExperimentConfig:
    """The validated config: the config file first, then the flags that were set."""
    mapping = parse_config_file(args.config) if getattr(args, "config", None) else {}
    for key, value in vars(args).items():
        if key in CONFIG_TYPES and value is not None:
            mapping[key] = str(value)
    return config_from_mapping(mapping)


def _single_input(args):
    """The validated config, its block and the squeezed input grid of a
    single-image subcommand."""
    cfg = _config(args)
    if getattr(args, "image", None):
        image = load_ppm(args.image, dtype=cfg.dtype)
        check_image(image, cfg)
    else:
        image = synthetic_batch(cfg.synthetic, cfg.size, 1, cfg.seed, dtype=cfg.dtype)[0]
    return cfg, make_block(cfg, cfg.kinds[0], cfg.seed), squeeze_levels(image, cfg.squeeze_levels)


def _cmd_invert(args) -> int:
    cfg, block, working = _single_input(args)
    xhat, report = roundtrip(working, block, cfg.inversion)
    print(f"kind={block.kind} iterations={report.iterations_used} "
          f"residual={report.final_residual:.3e} mse={report.reconstruction_mse:.6e} "
          f"converged={report.converged} diverged={report.diverged}")
    if xhat is not None and args.out:
        save_ppm(np.clip(unsqueeze_levels(xhat, cfg.squeeze_levels), 0.0, 1.0), args.out)
        print(f"reconstruction written to {args.out}")
    return EXIT_OK if report.converged else EXIT_INVARIANT


def _cmd_logdet(args) -> int:
    cfg, block, working = _single_input(args)
    ld_cfg = LogDetConfig(
        series_terms=cfg.logdet_terms, hutchinson_samples=cfg.logdet_samples, seed=cfg.seed
    )
    estimate = logdet_series(block, working, ld_cfg)
    print(f"series estimate: {estimate.value:.6f} "
          f"(K={cfg.logdet_terms}, S={cfg.logdet_samples}, probe variance {estimate.sample_variance:.3e})")
    if estimate.divergence_warning:
        print("warning: per-term magnitudes are not decaying")
    dim = working.size
    if dim <= DENSE_ORACLE_MAX_DIM:
        oracle = brute_force_logdet(block, working)
        rel = abs(estimate.value - oracle) / abs(oracle) if oracle != 0 else float("nan")
        print(f"dense oracle:    {oracle:.6f} (relative error {rel:.2%})")
    else:
        print(f"dense oracle skipped: d={dim} exceeds the {DENSE_ORACLE_MAX_DIM} budget")
    return EXIT_OK


def _cmd_lipschitz(args) -> int:
    cfg, block, working = _single_input(args)
    estimate = estimate_lipschitz(
        make_residual_branch(block), normal_sampler(working.shape), pairs=args.pairs, seed=cfg.seed
    )
    print(f"empirical Lipschitz lower bound: {estimate.sup_ratio:.6f} "
          f"over {estimate.sample_pairs} pairs (argmax {estimate.argmax_pair_seed})")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            return run_experiment(_config(args))
        if args.command == "invert":
            return _cmd_invert(args)
        if args.command == "logdet":
            return _cmd_logdet(args)
        if args.command == "lipschitz":
            return _cmd_lipschitz(args)
        return run_selftest()
    except _CliError as err:
        print(f"argument error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except InvariantViolation as err:
        print(f"invariant violation: {err}", file=sys.stderr)
        return EXIT_INVARIANT
    except (PpmParseError, OSError) as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return EXIT_IO
    except ValueError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return EXIT_CONFIG


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
