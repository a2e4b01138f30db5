"""Command-line entry point.

Subcommands: `run` (full experiment), `invert` (single-image roundtrip),
`logdet` (series estimate + dense oracle for one block), `lipschitz`
(empirical constant of one block's residual branch), `selftest` (oracle
suites). Exit codes: 0 success, 2 invariant violation, 3 configuration
error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from ..attention import KINDS, VARIANTS, PHI_CHOICES, build_block, make_residual_branch
from ..errors import InvariantViolation, PpmParseError
from ..inversion import InversionConfig, estimate_lipschitz, normal_sampler, roundtrip
from ..logdet import DENSE_ORACLE_MAX_DIM, LogDetConfig, brute_force_logdet, logdet_series
from .experiment import (
    EXIT_CONFIG,
    EXIT_INVARIANT,
    EXIT_IO,
    EXIT_OK,
    SYNTHETIC_SOURCES,
    config_from_mapping,
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
    if single_kind:
        sub.add_argument("--kind", choices=KINDS, default="embedded")
    else:
        sub.add_argument("--kind", help="comma-separated kinds (default: all four)")
    sub.add_argument("--variant", choices=VARIANTS, default=None)
    sub.add_argument("--size", type=int, default=None, help="square image side")
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--c", type=float, default=None, help="Lipschitz target in (0, 1)")
    sub.add_argument("--iters", type=int, default=None, help="inverse iteration count N")
    sub.add_argument("--precision", type=int, choices=(32, 64), default=None)
    sub.add_argument("--squeeze", type=int, default=None, help="squeeze levels before the block")
    sub.add_argument("--phi", choices=PHI_CHOICES, default=None)


def build_parser() -> _Parser:
    parser = _Parser(prog="invattn", description="Invertible attention blocks at desk scale")
    commands = parser.add_subparsers(dest="command", required=True)

    run_p = commands.add_parser("run", help="full reconstruction experiment")
    run_p.add_argument("--config", help="flat key = value config file; flags win")
    _add_block_flags(run_p, single_kind=False)
    run_p.add_argument("--out", default=None, help="output directory")
    run_p.add_argument("--synthetic", choices=SYNTHETIC_SOURCES, default=None)
    run_p.add_argument("--image-dir", default=None, help="directory of .ppm inputs")
    run_p.add_argument("--batch", type=int, default=None)
    run_p.add_argument("--tol", type=float, default=None)
    run_p.add_argument("--workers", type=int, default=None)
    run_p.add_argument("--logdet", action="store_true", default=None,
                       help="also estimate log-determinants against the dense oracle")
    run_p.add_argument("--vscore-floor", type=float, default=None)
    run_p.add_argument("--stress-weight-scale", type=float, default=None)
    run_p.add_argument("--stress-logit-scale", type=float, default=None)

    inv_p = commands.add_parser("invert", help="single-image forward + inverse roundtrip")
    _add_block_flags(inv_p, single_kind=True)
    inv_p.add_argument("--image", help="input .ppm (default: synthetic checkerboard)")
    inv_p.add_argument("--synthetic", choices=SYNTHETIC_SOURCES, default="checkerboard")
    inv_p.add_argument("--tol", type=float, default=1e-10)
    inv_p.add_argument("--out", default=None, help="where to write the reconstruction .ppm")

    ld_p = commands.add_parser("logdet", help="series estimate + dense oracle on one block")
    _add_block_flags(ld_p, single_kind=True)
    ld_p.add_argument("--terms", type=int, default=10, help="series terms K")
    ld_p.add_argument("--samples", type=int, default=8, help="Hutchinson probes S")

    lips_p = commands.add_parser("lipschitz", help="empirical Lipschitz constant of one block")
    _add_block_flags(lips_p, single_kind=True)
    lips_p.add_argument("--pairs", type=int, default=2000)

    commands.add_parser("selftest", help="run the oracle self-test suites")
    return parser


def _cmd_run(args) -> int:
    mapping = parse_config_file(args.config) if args.config else {}
    overrides = {
        "kinds": args.kind,
        "variant": args.variant,
        "size": args.size,
        "seed": args.seed,
        "c": args.c,
        "iters": args.iters,
        "precision": args.precision,
        "squeeze_levels": args.squeeze,
        "phi": args.phi,
        "out_dir": args.out,
        "synthetic": args.synthetic,
        "image_dir": args.image_dir,
        "batch": args.batch,
        "tol": args.tol,
        "workers": args.workers,
        "logdet": args.logdet,
        "vscore_floor": args.vscore_floor,
        "stress_weight_scale": args.stress_weight_scale,
        "stress_logit_scale": args.stress_logit_scale,
    }
    for key, value in overrides.items():
        if value is not None:
            mapping[key] = str(value)
    return run_experiment(config_from_mapping(mapping))


def _block_from_args(args, channels: int):
    return build_block(
        args.kind,
        args.variant or "invertible",
        channels,
        c=args.c if args.c is not None else 0.9,
        phi=args.phi or "softplus",
        seed=args.seed if args.seed is not None else 0,
        dtype=np.float32 if args.precision == 32 else np.float64,
    )


def _single_input(args):
    size = args.size if args.size is not None else 16
    seed = args.seed if args.seed is not None else 0
    levels = args.squeeze if args.squeeze is not None else 1
    dtype = np.float32 if args.precision == 32 else np.float64
    if getattr(args, "image", None):
        image = load_ppm(args.image, dtype=dtype)
    else:
        source = getattr(args, "synthetic", None) or "checkerboard"
        image = synthetic_batch(source, size, 1, seed, dtype=dtype)[0]
    return image, squeeze_levels(image, levels), levels


def _cmd_invert(args) -> int:
    image, working, levels = _single_input(args)
    block = _block_from_args(args, channels=working.shape[0])
    cfg = InversionConfig(
        max_iters=args.iters if args.iters is not None else 100,
        early_stop_tol=args.tol,
    )
    xhat, report = roundtrip(working, block, cfg)
    print(f"kind={args.kind} iterations={report.iterations_used} "
          f"residual={report.final_residual:.3e} mse={report.reconstruction_mse:.6e} "
          f"converged={report.converged} diverged={report.diverged}")
    if xhat is not None and args.out:
        save_ppm(np.clip(unsqueeze_levels(xhat, levels), 0.0, 1.0), args.out)
        print(f"reconstruction written to {args.out}")
    return EXIT_OK if report.converged else EXIT_INVARIANT


def _cmd_logdet(args) -> int:
    _, working, _ = _single_input(args)
    block = _block_from_args(args, channels=working.shape[0])
    cfg = LogDetConfig(
        series_terms=args.terms,
        hutchinson_samples=args.samples,
        seed=args.seed if args.seed is not None else 0,
    )
    estimate = logdet_series(block, working, cfg)
    print(f"series estimate: {estimate.value:.6f} "
          f"(K={args.terms}, S={args.samples}, probe variance {estimate.sample_variance:.3e})")
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
    _, working, _ = _single_input(args)
    block = _block_from_args(args, channels=working.shape[0])
    estimate = estimate_lipschitz(
        make_residual_branch(block),
        normal_sampler(working.shape),
        pairs=args.pairs,
        seed=args.seed if args.seed is not None else 0,
    )
    print(f"empirical Lipschitz lower bound: {estimate.sup_ratio:.6f} "
          f"over {estimate.sample_pairs} pairs (argmax {estimate.argmax_pair_seed})")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            return _cmd_run(args)
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
