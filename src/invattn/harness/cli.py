"""Command-line entry point.

Subcommands: `run` (full experiment), `invert` (single-image roundtrip;
it succeeds only when the input comes back), `logdet` (series estimate +
dense oracle for one block) and `lipschitz` (empirical constant of one
block's residual branch over standard-normal pairs at the working grid's
shape; the input's pixels are never sampled). Every subcommand takes its
input, block and limits from one validated `ExperimentConfig`, and `invert`
and `logdet` print the fields `run` records for image 0. Exit codes: 0
success, 2 invariant violation, 3 configuration error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys

from ..attention import KINDS, VARIANTS, make_residual_branch, squeeze
from ..errors import InvariantViolation, PpmParseError
from ..inversion import estimate_lipschitz, normal_sampler
from ..logdet import DENSE_ORACLE_MAX_DIM
from .experiment import (
    CONFIG_TYPES,
    EXIT_CONFIG,
    EXIT_INVARIANT,
    EXIT_IO,
    EXIT_OK,
    SYNTHETIC_SOURCES,
    ExperimentConfig,
    _reconstructed,
    check_image,
    config_from_mapping,
    logdet_fields,
    make_block,
    parse_config_file,
    roundtrip_stack,
    run_experiment,
    synthetic_batch,
)
from .ppm import load_ppm, save_ppm


class _CliError(Exception):
    """Argument/config problem; mapped to exit code 3."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep argparse from sys.exit(2)
        raise _CliError(message)


def _add_block_flags(sub: argparse.ArgumentParser, single_kind: bool) -> None:
    # every dest is an ExperimentConfig key; a flag left unset keeps the config's value
    if single_kind:
        sub.add_argument("--kind", dest="kinds", choices=KINDS, default="embedded")
        sub.add_argument("--image", help="input .ppm (default: image 0 of the synthetic batch)")
    else:
        sub.add_argument("--kind", dest="kinds", help="comma-separated kinds (default: all four)")
    sub.add_argument("--variant", choices=VARIANTS)
    sub.add_argument("--size", type=int, help="square image side")
    sub.add_argument("--seed", type=int)
    sub.add_argument("--c", type=float, help="Lipschitz target in (0, 1)")
    sub.add_argument("--squeeze", dest="squeeze_levels", type=int, help="squeeze levels before the block")
    sub.add_argument("--synthetic", choices=SYNTHETIC_SOURCES)


def build_parser() -> _Parser:
    parser = _Parser(prog="invattn", description="Invertible attention blocks at desk scale")
    commands = parser.add_subparsers(dest="command", required=True)

    run_p = commands.add_parser("run", help="full reconstruction experiment")
    run_p.add_argument("--config", help="flat key = value config file; flags win")
    _add_block_flags(run_p, single_kind=False)
    run_p.add_argument("--out", dest="out_dir", help="output directory")
    run_p.add_argument("--image-dir", help="directory of .ppm inputs")
    run_p.add_argument("--batch", type=int)
    run_p.add_argument("--iters", type=int, help="inverse iteration count N")
    run_p.add_argument("--tol", type=float)
    run_p.add_argument("--workers", type=int)
    run_p.add_argument("--logdet", action="store_true", default=None,
                       help="also estimate log-determinants against the dense oracle")
    run_p.add_argument("--vscore-floor", type=float)
    run_p.add_argument("--stress-weight-scale", type=float)
    run_p.add_argument("--stress-logit-scale", type=float)

    inv_p = commands.add_parser("invert", help="single-image forward + inverse roundtrip")
    _add_block_flags(inv_p, single_kind=True)
    inv_p.add_argument("--iters", type=int, help="inverse iteration count N")
    inv_p.add_argument("--tol", type=float)
    inv_p.add_argument("--out", help="where to write the reconstruction .ppm")

    ld_p = commands.add_parser("logdet", help="series estimate + dense oracle on one block")
    _add_block_flags(ld_p, single_kind=True)
    ld_p.add_argument("--terms", dest="logdet_terms", type=int, help="series terms K")
    ld_p.add_argument("--samples", dest="logdet_samples", type=int, help="Hutchinson probes S")

    lips_p = commands.add_parser(
        "lipschitz",
        help="empirical Lipschitz lower bound of one block's residual branch",
        description="Sampled lower bound on the Lipschitz constant of one block's residual "
        "branch: the largest |g(x1) - g(x2)| / |x1 - x2| over pairs drawn around standard-normal "
        "grids at the shape of the working (squeezed) grid. --image and --synthetic set only "
        "that shape; their pixels are never sampled.",
    )
    _add_block_flags(lips_p, single_kind=True)
    lips_p.add_argument("--pairs", type=int, default=2000)

    return parser


def _config(args) -> ExperimentConfig:
    """The validated config: the config file first, then the flags that were set."""
    mapping = parse_config_file(args.config) if getattr(args, "config", None) else {}
    for key, value in vars(args).items():
        if key in CONFIG_TYPES and value is not None:
            mapping[key] = str(value)
    return config_from_mapping(mapping)


def _single_input(args):
    """The validated config, the block of its first kind, and the input image
    of a single-image subcommand (``--image``, or image 0 of `run`'s
    synthetic batch) with its squeezed working grid."""
    cfg = _config(args)
    if getattr(args, "image", None):
        image = load_ppm(args.image)
        check_image(image, cfg)
    else:
        image = synthetic_batch(cfg.synthetic, cfg.size, 1, cfg.seed)[0]
    return cfg, make_block(cfg, cfg.kinds[0]), image, squeeze(image, cfg.squeeze_levels)


def _cmd_invert(args) -> int:
    cfg, block, image, _ = _single_input(args)
    ((record, recon),) = roundtrip_stack([0], [image], block, cfg)
    print(json.dumps(record))
    if recon is not None and args.out:
        save_ppm(recon, args.out)
        print(f"reconstruction written to {args.out}")
    if not _reconstructed(record):
        # a converged solve lands on another preimage when g is no contraction
        raise InvariantViolation("input not reconstructed: see the record's converged and mse")
    return EXIT_OK


def _cmd_logdet(args) -> int:
    cfg, block, _, working = _single_input(args)
    fields: dict = {}
    estimate = logdet_fields(fields, working, block, cfg, 0)
    print(json.dumps({**fields, "probe_variance": estimate.sample_variance}))
    if "logdet_oracle" not in fields:
        print(f"dense oracle skipped: d={working.size} exceeds the {DENSE_ORACLE_MAX_DIM} budget")
    return EXIT_OK


def _cmd_lipschitz(args) -> int:
    cfg, block, _, working = _single_input(args)
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
        return _cmd_lipschitz(args)
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
