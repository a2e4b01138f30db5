"""Experiment harness: image I/O, reconstruction metrics, runner, CLI."""

from .experiment import (
    EXIT_CONFIG,
    EXIT_INVARIANT,
    EXIT_IO,
    EXIT_OK,
    ExperimentConfig,
    KindSummary,
    config_from_mapping,
    format_summary,
    parse_config_file,
    run_experiment,
    synthetic_batch,
)
from .metrics import compute_ssim
from .ppm import load_ppm, save_ppm

__all__ = [
    "EXIT_CONFIG",
    "EXIT_INVARIANT",
    "EXIT_IO",
    "EXIT_OK",
    "ExperimentConfig",
    "KindSummary",
    "compute_ssim",
    "config_from_mapping",
    "format_summary",
    "load_ppm",
    "parse_config_file",
    "run_experiment",
    "save_ppm",
    "synthetic_batch",
]
