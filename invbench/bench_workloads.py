"""Workload definitions and seeded job inputs for the invattn benchmark.

A workload fixes the shape of every job (image size, batch, kinds, log-det
settings); the workload seed fixes the inputs. Job ``j`` of seed ``s`` gets
its own image generator and its own library seed, so every run of one seed
sees the same inputs and every other seed sees fresh ones.
"""

from __future__ import annotations

import dataclasses
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from time import perf_counter

import numpy as np

from bench_trace import SPANS

# `invattn run` on a two-core machine: two pool workers, one BLAS thread each.
WORKERS = 2
KINDS = ("gaussian", "embedded", "dot", "concat")
SOURCES = ("checkerboard", "ramp", "clipped-noise")
# spans only a log-det job records
LOGDET_SPANS = ("logdet.series", "logdet.jvp", "logdet.oracle", "linalg.lu_logabsdet", "kernels.lu_logabsdet")


@dataclasses.dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``fixed_jobs`` is the job set that the count metrics (failure shares,
    log-det accuracy, iteration and JVP counts) are computed over, so that
    they repeat exactly at a fixed seed however many jobs the time budget
    allows. ``spans`` are the traced spans every job of the workload
    records; the traced run fails if one of them records no call.

    ``run_experiment`` maps each kind's images over the worker pool, so a
    batch that is a multiple of WORKERS keeps both workers busy to the end.
    """

    name: str
    size: int
    batch: int
    sources: tuple[str, ...]
    fixed_jobs: int
    reference_steps: int
    logdet: bool = False
    logdet_terms: int = 20
    logdet_samples: int = 64

    @property
    def roundtrips_per_job(self) -> int:
        return len(KINDS) * self.batch

    @property
    def spans(self) -> tuple[str, ...]:
        return tuple(name for name in SPANS if self.logdet or name not in LOGDET_SPANS)

    def reference_seconds(self) -> float:
        """Wall time of a fixed plain-numpy attention step at this workload's
        m positions and 12 channels, run ``reference_steps`` times on each of
        WORKERS threads.

        On a shared two-core virtual machine the speed of the interpreter,
        numpy calls and lock hand-offs between threads drifts by tens of
        percent within minutes. Timing metrics are reported in multiples of
        this time, measured in the same run, so that most of the drift cancels.
        """
        x = 0.1 * np.random.default_rng(0).standard_normal(((self.size // 2) ** 2, 12))

        def run_steps(_):
            for _ in range(self.reference_steps):
                logits = x @ x.T
                response = np.exp(logits - logits.max(axis=0))
                response /= response.sum(axis=0)
                response @ x

        start = perf_counter()
        with ThreadPoolExecutor(max_workers=WORKERS) as pool:
            list(pool.map(run_steps, range(WORKERS)))
        return perf_counter() - start

    def job_seed(self, seed: int, job: int) -> int:
        return seed * 10_000 + job

    def config(self, experiment_config, seed: int, job: int, in_dir: Path, out_dir: Path):
        """The ExperimentConfig of one job (the class is passed in by the caller)."""
        return experiment_config(
            kinds=KINDS,
            variant="invertible",
            image_dir=str(in_dir),
            size=self.size,
            batch=self.batch,
            squeeze_levels=1,
            logdet=self.logdet,
            logdet_terms=self.logdet_terms,
            logdet_samples=self.logdet_samples,
            workers=WORKERS,
            seed=self.job_seed(seed, job),
            out_dir=str(out_dir),
        )

    def inputs(self, seed: int, job: int) -> list[np.ndarray]:
        """The job's images as (3, size, size) uint8 arrays.

        Sources rotate over the whole job sequence, so a workload's mix of
        sources does not depend on the seed.
        """
        rng = np.random.default_rng([seed, job])
        images = []
        for i in range(self.batch):
            source = self.sources[(job * self.batch + i) % len(self.sources)]
            pixels = _GENERATORS[source](rng, self.size)
            images.append(np.rint(np.clip(pixels, 0.0, 1.0) * 255.0).astype(np.uint8))
        return images


def _checkerboard(rng: np.random.Generator, size: int) -> np.ndarray:
    cell = int(rng.choice([c for c in (1, 2, 4, 8) if c <= size // 2]))
    ys, xs = np.mgrid[0:size, 0:size]
    pattern = ((ys // cell + xs // cell) % 2).astype(np.float64)
    lo = rng.uniform(0.0, 0.4, size=3)[:, None, None]
    hi = rng.uniform(0.6, 1.0, size=3)[:, None, None]
    return lo + (hi - lo) * pattern


def _ramp(rng: np.random.Generator, size: int) -> np.ndarray:
    # a linear ramp at a random angle, phase-shifted per channel and wrapped
    ys, xs = np.mgrid[0:size, 0:size].astype(np.float64)
    angle = rng.uniform(0.0, 2.0 * np.pi)
    ramp = np.cos(angle) * xs + np.sin(angle) * ys
    ramp = (ramp - ramp.min()) / max(float(np.ptp(ramp)), 1e-12)
    phases = rng.uniform(0.0, 1.0, size=3)[:, None, None]
    return (ramp[None] + phases) % 1.0


def _clipped_noise(rng: np.random.Generator, size: int) -> np.ndarray:
    return np.clip(rng.normal(0.5, 0.2, size=(3, size, size)), 0.0, 1.0)


_GENERATORS = {"checkerboard": _checkerboard, "ramp": _ramp, "clipped-noise": _clipped_noise}

WORKLOADS = {
    w.name: w
    for w in (
        # CLI default shape: 16x16 with one squeeze (m = 64, C = 12) and the
        # CLI default batch of 8.
        Workload("run_m64", size=16, batch=8, sources=SOURCES, fixed_jobs=40, reference_steps=800),
        # m = 1024: the m x m response work dominates every branch call. One
        # image per worker; at about 4 s per job a 30 s run still times 7-9
        # jobs, where the CLI batch of 8 would time 2.
        Workload("run_m1024", size=64, batch=2, sources=("checkerboard",), fixed_jobs=3, reference_steps=4),
        # d = 4*4*12 = 192, the largest dimension the dense oracle accepts.
        # Two images per worker; at about 4.7 s per job the 8 fixed jobs take
        # about 38 s, so every run times exactly the fixed set.
        Workload(
            "logdet_d192",
            size=8,
            batch=4,
            sources=SOURCES,
            fixed_jobs=8,
            reference_steps=4000,
            logdet=True,
        ),
    )
}
