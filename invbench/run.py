"""Closed-loop benchmark of `invattn run` (``harness.run_experiment``).

Run from the repository root:

    python3 invbench/run.py --workload run_m64 --seed 1 --seconds 30 --trace 0

One client runs one job at a time: a job is one ``run_experiment`` call on a
fresh job seed, whose inputs the benchmark writes as 8-bit PPMs. Every job
passes the correctness gate in ``bench_gate``. ``--trace 0`` measures for
``--seconds`` and prints the end-to-end metrics; ``--trace 1`` runs the
workload's fixed job set untraced, then traced, and prints the per-layer
metrics. Metric names and units come from ``BENCHMARK.json``. The last line
of standard output is the JSON result; a run manifest, the spans and their
self times are written under ``.invbench_out/``.
"""

import os

# Pin BLAS before numpy loads it: two pool workers x one BLAS thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import ctypes
import dataclasses
import importlib.util
import io
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from bench_gate import LOGDET_WITHIN, JobOutcome, check_job, write_ppm
from bench_trace import SpanTable, Tracer
from bench_workloads import KINDS, WORKERS, WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".invbench_out"
SETUP_PROBES = 9
TAIL_BEYOND = 10  # the tail percentile keeps at least this many jobs above it
REFERENCE_SHARE = 0.15  # reference samples take this share of the job time


class BenchError(Exception):
    """The benchmark cannot run here; nothing is measured."""


def load_library():
    """Import the harness from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        from invattn.harness import experiment
    except ImportError as err:
        raise BenchError(f"cannot import invattn from {src}: {err}") from err
    if Path(experiment.__file__).resolve().parents[2] != src.resolve():
        raise BenchError(f"invattn was imported from {experiment.__file__}, not from {src}")
    return experiment


def blas_info() -> dict:
    """BLAS name and version as numpy was built, and its thread count now."""
    try:
        build = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        build = {}
    threads, source = None, "runtime"
    for lib_path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        lib = ctypes.CDLL(str(lib_path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                threads = int(getter())
                break
        if threads is not None:
            break
    if threads is None:
        threads, source = int(os.environ["OPENBLAS_NUM_THREADS"]), "environment"
    return {
        "name": build.get("name"),
        "version": build.get("version"),
        "threads": threads,
        "threads_source": source,
    }


def check_threads(blas: dict) -> int:
    """Refuse to run when pool workers x BLAS threads exceed the usable CPUs."""
    cpus = len(os.sched_getaffinity(0))
    if WORKERS * blas["threads"] > cpus:
        raise BenchError(
            f"{WORKERS} workers x {blas['threads']} BLAS threads exceed the {cpus} CPUs this process may use"
        )
    return cpus


def git_rev() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def numba_imports() -> bool:
    try:
        from invattn import _backend
    except ImportError:
        return importlib.util.find_spec("numba") is not None
    return bool(_backend.HAVE_NUMBA)


@dataclasses.dataclass
class Job:
    seconds: float
    outcome: JobOutcome


class Bench:
    """The library, one workload at one seed, and a private work directory."""

    def __init__(self, workload: Workload, seed: int) -> None:
        self.lib = load_library()
        blas = blas_info()
        cpus = check_threads(blas)
        self.workload = workload
        self.seed = seed
        self.work = OUT / f"work-{os.getpid()}"
        first = self.config(0)
        self.manifest = {
            "workload": workload.name,
            "seed": seed,
            "nproc": os.cpu_count(),
            "affinity_cpus": cpus,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": blas,
            "numba_imports": numba_imports(),
            "workers": WORKERS,
            "git_rev": git_rev(),
            "fixed_jobs": workload.fixed_jobs,
            "job_seed": f"seed * 10000 + job (job 0: {first.seed})",
            "experiment_config": dataclasses.asdict(first),
        }
        # Build the first job's blocks once, so lazy initialisation in numpy
        # and the library is paid before the first timed job.
        channels = 3 * 4**first.squeeze_levels
        for k, kind in enumerate(first.kinds):
            self.lib.build_block(kind, first.variant, channels, c=first.c, phi=first.phi, seed=first.seed + k)

    def config(self, job: int):
        return self.workload.config(
            self.lib.ExperimentConfig, self.seed, job, self.work / "in", self.work / "out"
        )

    def run_job(self, job: int, tracer: Tracer | None = None) -> Job:
        """Write the job's inputs, time one run_experiment call, gate its outputs."""
        inputs = self.workload.inputs(self.seed, job)
        shutil.rmtree(self.work, ignore_errors=True)
        (self.work / "in").mkdir(parents=True)
        for i, pixels in enumerate(inputs):
            write_ppm(self.work / "in" / f"img_{i:03d}.ppm", pixels)
        cfg = self.config(job)
        exit_code, error = None, None
        if tracer is not None:
            tracer.begin_job(job)
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                exit_code = self.lib.run_experiment(cfg)
        except Exception as err:  # a crashed job fails the gate; the run goes on
            traceback.print_exc(file=sys.stderr)
            error = f"{type(err).__name__}: {err}"
        finally:
            seconds = time.perf_counter() - start
            if tracer is not None:
                tracer.end_job()
        outcome = check_job(Path(cfg.out_dir), inputs, KINDS, exit_code, self.workload.logdet)
        if error is not None:
            outcome.violations.insert(0, error)
        return Job(seconds, outcome)

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def probe_setup(args) -> float:
    """Seconds from starting a fresh benchmark process to its first timed job."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "0", "--setup-probe",
    ]
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        ready = time.perf_counter() - start
        child.stdout.read()
        code = child.wait(timeout=120)
    if line.strip() != "ready" or code != 0:
        raise BenchError(f"set-up probe exited with code {code}")
    return ready


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least TAIL_BEYOND samples beyond it,
    and that percentile; the maximum (100) when there are too few samples."""
    ordered = sorted(values)
    n = len(ordered)
    i = n - 1 - TAIL_BEYOND if n > TAIL_BEYOND else n - 1
    return ordered[i], 100.0 * (i + 1) / n


def gate_failures(label: str, jobs: list[Job]) -> list[str]:
    return [f"{label} job {n}: {v}" for n, job in enumerate(jobs) for v in job.outcome.violations]


def end_to_end(bench: Bench, args, notes: list[str]) -> tuple[dict, list[Job], list[str]]:
    wl = bench.workload
    jobs: list[Job] = []
    setups: list[float] = []
    references = [wl.reference_seconds()]
    # Set-up probes and reference samples are spread over the run, between
    # jobs, so that their medians see the same machine as the jobs do.
    elapsed = 0.0
    while len(jobs) < wl.fixed_jobs or elapsed + statistics.fmean(j.seconds for j in jobs) <= args.seconds:
        start = time.perf_counter()
        if len(setups) < SETUP_PROBES and elapsed >= len(setups) * args.seconds / SETUP_PROBES:
            setups.append(probe_setup(args))
        while sum(references) < REFERENCE_SHARE * sum(j.seconds for j in jobs):
            references.append(wl.reference_seconds())
        jobs.append(bench.run_job(len(jobs)))
        elapsed += time.perf_counter() - start
    while len(setups) < SETUP_PROBES:
        setups.append(probe_setup(args))
    replay = bench.run_job(0)
    problems = gate_failures("timed", jobs) + gate_failures("replayed", [replay])
    if replay.outcome.summary != jobs[0].outcome.summary:
        problems.append("summary.txt differs between two runs of job 0")

    seconds = [j.seconds for j in jobs]
    reference = statistics.median(references)
    fixed = [j.outcome for j in jobs[: wl.fixed_jobs]]
    roundtrips = sum(o.roundtrips for o in fixed)
    failed = sum(o.failed for o in fixed)
    converged = sum(o.converged for o in fixed)
    false_converged = sum(o.false_converged for o in fixed)
    tail_s, tail_pct = tail(seconds)
    roundtrips_per_s = len(jobs) * wl.roundtrips_per_job / sum(seconds)
    notes += [
        f"jobs {len(jobs)} timed (+1 replay), {len(jobs) * wl.roundtrips_per_job} roundtrips in {sum(seconds):.2f} s",
        f"in seconds: roundtrips_per_s {roundtrips_per_s:.6g}, job_s_p50 {statistics.median(seconds):.6g}, "
        f"job_s_tail {tail_s:.6g} (p{tail_pct:.1f} of {len(jobs)} jobs)",
        f"ref = {reference:.6g} s, median of {len(references)} reference samples",
        f"fixed set: {len(fixed)} jobs, {roundtrips} roundtrips, {failed} failed, "
        f"{converged} converged of which {false_converged} with MSE >= 10",
    ]
    metrics = {
        "setup_s": statistics.median(setups),
        "roundtrips_per_ref": roundtrips_per_s * reference,
        "job_p50_ref": statistics.median(seconds) / reference,
        "job_tail_ref": tail_s / reference,
        "roundtrip_ok_share": 1.0 - failed / roundtrips,
        "converged_correct_share": (converged - false_converged) / converged if converged else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, jobs + [replay], problems


def per_layer(bench: Bench, notes: list[str]) -> tuple[dict, list[Job], list[str]]:
    wl = bench.workload
    k = wl.fixed_jobs
    untraced = [bench.run_job(j) for j in range(k)]
    tracer = Tracer()
    tracer.install()
    try:
        traced = [bench.run_job(j, tracer) for j in range(k)]
    finally:
        tracer.uninstall()
    table = SpanTable(tracer, WORKERS)
    table.write(OUT / f"trace-{wl.name}")

    problems = gate_failures("untraced", untraced) + gate_failures("traced", traced)
    for j, (u, t) in enumerate(zip(untraced, traced)):
        if u.outcome.summary != t.outcome.summary:
            problems.append(f"job {j}: summary.txt differs between the untraced and traced run")
    # A span the workload should record but never saw means a call path now
    # escapes the wrappers: fail, and report the metrics it feeds as null
    # rather than as free.
    unseen = {name for name in wl.spans if table.count(name) == 0}
    problems += [f"span {name} recorded no call, though every {wl.name} job makes one" for name in sorted(unseen)]
    problems += [f"traced function {binding} not found in the library" for binding in table.missing]
    notes.append("spans per layer: " + json.dumps(table.layer_span_counts()))
    as_grid = table.counts["attention.as_grid"]
    notes.append(f"as_grid calls per job: {as_grid['total'] / k:.6g}, of which inside a branch call {as_grid['in_branch'] / k:.6g}")
    for name, row in table.per_name().items():
        if row["count"]:
            notes.append(
                f"span {name:<30} n={row['count']:>8}  total {row['total_s']:10.4f} s  self {row['self_s']:10.4f} s"
            )

    def fed_by(value: float, *names: str) -> float:
        return math.nan if unseen.intersection(names) else value

    def count(name: str) -> float:
        return fed_by(table.count(name), name)

    def total(*names: str) -> float:
        return fed_by(sum(table.total(n) for n in names), *names)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    branches = count("attention.branch")
    solves = count("inversion.solve")
    iterations = [it for it, _ in table.solves]
    rel_errs = [e for job in untraced for e in job.outcome.logdet_rel_errs]
    metrics = {
        "attention.branch_calls": branches / k,
        "attention.branch_us_mean": 1e6 * ratio(total("attention.branch"), branches),
        "attention.raw_response_s": total("attention.raw_response") / k,
        "attention.normalize_response_s": total("attention.normalize_response") / k,
        "attention.conv_s": total("attention.conv") / k,
        "attention.validate_calls_per_branch": ratio(as_grid["in_branch"], branches),
        "attention.squeeze_s": total("attention.squeeze", "attention.unsqueeze") / k,
        "attention.build_block_s": total("attention.build_block") / k,
        "inversion.solves": solves / k,
        "inversion.iters_mean": ratio(sum(iterations), solves),
        "inversion.iters_max": fed_by(float(max(iterations, default=0)), "inversion.solve"),
        "inversion.solve_s": total("inversion.solve") / k,
        "inversion.loop_overhead_share": ratio(table.self_total("inversion.solve"), total("inversion.solve")),
        "inversion.converged_share": ratio(sum(c for _, c in table.solves), solves),
        "logdet.estimates": count("logdet.series") / k,
        "logdet.series_s": total("logdet.series") / k,
        "logdet.jvp_calls": count("logdet.jvp") / k,
        "logdet.oracle_s": total("logdet.oracle") / k,
        "logdet.oracle_branch_calls": fed_by(
            table.count_under("attention.branch", "logdet.oracle") / k, "attention.branch", "logdet.oracle"
        ),
        "logdet.rel_err_p50": statistics.median(rel_errs) if rel_errs else 0.0,
        "logdet.within_5pct_share": ratio(sum(e <= LOGDET_WITHIN for e in rel_errs), len(rel_errs)),
        "linalg.power_iteration_s": total("linalg.power_iteration") / k,
        "linalg.lu_logabsdet_s": total("linalg.lu_logabsdet") / k,
        "kernels.ssim_mean_s": ratio(total("kernels.ssim_mean"), count("kernels.ssim_mean")),
        "harness.job_s": table.total("harness.job") / k,
        "harness.ppm_load_s": total("harness.ppm_load") / k,
        "harness.ppm_write_s": total("harness.ppm_write") / k,
        "harness.block_save_s": total("harness.block_save") / k,
        "harness.records_write_s": total("harness.records_write") / k,
        "harness.pool_busy_share": table.pool_busy_share(),
        "trace.overhead_share": 1.0 - sum(j.seconds for j in untraced) / sum(j.seconds for j in traced),
    }
    return metrics, untraced + traced, problems


def declared_units(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        units = declared_units(bool(args.trace))
        bench = Bench(WORKLOADS[args.workload], args.seed)
    except (BenchError, OSError, ValueError, KeyError) as err:
        print(f"invbench: {err}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print("ready", flush=True)
        return 0
    OUT.mkdir(exist_ok=True)
    notes: list[str] = []
    try:
        if args.trace:
            metrics, jobs, problems = per_layer(bench, notes)
        else:
            metrics, jobs, problems = end_to_end(bench, args, notes)
    except BenchError as err:
        print(f"invbench: {err}", file=sys.stderr)
        return 2
    finally:
        bench.close()
    if set(metrics) != set(units):
        print(f"invbench: metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json", file=sys.stderr)
        return 2
    bad_values = [name for name, value in metrics.items() if not math.isfinite(value)]
    problems += [f"metric {name} is not finite" for name in bad_values]

    manifest_path = OUT / f"manifest-{args.workload}.json"
    manifest_path.write_text(json.dumps(bench.manifest, indent=1) + "\n")
    print(f"invbench {args.workload} seed {args.seed} trace {args.trace}")
    print("manifest " + json.dumps(bench.manifest))
    for note in notes:
        print(note)
    for problem in problems:
        print(f"GATE FAILURE {problem}")
    for name, value in metrics.items():
        print(f"{name:<36} {value:>14.6g} {units[name]}")
    result = {
        "correct": not problems,
        "attempted": sum(j.outcome.roundtrips for j in jobs),
        "failed": sum(j.outcome.violated_roundtrips for j in jobs),
        "metrics": {
            name: {"value": value if math.isfinite(value) else None, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
