import argparse
import importlib.util
import json
import math
import shlex
import sys
from pathlib import Path

import numpy as np
import pytest

from invattn import attention, kernels
from invattn.attention import KINDS, AttentionBlock, block_to_dict, build_block, load_block, squeeze
from invattn.errors import PpmParseError
from invattn.harness import experiment
from invattn.harness.cli import build_parser, main
from invattn.harness.experiment import (
    _PARSERS,
    CONFIG_TYPES,
    EXIT_CONFIG,
    EXIT_INVARIANT,
    EXIT_IO,
    EXIT_OK,
    ExperimentConfig,
    _aggregate,
    _image_stacks,
    config_from_mapping,
    format_summary,
    load_image_dir,
    parse_config_file,
    run_experiment,
    synthetic_batch,
)
from invattn.harness.metrics import compute_ssim
from invattn.harness.ppm import load_ppm, save_ppm
from invattn.inversion import InversionConfig, mse_0_255, read_records, report_to_record, roundtrip
from invattn.logdet import LogDetConfig


def lattice_grid(rng, shape=(3, 6, 5)):
    return rng.integers(0, 256, size=shape).astype(np.float64) / 255.0


# ---------------------------------------------------------------------------
# PPM
# ---------------------------------------------------------------------------


class TestPpm:
    def test_all_black(self, tmp_path):
        path = tmp_path / "black.ppm"
        path.write_bytes(b"P6\n2 2\n255\n" + bytes(12))
        assert np.array_equal(load_ppm(path), np.zeros((3, 2, 2)))

    def test_max_pixel_maps_to_one(self, tmp_path):
        path = tmp_path / "white.ppm"
        path.write_bytes(b"P6\n1 1\n255\n" + bytes([255, 255, 255]))
        assert np.array_equal(load_ppm(path), np.ones((3, 1, 1)))

    def test_save_load_bit_exact_on_lattice(self, tmp_path):
        rng = np.random.default_rng(0)
        grid = lattice_grid(rng)
        path = tmp_path / "img.ppm"
        save_ppm(grid, path)
        assert np.array_equal(load_ppm(path), grid)

    def test_comments_and_whitespace(self, tmp_path):
        path = tmp_path / "c.ppm"
        path.write_bytes(b"P6 # comment\n# another\n 2\t1 # w h\n255\n" + bytes(6))
        assert load_ppm(path).shape == (3, 1, 2)

    def test_save_clamps_and_rounds_half_to_even(self, tmp_path):
        grid = np.array([[[-0.5]], [[1.7]], [[0.5 / 255.0]]])
        path = tmp_path / "clamp.ppm"
        save_ppm(grid, path)
        raw = path.read_bytes()[-3:]
        assert raw[0] == 0 and raw[1] == 255
        assert raw[2] == 0  # 0.5 rounds to even

    def test_bad_magic_offset(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P5\n1 1\n255\n\x00")
        with pytest.raises(PpmParseError) as excinfo:
            load_ppm(path)
        assert excinfo.value.offset == 0

    def test_truncated_payload_offset(self, tmp_path):
        path = tmp_path / "trunc.ppm"
        header = b"P6\n2 2\n255\n"
        path.write_bytes(header + bytes(5))
        with pytest.raises(PpmParseError) as excinfo:
            load_ppm(path)
        assert excinfo.value.offset == len(header) + 5

    def test_unsupported_maxval(self, tmp_path):
        path = tmp_path / "deep.ppm"
        path.write_bytes(b"P6\n1 1\n65535\n\x00\x00\x00\x00\x00\x00")
        with pytest.raises(PpmParseError):
            load_ppm(path)

    def test_missing_integer(self, tmp_path):
        path = tmp_path / "noint.ppm"
        path.write_bytes(b"P6\nab\n")
        with pytest.raises(PpmParseError):
            load_ppm(path)

    def test_save_requires_three_channels(self, tmp_path):
        with pytest.raises(ValueError):
            save_ppm(np.zeros((1, 2, 2)), tmp_path / "x.ppm")


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


class TestMse:
    def test_identical_is_zero(self):
        rng = np.random.default_rng(1)
        a = rng.uniform(0, 1, (3, 5, 5))
        assert mse_0_255(a, a) == 0.0

    def test_one_lattice_step_everywhere(self):
        rng = np.random.default_rng(2)
        a = rng.uniform(0, 0.9, (3, 4, 4))
        assert abs(mse_0_255(a, a + 1.0 / 255.0) - 1.0) <= 1e-12

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(3)
        a = rng.uniform(0, 1, (2, 3, 4))
        b = rng.uniform(0, 1, (2, 3, 4))
        total = 0.0
        for ch in range(2):
            for i in range(3):
                for j in range(4):
                    total += (255.0 * (a[ch, i, j] - b[ch, i, j])) ** 2
        assert abs(mse_0_255(a, b) - total / a.size) <= 1e-9


def naive_ssim(a, b, window=8, k1=0.01, k2=0.03, dynamic_range=255.0):
    a = a * dynamic_range
    b = b * dynamic_range
    c1 = (k1 * dynamic_range) ** 2
    c2 = (k2 * dynamic_range) ** 2
    values = []
    for ch in range(a.shape[0]):
        for i in range(a.shape[1] - window + 1):
            for j in range(a.shape[2] - window + 1):
                wa = a[ch, i : i + window, j : j + window]
                wb = b[ch, i : i + window, j : j + window]
                mu1, mu2 = wa.mean(), wb.mean()
                s1 = ((wa - mu1) ** 2).mean()
                s2 = ((wb - mu2) ** 2).mean()
                s12 = ((wa - mu1) * (wb - mu2)).mean()
                values.append(
                    ((2 * mu1 * mu2 + c1) * (2 * s12 + c2))
                    / ((mu1**2 + mu2**2 + c1) * (s1 + s2 + c2))
                )
    return float(np.mean(values))


class TestSsim:
    def test_identical_is_one(self):
        rng = np.random.default_rng(4)
        a = rng.uniform(0, 1, (3, 10, 10))
        assert abs(compute_ssim(a, a) - 1.0) <= 1e-12

    @pytest.mark.parametrize(
        "shape, window",
        [
            ((3, 12, 11), 8),
            ((3, 12, 11), 1),  # single-pixel windows: zero variances
            ((3, 12, 11), 11),  # window spans the short side
            ((3, 9, 17), 4),  # non-square grid
            ((3, 64, 64), 8),  # largest image the experiment accepts
        ],
        ids=["12x11-w8", "12x11-w1", "12x11-w11", "9x17-w4", "64x64-w8"],
    )
    def test_matches_naive_windowed_oracle(self, shape, window):
        rng = np.random.default_rng(5)
        a = rng.uniform(0, 1, shape)
        b = np.clip(a + rng.normal(0, 0.1, a.shape), 0, 1)
        assert abs(compute_ssim(a, b, window=window) - naive_ssim(a, b, window=window)) <= 1e-12

    def test_inverted_structured_content_is_negative(self):
        cb = np.zeros((3, 16, 16))
        cb[:, ::2, ::2] = 1.0
        cb[:, 1::2, 1::2] = 1.0
        assert compute_ssim(cb, 1.0 - cb) < 0.0

    def test_constant_pair_reduces_to_luminance_term(self):
        a = np.full((3, 12, 12), 0.25)
        b = np.full((3, 12, 12), 0.75)
        mu1, mu2 = 0.25 * 255, 0.75 * 255
        c1 = (0.01 * 255) ** 2
        want = (2 * mu1 * mu2 + c1) / (mu1**2 + mu2**2 + c1)
        assert abs(compute_ssim(a, b) - want) <= 1e-12

    def test_bounded_in_unit_interval(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            a = rng.uniform(0, 1, (3, 9, 9))
            b = rng.uniform(0, 1, (3, 9, 9))
            value = compute_ssim(a, b)
            assert -1.0 - 1e-12 <= value <= 1.0 + 1e-12

    @pytest.mark.parametrize("window", [1, 3, 8])
    @pytest.mark.parametrize("side", [8, 16, 64])
    @pytest.mark.parametrize("count", [1, 4])
    def test_stack_scores_each_grid_as_alone(self, count, side, window):
        rng = np.random.default_rng(side * 10 + window)
        a = rng.uniform(0, 1, (count, 3, side, side))
        b = np.clip(a + rng.normal(0, 0.1, a.shape), 0, 1)
        got = compute_ssim(a, b, window=window)
        assert got.shape == (count,)
        assert all(got[i] == compute_ssim(a[i], b[i], window=window) for i in range(count))
        c1, c2 = 6.5, 58.5
        got = kernels.ssim_mean(255 * a, 255 * b, window, c1, c2)
        assert all(got[i] == kernels.ssim_mean(255 * a[i], 255 * b[i], window, c1, c2) for i in range(count))

    def test_one_grid_gives_a_float(self):
        a = np.random.default_rng(7).uniform(0, 1, (3, 8, 8))
        assert type(compute_ssim(a, a)) is float
        assert type(kernels.ssim_mean(a, a, 8, 6.5, 58.5)) is float

    def test_window_too_large(self):
        with pytest.raises(ValueError):
            compute_ssim(np.zeros((3, 4, 4)), np.zeros((3, 4, 4)), window=5)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            compute_ssim(np.zeros((3, 8, 8)), np.zeros((3, 8, 9)))


# ---------------------------------------------------------------------------
# Synthetic sources and config plumbing
# ---------------------------------------------------------------------------


class TestSynthetic:
    @pytest.mark.parametrize("source", ["gradient", "checkerboard", "gaussian-noise"])
    def test_shapes_range_and_determinism(self, source):
        a = synthetic_batch(source, 8, 3, seed=5)
        b = synthetic_batch(source, 8, 3, seed=5)
        assert len(a) == 3
        for img1, img2 in zip(a, b):
            assert img1.shape == (3, 8, 8)
            assert img1.min() >= 0.0 and img1.max() <= 1.0
            assert np.array_equal(img1, img2)

    def test_unknown_source(self):
        with pytest.raises(ValueError):
            synthetic_batch("plasma", 8, 1, seed=0)


class TestConfigPlumbing:
    def test_parse_file_and_coerce(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# comment\n"
            "kinds = gaussian, concat\n"
            "size = 8\n"
            "c = 0.8\n"
            "logdet = true\n"
            "synthetic = gradient\n"
        )
        cfg = config_from_mapping(parse_config_file(path))
        assert cfg.kinds == ("gaussian", "concat")
        assert cfg.size == 8
        assert cfg.c == 0.8
        assert cfg.logdet is True
        assert cfg.synthetic == "gradient"

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            config_from_mapping({"volume": "11"})

    def test_bad_boolean_rejected(self):
        with pytest.raises(ValueError):
            config_from_mapping({"logdet": "maybe"})

    def test_unparsable_value_names_its_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("size = abc\n")
        with pytest.raises(ValueError, match="'size'"):
            config_from_mapping(parse_config_file(path))

    def test_every_field_type_has_a_parser(self):
        unhandled = {
            key: hint for key, hint in CONFIG_TYPES.items()
            if hint not in _PARSERS and hint not in (str, str | None)
        }
        assert unhandled == {}

    def test_defaults_are_the_library_config_defaults(self):
        cfg, logdet_cfg = ExperimentConfig(), LogDetConfig()
        assert cfg.inversion == InversionConfig()
        assert (cfg.logdet_terms, cfg.logdet_samples) == (logdet_cfg.series_terms, logdet_cfg.hutchinson_samples)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("just some words\n")
        with pytest.raises(ValueError):
            parse_config_file(path)

    @pytest.mark.parametrize(
        "override",
        [
            {"size": 7, "squeeze_levels": 1},
            {"size": 128},
            {"variant": "sideways"},
            {"vscore_floor": 1.5},
            {"tol": math.inf},
            {"c": 1.0},
            {"kinds": ("gaussian", "nope")},
            {"kinds": ()},
        ],
    )
    def test_validation_rejects(self, override):
        cfg = ExperimentConfig(**override)
        with pytest.raises(ValueError):
            cfg.validate()


def load_bench_module(name):
    """One of the benchmark's modules, loaded by path from the checkout."""
    path = Path(__file__).resolve().parents[1] / "invbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"invbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def load_bench_trace():
    """The benchmark's tracer module."""
    return load_bench_module("bench_trace")


def test_benchmark_trace_targets_exist():
    # the benchmark's tracer names library functions by "module:attr"; a
    # rename in the library would make every traced run fail
    bench_trace = load_bench_trace()
    targets = [*bench_trace.SPANS.values(), *bench_trace.FACTORIES.values(), *bench_trace.COUNTERS.values()]
    assert targets
    for target in targets:
        module_name, attr = target.split(":")
        assert callable(getattr(importlib.import_module(module_name), attr, None)), target


def test_benchmark_setup_builds_every_first_job_block(tmp_path, monkeypatch):
    # the benchmark builds the first job's blocks before timing, with the
    # keywords below; a library change that drops one of them must fail here
    monkeypatch.setitem(sys.modules, "bench_trace", load_bench_trace())
    workloads = load_bench_module("bench_workloads").WORKLOADS
    for workload in workloads.values():
        first = workload.config(ExperimentConfig, 0, 0, tmp_path / "in", tmp_path / "out")
        first.validate()
        channels = 3 * 4**first.squeeze_levels
        for k, kind in enumerate(first.kinds):
            block = experiment.build_block(kind, first.variant, channels, c=first.c, phi=first.phi,
                                           seed=first.seed + k)
            assert (block.kind, block.channels) == (kind, channels)


def test_traced_run_records_every_span_and_matches_untraced(tmp_path):
    # a traced benchmark run also fails when a span records no call, or when
    # tracing changes the run's summary
    bench_trace = load_bench_trace()
    rng = np.random.default_rng(32)
    image_dir = tmp_path / "images"
    image_dir.mkdir()
    for i in range(2):
        save_ppm(lattice_grid(rng, (3, 8, 8)), image_dir / f"img{i}.ppm")

    def summary(out: str) -> bytes:
        cfg = ExperimentConfig(
            image_dir=str(image_dir),
            logdet=True,
            logdet_terms=4,
            logdet_samples=4,
            workers=2,
            out_dir=str(tmp_path / out),
        )
        assert run_experiment(cfg) == EXIT_OK
        return (tmp_path / out / "summary.txt").read_bytes()

    untraced = summary("untraced")
    tracer = bench_trace.Tracer()
    tracer.install()
    try:
        traced = summary("traced")
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    table = bench_trace.SpanTable(tracer, workers=2)
    assert [name for name in bench_trace.SPANS if table.count(name) < 1] == []
    assert traced == untraced


def test_traced_blocked_run_records_every_span_and_matches_untraced(tmp_path, monkeypatch):
    # at m = 256 over 64-column slabs each branch call takes 4 slabs, as the
    # benchmark's m = 1024 workload does over 256-column slabs: the spans of a
    # run without a log-det must all still fire, and tracing must not change
    # the summary
    monkeypatch.setattr(attention, "_BLOCK_COLS", 64)
    bench_trace = load_bench_trace()
    monkeypatch.setitem(sys.modules, "bench_trace", bench_trace)
    logdet_spans = load_bench_module("bench_workloads").LOGDET_SPANS
    rng = np.random.default_rng(37)
    image_dir = tmp_path / "images"
    image_dir.mkdir()
    for i in range(2):
        save_ppm(lattice_grid(rng, (3, 32, 32)), image_dir / f"img{i}.ppm")

    def summary(out: str) -> bytes:
        cfg = ExperimentConfig(image_dir=str(image_dir), squeeze_levels=1, workers=2, out_dir=str(tmp_path / out))
        assert run_experiment(cfg) == EXIT_OK
        return (tmp_path / out / "summary.txt").read_bytes()

    untraced = summary("untraced")
    tracer = bench_trace.Tracer()
    tracer.install()
    try:
        traced = summary("traced")
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    table = bench_trace.SpanTable(tracer, workers=2)
    spans = [name for name in bench_trace.SPANS if name not in logdet_spans]
    assert [name for name in spans if table.count(name) < 1] == []
    assert table.count("attention.raw_response") == 4 * table.count("attention.branch")
    assert traced == untraced


# ---------------------------------------------------------------------------
# Experiment runs
# ---------------------------------------------------------------------------


def small_config(tmp_path, **overrides):
    base = dict(
        kinds=("embedded",),
        size=8,
        batch=4,
        seed=11,
        workers=2,
        out_dir=str(tmp_path / "out"),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestRunExperiment:
    def test_invertible_run_reconstructs(self, tmp_path):
        cfg = small_config(tmp_path)
        assert run_experiment(cfg) == EXIT_OK
        out = Path(cfg.out_dir)
        records = read_records(out / "records.jsonl")
        assert len(records) == 4
        assert all(r["mse"] < 1e-6 for r in records)
        assert (out / "summary.txt").exists()
        assert (out / "block_embedded.json").exists()
        assert len(list(out.glob("recon_embedded_*.ppm"))) == 4

    def test_summary_consistent_with_records(self, tmp_path):
        cfg = small_config(tmp_path, kinds=("gaussian", "concat"), batch=5)
        run_experiment(cfg)
        out = Path(cfg.out_dir)
        records = read_records(out / "records.jsonl")
        summary = (out / "summary.txt").read_text().splitlines()
        for line in summary[2:]:
            kind = line.split("|")[0].strip()
            mine = [r for r in records if r["kind"] == kind]
            vscore = sum(r["converged"] and r["mse"] < 10.0 for r in mine) / len(mine)
            assert f"{100.0 * vscore:7.3f}%" in line

    def test_record_mse_matches_saved_reconstruction(self, tmp_path):
        cfg = small_config(tmp_path, batch=3)
        run_experiment(cfg)
        out = Path(cfg.out_dir)
        records = read_records(out / "records.jsonl")
        images = synthetic_batch("checkerboard", 8, 3, seed=11)
        for record in records:
            recon = load_ppm(out / f"recon_embedded_{record['index']:03d}.ppm")
            file_mse = mse_0_255(images[record["index"]], recon)
            bound = 0.25 + 0.5 * (math.sqrt(file_mse) + math.sqrt(record["mse"])) + 1e-9
            assert abs(file_mse - record["mse"]) <= bound

    def test_deterministic_summary_bytes(self, tmp_path):
        cfg_a = small_config(tmp_path, out_dir=str(tmp_path / "a"), kinds=("gaussian", "embedded"))
        cfg_b = small_config(tmp_path, out_dir=str(tmp_path / "b"), kinds=("gaussian", "embedded"))
        run_experiment(cfg_a)
        run_experiment(cfg_b)
        assert (tmp_path / "a" / "summary.txt").read_bytes() == (tmp_path / "b" / "summary.txt").read_bytes()

    def test_noninvertible_run_is_annotated_and_passes(self, tmp_path):
        cfg = small_config(tmp_path, variant="noninvertible", vscore_floor=0.9)
        assert run_experiment(cfg) == EXIT_OK
        records = read_records(Path(cfg.out_dir) / "records.jsonl")
        assert all(r.get("note") == "no invertibility contract" for r in records)

    def test_stressed_run_fails_floor_with_itemized_divergences(self, tmp_path):
        cfg = small_config(
            tmp_path,
            kinds=("dot",),
            stress_weight_scale=5.0,
            vscore_floor=0.9,
            batch=4,
        )
        assert run_experiment(cfg) == EXIT_INVARIANT
        records = read_records(Path(cfg.out_dir) / "records.jsonl")
        assert all("index" in r for r in records)
        assert any(r.get("diverged") or not r.get("converged", True) for r in records)

    def test_logdet_attachment(self, tmp_path):
        cfg = small_config(tmp_path, size=4, squeeze_levels=0, batch=2,
                           logdet=True, logdet_terms=10, logdet_samples=16)
        run_experiment(cfg)
        records = read_records(Path(cfg.out_dir) / "records.jsonl")
        for record in records:
            assert "logdet_estimate" in record
            assert "logdet_oracle" in record

    def logdet_records(self, tmp_path, **overrides):
        cfg = ExperimentConfig(logdet=True, seed=0, out_dir=str(tmp_path / "out"), **overrides)
        code = run_experiment(cfg)
        return code, read_records(Path(cfg.out_dir) / "records.jsonl")

    def test_logdet_records_carry_relative_error_and_warnings(self, tmp_path):
        code, records = self.logdet_records(
            tmp_path, kinds=("gaussian",), size=8, batch=4, synthetic="gradient"
        )
        assert code == EXIT_OK
        for record in records:
            estimate, oracle = record["logdet_estimate"], record["logdet_oracle"]
            assert record["logdet_rel_err"] == abs(estimate - oracle) / abs(oracle)
        assert [i for i, r in enumerate(records) if "logdet_warning" in r] == [0, 2]
        assert records[0]["logdet_warning"] == "per-term magnitudes not decaying"

    def test_logdet_error_is_recorded_beside_the_roundtrip_fields(self, tmp_path):
        code, records = self.logdet_records(
            tmp_path, kinds=("gaussian",), size=8, batch=4, synthetic="gradient",
            stress_weight_scale=3.0,
        )
        assert code == EXIT_OK
        failed = [i for i, r in enumerate(records) if "error" in r]
        assert failed == [0, 3]
        for i in failed:
            record = records[i]
            assert record["error"].startswith("InvariantViolation: Jacobian determinant sign -1")
            # the oracle refuses the block after the series estimate is written
            keys = list(record)
            assert keys[:10] == [
                "index", "iterations", "final_residual", "converged", "diverged", "mse",
                "kind", "ssim", "out_of_domain", "logdet_estimate",
            ]
            assert keys[10:] in (["error"], ["logdet_warning", "error"])
            assert math.isfinite(record["logdet_estimate"])
        assert all("logdet_oracle" in records[i] for i in (1, 2))

    def test_records_count_preimage_entries_outside_the_image_domain(self, tmp_path):
        # this gaussian block is no contraction: the solves of images 2 and 5
        # meet the tolerance on wrong preimages that leave [0, 1], so their
        # records do not read converged
        cfg = ExperimentConfig(kinds=("gaussian",), synthetic="gradient", size=16, squeeze_levels=2,
                               batch=8, seed=0, out_dir=str(tmp_path / "out"))
        run_experiment(cfg)
        records = read_records(Path(cfg.out_dir) / "records.jsonl")
        assert all(r["final_residual"] <= 1e-9 for r in records)
        assert [r["converged"] for r in records] == [True, True, False, True, True, False, True, True]
        assert [i for i, r in enumerate(records) if r["mse"] >= 10.0] == [2, 5]
        assert [r["out_of_domain"] for r in records] == [0, 0, 24, 0, 0, 35, 0, 0]

    def test_logdet_past_the_oracle_budget_is_noted_without_an_estimate(self, tmp_path):
        code, (record,) = self.logdet_records(tmp_path, kinds=("embedded",), size=32, batch=1)
        assert code == EXIT_OK
        assert record["logdet_note"] == "d=3072 exceeds dense-oracle budget"
        assert "logdet_estimate" not in record and "logdet_oracle" not in record

    def test_image_dir_source(self, tmp_path):
        img_dir = tmp_path / "imgs"
        img_dir.mkdir()
        rng = np.random.default_rng(12)
        for i in range(3):
            save_ppm(lattice_grid(rng, (3, 8, 8)), img_dir / f"img_{i}.ppm")
        cfg = small_config(tmp_path, image_dir=str(img_dir), batch=1)
        assert run_experiment(cfg) == EXIT_OK
        assert len(read_records(Path(cfg.out_dir) / "records.jsonl")) == 3

    def test_outputs_identical_for_any_worker_count(self, tmp_path, monkeypatch):
        def outputs(workers, stack_elements=None):
            if stack_elements is not None:
                monkeypatch.setattr(attention, "_STACK_ELEMENTS", stack_elements)
            out = tmp_path / f"w{workers}-{stack_elements}"
            cfg = small_config(tmp_path, kinds=KINDS, batch=5, workers=workers, out_dir=str(out))
            run_experiment(cfg)
            names = ["records.jsonl", "summary.txt"] + sorted(f.name for f in out.glob("recon_*.ppm"))
            return {name: (out / name).read_bytes() for name in names}

        want = outputs(1)
        assert len(want) == 2 + 4 * 5
        assert outputs(2) == want
        assert outputs(4) == want
        assert outputs(2, stack_elements=2 * 16**2) == want
        assert _image_stacks(synthetic_batch("checkerboard", 8, 5, seed=11), 1) == [[0, 1], [2, 3], [4]]

    def test_image_dir_shapes_stack_apart_and_match_solo_roundtrips(self, tmp_path):
        img_dir = tmp_path / "imgs"
        img_dir.mkdir()
        rng = np.random.default_rng(13)
        sizes = (8, 4, 8, 4, 8)
        for i, size in enumerate(sizes):
            save_ppm(lattice_grid(rng, (3, size, size)), img_dir / f"img_{i}.ppm")
        cfg = small_config(tmp_path, kinds=("gaussian", "dot"), image_dir=str(img_dir))
        assert _image_stacks(load_image_dir(img_dir), cfg.squeeze_levels) == [[0, 2, 4], [1, 3]]
        assert run_experiment(cfg) == EXIT_OK
        out = Path(cfg.out_dir)
        records = read_records(out / "records.jsonl")
        assert [(r["kind"], r["index"]) for r in records] == [
            (kind, i) for kind in cfg.kinds for i in range(len(sizes))
        ]
        for record in records:
            block = load_block(out / f"block_{record['kind']}.json")
            image = load_ppm(img_dir / f"img_{record['index']}.ppm")
            _, report = roundtrip(squeeze(image, 1), block, InversionConfig(max_iters=cfg.iters, early_stop_tol=cfg.tol))
            solo = report_to_record(report, index=record["index"], kind=record["kind"])
            assert {key: record[key] for key in solo} == solo

    def test_stacked_roundtrip_failure_runs_each_image_alone(self, tmp_path):
        # At this logit scale a grey image inverts alone, but stacked with a
        # white one the whole forward pass overflows.
        img_dir = tmp_path / "imgs"
        img_dir.mkdir()
        for i, level in enumerate((51, 255, 51)):
            save_ppm(np.full((3, 8, 8), level / 255.0), img_dir / f"img_{i}.ppm")
        cfg = small_config(tmp_path, kinds=("gaussian",), image_dir=str(img_dir), stress_logit_scale=1e308)
        assert run_experiment(cfg) == EXIT_OK
        out = Path(cfg.out_dir)
        grey, white, grey_again = read_records(out / "records.jsonl")
        assert white["error"].startswith("NonFiniteError")
        block = load_block(out / "block_gaussian.json")
        for record in (grey, grey_again):
            image = load_ppm(img_dir / f"img_{record['index']}.ppm")
            _, report = roundtrip(squeeze(image, 1), block, cfg.inversion)
            assert report.converged
            solo = report_to_record(report, index=record["index"], kind=record["kind"])
            assert {key: record[key] for key in solo} == solo

    def test_image_that_fails_alone_gets_an_error_record_without_roundtrip_fields(self, tmp_path):
        cfg = small_config(
            tmp_path, kinds=("gaussian",), seed=2, synthetic="gradient", stress_logit_scale=1e308
        )
        assert run_experiment(cfg) == EXIT_OK
        out = Path(cfg.out_dir)
        records = read_records(out / "records.jsonl")
        assert [r["index"] for r in records] == [0, 1, 2, 3]
        for record in records:
            assert list(record) == ["index", "kind", "error", "mse", "converged", "diverged"]
            assert record["error"].startswith("NonFiniteError")
            assert (record["mse"], record["converged"], record["diverged"]) == (math.inf, False, True)
        assert not list(out.glob("recon_*.ppm"))

    def test_stack_with_a_diverged_image_scores_the_rest_alike(self, tmp_path):
        # at this stress one of the four images diverges in the stacked solve
        cfg = small_config(tmp_path, kinds=("concat",), seed=4, stress_weight_scale=5.0)
        images = synthetic_batch(cfg.synthetic, cfg.size, cfg.batch, cfg.seed)
        assert _image_stacks(images, cfg.squeeze_levels) == [[0, 1, 2, 3]]
        run_experiment(cfg)
        out = Path(cfg.out_dir)
        records = read_records(out / "records.jsonl")
        assert [r["diverged"] for r in records] == [False, False, True, False]
        # the stressed block is past the bound load_block checks
        block = experiment.make_block(cfg, "concat")
        for record, image in zip(records, images):
            if record["diverged"]:
                assert record["ssim"] is None and record["out_of_domain"] is None
                assert not (out / f"recon_concat_{record['index']:03d}.ppm").exists()
                continue
            xhat, _ = roundtrip(squeeze(image, 1), block, cfg.inversion)
            recon = np.clip(attention.unsqueeze(xhat, 1), 0.0, 1.0)
            assert record["ssim"] == compute_ssim(image, recon)

    def test_image_dir_not_squeezable_is_config_error(self, tmp_path):
        img_dir = tmp_path / "imgs"
        img_dir.mkdir()
        rng = np.random.default_rng(14)
        for i in range(2):
            save_ppm(lattice_grid(rng, (3, 6, 6)), img_dir / f"img_{i}.ppm")
        out = tmp_path / "out"
        code = main(["run", "--image-dir", str(img_dir), "--squeeze", "2", "--kind", "gaussian",
                     "--out", str(out)])
        assert code == EXIT_CONFIG
        assert not (out / "records.jsonl").exists()

    def test_empty_image_dir_rejected(self, tmp_path):
        empty = tmp_path / "none"
        empty.mkdir()
        cfg = small_config(tmp_path, image_dir=str(empty))
        with pytest.raises(ValueError):
            run_experiment(cfg)

    def test_format_summary_layout(self):
        from invattn.harness.experiment import KindSummary

        table = format_summary([KindSummary("gaussian", 0.25, 0.999, 1.0)])
        lines = table.splitlines()
        assert lines[0].split("|")[0].strip() == "kind"
        assert "gaussian" in lines[2]
        assert "100.000%" in lines[2]

    def test_vscore_does_not_count_an_unconverged_record(self):
        # a small MSE alone is not a reconstruction: `invert` refuses this
        # record, so the V-score does not count it either
        records = [
            {"kind": "gaussian", "index": 0, "mse": 0.0, "ssim": 1.0, "converged": True},
            {"kind": "gaussian", "index": 1, "mse": 3.0, "ssim": 0.99, "converged": False},
        ]
        assert _aggregate("gaussian", records).v_score == 0.5


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestCli:
    def test_run_subcommand(self, tmp_path):
        code = main([
            "run", "--kind", "embedded", "--size", "8", "--batch", "2",
            "--seed", "3", "--out", str(tmp_path / "out"),
        ])
        assert code == EXIT_OK
        assert (tmp_path / "out" / "summary.txt").exists()

    def test_run_with_config_file_and_override(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("kinds = gaussian\nsize = 8\nbatch = 2\nseed = 9\n")
        code = main(["run", "--config", str(cfg), "--kind", "concat",
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_OK
        assert (tmp_path / "out" / "block_concat.json").exists()
        assert not (tmp_path / "out" / "block_gaussian.json").exists()

    def test_invert_subcommand(self, tmp_path):
        out = tmp_path / "recon.ppm"
        code = main(["invert", "--kind", "concat", "--size", "8", "--seed", "4",
                     "--out", str(out)])
        assert code == EXIT_OK
        assert out.exists()

    def test_invert_refuses_a_wrong_preimage(self, capsys):
        # this gaussian block's raw inner-product logits break its contraction:
        # the solve meets the tolerance in 45 iterations, but on another
        # preimage (MSE 4.6e4) that leaves [0, 1], so the record does not
        # read converged. Logits that no longer break it (L2-distance logits,
        # item 16 of the roadmap) will need another wrong-preimage case here.
        assert main(["invert", "--kind", "gaussian", "--size", "16", "--squeeze", "1", "--seed", "17",
                     "--synthetic", "gradient"]) == EXIT_INVARIANT
        out, err = capsys.readouterr()
        record = json.loads(out)
        assert "input not reconstructed" in err
        assert record["final_residual"] <= 1e-9 and record["out_of_domain"] > 0
        assert not record["converged"] and record["mse"] >= 10.0

    @pytest.mark.parametrize("seed", [0, 4])
    def test_invert_prints_the_record_run_writes(self, tmp_path, capsys, seed):
        # a kind's block does not depend on which other kinds run
        runs = []
        for kinds in ([], ["--kind", "concat,gaussian"], *(["--kind", kind] for kind in KINDS)):
            out = tmp_path / f"run{len(runs)}"
            main(["run", *kinds, "--seed", str(seed), "--batch", "1", "--workers", "1", "--out", str(out)])
            runs += read_records(out / "records.jsonl")
        capsys.readouterr()
        for kind in KINDS:
            main(["invert", "--kind", kind, "--seed", str(seed)])
            printed = json.loads(capsys.readouterr().out)
            assert [r for r in runs if r["kind"] == kind] == [printed] * (3 if kind in ("concat", "gaussian") else 2)

    @pytest.mark.parametrize("source", [[], ["--synthetic", "gradient"]])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_logdet_prints_the_logdet_fields_run_records(self, tmp_path, capsys, seed, source):
        out = tmp_path / "out"
        main(["run", "--logdet", *source, "--seed", str(seed), "--batch", "1", "--out", str(out)])
        capsys.readouterr()
        for record in read_records(out / "records.jsonl"):
            assert main(["logdet", "--kind", record["kind"], *source, "--seed", str(seed)]) == EXIT_OK
            printed = json.loads(capsys.readouterr().out)
            assert printed.pop("probe_variance") > 0
            assert printed == {key: value for key, value in record.items() if key.startswith("logdet_")}
            assert {"logdet_estimate", "logdet_oracle", "logdet_rel_err"} <= set(printed)

    def test_phi_refused_at_every_entry_point(self, tmp_path, capsys):
        # softplus is the one activation, so naming phi anywhere fails loudly
        with pytest.raises(ValueError, match="unknown config key 'phi'"):
            config_from_mapping({"phi": "softplus"})
        for command in ("run", "invert", "logdet", "lipschitz"):
            out = tmp_path / command
            flags = ["--out", str(out)] if command in ("run", "invert") else []
            assert main([command, "--phi", "softplus", "--size", "8", *flags]) == EXIT_CONFIG, command
            assert not out.exists(), command
            assert "unrecognized arguments: --phi softplus" in capsys.readouterr().err, command
        path = tmp_path / "block.json"
        payload = block_to_dict(build_block("concat", "invertible", 3, seed=27))
        path.write_text(json.dumps(dict(payload, version=5, phi="softplus")))  # as version 5 wrote it
        with pytest.raises(ValueError, match="unknown key 'phi'"):
            load_block(path)
        with pytest.raises(ValueError, match="phi='elu'"):
            build_block("dot", "invertible", 4, phi="elu")
        with pytest.raises(TypeError, match="'phi'"):
            AttentionBlock(kind="dot", variant="invertible", focus=np.eye(3), last=np.eye(3),
                           embed1=np.eye(3), embed2=np.eye(3), phi="softplus")

    def test_logdet_subcommand(self):
        assert main(["logdet", "--kind", "embedded", "--size", "4", "--squeeze", "0",
                     "--seed", "2", "--terms", "8", "--samples", "8"]) == EXIT_OK

    def test_logdet_past_the_oracle_budget_prints_the_estimate(self, capsys):
        assert main(["logdet", "--size", "32", "--terms", "2", "--samples", "2"]) == EXIT_OK
        fields, skipped = capsys.readouterr().out.splitlines()
        assert list(json.loads(fields)) == ["logdet_estimate", "probe_variance"]
        assert skipped == "dense oracle skipped: d=3072 exceeds the 768 budget"

    def test_readme_cli_lines_parse(self):
        # a flag renamed or removed in the parser must also leave the README
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = readme.split("## CLI\n\n```sh\n", 1)[1].split("```", 1)[0]
        lines = [shlex.split(line, comments=True) for line in block.splitlines()]
        assert lines and all(words[0] == "invattn" for words in lines)
        for words in lines:
            build_parser().parse_args(words[1:])

    @pytest.mark.parametrize("source", [[], ["--synthetic", "gradient"]])
    def test_lipschitz_subcommand(self, source):
        assert main(["lipschitz", "--kind", "gaussian", "--size", "8", "--seed", "1",
                     "--pairs", "100", *source]) == EXIT_OK

    def test_unknown_kind_is_config_error(self, tmp_path):
        assert main(["run", "--kind", "nope", "--out", str(tmp_path / "x")]) == EXIT_CONFIG

    @pytest.mark.parametrize("command", ["invert", "logdet", "lipschitz"])
    def test_single_image_subcommands_refuse_oversized_input(self, command):
        assert main([command, "--size", "66"]) == EXIT_CONFIG

    def test_invert_refuses_oversized_image(self, tmp_path):
        path = tmp_path / "big.ppm"
        save_ppm(np.full((3, 66, 66), 0.5), path)
        assert main(["invert", "--image", str(path)]) == EXIT_CONFIG

    def test_missing_image_is_io_error(self):
        assert main(["invert", "--image", "/definitely/not/here.ppm"]) == EXIT_IO

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["run", "--variant", "diagonal"], "argument --variant: invalid choice: 'diagonal'"),
            # only the two subcommands that invert take the iteration count
            (["logdet", "--iters", "5"], "unrecognized arguments: --iters 5"),
            (["lipschitz", "--iters", "5"], "unrecognized arguments: --iters 5"),
            (["selftest"], "argument command: invalid choice: 'selftest'"),
        ],
        ids=["run-variant", "logdet-iters", "lipschitz-iters", "selftest"],
    )
    def test_bad_flag_is_config_error(self, capsys, argv, message):
        assert main(argv) == EXIT_CONFIG
        assert message in capsys.readouterr().err

    def test_nan_tol_is_config_error(self, tmp_path):
        # NaN compares false with every bound, and inf is above every step:
        # unchecked, each solve stopped after one step and read as converged
        for tol in ("nan", "inf"):
            out = tmp_path / tol
            code = main(["run", "--kind", "embedded", "--size", "8", "--batch", "2",
                         "--tol", tol, "--workers", "1", "--out", str(out)])
            assert code == EXIT_CONFIG, tol
            assert not (out / "records.jsonl").exists(), tol

    def test_diverging_run_is_reported_without_numeric_warnings(self, tmp_path):
        # the stressed blocks overflow in the forward pass and the solve; the
        # run reports that in its records, and pytest turns any numpy
        # RuntimeWarning into an error
        out = tmp_path / "out"
        code = main(["run", "--size", "8", "--batch", "3", "--stress-weight-scale", "60",
                     "--workers", "2", "--out", str(out)])
        assert code == EXIT_OK
        assert len(read_records(out / "records.jsonl")) == 12

    def test_column_sum_target_refused_before_out_dir_is_made(self, tmp_path, capsys):
        # the key was removed; an old config file that sets it fails loudly
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("kinds = dot\nsize = 8\ncolumn_sum_target = 1.5\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()
        assert "unknown config key 'column_sum_target'" in capsys.readouterr().err

    def test_precision_key_refused_before_out_dir_is_made(self, tmp_path, capsys):
        # the library computes in float64 only; an old config file that asks
        # for float32 fails loudly
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("kinds = dot\nsize = 8\nprecision = 32\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()
        assert "unknown config key 'precision'" in capsys.readouterr().err

    def test_precision_flag_refused_before_out_dir_is_made(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["run", "--precision", "32", "--size", "8", "--batch", "1", "--out", str(out)])
        assert code == EXIT_CONFIG
        assert not out.exists()
        assert "unrecognized arguments: --precision 32" in capsys.readouterr().err

    def test_every_flag_reaches_the_config(self):
        # _config passes on only the dests that are config keys, so a flag
        # whose config field is gone would be dropped without an error
        handled_by_the_cli = {"command", "config", "image", "out", "pairs"}
        subcommands = next(
            action for action in build_parser()._actions if isinstance(action, argparse._SubParsersAction)
        )
        for name, sub in subcommands.choices.items():
            for action in sub._actions:
                if isinstance(action, argparse._HelpAction):
                    continue
                assert action.dest in CONFIG_TYPES or action.dest in handled_by_the_cli, (name, action.dest)

    @pytest.mark.parametrize(
        "flags, name",
        [
            (["--stress-logit-scale", "nan", "--kind", "gaussian,dot"], "logit_scale"),
            (["--stress-weight-scale", "inf", "--kind", "embedded"], "stress_weight_scale"),
        ],
        ids=["logit-nan", "weight-inf"],
    )
    def test_non_finite_stress_refused_before_out_dir_is_made(self, tmp_path, capsys, flags, name):
        # unchecked, a NaN logit scale ran and recorded NonFiniteError for
        # every image, and an infinite weight scale saved a block of
        # Infinity literals that load_block refuses
        out = tmp_path / "out"
        code = main(["run", *flags, "--size", "8", "--batch", "1", "--workers", "1", "--out", str(out)])
        assert code == EXIT_CONFIG
        assert not out.exists()
        assert f"{name} must be finite" in capsys.readouterr().err

    def test_negative_seed_refused_by_name_before_out_dir_is_made(self, tmp_path, capsys):
        images = tmp_path / "images"
        images.mkdir()
        save_ppm(np.full((3, 8, 8), 0.5), images / "a.ppm")
        out = tmp_path / "out"
        code = main(["run", "--seed", "-1", "--image-dir", str(images), "--kind", "gaussian",
                     "--workers", "1", "--out", str(out)])
        assert code == EXIT_CONFIG
        assert not out.exists()
        assert "seed must be >= 0" in capsys.readouterr().err
