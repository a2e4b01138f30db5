import importlib.util
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from invattn import attention
from invattn.attention import KINDS, load_block, squeeze
from invattn.errors import PpmParseError
from invattn.harness.cli import main
from invattn.harness.experiment import (
    _PARSERS,
    CONFIG_TYPES,
    EXIT_CONFIG,
    EXIT_INVARIANT,
    EXIT_IO,
    EXIT_OK,
    ExperimentConfig,
    _image_stacks,
    config_from_mapping,
    format_summary,
    load_image_dir,
    parse_config_file,
    run_experiment,
    synthetic_batch,
)
from invattn.harness.metrics import compute_mse, compute_ssim
from invattn.harness.ppm import load_ppm, save_ppm
from invattn.inversion import InversionConfig, read_records, report_to_record, roundtrip


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
        assert compute_mse(a, a) == 0.0

    def test_one_lattice_step_everywhere(self):
        rng = np.random.default_rng(2)
        a = rng.uniform(0, 0.9, (3, 4, 4))
        assert abs(compute_mse(a, a + 1.0 / 255.0) - 1.0) <= 1e-12

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(3)
        a = rng.uniform(0, 1, (2, 3, 4))
        b = rng.uniform(0, 1, (2, 3, 4))
        total = 0.0
        for ch in range(2):
            for i in range(3):
                for j in range(4):
                    total += (255.0 * (a[ch, i, j] - b[ch, i, j])) ** 2
        assert abs(compute_mse(a, b) - total / a.size) <= 1e-9

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            compute_mse(np.zeros((3, 2, 2)), np.zeros((3, 2, 3)))


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
            {"precision": 16},
            {"tol": math.inf},
            {"phi": "tanh"},
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
            vscore = sum(r["mse"] < 10.0 for r in mine) / len(mine)
            assert f"{100.0 * vscore:7.3f}%" in line

    def test_record_mse_matches_saved_reconstruction(self, tmp_path):
        cfg = small_config(tmp_path, batch=3)
        run_experiment(cfg)
        out = Path(cfg.out_dir)
        records = read_records(out / "records.jsonl")
        images = synthetic_batch("checkerboard", 8, 3, seed=11)
        for record in records:
            recon = load_ppm(out / f"recon_embedded_{record['index']:03d}.ppm")
            file_mse = compute_mse(images[record["index"]], recon)
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

    def test_float32_precision_run(self, tmp_path):
        cfg = small_config(tmp_path, precision=32, batch=2, tol=1e-6)
        assert run_experiment(cfg) == EXIT_OK
        records = read_records(Path(cfg.out_dir) / "records.jsonl")
        assert all(r["mse"] < 10.0 for r in records)
        block = json.loads((Path(cfg.out_dir) / "block_embedded.json").read_text())
        assert block["precision"] == "float32"

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
            _, report = roundtrip(squeeze(image), block, InversionConfig(max_iters=cfg.iters, early_stop_tol=cfg.tol))
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
            _, report = roundtrip(squeeze(image), block, cfg.inversion)
            assert report.converged
            solo = report_to_record(report, index=record["index"], kind=record["kind"])
            assert {key: record[key] for key in solo} == solo

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
        # phi = relu breaks the dot block's contraction: the solve converges,
        # but to another preimage
        assert main(["invert", "--kind", "dot", "--phi", "relu", "--size", "8", "--seed", "0",
                     "--synthetic", "gaussian-noise"]) == EXIT_INVARIANT
        assert "input not reconstructed" in capsys.readouterr().err

    def test_logdet_subcommand(self):
        assert main(["logdet", "--kind", "embedded", "--size", "4", "--squeeze", "0",
                     "--seed", "2", "--terms", "8", "--samples", "8"]) == EXIT_OK

    def test_lipschitz_subcommand(self):
        assert main(["lipschitz", "--kind", "gaussian", "--size", "8", "--seed", "1",
                     "--pairs", "100"]) == EXIT_OK

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

    def test_bad_flag_is_config_error(self):
        assert main(["run", "--variant", "diagonal"]) == EXIT_CONFIG

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

    def test_selftest_passes(self, capsys):
        assert main(["selftest"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "[PASS]" in out and "[FAIL]" not in out
