import dataclasses
import math

import numpy as np
import pytest

from invattn.attention import build_block, make_residual_branch, residual_forward, squeeze
from invattn.harness.experiment import _scale_weights_inplace
from invattn.inversion import (
    InversionConfig,
    InversionReport,
    estimate_lipschitz,
    fixed_point_invert,
    normal_sampler,
    read_records,
    report_to_record,
    roundtrip,
    roundtrip_check,
    write_records,
)
from invattn.linalg import power_iteration


def uniform01_sampler(shape):
    def sample(rng):
        return rng.uniform(0.0, 1.0, shape)

    return sample


class TestConfig:
    def test_defaults(self):
        cfg = InversionConfig()
        assert cfg.max_iters == 100
        assert cfg.early_stop_tol == 1e-10

    def test_zero_tol_reproduces_fixed_iteration_count(self):
        z = np.full((1, 1, 1, 1), 1.5)
        _, report = fixed_point_invert(z, lambda x: 0.5 * x, InversionConfig(max_iters=37, early_stop_tol=0.0))
        assert report.iterations_used == 37

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_iters": 0},
            {"early_stop_tol": -1e-3},
            {"early_stop_tol": float("nan")},
            {"early_stop_tol": float("inf")},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            InversionConfig(**kwargs)


class TestFixedPointInvert:
    def test_zero_branch_converges_immediately(self):
        rng = np.random.default_rng(0)
        z = rng.standard_normal((1, 2, 3, 3))
        x, report = fixed_point_invert(z, lambda y: np.zeros_like(y))
        assert np.array_equal(x, z)
        assert report.iterations_used == 1
        assert report.final_residual == 0.0
        assert report.converged

    def test_scalar_affine_contraction(self):
        # z = 1.5, g(x) = 0.5x: iterates 1.5, 0.75, 1.125, ... -> 1.0,
        # with the error halving each step
        z = np.full((1, 1, 1), 1.5)
        cfg = InversionConfig(max_iters=100, early_stop_tol=1e-14, record_trace=True)
        x, report = fixed_point_invert(z[None], lambda y: 0.5 * y, cfg)
        assert abs(x.item() - 1.0) <= 1e-13
        trace = np.array(report.images[0].trace)
        assert abs(trace[0] - 0.75) <= 1e-15
        ratios = trace[1:] / trace[:-1]
        assert np.allclose(ratios, 0.5, atol=1e-12)

    def test_attention_block_roundtrip_max_abs(self):
        rng = np.random.default_rng(1)
        block = build_block("gaussian", "invertible", 4, c=0.9, seed=2)
        x_true = rng.uniform(0.0, 1.0, (4, 4, 4))  # m = 16, C = 4
        z = residual_forward(x_true, block)
        x, report = fixed_point_invert(z[None], make_residual_branch(block), InversionConfig())
        assert np.abs(x - x_true).max() < 1e-8
        assert report.converged

    def test_divergence_reported_at_its_iteration(self):
        def bad(y):
            return np.full_like(y, np.nan)

        x, report = fixed_point_invert(np.ones((1, 1, 2, 2)), bad)
        assert report.diverged and report.images[0].diverged
        assert report.images[0].iterations_used == 1
        assert np.isnan(x[0]).all()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_expansive_branch_overflows_to_divergence(self):
        # 1 - 1e200 is finite; the next step's branch output overflows
        z = np.ones((1, 1, 2, 2))
        grow = lambda y: y * 1e200
        x, report = fixed_point_invert(z, grow, InversionConfig(max_iters=2000, early_stop_tol=0.0))
        assert report.diverged and report.images[0].diverged
        assert report.images[0].iterations_used == 2
        assert np.isnan(x[0]).all()

    def test_single_grid_refused(self):
        calls = []

        def g(y):
            calls.append(y.shape)
            return 0.5 * y

        with pytest.raises(ValueError, match=r"takes a \(B, C, H, W\) stack, got shape \(2, 3, 3\)"):
            fixed_point_invert(np.ones((2, 3, 3)), g, InversionConfig(max_iters=3))
        assert calls == []

    def test_converged_implies_residual_within_tolerance(self):
        rng = np.random.default_rng(2)
        block = build_block("embedded", "invertible", 3, seed=3)
        for tol in (1e-6, 1e-10):
            cfg = InversionConfig(max_iters=100, early_stop_tol=tol)
            _, report = fixed_point_invert(rng.uniform(0, 1, (1, 3, 4, 4)), make_residual_branch(block), cfg)
            if report.converged:
                assert report.final_residual <= tol * 10.0

    def test_more_iterations_never_hurt(self):
        rng = np.random.default_rng(3)
        block = build_block("concat", "invertible", 3, seed=4)
        z = residual_forward(rng.uniform(0, 1, (3, 4, 4)), block)
        branch = make_residual_branch(block)
        residuals = []
        for n in (5, 10, 20, 40, 80):
            _, report = fixed_point_invert(z[None], branch, InversionConfig(max_iters=n, early_stop_tol=0.0))
            residuals.append(report.final_residual)
        assert all(b <= a + 1e-15 for a, b in zip(residuals, residuals[1:]))

    def test_deterministic_bit_identical(self):
        rng = np.random.default_rng(4)
        block = build_block("embedded", "invertible", 3, seed=5)
        z = residual_forward(rng.uniform(0, 1, (3, 4, 4)), block)
        cfg = InversionConfig(record_trace=True)
        x1, r1 = fixed_point_invert(z[None], make_residual_branch(block), cfg)
        x2, r2 = fixed_point_invert(z[None], make_residual_branch(block), cfg)
        assert np.array_equal(x1, x2)
        assert dataclasses.asdict(r1) == dataclasses.asdict(r2)


def solo_solves(z, g, cfg, skip=()):
    """Each image of the stack ``z`` but those in ``skip`` solved alone, as a
    stack of one, as (x, report) pairs."""
    solos = {j: fixed_point_invert(image[None], g, cfg) for j, image in enumerate(z) if j not in skip}
    return {j: (x[0], report.images[0]) for j, (x, report) in solos.items()}


def assert_matches_solo(x, report, solos):
    for j, (x_solo, r_solo) in solos.items():
        assert np.array_equal(x[j], x_solo)  # the same bits
        assert dataclasses.asdict(report.images[j]) == dataclasses.asdict(r_solo)


def spread_stack(kind, seed):
    """A squeezed 12x4x4 block and a stack of its outputs whose images
    converge at different steps (input scales 0.05 to 1.5)."""
    block = build_block(kind, "invertible", 12, seed=seed)
    rng = np.random.default_rng(seed)
    images = [squeeze(scale * rng.uniform(0.0, 1.0, (3, 8, 8))) for scale in (0.05, 0.3, 1.0, 1.5)]
    return block, residual_forward(np.stack(images), block)


class TestStackedSolve:
    @pytest.mark.parametrize("kind", ["gaussian", "embedded", "dot", "concat"])
    def test_stack_equals_loop_of_solo_solves(self, kind):
        block, z = spread_stack(kind, seed=21)
        branch = make_residual_branch(block)
        cfg = InversionConfig(max_iters=60, early_stop_tol=1e-10, record_trace=True)
        x, report = fixed_point_invert(z, branch, cfg)
        solos = solo_solves(z, branch, cfg)
        assert_matches_solo(x, report, solos)
        steps = [r.iterations_used for _, r in solos.values()]
        assert len(set(steps)) > 1  # images really leave the stack at different steps
        assert report.iterations_used == max(steps)
        assert report.converged == all(r.converged for _, r in solos.values())
        assert report.final_residual == max(r.final_residual for _, r in solos.values())
        assert not report.diverged
        assert report.trace is None

    @pytest.mark.parametrize("kind", ["gaussian", "embedded", "dot", "concat"])
    def test_stacked_roundtrip_equals_solo_roundtrips(self, kind):
        block = build_block(kind, "invertible", 12, seed=22)
        rng = np.random.default_rng(23)
        images = np.stack([squeeze(rng.uniform(0.0, 1.0, (3, 8, 8))) for _ in range(3)])
        xhat, report = roundtrip(images, block)
        for j, image in enumerate(images):
            x_solo, r_solo = roundtrip(image, block)
            assert np.array_equal(xhat[j], x_solo)
            assert dataclasses.asdict(report.images[j]) == dataclasses.asdict(r_solo)
        assert report.reconstruction_mse == max(r.reconstruction_mse for r in report.images)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_stacked_roundtrip_divergences_match_solo_roundtrips(self):
        block = build_block("gaussian", "invertible", 3, seed=13)
        _scale_weights_inplace(block, 50.0)
        rng = np.random.default_rng(9)
        images = np.stack([scale * rng.uniform(0.0, 1.0, (3, 6, 6)) for scale in (0.1, 0.5, 1.0)])
        for record_trace in (False, True):
            cfg = InversionConfig(record_trace=record_trace)
            xhat, report = roundtrip(images, block, cfg)
            solos = [roundtrip(image, block, cfg) for image in images]
            assert all(r.diverged for _, r in solos)
            assert len({r.iterations_used for _, r in solos}) > 1
            for j, (x_solo, r_solo) in enumerate(solos):
                assert x_solo is None and np.isnan(xhat[j]).all()
                assert dataclasses.asdict(report.images[j]) == dataclasses.asdict(r_solo)
                if record_trace:  # a diverged image keeps its trace up to the divergence
                    assert len(r_solo.trace) == r_solo.iterations_used - 1
                else:
                    assert r_solo.trace is None
            assert report.diverged and report.reconstruction_mse == np.inf

    def test_nan_image_leaves_the_others_unchanged(self):
        block, z = spread_stack("embedded", seed=24)
        branch = make_residual_branch(block)
        z[2] += 100.0  # the marked image: its branch output is NaN

        def poisoned(xs):
            out = branch(xs)
            out[xs.reshape(len(xs), -1).max(axis=1) > 50.0] = np.nan
            return out

        cfg = InversionConfig(record_trace=True)
        x, report = fixed_point_invert(z, poisoned, cfg)
        assert_matches_solo(x, report, solo_solves(z, branch, cfg, skip={2}))
        bad = report.images[2]
        assert bad.diverged and not bad.converged
        assert bad.iterations_used == 1
        assert bad.final_residual == np.inf
        assert np.isnan(x[2]).all()
        assert report.diverged and not report.converged

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflow_diverges_at_the_images_own_iteration(self):
        # g(y) = 0.5 y, except 1e200 y where |y| > 10: z = 20 overflows at step 2
        def g(xs):
            big = np.abs(xs).reshape(len(xs), -1).max(axis=1) > 10.0
            return xs * np.where(big, 1e200, 0.5)[:, None, None, None]

        z = np.stack([np.full((1, 2, 2), v) for v in (1.5, 20.0, -3.0)])
        cfg = InversionConfig(early_stop_tol=1e-14, record_trace=True)
        x, report = fixed_point_invert(z, g, cfg)
        bad = report.images[1]
        assert bad.diverged and bad.iterations_used == 2
        assert len(bad.trace) == 1  # its first step was finite
        assert np.isnan(x[1]).all()  # not the overflowed iterate
        assert np.allclose(x[[0, 2]].ravel(), [1.0] * 4 + [-2.0] * 4, atol=1e-13)
        for j in (0, 2):
            assert report.images[j].converged
        assert report.iterations_used == max(r.iterations_used for r in report.images)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_raising_stacked_call_is_attributed_to_the_right_image(self):
        # a dot block's softplus overflows to inf on a huge grid, and the
        # response normalization raises NonFiniteError for the whole stack
        block, z = spread_stack("dot", seed=25)
        branch = make_residual_branch(block)
        z[1] = 1e200
        calls = []

        def counted(xs):
            calls.append(len(xs))
            return branch(xs)

        x, report = fixed_point_invert(z, counted, InversionConfig())
        assert [r.diverged for r in report.images] == [False, True, False, False]
        assert report.images[1].iterations_used == 1
        assert calls[:5] == [4, 1, 1, 1, 1]  # the failing step, then image by image
        assert calls[5] == 3  # the other three go on as one stack
        assert_matches_solo(x, report, solo_solves(z, branch, InversionConfig(), skip={1}))

    def test_raise_mid_solve_is_attributed_at_its_iteration(self):
        def g(xs):
            if (np.abs(xs) > 1e100).any():
                raise FloatingPointError("too large")
            big = np.abs(xs).reshape(len(xs), -1).max(axis=1) > 10.0
            return xs * np.where(big, 1e200, 0.5)[:, None, None, None]

        z = np.stack([np.full((1, 2, 2), v) for v in (1.5, 20.0, 0.25)])
        x, report = fixed_point_invert(z, g, InversionConfig())
        assert [r.diverged for r in report.images] == [False, True, False]
        assert report.images[1].iterations_used == 2
        assert np.isnan(x[1]).all()
        assert np.allclose(x[[0, 2]].ravel(), [1.0] * 4 + [0.25 / 1.5] * 4)


class TestEstimateLipschitz:
    def test_linear_half_map(self):
        est = estimate_lipschitz(lambda x: 0.5 * x, normal_sampler((2, 2, 2)), pairs=64, seed=0)
        assert abs(est.sup_ratio - 0.5) <= 1e-12
        assert est.sample_pairs == 64

    def test_constant_map(self):
        est = estimate_lipschitz(lambda x: np.ones_like(x), normal_sampler((2, 2, 2)), pairs=32, seed=1)
        assert est.sup_ratio == 0.0

    def test_spectrally_normalized_linear_map(self):
        rng = np.random.default_rng(5)
        w = rng.standard_normal((12, 12))
        state = power_iteration(w, iters=1000, tol=1e-15, seed=6)
        from invattn.linalg import spectral_normalize

        w = spectral_normalize(w, 0.9, state)
        g = lambda x: (w @ x.ravel()).reshape(x.shape)
        # the top right-singular direction from power iteration achieves sigma
        top_pair = (np.zeros((12, 1, 1)), state.v.reshape(12, 1, 1))
        est = estimate_lipschitz(g, normal_sampler((12, 1, 1)), pairs=500, seed=7, extra_pairs=[top_pair])
        assert est.sup_ratio <= 0.9 + 1e-6
        assert est.sup_ratio >= 0.9 - 0.05
        assert est.argmax_pair_seed == "extra:0"

    def test_coincident_pairs_skipped(self):
        fixed = np.ones((2, 2, 2))
        est = estimate_lipschitz(lambda x: x, lambda rng: fixed.copy(), pairs=8, seed=2)
        # mode-0 pairs coincide and are skipped; perturbation pairs survive
        assert est.sample_pairs == 6
        assert abs(est.sup_ratio - 1.0) <= 1e-12

    def test_local_probes_find_stiff_direction(self):
        # a map that is gentle in random directions but stiff along one axis
        d = 64
        w = np.eye(d) * 0.01
        w[0, 0] = 0.85
        g = lambda x: (w @ x.ravel()).reshape(x.shape)
        shape = (1, 8, 8)
        plain = estimate_lipschitz(g, normal_sampler(shape), pairs=200, seed=3)
        probed = estimate_lipschitz(g, normal_sampler(shape), pairs=200, seed=3, local_probes=4)
        assert plain.sup_ratio < 0.5
        assert probed.sup_ratio >= 0.85 - 1e-6

    def test_determinism(self):
        block = build_block("gaussian", "invertible", 3, seed=8)
        g = make_residual_branch(block)
        a = estimate_lipschitz(g, normal_sampler((3, 3, 3)), pairs=100, seed=9, local_probes=2)
        b = estimate_lipschitz(g, normal_sampler((3, 3, 3)), pairs=100, seed=9, local_probes=2)
        assert a == b

    def test_local_probes_evaluate_the_base_point_once(self):
        calls = []

        def g(x):
            calls.append(x.shape)
            return 0.5 * x

        est = estimate_lipschitz(g, normal_sampler((2, 2, 2)), pairs=1, seed=4, local_probes=1)
        # one pair (2 calls), then g(x1) once and 12 rounds of g(x1 + eps d)
        # plus a two-sided JVP (3 calls each)
        assert len(calls) == 2 + 1 + 12 * 3
        assert est.sample_pairs == 1 + 12
        assert abs(est.sup_ratio - 0.5) <= 1e-9

    def test_pairs_validated(self):
        with pytest.raises(ValueError):
            estimate_lipschitz(lambda x: x, normal_sampler((1, 1, 1)), pairs=0)


def test_invertible_branch_empirical_lipschitz_measured():
    """The branch contraction is an empirical expectation, not a guarantee:
    the response map's own input sensitivity is unconstrained, so the
    estimate is measured for every kind but asserted below 1 only where the
    image-domain estimate actually lands there (the exponential kinds can
    exceed 1 on large off-domain excursions)."""
    measured = {}
    for kind in ("gaussian", "embedded", "dot", "concat"):
        block = build_block(kind, "invertible", 3, seed=42)
        estimate = estimate_lipschitz(
            make_residual_branch(block),
            uniform01_sampler((3, 8, 8)),
            pairs=2000,
            seed=7,
            local_probes=4,
        )
        assert estimate.sample_pairs >= 2000
        measured[kind] = estimate.sup_ratio
    assert measured["embedded"] < 1.0
    assert measured["concat"] < 1.0
    assert all(v > 0.0 for v in measured.values())


class TestRoundtrip:
    def test_zero_weight_block_reconstructs_exactly(self):
        block = build_block("gaussian", "invertible", 3, seed=10)
        block.focus = np.zeros_like(block.focus)
        block.last = np.zeros_like(block.last)
        x = np.random.default_rng(6).uniform(0, 1, (3, 4, 4))
        report = roundtrip_check(x, block)
        assert report.reconstruction_mse == 0.0
        assert report.converged

    def test_batch_vscore_is_full(self):
        rng = np.random.default_rng(7)
        block = build_block("embedded", "invertible", 3, seed=11)
        cfg = InversionConfig(max_iters=100, early_stop_tol=1e-10)
        hits = 0
        for _ in range(32):
            report = roundtrip_check(rng.uniform(0, 1, (3, 8, 8)), block, cfg)
            hits += report.reconstruction_mse < 10.0
        assert hits == 32

    def test_broken_bound_flagged_not_silent(self):
        rng = np.random.default_rng(8)
        block = build_block("embedded", "invertible", 3, seed=12)
        _scale_weights_inplace(block, 5.0)
        flagged = 0
        for _ in range(8):
            report = roundtrip_check(rng.uniform(0, 1, (3, 8, 8)), block)
            if report.diverged or not report.converged:
                flagged += 1
                assert not report.converged
        assert flagged > 0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverged_report_carries_infinities(self):
        block = build_block("gaussian", "invertible", 3, seed=13)
        _scale_weights_inplace(block, 50.0)
        x = np.random.default_rng(9).uniform(0, 1, (3, 6, 6)) * 3.0
        recon, report = roundtrip(x, block)
        if report.diverged:
            assert recon is None
            assert report.reconstruction_mse == np.inf
            assert not report.converged

    def test_noninvertible_block_still_reports(self):
        x = np.random.default_rng(10).uniform(0, 1, (3, 4, 4))
        block = build_block("dot", "noninvertible", 3, seed=14)
        report = roundtrip_check(x, block)
        assert isinstance(report, InversionReport)
        assert report.reconstruction_mse is not None


class TestRecords:
    def test_roundtrip_through_jsonl(self, tmp_path):
        reports = [
            InversionReport(iterations_used=3, final_residual=1e-11, converged=True, reconstruction_mse=0.5),
            InversionReport(iterations_used=100, final_residual=np.inf, converged=False,
                            reconstruction_mse=np.inf, diverged=True),
        ]
        records = [report_to_record(r, index=i, kind="gaussian") for i, r in enumerate(reports)]
        path = tmp_path / "records.jsonl"
        write_records(path, records)
        back = read_records(path)
        assert back[0]["index"] == 0
        assert back[0]["mse"] == 0.5
        assert back[0]["converged"] is True
        assert back[1]["diverged"] is True
        assert math.isinf(back[1]["final_residual"])

    def test_extra_fields_preserved(self):
        report = InversionReport(iterations_used=1, final_residual=0.0, converged=True)
        record = report_to_record(report, index=7, ssim=0.99, note="x")
        assert record["index"] == 7
        assert record["ssim"] == 0.99
        assert record["note"] == "x"
