import dataclasses
import math

import numpy as np
import pytest

from invattn import inversion
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
        # z = 1.5, g(x) = 0.5x: the first step is plain (1.5 -> 0.75), the
        # second mixes the two residuals onto the fixed point 1.0 exactly,
        # and the third call confirms it
        z = np.full((1, 1, 1), 1.5)
        cfg = InversionConfig(max_iters=100, early_stop_tol=1e-14, record_trace=True)
        x, report = fixed_point_invert(z[None], lambda y: 0.5 * y, cfg)
        assert abs(x.item() - 1.0) <= 1e-15
        trace = report.images[0].trace
        assert trace[:2] == [0.75, 0.375]
        assert len(trace) == report.iterations_used == 3
        assert trace[2] <= 1e-14

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_affine_contraction_ends_within_dim_plus_two_steps(self, dim):
        # G(x) = z - A x with A = diag(0.5 .. -0.8): the residuals span at most
        # dim directions, so once dim differences are in the history the
        # mixed step lands on the fixed point and the next call confirms it
        a = np.linspace(0.5, -0.8, dim)
        z = np.random.default_rng(dim).uniform(-1.5, 1.5, (1, dim, 1, 1))
        x, report = fixed_point_invert(z, lambda y: a[:, None, None] * y, InversionConfig(early_stop_tol=1e-12))
        assert dim <= inversion._HISTORY
        assert report.converged and report.iterations_used <= dim + 2
        assert np.abs(x.ravel() - z.ravel() / (1.0 + a)).max() <= 1e-12

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

    @pytest.mark.parametrize("tol", [1e-10, 0.0])
    def test_converged_is_exactly_residual_within_ten_tol(self, tol):
        # g = 0.5 y, except 1e200 y where |y| > 10: the zero image sits at its
        # fixed point, 1.5 and -3 converge, 20 overflows at step 2; the
        # attention stack converges at different steps
        def g(xs):
            big = np.abs(xs).reshape(len(xs), -1).max(axis=1) > 10.0
            return xs * np.where(big, 1e200, 0.5)[:, None, None, None]

        scalar = np.stack([np.full((1, 2, 2), v) for v in (0.0, 1.5, 20.0, -3.0)])
        block, z = spread_stack("embedded", 61)
        outcomes, verdicts = set(), set()
        for stack, branch in ((scalar, g), (z, make_residual_branch(block))):
            for max_iters in (100, 5):
                cfg = InversionConfig(max_iters=max_iters, early_stop_tol=tol)
                for r in fixed_point_invert(stack, branch, cfg)[1].images:
                    assert r.converged == (r.final_residual <= 10.0 * tol)
                    verdicts.add(r.converged)
                    if r.diverged:
                        outcomes.add("diverged")
                    else:
                        outcomes.add("early" if r.iterations_used < max_iters else "budget")
        assert outcomes == ({"early", "budget", "diverged"} if tol else {"budget", "diverged"})
        assert verdicts == {True, False}

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


def spread_images(kind, seed):
    """A squeezed 12x4x4 block and a stack of squeezed images that converge
    at different steps (input scales 0.05 to 1.5)."""
    block = build_block(kind, "invertible", 12, seed=seed)
    rng = np.random.default_rng(seed)
    images = [squeeze(scale * rng.uniform(0.0, 1.0, (3, 8, 8)), 1) for scale in (0.05, 0.3, 1.0, 1.5)]
    return block, np.stack(images)


def spread_stack(kind, seed):
    """:func:`spread_images`' block and the stack of its outputs."""
    block, images = spread_images(kind, seed)
    return block, residual_forward(images, block)


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
    def test_float32_stack_solved_in_float64(self, kind):
        # a float32 stack is read as float64: the solve and its reports are
        # those of the stack's float64 cast
        block, z = spread_stack(kind, seed=23)
        branch = make_residual_branch(block)
        cfg = InversionConfig(max_iters=60, early_stop_tol=1e-10)
        narrow = z.astype(np.float32)
        x, report = fixed_point_invert(narrow, branch, cfg)
        want_x, want_report = fixed_point_invert(narrow.astype(np.float64), branch, cfg)
        assert x.dtype == np.float64
        assert np.array_equal(x, want_x)
        assert dataclasses.asdict(report) == dataclasses.asdict(want_report)

    @pytest.mark.parametrize("kind", ["gaussian", "embedded", "dot", "concat"])
    def test_stacked_roundtrip_equals_solo_roundtrips(self, kind):
        block = build_block(kind, "invertible", 12, seed=22)
        rng = np.random.default_rng(23)
        images = np.stack([squeeze(rng.uniform(0.0, 1.0, (3, 8, 8)), 1) for _ in range(3)])
        xhat, report = roundtrip(images, block)
        for j, image in enumerate(images):
            x_solo, r_solo = roundtrip(image, block)
            assert np.array_equal(xhat[j], x_solo)
            assert dataclasses.asdict(report.images[j]) == dataclasses.asdict(r_solo)
        assert report.reconstruction_mse == max(r.reconstruction_mse for r in report.images)

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

    def test_residual_growth_clears_only_that_images_history(self):
        # g = 0.9 sin(2y) is no contraction: the first image's residual grows
        # mid-solve, and each time its next iterate is the plain step G(x_k);
        # the second image, solved beside it, gets its solo result
        def g(xs):
            return 0.9 * np.sin(2.0 * xs)

        z = np.stack([np.full((1, 1, 3), v) + [0.0, 0.5, -0.5] for v in (1.5, 1.25)])
        cfg = InversionConfig(record_trace=True)
        inputs = []

        def recorded(xs):
            inputs.append(xs.copy())
            return g(xs)

        _, alone = fixed_point_invert(z[:1], recorded, cfg)
        trace = alone.images[0].trace
        grew = [k for k in range(1, len(trace)) if trace[k] >= trace[k - 1]]
        assert alone.converged and 1 < grew[0] < len(trace) - 2
        for k in grew:
            np.testing.assert_allclose(inputs[k + 1], z[:1] - g(inputs[k]), rtol=1e-15, atol=0.0)
        x, report = fixed_point_invert(z, g, cfg)
        assert_matches_solo(x, report, solo_solves(z, g, cfg))
        assert report.converged

    def test_singular_fit_takes_the_plain_step(self):
        # the residuals of the 3e-170 image square to 0, so its least-squares
        # system is singular from the second step on: it takes plain steps,
        # its residual halving each time, while 1.5 mixes onto 1.0
        z = np.stack([np.full((1, 2, 2), v) for v in (1.5, 3e-170)])
        cfg = InversionConfig(max_iters=20, early_stop_tol=0.0, record_trace=True)
        g = lambda y: 0.5 * y
        x, report = fixed_point_invert(z, g, cfg)
        assert_matches_solo(x, report, solo_solves(z, g, cfg))
        tiny = np.array(report.images[1].trace)
        assert np.allclose(tiny[1:] / tiny[:-1], 0.5, rtol=1e-6, atol=0.0)
        assert x[0].ravel().tolist() == [1.0] * 4

    @pytest.mark.parametrize("kind", ["embedded", "dot", "concat"])
    def test_contractive_kinds_take_at_most_15_branch_calls_per_image(self, kind):
        # plain iteration takes 15 to 17 calls per image on these five images
        block, spread = spread_stack(kind, seed=21)
        grid = residual_forward(squeeze(np.random.default_rng(26).uniform(0.0, 1.0, (3, 32, 32)), 1)[None], block)
        branch = make_residual_branch(block)
        rows = []

        def counted(xs):
            rows.append(len(xs))
            return branch(xs)

        for z in (spread, grid):
            assert fixed_point_invert(z, counted)[1].converged
        assert sum(rows) / 5 <= 15.0

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


def record_branch_calls(monkeypatch, inputs=None):
    """Make every roundtrip record its branch calls, as (stack size, dtype)
    pairs in the returned list, and their input stacks in ``inputs``."""
    calls = []
    make = inversion.make_residual_branch

    def make_recorded(block):
        branch = make(block)

        def recorded(xs):
            calls.append((len(xs), xs.dtype))
            if inputs is not None:
                inputs.append(xs.copy())
            return branch(xs)

        return recorded

    monkeypatch.setattr(inversion, "make_residual_branch", make_recorded)
    return calls


def unswept_roundtrip(images, block, cfg):
    """The roundtrip of ``images`` solved with no float32 sweep: every branch
    call in float64, as ``fixed_point_invert`` makes them for any branch."""
    xhat, report = fixed_point_invert(residual_forward(images, block), make_residual_branch(block), cfg)
    for j, r in enumerate(report.images):
        r.reconstruction_mse = math.inf if r.diverged else inversion.mse_0_255(images[j], xhat[j])
    report.reconstruction_mse = max(r.reconstruction_mse for r in report.images)
    return xhat, report


@pytest.mark.parametrize("kind", ["gaussian", "embedded", "dot", "concat"])
class TestFloat32Sweeps:
    """A roundtrip solve's first ``_SWEEPS`` steps call the branch on float32
    casts of the iterates; every later step, and every result, is float64."""

    def test_first_steps_are_float32_and_the_rest_float64(self, kind, monkeypatch):
        calls = record_branch_calls(monkeypatch)
        block, images = spread_images(kind, seed=21)
        _, report = roundtrip(images, block)
        sweeps = inversion._SWEEPS
        assert report.converged and report.iterations_used > sweeps
        assert [dtype for _, dtype in calls] == [np.float32] * sweeps + [np.float64] * (len(calls) - sweeps)

    def test_stacked_roundtrip_equals_solo_roundtrips(self, kind):
        block, images = spread_images(kind, seed=21)
        cfg = InversionConfig(record_trace=True)
        xhat, report = roundtrip(images, block, cfg)
        solos = [roundtrip(image, block, cfg) for image in images]
        assert len({r.iterations_used for _, r in solos}) > 1  # images leave at different steps
        for j, (x_solo, r_solo) in enumerate(solos):
            assert np.array_equal(xhat[j], x_solo)  # the same bits
            assert dataclasses.asdict(report.images[j]) == dataclasses.asdict(r_solo)

    def test_no_image_takes_more_branch_calls_than_unswept(self, kind, monkeypatch):
        calls = record_branch_calls(monkeypatch)
        block, images = spread_images(kind, seed=21)
        cfg = InversionConfig()
        _, swept = roundtrip(images, block, cfg)
        _, unswept = unswept_roundtrip(images, block, cfg)
        for r_swept, r_unswept in zip(swept.images, unswept.images):
            assert r_swept.converged and r_unswept.converged
            assert r_swept.iterations_used <= r_unswept.iterations_used
        assert sum(rows for rows, _ in calls) <= sum(r.iterations_used for r in unswept.images)

    @pytest.mark.parametrize("max_iters", [1, 2, 5, 6])  # up to one step past the sweeps
    def test_a_short_budget_still_ends_on_a_float64_step(self, kind, max_iters, monkeypatch):
        # no tolerance is met in so few steps, so every image spends the budget
        inputs = []
        calls = record_branch_calls(monkeypatch, inputs)
        block, images = spread_images(kind, seed=21)
        cfg = InversionConfig(max_iters=max_iters, record_trace=True)
        _, report = roundtrip(images, block, cfg)
        narrow = min(inversion._SWEEPS, max_iters - 1)
        assert calls == [(len(images), np.float32)] * narrow + [(len(images), np.float64)] * (max_iters - narrow)
        # the final residuals are those of a float64 branch call at the last iterate
        last = inputs[-1]
        defect = residual_forward(images, block) - make_residual_branch(block)(last) - last
        want = np.abs(defect).reshape(len(images), -1).max(axis=1)
        assert [r.final_residual for r in report.images] == want.tolist()
        for r in report.images:
            assert r.iterations_used == len(r.trace) == max_iters and r.trace[-1] == r.final_residual
        if max_iters == 1:  # one float64 step: the unswept roundtrip
            assert dataclasses.asdict(report) == dataclasses.asdict(unswept_roundtrip(images, block, cfg)[1])

    def test_zero_weight_block_reconstructs_exactly(self, kind):
        block, images = spread_images(kind, seed=21)
        block.focus = np.zeros_like(block.focus)
        block.last = np.zeros_like(block.last)
        xhat, report = roundtrip(images, block)
        assert np.array_equal(xhat, images)
        assert report.converged and report.reconstruction_mse == 0.0
        # the residual is 0 from the first step, but no image stops on a sweep
        assert [r.iterations_used for r in report.images] == [inversion._SWEEPS + 1] * len(images)

    def test_float32_overflow_is_recomputed_in_float64(self, kind, monkeypatch):
        # at logit scale 1e39 the float64 logits are finite and the float32
        # ones overflow, so every float32 call fails and each image is
        # recomputed in float64 at step 1 and stays there: the roundtrip is
        # the unswept one, bit for bit
        calls = record_branch_calls(monkeypatch)
        block, images = spread_images(kind, seed=21)
        block.logit_scale = 1e39
        cfg = InversionConfig(record_trace=True)
        xhat, report = roundtrip(images, block, cfg)
        want_x, want = unswept_roundtrip(images, block, cfg)
        assert np.array_equal(xhat, want_x, equal_nan=True)
        assert dataclasses.asdict(report) == dataclasses.asdict(want)
        # the stacked float32 call raises and is rerun image by image, as
        # any raising call is; from then on every call is float64
        narrow = 1 + len(images)
        assert calls[:narrow] == [(len(images), np.float32)] + [(1, np.float32)] * len(images)
        assert [dtype for _, dtype in calls[narrow:]] == [np.float64] * (len(calls) - narrow)


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
        est = estimate_lipschitz(g, normal_sampler((12, 1, 1)), pairs=500, seed=7, local_probes=4)
        assert est.sample_pairs > 500  # the local probes' pairs are considered too
        assert est.sup_ratio <= 0.9 + 1e-6

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

    @pytest.mark.parametrize("kind", ["gaussian", "embedded", "concat"])
    def test_each_image_converges_onto_its_input(self, kind):
        # test_1 bounds the mean MSE; here every image must converge and come back
        block = build_block(kind, "invertible", 3, seed=31)
        rng = np.random.default_rng(15)
        cfg = InversionConfig(max_iters=100, early_stop_tol=1e-12)
        for _ in range(3):
            report = roundtrip_check(rng.uniform(0.0, 1.0, (3, 8, 8)), block, cfg)
            assert report.converged and report.reconstruction_mse < 1e-6

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
