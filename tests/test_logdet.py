import dataclasses
import math
import sys

import numpy as np
import pytest

from invattn import attention, logdet
from invattn.attention import KINDS, build_block, grid_to_matrix, make_residual_branch, pairwise_logits
from invattn.errors import InvariantViolation
from invattn.logdet import (
    LogDetConfig,
    _probe_trace_samples,
    brute_force_logdet,
    brute_force_logdet_from_branch,
    jvp,
    linearize,
    logdet_series,
    logdet_series_from_branch,
)


def linear_branch(matrix):
    def branch(x):
        return (x.reshape(x.shape[: x.ndim - 3] + (-1,)) @ matrix.T).reshape(x.shape)

    return branch


def dense_jacobian(branch, x):
    """J_g(x) column by column, with the oracle's step :data:`logdet.FD_STEP`."""
    dim = x.size
    jac = np.empty((dim, dim))
    for j in range(dim):
        direction = np.zeros(dim)
        direction[j] = 1.0
        jac[:, j] = jvp(branch, x, direction.reshape(x.shape)[None], logdet.FD_STEP).ravel()
    return jac


def series_trace_power(branch, x, k, samples, seed):
    """The tr(J_g^k) estimate read off the series: term k is
    (-1)^(k+1) tr(J_g^k) / k."""
    cfg = LogDetConfig(series_terms=k, hutchinson_samples=samples, seed=seed)
    term = logdet_series_from_branch(branch, x, cfg).per_term_contributions[k - 1]
    return (-1) ** (k + 1) * k * term


def per_probe_series(branch, x, cfg):
    """Per-term series means, one Rademacher probe at a time, from
    single-grid central differences with unit-scale directions."""
    rng = np.random.default_rng(cfg.seed)
    eps = logdet.FD_STEP
    terms = np.zeros((cfg.hutchinson_samples, cfg.series_terms))
    for s in range(cfg.hutchinson_samples):
        v0 = (rng.integers(0, 2, size=x.shape) * 2 - 1).astype(np.float64)
        scale = float(np.linalg.norm(v0))
        w = v0 / scale
        for k in range(1, cfg.series_terms + 1):
            u = (branch(x + eps * w) - branch(x - eps * w)) / (2.0 * eps)
            step = float(np.linalg.norm(u))
            w = u / step
            scale *= step
            terms[s, k - 1] = (-1) ** (k + 1) * scale * float(np.vdot(v0, w)) / k
    return terms.mean(axis=0)


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"series_terms": 0},
            {"hutchinson_samples": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            LogDetConfig(**kwargs)


class TestJvp:
    def test_exact_for_linear_maps(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((12, 12)) * 0.3
        x = rng.standard_normal((12, 1, 1)) * 0.3
        v = rng.standard_normal((12, 1, 1))
        got = jvp(linear_branch(m), x, v[None], eps=1e-2)
        want = (m @ v.ravel()).reshape(v.shape)
        assert np.abs(got - want).max() <= 1e-12

    def test_constant_map_gives_zero(self):
        got = jvp(lambda x: np.ones_like(x), np.zeros((2, 2, 2)), np.ones((1, 2, 2, 2)))[0]
        assert np.array_equal(got, np.zeros((2, 2, 2)))

    def test_agrees_with_dense_jacobian_on_attention_branch(self):
        rng = np.random.default_rng(1)
        block = build_block("embedded", "invertible", 3, seed=2)
        branch = make_residual_branch(block)
        x = rng.uniform(0, 1, (3, 4, 4))
        jac = dense_jacobian(branch, x)
        for _ in range(5):
            v = rng.standard_normal(x.shape)
            got = jvp(branch, x, v[None]).ravel()
            assert np.abs(got - jac @ v.ravel()).max() <= 1e-6

    def test_shape_and_eps_validation(self):
        with pytest.raises(ValueError):
            jvp(lambda x: x, np.zeros((1, 2, 2)), np.zeros((1, 2, 3)))
        with pytest.raises(ValueError):
            jvp(lambda x: x, np.zeros((1, 2, 2)), np.zeros((1, 2, 2)), eps=0.0)

    def test_single_direction_refused(self):
        calls = []

        def g(y):
            calls.append(y.shape)
            return y

        with pytest.raises(ValueError, match=r"is not \(P,\) \+ \(1, 2, 2\)"):
            jvp(g, np.zeros((1, 2, 2)), np.ones((1, 2, 2)))
        assert calls == []

    def test_direction_stack_matches_single_directions(self):
        block = build_block("concat", "invertible", 3, seed=3)
        branch = make_residual_branch(block)
        rng = np.random.default_rng(4)
        x = rng.uniform(0, 1, (3, 2, 3))
        vs = rng.standard_normal((4, 3, 2, 3))
        stacked = jvp(branch, x, vs)
        assert stacked.shape == vs.shape
        for v, got in zip(vs, stacked):
            assert np.abs(got - jvp(branch, x, v[None])).max() <= 1e-15

    def test_direction_stack_must_match_trailing_shape(self):
        with pytest.raises(ValueError):
            jvp(lambda x: x, np.zeros((1, 2, 2)), np.zeros((3, 1, 2, 3)))
        with pytest.raises(ValueError):
            jvp(lambda x: x, np.zeros((1, 2, 2)), np.zeros((3, 2, 1, 2, 2)))

    def test_nonfinite_branch_output_raises_with_context(self):
        def bad(x):
            return np.full_like(x, np.nan)

        with pytest.raises(FloatingPointError):
            jvp(bad, np.zeros((1, 2, 2)), np.ones((1, 1, 2, 2)))

    def test_direction_stack_split_under_the_stack_cap(self, monkeypatch):
        branch = make_residual_branch(build_block("concat", "invertible", 3, seed=19))
        rng = np.random.default_rng(20)
        x = rng.uniform(0, 1, (3, 2, 2))
        vs = rng.standard_normal((10, 3, 2, 2))
        whole = jvp(branch, x, vs)
        grids = []

        def counting(y):
            grids.append(y.shape[0])
            return branch(y)

        monkeypatch.setattr(attention, "_STACK_ELEMENTS", 3 * 4**2)  # 3 grids per branch call
        chunked = jvp(counting, x, vs)
        assert grids == [3, 3, 3, 3, 3, 3, 1, 1]  # plus and minus per chunk
        assert np.array_equal(chunked, whole)


LINEARIZE_CONFIGS = {
    "softplus": {},
    "elu": {"phi": "elu"},
    "relu": {"phi": "relu"},
    "float32": {"dtype": np.float32},
    "logit_scale": {"logit_scale": 3.0},
    "column_sum_target": {"column_sum_target": 0.5},
}


def assert_matches_finite_difference(block, x, directions, eps=logdet.FD_STEP):
    """Elementwise against the FD reference, to 1e-8 of its largest entry."""
    exact = linearize(block, x)(directions)
    reference = jvp(make_residual_branch(block), x, directions, eps)
    assert exact.shape == reference.shape
    assert np.abs(exact - reference).max() <= 1e-8 * np.abs(reference).max()


class TestLinearize:
    @pytest.mark.parametrize("config", LINEARIZE_CONFIGS)
    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_finite_difference(self, kind, config):
        options = LINEARIZE_CONFIGS[config]
        block = build_block(kind, "invertible", 4, seed=51, **options)
        rng = np.random.default_rng(56)
        x = rng.uniform(0.0, 1.0, (4, 3, 5)).astype(options.get("dtype", np.float64))
        eps = logdet.FD_STEP
        if config == "relu":  # every logit off relu's kink
            assert np.abs(pairwise_logits(grid_to_matrix(x), block)).min() > 1e-3
            # small relu column sums curve the response: the reference's
            # O(eps^2) truncation is 2e-8 to 7e-8 relative at eps = 1e-5
            eps = 1e-6
        assert_matches_finite_difference(block, x, rng.standard_normal((6, 4, 3, 5)), eps)

    def test_dead_column_has_zero_derivative(self):
        # the zero position of test_attention's forced-zero-column case: its
        # embedding is zero, so its relu(dot) column (and row) is zero and the
        # column is filled uniform; directions that keep the position at zero
        # keep the column dead, so its derivative is 0
        block = build_block("dot", "invertible", 4, seed=34, phi="relu")
        x = np.random.default_rng(35).uniform(0.0, 1.0, (3, 4, 3, 5))[1]
        x[:, 0, 0] = 0.0
        logits = pairwise_logits(grid_to_matrix(x), block)
        assert np.array_equal(logits[:, 0], np.zeros(15))
        directions = np.random.default_rng(36).standard_normal((5, 4, 3, 5))
        directions[:, :, 0, 0] = 0.0
        for side in (1e-5, -1e-5):  # the finite difference crosses no kink
            moved = pairwise_logits(grid_to_matrix(x + side * directions), block)
            assert np.array_equal(np.sign(moved), np.broadcast_to(np.sign(logits), moved.shape))
        assert_matches_finite_difference(block, x, directions)

    def test_direction_stack_split_under_the_stack_cap(self, monkeypatch):
        block = build_block("embedded", "invertible", 3, seed=53)
        rng = np.random.default_rng(54)
        x = rng.uniform(0.0, 1.0, (3, 4, 4))
        directions = rng.standard_normal((10, 3, 4, 4))
        apply = linearize(block, x)
        whole = apply(directions)
        chunks = []
        to_grid = attention.matrix_to_grid

        def counting(mat, height, width):
            chunks.append(mat.shape[0])
            return to_grid(mat, height, width)

        monkeypatch.setattr(attention, "matrix_to_grid", counting)
        monkeypatch.setattr(attention, "_STACK_ELEMENTS", 3 * 16**2)  # 3 grids per stack
        assert np.array_equal(apply(directions), whole)
        assert chunks == [3, 3, 3, 1]

    @pytest.mark.parametrize("config", [name for name in LINEARIZE_CONFIGS if name != "float32"])
    @pytest.mark.parametrize("kind", KINDS)
    def test_float32_block_linearized_in_float64(self, kind, config):
        # the float32 weights enter every product as exact float64 values, so
        # the same weights cast to float64 give the same Jacobian
        block = build_block(kind, "invertible", 4, seed=57, dtype=np.float32, **LINEARIZE_CONFIGS[config])
        roles = [role for role in attention._WEIGHT_ROLES if getattr(block, role) is not None]
        wide = dataclasses.replace(block, **{role: getattr(block, role).astype(np.float64) for role in roles})
        rng = np.random.default_rng(58)
        x = rng.uniform(0.0, 1.0, (4, 3, 5)).astype(np.float32)
        directions = rng.standard_normal((6, 4, 3, 5))
        exact, reference = linearize(block, x)(directions), linearize(wide, x)(directions)
        assert np.abs(exact - reference).max() <= 1e-12 * np.abs(reference).max()

    @pytest.mark.parametrize("kind", KINDS)
    def test_logits_evaluated_once(self, kind, monkeypatch):
        block = build_block(kind, "invertible", 3, seed=59)
        rng = np.random.default_rng(60)
        x = rng.uniform(0.0, 1.0, (3, 4, 4))
        calls = []
        logits = attention.pairwise_logits

        def counting(*args, **kwargs):
            calls.append(1)
            return logits(*args, **kwargs)

        for module in {attention, sys.modules[linearize.__module__]}:  # wherever linearize lives
            monkeypatch.setattr(module, "pairwise_logits", counting)
        apply = linearize(block, x)
        assert len(calls) == 1
        apply(rng.standard_normal((2, 3, 4, 4)))
        assert len(calls) == 1

    def test_validation(self):
        block = build_block("concat", "invertible", 3, seed=55)
        x = np.zeros((3, 2, 2))
        with pytest.raises(ValueError):
            linearize(build_block("concat", "noninvertible", 3, seed=55), x)
        with pytest.raises(ValueError):
            linearize(block, np.zeros((2, 3, 2, 2)))
        apply = linearize(block, x)
        with pytest.raises(ValueError):
            apply(np.zeros((3, 2, 2)))
        with np.errstate(invalid="ignore"), pytest.raises(FloatingPointError):
            apply(np.full((1, 3, 2, 2), np.inf))


class TestHutchinsonTracePower:
    """tr(J_g^k) estimates, read off the k-th term of the series."""

    def test_isotropic_jacobian_is_exact(self):
        # J = 0.5 I in d = 10: rademacher probes satisfy v'(J^2 v) = 2.5 exactly
        x = np.zeros((10, 1, 1))
        value = series_trace_power(lambda y: 0.5 * y, x, 2, samples=4, seed=1)
        assert abs(value - 2.5) <= 1e-12

    def test_unbiased_for_known_linear_trace(self):
        # quantified 4-standard-error statistical check, fixed seed
        rng = np.random.default_rng(2)
        d = 24
        m = rng.standard_normal((d, d)) * 0.1
        x = np.zeros((d, 1, 1))
        samples = 512
        value = series_trace_power(linear_branch(m), x, 1, samples=samples, seed=3)
        sym = (m + m.T) / 2.0
        probe_var = 2.0 * (np.sum(sym**2) - np.sum(np.diag(sym) ** 2))
        standard_error = math.sqrt(probe_var / samples)
        assert abs(value - np.trace(m)) <= 4.0 * standard_error

    def test_cubed_trace_matches_dense_oracle(self):
        block = build_block("embedded", "invertible", 3, seed=28)
        x = np.random.default_rng(1028).uniform(0, 1, (3, 4, 4))  # d = 48
        branch = make_residual_branch(block)
        true_cube = float(np.trace(np.linalg.matrix_power(dense_jacobian(branch, x), 3)))
        est = series_trace_power(branch, x, 3, samples=2048, seed=6)
        assert abs(est - true_cube) / abs(true_cube) <= 0.05

    def test_dead_probes_give_zeros_while_live_probes_go_on(self):
        # M = 0.5 u u' / |u|^2, u = (1, 1, 0, 0): a probe with v1 = -v2 lies in
        # the null space; any other probe has v' M^k v = 0.5^k (u'v)^2 / 2 = 2 * 0.5^k
        u = np.array([1.0, 1.0, 0.0, 0.0])
        m = 0.5 * np.outer(u, u) / 2.0
        probes = np.array(
            [[1, 1, 1, -1], [1, -1, 1, 1], [-1, -1, -1, 1], [-1, 1, 1, 1]], dtype=float
        ).reshape(4, 4, 1, 1)
        samples = _probe_trace_samples(linear_branch(m), probes, 5)  # a linear map is its own J
        assert np.array_equal(samples[[1, 3]], np.zeros((2, 5)))
        assert np.abs(samples[[0, 2]] - 2.0 * 0.5 ** np.arange(1, 6)).max() <= 1e-12


class TestLogDetSeries:
    def test_zero_branch_is_exact_zero(self):
        est = logdet_series_from_branch(lambda y: np.zeros_like(y), np.zeros((4, 2, 2)))
        assert est.value == 0.0
        assert not est.divergence_warning

    def test_scalar_contraction_closed_form(self):
        # ln det(1.5 I) over d = 10, series truncated at K = 30
        x = np.zeros((10, 1, 1))
        cfg = LogDetConfig(series_terms=30, hutchinson_samples=4, seed=4)
        est = logdet_series_from_branch(lambda y: 0.5 * y, x, cfg)
        assert abs(est.value - 10.0 * math.log(1.5)) <= 1e-4

    def test_value_is_sum_of_contributions(self):
        block = build_block("concat", "invertible", 3, seed=5)
        x = np.random.default_rng(3).uniform(0, 1, (3, 2, 2))
        est = logdet_series(block, x, LogDetConfig(series_terms=8, hutchinson_samples=8, seed=5))
        assert est.value == sum(est.per_term_contributions)
        assert len(est.per_term_contributions) == 8
        assert est.sample_variance >= 0.0

    def test_block_estimate_tracks_dense_oracle(self):
        block = build_block("gaussian", "invertible", 3, seed=509)  # |logdet| ~ 1.7
        x = np.random.default_rng(99).uniform(0, 1, (3, 4, 4))
        cfg = LogDetConfig(series_terms=20, hutchinson_samples=256, seed=7)
        est = logdet_series(block, x, cfg)
        oracle = brute_force_logdet(block, x)
        standard_error = math.sqrt(est.sample_variance / cfg.hutchinson_samples)
        assert abs(est.value - oracle) <= max(4.0 * standard_error, 0.05 * abs(oracle))

    def test_term_magnitudes_bounded_by_contraction_decay(self):
        from invattn.inversion import estimate_lipschitz

        block = build_block("embedded", "invertible", 3, seed=42)
        x = np.random.default_rng(3).uniform(0, 1, (3, 4, 4))
        est = logdet_series(block, x, LogDetConfig(series_terms=20, hutchinson_samples=64, seed=12))

        def sampler(rng):
            return rng.uniform(0.0, 1.0, (3, 4, 4))

        chat = estimate_lipschitz(
            make_residual_branch(block), sampler, pairs=1000, seed=5, local_probes=8
        ).sup_ratio
        dim = x.size
        for k, term in enumerate(est.per_term_contributions, start=1):
            assert abs(term) <= dim * chat**k / k + 1e-9

    def test_divergence_warning_on_expansive_branch(self):
        x = np.zeros((6, 1, 1))
        cfg = LogDetConfig(series_terms=12, hutchinson_samples=4, seed=6)
        est = logdet_series_from_branch(lambda y: 1.5 * y, x, cfg)
        assert est.divergence_warning

    def test_lockstep_probes_match_per_probe_reference(self):
        block = build_block("embedded", "invertible", 3, seed=13)
        x = np.random.default_rng(14).uniform(0, 1, (3, 4, 4))
        cfg = LogDetConfig(series_terms=8, hutchinson_samples=12, seed=15)
        est = logdet_series(block, x, cfg)
        want = per_probe_series(make_residual_branch(block), x, cfg)
        assert np.abs(np.array(est.per_term_contributions) - want).max() <= 1e-9
        assert abs(est.value - want.sum()) <= 1e-9

    def test_probe_chunks_do_not_change_the_estimate(self, monkeypatch):
        block = build_block("gaussian", "invertible", 3, seed=16)
        x = np.random.default_rng(17).uniform(0, 1, (3, 2, 2))
        cfg = LogDetConfig(series_terms=6, hutchinson_samples=10, seed=18)
        whole = logdet_series(block, x, cfg)
        monkeypatch.setattr(attention, "_STACK_ELEMENTS", 3 * 16)  # 3 probes per branch call
        chunked = logdet_series(block, x, cfg)
        assert np.abs(np.subtract(chunked.per_term_contributions, whole.per_term_contributions)).max() <= 1e-15

    @pytest.mark.parametrize("kind", KINDS)
    def test_exact_and_finite_difference_paths_agree(self, kind):
        block = build_block(kind, "invertible", 3, seed=56)
        x = np.random.default_rng(57).uniform(0, 1, (3, 4, 4))  # d = 48
        cfg = LogDetConfig(series_terms=10, hutchinson_samples=16, seed=58)
        exact = logdet_series(block, x, cfg)
        reference = logdet_series_from_branch(make_residual_branch(block), x, cfg)
        assert abs(exact.value - reference.value) <= 1e-7 * abs(reference.value)

    def test_requires_invertible_variant(self):
        block = build_block("dot", "noninvertible", 3, seed=7)
        with pytest.raises(ValueError):
            logdet_series(block, np.zeros((3, 2, 2)))

    def test_deterministic(self):
        block = build_block("embedded", "invertible", 3, seed=8)
        x = np.random.default_rng(4).uniform(0, 1, (3, 2, 2))
        cfg = LogDetConfig(series_terms=6, hutchinson_samples=16, seed=9)
        a = logdet_series(block, x, cfg)
        b = logdet_series(block, x, cfg)
        assert a == b


class TestBruteForce:
    def test_identity_block(self):
        block = build_block("gaussian", "invertible", 3, seed=10)
        block.focus = np.zeros_like(block.focus)
        block.last = np.zeros_like(block.last)
        x = np.random.default_rng(5).uniform(0, 1, (3, 3, 3))
        assert abs(brute_force_logdet(block, x)) <= 1e-9

    def test_diagonal_branch_closed_form(self):
        diag = np.diag([0.1, 0.2, 0.3])
        got = brute_force_logdet_from_branch(linear_branch(diag), np.zeros((3, 1, 1)))
        assert abs(got - math.log(1.1 * 1.2 * 1.3)) <= 1e-9

    def test_sign_violation_detected(self):
        # an eigenvalue below -1 flips the determinant sign
        flip = np.diag([-2.0, 0.0, 0.0])
        with pytest.raises(InvariantViolation):
            brute_force_logdet_from_branch(linear_branch(flip), np.zeros((3, 1, 1)))

    def test_sign_positive_for_bounded_blocks(self):
        rng = np.random.default_rng(6)
        for seed, kind in enumerate(("gaussian", "embedded", "concat")):
            block = build_block(kind, "invertible", 3, seed=seed)
            brute_force_logdet(block, rng.uniform(0, 1, (3, 3, 3)))  # must not raise

    def test_nonfinite_branch_output_raises(self):
        def bad(x):
            return np.full_like(x, np.nan)

        with pytest.raises(FloatingPointError):
            brute_force_logdet_from_branch(bad, np.zeros((3, 1, 1)))

    def test_dimension_budget(self):
        block = build_block("gaussian", "invertible", 3, seed=11)
        with pytest.raises(ValueError):
            brute_force_logdet(block, np.zeros((3, 16, 20)))  # d = 960

    def test_agrees_with_lapack_slogdet(self):
        rng = np.random.default_rng(7)
        m = rng.standard_normal((20, 20)) * 0.1
        got = brute_force_logdet_from_branch(linear_branch(m), np.zeros((20, 1, 1)))
        want = float(np.linalg.slogdet(np.eye(20) + m)[1])
        assert abs(got - want) <= 1e-7

    def test_column_chunks_not_dividing_d(self, monkeypatch):
        monkeypatch.setattr(attention, "_STACK_ELEMENTS", 5)  # 5 columns per branch call
        rng = np.random.default_rng(8)
        m = rng.standard_normal((12, 12)) * 0.1
        got = brute_force_logdet_from_branch(linear_branch(m), np.zeros((12, 1, 1)))
        want = float(np.linalg.slogdet(np.eye(12) + m)[1])
        assert abs(got - want) <= 1e-7

    def test_column_chunks_on_attention_branch(self, monkeypatch):
        block = build_block("embedded", "invertible", 3, seed=12)
        x = np.random.default_rng(9).uniform(0, 1, (3, 4, 4))  # d = 48
        monkeypatch.setattr(attention, "_STACK_ELEMENTS", 5 * 16**2)  # 5 columns per branch call
        got = brute_force_logdet(block, x)
        jac = np.eye(x.size) + dense_jacobian(make_residual_branch(block), x)
        assert abs(got - float(np.linalg.slogdet(jac)[1])) <= 1e-8
