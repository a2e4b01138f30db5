import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from invattn import attention
from invattn.attention import (
    AttentionBlock,
    apply_1x1_conv,
    apply_phi,
    as_grid,
    attention_apply,
    block_from_dict,
    block_to_dict,
    build_block,
    grid_to_matrix,
    load_block,
    matrix_to_grid,
    normalize_response,
    raw_response,
    residual_branch,
    residual_forward,
    response_map,
    save_block,
    squeeze,
    unsqueeze,
)
from invattn.errors import InvariantViolation, NonFiniteError
from invattn.linalg import exact_svd_oracle, norm_frobenius, norm_l1, power_iteration, spectral_normalize

ALL_KINDS = ("gaussian", "embedded", "dot", "concat")


def random_grid(rng, channels=3, height=3, width=3):
    return rng.uniform(0.0, 1.0, (channels, height, width))


# ---------------------------------------------------------------------------
# Grids and activations
# ---------------------------------------------------------------------------


class TestFeatureGrid:
    def test_matrix_view_shares_storage(self):
        x = np.arange(24.0).reshape(2, 3, 4)
        mat = grid_to_matrix(x)
        assert mat.shape == (12, 2)
        assert np.shares_memory(mat, x)

    def test_view_roundtrip_exact(self):
        rng = np.random.default_rng(0)
        x = random_grid(rng, 5, 4, 3)
        back = matrix_to_grid(grid_to_matrix(x), 4, 3)
        assert np.array_equal(back, x)

    def test_matrix_entries_are_positions(self):
        x = np.arange(8.0).reshape(2, 2, 2)
        mat = grid_to_matrix(x)
        # position (i, j) flattened row-major; channels along columns
        assert np.array_equal(mat[0], [x[0, 0, 0], x[1, 0, 0]])
        assert np.array_equal(mat[3], [x[0, 1, 1], x[1, 1, 1]])

    def test_stack_views_match_per_grid_views(self):
        xs = np.arange(48.0).reshape(2, 2, 3, 4)
        mats = grid_to_matrix(xs)
        assert mats.shape == (2, 12, 2)
        assert np.shares_memory(mats, xs)
        for x, mat in zip(xs, mats):
            assert np.array_equal(mat, grid_to_matrix(x))
        assert np.array_equal(matrix_to_grid(mats, 3, 4), xs)

    def test_stack_of_stacks_rejected(self):
        with pytest.raises(ValueError):
            as_grid(np.zeros((2, 2, 1, 2, 2)))

    @pytest.mark.parametrize("bad", [np.zeros((2, 2)), np.zeros((0, 2, 2))])
    def test_grid_validation(self, bad):
        with pytest.raises(ValueError):
            as_grid(bad)

    def test_nonfinite_grid_rejected(self):
        x = np.ones((1, 2, 2))
        x[0, 0, 0] = np.inf
        with pytest.raises(ValueError):
            as_grid(x)


class TestPhi:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_nonnegative_everywhere(self, dtype):
        values = np.array([-1e6, -50.0, -1.0, 0.0, 1.0, 50.0, 1e6], dtype=dtype)
        assert np.all(apply_phi(values) >= 0.0)

    def test_softplus_is_stable_for_large_inputs(self):
        out = apply_phi(np.array([1000.0]))
        assert np.isfinite(out[0]) and abs(out[0] - 1000.0) < 1e-9

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_softplus_within_two_ulp_of_logaddexp(self, dtype):
        # each dtype's points straddle log(max float), past which e^x overflows
        # (709.78 in float64, 88.72 in float32)
        if dtype == np.float64:
            small, big = 1e-300, 1e308
            near_overflow = [700.0, 709.7, 709.8, 710.0]
        else:
            small, big = 1e-38, 3e38
            near_overflow = [88.7, 89.0, 100.0, 500.0]
        edges = [0.0, small, -small, 40.0, -40.0, 745.0, -745.0, 800.0, -800.0, big, -big, np.inf, -np.inf]
        edges += near_overflow
        spread = np.random.default_rng(0).normal(0.0, 20.0, 1000)
        x = np.concatenate([edges, spread, np.linspace(-40.0, 40.0, 801)]).astype(dtype)
        before = x.copy()
        got = apply_phi(x)
        want = np.logaddexp(dtype(0.0), x)
        assert got.dtype == dtype
        assert np.array_equal(x, before)  # the input is not overwritten
        finite = np.isfinite(x)
        assert np.all(np.abs(got[finite] - want[finite]) <= 2.0 * np.spacing(want[finite]))
        assert np.array_equal(got[: len(edges)], want[: len(edges)])  # exact at the edge points

    def test_softplus_maps_a_stack(self):
        x = np.random.default_rng(1).normal(0.0, 5.0, (3, 4, 4))
        assert np.array_equal(apply_phi(x), np.stack([apply_phi(a) for a in x]))


# ---------------------------------------------------------------------------
# 1x1 convolutions
# ---------------------------------------------------------------------------


class TestConv:
    def test_identity_weight_is_identity_map(self):
        rng = np.random.default_rng(1)
        x = random_grid(rng, 4)
        out = apply_1x1_conv(x, np.eye(4))
        assert np.array_equal(out, x)

    def test_normalized_double_identity_scales_by_target(self):
        rng = np.random.default_rng(2)
        x = random_grid(rng, 3)
        w = 2.0 * np.eye(3)
        w = spectral_normalize(w, 0.9, power_iteration(w, iters=1000, tol=1e-15))
        out = apply_1x1_conv(x, w)
        assert np.allclose(out, 0.9 * x, atol=1e-12)

    def test_matches_per_position_loop(self):
        rng = np.random.default_rng(3)
        x = random_grid(rng, 4, 3, 3)
        w = rng.standard_normal((4, 4))
        out = grid_to_matrix(apply_1x1_conv(x, w))
        mat = grid_to_matrix(x)
        for i in range(mat.shape[0]):
            assert np.allclose(out[i], w @ mat[i], atol=1e-13)

    def test_channel_mismatch(self):
        with pytest.raises(ValueError):
            apply_1x1_conv(np.zeros((3, 2, 2)), np.eye(4))

    def test_map_lipschitz_equals_weight_sigma(self):
        rng = np.random.default_rng(4)
        w = rng.standard_normal((3, 3))
        sigma = exact_svd_oracle(w)[0]
        sup = 0.0
        for _ in range(50):
            a, b = random_grid(rng), random_grid(rng)
            num = np.linalg.norm((apply_1x1_conv(a, w) - apply_1x1_conv(b, w)).ravel())
            sup = max(sup, num / np.linalg.norm((a - b).ravel()))
        assert sup <= sigma + 1e-9


# ---------------------------------------------------------------------------
# Raw responses
# ---------------------------------------------------------------------------


class TestRawResponse:
    def test_gaussian_constant_positions(self):
        block = build_block("gaussian", "invertible", 3, seed=0)
        x = np.ones((3, 2, 2)) * 0.3
        raw = raw_response(x, block)
        assert np.allclose(raw, raw[0, 0], atol=1e-15)

    def test_dot_orthonormal_positions_give_identity_gram(self):
        # positions are the standard basis; with identity embeddings the raw
        # scores form the Kronecker-delta pattern
        eye4 = np.eye(4)
        block = AttentionBlock(
            kind="dot",
            variant="noninvertible",
            focus=np.eye(4),
            embed1=eye4.copy(),
            embed2=eye4.copy(),
        )
        x = matrix_to_grid(np.eye(4), 2, 2)
        assert np.array_equal(raw_response(x, block), np.eye(4))

    def test_concat_matches_pairwise_loop(self):
        rng = np.random.default_rng(5)
        block = build_block("concat", "noninvertible", 4, seed=6)
        x = random_grid(rng, 4, 1, 2)  # two positions
        raw = raw_response(x, block)
        mat = grid_to_matrix(x)
        e1 = mat @ block.embed1.T
        e2 = mat @ block.embed2.T
        for i in range(2):
            for j in range(2):
                want = float(block.pair_scorer[0] @ np.concatenate([e1[i], e2[j]]))
                assert abs(raw[i, j] - want) <= 1e-12

    def test_embedded_matches_pairwise_loop_after_normalization(self):
        # per-variant logit shifts cancel in the normalized map
        rng = np.random.default_rng(6)
        for variant, axis in (("invertible", 0), ("noninvertible", 1)):
            block = build_block("embedded", variant, 3, seed=7)
            x = random_grid(rng)
            mat = grid_to_matrix(x)
            e1 = mat @ block.embed1.T
            e2 = mat @ block.embed2.T
            naive = np.exp(e1 @ e2.T)
            naive = naive / naive.sum(axis=axis, keepdims=True)
            assert np.allclose(response_map(x, block), naive, atol=1e-12)

    def test_exponential_kinds_never_overflow(self):
        block = build_block("gaussian", "invertible", 3, seed=8, logit_scale=50.0)
        x = random_grid(np.random.default_rng(7)) * 30.0
        raw = raw_response(x, block)
        assert np.isfinite(raw).all()
        assert raw.max() <= 1.0 + 1e-12  # max logit per column maps to exp(0)

    def test_invertible_dot_applies_phi(self):
        rng = np.random.default_rng(8)
        block = build_block("dot", "invertible", 3, seed=9)
        raw = raw_response(random_grid(rng), block)
        assert np.all(raw >= 0.0)

    def test_channel_mismatch(self):
        block = build_block("gaussian", "invertible", 3, seed=10)
        with pytest.raises(ValueError):
            raw_response(np.zeros((4, 2, 2)), block)


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------


class TestNormalizeResponse:
    def test_constant_raw_gives_uniform(self):
        out = normalize_response(np.full((5, 5), 3.7), "gaussian", "invertible")
        assert np.allclose(out, 0.2, atol=1e-15)

    def test_identity_already_column_stochastic(self):
        assert np.array_equal(normalize_response(np.eye(4), "dot", "invertible"), np.eye(4))

    def test_invertible_columns_sum_to_one(self):
        rng = np.random.default_rng(9)
        raw = rng.uniform(0.0, 1.0, (6, 6))
        out = normalize_response(raw, "embedded", "invertible")
        assert np.abs(out.sum(axis=0) - 1.0).max() <= 1e-9
        assert abs(norm_l1(out) - 1.0) <= 1e-9

    def test_zero_column_becomes_uniform(self):
        raw = np.zeros((4, 4))
        raw[:, 1] = [1.0, 2.0, 3.0, 4.0]
        out = normalize_response(raw, "dot", "invertible")  # a dead column is filled with 1/m
        assert np.allclose(out[:, [0, 2, 3]], 1.0 / 4, rtol=0.0, atol=1e-15)
        assert abs(out[:, 1].sum() - 1.0) <= 1e-12

    def test_negative_entry_rejected_for_invertible(self):
        raw = np.array([[0.5, -0.1], [0.5, 1.1]])
        with pytest.raises(InvariantViolation):
            normalize_response(raw, "dot", "invertible")

    def test_noninvertible_exponential_rows(self):
        rng = np.random.default_rng(10)
        raw = rng.uniform(0.1, 1.0, (5, 5))
        out = normalize_response(raw, "gaussian", "noninvertible")
        assert np.abs(out.sum(axis=1) - 1.0).max() <= 1e-9

    def test_noninvertible_zero_row_becomes_uniform(self):
        raw = np.zeros((3, 3))
        raw[0] = [1.0, 1.0, 2.0]
        out = normalize_response(raw, "embedded", "noninvertible")
        assert np.allclose(out[1], 1.0 / 3.0)

    def test_noninvertible_dot_divides_by_position_count(self):
        raw = np.array([[2.0, -4.0], [6.0, 8.0]])
        out = normalize_response(raw, "dot", "noninvertible")
        assert np.array_equal(out, raw / 2.0)

    def test_square_required(self):
        with pytest.raises(ValueError):
            normalize_response(np.ones((2, 3)), "dot", "invertible")


# ---------------------------------------------------------------------------
# Full forward maps
# ---------------------------------------------------------------------------


class TestAttentionApply:
    def test_identity_response_and_identity_focus(self):
        # four regular-simplex positions (unit norm, pairwise dot -1/3) at
        # logit scale 3000: the diagonal logits are 3000 and the others
        # -1000, where softplus underflows to 0, so the response is exactly
        # the identity and attention with an identity focus returns the input
        eye4 = np.eye(4)
        block = AttentionBlock(
            kind="dot",
            variant="invertible",
            focus=eye4.copy(),
            last=eye4.copy(),
            embed1=eye4.copy(),
            embed2=eye4.copy(),
            logit_scale=3000.0,
        )
        simplex = np.array([[1, 1, 1, 0], [1, -1, -1, 0], [-1, 1, -1, 0], [-1, -1, 1, 0]]) / math.sqrt(3.0)
        x = matrix_to_grid(simplex, 2, 2)
        assert np.array_equal(response_map(x, block), eye4)
        assert np.allclose(attention_apply(x, block), x, atol=1e-15)

    def test_constant_columns_average_feature_rows(self):
        block = build_block("gaussian", "invertible", 3, seed=13)
        x = np.ones((3, 2, 2)) * 0.4
        out = grid_to_matrix(attention_apply(x, block))
        feat = grid_to_matrix(apply_1x1_conv(x, block.focus))
        assert np.allclose(out, feat.mean(axis=0), atol=1e-12)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("variant", ["invertible", "noninvertible"])
    def test_matches_double_loop_summation(self, kind, variant):
        rng = np.random.default_rng(14)
        block = build_block(kind, variant, 4, seed=15)
        x = random_grid(rng, 4, 3, 3)  # m = 9
        resp = response_map(x, block)
        feat = grid_to_matrix(apply_1x1_conv(x, block.focus))
        out = grid_to_matrix(attention_apply(x, block))
        m = resp.shape[0]
        for i in range(m):
            acc = np.zeros(4)
            for j in range(m):
                acc += resp[i, j] * feat[j]
            assert np.abs(out[i] - acc).max() <= 1e-12


class TestResidual:
    def test_zero_last_conv_vanishes(self):
        block = build_block("embedded", "invertible", 3, seed=16)
        block.last = np.zeros_like(block.last)
        rng = np.random.default_rng(15)
        x = random_grid(rng)
        assert np.array_equal(residual_forward(x, block), x)

    def test_zero_focus_vanishes(self):
        block = build_block("gaussian", "invertible", 3, seed=17)
        block.focus = np.zeros_like(block.focus)
        rng = np.random.default_rng(16)
        x = random_grid(rng)
        assert np.array_equal(residual_forward(x, block), x)

    def test_noninvertible_adds_attention_directly(self):
        rng = np.random.default_rng(17)
        block = build_block("dot", "noninvertible", 3, seed=18)
        x = random_grid(rng)
        assert np.allclose(residual_forward(x, block), x + attention_apply(x, block), atol=1e-15)

    def test_invertible_branch_uses_last_conv(self):
        rng = np.random.default_rng(18)
        block = build_block("concat", "invertible", 3, seed=19)
        x = random_grid(rng)
        want = apply_1x1_conv(attention_apply(x, block), block.last)
        assert np.allclose(residual_branch(x, block), want, atol=1e-15)

    @pytest.mark.parametrize("dtype", [np.float32, np.int64, np.uint8])
    @pytest.mark.parametrize("variant", ["invertible", "noninvertible"])
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_any_real_grid_is_read_as_float64(self, kind, variant, dtype):
        block = build_block(kind, variant, 3, seed=20)
        x = np.random.default_rng(19).integers(0, 4, (2, 3, 4, 5)).astype(dtype)
        if dtype == np.float32:
            x /= np.float32(3.0)
        got = residual_branch(x, block)
        assert got.dtype == np.float64
        assert np.array_equal(got, residual_branch(x.astype(np.float64), block))


# ---------------------------------------------------------------------------
# Squeeze
# ---------------------------------------------------------------------------


def squeeze_once(grid):
    """The one-level space-to-depth of one (C, H, W) grid, written out."""
    channels, height, width = grid.shape
    blocks = grid.reshape(channels, height // 2, 2, width // 2, 2)
    return blocks.transpose(0, 2, 4, 1, 3).reshape(4 * channels, height // 2, width // 2)


@pytest.mark.parametrize("levels", [0, 1, 2, 3])
@pytest.mark.parametrize("stacked", [False, True], ids=["grid", "stack"])
class TestSqueeze:
    @staticmethod
    def sample(rng, stacked, shape=(3, 16, 8)):
        return rng.standard_normal(((2,) if stacked else ()) + shape)

    def test_equals_repeated_one_level_squeezes_of_each_grid(self, levels, stacked):
        x = self.sample(np.random.default_rng(19), stacked)
        want = []
        for grid in x if stacked else [x]:
            for _ in range(levels):
                grid = squeeze_once(grid)
            want.append(grid)
        assert np.array_equal(squeeze(x, levels), np.stack(want) if stacked else want[0])

    def test_roundtrip_bit_exact(self, levels, stacked):
        x = self.sample(np.random.default_rng(20), stacked)
        assert np.array_equal(unsqueeze(squeeze(x, levels), levels), x)

    def test_documented_subpixel_order(self, levels, stacked):
        # channel 4^L c + 4^(L-1) k1 + ... + kL, with k_l = 2 r_l + s_l, holds
        # the pixel at row sum_l 2^(l-1) r_l and column sum_l 2^(l-1) s_l
        side = 2**levels
        x = np.arange(2 * side * side, dtype=np.float64).reshape(2, side, side)
        out = squeeze(x[None] if stacked else x, levels)
        assert out.shape == ((1,) if stacked else ()) + (2 * 4**levels, 1, 1)
        for channel, value in enumerate(out.reshape(-1)):
            c, digits = divmod(channel, 4**levels)
            row = col = 0
            for level in range(levels):  # k1 is the leading base-4 digit
                k = digits // 4 ** (levels - 1 - level) % 4
                row += (k // 2) << level
                col += (k % 2) << level
            assert value == x[c, row, col]
        if levels == 1:
            assert np.array_equal(out.reshape(-1)[:4], [0.0, 1.0, 2.0, 3.0])

    def test_energy_preserved(self, levels, stacked):
        x = self.sample(np.random.default_rng(21), stacked)
        assert abs(norm_frobenius(squeeze(x, levels).reshape(-1, 1)) - norm_frobenius(x.reshape(-1, 1))) <= 1e-12

    def test_shape_contract(self, levels, stacked):
        lead = (5,) if stacked else ()
        out = squeeze(np.zeros(lead + (3, 40, 24)), levels)
        assert out.shape == lead + (3 * 4**levels, 40 >> levels, 24 >> levels)

    def test_odd_dims_rejected(self, levels, stacked):
        # a side of 3 * 2^L halves to 3 in L levels, which level L + 1 refuses
        x = np.zeros(((2,) if stacked else ()) + (3, 3 * 2**levels, 3 * 2**levels))
        assert squeeze(x, levels).shape[-2:] == (3, 3)
        with pytest.raises(ValueError, match="even spatial dims, got 3x3"):
            squeeze(x, levels + 1)

    def test_unsqueeze_channel_guard(self, levels, stacked):
        # 3 * 4^L channels unsqueeze to 3 in L levels, which level L + 1 refuses
        x = np.zeros(((2,) if stacked else ()) + (3 * 4**levels, 2, 2))
        assert unsqueeze(x, levels).shape[-3] == 3
        with pytest.raises(ValueError, match="divisible by 4, got 3"):
            unsqueeze(x, levels + 1)

    def test_five_dim_input_refused(self, levels, stacked):
        x = self.sample(np.random.default_rng(22), stacked)
        deeper = x[None] if stacked else x[None, None]
        for op in (squeeze, unsqueeze):
            with pytest.raises(ValueError, match="ndim=5"):
                op(deeper, levels)


def test_negative_squeeze_levels_refused():
    for op in (squeeze, unsqueeze):
        with pytest.raises(ValueError, match="levels must be >= 0"):
            op(np.zeros((4, 2, 2)), -1)


# ---------------------------------------------------------------------------
# Block construction and serialization
# ---------------------------------------------------------------------------


class TestBlockConstruction:
    def test_invertible_requires_bounded_convs(self):
        with pytest.raises(ValueError):
            AttentionBlock(
                kind="gaussian",
                variant="invertible",
                focus=np.eye(3),
                last=None,
            )

    def test_gaussian_rejects_embeddings(self):
        with pytest.raises(ValueError):
            AttentionBlock(
                kind="gaussian",
                variant="noninvertible",
                focus=np.eye(3),
                embed1=np.eye(3),
                embed2=np.eye(3),
            )

    def test_concat_requires_pair_scorer(self):
        with pytest.raises(ValueError):
            build_block("concat", "invertible", 4, seed=0).__class__(
                kind="concat",
                variant="invertible",
                focus=np.eye(4),
                last=np.eye(4),
                embed1=np.ones((2, 4)),
                embed2=np.ones((2, 4)),
            )

    @pytest.mark.parametrize(
        "weights",
        [
            dict(kind="gaussian", focus=np.ones((4, 3)), last=np.eye(3)),
            dict(kind="gaussian", focus=np.eye(3), last=np.eye(4)),
            dict(kind="gaussian", focus=np.eye(3), last=np.ones((3, 4))),
            dict(kind="embedded", focus=np.eye(3), last=np.eye(3),
                 embed1=np.ones((2, 4)), embed2=np.ones((2, 3))),
            dict(kind="embedded", focus=np.eye(3), last=np.eye(3),
                 embed1=np.ones((2, 3)), embed2=np.ones((2, 4))),
            dict(kind="dot", focus=np.eye(3), last=np.eye(3),
                 embed1=np.ones((2, 3)), embed2=np.ones((1, 3))),
        ],
        ids=["focus", "last", "last-rectangular", "embed1", "embed2", "embed-widths"],
    )
    def test_weight_shapes_checked(self, weights):
        with pytest.raises(ValueError, match="shape"):
            AttentionBlock(variant="invertible", **weights)

    @pytest.mark.parametrize("role", ["last", "embed1", "embed2", "pair_scorer"])
    @pytest.mark.parametrize("variant", ["invertible", "noninvertible"])
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_missing_or_extra_role_refused_by_name(self, kind, variant, role):
        # drop the role if the block carries it, else add one
        carried = {
            "last": variant == "invertible",
            "embed1": kind != "gaussian",
            "embed2": kind != "gaussian",
            "pair_scorer": kind == "concat",
        }[role]
        block = build_block(kind, variant, 4, seed=1)
        weights = {r: getattr(block, r) for r in ("focus", "last", "embed1", "embed2", "pair_scorer")}
        assert (weights[role] is not None) == carried
        weights[role] = None if carried else np.ones((2, 4))
        with pytest.raises(ValueError, match=role):
            AttentionBlock(kind=kind, variant=variant, **weights, c=block.c)

    @pytest.mark.parametrize("channels", [3, 12, 48])
    @pytest.mark.parametrize("variant", ["invertible", "noninvertible"])
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_draws_match_an_inline_reference(self, kind, variant, channels):
        # the builder's draw order, written out: any change to it changes
        # every saved block and every run's records
        seed, c = 7, 0.8
        rng = np.random.default_rng(seed)

        def draw(out_dim, in_dim):
            scale = 1.0 / np.sqrt(in_dim)
            return rng.uniform(-scale, scale, size=(out_dim, in_dim))

        width = max(1, channels // 2)
        want = {"focus": draw(channels, channels)}
        if variant == "invertible":
            want["last"] = draw(channels, channels)
        if kind != "gaussian":
            want["embed1"] = draw(width, channels)
            want["embed2"] = draw(width, channels)
        if kind == "concat":
            want["pair_scorer"] = draw(1, 2 * width)
        if variant == "invertible":
            for power_seed, role in ((seed, "focus"), (seed + 1, "last")):
                estimate = power_iteration(want[role], iters=1000, tol=1e-15, seed=power_seed)
                want[role] = spectral_normalize(want[role], c, estimate)
        block = build_block(kind, variant, channels, c=c, seed=seed)
        for role in ("focus", "last", "embed1", "embed2", "pair_scorer"):
            got = getattr(block, role)
            if role not in want:
                assert got is None, role
                continue
            assert got.dtype == np.float64, role
            assert np.array_equal(got, want[role]), role

    def test_container_with_misshapen_weight_refused(self):
        payload = block_to_dict(build_block("embedded", "invertible", 3, seed=30))
        payload["weights"]["last"] = {"shape": [4, 4], "data": np.eye(4).ravel().tolist()}
        with pytest.raises(ValueError, match="last shape"):
            block_from_dict(payload)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_builder_enforces_bounds(self, kind):
        # the bound follows from variant and c: focus and last are bounded in
        # the invertible variant, and a noninvertible focus is its init draw
        for c in (0.5, 0.9):
            block = build_block(kind, "invertible", 5, c=c, seed=21)
            assert block.focus.dtype == block.last.dtype == np.float64
            assert exact_svd_oracle(block.focus)[0] <= c + 1e-6
            assert exact_svd_oracle(block.last)[0] <= c + 1e-6
            free = build_block(kind, "noninvertible", 5, c=c, seed=21)
            scale = 1.0 / np.sqrt(5)
            draw = np.random.default_rng(21).uniform(-scale, scale, size=(5, 5))
            assert np.array_equal(free.focus, draw)
            assert free.last is None

    @pytest.mark.parametrize("channels", [0, -1])
    def test_channels_below_one_refused_by_name(self, channels):
        # under tier-1's warnings-as-errors, a draw at fan-in 0 or -1 would
        # fail on a numpy warning instead
        with pytest.raises(ValueError, match=f"channels must be >= 1, got {channels}"):
            build_block("dot", "invertible", channels)

    def test_embed_width_default(self):
        block = build_block("embedded", "invertible", 5, seed=22)
        assert block.embed1.shape[0] == 2
        tiny = build_block("dot", "invertible", 1, seed=23)
        assert tiny.embed1.shape[0] == 1


class TestSerialization:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_roundtrip_exact(self, kind, tmp_path):
        rng = np.random.default_rng(22)
        block = build_block(kind, "invertible", 3, seed=26, logit_scale=2.0)
        path = tmp_path / "block.json"
        save_block(block, path)
        loaded = load_block(path)
        assert loaded.kind == block.kind
        assert loaded.variant == block.variant
        assert loaded.c == block.c
        assert loaded.logit_scale == 2.0
        assert np.array_equal(loaded.focus, block.focus)
        x = random_grid(rng)
        assert np.array_equal(residual_forward(x, loaded), residual_forward(x, block))

    def test_format_and_version_checked(self):
        block = build_block("gaussian", "invertible", 3, seed=28)
        payload = block_to_dict(block)
        bad = dict(payload, format="something-else")
        with pytest.raises(ValueError):
            block_from_dict(bad)
        # version 1 stored an option, version 2 per-weight bounds and power-
        # iteration states, version 3 a column-sum target, version 4 a
        # precision and version 5 an activation, that this version no longer
        # reads; a key it does not write is refused by name first
        for version in (1, 2, 3, 4, 5, 99):
            with pytest.raises(ValueError, match="container version"):
                block_from_dict(dict(payload, version=version))
        with pytest.raises(ValueError, match="unknown key 'precision'"):
            block_from_dict(dict(payload, version=4, precision="float64"))  # as version 4 wrote it

    @pytest.mark.parametrize("key", list(block_to_dict(build_block("concat", "invertible", 3))))
    def test_container_missing_a_key_refused(self, key):
        payload = block_to_dict(build_block("concat", "invertible", 3, seed=27))
        del payload[key]
        with pytest.raises(ValueError, match=f"lacks the key '{key}'"):
            block_from_dict(payload)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda w: w.pop("shape"), "weight 'focus' lacks a list under the key 'shape'"),
            (lambda w: w.pop("data"), "weight 'focus' lacks a list under the key 'data'"),
            (lambda w: w.update(shape="3x3"), "weight 'focus' lacks a list under the key 'shape'"),
            (lambda w: w.update(data=None), "weight 'focus' lacks a list under the key 'data'"),
            (lambda w: w.update(shape=[9]), r"weight 'focus' has a 'shape' \[9\] that is not the 2-D shape"),
            (lambda w: w.update(shape=[2, 2]), r"weight 'focus' has a 'shape' \[2, 2\] that is not"),
            (lambda w: w.update(shape=[3.0, 3]), r"weight 'focus' has a 'shape' \[3.0, 3\] that is not"),
            (lambda w: w.update(data=["x"] * 9), "weight 'focus' has malformed 'data'"),
            (lambda w: w.update(data=[[1.0], [1.0, 2.0]]), "weight 'focus' has malformed 'data'"),
        ],
        ids=["no-shape", "no-data", "shape-text", "data-null", "shape-1d", "shape-misfit", "shape-float",
             "data-text", "data-ragged"],
    )
    def test_malformed_weight_entry_refused_by_role_and_key(self, edit, message):
        payload = block_to_dict(build_block("concat", "invertible", 3, seed=27))
        edit(payload["weights"]["focus"])
        with pytest.raises(ValueError, match=message):
            block_from_dict(payload)

    @pytest.mark.parametrize(
        "weights, message",
        [
            (lambda ws: list(ws.values()), "'weights' is not a mapping"),
            (lambda ws: dict(ws, last=[[0.5]]), "weight 'last' is not a mapping"),
        ],
        ids=["weights-list", "entry-list"],
    )
    def test_malformed_weights_refused(self, weights, message):
        payload = block_to_dict(build_block("concat", "invertible", 3, seed=27))
        payload["weights"] = weights(payload["weights"])
        with pytest.raises(ValueError, match=message):
            block_from_dict(payload)

    def test_container_is_plain_json(self, tmp_path):
        block = build_block("concat", "invertible", 3, seed=29)
        path = tmp_path / "block.json"
        save_block(block, path)
        parsed = json.loads(path.read_text())
        assert parsed["format"] == "invattn-block"
        assert parsed["version"] == 6
        assert "column_sum_target" not in parsed
        assert "precision" not in parsed
        assert "phi" not in parsed
        assert parsed["weights"]["pair_scorer"]["shape"] == [1, 2]
        for role, matrix in parsed["weights"].items():
            assert set(matrix) == {"shape", "data"}, role
            assert len(matrix["data"]) == np.prod(matrix["shape"])

    @pytest.mark.parametrize("role", ["focus", "last"])
    def test_container_past_the_spectral_bound_refused(self, role):
        # tripling a bounded weight gives sigma = 2.49 for focus at c = 0.9
        payload = block_to_dict(build_block("embedded", "invertible", 12, seed=3))
        weight = payload["weights"][role]
        weight["data"] = [3.0 * value for value in weight["data"]]
        with pytest.raises(ValueError, match=f"{role} has spectral norm"):
            block_from_dict(payload)

    def test_container_with_nan_logit_scale_refused(self):
        payload = block_to_dict(build_block("dot", "invertible", 3, seed=3))
        payload["logit_scale"] = math.nan
        with pytest.raises(ValueError, match="logit_scale must be finite"):
            block_from_dict(payload)

    def test_noninvertible_container_keeps_its_free_focus(self):
        payload = block_to_dict(build_block("dot", "noninvertible", 12, seed=3))
        payload["weights"]["focus"]["data"] = [3.0 * v for v in payload["weights"]["focus"]["data"]]
        assert np.linalg.norm(block_from_dict(payload).focus, 2) > 0.9

    @pytest.mark.parametrize("channels", [3, 12, 48, 192])
    def test_every_built_container_loads(self, channels):
        # 192 channels (--squeeze 3 at size 64) is past the SVD oracle's limit
        for seed, kind in enumerate(ALL_KINDS):
            for c in (0.5, 0.9):
                block = build_block(kind, "invertible", channels, c=c, seed=seed)
                loaded = block_from_dict(block_to_dict(block))
                assert np.array_equal(loaded.focus, block.focus)
                assert np.array_equal(loaded.last, block.last)


# ---------------------------------------------------------------------------
# Response-map invariants across kinds
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_invertible_maps_are_column_stochastic(kind):
    rng = np.random.default_rng(23)
    block = build_block(kind, "invertible", 3, seed=30)
    for _ in range(25):
        resp = response_map(random_grid(rng, 3, 3, 2), block)
        assert resp.min() >= 0.0
        assert np.abs(resp.sum(axis=0) - 1.0).max() <= 1e-9
        assert abs(norm_l1(resp) - 1.0) <= 1e-9


@pytest.mark.parametrize("kind", ["gaussian", "embedded"])
def test_noninvertible_exponential_rows_are_distributions(kind):
    rng = np.random.default_rng(24)
    block = build_block(kind, "noninvertible", 3, seed=31)
    for _ in range(25):
        resp = response_map(random_grid(rng), block)
        assert resp.min() >= 0.0
        assert np.abs(resp.sum(axis=1) - 1.0).max() <= 1e-9


# ---------------------------------------------------------------------------
# Stacks of grids: one call on (B, C, H, W) equals B calls on (C, H, W)
# ---------------------------------------------------------------------------

# block options and the dtype of the input stack; a float32 stack is read as
# float64, so its output is float64 too
STACK_CONFIGS = {
    "default": ({}, np.float64),
    "logit-scale": ({"logit_scale": 2.5}, np.float64),
    "float32-grid": ({}, np.float32),
}


def relative_gap(got, want):
    return float(np.abs(got - want).max() / np.abs(want).max())


@pytest.mark.parametrize("config", sorted(STACK_CONFIGS))
@pytest.mark.parametrize("variant", ["invertible", "noninvertible"])
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_stacked_branch_matches_loop_of_grids(kind, variant, config):
    options, dtype = STACK_CONFIGS[config]
    block = build_block(kind, variant, 4, seed=32, **options)
    xs = np.random.default_rng(33).uniform(0.0, 1.0, (5, 4, 3, 5)).astype(dtype)
    stacked = residual_branch(xs, block)
    looped = np.stack([residual_branch(x, block) for x in xs])
    assert stacked.dtype == looped.dtype == np.float64
    assert relative_gap(stacked, looped) <= 1e-15


def dead_column_block():
    """A dot block whose softplus columns underflow to zero: embed1 = I and
    embed2 = -I at logit scale 1e4 give logits -1e4 x_i·x_j, and softplus is
    0 below about -745, so column j is dead where x_i·x_j > 0.0745 for
    every position i."""
    eye4 = np.eye(4)
    return AttentionBlock(kind="dot", variant="invertible", focus=0.5 * eye4, last=0.5 * eye4,
                          embed1=eye4, embed2=-eye4, logit_scale=1e4)


def dead_column_grids(rng, shape):
    """Grids of ``shape`` (4 channels) for :func:`dead_column_block`: every
    position has 1 in channel 0 and uniform(-1, 1) elsewhere, and position 0
    is e1, whose dot with every position is 1, so column 0 is always dead."""
    x = rng.uniform(-1.0, 1.0, shape)
    x[..., 0, :, :] = 1.0
    x[..., 1:, 0, 0] = 0.0
    return x


def test_stacked_branch_with_a_forced_zero_column():
    # every grid has dead columns, column 0 among them
    block = dead_column_block()
    xs = dead_column_grids(np.random.default_rng(35), (3, 4, 3, 5))
    raw = raw_response(xs, block)
    assert np.array_equal(raw[1, :, 0], np.zeros(15))
    resp = response_map(xs, block)
    assert np.allclose(resp[1, :, 0], 1.0 / 15.0, rtol=0.0, atol=1e-15)
    stacked = residual_branch(xs, block)
    looped = np.stack([residual_branch(x, block) for x in xs])
    assert relative_gap(stacked, looped) <= 1e-15


@pytest.mark.parametrize(
    "kind, variant",
    [("dot", "invertible"), ("gaussian", "invertible"), ("embedded", "noninvertible"), ("concat", "noninvertible")],
)
def test_normalize_response_stack_matches_loop(kind, variant):
    raw = np.random.default_rng(36).uniform(0.1, 1.0, (4, 5, 5))
    raw[1, :, 2] = 0.0  # a zero column
    raw[2] = 0.0  # an all-zero matrix
    raw[3, 1, :] = 0.0  # a zero row
    stacked = normalize_response(raw, kind, variant)
    looped = np.stack([normalize_response(r, kind, variant) for r in raw])
    assert np.array_equal(stacked, looped)


# ---------------------------------------------------------------------------
# Grid layout: the convs and the forward make no transposing copy
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("variant", ["invertible", "noninvertible"])
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_branch_and_conv_never_transpose_back_to_a_grid(kind, variant, monkeypatch):
    def refuse(*args):
        raise AssertionError("matrix_to_grid called on the forward path")

    monkeypatch.setattr(attention, "matrix_to_grid", refuse)
    block = build_block(kind, variant, 4, seed=37)
    rng = np.random.default_rng(38)
    w = rng.standard_normal((5, 4))
    for shape in [(4, 3, 5), (3, 4, 3, 5)]:
        x = rng.uniform(0.0, 1.0, shape)
        assert residual_branch(x, block).shape == shape
        out = apply_1x1_conv(x, w)
        assert out.shape == shape[:-3] + (5,) + shape[-2:]
        assert out.flags.c_contiguous
        # a matrix-vector product may round its last bit unlike the matrix
        # product, so the loop is matched to 1e-15 of the largest entry
        looped = np.empty_like(out)
        for *grid, i, j in np.ndindex(shape[:-3] + shape[-2:]):
            looped[(*grid, slice(None), i, j)] = w @ x[(*grid, slice(None), i, j)]
        assert np.abs(out - looped).max() <= 1e-15 * np.abs(looped).max()


# ---------------------------------------------------------------------------
# Column-blocked forward
# ---------------------------------------------------------------------------

# block options and the dtype of the input grids, as in STACK_CONFIGS; logit
# scale 150 stretches the logits, so a column's responses span decades
BLOCKED_CONFIGS = {
    "default": ({}, np.float64),
    "logit-scale": ({"logit_scale": 1.3}, np.float64),
    "logit-scale-150": ({"logit_scale": 150.0}, np.float64),
    "float32-grid": ({}, np.float32),
}
# the blocked sum only regroups the R F products, so it agrees with the
# whole-matrix product to a few units in the last place
BLOCKED_GAP = 1e-13
# the interval the input grids are drawn from: a signed grid gives dot and
# concat logits of both signs, so softplus also runs in its e^L tail
GRID_RANGES = {"unit": (0.0, 1.0), "signed": (-1.0, 1.0)}


def whole_matrix_branch(x, block):
    """The attention and the branch from the whole m x m response map."""
    attn = response_map(x, block) @ grid_to_matrix(apply_1x1_conv(x, block.focus))
    return attn, attn if block.last is None else attn @ block.last.T


@pytest.mark.parametrize("grid", GRID_RANGES)
@pytest.mark.parametrize("config", sorted(BLOCKED_CONFIGS))
@pytest.mark.parametrize("variant", ["invertible", "noninvertible"])
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_blocked_forward_matches_whole_matrix(kind, variant, config, grid, monkeypatch):
    # 5-column slabs: m = 64 and 81 take 13 and 17 slabs, the last one ragged
    monkeypatch.setattr(attention, "_BLOCK_COLS", 5)
    options, dtype = BLOCKED_CONFIGS[config]
    block = build_block(kind, variant, 4, seed=40, **options)
    rng = np.random.default_rng(41)
    for shape in [(4, 8, 8), (4, 9, 9), (3, 4, 9, 9)]:
        x = rng.uniform(*GRID_RANGES[grid], shape).astype(dtype)
        want_attn, want_branch = whole_matrix_branch(x, block)
        attn = grid_to_matrix(attention_apply(x, block))
        branch = grid_to_matrix(residual_branch(x, block))
        assert attn.dtype == branch.dtype == np.float64
        assert relative_gap(attn, want_attn) <= BLOCKED_GAP
        assert relative_gap(branch, want_branch) <= BLOCKED_GAP


@pytest.mark.parametrize("variant", ["invertible", "noninvertible"])
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_one_slab_forward_is_the_whole_matrix_product(kind, variant):
    # at m <= _BLOCK_COLS the forward is one slab of every column: the same
    # arithmetic as the whole-matrix reference, bit for bit
    block = build_block(kind, variant, 4, seed=42)
    rng = np.random.default_rng(43)
    side = math.isqrt(attention._BLOCK_COLS)
    for shape in [(4, 9, 9), (3, 4, 9, 9), (4, side, side)]:
        x = rng.uniform(0.0, 1.0, shape)
        want_attn, want_branch = whole_matrix_branch(x, block)
        height, width = shape[-2:]
        assert np.array_equal(attention_apply(x, block), matrix_to_grid(want_attn, height, width))
        assert np.array_equal(residual_branch(x, block), matrix_to_grid(want_branch, height, width))


def test_blocked_forward_with_forced_zero_columns(monkeypatch):
    # the dead columns of test_stacked_branch_with_a_forced_zero_column, in
    # the first slab and in the ragged last slab (15 = 4 + 4 + 4 + 3)
    monkeypatch.setattr(attention, "_BLOCK_COLS", 4)
    block = dead_column_block()
    xs = dead_column_grids(np.random.default_rng(35), (3, 4, 3, 5))
    assert np.array_equal(raw_response(xs, block)[:, :, 0], np.zeros((3, 15)))
    assert np.array_equal(raw_response(xs, block)[2, :, 14], np.zeros(15))
    _, want = whole_matrix_branch(xs, block)
    assert relative_gap(grid_to_matrix(residual_branch(xs, block)), want) <= BLOCKED_GAP


@pytest.mark.parametrize(
    "kind, variant",
    [("gaussian", "invertible"), ("embedded", "invertible"), ("dot", "invertible"),
     ("concat", "invertible"), ("dot", "noninvertible"), ("concat", "noninvertible")],
)
def test_column_slab_normalizes_as_its_part_of_the_whole(kind, variant):
    raw = np.random.default_rng(44).uniform(0.1, 1.0, (2, 6, 6))
    raw[1, :, 4] = 0.0  # a dead column, filled with 1/m for m = 6 rows
    whole = normalize_response(raw, kind, variant)
    for cols in (slice(0, 2), slice(2, 5), slice(5, 6)):
        slab = normalize_response(raw[..., cols], kind, variant)
        assert np.array_equal(slab, whole[..., cols])


@pytest.mark.parametrize("kind", ["gaussian", "embedded"])
def test_row_normalized_response_refuses_a_column_slab(kind):
    raw = np.ones((6, 6))
    with pytest.raises(ValueError, match="square"):
        normalize_response(raw[:, :3], kind, "noninvertible")


# ---------------------------------------------------------------------------
# One slab workspace per forward call
# ---------------------------------------------------------------------------


def traced_peak(fn):
    """Peak bytes that tracemalloc sees allocated during ``fn()``."""
    fn()  # a first call settles any one-time allocation
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# most bytes one branch call of any kind may hold, in units of one (B, m, 256)
# float64 slab: the workspace itself, 1.19 slabs measured at both shapes, so
# one more slab of scratch (2.14) fails
BRANCH_PEAK_SLABS = 1.25


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("shape", [(12, 32, 32), (2, 12, 32, 32)])
def test_branch_call_allocation_is_bounded_by_its_slab(kind, shape):
    block = build_block(kind, "invertible", 12, seed=45)
    x = np.random.default_rng(46).uniform(0.0, 1.0, shape)
    slab_bytes = math.prod(shape[:-3]) * 32 * 32 * attention._BLOCK_COLS * 8
    peak = traced_peak(lambda: residual_branch(x, block))
    assert peak <= BRANCH_PEAK_SLABS * slab_bytes, f"{peak / slab_bytes:.2f} slabs"


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("logit_scale", [1.0, 1.3, 150.0])
def test_linearize_holds_at_most_two_square_arrays(kind, logit_scale, dtype):
    # the m x m arrays: the raw responses, normalized in place into R, and
    # the slope read off them. The rest are a few m x C arrays, a float32
    # grid's float64 cast among them.
    block = build_block(kind, "invertible", 12, seed=47, logit_scale=logit_scale)
    x = np.random.default_rng(48).uniform(0.0, 1.0, (12, 32, 32)).astype(dtype)
    m = 32 * 32
    peak = traced_peak(lambda: attention.linearize(block, x))
    assert peak <= (2 * m * m + 8 * m * 12) * 8, f"{peak / (m * m * 8):.3f} m x m arrays"


def slab_buffer(shape):
    """A float64 view of ``shape`` into a wider workspace, as the forward's
    ragged last slab is: its rows are strided past its own width."""
    return np.full(shape[:-1] + (shape[-1] + 3,), np.nan)[..., : shape[-1]]


@pytest.mark.parametrize("grid", GRID_RANGES)
@pytest.mark.parametrize("logit_scale", [1.0, 1.3, 150.0])
@pytest.mark.parametrize("variant", ["invertible", "noninvertible"])
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_out_changes_no_response_value(kind, variant, logit_scale, grid):
    block = build_block(kind, variant, 4, seed=49, logit_scale=logit_scale)
    xs = np.random.default_rng(50).uniform(*GRID_RANGES[grid], (3, 4, 3, 5))
    assert_out_changes_no_response_value(block, xs)


def test_out_changes_no_dead_column_value():
    block = dead_column_block()
    xs = dead_column_grids(np.random.default_rng(50), (3, 4, 3, 5))
    assert not raw_response(xs, block).sum(axis=-2).all()
    assert_out_changes_no_response_value(block, xs)


def assert_out_changes_no_response_value(block, xs):
    """Raw and normalized responses written into a strided buffer, whole and
    in column slabs, equal those of a new array, for a stack and one grid."""
    kind, variant = block.kind, block.variant
    rows_normalized = variant == "noninvertible" and kind in attention._EXP_KINDS
    slabs = [slice(None)] if rows_normalized else [slice(None), slice(0, 4), slice(12, 16)]  # 15 = 12 + 3
    for x in (xs, xs[1]):
        for cols in slabs:
            want_raw = raw_response(x, block, cols)
            buf = slab_buffer(want_raw.shape)
            got_raw = raw_response(x, block, cols, buf)
            assert got_raw is buf
            assert np.array_equal(got_raw, want_raw)
            want = normalize_response(want_raw, kind, variant)
            got = normalize_response(got_raw, kind, variant, buf)
            assert got is buf
            assert np.array_equal(got, want)
            other = normalize_response(want_raw, kind, variant, slab_buffer(want_raw.shape))
            assert np.array_equal(other, want)


@pytest.mark.parametrize("logit_scale", [1.0, 1.3, 150.0])
@pytest.mark.parametrize("shape", [(6, 20, 20), (2, 6, 20, 20)])
def test_concat_logits_are_the_broadcast_sum_bit_for_bit(shape, logit_scale):
    # m = 400 positions: the forward's slabs are 256 columns and a ragged 144,
    # the latter written into the first columns of the 256-wide workspace
    block = build_block("concat", "invertible", 6, seed=56, logit_scale=logit_scale)
    pos = grid_to_matrix(np.random.default_rng(57).normal(0.0, 1.0, shape))
    a1, a2 = np.split(block.pair_scorer[0], 2)
    e1 = pos @ block.embed1.T
    workspace = np.full(shape[:-3] + (400, 256), np.nan)
    for cols in (slice(None), slice(0, 256), slice(256, 400)):
        e2 = pos[..., cols, :] @ block.embed2.T
        want = (e1 @ a1)[..., :, None] + (e2 @ a2)[..., None, :]
        want *= logit_scale
        assert np.array_equal(attention.pairwise_logits(pos, block, cols), want)
        if want.shape[-1] <= 256:
            out = workspace[..., : want.shape[-1]]
            assert attention.pairwise_logits(pos, block, cols, out) is out
            assert np.array_equal(out, want)


@pytest.mark.parametrize(
    "kind, variant",
    [("gaussian", "invertible"), ("dot", "invertible"), ("embedded", "noninvertible"), ("concat", "noninvertible")],
)
def test_out_normalizes_dead_lines_as_without(kind, variant):
    raw = np.random.default_rng(51).uniform(0.1, 1.0, (2, 6, 6))
    raw[0, :, 4] = 0.0  # a dead column
    raw[1, 2, :] = 0.0  # a dead row
    want = normalize_response(raw, kind, variant)
    buf = raw.copy()
    assert normalize_response(buf, kind, variant, buf) is buf
    assert np.array_equal(buf, want)


@pytest.mark.parametrize("variant", ["invertible", "noninvertible"])
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_out_raises_the_same_errors(kind, variant):
    raw = np.random.default_rng(52).uniform(0.1, 1.0, (2, 5, 5))
    for bad in (np.inf, -np.inf, np.nan):
        edited = raw.copy()
        edited[1, 3, 2] = bad
        for out in (None, slab_buffer(raw.shape), edited):
            with pytest.raises(NonFiniteError):
                normalize_response(edited, kind, variant, out)
    negative = raw.copy()
    negative[0, 1, 1] = -0.5
    for out in (None, slab_buffer(raw.shape)):
        if variant == "invertible":
            with pytest.raises(InvariantViolation):
                normalize_response(negative, kind, variant, out)
        else:
            normalize_response(negative, kind, variant, out)
    # finite entries whose line sums overflow raise nothing, with or without
    # out; only a line-summing normalization warns of the overflow
    huge = np.full((5, 5), 1e308)
    divides_by_m = variant == "noninvertible" and kind not in attention._EXP_KINDS
    results = []
    for out in (None, slab_buffer(huge.shape)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            results.append(normalize_response(huge, kind, variant, out))
        assert [str(w.message) for w in caught] == ([] if divides_by_m else ["overflow encountered in reduce"])
    assert np.array_equal(results[1], results[0])


SOFTPLUS_EDGES = np.array([0.0, -0.0, 1e-310, -1e-310, 745.0, -745.0, 1e308, -1e308, np.inf, -np.inf])


def test_forward_softplus_is_apply_phi_bit_for_bit():
    x = np.concatenate([SOFTPLUS_EDGES, np.random.default_rng(53).normal(0.0, 30.0, 1000)])
    logits = x.copy()
    activated = attention._phi_in_place(logits)  # the forward's in-place kernel
    assert activated is logits
    assert np.array_equal(activated, apply_phi(x))
    # the out-of-place form: log1p(e^x), and x itself from log(max float) up
    with np.errstate(over="ignore"):
        reference = np.where(x < np.log(np.finfo(x.dtype).max), np.log1p(np.exp(x)), x)
    assert np.array_equal(activated, reference)
    assert np.array_equal(np.signbit(activated), np.signbit(reference))


def test_apply_phi_leaves_its_input_unchanged():
    x = np.concatenate([SOFTPLUS_EDGES, np.random.default_rng(55).normal(0.0, 30.0, 100)])
    before = x.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        apply_phi(x)
    assert np.array_equal(x, before)
    assert np.array_equal(np.signbit(x), np.signbit(before))
