"""Tests for the dense-array substrate: conv, BN, softmax, ADAM, grad checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from oacnet import tensor
from oacnet.tensor import (
    BN_EPS,
    Adam,
    BatchNorm,
    NumericError,
    Parameter,
    ShapeError,
    assert_finite,
    conv2d_backward,
    conv2d_forward,
    l2_normalize_channels,
    relu_backward,
    relu_forward,
    spatial_softmax_backward,
    spatial_softmax_forward,
)

from gradcheck import bn_stats_restored, grad_check


def conv2d_reference(x, w, b):
    """Naive quadruple-loop valid convolution used as an independent oracle."""
    B, cin, H, W = x.shape
    cout, _, k, _ = w.shape
    Ho = H - k + 1
    Wo = W - k + 1
    out = np.zeros((B, cout, Ho, Wo))
    for bi in range(B):
        for o in range(cout):
            for i in range(Ho):
                for j in range(Wo):
                    acc = 0.0
                    for c in range(cin):
                        for di in range(k):
                            for dj in range(k):
                                acc += x[bi, c, i + di, j + dj] * w[o, c, di, dj]
                    out[bi, o, i, j] = acc + b[o]
    return out


def conv2d_backward_im2col_reference(x, w, gout):
    """conv2d_backward as an im2col rebuilt from x with sliding_window_view
    for the weight gradient, and one w[:, :, i, j].T @ g product per tap added
    in tap order into a zeroed (B, Cin, H, W) input gradient."""
    cout, cin, k, _ = w.shape
    B, _, Ho, Wo = gout.shape
    cols = sliding_window_view(x, (k, k), axis=(2, 3))
    g = gout.transpose(1, 0, 2, 3).reshape(cout, B * Ho * Wo)
    gw = (g @ cols.transpose(0, 2, 3, 1, 4, 5).reshape(B * Ho * Wo, -1)).reshape(w.shape)
    gx = np.zeros_like(x)
    for i in range(k):
        for j in range(k):
            tap = (w[:, :, i, j].T @ g).reshape(cin, B, Ho, Wo)
            gx[:, :, i : i + Ho, j : j + Wo] += tap.transpose(1, 0, 2, 3)
    return gx, gw, gout.sum(axis=(0, 2, 3))


def conv2d_im2col_reference(x, w, b):
    """The im2col forward: one GEMM of the flattened kernel over every window."""
    cout, cin, k, _ = w.shape
    cols = sliding_window_view(x, (k, k), axis=(2, 3))  # B, Cin, Ho, Wo, k, k
    return np.tensordot(cols, w, axes=([1, 4, 5], [1, 2, 3])).transpose(0, 3, 1, 2) \
        + b[None, :, None, None]


def max_relative_deviation(a, ref):
    return float(np.abs(a - ref).max() / np.abs(ref).max())


# (B, Cin, H, W, Cout, k): k = 3, 5, 7 at B = 1, 2, 8, each with an output side
# of 6 (whole 3x3 tiles) and of 4 (padded and cropped); one non-square map
WINOGRAD_SHAPES = [(B, 3, k + side - 1, k + side - 1, 4, k)
                   for k in (3, 5, 7) for B in (1, 2, 8) for side in (6, 4)] + [
    (2, 3, 12, 9, 4, 5),  # 8 x 5 output
    (8, 128, 15, 15, 128, 7),  # paper-scale encoder, training batch
    (1, 128, 15, 15, 128, 7),  # paper-scale encoder, one pair
    (16, 48, 8, 8, 32, 7),  # desk-scale encoder
]


# ---------------------------------------------------------------------------
# conv2d


class TestConv2d:
    def test_scaling_identity(self):
        x = np.ones((1, 1, 3, 3))
        w = np.full((1, 1, 1, 1), 2.0)
        out, _ = conv2d_forward(x, w, np.zeros(1))
        assert out.shape == (1, 1, 3, 3)
        assert np.array_equal(out, np.full((1, 1, 3, 3), 2.0))

    def test_full_scale_shape(self):
        x = np.zeros((1, 128, 15, 15))
        w = np.zeros((128, 128, 7, 7))
        out, _ = conv2d_forward(x, w, np.zeros(128))
        assert out.shape == (1, 128, 9, 9)

    @pytest.mark.parametrize("shape,k", [((2, 1, 5, 5), 3), ((1, 4, 8, 8), 5), ((3, 2, 6, 7), 1)])
    def test_matches_reference_various_shapes(self, shape, k):
        rng = np.random.default_rng(hash((shape, k)) % 2**32)
        x = rng.uniform(-1, 1, shape)
        w = rng.uniform(-1, 1, (3, shape[1], k, k))
        b = rng.uniform(-1, 1, 3)
        out, _ = conv2d_forward(x, w, b)
        assert np.allclose(out, conv2d_reference(x, w, b), atol=1e-12)

    def test_even_kernel_rejected(self):
        with pytest.raises(ShapeError, match="odd side of at most 7, got 2x2"):
            conv2d_forward(np.zeros((1, 1, 4, 4)), np.zeros((1, 1, 2, 2)), np.zeros(1))

    def test_kernel_beyond_the_toom_cook_points_rejected(self):
        # F(3x3, 9x9) would need eleven points; there are nine
        with pytest.raises(ShapeError, match="odd side of at most 7, got 9x9"):
            conv2d_forward(np.zeros((1, 1, 11, 11)), np.zeros((1, 1, 9, 9)), np.zeros(1))

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            conv2d_forward(np.zeros((1, 2, 4, 4)), np.zeros((1, 3, 3, 3)), np.zeros(1))

    def test_too_small_input_rejected(self):
        with pytest.raises(ShapeError):
            conv2d_forward(np.zeros((1, 1, 2, 2)), np.zeros((1, 1, 5, 5)), np.zeros(1))

    def test_gradients(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(-1, 1, (2, 2, 5, 5))
        wp = Parameter(rng.uniform(-1, 1, (3, 2, 3, 3)), "w")
        bp = Parameter(rng.uniform(-1, 1, 3), "b")
        proj = rng.standard_normal((2, 3, 3, 3))

        def loss_fn(compute_grads):
            out, cache = conv2d_forward(x, wp.value, bp.value)
            if compute_grads:
                _, gw, gb = conv2d_backward(cache, proj)
                wp.grad += gw
                bp.grad += gb
            return float(np.sum(out * proj))

        report = grad_check(loss_fn, [wp, bp])
        assert max(report.values()) < 1e-4

    # every row is a 1x1 conv, one GEMM; the k x k convs run Winograd and are
    # checked for closeness in test_winograd_matches_im2col
    @pytest.mark.parametrize("B,cin,H,cout,k", [
        (8, 133, 9, 128, 1),   # paper-scale G branch
        (16, 37, 2, 32, 1),    # desk-scale G branch
        (8, 64, 9, 1, 1),      # single-output attention score
    ])
    def test_backward_byte_equal_to_im2col_reference(self, B, cin, H, cout, k):
        rng = np.random.default_rng(B * cin + k)
        x = rng.standard_normal((B, cin, H, H))
        w = rng.standard_normal((cout, cin, k, k))
        out, cache = conv2d_forward(x, w, np.zeros(cout))
        gout = rng.standard_normal(out.shape)
        got = conv2d_backward(cache, gout)
        ref = conv2d_backward_im2col_reference(x, w, gout)
        for name, a, r in zip(("gx", "gw", "gb"), got, ref):
            assert a.shape == r.shape and a.tobytes() == r.tobytes(), name

    def test_non_square_backward_matches_im2col_reference(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((3, 4, 6, 5))
        w = rng.standard_normal((5, 4, 1, 1))
        out, cache = conv2d_forward(x, w, np.zeros(5))
        gout = rng.standard_normal(out.shape)
        got = conv2d_backward(cache, gout)
        ref = conv2d_backward_im2col_reference(x, w, gout)
        assert got[0].shape == x.shape
        for name, a, r in zip(("gx", "gw", "gb"), got, ref):
            assert a.tobytes() == r.tobytes(), name

    @pytest.mark.parametrize("B,cin,H,cout,algorithm", [
        (8, 128, 15, 128, "winograd"),  # paper-scale encoder, a training batch
        (16, 48, 8, 32, "winograd"),    # desk-scale encoder
        (8, 133, 9, 128, "gemm"),       # paper-scale G branch
    ])
    def test_channels_last_input_is_byte_equal(self, B, cin, H, cout, algorithm):
        """The direct OAC path hands the encoder a (B, N, H, W) view of
        (H, W, B, N) memory: the forward and backward are byte-equal to those
        of a C-ordered copy, and gx comes back in x's layout. A 1x1 conv
        takes such a view the same way."""
        rng = np.random.default_rng(B + cin)
        x = rng.standard_normal((B, cin, H, H))
        x_last = np.empty((H, H, B, cin)).transpose(2, 3, 0, 1)
        x_last[...] = x
        k = {"winograd": 7, "gemm": 1}[algorithm]
        w = rng.standard_normal((cout, cin, k, k))
        b = rng.standard_normal(cout)
        out, cache = conv2d_forward(x, w, b)
        out_last, cache_last = conv2d_forward(x_last, w, b)
        assert len(cache) == {"winograd": 4, "gemm": 2}[algorithm]
        assert out_last.strides == out.strides and out_last.tobytes() == out.tobytes()
        gout = rng.standard_normal(out.shape)
        got, got_last = conv2d_backward(cache, gout), conv2d_backward(cache_last, gout)
        for name, a, a_last in zip(("gx", "gw", "gb"), got, got_last):
            assert a_last.tobytes() == a.tobytes(), name
        assert got[0].strides == x.strides and got_last[0].strides == x_last.strides

    @pytest.mark.parametrize("B,cin,H,W,cout,k", WINOGRAD_SHAPES)
    def test_winograd_matches_im2col(self, B, cin, H, W, cout, k):
        rng = np.random.default_rng(B * cin * H + W * k)
        x = rng.standard_normal((B, cin, H, W))
        w = rng.standard_normal((cout, cin, k, k))
        b = rng.standard_normal(cout)
        out, cache = tensor.winograd_conv2d_forward(x, w, b)
        assert out.shape == (B, cout, H - k + 1, W - k + 1)
        assert max_relative_deviation(out, conv2d_im2col_reference(x, w, b)) <= 1e-12
        gout = rng.standard_normal(out.shape)
        gx, gw, gb = conv2d_backward(cache, gout)
        rx, rw, rb = conv2d_backward_im2col_reference(x, w, gout)
        assert gx.shape == x.shape and gw.shape == w.shape
        assert max_relative_deviation(gx, rx) <= 1e-12
        assert max_relative_deviation(gw, rw) <= 1e-12
        assert gb.tobytes() == rb.tobytes()

    @pytest.mark.parametrize("B,cin,cout,H,k", [
        (8, 133, 128, 9, 1),  # paper-scale G branch
        (16, 37, 32, 2, 1),  # desk-scale G branch
        (2, 3, 4, 8, 3),
        (2, 3, 4, 8, 5),
        (8, 128, 128, 15, 7),  # paper_train step
        (1, 128, 128, 15, 7),  # paper_eval step
        (16, 48, 32, 8, 7),  # desk step
    ])
    def test_algorithm_chosen_by_kernel_size(self, B, cin, cout, H, k, monkeypatch):
        calls = []
        winograd_forward = tensor.winograd_conv2d_forward
        monkeypatch.setattr(tensor, "winograd_conv2d_forward",
                            lambda *args: calls.append(1) or winograd_forward(*args))
        out, cache = conv2d_forward(np.zeros((B, cin, H, H)), np.zeros((cout, cin, k, k)),
                                    np.zeros(cout))
        assert out.shape == (B, cout, H - k + 1, H - k + 1)
        # the 1x1 GEMM's cache is (x, w), Winograd's (x, w, U, V)
        assert len(calls) == int(k > 1) and len(cache) == (4 if k > 1 else 2)

    @pytest.mark.parametrize("held,B,cin,cout,H,k", [
        (True, 8, 128, 128, 15, 7),  # paper B=8 eval
        (True, 1, 128, 128, 15, 7),  # paper_eval step
        (True, 16, 48, 32, 8, 7),  # desk eval
        (False, 1, 128, 128, 15, 7),  # a cold one-pair forward
        (False, 8, 128, 128, 15, 7),
    ])
    def test_algorithm_chosen_with_a_kernel_getter(self, held, B, cin, cout, H, k, monkeypatch):
        # Winograd uses a U the caller passes rather than computing its own,
        # and its output is byte-equal to a call that computes U itself
        rng = np.random.default_rng(B + cin + k)
        x = rng.standard_normal((B, cin, H, H))
        w = rng.standard_normal((cout, cin, k, k))
        U = tensor.winograd_kernel(w) if held else None
        got = []
        winograd_forward = tensor.winograd_conv2d_forward
        monkeypatch.setattr(tensor, "winograd_conv2d_forward",
                            lambda *args: got.append(args[3]) or winograd_forward(*args))
        out, cache = conv2d_forward(x, w, np.zeros(cout), U)
        assert out.shape == (B, cout, H - k + 1, H - k + 1)
        assert len(got) == 1 and len(cache) == 4
        assert got[0] is U and (U is None or cache[2] is U)
        plain, _ = winograd_forward(x, w, np.zeros(cout))
        assert out.tobytes() == plain.tobytes()

    def test_winograd_gradients(self):
        rng = np.random.default_rng(17)
        xp = Parameter(rng.uniform(-1, 1, (4, 32, 15, 15)), "x")
        wp = Parameter(rng.uniform(-1, 1, (32, 32, 7, 7)), "w")
        bp = Parameter(rng.uniform(-1, 1, 32), "b")
        proj = rng.standard_normal((4, 32, 9, 9))

        def loss_fn(compute_grads):
            out, cache = conv2d_forward(xp.value, wp.value, bp.value)
            assert len(cache) == 4  # the Winograd path's (x, w, U, V)
            if compute_grads:
                gx, gw, gb = conv2d_backward(cache, proj)
                xp.grad += gx
                wp.grad += gw
                bp.grad += gb
            return float(np.sum(out * proj))

        report = grad_check(loss_fn, [xp, wp, bp])
        assert max(report.values()) < 1e-4

    def test_input_gradient(self):
        rng = np.random.default_rng(2)
        xp = Parameter(rng.uniform(-1, 1, (1, 2, 5, 5)), "x")
        w = rng.uniform(-1, 1, (2, 2, 3, 3))
        b = rng.uniform(-1, 1, 2)
        proj = rng.standard_normal((1, 2, 3, 3))

        def loss_fn(compute_grads):
            out, cache = conv2d_forward(xp.value, w, b)
            if compute_grads:
                gx, _, _ = conv2d_backward(cache, proj)
                xp.grad += gx
            return float(np.sum(out * proj))

        report = grad_check(loss_fn, [xp])
        assert max(report.values()) < 1e-4


# ---------------------------------------------------------------------------
# relu / l2 normalize


class TestRelu:
    def test_simple(self):
        out, _ = relu_forward(np.array([-1.0, 0.0, 2.0]))
        assert np.array_equal(out, [0.0, 0.0, 2.0])

    def test_all_negative(self):
        out, _ = relu_forward(-np.abs(np.random.default_rng(0).standard_normal((3, 4))) - 0.1)
        assert np.array_equal(out, np.zeros((3, 4)))

    def test_matches_reference_loop(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-2, 2, (4, 5))
        out, _ = relu_forward(x)
        for i in range(4):
            for j in range(5):
                assert out[i, j] == max(x[i, j], 0.0)

    def test_backward_masks(self):
        x = np.array([-1.0, 0.5, 2.0])
        _, cache = relu_forward(x)
        g = relu_backward(cache, np.ones(3))
        assert np.array_equal(g, [0.0, 1.0, 1.0])


class TestL2Normalize:
    def test_three_four_five(self):
        x = np.zeros((2, 1, 1))
        x[0, 0, 0] = 3.0
        x[1, 0, 0] = 4.0
        out = l2_normalize_channels(x)
        assert np.allclose(out[:, 0, 0], [0.6, 0.8])

    def test_zero_vector_guard(self):
        out = l2_normalize_channels(np.zeros((4, 2, 2)))
        assert np.array_equal(out, np.zeros((4, 2, 2)))

    def test_unit_norms(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((8, 5, 6)) + 0.1
        out = l2_normalize_channels(x)
        norms = np.sqrt(np.sum(out * out, axis=0))
        assert np.allclose(norms, 1.0, atol=1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_idempotent(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-1, 1, (4, 3, 3)) + 0.5
        once = l2_normalize_channels(x)
        twice = l2_normalize_channels(once)
        assert np.allclose(once, twice, atol=1e-12)


# ---------------------------------------------------------------------------
# batch norm


class TestBatchNorm:
    def test_identity_on_standardized_batch(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((64, 3, 4, 4))
        x = (x - x.mean(axis=(0, 2, 3), keepdims=True)) / x.std(axis=(0, 2, 3), keepdims=True)
        bn = BatchNorm(3)
        out, _ = bn.forward(x, "train")
        assert np.allclose(out, x / np.sqrt(1.0 + BN_EPS), atol=1e-10)

    def test_gamma_zero_gives_beta(self):
        bn = BatchNorm(2)
        bn.gamma.value[...] = 0.0
        bn.beta.value[...] = 1.5
        x = np.random.default_rng(6).standard_normal((4, 2, 3, 3))
        out, _ = bn.forward(x, "train")
        assert np.allclose(out, 1.5)

    def test_output_moments(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(-3, 3, (16, 5, 4, 4))
        bn = BatchNorm(5)
        out, _ = bn.forward(x, "train")
        assert np.allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-10)
        assert np.allclose(out.var(axis=(0, 2, 3)), 1.0, atol=1e-8)

    def test_eval_before_train_raises(self):
        bn = BatchNorm(2)
        with pytest.raises(NumericError):
            bn.forward(np.zeros((1, 2, 2, 2)), "eval")

    def test_running_stats_update(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((8, 2, 3, 3)) * 2.0 + 1.0
        bn = BatchNorm(2)
        bn.forward(x, "train")
        expected_mean = 0.1 * x.mean(axis=(0, 2, 3))
        assert np.allclose(bn.running_mean, expected_mean)
        out_eval, _ = bn.forward(x, "eval")
        assert np.all(np.isfinite(out_eval))

    def test_running_stats_update_only_in_train_mode(self):
        rng = np.random.default_rng(9)
        bn = BatchNorm(2)
        bn.forward(rng.standard_normal((4, 2, 3, 3)), "train")
        mean_before = bn.running_mean.copy()
        bn.forward(rng.standard_normal((4, 2, 3, 3)), "eval")
        assert np.array_equal(bn.running_mean, mean_before) and bn.num_updates == 1
        with bn_stats_restored([bn]):
            bn.forward(rng.standard_normal((4, 2, 3, 3)), "train")
            assert not np.array_equal(bn.running_mean, mean_before) and bn.num_updates == 2
        assert np.array_equal(bn.running_mean, mean_before) and bn.num_updates == 1

    def test_gradients(self):
        rng = np.random.default_rng(10)
        x = rng.uniform(-1, 1, (6, 3, 2, 2))
        bn = BatchNorm(3)
        bn.gamma.value[...] = rng.uniform(0.5, 1.5, 3)
        bn.beta.value[...] = rng.uniform(-0.5, 0.5, 3)
        proj = rng.standard_normal(x.shape)

        def loss_fn(compute_grads):
            out, cache = bn.forward(x, "train")
            if compute_grads:
                bn.backward(cache, proj)
            return float(np.sum(out * proj))

        with bn_stats_restored([bn]):
            report = grad_check(loss_fn, [bn.gamma, bn.beta])
        assert max(report.values()) < 1e-4

    def test_input_gradient(self):
        rng = np.random.default_rng(11)
        xp = Parameter(rng.uniform(-1, 1, (5, 2, 3, 3)), "x")
        bn = BatchNorm(2)
        proj = rng.standard_normal(xp.shape)

        def loss_fn(compute_grads):
            out, cache = bn.forward(xp.value, "train")
            if compute_grads:
                xp.grad += bn.backward(cache, proj)
            return float(np.sum(out * proj))

        with bn_stats_restored([bn]):
            report = grad_check(loss_fn, [xp])
        assert max(report.values()) < 1e-4

    # memory orders of x and of the upstream gradient: C, a conv output's
    # (C, B, H, W) as the model feeds x, and channels-last (B, H, W, C)
    @pytest.mark.parametrize("x_memory,g_memory", [
        ((0, 1, 2, 3), (0, 1, 2, 3)),
        ((1, 0, 2, 3), (0, 1, 2, 3)),
        ((1, 0, 2, 3), (0, 2, 3, 1)),
    ])
    def test_in_place_passes_are_the_expressions(self, x_memory, g_memory):
        """Train and eval forwards and the backward are byte-equal, layout
        included, to the expressions written with one temporary each."""
        rng = np.random.default_rng(12)
        shape = (8, 6, 9, 9)

        def laid_out(memory):
            return rng.standard_normal(tuple(shape[i] for i in memory)).transpose(
                np.argsort(memory))

        x, gout = laid_out(x_memory), laid_out(g_memory)
        bn = BatchNorm(6)
        bn.gamma.value[...] = rng.uniform(0.5, 1.5, 6)
        bn.beta.value[...] = rng.uniform(-0.5, 0.5, 6)
        c = (None, slice(None), None, None)
        gamma, beta = bn.gamma.value, bn.beta.value
        for mode in ("train", "eval"):
            if mode == "train":
                mean, var = x.mean(axis=(0, 2, 3)), x.var(axis=(0, 2, 3))
            else:
                mean, var = bn.running_mean, bn.running_var
            out, cache = bn.forward(x, mode)
            inv_std = 1.0 / np.sqrt(var + BN_EPS)
            xhat = (x - mean[c]) * inv_std[c]
            ref = gamma[c] * xhat + beta[c]
            assert out.strides == ref.strides and out.tobytes() == ref.tobytes()
        _, cache = bn.forward(x, "train")
        xhat, inv_std = cache
        gx = bn.backward(cache, gout)
        n = 8 * 9 * 9
        g = gout * gamma[c]
        sum_g = np.sum(g, axis=(0, 2, 3))[c]
        sum_gx = np.sum(g * xhat, axis=(0, 2, 3))[c]
        ref = (inv_std[c] / n) * (n * g - sum_g - xhat * sum_gx)
        assert gx.strides == ref.strides and gx.tobytes() == ref.tobytes()
        assert bn.gamma.grad.tobytes() == np.sum(gout * xhat, axis=(0, 2, 3)).tobytes()
        assert bn.beta.grad.tobytes() == np.sum(gout, axis=(0, 2, 3)).tobytes()


# ---------------------------------------------------------------------------
# spatial softmax


class TestSpatialSoftmax:
    def test_uniform_scores(self):
        out, _ = spatial_softmax_forward(np.zeros((1, 1, 9, 9)))
        assert np.allclose(out, 1.0 / 81.0, atol=1e-15)

    def test_dominant_score(self):
        scores = np.full((1, 1, 4, 4), -50.0)
        scores[0, 0, 2, 1] = 50.0
        out, _ = spatial_softmax_forward(scores)
        assert out[0, 0, 2, 1] >= 1.0 - 1e-12

    def test_matches_reference(self):
        rng = np.random.default_rng(12)
        scores = rng.uniform(-5, 5, (2, 1, 5, 5))
        out, _ = spatial_softmax_forward(scores)
        for bi in range(2):
            flat = scores[bi].reshape(-1).astype(np.longdouble)
            ref = np.exp(flat) / np.exp(flat).sum()
            assert np.allclose(out[bi].reshape(-1), ref.astype(np.float64), atol=1e-12)

    def test_sums_to_one(self):
        rng = np.random.default_rng(13)
        out, _ = spatial_softmax_forward(rng.uniform(-100, 100, (3, 1, 6, 6)))
        assert np.allclose(out.reshape(3, -1).sum(axis=1), 1.0, atol=1e-12)

    @given(st.integers(0, 2**32 - 1), st.floats(-50, 50))
    @settings(max_examples=25, deadline=None)
    def test_shift_invariance(self, seed, shift):
        rng = np.random.default_rng(seed)
        scores = rng.uniform(-10, 10, (1, 1, 4, 4))
        a, _ = spatial_softmax_forward(scores)
        b, _ = spatial_softmax_forward(scores + shift)
        assert np.allclose(a, b, atol=1e-12)

    def test_gradient(self):
        rng = np.random.default_rng(14)
        sp = Parameter(rng.uniform(-1, 1, (2, 1, 3, 3)), "scores")
        proj = rng.standard_normal(sp.shape)

        def loss_fn(compute_grads):
            out, cache = spatial_softmax_forward(sp.value)
            if compute_grads:
                sp.grad += spatial_softmax_backward(cache, proj)
            return float(np.sum(out * proj))

        report = grad_check(loss_fn, [sp])
        assert max(report.values()) < 1e-4


# ---------------------------------------------------------------------------
# ADAM


class TestAdam:
    def test_zero_gradient_no_move(self):
        p = Parameter(np.array([1.0, -2.0]), "p")
        opt = Adam([p], lr=0.1)
        opt.step()
        assert np.array_equal(p.value, [1.0, -2.0])

    def test_first_step_magnitude(self):
        # with bias correction, the first step moves by ~lr regardless of
        # gradient magnitude
        p = Parameter(np.array([0.0]), "p")
        p.grad[...] = 1.0
        opt = Adam([p], lr=0.1)
        opt.step()
        assert np.isclose(p.value[0], -0.1, atol=1e-6)

    def test_gradients_zeroed_after_step(self):
        p = Parameter(np.array([0.0]), "p")
        p.grad[...] = 1.0
        Adam([p], lr=0.1).step()
        assert np.array_equal(p.grad, [0.0])

    def test_quadratic_bowl(self):
        p = Parameter(np.array([1.0]), "w")
        opt = Adam([p], lr=0.05)
        for _ in range(200):
            p.grad[...] = 2.0 * p.value
            opt.step()
        assert abs(p.value[0]) < 0.01

    def test_matches_reference_recurrence(self):
        rng = np.random.default_rng(15)
        p = Parameter(rng.standard_normal(4), "p")
        ref = p.value.copy()
        m = np.zeros(4)
        v = np.zeros(4)
        opt = Adam([p], lr=0.01)
        for t in range(1, 6):
            g = rng.standard_normal(4)
            p.grad[...] = g
            opt.step()
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            mh = m / (1 - 0.9**t)
            vh = v / (1 - 0.999**t)
            ref = ref - 0.01 * mh / (np.sqrt(vh) + 1e-8)
            assert np.allclose(p.value, ref, atol=1e-14)

    def test_chunked_step_is_the_whole_array_step(self):
        """Over parameters longer than a chunk (its last chunk partial) and
        shorter than one, three steps leave values and moments byte-equal to
        whole-array passes of the same ops, zero the gradients and bump each
        version once per step."""
        rng = np.random.default_rng(16)
        params = [Parameter(rng.standard_normal(2 * tensor.ADAM_CHUNK + 123), "long"),
                  Parameter(rng.standard_normal(3), "short")]
        refs = [(p.value.copy(), np.zeros(p.shape), np.zeros(p.shape)) for p in params]
        opt = Adam(params, lr=0.01)
        for t in range(1, 4):
            for p, (x, m, v) in zip(params, refs):
                g = rng.standard_normal(p.shape)
                p.grad[...] = g
                # the whole-array expressions, op for op
                m *= 0.9
                m += (1 - 0.9) * g
                v *= 0.999
                v += (1 - 0.999) * g * g
                step = m / (1 - 0.9**t)
                denom = v / (1 - 0.999**t)
                np.sqrt(denom, out=denom)
                denom += 1e-8
                step *= 0.01
                step /= denom
                x -= step
            opt.step()
            for p, (x, m, v), m_opt, v_opt in zip(params, refs, opt.m, opt.v):
                assert p.value.tobytes() == x.tobytes()
                assert m_opt.tobytes() == m.tobytes() and v_opt.tobytes() == v.tobytes()
                assert not p.grad.any()
                assert p.version == t

    def test_nan_gradient_in_a_later_chunk_names_the_parameter(self):
        p = Parameter(np.zeros(2 * tensor.ADAM_CHUNK + 123), "encoder.w")
        p.grad[tensor.ADAM_CHUNK + 5] = np.nan
        with pytest.raises(NumericError, match="parameter encoder.w after ADAM step"):
            Adam([p]).step()
        assert p.version == 1  # bumped before the first chunk was written

    def test_a_rebound_value_is_the_one_updated(self):
        p = Parameter(np.zeros(tensor.ADAM_CHUNK + 7), "p")
        opt = Adam([p], lr=0.1)
        p.grad[...] = 1.0
        opt.step()
        old = p.value
        p.value = old.copy()
        p.grad[...] = 1.0
        opt.step()
        assert np.all(p.value < old) and np.all(old == old[0]) and -0.11 < old[0] < -0.09

    def test_non_contiguous_value_refused(self):
        # a flat view of it would be a copy, so the step would be lost
        p = Parameter(np.zeros((3, 4)), "p")
        p.value = np.zeros((4, 3)).T
        p.grad[...] = 1.0
        with pytest.raises(ValueError, match="parameter p: .*C-contiguous"):
            Adam([p]).step()


# ---------------------------------------------------------------------------
# grad_check itself / numeric guards


class TestGradCheck:
    def test_linear_map(self):
        p = Parameter(np.array([2.0]), "x")

        def loss_fn(compute_grads):
            if compute_grads:
                p.grad += 3.0
            return float(3.0 * p.value[0])

        report = grad_check(loss_fn, [p])
        assert report["x"] < 1e-10

    def test_detects_wrong_gradient(self):
        p = Parameter(np.array([2.0]), "x")

        def loss_fn(compute_grads):
            if compute_grads:
                p.grad += 5.0  # deliberately wrong
            return float(3.0 * p.value[0])

        report = grad_check(loss_fn, [p])
        assert report["x"] > 0.1


class TestNumericGuards:
    def test_assert_finite_rejects_nan(self):
        with pytest.raises(NumericError):
            assert_finite(np.array([1.0, np.nan]))

    def test_operations_stay_finite_on_large_inputs(self):
        rng = np.random.default_rng(16)
        x = rng.uniform(-1e3, 1e3, (2, 3, 6, 6))
        w = rng.uniform(-1e3, 1e3, (2, 3, 3, 3))
        out, _ = conv2d_forward(x, w, np.zeros(2))
        assert np.all(np.isfinite(out))
        out, _ = spatial_softmax_forward(rng.uniform(-1e3, 1e3, (1, 1, 5, 5)))
        assert np.all(np.isfinite(out))
        assert np.all(np.isfinite(l2_normalize_channels(x[0])))
