"""Tests for the correlation layer, offset reordering, and the offset-indexed
kernels in both formulations."""


import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oacnet.correlation import (
    MultiplyCounter,
    OacKernelBank,
    correlation_map,
    count_multiplications,
    count_nonzero_offset_entries,
    normalize_correlation,
    oac_backward_direct,
    oac_backward_reordered,
    oac_forward_direct,
    oac_forward_reordered,
    reorder_by_offset,
)
from oacnet.tensor import ShapeError, l2_normalize_channels

from gradcheck import grad_check


def oac_reference(c, bank):
    """Quadruple-loop evaluation of the offset-weighted sum (the defining form)
    on one unbatched (HW, H, W) map."""
    HW, H, W = c.shape
    w = bank.weights.value
    out = np.zeros((bank.N, H, W))
    for n in range(bank.N):
        for i in range(H):
            for j in range(W):
                acc = bank.bias.value[n]
                for k in range(H):
                    for l in range(W):
                        acc += w[n, i - k + H - 1, j - l + W - 1] * c[k * W + l, i, j]
                out[n, i, j] = max(acc, 0.0)
    return out


def random_bank(N, H, W, seed):
    return OacKernelBank(N, H, W, np.random.default_rng(seed))


def zero_bank(N, H, W):
    bank = random_bank(N, H, W, seed=0)
    bank.weights.value[...] = 0.0
    return bank


# ---------------------------------------------------------------------------
# correlation map


class TestCorrelationMap:
    def test_orthonormal_features_give_indicator(self):
        # per-location vectors = distinct standard basis vectors
        H = W = 2
        D = 4
        f = np.zeros((D, H, W))
        for i in range(H):
            for j in range(W):
                f[i * W + j, i, j] = 1.0
        c = correlation_map(f[None], f[None])[0]
        for i in range(H):
            for j in range(W):
                for k in range(H):
                    for l in range(W):
                        expected = 1.0 if (k, l) == (i, j) else 0.0
                        assert c[k * W + l, i, j] == expected

    def test_unit_vector_two_by_two_case(self):
        # a target that equals the source feature everywhere in channel space:
        # correlation vector [1,0,0,0] means target (0,0) matches
        D = 4
        f_trg = np.zeros((D, 2, 2))
        f_trg[0, 0, 0] = 1.0
        f_trg[1, 0, 1] = 1.0
        f_trg[2, 1, 0] = 1.0
        f_trg[3, 1, 1] = 1.0
        f_src = np.zeros((D, 2, 2))
        f_src[0, :, :] = 1.0  # every source location matches target (0,0)
        c = correlation_map(f_src[None], f_trg[None])[0]
        # at source (0,0) the unit correlation sits at channel 0 = zero offset;
        # at source (0,1) the same channel encodes a move left
        assert np.allclose(c[:, 0, 0], [1, 0, 0, 0])
        assert np.allclose(c[:, 0, 1], [1, 0, 0, 0])

    def test_matches_nested_loop_reference(self):
        rng = np.random.default_rng(0)
        f_src = rng.standard_normal((3, 2, 2))
        f_trg = rng.standard_normal((3, 2, 2))
        c = correlation_map(f_src[None], f_trg[None])[0]
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    for l in range(2):
                        ref = float(np.dot(f_src[:, i, j], f_trg[:, k, l]))
                        assert np.isclose(c[k * 2 + l, i, j], ref, atol=1e-14)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            correlation_map(np.zeros((1, 3, 2, 2)), np.zeros((1, 3, 3, 3)))

    def test_normalized_features_bound_correlations(self):
        rng = np.random.default_rng(1)
        f_src = l2_normalize_channels(rng.standard_normal((1, 8, 4, 4)))
        f_trg = l2_normalize_channels(rng.standard_normal((1, 8, 4, 4)))
        c = correlation_map(f_src, f_trg)
        assert np.all(c >= -1.0 - 1e-12)
        assert np.all(c <= 1.0 + 1e-12)


class TestNormalizeCorrelation:
    def test_all_negative_location_becomes_zero(self):
        c = -np.ones((4, 2, 2))
        out = normalize_correlation(c)
        assert np.array_equal(out, np.zeros((4, 2, 2)))

    def test_single_positive_entry_becomes_one(self):
        c = np.full((4, 2, 2), -1.0)
        c[2, 1, 0] = 0.3
        out = normalize_correlation(c)
        assert np.isclose(out[2, 1, 0], 1.0)

    def test_norms_zero_or_one(self):
        rng = np.random.default_rng(2)
        c = rng.standard_normal((9, 3, 3))
        out = normalize_correlation(c)
        norms = np.sqrt(np.sum(out * out, axis=0))
        for v in norms.reshape(-1):
            assert v == 0.0 or abs(v - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# reordering


class TestReorderByOffset:
    def test_channel_count_at_paper_scale(self):
        c = np.zeros((1, 225, 15, 15))
        r = reorder_by_offset(c)
        assert r.shape == (1, 841, 15, 15)

    def test_zero_offset_channel_placement(self):
        # unit correlation with target (0,0) at source (0,0) lands in the
        # zero-offset channel
        H = W = 2
        c = np.zeros((1, 4, 2, 2))
        c[0, 0, 0, 0] = 1.0
        r = reorder_by_offset(c)
        zero_off = (0 + H - 1) * (2 * W - 1) + (0 + W - 1)
        assert r[0, zero_off, 0, 0] == 1.0
        assert np.sum(r) == 1.0

    def test_structural_zeros(self):
        H = W = 3
        c = np.ones((1, 9, 3, 3))
        r = reorder_by_offset(c)[0]
        for s in range(-(H - 1), H):
            for t in range(-(W - 1), W):
                ch = (s + H - 1) * (2 * W - 1) + (t + W - 1)
                for i in range(H):
                    for j in range(W):
                        k, l = i - s, j - t
                        exists = 0 <= k < H and 0 <= l < W
                        assert r[ch, i, j] == (1.0 if exists else 0.0)

    @pytest.mark.parametrize("B,H,W", [(1, 3, 5), (3, 5, 2), (2, 4, 4), (2, 1, 3)])
    def test_matches_loop_reference(self, B, H, W):
        """r[b, o(i-k, j-l), i, j] = c[b, k*W+l, i, j] on random non-square
        maps, the result a view of channels-last memory."""
        c = np.random.default_rng(10 * H + W).standard_normal((B, H * W, H, W))
        ref = np.zeros((B, (2 * H - 1) * (2 * W - 1), H, W))
        for b in range(B):
            for i in range(H):
                for j in range(W):
                    for k in range(H):
                        for l in range(W):
                            o = (i - k + H - 1) * (2 * W - 1) + (j - l + W - 1)
                            ref[b, o, i, j] = c[b, k * W + l, i, j]
        r = reorder_by_offset(c)
        assert np.array_equal(r, ref)
        assert r.transpose(0, 2, 3, 1).flags.c_contiguous


# ---------------------------------------------------------------------------
# OAC kernels


class TestOacForward:
    def test_delta_kernel_reads_self_position(self):
        rng = np.random.default_rng(4)
        H = W = 3
        c = rng.standard_normal((1, H * W, H, W))
        bank = zero_bank(1, H, W)
        bank.weights.value[0, H - 1, W - 1] = 1.0  # w_{0,0}
        h, _ = oac_forward_direct(c, bank)
        for i in range(H):
            for j in range(W):
                assert np.isclose(h[0, 0, i, j], max(c[0, i * W + j, i, j], 0.0), atol=1e-14)

    def test_offset_weight_shared_across_sources(self):
        # w_{0,0} pairs source (0,0) with target (0,0) and source (0,1) with
        # target (0,1): one weight, one offset, every source location
        H = W = 2
        bank = zero_bank(1, H, W)
        bank.weights.value[0, H - 1, W - 1] = 1.0
        c = np.zeros((1, 4, 2, 2))
        c[0, 0, 0, 0] = 0.5  # source (0,0) x target (0,0)
        c[0, 1, 0, 1] = 0.7  # source (0,1) x target (0,1)
        h, _ = oac_forward_direct(c, bank)
        assert np.isclose(h[0, 0, 0, 0], 0.5)
        assert np.isclose(h[0, 0, 0, 1], 0.7)

    def test_matches_quadruple_loop_reference(self):
        rng = np.random.default_rng(5)
        c = rng.standard_normal((1, 9, 3, 3))
        bank = random_bank(2, 3, 3, seed=6)
        bank.bias.value[...] = rng.standard_normal(2)
        h, _ = oac_forward_direct(c, bank)
        assert np.allclose(h[0], oac_reference(c[0], bank), atol=1e-12)

    def test_reordered_matches_reference(self):
        rng = np.random.default_rng(7)
        c = rng.standard_normal((1, 16, 4, 4))
        bank = random_bank(3, 4, 4, seed=8)
        h, _ = oac_forward_reordered(c, bank)
        assert np.allclose(h[0], oac_reference(c[0], bank), atol=1e-12)

    def test_zero_weight_bank_gives_relu_bias(self):
        bank = zero_bank(2, 3, 3)
        bank.bias.value[...] = [0.4, -0.2]
        c = np.random.default_rng(9).standard_normal((1, 9, 3, 3))
        h, _ = oac_forward_reordered(c, bank)
        assert np.allclose(h[0, 0], 0.4)
        assert np.allclose(h[0, 1], 0.0)

    def test_dimension_mismatch_rejected(self):
        bank = zero_bank(1, 3, 3)
        with pytest.raises(ShapeError):
            oac_forward_direct(np.zeros((1, 16, 4, 4)), bank)

    @given(st.integers(0, 2**32 - 1), st.integers(2, 6), st.integers(2, 6),
           st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_equivalence_property(self, seed, H, W, N):
        rng = np.random.default_rng(seed)
        c = rng.standard_normal((1, H * W, H, W))
        bank = random_bank(N, H, W, seed=seed ^ 0xABCD)
        bank.bias.value[...] = rng.standard_normal(N)
        hd, _ = oac_forward_direct(c, bank)
        hr, _ = oac_forward_reordered(c, bank)
        assert np.max(np.abs(hd - hr)) < 1e-10

    def test_translation_equivariance_on_toroidal_features(self):
        # rolling toroidal features rolls the output identically
        rng = np.random.default_rng(10)
        H = W = 4
        f = rng.standard_normal((1, 6, H, W))
        bank = random_bank(2, H, W, seed=11)

        def run(fs, ft):
            h, _ = oac_forward_direct(correlation_map(fs, ft), bank)
            return h

        base = run(f, f)
        for di, dj in [(1, 0), (0, 2), (2, 3)]:
            rolled = np.roll(f, (di, dj), axis=(2, 3))
            out = run(rolled, rolled)
            # wrap-around pairs leave the valid window, so compare the
            # displacement channel of matching interior positions instead of
            # demanding global equality: the zero-offset (self) correlations
            # are preserved under a common roll
            c_base = correlation_map(f, f)[0]
            c_roll = correlation_map(rolled, rolled)[0]
            for i in range(H):
                for j in range(W):
                    ii, jj = (i + di) % H, (j + dj) % W
                    assert np.isclose(
                        c_roll[ii * W + jj, ii, jj], c_base[i * W + j, i, j], atol=1e-12
                    )
            assert out.shape == base.shape


class TestOacBackward:
    def test_zero_upstream_zero_grads(self):
        rng = np.random.default_rng(12)
        c = rng.standard_normal((1, 9, 3, 3))
        bank = random_bank(2, 3, 3, seed=13)
        _, cache = oac_forward_direct(c, bank)
        assert oac_backward_direct(cache, bank, np.zeros((1, 2, 3, 3))) is None
        assert np.array_equal(bank.weights.grad, np.zeros_like(bank.weights.grad))

    def test_single_location_weight_gradient(self):
        # upstream 1 at (n,i,j)=(0,1,1): dL/dw_{s,t} = c_{1-s, 1-t; 1,1}
        H = W = 3
        rng = np.random.default_rng(14)
        c = np.abs(rng.standard_normal((1, 9, 3, 3)))  # positive -> ReLU passes
        bank = zero_bank(1, H, W)
        bank.bias.value[...] = 1.0  # keep pre-activation positive
        _, cache = oac_forward_direct(c, bank)
        g = np.zeros((1, 1, 3, 3))
        g[0, 0, 1, 1] = 1.0
        oac_backward_direct(cache, bank, g)
        for s in range(-2, 3):
            for t in range(-2, 3):
                k, l = 1 - s, 1 - t
                expected = c[0, k * W + l, 1, 1] if 0 <= k < H and 0 <= l < W else 0.0
                assert np.isclose(bank.weights.grad[0, s + 2, t + 2], expected, atol=1e-14)

    @pytest.mark.parametrize("forward,backward", [
        (oac_forward_direct, oac_backward_direct),
        (oac_forward_reordered, oac_backward_reordered),
    ])
    def test_finite_difference(self, forward, backward):
        rng = np.random.default_rng(15)
        c = rng.uniform(-1, 1, (1, 16, 4, 4))
        bank = random_bank(2, 4, 4, seed=16)
        bank.bias.value[...] = rng.uniform(-0.2, 0.2, 2)
        proj = rng.standard_normal((1, 2, 4, 4))

        def loss_fn(compute_grads):
            h, cache = forward(c, bank)
            if compute_grads:
                backward(cache, bank, h * 0 + proj)
            return float(np.sum(h * proj))

        report = grad_check(loss_fn, bank.parameters())
        assert max(report.values()) < 1e-4

    def test_gradient_equivalence_between_paths(self):
        rng = np.random.default_rng(17)
        c = rng.standard_normal((1, 25, 5, 5))
        proj = rng.standard_normal((1, 3, 5, 5))
        grads = []
        for fwd, bwd in [(oac_forward_direct, oac_backward_direct),
                         (oac_forward_reordered, oac_backward_reordered)]:
            bank = random_bank(3, 5, 5, seed=18)
            _, cache = fwd(c, bank)
            bwd(cache, bank, proj)
            grads.append((bank.weights.grad.copy(), bank.bias.grad.copy()))
        assert np.max(np.abs(grads[0][0] - grads[1][0])) < 1e-8
        assert np.max(np.abs(grads[0][1] - grads[1][1])) < 1e-12

    @pytest.mark.parametrize("H,W", [(3, 5), (5, 2), (7, 7)])
    @pytest.mark.parametrize("N", [1, 4])
    def test_batched_non_square_paths_agree(self, H, W, N):
        B = 3
        rng = np.random.default_rng(100 * H + 10 * W + N)
        c = rng.standard_normal((B, H * W, H, W))
        proj = rng.standard_normal((B, N, H, W))
        results = []
        for fwd, bwd in [(oac_forward_direct, oac_backward_direct),
                         (oac_forward_reordered, oac_backward_reordered)]:
            bank = random_bank(N, H, W, seed=21)
            bank.bias.value[...] = np.linspace(-0.3, 0.3, N)
            h, cache = fwd(c, bank)
            bwd(cache, bank, proj)
            results.append((h, bank.weights.grad.copy(), bank.bias.grad.copy()))
        (hd, gwd, gbd), (hr, gwr, gbr) = results
        assert hd.shape == (B, N, H, W)
        assert np.max(np.abs(hd - hr)) <= 1e-10
        assert np.max(np.abs(gwd - gwr)) <= 1e-8
        assert np.max(np.abs(gbd - gbr)) <= 1e-12

        # a second backward accumulates rather than overwrites
        bank = random_bank(N, H, W, seed=21)
        _, cache = oac_forward_direct(c, bank)
        oac_backward_direct(cache, bank, proj)
        once = bank.weights.grad.copy()
        oac_backward_direct(cache, bank, proj)
        assert np.allclose(bank.weights.grad, 2 * once, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("path", ["direct", "reordered"])
    @pytest.mark.parametrize("B", [1, 3])
    def test_parameters_only_backward(self, path, B):
        """Both backward passes stop at the bank's parameters: they return
        None, and their weight and bias gradients match the per-location
        reference's."""
        fwd, bwd = {"direct": (oac_forward_direct, oac_backward_direct),
                    "reordered": (oac_forward_reordered, oac_backward_reordered)}[path]
        rng = np.random.default_rng(30 + B)
        c = rng.standard_normal((B, 35, 5, 7))
        proj = rng.standard_normal((B, 4, 5, 7))
        bank = random_bank(4, 5, 7, seed=31)
        bank.bias.value[...] = rng.standard_normal(4)
        *_, db_ref, dw_ref = direct_per_location(c, bank, proj)
        _, cache = fwd(c, bank)
        assert bwd(cache, bank, proj) is None
        assert np.max(np.abs(bank.weights.grad - dw_ref)) <= 1e-12 * np.max(np.abs(dw_ref))
        assert np.max(np.abs(bank.bias.grad - db_ref)) <= 1e-12 * np.max(np.abs(db_ref))


def direct_per_location(c, bank, g):
    """The direct path as one GEMM per source location on a copied window:
    each location (i, j) copies the weights w[:, i-k+H-1, j-l+W-1] of its
    targets (k, l) into a contiguous (HW, N) matrix and multiplies. Returns
    h, pre, the bias gradient and the weight gradient."""
    B, HW, H, W = c.shape
    N = bank.N
    k, l = np.divmod(np.arange(HW), W)
    C = np.ascontiguousarray(c.reshape(B, HW, HW).transpose(2, 0, 1))
    offsets = [(i - k + H - 1, j - l + W - 1) for i in range(H) for j in range(W)]
    windows = [np.ascontiguousarray(bank.weights.value[:, s, t].T) for s, t in offsets]
    out = np.empty((HW, B, N))
    for ij, window in enumerate(windows):
        np.matmul(C[ij], window, out=out[ij])
    pre = np.ascontiguousarray(out.reshape(H, W, B, N).transpose(2, 3, 0, 1))
    pre += bank.bias.value[None, :, None, None]
    h = np.maximum(pre, 0.0)
    dpre = g * (pre > 0.0)
    D = np.ascontiguousarray(dpre.transpose(2, 3, 0, 1)).reshape(HW, B, N)
    dw = np.zeros((N, 2 * H - 1, 2 * W - 1))
    for ij, (s, t) in enumerate(offsets):
        dw[:, s, t] += (C[ij].T @ D[ij]).T
    return h, pre, dpre.sum(axis=(0, 2, 3)), dw


class TestDirectPathLayout:
    """The direct path reads its weights in place from column strips and sums
    the weight gradient one source row at a time. Against a per-location
    reference that copies each window, the forward and the bias gradient are
    byte-equal (the GEMMs are the same), and the weight gradient, summed in
    another order, agrees to rounding. B=None draws one unbatched pair and
    adds the batch axis at the call site, as a single-pair caller does."""

    @pytest.mark.parametrize("B", [None, 1, 3, 8])
    @pytest.mark.parametrize("H,W", [(15, 15), (3, 5), (5, 2), (1, 1)])
    @pytest.mark.parametrize("N", [1, 4])
    def test_matches_per_location_reference(self, B, H, W, N):
        rng = np.random.default_rng(1000 * H + 100 * W + 10 * N + (B or 0))
        lead = () if B is None else (B,)
        c = rng.standard_normal(lead + (H * W, H, W))
        g = rng.standard_normal(lead + (N, H, W))
        if B is None:
            c, g = c[None], g[None]
        bank = random_bank(N, H, W, seed=40)
        bank.bias.value[...] = rng.standard_normal(N)
        h_ref, pre_ref, db_ref, dw_ref = direct_per_location(c, bank, g)

        h, cache = oac_forward_direct(c, bank)
        assert oac_backward_direct(cache, bank, g) is None
        pre = cache[1]
        for got, ref in ((h, h_ref), (pre, pre_ref)):
            assert got.shape == ref.shape and got.strides == ref.strides
            assert got.tobytes() == ref.tobytes()
        assert bank.bias.grad.tobytes() == db_ref.tobytes()
        dw = bank.weights.grad
        assert np.max(np.abs(dw - dw_ref)) <= 1e-12 * np.max(np.abs(dw_ref))


# ---------------------------------------------------------------------------
# multiplication counting


class TestCountMultiplications:
    def test_minimal_case(self):
        assert count_multiplications(1, 1, 1, "direct") == 1
        assert count_multiplications(1, 1, 1, "reordered") == 1

    def test_paper_scale_values(self):
        assert count_multiplications(15, 15, 128, "direct") == 6_480_000
        assert count_multiplications(15, 15, 128, "reordered") == 24_220_800

    def test_paper_scale_ratio(self):
        d = count_multiplications(15, 15, 128, "direct")
        r = count_multiplications(15, 15, 128, "reordered")
        assert np.isclose(r / d, (435 / 225) ** 2)
        assert np.isclose(r / d, 3.738, atol=5e-4)

    @pytest.mark.parametrize("H,W,N", [(4, 4, 2), (8, 8, 16), (15, 15, 128)])
    def test_instrumented_counts_match_formulas(self, H, W, N):
        rng = np.random.default_rng(19)
        c = rng.standard_normal((1, H * W, H, W))
        bank = random_bank(N, H, W, seed=20)
        counter = MultiplyCounter()
        oac_forward_direct(c, bank, counter=counter)
        assert counter.total == count_multiplications(H, W, N, "direct")
        counter = MultiplyCounter()
        oac_forward_reordered(c, bank, counter=counter)
        assert counter.total == count_multiplications(H, W, N, "reordered")

    def test_nonzero_only_count_equals_direct(self):
        for H, W, N in [(3, 3, 1), (5, 4, 2), (15, 15, 128)]:
            assert count_nonzero_offset_entries(H, W, N) == count_multiplications(H, W, N, "direct")

    def test_bad_path_rejected(self):
        with pytest.raises(ValueError):
            count_multiplications(2, 2, 1, "sparse")
