"""Dense correlation layer, offset reordering, and offset-aware correlation
kernels in two mathematically equivalent formulations.

Layout conventions:
  * correlation map: (B, H*W, H, W); channel k*W + l holds correlations with
    the target location (k, l).
  * reordered map: (B, (2H-1)*(2W-1), H, W); offset (s, t) = (i-k, j-l) lives
    at channel (s + H - 1) * (2W - 1) + (t + W - 1). Offsets that pair a source
    location with a nonexistent target are exactly zero.
  * kernel bank weights: (N, 2H-1, 2W-1) with w[n, s + H - 1, t + W - 1]
    multiplying every correlation whose source-minus-target offset is (s, t).

The direct path applies kernel weights by offset during the summation; the
reordered path materializes the offset-indexed volume and runs a dense 1x1
convolution over it. The reordered path deliberately keeps the dense model
(including multiplies by structural zeros) so it can serve as the slow oracle
and the cost-model foil.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .tensor import Parameter, ShapeError, assert_finite, he_uniform


class MultiplyCounter:
    """Accumulates the number of scalar multiplications actually issued."""

    def __init__(self):
        self.total = 0

    def add(self, n):
        self.total += int(n)

    def reset(self):
        self.total = 0


def count_multiplications(H, W, N, path):
    """Closed-form multiply counts for one correlation map."""
    if H < 1 or W < 1 or N < 1:
        raise ValueError("dimensions must be positive")
    if path == "direct":
        return N * H * H * W * W
    if path == "reordered":
        return N * (2 * H * H - H) * (2 * W * W - W)
    raise ValueError(f"unknown path {path!r}")


def count_nonzero_offset_entries(H, W, N):
    """Multiplies touching structurally nonzero reordered entries; equals the
    direct count since sum_s (H-|s|) = H^2."""
    return N * H * H * W * W


def correlation_map(f_src, f_trg):
    """All-pairs dot products: output channel k*W+l at (i,j) is
    <f_src[:,i,j], f_trg[:,k,l]>. Accepts (D,H,W) or (B,D,H,W)."""
    single = f_src.ndim == 3
    if single:
        f_src = f_src[None]
        f_trg = f_trg[None]
    if f_src.shape != f_trg.shape:
        raise ShapeError(f"feature shapes differ: {f_src.shape} vs {f_trg.shape}")
    B, D, H, W = f_src.shape
    c = np.einsum("bdij,bdkl->bklij", f_src, f_trg, optimize=True)
    c = c.reshape(B, H * W, H, W)
    assert_finite(c, "correlation map")
    return c[0] if single else c


def normalize_correlation(c, epsilon=1e-8):
    """ReLU, then L2-normalize each location's correlation vector (channel axis)."""
    single = c.ndim == 3
    if single:
        c = c[None]
    c = np.maximum(c, 0.0)
    norms = np.sqrt(np.sum(c * c, axis=1, keepdims=True))
    out = c / np.maximum(norms, epsilon)
    return out[0] if single else out


def _offset_index_arrays(H, W):
    n_off = (2 * H - 1) * (2 * W - 1)
    s = np.arange(-(H - 1), H)
    t = np.arange(-(W - 1), W)
    S, T = np.meshgrid(s, t, indexing="ij")
    S = S.reshape(n_off, 1, 1)
    T = T.reshape(n_off, 1, 1)
    ii = np.arange(H).reshape(1, H, 1)
    jj = np.arange(W).reshape(1, 1, W)
    k = ii - S
    l = jj - T
    valid = (k >= 0) & (k < H) & (l >= 0) & (l < W)
    chan = np.clip(k, 0, H - 1) * W + np.clip(l, 0, W - 1)
    return chan, valid


def reorder_by_offset(c):
    """Re-lay the correlation volume so each channel holds one offset."""
    single = c.ndim == 3
    if single:
        c = c[None]
    B, HW, H, W = c.shape
    if HW != H * W:
        raise ShapeError(f"channel count {HW} != H*W = {H * W}")
    chan, valid = _offset_index_arrays(H, W)
    ii = np.broadcast_to(np.arange(H).reshape(1, H, 1), chan.shape)
    jj = np.broadcast_to(np.arange(W).reshape(1, 1, W), chan.shape)
    r = np.where(valid[None], c[:, chan, ii, jj], 0.0)
    return r[0] if single else r


def inverse_reorder(r, H, W):
    """Recover the absolute-indexed map from a reordered one.

    Each valid entry moves to one distinct place, so this is also the adjoint
    of reorder_by_offset that carries gradients back into the raw map."""
    single = r.ndim == 3
    if single:
        r = r[None]
    B = r.shape[0]
    chan, valid = _offset_index_arrays(H, W)
    c = np.zeros((B, H * W, H, W))
    off_idx, i_idx, j_idx = np.nonzero(valid)
    c[:, chan[off_idx, i_idx, j_idx], i_idx, j_idx] = r[:, off_idx, i_idx, j_idx]
    return c[0] if single else c


class OacKernelBank:
    """N offset-indexed kernels plus an optional per-kernel bias."""

    def __init__(self, N, H, W, rng=None, use_bias=True, prefix="oac"):
        self.N = N
        self.H = H
        self.W = W
        self.use_bias = use_bias
        shape = (N, 2 * H - 1, 2 * W - 1)
        fan_in = shape[1] * shape[2]
        if rng is None:
            weights = np.zeros(shape)
        else:
            weights = he_uniform(rng, shape, fan_in)
        self.weights = Parameter(weights, f"{prefix}.weights")
        self.bias = Parameter(np.zeros(N), f"{prefix}.bias")

    def parameters(self):
        return [self.weights, self.bias] if self.use_bias else [self.weights]

    def check_dims(self, H, W):
        if (H, W) != (self.H, self.W):
            raise ShapeError(f"bank built for {self.H}x{self.W}, got {H}x{W}")


def _as_batched(c):
    return (c[None], True) if c.ndim == 3 else (c, False)


def oac_forward_direct(c, bank, counter=None):
    """Offset-aligned weighted sum over all correlations, plus bias and ReLU.

    h[b,n,i,j] = relu(bias_n + sum_{k,l} w[n, i-k, j-l] * c[b, k*W+l, i, j]).
    """
    c, single = _as_batched(c)
    B, HW, H, W = c.shape
    bank.check_dims(H, W)
    w = bank.weights.value
    c4 = c.reshape(B, H, W, H, W)  # [b, k, l, i, j]
    fw = w[:, ::-1, ::-1]
    win = sliding_window_view(fw, (H, W), axis=(1, 2))  # win[n,a,b,k,l] = fw[n,a+k,b+l]
    cf = c4[:, :, :, ::-1, ::-1]  # cf[z,k,l,a,b] = c4[z,k,l,H-1-a,W-1-b]
    t = np.einsum("nabkl,zklab->znab", win, cf, optimize=True)
    if counter is not None:
        counter.add(B * bank.N * H * W * H * W)
    pre = t[:, :, ::-1, ::-1]
    if bank.use_bias:
        pre = pre + bank.bias.value[None, :, None, None]
    h = np.maximum(pre, 0.0)
    assert_finite(h, "displacement map")
    cache = (c4, pre, win)
    return (h[0] if single else h), cache


def oac_backward_direct(cache, bank, grad_h):
    """Exact gradients of the direct formulation; returns grad for the raw map
    and accumulates into the bank's parameters."""
    c4, pre, win = cache
    if grad_h.ndim == 3:
        grad_h = grad_h[None]
    B, N, H, W = grad_h.shape
    dpre = grad_h * (pre > 0.0)
    if bank.use_bias:
        bank.bias.grad += dpre.sum(axis=(0, 2, 3))
    dpre_f = dpre[:, :, ::-1, ::-1]
    cf = c4[:, :, :, ::-1, ::-1]
    # weight gradient: accumulate each window contribution back into offset space
    dwin = np.einsum("znab,zklab->nabkl", dpre_f, cf, optimize=True)
    dfw = np.zeros_like(bank.weights.value)
    for a in range(H):
        for b in range(W):
            dfw[:, a : a + H, b : b + W] += dwin[:, a, b]
    bank.weights.grad += dfw[:, ::-1, ::-1]
    # input gradient
    dcf = np.einsum("nabkl,znab->zklab", win, dpre_f, optimize=True)
    dc4 = dcf[:, :, :, ::-1, ::-1]
    return dc4.reshape(B, H * W, H, W)


def oac_forward_reordered(c, bank, counter=None):
    """Reorder by offset, then a dense 1x1 convolution with the flattened bank."""
    c, single = _as_batched(c)
    B, HW, H, W = c.shape
    bank.check_dims(H, W)
    r = reorder_by_offset(c)
    w_flat = bank.weights.value.reshape(bank.N, -1)
    pre = np.einsum("nc,bcij->bnij", w_flat, r, optimize=True)
    if counter is not None:
        counter.add(B * bank.N * (2 * H - 1) * (2 * W - 1) * H * W)
    if bank.use_bias:
        pre = pre + bank.bias.value[None, :, None, None]
    h = np.maximum(pre, 0.0)
    assert_finite(h, "displacement map")
    cache = (r, pre, (H, W))
    return (h[0] if single else h), cache


def oac_backward_reordered(cache, bank, grad_h):
    r, pre, (H, W) = cache
    if grad_h.ndim == 3:
        grad_h = grad_h[None]
    dpre = grad_h * (pre > 0.0)
    if bank.use_bias:
        bank.bias.grad += dpre.sum(axis=(0, 2, 3))
    n_off = (2 * H - 1) * (2 * W - 1)
    bank.weights.grad += np.einsum("bnij,bcij->nc", dpre, r, optimize=True).reshape(
        bank.N, 2 * H - 1, 2 * W - 1
    )
    w_flat = bank.weights.value.reshape(bank.N, n_off)
    dr = np.einsum("nc,bnij->bcij", w_flat, dpre, optimize=True)
    return inverse_reorder(dr, H, W)


def dump_kernel_sheets(bank, out_dir, prefix="kernel"):
    """Write each kernel's offset-weight sheet as a P5 graymap (min-max scaled)."""
    import os

    from .storage import save_image

    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for n in range(bank.N):
        sheet = bank.weights.value[n]
        lo, hi = sheet.min(), sheet.max()
        scaled = (sheet - lo) / (hi - lo) if hi > lo else np.full_like(sheet, 0.5)
        path = os.path.join(out_dir, f"{prefix}_{n:03d}.pgm")
        save_image(path, scaled[None])
        paths.append(path)
    return paths
