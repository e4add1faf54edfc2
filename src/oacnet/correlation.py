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

The direct path applies kernel weights by offset during the summation: one GEMM
per source location (i, j) against the (H, W, N) window of the bank flipped and
laid out channels-last, which holds exactly the weights that location's targets
need. The reordered path materializes the offset-indexed volume and runs a
dense 1x1 convolution over it. It deliberately keeps the dense model (including
multiplies by structural zeros) so it can serve as the slow oracle and the
cost-model foil.

Both backward passes take `input_grad`. With True (the default, used by the
equivalence checks and the bench) they also return the gradient for the raw
correlation map. Training passes False: the feature extractor is frozen, so
nothing reads that gradient, and the backward stops at the bank's parameters.
"""

from __future__ import annotations

import functools

import numpy as np

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
    # per sample, (target locations, D) @ (D, source locations)
    trg = f_trg.transpose(0, 2, 3, 1).reshape(B, H * W, D)
    c = (trg @ f_src.reshape(B, D, H * W)).reshape(B, H * W, H, W)
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


@functools.lru_cache(maxsize=None)
def _offset_index_arrays(H, W):
    """Read-only flat indices between one sample's raw map (H*W, H, W) and its
    reordered map laid out channels-last, (H, W, n_off), both row-major:

    * gather[(i*W + j)*n_off + o]: the raw entry that offset o at source
      (i, j) holds; clipped into range where the offset pairs (i, j) with no
      target, which is where valid is False;
    * scatter[raw entry]: the reordered entry holding it (each raw entry has
      exactly one offset)."""
    n_off = (2 * H - 1) * (2 * W - 1)
    s = np.arange(-(H - 1), H)
    t = np.arange(-(W - 1), W)
    S, T = np.meshgrid(s, t, indexing="ij")
    ii = np.arange(H).reshape(H, 1, 1)
    jj = np.arange(W).reshape(1, W, 1)
    k = ii - S.reshape(1, 1, n_off)
    l = jj - T.reshape(1, 1, n_off)
    valid = ((k >= 0) & (k < H) & (l >= 0) & (l < W)).reshape(-1)
    chan = np.clip(k, 0, H - 1) * W + np.clip(l, 0, W - 1)
    gather = (chan * (H * W) + ii * W + jj).reshape(-1)
    scatter = np.empty(H * W * H * W, dtype=np.int64)
    scatter[gather[valid]] = np.flatnonzero(valid)
    for arr in (gather, valid, scatter):
        arr.flags.writeable = False
    return gather, valid, scatter


def reorder_by_offset(c):
    """Re-lay the correlation volume so each channel holds one offset.

    The result is a (B, n_off, H, W) view of channels-last memory."""
    single = c.ndim == 3
    if single:
        c = c[None]
    B, HW, H, W = c.shape
    if HW != H * W:
        raise ShapeError(f"channel count {HW} != H*W = {H * W}")
    gather, valid, _ = _offset_index_arrays(H, W)
    r = np.take(c.reshape(B, -1), gather, axis=1)
    np.copyto(r, 0.0, where=~valid)
    r = r.reshape(B, H, W, -1).transpose(0, 3, 1, 2)
    return r[0] if single else r


def inverse_reorder(r, H, W):
    """Recover the absolute-indexed map from a reordered one.

    Each valid entry moves to one distinct place, so this is also the adjoint
    of reorder_by_offset that carries gradients back into the raw map."""
    single = r.ndim == 3
    if single:
        r = r[None]
    B = r.shape[0]
    _, _, scatter = _offset_index_arrays(H, W)
    c = np.take(r.transpose(0, 2, 3, 1).reshape(B, -1), scatter, axis=1)
    c = c.reshape(B, H * W, H, W)
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


def _window_slices(H, W):
    """Per source location (i, j), row-major: i*W+j and the (H, W) window of
    the bank flipped in both offset axes, (2H-1, 2W-1), whose entry (k, l) is
    the offset (i-k, j-l)."""
    for i in range(H):
        for j in range(W):
            yield i * W + j, (slice(H - 1 - i, 2 * H - 1 - i), slice(W - 1 - j, 2 * W - 1 - j))


def _windows(bank, H, W):
    """Per source location: i*W+j and the weights under its window of the
    flipped bank laid out channels-last, (2H-1, 2W-1, N), as an (HW, N) matrix
    in one reused buffer. Row k*W+l of that matrix is w[:, i-k+H-1, j-l+W-1]:
    the offset index as a slice."""
    fw = np.ascontiguousarray(bank.weights.value[:, ::-1, ::-1].transpose(1, 2, 0))
    buf = np.empty((H, W, bank.N))
    for ij, win in _window_slices(H, W):
        np.copyto(buf, fw[win])
        yield ij, buf.reshape(H * W, bank.N)


def oac_forward_direct(c, bank, counter=None):
    """Offset-aligned weighted sum over all correlations, plus bias and ReLU.

    h[b,n,i,j] = relu(bias_n + sum_{k,l} w[n, i-k, j-l] * c[b, k*W+l, i, j]),
    as one (B, HW) x (HW, N) GEMM per source location (i, j) between that
    location's correlations and the window of the flipped, channels-last bank.
    """
    c, single = _as_batched(c)
    B, HW, H, W = c.shape
    bank.check_dims(H, W)
    C = np.ascontiguousarray(c.reshape(B, HW, HW).transpose(2, 0, 1))  # [ij, b, kl]
    t = np.empty((HW, B, bank.N))
    for ij, window in _windows(bank, H, W):
        np.matmul(C[ij], window, out=t[ij])
    if counter is not None:
        counter.add(B * bank.N * H * W * H * W)
    pre = np.ascontiguousarray(t.reshape(H, W, B, bank.N).transpose(2, 3, 0, 1))
    if bank.use_bias:
        pre += bank.bias.value[None, :, None, None]
    h = np.maximum(pre, 0.0)
    assert_finite(h, "displacement map")
    return (h[0] if single else h), (C, pre)


def oac_backward_direct(cache, bank, grad_h, input_grad=True):
    """Exact gradients of the direct formulation: accumulates into the bank's
    parameters and returns the gradient for the raw map, or None when
    input_grad is False (then no weight window is read)."""
    C, pre = cache
    if grad_h.ndim == 3:
        grad_h = grad_h[None]
    B, N, H, W = grad_h.shape
    dpre = grad_h * (pre > 0.0)
    if bank.use_bias:
        bank.bias.grad += dpre.sum(axis=(0, 2, 3))
    D = np.ascontiguousarray(dpre.transpose(2, 3, 0, 1)).reshape(H * W, B, N)  # [ij, b, n]
    # the weight gradient sums C[ij].T @ D[ij] into each location's window
    dfw = np.zeros((2 * H - 1, 2 * W - 1, N))
    dwin = np.empty((H * W, N))
    for ij, win in _window_slices(H, W):
        np.matmul(C[ij].T, D[ij], out=dwin)
        dfw[win] += dwin.reshape(H, W, N)
    bank.weights.grad += dfw[::-1, ::-1].transpose(2, 0, 1)
    if not input_grad:
        return None
    dC = np.empty_like(C)
    for ij, window in _windows(bank, H, W):
        np.matmul(D[ij], window.T, out=dC[ij])
    return np.ascontiguousarray(dC.transpose(1, 2, 0)).reshape(B, H * W, H, W)


def oac_forward_reordered(c, bank, counter=None):
    """Reorder by offset, then a dense 1x1 convolution with the flattened bank."""
    c, single = _as_batched(c)
    B, HW, H, W = c.shape
    bank.check_dims(H, W)
    r = reorder_by_offset(c)
    # (B*H*W, n_off) @ w_flat.T, the first operand a view of r's memory
    w_flat = bank.weights.value.reshape(bank.N, -1)
    pre = r.transpose(0, 2, 3, 1).reshape(B * H * W, -1) @ w_flat.T
    pre = pre.reshape(B, H, W, bank.N).transpose(0, 3, 1, 2)
    if counter is not None:
        counter.add(B * bank.N * (2 * H - 1) * (2 * W - 1) * H * W)
    if bank.use_bias:
        pre = pre + bank.bias.value[None, :, None, None]
    h = np.maximum(pre, 0.0)
    assert_finite(h, "displacement map")
    cache = (r, pre, (H, W))
    return (h[0] if single else h), cache


def oac_backward_reordered(cache, bank, grad_h, input_grad=True):
    """Exact gradients of the reordered formulation: accumulates into the
    bank's parameters and returns the gradient for the raw map, or None when
    input_grad is False."""
    r, pre, (H, W) = cache
    if grad_h.ndim == 3:
        grad_h = grad_h[None]
    dpre = grad_h * (pre > 0.0)
    if bank.use_bias:
        bank.bias.grad += dpre.sum(axis=(0, 2, 3))
    B, N = dpre.shape[:2]
    d = dpre.transpose(0, 2, 3, 1).reshape(B * H * W, N)
    r_t = r.transpose(1, 0, 2, 3).reshape(-1, B * H * W)
    bank.weights.grad += (r_t @ d).T.reshape(N, 2 * H - 1, 2 * W - 1)
    if not input_grad:
        return None
    dr = d @ bank.weights.value.reshape(N, -1)
    return inverse_reorder(dr.reshape(B, H, W, -1).transpose(0, 3, 1, 2), H, W)


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
