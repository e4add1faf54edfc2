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
  * displacement map: (B, N, H, W), from both paths a view of channels-last
    memory, the layout their GEMMs write: (H, W, B, N) from the direct path,
    (B, H, W, N) from the reordered one. The encoder's conv reads any layout
    and returns its gradient in the map's, so no transposing copy is made.

The map between (source, target) and offset lives in one place,
`_window_slices`: source location (i, j)'s (H, W) window of the offset grid
flipped in both axes, whose entry (k, l) is the offset (i-k, j-l). Both paths
go through it. The direct path applies kernel weights by offset during the
summation: one GEMM per source location against that window of the bank laid
out channels-last, which holds exactly the weights that location's targets
need. No window is copied: the windows of one source column share their
columns, so the forward copies one strip per column and reads each window in
place, and the windows of one source row share their rows, so the weight
gradient takes one GEMM per source row. The reordered path writes each source
location's correlations into the same window of the offset-indexed volume,
then runs a dense 1x1 convolution over it. It deliberately keeps the dense
model (including multiplies by structural zeros) so it can serve as the slow
oracle and the cost-model foil.

Every function takes batched maps, with a leading batch axis B. Both backward
passes stop at the bank's parameters and return None: the feature extractor
is frozen and the correlation layer has no parameters, so nothing reads a
gradient for the correlation map.
"""

from __future__ import annotations

from itertools import islice

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .tensor import Parameter, ShapeError, assert_finite, he_uniform, l2_normalize_channels


class MultiplyCounter:
    """Accumulates the number of scalar multiplications actually issued."""

    def __init__(self):
        self.total = 0

    def add(self, n):
        self.total += int(n)


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
    return count_multiplications(H, W, N, "direct")


def correlation_map(f_src, f_trg):
    """All-pairs dot products: output channel k*W+l at (i,j) is
    <f_src[:,i,j], f_trg[:,k,l]>, both maps (B,D,H,W)."""
    if f_src.shape != f_trg.shape:
        raise ShapeError(f"feature shapes differ: {f_src.shape} vs {f_trg.shape}")
    B, D, H, W = f_src.shape
    # per sample, (target locations, D) @ (D, source locations)
    trg = f_trg.transpose(0, 2, 3, 1).reshape(B, H * W, D)
    c = (trg @ f_src.reshape(B, D, H * W)).reshape(B, H * W, H, W)
    assert_finite(c, "correlation map")
    return c


def normalize_correlation(c):
    """ReLU, then L2-normalize each location's correlation vector (channel axis)."""
    return l2_normalize_channels(np.maximum(c, 0.0))


def _window_slices(H, W):
    """Per source location (i, j), row-major: i*W+j and the (H, W) window of
    an offset grid flipped in both axes, (2H-1, 2W-1), whose entry (k, l) is
    the offset (i-k, j-l)."""
    for i in range(H):
        for j in range(W):
            yield i * W + j, (slice(H - 1 - i, 2 * H - 1 - i), slice(W - 1 - j, 2 * W - 1 - j))


def reorder_by_offset(c):
    """Re-lay the correlation volume so each channel holds one offset.

    Source location (i, j)'s correlations c[:, :, i, j] fill its window of the
    flipped offset grid, the window the direct path reads its weights from;
    offsets with no target stay zero. The result is a (B, n_off, H, W) view of
    channels-last memory."""
    B, HW, H, W = c.shape
    if HW != H * W:
        raise ShapeError(f"channel count {HW} != H*W = {H * W}")
    r = np.zeros((B, HW, 2 * H - 1, 2 * W - 1))
    flipped = r[:, :, ::-1, ::-1]
    c = c.reshape(B, HW, HW)
    for ij, win in _window_slices(H, W):
        flipped[(slice(None), ij) + win] = c[:, :, ij].reshape(B, H, W)
    return r.reshape(B, H, W, -1).transpose(0, 3, 1, 2)


class OacKernelBank:
    """N offset-indexed kernels, He-uniform from rng, plus a per-kernel bias,
    zero-initialized."""

    def __init__(self, N, H, W, rng):
        self.N = N
        self.H = H
        self.W = W
        shape = (N, 2 * H - 1, 2 * W - 1)
        self.weights = Parameter(he_uniform(rng, shape, shape[1] * shape[2]), "oac.weights")
        self.bias = Parameter(np.zeros(N), "oac.bias")

    def parameters(self):
        return [self.weights, self.bias]

    def check_dims(self, H, W):
        if (H, W) != (self.H, self.W):
            raise ShapeError(f"bank built for {self.H}x{self.W}, got {H}x{W}")


def _column_strips(bank, H, W):
    """Per source column j: the slice of ij that picks locations (i, j), and
    an (H, HW, N) view whose entry i is location (i, j)'s window of the
    flipped bank laid out channels-last, (2H-1, 2W-1, N), as an (HW, N)
    matrix: row k*W+l is w[:, i-k+H-1, j-l+W-1]. Column j's windows share
    their columns, so the view reads them in place from one reused
    (2H-1, W, N) strip of those columns: entry i is strip rows
    [H-1-i, 2H-1-i), one contiguous block."""
    N = bank.N
    fw = np.ascontiguousarray(bank.weights.value[:, ::-1, ::-1].transpose(1, 2, 0))
    strip = np.empty((2 * H - 1, W, N))
    row, _, item = strip.strides
    windows = as_strided(strip[H - 1:], (H, H * W, N), (-row, N * item, item))
    # the first W windows are row 0's, one per column
    for j, (_, cols) in islice(_window_slices(H, W), W):
        np.copyto(strip, fw[:, cols])
        yield slice(j, None, W), windows


def _bias_relu(pre, bank):
    """Both paths' epilogue: adds the bias into pre in place, returns relu(pre)."""
    pre += bank.bias.value[None, :, None, None]
    h = np.maximum(pre, 0.0)
    assert_finite(h, "displacement map")
    return h


def oac_forward_direct(c, bank, counter=None):
    """Offset-aligned weighted sum over all correlations, plus bias and ReLU.

    h[b,n,i,j] = relu(bias_n + sum_{k,l} w[n, i-k, j-l] * c[b, k*W+l, i, j]),
    as one (B, HW) x (HW, N) GEMM per source location (i, j) between that
    location's correlations and its window of the flipped, channels-last
    bank. One stacked matmul per source column runs the column's H GEMMs on
    the windows of its strip (`_column_strips`), so no window is copied.
    """
    B, HW, H, W = c.shape
    bank.check_dims(H, W)
    C = np.ascontiguousarray(c.reshape(B, HW, HW).transpose(2, 0, 1))  # [ij, b, kl]
    t = np.empty((HW, B, bank.N))
    for col, windows in _column_strips(bank, H, W):
        np.matmul(C[col], windows, out=t[col])
    if counter is not None:
        counter.add(C.size * bank.N)
    pre = t.reshape(H, W, B, bank.N).transpose(2, 3, 0, 1)
    return _bias_relu(pre, bank), (C, pre)


def oac_backward_direct(cache, bank, grad_h):
    """Exact parameter gradients of the direct formulation, accumulated into
    the bank; returns None.

    The weight gradient sums C[ij].T @ D[ij] into each location's window.
    Source row i's W windows share their H rows of the flipped grid, so one
    GEMM per source row does it: each location's correlations fill its
    window's columns of a zeroed (W*B, H*(2W-1)) skew buffer, whose transpose
    times row i's (W*B, N) output gradients is those rows' gradient. That is
    H GEMMs with inner dimension W*B, not HW with inner dimension B, at
    (2W-1)/W times the multiplies for the structural zeros.
    """
    C, pre = cache
    dpre = grad_h * (pre > 0.0)  # the epilogue's backward
    B, N, H, W = dpre.shape
    # numpy reduces in memory order, so the bias gradient sums a (B, N, H, W)
    # copy of the channels-last dpre, to round as it always has. The copy goes
    # a row at a time, each row's source one contiguous block: about 3x faster
    # than one transposing pass at paper scale
    dpre_c = np.empty(dpre.shape)
    for i in range(H):
        dpre_c[:, :, i] = dpre[:, :, i]
    bank.bias.grad += dpre_c.sum(axis=(0, 2, 3))
    # [ij, b, n]: a view of dpre when grad_h is channels-last, as the encoder returns it
    D = np.ascontiguousarray(dpre.transpose(2, 3, 0, 1)).reshape(H * W, B, N)
    dfw = np.zeros((2 * H - 1, 2 * W - 1, N))
    skew = np.zeros((W, B, H, 2 * W - 1))
    dfw_rows = np.empty((H * (2 * W - 1), N))
    for ij, (rows, cols) in _window_slices(H, W):
        j = ij % W
        skew[j, :, :, cols] = C[ij].reshape(B, H, W)
        if j == W - 1:
            D_row = D[ij + 1 - W:ij + 1].reshape(W * B, N)
            np.matmul(skew.reshape(W * B, -1).T, D_row, out=dfw_rows)
            dfw[rows] += dfw_rows.reshape(H, 2 * W - 1, N)
    bank.weights.grad += dfw[::-1, ::-1].transpose(2, 0, 1)


def oac_forward_reordered(c, bank, counter=None):
    """Reorder by offset, then a dense 1x1 convolution with the flattened bank."""
    B, HW, H, W = c.shape
    bank.check_dims(H, W)
    r = reorder_by_offset(c)
    # (B*H*W, n_off) @ w_flat.T, the first operand a view of r's memory
    w_flat = bank.weights.value.reshape(bank.N, -1)
    rows = r.transpose(0, 2, 3, 1).reshape(B * H * W, -1)
    pre = (rows @ w_flat.T).reshape(B, H, W, bank.N).transpose(0, 3, 1, 2)
    if counter is not None:
        counter.add(rows.size * bank.N)
    return _bias_relu(pre, bank), (r, pre)


def oac_backward_reordered(cache, bank, grad_h):
    """Exact parameter gradients of the reordered formulation, accumulated
    into the bank; returns None."""
    r, pre = cache
    dpre = grad_h * (pre > 0.0)  # the epilogue's backward
    bank.bias.grad += dpre.sum(axis=(0, 2, 3))
    B, N, H, W = dpre.shape
    d = dpre.transpose(0, 2, 3, 1).reshape(B * H * W, N)
    r_t = r.transpose(1, 0, 2, 3).reshape(-1, B * H * W)
    bank.weights.grad += (r_t @ d).T.reshape(N, 2 * H - 1, 2 * W - 1)
