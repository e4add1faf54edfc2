"""Dense-array substrate: parameters, the differentiable ops the network needs,
and ADAM.

All arrays are float64, row-major. Every op validates its output for NaN/Inf.
Contractions are written as the matmul, operand order and memory layouts
included, that numpy's einsum(..., optimize=True) calls for them: results are
bit-equal to that formulation, without its path planning on every call.
Forward functions return (output, cache); the matching backward consumes the
cache and returns input gradients. Only this fixed set of ops is differentiable.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class ShapeError(Exception):
    pass


class NumericError(Exception):
    pass


def assert_finite(arr, what="tensor"):
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"{what} contains NaN/Inf")
    return arr


class Parameter:
    """A trainable value with a same-shape gradient accumulator."""

    def __init__(self, value, name=""):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)
        self.name = name

    @property
    def shape(self):
        return self.value.shape

    def zero_grad(self):
        self.grad[...] = 0.0

    def __repr__(self):
        return f"Parameter({self.name or 'unnamed'}, shape={self.value.shape})"


# ---------------------------------------------------------------------------
# Initialization (paper gives none; see module docs)


def he_uniform(rng, shape, fan_in):
    limit = np.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, size=shape)


# ---------------------------------------------------------------------------
# Elementwise

L2_NORM_FLOOR = 1e-8


def relu_forward(x):
    out = np.maximum(x, 0.0)
    return out, (x > 0.0)


def relu_backward(cache, gout):
    return gout * cache


def l2_normalize_channels(x):
    """Normalize each channel-vector (axis -3: C of a C,H,W or B,C,H,W map)."""
    x = np.asarray(x, dtype=np.float64)
    norms = np.sqrt(np.sum(x * x, axis=-3, keepdims=True))
    return x / np.maximum(norms, L2_NORM_FLOOR)


# ---------------------------------------------------------------------------
# Convolution (cross-correlation, no kernel flip)


def conv2d_forward(x, w, b):
    """x: (B,Cin,H,W), w: (Cout,Cin,k,k), b: (Cout,). Valid conv."""
    B, cin, H, W = x.shape
    cout, cin_w, k, k2 = w.shape
    if k != k2 or k % 2 == 0:
        raise ShapeError(f"kernel must be square with odd size, got {k}x{k2}")
    if cin != cin_w:
        raise ShapeError(f"input channels {cin} != weight channels {cin_w}")
    Ho = H - k + 1
    Wo = W - k + 1
    if Ho < 1 or Wo < 1:
        raise ShapeError(f"non-positive conv output size {Ho}x{Wo}")
    cols = sliding_window_view(x, (k, k), axis=(2, 3))  # B,Cin,Ho,Wo,k,k
    # (Cout, Cin*k*k) @ (Cin*k*k, B*Ho*Wo)
    cols = cols.transpose(1, 4, 5, 0, 2, 3).reshape(cin * k * k, B * Ho * Wo)
    out = (w.reshape(cout, -1) @ cols).reshape(cout, B, Ho, Wo).transpose(1, 0, 2, 3)
    out += b[None, :, None, None]
    assert_finite(out, "conv2d output")
    # a k x k conv keeps its im2col matrix for the weight gradient; a 1x1
    # conv's is a transposed copy of x, cheaper to rebuild than to hold
    return out, (x, w, cols if k > 1 else None)


def conv2d_backward(cache, gout):
    x, w, cols = cache
    cout, cin, k, _ = w.shape
    B, _, Ho, Wo = gout.shape
    g = gout.transpose(1, 0, 2, 3).reshape(cout, B * Ho * Wo)
    if cols is None:
        # the 1x1 im2col as channels-last x: given a transposed view of cols,
        # the small 1x1 GEMMs and the single-output GEMV round differently
        x_cols = x.transpose(0, 2, 3, 1).reshape(B * Ho * Wo, cin)
    else:
        x_cols = cols.T
    gw = (g @ x_cols).reshape(w.shape)
    gb = gout.sum(axis=(0, 2, 3))
    # per tap (i, j), in order: w[:, :, i, j].T @ g into one reused buffer, with
    # g's columns ordered (Ho, Wo, B), added into the shifted window of an
    # accumulator laid out (Cin, H, W, B), so that each add runs over Wo*B
    # contiguous values
    g_hwb = np.ascontiguousarray(gout.transpose(1, 2, 3, 0)).reshape(cout, Ho * Wo * B)
    w_taps = np.ascontiguousarray(w.transpose(2, 3, 1, 0))  # k, k, Cin, Cout
    acc = np.zeros((cin,) + x.shape[2:] + (B,))
    tap = np.empty((cin, Ho * Wo * B))
    tap_chwb = tap.reshape(cin, Ho, Wo, B)
    for i in range(k):
        for j in range(k):
            np.matmul(w_taps[i, j], g_hwb, out=tap)
            acc[:, i : i + Ho, j : j + Wo] += tap_chwb
    gx = np.empty_like(x)  # x's memory layout, which later reductions follow
    gx[...] = acc.transpose(3, 0, 1, 2)
    return gx, gw, gb


# ---------------------------------------------------------------------------
# Batch normalization

BN_MOMENTUM = 0.1
BN_EPS = 1e-5


class BatchNorm:
    """Per-channel batch norm over (batch, spatial) for B,C,H,W inputs.

    A train-mode forward also updates the running statistics. Eval before any
    train-mode update is an error: it surfaces pipelines that never ran a
    training step but expect meaningful running statistics.
    """

    def __init__(self, channels, prefix=""):
        self.gamma = Parameter(np.ones(channels), f"{prefix}.gamma")
        self.beta = Parameter(np.zeros(channels), f"{prefix}.beta")
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)
        self.num_updates = 0

    def forward(self, x, mode):
        if mode == "train":
            mean = x.mean(axis=(0, 2, 3))
            var = x.var(axis=(0, 2, 3))
            self.running_mean = (1 - BN_MOMENTUM) * self.running_mean + BN_MOMENTUM * mean
            self.running_var = (1 - BN_MOMENTUM) * self.running_var + BN_MOMENTUM * var
            self.num_updates += 1
        elif mode == "eval":
            if self.num_updates == 0:
                raise NumericError(
                    f"batch norm {self.gamma.name}: eval requested before any training update"
                )
            mean = self.running_mean
            var = self.running_var
        else:
            raise ValueError(f"unknown mode {mode!r}")
        inv_std = 1.0 / np.sqrt(var + BN_EPS)
        xhat = (x - mean[None, :, None, None]) * inv_std[None, :, None, None]
        out = self.gamma.value[None, :, None, None] * xhat + self.beta.value[None, :, None, None]
        return out, (xhat, inv_std)

    def backward(self, cache, gout):
        """Gradient through a train-mode forward (batch statistics)."""
        xhat, inv_std = cache
        self.gamma.grad += np.sum(gout * xhat, axis=(0, 2, 3))
        self.beta.grad += np.sum(gout, axis=(0, 2, 3))
        g = gout * self.gamma.value[None, :, None, None]
        n = xhat.shape[0] * xhat.shape[2] * xhat.shape[3]
        sum_g = np.sum(g, axis=(0, 2, 3))[None, :, None, None]
        sum_gx = np.sum(g * xhat, axis=(0, 2, 3))[None, :, None, None]
        gx = (inv_std[None, :, None, None] / n) * (n * g - sum_g - xhat * sum_gx)
        return gx

    def parameters(self):
        return [self.gamma, self.beta]


# ---------------------------------------------------------------------------
# Spatial softmax


def spatial_softmax_forward(scores):
    """Softmax over all spatial entries of a (B,1,H,W) map; max-subtracted."""
    B = scores.shape[0]
    flat = scores.reshape(B, -1)
    shifted = flat - flat.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    probs = e / e.sum(axis=1, keepdims=True)
    out = probs.reshape(scores.shape)
    return out, out


def spatial_softmax_backward(cache, gout):
    a = cache
    B = a.shape[0]
    af = a.reshape(B, -1)
    gf = gout.reshape(B, -1)
    inner = np.sum(gf * af, axis=1, keepdims=True)
    return (af * (gf - inner)).reshape(a.shape)


# ---------------------------------------------------------------------------
# ADAM

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class Adam:
    """Standard ADAM with bias correction; zeroes gradients after each step."""

    def __init__(self, params, lr=2e-4):
        self.params = list(params)
        self.lr = lr
        self.step_count = 0
        self.m = [np.zeros_like(p.value) for p in self.params]
        self.v = [np.zeros_like(p.value) for p in self.params]

    def step(self):
        self.step_count += 1
        t = self.step_count
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            # m = b1*m + (1-b1)*g; v = b2*v + (1-b2)*g*g; in place, same rounding
            m *= ADAM_BETA1
            m += (1 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1 - ADAM_BETA2) * g * g
            step = m / (1 - ADAM_BETA1**t)
            denom = v / (1 - ADAM_BETA2**t)
            np.sqrt(denom, out=denom)
            denom += ADAM_EPS
            step *= self.lr
            step /= denom
            p.value -= step
            assert_finite(p.value, f"parameter {p.name} after ADAM step")
            p.zero_grad()
