"""Dense-array substrate: parameters, the differentiable ops the network needs,
finite-difference checking, and ADAM.

All arrays are float64, row-major. Every op validates its output for NaN/Inf.
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


def relu_forward(x):
    out = np.maximum(x, 0.0)
    return out, (x > 0.0)


def relu_backward(cache, gout):
    return gout * cache


def l2_normalize_channels(x, epsilon=1e-8):
    """Normalize each channel-vector (axis 0 of a C,H,W map or axis 1 of B,C,H,W)."""
    x = np.asarray(x, dtype=np.float64)
    axis = 0 if x.ndim == 3 else 1
    norms = np.sqrt(np.sum(x * x, axis=axis, keepdims=True))
    return x / np.maximum(norms, epsilon)


# ---------------------------------------------------------------------------
# Convolution (cross-correlation, no kernel flip)


def conv2d_forward(x, w, b, padding=0):
    """x: (B,Cin,H,W), w: (Cout,Cin,k,k), b: (Cout,). Valid conv plus optional zero pad."""
    B, cin, H, W = x.shape
    cout, cin_w, k, k2 = w.shape
    if k != k2 or k % 2 == 0:
        raise ShapeError(f"kernel must be square with odd size, got {k}x{k2}")
    if cin != cin_w:
        raise ShapeError(f"input channels {cin} != weight channels {cin_w}")
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    Ho = x.shape[2] - k + 1
    Wo = x.shape[3] - k + 1
    if Ho < 1 or Wo < 1:
        raise ShapeError(f"non-positive conv output size {Ho}x{Wo}")
    cols = sliding_window_view(x, (k, k), axis=(2, 3))  # B,Cin,Ho,Wo,k,k
    out = np.einsum("bchwij,ocij->bohw", cols, w, optimize=True)
    out += b[None, :, None, None]
    assert_finite(out, "conv2d output")
    return out, (x, w, padding, (B, cin, H, W))


def conv2d_backward(cache, gout):
    x_pad, w, padding, in_shape = cache
    cout, cin, k, _ = w.shape
    B, _, Ho, Wo = gout.shape
    cols = sliding_window_view(x_pad, (k, k), axis=(2, 3))
    gw = np.einsum("bchwij,bohw->ocij", cols, gout, optimize=True)
    gb = gout.sum(axis=(0, 2, 3))
    gx_pad = np.zeros_like(x_pad)
    for i in range(k):
        for j in range(k):
            gx_pad[:, :, i : i + Ho, j : j + Wo] += np.einsum(
                "bohw,oc->bchw", gout, w[:, :, i, j], optimize=True
            )
    if padding:
        gx = gx_pad[:, :, padding:-padding, padding:-padding]
    else:
        gx = gx_pad
    return gx, gw, gb


# ---------------------------------------------------------------------------
# Batch normalization


class BatchNorm:
    """Per-channel batch norm over (batch, spatial) for B,C,H,W inputs.

    Eval before any train-mode update is an error: it surfaces pipelines that
    never ran a training step but expect meaningful running statistics.
    """

    def __init__(self, channels, momentum=0.1, eps=1e-5, prefix=""):
        self.gamma = Parameter(np.ones(channels), f"{prefix}.gamma")
        self.beta = Parameter(np.zeros(channels), f"{prefix}.beta")
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)
        self.momentum = momentum
        self.eps = eps
        self.num_updates = 0

    def forward(self, x, mode, update_stats=True):
        if mode == "train":
            mean = x.mean(axis=(0, 2, 3))
            var = x.var(axis=(0, 2, 3))
            if update_stats:
                m = self.momentum
                self.running_mean = (1 - m) * self.running_mean + m * mean
                self.running_var = (1 - m) * self.running_var + m * var
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
        inv_std = 1.0 / np.sqrt(var + self.eps)
        xhat = (x - mean[None, :, None, None]) * inv_std[None, :, None, None]
        out = self.gamma.value[None, :, None, None] * xhat + self.beta.value[None, :, None, None]
        cache = (xhat, inv_std, mode)
        return out, cache

    def backward(self, cache, gout):
        xhat, inv_std, mode = cache
        self.gamma.grad += np.sum(gout * xhat, axis=(0, 2, 3))
        self.beta.grad += np.sum(gout, axis=(0, 2, 3))
        g = gout * self.gamma.value[None, :, None, None]
        if mode == "eval":
            return g * inv_std[None, :, None, None]
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


class Adam:
    """Standard ADAM with bias correction; zeroes gradients after each step."""

    def __init__(self, params, lr=2e-4, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m = [np.zeros_like(p.value) for p in self.params]
        self.v = [np.zeros_like(p.value) for p in self.params]

    def step(self):
        self.step_count += 1
        t = self.step_count
        for i, p in enumerate(self.params):
            g = p.grad
            self.m[i] = self.beta1 * self.m[i] + (1 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1 - self.beta2) * g * g
            m_hat = self.m[i] / (1 - self.beta1**t)
            v_hat = self.v[i] / (1 - self.beta2**t)
            p.value -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
            assert_finite(p.value, f"parameter {p.name} after ADAM step")
            p.zero_grad()

    def state_tensors(self):
        out = []
        for i, p in enumerate(self.params):
            out.append((f"adam_m/{p.name}", self.m[i]))
            out.append((f"adam_v/{p.name}", self.v[i]))
        return out


# ---------------------------------------------------------------------------
# Finite-difference gradient checking


def grad_check(loss_fn, params, step=1e-5, max_entries=24, seed=0, denom_floor=1e-4):
    """Compare analytic gradients to central finite differences.

    loss_fn(compute_grads) must return a scalar loss and, when compute_grads is
    True, leave each parameter's gradient populated. Checks a deterministic
    sample of entries per parameter and reports the max relative error.
    """
    for p in params:
        p.zero_grad()
    loss_fn(True)
    analytic = [p.grad.copy() for p in params]
    rng = np.random.default_rng(seed)
    report = {}
    for p, ga in zip(params, analytic):
        flat = p.value.reshape(-1)
        n = flat.size
        idx = np.arange(n) if n <= max_entries else rng.choice(n, size=max_entries, replace=False)
        worst = 0.0
        for i in idx:
            orig = flat[i]
            flat[i] = orig + step
            lp = loss_fn(False)
            flat[i] = orig - step
            lm = loss_fn(False)
            flat[i] = orig
            fd = (lp - lm) / (2 * step)
            a = ga.reshape(-1)[i]
            err = abs(a - fd) / max(abs(a), abs(fd), denom_floor)
            worst = max(worst, err)
        report[p.name or repr(p)] = worst
    for p in params:
        p.zero_grad()
    return report
