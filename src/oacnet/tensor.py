"""Dense-array substrate: parameters, the differentiable ops the network needs,
and ADAM.

All arrays are float64, row-major. Every op validates its output for NaN/Inf.
Contractions are written as the matmul, operand order and memory layouts
included, that numpy's einsum(..., optimize=True) calls for them: results are
bit-equal to that formulation, without its path planning on every call. The
one exception is a k x k conv (k > 1), which runs Winograd F(3x3, kxk) (see the
convolution section) and rounds differently, up to about 1e-13 relative. An eval-mode
network.ConvBNReLU keeps the kernel transform its Winograd computed for later eval
forwards, which saves time and changes no bit; train holds none.
Forward functions return (output, cache); the matching backward consumes the
cache and returns input gradients. Only this fixed set of ops is differentiable.
"""

from __future__ import annotations

import functools
from fractions import Fraction

import numpy as np
from numpy.lib.stride_tricks import as_strided


class ShapeError(Exception):
    pass


class NumericError(Exception):
    pass


def assert_finite(arr, what="tensor"):
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"{what} contains NaN/Inf")
    return arr


class Parameter:
    """A trainable value with a same-shape gradient accumulator. `version` counts
    in-place writes of `value`, so what is derived from it can tell it is stale:
    Adam.step, the library's one in-place writer, bumps it, as must any other."""

    def __init__(self, value, name=""):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)
        self.name = name
        self.version = 0

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
#
# The kernel size picks the algorithm. A 1x1 conv is one (Cout, Cin) @ (Cin, B*H*W)
# GEMM. A k x k conv (k = 3, 5, 7) runs Winograd minimal filtering F(3x3, kxk) (Lavin
# & Gray, "Fast Algorithms for Convolutional Neural Networks", arXiv:1509.09308),
# which gets each 3x3 output tile from its (k+2)x(k+2) input tile through fixed
# linear transforms of the tile, the kernel and their elementwise product. A caller
# that holds the kernel transform U passes it, and the arithmetic is the same.

WINOGRAD_TILE = 3  # output tile side m of F(m x m, k x k)
# Toom-Cook points, taken in this order: the first k + 2 serve a k x k kernel
WINOGRAD_POINTS = (0, 1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2), 3, -3)
MAX_KERNEL = len(WINOGRAD_POINTS) - WINOGRAD_TILE + 1


@functools.cache
def _winograd_transforms(k):
    """(Bt (x) Bt, G (x) G, At (x) At) of F(3x3, kxk) in float64, built exactly.

    A 1-D correlation y[i] = sum_j d[i + j] g[j] is the transpose of multiplying
    g's polynomial by one of degree m - 1, which evaluating both at alpha = k + m - 1
    points and interpolating computes. So y = At @ ((G @ g) * (Bt @ d)), where
    G[i, j] = p_i^j (j < k), At[j, i] = p_i^j (j < m), and row i of Bt holds the
    coefficients of point i's Lagrange polynomial. In 2-D a tile d and kernel g
    become Bt d Bt^T and G g G^T, whose row-major vectorization is one
    product with a Kronecker matrix.
    """
    m = WINOGRAD_TILE
    points = [Fraction(p) for p in WINOGRAD_POINTS[: k + m - 1]]
    bt = []
    for i, p in enumerate(points):
        coeffs = [Fraction(1)]  # lowest power first
        for q in points[:i] + points[i + 1 :]:
            # times (x - q) / (p - q): x shifts each coefficient up one power
            coeffs = [(up - q * c) / (p - q) for up, c in zip([0] + coeffs, coeffs + [0])]
        bt.append(coeffs)
    g = [[p**j for j in range(k)] for p in points]
    at = [[p**j for p in points] for j in range(m)]
    mats = tuple(np.kron(np.array(t, dtype=object), np.array(t, dtype=object)).astype(np.float64)
                 for t in (bt, g, at))
    for mat in mats:
        mat.flags.writeable = False  # every call shares them
    return mats


def conv2d_forward(x, w, b, U=None):
    """x: (B,Cin,H,W), w: (Cout,Cin,k,k), b: (Cout,). Valid conv: one channel GEMM
    for k = 1, Winograd F(3x3, kxk) for k = 3, 5, 7. U, if given, is the caller's
    winograd_kernel(w) (an eval ConvBNReLU's; train holds none), which Winograd uses
    instead of computing its own, to the same bytes. The cache is the GEMM's (x, w)
    or Winograd's (x, w, U, V); conv2d_backward dispatches on its length."""
    B, cin, H, W = x.shape
    cout, cin_w, k, k2 = w.shape
    if k != k2 or k % 2 == 0 or k > MAX_KERNEL:
        raise ShapeError(f"kernel must be square with an odd side of at most {MAX_KERNEL}, "
                         f"got {k}x{k2}")
    if cin != cin_w:
        raise ShapeError(f"input channels {cin} != weight channels {cin_w}")
    Ho = H - k + 1
    Wo = W - k + 1
    if Ho < 1 or Wo < 1:
        raise ShapeError(f"non-positive conv output size {Ho}x{Wo}")
    if k > 1:
        return winograd_conv2d_forward(x, w, b, U)
    cols = x.transpose(1, 0, 2, 3).reshape(cin, B * H * W)
    out = (w.reshape(cout, cin) @ cols).reshape(cout, B, H, W).transpose(1, 0, 2, 3)
    out += b[None, :, None, None]
    assert_finite(out, "conv2d output")
    return out, (x, w)


def winograd_kernel(w):
    """The kernel transform U = (G (x) G) w of F(3x3, kxk), (a*a, Cout, Cin)."""
    cout, cin, k, _ = w.shape
    return (_winograd_transforms(k)[1] @ w.reshape(cout * cin, k * k).T).reshape(-1, cout, cin)


def winograd_conv2d_forward(x, w, b, U=None):
    """conv2d_forward by Winograd F(3x3, kxk), for shapes conv2d_forward checked.

    Tiles are indexed (B, tile row, tile column). Each stage is one GEMM:
    V = (Bt (x) Bt) tiles and U = (G (x) G) w (winograd_kernel, unless given),
    then M = U @ V as one (Cout, Cin) @ (Cin, tiles) product per tile entry, and
    Y = (At (x) At) M. The cache keeps U and V; an output side that is not a
    multiple of 3 is computed on a zero-padded input and cropped.
    """
    B, cin, H, W = x.shape
    cout, _, k, _ = w.shape
    Ho, Wo = H - k + 1, W - k + 1
    m = WINOGRAD_TILE
    a = k + m - 1
    th, tw = -(-Ho // m), -(-Wo // m)
    BB, _, AA = _winograd_transforms(k)
    xp = x
    if (m * th, m * tw) != (Ho, Wo):
        xp = np.pad(x, ((0, 0), (0, 0), (0, m * th - Ho), (0, m * tw - Wo)))
    sb, sc, sh, sw = xp.strides
    tiles = as_strided(xp, (a, a, cin, B, th, tw), (sh, sw, sc, sb, m * sh, m * sw),
                       writeable=False)
    V = (BB @ tiles.reshape(a * a, -1)).reshape(a * a, cin, -1)
    U = winograd_kernel(w) if U is None else U
    Y = AA @ (U @ V).reshape(a * a, -1)
    # (m, m, Cout, B, th, tw) -> (Cout, B, m*th, m*tw): the 1x1 GEMM's memory layout
    full = Y.reshape(m, m, cout, B, th, tw).transpose(2, 3, 4, 0, 5, 1)
    full = full.reshape(cout, B, m * th, m * tw)
    out = full[:, :, :Ho, :Wo].transpose(1, 0, 2, 3)
    out += b[None, :, None, None]
    assert_finite(out, "conv2d output")
    return out, (x, w, U, V)


def _winograd_conv2d_backward(cache, gout):
    """The adjoint of winograd_conv2d_forward's four products: dM = (At (x) At)^T dY,
    then dU = dM V^T and dV = U^T dM, then gw = dU read through G (x) G and
    gx = (Bt (x) Bt)^T dV scatter-added over the overlapping tiles."""
    x, w, U, V = cache
    cout, cin, k, _ = w.shape
    B, _, Ho, Wo = gout.shape
    H, W = x.shape[2:]
    m = WINOGRAD_TILE
    a = k + m - 1
    th, tw = -(-Ho // m), -(-Wo // m)
    BB, GG, AA = _winograd_transforms(k)
    gb = gout.sum(axis=(0, 2, 3))
    if (m * th, m * tw) != (Ho, Wo):
        gout = np.pad(gout, ((0, 0), (0, 0), (0, m * th - Ho), (0, m * tw - Wo)))
    dY = gout.reshape(B, cout, th, m, tw, m).transpose(3, 5, 1, 0, 2, 4)
    dM = (AA.T @ dY.reshape(m * m, -1)).reshape(a * a, cout, -1)
    # dU = dM V^T; gw in w's (Cout, Cin, k, k) layout
    gw = ((dM @ V.transpose(0, 2, 1)).reshape(a * a, -1).T @ GG).reshape(w.shape)
    # dV^T = dM^T U, with Cin last, so that each tile's gradient (a, a, B, Cin)
    # adds into a (H, W, B, Cin) accumulator over runs of B*Cin values
    dV = dM.transpose(0, 2, 1) @ U
    del dM
    dtiles = (BB.T @ dV.reshape(a * a, -1)).reshape(a, a, B, th, tw, cin)
    del dV
    acc = np.zeros((m * th + k - 1, m * tw + k - 1, B, cin))
    for i in range(th):
        for j in range(tw):
            acc[m * i : m * i + a, m * j : m * j + a] += dtiles[:, :, :, i, j]
    gx = np.empty_like(x)  # x's memory layout, which later reductions follow
    gx[...] = acc[:H, :W].transpose(2, 3, 0, 1)
    return gx, gw, gb


def conv2d_backward(cache, gout):
    if len(cache) == 4:  # a Winograd forward's (x, w, U, V)
        return _winograd_conv2d_backward(cache, gout)
    x, w = cache
    cout, cin = w.shape[:2]
    B, _, H, W = gout.shape
    # gw from channels-last x: given a transposed view of the forward's (Cin,
    # B*H*W) operand, the small GEMMs and the single-output GEMV round differently
    g = gout.transpose(1, 0, 2, 3).reshape(cout, B * H * W)
    gw = (g @ x.transpose(0, 2, 3, 1).reshape(B * H * W, cin)).reshape(w.shape)
    gb = gout.sum(axis=(0, 2, 3))
    # gx = w^T g with g's columns ordered (H, W, B), then copied into x's
    # memory layout, which later reductions follow
    g_hwb = np.ascontiguousarray(gout.transpose(1, 2, 3, 0)).reshape(cout, H * W * B)
    gx_chwb = np.zeros((cin, H * W * B))
    np.matmul(np.ascontiguousarray(w[:, :, 0, 0].T), g_hwb, out=gx_chwb)
    gx = np.empty_like(x)
    gx[...] = gx_chwb.reshape(cin, H, W, B).transpose(3, 0, 1, 2)
    return gx, gw, gb


# ---------------------------------------------------------------------------
# Batch normalization

BN_MOMENTUM = 0.1
BN_EPS = 1e-5


class BatchNorm:
    """Per-channel batch norm over (batch, spatial) for B,C,H,W inputs.

    A train-mode forward also updates the running statistics. Eval before any
    train-mode update is an error: it surfaces pipelines that never ran a
    training step but expect meaningful running statistics. Forward and
    backward write their passes in place, one temporary per array rather
    than per expression, in the expressions' op order: the bytes, and the
    layouts the reductions read, are the expressions'.
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
        xhat = x - mean[None, :, None, None]
        xhat *= inv_std[None, :, None, None]
        out = self.gamma.value[None, :, None, None] * xhat
        out += self.beta.value[None, :, None, None]
        return out, (xhat, inv_std)

    def backward(self, cache, gout):
        """Gradient through a train-mode forward (batch statistics)."""
        xhat, inv_std = cache
        # one scratch array, in the layout numpy gives gout * xhat, holds each
        # product with xhat; every reduction reads the layout it always read
        t = gout * xhat
        self.gamma.grad += np.sum(t, axis=(0, 2, 3))
        self.beta.grad += np.sum(gout, axis=(0, 2, 3))
        g = gout * self.gamma.value[None, :, None, None]
        n = xhat.shape[0] * xhat.shape[2] * xhat.shape[3]
        sum_g = np.sum(g, axis=(0, 2, 3))[None, :, None, None]
        sum_gx = np.sum(np.multiply(g, xhat, out=t), axis=(0, 2, 3))[None, :, None, None]
        # (inv_std / n) * (n * g - sum_g - xhat * sum_gx), op by op, into t
        g *= n
        g -= sum_g
        np.multiply(xhat, sum_gx, out=t)
        np.subtract(g, t, out=t)
        t *= inv_std[None, :, None, None] / n
        return t

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
# values per chunk of Adam.step (16K-64K time alike, 8K is slower)
ADAM_CHUNK = 32768


class Adam:
    """Standard ADAM with bias correction; zeroes gradients after each step.

    Each parameter steps in chunks of ADAM_CHUNK values, so a chunk's arrays
    stay in cache through every op, its finite check and its gradient zeroing;
    temporaries go to two scratch vectors allocated once. The ops and their
    order are the whole-array ones, and so are the bytes. A value or gradient
    that is not C-contiguous is refused (ValueError): its flat view would be
    a copy, and the step would be lost.
    """

    def __init__(self, params, lr=2e-4):
        self.params = list(params)
        self.lr = lr
        self.step_count = 0
        self.m = [np.zeros(p.shape) for p in self.params]
        self.v = [np.zeros(p.shape) for p in self.params]
        self._step, self._denom = np.empty(ADAM_CHUNK), np.empty(ADAM_CHUNK)

    def step(self):
        self.step_count += 1
        t = self.step_count
        for p, m_all, v_all in zip(self.params, self.m, self.v):
            if not (p.value.flags.c_contiguous and p.grad.flags.c_contiguous):
                raise ValueError(f"parameter {p.name}: Adam steps C-contiguous arrays only")
            # bumped before the first write, so a raise part-way leaves it stale
            p.version += 1
            value, grad = p.value.reshape(-1), p.grad.reshape(-1)
            m_all, v_all = m_all.reshape(-1), v_all.reshape(-1)
            for lo in range(0, value.size, ADAM_CHUNK):
                c = slice(lo, lo + ADAM_CHUNK)
                x, g, m, v = value[c], grad[c], m_all[c], v_all[c]
                step, denom = self._step[: g.size], self._denom[: g.size]
                # m = b1*m + (1-b1)*g; v = b2*v + (1-b2)*g*g; in place, same rounding
                m *= ADAM_BETA1
                np.multiply(g, 1 - ADAM_BETA1, out=step)
                m += step
                v *= ADAM_BETA2
                np.multiply(g, 1 - ADAM_BETA2, out=step)
                step *= g
                v += step
                np.divide(m, 1 - ADAM_BETA1**t, out=step)
                np.divide(v, 1 - ADAM_BETA2**t, out=denom)
                np.sqrt(denom, out=denom)
                denom += ADAM_EPS
                step *= self.lr
                step /= denom
                x -= step
                assert_finite(x, f"parameter {p.name} after ADAM step")
                g[...] = 0.0
