"""The differentiable head: local transformation encoder plus the attentive
global transformation estimator, chained behind the correlation layer.

Forward pipeline (affine example, paper-scale dims in brackets):
  features (D,15,15) x2 -> correlation (225,15,15) -> ReLU+L2 normalize
  -> OAC kernels -> displacement map (128,15,15) -> 7x7 valid conv + BN + ReLU
  -> local feature map (128,9,9) -> attention scores -> softmax (81 probs)
  -> attended feature (128) -> linear head -> theta (6 or 18).

The raw head output is an offset from the identity transform, so a freshly
initialized model predicts the identity map.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import correlation as corr
from . import geometry, storage
from .tensor import (
    BatchNorm,
    Parameter,
    ShapeError,
    conv2d_backward,
    conv2d_forward,
    he_uniform,
    relu_backward,
    relu_forward,
    spatial_softmax_backward,
    spatial_softmax_forward,
)


@dataclass
class ModelConfig(storage.ConfigCodec):
    family: str = "affine"  # affine | tps
    D: int = 512
    H: int = 15
    W: int = 15
    N: int = 128
    encoder_channels: int = 128
    g_hidden: int = 128
    g_out: int = 128
    s_hidden: int = 64
    embed_dim: int = 5
    oac_bias: bool = True
    oac_path: str = "direct"  # direct | reordered
    tps_grid: int = 3
    seed: int = 0

    # spatial size after the 7x7 valid conv
    enc_kernel: int = field(default=7, init=False)

    def __post_init__(self):
        if self.family not in ("affine", "tps"):
            raise ValueError(f"unknown family {self.family!r}")
        if self.H < self.enc_kernel or self.W < self.enc_kernel:
            raise ShapeError(f"feature map {self.H}x{self.W} smaller than the encoder kernel")

    @property
    def Hh(self):
        return self.H - self.enc_kernel + 1

    @property
    def Wh(self):
        return self.W - self.enc_kernel + 1

    @property
    def Q(self):
        return 6 if self.family == "affine" else 2 * self.tps_grid**2


class ConvBNReLU:
    """Valid k x k conv, batch norm and ReLU, with parameters `name`.w/.b/.bn."""

    def __init__(self, rng, name, cin, cout, k=1):
        self.w = Parameter(he_uniform(rng, (cout, cin, k, k), cin * k * k), f"{name}.w")
        self.b = Parameter(np.zeros(cout), f"{name}.b")
        self.bn = BatchNorm(cout, prefix=f"{name}.bn")

    def parameters(self):
        return [self.w, self.b] + self.bn.parameters()

    def forward(self, x, mode, update_stats):
        z, conv_cache = conv2d_forward(x, self.w.value, self.b.value)
        zn, bn_cache = self.bn.forward(z, mode, update_stats)
        out, relu_cache = relu_forward(zn)
        return out, (conv_cache, bn_cache, relu_cache)

    def backward(self, cache, gout):
        conv_cache, bn_cache, relu_cache = cache
        dz = self.bn.backward(bn_cache, relu_backward(relu_cache, gout))
        dx, gw, gb = conv2d_backward(conv_cache, dz)
        self.w.grad += gw
        self.b.grad += gb
        return dx


class AttentiveAlignmentModel:
    """Kernel bank + encoder + attention head, with manual backprop."""

    def __init__(self, config: ModelConfig):
        self.config = config
        cfg = config
        rng = np.random.default_rng(cfg.seed)
        self.bank = corr.OacKernelBank(cfg.N, cfg.H, cfg.W, rng=rng, use_bias=cfg.oac_bias)
        self.counter = corr.MultiplyCounter()

        # layers draw their weights from rng in this order
        ec = cfg.encoder_channels
        self.encoder = ConvBNReLU(rng, "encoder", cfg.N, ec, k=cfg.enc_kernel)
        # G: two 1x1 layers; consumes feature + embedding
        self.g1 = ConvBNReLU(rng, "g1", ec + cfg.embed_dim, cfg.g_hidden)
        self.g2 = ConvBNReLU(rng, "g2", cfg.g_hidden, cfg.g_out)
        # S: one 1x1 layer, then a scalar output with no bias
        # (softmax is shift-invariant, so an output bias is unidentifiable)
        self.s1 = ConvBNReLU(rng, "s1", ec, cfg.s_hidden)
        self.s2_w = Parameter(
            he_uniform(rng, (1, cfg.s_hidden, 1, 1), cfg.s_hidden), "s2.w"
        )

        # index embedding: learned table, zero-init
        self.embedding = Parameter(np.zeros((cfg.Hh * cfg.Wh, cfg.embed_dim)), "embedding")

        # zero-initialized so a fresh model predicts the identity transform;
        # the identity offset makes the early loss equal the identity baseline
        self.head_w = Parameter(np.zeros((cfg.Q, cfg.g_out)), "head.w")
        self.identity_offset = geometry.identity_vector(cfg.family, cfg.tps_grid)
        self._cache = None

    # -- parameter bookkeeping ------------------------------------------------

    def parameter_groups(self):
        # this order fixes the checkpoint manifest and the Adam state layout
        return [
            ("oac", self.bank.parameters()),
            ("encoder", self.encoder.parameters()),
            ("g_mlp", [self.g1.w, self.g1.b, self.g2.w, self.g2.b]
             + self.g1.bn.parameters() + self.g2.bn.parameters()),
            ("s_mlp", [self.s1.w, self.s1.b, self.s2_w] + self.s1.bn.parameters()),
            ("head", [self.head_w]),
            ("embedding", [self.embedding]),
        ]

    def parameters(self):
        return [p for _, ps in self.parameter_groups() for p in ps]

    def zero_grad(self):
        for p in self.parameters():
            p.zero_grad()

    def batch_norms(self):
        return [layer.bn for layer in (self.encoder, self.g1, self.g2, self.s1)]

    # -- forward --------------------------------------------------------------

    def forward_features(self, f_src, f_trg, mode="eval", update_stats=None):
        """Full pipeline from L2-normalized feature maps; accepts batched or single."""
        single = f_src.ndim == 3
        if single:
            f_src = f_src[None]
            f_trg = f_trg[None]
        c = corr.correlation_map(f_src, f_trg)
        c = corr.normalize_correlation(c)
        theta_vecs, state = self.forward_correlation(c, mode, update_stats)
        if single:
            return theta_vecs[0], state
        return theta_vecs, state

    def forward_correlation(self, c, mode="eval", update_stats=None):
        """From a normalized correlation map (B, HW, H, W) to theta vectors (B, Q)."""
        cfg = self.config
        if update_stats is None:
            update_stats = mode == "train"
        B = c.shape[0]

        if cfg.oac_path == "direct":
            h, oac_cache = corr.oac_forward_direct(c, self.bank, self.counter)
        else:
            h, oac_cache = corr.oac_forward_reordered(c, self.bank, self.counter)
        F, enc_cache = self.encoder.forward(h, mode, update_stats)  # (B, ec, Hh, Wh)

        # S branch
        s1a, s1_cache = self.s1.forward(F, mode, update_stats)
        scores, s2_cache = conv2d_forward(s1a, self.s2_w.value, np.zeros(1))
        alpha, sm_cache = spatial_softmax_forward(scores)  # (B,1,Hh,Wh)

        # G branch: concat embedding rows per location
        emb = self.embedding.value.T.reshape(1, cfg.embed_dim, cfg.Hh, cfg.Wh)
        emb_b = np.broadcast_to(emb, (B, cfg.embed_dim, cfg.Hh, cfg.Wh))
        g_in = np.concatenate([F, emb_b], axis=1)
        g1a, g1_cache = self.g1.forward(g_in, mode, update_stats)
        g2a, g2_cache = self.g2.forward(g1a, mode, update_stats)  # (B, g_out, Hh, Wh)

        tau = np.einsum("bdhw,bhw->bd", g2a, alpha[:, 0], optimize=True)
        raw = tau @ self.head_w.value.T  # (B, Q)
        theta_vecs = raw + self.identity_offset[None, :]

        self._cache = dict(
            oac=oac_cache, encoder=enc_cache, s1=s1_cache, s2=s2_cache, sm=sm_cache,
            g1=g1_cache, g2=g2_cache, alpha=alpha, g2a=g2a, tau=tau, F=F,
        )
        state = AttentionState(F=F, scores=scores, alpha=alpha, tau=tau)
        return theta_vecs, state

    def backward(self, dtheta):
        """Accumulate parameter gradients from d(loss)/d(theta vectors) (B, Q).

        Returns the gradient with respect to the normalized correlation map.
        """
        cache = self._cache
        if cache is None:
            raise RuntimeError("backward called before forward")
        alpha, g2a, tau = cache["alpha"], cache["g2a"], cache["tau"]

        self.head_w.grad += dtheta.T @ tau
        dtau = dtheta @ self.head_w.value  # (B, g_out)

        dg2a = dtau[:, :, None, None] * alpha[:, 0][:, None]
        dalpha = np.einsum("bdhw,bd->bhw", g2a, dtau, optimize=True)[:, None]

        # G branch
        dg_in = self.g1.backward(cache["g1"], self.g2.backward(cache["g2"], dg2a))
        ec = self.config.encoder_channels
        dF = dg_in[:, :ec]
        self.embedding.grad += dg_in[:, ec:].sum(axis=0).reshape(self.config.embed_dim, -1).T

        # S branch
        dscores = spatial_softmax_backward(cache["sm"], dalpha)
        ds1a, gw, _ = conv2d_backward(cache["s2"], dscores)
        self.s2_w.grad += gw
        dF = dF + self.s1.backward(cache["s1"], ds1a)

        dh = self.encoder.backward(cache["encoder"], dF)
        if self.config.oac_path == "direct":
            return corr.oac_backward_direct(cache["oac"], self.bank, dh)
        return corr.oac_backward_reordered(cache["oac"], self.bank, dh)

    def theta_params(self, theta_vec):
        return geometry.params_from_vector(self.config.family, theta_vec, self.config.tps_grid)

    # -- persistence ----------------------------------------------------------

    def state_tensors(self):
        out = [(p.name, p.value, "param") for p in self.parameters()]
        for bn in self.batch_norms():
            prefix = bn.gamma.name.rsplit(".", 1)[0]
            out.append((f"{prefix}.running_mean", bn.running_mean, "stat"))
            out.append((f"{prefix}.running_var", bn.running_var, "stat"))
            out.append((f"{prefix}.num_updates", np.array(float(bn.num_updates)), "stat"))
        return out

    def save(self, dirpath):
        storage.save_checkpoint(dirpath, self.state_tensors(), config_lines=self.config.to_lines())

    @classmethod
    def load(cls, dirpath):
        tensors, entries, config_dict = storage.load_checkpoint(dirpath)
        if config_dict is None:
            raise storage.StorageError(f"{dirpath}: checkpoint has no config.txt")
        model = cls(ModelConfig.from_dict(config_dict))

        def stored(name, shape):
            if name not in tensors:
                raise storage.StorageError(f"{dirpath}: missing tensor {name}")
            arr = tensors[name]
            if arr.shape != shape:
                raise ShapeError(f"{dirpath}: {name} shape {arr.shape} != expected {shape}")
            return arr

        for p in model.parameters():
            p.value[...] = stored(p.name, p.value.shape)
        for bn in model.batch_norms():
            prefix = bn.gamma.name.rsplit(".", 1)[0]
            bn.running_mean = stored(f"{prefix}.running_mean", bn.running_mean.shape).copy()
            bn.running_var = stored(f"{prefix}.running_var", bn.running_var.shape).copy()
            bn.num_updates = int(stored(f"{prefix}.num_updates", ()))
        return model, config_dict


@dataclass
class AttentionState:
    """Diagnostics from a forward pass."""

    F: np.ndarray
    scores: np.ndarray
    alpha: np.ndarray
    tau: np.ndarray
