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

import os
from dataclasses import dataclass

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


ENC_KERNEL = 7  # side of the encoder's valid conv: its output is (H - 6) x (W - 6)
EMBED_DIM = 5  # width of the learned per-location index embedding that G consumes


@dataclass
class ModelConfig(storage.ConfigCodec):
    family: str = "affine"  # affine | tps
    D: int = 512
    H: int = 15
    W: int = 15
    N: int = 128
    # also the width of both G layers and the head input; S's hidden layer is half
    encoder_channels: int = 128
    oac_path: str = "direct"  # direct | reordered
    tps_grid: int = 3
    seed: int = 0

    # the least value of each integer key that no other check bounds (not a field)
    _minimum = {"D": 1, "N": 1, "encoder_channels": 1, "seed": 0}

    def __post_init__(self):
        for key, low in self._minimum.items():
            if getattr(self, key) < low:
                raise ValueError(f"{key} must be >= {low}, got {getattr(self, key)}")
        if not 2 <= self.tps_grid <= geometry.TPS_MAX_GRID:
            raise ValueError(f"tps_grid must be in [2, {geometry.TPS_MAX_GRID}], "
                             f"got {self.tps_grid}")
        geometry.identity_vector(self.family, self.tps_grid)  # refuses an unknown family
        if self.family != "tps" and self.tps_grid != ModelConfig.tps_grid:
            raise ValueError(f"tps_grid is read only with family = tps, got "
                             f"{self.tps_grid} beside family = {self.family}")
        if self.oac_path not in ("direct", "reordered"):
            raise ValueError(f"oac_path must be 'direct' or 'reordered', got {self.oac_path!r}")
        if self.H < ENC_KERNEL or self.W < ENC_KERNEL:
            raise ShapeError(f"feature map {self.H}x{self.W} smaller than the encoder kernel")

    @property
    def Hh(self):
        return self.H - ENC_KERNEL + 1

    @property
    def Wh(self):
        return self.W - ENC_KERNEL + 1

    @property
    def Q(self):
        return geometry.identity_vector(self.family, self.tps_grid).size


class ConvBNReLU:
    """Valid k x k conv, batch norm and ReLU, with parameters `name`.w/.b/.bn.
    An eval forward of a k > 1 (Winograd) layer keeps its kernel transform U with the
    weight array and `version` it came from; later eval forwards pass U while both hold,
    which saves time and changes no bit. Any other forward drops U: train holds none."""

    def __init__(self, rng, name, cin, cout, k=1):
        self.w = Parameter(he_uniform(rng, (cout, cin, k, k), cin * k * k), f"{name}.w")
        self.b = Parameter(np.zeros(cout), f"{name}.b")
        self.bn = BatchNorm(cout, prefix=f"{name}.bn")
        self._kernel = None  # (w.value, w.version, U); `is`, never id()

    def parameters(self):
        return [self.w, self.b] + self.bn.parameters()

    def forward(self, x, mode):
        w, held = self.w, self._kernel if mode == "eval" else None
        U = held[2] if held and held[0] is w.value and held[1] == w.version else None
        z, conv_cache = conv2d_forward(x, w.value, self.b.value, U)
        winograd = mode == "eval" and len(conv_cache) == 4  # (x, w, U, V)
        self._kernel = (w.value, w.version, conv_cache[2]) if winograd else None
        zn, bn_cache = self.bn.forward(z, mode)
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
        self.bank = corr.OacKernelBank(cfg.N, cfg.H, cfg.W, rng)
        self.counter = corr.MultiplyCounter()

        # layers draw their weights from rng in this order
        ec = cfg.encoder_channels
        self.encoder = ConvBNReLU(rng, "encoder", cfg.N, ec, k=ENC_KERNEL)
        # G: two 1x1 layers of width ec; consumes feature + embedding
        self.g1 = ConvBNReLU(rng, "g1", ec + EMBED_DIM, ec)
        self.g2 = ConvBNReLU(rng, "g2", ec, ec)
        # S: one 1x1 layer, then a scalar output with no bias
        # (softmax is shift-invariant, so an output bias is unidentifiable)
        s_hidden = max(1, ec // 2)
        self.s1 = ConvBNReLU(rng, "s1", ec, s_hidden)
        self.s2_w = Parameter(he_uniform(rng, (1, s_hidden, 1, 1), s_hidden), "s2.w")

        # index embedding: learned table, zero-init
        self.embedding = Parameter(np.zeros((cfg.Hh * cfg.Wh, EMBED_DIM)), "embedding")

        # zero-initialized so a fresh model predicts the identity transform;
        # the identity offset makes the early loss equal the identity baseline
        self.head_w = Parameter(np.zeros((cfg.Q, ec)), "head.w")
        self.identity_offset = geometry.identity_vector(cfg.family, cfg.tps_grid)
        self._cache = None

    # -- parameter bookkeeping ------------------------------------------------

    def parameter_groups(self):
        # this order fixes the Adam state layout
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

    def batch_norms(self):
        return [layer.bn for layer in (self.encoder, self.g1, self.g2, self.s1)]

    # -- forward --------------------------------------------------------------

    def forward_features(self, f_src, f_trg, mode="eval"):
        """Full pipeline from L2-normalized feature maps; accepts batched or single. A train-mode
        forward updates the batch norms' running statistics and keeps what backward reads."""
        cfg = self.config
        single = f_src.ndim == 3
        if single:
            f_src, f_trg = f_src[None], f_trg[None]
        B = f_src.shape[0]
        c = corr.normalize_correlation(corr.correlation_map(f_src, f_trg))
        self._cache = None  # a previous forward's caches go before this one's layers allocate

        if cfg.oac_path == "direct":
            h, oac_cache = corr.oac_forward_direct(c, self.bank, self.counter)
        else:
            h, oac_cache = corr.oac_forward_reordered(c, self.bank, self.counter)
        F, enc_cache = self.encoder.forward(h, mode)  # (B, ec, Hh, Wh)

        # S branch
        s1a, s1_cache = self.s1.forward(F, mode)
        scores, s2_cache = conv2d_forward(s1a, self.s2_w.value, np.zeros(1))
        alpha, sm_cache = spatial_softmax_forward(scores)  # (B,1,Hh,Wh)

        # G branch: concat embedding rows per location
        emb = self.embedding.value.T.reshape(1, EMBED_DIM, cfg.Hh, cfg.Wh)
        emb_b = np.broadcast_to(emb, (B, EMBED_DIM, cfg.Hh, cfg.Wh))
        g_in = np.concatenate([F, emb_b], axis=1)
        g1a, g1_cache = self.g1.forward(g_in, mode)
        g2a, g2_cache = self.g2.forward(g1a, mode)  # (B, ec, Hh, Wh)

        # sum over locations of g2a weighted by alpha, as one batched matmul
        g2a_t = g2a.transpose(0, 2, 3, 1).reshape(B, cfg.Hh * cfg.Wh, -1)
        tau = (alpha.reshape(B, 1, -1) @ g2a_t).reshape(B, -1)
        raw = tau @ self.head_w.value.T  # (B, Q)
        theta_vecs = raw + self.identity_offset[None, :]

        if mode == "train":
            # F and the diagnostics outlive backward; freeing them there cost paper_train ~8%
            self._cache = dict(alpha=alpha, g2a=g2a, tau=tau, F=F, oac=oac_cache,
                               encoder=enc_cache, s1=s1_cache, s2=s2_cache, sm=sm_cache,
                               g1=g1_cache, g2=g2_cache)
        state = AttentionState(F=F, scores=scores, alpha=alpha, tau=tau)
        if single:
            return theta_vecs[0], state
        return theta_vecs, state

    def backward(self, dtheta):
        """Accumulate parameter gradients from d(loss)/d(theta vectors) (B, Q).

        Backprop stops at the OAC bank's parameters: the feature extractor is
        frozen, so no gradient for the correlation map is computed. Returns
        None. Each layer cache is released once its backward has run.
        """
        cache = self._cache
        if cache is None or "oac" not in cache:
            raise RuntimeError("backward needs a train-mode forward before it")
        alpha, g2a, tau = cache["alpha"], cache["g2a"], cache["tau"]

        self.head_w.grad += dtheta.T @ tau
        dtau = dtheta @ self.head_w.value  # (B, ec)

        dg2a = dtau[:, :, None, None] * alpha[:, 0][:, None]
        dalpha = (dtau[:, None, :] @ g2a.reshape(*dtau.shape, -1)).reshape(alpha.shape)

        # G branch
        dg_in = self.g1.backward(cache.pop("g1"), self.g2.backward(cache.pop("g2"), dg2a))
        ec = self.config.encoder_channels
        dF = dg_in[:, :ec]
        self.embedding.grad += dg_in[:, ec:].sum(axis=0).reshape(EMBED_DIM, -1).T

        # S branch
        dscores = spatial_softmax_backward(cache.pop("sm"), dalpha)
        ds1a, gw, _ = conv2d_backward(cache.pop("s2"), dscores)
        self.s2_w.grad += gw
        dF = dF + self.s1.backward(cache.pop("s1"), ds1a)

        dh = self.encoder.backward(cache.pop("encoder"), dF)
        if self.config.oac_path == "direct":
            corr.oac_backward_direct(cache.pop("oac"), self.bank, dh)
        else:
            corr.oac_backward_reordered(cache.pop("oac"), self.bank, dh)

    def theta_params(self, theta_vec):
        """The transform of one predicted vector, as geometry.theta_vector."""
        return geometry.theta_vector(theta_vec)

    # -- persistence ----------------------------------------------------------

    def _bn_stats(self):
        """(batch norm, attribute, checkpoint name) of every running statistic."""
        for bn in self.batch_norms():
            prefix = bn.gamma.name.rsplit(".", 1)[0]
            for stat in ("running_mean", "running_var", "num_updates"):
                yield bn, stat, f"{prefix}.{stat}"

    def state_tensors(self):
        """{name: array} of what a checkpoint holds: the parameters, then each
        batch norm's running statistics."""
        out = {p.name: p.value for p in self.parameters()}
        for bn, stat, name in self._bn_stats():
            out[name] = np.asarray(getattr(bn, stat), dtype=np.float64)
        return out

    def save(self, dirpath):
        storage.save_checkpoint(dirpath, self.state_tensors(), config_lines=self.config.to_lines())

    @classmethod
    def load(cls, dirpath, config_cls=ModelConfig):
        """The model saved in `dirpath` and its config, the config_cls
        (ModelConfig or a subclass) that its config.txt holds."""
        config = config_cls.from_file(os.path.join(dirpath, "config.txt"))
        model = cls(config)
        tensors = storage.load_checkpoint(
            dirpath, {name: arr.shape for name, arr in model.state_tensors().items()})
        for p in model.parameters():
            p.value[...] = tensors[p.name]
        for bn, stat, name in model._bn_stats():
            setattr(bn, stat, int(tensors[name]) if stat == "num_updates" else tensors[name])
        return model, config


@dataclass
class AttentionState:
    """Diagnostics from a forward pass."""

    F: np.ndarray
    scores: np.ndarray
    alpha: np.ndarray
    tau: np.ndarray
