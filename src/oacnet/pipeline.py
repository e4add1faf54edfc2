"""Feature providers, synthetic pair generation, the self-supervised training
loop, and evaluation.

Training needs no dataset: pairs are (crop of an image, warped crop) with the
sampled transform as free ground truth, and images come from a procedural
corpus unless a directory of P5/P6 files is supplied. The feature provider is
frozen; only the alignment head is optimized.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from . import geometry, storage
from .network import AttentiveAlignmentModel, ModelConfig
from .tensor import Adam, ShapeError, l2_normalize_channels


class DivergenceError(Exception):
    """Loss exceeded 10x its initial value for too many consecutive steps."""


# ---------------------------------------------------------------------------
# Feature providers


class RandomProjectionProvider:
    """Frozen desk-scale stand-in for a pretrained extractor.

    Average-pools the image into an H x W grid of patches, projects each
    flattened patch through a fixed seeded random matrix, applies ReLU, and
    L2-normalizes columns. Never trained.
    """

    def __init__(self, D, H, W, channels=1, image_size=32, seed=0):
        if image_size % H != 0 or image_size % W != 0:
            raise ShapeError(f"image size {image_size} not divisible by {H}x{W} grid")
        self.D = D
        self.H = H
        self.W = W
        self.fy = image_size // H
        self.fx = image_size // W
        self.image_size = image_size
        rng = np.random.default_rng(seed)
        patch_dim = channels * self.fy * self.fx
        self.projection = rng.standard_normal((D, patch_dim)) / math.sqrt(patch_dim)

    def __call__(self, image):
        C, Hi, Wi = image.shape
        if Hi != self.image_size or Wi != self.image_size:
            raise ShapeError(f"provider expects {self.image_size}^2 images, got {Hi}x{Wi}")
        patches = image.reshape(C, self.H, self.fy, self.W, self.fx)
        patches = patches.transpose(1, 3, 0, 2, 4).reshape(self.H * self.W, -1)
        feat = (patches @ self.projection.T).T.reshape(self.D, self.H, self.W)
        return l2_normalize_channels(np.maximum(feat, 0.0))


def import_feature_map(path):
    """Load an externally computed D x H x W map from an OACT file and normalize."""
    arr = storage.load_tensor(path)
    if arr.ndim != 3:
        raise ShapeError(f"{path}: feature map must be rank 3, got rank {arr.ndim}")
    return l2_normalize_channels(arr)


# ---------------------------------------------------------------------------
# Procedural image corpus


def make_procedural_image(rng, size=32, channels=16):
    """Sharp Gaussian blobs scattered over a multi-channel canvas.

    Each blob lights up a random sparse subset of channels, so nearby patches
    get distinctive signatures while staying smooth enough to survive warping;
    values in [0, 1].
    """
    ys, xs = np.mgrid[0:size, 0:size] / (size - 1)
    img = np.zeros((channels, size, size))
    for _ in range(rng.integers(12, 20)):
        cx, cy = rng.uniform(0.05, 0.95, size=2)
        sigma = rng.uniform(0.03, 0.09)
        chans = (rng.uniform(size=channels) < 0.3).astype(float)
        if chans.max() == 0:
            chans[rng.integers(channels)] = 1.0
        img += chans[:, None, None] * np.exp(
            -(((xs - cx) ** 2 + (ys - cy) ** 2) / (2 * sigma**2))
        )
    return np.clip(img, 0.0, max(img.max(), 1e-9)) / max(img.max(), 1e-9)


def load_image_directory(path):
    images = []
    for fname in sorted(os.listdir(path)):
        if fname.lower().endswith((".pgm", ".ppm")):
            images.append(storage.load_image(os.path.join(path, fname)))
    if not images:
        raise storage.StorageError(f"{path}: no P5/P6 images found")
    return images


# ---------------------------------------------------------------------------
# Pair generation


def default_pad(image_hw):
    return math.ceil(0.25 * min(image_hw))


def generate_pair(image, family, pad, rng, grid_n=3):
    """Sample a transform and produce (center crop, warped crop, ground truth).

    The pad is grown beyond the requested amount when the drawn transform would
    otherwise sample outside the padded extent.
    """
    theta = geometry.sample_random_transform(family, rng, grid_n=grid_n)
    C, H, W = image.shape
    excess = geometry.max_border_displacement(theta)
    needed = math.ceil(excess * (min(H, W) - 1) / 2.0 + 1e-9) + 1
    use_pad = min(max(pad, needed), min(H, W) - 1)
    src, trg = geometry.mirror_pad_center_crop(image, use_pad, theta)
    return src, trg, theta


# ---------------------------------------------------------------------------
# Training


@dataclass
class TrainConfig(storage.ConfigCodec):
    learning_rate: float = 2e-4
    batch_size: int = 32
    epochs: int = 50
    steps_per_epoch: int = 40
    family: str = "affine"
    seed: int = 0
    feature_dim: int = 16
    feature_h: int = 8
    feature_w: int = 8
    kernel_count: int = 48
    encoder_channels: int = 32
    g_hidden: int = 32
    g_out: int = 32
    s_hidden: int = 16
    image_size: int = 32
    image_channels: int = 16
    corpus_size: int = 200
    corpus_dir: str = ""
    tps_grid: int = 3
    oac_path: str = "reordered"

    def __post_init__(self):
        for k in ("batch_size", "epochs", "steps_per_epoch",
                  "feature_dim", "feature_h", "feature_w", "kernel_count",
                  "image_size", "image_channels", "corpus_size"):
            if getattr(self, k) <= 0:
                raise ValueError(f"{k} must be positive")
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ValueError(f"learning_rate must be finite and non-negative, "
                             f"got {self.learning_rate}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.image_size % self.feature_h or self.image_size % self.feature_w:
            raise ValueError(f"image_size {self.image_size} not divisible by the "
                             f"{self.feature_h}x{self.feature_w} feature grid")
        self.model_config()  # the model's own checks: family, tps_grid, grid size, oac_path

    @property
    def total_steps(self):
        return self.epochs * self.steps_per_epoch

    def model_config(self):
        return ModelConfig(
            family=self.family, D=self.feature_dim, H=self.feature_h, W=self.feature_w,
            N=self.kernel_count, encoder_channels=self.encoder_channels,
            g_hidden=self.g_hidden, g_out=self.g_out, s_hidden=self.s_hidden,
            tps_grid=self.tps_grid, seed=self.seed, oac_path=self.oac_path,
        )


def build_corpus(config, rng):
    if config.corpus_dir:
        return load_image_directory(config.corpus_dir)
    return [
        make_procedural_image(rng, config.image_size, config.image_channels)
        for _ in range(config.corpus_size)
    ]


def build_provider(config, channels=None):
    return RandomProjectionProvider(
        config.feature_dim, config.feature_h, config.feature_w,
        channels=config.image_channels if channels is None else channels,
        image_size=config.image_size, seed=config.seed + 7919,
    )


def build_pairs(images, provider, config, rng):
    """One (f_src, f_trg, theta_gt) triple per image of the iterable `images`,
    in config's transform family. Each image is taken from the iterable before
    rng draws its pair's transform (sample_random_transform), so a generator
    may draw from rng too; nothing else draws from it. The pad comes from each
    image's own shape."""
    batch = []
    for image in images:
        pad = default_pad(image.shape[1:])
        src, trg, theta_gt = generate_pair(image, config.family, pad, rng, grid_n=config.tps_grid)
        batch.append((provider(src), provider(trg), theta_gt))
    return batch


def _drawn(images, rng, n):
    """n images of the list, each index drawn from rng as the image is taken."""
    return (images[rng.integers(len(images))] for _ in range(n))


def _make_batch(images, provider, config, rng, loss_grid):
    """One training batch; loss_grid is unused and kept for existing callers."""
    return build_pairs(_drawn(images, rng, config.batch_size), provider, config, rng)


def predict(model, batch, mode="eval"):
    """One forward pass over a batch of (f_src, f_trg, theta_gt) triples:
    theta vectors (B, Q) and the attention state."""
    f_src = np.stack([b[0] for b in batch])
    f_trg = np.stack([b[1] for b in batch])
    return model.forward_features(f_src, f_trg, mode=mode)


def batch_loss_and_grads(model, batch, loss_grid, mode="train"):
    """Mean grid-distance loss over the batch; populates parameter grads in
    train mode. Gradient reduction over samples happens inside one batched
    backward pass with a fixed sample order."""
    theta_vecs, _ = predict(model, batch, mode)
    losses, grads = geometry.tgd(theta_vecs, np.stack([b[2].theta for b in batch]), loss_grid)
    if mode == "train":
        model.backward(grads / len(batch))
    return float(losses.mean())


def train(config: TrainConfig, log_fn=None):
    """Run the self-supervised loop; returns (model, history, val_batch)."""
    rng = np.random.default_rng(config.seed)
    corpus = build_corpus(config, rng)
    # held-out split by index partition: last 10% of the corpus is validation
    n_val = max(1, len(corpus) // 10)
    train_images = corpus[:-n_val]
    val_images = corpus[-n_val:]
    provider = build_provider(config, channels=corpus[0].shape[0])
    model = AttentiveAlignmentModel(config.model_config())
    optimizer = Adam(model.parameters(), lr=config.learning_rate)
    loss_grid = geometry.make_regular_grid(20)

    history = []
    initial_loss = None
    over_budget_streak = 0
    for step in range(1, config.total_steps + 1):
        batch = _make_batch(train_images, provider, config, rng, loss_grid)
        loss = batch_loss_and_grads(model, batch, loss_grid, mode="train")
        optimizer.step()
        history.append((step, loss))
        if initial_loss is None:
            initial_loss = loss
        if loss > 10.0 * initial_loss:
            over_budget_streak += 1
            if over_budget_streak >= 100:
                raise DivergenceError(
                    f"loss {loss:.4g} above 10x initial {initial_loss:.4g} "
                    f"for {over_budget_streak} consecutive steps; "
                    f"last step within budget: {step - over_budget_streak}"
                )
        else:
            over_budget_streak = 0
        if log_fn is not None and (step % 100 == 0 or step == 1):
            log_fn(step, loss)

    val_rng = np.random.default_rng(config.seed + 1)
    val_batch = build_pairs(_drawn(val_images, val_rng, max(32, config.batch_size)),
                            provider, config, val_rng)
    return model, history, val_batch


def evaluate_tgd(thetas, batch):
    """Mean grid distance of the transforms `thetas`, one per pair, to the
    batch's ground truths. Identity transforms give the identity baseline."""
    losses, _ = geometry.tgd(np.stack([theta.theta for theta in thetas]),
                             np.stack([b[2].theta for b in batch]),
                             geometry.make_regular_grid(20))
    return float(losses.mean())


def evaluate_pck_synthetic(thetas, batch, alpha=0.1, image_hw=(32, 32), seed=0):
    """PCK of the transforms `thetas`, one per pair, on synthetic keypoint
    sets: target keypoints are the ground-truth transform of 10 random source
    keypoints per pair."""
    rng = np.random.default_rng(seed)
    pairs = {}
    predicted = {}
    h_img, w_img = image_hw
    for i, (theta, (_, _, theta_gt)) in enumerate(zip(thetas, batch, strict=True)):
        src_pix = np.stack(
            [rng.uniform(0, w_img - 1, 10), rng.uniform(0, h_img - 1, 10)],
            axis=1,
        )
        src_norm = geometry.normalize_points(src_pix, image_hw)
        trg_pix = geometry.denormalize_points(theta_gt.transform(src_norm), image_hw)
        pid = f"pair{i}"
        pairs[pid] = {"src": src_pix, "trg": trg_pix, "bbox_h": float(h_img), "bbox_w": float(w_img)}
        predicted[pid] = theta
    return geometry.pck(pairs, predicted, alpha, image_hw)
