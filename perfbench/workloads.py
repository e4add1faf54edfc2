"""The three benchmark workloads and the closed loop that measures them.

Each workload is built from a seed alone and calls the library's public
functions directly (no command-line parsing or printing is timed):

* ``desk_train``: acceptance criterion 6's configuration,
  ``TrainConfig(batch_size=16)`` defaults, one ``_make_batch`` ->
  ``batch_loss_and_grads`` -> ``Adam.step`` per step. About half its step is
  pair synthesis, so it is where batched synthesis shows.
* ``paper_train``: a training step at paper scale (``ModelConfig()``
  defaults, direct OAC path, B=8) on feature maps and ground-truth transforms
  drawn at setup. Synthesis is skipped; the OAC and 7x7 encoder backward
  passes dominate.
* ``paper_eval``: single-pair inference at paper scale the way
  ``oacnet warp --checkpoint`` serves it: a checkpoint saved and reloaded
  through ``storage`` at setup, both ``.oact`` feature maps read through
  ``pipeline.import_feature_map`` on every call. Forward only at B=1, so
  fixed per-call overhead counts for a lot.
"""

from __future__ import annotations

import math
import os
import statistics
import time
import traceback

import numpy as np

from oacnet import correlation, geometry, pipeline, storage
from oacnet.network import AttentiveAlignmentModel, ModelConfig
from oacnet.tensor import Adam, l2_normalize_channels

import tracing

# Theta of a single-pair eval call against the same pair's batched eval row.
EVAL_THETA_TOL = 1e-10


class _Counted:
    """OAC multiplies issued per pair, as the model's counter instruments them,
    against the closed-form count."""

    def _init_counts(self, model):
        cfg = model.config
        self.multiplies_per_pair = correlation.count_multiplications(
            cfg.H, cfg.W, cfg.N, cfg.oac_path)
        self.useful_per_pair = correlation.count_nonzero_offset_entries(cfg.H, cfg.W, cfg.N)
        self.issued_per_pair = []

    def _counts_match(self, multiplies):
        self.issued_per_pair.append(multiplies / self.pairs_per_step)
        return multiplies == self.multiplies_per_pair * self.pairs_per_step


class _Trainer(_Counted):
    """Shared step and output checks of the two training workloads."""

    def __init__(self, model, optimizer, loss_grid, pairs_per_step):
        self.model = model
        self.optimizer = optimizer
        self.loss_grid = loss_grid
        self.pairs_per_step = pairs_per_step
        self._init_counts(model)
        self.losses = []

    def train_step(self, batch):
        before = self.model.counter.total
        loss = pipeline.batch_loss_and_grads(self.model, batch, self.loss_grid, mode="train")
        self.optimizer.step()
        return loss, self.model.counter.total - before

    def check(self, result):
        """A finite loss bounds the thetas too: every affine parameter enters
        the grid loss, so a NaN/Inf theta gives a NaN/Inf loss."""
        loss, multiplies = result
        self.losses.append(loss)
        return self._counts_match(multiplies) and math.isfinite(loss)

    def run_checks(self):
        return {}


class DeskTrain(_Trainer):
    name = "desk_train"
    warmup_steps = 3

    def __init__(self, seed, workdir):
        # mirrors pipeline.train's set-up for TrainConfig(batch_size=16, seed=seed)
        self.config = pipeline.TrainConfig(batch_size=16, seed=seed)
        self.rng = np.random.default_rng(self.config.seed)
        corpus = pipeline.build_corpus(self.config, self.rng)
        n_val = max(1, len(corpus) // 10)
        self.images = corpus[:-n_val]
        self.provider = pipeline.build_provider(self.config, channels=corpus[0].shape[0])
        model = AttentiveAlignmentModel(self.config.model_config())
        super().__init__(model, Adam(model.parameters(), lr=self.config.learning_rate),
                         geometry.make_regular_grid(20), self.config.batch_size)

    def next_input(self):
        return None

    def step(self, _):
        batch = pipeline._make_batch(self.images, self.provider, self.config, self.rng,
                                     self.loss_grid)
        return self.train_step(batch)

    def run_checks(self):
        """Training must make progress over the timed steps."""
        n = len(self.losses)
        if n < 10:
            return {"loss_decreases": False}
        tenth = n // 10
        first = statistics.fmean(self.losses[:tenth])
        last = statistics.fmean(self.losses[-tenth:])
        return {"loss_decreases": last < first}


def _feature_pool(rng, cfg, n_pairs):
    """L2-normalized random feature-map pairs with ground-truth transforms."""
    pool = []
    for _ in range(n_pairs):
        f_src = l2_normalize_channels(rng.standard_normal((cfg.D, cfg.H, cfg.W)))
        f_trg = l2_normalize_channels(rng.standard_normal((cfg.D, cfg.H, cfg.W)))
        theta_gt = geometry.sample_random_transform(cfg.family, rng, grid_n=cfg.tps_grid)
        pool.append((f_src, f_trg, theta_gt))
    return pool


class PaperTrain(_Trainer):
    name = "paper_train"
    warmup_steps = 2
    batch_size = 8
    pool_size = 32

    def __init__(self, seed, workdir):
        self.rng = np.random.default_rng(seed)
        cfg = ModelConfig(seed=seed)
        self.pool = _feature_pool(self.rng, cfg, self.pool_size)
        model = AttentiveAlignmentModel(cfg)
        super().__init__(model, Adam(model.parameters()), geometry.make_regular_grid(20),
                         self.batch_size)

    def next_input(self):
        idx = self.rng.choice(self.pool_size, self.batch_size, replace=False)
        return [self.pool[i] for i in idx]

    def step(self, batch):
        return self.train_step(batch)


class PaperEval(_Counted):
    name = "paper_eval"
    warmup_steps = 2
    pairs_per_step = 1
    pool_size = 8
    # a large step so the checkpoint's head predicts visibly non-identity thetas
    checkpoint_lr = 1e-2

    def __init__(self, seed, workdir):
        self.rng = np.random.default_rng(seed)
        cfg = ModelConfig(seed=seed)
        pool = _feature_pool(self.rng, cfg, self.pool_size)
        trainer = AttentiveAlignmentModel(cfg)
        pipeline.batch_loss_and_grads(trainer, pool, geometry.make_regular_grid(20))
        Adam(trainer.parameters(), lr=self.checkpoint_lr).step()
        ckpt = os.path.join(workdir, "checkpoint")
        trainer.save(ckpt)
        self.model, _ = AttentiveAlignmentModel.load(ckpt)
        self.paths = []
        for i, (f_src, f_trg, _) in enumerate(pool):
            pair = (os.path.join(workdir, f"src_{i}.oact"), os.path.join(workdir, f"trg_{i}.oact"))
            storage.save_tensor(pair[0], f_src)
            storage.save_tensor(pair[1], f_trg)
            self.paths.append(pair)
        f_src = np.stack([pipeline.import_feature_map(s) for s, _ in self.paths])
        f_trg = np.stack([pipeline.import_feature_map(t) for _, t in self.paths])
        self.expected, _ = self.model.forward_features(f_src, f_trg, mode="eval")
        self._init_counts(self.model)

    def next_input(self):
        return int(self.rng.integers(self.pool_size))

    def step(self, i):
        before = self.model.counter.total
        src, trg = self.paths[i]
        theta_vec, _ = self.model.forward_features(
            pipeline.import_feature_map(src), pipeline.import_feature_map(trg), mode="eval")
        self.model.theta_params(theta_vec)  # the transform warp would apply
        return i, theta_vec, self.model.counter.total - before

    def check(self, result):
        i, theta_vec, multiplies = result
        return (self._counts_match(multiplies)
                and bool(np.all(np.isfinite(theta_vec)))
                and float(np.max(np.abs(theta_vec - self.expected[i]))) <= EVAL_THETA_TOL)

    def run_checks(self):
        return {}


WORKLOADS = {cls.name: cls for cls in (DeskTrain, PaperTrain, PaperEval)}

# Set-ups per run; setup_s reports their median.
SETUP_REPEATS = 5


def build(name, seed, workdir):
    """Construct the workload and run its warm-up steps (the timed set-up)."""
    workload = WORKLOADS[name](seed, workdir)
    for _ in range(workload.warmup_steps):
        workload.step(workload.next_input())
    return workload


class Loop:
    """Closed-loop measurement: the next step starts when the previous ends."""

    def __init__(self, workload):
        self.workload = workload
        self.step_ms = []
        self.attempted = 0
        self.failed = 0
        self.pairs = 0
        self.elapsed = 0.0

    def run(self, seconds, tracer=None):
        w = self.workload
        start = time.perf_counter()
        deadline = start + seconds
        while time.perf_counter() < deadline:
            inp = w.next_input()
            self.attempted += 1
            step_id = self.attempted
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    result = w.step(inp)
                else:
                    tracer.step = step_id
                    span = tracer.begin(tracing.STEP_SPAN)
                    try:
                        result = w.step(inp)
                    finally:
                        tracer.end(span)
                        tracer.step = None
                t1 = time.perf_counter()
                ok = w.check(result)
            except Exception:
                if self.failed == 0:
                    traceback.print_exc()
                self.failed += 1
                continue
            if not ok:
                self.failed += 1
                continue
            self.step_ms.append((t1 - t0) * 1e3)
            self.pairs += w.pairs_per_step
        self.elapsed += time.perf_counter() - start
        return self

    @property
    def pairs_per_s(self):
        return self.pairs / self.elapsed if self.elapsed > 0 else 0.0
