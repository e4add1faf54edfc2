"""Acceptance suite: eight end-to-end criteria, one test (and one pass/fail
line) each. Run with `pytest tests/test_acceptance.py -v` for the per-criterion
verdicts, or add -s to see the printed summaries too."""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from oacnet import correlation as corr
from oacnet import geometry, pipeline, storage
from oacnet.network import AttentiveAlignmentModel, ModelConfig
from oacnet.tensor import l2_normalize_channels

from gradcheck import bn_stats_restored, grad_check


@contextmanager
def criterion(n, name):
    try:
        yield
    except BaseException:
        print(f"CRITERION {n} ({name}): FAIL")
        raise
    print(f"CRITERION {n} ({name}): PASS")


def test_criterion_1_kernel_path_equivalence():
    with criterion(1, "direct vs reordered kernel equivalence"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(0)
        worst_out = 0.0
        worst_grad = 0.0
        for _ in range(500):
            H = int(rng.integers(2, 7))
            W = int(rng.integers(2, 7))
            N = int(rng.integers(1, 5))
            f_src = l2_normalize_channels(rng.standard_normal((1, 3, H, W)))
            f_trg = l2_normalize_channels(rng.standard_normal((1, 3, H, W)))
            c = corr.normalize_correlation(corr.correlation_map(f_src, f_trg))
            bank = corr.OacKernelBank(N, H, W, rng)
            h1, cache1 = corr.oac_forward_direct(c, bank)
            h2, cache2 = corr.oac_forward_reordered(c, bank)
            worst_out = max(worst_out, float(np.abs(h1 - h2).max()))
            g = rng.standard_normal(h1.shape)
            for p in bank.parameters():
                p.zero_grad()
            corr.oac_backward_direct(cache1, bank, g)
            gw1 = bank.weights.grad.copy()
            for p in bank.parameters():
                p.zero_grad()
            corr.oac_backward_reordered(cache2, bank, g)
            worst_grad = max(worst_grad, float(np.abs(gw1 - bank.weights.grad).max()))
        elapsed = time.perf_counter() - t0
        assert worst_out <= 1e-10, worst_out
        assert worst_grad <= 1e-8, worst_grad
        assert elapsed < 30.0, elapsed


def test_criterion_2_multiplication_counts():
    with criterion(2, "multiply-count claim"):
        t0 = time.perf_counter()
        for H, W, N in ((4, 4, 2), (8, 8, 16), (15, 15, 128)):
            rng = np.random.default_rng(H + N)
            c = rng.standard_normal((1, H * W, H, W))
            bank = corr.OacKernelBank(N, H, W, rng)
            for path, fn in (("direct", corr.oac_forward_direct),
                             ("reordered", corr.oac_forward_reordered)):
                counter = corr.MultiplyCounter()
                fn(c, bank, counter)
                assert counter.total == corr.count_multiplications(H, W, N, path), (H, W, N, path)
        assert corr.count_multiplications(15, 15, 128, "direct") == 6_480_000
        assert corr.count_multiplications(15, 15, 128, "reordered") == 24_220_800
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, elapsed


def test_criterion_3_gradient_integrity():
    with criterion(3, "finite-difference gradient integrity"):
        t0 = time.perf_counter()
        from oacnet.tensor import BatchNorm, Parameter, conv2d_backward, conv2d_forward
        from oacnet.tensor import spatial_softmax_backward, spatial_softmax_forward

        rng = np.random.default_rng(0)

        # convolution
        x = rng.standard_normal((2, 3, 6, 6))
        w = Parameter(0.1 * rng.standard_normal((4, 3, 3, 3)), "w")
        b = Parameter(0.1 * rng.standard_normal(4), "b")
        proj = rng.standard_normal((2, 4, 4, 4))

        def conv_loss(compute_grads):
            out, cache = conv2d_forward(x, w.value, b.value)
            if compute_grads:
                _, gw, gb = conv2d_backward(cache, proj)
                w.grad += gw
                b.grad += gb
            return float((out * proj).sum())

        report = grad_check(conv_loss, [w, b])
        assert max(report.values()) <= 1e-4, report

        # batch normalization (gamma/beta)
        bn = BatchNorm(3, prefix="bn")
        bn.gamma.value[...] = 1.0 + 0.1 * rng.standard_normal(3)
        bn.beta.value[...] = 0.1 * rng.standard_normal(3)
        xb = rng.standard_normal((4, 3, 5, 5))
        projb = rng.standard_normal(xb.shape)

        def bn_loss(compute_grads):
            out, cache = bn.forward(xb, "train")
            if compute_grads:
                bn.backward(cache, projb)
            return float((out * projb).sum())

        with bn_stats_restored([bn]):
            report = grad_check(bn_loss, bn.parameters())
        assert max(report.values()) <= 1e-4, report

        # offset-indexed kernel bank
        H = W = 5
        bank = corr.OacKernelBank(3, H, W, rng)
        c = corr.normalize_correlation(corr.correlation_map(
            l2_normalize_channels(rng.standard_normal((1, 4, H, W))),
            l2_normalize_channels(rng.standard_normal((1, 4, H, W))),
        ))
        projo = rng.standard_normal((1, 3, H, W))

        def oac_loss(compute_grads):
            h, cache = corr.oac_forward_direct(c, bank)
            if compute_grads:
                corr.oac_backward_direct(cache, bank, projo)
            return float((h * projo).sum())

        report = grad_check(oac_loss, bank.parameters())
        assert max(report.values()) <= 1e-4, report

        # spatial softmax attention (gradient wrt the score map)
        scores = Parameter(rng.standard_normal((2, 1, 4, 4)), "scores")
        projs = rng.standard_normal(scores.shape)

        def softmax_loss(compute_grads):
            probs, cache = spatial_softmax_forward(scores.value)
            if compute_grads:
                scores.grad += spatial_softmax_backward(cache, projs)
            return float((probs * projs).sum())

        report = grad_check(softmax_loss, [scores])
        assert max(report.values()) <= 1e-4, report

        # grid-distance loss wrt affine and TPS parameters (covers the TPS
        # point transform)
        grid = geometry.make_regular_grid(10)
        for family in ("affine", "tps"):
            gt = geometry.sample_random_transform(family, rng)
            theta = Parameter(
                geometry.identity_vector(family) + 0.1 * rng.standard_normal(gt.size),
                f"theta_{family}",
            )

            def tgd_loss(compute_grads):
                losses, grads = geometry.tgd(theta.value[None], gt[None], grid)
                if compute_grads:
                    theta.grad += grads[0]
                return losses[0]

            report = grad_check(tgd_loss, [theta])
            assert max(report.values()) <= 1e-4, report

        # end-to-end loss wrt every parameter group (D=8, H=W=8); the output
        # head is perturbed off zero so gradients reach every branch
        cfg = ModelConfig(family="affine", D=8, H=8, W=8, N=8, encoder_channels=8, seed=0)
        model = AttentiveAlignmentModel(cfg)
        rng_e2e = np.random.default_rng(16)
        model.head_w.value[...] = 0.1 * rng_e2e.standard_normal(model.head_w.shape)
        f_src = l2_normalize_channels(rng_e2e.standard_normal((3, cfg.D, cfg.H, cfg.W)))
        f_trg = l2_normalize_channels(rng_e2e.standard_normal((3, cfg.D, cfg.H, cfg.W)))
        gt = geometry.sample_random_transform("affine", rng_e2e)

        def model_loss(compute_grads):
            theta_vecs, _ = model.forward_features(f_src, f_trg, mode="train")
            losses, grads = geometry.tgd(
                theta_vecs, np.broadcast_to(gt, theta_vecs.shape), grid)
            if compute_grads:
                model.backward(grads / theta_vecs.shape[0])
            return losses.mean()

        with bn_stats_restored(model.batch_norms()):
            report = grad_check(model_loss, model.parameters(), max_entries=6)
        for group_name, params in model.parameter_groups():
            worst = max(report[p.name] for p in params)
            assert worst <= 1e-4, (group_name, worst)

        elapsed = time.perf_counter() - t0
        assert elapsed < 120.0, elapsed


def test_criterion_4_paper_scale_shape_chain():
    with criterion(4, "shape chain at full scale"):
        rng = np.random.default_rng(0)
        f_src = l2_normalize_channels(rng.standard_normal((512, 15, 15)))
        f_trg = l2_normalize_channels(rng.standard_normal((512, 15, 15)))
        c = corr.normalize_correlation(corr.correlation_map(f_src[None], f_trg[None]))
        assert c.shape == (1, 225, 15, 15)
        r = corr.reorder_by_offset(c)
        assert r.shape == (1, 841, 15, 15)
        for family, theta_size in (("affine", 6), ("tps", 18)):
            cfg = ModelConfig(family=family, D=512, H=15, W=15, N=128,
                              encoder_channels=128, seed=0)
            model = AttentiveAlignmentModel(cfg)
            bank_h, _ = corr.oac_forward_direct(c, model.bank)
            assert bank_h.shape == (1, 128, 15, 15)
            theta_vec, state = model.forward_features(f_src, f_trg, mode="train")
            assert state.F.shape == (1, 128, 9, 9)
            assert state.alpha.shape == (1, 1, 9, 9)       # 81 probabilities
            assert state.alpha.size == 81
            assert state.tau.shape == (1, 128)
            assert theta_vec.shape == (theta_size,)
            assert abs(state.alpha.sum() - 1.0) <= 1e-12


def test_criterion_5_geometry_identities():
    with criterion(5, "geometric transform identities"):
        rng = np.random.default_rng(0)
        for family in ("affine", "tps"):
            for _ in range(20):
                theta = geometry.sample_random_transform(family, rng)
                grid = geometry.make_regular_grid(int(rng.integers(2, 25)))
                assert geometry.tgd(theta[None], theta[None], grid)[0][0] == 0.0
        for _ in range(50):
            tx, ty = rng.uniform(-0.5, 0.5, size=2)
            theta = np.array([1.0, 0.0, tx, 0.0, 1.0, ty])
            ident = geometry.identity_vector("affine")
            grid = geometry.make_regular_grid(int(rng.integers(2, 25)))
            loss = geometry.tgd(theta[None], ident[None], grid)[0][0]
            assert abs(loss - (tx**2 + ty**2)) <= 1e-12
        pts = rng.uniform(-1, 1, size=(500, 2))
        assert np.abs(geometry.transform(np.zeros(18), pts) - pts).max() <= 1e-10
        # the 3x3 anchor lattice, x varying fastest
        ax, ay = np.meshgrid(np.linspace(-1.0, 1.0, 3), np.linspace(-1.0, 1.0, 3), indexing="xy")
        anchors = np.stack([ax.reshape(-1), ay.reshape(-1)], axis=1)
        for _ in range(20):
            theta = geometry.sample_random_transform("tps", rng)
            disp = np.stack([theta[:9], theta[9:]], axis=1)
            assert np.abs(geometry.transform(theta, anchors) - (anchors + disp)).max() <= 1e-10


def test_criterion_6_desk_scale_learning():
    with criterion(6, "desk-scale self-supervised learning"):
        t0 = time.perf_counter()
        ratios = {}
        for seed in (0, 1, 2):
            config = pipeline.TrainConfig(batch_size=16, seed=seed)
            assert config.total_steps == 2000
            assert config.learning_rate == 2e-4
            assert (config.D, config.H, config.W) == (16, 8, 8)
            model, history, val_batch = pipeline.train(config)
            theta_vecs, _ = pipeline.predict(model, val_batch)
            val_tgd = pipeline.evaluate_tgd(theta_vecs, val_batch)
            baseline = pipeline.evaluate_tgd(
                np.tile(geometry.identity_vector("affine"), (len(val_batch), 1)), val_batch)
            ratios[seed] = val_tgd / baseline
        elapsed = time.perf_counter() - t0
        print(f"  held-out TGD / identity baseline per seed: "
              + ", ".join(f"{s}: {r:.3f}" for s, r in ratios.items())
              + f" ({elapsed:.0f}s)")
        assert all(r <= 0.2 for r in ratios.values()), ratios
        assert elapsed < 300.0, elapsed


def test_criterion_7_pck_oracle():
    with criterion(7, "keypoint-accuracy oracle"):
        config = pipeline.TrainConfig(
            batch_size=8, total_steps=1, D=4,
            H=8, W=8, N=4, encoder_channels=4,
            corpus_size=12, seed=0,
        )
        model, _, val_batch = pipeline.train(config)
        assert pipeline.evaluate_pck_synthetic(np.stack([gt for _, _, gt in val_batch]),
                                               val_batch, alpha=0.1) == 1.0
        theta_vecs, _ = pipeline.predict(model, val_batch)
        vals = [pipeline.evaluate_pck_synthetic(theta_vecs, val_batch, alpha=a)
                for a in (0.05, 0.1, 0.15)]
        assert vals[0] <= vals[1] <= vals[2], vals


def test_criterion_8_determinism(tmp_path):
    with criterion(8, "bit-identical training runs"):
        from oacnet.cli import main

        config_path = tmp_path / "train.cfg"
        config = pipeline.TrainConfig(batch_size=8, total_steps=200, corpus_size=60, seed=3)
        config_path.write_text("\n".join(config.to_lines()) + "\n")
        digests = []
        for run in ("a", "b"):
            out_dir = tmp_path / run
            assert main(["train", "--config", str(config_path),
                         "--out-dir", str(out_dir)]) == 0
            assert main(["eval", "--checkpoint", str(out_dir / "checkpoint"),
                         "--pairs", "5"]) == 0
            files = {"loss.csv": (out_dir / "loss.csv").read_bytes()}
            for f in sorted((out_dir / "checkpoint").iterdir()):
                files[f.name] = f.read_bytes()
            digests.append(files)
        assert digests[0].keys() == digests[1].keys()
        for name in digests[0]:
            assert digests[0][name] == digests[1][name], name
