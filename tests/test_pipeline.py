"""Tests for feature providers, pair generation, the training loop, and
evaluation helpers."""

import re

import numpy as np
import pytest

from oacnet import geometry, pipeline, storage
from oacnet.pipeline import (
    RandomProjectionProvider,
    TrainConfig,
    batch_loss_and_grads,
    build_corpus,
    build_provider,
    import_feature_map,
    make_procedural_image,
    train,
)
from oacnet.tensor import ShapeError, l2_normalize_channels


def small_config(**overrides):
    base = dict(
        learning_rate=2e-4, batch_size=2, total_steps=3,
        D=4, H=8, W=8, N=4,
        encoder_channels=4, seed=0,
    )
    if "corpus_dir" not in overrides:  # corpus_size is refused beside corpus_dir
        base["corpus_size"] = 12
    base.update(overrides)
    return TrainConfig(**base)


def make_batch_for(model_or_config, config, seed=0):
    """A batch of fresh procedural images, each drawn just before its transform."""
    rng = np.random.default_rng(seed)
    images = (make_procedural_image(rng, config.image_size, config.image_channels)
              for _ in range(config.batch_size))
    return pipeline.build_pairs(images, build_provider(config), config, rng)


def identity_tgd(batch):
    """Mean TGD of the identity transform on an affine batch."""
    return pipeline.evaluate_tgd(np.tile(geometry.identity_vector("affine"), (len(batch), 1)),
                                 batch)


# ---------------------------------------------------------------------------
# RandomProjectionProvider


class TestRandomProjectionProvider:
    def test_same_image_same_seed_identical(self):
        rng = np.random.default_rng(0)
        image = make_procedural_image(rng, 32, 3)
        a = RandomProjectionProvider(8, 8, 8, channels=3, seed=5)(image)
        b = RandomProjectionProvider(8, 8, 8, channels=3, seed=5)(image)
        assert np.array_equal(a, b)

    def test_different_seed_differs(self):
        rng = np.random.default_rng(0)
        image = make_procedural_image(rng, 32, 3)
        a = RandomProjectionProvider(8, 8, 8, channels=3, seed=5)(image)
        b = RandomProjectionProvider(8, 8, 8, channels=3, seed=6)(image)
        assert not np.array_equal(a, b)

    def test_constant_image_columns_identical(self):
        provider = RandomProjectionProvider(8, 8, 8, channels=2, seed=1)
        feat = provider(np.full((2, 32, 32), 0.7))
        ref = feat[:, 0, 0]
        assert np.array_equal(feat, np.broadcast_to(ref[:, None, None], feat.shape))

    def test_column_norms_zero_or_one(self):
        rng = np.random.default_rng(3)
        provider = RandomProjectionProvider(16, 8, 8, channels=3, seed=2)
        feat = provider(make_procedural_image(rng, 32, 3))
        norms = np.linalg.norm(feat, axis=0)
        assert np.all((norms == 0.0) | (np.abs(norms - 1.0) <= 1e-12))

    def test_one_cell_shift_shifts_columns(self):
        # Shifting the image by exactly one pooling cell reproduces the
        # neighbor's patch content, so feature columns shift by one cell.
        rng = np.random.default_rng(4)
        provider = RandomProjectionProvider(8, 8, 8, channels=1, seed=3)
        image = make_procedural_image(rng, 32, 1)
        shifted = np.roll(image, provider.fx, axis=2)
        feat = provider(image)
        feat_shifted = provider(shifted)
        assert np.array_equal(feat_shifted[:, :, 1:], feat[:, :, :-1])

    def test_frozen_no_trainable_parameters(self):
        config = small_config()
        model, _, _ = train(config)
        names = {p.name for p in model.parameters()}
        assert not any("projection" in n for n in names)

    def test_indivisible_dims_rejected(self):
        with pytest.raises(ShapeError):
            RandomProjectionProvider(8, 7, 7, image_size=32)

    def test_wrong_image_size_rejected(self):
        provider = RandomProjectionProvider(8, 8, 8, channels=1, image_size=32)
        for shape in ((1, 16, 16), (3, 32, 32)):
            with pytest.raises(ShapeError, match=r"expects \(1, 32, 32\) images"):
                provider(np.zeros(shape))


class TestImportFeatureMap:
    def test_round_trip_bitwise_before_normalization(self, tmp_path):
        rng = np.random.default_rng(0)
        arr = np.abs(rng.standard_normal((4, 3, 3)))
        path = str(tmp_path / "feat.oact")
        storage.save_tensor(path, arr)
        assert np.array_equal(storage.load_tensor(path), arr)
        feat = import_feature_map(path)
        norms = np.linalg.norm(feat, axis=0)
        assert np.all((norms == 0.0) | (np.abs(norms - 1.0) <= 1e-12))

    def test_rank_2_rejected(self, tmp_path):
        path = str(tmp_path / "bad.oact")
        storage.save_tensor(path, np.ones((4, 4)))
        with pytest.raises(ShapeError):
            import_feature_map(path)

    def test_paper_scale_map_accepted(self, tmp_path):
        rng = np.random.default_rng(1)
        path = str(tmp_path / "big.oact")
        storage.save_tensor(path, rng.standard_normal((512, 15, 15)))
        feat = import_feature_map(path)
        assert feat.shape == (512, 15, 15)
        assert np.allclose(np.linalg.norm(feat, axis=0), 1.0, atol=1e-12)


# ---------------------------------------------------------------------------
# Procedural corpus and pair generation


class TestProceduralCorpus:
    def test_range_and_shape(self):
        rng = np.random.default_rng(0)
        img = make_procedural_image(rng, 32, 16)
        assert img.shape == (16, 32, 32)
        assert img.min() >= 0.0 and img.max() <= 1.0

    def test_deterministic_given_seed(self):
        a = make_procedural_image(np.random.default_rng(7), 32, 3)
        b = make_procedural_image(np.random.default_rng(7), 32, 3)
        assert np.array_equal(a, b)

    def test_build_corpus_size_and_channels(self):
        config = small_config(corpus_size=5, image_channels=6)
        corpus = build_corpus(config, np.random.default_rng(0))
        assert len(corpus) == 5
        assert all(im.shape == (6, 32, 32) for im in corpus)

    def test_build_corpus_from_directory(self, tmp_path):
        rng = np.random.default_rng(0)
        for i in range(3):
            img = (rng.uniform(size=(1, 16, 16)) * 255).astype(np.uint8) / 255.0
            storage.save_image(str(tmp_path / f"im{i}.pgm"), img)
        config = small_config(corpus_dir=str(tmp_path), image_size=16, image_channels=1)
        corpus = build_corpus(config, rng)
        assert len(corpus) == 3

    def test_directory_image_of_another_shape_rejected(self, tmp_path):
        storage.save_image(str(tmp_path / "a.pgm"), np.zeros((1, 16, 16)))
        storage.save_image(str(tmp_path / "b.ppm"), np.zeros((3, 16, 16)))
        config = small_config(corpus_dir=str(tmp_path), image_size=16, image_channels=1)
        with pytest.raises(storage.StorageError, match=r"b\.ppm: image shape \(3, 16, 16\)"):
            build_corpus(config, np.random.default_rng(0))

    def test_single_image_directory_rejected(self, tmp_path):
        # training holds out one image at least, so one image leaves none to train on
        storage.save_image(str(tmp_path / "a.pgm"), np.zeros((1, 16, 16)))
        config = small_config(corpus_dir=str(tmp_path), image_size=16, image_channels=1)
        with pytest.raises(storage.StorageError, match=rf"^{re.escape(str(tmp_path))}: 1 "
                                                       r"P5/P6 image\(s\) found, training "
                                                       r"needs 2 or more: it holds out"):
            build_corpus(config, np.random.default_rng(0))

    def test_empty_directory_rejected(self, tmp_path):
        config = small_config(corpus_dir=str(tmp_path))
        with pytest.raises(storage.StorageError):
            build_corpus(config, np.random.default_rng(0))


def crop_pairs(images, family, rng):
    """build_pairs with the identity as provider: (source, target, theta_gt) crops."""
    return pipeline.build_pairs(images, lambda crop: crop, small_config(family=family), rng)


class TestGeneratePair:
    """Pairs as build_pairs makes them; a 32-px image's default pad is 8."""

    def test_identity_transform_source_equals_target(self):
        rng = np.random.default_rng(0)
        image = make_procedural_image(rng, 32, 3)
        trg = geometry.mirror_pad_center_crop(image, 8, geometry.identity_vector("affine"))
        assert np.array_equal(image, trg)

    def test_fixed_seed_reproducible(self):
        image = make_procedural_image(np.random.default_rng(1), 32, 3)
        [a] = crop_pairs([image], "affine", np.random.default_rng(5))
        [b] = crop_pairs([image], "affine", np.random.default_rng(5))
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])
        assert np.array_equal(a[2], b[2])

    def test_crops_share_shape(self):
        image = make_procedural_image(np.random.default_rng(2), 32, 3)
        for family in ("affine", "tps"):
            [(source, target, theta_gt)] = crop_pairs([image], family, np.random.default_rng(3))
            assert source.shape == target.shape
            assert theta_gt.shape == geometry.identity_vector(family).shape

    def test_sampled_pairs_have_positive_identity_loss(self):
        # Any non-identity draw must cost the identity prediction something.
        rng = np.random.default_rng(11)
        image = make_procedural_image(rng, 32, 1)
        grid = geometry.make_regular_grid(20)
        ident = geometry.identity_vector("affine")[None]
        vals = []
        for _, _, theta_gt in crop_pairs([image] * 1000, "affine", rng):
            vals.append(geometry.tgd(ident, theta_gt[None], grid)[0][0])
        assert min(vals) > 0.0

    def test_pad_grows_to_the_border_reach_and_stays_below_the_side(self, monkeypatch):
        image = make_procedural_image(np.random.default_rng(4), 32, 3)
        # a shift of 0.7 crop half-widths reaches 0.7 * 31 / 2 = 10.85 px past
        # the border: the quarter pad 8 grows to 12
        theta = np.array([1, 0, 0.7, 0, 1, 0.0])
        monkeypatch.setattr(geometry, "sample_random_transform", lambda *a, **k: theta)
        [(source, target, theta_gt)] = crop_pairs([image], "affine", np.random.default_rng(0))
        assert source is image and theta_gt is theta
        with pytest.raises(ValueError, match="pad 8 too small"):
            geometry.mirror_pad_center_crop(image, 8, theta)
        assert target.tobytes() == geometry.mirror_pad_center_crop(image, 12, theta).tobytes()
        # a shift of 2.1 half-widths needs 34 px, more than the side - 1 = 31
        theta = np.array([1, 0, 2.1, 0, 1, 0.0])
        monkeypatch.setattr(geometry, "sample_random_transform", lambda *a, **k: theta)
        with pytest.raises(ValueError, match="pad 31 too small"):
            crop_pairs([image], "affine", np.random.default_rng(0))


class TestMakeBatch:
    @pytest.mark.parametrize("family", ["affine", "tps"])
    def test_rng_draw_order(self, family):
        # per pair: the image index, then the transform; nothing else draws
        config = small_config(batch_size=5, family=family)
        images = build_corpus(config, np.random.default_rng(0))
        provider = build_provider(config)
        rng = np.random.default_rng(21)
        batch = pipeline._make_batch(images, provider, config, rng, None)
        ref = np.random.default_rng(21)
        for _, _, theta_gt in batch:
            ref.integers(len(images))
            drawn = geometry.sample_random_transform(family, ref, grid_n=config.tps_grid)
            assert np.array_equal(drawn, theta_gt)
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_provider_gemm_bit_equals_einsum(self):
        rng = np.random.default_rng(22)
        for D, n, channels in ((16, 8, 16), (8, 4, 3)):
            provider = RandomProjectionProvider(D, n, n, channels=channels, seed=5)
            image = rng.uniform(0, 1, (channels, 32, 32))
            patches = image.reshape(channels, n, 32 // n, n, 32 // n)
            patches = patches.transpose(1, 3, 0, 2, 4).reshape(n, n, -1)
            feat = np.einsum("dp,hwp->dhw", provider.projection, patches, optimize=True)
            expected = l2_normalize_channels(np.maximum(feat, 0.0))
            assert np.array_equal(provider(image), expected)


# ---------------------------------------------------------------------------
# TrainConfig


class TestTrainConfig:
    def test_defaults(self):
        config = TrainConfig()
        assert config.learning_rate == 2e-4
        assert config.batch_size == 32
        assert config.total_steps == 2000

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "train.cfg"
        path.write_text("momentum = 0.9\n")
        where = re.escape(str(path))
        with pytest.raises(storage.StorageError, match=f"^{where}:1: unknown key 'momentum'"):
            TrainConfig.from_file(str(path))

    @pytest.mark.parametrize("key, value", [
        ("batch_size", "4x8"), ("batch_size", "2.5"), ("learning_rate", "fast"),
    ])
    def test_bad_values_rejected(self, key, value, tmp_path):
        path = tmp_path / "train.cfg"
        path.write_text(f"{key} = {value}\n")
        where = re.escape(str(path))
        with pytest.raises(storage.StorageError, match=f"^{where}:1: {key}: expected"):
            TrainConfig.from_file(str(path))

    @pytest.mark.parametrize("overrides", [
        dict(H=5), dict(W=6), dict(H=4, W=4),
    ])
    def test_feature_grid_checked(self, overrides):
        # each grid is smaller than the encoder kernel, which ModelConfig's
        # check refuses (ShapeError) before TrainConfig's own divisibility
        # check (ValueError) runs
        with pytest.raises((ValueError, ShapeError)):
            TrainConfig(**overrides)

    @pytest.mark.parametrize("grid", ["1", "0", "-2"])
    def test_degenerate_tps_grid_rejected(self, grid, tmp_path):
        path = tmp_path / "train.cfg"
        path.write_text(f"family = tps\ntps_grid = {grid}\n")
        with pytest.raises(storage.StorageError, match=f"^{re.escape(str(path))}: tps_grid"):
            TrainConfig.from_file(str(path))

    def test_nonpositive_values_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=-1.0)
        with pytest.raises(ValueError):
            TrainConfig(oac_path="fastest")

    def test_zero_learning_rate_allowed(self):
        assert TrainConfig(learning_rate=0.0).learning_rate == 0.0

    def test_file_round_trip(self, tmp_path):
        config = small_config(family="tps", learning_rate=1e-3)
        path = tmp_path / "train.cfg"
        path.write_text("\n".join(config.to_lines()) + "\n")
        loaded = TrainConfig.from_file(str(path))
        assert loaded == config

    def test_from_file_unknown_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("learning_rate = 0.1\nwarmup = 5\n")
        with pytest.raises(storage.StorageError):
            TrainConfig.from_file(str(path))


# ---------------------------------------------------------------------------
# Training loop


class TestTrain:
    def test_zero_learning_rate_parameters_unchanged(self):
        config = small_config(learning_rate=0.0)
        init_model = pipeline.AttentiveAlignmentModel(config)
        init = {name: arr.copy() for name, arr in init_model.state_tensors().items()}
        model, _, _ = train(config)
        final = model.state_tensors()
        for name, tensor in init.items():
            if "running" in name or "num_updates" in name:
                continue  # batch-norm statistics update outside the optimizer
            assert np.array_equal(tensor, final[name]), name

    def test_initial_loss_matches_identity_baseline(self):
        # The output head starts at the identity offset, so the first batch
        # costs exactly what an identity prediction would.
        config = small_config()
        model = pipeline.AttentiveAlignmentModel(config)
        batch = make_batch_for(model, config, seed=9)
        grid = geometry.make_regular_grid(20)
        loss = batch_loss_and_grads(model, batch, grid, mode="train")
        assert loss == pytest.approx(identity_tgd(batch), abs=1e-12)

    def test_bit_reproducible(self):
        config = small_config(total_steps=5)
        model_a, hist_a, val_a = train(config)
        model_b, hist_b, val_b = train(config)
        assert hist_a == hist_b
        state_a = model_a.state_tensors()
        state_b = model_b.state_tensors()
        assert state_a.keys() == state_b.keys()
        for name in state_a:
            assert np.array_equal(state_a[name], state_b[name]), name
        for (fa, ga, _), (fb, gb, _) in zip(val_a, val_b):
            assert np.array_equal(fa, fb) and np.array_equal(ga, gb)

    def test_loss_history_length_and_steps(self):
        config = small_config(total_steps=6)
        _, history, _ = train(config)
        assert [s for s, _ in history] == list(range(1, 7))

    def test_provider_frozen_across_training(self):
        config = small_config()
        image = make_procedural_image(np.random.default_rng(0), 32, config.image_channels)
        before = build_provider(config)(image)
        train(config)
        after = build_provider(config)(image)
        assert np.array_equal(before, after)

    def test_divergence_guard_aborts(self, monkeypatch):
        config = small_config(total_steps=150)
        calls = {"n": 0}

        def exploding_loss(model, batch, loss_grid, mode="train"):
            calls["n"] += 1
            return 0.1 if calls["n"] == 1 else 100.0

        monkeypatch.setattr(pipeline, "batch_loss_and_grads", exploding_loss)
        with pytest.raises(pipeline.DivergenceError):
            train(config)
        # step 1 sets the reference, then 100 consecutive over-budget steps
        assert calls["n"] == 101

    def test_divergence_message_names_last_healthy_step(self, monkeypatch):
        config = small_config(total_steps=150)
        calls = {"n": 0}

        def late_explosion(model, batch, loss_grid, mode="train"):
            calls["n"] += 1
            return 0.1 if calls["n"] <= 7 else 100.0

        monkeypatch.setattr(pipeline, "batch_loss_and_grads", late_explosion)
        with pytest.raises(pipeline.DivergenceError, match="last step within budget: 7$"):
            train(config)
        assert calls["n"] == 107

    def test_divergence_guard_resets_on_recovery(self, monkeypatch):
        config = small_config(total_steps=160)
        calls = {"n": 0}

        def bouncing_loss(model, batch, loss_grid, mode="train"):
            calls["n"] += 1
            return 0.1 if calls["n"] % 90 == 1 else 100.0

        monkeypatch.setattr(pipeline, "batch_loss_and_grads", bouncing_loss)
        train(config)  # streak never reaches 100, so no abort

    def test_desk_scale_loss_below_baseline_after_warmup(self):
        # Smoke property: a healthy short run drops under the identity
        # baseline within the first tenth of its steps and stays there,
        # for every seed tried.
        for seed in (0, 1, 2):
            config = TrainConfig(batch_size=16, total_steps=1000, corpus_size=100, seed=seed)
            model, history, val_batch = train(config)
            baseline = identity_tgd(val_batch)
            tail = [loss for step, loss in history if step > config.total_steps // 10]
            assert max(tail) < baseline, f"seed {seed}"


# ---------------------------------------------------------------------------
# Evaluation


class TestEvaluate:
    def warmed_identity_model(self, config):
        model = pipeline.AttentiveAlignmentModel(config)
        batch = make_batch_for(model, config, seed=1)
        grid = geometry.make_regular_grid(20)
        batch_loss_and_grads(model, batch, grid, mode="train")
        return model

    def identity_batch(self, config, n=4):
        rng = np.random.default_rng(2)
        provider = build_provider(config)
        ident = geometry.identity_vector("affine")
        batch = []
        for _ in range(n):
            image = make_procedural_image(rng, config.image_size, config.image_channels)
            trg = geometry.mirror_pad_center_crop(image, 8, ident)
            batch.append((provider(image), provider(trg), ident))
        return batch

    def test_identity_model_on_identity_pairs_zero_tgd(self):
        config = small_config()
        model = self.warmed_identity_model(config)
        batch = self.identity_batch(config)
        thetas, _ = pipeline.predict(model, batch)
        assert pipeline.evaluate_tgd(thetas, batch) == 0.0

    def test_injected_ground_truth_gives_perfect_pck(self):
        config = small_config()
        batch = make_batch_for(None, config, seed=3)
        pck = pipeline.evaluate_pck_synthetic(np.stack([gt for _, _, gt in batch]), batch,
                                              alpha=0.1)
        assert pck == 1.0

    def test_pck_monotone_in_alpha(self):
        config = small_config()
        model = self.warmed_identity_model(config)
        batch = make_batch_for(model, config, seed=4)
        thetas, _ = pipeline.predict(model, batch)
        vals = [
            pipeline.evaluate_pck_synthetic(thetas, batch, alpha=a)
            for a in (0.05, 0.1, 0.15)
        ]
        assert vals[0] <= vals[1] <= vals[2]

    def test_evaluate_tgd_matches_manual(self):
        config = small_config()
        model = self.warmed_identity_model(config)
        batch = make_batch_for(model, config, seed=5)
        grid = geometry.make_regular_grid(20)
        thetas, state = pipeline.predict(model, batch)
        val = pipeline.evaluate_tgd(thetas, batch)
        f_src = np.stack([b[0] for b in batch])
        f_trg = np.stack([b[1] for b in batch])
        theta_vecs, _ = model.forward_features(f_src, f_trg, mode="eval")
        manual = np.mean([
            geometry.tgd(theta_vecs[i][None], gt[None], grid)[0][0]
            for i, (_, _, gt) in enumerate(batch)
        ])
        assert val == pytest.approx(manual, rel=1e-12)
        assert np.allclose(state.alpha.sum(axis=(-2, -1)), 1.0, atol=1e-12)
