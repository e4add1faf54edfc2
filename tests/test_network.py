"""Tests for the encoder + attention head end to end, plus checkpointing."""

import os
import tracemalloc
import weakref

import numpy as np
import pytest

from oacnet import correlation, geometry, network, pipeline, storage, tensor
from oacnet.network import AttentiveAlignmentModel, ModelConfig
from oacnet.tensor import (
    Adam,
    BatchNorm,
    Parameter,
    ShapeError,
    conv2d_forward,
    l2_normalize_channels,
    relu_forward,
)

from gradcheck import bn_stats_restored, grad_check
from test_tensor import conv2d_im2col_reference


def config_from_text(tmp_path, text):
    path = tmp_path / "config.txt"
    path.write_text(text)
    return ModelConfig.from_file(str(path))


def tiny_config(**overrides):
    base = dict(family="affine", D=8, H=8, W=8, N=8, encoder_channels=8, seed=0)
    base.update(overrides)
    return ModelConfig(**base)


def random_features(cfg, B=2, seed=0):
    rng = np.random.default_rng(seed)
    f_src = l2_normalize_channels(rng.standard_normal((B, cfg.D, cfg.H, cfg.W)))
    f_trg = l2_normalize_channels(rng.standard_normal((B, cfg.D, cfg.H, cfg.W)))
    return f_src, f_trg


def warmed_model(cfg, seed=0):
    """Model with one training-mode pass so eval-mode BN has statistics."""
    model = AttentiveAlignmentModel(cfg)
    f_src, f_trg = random_features(cfg, B=4, seed=seed + 100)
    model.forward_features(f_src, f_trg, mode="train")
    return model


class TestModelConfig:
    def test_derived_shapes(self):
        cfg = ModelConfig(D=512, H=15, W=15, N=128)
        assert (cfg.Hh, cfg.Wh) == (9, 9)
        assert cfg.Q == 6
        assert ModelConfig(family="tps", D=8, H=8, W=8).Q == 18

    @pytest.mark.parametrize("cfg,ec", [(pipeline.TrainConfig(), 32),
                                        (ModelConfig(), 128)], ids=["desk", "paper"])
    def test_g_and_s_widths_follow_encoder_channels(self, cfg, ec):
        # the desk and paper models keep the shapes they had when the G and S
        # widths were keys of their own (32/32/16 and 128/128/64)
        shapes = {p.name: p.value.shape for p in AttentiveAlignmentModel(cfg).parameters()}
        assert cfg.encoder_channels == ec
        assert {k: shapes[k] for k in ("g1.w", "g2.w", "s1.w", "s2.w", "head.w")} == {
            "g1.w": (ec, ec + 5, 1, 1), "g2.w": (ec, ec, 1, 1),
            "s1.w": (ec // 2, ec, 1, 1), "s2.w": (1, ec // 2, 1, 1), "head.w": (6, ec)}

    def test_too_small_feature_map_rejected(self):
        with pytest.raises(ShapeError):
            ModelConfig(D=8, H=6, W=6)

    @pytest.mark.parametrize("grid", ["1", "0"])
    def test_degenerate_tps_grid_rejected(self, grid, tmp_path):
        with pytest.raises(storage.StorageError, match="tps_grid"):
            config_from_text(tmp_path, f"family = tps\nD = 8\nH = 8\nW = 8\ntps_grid = {grid}\n")

    def test_tps_grid_upper_bound(self):
        top = geometry.TPS_MAX_GRID
        assert ModelConfig(family="tps", D=8, H=8, W=8, tps_grid=top).Q == 2 * top * top
        for family in ("tps", "affine"):
            with pytest.raises(ValueError, match=f"tps_grid must be in \\[2, {top}\\]"):
                ModelConfig(family=family, D=8, H=8, W=8, tps_grid=top + 1)

    def test_negative_seed_rejected_naming_file(self, tmp_path):
        with pytest.raises(storage.StorageError,
                           match=f"^{tmp_path / 'config.txt'}: seed must be >= 0, got -1$"):
            config_from_text(tmp_path, "D = 8\nH = 8\nW = 8\nseed = -1\n")

    def test_unknown_oac_path_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="oac_path"):
            ModelConfig(oac_path="bogus")
        with pytest.raises(storage.StorageError, match="oac_path"):
            config_from_text(tmp_path, "D = 8\nH = 8\nW = 8\noac_path = dircet\n")

    def test_round_trip_through_lines(self, tmp_path):
        cfg = tiny_config(family="tps", oac_path="reordered")
        assert config_from_text(tmp_path, "\n".join(cfg.to_lines())) == cfg

    @pytest.mark.parametrize("key, value", [
        ("oac_bias", "TRUE"), ("oac_bias", "yes"), ("oac_bias", "1"), ("N", "4x8"),
        ("N", "8.0"), ("embedding_kind", "learned"), ("oac_bias", "true"), ("embed_dim", "5"),
    ])
    def test_bad_values_rejected(self, key, value, tmp_path):
        with pytest.raises(storage.StorageError, match=f":1: .*{key}"):
            config_from_text(tmp_path, f"{key} = {value}\n")


class TestEncoder:
    def test_paper_scale_shape(self):
        # checked through conv2d directly to keep this test fast
        out, _ = conv2d_forward(np.zeros((1, 128, 15, 15)), np.zeros((128, 128, 7, 7)),
                                np.zeros(128))
        assert out.shape == (1, 128, 9, 9)

    def test_zero_input_zero_params_gives_zero(self):
        h = np.zeros((4, 8, 8, 8))
        w = np.zeros((8, 8, 7, 7))
        z, _ = conv2d_forward(h, w, np.zeros(8))
        bn = BatchNorm(8)
        bn.beta.value[...] = 0.0
        z2, _ = bn.forward(z, "train")
        out, _ = relu_forward(z2)
        assert np.array_equal(out, np.zeros_like(out))

    def test_matches_reference_composition(self):
        cfg = tiny_config()
        model = AttentiveAlignmentModel(cfg)
        rng = np.random.default_rng(1)
        h = np.abs(rng.standard_normal((2, cfg.N, cfg.H, cfg.W)))
        z, _ = conv2d_forward(h, model.encoder.w.value, model.encoder.b.value)
        zn, _ = model.encoder.bn.forward(z, "train")
        ref, _ = relu_forward(zn)
        # drive the same tensors through the model's forward path
        zero = np.zeros((2, cfg.D, cfg.H, cfg.W))  # its correlation map is zero
        _, state = model.forward_features(zero, zero, mode="train")
        # with a zero correlation map, h = relu(bias) broadcast; compare that case
        h_zero = np.broadcast_to(
            np.maximum(model.bank.bias.value, 0.0)[None, :, None, None],
            (2, cfg.N, cfg.H, cfg.W),
        )
        z0, _ = conv2d_forward(h_zero, model.encoder.w.value, model.encoder.b.value)
        zn0, _ = model.encoder.bn.forward(z0, "train")
        ref0, _ = relu_forward(zn0)
        assert np.allclose(state.F, ref0, atol=1e-12)
        assert ref.shape == (2, cfg.encoder_channels, cfg.Hh, cfg.Wh)


class TestAttention:
    def test_zero_s_weights_give_uniform_alpha(self):
        cfg = tiny_config()
        model = AttentiveAlignmentModel(cfg)
        model.s2_w.value[...] = 0.0
        f_src, f_trg = random_features(cfg)
        _, state = model.forward_features(f_src, f_trg, mode="train")
        n = cfg.Hh * cfg.Wh
        assert np.allclose(state.alpha, 1.0 / n, atol=1e-12)

    def test_alpha_sums_to_one(self):
        cfg = tiny_config()
        model = AttentiveAlignmentModel(cfg)
        f_src, f_trg = random_features(cfg, seed=2)
        _, state = model.forward_features(f_src, f_trg, mode="train")
        sums = state.alpha.reshape(state.alpha.shape[0], -1).sum(axis=1)
        assert np.allclose(sums, 1.0, atol=1e-12)

    def test_score_shift_leaves_theta_unchanged(self):
        cfg = tiny_config()
        f_src, f_trg = random_features(cfg, seed=3)
        model = warmed_model(cfg)
        theta_a, _ = model.forward_features(f_src, f_trg, mode="eval")
        # an output-side constant shift of S: inject via the hidden bias along
        # a dead unit is intricate; instead verify on the softmax directly and
        # through theta by shifting scores in a copied forward
        from oacnet.tensor import spatial_softmax_forward

        _, state = model.forward_features(f_src, f_trg, mode="eval")
        a1, _ = spatial_softmax_forward(state.scores)
        a2, _ = spatial_softmax_forward(state.scores + 3.7)
        assert np.allclose(a1, a2, atol=1e-12)
        theta_b, _ = model.forward_features(f_src, f_trg, mode="eval")
        assert np.allclose(theta_a, theta_b, atol=1e-10)

    def test_tau_in_convex_hull(self):
        cfg = tiny_config()
        model = warmed_model(cfg, seed=4)
        f_src, f_trg = random_features(cfg, seed=4)
        model.forward_features(f_src, f_trg, mode="train")
        g2a = model._cache["g2a"]  # (B, encoder_channels, Hh, Wh)
        tau = model._cache["tau"]
        lo = g2a.min(axis=(2, 3))
        hi = g2a.max(axis=(2, 3))
        assert np.all(tau >= lo - 1e-10)
        assert np.all(tau <= hi + 1e-10)

    def test_one_hot_alpha_selects_single_location(self):
        cfg = tiny_config()
        model = warmed_model(cfg, seed=5)
        f_src, f_trg = random_features(cfg, B=1, seed=5)
        # drive scores to a near-one-hot by saturating S's output weight
        model.forward_features(f_src, f_trg, mode="train")
        g2a = model._cache["g2a"][0]
        alpha = np.zeros((1, 1, cfg.Hh, cfg.Wh))
        alpha[0, 0, 1, 0] = 1.0
        tau_ref = g2a[:, 1, 0]
        tau = np.einsum("dhw,hw->d", g2a, alpha[0, 0])
        assert np.allclose(tau, tau_ref, atol=1e-14)


class TestPredictTheta:
    def test_fresh_model_predicts_identity(self):
        for family, ident in [("affine", geometry.identity_vector("affine")),
                              ("tps", np.zeros(18))]:
            cfg = tiny_config(family=family)
            model = AttentiveAlignmentModel(cfg)
            f_src, f_trg = random_features(cfg, seed=6)
            theta, _ = model.forward_features(f_src, f_trg, mode="train")
            assert np.allclose(theta, ident[None, :], atol=1e-12)

    def test_zero_head_ignores_input(self):
        cfg = tiny_config()
        model = warmed_model(cfg, seed=7)
        model.head_w.value[...] = 0.0
        for seed in (8, 9):
            f_src, f_trg = random_features(cfg, seed=seed)
            theta, _ = model.forward_features(f_src, f_trg, mode="eval")
            assert np.allclose(theta, geometry.identity_vector("affine")[None], atol=1e-14)

    def test_head_is_plain_matrix_product(self):
        cfg = tiny_config()
        model = warmed_model(cfg, seed=10)
        rng = np.random.default_rng(11)
        model.head_w.value[...] = rng.standard_normal(model.head_w.shape)
        f_src, f_trg = random_features(cfg, B=1, seed=10)
        theta, state = model.forward_features(f_src, f_trg, mode="eval")
        tau = state.tau[0]
        expected = model.head_w.value @ tau + geometry.identity_vector("affine")
        assert np.allclose(theta, expected, atol=1e-12)


class TestForward:
    def test_paper_scale_shape_chain(self):
        cfg = ModelConfig(family="affine", D=32, H=15, W=15, N=16, encoder_channels=8)
        model = AttentiveAlignmentModel(cfg)
        f_src, f_trg = random_features(cfg, B=1, seed=12)
        theta, state = model.forward_features(f_src[0], f_trg[0], mode="train")
        assert theta.shape == (6,)
        assert state.alpha.shape == (1, 1, 9, 9)

    def test_deterministic(self):
        cfg = tiny_config()
        f_src, f_trg = random_features(cfg, seed=13)
        t1, _ = AttentiveAlignmentModel(cfg).forward_features(f_src, f_trg, mode="train")
        t2, _ = AttentiveAlignmentModel(cfg).forward_features(f_src, f_trg, mode="train")
        assert np.array_equal(t1, t2)

    def test_path_swap_changes_little(self):
        f_src, f_trg = random_features(tiny_config(), seed=14)
        thetas = []
        for path in ("direct", "reordered"):
            cfg = tiny_config(oac_path=path)
            model = AttentiveAlignmentModel(cfg)
            t, _ = model.forward_features(f_src, f_trg, mode="train")
            thetas.append(t)
        assert np.max(np.abs(thetas[0] - thetas[1])) < 1e-9

    def test_eval_mode_is_pure(self):
        cfg = tiny_config()
        model = warmed_model(cfg, seed=15)
        f_src, f_trg = random_features(cfg, seed=15)
        stats_before = [(bn.running_mean.copy(), bn.running_var.copy(), bn.num_updates)
                        for bn in model.batch_norms()]
        model.forward_features(f_src, f_trg, mode="eval")
        for bn, (m, v, n) in zip(model.batch_norms(), stats_before):
            assert np.array_equal(bn.running_mean, m)
            assert np.array_equal(bn.running_var, v)
            assert bn.num_updates == n

    def test_end_to_end_gradients_all_groups(self):
        cfg = tiny_config()
        model = AttentiveAlignmentModel(cfg)
        # make the head nonzero so gradients reach every branch
        rng = np.random.default_rng(16)
        model.head_w.value[...] = 0.1 * rng.standard_normal(model.head_w.shape)
        f_src, f_trg = random_features(cfg, B=3, seed=16)
        gt = geometry.sample_random_transform("affine", rng)
        grid = geometry.make_regular_grid(10)

        def loss_fn(compute_grads):
            theta_vecs, _ = model.forward_features(f_src, f_trg, mode="train")
            losses, grads = geometry.tgd(
                theta_vecs, np.broadcast_to(gt, theta_vecs.shape), grid)
            if compute_grads:
                model.backward(grads / theta_vecs.shape[0])
            return losses.mean()

        with bn_stats_restored(model.batch_norms()):
            report = grad_check(loss_fn, model.parameters(), max_entries=6)
        assert max(report.values()) < 1e-4, report


class TestBackward:
    """Backprop stops at the OAC bank, and the layer caches, the encoder's
    Winograd U and V included, live no longer than one training step."""

    @pytest.mark.parametrize("path", ["direct", "reordered"])
    @pytest.mark.parametrize("B", [1, 3])
    def test_parameter_gradients_match_full_oac_backward(self, path, B, monkeypatch):
        """The model's backward ends in one call of its path's OAC backward,
        which returns None, and the bank's gradients match those of the other
        path run on the same correlation map and upstream gradient."""
        cfg = tiny_config(oac_path=path)
        f_src, f_trg = random_features(cfg, B=B, seed=40)
        rng = np.random.default_rng(41)
        dtheta = rng.standard_normal((B, cfg.Q))
        model = AttentiveAlignmentModel(cfg)
        # off zero, so gradients reach every branch
        model.head_w.value[...] = 0.1 * rng.standard_normal(model.head_w.shape)

        paths = {"direct": (correlation.oac_forward_direct, correlation.oac_backward_direct),
                 "reordered": (correlation.oac_forward_reordered,
                               correlation.oac_backward_reordered)}
        calls = []  # (path, what the OAC backward returned, its upstream gradient)
        for name, (_, bwd) in paths.items():
            def recorded(cache, bank, grad_h, _name=name, _bwd=bwd):
                calls.append((_name, _bwd(cache, bank, grad_h), grad_h.copy()))

            monkeypatch.setattr(correlation, f"oac_backward_{name}", recorded)
        model.forward_features(f_src, f_trg, mode="train")
        assert model.backward(dtheta) is None
        [(called, returned, grad_h)] = calls
        assert called == path and returned is None

        fwd, bwd = paths["reordered" if path == "direct" else "direct"]
        bank = correlation.OacKernelBank(cfg.N, cfg.H, cfg.W, rng)
        bank.weights.value[...] = model.bank.weights.value
        bank.bias.value[...] = model.bank.bias.value
        c = correlation.normalize_correlation(correlation.correlation_map(f_src, f_trg))
        _, cache = fwd(c, bank)
        bwd(cache, bank, grad_h)
        assert np.max(np.abs(bank.weights.grad - model.bank.weights.grad)) <= 1e-8
        assert np.max(np.abs(bank.bias.grad - model.bank.bias.grad)) <= 1e-12

    def test_no_layer_cache_outlives_backward_or_eval_forward(self):
        cfg = tiny_config()
        model = warmed_model(cfg)
        f_src, f_trg = random_features(cfg, seed=42)
        diagnostics = {"F", "g2a", "tau", "alpha"}
        model.forward_features(f_src, f_trg, mode="train")
        model.backward(np.ones((2, cfg.Q)))
        assert set(model._cache) == diagnostics
        model.forward_features(f_src, f_trg, mode="train")
        model.forward_features(f_src, f_trg, mode="eval")
        assert model._cache is None
        with pytest.raises(RuntimeError, match="train-mode forward"):
            model.backward(np.zeros((2, cfg.Q)))

    def test_second_step_peaks_no_higher_than_first(self):
        # N=64 kernels make the encoder's Winograd V and U (81*64*8 values,
        # 330 KB each) among the largest arrays a step holds, so a step that
        # kept the previous step's alive would peak that much higher
        cfg = tiny_config(N=64)
        model = AttentiveAlignmentModel(cfg)
        optimizer = Adam(model.parameters())
        f_src, f_trg = random_features(cfg, B=8, seed=43)
        rng = np.random.default_rng(44)
        batch = [(f_src[i], f_trg[i], geometry.sample_random_transform("affine", rng))
                 for i in range(8)]
        grid = geometry.make_regular_grid(5)
        tracemalloc.start()
        try:
            peaks = []
            for _ in range(2):
                tracemalloc.reset_peak()
                pipeline.batch_loss_and_grads(model, batch, grid, mode="train")
                optimizer.step()
                peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 64 * 1024, peaks


def winograd_config(**overrides):
    # 32 -> 32 channels on a 15x15 map, nine 3x3 output tiles per pair
    return tiny_config(D=8, H=15, W=15, N=32, encoder_channels=32, **overrides)


def same_weights(model):
    """A freshly built model holding `model`'s parameters and batch-norm statistics."""
    fresh = AttentiveAlignmentModel(model.config)
    for p, q in zip(model.parameters(), fresh.parameters()):
        q.value[...] = p.value
    for (bn, stat, _), (fresh_bn, _, _) in zip(model._bn_stats(), fresh._bn_stats()):
        setattr(fresh_bn, stat, getattr(bn, stat))
    return fresh


class TestWinogradKernelCache:
    def _changed(self, model, change, tmp_path):
        """model after one change of its weights, the way `change` names."""
        if change == "adam-step":
            f_src, f_trg = random_features(model.config, B=2, seed=31)
            model.forward_features(f_src, f_trg, mode="train")
            model.backward(np.ones((2, model.config.Q)))
            Adam(model.parameters(), lr=1e-2).step()
        elif change == "load":
            trained = same_weights(model)
            trained.encoder.w.value += 0.01
            trained.save(str(tmp_path / "ckpt"))
            model, _ = AttentiveAlignmentModel.load(str(tmp_path / "ckpt"))
        else:  # rebinding the value to a new array needs no version bump
            model.encoder.w.value = model.encoder.w.value * 1.5
        return model

    @pytest.mark.parametrize("change", ["adam-step", "load", "rebind"])
    def test_eval_after_a_weight_change_equals_a_fresh_model(self, change, tmp_path):
        model = warmed_model(winograd_config(), seed=30)
        rng = np.random.default_rng(30)
        model.head_w.value[...] = rng.standard_normal(model.head_w.shape)
        f_src, f_trg = random_features(model.config, B=4, seed=32)
        model.forward_features(f_src, f_trg, mode="eval")  # fills the cache
        before, _ = model.forward_features(f_src[:1], f_trg[:1], mode="eval")
        model = self._changed(model, change, tmp_path)
        fresh = same_weights(model)
        # a one-pair forward, cold on both, then four pairs and one pair again,
        # the last with the kernel transform held on both
        for B in (1, 4, 1):
            got, state = model.forward_features(f_src[:B], f_trg[:B], mode="eval")
            want, fresh_state = fresh.forward_features(f_src[:B], f_trg[:B], mode="eval")
            assert got.tobytes() == want.tobytes()
            assert state.F.tobytes() == fresh_state.F.tobytes()
        assert not np.array_equal(got, before)

    def test_repeated_eval_forwards_compute_the_kernel_once(self, monkeypatch):
        model = warmed_model(winograd_config(), seed=33)
        calls = []
        kernel = tensor.winograd_kernel
        monkeypatch.setattr(tensor, "winograd_kernel",
                            lambda w: calls.append(w.shape) or kernel(w))
        for B in (1, 4, 1, 1, 4, 1):
            model.forward_features(*random_features(model.config, B=B, seed=B), mode="eval")
        # the first, cold one-pair forward computes U; the 1x1 layers need none
        assert calls == [model.encoder.w.shape]
        model.forward_features(*random_features(model.config, B=2, seed=34), mode="train")
        model.backward(np.ones((2, model.config.Q)))
        Adam(model.parameters()).step()
        assert len(calls) == 2  # a train forward computes its own
        for B in (1, 1, 4):
            model.forward_features(*random_features(model.config, B=B, seed=B), mode="eval")
        assert len(calls) == 3  # stale after the step: computed once again

    def test_train_forward_neither_reads_nor_fills_the_cache(self):
        model = warmed_model(winograd_config(), seed=37)
        reference = same_weights(model)
        w = model.encoder.w
        poison = (w.value, w.version, np.full_like(tensor.winograd_kernel(w.value), np.nan))
        model.encoder._kernel = poison
        f_src, f_trg = random_features(model.config, B=4, seed=38)
        got, _ = model.forward_features(f_src, f_trg, mode="train")
        want, _ = reference.forward_features(f_src, f_trg, mode="train")
        assert got.tobytes() == want.tobytes()
        assert model.encoder._kernel is None  # dropped, not kept stale
        assert reference.encoder._kernel is None

    def test_train_step_releases_the_kernel_transform(self):
        model = warmed_model(winograd_config(), seed=41)
        model.forward_features(*random_features(model.config, B=4, seed=42), mode="eval")
        held = weakref.ref(model.encoder._kernel[2])  # four pairs ran Winograd
        model.forward_features(*random_features(model.config, B=4, seed=43), mode="train")
        model.backward(np.ones((4, model.config.Q)))
        assert held() is None
        assert all(layer._kernel is None
                   for layer in (model.encoder, model.g1, model.g2, model.s1))

    def test_one_pair_eval_bytes_do_not_depend_on_the_cache(self, tmp_path, monkeypatch):
        trained = warmed_model(ModelConfig(), seed=39)
        rng = np.random.default_rng(39)
        trained.head_w.value[...] = rng.standard_normal(trained.head_w.shape)
        trained.save(str(tmp_path / "ckpt"))
        model, _ = AttentiveAlignmentModel.load(str(tmp_path / "ckpt"))
        f_src, f_trg = random_features(model.config, B=2, seed=40)
        pair = f_src[:1], f_trg[:1]
        cold, cold_state = model.forward_features(*pair, mode="eval")
        model.forward_features(f_src, f_trg, mode="eval")  # a batched eval, U held
        assert model.encoder._kernel is not None
        warm = model.forward_features(*pair, mode="eval")
        fresh = same_weights(model).forward_features(*pair, mode="eval")
        for theta, state in (warm, fresh):
            assert theta.tobytes() == cold.tobytes()
            assert state.F.tobytes() == cold_state.F.tobytes()
        # the same forward with the encoder conv as the im2col reference
        conv = network.conv2d_forward
        monkeypatch.setattr(network, "conv2d_forward", lambda x, w, b, *U: (
            (conv2d_im2col_reference(x, w, b), (x, w)) if w.shape[2] > 1 else conv(x, w, b, *U)))
        want, want_state = model.forward_features(*pair, mode="eval")
        for a, ref in ((cold_state.F, want_state.F), (cold, want)):
            assert np.abs(a - ref).max() / np.abs(ref).max() <= 1e-12


class TestCheckpointing:
    def test_save_load_round_trip(self, tmp_path):
        cfg = tiny_config()
        model = warmed_model(cfg, seed=17)
        rng = np.random.default_rng(18)
        model.head_w.value[...] = rng.standard_normal(model.head_w.shape)
        path = str(tmp_path / "ckpt")
        model.save(path)
        loaded, _ = AttentiveAlignmentModel.load(path)
        f_src, f_trg = random_features(cfg, seed=17)
        t1, _ = model.forward_features(f_src, f_trg, mode="eval")
        t2, _ = loaded.forward_features(f_src, f_trg, mode="eval")
        assert np.array_equal(t1, t2)

    def test_load_validates_shapes(self, tmp_path):
        cfg = tiny_config()
        model = warmed_model(cfg, seed=19)
        path = str(tmp_path / "ckpt")
        model.save(path)
        # corrupt one tensor file with a different shape
        storage.save_tensor(os.path.join(path, "head.w.oact"), np.zeros((2, 2)))
        with pytest.raises(ShapeError, match="head.w shape"):
            AttentiveAlignmentModel.load(path)
