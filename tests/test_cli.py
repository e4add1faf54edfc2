"""End-to-end tests of the command-line surface: exit codes, emitted files,
and printed reports."""

import math
import pathlib
import re
import shlex
import shutil
import struct
import time

import numpy as np
import pytest

from oacnet import geometry, pipeline, storage
from oacnet import correlation as corr
from oacnet.cli import build_parser, main
from oacnet.network import AttentiveAlignmentModel, ModelConfig

COMMANDS = ["train", "check-equiv", "bench", "eval", "pck", "warp"]

SMALL_CONFIG = {
    "learning_rate": "2e-4",
    "batch_size": "2",
    "total_steps": "3",
    "D": "4",
    "H": "8",
    "W": "8",
    "N": "4",
    "encoder_channels": "4",
    "corpus_size": "12",
    "seed": "0",
}


def write_config(path, **overrides):
    entries = dict(SMALL_CONFIG, **overrides)
    path.write_text("".join(f"{k} = {v}\n" for k, v in entries.items()))
    return str(path)


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("trained")
    config = write_config(root / "train.cfg")
    code = main(["train", "--config", config, "--out-dir", str(root / "run")])
    assert code == 0
    return root / "run"


def assert_one_line_error(capsys, *fragments):
    """Checks stderr, and returns what was printed to stdout."""
    out, err = capsys.readouterr()
    assert err.startswith("error") and err.count("\n") == 1, err
    for fragment in fragments:
        assert fragment in err
    return out


# ---------------------------------------------------------------------------
# train


class TestTrainCommand:
    def test_missing_config_exits_1(self, tmp_path, capsys):
        code = main(["train", "--config", str(tmp_path / "absent.cfg"),
                     "--out-dir", str(tmp_path / "out")])
        assert code == 1
        assert_one_line_error(capsys, "No such file or directory", "absent.cfg")

    def test_unknown_key_exits_1(self, tmp_path, capsys):
        # provider is a constant, not a key; epochs, steps_per_epoch and the G/S
        # widths restate total_steps and encoder_channels; and feature_dim,
        # feature_h, feature_w and kernel_count are now spelled D, H, W and N: a
        # file that holds one is refused
        for key, value in (("warmup", "5"), ("provider", "random_projection"),
                           ("epochs", "50"), ("steps_per_epoch", "40"), ("g_hidden", "32"),
                           ("g_out", "32"), ("s_hidden", "16"), ("feature_dim", "16"),
                           ("feature_h", "8"), ("feature_w", "8"), ("kernel_count", "48")):
            config = tmp_path / "bad.cfg"
            config.write_text(f"learning_rate = 0.1\n{key} = {value}\n")
            code = main(["train", "--config", str(config), "--out-dir", str(tmp_path / "out")])
            assert code == 1
            assert_one_line_error(capsys, f"error: {config}:2: unknown key '{key}'")
            assert not (tmp_path / "out").exists()

    def test_bad_feature_grid_exits_1(self, tmp_path, capsys):
        config = write_config(tmp_path / "grid.cfg", H="12")
        code = main(["train", "--config", config, "--out-dir", str(tmp_path / "out")])
        assert code == 1
        assert_one_line_error(capsys, f"error: {config}: image_size 32 not divisible")

    @pytest.mark.parametrize("grid", ["1", "0"])
    def test_degenerate_tps_grid_exits_1(self, grid, tmp_path, capsys):
        config = write_config(tmp_path / "tps.cfg", family="tps", tps_grid=grid)
        out = tmp_path / "out"
        assert main(["train", "--config", config, "--out-dir", str(out)]) == 1
        assert_one_line_error(capsys, f"error: {config}: tps_grid")
        assert not out.exists()

    def test_huge_tps_grid_exits_1_at_once(self, tmp_path, capsys):
        # a range check refuses it before any lattice-sized array is allocated
        config = write_config(tmp_path / "tps.cfg", family="tps", tps_grid="100000")
        out = tmp_path / "out"
        t0 = time.perf_counter()
        assert main(["train", "--config", config, "--out-dir", str(out)]) == 1
        assert time.perf_counter() - t0 < 1.0
        assert_one_line_error(capsys, f"error: {config}: tps_grid must be in", "100000")
        assert not out.exists()

    def test_allocation_beyond_the_machine_exits_1(self, tmp_path, capsys):
        # the 7x7 encoder weights alone would take 1.39 PiB: numpy refuses the
        # allocation at once, and main reports it in one line
        config = write_config(tmp_path / "wide.cfg", encoder_channels="1000000000000")
        assert main(["train", "--config", config, "--out-dir", str(tmp_path / "out")]) == 1
        assert assert_one_line_error(capsys, "error: out of memory: Unable to allocate") == ""
        assert [p.name for p in tmp_path.iterdir()] == ["wide.cfg"]

    @pytest.mark.parametrize("images,fragment", [
        ({"a.pgm": np.zeros((1, 32, 32))}, "1 P5/P6 image(s) found, training needs 2 or more"),
        ({"a.pgm": np.zeros((1, 32, 32)), "b.pgm": b"P5\n32 32\n255\n\0\0"},
         "pixel data: expected 1024 bytes, got 2"),
        ({"a.pgm": np.zeros((1, 32, 32)), "b.ppm": np.zeros((3, 32, 32))},
         "image shape (3, 32, 32), expected"),
    ], ids=["one-image", "truncated-pgm", "channel-count"])
    def test_corpus_refusal_exits_1_before_output(self, images, fragment, tmp_path, capsys):
        corpus = tmp_path / "imgs"
        corpus.mkdir()
        for name, image in images.items():
            if isinstance(image, bytes):
                (corpus / name).write_bytes(image)
            else:
                storage.save_image(str(corpus / name), image)
        keys = {k: v for k, v in SMALL_CONFIG.items() if k != "corpus_size"}
        config = tmp_path / "c.cfg"
        config.write_text("".join(f"{k} = {v}\n" for k, v in dict(
            keys, corpus_dir=corpus, image_channels=1).items()))
        out = tmp_path / "out"
        assert main(["train", "--config", str(config), "--out-dir", str(out)]) == 1
        assert assert_one_line_error(capsys, fragment) == ""
        assert not out.exists()

    @pytest.mark.parametrize("overrides,fragment", [
        ({"family": "bogus"}, "unknown family 'bogus'"),
        ({"H": "4", "W": "4"}, "smaller than the encoder kernel"),
        ({"oac_path": "dircet"}, "oac_path must be"),
        ({"encoder_channels": "0"}, "encoder_channels must be >= 1, got 0"),
        ({"seed": "-1"}, "seed must be >= 0, got -1"),
        ({"--seed": "-1"}, "seed must be >= 0, got -1"),
        ({"learning_rate": "nan"}, "learning_rate must be finite and non-negative, got nan"),
        ({"learning_rate": "inf"}, "learning_rate must be finite and non-negative, got inf"),
        # SMALL_CONFIG sets corpus_size = 12, which a corpus directory would leave unread
        ({"corpus_dir": "imgs"}, "corpus_size is read only without corpus_dir, got 12"),
        ({"tps_grid": "5"}, "tps_grid is read only with family = tps, got 5 beside "
                            "family = affine"),
        # the last tenth of the corpus, one image at least, is held out
        ({"corpus_size": "1"}, "corpus_size must be >= 2, got 1"),
    ], ids=["family", "grid-below-kernel", "oac-path", "encoder-channels", "seed",
            "seed-flag", "lr-nan", "lr-inf", "corpus-size-beside-dir", "tps-grid-beside-affine",
            "corpus-size-one"])
    def test_bad_model_config_exits_1_before_output(self, overrides, fragment, tmp_path,
                                                    capsys):
        flags = [arg for k, v in overrides.items() if k.startswith("--") for arg in (k, v)]
        keys = {k: v for k, v in overrides.items() if not k.startswith("--")}
        config = write_config(tmp_path / "m.cfg", **keys)
        out = tmp_path / "out"
        assert main(["train", "--config", config, "--out-dir", str(out), *flags]) == 1
        stdout, err = capsys.readouterr()
        # an error in the file names the file; --seed is not read from it
        prefix = "error: " if flags else f"error: {config}: "
        assert err.startswith(prefix) and err.count("\n") == 1, err
        assert fragment in err
        assert stdout == "" and not out.exists()

    def test_duplicate_key_names_file_and_line(self, tmp_path, capsys):
        config = tmp_path / "dup.cfg"
        config.write_text("learning_rate = 0.1\nbatch_size = 2\nbatch_size = 4\n")
        out = tmp_path / "out"
        assert main(["train", "--config", str(config), "--out-dir", str(out)]) == 1
        assert_one_line_error(capsys, f"error: {config}:3: duplicate key 'batch_size'")
        assert not out.exists()

    @pytest.mark.parametrize("occupied", ["non-empty-dir", "file"])
    def test_occupied_out_dir_refused_before_training(self, occupied, tmp_path, capsys):
        config = write_config(tmp_path / "c.cfg")
        out = tmp_path / "out"
        kept = out if occupied == "file" else out / "keep.txt"
        if occupied != "file":
            out.mkdir()
        kept.write_text("old")
        assert main(["train", "--config", config, "--out-dir", str(out)]) == 1
        stdout, err = capsys.readouterr()
        assert err == f"error: --out-dir {out} exists and is not an empty directory\n"
        assert stdout == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.cfg", "out"]
        assert kept.read_text() == "old"

    def test_missing_out_dir_parent_refused_before_training(self, tmp_path, capsys):
        config = write_config(tmp_path / "c.cfg")
        out = tmp_path / "a" / "b" / "out"
        assert main(["train", "--config", config, "--out-dir", str(out)]) == 1
        stdout, err = capsys.readouterr()
        assert err == f"error: --out-dir {out}: parent directory does not exist\n"
        assert stdout == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.cfg"]

    def test_empty_out_dir_is_filled(self, tmp_path):
        config = write_config(tmp_path / "c.cfg")
        out = tmp_path / "out"
        out.mkdir()
        assert main(["train", "--config", config, "--out-dir", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["checkpoint", "loss.csv"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.cfg", "out"]

    def test_failed_save_leaves_no_output(self, tmp_path, capsys, monkeypatch):
        save = storage.save_tensor
        calls = []

        def fail_fifth(path, array):
            calls.append(path)
            if len(calls) == 5:
                raise OSError("No space left on device")
            save(path, array)

        monkeypatch.setattr(storage, "save_tensor", fail_fifth)
        config = write_config(tmp_path / "f.cfg")
        assert main(["train", "--config", config, "--out-dir", str(tmp_path / "out")]) == 1
        assert_one_line_error(capsys, "error: No space left on device")
        assert len(calls) == 5
        # neither --out-dir nor the temporary sibling it was staged in
        assert sorted(p.name for p in tmp_path.iterdir()) == ["f.cfg"]

    def test_smoke_run_emits_artifacts(self, trained_dir, capsys):
        assert (trained_dir / "loss.csv").is_file()
        assert (trained_dir / "checkpoint" / "config.txt").is_file()
        assert not (trained_dir / "checkpoint" / "manifest.txt").exists()
        lines = (trained_dir / "loss.csv").read_text().splitlines()
        assert lines[0] == "step,loss"
        assert len(lines) == 4  # header + 3 steps

    def test_checkpoint_reloads(self, trained_dir):
        model, config = AttentiveAlignmentModel.load(str(trained_dir / "checkpoint"),
                                                     pipeline.TrainConfig)
        assert model.config == config
        assert model.config.D == 4

    def test_checkpoint_config_is_the_training_config(self, trained_dir, tmp_path):
        # retraining from a run's own config.txt reproduces that run byte for byte
        ckpt = trained_dir / "checkpoint"
        config = pipeline.TrainConfig.from_file(str(trained_dir.parent / "train.cfg"))
        assert (ckpt / "config.txt").read_text() == "\n".join(config.to_lines()) + "\n"
        out = tmp_path / "again"
        assert main(["train", "--config", str(ckpt / "config.txt"), "--out-dir", str(out)]) == 0
        assert (out / "loss.csv").read_bytes() == (trained_dir / "loss.csv").read_bytes()
        names = sorted(p.name for p in ckpt.iterdir())
        assert sorted(p.name for p in (out / "checkpoint").iterdir()) == names
        for name in names:
            assert (out / "checkpoint" / name).read_bytes() == (ckpt / name).read_bytes(), name

    def test_zero_lr_checkpoint_equals_initialization(self, tmp_path):
        config = write_config(tmp_path / "zero.cfg", learning_rate="0.0")
        code = main(["train", "--config", config, "--out-dir", str(tmp_path / "out")])
        assert code == 0
        model, _ = AttentiveAlignmentModel.load(str(tmp_path / "out" / "checkpoint"),
                                                pipeline.TrainConfig)
        fresh = AttentiveAlignmentModel(pipeline.TrainConfig.from_file(config))
        for p, q in zip(model.parameters(), fresh.parameters()):
            assert p.name == q.name
            assert np.array_equal(p.value, q.value), p.name

    def test_seed_flag_overrides_config(self, tmp_path, capsys):
        config = write_config(tmp_path / "s.cfg")
        code = main(["train", "--config", config, "--out-dir", str(tmp_path / "out"),
                     "--seed", "17"])
        assert code == 0
        assert "seed: 17" in capsys.readouterr().out

    def test_non_finite_training_exits_2_with_one_line_and_no_output(self, tmp_path, capsys):
        # 1e308 is a finite learning rate, so the config check passes it; the
        # first update overflows and the finite checks end the run
        config = write_config(tmp_path / "lr.cfg", learning_rate="1e308")
        out = tmp_path / "out"
        assert main(["train", "--config", config, "--out-dir", str(out)]) == 2
        assert_one_line_error(capsys, "NaN/Inf")
        assert not out.exists()

    def test_divergence_guard_exits_2(self, tmp_path, capsys, monkeypatch):
        def explode(config, log_fn=None, ready_fn=None):
            raise pipeline.DivergenceError("boom")

        monkeypatch.setattr(pipeline, "train", explode)
        config = write_config(tmp_path / "d.cfg")
        code = main(["train", "--config", config, "--out-dir", str(tmp_path / "out")])
        assert code == 2
        assert "divergence" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# check-equiv


class TestCheckEquivCommand:
    def test_default_dims_pass(self, capsys):
        assert main(["check-equiv", "--dims", "4x4x2", "--trials", "100"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_reports_every_gradient(self, capsys):
        assert main(["check-equiv", "--dims", "3x5x2", "--trials", "5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        deviations = [line for line in lines if line.startswith("max ")]
        assert [line.split(" deviation")[0] for line in deviations] == [
            "max output", "max weight-gradient", "max bias-gradient"]

    def test_degenerate_dims_pass(self, capsys):
        assert main(["check-equiv", "--dims", "1x1x1", "--trials", "5"]) == 0

    def test_corrupted_layout_fails(self, monkeypatch, capsys):
        # negative control: the direct path reads the bank with its offset
        # columns reversed; the same harness without the flip must pass
        forward = corr.oac_forward_direct

        def check_equiv(flip):
            def direct(c, bank, counter=None):
                weights = bank.weights.value
                if flip:
                    bank.weights.value = weights[:, :, ::-1].copy()
                try:
                    return forward(c, bank, counter)
                finally:
                    bank.weights.value = weights

            monkeypatch.setattr(corr, "oac_forward_direct", direct)
            code = main(["check-equiv", "--dims", "4x4x2", "--trials", "5"])
            return code, capsys.readouterr().out

        code, out = check_equiv(flip=False)
        assert code == 0 and "PASS" in out
        code, out = check_equiv(flip=True)
        assert code == 2 and "FAIL" in out

    def test_bad_dims_exits_1(self, capsys):
        for argv in (["--dims", "4by4"], ["--dims", "0x4x2"], ["--dims", "4x4x0"],
                     ["--trials", "0"]):
            assert main(["check-equiv", *argv]) == 1
            assert_one_line_error(capsys, argv[0])

    def test_reproducible_output(self, capsys):
        main(["check-equiv", "--dims", "3x3x2", "--trials", "10", "--seed", "4"])
        first = capsys.readouterr().out
        main(["check-equiv", "--dims", "3x3x2", "--trials", "10", "--seed", "4"])
        assert capsys.readouterr().out == first


# ---------------------------------------------------------------------------
# bench


class TestBenchCommand:
    def test_paper_scale_counts(self, capsys):
        assert main(["bench", "--dims", "15x15x128", "--repeats", "1"]) == 0
        out = capsys.readouterr().out
        assert "6,480,000" in out
        assert "24,220,800" in out

    def test_degenerate_dims_equal_counts(self, capsys):
        assert main(["bench", "--dims", "1x1x1", "--repeats", "1"]) == 0
        out = capsys.readouterr().out
        assert "ratio: 1.000" in out

    @pytest.mark.parametrize("dims", ["4x4x2", "8x8x16", "5x6x3"])
    def test_instrumented_matches_formula(self, dims, capsys):
        assert main(["bench", "--dims", dims, "--repeats", "1"]) == 0

    def test_bad_dims_exits_1(self, capsys):
        for argv in (["--dims", "x"], ["--dims", "0x4x2"], ["--dims", "4x4x0"],
                     ["--repeats", "0"], ["--repeats", "-1"]):
            assert main(["bench", *argv]) == 1
            assert_one_line_error(capsys, argv[0])

    def test_times_forward_and_backward(self, capsys):
        assert main(["bench", "--dims", "4x5x2", "--repeats", "1"]) == 0
        lines = [line for line in capsys.readouterr().out.splitlines() if "formula" in line]
        assert len(lines) == 2
        for line in lines:
            assert "forward " in line and "backward " in line
            assert line.count("ms/call") == 2

    def test_times_parameters_only_backward(self, capsys):
        # the one backward timed per path is the parameters-only one training runs
        assert main(["bench", "--dims", "4x5x2", "--repeats", "1"]) == 0
        lines = [line for line in capsys.readouterr().out.splitlines() if "backward" in line]
        assert [line.split(":")[0].strip() for line in lines] == ["direct", "reordered"]
        for line in lines:
            assert line.count("backward") == 1 and line.endswith(" ms/call")


# ---------------------------------------------------------------------------
# eval (a checkpoint on synthetic pairs) and pck (a keypoint CSV)


def write_keypoints(path, rows):
    header = "pair_id,src_x,src_y,trg_x,trg_y,bbox_h,bbox_w\n"
    path.write_text(header + "".join(",".join(str(v) for v in r) + "\n" for r in rows))
    return str(path)


class TestEvalCommand:
    def test_keypoints_threshold_hand_count(self, tmp_path, capsys):
        # identity prediction; alpha 0.1 on a 100x100 bbox → 10 px threshold
        csv = write_keypoints(tmp_path / "kp.csv", [
            ("p0", 50, 50, 55, 50, 100, 100),   # distance 5: correct
            ("p0", 20, 20, 20, 35, 100, 100),   # distance 15: incorrect
        ])
        assert main(["pck", "--keypoints-csv", csv, "--alpha", "0.1"]) == 0
        assert "PCK(alpha=0.1): 0.5000 over 2 keypoints" in capsys.readouterr().out

    def test_alpha_monotone(self, tmp_path, capsys):
        rows = [("p0", 10 * i, 10, 10 * i, 10 + 2 * i, 100, 100) for i in range(8)]
        csv = write_keypoints(tmp_path / "kp.csv", rows)

        def pck_at(alpha):
            assert main(["pck", "--keypoints-csv", csv, "--alpha", str(alpha)]) == 0
            out = capsys.readouterr().out
            return float(out.split(f"PCK(alpha={alpha}): ")[1].split()[0])

        vals = [pck_at(a) for a in (0.05, 0.1, 0.15)]
        assert vals[0] <= vals[1] <= vals[2]
        assert vals[0] < vals[2]

    def test_theta_file_prediction(self, tmp_path, capsys):
        # stored transform maps every source keypoint exactly onto its target
        theta = np.array([1.0, 0.0, 0.2, 0.0, 1.0, 0.0])
        storage.save_tensor(str(tmp_path / "theta.oact"), theta)
        shift = 0.2 * (100 - 1) / 2.0
        csv = write_keypoints(tmp_path / "kp.csv", [
            ("p0", 10, 10, 10 + shift, 10, 100, 100),
            ("p0", 40, 60, 40 + shift, 60, 100, 100),
        ])
        assert main(["pck", "--keypoints-csv", csv, "--alpha", "0.1",
                     "--theta-file", str(tmp_path / "theta.oact"),
                     "--image-size", "100"]) == 0
        assert "PCK(alpha=0.1): 1.0000" in capsys.readouterr().out

    def test_checkpoint_mode_reports_metrics(self, trained_dir, tmp_path, capsys):
        dump = tmp_path / "attn"
        code = main(["eval", "--checkpoint", str(trained_dir / "checkpoint"),
                     "--pairs", "3", "--dump-attention", str(dump)])
        assert code == 0
        out = capsys.readouterr().out
        assert "mean TGD over 3 synthetic pairs" in out
        assert "PCK(alpha=0.1)" in out
        csvs = sorted(dump.glob("*.csv"))
        pgms = sorted(dump.glob("*.pgm"))
        assert len(csvs) == 3 and len(pgms) == 3
        rows = [[float(v) for v in line.split(",")]
                for line in csvs[0].read_text().splitlines()]
        assert abs(sum(sum(r) for r in rows) - 1.0) <= 1e-12

    def test_missing_inputs_exit_1(self, trained_dir, capsys):
        assert main(["eval"]) == 1
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(trained_dir / "checkpoint"),
                     "--pairs", "0"]) == 1
        assert_one_line_error(capsys, "--pairs")

    def test_checkpoint_mode_matches_per_pair_loop(self, trained_dir, capsys):
        """eval's numbers equal those of its own per-pair synthesis loop:
        all images first, then one transform and two provider calls per pair."""
        ckpt = str(trained_dir / "checkpoint")
        assert main(["eval", "--checkpoint", ckpt, "--pairs", "5", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        model, tconf = AttentiveAlignmentModel.load(ckpt, pipeline.TrainConfig)
        rng = np.random.default_rng(2)
        images = [pipeline.make_procedural_image(rng, tconf.image_size, tconf.image_channels)
                  for _ in range(5)]
        provider = pipeline.build_provider(tconf)
        side = tconf.image_size
        batch = []
        for image in images:
            theta_gt = geometry.sample_random_transform(tconf.family, rng, grid_n=tconf.tps_grid)
            reach = geometry.max_border_displacement(theta_gt) * (side - 1) / 2.0
            pad = min(max(math.ceil(side / 4), math.ceil(reach + 1e-9) + 1), side - 1)
            trg = geometry.mirror_pad_center_crop(image, pad, theta_gt)
            batch.append((provider(image), provider(trg), theta_gt))
        theta_vecs, _ = pipeline.predict(model, batch)
        mean_tgd = pipeline.evaluate_tgd(theta_vecs, batch)
        pck = pipeline.evaluate_pck_synthetic(
            theta_vecs, batch, alpha=0.1, image_hw=(tconf.image_size, tconf.image_size), seed=2)
        assert f"mean TGD over 5 synthetic pairs: {mean_tgd:.6f}\n" in out
        assert f"PCK(alpha=0.1): {pck:.4f}\n" in out

        rng = np.random.default_rng(2)
        images = [pipeline.make_procedural_image(rng, tconf.image_size, tconf.image_channels)
                  for _ in range(5)]
        built = pipeline.build_pairs(images, provider, tconf, rng)
        for (fs, ft, gt), (rs, rt, rgt) in zip(built, batch, strict=True):
            assert fs.tobytes() == rs.tobytes() and ft.tobytes() == rt.tobytes()
            assert gt.tobytes() == rgt.tobytes()

    def test_checkpoint_mode_runs_one_forward(self, trained_dir, monkeypatch, capsys):
        calls = []
        forward = AttentiveAlignmentModel.forward_features

        def counted(self, *args, **kwargs):
            calls.append(args[0].shape)
            return forward(self, *args, **kwargs)

        monkeypatch.setattr(AttentiveAlignmentModel, "forward_features", counted)
        assert main(["eval", "--checkpoint", str(trained_dir / "checkpoint"),
                     "--pairs", "3"]) == 0
        assert len(calls) == 1 and calls[0][0] == 3

    def test_bad_oac_path_in_checkpoint_exits_1(self, trained_dir, tmp_path, capsys):
        run = shutil.copytree(trained_dir, tmp_path / "run")
        config = run / "checkpoint" / "config.txt"
        text = config.read_text()
        assert "oac_path = reordered\n" in text
        config.write_text(text.replace("oac_path = reordered\n", "oac_path = dircet\n"))
        assert main(["eval", "--checkpoint", str(run / "checkpoint"), "--pairs", "2"]) == 1
        assert_one_line_error(capsys, "oac_path must be 'direct' or 'reordered', got 'dircet'")

    @pytest.mark.parametrize("line", ["oac_bias = true", "embed_dim = 5"])
    def test_removed_key_in_checkpoint_exits_1(self, line, trained_dir, tmp_path, capsys):
        # oac_bias and embed_dim are constants, not keys: a checkpoint that holds one is refused
        run = shutil.copytree(trained_dir, tmp_path / "run")
        with open(run / "checkpoint" / "config.txt", "a") as f:
            f.write(line + "\n")
        assert main(["eval", "--checkpoint", str(run / "checkpoint"), "--pairs", "2"]) == 1
        assert_one_line_error(capsys, "unknown", f"key '{line.split()[0]}'")

    def test_allocation_beyond_the_machine_exits_1(self, trained_dir, tmp_path, capsys):
        run = shutil.copytree(trained_dir, tmp_path / "run")
        config = run / "checkpoint" / "config.txt"
        text = config.read_text()
        assert "encoder_channels = 4\n" in text
        config.write_text(text.replace("encoder_channels = 4\n",
                                       "encoder_channels = 1000000000000\n"))
        dump = tmp_path / "dump"
        assert main(["eval", "--checkpoint", str(run / "checkpoint"), "--pairs", "2",
                     "--dump-attention", str(dump)]) == 1
        assert assert_one_line_error(capsys, "error: out of memory: Unable to allocate") == ""
        assert [p.name for p in tmp_path.iterdir()] == ["run"]

    def test_bad_checkpoint_exits_1(self, tmp_path, capsys):
        assert main(["eval", "--checkpoint", str(tmp_path / "nope")]) == 1

    def test_missing_checkpoint_exits_1_before_any_output(self, tmp_path, capsys):
        assert main(["eval", "--checkpoint", str(tmp_path / "nope"), "--pairs", "2"]) == 1
        assert assert_one_line_error(capsys, str(tmp_path / "nope" / "config.txt")) == ""

    def test_keypoints_without_rows_exit_1_before_any_output(self, tmp_path, capsys):
        csv = write_keypoints(tmp_path / "kp.csv", [])
        assert main(["pck", "--keypoints-csv", csv]) == 1
        assert assert_one_line_error(capsys, f"{csv}: no keypoint rows") == ""

    def test_bad_theta_size_exits_1(self, tmp_path, capsys):
        storage.save_tensor(str(tmp_path / "theta.oact"), np.zeros(7))
        csv = write_keypoints(tmp_path / "kp.csv", [("p0", 10, 10, 10, 10, 100, 100)])
        assert main(["pck", "--keypoints-csv", csv,
                     "--theta-file", str(tmp_path / "theta.oact")]) == 1
        assert_one_line_error(capsys, "theta must hold 6 values", "got 7")

    @pytest.mark.parametrize("blob,fragment", [
        (b"OACT\x01\x00", "truncated header"),
        # rank 1, dims claim 1000 values, file holds one
        (b"OACT" + struct.pack("<IIQd", 1, 1, 1000, 0.0), "truncated payload"),
        (b"OACT" + struct.pack("<IIQ6d", 1, 1, 6, *geometry.identity_vector("affine")) + b"\0",
         "trailing bytes after the payload"),
    ])
    def test_truncated_theta_file_exits_1(self, blob, fragment, tmp_path, capsys):
        theta = tmp_path / "theta.oact"
        theta.write_bytes(blob)
        csv = write_keypoints(tmp_path / "kp.csv", [("p0", 10, 10, 10, 10, 100, 100)])
        assert main(["pck", "--keypoints-csv", csv, "--theta-file", str(theta)]) == 1
        assert_one_line_error(capsys, str(theta), fragment)

    @pytest.mark.parametrize("row,fragment", [
        (("p0", 10, "x", 10, 10, 100, 100), "could not convert string to float: 'x'"),
        (("p0", 10, 10, "nan", 10, 100, 100), "must be finite"),
        (("p0", 10, 10, 10, 10, "inf", 100), "must be finite"),
    ])
    def test_malformed_keypoints_exit_1(self, row, fragment, tmp_path, capsys):
        csv = write_keypoints(tmp_path / "kp.csv", [("p0", 1, 1, 1, 1, 100, 100), row])
        assert main(["pck", "--keypoints-csv", csv]) == 1
        assert_one_line_error(capsys, f"{csv}:3:", fragment)

    @pytest.mark.parametrize("alpha", ["nan", "inf", "0", "-0.1"])
    def test_bad_alpha_exits_1(self, alpha, tmp_path, capsys):
        csv = write_keypoints(tmp_path / "kp.csv", [("p0", 10, 10, 10, 10, 100, 100)])
        assert main(["pck", "--keypoints-csv", csv, "--alpha", alpha]) == 1
        assert_one_line_error(capsys, "--alpha must be finite and positive")

    @pytest.mark.parametrize("size", ["1", "0", "-5"])
    def test_bad_image_size_exits_1(self, size, tmp_path, capsys):
        csv = write_keypoints(tmp_path / "kp.csv", [("p0", 10, 10, 10, 10, 100, 100)])
        assert main(["pck", "--keypoints-csv", csv, "--image-size", size]) == 1
        assert_one_line_error(capsys, "--image-size must be at least 2")

    @pytest.mark.parametrize("command", ["eval", "warp"])
    def test_nan_checkpoint_exits_2(self, command, trained_dir, tmp_path, capsys):
        run = shutil.copytree(trained_dir, tmp_path / "run")
        head = run / "checkpoint" / "head.w.oact"
        w = storage.load_tensor(str(head))
        w[0, 0] = np.nan
        storage.save_tensor(str(head), w)
        argv = [command, "--checkpoint", str(run / "checkpoint")]
        if command == "warp":
            src, _ = save_ramp(tmp_path / "in.pgm")
            argv += ["--image", src, "--out", str(tmp_path / "o.pgm")]
        assert main(argv) == 2
        assert_one_line_error(capsys, "head.w contains NaN/Inf")
        assert not (tmp_path / "o.pgm").exists()

    def test_non_finite_prediction_exits_2(self, trained_dir, capsys, monkeypatch):
        predict = pipeline.predict

        def overflow(model, batch):
            theta_vecs, state = predict(model, batch)
            return np.full_like(theta_vecs, np.inf), state

        monkeypatch.setattr(pipeline, "predict", overflow)
        assert main(["eval", "--checkpoint", str(trained_dir / "checkpoint"),
                     "--pairs", "2"]) == 2
        assert_one_line_error(capsys, "predicted theta contains NaN/Inf")

    def test_missing_bn_stat_exits_1(self, trained_dir, tmp_path, capsys):
        run = shutil.copytree(trained_dir, tmp_path / "run")
        (run / "checkpoint" / "encoder.bn.running_mean.oact").unlink()
        assert main(["eval", "--checkpoint", str(run / "checkpoint"), "--pairs", "2"]) == 1
        assert_one_line_error(capsys, "encoder.bn.running_mean")

    def test_old_manifest_is_ignored(self, trained_dir, tmp_path, capsys):
        # checkpoints written before the model owned their layout also held a
        # manifest.txt of `name shape role` lines; loading reads none of it
        checkpoint = shutil.copytree(trained_dir, tmp_path / "run") / "checkpoint"
        model, _ = AttentiveAlignmentModel.load(str(checkpoint), pipeline.TrainConfig)
        params = {p.name for p in model.parameters()}
        manifest = "".join(
            f"{name} {'x'.join(map(str, arr.shape)) or 'scalar'} "
            f"{'param' if name in params else 'stat'}\n"
            for name, arr in model.state_tensors().items())
        outputs = []
        for text in (None, manifest, "junk\nhead.w 2x2\n"):
            if text is not None:
                (checkpoint / "manifest.txt").write_text(text)
            assert main(["eval", "--checkpoint", str(checkpoint), "--pairs", "5"]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0].err == "" and outputs[1] == outputs[0] and outputs[2] == outputs[0]

    @pytest.mark.parametrize("name,old,new,fragment", [
        ("checkpoint/config.txt", "image_size = 32", "image_size = 32.0",
         "image_size: expected int, got '32.0'"),
        ("checkpoint/config.txt", None, "bogus = 1", "unknown key 'bogus'"),
        ("checkpoint/config.txt", "N = 4", "N = 4x", "N: expected int, got '4x'"),
        # a run saved before total_steps replaced epochs x steps_per_epoch
        ("checkpoint/config.txt", "total_steps = 3", "epochs = 1", "unknown key 'epochs'"),
    ], ids=["train-config-key", "checkpoint-config-key", "checkpoint-config-int",
            "checkpoint-config-dropped-key"])
    def test_config_error_names_file_and_line(self, name, old, new, fragment, trained_dir,
                                              tmp_path, capsys):
        run = shutil.copytree(trained_dir, tmp_path / "run")
        path = run / name
        lines = path.read_text().splitlines()
        if old is None:
            lines.append(new)
        else:
            lines[lines.index(old)] = new
        path.write_text("\n".join(lines) + "\n")
        assert main(["eval", "--checkpoint", str(run / "checkpoint"), "--pairs", "2"]) == 1
        assert_one_line_error(capsys, f"error: {path}:{lines.index(new) + 1}: {fragment}")

    def test_model_only_checkpoint_config_reads_defaults(self, trained_dir, tmp_path, capsys):
        # a config.txt that holds only the model's keys, as ModelConfig writes
        # them, reads every other key at its default, like any config file; the
        # keys eval reads beyond the model's are at their defaults in this run
        checkpoint = shutil.copytree(trained_dir, tmp_path / "run") / "checkpoint"
        argv = ["eval", "--checkpoint", str(checkpoint), "--pairs", "5"]
        assert main(argv) == 0
        full = capsys.readouterr()
        config = checkpoint / "config.txt"
        model_keys = list(ModelConfig._field_types())
        lines = [line for line in config.read_text().splitlines()
                 if line.split(" = ")[0] in model_keys]
        assert [line.split(" = ")[0] for line in lines] == model_keys
        config.write_text("\n".join(lines) + "\n")
        assert main(argv) == 0
        assert capsys.readouterr() == full and full.err == ""

    @pytest.mark.parametrize("command", ["eval", "warp"])
    def test_malformed_train_config_exits_1(self, command, trained_dir, tmp_path, capsys):
        # provider is a constant, not a key: a file that holds it is refused
        for i, line in enumerate(["warmup = 5", "provider = random_projection"]):
            run = shutil.copytree(trained_dir, tmp_path / f"run{i}")
            with open(run / "checkpoint" / "config.txt", "a") as f:
                f.write(line + "\n")
            argv = [command, "--checkpoint", str(run / "checkpoint")]
            if command == "warp":
                src, _ = save_ramp(tmp_path / "in.pgm")
                argv += ["--image", src, "--out", str(tmp_path / "o.pgm")]
            assert main(argv) == 1
            assert_one_line_error(capsys, "unknown", f"key '{line.split()[0]}'")


# ---------------------------------------------------------------------------
# warp


def save_ramp(path, size=32):
    img = np.tile(np.arange(size) / (size - 1), (size, 1))[None]
    storage.save_image(str(path), img)
    return str(path), img


class TestWarpCommand:
    def test_identity_theta_bitwise_passthrough(self, tmp_path):
        src, _ = save_ramp(tmp_path / "in.pgm")
        theta = tmp_path / "theta.oact"
        storage.save_tensor(str(theta), geometry.identity_vector("affine"))
        out = tmp_path / "out.pgm"
        assert main(["warp", "--image", src, "--theta-file", str(theta),
                     "--out", str(out)]) == 0
        assert out.read_bytes() == (tmp_path / "in.pgm").read_bytes()

    def test_translation_shifts_ramp(self, tmp_path):
        size = 32
        src, img = save_ramp(tmp_path / "in.pgm", size)
        # +tx in normalized coordinates samples one pixel to the right
        theta = np.array([1.0, 0.0, 2.0 / (size - 1), 0.0, 1.0, 0.0])
        storage.save_tensor(str(tmp_path / "theta.oact"), theta)
        out = tmp_path / "out.pgm"
        assert main(["warp", "--image", src, "--theta-file",
                     str(tmp_path / "theta.oact"), "--out", str(out)]) == 0
        warped = storage.load_image(str(out))
        assert np.allclose(warped[:, :, :-1], img[:, :, 1:], atol=1.0 / 255.0)

    def test_bad_theta_size_exits_1(self, tmp_path, capsys):
        src, _ = save_ramp(tmp_path / "in.pgm")
        for size in (0, 2, 5, 7):
            storage.save_tensor(str(tmp_path / "theta.oact"), np.zeros(size))
            assert main(["warp", "--image", src, "--theta-file",
                         str(tmp_path / "theta.oact"), "--out", str(tmp_path / "o.pgm")]) == 1
            # the theta file is read before the configuration is printed
            assert assert_one_line_error(capsys, "theta must hold 6 values", f"got {size}") == ""
            assert not (tmp_path / "o.pgm").exists()

    def test_theta_lattice_above_bound_exits_1(self, tmp_path, capsys):
        # the tps_grid bound holds for theta files too: no 33x33 lattice system is built
        src, _ = save_ramp(tmp_path / "in.pgm")
        size = 2 * (geometry.TPS_MAX_GRID + 1) ** 2
        storage.save_tensor(str(tmp_path / "theta.oact"), np.zeros(size))
        assert main(["warp", "--image", src, "--theta-file",
                     str(tmp_path / "theta.oact"), "--out", str(tmp_path / "o.pgm")]) == 1
        assert_one_line_error(capsys, "theta must hold 6 values", f"got {size}")
        assert not (tmp_path / "o.pgm").exists()

    @pytest.mark.parametrize("grid_n", [2, 3, 4])
    def test_tps_theta_of_any_lattice(self, grid_n, tmp_path, capsys):
        # 2*g^2 values warp as a TPS on the g x g lattice, stored in any shape
        src, img = save_ramp(tmp_path / "in.pgm")
        rng = np.random.default_rng(grid_n)
        theta = geometry.sample_random_transform("tps", rng, grid_n=grid_n)
        storage.save_tensor(str(tmp_path / "theta.oact"), theta.reshape(2, -1))
        out = tmp_path / "out.pgm"
        assert main(["warp", "--image", src, "--theta-file", str(tmp_path / "theta.oact"),
                     "--out", str(out)]) == 0
        storage.save_image(str(tmp_path / "ref.pgm"), geometry.bilinear_warp(
            storage.load_image(src), theta))
        assert out.read_bytes() == (tmp_path / "ref.pgm").read_bytes()

    # a numpy RuntimeWarning would print lines ahead of the error line; raised
    # as an error here, since pytest records warnings instead of printing them
    @pytest.mark.filterwarnings("error")
    def test_non_finite_warp_exits_2(self, tmp_path, capsys):
        src, _ = save_ramp(tmp_path / "in.pgm")
        storage.save_tensor(str(tmp_path / "theta.oact"), np.full(6, 1e300))
        code = main(["warp", "--image", src, "--theta-file",
                     str(tmp_path / "theta.oact"), "--out", str(tmp_path / "o.pgm")])
        assert code == 2
        assert_one_line_error(capsys, "NaN/Inf")
        assert not (tmp_path / "o.pgm").exists()

    def test_checkpoint_mode_emits_files(self, tmp_path, capsys):
        # a model trained on 1-channel 32x32 images, as the P5 ramp is
        config = write_config(tmp_path / "train.cfg", image_channels="1")
        assert main(["train", "--config", config, "--out-dir", str(tmp_path / "run")]) == 0
        src, _ = save_ramp(tmp_path / "in.pgm")
        out = tmp_path / "warped.pgm"
        code = main(["warp", "--image", src, "--checkpoint",
                     str(tmp_path / "run" / "checkpoint"), "--out", str(out)])
        assert code == 0
        assert out.is_file()
        attn_csv = tmp_path / "warped_attention.csv"
        assert attn_csv.is_file() and (tmp_path / "warped_attention.pgm").is_file()
        rows = [[float(v) for v in line.split(",")]
                for line in attn_csv.read_text().splitlines()]
        assert abs(sum(sum(r) for r in rows) - 1.0) <= 1e-12

    def test_checkpoint_refuses_image_of_other_channel_count(self, trained_dir, tmp_path,
                                                             capsys):
        # trained_dir's model saw 16-channel images; a P5 ramp has one channel.
        # The image is checked against the run's config before anything is printed.
        src, _ = save_ramp(tmp_path / "in.pgm")
        code = main(["warp", "--image", src, "--checkpoint",
                     str(trained_dir / "checkpoint"), "--out", str(tmp_path / "warped.pgm")])
        assert code == 1
        stdout, err = capsys.readouterr()
        assert err == (f"error: {src}: image shape (1, 32, 32), expected "
                       f"(image_channels, image_size, image_size) = (16, 32, 32)\n")
        assert stdout == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.pgm"]

    @pytest.mark.parametrize("blob,fragment", [
        (b"", "truncated header"),
        (b"P5\n4 4\n255\n\x00\x01", "expected 16 bytes, got 2"),
        (b"P5\nfour 4\n255\n" + bytes(16), "bad header fields"),
        (b"P5\n0 0\n255\n", "empty image: 0x0"),
        (b"P6\n3 0\n255\n", "empty image: 3x0"),
        (b"P5\n2 1\n255\n\x00\x01\x02", "expected 2 bytes, got 3"),
    ])
    def test_truncated_image_exits_1(self, blob, fragment, tmp_path, capsys):
        image = tmp_path / "in.pgm"
        image.write_bytes(blob)
        storage.save_tensor(str(tmp_path / "theta.oact"), geometry.identity_vector("affine"))
        assert main(["warp", "--image", str(image), "--theta-file",
                     str(tmp_path / "theta.oact"), "--out", str(tmp_path / "o.pgm")]) == 1
        assert_one_line_error(capsys, str(image), fragment)
        assert not (tmp_path / "o.pgm").exists()

    def test_unreadable_image_exits_1(self, tmp_path, capsys):
        assert main(["warp", "--image", str(tmp_path / "nope.pgm"),
                     "--out", str(tmp_path / "o.pgm")]) == 1

    def test_no_theta_or_checkpoint_exits_1(self, tmp_path, capsys):
        src, _ = save_ramp(tmp_path / "in.pgm")
        assert main(["warp", "--image", src, "--out", str(tmp_path / "o.pgm")]) == 1


# ---------------------------------------------------------------------------
# parser surface


class TestParser:
    def test_unknown_subcommand_exits_1(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_unknown_flag_exits_1(self, capsys):
        assert main(["bench", "--sideways"]) == 1

    @pytest.mark.parametrize("argv,token", [
        (["train", "--conf", "c.cfg"], "--conf"),
        (["eval", "--check", "run/checkpoint"], "--check"),
        (["pck", "--keypoints=kp.csv"], "--keypoints"),
        (["warp", "--imag", "a.pgm", "--out", "b.pgm", "--theta-file", "t.oact"], "--imag"),
    ], ids=["train", "eval", "pck", "warp"])
    def test_unknown_flag_named_before_missing_required_one(self, argv, token, capsys):
        # each argv also lacks a required flag, which argparse would report first
        assert main(argv) == 1
        stdout, err = capsys.readouterr()
        assert err == f"error: oacnet {argv[0]}: unrecognized arguments: {token}\n"
        assert stdout == ""

    @pytest.mark.parametrize("command,other", [("warp", "--theta-file")])
    def test_checkpoint_excludes_other_prediction_source(self, command, other, trained_dir,
                                                         tmp_path, capsys):
        # each of these flags says where the prediction comes from: given
        # together, one would be ignored, so the command is refused
        theta = tmp_path / "theta.oact"
        storage.save_tensor(str(theta), geometry.identity_vector("affine"))
        src, _ = save_ramp(tmp_path / "in.pgm")
        inputs = sorted(p.name for p in tmp_path.iterdir())
        argv = [command, "--checkpoint", str(trained_dir / "checkpoint"), other, str(theta),
                "--image", src, "--out", str(tmp_path / "o.pgm")]
        assert main(argv) == 1
        stdout, err = capsys.readouterr()
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "--checkpoint" in err and other in err
        assert stdout == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == inputs

    @pytest.mark.parametrize("argv", [
        [],
        ["frobnicate"],
        ["bench", "--sideways"],
        ["--pairs", "x"],
        ["eval", "--checkpoint", "{ckpt}", "--pairs", "x"],
        ["eval", "--pairs", "2", "--dump-attention", "{attn}"],
        ["eval", "--checkpoint", "{ckpt}", "--theta-file", "{theta}", "--dump-attention", "{attn}"],
        ["eval", "--checkpoint", "{ckpt}", "--keypoints-csv", "{csv}", "--dump-attention",
         "{attn}"],
        ["eval", "--checkpoint", "{ckpt}", "--pairs", "0", "--dump-attention", "{attn}"],
        ["eval", "--checkpoint", "{ckpt}", "--alpha", "nan", "--dump-attention", "{attn}"],
        ["eval", "--checkpoint", "{ckpt}", "--seed", "-1", "--dump-attention", "{attn}"],
        ["check-equiv", "--seed", "-1"],
        ["bench", "--seed", "-1"],
        ["pck", "--theta-file", "{theta}"],
        ["pck", "--keypoints-csv", "{csv}", "--alpha", "0"],
        ["pck", "--keypoints-csv", "{csv}", "--image-size", "1"],
        ["warp", "--image", "{image}", "--out", "{out}"],
        ["warp", "--image", "{image}", "--out", "{out}", "--theta-file", "{theta}",
         "--checkpoint", "{ckpt}"],
        ["warp", "--image", "{image}", "--out", "{out}", "--theta-file", "{theta}",
         "--seed", "1"],
        ["warp", "--image", "{image}", "--out", "{out}", "--checkpoint", "{ckpt}", "--seed", "-1"],
        # an abbreviation is not a flag's other spelling
        ["eval", "--check", "{ckpt}"],
        ["train", "--conf", "{config}", "--out-dir", "{run}"],
    ], ids=["no-command", "unknown-command", "unknown-flag", "flag-without-command",
            "eval-bad-int", "eval-no-checkpoint", "eval-theta-file", "eval-keypoints-csv",
            "eval-zero-pairs", "eval-nan-alpha", "eval-negative-seed", "check-equiv-negative-seed",
            "bench-negative-seed", "pck-no-keypoints-csv", "pck-zero-alpha", "pck-small-image",
            "warp-no-source", "warp-two-sources", "warp-theta-file-seed", "warp-negative-seed",
            "eval-abbreviated-flag", "train-abbreviated-flag"])
    def test_usage_error_is_one_line(self, argv, trained_dir, tmp_path, capsys):
        # refused before anything runs: exit 1, one "error: " line on stderr,
        # nothing on stdout (not even the resolved configuration), no file written
        paths = {"ckpt": str(trained_dir / "checkpoint"), "attn": str(tmp_path / "attn"),
                 "theta": str(tmp_path / "theta.oact"), "image": save_ramp(tmp_path / "in.pgm")[0],
                 "csv": write_keypoints(tmp_path / "kp.csv", [("p0", 10, 10, 10, 10, 100, 100)]),
                 "out": str(tmp_path / "o.pgm"), "config": write_config(tmp_path / "t.cfg"),
                 "run": str(tmp_path / "run")}
        storage.save_tensor(paths["theta"], geometry.identity_vector("affine"))
        inputs = sorted(p.name for p in tmp_path.iterdir())
        assert main([arg.format(**paths) for arg in argv]) == 1
        stdout, err = capsys.readouterr()
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert stdout == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == inputs

    @pytest.mark.parametrize("command", COMMANDS)
    def test_command_help_exits_0(self, command, capsys):
        assert main([command, "--help"]) == 0
        assert capsys.readouterr().out.startswith(f"usage: oacnet {command} ")

    def test_readme_commands_parse(self):
        # every `oacnet ...` line of README's sh blocks is a command the parser
        # accepts, so an example naming a removed flag or command fails here
        readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
        blocks = re.findall(r"^```sh\n(.*?)^```", readme, flags=re.M | re.S)
        lines = [line for block in blocks for line in block.splitlines()
                 if line.startswith("oacnet ")]
        parser = build_parser()
        for line in lines:
            parser.parse_args(shlex.split(line)[1:])
        assert {shlex.split(line)[1] for line in lines} == set(COMMANDS)

    def test_readme_config_table_is_train_config(self, tmp_path):
        # README's key table lists TrainConfig's keys in order, and its
        # defaults, read as a config file, give TrainConfig()
        readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
        rows = re.findall(r"^\| `(\w+)` \| `?([^|`]*?)`? ?\|", readme, flags=re.M)
        assert [key for key, _ in rows] == list(pipeline.TrainConfig._field_types())
        path = tmp_path / "defaults.cfg"
        path.write_text("".join(f"{key} = {default}\n" for key, default in rows))
        assert pipeline.TrainConfig.from_file(str(path)) == pipeline.TrainConfig()

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        assert "train" in out and "bench" in out
