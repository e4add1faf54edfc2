"""End-to-end tests of the command-line surface: exit codes, emitted files,
and printed reports."""

import shutil

import numpy as np
import pytest

from oacnet import geometry, pipeline, storage
from oacnet.cli import main
from oacnet.network import AttentiveAlignmentModel

SMALL_CONFIG = {
    "learning_rate": "2e-4",
    "batch_size": "2",
    "epochs": "1",
    "steps_per_epoch": "3",
    "feature_dim": "4",
    "feature_h": "8",
    "feature_w": "8",
    "kernel_count": "4",
    "encoder_channels": "4",
    "g_hidden": "4",
    "g_out": "4",
    "s_hidden": "4",
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
    err = capsys.readouterr().err
    assert err.startswith("error") and err.count("\n") == 1, err
    for fragment in fragments:
        assert fragment in err


# ---------------------------------------------------------------------------
# train


class TestTrainCommand:
    def test_missing_config_exits_1(self, tmp_path, capsys):
        code = main(["train", "--config", str(tmp_path / "absent.cfg"),
                     "--out-dir", str(tmp_path / "out")])
        assert code == 1
        assert "not found" in capsys.readouterr().err

    def test_unknown_key_exits_1(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("learning_rate = 0.1\nwarmup = 5\n")
        code = main(["train", "--config", str(config), "--out-dir", str(tmp_path / "out")])
        assert code == 1
        assert "bad config" in capsys.readouterr().err

    def test_bad_feature_grid_exits_1(self, tmp_path, capsys):
        config = write_config(tmp_path / "grid.cfg", feature_h="5")
        code = main(["train", "--config", config, "--out-dir", str(tmp_path / "out")])
        assert code == 1
        assert_one_line_error(capsys, "bad config")

    def test_smoke_run_emits_artifacts(self, trained_dir, capsys):
        assert (trained_dir / "loss.csv").is_file()
        assert (trained_dir / "checkpoint" / "manifest.txt").is_file()
        assert (trained_dir / "train_config.txt").is_file()
        lines = (trained_dir / "loss.csv").read_text().splitlines()
        assert lines[0] == "step,loss"
        assert len(lines) == 4  # header + 3 steps

    def test_checkpoint_reloads(self, trained_dir):
        model, _ = AttentiveAlignmentModel.load(str(trained_dir / "checkpoint"))
        assert model.config.D == 4

    def test_zero_lr_checkpoint_equals_initialization(self, tmp_path):
        config = write_config(tmp_path / "zero.cfg", learning_rate="0.0")
        code = main(["train", "--config", config, "--out-dir", str(tmp_path / "out")])
        assert code == 0
        model, _ = AttentiveAlignmentModel.load(str(tmp_path / "out" / "checkpoint"))
        fresh = AttentiveAlignmentModel(
            pipeline.TrainConfig.from_file(config).model_config()
        )
        for p, q in zip(model.parameters(), fresh.parameters()):
            assert p.name == q.name
            assert np.array_equal(p.value, q.value), p.name

    def test_seed_flag_overrides_config(self, tmp_path, capsys):
        config = write_config(tmp_path / "s.cfg")
        code = main(["train", "--config", config, "--out-dir", str(tmp_path / "out"),
                     "--seed", "17"])
        assert code == 0
        assert "seed: 17" in capsys.readouterr().out

    def test_divergence_guard_exits_2(self, tmp_path, capsys, monkeypatch):
        def explode(config, log_fn=None):
            raise pipeline.DivergenceError("boom")

        monkeypatch.setattr(pipeline, "train", explode)
        config = write_config(tmp_path / "d.cfg")
        code = main(["train", "--config", config, "--out-dir", str(tmp_path / "out")])
        assert code == 2
        assert "divergence" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# check-equiv


class TestCheckEquivCommand:
    def test_default_dims_pass(self, capsys):
        assert main(["check-equiv", "--dims", "4x4x2", "--trials", "100"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_degenerate_dims_pass(self, capsys):
        assert main(["check-equiv", "--dims", "1x1x1", "--trials", "5"]) == 0

    def test_corrupted_layout_fails(self, capsys):
        code = main(["check-equiv", "--dims", "4x4x2", "--trials", "5",
                     "--corrupt-layout"])
        assert code == 2
        assert "FAIL" in capsys.readouterr().out

    def test_bad_dims_exits_1(self, capsys):
        assert main(["check-equiv", "--dims", "4by4"]) == 1

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
        assert main(["bench", "--dims", "x"]) == 1


# ---------------------------------------------------------------------------
# eval


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
        assert main(["eval", "--keypoints-csv", csv, "--alpha", "0.1"]) == 0
        assert "PCK(alpha=0.1): 0.5000 over 2 keypoints" in capsys.readouterr().out

    def test_alpha_monotone(self, tmp_path, capsys):
        rows = [("p0", 10 * i, 10, 10 * i, 10 + 2 * i, 100, 100) for i in range(8)]
        csv = write_keypoints(tmp_path / "kp.csv", rows)

        def pck_at(alpha):
            assert main(["eval", "--keypoints-csv", csv, "--alpha", str(alpha)]) == 0
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
        assert main(["eval", "--keypoints-csv", csv, "--alpha", "0.1",
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

    def test_missing_inputs_exit_1(self, capsys):
        assert main(["eval"]) == 1

    def test_bad_checkpoint_exits_1(self, tmp_path, capsys):
        assert main(["eval", "--checkpoint", str(tmp_path / "nope")]) == 1

    def test_bad_theta_size_exits_1(self, tmp_path, capsys):
        storage.save_tensor(str(tmp_path / "theta.oact"), np.zeros(7))
        csv = write_keypoints(tmp_path / "kp.csv", [("p0", 10, 10, 10, 10, 100, 100)])
        assert main(["eval", "--keypoints-csv", csv,
                     "--theta-file", str(tmp_path / "theta.oact")]) == 1
        assert_one_line_error(capsys, "6 or 18 values")

    def test_missing_bn_stat_exits_1(self, trained_dir, tmp_path, capsys):
        run = shutil.copytree(trained_dir, tmp_path / "run")
        manifest = run / "checkpoint" / "manifest.txt"
        lines = manifest.read_text().splitlines(keepends=True)
        manifest.write_text("".join(
            line for line in lines if not line.startswith("encoder.bn.running_mean ")))
        assert main(["eval", "--checkpoint", str(run / "checkpoint"), "--pairs", "2"]) == 1
        assert_one_line_error(capsys, "encoder.bn.running_mean")

    @pytest.mark.parametrize("command", ["eval", "warp"])
    def test_malformed_train_config_exits_1(self, command, trained_dir, tmp_path, capsys):
        run = shutil.copytree(trained_dir, tmp_path / "run")
        with open(run / "train_config.txt", "a") as f:
            f.write("warmup = 5\n")
        argv = [command, "--checkpoint", str(run / "checkpoint")]
        if command == "warp":
            src, _ = save_ramp(tmp_path / "in.pgm")
            argv += ["--image", src, "--out", str(tmp_path / "o.pgm")]
        assert main(argv) == 1
        assert_one_line_error(capsys, "warmup")


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
        storage.save_tensor(str(tmp_path / "theta.oact"), np.zeros(5))
        assert main(["warp", "--image", src, "--theta-file",
                     str(tmp_path / "theta.oact"), "--out", str(tmp_path / "o.pgm")]) == 1

    def test_checkpoint_mode_emits_files(self, trained_dir, tmp_path, capsys):
        src, _ = save_ramp(tmp_path / "in.pgm")
        out = tmp_path / "warped.pgm"
        code = main(["warp", "--image", src, "--checkpoint",
                     str(trained_dir / "checkpoint"), "--out", str(out)])
        assert code == 0
        assert out.is_file()
        attn_csv = tmp_path / "warped_attention.csv"
        assert attn_csv.is_file() and (tmp_path / "warped_attention.pgm").is_file()
        rows = [[float(v) for v in line.split(",")]
                for line in attn_csv.read_text().splitlines()]
        assert abs(sum(sum(r) for r in rows) - 1.0) <= 1e-12

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

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        assert "train" in out and "bench" in out
