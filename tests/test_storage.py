"""Tests for the binary tensor format, checkpoints, images, configs, and CSVs."""

import dataclasses
import os
import re
import struct
import tempfile
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oacnet import geometry, storage


# ---------------------------------------------------------------------------
# Tensor files


class TestTensorFile:
    def test_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(0)
        arr = rng.standard_normal((3, 4, 5))
        path = str(tmp_path / "t.oact")
        # a transposed view is written in its own (C) order, not its memory's
        for view in (arr, arr.transpose(2, 0, 1)):
            storage.save_tensor(path, view)
            out = storage.load_tensor(path)
            assert out.shape == view.shape
            assert np.array_equal(out, view)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(1, 5), min_size=0, max_size=4), st.integers(0, 2**31))
    def test_round_trip_any_rank(self, shape, seed):
        rng = np.random.default_rng(seed)
        arr = rng.standard_normal(shape) if shape else np.float64(rng.standard_normal())
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "t.oact")
            storage.save_tensor(path, arr)
            out = storage.load_tensor(path)
        assert out.shape == tuple(shape)
        assert np.array_equal(out, np.asarray(arr))

    def test_rank_0_scalar(self, tmp_path):
        path = str(tmp_path / "s.oact")
        storage.save_tensor(path, np.float64(3.25))
        out = storage.load_tensor(path)
        assert out.shape == ()
        assert out == 3.25

    def test_header_layout(self, tmp_path):
        path = str(tmp_path / "h.oact")
        storage.save_tensor(path, np.arange(6.0).reshape(2, 3))
        blob = open(path, "rb").read()
        assert blob[:4] == b"OACT"
        version, rank = struct.unpack("<II", blob[4:12])
        assert (version, rank) == (1, 2)
        assert struct.unpack("<QQ", blob[12:28]) == (2, 3)
        assert np.frombuffer(blob[28:], dtype="<f8").tolist() == list(range(6))

    def test_noncontiguous_input(self, tmp_path):
        arr = np.arange(24.0).reshape(4, 6)[:, ::2]
        path = str(tmp_path / "nc.oact")
        storage.save_tensor(path, arr)
        assert np.array_equal(storage.load_tensor(path), arr)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.oact"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(storage.StorageError, match="magic"):
            storage.load_tensor(str(path))

    def test_bad_version_rejected(self, tmp_path):
        path = tmp_path / "v.oact"
        path.write_bytes(b"OACT" + struct.pack("<II", 99, 0) + struct.pack("<d", 1.0))
        with pytest.raises(storage.StorageError, match="version"):
            storage.load_tensor(str(path))

    def test_truncated_payload_rejected(self, tmp_path):
        path = str(tmp_path / "t.oact")
        storage.save_tensor(path, np.ones((4, 4)))
        blob = open(path, "rb").read()
        (tmp_path / "trunc.oact").write_bytes(blob[:-8])
        with pytest.raises(storage.StorageError, match="truncated"):
            storage.load_tensor(str(tmp_path / "trunc.oact"))

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "t.oact"
        storage.save_tensor(str(path), np.ones((2, 3)))
        path.write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises(storage.StorageError, match="trailing bytes after the payload"):
            storage.load_tensor(str(path))


# ---------------------------------------------------------------------------
# Checkpoints


class TestCheckpoint:
    def test_round_trip_with_roles_and_config(self, tmp_path):
        rng = np.random.default_rng(1)
        tensors = {"head.w": rng.standard_normal((6, 4)), "enc.bn.num_updates": np.float64(7.0)}
        path = str(tmp_path / "ckpt")
        storage.save_checkpoint(path, tensors, config_lines=["family = affine"])
        assert sorted(os.listdir(path)) == ["config.txt", "enc.bn.num_updates.oact",
                                            "head.w.oact"]
        loaded = storage.load_checkpoint(path, {"head.w": (6, 4), "enc.bn.num_updates": ()})
        assert np.array_equal(loaded["head.w"], tensors["head.w"])
        assert loaded["enc.bn.num_updates"].shape == ()
        assert loaded["enc.bn.num_updates"] == 7.0
        assert (tmp_path / "ckpt" / "config.txt").read_text() == "family = affine\n"


# ---------------------------------------------------------------------------
# Flat configs


class TestConfigParsing:
    def test_basic_and_comments(self):
        text = "# header\nlr = 0.1  # inline\n\nname = net\n"
        assert storage.parse_config_text(text, ("lr", "name"), "c.cfg") == {
            "lr": (2, "0.1"), "name": (4, "net")}

    def test_unknown_key_rejected_with_line_number(self):
        with pytest.raises(storage.StorageError, match="^c.cfg:2: unknown key 'bogus'"):
            storage.parse_config_text("a = 1\nbogus = 2\n", ("a",), "c.cfg")

    def test_duplicate_key_rejected(self):
        with pytest.raises(storage.StorageError, match="^c.cfg:2: duplicate key 'a'"):
            storage.parse_config_text("a = 1\na = 2\n", ("a",), "c.cfg")

    def test_missing_equals_rejected(self):
        with pytest.raises(storage.StorageError, match="^c.cfg:1:"):
            storage.parse_config_text("just some words\n", ("a",), "c.cfg")

    def test_empty_key_rejected(self):
        with pytest.raises(storage.StorageError, match="^c.cfg:1: empty key"):
            storage.parse_config_text(" = 3\n", ("a",), "c.cfg")

    def test_value_may_contain_equals(self):
        assert storage.parse_config_text("expr = a=b", ("expr",), "c.cfg") == {
            "expr": (1, "a=b")}

    def test_load_config_file(self, tmp_path):
        @dataclasses.dataclass
        class Tiny(storage.ConfigCodec):
            alpha: float = 1.0
            n: int = 2

            def __post_init__(self):
                if self.n < 0:
                    raise ValueError(f"n must be >= 0, got {self.n}")

        path = tmp_path / "c.cfg"
        path.write_text("alpha = 0.1\n")
        assert Tiny.from_file(str(path)) == Tiny(alpha=0.1)
        # a line's own fault names the line; a failed value check the file
        for text, prefix in (("alpha = 1\nn = 2.5\n", f"{path}:2: n: expected int"),
                             ("n = -1\n", f"{path}: n must be >= 0, got -1")):
            path.write_text(text)
            with pytest.raises(storage.StorageError) as err:
                Tiny.from_file(str(path))
            assert str(err.value).startswith(prefix), err.value


# ---------------------------------------------------------------------------
# Images


class TestImages:
    def test_p5_round_trip(self, tmp_path):
        img = np.linspace(0, 1, 25).reshape(1, 5, 5)
        path = str(tmp_path / "g.pgm")
        storage.save_image(path, img)
        out = storage.load_image(path)
        assert out.shape == (1, 5, 5)
        assert np.array_equal(np.rint(out * 255), np.rint(img * 255))

    def test_p6_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        img = rng.integers(0, 256, size=(3, 4, 6)).astype(np.float64) / 255.0
        path = str(tmp_path / "c.ppm")
        storage.save_image(path, img)
        out = storage.load_image(path)
        assert out.shape == (3, 4, 6)
        assert np.array_equal(out, img)

    def test_quantization_to_255_levels(self, tmp_path):
        img = np.full((1, 2, 2), 0.5)
        path = str(tmp_path / "q.pgm")
        storage.save_image(path, img)
        assert np.allclose(storage.load_image(path), 128 / 255.0)

    def test_header_comments_skipped(self, tmp_path):
        payload = bytes(range(4))
        (tmp_path / "c.pgm").write_bytes(b"P5\n# a comment\n2 2\n255\n" + payload)
        out = storage.load_image(str(tmp_path / "c.pgm"))
        assert np.array_equal(out, np.arange(4).reshape(1, 2, 2) / 255.0)

    def test_wrong_channel_count_rejected(self, tmp_path):
        with pytest.raises(storage.StorageError):
            storage.save_image(str(tmp_path / "x.pgm"), np.zeros((2, 3, 3)))

    def test_bad_magic_rejected(self, tmp_path):
        (tmp_path / "x.pgm").write_bytes(b"P2\n2 2\n255\n0 0 0 0\n")
        with pytest.raises(storage.StorageError, match="magic"):
            storage.load_image(str(tmp_path / "x.pgm"))

    @pytest.mark.parametrize("header", [b"P5\n0 0\n255\n", b"P5\n0 4\n255\n", b"P6\n4 0\n255\n"])
    def test_empty_image_rejected(self, header, tmp_path):
        path = tmp_path / "x.pgm"
        path.write_bytes(header)
        with pytest.raises(storage.StorageError, match=f"{path}: empty image"):
            storage.load_image(str(path))

    def test_bad_maxval_rejected(self, tmp_path):
        (tmp_path / "x.pgm").write_bytes(b"P5\n1 1\n65535\n\x00\x00")
        with pytest.raises(storage.StorageError, match="maxval"):
            storage.load_image(str(tmp_path / "x.pgm"))

    def test_unterminated_comment_refused_at_once(self, tmp_path):
        # a comment that could end before a '#' would make the failed header
        # match backtrack exponentially in the run of '#'s
        path = tmp_path / "x.pgm"
        path.write_bytes(b"P5 " + b"#" * 10_000)
        t0 = time.perf_counter()
        with pytest.raises(storage.StorageError, match="truncated header: 1 of 4 fields"):
            storage.load_image(str(path))
        assert time.perf_counter() - t0 < 1.0

    def test_attention_csv_and_graymap(self, tmp_path):
        alpha = np.array([[0.1, 0.2, 0.3], [0.06, 0.04, 0.3]])
        csv, pgm = tmp_path / "a.csv", tmp_path / "a.pgm"
        storage.save_attention(str(csv), str(pgm), alpha)
        assert csv.read_text() == "0.1,0.2,0.3\n0.06,0.04,0.3\n"
        # scaled to peak 1: the largest weight is white
        assert pgm.read_bytes() == b"P5\n3 2\n255\n" + bytes([85, 170, 255, 51, 34, 255])


# ---------------------------------------------------------------------------
# Keypoint and loss CSVs


class TestKeypointsCsv:
    def test_parse_groups_by_pair(self, tmp_path):
        path = tmp_path / "kp.csv"
        path.write_text(
            "pair_id,src_x,src_y,trg_x,trg_y,bbox_h,bbox_w\n"
            "p0,1,2,3,4,10,20\n"
            "p0,5,6,7,8,10,20\n"
            "p1,0,0,1,1,5,5\n"
        )
        pairs = storage.load_keypoints_csv(str(path))
        assert set(pairs) == {"p0", "p1"}
        assert np.array_equal(pairs["p0"]["src"], [[1, 2], [5, 6]])
        assert np.array_equal(pairs["p0"]["trg"], [[3, 4], [7, 8]])
        assert pairs["p0"]["bbox_h"] == 10 and pairs["p0"]["bbox_w"] == 20
        assert pairs["p1"]["src"].shape == (1, 2)

    def test_only_first_line_can_be_header(self, tmp_path):
        # a pair id that merely starts with "pair_id" is data, header or not
        path = tmp_path / "kp.csv"
        rows = "pair_id_7,50,50,70,50,100,100\np0,50,50,55,50,100,100\n"
        for text in ("\npair_id,src_x,src_y,trg_x,trg_y,bbox_h,bbox_w\n" + rows, rows):
            path.write_text(text)
            pairs = storage.load_keypoints_csv(str(path))
            assert set(pairs) == {"pair_id_7", "p0"}
            identity = dict.fromkeys(pairs, geometry.identity_vector("affine"))
            assert geometry.pck(pairs, identity, 0.1, (240, 240)) == 0.5
        path.write_text(rows + "pair_id,src_x,src_y,trg_x,trg_y,bbox_h,bbox_w\n")
        with pytest.raises(storage.StorageError, match=f"{path}:3: could not convert"):
            storage.load_keypoints_csv(str(path))

    @pytest.mark.parametrize("text", ["", "\n\n", "pair_id,src_x,src_y,trg_x,trg_y,bbox_h,bbox_w\n"])
    def test_no_data_rows_rejected(self, text, tmp_path):
        path = tmp_path / "kp.csv"
        path.write_text(text)
        with pytest.raises(storage.StorageError, match=re.escape(f"{path}: no keypoint rows")):
            storage.load_keypoints_csv(str(path))

    def test_wrong_field_count_rejected(self, tmp_path):
        path = tmp_path / "kp.csv"
        path.write_text("p0,1,2,3\n")
        with pytest.raises(storage.StorageError, match="7 fields"):
            storage.load_keypoints_csv(str(path))

    def test_nonpositive_bbox_rejected(self, tmp_path):
        path = tmp_path / "kp.csv"
        path.write_text("p0,1,2,3,4,0,20\n")
        with pytest.raises(storage.StorageError, match="bbox"):
            storage.load_keypoints_csv(str(path))

    def test_bbox_differing_within_a_pair_rejected(self, tmp_path):
        # either row order is refused, so the score cannot depend on it
        rows = ["p0,1,2,3,4,10,20", "p0,5,6,7,8,10,40"]
        path = tmp_path / "kp.csv"
        for first, second in (rows, rows[::-1]):
            path.write_text(f"pair_id,src_x,src_y,trg_x,trg_y,bbox_h,bbox_w\n{first}\n{second}\n")
            with pytest.raises(storage.StorageError,
                               match=f"{path}:3: pair p0: bbox .* differs from its first row"):
                storage.load_keypoints_csv(str(path))

    @pytest.mark.parametrize("line,fragment", [
        ("p0,1,two,3,4,10,20", "could not convert"),
        ("p0,1,2,3,4,nan,20", "finite"),
        ("p0,1,2,-inf,4,10,20", "finite"),
        ("p0,NaN,2,3,4,10,20", "finite"),
    ])
    def test_bad_value_rejected_with_line(self, line, fragment, tmp_path):
        path = tmp_path / "kp.csv"
        path.write_text("pair_id,src_x,src_y,trg_x,trg_y,bbox_h,bbox_w\n"
                        "p0,1,2,3,4,10,20\n" + line + "\n")
        with pytest.raises(storage.StorageError, match=f"{path}:3: .*{fragment}"):
            storage.load_keypoints_csv(str(path))


class TestLossCsv:
    def test_write_and_reparse_exact(self, tmp_path):
        history = [(1, 0.1), (2, 1.0 / 3.0), (3, 5e-17)]
        path = tmp_path / "loss.csv"
        storage.save_loss_csv(str(path), history)
        lines = path.read_text().splitlines()
        assert lines[0] == "step,loss"
        for (step, loss), line in zip(history, lines[1:]):
            s, v = line.split(",")
            assert int(s) == step
            # repr round-trips float64 exactly
            assert float(v) == loss
