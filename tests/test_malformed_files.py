"""Malformed-file fuzzing of the command line, and outputs it cannot write.

Each file kind a command reads is truncated, extended or has one byte
replaced, in a way that by the format's own rules leaves it malformed:

  kind               command          truncate to              extend by     replace
  .oact (checkpoint  eval             any strict prefix        any bytes     a header byte
    tensor, theta)   warp                                                    (a payload value
                                                                             by NaN/Inf: exit 2)
  training config    eval, train      inside a key             a junk line   a key byte or '='
    (checkpoint's
    config.txt, or
    train --config)
  PGM/PPM            warp             any strict prefix        any bytes     a header field byte
  keypoint CSV       pck              before a row's 7th field a junk line   a comma

Every case must exit 1 (2 where a tensor payload decodes to NaN/Inf) with
exactly one line on stderr starting with "error", and leave no output behind.
A junk line holds no whitespace, '=', '#', ',' or '.', so it is one field
naming no key and no keypoint row. A replacement byte for a text file is
never whitespace or '#', which would only re-split fields or open a comment.

Every command that writes stages all its outputs and renames them into place
only after every write succeeded. An output it cannot write is refused before
anything runs:

  command            output                                  in the way
  train              --out-dir                               a non-empty directory, a file
  eval               --dump-attention                        a non-empty directory, a file
  warp --checkpoint  --out, <stem>_attention.csv and .pgm    a directory
  warp --theta-file  --out                                   a directory

Each case must exit 1 with one line on stderr starting with "error", print
nothing on stdout, and leave the directory as it was: no output and no
temporary ".oacnet-*" sibling. A write that fails midway leaves nothing either.
"""

import contextlib
import io
import os
import shutil
import string
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oacnet import geometry, pipeline, storage
from oacnet.cli import main

# the seven kinds take about 2 s in all on a 2-vCPU Xeon
FUZZ = settings(max_examples=20, deadline=None)

TRAIN_CONFIG = pipeline.TrainConfig(
    learning_rate=2e-4, batch_size=2, total_steps=2, D=4,
    N=4, encoder_channels=4, image_size=16, image_channels=1, corpus_size=4,
)

JUNK_LINE = st.text(
    st.sampled_from([c for c in string.printable if not c.isspace() and c not in "=#,."]),
    min_size=1, max_size=12,
).map(lambda t: t.encode() + b"\n")
TEXT_BYTES = [b for b in range(256) if not chr(b).isspace() and b != ord("#")]


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    (root / "train.cfg").write_text("\n".join(TRAIN_CONFIG.to_lines()) + "\n")
    assert main(["train", "--config", str(root / "train.cfg"), "--out-dir",
                 str(root / "run")]) == 0
    return root / "run"


@contextlib.contextmanager
def copied_run(run_dir):
    with tempfile.TemporaryDirectory() as tmp:
        yield shutil.copytree(run_dir, os.path.join(tmp, "run"))


def assert_refused(argv, code=1, out=None):
    """(stdout, stderr) of a refused command."""
    err, stdout = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(stdout):
        got = main(argv)
    err = err.getvalue()
    assert got == code, (got, err)
    assert err.startswith("error") and err.count("\n") == 1, err
    assert out is None or not os.path.exists(out)
    return stdout.getvalue(), err


@st.composite
def mutated(draw, blob, cuts, extension, flips, flip_bytes=tuple(range(256))):
    """blob truncated to one of the lengths `cuts`, extended by a drawn
    `extension`, or with its byte at one of the offsets `flips` replaced."""
    how = draw(st.sampled_from(["truncate", "extend", "replace"]))
    if how == "truncate":
        return blob[:draw(st.sampled_from(cuts))]
    if how == "extend":
        return blob + draw(extension)
    i = draw(st.sampled_from(flips))
    b = draw(st.sampled_from([b for b in flip_bytes if b != blob[i]]))
    return blob[:i] + bytes([b]) + blob[i + 1:]


@st.composite
def mutated_oact(draw, blob):
    """(bytes, payload has NaN/Inf) for an OACT file: broken structure, or
    one payload value overwritten by NaN or +-Inf."""
    rank = struct.unpack("<I", blob[8:12])[0]
    header = 12 + 8 * rank
    if len(blob) > header and draw(st.booleans()):
        i = header + 8 * draw(st.integers(0, (len(blob) - header) // 8 - 1))
        value = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        return blob[:i] + struct.pack("<d", value) + blob[i + 8:], True
    broken = draw(mutated(blob, range(len(blob)), st.binary(min_size=1, max_size=16),
                          range(header)))
    return broken, False


def key_spans(blob):
    """Per `key = value` line: (line start, offset of '=')."""
    spans, start = [], 0
    for line in blob.split(b"\n")[:-1]:
        if b"=" in line:
            spans.append((start, start + line.index(b"=")))
        start += len(line) + 1
    return spans


def mutated_config(blob):
    spans = key_spans(blob)
    cuts = [n for start, eq in spans for n in range(start + 1, eq + 1)]
    flips = [i for start, eq in spans for i in range(start, eq + 1) if blob[i] != ord(" ")]
    return mutated(blob, cuts, JUNK_LINE, flips, TEXT_BYTES)


# ---------------------------------------------------------------------------
# checkpoint files, read by eval


@FUZZ
@given(data=st.data())
def test_checkpoint_tensor(run_dir, data):
    names = sorted(p.name for p in (run_dir / "checkpoint").glob("*.oact"))
    name = data.draw(st.sampled_from(names))
    blob, non_finite = data.draw(mutated_oact((run_dir / "checkpoint" / name).read_bytes()))
    with copied_run(run_dir) as run:
        with open(os.path.join(run, "checkpoint", name), "wb") as f:
            f.write(blob)
        assert_refused(["eval", "--checkpoint", os.path.join(run, "checkpoint"),
                        "--pairs", "2"], code=2 if non_finite else 1)


@FUZZ
@given(data=st.data())
def test_checkpoint_config(run_dir, data):
    blob = data.draw(mutated_config((run_dir / "checkpoint" / "config.txt").read_bytes()))
    with copied_run(run_dir) as run:
        with open(os.path.join(run, "checkpoint", "config.txt"), "wb") as f:
            f.write(blob)
        assert_refused(["eval", "--checkpoint", os.path.join(run, "checkpoint"),
                        "--pairs", "2"])


# ---------------------------------------------------------------------------
# train config, read by train


@FUZZ
@given(data=st.data())
def test_train_config(data):
    blob = ("\n".join(TRAIN_CONFIG.to_lines()) + "\n").encode()
    blob = data.draw(mutated_config(blob))
    with tempfile.TemporaryDirectory() as tmp:
        config, out = os.path.join(tmp, "train.cfg"), os.path.join(tmp, "out")
        with open(config, "wb") as f:
            f.write(blob)
        assert_refused(["train", "--config", config, "--out-dir", out], out=out)
        assert os.listdir(tmp) == ["train.cfg"]


# ---------------------------------------------------------------------------
# images and theta files, read by warp; keypoint CSVs, read by pck


def ramp(channels, size=8):
    return np.broadcast_to(np.arange(size) / (size - 1), (channels, size, size))


@FUZZ
@given(data=st.data(), channels=st.sampled_from([1, 3]))
def test_image(data, channels):
    with tempfile.TemporaryDirectory() as tmp:
        image, theta, out = (os.path.join(tmp, n) for n in ("in.pgm", "theta.oact", "o.pgm"))
        storage.save_image(image, ramp(channels))
        storage.save_tensor(theta, geometry.identity_vector("affine"))
        with open(image, "rb") as f:
            blob = f.read()
        header = blob.index(b"255\n") + 3
        fields = [i for i in range(header) if not chr(blob[i]).isspace()]
        alnum = [ord(c) for c in string.ascii_letters + string.digits]
        blob = data.draw(mutated(blob, range(len(blob)), st.binary(min_size=1, max_size=16),
                                 fields, alnum))
        with open(image, "wb") as f:
            f.write(blob)
        assert_refused(["warp", "--image", image, "--theta-file", theta, "--out", out],
                       out=out)


@FUZZ
@given(data=st.data(), size=st.sampled_from([6, 8, 18, 32]))
def test_theta_file(data, size):
    with tempfile.TemporaryDirectory() as tmp:
        image, theta, out = (os.path.join(tmp, n) for n in ("in.pgm", "theta.oact", "o.pgm"))
        storage.save_image(image, ramp(1))
        storage.save_tensor(theta, geometry.identity_vector("affine") if size == 6
                            else np.linspace(-0.1, 0.1, size))
        with open(theta, "rb") as f:
            blob, non_finite = data.draw(mutated_oact(f.read()))
        with open(theta, "wb") as f:
            f.write(blob)
        assert_refused(["warp", "--image", image, "--theta-file", theta, "--out", out],
                       code=2 if non_finite else 1, out=out)


@FUZZ
@given(data=st.data())
def test_keypoint_csv(data):
    blob = b"p0,10,10,12,11,100,100\np0,20,5,21,6,100,100\np1,3,4,5,6,50,40\n"
    starts = [0] + [i + 1 for i, b in enumerate(blob[:-1]) if b == ord("\n")]
    sixth = [blob.index(b",", s) for s in starts]
    for _ in range(5):
        sixth = [blob.index(b",", c + 1) for c in sixth]
    cuts = [n for s, c in zip(starts, sixth) for n in range(s + 1, c + 2)]
    commas = [i for i, b in enumerate(blob) if b == ord(",")]
    blob = data.draw(mutated(blob, cuts, JUNK_LINE, commas, TEXT_BYTES))
    with tempfile.TemporaryDirectory() as tmp:
        csv = os.path.join(tmp, "kp.csv")
        with open(csv, "wb") as f:
            f.write(blob)
        assert_refused(["pck", "--keypoints-csv", csv])


# ---------------------------------------------------------------------------
# outputs in the way, written by train, eval and warp

COMMANDS = {
    "train": ["train", "--config", "{cfg}", "--out-dir", "{tmp}/run"],
    "eval": ["eval", "--checkpoint", "{ckpt}", "--pairs", "2", "--dump-attention", "{tmp}/attn"],
    "warp-checkpoint": ["warp", "--image", "{tmp}/in.pgm", "--checkpoint", "{ckpt}",
                        "--out", "{tmp}/w.pgm"],
    "warp-theta-file": ["warp", "--image", "{tmp}/in.pgm", "--theta-file", "{tmp}/theta.oact",
                        "--out", "{tmp}/w.pgm"],
}


def command_argv(run_dir, tmp, command):
    """argv of `command` writing into tmp; warp's inputs are made there."""
    if command.startswith("warp"):
        storage.save_image(os.path.join(tmp, "in.pgm"), ramp(1, TRAIN_CONFIG.image_size))
        storage.save_tensor(os.path.join(tmp, "theta.oact"), geometry.identity_vector("affine"))
    paths = {"cfg": str(run_dir.parent / "train.cfg"), "ckpt": str(run_dir / "checkpoint"),
             "tmp": tmp}
    return [arg.format(**paths) for arg in COMMANDS[command]]


def listing(root):
    return sorted(os.path.relpath(os.path.join(d, name), root)
                  for d, dirs, files in os.walk(root) for name in dirs + files)


@pytest.mark.parametrize("command,output,obstacle", [
    ("train", "run", "non-empty directory"),
    ("train", "run", "file"),
    ("eval", "attn", "non-empty directory"),
    ("eval", "attn", "file"),
    ("warp-checkpoint", "w.pgm", "directory"),
    ("warp-checkpoint", "w_attention.csv", "directory"),
    ("warp-checkpoint", "w_attention.pgm", "directory"),
    ("warp-theta-file", "w.pgm", "directory"),
])
def test_output_in_the_way(run_dir, command, output, obstacle):
    with tempfile.TemporaryDirectory() as tmp:
        argv = command_argv(run_dir, tmp, command)
        target = os.path.join(tmp, output)
        if obstacle == "file":
            with open(target, "w") as f:
                f.write("old")
        else:
            os.mkdir(target)
        if obstacle == "non-empty directory":
            with open(os.path.join(target, "keep.txt"), "w") as f:
                f.write("old")
        before = listing(tmp)
        stdout, err = assert_refused(argv)
        assert stdout == "" and target in err, err
        assert listing(tmp) == before


@pytest.mark.parametrize("command,writer", [("warp-checkpoint", "save_image"),
                                            ("eval", "save_attention")])
def test_write_failing_midway_leaves_nothing(run_dir, monkeypatch, command, writer):
    # warp --checkpoint's second image is its attention graymap; eval's
    # second attention dump is its second pair's
    with tempfile.TemporaryDirectory() as tmp:
        argv = command_argv(run_dir, tmp, command)
        before = listing(tmp)
        write, calls = getattr(storage, writer), []

        def fail_second(*args):
            calls.append(args)
            if len(calls) == 2:
                raise OSError("No space left on device")
            write(*args)

        monkeypatch.setattr(storage, writer, fail_second)
        _, err = assert_refused(argv)
        assert err == "error: No space left on device\n"
        assert len(calls) == 2
        assert listing(tmp) == before


@pytest.mark.parametrize("existing", [False, True])
def test_dump_attention_directory_with_trailing_slash(run_dir, monkeypatch, existing):
    # README's form, `--dump-attention attn/`, publishes attn/ (absent or empty)
    with tempfile.TemporaryDirectory() as tmp:
        monkeypatch.chdir(tmp)
        if existing:
            os.mkdir("attn")
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["eval", "--checkpoint", str(run_dir / "checkpoint"), "--pairs", "2",
                         "--dump-attention", "attn/"]) == 0
        assert listing(tmp) == ["attn"] + [f"attn/attention_000{i}.{ext}"
                                           for i in range(2) for ext in ("csv", "pgm")]
