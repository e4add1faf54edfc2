"""File formats: OACT binary tensors, checkpoints, P5/P6 images, flat configs, CSVs."""

from __future__ import annotations

import dataclasses
import math
import os
import re
import struct
import typing

import numpy as np

from .tensor import ShapeError, assert_finite

MAGIC = b"OACT"
FORMAT_VERSION = 1
# P5/P6 magic, width, height and maxval as nested optional groups, each after whitespace
# and '#' comments; a comment ends only at a newline or the end, so no match backtracks
_IMAGE_HEADER = re.compile(rb"(?:(?:\s|#[^\n]*(?![^\n]))*([^\s#]\S*)" * 4 + rb")?" * 4)


class StorageError(Exception):
    pass


def save_tensor(path, array):
    """Write a float64 array: magic, version u32, rank u32, dims u64 each, payload LE f64."""
    arr = np.asarray(array, dtype=np.float64)
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<II", FORMAT_VERSION, arr.ndim))
        for d in arr.shape:
            f.write(struct.pack("<Q", d))
        f.write(arr.astype("<f8").tobytes())


def _read_exact(f, path, n, what):
    """Read n bytes, after checking the file still holds them (so a corrupt
    size is refused before anything is allocated)."""
    left = os.fstat(f.fileno()).st_size - f.tell()
    if n > left:
        raise StorageError(f"{path}: truncated {what}: needs {n} bytes, {left} left")
    return f.read(n)


def load_tensor(path):
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != MAGIC:
            raise StorageError(f"{path}: bad magic {magic!r}")
        version, rank = struct.unpack("<II", _read_exact(f, path, 8, "header"))
        if version != FORMAT_VERSION:
            raise StorageError(f"{path}: unsupported format version {version}")
        dims = struct.unpack(f"<{rank}Q", _read_exact(f, path, 8 * rank, "dims"))
        payload = _read_exact(f, path, 8 * math.prod(dims), "payload")
        if f.read(1):
            raise StorageError(f"{path}: trailing bytes after the payload")
        data = np.frombuffer(payload, dtype="<f8").astype(np.float64)
    return data.reshape(dims)


def save_checkpoint(dirpath, tensors, config_lines):
    """Write each entry of {name: array} as <name>.oact, and config_lines as config.txt."""
    os.makedirs(dirpath, exist_ok=True)
    for name, arr in tensors.items():
        save_tensor(os.path.join(dirpath, f"{name}.oact"), arr)
    with open(os.path.join(dirpath, "config.txt"), "w") as f:
        f.write("\n".join(config_lines) + "\n")


def load_checkpoint(dirpath, shapes):
    """{name: array} of the tensors named in {name: shape}, each read from
    <name>.oact and refused if it is missing, has another shape or holds
    NaN/Inf. Nothing else in dirpath is read here (config.txt is read by
    ConfigCodec.from_file)."""
    tensors = {}
    for name, shape in shapes.items():
        arr = load_tensor(os.path.join(dirpath, f"{name}.oact"))
        if arr.shape != shape:
            raise ShapeError(f"{dirpath}: {name} shape {arr.shape} != expected {shape}")
        tensors[name] = assert_finite(arr, f"{dirpath}: {name}")
    return tensors


def parse_config_text(text, allowed_keys, source):
    """Flat `key = value` lines with '#' comments, as {key: (line number, value)}.
    A malformed line or an unknown or repeated key raises, naming `source:line:`."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"{source}:{lineno}:"
        if "=" not in line:
            raise StorageError(f"{where} expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise StorageError(f"{where} empty key")
        if key not in allowed_keys:
            raise StorageError(f"{where} unknown key {key!r}")
        if key in out:
            raise StorageError(f"{where} duplicate key {key!r}")
        out[key] = (lineno, value)
    return out


_VALUE_PARSERS = {int: int, float: float, str: str}


class ConfigCodec:
    """Flat `key = value` form of a config dataclass, derived from the declared
    type (int, float or str) of each field."""

    @classmethod
    def _field_types(cls):
        hints = typing.get_type_hints(cls)
        return {f.name: hints[f.name] for f in dataclasses.fields(cls)}

    def to_lines(self):
        return [f"{key} = {getattr(self, key)}" for key in self._field_types()]

    @classmethod
    def from_file(cls, path):
        """The config written in `path`. Every error names the file: a line's
        own fault as `path:line:`, a failed check of the values (some span
        several keys) as `path:`."""
        types = cls._field_types()
        with open(path) as f:
            entries = parse_config_text(f.read(), types, path)
        kwargs = {}
        for key, (lineno, text) in entries.items():
            try:
                kwargs[key] = _VALUE_PARSERS[types[key]](text)
            except ValueError:
                raise StorageError(
                    f"{path}:{lineno}: {key}: expected {types[key].__name__}, got {text!r}"
                ) from None
        try:
            return cls(**kwargs)
        except (ValueError, ShapeError) as e:
            raise StorageError(f"{path}: {e}") from None


# ---------------------------------------------------------------------------
# Portable graymap / pixmap


def save_image(path, image):
    """Write C,H,W float image in [0,1] as P5 (C=1) or P6 (C=3)."""
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 3 or image.shape[0] not in (1, 3):
        raise StorageError(f"image must be 1xHxW or 3xHxW, got {image.shape}")
    c, h, w = image.shape
    pixels = np.clip(np.rint(image * 255.0), 0, 255).astype(np.uint8)
    header = (b"P5" if c == 1 else b"P6") + f"\n{w} {h}\n255\n".encode()
    with open(path, "wb") as f:
        f.write(header)
        # P6 interleaves channels per pixel
        f.write(np.moveaxis(pixels, 0, -1).tobytes() if c == 3 else pixels.tobytes())


def load_image(path):
    """Read a binary P5/P6 file into a C,H,W float image in [0,1]."""
    with open(path, "rb") as f:
        data = f.read()
    header = _IMAGE_HEADER.match(data)
    tokens = [t for t in header.groups() if t is not None]
    if len(tokens) < 4:
        raise StorageError(f"{path}: truncated header: {len(tokens)} of 4 fields")
    pos = header.end() + 1  # single whitespace after maxval
    magic = tokens[0]
    if magic not in (b"P5", b"P6"):
        raise StorageError(f"{path}: unsupported image magic {magic!r}")
    if not all(t.isdigit() for t in tokens[1:]):
        raise StorageError(f"{path}: bad header fields {b' '.join(tokens[1:])!r}")
    w, h, maxval = (int(t) for t in tokens[1:])
    if w == 0 or h == 0:
        raise StorageError(f"{path}: empty image: {w}x{h}")
    if maxval != 255:
        raise StorageError(f"{path}: only maxval 255 supported")
    channels = 1 if magic == b"P5" else 3
    need, have = w * h * channels, max(len(data) - pos, 0)
    if have != need:  # one image per file: nothing may follow its pixels
        raise StorageError(f"{path}: pixel data: expected {need} bytes, got {have}")
    raw = np.frombuffer(data, dtype=np.uint8, count=need, offset=pos)
    img = raw.reshape(h, w, channels).astype(np.float64) / 255.0
    return np.moveaxis(img, -1, 0)


# ---------------------------------------------------------------------------
# Keypoint CSV and loss log


def load_keypoints_csv(path):
    """Rows: pair_id, src_x, src_y, trg_x, trg_y, bbox_h, bbox_w; every row of
    a pair must give the same bbox. The first non-blank line is a header, and
    skipped, when its first field is exactly "pair_id". A file with no data
    row is refused.

    Returns a dict pair_id -> dict(src (n,2), trg (n,2), bbox_h, bbox_w).
    """
    pairs = {}
    with open(path) as f:
        rows = [(lineno, [s.strip() for s in raw.split(",")])
                for lineno, raw in enumerate(f, start=1) if raw.strip()]
    if rows and rows[0][1][0] == "pair_id":
        rows = rows[1:]
    if not rows:
        raise StorageError(f"{path}: no keypoint rows")
    for lineno, fields in rows:
        if len(fields) != 7:
            raise StorageError(f"{path}:{lineno}: expected 7 fields, got {len(fields)}")
        pid = fields[0]
        try:
            values = [float(v) for v in fields[1:]]
        except ValueError as e:
            raise StorageError(f"{path}:{lineno}: {e}") from None
        if not all(math.isfinite(v) for v in values):
            raise StorageError(f"{path}:{lineno}: coordinates and bbox must be finite")
        sx, sy, tx, ty, bh, bw = values
        if bh <= 0 or bw <= 0:
            raise StorageError(f"{path}:{lineno}: bbox dims must be positive")
        rec = pairs.setdefault(pid, {"src": [], "trg": [], "bbox_h": bh, "bbox_w": bw})
        if (bh, bw) != (rec["bbox_h"], rec["bbox_w"]):
            raise StorageError(f"{path}:{lineno}: pair {pid}: bbox {bh} x {bw} differs "
                               f"from its first row's {rec['bbox_h']} x {rec['bbox_w']}")
        rec["src"].append((sx, sy))
        rec["trg"].append((tx, ty))
    for rec in pairs.values():
        rec["src"] = np.asarray(rec["src"], dtype=np.float64)
        rec["trg"] = np.asarray(rec["trg"], dtype=np.float64)
    return pairs


def save_attention(csv_path, pgm_path, alpha):
    """One (H, W) attention map as a CSV, a row per line, and scaled to peak 1 as a PGM."""
    with open(csv_path, "w") as f:
        for row in alpha:
            f.write(",".join(repr(float(v)) for v in row) + "\n")
    save_image(pgm_path, (alpha / alpha.max())[None])


def save_loss_csv(path, history):
    with open(path, "w") as f:
        f.write("step,loss\n")
        for step, loss in history:
            f.write(f"{step},{loss!r}\n")
