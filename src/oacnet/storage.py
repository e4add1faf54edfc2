"""File formats: OACT binary tensors, checkpoints, P5/P6 images, flat configs, CSVs."""

from __future__ import annotations

import dataclasses
import os
import struct
import typing

import numpy as np

MAGIC = b"OACT"
FORMAT_VERSION = 1


class StorageError(Exception):
    pass


def save_tensor(path, array):
    """Write a float64 array: magic, version u32, rank u32, dims u64 each, payload LE f64."""
    arr = np.asarray(array, dtype=np.float64)
    if arr.ndim > 0:
        arr = np.ascontiguousarray(arr)
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<II", FORMAT_VERSION, arr.ndim))
        for d in arr.shape:
            f.write(struct.pack("<Q", d))
        f.write(arr.astype("<f8").tobytes())


def load_tensor(path):
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != MAGIC:
            raise StorageError(f"{path}: bad magic {magic!r}")
        version, rank = struct.unpack("<II", f.read(8))
        if version != FORMAT_VERSION:
            raise StorageError(f"{path}: unsupported format version {version}")
        dims = [struct.unpack("<Q", f.read(8))[0] for _ in range(rank)]
        count = int(np.prod(dims)) if dims else 1
        payload = f.read(8 * count)
        if len(payload) != 8 * count:
            raise StorageError(f"{path}: truncated payload")
        data = np.frombuffer(payload, dtype="<f8").astype(np.float64)
    return data.reshape(dims)


def save_checkpoint(dirpath, tensors, config_lines=None):
    """Write named tensors plus a manifest; tensors is a list of (name, array, role)."""
    os.makedirs(dirpath, exist_ok=True)
    manifest = []
    for name, arr, role in tensors:
        fname = name.replace("/", "_") + ".oact"
        save_tensor(os.path.join(dirpath, fname), arr)
        shape = "x".join(str(d) for d in np.asarray(arr).shape) or "scalar"
        manifest.append(f"{name} {shape} {role}")
    with open(os.path.join(dirpath, "manifest.txt"), "w") as f:
        f.write("\n".join(manifest) + "\n")
    if config_lines is not None:
        with open(os.path.join(dirpath, "config.txt"), "w") as f:
            f.write("\n".join(config_lines) + "\n")


def load_checkpoint(dirpath):
    """Return ({name: array}, {name: (shape, role)}, config dict or None)."""
    manifest_path = os.path.join(dirpath, "manifest.txt")
    if not os.path.isfile(manifest_path):
        raise StorageError(f"{dirpath}: missing manifest.txt")
    entries = {}
    tensors = {}
    with open(manifest_path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            name, shape, role = line.split()
            dims = () if shape == "scalar" else tuple(int(d) for d in shape.split("x"))
            entries[name] = (dims, role)
            arr = load_tensor(os.path.join(dirpath, name.replace("/", "_") + ".oact"))
            if tuple(arr.shape) != dims:
                raise StorageError(f"{dirpath}: {name} shape {arr.shape} != manifest {dims}")
            tensors[name] = arr
    config = None
    config_path = os.path.join(dirpath, "config.txt")
    if os.path.isfile(config_path):
        config = parse_config_text(open(config_path).read())
    return tensors, entries, config


def parse_config_text(text, allowed_keys=None):
    """Flat `key = value` lines; '#' comments; unknown keys rejected when allowed_keys given."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise StorageError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise StorageError(f"line {lineno}: empty key")
        if allowed_keys is not None and key not in allowed_keys:
            raise StorageError(f"line {lineno}: unknown key {key!r}")
        if key in out:
            raise StorageError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def load_config_file(path, allowed_keys=None):
    with open(path) as f:
        return parse_config_text(f.read(), allowed_keys=allowed_keys)


def _parse_bool(text):
    if text not in ("true", "false"):
        raise ValueError(text)
    return text == "true"


_VALUE_PARSERS = {int: int, float: float, str: str, bool: _parse_bool}


class ConfigCodec:
    """Flat `key = value` form of a config dataclass, derived from the declared
    type (int, float, str or bool) of each field set through __init__."""

    @classmethod
    def _field_types(cls):
        hints = typing.get_type_hints(cls)
        return {f.name: hints[f.name] for f in dataclasses.fields(cls) if f.init}

    def to_lines(self):
        lines = []
        for key in self._field_types():
            value = getattr(self, key)
            lines.append(f"{key} = {str(value).lower() if isinstance(value, bool) else value}")
        return lines

    @classmethod
    def from_dict(cls, d):
        types = cls._field_types()
        kwargs = {}
        for key, text in d.items():
            if key not in types:
                raise StorageError(f"unknown {cls.__name__} key {key!r}")
            try:
                kwargs[key] = _VALUE_PARSERS[types[key]](text)
            except ValueError:
                raise StorageError(
                    f"{key}: expected {types[key].__name__}, got {text!r}"
                ) from None
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path):
        return cls.from_dict(load_config_file(path, allowed_keys=cls._field_types()))


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
    tokens = []
    pos = 0
    while len(tokens) < 4:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        tokens.append(data[start:pos])
    pos += 1  # single whitespace after maxval
    magic, w, h, maxval = tokens[0], int(tokens[1]), int(tokens[2]), int(tokens[3])
    if magic not in (b"P5", b"P6"):
        raise StorageError(f"{path}: unsupported image magic {magic!r}")
    if maxval != 255:
        raise StorageError(f"{path}: only maxval 255 supported")
    channels = 1 if magic == b"P5" else 3
    raw = np.frombuffer(data, dtype=np.uint8, count=w * h * channels, offset=pos)
    img = raw.reshape(h, w, channels).astype(np.float64) / 255.0
    return np.moveaxis(img, -1, 0)


# ---------------------------------------------------------------------------
# Keypoint CSV and loss log


def load_keypoints_csv(path):
    """Rows: pair_id, src_x, src_y, trg_x, trg_y, bbox_h, bbox_w.

    Returns a dict pair_id -> dict(src (n,2), trg (n,2), bbox_h, bbox_w).
    """
    pairs = {}
    with open(path) as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.strip()
            if not line or line.startswith("pair_id"):
                continue
            fields = [s.strip() for s in line.split(",")]
            if len(fields) != 7:
                raise StorageError(f"{path}:{lineno}: expected 7 fields, got {len(fields)}")
            pid = fields[0]
            sx, sy, tx, ty, bh, bw = (float(v) for v in fields[1:])
            if bh <= 0 or bw <= 0:
                raise StorageError(f"{path}:{lineno}: bbox dims must be positive")
            rec = pairs.setdefault(pid, {"src": [], "trg": [], "bbox_h": bh, "bbox_w": bw})
            rec["src"].append((sx, sy))
            rec["trg"].append((tx, ty))
    for rec in pairs.values():
        rec["src"] = np.asarray(rec["src"], dtype=np.float64)
        rec["trg"] = np.asarray(rec["trg"], dtype=np.float64)
    return pairs


def save_loss_csv(path, history):
    with open(path, "w") as f:
        f.write("step,loss\n")
        for step, loss in history:
            f.write(f"{step},{loss!r}\n")
