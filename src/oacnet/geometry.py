"""Parametric global transformations, grids, warping, the grid-distance loss,
and the correct-keypoint metric.

Coordinate convention: normalized [-1,1]^2 with (-1,-1) at the top-left pixel
center; x is the column axis, y the row axis. Every transform, grid, and warp
in the library shares this frame.

A transform is a float64 parameter vector theta whose size tells its family
(_lattice): 6 values are affine, 2*g^2 a thin-plate spline on the g x g lattice.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .tensor import NumericError, ShapeError, assert_finite


def _tps_radial(r2):
    # U(r) = r^2 log(r^2) with U(0) = 0
    out = np.zeros_like(r2)
    mask = r2 > 0
    out[mask] = r2[mask] * np.log(r2[mask])
    return out


# largest TPS lattice side of a model or a theta file: the system matrix holds
# (g^2+3)^2 values and its inversion costs O(g^6) (g = 32: 8.4 MB, ~0.3 s)
TPS_MAX_GRID = 32


@functools.lru_cache(maxsize=16)
def _crop_grid(H, W):
    """Read-only (H*W, 2) normalized coordinates of every pixel center of an
    H x W crop, row-major (x varying fastest): the one lattice builder, also
    of the loss grid and the TPS control points."""
    xs = np.linspace(-1.0, 1.0, W)
    ys = np.linspace(-1.0, 1.0, H)
    gx, gy = np.meshgrid(xs, ys, indexing="xy")
    pts = np.stack([gx.reshape(-1), gy.reshape(-1)], axis=1)
    pts.flags.writeable = False
    return pts


@functools.lru_cache(maxsize=None)
def _tps_system(grid_n):
    """Read-only control points (K, 2) of the regular grid_n x grid_n lattice
    and the inverse of its TPS system matrix (K+3, K+3)."""
    controls = _crop_grid(grid_n, grid_n)  # (K,2)
    K = controls.shape[0]
    d2 = np.sum((controls[:, None, :] - controls[None, :, :]) ** 2, axis=2)
    L = np.zeros((K + 3, K + 3))
    L[:K, :K] = _tps_radial(d2)
    P = np.concatenate([np.ones((K, 1)), controls], axis=1)
    L[:K, K:] = P
    L[K:, :K] = P.T
    try:
        L_inv = np.linalg.inv(L)
    except np.linalg.LinAlgError as e:  # unreachable with a regular lattice
        raise NumericError(f"singular TPS system for {grid_n}x{grid_n} lattice") from e
    L_inv.flags.writeable = False
    return controls, L_inv


@functools.lru_cache(maxsize=16)
def _tps_basis(grid_n, shape, data):
    """Read-only (n, K) weights mapping control displacements to the
    displacements at the float64 points of the given shape and bytes: rows
    [U(|p-c_k|), 1, x, y] folded through L^-1. Keyed by the point values, so
    every array holding the same points shares one entry."""
    controls, L_inv = _tps_system(grid_n)
    pts = np.frombuffer(data).reshape(shape)
    K = controls.shape[0]
    d2 = np.sum((pts[:, None, :] - controls[None, :, :]) ** 2, axis=2)
    A = np.concatenate([_tps_radial(d2), np.ones((pts.shape[0], 1)), pts], axis=1)
    B = A @ L_inv[:, :K]
    B.flags.writeable = False
    return B


def identity_vector(family, grid_n=3):
    """The family's identity parameters; their size is its parameter count."""
    if family == "affine":
        return np.array([1.0, 0.0, 0.0, 0.0, 1.0, 0.0])
    if family == "tps":
        return np.zeros(2 * grid_n * grid_n)
    raise ValueError(f"unknown family {family!r}")


def _lattice(size):
    """0 for the 6 affine values, g for the 2*g^2 of a TPS on the g x g lattice."""
    g = math.isqrt(size // 2)
    if size != 6 and (not 2 <= g <= TPS_MAX_GRID or size != 2 * g * g):
        raise ShapeError(f"theta must hold 6 values or 2*g^2 with 2 <= g <= {TPS_MAX_GRID}, "
                         f"got {size}")
    return 0 if size == 6 else g


def theta_vector(vec):
    """The transform held in an array of any shape: its values as a flat
    float64 vector, which must have a family's size and be finite."""
    theta = np.asarray(vec, dtype=np.float64).reshape(-1)
    _lattice(theta.size)
    return assert_finite(theta, "theta")


def _design(pts, g):
    """Φ(pts) (n, m) of the family with lattice g (0: affine). A transform
    moves pts by (theta.reshape(2, m) @ Φᵀ)ᵀ on top of a theta-free base: 0
    for affine, whose Φ rows are (x, y, 1); pts itself for a TPS, whose Φ is
    the cached _tps_basis."""
    if g:
        pts = np.asarray(pts, dtype=np.float64)
        return _tps_basis(g, pts.shape, pts.tobytes())
    return np.concatenate([pts, np.ones((pts.shape[0], 1))], axis=1)


def transform(theta, pts):
    """T_theta(pts) for points (n, 2), the family told by theta's size.

    Affine theta is (a11, a12, tx, a21, a22, ty). A TPS theta holds the x
    displacements of the anchors of its regular g x g lattice followed by
    the y displacements: zero displacements give the identity map, and the
    interpolant maps each anchor exactly to anchor + displacement.
    """
    g = _lattice(theta.size)
    moved = _design(pts, g) @ theta.reshape(2, -1).T
    return pts + moved if g else moved


# ---------------------------------------------------------------------------
# Grids and the training loss


def make_regular_grid(n_per_side):
    if n_per_side < 2:
        raise ValueError("grid needs at least 2 points per side")
    return _crop_grid(n_per_side, n_per_side).copy()


def tgd(thetas, thetas_gt, grid):
    """Per-pair mean squared distance between the grid points moved by the
    predicted parameter vectors thetas (B, Q) and by the ground truths
    thetas_gt (B, Q), with its gradient wrt thetas: (losses (B,), grads (B, Q)).

    Both families move a point by theta.reshape(2, m) @ Φ(point) on top of a
    base that does not depend on theta, so a pair's distance is that of the
    residual r = (theta - theta_gt).reshape(2, m) @ Φᵀ alone.
    """
    if grid.shape[0] == 0:
        raise ValueError("empty grid")
    if thetas.shape != thetas_gt.shape:
        raise ValueError(f"predicted thetas {thetas.shape} and ground truths "
                         f"{thetas_gt.shape} differ in count or family")
    assert_finite(thetas, "predicted theta")
    B, Q = thetas.shape
    phi = _design(grid, _lattice(Q))  # (n, m)
    r = (thetas - thetas_gt).reshape(B, 2, -1) @ phi.T  # (B, 2, n)
    losses = np.mean(np.sum(r * r, axis=1), axis=1)
    grads = (2.0 / grid.shape[0]) * (r @ phi).reshape(B, Q)
    return losses, grads


# ---------------------------------------------------------------------------
# PCK


def normalize_points(pix, image_hw):
    """Pixel coords (x,y) to normalized [-1,1]; pixel centers at the extremes."""
    h, w = image_hw
    return -1.0 + 2.0 * pix / np.array([w - 1, h - 1])


def denormalize_points(norm, image_hw):
    h, w = image_hw
    return (norm + 1.0) * np.array([w - 1, h - 1]) / 2.0


def pck(pairs, predicted, alpha_pck, image_hw):
    """Pooled fraction of keypoints transformed to within alpha*max(h,w) of target.

    pairs: dict pair_id -> {src (n,2) pixel, trg (n,2) pixel, bbox_h, bbox_w};
    predicted: dict pair_id -> theta vector.
    """
    if alpha_pck <= 0:
        raise ValueError("alpha must be positive")
    total = 0
    correct = 0
    for pid, rec in pairs.items():
        src_n = normalize_points(rec["src"], image_hw)
        mapped = denormalize_points(transform(predicted[pid], src_n), image_hw)
        dist = np.sqrt(np.sum((mapped - rec["trg"]) ** 2, axis=1))
        thresh = alpha_pck * max(rec["bbox_h"], rec["bbox_w"])
        correct += int(np.sum(dist < thresh))
        total += dist.size
    if total == 0:
        raise ValueError("empty keypoint set")
    return correct / total


# ---------------------------------------------------------------------------
# Warping

SNAP_TOL = 1e-9  # sample coordinates this close to an integer snap to it


def _reflect_index(idx, n):
    """Fold arbitrary integer indices into [0, n-1] by edge-excluding reflection."""
    if n == 1:
        return np.zeros_like(idx)
    period = 2 * (n - 1)
    idx = np.abs(idx) % period
    return np.where(idx >= n, period - idx, idx)


@functools.lru_cache(maxsize=16)
def _padded_axis(n, pad):
    """Read-only map from each index of a length-n axis reflect-padded by
    `pad` on both sides (np.pad's mode="reflect") to the pixel it holds."""
    idx = _reflect_index(np.arange(-pad, n + pad), n)
    idx.flags.writeable = False
    return idx


def _fold(idx, n, pad):
    """The pixel that index `idx` of the padded axis reads, as when sampling
    np.pad(mode="reflect")'s output: indices past the padded axis reflect
    back into it first. Equals _reflect_index(_reflect_index(idx, n + 2*pad) - pad, n)."""
    return _padded_axis(n, pad)[_reflect_index(idx, n + 2 * pad)]


def _sample_flat(image, pix, pad):
    """Bilinear samples (C, n) of a (C,H,W) image at pixel coords pix (2, n),
    rows x then y, given in the frame of the image reflect-padded by `pad`.

    The padded image is never built: each corner is one gather through flat
    indices into the unpadded pixels, and the corners are blended in place
    with the float operations of top*(1-fy) + bot*fy, where
    top = v00*(1-fx) + v01*fx and bot = v10*(1-fx) + v11*fx.
    """
    C, H, W = image.shape
    r = np.rint(pix)
    pix = np.where(np.abs(pix - r) < SNAP_TOL, r, pix)
    lo = np.floor(pix).astype(np.int64)
    fx, fy = pix - lo
    x0, x1 = _fold(np.stack([lo[0], lo[0] + 1]), W, pad)
    y0, y1 = _fold(np.stack([lo[1], lo[1] + 1]), H, pad) * W
    flat = np.asarray(image, dtype=np.float64).reshape(C, H * W)
    v00, v01, v10, v11 = (np.take(flat, i, axis=1) for i in (y0 + x0, y0 + x1, y1 + x0, y1 + x1))
    gx = 1 - fx
    v00 *= gx
    v01 *= fx
    v00 += v01
    v10 *= gx
    v11 *= fx
    v10 += v11
    v00 *= 1 - fy
    v10 *= fy
    v00 += v10
    return v00


def _warp_crop(image, pad, theta, what):
    """The (C,H,W) crop whose pixel center g samples, at T(g), the image as
    np.pad(mode="reflect") extends it by `pad` (pad 0: reflected at its edges)."""
    C, H, W = image.shape
    # padded-image pixel coords, rows x then y
    pix = (pad + denormalize_points(transform(theta, _crop_grid(H, W)), (H, W))).T
    return assert_finite(_sample_flat(image, pix, pad).reshape(C, H, W), what)


def bilinear_warp(image, theta):
    """Output at normalized grid point g samples the input at T_theta(g), with
    reflection outside the image. Sample coordinates within SNAP_TOL of an
    integer are snapped, so identity resampling is bit-exact."""
    return _warp_crop(image, 0, theta, "warped image")


BORDER_PROBE_POINTS = 41  # per edge of the crop


@functools.lru_cache(maxsize=None)
def _border_probe():
    """Read-only (4*BORDER_PROBE_POINTS, 2) points along the four edges of [-1,1]^2."""
    ts = np.linspace(-1.0, 1.0, BORDER_PROBE_POINTS)
    border = np.concatenate(
        [
            np.stack([ts, np.full_like(ts, -1.0)], axis=1),
            np.stack([ts, np.full_like(ts, 1.0)], axis=1),
            np.stack([np.full_like(ts, -1.0), ts], axis=1),
            np.stack([np.full_like(ts, 1.0), ts], axis=1),
        ]
    )
    border.flags.writeable = False
    return border


def max_border_displacement(theta):
    """Largest |T(g) - g| (per axis, normalized units) over the crop border."""
    mapped = transform(theta, _border_probe())
    over = np.maximum(np.abs(mapped) - 1.0, 0.0)
    return float(over.max())


def mirror_pad_center_crop(image, pad, theta):
    """The target crop of a training pair (its source is the image itself):
    it samples, at T(g) for every pixel center g of the crop, the image as
    np.pad(mode="reflect") extends it by `pad` on both spatial axes.

    The transform acts in the crop's normalized frame. The padded image is
    never built, and the image is not copied: samples read the reflected
    pixels directly. Raises when the pad is not in 1..side-1 or the transform
    can reach outside the padded extent.
    """
    H, W = image.shape[1:]
    if not 1 <= pad < min(H, W):
        raise ValueError(f"pad must be at least 1 and below the image's shorter side "
                         f"{min(H, W)}, got {pad}")
    # slack available beyond the crop, in crop-normalized units
    slack_x = 2.0 * pad / (W - 1)
    slack_y = 2.0 * pad / (H - 1)
    excess = max_border_displacement(theta)
    if excess > min(slack_x, slack_y) + 1e-12:
        raise ValueError(
            f"pad {pad} too small: transform exceeds crop frame by {excess:.4f}, "
            f"slack is {min(slack_x, slack_y):.4f}"
        )
    return _warp_crop(image, pad, theta, "target crop")


# ---------------------------------------------------------------------------
# Random transform sampling

AFFINE_MAX_ROTATION = np.deg2rad(15.0)
AFFINE_SCALE_RANGE = (0.75, 1.25)
AFFINE_MAX_SHEAR = 0.15
AFFINE_MAX_TRANSLATION = 0.25
TPS_MAX_DISPLACEMENT = 0.4
MIN_ABS_DET = 0.1


def sample_random_transform(family, rng, grid_n=3):
    """Draw a theta vector near identity; deterministic given the generator state."""
    if family == "affine":
        while True:
            rot = rng.uniform(-AFFINE_MAX_ROTATION, AFFINE_MAX_ROTATION)
            sx = rng.uniform(*AFFINE_SCALE_RANGE)
            sy = rng.uniform(*AFFINE_SCALE_RANGE)
            shear = rng.uniform(-AFFINE_MAX_SHEAR, AFFINE_MAX_SHEAR)
            tx = rng.uniform(-AFFINE_MAX_TRANSLATION, AFFINE_MAX_TRANSLATION)
            ty = rng.uniform(-AFFINE_MAX_TRANSLATION, AFFINE_MAX_TRANSLATION)
            c, s = np.cos(rot), np.sin(rot)
            R = np.array([[c, -s], [s, c]])
            Sh = np.array([[1.0, shear], [0.0, 1.0]])
            Sc = np.array([[sx, 0.0], [0.0, sy]])
            A = R @ Sh @ Sc
            if abs(np.linalg.det(A)) >= MIN_ABS_DET:
                return np.array([A[0, 0], A[0, 1], tx, A[1, 0], A[1, 1], ty])
    if family == "tps":
        return rng.uniform(-TPS_MAX_DISPLACEMENT, TPS_MAX_DISPLACEMENT, size=2 * grid_n * grid_n)
    raise ValueError(f"unknown family {family!r}")
