"""Parametric global transformations, grids, warping, the grid-distance loss,
and the correct-keypoint metric.

Coordinate convention: normalized [-1,1]^2 with (-1,-1) at the top-left pixel
center; x is the column axis, y the row axis. Every transform, grid, and warp
in the library shares this frame.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .tensor import NumericError, ShapeError, assert_finite


class AffineParams:
    """Six parameters (a11, a12, tx, a21, a22, ty) acting on normalized coords."""

    family = "affine"

    def __init__(self, theta):
        self.theta = np.asarray(theta, dtype=np.float64).reshape(6)
        assert_finite(self.theta, "affine params")

    @staticmethod
    def identity():
        return AffineParams([1.0, 0.0, 0.0, 0.0, 1.0, 0.0])

    def transform(self, pts):
        a11, a12, tx, a21, a22, ty = self.theta
        return pts @ np.array([[a11, a12], [a21, a22]]).T + np.array([tx, ty])

    def jacobian(self, pts):
        """d(transformed point)/d(theta): shape (n, 2, 6)."""
        n = pts.shape[0]
        J = np.zeros((n, 2, 6))
        J[:, 0, 0] = pts[:, 0]
        J[:, 0, 1] = pts[:, 1]
        J[:, 0, 2] = 1.0
        J[:, 1, 3] = pts[:, 0]
        J[:, 1, 4] = pts[:, 1]
        J[:, 1, 5] = 1.0
        return J


def _tps_radial(r2):
    # U(r) = r^2 log(r^2) with U(0) = 0
    out = np.zeros_like(r2)
    mask = r2 > 0
    out[mask] = r2[mask] * np.log(r2[mask])
    return out


@functools.lru_cache(maxsize=None)
def _tps_system(grid_n):
    """Read-only control points (K, 2) of the regular grid_n x grid_n lattice
    and the inverse of its TPS system matrix (K+3, K+3)."""
    xs = np.linspace(-1.0, 1.0, grid_n)
    cx, cy = np.meshgrid(xs, xs, indexing="xy")
    controls = np.stack([cx.reshape(-1), cy.reshape(-1)], axis=1)  # (K,2)
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
    controls.flags.writeable = False
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


class TpsParams:
    """Thin-plate spline on a fixed regular control lattice.

    theta holds the x displacements of all anchors followed by the y
    displacements (Q = 2 * grid_n^2; 18 for the default 3x3 lattice). Zero
    displacements give the identity map, and the interpolant maps each anchor
    exactly to anchor + displacement.
    """

    family = "tps"

    def __init__(self, theta, grid_n=3):
        theta = np.asarray(theta, dtype=np.float64).reshape(-1)
        k = grid_n * grid_n
        if theta.size != 2 * k:
            raise ShapeError(f"TPS with {grid_n}x{grid_n} lattice needs {2*k} params, got {theta.size}")
        assert_finite(theta, "tps params")
        self.theta = theta
        self.grid_n = grid_n

    @property
    def controls(self):
        return _tps_system(self.grid_n)[0]

    def _basis(self, pts):
        pts = np.asarray(pts, dtype=np.float64)
        return _tps_basis(self.grid_n, pts.shape, pts.tobytes())

    def transform(self, pts):
        B = self._basis(pts)
        k = self.grid_n * self.grid_n
        dx = B @ self.theta[:k]
        dy = B @ self.theta[k:]
        return pts + np.stack([dx, dy], axis=1)

    def jacobian(self, pts):
        B = self._basis(pts)
        n, k = B.shape
        J = np.zeros((n, 2, 2 * k))
        J[:, 0, :k] = B
        J[:, 1, k:] = B
        return J


def params_from_vector(family, vec, grid_n=3):
    if family == "affine":
        return AffineParams(vec)
    if family == "tps":
        return TpsParams(vec, grid_n)
    raise ValueError(f"unknown family {family!r}")


def identity_vector(family, grid_n=3):
    """The family's identity parameters; their size is its parameter count."""
    if family == "affine":
        return AffineParams.identity().theta
    if family == "tps":
        return np.zeros(2 * grid_n * grid_n)
    raise ValueError(f"unknown family {family!r}")


def params_from_length(vec):
    """Parameters from an array of any shape, the family told by its size: 6
    values are affine, 2*g^2 values with g >= 2 a TPS on the g x g lattice."""
    g = math.isqrt(vec.size // 2)
    if vec.size != 6 and (g < 2 or vec.size != 2 * g * g):
        raise ShapeError(f"theta must hold 6 values or 2*g^2 with g >= 2, got {vec.size}")
    return AffineParams(vec) if vec.size == 6 else TpsParams(vec, g)


# ---------------------------------------------------------------------------
# Grids and the training loss


def make_regular_grid(n_per_side):
    if n_per_side < 2:
        raise ValueError("grid needs at least 2 points per side")
    xs = np.linspace(-1.0, 1.0, n_per_side)
    gx, gy = np.meshgrid(xs, xs, indexing="xy")
    return np.stack([gx.reshape(-1), gy.reshape(-1)], axis=1)


def tgd(theta, theta_gt, grid):
    """Mean squared distance between grids transformed by prediction vs truth.

    Returns (loss, gradient wrt theta's parameter vector); theta_gt is constant.
    """
    if grid.shape[0] == 0:
        raise ValueError("empty grid")
    if theta.family != theta_gt.family:
        raise ValueError(f"family mismatch: {theta.family} vs {theta_gt.family}")
    p = theta.transform(grid)
    q = theta_gt.transform(grid)
    diff = p - q  # (n,2)
    loss = float(np.mean(np.sum(diff * diff, axis=1)))
    J = theta.jacobian(grid)  # (n,2,Q)
    grad = 2.0 * np.einsum("nd,ndq->q", diff, J) / grid.shape[0]
    return loss, grad


def tgd_value(theta, theta_gt, grid):
    return tgd(theta, theta_gt, grid)[0]


# ---------------------------------------------------------------------------
# PCK


def normalize_points(pix, image_hw):
    """Pixel coords (x,y) to normalized [-1,1]; pixel centers at the extremes."""
    h, w = image_hw
    out = np.empty_like(pix, dtype=np.float64)
    out[:, 0] = -1.0 + 2.0 * pix[:, 0] / (w - 1)
    out[:, 1] = -1.0 + 2.0 * pix[:, 1] / (h - 1)
    return out


def denormalize_points(norm, image_hw):
    h, w = image_hw
    out = np.empty_like(norm, dtype=np.float64)
    out[:, 0] = (norm[:, 0] + 1.0) * (w - 1) / 2.0
    out[:, 1] = (norm[:, 1] + 1.0) * (h - 1) / 2.0
    return out


def pck(pairs, predicted, alpha_pck, image_hw):
    """Pooled fraction of keypoints transformed to within alpha*max(h,w) of target.

    pairs: dict pair_id -> {src (n,2) pixel, trg (n,2) pixel, bbox_h, bbox_w};
    predicted: dict pair_id -> transform params.
    """
    if alpha_pck <= 0:
        raise ValueError("alpha must be positive")
    total = 0
    correct = 0
    for pid, rec in pairs.items():
        theta = predicted[pid]
        src_n = normalize_points(rec["src"], image_hw)
        mapped = denormalize_points(theta.transform(src_n), image_hw)
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
    `pad` on both sides (mirror_pad's layout) to the pixel it holds."""
    idx = _reflect_index(np.arange(-pad, n + pad), n)
    idx.flags.writeable = False
    return idx


def _fold(idx, n, pad):
    """The pixel that index `idx` of the padded axis reads, as when sampling
    mirror_pad's output: indices past the padded axis reflect back into it
    first. Equals _reflect_index(_reflect_index(idx, n + 2*pad) - pad, n)."""
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


@functools.lru_cache(maxsize=16)
def _crop_grid(H, W):
    """Read-only (H*W, 2) normalized coordinates of every pixel center, row-major."""
    xs = np.linspace(-1.0, 1.0, W)
    ys = np.linspace(-1.0, 1.0, H)
    gx, gy = np.meshgrid(xs, ys, indexing="xy")
    pts = np.stack([gx.reshape(-1), gy.reshape(-1)], axis=1)
    pts.flags.writeable = False
    return pts


def _warp_crop(image, pad, theta, what):
    """The (C,H,W) crop whose pixel center g samples, at T(g), the image as
    mirror_pad(image, pad) would extend it (pad 0: reflected at its edges)."""
    C, H, W = image.shape
    mapped = theta.transform(_crop_grid(H, W)).T
    # crop-normalized -> padded-image pixel coords, rows x then y
    pix = pad + (mapped + 1.0) * np.array([[W - 1.0], [H - 1.0]]) / 2.0
    return assert_finite(_sample_flat(image, pix, pad).reshape(C, H, W), what)


def bilinear_warp(image, theta):
    """Output at normalized grid point g samples the input at T_theta(g), with
    reflection outside the image. Sample coordinates within SNAP_TOL of an
    integer are snapped, so identity resampling is bit-exact."""
    return _warp_crop(image, 0, theta, "warped image")


def _check_pad(image, pad):
    if pad < 1:
        raise ValueError("pad must be >= 1")
    if pad >= min(image.shape[1], image.shape[2]):
        raise ValueError("reflection pad must be smaller than the image")


def mirror_pad(image, pad):
    _check_pad(image, pad)
    return np.pad(image, ((0, 0), (pad, pad), (pad, pad)), mode="reflect")


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
    mapped = theta.transform(_border_probe())
    over = np.maximum(np.abs(mapped) - 1.0, 0.0)
    return float(over.max())


def mirror_pad_center_crop(image, pad, theta):
    """(Source crop, target crop) of a training pair: the source is the image
    itself; the target samples, at T(g) for every pixel center g of the crop,
    the image as mirror_pad(image, pad) would extend it.

    The transform acts in the crop's normalized frame. The padded image is
    never built: samples read the reflected pixels directly. Raises when the
    transform can reach outside the padded extent.
    """
    H, W = image.shape[1:]
    _check_pad(image, pad)
    # slack available beyond the crop, in crop-normalized units
    slack_x = 2.0 * pad / (W - 1)
    slack_y = 2.0 * pad / (H - 1)
    excess = max_border_displacement(theta)
    if excess > min(slack_x, slack_y) + 1e-12:
        raise ValueError(
            f"pad {pad} too small: transform exceeds crop frame by {excess:.4f}, "
            f"slack is {min(slack_x, slack_y):.4f}"
        )
    return image.copy(), _warp_crop(image, pad, theta, "target crop")


# ---------------------------------------------------------------------------
# Random transform sampling

AFFINE_MAX_ROTATION = np.deg2rad(15.0)
AFFINE_SCALE_RANGE = (0.75, 1.25)
AFFINE_MAX_SHEAR = 0.15
AFFINE_MAX_TRANSLATION = 0.25
TPS_MAX_DISPLACEMENT = 0.4
MIN_ABS_DET = 0.1


def sample_random_transform(family, rng, grid_n=3):
    """Draw transform params near identity; deterministic given the generator state."""
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
                return AffineParams([A[0, 0], A[0, 1], tx, A[1, 0], A[1, 1], ty])
    if family == "tps":
        k = grid_n * grid_n
        disp = rng.uniform(-TPS_MAX_DISPLACEMENT, TPS_MAX_DISPLACEMENT, size=2 * k)
        return TpsParams(disp, grid_n)
    raise ValueError(f"unknown family {family!r}")
