"""Tests for transforms, grids, the grid-distance loss, PCK, and warping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oacnet import geometry
from oacnet.geometry import (
    bilinear_warp,
    make_regular_grid,
    max_border_displacement,
    mirror_pad_center_crop,
    normalize_points,
    pck,
    sample_random_transform,
    tgd,
    transform,
)
from oacnet.tensor import NumericError, Parameter, ShapeError

from gradcheck import grad_check

IDENTITY = geometry.identity_vector("affine")


def mirror_pad(image, pad):
    """The (C,H,W) image reflect-padded by `pad` on both spatial axes."""
    return np.pad(image, ((0, 0), (pad, pad), (pad, pad)), mode="reflect")


# ---------------------------------------------------------------------------
# point transforms


class TestTransformPoints:
    def test_affine_identity(self):
        grid = make_regular_grid(5)
        out = transform(IDENTITY, grid)
        assert np.allclose(out, grid, atol=1e-15)

    def test_affine_formula(self):
        theta = np.array([1.1, 0.2, 0.3, -0.1, 0.9, -0.4])
        pts = np.array([[0.5, -0.25], [-1.0, 1.0]])
        out = transform(theta, pts)
        for i, (x, y) in enumerate(pts):
            assert np.isclose(out[i, 0], 1.1 * x + 0.2 * y + 0.3)
            assert np.isclose(out[i, 1], -0.1 * x + 0.9 * y - 0.4)

    def test_tps_zero_displacements_is_identity(self):
        grid = make_regular_grid(13)
        out = transform(np.zeros(18), grid)
        assert np.max(np.abs(out - grid)) < 1e-10

    def test_tps_interpolates_anchors(self):
        rng = np.random.default_rng(0)
        disp = rng.uniform(-0.4, 0.4, 18)
        anchors = make_regular_grid(3)  # the 3x3 lattice, x fastest
        out = transform(disp, anchors)
        expected = anchors + disp.reshape(2, -1).T
        assert np.max(np.abs(out - expected)) < 1e-10

    def test_affine_linear_part_superposition(self):
        rng = np.random.default_rng(1)
        theta = rng.uniform(-1, 1, 6)
        p = rng.uniform(-1, 1, (4, 2))
        q = rng.uniform(-1, 1, (4, 2))
        a, b = 0.3, 0.7
        lhs = transform(theta, a * p + b * q)
        rhs = a * transform(theta, p) + b * transform(theta, q) - (a + b - 1) * theta[[2, 5]]
        assert np.allclose(lhs, rhs, atol=1e-12)


class TestThetaVector:
    def test_flat_float64_of_any_shape(self):
        theta = geometry.theta_vector(np.arange(8).reshape(2, 2, 2))
        assert theta.dtype == np.float64 and np.array_equal(theta, np.arange(8.0))

    def test_bad_size_and_non_finite_rejected(self):
        with pytest.raises(ShapeError, match="got 7"):
            geometry.theta_vector(np.zeros(7))
        for bad in (np.nan, -np.inf):
            with pytest.raises(NumericError, match="^theta contains NaN/Inf$"):
                geometry.theta_vector(np.full(6, bad))


class TestMakeRegularGrid:
    def test_n2_corners(self):
        grid = make_regular_grid(2)
        assert sorted(map(tuple, grid)) == [(-1, -1), (-1, 1), (1, -1), (1, 1)]

    def test_n3_includes_origin(self):
        grid = make_regular_grid(3)
        assert grid.shape == (9, 2)
        assert any(np.allclose(p, [0, 0]) for p in grid)

    def test_n20_spacing(self):
        grid = make_regular_grid(20)
        assert grid.shape == (400, 2)
        xs = np.unique(grid[:, 0])
        assert np.allclose(np.diff(xs), 2.0 / 19.0)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            make_regular_grid(1)


# ---------------------------------------------------------------------------
# TGD


class TestTgd:
    def test_zero_at_equal_params(self):
        grid = make_regular_grid(4)
        theta = np.array([[1.02, 0.1, -0.2, 0.05, 0.97, 0.3]])
        losses, grads = tgd(theta, theta.copy(), grid)
        assert np.array_equal(losses, [0.0])
        assert np.array_equal(grads, np.zeros((1, 6)))

    @pytest.mark.parametrize("n", [2, 5, 20])
    def test_pure_translation(self, n):
        grid = make_regular_grid(n)
        tx, ty = 0.17, -0.32
        losses, _ = tgd(np.array([[1, 0, tx, 0, 1, ty]]), IDENTITY[None], grid)
        assert np.isclose(losses[0], tx**2 + ty**2, atol=1e-12)

    def test_matches_pointwise_reference(self):
        # each row is the mean over grid points of the squared distance between
        # the two transforms' images of the point: affine, 2x2 and 3x3 TPS
        rng = np.random.default_rng(2)
        grid = make_regular_grid(5)
        for q in (6, 8, 18):
            thetas = rng.uniform(-1, 1, (4, q))
            truths = rng.uniform(-1, 1, (4, q))
            losses, _ = tgd(thetas, truths, grid)
            assert losses.shape == (4,)
            for i in range(4):
                acc = 0.0
                for x, y in grid:
                    pa = transform(thetas[i], np.array([[x, y]]))[0]
                    pb = transform(truths[i], np.array([[x, y]]))[0]
                    acc += (pa[0] - pb[0]) ** 2 + (pa[1] - pb[1]) ** 2
                assert abs(losses[i] - acc / len(grid)) <= 1e-12

    def test_family_mismatch_rejected(self):
        grid = make_regular_grid(3)
        with pytest.raises(ValueError):
            tgd(IDENTITY[None], np.zeros((1, 18)), grid)

    def test_empty_grid_and_non_finite_prediction_rejected(self):
        theta = IDENTITY[None]
        with pytest.raises(ValueError):
            tgd(theta, theta, np.zeros((0, 2)))
        for bad in (np.nan, np.inf):
            with pytest.raises(NumericError):
                tgd(np.full((1, 6), bad), theta, make_regular_grid(3))

    def test_symmetric_value(self):
        rng = np.random.default_rng(3)
        grid = make_regular_grid(6)
        a = rng.uniform(-1, 1, (3, 6))
        b = rng.uniform(-1, 1, (3, 6))
        assert np.allclose(tgd(a, b, grid)[0], tgd(b, a, grid)[0], atol=1e-14)

    @pytest.mark.parametrize("family,q", [("affine", 6), ("tps", 18)])
    def test_gradient(self, family, q):
        rng = np.random.default_rng(4)
        grid = make_regular_grid(5)
        truths = np.stack([sample_random_transform(family, rng) for _ in range(3)])
        vec = geometry.identity_vector(family) + rng.uniform(-0.1, 0.1, (3, q))
        p = Parameter(vec, "theta")

        def loss_fn(compute_grads):
            losses, grads = tgd(p.value, truths, grid)
            if compute_grads:
                p.grad += grads
            return losses.sum()

        report = grad_check(loss_fn, [p])
        assert max(report.values()) < 1e-4


# ---------------------------------------------------------------------------
# PCK


def _keypoint_pairs(theta, image_hw, n=10, seed=0):
    rng = np.random.default_rng(seed)
    h, w = image_hw
    src = np.stack([rng.uniform(0, w - 1, n), rng.uniform(0, h - 1, n)], axis=1)
    trg = geometry.denormalize_points(transform(theta, normalize_points(src, image_hw)), image_hw)
    return {"p": {"src": src, "trg": trg, "bbox_h": float(h), "bbox_w": float(w)}}


class TestPck:
    def test_exact_prediction_scores_one(self):
        theta = np.array([1.05, 0.02, 0.1, -0.03, 0.98, -0.05])
        pairs = _keypoint_pairs(theta, (32, 32))
        assert pck(pairs, {"p": theta}, 0.1, (32, 32)) == 1.0

    def test_large_miss_scores_zero(self):
        image_hw = (32, 32)
        pairs = _keypoint_pairs(IDENTITY, image_hw)
        # shift every prediction by half the box size in pixels
        shift = np.array([1, 0, 1.0, 0, 1, 0])  # 1.0 normalized = 15.5 px
        assert pck(pairs, {"p": shift}, 0.1, image_hw) == 0.0

    def test_threshold_counting(self):
        image_hw = (100, 100)
        m = max(image_hw)
        src = np.array([[10.0, 10.0], [20.0, 20.0], [30.0, 30.0]])
        trg = src.copy()
        trg[0, 0] += 0.05 * m
        trg[1, 0] += 0.09 * m
        trg[2, 0] += 0.2 * m
        pairs = {"p": {"src": src, "trg": trg, "bbox_h": 100.0, "bbox_w": 100.0}}
        assert np.isclose(pck(pairs, {"p": IDENTITY}, 0.1, image_hw), 2.0 / 3.0)

    def test_pools_across_pairs(self):
        image_hw = (50, 50)
        ident = IDENTITY
        close = {"src": np.zeros((3, 2)) + 10, "trg": np.zeros((3, 2)) + 10,
                 "bbox_h": 50.0, "bbox_w": 50.0}
        far = {"src": np.zeros((1, 2)) + 10, "trg": np.zeros((1, 2)) + 40,
               "bbox_h": 50.0, "bbox_w": 50.0}
        pairs = {"a": close, "b": far}
        # pooled: 3 of 4 keypoints correct (not the mean of per-pair 1.0 and 0.0)
        assert np.isclose(pck(pairs, {"a": ident, "b": ident}, 0.1, image_hw), 0.75)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_monotone_in_alpha(self, seed):
        rng = np.random.default_rng(seed)
        theta = sample_random_transform("affine", rng)
        pairs = _keypoint_pairs(IDENTITY, (32, 32), seed=seed)
        vals = [pck(pairs, {"p": theta}, a, (32, 32)) for a in (0.05, 0.1, 0.15, 0.3)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            pck({}, {}, 0.1, (32, 32))


# ---------------------------------------------------------------------------
# warping


class TestBilinearWarp:
    def test_identity_is_bit_exact(self):
        rng = np.random.default_rng(5)
        img = rng.uniform(0, 1, (3, 8, 8))
        out = bilinear_warp(img, IDENTITY)
        assert np.array_equal(out, img)

    def test_constant_image_invariant(self):
        img = np.full((1, 10, 10), 0.42)
        rng = np.random.default_rng(6)
        theta = sample_random_transform("affine", rng)
        out = bilinear_warp(img, theta)
        assert np.allclose(out, 0.42, atol=1e-12)

    def test_one_pixel_translation_on_ramp(self):
        W = 9
        ramp = np.tile(np.arange(W, dtype=np.float64), (W, 1))[None]
        # shift sampling by exactly one pixel in x: tx = 2/(W-1)
        theta = np.array([1, 0, 2.0 / (W - 1), 0, 1, 0])
        out = bilinear_warp(ramp, theta)
        assert np.max(np.abs(out[0, :, : W - 1] - ramp[0, :, 1:])) < 1e-10


class TestMirrorPadCenterCrop:
    def test_identity_round_trip(self):
        rng = np.random.default_rng(7)
        img = rng.uniform(0, 1, (2, 12, 12))
        trg = mirror_pad_center_crop(img, 3, IDENTITY)
        assert np.array_equal(trg, img)

    def test_reflection_values(self):
        img = np.arange(16, dtype=np.float64).reshape(1, 4, 4)
        padded = mirror_pad(img, 2)
        H = 4
        for i in range(-2, H + 2):
            for j in range(-2, H + 2):
                ri = geometry._reflect_index(np.array([i]), H)[0]
                rj = geometry._reflect_index(np.array([j]), H)[0]
                assert padded[0, i + 2, j + 2] == img[0, ri, rj]

    def test_sampled_transforms_within_padded_extent(self):
        rng = np.random.default_rng(8)
        img = rng.uniform(0, 1, (1, 16, 16))
        for _ in range(1000):
            theta = sample_random_transform("affine", rng)
            excess = max_border_displacement(theta)
            pad = int(np.ceil(excess * 15 / 2.0 + 1e-9)) + 1
            pad = min(max(pad, 4), 15)
            # must not raise
            mirror_pad_center_crop(img, pad, theta)

    def test_insufficient_pad_rejected(self):
        img = np.zeros((1, 16, 16))
        big = np.array([1, 0, 0.9, 0, 1, 0.0])
        with pytest.raises(ValueError):
            mirror_pad_center_crop(img, 1, big)


def _reference_pad_crop(image, pad, theta):
    """mirror_pad_center_crop as a materialized reflect-pad followed by four
    2-D corner gathers from the padded image."""
    C, H, W = image.shape
    padded = mirror_pad(image, pad)
    xs = np.linspace(-1.0, 1.0, W)
    ys = np.linspace(-1.0, 1.0, H)
    gx, gy = np.meshgrid(xs, ys, indexing="xy")
    mapped = transform(theta, np.stack([gx.reshape(-1), gy.reshape(-1)], axis=1))
    pix_x = (pad + (mapped[:, 0] + 1.0) * (W - 1) / 2.0).reshape(H, W)
    pix_y = (pad + (mapped[:, 1] + 1.0) * (H - 1) / 2.0).reshape(H, W)
    rx, ry = np.rint(pix_x), np.rint(pix_y)
    pix_x = np.where(np.abs(pix_x - rx) < 1e-9, rx, pix_x)
    pix_y = np.where(np.abs(pix_y - ry) < 1e-9, ry, pix_y)
    x0 = np.floor(pix_x).astype(np.int64)
    y0 = np.floor(pix_y).astype(np.int64)
    fx, fy = pix_x - x0, pix_y - y0
    Hp, Wp = padded.shape[1:]
    x0r, x1r = geometry._reflect_index(x0, Wp), geometry._reflect_index(x0 + 1, Wp)
    y0r, y1r = geometry._reflect_index(y0, Hp), geometry._reflect_index(y0 + 1, Hp)
    top = padded[:, y0r, x0r] * (1 - fx) + padded[:, y0r, x1r] * fx
    bot = padded[:, y1r, x0r] * (1 - fx) + padded[:, y1r, x1r] * fx
    return padded[:, pad : pad + H, pad : pad + W].copy(), top * (1 - fy) + bot * fy


class TestSamplerEquivalence:
    """The gather-based crop sampler is bit-equal to pad-then-sample."""

    def _assert_equal_to_reference(self, img, pad, theta):
        trg = mirror_pad_center_crop(img, pad, theta)
        ref_src, ref_trg = _reference_pad_crop(img, pad, theta)
        assert np.array_equal(img, ref_src)  # the source crop is the image itself
        assert np.array_equal(trg, ref_trg)

    @pytest.mark.parametrize("family", ["affine", "tps"])
    def test_random_draws(self, family):
        rng = np.random.default_rng(13)
        img = rng.uniform(0, 1, (3, 32, 32))
        for _ in range(200):
            theta = sample_random_transform(family, rng)
            pad = int(np.ceil(max_border_displacement(theta) * 31 / 2.0 + 1e-9)) + 1
            self._assert_equal_to_reference(img, min(max(pad, 8), 31), theta)

    @pytest.mark.parametrize("shape", [(2, 16, 16), (1, 12, 20)])
    def test_transforms_at_the_pad_slack(self, shape):
        # along the longer axis, a scale of 1 + slack maps the crop border onto
        # the outermost padded pixels (index 0 and n-1+2*pad); a shift by the
        # slack reaches one of them
        img = np.random.default_rng(14).uniform(0, 1, shape)
        _, H, W = shape
        pad = 3
        slack = 2.0 * pad / (max(H, W) - 1)
        for theta in (
            np.array([1 + slack, 0, 0, 0, 1 + slack, 0]),
            np.array([1, 0, -slack, 0, 1, -slack]),
            np.array([1, 0, slack, 0, 1, slack]),
        ):
            self._assert_equal_to_reference(img, pad, theta)

    def test_interior_samples_past_the_padded_frame(self):
        # a TPS bulge moves interior samples past the padded extent while the
        # border stays within the slack; they reflect back into the padded frame
        disp = np.zeros(50)
        disp[2 * 5 + 3] = 1.2  # x displacement of the control at (0.5, 0)
        img = np.random.default_rng(17).uniform(0, 1, (2, 16, 16))
        self._assert_equal_to_reference(img, 3, disp)

    def test_snap_tolerance_coordinates(self):
        img = np.random.default_rng(15).uniform(0, 1, (2, 16, 16))
        one_px = 2.0 / 15
        for eps in (0.0, 3e-11, -3e-11, 5e-10, -5e-10, 2e-9):
            theta = np.array([1, 0, one_px + eps, 0, 1, -2 * one_px - eps])
            self._assert_equal_to_reference(img, 4, theta)

    def test_non_finite_transform_raises_numeric_error(self):
        img = np.random.default_rng(16).uniform(0, 1, (1, 16, 16))
        theta = IDENTITY.copy()
        theta[2] = np.nan
        with np.errstate(all="ignore"):
            with pytest.raises(NumericError):
                mirror_pad_center_crop(img, 4, theta)
            with pytest.raises(NumericError):
                bilinear_warp(img, np.full(6, 1e300))

    def test_cached_grids_are_read_only(self):
        probe = geometry._border_probe()
        grid = geometry._crop_grid(8, 8)
        for arr in (probe, grid):
            with pytest.raises(ValueError):
                arr[0, 0] = 5.0
        assert probe.shape == (164, 2) and grid.shape == (64, 2)

    @pytest.mark.parametrize("grid_n", [2, 3, 4])
    def test_cached_tps_basis_byte_equal_to_uncached(self, grid_n):
        rng = np.random.default_rng(grid_n)
        theta = 0.1 * rng.standard_normal(2 * grid_n * grid_n)
        a11, a12, tx, a21, a22, ty = affine = sample_random_transform("affine", rng)
        uncached = geometry._tps_basis.__wrapped__
        assert not geometry._tps_system(grid_n)[0].flags.writeable
        for pts in (geometry._crop_grid(32, 32), geometry._border_probe(),
                    make_regular_grid(20), rng.uniform(-1.5, 1.5, (500, 2))):
            fresh = uncached(grid_n, pts.shape, pts.tobytes())
            for _ in range(2):  # the computing call, then the cached one
                cached = geometry._design(pts, grid_n)
                assert cached.tobytes() == fresh.tobytes()
                assert not cached.flags.writeable
            moved = pts + fresh @ theta.reshape(2, -1).T
            assert transform(theta, pts).tobytes() == moved.tobytes()
            # the affine closed form, byte for byte
            closed = pts @ np.array([[a11, a12], [a21, a22]]).T + np.array([tx, ty])
            assert transform(affine, pts).tobytes() == closed.tobytes()
        # the cache is keyed by values: a mutated array gets its new values' basis
        pts = make_regular_grid(20)
        first = geometry._design(pts, grid_n)
        pts[0] = 0.5
        assert geometry._design(pts, grid_n).tobytes() == \
            uncached(grid_n, pts.shape, pts.tobytes()).tobytes()
        assert not np.array_equal(first, geometry._design(pts, grid_n))
        # and a fresh loss grid holding equal values is a hit
        truth = np.zeros((1, 2 * grid_n * grid_n))
        tgd(theta[None], truth, make_regular_grid(20))
        before = geometry._tps_basis.cache_info()
        tgd(theta[None], truth, make_regular_grid(20))
        after = geometry._tps_basis.cache_info()
        assert after.misses == before.misses and after.hits > before.hits


# ---------------------------------------------------------------------------
# random transform sampling


class TestSampleRandomTransform:
    def test_deterministic_given_seed(self):
        a = sample_random_transform("affine", np.random.default_rng(42))
        b = sample_random_transform("affine", np.random.default_rng(42))
        assert np.array_equal(a, b)

    def test_affine_audit(self):
        rng = np.random.default_rng(9)
        for _ in range(10000):
            theta = sample_random_transform("affine", rng)
            a11, a12, tx, a21, a22, ty = theta
            det = a11 * a22 - a12 * a21
            assert abs(det) >= 0.1
            assert abs(tx) <= 0.25 and abs(ty) <= 0.25

    def test_tps_audit(self):
        rng = np.random.default_rng(10)
        for _ in range(10000):
            theta = sample_random_transform("tps", rng)
            assert np.all(np.abs(theta) <= 0.4)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            sample_random_transform("projective", np.random.default_rng(0))
