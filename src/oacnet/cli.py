"""Batch command-line surface.

Exit codes: 0 success, 1 usage/config error, 2 numeric-guard failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import shutil
import sys
import tempfile
import time

import numpy as np

from . import correlation as corr
from . import geometry, pipeline, storage
from .network import AttentiveAlignmentModel
from .tensor import NumericError, ShapeError


def _print_config(resolved):
    print("resolved configuration:")
    for k, v in resolved.items():
        print(f"  {k} = {v}")


def _positive(flag, value):
    """Rejects a count flag below 1 (ValueError, so main exits 1)."""
    if value < 1:
        raise ValueError(f"{flag} must be positive, got {value}")


def _parse_dims(text, example):
    """H, W, N from a --dims value such as 4x4x2, each positive."""
    try:
        H, W, N = (int(x) for x in text.lower().split("x"))
    except ValueError:
        H = W = N = 0
    if min(H, W, N) < 1:
        raise ValueError(f"--dims must look like {example} with positive sizes, got {text!r}")
    return H, W, N


def _save_run(out_dir, config, model, history):
    """Write loss.csv, checkpoint/ and train_config.txt into a temporary
    sibling of out_dir and rename it into place, so a failed save leaves
    neither a partial out_dir nor the sibling."""
    parent = os.path.dirname(os.path.abspath(out_dir))
    scratch = tempfile.mkdtemp(prefix=".oacnet-train-", dir=parent)
    # model.save makes `staged` with the usual permissions (mkdtemp's are 0700)
    staged = os.path.join(scratch, "run")
    try:
        model.save(os.path.join(staged, "checkpoint"))
        storage.save_loss_csv(os.path.join(staged, "loss.csv"), history)
        with open(os.path.join(staged, "train_config.txt"), "w") as f:
            f.write("\n".join(config.to_lines()) + "\n")
        os.replace(staged, out_dir)
    finally:
        shutil.rmtree(scratch)


def cmd_train(args):
    if not os.path.isfile(args.config):
        raise ValueError(f"config file not found: {args.config}")
    try:
        config = pipeline.TrainConfig.from_file(args.config)
        if args.seed is not None:
            config = dataclasses.replace(config, seed=args.seed)
    except (storage.StorageError, ValueError) as e:
        print(f"error: bad config: {e}", file=sys.stderr)
        return 1
    if os.path.lexists(args.out_dir) and not (os.path.isdir(args.out_dir)
                                              and not os.listdir(args.out_dir)):
        raise ValueError(f"--out-dir {args.out_dir} exists and is not an empty directory")
    if not os.path.isdir(os.path.dirname(os.path.abspath(args.out_dir))):
        raise ValueError(f"--out-dir {args.out_dir}: parent directory does not exist")
    _print_config(vars(config))
    print(f"seed: {config.seed}")
    try:
        model, history, val_batch = pipeline.train(
            config, log_fn=lambda s, l: print(f"step {s}: loss {l:.6f}")
        )
    except pipeline.DivergenceError as e:
        print(f"divergence guard tripped: {e}", file=sys.stderr)
        return 2
    _save_run(args.out_dir, config, model, history)
    theta_vecs, _ = pipeline.predict(model, val_batch)
    val_tgd = pipeline.evaluate_tgd([model.theta_params(v) for v in theta_vecs], val_batch)
    identity = model.theta_params(model.identity_offset)
    baseline = pipeline.evaluate_tgd([identity] * len(val_batch), val_batch)
    print(f"final train loss: {history[-1][1]:.6f}")
    print(f"validation TGD: {val_tgd:.6f} (identity baseline {baseline:.6f})")
    print(f"checkpoint: {os.path.join(args.out_dir, 'checkpoint')}")
    return 0


def cmd_check_equiv(args):
    H, W, N = _parse_dims(args.dims, "4x4x2")
    _positive("--trials", args.trials)
    _print_config({"dims": f"{H}x{W}x{N}", "trials": args.trials, "seed": args.seed})
    bounds = {"output": 1e-10, "weight-gradient": 1e-8, "bias-gradient": 1e-12}
    worst = dict.fromkeys(bounds, 0.0)
    rng = np.random.default_rng(args.seed)
    for _ in range(args.trials):
        f_src = np.abs(rng.standard_normal((1, 3, H, W)))
        f_trg = np.abs(rng.standard_normal((1, 3, H, W)))
        c = corr.normalize_correlation(corr.correlation_map(f_src, f_trg))
        bank = corr.OacKernelBank(N, H, W, rng)
        h1, cache1 = corr.oac_forward_direct(c, bank)
        h2, cache2 = corr.oac_forward_reordered(c, bank)
        g = rng.standard_normal(h1.shape)
        results = []
        for h, cache, backward in ((h1, cache1, corr.oac_backward_direct),
                                   (h2, cache2, corr.oac_backward_reordered)):
            for p in bank.parameters():
                p.zero_grad()
            backward(cache, bank, g)
            results.append((h, bank.weights.grad.copy(), bank.bias.grad.copy()))
        for key, a, b in zip(bounds, *results):
            worst[key] = max(worst[key], float(np.abs(a - b).max()))
    print(f"max output deviation over {args.trials} trials: {worst['output']:.3e}")
    for key in list(bounds)[1:]:
        print(f"max {key} deviation: {worst[key]:.3e}")
    ok = all(worst[key] <= bound for key, bound in bounds.items())
    print("PASS" if ok else "FAIL")
    return 0 if ok else 2


def cmd_bench(args):
    H, W, N = _parse_dims(args.dims, "15x15x128")
    _positive("--repeats", args.repeats)
    _print_config({"dims": f"{H}x{W}x{N}", "repeats": args.repeats, "seed": args.seed})
    rng = np.random.default_rng(args.seed)
    c = rng.standard_normal((1, H * W, H, W))
    bank = corr.OacKernelBank(N, H, W, rng)
    g = rng.standard_normal((1, N, H, W))
    formulas = {}
    for path, fwd, bwd in (
        ("direct", corr.oac_forward_direct, corr.oac_backward_direct),
        ("reordered", corr.oac_forward_reordered, corr.oac_backward_reordered),
    ):
        counter = corr.MultiplyCounter()
        _, cache = fwd(c, bank, counter)
        per_call = counter.total
        t0 = time.perf_counter()
        for _ in range(args.repeats):
            fwd(c, bank)
        t1 = time.perf_counter()
        for _ in range(args.repeats):
            bwd(cache, bank, g)
        fwd_s = (t1 - t0) / args.repeats
        bwd_s = (time.perf_counter() - t1) / args.repeats
        formula = corr.count_multiplications(H, W, N, path)
        formulas[path] = formula
        print(
            f"{path:9s}: formula {formula:,} multiplies, instrumented {per_call:,}, "
            f"forward {fwd_s * 1e3:.2f} ms/call, backward {bwd_s * 1e3:.2f} ms/call"
        )
        if per_call != formula:
            print(f"error: instrumented count diverges from formula on {path} path", file=sys.stderr)
            return 2
    nz = corr.count_nonzero_offset_entries(H, W, N)
    print(f"nonzero-only multiplies in the reordered volume: {nz:,}")
    ratio = formulas["reordered"] / formulas["direct"]
    print(f"reordered/direct multiply ratio: {ratio:.3f}")
    return 0


def _load_checkpoint(path):
    """The model saved at `path` and the training config written beside it,
    which must describe that model."""
    model, config = AttentiveAlignmentModel.load(path)
    tconf_path = os.path.normpath(os.path.join(path, "..", "train_config.txt"))
    tconf = pipeline.TrainConfig.from_file(tconf_path)
    if tconf.model_config() != config:
        raise ValueError(f"{tconf_path} does not describe the model in "
                         f"{os.path.join(path, 'config.txt')}")
    return model, tconf


def _dump_attention(base, alpha):
    """One pair's (H, W) attention map as base.csv and, scaled to peak 1, base.pgm."""
    with open(base + ".csv", "w") as f:
        for row in alpha:
            f.write(",".join(repr(float(v)) for v in row) + "\n")
    scaled = alpha / alpha.max() if alpha.max() > 0 else alpha
    storage.save_image(base + ".pgm", scaled[None])


def _load_theta(path):
    """Parameters from an OACT file of any shape, by geometry.params_from_length."""
    return geometry.params_from_length(storage.load_tensor(path))


def cmd_eval(args):
    _print_config({"checkpoint": args.checkpoint, "alpha": args.alpha, "seed": args.seed})
    if not (math.isfinite(args.alpha) and args.alpha > 0):
        raise ValueError(f"--alpha must be finite and positive, got {args.alpha}")
    if args.image_size < 2:
        raise ValueError(f"--image-size must be at least 2, got {args.image_size}")
    predicted_theta = _load_theta(args.theta_file) if args.theta_file else None

    if args.keypoints_csv:
        pairs = storage.load_keypoints_csv(args.keypoints_csv)
        theta = predicted_theta or geometry.AffineParams.identity()
        predicted = {pid: theta for pid in pairs}
        image_hw = (args.image_size, args.image_size)
        score = geometry.pck(pairs, predicted, args.alpha, image_hw)
        n_total = sum(rec["src"].shape[0] for rec in pairs.values())
        print(f"PCK(alpha={args.alpha}): {score:.4f} over {n_total} keypoints, {len(pairs)} pairs")
        return 0

    if not args.checkpoint:
        raise ValueError("need --checkpoint or --keypoints-csv")
    _positive("--pairs", args.pairs)
    model, tconf = _load_checkpoint(args.checkpoint)
    rng = np.random.default_rng(args.seed)
    images = [
        pipeline.make_procedural_image(rng, tconf.image_size, tconf.image_channels)
        for _ in range(args.pairs)
    ]
    batch = pipeline.build_pairs(images, pipeline.build_provider(tconf), tconf, rng)
    theta_vecs, state = pipeline.predict(model, batch)
    thetas = [model.theta_params(v) for v in theta_vecs]
    mean_tgd = pipeline.evaluate_tgd(thetas, batch)
    pck_score = pipeline.evaluate_pck_synthetic(
        thetas, batch, alpha=args.alpha, image_hw=(tconf.image_size, tconf.image_size),
        seed=args.seed,
    )
    print(f"mean TGD over {len(batch)} synthetic pairs: {mean_tgd:.6f}")
    print(f"PCK(alpha={args.alpha}): {pck_score:.4f}")
    if args.dump_attention:
        os.makedirs(args.dump_attention, exist_ok=True)
        for i in range(state.alpha.shape[0]):
            _dump_attention(os.path.join(args.dump_attention, f"attention_{i:04d}"),
                            state.alpha[i, 0])
        print(f"attention dumps written to {args.dump_attention}")
    return 0


def cmd_warp(args):
    image = storage.load_image(args.image)
    _print_config({"image": args.image, "out": args.out})
    if args.theta_file:
        warped = geometry.bilinear_warp(image, _load_theta(args.theta_file))
        storage.save_image(args.out, warped)
        print(f"warped image written to {args.out}")
        return 0
    if args.checkpoint:
        model, tconf = _load_checkpoint(args.checkpoint)
        rng = np.random.default_rng(args.seed)
        provider = pipeline.build_provider(tconf, channels=image.shape[0])
        theta_vecs, state = pipeline.predict(
            model, pipeline.build_pairs([image], provider, tconf, rng))
        # a pair's source crop is its image itself
        warped = geometry.bilinear_warp(image, model.theta_params(theta_vecs[0]))
        storage.save_image(args.out, warped)
        _dump_attention(os.path.splitext(args.out)[0] + "_attention", state.alpha[0, 0])
        print(f"warped pair written to {args.out} (+ attention dumps)")
        return 0
    raise ValueError("need --theta-file or --checkpoint")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="oacnet",
        description=(
            "Semantic-alignment toolkit: offset-aware correlation kernels, attention-based "
            "transformation estimation, self-supervised training, and keypoint evaluation. "
            "Defaults: learning rate 2e-4, batch size 32, PCK alpha 0.1."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="self-supervised training on synthetic pairs")
    p.add_argument("--config", required=True, help="flat key = value config file")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=None, help="overrides the config seed")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("check-equiv", help="direct vs reordered kernel equivalence oracle")
    p.add_argument("--dims", default="4x4x2", help="HxWxN")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_check_equiv)

    p = sub.add_parser("bench", help="multiply counts and wall time for both kernel paths")
    p.add_argument("--dims", default="15x15x128", help="HxWxN")
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("eval", help="TGD/PCK evaluation of a checkpoint or keypoint CSV")
    p.add_argument("--checkpoint", default="")
    p.add_argument("--keypoints-csv", default="")
    p.add_argument("--theta-file", default="", help="OACT vector applied to all CSV pairs")
    p.add_argument("--alpha", type=float, default=0.1)
    p.add_argument("--pairs", type=int, default=50, help="synthetic eval pairs")
    p.add_argument("--image-size", type=int, default=240)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dump-attention", default="", help="directory for attention CSV/graymaps")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("warp", help="warp an image by stored or predicted parameters")
    p.add_argument("--image", required=True, help="P5/P6 input")
    p.add_argument("--out", required=True, help="output image path")
    p.add_argument("--theta-file", default="")
    p.add_argument("--checkpoint", default="")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_warp)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 1 if e.code not in (0, None) else 0
    try:
        # a non-finite value ends a command through the finite checks, with
        # one line, so numpy's floating-point warnings are not printed
        with np.errstate(all="ignore"):
            return args.fn(args)
    except (storage.StorageError, ShapeError, ValueError, OSError) as e:
        # malformed or missing input: one line, not a traceback
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (NumericError, pipeline.DivergenceError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
