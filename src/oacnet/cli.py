"""Batch command-line surface.

Exit codes: 0 success, 1 usage/config error, 2 numeric-guard failure.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from . import correlation as corr
from . import geometry, pipeline, storage
from .network import AttentiveAlignmentModel
from .tensor import NumericError, ShapeError


def _print_config(args, resolved):
    print("resolved configuration:")
    for k, v in resolved.items():
        print(f"  {k} = {v}")


def cmd_train(args):
    if not os.path.isfile(args.config):
        print(f"error: config file not found: {args.config}", file=sys.stderr)
        return 1
    try:
        config = pipeline.TrainConfig.from_file(args.config)
    except (storage.StorageError, ValueError) as e:
        print(f"error: bad config: {e}", file=sys.stderr)
        return 1
    if args.seed is not None:
        config.seed = args.seed
    os.makedirs(args.out_dir, exist_ok=True)
    _print_config(args, vars(config))
    print(f"seed: {config.seed}")
    try:
        model, history, val_batch = pipeline.train(
            config, log_fn=lambda s, l: print(f"step {s}: loss {l:.6f}")
        )
    except pipeline.DivergenceError as e:
        print(f"divergence guard tripped: {e}", file=sys.stderr)
        return 2
    storage.save_loss_csv(os.path.join(args.out_dir, "loss.csv"), history)
    ckpt_dir = os.path.join(args.out_dir, "checkpoint")
    model.save(ckpt_dir)
    with open(os.path.join(args.out_dir, "train_config.txt"), "w") as f:
        f.write("\n".join(config.to_lines()) + "\n")
    val_tgd, _ = pipeline.evaluate_tgd(model, val_batch)
    baseline = pipeline.identity_baseline(
        val_batch, config.family, geometry.make_regular_grid(20), config.tps_grid
    )
    print(f"final train loss: {history[-1][1]:.6f}")
    print(f"validation TGD: {val_tgd:.6f} (identity baseline {baseline:.6f})")
    print(f"checkpoint: {ckpt_dir}")
    return 0


def cmd_check_equiv(args):
    try:
        H, W, N = (int(x) for x in args.dims.lower().split("x"))
    except ValueError:
        print(f"error: --dims must look like 4x4x2, got {args.dims!r}", file=sys.stderr)
        return 1
    _print_config(args, {"dims": f"{H}x{W}x{N}", "trials": args.trials, "seed": args.seed})
    rng = np.random.default_rng(args.seed)
    worst_out = 0.0
    worst_grad = 0.0
    for _ in range(args.trials):
        f_src = np.abs(rng.standard_normal((3, H, W)))
        f_trg = np.abs(rng.standard_normal((3, H, W)))
        c = corr.normalize_correlation(corr.correlation_map(f_src, f_trg))
        bank = corr.OacKernelBank(N, H, W, rng=rng)
        if args.corrupt_layout:
            # negative-control hook: break the offset-channel flattening
            bank.weights.value = bank.weights.value[:, :, ::-1].copy()
            h1, cache1 = corr.oac_forward_direct(c, bank)
            bank.weights.value = bank.weights.value[:, :, ::-1].copy()
            h2, cache2 = corr.oac_forward_reordered(c, bank)
        else:
            h1, cache1 = corr.oac_forward_direct(c, bank)
            h2, cache2 = corr.oac_forward_reordered(c, bank)
        worst_out = max(worst_out, float(np.abs(h1 - h2).max()))
        g = rng.standard_normal(h1.shape)
        for p in bank.parameters():
            p.zero_grad()
        corr.oac_backward_direct(cache1, bank, g)
        gw1 = bank.weights.grad.copy()
        for p in bank.parameters():
            p.zero_grad()
        corr.oac_backward_reordered(cache2, bank, g)
        worst_grad = max(worst_grad, float(np.abs(gw1 - bank.weights.grad).max()))
    print(f"max output deviation over {args.trials} trials: {worst_out:.3e}")
    print(f"max weight-gradient deviation: {worst_grad:.3e}")
    ok = worst_out <= 1e-10 and worst_grad <= 1e-8
    print("PASS" if ok else "FAIL")
    return 0 if ok else 2


def cmd_bench(args):
    try:
        H, W, N = (int(x) for x in args.dims.lower().split("x"))
    except ValueError:
        print(f"error: --dims must look like 15x15x128, got {args.dims!r}", file=sys.stderr)
        return 1
    _print_config(args, {"dims": f"{H}x{W}x{N}", "repeats": args.repeats, "seed": args.seed})
    rng = np.random.default_rng(args.seed)
    c = rng.standard_normal((H * W, H, W))
    bank = corr.OacKernelBank(N, H, W, rng=rng)
    report = {}
    for path, fn in (("direct", corr.oac_forward_direct), ("reordered", corr.oac_forward_reordered)):
        counter = corr.MultiplyCounter()
        fn(c, bank, counter)
        per_call = counter.total
        t0 = time.perf_counter()
        for _ in range(args.repeats):
            fn(c, bank)
        elapsed = (time.perf_counter() - t0) / args.repeats
        formula = corr.count_multiplications(H, W, N, path)
        report[path] = (formula, per_call, elapsed)
        print(
            f"{path:9s}: formula {formula:,} multiplies, instrumented {per_call:,}, "
            f"{elapsed * 1e3:.2f} ms/call"
        )
        if per_call != formula:
            print(f"error: instrumented count diverges from formula on {path} path", file=sys.stderr)
            return 2
    nz = corr.count_nonzero_offset_entries(H, W, N)
    print(f"nonzero-only multiplies in the reordered volume: {nz:,}")
    ratio = report["reordered"][0] / report["direct"][0]
    print(f"reordered/direct multiply ratio: {ratio:.3f}")
    return 0


def _load_checkpoint(path):
    """The model saved at `path` and the training config written beside it."""
    model, _ = AttentiveAlignmentModel.load(path)
    tconf = pipeline.TrainConfig.from_file(os.path.join(path, "..", "train_config.txt"))
    return model, tconf


def _load_theta(path):
    """Affine (6 values) or TPS (18 values) parameters from an OACT file."""
    vec = storage.load_tensor(path).reshape(-1)
    if vec.size not in (6, 18):
        raise ShapeError(f"theta file must hold 6 or 18 values, got {vec.size}")
    return geometry.params_from_vector("affine" if vec.size == 6 else "tps", vec)


def cmd_eval(args):
    _print_config(args, {"checkpoint": args.checkpoint, "alpha": args.alpha, "seed": args.seed})
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
        print("error: need --checkpoint or --keypoints-csv", file=sys.stderr)
        return 1
    model, tconf = _load_checkpoint(args.checkpoint)
    rng = np.random.default_rng(args.seed)
    images = [
        pipeline.make_procedural_image(rng, tconf.image_size, tconf.image_channels)
        for _ in range(args.pairs)
    ]
    provider = pipeline.build_provider(tconf)
    pad = pipeline.default_pad((tconf.image_size, tconf.image_size))
    batch = []
    for image in images:
        pair = pipeline.generate_pair(image, tconf.family, pad, rng, grid_n=tconf.tps_grid)
        batch.append((provider(pair.source), provider(pair.target), pair.theta_gt))
    try:
        mean_tgd, state = pipeline.evaluate_tgd(model, batch)
    except (ShapeError, NumericError) as e:
        print(f"error: checkpoint/feature mismatch: {e}", file=sys.stderr)
        return 1
    pck_score = pipeline.evaluate_pck_synthetic(
        model, batch, alpha=args.alpha, image_hw=(tconf.image_size, tconf.image_size),
        seed=args.seed,
    )
    print(f"mean TGD over {len(batch)} synthetic pairs: {mean_tgd:.6f}")
    print(f"PCK(alpha={args.alpha}): {pck_score:.4f}")
    if args.dump_attention:
        os.makedirs(args.dump_attention, exist_ok=True)
        for i in range(state.alpha.shape[0]):
            a = state.alpha[i, 0]
            base = os.path.join(args.dump_attention, f"attention_{i:04d}")
            with open(base + ".csv", "w") as f:
                for row in a:
                    f.write(",".join(repr(float(v)) for v in row) + "\n")
            scaled = a / a.max() if a.max() > 0 else a
            storage.save_image(base + ".pgm", scaled[None])
        print(f"attention dumps written to {args.dump_attention}")
    return 0


def cmd_warp(args):
    image = storage.load_image(args.image)
    _print_config(args, {"image": args.image, "out": args.out})
    if args.theta_file:
        warped = geometry.bilinear_warp(image, _load_theta(args.theta_file))
        storage.save_image(args.out, warped)
        print(f"warped image written to {args.out}")
        return 0
    if args.checkpoint:
        model, tconf = _load_checkpoint(args.checkpoint)
        rng = np.random.default_rng(args.seed)
        provider = pipeline.build_provider(tconf, channels=image.shape[0])
        pad = pipeline.default_pad(image.shape[1:])
        pair = pipeline.generate_pair(image, tconf.family, pad, rng, grid_n=tconf.tps_grid)
        theta_vec, state = model.forward_features(
            provider(pair.source), provider(pair.target), mode="eval"
        )
        theta = model.theta_params(theta_vec)
        warped = geometry.bilinear_warp(pair.source, theta)
        storage.save_image(args.out, warped)
        base = os.path.splitext(args.out)[0]
        a = state.alpha[0, 0]
        with open(base + "_attention.csv", "w") as f:
            for row in a:
                f.write(",".join(repr(float(v)) for v in row) + "\n")
        storage.save_image(base + "_attention.pgm", (a / a.max())[None] if a.max() > 0 else a[None])
        print(f"warped pair written to {args.out} (+ attention dumps)")
        return 0
    print("error: need --theta-file or --checkpoint", file=sys.stderr)
    return 1


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
    p.add_argument("--corrupt-layout", action="store_true", help=argparse.SUPPRESS)
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
        return args.fn(args)
    except (storage.StorageError, ShapeError, ValueError, OSError) as e:
        # malformed or missing input: one line, not a traceback
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
