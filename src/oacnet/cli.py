"""Batch command-line surface.

Exit codes: 0 success, 1 usage/config error, 2 numeric-guard failure, 130 interrupted.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
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


def _at_least(flag, value, low):
    """Rejects a flag value below low (ValueError, so main exits 1)."""
    if value < low:
        raise ValueError(f"{flag} must be at least {low}, got {value}")


def _parse_dims(text, example):
    """H, W, N from a --dims value such as 4x4x2, each positive."""
    try:
        H, W, N = (int(x) for x in text.lower().split("x"))
    except ValueError:
        H = W = N = 0
    if min(H, W, N) < 1:
        raise ValueError(f"--dims must look like {example} with positive sizes, got {text!r}")
    return H, W, N


def _outputs(flag, *paths, directory=False):
    """Refuse outputs that cannot be written: a missing parent, a directory in
    place of a file, a directory output neither absent nor empty. Return
    publish(write): write(*staged) fills one temporary sibling, and each output
    is renamed into place once all succeeded, so a failure leaves none of them."""
    parent = os.path.dirname(os.path.abspath(paths[0]))
    if not os.path.isdir(parent):
        raise ValueError(f"{flag} {paths[0]}: parent directory does not exist")
    for path in paths:
        if directory and os.path.lexists(path) and (not os.path.isdir(path) or os.listdir(path)):
            raise ValueError(f"{flag} {path} exists and is not an empty directory")
        if not directory and os.path.isdir(path):
            raise ValueError(f"{flag}: {path} is a directory")

    def publish(write):
        # only the sibling is 0700 (mkdtemp's mode); outputs get the usual modes
        scratch = tempfile.mkdtemp(prefix=".oacnet-", dir=parent)
        staged = [os.path.join(scratch, str(i)) for i in range(len(paths))]
        try:
            write(*staged)
            for path, target in zip(staged, paths):
                os.replace(path, target)
        finally:
            shutil.rmtree(scratch)
    return publish


def cmd_train(args):
    config = pipeline.TrainConfig.from_file(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    publish = _outputs("--out-dir", args.out_dir, directory=True)
    try:
        model, history, val_batch = pipeline.train(
            config, log_fn=lambda s, l: print(f"step {s}: loss {l:.6f}"),
            ready_fn=lambda: (_print_config(vars(config)), print(f"seed: {config.seed}")),
        )
    except pipeline.DivergenceError as e:
        print(f"divergence guard tripped: {e}", file=sys.stderr)
        return 2
    publish(lambda run: (model.save(os.path.join(run, "checkpoint")),
                         storage.save_loss_csv(os.path.join(run, "loss.csv"), history)))
    theta_vecs, _ = pipeline.predict(model, val_batch)
    val_tgd = pipeline.evaluate_tgd(theta_vecs, val_batch)
    baseline = pipeline.evaluate_tgd(
        np.broadcast_to(model.identity_offset, theta_vecs.shape), val_batch)
    print(f"final train loss: {history[-1][1]:.6f}")
    print(f"validation TGD: {val_tgd:.6f} (identity baseline {baseline:.6f})")
    print(f"checkpoint: {os.path.join(args.out_dir, 'checkpoint')}")
    return 0


def cmd_check_equiv(args):
    H, W, N = _parse_dims(args.dims, "4x4x2")
    _at_least("--trials", args.trials, 1)
    _at_least("--seed", args.seed, 0)
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
    # printed once the trials have run, so an allocation they cannot make prints nothing
    _print_config({"dims": f"{H}x{W}x{N}", "trials": args.trials, "seed": args.seed})
    print(f"max output deviation over {args.trials} trials: {worst['output']:.3e}")
    for key in list(bounds)[1:]:
        print(f"max {key} deviation: {worst[key]:.3e}")
    ok = all(worst[key] <= bound for key, bound in bounds.items())
    print("PASS" if ok else "FAIL")
    return 0 if ok else 2


def cmd_bench(args):
    H, W, N = _parse_dims(args.dims, "15x15x128")
    _at_least("--repeats", args.repeats, 1)
    _at_least("--seed", args.seed, 0)
    rng = np.random.default_rng(args.seed)
    c = rng.standard_normal((1, H * W, H, W))
    bank = corr.OacKernelBank(N, H, W, rng)
    g = rng.standard_normal((1, N, H, W))
    # printed once the inputs exist, so an allocation they cannot make prints nothing
    _print_config({"dims": f"{H}x{W}x{N}", "repeats": args.repeats, "seed": args.seed})
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


def cmd_eval(args):
    _at_least("--pairs", args.pairs, 1)
    _at_least("--seed", args.seed, 0)
    if not (math.isfinite(args.alpha) and args.alpha > 0):
        raise ValueError(f"--alpha must be finite and positive, got {args.alpha}")
    # every input is read and checked before anything is printed
    model, tconf = AttentiveAlignmentModel.load(args.checkpoint, pipeline.TrainConfig)
    if args.dump_attention:
        publish = _outputs("--dump-attention", args.dump_attention, directory=True)
    _print_config({"checkpoint": args.checkpoint, "pairs": args.pairs, "alpha": args.alpha,
                   "seed": args.seed, "dump_attention": args.dump_attention or None})
    rng = np.random.default_rng(args.seed)
    images = [
        pipeline.make_procedural_image(rng, tconf.image_size, tconf.image_channels)
        for _ in range(args.pairs)
    ]
    batch = pipeline.build_pairs(images, pipeline.build_provider(tconf), tconf, rng)
    theta_vecs, state = pipeline.predict(model, batch)
    mean_tgd = pipeline.evaluate_tgd(theta_vecs, batch)
    pck_score = pipeline.evaluate_pck_synthetic(
        theta_vecs, batch, alpha=args.alpha, image_hw=(tconf.image_size, tconf.image_size),
        seed=args.seed,
    )
    print(f"mean TGD over {len(batch)} synthetic pairs: {mean_tgd:.6f}")
    print(f"PCK(alpha={args.alpha}): {pck_score:.4f}")
    if args.dump_attention:
        def write(dump):
            os.mkdir(dump)
            for i, alpha in enumerate(state.alpha[:, 0]):
                base = os.path.join(dump, f"attention_{i:04d}")
                storage.save_attention(base + ".csv", base + ".pgm", alpha)
        publish(write)
        print(f"attention dumps written to {args.dump_attention}")
    return 0


def cmd_pck(args):
    if not (math.isfinite(args.alpha) and args.alpha > 0):
        raise ValueError(f"--alpha must be finite and positive, got {args.alpha}")
    _at_least("--image-size", args.image_size, 2)
    if args.image_size > 2**53:  # float64 holds every pixel index up to here
        raise ValueError(f"--image-size must be at most 2**53, got {args.image_size}")
    # every input is read and checked before anything is printed
    theta = (geometry.identity_vector("affine") if args.theta_file is None
             else geometry.theta_vector(storage.load_tensor(args.theta_file)))
    pairs = storage.load_keypoints_csv(args.keypoints_csv)
    _print_config({"keypoints_csv": args.keypoints_csv, "theta_file": args.theta_file,
                   "alpha": args.alpha, "image_size": args.image_size})
    predicted = {pid: theta for pid in pairs}
    image_hw = (args.image_size, args.image_size)
    score = geometry.pck(pairs, predicted, args.alpha, image_hw)
    n_total = sum(rec["src"].shape[0] for rec in pairs.values())
    print(f"PCK(alpha={args.alpha}): {score:.4f} over {n_total} keypoints, {len(pairs)} pairs")
    return 0


def cmd_warp(args):
    if args.theta_file is not None and args.seed is not None:
        raise ValueError("--seed is read only with --checkpoint, not with --theta-file")
    seed = args.seed or 0
    _at_least("--seed", seed, 0)
    # every input is read and checked before anything is printed
    if args.checkpoint is None:
        image, dumps = storage.load_image(args.image), []
        theta, state = geometry.theta_vector(storage.load_tensor(args.theta_file)), None
        source = {"theta_file": args.theta_file}
    else:
        model, tconf = AttentiveAlignmentModel.load(args.checkpoint, pipeline.TrainConfig)
        image = pipeline.load_image(args.image, tconf)  # the shape the run's provider reads
        dumps = [f"{os.path.splitext(args.out)[0]}_attention.{ext}" for ext in ("csv", "pgm")]
        source = {"checkpoint": args.checkpoint, "seed": seed}
    publish = _outputs("--out", args.out, *dumps)
    _print_config({"image": args.image, **source, "out": args.out})
    if args.checkpoint is not None:
        rng = np.random.default_rng(seed)
        theta_vecs, state = pipeline.predict(
            model, pipeline.build_pairs([image], pipeline.build_provider(tconf), tconf, rng))
        # a pair's source crop is its image itself
        theta = theta_vecs[0]
    warped = geometry.bilinear_warp(image, theta)
    if state is None:
        publish(lambda out: storage.save_image(out, warped))
        print(f"warped image written to {args.out}")
        return 0
    publish(lambda out, csv, pgm: (storage.save_image(out, warped),
                                   storage.save_attention(csv, pgm, state.alpha[0, 0])))
    print(f"warped pair written to {args.out} (+ attention dumps)")
    return 0


class _Parser(argparse.ArgumentParser):
    def parse_known_args(self, args=None, namespace=None):
        # add_parser builds each command's parser with this class: a flag it does
        # not spell in full (no abbreviation: each flag has one spelling) is named
        # ahead of argparse's missing required flags. The top-level parser, which
        # does not know its commands' flags, checks none.
        for arg in itertools.takewhile(lambda a: a != "--", () if self._subparsers else args):
            flag = arg.split("=", 1)[0]
            if flag.startswith("--") and flag not in self._option_string_actions:
                self.error(f"unrecognized arguments: {flag}")
        return super().parse_known_args(args, namespace)

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def build_parser():
    parser = _Parser(
        prog="oacnet", allow_abbrev=False,
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

    p = sub.add_parser("eval", help="mean TGD and PCK of a checkpoint on synthetic pairs")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--pairs", type=int, default=50, help="synthetic eval pairs")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--alpha", type=float, default=0.1)
    p.add_argument("--dump-attention", default="", help="directory for attention CSV/graymaps")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("pck", help="PCK of a stored transform on a keypoint CSV")
    p.add_argument("--keypoints-csv", required=True)
    p.add_argument("--theta-file", help="OACT vector applied to all pairs (default identity)")
    p.add_argument("--alpha", type=float, default=0.1)
    p.add_argument("--image-size", type=int, default=240, help="keypoint image side in pixels")
    p.set_defaults(fn=cmd_pck)

    p = sub.add_parser("warp", help="warp an image by stored or predicted parameters")
    p.add_argument("--image", required=True, help="P5/P6 input")
    p.add_argument("--out", required=True, help="output image path")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--theta-file")
    source.add_argument("--checkpoint")
    p.add_argument("--seed", type=int, help="pair synthesis seed for --checkpoint (default 0)")
    p.set_defaults(fn=cmd_warp)

    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        # a non-finite value ends a command through the finite checks, with
        # one line, so numpy's floating-point warnings are not printed
        with np.errstate(all="ignore"):
            return args.fn(args)
    except SystemExit:  # --help; a usage error raises ValueError (_Parser.error)
        return 0
    except (storage.StorageError, ShapeError, ValueError, OSError) as e:
        # usage error, or malformed or missing input: one line, not a traceback
        print(f"error: {e}", file=sys.stderr)
        return 1
    except MemoryError as e:  # an allocation the machine cannot make, e.g. a huge width
        print(f"error: out of memory: {e}", file=sys.stderr)
        return 1
    except (NumericError, pipeline.DivergenceError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:  # outputs are published last, so none is left
        print("error: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
