"""Finite-difference gradient checking for the tests: each layer's hand-written
backward is compared against central differences of its forward."""

from contextlib import contextmanager

import numpy as np


@contextmanager
def bn_stats_restored(batch_norms):
    """Puts back each batch norm's running statistics and update count after
    the body: every train-mode forward updates them, and a finite-difference
    check runs the forward many times."""
    saved = [(bn.running_mean.copy(), bn.running_var.copy(), bn.num_updates)
             for bn in batch_norms]
    try:
        yield
    finally:
        for bn, (mean, var, n) in zip(batch_norms, saved):
            bn.running_mean, bn.running_var, bn.num_updates = mean, var, n


def grad_check(loss_fn, params, step=1e-5, max_entries=24, seed=0, denom_floor=1e-4):
    """Compare analytic gradients to central finite differences.

    loss_fn(compute_grads) must return a scalar loss and, when compute_grads is
    True, leave each parameter's gradient populated. Checks a deterministic
    sample of entries per parameter and reports the max relative error.
    """
    for p in params:
        p.zero_grad()
    loss_fn(True)
    analytic = [p.grad.copy() for p in params]
    rng = np.random.default_rng(seed)
    report = {}
    for p, ga in zip(params, analytic):
        flat = p.value.reshape(-1)
        n = flat.size
        idx = np.arange(n) if n <= max_entries else rng.choice(n, size=max_entries, replace=False)
        worst = 0.0
        for i in idx:
            orig = flat[i]
            flat[i] = orig + step
            lp = loss_fn(False)
            flat[i] = orig - step
            lm = loss_fn(False)
            flat[i] = orig
            fd = (lp - lm) / (2 * step)
            a = ga.reshape(-1)[i]
            err = abs(a - fd) / max(abs(a), abs(fd), denom_floor)
            worst = max(worst, err)
        report[p.name or repr(p)] = worst
    for p in params:
        p.zero_grad()
    return report
