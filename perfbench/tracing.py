"""In-memory span tracing installed from outside the library.

A `Tracer` replaces functions and methods at the boundaries the library's own
modules call through (module attributes and class attributes) with wrappers
that record one span per call: name, start, end, parent span and step id.
`restore` puts every original back. Nothing here changes the library's files;
an untraced run never creates a `Tracer`.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import time
from collections import defaultdict

# Per-step layer metrics: name -> span names whose inclusive time (outermost
# call only, when the same metric's spans nest) is summed within a step.
INCLUSIVE_MS = {
    "pipeline.make_batch_ms": ("pipeline._make_batch",),
    "pipeline.provider_ms": ("pipeline.RandomProjectionProvider.__call__",),
    "pipeline.import_feature_ms": ("pipeline.import_feature_map",),
    "geometry.pad_crop_ms": ("geometry.mirror_pad_center_crop",),
    "geometry.border_displacement_ms": ("geometry.max_border_displacement",),
    "geometry.sample_transform_ms": ("geometry.sample_random_transform",),
    "geometry.tgd_ms": ("geometry.tgd",),
    "correlation.oac_fwd_ms": ("correlation.oac_forward_direct",
                               "correlation.oac_forward_reordered"),
    "correlation.oac_bwd_ms": ("correlation.oac_backward_direct",
                               "correlation.oac_backward_reordered"),
    "correlation.corr_map_ms": ("correlation.correlation_map",),
    "correlation.normalize_ms": ("correlation.normalize_correlation",),
    "tensor.conv7_fwd_ms": ("tensor.conv7_forward",),
    "tensor.conv7_bwd_ms": ("tensor.conv7_backward",),
    "tensor.conv1_fwd_ms": ("tensor.conv1_forward",),
    "tensor.conv1_bwd_ms": ("tensor.conv1_backward",),
    "tensor.bn_fwd_ms": ("tensor.BatchNorm.forward",),
    "tensor.bn_bwd_ms": ("tensor.BatchNorm.backward",),
    "tensor.relu_ms": ("tensor.relu_forward", "tensor.relu_backward"),
    "tensor.softmax_ms": ("tensor.spatial_softmax_forward", "tensor.spatial_softmax_backward"),
    "tensor.adam_step_ms": ("tensor.Adam.step",),
    "network.forward_ms": ("network.AttentiveAlignmentModel.forward_features",),
    "network.backward_ms": ("network.AttentiveAlignmentModel.backward",),
    "storage.load_tensor_ms": ("storage.load_tensor",),
}

# Root span of each timed step; its self time is the unattributed time.
STEP_SPAN = "step"

# Per-step self-time metrics: span duration minus the part its children cover.
SELF_MS = {
    "pipeline.batch_loss_self_ms": ("pipeline.batch_loss_and_grads",),
    "network.self_ms": ("network.AttentiveAlignmentModel.forward_features",
                        "network.AttentiveAlignmentModel.backward"),
    "unattributed_ms": (STEP_SPAN,),
}

# Per-step call counts, reported per pair.
CALLS_PER_PAIR = {
    "pipeline.provider_calls": "pipeline.RandomProjectionProvider.__call__",
    "geometry.border_displacement_calls": "geometry.max_border_displacement",
}

# Per-setup metrics (spans recorded while the workload is built).
SETUP_INCLUSIVE_MS = {
    "storage.load_checkpoint_ms": ("storage.load_checkpoint",),
}


class Tracer:
    """Records spans in memory; `wrap` installs a recording wrapper."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, step id or None]
        self.step = None
        self._stack = []
        self.patches = []

    def begin(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.step])
        self._stack.append(idx)
        return idx

    def end(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, owner, attr, name):
        """Replace owner.attr by a recording wrapper. `name` is a span name or a
        callable mapping the call's arguments to one."""
        original = inspect.getattr_static(owner, attr)
        namer = name if callable(name) else (lambda *a, **k: name)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            idx = self.begin(namer(*args, **kwargs))
            try:
                return original(*args, **kwargs)
            finally:
                self.end(idx)

        setattr(owner, attr, wrapper)
        self.patches.append((owner, attr, original))

    def wrap_module_functions(self, module, layer):
        """Wrap every public function defined in `module` as `<layer>.<name>`."""
        for attr, fn in list(vars(module).items()):
            if inspect.isfunction(fn) and not attr.startswith("_") \
                    and fn.__module__ == module.__name__:
                self.wrap(module, attr, f"{layer}.{attr}")

    def restore(self):
        while self.patches:
            owner, attr, original = self.patches.pop()
            setattr(owner, attr, original)


def install(tracer):
    """Wrap the calls into each layer that the workloads make."""
    from oacnet import correlation, geometry, network, pipeline, storage, tensor

    tracer.wrap_module_functions(correlation, "correlation")
    tracer.wrap_module_functions(geometry, "geometry")
    for attr, fn in list(vars(storage).items()):
        if attr.startswith("load_") and inspect.isfunction(fn):
            tracer.wrap(storage, attr, f"storage.{attr}")
    # network calls these through the names it imported from tensor; conv spans
    # are told apart by kernel size (7x7 encoder vs 1x1 S/G branches)
    tracer.wrap(network, "conv2d_forward",
                lambda x, w, *a, **k: f"tensor.conv{w.shape[2]}_forward")
    tracer.wrap(network, "conv2d_backward",
                lambda cache, *a, **k: f"tensor.conv{cache[1].shape[2]}_backward")
    for attr in ("relu_forward", "relu_backward",
                 "spatial_softmax_forward", "spatial_softmax_backward"):
        tracer.wrap(network, attr, f"tensor.{attr}")
    for cls, layer, methods in (
        (tensor.BatchNorm, "tensor", ("forward", "backward")),
        (tensor.Adam, "tensor", ("step",)),
        (pipeline.RandomProjectionProvider, "pipeline", ("__call__",)),
        (network.AttentiveAlignmentModel, "network", ("forward_features", "backward")),
    ):
        for m in methods:
            tracer.wrap(cls, m, f"{layer}.{cls.__name__}.{m}")
    for attr in ("_make_batch", "batch_loss_and_grads", "import_feature_map"):
        tracer.wrap(pipeline, attr, f"pipeline.{attr}")


def _durations(spans):
    """Per span: (inclusive seconds, self seconds). Calls are nested, never
    concurrent, so a span's children cover disjoint parts of it."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    return [(s[2] - s[1], s[2] - s[1] - child_time[i]) for i, s in enumerate(spans)]


def _nested_in_same(spans, i, names):
    parent = spans[i][3]
    while parent >= 0:
        if spans[parent][0] in names:
            return True
        parent = spans[parent][3]
    return False


def summarize(spans, pairs_per_step):
    """Per-layer metrics in ms (or counts per pair), each the median over steps."""
    dur = _durations(spans)
    step_ids = sorted({s[4] for s in spans if s[4] is not None})
    per_step = {sid: defaultdict(float) for sid in step_ids}
    per_setup = defaultdict(list)
    metric_of = {}
    for table in (INCLUSIVE_MS, SETUP_INCLUSIVE_MS):
        for metric, names in table.items():
            for n in names:
                metric_of[n] = (metric, names)
    self_of = {n: metric for metric, names in SELF_MS.items() for n in names}
    calls_of = {n: metric for metric, n in CALLS_PER_PAIR.items()}

    for i, (name, _, _, _, sid) in enumerate(spans):
        incl, self_s = dur[i]
        if name in metric_of:
            metric, names = metric_of[name]
            if not _nested_in_same(spans, i, names):
                if sid is None:
                    if metric in SETUP_INCLUSIVE_MS:
                        per_setup[metric].append(incl * 1e3)
                else:
                    per_step[sid][metric] += incl * 1e3
        if sid is None:
            continue
        if name in self_of:
            per_step[sid][self_of[name]] += self_s * 1e3
        if name in calls_of:
            per_step[sid][calls_of[name]] += 1.0 / pairs_per_step

    out = {}
    for metric in (*INCLUSIVE_MS, *SELF_MS, *CALLS_PER_PAIR):
        values = [per_step[sid][metric] for sid in step_ids]
        out[metric] = statistics.median(values) if values else 0.0
    for metric in SETUP_INCLUSIVE_MS:
        out[metric] = statistics.median(per_setup[metric]) if per_setup[metric] else 0.0
    return out
