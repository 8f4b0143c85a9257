"""Outside-in tracing of segdetect for the benchmark's per-layer metrics.

The tracer replaces public functions with timing wrappers at the module
attribute each caller resolves. The modules use `from ... import`, so one
function can be bound in several modules (`predict` lives in `model`,
`pipeline` and `attacks`) and each binding is wrapped. Nothing under `src/`
changes, and `restore()` puts every original back.

Spans (name, start, end, parent) are kept in memory and written out once,
at the end of the run. A span's self time is its duration minus the time
its child spans cover.
"""

import collections
import contextlib
import functools
import importlib
import json
import os
import statistics
import time

PIPELINE_STAGES = [
    ("gen_data", "stage_gen_data"), ("train_model", "stage_train_model"),
    ("gradcheck", "stage_gradcheck"), ("attack", "stage_attack"),
    ("features", "stage_extract_features"), ("train_detectors", "stage_train_detectors"),
    ("evaluate", "stage_evaluate"),
]
ATTACKS = ["fgsm", "ifgsm", "dnnm_attack", "ssmm_train", "patch_attack", "dnnm_target"]
DETECTORS = ["train_lasso", "train_ocsvm", "train_ellipse", "score_many"]
AUTODIFF_OPS = ["conv2d_fwd", "conv2d_bwd", "relu_bwd", "softmax", "softmax_ce"]
CONV_LAYERS = ["L1", "L2", "L3"]

# (module, attribute, span name): every binding a caller resolves.
BINDINGS = (
    [("pipeline", attr, "pipeline." + name) for name, attr in PIPELINE_STAGES]
    + [("pipeline", "train", "model.train"),
       ("pipeline", "grad_check", "model.grad_check"),
       ("model", "loss_value_f64", "model.loss_value_f64"),
       ("model", "loss_input_grad", "model.loss_input_grad"),
       ("attacks", "loss_input_grad", "model.loss_input_grad"),
       ("model", "predict", "model.predict"),
       ("pipeline", "predict", "model.predict"),
       ("attacks", "predict", "model.predict"),
       ("pipeline", "predicted_labels", "model.predicted_labels"),
       ("attacks", "predicted_labels", "model.predicted_labels"),
       ("model", "conv2d_fwd", "autodiff.conv2d_fwd"),
       ("model", "conv2d_bwd", "autodiff.conv2d_bwd"),
       ("model", "relu_bwd", "autodiff.relu_bwd"),
       ("model", "softmax", "autodiff.softmax"),
       ("autodiff", "softmax", "autodiff.softmax"),
       ("model", "softmax_ce", "autodiff.softmax_ce")]
    + [("attacks", attr, "attacks." + attr) for attr in ATTACKS]
    + [("uncertainty", "feature_vector", "uncertainty.feature_vector")]
    + [("detectors", attr, "detectors." + attr) for attr in DETECTORS]
    + [("metrics", "cross_validate", "metrics.cross_validate"),
       ("synthdata", "generate_dataset", "synthdata.generate_dataset"),
       ("tensorio", "save_tensor", "tensorio.save_tensor")]
)

# Per-layer metrics: name -> (unit, better). README.md says which
# end-to-end metric each should move, and on which workload.
METRICS = {}
METRICS.update({f"pipeline.{name}_s": ("s", "lower") for name, _ in PIPELINE_STAGES})
METRICS.update({
    "model.train_step_ms": ("ms", "lower"),
    "model.loss_input_grad.calls": ("count", "lower"),
    "model.loss_input_grad.ms": ("ms", "lower"),
    "model.predict.calls": ("count", "lower"),
    "model.predict.ms": ("ms", "lower"),
    "model.grad_check_s": ("s", "lower"),
    "model.loss_value_f64.calls": ("count", "lower"),
})
for _op in ("conv2d_fwd", "conv2d_bwd"):
    METRICS.update({f"autodiff.{_op}.{layer}.ms": ("ms", "lower") for layer in CONV_LAYERS})
for _op in AUTODIFF_OPS:
    METRICS[f"autodiff.{_op}.calls"] = ("count", "lower")
    METRICS[f"autodiff.{_op}.self_s"] = ("s", "lower")
METRICS.update({
    "autodiff.conv.gflop": ("GFLOP-computed", "lower"),
    "autodiff.conv.im2col_mb": ("MB-computed", "lower"),
})
METRICS.update({f"attacks.{attr}_s": ("s", "lower") for attr in ATTACKS})
METRICS.update({
    "uncertainty.feature_vector.calls": ("count", "lower"),
    "uncertainty.feature_vector_s": ("s", "lower"),
})
METRICS.update({f"detectors.{attr}_s": ("s", "lower") for attr in DETECTORS})
METRICS.update({
    "metrics.cross_validate_s": ("s", "lower"),
    "synthdata.generate_dataset_s": ("s", "lower"),
    "tensorio.save_tensor.calls": ("count", "lower"),
    "tensorio.save_tensor_s": ("s", "lower"),
    "tensorio.bytes_written_mb": ("MB", "lower"),
    "trace.overhead_s": ("s", "lower"),
})

# Metrics that count work rather than time it; they must repeat exactly.
EXACT = sorted(name for name, (unit, _) in METRICS.items()
               if unit in ("count", "GFLOP-computed", "MB-computed", "MB"))


def _conv_layer(kernel_shape):
    """L1 reads the 3 image channels, L3 is the 1x1 head, L2 sits between."""
    k, _, cin, _ = kernel_shape
    if cin == 3:
        return "L1"
    return "L3" if k == 1 else "L2"


class Tracer:
    def __init__(self):
        self.spans = []                      # [name, start, end, parent index]
        self.counts = collections.Counter()  # work computed at span boundaries
        self._stack = []
        self._patched = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        span = [name, 0.0, 0.0, parent]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        return span

    def _close(self, span):
        span[2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def wrap(self, module, attr, name, on_return=None):
        """Replace module.attr by a wrapper recording one span per call.
        on_return(span, args, result) may rename the span or add counts."""
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if on_return is not None:
                on_return(span, args, result)
            return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, fn))

    def restore(self):
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def instrument(self):
        """Wrap every entry of BINDINGS in the imported segdetect package."""
        hooks = {"autodiff.conv2d_fwd": self._conv_fwd,
                 "autodiff.conv2d_bwd": self._conv_bwd,
                 "tensorio.save_tensor": self._saved}
        for mod, attr, name in BINDINGS:
            self.wrap(importlib.import_module(f"segdetect.{mod}"), attr, name, hooks.get(name))

    # Counts computed from shapes (labelled as computed in their unit): the
    # im2col GEMM formulation of each conv call, whatever the kernel does.
    def _conv_fwd(self, span, args, result):
        x, kernel = args[0], args[1]
        h, w, cin = x.shape
        k, _, _, cout = kernel.shape
        span[0] += "." + _conv_layer(kernel.shape)
        self.counts["conv_flop"] += 2 * h * w * k * k * cin * cout
        self.counts["im2col_bytes"] += 4 * h * w * k * k * cin

    def _conv_bwd(self, span, args, result):
        # grad_kernel = cols.T @ go and grad_cols = go @ kernel.T
        h, w, cout = args[1].shape
        k, _, cin, _ = result[1].shape
        span[0] += "." + _conv_layer(result[1].shape)
        self.counts["conv_flop"] += 4 * h * w * k * k * cin * cout

    def _saved(self, span, args, result):
        self.counts["bytes_written"] += os.path.getsize(args[0])

    def write(self, path):
        t0 = self.spans[0][1] if self.spans else 0.0
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start - t0,
                                     "end": end - t0, "parent": parent}) + "\n")

    def metrics(self, train_steps, overhead_s):
        """Per-layer metrics over every span recorded: {name: value}."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        durations = collections.defaultdict(list)
        self_s = collections.defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            durations[name].append(end - start)
            self_s[name] += end - start - child[i]

        def select(prefix):
            return [name for name in durations
                    if name == prefix or name.startswith(prefix + ".")]

        def calls(prefix):
            return sum(len(durations[n]) for n in select(prefix))

        def total_s(prefix):
            return sum(sum(durations[n]) for n in select(prefix))

        def median_ms(name):
            return 1e3 * statistics.median(durations[name]) if durations[name] else 0.0

        out = {f"pipeline.{name}_s": total_s(f"pipeline.{name}") for name, _ in PIPELINE_STAGES}
        out["model.train_step_ms"] = 1e3 * total_s("model.train") / train_steps
        for name in ("loss_input_grad", "predict"):
            out[f"model.{name}.calls"] = calls(f"model.{name}")
            out[f"model.{name}.ms"] = median_ms(f"model.{name}")
        out["model.grad_check_s"] = total_s("model.grad_check")
        out["model.loss_value_f64.calls"] = calls("model.loss_value_f64")
        for op in ("conv2d_fwd", "conv2d_bwd"):
            for layer in CONV_LAYERS:
                out[f"autodiff.{op}.{layer}.ms"] = median_ms(f"autodiff.{op}.{layer}")
        for op in AUTODIFF_OPS:
            out[f"autodiff.{op}.calls"] = calls(f"autodiff.{op}")
            out[f"autodiff.{op}.self_s"] = sum(self_s[n] for n in select(f"autodiff.{op}"))
        out["autodiff.conv.gflop"] = self.counts["conv_flop"] / 1e9
        out["autodiff.conv.im2col_mb"] = self.counts["im2col_bytes"] / 1e6
        out.update({f"attacks.{attr}_s": total_s(f"attacks.{attr}") for attr in ATTACKS})
        out["uncertainty.feature_vector.calls"] = calls("uncertainty.feature_vector")
        out["uncertainty.feature_vector_s"] = total_s("uncertainty.feature_vector")
        out.update({f"detectors.{attr}_s": total_s(f"detectors.{attr}") for attr in DETECTORS})
        out["metrics.cross_validate_s"] = total_s("metrics.cross_validate")
        out["synthdata.generate_dataset_s"] = total_s("synthdata.generate_dataset")
        out["tensorio.save_tensor.calls"] = calls("tensorio.save_tensor")
        out["tensorio.save_tensor_s"] = total_s("tensorio.save_tensor")
        out["tensorio.bytes_written_mb"] = self.counts["bytes_written"] / 1e6
        out["trace.overhead_s"] = overhead_s
        assert set(out) == set(METRICS)
        return out
