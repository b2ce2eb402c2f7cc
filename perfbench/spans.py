"""In-memory span tracing of pointdet's public functions, from the outside.

A :class:`Tracer` replaces each traced function at the place where pointdet
looks it up (a module global, or a class attribute for methods) with a
wrapper that records a span ``[name, start, end, parent, run]`` and, for some
functions, work counters computed from the call's arguments and result.
``install`` patches, ``restore`` puts every original attribute object back.
Nothing inside ``src/`` knows about the tracer, so the untraced program is
exactly the program users run.

Self time of a span is its duration minus the durations of its direct
children; spans nest properly because the benchmark is single-threaded.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

# The 16 named convolutions of the default decoupled model with neighbour
# set {-1, 0}: 4 backbone convs, 6 head trunk convs and 6 head outputs.
CONV_NAMES = (
    "backbone.stem0", "backbone.stem1", "backbone.down0", "backbone.down1",
    "head.reg0", "head.reg1", "head.cls0", "head.cls1", "head.gen0", "head.gen1",
    "head.out_reg", "head.out_cls", "head.out_coarse", "head.out_bshift",
    "head.out_sshift", "head.out_lvlw",
)


class Tracer:
    """Records spans and counters while installed.

    ``run`` is the identifier shared by the spans of one closed-loop
    operation (a training step or a detect call); the caller sets it.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.run = 0
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # -- recording -----------------------------------------------------
    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.run])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        top = self._stack.pop()
        if top != idx:
            raise RuntimeError(f"span {self.spans[idx][0]!r} closed out of order")

    def count(self, name: str, value: float) -> None:
        self.counters[name] += value

    def _wrap(self, fn, name, counter=None, method_name=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name if method_name is None else method_name(args[0])
            idx = tracer.begin(span_name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
            if counter is not None:
                counter(tracer, args, kwargs, out)
            return out

        return traced

    # -- patching ------------------------------------------------------
    def install(self) -> None:
        """Patch every traced lookup site. Call :meth:`restore` afterwards."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, counter, method_name in _patch_sites():
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(raw.__func__, name, counter, method_name))
            else:
                new = self._wrap(raw, name, counter, method_name)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, new)

    def restore(self) -> None:
        """Put back every original attribute object, in reverse order."""
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- output --------------------------------------------------------
    def write_jsonl(self, path) -> None:
        """One JSON array per span: name, start_s, end_s, parent index, run id."""
        with open(path, "w", encoding="utf-8") as f:
            for name, start, end, parent, run in self.spans:
                f.write(json.dumps([name, start, end, parent, run]) + "\n")


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus its direct children's."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def aggregate(spans, keep_run=lambda run: True) -> dict[str, dict[str, float]]:
    """Per span name: total self seconds, total inclusive seconds, calls.

    Only spans whose run id passes ``keep_run`` are counted.
    """
    selfs = self_times(spans)
    agg: dict[str, dict[str, float]] = defaultdict(lambda: {"self": 0.0, "incl": 0.0, "calls": 0})
    for (name, start, end, _, run), s in zip(spans, selfs):
        if keep_run(run):
            a = agg[name]
            a["self"] += s
            a["incl"] += end - start
            a["calls"] += 1
    return dict(agg)


# ---------------------------------------------------------------------------
# counters computed from call arguments and results


def _conv_counter(tracer, args, kwargs, out):
    x, w = args[0], args[1]
    stride = args[3] if len(args) > 3 else kwargs.get("stride", 1)
    padding = args[4] if len(args) > 4 else kwargs.get("padding", 0)
    cin, h, wd = x.shape
    cout, _, k, _ = w.shape
    ho = (h + 2 * padding - k) // stride + 1
    wo = (wd + 2 * padding - k) // stride + 1
    tracer.count("ops.conv2d.flop", 2.0 * cout * cin * k * k * ho * wo)
    tracer.count("ops.conv2d.im2col_bytes", 8.0 * ho * wo * cin * k * k)


def _gather_counter(tracer, args, kwargs, out):
    tracer.count("ops.bilinear_gather.samples", len(args[2]))


def _gather_backward_counter(tracer, args, kwargs, out):
    tracer.count("ops.bilinear_gather_backward.samples", len(args[1]))


def _assign_counter(tracer, args, kwargs, out):
    tracer.count("training.n_positives", out.n_positives)


def _decode_counter(tracer, args, kwargs, out):
    tracer.count("inference.decode_detections.candidates", len(out))


def _nms_counter(tracer, args, kwargs, out):
    tracer.count("inference.nms.in", len(args[0]))
    tracer.count("inference.nms.out", len(out))


def _conv_layer_name(suffix):
    # ConvLayer parameters are named "<layer>.w" / "<layer>.b"
    return lambda layer: f"layers.{layer.w.name[:-2]}.{suffix}"


def _patch_sites():
    """``(owner, attribute, span name, counter, per-instance name)`` for every
    lookup site the program uses. Names bound with ``from .x import y`` are
    patched in the importing module, because that is where they are looked up."""
    from pointdet import inference, model, ops, training
    from pointdet.backbone import Backbone
    from pointdet.head import Head
    from pointdet.layers import ConvLayer
    from pointdet.model import DetectionModel
    from pointdet.optim import SGD

    return [
        (ops, "conv2d", "ops.conv2d", _conv_counter, None),
        (ops, "conv2d_backward", "ops.conv2d_backward", None, None),
        (ops, "bilinear_gather", "ops.bilinear_gather", _gather_counter, None),
        (ops, "bilinear_gather_backward", "ops.bilinear_gather_backward",
         _gather_backward_counter, None),
        (ConvLayer, "forward", None, None, _conv_layer_name("fwd")),
        (ConvLayer, "backward", None, None, _conv_layer_name("bwd")),
        (Backbone, "forward", "backbone.forward", None, None),
        (Backbone, "backward", "backbone.backward", None, None),
        (Head, "forward", "head.forward", None, None),
        (Head, "backward", "head.backward", None, None),
        (model, "collect_level", "head.collect_level", None, None),
        (model, "collect_level_backward", "head.collect_level_backward", None, None),
        (DetectionModel, "forward", "model.forward", None, None),
        (DetectionModel, "backward", "model.backward", None, None),
        (DetectionModel, "load", "checkpoint.load", None, None),
        (training, "generate_scene", "scenes.generate_scene", None, None),
        (training, "assign_samples", "training.assign_samples", _assign_counter, None),
        (training, "compute_losses", "training.compute_losses", None, None),
        (training, "giou_loss_grad_array", "geometry.giou_loss_grad_array", None, None),
        (training, "iou_matrix", "geometry.iou_matrix", None, None),
        (SGD, "step", "optim.SGD.step", None, None),
        (inference, "decode_detections", "inference.decode_detections", _decode_counter, None),
        (inference, "nms", "inference.nms", _nms_counter, None),
        (inference, "iou_matrix", "geometry.iou_matrix", None, None),
        (inference, "average_precision", "inference.average_precision", None, None),
    ]
