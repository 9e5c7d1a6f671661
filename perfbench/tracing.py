"""Span tracing from outside the package, and the per-layer metrics built from it.

The package binds ``from x import y`` names at import time, so a wrapper is
installed on the module that makes the call (``c2fseg.pipeline``,
``c2fseg.nn.models``, ``c2fseg.nn.train``), never on the module that defines
the function. Spans stay in memory until the run ends. ``uninstall`` puts
every original back. A name that no longer exists is recorded as absent and
its metrics are left out instead of crashing the run.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

import numpy as np

import c2fseg.nn.layers
import c2fseg.nn.models
import c2fseg.nn.train
import c2fseg.pipeline


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    case: str
    attrs: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.case = ""
        self.installed: set[str] = set()  # span names with at least one wrapper in place
        self.absent: list[str] = []  # "module.attr" names that could not be wrapped
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, **attrs):
        """A span around a call made by the benchmark itself."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)
        self.spans[idx].attrs.update(attrs)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.case))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def wrap(self, module, attr: str, name, measure=None, provides=()) -> None:
        """Replace ``module.attr`` by a wrapper that records one span per call.

        ``name`` is a span name, or a function of the call's arguments that
        returns one of the names in ``provides``; ``measure(args, kwargs,
        result)`` returns attributes for the span.
        """
        orig = getattr(module, attr, None)
        if not callable(orig):
            self.absent.append(f"{module.__name__}.{attr}")
            return

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            idx = self._open(name(args, kwargs) if callable(name) else name)
            try:
                result = orig(*args, **kwargs)
            finally:
                self._close(idx)
            if measure is not None:
                self.spans[idx].attrs.update(measure(args, kwargs, result))
            return result

        setattr(module, attr, traced)
        self._patches.append((module, attr, orig))
        self.installed.update(provides if callable(name) else (name,))

    def uninstall(self) -> None:
        while self._patches:
            module, attr, orig = self._patches.pop()
            setattr(module, attr, orig)

    def write(self, path) -> None:
        with open(path, "w") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps({"i": i, **asdict(s)}) + "\n")


def _guard(fn):
    """Attribute extractors must never break the run they observe."""

    def safe(args, kwargs, result):
        try:
            return fn(args, kwargs, result)
        except (AttributeError, IndexError, KeyError, TypeError, ValueError):
            return {}

    return safe


def _resample_name(args, kwargs):
    mode = kwargs.get("mode", args[2] if len(args) > 2 else None)
    return "pipeline.map_back" if mode == "nearest" else "pipeline.resample"


@_guard
def _resample_attrs(args, kwargs, result):
    src = args[0].data
    if np.may_share_memory(src, result.data):
        return {}  # already on the target grid: the input is handed back, nothing is resampled
    return {"resampled": 1, "mb": src.nbytes / 1e6}


@_guard
def _label_attrs(args, kwargs, result):
    return {"fg_voxels": int(args[0].data.sum(dtype="int64"))}


@_guard
def _crop_attrs(args, kwargs, result):
    rec = result[1]
    pr, pc = rec.patch_dims
    top, bottom, left, right = rec.pad
    inside = (pr - top - bottom) * (pc - left - right)
    return {"px": pr * pc, "pad_px": pr * pc - inside}


@_guard
def _batch_attrs(args, kwargs, result):
    return {"batch": int(args[2].shape[0])}


@_guard
def _conv_fwd_attrs(args, kwargs, result):
    x, w = args[0], args[1]
    b, cin, h, wid = x.shape
    cout, _, kh, kw = w.shape
    k = cin * kh * kw
    return {"flop": 2 * b * cout * k * h * wid, "im2col_bytes": b * k * h * wid * x.itemsize}


@_guard
def _conv_bwd_attrs(args, kwargs, result):
    w, gy = args[0][1], args[1]
    b, cout, h, wid = gy.shape
    _, cin, kh, kw = w.shape
    return {"flop": 4 * b * cout * cin * kh * kw * h * wid}  # weight and input gradients


def install(tracer: Tracer) -> None:
    pl = c2fseg.pipeline
    tracer.wrap(
        pl, "resample_volume", _resample_name, _resample_attrs, provides=("pipeline.resample", "pipeline.map_back")
    )
    tracer.wrap(pl, "predict_coarse", "pipeline.coarse")
    tracer.wrap(pl, "build_guidance", "pipeline.guidance")
    tracer.wrap(pl, "predict_fine", "pipeline.fine")
    tracer.wrap(pl, "label_components", "components.label", _label_attrs)
    tracer.wrap(pl, "component_stats", "components.stats")
    tracer.wrap(pl, "resize_slice", "geometry.resize")
    tracer.wrap(pl, "unresize", "geometry.resize")
    tracer.wrap(pl, "crop_patch", "geometry.crop", _crop_attrs)
    tracer.wrap(pl, "uncrop_patch", "geometry.crop")
    tracer.wrap(pl, "extract_slices", "volume.extract")
    tracer.wrap(pl, "compose_slices", "volume.compose")
    tracer.wrap(pl, "binarize", "volume.binarize")
    tracer.wrap(c2fseg.nn.models, "unet_forward", "nn.models.forward", _batch_attrs)
    tracer.wrap(c2fseg.nn.train, "unet_forward", "nn.train.forward", _batch_attrs)
    tracer.wrap(c2fseg.nn.train, "unet_backward", "nn.unet.backward")
    tracer.wrap(c2fseg.nn.train, "dice_loss", "nn.loss")
    tracer.wrap(c2fseg.nn.train, "dice_loss_grad", "nn.loss")
    layers = c2fseg.nn.layers
    for attr, fn in sorted(vars(layers).items()):
        if attr.startswith("_") or not callable(fn) or getattr(fn, "__module__", "") != layers.__name__:
            continue
        measure = {"conv2d_forward": _conv_fwd_attrs, "conv2d_backward": _conv_bwd_attrs}.get(attr)
        tracer.wrap(layers, attr, f"nn.layers.{attr}", measure)


# Pipeline stage span -> model whose forwards run inside it.
_STAGE_MODEL = {"pipeline.coarse": "coarse", "pipeline.guidance": "abnormal", "pipeline.fine": "fine"}


def _layer_group(name: str) -> str | None:
    if not name.startswith("nn.layers."):
        return None
    fn = name[len("nn.layers.") :]
    if fn == "conv2d_forward":
        return "conv2d_fwd"
    if fn == "conv2d_backward":
        return "conv2d_bwd"
    return "other_bwd" if fn.endswith("_backward") else "other_fwd"


def per_layer_metrics(tracer: Tracer, items: int, abnormal: int, overhead_share: float) -> dict[str, float]:
    """Per-item sums (an item is one case or one training run) and ratios from the spans."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.dur
    tot: dict[str, float] = {}

    def add(key, v):
        tot[key] = tot.get(key, 0.0) + v

    for i, s in enumerate(spans):
        add(f"{s.name}.s", s.dur)
        add(f"{s.name}.self_s", s.dur - child_time[i])
        add(f"{s.name}.calls", 1)
        for k, v in s.attrs.items():
            add(f"{s.name}.{k}", v)
        if s.attrs.get("resampled"):
            add(f"{s.name}.resampled_s", s.dur)
        group = _layer_group(s.name)
        if group:
            add(f"layers.{group}.s", s.dur)
            add(f"layers.{group}.calls", 1)
        if s.name == "nn.models.forward":
            p = s.parent
            while p >= 0 and spans[p].name not in _STAGE_MODEL:
                p = spans[p].parent
            if p >= 0:
                stage = _STAGE_MODEL[spans[p].name]
                add(f"models.{stage}.s", s.dur)
                add(f"models.{stage}.slices", s.attrs.get("batch", 0))

    def get(key):
        return tot.get(key, 0.0)

    def per_item(key):
        return get(key) / items

    def rate(num, den):
        return num / den if den > 0 else 0.0

    fwd_calls = get("nn.models.forward.calls") + get("nn.train.forward.calls")
    fwd_batch = get("nn.models.forward.batch") + get("nn.train.forward.batch")
    metrics = {
        "pipeline.abnormal_share": abnormal / items,
        "pipeline.prepare.s": per_item("pipeline.prepare.s"),
        "components.label.calls": per_item("components.label.calls"),
        "components.label.s": per_item("components.label.s"),
        "components.label.fg_voxels": per_item("components.label.fg_voxels"),
        "components.label.mvox_per_s": rate(get("components.label.fg_voxels") / 1e6, get("components.label.s")),
        "components.stats.s": per_item("components.stats.s"),
        "geometry.resample.trilinear.s": per_item("pipeline.resample.resampled_s"),
        "geometry.resample.nearest.s": per_item("pipeline.map_back.resampled_s"),
        "geometry.resample.mb": (get("pipeline.resample.mb") + get("pipeline.map_back.mb")) / items,
        "geometry.resize.calls": per_item("geometry.resize.calls"),
        "geometry.resize.s": per_item("geometry.resize.s"),
        "geometry.crop.calls": per_item("geometry.crop.calls"),
        "geometry.crop.s": per_item("geometry.crop.s"),
        "geometry.crop.pad_share": rate(get("geometry.crop.pad_px"), get("geometry.crop.px")),
        "volume.extract.s": per_item("volume.extract.s"),
        "volume.compose.s": per_item("volume.compose.s"),
        "volume.binarize.s": per_item("volume.binarize.s"),
        "nn.unet.forward.s": (get("nn.models.forward.s") + get("nn.train.forward.s")) / items,
        "nn.unet.forward.calls": fwd_calls / items,
        "nn.unet.forward.batch_mean": rate(fwd_batch, fwd_calls),
        "nn.unet.backward.s": per_item("nn.unet.backward.s"),
        "nn.layers.conv2d_fwd.s": per_item("layers.conv2d_fwd.s"),
        "nn.layers.conv2d_fwd.calls": per_item("layers.conv2d_fwd.calls"),
        "nn.layers.conv2d_fwd.gflop": get("nn.layers.conv2d_forward.flop") / 1e9 / items,
        "nn.layers.conv2d_fwd.gflop_per_s": rate(get("nn.layers.conv2d_forward.flop") / 1e9, get("layers.conv2d_fwd.s")),
        "nn.layers.conv2d_bwd.s": per_item("layers.conv2d_bwd.s"),
        "nn.layers.conv2d_bwd.gflop": get("nn.layers.conv2d_backward.flop") / 1e9 / items,
        "nn.layers.im2col_mb": rate(get("nn.layers.conv2d_forward.im2col_bytes") / 1e6, get("layers.conv2d_fwd.calls")),
        "nn.layers.other_fwd.s": per_item("layers.other_fwd.s"),
        "nn.layers.other_bwd.s": per_item("layers.other_bwd.s"),
        "nn.train.fit.s": per_item("nn.train.fit.s"),
        "nn.train.update.self_s": per_item("nn.train.fit.self_s"),
        "nn.loss.s": per_item("nn.loss.s"),
        "fileio.read_nifti.s": per_item("fileio.read_nifti.s"),
        "fileio.read_nifti.mb": per_item("fileio.read_nifti.mb"),
        "fileio.write_volume.s": per_item("fileio.write_volume.s"),
        "trace.overhead_share": overhead_share,
    }
    for stage in ("resample", "coarse", "guidance", "fine", "map_back"):
        metrics[f"pipeline.{stage}.s"] = per_item(f"pipeline.{stage}.s")
        metrics[f"pipeline.{stage}.self_s"] = per_item(f"pipeline.{stage}.self_s")
    for model in ("coarse", "abnormal", "fine"):
        metrics[f"nn.models.{model}.slices"] = per_item(f"models.{model}.slices")
        metrics[f"nn.models.{model}.s"] = per_item(f"models.{model}.s")
    return {k: v for k, v in metrics.items() if _available(k, tracer.installed)}


# Spans the benchmark opens around its own calls; they cannot go missing.
BENCH_SPANS = {"case", "pipeline.prepare", "nn.train.fit", "fileio.read_nifti", "fileio.write_volume"}


def _available(metric: str, installed: set[str]) -> bool:
    """False when every span the metric is computed from could not be wrapped."""
    if metric.startswith("nn.layers.other"):
        return any(n.startswith("nn.layers.") for n in installed)
    sources = _sources(metric)
    return not sources or bool(sources & (installed | BENCH_SPANS))


def _sources(metric: str) -> set[str]:
    prefix = {
        "pipeline.abnormal_share": set(),
        "trace.overhead_share": set(),
        "geometry.resample.trilinear": {"pipeline.resample"},
        "geometry.resample.nearest": {"pipeline.map_back"},
        "geometry.resample.mb": {"pipeline.resample", "pipeline.map_back"},
        "nn.models": {"nn.models.forward"},
        "nn.unet.forward": {"nn.models.forward", "nn.train.forward"},
        "nn.train.update": {"nn.train.fit"},
        "nn.layers.conv2d_fwd": {"nn.layers.conv2d_forward"},
        "nn.layers.im2col_mb": {"nn.layers.conv2d_forward"},
        "nn.layers.conv2d_bwd": {"nn.layers.conv2d_backward"},
    }
    for p, names in prefix.items():
        if metric.startswith(p):
            return names
    return {metric.rsplit(".", 1)[0]}
