"""Pluggable per-slice segmentation models.

Anything with ``predict(plane)`` that takes one read-only float32 (H, W)
array and returns probabilities in [0, 1] of its shape plugs into the
pipeline, which checks each output. ThresholdModel is an analytic stand-in
so the pipeline can be exercised (and tested exactly) without any training.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .unet import UNetSpec, check_weights, fold_up_kernels, unet_forward
from .weights import ModelWeights


class SegmentationModel(Protocol):
    """One stage's model: ``predict`` maps one read-only float32 (H, W) plane to probabilities.

    The pipeline may call ``predict`` from several threads at once, each on a
    distinct plane of the same stack, so a model must be safe for that;
    ThresholdModel and UNetModel are. A stack goes through
    ``parallel.split_planes``: plane 0 runs on the caller's thread and is
    timed, and planes 1.. are cut into one chunk per usable CPU only if it
    took at least a millisecond and two or more planes remain; otherwise
    they run on the caller's thread too. Restricting the process to one CPU
    (``taskset -c 0``) makes every stack run serially.
    """

    def predict(self, plane: np.ndarray) -> np.ndarray: ...


@dataclass(frozen=True)
class ThresholdModel:
    """Predicts 1.0 where the input intensity is at least ``level``, else 0.0."""

    level: float

    def predict(self, plane: np.ndarray) -> np.ndarray:
        return (plane >= self.level).astype(np.float32)


class UNetModel:
    """A trained net behind the SegmentationModel interface.

    Weights and the decoder kernels folded from them at construction are
    read-only, so one instance may serve concurrent predict calls.
    Construction raises GeometryError if the weights do not fit ``spec``.
    """

    def __init__(self, spec: UNetSpec, weights: ModelWeights):
        check_weights(spec, weights)
        self.spec = spec
        self.weights = weights
        self._folded = fold_up_kernels(spec, weights)

    def predict(self, plane: np.ndarray) -> np.ndarray:
        x = np.asarray(plane, dtype=np.float32)[None, None]
        probs, _ = unet_forward(self.spec, self.weights, x, cache=False, folded=self._folded)
        return probs[0, 0]
