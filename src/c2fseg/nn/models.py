"""Pluggable per-slice segmentation models.

Anything with ``predict(Slice2D)`` returning a float array of the slice's
dims, with values in [0, 1], plugs into the pipeline, which checks each
output. ThresholdModel is an analytic stand-in so the pipeline can be
exercised (and tested exactly) without any training.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

from ..volume import Slice2D
from .unet import UNetSpec, unet_forward
from .weights import ModelWeights


@runtime_checkable
class SegmentationModel(Protocol):
    def predict(self, s: Slice2D) -> np.ndarray: ...


@dataclass(frozen=True)
class ThresholdModel:
    """Predicts 1.0 where the input intensity is at least ``level``, else 0.0."""

    level: float

    def predict(self, s: Slice2D) -> np.ndarray:
        return (s.data >= self.level).astype(np.float32)


class UNetModel:
    """A trained net behind the SegmentationModel interface.

    Weights are immutable, so one instance may serve concurrent predict calls.
    """

    def __init__(self, spec: UNetSpec, weights: ModelWeights):
        self.spec = spec
        self.weights = weights

    def predict(self, s: Slice2D) -> np.ndarray:
        x = s.data[None, None, :, :].astype(np.float32)
        probs, _ = unet_forward(self.spec, self.weights, x, cache=False)
        return probs[0, 0]
