"""Pluggable per-slice segmentation models.

Anything with ``predict(Slice2D) -> ProbMap2D`` of identical dims plugs into
the pipeline. ThresholdModel is an analytic stand-in so the pipeline can be
exercised (and tested exactly) without any training.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

from ..volume import ProbMap2D, Slice2D
from .unet import UNetSpec, unet_forward
from .weights import ModelWeights


@runtime_checkable
class SegmentationModel(Protocol):
    def predict(self, s: Slice2D) -> ProbMap2D: ...


@dataclass(frozen=True)
class ThresholdModel:
    """Predicts 1.0 where the input intensity is at least ``level``, else 0.0."""

    level: float

    def predict(self, s: Slice2D) -> ProbMap2D:
        return ProbMap2D(
            (s.data >= self.level).astype(np.float32), s.pixel_spacing, s.plane, s.index
        )


class UNetModel:
    """A trained net behind the SegmentationModel interface.

    Weights are immutable, so one instance may serve concurrent predict calls.
    """

    def __init__(self, spec: UNetSpec, weights: ModelWeights):
        self.spec = spec
        self.weights = weights

    def predict(self, s: Slice2D) -> ProbMap2D:
        x = s.data[None, None, :, :].astype(np.float32)
        probs, _ = unet_forward(self.spec, self.weights, x, cache=False)
        return ProbMap2D(probs[0, 0], s.pixel_spacing, s.plane, s.index)
