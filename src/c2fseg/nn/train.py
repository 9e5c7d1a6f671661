"""Gradient-descent training of the segmentation net on 2D slice pairs."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import GeometryError, TrainingDivergedError
from ..volume import Slice2D
from .loss import dice_loss, dice_loss_grad
from .unet import UNetSpec, init_weights, unet_backward, unet_forward
from .weights import ModelWeights


@dataclass(frozen=True)
class FitParams:
    """Training hyperparameters. Runs are bit-reproducible for a fixed seed."""

    lr: float = 0.1
    epochs: int = 20
    batch: int = 8
    seed: int = 0
    momentum: float = 0.0

    def __post_init__(self):
        if self.lr < 0 or self.epochs < 0 or self.batch < 1:
            raise ValueError(f"invalid hyperparameters {self!r}")
        if not (0.0 <= self.momentum < 1.0):
            raise ValueError(f"momentum must lie in [0, 1), got {self.momentum}")


def _stack_dataset(dataset: list[tuple[Slice2D, Slice2D]]):
    if not dataset:
        raise ValueError("dataset is empty")
    dims = dataset[0][0].dims
    for img, lab in dataset:
        if img.dims != dims or lab.dims != dims:
            raise GeometryError(
                f"dataset slices are not geometry-uniform: found {img.dims}/{lab.dims}, expected {dims}"
            )
    x = np.stack([img.data for img, _ in dataset])[:, None, :, :].astype(np.float32)
    y = np.stack([lab.data for _, lab in dataset])[:, None, :, :].astype(np.float32)
    if ((y != 0) & (y != 1)).any():
        raise ValueError("label slices must be binary")
    return x, y


def fit(
    spec: UNetSpec, dataset: list[tuple[Slice2D, Slice2D]], hyper: FitParams
) -> tuple[ModelWeights, list[float]]:
    """Minimize the mean per-sample Dice loss by SGD.

    Returns the final weights and the per-epoch mean loss trace. The update
    steps with the batch-mean gradient; the trace reports the epoch mean of
    the per-sample losses, i.e. the training objective over the N samples.
    """
    x, y = _stack_dataset(dataset)
    n = x.shape[0]
    rng = np.random.default_rng(hyper.seed)
    params = init_weights(spec, seed=int(rng.integers(0, 2**31 - 1)))
    velocity = {k: np.zeros_like(v) for k, v in params.items()} if hyper.momentum else None

    trace: list[float] = []
    for epoch in range(hyper.epochs):
        order = rng.permutation(n)
        loss_sum = 0.0
        for start in range(0, n, hyper.batch):
            sel = order[start : start + hyper.batch]
            xb, yb = x[sel], y[sel]
            probs, cache = unet_forward(spec, params, xb)
            batch_loss = dice_loss(probs, yb)
            if not np.isfinite(batch_loss):
                raise TrainingDivergedError(epoch, batch_loss)
            loss_sum += batch_loss
            grads = unet_backward(spec, params, cache, dice_loss_grad(probs, yb))
            scale = hyper.lr / len(sel)
            for name, g in grads.items():
                if velocity is not None:
                    v = velocity[name]
                    v *= hyper.momentum
                    v += g / len(sel)
                    params[name] -= hyper.lr * v
                else:
                    params[name] -= scale * g
        trace.append(loss_sum / n)
    return ModelWeights(params), trace
