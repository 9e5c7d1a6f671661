"""Gradient-descent training of the segmentation net on a stack of 2D (image, label) planes."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import GeometryError, TrainingDivergedError
from ..parallel import batch_threads
from .loss import dice_loss, dice_loss_grad
from .unet import UNetSpec, init_weights, unet_backward, unet_forward
from .weights import ModelWeights

# Samples per chunk of the label check in ``fit``.
_CHECK_SAMPLES = 16


@dataclass(frozen=True)
class FitParams:
    """Training hyperparameters. Runs are bit-reproducible for a fixed seed."""

    lr: float = 0.1
    epochs: int = 20
    batch: int = 8
    seed: int = 0
    momentum: float = 0.0

    def __post_init__(self):
        if not 0 <= self.lr < np.inf or self.epochs < 0 or self.batch < 1:
            raise ValueError(f"invalid hyperparameters {self!r}")
        if not (0.0 <= self.momentum < 1.0):
            raise ValueError(f"momentum must lie in [0, 1), got {self.momentum}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


def fit(spec: UNetSpec, dataset: np.ndarray, hyper: FitParams) -> tuple[ModelWeights, list[float]]:
    """Minimize the mean per-sample Dice loss by SGD on an (N, 2, H, W) set.

    ``dataset[k, 0]`` is sample k's image and ``dataset[k, 1]`` its 0/1 label,
    as ``pipeline.prepare_*_set`` build them. Returns the final weights and
    the per-epoch mean loss trace. The update steps with the batch-mean
    gradient; the trace reports the epoch mean of the per-sample losses,
    i.e. the training objective over the N samples.

    Raises ``TrainingDivergedError`` naming the epoch when a batch loss is
    not finite or an epoch's updates leave a parameter non-finite.

    Each batch runs on every usable CPU (``parallel.usable_cpus``), from a
    pool held for this call and joined when it returns or raises:
    ``unet_forward`` cuts the batch once into one contiguous chunk of
    samples per CPU, each chunk runs the whole net forward and then, in
    ``unet_backward``, the whole net backward. The sums over the batch run
    on the calling thread in one fixed order, so the weights and trace are
    byte-identical for any CPU count; ``taskset -c 0`` trains serially.
    """
    if not isinstance(dataset, np.ndarray) or dataset.ndim != 4 or dataset.shape[1] != 2:
        got = dataset.shape if isinstance(dataset, np.ndarray) else type(dataset).__name__
        raise GeometryError(f"dataset must be an (N, 2, H, W) array of image and label planes, got {got}")
    n = len(dataset)
    if n == 0:
        raise ValueError("dataset is empty")
    data = dataset.astype(np.float32, copy=False)
    x, y = data[:, :1], data[:, 1:]
    if not (np.isfinite(x.min()) and np.isfinite(x.max())):  # NaN and inf reach one of them; no temporary
        raise ValueError("image slices contain non-finite values")
    for lo in range(0, n, _CHECK_SAMPLES):  # a few samples at a time, so the masks stay small
        yc = y[lo : lo + _CHECK_SAMPLES]
        if ((yc != 0) & (yc != 1)).any():
            raise ValueError("label slices must be binary")
    rng = np.random.default_rng(hyper.seed)
    params = init_weights(spec, seed=int(rng.integers(0, 2**31 - 1)))
    velocity = {k: np.zeros_like(v) for k, v in params.items()} if hyper.momentum else None

    trace: list[float] = []
    with batch_threads():
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
                grads = unet_backward(cache, dice_loss_grad(probs, yb))
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
            bad = next((name for name, p in params.items() if not np.isfinite(p).all()), None)
            if bad is not None:  # an update overflowed; the next loss would show it, but there may be none
                raise TrainingDivergedError(epoch, trace[-1], parameter=bad)
    return ModelWeights(params), trace
