"""A minimal trainable U-Net: encoder/decoder with skip connections.

Topology for depth L and base channels B: each encoder level is one 3x3
conv + ReLU followed by 2x2 max pooling; the bottleneck is one conv; each
decoder level applies one 3x3 conv + ReLU over the matching encoder feature
and a 2x nearest upsample of the level below (``layers.decoder_conv_*``,
which never forms the upsample); a 1x1 conv + sigmoid gives the per-pixel
probability. Channel widths double per level from B. The net takes one
image channel in and gives one probability channel out.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import GeometryError
from . import layers


@dataclass(frozen=True)
class UNetSpec:
    depth: int = 3
    base_channels: int = 8

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError(f"depth must be >= 1, got {self.depth}")
        if self.base_channels < 1:
            raise ValueError(f"base_channels must be positive, got {self.base_channels}")


def parameter_shapes(spec: UNetSpec) -> dict[str, tuple[int, ...]]:
    """Parameter names and shapes in forward-execution order."""
    shapes: dict[str, tuple[int, ...]] = {}
    cin = 1
    for i in range(spec.depth):
        cout = spec.base_channels * (2**i)
        shapes[f"enc{i}.w"] = (cout, cin, 3, 3)
        shapes[f"enc{i}.b"] = (cout,)
        cin = cout
    cout = spec.base_channels * (2**spec.depth)
    shapes["mid.w"] = (cout, cin, 3, 3)
    shapes["mid.b"] = (cout,)
    for i in reversed(range(spec.depth)):
        skip = spec.base_channels * (2**i)
        up = spec.base_channels * (2 ** (i + 1))
        shapes[f"dec{i}.w"] = (skip, skip + up, 3, 3)
        shapes[f"dec{i}.b"] = (skip,)
    shapes["head.w"] = (1, spec.base_channels, 1, 1)
    shapes["head.b"] = (1,)
    return shapes


def init_weights(spec: UNetSpec, seed: int) -> dict[str, np.ndarray]:
    """Seeded init: weights uniform in +-sqrt(1/fan_in), biases zero."""
    rng = np.random.default_rng(seed)
    params: dict[str, np.ndarray] = {}
    for name, shape in parameter_shapes(spec).items():
        if name.endswith(".b"):
            params[name] = np.zeros(shape, dtype=np.float32)
        else:
            fan_in = int(np.prod(shape[1:]))
            a = float(np.sqrt(1.0 / fan_in))
            params[name] = rng.uniform(-a, a, size=shape).astype(np.float32)
    return params


@dataclass
class ForwardCache:
    spec: UNetSpec
    output_shape: tuple[int, ...]
    entries: dict


def check_weights(spec: UNetSpec, weights) -> None:
    """Raise GeometryError naming the layer of the first parameter of ``spec`` that is missing or misshapen."""
    for name, shape in parameter_shapes(spec).items():
        layer = name.split(".")[0]
        if name not in weights:
            raise GeometryError(f"missing parameter {name!r} for layer {layer!r}")
        got = tuple(weights[name].shape)
        if got != shape:
            kind = "bias" if name.endswith(".b") else "weight"
            raise GeometryError(f"layer {layer!r}: {kind} shape {got} does not match spec shape {shape}")


def _check_input(spec: UNetSpec, x: np.ndarray) -> None:
    if x.ndim != 4:
        raise GeometryError(f"input must be 4D (B, C, H, W), got shape {x.shape}")
    if x.shape[1] != 1:
        raise GeometryError(f"input has {x.shape[1]} channels, the net takes 1")
    h, w = x.shape[2], x.shape[3]
    for i in range(spec.depth):
        if (h >> i) % 2 or (w >> i) % 2:
            raise GeometryError(
                f"layer 'enc{i}.pool': spatial dims {(h >> i, w >> i)} not divisible by 2 "
                f"(input {(h, w)} must be divisible by 2^{spec.depth})"
            )


def fold_up_kernels(spec: UNetSpec, weights) -> tuple[np.ndarray, ...]:
    """Decoder level i's up-half phase kernels (``layers._fold_up``) at index i, read-only, for ``unet_forward``."""
    folded = tuple(layers._fold_up(weights[f"dec{i}.w"][:, spec.base_channels * (2**i) :]) for i in range(spec.depth))
    for w4 in folded:
        w4.flags.writeable = False
    return folded


def unet_forward(spec: UNetSpec, weights, x: np.ndarray, cache: bool = True, *, folded=None):
    """Run the net; returns (probabilities, cache for the backward pass).

    With ``cache=False`` (inference) no layer keeps a cache, the second value
    is None, the conv GEMMs run in row bands and ReLU and sigmoid write into
    the layer output they are given (see ``layers``). The probabilities have
    the same bytes either way. ``folded`` is ``fold_up_kernels(spec,
    weights)``, for weights that do not change between calls; without it each
    decoder level folds its kernel per call.
    """
    _check_input(spec, x)
    check_weights(spec, weights)
    entries: dict = {}

    def keep(key, result):
        out, entries[key] = result  # each cache is None when cache=False
        return out

    skips = []
    h = x
    for i in range(spec.depth):
        w, b = weights[f"enc{i}.w"], weights[f"enc{i}.b"]
        h = keep(f"enc{i}.conv", layers.conv2d_forward(h, w, b, cache=cache))
        h = keep(f"enc{i}.relu", layers.relu_forward(h, cache=cache))
        skips.append(h)
        h = keep(f"enc{i}.pool", layers.maxpool2_forward(h, cache=cache))
    h = keep("mid.conv", layers.conv2d_forward(h, weights["mid.w"], weights["mid.b"], cache=cache))
    h = keep("mid.relu", layers.relu_forward(h, cache=cache))
    for i in reversed(range(spec.depth)):
        w, b = weights[f"dec{i}.w"], weights[f"dec{i}.b"]
        w4 = folded[i] if folded is not None else None
        h = keep(f"dec{i}.conv", layers.decoder_conv_forward(skips[i], h, w, b, cache=cache, w4=w4))
        h = keep(f"dec{i}.relu", layers.relu_forward(h, cache=cache))
    h = keep("head.conv", layers.conv2d_forward(h, weights["head.w"], weights["head.b"], cache=cache))
    y = keep("head.sig", layers.sigmoid_forward(h, cache=cache))
    if not cache:
        return y, None
    return y, ForwardCache(spec=spec, output_shape=y.shape, entries=entries)


def unet_backward(spec: UNetSpec, cache: ForwardCache, grad_output: np.ndarray):
    """Backpropagate a gradient on the probabilities to every parameter."""
    if cache.spec != spec:
        raise GeometryError("cache was produced by a different net spec")
    if grad_output.shape != cache.output_shape:
        raise GeometryError(
            f"grad_output shape {grad_output.shape} does not match cached output {cache.output_shape}"
        )
    e = cache.entries
    grads: dict[str, np.ndarray] = {}
    g = layers.sigmoid_backward(e["head.sig"], grad_output)
    g, grads["head.w"], grads["head.b"] = layers.conv2d_backward(e["head.conv"], g)
    skip_grads = [None] * spec.depth
    for i in range(spec.depth):  # reverse of the forward decoder order
        g = layers.relu_backward(e[f"dec{i}.relu"], g)
        skip_grads[i], g, grads[f"dec{i}.w"], grads[f"dec{i}.b"] = layers.decoder_conv_backward(e[f"dec{i}.conv"], g)
    g = layers.relu_backward(e["mid.relu"], g)
    g, grads["mid.w"], grads["mid.b"] = layers.conv2d_backward(e["mid.conv"], g)
    for i in reversed(range(spec.depth)):
        g = layers.maxpool2_backward(e[f"enc{i}.pool"], g)
        g = g + skip_grads[i]
        g = layers.relu_backward(e[f"enc{i}.relu"], g)
        # Nothing reads the gradient of the image itself, so enc0's is not computed.
        g, grads[f"enc{i}.w"], grads[f"enc{i}.b"] = layers.conv2d_backward(e[f"enc{i}.conv"], g, input_grad=i > 0)
    return grads
