"""A minimal trainable U-Net: encoder/decoder with skip connections.

Topology for depth L and base channels B: each encoder level is one 3x3
conv + ReLU followed by 2x2 max pooling; the bottleneck is one conv; each
decoder level puts the matching encoder feature and a 2x nearest upsample
into one tensor and applies one conv + ReLU; a 1x1 conv + sigmoid gives the
per-pixel probability. Channel widths double per level from B.
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
    in_channels: int = 1
    out_channels: int = 1

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError(f"depth must be >= 1, got {self.depth}")
        if min(self.base_channels, self.in_channels, self.out_channels) < 1:
            raise ValueError("channel counts must be positive")


def parameter_shapes(spec: UNetSpec) -> dict[str, tuple[int, ...]]:
    """Parameter names and shapes in forward-execution order."""
    shapes: dict[str, tuple[int, ...]] = {}
    cin = spec.in_channels
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
    shapes["head.w"] = (spec.out_channels, spec.base_channels, 1, 1)
    shapes["head.b"] = (spec.out_channels,)
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
    input_shape: tuple[int, ...]
    output_shape: tuple[int, ...]
    entries: dict


def _get_param(weights, name: str, expected_shape, kind: str) -> np.ndarray:
    try:
        p = weights[name]
    except KeyError:
        raise GeometryError(f"missing parameter {name!r} for layer {name.split('.')[0]!r}") from None
    if tuple(p.shape) != tuple(expected_shape):
        raise GeometryError(
            f"layer {name.split('.')[0]!r}: {kind} shape {tuple(p.shape)} does not match spec shape {tuple(expected_shape)}"
        )
    return p


def _check_input(spec: UNetSpec, x: np.ndarray) -> None:
    if x.ndim != 4:
        raise GeometryError(f"input must be 4D (B, C, H, W), got shape {x.shape}")
    if x.shape[1] != spec.in_channels:
        raise GeometryError(f"input has {x.shape[1]} channels, spec expects {spec.in_channels}")
    h, w = x.shape[2], x.shape[3]
    for i in range(spec.depth):
        if (h >> i) % 2 or (w >> i) % 2:
            raise GeometryError(
                f"layer 'enc{i}.pool': spatial dims {(h >> i, w >> i)} not divisible by 2 "
                f"(input {(h, w)} must be divisible by 2^{spec.depth})"
            )


def unet_forward(spec: UNetSpec, weights, x: np.ndarray, cache: bool = True):
    """Run the net; returns (probabilities, cache for the backward pass).

    With ``cache=False`` (inference) each layer's cache is dropped as soon
    as the layer returns, so a conv's im2col columns are freed right after
    its GEMM, and the second value is None. The probabilities are the same
    either way.
    """
    _check_input(spec, x)
    shapes = parameter_shapes(spec)
    entries: dict = {}

    def keep(key, result):
        out, layer_cache = result
        if cache:
            entries[key] = layer_cache
        return out

    skips = []
    h = x
    for i in range(spec.depth):
        w = _get_param(weights, f"enc{i}.w", shapes[f"enc{i}.w"], "weight")
        b = _get_param(weights, f"enc{i}.b", shapes[f"enc{i}.b"], "bias")
        h = keep(f"enc{i}.conv", layers.conv2d_forward(h, w, b, name=f"enc{i}"))
        h = keep(f"enc{i}.relu", layers.relu_forward(h))
        skips.append(h)
        h = keep(f"enc{i}.pool", layers.maxpool2_forward(h, name=f"enc{i}.pool"))
    w = _get_param(weights, "mid.w", shapes["mid.w"], "weight")
    b = _get_param(weights, "mid.b", shapes["mid.b"], "bias")
    h = keep("mid.conv", layers.conv2d_forward(h, w, b, name="mid"))
    h = keep("mid.relu", layers.relu_forward(h))
    for i in reversed(range(spec.depth)):
        h = keep(f"dec{i}.cat", layers.upcat_forward(skips[i], h, name=f"dec{i}.cat"))
        w = _get_param(weights, f"dec{i}.w", shapes[f"dec{i}.w"], "weight")
        b = _get_param(weights, f"dec{i}.b", shapes[f"dec{i}.b"], "bias")
        h = keep(f"dec{i}.conv", layers.conv2d_forward(h, w, b, name=f"dec{i}"))
        h = keep(f"dec{i}.relu", layers.relu_forward(h))
    w = _get_param(weights, "head.w", shapes["head.w"], "weight")
    b = _get_param(weights, "head.b", shapes["head.b"], "bias")
    h = keep("head.conv", layers.conv2d_forward(h, w, b, name="head"))
    y = keep("head.sig", layers.sigmoid_forward(h))
    if not cache:
        return y, None
    return y, ForwardCache(spec=spec, input_shape=x.shape, output_shape=y.shape, entries=entries)


def unet_backward(spec: UNetSpec, weights, cache: ForwardCache, grad_output: np.ndarray):
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
        g, grads[f"dec{i}.w"], grads[f"dec{i}.b"] = layers.conv2d_backward(e[f"dec{i}.conv"], g)
        skip_grads[i], g = layers.upcat_backward(e[f"dec{i}.cat"], g)
    g = layers.relu_backward(e["mid.relu"], g)
    g, grads["mid.w"], grads["mid.b"] = layers.conv2d_backward(e["mid.conv"], g)
    for i in reversed(range(spec.depth)):
        g = layers.maxpool2_backward(e[f"enc{i}.pool"], g)
        g = g + skip_grads[i]
        g = layers.relu_backward(e[f"enc{i}.relu"], g)
        g, grads[f"enc{i}.w"], grads[f"enc{i}.b"] = layers.conv2d_backward(e[f"enc{i}.conv"], g)
    return grads
