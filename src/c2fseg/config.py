"""Flat key-value run configuration.

One ``key = value`` per line, ``#`` comments, no nesting. Each key names a
field of ``RunConfig`` or of one of its settings dataclasses, and an absent
key keeps that field's dataclass default. A value is parsed by the type and
arity of the default: ``Spacing`` takes 3 floats, dims 2 ints, scalars their
own type. Unknown or duplicated keys are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .nn.train import FitParams
from .nn.unet import UNetSpec
from .pipeline import PipelineConfig
from .volume import Spacing


@dataclass(frozen=True)
class RunConfig:
    pipeline: PipelineConfig = PipelineConfig()
    unet: UNetSpec = UNetSpec()
    train: FitParams = FitParams()
    nifti_depth_axis: str = "slowest"

    def __post_init__(self):
        axis = self.nifti_depth_axis
        if axis not in ("slowest", "fastest"):
            raise ValueError(f"nifti_depth_axis must be 'slowest' or 'fastest', got {axis!r}")


# RunConfig settings section -> the prefix of its fields' config keys.
_PREFIXES = {"pipeline": "", "unet": "unet_", "train": ""}

# config key -> (RunConfig section, field); section "" is RunConfig itself.
_KEYS = {
    **{f"{prefix}{f.name}": (section, f.name) for section, prefix in _PREFIXES.items()
       for f in fields(getattr(RunConfig, section))},
    "nifti_depth_axis": ("", "nifti_depth_axis"),
}


def _field(cfg: RunConfig, key: str):
    section, name = _KEYS[key]
    return getattr(getattr(cfg, section) if section else cfg, name)


def _parse_value(value: str, default):
    """Parse ``value`` into the type and arity of ``default``."""
    if not isinstance(default, (tuple, Spacing)):
        return type(default)(value)
    items = default.as_tuple() if isinstance(default, Spacing) else default
    parts = [p.strip() for p in value.split(",")]
    if len(parts) != len(items):
        raise ValueError(f"expected {len(items)} comma-separated values, got {value!r}")
    parsed = tuple(type(d)(p) for d, p in zip(items, parts))
    return Spacing(*parsed) if isinstance(default, Spacing) else parsed


def default_config() -> RunConfig:
    return RunConfig()


def parse_config(text: str) -> RunConfig:
    base = RunConfig()
    sections: dict[str, dict] = {s: {} for s in (*_PREFIXES, "")}
    seen: set[str] = set()
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw_line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _KEYS:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        seen.add(key)
        section, name = _KEYS[key]
        try:
            sections[section][name] = _parse_value(value, _field(base, key))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad value for {key!r}: {exc}") from None
    return RunConfig(
        **{s: replace(getattr(base, s), **fields) for s, fields in sections.items() if s},
        **sections[""],
    )


def load_config(path) -> RunConfig:
    return parse_config(Path(path).read_text())


def config_text(values: dict | None = None) -> str:
    """Render a config document (defaults unless overridden); parseable by parse_config."""
    base = RunConfig()
    merged = {key: _field(base, key) for key in _KEYS}
    if values:
        unknown = set(values) - set(_KEYS)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        merged.update(values)
    lines = []
    for key, v in merged.items():
        if isinstance(v, Spacing):  # float32-canonical: print the shortest float32 text
            v = tuple(np.float32(x) for x in v.as_tuple())
        if isinstance(v, tuple):
            lines.append(f"{key} = {', '.join(repr(x) if isinstance(x, float) else str(x) for x in v)}")
        else:
            lines.append(f"{key} = {v}")
    return "\n".join(lines) + "\n"
