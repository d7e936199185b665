"""Architecture configuration: variant presets, validation, file I/O.

Config files are flat ``key = value`` text.  Lists are comma separated, the
permutation is a string over {L, G}, and an optional ``preset`` key names a
built-in variant whose fields serve as the base; every other key overrides
that base field-by-field.  ``#`` starts a comment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict, fields, replace

from .exceptions import GeometryError, ContractError, SvtrError

LOCAL = "L"
GLOBAL = "G"

_INT_KEYS = {"combined_dim", "charset_size", "input_h", "input_w", "max_label_len"}
_FLOAT_KEYS = {"mlp_ratio", "dropout_rate", "attn_dropout_rate"}
_LIST_LENGTHS = {"embed_dims": 3, "depths": 3, "heads": 3, "window": 2}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_field(key: str, value):
    """Reject a field value that is invalid on its own; ``SvtrConfig``
    checks how the fields combine."""
    if key in _LIST_LENGTHS:
        if len(value) != _LIST_LENGTHS[key]:
            raise ContractError(f"{key} needs {_LIST_LENGTHS[key]} entries, got {len(value)}")
        if not all(_is_int(v) for v in value):
            raise ContractError(f"{key} entries must be integers, got {value}")
        if min(value) < 1:
            raise ContractError(f"{key} entries must be positive, got {value}")
        if key == "window" and (value[0] % 2 == 0 or value[1] % 2 == 0):
            raise ContractError(f"window {value[0]}x{value[1]} must have odd sides")
    elif key in _INT_KEYS:
        low = 2 if key == "charset_size" else 1
        if not _is_int(value):
            raise ContractError(f"{key} must be an integer, got {value!r}")
        if value < low:
            raise ContractError(f"{key} must be at least {low}, got {value}")
    elif key in _FLOAT_KEYS and not _is_number(value):
        raise ContractError(f"{key} must be a number, got {value!r}")
    elif key == "mlp_ratio":
        if not 0.0 < value < math.inf:
            raise ContractError(f"mlp_ratio must be positive and finite, got {value}")
    elif key in _FLOAT_KEYS:
        if not 0.0 <= value < 1.0:
            raise ContractError(f"{key} must be in [0, 1), got {value}")
    elif key == "permutation":
        if any(k not in (LOCAL, GLOBAL) for k in value):
            raise ContractError(f"permutation entries must be L or G: {value}")


def _check_geometry(input_h: int, input_w: int):
    """The input sizes the backbone accepts: positive, height divisible by 16
    (two stride-2 embeddings and two height-halving merges), width by 4."""
    if input_h < 1 or input_w < 1 or input_h % 16 != 0 or input_w % 4 != 0:
        raise GeometryError(
            f"input {input_h}x{input_w} must be positive with height divisible by 16 "
            "and width divisible by 4")


@dataclass(frozen=True)
class SvtrConfig:
    """Full description of one backbone variant."""

    embed_dims: tuple[int, int, int] = (64, 128, 256)
    depths: tuple[int, int, int] = (3, 6, 3)
    heads: tuple[int, int, int] = (2, 4, 8)
    combined_dim: int = 192
    permutation: tuple[str, ...] = tuple("L" * 6 + "G" * 6)
    window: tuple[int, int] = (7, 11)
    mlp_ratio: float = 4.0
    charset_size: int = 37
    input_h: int = 32
    input_w: int = 128
    max_label_len: int = 25
    dropout_rate: float = 0.1
    attn_dropout_rate: float = 0.1

    def __post_init__(self):
        for f in fields(self):
            _check_field(f.name, getattr(self, f.name))
        if len(self.permutation) != sum(self.depths):
            raise ContractError(
                f"permutation length {len(self.permutation)} != total depth {sum(self.depths)}")
        if not math.isfinite(self.mlp_ratio * max(self.embed_dims)) or min(self.mlp_dims) < 1:
            raise ContractError(
                f"mlp_ratio {self.mlp_ratio} must give each of embed dims {self.embed_dims} "
                "an MLP width (the rounded product) that is finite and at least 1")
        for d, h in zip(self.embed_dims, self.heads):
            if d % h != 0:
                raise ContractError(f"embed dim {d} not divisible by head count {h}")
        if self.embed_dims[0] % 2 != 0:
            raise ContractError(f"first embed dim {self.embed_dims[0]} must be even")
        _check_geometry(self.input_h, self.input_w)
        if self.input_w // 4 < self.max_label_len:
            raise ContractError(
                f"input width {self.input_w} yields {self.input_w // 4} output positions, "
                f"fewer than max label length {self.max_label_len}")

    # -- derived geometry ---------------------------------------------------

    def stage_geometry(self, input_h: int | None = None, input_w: int | None = None):
        """Per-stage (height, width, channels) token grids."""
        h = self.input_h if input_h is None else input_h
        w = self.input_w if input_w is None else input_w
        _check_geometry(h, w)
        h, w = h // 4, w // 4
        geo = []
        for dim in self.embed_dims:
            geo.append((h, w, dim))
            h = (h + 1) // 2
        return geo

    @property
    def mlp_dims(self) -> tuple[int, ...]:
        """Per-stage MLP hidden width: mlp_ratio times the embed dim, rounded."""
        return tuple(int(round(self.mlp_ratio * d)) for d in self.embed_dims)

    def stage_permutation(self, stage: int) -> tuple[str, ...]:
        """Block kinds for one stage (0-based), sliced from the global list."""
        start = sum(self.depths[:stage])
        return self.permutation[start:start + self.depths[stage]]

    @property
    def seq_len(self) -> int:
        """Number of output positions (W/4)."""
        return self.input_w // 4

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        d = asdict(self)
        d["permutation"] = "".join(self.permutation)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "SvtrConfig":
        kw = dict(d)
        for key in (*_LIST_LENGTHS, "permutation"):
            kw[key] = tuple(kw[key])
        return cls(**kw)


PRESETS: dict[str, SvtrConfig] = {
    "svtr-t": SvtrConfig(),
    "svtr-s": SvtrConfig(embed_dims=(96, 192, 256), depths=(3, 6, 6), heads=(3, 6, 8),
                         combined_dim=192, permutation=tuple("L" * 8 + "G" * 7)),
    "svtr-b": SvtrConfig(embed_dims=(128, 256, 384), depths=(3, 6, 9), heads=(4, 8, 12),
                         combined_dim=256, permutation=tuple("L" * 8 + "G" * 10)),
    "svtr-l": SvtrConfig(embed_dims=(192, 256, 512), depths=(3, 9, 9), heads=(6, 8, 16),
                         combined_dim=384, permutation=tuple("L" * 10 + "G" * 11)),
    # Desk-scale config for tests and the overfit run; dropout off for determinism
    # headroom, width 64 so that 5-character labels stay CTC-feasible (2L+1 <= 16).
    "svtr-micro": SvtrConfig(embed_dims=(8, 16, 24), depths=(1, 1, 1), heads=(1, 2, 2),
                             combined_dim=16, permutation=tuple("LGL"),
                             input_h=16, input_w=64, max_label_len=5,
                             dropout_rate=0.0, attn_dropout_rate=0.0),
}


def parse_config_text(text: str, source: str = "<config>") -> SvtrConfig:
    """Parse the flat key-value schema, starting from an optional preset base."""
    values: dict = {}
    base = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ContractError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key == "preset":
            if value not in PRESETS:
                raise ContractError(f"{source}:{lineno}: unknown preset {value!r}")
            base = PRESETS[value]
            continue
        try:
            if key in _INT_KEYS:
                values[key] = int(value)
            elif key in _FLOAT_KEYS:
                values[key] = float(value)
            elif key in _LIST_LENGTHS:
                values[key] = tuple(int(v) for v in value.split(","))
            elif key == "permutation":
                values[key] = tuple(value.replace(",", "").upper())
            else:
                raise ContractError(f"unknown config key {key!r}")
            _check_field(key, values[key])
        except ValueError as exc:
            raise ContractError(f"{source}:{lineno}: {key}: {exc}") from None
        except ContractError as exc:
            raise ContractError(f"{source}:{lineno}: {exc}") from None
    try:
        return replace(base or SvtrConfig(), **values)
    except SvtrError as exc:
        raise type(exc)(f"{source}: {exc}") from None


def load_config(spec: str) -> SvtrConfig:
    """Resolve a preset name or a config file path."""
    if spec in PRESETS:
        return PRESETS[spec]
    try:
        with open(spec, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ContractError(f"unknown preset and unreadable config file: {spec} ({exc})") from exc
    return parse_config_text(text, source=spec)
