"""Parameter and multiply-accumulate audits for a config.

Parameter counts walk the same spec the model constructor uses, so the audit
and the checkpoint contents cannot drift apart.  FLOP counts sum per-layer
MACs (1 MAC = 1 FLOP under the ``mac`` convention, 2 under ``flop``) for
convolutions, attention projections, the two n^2 attention matmuls (masked
entries still counted: the mask is applied after the matmul), MLPs, and
linears.  The classifier is excluded from headline totals by default.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import SvtrConfig
from .model import parameter_spec


def _section(name: str) -> str:
    return name.split(".", 1)[0]


def param_breakdown(config: SvtrConfig) -> dict[str, int]:
    """Per-module parameter counts keyed by top-level section (incl. head)."""
    out: dict[str, int] = {}
    for spec in parameter_spec(config):
        n = 1
        for dim in spec.shape:
            n *= dim
        out[_section(spec.name)] = out.get(_section(spec.name), 0) + n
    return out


def count_params(config: SvtrConfig, include_classifier: bool = False) -> int:
    return sum(n for section, n in param_breakdown(config).items()
               if include_classifier or section != "head")


@dataclass(frozen=True)
class FlopEntry:
    name: str
    macs: int
    quadratic: bool  # True for the attention n^2 terms


@dataclass(frozen=True)
class FlopReport:
    input_h: int
    input_w: int
    entries: tuple[FlopEntry, ...]

    @property
    def total_macs(self) -> int:
        return sum(e.macs for e in self.entries)

    @property
    def total_flops(self) -> int:
        """2-FLOP convention (multiply + add counted separately)."""
        return 2 * self.total_macs

    @property
    def quadratic_macs(self) -> int:
        return sum(e.macs for e in self.entries if e.quadratic)


def count_flops(config: SvtrConfig, input_h: int | None = None,
                input_w: int | None = None,
                include_classifier: bool = False) -> FlopReport:
    ih = config.input_h if input_h is None else input_h
    iw = config.input_w if input_w is None else input_w
    geometry = config.stage_geometry(ih, iw)
    d0 = config.embed_dims[0]
    entries: list[FlopEntry] = []

    # Patch embedding: two stride-2 3x3 convs.
    h1, w1 = ih // 2, iw // 2
    entries.append(FlopEntry("embed.conv1", h1 * w1 * (d0 // 2) * 3 * 9, False))
    h2, w2 = ih // 4, iw // 4
    entries.append(FlopEntry("embed.conv2", h2 * w2 * d0 * (d0 // 2) * 9, False))

    for stage in range(3):
        h, w, d = geometry[stage]
        n = h * w
        hidden = config.mlp_dims[stage]
        depth = config.depths[stage]
        prefix = f"stage{stage + 1}"
        entries.append(FlopEntry(f"{prefix}.attn.qkv", depth * n * d * 3 * d, False))
        entries.append(FlopEntry(f"{prefix}.attn.qk", depth * n * n * d, True))
        entries.append(FlopEntry(f"{prefix}.attn.av", depth * n * n * d, True))
        entries.append(FlopEntry(f"{prefix}.attn.proj", depth * n * d * d, False))
        entries.append(FlopEntry(f"{prefix}.mlp", depth * 2 * n * d * hidden, False))
        if stage < 2:
            d_next = config.embed_dims[stage + 1]
            entries.append(FlopEntry(f"merge{stage + 1}.conv",
                                     (h // 2) * w * d_next * d * 9, False))

    h3, w3, d2 = geometry[2]
    entries.append(FlopEntry("combine.fc", w3 * d2 * config.combined_dim, False))
    if include_classifier:
        entries.append(FlopEntry("head", w3 * config.combined_dim * config.charset_size,
                                 False))
    return FlopReport(ih, iw, tuple(entries))
