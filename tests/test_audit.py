"""Parameter and MAC audits against closed-form recomputation."""

import numpy as np
import pytest

from svtr.audit import count_flops, count_params, param_breakdown
from svtr.cli import PARAM_REFS
from svtr.config import PRESETS
from svtr.exceptions import GeometryError
from svtr.gradcheck import micro_config
from svtr.model import SvtrModel

PARAM_REFS_M = {name: ref / 1e6 for name, ref in PARAM_REFS.items()}


@pytest.mark.parametrize("name,ref", sorted(PARAM_REFS_M.items()))
def test_variant_param_totals_within_ten_percent(name, ref):
    total = count_params(PRESETS[name], include_classifier=False)
    assert abs(total - ref * 1e6) / (ref * 1e6) < 0.10, total


def test_count_matches_constructed_model():
    config = micro_config()
    model = SvtrModel(config)
    walked = sum(p.size for name, p in model.params.items()
                 if not name.startswith("head."))
    assert walked == count_params(config, include_classifier=False)
    walked_all = sum(p.size for p in model.params.values())
    assert walked_all == count_params(config, include_classifier=True)


def test_breakdown_sums_to_total():
    for config in PRESETS.values():
        breakdown = param_breakdown(config)
        assert sum(breakdown.values()) == count_params(config, include_classifier=True)


def test_block_param_closed_form():
    # per mixing block at width d: qkv d*3d+3d, proj d*d+d, two norms 2*2d,
    # mlp d*4d+4d + 4d*d+d totals 12d^2+13d
    breakdown = param_breakdown(PRESETS["svtr-t"])
    d = 64
    per_block = 12 * d * d + 13 * d
    assert breakdown["stage1"] == 3 * per_block


def test_flop_totals_positive_and_additive():
    report = count_flops(PRESETS["svtr-t"])
    assert report.total_macs == sum(e.macs for e in report.entries)
    assert report.total_flops == 2 * report.total_macs
    assert all(e.macs > 0 for e in report.entries)


def test_quadratic_entries_are_the_attention_matmuls():
    report = count_flops(PRESETS["svtr-t"])
    quad = {e.name for e in report.entries if e.quadratic}
    assert quad == {f"stage{s}.attn.{t}" for s in (1, 2, 3) for t in ("qk", "av")}


def test_flops_scale_with_width():
    # doubling input width doubles every linear term; the attention matmuls
    # grow fourfold
    narrow = count_flops(PRESETS["svtr-t"], input_w=64)
    wide = count_flops(PRESETS["svtr-t"], input_w=128)
    quad_n, quad_w = (sum(e.macs for e in r.entries if e.quadratic) for r in (narrow, wide))
    assert wide.total_macs - quad_w == 2 * (narrow.total_macs - quad_n)
    assert quad_w == 4 * quad_n


def test_svtr_t_macs_at_reference_geometry():
    report = count_flops(PRESETS["svtr-t"], input_h=32, input_w=100)
    assert 0.23e9 <= report.total_macs <= 0.35e9


def test_classifier_flops_optional():
    base = count_flops(PRESETS["svtr-t"])
    with_head = count_flops(PRESETS["svtr-t"], include_classifier=True)
    assert with_head.total_macs - base.total_macs == 32 * 192 * 37


@pytest.mark.parametrize("geometry", [dict(input_h=0), dict(input_h=-16), dict(input_h=18),
                                      dict(input_w=0), dict(input_w=-4), dict(input_w=6)])
def test_flops_reject_invalid_explicit_geometry(geometry):
    with pytest.raises(GeometryError):
        count_flops(PRESETS["svtr-t"], **geometry)
    with pytest.raises(GeometryError):
        PRESETS["svtr-t"].stage_geometry(**geometry)
