"""Config validation, presets, geometry, and the flat text format."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from svtr.audit import count_flops, count_params
from svtr.config import PRESETS, SvtrConfig, load_config, parse_config_text
from svtr.exceptions import ContractError, GeometryError, SvtrError
from svtr.model import SvtrModel


def test_presets_construct():
    for name, config in PRESETS.items():
        assert sum(config.depths) == len(config.permutation), name


def test_variant_table():
    t = PRESETS["svtr-t"]
    assert t.embed_dims == (64, 128, 256)
    assert t.depths == (3, 6, 3)
    assert t.heads == (2, 4, 8)
    assert t.combined_dim == 192
    assert "".join(t.permutation) == "L" * 6 + "G" * 6
    lg = {name: "".join(PRESETS[name].permutation)
          for name in ("svtr-s", "svtr-b", "svtr-l")}
    assert lg == {"svtr-s": "L" * 8 + "G" * 7,
                  "svtr-b": "L" * 8 + "G" * 10,
                  "svtr-l": "L" * 10 + "G" * 11}


def test_stage_geometry_halves_height_keeps_width():
    geo = PRESETS["svtr-t"].stage_geometry()
    assert geo == [(8, 32, 64), (4, 32, 128), (2, 32, 256)]


def test_stage_permutation_slices():
    config = PRESETS["svtr-t"]
    assert config.stage_permutation(0) == ("L",) * 3
    assert config.stage_permutation(1) == ("L", "L", "L", "G", "G", "G")
    assert config.stage_permutation(2) == ("G",) * 3


def test_permutation_length_mismatch():
    with pytest.raises(ContractError):
        SvtrConfig(permutation=tuple("LG"))


def test_head_divisibility():
    with pytest.raises(ContractError):
        SvtrConfig(heads=(3, 4, 8))


def test_input_geometry_validation():
    with pytest.raises(GeometryError):
        dataclasses.replace(PRESETS["svtr-micro"], input_h=20)


def test_width_must_cover_max_label():
    with pytest.raises(ContractError):
        dataclasses.replace(PRESETS["svtr-micro"], input_w=16)


def test_even_window_rejected():
    with pytest.raises(ContractError):
        SvtrConfig(window=(6, 11))


def test_dict_roundtrip():
    for config in PRESETS.values():
        assert SvtrConfig.from_dict(config.to_dict()) == config


def format_config(config: SvtrConfig) -> str:
    """The config file text of ``config``: one ``key = value`` line per field."""
    lines = []
    for key, value in config.to_dict().items():
        if isinstance(value, (tuple, list)):
            value = ",".join(str(v) for v in value)
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def test_text_roundtrip():
    for config in PRESETS.values():
        assert parse_config_text(format_config(config)) == config


def test_parse_preset_with_override():
    config = parse_config_text("preset = svtr-t\ncharset_size = 11  # digits\n")
    assert config.charset_size == 11
    assert config.embed_dims == PRESETS["svtr-t"].embed_dims


def test_parse_rejects_unknown_key():
    with pytest.raises(ContractError):
        parse_config_text("fuzz = 1\n")


@pytest.mark.parametrize("text,line", [
    ("input_h = abc\n", 1),
    ("preset = svtr-micro\nembed_dims = 1,x,3\n", 2),
    ("# window\nwindow = 3\n", 2),
    ("mlp_ratio = nan\n", 1),
    ("dropout_rate = 2\n", 1),
    ("heads = 0,4,8\n", 1),
])
def test_parse_rejects_bad_values_naming_the_line(text, line):
    with pytest.raises(ContractError, match=f"^model.cfg:{line}: "):
        parse_config_text(text, source="model.cfg")


def test_parse_names_the_source_of_a_combined_error():
    with pytest.raises(ContractError, match="^model.cfg: permutation length"):
        parse_config_text("depths = 1,1,1\n", source="model.cfg")


@pytest.mark.parametrize("field", [
    dict(mlp_ratio=float("nan")), dict(mlp_ratio=float("inf")), dict(dropout_rate=2.0),
    dict(attn_dropout_rate=-0.1), dict(window=(3,)), dict(heads=(0, 4, 8)),
    dict(combined_dim=0), dict(max_label_len=-1), dict(embed_dims=(64.0, 128.0, 256.0)),
    dict(heads=(2, True, 8)), dict(window=(7.0, 11)), dict(input_w=128.0),
    dict(charset_size=True), dict(mlp_ratio=True), dict(dropout_rate=False),
    dict(attn_dropout_rate=True), dict(mlp_ratio="4"), dict(dropout_rate=None)])
def test_config_rejects_bad_values(field):
    with pytest.raises(ContractError):
        dataclasses.replace(PRESETS["svtr-t"], **field)


@pytest.mark.parametrize("geometry", [dict(input_h=0), dict(input_h=-16), dict(input_w=-4)])
def test_config_rejects_non_positive_geometry(geometry):
    with pytest.raises(SvtrError):
        dataclasses.replace(PRESETS["svtr-micro"], **geometry)


_KEYS = st.sampled_from([f.name for f in dataclasses.fields(SvtrConfig)] + ["preset", "x"])
_VALUES = st.one_of(
    st.text(max_size=10),
    st.integers(-20, 300).map(str),
    st.floats().map(str),
    st.lists(st.integers(-2, 40), max_size=4).map(lambda v: ",".join(map(str, v))),
    st.sampled_from([*PRESETS, "LGL", "lg, l"]))
_LINES = st.one_of(st.tuples(_KEYS, _VALUES).map(" = ".join), st.text(max_size=16))


@settings(max_examples=300, deadline=None)
@given(st.lists(_LINES, max_size=6).map("\n".join))
def test_parse_any_text_gives_a_config_or_a_typed_error(text):
    try:
        config = parse_config_text(text)
    except SvtrError:
        return
    assert isinstance(config, SvtrConfig)
    assert count_params(config) > 0
    assert count_flops(config).total_macs > 0


@pytest.mark.parametrize("ratio", ["1e308", "0.001", "0.06"])
def test_mlp_ratio_whose_width_is_not_finite_or_rounds_below_one_is_rejected(ratio):
    with pytest.raises(ContractError, match="mlp_ratio"):
        parse_config_text(f"preset = svtr-micro\nmlp_ratio = {ratio}\n")


def test_mlp_dims_round_the_ratio_times_each_embed_dim():
    config = dataclasses.replace(PRESETS["svtr-micro"], mlp_ratio=0.07)
    assert config.embed_dims == (8, 16, 24)
    assert config.mlp_dims == (1, 1, 2)
    model = SvtrModel(config, seed=0)
    assert model.params["stage1.block0.mlp.fc1.weight"].shape == (8, 1)
    images = np.zeros((1, 3, config.input_h, config.input_w), dtype=np.float32)
    assert model.forward(images).shape == (1, config.seq_len, config.charset_size)
    assert PRESETS["svtr-t"].mlp_dims == (256, 512, 1024)


def test_load_config_preset_and_file(tmp_path):
    assert load_config("svtr-s") == PRESETS["svtr-s"]
    path = tmp_path / "model.cfg"
    path.write_text(format_config(PRESETS["svtr-micro"]))
    assert load_config(str(path)) == PRESETS["svtr-micro"]
    with pytest.raises(ContractError):
        load_config("no-such-preset")
