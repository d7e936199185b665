"""Checkpoint round-trips, corruption detection, and config compatibility."""

import dataclasses
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from svtr.audit import count_params
from svtr.checkpoint import (HEADER_KEYS, MAGIC, RECORD_KEYS, CheckpointData,
                             check_compatible, load_checkpoint, restore_model,
                             save_checkpoint)
from svtr.cli import main
from svtr.config import PRESETS
from svtr.exceptions import (CheckpointError, CompatibilityError, ContractError,
                             ShapeError, SvtrError)
from svtr.gradcheck import micro_config
from svtr.model import SvtrModel


@pytest.fixture()
def model():
    m = SvtrModel(micro_config(), seed=1)
    # give running stats non-trivial values so the buffer path is exercised
    m.forward(np.random.default_rng(0).uniform(size=(2, 3, 16, 32)).astype(np.float32))
    return m


def test_roundtrip_bit_exact(model, tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model, step=17, metrics={"loss": 1.5})
    data = load_checkpoint(path)
    assert data.step == 17
    assert data.metrics == {"loss": 1.5}
    assert data.config == model.config
    for name, p in model.params.items():
        np.testing.assert_array_equal(data.params[name], p.data)
    for name, buf in model.buffers.items():
        np.testing.assert_array_equal(data.buffers[name], buf)


def test_restore_model_forward_identical(model, tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model, step=1)
    restored, _ = restore_model(path)
    x = np.random.default_rng(1).uniform(size=(1, 3, 16, 32)).astype(np.float32)
    model.eval()
    restored.eval()
    np.testing.assert_array_equal(model.forward(x).data, restored.forward(x).data)


def test_restored_arrays_are_private_and_writable(model, tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model, step=0)
    restored, data = restore_model(path)
    for name, p in restored.params.items():
        assert p.data.flags.writeable
        assert not np.shares_memory(p.data, data.params[name])
    for name, buf in restored.buffers.items():
        assert buf.flags.writeable
        assert not np.shares_memory(buf, data.buffers[name])


def test_serialized_param_floats_match_audit(model, tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model, step=0)
    data = load_checkpoint(path)
    stored = sum(arr.size for arr in data.params.values())
    assert stored == count_params(model.config, include_classifier=True)


def test_payload_corruption_detected(model, tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model, step=0)
    blob = bytearray(path.read_bytes())
    blob[-1] ^= 0xFF  # flip one payload byte
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError) as exc:
        load_checkpoint(path)
    assert "checksum mismatch" in str(exc.value)


def test_bad_magic_detected(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"not a checkpoint at all")
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_config_mismatch_lists_fields(model, tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model, step=0)
    other = dataclasses.replace(micro_config(), combined_dim=32, charset_size=11)
    with pytest.raises(CompatibilityError) as exc:
        restore_model(path, expected_config=other)
    msg = str(exc.value)
    assert "combined_dim" in msg and "charset_size" in msg


def test_check_compatible_accepts_equal():
    check_compatible(micro_config(), micro_config())


def test_restore_draws_no_initialization(model, tmp_path, monkeypatch):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model, step=1)

    def no_draw(*args, **kwargs):
        raise AssertionError("restore drew a random initialization")
    monkeypatch.setattr(np.random, "default_rng", no_draw)
    restored, _ = restore_model(path)
    for name, p in model.params.items():
        np.testing.assert_array_equal(restored.params[name].data, p.data)
    for name, buf in model.buffers.items():
        np.testing.assert_array_equal(restored.buffers[name], buf)


def test_from_state_rejects_missing_and_misshapen_tensors(model):
    params = {name: p.data for name, p in model.params.items()}
    buffers = dict(model.buffers)
    del params["head.bias"]
    with pytest.raises(ContractError, match="head.bias"):
        SvtrModel.from_state(model.config, params, buffers)
    params["head.bias"] = np.zeros(3, dtype=np.float32)
    with pytest.raises(ShapeError, match="head.bias"):
        SvtrModel.from_state(model.config, params, buffers)
    params["head.bias"] = model.params["head.bias"].data
    del buffers["embed.bn1.running_var"]
    with pytest.raises(ContractError, match="embed.bn1.running_var"):
        SvtrModel.from_state(model.config, params, buffers)


@pytest.mark.parametrize("length", range(17))
def test_truncated_file_is_a_checkpoint_error(model, tmp_path, length):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model, step=0)
    path.write_bytes(path.read_bytes()[:length])
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def _rewrite_header(path, edit):
    blob = path.read_bytes()
    (length,) = struct.unpack("<Q", blob[8:16])
    header = json.loads(blob[16:16 + length])
    edit(header)
    raw = json.dumps(header).encode("utf-8")
    path.write_bytes(blob[:8] + struct.pack("<Q", len(raw)) + raw + blob[16 + length:])


@pytest.mark.parametrize("key", HEADER_KEYS)
def test_header_missing_key_is_a_checkpoint_error(model, tmp_path, key):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model, step=0)
    _rewrite_header(path, lambda header: header.pop(key))
    with pytest.raises(CheckpointError, match=key):
        load_checkpoint(path)


@pytest.mark.parametrize("key", RECORD_KEYS)
def test_record_missing_field_is_a_checkpoint_error(model, tmp_path, key):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model, step=0)
    _rewrite_header(path, lambda header: header["tensors"][3].pop(key))
    with pytest.raises(CheckpointError, match=key):
        load_checkpoint(path)


def _replace_header_bytes(path, raw):
    blob = path.read_bytes()
    (length,) = struct.unpack("<Q", blob[8:16])
    path.write_bytes(blob[:8] + struct.pack("<Q", len(raw)) + raw + blob[16 + length:])


def test_a_header_that_is_not_an_object_is_a_checkpoint_error(model, tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model, step=0)
    _replace_header_bytes(path, b"[]")
    with pytest.raises(CheckpointError) as exc:
        load_checkpoint(path)
    assert type(exc.value) is CheckpointError
    assert str(exc.value) == f"{path}: header is not a JSON object"


def test_a_tensor_record_that_is_not_an_object_is_a_checkpoint_error(model, tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model, step=0)
    _rewrite_header(path, lambda header: header["tensors"].__setitem__(3, [1, 2]))
    with pytest.raises(CheckpointError) as exc:
        load_checkpoint(path)
    assert type(exc.value) is CheckpointError
    assert str(exc.value) == f"{path}: tensor record is not a JSON object"


def test_an_unsupported_format_version_is_a_checkpoint_error(model, tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model, step=0)
    _rewrite_header(path, lambda header: header.update(format_version=99))
    with pytest.raises(CheckpointError) as exc:
        load_checkpoint(path)
    assert type(exc.value) is CheckpointError
    assert "unsupported format version 99" in str(exc.value)


def test_a_tensor_payload_cut_short_is_a_checkpoint_error(model, tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model, step=0)
    path.write_bytes(path.read_bytes()[:-1])
    with pytest.raises(CheckpointError) as exc:
        load_checkpoint(path)
    assert type(exc.value) is CheckpointError
    assert "truncated payload for tensor" in str(exc.value)


NON_INT_CONFIGS = [("embed_dims", [8.0, 16.0, 24.0]), ("depths", [1, True, 1]),
                   ("input_h", 16.0), ("max_label_len", True)]


@pytest.mark.parametrize("key,value", NON_INT_CONFIGS)
def test_non_integer_config_field_is_a_typed_error(model, tmp_path, key, value):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model, step=0)
    _rewrite_header(path, lambda header: header["config"].update({key: value}))
    with pytest.raises(SvtrError, match=key):
        load_checkpoint(path)


def _eval_with_config_field(tmp_path, capsys, key, value) -> str:
    """Standard error of ``svtr eval`` on a checkpoint whose header config
    sets ``key`` to ``value``; the command must fail with exit code 1."""
    data_dir = tmp_path / "data"
    assert main(["gen-data", "--out", str(data_dir), "--n", "2",
                 "--height", "16", "--width", "64"]) == 0
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, SvtrModel(PRESETS["svtr-micro"], seed=0), step=0)
    _rewrite_header(path, lambda header: header["config"].update({key: value}))
    capsys.readouterr()
    code = main(["eval", "--config", "svtr-micro", "--checkpoint", str(path),
                 "--data", str(data_dir)])
    assert code == 1
    return capsys.readouterr().err


def test_eval_of_a_float_embed_dims_checkpoint_is_one_error_line(tmp_path, capsys):
    err = _eval_with_config_field(tmp_path, capsys, "embed_dims", [8.0, 16.0, 24.0])
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "embed_dims" in err and "Traceback" not in err


def test_eval_of_a_bool_mlp_ratio_checkpoint_is_one_error_line(tmp_path, capsys):
    err = _eval_with_config_field(tmp_path, capsys, "mlp_ratio", True)
    assert err.startswith("error:") and len(err.splitlines()) == 1
    # Refused when the checkpoint loads, before any comparison with --config.
    assert "mlp_ratio must be a number" in err and "Traceback" not in err


@pytest.fixture(scope="module")
def micro_ckpt(tmp_path_factory):
    """A valid svtr-micro checkpoint's bytes, its header length, and a scratch path."""
    path = tmp_path_factory.mktemp("fuzz") / "m.ckpt"
    save_checkpoint(path, SvtrModel(PRESETS["svtr-micro"], seed=0), step=3,
                    metrics={"loss": 1.0})
    blob = path.read_bytes()
    (header_len,) = struct.unpack("<Q", blob[8:16])
    return blob, header_len, path


def _loads_or_typed_error(path, blob):
    path.write_bytes(blob)
    try:
        data = load_checkpoint(path)
    except SvtrError:
        return
    assert isinstance(data, CheckpointData)


@settings(max_examples=200, deadline=None)
@given(data=st.binary(max_size=96), magic=st.booleans())
def test_load_any_bytes_give_data_or_a_typed_error(micro_ckpt, data, magic):
    _, _, path = micro_ckpt
    _loads_or_typed_error(path, (MAGIC if magic else b"") + data)


@settings(max_examples=400, deadline=None)
@given(pick=st.data(), value=st.integers(0, 255))
def test_load_single_byte_mutation_gives_data_or_a_typed_error(micro_ckpt, pick, value):
    blob, header_len, path = micro_ckpt
    # Most positions land in the header, where a mutation can reach the parser.
    at = pick.draw(st.one_of(st.integers(0, 16 + header_len - 1),
                             st.integers(0, len(blob) - 1)))
    _loads_or_typed_error(path, blob[:at] + bytes([value]) + blob[at + 1:])
