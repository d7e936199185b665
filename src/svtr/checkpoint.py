"""Binary checkpoint format.

Layout: 8-byte magic, u64 little-endian header length, UTF-8 JSON header,
then raw little-endian tensor payloads.  The header carries the producing
config, step, metrics, and a record per tensor (name, kind, dtype, shape,
offset, byte length, crc32).  Parameters and BatchNorm running stats are
stored as separate kinds so parameter audits can ignore buffers.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .config import SvtrConfig
from .exceptions import CheckpointError, CompatibilityError
from .model import SvtrModel

MAGIC = b"SVTRCKP\x01"
FORMAT_VERSION = 1


@dataclass
class CheckpointData:
    """A loaded checkpoint; its arrays are read-only views of the file bytes."""
    config: SvtrConfig
    step: int
    metrics: dict
    params: dict[str, np.ndarray]
    buffers: dict[str, np.ndarray]


def save_checkpoint(path, model, step: int = 0, metrics: dict | None = None):
    records = []
    payloads = []
    offset = 0

    def push(name, arr, kind):
        nonlocal offset
        raw = np.asarray(arr, dtype="<f4").tobytes()
        records.append({
            "name": name, "kind": kind, "dtype": "f4",
            "shape": list(arr.shape), "offset": offset,
            "nbytes": len(raw), "crc32": zlib.crc32(raw),
        })
        payloads.append(raw)
        offset += len(raw)

    for name, p in model.params.items():
        push(name, p.data, "param")
    for name, buf in model.buffers.items():
        push(name, buf, "buffer")

    header = json.dumps({
        "format_version": FORMAT_VERSION,
        "config": model.config.to_dict(),
        "step": step,
        "metrics": metrics or {},
        "tensors": records,
    }).encode("utf-8")

    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<Q", len(header)))
        fh.write(header)
        for raw in payloads:
            fh.write(raw)


HEADER_KEYS = ("config", "step", "metrics", "tensors")
RECORD_KEYS = ("name", "kind", "shape", "offset", "nbytes", "crc32")


def _require(path, obj, keys, what):
    if not isinstance(obj, dict):
        raise CheckpointError(f"{path}: {what} is not a JSON object")
    missing = [key for key in keys if key not in obj]
    if missing:
        raise CheckpointError(f"{path}: {what} lacks {', '.join(missing)}")


def load_checkpoint(path) -> CheckpointData:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:8] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
    if len(blob) < 16:
        raise CheckpointError(f"{path}: truncated before the header length")
    (header_len,) = struct.unpack("<Q", blob[8:16])
    try:
        header = json.loads(blob[16:16 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: corrupt header ({exc})") from exc
    _require(path, header, ("format_version",) + HEADER_KEYS, "header")
    if header["format_version"] != FORMAT_VERSION:
        raise CheckpointError(f"{path}: unsupported format version {header['format_version']}")
    # Tensors are read-only views of the file's bytes: the copy that a
    # model makes of each array when it is built is the only one.
    payload = memoryview(blob)[16 + header_len:]

    params: dict[str, np.ndarray] = {}
    buffers: dict[str, np.ndarray] = {}
    try:
        for rec in header["tensors"]:
            _require(path, rec, RECORD_KEYS, "tensor record")
            raw = payload[rec["offset"]:rec["offset"] + rec["nbytes"]]
            if len(raw) != rec["nbytes"]:
                raise CheckpointError(f"{path}: truncated payload for tensor {rec['name']}")
            if zlib.crc32(raw) != rec["crc32"]:
                raise CheckpointError(f"{path}: checksum mismatch for tensor {rec['name']}")
            arr = np.frombuffer(raw, dtype="<f4").reshape(rec["shape"])
            (buffers if rec["kind"] == "buffer" else params)[rec["name"]] = arr
        config = SvtrConfig.from_dict(header["config"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: malformed header ({exc!r})") from exc

    return CheckpointData(config=config, step=header["step"], metrics=header["metrics"],
                          params=params, buffers=buffers)


def check_compatible(expected: SvtrConfig, found: SvtrConfig):
    """Raise listing every differing field if the configs are not identical."""
    if expected == found:
        return
    a, b = expected.to_dict(), found.to_dict()
    diffs = [f"{key}: expected {a[key]!r}, checkpoint has {b[key]!r}"
             for key in a if a[key] != b[key]]
    raise CompatibilityError("config/checkpoint mismatch: " + "; ".join(diffs))


def restore_model(path, expected_config: SvtrConfig | None = None):
    """Build a model straight from a checkpoint's arrays."""
    data = load_checkpoint(path)
    if expected_config is not None:
        check_compatible(expected_config, data.config)
    return SvtrModel.from_state(data.config, data.params, data.buffers), data
