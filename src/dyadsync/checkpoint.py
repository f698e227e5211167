"""Model persistence: JSON header plus raw float64 parameter blobs.

Layout: an unsigned 64-bit little-endian header length, the UTF-8 JSON
header (kind, seed, config, and a parameter manifest with shapes), then
each parameter's float64 values little-endian in manifest order.  The
header is serialized with sorted keys and fixed separators so a model
rebuilt from the same seed and config saves to identical bytes.
"""

from __future__ import annotations

import dataclasses
import json
import struct
from pathlib import Path

import numpy as np

from .config import config_from_dict
from .csm_branch import CsmConfig, CsmModel
from .errors import ConfigError, DataError
from .sttf import ModelConfig, SttfModel

_KINDS = {"sttf": (SttfModel, ModelConfig), "csm": (CsmModel, CsmConfig)}


def model_kind(model) -> str:
    for kind, (cls, _) in _KINDS.items():
        if isinstance(model, cls):
            return kind
    raise DataError(f"cannot checkpoint a {type(model).__name__}")


def save_model(model, path) -> None:
    header = {
        "kind": model_kind(model),
        "seed": model.seed,
        "config": dataclasses.asdict(model.config),
        "manifest": [{"name": name, "shape": list(value.shape)}
                     for name, value in model.params.items()],
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    with open(path, "wb") as fh:
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for _, value in model.params.items():
            fh.write(np.ascontiguousarray(value.data, dtype="<f8").tobytes())


def _is_manifest_entry(entry) -> bool:
    return (isinstance(entry, dict) and isinstance(entry.get("name"), str)
            and isinstance(entry.get("shape"), list)
            and all(type(dim) is int for dim in entry["shape"]))


def load_model(path):
    path = Path(path)
    if not path.exists():
        raise DataError(f"checkpoint not found: {path}")
    raw = path.read_bytes()
    if len(raw) < 8:
        raise DataError(f"{path}: too short to hold a header length")
    (header_len,) = struct.unpack_from("<Q", raw)
    if len(raw) < 8 + header_len:
        raise DataError(f"{path}: truncated header")
    try:
        header = json.loads(raw[8:8 + header_len].decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError(f"{path}: bad checkpoint header: {exc}") from None
    if not isinstance(header, dict):
        raise DataError(f"{path}: checkpoint header must be a JSON object")
    for key in ("kind", "seed", "config", "manifest"):
        if key not in header:
            raise DataError(f"{path}: header missing {key!r}")
    if not isinstance(header["kind"], str) or header["kind"] not in _KINDS:
        raise DataError(f"{path}: unknown model kind {header['kind']!r}")
    model_cls, config_cls = _KINDS[header["kind"]]
    try:
        config = config_from_dict(config_cls, header["config"])
    except ConfigError as exc:
        raise DataError(f"{path}: bad model config in header: {exc}") from None
    seed, manifest = header["seed"], header["manifest"]
    if type(seed) is not int or seed < 0:
        raise DataError(f"{path}: seed must be a non-negative integer, got {seed!r}")
    if not isinstance(manifest, list) or not all(map(_is_manifest_entry, manifest)):
        raise DataError(f"{path}: manifest must be a list of {{'name', 'shape'}} entries")
    model = model_cls(config, seed=seed)

    manifest_names = [entry["name"] for entry in manifest]
    if manifest_names != model.params.names():
        raise DataError(f"{path}: manifest does not match the model's parameters")
    offset = 8 + header_len
    for entry in manifest:
        shape = tuple(entry["shape"])
        expected = model.params[entry["name"]].shape
        if shape != expected:
            raise DataError(f"{path}: {entry['name']} has shape {shape}, expected {expected}")
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        end = offset + 8 * count
        if end > len(raw):
            raise DataError(f"{path}: truncated at parameter {entry['name']!r}")
        values = np.frombuffer(raw, dtype="<f8", count=count, offset=offset)
        if not np.isfinite(values).all():
            raise DataError(f"{path}: parameter {entry['name']!r} holds a non-finite value")
        model.params.replace(entry["name"], values.reshape(shape).astype(np.float64))
        offset = end
    if offset != len(raw):
        raise DataError(f"{path}: {len(raw) - offset} trailing bytes after last parameter")
    return model
