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
import os
import struct
from pathlib import Path

import numpy as np

from .config import config_from_dict
from .csm_branch import CsmConfig, CsmModel
from .errors import ALLOCATION_ERRORS, ConfigError, DataError, NumericalError, reading
from .sttf import ModelConfig, SttfModel

_KINDS = {"sttf": (SttfModel, ModelConfig), "csm": (CsmModel, CsmConfig)}


def model_kind(model) -> str:
    for kind, (cls, _) in _KINDS.items():
        if isinstance(model, cls):
            return kind
    raise DataError(f"cannot checkpoint a {type(model).__name__}")


def _manifest(model) -> list:
    """The header's parameter manifest: each parameter's name and shape, in order."""
    return [{"name": name, "shape": list(value.shape)} for name, value in model.params.items()]


def save_model(model, path) -> None:
    """Write ``model`` to ``path``; a non-finite parameter writes nothing."""
    for name, value in model.params.items():
        if not np.isfinite(value.data).all():
            raise NumericalError(f"{path}: parameter {name!r} holds a non-finite value")
    header = {"kind": model_kind(model), "seed": model.seed,
              "config": dataclasses.asdict(model.config), "manifest": _manifest(model)}
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    with open(path, "wb") as fh:
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for _, value in model.params.items():
            fh.write(np.ascontiguousarray(value.data, dtype="<f8"))


def load_model(path):
    path = Path(path)
    with reading(path, "checkpoint"), open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size < 8:
            raise DataError(f"{path}: too short to hold a header length")
        (header_len,) = struct.unpack("<Q", fh.read(8))
        if size < 8 + header_len:
            raise DataError(f"{path}: truncated header")
        try:
            header = json.loads(fh.read(header_len).decode())
        except ValueError as exc:  # not UTF-8, bad JSON, or an integer beyond the digit limit
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
        seed = header["seed"]
        if type(seed) is not int or seed < 0:
            raise DataError(f"{path}: seed must be a non-negative integer, got {seed!r}")
        try:
            model = model_cls(config, seed=seed)
        except ALLOCATION_ERRORS:
            raise DataError(f"{path}: the header's model config is too large to allocate") from None
        # compared as JSON text, which tells 4, 4.0 and true apart and sees an extra key
        manifest = json.dumps(header["manifest"], sort_keys=True)
        if manifest != json.dumps(_manifest(model), sort_keys=True):
            raise DataError(f"{path}: manifest does not match the model's parameters")
        body = 8 * sum(value.data.size for _, value in model.params.items())
        if size - fh.tell() != body:
            raise DataError(f"{path}: parameters take {size - fh.tell()} bytes, expected {body}")
        for name, value in model.params.items():
            # read into the array that replaces it: the peak is the model plus one parameter
            values = np.empty(value.shape, dtype="<f8")
            if fh.readinto(values) != values.nbytes:
                raise DataError(f"{path}: truncated at parameter {name!r}")
            if not np.isfinite(values).all():
                raise DataError(f"{path}: parameter {name!r} holds a non-finite value")
            model.params.replace(name, values)
    return model
