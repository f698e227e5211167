"""JSON config objects: keys must be dataclass fields, values finite and of
the field's type; anything else is a ConfigError before a model is built."""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

from .errors import ConfigError

# JSON value types accepted per (string) field annotation; bool is refused apart
_JSON_TYPES = {"int": (int,), "float": (int, float), "str": (str,)}


def config_from_dict(cls, doc):
    """Build the config dataclass ``cls`` from a JSON object."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{cls.__name__} must be a JSON object, got {type(doc).__name__}")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    extra = set(doc) - set(fields)
    if extra:
        raise ConfigError(f"unknown {cls.__name__} keys: {sorted(extra)}")
    for name, value in doc.items():
        field = fields[name]
        if (isinstance(value, bool) or not isinstance(value, _JSON_TYPES[field.type])
                or isinstance(value, float) and not math.isfinite(value)):
            raise ConfigError(f"{cls.__name__}.{name} must be a finite {field.type}, got {value!r}")
    return cls(**doc)


def load_config(path, cls):
    """Read a config JSON file into ``cls``; every failure names the file."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config ({exc.strerror})") from None
    except ValueError as exc:  # bad JSON or a file that is not UTF-8 text
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None
    try:
        return config_from_dict(cls, doc)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
