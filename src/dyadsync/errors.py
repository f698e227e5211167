"""Exception taxonomy shared across the package: one class per exit code.

``cli.main`` maps each class onto the exit code it documents:

- ``DyadsyncError``, exit 4: base class of the other four
- ``ConfigError``, exit 2: a model/training/CLI setting or argument is unusable
- ``DataError``, exit 3: a clip, manifest, checkpoint or predictions file is
  malformed, ambiguous or out of range
- ``ContractError``, exit 4: a caller broke an internal contract
- ``NumericalError``, exit 4: a value went non-finite

Every loader reads its file through :func:`read_input`, so a file it
cannot read is a ``DataError`` as well.  Every command makes its output
directory through :func:`output_dir`, so an ``--out`` that cannot be a
directory is a ``ConfigError`` naming it.
"""

import pathlib


class DyadsyncError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(DyadsyncError):
    """A configuration or argument lies outside its documented domain."""


class DataError(DyadsyncError):
    """Input data is malformed, ambiguous or violates a documented precondition."""


class ContractError(DyadsyncError):
    """An internal API contract was violated by the caller (e.g. operand shapes)."""


class NumericalError(DyadsyncError):
    """A computation produced non-finite values."""


def read_input(path, what: str, binary: bool = False):
    """The UTF-8 text, or the bytes, of the input file at pathlib ``path``;
    a missing, unreadable or non-UTF-8 file is a DataError naming it."""
    try:
        return path.read_bytes() if binary else path.read_text(encoding="utf-8")
    except (FileNotFoundError, NotADirectoryError):
        raise DataError(f"{what} not found: {path}") from None
    except OSError as exc:  # a directory, or no permission to read
        raise DataError(f"{path}: cannot read {what} ({exc.strerror})") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: {what} is not UTF-8 text ({exc})") from None


def output_dir(path) -> pathlib.Path:
    """The directory at ``path``, made with its parents if missing; a path
    that cannot be a directory is a ConfigError naming it."""
    path = pathlib.Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # an existing file, a path under one, or no permission
        raise ConfigError(f"{path}: cannot make the output directory ({exc.strerror})") from None
    return path
