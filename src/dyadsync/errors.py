"""Exception taxonomy shared across the package: one class per exit code.

Each class carries its exit code and the label ``cli.main`` prints it
under (``error (<label>): <message>``); a subclass inherits both:

- ``DyadsyncError``, exit 4 (``internal``): base class of the other four
- ``ConfigError``, exit 2 (``config``): a model/training/CLI setting or argument
  is unusable
- ``DataError``, exit 3 (``data``): a clip, manifest, checkpoint or predictions
  file is malformed, ambiguous or out of range
- ``ContractError``, exit 4: a caller broke an internal contract
- ``NumericalError``, exit 4: a value went non-finite

Every loader reads its file through :func:`read_input` or under
:func:`reading`, so a file it cannot read is a ``DataError`` as well.
Every command makes its output directory through :func:`output_dir`, so
an ``--out`` that cannot be a directory is a ``ConfigError`` naming it.
"""

import contextlib
import pathlib


class DyadsyncError(Exception):
    """Base class for all package-specific errors."""

    exit_code, label = 4, "internal"


class ConfigError(DyadsyncError):
    """A configuration or argument lies outside its documented domain."""

    exit_code, label = 2, "config"


class DataError(DyadsyncError):
    """Input data is malformed, ambiguous or violates a documented precondition."""

    exit_code, label = 3, "data"


class ContractError(DyadsyncError):
    """An internal API contract was violated by the caller (e.g. operand shapes)."""


class NumericalError(DyadsyncError):
    """A computation produced non-finite values."""


# what numpy raises for an array too large to allocate: a MemoryError, or a ValueError
# when its size is beyond the address space
ALLOCATION_ERRORS = (MemoryError, ValueError)


@contextlib.contextmanager
def reading(path, what: str):
    """Run the body, reading the input file at ``path``; a missing,
    unreadable or non-UTF-8 file is a DataError naming it."""
    try:
        yield
    except (FileNotFoundError, NotADirectoryError):
        raise DataError(f"{what} not found: {path}") from None
    except OSError as exc:  # a directory, or no permission to read
        raise DataError(f"{path}: cannot read {what} ({exc.strerror})") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: {what} is not UTF-8 text ({exc})") from None


def read_input(path, what: str) -> str:
    """The UTF-8 text of the input file at pathlib ``path``, read under :func:`reading`."""
    with reading(path, what):
        return path.read_text(encoding="utf-8")


def output_dir(path) -> pathlib.Path:
    """The directory at ``path``, made with its parents if missing; a path
    that cannot be a directory is a ConfigError naming it."""
    path = pathlib.Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # an existing file, a path under one, or no permission
        raise ConfigError(f"{path}: cannot make the output directory ({exc.strerror})") from None
    return path
