"""Exception taxonomy shared across the package: one class per exit code.

``cli.main`` maps each class onto the exit code it documents:

- ``DyadsyncError``, exit 4: base class of the other four
- ``ConfigError``, exit 2: a model/training/CLI setting or argument is unusable
- ``DataError``, exit 3: a clip, manifest, checkpoint or predictions file is
  malformed, ambiguous or out of range
- ``ContractError``, exit 4: a caller broke an internal contract
- ``NumericalError``, exit 4: a value went non-finite
"""


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
