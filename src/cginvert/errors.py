"""Exception hierarchy shared across the package, and the typed manifest
reader that raises it.

Exit-code mapping used by the CLI: ConfigError -> 2, DataError -> 3,
NumericalError -> 4.
"""

import json


class CgInvertError(Exception):
    """Base class for all package errors."""


class ConfigError(CgInvertError):
    """Bad or missing configuration (unknown keys, invalid values)."""


class DataError(CgInvertError):
    """Dataset problems: missing files, fingerprint mismatch, bad shapes."""


class NumericalError(CgInvertError):
    """Numerical failure in a solver or training run."""


class DomainError(NumericalError):
    """An argument lies outside the domain of a regularizer."""


class LinesearchFailure(NumericalError):
    """Backtracking exhausted its halvings without sufficient decrease."""


class DivergenceError(NumericalError):
    """Iterates made the objective grow persistently (bad step size)."""


class NonMonotoneCostError(NumericalError):
    """Block-coordinate cost increased beyond floating-point slack."""


class NanLossError(NumericalError):
    """Training loss became non-finite."""

    def __init__(self, message, dump=None):
        super().__init__(message)
        self.dump = dump or {}


def read_manifest(path, error, fields):
    """Load the JSON object at path and check that every key of fields is
    present with a value of that type (bools never pass as ints).  Invalid
    JSON, a non-object, a missing key or a mistyped value raise error."""
    try:
        with open(path) as fh:
            manifest = json.load(fh)
    except json.JSONDecodeError as exc:
        raise error(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(manifest, dict):
        raise error(f"{path} holds a JSON {type(manifest).__name__}, not an object")
    for key, kind in fields.items():
        if key not in manifest:
            raise error(f"{path} lacks key {key!r}")
        value = manifest[key]
        if not isinstance(value, kind) or isinstance(value, bool):
            raise error(f"{path}: {key!r} should be {kind.__name__}, "
                        f"not {type(value).__name__}")
    return manifest
