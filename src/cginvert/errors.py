"""Exception hierarchy shared across the package, and the on-disk store that
datasets and checkpoints share: a manifest.json plus little-endian float64
files, whose readers raise the caller's error class.

Exit-code mapping used by the CLI: ConfigError -> 2, DataError -> 3,
NumericalError -> 4, any other CgInvertError (WorkerError) -> 1.
"""

import json
import os

import numpy as np


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


class WorkerError(CgInvertError):
    """A training worker process could not start or ended without its
    result."""


def write_store(out_dir, manifest, arrays):
    """Create out_dir and write manifest as its manifest.json (keys sorted)
    and each {file name: array} of arrays as little-endian float64."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
    for name, values in arrays.items():
        values.astype("<f8").tofile(os.path.join(out_dir, name))


def read_manifest(path, error, fields):
    """Load the JSON object at path and check that every key of fields is
    present with a value of that type (bools never pass as ints).  A file
    that cannot be read, invalid JSON, a non-object, a missing key or a
    mistyped value raise error."""
    try:
        with open(path, "rb") as fh:
            manifest = json.load(fh)
    except OSError as exc:
        raise error(f"{path}: {exc.strerror}") from None
    except ValueError as exc:  # JSON or UTF-8 decoding
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


def read_f64(path, size, error, what):
    """The size little-endian float64 values of the file at path, which what
    names in the messages; a file that cannot be read, holds another number
    of values or a non-finite one raises error."""
    try:
        values = np.fromfile(path, dtype="<f8")
        nbytes = os.path.getsize(path)
    except OSError as exc:
        raise error(f"{what} {path}: {exc.strerror}") from None
    if nbytes != 8 * size:  # fromfile drops a trailing partial value
        raise error(f"{what} {path} has {nbytes} bytes, expected {8 * size} "
                    f"({size} float64 values)")
    if not np.isfinite(values).all():
        raise error(f"{what} {path} holds non-finite values")
    return values
