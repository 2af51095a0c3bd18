"""Exception types shared across the package, and the configs' field-type check."""

from dataclasses import fields


class SepcostError(Exception):
    """Base class for all library errors."""


class UnsupportedFormat(SepcostError):
    """Audio container or codec the reader does not handle."""


class CorruptFile(SepcostError):
    """File ends early or fails structural validation."""


class IoError(SepcostError):
    """Filesystem write failure."""


class SilentSignal(SepcostError):
    """Operation needs a non-silent signal (RMS above threshold)."""


class SignalTooShort(SepcostError):
    """Signal shorter than the minimum the operation can process."""


class ShapeError(SepcostError):
    """Operand dimensions are inconsistent."""


class NotScalar(SepcostError):
    """Gradient evaluation requires a scalar-valued output."""


class DegenerateScale(SepcostError):
    """Cost normalization received a zero or negative initial loss."""


class NoData(SepcostError):
    """Dataset directory contains no usable files."""


class NumericalDivergence(SepcostError):
    """Training produced a non-finite loss."""


class IncompatibleCheckpoint(SepcostError):
    """Checkpoint format version does not match this build."""


def check_field_types(cfg) -> None:
    """ValueError unless each field of the config dataclass `cfg` holds its annotated type; a bool is no number."""
    for field in fields(cfg):
        value = getattr(cfg, field.name)
        kind, _, optional = field.type.partition(" | ")
        types = {"int": int, "float": (int, float), "str": str}[kind]
        if not (value is None and optional == "None") and (isinstance(value, bool) or not isinstance(value, types)):
            raise ValueError(f"{field.name} must be of type {field.type}, got {value!r}")
