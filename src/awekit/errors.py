"""Exception types shared across the toolkit."""


class AwekitError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(AwekitError, ValueError):
    """A config or argument violates a documented invariant."""


class ShapeError(ValidationError):
    """Tensor / vector shapes are incompatible."""


class FormatError(AwekitError):
    """A file on disk is not in the expected format."""


class IntegrityError(FormatError):
    """A file parsed but its contents fail a checksum or consistency check."""


class IncompatibleModelError(FormatError):
    """A model file is structurally valid but does not match this build."""


class TooShortError(ValidationError):
    """An input sequence is shorter than the operation's minimum length."""


class MissingArtifactError(AwekitError):
    """A pipeline stage was invoked before its inputs were produced."""
