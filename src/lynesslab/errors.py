"""Shared exception types for the package."""


class DomainError(ValueError):
    """A point left the open positive orthant, or a formula hit a pole."""


class DimensionError(ValueError):
    """Operation undefined for this dimension or parity."""


class NoRootError(RuntimeError):
    """A root/level search exhausted its bracket without success."""


class DegenerateOrbitError(RuntimeError):
    """Orbit too degenerate (collapsed spread) for the requested estimate."""


class VerificationError(Exception):
    """A value the paper's theorems fix came out otherwise. Not a ValueError:
    the CLI reports it as a failed verification, exit code 1."""
