"""Shared exception base so the CLI can catch domain errors in one place."""


class PackingLabError(Exception):
    """Base class for every domain error raised by this package."""


class ParameterError(PackingLabError, ValueError):
    """A numeric argument outside the range a computation accepts."""
