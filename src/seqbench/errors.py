"""Exception types shared across the toolkit.

Plain OS-level failures (missing file, file already exists, permission
denied) surface as the standard builtin exceptions; the classes here cover
conditions the standard library has no word for.
"""
from __future__ import annotations

__all__ = [
    "ToolkitError",
    "SizeParseError",
    "ConfigError",
    "DirectIoUnsupportedError",
    "DirectRequestError",
    "GeometryProbeError",
    "ExtentQueryError",
    "StreamTruncatedError",
    "CopyAbortedError",
    "ScenarioError",
    "VolumeUnsupportedError",
]


class ToolkitError(Exception):
    """Base class for every failure raised by this package."""


class SizeParseError(ToolkitError, ValueError):
    """A size string such as ``64K`` could not be understood."""


class ConfigError(ToolkitError, ValueError):
    """Command line arguments or a config object failed validation."""


class DirectIoUnsupportedError(ToolkitError, OSError):
    """The platform or filesystem refused to open a file with caching disabled."""


class DirectRequestError(ToolkitError, ValueError):
    """A cache-bypass transfer request violated alignment rules.

    ``violations`` lists every broken rule, not just the first one found,
    so callers can report the whole problem at once.
    """

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class GeometryProbeError(ToolkitError, OSError):
    """Sector geometry could not be determined; no sector size is assumed instead."""


class ExtentQueryError(ToolkitError, OSError):
    """The filesystem would not report the extent layout of a file."""


class StreamTruncatedError(ToolkitError, EOFError):
    """A typed binary stream ended in the middle of a value."""


class CopyAbortedError(ToolkitError):
    """An overlapped copy failed partway through.

    ``progress`` is a CopyReport describing how far the copy got before
    the abort.  The partially written destination has been deleted.
    """

    def __init__(self, message: str, progress):
        self.progress = progress
        super().__init__(message)


class ScenarioError(ToolkitError):
    """An end-to-end scenario step failed; the message names the step."""


class VolumeUnsupportedError(ToolkitError, OSError):
    """This host cannot build loopback scratch volumes."""
