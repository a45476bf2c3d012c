"""Exception types shared across the package."""


class LidartrackError(Exception):
    """Base class for errors raised by this package."""


class ConfigError(LidartrackError):
    """Invalid configuration file or option value."""


class DatasetError(LidartrackError):
    """A sequence directory or record file could not be read.

    Carries the offending path and, where it applies, a line number so the
    message pinpoints the broken record.
    """

    def __init__(self, path, message, line=None):
        self.path = str(path)
        self.line = line
        where = self.path if line is None else f"{self.path}:{line}"
        super().__init__(f"{where}: {message}")


class GroundPlaneError(LidartrackError):
    """RANSAC could not produce a ground plane from the candidate points."""


class EvaluationError(LidartrackError):
    """The tracking score is undefined for the given inputs."""
