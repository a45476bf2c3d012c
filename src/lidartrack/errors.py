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
        self.message = message
        self.line = line
        where = self.path if line is None else f"{self.path}:{line}"
        super().__init__(f"{where}: {message}")

    def __reduce__(self):
        # Rebuilt from its fields: self.args holds only the formatted text.
        return type(self), (self.path, self.message, self.line)


class EvaluationError(LidartrackError):
    """The tracking score is undefined for the given inputs."""
