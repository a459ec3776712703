"""Exception types shared across the package."""


class RpoptError(Exception):
    """Base class for package-specific failures."""


class DataFormatError(RpoptError, ValueError):
    """A data file is malformed (bad header, bad row, bad magic number)."""


class InvalidRegimeError(RpoptError, ValueError):
    """Bound inputs violate a precondition of the regime being evaluated.

    The message names the violated inequality so callers can report it.
    """


class DivergenceError(RpoptError, RuntimeError):
    """Training produced a non-finite iterate or loss.

    Attributes:
        step: 1-indexed optimization step at which divergence was detected.
    """

    def __init__(self, step, message=None):
        self.step = step
        super().__init__(message or f"training diverged at step {step}")

    def __reduce__(self):
        # pickled (say, out of a job process) as its step and its message
        return type(self), (self.step, str(self))


class SingularityError(RpoptError, ValueError):
    """An operation was requested at a point where it is undefined
    (e.g. curvature of the robust loss at theta = 0)."""


class ExperimentError(RpoptError, RuntimeError):
    """An experiment stage failed; the message names the stage.  The output
    directory is left as it was before the run."""
