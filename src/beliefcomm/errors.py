"""Exception types shared across the package."""


class BeliefCommError(Exception):
    """Base class for everything raised on purpose."""


class AlphabetMismatchError(BeliefCommError, ValueError):
    """Two objects that must live on the same finite alphabet do not."""


class SupportViolationError(BeliefCommError, ValueError):
    """A divergence or rate is infinite because support(p) is not inside support(q)."""


class EnumerationCapError(BeliefCommError, ValueError):
    """An exact enumeration would exceed the configured state budget."""


class NormalizationError(BeliefCommError, ValueError):
    """Probabilities drifted too far from summing to one to renormalize silently."""


class ConvergenceError(BeliefCommError, RuntimeError):
    """No slope up to SLOPE_MAX meets the budget; message has the last constraint."""


class InvariantViolationError(BeliefCommError, AssertionError):
    """A mathematical identity that must hold numerically did not."""


class BoundViolationError(BeliefCommError, AssertionError):
    """A proved distortion bound was exceeded; carries the offending instance.

    ``instance_json`` holds a serialized problem instance sufficient to replay
    the failure; ``case`` is that instance's index when a bank was checked.
    """

    def __init__(self, message: str, instance_json: dict | None = None,
                 case: int | None = None):
        super().__init__(message)
        self.instance_json = instance_json
        self.case = case


class ConfigError(BeliefCommError, ValueError):
    """Bad experiment configuration; ``pointer`` is a JSON-pointer-ish path."""

    def __init__(self, pointer: str, message: str):
        super().__init__(f"{pointer}: {message}")
        self.pointer = pointer
