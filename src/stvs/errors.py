"""Exception hierarchy shared across the package.

Two broad failure classes map onto the CLI exit codes: bad inputs
(exit 1) and numerical/algorithmic failures mid-pipeline (exit 2).
``stage`` names the pipeline stage a failure came from.
"""


class StvsError(Exception):
    """Base class for all package errors."""


class ValidationError(StvsError):
    """Input data, schema or configuration is invalid."""


class WindowSampleError(ValidationError):
    """Invalid input that rests on a sample of the analysis window, so no
    later row of a stream whose window start is fixed can mend it."""


class ComputationError(StvsError):
    """A pipeline stage failed on otherwise valid input."""


def stage(name: str, fn, *args, **kwargs):
    """``fn(*args, **kwargs)``, re-raising a validation or computation
    failure with ``[name]`` before its message."""
    try:
        return fn(*args, **kwargs)
    except (ValidationError, ComputationError) as exc:
        raise type(exc)(f"[{name}] {exc}") from exc
