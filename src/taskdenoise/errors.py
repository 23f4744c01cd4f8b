"""Exception hierarchy shared across the package.

Every error the CLI can surface carries a short machine-parsable ``code``
so callers can dispatch on failure class without parsing prose.
"""


class TaskDenoiseError(Exception):
    """Base class for all package errors."""

    code = "error"
    exit_code = 1


class InvalidShapeError(TaskDenoiseError):
    """Tensor extents incompatible with the requested operation."""

    code = "invalid-shape"
    exit_code = 4


class InvalidLabelError(TaskDenoiseError):
    """A label value falls outside the valid class range."""

    code = "invalid-label"
    exit_code = 4


class InvalidSpecError(TaskDenoiseError):
    """A noise / dataset / network / scheme spec violates its invariants."""

    code = "invalid-spec"
    exit_code = 2


class InvalidInputError(TaskDenoiseError):
    """Input values violate an operation's preconditions (e.g. negative pixels)."""

    code = "invalid-input"
    exit_code = 4


class TrainingDivergedError(TaskDenoiseError):
    """Training produced a non-finite loss."""

    code = "training-diverged"
    exit_code = 6

    def __init__(self, epoch: int, step: int):
        self.epoch = epoch
        self.step = step
        super().__init__(f"loss became non-finite at epoch {epoch}, step {step}")


class FormatError(TaskDenoiseError):
    """A serialized artifact (tensor file, checkpoint, dataset) is malformed."""

    code = "format-error"
    exit_code = 3

    def __init__(self, path, offset: int, message: str):
        self.path = str(path)
        self.offset = offset
        super().__init__(f"{path}: byte {offset}: {message}")


class ConfigError(TaskDenoiseError):
    """Experiment config failed to parse or validate."""

    code = "config-error"
    exit_code = 2


class CheckpointError(TaskDenoiseError):
    """A required checkpoint is missing or unreadable."""

    code = "missing-checkpoint"
    exit_code = 5
