"""Exception types shared across the library."""


class LucidnetError(Exception):
    """Base class for all library errors."""


class InputShapeError(LucidnetError):
    """Input vector does not match the network's input dimension."""


class NonDifferentiableError(LucidnetError):
    """Reverse-mode derivatives requested on a step-activation network."""


class StaleReferenceError(LucidnetError):
    """An ElementRef addresses a tombstoned or nonexistent element."""


class IllegalModificationError(LucidnetError):
    """Attempted structural edit on a protected element (output neurons)."""


class DivergenceError(LucidnetError):
    """Training produced a non-finite loss or gradient.  ``epochs`` counts
    the ``train_epoch`` calls the training made, the raising one included."""

    def __init__(self, message, epochs=0):
        super().__init__(message)
        self.epochs = epochs


class NotTrainedError(LucidnetError):
    """Pruning requires a network that already satisfies its success criterion."""


class PoolExhausted(LucidnetError):
    """No candidates of the requested element class remain."""


class TransparencyError(LucidnetError):
    """Network violates the frozen-ternary precondition of rule extraction."""


class DatasetError(LucidnetError):
    """Malformed dataset file or assignment."""


class PipelineAbort(LucidnetError):
    """A pipeline stage failed its precondition."""

    def __init__(self, message, stages_completed):
        super().__init__(message)
        self.stages_completed = stages_completed


class UsageError(LucidnetError):
    """Bad command-line arguments or configuration."""
