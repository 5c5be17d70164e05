"""Exception hierarchy shared across the toolkit."""


class FlowgraphError(Exception):
    """Base class for all toolkit errors."""


class MissingColumn(FlowgraphError):
    """CSV header does not provide a required column for the declared schema."""


class MalformedRow(FlowgraphError):
    """A data row violates the flow-record invariants.

    Carries the 1-based data row index (header excluded).
    """

    def __init__(self, row_index: int, reason: str):
        super().__init__(f"row {row_index}: {reason}")
        self.row_index = row_index
        self.reason = reason


class EmptyCapture(FlowgraphError):
    """A flow CSV holds no accepted flow, so no snapshot can be built."""


class NonPositiveWidth(FlowgraphError):
    """Snapshot width must be finite, > 0 and wide enough that window bounds stay distinct."""


class NonPositiveParameter(FlowgraphError):
    """A numeric parameter that must be > 0 was not."""


class AssignmentMismatch(FlowgraphError):
    """Cluster assignment does not cover exactly the normal nodes of the graph."""


class NonFiniteLoss(FlowgraphError):
    """Training produced a non-finite loss.

    Carries the epoch index at which the divergence was detected.
    """

    def __init__(self, epoch: int):
        super().__init__(f"non-finite loss at epoch {epoch}")
        self.epoch = epoch


class LengthMismatch(FlowgraphError):
    """Two per-snapshot sequences that must correspond 1:1 differ in length."""


class OutOfMemory(FlowgraphError):
    """A stage raised `MemoryError`: an allocation larger than the process may hold."""


class MalformedArtefact(FlowgraphError):
    """A file one stage wrote for another does not have the writer's layout."""
