"""Exception hierarchy shared across the toolkit, and the config dataclasses' integer check."""

import numbers


def require_integers(config, *names: str) -> None:
    """ValueError unless each named field of `config` is an integer; a bool is not one."""
    for name in names:
        value = getattr(config, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")


class FlowgraphError(Exception):
    """Base class for all toolkit errors."""


class MissingColumn(FlowgraphError):
    """A CSV header names every column of neither flow schema, or of both."""


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
