"""Exception types shared across the simulator.

Each error class maps to one failure contract of the public API, so tests
and callers can catch precisely what they expect.
"""


class FedTuneError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(FedTuneError):
    """Tensor operands have incompatible shapes."""


class ConfigurationError(FedTuneError):
    """Invalid model, adapter, or session configuration."""


class DataError(FedTuneError):
    """Malformed input data (bad token id, bad label, ...)."""


class TrainingError(FedTuneError):
    """Training-loop contract broken (e.g. missing gradient)."""


class ContractViolation(FedTuneError):
    """A caller violated an operation precondition (e.g. bad boundary)."""


class ProtocolError(FedTuneError):
    """Payload does not match the model it is applied to."""


class AggregationError(FedTuneError):
    """Client updates cannot be averaged (mismatched configs)."""


class SelectionError(FedTuneError):
    """Client selection request cannot be satisfied."""


class EvaluationError(FedTuneError):
    """Evaluation on an empty or invalid shard."""


class DecisionError(FedTuneError):
    """Trial decision requested without the required evaluations."""


class PartitionError(FedTuneError):
    """Dataset cannot be partitioned under the given constraints."""


class SplitError(FedTuneError):
    """Shard too small for a train/test split."""


class TraceParseError(FedTuneError):
    """An event or trace file that does not match ``trace.EVENTS``; names the line or field."""
