"""Exception hierarchy shared by all exsearch modules.

Data-shaped failures (bad input files, infeasible worlds, schema violations)
derive from DataError; network/endpoint failures derive from EndpointError.
The CLI maps these onto distinct exit codes.
"""


class ExsearchError(Exception):
    """Base class for every error raised by this package."""


class DataError(ExsearchError):
    """Malformed or inconsistent input data."""


class SchemaError(DataError):
    """A JSONL record does not match its schema.

    Carries the 1-based line number of the offending record when known.
    """

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class InconsistentWeights(DataError):
    """The records of one example in a weighted file mix weight modes, or
    their normalized weights do not sum to 1."""


class MalformedAction(DataError):
    """A transcript action tag appeared without a usable payload."""


class DuplicateId(DataError):
    """Two corpus passages share the same id."""


class EmptyIndex(DataError):
    """Search was attempted against an index with no documents."""


class CorruptIndex(DataError):
    """An index file is unreadable or fails its integrity checks."""


class MalformedFile(DataError):
    """A JSON file (a world manifest, policy parameters) is unreadable or
    does not match its schema."""


class VersionMismatch(DataError):
    """An index file was written by an unsupported format version."""


class InfeasibleWorld(DataError):
    """Synthetic-world constraints cannot be satisfied."""


class NoDocuments(DataError):
    """Evidence extraction was asked to run over an empty document list."""


class UnrealizableTrajectory(DataError):
    """A stored trajectory cannot be reproduced under the current policy/retriever."""


class NarrowRecordHead(DataError):
    """A params file's record head has fewer outcomes than the documents a
    hop of the run may record from."""


class EnumerationTooLarge(DataError):
    """Exhaustive trajectory enumeration would exceed the configured cap."""

    def __init__(self, bound: int, cap: int):
        super().__init__(f"enumeration bound {bound} exceeds cap {cap}")
        self.bound = bound
        self.cap = cap


class MissingAnnotation(DataError):
    """An example lacks an annotation field required by the operation."""

    def __init__(self, field: str):
        super().__init__(f"example is missing required annotation: {field}")
        self.field = field


class EmptyGolds(DataError):
    """A metric was called with an empty gold-answer set."""


class UnknownId(DataError):
    """A prediction references an example id absent from the dataset."""


class EndpointError(ExsearchError):
    """A model endpoint failed after exhausting retries."""


class AuthError(EndpointError):
    """The endpoint rejected our credentials (or no API key is configured)."""


class Timeout(EndpointError):
    """The endpoint did not answer within the configured timeout."""


class LogprobsUnsupported(ExsearchError):
    """The endpoint cannot report token log-probabilities.

    Trainers catch this and fall back to reward-based weighting.
    """
