"""Exception hierarchy for the :mod:`repro` library.

Every error raised deliberately by the library derives from
:class:`ReproError`, so callers can catch one type to handle all library
failures while letting genuine programming errors propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SchemaError(ReproError):
    """A schema is malformed or an object refers to an unknown relation,
    attribute, or has the wrong arity."""


class DomainError(ReproError):
    """A value does not belong to the domain of the attribute it is used in."""


class QueryError(ReproError):
    """A query is malformed (unknown relation, arity mismatch, unsafe head
    variable, unbound variable in a comparison, ...)."""


class UnsatisfiableQueryError(QueryError):
    """Raised when an operation requires a satisfiable query but the query's
    equality atoms are contradictory (e.g. ``x = 'a' AND x = 'b'``)."""


class ConstraintError(ReproError):
    """A containment or integrity constraint is malformed."""


class EvaluationError(ReproError):
    """A query could not be evaluated over the given instance."""


class ParseError(ReproError):
    """The textual query/constraint syntax could not be parsed.

    Carries the position of the offending token — ``line``/``column``
    (1-based) plus the absolute character ``offset`` and token ``length``
    — so tools like ``repro lint`` can render a caret under the exact
    span.  The position is also folded into the message.
    """

    def __init__(self, message: str, line: int | None = None,
                 column: int | None = None, offset: int | None = None,
                 length: int = 1) -> None:
        location = ""
        if line is not None:
            location = f" at line {line}"
            if column is not None:
                location += f", column {column}"
            if offset is not None:
                location += f" (offset {offset})"
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column
        self.offset = offset
        self.length = length


class BundleError(ReproError):
    """A problem bundle file could not be read: it is missing or
    unreadable, is not JSON, or its top level is not a JSON object."""


class UndecidableConfigurationError(ReproError):
    """Raised when an exact decision procedure is invoked on a language
    combination the paper proves undecidable (FO or FP on either side).

    Callers who want a best-effort answer must explicitly use the bounded
    semi-decision procedures in :mod:`repro.core.bounded`.
    """


class AnalysisError(ReproError):
    """Static analysis (:mod:`repro.analysis`) found error-severity
    diagnostics in a decision procedure's inputs.

    The deciders run a fast-fail validation pass before searching; when
    the pass reports errors (schema mismatches, invalid constraints, …)
    they raise this exception instead of crashing mid-search or burning
    budget on a malformed instance.  The full
    :class:`~repro.analysis.Report` is attached as ``report``.
    """

    def __init__(self, message: str, *, report=None) -> None:
        super().__init__(message)
        self.report = report


class NotPartiallyClosedError(ReproError):
    """The database handed to RCDP does not satisfy the containment
    constraints, i.e. it is not partially closed w.r.t. ``(Dm, V)``."""


class WorkerPoolError(ReproError):
    """The parallel worker pool failed and could not recover.

    Raised by the shard supervisor when a worker reports an unexpected
    exception (a deterministic bug — retrying would reproduce it), when
    a poison shard exhausts its retries under ``on_poison="error"``, or
    when supervision is disabled and any worker dies.  A crashed worker
    means an unscanned slice of the search space, so no sound verdict
    can be assembled from the remaining shards.

    ``summary`` carries the one-line form (shard counts and reasons);
    the full message appends per-shard details such as worker
    tracebacks.  The CLI maps this error to its own exit code (4) and
    prints only the summary.
    """

    def __init__(self, summary: str, *, details: str = "") -> None:
        super().__init__(f"{summary}\n{details}" if details else summary)
        self.summary = summary
        self.details = details


class CorpusError(ReproError):
    """A scenario-corpus generation or run failure.

    Raised when a generated bundle fails its self-check (the oracle
    verdict disagrees with the scenario's target), when a corpus
    directory is missing or malformed, or when a run cannot be
    assembled."""


class DiversityError(CorpusError):
    """The corpus diversity gate tripped.

    Generation refuses to emit a sweep whose family / verdict /
    language-tier coverage has collapsed; the message lists every
    violated coverage requirement."""


class SearchBudgetExceededError(ReproError):
    """An exact decision procedure exceeded its configured search budget.

    The exact deciders solve problems that are Πᵖ₂- to NEXPTIME-complete;
    budgets keep runaway instances from hanging the caller.

    The exception does not discard the search's progress.  Attributes:

    ``reason``
        What tripped: ``"budget"``, ``"deadline"``, or ``"cancelled"``
        (injected faults report the condition they simulate).
    ``statistics``
        :class:`~repro.core.results.SearchStatistics` at the moment of
        interruption, when the raising procedure tracked them.
    ``partial_result``
        The structured ``EXHAUSTED`` result the procedure would have
        returned under ``on_exhausted="partial"`` (best-so-far data).
    ``checkpoint``
        A :class:`~repro.runtime.checkpoint.SearchCheckpoint` that the
        procedure's ``resume_from`` parameter accepts to continue the
        search under a fresh budget.
    """

    def __init__(self, message: str = "", *, reason: str = "budget",
                 statistics=None, partial_result=None,
                 checkpoint=None) -> None:
        super().__init__(message)
        self.reason = reason
        self.statistics = statistics
        self.partial_result = partial_result
        self.checkpoint = checkpoint


class ExecutionInterrupted(SearchBudgetExceededError):
    """Raised by :class:`~repro.runtime.governor.ExecutionGovernor` when a
    budget, deadline, cancellation token, or injected fault trips.

    Subclasses :class:`SearchBudgetExceededError` so existing callers that
    catch budget exhaustion transparently catch every governed stop
    condition.  Deciders intercept this exception in the hot loop, attach
    statistics and a checkpoint, and either re-raise it
    (``on_exhausted="error"``) or degrade to a structured ``EXHAUSTED``
    result (``on_exhausted="partial"``).
    """
