"""Exception hierarchy shared across the toolkit.

Every error carries a human-readable message naming the offending path or
value, so CLI users can locate bad input without a debugger.
"""


class TracefaultError(Exception):
    """Base class for all toolkit errors."""


class MalformedJson(TracefaultError):
    """Input is not syntactically valid JSON / UTF-8."""


class SchemaViolation(TracefaultError):
    """JSON is well-formed but does not match the scenario schema."""


class InvariantViolation(TracefaultError):
    """Schema-valid input that breaks a semantic invariant."""


class NodeNotFound(TracefaultError):
    """A step id was requested that is not a node of the graph."""


class EmptyBenchmark(TracefaultError):
    """An aggregate was requested over zero scenarios/outcomes."""


class DegenerateTable(TracefaultError):
    """McNemar table with no discordant pairs."""


class MissingAnswers(TracefaultError):
    """Blind evaluation requested without an answer key."""


class VerificationFailed(TracefaultError):
    """A generated scenario failed a ground-truth verification check."""


class TemplateExhausted(TracefaultError):
    """A domain template could not host the sampled bug location."""


class AdapterFailure(TracefaultError):
    """The external completion adapter failed (process or I/O error)."""


class UnparseableCompletion(TracefaultError):
    """An adapter completion did not start with a step number."""
