"""Exception hierarchy shared across the engine."""


class EligoError(Exception):
    """Base class for all engine errors."""


# -- corpus / catalog ---------------------------------------------------------

class SchemaError(EligoError):
    """A record does not match its file schema."""

    def __init__(self, message, *, line=None, field=None):
        detail = message
        if line is not None:
            detail = f"line {line}: {detail}"
        if field is not None:
            detail = f"{detail} (field {field!r})"
        super().__init__(detail)
        self.line = line
        self.field = field


class DuplicateIdError(EligoError):
    """Two records share an identifier that must be unique."""

    def __init__(self, kind, record_id):
        super().__init__(f"duplicate {kind} id {record_id!r}")
        self.record_id = record_id


class DanglingReferenceError(EligoError):
    """A record references an id that does not exist in the catalog."""

    def __init__(self, ref_id, where):
        super().__init__(f"unknown id {ref_id!r} referenced by {where}")
        self.ref_id = ref_id
        self.where = where


class CatalogError(EligoError):
    """Catalog-level invariant violation."""


# -- rule language ------------------------------------------------------------

class RuleParseError(EligoError):
    """Rule text does not conform to the grammar.

    Carries the bare message, a 1-based character position and a hint
    naming the expected token class.
    """

    def __init__(self, message, position, expected=None, criterion_id=None):
        loc = f"position {position}"
        if criterion_id is not None:
            loc = f"criterion {criterion_id!r}, {loc}"
        hint = f", expected {expected}" if expected else ""
        super().__init__(f"{loc}: {message}{hint}")
        self.message = message
        self.position = position
        self.expected = expected
        self.criterion_id = criterion_id

    def with_criterion(self, criterion_id):
        return RuleParseError(self.message, self.position, expected=self.expected,
                              criterion_id=criterion_id)


class MissingVerdictError(EligoError):
    """A trial roll-up is missing the verdict for one of its criteria."""

    def __init__(self, criterion_id):
        super().__init__(f"no verdict for criterion {criterion_id!r}")
        self.criterion_id = criterion_id


# -- gateway ------------------------------------------------------------------

class GatewayError(EligoError):
    """Base class for backend communication failures."""


class TransportError(GatewayError):
    """The request never produced an HTTP response."""


class TimeoutError(TransportError):  # noqa: A001 - deliberate, scoped to this module
    """The backend did not answer within the configured timeout."""


class BackendError(GatewayError):
    """The backend answered, but not with a usable completion."""

    def __init__(self, message, status=None, body_excerpt=None, retry_after=None):
        detail = message
        if status is not None:
            detail = f"{detail} (status {status})"
        if body_excerpt:
            detail = f"{detail}: {body_excerpt}"
        super().__init__(detail)
        self.status = status
        self.body_excerpt = body_excerpt
        self.retry_after = retry_after  # seconds the backend asked us to wait


class ExhaustedRetriesError(GatewayError):
    """All retry attempts failed; the last cause is attached."""

    def __init__(self, attempts, last_error):
        super().__init__(f"gave up after {attempts} attempts: {last_error}")
        self.attempts = attempts
        self.last_error = last_error


# -- conversion ---------------------------------------------------------------

class ConversionError(EligoError):
    """Every backend failed to produce question drafts."""

    def __init__(self, causes):
        lines = "; ".join(f"{label}: {err}" for label, err in causes)
        super().__init__(f"all backends failed: {lines}")
        self.causes = causes


class RefinementParseError(EligoError):
    """The refiner completion could not be parsed into a question set."""


# -- pathways -----------------------------------------------------------------

class MixedKeyError(EligoError):
    """Answers being combined do not refer to the same (note, question)."""


class PromptError(EligoError):
    """A prompt template is missing or left placeholders unresolved."""


# -- runner -------------------------------------------------------------------

class ConfigError(EligoError):
    """Run configuration is invalid."""
