"""Uniform chat-completion access: HTTP backend, deterministic mock, parsing.

The gateway is the engine's only concurrency boundary.  Any number of
workers may call :meth:`Gateway.complete`; a semaphore keeps the number of
outstanding requests per instance at or below ``max_inflight``.  A slot is
held only while an attempt is on the wire, so a unit waiting out a retry
backoff leaves its slot to other units.
"""

from __future__ import annotations

import email.utils
import json
import re
import threading
import time
from dataclasses import dataclass, fields
from datetime import timezone
from pathlib import Path
from typing import Mapping

import requests
from requests.adapters import HTTPAdapter

from . import errors
from .corpus import Verdict

# Every verdict-producing prompt ends with this contract, so parsing is a
# deterministic token grab instead of free-text classification.
FORMAT_CONTRACT = """\
ANSWER FORMAT (mandatory):
- Begin your reply with exactly one verdict token in double quotes, followed
  by a period: "Yes", "No", "Unable to determine", or "Information not provided".
- Continue with your reasoning in plain prose.
- Then list every supporting quote, copied verbatim from the note, between the
  two marker lines below, one quote per line:
EVIDENCE:
"<verbatim quote from the note>"
END EVIDENCE
- If the note contains no supporting quote, omit the EVIDENCE block entirely."""

# Byte-identical on every miss so mock runs are reproducible.
MOCK_FALLBACK = '"Unable to determine". No fixture.'

# Longest wait a backend's Retry-After header can impose on one retry.
RETRY_AFTER_CAP_S = 60.0

_SPEAKERS = ("system", "user", "assistant")


@dataclass(frozen=True)
class Message:
    speaker: str  # system | user | assistant
    content: str


@dataclass(frozen=True)
class ChatRequest:
    messages: tuple[Message, ...]
    temperature: float = 0.0
    max_tokens: int = 1024
    tag: str = ""  # provenance label (role/agent/round), also the fixture key

    def validate(self) -> None:
        if not self.messages:
            raise ValueError("a chat request needs at least one message")
        for message in self.messages:
            if message.speaker not in _SPEAKERS:
                raise ValueError(f"unknown speaker {message.speaker!r}")
            if not message.content:
                raise ValueError("message content must be non-empty")
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if self.max_tokens < 1:
            raise ValueError("max_tokens must be positive")


def user_request(content: str, *, system: str | None = None, tag: str = "",
                 temperature: float = 0.0, max_tokens: int = 1024) -> ChatRequest:
    """Build the common one-user-message request."""
    messages: list[Message] = []
    if system:
        messages.append(Message("system", system))
    messages.append(Message("user", content))
    return ChatRequest(tuple(messages), temperature=temperature,
                       max_tokens=max_tokens, tag=tag)


@dataclass(frozen=True)
class BackendConfig:
    kind: str  # "http" | "mock"
    model_name: str = "mock"
    base_url: str | None = None
    timeout_ms: int = 30_000
    retry_limit: int = 2
    max_inflight: int = 3  # measured optimum; configurable
    api_key: str | None = None  # sent as a bearer token when set
    backoff_s: float = 0.25
    fixtures_path: str | None = None  # mock only
    mock_latency_s: float = 0.0  # mock only; deterministic simulated latency

    def validate(self) -> None:
        if self.kind not in ("http", "mock"):
            raise ValueError(f"unknown backend kind {self.kind!r}")
        if self.kind == "http" and not self.base_url:
            raise ValueError("http backend requires base_url")
        if self.timeout_ms <= 0:
            raise ValueError("timeout_ms must be > 0")
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if self.retry_limit < 0:
            raise ValueError("retry_limit must be >= 0")


@dataclass(frozen=True)
class ParsedAnswer:
    value: Verdict
    rationale: str
    evidence: tuple[str, ...]
    provenance: str
    parse_fallback: bool = False

    def to_dict(self) -> dict:
        return {
            "value": self.value.value,
            "rationale": self.rationale,
            "evidence": list(self.evidence),
            "provenance": self.provenance,
            "parse_fallback": self.parse_fallback,
        }


# -- answer parsing -----------------------------------------------------------

_VERDICT_MAP = {
    "yes": Verdict.YES,
    "no": Verdict.NO,
    "unknown": Verdict.UNKNOWN,
    "unable to determine": Verdict.UNKNOWN,
    "information not provided": Verdict.UNKNOWN,
}

_QUOTES = "\"'“”‘’«»"
_LEAD_TOKEN_RE = re.compile(
    rf"^\s*[{_QUOTES}]\s*([^{_QUOTES}]{{1,40}}?)\s*[{_QUOTES}]\s*[.:,;!]?\s*"
)
_FIRST_SENTENCE_RE = re.compile(r"(?<=[.!?])\s+|\n")


def _strip_evidence(text: str) -> tuple[str, list[str]]:
    """Remove complete EVIDENCE blocks; return remaining text and the quotes."""
    lines = text.splitlines()
    kept: list[str] = []
    quotes: list[str] = []
    i = 0
    while i < len(lines):
        if lines[i].strip().upper() == "EVIDENCE:":
            j = i + 1
            while j < len(lines) and lines[j].strip().upper() != "END EVIDENCE":
                j += 1
            if j < len(lines):  # complete block
                for raw in lines[i + 1:j]:
                    quote = raw.strip().strip(_QUOTES).strip()
                    if quote:
                        quotes.append(quote)
                i = j + 1
                continue
        kept.append(lines[i])
        i += 1
    return "\n".join(kept), quotes


def _scan_first_sentence(text: str) -> set[str]:
    sentence = _FIRST_SENTENCE_RE.split(text, maxsplit=1)[0].lower()
    found: set[str] = set()
    for phrase in _VERDICT_MAP:
        if re.search(rf"(?<![a-z0-9]){re.escape(phrase)}(?![a-z0-9])", sentence):
            found.add(phrase)
    return found


def parse_answer(text: str, provenance: str = "") -> ParsedAnswer:
    """Extract the tri-valued verdict, rationale and evidence from a reply.

    Total: any text yields an answer.  When the reply does not open with a
    quoted verdict token, the first sentence is scanned for exactly one
    known phrase; failing that the answer degrades to UNKNOWN with
    ``parse_fallback`` set so pipelines never stall on odd output.
    """
    remaining, evidence = _strip_evidence(text)
    value: Verdict | None = None
    while True:
        match = _LEAD_TOKEN_RE.match(remaining)
        if not match:
            break
        token = match.group(1).strip().strip(".:,;!").lower()
        mapped = _VERDICT_MAP.get(token)
        if mapped is None:
            break
        if value is None:
            value = mapped
        remaining = remaining[match.end():]
    if value is not None:
        return ParsedAnswer(value, remaining.strip(), tuple(evidence), provenance)
    rationale = remaining.strip()
    phrases = _scan_first_sentence(rationale)
    if len(phrases) == 1:
        value = _VERDICT_MAP[phrases.pop()]
    else:
        value = Verdict.UNKNOWN
    return ParsedAnswer(value, rationale, tuple(evidence), provenance, parse_fallback=True)


# -- transports ---------------------------------------------------------------

def load_fixtures(path: str | Path) -> dict[str, str]:
    """Load a fixtures file: {"fixtures": {"<tag>": "<response text>"}}."""
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    fixtures = document.get("fixtures")
    if not isinstance(fixtures, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in fixtures.items()
    ):
        raise errors.SchemaError(f"{path}: expected {{'fixtures': {{tag: text}}}}")
    return fixtures


def mock_resolve(req: ChatRequest, fixtures: Mapping[str, str]) -> str:
    """Exact-key lookup on the request tag; deterministic fallback on miss."""
    return fixtures.get(req.tag, MOCK_FALLBACK)


class MockTransport:
    """Canned-response transport, instrumented for concurrency assertions."""

    def __init__(self, fixtures: Mapping[str, str], *, latency_s: float = 0.0,
                 seed: str | None = None):
        self.fixtures = dict(fixtures)
        self.latency_s = latency_s
        self.seed = seed
        self._lock = threading.Lock()
        self._inflight = 0
        self.peak_inflight = 0
        self.calls = 0

    def send(self, req: ChatRequest) -> str:
        with self._lock:
            self._inflight += 1
            self.calls += 1
            self.peak_inflight = max(self.peak_inflight, self._inflight)
        try:
            if self.latency_s:
                time.sleep(self.latency_s)
            if self.seed is not None:
                seeded = self.fixtures.get(f"{self.seed}|{req.tag}")
                if seeded is not None:
                    return seeded
            return mock_resolve(req, self.fixtures)
        finally:
            with self._lock:
                self._inflight -= 1


_DELTA_SECONDS_RE = re.compile(r"[0-9]+")


def parse_retry_after(value: str | None) -> float | None:
    """Seconds to wait from a Retry-After header (RFC 9110 section 10.2.3).

    Accepts delta-seconds and an HTTP-date; a date in the past gives 0.
    Returns None when the header is absent or malformed.
    """
    if value is None:
        return None
    value = value.strip()
    if _DELTA_SECONDS_RE.fullmatch(value):
        return float(value)
    try:
        when = email.utils.parsedate_to_datetime(value)
    except (TypeError, ValueError):
        return None
    if when.tzinfo is None:  # "-0000" parses naive; HTTP-dates are UTC
        when = when.replace(tzinfo=timezone.utc)
    return max(0.0, when.timestamp() - time.time())


class HttpTransport:
    """Chat-completions wire protocol over HTTP.

    One pooled ``requests.Session`` per transport keeps up to
    ``max_inflight`` connections alive across calls.
    """

    def __init__(self, cfg: BackendConfig):
        self.cfg = cfg
        self.url = cfg.base_url.rstrip("/") + "/v1/chat/completions"
        self.session = requests.Session()
        adapter = HTTPAdapter(pool_maxsize=cfg.max_inflight)
        self.session.mount("http://", adapter)
        self.session.mount("https://", adapter)
        if cfg.api_key:
            self.session.headers["Authorization"] = f"Bearer {cfg.api_key}"

    def close(self) -> None:
        self.session.close()

    def send(self, req: ChatRequest) -> str:
        cfg = self.cfg
        body = {
            "model": cfg.model_name,
            "messages": [
                {"role": message.speaker, "content": message.content}
                for message in req.messages
            ],
            "temperature": req.temperature,
            "max_tokens": req.max_tokens,
        }
        try:
            response = self.session.post(
                self.url, json=body, timeout=cfg.timeout_ms / 1000.0
            )
        except requests.Timeout as exc:
            raise errors.TimeoutError(f"no response within {cfg.timeout_ms} ms") from exc
        except requests.RequestException as exc:
            raise errors.TransportError(str(exc)) from exc
        if not 200 <= response.status_code < 300:
            retry_after = None
            if response.status_code in (429, 503):
                retry_after = parse_retry_after(response.headers.get("Retry-After"))
            raise errors.BackendError(
                "backend refused the request",
                status=response.status_code,
                body_excerpt=response.text[:200],
                retry_after=retry_after,
            )
        try:
            content = response.json()["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise errors.BackendError(
                "malformed completion payload",
                status=response.status_code,
                body_excerpt=response.text[:200],
            ) from exc
        if not isinstance(content, str):
            raise errors.BackendError(
                "completion content is not text",
                status=response.status_code,
                body_excerpt=response.text[:200],
            )
        return content


def _is_transient(error: Exception) -> bool:
    if isinstance(error, errors.TransportError):
        return True
    if isinstance(error, errors.BackendError):
        return error.status is not None and (error.status >= 500 or error.status == 429)
    return False


def _retry_delay(error: Exception, backoff_s: float, attempt: int) -> float:
    """Exponential backoff, stretched to a capped Retry-After when one was sent."""
    delay = backoff_s * (2 ** attempt)
    retry_after = getattr(error, "retry_after", None)
    if retry_after is not None:
        delay = max(delay, min(retry_after, RETRY_AFTER_CAP_S))
    return delay


class Gateway:
    """Bounded-concurrency front door to one backend instance."""

    def __init__(self, cfg: BackendConfig, *, fixtures: Mapping[str, str] | None = None,
                 seed: str | None = None, transport=None):
        cfg.validate()
        self.cfg = cfg
        self._semaphore = threading.BoundedSemaphore(cfg.max_inflight)
        if transport is not None:
            self.transport = transport
        elif cfg.kind == "mock":
            if fixtures is None:
                fixtures = load_fixtures(cfg.fixtures_path) if cfg.fixtures_path else {}
            self.transport = MockTransport(
                fixtures, latency_s=cfg.mock_latency_s, seed=seed
            )
        else:
            self.transport = HttpTransport(cfg)

    def complete(self, req: ChatRequest) -> str:
        """Send one request; retry transient failures with exponential backoff.

        Each attempt takes a slot for as long as it is on the wire; the
        backoff sleep between attempts holds none.
        """
        req.validate()
        last_error: Exception | None = None
        attempts = self.cfg.retry_limit + 1
        for attempt in range(attempts):
            try:
                with self._semaphore:
                    return self.transport.send(req)
            except errors.GatewayError as exc:
                if not _is_transient(exc):
                    raise
                last_error = exc
            if attempt + 1 < attempts:
                delay = _retry_delay(last_error, self.cfg.backoff_s, attempt)
                if delay > 0:
                    time.sleep(delay)
        raise errors.ExhaustedRetriesError(attempts, last_error)

    def close(self) -> None:
        """Release the transport's pooled connections, if it keeps any."""
        close = getattr(self.transport, "close", None)
        if close is not None:
            close()

    def ask(self, req: ChatRequest) -> ParsedAnswer:
        """Complete a request and parse the reply under the format contract."""
        return parse_answer(self.complete(req), provenance=req.tag)


def backend_config_from_dict(record: Mapping) -> BackendConfig:
    """Build a BackendConfig from a JSON object (run.json / backends.json)."""
    known = {f.name for f in fields(BackendConfig)}
    unknown = set(record) - known
    if unknown:
        raise errors.ConfigError(f"unknown backend config keys {sorted(unknown)}")
    try:
        cfg = BackendConfig(**record)
        cfg.validate()
    except (TypeError, ValueError) as exc:
        raise errors.ConfigError(f"invalid backend config: {exc}") from exc
    return cfg
