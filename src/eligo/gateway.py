"""Uniform chat-completion access: HTTP backend, deterministic mock, parsing.

The gateway is the engine's only concurrency boundary.  :meth:`Gateway.call`
takes a request and a completion callback, which it calls once with the
reply or the error.  Up to ``max_inflight`` sender threads take requests off
the queue and put them on the wire, so the number of senders is the
in-flight bound; a transport that does not wait (the mock without latency)
is sent to on the calling thread instead, so its callback has run when
``call`` returns.  A transient failure parks its request on a retry-timer
heap until the backoff (or the backend's capped Retry-After) has passed: no
thread sleeps through a backoff, and the senders serve other requests
meanwhile.  Senders start on demand and exit once the queue and the heap
have stayed empty for ``SENDER_IDLE_S``, so a gateway that is never closed
does not keep its threads.  :meth:`Gateway.submit` adapts ``call`` to a
Future for callers that block on the reply.
"""

from __future__ import annotations

import heapq
import itertools
import json
import logging
import re
import select
import threading
import time
import urllib.parse
from concurrent.futures import Future, wait
from queue import Empty, SimpleQueue
from dataclasses import dataclass, fields
from datetime import timezone
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Generator, Mapping, TypeVar

from . import errors
# ParsedAnswer lives in corpus, so reading results loads no gateway; it is
# still importable from here.
from .corpus import ParsedAnswer, Verdict, load_json

if TYPE_CHECKING:
    import http.client

log = logging.getLogger(__name__)

# http.client and email.utils are imported where they are used: they pull in
# socket, ssl and the email package, which a mock run never needs.

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

# How long a sender with nothing to send or retry waits for work before it exits.
SENDER_IDLE_S = 0.1

_SPEAKERS = ("system", "user", "assistant")


@dataclass(frozen=True)
class Message:
    """One chat message and who speaks it."""

    speaker: str  # system | user | assistant
    content: str


@dataclass(frozen=True)
class ChatRequest:
    """One chat completion to ask of a backend."""

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
    """How to reach one backend, and how hard to push and retry it."""

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
        if self.kind == "http":
            if not self.base_url or not isinstance(self.base_url, str):
                raise ValueError("http backend requires a base_url string")
            url = urllib.parse.urlsplit(self.base_url)
            try:
                url.port  # raises for a port that is not a number in range
            except ValueError as exc:
                raise ValueError(f"base_url {self.base_url!r}: {exc}") from exc
            if url.scheme not in ("http", "https") or not url.hostname:
                raise ValueError(
                    f"base_url {self.base_url!r} is not http(s)://host[:port]"
                )
        if self.timeout_ms <= 0:
            raise ValueError("timeout_ms must be > 0")
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if self.retry_limit < 0:
            raise ValueError("retry_limit must be >= 0")
        if self.backoff_s < 0 or self.mock_latency_s < 0:
            raise ValueError("backoff_s and mock_latency_s must be >= 0")


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
# Each verdict phrase as a whole word or words, for the first-sentence scan.
_PHRASE_RES = {
    phrase: re.compile(rf"(?<![a-z0-9]){re.escape(phrase)}(?![a-z0-9])")
    for phrase in _VERDICT_MAP
}


def _strip_evidence(text: str) -> tuple[str, list[str]]:
    """Remove complete EVIDENCE blocks; return remaining text and the quotes.

    Lines are rejoined with "\n" either way.  A reply without the marker in
    any case has no block, so it skips the line scan.
    """
    lines = text.splitlines()
    if "EVIDENCE:" not in text.upper():
        return "\n".join(lines), []
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
    return {phrase for phrase, pattern in _PHRASE_RES.items() if pattern.search(sentence)}


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
    fixtures = load_json(path).get("fixtures")
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

    @property
    def waits(self) -> bool:
        """Whether a send waits (see :meth:`Gateway.submit`): only with latency."""
        return self.latency_s > 0

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
    import email.utils

    try:
        when = email.utils.parsedate_to_datetime(value)
    except (TypeError, ValueError):
        return None
    if when.tzinfo is None:  # "-0000" parses naive; HTTP-dates are UTC
        when = when.replace(tzinfo=timezone.utc)
    return max(0.0, when.timestamp() - time.time())


class HttpTransport:
    """Chat-completions wire protocol over HTTP, on the standard library.

    Connections are kept alive and reused: each send takes an idle one (or
    opens one) and returns it afterwards, so no more connections are open
    than requests have been in flight at once.
    """

    def __init__(self, cfg: BackendConfig):
        import http.client

        self.cfg = cfg
        url = urllib.parse.urlsplit(cfg.base_url)
        self._connection_class = (http.client.HTTPSConnection if url.scheme == "https"
                                  else http.client.HTTPConnection)
        self._address = (url.hostname, url.port)
        self.path = url.path.rstrip("/") + "/v1/chat/completions"
        self.headers = {"Content-Type": "application/json"}
        if cfg.api_key:
            self.headers["Authorization"] = f"Bearer {cfg.api_key}"
        self._lock = threading.Lock()
        self._idle: list[http.client.HTTPConnection] = []

    def close(self) -> None:
        with self._lock:
            idle, self._idle = self._idle, []
        for connection in idle:
            connection.close()

    def _checkout(self) -> http.client.HTTPConnection:
        with self._lock:
            connection = self._idle.pop() if self._idle else None
        if connection is None:
            return self._connection_class(*self._address,
                                          timeout=self.cfg.timeout_ms / 1000.0)
        sock = connection.sock
        if sock is not None and select.select([sock], [], [], 0)[0]:
            # The server closed the idle connection; request() reopens it.
            connection.close()
        return connection

    def send(self, req: ChatRequest) -> str:
        import http.client

        cfg = self.cfg
        body = json.dumps({
            "model": cfg.model_name,
            "messages": [
                {"role": message.speaker, "content": message.content}
                for message in req.messages
            ],
            "temperature": req.temperature,
            "max_tokens": req.max_tokens,
        }).encode()
        connection = self._checkout()
        try:
            connection.request("POST", self.path, body=body, headers=self.headers)
            response = connection.getresponse()
            payload = response.read()
        except TimeoutError as exc:
            connection.close()
            raise errors.TimeoutError(f"no response within {cfg.timeout_ms} ms") from exc
        except (OSError, http.client.HTTPException) as exc:
            connection.close()
            raise errors.TransportError(str(exc) or type(exc).__name__) from exc
        with self._lock:
            self._idle.append(connection)
        status = response.status
        excerpt = payload[:200].decode("utf-8", errors="replace")
        if not 200 <= status < 300:
            retry_after = None
            if status in (429, 503):
                retry_after = parse_retry_after(response.getheader("Retry-After"))
            raise errors.BackendError(
                "backend refused the request",
                status=status,
                body_excerpt=excerpt,
                retry_after=retry_after,
            )
        try:
            content = json.loads(payload)["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise errors.BackendError(
                "malformed completion payload",
                status=status,
                body_excerpt=excerpt,
            ) from exc
        if not isinstance(content, str):
            raise errors.BackendError(
                "completion content is not text",
                status=status,
                body_excerpt=excerpt,
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


# A completion callback: called once with (reply, None) or (None, error).
Done = Callable[[str | None, Exception | None], None]


@dataclass(eq=False)
class _Call:
    """One submitted request on its way through the queue, the wire and the heap."""

    request: ChatRequest
    done: Done
    on_park: Callable[[bool], None] | None
    attempt: int = 0


def _settle(future: Future, reply: str | None, error: Exception | None) -> None:
    if error is None:
        future.set_result(reply)
    else:
        future.set_exception(error)


class Gateway:
    """Bounded-concurrency front door to one backend instance."""

    def __init__(self, cfg: BackendConfig, *, fixtures: Mapping[str, str] | None = None,
                 seed: str | None = None, transport=None):
        cfg.validate()
        self.cfg = cfg
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
        # Calls to send; None tells the sender that takes it to exit.
        self._ready: SimpleQueue[_Call | None] = SimpleQueue()
        self._lock = threading.Lock()  # guards the fields below
        self._parked: list[tuple[float, int, _Call]] = []  # heap by retry time
        self._order = itertools.count()  # heap tie-break: parking order
        self._senders: list[threading.Thread] = []
        self._outstanding = 0  # calls queued or on the wire
        self._inline = 0  # of those, sent on their submitting thread

    def call(self, req: ChatRequest, done: Done, *,
             on_park: Callable[[bool], None] | None = None) -> None:
        """Send one request; ``done`` is called once with the outcome.

        ``done(reply, None)`` gets the reply text and ``done(None, error)``
        the failure.  Transient failures (429, 5xx, transport errors) are
        retried up to ``retry_limit`` times with exponential backoff,
        stretched to a capped Retry-After; the error is then an
        ExhaustedRetriesError.  Any other failure is passed on at once.
        ``on_park(True)`` is called when the request starts waiting out a
        backoff and ``on_park(False)`` when it is queued again.  It runs with
        the gateway's lock held, so it must be quick and must not call the
        gateway.  ``done`` should not raise: an error it raises on a sender
        thread is logged and ends that sender, which another replaces, and
        one it raises on the calling thread propagates from ``call``.

        A transport whose ``waits`` is false (the mock without latency) is
        sent to on the calling thread while a slot is free, so ``done`` has
        run on that thread when ``call`` returns, unless the send failed and
        was parked: a hand-off to a sender would only add overhead.
        Otherwise, and for every retry, ``done`` runs on a sender thread.
        """
        req.validate()
        call = _Call(req, done, on_park)
        with self._lock:
            self._outstanding += 1
            inline = (not getattr(self.transport, "waits", True)
                      and len(self._senders) + self._inline < self.cfg.max_inflight)
            if inline:
                self._inline += 1
            else:
                self._ready.put(call)
                self._add_sender()
        if inline:
            try:
                self._attempt(call)
            finally:
                with self._lock:
                    self._inline -= 1
                    self._add_sender()  # for calls queued meanwhile

    def submit(self, req: ChatRequest, *,
               on_park: Callable[[bool], None] | None = None) -> Future:
        """:meth:`call` with a Future that resolves to the reply text.

        The Future is marked running, so a caller cannot cancel it: setting
        the result of a cancelled Future would raise on the sender thread
        and end that sender.
        """
        future: Future = Future()
        future.set_running_or_notify_cancel()
        self.call(req, partial(_settle, future), on_park=on_park)
        return future

    def complete(self, req: ChatRequest) -> str:
        """Send one request and wait for its reply (see :meth:`submit`)."""
        return self.submit(req).result()

    def close(self) -> None:
        """Stop the senders and release the transport's pooled connections.

        A request on the wire is answered first; the callback of one still
        queued or parked gets a TransportError, on the closing thread.
        """
        with self._lock:
            abandoned = [call for call in _drain(self._ready) if call is not None]
            self._outstanding -= len(abandoned)
            abandoned += [call for _, _, call in self._parked]
            self._parked.clear()
            senders = list(self._senders)
            for _ in senders:
                self._ready.put(None)
        for call in abandoned:
            call.done(None, errors.TransportError("gateway closed"))
        for sender in senders:
            sender.join()
        with self._lock:
            # Senders that exited idle left their None behind; a call
            # submitted meanwhile stays queued for a new sender.
            for call in _drain(self._ready):
                if call is not None:
                    self._ready.put(call)
            self._add_sender()
        close = getattr(self.transport, "close", None)
        if close is not None:
            close()

    # -- senders ------------------------------------------------------------

    def _add_sender(self) -> None:
        """Start a sender while calls wait for one and a slot is free, or
        when parked calls have no sender to requeue them (lock held)."""
        senders = len(self._senders)
        wanted = min(self._outstanding, self.cfg.max_inflight) - self._inline
        if senders < wanted or (self._parked and not senders):
            sender = threading.Thread(target=self._send_loop, name="eligo-sender",
                                      daemon=True)
            self._senders.append(sender)
            sender.start()

    def _send_loop(self) -> None:
        try:
            while (call := self._next_call()) is not None:
                self._attempt(call)
        except Exception:
            # A done or on_park callback raised.  This sender ends, but its
            # slot is not lost: another starts if calls still wait for one.
            log.exception("sender stopped by an error in a callback")
            with self._lock:
                self._senders.remove(threading.current_thread())
                self._add_sender()

    def _next_call(self) -> _Call | None:
        """Wait for the next call to send; None when this sender should exit.

        A sender exits once it finds nothing to send and nothing parked for
        ``SENDER_IDLE_S``, or when close() asks it to.
        """
        while True:
            timeout = SENDER_IDLE_S
            if self._parked:
                with self._lock:
                    timeout = self._requeue_due(timeout)
            try:
                call = self._ready.get(timeout=timeout)
            except Empty:
                with self._lock:
                    if self._ready.empty() and not self._parked:
                        self._senders.remove(threading.current_thread())
                        return None
                continue
            if call is None:
                with self._lock:
                    self._senders.remove(threading.current_thread())
            return call

    def _requeue_due(self, timeout: float) -> float:
        """Queue the parked calls whose time has come; return how long to wait
        for the next one, at most ``timeout`` (lock held)."""
        now = time.monotonic()
        while self._parked and self._parked[0][0] <= now:
            call = heapq.heappop(self._parked)[2]
            if call.on_park is not None:
                call.on_park(False)
            self._outstanding += 1
            self._ready.put(call)
        self._add_sender()
        if self._parked:
            timeout = min(timeout, self._parked[0][0] - now)
        return timeout

    def _attempt(self, call: _Call) -> None:
        """Put one attempt on the wire; complete the call or park it for a retry."""
        try:
            reply = self.transport.send(call.request)
        except errors.GatewayError as exc:
            if _is_transient(exc) and call.attempt < self.cfg.retry_limit:
                delay = _retry_delay(exc, self.cfg.backoff_s, call.attempt)
                call.attempt += 1
                self._park(call, delay)
                return
            if _is_transient(exc):
                exc = errors.ExhaustedRetriesError(call.attempt + 1, exc)
            self._resolve(call, None, exc)
        except Exception as exc:  # a faulty transport fails its call, not the sender
            self._resolve(call, None, exc)
        else:
            self._resolve(call, reply, None)

    def _resolve(self, call: _Call, reply: str | None, error: Exception | None) -> None:
        with self._lock:
            self._outstanding -= 1
        call.done(reply, error)

    def _park(self, call: _Call, delay: float) -> None:
        with self._lock:
            if delay <= 0:
                self._ready.put(call)
                self._add_sender()
                return
            self._outstanding -= 1
            heapq.heappush(self._parked,
                           (time.monotonic() + delay, next(self._order), call))
            if call.on_park is not None:
                call.on_park(True)
            self._add_sender()


def _drain(queue: SimpleQueue) -> list:
    items = []
    while True:
        try:
            items.append(queue.get_nowait())
        except Empty:
            return items


T = TypeVar("T")

# A unit of work: a generator that yields batches of requests, is sent each
# batch's replies in order, and returns its result.
Unit = Generator[list[ChatRequest], list[str], T]


def run_unit(unit: Unit[T], gateway: Gateway) -> T:
    """Drive a unit to its result, waiting for each batch in turn.

    A batch fails with its first error in batch order, once every request
    of the batch has been answered.
    """
    batch = next(unit)
    while True:
        futures = [gateway.submit(request) for request in batch]
        wait(futures)
        try:
            batch = unit.send([future.result() for future in futures])
        except StopIteration as stop:
            return stop.value


def backend_config_from_dict(record: Mapping) -> BackendConfig:
    """Build a BackendConfig from a JSON object (run.json / backends.json)."""
    if not isinstance(record, Mapping):
        raise errors.ConfigError("a backend config must be a JSON object")
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
