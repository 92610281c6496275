"""Uniform chat-completion access: HTTP backend, deterministic mock, parsing.

A request is a prompt and a tag: HTTP sends the prompt as one user message at
temperature 0.0 with 1,024 max tokens, and the mock answers by the tag.

The gateway is the engine's only concurrency boundary.  :meth:`Gateway.call`
takes a request and a completion callback, which it calls once with the
reply or the error.  ``max_inflight`` sender threads put requests on the
wire, so the number of senders is the in-flight bound: they start with the
gateway's first queued request and run until :meth:`Gateway.close`.  A
transport that does not wait (the mock without latency) is sent to on the
calling thread instead and holds no slot, so its callback has run when
``call`` returns.  A transient failure parks its request on a retry-timer
heap until the backoff (or the backend's Retry-After) has passed: no thread
sleeps through a backoff, and the senders serve other requests meanwhile.
An idle sender waits on a condition of the gateway's lock, which guards the
queue and the heap, until a request is queued, the first parked one is due,
or close() stops it.  A gateway that is never closed keeps its senders
idle; they are daemon threads.

Units of work (a role's answer, a debate, a screened pair, a converted
criterion) are generators of request batches, and :func:`run_units` is
their one driver: it runs them on ``call`` from a loop on the calling
thread.  It is the one way to send a request and wait for its answer;
:meth:`Gateway.complete` is :func:`run_unit` over a one-request unit.
"""

import heapq
import itertools
import json
import logging
import re
import select
import threading
import time
import urllib.parse
from collections import deque
from datetime import timezone
from functools import partial
from pathlib import Path
from queue import SimpleQueue
from typing import TYPE_CHECKING, Callable, Generator, Iterable, Mapping, NamedTuple, TypeVar

from . import errors
# ParsedAnswer lives in corpus, so reading results loads no gateway; it is
# still importable from here.
from .corpus import ParsedAnswer, Verdict, config_from_dict, json_value, load_json

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

# Longest wait before any one retry, whether set by the backoff or by a
# backend's Retry-After header.
RETRY_DELAY_CAP_S = 60.0


class ChatRequest(NamedTuple):
    """One question to ask of a backend, as the prompt that asks it."""

    prompt: str
    tag: str = ""  # provenance label (role/agent/round), also the fixture key


_VISIBLE_ASCII = re.compile(r"[!-~]*")


class BackendConfig(NamedTuple):
    """How to reach one backend, and how hard to push and retry it."""

    kind: str  # "http" | "mock"
    model_name: str = "mock"
    base_url: str | None = None
    timeout_ms: int = 30_000
    retry_limit: int = 2
    max_inflight: int = 3  # the most senders with a request on the wire
    api_key: str | None = None  # sent as a bearer token when set
    backoff_s: float = 0.25
    fixtures_path: str | None = None  # mock only
    mock_latency_s: float = 0.0  # mock only; deterministic simulated latency

    def validate(self) -> None:
        if self.kind not in ("http", "mock"):
            raise ValueError(f"unknown backend kind {self.kind!r}")
        for name in (("fixtures_path", "mock_latency_s") if self.kind == "http"
                     else ("base_url", "api_key")):
            if getattr(self, name) != self._field_defaults[name]:
                raise ValueError(f"{name!r} is not read by {self.kind} backends")
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
            # A request line and a header take visible ASCII only.
            if not _VISIBLE_ASCII.fullmatch(url.path):
                raise ValueError(f"base_url {self.base_url!r}: the path must be visible "
                                 "ASCII, with no whitespace or control characters")
            if self.api_key is not None and not _VISIBLE_ASCII.fullmatch(self.api_key):
                raise ValueError("api_key must be visible ASCII, with no whitespace "
                                 "or control characters")
        if self.timeout_ms <= 0:
            raise ValueError("timeout_ms must be > 0")
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if self.retry_limit < 0:
            raise ValueError("retry_limit must be >= 0")
        if self.backoff_s < 0 or self.mock_latency_s < 0:
            raise ValueError("backoff_s and mock_latency_s must be >= 0")
        # The longest wait that a socket or a sleep takes on this platform;
        # NaN is refused too.
        for name, most in (("timeout_ms", 1000 * threading.TIMEOUT_MAX),
                           ("backoff_s", threading.TIMEOUT_MAX),
                           ("mock_latency_s", threading.TIMEOUT_MAX)):
            value = getattr(self, name)
            if not value <= most:
                raise ValueError(f"{name} must be at most {most:.0f}, got {value!r}")


# -- answer parsing -----------------------------------------------------------

_VERDICT_MAP = {
    "yes": Verdict.YES,
    "no": Verdict.NO,
    "unknown": Verdict.UNKNOWN,
    "unable to determine": Verdict.UNKNOWN,
    "information not provided": Verdict.UNKNOWN,
}

_QUOTES = "\"'“”‘’«»"
_QUOTE_CHARS = tuple(_QUOTES)
# The token is the run of non-quote characters between the quotes, with any
# whitespace around it; it is stripped before it is looked up.  match() is
# anchored at the position it is given, which finds a repeated token too.
_LEAD_TOKEN_RE = re.compile(
    rf"\s*[{_QUOTES}]\s*([^{_QUOTES}]{{1,40}})\s*[{_QUOTES}]\s*[.:,;!]?\s*"
)
_FIRST_SENTENCE_RE = re.compile(r"(?<=[.!?])\s+|\n")
# Any verdict phrase as a whole word or words, for the first-sentence scan.
# No phrase holds another as a whole word, so whole-word matches of two
# phrases never overlap and one scan finds every phrase present.
_PHRASE_RE = re.compile(
    rf"(?<![a-z0-9])(?:{'|'.join(map(re.escape, _VERDICT_MAP))})(?![a-z0-9])"
)


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
    return set(_PHRASE_RE.findall(sentence))


def _token_verdict(token: str) -> Verdict | None:
    """The verdict a quoted lead token names, if it names one."""
    return _VERDICT_MAP.get(token.strip().strip(".:,;!").lower())


def parse_answer(text: str, provenance: str = "") -> ParsedAnswer:
    """Extract the tri-valued verdict, rationale and evidence from a reply.

    Total: any text yields an answer.  When the reply does not open with a
    quoted verdict token, the first sentence is scanned for exactly one
    known phrase; failing that the answer degrades to UNKNOWN with
    ``parse_fallback`` set so pipelines never stall on odd output.  Verdict
    tokens that follow the first one are dropped from the rationale.
    """
    remaining, quotes = _strip_evidence(text)
    evidence = tuple(quotes)
    match = _LEAD_TOKEN_RE.match(remaining)
    value = None if match is None else _token_verdict(match[1])
    if value is not None:
        end = match.end()
        # A match ends past all whitespace, so a further token starts with a
        # quote exactly there.
        while remaining.startswith(_QUOTE_CHARS, end):
            match = _LEAD_TOKEN_RE.match(remaining, end)
            if match is None or _token_verdict(match[1]) is None:
                break
            end = match.end()
        return ParsedAnswer(value, remaining[end:].strip(), evidence, provenance, False)
    rationale = remaining.strip()
    phrases = _scan_first_sentence(rationale)
    if len(phrases) == 1:
        value = _VERDICT_MAP[phrases.pop()]
    else:
        value = Verdict.UNKNOWN
    return ParsedAnswer(value, rationale, evidence, provenance, True)


# -- transports ---------------------------------------------------------------

def load_fixtures(path: str | Path) -> dict[str, str]:
    """Load a fixtures file: {"fixtures": {"<tag>": "<response text>"}}."""
    fixtures = load_json(path, ("fixtures",)).get("fixtures")
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
        """Whether a send waits (see :meth:`Gateway.call`): only with latency."""
        return self.latency_s > 0

    def __init__(self, fixtures: Mapping[str, str], *, latency_s: float = 0.0):
        self.fixtures = dict(fixtures)
        self.latency_s = latency_s
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


def _readable(sock) -> bool:
    """Whether a socket has data or its end to read now, whatever its number:
    select() takes only descriptors below 1024, poll() takes any."""
    if not hasattr(select, "poll"):  # Windows, whose select() has no such limit
        return bool(select.select([sock], [], [], 0)[0])
    poller = select.poll()
    poller.register(sock, select.POLLIN)
    return bool(poller.poll(0))


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

    def _checkout(self) -> "http.client.HTTPConnection":
        with self._lock:
            connection = self._idle.pop() if self._idle else None
        if connection is None:
            return self._connection_class(*self._address,
                                          timeout=self.cfg.timeout_ms / 1000.0)
        sock = connection.sock
        if sock is not None and _readable(sock):
            # The server closed the idle connection; request() reopens it.
            connection.close()
        return connection

    def send(self, req: ChatRequest) -> str:
        import http.client

        cfg = self.cfg
        body = json.dumps({
            "model": cfg.model_name,
            "messages": [{"role": "user", "content": req.prompt}],
            "temperature": 0.0,
            "max_tokens": 1024,
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
            reply = json_value("completion payload", None, payload)
            content = reply["choices"][0]["message"]["content"]
        except (errors.SchemaError, KeyError, IndexError, TypeError) as exc:
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
    """Exponential backoff, stretched to the Retry-After when one was sent,
    and capped at ``RETRY_DELAY_CAP_S``."""
    # 64 doublings put any backoff over 4e-18 s past the cap; 2.0 ** 1024 overflows.
    delay = backoff_s * 2.0 ** min(attempt, 64)
    retry_after = getattr(error, "retry_after", None)
    if retry_after is not None:
        delay = max(delay, retry_after)
    return min(delay, RETRY_DELAY_CAP_S)


# A completion callback: called once with (reply, None) or (None, error).
Done = Callable[[str | None, Exception | None], None]


class _Call:
    """One submitted request on its way through the queue, the wire and the heap."""

    __slots__ = ("request", "done", "on_park", "attempt")

    def __init__(self, request: ChatRequest, done: Done,
                 on_park: Callable[[bool], None] | None, attempt: int = 0):
        self.request = request
        self.done = done
        self.on_park = on_park
        self.attempt = attempt


class Gateway:
    """Bounded-concurrency front door to one backend instance."""

    def __init__(self, cfg: BackendConfig, *, fixtures: Mapping[str, str] | None = None,
                 transport=None):
        cfg.validate()
        self.cfg = cfg
        if transport is None:
            if cfg.kind == "mock":
                if fixtures is None:
                    fixtures = load_fixtures(cfg.fixtures_path) if cfg.fixtures_path else {}
                transport = MockTransport(fixtures, latency_s=cfg.mock_latency_s)
            else:
                transport = HttpTransport(cfg)
        self.transport = transport  # what sends the requests
        self._waits = getattr(transport, "waits", True)
        self._lock = threading.Lock()  # guards the fields below
        # An idle sender waits on this for a queued call, a due one or close().
        self._wake = threading.Condition(self._lock)
        self._ready: deque[_Call] = deque()  # calls to send, in order
        self._closing = False  # set while close() stops the senders
        self._parked: list[tuple[float, int, _Call]] = []  # heap by retry time
        self._order = itertools.count()  # heap tie-break: parking order
        self._senders: list[threading.Thread] = []

    def call(self, req: ChatRequest, done: Done, *,
             on_park: Callable[[bool], None] | None = None) -> None:
        """Send one request; ``done`` is called once with the outcome.

        ``done(reply, None)`` gets the reply text and ``done(None, error)``
        the failure.  Transient failures (429, 5xx, transport errors) are
        retried up to ``retry_limit`` times with exponential backoff,
        stretched to the Retry-After and capped at ``RETRY_DELAY_CAP_S``;
        the error is then an ExhaustedRetriesError.  Any other failure is
        passed on at once.
        ``on_park(True)`` is called when the request starts waiting out a
        backoff and ``on_park(False)`` when it is queued again.  It runs with
        the gateway's lock held, so it must be quick and must not call the
        gateway.  ``done`` should not raise: an error it raises on a sender
        thread is logged and the sender goes on to the next request, and one
        it raises on the calling thread propagates from ``call``.

        A transport whose ``waits`` is false, as read when the gateway is
        built, is sent to on the calling thread (see the module docstring),
        and only a retry of such a send runs ``done`` on a sender.  Every
        other request is queued for a sender, or fails at once with a
        TransportError while no sender thread can start.
        """
        call = _Call(req, done, on_park)
        if not self._waits:
            self._attempt(call)
            return
        with self._lock:
            if not (error := self._start_senders()):
                self._ready.append(call)
                self._wake.notify()
        if error:
            done(None, error)

    def complete(self, req: ChatRequest) -> str:
        """Send one request and wait for its reply; raise its error instead."""
        return run_unit(_ask(req), self)

    def close(self) -> None:
        """Stop the senders and release the transport's pooled connections.

        A request on the wire is answered first; the callback of one still
        queued or parked gets a TransportError, on the closing thread.  All
        of those run, and the senders are joined and the transport closed,
        before the first error a callback raised propagates.
        """
        with self._lock:
            abandoned = self._take_waiting()
            self._closing = True
            self._wake.notify_all()
            senders, self._senders = self._senders, []
        raised = _fail(abandoned, errors.TransportError("gateway closed"))
        for sender in senders:
            sender.join()
        with self._lock:
            self._closing = False
            # Calls submitted meanwhile get new senders, or fail without one.
            error = self._start_senders() if self._ready or self._parked else None
            stranded = self._take_waiting() if error else []
        raised += _fail(stranded, error)
        close = getattr(self.transport, "close", None)
        if close is not None:
            close()
        if raised:
            raise raised[0]

    # -- senders ------------------------------------------------------------

    def _take_waiting(self) -> list[_Call]:
        """Take every queued and parked call off the gateway (lock held)."""
        calls = [*self._ready, *(call for _, _, call in self._parked)]
        self._ready.clear()
        self._parked.clear()
        return calls

    def _start_senders(self) -> Exception | None:
        """Start the ``max_inflight`` senders, unless they run already or
        close() is stopping them (lock held).  A thread that cannot start
        ends the starting; when none started, return the error to fail the
        waiting call with."""
        if self._senders or self._closing:
            return None
        for _ in range(self.cfg.max_inflight):
            sender = threading.Thread(target=self._send_loop, name="eligo-sender",
                                      daemon=True)
            try:
                sender.start()
            except RuntimeError as exc:
                log.warning("started %d of max_inflight=%d sender threads: %s",
                            len(self._senders), self.cfg.max_inflight, exc)
                if not self._senders:
                    return errors.TransportError(f"no sender thread could start: {exc}")
                break
            self._senders.append(sender)
        return None

    def _send_loop(self) -> None:
        while True:
            try:
                if (call := self._next_call()) is None:
                    return
                self._attempt(call)
            except Exception:  # a done or on_park callback raised
                log.exception("error in a gateway callback")

    def _next_call(self) -> _Call | None:
        """Wait for the next call to send; None once close() stops the senders."""
        with self._lock:
            while not self._closing:
                timeout = self._requeue_due()
                if self._ready:
                    return self._ready.popleft()
                self._wake.wait(timeout)
            return None

    def _requeue_due(self) -> float | None:
        """Queue the parked calls whose time has come; return the seconds
        until the next one is due, or None when none is parked (lock held).

        Each call's ``on_park(False)`` runs before it is queued, so it comes
        before the call's answer; the call is queued even if it raises.
        """
        now = time.monotonic()
        while self._parked and self._parked[0][0] <= now:
            call = heapq.heappop(self._parked)[2]
            try:
                if call.on_park is not None:
                    call.on_park(False)
            finally:
                self._ready.append(call)
                self._wake.notify()
        return self._parked[0][0] - now if self._parked else None

    def _attempt(self, call: _Call) -> None:
        """Put one attempt on the wire, on a sender or on the calling thread;
        complete the call or park it for a retry."""
        try:
            reply = self.transport.send(call.request)
            error = None
        except Exception as exc:  # a faulty transport fails its call, not the sender
            reply, error = None, exc
        if error is not None:
            error = self._failed(call, error)
            if error is None:
                return
        call.done(reply, error)
        error = None  # its traceback holds this frame

    def _failed(self, call: _Call, error: Exception) -> Exception | None:
        """The error that a failed attempt completes its call with, or None
        when the call is retried.

        A transient error is retried while retries are left, and is then
        wrapped in ExhaustedRetriesError; any other error is final.  A call
        to retry waits on the heap until its backoff has passed, or is
        queued at once when there is no backoff.
        """
        if not _is_transient(error):
            return error
        if call.attempt >= self.cfg.retry_limit:
            return errors.ExhaustedRetriesError(call.attempt + 1, error)
        delay = _retry_delay(error, self.cfg.backoff_s, call.attempt)
        call.attempt += 1
        with self._lock:
            if start_error := self._start_senders():  # for a retry of an inline send
                return start_error
            # Every waiting sender, as each may sleep past the new due time.
            self._wake.notify_all()
            if delay <= 0:
                self._ready.append(call)
            else:
                heapq.heappush(self._parked,
                               (time.monotonic() + delay, next(self._order), call))
                if call.on_park is not None:
                    call.on_park(True)
        return None


def _fail(calls: list[_Call], error: Exception | None) -> list[Exception]:
    """Fail each call with ``error``; return the errors its callbacks raised."""
    raised = []
    for call in calls:
        try:
            call.done(None, error)
        except Exception as exc:
            raised.append(exc)
    return raised


T = TypeVar("T")

# A unit of work: a generator that yields batches of requests, is sent each
# batch's replies in order (or is thrown the batch's first error), and
# returns its result.
Unit = Generator[list[ChatRequest], list[str], T]


class _Run:
    """One unit on its way through its batches."""

    __slots__ = ("unit", "index", "replies", "errors", "waiting", "parked")

    def __init__(self, unit: Unit, index: int):
        self.unit = unit
        self.index = index  # the unit's place among the units run
        self.replies: list[str | None] | None = None  # the batch's, in batch order
        self.errors: dict[int, Exception] = {}  # by batch index
        self.waiting = 0  # requests of the batch not yet answered
        self.parked = 0  # of those, the ones waiting out a retry backoff


def run_units(units: Iterable[Unit[T]], gateway: Gateway, runnable: int) -> list[T]:
    """Drive units to their ends from one loop on the calling thread, and
    return their results in the order of ``units``.

    Each batch's requests go to ``gateway.call`` (any object with the
    gateway's ``call``) at once.  Once every request of a batch is answered,
    the unit is sent the replies, or is thrown the batch's first error in
    batch order.  A batch the gateway answers on the call goes straight on;
    a reply from a sender thread is posted to the loop.  Units are started
    in order while fewer than ``runnable`` have a request queued or on the
    wire; a unit whose requests all wait out a retry backoff is parked and
    does not count.  An error that escapes a unit ends that unit, and the
    first one is raised once the other units are done.
    """
    results: list[T | None] = []
    # (run, change in its parked requests), or (run, 0) for an answer that
    # came on a sender thread.
    events: SimpleQueue[tuple[_Run, int]] = SimpleQueue()
    running: set[_Run] = set()  # units waiting on the gateway
    parked: set[_Run] = set()  # of those, the ones whose requests are all parked
    engine = threading.get_ident()
    unexpected: Exception | None = None

    def answered(run: _Run, index: int, reply: str | None,
                 error: Exception | None) -> None:
        """Fill one slot of the unit's batch; the gateway calls this once per
        request, on this thread when it answers on the call."""
        if error is None:
            run.replies[index] = reply
        else:
            run.errors[index] = error
        if threading.get_ident() == engine:
            run.waiting -= 1
        else:
            events.put((run, 0))

    def parked_change(run: _Run, is_parked: bool) -> None:
        events.put((run, 1 if is_parked else -1))

    def advance(run: _Run) -> None:
        """Resume the unit until it waits on the gateway or ends."""
        nonlocal unexpected
        on_park = partial(parked_change, run)
        try:
            while True:
                if run.errors:  # no local holds it: its traceback may hold this frame
                    requests = run.unit.throw(run.errors[min(run.errors)])
                    run.errors.clear()
                else:
                    requests = run.unit.send(run.replies)
                count = len(requests)
                run.replies = [None] * count
                run.waiting = count
                for index, request in enumerate(requests):
                    gateway.call(request, partial(answered, run, index), on_park=on_park)
                if run.waiting:
                    running.add(run)
                    return
        except StopIteration as stop:
            results[run.index] = stop.value
        except Exception as exc:
            if unexpected is None:
                unexpected = exc
            # A reply still on its way then finds the unit closed.
            run.unit.close()
        # Free it by reference counting: it holds no callback, and the frames
        # of an error it was thrown refer to it.
        run.errors.clear()

    pending = iter(units)
    while True:
        while len(running) - len(parked) < runnable:
            unit = next(pending, None)
            if unit is None:
                break
            run = _Run(unit, len(results))
            results.append(None)
            advance(run)
        if not running:
            break
        run, change = events.get()
        if change:
            run.parked += change
        else:
            run.waiting -= 1
        if run.waiting and run.parked == run.waiting:
            parked.add(run)
        else:
            parked.discard(run)
        if not change and not run.waiting:
            running.discard(run)
            advance(run)
    if unexpected is not None:
        try:
            raise unexpected
        finally:  # its traceback holds this frame
            unexpected = None
    return results


def run_unit(unit: Unit[T], gateway: Gateway) -> T:
    """Drive one unit to its result (see :func:`run_units`)."""
    return run_units((unit,), gateway, 1)[0]


def _ask(req: ChatRequest) -> Unit[str]:
    """The unit that sends one request and returns its reply."""
    return (yield [req])[0]


def backend_config_from_dict(record: Mapping) -> BackendConfig:
    """Build a BackendConfig from a JSON object (run.json / backends.json)."""
    return config_from_dict(BackendConfig, record, "backend")
