import json
import os
import subprocess
import sys
import threading
import re
import time
from concurrent.futures import ThreadPoolExecutor
from datetime import datetime, timedelta, timezone
from email.utils import format_datetime
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import eligo
import eligo.gateway
from eligo import errors
from eligo.corpus import Verdict
from eligo.gateway import (
    BackendConfig,
    ChatRequest,
    Gateway,
    Message,
    MOCK_FALLBACK,
    RETRY_AFTER_CAP_S,
    _retry_delay as retry_delay,
    mock_resolve,
    parse_answer,
    parse_retry_after,
    user_request,
)

from conftest import make_mock_gateway


# Pieces of replies: verdict tokens, markers in any case, quotes, line endings.
REPLY_PIECES = ['"Yes". ', '"No". ', '"Unknown". ', "yes", "no", "unable to determine",
                "EVIDENCE:", "evidence:", "Evidence:", "evıdence:", "END EVIDENCE",
                "end evidence", '"quote"', "  ", ".", "\n", "\r\n", "\r", "\u2028",
                "\x0b", "text", "«q»"]


def full_scan_strip_evidence(text):
    """_strip_evidence without the early return for replies with no marker."""
    lines = text.splitlines()
    kept, quotes = [], []
    i = 0
    while i < len(lines):
        if lines[i].strip().upper() == "EVIDENCE:":
            j = i + 1
            while j < len(lines) and lines[j].strip().upper() != "END EVIDENCE":
                j += 1
            if j < len(lines):
                for raw in lines[i + 1:j]:
                    quote = raw.strip().strip(eligo.gateway._QUOTES).strip()
                    if quote:
                        quotes.append(quote)
                i = j + 1
                continue
        kept.append(lines[i])
        i += 1
    return "\n".join(kept), quotes


def compile_per_call_scan(text):
    """_scan_first_sentence building each phrase's pattern on every call."""
    sentence = eligo.gateway._FIRST_SENTENCE_RE.split(text, maxsplit=1)[0].lower()
    return {phrase for phrase in eligo.gateway._VERDICT_MAP
            if re.search(rf"(?<![a-z0-9]){re.escape(phrase)}(?![a-z0-9])", sentence)}


class TestParseAnswer:
    def test_quoted_yes_with_rationale(self):
        text = ('"Yes". The patient was diagnosed with liver cancer, '
                "which is a malignant liver tumor.")
        answer = parse_answer(text, "tag")
        assert answer.value is Verdict.YES
        assert answer.rationale.startswith("The patient was diagnosed")
        assert answer.parse_fallback is False
        assert answer.provenance == "tag"

    def test_information_not_provided_maps_to_unknown(self):
        text = ('"Information not provided". There is no indication that the '
                "tumor metastasized from another site.")
        answer = parse_answer(text)
        assert answer.value is Verdict.UNKNOWN
        assert answer.parse_fallback is False

    def test_unable_to_determine(self):
        answer = parse_answer('"Unable to determine". The note is silent.')
        assert answer.value is Verdict.UNKNOWN

    def test_refusal_degrades_to_unknown_flagged(self):
        answer = parse_answer("I cannot comply with this.")
        assert answer.value is Verdict.UNKNOWN
        assert answer.parse_fallback is True

    def test_unquoted_verdict_recovered_via_fallback(self):
        answer = parse_answer("Yes, the resection history makes this clear.")
        assert answer.value is Verdict.YES
        assert answer.parse_fallback is True

    def test_ambiguous_first_sentence_stays_unknown(self):
        answer = parse_answer("Yes and no, the note is contradictory.")
        assert answer.value is Verdict.UNKNOWN
        assert answer.parse_fallback is True

    def test_unmapped_quoted_token_falls_back(self):
        answer = parse_answer('"Maybe". Hard to say.')
        assert answer.value is Verdict.UNKNOWN
        assert answer.parse_fallback is True

    def test_evidence_block_extracted_and_removed(self):
        text = ('"No". The type is trabecular.\n'
                'EVIDENCE:\n'
                '"hepatocellular carcinoma (trabecular type)"\n'
                '"no mixed features"\n'
                'END EVIDENCE')
        answer = parse_answer(text)
        assert answer.evidence == (
            "hepatocellular carcinoma (trabecular type)",
            "no mixed features",
        )
        assert "EVIDENCE" not in answer.rationale

    def test_dangling_evidence_marker_kept_in_rationale(self):
        answer = parse_answer('"Yes". Reasoning.\nEVIDENCE:\n"quote without end"')
        assert answer.evidence == ()
        assert "quote without end" in answer.rationale

    def test_empty_evidence_lines_dropped(self):
        text = '"Yes". r\nEVIDENCE:\n\n"  "\n"real quote"\nEND EVIDENCE'
        assert parse_answer(text).evidence == ("real quote",)

    def test_case_insensitive_verdicts(self):
        assert parse_answer('"YES". x').value is Verdict.YES
        assert parse_answer('"unknown". x').value is Verdict.UNKNOWN

    @given(st.lists(st.sampled_from(REPLY_PIECES), max_size=12).map("".join))
    @example('"Yes". a\r\nb\r\n')
    @example('"No". a\r\nevidence:\r\n"q"\r\nend evidence\r\nb')
    @example('"Yes". r\nEvIdEnCe:\n"never closed"')
    @example("maybe yes\rthen no")
    @example('"No". r\n evıdence: \n"q"\nEND EVIDENCE')  # dotless i upper-cases to I
    @settings(max_examples=300, deadline=None)
    def test_same_answer_as_the_full_scan(self, text):
        fast = parse_answer(text, "tag")
        with mock.patch.object(eligo.gateway, "_strip_evidence", full_scan_strip_evidence), \
                mock.patch.object(eligo.gateway, "_scan_first_sentence",
                                  compile_per_call_scan):
            assert parse_answer(text, "tag") == fast

    @given(st.text(max_size=400))
    @settings(max_examples=200, deadline=None)
    def test_total_and_idempotent_on_rationale(self, text):
        first = parse_answer(text)
        assert first.value in (Verdict.YES, Verdict.NO, Verdict.UNKNOWN)
        again = parse_answer(first.rationale)
        assert again.rationale == first.rationale


class TestChatRequest:
    def test_requires_messages(self):
        with pytest.raises(ValueError):
            ChatRequest(messages=()).validate()

    def test_rejects_empty_content(self):
        with pytest.raises(ValueError):
            ChatRequest(messages=(Message("user", ""),)).validate()

    def test_rejects_unknown_speaker(self):
        with pytest.raises(ValueError):
            ChatRequest(messages=(Message("narrator", "x"),)).validate()

    def test_rejects_negative_temperature(self):
        with pytest.raises(ValueError):
            user_request("x", temperature=-1).validate()

    def test_default_temperature_zero(self):
        assert user_request("x").temperature == 0


class TestBackendConfig:
    def test_http_requires_base_url(self):
        with pytest.raises(ValueError):
            BackendConfig(kind="http").validate()

    def test_max_inflight_bound(self):
        with pytest.raises(ValueError):
            BackendConfig(kind="mock", max_inflight=0).validate()

    def test_timeout_positive(self):
        with pytest.raises(ValueError):
            BackendConfig(kind="mock", timeout_ms=0).validate()


class TestMockBackend:
    def test_fixture_passthrough(self):
        fixtures = {"n1|Q1|roleCRC": "canned reply"}
        req = user_request("prompt", tag="n1|Q1|roleCRC")
        assert mock_resolve(req, fixtures) == "canned reply"

    def test_miss_is_deterministic_fallback(self):
        req = user_request("prompt", tag="absent")
        assert mock_resolve(req, {}) == MOCK_FALLBACK
        assert mock_resolve(req, {}) == MOCK_FALLBACK

    def test_equal_streams_for_equal_inputs(self):
        fixtures = {"a": "one", "b": "two"}
        tags = ["a", "b", "missing", "a"]
        def run():
            gateway = make_mock_gateway(fixtures)
            return [gateway.complete(user_request("x", tag=tag)) for tag in tags]
        assert run() == run()

    def test_seeded_fixture_preferred(self):
        fixtures = {"a": "plain", "s1|a": "seeded"}
        gateway = make_mock_gateway(fixtures, seed="s1")
        assert gateway.complete(user_request("x", tag="a")) == "seeded"
        gateway = make_mock_gateway(fixtures)
        assert gateway.complete(user_request("x", tag="a")) == "plain"

    def test_peak_inflight_bounded(self):
        gateway = make_mock_gateway({}, latency_s=0.002, max_inflight=3)
        with ThreadPoolExecutor(max_workers=40) as pool:
            list(pool.map(
                lambda i: gateway.complete(user_request("x", tag=str(i))), range(120)
            ))
        assert gateway.transport.calls == 120
        assert 1 <= gateway.transport.peak_inflight <= 3

    def test_peak_inflight_one_when_serialized(self):
        gateway = make_mock_gateway({}, latency_s=0.001, max_inflight=1)
        with ThreadPoolExecutor(max_workers=16) as pool:
            list(pool.map(
                lambda i: gateway.complete(user_request("x", tag=str(i))), range(40)
            ))
        assert gateway.transport.peak_inflight == 1


# -- scripted HTTP backend ------------------------------------------------------

class _ScriptedHandler(BaseHTTPRequestHandler):
    script = []          # list of (status, payload dict or raw str[, headers])
    calls = []
    delay_s = 0.0
    lock = threading.Lock()

    def do_POST(self):
        with self.lock:
            index = len(self.calls)
            length = int(self.headers.get("Content-Length", 0))
            body = json.loads(self.rfile.read(length)) if length else {}
            self.calls.append({"path": self.path, "body": body,
                               "auth": self.headers.get("Authorization")})
        if self.delay_s:
            time.sleep(self.delay_s)
        status, payload, *extra = self.script[min(index, len(self.script) - 1)]
        data = (json.dumps(payload) if isinstance(payload, dict) else payload).encode()
        self.send_response(status)
        for name, value in (extra[0] if extra else {}).items():
            self.send_header(name, value)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture(scope="module")
def _http_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _ScriptedHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    server.server_close()
    thread.join()


@pytest.fixture
def http_backend(_http_server):
    _ScriptedHandler.script = []
    _ScriptedHandler.calls = []
    _ScriptedHandler.delay_s = 0.0
    return _http_server, _ScriptedHandler


def _ok_payload(content="fine"):
    return {"choices": [{"message": {"role": "assistant", "content": content}}]}


def _http_gateway(base_url, retry_limit=3):
    cfg = BackendConfig(kind="http", base_url=base_url, model_name="test-model",
                        timeout_ms=5000, retry_limit=retry_limit, backoff_s=0.0)
    return Gateway(cfg)


class TestHttpBackend:
    def test_success_returns_content(self, http_backend):
        base_url, handler = http_backend
        handler.script = [(200, _ok_payload("hello"))]
        gateway = _http_gateway(base_url)
        assert gateway.complete(user_request("hi", tag="t")) == "hello"
        sent = handler.calls[0]
        assert sent["path"] == "/v1/chat/completions"
        assert sent["body"]["model"] == "test-model"
        assert sent["body"]["messages"] == [{"role": "user", "content": "hi"}]

    def test_bearer_token_passthrough(self, http_backend):
        base_url, handler = http_backend
        handler.script = [(200, _ok_payload())]
        cfg = BackendConfig(kind="http", base_url=base_url, model_name="m",
                            api_key="sekrit", backoff_s=0.0)
        Gateway(cfg).complete(user_request("hi"))
        assert handler.calls[0]["auth"] == "Bearer sekrit"

    def test_retries_500_then_succeeds(self, http_backend):
        base_url, handler = http_backend
        handler.script = [(500, {"error": "boom"}), (500, {"error": "boom"}),
                          (200, _ok_payload("ok"))]
        gateway = _http_gateway(base_url, retry_limit=3)
        assert gateway.complete(user_request("hi")) == "ok"
        assert len(handler.calls) == 3  # success after 2 retries

    def test_exhausted_retries(self, http_backend):
        base_url, handler = http_backend
        handler.script = [(503, {"error": "down"})]
        gateway = _http_gateway(base_url, retry_limit=2)
        with pytest.raises(errors.ExhaustedRetriesError) as excinfo:
            gateway.complete(user_request("hi"))
        assert len(handler.calls) == 3  # 1 attempt + 2 retries
        assert isinstance(excinfo.value.last_error, errors.BackendError)

    def test_client_error_not_retried(self, http_backend):
        base_url, handler = http_backend
        handler.script = [(404, {"error": "nope"})]
        gateway = _http_gateway(base_url, retry_limit=3)
        with pytest.raises(errors.BackendError) as excinfo:
            gateway.complete(user_request("hi"))
        assert len(handler.calls) == 1
        assert excinfo.value.status == 404
        assert "nope" in str(excinfo.value)

    def test_malformed_payload_is_backend_error(self, http_backend):
        base_url, handler = http_backend
        handler.script = [(200, {"unexpected": True})]
        with pytest.raises(errors.BackendError):
            _http_gateway(base_url, retry_limit=0).complete(user_request("hi"))

    def test_slow_backend_times_out(self, http_backend):
        base_url, handler = http_backend
        handler.script = [(200, _ok_payload())]
        handler.delay_s = 0.5
        cfg = BackendConfig(kind="http", base_url=base_url, model_name="m",
                            timeout_ms=100, retry_limit=0, backoff_s=0.0)
        with pytest.raises(errors.ExhaustedRetriesError) as excinfo:
            Gateway(cfg).complete(user_request("hi"))
        assert isinstance(excinfo.value.last_error, errors.TimeoutError)

    def test_unreachable_host_raises_transport_error(self):
        cfg = BackendConfig(kind="http", base_url="http://127.0.0.1:9",
                            model_name="m", retry_limit=0, backoff_s=0.0,
                            timeout_ms=500)
        with pytest.raises(errors.ExhaustedRetriesError) as excinfo:
            Gateway(cfg).complete(user_request("hi"))
        assert isinstance(excinfo.value.last_error, errors.TransportError)


@pytest.fixture
def recorded_sleeps(monkeypatch):
    """Backoff delays the gateway schedules; each retry is then sent at once."""
    delays = []

    def record(error, backoff_s, attempt):
        delays.append(retry_delay(error, backoff_s, attempt))
        return 0.0

    monkeypatch.setattr("eligo.gateway._retry_delay", record)
    return delays


class TestRetryAfter:
    @staticmethod
    def _gateway(base_url, backoff_s=0.25):
        return Gateway(BackendConfig(kind="http", base_url=base_url, model_name="m",
                                     retry_limit=1, backoff_s=backoff_s))

    @pytest.mark.parametrize("value, seconds", [
        ("7", 7.0), (" 0 ", 0.0),
        ("Sun, 06 Nov 1994 08:49:37 GMT", 0.0),  # a past date: retry now
        (None, None), ("", None), ("-3", None), ("1.5", None), ("soon", None),
        ("²", None),
    ])
    def test_parse(self, value, seconds):
        assert parse_retry_after(value) == seconds

    def test_parse_future_http_date(self):
        later = datetime.now(timezone.utc) + timedelta(seconds=30)
        assert 28.0 < parse_retry_after(format_datetime(later, usegmt=True)) <= 30.0

    def test_429_delta_seconds_stretches_backoff(self, http_backend, recorded_sleeps):
        base_url, handler = http_backend
        handler.script = [(429, {"error": "slow down"}, {"Retry-After": "3"}),
                          (200, _ok_payload("ok"))]
        assert self._gateway(base_url).complete(user_request("hi")) == "ok"
        assert recorded_sleeps == [3.0]

    def test_503_http_date(self, http_backend, recorded_sleeps):
        base_url, handler = http_backend
        later = datetime.now(timezone.utc) + timedelta(seconds=30)
        handler.script = [(503, {"error": "down"},
                           {"Retry-After": format_datetime(later, usegmt=True)}),
                          (200, _ok_payload("ok"))]
        assert self._gateway(base_url).complete(user_request("hi")) == "ok"
        assert len(recorded_sleeps) == 1
        assert 28.0 < recorded_sleeps[0] <= 30.0

    def test_backoff_wins_when_longer(self, http_backend, recorded_sleeps):
        base_url, handler = http_backend
        handler.script = [(429, {"error": "slow down"}, {"Retry-After": "1"}),
                          (200, _ok_payload("ok"))]
        self._gateway(base_url, backoff_s=2.0).complete(user_request("hi"))
        assert recorded_sleeps == [2.0]

    def test_capped(self, http_backend, recorded_sleeps):
        base_url, handler = http_backend
        handler.script = [(429, {"error": "slow down"}, {"Retry-After": "86400"}),
                          (200, _ok_payload("ok"))]
        self._gateway(base_url).complete(user_request("hi"))
        assert recorded_sleeps == [RETRY_AFTER_CAP_S]

    def test_honoured_without_backoff(self, http_backend, recorded_sleeps):
        base_url, handler = http_backend
        handler.script = [(429, {"error": "slow down"}, {"Retry-After": "2"}),
                          (200, _ok_payload("ok"))]
        self._gateway(base_url, backoff_s=0.0).complete(user_request("hi"))
        assert recorded_sleeps == [2.0]

    def test_ignored_on_other_statuses(self, http_backend, recorded_sleeps):
        base_url, handler = http_backend
        handler.script = [(500, {"error": "boom"}, {"Retry-After": "9"}),
                          (200, _ok_payload("ok"))]
        self._gateway(base_url).complete(user_request("hi"))
        assert recorded_sleeps == [0.25]

    def test_carried_on_backend_error(self, http_backend, recorded_sleeps):
        base_url, handler = http_backend
        handler.script = [(429, {"error": "slow down"}, {"Retry-After": "4"})]
        with pytest.raises(errors.ExhaustedRetriesError) as excinfo:
            self._gateway(base_url).complete(user_request("hi"))
        assert excinfo.value.last_error.retry_after == 4.0
        assert recorded_sleeps == [4.0]  # no wait after the last attempt


class _RefuseFirstAttempt:
    """Transport that answers 429 to the first attempt of each listed tag."""

    def __init__(self, refused_tags, latency_s=0.0):
        self.refused = set(refused_tags)
        self.latency_s = latency_s
        self.sent = []  # tags in the order their attempts went on the wire
        self.peak_inflight = 0
        self._inflight = 0
        self._lock = threading.Lock()

    def send(self, req):
        with self._lock:
            self._inflight += 1
            self.peak_inflight = max(self.peak_inflight, self._inflight)
            self.sent.append(req.tag)
            refuse = req.tag in self.refused
            self.refused.discard(req.tag)
        try:
            if self.latency_s:
                time.sleep(self.latency_s)
            if refuse:
                raise errors.BackendError("rate limited", status=429)
            return f"reply to {req.tag}"
        finally:
            with self._lock:
                self._inflight -= 1


class TestSlotsDuringBackoff:
    def test_backoff_frees_the_slot(self, monkeypatch):
        transport = _RefuseFirstAttempt({"a"})
        cfg = BackendConfig(kind="mock", max_inflight=1, backoff_s=0.5)
        gateway = Gateway(cfg, transport=transport)
        b_future = []

        def backoff(error, backoff_s, attempt):
            # Runs on the only sender after a's first failure: b is queued
            # only now, and a waits out its backoff on the heap meanwhile.
            b_future.append(gateway.submit(user_request("x", tag="b")))
            return retry_delay(error, backoff_s, attempt)

        monkeypatch.setattr("eligo.gateway._retry_delay", backoff)
        a_future = gateway.submit(user_request("x", tag="a"))
        assert a_future.result(timeout=5.0) == "reply to a"
        assert b_future[0].result(timeout=5.0) == "reply to b"
        assert transport.sent == ["a", "b", "a"]
        assert transport.peak_inflight == 1
        gateway.close()

    def test_senders_bounded_under_200_callers(self):
        gateway = make_mock_gateway({}, latency_s=0.002, max_inflight=3)
        senders = []
        send = gateway.transport.send

        def counting_send(req):
            senders.append(len(gateway._senders))
            return send(req)

        gateway.transport.send = counting_send
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=200) as pool:
                futures = [pool.submit(gateway.complete, user_request("x", tag=f"u{i}"))
                           for i in range(200)]
                replies = [future.result(timeout=30.0) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        gateway.close()
        assert replies == [MOCK_FALLBACK] * 200
        assert gateway.transport.calls == 200
        assert 1 <= gateway.transport.peak_inflight <= 3
        assert 1 <= max(senders) <= 3
        assert gateway._outstanding == 0  # no lost update on the shared count

    def test_429_storm_keeps_inflight_bound(self):
        tags = [f"u{i}" for i in range(60)]
        transport = _RefuseFirstAttempt(tags, latency_s=0.001)
        cfg = BackendConfig(kind="mock", max_inflight=3, backoff_s=0.005)
        gateway = Gateway(cfg, transport=transport)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=30) as pool:
                replies = list(pool.map(
                    lambda tag: gateway.complete(user_request("x", tag=tag)), tags
                ))
        finally:
            sys.setswitchinterval(interval)
        assert replies == [f"reply to {tag}" for tag in tags]
        assert len(transport.sent) == 2 * len(tags)
        assert 1 <= transport.peak_inflight <= 3


class TestCallbacks:
    """Gateway.call completes each request through its callback, once."""

    @staticmethod
    def recorder():
        outcomes = []
        answered = threading.Event()

        def done(reply, error):
            outcomes.append((threading.current_thread().name, reply, error))
            answered.set()

        return outcomes, answered, done

    def test_mock_without_latency_answers_on_the_calling_thread(self):
        gateway = make_mock_gateway({"a": "canned"})
        outcomes, _, done = self.recorder()
        gateway.call(user_request("x", tag="a"), done)
        assert outcomes == [(threading.current_thread().name, "canned", None)]
        assert gateway._senders == []
        gateway.close()

    def test_parked_inline_send_is_answered_once_by_a_sender(self):
        transport = _RefuseFirstAttempt({"a"})
        transport.waits = False
        gateway = Gateway(BackendConfig(kind="mock", backoff_s=0.02), transport=transport)
        outcomes, answered, done = self.recorder()
        parks = []
        gateway.call(user_request("x", tag="a"), done, on_park=parks.append)
        assert outcomes == []  # refused on the calling thread, then parked
        assert answered.wait(timeout=5.0)
        gateway.close()
        assert outcomes == [("eligo-sender", "reply to a", None)]
        assert parks == [True, False]
        assert transport.sent == ["a", "a"]

    def test_close_fails_queued_and_parked_callbacks(self):
        release = threading.Event()

        class Transport:
            sent = []

            def send(self, req):
                self.sent.append(req.tag)
                if req.tag == "parked":
                    raise errors.BackendError("rate limited", status=429)
                release.wait(timeout=5.0)
                return f"reply to {req.tag}"

        cfg = BackendConfig(kind="mock", max_inflight=1, backoff_s=30.0)
        gateway = Gateway(cfg, transport=Transport())
        parked_outcomes, parked, on_parked = self.recorder()
        gateway.call(user_request("x", tag="parked"), on_parked)
        deadline = time.monotonic() + 5.0
        while not gateway._parked and time.monotonic() < deadline:
            time.sleep(0.005)
        wire_outcomes, on_wire, on_wire_done = self.recorder()
        gateway.call(user_request("x", tag="wire"), on_wire_done)
        while Transport.sent[-1:] != ["wire"] and time.monotonic() < deadline:
            time.sleep(0.005)
        queued_outcomes, queued, on_queued = self.recorder()
        gateway.call(user_request("x", tag="queued"), on_queued)
        closer = threading.Thread(target=gateway.close, name="closer")
        closer.start()
        # The queued and parked calls fail before the call on the wire ends.
        assert queued.wait(timeout=5.0) and parked.wait(timeout=5.0)
        assert not on_wire.is_set()
        release.set()
        closer.join(timeout=5.0)
        assert not closer.is_alive()
        for outcomes in (queued_outcomes, parked_outcomes):
            [(thread, reply, error)] = outcomes
            assert (thread, reply) == ("closer", None)
            assert isinstance(error, errors.TransportError)
        assert wire_outcomes == [("eligo-sender", "reply to wire", None)]
        assert Transport.sent == ["parked", "wire"]

    def test_a_submitted_future_cannot_be_cancelled_under_its_sender(self):
        gateway = make_mock_gateway({}, latency_s=0.05, max_inflight=1)
        future = gateway.submit(user_request("x", tag="a"))
        assert not future.cancel()
        assert future.result(timeout=5.0) == MOCK_FALLBACK
        # The sender survived to answer the next call.
        assert gateway.submit(user_request("x", tag="b")).result(timeout=5.0) == \
            MOCK_FALLBACK
        gateway.close()

    def test_a_callback_that_raises_on_a_sender_does_not_take_its_slot(self, caplog):
        gateway = make_mock_gateway({}, latency_s=0.05, max_inflight=1)

        def faulty(reply, error):
            raise RuntimeError("bug in a callback")

        gateway.call(user_request("x", tag="a"), faulty)
        # Queued behind the faulty call, for the only slot.
        future = gateway.submit(user_request("x", tag="b"))
        assert future.result(timeout=1.0) == MOCK_FALLBACK
        gateway.close()
        [record] = [record for record in caplog.records if record.exc_info]
        assert record.levelname == "ERROR"
        assert str(record.exc_info[1]) == "bug in a callback"


class _KeepAliveHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    client_ports = []
    lock = threading.Lock()

    def do_POST(self):
        self.rfile.read(int(self.headers.get("Content-Length", 0)))
        with self.lock:
            self.client_ports.append(self.client_address[1])
        data = json.dumps(_ok_payload()).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


def test_http_connections_reused_up_to_max_inflight():
    _KeepAliveHandler.client_ports = []
    server = ThreadingHTTPServer(("127.0.0.1", 0), _KeepAliveHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    cfg = BackendConfig(kind="http", base_url=f"http://127.0.0.1:{server.server_address[1]}",
                        model_name="m", max_inflight=2, backoff_s=0.0)
    gateway = Gateway(cfg)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            list(pool.map(lambda i: gateway.complete(user_request("x", tag=str(i))),
                          range(20)))
    finally:
        gateway.close()
        server.shutdown()
        server.server_close()
        thread.join(timeout=5.0)
    assert not thread.is_alive()
    assert len(_KeepAliveHandler.client_ports) == 20
    assert len(set(_KeepAliveHandler.client_ports)) <= 2


def test_cli_import_loads_no_http_modules():
    # http.client and email.utils are imported where HttpTransport and
    # Retry-After parsing use them, so a mock run never pays for them.
    code = ("import sys, eligo.cli; print(sorted(m for m in sys.modules if m in "
            "{'http.client', 'email', 'ssl', 'socket'} or m.startswith('email.')))")
    src = os.path.dirname(os.path.dirname(eligo.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    loaded = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                            capture_output=True, text=True).stdout.strip()
    assert loaded == "[]"
