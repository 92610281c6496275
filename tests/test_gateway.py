import json
import logging
import os
import resource
import socket
import subprocess
import sys
import threading
import re
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
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
from eligo.corpus import ParsedAnswer, Verdict
from eligo.gateway import (
    BackendConfig,
    ChatRequest,
    Gateway,
    MOCK_FALLBACK,
    RETRY_DELAY_CAP_S,
    _retry_delay as retry_delay,
    backend_config_from_dict,
    mock_resolve,
    parse_answer,
    parse_retry_after,
    run_unit,
    run_units,
)

from conftest import assert_read_only, make_mock_gateway


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


# parse_answer and _strip_evidence as they were before parsing was reworked
# for speed, kept verbatim as the reference the current parser must equal.
_REF_QUOTES = "\"'“”‘’«»"
_REF_LEAD_TOKEN_RE = re.compile(
    rf"^\s*[{_REF_QUOTES}]\s*([^{_REF_QUOTES}]{{1,40}}?)\s*[{_REF_QUOTES}]\s*[.:,;!]?\s*"
)
_REF_FIRST_SENTENCE_RE = re.compile(r"(?<=[.!?])\s+|\n")
_REF_VERDICT_MAP = {
    "yes": Verdict.YES,
    "no": Verdict.NO,
    "unknown": Verdict.UNKNOWN,
    "unable to determine": Verdict.UNKNOWN,
    "information not provided": Verdict.UNKNOWN,
}
_REF_PHRASE_RES = {
    phrase: re.compile(rf"(?<![a-z0-9]){re.escape(phrase)}(?![a-z0-9])")
    for phrase in _REF_VERDICT_MAP
}


def reference_strip_evidence(text):
    lines = text.splitlines()
    if "EVIDENCE:" not in text.upper():
        return "\n".join(lines), []
    kept = []
    quotes = []
    i = 0
    while i < len(lines):
        if lines[i].strip().upper() == "EVIDENCE:":
            j = i + 1
            while j < len(lines) and lines[j].strip().upper() != "END EVIDENCE":
                j += 1
            if j < len(lines):  # complete block
                for raw in lines[i + 1:j]:
                    quote = raw.strip().strip(_REF_QUOTES).strip()
                    if quote:
                        quotes.append(quote)
                i = j + 1
                continue
        kept.append(lines[i])
        i += 1
    return "\n".join(kept), quotes


def reference_parse_answer(text, provenance=""):
    remaining, evidence = reference_strip_evidence(text)
    value = None
    while True:
        match = _REF_LEAD_TOKEN_RE.match(remaining)
        if not match:
            break
        token = match.group(1).strip().strip(".:,;!").lower()
        mapped = _REF_VERDICT_MAP.get(token)
        if mapped is None:
            break
        if value is None:
            value = mapped
        remaining = remaining[match.end():]
    if value is not None:
        return ParsedAnswer(value, remaining.strip(), tuple(evidence), provenance)
    rationale = remaining.strip()
    sentence = _REF_FIRST_SENTENCE_RE.split(rationale, maxsplit=1)[0].lower()
    phrases = {phrase for phrase, pattern in _REF_PHRASE_RES.items()
               if pattern.search(sentence)}
    if len(phrases) == 1:
        value = _REF_VERDICT_MAP[phrases.pop()]
    else:
        value = Verdict.UNKNOWN
    return ParsedAnswer(value, rationale, tuple(evidence), provenance, parse_fallback=True)


# Replies that reach each branch of the parser, with every kind of line break,
# marker spelling and quote character it must treat as the reference does.
PINNED_REPLIES = [
    # Line breaks that str.splitlines() splits on besides "\n".
    '"Yes". first\r\nsecond\r\n',
    '"No". a\rb\r',
    '"Yes". a\x0bb\x0cc',
    '"No". a\u2028b\u2029c\x85d\x1ce\x1df\x1eg',
    '"Yes". a\u2028b\u2029c\u2028',
    '"No"\u2028EVIDENCE:\u2028"q"\u2028END EVIDENCE',
    '"Yes".\r\nEVIDENCE:\r\n"crlf quote"\r\nEND EVIDENCE\r\nafter',
    '"No". r\u2028EVIDENCE:\u2028"q"\u2028END EVIDENCE',
    '"Yes". r\x0cevidence:\x0b"q"\x0cend evidence',
    # Markers in mixed case and with surrounding spaces.
    '"Yes". r\nEvIdEnCe:\n"q1"\n  "q2"  \nEnD eViDeNcE\nafter',
    '"No". r\n   EVIDENCE:   \n"q"\n\t END EVIDENCE \t',
    '"No". r\n evıdence: \n"q"\nEND EVIDENCE',  # dotless i upper-cases to I
    '"Yes". r\nEVIDENCE: extra\n"q"\nEND EVIDENCE',  # not a marker line
    '"Yes". EVIDENCE:\n"q"\nEND EVIDENCE',  # marker not on its own line
    '"Yes". r\nEVIDENCE:\n"a"\nEND EVIDENCE\nmid\nEVIDENCE:\n"b"\nEND EVIDENCE',
    '"Yes". r\nEVIDENCE:\nEVIDENCE:\n"q"\nEND EVIDENCE',
    '"Yes". r\nEND EVIDENCE\nEVIDENCE:\n"q"\nEND EVIDENCE',
    '"Yes". r\nEVIDENCE:\nEND EVIDENCE',  # an empty block
    # An unterminated block, alone and after a complete one.
    '"Yes". Reasoning.\nEVIDENCE:\n"quote without end"',
    '"No". r\nEVIDENCE:\n"a"\nEND EVIDENCE\nEVIDENCE:\n"never closed"\nmore',
    'EVIDENCE:\n"q"\nEND EVIDENCE\n"Yes". after the block',
    # Repeated lead tokens, unmapped ones, and a token over 40 characters.
    '"Yes" "No". later token dropped',
    '"Yes". "No". "Unknown": all three',
    '"No" "Maybe". stops at the unmapped one',
    '"Maybe" "Yes". first token unmapped',
    '"' + "x" * 41 + '". too long',
    '"' + "x" * 40 + '". just fits',
    '"Yes' + "." * 37 + '". a 40-character token that names a verdict',
    '"Yes' + "." * 38 + '". one character too many',
    '"  Yes' + "!" * 37 + '  ". padded',
    '"  Yes  " . spaced',
    '"Yes.". punctuation inside',
    '"Yes"',
    '"Yes"   ',
    '  \n "No"\n: r',
    '""',
    '" ". blank token',
    # Every quote character, opening and closing.
    *[f'{q}Yes{q}. r' for q in "\"'“”‘’«»"],
    '“Unable to determine”. curly',
    "«No» ‘Yes’. mixed pairs",
    '"Yes". r\nEVIDENCE:\n«guillemets»\n‘single’\n“double”\n\'plain\'\nEND EVIDENCE',
    # First-sentence fallbacks with zero, one and two phrases.
    "I cannot comply with this.",
    "Yes, the resection history makes this clear.",
    "The answer is no. Yes appears later.",
    "Unable to determine from this note. Yes.",
    "Yes and no, the note is contradictory.",
    "unknown? information not provided",
    "yesterday and nobody: no whole words",
    "first line\nyes on the second line",
    "",
    "   ",
]


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

    @pytest.mark.parametrize("text", PINNED_REPLIES)
    def test_pinned_replies_parse_as_the_reference(self, text):
        assert parse_answer(text, "tag") == reference_parse_answer(text, "tag")

    @given(st.lists(st.one_of(st.sampled_from(REPLY_PIECES + PINNED_REPLIES),
                              st.text(max_size=12)), max_size=10).map("".join))
    @settings(max_examples=500, deadline=None)
    def test_same_answer_as_the_reference(self, text):
        assert parse_answer(text, "tag") == reference_parse_answer(text, "tag")

    @given(st.text(max_size=400))
    @settings(max_examples=200, deadline=None)
    def test_total_and_idempotent_on_rationale(self, text):
        first = parse_answer(text)
        assert first.value in (Verdict.YES, Verdict.NO, Verdict.UNKNOWN)
        again = parse_answer(first.rationale)
        assert again.rationale == first.rationale


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

    def test_from_dict_takes_an_int_for_a_float_and_null_for_a_none_default(self):
        cfg = backend_config_from_dict({"kind": "mock", "backoff_s": 0,
                                        "fixtures_path": None, "api_key": None})
        assert cfg == BackendConfig(kind="mock", backoff_s=0)


class TestMockBackend:
    def test_fixture_passthrough(self):
        fixtures = {"n1|Q1|roleCRC": "canned reply"}
        req = ChatRequest("prompt", "n1|Q1|roleCRC")
        assert mock_resolve(req, fixtures) == "canned reply"

    def test_miss_is_deterministic_fallback(self):
        req = ChatRequest("prompt", "absent")
        assert mock_resolve(req, {}) == MOCK_FALLBACK
        assert mock_resolve(req, {}) == MOCK_FALLBACK

    def test_equal_streams_for_equal_inputs(self):
        fixtures = {"a": "one", "b": "two"}
        tags = ["a", "b", "missing", "a"]
        def run():
            gateway = make_mock_gateway(fixtures)
            return [gateway.complete(ChatRequest("x", tag)) for tag in tags]
        assert run() == run()

    def test_peak_inflight_bounded(self):
        gateway = make_mock_gateway({}, latency_s=0.002, max_inflight=3)
        with ThreadPoolExecutor(max_workers=40) as pool:
            list(pool.map(
                lambda i: gateway.complete(ChatRequest("x", str(i))), range(120)
            ))
        assert gateway.transport.calls == 120
        assert 1 <= gateway.transport.peak_inflight <= 3

    def test_peak_inflight_one_when_serialized(self):
        gateway = make_mock_gateway({}, latency_s=0.001, max_inflight=1)
        with ThreadPoolExecutor(max_workers=16) as pool:
            list(pool.map(
                lambda i: gateway.complete(ChatRequest("x", str(i))), range(40)
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
            raw = self.rfile.read(length)
            body = json.loads(raw) if length else {}
            self.calls.append({"path": self.path, "body": body, "raw": raw,
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
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.01}, daemon=True)
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
        assert gateway.complete(ChatRequest("hi", "t")) == "hello"
        sent = handler.calls[0]
        assert sent["path"] == "/v1/chat/completions"
        assert sent["raw"] == (b'{"model": "test-model", "messages": [{"role": "user", '
                               b'"content": "hi"}], "temperature": 0.0, "max_tokens": 1024}')

    def test_bearer_token_passthrough(self, http_backend):
        base_url, handler = http_backend
        handler.script = [(200, _ok_payload())]
        cfg = BackendConfig(kind="http", base_url=base_url, model_name="m",
                            api_key="sekrit", backoff_s=0.0)
        Gateway(cfg).complete(ChatRequest("hi"))
        assert handler.calls[0]["auth"] == "Bearer sekrit"

    def test_retries_500_then_succeeds(self, http_backend):
        base_url, handler = http_backend
        handler.script = [(500, {"error": "boom"}), (500, {"error": "boom"}),
                          (200, _ok_payload("ok"))]
        gateway = _http_gateway(base_url, retry_limit=3)
        assert gateway.complete(ChatRequest("hi")) == "ok"
        assert len(handler.calls) == 3  # success after 2 retries

    def test_exhausted_retries(self, http_backend):
        base_url, handler = http_backend
        handler.script = [(503, {"error": "down"})]
        gateway = _http_gateway(base_url, retry_limit=2)
        with pytest.raises(errors.ExhaustedRetriesError) as excinfo:
            gateway.complete(ChatRequest("hi"))
        assert len(handler.calls) == 3  # 1 attempt + 2 retries
        assert isinstance(excinfo.value.last_error, errors.BackendError)

    def test_client_error_not_retried(self, http_backend):
        base_url, handler = http_backend
        handler.script = [(404, {"error": "nope"})]
        gateway = _http_gateway(base_url, retry_limit=3)
        with pytest.raises(errors.BackendError) as excinfo:
            gateway.complete(ChatRequest("hi"))
        assert len(handler.calls) == 1
        assert excinfo.value.status == 404
        assert "nope" in str(excinfo.value)

    @pytest.mark.parametrize("payload, message", [
        ({"unexpected": True}, "malformed completion payload"),
        (_ok_payload(["fine"]), "completion content is not text"),
    ], ids=["no-choices", "content-a-list"])
    def test_malformed_payload_is_backend_error(self, http_backend, payload, message):
        base_url, handler = http_backend
        handler.script = [(200, payload)]
        with pytest.raises(errors.BackendError, match=message):
            _http_gateway(base_url, retry_limit=0).complete(ChatRequest("hi"))

    def test_slow_backend_times_out(self, http_backend):
        base_url, handler = http_backend
        handler.script = [(200, _ok_payload())]
        handler.delay_s = 0.5
        cfg = BackendConfig(kind="http", base_url=base_url, model_name="m",
                            timeout_ms=100, retry_limit=0, backoff_s=0.0)
        with pytest.raises(errors.ExhaustedRetriesError) as excinfo:
            Gateway(cfg).complete(ChatRequest("hi"))
        assert isinstance(excinfo.value.last_error, errors.TimeoutError)

    def test_unreachable_host_raises_transport_error(self):
        cfg = BackendConfig(kind="http", base_url="http://127.0.0.1:9",
                            model_name="m", retry_limit=0, backoff_s=0.0,
                            timeout_ms=500)
        with pytest.raises(errors.ExhaustedRetriesError) as excinfo:
            Gateway(cfg).complete(ChatRequest("hi"))
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
        ("Sun, 06 Nov 1994 08:49:37 -0000", 0.0),  # parsed without a zone: UTC
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
        assert self._gateway(base_url).complete(ChatRequest("hi")) == "ok"
        assert recorded_sleeps == [3.0]

    def test_503_http_date(self, http_backend, recorded_sleeps):
        base_url, handler = http_backend
        later = datetime.now(timezone.utc) + timedelta(seconds=30)
        handler.script = [(503, {"error": "down"},
                           {"Retry-After": format_datetime(later, usegmt=True)}),
                          (200, _ok_payload("ok"))]
        assert self._gateway(base_url).complete(ChatRequest("hi")) == "ok"
        assert len(recorded_sleeps) == 1
        assert 28.0 < recorded_sleeps[0] <= 30.0

    def test_backoff_wins_when_longer(self, http_backend, recorded_sleeps):
        base_url, handler = http_backend
        handler.script = [(429, {"error": "slow down"}, {"Retry-After": "1"}),
                          (200, _ok_payload("ok"))]
        self._gateway(base_url, backoff_s=2.0).complete(ChatRequest("hi"))
        assert recorded_sleeps == [2.0]

    def test_capped(self, http_backend, recorded_sleeps):
        base_url, handler = http_backend
        handler.script = [(429, {"error": "slow down"}, {"Retry-After": "86400"}),
                          (200, _ok_payload("ok"))]
        self._gateway(base_url).complete(ChatRequest("hi"))
        assert recorded_sleeps == [RETRY_DELAY_CAP_S]

    def test_honoured_without_backoff(self, http_backend, recorded_sleeps):
        base_url, handler = http_backend
        handler.script = [(429, {"error": "slow down"}, {"Retry-After": "2"}),
                          (200, _ok_payload("ok"))]
        self._gateway(base_url, backoff_s=0.0).complete(ChatRequest("hi"))
        assert recorded_sleeps == [2.0]

    def test_ignored_on_other_statuses(self, http_backend, recorded_sleeps):
        base_url, handler = http_backend
        handler.script = [(500, {"error": "boom"}, {"Retry-After": "9"}),
                          (200, _ok_payload("ok"))]
        self._gateway(base_url).complete(ChatRequest("hi"))
        assert recorded_sleeps == [0.25]

    @pytest.mark.parametrize("backoff_s, attempt, retry_after, delay", [
        (0.25, 0, None, 0.25),
        (0.25, 7, None, 32.0),
        (0.25, 9, None, RETRY_DELAY_CAP_S),  # 128 s uncapped
        (0.25, 1024, None, RETRY_DELAY_CAP_S),  # 2.0 ** 1024 overflows a float
        (0.0, 1024, None, 0.0),
        (0.25, 0, 3.0, 3.0),
        (0.25, 0, 86400.0, RETRY_DELAY_CAP_S),
        (0.25, 1024, 3.0, RETRY_DELAY_CAP_S),
    ])
    def test_every_delay_is_capped(self, backoff_s, attempt, retry_after, delay):
        error = errors.BackendError("slow down", status=429, retry_after=retry_after)
        assert retry_delay(error, backoff_s, attempt) == delay

    def test_carried_on_backend_error(self, http_backend, recorded_sleeps):
        base_url, handler = http_backend
        handler.script = [(429, {"error": "slow down"}, {"Retry-After": "4"})]
        with pytest.raises(errors.ExhaustedRetriesError) as excinfo:
            self._gateway(base_url).complete(ChatRequest("hi"))
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


class _StaggeredRefusals:
    """Transport that answers the first attempt of each tag with a 429 after
    ``latency_s``, 2 ms later for a tag ending in "b", and every later attempt
    with a reply after ``latency_s``.  It notes when each attempt started."""

    def __init__(self, latency_s):
        self.latency_s = latency_s
        self.starts = {}  # tag -> when each of its attempts went on the wire
        self._lock = threading.Lock()

    def send(self, req):
        with self._lock:
            starts = self.starts.setdefault(req.tag, [])
            starts.append(time.monotonic())
            refuse = len(starts) == 1
        if refuse:
            time.sleep(self.latency_s + (0.002 if req.tag.endswith("b") else 0.0))
            raise errors.BackendError("rate limited", status=429)
        time.sleep(self.latency_s)
        return f"reply to {req.tag}"


class TestSlotsDuringBackoff:
    def test_retries_due_a_moment_apart_are_on_the_wire_together(self):
        # Both requests of each batch are refused, b's 2 ms after a's, so
        # their retries come due 2 ms apart, each on its own idle sender.  A
        # sender that sleeps past b's due time leaves b to the sender that
        # retries a, one latency later.
        transport = _StaggeredRefusals(latency_s=0.05)
        cfg = BackendConfig(kind="mock", max_inflight=2, backoff_s=0.02)
        gateway = Gateway(cfg, transport=transport)

        def pair(tags):
            return (yield _batch(*tags))

        gaps = []
        for index in range(6):
            tags = (f"{index}a", f"{index}b")
            assert run_unit(pair(tags), gateway) == [f"reply to {tag}" for tag in tags]
            retried_a, retried_b = (transport.starts[tag][1] for tag in tags)
            gaps.append(retried_b - retried_a)
        gateway.close()
        assert max(gaps) < 0.025, gaps

    def test_backoff_frees_the_slot(self, monkeypatch):
        transport = _RefuseFirstAttempt({"a"})
        cfg = BackendConfig(kind="mock", max_inflight=1, backoff_s=0.5)
        gateway = Gateway(cfg, transport=transport)
        a_outcomes, a_answered, a_done = TestCallbacks.recorder()
        b_outcomes, b_answered, b_done = TestCallbacks.recorder()

        def backoff(error, backoff_s, attempt):
            # Runs on the only sender after a's first failure: b is queued
            # only now, and a waits out its backoff on the heap meanwhile.
            gateway.call(ChatRequest("x", "b"), b_done)
            return retry_delay(error, backoff_s, attempt)

        monkeypatch.setattr("eligo.gateway._retry_delay", backoff)
        gateway.call(ChatRequest("x", "a"), a_done)
        assert a_answered.wait(timeout=5.0) and b_answered.wait(timeout=5.0)
        assert [(reply, error) for _, reply, error in a_outcomes] == [("reply to a", None)]
        assert [(reply, error) for _, reply, error in b_outcomes] == [("reply to b", None)]
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
                futures = [pool.submit(gateway.complete, ChatRequest("x", f"u{i}"))
                           for i in range(200)]
                replies = [future.result(timeout=30.0) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        gateway.close()
        assert replies == [MOCK_FALLBACK] * 200
        assert gateway.transport.calls == 200
        assert 1 <= gateway.transport.peak_inflight <= 3
        assert 1 <= max(senders) <= 3
        assert (gateway._ready, gateway._parked) == (deque(), [])

    def test_senders_run_from_the_first_queued_call_to_close(self):
        gateway = make_mock_gateway({}, latency_s=0.01, max_inflight=3)
        _, answered, done = TestCallbacks.recorder()
        gateway.call(ChatRequest("x", "a"), done)
        senders = list(gateway._senders)
        assert len(senders) == 3
        assert answered.wait(timeout=5.0)
        time.sleep(0.3)  # idle with nothing queued or parked
        assert gateway._senders == senders
        assert all(sender.is_alive() for sender in senders)
        gateway.close()
        assert gateway._senders == []
        assert not any(thread.name == "eligo-sender" for thread in threading.enumerate())

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
                    lambda tag: gateway.complete(ChatRequest("x", tag)), tags
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
        gateway.call(ChatRequest("x", "a"), done)
        assert outcomes == [(threading.current_thread().name, "canned", None)]
        assert gateway._senders == []
        gateway.close()

    def test_a_send_that_does_not_wait_holds_no_slot(self):
        # Eight sends on the wire at once at max_inflight 1: each on the
        # thread that made it, with no sender started and no lock taken.
        on_wire = threading.Barrier(8)

        class Transport:
            waits = False

            def send(self, req):
                on_wire.wait(timeout=5.0)
                return f"reply to {req.tag}"

        gateway = Gateway(BackendConfig(kind="mock", max_inflight=1), transport=Transport())
        started = []

        def ask(tag):
            outcomes, _, done = self.recorder()
            gateway.call(ChatRequest("x", tag), done)
            return threading.current_thread().name, tag, outcomes

        with mock.patch.object(gateway, "_lock", mock.MagicMock()) as lock, \
                mock.patch.object(gateway, "_send_loop", lambda: started.append(1)):
            with ThreadPoolExecutor(max_workers=8) as pool:
                answers = list(pool.map(ask, [f"u{i}" for i in range(8)]))
        for thread, tag, outcomes in answers:
            assert outcomes == [(thread, f"reply to {tag}", None)]
        assert len({thread for thread, _, _ in answers}) == 8
        assert (started, gateway._senders, lock.__enter__.call_count) == ([], [], 0)

    def test_a_callback_that_raises_inline_frees_the_slot(self):
        gateway = make_mock_gateway({"a": "canned"}, max_inflight=1)

        def faulty(reply, error):
            raise RuntimeError("bug in a callback")

        with pytest.raises(RuntimeError, match="bug in a callback"):
            gateway.call(ChatRequest("x", "a"), faulty)
        outcomes, _, done = self.recorder()
        gateway.call(ChatRequest("x", "a"), done)
        assert outcomes == [(threading.current_thread().name, "canned", None)]
        assert (gateway._ready, gateway._parked, gateway._senders) == (deque(), [], [])
        gateway.close()

    def test_inline_send_failing_for_good_is_answered_on_the_calling_thread(self):
        class Transport:
            waits = False

            def send(self, req):
                raise errors.BackendError("bad request", status=400)

        gateway = Gateway(BackendConfig(kind="mock"), transport=Transport())
        outcomes, _, done = self.recorder()
        gateway.call(ChatRequest("x", "a"), done)
        [(thread, reply, error)] = outcomes
        assert (thread, reply, error.status) == (threading.current_thread().name, None, 400)
        assert (gateway._ready, gateway._parked, gateway._senders) == (deque(), [], [])

    def test_inline_send_retried_without_backoff_is_answered_by_a_sender(self):
        transport = _RefuseFirstAttempt({"a"})
        transport.waits = False
        gateway = Gateway(BackendConfig(kind="mock", backoff_s=0.0), transport=transport)
        outcomes, answered, done = self.recorder()
        parks = []
        gateway.call(ChatRequest("x", "a"), done, on_park=parks.append)
        assert answered.wait(timeout=5.0)
        gateway.close()
        assert outcomes == [("eligo-sender", "reply to a", None)]
        assert parks == []  # queued again at once, never on the heap
        assert (gateway._ready, gateway._parked) == (deque(), [])

    def test_parked_inline_send_is_answered_once_by_a_sender(self):
        transport = _RefuseFirstAttempt({"a"})
        transport.waits = False
        gateway = Gateway(BackendConfig(kind="mock", backoff_s=0.02), transport=transport)
        outcomes, answered, done = self.recorder()
        parks = []
        gateway.call(ChatRequest("x", "a"), done, on_park=parks.append)
        assert outcomes == []  # refused on the calling thread, then parked
        assert answered.wait(timeout=5.0)
        gateway.close()
        assert outcomes == [("eligo-sender", "reply to a", None)]
        assert parks == [True, False]
        assert transport.sent == ["a", "a"]

    def test_a_call_whose_on_park_raises_on_requeue_is_still_answered(self, caplog):
        transport = _RefuseFirstAttempt({"a"})
        gateway = Gateway(BackendConfig(kind="mock", backoff_s=0.02), transport=transport)
        outcomes, answered, done = self.recorder()

        def on_park(is_parked):
            if not is_parked:
                raise RuntimeError("bug in on_park")

        gateway.call(ChatRequest("x", "a"), done, on_park=on_park)
        assert answered.wait(timeout=2.0)  # fails rather than hangs
        gateway.close()
        assert outcomes == [("eligo-sender", "reply to a", None)]
        assert transport.sent == ["a", "a"]
        [record] = [record for record in caplog.records if record.exc_info]
        assert str(record.exc_info[1]) == "bug in on_park"

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
        gateway.call(ChatRequest("x", "parked"), on_parked)
        deadline = time.monotonic() + 5.0
        while not gateway._parked and time.monotonic() < deadline:
            time.sleep(0.005)
        wire_outcomes, on_wire, on_wire_done = self.recorder()
        gateway.call(ChatRequest("x", "wire"), on_wire_done)
        while Transport.sent[-1:] != ["wire"] and time.monotonic() < deadline:
            time.sleep(0.005)
        queued_outcomes, queued, on_queued = self.recorder()
        gateway.call(ChatRequest("x", "queued"), on_queued)
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

    def test_a_callback_that_raises_on_a_sender_does_not_take_its_slot(self, caplog):
        gateway = make_mock_gateway({}, latency_s=0.05, max_inflight=1)
        threads = []

        def faulty(reply, error):
            threads.append(threading.current_thread())
            raise RuntimeError("bug in a callback")

        gateway.call(ChatRequest("x", "a"), faulty)
        # Queued behind the faulty call, for the only slot.
        outcomes, answered, done = self.recorder()

        def answer_b(reply, error):
            threads.append(threading.current_thread())
            done(reply, error)

        gateway.call(ChatRequest("x", "b"), answer_b)
        assert answered.wait(timeout=1.0)
        assert outcomes == [("eligo-sender", MOCK_FALLBACK, None)]
        [sender, answerer] = threads
        assert answerer is sender  # the sender went on after the error
        gateway.close()
        [record] = [record for record in caplog.records if record.exc_info]
        assert record.levelname == "ERROR"
        assert str(record.exc_info[1]) == "bug in a callback"

    def test_close_finishes_when_an_abandoned_callback_raises(self):
        gateway = make_mock_gateway({}, latency_s=0.05, max_inflight=1)
        closed = []
        gateway.transport.close = lambda: closed.append(True)
        wire_outcomes, on_wire, on_wire_done = self.recorder()
        gateway.call(ChatRequest("x", "wire"), on_wire_done)
        deadline = time.monotonic() + 5.0
        while gateway.transport.calls == 0 and time.monotonic() < deadline:
            time.sleep(0.005)

        def faulty(reply, error):
            raise RuntimeError("bug in a callback")

        gateway.call(ChatRequest("x", "queued"), faulty)
        later_outcomes, _, later_done = self.recorder()
        gateway.call(ChatRequest("x", "later"), later_done)
        with pytest.raises(RuntimeError, match="bug in a callback"):
            gateway.close()
        # Every abandoned callback ran, the senders stopped, the transport closed.
        [(_, reply, error)] = later_outcomes
        assert reply is None and isinstance(error, errors.TransportError)
        assert wire_outcomes == [("eligo-sender", MOCK_FALLBACK, None)]
        assert closed == [True]
        assert gateway._closing is False
        assert not any(thread.name == "eligo-sender" for thread in threading.enumerate())
        outcomes, answered, done = self.recorder()
        gateway.call(ChatRequest("x", "after"), done)
        assert answered.wait(timeout=1.0)
        assert outcomes == [("eligo-sender", MOCK_FALLBACK, None)]
        gateway.close()


class TestSenderStart:
    """A sender thread that cannot start leaves the gateway working."""

    @staticmethod
    @contextmanager
    def failing_start(fails):
        """Make each start of an eligo sender whose number (from 1) ``fails``
        accepts raise as a process out of threads does."""
        start = threading.Thread.start
        starts = []

        def limited_start(thread):
            if thread.name == "eligo-sender":
                starts.append(thread)
                if fails(len(starts)):
                    raise RuntimeError("can't start new thread")
            start(thread)

        with mock.patch.object(threading.Thread, "start", limited_start):
            yield starts

    def test_no_sender_started_fails_the_call_through_its_callback(self, caplog):
        gateway = make_mock_gateway({}, latency_s=0.01, max_inflight=2)
        outcomes, _, done = TestCallbacks.recorder()
        with self.failing_start(lambda number: True) as starts, \
                caplog.at_level(logging.WARNING):
            gateway.call(ChatRequest("x", "a"), done)
            with pytest.raises(errors.TransportError, match="can't start new thread"):
                gateway.complete(ChatRequest("x", "b"))
        [(thread, reply, error)] = outcomes
        assert (thread, reply) == (threading.current_thread().name, None)
        assert isinstance(error, errors.TransportError)
        assert str(error) == "no sender thread could start: can't start new thread"
        assert len(starts) == 2  # one failed start per call
        assert gateway._senders == []
        assert (gateway._ready, gateway._parked) == (deque(), [])
        assert gateway.transport.calls == 0
        warnings = [record.getMessage() for record in caplog.records
                    if record.levelname == "WARNING"]
        assert warnings == ["started 0 of max_inflight=2 sender threads: "
                            "can't start new thread"] * 2
        gateway.close()
        # Threads can start again: the next call starts the senders.
        later_outcomes, answered, later_done = TestCallbacks.recorder()
        gateway.call(ChatRequest("x", "c"), later_done)
        assert answered.wait(timeout=1.0)
        assert later_outcomes == [("eligo-sender", MOCK_FALLBACK, None)]
        assert len(gateway._senders) == 2

    def test_no_sender_started_fails_a_retry_of_an_inline_send(self):
        transport = _RefuseFirstAttempt({"a"})
        transport.waits = False
        gateway = Gateway(BackendConfig(kind="mock", backoff_s=0.02), transport=transport)
        outcomes, _, done = TestCallbacks.recorder()
        parks = []
        with self.failing_start(lambda number: True):
            gateway.call(ChatRequest("x", "a"), done, on_park=parks.append)
        [(thread, reply, error)] = outcomes
        assert (thread, reply) == (threading.current_thread().name, None)
        assert isinstance(error, errors.TransportError)
        assert "can't start new thread" in str(error)
        assert parks == []
        assert (gateway._ready, gateway._parked, gateway._senders) == (deque(), [], [])

    def test_the_senders_that_started_serve_the_calls(self, caplog):
        gateway = make_mock_gateway({}, latency_s=0.01, max_inflight=3)
        with self.failing_start(lambda number: number == 2) as starts, \
                caplog.at_level(logging.WARNING):
            replies = [gateway.complete(ChatRequest("x", f"u{i}")) for i in range(3)]
        assert replies == [MOCK_FALLBACK] * 3
        assert len(starts) == 2  # starting ended at the failed start
        assert gateway._senders == starts[:1]
        warnings = [record.getMessage() for record in caplog.records
                    if record.levelname == "WARNING"]
        assert warnings == ["started 1 of max_inflight=3 sender threads: "
                            "can't start new thread"]
        gateway.close()
        assert gateway._senders == []
        assert not any(thread.name == "eligo-sender" for thread in threading.enumerate())


class _ScriptedReplies:
    """Transport that answers each tag after its delay, with its error if it
    has one and with "reply to <tag>" otherwise."""

    def __init__(self, script):
        self.script = script  # tag -> (delay_s, error or None)

    def send(self, req):
        delay_s, error = self.script.get(req.tag, (0.0, None))
        time.sleep(delay_s)
        if error is not None:
            raise error
        return f"reply to {req.tag}"


def _batch(*tags):
    return [ChatRequest("x", tag) for tag in tags]


class TestRunUnits:
    """run_units drives generator units through Gateway.call."""

    @staticmethod
    def gateway(script):
        return Gateway(BackendConfig(kind="mock", max_inflight=2),
                       transport=_ScriptedReplies(script))

    def test_the_first_error_in_batch_order_is_thrown_into_the_unit(self):
        # The second request fails first in time; the first one decides.
        first = errors.BackendError("first in the batch", status=400)
        second = errors.BackendError("first in time", status=400)
        gateway = self.gateway({"a": (0.05, first), "b": (0.0, second)})

        def unit():
            try:
                yield _batch("a", "b")
            except errors.BackendError as error:
                return error

        assert run_unit(unit(), gateway) is first
        gateway.close()

    def test_a_unit_that_catches_the_error_goes_on_to_its_next_batch(self):
        refused = errors.BackendError("bad request", status=400)
        gateway = self.gateway({"a": (0.0, refused)})

        def unit():
            try:
                yield _batch("a")
            except errors.BackendError as error:
                caught = error
            replies = yield _batch("c", "d")
            return caught, replies

        assert run_unit(unit(), gateway) == (refused, ["reply to c", "reply to d"])
        gateway.close()

    def test_an_error_that_escapes_a_unit_is_raised_after_the_others_are_done(self):
        gateway = self.gateway({"bad": (0.0, RuntimeError("bug in a unit")),
                                **{f"slow{i}": (0.05, None) for i in range(3)}})
        finished = []

        def failing():
            yield _batch("bad")

        def slow(tag):
            finished.append((yield _batch(tag)))

        units = [failing(), *(slow(f"slow{i}") for i in range(3))]
        with pytest.raises(RuntimeError, match="bug in a unit"):
            run_units(units, gateway, 2)
        gateway.close()
        assert sorted(finished) == [[f"reply to slow{i}"] for i in range(3)]

    def test_run_unit_from_many_threads_keeps_the_inflight_bound(self):
        tags = [f"u{i}{part}" for i in range(24) for part in "abc"]
        gateway = make_mock_gateway({tag: tag.upper() for tag in tags},
                                    latency_s=0.005, max_inflight=2)

        def unit(i):
            first = yield _batch(f"u{i}a", f"u{i}b")
            second = yield _batch(f"u{i}c")
            return first + second

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(run_unit, unit(i), gateway) for i in range(24)]
                replies = [future.result(timeout=30.0) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        gateway.close()
        assert replies == [[f"U{i}A", f"U{i}B", f"U{i}C"] for i in range(24)]
        assert gateway.transport.calls == len(tags)
        assert 1 <= gateway.transport.peak_inflight <= 2


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


@contextmanager
def _keep_alive_server(handler=_KeepAliveHandler, server_class=ThreadingHTTPServer):
    """A keep-alive stub's base URL, served from a thread while in use."""
    _KeepAliveHandler.client_ports = []
    server = server_class(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.01}, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5.0)
    assert not thread.is_alive()


def test_http_connections_reused_up_to_max_inflight():
    with _keep_alive_server() as url:
        cfg = BackendConfig(kind="http", base_url=url, model_name="m", max_inflight=2,
                            backoff_s=0.0)
        gateway = Gateway(cfg)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                list(pool.map(lambda i: gateway.complete(ChatRequest("x", str(i))),
                              range(20)))
        finally:
            gateway.close()
    assert len(_KeepAliveHandler.client_ports) == 20
    assert len(set(_KeepAliveHandler.client_ports)) <= 2


def test_an_idle_connection_the_server_closed_is_reopened():
    class CloseAfterReply(_KeepAliveHandler):
        """Closes each connection after its reply, though the reply does not
        say so."""

        def do_POST(self):
            super().do_POST()
            self.close_connection = True

    class ClosingServer(ThreadingHTTPServer):
        closed = threading.Semaphore(0)

        def shutdown_request(self, request):
            super().shutdown_request(request)
            self.closed.release()

    with _keep_alive_server(CloseAfterReply, ClosingServer) as url:
        # No retries: a send on the closed connection would fail the call.
        gateway = Gateway(BackendConfig(kind="http", base_url=url, model_name="m",
                                        retry_limit=0))
        try:
            assert gateway.complete(ChatRequest("x", "a")) == "fine"
            assert ClosingServer.closed.acquire(timeout=5.0)
            assert gateway.complete(ChatRequest("x", "b")) == "fine"
        finally:
            gateway.close()
    first, second = _KeepAliveHandler.client_ports
    assert first != second


@pytest.mark.skipif(resource.getrlimit(resource.RLIMIT_NOFILE)[0] < 1501,
                    reason="needs file descriptor 1500")
def test_an_idle_connection_with_a_descriptor_past_1023_is_reused():
    # select() refuses a descriptor of 1024 or more; the idle check must not.
    with _keep_alive_server() as url:
        gateway = Gateway(BackendConfig(kind="http", base_url=url, model_name="m",
                                        retry_limit=0))
        try:
            assert gateway.complete(ChatRequest("x", "a")) == "fine"
            [connection] = gateway.transport._idle
            os.dup2(connection.sock.fileno(), 1500)
            timeout = connection.sock.gettimeout()
            connection.sock.close()
            connection.sock = socket.socket(fileno=1500)
            connection.sock.settimeout(timeout)
            assert gateway.complete(ChatRequest("x", "b")) == "fine"
        finally:
            gateway.close()
    first, second = _KeepAliveHandler.client_ports
    assert first == second


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


def test_requests_and_configs_are_read_only():
    assert_read_only(ChatRequest("prompt", "t"))
    assert_read_only(BackendConfig(kind="mock"))
