"""Localhost chat-completions stub for the ``debate-http`` workload.

Run as its own process::

    python3 perfbench/stub.py

It binds 127.0.0.1 on a free port, prints ``PORT <n>`` on stdout and serves
``POST /v1/chat/completions`` until terminated.  Each reply follows the
debate plan in ``gen.py``, keyed on the question line and the patient MRN
found in the prompt, so the whole screen is deterministic.  The first
request of a fixed share of debate stages (``gen.refused_once``, a hash of
the debate and the stage) is refused with HTTP 429; every later request of
that stage, the retry included, is answered.  The latency and that share are
``STUB_LATENCY_MS`` and ``STUB_REFUSE_PER_MILLE`` in ``gen.py``.  Every response, 429 included,
takes the fixed latency, so ``attempts x latency / max_inflight`` is a true
lower bound on wall time.

``GET /stats`` returns the counters (requests, refusals, server-side peak
in-flight, busy time, first arrival and last departure); ``POST /reset``
zeroes them and forgets which stages were refused, so each repetition of a
run sees the same plan.
"""

from __future__ import annotations

import json
import re
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from gen import STUB_LATENCY_MS, debate_key, debate_reply, debate_stage, refused_once

_QUESTION_RE = re.compile(r"QUESTION:\n([^\n]*)\n")
_MRN_RE = re.compile(r"MRN-\d+")


class Counters:
    def __init__(self):
        self.lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        self.requests = 0
        self.refused = 0
        self.inflight = 0
        self.peak_inflight = 0
        self.busy_s = 0.0
        self.first_start = None
        self.last_end = None
        self.refused_stages: set[tuple[int, str]] = set()

    def snapshot(self) -> dict:
        window = ((self.last_end - self.first_start)
                  if self.first_start is not None and self.last_end is not None else 0.0)
        return {"requests": self.requests, "refused": self.refused,
                "peak_inflight": self.peak_inflight, "busy_s": self.busy_s,
                "window_s": window}


def make_handler(counters: Counters):
    latency_s = STUB_LATENCY_MS / 1000.0

    class Handler(BaseHTTPRequestHandler):
        def log_message(self, *args):  # keep stderr quiet
            pass

        def _send(self, status: int, document: dict) -> None:
            payload = json.dumps(document).encode()
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

        def do_GET(self):
            if self.path != "/stats":
                self._send(404, {"error": "not found"})
                return
            with counters.lock:
                self._send(200, counters.snapshot())

        def do_POST(self):
            body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
            if self.path == "/reset":
                with counters.lock:
                    counters.reset()
                self._send(200, {"ok": True})
                return
            if self.path != "/v1/chat/completions":
                self._send(404, {"error": "not found"})
                return
            started = time.perf_counter()
            prompt = json.loads(body)["messages"][-1]["content"]
            question = _QUESTION_RE.search(prompt)
            mrn = _MRN_RE.search(prompt)
            stage = None
            if question is not None and mrn is not None:
                stage = (debate_key(question.group(1), mrn.group(0)), debate_stage(prompt))
            with counters.lock:
                counters.requests += 1
                counters.inflight += 1
                counters.peak_inflight = max(counters.peak_inflight, counters.inflight)
                if counters.first_start is None:
                    counters.first_start = started
                refuse = (stage is not None and refused_once(*stage)
                          and stage not in counters.refused_stages)
                if refuse:
                    counters.refused += 1
                    counters.refused_stages.add(stage)
            try:
                if refuse:
                    status, document = 429, {"error": {"message": "rate limited"}}
                elif stage is None:
                    status, document = 400, {"error": {"message": "no debate key"}}
                else:
                    text = debate_reply(prompt, question.group(1), mrn.group(0))
                    status, document = 200, {"choices": [
                        {"message": {"role": "assistant", "content": text}}]}
                remaining = latency_s - (time.perf_counter() - started)
                if remaining > 0:
                    time.sleep(remaining)
            finally:
                # The request leaves the server's count before the reply is
                # written: once written, the client may already send its next
                # request, and counting past that point would overlap the two.
                ended = time.perf_counter()
                with counters.lock:
                    counters.inflight -= 1
                    counters.busy_s += ended - started
                    counters.last_end = ended
            self._send(status, document)

    return Handler


def main() -> int:
    server = ThreadingHTTPServer(("127.0.0.1", 0), make_handler(Counters()))
    server.daemon_threads = True
    print(f"PORT {server.server_address[1]}", flush=True)
    try:
        server.serve_forever(poll_interval=0.05)
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
