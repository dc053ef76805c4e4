"""An in-process stand-in for ``requests.Session`` in front of a
chat-completions server.

Every post sleeps a fixed latency and answers with the mock backend's
payload for the same request, in the wire shapes of ``tests/fixtures/``.
Faults are a pure function of the request body and of how many times that
same body was posted before, so the set of throttled requests does not
depend on thread interleaving. (The module is not called ``http.py``: that
name shadows the standard library package ``requests`` imports.)
"""
from __future__ import annotations

import hashlib
import json
import threading
import time

from ecomforge.core import tokenize
from ecomforge.modelio import COMPLETE, EMBED, LOGPROBS, BackendRequest, MockBackend


def body_key(url: str, body: dict) -> str:
    canonical = json.dumps(body, sort_keys=True, ensure_ascii=False, separators=(",", ":"))
    return hashlib.sha256(f"{url}\n{canonical}".encode("utf-8")).hexdigest()


def is_throttled(key: str, attempt: int, per_mille: int) -> bool:
    """Throttle the first post of about ``per_mille``/1000 distinct bodies."""
    return attempt == 0 and int(key[:12], 16) % 1000 < per_mille


def answer(url: str, body: dict, mock: MockBackend) -> dict:
    """The JSON payload a server would return for ``body``."""
    if url.endswith("/embeddings"):
        tokens = list(body["input"])
        vectors = mock.send(
            BackendRequest(kind=EMBED, text=" ".join(tokens), model=body["model"])
        ).token_vectors
        if len(vectors) != len(tokens):
            raise ValueError("mock embedding re-tokenized the input differently")
        return {
            "object": "list",
            "data": [
                {"object": "embedding", "index": i, "embedding": list(v)}
                for i, v in enumerate(vectors)
            ],
            "model": body["model"],
        }
    text = body["messages"][-1]["content"]
    if body.get("logprobs"):
        values = mock.send(
            BackendRequest(kind=LOGPROBS, text=text, model=body["model"], max_tokens=1)
        ).token_logprobs
        choice = {
            "index": 0,
            "message": {"role": "assistant", "content": ""},
            "logprobs": {
                "content": [
                    {"token": tok, "logprob": lp} for tok, lp in zip(tokenize(text), values)
                ]
            },
            "finish_reason": "stop",
        }
    else:
        request = BackendRequest(
            kind=COMPLETE,
            text=text,
            model=body["model"],
            temperature=body.get("temperature", 0.0),
            max_tokens=body.get("max_tokens", 256),
            seed=body.get("seed"),
        )
        choice = {
            "index": 0,
            "message": {"role": "assistant", "content": mock.send(request).text},
            "finish_reason": "stop",
        }
    return {"object": "chat.completion", "model": body["model"], "choices": [choice]}


class FakeResponse:
    def __init__(self, status_code: int, payload: dict, headers: dict[str, str]):
        self.status_code = status_code
        self.headers = headers
        self.text = json.dumps(payload)

    def json(self) -> dict:
        return json.loads(self.text)


class FakeSession:
    """Counts posts and 429s; safe to share between threads."""

    def __init__(self, latency_s: float = 0.02, throttle_per_mille: int = 10):
        self.latency_s = latency_s
        self.throttle_per_mille = throttle_per_mille
        self.mock = MockBackend()
        self.posts = 0
        self.throttled = 0
        self._attempts: dict[str, int] = {}
        self._lock = threading.Lock()

    def post(self, url: str, json: dict, **kwargs) -> FakeResponse:
        key = body_key(url, json)
        with self._lock:
            attempt = self._attempts.get(key, 0)
            self._attempts[key] = attempt + 1
            self.posts += 1
        time.sleep(self.latency_s)
        if is_throttled(key, attempt, self.throttle_per_mille):
            with self._lock:
                self.throttled += 1
            return FakeResponse(
                429,
                {"error": {"message": "rate limited", "type": "rate_limit"}},
                {"Retry-After": "1"},
            )
        return FakeResponse(200, answer(url, json, self.mock), {})
