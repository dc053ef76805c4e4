"""Model-backend contract: chat completion, token logprob scoring, and
token embeddings.

Two backends implement the contract: an HTTP client speaking the
chat-completions JSON shape, and a deterministic offline mock whose outputs
are pure functions of the request. The mock makes every pipeline stage
reproducible without network access.
"""
from __future__ import annotations

import hashlib
import json
import math
import threading
import time
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable
from urllib.parse import urlsplit

import numpy as np

from .core import ForgeError, MemoTable, clean_text, tokenize

COMPLETE = "complete"
LOGPROBS = "logprobs"
EMBED = "embed"
_KINDS = (COMPLETE, LOGPROBS, EMBED)
RETRYABLE_STATUSES = frozenset({429, 500, 502, 503, 504})


class BackendError(ForgeError):
    """A model call that failed or answered out of contract."""


class TransportError(BackendError):
    """A call that got no usable answer: an HTTP error ``status``, or None
    when the request failed or timed out before one."""

    def __init__(self, message: str, status: int | None = None):
        super().__init__(message)
        self.status = status


@dataclass(frozen=True)
class BackendRequest:
    """One model call. Frozen so requests are value-comparable and cacheable.

    The optional decoding seed lets a deterministic backend produce distinct
    variants for otherwise-identical prompts.
    """

    kind: str
    text: str
    model: str
    temperature: float = 0.0
    max_tokens: int = 256
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown request kind {self.kind!r}")
        if not self.text:
            raise ValueError("request text must be nonempty")
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if self.kind == COMPLETE and self.max_tokens < 1:
            raise ValueError("max_tokens must be >= 1 for completion")


@dataclass(frozen=True)
class BackendResponse:
    """Exactly one payload, matching the request kind."""

    text: str | None = None
    token_logprobs: tuple[float, ...] | None = None
    token_vectors: tuple[tuple[float, ...], ...] | None = None

    def __post_init__(self) -> None:
        present = [
            p for p in (self.text, self.token_logprobs, self.token_vectors) if p is not None
        ]
        if len(present) != 1:
            raise ValueError("response must carry exactly one payload")
        # Written so that NaN, which no comparison holds for, is refused too.
        if self.token_logprobs is not None and any(not lp <= 0 for lp in self.token_logprobs):
            raise ValueError("logprobs must be <= 0")


@dataclass(frozen=True)
class RetryPolicy:
    max_retries: int = 3
    base_delay: float = 0.5
    backoff_factor: float = 2.0
    max_delay: float = 30.0

    def __post_init__(self) -> None:
        if not 0 <= self.max_retries <= 10:
            raise ValueError("max_retries must be in [0, 10]")
        if self.backoff_factor <= 1:
            raise ValueError("backoff_factor must be > 1")
        if self.base_delay < 0 or self.max_delay < self.base_delay:
            raise ValueError("delays must satisfy 0 <= base_delay <= max_delay")


def with_retry(
    send: Callable[[BackendRequest], BackendResponse],
    request: BackendRequest,
    policy: RetryPolicy,
    sleep: Callable[[float], None] = time.sleep,
) -> BackendResponse:
    """Retry retryable transport failures with capped exponential backoff.

    Total attempts never exceed max_retries + 1; the last error surfaces on
    exhaustion; non-retryable errors raise immediately.
    """
    attempt = 0
    while True:
        try:
            return send(request)
        except TransportError as exc:
            retryable = exc.status is None or exc.status in RETRYABLE_STATUSES
            if not retryable or attempt >= policy.max_retries:
                raise
            delay = min(policy.base_delay * policy.backoff_factor**attempt, policy.max_delay)
            sleep(delay)
            attempt += 1


class Backend:
    """Shared public surface over a raw ``send``. Safe to share across
    threads: no per-call mutable state. ``model`` names the model every
    request is sent to."""

    model: str

    def send(self, request: BackendRequest) -> BackendResponse:
        raise NotImplementedError

    def complete(self, request: BackendRequest) -> str:
        if request.kind != COMPLETE:
            raise ValueError(f"complete() requires a {COMPLETE!r} request")
        response = self.send(request)
        if response.text is None:
            raise BackendError("backend returned no text payload")
        return clean_text(response.text)

    def score_logprobs(self, text: str) -> list[float]:
        request = BackendRequest(kind=LOGPROBS, text=text, model=self.model, max_tokens=1)
        response = self.send(request)
        if response.token_logprobs is None:
            raise BackendError("backend returned no logprobs payload")
        return list(response.token_logprobs)

    def score_logprobs_many(self, texts: list[str]) -> list[list[float]]:
        """``score_logprobs`` of each text, in input order, one call at a
        time; the first failure is raised."""
        return [self.score_logprobs(text) for text in texts]

    def embed_tokens(self, text: str) -> list[list[float]]:
        request = BackendRequest(kind=EMBED, text=text, model=self.model, max_tokens=1)
        response = self.send(request)
        if response.token_vectors is None:
            raise BackendError("backend returned no embedding payload")
        vectors = [list(v) for v in response.token_vectors]
        if vectors and any(len(v) != len(vectors[0]) for v in vectors):
            raise BackendError("embedding vectors have inconsistent width")
        return vectors


# ---------------------------------------------------------------------------
# Wire client


def parse_chat_text(payload: dict) -> str:
    """Extract choices[0].message.content from a chat-completions response."""
    try:
        content = payload["choices"][0]["message"]["content"]
    except (KeyError, IndexError, TypeError) as exc:
        raise BackendError(f"missing message content: {exc}") from exc
    if not isinstance(content, str):
        raise BackendError("message content is not text")
    return content


def _finite_floats(values, field: str) -> tuple[float, ...]:
    """``values`` as floats, refused with a BackendError naming ``field`` when
    one is NaN, infinite or an int past the float range: ``float()`` takes
    the JSON tokens ``NaN`` and ``Infinity`` and the string ``"nan"``."""
    try:
        floats = tuple(map(float, values))
        if all(map(math.isfinite, floats)):
            return floats
    except OverflowError:
        pass
    raise BackendError(f"non-finite value in {field}")


def parse_chat_logprobs(payload: dict) -> tuple[float, ...]:
    """Extract choices[0].logprobs.content[*].logprob, each finite and <= 0."""
    try:
        entries = payload["choices"][0]["logprobs"]["content"]
        values = _finite_floats((e["logprob"] for e in entries), "logprobs")
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise BackendError(f"missing logprobs: {exc}") from exc
    if any(v > 0 for v in values):
        raise BackendError("logprob > 0 in response")
    return values


def parse_embeddings(payload: dict) -> tuple[tuple[float, ...], ...]:
    """Extract data[*].embedding from an embeddings response, each placed at
    its item's ``index``, not at its place in the list. The indices must be
    0 to len(data) - 1, each once, and every value finite."""
    try:
        items = payload["data"]
        placed: dict[int, tuple[float, ...]] = {}
        for item in items:
            index = item["index"]
            if type(index) is not int or not 0 <= index < len(items):
                raise BackendError(f"embedding index {json.dumps(index)} out of range")
            if index in placed:
                raise BackendError(f"embedding index {index} repeated")
            placed[index] = _finite_floats(item["embedding"], f"embedding {index}")
    except (KeyError, TypeError, ValueError) as exc:
        raise BackendError(f"missing embeddings: {exc}") from exc
    return tuple(placed[i] for i in range(len(items)))


@dataclass(frozen=True)
class HttpResponse:
    """A response ``HttpSession.post`` has read in full."""

    status_code: int
    body: bytes

    def json(self):
        """The body as JSON; a ValueError when it is not UTF-8 JSON, and a
        RecursionError when it is nested too deeply to parse."""
        return json.loads(self.body.decode("utf-8"))


def _json_body(payload: dict) -> bytes:
    """``HttpSession.post``'s body; its ``json`` parameter hides the module."""
    return json.dumps(payload, allow_nan=False).encode("utf-8")


def _close_all(idle: dict[tuple, list]) -> None:
    for connections in idle.values():
        for connection in connections:
            connection.close()


class HttpSession:
    """POSTs JSON over ``http.client``, imported on the first post.

    A connection stays open after its post for the next post to the same
    origin with the same timeout (RFC 9112 section 9.3), so the session
    holds no more connections than it had posts in flight at once; idle
    ones are closed when it is collected. Every wire failure is a
    ``TransportError``. A reused connection that fails before a response
    arrives, as when the server closed it while idle, is retried once on a
    new one. Safe to share between threads."""

    def __init__(self) -> None:
        self._idle: dict[tuple, list] = {}
        self._lock = threading.Lock()
        weakref.finalize(self, _close_all, self._idle)

    def post(self, url: str, json: dict, headers: dict[str, str], timeout: float) -> HttpResponse:
        from http.client import HTTPConnection, HTTPException, HTTPSConnection

        parts = urlsplit(url)
        connect = HTTPSConnection if parts.scheme == "https" else HTTPConnection
        key = (parts.scheme, parts.netloc, timeout)
        target = parts.path + (f"?{parts.query}" if parts.query else "")
        body = _json_body(json)
        with self._lock:
            idle = self._idle.get(key)
            reused = idle.pop() if idle else None
        connection = reused or connect(parts.netloc, timeout=timeout)
        try:
            try:
                connection.request("POST", target, body, headers)
                response = connection.getresponse()
            except (ConnectionResetError, BrokenPipeError):
                if connection is not reused:
                    raise
                connection.close()
                connection = connect(parts.netloc, timeout=timeout)
                connection.request("POST", target, body, headers)
                response = connection.getresponse()
            data = response.read()
        except (OSError, HTTPException) as exc:
            connection.close()
            if isinstance(exc, TimeoutError):
                raise TransportError(f"request to {url} timed out") from exc
            raise TransportError(f"request to {url} failed: {exc}") from exc
        if response.will_close:
            connection.close()
        else:
            with self._lock:
                self._idle.setdefault(key, []).append(connection)
        return HttpResponse(response.status, data)


@dataclass
class HttpBackend(Backend):
    """Client for a chat-completions-compatible server.

    Completions and logprob scoring POST to ``{base_url}/chat/completions``;
    token embeddings POST to ``{base_url}/embeddings`` with the token list as
    input. The API key is read from the named environment variable, never
    from configuration files. ``session`` may be any object with the
    ``post`` of ``HttpSession``, returning ``status_code`` and ``json()``.

    At most ``concurrency`` posts are on the wire at once, over every thread
    that shares the backend. A post holds one of that many slots and nothing
    else does: a retry's backoff and the parsing of a response happen
    outside it, so a throttled call leaves its slot to other callers.
    """

    base_url: str
    model: str
    api_key: str | None = None
    timeout_s: float = 60.0
    policy: RetryPolicy = field(default_factory=RetryPolicy)
    session: HttpSession = field(default_factory=HttpSession)
    concurrency: int = 1
    _slots: threading.BoundedSemaphore = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        self._slots = threading.BoundedSemaphore(self.concurrency)

    def send(self, request: BackendRequest) -> BackendResponse:
        return with_retry(self._send_once, request, self.policy)

    def score_logprobs_many(self, texts: list[str]) -> list[list[float]]:
        """``score_logprobs`` of each text over a pool of ``concurrency``
        threads, so the posts overlap; results come back in input order.
        Once a call has failed no further post starts, the calls still
        queued are cancelled, and the first failure in input order is
        raised."""
        failed = threading.Event()

        def score(text: str) -> list[float] | None:
            if failed.is_set():
                return None
            try:
                return self.score_logprobs(text)
            except BaseException:
                failed.set()
                raise

        pool = ThreadPoolExecutor(max_workers=self.concurrency)
        try:
            futures = [pool.submit(score, text) for text in texts]
            # A call skipped after a failure returns None; the loop reaches
            # a future holding a failure before it returns.
            return [future.result() for future in futures]
        finally:
            pool.shutdown(cancel_futures=True)

    def _send_once(self, request: BackendRequest) -> BackendResponse:
        if request.kind == EMBED:
            url = self.base_url.rstrip("/") + "/embeddings"
            body: dict = {"model": request.model, "input": tokenize(request.text)}
        else:
            url = self.base_url.rstrip("/") + "/chat/completions"
            body = {
                "model": request.model,
                "messages": [{"role": "user", "content": request.text}],
                "temperature": request.temperature,
                "max_tokens": request.max_tokens,
            }
            if request.seed is not None:
                body["seed"] = request.seed
            if request.kind == LOGPROBS:
                body["logprobs"] = True
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        with self._slots:
            resp = self.session.post(url, json=body, headers=headers, timeout=self.timeout_s)
        if resp.status_code != 200:
            raise TransportError(
                f"{url} returned HTTP {resp.status_code}", status=resp.status_code
            )
        try:
            payload = resp.json()
        except (ValueError, RecursionError) as exc:
            raise BackendError("response body is not JSON") from exc
        if request.kind == COMPLETE:
            return BackendResponse(text=parse_chat_text(payload))
        if request.kind == LOGPROBS:
            return BackendResponse(token_logprobs=parse_chat_logprobs(payload))
        vectors = parse_embeddings(payload)
        if len(vectors) != len(body["input"]):
            raise BackendError(f"{len(vectors)} embeddings for {len(body['input'])} input tokens")
        return BackendResponse(token_vectors=vectors)


# ---------------------------------------------------------------------------
# Deterministic mock


def stable_hash(*parts: object) -> int:
    """Process-independent 64-bit hash of the stringified parts."""
    digest = hashlib.sha256("|".join(str(p) for p in parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


_MOCK_PREFIXES = (
    "Rephrased:",
    "In other words:",
    "Consider this:",
    "Put differently:",
    "Here you go:",
    "Simply put:",
)


def _token_logprob(token: str) -> float:
    return -(1.0 + (stable_hash("lp", token) % 40) / 10.0)


def _token_vector(key: tuple[str, int]) -> tuple[float, ...]:
    token, dim = key
    rng = np.random.default_rng(stable_hash("embed", token))
    v = rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    return tuple(float(x) for x in v)


@dataclass
class MockBackend(Backend):
    """Offline backend: responses are pure functions of the request.

    Completions look up an exact-prompt table first; unmatched prompts get a
    deterministic pseudo-paraphrase of the prompt's last line (word rotation
    plus a hash-picked prefix). Logprobs and embeddings derive per token from
    stable hashes, so identical texts always score and embed identically.
    Each token's logprob and its unit vector at ``embed_dim`` are computed
    once per backend and read back from a memo on later calls; the memos
    are only ever filled, so threads can share the backend without a lock.
    """

    table: dict[str, str] = field(default_factory=dict)
    model: str = "mock"
    logprob_per_token: float | None = None
    embed_dim: int = 16
    _logprob: MemoTable = field(
        default_factory=lambda: MemoTable(_token_logprob), init=False, repr=False, compare=False
    )
    # Keyed by (token, embed_dim): the field can be reassigned after use.
    _vector: MemoTable = field(
        default_factory=lambda: MemoTable(_token_vector), init=False, repr=False, compare=False
    )

    def send(self, request: BackendRequest) -> BackendResponse:
        if request.kind == COMPLETE:
            return BackendResponse(text=self._complete(request))
        if request.kind == LOGPROBS:
            return BackendResponse(token_logprobs=self._logprobs(request.text))
        return BackendResponse(token_vectors=self._vectors(request.text))

    def _complete(self, request: BackendRequest) -> str:
        if request.text in self.table:
            return self.table[request.text]
        payload = request.text.splitlines()[-1].strip() or request.text
        words = payload.split()
        h = stable_hash(request.text, request.seed)
        prefix = _MOCK_PREFIXES[h % len(_MOCK_PREFIXES)]
        if len(words) > 1:
            k = 1 + (h >> 8) % (len(words) - 1)
            words = words[k:] + words[:k]
        return f"{prefix} {' '.join(words)}"

    def _logprobs(self, text: str) -> tuple[float, ...]:
        tokens = tokenize(text)
        if self.logprob_per_token is not None:
            return tuple(self.logprob_per_token for _ in tokens)
        return tuple(self._logprob[t] for t in tokens)

    def _vectors(self, text: str) -> tuple[tuple[float, ...], ...]:
        dim = self.embed_dim
        return tuple(self._vector[token, dim] for token in tokenize(text))
