import json
import os
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

import ecomforge
from ecomforge import modelio
from ecomforge.core import TaskKind
from ecomforge.expand import ExpansionPlan, expand_corpus
from ecomforge.formulate import INSTRUCTION_REWRITE, InstructionPair
from ecomforge.modelio import (
    COMPLETE,
    Backend,
    BackendRequest,
    BackendError,
    BackendResponse,
    HttpBackend,
    MockBackend,
    RetryPolicy,
    TransportError,
    parse_chat_logprobs,
    parse_chat_text,
    parse_embeddings,
    stable_hash,
    with_retry,
)

FIXTURES = Path(__file__).parent / "fixtures"


def _complete_request(text, seed=None, model="mock"):
    return BackendRequest(kind=COMPLETE, text=text, model=model, seed=seed)


class TestRequestResponseTypes:
    def test_request_is_value_comparable(self):
        a = _complete_request("hello there")
        b = _complete_request("hello there")
        assert a == b and hash(a) == hash(b)

    def test_request_validation(self):
        with pytest.raises(ValueError):
            BackendRequest(kind="stream", text="x", model="m")
        with pytest.raises(ValueError):
            BackendRequest(kind=COMPLETE, text="", model="m")
        with pytest.raises(ValueError):
            BackendRequest(kind=COMPLETE, text="x", model="m", max_tokens=0)
        with pytest.raises(ValueError):
            BackendRequest(kind=COMPLETE, text="x", model="m", temperature=-0.1)

    def test_response_exactly_one_payload(self):
        BackendResponse(text="ok")
        with pytest.raises(ValueError):
            BackendResponse()
        with pytest.raises(ValueError):
            BackendResponse(text="ok", token_logprobs=(-1.0,))
        with pytest.raises(ValueError):
            BackendResponse(token_logprobs=(0.5,))
        with pytest.raises(ValueError):
            BackendResponse(token_logprobs=(-0.5, float("nan")))


class TestMockBackend:
    def test_table_lookup(self):
        mock = MockBackend(table={"prompt p": "response r"})
        assert mock.complete(_complete_request("prompt p")) == "response r"

    def test_pure_function_of_request(self):
        a = MockBackend().complete(_complete_request("rewrite this thing", seed=5))
        b = MockBackend().complete(_complete_request("rewrite this thing", seed=5))
        assert a == b

    def test_distinct_seeds_give_distinct_variants(self):
        mock = MockBackend()
        outs = {mock.complete(_complete_request("directive\nsalt lamp with dimmer switch", seed=s)) for s in range(6)}
        assert len(outs) > 1

    def test_completion_cleaned(self):
        mock = MockBackend(table={"p": "spaced   out ​ text"})
        assert mock.complete(_complete_request("p")) == "spaced out text"

    def test_logprobs_constant_mode(self):
        mock = MockBackend(logprob_per_token=-0.5)
        assert mock.score_logprobs("a b c") == [-0.5, -0.5, -0.5]

    def test_logprobs_deterministic_and_nonpositive(self):
        mock = MockBackend()
        lps = mock.score_logprobs("vintage shirt for men")
        assert lps == mock.score_logprobs("vintage shirt for men")
        assert all(lp < 0 for lp in lps)

    def test_score_rejects_empty(self):
        with pytest.raises(ValueError):
            MockBackend().score_logprobs("")

    def test_embeddings_per_token(self):
        mock = MockBackend(embed_dim=8)
        vectors = mock.embed_tokens("a b")
        assert len(vectors) == 2 and len(vectors[0]) == 8
        assert vectors[0] != vectors[1]
        assert mock.embed_tokens("a b") == vectors

    def test_same_token_same_vector(self):
        mock = MockBackend()
        va = mock.embed_tokens("lamp glow lamp")
        assert va[0] == va[2]

    def test_stable_hash_is_process_independent(self):
        # Frozen value (sha256 of "probe|1", first 8 bytes big-endian):
        # guards against accidentally switching to per-process salted hash().
        assert stable_hash("probe", 1) == 17251254434180977978


# The unit vector and logprob of "tote" at embed_dim 16, as computed before
# the mock memoized its per-token payloads.
TOTE_VECTOR_16 = [
    0.26920303824750724, -0.23574350321512041, -0.5624639558810763, -0.046109424850712254,
    -0.18448584728781017, -0.2763127330616605, -0.1744797791578001, 0.17629472483582742,
    -0.07890640137360118, -0.07783540453822384, -0.17642631655675897, -0.40787788955946214,
    -0.012232988712321211, 0.37090056124058074, -0.05129245619372171, 0.17729407710607498,
]
MEMO_TEXTS = [f"tote bag {w} cotton tote {i}" for i, w in enumerate(["red", "blue", "wool", "silk"] * 5)]


class TestMockBackendMemo:
    def test_pinned_token_vector_and_logprob(self):
        mock = MockBackend()
        assert mock.embed_tokens("tote") == [TOTE_VECTOR_16]
        assert mock.score_logprobs("tote") == [-4.4]

    def test_same_result_before_and_after_the_memo_fills(self):
        mock = MockBackend()
        vectors, logprobs = mock.embed_tokens("tote bag"), mock.score_logprobs("tote bag")
        for text in MEMO_TEXTS:
            mock.embed_tokens(text)
            mock.score_logprobs(text)
        assert mock.embed_tokens("tote bag") == vectors
        assert mock.score_logprobs("tote bag") == logprobs
        assert vectors[0] == TOTE_VECTOR_16

    def test_each_embed_dim_gets_its_own_width(self):
        wide, narrow = MockBackend(embed_dim=16), MockBackend(embed_dim=8)
        assert wide.embed_tokens("tote") == [TOTE_VECTOR_16]
        (v8,) = narrow.embed_tokens("tote")
        assert len(v8) == 8 and v8 != TOTE_VECTOR_16[:8]
        # A backend whose width changes after use embeds at the new width.
        wide.embed_dim = 8
        assert wide.embed_tokens("tote") == [v8]

    def test_threads_sharing_one_backend_embed_alike(self):
        expected = [MockBackend().embed_tokens(text) for text in MEMO_TEXTS]
        shared = MockBackend()
        results: list = [None] * 8

        def work(i):
            results[i] = [shared.embed_tokens(text) for text in MEMO_TEXTS]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(len(results))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == [expected] * len(results)


class TestWithRetry:
    def _flaky(self, failures, status=503):
        calls = {"n": 0}

        def send(request):
            calls["n"] += 1
            if calls["n"] <= failures:
                raise TransportError("boom", status=status)
            return BackendResponse(text="ok")

        return send, calls

    def test_succeeds_after_retries(self):
        send, calls = self._flaky(2)
        policy = RetryPolicy(max_retries=3, base_delay=0.0)
        response = with_retry(send, _complete_request("x"), policy, sleep=lambda s: None)
        assert response.text == "ok" and calls["n"] == 3

    def test_exhaustion_surfaces_last_error(self):
        send, calls = self._flaky(99)
        policy = RetryPolicy(max_retries=2, base_delay=0.0)
        with pytest.raises(TransportError):
            with_retry(send, _complete_request("x"), policy, sleep=lambda s: None)
        assert calls["n"] == 3  # max_retries + 1 attempts

    def test_non_retryable_fails_immediately(self):
        send, calls = self._flaky(99, status=401)
        policy = RetryPolicy(max_retries=5, base_delay=0.0)
        with pytest.raises(TransportError):
            with_retry(send, _complete_request("x"), policy, sleep=lambda s: None)
        assert calls["n"] == 1

    def test_timeouts_are_retryable(self):
        calls = {"n": 0}

        def send(request):
            calls["n"] += 1
            if calls["n"] == 1:
                raise TransportError("slow")
            return BackendResponse(text="ok")

        policy = RetryPolicy(max_retries=1, base_delay=0.0)
        response = with_retry(send, _complete_request("x"), policy, sleep=lambda s: None)
        assert response.text == "ok" and calls["n"] == 2

    def test_delay_sequence_simulated_clock(self):
        send, _ = self._flaky(3)
        delays = []
        policy = RetryPolicy(max_retries=3, base_delay=0.1, backoff_factor=2.0)
        with_retry(send, _complete_request("x"), policy, sleep=delays.append)
        assert delays == pytest.approx([0.1, 0.2, 0.4])

    def test_delays_capped(self):
        send, _ = self._flaky(4)
        delays = []
        policy = RetryPolicy(max_retries=4, base_delay=1.0, backoff_factor=10.0, max_delay=5.0)
        with_retry(send, _complete_request("x"), policy, sleep=delays.append)
        assert delays == pytest.approx([1.0, 5.0, 5.0, 5.0])

    def test_policy_bounds(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=11)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=1.0)


class TestFixtureReplay:
    def test_completion_replay_byte_equal(self):
        fixture = json.loads((FIXTURES / "chat_completion.json").read_text())
        assert parse_chat_text(fixture["response"]) == fixture["expected_text"]

    def test_logprob_replay_exact_sequence(self):
        fixture = json.loads((FIXTURES / "chat_logprobs.json").read_text())
        got = parse_chat_logprobs(fixture["response"])
        assert list(got) == fixture["expected_logprobs"]

    def test_embedding_replay_exact(self):
        fixture = json.loads((FIXTURES / "embeddings.json").read_text())
        got = parse_embeddings(fixture["response"])
        assert [list(v) for v in got] == fixture["expected_vectors"]

    def test_malformed_payloads_rejected(self):
        with pytest.raises(BackendError, match="missing message content"):
            parse_chat_text({"choices": []})
        with pytest.raises(BackendError, match="missing logprobs"):
            parse_chat_logprobs({"choices": [{"logprobs": None}]})
        with pytest.raises(BackendError, match="missing embeddings"):
            parse_embeddings({"data": [{"embedding": "oops"}]})

    def test_positive_logprob_rejected(self):
        payload = {"choices": [{"logprobs": {"content": [{"logprob": 0.25}]}}]}
        with pytest.raises(BackendError, match="logprob > 0 in response"):
            parse_chat_logprobs(payload)

    # float() takes each of these; none is a score.
    NON_FINITE = pytest.mark.parametrize(
        "token", ["NaN", "-Infinity", '"nan"', "1" + "0" * 400],
        ids=["nan-token", "minus-infinity", "nan-string", "int-past-float-range"],
    )

    @NON_FINITE
    def test_non_finite_logprob_rejected(self, token):
        payload = json.loads(
            '{"choices": [{"logprobs": {"content": [{"logprob": -0.5}, {"logprob": %s}]}}]}'
            % token
        )
        with pytest.raises(BackendError, match="^non-finite value in logprobs$"):
            parse_chat_logprobs(payload)

    @NON_FINITE
    def test_non_finite_embedding_value_rejected(self, token):
        payload = json.loads(
            '{"data": [{"index": 1, "embedding": [0.5, %s]}, {"index": 0, "embedding": [0.5]}]}'
            % token
        )
        with pytest.raises(BackendError, match="^non-finite value in embedding 1$"):
            parse_embeddings(payload)


class _CannedHandler(BaseHTTPRequestHandler):
    """Serves a scripted sequence of (status, payload) responses over
    HTTP/1.1 keep-alive; a bytes payload is sent as it is, and a None entry
    closes the connection without an answer. A reply waits the next of
    ``delays`` first, if any is left. With ``drop_idle`` the server closes
    each connection after its response without saying so, as a server
    closes a keep-alive connection that sat idle."""

    protocol_version = "HTTP/1.1"
    # Headers and body go out in two writes; Nagle's algorithm would hold
    # the body back for the client's delayed ACK.
    disable_nagle_algorithm = True
    script = []
    seen = []
    delays = []
    connections = []
    drop_idle = False

    def handle(self):
        type(self).connections.append(self.client_address)
        super().handle()

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length)) if length else {}
        type(self).seen.append((self.path, body))
        reply = self.script.pop(0) if self.script else (500, {})
        if self.delays:
            time.sleep(self.delays.pop(0))
        if reply is None:
            self.close_connection = True  # hang up without an answer
            return
        status, payload = reply
        data = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)
        self.close_connection = self.drop_idle

    def log_message(self, *args):
        pass


class _QuietServer(ThreadingHTTPServer):
    def handle_error(self, request, client_address):
        pass  # a client that timed out closed the connection first


@pytest.fixture
def canned_server():
    _CannedHandler.script = []
    _CannedHandler.seen = []
    _CannedHandler.delays = []
    _CannedHandler.connections = []
    _CannedHandler.drop_idle = False
    server = _QuietServer(("127.0.0.1", 0), _CannedHandler)
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    yield server, _CannedHandler
    server.shutdown()
    server.server_close()
    thread.join(timeout=2)


class TestHttpBackend:
    def _backend(self, server, **kwargs):
        host, port = server.server_address
        defaults = dict(
            base_url=f"http://{host}:{port}/v1",
            model="gpt-3.5-turbo",
            policy=RetryPolicy(max_retries=2, base_delay=0.0),
        )
        defaults.update(kwargs)
        return HttpBackend(**defaults)

    def test_complete_round_trip(self, canned_server):
        server, handler = canned_server
        fixture = json.loads((FIXTURES / "chat_completion.json").read_text())
        handler.script.append((200, fixture["response"]))
        backend = self._backend(server, api_key="sk-test")
        request = BackendRequest(
            kind=COMPLETE,
            text="Rewrite this instruction.",
            model="gpt-3.5-turbo",
            temperature=0.7,
            seed=11,
        )
        assert backend.complete(request) == fixture["expected_text"]
        path, body = handler.seen[0]
        assert path == "/v1/chat/completions"
        assert body["messages"] == [{"role": "user", "content": "Rewrite this instruction."}]
        assert body["seed"] == 11 and body["temperature"] == 0.7

    def test_retry_then_success(self, canned_server):
        server, handler = canned_server
        fixture = json.loads((FIXTURES / "chat_completion.json").read_text())
        handler.script.extend([(503, {}), (200, fixture["response"])])
        backend = self._backend(server)
        request = _complete_request("hello", model="gpt-3.5-turbo")
        assert backend.complete(request) == fixture["expected_text"]
        assert len(handler.seen) == 2

    def test_non_retryable_status(self, canned_server):
        server, handler = canned_server
        handler.script.append((400, {"error": "bad request"}))
        backend = self._backend(server)
        with pytest.raises(TransportError) as exc:
            backend.complete(_complete_request("hello", model="gpt-3.5-turbo"))
        assert exc.value.status == 400
        assert len(handler.seen) == 1

    def test_timeout_is_retried_as_transport_error(self, canned_server):
        server, handler = canned_server
        fixture = json.loads((FIXTURES / "chat_completion.json").read_text())
        request = _complete_request("hello", model="gpt-3.5-turbo")
        # The server reads a request well within the timeout, so the slow
        # reply is always the first request's.
        handler.delays.append(1.0)
        handler.script.append((200, fixture["response"]))
        backend = self._backend(
            server, timeout_s=0.25, policy=RetryPolicy(max_retries=0, base_delay=0.0)
        )
        with pytest.raises(TransportError, match="^request to .* timed out$") as exc:
            backend.complete(request)
        assert exc.value.status is None and len(handler.seen) == 1

        handler.delays.append(1.0)
        handler.script[:] = [(200, fixture["response"])] * 2
        backend = self._backend(
            server, timeout_s=0.25, policy=RetryPolicy(max_retries=1, base_delay=0.0)
        )
        assert backend.complete(request) == fixture["expected_text"]
        assert len(handler.seen) == 3

    def test_embeddings_endpoint_and_tokenization(self, canned_server):
        server, handler = canned_server
        fixture = json.loads((FIXTURES / "embeddings.json").read_text())
        handler.script.append((200, fixture["response"]))
        backend = self._backend(server)
        vectors = backend.embed_tokens("Salt lamp glow")
        assert vectors == fixture["expected_vectors"]
        path, body = handler.seen[0]
        assert path == "/v1/embeddings"
        assert body["input"] == ["salt", "lamp", "glow"]

    def test_timeout_maps_to_backend_timeout(self):
        backend = HttpBackend(
            base_url="http://127.0.0.1:9",  # nothing listens on port 9
            model="m",
            timeout_s=0.05,
            policy=RetryPolicy(max_retries=0, base_delay=0.0),
        )
        with pytest.raises(TransportError, match="request to .* (timed out|failed)"):
            backend.complete(_complete_request("x", model="m"))

    def test_posts_reuse_at_most_concurrency_connections(self, canned_server):
        server, handler = canned_server
        handler.script.extend(
            [(200, {"choices": [{"message": {"content": "ok"}}]})] * 50
        )
        backend = self._backend(server, concurrency=2)
        calls = [_complete_request(f"call {i}", model="m") for i in range(50)]
        # Four callers contend for the backend's two slots.
        with ThreadPoolExecutor(max_workers=4) as pool:
            assert list(pool.map(backend.complete, calls)) == ["ok"] * 50
        assert len(handler.seen) == 50
        assert 1 <= len(handler.connections) <= 2

    def test_a_dropped_idle_connection_is_reopened_once(self, canned_server):
        server, handler = canned_server
        handler.drop_idle = True
        handler.script.extend(
            [(200, {"choices": [{"message": {"content": "ok"}}]})] * 5
        )
        # No retries: the session alone must resend on a new connection.
        backend = self._backend(server, policy=RetryPolicy(max_retries=0, base_delay=0.0))
        for i in range(5):
            assert backend.complete(_complete_request(f"call {i}", model="m")) == "ok"
        # One request per call reached the server, each on its own connection.
        assert [body["messages"][0]["content"] for _, body in handler.seen] == [
            f"call {i}" for i in range(5)
        ]
        assert len(handler.connections) == 5

    def test_a_new_connection_is_not_resent(self, canned_server):
        server, handler = canned_server
        handler.script.append(None)
        backend = self._backend(server, policy=RetryPolicy(max_retries=0, base_delay=0.0))
        with pytest.raises(TransportError, match="^request to .* failed: ") as exc:
            backend.complete(_complete_request("x", model="m"))
        assert exc.value.status is None and len(handler.seen) == 1

    @pytest.mark.parametrize(
        "body",
        [b"not json", b'{"choices": "\xff"}', b"[" * 100_000 + b"]" * 100_000],
        ids=["text", "latin-1", "nested-too-deeply"],
    )
    def test_a_body_that_is_not_json_is_a_backend_error(self, canned_server, body):
        server, handler = canned_server
        handler.script.append((200, body))
        with pytest.raises(BackendError, match="^response body is not JSON$") as exc:
            self._backend(server).complete(_complete_request("x", model="m"))
        assert not isinstance(exc.value, TransportError) and len(handler.seen) == 1

        # In expand it is one failed call, not a crash.
        handler.script[:] = [(200, body), (200, {"choices": [{"message": {"content": "ok"}}]})]
        seed = InstructionPair(
            id="s0", task=TaskKind.PRODUCT_CLASSIFICATION, instruction="Classify this",
            input="oak desk", output="home and living",
        )
        plan = ExpansionPlan(
            instruction_rewrites=2, response_generations=0, response_rewrites=0,
            rng_seed=0, concurrency=1, temperature=0.7, max_tokens=16,
        )
        result = expand_corpus(self._backend(server), [seed], plan)
        assert [p.id for p in result.pairs] == ["s0", "s0-ir1"]
        assert [(f.strategy, f.index, f.reason) for f in result.failures] == [
            (INSTRUCTION_REWRITE, 0, "response body is not JSON")
        ]

    def test_no_http_client_is_imported_before_a_post(self):
        # A fresh interpreter: this process has imported http.client already.
        script = (
            "import sys\n"
            "import ecomforge.cli\n"
            "from ecomforge.modelio import HttpBackend, HttpSession\n"
            "backend = HttpBackend(base_url='http://127.0.0.1:9', model='m')\n"
            "print(type(backend.session) is HttpSession)\n"
            "print(sorted({'requests', 'http.client'} & set(sys.modules)))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(ecomforge.__file__).parent.parent)}
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split("\n")[:2] == ["True", "[]"]


class _Response:
    def __init__(self, status_code, payload=None):
        self.status_code, self.payload = status_code, payload

    def json(self):
        return self.payload


def _logprobs_response(text):
    content = [{"logprob": lp} for lp in MockBackend().score_logprobs(text)]
    return _Response(200, {"choices": [{"logprobs": {"content": content}}]})


def _stub_backend(session, concurrency, **kwargs):
    return HttpBackend(
        base_url="http://stub", model="mock", session=session, concurrency=concurrency, **kwargs
    )


class TestHttpBackendSlots:
    def test_a_backoff_holds_no_slot(self, monkeypatch):
        """At concurrency 1, while one caller backs off from a 429, another
        caller's post goes through."""
        backing_off, other_posted = threading.Event(), threading.Event()
        posts = []

        class Session:
            def post(self, url, json, **kwargs):
                text = json["messages"][-1]["content"]
                throttled = text == "first" and text not in posts
                posts.append(text)
                if text == "second":
                    other_posted.set()
                if throttled:
                    return _Response(429)
                return _Response(200, {"choices": [{"message": {"content": text.upper()}}]})

        waited = []

        def sleep(delay):
            backing_off.set()
            waited.append(other_posted.wait(timeout=30))

        retry = modelio.with_retry
        monkeypatch.setattr(
            modelio,
            "with_retry",
            lambda send, request, policy: retry(send, request, policy, sleep=sleep),
        )
        backend = _stub_backend(Session(), 1)
        second = []

        def call_second():
            backing_off.wait(timeout=30)
            second.append(backend.complete(_complete_request("second")))

        thread = threading.Thread(target=call_second)
        thread.start()
        assert backend.complete(_complete_request("first")) == "FIRST"
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert waited == [True] and second == ["SECOND"]
        assert posts == ["first", "second", "first"]

    def test_bad_concurrency_rejected(self):
        with pytest.raises(ValueError, match="concurrency"):
            _stub_backend(None, 0)


class TestScoreLogprobsMany:
    TEXTS = ["oak desk lamp", "silver ring", "wool scarf"]

    def test_results_keep_input_order_when_posts_finish_out_of_order(self):
        texts = self.TEXTS
        returned = {text: threading.Event() for text in texts}
        # The third post returns first, then the first, then the second.
        waits_for = {texts[0]: texts[2], texts[1]: texts[0]}
        finished = []

        class Session:
            def post(self, url, json, **kwargs):
                text = json["messages"][-1]["content"]
                if text in waits_for:
                    assert returned[waits_for[text]].wait(timeout=30)
                finished.append(text)
                returned[text].set()
                return _logprobs_response(text)

        backend = _stub_backend(Session(), 3)
        scored = backend.score_logprobs_many(texts)
        assert finished == [texts[2], texts[0], texts[1]]
        assert scored == Backend.score_logprobs_many(backend, texts)
        assert scored == [MockBackend().score_logprobs(text) for text in texts]

    def test_the_first_failure_in_input_order_is_raised_and_no_post_follows(self):
        texts = ["t0", "bad1", "bad2", "t3", "t4", "t5"]
        bad2_failed = threading.Event()
        posted = []

        class Session:
            def post(self, url, json, **kwargs):
                text = json["messages"][-1]["content"]
                posted.append(text)
                if text == "bad1":
                    # bad1 fails after bad2 has.
                    assert bad2_failed.wait(timeout=30)
                    return _Response(400)
                if text == "bad2":
                    bad2_failed.set()
                    return _Response(401)
                return _logprobs_response(text)

        backend = _stub_backend(Session(), 2)
        with pytest.raises(TransportError) as exc:
            backend.score_logprobs_many(texts)
        assert exc.value.status == 400
        assert sorted(posted) == ["bad1", "bad2", "t0"]

    def test_no_texts(self):
        assert _stub_backend(None, 2).score_logprobs_many([]) == []
