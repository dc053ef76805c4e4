"""Tests of the benchmark's own parts: the fake session, the span
arithmetic and the evaluate-mock generation mix."""
from __future__ import annotations

import contextlib
import io
import json
import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import inputs  # noqa: E402
from fakesession import FakeSession, body_key, is_throttled  # noqa: E402
from tracer import Tracer, covered, summarize  # noqa: E402

from ecomforge import cli  # noqa: E402
from ecomforge.config import load_config  # noqa: E402
from ecomforge.modelio import (  # noqa: E402
    COMPLETE,
    BackendRequest,
    HttpBackend,
    MockBackend,
    RetryPolicy,
    parse_chat_logprobs,
    parse_chat_text,
    parse_embeddings,
)

SPEC = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))
URL = "http://fake/v1"


def _chat_body(text: str, **extra) -> dict:
    return {"model": "m", "messages": [{"role": "user", "content": text}], **extra}


def test_payloads_parse_to_the_mock_backend_values():
    mock = MockBackend()
    session = FakeSession(latency_s=0.0, throttle_per_mille=0)
    text = "Vintage 50th birthday shirt for men!"
    chat = session.post(
        f"{URL}/chat/completions", json=_chat_body(text, temperature=0.7, max_tokens=64, seed=5)
    )
    request = BackendRequest(COMPLETE, text, "m", temperature=0.7, max_tokens=64, seed=5)
    assert parse_chat_text(chat.json()) == mock.send(request).text
    scored = session.post(
        f"{URL}/chat/completions", json=_chat_body(text, max_tokens=1, logprobs=True)
    )
    assert list(parse_chat_logprobs(scored.json())) == mock.score_logprobs(text)
    embedded = session.post(f"{URL}/embeddings", json={"model": "m", "input": ["salt", "lamp", "!"]})
    assert [list(v) for v in parse_embeddings(embedded.json())] == mock.embed_tokens("salt lamp !")


def test_http_backend_over_fake_session_matches_mock_through_429s():
    session = FakeSession(latency_s=0.0, throttle_per_mille=500)
    backend = HttpBackend(
        base_url=URL, model="m", policy=RetryPolicy(base_delay=0.0), session=session
    )
    mock = MockBackend(model="m")
    for i in range(40):
        request = BackendRequest(COMPLETE, f"Rewrite title {i}", "m", seed=i)
        assert backend.complete(request) == mock.complete(request)
    assert backend.score_logprobs("salt lamp glow") == mock.score_logprobs("salt lamp glow")
    assert backend.embed_tokens("salt lamp glow") == mock.embed_tokens("salt lamp glow")
    assert session.throttled > 0
    assert session.posts == 42 + session.throttled


def test_fault_injection_is_identical_across_thread_interleavings():
    bodies = [_chat_body(f"prompt {i % 150}", seed=i % 150) for i in range(600)]

    def outcomes(order_seed: int) -> tuple[dict, int]:
        session = FakeSession(latency_s=0.0, throttle_per_mille=100)
        order = list(range(len(bodies)))
        random.Random(order_seed).shuffle(order)
        statuses: dict[str, list[int]] = {}
        lock = threading.Lock()

        def post(i: int) -> None:
            key = body_key(f"{URL}/chat/completions", bodies[i])
            status = session.post(f"{URL}/chat/completions", json=bodies[i]).status_code
            with lock:
                statuses.setdefault(key, []).append(status)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                list(pool.map(post, order))
        finally:
            sys.setswitchinterval(previous)
        return {k: sorted(v) for k, v in statuses.items()}, session.throttled

    first, throttled = outcomes(0)
    assert 0 < throttled < 150
    for order_seed in (1, 2, 3):
        assert outcomes(order_seed) == (first, throttled)


def test_throttling_is_a_function_of_body_and_attempt():
    keys = [body_key(URL, {"n": i}) for i in range(5000)]
    hits = [k for k in keys if is_throttled(k, 0, 10)]
    assert 20 <= len(hits) <= 80
    assert not any(is_throttled(k, 1, 10) for k in keys)
    assert [k for k in keys if is_throttled(k, 0, 10)] == hits


def test_covered_merges_overlapping_intervals():
    assert covered([]) == 0.0
    assert covered([(1.0, 4.0), (3.0, 6.0), (8.0, 9.0)]) == pytest.approx(6.0)
    assert covered([(0.0, 10.0), (2.0, 3.0)]) == pytest.approx(10.0)


def test_self_time_on_a_synthetic_span_tree():
    # root [0, 10] has concurrent children a [1, 4] and b [3, 6]; a has child
    # c [2, 3]; d [9, 12] runs past its parent root and is clipped to [9, 10].
    spans = [
        (1, "root", 0.0, 10.0, None, True),
        (2, "a", 1.0, 4.0, 1, True),
        (3, "b", 3.0, 6.0, 1, True),
        (4, "c", 2.0, 3.0, 2, True),
        (5, "d", 9.0, 12.0, 1, False),
    ]
    rows = summarize(spans)
    assert rows["root"]["self_s"] == pytest.approx(10.0 - 5.0 - 1.0)
    assert rows["a"]["self_s"] == pytest.approx(2.0)
    assert rows["b"]["self_s"] == pytest.approx(3.0)
    assert rows["c"]["self_s"] == pytest.approx(1.0)
    assert rows["d"] == {"calls": 1, "ok": 0, "total_s": 3.0, "self_s": 3.0}


def test_tracer_links_executor_tasks_to_the_submitting_span():
    tracer = Tracer()
    leaf = tracer.wrap("leaf", lambda x: x * 2)
    executor = tracer.executor(ThreadPoolExecutor)

    def fan_out(n: int) -> list[int]:
        with executor(max_workers=2) as pool:
            return list(pool.map(leaf, range(n)))

    assert tracer.wrap("root", fan_out)(6) == [0, 2, 4, 6, 8, 10]
    root = next(s for s in tracer.spans if s[1] == "root")
    leaves = [s for s in tracer.spans if s[1] == "leaf"]
    assert len(leaves) == 6 and all(s[4] == root[0] for s in leaves)


def test_opaque_span_hides_calls_made_inside_it():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: 1)
    outer = tracer.wrap("outer", lambda: inner() + 1, opaque=True)
    assert outer() == 2 and inner() == 1
    assert [s[1] for s in tracer.spans] == ["outer", "inner"]
    assert tracer.spans[1][4] is None


def test_same_seed_gives_identical_inputs(tmp_path):
    mix = SPEC["generation_mix"]["weights"]
    first = inputs.write_inputs(tmp_path / "a", 3, 300, 50, mix)
    second = inputs.write_inputs(tmp_path / "b", 3, 300, 50, mix)
    assert first == second
    for path in sorted((tmp_path / "a").rglob("*.jsonl")):
        assert path.read_bytes() == (tmp_path / "b" / path.relative_to(tmp_path / "a")).read_bytes()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_generation_mix_keeps_every_metric_above_zero(tmp_path, seed):
    mix = SPEC["generation_mix"]["weights"]
    inputs.write_inputs(tmp_path, seed, 1500, 300, mix)
    config = load_config(
        None,
        [
            f"paths.data_in={tmp_path / 'records.jsonl'}",
            f"paths.qa_in={tmp_path / 'qa.jsonl'}",
            f"paths.out_dir={tmp_path / 'out'}",
        ],
    )
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.cmd_evaluate(config, "mock", tmp_path / "generations", None) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"))
    assert len(report) == 19
    assert all(value > 0 for value in report.values())
    assert report["P_pt"] < 100 and report["BL_qa"] < 100
