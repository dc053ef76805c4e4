import dataclasses
import re
import sys
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import pytest

from ecomforge import expand
from ecomforge.core import ForgeError, TaskKind
from ecomforge.expand import (
    INSTRUCTION_REWRITE_PROMPT,
    RESPONSE_REWRITE_PROMPT,
    ExpansionPlan,
    expand_corpus,
)
from ecomforge.formulate import (
    EXPANDED_ORIGIN,
    LABEL_TASKS,
    INSTRUCTION_REWRITE,
    RESPONSE_GENERATION,
    RESPONSE_REWRITE,
    InstructionPair,
    Provenance,
)
from ecomforge.evalsuite import Sample, evaluate_run
from ecomforge.modelio import (
    COMPLETE,
    BackendRequest,
    HttpBackend,
    MockBackend,
    RetryPolicy,
    TransportError,
    stable_hash,
)


def _seed(task, i=0, output="a perfectly fine output text"):
    return InstructionPair(
        id=f"seed-{task.value}-{i}",
        task=task,
        instruction=f"Do the {task.value} thing for item {i} now",
        input=f"item {i} input text",
        output=output if task not in LABEL_TASKS else "home and living",
    )


def _one_seed_per_task():
    return [_seed(task) for task in TaskKind]


class FailingBackend(MockBackend):
    """Mock that fails for prompts containing a marker."""

    def send(self, request):
        if "FAIL" in request.text:
            raise TransportError("injected", status=500)
        return super().send(request)


class Counting(MockBackend):
    """Mock that answers its first ``answered`` calls and then raises
    ``error``, after ``pause_s``; it counts the calls it gets."""

    def __init__(self, error, answered=0, pause_s=0.0):
        super().__init__()
        self.error, self.answered, self.pause_s = error, answered, pause_s
        self.calls = 0
        self.lock = threading.Lock()

    def send(self, request):
        with self.lock:
            self.calls += 1
            answer = self.calls <= self.answered
        if answer:
            return super().send(request)
        time.sleep(self.pause_s)
        raise self.error


class Probe(MockBackend):
    """Mock that records every request it is sent."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.requests = []

    def send(self, request):
        self.requests.append(request)
        return super().send(request)


def _plan(**changes):
    """The plan ``forge expand`` builds from the default config, with ``changes``."""
    default = ExpansionPlan(
        instruction_rewrites=4,
        response_generations=1,
        response_rewrites=1,
        rng_seed=0,
        concurrency=4,
        temperature=0.7,
        max_tokens=256,
    )
    return dataclasses.replace(default, **changes)


def _only(strategy, n=1):
    """Plan with ``n`` variants of one strategy and none of the others."""
    return _plan(
        instruction_rewrites=n if strategy == INSTRUCTION_REWRITE else 0,
        response_generations=n if strategy == RESPONSE_GENERATION else 0,
        response_rewrites=n if strategy == RESPONSE_REWRITE else 0,
    )


def _variant_seed(seed_id, strategy, index, rng_seed=0):
    return stable_hash(rng_seed, seed_id, strategy, index) % (2**31)


class TestRewriteInstruction:
    def test_variants_share_input_output(self):
        pair = _seed(TaskKind.ADS_GENERATION)
        result = expand_corpus(MockBackend(), [pair], _only(INSTRUCTION_REWRITE, 3))
        variants = result.pairs[1:]
        assert not result.failures and len(variants) == 3
        # Field-compare oracle: everything except id/instruction matches.
        for i, v in enumerate(variants):
            assert v.id == f"{pair.id}-ir{i}"
            assert v.input == pair.input and v.output == pair.output
            assert v.task is pair.task
            assert v.provenance == Provenance(
                EXPANDED_ORIGIN, INSTRUCTION_REWRITE, pair.id, "mock"
            )
        assert len({v.instruction for v in variants}) == 3

    def test_prompt_uses_exact_wording(self):
        probe = Probe()
        pair = _seed(TaskKind.PRODUCT_CLASSIFICATION)
        expand_corpus(probe, [pair], _only(INSTRUCTION_REWRITE))
        assert [r.text for r in probe.requests] == [
            f"{INSTRUCTION_REWRITE_PROMPT}\n{pair.instruction}"
        ]

    def test_echo_mock_variant_equals_seed(self):
        pair = _seed(TaskKind.ADS_GENERATION)
        prompt = f"{INSTRUCTION_REWRITE_PROMPT}\n{pair.instruction}"
        echo = MockBackend(table={prompt: pair.instruction})
        result = expand_corpus(echo, [pair], _only(INSTRUCTION_REWRITE))
        assert result.pairs[1].instruction == pair.instruction  # dedup removes it later

    def test_partial_failure_collected(self):
        pair = _seed(TaskKind.ADS_GENERATION)
        # A zero-width space is nonempty on the wire and empty after cleaning.
        empty = MockBackend(table={f"{INSTRUCTION_REWRITE_PROMPT}\n{pair.instruction}": "\u200b"})
        plan = _plan(instruction_rewrites=2, response_generations=0, response_rewrites=1)
        result = expand_corpus(empty, [pair], plan)
        assert [p.id for p in result.pairs] == [pair.id, f"{pair.id}-rr0"]
        assert [(f.strategy, f.index) for f in result.failures] == [
            (INSTRUCTION_REWRITE, 0),
            (INSTRUCTION_REWRITE, 1),
        ]


def _ad_seed():
    return InstructionPair(
        id="ad-0",
        task=TaskKind.ADS_GENERATION,
        instruction="Write an ad.",
        input="salt lamp",
        output="A lamp of salt.",
    )


class TestResponseOps:
    def test_generate_response(self):
        mock = MockBackend(table={"Write an ad.\nsalt lamp": "Buy now!"})
        result = expand_corpus(mock, [_ad_seed()], _only(RESPONSE_GENERATION))
        rg0 = result.pairs[1]
        assert rg0.id == "ad-0-rg0" and rg0.output == "Buy now!"
        assert rg0.instruction == "Write an ad." and rg0.input == "salt lamp"
        assert rg0.provenance.strategy == RESPONSE_GENERATION

    def test_generate_prompt_without_input_is_the_instruction(self):
        pair = InstructionPair(
            id="qa-0",
            task=TaskKind.GENERAL_QA,
            instruction="How do I descale a kettle?",
            input="",
            output="Boil vinegar and water in it.",
        )
        probe = Probe()
        expand_corpus(probe, [pair], _only(RESPONSE_GENERATION))
        assert [r.text for r in probe.requests] == [pair.instruction]

    @pytest.mark.parametrize(
        "prompt, failed, kept",
        [
            ("Write an ad.\nsalt lamp", RESPONSE_GENERATION, "ad-0-rr0"),
            (f"{RESPONSE_REWRITE_PROMPT}\nA lamp of salt.", RESPONSE_REWRITE, "ad-0-rg0"),
        ],
        ids=["generate", "rewrite"],
    )
    def test_empty_output_is_a_failure(self, prompt, failed, kept):
        mock = MockBackend(table={prompt: " \u200b "})
        plan = _plan(instruction_rewrites=0, response_generations=1, response_rewrites=1)
        result = expand_corpus(mock, [_ad_seed()], plan)
        assert [p.id for p in result.pairs] == ["ad-0", kept]
        assert [(f.strategy, f.index) for f in result.failures] == [(failed, 0)]
        assert "empty" in result.failures[0].reason

    def test_rewrite_response_prompt_and_result(self):
        mock = MockBackend(
            table={f"{RESPONSE_REWRITE_PROMPT}\nold response": "a fresh paraphrase"}
        )
        pair = _seed(TaskKind.TITLE_REWRITING, output="old response")
        result = expand_corpus(mock, [pair], _only(RESPONSE_REWRITE))
        rr0 = result.pairs[1]
        assert rr0.id == f"{pair.id}-rr0" and rr0.output == "a fresh paraphrase"
        assert rr0.instruction == pair.instruction

    def test_generate_prompt_uses_the_rewritten_instruction(self):
        probe = Probe()
        plan = _plan(instruction_rewrites=1, response_generations=1, response_rewrites=0)
        result = expand_corpus(probe, [_ad_seed()], plan)
        assert probe.requests[-1].text == f"{result.pairs[1].instruction}\nsalt lamp"


class TestExpandCorpus:
    def test_counting_one_variant_per_strategy(self):
        seeds = _one_seed_per_task()
        plan = _plan(
            instruction_rewrites=1, response_generations=1, response_rewrites=1
        )
        result = expand_corpus(MockBackend(), seeds, plan)
        # 5 seeds + 2 label tasks x 1 + 3 generative tasks x 3 = 16
        assert len(result.pairs) == 16
        assert not result.failures

    def test_zero_variants_identity(self):
        seeds = _one_seed_per_task()
        plan = _plan(
            instruction_rewrites=0, response_generations=0, response_rewrites=0
        )
        result = expand_corpus(MockBackend(), seeds, plan)
        assert result.pairs == seeds

    def test_closed_form_count_oracle(self):
        per_task = 6
        seeds = [_seed(task, i) for task in TaskKind for i in range(per_task)]
        plan = _plan(
            instruction_rewrites=2, response_generations=3, response_rewrites=1
        )
        result = expand_corpus(MockBackend(), seeds, plan)
        n_label_tasks = 2
        n_generative = 3
        expected = (
            len(seeds)
            + n_label_tasks * per_task * plan.instruction_rewrites
            + n_generative
            * per_task
            * (plan.instruction_rewrites + plan.response_generations + plan.response_rewrites)
        )
        assert len(result.pairs) == expected

    def test_label_outputs_never_change(self):
        seeds = [_seed(task, i) for task in TaskKind for i in range(4)]
        result = expand_corpus(MockBackend(), seeds, _plan())
        for pair in result.pairs:
            if pair.task in (TaskKind.PRODUCT_CLASSIFICATION, TaskKind.INTENT_SPECULATION):
                assert pair.output == "home and living"
                if pair.provenance.origin == EXPANDED_ORIGIN:
                    assert pair.provenance.strategy == INSTRUCTION_REWRITE

    def test_provenance_forest_rooted_at_seeds(self):
        seeds = [_seed(task, i) for task in TaskKind for i in range(3)]
        result = expand_corpus(MockBackend(), seeds, _plan())
        seed_ids = {p.id for p in seeds}
        for pair in result.pairs:
            if pair.provenance.origin == EXPANDED_ORIGIN:
                assert pair.provenance.seed_id in seed_ids
                assert pair.provenance.strategy in (
                    INSTRUCTION_REWRITE,
                    RESPONSE_GENERATION,
                    RESPONSE_REWRITE,
                )
            else:
                assert pair.id in seed_ids

    def test_bit_deterministic_across_runs(self):
        seeds = [_seed(task, i) for task in TaskKind for i in range(5)]
        a = expand_corpus(MockBackend(), seeds, _plan(rng_seed=42, concurrency=4))
        b = expand_corpus(MockBackend(), seeds, _plan(rng_seed=42, concurrency=2))
        assert a.pairs == b.pairs

    def test_deterministic_order_seed_strategy_variant(self):
        seeds = [_seed(TaskKind.ADS_GENERATION, 0), _seed(TaskKind.GENERAL_QA, 1)]
        plan = _plan(
            instruction_rewrites=2, response_generations=2, response_rewrites=1
        )
        result = expand_corpus(MockBackend(), seeds, plan)
        ids = [p.id for p in result.pairs]
        s0, s1 = seeds[0].id, seeds[1].id
        assert ids == [
            s0, f"{s0}-ir0", f"{s0}-ir1", f"{s0}-rg0", f"{s0}-rg1", f"{s0}-rr0",
            s1, f"{s1}-ir0", f"{s1}-ir1", f"{s1}-rg0", f"{s1}-rg1", f"{s1}-rr0",
        ]

    def test_partial_failures_reported_not_fatal(self):
        seeds = [_seed(TaskKind.ADS_GENERATION, 0)]
        seeds[0] = InstructionPair(
            id=seeds[0].id,
            task=seeds[0].task,
            instruction="FAIL marker instruction",
            input=seeds[0].input,
            output=seeds[0].output,
        )
        plan = _plan(
            instruction_rewrites=2, response_generations=0, response_rewrites=1
        )
        result = expand_corpus(FailingBackend(), seeds, plan)
        # Instruction rewrites fail (prompt carries FAIL); response rewrite succeeds.
        assert len(result.failures) == 2
        assert Counter(f.strategy for f in result.failures) == {INSTRUCTION_REWRITE: 2}
        assert len(result.pairs) == 2  # seed + rr0

    def test_failed_rewrite_shifts_generation_and_orders_failures(self):
        a, b = _seed(TaskKind.ADS_GENERATION, 0), _seed(TaskKind.TITLE_REWRITING, 1)
        fail = {
            _variant_seed(a.id, INSTRUCTION_REWRITE, 0),
            _variant_seed(b.id, INSTRUCTION_REWRITE, 1),
            _variant_seed(a.id, RESPONSE_REWRITE, 0),
            _variant_seed(b.id, RESPONSE_GENERATION, 1),
            _variant_seed(b.id, RESPONSE_REWRITE, 0),
        }

        class Flaky(MockBackend):
            def send(self, request):
                if request.seed in fail:
                    raise TransportError("injected", status=500)
                return super().send(request)

        plan = _plan(
            instruction_rewrites=2, response_generations=2, response_rewrites=1, concurrency=3
        )
        result = expand_corpus(Flaky(), [a, b], plan)
        by_id = {p.id: p for p in result.pairs}
        # rg j uses the j-th successful rewrite: a's ir0 failed, so rg0 takes
        # ir1's text and rg1 falls back to the seed instruction.
        assert by_id[f"{a.id}-rg0"].instruction == by_id[f"{a.id}-ir1"].instruction
        assert by_id[f"{a.id}-rg1"].instruction == a.instruction
        assert by_id[f"{b.id}-rg0"].instruction == by_id[f"{b.id}-ir0"].instruction
        # Every rewrite failure in seed order, then per seed rg before rr.
        assert [(f.seed_id, f.strategy, f.index) for f in result.failures] == [
            (a.id, INSTRUCTION_REWRITE, 0),
            (b.id, INSTRUCTION_REWRITE, 1),
            (a.id, RESPONSE_REWRITE, 0),
            (b.id, RESPONSE_GENERATION, 1),
            (b.id, RESPONSE_REWRITE, 0),
        ]
        assert [p.id for p in result.pairs] == [
            a.id, f"{a.id}-ir1", f"{a.id}-rg0", f"{a.id}-rg1",
            b.id, f"{b.id}-ir0", f"{b.id}-rg0",
        ]

    def test_all_calls_failed(self):
        class Dead(MockBackend):
            def send(self, request):
                raise TransportError("down", status=500)

        seeds = [_seed(TaskKind.ADS_GENERATION, 0)]
        plan = _plan(instruction_rewrites=1, response_generations=1, response_rewrites=1)
        with pytest.raises(ForgeError) as exc:
            expand_corpus(Dead(), seeds, plan)
        # The error names the first failure in ``failures`` order.
        assert str(exc.value) == (
            "all 3 teacher calls failed "
            f"(first: seed {seeds[0].id}, {INSTRUCTION_REWRITE} 0: down)"
        )

    def test_unreachable_endpoint_stops_after_the_first_calls(self):
        backend = Counting(TransportError("connection refused"))
        seeds = [_seed(task, i) for i in range(10) for task in TaskKind]
        with pytest.raises(ForgeError) as exc:
            expand_corpus(backend, seeds, _plan(concurrency=2))
        assert re.fullmatch(
            r"teacher endpoint unreachable: the first 4 calls got no response "
            r"\(first: seed \S+, \S+ \d: connection refused\)",
            str(exc.value),
        )
        # The fourth refusal stops new calls; at most the other three chains
        # of the pool's four were already in one.
        assert 4 <= backend.calls <= 4 + 3

    def test_unreachable_stop_under_thread_switching(self):
        # Sixteen chains on two cores, switching threads every microsecond:
        # the refusals are counted under one lock, so every run stops at
        # the sixteenth and starts at most the fifteen in flight after it.
        seeds = [_seed(task, i) for i in range(20) for task in TaskKind]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                backend = Counting(TransportError("connection refused"))
                with pytest.raises(ForgeError, match="^teacher endpoint unreachable: the first 16 "):
                    expand_corpus(backend, seeds, _plan(concurrency=8))
                assert 16 <= backend.calls <= 16 + 15
        finally:
            sys.setswitchinterval(interval)

    def test_http_status_keeps_every_call(self):
        backend = Counting(TransportError("HTTP 503", status=503))
        seeds = [_seed(task, i) for i in range(2) for task in TaskKind]
        total = sum(4 if seed.task in LABEL_TASKS else 6 for seed in seeds)
        with pytest.raises(ForgeError, match=rf"^all {total} teacher calls failed "):
            expand_corpus(backend, seeds, _plan(concurrency=2))
        assert backend.calls == total

    def test_an_answer_turns_the_early_stop_off(self):
        # The first call sent is answered at once and the rest refused after
        # a pause, so the answer is the first call to finish.
        backend = Counting(TransportError("connection refused"), answered=1, pause_s=0.005)
        seeds = [_seed(task, i) for i in range(2) for task in TaskKind]
        total = sum(4 if seed.task in LABEL_TASKS else 6 for seed in seeds)
        result = expand_corpus(backend, seeds, _plan(concurrency=2))
        assert backend.calls == total
        assert len(result.failures) == total - 1

    def test_posts_in_flight_stay_within_the_backend_concurrency(self):
        """expand runs twice as many chains as the backend has slots, and
        evaluate overlaps its logprob posts; throttled calls back off. The
        posts on the wire at once never outnumber ``concurrency``."""
        concurrency = 2
        lock = threading.Lock()
        state = {"active": 0, "peak": 0, "throttled": 0}
        posted = Counter()
        threads = set()
        mock = MockBackend()

        class Response:
            def __init__(self, status_code, payload=None):
                self.status_code, self.payload = status_code, payload

            def json(self):
                return self.payload

        class CountingSession:
            """Answers as the mock backend does; the first post of about a
            quarter of the bodies gets a 429."""

            def post(self, url, **kwargs):
                body = kwargs["json"]
                text = body["messages"][-1]["content"]
                key = (text, body.get("seed"), body.get("logprobs"))
                with lock:
                    state["active"] += 1
                    state["peak"] = max(state["peak"], state["active"])
                    threads.add(threading.get_ident())
                    throttled = posted[key] == 0 and stable_hash(*key) % 4 == 0
                    posted[key] += 1
                    state["throttled"] += throttled
                time.sleep(0.001)
                try:
                    if throttled:
                        return Response(429)
                    if body.get("logprobs"):
                        content = [{"logprob": lp} for lp in mock.score_logprobs(text)]
                        return Response(200, {"choices": [{"logprobs": {"content": content}}]})
                    request = BackendRequest(
                        kind=COMPLETE,
                        text=text,
                        model=body["model"],
                        temperature=body["temperature"],
                        max_tokens=body["max_tokens"],
                        seed=body["seed"],
                    )
                    message = {"content": mock.send(request).text}
                    return Response(200, {"choices": [{"message": message}]})
                finally:
                    with lock:
                        state["active"] -= 1

        backend = HttpBackend(
            base_url="http://stub",
            model=mock.model,
            session=CountingSession(),
            policy=RetryPolicy(max_retries=1, base_delay=0.002),
            concurrency=concurrency,
        )
        seeds = [_seed(task, i) for task in TaskKind for i in range(6)]
        plan = _plan(
            instruction_rewrites=2,
            response_generations=1,
            response_rewrites=1,
            concurrency=concurrency,
        )
        result = expand_corpus(backend, seeds, plan)
        assert result == expand_corpus(mock, seeds, plan)
        assert 1 <= len(threads) <= 2 * concurrency

        samples = [
            Sample(f"t{i}", f"oak desk lamp number {i}", ("oak desk lamp", "desk lamp"))
            for i in range(12)
        ]
        report = evaluate_run({TaskKind.TITLE_REWRITING: samples}, backend)
        assert report.values["PPL"] == evaluate_run(
            {TaskKind.TITLE_REWRITING: samples}, mock
        ).values["PPL"]
        assert state["throttled"] > 0
        assert 1 <= state["peak"] <= concurrency

    def test_one_pool_task_per_seed(self, monkeypatch):
        submitted = []

        class Counting(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                submitted.append(fn)
                return super().submit(fn, *args, **kwargs)

        monkeypatch.setattr(expand, "ThreadPoolExecutor", Counting)
        seeds = [_seed(task, i) for task in TaskKind for i in range(3)]
        plan = _plan(instruction_rewrites=2, response_generations=2, response_rewrites=1)
        result = expand_corpus(MockBackend(), seeds, plan)
        assert len(submitted) == len(seeds)
        assert not result.failures

    def test_pool_runs_two_chains_per_backend_slot(self, monkeypatch):
        sizes = []

        class Sized(ThreadPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(expand, "ThreadPoolExecutor", Sized)
        expand_corpus(MockBackend(), _one_seed_per_task(), _plan(concurrency=3))
        assert sizes == [6]

    def test_empty_seeds_rejected(self):
        with pytest.raises(ValueError):
            expand_corpus(MockBackend(), [], _plan())

    def test_decoding_passed_through(self):
        probe = Probe()
        seeds = [_seed(TaskKind.ADS_GENERATION)]
        plan = dataclasses.replace(_only(INSTRUCTION_REWRITE), temperature=0.3, max_tokens=64)
        expand_corpus(probe, seeds, plan)
        assert probe.requests[0].temperature == 0.3 and probe.requests[0].max_tokens == 64
