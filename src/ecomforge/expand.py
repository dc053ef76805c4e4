"""Teacher-model expansion of the seed set.

Three strategies: instruction rewriting (all tasks), response generation and
response rewriting (generative tasks only; classification-style outputs are
fixed labels and must not change). Each seed's calls form one chain, run as
one task on a bounded thread pool: the seed's instruction rewrites, then its
response generations, because generation j reuses the j-th successful
rewrite, then its response rewrites. Output assembly is deterministic: seed
order, then strategy order, then variant index.
"""
from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from .core import ForgeError
from .formulate import (
    EXPANDED_ORIGIN,
    INSTRUCTION_REWRITE,
    LABEL_TASKS,
    RESPONSE_GENERATION,
    RESPONSE_REWRITE,
    InstructionPair,
    Provenance,
)
from .modelio import Backend, BackendError, BackendRequest, COMPLETE, TransportError, stable_hash

INSTRUCTION_REWRITE_PROMPT = (
    "Rewrite the following instruction while maintaining semantic consistency:"
)
RESPONSE_REWRITE_PROMPT = (
    "Rewrite the following generated response to diversify its expression:"
)

_STRATEGY_TAGS = {
    INSTRUCTION_REWRITE: "ir",
    RESPONSE_GENERATION: "rg",
    RESPONSE_REWRITE: "rr",
}


@dataclass(frozen=True)
class ExpansionPlan:
    """Variant counts per strategy, the seed the calls' sampling seeds derive
    from, the backend's concurrency (the pool runs twice that many chains)
    and the decoding settings, as ``config`` checked them.
    Classification-style tasks (``LABEL_TASKS``) get instruction rewrites
    only."""

    instruction_rewrites: int
    response_generations: int
    response_rewrites: int
    rng_seed: int
    concurrency: int
    temperature: float
    max_tokens: int


@dataclass(frozen=True)
class ExpansionFailure:
    seed_id: str
    strategy: str
    index: int
    reason: str


@dataclass
class ExpansionResult:
    pairs: list[InstructionPair]
    failures: list[ExpansionFailure] = field(default_factory=list)


def expand_corpus(
    backend: Backend, seeds: list[InstructionPair], plan: ExpansionPlan
) -> ExpansionResult:
    """Grow the seed set per the plan, returning seeds plus variants.

    Each seed's chain is one task on a pool of ``2 * plan.concurrency``
    threads: its instruction rewrites, then response generation j on the j-th
    successful rewrite (or on the seed instruction when fewer rewrites
    succeeded), then its response rewrites. Failed calls are collected,
    every seed's rewrites first, then per seed the generations before the
    response rewrites. Raises ForgeError, naming the first failure, when
    every teacher call failed, or when the first ``2 * plan.concurrency``
    calls to finish all got no response (``TransportError.status`` None)
    and none answered: then no chain starts another call. Any answer, an
    HTTP error status included, turns that early stop off for the run.
    """
    if not seeds:
        raise ValueError("seeds must be nonempty")
    teacher = backend.model
    limit = 2 * plan.concurrency
    lock = threading.Lock()
    silent: list[ExpansionFailure] = []  # calls with no response, while none answered
    answered = unreachable = False

    def heard(exc: BackendError | None, failure: ExpansionFailure | None = None) -> None:
        """Note how a call ended: ``exc`` is None when it was answered."""
        nonlocal answered, unreachable
        with lock:
            if answered:
                return
            if isinstance(exc, TransportError) and exc.status is None:
                silent.append(failure)
                unreachable = len(silent) >= limit
            else:
                answered = True

    def call(pair, strategy, j, prompt, failures) -> str | None:
        """The teacher's cleaned text, or None after adding the failure."""
        if unreachable:
            return None
        request = BackendRequest(
            kind=COMPLETE,
            text=prompt,
            model=teacher,
            temperature=plan.temperature,
            max_tokens=plan.max_tokens,
            seed=stable_hash(plan.rng_seed, pair.id, strategy, j) % (2**31),
        )
        try:
            text = backend.complete(request)
        except BackendError as exc:
            failures.append(ExpansionFailure(pair.id, strategy, j, str(exc)))
            heard(exc, failures[-1])
            return None
        heard(None)
        if not text:
            failures.append(
                ExpansionFailure(pair.id, strategy, j, "teacher returned empty text after cleaning")
            )
            return None
        return text

    def variant(pair, strategy, j, instruction, output) -> InstructionPair:
        return InstructionPair(
            id=f"{pair.id}-{_STRATEGY_TAGS[strategy]}{j}",
            task=pair.task,
            instruction=instruction,
            input=pair.input,
            output=output,
            provenance=Provenance(EXPANDED_ORIGIN, strategy, pair.id, teacher),
        )

    def expand_seed(pair: InstructionPair):
        """The seed's variants, rewrite failures, response failures and calls."""
        variants, rewrite_failures, response_failures = [], [], []
        rewrite_prompt = f"{INSTRUCTION_REWRITE_PROMPT}\n{pair.instruction}"
        for j in range(plan.instruction_rewrites):
            text = call(pair, INSTRUCTION_REWRITE, j, rewrite_prompt, rewrite_failures)
            if text is not None:
                variants.append(variant(pair, INSTRUCTION_REWRITE, j, text, pair.output))
        if pair.task in LABEL_TASKS:
            return variants, rewrite_failures, response_failures, plan.instruction_rewrites
        rewrites = [v.instruction for v in variants]
        for j in range(plan.response_generations):
            instruction = rewrites[j] if j < len(rewrites) else pair.instruction
            prompt = f"{instruction}\n{pair.input}" if pair.input else instruction
            text = call(pair, RESPONSE_GENERATION, j, prompt, response_failures)
            if text is not None:
                variants.append(variant(pair, RESPONSE_GENERATION, j, instruction, text))
        response_prompt = f"{RESPONSE_REWRITE_PROMPT}\n{pair.output}"
        for j in range(plan.response_rewrites):
            text = call(pair, RESPONSE_REWRITE, j, response_prompt, response_failures)
            if text is not None:
                variants.append(variant(pair, RESPONSE_REWRITE, j, pair.instruction, text))
        calls = plan.instruction_rewrites + plan.response_generations + plan.response_rewrites
        return variants, rewrite_failures, response_failures, calls

    # Twice the backend's slots: up to half the chains can be backing off
    # from a retry while the rest keep every slot busy.
    with ThreadPoolExecutor(max_workers=2 * plan.concurrency) as pool:
        variants, rewrite_failures, response_failures, calls = zip(*pool.map(expand_seed, seeds))
    if unreachable:
        first = silent[0]
        raise ForgeError(
            f"teacher endpoint unreachable: the first {limit} calls got no response "
            f"(first: seed {first.seed_id}, {first.strategy} {first.index}: {first.reason})"
        )
    failures = [f for seed_failures in rewrite_failures + response_failures for f in seed_failures]
    total_calls = sum(calls)
    if total_calls > 0 and len(failures) == total_calls:
        first = failures[0]
        raise ForgeError(
            f"all {total_calls} teacher calls failed (first: seed {first.seed_id}, "
            f"{first.strategy} {first.index}: {first.reason})"
        )
    pairs = [p for pair, seed_variants in zip(seeds, variants) for p in (pair, *seed_variants)]
    return ExpansionResult(pairs=pairs, failures=failures)
