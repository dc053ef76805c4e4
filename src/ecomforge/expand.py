"""Teacher-model expansion of the seed set.

Three strategies: instruction rewriting (all tasks), response generation and
response rewriting (generative tasks only; classification-style outputs are
fixed labels and must not change). Each teacher call is one job: a seed
pair, a strategy, a variant index and a prompt. The jobs run as two flat
passes over one bounded thread pool: first every instruction rewrite, then
the response jobs, because response generation j reuses the j-th
successful rewrite. Output assembly is deterministic: seed order, then
strategy order, then variant index.
"""
from __future__ import annotations

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
from .modelio import Backend, BackendError, BackendRequest, COMPLETE, stable_hash

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
    from, the pool size and the decoding settings, as ``config`` checked
    them. Classification-style tasks (``LABEL_TASKS``) get instruction
    rewrites only."""

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

    Instruction rewrites run first; response generation j then asks for a
    response to the j-th successful rewrite, or to the seed instruction when
    fewer rewrites succeeded. Both passes share one pool of
    ``plan.concurrency`` threads. Failed calls are collected, rewrites
    first, then per seed the generations before the response rewrites.
    Raises ForgeError only when every teacher call failed.
    """
    if not seeds:
        raise ValueError("seeds must be nonempty")
    teacher = backend.default_model()

    def call(job: tuple) -> str | ExpansionFailure:
        pair, strategy, j, _, prompt = job
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
            return ExpansionFailure(pair.id, strategy, j, str(exc))
        if not text:
            return ExpansionFailure(
                pair.id, strategy, j, "teacher returned empty text after cleaning"
            )
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

    variants: dict[str, list[InstructionPair]] = {pair.id: [] for pair in seeds}
    failures: list[ExpansionFailure] = []

    # A job is (seed pair, strategy, index, instruction of the variant, prompt);
    # an instruction rewrite's variant takes the teacher's text instead.
    def collect(jobs: list[tuple], results) -> None:
        for (pair, strategy, j, instruction, _), out in zip(jobs, results):
            if isinstance(out, ExpansionFailure):
                failures.append(out)
            elif strategy == INSTRUCTION_REWRITE:
                variants[pair.id].append(variant(pair, strategy, j, out, pair.output))
            else:
                variants[pair.id].append(variant(pair, strategy, j, instruction, out))

    rewrite_jobs = [
        (
            pair,
            INSTRUCTION_REWRITE,
            j,
            None,
            f"{INSTRUCTION_REWRITE_PROMPT}\n{pair.instruction}",
        )
        for pair in seeds
        for j in range(plan.instruction_rewrites)
    ]
    with ThreadPoolExecutor(max_workers=plan.concurrency) as pool:
        collect(rewrite_jobs, pool.map(call, rewrite_jobs))
        response_jobs = []
        for pair in seeds:
            if pair.task in LABEL_TASKS:
                continue
            rewrites = [v.instruction for v in variants[pair.id]]
            for j in range(plan.response_generations):
                instruction = rewrites[j] if j < len(rewrites) else pair.instruction
                prompt = f"{instruction}\n{pair.input}" if pair.input else instruction
                response_jobs.append((pair, RESPONSE_GENERATION, j, instruction, prompt))
            rewrite_prompt = f"{RESPONSE_REWRITE_PROMPT}\n{pair.output}"
            response_jobs.extend(
                (pair, RESPONSE_REWRITE, j, pair.instruction, rewrite_prompt)
                for j in range(plan.response_rewrites)
            )
        collect(response_jobs, pool.map(call, response_jobs))

    total_calls = len(rewrite_jobs) + len(response_jobs)
    if total_calls > 0 and len(failures) == total_calls:
        raise ForgeError(f"all {total_calls} teacher calls failed")
    pairs = [p for pair in seeds for p in (pair, *variants[pair.id])]
    return ExpansionResult(pairs=pairs, failures=failures)
