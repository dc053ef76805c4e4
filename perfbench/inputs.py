"""Benchmark inputs: interaction records, platform Q&A and model generations.

Records and Q&A come from ``tools/make_demo_data.py`` driven by
``random.Random(seed)``; generations for ``forge evaluate`` follow the pinned
mix in ``workloads.json``. The same seed always gives byte-identical files.
"""
from __future__ import annotations

import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tools"))

import make_demo_data  # noqa: E402

from ecomforge.config import load_config  # noqa: E402
from ecomforge.core import Action  # noqa: E402
from ecomforge.ingest import split_generic  # noqa: E402

TASKS = (
    "ads_generation",
    "title_rewriting",
    "product_classification",
    "intent_speculation",
    "general_qa",
)
LABELS = tuple(make_demo_data.PRODUCTS)

NON_ASCII_TAILS = (
    "✨ très élégant",
    "— édition limitée 🎁",
    "😊 Merci beaucoup !",
    "限定モデル 🔥",
    "Größe: M · Ñandú",
)
PARAPHRASE_PREFIXES = ("Rephrased:", "In other words:", "Simply put:", "Here you go:")


def write_jsonl(rows: list[dict], path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")


def make_sources(seed: int, n_records: int, n_qa: int) -> tuple[list[dict], list[dict]]:
    rng = random.Random(seed)
    records = make_demo_data.make_records(rng, n_records)
    return records, make_demo_data.make_qa(rng, n_qa)


def heldout_split(items: list[dict]) -> list[dict]:
    """The items ``forge`` puts in the test split under the default config."""
    config = load_config(None, [])
    _, test = split_generic(
        items, config["pipeline"]["split_ratio"], config.rng_seed, lambda item: item["id"]
    )
    return test


def _paraphrase(rng: random.Random, text: str, extra: str = "") -> str:
    words = f"{text} {extra}".split()
    k = 1 + rng.randrange(len(words) - 1) if len(words) > 1 else 0
    return f"{rng.choice(PARAPHRASE_PREFIXES)} {' '.join(words[k:] + words[:k])}"


def _label_text(label: str, rng: random.Random) -> str:
    shown = label.title().replace(" And ", " & ")
    return rng.choice(
        (f"This product belongs to {shown}.", f"Category: {shown}", f"I would say {label}!")
    )


def make_generations(
    seed: int, records: list[dict], qa: list[dict], weights: dict[str, float]
) -> dict[str, list[dict]]:
    """One ``{id, generation}`` row per evaluable test item and task.

    Each row is, by the pinned weights, the reference itself, a word-rotated
    paraphrase, another item's reference (a wrong answer), or the reference
    with non-ASCII text appended.
    """
    rng = random.Random(f"generations-{seed}")
    kinds, cum = list(weights), []
    total = 0.0
    for kind in kinds:
        total += weights[kind]
        cum.append(total)

    def pick() -> str:
        x = rng.random() * total
        return next(kind for kind, edge in zip(kinds, cum) if x < edge)

    def mixed(reference: str, paraphrase: str, wrong: str) -> str:
        kind = pick()
        if kind == "reference":
            return reference
        if kind == "paraphrase":
            return paraphrase
        if kind == "wrong":
            return wrong
        return f"{reference} {rng.choice(NON_ASCII_TAILS)}"

    test_records = heldout_split([r for r in records if r["action"] != Action.NO_ACTION])
    test_qa = heldout_split(qa)
    out: dict[str, list[dict]] = {task: [] for task in TASKS}
    for r in test_records:
        other = rng.choice(test_records)
        if r["description"]:
            out["ads_generation"].append(
                {
                    "id": r["id"],
                    "generation": mixed(
                        r["description"],
                        _paraphrase(rng, r["description"], r["title"]),
                        other["description"] or other["title"],
                    ),
                }
            )
        if r["query"]:
            out["title_rewriting"].append(
                {
                    "id": r["id"],
                    "generation": mixed(
                        r["title"], _paraphrase(rng, r["title"], r["query"]), other["title"]
                    ),
                }
            )
        for task in ("product_classification", "intent_speculation"):
            wrong = rng.choice([label for label in LABELS if label != r["taxonomy"]])
            out[task].append(
                {
                    "id": r["id"],
                    "generation": mixed(r["taxonomy"], _label_text(r["taxonomy"], rng), wrong),
                }
            )
    for q in test_qa:
        other = rng.choice(test_qa)
        out["general_qa"].append(
            {
                "id": q["id"],
                "generation": mixed(q["answer"], _paraphrase(rng, q["answer"]), other["answer"]),
            }
        )
    return out


def write_inputs(
    workdir: Path, seed: int, n_records: int, n_qa: int, mix: dict[str, float] | None
) -> dict[str, int]:
    """Write records.jsonl, qa.jsonl and, when a mix is given, one
    generations/<task>.jsonl per task. Returns the row count of each file."""
    workdir.mkdir(parents=True, exist_ok=True)
    records, qa = make_sources(seed, n_records, n_qa)
    write_jsonl(records, workdir / "records.jsonl")
    write_jsonl(qa, workdir / "qa.jsonl")
    counts = {"records": len(records), "qa": len(qa)}
    if mix is not None:
        gen_dir = workdir / "generations"
        gen_dir.mkdir(exist_ok=True)
        for task, rows in make_generations(seed, records, qa, mix).items():
            write_jsonl(rows, gen_dir / f"{task}.jsonl")
            counts[task] = len(rows)
    return counts
