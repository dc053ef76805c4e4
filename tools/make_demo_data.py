#!/usr/bin/env python3
"""Regenerate the bundled synthetic demo fixture, or write larger inputs.

With no flags, writes 500 product interaction rows and 100 platform Q&A
pairs under src/ecomforge/data/: the committed files are this output.
``--out``, ``--records``, ``--qa`` and ``--seed`` write other sizes
elsewhere; the Q&A questions stay distinct up to ``MAX_DISTINCT_QA`` rows,
and the first 100 are always the bundled ones. Fully deterministic.

    python tools/make_demo_data.py --out inputs --records 60000 --qa 10000 --seed 7
"""
from __future__ import annotations

import argparse
import json
import random
from pathlib import Path

OUT_DIR = Path(__file__).resolve().parent.parent / "src" / "ecomforge" / "data"

PRODUCTS = {
    "clothing": ["maxi dress", "linen shirt", "wool cardigan", "denim jacket", "kimono robe"],
    "accessories": ["silk scarf", "leather belt", "wool beanie", "hair clip set", "bow tie"],
    "home and living": ["salt lamp", "ceramic vase", "throw blanket", "wall clock", "candle set"],
    "weddings": ["bridal veil", "ring pillow", "table numbers", "guest book", "cake topper"],
    "art and collectibles": ["giclee print", "bronze figurine", "watercolor portrait", "enamel pin", "vintage poster"],
    "craft supplies and tools": ["yarn bundle", "stamp set", "resin molds", "embroidery hoop", "bead assortment"],
    "jewelry": ["pendant necklace", "stacking rings", "charm bracelet", "stud earrings", "locket"],
    "paper and party supplies": ["greeting cards", "party banner", "gift wrap roll", "sticker sheet", "invitation set"],
    "toys and games": ["wooden puzzle", "plush bear", "board game", "building blocks", "toy train"],
    "electronics and accessories": ["phone stand", "cable organizer", "laptop sleeve", "earbud case", "usb lamp"],
    "books movies and music": ["vinyl record", "poetry anthology", "movie poster book", "songbook", "journal"],
    "bath and beauty": ["soap bar set", "bath bombs", "beard oil", "lip balm trio", "body scrub"],
    "bags and purses": ["tote bag", "crossbody purse", "canvas backpack", "clutch wallet", "drawstring pouch"],
    "shoes": ["leather sandals", "ballet flats", "ankle boots", "espadrilles", "house slippers"],
    "pet supplies": ["cat collar", "dog bandana", "pet bed", "treat jar", "rope toy"],
}

ADJECTIVES = [
    "handmade", "vintage", "personalized", "boho", "minimalist", "rustic",
    "custom", "eco friendly", "artisan", "luxury", "modern", "classic",
]
MATERIALS = [
    "oak", "brass", "organic cotton", "recycled glass", "merino wool",
    "bamboo", "sterling silver", "terracotta", "linen", "walnut",
]
EXTRAS = [
    "gift boxed", "free engraving", "limited edition", "small batch",
    "made to order", "hand finished", "fair trade", "new season",
]
EMOJI = ["🔥", "✨", "🎁", "💎", "🌿", "⭐"]

QUERY_SHAPES = [
    "{adj} {product}",
    "{product} for {who}",
    "{adj} {product} gift",
    "{material} {product}",
    "best {product}",
]
WHO = ["mom", "dad", "kids", "him", "her", "friends", "teachers", "couples"]

ACTIONS = ["no_action", "click", "cart_add", "purchase"]
ACTION_WEIGHTS = [0.2, 0.4, 0.25, 0.15]

QA_TOPICS = [
    ("How am I charged for {feature}?",
     "Charges for {feature} accrue to your payment account and appear in your monthly statement, itemized per listing."),
    ("How do I set up {feature} for my shop?",
     "Open your shop manager, choose settings, then enable {feature}. Changes apply to new listings within a few minutes."),
    ("Where can I review my {feature} performance?",
     "The stats dashboard shows {feature} performance, including visits, orders, and conversion over any date range."),
    ("Can I cancel {feature} at any time?",
     "Yes. Disable {feature} from your shop settings; billing stops at the end of the current cycle and no further fees accrue."),
    ("What are the eligibility requirements for {feature}?",
     "Shops in good standing with a complete profile and at least one active listing qualify for {feature} automatically."),
]
QA_FEATURES = [
    "Ads", "Offsite Ads", "shop stats", "promoted listings", "sales events",
    "shipping profiles", "gift cards", "star seller status", "shop updates",
    "abandoned cart coupons", "search analytics", "listing videos",
    "production partners", "vacation mode", "custom order requests",
    "targeted offers", "storefront banners", "review responses",
    "deposit schedules", "currency conversion",
]
# Past the first len(QA_TOPICS) * len(QA_FEATURES) rows, each question and
# its answer name a shop category and a situation as well.
QA_SITUATIONS = [
    "as a new seller", "before the holiday rush", "on the mobile app",
    "for international orders", "during a sitewide sale", "while on vacation",
    "with a second shop", "as a shop team member",
]


def make_records(rng: random.Random, n: int = 500) -> list[dict]:
    labels = list(PRODUCTS)
    records = []
    for i in range(n):
        taxonomy = labels[i % len(labels)]
        product = rng.choice(PRODUCTS[taxonomy])
        adj = rng.choice(ADJECTIVES)
        material = rng.choice(MATERIALS)
        extra1, extra2 = rng.sample(EXTRAS, 2)
        title = f"{adj.title()} {material} {product} {extra1}"
        if rng.random() < 0.06:
            title = f"{title} {rng.choice(EMOJI)}"
        description = None
        if rng.random() < 0.92:
            description = (
                f"This {adj} {product} is crafted from {material} and comes {extra1}. "
                f"A thoughtful pick, {extra2}, ready to ship."
            )
        query = None
        if rng.random() < 0.88:
            shape = rng.choice(QUERY_SHAPES)
            query = shape.format(
                adj=rng.choice(ADJECTIVES),
                product=product,
                material=rng.choice(MATERIALS),
                who=rng.choice(WHO),
            )
        action = rng.choices(ACTIONS, weights=ACTION_WEIGHTS, k=1)[0]
        records.append(
            {
                "id": f"rec-{i:04d}",
                "title": title,
                "description": description,
                "taxonomy": taxonomy,
                "query": query,
                "action": action,
            }
        )
    return records


def make_qa(rng: random.Random, n: int = 100) -> list[dict]:
    pairs = []
    for i in range(n):
        question_tpl, answer_tpl = QA_TOPICS[i % len(QA_TOPICS)]
        feature = QA_FEATURES[(i // len(QA_TOPICS)) % len(QA_FEATURES)]
        pairs.append(
            {
                "id": f"qa-{i:03d}",
                "question": question_tpl.format(feature=feature),
                "answer": answer_tpl.format(feature=feature),
            }
        )
    return pairs


PLAIN_QA = len(QA_TOPICS) * len(QA_FEATURES)
MAX_DISTINCT_QA = PLAIN_QA * (1 + len(PRODUCTS) * len(QA_SITUATIONS))


def make_distinct_qa(rng: random.Random, n: int) -> list[dict]:
    """``n`` Q&A pairs with distinct questions: ``make_qa``'s first 100,
    then the same questions for each shop category and situation in turn."""
    if n > MAX_DISTINCT_QA:
        raise ValueError(f"at most {MAX_DISTINCT_QA} distinct Q&A pairs, asked for {n}")
    pairs = make_qa(rng, min(n, PLAIN_QA))
    categories = list(PRODUCTS)
    for i in range(PLAIN_QA, n):
        question_tpl, answer_tpl = QA_TOPICS[i % len(QA_TOPICS)]
        feature = QA_FEATURES[(i // len(QA_TOPICS)) % len(QA_FEATURES)]
        category, situation = divmod(i // PLAIN_QA - 1, len(QA_SITUATIONS))
        where = f"{QA_SITUATIONS[situation]} with {categories[category]} listings"
        pairs.append(
            {
                "id": f"qa-{i:03d}",
                "question": f"{question_tpl.format(feature=feature)[:-1]} {where}?",
                "answer": f"{answer_tpl.format(feature=feature)} The same holds {where}.",
            }
        )
    return pairs


def write_jsonl(rows: list[dict], path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=OUT_DIR, help="directory for the two files")
    parser.add_argument("--records", type=int, default=500, help="interaction rows")
    parser.add_argument("--qa", type=int, default=PLAIN_QA, help=f"Q&A pairs, at most {MAX_DISTINCT_QA}")
    parser.add_argument("--seed", type=int, default=20240101, help="random seed")
    args = parser.parse_args(argv)
    rng = random.Random(args.seed)
    args.out.mkdir(parents=True, exist_ok=True)
    records = make_records(rng, args.records)
    qa = make_distinct_qa(rng, args.qa)
    write_jsonl(records, args.out / "demo_records.jsonl")
    write_jsonl(qa, args.out / "demo_qa.jsonl")
    actions = {a: sum(1 for r in records if r["action"] == a) for a in ACTIONS}
    with_query = sum(1 for r in records if r["query"])
    with_desc = sum(1 for r in records if r["description"])
    print(f"records: {len(records)} (queries {with_query}, descriptions {with_desc})")
    print(f"actions: {actions}")
    print(f"qa pairs: {len(qa)}")


if __name__ == "__main__":
    main()
