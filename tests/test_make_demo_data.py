import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from ecomforge.cli import demo_data_path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import make_demo_data  # noqa: E402


def _jsonl_sha256(rows):
    return hashlib.sha256("".join(json.dumps(row) + "\n" for row in rows).encode()).hexdigest()


def test_flagless_run_writes_the_bundled_fixture(tmp_path):
    make_demo_data.main(["--out", str(tmp_path)])
    for name in ("demo_records.jsonl", "demo_qa.jsonl"):
        assert (tmp_path / name).read_bytes() == demo_data_path(name).read_bytes()


def test_make_qa_is_unchanged():
    # The benchmark's pinned inputs come from make_qa; 1,000 rows cycle
    # through its 100 questions ten times.
    rows = make_demo_data.make_qa(random.Random(7), 1000)
    assert _jsonl_sha256(rows) == "07ca03837470d047ea3b09501ebb1cd70b954e7d29b9f76dddaa46ed51dee9fe"


def test_distinct_qa_at_ten_thousand_rows():
    rows = make_demo_data.make_distinct_qa(random.Random(7), 10_000)
    assert len({row["question"] for row in rows}) == 10_000
    assert len({row["id"] for row in rows}) == 10_000
    assert rows[:100] == make_demo_data.make_qa(random.Random(7), 100)


def test_distinct_qa_refuses_more_than_it_can_make():
    with pytest.raises(ValueError, match="at most"):
        make_demo_data.make_distinct_qa(random.Random(0), make_demo_data.MAX_DISTINCT_QA + 1)


def test_sizes_and_seed_flags(tmp_path):
    make_demo_data.main(["--out", str(tmp_path), "--records", "30", "--qa", "250", "--seed", "7"])
    records = (tmp_path / "demo_records.jsonl").read_text(encoding="utf-8").splitlines()
    qa = [json.loads(line) for line in (tmp_path / "demo_qa.jsonl").read_text(encoding="utf-8").splitlines()]
    rng = random.Random(7)
    assert [json.loads(line) for line in records] == make_demo_data.make_records(rng, 30)
    assert qa == make_demo_data.make_distinct_qa(rng, 250)
