import argparse
import fcntl
import hashlib
import json
import math
import os
import re
import signal
import subprocess
import sys
import threading
import time
import unicodedata
from pathlib import Path
from typing import Callable, NamedTuple

import pytest

from ecomforge import evalsuite
from ecomforge.cli import (
    EXIT_ERROR,
    EXIT_OK,
    EXIT_PARTIAL,
    STAGES,
    OutDirLock,
    build_parser,
    demo_data_path,
    main,
    make_backend,
)
from ecomforge.config import DEFAULTS, _validate, load_config, parse_override
from ecomforge.core import TAXONOMY, Action, ForgeError, ProductRecord, TaskKind, clean_text
from ecomforge.curate import load_jsonl
from ecomforge.expand import ExpansionFailure
from ecomforge.ingest import CHUNK, build_record, canonical_json, sha256_file, write_rows
from ecomforge.modelio import (
    LOGPROBS,
    BackendResponse,
    HttpBackend,
    MockBackend,
    RetryPolicy,
    TransportError,
)

# A whole-file JSON value nested deeper than any parser recursion limit.
DEEP_JSON = "[" * 200_000 + "]" * 200_000


def _run(tmp_path, *argv, config=None):
    args = list(argv)
    if config is not None:
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config), encoding="utf-8")
        args += ["--config", str(cfg_path)]
    args += ["--set", f"paths.out_dir={tmp_path / 'out'}"]
    return main(args)


def _write_ads_generation(gen_dir):
    """Write a one-row ads_generation.jsonl for the first demo test record
    with a description; returns its id."""
    from ecomforge.cli import _load_splits

    (_, test), _, _ = _load_splits(load_config())
    record = next(r for r in map(build_record, test) if r.description)
    gen_dir.mkdir(exist_ok=True)
    (gen_dir / "ads_generation.jsonl").write_text(
        json.dumps({"id": record.id, "generation": record.title}) + "\n", encoding="utf-8"
    )
    return record.id


def _write_generations(gen_dir, wrong_labels=False):
    """Write one generations file per task for five demo test records and
    five test Q&A pairs, each generation equal to its reference; with
    ``wrong_labels`` every product_classification answer is a wrong label."""
    from ecomforge.cli import _load_splits

    (_, test), (_, qa_test), _ = _load_splits(load_config())
    records = [r for r in map(build_record, test) if r.description and r.query][:5]
    classified = [
        (r.id, next(t for t in TAXONOMY if t != r.taxonomy) if wrong_labels else r.taxonomy)
        for r in records
    ]
    rows = {
        TaskKind.ADS_GENERATION: [(r.id, r.title) for r in records],
        TaskKind.TITLE_REWRITING: [(r.id, r.title) for r in records],
        TaskKind.PRODUCT_CLASSIFICATION: classified,
        TaskKind.INTENT_SPECULATION: [(r.id, r.taxonomy) for r in records],
        TaskKind.GENERAL_QA: [(q.id, q.answer) for q in qa_test[:5]],
    }
    gen_dir.mkdir(exist_ok=True)
    for task, entries in rows.items():
        (gen_dir / f"{task.value}.jsonl").write_text(
            "".join(json.dumps({"id": i, "generation": g}) + "\n" for i, g in entries),
            encoding="utf-8",
        )


def _stub_scorer(monkeypatch, embeddings=lambda items, n: items, logprobs=lambda values: values):
    """Make ``make_backend`` give an HttpBackend over a stub session. A chat
    post gets ``logprobs(values)`` from the mock backend's logprob values; an
    embeddings post gets the data list ``embeddings(items, post number)``
    makes from the mock's items, one per input token in index order."""
    mock = MockBackend()

    class Response:
        status_code = 200

        def __init__(self, payload):
            self.payload = payload

        def json(self):
            return self.payload

    class StubSession:
        embed_posts = 0

        def post(self, url, json, **kwargs):
            if url.endswith("/embeddings"):
                vectors = mock.embed_tokens(" ".join(json["input"]))
                items = [{"index": i, "embedding": v} for i, v in enumerate(vectors)]
                data = embeddings(items, self.embed_posts)
                self.embed_posts += 1
                return Response({"data": data})
            values = mock.score_logprobs(json["messages"][-1]["content"])
            content = [{"logprob": lp} for lp in logprobs(values)]
            return Response({"choices": [{"logprobs": {"content": content}}]})

    session = StubSession()
    monkeypatch.setattr(
        "ecomforge.cli.make_backend",
        lambda config, kind: HttpBackend(
            base_url="http://stub", model=mock.model, session=session,
            policy=RetryPolicy(max_retries=0),
        ),
    )


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    """One demo formulate+expand run shared by the downstream command tests."""
    tmp = tmp_path_factory.mktemp("pipeline")
    assert main(["formulate", "--set", f"paths.out_dir={tmp / 'out'}"]) == EXIT_OK
    assert (
        main(["expand", "--backend", "mock", "--set", f"paths.out_dir={tmp / 'out'}"])
        == EXIT_OK
    )
    return tmp


class TestBackendFactory:
    def test_mock_backend(self):
        from ecomforge.modelio import MockBackend

        backend = make_backend(load_config(), "mock")
        assert isinstance(backend, MockBackend)
        assert backend.model == "gpt-3.5-turbo"

    def test_http_backend_reads_key_from_named_env_var(self, monkeypatch):
        from ecomforge.modelio import HttpBackend

        monkeypatch.setenv("MY_KEY_VAR", "sk-secret")
        config = load_config(None, ["backend.api_key_env=MY_KEY_VAR",
                                    "backend.max_retries=2"])
        backend = make_backend(config, "http")
        assert isinstance(backend, HttpBackend)
        assert backend.api_key == "sk-secret"
        assert backend.policy.max_retries == 2

    def test_http_backend_key_absent_is_none(self, monkeypatch):
        monkeypatch.delenv("FORGE_API_KEY", raising=False)
        backend = make_backend(load_config(), "http")
        assert backend.api_key is None


class TestBlasThreads:
    @pytest.mark.parametrize("preset, expected", [(None, "1"), ("2", "2")], ids=["unset", "set"])
    def test_cli_import_defaults_openblas_to_one_thread(self, preset, expected):
        # A fresh interpreter, so numpy loads after the CLI module sets the
        # default; on Linux no BLAS worker thread is started then.
        script = (
            "import os\n"
            "import ecomforge.cli, numpy\n"
            "tasks = len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') else 1\n"
            "print(os.environ['OPENBLAS_NUM_THREADS'], tasks)\n"
        )
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = str(Path(evalsuite.__file__).parent.parent)
        if preset is not None:
            env["OPENBLAS_NUM_THREADS"] = preset
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        threads, tasks = done.stdout.split()
        assert threads == expected
        if preset is None:
            assert tasks == "1"


class TestConfig:
    def test_defaults_load(self):
        config = load_config()
        assert config["pipeline"]["seed_per_task"] == 60
        assert config.rng_seed == 0

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('{"pipelines": {}}', encoding="utf-8")
        with pytest.raises(ForgeError, match="unknown config key"):
            load_config(path)

    def test_override_parsing(self):
        assert parse_override("rng_seed=7") == ("rng_seed", 7)
        assert parse_override("backend.model=my model") == ("backend.model", "my model")
        assert parse_override('pipeline.heldout_scenarios=["X"]') == (
            "pipeline.heldout_scenarios",
            ["X"],
        )
        with pytest.raises(ForgeError, match="--set expects key=value"):
            parse_override("no-equals-sign")

    def test_override_unknown_path(self):
        with pytest.raises(ForgeError, match="unknown config key 'backend.nope'"):
            load_config(None, ["backend.nope=1"])

    def test_validation(self):
        with pytest.raises(ForgeError, match="concurrency"):
            load_config(None, ["backend.concurrency=0"])
        with pytest.raises(ForgeError, match="split_ratio"):
            load_config(None, ["pipeline.split_ratio=1.5"])

    def test_hash_stable_and_sensitive(self):
        a = load_config()
        b = load_config()
        c = load_config(None, ["rng_seed=9"])
        assert a.hash() == b.hash()
        assert a.hash() != c.hash()

    @pytest.mark.parametrize(
        "override, accepted",
        [
            ("backend.concurrency=2", True),
            ("backend.concurrency=true", False),
            ("backend.concurrency=2.0", False),
            ("backend.timeout_s=30", True),
            ("backend.timeout_s=false", False),
            ("backend.model=7", False),
            ('pipeline.heldout_intents=["a gift"]', True),
            ("pipeline.heldout_intents=[]", False),
            ('pipeline.heldout_intents=["a gift", 3]', False),
            ("paths.data_in=null", True),
            ("paths.data_in=[]", False),
            ("paths.data_in=records.jsonl", True),
            ("paths.data_in=", False),
            ("paths.qa_in= ", False),
            ("paths.out_dir=", False),
            ("backend.model=", False),
            ("backend.api_key_env=\t", False),
            ('pipeline.heldout_intents=[""]', False),
            ('pipeline.heldout_scenarios=["Christmas", " "]', False),
            ('backend={"model": "m"}', True),
            ("backend.max_retries=10", True),
            ("backend.max_retries=11", False),
            ("backend.concurrency=64", True),
            ("backend.concurrency=65", False),
            ("backend.base_url=https://api.example.com/v1", True),
            ("backend.base_url=http://[::1]:8000/v1", True),
            ("backend.base_url=http://localhost:99999/v1", False),
            ("backend.base_url=ftp://localhost/v1", False),
            ("backend.base_url=http:///v1", False),
            ("backend.expand_temperature=0", True),
            ("backend.expand_temperature=NaN", False),
        ],
    )
    def test_type_rules(self, override, accepted):
        if accepted:
            load_config(None, [override])
        else:
            with pytest.raises(ForgeError, match=override.split("=")[0]):
                load_config(None, [override])

    def test_negative_counts_rejected(self):
        for key in ("instruction_rewrites", "response_generations", "response_rewrites"):
            with pytest.raises(ForgeError, match=f"pipeline.{key} must be >= 0"):
                load_config(None, [f"pipeline.{key}=-1"])

    def test_divisibility_enforced(self):
        with pytest.raises(ForgeError, match="pipeline.target_total must be divisible by 5"):
            load_config(None, ["pipeline.target_total=101"])
        assert load_config(None, ["pipeline.target_total=100"])["pipeline"]["target_total"] == 100

    def test_metrics_section_is_unknown(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('{"metrics": {"rouge_beta": 1.2}}', encoding="utf-8")
        with pytest.raises(ForgeError, match="unknown config key 'metrics'"):
            load_config(path)

    def test_readme_config_block_equals_defaults(self):
        readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Configuration\n", 1)[1]
        block = section.split("```json\n", 1)[1].split("```", 1)[0]
        # Dumped again so an int in place of a float default shows too.
        assert json.dumps(json.loads(block), sort_keys=True) == json.dumps(DEFAULTS, sort_keys=True)


# Malformed rows of the screen test. Each pair's first id would be in the
# test split, and its second in train, if every row were split; rec-05,
# rec-06 and rec-08 carry two faults each, and the first check in the
# screen's order names the row.
SCREEN_FAULTS = {
    "rec-07": {"description": {"text": "soft"}},
    "rec-00": {"description": 5},
    "rec-09": {"query": False},
    "rec-01": {"query": ["lamp"]},
    "rec-11": {"taxonomy": "gadgets"},
    "rec-02": {"taxonomy": "Home & Living"},
    "rec-13": {"title": "\U0001f6cd \u2728"},
    "rec-03": {"title": "\U0001f6cd\ufe0f"},
    "rec-14": {"action": "no_action"},
    "rec-04": {"action": "no_action"},
    "rec-05": {"taxonomy": "gadgets", "description": 5},
    "rec-06": {"description": 5, "query": 6},
    "rec-08": {"title": "\u2728", "action": "browse"},
}


def _screen_records(path):
    """Write 60 records, the ones in SCREEN_FAULTS malformed or no_action,
    with emoji and zero-width spaces for the cleaning to strip; returns the
    rows as written."""
    rows = []
    for i in range(60):
        row = {
            "id": f"rec-{i:02d}",
            "title": f"Oak  Lamp {i} \u2728",
            "description": f"Warm\u200blight for a desk {i} \U0001f381" if i % 4 else None,
            "query": f"desk   lamp {i}" if i % 3 else None,
            "taxonomy": TAXONOMY[i % len(TAXONOMY)].title(),
            "action": ("click", "cart_add", "purchase")[i % 3],
        }
        row.update(SCREEN_FAULTS.get(row["id"], {}))
        rows.append(row)
    path.write_text(
        "".join(json.dumps(row, ensure_ascii=False) + "\n" for row in rows), encoding="utf-8"
    )
    return rows


class TestFormulate:
    def test_demo_emits_300_seeds(self, tmp_path):
        assert _run(tmp_path, "formulate") == EXIT_OK
        seeds = load_jsonl(tmp_path / "out" / "seeds.jsonl")
        assert len(seeds) == 300
        counts = {}
        for pair in seeds:
            counts[pair.task] = counts.get(pair.task, 0) + 1
        assert all(counts[t] == 60 for t in TaskKind)

    def test_screen_keeps_every_check(self, tmp_path, monkeypatch):
        from ecomforge import ingest
        from ecomforge.cli import _build_eval_data, _load_splits

        records_path = tmp_path / "records.jsonl"
        rows = {row["id"]: row for row in _screen_records(records_path)}
        overrides = [
            f"paths.data_in={records_path}",
            "pipeline.seed_per_task=2",
            "pipeline.heldout_product_sets=1",
            "pipeline.heldout_set_size=2",
        ]
        code = main(["formulate", *(a for o in overrides for a in ("--set", o)),
                     "--set", f"paths.out_dir={tmp_path / 'out'}"])
        assert code == EXIT_PARTIAL
        # ingest.errors.jsonl, the split and seeds.jsonl as written before
        # the screen and the build were two steps.
        errors = (tmp_path / "out" / "ingest.errors.jsonl").read_text(encoding="utf-8")
        assert errors.splitlines() == [
            '{"line":1,"reason":"\'description\' must be a string or null, got 5"}',
            '{"line":2,"reason":"\'query\' must be a string or null, got [\\"lamp\\"]"}',
            '{"line":3,"reason":"invalid taxonomy \'Home & Living\'"}',
            '{"line":4,"reason":"empty title after cleaning"}',
            '{"line":6,"reason":"invalid taxonomy \'gadgets\'"}',
            '{"line":7,"reason":"\'description\' must be a string or null, got 5"}',
            '{"line":8,"reason":"\'description\' must be a string or null, got {\\"text\\": \\"soft\\"}"}',
            '{"line":9,"reason":"empty title after cleaning"}',
            '{"line":10,"reason":"\'query\' must be a string or null, got false"}',
            '{"line":12,"reason":"invalid taxonomy \'gadgets\'"}',
            '{"line":14,"reason":"empty title after cleaning"}',
        ]
        assert hashlib.sha256((tmp_path / "out" / "seeds.jsonl").read_bytes()).hexdigest() == (
            "7bbc216815a31f7d47f1458e1854a2f1b51e0a453530a7166bc082b44ca8fa29"
        )
        config = load_config(None, overrides)
        (train, test), _, _ = _load_splits(config)
        assert [r.id for r in train] == [
            "rec-24", "rec-27", "rec-28", "rec-21", "rec-16", "rec-32", "rec-10", "rec-48",
            "rec-46", "rec-23", "rec-40", "rec-41", "rec-53", "rec-30", "rec-17", "rec-33",
            "rec-35", "rec-12", "rec-56", "rec-42", "rec-39", "rec-25", "rec-52", "rec-54",
            "rec-37", "rec-47", "rec-51", "rec-50", "rec-26", "rec-36", "rec-31", "rec-38",
            "rec-59", "rec-55", "rec-45", "rec-34", "rec-29", "rec-20",
        ]
        assert [r.id for r in test] == [
            "rec-58", "rec-15", "rec-22", "rec-49", "rec-57", "rec-18", "rec-43", "rec-19",
            "rec-44",
        ]

        # evaluate builds only the test records its samples name, each once,
        # and each equals the record a full parse of its row gives.
        named = {
            "ads_generation": [r.id for r in test if rows[r.id]["description"]],
            "title_rewriting": [r.id for r in test if rows[r.id]["query"]],
        }
        gen_dir = tmp_path / "gens"
        gen_dir.mkdir()
        for task, ids in named.items():
            (gen_dir / f"{task}.jsonl").write_text(
                "".join(json.dumps({"id": i, "generation": "oak lamp"}) + "\n" for i in ids),
                encoding="utf-8",
            )
        built = []
        build = ingest.build_record
        monkeypatch.setattr(ingest, "build_record", lambda row: built.append(row.id) or build(row))
        data = _build_eval_data(config, gen_dir)
        assert sorted(built) == sorted(set(named["ads_generation"] + named["title_rewriting"]))

        def full_parse(row):
            return ProductRecord(
                id=row["id"],
                title=clean_text(row["title"]),
                taxonomy=clean_text(row["taxonomy"]).lower(),
                action=Action(row["action"]),
                description=clean_text(row["description"] or "") or None,
                query=clean_text(row["query"] or "") or None,
            )

        for task, fields in ((TaskKind.ADS_GENERATION, ("title", "description")),
                             (TaskKind.TITLE_REWRITING, ("title", "query"))):
            assert [s.sample_id for s in data[task]] == named[task.value]
            for sample in data[task]:
                record = full_parse(rows[sample.sample_id])
                assert sample.references == tuple(getattr(record, f) for f in fields)

    def test_demo_heldout_packs_keep_their_bytes(self, tmp_path):
        assert _run(tmp_path, "formulate") == EXIT_OK
        pinned = {
            "heldout_scenario_ads.jsonl": (
                "bba0d30ebc36f6159887e197d6a7f466447c3fc075cc29c03c78fd0b763651b5", 6
            ),
            "heldout_recommendation.jsonl": (
                "a9bb1f22e22b9378b33a9e0ec1cdbce6e49cb4607c437c1f0572ced7e1a4824e", 4
            ),
        }
        for name, (digest, rows) in pinned.items():
            data = (tmp_path / "out" / name).read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest
            assert data.count(b"\n") == rows

    def test_rerun_hash_oracle(self, tmp_path):
        _run(tmp_path, "formulate")
        first = (tmp_path / "out" / "seeds.jsonl").read_bytes()
        _run(tmp_path, "formulate")
        assert (tmp_path / "out" / "seeds.jsonl").read_bytes() == first

    def test_dirty_input_gives_partial_exit(self, tmp_path):
        demo = demo_data_path("demo_records.jsonl").read_text(encoding="utf-8")
        dirty = tmp_path / "dirty.jsonl"
        dirty.write_text(demo + '{"id": "bad", "action": "browse"}\n', encoding="utf-8")
        code = _run(tmp_path, "formulate", config={"paths": {"data_in": str(dirty)}})
        assert code == EXIT_PARTIAL
        errors = (tmp_path / "out" / "ingest.errors.jsonl").read_text()
        assert "bad" in errors or "browse" in errors or "title" in errors

    def test_clean_rerun_empties_error_sidecar(self, tmp_path, capsys):
        demo = demo_data_path("demo_records.jsonl").read_text(encoding="utf-8")
        dirty = tmp_path / "dirty.jsonl"
        dirty.write_text(demo + "not json\n", encoding="utf-8")
        code = _run(tmp_path, "formulate", config={"paths": {"data_in": str(dirty)}})
        assert code == EXIT_PARTIAL and (tmp_path / "out" / "ingest.errors.jsonl").read_text()
        assert _run(tmp_path, "formulate") == EXIT_OK
        assert (tmp_path / "out" / "ingest.errors.jsonl").read_text() == ""
        capsys.readouterr()
        assert _run(tmp_path, "check-manifest") == EXIT_OK
        assert "formulate/ingest.errors.jsonl: OK" in capsys.readouterr().out

class TestExpandCommand:
    def test_mock_deterministic_bytes(self, pipeline_dir, tmp_path):
        out = pipeline_dir / "out"
        first = (out / "expanded.jsonl").read_bytes()
        assert main(["expand", "--backend", "mock", "--set", f"paths.out_dir={out}"]) == EXIT_OK
        assert (out / "expanded.jsonl").read_bytes() == first

    def test_unreachable_endpoint_is_one_error_line(self, tmp_path, monkeypatch, capsys):
        class Refusing:
            posts = 0

            def post(self, url, **kwargs):
                Refusing.posts += 1
                raise TransportError(f"request to {url} failed: connection refused")

        monkeypatch.setattr(
            "ecomforge.cli.make_backend",
            lambda config, kind: HttpBackend(
                base_url="http://stub", model="teacher", session=Refusing(),
                policy=RetryPolicy(max_retries=0), concurrency=2,
            ),
        )
        assert _run(tmp_path, "formulate") == EXIT_OK
        capsys.readouterr()
        code = _run(tmp_path, "expand", "--backend", "http", "--set", "backend.concurrency=2")
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert re.fullmatch(
            r"error: teacher endpoint unreachable: the first 4 calls got no response "
            r"\(first: seed \S+, \S+ \d: request to http://stub/chat/completions failed: "
            r"connection refused\)\n",
            err,
        )
        assert Refusing.posts <= 4 + 3
        assert not (tmp_path / "out" / "expanded.jsonl").exists()

    def test_line_separator_in_an_id_survives_formulate_expand_and_curate(self, tmp_path):
        # seeds.jsonl holds the id's U+2028 raw; str.splitlines would break
        # the row there, and expand and curate would refuse the files that
        # formulate and expand wrote.
        lines = demo_data_path("demo_records.jsonl").read_bytes().splitlines()
        rows = [json.loads(line) for line in lines]
        for row in rows[:200]:
            row["id"] += "\u2028x"
        records = tmp_path / "records.jsonl"
        records.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
        config = {"paths": {"data_in": str(records)}}
        assert _run(tmp_path, "formulate", config=config) == EXIT_OK
        assert "\u2028x".encode() in (tmp_path / "out" / "seeds.jsonl").read_bytes()
        assert _run(tmp_path, "expand", "--backend", "mock", config=config) == EXIT_OK
        seeds = load_jsonl(tmp_path / "out" / "seeds.jsonl")
        expanded = load_jsonl(tmp_path / "out" / "expanded.jsonl")
        assert {p.id for p in seeds} <= {p.id for p in expanded}
        assert any("\u2028x" in p.id for p in seeds)
        assert _run(tmp_path, "curate", config=config) == EXIT_OK
        dataset = tmp_path / "out" / "dataset.jsonl"
        assert "\u2028x".encode() in dataset.read_bytes()
        assert {p.id for p in load_jsonl(dataset)} <= {p.id for p in expanded}

    def test_count_matches_closed_form(self, pipeline_dir):
        out = pipeline_dir / "out"
        seeds = load_jsonl(out / "seeds.jsonl")
        expanded = load_jsonl(out / "expanded.jsonl")
        per_task = 60
        label_tasks, generative = 2, 3
        ir, rg, rr = 4, 1, 1
        expected = (
            len(seeds)
            + label_tasks * per_task * ir
            + generative * per_task * (ir + rg + rr)
        )
        assert len(expanded) == expected


class TestCurateCommand:
    def test_curate_balances(self, pipeline_dir):
        out = pipeline_dir / "out"
        assert main(["curate", "--set", f"paths.out_dir={out}",
                     "--set", "pipeline.target_total=100"]) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["count"] == 100
        assert all(v == 20 for v in manifest["per_task"].values())
        dataset = load_jsonl(out / "dataset.jsonl")
        assert len(dataset) == 100

    def test_target_above_supply(self, pipeline_dir):
        out = pipeline_dir / "out"
        code = main(["curate", "--set", f"paths.out_dir={out}",
                     "--set", "pipeline.target_total=1000000"])
        assert code == EXIT_ERROR

    def test_heldout_packs_disjoint_from_training(self, pipeline_dir):
        out = pipeline_dir / "out"
        assert main(["curate", "--set", f"paths.out_dir={out}",
                     "--set", "pipeline.target_total=100"]) == EXIT_OK
        training_ids = {json.loads(l)["id"] for l in (out / "dataset.jsonl").read_text().splitlines()}
        for pack in ("heldout_scenario_ads.jsonl", "heldout_recommendation.jsonl"):
            pack_ids = {json.loads(l)["id"] for l in (out / pack).read_text().splitlines()}
            assert pack_ids and not (pack_ids & training_ids)

    def test_manifest_hash_stable_across_reruns(self, pipeline_dir):
        out = pipeline_dir / "out"
        main(["curate", "--set", f"paths.out_dir={out}", "--set", "pipeline.target_total=100"])
        first = json.loads((out / "manifest.json").read_text())["sha256"]
        main(["curate", "--set", f"paths.out_dir={out}", "--set", "pipeline.target_total=100"])
        assert json.loads((out / "manifest.json").read_text())["sha256"] == first


class TestEvaluateCommand:
    def test_replay_builtin_reproduces_gm_column(self, tmp_path, capsys):
        assert _run(tmp_path, "evaluate", "--replay", "builtin") == EXIT_OK
        table = capsys.readouterr().out
        report = json.loads((tmp_path / "out" / "replay_report.json").read_text())
        expected = {
            "GPT-3.5": 15.06, "GPT-2": 10.26, "BART": 15.83, "T5-base": 11.03,
            "GPT-Neo": 6.65, "LLaMA-7b": 6.31, "LLaMA-13b": 5.72, "LLaMA-30b": 7.79,
            "LLaMA-E-7b": 17.41, "LLaMA-E-13b": 16.77, "LLaMA-E-30b": 17.28,
        }
        for name, gm in expected.items():
            assert abs(report[name]["GM"] - gm) <= 0.05
            assert name in table

    def test_smoke_generations_equal_references(self, pipeline_dir, tmp_path, capsys):
        out = pipeline_dir / "out"
        # Build generations == references from the test split.
        from ecomforge.cli import _load_splits

        config = load_config(None, [f"paths.out_dir={out}"])
        (_, test), (_, qa_test), _ = _load_splits(config)
        gen_dir = tmp_path / "gens"
        gen_dir.mkdir()
        eligible = [r for r in map(build_record, test) if r.description and r.query][:5]
        rows = {
            TaskKind.ADS_GENERATION: [(r.id, r.title) for r in eligible],
            TaskKind.TITLE_REWRITING: [(r.id, r.title) for r in eligible],
            TaskKind.PRODUCT_CLASSIFICATION: [(r.id, r.taxonomy) for r in eligible],
            TaskKind.INTENT_SPECULATION: [(r.id, r.taxonomy) for r in eligible],
            TaskKind.GENERAL_QA: [(q.id, q.answer) for q in qa_test[:5]],
        }
        for task, entries in rows.items():
            (gen_dir / f"{task.value}.jsonl").write_text(
                "".join(json.dumps({"id": i, "generation": g}) + "\n" for i, g in entries),
                encoding="utf-8",
            )
        code = main(["evaluate", "--backend", "mock", "--generations", str(gen_dir),
                     "--set", f"paths.out_dir={out}"])
        assert code == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        # Generations that equal the gold labels/answers score perfectly.
        assert report["P_pt"] == pytest.approx(100.0)
        assert report["P_qs"] == pytest.approx(100.0)
        assert report["BL_qa"] == pytest.approx(100.0)
        assert report["BE_qa"] == pytest.approx(100.0)
        assert report["GM"] is not None

    def test_missing_task_file_partial(self, pipeline_dir, tmp_path):
        out = pipeline_dir / "out"
        gen_dir = tmp_path / "gens"
        gen_dir.mkdir()
        from ecomforge.cli import _load_splits

        config = load_config(None, [f"paths.out_dir={out}"])
        (_, test), _, _ = _load_splits(config)
        record = next(r for r in map(build_record, test) if r.description)
        (gen_dir / "ads_generation.jsonl").write_text(
            json.dumps({"id": record.id, "generation": record.title}) + "\n",
            encoding="utf-8",
        )
        code = main(["evaluate", "--backend", "mock", "--generations", str(gen_dir),
                     "--set", f"paths.out_dir={out}"])
        assert code == EXIT_PARTIAL
        report = json.loads((out / "report.json").read_text())
        assert report["GM"] is None and report["missing_tasks"]

    def test_live_lock_blocks_evaluate(self, tmp_path):
        gen_dir = tmp_path / "gens"
        _write_ads_generation(gen_dir)
        out = tmp_path / "out"
        with OutDirLock(out):
            code = _run(tmp_path, "evaluate", "--backend", "mock", "--generations", str(gen_dir))
            assert code == EXIT_ERROR
            assert not (out / "report.json").exists()
            assert _run(tmp_path, "evaluate", "--replay", "builtin") == EXIT_ERROR
            assert not (out / "replay_report.json").exists()

    def test_zero_metric_reports_all_values_without_gm(self, tmp_path, capsys):
        gen_dir = tmp_path / "gens"
        _write_generations(gen_dir, wrong_labels=True)
        code = _run(tmp_path, "evaluate", "--backend", "mock", "--generations", str(gen_dir))
        assert code == EXIT_PARTIAL
        assert "no GM; undefined by P_pt, R_pt, F1_pt" in capsys.readouterr().out
        out = tmp_path / "out"
        report = json.loads((out / "report.json").read_text())
        assert report["GM"] is None and report["gm_undefined_by"] == ["P_pt", "R_pt", "F1_pt"]
        assert [report[name] for name in ("P_pt", "R_pt", "F1_pt")] == [0.0, 0.0, 0.0]
        assert all(isinstance(report[name], float) for name in evalsuite.METRIC_NAMES)
        assert (out / "report.txt").read_text().splitlines()[-1].endswith(" -")
        assert set(_stage_records(out)["evaluate"]["outputs"]) == {"report.json", "report.txt"}

    def _evaluate_over_stub_session(self, tmp_path, monkeypatch, answer):
        """Run ``evaluate --backend http`` on the demo generations against
        _stub_scorer, its embeddings posts answered by ``answer``. Each Q&A
        generation is another sample's answer."""
        _stub_scorer(monkeypatch, embeddings=answer)
        gen_dir = tmp_path / "gens"
        _write_generations(gen_dir)
        # Each Q&A sample gets the next one's answer: BE_qa then depends on
        # which vector each token gets.
        qa_path = gen_dir / "general_qa.jsonl"
        rows = [json.loads(line) for line in qa_path.read_text(encoding="utf-8").splitlines()]
        answers = [row["generation"] for row in rows]
        for row, answer_text in zip(rows, answers[1:] + answers[:1]):
            row["generation"] = answer_text
        qa_path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
        return _run(tmp_path, "evaluate", "--backend", "http", "--generations", str(gen_dir))

    def test_embeddings_are_placed_by_index(self, tmp_path, monkeypatch):
        # Two tokens per embeddings post, answered in order and reversed.
        monkeypatch.setattr(evalsuite, "EMBED_CHUNK_TOKENS", 2)
        reports = []
        for name, answer in (("in-order", lambda items, n: items),
                             ("reversed", lambda items, n: items[::-1])):
            (tmp_path / name).mkdir()
            assert self._evaluate_over_stub_session(tmp_path / name, monkeypatch, answer) == EXIT_OK
            reports.append((tmp_path / name / "out" / "report.json").read_bytes())
        assert reports[0] == reports[1]

    @pytest.mark.parametrize(
        "answer, message",
        [
            (lambda items, n: items[:-1], r"\d+ embeddings for \d+ input tokens"),
            (
                lambda items, n: items + [{"index": len(items), "embedding": [0.0] * 16}],
                r"\d+ embeddings for \d+ input tokens",
            ),
            (
                lambda items, n: [{"embedding": items[0]["embedding"]}, *items[1:]],
                "missing embeddings: 'index'",
            ),
            (
                lambda items, n: [*items[:-1], {**items[-1], "index": 0}],
                "embedding index 0 repeated",
            ),
            (
                lambda items, n: [*items[:-1], {**items[-1], "index": len(items)}],
                r"embedding index \d+ out of range",
            ),
            (
                lambda items, n: [{**items[0], "index": "0"}, *items[1:]],
                'embedding index "0" out of range',
            ),
            (
                lambda items, n: [{**item, "embedding": item["embedding"][:8]} for item in items]
                if n else items,
                "embedding width 8 differs from the first chunk's 16",
            ),
            (
                lambda items, n: [*items[:2], {**items[2], "embedding": [math.nan] * 16},
                                  *items[3:]],
                "non-finite value in embedding 2",
            ),
        ],
        ids=["short", "long", "missing-index", "repeated-index", "index-out-of-range",
             "string-index", "width-across-chunks", "nan-value"],
    )
    def test_embeddings_answer_out_of_contract_is_one_error_line(
        self, tmp_path, monkeypatch, capsys, answer, message
    ):
        # Ten tokens per embeddings post, so the demo Q&A takes several.
        monkeypatch.setattr(evalsuite, "EMBED_CHUNK_TOKENS", 10)
        code = self._evaluate_over_stub_session(tmp_path, monkeypatch, answer)
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert re.fullmatch(f"error: {message}\n", err), err
        assert list((tmp_path / "out").iterdir()) == []


class TestLoraVerifyCommand:
    def test_passes_and_prints_counts(self, tmp_path, capsys):
        assert _run(tmp_path, "lora-verify") == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("PASS") == 5 and "FAIL" not in out
        assert "8,388,608" in out and "13,107,200" in out and "25,559,040" in out

    def test_writes_details_and_record_covered_by_check_manifest(self, tmp_path, capsys):
        assert _run(tmp_path, "lora-verify") == EXIT_OK
        printed = capsys.readouterr().out.splitlines()
        out = tmp_path / "out"
        details = json.loads((out / "lora_verify.json").read_text(encoding="utf-8"))
        assert [f"{name:<24s} PASS  {detail}" for name, detail in details.items()] == sorted(
            printed
        )
        assert set(_stage_records(out)["lora-verify"]["outputs"]) == {"lora_verify.json"}
        assert _run(tmp_path, "check-manifest") == EXIT_OK
        assert capsys.readouterr().out == "lora-verify/lora_verify.json: OK\n"

    def test_failed_check_prints_and_writes_nothing(self, tmp_path, capsys, monkeypatch):
        from ecomforge import lora

        monkeypatch.setattr(
            lora, "verify", lambda seed: [("gradient check", False, "max rel err 1.00e+00")]
        )
        assert _run(tmp_path, "lora-verify") == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == "gradient check           FAIL  max rel err 1.00e+00\n"
        assert captured.err == "error: lora-verify failed: gradient check\n"
        assert list((tmp_path / "out").iterdir()) == []


class TestHumanEvalCommand:
    def test_report_written(self, tmp_path, capsys):
        ratings = tmp_path / "ratings.jsonl"
        ratings.write_text(
            "".join(
                json.dumps(
                    {"annotator": f"ann{i % 3}", "sample_id": f"s{i}",
                     "task": "ads_generation", "rate": "ABCD"[i % 4]}
                )
                + "\n"
                for i in range(12)
            ),
            encoding="utf-8",
        )
        assert _run(tmp_path, "human-eval", "--ratings", str(ratings)) == EXIT_OK
        report = json.loads((tmp_path / "out" / "human_eval.json").read_text())
        assert report["per_task"]["ads_generation"]["A"] == pytest.approx(0.25)

    def test_runs_under_lock_and_is_recorded(self, tmp_path, capsys):
        ratings = tmp_path / "ratings.jsonl"
        ratings.write_text(
            json.dumps({"annotator": "a", "sample_id": "s", "task": "ads_generation", "rate": "A"})
            + "\n",
            encoding="utf-8",
        )
        out = tmp_path / "out"
        with OutDirLock(out):
            assert _run(tmp_path, "human-eval", "--ratings", str(ratings)) == EXIT_ERROR
            assert not (out / "human_eval.json").exists()
        assert _run(tmp_path, "human-eval", "--ratings", str(ratings)) == EXIT_OK
        assert set(_stage_records(out)["human-eval"]["outputs"]) == {"human_eval.json"}
        assert not (out / ".forge.lock").exists()
        capsys.readouterr()
        assert _run(tmp_path, "check-manifest") == EXIT_OK
        assert "human-eval/human_eval.json: OK" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# The CLI's refusal contract as one table: each row is one in-process `forge`
# run on the inputs its prepare writes, and test_refusal checks every row the
# same way. A new refusal, or a new crafted input the CLI must take, is a row.


class Row(NamedTuple):
    """One `forge` run and all that it must leave.

    ``prepare(tmp_path, monkeypatch)`` writes the row's inputs, or runs
    earlier stages, in ``tmp_path``, the run's current directory, and returns
    the argv. The out dir is ``out`` there, unless the argv sets
    ``paths.out_dir`` itself. ``stderr`` is all of stderr, or a pattern that
    the one ``error:`` line matches in full. ``made`` lists each path,
    relative to ``tmp_path``, that the run adds; it changes and removes
    nothing that prepare left. ``files`` holds the bytes of files it writes."""

    id: str
    prepare: Callable
    code: int
    stderr: str | re.Pattern
    made: tuple[str, ...] = ()
    stdout: str = ""
    files: dict = {}


# The run made the out dir and left it empty.
OUT = ("out",)


def _argv(*argv):
    """A prepare that writes nothing."""
    return lambda tmp, monkeypatch: list(argv)


def _with_file(name, data, *argv):
    """A prepare that writes ``data``, str or bytes, to ``name``."""

    def prepare(tmp, monkeypatch):
        path = tmp / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data if isinstance(data, bytes) else data.encode("utf-8"))
        return list(argv)

    return prepare


def _run_ok(*argv):
    assert main([*argv, "--set", "paths.out_dir=out"]) == EXIT_OK


def _tree(root):
    """Each path under ``root``, relative, with its bytes; None for a directory."""
    return {
        p.relative_to(root).as_posix(): None if p.is_dir() else p.read_bytes()
        for p in root.rglob("*")
    }


def _demo_rows(name, edit):
    """The rows of a demo file as JSONL text, each edited by ``edit(i, row)``."""
    lines = demo_data_path(name).read_text(encoding="utf-8").splitlines()
    return "".join(json.dumps(edit(i, json.loads(line))) + "\n" for i, line in enumerate(lines))


def _repeated_first_line(key, demo):
    lines = demo_data_path(demo).read_text(encoding="utf-8").splitlines()
    text = "\n".join([lines[0], *lines]) + "\n"
    return _with_file("rows.jsonl", text, "formulate", "--set", f"paths.{key}=rows.jsonl")


def _qa_file(row):
    """formulate on a Q&A file of one demo pair, then ``row``."""
    good = demo_data_path("demo_qa.jsonl").read_text(encoding="utf-8").splitlines()[0]
    text = f"{good}\n{row}\n"
    return _with_file("rows.jsonl", text, "formulate", "--set", "paths.qa_in=rows.jsonl")


def _empty_expanded(tmp, monkeypatch):
    _run_ok("formulate")
    (tmp / "out" / "expanded.jsonl").write_bytes(b"")
    return ["curate"]


def _expanded_without_provenance(tmp, monkeypatch):
    _run_ok("formulate")
    rows = [json.loads(line) for line in (tmp / "out" / "seeds.jsonl").read_text().splitlines()]
    del rows[1]["provenance"]
    text = "".join(json.dumps(row) + "\n" for row in rows)
    (tmp / "out" / "expanded.jsonl").write_text(text, encoding="utf-8")
    return ["curate"]


def _unrecorded_pack_with_a_list_id(tmp, monkeypatch):
    _run_ok("formulate")
    _run_ok("expand", "--backend", "mock")
    out = tmp / "out"
    records = _stage_records(out)
    del records["formulate"]
    (out / "run_manifest.json").write_text(json.dumps({"stages": records}), encoding="utf-8")
    (out / "heldout_recommendation.jsonl").write_text('{"id": ["x"]}\n', encoding="utf-8")
    return ["curate"]


EVALUATE_MOCK = ["evaluate", "--backend", "mock", "--generations", "gens"]
EVALUATE_HTTP = ["evaluate", "--backend", "http", "--generations", "gens"]
# An ads_generation sample of the demo test split.
ADS_ID = "rec-0441"


def _ads_generations(text):
    return _with_file("gens/ads_generation.jsonl", text, *EVALUATE_MOCK)


def _blank_generation(generation):
    """A prepare: _write_generations, then the third title_rewriting
    generation, sample rec-0054's, is ``generation``."""

    def prepare(tmp, monkeypatch):
        _write_generations(tmp / "gens")
        path = tmp / "gens" / "title_rewriting.jsonl"
        rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        rows[2]["generation"] = generation
        path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
        return EVALUATE_MOCK

    return prepare


def _failing_scorer(answer):
    """A prepare: _write_generations, and a mock backend whose every
    logprobs call raises ``answer``, or returns it."""

    class ScorerFails(MockBackend):
        def send(self, request):
            if request.kind != LOGPROBS:
                return super().send(request)
            if isinstance(answer, Exception):
                raise answer
            return answer

    def prepare(tmp, monkeypatch):
        monkeypatch.setattr("ecomforge.cli.make_backend", lambda config, kind: ScorerFails())
        _write_generations(tmp / "gens")
        return EVALUATE_HTTP

    return prepare


def _first_logprob(value):
    """A prepare: _write_generations, and an HTTP scorer that answers
    ``value`` for the first logprob of every text."""

    def prepare(tmp, monkeypatch):
        _stub_scorer(monkeypatch, logprobs=lambda values: [value, *values[1:]])
        _write_generations(tmp / "gens")
        return EVALUATE_HTTP

    return prepare


def _runs(count=1, **fields):
    """The first ``count`` bundled reference runs as JSON text, the last of
    them given the ``name`` and metric values in ``fields``."""
    runs = json.loads(demo_data_path("reference_runs.json").read_text(encoding="utf-8"))[:count]
    for key, value in fields.items():
        (runs[-1] if key == "name" else runs[-1]["metrics"])[key] = value
    return json.dumps(runs)


def _replay_refused(id, text, message):
    """A row: evaluate replays ``text`` and is refused with ``message``."""
    prepare = _with_file("rows.json", text, "evaluate", "--replay", "rows.json")
    return Row(id, prepare, EXIT_ERROR, f"error: {message}\n", made=OUT)


def _rating(**fields):
    row = {"annotator": "a", "sample_id": "s1", "task": "ads_generation", "rate": "A"}
    return json.dumps(row | fields)


def _ratings_file(text):
    return _with_file("ratings.jsonl", text, "human-eval", "--ratings", "ratings.jsonl")


DEEP_500 = "[" * 500 + "]" * 500

# Settings refused at load, before any stage runs: (id, setting, message).
REFUSED_SETTINGS = [
    ("str-count", 'pipeline.seed_per_task="x"',
     'pipeline.seed_per_task must be an integer, got "x"'),
    ("int-list", "pipeline.heldout_scenarios=5",
     "pipeline.heldout_scenarios must be a non-empty list of strings, none blank, got 5"),
    ("int-path", "paths.out_dir=5", "paths.out_dir must be a non-blank string, got 5"),
    ("null-ratio", "pipeline.split_ratio=null", "pipeline.split_ratio must be a number, got null"),
    ("float-count", "pipeline.heldout_set_size=1.5",
     "pipeline.heldout_set_size must be an integer, got 1.5"),
    ("indivisible-target", "pipeline.target_total=7",
     "pipeline.target_total must be divisible by 5, one share per task"),
    ("negative-seed", "rng_seed=-1", "rng_seed must be >= 0"),
    ("retries-above-10", "backend.max_retries=11", "backend.max_retries must be in [0, 10]"),
    # No expand pool of that many threads is made.
    ("concurrency-above-64", "backend.concurrency=1000000",
     "backend.concurrency must be in [1, 64]"),
    # socket.settimeout overflows on these, deep in a backend call.
    ("timeout-1e300", "backend.timeout_s=1e300", "backend.timeout_s must be in (0, 3600]"),
    ("timeout-infinity", "backend.timeout_s=Infinity", "backend.timeout_s must be in (0, 3600]"),
    # No HTTP client can post to it; each call would back off and fail.
    ("base-url-without-scheme", "backend.base_url=localhost:8000/v1",
     "backend.base_url must be an http:// or https:// URL"),
    # A JSON body cannot carry it.
    ("temperature-infinity", "backend.expand_temperature=Infinity",
     "backend.expand_temperature must be finite and >= 0"),
    # A blank path would read the bundled demo data, or write every artifact
    # to the current directory; a blank intent is a prompt "".
    ("blank-data-in", "paths.data_in=", 'paths.data_in must be a non-blank string or null, got ""'),
    ("blank-qa-in", "paths.qa_in=", 'paths.qa_in must be a non-blank string or null, got ""'),
    ("blank-out-dir", "paths.out_dir=", 'paths.out_dir must be a non-blank string, got ""'),
    ("blank-intent", 'pipeline.heldout_intents=[""]',
     'pipeline.heldout_intents must be a non-empty list of strings, none blank, got [""]'),
]

# One command per recorded stage; each must be refused before it reads an
# input, so none of them needs one.
STAGE_ARGV = {
    "formulate": ["formulate"],
    "expand": ["expand", "--backend", "mock"],
    "curate": ["curate"],
    "evaluate": ["evaluate", "--backend", "mock", "--generations", "."],
    "replay": ["evaluate", "--replay", "builtin"],
    "lora-verify": ["lora-verify"],
    "human-eval": ["human-eval", "--ratings", "ratings.jsonl"],
}

# Files that are not a run manifest, by id.
MALFORMED_MANIFESTS = {
    "list": "[]",
    "stages-list": '{"stages": []}',
    "not-json": "not json",
    "outputs-list": '{"stages": {"formulate": {"outputs": []}}}',
    "nested-200000-deep": DEEP_JSON,
    **{
        f"{key}-{name_id}": json.dumps({"stages": {"formulate": {key: {name: "0"}}}})
        for key in ("inputs", "outputs")
        for name_id, name in {
            "empty": "", "dot": ".", "dot-dot": "..", "parent": "../x",
            "subdir": "sub/seeds.jsonl", "absolute": "/etc/hostname",
            "unregistered": "x.jsonl", "newline": "x\nexpand: OK",
        }.items()
    },
    "unregistered-stage": '{"stages": {"other": {"outputs": {}}}}',
    "unicode-with-newline": json.dumps(
        {"stages": {"formulate": {"unicode": "13.0.0\nexpand/seeds.jsonl: OK"}}}
    ),
    "unicode-number": '{"stages": {"formulate": {"unicode": 13}}}',
}

REFUSALS = [
    # Usage errors: one line, no usage block.
    Row("usage-missing-required-option", _argv("human-eval"), EXIT_ERROR,
        "error: the following arguments are required: --ratings\n"),
    Row("usage-unknown-command", _argv("bogus"), EXIT_ERROR,
        re.compile(r"error: argument command: invalid choice: 'bogus' \(choose from .*\)")),
    Row("usage-unknown-option", _argv("formulate", "--nope"), EXIT_ERROR,
        "error: unrecognized arguments: --nope\n"),
    # Settings and config files, refused at load: nothing is written.
    *(
        Row(f"setting-{id}", _argv("formulate", "--set", setting), EXIT_ERROR,
            f"error: {message}\n")
        for id, setting, message in REFUSED_SETTINGS
    ),
    Row("setting-indivisible-target-for-curate",
        _argv("curate", "--set", "pipeline.target_total=101"), EXIT_ERROR,
        "error: pipeline.target_total must be divisible by 5, one share per task\n"),
    Row("setting-nested-too-deeply-to-parse",
        _argv("formulate", "--set", "pipeline.x=" + "[" * 5000 + "]" * 5000), EXIT_ERROR,
        "error: --set pipeline.x: value is nested too deeply to parse\n"),
    Row("config-int-section",
        _with_file("config.json", '{"backend": 5}', "formulate", "--config", "config.json"),
        EXIT_ERROR, "error: backend must be a JSON object\n"),
    # Each --set merges into the config read so far; a 500-deep list in the
    # file must not cost a recursion per level there.
    Row("config-value-nested-500-deep",
        _with_file("config.json", f'{{"pipeline": {{"heldout_intents": {DEEP_500}}}}}',
                   "formulate", "--config", "config.json"),
        EXIT_ERROR, "error: pipeline.heldout_intents must be a non-empty list of strings, "
        f"none blank, got {DEEP_500}\n"),
    Row("config-root-not-an-object",
        _with_file("config.json", "[1]", "lora-verify", "--config", "config.json"),
        EXIT_ERROR, "error: config.json: config root must be a JSON object\n"),
    Row("config-nested-200000-deep",
        _with_file("config.json", DEEP_JSON, "formulate", "--config", "config.json"),
        EXIT_ERROR, re.compile(r"error: config\.json: maximum recursion depth exceeded.*")),
    Row("config-not-utf8",
        _with_file("config.json", b"\xff{}", "formulate", "--config", "config.json"),
        EXIT_ERROR, "error: config.json: 'utf-8' codec can't decode byte 0xff in position 0: "
        "invalid start byte\n"),
    # An out dir that cannot be one.
    *(
        Row(f"out-dir-is-a-file-{stage}", _with_file("out", "not a directory\n", *argv),
            EXIT_ERROR, "error: paths.out_dir out is not a directory\n")
        for stage, argv in sorted(STAGE_ARGV.items())
    ),
    Row("out-dir-under-a-file",
        _with_file("file", "", "formulate", "--set", "paths.out_dir=file/out"),
        EXIT_ERROR, "error: paths.out_dir file/out is not a directory\n"),
    # A malformed run manifest, refused before any write.
    *(
        Row(f"manifest-{id}-{command}", _with_file("out/run_manifest.json", text, command),
            EXIT_ERROR, "error: out/run_manifest.json is not a run manifest\n")
        for id, text in MALFORMED_MANIFESTS.items()
        for command in ("formulate", "check-manifest")
    ),
    # formulate's inputs.
    Row("formulate-missing-records-file",
        _argv("formulate", "--set", "paths.data_in=nope.jsonl"), EXIT_ERROR,
        "error: cannot read nope.jsonl: [Errno 2] No such file or directory: 'nope.jsonl'\n",
        made=OUT),
    Row("formulate-repeated-record-id", _repeated_first_line("data_in", "demo_records.jsonl"),
        EXIT_ERROR,
        "error: rows.jsonl: duplicate id 'rec-0000'; train/test disjointness would break\n",
        made=OUT),
    Row("formulate-repeated-qa-id", _repeated_first_line("qa_in", "demo_qa.jsonl"), EXIT_ERROR,
        "error: rows.jsonl: duplicate id 'qa-000'; train/test disjointness would break\n",
        made=OUT),
    Row("formulate-records-all-no-action",
        _with_file("rows.jsonl",
                   _demo_rows("demo_records.jsonl", lambda i, row: row | {"action": "no_action"}),
                   "formulate", "--set", "paths.data_in=rows.jsonl"),
        EXIT_ERROR, "error: rows.jsonl: no rows to split\n", made=OUT),
    *(
        Row(f"formulate-{kind}-empty",
            _with_file("rows.jsonl", "", "formulate", "--set", f"paths.{key}=rows.jsonl"),
            EXIT_ERROR, "error: rows.jsonl: no rows to split\n", made=OUT)
        for kind, key in (("records", "data_in"), ("qa", "qa_in"))
    ),
    Row("formulate-heldout-set-larger-than-test-split",
        _argv("formulate", "--set", "pipeline.heldout_set_size=1000"), EXIT_ERROR,
        "error: test split too small for 2 held-out sets of 1000\n", made=OUT),
    *(
        Row(f"formulate-qa-{id}", _qa_file(row), EXIT_ERROR,
            f"error: rows.jsonl:2: {message}\n", made=OUT)
        for id, row, message in [
            ("no-key", '{"id": "q-x", "question": "Fits?"}', "row has no 'answer' key"),
            ("not-object", "[1]", "row is not a JSON object"),
            ("not-json", "not json", "Expecting value: line 1 column 1 (char 0)"),
            ("null-answer", '{"id": "q-x", "question": "Fits?", "answer": null}',
             "'answer' must be a string, got null"),
            ("emoji-only-question", '{"id": "q-x", "question": "🛍️", "answer": "Yes."}',
             "Q&A pair 'q-x': empty question"),
            ("empty-id", '{"id": "", "question": "Fits?", "answer": "Yes."}',
             "Q&A pair '': empty id"),
            ("int-id", '{"id": 7, "question": "Fits?", "answer": "Yes."}',
             "'id' must be a string, got 7"),
        ]
    ),
    # A records file whose sixth row has a number for a title: formulate
    # skips that row, lists it in ingest.errors.jsonl and exits 2.
    Row("formulate-records-number-title",
        _with_file("records.jsonl",
                   _demo_rows("demo_records.jsonl",
                              lambda i, row: row | {"title": 7} if i == 5 else row),
                   "formulate", "--set", "paths.data_in=records.jsonl"),
        EXIT_PARTIAL, "",
        made=(*OUT, *(f"out/{name}" for name in (
            "heldout_recommendation.jsonl", "heldout_scenario_ads.jsonl", "ingest.errors.jsonl",
            "run_manifest.json", "seeds.jsonl",
        ))),
        stdout="formulate: 300 seed pairs -> out/seeds.jsonl\n"
        + "".join(f"  {task.value}: 60\n" for task in TaskKind)
        + "  held-out packs: 6 scenario ads, 4 recommendation\n"
        "  1 malformed input lines (see ingest.errors.jsonl)\n",
        files={"out/ingest.errors.jsonl":
               b'{"line":6,"reason":"\'title\' must be a string or null, got 7"}\n'}),
    # expand's and curate's inputs.
    Row("expand-without-seeds", _argv("expand", "--backend", "mock"), EXIT_ERROR,
        "error: out/seeds.jsonl not found; run `forge formulate` first\n", made=OUT),
    Row("expand-seeds-not-json",
        _with_file("out/seeds.jsonl", "not json\n", "expand", "--backend", "mock"),
        EXIT_ERROR, "error: out/seeds.jsonl:1: Expecting value: line 1 column 1 (char 0)\n"),
    Row("expand-seeds-empty", _with_file("out/seeds.jsonl", "\n", "expand", "--backend", "mock"),
        EXIT_ERROR, "error: out/seeds.jsonl: no rows\n"),
    Row("curate-expanded-empty", _empty_expanded, EXIT_ERROR,
        "error: out/expanded.jsonl: no rows\n"),
    Row("curate-expanded-row-without-provenance", _expanded_without_provenance, EXIT_ERROR,
        "error: out/expanded.jsonl:2: row has no 'provenance' key\n"),
    Row("curate-unrecorded-pack-with-a-list-id", _unrecorded_pack_with_a_list_id, EXIT_ERROR,
        "error: out/heldout_recommendation.jsonl:1: 'id' must be a string, got [\"x\"]\n"),
    # evaluate on generations, and its scorer's answers.
    Row("evaluate-without-generations-or-replay", _argv("evaluate"), EXIT_ERROR,
        "error: evaluate needs one of --generations DIR and --replay FILE\n"),
    Row("evaluate-generations-with-replay",
        _argv("evaluate", "--replay", "builtin", "--generations", "no-such-dir"), EXIT_ERROR,
        "error: evaluate needs one of --generations DIR and --replay FILE\n"),
    Row("evaluate-missing-generations-dir",
        _argv("evaluate", "--backend", "mock", "--generations", "no-such-dir"), EXIT_ERROR,
        "error: generations directory no-such-dir not found\n"),
    Row("evaluate-id-not-in-test-split",
        _ads_generations('{"id": "rec-9999", "generation": "text"}\n'), EXIT_ERROR,
        "error: ads_generation: id 'rec-9999' not in the test split\n", made=OUT),
    Row("evaluate-duplicate-generation-id",
        _ads_generations(f'{{"id": "{ADS_ID}", "generation": "Oak lamp"}}\n' * 2), EXIT_ERROR,
        f"error: gens/ads_generation.jsonl:2: duplicate id '{ADS_ID}'\n", made=OUT),
    Row("evaluate-null-generation",
        _ads_generations(f'{{"id": "{ADS_ID}", "generation": null}}\n'), EXIT_ERROR,
        "error: gens/ads_generation.jsonl:1: 'generation' must be a string, got null\n",
        made=OUT),
    Row("evaluate-row-without-generation", _ads_generations('{"id": "x"}\n'), EXIT_ERROR,
        "error: gens/ads_generation.jsonl:1: row has no 'generation' key\n", made=OUT),
    *(
        Row(f"evaluate-{id}-generation", _blank_generation(generation), EXIT_ERROR,
            "error: title_rewriting: sample 'rec-0054' has an empty generation\n", made=OUT)
        for id, generation in (("empty", ""), ("whitespace", "   "))
    ),
    Row("evaluate-scorer-transport-error",
        _failing_scorer(TransportError("scorer refused", status=500)), EXIT_ERROR,
        "error: scorer refused\n", made=OUT),
    Row("evaluate-scorer-malformed-response",
        _failing_scorer(BackendResponse(text="not logprobs")), EXIT_ERROR,
        "error: backend returned no logprobs payload\n", made=OUT),
    *(
        Row(f"evaluate-scorer-logprob-{id}", _first_logprob(value), EXIT_ERROR,
            "error: non-finite value in logprobs\n", made=OUT)
        for id, value in (("nan", math.nan), ("past-the-float-range", -10**400))
    ),
    # evaluate --replay.
    _replay_refused("replay-not-json", "not json",
                    "rows.json: Expecting value: line 1 column 1 (char 0)"),
    Row("replay-nested-200000-deep",
        _with_file("rows.json", DEEP_JSON, "evaluate", "--replay", "rows.json"), EXIT_ERROR,
        re.compile(r"error: rows\.json: maximum recursion depth exceeded.*"), made=OUT),
    *(
        _replay_refused(f"replay-root-{id}", root,
                        "rows.json must hold a non-empty JSON list of runs")
        for id, root in (("int", "5"), ("empty", "[]"), ("object", '{"name": "run"}'))
    ),
    _replay_refused("replay-missing-metric", '[{"name": "x", "metrics": {"BL_At": 1.0}}]',
                    "replay row 0: missing or bad field ('RL_At')"),
    *(
        _replay_refused(f"replay-name-{id}", _runs(2, name=name),
                        "replay row 1: name must be a non-empty string")
        for id, name in (("int", 5), ("empty", ""), ("null", None))
    ),
    _replay_refused("replay-duplicate-name", _runs(2, name="GPT-3.5"),
                    "replay row 1: duplicate name 'GPT-3.5'"),
    _replay_refused("replay-zero-metric", _runs(P_pt=0.0), "replay row 0: GM undefined by P_pt"),
    *(
        _replay_refused(f"replay-gm-undefined-{id}", _runs(2, **metrics),
                        f"replay row 1: GM undefined by {named}")
        for id, metrics, named in [
            ("zero-bleu", {"BL_At": 0}, "BL_At"),
            ("ppl-one", {"PPL": 1}, "PPL"),
            ("three-metrics", {"PPL": 0.5, "RL_Ad": -2.0, "BE_qa": 0.0}, "RL_Ad, PPL, BE_qa"),
        ]
    ),
    *(
        _replay_refused(f"replay-{id}", _runs(BL_At=value),
                        f"replay row 0: BL_At must be a finite number, got {shown}")
        for id, value, shown in [
            ("nan-string", "NaN", '"NaN"'),
            ("nan-token", math.nan, "NaN"),
            ("infinity-token", -math.inf, "-Infinity"),
            ("bool", True, "true"),
            ("int-past-the-float-range", 10**400, "1" + "0" * 400),
        ]
    ),
    # human-eval's ratings.
    Row("ratings-missing-file", _argv("human-eval", "--ratings", "nope.jsonl"), EXIT_ERROR,
        "error: [Errno 2] No such file or directory: 'nope.jsonl'\n", made=OUT),
    *(
        Row(f"ratings-{id}", _ratings_file(text), EXIT_ERROR,
            "error: ratings.jsonl holds no ratings\n", made=OUT)
        for id, text in (("empty-file", ""), ("blank-line", "\n"))
    ),
    Row("ratings-duplicate", _ratings_file(f"{_rating()}\n{_rating()}\n"), EXIT_ERROR,
        "error: ratings.jsonl:2: duplicate rating for ('a', 's1')\n", made=OUT),
    *(
        Row(f"ratings-{id}", _ratings_file(f"{_rating(sample_id='s0')}\n{row}\n"), EXIT_ERROR,
            f"error: ratings.jsonl:2: {message}\n", made=OUT)
        for id, row, message in [
            ("no-key", '{"annotator": "a", "task": "ads_generation", "rate": "A"}',
             "row has no 'sample_id' key"),
            ("not-object", "[1]", "row is not a JSON object"),
            ("not-json", "not json", "Expecting value: line 1 column 1 (char 0)"),
            ("bad-rate", _rating(rate="E"), "rate must be one of ('A', 'B', 'C', 'D'), got 'E'"),
            ("null-annotator", _rating(annotator=None), "'annotator' must be a string, got null"),
            ("list-sample-id", _rating(sample_id=["s1"]),
             "'sample_id' must be a string, got [\"s1\"]"),
            ("empty-annotator", _rating(annotator=""), "annotator and sample_id must be non-empty"),
            ("empty-sample-id", _rating(sample_id=""), "annotator and sample_id must be non-empty"),
        ]
    ),
]


@pytest.mark.parametrize("row", REFUSALS, ids=lambda row: row.id)
def test_refusal(row, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    command, *rest = row.prepare(tmp_path, monkeypatch)
    before = _tree(tmp_path)
    capsys.readouterr()
    # The row's own --set paths.out_dir, if any, comes later and wins.
    code = main([command, "--set", "paths.out_dir=out", *rest])
    stdout, stderr = capsys.readouterr()
    assert "Traceback" not in stderr
    if code == EXIT_ERROR:
        assert stderr.startswith("error: ") and stderr.count("\n") == 1, stderr
    if isinstance(row.stderr, str):
        assert stderr == row.stderr
    else:
        assert row.stderr.fullmatch(stderr[:-1]), stderr
    assert (code, stdout) == (row.code, row.stdout)
    after = _tree(tmp_path)
    assert sorted(after.keys() - before.keys()) == sorted(row.made)
    assert {name: after.get(name) for name in before} == before
    for name, data in row.files.items():
        assert after[name] == data

class TestCliErrorSurface:
    def test_help_still_exits_0(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--help"])
        assert info.value.code == 0 and capsys.readouterr().out.startswith("usage: forge")

    def test_value_too_deep_to_show_is_refused(self):
        deep: list = []
        for _ in range(100_000):
            deep = [deep]
        cfg = load_config().data
        cfg["pipeline"]["heldout_intents"] = deep
        with pytest.raises(ForgeError, match="got a value nested too deeply to show$"):
            _validate(cfg)


class TestManifestAndLock:
    def test_check_manifest_ok_then_detects_tamper(self, tmp_path, capsys):
        _run(tmp_path, "formulate")
        assert _run(tmp_path, "check-manifest") == EXIT_OK
        assert "OK" in capsys.readouterr().out
        seeds = tmp_path / "out" / "seeds.jsonl"
        seeds.write_text(seeds.read_text() + "\n", encoding="utf-8")
        assert _run(tmp_path, "check-manifest") == EXIT_ERROR
        assert "MISMATCH" in capsys.readouterr().out

    @pytest.mark.parametrize("mode", ["generations", "replay"])
    def test_check_manifest_covers_evaluate_outputs(self, tmp_path, capsys, mode):
        if mode == "generations":
            gen_dir = tmp_path / "gens"
            _write_ads_generation(gen_dir)
            argv = ["evaluate", "--backend", "mock", "--generations", str(gen_dir)]
            stage, names, code = "evaluate", ["report.json", "report.txt"], EXIT_PARTIAL
        else:
            argv = ["evaluate", "--replay", "builtin"]
            stage, names, code = "replay", ["replay_report.json"], EXIT_OK
        assert _run(tmp_path, *argv) == code
        capsys.readouterr()
        assert _run(tmp_path, "check-manifest") == EXIT_OK
        out = capsys.readouterr().out
        for name in names:
            assert f"{stage}/{name}: OK" in out
        tampered = tmp_path / "out" / names[0]
        tampered.write_text(tampered.read_text() + "\n", encoding="utf-8")
        assert _run(tmp_path, "check-manifest") == EXIT_ERROR
        assert f"{stage}/{names[0]}: HASH MISMATCH" in capsys.readouterr().out

    def test_lockfile_blocks_concurrent_runs(self, tmp_path, capsys):
        out = tmp_path / "out"
        # A second open of the lock file conflicts, in this process too.
        with OutDirLock(out):
            assert _run(tmp_path, "formulate") == EXIT_ERROR
            assert capsys.readouterr().err == f"error: another run holds {out / '.forge.lock'}\n"
            assert [p.name for p in out.iterdir()] == [".forge.lock"]

    def test_lock_of_a_killed_holder_does_not_block(self, tmp_path, capsys):
        out = tmp_path / "out"
        script = (
            "import sys, time\n"
            "from pathlib import Path\n"
            "from ecomforge.cli import OutDirLock\n"
            "OutDirLock(Path(sys.argv[1])).__enter__()\n"
            "print('held', flush=True)\n"
            "time.sleep(120)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(evalsuite.__file__).parent.parent))
        with subprocess.Popen(
            [sys.executable, "-c", script, str(out)], env=env, stdout=subprocess.PIPE, text=True
        ) as holder:
            try:
                assert holder.stdout.readline() == "held\n"
                assert _run(tmp_path, "formulate") == EXIT_ERROR
                err = capsys.readouterr().err
                assert err == f"error: another run holds {out / '.forge.lock'}\n"
            finally:
                holder.kill()
        assert holder.returncode == -signal.SIGKILL
        # The killed holder could not unlink its lock file; nothing holds it.
        assert (out / ".forge.lock").exists()
        assert _run(tmp_path, "formulate") == EXIT_OK
        assert not (out / ".forge.lock").exists()

    @pytest.mark.parametrize("replaced", [False, True], ids=["unlinked", "replaced"])
    def test_lock_won_on_a_file_no_longer_at_the_path_is_taken_again(
        self, tmp_path, monkeypatch, replaced
    ):
        # Between this run's open and its flock, another run takes the lock
        # and lets it go, unlinking the file this run has open; a third may
        # then have made a new file at the path.
        out = tmp_path / "out"
        flock = fcntl.flock

        def flock_after_another_run(fd, operation):
            monkeypatch.setattr(fcntl, "flock", flock)
            with OutDirLock(out):
                pass
            if replaced:
                (out / ".forge.lock").write_text("")
            flock(fd, operation)

        monkeypatch.setattr(fcntl, "flock", flock_after_another_run)
        with OutDirLock(out):
            with pytest.raises(ForgeError, match="another run holds"):
                OutDirLock(out).__enter__()
        assert not (out / ".forge.lock").exists()

    def test_leftover_lock_naming_a_live_pid_does_not_block(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir(parents=True)
        (out / ".forge.lock").write_text(str(os.getppid()))
        assert _run(tmp_path, "formulate") == EXIT_OK
        assert not (out / ".forge.lock").exists()

    def test_threads_racing_for_a_stale_lock_hold_it_one_at_a_time(self, tmp_path):
        # Each round starts from the lock file of an exited process; eight
        # threads, each with its own OutDirLock, then race for it.
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        assert child.wait(timeout=60) == 0
        out = tmp_path / "out"
        out.mkdir()
        guard = threading.Lock()
        holders, most = 0, 0

        def contend(start, wins):
            nonlocal holders, most
            start.wait()
            try:
                with OutDirLock(out):
                    with guard:
                        holders += 1
                        most = max(most, holders)
                    time.sleep(0.001)
                    with guard:
                        holders -= 1
                wins.append(1)
            except ForgeError:
                pass

        for _ in range(50):
            (out / ".forge.lock").write_text(str(child.pid))
            start, wins = threading.Barrier(8), []
            threads = [threading.Thread(target=contend, args=(start, wins)) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert wins
        assert most == 1
        assert not (out / ".forge.lock").exists()

    def test_lock_released_after_run(self, tmp_path):
        _run(tmp_path, "formulate")
        assert not (tmp_path / "out" / ".forge.lock").exists()

    def test_file_hash_spans_several_chunks(self, tmp_path):
        data = bytes(range(256)) * (3 * CHUNK // 256) + b"tail"
        path = tmp_path / "big.bin"
        path.write_bytes(data)
        assert sha256_file(path) == hashlib.sha256(data).hexdigest()


def _formulate_and_expand(tmp_path):
    for argv in (["formulate"], ["expand", "--backend", "mock"]):
        assert _run(tmp_path, *argv) == EXIT_OK
    return tmp_path / "out"


def _stage_records(out):
    return json.loads((out / "run_manifest.json").read_text())["stages"]


class TestStageRegistry:
    def test_each_input_has_one_producer_and_each_file_one_writer(self):
        assert set(STAGES) == {
            "formulate", "expand", "curate", "evaluate", "replay", "lora-verify", "human-eval"
        }
        outputs = [name for _, made in STAGES.values() for name in made]
        assert len(outputs) == len(set(outputs))
        for stage, (inputs, _) in STAGES.items():
            for name in inputs:
                assert name in outputs, (stage, name)

    def test_parser_offers_the_seven_commands(self):
        (commands,) = [
            action.choices
            for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        assert set(commands) == {
            "formulate", "expand", "curate", "evaluate", "lora-verify", "human-eval",
            "check-manifest",
        }


class TestStageRunner:
    @pytest.mark.parametrize(
        "edit, read, refused",
        [
            ("expanded", "expanded.jsonl", "expand/expanded.jsonl: HASH MISMATCH"),
            # curate reads formulate's first pack before the edited one, and
            # the record that vouches for both has a verdict.
            (
                "pack",
                "heldout_scenario_ads.jsonl",
                "formulate/heldout_recommendation.jsonl: HASH MISMATCH",
            ),
            ("reformulate", "expanded.jsonl", "expand/seeds.jsonl: CHANGED"),
        ],
        ids=["edited-expanded", "edited-pack", "reformulated-seeds"],
    )
    def test_curate_refuses_stale_or_edited_input(self, tmp_path, capsys, edit, read, refused):
        out = _formulate_and_expand(tmp_path)
        if edit == "reformulate":
            assert _run(tmp_path, "formulate", "--set", "pipeline.seed_per_task=30") == EXIT_OK
        else:
            path = out / ("expanded.jsonl" if edit == "expanded" else "heldout_recommendation.jsonl")
            path.write_text("".join(path.read_text().splitlines(True)[:-1]), encoding="utf-8")
        capsys.readouterr()
        assert _run(tmp_path, "curate") == EXIT_ERROR
        producer = refused.split("/")[0]
        assert capsys.readouterr().err == (
            f"error: {out / read} cannot be read: {refused}; rerun `forge {producer}`\n"
        )
        assert not (out / "dataset.jsonl").exists() and "curate" not in _stage_records(out)

    def test_expand_and_check_manifest_quote_one_verdict_for_an_edited_pack(
        self, tmp_path, capsys
    ):
        assert _run(tmp_path, "formulate") == EXIT_OK
        out = tmp_path / "out"
        pack = out / "heldout_recommendation.jsonl"
        pack.write_bytes(pack.read_bytes() + b"\n")
        capsys.readouterr()
        assert _run(tmp_path, "expand", "--backend", "mock") == EXIT_ERROR
        line = "formulate/heldout_recommendation.jsonl: HASH MISMATCH"
        assert capsys.readouterr().err == (
            f"error: {out / 'seeds.jsonl'} cannot be read: {line}; rerun `forge formulate`\n"
        )
        assert _run(tmp_path, "check-manifest") == EXIT_ERROR
        assert line in capsys.readouterr().out.splitlines()
        assert _run(tmp_path, "formulate") == EXIT_OK
        assert _run(tmp_path, "expand", "--backend", "mock") == EXIT_OK

    def test_refused_curate_leaves_dataset_and_manifest_as_they_were(self, tmp_path, capsys):
        out = _formulate_and_expand(tmp_path)
        assert _run(tmp_path, "curate") == EXIT_OK
        records = _stage_records(out)
        del records["formulate"]
        (out / "run_manifest.json").write_text(json.dumps({"stages": records}), encoding="utf-8")
        first_id = json.loads((out / "dataset.jsonl").read_text().splitlines()[0])["id"]
        (out / "heldout_recommendation.jsonl").write_text(
            json.dumps({"id": first_id}) + "\n", encoding="utf-8"
        )
        before = {name: (out / name).read_bytes() for name in ("dataset.jsonl", "run_manifest.json")}
        capsys.readouterr()
        assert _run(tmp_path, "curate", "--set", "rng_seed=1") == EXIT_ERROR
        err = capsys.readouterr().err
        assert err == "error: heldout_recommendation.jsonl ids overlap the training set\n"
        assert {name: (out / name).read_bytes() for name in before} == before

    def test_check_manifest_reports_an_input_changed_by_a_rerun(self, tmp_path, capsys):
        out = _formulate_and_expand(tmp_path)
        assert _run(tmp_path, "curate") == EXIT_OK
        capsys.readouterr()
        assert _run(tmp_path, "check-manifest") == EXIT_OK
        consistent = [
            "curate/dataset.jsonl: OK",
            "curate/manifest.json: OK",
            "expand/diagnostics.jsonl: OK",
            "expand/expanded.jsonl: OK",
            "formulate/heldout_recommendation.jsonl: OK",
            "formulate/heldout_scenario_ads.jsonl: OK",
            "formulate/ingest.errors.jsonl: OK",
            "formulate/seeds.jsonl: OK",
        ]
        assert capsys.readouterr().out.splitlines() == consistent
        assert _run(tmp_path, "formulate", "--set", "rng_seed=3") == EXIT_OK
        capsys.readouterr()
        assert _run(tmp_path, "check-manifest") == EXIT_ERROR
        lines = capsys.readouterr().out.splitlines()
        assert "expand/seeds.jsonl: CHANGED" in lines
        assert [line for line in lines if not line.endswith(": CHANGED")] == consistent
        assert _run(tmp_path, "curate") == EXIT_ERROR

    def test_same_config_rerun_of_formulate_is_accepted(self, tmp_path):
        _formulate_and_expand(tmp_path)
        assert _run(tmp_path, "formulate") == EXIT_OK
        assert _run(tmp_path, "curate") == EXIT_OK

    def test_config_hash_recorded_per_stage(self, tmp_path):
        out = _formulate_and_expand(tmp_path)
        assert _run(tmp_path, "curate", "--set", "pipeline.target_total=100") == EXIT_OK
        records = _stage_records(out)
        assert records["formulate"]["config_hash"] == records["expand"]["config_hash"]
        assert records["curate"]["config_hash"] != records["expand"]["config_hash"]
        for record in records.values():
            assert {"inputs", "outputs", "seconds", "cpu_s", "peak_rss_mb"} <= set(record)
        assert set(records["curate"]["inputs"]) == {
            "expanded.jsonl", "heldout_scenario_ads.jsonl", "heldout_recommendation.jsonl"
        }

    def test_unicode_and_python_versions_recorded_per_stage(self, tmp_path):
        records = _stage_records(_formulate_and_expand(tmp_path))
        python = ".".join(map(str, sys.version_info[:3]))
        for record in records.values():
            assert record["unicode"] == unicodedata.unidata_version
            assert record["python"] == python

    # Python 3.10 ships Unicode 13.0.0 and 3.11 ships 14.0.0.
    OTHER_UNICODE = "14.0.0" if unicodedata.unidata_version == "13.0.0" else "13.0.0"

    @pytest.mark.parametrize("recorded", [OTHER_UNICODE, None], ids=["other-version", "no-key"])
    def test_expand_refuses_seeds_written_under_another_unicode_version(
        self, tmp_path, capsys, recorded
    ):
        assert _run(tmp_path, "formulate") == EXIT_OK
        out = tmp_path / "out"
        manifest = json.loads((out / "run_manifest.json").read_text())
        if recorded is None:
            # A record written before stages recorded the Unicode version.
            del manifest["stages"]["formulate"]["unicode"]
        else:
            manifest["stages"]["formulate"]["unicode"] = recorded
        (out / "run_manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        capsys.readouterr()
        code = _run(tmp_path, "expand", "--backend", "mock")
        if recorded is None:
            assert code == EXIT_OK
            return
        assert code == EXIT_ERROR
        assert capsys.readouterr().err == (
            f"error: {out / 'seeds.jsonl'} cannot be read: formulate: UNICODE {recorded} "
            f"(this Python has {unicodedata.unidata_version}); rerun `forge formulate`\n"
        )
        assert not (out / "expanded.jsonl").exists() and "expand" not in _stage_records(out)

    @pytest.mark.parametrize("recorded", [OTHER_UNICODE, None], ids=["other-version", "no-key"])
    def test_check_manifest_lists_a_record_written_under_another_unicode_version(
        self, tmp_path, capsys, recorded
    ):
        assert _run(tmp_path, "formulate") == EXIT_OK
        out = tmp_path / "out"
        manifest = json.loads((out / "run_manifest.json").read_text())
        if recorded is None:
            del manifest["stages"]["formulate"]["unicode"]
        else:
            manifest["stages"]["formulate"]["unicode"] = recorded
        (out / "run_manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        capsys.readouterr()
        code = _run(tmp_path, "check-manifest")
        lines = capsys.readouterr().out.splitlines()
        outputs = sorted(manifest["stages"]["formulate"]["outputs"])
        assert lines[: len(outputs)] == [f"formulate/{name}: OK" for name in outputs]
        if recorded is None:
            assert code == EXIT_OK and len(lines) == len(outputs)
            return
        assert code == EXIT_ERROR
        assert lines[len(outputs) :] == [
            f"formulate: UNICODE {recorded} (this Python has {unicodedata.unidata_version})"
        ]

    def test_formulate_records_packs_and_error_sidecar(self, tmp_path):
        assert _run(tmp_path, "formulate") == EXIT_OK
        assert set(_stage_records(tmp_path / "out")["formulate"]["outputs"]) == {
            "seeds.jsonl",
            "ingest.errors.jsonl",
            "heldout_scenario_ads.jsonl",
            "heldout_recommendation.jsonl",
        }


class TestArtifactRows:
    def test_every_jsonl_artifact_is_canonical(self, tmp_path, monkeypatch):
        demo = demo_data_path("demo_records.jsonl").read_text(encoding="utf-8")
        dirty = tmp_path / "dirty.jsonl"
        bad = {"id": "bad", "title": "Tasse", "taxonomy": "shoes", "action": "achète"}
        dirty.write_text(demo + "not json\n" + json.dumps(bad) + "\n", encoding="utf-8")
        config = {"paths": {"data_in": str(dirty)}, "backend": {"concurrency": 1}}

        class FirstCallFails(MockBackend):
            calls = 0

            def send(self, request):
                FirstCallFails.calls += 1
                if FirstCallFails.calls == 1:
                    raise TransportError("refusé", status=500)
                return super().send(request)

        monkeypatch.setattr("ecomforge.cli.make_backend", lambda config, kind: FirstCallFails())
        assert _run(tmp_path, "formulate", config=config) == EXIT_PARTIAL
        assert _run(tmp_path, "expand", config=config) == EXIT_PARTIAL
        assert _run(tmp_path, "curate", config=config) == EXIT_OK
        out = tmp_path / "out"
        rows = {}
        for path in out.glob("*.jsonl"):
            *lines, last = path.read_bytes().decode("utf-8").split("\n")
            assert last == "" and all(line == canonical_json(json.loads(line)) for line in lines)
            rows[path.name] = [json.loads(line) for line in lines]
        assert set(rows) == {
            "seeds.jsonl", "ingest.errors.jsonl", "heldout_scenario_ads.jsonl",
            "heldout_recommendation.jsonl", "expanded.jsonl", "diagnostics.jsonl", "dataset.jsonl",
        }
        n_demo = len(demo.splitlines())
        errors = rows["ingest.errors.jsonl"]
        assert [row["line"] for row in errors] == [n_demo + 1, n_demo + 2]
        assert "achète" in errors[1]["reason"]
        failures = [ExpansionFailure(**row) for row in rows["diagnostics.jsonl"]]
        assert len(failures) == 1 and failures[0].reason.endswith("refusé")
        write_rows(tmp_path / "failures.jsonl", failures)
        assert (tmp_path / "failures.jsonl").read_bytes() == (out / "diagnostics.jsonl").read_bytes()

    def test_crlf_and_space_padded_inputs_write_the_same_artifacts(self, tmp_path):
        # No padded line takes read_rows's fast path: json.loads reads each.
        padded = {}
        for key, name in (("data_in", "demo_records.jsonl"), ("qa_in", "demo_qa.jsonl")):
            path = tmp_path / name
            lines = demo_data_path(name).read_bytes().splitlines()
            path.write_bytes(b"".join(b"  " + line + b"  \r\n" for line in lines))
            padded[key] = str(path)
        written = []
        for run, config in (("demo", None), ("padded", {"paths": padded})):
            run_dir = tmp_path / run
            run_dir.mkdir()
            for argv in (["formulate"], ["expand", "--backend", "mock"], ["curate"]):
                assert _run(run_dir, *argv, config=config) == EXIT_OK
            names = ("seeds.jsonl", "expanded.jsonl", "dataset.jsonl")
            written.append({name: (run_dir / "out" / name).read_bytes() for name in names})
        assert written[0] == written[1]
