import argparse
import fcntl
import hashlib
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
import unicodedata
from pathlib import Path

import pytest

from ecomforge import evalsuite
from ecomforge.cli import (
    EXIT_ERROR,
    EXIT_OK,
    EXIT_PARTIAL,
    STAGES,
    _HASH_CHUNK,
    OutDirLock,
    _sha256_file,
    build_parser,
    demo_data_path,
    main,
    make_backend,
)
from ecomforge.config import DEFAULTS, _validate, load_config, parse_override
from ecomforge.core import TAXONOMY, Action, ForgeError, ProductRecord, TaskKind, clean_text
from ecomforge.curate import load_jsonl
from ecomforge.expand import ExpansionFailure
from ecomforge.ingest import build_record, canonical_json, write_rows
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

    def test_missing_input_path(self, tmp_path):
        code = _run(tmp_path, "formulate", config={"paths": {"data_in": str(tmp_path / "nope.jsonl")}})
        assert code == EXIT_ERROR

    @pytest.mark.parametrize(
        "key, demo", [("data_in", "demo_records.jsonl"), ("qa_in", "demo_qa.jsonl")]
    )
    def test_repeated_id_names_file_and_id(self, tmp_path, capsys, key, demo):
        lines = demo_data_path(demo).read_text(encoding="utf-8").splitlines()
        rows = tmp_path / "rows.jsonl"
        rows.write_text("\n".join([lines[0], *lines]) + "\n", encoding="utf-8")
        assert _run(tmp_path, "formulate", config={"paths": {key: str(rows)}}) == EXIT_ERROR
        repeated = json.loads(lines[0])["id"]
        assert capsys.readouterr().err == (
            f"error: {rows}: duplicate id {repeated!r}; train/test disjointness would break\n"
        )

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

    @pytest.mark.parametrize(
        "key, rows",
        [
            ("data_in", "no_action"),
            ("data_in", "empty"),
            ("qa_in", "empty"),
        ],
        ids=["records-all-no-action", "records-empty", "qa-empty"],
    )
    def test_empty_split_names_the_file(self, tmp_path, capsys, key, rows):
        path = tmp_path / "rows.jsonl"
        text = ""
        if rows == "no_action":
            demo = demo_data_path("demo_records.jsonl").read_text(encoding="utf-8")
            lines = [json.loads(line) | {"action": "no_action"} for line in demo.splitlines()]
            text = "".join(json.dumps(row) + "\n" for row in lines)
        path.write_text(text, encoding="utf-8")
        assert _run(tmp_path, "formulate", config={"paths": {key: str(path)}}) == EXIT_ERROR
        assert capsys.readouterr().err == f"error: {path}: no rows to split\n"
        assert not list((tmp_path / "out").iterdir())

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

    def test_heldout_set_larger_than_test_split_writes_nothing(self, tmp_path, capsys):
        assert _run(tmp_path, "formulate", "--set", "pipeline.heldout_set_size=1000") == EXIT_ERROR
        assert "test split too small" in capsys.readouterr().err
        assert not list((tmp_path / "out").iterdir())


class TestExpandCommand:
    def test_requires_seeds(self, tmp_path):
        assert _run(tmp_path, "expand", "--backend", "mock") == EXIT_ERROR

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

    def test_line_separator_in_an_id_survives_formulate_and_expand(self, tmp_path):
        # seeds.jsonl holds the id's U+2028 raw; str.splitlines would break
        # the row there and expand would refuse the file formulate wrote.
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

    def test_misaligned_id_names_offender(self, pipeline_dir, tmp_path, capsys):
        out = pipeline_dir / "out"
        gen_dir = tmp_path / "gens"
        gen_dir.mkdir()
        (gen_dir / "ads_generation.jsonl").write_text(
            json.dumps({"id": "rec-9999", "generation": "text"}) + "\n", encoding="utf-8"
        )
        code = main(["evaluate", "--backend", "mock", "--generations", str(gen_dir),
                     "--set", f"paths.out_dir={out}"])
        assert code == EXIT_ERROR
        assert "rec-9999" in capsys.readouterr().err

    def test_duplicate_generation_id_is_refused(self, tmp_path, capsys):
        gen_dir = tmp_path / "gens"
        sample_id = _write_ads_generation(gen_dir)
        path = gen_dir / "ads_generation.jsonl"
        path.write_text(path.read_text() * 2, encoding="utf-8")
        code = _run(tmp_path, "evaluate", "--backend", "mock", "--generations", str(gen_dir))
        assert code == EXIT_ERROR
        assert f"{path}:2: duplicate id {sample_id!r}" in capsys.readouterr().err

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

    def test_replay_of_zero_metric_row_is_refused(self, tmp_path, capsys):
        row = json.loads(demo_data_path("reference_runs.json").read_text())[0]
        row["metrics"]["P_pt"] = 0.0
        replay = tmp_path / "rows.json"
        replay.write_text(json.dumps([row]), encoding="utf-8")
        assert _run(tmp_path, "evaluate", "--replay", str(replay)) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err == "error: replay row 0: GM undefined by P_pt\n"
        assert not (tmp_path / "out" / "replay_report.json").exists()

    @pytest.mark.parametrize(
        "changes, named",
        [
            ({"BL_At": 0}, "BL_At"),
            ({"PPL": 1}, "PPL"),
            ({"PPL": 0.5, "RL_Ad": -2.0, "BE_qa": 0.0}, "RL_Ad, PPL, BE_qa"),
        ],
        ids=["zero-bleu", "ppl-one", "three-metrics"],
    )
    def test_replay_row_names_the_metrics_that_undefine_gm(
        self, tmp_path, capsys, changes, named
    ):
        rows = json.loads(demo_data_path("reference_runs.json").read_text())[:2]
        rows[1]["metrics"].update(changes)
        replay = tmp_path / "rows.json"
        replay.write_text(json.dumps(rows), encoding="utf-8")
        assert _run(tmp_path, "evaluate", "--replay", str(replay)) == EXIT_ERROR
        assert capsys.readouterr().err == f"error: replay row 1: GM undefined by {named}\n"
        assert not (tmp_path / "out" / "replay_report.json").exists()

    @pytest.mark.parametrize("root", ["5", "[]", '{"name": "run"}'], ids=["int", "empty", "object"])
    def test_replay_root_that_is_not_a_list_of_runs_is_refused(self, tmp_path, capsys, root):
        replay = tmp_path / "rows.json"
        replay.write_text(root, encoding="utf-8")
        assert _run(tmp_path, "evaluate", "--replay", str(replay)) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {replay} must hold a non-empty JSON list of runs\n"
        assert list((tmp_path / "out").iterdir()) == []

    @pytest.mark.parametrize("name", [5, "", None], ids=["int", "empty", "null"])
    def test_replay_row_name_that_is_not_a_non_empty_string_is_refused(
        self, tmp_path, capsys, name
    ):
        rows = json.loads(demo_data_path("reference_runs.json").read_text())[:2]
        rows[1]["name"] = name
        replay = tmp_path / "rows.json"
        replay.write_text(json.dumps(rows), encoding="utf-8")
        assert _run(tmp_path, "evaluate", "--replay", str(replay)) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: replay row 1: name must be a non-empty string\n"
        assert list((tmp_path / "out").iterdir()) == []

    def test_replay_rows_with_the_same_name_are_refused(self, tmp_path, capsys):
        row = json.loads(demo_data_path("reference_runs.json").read_text())[0]
        replay = tmp_path / "rows.json"
        replay.write_text(json.dumps([row, row]), encoding="utf-8")
        assert _run(tmp_path, "evaluate", "--replay", str(replay)) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: replay row 1: duplicate name {row['name']!r}\n"
        assert list((tmp_path / "out").iterdir()) == []

    def test_replay_file_that_is_not_json_is_named_in_the_error(self, tmp_path, capsys):
        replay = tmp_path / "rows.json"
        replay.write_text("not json", encoding="utf-8")
        assert _run(tmp_path, "evaluate", "--replay", str(replay)) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err == f"error: {replay}: Expecting value: line 1 column 1 (char 0)\n"
        assert list((tmp_path / "out").iterdir()) == []

    @pytest.mark.parametrize("generation", ["", "   "], ids=["empty", "whitespace"])
    def test_empty_generation_names_task_and_sample(self, tmp_path, capsys, generation):
        gen_dir = tmp_path / "gens"
        _write_generations(gen_dir)
        path = gen_dir / "title_rewriting.jsonl"
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        rows[2]["generation"] = generation
        path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
        code = _run(tmp_path, "evaluate", "--backend", "mock", "--generations", str(gen_dir))
        assert code == EXIT_ERROR
        sample_id = rows[2]["id"]
        expected = f"error: title_rewriting: sample {sample_id!r} has an empty generation\n"
        assert capsys.readouterr().err == expected
        assert list((tmp_path / "out").iterdir()) == []

    @pytest.mark.parametrize(
        "answer, message",
        [
            (TransportError("scorer refused", status=500), "error: scorer refused"),
            (BackendResponse(text="not logprobs"), "error: backend returned no logprobs payload"),
        ],
        ids=["transport-error", "malformed-response"],
    )
    def test_failing_scorer_call_is_clean_error(
        self, tmp_path, monkeypatch, capsys, answer, message
    ):
        class ScorerFails(MockBackend):
            def send(self, request):
                if request.kind != LOGPROBS:
                    return super().send(request)
                if isinstance(answer, Exception):
                    raise answer
                return answer

        monkeypatch.setattr("ecomforge.cli.make_backend", lambda config, kind: ScorerFails())
        gen_dir = tmp_path / "gens"
        _write_generations(gen_dir)
        code = _run(tmp_path, "evaluate", "--backend", "http", "--generations", str(gen_dir))
        assert code == EXIT_ERROR
        assert capsys.readouterr().err == message + "\n"
        assert list((tmp_path / "out").iterdir()) == []

    def _evaluate_over_stub_session(self, tmp_path, monkeypatch, answer):
        """Run ``evaluate --backend http`` on the demo generations against a
        stub session: chat posts get the mock backend's logprobs, and an
        embeddings post gets the data list ``answer(items, post number)``
        makes from the mock's items, one per input token in index order.
        Each Q&A generation is another sample's answer."""
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
                    data = answer(items, self.embed_posts)
                    self.embed_posts += 1
                    return Response({"data": data})
                text = json["messages"][-1]["content"]
                content = [{"logprob": lp} for lp in mock.score_logprobs(text)]
                return Response({"choices": [{"logprobs": {"content": content}}]})

        session = StubSession()
        monkeypatch.setattr(
            "ecomforge.cli.make_backend",
            lambda config, kind: HttpBackend(
                base_url="http://stub", model=mock.model, session=session,
                policy=RetryPolicy(max_retries=0),
            ),
        )
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
        ],
        ids=["short", "long", "missing-index", "repeated-index", "index-out-of-range",
             "string-index", "width-across-chunks"],
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

    def test_needs_generations_or_replay(self, tmp_path):
        assert _run(tmp_path, "evaluate") == EXIT_ERROR

    def test_generations_with_replay_is_refused_before_anything_is_written(
        self, tmp_path, capsys
    ):
        code = _run(tmp_path, "evaluate", "--replay", "builtin",
                    "--generations", str(tmp_path / "no-such-dir"))
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "out" / "replay_report.json").exists()
        assert not (tmp_path / "out" / "run_manifest.json").exists()

    def test_missing_generations_dir_is_clean_error(self, tmp_path, capsys):
        missing = tmp_path / "no-such-dir"
        code = _run(tmp_path, "evaluate", "--backend", "mock", "--generations", str(missing))
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and str(missing) in err
        assert not (tmp_path / "out" / "report.json").exists()


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

    def test_empty_ratings_file_is_refused(self, tmp_path, capsys):
        ratings = tmp_path / "ratings.jsonl"
        ratings.write_text("\n", encoding="utf-8")
        assert _run(tmp_path, "human-eval", "--ratings", str(ratings)) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err == f"error: {ratings} holds no ratings\n"
        assert list((tmp_path / "out").iterdir()) == []

    def test_duplicate_is_hard_error(self, tmp_path):
        ratings = tmp_path / "ratings.jsonl"
        row = json.dumps(
            {"annotator": "a", "sample_id": "s", "task": "ads_generation", "rate": "A"}
        )
        ratings.write_text(row + "\n" + row + "\n", encoding="utf-8")
        assert _run(tmp_path, "human-eval", "--ratings", str(ratings)) == EXIT_ERROR


class TestCliErrorSurface:
    @pytest.mark.parametrize(
        "argv",
        [["human-eval"], ["bogus"], ["formulate", "--nope"]],
        ids=["missing-required-option", "unknown-command", "unknown-option"],
    )
    def test_usage_error_is_one_error_line_and_exit_1(self, capsys, argv):
        assert main(argv) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "usage:" not in err

    def test_help_still_exits_0(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--help"])
        assert info.value.code == 0 and capsys.readouterr().out.startswith("usage: forge")

    def test_non_divisible_target_is_clean_error(self, pipeline_dir, capsys):
        out = pipeline_dir / "out"
        code = main(["curate", "--set", f"paths.out_dir={out}",
                     "--set", "pipeline.target_total=101"])
        assert code == EXIT_ERROR
        assert "divisible" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args, key",
        [
            (["--set", 'pipeline.seed_per_task="x"'], "pipeline.seed_per_task"),
            (["--set", "pipeline.heldout_scenarios=5"], "pipeline.heldout_scenarios"),
            (["--set", "paths.out_dir=5"], "paths.out_dir"),
            (["--set", "pipeline.split_ratio=null"], "pipeline.split_ratio"),
            (["--set", "pipeline.heldout_set_size=1.5"], "pipeline.heldout_set_size"),
            (["--config", "backend-5.json"], "backend"),
            (["--set", "pipeline.target_total=7"], "pipeline.target_total"),
            (["--set", "rng_seed=-1"], "rng_seed"),
            (["--set", "backend.max_retries=11"], "backend.max_retries"),
            # Refused at load, so no expand pool of that many threads exists.
            (["--set", "backend.concurrency=1000000"], "backend.concurrency"),
            # socket.settimeout overflows on these, deep in a backend call.
            (["--set", "backend.timeout_s=1e300"], "backend.timeout_s"),
            (["--set", "backend.timeout_s=Infinity"], "backend.timeout_s"),
            # No HTTP client can post to it; each call would back off and fail.
            (["--set", "backend.base_url=localhost:8000/v1"], "backend.base_url"),
            # A JSON body cannot carry it.
            (["--set", "backend.expand_temperature=Infinity"], "backend.expand_temperature"),
            # A blank path would read the bundled demo data, or write every
            # artifact to the current directory; a blank intent is a prompt "".
            (["--set", "paths.data_in="], "paths.data_in"),
            (["--set", "paths.qa_in="], "paths.qa_in"),
            (["--set", "paths.out_dir="], "paths.out_dir"),
            (["--set", 'pipeline.heldout_intents=[""]'], "pipeline.heldout_intents"),
        ],
        ids=["str-count", "int-list", "int-path", "null-ratio", "float-count", "int-section",
             "indivisible-target", "negative-seed", "retries-above-10", "concurrency-above-64",
             "timeout-1e300", "timeout-infinity", "base-url-without-scheme",
             "temperature-infinity", "blank-data-in", "blank-qa-in", "blank-out-dir",
             "blank-intent"],
    )
    def test_bad_config_value_is_refused_at_load(self, tmp_path, monkeypatch, capsys, args, key):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "backend-5.json").write_text('{"backend": 5}', encoding="utf-8")
        assert main(["formulate", "--set", "paths.out_dir=out", *args]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} must ") and err.count("\n") == 1
        assert [p.name for p in tmp_path.iterdir()] == ["backend-5.json"]

    def test_missing_ratings_file_is_clean_error(self, tmp_path, capsys):
        code = _run(tmp_path, "human-eval", "--ratings", str(tmp_path / "nope.jsonl"))
        assert code == EXIT_ERROR
        assert "error:" in capsys.readouterr().err

    def test_corrupt_seeds_file_is_clean_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir(parents=True)
        (out / "seeds.jsonl").write_text("not json\n", encoding="utf-8")
        code = _run(tmp_path, "expand", "--backend", "mock")
        assert code == EXIT_ERROR
        assert "seeds.jsonl:1" in capsys.readouterr().err

    def test_empty_seeds_file_is_refused_naming_it(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir(parents=True)
        (out / "seeds.jsonl").write_text("\n", encoding="utf-8")
        assert _run(tmp_path, "expand", "--backend", "mock") == EXIT_ERROR
        assert capsys.readouterr().err == f"error: {out / 'seeds.jsonl'}: no rows\n"
        assert not (out / "expanded.jsonl").exists()

    def test_empty_expanded_file_is_refused_naming_it(self, tmp_path, capsys):
        assert _run(tmp_path, "formulate") == EXIT_OK
        out = tmp_path / "out"
        (out / "expanded.jsonl").write_bytes(b"")
        capsys.readouterr()
        assert _run(tmp_path, "curate") == EXIT_ERROR
        assert capsys.readouterr().err == f"error: {out / 'expanded.jsonl'}: no rows\n"
        assert not (out / "dataset.jsonl").exists()

    def test_hand_made_expanded_with_bad_row_is_clean_error(self, tmp_path, capsys):
        assert _run(tmp_path, "formulate") == EXIT_OK
        out = tmp_path / "out"
        rows = [json.loads(line) for line in (out / "seeds.jsonl").read_text().splitlines()]
        del rows[1]["provenance"]
        (out / "expanded.jsonl").write_text(
            "".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8"
        )
        capsys.readouterr()
        assert _run(tmp_path, "curate") == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "expanded.jsonl:2: row has no 'provenance' key" in err

    def test_unrecorded_pack_with_a_non_string_id_is_clean_error(self, tmp_path, capsys):
        out = _formulate_and_expand(tmp_path)
        records = _stage_records(out)
        del records["formulate"]
        (out / "run_manifest.json").write_text(json.dumps({"stages": records}), encoding="utf-8")
        pack = out / "heldout_recommendation.jsonl"
        pack.write_text(json.dumps({"id": ["x"]}) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert _run(tmp_path, "curate") == EXIT_ERROR
        assert capsys.readouterr().err == f"error: {pack}:1: 'id' must be a string, got [\"x\"]\n"

    def test_replay_row_missing_metric_is_clean_error(self, tmp_path, capsys):
        replay = tmp_path / "rows.json"
        replay.write_text(json.dumps([{"name": "x", "metrics": {"BL_At": 1.0}}]))
        code = _run(tmp_path, "evaluate", "--replay", str(replay))
        assert code == EXIT_ERROR
        assert "replay row 0" in capsys.readouterr().err

    def test_null_generation_is_refused(self, tmp_path, capsys):
        gen_dir = tmp_path / "gens"
        sample_id = _write_ads_generation(gen_dir)
        path = gen_dir / "ads_generation.jsonl"
        path.write_text(json.dumps({"id": sample_id, "generation": None}) + "\n", encoding="utf-8")
        code = _run(tmp_path, "evaluate", "--backend", "mock", "--generations", str(gen_dir))
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err == f"error: {path}:1: 'generation' must be a string, got null\n"
        assert list((tmp_path / "out").iterdir()) == []

    @pytest.mark.parametrize(
        "value, shown",
        [('"NaN"', '"NaN"'), ("NaN", "NaN"), ("-Infinity", "-Infinity"), ("true", "true")],
        ids=["nan-string", "nan-token", "infinity-token", "bool"],
    )
    def test_replay_row_with_non_finite_value_is_refused(self, tmp_path, capsys, value, shown):
        row = json.loads(demo_data_path("reference_runs.json").read_text())[0]
        row["metrics"]["BL_At"] = "PLACEHOLDER"
        replay = tmp_path / "rows.json"
        replay.write_text(json.dumps([row]).replace('"PLACEHOLDER"', value), encoding="utf-8")
        assert _run(tmp_path, "evaluate", "--replay", str(replay)) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: replay row 0: BL_At must be a finite number, got {shown}\n"
        assert list((tmp_path / "out").iterdir()) == []

    def test_replay_row_with_int_past_the_float_range_is_refused(self, tmp_path, capsys):
        huge = "1" + "0" * 400
        row = json.loads(demo_data_path("reference_runs.json").read_text())[0]
        row["metrics"]["BL_At"] = "PLACEHOLDER"
        replay = tmp_path / "rows.json"
        replay.write_text(json.dumps([row]).replace('"PLACEHOLDER"', huge), encoding="utf-8")
        assert _run(tmp_path, "evaluate", "--replay", str(replay)) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: replay row 0: BL_At must be a finite number, got {huge}\n"
        assert list((tmp_path / "out").iterdir()) == []

    def test_config_root_not_an_object_names_the_file(self, tmp_path, capsys):
        assert _run(tmp_path, "lora-verify", config=[1]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        path = tmp_path / "config.json"
        assert captured.err == f"error: {path}: config root must be a JSON object\n"
        assert not (tmp_path / "out").exists()

    def test_bad_generation_row_is_clean_error(self, pipeline_dir, tmp_path, capsys):
        out = pipeline_dir / "out"
        gen_dir = tmp_path / "gens"
        gen_dir.mkdir()
        (gen_dir / "ads_generation.jsonl").write_text('{"id": "x"}\n', encoding="utf-8")
        code = main(["evaluate", "--backend", "mock", "--generations", str(gen_dir),
                     "--set", f"paths.out_dir={out}"])
        assert code == EXIT_ERROR
        assert "row has no 'generation' key" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, row, message",
        [
            ("formulate", '{"id": "q-x", "question": "Fits?"}', "row has no 'answer' key"),
            ("formulate", "[1]", "row is not a JSON object"),
            ("formulate", "not json", "Expecting value"),
            ("human-eval", '{"annotator": "a", "task": "ads_generation", "rate": "A"}',
             "row has no 'sample_id' key"),
            ("human-eval", "[1]", "row is not a JSON object"),
            ("human-eval", "not json", "Expecting value"),
            ("human-eval", '{"annotator": "a", "sample_id": "s1", "task": "ads_generation", '
             '"rate": "E"}', "rate must be one of"),
            ("formulate", '{"id": "q-x", "question": "Fits?", "answer": null}',
             "'answer' must be a string, got null"),
            ("formulate", '{"id": "q-x", "question": "🛍️", "answer": "Yes."}',
             "Q&A pair 'q-x': empty question"),
            ("formulate", '{"id": "", "question": "Fits?", "answer": "Yes."}',
             "Q&A pair '': empty id"),
            ("formulate", '{"id": 7, "question": "Fits?", "answer": "Yes."}',
             "'id' must be a string, got 7"),
            ("human-eval", '{"annotator": null, "sample_id": "s1", "task": "ads_generation", '
             '"rate": "A"}', "'annotator' must be a string, got null"),
            ("human-eval", '{"annotator": "a", "sample_id": ["s1"], "task": "ads_generation", '
             '"rate": "A"}', "'sample_id' must be a string, got [\"s1\"]"),
            ("human-eval", '{"annotator": "", "sample_id": "s1", "task": "ads_generation", '
             '"rate": "A"}', "annotator and sample_id must be non-empty"),
            ("human-eval", '{"annotator": "a", "sample_id": "", "task": "ads_generation", '
             '"rate": "A"}', "annotator and sample_id must be non-empty"),
        ],
        ids=["qa-no-key", "qa-not-object", "qa-not-json",
             "rating-no-key", "rating-not-object", "rating-not-json", "rating-bad-rate",
             "qa-null-answer", "qa-emoji-only-question", "qa-empty-id", "qa-int-id",
             "rating-null-annotator", "rating-list-sample-id",
             "rating-empty-annotator", "rating-empty-sample-id"],
    )
    def test_malformed_qa_or_rating_row_is_clean_error(
        self, tmp_path, capsys, command, row, message
    ):
        rows = tmp_path / "rows.jsonl"
        if command == "formulate":
            good = demo_data_path("demo_qa.jsonl").read_text(encoding="utf-8").splitlines()[0]
            argv, config = ["formulate"], {"paths": {"qa_in": str(rows)}}
        else:
            good = json.dumps(
                {"annotator": "a", "sample_id": "s0", "task": "ads_generation", "rate": "A"}
            )
            argv, config = ["human-eval", "--ratings", str(rows)], None
        rows.write_text(good + "\n" + row + "\n", encoding="utf-8")
        assert _run(tmp_path, *argv, config=config) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"rows.jsonl:2: {message}" in err


    @pytest.mark.parametrize(
        "content", [DEEP_JSON.encode(), b"\xff{}"], ids=["nested-200000-deep", "not-utf8"]
    )
    def test_unparseable_config_file_is_named_in_the_error(self, tmp_path, capsys, content):
        path = tmp_path / "config.json"
        path.write_bytes(content)
        code = main(["formulate", "--config", str(path), "--set", f"paths.out_dir={tmp_path}/out"])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    def test_deeply_nested_replay_file_is_named_in_the_error(self, tmp_path, capsys):
        replay = tmp_path / "rows.json"
        replay.write_text(DEEP_JSON, encoding="utf-8")
        assert _run(tmp_path, "evaluate", "--replay", str(replay)) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"error: {replay}: ") and err.count("\n") == 1
        assert list((tmp_path / "out").iterdir()) == []

    def test_deeply_nested_override_names_its_key(self, tmp_path, capsys):
        deep = "[" * 5000 + "]" * 5000
        assert _run(tmp_path, "formulate", "--set", f"pipeline.x={deep}") == EXIT_ERROR
        err = capsys.readouterr().err
        assert err == "error: --set pipeline.x: value is nested too deeply to parse\n"
        assert not (tmp_path / "out").exists()

    def test_nested_config_value_then_override_is_one_line_error(self, tmp_path, capsys):
        # Each --set merges into the config read so far; a 500-deep list in
        # the file must not cost a recursion per level there.
        deep = json.loads("[" * 500 + "]" * 500)
        code = _run(tmp_path, "formulate", config={"pipeline": {"heldout_intents": deep}})
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: pipeline.heldout_intents must be a non-empty list of strings")
        assert err.count("\n") == 1

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

    @pytest.mark.parametrize("command", ["formulate", "check-manifest"])
    @pytest.mark.parametrize(
        "manifest",
        [
            "[]",
            '{"stages": []}',
            "not json",
            '{"stages": {"formulate": {"outputs": []}}}',
            DEEP_JSON,
        ],
        ids=["list", "stages-list", "not-json", "outputs-list", "nested-200000-deep"],
    )
    def test_malformed_run_manifest_is_refused_before_any_write(
        self, tmp_path, capsys, command, manifest
    ):
        out = tmp_path / "out"
        out.mkdir()
        (out / "run_manifest.json").write_text(manifest, encoding="utf-8")
        assert _run(tmp_path, command) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {out / 'run_manifest.json'} is not a run manifest\n"
        assert [p.name for p in out.iterdir()] == ["run_manifest.json"]
        assert (out / "run_manifest.json").read_text(encoding="utf-8") == manifest

    @pytest.mark.parametrize("command", ["formulate", "check-manifest"])
    @pytest.mark.parametrize("key", ["inputs", "outputs"])
    @pytest.mark.parametrize(
        "name",
        ["", ".", "..", "../x", "sub/seeds.jsonl", "/etc/hostname", "x.jsonl", "x\nexpand: OK"],
        ids=["empty", "dot", "dot-dot", "parent", "subdir", "absolute", "unregistered", "newline"],
    )
    def test_run_manifest_naming_a_path_that_is_not_a_file_name_is_refused(
        self, tmp_path, capsys, command, key, name
    ):
        out = tmp_path / "out"
        out.mkdir()
        manifest = json.dumps({"stages": {"formulate": {key: {name: "0"}}}})
        (out / "run_manifest.json").write_text(manifest, encoding="utf-8")
        assert _run(tmp_path, command) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {out / 'run_manifest.json'} is not a run manifest\n"
        assert [p.name for p in out.iterdir()] == ["run_manifest.json"]

    @pytest.mark.parametrize("command", ["formulate", "check-manifest"])
    @pytest.mark.parametrize(
        "record",
        [
            {"other": {"outputs": {}}},
            {"formulate": {"unicode": "13.0.0\nexpand/seeds.jsonl: OK"}},
            {"formulate": {"unicode": 13}},
        ],
        ids=["unregistered-stage", "unicode-with-newline", "unicode-number"],
    )
    def test_run_manifest_with_an_unregistered_stage_or_unprintable_unicode_is_refused(
        self, tmp_path, capsys, command, record
    ):
        out = tmp_path / "out"
        out.mkdir()
        (out / "run_manifest.json").write_text(json.dumps({"stages": record}), encoding="utf-8")
        assert _run(tmp_path, command) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {out / 'run_manifest.json'} is not a run manifest\n"
        assert [p.name for p in out.iterdir()] == ["run_manifest.json"]

    def test_lockfile_blocks_concurrent_runs(self, tmp_path, capsys):
        out = tmp_path / "out"
        # A second open of the lock file conflicts, in this process too.
        with OutDirLock(out):
            assert _run(tmp_path, "formulate") == EXIT_ERROR
            assert capsys.readouterr().err == f"error: another run holds {out / '.forge.lock'}\n"
            assert [p.name for p in out.iterdir()] == [".forge.lock"]

    def test_lock_of_a_killed_holder_does_not_block(self, tmp_path):
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

    # One command per recorded stage; each must be refused before it reads
    # an input, so none of them needs one.
    STAGE_ARGV = {
        "formulate": ["formulate"],
        "expand": ["expand", "--backend", "mock"],
        "curate": ["curate"],
        "evaluate": ["evaluate", "--backend", "mock", "--generations", "."],
        "replay": ["evaluate", "--replay", "builtin"],
        "lora-verify": ["lora-verify"],
        "human-eval": ["human-eval", "--ratings", "ratings.jsonl"],
    }

    @pytest.mark.parametrize("stage", sorted(STAGES))
    def test_out_dir_naming_a_file_is_refused_naming_the_setting(self, tmp_path, capsys, stage):
        out = tmp_path / "out"
        out.write_text("not a directory\n", encoding="utf-8")
        assert _run(tmp_path, *self.STAGE_ARGV[stage]) == EXIT_ERROR
        assert capsys.readouterr() == ("", f"error: paths.out_dir {out} is not a directory\n")
        assert out.read_text(encoding="utf-8") == "not a directory\n"

    def test_out_dir_under_a_file_is_refused_naming_the_setting(self, tmp_path, capsys):
        (tmp_path / "file").write_text("", encoding="utf-8")
        out = tmp_path / "file" / "out"
        assert main(["formulate", "--set", f"paths.out_dir={out}"]) == EXIT_ERROR
        assert capsys.readouterr() == ("", f"error: paths.out_dir {out} is not a directory\n")

    def test_file_hash_spans_several_chunks(self, tmp_path):
        data = bytes(range(256)) * (3 * _HASH_CHUNK // 256) + b"tail"
        path = tmp_path / "big.bin"
        path.write_bytes(data)
        assert _sha256_file(path) == hashlib.sha256(data).hexdigest()


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
        written = write_rows(tmp_path / "failures.jsonl", failures)
        assert written == (out / "diagnostics.jsonl").read_bytes()

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
