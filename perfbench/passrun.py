"""One pass of a workload's stage sequence, in a process of its own.

``run.py`` starts this script once per pass, so peak RSS and CPU time are
those of the pass alone. Usage: ``python3 perfbench/passrun.py SPEC.json``;
the spec names the stages, the config overrides, the backend, whether to
trace, and where to write the result. With ``"mode": "import"`` it only
times ``import ecomforge.cli``.
"""
from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))


def _arg(args, kwargs, index: int, name: str):
    return kwargs[name] if name in kwargs else args[index]


def instrument(tracer) -> None:
    """Wrap the public functions the per-layer metrics are made of."""
    from ecomforge import cli, core, curate, evalsuite, expand, formulate, ingest, modelio

    import fakesession
    from tracer import wrap_everywhere, wrap_method

    def wrap(module, attr, name, count=None):
        wrap_everywhere(tracer, module, attr, name, count)

    for stage in ("formulate", "expand", "curate", "evaluate"):
        wrap(cli, f"cmd_{stage}", f"cli.{stage}")
    wrap(ingest, "load_interactions", "ingest.load", lambda a, k, r: {"ingest.rows": len(r[0])})
    wrap(
        formulate,
        "build_seed_set",
        "formulate.build_seed_set",
        lambda a, k, r: {"formulate.seeds": len(r)},
    )
    wrap(
        expand,
        "expand_corpus",
        "expand.expand_corpus",
        lambda a, k, r: {"expand.pairs_out": len(r.pairs), "expand.failures": len(r.failures)},
    )
    wrap(
        curate,
        "dedup",
        "curate.dedup",
        lambda a, k, r: {"curate.dedup_in": len(_arg(a, k, 0, "pairs")), "curate.dedup_out": len(r)},
    )
    wrap(curate, "balance", "curate.balance")
    wrap(
        curate,
        "emit_jsonl",
        "curate.emit_jsonl",
        lambda a, k, r: {"curate.emit_bytes": Path(_arg(a, k, 1, "path")).stat().st_size},
    )
    wrap(curate, "load_jsonl", "curate.load_jsonl")
    wrap(curate, "build_heldout_packs", "curate.heldout")
    wrap(curate, "emit_pack", "curate.heldout")
    for fn in ("clean_text", "tokenize", "normalize_label"):
        wrap(core, fn, f"core.{fn}")
    for fn in ("evaluate_run", "bleu", "rouge_l", "bert_style_score", "macro_prf"):
        wrap(evalsuite, fn, f"evalsuite.{fn}")
    wrap_method(tracer, modelio.Backend, "complete", "modelio.complete")
    wrap_method(tracer, modelio.Backend, "score_logprobs", "modelio.logprobs")
    wrap_method(tracer, modelio.Backend, "embed_tokens", "modelio.embed")
    wrap_method(tracer, modelio.HttpBackend, "send", "modelio.send.http")
    wrap_method(tracer, modelio.MockBackend, "send", "modelio.send.mock")
    wrap_method(
        tracer,
        fakesession.FakeSession,
        "post",
        "modelio.post",
        lambda a, k, r: {"modelio.post_ok": int(r.status_code == 200)},
        opaque=True,
    )
    expand.ThreadPoolExecutor = tracer.executor(expand.ThreadPoolExecutor)


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    started = time.perf_counter()
    import ecomforge
    import ecomforge.cli  # noqa: F401

    import_s = time.perf_counter() - started
    if not Path(ecomforge.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"ecomforge imported from {ecomforge.__file__}, not from {ROOT / 'src'}")
    result: dict = {"import_s": import_s}
    if spec["mode"] == "pass":
        result.update(run_pass(spec))
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


def run_pass(spec: dict) -> dict:
    from ecomforge import cli
    from ecomforge.config import load_config
    from fakesession import FakeSession
    from tracer import Tracer

    inputs = Path(spec["inputs"])
    overrides = [
        f"paths.data_in={inputs / 'records.jsonl'}",
        f"paths.qa_in={inputs / 'qa.jsonl'}",
        f"paths.out_dir={spec['out_dir']}",
    ] + [f"{key}={json.dumps(value)}" for key, value in spec["overrides"].items()]
    config = load_config(None, overrides)
    backend = spec["backend"]
    if backend == "http":
        session = FakeSession(**spec["fake_session"])
        make_backend = cli.make_backend

        def make_backend_with_fake_session(config, kind):
            made = make_backend(config, kind)
            made.session = session
            return made

        cli.make_backend = make_backend_with_fake_session
    tracer = None
    if spec["trace"]:
        tracer = Tracer()
        instrument(tracer)

    generations = inputs / "generations"
    stages = {
        "formulate": lambda: cli.cmd_formulate(config),
        "expand": lambda: cli.cmd_expand(config, backend),
        "curate": lambda: cli.cmd_curate(config),
        "evaluate": lambda: cli.cmd_evaluate(config, backend, generations, None),
    }
    codes: dict[str, int] = {}
    stage_s: dict[str, float] = {}
    cpu_started = time.process_time()
    started = time.perf_counter()
    for name in spec["stages"]:
        stage_started = time.perf_counter()
        codes[name] = stages[name]()
        stage_s[name] = time.perf_counter() - stage_started
    run_s = time.perf_counter() - started
    cpu_s = time.process_time() - cpu_started
    out = {
        "run_s": run_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "stage_s": stage_s,
        "exit_codes": codes,
    }
    if tracer is not None:
        out["trace"] = {
            "pass_id": spec["pass_id"],
            "spans": tracer.spans,
            "counts": dict(tracer.counts),
        }
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
