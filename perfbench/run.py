"""Auto-Model benchmark: knowledge build, tuned recommend, served /recommend.

Run from the repository root::

    python3 perfbench/run.py --workload knowledge_build --seed 0 --seconds 25 --trace 0

``--workload`` is one of ``knowledge_build``, ``recommend_tune`` and
``serve_recommend``, or ``all`` (the default) to run the three in turn.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps each
layer's public entry points with in-memory timing spans and prints the
per-layer metrics instead.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it is
the run record (environment, seed, counts and the sample count behind each
percentile).  The exit code is 0 when every output check passed, 1 when one
failed and 2 when the benchmark could not run or a single workload's
metrics differ from the names and units ``BENCHMARK.json`` lists.

``--record`` stores the outputs of the given seed in ``reference.json``;
later runs of that seed compare their outputs against it.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
WORKLOADS = ("knowledge_build", "recommend_tune", "serve_recommend")

# One BLAS thread: steadier timings, and the benchmark's load stays within
# one process plus the serving pool's workers.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# The program's own tracing stays off; the traced run uses spans.py only.
for _var in ("REPRO_OBS_DIR", "REPRO_OBS_ENABLED", "REPRO_OBS_PROFILE", "REPRO_TRACE"):
    os.environ.pop(_var, None)


class Context:
    def __init__(self, args, work) -> None:
        self.seed = args.seed
        self.seconds = float(args.seconds)
        self.trace = bool(args.trace)
        self.record = args.record
        self.work = work

    @staticmethod
    def _load() -> dict:
        return json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}

    def expected(self, workload: str):
        """This seed's recorded outputs, or None when the seed has none."""
        return self._load().get(workload, {}).get(str(self.seed))

    def save_reference(self, workload: str, value) -> None:
        payload = self._load()
        payload.setdefault(workload, {})[str(self.seed)] = value
        REFERENCE.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


def per_layer(summary: dict, extras: dict) -> dict:
    """Every per-layer metric, from the span aggregates and workload extras."""
    import common
    import spans

    s, counters = summary["spans"], summary["counters"]

    def self_s(label):
        return s.get(label, {}).get("self_s", 0.0)

    def calls(label):
        return s.get(label, {}).get("calls", 0)

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for module in spans.LEARNER_MODULES:
        m[f"learners.{module}.fit_s"] = (self_s(f"learners.{module}.fit"), "s")
        m[f"learners.{module}.fit_calls"] = (calls(f"learners.{module}.fit"), "count")
        m[f"learners.{module}.predict_s"] = (self_s(f"learners.{module}.predict"), "s")
    cells = counters.get("table.cells", 0)
    m["evaluation.table_s"] = (self_s("evaluation.table"), "s")
    m["evaluation.table_cells"] = (cells, "count")
    m["evaluation.cell_fail_frac"] = (ratio(counters.get("table.fallback", 0), cells), "frac")
    m["corpus.generate_s"] = (self_s("corpus.generate"), "s")
    for phase in ("knowledge", "feature_selection", "architecture_search", "final_train"):
        m[f"core.{phase}_s"] = (self_s(f"core.{phase}"), "s")
    m["core.forward_s"] = (self_s("core.forward"), "s")
    m["core.forward_calls"] = (calls("core.forward"), "count")
    m["core.respond_s"] = (self_s("core.respond"), "s")
    m["core.build_agreement"] = (extras.get("core.build_agreement", 0.0), "frac")
    hits, misses = counters.get("features.hits", 0), counters.get("features.misses", 0)
    m["metafeatures.extract_s"] = (self_s("metafeatures.extract"), "s")
    m["metafeatures.extract_calls"] = (calls("metafeatures.extract"), "count")
    m["metafeatures.cache_hit_frac"] = (ratio(hits, hits + misses), "frac")
    m["hpo.optimize_self_s"] = (self_s("hpo.optimize"), "s")
    m["hpo.probe_s"] = (s.get("hpo.probe", {}).get("total_s", 0.0), "s")
    trials = counters.get("engine.trials", 0)
    m["execution.engine.trials"] = (trials, "count")
    m["execution.engine.cache_hit_frac"] = (ratio(counters.get("engine.cached", 0), trials), "frac")
    m["execution.engine.overhead_s"] = (self_s("execution.engine"), "s")
    m["execution.engine.crashed"] = (counters.get("engine.crashed", 0), "count")
    m["execution.store.put_calls"] = (calls("execution.store.put"), "count")
    m["execution.store.put_s"] = (self_s("execution.store.put"), "s")
    m["execution.store.read_calls"] = (calls("execution.store.read"), "count")
    m["execution.store.read_s"] = (self_s("execution.store.read"), "s")
    resolve = s.get("service.registry.resolve", {})
    m["service.registry.resolve_ms"] = (
        ratio(resolve.get("total_s", 0.0), resolve.get("calls", 0)) * 1000.0, "ms")
    for name, unit in (
        ("service.http.healthz_p50_ms", "ms"), ("service.http.server_p50_ms", "ms"),
        ("service.http.stall_ms", "ms"), ("service.http.decode_ms", "ms"),
        ("service.dispatcher.latency_ms", "ms"), ("service.dispatcher.batch_size_mean", "count"),
        ("service.dispatcher.shed", "count"), ("service.dispatcher.tuned_store_frac", "frac"),
        ("serve.generator_late_ms", "ms"),
    ):
        m[name] = (extras.get(name, 0.0), unit)
    covered = sum(entry["self_s"] for entry in s.values())
    m["trace.coverage"] = (ratio(covered, extras["wall_s"]), "frac")
    m["trace.overhead_frac"] = (extras["overhead_frac"], "frac")
    return {name: common.metric(value, unit) for name, (value, unit) in m.items()}


def manifest_mismatch(metrics: dict, trace: bool) -> list[str]:
    """Metrics whose name or unit differs from ``BENCHMARK.json``'s list."""
    manifest = ROOT / "BENCHMARK.json"
    if not manifest.is_file():
        return []
    wanted = json.loads(manifest.read_text())["per_layer" if trace else "end_to_end"]
    units = {entry["name"]: entry["unit"] for entry in wanted}
    names = set(units) | set(metrics)
    return sorted(
        name for name in names
        if name not in metrics or metrics[name]["unit"] != units.get(name)
    )


def run_workload(name: str, args, work) -> dict:
    import common
    import spans

    module = __import__({"knowledge_build": "knowledge", "recommend_tune": "recommend",
                         "serve_recommend": "serve"}[name])
    ctx = Context(args, work)
    if ctx.trace:
        spans.RECORDER.reset()
    try:
        result = module.run(ctx)
    finally:
        spans.disable()
    record = {
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": int(ctx.trace),
        "environment": common.environment(),
        **result["record"],
    }
    metrics = result["metrics"]
    if ctx.trace:
        summary = spans.summary()
        record["spans"] = summary
        metrics = per_layer(summary, metrics)
    return {**result, "metrics": metrics, "record": record}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this seed's outputs as the reference")
    args = parser.parse_args(argv)

    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {source}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))

    import common

    work = common.WorkDir(ROOT)
    tempfile.tempdir = str(work.path)
    try:
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = []
        for name in names:
            started = time.perf_counter()
            result = run_workload(name, args, work)
            result["record"]["run_s"] = time.perf_counter() - started
            results.append(result)
        if len(results) == 1:
            result = results[0]
            record, metrics = result["record"], result["metrics"]
            mismatch = manifest_mismatch(metrics, bool(args.trace))
            if mismatch:
                print(f"perfbench: metrics differ from BENCHMARK.json: {mismatch}",
                      file=sys.stderr)
                return 2
        else:
            record = {r["record"]["workload"]: r["record"] for r in results}
            metrics = {
                f"{r['record']['workload']}.{key}": value
                for r in results for key, value in r["metrics"].items()
            }
        correct = all(r["correct"] for r in results)
        for r in results:
            for problem in r["record"].get("problems", []):
                print(f"perfbench: {r['record']['workload']}: {problem}", file=sys.stderr)
        common.emit(
            correct,
            sum(r["attempted"] for r in results),
            sum(r["failed"] for r in results),
            metrics,
            record,
        )
        return 0 if correct else 1
    finally:
        work.close()


if __name__ == "__main__":
    # A terminated run still stops its server pool and removes its work dir.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        sys.exit(main())
    except Exception:  # noqa: BLE001 — report, print no result, fail the run
        traceback.print_exc()
        sys.exit(2)
