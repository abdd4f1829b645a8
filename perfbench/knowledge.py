"""``knowledge_build``: the offline path, performance table → corpus → DMD.

Why: learners do most of the work here (forest, ensemble and rule learners
above all) and DMD training does most of the rest; serving, HPO and store
reads do almost nothing.  Each build starts from cold caches and a fresh
result store, because every real knowledge build pays those costs.
"""

from __future__ import annotations

import time

import common
import spans

# Table XI shapes (indices into ``test_suite``) of the knowledge datasets:
# D4–D8 and D12, numeric, mixed and categorical-rule problems with 2–3
# classes.  The seed draws their records (see ``common.draw``).
KNOWLEDGE_SHAPES = (3, 4, 5, 6, 7, 11)
POOL_RECORDS = 44
KNOWLEDGE_RECORDS = 40
N_PAPERS = 20
# Cells re-scored independently of the engine after every run (cheap ones).
SPOT_CHECK = (("NaiveBayes", 0), ("OneR", 3), ("LDA", 5))


def make_inputs(seed: int):
    from repro.datasets import test_suite

    suite = test_suite(
        max_records=POOL_RECORDS, max_numeric=25, random_state=common.POOL_SEED,
        name_prefix="K_",
    )
    return common.draw([suite[i] for i in KNOWLEDGE_SHAPES], KNOWLEDGE_RECORDS, seed)


def make_designer():
    from repro.core import DecisionMakingModelDesigner

    return DecisionMakingModelDesigner(
        feature_population=8,
        feature_generations=3,
        feature_max_evaluations=24,
        architecture_population=2,
        architecture_generations=1,
        architecture_max_evaluations=2,
        cv=3,
        random_state=0,
    )


def build(clock, datasets, registry, store_dir):
    """One knowledge build, each phase timed on ``clock``.

    Returns (seconds, raw wall seconds, phases, table, corpus, dmd_result).
    """
    from repro.corpus import CorpusConfig, generate_corpus
    from repro.evaluation import PerformanceTable
    from repro.execution import ResultStore

    common.cold_caches()
    store = ResultStore(store_dir)
    designer = make_designer()
    table, table_s, table_raw = clock.measure(
        PerformanceTable.compute,
        datasets, registry=registry, tune=False, cv=3,
        max_records=KNOWLEDGE_RECORDS, random_state=0, n_workers=1, store=store,
    )
    (corpus, _), corpus_s, corpus_raw = clock.measure(
        spans.span, "corpus.generate", generate_corpus, datasets, registry=registry,
        config=CorpusConfig(n_papers=N_PAPERS, random_state=0), performance=table,
    )
    result, dmd_s, dmd_raw = clock.measure(
        designer.run, corpus, {d.name: d for d in datasets}
    )
    store.close()
    phases = {"table_s": table_s, "corpus_s": corpus_s, "dmd_s": dmd_s}
    return (table_s + corpus_s + dmd_s, table_raw + corpus_raw + dmd_raw, phases,
            table, corpus, result)


def outputs(table, corpus, result) -> dict:
    from repro.corpus import corpus_to_dict

    return {
        "table": common.digest([[repr(float(s)) for s in row] for row in table.scores]),
        "corpus": common.digest(corpus_to_dict(corpus)),
        "dmd": common.digest(
            [result.key_features, result.diagnostics["training_selection_agreement"]]
        ),
    }


def spot_check(datasets, registry, table) -> int:
    """Re-score a few cells outside the engine; returns the mismatch count."""
    import numpy as np
    from repro.evaluation import evaluate_algorithm

    rng = np.random.default_rng(0)
    seeds = {
        (d.name, a): int(rng.integers(0, 2**31 - 1))
        for d in datasets for a in registry.names
    }
    mismatches = 0
    for algorithm, index in SPOT_CHECK:
        dataset = datasets[index]
        expected = evaluate_algorithm(
            registry, algorithm, dataset, cv=3, max_records=KNOWLEDGE_RECORDS,
            random_state=seeds[(dataset.name, algorithm)],
        )
        if table.score(algorithm, dataset.name) != expected:
            mismatches += 1
    return mismatches


def run(ctx) -> dict:
    from repro.learners import default_registry

    # Set-up takes about ten milliseconds here, so it is repeated far more
    # often than in the online workloads to keep its median steady.
    def make_setup():
        datasets = make_inputs(ctx.seed)
        return datasets, default_registry().subset(common.BENCH_CATALOGUE)

    clock = common.Clock()
    setups = []
    for _ in range(25):
        (datasets, registry), seconds, _ = clock.measure(make_setup)
        setups.append(seconds)

    expected = ctx.expected("knowledge_build")
    cells_per_build = len(datasets) * len(registry)
    times, raw_times, phases, agreements, problems = [], [], [], [], []
    attempted = failed = fallback_cells = 0
    first = None
    untraced = []
    loop_start = time.perf_counter()
    while True:
        if ctx.trace:
            # Alternate untraced and traced builds: the pair's difference is
            # the tracing overhead, and only traced builds feed the layers.
            seconds, *_ = build(clock, datasets, registry, ctx.work.fresh("store"))
            untraced.append(seconds)
            spans.enable()
        seconds, raw, phase_s, table, corpus, result = build(
            clock, datasets, registry, ctx.work.fresh("store")
        )
        phases.append(phase_s)
        spans.disable()
        times.append(seconds)
        raw_times.append(raw)
        agreements.append(result.diagnostics["training_selection_agreement"])
        attempted += cells_per_build + 1  # the cells and the corpus
        # A cell whose algorithm crashed falls back to the worst score.
        fallback_cells += int((table.scores == 0.0).sum())
        got = outputs(table, corpus, result)
        if first is None:
            first = got
            if ctx.record:
                ctx.save_reference("knowledge_build", got)
            elif expected is not None:
                for key in ("table", "corpus"):
                    if got[key] != expected[key]:
                        problems.append(f"{key} digest {got[key]} != reference {expected[key]}")
                        failed += cells_per_build if key == "table" else 1
        elif got != first:
            problems.append(f"build {len(times)} differs from build 1: {got} vs {first}")
            failed += cells_per_build
        elapsed = time.perf_counter() - loop_start
        if elapsed + common.median(raw_times) * (2 if ctx.trace else 1) > ctx.seconds:
            break

    failed += fallback_cells
    if fallback_cells:
        problems.append(f"{fallback_cells} table cells fell back to the worst score")
    mismatches = spot_check(datasets, registry, table)
    attempted += len(SPOT_CHECK)
    if mismatches:
        failed += mismatches
        problems.append(f"{mismatches} spot-checked cells differ from evaluate_algorithm")

    record = {
        "counts": {"builds": len(times), "cells_per_build": cells_per_build,
                   "datasets": len(datasets), "algorithms": len(registry),
                   "fallback_cells": fallback_cells},
        "samples": {"latency_p50_ms": len(times), "latency_p75_ms": len(times),
                    "throughput_per_s": len(times),
                    "setup_s": len(setups)},
        "outputs": first,
        "build_phases_s": phases,
        "clock": clock.record(),
        "build_agreement": agreements,
        "problems": problems,
    }
    metrics = {
        "setup_s": common.metric(common.median(setups), "s"),
        "peak_rss_mb": common.metric(common.rss_mb(), "MB"),
        "latency_p50_ms": common.metric(common.median(times) * 1000.0, "ms"),
        "latency_p75_ms": common.metric(common.quantile(times, 0.75) * 1000.0, "ms"),
        "throughput_per_s": common.metric(cells_per_build * len(times) / sum(times), "1/s"),
        "score_mean": common.metric(float(table.scores.mean()), "score"),
    }
    if ctx.trace:
        record["samples"]["untraced_build_s"] = len(untraced)
        metrics = {
            "wall_s": sum(raw_times),
            "overhead_frac": common.median(times) / common.median(untraced) - 1.0,
            "core.build_agreement": common.median(agreements),
        }
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics, "record": record}
