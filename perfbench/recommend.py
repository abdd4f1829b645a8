"""``recommend_tune``: the online CASH path as a closed loop of one caller.

Each request takes a dataset, asks ``AutoModel.select_algorithms`` for the
DMD's choice (meta-features + forward pass), then tunes a *pinned*
algorithm with ``responder(...).respond`` under a fixed evaluation budget
and a fresh result store.  Pinning keeps the tuning work independent of the
decision model's quality, so a fix to the DMD cannot change what this
workload measures.  The rotation walks the tree, lazy, bayes, linear, rules,
misc and neural classifier modules and the regression catalogue; the heavy
ensembles are left to ``knowledge_build``, because one Bagging request would
take most of a run.

Why: per-trial HPO, engine and store-write overhead plus cheap learners do
the work; there is little DMD training and no HTTP.
"""

from __future__ import annotations

import time

import common
import spans

# Three rounds over the eight module groups (tree, lazy, bayes, linear,
# rules, misc, neural, regression), then three more regression requests.
ROTATION = [
    "J48", "IBk", "NaiveBayes", "LDA", "OneR", "HyperPipes", "RBFNetwork", "Ridge",
    "REPTree", "KStar", "BayesNet", "Logistic", "ZeroR", "VFI", "RBFNetwork",
    "KNeighborsRegressor",
    "SimpleCart", "LWL", "NaiveBayes", "SimpleLogistic", "OneR",
    "ClassificationViaRegression", "RBFNetwork", "Lasso",
    "SVR", "DummyRegressor", "Ridge",
]
# A pass sends the rotation three times, each time pairing the algorithms
# with other datasets: 81 distinct requests whose costs spread densely from
# a few milliseconds to about half a second.  So the p50 and p75 fall among
# many requests of similar cost; with one round they fell on one request,
# whose cost alone moves by 10-20% between seeds.
LAYOUTS = 3
# RegressionTree is left out: cross-validating its default configuration
# takes 0.2-0.4 s here, too close to the probe limit below.
REGRESSORS = {"Ridge", "Lasso", "KNeighborsRegressor", "SVR", "DummyRegressor"}
POOL_RECORDS = 140
REQUEST_RECORDS = 120
MAX_EVALUATIONS = 10
CV = 3
PROBE_LIMIT_S = 0.5  # a quarter of the UDR's 2 s GA/BO probe threshold


def make_inputs(seed: int):
    """Requests over the 21 Table XI test shapes and six regression datasets."""
    from repro.datasets import regression_suite, test_suite

    classification = test_suite(
        max_records=POOL_RECORDS, max_numeric=25, random_state=common.POOL_SEED
    )
    regression = regression_suite(
        n_datasets=6, min_records=POOL_RECORDS, max_records=POOL_RECORDS,
        random_state=common.POOL_SEED,
    )
    classification = common.draw(classification, REQUEST_RECORDS, seed)
    regression = common.draw(regression, REQUEST_RECORDS, seed)
    requests = []
    for layout in range(LAYOUTS):
        c = layout * 5  # shifts under which no pair repeats
        r = layout * 2
        for algorithm in ROTATION:
            if algorithm in REGRESSORS:
                requests.append((regression[r % len(regression)], algorithm))
                r += 1
            else:
                requests.append((classification[c % len(classification)], algorithm))
                c += 1
    return requests


def setup(ctx):
    from repro.learners import default_registry
    from repro.learners.regression_registry import registry_for_task

    requests = make_inputs(ctx.seed)
    classifier, _, _ = common.fit_small_model(
        "classification", None, registry=default_registry()
    )
    regressor, _, _ = common.fit_small_model(
        "regression", None, registry=registry_for_task("regression")
    )
    return requests, {"classification": classifier, "regression": regressor}


def request(clock, models, dataset, algorithm, store_dir):
    """One request timed on ``clock``; returns (seconds, raw seconds, solution)."""
    from repro.execution import ResultStore

    def recommend():
        model.select_algorithms([dataset])
        return model.responder(cv=CV, tuning_max_records=REQUEST_RECORDS).respond(
            dataset, time_limit=None, max_evaluations=MAX_EVALUATIONS, algorithm=algorithm
        )

    model = models[dataset.task.value]
    model.store = ResultStore(store_dir)
    solution, seconds, raw = clock.measure(recommend)
    model.store.close()
    return seconds, raw, solution


def answer(solution) -> str:
    return common.digest(
        [solution.algorithm, solution.config, repr(round(solution.cv_score, 10)),
         solution.optimizer]
    )


def one_pass(ctx, clock, models, requests, traced: bool):
    common.cold_caches()
    if traced:
        spans.enable()
    results = []
    for dataset, algorithm in requests:
        results.append(request(clock, models, dataset, algorithm, ctx.work.fresh("store")))
    spans.disable()
    return results


def run(ctx) -> dict:
    from repro.evaluation import evaluate_algorithm

    clock = common.Clock()
    setups = []
    for _ in range(3):
        (requests, models), seconds, _ = clock.measure(setup, ctx)
        setups.append(seconds)

    expected = ctx.expected("recommend_tune")
    latencies, pass_times, raw_pass_times, untraced = [], [], [], []
    evaluations = crashed = 0
    first = None
    problems = []
    attempted = failed = 0
    loop_start = time.perf_counter()
    while True:
        if ctx.trace:
            untraced.append(sum(t for t, _, _ in one_pass(ctx, clock, models, requests, False)))
        results = one_pass(ctx, clock, models, requests, ctx.trace)
        pass_times.append(sum(t for t, _, _ in results))
        raw_pass_times.append(sum(raw for _, raw, _ in results))
        answers = [answer(solution) for _, _, solution in results]
        for seconds, _, solution in results:
            latencies.append(seconds)
            evaluations += solution.n_evaluations
            crashes = solution.engine_stats.get("n_crashes", 0)
            crashed += crashes
            attempted += solution.n_evaluations
            failed += crashes
        if first is None:
            first = answers
            scores = [solution.cv_score for _, _, solution in results]
            if ctx.record:
                ctx.save_reference("recommend_tune", answers)
            elif expected is not None:
                wrong = sum(a != b for a, b in zip(answers, expected))
                wrong += abs(len(answers) - len(expected))
                if wrong:
                    problems.append(f"{wrong} tuned answers differ from the reference")
                    failed += wrong
        elif answers != first:
            wrong = sum(a != b for a, b in zip(answers, first))
            problems.append(f"{wrong} tuned answers differ from the first pass")
            failed += wrong
        elapsed = time.perf_counter() - loop_start
        if elapsed + common.median(raw_pass_times) * (2 if ctx.trace else 1) > ctx.seconds:
            break

    # Independent re-score of every returned configuration.  The default
    # configuration's cost is what the UDR probes; it must stay far below the
    # probe threshold so the GA/BO choice cannot flip between runs.
    probes = []
    for (dataset, algorithm), (_, _, solution) in zip(requests, results):
        attempted += 1
        model = models[dataset.task.value]
        protocol = dict(cv=CV, max_records=REQUEST_RECORDS, random_state=0,
                        task=dataset.task.value)
        rescored = evaluate_algorithm(
            model.registry, algorithm, dataset, config=solution.config, **protocol
        )
        _, seconds, _ = clock.measure(
            evaluate_algorithm, model.registry, algorithm, dataset, **protocol
        )
        probes.append(seconds)
        if abs(rescored - solution.cv_score) > 1e-9:
            failed += 1
            problems.append(
                f"{algorithm} on {dataset.name}: returned cv_score {solution.cv_score!r}"
                f" but the config re-scores {rescored!r}"
            )
        if solution.optimizer != "genetic-algorithm" or probes[-1] > PROBE_LIMIT_S:
            failed += 1
            problems.append(
                f"{algorithm} on {dataset.name}: {solution.optimizer},"
                f" default config takes {probes[-1]:.3f} s"
            )

    total_time = sum(pass_times)
    record = {
        "counts": {"passes": len(pass_times), "requests": len(latencies),
                   "requests_per_pass": len(requests), "evaluations": evaluations,
                   "crashed_trials": crashed, "max_probe_s": max(probes)},
        "samples": {"latency_p50_ms": len(latencies), "latency_p75_ms": len(latencies),
                    "throughput_per_s": len(pass_times),
                    "setup_s": len(setups)},
        "clock": clock.record(),
        "problems": problems,
    }
    metrics = {
        "setup_s": common.metric(common.median(setups), "s"),
        "peak_rss_mb": common.metric(common.rss_mb(), "MB"),
        "latency_p50_ms": common.metric(common.quantile(latencies, 0.50) * 1000.0, "ms"),
        "latency_p75_ms": common.metric(common.quantile(latencies, 0.75) * 1000.0, "ms"),
        "throughput_per_s": common.metric(evaluations / total_time, "1/s"),
        "score_mean": common.metric(sum(scores) / len(scores), "score"),
    }
    if ctx.trace:
        record["samples"]["untraced_pass_s"] = len(untraced)
        metrics = {
            "wall_s": sum(raw_pass_times),
            "overhead_frac": common.median(pass_times) / common.median(untraced) - 1.0,
        }
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics, "record": record}
