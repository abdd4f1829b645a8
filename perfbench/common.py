"""Helpers shared by the three workloads: statistics, memory, cold caches,
the small seeded AutoModels the online workloads serve, and the result line.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

# The 25-algorithm catalogue the knowledge build measures (the same one the
# paper-table benchmarks use).
BENCH_CATALOGUE = [
    "J48", "SimpleCart", "REPTree", "RandomTree", "DecisionStump",
    "RandomForest", "Bagging", "AdaBoostM1", "RandomSubSpace", "NaiveBayes",
    "BayesNet", "IBk", "IB1", "KStar", "LWL", "Logistic", "SimpleLogistic",
    "LDA", "RBFNetwork", "OneR", "ZeroR", "JRip", "HyperPipes", "VFI",
    "ClassificationViaRegression",
]

# Cheap catalogues behind the small models the online workloads fit during
# set-up: their knowledge build must stay a small part of set-up time.
SMALL_CLASSIFIERS = [
    "DecisionStump", "NaiveBayes", "IBk", "LDA", "Logistic",
    "OneR", "ZeroR", "HyperPipes", "VFI",
]
SMALL_REGRESSORS = [
    "Ridge", "Lasso", "KNeighborsRegressor", "RegressionTree", "DummyRegressor",
]


# Seed of the fixed dataset pools.  A workload seed draws records from these
# pools (``draw``) instead of generating new concepts: the concept behind a
# dataset sets most of its learners' cost, so fixed concepts, and draws that
# take most of each pool, keep the work per run comparable across seeds
# while the records still change.
POOL_SEED = 2020


def draw(datasets, n: int, seed: int):
    """A seeded subsample of ``n`` records from each dataset, names kept."""
    drawn = []
    for offset, dataset in enumerate(datasets):
        sample = dataset.subsample(n, random_state=seed * 1000 + offset)
        if sample is dataset:
            sample = dataset.take(list(range(dataset.n_records)))
        sample.name = dataset.name
        drawn.append(sample)
    return drawn


# Host-speed correction.  On a shared host the speed of one vCPU drifts by
# tens of percent over seconds to minutes while other tenants load the same
# cores: on the reference machine (2 vCPUs) the medians of a fixed
# pure-Python loop over 15-20 s windows spread by 0.25-0.36 (IQR / median),
# the two vCPUs drift independently (correlation 0.1), and a learner
# workload's window times follow the loop run on the same vCPU (correlation
# 0.98).  So the clock samples the vCPU's speed while each operation runs:
# a timer signal runs a short calibration chunk every 20 ms of the
# operation, and a few chunks run before and after it.  The operation's wall
# time, less the chunks run inside it, is scaled by the reference chunk time
# over the median of those samples: the result is in seconds at the
# reference speed.  Raw wall times and speed factors stay in the run record.
CHUNK_LOOPS = 4_000
CHUNK_REF_S = 0.00036  # the chunk's typical time on the reference machine
BRACKET_CHUNKS = 5
SAMPLE_INTERVAL_S = 0.02


def chunk() -> float:
    """Seconds one calibration chunk takes on this vCPU right now."""
    start = time.perf_counter()
    total = 0
    for i in range(CHUNK_LOOPS):
        total += i * i % 7
    return time.perf_counter() - start


def calibrate() -> list[float]:
    return [chunk() for _ in range(BRACKET_CHUNKS)]


class Sampler:
    """Calibration chunks run by a ``SIGALRM`` timer while the block runs.

    Use it from the main thread only: Python runs signal handlers there."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (finished at, seconds)

    def _sample(self, signum, frame) -> None:
        seconds = chunk()
        self.samples.append((time.perf_counter(), seconds))

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def between(self, start: float, end: float) -> list[float]:
        """Chunk times of the samples that finished between two instants."""
        return [seconds for at, seconds in self.samples if start <= at <= end]

    def spent(self) -> float:
        return sum(seconds for _, seconds in self.samples)


class Clock:
    """Times operations in reference-speed seconds (see ``chunk``).

    Call ``measure`` from the main thread only (see ``Sampler``).
    """

    def __init__(self) -> None:
        self.last = calibrate()
        self.raw_s: list[float] = []
        self.factors: list[float] = []
        self.inside_s: list[float] = []

    def measure(self, fn, *args, **kwargs):
        """``(result, corrected_seconds, wall_seconds)`` of one call.

        The wall time includes the chunks run inside the call; the
        corrected time leaves them out."""
        before = self.last
        with Sampler() as sampler:
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            raw = time.perf_counter() - start
        inside = [seconds for _, seconds in sampler.samples]
        self.last = calibrate()
        factor = CHUNK_REF_S / statistics.median(before + inside + self.last)
        self.raw_s.append(raw)
        self.factors.append(factor)
        self.inside_s.append(sum(inside))
        return result, (raw - sum(inside)) * factor, raw

    def record(self) -> dict:
        """Raw wall times and speed factors behind the corrected timings."""
        return {"raw_s": self.raw_s, "speed_factor": self.factors,
                "chunks_inside_s": self.inside_s}


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile (``q`` in [0, 1]) of a non-empty sample."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of an empty sample")
    if len(ordered) == 1:
        return float(ordered[0])
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return float(ordered[low] + (ordered[high] - ordered[low]) * (position - low))


def median(values) -> float:
    return float(statistics.median(values))


def digest(payload) -> str:
    """Stable short hash of a JSON-able payload."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def rss_mb(pids=()) -> float:
    """Peak resident memory of this process plus the given live children."""
    own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    total_kb = float(own_kb)
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += float(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024.0


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


class WorkDir:
    """A working directory inside the repository, removed when the run ends."""

    def __init__(self, root: Path) -> None:
        self.path = root / ".perfbench_work" / f"run-{os.getpid()}"
        shutil.rmtree(self.path, ignore_errors=True)
        self.path.mkdir(parents=True)
        self._counter = 0

    def fresh(self, prefix: str) -> Path:
        self._counter += 1
        path = self.path / f"{prefix}-{self._counter:05d}"
        path.mkdir(parents=True)
        return path

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            self.path.parent.rmdir()
        except OSError:
            pass


def cold_caches() -> None:
    """Drop the process-wide meta-feature memo and its counters."""
    from repro.metafeatures import feature_cache

    feature_cache.clear()
    feature_cache.reset_stats()


def small_dmd(min_algorithms: int = 5):
    from repro.core import DecisionMakingModelDesigner

    return DecisionMakingModelDesigner(
        min_algorithms=min_algorithms,
        feature_population=6,
        feature_generations=2,
        feature_max_evaluations=10,
        architecture_population=2,
        architecture_generations=1,
        architecture_max_evaluations=2,
        cv=3,
        random_state=0,
    )


def fit_small_model(task: str, store_dir: Path | None, registry=None):
    """Knowledge build of the small AutoModel the online workloads serve.

    Its knowledge comes from the fixed pools, not from the workload seed:
    the decision model's key features set the meta-feature work of every
    request, so a model that changed with the seed would change the work
    the online workloads measure.  Returns ``(model, build_seconds,
    agreement)``.  ``registry`` is the catalogue the model serves (defaults
    to the cheap one it was built on).
    """
    seed = POOL_SEED
    from repro.core import AutoModel
    from repro.corpus import CorpusConfig, generate_corpus
    from repro.datasets import knowledge_suite, regression_suite
    from repro.evaluation import PerformanceTable
    from repro.execution import ResultStore
    from repro.learners import default_registry
    from repro.learners.regression_registry import registry_for_task

    if task == "classification":
        datasets = knowledge_suite(
            n_datasets=8, min_records=60, max_records=80, random_state=seed
        )
        catalogue = default_registry().subset(SMALL_CLASSIFIERS)
        dmd = small_dmd()
    else:
        datasets = regression_suite(
            n_datasets=8, min_records=60, max_records=80, random_state=seed
        )
        catalogue = registry_for_task("regression").subset(SMALL_REGRESSORS)
        dmd = small_dmd(min_algorithms=3)
    start = time.perf_counter()
    table = PerformanceTable.compute(
        datasets, registry=catalogue, tune=False, cv=3, max_records=80,
        random_state=0, task=task,
    )
    corpus, _ = generate_corpus(
        datasets, registry=catalogue, config=CorpusConfig(n_papers=12, random_state=0),
        performance=table, task=task,
    )
    result = dmd.run(corpus, {d.name: d for d in datasets})
    build_s = time.perf_counter() - start
    model = AutoModel(
        dmd_result=result,
        registry=registry if registry is not None else catalogue,
        performance=table,
        corpus=corpus,
        store=ResultStore(store_dir) if store_dir is not None else None,
        task=task,
    )
    return model, build_s, result.diagnostics["training_selection_agreement"]


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def emit(correct: bool, attempted: int, failed: int, metrics: dict, record: dict) -> None:
    """Print the run record, then the result object as the last stdout line."""
    record = dict(record, metrics=metrics)
    print(json.dumps({"run_record": record}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": int(attempted),
                "failed": int(failed),
                "metrics": metrics,
            }
        )
    )
    sys.stdout.flush()
