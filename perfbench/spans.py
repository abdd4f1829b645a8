"""In-memory span recorder for the traced benchmark run.

The benchmark never adds spans inside ``src/``.  Instead, ``enable()`` wraps
the public entry points of each layer with timing spans from this file, and
the recorder aggregates them per layer label: call count, inclusive time and
self time (a span's duration minus the part covered by its child spans).
``disable()`` restores the original entry points, so untraced repetitions
run the program unwrapped.  Nothing is written while the benchmark runs;
``summary()`` is read once at the end.

Two rules keep the layer numbers meaningful:

* A span whose label equals the label of the span directly enclosing it
  (``predict`` calling ``predict_proba`` on the same learner family,
  ``transform_many`` calling ``transform``) opens no new span, so call counts
  count outermost calls only.
* A span may *absorb* the layers beneath it.  The DMD phase spans absorb
  everything (the decision model's own MLP training, GA and engine trials are
  DMD work, not CASH work), and the decision-model forward pass absorbs the
  learner layer (its MLP predict is the forward pass) but still lets
  meta-feature extraction show as its own layer.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict

LEARNER_MODULES = (
    "tree", "forest", "ensemble", "lazy", "bayes",
    "linear", "neural", "rules", "misc", "regression",
)


class Recorder:
    """Thread-aware span stacks with per-label aggregates."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self.active = False

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def blocked(self, label: str) -> bool:
        """True when ``label`` must not open a span in the current context."""
        if not self.active:
            return True
        stack = self._stack()
        if not stack:
            return False
        top_label, _, _, absorb = stack[-1]
        if top_label == label:
            return True
        return any(label.startswith(prefix) for prefix in absorb)

    def call(self, label: str, fn, args, kwargs, absorb: tuple = ()):
        """Run ``fn`` under a span; the caller has checked :meth:`blocked`."""
        stack = self._stack()
        entry = [label, time.perf_counter(), 0.0, absorb]
        stack.append(entry)
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - entry[1]
            with self._lock:
                self.calls[label] += 1
                self.total_s[label] += duration
                self.self_s[label] += duration - entry[2]
            if stack:
                stack[-1][2] += duration

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counters[name] += value

    def reset(self) -> None:
        with self._lock:
            self.calls.clear()
            self.self_s.clear()
            self.total_s.clear()
            self.counters.clear()


RECORDER = Recorder()


def _wrap(label, fn, absorb=(), after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if RECORDER.blocked(label):
            return fn(*args, **kwargs)
        result = RECORDER.call(label, fn, args, kwargs, absorb)
        if after is not None:
            after(result)
        return result

    return wrapper


def _learner_wrap(op: str, fn):
    """Label chosen per call from the estimator's own module (its family)."""

    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        if not RECORDER.active:
            return fn(self, *args, **kwargs)
        module = type(self).__module__.rpartition(".")[2]
        if module not in LEARNER_MODULES:
            return fn(self, *args, **kwargs)
        label = f"learners.{module}.{op}"
        if RECORDER.blocked(label):
            return fn(self, *args, **kwargs)
        return RECORDER.call(label, fn, (self, *args), kwargs)

    return wrapper


# ``(owner, name, original attribute)`` of every wrapped entry point, in the
# order they were wrapped; empty while the wrappers are not installed.
_ORIGINALS: list = []


def _patch(owner, name, make):
    original = owner.__dict__[name]
    _ORIGINALS.append((owner, name, original))
    if isinstance(original, classmethod):
        setattr(owner, name, classmethod(make(original.__func__)))
    else:
        setattr(owner, name, make(original))


def _engine_outcomes(result) -> None:
    outcomes = result if isinstance(result, list) else [result]
    for outcome in outcomes:
        if outcome is None:
            continue
        RECORDER.count("engine.trials")
        if outcome.cached:
            RECORDER.count("engine.cached")
        if outcome.error is not None:
            RECORDER.count("engine.crashed")


def _table_cells(table) -> None:
    RECORDER.count("table.cells", table.scores.size)
    RECORDER.count("table.fallback", int((table.scores == 0.0).sum()))


def _feature_cache_wrap(fn):
    """Counts the memo's hits and misses while the recorder is active."""

    @functools.wraps(fn)
    def wrapper(cache, *args, **kwargs):
        if not RECORDER.active:
            return fn(cache, *args, **kwargs)
        hits, misses = cache.stats.hits, cache.stats.misses
        result = fn(cache, *args, **kwargs)
        RECORDER.count("features.hits", cache.stats.hits - hits)
        RECORDER.count("features.misses", cache.stats.misses - misses)
        return result

    return wrapper


def _install() -> None:
    """Wrap every layer's public entry points (a no-op while installed)."""
    import inspect

    from repro import learners
    from repro.core import (
        ArchitectureSearch,
        DecisionMakingModelDesigner,
        DecisionModel,
        UserDemandResponser,
    )
    from repro.evaluation import PerformanceTable
    from repro.execution import EvaluationEngine, ResultStore
    from repro.hpo import BaseOptimizer, HPOTechniqueSelector
    from repro.learners.base import BaseClassifier
    from repro.learners.regression import BaseRegressor
    from repro.metafeatures import FeatureCache, FeatureExtractor
    from repro.service import ModelRegistry
    from repro.service import http as service_http

    if _ORIGINALS:
        return

    # Learners: every estimator class of the catalogue modules (and the two
    # base classes whose fit/predict most of them inherit).
    seen: set[type] = set()
    for module_name in LEARNER_MODULES:
        module = getattr(learners, module_name)
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if cls in seen or not issubclass(cls, (BaseClassifier, BaseRegressor)):
                continue
            seen.add(cls)
    for cls in seen | {BaseClassifier, BaseRegressor}:
        for name, op in (("fit", "fit"), ("predict", "predict"), ("predict_proba", "predict")):
            if name in cls.__dict__:
                _patch(cls, name, functools.partial(_learner_wrap, op))

    def wrap(owner, name, label, absorb=(), after=None):
        _patch(owner, name, lambda fn: _wrap(label, fn, absorb, after))

    everything = ("",)
    wrap(PerformanceTable, "compute", "evaluation.table", after=_table_cells)
    wrap(DecisionMakingModelDesigner, "acquire_knowledge", "core.knowledge", everything)
    wrap(DecisionMakingModelDesigner, "select_features", "core.feature_selection", everything)
    wrap(ArchitectureSearch, "search", "core.architecture_search", everything)
    wrap(ArchitectureSearch, "train_decision_model", "core.final_train", everything)
    wrap(DecisionModel, "scores_matrix", "core.forward", ("learners.",))
    for name in ("fit", "raw_vector", "raw_matrix", "transform", "transform_many"):
        wrap(FeatureExtractor, name, "metafeatures.extract")
    _patch(FeatureCache, "vector", _feature_cache_wrap)
    wrap(UserDemandResponser, "respond", "core.respond")
    wrap(BaseOptimizer, "optimize", "hpo.optimize")
    wrap(HPOTechniqueSelector, "probe_evaluation_time", "hpo.probe")
    wrap(EvaluationEngine, "evaluate", "execution.engine", after=_engine_outcomes)
    wrap(EvaluationEngine, "evaluate_many", "execution.engine", after=_engine_outcomes)
    for name in ("put", "put_key"):
        wrap(ResultStore, name, "execution.store.put")
    for name in ("get", "get_key", "top_k", "image", "items"):
        wrap(ResultStore, name, "execution.store.read")
    wrap(ModelRegistry, "resolve", "service.registry.resolve")
    wrap(service_http, "dataset_from_json", "service.http.decode")


def _uninstall() -> None:
    """Restore every entry point :func:`_install` wrapped."""
    while _ORIGINALS:
        owner, name, original = _ORIGINALS.pop()
        setattr(owner, name, original)


def enable() -> None:
    """Install the wrappers and start recording spans."""
    _install()
    RECORDER.active = True


def disable() -> None:
    """Stop recording and run the program unwrapped again."""
    RECORDER.active = False
    _uninstall()


def span(label: str, fn, *args, **kwargs):
    """Run ``fn`` under a span (for entry points the benchmark calls itself)."""
    if RECORDER.blocked(label):
        return fn(*args, **kwargs)
    return RECORDER.call(label, fn, args, kwargs)


def summary() -> dict:
    """Per-label ``{calls, self_s, total_s}`` plus the raw counters."""
    with RECORDER._lock:
        labels = set(RECORDER.calls)
        return {
            "spans": {
                label: {
                    "calls": RECORDER.calls[label],
                    "self_s": RECORDER.self_s[label],
                    "total_s": RECORDER.total_s[label],
                }
                for label in sorted(labels)
            },
            "counters": dict(RECORDER.counters),
        }
