"""``serve_recommend``: an open loop of ``POST /recommend`` against a pool.

Set-up fits a small seeded AutoModel, tunes a few request datasets under the
dispatcher's protocol so their answers come from the store (``tuned-store``),
publishes the model, starts a ``ServicePool`` and warms it on a dataset
outside the measured mix.

Load: requests are due on a fixed-rate schedule and sent over one keep-alive
connection per CPU (two at most); each request's latency runs from its due
time, so a stall also delays the requests queued behind it.  Bodies range
from about 100 to 1000 rows.  Most datasets repeat (meta-feature cache hits)
and a share is fresh (misses).  The run measures a base rate, then a ladder
of higher rates; the highest rate whose p95 meets the latency limit is
interpolated between the last rung that meets it and the first that does
not.  After the schedule, a short closed loop (each connection sends as soon
as its previous answer arrives) measures the capacity the rates are set
against, for the run record.

Why: HTTP, the dispatcher, meta-feature extraction, the DMD forward pass and
store reads do all the work here; learners do none.
"""

from __future__ import annotations

import http.client
import json
import os
import threading
import time

import common
import spans

MODEL = "bench"
# The tuning protocol whose stored results the dispatcher serves: its
# defaults, which the pool workers and the in-process server both use.
DISPATCH = {"cv": 5, "tuning_max_records": 400, "random_state": 0}
TUNE_EVALUATIONS = 6
REQUEST_RECORDS = 1000
DRAWN_SHARE = 0.9  # the seed draws 90% of each pool dataset's records
N_REPEATED = 14  # Table XI shapes whose datasets recur in the mix
# The request mix.  The repository holds no record of real traffic, so the
# three shares below are assumptions, fixed so that runs stay comparable;
# each is chosen for the code path it keeps in the measured mix:
# * one request in five carries a never-seen dataset, so the meta-feature
#   memo answers about four recommend requests in five, and the fresh
#   bodies' full extraction sets the latency tail;
# * one request in ten is ``GET /healthz``, a load balancer's probe, the
#   small share the benchmark's issue asks for;
# * 4 of the 14 repeated datasets are tuned during set-up, so about one
#   recommend request in five reads its configuration from the store.
FRESH_EVERY = 5
HEALTHZ_EVERY = 10
N_TUNED = 4
# The rates, against one worker's measured capacity on this mix: on the
# reference machine (2 vCPUs) the closed loop after the schedule sustains
# about 33-36 requests/s over two connections at a 52-59 ms p50, a
# per-connection round trip that the server's CPU time (about 11 ms p50 when
# unloaded) does not explain.  The base rate, 20/s, is about 0.55-0.6 of that
# capacity, so it measures unloaded latency; the ladder spans about 0.8 to
# 1.9 of it, so the knee falls inside the ladder.  The run record gives each
# run's own capacity.
BASE_RATE = 20.0  # requests per second, for 60% of the run
LADDER = (28.0, 36.0, 44.0, 52.0, 64.0)
LATENCY_LIMIT_MS = 250.0
CAPACITY_REQUESTS = 72  # about two seconds of the closed loop
# One pool worker: the load generator keeps the other CPU of the reference
# machine, and each worker's meta-feature memo sees every repeated dataset,
# so the hit pattern does not depend on how the kernel spreads connections.
WORKERS = 1


def connections() -> int:
    return max(1, min(2, os.cpu_count() or 1))


def encode(dataset) -> bytes:
    """The ``/recommend`` wire body for one dataset."""
    payload = {
        "name": dataset.name,
        "task": dataset.task.value,
        "target": dataset.target.tolist(),
    }
    if dataset.n_numeric:
        payload["numeric"] = dataset.numeric.tolist()
    if dataset.n_categorical:
        payload["categorical"] = dataset.categorical.tolist()
    return json.dumps({"dataset": payload, "model": MODEL}).encode("utf-8")


class Inputs:
    """Seeded request bodies: a repeated set, fresh variants, a warm-up body."""

    def __init__(self, seed: int, n_fresh: int) -> None:
        import numpy as np
        from repro.datasets import test_suite

        pool = test_suite(
            max_records=REQUEST_RECORDS, max_numeric=25, random_state=common.POOL_SEED
        )
        suite = []
        for offset, dataset in enumerate(pool):
            sample = dataset.subsample(
                int(dataset.n_records * DRAWN_SHARE), random_state=seed * 1000 + offset
            )
            sample.name = dataset.name
            suite.append(sample)
        self.repeated = suite[:N_REPEATED]
        rng = np.random.default_rng(seed)
        self.fresh = []
        for i in range(n_fresh):
            base = suite[i % len(suite)]
            order = rng.permutation(base.n_records)
            self.fresh.append(base.take(order, name=f"{base.name}-f{i:04d}"))
        warm = test_suite(max_records=200, max_numeric=25, random_state=seed + 1)[0]
        warm.name = "warmup"
        self.warmup = encode(warm)
        self.bodies = {d.name: encode(d) for d in self.repeated + self.fresh}
        self.datasets = {d.name: d for d in self.repeated + self.fresh}
        self.tuned = [d.name for d in self.repeated[:N_TUNED]]


def schedule(seconds: float, trace: bool):
    """Phases as ``(label, rate, duration)``; traced runs stay at base rate."""
    if trace:
        return [("untraced", BASE_RATE, seconds / 2), ("traced", BASE_RATE, seconds / 2)]
    base = seconds * 0.6
    rung = (seconds - base) / len(LADDER)
    return [("base", BASE_RATE, base)] + [(f"rung-{r:g}", r, rung) for r in LADDER]


def plan(phases, inputs_names):
    """Requests as ``(due, phase, kind, name)`` with due times from t = 0."""
    repeated, fresh = inputs_names
    items, t, n, fresh_used = [], 0.0, 0, 0
    for label, rate, duration in phases:
        count = int(round(rate * duration))
        for k in range(count):
            due = t + k / rate
            if n % HEALTHZ_EVERY == HEALTHZ_EVERY - 1:
                items.append((due, label, "healthz", None))
            elif n % FRESH_EVERY == 0:
                items.append((due, label, "recommend", fresh[fresh_used % len(fresh)]))
                fresh_used += 1
            else:
                items.append((due, label, "recommend", repeated[n % len(repeated)]))
            n += 1
        t += duration
    return items


def count_fresh(phases) -> int:
    total = sum(int(round(rate * duration)) for _, rate, duration in phases)
    return total // FRESH_EVERY + 1


class Client:
    """Open-loop sender over a few keep-alive connections."""

    START_DELAY_S = 0.05  # due times count from this long after ``run`` starts

    def __init__(self, host: str, port: int, bodies: dict) -> None:
        self.host, self.port, self.bodies = host, port, bodies

    def connect(self):
        return http.client.HTTPConnection(self.host, self.port, timeout=30)

    def send(self, conn, kind: str, name: str | None):
        """Returns (status, payload or None, new connection if reset)."""
        try:
            if kind == "healthz":
                conn.request("GET", "/healthz")
            else:
                conn.request(
                    "POST", "/recommend", body=self.bodies[name],
                    headers={"Content-Type": "application/json"},
                )
            response = conn.getresponse()
            raw = response.read()
            return response.status, json.loads(raw) if raw else None, conn
        except (OSError, http.client.HTTPException, ValueError):
            conn.close()
            return None, None, self.connect()

    def get(self, path: str) -> dict:
        conn = self.connect()
        try:
            conn.request("GET", path)
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def run(self, items, n_connections: int) -> list[dict]:
        """Send every item at (or after) its due time; returns one record each."""
        results: list[dict | None] = [None] * len(items)
        lock = threading.Lock()
        cursor = [0]
        start = time.perf_counter() + self.START_DELAY_S

        def worker() -> None:
            conn = self.connect()
            try:
                while True:
                    with lock:
                        index = cursor[0]
                        cursor[0] += 1
                    if index >= len(items):
                        return
                    due_offset, phase, kind, name = items[index]
                    free = time.perf_counter()
                    due = start + due_offset
                    if due > free:
                        time.sleep(due - free)
                    sent = time.perf_counter()
                    status, payload, conn = self.send(conn, kind, name)
                    done = time.perf_counter()
                    results[index] = {
                        "phase": phase, "kind": kind, "name": name, "status": status,
                        "payload": payload, "latency_ms": (done - due) * 1000.0,
                        "late_ms": (sent - max(due, free)) * 1000.0,
                        "service_ms": (done - sent) * 1000.0,
                    }
            finally:
                conn.close()

        threads = [threading.Thread(target=worker, daemon=True) for _ in range(n_connections)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return results


def publish_model(ctx, inputs):
    """Fit, tune the tuned-store datasets, publish; returns (root, tuned solutions)."""
    from repro.service import ModelRegistry

    store_dir = ctx.work.fresh("store")
    model, _, _ = common.fit_small_model("classification", store_dir)
    responder = model.responder(**DISPATCH)
    tuned = {}
    for name in inputs.tuned:
        dataset = inputs.datasets[name]
        solution = responder.respond(
            dataset, time_limit=None, max_evaluations=TUNE_EVALUATIONS,
            fit_final_estimator=False,
        )
        tuned[name] = solution
    model.store.close()
    root = ctx.work.fresh("registry")
    ModelRegistry(root).publish(model, MODEL)
    return root, tuned


def start_server(ctx, root, pooled: bool):
    """A ServicePool (measured runs) or the in-process server (traced runs)."""
    from repro.service import RecommendationService, ServicePool, make_http_server

    common.cold_caches()  # forked workers must not inherit set-up meta-features
    if pooled:
        pool = ServicePool(
            root, n_workers=WORKERS, metrics_dir=ctx.work.fresh("metrics")
        ).start()
        return pool, pool.host, pool.port, pool.stop
    service = RecommendationService(root)
    server = make_http_server(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()

    def stop():
        server.shutdown()
        server.server_close()
        service.close()
        thread.join(timeout=10)

    return server, *server.server_address[:2], stop


def set_affinity(pids, cpus) -> None:
    """Set the CPU affinity of every thread of the given processes and of
    this thread; threads started later inherit their starter's affinity."""
    for pid in pids:
        try:
            threads = os.listdir(f"/proc/{pid}/task")
        except OSError:
            continue
        for tid in threads:
            try:
                os.sched_setaffinity(int(tid), cpus)
            except OSError:
                pass
    try:
        os.sched_setaffinity(0, cpus)
    except OSError:
        pass


def warm(host, port, inputs, n_connections) -> None:
    """Load the model in every worker: warm-up requests on fresh connections."""
    client = Client(host, port, {"warmup": inputs.warmup})
    for _ in range(4 * n_connections):
        conn = client.connect()
        client.send(conn, "recommend", "warmup")
        conn.close()


def setup(ctx, inputs, pooled: bool):
    root, tuned = publish_model(ctx, inputs)
    server, host, port, stop = start_server(ctx, root, pooled)
    try:
        warm(host, port, inputs, connections())
    except BaseException:
        stop()
        raise
    return root, tuned, server, host, port, stop


def check(root, inputs, tuned, results, problems) -> None:
    """Served rankings vs in-process ``rank_many``; tuned answers vs the store.

    Marks every answered ``/recommend`` result with ``wrong``."""
    from repro.service import ModelRegistry, dataset_from_json

    served: dict[str, list] = {}
    for item in results:
        if item["kind"] == "recommend" and item["status"] == 200:
            served.setdefault(item["name"], []).append(item)
    servable = ModelRegistry(root).resolve(MODEL)
    names = sorted(served)
    datasets = [
        dataset_from_json(json.loads(inputs.bodies[name])["dataset"]) for name in names
    ]
    expected = dict(zip(names, servable.model.decision_model.rank_many(datasets)))
    wrong = 0
    for name in names:
        for item in served[name]:
            payload = item["payload"]
            item["wrong"] = (
                payload["ranking"] != expected[name] or payload["version"] != servable.version
            )
            if name in tuned:
                solution = tuned[name]
                item["wrong"] = item["wrong"] or (
                    payload["config_source"] != "tuned-store"
                    or payload["algorithm"] != solution.algorithm
                    or payload["tuned_score"] != solution.cv_score
                )
            wrong += item["wrong"]
    if wrong:
        problems.append(f"{wrong} served answers differ from the in-process model")
    missing = [name for name in tuned if name not in served]
    if missing:
        problems.append(f"tuned datasets never served: {missing}")


def phase_stats(results, phase):
    rec = [r for r in results if r["phase"] == phase and r["kind"] == "recommend"]
    latencies = [
        r["latency_ms"] if r["status"] == 200 else float("inf") for r in rec
    ]
    return rec, latencies


def rung_latency(results, label) -> float:
    """A phase's latency figure: its p95, or its last request's latency when
    that is higher (a backlog still growing at the end of the phase)."""
    _, latencies = phase_stats(results, label)
    return max(common.quantile(latencies, 0.95), latencies[-1])


def max_rate(results) -> float:
    """Highest rate meeting the latency limit, interpolated across the ladder."""
    points = [(BASE_RATE, rung_latency(results, "base"))]
    points += [(rate, rung_latency(results, f"rung-{rate:g}")) for rate in LADDER]
    previous_rate, previous_ms = points[0]
    if previous_ms > LATENCY_LIMIT_MS:
        return previous_rate * LATENCY_LIMIT_MS / previous_ms
    for rate, ms in points[1:]:
        if ms > LATENCY_LIMIT_MS:
            if ms == float("inf"):
                return previous_rate
            share = (LATENCY_LIMIT_MS - previous_ms) / (ms - previous_ms)
            return previous_rate + (rate - previous_rate) * share
        previous_rate, previous_ms = rate, ms
    return previous_rate


def closed_loop(client, items, n_connections) -> tuple[list[dict], dict]:
    """Resend the mix's last requests back to back on every connection.

    Returns the request records (phase ``capacity``) and the capacity:
    answered requests per second and their p50 service time."""
    probe = [(0.0, "capacity", kind, name) for _, _, kind, name in items[-CAPACITY_REQUESTS:]]
    start = time.perf_counter()
    results = client.run(probe, n_connections)
    elapsed = time.perf_counter() - start - client.START_DELAY_S
    answered = [r for r in results if r["status"] == 200]
    rps = len(answered) / elapsed
    return results, {
        "requests": len(probe),
        "connections": n_connections,
        "rps": rps,
        "service_p50_ms": common.quantile([r["service_ms"] for r in answered], 0.5),
        "rates_share": [rate / rps for rate in (BASE_RATE, *LADDER)],
    }


def decode_ms(inputs) -> float:
    """``dataset_from_json`` on the request bodies, median ms per body."""
    from repro.service import dataset_from_json

    samples = []
    for name in [d.name for d in inputs.repeated]:
        body = json.loads(inputs.bodies[name])["dataset"]
        start = time.perf_counter()
        dataset_from_json(body)
        samples.append((time.perf_counter() - start) * 1000.0)
    return common.median(samples)


def run(ctx) -> dict:
    phases = schedule(ctx.seconds, ctx.trace)
    inputs = Inputs(ctx.seed, count_fresh(phases))
    items = plan(phases, ([d.name for d in inputs.repeated], [d.name for d in inputs.fresh]))
    n_conn = connections()
    pooled = not ctx.trace

    clock = common.Clock()
    setups = []
    for attempt in range(3):
        (root, tuned, server, host, port, stop), seconds, _ = clock.measure(
            setup, ctx, inputs, pooled
        )
        setups.append(seconds)
        if attempt < 2:
            stop()
    problems = []
    affinity = os.sched_getaffinity(0)
    try:
        client = Client(host, port, inputs.bodies)
        if ctx.trace:
            untraced = client.run([i for i in items if i[1] == "untraced"], n_conn)
            spans.enable()
            traced = client.run(
                [(due - phases[0][2], *rest) for due, *rest in items if rest[0] == "traced"],
                n_conn,
            )
            spans.disable()
            results = untraced + traced
        else:
            # The base rate runs with the worker and the client on one CPU,
            # so the client's speed samples see the vCPU the worker runs on
            # (two vCPUs of a shared host drift independently); the ladder
            # and the capacity probe get every CPU back.
            set_affinity(server.worker_pids, {max(affinity)})
            base_start = time.perf_counter() + client.START_DELAY_S
            with common.Sampler() as sampler:
                results = client.run([i for i in items if i[1] == "base"], n_conn)
            set_affinity(server.worker_pids, affinity)
            base_chunks = sampler.between(base_start, base_start + phases[0][2])
            speed_factor = common.CHUNK_REF_S / common.median(base_chunks)
            results += client.run(
                [(due - phases[0][2], *rest) for due, *rest in items if rest[0] != "base"],
                n_conn,
            )
        server_metrics = client.get("/metrics")
        capacity = None
        if pooled:
            probe, capacity = closed_loop(client, items, n_conn)
            results += probe
        rss = common.rss_mb(server.worker_pids if pooled else ())
    finally:
        stop()
        set_affinity((), affinity)

    check(root, inputs, tuned, results, problems)
    base_label = "traced" if ctx.trace else "base"
    base, base_latencies = phase_stats(results, base_label)
    failed = 0
    for r in results:
        errored = r["status"] != 200
        late = r["phase"] == base_label and r["latency_ms"] > LATENCY_LIMIT_MS
        failed += errored or late or r.get("wrong", False)
    errors = sum(r["status"] != 200 for r in results)
    if errors:
        problems.append(f"{errors} requests failed or were refused")
    endpoint = next(
        (v for k, v in server_metrics["http"]["endpoints"].items() if "/recommend" in k), {}
    )
    server_p50 = endpoint.get("latency", {}).get("p50_ms") or 0.0
    base_ok = [r for r in base if r["status"] == 200]
    healthz = [
        r["latency_ms"] for r in results
        if r["kind"] == "healthz" and r["phase"] == base_label and r["status"] == 200
    ]
    record = {
        "counts": {
            "requests": len(results),
            "recommend_base": len(base),
            "healthz": sum(r["kind"] == "healthz" for r in results),
            "fresh_datasets": len(inputs.fresh),
            "repeated_datasets": len(inputs.repeated),
            "tuned_datasets": len(tuned),
            "connections": n_conn,
            "workers": WORKERS if pooled else 1,
        },
        "samples": {
            "latency_p50_ms": len(base_latencies),
            "latency_p75_ms": len(base_latencies),
            "throughput_per_s": {label: sum(1 for r in results if r["phase"] == label)
                                 for label, _, _ in phases},
            "score_mean": len(tuned),
            "setup_s": len(setups),
        },
        "rates": {label: rate for label, rate, _ in phases},
        "capacity": capacity,
        "latency_limit_ms": LATENCY_LIMIT_MS,
        "feature_cache": server_metrics.get("dispatcher", {}).get("feature_cache"),
        "clock": clock.record(),
        "problems": problems,
    }
    client_p50 = common.quantile(base_latencies, 0.50)
    if not ctx.trace:
        metrics = {
            "setup_s": common.metric(common.median(setups), "s"),
            "peak_rss_mb": common.metric(rss, "MB"),
            "latency_p50_ms": common.metric(client_p50 * speed_factor, "ms"),
            "latency_p75_ms": common.metric(
                common.quantile(base_latencies, 0.75) * speed_factor, "ms"
            ),
            "throughput_per_s": common.metric(max_rate(results), "1/s"),
            # The tuned score the store serves; check() holds every served
            # answer of a tuned dataset to it.
            "score_mean": common.metric(
                sum(s.cv_score for s in tuned.values()) / len(tuned), "score"
            ),
        }
        record["base_phase"] = {
            "raw_ms": {f"p{round(q * 100)}": common.quantile(base_latencies, q)
                       for q in (0.5, 0.75, 0.9, 0.95)},
            "speed_factor": speed_factor,
            "speed_samples": len(base_chunks),
        }
    else:
        _, untraced_latencies = phase_stats(results, "untraced")
        recommend_base = [r for r in base_ok if r["kind"] == "recommend"]
        dispatcher = server_metrics.get("dispatcher", {})
        metrics = {
            "wall_s": phases[1][2],
            "overhead_frac": client_p50 / common.quantile(untraced_latencies, 0.50) - 1.0,
            "service.http.healthz_p50_ms": common.quantile(healthz, 0.5) if healthz else 0.0,
            "service.http.server_p50_ms": server_p50,
            # /metrics covers every request the server answered, so the
            # client side is the p50 over both phases too.
            "service.http.stall_ms": common.quantile(
                [r["latency_ms"] for r in results
                 if r["kind"] == "recommend" and r["status"] == 200], 0.5
            ) - server_p50,
            "service.http.decode_ms": decode_ms(inputs),
            "service.dispatcher.latency_ms": common.quantile(
                [r["payload"]["latency_ms"] for r in recommend_base], 0.5
            ),
            "service.dispatcher.batch_size_mean": dispatcher.get("mean_batch_size", 0.0),
            "service.dispatcher.shed": dispatcher.get("n_shed", 0),
            "service.dispatcher.tuned_store_frac": sum(
                r["payload"]["config_source"] == "tuned-store" for r in recommend_base
            ) / max(1, len(recommend_base)),
            "serve.generator_late_ms": common.quantile(
                [r["late_ms"] for r in results if r["phase"] == base_label], 0.95
            ),
        }
    return {"correct": not problems, "attempted": len(results) + len(tuned),
            "failed": failed, "metrics": metrics, "record": record}
