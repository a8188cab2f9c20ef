"""The four workloads: what each runs, and its end-to-end measurement.

These runs use only the program's outer surfaces — the ``serve`` CLI,
the HTTP API through ``AnalyticsClient``, ``LMFAO.run`` and the
``repro.ml`` entry points — so a refactor below them cannot break the
benchmark.  The traced replays of the same ops are in ``bench.traced``.

Datasets are the generators' fixed-seed output; ``seed`` drives request
order, delta rows and think-time jitter only.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import statistics
import threading
import time
import urllib.error
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

import repro.ml as ml  # attributes looked up per call, so wrappers apply
from repro import LMFAO, DeltaBatch
from repro.datasets import favorita, retailer
from repro.server import AnalyticsClient, ClientError

from . import check
from .harness import (
    QuietSampler,
    Servers,
    Speedometer,
    peak_rss_mb,
    summary,
    tail_percentile,
)
from .trace import Recorder

#: name -> one-line reason (mirrored in BENCHMARK.json)
WORKLOADS = {
    "agg_batch": "the paper's four aggregate batches on two datasets, engine only: moves with executor and kernel changes, must not move with server or storage changes",
    "train": "ridge plus a depth-4 regression tree: dozens of small batches re-bound onto cached plans, so per-batch overhead and ml self time show",
    "serve_read": "closed-loop readers on a warm durable server: every view is cached, so only HTTP, coalescer, cache probe, assemble and serialize are on the path",
    "serve_mixed": "one reader beside one writer streaming root and dimension deltas, then a crash: the only workload where view repair, the WAL and the spill tier do work",
}

#: dataset scale per workload.  The issue asked for 1.0 throughout; the
#: driver's total-time cap does not leave room (see bench/README.md)
SCALES = {"agg_batch": 0.5, "train": 0.5, "serve_read": 0.2, "serve_mixed": 0.2}
SMOKE_SCALE = 0.1

SERVE_DATASET = "retailer"
#: the served workloads the readers ask for.  ``linreg`` is left out on
#: purpose: its batch equals ``covar``'s, and with both in a two-client
#: mix the fused pairs collide in the plan cache and a third of requests
#: fail (README)
SERVED = ("covar", "trees", "mutual_information")
#: ``serve_read`` cycles through each workload alone and all three as one
#: fused DAG; ``serve_mixed`` through each alone, because every cached
#: view is repaired on every delta and the fused plan's views would
#: double a commit's cost
READ_MIX: Tuple[Tuple[str, ...], ...] = tuple((w,) for w in SERVED) + (SERVED,)
MIXED_MIX = READ_MIX[:3]
#: what two coalescing clients can fuse besides: warmed by ``serve_read``
#: so that no timed request pays for planning
WARM_SETS = READ_MIX + tuple(itertools.combinations(SERVED, 2))
FACT = "Inventory"
DIMENSIONS = ("Items", "Weather", "Location", "Census")
ROOT_DELTA_FRACTION = 0.005
DIM_DELTA_ROWS = 2
WRITER_THINK_S = 0.02
READER_THINK_S = 0.02
#: how often a served window stops to time the speedometer kernel
SAMPLE_EVERY_S = 0.5
CLIENT_ERRORS = (ClientError, urllib.error.URLError, OSError)


@dataclass
class Settings:
    workload: str
    seed: int
    seconds: float
    smoke: bool = False

    @property
    def scale(self) -> float:
        return SMOKE_SCALE if self.smoke else SCALES[self.workload]

    @property
    def setups(self) -> int:
        """Set-ups per run; ``setup_s`` is their median."""
        return 1 if self.smoke else 3


@dataclass
class Outcome:
    """What one run found: counts, problems, metrics, supporting detail."""

    attempted: int = 0
    failed: int = 0
    #: wrong answers — any entry makes the run incorrect
    problems: List[str] = field(default_factory=list)
    #: what each failed op raised — counted, never fatal
    failures: List[str] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)
    detail: Dict[str, object] = field(default_factory=dict)
    absent: List[str] = field(default_factory=list)


# -- the batches ---------------------------------------------------------------


def regression_spec(dataset):
    label = dataset.label
    if dataset.database.attribute_kind(label) != "continuous":
        label = dataset.continuous_features[0]
    continuous = [f for f in dataset.continuous_features if f != label]
    return continuous, list(dataset.categorical_features), label


def paper_batches(dataset, engine) -> Dict[str, object]:
    """The paper's four batches (Table 3) from the public builders."""
    continuous, categorical, label = regression_spec(dataset)
    return {
        "covar": ml.CovarBatch(continuous, categorical, label).batch,
        "rt_node": ml.CARTLearner(
            engine, continuous, categorical, label, "regression"
        ).node_batch([]),
        "mi": ml.build_mi_batch(dataset.discrete_attrs),
        "cube": ml.build_cube_batch(dataset.cube_dimensions, dataset.cube_measures),
    }


def served_batches(dataset) -> Dict[str, object]:
    """The batches ``repro serve`` registers under the names in READ_MIX,
    rebuilt from the public builders so answers can be checked."""
    planner = LMFAO(
        dataset.database, dataset.join_tree, compile=False, sort_inputs=False
    )
    batches = paper_batches(dataset, planner)
    return {
        "covar": batches["covar"],
        "trees": batches["rt_node"],
        "mutual_information": batches["mi"],
    }


# -- the op scripts ------------------------------------------------------------


class DeltaScript:
    """The writer's endless script: rounds of three root deltas and one
    dimension delta, rotating over the dimensions.

    A root delta inserts copies of live fact rows and retracts as many.
    A dimension delta retracts two rows and inserts them back with their
    continuous attributes changed, so key sets — and with them the join
    size and the cost of an op — stay the same however long the script
    runs.  ``database`` mirrors the server: ``commit`` advances it by an
    acknowledged op.
    """

    def __init__(self, database, seed: int):
        self.database = database
        self._rng = np.random.default_rng(seed)
        self._step = 0

    def next(self) -> Dict[str, object]:
        position = self._step % 4
        relation = FACT if position < 3 else DIMENSIONS[(self._step // 4) % 4]
        self._step += 1
        rel = self.database.relation(relation)
        names = rel.schema.names
        if relation == FACT:
            n = max(1, int(rel.n_rows * ROOT_DELTA_FRACTION))
            source = self._rng.integers(0, rel.n_rows, n)
            deletes = self._rng.choice(rel.n_rows, n, replace=False)
            inserts = {a: rel.column(a)[source] for a in names}
        else:
            deletes = self._rng.choice(rel.n_rows, DIM_DELTA_ROWS, replace=False)
            bump = float(self._rng.integers(1, 5))
            inserts = {
                a: rel.column(a)[deletes]
                + (bump if rel.schema[a].kind == "continuous" else 0)
                for a in names
            }
        return {
            "relation": relation,
            "inserts": {a: column.tolist() for a, column in inserts.items()},
            "delete_indices": sorted(int(i) for i in deletes),
        }

    def commit(self, op: Dict[str, object]) -> None:
        delta = DeltaBatch(
            op["relation"],
            inserts={a: np.asarray(v) for a, v in op["inserts"].items()},
            delete_indices=np.asarray(op["delete_indices"], dtype=np.int64),
        )
        self.database = self.database.apply_delta(delta).database


def read_requests(seed: int, mix=READ_MIX, offset: int = 0):
    """A reader's endless request order: the mix, rotated by its index and
    reshuffled by seed every cycle."""
    rng = np.random.default_rng([seed, offset])
    while True:
        for position in rng.permutation(len(mix)):
            yield mix[(position + offset) % len(mix)]


def think(rng, mean_seconds: float) -> None:
    time.sleep(mean_seconds * rng.uniform(0.5, 1.5))


# -- answers -------------------------------------------------------------------


class ServedTruth:
    """Ground truth of the served batches, per database version."""

    def __init__(self, dataset):
        self.batches = served_batches(dataset)
        self._truth: Dict[Tuple[int, str], check.Truth] = {}
        self._flat: Tuple[int, Dict] = (-1, {})  # the last version joined

    def problems(self, database, version: int, payload: Dict) -> List[str]:
        """What is wrong with a ``/query`` response that should answer
        ``database``, the program's ``version``-th."""
        out = []
        for workload, section in payload["results"].items():
            key = (version, workload)
            if key not in self._truth:
                if self._flat[0] != version:
                    self._flat = (version, check.flat_columns(database))
                self._truth[key] = check.ground_truth(
                    self._flat[1], self.batches[workload]
                )
            out += [
                f"epoch {payload['epoch']} {workload}/{p}"
                for p in check.check_payload(self._truth[key], section)
            ]
        return out


def timed_request(call: Callable[[], Dict]) -> Tuple[float, Optional[Dict]]:
    """(latency, payload) of one client call; payload None if it failed."""
    start = time.perf_counter()
    try:
        payload = call()
    except CLIENT_ERRORS:
        payload = None
    return time.perf_counter() - start, payload


def _span(recorder: Optional[Recorder], name: str):
    """A span around the benchmark's own code when a traced run passes its
    recorder, nothing otherwise."""
    return recorder.span(name) if recorder is not None else contextlib.nullcontext()


# -- in-process workloads ------------------------------------------------------
#
# A workload is (build, units, verify): ``build`` makes its state from
# nothing, ``units(state)`` lists one pass as labelled calls, ``verify``
# checks one pass's results against ground truth.


def build_agg(scale: float, recorder: Optional[Recorder] = None):
    work = []
    for generate in (retailer, favorita):
        with _span(recorder, "datasets.generate"):
            dataset = generate(scale=scale)
        engine = LMFAO(dataset.database, dataset.join_tree)
        for name, batch in paper_batches(dataset, engine).items():
            work.append((dataset, f"{dataset.name}.{name}", engine, batch))
    return work


def agg_units(work):
    """All eight batches back to back."""
    return [
        (label, lambda engine=engine, batch=batch: engine.run(batch))
        for _, label, engine, batch in work
    ]


def check_agg(work, results, outcome: Outcome) -> None:
    columns = {}
    for dataset, label, _, batch in work:
        if label not in results:
            continue
        if dataset.name not in columns:
            columns[dataset.name] = check.flat_columns(dataset.database)
        truth = check.ground_truth(columns[dataset.name], batch)
        outcome.problems += [
            f"{label}/{p}" for p in check.check_batch_result(truth, results[label])
        ]


def build_train(scale: float, recorder: Optional[Recorder] = None):
    with _span(recorder, "datasets.generate"):
        dataset = retailer(scale=scale)
    return dataset, LMFAO(dataset.database, dataset.join_tree)


def train_units(state):
    dataset, engine = state
    continuous, categorical, label = regression_spec(dataset)
    return [
        ("ridge", lambda: ml.train_ridge(
            dataset.database, continuous, categorical, label, engine=engine
        )),
        ("tree", lambda: ml.CARTLearner(
            engine, continuous, categorical, label, "regression",
            max_depth=4, min_samples_split=500, n_buckets=10,
        ).fit()),
    ]


def check_train(state, models, outcome: Outcome) -> None:
    columns = check.flat_columns(state[0].database)
    if "ridge" in models:
        outcome.problems += check.check_ridge(columns, models["ridge"])
    if "tree" in models:
        outcome.problems += check.check_tree(columns, models["tree"])


IN_PROCESS = {
    "agg_batch": (build_agg, agg_units, check_agg),
    "train": (build_train, train_units, check_train),
}


def one_pass(units, outcome: Outcome):
    """Run every unit of a pass; returns the results by label."""
    results = {}
    for label, call in units:
        outcome.attempted += 1
        try:
            results[label] = call()
        except Exception as exc:  # a failed op is data, not an abort
            outcome.failed += 1
            outcome.failures.append(f"{label}: {type(exc).__name__}: {exc}")
    return results


def run_in_process(settings: Settings, import_seconds: float) -> Outcome:
    build, units_of, verify = IN_PROCESS[settings.workload]
    outcome = Outcome()
    meter = Speedometer()

    def set_up():
        state = build(settings.scale)
        one_pass(units_of(state), Outcome())  # cold pass: plans and compiles
        return state

    setups = [meter.lap(set_up) for _ in range(settings.setups)]
    state = setups[-1][2]
    units = units_of(state)
    passes = []
    window = time.perf_counter()
    while not passes or time.perf_counter() - window < settings.seconds:
        passes.append(meter.lap(lambda: one_pass(units, outcome)))
        if settings.smoke and len(passes) >= 2:
            break
    verify(state, passes[-1][2], outcome)
    outcome.metrics = {
        "setup_s": import_seconds + statistics.median(s[1] for s in setups),
        "op_p50_ms": statistics.median(p[1] for p in passes) * 1e3,
        "work_per_s": len(passes) / sum(p[1] for p in passes),
        "peak_rss_mb": peak_rss_mb(),
    }
    outcome.detail = {
        "op": "pass",
        "raw_setup_s": summary([s[0] for s in setups]),
        "raw_op_ms": summary([p[0] * 1e3 for p in passes]),
        "op_ms": summary([p[1] * 1e3 for p in passes]),
        "host_speed": meter.speed(),
    }
    return outcome


# -- served workloads ----------------------------------------------------------


def warm(client: AnalyticsClient, sets) -> Dict[Tuple[str, ...], Dict]:
    """Query each workload set once, with data; returns the payloads."""
    return {
        names: client.query(SERVE_DATASET, names, include_data=True)
        for names in sets
    }


def boot_warm(servers: Servers, meter: Speedometer, setups: int, sets):
    """Boot on a fresh data dir and warm, ``setups`` times over; the last
    server stays up.  Returns (server, warm payloads, laps)."""
    laps = []
    server = None
    for _ in range(setups):
        if server is not None:
            server.kill()

        def set_up():
            server = servers.boot()
            return server, warm(server.client, sets)

        laps.append(meter.lap(set_up))
        server, payloads = laps[-1][2]
    return server, payloads, laps


def reader_loop(
    port: int,
    requests,
    deadline: float,
    stop: threading.Event,
    accept: Callable[[Tuple[str, ...], Dict], bool],
    between: Callable[[], None],
    think_rng=None,
):
    """Closed loop: the next request leaves when the last one returned;
    ``between`` runs between two requests (speedometer duty).
    Returns (latencies of accepted responses, attempted, failed, wrong)."""
    client = AnalyticsClient(port=port)
    latencies: List[float] = []
    attempted = failed = wrong = 0
    while time.perf_counter() < deadline and not stop.is_set():
        names = next(requests)
        attempted += 1
        latency, payload = timed_request(
            lambda: client.query(SERVE_DATASET, names, include_data=True)
        )
        if payload is None:
            failed += 1
        elif accept(names, payload):
            latencies.append(latency)
        else:
            wrong += 1
        between()
        if think_rng is not None:
            think(think_rng, READER_THINK_S)
    return latencies, attempted, failed, wrong


def served_metrics_and_detail(
    import_seconds, laps, latencies, work, elapsed, speed, rss
) -> Tuple[Dict[str, float], Dict[str, object]]:
    """The four end-to-end metrics of a served run, at nominal host speed,
    and the raw numbers behind them."""
    metrics = {
        "setup_s": import_seconds + statistics.median(lap[1] for lap in laps),
        "op_p50_ms": statistics.median(latencies) * 1e3 * speed,
        "work_per_s": work / elapsed / speed,
        "peak_rss_mb": rss,
    }
    detail = {
        "raw_setup_s": summary([lap[0] for lap in laps]),
        "raw_op_ms": summary([l * 1e3 for l in latencies]),
        "raw_tails_ms": tails(latencies),
        "raw_work_per_s": work / elapsed,
        "host_speed": speed,
    }
    return metrics, detail


def tails(latencies: Sequence[float]) -> Dict[str, float]:
    """The tail percentiles the sample is large enough to support."""
    out = {}
    for percent in (90, 99):
        try:
            out[f"p{percent}"] = tail_percentile(latencies, percent) * 1e3
        except ValueError:
            pass
    return out


def run_serve_read(settings: Settings, import_seconds: float) -> Outcome:
    outcome = Outcome()
    meter = Speedometer()
    servers = Servers(SERVE_DATASET, settings.scale)
    try:
        server, reference, laps = boot_warm(servers, meter, settings.setups, WARM_SETS)
        dataset = retailer(scale=settings.scale)
        truth = ServedTruth(dataset)
        for payload in reference.values():
            outcome.problems += truth.problems(dataset.database, 0, payload)

        def accept(names, payload):
            # the data never changes, so every answer must repeat the
            # checked one exactly
            return (
                payload["epoch"] == 0
                and payload["results"] == reference[names]["results"]
            )

        n_clients = min(2, os.cpu_count() or 1)
        quiet = QuietSampler(meter, followers=n_clients - 1)
        tallies: List[tuple] = [()] * n_clients
        stop = threading.Event()
        start = time.perf_counter()
        deadline = start + settings.seconds

        def lead() -> None:
            if time.perf_counter() - meter.samples[-1][0] > SAMPLE_EVERY_S:
                quiet.sample()

        def client_thread(index: int) -> None:
            tallies[index] = reader_loop(
                server.port, read_requests(settings.seed, offset=index), deadline,
                stop, accept, quiet.checkpoint if index else lead,
            )
            if index:
                quiet.leave()

        threads = [
            threading.Thread(target=client_thread, args=(i,))
            for i in range(n_clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        end = time.perf_counter()
        latencies = [l for tally in tallies for l in tally[0]]
        outcome.attempted = sum(tally[1] for tally in tallies)
        outcome.failed = sum(tally[2] for tally in tallies)
        wrong = sum(tally[3] for tally in tallies)
        if wrong:
            outcome.problems.append(f"{wrong} responses differ from the checked answer")
        outcome.metrics, outcome.detail = served_metrics_and_detail(
            import_seconds, laps, latencies, len(latencies),
            end - start - quiet.paused, meter.speed(start, end),
            peak_rss_mb(server.pid),
        )
        outcome.detail.update(
            op="query", clients=n_clients, server_stats=server.client.stats()
        )
    finally:
        servers.close()
    return outcome


def run_serve_mixed(settings: Settings, import_seconds: float) -> Outcome:
    outcome = Outcome()
    meter = Speedometer()
    servers = Servers(SERVE_DATASET, settings.scale)
    try:
        server, _, laps = boot_warm(servers, meter, settings.setups, MIXED_MIX)
        dataset = retailer(scale=settings.scale)
        truth = ServedTruth(dataset)
        script = DeltaScript(dataset.database, settings.seed)
        versions = {0: dataset.database}  # epoch -> mirrored database
        kept: Dict[int, Dict] = {}  # sampled epoch -> one response
        commits: List[Tuple[str, float]] = []
        stop = threading.Event()
        writer_tally = [0, 0]  # attempted, failed
        # a fixed script, not a fixed time: the same deltas on the same
        # relations every run, sized to take about ``seconds``
        n_deltas = 4 if settings.smoke else 16 * max(1, round(settings.seconds / 7.5))

        def accept(names, payload):
            # keep one answer per power-of-two epoch to check afterwards;
            # checking here would steal the server's processor
            epoch = payload["epoch"]
            if epoch & (epoch - 1) == 0:
                kept.setdefault(epoch, payload)
            return True

        def writer() -> None:
            rng = np.random.default_rng([settings.seed, 99])
            for _ in range(n_deltas):
                op = script.next()
                writer_tally[0] += 1
                latency, ack = timed_request(
                    lambda: server.client.delta(
                        SERVE_DATASET, op["relation"], inserts=op["inserts"],
                        delete_indices=op["delete_indices"],
                    )
                )
                if ack is None:
                    writer_tally[1] += 1
                else:
                    script.commit(op)
                    versions[ack["epoch"]] = script.database
                    commits.append((op["relation"], latency))
                quiet.sample()
                think(rng, WRITER_THINK_S)
            stop.set()

        quiet = QuietSampler(meter, followers=1)
        start = time.perf_counter()
        writer_thread = threading.Thread(target=writer)
        writer_thread.start()
        latencies, attempted, failed, _ = reader_loop(
            server.port, read_requests(settings.seed, MIXED_MIX), float("inf"),
            stop, accept, quiet.checkpoint, np.random.default_rng([settings.seed, 7]),
        )
        writer_thread.join()
        end = time.perf_counter()
        outcome.attempted = attempted + writer_tally[0]
        outcome.failed = failed + writer_tally[1]

        # answers: up to four sampled epochs, the final one, and the
        # final one again after a crash
        last = max(versions)
        for epoch in sorted(kept)[-4:]:
            if epoch in versions:
                outcome.problems += truth.problems(versions[epoch], epoch, kept[epoch])
            else:
                outcome.problems.append(f"answer claims unacknowledged epoch {epoch}")
        for names in MIXED_MIX:
            final = server.client.query(SERVE_DATASET, names, include_data=True)
            outcome.problems += at_epoch(final, last)
            outcome.problems += truth.problems(versions[last], last, final)
        rss = peak_rss_mb(server.pid)
        stats = server.client.stats()
        server.kill()
        recover_start = time.perf_counter()
        revived = servers.boot(server.data_dir)
        after = revived.client.query(SERVE_DATASET, ("covar",), include_data=True)
        recover_seconds = time.perf_counter() - recover_start
        outcome.problems += at_epoch(after, last)
        outcome.problems += truth.problems(versions[last], last, after)

        outcome.metrics, outcome.detail = served_metrics_and_detail(
            import_seconds, laps, latencies, len(commits),
            end - start - quiet.paused, meter.speed(start, end), rss,
        )
        outcome.detail.update(
            op="query (latency), delta commit (work)",
            raw_queries_per_s=len(latencies) / (end - start - quiet.paused),
            raw_delta_ms=delta_summaries(commits),
            raw_recover_s=recover_seconds,
            server_stats=stats,
        )
    finally:
        servers.close()
    return outcome


def at_epoch(payload: Dict, epoch: int) -> List[str]:
    if payload["epoch"] != epoch:
        return [f"answer at epoch {payload['epoch']}, last acknowledged {epoch}"]
    return []


def delta_summaries(commits: Sequence[Tuple[str, float]]) -> Dict[str, Dict]:
    by_relation: Dict[str, List[float]] = {}
    for relation, latency in commits:
        by_relation.setdefault(relation, []).append(latency * 1e3)
    return {relation: summary(values) for relation, values in by_relation.items()}
