"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload retailer-churn --seed 1 --seconds 35 --trace 0

Run from the repository root: the program is imported from ``src/``.  A run
builds its inputs from ``--seed`` (timed as ``setup_s``), then spends a
workload-specific share of ``--seconds`` on stream passes and the rest on
training rounds:

- a *stream pass* starts a durable ``QueryServer(FIVM, readers=1)`` from the
  pickled starting state, sends the stream's batches from one closed-loop
  writer (the main thread), then closes the server.  After a warm-up pass
  come *loaded* passes, where an open-loop generator thread also sends
  ``statistics()`` and covariance-batch ``query()`` reads for the
  concurrent-read checks (one pass, unless passes are short); every later
  pass is *quiet* (the writer alone) and gives the write metrics;
- a *training round* builds cold engines over the final database: sigma plus
  ridge regression, and a depth-4 regression tree.

Outputs are checked against ``reference.py`` after the measurements.  With
``--trace 1`` passes cycle through quiet, quiet traced, loaded and loaded
traced, and rounds alternate untraced and traced; the traced ones give the
per-layer metrics, the pairs give the tracing overhead, and the spans are
written to ``.bench_work/``.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pickle
import resource
import shutil
import statistics
import sys
import threading
import time
from collections import Counter
from typing import Dict, List, Optional, Tuple

import numpy as np

import reference
import workloads
from tracing import Tracer

WORK_DIR = ".bench_work"
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 5
#: ``(loaded, traced)`` kinds a traced run cycles its passes through.
TRACED_CYCLE = ((False, False), (False, True), (True, False), (True, True))
#: Mid-stream reads checked against the reference per run, by kind.
READ_CHECKS = {"statistics": 4, "query": 2}
#: Most share of the stream time an untraced run spends on loaded passes to
#: gather those reads.
LOADED_SHARE = 0.25


def percentile(values, fraction: float) -> float:
    """Nearest-rank percentile; 0 when there are no samples (a short traced run)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, int(np.ceil(fraction * len(ordered))))
    return float(ordered[rank - 1])


# -- the read generator ----------------------------------------------------------------


class ReadGenerator(threading.Thread):
    """Open loop: reads arrive as a seeded Poisson process, whatever the server does.

    Each arrival is a covariance-batch ``query()`` with probability
    ``QUERY_RATE / (QUERY_RATE + STATS_RATE)``, else a ``statistics()`` read.
    Latency is measured from when a read was due, so a stall also counts
    against the reads queued behind it.
    """

    def __init__(self, server, query_batch, seed: int, tracer: Optional[Tracer]) -> None:
        super().__init__(name="bench-reads", daemon=True)
        self.server = server
        self.query_batch = query_batch
        self.rate = workloads.QUERY_RATE + workloads.STATS_RATE
        self.query_share = workloads.QUERY_RATE / self.rate
        self.rng = np.random.default_rng(seed)
        self.tracer = tracer
        self.stop = threading.Event()
        self.reads: List[list] = []   # [kind, due, submitted, completed, future]

    def run(self) -> None:
        clock = time.perf_counter
        due = clock()
        k = 0
        while True:
            due += self.rng.exponential(1.0 / self.rate)
            kind = "q" if self.rng.random() < self.query_share else "s"
            delay = due - clock()
            if delay > 0 and self.stop.wait(delay):
                return
            if self.stop.is_set():
                return
            record = [kind, due, clock(), None, None]
            if kind == "q":
                if self.tracer is not None:
                    self.tracer.pending_reads.append(f"read-{k}")
                future = self.server.submit_query(self.query_batch)
            else:
                future = self.server.submit_statistics()
            record[4] = future
            future.add_done_callback(lambda _f, record=record: record.__setitem__(3, clock()))
            self.reads.append(record)
            k += 1


# -- one stream pass -------------------------------------------------------------------


def stream_pass(workload, setup, query_batch, directory: str, seed: int,
                tracer: Optional[Tracer], loaded: bool) -> dict:
    """One pass of the stream; ``loaded`` runs the read generator alongside the writer."""
    from repro import kernels
    from repro.data.tuplestore import tuplestore_stats
    from repro.durability.recovery import DurabilityOptions, recover
    from repro.serving.server import QueryServer

    maintainer = pickle.loads(setup.base_blob)
    options = DurabilityOptions(directory, sync=workloads.SYNC,
                                checkpoint_interval=workload.checkpoint_every)
    executor_before = dict(maintainer.executor_stats)
    storage_before = dict(tuplestore_stats)
    if tracer is not None:
        kernels.reset_kernel_stats()
        kernels.enable_kernel_stats(True)
        tracer.install()
    span_start = len(tracer.spans) if tracer is not None else 0
    server = QueryServer(maintainer, readers=1, durability=options)
    reads = ReadGenerator(server, query_batch, seed, tracer) if loaded else None
    batch_seconds: List[float] = []
    failed_batches = 0
    clock = time.perf_counter
    try:
        if reads is not None:
            reads.start()
        for number, batch in enumerate(setup.batches):
            span = tracer.begin("writer.batch", f"batch-{number}") if tracer else None
            started = clock()
            try:
                server.apply_batch(batch)
            except Exception as error:  # a refused batch is a failed operation
                failed_batches += 1
                print(f"batch {number} failed: {error!r}", file=sys.stderr)
            batch_seconds.append(clock() - started)
            if span is not None:
                tracer.end(span)
        if reads is not None:
            reads.stop.set()
            reads.join()
        failed_reads = 0
        results = []
        for record in reads.reads if reads is not None else ():
            try:
                result = record[4].result()
            except Exception as error:
                failed_reads += 1
                print(f"read failed: {error!r}", file=sys.stderr)
                continue
            if record[3] is None:   # result() can return before the done-callback ran
                record[3] = clock()
            results.append((record, result))
        final = server.statistics()
        serving = server.serving_stats()
        generations = server.manager.published_generations
        copy = None
        if tracer is not None:
            copy = directory + "-copy"
            shutil.copytree(directory, copy)
    finally:
        if reads is not None:
            reads.stop.set()
        server.close()
        if tracer is not None:
            tracer.uninstall()
            kernels.enable_kernel_stats(False)
    checkpoints = sorted(name for name in os.listdir(directory) if name.endswith(".ckpt"))
    outcome = {
        "batch_seconds": batch_seconds,
        "updates": sum(len(batch) for batch in setup.batches),
        "failed": failed_batches + failed_reads,
        "attempted": len(setup.batches) + len(results) + failed_reads,
        "loaded": loaded,
        "reads": [(record[0], record[1], record[2], record[3], result.latency_s)
                  for record, result in results],
        "samples": (sampled(results, "s", READ_CHECKS["statistics"])
                    + sampled(results, "q", READ_CHECKS["query"])),
        "final": final,
        "state_bytes": os.path.getsize(os.path.join(directory, checkpoints[-1])),
        "journal_bytes": os.path.getsize(options.journal_path),
        "periodic_checkpoints": serving["checkpoints_written"],
        "checkpoint_last_bytes": serving["checkpoint_last_size_bytes"],
        "generations": generations,
        "live_rows": sum(len(relation) for relation in maintainer.database),
        "view_entries": sum(maintainer.view_sizes().values()),
        "executor": {
            key: maintainer.executor_stats.get(key, 0) - executor_before.get(key, 0)
            for key in ("delta_passes", "delta_pass_ns")
        },
        "storage": {key: tuplestore_stats[key] - storage_before.get(key, 0) for key in tuplestore_stats},
        "database": maintainer.database,
        "spans": (span_start, len(tracer.spans)) if tracer is not None else None,
        "kernels": kernels.kernel_stats() if tracer is not None else None,
    }
    if copy is not None:
        # The traced pass checkpointed with the wrappers installed; recovering
        # from a copy taken before close must reproduce the live state exactly.
        recovered = recover(DurabilityOptions(copy, sync=workloads.SYNC)).maintainer
        live = final.value
        state = recovered.statistics()
        outcome["recovered"] = bool(
            outcome["periodic_checkpoints"] > 0
            and state.count == live.count
            and np.array_equal(state.sums, live.sums)
            and np.array_equal(state.moments, live.moments)
        )
        shutil.rmtree(copy)
    shutil.rmtree(directory)
    return outcome


# -- one training round ----------------------------------------------------------------


def training_round(setup, database, tracer: Optional[Tracer]) -> dict:
    from repro.ml.decision_tree import DecisionTreeRegressor
    from repro.ml.linear_regression import RidgeRegression
    from repro.ml.statistics import compute_sigma

    features = setup.features
    clock = time.perf_counter
    if tracer is not None:
        tracer.install()
    span_start = len(tracer.spans) if tracer is not None else 0
    try:
        ridge_seconds = []
        for _ in range(workloads.RIDGE_REPEATS):
            started = clock()
            span = tracer.begin("ml.sigma") if tracer else None
            sigma = compute_sigma(database, setup.query, features["continuous"], features["categorical"])
            if span is not None:
                tracer.end(span)
            model = RidgeRegression(features["target"]).fit(sigma)
            ridge_seconds.append(clock() - started)
        started = clock()
        tree = DecisionTreeRegressor(
            features["target"], features["continuous"], features["categorical"],
            max_depth=workloads.TREE_DEPTH,
        )
        tree.fit(database, setup.query)
        tree_seconds = clock() - started
    finally:
        if tracer is not None:
            tracer.uninstall()
    return {
        "ridge_seconds": ridge_seconds,
        "tree_seconds": tree_seconds,
        "sigma": sigma,
        "model": model,
        "tree": tree,
        "spans": (span_start, len(tracer.spans)) if tracer is not None else None,
    }


# -- checks ----------------------------------------------------------------------------


class Checker:
    """Compares program outputs with references built from the benchmark's multiset."""

    def __init__(self, setup) -> None:
        self.setup = setup
        self.problems: List[str] = []
        self._joins: Dict[int, reference.Table] = {}

    def join_at(self, prefix: int) -> reference.Table:
        if prefix not in self._joins:
            live = self.setup.base.copy()
            for batch in self.setup.triples[:prefix]:
                live.apply_all(batch)
            self._joins[prefix] = reference.join_all(self.setup.schemas, live.relations, self.setup.fact)
        return self._joins[prefix]

    def fail(self, message: str) -> None:
        self.problems.append(message)

    def statistics_read(self, result, features) -> None:
        count, sums, quadratic = reference.moments(self.join_at(result.prefix), features)
        payload = result.value
        if not (reference.close(payload.count, count) and reference.close(payload.sums, sums)
                and reference.close(payload.moments, quadratic)):
            self.fail(f"statistics() at prefix {result.prefix} differs from the reference join")

    def sigma(self, sigma, table, label: str) -> None:
        features = self.setup.features
        domains = reference.categorical_domains(table, features["categorical"])
        program = {feature: set(sigma.index.categorical_values.get(feature, ())) for feature in domains}
        if domains != program:
            self.fail(f"{label}: categorical domains differ from the reference join")
            return
        matrix = reference.design_matrix(table, sigma.index.entries())
        expected = matrix.T @ (matrix * table.weights[:, None])
        if not reference.close(sigma.matrix, expected):
            self.fail(f"{label}: sigma differs from X^T X of the reference design matrix")

    def query_read(self, result) -> None:
        from repro.aggregates.sparse_tensor import sigma_from_batch_results

        features = self.setup.features
        sigma = sigma_from_batch_results(result.value, features["continuous"], features["categorical"])
        self.sigma(sigma, self.join_at(result.prefix), f"query() at prefix {result.prefix}")

    def training(self, outcome, table) -> None:
        features = self.setup.features
        sigma, model, tree = outcome["sigma"], outcome["model"], outcome["tree"]
        self.sigma(sigma, table, "training sigma")
        matrix = reference.design_matrix(table, sigma.index.entries())
        target = table.columns[features["target"]].astype(np.float64)
        columns = matrix[:, model.parameter_positions]
        trained = reference.rmse(columns, target, table.weights, model.parameters)
        best = reference.least_squares_rmse(columns, target, table.weights)
        if not trained <= best * 1.01 + 1e-12:
            self.fail(f"ridge training RMSE {trained:.6g} is not within 1% of least squares {best:.6g}")
        total = 0.0
        for leaf, mask in reference.leaf_masks(table, tree.root):
            weights = table.weights[mask]
            count = float(weights.sum())
            total += count
            mean = float((weights * target[mask]).sum() / count) if count else 0.0
            if not (reference.close(leaf.count, count) and reference.close(leaf.prediction, mean, 1e-9)):
                self.fail(f"tree leaf n={leaf.count} predicts {leaf.prediction}, reference mean {mean} of {count} rows")
        if not reference.close(total, table.weights.sum()):
            self.fail(f"tree leaves cover {total} rows, the join has {table.weights.sum()}")


def sampled(results, kind: str, count: int) -> list:
    """Up to ``count`` completed reads of ``kind`` spread evenly over the pass."""
    chosen = [result for record, result in results if record[0] == kind]
    if len(chosen) <= count:
        return chosen
    step = len(chosen) / (count + 1)
    return [chosen[int(step * (position + 1))] for position in range(count)]


# -- metrics ---------------------------------------------------------------------------


def end_to_end(setup_seconds, passes, rounds, peak_rss_kib: int) -> Dict[str, tuple]:
    passes = [outcome for outcome in passes[1:] if not outcome["loaded"]]
    last = passes[-1]
    return {
        "setup_s": (statistics.median(setup_seconds), "s"),
        "write_updates_per_s": (statistics.median(
            outcome["updates"] / sum(outcome["batch_seconds"]) for outcome in passes), "updates/s"),
        "state_bytes": (float(last["state_bytes"]), "bytes"),
        "journal_bytes_per_update": (last["journal_bytes"] / last["updates"], "bytes"),
        "peak_rss_mb": (peak_rss_kib / 1024.0, "MiB"),
        "ridge_train_s": (statistics.median(s for r in rounds for s in r["ridge_seconds"]), "s"),
        "tree_train_s": (statistics.median(r["tree_seconds"] for r in rounds), "s"),
    }


def per_layer(tracer: Tracer, generate_seconds, passes, rounds) -> Dict[str, tuple]:
    from repro.kernels import KERNEL_NAMES

    # Writer-side layers come from quiet traced passes, read-side ones from loaded passes.
    traced = [o for o in passes if o["spans"] is not None and not o["loaded"]]
    plain = [o for o in passes[1:] if o["spans"] is None and not o["loaded"]]
    loaded_traced = [o for o in passes if o["spans"] is not None and o["loaded"]]
    loaded_plain = [o for o in passes[1:] if o["spans"] is None and o["loaded"]]
    traced_rounds = [r for r in rounds if r["spans"] is not None]
    plain_rounds = [r for r in rounds if r["spans"] is None]
    stream_spans = [span for o in traced for span in tracer.spans[o["spans"][0]:o["spans"][1]]]
    train_spans = [span for r in traced_rounds for span in tracer.spans[r["spans"][0]:r["spans"][1]]]
    per_pass = 1.0 / len(traced)
    per_round = 1.0 / len(traced_rounds)
    metrics: Dict[str, tuple] = {}

    def rate(outcomes):
        """Writer seconds per update."""
        return sum(sum(o["batch_seconds"]) for o in outcomes) / sum(o["updates"] for o in outcomes)

    def seconds(name, spans=stream_spans, scale=per_pass):
        return Tracer.totals(spans, name)[1] * scale

    def calls(name, spans=stream_spans, scale=per_pass):
        return Tracer.totals(spans, name)[0] * scale

    def mean(key, source=traced):
        return float(np.mean([outcome[key] for outcome in source]))

    reads = [read for o in loaded_traced for read in o["reads"]]
    queue_wait = [(completed - due - service) * 1e3 for _kind, due, _sub, completed, service in reads]
    service = [read[4] * 1e3 for read in reads if read[0] == "q"]
    late = [(read[2] - read[1]) * 1e3 for o in passes for read in o["reads"]]
    for kind, label in (("q", "query"), ("s", "stats_read")):
        latency = [(read[3] - read[1]) * 1e3 for o in loaded_plain for read in o["reads"] if read[0] == kind]
        metrics[f"serving.{label}_p50_ms"] = (percentile(latency, 0.5), "ms")
    metrics["serving.loaded_write_updates_per_s"] = (1.0 / rate(loaded_plain), "updates/s")
    batch_ms = [seconds * 1e3 for o in plain for seconds in o["batch_seconds"]]
    metrics["serving.write_batch_p50_ms"] = (percentile(batch_ms, 0.50), "ms")
    metrics["serving.write_batch_p99_ms"] = (percentile(batch_ms, 0.99), "ms")
    metrics["serving.publish_s"] = (seconds("serving.publish"), "s")
    metrics["serving.generations_cut"] = (mean("generations"), "count")
    metrics["serving.read_queue_wait_ms"] = (percentile(queue_wait, 0.5), "ms")
    metrics["serving.read_service_ms"] = (percentile(service, 0.5), "ms")
    metrics["serving.generator_late_ms"] = (percentile(late, 0.5), "ms")
    metrics["data.write_s"] = (seconds("data.write"), "s")
    metrics["data.compact_s"] = (seconds("data.compact"), "s")
    for key in ("compactions", "deferred_compactions", "mult_copy_on_write", "full_encodes"):
        metrics[f"data.{key}"] = (float(np.mean([o["storage"][key] for o in traced])), "count")
    metrics["data.live_rows"] = (mean("live_rows"), "count")
    metrics["durability.checkpoint_s"] = (seconds("durability.checkpoint"), "s")
    metrics["durability.checkpoints"] = (calls("durability.checkpoint"), "count")
    metrics["durability.checkpoint_bytes"] = (mean("checkpoint_last_bytes"), "bytes")
    metrics["durability.journal_append_s"] = (seconds("durability.journal_append"), "s")
    metrics["durability.journal_bytes"] = (mean("journal_bytes"), "bytes")
    metrics["durability.recovered"] = (float(all(o.get("recovered") for o in traced)), "bool")
    metrics["ivm.net_s"] = (seconds("ivm.net"), "s")
    netted = sum(span[7] for span in stream_spans if span[1] == "ivm.propagate" and span[7])
    sent = sum(o["updates"] for o in traced)
    metrics["ivm.netted_rows_per_update"] = (netted / sent, "ratio")
    metrics["ivm.propagate_s"] = (seconds("ivm.propagate"), "s")
    metrics["ivm.delta_passes"] = (float(np.mean([o["executor"]["delta_passes"] for o in traced])), "count")
    metrics["ivm.delta_pass_s"] = (float(np.mean([o["executor"]["delta_pass_ns"] for o in traced])) / 1e9, "s")
    metrics["ivm.statistics_s"] = (seconds("ivm.statistics"), "s")
    metrics["ivm.view_entries"] = (mean("view_entries"), "count")
    for name in KERNEL_NAMES:
        counters = [o["kernels"][name] for o in traced]
        metrics[f"kernels.{name}.calls"] = (float(np.mean([c["calls"] for c in counters])), "count")
        metrics[f"kernels.{name}.s"] = (float(np.mean([c["ns"] for c in counters])) / 1e9, "s")
    evaluations = [span for span in train_spans if span[1] == "engine.evaluate"]
    computed = sum(span[7][0] for span in evaluations)
    cached = sum(span[7][1] for span in evaluations)
    metrics["engine.evaluate_s"] = (seconds("engine.evaluate", train_spans, per_round), "s")
    metrics["engine.evaluations"] = (len(evaluations) * per_round, "count")
    metrics["engine.views_computed"] = (computed * per_round, "count")
    metrics["engine.views_cached"] = (cached * per_round, "count")
    metrics["engine.view_cache_hit_ratio"] = (cached / computed if computed else 0.0, "ratio")
    reader = [(span[3] - span[2]) / 1e6 for o in loaded_traced
              for span in tracer.spans[o["spans"][0]:o["spans"][1]]
              if span[1] == "engine.evaluate" and span[6].startswith("serving-reader")]
    metrics["engine.read_evaluate_ms"] = (percentile(reader, 0.5), "ms")
    metrics["ml.sigma_s"] = (seconds("ml.sigma", train_spans, per_round / workloads.RIDGE_REPEATS), "s")
    metrics["ml.gd_fit_s"] = (seconds("ml.gd_fit", train_spans, per_round / workloads.RIDGE_REPEATS), "s")
    metrics["ml.gd_iterations"] = (float(traced_rounds[-1]["model"].trace.iterations), "count")
    metrics["ml.tree_fit_s"] = (seconds("ml.tree_fit", train_spans, per_round), "s")
    metrics["ml.tree_batches"] = (float(traced_rounds[-1]["tree"].batches_evaluated), "count")
    metrics["ml.tree_aggregates"] = (float(traced_rounds[-1]["tree"].aggregates_evaluated), "count")
    metrics["datasets.generate_s"] = (statistics.median(generate_seconds), "s")
    for label, spans, scale in (("stream", stream_spans, per_pass), ("train", train_spans, per_round)):
        layers: Dict[str, float] = Counter()
        for name, value in Tracer.self_times(spans).items():
            layers["server" if name == "writer.batch" else name.split(".")[0]] += value
        for layer in (("server", "serving", "data", "durability", "ivm") if label == "stream"
                      else ("engine", "ml")):
            metrics[f"self.{label}.{layer}_s"] = (layers.get(layer, 0.0) * scale, "s")
    batches = [span for span in stream_spans if span[1] == "writer.batch"]
    batch_ids = {span[0] for span in batches}
    covered = sum(span[3] - span[2] for span in stream_spans if span[4] in batch_ids)
    metrics["trace.writer_coverage"] = (covered / sum(span[3] - span[2] for span in batches), "ratio")

    def training_seconds(outcomes):
        return statistics.median(sum(r["ridge_seconds"]) + r["tree_seconds"] for r in outcomes)

    metrics["trace.overhead_writer_pct"] = ((rate(traced) / rate(plain) - 1.0) * 100.0, "%")
    metrics["trace.overhead_train_pct"] = (
        (training_seconds(traced_rounds) / training_seconds(plain_rounds) - 1.0) * 100.0, "%")
    metrics["trace.spans_per_pass"] = (len(stream_spans) * per_pass, "count")
    return metrics


# -- the run ---------------------------------------------------------------------------


def pass_kind(passes: list, traced: bool, stream_seconds: float) -> Tuple[bool, bool]:
    """``(loaded, traced)`` of the next pass.

    Pass 0 warms caches and lazy imports and is left out of the metrics.  An
    untraced run then makes loaded passes until they have sampled the reads
    ``READ_CHECKS`` asks for, or have taken ``LOADED_SHARE`` of the
    ``stream_seconds``, and every later pass is quiet, for the write
    metrics.  A traced run cycles through ``TRACED_CYCLE``.
    """
    if not passes:
        return False, False
    if traced:
        return TRACED_CYCLE[(len(passes) - 1) % len(TRACED_CYCLE)]
    sampled = Counter(result.kind for outcome in passes for result in outcome["samples"])
    wanted = any(sampled[kind] < count for kind, count in READ_CHECKS.items())
    loaded_s = sum(sum(outcome["batch_seconds"]) for outcome in passes if outcome["loaded"])
    return wanted and loaded_s < LOADED_SHARE * stream_seconds, False


def more_passes(passes: list, traced: bool, seconds_left: float) -> bool:
    """Whether to start another pass with ``seconds_left`` of the stream time.

    An untraced run needs one measured quiet pass.  A traced run makes at
    least one and at most two whole cycles after the warm-up: enough passes
    per kind, and a bounded span file.
    """
    if traced:
        return (len(passes) <= len(TRACED_CYCLE)
                or (seconds_left > 0 and len(passes) <= 2 * len(TRACED_CYCLE)))
    return seconds_left > 0 or all(outcome["loaded"] for outcome in passes[1:])


def run(workload, seed: int, seconds: float, traced: bool) -> dict:
    from repro.aggregates.batch import covariance_batch

    problems = reference.self_test()
    setup_seconds, generate_seconds = [], []
    for _ in range(SETUPS):
        setup = None
        gc.collect()
        setup = workloads.build(workload, seed)
        setup_seconds.append(setup.program_s)
        generate_seconds.append(setup.generate_s)
    features = setup.features
    query_batch = covariance_batch(features["continuous"], features["categorical"])
    tracer = Tracer() if traced else None
    work = os.path.join(WORK_DIR, f"{workload.name}-{seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)

    passes, rounds = [], []
    started = time.perf_counter()
    stream_seconds = workload.stream_share * seconds
    while more_passes(passes, traced, stream_seconds - (time.perf_counter() - started)):
        loaded, trace_it = pass_kind(passes, traced, stream_seconds)
        if passes:
            passes[-1]["database"] = None   # only the last pass's database is trained on
        gc.collect()
        passes.append(stream_pass(workload, setup, query_batch,
                                  os.path.join(work, f"pass-{len(passes)}"),
                                  seed * 1000 + len(passes), tracer if trace_it else None, loaded))
    database = passes[-1]["database"]
    while (not rounds or time.perf_counter() - started < seconds
           or (traced and len(rounds) < 2)):
        trace_this = tracer if traced and len(rounds) % 2 == 1 else None
        gc.collect()
        rounds.append(training_round(setup, database, trace_this))
    # Before the checks: their reference joins are the benchmark's memory, not the program's.
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    checker = Checker(setup)
    checker.problems.extend(problems)
    continuous = list(setup.features["continuous"])
    full = len(setup.batches)
    checked = Counter()   # mid-stream reads checked, per kind
    for number, outcome in enumerate(passes):
        if outcome["final"].prefix != full:
            checker.fail(f"pass {number}: final read at prefix {outcome['final'].prefix}, expected {full}")
        checker.statistics_read(outcome["final"], continuous)
        for result in outcome["samples"]:
            if checked[result.kind] < READ_CHECKS[result.kind]:
                if result.kind == "statistics":
                    checker.statistics_read(result, continuous)
                else:
                    checker.query_read(result)
            checked[result.kind] += 1
        if outcome.get("recovered") is False:
            checker.fail(f"pass {number}: traced pass did not checkpoint and recover its state")
    checker.training(rounds[0], checker.join_at(full))
    first_tree = rounds[0]["tree"].root.render()
    if any(r["tree"].root.render() != first_tree for r in rounds[1:]):
        checker.fail("training rounds grew different trees from the same database")
    for problem in checker.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    kinds = Counter(read[0] for o in passes for read in o["reads"])
    print(f"{workload.name} seed {seed}: {len(passes)} passes, {len(rounds)} training rounds, "
          f"{sum(len(o['batch_seconds']) for o in passes)} batches, {kinds['q']} queries, "
          f"{kinds['s']} statistics reads, {time.perf_counter() - started:.1f} s", file=sys.stderr)

    if traced:
        metrics = per_layer(tracer, generate_seconds, passes, rounds)
        tracer.dump(os.path.join(WORK_DIR, f"trace-{workload.name}-{seed}.jsonl"))
    else:
        metrics = end_to_end(setup_seconds, passes, rounds, peak_rss_kib)
    shutil.rmtree(work, ignore_errors=True)
    return {
        "correct": not checker.problems,
        "attempted": sum(o["attempted"] for o in passes) + len(rounds) * (workloads.RIDGE_REPEATS + 1),
        "failed": sum(o["failed"] for o in passes),
        "metrics": {name: {"value": float(value), "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    source = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(source, "repro", "__init__.py")):
        print(f"no program to benchmark: {source}/repro is missing "
              "(run from the repository root)", file=sys.stderr)
        return 2
    sys.path.insert(0, source)
    result = run(workloads.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
