"""The three workloads: their data, update streams, rates and set-up.

Every input is generated from the run's seed; the program only ever sees
the generated ``Update`` batches and aggregate queries.  Sizes are chosen so
that one run of ``--seconds 35`` finishes several stream passes and training
rounds on a 2-CPU machine (see README.md for the figures).
"""

from __future__ import annotations

import pickle
import time
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Tuple

import streams

#: Checkpoint sync policy of every stream workload (flush per batch, no fsync;
#: checkpoints themselves always fsync).
SYNC = "batch"
#: Offered read rates of the open-loop read generator in loaded passes, the
#: same on every stream workload: covariance-batch ``query()`` reads and
#: ``statistics()`` reads per second (README.md says how they were chosen).
QUERY_RATE = 3.0
STATS_RATE = 12.0
#: Decision-tree depth and ridge repetitions of one training round.
TREE_DEPTH = 4
RIDGE_REPEATS = 3


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str                 # "retailer" | "tpcds"
    sizes: Tuple[Tuple[str, int], ...]   # keyword arguments of the dataset generator
    stream: str                  # "insert" | "churn" | "trickle"
    updates: int                 # stream length (insert streams: the whole database)
    batch: int                   # updates per writer batch
    checkpoint_every: int        # batches between periodic checkpoints
    stream_share: float          # share of --seconds spent on stream passes
    why: str


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "retailer-churn", "retailer",
            (("inventory_rows", 12000), ("stores", 20), ("items", 80), ("dates", 60)),
            "churn", 20000, 100, 200, 0.75,
            "Zipf delete/reinsert churn on a preloaded Retailer database: "
            "tombstones make publish and compaction dominate",
        ),
        Workload(
            "retailer-trickle", "retailer",
            (("inventory_rows", 1000), ("stores", 10), ("items", 40), ("dates", 20)),
            "trickle", 2000, 1, 2000, 0.75,
            "single-update batches on a small database: the per-tuple F-IVM "
            "path and per-batch fixed costs",
        ),
        Workload(
            "tpcds-train", "tpcds",
            (("sales_rows", 20000), ("items", 90), ("customers", 200), ("stores", 12), ("dates", 50)),
            "insert", 0, 100, 100, 0.6,
            "insert-only TPC-DS load (F-IVM, checkpoints, no tombstones), then "
            "training: LMFAO engine, sigma, ridge and a depth-4 tree",
        ),
    )
}


def dataset(workload: Workload, seed: int):
    """``(database, query, features)`` of the workload's generated dataset."""
    from repro.datasets import (
        RETAILER_FEATURES, TPCDS_FEATURES, retailer_database, retailer_query,
        tpcds_database, tpcds_query,
    )

    sizes = dict(workload.sizes)
    if workload.dataset == "retailer":
        return retailer_database(seed=seed, **sizes), retailer_query(), RETAILER_FEATURES
    return tpcds_database(seed=seed, **sizes), tpcds_query(), TPCDS_FEATURES


def _new_inventory_row(database):
    """A fresh Retailer ``Inventory`` row over the existing dimension keys."""
    stores = len(database.relation("Stores"))
    items = len(database.relation("Items"))
    dates = len(database.relation("Weather")) // max(stores, 1)

    def draw(rng):
        return (
            int(rng.integers(stores)), int(rng.integers(dates)), int(rng.integers(items)),
            round(float(rng.uniform(0.0, 250.0)), 2),
        )

    return draw


@dataclass
class Setup:
    """Everything a run needs before it measures anything."""

    query: object
    features: dict
    schemas: Dict[str, Tuple[str, ...]]
    fact: str
    base_blob: bytes                      # pickled maintainer at the stream's start
    base: streams.LiveMultiset            # the same start state, as the benchmark's multiset
    batches: List[list]                   # the stream as lists of repro Update objects
    triples: List[List[streams.Triple]]   # the same batches as plain triples
    generate_s: float                     # dataset generation
    program_s: float                      # generation + maintainer build, preload and pickle


def build(workload: Workload, seed: int) -> Setup:
    """Generate the data and stream, and build the pickled starting maintainer.

    Only the program's share is timed: dataset generation, the maintainer's
    construction and preload, and its pickle.  The benchmark's own multiset,
    stream and ``Update`` batches are built outside the timer.
    """
    from repro.ivm.base import Update
    from repro.ivm.fivm import FIVM

    clock = time.perf_counter
    started = clock()
    database, query, features = dataset(workload, seed)
    generate_s = clock() - started
    relations = {relation.name: Counter(dict(relation.items())) for relation in database}
    schemas = {relation.name: tuple(relation.schema.names) for relation in database}
    fact = query.relation_names[0]
    preload = [] if workload.stream == "insert" else [
        Update(name, row, count)
        for name in sorted(relations)
        for row, count in relations[name].items()
    ]
    started = clock()
    maintainer = FIVM(database, query, features["continuous"])
    if preload:
        maintainer.apply_batch(preload)
    base_blob = pickle.dumps(maintainer, protocol=4)
    program_s = generate_s + clock() - started
    if workload.stream == "insert":
        base = streams.LiveMultiset({name: Counter() for name in relations})
        stream = streams.insert_stream(relations, seed)
    else:
        base = streams.LiveMultiset(relations)
        live = base.copy()
        if workload.stream == "churn":
            stream = streams.churn_stream(
                live, fact,
                streams.MeasureEditor(3, 0.0, 250.0),
                {
                    "Items": streams.MeasureEditor(3, 0.5, 300.0),
                    "Weather": streams.MeasureEditor(2, -5.0, 35.0),
                },
                workload.updates, seed,
            )
        else:
            stream = streams.trickle_stream(
                live, fact, _new_inventory_row(database), workload.updates, seed,
            )
    triples = [stream[start:start + workload.batch] for start in range(0, len(stream), workload.batch)]
    batches = [[Update(name, row, count) for name, row, count in batch] for batch in triples]
    return Setup(
        query=query,
        features=features,
        schemas=schemas,
        fact=fact,
        base_blob=base_blob,
        base=base,
        batches=batches,
        triples=triples,
        generate_s=generate_s,
        program_s=program_s,
    )
