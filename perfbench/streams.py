"""Seeded update streams that only ever delete rows live at that point.

The generator keeps its own multiset of every relation and checks each
delete against it, so a stream never drives a row's multiplicity below zero
(``repro.datasets._synthetic.skewed_update_stream`` does, which is why it is
not used here).  Streams are flat lists of ``(relation, row, multiplicity)``
triples; the caller cuts them into batches.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Sequence, Tuple

import numpy as np

Row = Tuple
Triple = Tuple[str, Row, int]

#: Zipf exponent of the hot fact rows, in both churn and trickle streams.
ZIPF_ALPHA = 1.1
#: Churn: a rewrite event makes 1 to MAX_BURST versions of its row; an
#: AWAY_SHARE of events instead delete the row and reinsert it 1 to MAX_AWAY
#: updates later; a DIMENSION_SHARE of events rewrite a dimension row.
MAX_BURST = 4
AWAY_SHARE = 0.2
MAX_AWAY = 400
DIMENSION_SHARE = 0.02
#: Trickle: share of single-row deletes.  35%, not half: with an even mix the
#: median batch would sit between the insert and the (compacting) delete
#: latency clusters and jump between them from run to run.
TRICKLE_DELETE_SHARE = 0.35


class LiveMultiset:
    """Per-relation multiset of live rows; ``apply`` refuses dead deletes."""

    def __init__(self, relations: Dict[str, Counter]) -> None:
        self.relations = {name: Counter(rows) for name, rows in relations.items()}

    def copy(self) -> "LiveMultiset":
        return LiveMultiset(self.relations)

    def apply(self, relation: str, row: Row, multiplicity: int) -> None:
        rows = self.relations[relation]
        count = rows[row] + multiplicity
        if count < 0:
            raise ValueError(f"delete of a row that is not live: {relation} {row!r}")
        if count:
            rows[row] = count
        else:
            del rows[row]

    def apply_all(self, triples: Sequence[Triple]) -> None:
        for relation, row, multiplicity in triples:
            self.apply(relation, row, multiplicity)


class _Zipf:
    """Ranks ``0..n-1`` with probability proportional to ``1 / (rank + 1) ** alpha``."""

    def __init__(self, n: int, alpha: float, rng: np.random.Generator) -> None:
        weights = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** alpha
        self._cdf = np.cumsum(weights / weights.sum())
        self._rng = rng

    def sample(self) -> int:
        rank = int(np.searchsorted(self._cdf, self._rng.random(), side="right"))
        return min(rank, len(self._cdf) - 1)


def insert_stream(relations: Dict[str, Counter], seed: int) -> List[Triple]:
    """Every row of every relation as one shuffled insert per unit of multiplicity."""
    triples = [
        (name, row, 1)
        for name in sorted(relations)
        for row, count in sorted(relations[name].items(), key=repr)
        for _ in range(count)
    ]
    order = np.random.default_rng(seed).permutation(len(triples))
    return [triples[position] for position in order]


class MeasureEditor:
    """Re-draws one measure column of a row, keeping every key column."""

    def __init__(self, position: int, low: float, high: float) -> None:
        self.position = position
        self.low = low
        self.high = high

    def edit(self, row: Row, rng: np.random.Generator) -> Row:
        value = round(float(rng.uniform(self.low, self.high)), 2)
        return row[: self.position] + (value,) + row[self.position + 1 :]


def churn_stream(
    live: LiveMultiset,
    fact: str,
    fact_editor: MeasureEditor,
    dimension_editors: Dict[str, MeasureEditor],
    updates: int,
    seed: int,
) -> List[Triple]:
    """Zipf-skewed delete/reinsert churn over ``fact`` plus dimension updates.

    Each event picks a fact slot by Zipf rank (hot slots are a seeded
    permutation of the live rows) and either rewrites it in a burst of one
    to ``MAX_BURST`` versions (delete the live version, insert the next) or,
    with probability ``AWAY_SHARE``, deletes it and reinserts the same row
    between 1 and ``MAX_AWAY`` updates later.  A ``DIMENSION_SHARE`` of the
    events rewrites one measure of a random dimension row instead.  Every
    delete is checked against ``live``, which the stream mutates.
    """
    rng = np.random.default_rng(seed)
    slots: List[Row] = sorted(
        (row for row, count in live.relations[fact].items() for _ in range(count)),
        key=repr,
    )
    slots = [slots[position] for position in rng.permutation(len(slots))]
    zipf = _Zipf(len(slots), ZIPF_ALPHA, rng)
    away: Dict[int, Tuple[int, Row]] = {}   # slot -> (due position, row)
    dimensions = sorted(dimension_editors)
    dimension_rows = {
        name: sorted(live.relations[name], key=repr) for name in dimensions
    }
    out: List[Triple] = []

    def emit(relation: str, row: Row, multiplicity: int) -> None:
        live.apply(relation, row, multiplicity)
        out.append((relation, row, multiplicity))

    while len(out) < updates:
        for slot in [slot for slot, (due, _row) in away.items() if due <= len(out)]:
            emit(fact, away.pop(slot)[1], 1)
        if dimensions and rng.random() < DIMENSION_SHARE:
            name = dimensions[int(rng.integers(len(dimensions)))]
            rows = dimension_rows[name]
            position = int(rng.integers(len(rows)))
            new = dimension_editors[name].edit(rows[position], rng)
            emit(name, rows[position], -1)
            emit(name, new, 1)
            rows[position] = new
            continue
        slot = zipf.sample()
        if slot in away:
            continue
        if rng.random() < AWAY_SHARE:
            emit(fact, slots[slot], -1)
            away[slot] = (len(out) + int(rng.integers(1, MAX_AWAY + 1)), slots[slot])
            continue
        for _ in range(int(rng.integers(1, MAX_BURST + 1))):
            new = fact_editor.edit(slots[slot], rng)
            emit(fact, slots[slot], -1)
            emit(fact, new, 1)
            slots[slot] = new
    # Rows still away come back, so every pass ends on a full database.
    for slot in sorted(away):
        emit(fact, away[slot][1], 1)
    return out


def trickle_stream(
    live: LiveMultiset,
    fact: str,
    new_fact_row,
    updates: int,
    seed: int,
) -> List[Triple]:
    """Mixed single-row fact inserts and Zipf-chosen deletes of live rows.

    ``new_fact_row(rng)`` draws a fresh fact row.  Deletes pick a position
    in the live list by Zipf rank, so the rows at the front churn most.
    """
    rng = np.random.default_rng(seed)
    rows: List[Row] = sorted(
        (row for row, count in live.relations[fact].items() for _ in range(count)),
        key=repr,
    )
    rows = [rows[position] for position in rng.permutation(len(rows))]
    zipf = _Zipf(len(rows), ZIPF_ALPHA, rng)
    out: List[Triple] = []
    while len(out) < updates:
        if rng.random() < TRICKLE_DELETE_SHARE and rows:
            position = min(zipf.sample(), len(rows) - 1)
            row = rows[position]
            rows[position] = rows[-1]
            rows.pop()
            live.apply(fact, row, -1)
            out.append((fact, row, -1))
        else:
            row = new_fact_row(rng)
            rows.append(row)
            live.apply(fact, row, 1)
            out.append((fact, row, 1))
    return out
