"""Reference results computed apart from the program under test.

Everything here starts from the benchmark's own netted multiset of base
rows and uses numpy only: a sort-based natural hash join, the covariance
moments of the join, a one-hot design matrix, least squares and tree leaf
routing.  Nothing from ``repro`` is imported.  ``self_test`` checks the join
against a small join computed by hand; run ``python3 perfbench/reference.py``
to run it alone.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np


class Table:
    """A multiset relation as named numpy columns plus a weight per row."""

    def __init__(self, columns: Dict[str, np.ndarray], weights: np.ndarray) -> None:
        self.columns = columns
        self.weights = weights

    def __len__(self) -> int:
        return len(self.weights)

    @staticmethod
    def from_rows(names: Sequence[str], rows: Mapping[Tuple, int]) -> "Table":
        items = sorted(rows.items(), key=repr)
        keys = [row for row, _count in items]
        columns = {
            name: np.array([row[position] for row in keys])
            for position, name in enumerate(names)
        }
        if not keys:
            columns = {name: np.array([]) for name in names}
        weights = np.array([count for _row, count in items], dtype=np.float64)
        return Table(columns, weights)


def _key_codes(left: List[np.ndarray], right: List[np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
    """One int64 code per row over the shared columns, consistent across sides."""
    left_code = np.zeros(len(left[0]), dtype=np.int64)
    right_code = np.zeros(len(right[0]), dtype=np.int64)
    for left_column, right_column in zip(left, right):
        _values, inverse = np.unique(
            np.concatenate([left_column, right_column]), return_inverse=True
        )
        radix = int(inverse.max()) + 1 if len(inverse) else 1
        left_code = left_code * radix + inverse[: len(left_column)]
        right_code = right_code * radix + inverse[len(left_column):]
    return left_code, right_code


def natural_join(left: Table, right: Table) -> Table:
    """Sort-based multiset join on the columns the two tables share."""
    shared = [name for name in left.columns if name in right.columns]
    if not shared:
        raise ValueError("natural_join needs at least one shared column")
    if not len(left) or not len(right):
        columns = {name: column[:0] for name, column in left.columns.items()}
        for name, column in right.columns.items():
            columns.setdefault(name, column[:0])
        return Table(columns, np.zeros(0))
    left_code, right_code = _key_codes(
        [left.columns[name] for name in shared], [right.columns[name] for name in shared]
    )
    order = np.argsort(right_code, kind="stable")
    sorted_codes = right_code[order]
    low = np.searchsorted(sorted_codes, left_code, side="left")
    high = np.searchsorted(sorted_codes, left_code, side="right")
    counts = high - low
    left_index = np.repeat(np.arange(len(left)), counts)
    starts = np.repeat(low - np.concatenate([[0], np.cumsum(counts)[:-1]]), counts)
    right_index = order[starts + np.arange(int(counts.sum()))]
    columns = {name: column[left_index] for name, column in left.columns.items()}
    for name, column in right.columns.items():
        if name not in columns:
            columns[name] = column[right_index]
    return Table(columns, left.weights[left_index] * right.weights[right_index])


def join_all(schemas: Mapping[str, Sequence[str]], relations: Mapping[str, Counter], first: str) -> Table:
    """Join every relation, starting at ``first`` and always adding a connected one."""
    tables = {name: Table.from_rows(schemas[name], relations[name]) for name in schemas}
    result = tables.pop(first)
    while tables:
        name = next(
            name for name in sorted(tables)
            if set(schemas[name]) & set(result.columns)
        )
        result = natural_join(result, tables.pop(name))
    return result


def moments(table: Table, features: Sequence[str]) -> Tuple[float, np.ndarray, np.ndarray]:
    """Count, per-feature sums and the quadratic form of the weighted join."""
    data = np.stack([table.columns[name].astype(np.float64) for name in features], axis=1)
    weighted = data * table.weights[:, None]
    return float(table.weights.sum()), weighted.sum(axis=0), data.T @ weighted


def design_matrix(table: Table, entries: Sequence[Tuple[str, Optional[object], int]]) -> np.ndarray:
    """One-hot design matrix whose column ``p`` is the entry at position ``p``.

    ``entries`` are ``(feature, value, position)`` triples: value ``None``
    is a continuous column (or the intercept, named ``__intercept__``), any
    other value the indicator of that category.
    """
    matrix = np.zeros((len(table), len(entries)))
    for feature, value, position in entries:
        if feature == "__intercept__":
            matrix[:, position] = 1.0
        elif value is None:
            matrix[:, position] = table.columns[feature].astype(np.float64)
        else:
            matrix[:, position] = table.columns[feature] == value
    return matrix


def categorical_domains(table: Table, categorical: Sequence[str]) -> Dict[str, set]:
    return {
        feature: set(np.unique(table.columns[feature][table.weights != 0]).tolist())
        for feature in categorical
    }


def close(actual, expected, rtol: float = 1e-8) -> bool:
    """Equal within ``rtol`` of the largest magnitude in ``expected``."""
    actual = np.asarray(actual, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    if actual.shape != expected.shape:
        return False
    scale = max(float(np.max(np.abs(expected))) if expected.size else 0.0, 1.0)
    return bool(np.all(np.abs(actual - expected) <= rtol * scale))


def rmse(matrix: np.ndarray, target: np.ndarray, weights: np.ndarray, coefficients: np.ndarray) -> float:
    residual = matrix @ coefficients - target
    return float(np.sqrt(np.sum(weights * residual * residual) / np.sum(weights)))


def least_squares_rmse(matrix: np.ndarray, target: np.ndarray, weights: np.ndarray) -> float:
    """Training RMSE of the minimum-norm least-squares fit (collinear columns allowed)."""
    root = np.sqrt(weights)
    coefficients, *_ = np.linalg.lstsq(matrix * root[:, None], target * root, rcond=None)
    return rmse(matrix, target, weights, coefficients)


def leaf_masks(table: Table, node, mask: Optional[np.ndarray] = None):
    """Yield ``(leaf, mask of join rows routed to it)`` for a fitted tree.

    A node's ``left`` child takes the rows meeting its condition
    (``feature >= threshold`` or ``feature == category``).
    """
    if mask is None:
        mask = np.ones(len(table), dtype=bool)
    if node.left is None and node.right is None:
        yield node, mask
        return
    column = table.columns[node.split_feature]
    if node.split_threshold is not None:
        condition = column.astype(np.float64) >= node.split_threshold
    else:
        condition = column == node.split_category
    yield from leaf_masks(table, node.left, mask & condition)
    yield from leaf_masks(table, node.right, mask & ~condition)


def self_test() -> List[str]:
    """Check the join and moments on a small join computed by hand."""
    problems: List[str] = []
    # R(a, x) = {(1, 2.0), (1, 3.0) x2, (2, 5.0)}; S(a, b, y) = {(1, "u", 10.0),
    # (1, "v", 1.0), (3, "u", 7.0)}; T(b, z) = {("u", 4.0), ("v", 0.5) x3}.
    relations = {
        "R": Counter({(1, 2.0): 1, (1, 3.0): 2, (2, 5.0): 1}),
        "S": Counter({(1, "u", 10.0): 1, (1, "v", 1.0): 1, (3, "u", 7.0): 1}),
        "T": Counter({("u", 4.0): 1, ("v", 0.5): 3}),
    }
    schemas = {"R": ("a", "x"), "S": ("a", "b", "y"), "T": ("b", "z")}
    joined = join_all(schemas, relations, "R")
    # By hand: a=1 pairs each R row with both S rows; b=u weighs 1, b=v 3.
    # (x, y, z, weight): (2,10,4,1) (2,1,.5,3) (3,10,4,2) (3,1,.5,6).
    count, sums, quadratic = moments(joined, ["x", "y", "z"])
    if count != 12.0:
        problems.append(f"self-test count {count} != 12")
    if not close(sums, [2 + 6 + 6 + 18, 10 + 3 + 20 + 6, 4 + 1.5 + 8 + 3], 1e-12):
        problems.append(f"self-test sums {sums}")
    expected_xy = 2 * 10 * 1 + 2 * 1 * 3 + 3 * 10 * 2 + 3 * 1 * 6
    expected_zz = 16 * 1 + 0.25 * 3 + 16 * 2 + 0.25 * 6
    if not close([quadratic[0, 1], quadratic[2, 2]], [expected_xy, expected_zz], 1e-12):
        problems.append(f"self-test quadratic form {quadratic}")
    entries = [("__intercept__", None, 0), ("x", None, 1), ("b", "u", 2), ("b", "v", 3)]
    matrix = design_matrix(joined, entries)
    gram = matrix.T @ (matrix * joined.weights[:, None])
    if not close(gram[2:, 2:], [[3.0, 0.0], [0.0, 9.0]], 1e-12):
        problems.append(f"self-test one-hot gram {gram[2:, 2:]}")
    return problems


if __name__ == "__main__":
    failures = self_test()
    print("reference self-test:", "ok" if not failures else failures)
    raise SystemExit(1 if failures else 0)
