"""Agreement metrics between a clustering and reference labels."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError


@dataclass
class LabeledPartition:
    """Predicted cluster labels next to reference labels, point by point.

    ``include`` masks the points entering every metric (e.g. to drop halo
    points); it defaults to all points.
    """

    predicted: np.ndarray
    truth: np.ndarray
    include: np.ndarray | None = None

    def __post_init__(self):
        self.predicted = np.asarray(self.predicted, dtype=np.int64)
        self.truth = np.asarray(self.truth, dtype=np.int64)
        if self.predicted.shape != self.truth.shape or self.predicted.ndim != 1:
            raise DataError("predicted and truth labels must be equal-length vectors")
        if self.include is None:
            self.include = np.ones(self.predicted.shape[0], dtype=bool)
        else:
            self.include = np.asarray(self.include, dtype=bool)
            if self.include.shape != self.predicted.shape:
                raise DataError("include mask must match the label vectors")
        if not self.include.any():
            raise DataError("no points left after masking")

    def active(self) -> tuple[np.ndarray, np.ndarray]:
        return self.predicted[self.include], self.truth[self.include]


def _contingency(pred: np.ndarray, truth: np.ndarray):
    pred_vals, pred_idx = np.unique(pred, return_inverse=True)
    truth_vals, truth_idx = np.unique(truth, return_inverse=True)
    table = np.zeros((truth_vals.size, pred_vals.size), dtype=np.int64)
    np.add.at(table, (truth_idx, pred_idx), 1)
    return table, truth_vals, pred_vals


def majority_labels(partition: LabeledPartition) -> dict[int, int]:
    """Most frequent reference label per cluster, ties to the smaller label."""
    table, truth_vals, pred_vals = _contingency(*partition.active())
    return dict(zip(pred_vals.tolist(), truth_vals[table.argmax(axis=0)].tolist()))


def purity(partition: LabeledPartition) -> dict[int, float]:
    """Fraction of each cluster carrying its majority label."""
    table, _, pred_vals = _contingency(*partition.active())
    return dict(zip(pred_vals.tolist(), (table.max(axis=0) / table.sum(axis=0)).tolist()))


def confusion_matrix(partition: LabeledPartition):
    """Reference labels versus majority-mapped predictions.

    Returns (matrix, label_values): matrix[t, p] counts points of
    reference label t whose cluster's majority label is p; both axes use
    the reference label vocabulary, which holds every majority label.
    """
    table, truth_vals, _ = _contingency(*partition.active())
    matrix = np.zeros((truth_vals.size, truth_vals.size), dtype=np.int64)
    # each cluster's column of counts lands in its majority label's column
    np.add.at(matrix.T, table.argmax(axis=0), table.T)
    return matrix, truth_vals


def nmi(partition: LabeledPartition) -> float:
    """Normalized mutual information with square-root normalization.

    Natural logarithms; two degenerate conventions: both sides constant
    gives 1, exactly one side constant gives 0.  A perfect one-to-one
    match returns exactly 1.0.
    """
    pred, truth = partition.active()
    table, _, _ = _contingency(pred, truth)
    n = int(table.sum())
    row = table.sum(axis=1)
    col = table.sum(axis=0)

    h_truth = _entropy(row, n)
    h_pred = _entropy(col, n)
    if h_truth == 0.0 and h_pred == 0.0:
        return 1.0
    if h_truth == 0.0 or h_pred == 0.0:
        return 0.0
    if ((table > 0).sum(axis=0) <= 1).all() and ((table > 0).sum(axis=1) <= 1).all():
        # one-to-one correspondence between clusters and labels
        return 1.0

    info = 0.0
    for t in range(table.shape[0]):
        for p in range(table.shape[1]):
            c = int(table[t, p])
            if c == 0:
                continue
            info += (c / n) * math.log((n * c) / float(int(row[t]) * int(col[p])))
    value = info / math.sqrt(h_truth * h_pred)
    return min(max(value, 0.0), 1.0)


def _entropy(counts: np.ndarray, n: int) -> float:
    h = 0.0
    for c in counts:
        c = int(c)
        if c > 0:
            h += (c / n) * math.log(n / c)
    return h
