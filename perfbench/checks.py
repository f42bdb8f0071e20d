"""Reference answers and the tolerance contract the benchmark checks.

Counts must match exactly.  A float sum of ``m`` terms may differ from
the numpy reference by at most ``m * eps * sum(|term|)``, the standard
bound on the rounding error of any summation order; anything further
off is a wrong answer.  Models derived from sums (correlation,
regression) are compared with the same model built from the numpy
summary of the same rows.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.core.models.correlation import CorrelationModel
from repro.core.models.regression import LinearRegressionModel
from repro.core.summary import AugmentedSummary, MatrixType, SummaryStatistics

EPS = float(np.finfo(float).eps)
#: relative tolerance for quantities derived from checked sums
DERIVED_RTOL = 1e-7


def sums_match(got: Any, ref: Any, abs_ref: Any, terms: int) -> bool:
    got = np.asarray(got, dtype=float)
    ref = np.asarray(ref, dtype=float)
    bound = max(terms, 1) * EPS * np.asarray(abs_ref, dtype=float)
    return got.shape == ref.shape and bool(np.all(np.abs(got - ref) <= bound))


class SummaryReference:
    """Running numpy (n, L, Q) of a table, with the sums of magnitudes
    the tolerance bound needs.  ``extend`` folds in appended rows."""

    def __init__(self, d: int) -> None:
        self.n = 0
        self.L = np.zeros(d)
        self.Q = np.zeros((d, d))
        self.abs_L = np.zeros(d)
        self.abs_Q = np.zeros((d, d))

    @classmethod
    def of(cls, X: np.ndarray) -> "SummaryReference":
        ref = cls(X.shape[1])
        ref.extend(X)
        return ref

    def extend(self, X: np.ndarray) -> None:
        A = np.abs(X)
        self.n += X.shape[0]
        self.L = self.L + X.sum(axis=0)
        self.Q = self.Q + X.T @ X
        self.abs_L = self.abs_L + A.sum(axis=0)
        self.abs_Q = self.abs_Q + A.T @ A

    def matches(self, stats: SummaryStatistics) -> bool:
        if stats.n != self.n or stats.d != self.L.shape[0]:
            return False
        lower = np.tril_indices(stats.d)
        return sums_match(stats.L, self.L, self.abs_L, self.n) and sums_match(
            stats.Q[lower], self.Q[lower], self.abs_Q[lower], self.n
        )


def scores_match(
    rows: Sequence[tuple], ids: np.ndarray, X: np.ndarray, beta: np.ndarray
) -> bool:
    """Check ``(id, yhat)`` rows against ``beta[0] + X @ beta[1:]``;
    ``ids[k]`` is the id of ``X[k]`` and every id must be scored once."""
    if len(rows) != len(ids):
        return False
    got_ids = np.fromiter((row[0] for row in rows), dtype=np.int64, count=len(rows))
    got = np.fromiter((row[1] for row in rows), dtype=float, count=len(rows))
    order = np.argsort(got_ids, kind="stable")
    want = np.argsort(ids, kind="stable")
    if not np.array_equal(got_ids[order], ids[want]):
        return False
    Xs = X[want]
    ref = beta[0] + Xs @ beta[1:]
    abs_ref = abs(beta[0]) + np.abs(Xs) @ np.abs(beta[1:])
    return sums_match(got[order], ref, abs_ref, X.shape[1] + 1)


def correlation_matches(model: CorrelationModel, ref: CorrelationModel) -> bool:
    return model.n == ref.n and bool(
        np.allclose(model.rho, ref.rho, rtol=DERIVED_RTOL, atol=DERIVED_RTOL)
    )


def regression_reference(X: np.ndarray, y: np.ndarray) -> LinearRegressionModel:
    Z = np.column_stack([np.ones(X.shape[0]), X, y])
    stats = SummaryStatistics.from_matrix(Z, MatrixType.TRIANGULAR)
    return LinearRegressionModel.from_summary(AugmentedSummary(stats))


def regression_matches(model: LinearRegressionModel, ref: LinearRegressionModel) -> bool:
    return model.n == ref.n and bool(
        np.allclose(model.beta, ref.beta, rtol=DERIVED_RTOL, atol=DERIVED_RTOL)
    )
