"""The logit check that training and scoring share, and DNE's batch energy
normalization."""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError


def as_logits(x, ndim: int) -> np.ndarray:
    """x as a float64 logit vector (ndim=1) or matrix (ndim=2) of k >= 1 finite
    logits per row."""
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != ndim or a.shape[-1] < 1:
        raise InvalidInputError(f"expected a {ndim}-D logit array with k >= 1, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise InvalidInputError("logits contain non-finite entries")
    return a


def batch_energy_normalize(batch) -> np.ndarray:
    """Per-class normalization of exponentiated logits across a logit matrix
    (ID rows and outlier rows stacked in one batch).

    Entry (i, j) is exp(f_j(x_i)) / Σ_i' exp(f_j(x_i')), the denominator running
    over every row (ID and outlier together). Each column sums to 1.
    """
    rows = as_logits(batch, 2)
    if rows.shape[0] < 1:
        raise InvalidInputError("empty batch")
    e = rows - np.maximum.reduce(rows.T.copy(), axis=1)  # a max is exact in any order
    np.exp(e, out=e)
    return np.divide(e, np.add.reduce(e, axis=0, keepdims=True), out=e)
