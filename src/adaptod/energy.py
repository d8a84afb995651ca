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


def batch_energy_normalize(batch, out=None) -> np.ndarray:
    """Per-class normalization of exponentiated logits across a logit matrix
    (ID rows and outlier rows stacked in one batch).

    Entry (i, j) is exp(f_j(x_i)) / Σ_i' exp(f_j(x_i')), the denominator running
    over every row (ID and outlier together). Each column sums to 1. The result
    is written into out, a float64 array shaped as the batch (new if None).
    """
    rows = as_logits(batch, 2)
    if rows.shape[0] < 1:
        raise InvalidInputError("empty batch")
    e = np.empty(rows.shape) if out is None else out
    if e.shape != rows.shape:
        raise InvalidInputError(f"buffers of shape {e.shape} do not fit logits of shape "
                                f"{rows.shape}")
    np.subtract(rows, np.maximum.reduce(rows.T.copy(), axis=1), out=e)  # exact in any order
    np.exp(e, out=e)
    return np.divide(e, column_sums(e), out=e)


def column_sums(a, out=None) -> np.ndarray:
    """np.add.reduce(a, axis=0) of a C-contiguous matrix with no column of -0.0
    entries alone, at half its cost for the 192-row training batch: einsum adds
    the rows in the same order, from +0.0. It sums a single column in another
    order, so that one is reduced."""
    if a.shape[1] < 2:
        return np.add.reduce(a, axis=0, out=out)
    return np.einsum("ij->j", a, out=out)
