"""Energy algebra: global energy and batch energy normalization.

All energies are linear-scale sums of exponentiated logits, evaluated with a
max-shift so intermediate values never overflow. Only the global energy G is
range-checked: a G past float64 range raises NumericError instead of
returning Inf. The check returns G's scale exp(max f) too, and doda scores a
sample with the calibrated energy Σ_j exp(f_j) / (1 + P_j) as that scale times
Σ_j exp(f_j - max f) / (1 + P_j), unchecked: with P >= 0 each term is at most
the one of G, so the score is at most G.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import InvalidInputError, NumericError

_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def _as_logits(x, ndim: int) -> np.ndarray:
    """x as a float64 logit vector (ndim=1) or matrix (ndim=2) of k >= 1 finite
    logits per row."""
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != ndim or a.shape[-1] < 1:
        raise InvalidInputError(f"expected a {ndim}-D logit array with k >= 1, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise InvalidInputError("logits contain non-finite entries")
    return a


def _scaled(m: float, total: float) -> tuple[float, float]:
    """exp(m) and G = exp(m) * total, raising NumericError unless both are
    float64 values. total > 0 here: it holds a term exp(0)."""
    if m >= _LOG_FLOAT_MAX or m + math.log(total) >= _LOG_FLOAT_MAX:
        raise NumericError("global energy exceeds float64 range")
    scale = math.exp(m)
    value = scale * total
    if not math.isfinite(value):
        raise NumericError("global energy exceeds float64 range")
    return scale, value


def _scaled_rows(m: np.ndarray, totals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_scaled of each row; an error names the first row _scaled refuses as a sample.
    A vectorised np.log screens the rows: only those within 1 of the guard, where
    np.log and math.log may round apart, take _scaled's math.log guard. The scale
    keeps math.exp, which rounds differently from np.exp, so it is _scaled's too."""
    over = np.zeros(m.size, bool)  # log(total) >= 0: a row with m >= the limit is near
    near = np.flatnonzero(m + np.log(totals) >= _LOG_FLOAT_MAX - 1)
    over[near] = m[near] + np.fromiter(map(math.log, totals[near].tolist()), float) >= _LOG_FLOAT_MAX
    with np.errstate(over="ignore"):  # math.exp raises where the guard fails: those get exp(0)
        scales = np.fromiter(map(math.exp, np.where(over, 0.0, m).tolist()), float, m.size)
        values = scales * totals
    bad = np.flatnonzero(over | ~np.isfinite(values))
    if bad.size:
        raise NumericError(f"sample {bad[0]}: global energy exceeds float64 range")
    return scales, values


def _shifted_exp(rows):
    """The row max m and e = exp(f - m) of a checked logit row or C-contiguous
    matrix (its rows then sum as 1-D rows do): every energy here is built on it."""
    m = np.maximum.reduce(rows, axis=-1)
    return m, np.exp(rows - m[..., None])


def global_energies(rows) -> np.ndarray:
    """Sum of exponentiated logits, Σ_j exp(f_j), of each row of a logit matrix.
    Strictly positive; per row the float ops of doda's one-sample step."""
    m, e = _shifted_exp(np.ascontiguousarray(_as_logits(rows, 2)))
    return _scaled_rows(m, e.sum(axis=1))[1]


def batch_energy_normalize(batch) -> np.ndarray:
    """Per-class normalization of exponentiated logits across a logit matrix
    (ID rows and outlier rows stacked in one batch).

    Entry (i, j) is exp(f_j(x_i)) / Σ_i' exp(f_j(x_i')), the denominator running
    over every row (ID and outlier together). Each column sums to 1.
    """
    rows = _as_logits(batch, 2)
    if rows.shape[0] < 1:
        raise InvalidInputError("empty batch")
    shifted = rows - rows.max(axis=0, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=0, keepdims=True)
