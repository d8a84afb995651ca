"""Energy scoring algebra: global energy, calibrated energy, batch energy normalization.

All scores are linear-scale sums of exponentiated logits. Exponentials are
evaluated with a max-shift so intermediate values never overflow; if the final
linear-scale value itself is not representable in float64 the operation raises
EnergyOverflowError instead of returning Inf.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import EnergyOverflowError, InvalidInputError, ShapeError

_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def _as_logits(x, ndim: int) -> np.ndarray:
    """x as a float64 logit vector (ndim=1) or matrix (ndim=2) of k >= 1 finite
    logits per row."""
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != ndim or a.shape[-1] < 1:
        raise ShapeError(f"expected a {ndim}-D logit array with k >= 1, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise InvalidInputError("logits contain non-finite entries")
    return a


def _scaled(m: float, total: float, what: str) -> float:
    """exp(m) * total, raising EnergyOverflowError unless exp(m) and the product
    are float64 values. total > 0 here: it holds a term exp(0) / (1 + p)."""
    if m >= _LOG_FLOAT_MAX or m + math.log(total) >= _LOG_FLOAT_MAX:
        raise EnergyOverflowError(f"{what} exceeds float64 range")
    value = math.exp(m) * total
    if not math.isfinite(value):
        raise EnergyOverflowError(f"{what} exceeds float64 range")
    return value


def _scaled_rows(m: np.ndarray, totals: np.ndarray, what: str) -> np.ndarray:
    """_scaled of each row; an error names the first row _scaled refuses as a sample.
    math.log and math.exp, which round differently from np.log and np.exp, keep
    the guard and the scale exactly those of _scaled."""
    logs = np.fromiter(map(math.log, totals.tolist()), float, m.size)
    over = (m >= _LOG_FLOAT_MAX) | (m + logs >= _LOG_FLOAT_MAX)
    with np.errstate(over="ignore"):  # math.exp raises where the guard fails: those get exp(0)
        values = np.fromiter(map(math.exp, np.where(over, 0.0, m).tolist()), float, m.size) * totals
    bad = np.flatnonzero(over | ~np.isfinite(values))
    if bad.size:
        raise EnergyOverflowError(f"sample {bad[0]}: {what} exceeds float64 range")
    return values


def _as_prior(p_out, k: int) -> np.ndarray:
    p = np.asarray(p_out, dtype=np.float64)
    if p.ndim != 1 or p.shape[0] != k:
        raise ShapeError(f"p_out has shape {p.shape}, expected ({k},)")
    if not np.isfinite(p).all() or (p < 0).any():
        raise InvalidInputError("p_out entries must be finite and non-negative")
    return p


def _shifted_exp(rows):
    """The row max m and e = exp(f - m) of a checked logit row or C-contiguous
    matrix (its rows then sum as 1-D rows do): every energy here is built on it."""
    m = np.maximum.reduce(rows, axis=-1)
    return m, np.exp(rows - m[..., None])


def _energies(m, e, p=None) -> np.ndarray:
    """Σ_j exp(f_j), or Σ_j exp(f_j) / (1 + p_j) given p, of each row of a
    _shifted_exp (m, e) pair, with _scaled_rows' guard."""
    if p is None:
        return _scaled_rows(m, e.sum(axis=1), "global energy")
    return _scaled_rows(m, (e / (1.0 + p)).sum(axis=1), "calibrated energy")


def global_energies(rows) -> np.ndarray:
    """Sum of exponentiated logits, Σ_j exp(f_j), of each row of a logit matrix.
    Strictly positive; per row the float ops of doda's one-sample step."""
    return _energies(*_shifted_exp(np.ascontiguousarray(_as_logits(rows, 2))))


def calibrated_energies(rows, p_out) -> np.ndarray:
    """Energy of each row of a logit matrix with each class term damped by one
    outlier distribution: Σ_j exp(f_j) / (1 + p_out_j). Equals global_energies
    when p_out is all zero."""
    rows = np.ascontiguousarray(_as_logits(rows, 2))  # row sums as in the 1-D case
    p = _as_prior(p_out, rows.shape[1])
    return _energies(*_shifted_exp(rows), p)


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
