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


def _as_logit_vector(logits) -> np.ndarray:
    v = np.asarray(logits, dtype=np.float64)
    if v.ndim != 1 or v.shape[0] < 1:
        raise ShapeError(f"expected a 1-D logit vector, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise InvalidInputError("logits contain non-finite entries")
    return v


def _as_logit_matrix(rows, name: str = "logits") -> np.ndarray:
    m = np.asarray(rows, dtype=np.float64)
    if m.ndim != 2 or m.shape[1] < 1:
        raise ShapeError(f"expected a 2-D {name} matrix with k >= 1, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise InvalidInputError(f"{name} contain non-finite entries")
    return m


def global_energy(logits) -> float:
    """Sum of exponentiated logits, Σ_j exp(f_j). Strictly positive."""
    v = _as_logit_vector(logits)
    m = float(v.max())
    total = float(np.exp(v - m).sum())
    # total >= 1, so m bounds the log of the result from below.
    if m + math.log(total) >= _LOG_FLOAT_MAX:
        raise EnergyOverflowError("global energy exceeds float64 range")
    value = math.exp(m) * total
    if not math.isfinite(value):
        raise EnergyOverflowError("global energy exceeds float64 range")
    return value


def global_energies(rows) -> np.ndarray:
    """global_energy of each row of a logit matrix, equal to it bit for bit."""
    rows = np.ascontiguousarray(_as_logit_matrix(rows))  # row sums as in the 1-D case
    m = rows.max(axis=1)
    totals = np.exp(rows - m[:, None]).sum(axis=1)
    # math.log and math.exp, which round differently from np.log and np.exp,
    # keep the guard and the scale exactly those of global_energy.
    if (m + np.fromiter(map(math.log, totals.tolist()), float, m.size) >= _LOG_FLOAT_MAX).any():
        raise EnergyOverflowError("global energy exceeds float64 range")
    with np.errstate(over="ignore"):
        values = np.fromiter(map(math.exp, m.tolist()), float, m.size) * totals
    if not np.isfinite(values).all():
        raise EnergyOverflowError("global energy exceeds float64 range")
    return values


def exp_logits(logits) -> np.ndarray:
    """Per-class exponentiated logits exp(f_j), with the same overflow guard."""
    v = _as_logit_vector(logits)
    if float(v.max()) >= _LOG_FLOAT_MAX:
        raise EnergyOverflowError("exp(logit) exceeds float64 range")
    return np.exp(v)


def calibrated_energy(logits, p_out) -> float:
    """Energy with each class term damped by the outlier distribution:
    Σ_j exp(f_j) / (1 + p_out_j). Equals global_energy when p_out is all zero."""
    v = _as_logit_vector(logits)
    p = np.asarray(p_out, dtype=np.float64)
    if p.ndim != 1 or p.shape[0] != v.shape[0]:
        raise ShapeError(f"p_out has shape {p.shape}, expected ({v.shape[0]},)")
    if not np.isfinite(p).all() or (p < 0).any():
        raise InvalidInputError("p_out entries must be finite and non-negative")
    m = float(v.max())
    total = float((np.exp(v - m) / (1.0 + p)).sum())
    if total > 0.0 and m + math.log(total) >= _LOG_FLOAT_MAX:
        raise EnergyOverflowError("calibrated energy exceeds float64 range")
    value = math.exp(m) * total
    if not math.isfinite(value):
        raise EnergyOverflowError("calibrated energy exceeds float64 range")
    return value


def batch_energy_normalize(batch) -> np.ndarray:
    """Per-class normalization of exponentiated logits across a logit matrix
    (ID rows and outlier rows stacked in one batch).

    Entry (i, j) is exp(f_j(x_i)) / Σ_i' exp(f_j(x_i')), the denominator running
    over every row (ID and outlier together). Each column sums to 1.
    """
    rows = _as_logit_matrix(batch)
    if rows.shape[0] < 1:
        raise InvalidInputError("empty batch")
    shifted = rows - rows.max(axis=0, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=0, keepdims=True)
