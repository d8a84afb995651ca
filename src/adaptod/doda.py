"""Streaming test-time adaptation of the outlier energy distribution.

Offline: fit a Z-score OOD filter (mean/std of training-ID global energy) and
initialize the outlier distribution from auxiliary outlier logits. Online: for
each test sample, first adapt the distribution if the filter flags the sample
as OOD, then score it with the calibrated energy. One pass, label-free, O(k)
state.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .energy import _LOG_FLOAT_MAX, _as_logits, _scaled, calibrated_energies, global_energies
from .errors import (AdaptOdError, EnergyOverflowError, InsufficientDataError,
                     InvalidInputError, ShapeError)

DEFAULT_ALPHA = 3.0


@dataclass(frozen=True)
class EnergyStats:
    """Training-ID global-energy statistics and the derived filter threshold."""

    mu_in: float
    sigma_in: float
    alpha: float
    r: float

    @classmethod
    def from_moments(cls, mu_in: float, sigma_in: float, alpha: float = DEFAULT_ALPHA):
        if not (math.isfinite(mu_in) and math.isfinite(sigma_in) and sigma_in >= 0):
            raise InvalidInputError("mu_in and sigma_in must be finite and sigma_in must be "
                                    f"non-negative, got {mu_in}, {sigma_in}")
        if not (math.isfinite(alpha) and alpha > 0):
            raise InvalidInputError(f"alpha must be finite and positive, got {alpha}")
        return cls(mu_in=mu_in, sigma_in=sigma_in, alpha=alpha, r=mu_in - alpha * sigma_in)


@dataclass(frozen=True)
class OutlierDistribution:
    """Per-class mean exponentiated logits of accepted OOD evidence, plus its count."""

    values: np.ndarray
    m: int

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 1:
            raise ShapeError(f"values must be 1-D, got shape {v.shape}")
        if not np.isfinite(v).all() or (v < 0).any():
            raise InvalidInputError("values must be finite and non-negative")
        if self.m < 0:
            raise InvalidInputError("count m must be non-negative")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def k(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class AdaptationEvent:
    sample_index: int
    accepted: bool
    global_energy: float
    calibrated_score: float


def fit_energy_stats(train_id_logits, alpha: float = DEFAULT_ALPHA) -> EnergyStats:
    """Mean and sample std (n-1) of global energy over training-ID logits,
    and the filter threshold R = mu - alpha * sigma."""
    rows = _as_logits(np.atleast_2d(np.asarray(train_id_logits, dtype=np.float64)), 2)
    if rows.shape[0] < 2:
        raise InsufficientDataError("need at least 2 samples to fit energy statistics")
    energies = global_energies(rows)
    with np.errstate(over="ignore"):
        mu = float(energies.mean())
        sigma = math.sqrt(float(((energies - mu) ** 2).sum()) / (energies.size - 1))
    if not (math.isfinite(mu) and math.isfinite(sigma)):
        raise EnergyOverflowError(
            f"energy statistics exceed float64 range (mu_in={mu}, sigma_in={sigma})")
    return EnergyStats.from_moments(mu, sigma, alpha)


def init_outlier_distribution(outlier_logits, virtual_count: int = 1) -> OutlierDistribution:
    """Per-class mean of exp(f_j) over the outlier set.

    virtual_count is the pseudo-observation weight the initialization carries in
    later updates; 0 means the first accepted test sample replaces it outright.
    """
    if virtual_count < 0:
        raise InvalidInputError("virtual_count must be non-negative")
    rows = _as_logits(np.atleast_2d(np.asarray(outlier_logits, dtype=np.float64)), 2)
    if rows.shape[0] < 1:
        raise InsufficientDataError("need at least one outlier sample to initialize")
    if rows.max() >= _LOG_FLOAT_MAX:
        raise EnergyOverflowError("exp(logit) exceeds float64 range")
    ef = np.exp(np.ascontiguousarray(rows))  # column means as over stacked rows
    return OutlierDistribution(values=ef.mean(axis=0), m=virtual_count)


def _update(state: OutlierDistribution, ef: np.ndarray) -> OutlierDistribution:
    # Mean of non-negative values and a finite ef: only an overflow needs a check.
    values = (state.m * state.values + ef) / (state.m + 1)
    if not np.isfinite(values).all():
        raise InvalidInputError("values must be finite and non-negative")
    values.setflags(write=False)
    new = object.__new__(OutlierDistribution)
    new.__dict__.update(values=values, m=state.m + 1)
    return new


def _step(state, stats, logits, sample_index, is_true_ood=False, use_label_probability=0.0,
          rng=None, freeze=False):
    """One validated sample: G and the score share one exp(f - max f), and the
    unshifted exp(f) is taken only for an accepted sample. freeze never accepts."""
    v = _as_logits(logits, 1)
    if v.shape[0] != state.k:
        raise ShapeError(f"sample has k={v.shape[0]}, state has k={state.k}")
    m = float(v.max())
    e = np.exp(v - m)
    g = _scaled(m, float(e.sum()), "global energy")
    if freeze:
        accepted = False
    elif use_label_probability > 0.0 and rng.random() < use_label_probability:
        accepted = bool(is_true_ood)
    else:
        accepted = g < stats.r
    if accepted:  # exp(f) is finite: G is, and G >= exp(max f)
        state = _update(state, np.exp(v))
    score = _scaled(m, float((e / (1.0 + state.values)).sum()), "calibrated energy")
    return state, score, AdaptationEvent(sample_index, accepted, g, score)


def adapt_and_score(
    state: OutlierDistribution,
    stats: EnergyStats,
    logits,
    sample_index: int = 0,
) -> tuple[OutlierDistribution, float, AdaptationEvent]:
    """One inference step: update the distribution if G(x) < R, then score.

    Returns the post-step state, the calibrated score of the sample under that
    state, and an audit event. A rejected sample returns the input state object
    unchanged.
    """
    return _step(state, stats, logits, sample_index)


def _frozen(state: OutlierDistribution, rows: np.ndarray, energies: np.ndarray,
            record_events: bool):
    """Scores (and events) of a logit matrix, whose global energies are given,
    under a fixed distribution."""
    scores = calibrated_energies(rows, state.values).tolist()
    if not record_events:
        return scores, None
    return scores, [AdaptationEvent(i, False, g, score)
                    for i, (g, score) in enumerate(zip(energies.tolist(), scores))]


def run_stream(
    state: OutlierDistribution,
    stats: EnergyStats,
    logit_stream,
    *,
    freeze: bool = False,
    oracle_labels=None,
    use_label_probability: float = 0.0,
    rng: np.random.Generator | None = None,
    record_events: bool = False,
) -> tuple[list[float], list[AdaptationEvent] | None, OutlierDistribution]:
    """Score a one-pass stream of logit vectors in order.

    freeze=True scores with the initial distribution and never adapts (the
    no-TTA baseline). It, and a plain pass in which no sample has G < R (so P
    stays P0), score the whole stream in one matrix pass. oracle_labels +
    use_label_probability > 0 routes each acceptance decision through the
    oracle with that probability; decisions draw from rng per sample. Events
    are recorded only on request, keeping the default memory footprint at O(k).
    """
    if not 0.0 <= use_label_probability <= 1.0:
        raise InvalidInputError(
            f"use_label_probability must lie in [0, 1], got {use_label_probability}")
    if use_label_probability > 0.0:
        if oracle_labels is None:
            raise InvalidInputError("use_label_probability > 0 requires oracle_labels")
        if rng is None:
            raise InvalidInputError("oracle mode requires an rng")
    if freeze or use_label_probability == 0.0:  # acceptance reads G and R only
        try:
            rows = np.asarray(logit_stream, dtype=np.float64)
            energies = global_energies(rows)
            if freeze or not (energies < stats.r).any():  # P stays P0 throughout
                return (*_frozen(state, rows, energies, record_events), state)
        except (AdaptOdError, TypeError, ValueError):
            pass  # not one finite logit matrix: the per-sample pass names the bad sample
    labels_iter = iter(oracle_labels) if oracle_labels is not None else None
    scores: list[float] = []
    events: list[AdaptationEvent] | None = [] if record_events else None
    for i, logits in enumerate(logit_stream):
        is_ood = bool(next(labels_iter)) if labels_iter is not None else False
        try:
            state, score, event = _step(state, stats, logits, i, is_ood,
                                        use_label_probability, rng, freeze)
        except Exception as exc:
            raise type(exc)(f"sample {i}: {exc}") from exc
        scores.append(score)
        if events is not None:
            events.append(event)
    return scores, events, state


def save_state(path, state: OutlierDistribution, stats: EnergyStats) -> None:
    """Write the adapter state for inspection as canonical JSON (decimal text
    round-trips exactly). No program path reads it back."""
    payload = {
        "k": state.k,
        "m": state.m,
        "values": [float(v) for v in state.values],
        "mu_in": stats.mu_in,
        "sigma_in": stats.sigma_in,
        "alpha": stats.alpha,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True)
        fh.write("\n")
