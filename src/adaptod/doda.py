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
MAX_VIRTUAL_COUNT = 2**53  # the largest count a float64 holds exactly


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
        r = mu_in - alpha * sigma_in
        if not math.isfinite(r):
            raise InvalidInputError(f"threshold R = mu_in - alpha * sigma_in is not finite "
                                    f"(alpha={alpha}, mu_in={mu_in}, sigma_in={sigma_in})")
        return cls(mu_in=mu_in, sigma_in=sigma_in, alpha=alpha, r=r)


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
        if not 0 <= self.m <= MAX_VIRTUAL_COUNT:
            raise InvalidInputError(f"count m must lie in [0, 2**53], got {self.m}")
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
    if not 0 <= virtual_count <= MAX_VIRTUAL_COUNT:
        raise InvalidInputError(f"virtual_count must lie in [0, 2**53], got {virtual_count}")
    rows = _as_logits(np.atleast_2d(np.asarray(outlier_logits, dtype=np.float64)), 2)
    if rows.shape[0] < 1:
        raise InsufficientDataError("need at least one outlier sample to initialize")
    if rows.max() >= _LOG_FLOAT_MAX:
        raise EnergyOverflowError("exp(logit) exceeds float64 range")
    ef = np.exp(np.ascontiguousarray(rows))  # column means as over stacked rows
    return OutlierDistribution(values=ef.mean(axis=0), m=virtual_count)


def _trusted(values: np.ndarray, m: int) -> OutlierDistribution:
    """An OutlierDistribution of finite, non-negative values, not validated again."""
    values.setflags(write=False)
    state = object.__new__(OutlierDistribution)
    state.__dict__.update(values=values, m=m)
    return state


def _checked_row(logits, k, sample_index):
    """logits as one finite float64 row of k logits, and its G. An error names
    sample_index."""
    try:
        v = _as_logits(logits, 1)
        if v.shape[0] != k:
            raise ShapeError(f"sample has k={v.shape[0]}, state has k={k}")
        m = float(np.maximum.reduce(v))  # the ufuncs of v.max() and .sum(), called directly
        return v, _scaled(m, float(np.add.reduce(np.exp(v - m))), "global energy")
    except (AdaptOdError, TypeError, ValueError) as exc:  # a bad row or an overflow
        raise type(exc)(f"sample {sample_index}: {exc}") from exc


def _stream_rows(logit_stream, k):
    """logit_stream, read once, as one C-contiguous float64 (n, k) matrix of
    finite logits, and the G of every row from one global_energies pass. An
    error names the first sample whose row or G is bad."""
    stream = logit_stream if isinstance(logit_stream, np.ndarray) else list(logit_stream)
    try:
        rows = np.ascontiguousarray(stream, dtype=np.float64)
        bad = (np.flatnonzero(~np.isfinite(rows).all(axis=1)) if rows.shape[1:] == (k,)
               else np.arange(len(rows)))
    except (TypeError, ValueError):  # ragged or non-numeric rows: each row alone
        rows, bad = np.empty((0, k)), np.arange(len(stream))
    n = int(bad[0]) if bad.size else len(stream)
    rows = rows[:n].reshape(n, k)  # the rows before the first bad one
    energies = global_energies(rows)  # an overflow names its sample
    for i in bad.tolist():  # the first of these that is bad alone raises
        _checked_row(stream[i], k, i)
    return rows, energies


def _step(values, counts, v, sample_index, accepted):
    """One checked sample under the plans whose P and count are row j of values
    and counts[j]: plan j folds exp(v) into its running mean, in place, if
    accepted[j]; then every plan scores v. Returns the post-step scores."""
    try:
        m = float(np.maximum.reduce(v))
        e = np.exp(v - m)
        if True in accepted:  # exp(f) is finite: G is, and G >= exp(max f)
            ef = np.exp(v)
            for j, acc in enumerate(accepted):
                if acc:
                    values[j] = (counts[j] * values[j] + ef) / (counts[j] + 1)
                    counts[j] += 1
            # a mean of finite, non-negative values can only overflow
            if not np.isfinite(values).all():
                raise InvalidInputError("values must be finite and non-negative")
        totals = np.add.reduce(e / (1.0 + values), axis=1).tolist()  # rows sum as 1-D arrays
        return [_scaled(m, t, "calibrated energy") for t in totals]
    except AdaptOdError as exc:  # an overflow
        raise type(exc)(f"sample {sample_index}: {exc}") from exc


def adapt_and_score(state: OutlierDistribution, stats: EnergyStats, logits, sample_index: int = 0,
                    ) -> tuple[OutlierDistribution, float, bool]:
    """One inference step: update the distribution if G(x) < R, then score.

    Returns the post-step state, the calibrated score of the sample under that
    state, and whether the sample was accepted. A rejected sample returns the
    input state object unchanged. An error names sample_index.
    """
    v, g = _checked_row(logits, state.k, sample_index)
    accepted = g < stats.r
    values, counts = np.array(state.values, ndmin=2), [state.m]
    (score,) = _step(values, counts, v, sample_index, (accepted,))
    if accepted:
        state = _trusted(values[0], counts[0])
    return state, score, accepted


def run_plans(state, logit_stream, plans, *, oracle_labels=None, rng=None):
    """run_stream of each plan (use_label_probability f, filter threshold r) at
    once: (G of each sample, one (scores, accept mask, final state) per plan).
    Before any sample is scored, the stream is read once into a checked matrix
    with one G per row, and plan j's bool mask is where(u < f_j, oracle_labels,
    G < r_j), u = rng.random(n) drawn only if some f > 0: each result equals
    that plan alone with an rng of the same seed. (0.0, -inf) is the frozen
    plan. Plans with all-False masks keep P0 and share one result object from
    one matrix pass; the others share one _step per sample."""
    plans = list(plans)
    for f, r in plans:
        if not 0.0 <= f <= 1.0:
            raise InvalidInputError(f"use_label_probability must lie in [0, 1], got {f}")
        if math.isnan(r):
            raise InvalidInputError("filter threshold r must not be NaN")
    draw = max((f for f, _ in plans), default=0.0) > 0.0
    if draw and (oracle_labels is None or rng is None):
        raise InvalidInputError("use_label_probability > 0 requires oracle_labels and an rng")
    rows, energies = _stream_rows(logit_stream, state.k)
    n = len(rows)
    labels = np.asarray(oracle_labels, dtype=bool) if draw else np.zeros(n, bool)
    if labels.shape != energies.shape:  # before any sample is scored
        raise InvalidInputError(f"oracle_labels must have shape {energies.shape}, "
                                f"got {labels.shape}")
    u = rng.random(n) if draw else np.ones(n)  # no f exceeds 1: u < f holds only for a draw
    masks = [np.where(u < f, labels, energies < r) for f, r in plans]
    busy = [j for j, mask in enumerate(masks) if mask.any()]
    values, counts = np.tile(state.values, (len(busy), 1)), [state.m] * len(busy)
    scores = []  # sample-major, plan-minor
    for i, (v, accepted) in enumerate(zip(rows, zip(*(masks[j].tolist() for j in busy)))):
        scores += _step(values, counts, v, i, accepted)
    done = {j: (scores[b::len(busy)], masks[j], _trusted(values[b].copy(), counts[b]))
            for b, j in enumerate(busy)}
    if len(done) < len(plans):  # the idle plans share one scoring
        idle = (calibrated_energies(rows, state.values).tolist(), np.zeros(n, bool), state)
    return energies, [done[j] if j in done else idle for j in range(len(plans))]


def run_stream(state: OutlierDistribution, stats: EnergyStats, logit_stream, *,
               freeze: bool = False, oracle_labels=None, use_label_probability: float = 0.0,
               rng: np.random.Generator | None = None, record_events: bool = False):
    """Score a one-pass stream of logit vectors in order: run_plans of one plan.

    freeze=True scores with P0 and never adapts (the no-TTA baseline, the plan
    (0.0, -inf)); it consults no oracle. Otherwise use_label_probability > 0
    routes each acceptance decision through the oracle_labels with that
    probability, drawing from rng per sample, and G < stats.r decides the rest.
    Returns (scores, accept mask, final state); record_events=True, which the
    benchmark uses, gives one AdaptationEvent per sample in place of the mask.
    """
    plan = (0.0, -math.inf) if freeze else (use_label_probability, stats.r)
    energies, ((scores, mask, final),) = run_plans(state, logit_stream, (plan,),
                                                   oracle_labels=oracle_labels, rng=rng)
    if record_events:
        mask = list(map(AdaptationEvent, range(len(scores)), mask.tolist(), energies.tolist(),
                        scores))
    return scores, mask, final


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
