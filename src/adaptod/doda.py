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
from itertools import repeat

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
    for i in bad.tolist():  # the one-row step names the first of these that is bad
        _step(np.zeros((1, k)), [0], stream[i], i, ())
    return rows, energies


def _step(values, counts, logits, sample_index, plans, is_ood=False, u=1.0, g=None):
    """One sample under plans j = (fraction, r) whose P and count (row j of
    values, counts[j]) an accepting plan updates in place. exp(f - max f) is
    shared. A sample given without its G is a row to check, and its G is
    computed here. Plan j accepts true OOD if the oracle draw u < fraction, else
    if G < r. Returns G, the plans' post-step scores and acceptances."""
    try:
        v = _as_logits(logits, 1) if g is None else logits
        if v.shape[0] != values.shape[1]:
            raise ShapeError(f"sample has k={v.shape[0]}, state has k={values.shape[1]}")
        m = float(np.maximum.reduce(v))  # the ufuncs of v.max() and e.sum(), called directly
        e = np.exp(v - m)
        if g is None:
            g = _scaled(m, float(np.add.reduce(e)), "global energy")
        accepted = [is_ood if u < f else g < r for f, r in plans]
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
        return g, [_scaled(m, t, "calibrated energy") for t in totals], accepted
    except (AdaptOdError, TypeError, ValueError) as exc:  # a bad row or an overflow
        raise type(exc)(f"sample {sample_index}: {exc}") from exc


def adapt_and_score(state: OutlierDistribution, stats: EnergyStats, logits, sample_index: int = 0,
                    ) -> tuple[OutlierDistribution, float, AdaptationEvent]:
    """One inference step: update the distribution if G(x) < R, then score.

    Returns the post-step state, the calibrated score of the sample under that
    state, and an audit event. A rejected sample returns the input state object
    unchanged. An error names sample_index.
    """
    values, counts = np.array(state.values, ndmin=2), [state.m]
    g, (score,), (accepted,) = _step(values, counts, logits, sample_index, ((0.0, stats.r),))
    if accepted:
        state = _trusted(values[0], counts[0])
    return state, score, AdaptationEvent(sample_index, accepted, g, score)


def run_plans(state, logit_stream, plans, *, oracle_labels=None, rng=None, record_events=False):
    """run_stream of each plan (use_label_probability, r), where r is the filter
    threshold, for every plan at once: (G of each sample, one (scores, events,
    final state) per plan), each plan's result equal bit for bit to that plan
    alone with an rng of the same seed, since all plans share one rng.random()
    per sample. (0.0, -inf) is the frozen plan: no G is below -inf, and no
    oracle is consulted. The stream is read once into a checked matrix with one
    G per row. A plan with probability 0 in which no sample has G < r is idle:
    P stays P0, and all idle plans share one result object from one matrix
    pass. The others share one _step per sample.
    """
    plans = list(plans)
    for f, r in plans:
        if not 0.0 <= f <= 1.0:
            raise InvalidInputError(f"use_label_probability must lie in [0, 1], got {f}")
        if math.isnan(r):
            raise InvalidInputError("filter threshold r must not be NaN")
    draw = max((f for f, _ in plans), default=0.0) > 0.0  # one common draw per sample
    if draw and (oracle_labels is None or rng is None):
        raise InvalidInputError("use_label_probability > 0 requires oracle_labels and an rng")
    rows, energies = _stream_rows(logit_stream, state.k)
    labels = np.asarray(oracle_labels if draw else np.zeros(len(rows), bool))
    if labels.shape != energies.shape:  # before any sample is scored
        raise InvalidInputError(f"oracle_labels must have shape {energies.shape}, "
                                f"got {labels.shape}")
    g_min = energies.min(initial=math.inf)
    idle = [f == 0.0 and not g_min < r for f, r in plans]
    if True in idle:  # the acceptance of these plans reads G and r only
        idle_scores = calibrated_energies(rows, state.values).tolist()
        idle_events = [AdaptationEvent(i, False, g, score) for i, (g, score)
                       in enumerate(zip(energies.tolist(), idle_scores))] if record_events else None
        shared = (idle_scores, idle_events, state)
    busy = [plan for plan, is_idle in zip(plans, idle) if not is_idle]
    values, counts = np.tile(state.values, (len(busy), 1)), [state.m] * len(busy)
    scores, events = [], ([] if record_events else None)  # sample-major, plan-minor
    for i, (v, g, is_ood) in enumerate(zip(rows if busy else (), energies.tolist(),
                                           labels.tolist())):
        _, sample_scores, accepted = _step(values, counts, v, i, busy, bool(is_ood),
                                           rng.random() if draw else 1.0, g)  # no f exceeds 1
        scores += sample_scores
        if events is not None:
            events += map(AdaptationEvent, repeat(i), accepted, repeat(g), sample_scores)
    n = len(busy)
    done = iter([(scores[j::n], events[j::n] if events is not None else None,
                  state if counts[j] == state.m else _trusted(values[j].copy(), counts[j]))
                 for j in range(n)])
    return energies, [shared if is_idle else next(done) for is_idle in idle]


def run_stream(state: OutlierDistribution, stats: EnergyStats, logit_stream, *,
               freeze: bool = False, oracle_labels=None, use_label_probability: float = 0.0,
               rng: np.random.Generator | None = None, record_events: bool = False,
               ) -> tuple[list[float], list[AdaptationEvent] | None, OutlierDistribution]:
    """Score a one-pass stream of logit vectors in order: run_plans of one plan.

    freeze=True scores with P0 and never adapts (the no-TTA baseline, the plan
    (0.0, -inf)); it consults no oracle. Otherwise use_label_probability > 0
    routes each acceptance decision through the oracle_labels with that
    probability, drawing from rng per sample, and G < stats.r decides the rest.
    A rejected sample keeps the state, and events are recorded only on request.
    """
    plan = (0.0, -math.inf) if freeze else (use_label_probability, stats.r)
    return run_plans(state, logit_stream, (plan,), oracle_labels=oracle_labels, rng=rng,
                     record_events=record_events)[1][0]


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
