"""Streaming test-time adaptation of the outlier energy distribution.

Offline: fit a Z-score OOD filter (mean/std of training-ID global energy) and
initialize the outlier distribution from auxiliary outlier logits. Online: for
each test sample, first adapt the distribution if the filter flags the sample
as OOD, then score it with the calibrated energy. One pass, label-free, O(k)
state.

The filter reads each sample's global energy G = Σ_j exp(f_j), a linear-scale
sum evaluated with a max-shift so intermediate values never overflow. Only G is
range-checked: a G past float64 range raises NumericError instead of returning
Inf. The check returns G's scale exp(max f) too, and the calibrated score
Σ_j exp(f_j) / (1 + P_j) is that scale times Σ_j exp(f_j - max f) / (1 + P_j),
unchecked: with P >= 0 each term is at most the one of G, so the score is too.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .energy import as_logits
from .errors import (FINITE, POSITIVE, UNIT, AdaptOdError, InvalidInputError, NumericError,
                     check_int, check_real)

DEFAULT_ALPHA = 3.0
MAX_VIRTUAL_COUNT = 2**53  # the largest count a float64 holds exactly
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


@dataclass(frozen=True)
class EnergyStats:
    """Training-ID global-energy statistics and the threshold R they give, checked."""

    mu_in: float
    sigma_in: float
    alpha: float = DEFAULT_ALPHA
    r: float = field(init=False)

    def __post_init__(self):
        mu_in, sigma_in, alpha = self.mu_in, self.sigma_in, self.alpha
        non_negative = (lambda v: 0.0 <= v < math.inf, "be finite and >= 0")
        for name, rule in (("mu_in", FINITE), ("sigma_in", non_negative), ("alpha", POSITIVE)):
            check_real(getattr(self, name), name, rule)
        r = mu_in - alpha * sigma_in
        if not math.isfinite(r):
            raise InvalidInputError(f"threshold R = mu_in - alpha * sigma_in is not finite "
                                    f"(alpha={alpha}, mu_in={mu_in}, sigma_in={sigma_in})")
        object.__setattr__(self, "r", r)


@dataclass(frozen=True)
class OutlierDistribution:
    """Per-class mean exponentiated logits of accepted OOD evidence, plus its count."""

    values: np.ndarray
    m: int

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 1 or not v.size:
            raise InvalidInputError(f"values must be 1-D with k >= 1 classes, got shape {v.shape}")
        if not np.isfinite(v).all() or (v < 0).any():
            raise InvalidInputError("values must be finite and non-negative")
        object.__setattr__(self, "m", check_int(self.m, "count m", 0, MAX_VIRTUAL_COUNT))
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def k(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True, slots=True)
class AdaptationEvent:
    sample_index: int
    accepted: bool
    global_energy: float
    calibrated_score: float


def fit_energy_stats(train_id_logits, alpha: float = DEFAULT_ALPHA) -> EnergyStats:
    """Mean and sample std (n-1) of global energy over training-ID logits,
    and the filter threshold R = mu - alpha * sigma."""
    rows = as_logits(np.atleast_2d(np.asarray(train_id_logits, dtype=np.float64)), 2)
    if rows.shape[0] < 2:
        raise InvalidInputError("need at least 2 samples to fit energy statistics")
    energies = global_energies(rows)
    with np.errstate(over="ignore"):
        mu = float(energies.mean())
        sigma = math.sqrt(float(((energies - mu) ** 2).sum()) / (energies.size - 1))
    if not (math.isfinite(mu) and math.isfinite(sigma)):
        raise NumericError(
            f"energy statistics exceed float64 range (mu_in={mu}, sigma_in={sigma})")
    return EnergyStats(mu, sigma, alpha)


def init_outlier_distribution(outlier_logits, virtual_count: int = 1) -> OutlierDistribution:
    """Per-class mean of exp(f_j) over the outlier set.

    virtual_count is the pseudo-observation weight the initialization carries in
    later updates; 0 means the first accepted test sample replaces it outright.
    """
    check_int(virtual_count, "virtual_count", 0, MAX_VIRTUAL_COUNT)
    rows = as_logits(np.atleast_2d(np.asarray(outlier_logits, dtype=np.float64)), 2)
    if rows.shape[0] < 1:
        raise InvalidInputError("need at least one outlier sample to initialize")
    over = np.flatnonzero(rows.max(axis=1) >= _LOG_FLOAT_MAX)
    if over.size:
        raise NumericError(f"sample {over[0]}: exp(logit) exceeds float64 range")
    ef = np.exp(np.ascontiguousarray(rows))  # column means as over stacked rows
    with np.errstate(over="ignore"):  # a mean of finite values can only overflow
        values = ef.mean(axis=0)
    if not np.isfinite(values).all():
        raise NumericError("mean exp(logit) exceeds float64 range")
    return OutlierDistribution(values=values, m=virtual_count)


def _trusted(values: np.ndarray, m: int) -> OutlierDistribution:
    """An OutlierDistribution of finite, non-negative values, not validated again."""
    values.setflags(write=False)
    state = object.__new__(OutlierDistribution)
    state.__dict__.update(values=values, m=m)
    return state


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
    """The row max m and e = exp(f - m) of a checked C-contiguous logit matrix (its
    rows then sum as 1-D rows do): every matrix energy here is built on it."""
    m = np.maximum.reduce(rows, axis=-1)
    return m, np.exp(rows - m[..., None])


def global_energies(rows) -> np.ndarray:
    """Sum of exponentiated logits, Σ_j exp(f_j), of each row of a logit matrix.
    Never negative, and 0.0 where exp(max f) underflows (every logit of the row
    below about -745); per row the float ops of the one-sample step."""
    m, e = _shifted_exp(np.ascontiguousarray(as_logits(rows, 2)))
    return _scaled_rows(m, e.sum(axis=1))[1]


def _checked_row(logits, k, sample_index):
    """logits as one finite float64 row v of k logits, its e = exp(v - max v), their
    scale exp(max v) and its G, by the float ops of _shifted_exp and _scaled, inlined
    for the online step's speed. A row that fails a check goes to as_logits for the
    message. An error names sample_index."""
    try:
        v = np.asarray(logits, dtype=np.float64)
        if v.shape != (k,) or not np.isfinite(v).all():
            v = as_logits(logits, 1)  # raises unless only k differs
            raise InvalidInputError(f"sample has k={v.shape[0]}, state has k={k}")
        m = np.maximum.reduce(v)
        e = np.exp(v - m)
        return v, e, *_scaled(float(m), float(np.add.reduce(e)))
    except (AdaptOdError, TypeError, ValueError) as exc:  # a bad row or an overflow
        raise type(exc)(f"sample {sample_index}: {exc}") from exc


def _stream_rows(logit_stream, k):
    """logit_stream, read once, as one C-contiguous float64 (n, k) matrix of
    finite logits, its shifted exponentials e, their row scales exp(max f), and the
    G of every row from those. A stream that is not a clean, finite (n, k) matrix is
    checked row by row, in order, so an error names the first sample whose row or G
    is bad, whatever the fault; rows that all pass are stacked into the matrix."""
    if getattr(logit_stream, "ndim", 1) == 0 or not hasattr(logit_stream, "__iter__"):
        raise InvalidInputError(f"logit_stream must hold logit rows, got {logit_stream!r}")
    stream = logit_stream if isinstance(logit_stream, np.ndarray) else list(logit_stream)
    try:
        rows = np.ascontiguousarray(stream, dtype=np.float64)
        clean = rows.shape[1:] == (k,) and np.isfinite(rows).all()
    except (TypeError, ValueError):  # ragged or non-numeric rows
        clean = False
    if not clean:  # an empty stream is a (0, k) matrix
        rows = np.array([_checked_row(row, k, i)[0] for i, row in enumerate(stream)]).reshape(-1, k)
    m, e = _shifted_exp(rows)
    scales, energies = _scaled_rows(m, e.sum(axis=1))  # an overflow names its sample
    return rows, e, scales, energies


def adapt_and_score(state: OutlierDistribution, stats: EnergyStats, logits, sample_index: int = 0,
                    ) -> tuple[OutlierDistribution, float, bool]:
    """One inference step: update the distribution if G(x) < R, then score.

    Returns the post-step state, the calibrated score of the sample under that
    state, and whether the sample was accepted. A rejected sample returns the
    input state object unchanged. An error names sample_index.
    """
    v, e, scale, g = _checked_row(logits, state.k, sample_index)
    if not g < stats.r:
        return state, scale * float(np.add.reduce(e / (1.0 + state.values))), False
    with np.errstate(over="ignore"):  # a mean of finite values can only overflow
        values = (state.m * state.values + np.exp(v)) / (state.m + 1)
    if not np.isfinite(values).all():
        raise NumericError(f"sample {sample_index}: mean exp(logit) exceeds float64 range")
    return _trusted(values, state.m + 1), scale * float(np.add.reduce(e / (1.0 + values))), True


def run_plans(state, logit_stream, plans, *, oracle_labels=None, rng=None):
    """run_stream of each plan (use_label_probability f, filter threshold r) at
    once: (G of each sample, one (scores, accept mask, final state) per plan).
    Before any sample is scored, the stream is read once into a checked matrix
    with one G per row, and plan j's bool mask is where(u < f_j, oracle_labels,
    G < r_j), u = rng.random(n) drawn only if some f > 0: each result equals
    that plan alone with an rng of the same seed. (0.0, -inf) is the frozen
    plan. Plans with all-False masks keep P0 and share one result object from
    one matrix pass; the others share one pass over the samples, in which the
    rows any of them accepts are exponentiated in one call."""
    plans = list(plans)
    for plan in plans:
        try:
            f, r = plan
        except (TypeError, ValueError) as exc:
            raise InvalidInputError(f"a plan must be a pair (use_label_probability, r), "
                                    f"got {plan!r}") from exc
        check_real(f, "use_label_probability", UNIT)
        check_real(r, "filter threshold r", (lambda v: not math.isnan(v), "not be NaN"))
    draw = max((f for f, _ in plans), default=0.0) > 0.0
    if draw and (oracle_labels is None or rng is None):
        raise InvalidInputError("use_label_probability > 0 requires oracle_labels and an rng")
    rows, e, scales, energies = _stream_rows(logit_stream, state.k)
    n = len(rows)
    labels = np.asarray(oracle_labels, dtype=bool) if draw else np.zeros(n, bool)
    if labels.shape != energies.shape:  # before any sample is scored
        raise InvalidInputError(f"oracle_labels must have shape {energies.shape}, "
                                f"got {labels.shape}")
    u = rng.random(n) if draw else np.ones(n)  # no f exceeds 1: u < f holds only for a draw
    masks = [np.where(u < f, labels, energies < r) for f, r in plans]
    busy = [j for j, mask in enumerate(masks) if mask.any()]
    values, counts = np.tile(state.values, (len(busy), 1)), [state.m] * len(busy)
    totals = np.empty((n, len(busy)))  # sample i's Σ e / (1 + P) of busy plan b, then its score
    if busy:
        hits = np.logical_or.reduce([masks[j] for j in busy])  # accepted by any busy plan
        samples = zip(e, hits.tolist(), zip(*(masks[j].tolist() for j in busy)))
        with np.errstate(over="ignore"):  # once per call: an overflowing mean raises below
            efs, denom = iter(np.exp(rows[hits])), 1.0 + values  # exp(f) is finite: G is
            for i, (ei, hit, accepted) in enumerate(samples):
                if hit:  # plan b folds exp(f) into its mean, in place, if it accepts
                    ef = next(efs)
                    for b, acc in enumerate(accepted):
                        if acc:
                            values[b] = (counts[b] * values[b] + ef) / (counts[b] + 1)
                            counts[b] += 1
                    if not np.logical_and.reduce(np.isfinite(values), axis=None):
                        raise NumericError(f"sample {i}: mean exp(logit) exceeds float64 range")
                    denom = 1.0 + values
                np.add.reduce(ei / denom, axis=1, out=totals[i])  # rows sum as 1-D arrays
        totals *= scales[:, None]  # each score is scale * Σ e / (1 + P), <= G
    done = {j: (totals[:, b].tolist(), masks[j], _trusted(values[b].copy(), counts[b]))
            for b, j in enumerate(busy)}
    if len(done) < len(plans):  # the idle plans share one scoring
        idle_scores = scales * (e / (1.0 + state.values)).sum(axis=1)
        idle = (idle_scores.tolist(), np.zeros(n, bool), state)
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

