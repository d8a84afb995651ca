"""Detection and classification metrics: AUROC, AP-in/AP-out, FPR@95TPR, ACC.

Scores follow the convention "higher = more ID-like". metric_report checks its
arrays once and computes every field from them.
AUROC uses the Mann-Whitney statistic with half credit for ties; AP is
non-interpolated step AP with ties broken by input order, and AP-out ranks
OOD as the positives by ascending score; the FPR threshold is the tightest
score keeping ID TPR >= 0.95, with ties kept on the ID side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, InvalidInputError

TPR_TARGET = 0.95  # the ID true-positive rate at which fpr_at_95tpr is read


@dataclass(frozen=True)
class MetricReport:
    auroc: float
    ap_in: float
    ap_out: float
    fpr_at_95tpr: float
    acc: float


def _check(scores, is_id):
    """Validate a score vector and its ID flags, with at least one ID and one
    OOD sample; return them as float/bool arrays."""
    scores = np.asarray(scores, dtype=np.float64)
    is_id = np.asarray(is_id, dtype=bool)
    if scores.ndim != 1 or is_id.shape != scores.shape:
        raise InvalidInputError(f"scores {scores.shape} and is_id {is_id.shape} must be 1-D "
                                "and of equal length")
    if not np.isfinite(scores).all():
        raise InvalidInputError("scores must be finite")
    if is_id.all() or not is_id.any():
        raise DataError("metrics need at least one ID and one OOD sample")
    return scores, is_id


def _auroc(id_s, ood_s) -> float:
    ood_sorted = np.sort(ood_s)
    wins = np.searchsorted(ood_sorted, id_s, side="left")
    ties = np.searchsorted(ood_sorted, id_s, side="right") - wins
    numer = float(wins.sum()) + 0.5 * float(ties.sum())
    return numer / (id_s.size * ood_s.size)


def _average_precision(scores, is_pos) -> float:
    """Step AP of the positives ranked by descending score."""
    hits = is_pos[np.argsort(-scores, kind="stable")]
    ranks = np.flatnonzero(hits) + 1  # the j-th hit has precision j / rank
    return math.fsum(np.arange(1, ranks.size + 1) / ranks) / ranks.size


def metric_report(scores, is_id, predicted, true) -> MetricReport:
    """All metrics of one scored stream: the detection metrics of scores and
    is_id, and ACC over the ID samples' predicted and true classes."""
    scores, is_id = _check(scores, is_id)
    predicted, true = np.asarray(predicted), np.asarray(true)
    if predicted.ndim != 1 or true.shape != predicted.shape:
        raise InvalidInputError(f"predicted {predicted.shape} and true {true.shape} must be 1-D "
                                "and of equal length")
    if predicted.size == 0:
        raise DataError("no labeled ID samples")
    id_s, ood_s = scores[is_id], scores[~is_id]
    need = math.ceil(TPR_TARGET * id_s.size - 1e-12)
    return MetricReport(
        auroc=_auroc(id_s, ood_s),
        ap_in=_average_precision(scores, is_id),
        ap_out=_average_precision(-scores, ~is_id),
        fpr_at_95tpr=float((ood_s >= np.sort(id_s)[id_s.size - need]).sum()) / ood_s.size,
        acc=int((predicted == true).sum()) / predicted.size,
    )
