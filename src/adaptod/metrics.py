"""Detection and classification metrics: AUROC, AP-in/AP-out, FPR@95TPR, ACC.

Scores follow the convention "higher = more ID-like". AUROC uses the
Mann-Whitney statistic with half credit for ties; AP is non-interpolated step
AP with ties broken by input order; the FPR threshold is the tightest score
keeping ID TPR >= the target, with ties kept on the ID side.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, ShapeError, UndefinedMetricError


@dataclass(frozen=True)
class MetricReport:
    auroc: float
    ap_in: float
    ap_out: float
    fpr_at_95tpr: float
    acc: float | None = None

    def to_json(self) -> str:
        payload = {
            "auroc": self.auroc,
            "ap_in": self.ap_in,
            "ap_out": self.ap_out,
            "fpr_at_95tpr": self.fpr_at_95tpr,
        }
        if self.acc is not None:
            payload["acc"] = self.acc
        return json.dumps(payload, sort_keys=True)


def _check(scores, is_id):
    """Validate a score vector and its ID flags; return them as float/bool arrays."""
    scores = np.asarray(scores, dtype=np.float64)
    is_id = np.asarray(is_id, dtype=bool)
    if scores.ndim != 1 or is_id.shape != scores.shape:
        raise ShapeError(f"scores {scores.shape} and is_id {is_id.shape} must be 1-D "
                         "and of equal length")
    if not np.isfinite(scores).all():
        raise InvalidInputError("scores must be finite")
    return scores, is_id


def auroc(scores, is_id) -> float:
    """P(ID score > OOD score) + half credit for ties."""
    scores, is_id = _check(scores, is_id)
    id_s, ood_s = scores[is_id], scores[~is_id]
    if id_s.size == 0 or ood_s.size == 0:
        raise UndefinedMetricError("AUROC needs at least one ID and one OOD sample")
    ood_sorted = np.sort(ood_s)
    wins = np.searchsorted(ood_sorted, id_s, side="left")
    ties = np.searchsorted(ood_sorted, id_s, side="right") - wins
    numer = float(wins.sum()) + 0.5 * float(ties.sum())
    return numer / (id_s.size * ood_s.size)


def average_precision(scores, is_id, positive: str = "id") -> float:
    """Step AP with `positive` in {"id", "ood"}; for "ood" the ranking is by
    ascending score (OOD-likeness)."""
    if positive not in ("id", "ood"):
        raise InvalidInputError("positive must be 'id' or 'ood'")
    scores, is_pos = _check(scores, is_id)
    if positive == "ood":
        scores, is_pos = -scores, ~is_pos
    if not is_pos.any():
        raise UndefinedMetricError(f"no positive ({positive}) samples")
    order = np.argsort(-scores, kind="stable")
    hits = is_pos[order]
    cum_hits = np.cumsum(hits)
    ranks = np.nonzero(hits)[0] + 1
    precisions = cum_hits[ranks - 1] / ranks
    return math.fsum(precisions) / int(is_pos.sum())


def fpr_at_tpr(scores, is_id, tpr_target: float = 0.95) -> float:
    """Fraction of OOD samples at or above the tightest threshold that keeps
    the ID true-positive rate >= tpr_target."""
    if not 0.0 < tpr_target <= 1.0:
        raise InvalidInputError("tpr_target must lie in (0, 1]")
    scores, is_id = _check(scores, is_id)
    id_s, ood_s = scores[is_id], scores[~is_id]
    if id_s.size == 0 or ood_s.size == 0:
        raise UndefinedMetricError("FPR@TPR needs at least one ID and one OOD sample")
    need = math.ceil(tpr_target * id_s.size - 1e-12)
    threshold = np.sort(id_s)[id_s.size - need]
    return float((ood_s >= threshold).sum()) / ood_s.size


def accuracy(predicted, true) -> float:
    """Fraction of labeled ID samples with predicted class == true class."""
    predicted, true = np.asarray(predicted), np.asarray(true)
    if predicted.ndim != 1 or true.shape != predicted.shape:
        raise ShapeError(f"predicted {predicted.shape} and true {true.shape} must be 1-D "
                         "and of equal length")
    if predicted.size == 0:
        raise UndefinedMetricError("no labeled ID samples")
    return int((predicted == true).sum()) / predicted.size


def metric_report(scores, is_id, predicted=None, true=None) -> MetricReport:
    """All detection metrics of one scored stream; ACC only when the ID
    samples' predicted and true classes are given."""
    return MetricReport(
        auroc=auroc(scores, is_id),
        ap_in=average_precision(scores, is_id, "id"),
        ap_out=average_precision(scores, is_id, "ood"),
        fpr_at_95tpr=fpr_at_tpr(scores, is_id, 0.95),
        acc=None if predicted is None and true is None else accuracy(predicted, true),
    )
