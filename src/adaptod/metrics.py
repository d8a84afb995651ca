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

from .errors import InvalidInputError, UndefinedMetricError


@dataclass(frozen=True)
class ScoredSample:
    score: float
    is_id: bool
    predicted_class: int | None = None
    true_class: int | None = None


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


def _split(samples):
    id_scores, ood_scores = [], []
    for s in samples:
        if not math.isfinite(s.score):
            raise InvalidInputError("scores must be finite")
        (id_scores if s.is_id else ood_scores).append(s.score)
    return np.asarray(id_scores), np.asarray(ood_scores)


def auroc(samples) -> float:
    """P(ID score > OOD score) + half credit for ties."""
    id_s, ood_s = _split(samples)
    if id_s.size == 0 or ood_s.size == 0:
        raise UndefinedMetricError("AUROC needs at least one ID and one OOD sample")
    ood_sorted = np.sort(ood_s)
    wins = np.searchsorted(ood_sorted, id_s, side="left")
    ties = np.searchsorted(ood_sorted, id_s, side="right") - wins
    numer = float(wins.sum()) + 0.5 * float(ties.sum())
    return numer / (id_s.size * ood_s.size)


def average_precision(samples, positive: str = "id") -> float:
    """Step AP with `positive` in {"id", "ood"}; for "ood" the ranking is by
    ascending score (OOD-likeness)."""
    if positive not in ("id", "ood"):
        raise InvalidInputError("positive must be 'id' or 'ood'")
    samples = list(samples)
    scores = np.asarray([s.score if positive == "id" else -s.score for s in samples])
    if not np.isfinite(scores).all():
        raise InvalidInputError("scores must be finite")
    is_pos = np.asarray([s.is_id == (positive == "id") for s in samples])
    if not is_pos.any():
        raise UndefinedMetricError(f"no positive ({positive}) samples")
    order = np.argsort(-scores, kind="stable")
    hits = is_pos[order]
    cum_hits = np.cumsum(hits)
    ranks = np.nonzero(hits)[0] + 1
    precisions = cum_hits[ranks - 1] / ranks
    return math.fsum(precisions) / int(is_pos.sum())


def fpr_at_tpr(samples, tpr_target: float = 0.95) -> float:
    """Fraction of OOD samples at or above the tightest threshold that keeps
    the ID true-positive rate >= tpr_target."""
    if not 0.0 < tpr_target <= 1.0:
        raise InvalidInputError("tpr_target must lie in (0, 1]")
    id_s, ood_s = _split(samples)
    if id_s.size == 0 or ood_s.size == 0:
        raise UndefinedMetricError("FPR@TPR needs at least one ID and one OOD sample")
    need = math.ceil(tpr_target * id_s.size - 1e-12)
    threshold = np.sort(id_s)[id_s.size - need]
    return float((ood_s >= threshold).sum()) / ood_s.size


def accuracy(samples) -> float:
    """Fraction of ID samples with predicted_class == true_class."""
    correct = total = 0
    for s in samples:
        if not s.is_id:
            continue
        if s.predicted_class is None or s.true_class is None:
            raise InvalidInputError("ID samples need predicted_class and true_class for ACC")
        total += 1
        correct += int(s.predicted_class == s.true_class)
    if total == 0:
        raise UndefinedMetricError("no labeled ID samples")
    return correct / total


def metric_report(samples, with_acc: bool = False) -> MetricReport:
    return MetricReport(
        auroc=auroc(samples),
        ap_in=average_precision(samples, "id"),
        ap_out=average_precision(samples, "ood"),
        fpr_at_95tpr=fpr_at_tpr(samples, 0.95),
        acc=accuracy(samples) if with_acc else None,
    )
