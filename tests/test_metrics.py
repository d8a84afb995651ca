import numpy as np
import pytest

from adaptod.errors import InvalidInputError, UndefinedMetricError
from adaptod.metrics import (
    MetricReport,
    ScoredSample,
    accuracy,
    auroc,
    average_precision,
    fpr_at_tpr,
    metric_report,
)

from oracles import pair_count_auroc, rank_walk_ap, threshold_scan_fpr


def make_samples(id_scores, ood_scores):
    return [ScoredSample(s, True) for s in id_scores] + [
        ScoredSample(s, False) for s in ood_scores
    ]


def random_samples(rng, n, tie_heavy=False):
    """Mixed ID/OOD scores; tie-heavy inputs draw from a tiny score alphabet."""
    n_id = int(rng.integers(1, n))
    n_ood = n - n_id
    if n_ood < 1:
        n_id, n_ood = n - 1, 1
    if tie_heavy:
        pool = rng.choice([0.0, 0.25, 0.5, 1.0], size=n)
    else:
        pool = rng.standard_normal(n)
    return make_samples(pool[:n_id], pool[n_id:]), pool[:n_id], pool[n_id:]


class TestAuroc:
    def test_full_separation(self):
        assert auroc(make_samples([0.9, 0.8], [0.1, 0.2])) == 1.0

    def test_all_ties(self):
        assert auroc(make_samples([0.5, 0.5], [0.5, 0.5, 0.5])) == 0.5

    def test_matches_pair_counting_oracle(self):
        rng = np.random.default_rng(0)
        for trial in range(50):
            samples, id_s, ood_s = random_samples(rng, 30, tie_heavy=trial % 2 == 0)
            assert auroc(samples) == pair_count_auroc(list(id_s), list(ood_s))

    def test_single_class_undefined(self):
        with pytest.raises(UndefinedMetricError):
            auroc(make_samples([1.0], []))

    def test_symmetry_under_negation_and_flip(self):
        rng = np.random.default_rng(1)
        samples, _, _ = random_samples(rng, 40)
        flipped = [ScoredSample(-s.score, not s.is_id) for s in samples]
        assert auroc(samples) == pytest.approx(auroc(flipped), abs=1e-12)


class TestAveragePrecision:
    def test_perfect_separation(self):
        assert average_precision(make_samples([0.9, 0.8], [0.1]), "id") == 1.0
        assert average_precision(make_samples([0.9, 0.8], [0.1]), "ood") == 1.0

    def test_single_positive_ranked_last(self):
        samples = make_samples([0.0], [0.5, 0.6, 0.7])
        assert average_precision(samples, "id") == pytest.approx(1 / 4)

    def test_matches_rank_walk_oracle(self):
        rng = np.random.default_rng(2)
        for trial in range(50):
            samples, _, _ = random_samples(rng, 30, tie_heavy=trial % 2 == 0)
            scores = [s.score for s in samples]
            flags = [s.is_id for s in samples]
            assert average_precision(samples, "id") == rank_walk_ap(scores, flags)
            assert average_precision(samples, "ood") == rank_walk_ap(
                [-v for v in scores], [not f for f in flags]
            )

    def test_no_positives(self):
        with pytest.raises(UndefinedMetricError):
            average_precision([ScoredSample(0.5, False)], "id")

    @pytest.mark.parametrize("positive", ["id", "ood"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_score_rejected(self, positive, bad):
        # auroc and fpr_at_tpr raise on the same input
        samples = make_samples([0.9, bad], [0.1, 0.2])
        with pytest.raises(InvalidInputError, match="scores must be finite"):
            average_precision(samples, positive)


class TestFprAtTpr:
    def test_full_separation(self):
        assert fpr_at_tpr(make_samples([0.9, 0.8], [0.1, 0.2])) == 0.0

    def test_all_identical_scores(self):
        assert fpr_at_tpr(make_samples([0.5] * 4, [0.5] * 3)) == 1.0

    def test_matches_threshold_scan_oracle(self):
        rng = np.random.default_rng(3)
        for trial in range(50):
            samples, id_s, ood_s = random_samples(rng, 50, tie_heavy=trial % 2 == 0)
            assert fpr_at_tpr(samples) == threshold_scan_fpr(
                list(id_s), list(ood_s), 0.95
            )

    def test_requires_both_classes(self):
        with pytest.raises(UndefinedMetricError):
            fpr_at_tpr(make_samples([], [0.1]))


class TestAccuracy:
    def test_all_correct(self):
        samples = [ScoredSample(1.0, True, predicted_class=c, true_class=c) for c in range(5)]
        assert accuracy(samples) == 1.0

    def test_none_correct(self):
        samples = [ScoredSample(1.0, True, predicted_class=c, true_class=c + 1) for c in range(5)]
        assert accuracy(samples) == 0.0

    def test_ood_samples_excluded(self):
        samples = [
            ScoredSample(1.0, True, predicted_class=0, true_class=0),
            ScoredSample(0.1, False),
        ]
        assert accuracy(samples) == 1.0

    def test_seeded_direct_count(self):
        rng = np.random.default_rng(4)
        preds = rng.integers(0, 3, 100)
        trues = rng.integers(0, 3, 100)
        samples = [
            ScoredSample(0.0, True, predicted_class=int(p), true_class=int(t))
            for p, t in zip(preds, trues)
        ]
        assert accuracy(samples) == (preds == trues).mean()

    def test_missing_labels(self):
        with pytest.raises(InvalidInputError):
            accuracy([ScoredSample(1.0, True)])


class TestInvarianceAndReport:
    @pytest.mark.parametrize("transform", [np.exp, lambda s: 3.0 * s + 7.0])
    def test_detection_metrics_invariant_under_increasing_transforms(self, transform):
        rng = np.random.default_rng(5)
        samples, _, _ = random_samples(rng, 60)
        mapped = [
            ScoredSample(float(transform(s.score)), s.is_id) for s in samples
        ]
        assert auroc(mapped) == pytest.approx(auroc(samples), abs=1e-12)
        assert average_precision(mapped, "id") == pytest.approx(
            average_precision(samples, "id"), abs=1e-12
        )
        assert average_precision(mapped, "ood") == pytest.approx(
            average_precision(samples, "ood"), abs=1e-12
        )
        assert fpr_at_tpr(mapped) == pytest.approx(fpr_at_tpr(samples), abs=1e-12)

    def test_report_fields_in_unit_interval(self):
        rng = np.random.default_rng(6)
        samples, _, _ = random_samples(rng, 80)
        report = metric_report(samples)
        for value in (report.auroc, report.ap_in, report.ap_out, report.fpr_at_95tpr):
            assert 0.0 <= value <= 1.0
        assert report.acc is None

    def test_report_json_round_trip(self):
        report = MetricReport(auroc=0.9, ap_in=0.8, ap_out=0.7, fpr_at_95tpr=0.2, acc=0.5)
        import json

        payload = json.loads(report.to_json())
        assert payload == {
            "auroc": 0.9, "ap_in": 0.8, "ap_out": 0.7, "fpr_at_95tpr": 0.2, "acc": 0.5
        }
