import json
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from adaptod import metrics
from adaptod.errors import DataError, InvalidInputError
from adaptod.metrics import metric_report

from oracles import pair_count_auroc, rank_walk_ap, threshold_scan_fpr


def make_samples(id_scores, ood_scores):
    """(scores, is_id) arrays with the ID scores first."""
    scores = np.concatenate([np.asarray(id_scores, float), np.asarray(ood_scores, float)])
    is_id = np.arange(scores.size) < len(id_scores)
    return scores, is_id


def report(scores, is_id):
    """metric_report of (scores, is_id) with every ID sample classified correctly."""
    classes = np.zeros(np.count_nonzero(is_id), int)
    return metric_report(scores, is_id, classes, classes)


def labelled(predicted, true):
    """metric_report of one correct detection whose ID samples have these classes."""
    scores, is_id = make_samples(np.ones(len(predicted)), [0.0])
    return metric_report(scores, is_id, predicted, true)


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
        assert report(*make_samples([0.9, 0.8], [0.1, 0.2])).auroc == 1.0

    def test_all_ties(self):
        assert report(*make_samples([0.5, 0.5], [0.5, 0.5, 0.5])).auroc == 0.5

    def test_matches_pair_counting_oracle(self):
        rng = np.random.default_rng(0)
        for trial in range(50):
            samples, id_s, ood_s = random_samples(rng, 30, tie_heavy=trial % 2 == 0)
            assert report(*samples).auroc == pair_count_auroc(list(id_s), list(ood_s))

    def test_single_class_undefined(self):
        with pytest.raises(DataError, match="at least one ID and one OOD"):
            report(*make_samples([1.0], []))

    def test_symmetry_under_negation_and_flip(self):
        rng = np.random.default_rng(1)
        (scores, is_id), _, _ = random_samples(rng, 40)
        assert report(scores, is_id).auroc == pytest.approx(report(-scores, ~is_id).auroc,
                                                            abs=1e-12)


class TestAveragePrecision:
    def test_perfect_separation(self):
        rep = report(*make_samples([0.9, 0.8], [0.1]))
        assert (rep.ap_in, rep.ap_out) == (1.0, 1.0)

    def test_single_positive_ranked_last(self):
        assert report(*make_samples([0.0], [0.5, 0.6, 0.7])).ap_in == pytest.approx(1 / 4)

    def test_matches_rank_walk_oracle(self):
        rng = np.random.default_rng(2)
        for trial in range(50):
            (scores, flags), _, _ = random_samples(rng, 30, tie_heavy=trial % 2 == 0)
            rep = report(scores, flags)
            assert rep.ap_in == rank_walk_ap(scores, flags)
            assert rep.ap_out == rank_walk_ap(-scores, ~flags)

    def test_no_positives(self):
        for samples in (make_samples([], [0.5]), make_samples([0.5], [])):
            with pytest.raises(DataError, match="at least one ID and one OOD"):
                report(*samples)

    @pytest.mark.parametrize("side", ["id", "ood"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_score_rejected(self, side, bad):
        id_s, ood_s = ([0.9, bad], [0.1, 0.2]) if side == "id" else ([0.9], [0.1, bad])
        with pytest.raises(InvalidInputError, match="scores must be finite"):
            report(*make_samples(id_s, ood_s))


class TestFprAtTpr:
    def test_full_separation(self):
        assert report(*make_samples([0.9, 0.8], [0.1, 0.2])).fpr_at_95tpr == 0.0

    def test_all_identical_scores(self):
        assert report(*make_samples([0.5] * 4, [0.5] * 3)).fpr_at_95tpr == 1.0

    def test_matches_threshold_scan_oracle(self):
        rng = np.random.default_rng(3)
        for trial in range(50):
            samples, id_s, ood_s = random_samples(rng, 50, tie_heavy=trial % 2 == 0)
            assert report(*samples).fpr_at_95tpr == threshold_scan_fpr(
                list(id_s), list(ood_s), 0.95
            )

    def test_requires_both_classes(self):
        with pytest.raises(DataError, match="at least one ID and one OOD"):
            report(*make_samples([], [0.1]))


class TestAccuracy:
    def test_all_correct(self):
        assert labelled(np.arange(5), np.arange(5)).acc == 1.0

    def test_none_correct(self):
        assert labelled(np.arange(5), np.arange(5) + 1).acc == 0.0

    def test_ood_samples_excluded(self):
        # the report takes predicted/true for the ID samples only
        scores, is_id = make_samples([1.0], [0.1])
        predicted, true = np.array([0, 3]), np.array([0, -1])
        rep = metric_report(scores, is_id, predicted[is_id], true[is_id])
        assert rep.acc == 1.0

    def test_seeded_direct_count(self):
        rng = np.random.default_rng(4)
        preds = rng.integers(0, 3, 100)
        trues = rng.integers(0, 3, 100)
        assert labelled(preds, trues).acc == (preds == trues).mean()

    def test_missing_labels(self):
        with pytest.raises(InvalidInputError, match="must be 1-D and of equal length"):
            labelled(np.arange(3), np.arange(2))
        with pytest.raises(InvalidInputError, match="must be 1-D and of equal length"):
            metric_report(*make_samples([0.9], [0.1]), np.arange(1), np.arange(1)[:, None])
        with pytest.raises(DataError, match="no labeled ID samples"):
            metric_report(*make_samples([0.9], [0.1]), [], [])


class TestInvarianceAndReport:
    @pytest.mark.parametrize("transform", [np.exp, lambda s: 3.0 * s + 7.0])
    def test_detection_metrics_invariant_under_increasing_transforms(self, transform):
        rng = np.random.default_rng(5)
        (scores, is_id), _, _ = random_samples(rng, 60)
        mapped, plain = asdict(report(transform(scores), is_id)), asdict(report(scores, is_id))
        assert mapped == pytest.approx(plain, abs=1e-12)

    def test_report_fields_in_unit_interval(self):
        rng = np.random.default_rng(6)
        (scores, is_id), _, _ = random_samples(rng, 80)
        classes = rng.integers(0, 3, (2, np.count_nonzero(is_id)))
        for value in asdict(metric_report(scores, is_id, *classes)).values():
            assert 0.0 <= value <= 1.0

    def test_report_json_round_trip(self):
        """The report's fields, as cli writes them, are five plain floats."""
        rng = np.random.default_rng(8)
        (scores, is_id), _, _ = random_samples(rng, 40)
        fields = asdict(report(scores, is_id))
        assert json.loads(json.dumps(fields)) == fields
        assert sorted(fields) == ["acc", "ap_in", "ap_out", "auroc", "fpr_at_95tpr"]
        assert all(type(v) is float for v in fields.values())

    def test_each_call_checks_the_scores_once(self, monkeypatch):
        calls = []
        check = metrics._check
        monkeypatch.setattr(metrics, "_check", lambda *a: calls.append(1) or check(*a))
        scores, is_id = make_samples([0.9, 0.8], [0.1])
        report(scores, is_id)
        assert len(calls) == 1

    def test_scores_are_checked_before_the_classes(self):
        with pytest.raises(InvalidInputError, match="scores must be finite"):
            metric_report(*make_samples([np.nan], [0.1]), np.arange(1), np.arange(2))


# A five-value alphabet makes ties common; the float branch covers the rest.
SCORE = st.one_of(st.sampled_from([-1.0, 0.0, 0.25, 1.0, 3.0]),
                  st.floats(-1e6, 1e6, allow_nan=False))


@st.composite
def scored_streams(draw):
    """(scores, is_id) with at least one ID and one OOD sample."""
    rows = draw(st.lists(st.tuples(SCORE, st.booleans()), min_size=2, max_size=60))
    scores = np.array([r[0] for r in rows])
    is_id = np.array([r[1] for r in rows])
    assume(is_id.any() and not is_id.all())
    return scores, is_id


class TestArrayProperties:
    @settings(max_examples=200, deadline=None)
    @given(scored_streams())
    def test_equal_bruteforce_oracles_exactly(self, stream):
        scores, is_id = stream
        id_s, ood_s = list(scores[is_id]), list(scores[~is_id])
        rep = report(scores, is_id)
        assert rep.auroc == pair_count_auroc(id_s, ood_s)
        assert rep.ap_in == rank_walk_ap(scores, is_id)
        assert rep.ap_out == rank_walk_ap(-scores, ~is_id)
        assert rep.fpr_at_95tpr == threshold_scan_fpr(id_s, ood_s, 0.95)

    @settings(max_examples=200, deadline=None)
    @given(scored_streams())
    def test_auroc_of_negated_scores_is_the_complement(self, stream):
        scores, is_id = stream
        assert report(scores, is_id).auroc + report(-scores, is_id).auroc == pytest.approx(1)

    @settings(deadline=None)
    @given(st.lists(SCORE, min_size=1, max_size=20), st.integers(0, 20))
    def test_mismatched_lengths_raise(self, scores, n_flags):
        assume(n_flags != len(scores))
        is_id = np.arange(n_flags) % 2 == 0
        with pytest.raises(InvalidInputError, match="must be 1-D and of equal length"):
            report(scores, is_id)
