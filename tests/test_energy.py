import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from adaptod.doda import EnergyStats, OutlierDistribution, adapt_and_score, run_plans
from adaptod.energy import (_LOG_FLOAT_MAX, _scaled, _scaled_rows, _shifted_exp,
                            batch_energy_normalize, global_energies)
from adaptod.errors import InvalidInputError, NumericError

from oracles import calibrated_energy, global_energy, rowwise_global_energies

# frozen from a 40-digit mpmath evaluation of e^1 + e^2
E1_PLUS_E2 = 10.10733792738969546259071493192767031094
# frozen from a 40-digit mpmath evaluation of (e + e^2 + e^3) / 1.5
CALIB_123 = 20.12858323371824213567949639100625880528


def one_global_energy(logits):
    """global_energies of one logit vector."""
    return float(global_energies([logits])[0])


# no G lies below -inf: a sample is scored under P as given, and never accepted
REJECT_ALL = EnergyStats(mu_in=0.0, sigma_in=0.0, alpha=3.0, r=-math.inf)


def frozen_scores(rows, p_out):
    """The calibrated scores of a logit matrix under a frozen run_plans plan
    with P = p_out: the shared scoring of idle plans."""
    state = OutlierDistribution(values=p_out, m=1)
    _, ((scores, _, final),) = run_plans(state, rows, [(0.0, -math.inf)])
    assert final is state
    return scores


def one_calibrated_energy(logits, p_out):
    """The calibrated score of one logit vector under P = p_out, from
    adapt_and_score of a sample it rejects, which the frozen plan's equals."""
    score = adapt_and_score(OutlierDistribution(values=p_out, m=1), REJECT_ALL, logits)[1]
    assert frozen_scores([logits], p_out) == [score]
    return score


class TestGlobalEnergy:
    def test_zero_logits(self):
        assert one_global_energy([0.0, 0.0, 0.0]) == pytest.approx(3.0, rel=1e-12)

    def test_log_logits(self):
        assert one_global_energy([math.log(2), math.log(3)]) == pytest.approx(5.0, rel=1e-12)

    def test_high_precision_reference(self):
        assert one_global_energy([1.0, 2.0]) == pytest.approx(E1_PLUS_E2, rel=1e-12)

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError, match="non-finite"):
            one_global_energy([0.0, float("nan")])
        with pytest.raises(InvalidInputError, match="non-finite"):
            one_global_energy([0.0, float("inf")])

    def test_overflow_is_loud(self):
        with pytest.raises(NumericError):
            one_global_energy([800.0, 800.0])

    def test_large_but_representable(self):
        # max-shift keeps this in range even though naive exp would be fine too
        assert math.isfinite(one_global_energy([700.0, 0.0]))

    def test_strictly_increasing_per_coordinate(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            v = rng.standard_normal(rng.integers(2, 12))
            base = one_global_energy(v)
            bumped = v.copy()
            j = rng.integers(0, v.size)
            bumped[j] += rng.uniform(0.01, 1.0)
            assert one_global_energy(bumped) > base


def overflow_edge_rows():
    """Rows whose log global energy lies within 1e-12 of the float64 limit, on
    both sides: constant rows and rows with one dominant logit."""
    rows = []
    for k in (1, 2, 3, 10):
        for d in np.linspace(-1e-12, 1e-12, 41):
            rows.append(np.full(k, _LOG_FLOAT_MAX - math.log(k) + d))
            rows.append(np.r_[_LOG_FLOAT_MAX + d, np.full(k - 1, -30.0)])
    return rows


@st.composite
def near_limit_rows(draw):
    """Finite logit rows whose log global energy m + log(total) lies within about 2
    of the float64 limit, on both sides: across the screen of _scaled_rows."""
    n, k = draw(st.integers(1, 8)), draw(st.integers(1, 6))
    shape = draw(hnp.arrays(np.float64, (n, k), elements=st.floats(-40.0, 0.0)))
    at = draw(hnp.arrays(np.float64, n, elements=st.floats(-2.0, 2.0)))
    rows = shape - shape.max(axis=1, keepdims=True)  # each row peaks at 0
    return rows + (_LOG_FLOAT_MAX + at - np.log(np.exp(rows).sum(axis=1)))[:, None]


class TestScaledRows:
    @settings(max_examples=300, deadline=None)
    @given(near_limit_rows())
    def test_equals_scaled_row_by_row_near_the_limit(self, rows):
        m, e = _shifted_exp(rows)
        totals = e.sum(axis=1)
        assert (abs(m + np.log(totals) - _LOG_FLOAT_MAX) <= 2.0 + 1e-9).all()
        want = []
        for i, (mi, total) in enumerate(zip(m.tolist(), totals.tolist())):
            try:
                want.append(_scaled(mi, total))
            except NumericError:  # the first row _scaled refuses names the error
                with pytest.raises(NumericError,
                                   match=f"^sample {i}: global energy exceeds float64 range$"):
                    _scaled_rows(m, totals)
                return
        scales, values = _scaled_rows(m, totals)
        assert list(zip(scales.tolist(), values.tolist())) == want


class TestGlobalEnergies:
    @pytest.mark.parametrize("k", [1, 2, 3, 8, 10, 17])
    @pytest.mark.parametrize("scale", [0.1, 1.0, 30.0, 100.0])
    def test_equals_the_per_row_loop_exactly(self, k, scale):
        rng = np.random.default_rng(k)
        rows = rng.standard_normal((2000, k)) * scale + rng.uniform(-50, 50, (2000, 1))
        want = rowwise_global_energies(rows)
        assert np.array_equal(global_energies(rows), want)
        assert np.array_equal(global_energies(np.asfortranarray(rows)), want)

    def test_overflow_edge_rows_match_the_per_row_loop(self):
        outcomes = []
        for row in overflow_edge_rows():
            try:
                want = rowwise_global_energies([row])[0]
            except OverflowError:
                with pytest.raises(NumericError):
                    global_energies(row[None, :])
                outcomes.append("raised")
                continue
            assert global_energies(row[None, :])[0] == want
            outcomes.append("finite")
        assert {"raised", "finite"} <= set(outcomes)

    def test_one_overflowing_row_fails_the_matrix(self):
        with pytest.raises(NumericError):
            global_energies([[0.0, 0.0], [800.0, 800.0]])

    def test_rejects_bad_input(self):
        with pytest.raises(InvalidInputError, match="non-finite"):
            global_energies([[0.0, float("nan")]])
        with pytest.raises(InvalidInputError, match="expected a 2-D logit array"):
            global_energies([0.0, 1.0])
        with pytest.raises(InvalidInputError, match="expected a 2-D logit array"):
            global_energies(np.empty((3, 0)))


class TestCalibratedEnergy:
    """The score of one sample under a given P, on adapt_and_score's path and
    the frozen plan's."""

    def test_zero_prior_reduces_to_global(self):
        assert one_calibrated_energy([0.0, 0.0], [0.0, 0.0]) == pytest.approx(2.0, rel=1e-12)

    def test_forced_values(self):
        assert one_calibrated_energy([0.0, 0.0], [1.0, 3.0]) == pytest.approx(0.75, rel=1e-12)

    def test_high_precision_reference(self):
        got = one_calibrated_energy([1.0, 2.0, 3.0], [0.5, 0.5, 0.5])
        assert got == pytest.approx(CALIB_123, rel=1e-12)

    def test_matches_global_for_zero_prior_randomly(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            v = rng.standard_normal(5) * 3
            assert one_calibrated_energy(v, np.zeros(5)) == one_global_energy(v)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError, match="^sample 0: sample has k=2, state has k=3$"):
            adapt_and_score(OutlierDistribution(values=np.zeros(3), m=1), REJECT_ALL, [0.0, 0.0])
        with pytest.raises(InvalidInputError, match="^sample 0: sample has k=2, state has k=3$"):
            frozen_scores([[0.0, 0.0]], [0.0, 0.0, 0.0])

    def test_overflowing_scale_raises_energy_overflow(self):
        # the damped total would pass a log guard, but exp(710) is not a float64:
        # G overflows first, and only G is checked
        with pytest.raises(NumericError, match="^sample 0: global energy exceeds"):
            one_calibrated_energy([710.0, 0.0], [10.0, 0.0])

    def test_negative_prior_rejected(self):
        with pytest.raises(InvalidInputError, match="^values must be finite and non-negative$"):
            one_calibrated_energy([0.0, 0.0], [0.0, -1.0])


class TestCalibratedEnergies:
    """The scores of a logit matrix under a given P: the frozen plan's one matrix
    pass, adapt_and_score row by row and a busy plan's per-sample step."""

    @pytest.mark.parametrize("k", [1, 2, 3, 8, 10, 17])
    @pytest.mark.parametrize("scale", [0.1, 1.0, 30.0, 100.0])
    def test_equals_the_per_row_function_exactly(self, k, scale):
        rng = np.random.default_rng(k)
        rows = rng.standard_normal((2000, k)) * scale + rng.uniform(-50, 50, (2000, 1))
        p = rng.uniform(0.0, 3.0, k) ** 4
        want = [calibrated_energy(row, p) for row in rows]
        assert frozen_scores(rows, p) == want
        assert frozen_scores(np.asfortranarray(rows), p) == want
        state = OutlierDistribution(values=p, m=1)
        assert [adapt_and_score(state, REJECT_ALL, row)[1] for row in rows[:100]] == want[:100]

    def test_zero_prior_equals_global_energies_exactly(self):
        rows = np.random.default_rng(3).standard_normal((500, 10)) * 20
        assert frozen_scores(rows, np.zeros(10)) == global_energies(rows).tolist()

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(overflow_edge_rows() + [np.array([710.0, 0.0])]).flatmap(
        lambda row: st.tuples(st.just(row), hnp.arrays(np.float64, row.size,
                                                       elements=st.floats(0.0, 1e300)))))
    def test_scores_are_checked_only_through_g(self, case):
        """Sample 1 of a stream, scored under P: idle (frozen plan), busy (an
        oracle plan that accepts only sample 2) and alone (adapt_and_score). Where
        G is finite, each score is finite, at most G and the oracle's bits; where
        G overflows, each path raises an error that names the sample."""
        row, p = case
        zeros = np.zeros(row.size)
        stream, state = np.array([zeros, row, zeros]), OutlierDistribution(values=p, m=1)
        plans = [(0.0, -math.inf), (1.0, -math.inf)]
        labels = np.array([False, False, True])

        def scores():
            _, ((idle, _, _), (busy, mask, _)) = run_plans(
                state, stream, plans, oracle_labels=labels, rng=np.random.default_rng(0))
            assert mask.tolist() == labels.tolist()  # the busy plan steps every sample
            alone = adapt_and_score(state, REJECT_ALL, row, 1)[1]
            return idle[1], busy[1], alone

        try:
            g = global_energy(row)
        except OverflowError:
            with pytest.raises(NumericError,
                               match="^sample 1: global energy exceeds float64 range$"):
                scores()
            return
        want = calibrated_energy(row, p)
        for score in scores():
            assert math.isfinite(score) and score <= g
            assert score == want

    def test_damped_total_does_not_hide_an_overflowing_scale(self):
        with pytest.raises(NumericError,
                           match="^sample 1: global energy exceeds float64 range$"):
            frozen_scores([[0.0, 0.0], [710.0, 0.0]], [10.0, 0.0])

    def test_rejects_bad_input(self):
        with pytest.raises(InvalidInputError, match="^sample 0: logits contain non-finite"):
            frozen_scores([[0.0, float("nan")]], [0.0, 0.0])
        with pytest.raises(InvalidInputError, match="^values must be finite and non-negative$"):
            frozen_scores([[0.0, 0.0]], [0.0, -1.0])
        with pytest.raises(InvalidInputError, match="^sample 0: sample has k=2, state has k=3$"):
            frozen_scores([[0.0, 0.0]], [0.0, 0.0, 0.0])
        with pytest.raises(InvalidInputError, match="^sample 0: expected a 1-D logit array"):
            frozen_scores([0.0, 1.0], [0.0, 0.0])


class TestBatchEnergyNormalize:
    def test_identical_rows(self):
        norm = batch_energy_normalize(np.ones((4, 3)))
        assert np.allclose(norm, 0.25)

    def test_single_row(self):
        norm = batch_energy_normalize(np.array([[5.0, -2.0, 0.3]]))
        assert np.allclose(norm, 1.0)

    def test_two_row_hand_case(self):
        norm = batch_energy_normalize(np.array([[0.0, 0.0], [math.log(3), 0.0]]))
        assert norm[:, 0] == pytest.approx([0.25, 0.75], rel=1e-12)
        assert norm[:, 1] == pytest.approx([0.5, 0.5], rel=1e-12)

    def test_empty_batch(self):
        with pytest.raises(InvalidInputError, match="empty batch"):
            batch_energy_normalize(np.empty((0, 3)))

    def test_columns_sum_to_one(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            rows = rng.standard_normal((rng.integers(1, 64), rng.integers(2, 16))) * 5
            norm = batch_energy_normalize(rows)
            assert np.abs(norm.sum(axis=0) - 1.0).max() < 1e-9

    def test_total_mass_equals_k(self):
        rng = np.random.default_rng(4)
        rows = rng.standard_normal((128, 17))
        norm = batch_energy_normalize(rows)
        assert norm.sum() == pytest.approx(17.0, abs=1e-9)

    def test_column_shift_invariance(self):
        # adding a constant to one column leaves that column's normalized
        # values unchanged and does not touch the other columns at all
        rng = np.random.default_rng(5)
        rows = rng.standard_normal((10, 4))
        shifted = rows.copy()
        shifted[:, 2] += 7.3
        a = batch_energy_normalize(rows)
        b = batch_energy_normalize(shifted)
        assert np.allclose(a[:, 2], b[:, 2], rtol=1e-12)
        others = [0, 1, 3]
        assert np.array_equal(a[:, others], b[:, others])

    def test_accepts_logit_batch(self):
        """A training batch is one matrix: ID rows stacked above outlier rows."""
        batch = np.vstack([np.zeros((2, 2)), np.zeros((2, 2))])
        assert np.allclose(batch_energy_normalize(batch), 0.25)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 12).flatmap(lambda k: st.tuples(
        hnp.arrays(np.float64, st.tuples(st.integers(1, 40), st.just(k)),
                   elements=st.floats(-100.0, 100.0)),
        hnp.arrays(np.float64, k, elements=st.floats(-100.0, 100.0)))))
    def test_invariant_to_a_per_column_shift(self, case):
        m, c = case
        np.testing.assert_allclose(batch_energy_normalize(m + c[None, :]),
                                   batch_energy_normalize(m), rtol=0, atol=1e-12)
