import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from adaptod import doda
from adaptod.doda import (
    _LOG_FLOAT_MAX,
    AdaptationEvent,
    EnergyStats,
    OutlierDistribution,
    _scaled,
    _scaled_rows,
    _shifted_exp,
    adapt_and_score,
    fit_energy_stats,
    global_energies,
    init_outlier_distribution,
    run_plans,
    run_stream,
)
from adaptod.errors import AdaptOdError, InvalidInputError, NumericError

from oracles import (calibrated_energy, global_energy, mean_std_threshold, one_plan_stream,
                     prefix_mean_stream, rowwise_exp_mean, rowwise_global_energies,
                     running_mean_closed_form)


def logits_with_energy(g, k=2):
    """Constant logit vector whose global energy is exactly g."""
    return np.full(k, math.log(g / k))


class TestFitEnergyStats:
    def test_zero_variance(self):
        stats = fit_energy_stats([logits_with_energy(10), logits_with_energy(10)])
        assert stats.mu_in == pytest.approx(10.0)
        assert stats.sigma_in == 0.0
        assert stats.r == pytest.approx(10.0)

    def test_two_point_case(self):
        stats = fit_energy_stats([logits_with_energy(8), logits_with_energy(12)], alpha=3.0)
        assert stats.mu_in == pytest.approx(10.0)
        assert stats.sigma_in == pytest.approx(math.sqrt(8), rel=1e-12)
        assert stats.r == pytest.approx(10 - 3 * math.sqrt(8), rel=1e-12)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(42)
        logits = rng.standard_normal((1000, 5))
        stats = fit_energy_stats(logits, alpha=3.0)
        energies = [global_energy(row) for row in logits]
        mu, sigma, r = mean_std_threshold(energies, 3.0)
        assert stats.mu_in == pytest.approx(mu, rel=1e-9)
        assert stats.sigma_in == pytest.approx(sigma, rel=1e-9)
        assert stats.r == pytest.approx(r, rel=1e-9)

    def test_moments_of_the_per_row_energies_exactly(self):
        rng = np.random.default_rng(43)
        logits = rng.standard_normal((745, 10)) * 4
        energies = rowwise_global_energies(logits)
        mu = float(energies.mean())
        sigma = math.sqrt(float(((energies - mu) ** 2).sum()) / (energies.size - 1))
        assert fit_energy_stats(logits, alpha=2.5) == EnergyStats(mu, sigma, 2.5)

    def test_needs_two_samples(self):
        with pytest.raises(InvalidInputError, match="need at least 2 samples"):
            fit_energy_stats([logits_with_energy(5)])

    @pytest.mark.parametrize("rows", [
        [[708.0, 700.0, 1.0], [705.0, 2.0, 1.0], [700.0, 1.0, 1.0]],  # sigma overflows
        [[709.0, 0.0], [709.0, 0.0], [709.0, 0.0]],  # the energies' sum overflows
    ])
    def test_overflowing_moments_raise(self, rows):
        with np.errstate(over="raise"):  # no overflow warning escapes either
            with pytest.raises(NumericError, match="sigma_in=inf"):
                fit_energy_stats(rows)

    def test_threshold_identity(self):
        stats = EnergyStats(5.0, 2.0, alpha=2.5)
        assert stats.r == 5.0 - 2.5 * 2.0

    @pytest.mark.parametrize("mu, sigma, alpha", [(5.0, 2.0, 2.5), (0.1, 0.7, 3.0),
                                                  (-1e6, 3.3, 0.3), (1e300, 1e299, 7.0),
                                                  (np.float64(5.0), 2, np.float32(0.5))])
    def test_r_is_derived_bit_for_bit_and_again_by_replace(self, mu, sigma, alpha):
        stats = EnergyStats(mu, sigma, alpha)
        assert stats.r.hex() == (mu - alpha * sigma).hex()
        for a in (0.5, 2.0, 4.0):
            assert dataclasses.replace(stats, alpha=a).r.hex() == (mu - a * sigma).hex()

    @pytest.mark.parametrize("mu, sigma, alpha, message", [
        (0.0, 1.0, "3", "alpha must be a real number, got '3'"),
        (0.0, 1.0, True, "alpha must be a real number, got True"),
        ("0", 1.0, 3.0, "mu_in must be a real number, got '0'"),
        (False, 1.0, 3.0, "mu_in must be a real number, got False"),
        (0.0, None, 3.0, "sigma_in must be a real number, got None"),
        (0.0, 1j, 3.0, "sigma_in must be a real number, got 1j"),
        (10**400, 1.0, 3.0, "mu_in is too large for a float"),
        (0.0, 10**400, 3.0, "sigma_in is too large for a float"),
        (0.0, 1.0, 10**400, "alpha is too large for a float"),
    ])
    def test_values_must_be_real_numbers(self, mu, sigma, alpha, message):
        with pytest.raises(InvalidInputError, match="^" + re.escape(message) + "$"):
            EnergyStats(mu, sigma, alpha)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_alpha_must_be_finite_and_positive(self, alpha):
        with pytest.raises(InvalidInputError, match=f"alpha must be finite and positive, got {alpha}"):
            EnergyStats(5.0, 2.0, alpha)

    @pytest.mark.parametrize("mu, sigma, alpha", [
        (5.0, 2.0, 1e308),  # alpha * sigma overflows: R was -inf and accepted nothing
        (-1e308, 1e308, 1.0),  # mu - alpha * sigma overflows
    ])
    def test_threshold_must_be_finite(self, mu, sigma, alpha):
        with pytest.raises(InvalidInputError, match="^" + re.escape(
                "threshold R = mu_in - alpha * sigma_in is not finite "
                f"(alpha={alpha}, mu_in={mu}, sigma_in={sigma})") + "$"):
            EnergyStats(mu, sigma, alpha)

    @pytest.mark.parametrize("mu, sigma, message", [
        (math.nan, 1.0, "mu_in must be finite, got nan"),
        (math.inf, 1.0, "mu_in must be finite, got inf"),
        (-math.inf, 1.0, "mu_in must be finite, got -inf"),
        (1.0, math.nan, "sigma_in must be finite and >= 0, got nan"),
        (1.0, math.inf, "sigma_in must be finite and >= 0, got inf"),
        (1.0, -1.0, "sigma_in must be finite and >= 0, got -1.0"),
    ])
    def test_moments_must_be_finite(self, mu, sigma, message):
        with pytest.raises(InvalidInputError, match="^" + re.escape(message) + "$"):
            EnergyStats(mu, sigma, 3.0)


class TestInitOutlierDistribution:
    def test_single_outlier(self):
        dist = init_outlier_distribution([[0.0, 0.0]])
        assert np.allclose(dist.values, [1.0, 1.0])
        assert dist.m == 1

    def test_two_outliers(self):
        dist = init_outlier_distribution([[0.0, 0.0], [math.log(3), math.log(5)]])
        assert dist.values == pytest.approx([2.0, 3.0], rel=1e-12)

    def test_matches_mean_oracle(self):
        rng = np.random.default_rng(9)
        logits = rng.standard_normal((500, 7)) * 2
        dist = init_outlier_distribution(logits, virtual_count=3)
        expected = np.exp(logits).mean(axis=0)
        assert dist.values == pytest.approx(expected, rel=1e-9)
        assert dist.m == 3

    @pytest.mark.parametrize("n, k", [(1, 3), (100, 10), (1000, 10), (777, 17)])
    def test_equals_the_per_row_loop_exactly(self, n, k):
        logits = np.random.default_rng(n).standard_normal((n, k)) * 5
        want = rowwise_exp_mean(logits)
        assert np.array_equal(init_outlier_distribution(logits).values, want)
        assert np.array_equal(init_outlier_distribution(np.asfortranarray(logits)).values, want)

    def test_overflowing_logit_raises(self):
        with pytest.raises(NumericError,
                           match=r"^sample 1: exp\(logit\) exceeds float64 range$"):
            init_outlier_distribution([[0.0, 0.0], [710.0, 0.0], [800.0, 0.0]])

    def test_overflowing_mean_of_finite_exponentials_raises_unwarned(self):
        with pytest.raises(NumericError, match=r"^mean exp\(logit\) exceeds float64 range$"):
            init_outlier_distribution([[709.0, 0.0]] * 3)

    def test_a_virtual_count_outside_0_to_2_pow_53_is_refused(self):
        """2**53 is the largest count a float64 holds exactly; a larger one
        rounds in the running-mean update, and a huge one overflows it."""
        assert init_outlier_distribution([[0.0, 0.0]], virtual_count=2**53).m == 2**53
        for count in (-1, 2**53 + 1, 10**400):
            message = rf"^virtual_count must lie in \[0, {2**53}\], got {count}$"
            with pytest.raises(InvalidInputError, match=message):
                init_outlier_distribution([[0.0, 0.0]], virtual_count=count)

    @pytest.mark.parametrize("count", [1.5, 1.0, "1", True, None])
    def test_a_count_that_is_not_an_integer_is_refused(self, count):
        """1.5 was once taken as is, and one accepted sample made it 2.5."""
        with pytest.raises(InvalidInputError,
                           match=f"^virtual_count must be an integer, got {re.escape(repr(count))}$"):
            init_outlier_distribution([[0.0, 0.0]], virtual_count=count)
        with pytest.raises(InvalidInputError,
                           match=f"^count m must be an integer, got {re.escape(repr(count))}$"):
            OutlierDistribution(values=np.ones(2), m=count)

    def test_numpy_integer_counts_are_integers(self):
        assert init_outlier_distribution([[0.0, 0.0]], virtual_count=np.int64(3)).m == 3
        assert OutlierDistribution(values=np.ones(2), m=np.uint8(2)).m == 2
        state = OutlierDistribution(values=np.ones(2), m=np.uint8(255))  # stored as an int,
        assert adapt_and_score(state, EnergyStats(100.0, 1.0), [0.0, 0.0])[0].m == 256  # not 0

    @pytest.mark.parametrize("m", [-1, 2**53 + 1, 10**400], ids=["-1", "2**53+1", "10**400"])
    def test_a_count_outside_0_to_2_pow_53_is_refused(self, m):
        """A count of 10**400 once passed here and escaped run_stream as a bare
        OverflowError from the running-mean update."""
        assert OutlierDistribution(values=np.ones(2), m=2**53).m == 2**53
        with pytest.raises(InvalidInputError,
                           match=rf"^count m must lie in \[0, {2**53}\], got {m}$"):
            run_stream(OutlierDistribution(values=np.ones(2), m=m),
                       EnergyStats(100.0, 1.0), np.zeros((3, 2)))

    def test_rows_without_classes(self):
        with pytest.raises(InvalidInputError, match="expected a 2-D logit array with k >= 1"):
            init_outlier_distribution(np.empty((3, 0)))

    def test_empty_outlier_set(self):
        with pytest.raises(InvalidInputError, match="need at least one outlier sample"):
            init_outlier_distribution(np.empty((0, 3)))


class TestAdaptAndScore:
    def stats_accepting_below(self, r):
        return EnergyStats(mu_in=r, sigma_in=0.0, alpha=3.0)

    def test_first_accept_with_zero_count_replaces_values(self):
        state = OutlierDistribution(values=np.array([9.0, 9.0]), m=0)
        stats = self.stats_accepting_below(100.0)
        new_state, _, accepted = adapt_and_score(state, stats, [0.0, math.log(3)])
        assert accepted is True
        assert new_state.values == pytest.approx([1.0, 3.0], rel=1e-12)
        assert new_state.m == 1

    def test_momentum_update(self):
        state = OutlierDistribution(values=np.array([1.0, 1.0]), m=1)
        stats = self.stats_accepting_below(100.0)
        new_state, _, _ = adapt_and_score(state, stats, [math.log(3), math.log(5)])
        assert new_state.values == pytest.approx([2.0, 3.0], rel=1e-12)
        assert new_state.m == 2

    def test_rejection_is_bit_identical_noop(self):
        state = OutlierDistribution(values=np.array([1.0, 2.0]), m=4)
        stats = self.stats_accepting_below(1.0)
        new_state, _, accepted = adapt_and_score(state, stats, [5.0, 5.0])
        assert new_state is state
        assert accepted is False

    def test_accepted_state_skips_revalidation_but_keeps_its_invariants(self):
        state = OutlierDistribution(values=np.array([1.0, 1.0]), m=1)
        stats = self.stats_accepting_below(100.0)
        new_state, _, _ = adapt_and_score(state, stats, [math.log(3), math.log(5)])
        assert type(new_state) is OutlierDistribution
        assert new_state.values.dtype == np.float64 and not new_state.values.flags.writeable
        with pytest.raises(AttributeError):
            new_state.m = 5

    def test_overflowing_update_raises_and_names_the_sample(self):
        state = OutlierDistribution(values=np.array([1e308, 1.0]), m=2)
        stats = self.stats_accepting_below(100.0)
        with pytest.raises(NumericError,
                           match=r"^sample 1: mean exp\(logit\) exceeds float64 range$"):
            run_stream(state, stats, [[50.0, 0.0], [0.0, 0.0]])

    def test_overflowing_online_update_raises_unwarned(self):
        state = init_outlier_distribution([[709.0, 0.0]], virtual_count=64)
        with pytest.raises(NumericError,
                           match=r"^sample 4: mean exp\(logit\) exceeds float64 range$"):
            adapt_and_score(state, self.stats_accepting_below(1e308), [709.0, 0.0], 4)

    def test_tie_at_threshold_rejects(self):
        state = OutlierDistribution(values=np.array([1.0, 1.0]), m=1)
        stats = self.stats_accepting_below(4.0)
        new_state, _, accepted = adapt_and_score(state, stats, logits_with_energy(4.0))
        assert accepted is False
        assert new_state is state

    def test_a_row_whose_exp_underflows_has_g_zero(self):
        """exp(max f) underflows below about -745, so G is 0.0, not strictly positive:
        stats of such rows are all 0, and R = 0 rejects the row where R = 1 accepts it."""
        row = [-800.0, -800.0]
        assert global_energies([row]).tolist() == [0.0]
        stats = fit_energy_stats([row, row])
        assert (stats.mu_in, stats.sigma_in, stats.r) == (0.0, 0.0, 0.0)
        state = OutlierDistribution(values=np.ones(2), m=1)
        new_state, _, accepted = adapt_and_score(state, stats, row)
        assert new_state is state and accepted is False
        new_state, score, accepted = adapt_and_score(state, self.stats_accepting_below(1.0), row)
        assert accepted is True and new_state.m == 2 and score == 0.0

    def test_score_uses_post_update_distribution(self):
        state = OutlierDistribution(values=np.array([0.0, 0.0]), m=0)
        stats = self.stats_accepting_below(100.0)
        logits = [0.0, 0.0]
        new_state, score, _ = adapt_and_score(state, stats, logits)
        assert score == pytest.approx(calibrated_energy(logits, new_state.values), rel=1e-12)
        # pre-update distribution would have given the raw global energy
        assert score != pytest.approx(global_energy(logits))

    def test_shape_mismatch(self):
        state = OutlierDistribution(values=np.zeros(3), m=0)
        stats = self.stats_accepting_below(10.0)
        with pytest.raises(InvalidInputError, match="sample has k=2, state has k=3"):
            adapt_and_score(state, stats, [0.0, 0.0])

    def test_a_state_of_no_classes_is_refused(self):
        """No logit row fits k = 0: the state is refused before a step or a plan reads one."""
        message = r"^values must be 1-D with k >= 1 classes, got shape \(0,\)$"
        with pytest.raises(InvalidInputError, match=message):
            adapt_and_score(OutlierDistribution(values=np.zeros(0), m=0),
                            self.stats_accepting_below(10.0), [], 2)
        with pytest.raises(InvalidInputError, match=message):
            run_plans(OutlierDistribution(values=[], m=0), [[0.0]], [(0.0, -math.inf)])
        with pytest.raises(InvalidInputError, match=r"^values must be 1-D with k >= 1 classes"):
            OutlierDistribution(values=np.zeros((1, 2)), m=0)

    def test_the_online_step_runs_without_the_batch_step(self, monkeypatch):
        logits = np.random.default_rng(27).standard_normal((40, 3)) * 3
        stats = threshold_inside(logits, 0.5)
        state = OutlierDistribution(values=np.array([0.5, 1.0, 2.0]), m=2)
        want_scores, want_mask, want_final = run_stream(state, stats, logits)

        def batch(*args, **kwargs):
            raise AssertionError("the online step ran the batch pass")

        monkeypatch.setattr(doda, "run_plans", batch)
        scores, accepts = [], []
        for i, row in enumerate(logits):
            new, score, accepted = adapt_and_score(state, stats, row, i)
            assert (new is state) is not accepted
            state = new
            scores.append(score)
            accepts.append(accepted)
        assert 0 < sum(accepts) < len(logits)
        assert scores == want_scores and accepts == want_mask.tolist()
        assert np.array_equal(state.values, want_final.values) and state.m == want_final.m


class TestOracleVariant:
    """Short run_stream passes with oracle labels."""

    @staticmethod
    def oracle_pass(state, stats, logits, is_ood, probability, seed=0):
        return run_stream(state, stats, logits, oracle_labels=is_ood,
                          use_label_probability=probability, rng=np.random.default_rng(seed))

    def test_zero_probability_degenerates(self):
        rng = np.random.default_rng(1)
        stats = EnergyStats(50.0, 10.0)
        state = OutlierDistribution(values=np.ones(3), m=1)
        logits = rng.standard_normal((30, 3))
        scores_a, mask_a, state_a = run_stream(state, stats, logits)
        scores_b, mask_b, state_b = self.oracle_pass(state, stats, logits, [True] * 30, 0.0)
        assert scores_a == scores_b and np.array_equal(mask_a, mask_b)
        assert np.array_equal(state_a.values, state_b.values)

    def test_full_oracle_rejects_id(self):
        stats = EnergyStats(1e9, 0.0)  # filter alone would accept everything
        state = OutlierDistribution(values=np.ones(2), m=1)
        _, mask, final = self.oracle_pass(state, stats, [[0.0, 0.0]], [False], 1.0, seed=2)
        assert mask.tolist() == [False]
        assert final is state

    def test_full_oracle_accepts_ood(self):
        stats = EnergyStats(-1e9, 0.0)  # filter alone would reject everything
        state = OutlierDistribution(values=np.ones(2), m=1)
        _, mask, final = self.oracle_pass(state, stats, [[0.0, 0.0]], [True], 1.0, seed=3)
        assert mask.tolist() == [True]
        assert final.m == 2

    @pytest.mark.parametrize("probability", [1.5, -0.5, -1e-300, math.nan, math.inf,
                                             -math.inf])
    def test_probability_outside_the_unit_interval_is_rejected(self, probability):
        # a NaN or negative value once ran as plain DODA: every sample of
        # this stream passed the filter and m ended at 5
        stats = EnergyStats(1e9, 0.0)
        state = OutlierDistribution(values=np.ones(2), m=1)
        with pytest.raises(InvalidInputError, match="use_label_probability"):
            self.oracle_pass(state, stats, np.zeros((4, 2)), [True] * 4, probability)

    def test_probability_is_checked_without_oracle_labels(self):
        stats = EnergyStats(1e9, 0.0)
        state = OutlierDistribution(values=np.ones(2), m=1)
        with pytest.raises(InvalidInputError, match="use_label_probability"):
            run_stream(state, stats, np.zeros((4, 2)), use_label_probability=math.nan)


class TestRunStream:
    @pytest.mark.parametrize("freeze", [False, True])
    def test_empty_stream(self, freeze):
        state = OutlierDistribution(values=np.ones(2), m=1)
        stats = EnergyStats(10.0, 1.0)
        scores, mask, final = run_stream(state, stats, [], freeze=freeze)
        assert scores == [] and mask.shape == (0,) and mask.dtype == bool
        assert final is state

    def test_frozen_pass_of_an_iterator_equals_that_of_the_matrix(self):
        state = OutlierDistribution(values=np.ones(3), m=1)
        stats = EnergyStats(10.0, 1.0)
        logits = np.random.default_rng(12).standard_normal((30, 3))
        want = run_stream(state, stats, logits, freeze=True)
        got = run_stream(state, stats, iter(logits), freeze=True)
        assert got[0] == want[0] and np.array_equal(got[1], want[1]) and got[2] is state

    def test_plain_pass_accepting_nothing_takes_no_per_sample_step(self, monkeypatch):
        state = OutlierDistribution(values=np.ones(3), m=1)
        stats = EnergyStats(0.0, 1.0)  # R < 0 < G: nothing is accepted
        logits = np.random.default_rng(13).standard_normal((30, 3))
        calls = self.count_exp(monkeypatch)
        scores, mask, final = run_stream(state, stats, logits)
        assert len(calls) == 1  # the matrix pass alone: no busy pass exponentiates its accepts
        assert final is state and not mask.any()
        assert scores == [calibrated_energy(row, state.values) for row in logits]

    @pytest.mark.parametrize("r", [0.0, 1e9])
    def test_plain_pass_of_an_iterator_runs_the_per_sample_step(self, monkeypatch, r):
        state = OutlierDistribution(values=np.ones(3), m=1)
        stats = EnergyStats(mu_in=r, sigma_in=0.0, alpha=3.0)
        logits = np.random.default_rng(14).standard_normal((30, 3))
        want = run_stream(state, stats, logits)
        calls = self.count_exp(monkeypatch)
        got = run_stream(state, stats, iter(logits))
        # R < G accepts nothing: idle; G < R accepts all 30, exponentiated in one busy call
        assert len(calls) == (1 if r == 0.0 else 2) and got[1].sum() == (0 if r == 0.0 else 30)
        assert got[0] == want[0] and np.array_equal(got[1], want[1])
        assert np.array_equal(got[2].values, want[2].values) and got[2].m == want[2].m

    def test_single_sample_matches_direct_call(self):
        state = OutlierDistribution(values=np.ones(2), m=1)
        stats = EnergyStats(10.0, 1.0)
        logits = np.array([[0.1, -0.2]])
        scores, mask, final = run_stream(state, stats, logits)
        direct_state, direct_score, direct_accepted = adapt_and_score(state, stats, logits[0])
        assert scores[0] == direct_score
        assert mask.tolist() == [direct_accepted]
        assert np.array_equal(final.values, direct_state.values)

    def test_one_pass_event_count(self):
        """record_events, which the benchmark reads, gives one event per sample
        built from the accept mask, the G and the score of that sample."""
        rng = np.random.default_rng(4)
        logits = rng.standard_normal((100, 4))
        state = init_outlier_distribution(rng.standard_normal((10, 4)))
        stats = EnergyStats(float(np.median(rowwise_global_energies(logits))), 0.0)
        scores, events, _ = run_stream(state, stats, logits, record_events=True)
        want_scores, mask, _ = run_stream(state, stats, logits)
        assert 0 < mask.sum() < 100
        assert events == list(map(AdaptationEvent, range(100), mask.tolist(),
                                  rowwise_global_energies(logits).tolist(), want_scores))

    def test_an_event_is_slotted_with_the_fields_of_a_frozen_dataclass(self):
        """The benchmark builds tens of thousands of events: each holds its four
        fields in slots, with no per-instance dict, and compares, prints and
        converts as a plain frozen dataclass does."""
        event = AdaptationEvent(3, True, -1.5, 0.25)
        assert not hasattr(event, "__dict__")
        assert event == AdaptationEvent(3, True, -1.5, 0.25)
        assert event != AdaptationEvent(3, False, -1.5, 0.25)
        assert repr(event) == ("AdaptationEvent(sample_index=3, accepted=True, "
                               "global_energy=-1.5, calibrated_score=0.25)")
        assert dataclasses.asdict(event) == {"sample_index": 3, "accepted": True,
                                             "global_energy": -1.5, "calibrated_score": 0.25}
        with pytest.raises(dataclasses.FrozenInstanceError):
            event.accepted = False

    def test_events_off_by_default(self):
        """Without record_events the accept mask takes the events' place."""
        state = OutlierDistribution(values=np.ones(2), m=1)
        stats = EnergyStats(10.0, 1.0)
        scores, mask, _ = run_stream(state, stats, np.zeros((5, 2)))
        assert mask.tolist() == [True] * 5 and len(scores) == 5

    def test_running_mean_identity(self):
        rng = np.random.default_rng(5)
        for trial in range(20):
            k = int(rng.integers(2, 8))
            v0 = rng.uniform(0.1, 2.0, k)
            m0 = int(rng.integers(0, 4))
            state = OutlierDistribution(values=v0, m=m0)
            stats = EnergyStats(float(rng.uniform(2, 8)), 0.0)
            logits = rng.standard_normal((60, k))
            _, mask, final = run_stream(state, stats, logits)
            accepted = list(np.exp(logits[mask]))
            if m0 + len(accepted) == 0:
                assert np.array_equal(final.values, v0)
                continue
            expected = running_mean_closed_form(v0, m0, accepted)
            np.testing.assert_allclose(final.values, expected, rtol=1e-9)

    def test_error_carries_sample_index(self):
        state = OutlierDistribution(values=np.ones(2), m=1)
        stats = EnergyStats(10.0, 1.0)
        stream = [np.zeros(2), np.array([np.nan, 0.0])]
        with pytest.raises(InvalidInputError, match="sample 1"):
            run_stream(state, stats, stream)

    @pytest.mark.parametrize("container", ["array", "list", "iterator"])
    @pytest.mark.parametrize("record_events", [False, True])
    @pytest.mark.parametrize("mode", ["freeze", "plain", "oracle"])
    @pytest.mark.parametrize("bad, later, error, message", [
        ([np.nan, 0.0], None, InvalidInputError, "logits contain non-finite"),
        ([0.0, -np.inf], None, InvalidInputError, "logits contain non-finite"),
        ([800.0, 0.0], None, NumericError, "global energy exceeds"),
        ([709.5, 709.5], None, NumericError, "global energy exceeds"),  # G, not the damped score
        ([0.0, 0.0, 0.0], None, InvalidInputError, "sample has k=3"),  # wrong width
        ([0.0, [0.0, 0.0]], None, ValueError, "setting an array element"),  # a ragged row
        (["x", 0.0], None, ValueError, "could not convert"),  # a non-numeric row
        ([800.0, 0.0], [np.nan, 0.0], NumericError, "global energy exceeds"),  # the first fault
        ([800.0, 0.0], [0.0, [0.0, 0.0]], NumericError, "global energy exceeds"),  # then ragged
    ])
    def test_every_mode_names_the_first_bad_sample(self, mode, record_events, container, bad,
                                                   later, error, message):
        state = OutlierDistribution(values=np.ones(2), m=1)
        stats = EnergyStats(10.0, 1.0)
        rows = [[0.0, 0.0], [0.5, -0.5], bad, [0.1, 0.2], bad if later is None else later]
        if container == "array":  # rows that no float matrix holds make an object array
            try:
                stream = np.array(rows, dtype=np.float64)
            except ValueError:
                stream = np.array(rows, dtype=object)
        else:
            stream = rows if container == "list" else iter(rows)
        kwargs = {"freeze": dict(freeze=True), "plain": {},
                  "oracle": dict(oracle_labels=[True] * 5, use_label_probability=1.0,
                                 rng=np.random.default_rng(0))}[mode]
        with pytest.raises(error, match=f"^sample 2: {message}") as info:
            run_stream(state, stats, stream, record_events=record_events, **kwargs)
        assert str(info.value).startswith("sample 2: ")

    @pytest.mark.parametrize("scalar", [np.array(1.0), np.float64(1.0), 1.0],
                             ids=["0-d-array", "float64", "float"])
    def test_a_scalar_stream_is_refused(self, scalar):
        state = OutlierDistribution(values=np.ones(2), m=1)
        with pytest.raises(InvalidInputError, match=re.escape(
                f"logit_stream must hold logit rows, got {scalar!r}")):
            run_plans(state, scalar, [(0.0, -math.inf), (0.0, 10.0)])

    @pytest.mark.parametrize("stream_of", [list, iter, lambda rows: np.empty((0, 2))])
    def test_an_empty_stream_returns_no_scores_and_the_input_state(self, stream_of):
        state = OutlierDistribution(values=np.ones(2), m=1)
        plans = [(0.0, -math.inf), (0.0, 10.0), (0.5, 10.0), (1.0, -math.inf)]
        energies, got = run_plans(state, stream_of([]), plans, oracle_labels=[],
                                  rng=np.random.default_rng(0))
        assert energies.shape == (0,) and len(got) == len(plans)
        for scores, mask, final in got:
            assert scores == [] and mask.shape == (0,) and mask.dtype == bool and final is state

    def test_an_oracle_stream_checks_its_rows_and_computes_g_once(self, monkeypatch):
        calls = {"_stream_rows": 0, "_shifted_exp": 0, "as_logits": 0}
        for name in calls:
            def counting(*args, _real=getattr(doda, name), _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(doda, name, counting)
        rng = np.random.default_rng(15)
        logits = rng.standard_normal((1000, 4))
        state = OutlierDistribution(values=np.ones(4), m=1)
        stats = EnergyStats(10.0, 1.0)
        _, mask, final = run_stream(state, stats, logits, oracle_labels=rng.random(1000) < 0.5,
                                    use_label_probability=1.0, rng=rng)
        assert mask.shape == (1000,) and final.m == 1 + mask.sum() > 1
        # one matrix check and one exponentiation per call; no sample is checked alone
        assert calls == {"_stream_rows": 1, "_shifted_exp": 1, "as_logits": 0}

    @staticmethod
    def count_exp(monkeypatch):
        """A list that grows by one entry per numpy.exp call from here on."""
        calls, real_exp = [], np.exp

        def counting_exp(*args, **kwargs):
            calls.append(None)
            return real_exp(*args, **kwargs)

        monkeypatch.setattr(np, "exp", counting_exp)
        return calls

    @pytest.mark.parametrize("r", [0.0, 1e9])
    def test_one_sample_exponentiates_once_plus_once_if_accepted(self, monkeypatch, r):
        state = OutlierDistribution(values=np.ones(3), m=1)
        stats = EnergyStats(mu_in=r, sigma_in=0.0, alpha=3.0)  # R < G or G < R
        calls = self.count_exp(monkeypatch)
        _, _, accepted = adapt_and_score(state, stats, [0.5, -1.0, 2.0])
        assert accepted == (r > 0.0) and len(calls) == 1 + accepted

    @pytest.mark.parametrize("freeze", [True, False])
    def test_a_stream_exponentiates_once_plus_once_for_its_accepted_rows(self, monkeypatch,
                                                                         freeze):
        logits = np.random.default_rng(16).standard_normal((200, 4))
        r = float(np.median(rowwise_global_energies(logits)))
        state = OutlierDistribution(values=np.ones(4), m=1)
        stats = EnergyStats(mu_in=r, sigma_in=0.0, alpha=3.0)
        calls = self.count_exp(monkeypatch)
        _, mask, _ = run_stream(state, stats, logits, freeze=freeze)
        assert mask.sum() == (0 if freeze else 100)
        assert len(calls) == 1 + mask.any()  # the matrix pass, then one exp(f) of all accepts

    @pytest.mark.parametrize("labels", [
        [True] * 4,  # shorter than the stream
        [True] * 6,  # longer than the stream
        np.ones((5, 1), dtype=bool),  # not 1-D
    ])
    def test_oracle_labels_must_match_the_stream(self, monkeypatch, labels):
        state = OutlierDistribution(values=np.ones(2), m=1)
        stats = EnergyStats(10.0, 1.0)  # G = 2 < R = 7: every sample is accepted
        shape = re.escape(str(np.shape(labels)))
        calls = self.count_exp(monkeypatch)
        with pytest.raises(InvalidInputError, match=rf"shape \(5,\), got {shape}"):
            run_stream(state, stats, np.zeros((5, 2)), oracle_labels=labels,
                       use_label_probability=0.5, rng=np.random.default_rng(0))
        assert len(calls) == 1  # G's matrix pass; no accepted row was exponentiated or scored

    def test_frozen_mode_never_adapts(self):
        state = OutlierDistribution(values=np.ones(2), m=1)
        stats = EnergyStats(1e9, 0.0)  # everything below threshold
        logits = np.random.default_rng(6).standard_normal((20, 2))
        scores, mask, final = run_stream(state, stats, logits, freeze=True)
        assert final is state
        assert not mask.any()
        for row, s in zip(logits, scores):
            assert s == pytest.approx(calibrated_energy(row, state.values), rel=1e-12)

    def test_positivity_preserved(self):
        rng = np.random.default_rng(7)
        state = init_outlier_distribution(rng.standard_normal((5, 3)))
        stats = EnergyStats(10.0, 2.0)
        _, _, final = run_stream(state, stats, rng.standard_normal((200, 3)))
        assert (final.values >= 0).all()

    def test_frozen_scoring_is_deterministic(self):
        rng = np.random.default_rng(8)
        state = init_outlier_distribution(rng.standard_normal((5, 3)))
        stats = EnergyStats(10.0, 2.0)
        logits = rng.standard_normal((50, 3))
        s1, _, _ = run_stream(state, stats, logits, freeze=True)
        s2, _, _ = run_stream(state, stats, logits, freeze=True)
        assert s1 == s2


@st.composite
def streams(draw, scale=30.0):
    """(logits (n, k), oracle mask (n,), P0 values (k,), m0)."""
    k = draw(st.integers(1, 6))
    n = draw(st.integers(0, 40))
    logits = draw(hnp.arrays(np.float64, (n, k), elements=st.floats(-scale, scale)))
    mask = draw(hnp.arrays(np.bool_, n))
    p0 = draw(hnp.arrays(np.float64, k, elements=st.floats(0.0, 1e3)))
    return logits, mask, p0, draw(st.integers(0, 3))


def max_rel_err(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    return float((np.abs(got - want) / np.maximum(np.abs(want), 1e-300)).max(initial=0.0))


class TestStreamProperties:
    @settings(max_examples=200, deadline=None)
    @given(streams())
    def test_oracle_stream_equals_the_prefix_mean_closed_form(self, case):
        logits, mask, p0, m0 = case
        state = OutlierDistribution(values=p0, m=m0)
        scores, _, final = run_stream(state, EnergyStats(10.0, 1.0), logits,
                                      oracle_labels=mask, use_label_probability=1.0,
                                      rng=np.random.default_rng(0))
        want_scores, want_p = prefix_mean_stream(np.exp(logits), mask, p0, m0)
        assert final.m - m0 == int(mask.sum())
        assert max_rel_err(scores, want_scores) <= 1e-9
        assert max_rel_err(final.values, want_p) <= 1e-9

    @settings(max_examples=200, deadline=None)
    @given(streams(scale=700.0))
    def test_frozen_stream_equals_the_per_row_functions_exactly(self, case):
        logits, _, p0, m0 = case
        state = OutlierDistribution(values=p0, m=m0)
        energies, ((scores, mask, final),) = run_plans(state, logits, [(0.0, -math.inf)])
        assert final is state
        assert scores == [calibrated_energy(row, p0) for row in logits]
        assert energies.tolist() == [global_energy(row) for row in logits]
        assert not mask.any()

    @settings(max_examples=300, deadline=None)
    @given(streams(scale=700.0), st.sampled_from(["below", "inside", "above"]),
           st.floats(0.0, 1.0))
    def test_plain_stream_equals_the_one_row_step_exactly(self, case, where, at):
        logits, _, p0, m0 = case
        state = OutlierDistribution(values=p0, m=m0)
        energies = sorted(global_energy(row) for row in logits) or [1.0]
        r = {"below": 0.0, "inside": energies[int(at * (len(energies) - 1))],
             "above": math.nextafter(energies[-1], math.inf)}[where]
        stats = EnergyStats(mu_in=r, sigma_in=0.0, alpha=3.0)
        scores, mask, final = run_stream(state, stats, logits)
        want_state, want_scores, want_accepted = state, [], []
        for i, row in enumerate(logits):
            want_state, score, accepted = adapt_and_score(want_state, stats, row, i)
            want_scores.append(score)
            want_accepted.append(accepted)
        accepted = mask.tolist()
        assert scores == want_scores and accepted == want_accepted
        assert np.array_equal(final.values, want_state.values) and final.m == want_state.m
        if where == "below":
            assert not any(accepted)
        if where == "above":
            assert all(accepted)
        if not any(accepted):
            assert final is state


def threshold_inside(logits, at):
    """Filter stats whose R lies at quantile `at` of the stream's energies, so
    that plain acceptance takes some samples and not others."""
    energies = sorted(global_energy(row) for row in logits) or [1.0]
    r = energies[int(at * (len(energies) - 1))]
    return EnergyStats(mu_in=r, sigma_in=0.0, alpha=3.0)


def assert_same_run(got, want, state):
    """Scores, accept mask and final state equal bit for bit; the input state
    object comes back exactly when no sample was accepted."""
    assert got[0] == want[0] and np.array_equal(got[1], want[1])
    assert np.array_equal(got[2].values, want[2].values) and got[2].m == want[2].m
    assert (got[2] is state) == (want[2] is state) == (got[2].m == state.m)


fractions = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
# where a plan's threshold lies against the stream's G: a quantile, or one of these
threshold_places = st.one_of(st.sampled_from(["-inf", "below", "above"]), st.floats(0.0, 1.0))


def threshold_at(logits, where):
    """A filter threshold of a plan: -inf, the smallest G (no sample below it),
    just above the largest G (every sample below it) or at a quantile of G."""
    energies = sorted(global_energy(row) for row in logits) or [1.0]
    if isinstance(where, float):
        return energies[int(where * (len(energies) - 1))]
    return {"-inf": -math.inf, "below": energies[0],
            "above": math.nextafter(energies[-1], math.inf)}[where]


def plans_of(fractions, stats):
    return [(f, stats.r) for f in fractions]


class TestPlans:
    """run_plans equals each of its plans run alone through run_stream."""

    @staticmethod
    def alone(state, stats, logits, mask, fraction, seed, **kwargs):
        return run_stream(state, stats, logits, oracle_labels=mask,
                          use_label_probability=fraction, rng=np.random.default_rng(seed),
                          **kwargs)

    @settings(max_examples=200, deadline=None)
    @given(streams(scale=700.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.integers(0, 9))
    def test_one_plan_equals_the_per_sample_oracle(self, case, at, fraction, seed):
        logits, mask, p0, m0 = case
        state = OutlierDistribution(values=p0, m=m0)
        stats = threshold_inside(logits, at)
        scores, accepted, final = self.alone(state, stats, logits, mask, fraction, seed)
        want_scores, want_accepted, want_p, want_m = one_plan_stream(
            logits, mask, p0, m0, stats.r, fraction, np.random.default_rng(seed))
        assert scores == want_scores and accepted.tolist() == want_accepted
        assert np.array_equal(final.values, want_p) and final.m == want_m

    @settings(max_examples=200, deadline=None)
    @given(streams(scale=700.0), st.lists(st.tuples(fractions, threshold_places),
                                          min_size=1, max_size=6), st.integers(0, 9))
    def test_batched_plans_equal_each_plan_alone(self, case, places, seed):
        """Each plan (f, r) equals its own run_stream with the filter at r, and
        the frozen plan (0, -inf) equals run_stream(freeze=True). A plan whose
        mask is all False, oracle plans included, is idle: it returns the input
        state object, and all idle plans return one shared result."""
        logits, mask, p0, m0 = case
        state = OutlierDistribution(values=p0, m=m0)
        plans = [(f, threshold_at(logits, where)) for f, where in places]
        energies, got = run_plans(state, logits, plans, oracle_labels=mask,
                                  rng=np.random.default_rng(seed))
        assert len(got) == len(plans)
        assert energies.tolist() == [global_energy(row) for row in logits]  # G of each sample
        idle = []
        for (f, where), (_, r), res in zip(places, plans, got):
            assert res[1].dtype == bool and res[1].shape == (len(logits),)
            # R = 0 accepts no G, as -inf does, and an EnergyStats R is finite
            stats = EnergyStats(mu_in=max(r, 0.0), sigma_in=0.0, alpha=3.0)
            assert_same_run(res, self.alone(state, stats, logits, mask, f, seed), state)
            if f == 0.0 and where in ("-inf", "below"):
                assert not res[1].any()
            if not res[1].any():
                assert res[2] is state
                idle.append(res)
            if (f, where) == (0.0, "-inf"):  # the frozen plan
                assert_same_run(res, self.alone(state, stats, logits, mask, f, seed,
                                                freeze=True), state)
        assert all(res is idle[0] for res in idle)

    @settings(max_examples=200, deadline=None)
    @given(streams(), st.lists(st.tuples(fractions, threshold_places), min_size=1, max_size=6),
           st.integers(0, 2**32 - 1))
    def test_masks_are_the_draws_and_the_filter_of_each_plan(self, case, places, seed):
        """Plan j's mask is where(u < f_j, is_ood, G < r_j) over one
        rng.random(n), drawn only when some f > 0, and its final m counts it."""
        logits, is_ood, p0, m0 = case
        state = OutlierDistribution(values=p0, m=m0)
        plans = [(f, threshold_at(logits, where)) for f, where in places]
        _, got = run_plans(state, logits, plans, oracle_labels=is_ood,
                           rng=np.random.default_rng(seed))
        g = np.array([global_energy(row) for row in logits])
        u = (np.random.default_rng(seed).random(len(logits)) if any(f > 0 for f, _ in plans)
             else np.ones(len(logits)))
        for (f, r), (_, mask, final) in zip(plans, got):
            assert np.array_equal(mask, np.where(u < f, is_ood, g < r))
            assert final.m == m0 + mask.sum()

    @pytest.mark.parametrize("seed", [0, 5, 1009, 2**32 - 1])
    @pytest.mark.parametrize("n", [0, 1, 2, 7, 1000])
    def test_one_vector_draw_equals_one_draw_per_sample(self, seed, n):
        """The masks rest on this: rng.random(n) gives the numbers of n calls
        of rng.random() and leaves the generator in the same state."""
        vector, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
        assert vector.random(n).tolist() == [scalar.random() for _ in range(n)]
        assert vector.bit_generator.state == scalar.bit_generator.state

    @pytest.mark.parametrize("plan, message", [
        (("x", 0.0), "use_label_probability must be a real number, got 'x'"),
        ((0.0, "x"), "filter threshold r must be a real number, got 'x'"),
        ((True, 0.0), "use_label_probability must be a real number, got True"),
        ((0.0, 10**400), "filter threshold r is too large for a float"),
        ((0.0, -10**400), "filter threshold r is too large for a float"),
        ((0.0, 0.0, 1), "a plan must be a pair (use_label_probability, r), got (0.0, 0.0, 1)"),
        (0.5, "a plan must be a pair (use_label_probability, r), got 0.5"),
    ])
    def test_a_plan_must_be_a_pair_of_real_numbers(self, plan, message):
        state = OutlierDistribution(values=np.ones(2), m=1)
        with pytest.raises(InvalidInputError, match="^" + re.escape(message) + "$"):
            run_plans(state, np.zeros((4, 2)), [(0.0, 1.0), plan])

    def test_a_nan_threshold_is_rejected(self):
        state = OutlierDistribution(values=np.ones(2), m=1)
        with pytest.raises(InvalidInputError, match="threshold r must not be NaN"):
            run_plans(state, np.zeros((4, 2)), [(0.0, 1.0), (0.0, math.nan)])

    @pytest.mark.parametrize("m0", [0, 2])
    @pytest.mark.parametrize("stream_of", [np.asarray, list, iter,
                                           lambda rows: np.fromiter(rows, object)])
    def test_zero_one_and_duplicate_fractions(self, m0, stream_of):
        rng = np.random.default_rng(21)
        logits = rng.normal(0.0, 2.0, (60, 4))
        mask = rng.random(60) < 0.5
        state = OutlierDistribution(values=rng.uniform(0.1, 2.0, 4), m=m0)
        fractions = [0.0, 1.0, 0.5, 0.5, 0.0, 1.0, 0.3]
        for stats in (threshold_inside(logits, 0.4), EnergyStats(0.0, 1.0)):
            _, got = run_plans(state, stream_of(logits), plans_of(fractions, stats),
                               oracle_labels=mask, rng=np.random.default_rng(5))
            for fraction, res in zip(fractions, got):
                assert_same_run(res, self.alone(state, stats, logits, mask, fraction, 5),
                                state)

    def test_a_plan_that_accepts_nothing_returns_the_input_state(self):
        logits = np.random.default_rng(22).normal(0.0, 2.0, (40, 3))
        state = OutlierDistribution(values=np.ones(3), m=1)
        stats = EnergyStats(0.0, 1.0)  # R < 0 < G: the filter accepts nothing
        none_ood = np.zeros(40, dtype=bool)
        for stream_of in (np.asarray, iter):
            _, got = run_plans(state, stream_of(logits), plans_of([0.0, 0.5, 1.0], stats),
                               oracle_labels=none_ood, rng=np.random.default_rng(0))
            assert all(final is state for _, _, final in got)

    @pytest.mark.parametrize("bad", [[np.nan, 0.0, 1.0], [0.0, np.inf, 1.0],
                                     [800.0, 0.0, 0.0]])
    @pytest.mark.parametrize("fractions", [[0.0], [0.0, 0.5, 1.0], [1.0, 1.0]])
    def test_a_bad_row_names_its_sample_once(self, bad, fractions):
        logits = np.random.default_rng(23).normal(0.0, 2.0, (10, 3))
        logits[6] = bad
        state = OutlierDistribution(values=np.ones(3), m=1)
        stats = threshold_inside(logits[:6], 0.5)
        mask = np.arange(10) % 2 == 0
        with pytest.raises(AdaptOdError) as batched:
            run_plans(state, logits, plans_of(fractions, stats), oracle_labels=mask,
                      rng=np.random.default_rng(0))
        for fraction in fractions:
            with pytest.raises(AdaptOdError) as alone:
                self.alone(state, stats, logits, mask, fraction, 0)
            assert type(alone.value) is type(batched.value)
            assert str(alone.value) == str(batched.value)
        assert str(batched.value).startswith("sample 6: ")
        assert str(batched.value).count("sample") == 1

    def test_no_oracle_plan_draws_nothing(self):
        logits = np.random.default_rng(24).normal(0.0, 2.0, (20, 3))
        rng = np.random.default_rng(3)
        before = rng.bit_generator.state
        run_plans(OutlierDistribution(values=np.ones(3), m=1), logits,
                  plans_of([0.0, 0.0], threshold_inside(logits, 0.5)),
                  oracle_labels=np.ones(20, dtype=bool), rng=rng)
        assert rng.bit_generator.state == before

    @pytest.mark.parametrize("plans, at", [
        ([(0.0, 1.3e308), (0.0, 10.0), (1.0, -math.inf)], 2),  # the last plan overflows first
        ([(1.0, -math.inf), (0.0, 1.3e308)], 2),
        ([(0.0, 10.0), (0.0, 1.3e308)], 4),  # no oracle plan: the filter's overflow is first
        ([(0.0, 1.3e308), (0.0, math.inf)], 2),  # R = inf accepts every row
    ])
    def test_busy_plans_overflow_at_the_earliest_sample_unwarned(self, plans, at):
        """P0 holds 1e308, so a plan that accepts a row of G about 1e308 overflows
        its mean there: row 2 (G 1.6e308) reaches the oracle plan and the filter at
        R = inf, row 4 (G 1.1e308) the filters at R = 1.3e308 and inf, and rows of
        G 2 every filter. The one check of all busy plans names the earliest row."""
        logits = np.zeros((6, 2))
        logits[2, 0], logits[4, 0] = math.log(1.6e308), math.log(1.1e308)
        labels = np.isin(np.arange(6), [0, 2])
        state = OutlierDistribution(values=np.array([1e308, 1.0]), m=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError,
                               match=rf"^sample {at}: mean exp\(logit\) exceeds float64 range$"):
                run_plans(state, logits, plans, oracle_labels=labels,
                          rng=np.random.default_rng(0))


# frozen from a 40-digit mpmath evaluation of e^1 + e^2
E1_PLUS_E2 = 10.10733792738969546259071493192767031094
# frozen from a 40-digit mpmath evaluation of (e + e^2 + e^3) / 1.5
CALIB_123 = 20.12858323371824213567949639100625880528


def one_global_energy(logits):
    """global_energies of one logit vector."""
    return float(global_energies([logits])[0])


# R = 0 and every G > 0: a sample is scored under P as given, and never accepted
REJECT_ALL = EnergyStats(0.0, 0.0)


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
