import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from adaptod import doda
from adaptod.doda import (
    AdaptationEvent,
    EnergyStats,
    OutlierDistribution,
    adapt_and_score,
    fit_energy_stats,
    init_outlier_distribution,
    run_plans,
    run_stream,
    save_state,
)
from adaptod.errors import (
    AdaptOdError,
    EnergyOverflowError,
    InsufficientDataError,
    InvalidInputError,
    ShapeError,
)

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
        assert fit_energy_stats(logits, alpha=2.5) == EnergyStats.from_moments(mu, sigma, 2.5)

    def test_needs_two_samples(self):
        with pytest.raises(InsufficientDataError):
            fit_energy_stats([logits_with_energy(5)])

    @pytest.mark.parametrize("rows", [
        [[708.0, 700.0, 1.0], [705.0, 2.0, 1.0], [700.0, 1.0, 1.0]],  # sigma overflows
        [[709.0, 0.0], [709.0, 0.0], [709.0, 0.0]],  # the energies' sum overflows
    ])
    def test_overflowing_moments_raise(self, rows):
        with np.errstate(over="raise"):  # no overflow warning escapes either
            with pytest.raises(EnergyOverflowError, match="sigma_in=inf"):
                fit_energy_stats(rows)

    def test_threshold_identity(self):
        stats = EnergyStats.from_moments(5.0, 2.0, alpha=2.5)
        assert stats.r == 5.0 - 2.5 * 2.0

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_alpha_must_be_finite_and_positive(self, alpha):
        with pytest.raises(InvalidInputError, match=f"alpha must be finite and positive, got {alpha}"):
            EnergyStats.from_moments(5.0, 2.0, alpha)

    @pytest.mark.parametrize("mu, sigma, alpha", [
        (5.0, 2.0, 1e308),  # alpha * sigma overflows: R was -inf and accepted nothing
        (-1e308, 1e308, 1.0),  # mu - alpha * sigma overflows
    ])
    def test_threshold_must_be_finite(self, mu, sigma, alpha):
        with pytest.raises(InvalidInputError, match="^" + re.escape(
                "threshold R = mu_in - alpha * sigma_in is not finite "
                f"(alpha={alpha}, mu_in={mu}, sigma_in={sigma})") + "$"):
            EnergyStats.from_moments(mu, sigma, alpha)

    @pytest.mark.parametrize("mu, sigma", [
        (math.nan, 1.0), (math.inf, 1.0), (-math.inf, 1.0), (1.0, math.nan), (1.0, math.inf),
    ])
    def test_moments_must_be_finite(self, mu, sigma):
        with pytest.raises(InvalidInputError, match="must be finite"):
            EnergyStats.from_moments(mu, sigma, 3.0)


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
        with pytest.raises(EnergyOverflowError):
            init_outlier_distribution([[0.0, 0.0], [710.0, 0.0]])

    def test_a_virtual_count_outside_0_to_2_pow_53_is_refused(self):
        """2**53 is the largest count a float64 holds exactly; a larger one
        rounds in the running-mean update, and a huge one overflows it."""
        assert init_outlier_distribution([[0.0, 0.0]], virtual_count=2**53).m == 2**53
        for count in (-1, 2**53 + 1, 10**400):
            message = rf"^virtual_count must lie in \[0, 2\*\*53\], got {count}$"
            with pytest.raises(InvalidInputError, match=message):
                init_outlier_distribution([[0.0, 0.0]], virtual_count=count)

    @pytest.mark.parametrize("m", [-1, 2**53 + 1, 10**400], ids=["-1", "2**53+1", "10**400"])
    def test_a_count_outside_0_to_2_pow_53_is_refused(self, m):
        """A count of 10**400 once passed here and escaped run_stream as a bare
        OverflowError from the running-mean update."""
        assert OutlierDistribution(values=np.ones(2), m=2**53).m == 2**53
        with pytest.raises(InvalidInputError,
                           match=rf"^count m must lie in \[0, 2\*\*53\], got {m}$"):
            run_stream(OutlierDistribution(values=np.ones(2), m=m),
                       EnergyStats.from_moments(100.0, 1.0), np.zeros((3, 2)))

    def test_rows_without_classes(self):
        with pytest.raises(ShapeError):
            init_outlier_distribution(np.empty((3, 0)))

    def test_empty_outlier_set(self):
        with pytest.raises((InsufficientDataError, ShapeError)):
            init_outlier_distribution(np.empty((0, 3)))


class TestAdaptAndScore:
    def stats_accepting_below(self, r):
        return EnergyStats(mu_in=r, sigma_in=0.0, alpha=3.0, r=r)

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
        with np.errstate(over="ignore"), pytest.raises(
                InvalidInputError, match="^sample 1: values must be finite and non-negative$"):
            run_stream(state, stats, [[50.0, 0.0], [0.0, 0.0]])

    def test_tie_at_threshold_rejects(self):
        state = OutlierDistribution(values=np.array([1.0, 1.0]), m=1)
        stats = self.stats_accepting_below(4.0)
        new_state, _, accepted = adapt_and_score(state, stats, logits_with_energy(4.0))
        assert accepted is False
        assert new_state is state

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
        with pytest.raises(ShapeError):
            adapt_and_score(state, stats, [0.0, 0.0])


class TestOracleVariant:
    """Short run_stream passes with oracle labels."""

    @staticmethod
    def oracle_pass(state, stats, logits, is_ood, probability, seed=0):
        return run_stream(state, stats, logits, oracle_labels=is_ood,
                          use_label_probability=probability, rng=np.random.default_rng(seed))

    def test_zero_probability_degenerates(self):
        rng = np.random.default_rng(1)
        stats = EnergyStats.from_moments(50.0, 10.0)
        state = OutlierDistribution(values=np.ones(3), m=1)
        logits = rng.standard_normal((30, 3))
        scores_a, mask_a, state_a = run_stream(state, stats, logits)
        scores_b, mask_b, state_b = self.oracle_pass(state, stats, logits, [True] * 30, 0.0)
        assert scores_a == scores_b and np.array_equal(mask_a, mask_b)
        assert np.array_equal(state_a.values, state_b.values)

    def test_full_oracle_rejects_id(self):
        stats = EnergyStats.from_moments(1e9, 0.0)  # filter alone would accept everything
        state = OutlierDistribution(values=np.ones(2), m=1)
        _, mask, final = self.oracle_pass(state, stats, [[0.0, 0.0]], [False], 1.0, seed=2)
        assert mask.tolist() == [False]
        assert final is state

    def test_full_oracle_accepts_ood(self):
        stats = EnergyStats.from_moments(-1e9, 0.0)  # filter alone would reject everything
        state = OutlierDistribution(values=np.ones(2), m=1)
        _, mask, final = self.oracle_pass(state, stats, [[0.0, 0.0]], [True], 1.0, seed=3)
        assert mask.tolist() == [True]
        assert final.m == 2

    @pytest.mark.parametrize("probability", [1.5, -0.5, -1e-300, math.nan, math.inf,
                                             -math.inf])
    def test_probability_outside_the_unit_interval_is_rejected(self, probability):
        # a NaN or negative value once ran as plain DODA: every sample of
        # this stream passed the filter and m ended at 5
        stats = EnergyStats.from_moments(1e9, 0.0)
        state = OutlierDistribution(values=np.ones(2), m=1)
        with pytest.raises(InvalidInputError, match="use_label_probability"):
            self.oracle_pass(state, stats, np.zeros((4, 2)), [True] * 4, probability)

    def test_probability_is_checked_without_oracle_labels(self):
        stats = EnergyStats.from_moments(1e9, 0.0)
        state = OutlierDistribution(values=np.ones(2), m=1)
        with pytest.raises(InvalidInputError, match="use_label_probability"):
            run_stream(state, stats, np.zeros((4, 2)), use_label_probability=math.nan)


class TestRunStream:
    @pytest.mark.parametrize("freeze", [False, True])
    def test_empty_stream(self, freeze):
        state = OutlierDistribution(values=np.ones(2), m=1)
        stats = EnergyStats.from_moments(10.0, 1.0)
        scores, mask, final = run_stream(state, stats, [], freeze=freeze)
        assert scores == [] and mask.shape == (0,) and mask.dtype == bool
        assert final is state

    def test_frozen_pass_of_an_iterator_equals_that_of_the_matrix(self):
        state = OutlierDistribution(values=np.ones(3), m=1)
        stats = EnergyStats.from_moments(10.0, 1.0)
        logits = np.random.default_rng(12).standard_normal((30, 3))
        want = run_stream(state, stats, logits, freeze=True)
        got = run_stream(state, stats, iter(logits), freeze=True)
        assert got[0] == want[0] and np.array_equal(got[1], want[1]) and got[2] is state

    def test_plain_pass_accepting_nothing_takes_no_per_sample_step(self, monkeypatch):
        def step(*args, **kwargs):
            raise AssertionError("per-sample step called")

        monkeypatch.setattr(doda, "_step", step)
        state = OutlierDistribution(values=np.ones(3), m=1)
        stats = EnergyStats.from_moments(0.0, 1.0)  # R < 0 < G: nothing is accepted
        logits = np.random.default_rng(13).standard_normal((30, 3))
        scores, mask, final = run_stream(state, stats, logits)
        assert final is state and not mask.any()
        assert scores == [calibrated_energy(row, state.values) for row in logits]

    @pytest.mark.parametrize("r", [0.0, 1e9])
    def test_plain_pass_of_an_iterator_runs_the_per_sample_step(self, monkeypatch, r):
        calls, real_step = [], doda._step

        def step(*args, **kwargs):
            calls.append(args[3])
            return real_step(*args, **kwargs)

        state = OutlierDistribution(values=np.ones(3), m=1)
        stats = EnergyStats(mu_in=r, sigma_in=0.0, alpha=3.0, r=r)
        logits = np.random.default_rng(14).standard_normal((30, 3))
        want = run_stream(state, stats, logits)
        monkeypatch.setattr(doda, "_step", step)
        got = run_stream(state, stats, iter(logits))
        assert calls == ([] if r == 0.0 else list(range(30)))  # R < G accepts nothing: idle
        assert got[0] == want[0] and np.array_equal(got[1], want[1])
        assert np.array_equal(got[2].values, want[2].values) and got[2].m == want[2].m

    def test_single_sample_matches_direct_call(self):
        state = OutlierDistribution(values=np.ones(2), m=1)
        stats = EnergyStats.from_moments(10.0, 1.0)
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
        stats = EnergyStats.from_moments(float(np.median(rowwise_global_energies(logits))), 0.0)
        scores, events, _ = run_stream(state, stats, logits, record_events=True)
        want_scores, mask, _ = run_stream(state, stats, logits)
        assert 0 < mask.sum() < 100
        assert events == list(map(AdaptationEvent, range(100), mask.tolist(),
                                  rowwise_global_energies(logits).tolist(), want_scores))

    def test_events_off_by_default(self):
        """Without record_events the accept mask takes the events' place."""
        state = OutlierDistribution(values=np.ones(2), m=1)
        stats = EnergyStats.from_moments(10.0, 1.0)
        scores, mask, _ = run_stream(state, stats, np.zeros((5, 2)))
        assert mask.tolist() == [True] * 5 and len(scores) == 5

    def test_running_mean_identity(self):
        rng = np.random.default_rng(5)
        for trial in range(20):
            k = int(rng.integers(2, 8))
            v0 = rng.uniform(0.1, 2.0, k)
            m0 = int(rng.integers(0, 4))
            state = OutlierDistribution(values=v0, m=m0)
            stats = EnergyStats.from_moments(float(rng.uniform(2, 8)), 0.0)
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
        stats = EnergyStats.from_moments(10.0, 1.0)
        stream = [np.zeros(2), np.array([np.nan, 0.0])]
        with pytest.raises(InvalidInputError, match="sample 1"):
            run_stream(state, stats, stream)

    @pytest.mark.parametrize("container", ["array", "list", "iterator"])
    @pytest.mark.parametrize("record_events", [False, True])
    @pytest.mark.parametrize("mode", ["freeze", "plain", "oracle"])
    @pytest.mark.parametrize("bad, later, error", [
        ([np.nan, 0.0], None, InvalidInputError),
        ([0.0, -np.inf], None, InvalidInputError),
        ([800.0, 0.0], None, EnergyOverflowError),
        ([709.5, 709.5], None, EnergyOverflowError),  # G overflows, the damped score does not
        ([0.0, 0.0, 0.0], None, ShapeError),  # wrong width
        ([0.0, [0.0, 0.0]], None, ValueError),  # a ragged row
        (["x", 0.0], None, ValueError),  # a non-numeric row
        ([800.0, 0.0], [np.nan, 0.0], EnergyOverflowError),  # the first of two faults
    ])
    def test_every_mode_names_the_first_bad_sample(self, mode, record_events, container, bad,
                                                   later, error):
        state = OutlierDistribution(values=np.ones(2), m=1)
        stats = EnergyStats.from_moments(10.0, 1.0)
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
        with pytest.raises(error) as info:
            run_stream(state, stats, stream, record_events=record_events, **kwargs)
        assert str(info.value).startswith("sample 2: ")

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
        calls = {"_stream_rows": 0, "global_energies": 0, "_as_logits": 0}
        for name in calls:
            def counting(*args, _real=getattr(doda, name), _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(doda, name, counting)
        rng = np.random.default_rng(15)
        logits = rng.standard_normal((1000, 4))
        state = OutlierDistribution(values=np.ones(4), m=1)
        stats = EnergyStats.from_moments(10.0, 1.0)
        _, mask, final = run_stream(state, stats, logits, oracle_labels=rng.random(1000) < 0.5,
                                    use_label_probability=1.0, rng=rng)
        assert mask.shape == (1000,) and final.m == 1 + mask.sum() > 1
        # one matrix check and one G pass per call; no sample is checked alone
        assert calls == {"_stream_rows": 1, "global_energies": 1, "_as_logits": 0}

    @pytest.mark.parametrize("labels", [
        [True] * 4,  # shorter than the stream
        [True] * 6,  # longer than the stream
        np.ones((5, 1), dtype=bool),  # not 1-D
    ])
    def test_oracle_labels_must_match_the_stream(self, monkeypatch, labels):
        def step(*args, **kwargs):
            raise AssertionError("a sample was scored")

        monkeypatch.setattr(doda, "_step", step)
        state = OutlierDistribution(values=np.ones(2), m=1)
        stats = EnergyStats.from_moments(10.0, 1.0)
        shape = re.escape(str(np.shape(labels)))
        with pytest.raises(InvalidInputError, match=rf"shape \(5,\), got {shape}"):
            run_stream(state, stats, np.zeros((5, 2)), oracle_labels=labels,
                       use_label_probability=0.5, rng=np.random.default_rng(0))

    def test_frozen_mode_never_adapts(self):
        state = OutlierDistribution(values=np.ones(2), m=1)
        stats = EnergyStats.from_moments(1e9, 0.0)  # everything below threshold
        logits = np.random.default_rng(6).standard_normal((20, 2))
        scores, mask, final = run_stream(state, stats, logits, freeze=True)
        assert final is state
        assert not mask.any()
        for row, s in zip(logits, scores):
            assert s == pytest.approx(calibrated_energy(row, state.values), rel=1e-12)

    def test_positivity_preserved(self):
        rng = np.random.default_rng(7)
        state = init_outlier_distribution(rng.standard_normal((5, 3)))
        stats = EnergyStats.from_moments(10.0, 2.0)
        _, _, final = run_stream(state, stats, rng.standard_normal((200, 3)))
        assert (final.values >= 0).all()

    def test_frozen_scoring_is_deterministic(self):
        rng = np.random.default_rng(8)
        state = init_outlier_distribution(rng.standard_normal((5, 3)))
        stats = EnergyStats.from_moments(10.0, 2.0)
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
        scores, _, final = run_stream(state, EnergyStats.from_moments(10.0, 1.0), logits,
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
        stats = EnergyStats(mu_in=r, sigma_in=0.0, alpha=3.0, r=r)
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
    return EnergyStats(mu_in=r, sigma_in=0.0, alpha=3.0, r=r)


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
            stats = EnergyStats(mu_in=r, sigma_in=0.0, alpha=3.0, r=r)
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

    def test_a_nan_threshold_is_rejected(self):
        state = OutlierDistribution(values=np.ones(2), m=1)
        with pytest.raises(InvalidInputError, match="threshold r must not be NaN"):
            run_plans(state, np.zeros((4, 2)), [(0.0, 1.0), (0.0, math.nan)])

    @pytest.mark.parametrize("m0", [0, 2])
    @pytest.mark.parametrize("stream_of", [np.asarray, list, iter])
    def test_zero_one_and_duplicate_fractions(self, m0, stream_of):
        rng = np.random.default_rng(21)
        logits = rng.normal(0.0, 2.0, (60, 4))
        mask = rng.random(60) < 0.5
        state = OutlierDistribution(values=rng.uniform(0.1, 2.0, 4), m=m0)
        fractions = [0.0, 1.0, 0.5, 0.5, 0.0, 1.0, 0.3]
        for stats in (threshold_inside(logits, 0.4), EnergyStats.from_moments(0.0, 1.0)):
            _, got = run_plans(state, stream_of(logits), plans_of(fractions, stats),
                               oracle_labels=mask, rng=np.random.default_rng(5))
            for fraction, res in zip(fractions, got):
                assert_same_run(res, self.alone(state, stats, logits, mask, fraction, 5),
                                state)

    def test_a_plan_that_accepts_nothing_returns_the_input_state(self):
        logits = np.random.default_rng(22).normal(0.0, 2.0, (40, 3))
        state = OutlierDistribution(values=np.ones(3), m=1)
        stats = EnergyStats.from_moments(0.0, 1.0)  # R < 0 < G: the filter accepts nothing
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


class TestSnapshot:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(10)
        state = init_outlier_distribution(rng.standard_normal((20, 6)), virtual_count=2)
        stats = fit_energy_stats(rng.standard_normal((30, 6)), alpha=2.5)
        path = tmp_path / "state.json"
        save_state(path, state, stats)
        payload = json.loads(path.read_text())
        assert payload["k"] == state.k
        assert np.array_equal(payload["values"], state.values)
        assert payload["m"] == state.m
        assert EnergyStats.from_moments(payload["mu_in"], payload["sigma_in"],
                                        payload["alpha"]) == stats
