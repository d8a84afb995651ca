import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from adaptod.doda import (
    AdaptationEvent,
    EnergyStats,
    OutlierDistribution,
    adapt_and_score,
    adapt_and_score_oracle,
    fit_energy_stats,
    init_outlier_distribution,
    run_stream,
    save_state,
)
from adaptod.energy import calibrated_energy, global_energy
from adaptod.errors import (
    EnergyOverflowError,
    InsufficientDataError,
    InvalidInputError,
    ShapeError,
)

from oracles import (mean_std_threshold, prefix_mean_stream, rowwise_exp_mean,
                     rowwise_global_energies, running_mean_closed_form)


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
        new_state, _, event = adapt_and_score(state, stats, [0.0, math.log(3)])
        assert event.accepted
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
        new_state, _, event = adapt_and_score(state, stats, [5.0, 5.0])
        assert new_state is state
        assert not event.accepted

    def test_tie_at_threshold_rejects(self):
        state = OutlierDistribution(values=np.array([1.0, 1.0]), m=1)
        stats = self.stats_accepting_below(4.0)
        new_state, _, event = adapt_and_score(state, stats, logits_with_energy(4.0))
        assert not event.accepted
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
    def test_zero_probability_degenerates(self):
        rng = np.random.default_rng(1)
        stats = EnergyStats.from_moments(50.0, 10.0)
        state_a = OutlierDistribution(values=np.ones(3), m=1)
        state_b = OutlierDistribution(values=np.ones(3), m=1)
        logits = rng.standard_normal((30, 3))
        for i, row in enumerate(logits):
            state_a, score_a, _ = adapt_and_score(state_a, stats, row, sample_index=i)
            state_b, score_b, _ = adapt_and_score_oracle(
                state_b, stats, row, is_true_ood=True, use_label_probability=0.0, rng=rng,
                sample_index=i,
            )
            assert score_a == score_b
        assert np.array_equal(state_a.values, state_b.values)

    def test_full_oracle_rejects_id(self):
        stats = EnergyStats.from_moments(1e9, 0.0)  # filter alone would accept everything
        state = OutlierDistribution(values=np.ones(2), m=1)
        rng = np.random.default_rng(2)
        new_state, _, event = adapt_and_score_oracle(
            state, stats, [0.0, 0.0], is_true_ood=False, use_label_probability=1.0, rng=rng
        )
        assert not event.accepted
        assert new_state is state

    def test_full_oracle_accepts_ood(self):
        stats = EnergyStats.from_moments(-1e9, 0.0)  # filter alone would reject everything
        state = OutlierDistribution(values=np.ones(2), m=1)
        rng = np.random.default_rng(3)
        _, _, event = adapt_and_score_oracle(
            state, stats, [0.0, 0.0], is_true_ood=True, use_label_probability=1.0, rng=rng
        )
        assert event.accepted

    def test_probability_out_of_range(self):
        stats = EnergyStats.from_moments(1.0, 0.0)
        state = OutlierDistribution(values=np.ones(2), m=1)
        with pytest.raises(InvalidInputError):
            adapt_and_score_oracle(state, stats, [0.0, 0.0], True, 1.5,
                                   np.random.default_rng(0))


class TestRunStream:
    @pytest.mark.parametrize("freeze", [False, True])
    def test_empty_stream(self, freeze):
        state = OutlierDistribution(values=np.ones(2), m=1)
        stats = EnergyStats.from_moments(10.0, 1.0)
        scores, events, final = run_stream(state, stats, [], freeze=freeze, record_events=True)
        assert scores == [] and events == []
        assert final is state

    def test_frozen_pass_of_an_iterator_equals_that_of_the_matrix(self):
        state = OutlierDistribution(values=np.ones(3), m=1)
        stats = EnergyStats.from_moments(10.0, 1.0)
        logits = np.random.default_rng(12).standard_normal((30, 3))
        want = run_stream(state, stats, logits, freeze=True, record_events=True)
        got = run_stream(state, stats, iter(logits), freeze=True, record_events=True)
        assert got[0] == want[0] and got[1] == want[1] and got[2] is state

    def test_single_sample_matches_direct_call(self):
        state = OutlierDistribution(values=np.ones(2), m=1)
        stats = EnergyStats.from_moments(10.0, 1.0)
        logits = np.array([[0.1, -0.2]])
        scores, events, final = run_stream(state, stats, logits, record_events=True)
        direct_state, direct_score, direct_event = adapt_and_score(state, stats, logits[0])
        assert scores[0] == direct_score
        assert events[0] == direct_event
        assert np.array_equal(final.values, direct_state.values)

    def test_one_pass_event_count(self):
        rng = np.random.default_rng(4)
        logits = rng.standard_normal((100, 4))
        state = init_outlier_distribution(rng.standard_normal((10, 4)))
        stats = fit_energy_stats(rng.standard_normal((50, 4)))
        scores, events, _ = run_stream(state, stats, logits, record_events=True)
        assert len(scores) == len(events) == 100
        assert [e.sample_index for e in events] == list(range(100))

    def test_events_off_by_default(self):
        state = OutlierDistribution(values=np.ones(2), m=1)
        stats = EnergyStats.from_moments(10.0, 1.0)
        scores, events, _ = run_stream(state, stats, np.zeros((5, 2)))
        assert events is None and len(scores) == 5

    def test_running_mean_identity(self):
        rng = np.random.default_rng(5)
        for trial in range(20):
            k = int(rng.integers(2, 8))
            v0 = rng.uniform(0.1, 2.0, k)
            m0 = int(rng.integers(0, 4))
            state = OutlierDistribution(values=v0, m=m0)
            stats = EnergyStats.from_moments(float(rng.uniform(2, 8)), 0.0)
            logits = rng.standard_normal((60, k))
            _, events, final = run_stream(state, stats, logits, record_events=True)
            accepted = [np.exp(logits[e.sample_index]) for e in events if e.accepted]
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

    @pytest.mark.parametrize("record_events", [False, True])
    @pytest.mark.parametrize("mode", ["freeze", "plain", "oracle"])
    @pytest.mark.parametrize("bad, error", [
        ([np.nan, 0.0], InvalidInputError),
        ([0.0, -np.inf], InvalidInputError),
        ([800.0, 0.0], EnergyOverflowError),
    ])
    def test_every_mode_names_the_first_bad_sample(self, mode, record_events, bad, error):
        state = OutlierDistribution(values=np.ones(2), m=1)
        stats = EnergyStats.from_moments(10.0, 1.0)
        stream = np.array([[0.0, 0.0], [0.5, -0.5], bad, [0.1, 0.2], bad])
        kwargs = {"freeze": dict(freeze=True), "plain": {},
                  "oracle": dict(oracle_labels=[True] * 5, use_label_probability=1.0,
                                 rng=np.random.default_rng(0))}[mode]
        with pytest.raises(error) as info:
            run_stream(state, stats, stream, record_events=record_events, **kwargs)
        assert str(info.value).startswith("sample 2: ")

    def test_frozen_mode_never_adapts(self):
        state = OutlierDistribution(values=np.ones(2), m=1)
        stats = EnergyStats.from_moments(1e9, 0.0)  # everything below threshold
        logits = np.random.default_rng(6).standard_normal((20, 2))
        scores, events, final = run_stream(state, stats, logits, freeze=True,
                                           record_events=True)
        assert final is state
        assert not any(e.accepted for e in events)
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
        scores, events, final = run_stream(state, EnergyStats.from_moments(10.0, 1.0), logits,
                                           freeze=True, record_events=True)
        assert final is state
        assert scores == [calibrated_energy(row, p0) for row in logits]
        assert [e.global_energy for e in events] == [global_energy(row) for row in logits]
        assert [e.calibrated_score for e in events] == scores
        assert not any(e.accepted for e in events)


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
