import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from adaptod.energy import (
    _LOG_FLOAT_MAX,
    batch_energy_normalize,
    calibrated_energies,
    calibrated_energy,
    global_energies,
    global_energy,
)
from adaptod.errors import EnergyOverflowError, InvalidInputError, ShapeError

from oracles import rowwise_global_energies

# frozen from a 40-digit mpmath evaluation of e^1 + e^2
E1_PLUS_E2 = 10.10733792738969546259071493192767031094
# frozen from a 40-digit mpmath evaluation of (e + e^2 + e^3) / 1.5
CALIB_123 = 20.12858323371824213567949639100625880528


class TestGlobalEnergy:
    def test_zero_logits(self):
        assert global_energy([0.0, 0.0, 0.0]) == pytest.approx(3.0, rel=1e-12)

    def test_log_logits(self):
        assert global_energy([math.log(2), math.log(3)]) == pytest.approx(5.0, rel=1e-12)

    def test_high_precision_reference(self):
        assert global_energy([1.0, 2.0]) == pytest.approx(E1_PLUS_E2, rel=1e-12)

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            global_energy([0.0, float("nan")])
        with pytest.raises(InvalidInputError):
            global_energy([0.0, float("inf")])

    def test_overflow_is_loud(self):
        with pytest.raises(EnergyOverflowError):
            global_energy([800.0, 800.0])

    def test_large_but_representable(self):
        # max-shift keeps this in range even though naive exp would be fine too
        assert math.isfinite(global_energy([700.0, 0.0]))

    def test_strictly_increasing_per_coordinate(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            v = rng.standard_normal(rng.integers(2, 12))
            base = global_energy(v)
            bumped = v.copy()
            j = rng.integers(0, v.size)
            bumped[j] += rng.uniform(0.01, 1.0)
            assert global_energy(bumped) > base


def overflow_edge_rows():
    """Rows whose log global energy lies within 1e-12 of the float64 limit, on
    both sides: constant rows and rows with one dominant logit."""
    rows = []
    for k in (1, 2, 3, 10):
        for d in np.linspace(-1e-12, 1e-12, 41):
            rows.append(np.full(k, _LOG_FLOAT_MAX - math.log(k) + d))
            rows.append(np.r_[_LOG_FLOAT_MAX + d, np.full(k - 1, -30.0)])
    return rows


class TestGlobalEnergies:
    @pytest.mark.parametrize("k", [1, 2, 3, 8, 10, 17])
    @pytest.mark.parametrize("scale", [0.1, 1.0, 30.0, 100.0])
    def test_equals_the_per_row_loop_exactly(self, k, scale):
        rng = np.random.default_rng(k)
        rows = rng.standard_normal((2000, k)) * scale + rng.uniform(-50, 50, (2000, 1))
        want = rowwise_global_energies(rows)
        assert np.array_equal(global_energies(rows), want)
        assert np.array_equal(global_energies(np.asfortranarray(rows)), want)
        assert np.array_equal(global_energies(rows), [global_energy(r) for r in rows])

    def test_overflow_edge_rows_match_the_per_row_loop(self):
        outcomes = []
        for row in overflow_edge_rows():
            try:
                want = rowwise_global_energies([row])[0]
            except OverflowError:
                with pytest.raises(EnergyOverflowError):
                    global_energies(row[None, :])
                outcomes.append("raised")
                continue
            assert global_energies(row[None, :])[0] == want
            outcomes.append("finite")
        assert {"raised", "finite"} <= set(outcomes)

    def test_one_overflowing_row_fails_the_matrix(self):
        with pytest.raises(EnergyOverflowError):
            global_energies([[0.0, 0.0], [800.0, 800.0]])

    def test_rejects_bad_input(self):
        with pytest.raises(InvalidInputError):
            global_energies([[0.0, float("nan")]])
        with pytest.raises(ShapeError):
            global_energies([0.0, 1.0])
        with pytest.raises(ShapeError):
            global_energies(np.empty((3, 0)))


class TestCalibratedEnergy:
    def test_zero_prior_reduces_to_global(self):
        assert calibrated_energy([0.0, 0.0], [0.0, 0.0]) == pytest.approx(2.0, rel=1e-12)

    def test_forced_values(self):
        assert calibrated_energy([0.0, 0.0], [1.0, 3.0]) == pytest.approx(0.75, rel=1e-12)

    def test_high_precision_reference(self):
        got = calibrated_energy([1.0, 2.0, 3.0], [0.5, 0.5, 0.5])
        assert got == pytest.approx(CALIB_123, rel=1e-12)

    def test_matches_global_for_zero_prior_randomly(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            v = rng.standard_normal(5) * 3
            assert calibrated_energy(v, np.zeros(5)) == pytest.approx(
                global_energy(v), rel=1e-12
            )

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            calibrated_energy([0.0, 0.0], [0.0, 0.0, 0.0])

    def test_overflowing_scale_raises_energy_overflow(self):
        # the damped total passes the log guard, but exp(710) is not a float64
        with pytest.raises(EnergyOverflowError):
            calibrated_energy([710.0, 0.0], [10.0, 0.0])

    def test_negative_prior_rejected(self):
        with pytest.raises(InvalidInputError):
            calibrated_energy([0.0, 0.0], [0.0, -1.0])


class TestCalibratedEnergies:
    @pytest.mark.parametrize("k", [1, 2, 3, 8, 10, 17])
    @pytest.mark.parametrize("scale", [0.1, 1.0, 30.0, 100.0])
    def test_equals_the_per_row_function_exactly(self, k, scale):
        rng = np.random.default_rng(k)
        rows = rng.standard_normal((2000, k)) * scale + rng.uniform(-50, 50, (2000, 1))
        p = rng.uniform(0.0, 3.0, k) ** 4
        want = [calibrated_energy(row, p) for row in rows]
        assert np.array_equal(calibrated_energies(rows, p), want)
        assert np.array_equal(calibrated_energies(np.asfortranarray(rows), p), want)

    def test_zero_prior_equals_global_energies_exactly(self):
        rows = np.random.default_rng(3).standard_normal((500, 10)) * 20
        assert np.array_equal(calibrated_energies(rows, np.zeros(10)), global_energies(rows))

    def test_overflow_edge_rows_match_the_per_row_function(self):
        outcomes = []
        for row in overflow_edge_rows() + [np.array([710.0, 0.0])]:
            for p in (np.zeros(row.size), np.full(row.size, 10.0)):
                try:
                    want = calibrated_energy(row, p)
                except EnergyOverflowError:
                    with pytest.raises(EnergyOverflowError):
                        calibrated_energies(row[None, :], p)
                    outcomes.append("raised")
                    continue
                assert calibrated_energies(row[None, :], p)[0] == want
                outcomes.append("finite")
        assert {"raised", "finite"} <= set(outcomes)

    def test_damped_total_does_not_hide_an_overflowing_scale(self):
        with pytest.raises(EnergyOverflowError):
            calibrated_energies([[0.0, 0.0], [710.0, 0.0]], [10.0, 0.0])

    def test_rejects_bad_input(self):
        with pytest.raises(InvalidInputError):
            calibrated_energies([[0.0, float("nan")]], [0.0, 0.0])
        with pytest.raises(InvalidInputError):
            calibrated_energies([[0.0, 0.0]], [0.0, -1.0])
        with pytest.raises(ShapeError):
            calibrated_energies([[0.0, 0.0]], [0.0, 0.0, 0.0])
        with pytest.raises(ShapeError):
            calibrated_energies([0.0, 1.0], [0.0, 0.0])


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
        with pytest.raises(InvalidInputError):
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
