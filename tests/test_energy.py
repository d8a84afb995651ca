import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from adaptod.energy import batch_energy_normalize, column_sums
from adaptod.errors import InvalidInputError


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


class TestColumnSums:
    def test_bits_of_the_row_by_row_sum(self):
        """The sums of np.add.reduce(a, axis=0), bit for bit, at the training
        batch shapes and at one column, for entries that are never -0.0."""
        rng = np.random.default_rng(40)
        for rows, k in ((192, 10), (64, 10), (128, 10), (7, 1), (300, 1), (1, 5), (50, 33)):
            a = np.exp(rng.standard_normal((rows, k)) * 20.0)
            a[rng.random(a.shape) < 0.1] = 0.0
            assert column_sums(a).tobytes() == np.add.reduce(a, axis=0).tobytes()
            out = np.empty(k)
            assert column_sums(a, out=out) is out
            assert out.tobytes() == np.add.reduce(a, axis=0).tobytes()
