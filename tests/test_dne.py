import math
import re

import numpy as np
import pytest

from adaptod.dne import LossBreakdown, StepBuffers, ce_and_grad, loss_and_grad
from adaptod.errors import InvalidInputError

from oracles import (
    central_difference,
    default_margins,
    max_relative_error,
    naive_cross_entropy,
    naive_dne_c,
    naive_dne_s,
    prefusion_ce_step,
    prefusion_total_loss,
    prefusion_total_loss_grad,
)


def random_batch(rng, k, b_in, b_out):
    """b_in ID logit rows stacked above b_out outlier rows."""
    return np.vstack([rng.standard_normal((b_in, k)), rng.standard_normal((b_out, k))])


def energy_terms(logits, b_in):
    """The loss breakdown of b_in ID rows above the outlier rows, under
    all-zero labels; its dne_c and dne_s do not depend on the labels."""
    return loss_and_grad(logits, np.zeros(b_in, dtype=int))[0]


def margin_oracle(batch, labels, margins):
    """(LossBreakdown, gradient) of the pre-fusion step under explicit margins."""
    id_rows, out_rows = batch[:len(labels)], batch[len(labels):]
    return (LossBreakdown(*prefusion_total_loss(id_rows, out_rows, labels, margins)),
            prefusion_total_loss_grad(id_rows, out_rows, labels, margins))


class TestMargins:
    def test_default_margins(self):
        rng = np.random.default_rng(20)
        batch, labels = random_batch(rng, 10, 4, 8), rng.integers(0, 10, 4)
        want, want_grad = margin_oracle(batch, labels, (1.0, 0.0, 10 / 4, 0.0))
        got, grad = loss_and_grad(batch, labels)
        assert got == want and np.array_equal(grad, want_grad)

    def test_margins_depend_only_on_k_and_b_in(self):
        rng = np.random.default_rng(26)
        for b_out in (5, 50):
            batch, labels = random_batch(rng, 7, 3, b_out), rng.integers(0, 7, 3)
            want, want_grad = margin_oracle(batch, labels, default_margins(7, 3))
            got, grad = loss_and_grad(batch, labels)
            assert got == want and np.array_equal(grad, want_grad)

    def test_invalid_geometry(self):
        with pytest.raises(InvalidInputError, match="got k=1, b_in=2, b_out=2"):
            loss_and_grad(np.zeros((4, 1)), [0, 0])
        with pytest.raises(InvalidInputError, match="got k=2, b_in=0, b_out=2"):
            loss_and_grad(np.zeros((2, 2)), [])
        with pytest.raises(InvalidInputError, match="got k=2, b_in=2, b_out=0"):
            loss_and_grad(np.zeros((2, 2)), [0, 1])


class TestDneCLoss:
    def test_outlier_mass_pushed_to_zero_limit(self):
        # outlier logits 40 below ID logits: outlier column mass ~ exp(-40)
        batch = np.vstack([np.zeros((3, 4)), np.full((2, 4), -40.0)])
        assert energy_terms(batch, 3).dne_c == pytest.approx(0.0, abs=1e-15)

    def test_identical_rows_symmetry(self):
        batch = np.ones((4, 2))
        assert energy_terms(batch, 2).dne_c == pytest.approx(1.0, rel=1e-12)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            k, b_in, b_out = rng.integers(2, 8), rng.integers(1, 9), rng.integers(1, 9)
            batch = random_batch(rng, k, b_in, b_out)
            expected = naive_dne_c(batch[:b_in], batch[b_in:], 1.0, 0.0)
            assert energy_terms(batch, b_in).dne_c == pytest.approx(expected, rel=1e-12)

    def test_non_negative(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            batch = random_batch(rng, 5, 4, 4)
            assert energy_terms(batch, 4).dne_c >= 0.0


class TestDneSLoss:
    def test_margin_satisfying_batch(self):
        # ID rows equal among themselves, outliers 40 below: each ID row mass is
        # k / b_in exactly (outlier contribution vanishes), outlier mass ~ 0
        batch = np.vstack([np.zeros((4, 3)), np.full((2, 3), -40.0)])
        assert energy_terms(batch, 4).dne_s == pytest.approx(0.0, abs=1e-15)

    def test_identical_rows_symmetry(self):
        batch = np.ones((4, 2))
        assert energy_terms(batch, 2).dne_s == pytest.approx(0.5, rel=1e-12)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            k, b_in, b_out = rng.integers(2, 8), rng.integers(1, 9), rng.integers(1, 9)
            batch = random_batch(rng, k, b_in, b_out)
            expected = naive_dne_s(batch[:b_in], batch[b_in:], k / b_in, 0.0)
            assert energy_terms(batch, b_in).dne_s == pytest.approx(expected, rel=1e-12)

    def test_geometry_mismatch_rejected(self):
        batch = np.zeros((4, 3))
        with pytest.raises(InvalidInputError, match="need k >= 2"):
            energy_terms(batch, 4)


class TestTotalLoss:
    def test_perfect_fit_limit(self):
        labels = np.array([0, 1, 2])
        id_rows = np.eye(3) * 40.0
        batch = np.vstack([id_rows, np.full((2, 3), -40.0)])
        breakdown = loss_and_grad(batch, labels)[0]
        assert breakdown.ce == pytest.approx(0.0, abs=1e-12)
        assert breakdown.dne_c == pytest.approx(0.0, abs=1e-10)
        assert breakdown.dne_s == pytest.approx(0.0, abs=1e-10)
        assert breakdown.total == pytest.approx(0.0, abs=1e-10)

    def test_uniform_logits_ce(self):
        batch = np.zeros((5, 2))
        breakdown = loss_and_grad(batch, [0, 1, 0, 1])[0]
        assert breakdown.ce == pytest.approx(math.log(2), rel=1e-12)

    def test_composition(self):
        rng = np.random.default_rng(24)
        batch = random_batch(rng, 6, 5, 7)
        labels = rng.integers(0, 6, 5)
        breakdown = loss_and_grad(batch, labels)[0]
        expected = (
            ce_and_grad(batch[:5], labels)[0]
            + energy_terms(batch, 5).dne_c
            + energy_terms(batch, 5).dne_s
        )
        assert breakdown.total == pytest.approx(expected, rel=1e-12)
        assert breakdown.total == pytest.approx(
            breakdown.ce + breakdown.dne_c + breakdown.dne_s, rel=1e-12
        )

    def test_ce_matches_naive_oracle(self):
        rng = np.random.default_rng(25)
        rows = rng.standard_normal((10, 4)) * 3
        labels = rng.integers(0, 4, 10)
        assert ce_and_grad(rows, labels)[0] == pytest.approx(
            naive_cross_entropy(rows, labels), rel=1e-12
        )


class TestTotalLossGrad:
    def grad_and_fd(self, rng, k, b_in, b_out):
        X = rng.standard_normal((b_in + b_out, k))
        labels = rng.integers(0, k, b_in)

        def f(flat):
            M = flat.reshape(b_in + b_out, k)
            return loss_and_grad(M, labels)[0].total

        analytic = loss_and_grad(X, labels)[1]
        numeric = central_difference(f, X.ravel()).reshape(analytic.shape)
        return analytic, numeric

    def test_hinge_flat_region_has_zero_dne_gradient(self):
        # margins satisfied (outliers far below), labels matched strongly:
        # every ID class and row mass rounds to its margin (1 and k / b_in), the
        # outlier masses underflow, and the CE gradient is ~ 0
        id_rows = np.eye(3) * 40.0
        batch = np.vstack([id_rows, np.full((2, 3), -80.0)])
        grad = loss_and_grad(batch, [0, 1, 2])[1]
        assert np.abs(grad).max() < 1e-12

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_finite_differences(self, seed):
        rng = np.random.default_rng(100 + seed)
        k = int(rng.choice([2, 5, 10]))
        b_in = int(rng.choice([2, 8]))
        b_out = int(rng.choice([2, 8]))
        analytic, numeric = self.grad_and_fd(rng, k, b_in, b_out)
        assert max_relative_error(analytic, numeric) < 1e-4

    def test_duplicated_batch_scaling(self):
        rng = np.random.default_rng(200)
        k, b_in, b_out = 4, 3, 2
        X = rng.standard_normal((b_in + b_out, k))
        labels = rng.integers(0, k, b_in)
        id2 = np.repeat(X[:b_in], 2, axis=0)
        out2 = np.repeat(X[b_in:], 2, axis=0)
        labels2 = np.repeat(labels, 2)
        batch2 = np.vstack([id2, out2])

        def f(flat):
            M = flat.reshape(2 * (b_in + b_out), k)
            return loss_and_grad(M, labels2)[0].total

        analytic = loss_and_grad(batch2, labels2)[1]
        numeric = central_difference(f, np.vstack([id2, out2]).ravel()).reshape(
            analytic.shape
        )
        assert max_relative_error(analytic, numeric) < 1e-4

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(201)
        k, b_in, b_out = 5, 6, 4
        batch = random_batch(rng, k, b_in, b_out)
        labels = rng.integers(0, k, b_in)
        perm = rng.permutation(b_in)
        permuted = np.vstack([batch[:b_in][perm], batch[b_in:]])
        base_loss, g = loss_and_grad(batch, labels)
        perm_loss, gp = loss_and_grad(permuted, labels[perm])
        assert perm_loss.total == pytest.approx(base_loss.total, rel=1e-12)
        np.testing.assert_allclose(gp[:b_in], g[:b_in][perm], rtol=1e-12)
        np.testing.assert_allclose(gp[b_in:], g[b_in:], rtol=1e-12)


class TestFusedStep:
    """loss_and_grad and ce_and_grad run the pre-fusion float ops in the same
    order, so they equal the three-pass reference bit for bit."""

    @pytest.mark.parametrize("seed", range(8))
    def test_equals_three_pass_reference(self, seed):
        rng = np.random.default_rng(300 + seed)
        for _ in range(25):
            k, b_in, b_out = (int(v) for v in rng.integers([2, 1, 1], [12, 20, 40]))
            id_rows = rng.standard_normal((b_in, k)) * 3.0
            out_rows = rng.standard_normal((b_out, k)) * 3.0 - rng.uniform(0, 4)
            labels = rng.integers(0, k, b_in)
            margins = default_margins(k, b_in)
            want = LossBreakdown(*prefusion_total_loss(id_rows, out_rows, labels, margins))
            want_grad = prefusion_total_loss_grad(id_rows, out_rows, labels, margins)
            breakdown, grad = loss_and_grad(np.vstack([id_rows, out_rows]), labels)
            for name in ("total", "ce", "dne_c", "dne_s"):
                assert getattr(breakdown, name) == getattr(want, name), name
            assert breakdown == want
            assert np.array_equal(grad, want_grad)

    @pytest.mark.parametrize("seed", range(4))
    def test_equals_three_pass_reference_at_the_benchmark_batch_shape(self, seed):
        """The training batch of `adaptod train` and the benchmark, b_in=64 ID
        rows above b_out=128 outlier rows, at k=10 and at widths up to 32,
        where NumPy's pairwise row sums take their unrolled path (k >= 8)."""
        rng = np.random.default_rng(320 + seed)
        for k in (10, 8, 9, 16, 17, 31, 32, *rng.integers(2, 33, 68)):  # 75 batches
            id_rows = rng.standard_normal((64, k)) * 3.0
            out_rows = rng.standard_normal((128, k)) * 3.0 - rng.uniform(0, 4)
            labels = rng.integers(0, k, 64)
            breakdown, grad = loss_and_grad(np.vstack([id_rows, out_rows]), labels)
            want, want_grad = margin_oracle(np.vstack([id_rows, out_rows]), labels,
                                            default_margins(k, 64))
            assert breakdown == want
            assert np.array_equal(grad, want_grad)

    def test_ce_and_grad_equals_stage_one_reference(self):
        rng = np.random.default_rng(310)
        for n, k in ((1, 2), (7, 3), (64, 10), (33, 5)):
            logits = rng.standard_normal((n, k)) * 4.0
            labels = rng.integers(0, k, n)
            ce, grad = ce_and_grad(logits, labels)
            want_ce, want_grad = prefusion_ce_step(logits, labels)
            assert ce == want_ce
            assert np.array_equal(grad, want_grad)

    def test_label_count_errors(self):
        # label values are checked once per nn.train call, in test_nn
        with pytest.raises(InvalidInputError, match="one label per ID row required"):
            loss_and_grad(np.zeros((3, 3)), [0, 1, 2, 0])
        with pytest.raises(InvalidInputError, match="one label per ID row required"):
            ce_and_grad(np.zeros((2, 3)), [0])

    @pytest.mark.parametrize("logits, error, message", [
        pytest.param([[0.0, np.inf], [0.0, 0.0]], InvalidInputError, "non-finite", id="inf"),
        pytest.param([[0.0, np.nan], [0.0, 0.0]], InvalidInputError, "non-finite", id="nan"),
        pytest.param([0.0, 1.0], InvalidInputError, "2-D logit array", id="1-D"),
    ])
    def test_logit_errors_come_before_any_arithmetic(self, logits, error, message):
        with pytest.raises(error, match=message):
            loss_and_grad(logits, [0])

    def test_geometry_error_and_precedence(self):
        geometry = r"need k >= 2, b_in >= 1, b_out >= 1, got k=3, b_in=3, b_out=0"
        with pytest.raises(InvalidInputError, match=geometry):
            loss_and_grad(np.zeros((3, 3)), [0, 1, 2])
        with pytest.raises(InvalidInputError, match=r"got k=1, b_in=2, b_out=1"):
            loss_and_grad(np.zeros((3, 1)), [0, 0])
        # both wrong: the label count is reported first
        with pytest.raises(InvalidInputError, match="one label per ID row required"):
            loss_and_grad(np.zeros((2, 1)), [0, 0, 0])


class TestStepBuffers:
    """nn.train's path: one StepBuffers per stage, written by every step."""

    def test_reused_buffers_give_the_bits_of_fresh_arrays(self):
        rng = np.random.default_rng(330)
        ce_bufs, dne_bufs = StepBuffers(64, 10), StepBuffers(192, 10, 64)
        for _ in range(2):
            batch, labels = random_batch(rng, 10, 64, 128) * 3.0, rng.integers(0, 10, 64)
            ce, grad = ce_and_grad(batch[:64], labels, ce_bufs)
            want_ce, want_grad = ce_and_grad(batch[:64], labels)
            assert ce == want_ce and grad.tobytes() == want_grad.tobytes()
            assert grad is ce_bufs.grad
            terms, grad = loss_and_grad(batch, labels, dne_bufs)
            want_terms, want_grad = loss_and_grad(batch, labels)
            assert terms == want_terms and grad.tobytes() == want_grad.tobytes()
            assert grad is dne_bufs.grad

    @pytest.mark.parametrize("call, rows, bufs, message", [
        pytest.param(ce_and_grad, 64, StepBuffers(63, 10),
                     "buffers of shape (63, 10) do not fit logits of shape (64, 10)", id="ce rows"),
        pytest.param(ce_and_grad, 64, StepBuffers(64, 9),
                     "buffers of shape (64, 9) do not fit logits of shape (64, 10)", id="ce width"),
        pytest.param(loss_and_grad, 192, StepBuffers(191, 10, 64),
                     "buffers of shape (191, 10) do not fit logits of shape (192, 10)", id="rows"),
        pytest.param(loss_and_grad, 192, StepBuffers(192, 10, 32),
                     "buffers of shape (32, 10) do not fit logits of shape (64, 10)", id="ID rows"),
    ])
    def test_buffers_of_another_shape_are_refused(self, call, rows, bufs, message):
        with pytest.raises(InvalidInputError, match="^" + re.escape(message) + "$"):
            call(np.zeros((rows, 10)), np.zeros(64, int), bufs)
