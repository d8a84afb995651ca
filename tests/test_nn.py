import dataclasses
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from adaptod import cli, data, nn
from adaptod.dne import loss_and_grad
from adaptod.errors import DataError, InvalidInputError, NumericError
from adaptod.nn import (
    Mlp,
    TrainConfig,
    cosine_schedule,
    load_checkpoint,
    save_checkpoint,
    train,
)

from oracles import (
    Diverged,
    central_difference,
    cosine_lr,
    max_relative_error,
    naive_forward,
    per_layer_train,
)


def blob_task(seed, n_per_class=60, d=4, separation=6.0):
    rng = np.random.default_rng(seed)
    means = np.array([np.full(d, 0.0), np.full(d, separation)])
    x = np.vstack([m + rng.standard_normal((n_per_class, d)) for m in means])
    y = np.repeat([0, 1], n_per_class)
    outliers = rng.standard_normal((80, d)) * 0.5 + 20.0
    return x, y, outliers


class TestForward:
    def test_zero_parameters_give_zero_logits(self):
        model = Mlp.init([3, 4, 2], seed=0)
        for w in model.weights:
            w[:] = 0.0
        for b in model.biases:
            b[:] = 0.0
        assert np.array_equal(model.forward(np.ones((5, 3))), np.zeros((5, 2)))

    def test_identity_single_layer(self):
        model = Mlp.init([3, 3], seed=0)
        model.weights[0] = np.eye(3)
        model.biases[0][:] = 0.0
        x = np.random.default_rng(1).standard_normal((4, 3))
        assert np.allclose(model.forward(x), x)

    def test_matches_naive_loop_forward(self):
        rng = np.random.default_rng(2)
        model = Mlp.init([5, 7, 6, 3], seed=11)
        x = rng.standard_normal((9, 5))
        expected = naive_forward(model.weights, model.biases, x)
        np.testing.assert_allclose(model.forward(x), expected, rtol=1e-12, atol=1e-12)

    def test_shape_mismatch(self):
        model = Mlp.init([3, 2], seed=0)
        with pytest.raises(InvalidInputError, match="inputs have shape"):
            model.forward(np.ones((4, 5)))

    def test_peak_memory_is_one_hidden_activation_plus_the_logits(self):
        """In place, each hidden layer holds one array: on 20000 x 8 rows through
        [8, 32, 10] the peak is the hidden activation plus the logits, 1.31 of
        it, where a fresh array per bias add and per ReLU peaks at about 2."""
        model = Mlp.init([8, 32, 10], seed=0)
        x = np.random.default_rng(0).standard_normal((20000, 8))
        hidden = 20000 * 32 * 8
        tracemalloc.start()
        try:
            model.forward(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.4 * hidden


class TestLayout:
    @pytest.mark.parametrize("params", [
        pytest.param(np.zeros(12), id="short"),
        pytest.param(np.zeros(14), id="long"),
        pytest.param(np.zeros((1, 13)), id="matrix"),
        pytest.param(np.float64(0.0), id="scalar"),
        pytest.param([], id="empty"),
    ])
    def test_params_that_do_not_fit_layer_dims_are_rejected(self, params):
        """[2, 3, 1] needs 2*3 + 3 + 3*1 + 1 = 13 parameters, in one vector."""
        with pytest.raises(InvalidInputError, match=re.escape(
                f"layer_dims [2, 3, 1] need 13 parameters, got params of shape "
                f"{np.shape(params)}")):
            Mlp([2, 3, 1], params)

    def test_the_constructor_copies_params_as_float64(self):
        params = np.arange(9, dtype=np.int64)
        model = Mlp([2, 3], params)
        model.params[:] = -1.0
        assert model.params.dtype == np.float64 and params.tolist() == list(range(9))

    @pytest.mark.parametrize("dims", [[8, 32, 10], [3, 5, 4, 2]])
    @pytest.mark.parametrize("seed", [0, 1009])
    def test_init_draws_the_per_layer_values_in_their_order(self, dims, seed):
        """One draw per layer into the vector equals a draw of W, then of b, per layer."""
        rng = np.random.default_rng(seed)
        want = []
        for i, o in zip(dims[:-1], dims[1:]):
            bound = 1.0 / np.sqrt(i)
            want += [rng.uniform(-bound, bound, size=(i, o)).ravel(),
                     rng.uniform(-bound, bound, size=o)]
        assert Mlp.init(dims, seed).params.tobytes() == np.concatenate(want).tobytes()

    @pytest.mark.parametrize("dims, at", [([3.5, 2], 0), ([True, 2], 0), ([3, "2"], 1),
                                          ([3, np.float64(2.0)], 1)],
                             ids=["float", "bool", "str", "numpy-float"])
    def test_layer_sizes_must_be_integers(self, dims, at):
        """They were once truncated: [3.5, 2] built a [3, 2] net, [True, 2] a [1, 2] one."""
        with pytest.raises(InvalidInputError, match=re.escape(
                f"layer_dims[{at}] must be an integer, got {dims[at]!r}")):
            Mlp.init(dims, seed=0)

    def test_layer_dims_that_are_not_a_sequence_are_refused(self):
        with pytest.raises(InvalidInputError,
                           match="^layer_dims must be a sequence of integers, got 5$"):
            Mlp.init(5, seed=0)

    @pytest.mark.parametrize("inputs", ["x", [[1.0, "a", 2.0]], [[1.0, 2.0], [3.0]], {"a": 1.0}])
    def test_forward_refuses_input_that_is_not_a_float_matrix(self, inputs):
        with pytest.raises(InvalidInputError, match="^inputs do not convert to a float matrix"):
            Mlp.init([3, 2], seed=0).forward(inputs)

    @pytest.mark.parametrize("inputs, row", [
        pytest.param([[1.0, None, 2.0]], 0, id="none"),  # once the logits [[nan nan]]
        pytest.param([[np.inf, 0.0, 0.0]], 0, id="inf"),  # once the logits [[inf -inf]]
        pytest.param([[0.0, 0.0, 0.0], [1.0, 2.0, np.nan], [-np.inf, 0.0, 0.0]], 1,
                     id="first-of-two"),
    ])
    def test_forward_refuses_a_non_finite_input_naming_its_row(self, inputs, row):
        with pytest.raises(InvalidInputError,
                           match=f"^inputs row {row} holds a non-finite value$"):
            Mlp.init([3, 2], seed=0).forward(inputs)

    def test_numpy_integer_sizes_are_integers(self):
        assert Mlp.init([np.int64(3), np.uint8(2)], seed=0).layer_dims == [3, 2]

    @pytest.mark.parametrize("seed, message", [
        (-1, "seed must be >= 0, got -1"), (1.5, "seed must be an integer, got 1.5"),
        (None, "seed must be an integer, got None"), (True, "seed must be an integer, got True")])
    def test_a_seed_that_is_not_a_non_negative_integer_is_refused(self, seed, message):
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            Mlp.init([3, 2], seed)


class TestBackward:
    """The kernels train runs: _forward to logits and activations, then
    _backward of an upstream gradient into grad, here with fresh arrays (None)."""

    def test_zero_upstream_gives_zero_grads(self):
        model = Mlp.init([4, 5, 3], seed=3)
        _, acts = model._forward(np.ones((6, 4)), [None] * 2)
        model._backward(acts, np.zeros((6, 3)), 0, [None])
        assert all(np.all(g == 0) for g in model._d_weights)
        assert all(np.all(g == 0) for g in model._d_biases)

    def test_linear_layer_sum_loss(self):
        # L = sum of logits for a single linear layer: dL/dW[i][j] = sum_n x[n][i]
        model = Mlp.init([3, 2], seed=4)
        x = np.random.default_rng(5).standard_normal((7, 3))
        _, acts = model._forward(x, [None])
        model._backward(acts, np.ones((7, 2)), 0, [])
        expected_w = np.tile(x.sum(axis=0)[:, None], (1, 2))
        np.testing.assert_allclose(model._d_weights[0], expected_w, rtol=1e-12)
        np.testing.assert_allclose(model._d_biases[0], np.full(2, 7.0), rtol=1e-12)

    @pytest.mark.parametrize("dims", [[4, 3], [4, 16, 3], [4, 32, 32, 3], [5, 8, 7, 6, 2]])
    def test_tail_backward_equals_full_on_the_tail(self, dims):
        rng = np.random.default_rng(len(dims))
        model = Mlp.init(dims, seed=9)
        hidden = [None] * (len(dims) - 2)
        _, acts = model._forward(rng.standard_normal((11, dims[0])), [None] * (len(dims) - 1))
        upstream = rng.standard_normal((11, dims[-1]))
        model._backward(acts, upstream, 0, hidden)
        full = model.grad.copy()
        for start in model.offsets[:-1]:
            model.grad[:] = np.nan
            model._backward(acts, upstream, start, hidden)
            assert np.array_equal(model.grad[start:], full[start:])
            assert np.isnan(model.grad[:start]).all()

    @pytest.mark.parametrize("dims", [[4, 16, 3], [5, 8, 7, 6, 2]])
    def test_reused_step_buffers_give_the_bits_of_fresh_arrays(self, dims):
        """train's path: activations and hidden gradients allocated once, then
        written by every step. A second batch through them gives the logits and
        the gradient of a fresh call, bit for bit, from either start train uses."""
        rng = np.random.default_rng(7)
        model = Mlp.init(dims, seed=7)
        rows = 9
        for start in (0, model.offsets[-2]):
            outs = [np.empty((rows, width)) for width in dims[1:]]
            hidden_grads = [np.empty_like(out) if at > start else None
                            for out, at in zip(outs, model.offsets[1:-1])]
            for _ in range(2):
                x = rng.standard_normal((rows, dims[0]))
                upstream = rng.standard_normal((rows, dims[-1]))
                logits, acts = model._forward(x, outs)
                model._backward(acts, upstream, start, hidden_grads)
                reused = logits.copy(), model.grad[start:].copy()
            fresh, acts = model._forward(x, [None] * len(outs))
            model._backward(acts, upstream, start, [None] * len(hidden_grads))
            assert reused[0].tobytes() == fresh.tobytes()
            assert reused[1].tobytes() == model.grad[start:].tobytes()

    def test_layers_are_views_of_one_vector_with_the_output_layer_last(self):
        model = Mlp.init([5, 8, 7, 3], seed=2)
        assert model.offsets == [0, 48, 111, 135]
        assert model.params.size == model.grad.size == 135
        assert np.shares_memory(model.weights[-1], model.params[111:132])
        assert np.shares_memory(model.biases[-1], model.params[132:])
        model.params[:] = 0.0
        assert np.array_equal(model.forward(np.ones((2, 5))), np.zeros((2, 3)))
        copy = model.copy()
        copy.params[:] = 1.0
        assert not model.params.any()

    @pytest.mark.parametrize("dims", [[4, 3], [4, 16, 3], [4, 32, 32, 3]])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_end_to_end_gradient_vs_finite_differences(self, dims, seed):
        rng = np.random.default_rng(seed)
        model = Mlp.init(dims, seed=seed + 50)
        k = dims[-1]
        b_in, b_out = 5, 4
        x = rng.standard_normal((b_in + b_out, dims[0]))
        labels = rng.integers(0, k, b_in)

        logits, acts = model._forward(x, [None] * (len(dims) - 1))
        upstream = loss_and_grad(logits, labels)[1]
        model._backward(acts, upstream, 0, [None] * (len(dims) - 2))

        for layer in range(len(model.weights)):
            for params, grads in ((model.weights, model._d_weights),
                                  (model.biases, model._d_biases)):
                base = params[layer].copy()

                def f(flat, layer=layer, params=params, base=base):
                    params[layer][...] = flat.reshape(base.shape)
                    out = model.forward(x)
                    params[layer][...] = base
                    return loss_and_grad(out, labels)[0].total

                numeric = central_difference(f, base.ravel()).reshape(base.shape)
                assert max_relative_error(grads[layer], numeric) < 1e-4


class TestCosineSchedule:
    def test_endpoints_and_midpoint(self):
        lrs = cosine_schedule(10, 0.3)
        assert len(lrs) == 10
        assert lrs[0] == pytest.approx(0.3)
        assert lrs[5] == pytest.approx(0.15, rel=1e-12)
        assert lrs[-1] > 0.0

    def test_needs_a_step(self):
        with pytest.raises(InvalidInputError, match="total_steps must be >= 1"):
            cosine_schedule(0, 0.1)

    @pytest.mark.parametrize("lr0", [0.1, 0.005, 0.37, 1e-3, 3.0])
    def test_equals_the_per_step_formula_bit_for_bit(self, lr0):
        for total in [*range(1, 301), 3480, 4640]:
            want = [cosine_lr(step, total, lr0) for step in range(total)]
            assert cosine_schedule(total, lr0) == want, total


class TestTrain:
    def test_zero_epochs_leaves_model_unchanged(self):
        x, y, outliers = blob_task(0)
        model = Mlp.init([4, 8, 2], seed=0)
        cfg = TrainConfig(seed=0, epochs_pretrain=0, epochs_finetune=0)
        trained, log = train(model, x, y, outliers, cfg)
        assert log == []
        for w0, w1 in zip(model.weights, trained.weights):
            assert np.array_equal(w0, w1)

    def test_separable_blobs_reach_high_accuracy(self):
        x, y, outliers = blob_task(0)
        model = Mlp.init([4, 8, 2], seed=0)
        cfg = TrainConfig(seed=0, epochs_pretrain=20, epochs_finetune=0,
                          b_in=32, lr_pretrain=0.1)
        trained, _ = train(model, x, y, outliers, cfg)
        acc = (np.argmax(trained.forward(x), axis=1) == y).mean()
        assert acc > 0.95

    def test_finetune_reduces_dne_loss(self):
        x, y, outliers = blob_task(1)
        model = Mlp.init([4, 8, 2], seed=1)
        cfg = TrainConfig(seed=1, epochs_pretrain=10, epochs_finetune=8,
                          b_in=32, b_out=64, lr_finetune=0.05)
        _, log = train(model, x, y, outliers, cfg)
        ft = log[10:]
        first = ft[0].dne_c + ft[0].dne_s
        last = ft[-1].dne_c + ft[-1].dne_s
        assert last < first

    def test_determinism(self):
        x, y, outliers = blob_task(2)
        cfg = TrainConfig(seed=3, epochs_pretrain=5, epochs_finetune=3, b_in=32, b_out=64)
        a, log_a = train(Mlp.init([4, 8, 2], seed=3), x, y, outliers, cfg)
        b, log_b = train(Mlp.init([4, 8, 2], seed=3), x, y, outliers, cfg)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)
        assert log_a == log_b

    def test_default_finetune_touches_only_last_layer(self):
        x, y, outliers = blob_task(3)
        model = Mlp.init([4, 8, 2], seed=4)
        cfg = TrainConfig(seed=4, epochs_pretrain=0, epochs_finetune=2, b_in=32, b_out=64)
        trained, _ = train(model, x, y, outliers, cfg)
        assert np.array_equal(model.weights[0], trained.weights[0])
        assert not np.array_equal(model.weights[1], trained.weights[1])

    def test_each_stage_2_step_calls_nn_loss_and_grad_once_with_the_stage_buffers(
            self, monkeypatch):
        """train looks the loss up as nn.loss_and_grad at each step, so a stand-in
        that ignores the buffers and returns a gradient of its own trains the
        same bits."""
        x, y, outliers = blob_task(0)
        cfg = TrainConfig(seed=0, epochs_pretrain=1, epochs_finetune=2, b_in=32, b_out=64)
        want_model, want_log = train(Mlp.init([4, 8, 2], seed=0), x, y, outliers, cfg)
        calls = []

        def stand_in(logits, labels, bufs):
            calls.append(bufs)
            terms, grad = loss_and_grad(logits, labels)
            return terms, grad.copy()

        monkeypatch.setattr(nn, "loss_and_grad", stand_in)
        model, log = train(Mlp.init([4, 8, 2], seed=0), x, y, outliers, cfg)
        assert model.params.tobytes() == want_model.params.tobytes() and log == want_log
        assert len(calls) == 2 * (len(x) // 32)
        assert all(bufs is calls[0] for bufs in calls) and calls[0].shape == (96, 2)

    @pytest.mark.parametrize("field, value", [("b_in", 0), ("b_in", -3), ("b_out", 0)])
    def test_batch_sizes_below_one_are_rejected(self, field, value):
        with pytest.raises(InvalidInputError, match=f"^{field} must be >= 1, got {value}$"):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("epochs_pretrain", 1.5), ("epochs_finetune", "2"), ("b_in", 2.5), ("b_out", 4.0),
        ("seed", 1.5), ("seed", None), ("b_in", True)])
    def test_counts_and_seed_must_be_integers(self, field, value):
        with pytest.raises(InvalidInputError, match=f"^{field} must be an integer, got "):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("field", ["lr_pretrain", "lr_finetune", "momentum"])
    @pytest.mark.parametrize("value", ["0.1", None, True])
    def test_rates_and_momentum_must_be_real_numbers(self, field, value):
        with pytest.raises(InvalidInputError,
                           match=f"^{field} must be a real number, got {value!r}$"):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("field", ["lr_pretrain", "lr_finetune", "momentum"])
    def test_rates_and_momentum_must_fit_a_float(self, field):
        with pytest.raises(InvalidInputError, match=f"^{field} is too large for a float$"):
            TrainConfig(**{field: 10**400})

    def test_a_negative_seed_is_rejected(self):
        with pytest.raises(InvalidInputError, match="^seed must be >= 0, got -1$"):
            TrainConfig(seed=-1)

    def test_numpy_integers_are_integers(self):
        """They are stored as ints: 20 epochs of 15 steps as np.uint8 once wrapped
        to a 44-step schedule, and training ended in a bare IndexError."""
        cfg = TrainConfig(seed=np.int64(2), b_in=np.int32(8), epochs_pretrain=np.uint8(20),
                          epochs_finetune=np.uint8(0))
        assert {type(getattr(cfg, f.name)) for f in dataclasses.fields(cfg)} == {int, float}
        x, y, outliers = blob_task(0)
        assert len(train(Mlp.init([4, 8, 2], seed=0), x, y, outliers, cfg)[1]) == 20

    def test_parameters_stay_finite(self):
        x, y, outliers = blob_task(4)
        model = Mlp.init([4, 8, 2], seed=5)
        cfg = TrainConfig(seed=5, epochs_pretrain=15, epochs_finetune=10, b_in=32, b_out=64)
        trained, _ = train(model, x, y, outliers, cfg)
        for w in trained.weights + trained.biases:
            assert np.isfinite(w).all()


class TestTrainEqualsPerLayerLoop:
    """nn.train on one flat vector runs the float ops of the per-layer loop in
    tests/oracles.py, so parameters and loss log agree bit for bit."""

    @pytest.mark.parametrize("dims, settings", [
        pytest.param([4, 8, 2], {}, id="2-layer"),
        pytest.param([4, 8, 6, 2], {}, id="3-layer"),
        pytest.param([4, 8, 6, 2], {"epochs_finetune": 0}, id="ce-only"),
        pytest.param([4, 8, 2], {"b_in": 500, "b_out": 500}, id="batches-above-row-count"),
        pytest.param([4, 8, 6, 2], {"b_in": 1, "b_out": 3}, id="b_in-1"),
    ])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_bit_identical(self, dims, settings, seed):
        x, y, outliers = blob_task(seed)
        model = Mlp.init(dims, seed=seed)
        cfg = TrainConfig(**{"seed": seed, "epochs_pretrain": 4, "epochs_finetune": 3,
                             "b_in": 32, "b_out": 64, "lr_finetune": 0.05, **settings})
        trained, log = train(model, x, y, outliers, cfg)
        weights, biases, want_log = per_layer_train(model.weights, model.biases, x, y,
                                                    outliers, cfg)
        for got, want in zip(trained.weights + trained.biases, weights + biases, strict=True):
            assert got.tobytes() == want.tobytes()
        assert [(b.total, b.ce, b.dne_c, b.dne_s) for b in log] == want_log

    def test_bench_shaped_run(self):
        """The benchmark's shapes: 745 ID rows, k=10, hidden 32, default config
        (440 steps, 11 batches per epoch with 41 rows left over)."""
        _, sets = cli.benchmark_datasets(0)
        id_train, outliers = sets[data.ID_TRAIN], sets[data.OUTLIER].features
        x, y = id_train.features, id_train.labels
        model = Mlp.init([x.shape[1], 32, 10], seed=0)
        cfg = TrainConfig()
        trained, log = train(model, x, y, outliers, cfg)
        assert len(log) == 40 and x.shape[0] == 745
        assert_same_run(trained, log, per_layer_train(model.weights, model.biases, x, y,
                                                      outliers, cfg))

    def test_runs_in_turn_share_no_buffer_state(self):
        """One Mlp trained twice, then with other batch sizes, in one process:
        each run equals the per-layer loop, whatever ran before it."""
        x, y, outliers = blob_task(1)
        model = Mlp.init([4, 8, 6, 2], seed=1)
        for b_in, b_out in [(32, 64), (32, 64), (16, 40), (24, 8)]:
            cfg = TrainConfig(seed=1, epochs_pretrain=2, epochs_finetune=2, b_in=b_in,
                              b_out=b_out, lr_finetune=0.05)
            trained, log = train(model, x, y, outliers, cfg)
            assert_same_run(trained, log, per_layer_train(model.weights, model.biases, x, y,
                                                          outliers, cfg))

    def test_net_without_hidden_layer(self):
        """[4, 2]: the output layer is the whole vector, so stage 2 trains all of it."""
        x, y, outliers = blob_task(5)
        model = Mlp.init([4, 2], seed=5)
        cfg = TrainConfig(seed=5, epochs_pretrain=3, epochs_finetune=3, b_in=32, b_out=64,
                          lr_finetune=0.05)
        trained, log = train(model, x, y, outliers, cfg)
        assert model.offsets[-2] == 0
        assert_same_run(trained, log, per_layer_train(model.weights, model.biases, x, y,
                                                      outliers, cfg))


def assert_same_run(trained, log, oracle_run):
    weights, biases, want_log = oracle_run
    for got, want in zip(trained.weights + trained.biases, weights + biases, strict=True):
        assert got.tobytes() == want.tobytes()
    assert [(b.total, b.ce, b.dne_c, b.dne_s) for b in log] == want_log


class TestDivergence:
    """A diverging run warns nothing (pytest turns warnings into errors) and
    stops in NumericError at the step the per-layer loop stops at."""

    @pytest.mark.parametrize("settings, scale, step, message", [
        pytest.param({"lr_pretrain": 1e300}, 1.0, 1, "non-finite loss", id="stage-1-lr"),
        pytest.param({"epochs_pretrain": 2, "lr_finetune": 1e308}, 1.0, 1, "non-finite logits",
                     id="stage-2-lr"),
        pytest.param({"epochs_pretrain": 0}, 1e307, 0, "non-finite loss",
                     id="stage-2-output-near-float-max"),
        pytest.param({"lr_pretrain": 1e308}, 1.0, 0, "non-finite parameters",
                     id="stage-1-parameters"),
        pytest.param({"epochs_pretrain": 0, "lr_finetune": 1e308}, 1e3, 0,
                     "non-finite parameters", id="stage-2-parameters"),
    ])
    def test_stops_at_the_step_of_the_per_layer_loop(self, settings, scale, step, message):
        x, y, outliers = blob_task(0)
        model = Mlp.init([4, 8, 2], seed=0)
        model.weights[-1][...] *= scale
        cfg = TrainConfig(seed=0, b_in=32, **settings)
        with pytest.raises(NumericError, match=f"{message} at step {step}$"):
            train(model, x, y, outliers, cfg)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(Diverged) as want:
            per_layer_train(model.weights, model.biases, x, y, outliers, cfg)
        assert want.value.step == step


class TestTrainInputs:
    @pytest.mark.parametrize("labels, row, value", [
        pytest.param([0] * 119 + [2], 119, "2", id="above-k"),
        pytest.param([0, -1] + [1] * 118, 1, "-1", id="negative"),
        pytest.param([0.0, 1.0, 0.5] + [1.0] * 117, 2, "0.5", id="fractional"),
        pytest.param([0.0] * 5 + [np.nan] * 115, 5, "nan", id="nan"),
    ])
    def test_bad_label_names_its_row_before_training(self, labels, row, value):
        x, _, outliers = blob_task(0)
        with pytest.raises(InvalidInputError,
                           match=rf"label {value} at row {row} is not an integer in \[0, 2\)"):
            train(Mlp.init([4, 8, 2], seed=0), x, labels, outliers, TrainConfig())

    def test_label_count_must_match_rows(self):
        x, y, outliers = blob_task(0)
        with pytest.raises(InvalidInputError, match="id_x and id_y lengths differ"):
            train(Mlp.init([4, 8, 2], seed=0), x, y[:-1], outliers, TrainConfig())

    @pytest.mark.parametrize("id_x", [np.float64(1.0), 1.0, np.array(2.0)],
                             ids=["numpy-scalar", "float", "0-d"])
    def test_a_scalar_id_x_is_rejected_before_training(self, id_x):
        with pytest.raises(InvalidInputError,
                           match=r"^id_x has shape \(\): training needs rows of samples$"):
            train(Mlp.init([4, 8, 2], 0), id_x, [0], np.ones((5, 4)),
                  TrainConfig(epochs_pretrain=1, epochs_finetune=0))

    def test_no_id_rows_is_rejected_before_training(self):
        with pytest.raises(InvalidInputError, match="id_x holds no rows"):
            train(Mlp.init([4, 8, 2], 0), np.empty((0, 4)), [], np.ones((5, 4)), TrainConfig())

    def test_finetuning_a_one_class_net_is_rejected_before_training(self):
        x, _, outliers = blob_task(0)
        with pytest.raises(InvalidInputError, match="fine-tuning needs k >= 2 classes, got k=1"):
            train(Mlp.init([4, 8, 1], seed=0), x, np.zeros(120, int), outliers, TrainConfig())

    @pytest.mark.parametrize("limit", [239, 240])
    def test_forward_checks_the_activation_count(self, monkeypatch, limit):
        # stage 1 forwards 8 rows, stage 2 8 + 16: 24 rows of 8 + 2 activations
        x, y, outliers = blob_task(0)
        monkeypatch.setattr(nn, "MAX_ACTIVATIONS", limit)
        cfg = TrainConfig(epochs_pretrain=1, epochs_finetune=1, b_in=8, b_out=16)
        if limit == 240:
            train(Mlp.init([4, 8, 2], seed=0), x, y, outliers, cfg)
            return
        with pytest.raises(InvalidInputError, match=re.escape(
                "24 rows through layers of widths [8, 2] make 240 activation values, more than "
                "MAX_ACTIVATIONS=239")):
            train(Mlp.init([4, 8, 2], seed=0), x, y, outliers, cfg)

    def test_a_stage_2_batch_over_max_activations_is_refused_before_any_step(
            self, monkeypatch):
        x, y, outliers = blob_task(0)
        monkeypatch.setattr(nn, "MAX_ACTIVATIONS", 239)  # stage 1 needs 80, stage 2 240
        steps = []
        monkeypatch.setattr(nn, "_sgd_step", lambda *args: steps.append(args[-1]))
        cfg = TrainConfig(epochs_pretrain=1, epochs_finetune=1, b_in=8, b_out=16)
        with pytest.raises(InvalidInputError, match="24 rows through layers of widths"):
            train(Mlp.init([4, 8, 2], seed=0), x, y, outliers, cfg)
        assert steps == []

    @pytest.mark.parametrize("outliers", [
        pytest.param(np.ones((30, 5)), id="wider-rows"),
        pytest.param(np.ones(30), id="1-D"),
        pytest.param(np.float64(1.0), id="scalar"),
        pytest.param(np.ones((0, 4)), id="no-rows"),
    ])
    def test_outlier_rows_must_match_the_id_rows_before_any_step(self, monkeypatch, outliers):
        x, y, _ = blob_task(0)
        steps = []
        monkeypatch.setattr(nn, "_sgd_step", lambda *args: steps.append(args[-1]))
        cfg = TrainConfig(epochs_pretrain=1, epochs_finetune=1, b_in=8, b_out=8)
        with pytest.raises(InvalidInputError, match=re.escape(
                "fine-tuning needs outlier rows shaped as the ID rows: id_x has shape (120, 4), "
                f"outlier_x {np.shape(outliers)}")):
            train(Mlp.init([4, 8, 2], seed=0), x, y, outliers, cfg)
        assert steps == []

    @pytest.mark.parametrize("where, value", [
        pytest.param("id_x", np.nan, id="id-nan"),
        pytest.param("id_x", -np.inf, id="id-inf"),
        pytest.param("outlier_x", np.nan, id="outlier-nan"),
        pytest.param("outlier_x", np.inf, id="outlier-inf"),
    ])
    def test_a_non_finite_input_names_its_set_and_row_before_any_step(
            self, monkeypatch, where, value):
        """These once ran until the first step's loss or logits turned
        non-finite and ended in NumericError, the class of a diverged run."""
        x, y, outliers = blob_task(0)
        sets = {"id_x": x, "outlier_x": outliers}
        sets[where][7, 2] = value
        steps = []
        monkeypatch.setattr(nn, "_sgd_step", lambda *args: steps.append(args[-1]))
        with pytest.raises(InvalidInputError, match=f"^{where} row 7 holds a non-finite value$"):
            train(Mlp.init([4, 8, 2], seed=0), x, y, outliers, TrainConfig(b_in=8, b_out=8))
        assert steps == []

    def test_outliers_go_unread_without_finetuning(self):
        x, y, _ = blob_task(0)
        cfg = TrainConfig(epochs_pretrain=1, epochs_finetune=0, b_in=8)
        for outliers in (np.ones((30, 5)), np.float64(1.0), np.full((30, 4), np.nan)):
            train(Mlp.init([4, 8, 2], seed=0), x, y, outliers, cfg)

    @pytest.mark.parametrize("stage", ["epochs_pretrain", "epochs_finetune"])
    @pytest.mark.parametrize("limit", [29, 30])
    def test_a_stage_of_more_than_max_steps_is_refused_before_any_allocation(
            self, monkeypatch, stage, limit):
        # 120 rows in batches of 8: 15 steps an epoch, 30 in two epochs
        x, y, outliers = blob_task(0)
        monkeypatch.setattr(nn, "MAX_STEPS", limit)
        cfg = TrainConfig(**{"epochs_pretrain": 1, "epochs_finetune": 1, stage: 2}, b_in=8)
        if limit == 30:
            train(Mlp.init([4, 8, 2], seed=0), x, y, outliers, cfg)
            return

        def refuse(*args):
            raise AssertionError("training allocated before its step count was checked")

        monkeypatch.setattr(nn, "cosine_schedule", refuse)
        monkeypatch.setattr(Mlp, "copy", refuse)
        with pytest.raises(InvalidInputError, match=re.escape(
                f"{stage}=2 epochs of 15 steps exceed MAX_STEPS=29")):
            train(Mlp.init([4, 8, 2], seed=0), x, y, outliers, cfg)


class TestCheckpoint:
    def test_round_trip_is_exact(self, tmp_path):
        model = Mlp.init([5, 9, 3], seed=6)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, model)
        loaded = load_checkpoint(path)
        assert loaded.layer_dims == model.layer_dims
        assert loaded.params.tobytes() == model.params.tobytes()

    def test_the_file_holds_exactly_layer_dims_and_params_in_the_vector_layout(self, tmp_path):
        model = Mlp.init([3, 4, 2], seed=7)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, model)
        payload = json.loads(path.read_text())
        assert list(payload) == ["layer_dims", "params"]
        assert payload["layer_dims"] == [3, 4, 2]
        layers = [a.ravel() for w, b in zip(model.weights, model.biases) for a in (w, b)]
        assert payload["params"] == np.concatenate(layers).tolist()  # each W row-major, then b

    def test_byte_identical_rewrites(self, tmp_path):
        model = Mlp.init([3, 4, 2], seed=7)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_checkpoint(p1, model)
        save_checkpoint(p2, model)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("edit, key", [
        pytest.param(lambda c: c.pop("params"), "params", id="missing-params"),
        pytest.param(lambda c: c.update(layer_dims="x"), "layer_dims", id="bad-dims"),
        pytest.param(lambda c: c.update(layer_dims=5), "layer_dims", id="scalar-dims"),
        pytest.param(lambda c: c.update(layer_dims=[3]), "layer_dims", id="too-few-dims"),
        # the rule of Mlp.init, with parameters that match the sizes
        pytest.param(lambda c: c.update(layer_dims=[3], params=[]), "layer_dims",
                     id="one-size-no-layers"),
        pytest.param(lambda c: c.update(layer_dims=[], params=[]), "layer_dims", id="no-sizes"),
        pytest.param(lambda c: c.update(layer_dims=[3, 0, 2], params=[0.0, 0.0]), "layer_dims",
                     id="zero-width"),
        pytest.param(lambda c: c.update(layer_dims=[3.5, 4, 2]), "layer_dims",
                     id="fractional-size"),  # once loaded as [3, 4, 2]
        pytest.param(lambda c: c.update(layer_dims=[3, 4, True], params=[0.0] * 21),
                     "layer_dims", id="bool-size"),  # once loaded as [3, 4, 1]
        pytest.param(lambda c: c.update(layer_dims=[3, 5, 2]), "params", id="wider-dims"),
        pytest.param(lambda c: c["params"].pop(), "params", id="short-params"),
        pytest.param(lambda c: c["params"].append(0.0), "params", id="long-params"),
        pytest.param(lambda c: c.update(params=[c["params"]]), "params", id="nested-params"),
        pytest.param(lambda c: c.update(params="x"), "params", id="text-params"),
        pytest.param(lambda c: c.update(params={"a": 1.0}), "params", id="object-params"),
        pytest.param(lambda c: c["params"].__setitem__(0, None), "params", id="null-param"),
        pytest.param(lambda c: c["params"].__setitem__(3, math.nan), "params", id="nan-param"),
        pytest.param(lambda c: c["params"].__setitem__(-1, -math.inf), "params",
                     id="inf-param"),
        pytest.param(lambda c: c["params"].__setitem__(-1, 10**400), "params",
                     id="param-beyond-float64"),  # escaped as a bare OverflowError
    ])
    def test_malformed_checkpoint_names_path_and_key(self, tmp_path, edit, key):
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, Mlp.init([3, 4, 2], seed=7))
        payload = json.loads(path.read_text())
        edit(payload)
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match=f"{path}.*'{key}'"):
            load_checkpoint(path)

    @pytest.mark.parametrize("text", ["{not json", "[8, 10]", "\xff",
                                      pytest.param("[" * 1000, id="nested-too-deep")])
    def test_non_object_checkpoint(self, tmp_path, text):
        path = tmp_path / "ckpt.json"
        path.write_text(text, encoding="latin-1")
        with pytest.raises(DataError, match=str(path)):
            load_checkpoint(path)
