import json
import re
import tracemalloc

import numpy as np
import pytest

from adaptod import cli, data, nn
from adaptod.dne import loss_and_grad
from adaptod.errors import InvalidInputError, LogitFileError, ShapeError, TrainingDivergedError
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
        with pytest.raises(ShapeError):
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
    @pytest.mark.parametrize("weights, biases, message", [
        pytest.param([(3, 2), (3, 1)], [(3,), (1,)],
                     r"layer 0: expected W \(2, 3\) and b \(3,\), got W \(3, 2\) and b \(3,\)",
                     id="transposed-weight"),
        pytest.param([(2, 3), (3, 1)], [(4,), (1,)],
                     r"layer 0: expected W \(2, 3\) and b \(3,\), got W \(2, 3\) and b \(4,\)",
                     id="long-bias"),
        pytest.param([(2, 3), (3, 1)], [(3,), (2,)],
                     r"layer 1: expected W \(3, 1\) and b \(1,\), got W \(3, 1\) and b \(2,\)",
                     id="long-output-bias"),
        pytest.param([(2, 3)], [(3,)],
                     r"layer 1: expected W \(3, 1\) and b \(1,\), got W \(\) and b \(\)",
                     id="missing-layer"),
        pytest.param([(2, 3), (3, 1), (1, 1)], [(3,), (1,)],
                     r"layer 2: expected W \(None, None\) and b \(None,\), got W \(1, 1\)",
                     id="extra-weight"),
    ])
    def test_arrays_that_do_not_fit_layer_dims_are_rejected(self, weights, biases, message):
        with pytest.raises(ShapeError, match=message):
            Mlp([2, 3, 1], [np.zeros(s) for s in weights], [np.zeros(s) for s in biases])


class TestBackward:
    def test_zero_upstream_gives_zero_grads(self):
        model = Mlp.init([4, 5, 3], seed=3)
        _, acts = model.forward_cached(np.ones((6, 4)))
        d_ws, d_bs = model.backward(acts, np.zeros((6, 3)))
        assert all(np.all(g == 0) for g in d_ws)
        assert all(np.all(g == 0) for g in d_bs)

    def test_linear_layer_sum_loss(self):
        # L = sum of logits for a single linear layer: dL/dW[i][j] = sum_n x[n][i]
        model = Mlp.init([3, 2], seed=4)
        x = np.random.default_rng(5).standard_normal((7, 3))
        _, acts = model.forward_cached(x)
        d_ws, d_bs = model.backward(acts, np.ones((7, 2)))
        expected_w = np.tile(x.sum(axis=0)[:, None], (1, 2))
        np.testing.assert_allclose(d_ws[0], expected_w, rtol=1e-12)
        np.testing.assert_allclose(d_bs[0], np.full(2, 7.0), rtol=1e-12)

    @pytest.mark.parametrize("dims", [[4, 3], [4, 16, 3], [4, 32, 32, 3], [5, 8, 7, 6, 2]])
    def test_tail_backward_equals_full_on_the_tail(self, dims):
        rng = np.random.default_rng(len(dims))
        model = Mlp.init(dims, seed=9)
        _, acts = model.forward_cached(rng.standard_normal((11, dims[0])))
        upstream = rng.standard_normal((11, dims[-1]))
        model.backward(acts, upstream)
        full = model.grad.copy()
        for start in model.offsets[:-1]:
            model.grad[:] = np.nan
            model.backward(acts, upstream, start)
            assert np.array_equal(model.grad[start:], full[start:])
            assert np.isnan(model.grad[:start]).all()

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

    @pytest.mark.parametrize("start", [1, 47, 135])
    def test_tail_must_start_at_a_layer(self, start):
        model = Mlp.init([5, 8, 7, 3], seed=2)
        _, acts = model.forward_cached(np.ones((2, 5)))
        with pytest.raises(InvalidInputError, match=f"start {start} is not where a layer begins"):
            model.backward(acts, np.ones((2, 3)), start)

    @pytest.mark.parametrize("dims", [[4, 3], [4, 16, 3], [4, 32, 32, 3]])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_end_to_end_gradient_vs_finite_differences(self, dims, seed):
        rng = np.random.default_rng(seed)
        model = Mlp.init(dims, seed=seed + 50)
        k = dims[-1]
        b_in, b_out = 5, 4
        x = rng.standard_normal((b_in + b_out, dims[0]))
        labels = rng.integers(0, k, b_in)

        logits, acts = model.forward_cached(x)
        upstream = loss_and_grad(logits, labels)[1]
        d_ws, d_bs = model.backward(acts, upstream)

        for layer in range(model.n_layers):
            for params, grads in ((model.weights, d_ws), (model.biases, d_bs)):
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

    def test_finetune_all_layers_touches_every_layer(self):
        x, y, outliers = blob_task(3)
        model = Mlp.init([4, 8, 2], seed=4)
        cfg = TrainConfig(seed=4, epochs_pretrain=0, epochs_finetune=2, b_in=32, b_out=64,
                          finetune_all_layers=True)
        trained, _ = train(model, x, y, outliers, cfg)
        for before, after in zip(model.weights, trained.weights):
            assert not np.array_equal(before, after)

    @pytest.mark.parametrize("field, value", [("b_in", 0), ("b_in", -3), ("b_out", 0)])
    def test_batch_sizes_below_one_are_rejected(self, field, value):
        with pytest.raises(InvalidInputError, match=f"{field}={value}"):
            TrainConfig(**{field: value})

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
        pytest.param([4, 8, 2], {"finetune_all_layers": True}, id="2-layer-all"),
        pytest.param([4, 8, 6, 2], {"finetune_all_layers": True}, id="3-layer-all"),
        pytest.param([4, 8, 6, 2], {"epochs_finetune": 0}, id="ce-only"),
        pytest.param([4, 8, 2], {"b_in": 500, "b_out": 500}, id="batches-above-row-count"),
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
    stops in TrainingDivergedError at the step the per-layer loop stops at."""

    @pytest.mark.parametrize("settings, scale, step, message", [
        pytest.param({"lr_pretrain": 1e300}, 1.0, 1, "non-finite loss", id="stage-1-lr"),
        pytest.param({"epochs_pretrain": 2, "lr_finetune": 1e308}, 1.0, 1, "non-finite logits",
                     id="stage-2-lr"),
        pytest.param({"epochs_pretrain": 2, "lr_finetune": 1e300, "finetune_all_layers": True},
                     1.0, 1, "non-finite logits", id="stage-2-lr-all-layers"),
        pytest.param({"epochs_pretrain": 0}, 1e307, 0, "non-finite loss",
                     id="stage-2-output-near-float-max"),
    ])
    def test_stops_at_the_step_of_the_per_layer_loop(self, settings, scale, step, message):
        x, y, outliers = blob_task(0)
        model = Mlp.init([4, 8, 2], seed=0)
        model.weights[-1][...] *= scale
        cfg = TrainConfig(seed=0, b_in=32, **settings)
        with pytest.raises(TrainingDivergedError, match=f"{message} at step {step}$") as exc:
            train(model, x, y, outliers, cfg)
        assert exc.value.step == step
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
        save_checkpoint(path, model, seed=6, stage="pretrain")
        loaded, seed, stage = load_checkpoint(path)
        assert (seed, stage) == (6, "pretrain")
        assert loaded.layer_dims == model.layer_dims
        for a, b in zip(model.weights + model.biases, loaded.weights + loaded.biases):
            assert np.array_equal(a, b)

    def test_byte_identical_rewrites(self, tmp_path):
        model = Mlp.init([3, 4, 2], seed=7)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_checkpoint(p1, model, seed=7, stage="finetune")
        save_checkpoint(p2, model, seed=7, stage="finetune")
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("edit, key", [
        pytest.param(lambda c: c.pop("weights"), "weights", id="missing-weights"),
        pytest.param(lambda c: c.pop("seed"), "seed", id="missing-seed"),
        pytest.param(lambda c: c.update(layer_dims="x"), "layer_dims", id="bad-dims"),
        pytest.param(lambda c: c.update(layer_dims=[3]), "weights", id="too-few-dims"),
        pytest.param(lambda c: c.update(layer_dims=[3, 5, 2]), "weights", id="wider-dims"),
        pytest.param(lambda c: c["weights"].pop(), "weights", id="missing-layer"),
        pytest.param(lambda c: c["biases"][1].append(0.0), "biases", id="long-bias"),
        pytest.param(lambda c: c["weights"][0].__setitem__(0, None), "weights", id="null-weight"),
        pytest.param(lambda c: c.update(seed="six"), "seed", id="bad-seed"),
        pytest.param(lambda c: c["biases"][0].__setitem__(0, 10**400), "biases",
                     id="bias-beyond-float64"),  # escaped as a bare OverflowError
    ])
    def test_malformed_checkpoint_names_path_and_key(self, tmp_path, edit, key):
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, Mlp.init([3, 4, 2], seed=7), seed=7, stage="finetune")
        payload = json.loads(path.read_text())
        edit(payload)
        path.write_text(json.dumps(payload))
        with pytest.raises(LogitFileError, match=f"{path}.*'{key}'"):
            load_checkpoint(path)

    @pytest.mark.parametrize("text", ["{not json", "[8, 10]", "\xff"])
    def test_non_object_checkpoint(self, tmp_path, text):
        path = tmp_path / "ckpt.json"
        path.write_text(text, encoding="latin-1")
        with pytest.raises(LogitFileError, match=str(path)):
            load_checkpoint(path)
