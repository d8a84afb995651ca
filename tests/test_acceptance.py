"""Acceptance suite: the load-bearing guarantees of the package, checked
end to end.

Each test covers one guarantee: bulk normalization invariants, analytic
gradients against finite differences, exact agreement of the ranking metrics
with brute-force oracles, the streaming update's closed form, the
zero-calibration reduction, seed-averaged direction checks on the synthetic
benchmark, the margin defaults, and byte-level determinism of the pipeline.
"""

import json

import numpy as np
import pytest

from adaptod import cli, data, dne, doda, metrics, nn
from adaptod.doda import global_energies
from adaptod.energy import batch_energy_normalize

from oracles import (
    central_difference,
    default_margins,
    max_relative_error,
    pair_count_auroc,
    prefusion_total_loss,
    prefusion_total_loss_grad,
    rank_walk_ap,
    running_mean_closed_form,
    threshold_scan_fpr,
)


def test_normalization_invariants_over_random_batches():
    """Every column of the normalized batch sums to 1 and the total mass is k,
    across 1000 random batch shapes up to k=64 and 4096 rows."""
    rng = np.random.default_rng(20240501)
    for trial in range(1000):
        k = int(rng.integers(2, 65))
        if trial % 100 == 0:
            b_in = int(rng.integers(1, 2049))
            b_out = int(rng.integers(1, 4097 - b_in))
        else:
            b_in = int(rng.integers(1, 65))
            b_out = int(rng.integers(1, 65))
        scale = float(rng.uniform(0.5, 30.0))
        batch = np.vstack(
            [rng.normal(0.0, scale, (b_in, k)), rng.normal(0.0, scale, (b_out, k))]
        )
        norm = batch_energy_normalize(batch)
        col_sums = norm.sum(axis=0)
        assert np.abs(col_sums - 1.0).max() < 1e-9
        assert abs(norm.sum() - k) < 1e-9


def _kink_distance(model, id_x, out_x):
    """Distance of the case from the nearest non-smooth point: the smallest
    absolute hidden pre-activation and the smallest hinge slack. Finite
    differences are only a valid oracle away from these kinks."""
    x = np.vstack([id_x, out_x])
    dist = np.inf
    act = x
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = act @ w + b
        if i < len(model.weights) - 1:
            dist = min(dist, float(np.abs(z).min()))
            act = np.maximum(z, 0.0)
        else:
            act = z
    b_in = id_x.shape[0]
    m_in_c, m_out_c, m_in_s, m_out_s = default_margins(act.shape[1], b_in)
    norm = batch_energy_normalize(act)
    c_in = norm[:b_in].sum(axis=0)
    c_out = norm[b_in:].sum(axis=0)
    s = norm.sum(axis=1)
    slacks = np.concatenate([
        np.abs(m_in_c - c_in), np.abs(c_out - m_out_c),
        np.abs(m_in_s - s[:b_in]), np.abs(s[b_in:] - m_out_s),
    ])
    return min(dist, float(slacks.min()))


def test_loss_gradients_match_finite_differences():
    """Analytic end-to-end gradients of the training loss agree with central
    finite differences to better than 1e-4 relative, over 50 cases spread
    across three architectures. Cases landing within finite-difference reach
    of a ReLU or hinge kink are redrawn, since the numeric oracle is only
    defined where the loss is smooth."""
    archs = [[4, 3], [4, 16, 3], [6, 8, 8, 4]]
    case = 0
    worst = 0.0
    for ai, dims in enumerate(archs):
        n_cases = 17 if ai < 2 else 16
        draw = 0
        done = 0
        while done < n_cases:
            rng = np.random.default_rng(1000 * ai + draw)
            draw += 1
            model = nn.Mlp.init(dims, seed=int(rng.integers(1 << 20)))
            k = dims[-1]
            b_in = int(rng.integers(3, 7))
            b_out = int(rng.integers(4, 9))
            id_x = rng.normal(0.0, 1.0, (b_in, dims[0]))
            out_x = rng.normal(0.0, 1.0, (b_out, dims[0]))
            labels = rng.integers(0, k, b_in)
            if _kink_distance(model, id_x, out_x) < 1e-2:
                continue

            def loss_of(params):
                m = nn.Mlp(list(model.layer_dims), params)
                batch = np.vstack([m.forward(id_x), m.forward(out_x)])
                return dne.loss_and_grad(batch, labels)[0].total

            logits, acts = model._forward(np.vstack([id_x, out_x]), [None] * len(dims[1:]))
            upstream = dne.loss_and_grad(logits, labels)[1]
            model._backward(acts, upstream, 0, [None] * len(dims[1:-1]))
            numeric = central_difference(loss_of, model.params)
            err = max_relative_error(model.grad, numeric, floor=1e-4)
            worst = max(worst, err)
            case += 1
            done += 1
    assert case == 50
    assert worst < 1e-4


def test_metrics_equal_bruteforce_oracles_exactly():
    """AUROC, both average precisions, and FPR at 95% TPR match their
    brute-force oracles exactly on 200 random score sets, half tie-heavy."""
    rng = np.random.default_rng(7)
    for trial in range(200):
        n_id = int(rng.integers(2, 101))
        n_ood = int(rng.integers(2, 101))
        if trial % 2 == 0:
            id_scores = rng.normal(0.0, 1.0, n_id)
            ood_scores = rng.normal(-0.5, 1.0, n_ood)
        else:
            id_scores = rng.integers(0, 6, n_id).astype(float)
            ood_scores = rng.integers(0, 6, n_ood).astype(float)
        scores = np.concatenate([id_scores, ood_scores])
        is_id = np.concatenate([np.ones(n_id, bool), np.zeros(n_ood, bool)])

        classes = np.zeros(n_id, int)
        report = metrics.metric_report(scores, is_id, classes, classes)

        assert report.auroc == pair_count_auroc(id_scores, ood_scores)
        assert report.ap_in == rank_walk_ap(scores, is_id)
        assert report.ap_out == rank_walk_ap(-scores, ~is_id)
        assert report.fpr_at_95tpr == threshold_scan_fpr(id_scores, ood_scores, 0.95)


def test_streaming_update_matches_closed_form():
    """The adapted outlier distribution equals the weighted-mean closed form on
    100 random streams; rejected samples leave the state object untouched and
    every sample produces exactly one event."""
    for trial in range(100):
        rng = np.random.default_rng(trial)
        k = int(rng.integers(2, 9))
        length = int(rng.integers(30, 81))
        stream = rng.normal(0.0, 2.0, (length, k))
        state0 = doda.init_outlier_distribution(
            rng.normal(0.0, 1.0, (int(rng.integers(1, 20)), k)),
            virtual_count=int(rng.integers(0, 4)),
        )
        energies = global_energies(stream)
        # put the threshold mid-distribution so both branches are exercised
        mu = float(np.median(energies))
        stats = doda.EnergyStats(mu, abs(mu) * 0.1 + 0.1, alpha=1.0)

        scores, events, final_state = doda.run_stream(
            state0, stats, stream, record_events=True)
        assert len(events) == len(scores) == length

        accepted_rows = [np.exp(stream[ev.sample_index])
                         for ev in events if ev.accepted]
        expected = running_mean_closed_form(state0.values, state0.m, accepted_rows)
        denom = np.maximum(np.abs(expected), 1e-300)
        assert (np.abs(final_state.values - expected) / denom).max() < 1e-9
        assert final_state.m == state0.m + len(accepted_rows)

        # replay one rejected sample: the state object must come back as-is
        rejected = [ev for ev in events if not ev.accepted]
        if rejected:
            row = stream[rejected[0].sample_index]
            same_state, _, _ = doda.adapt_and_score(state0, stats, row)
            assert same_state is state0


def test_zero_calibration_reduces_to_global_energy():
    """With an all-zero outlier distribution, the calibrated scores of a frozen
    stream and of one-row steps that accept nothing reproduce the plain energies
    to 1e-12 relative and yield an identical metric report."""
    rng = np.random.default_rng(11)
    k = 10
    logits = rng.normal(0.0, 3.0, (200, k))
    zeros = doda.OutlierDistribution(values=np.zeros(k), m=1)
    raw = global_energies(logits)
    _, ((scores, _, _),) = doda.run_plans(zeros, logits, [(0.0, -np.inf)])
    cal = np.asarray(scores)
    assert (np.abs(cal - raw) / np.abs(raw)).max() <= 1e-12
    rejecting = doda.EnergyStats(0.0, 0.0)  # R = 0 and every G > 0: nothing is accepted
    one_row = [doda.adapt_and_score(zeros, rejecting, row, i)[1] for i, row in enumerate(logits)]
    assert one_row == scores

    is_id = rng.random(200) < 0.5
    classes = logits.argmax(axis=1)[is_id]
    rep_raw = metrics.metric_report(raw, is_id, classes, classes)
    rep_cal = metrics.metric_report(cal, is_id, classes, classes)
    assert rep_raw == rep_cal


BENCHMARK_VIRTUAL_COUNT = 64


def desk_benchmark(seed: int, oracle_fractions):
    """One seed of the default synthetic long-tailed benchmark.

    Trains a CE-only model and a DNE fine-tuned model from the same
    initialization, then evaluates all adaptation modes and the head/tail
    split. The streaming modes use a large virtual count so the adapted
    distribution blends gradually from its initialization toward the test
    outlier statistics as more samples are accepted.
    """
    _, datasets = cli.benchmark_datasets(seed)
    ce_model, _ = cli.train_models(datasets, nn.TrainConfig(seed=seed, epochs_finetune=0),
                                   cli.DEFAULT_HIDDEN)
    dne_model, _ = cli.train_models(datasets, nn.TrainConfig(seed=seed), cli.DEFAULT_HIDDEN)

    prepared = {name: cli.prepare(model, datasets, virtual_count=BENCHMARK_VIRTUAL_COUNT)
                for name, model in (("ce", ce_model), ("dne", dne_model))}
    stats, p0, logit_sets = prepared["dne"]
    stream = cli.build_stream(logit_sets[data.ID_TEST], logit_sets[data.TRUE_OOD], 0.5, seed)
    modes = cli.mode_plans(stats.r)
    plans = modes | {f"sweep_{f:g}": (f, stats.r) for f in oracle_fractions}
    res = cli.evaluate_plans(p0, stream, plans, seed=seed)
    out = {
        "auroc": {m: res[m]["report"].auroc for m in modes},
        "sweep": [(f, res[f"sweep_{f:g}"]["report"].auroc) for f in oracle_fractions],
    }
    for name, (stats, p0, logit_sets) in prepared.items():
        ht = cli.head_tail_reports(stats, p0, logit_sets, seed=seed, mode="oracle")
        out[f"headtail_{name}"] = (ht["head"].auroc, ht["tail"].auroc)
    return out


def test_benchmark_direction_checks_over_five_seeds():
    """Seed-averaged over the default synthetic long-tailed benchmark:
    (a) frozen <= adaptive <= oracle AUROC, (b) AUROC is non-decreasing in the
    labeled fraction, (c) DNE fine-tuning shrinks the tail/head AUROC gap
    relative to CE-only training."""
    fractions = (0.0, 0.25, 0.5, 0.75, 1.0)
    aurocs = {m: [] for m in ("no_tta", "doda", "oracle")}
    sweep = {f: [] for f in fractions}
    gaps_ce, gaps_dne = [], []
    for seed in range(5):
        out = desk_benchmark(seed, fractions)
        for m in aurocs:
            aurocs[m].append(out["auroc"][m])
        for f, auc in out["sweep"]:
            sweep[f].append(auc)
        gaps_ce.append(abs(out["headtail_ce"][1] - out["headtail_ce"][0]))
        gaps_dne.append(abs(out["headtail_dne"][1] - out["headtail_dne"][0]))

    mean = {m: float(np.mean(v)) for m, v in aurocs.items()}
    assert mean["no_tta"] <= mean["doda"] <= mean["oracle"]

    sweep_means = [float(np.mean(sweep[f])) for f in fractions]
    assert all(a <= b for a, b in zip(sweep_means, sweep_means[1:]))

    assert float(np.mean(gaps_dne)) < float(np.mean(gaps_ce))


def test_margin_defaults_are_parameter_free():
    """The margins depend only on (k, b_in): the loss and its gradient equal,
    bit for bit, the pre-fusion step run with margins 1 and 0 for the class
    terms and k / b_in and 0 for the sample terms, with no dataset-derived
    inputs."""
    rng = np.random.default_rng(20240502)
    for k in (2, 3, 10, 64, 1000):
        for b_in in (1, 2, 7, 128, 4096):
            id_rows = rng.normal(0.0, 3.0, (b_in, k))
            out_rows = rng.normal(-1.0, 3.0, (1, k))
            labels = rng.integers(0, k, b_in)
            margins = (1.0, 0.0, k / b_in, 0.0)
            want = prefusion_total_loss(id_rows, out_rows, labels, margins)
            want_grad = prefusion_total_loss_grad(id_rows, out_rows, labels, margins)
            got, grad = dne.loss_and_grad(np.vstack([id_rows, out_rows]), labels)
            assert (got.total, got.ce, got.dne_c, got.dne_s) == want
            assert np.array_equal(grad, want_grad)


def test_pipeline_determinism_and_lossless_round_trips(tmp_path):
    """Repeated runs of training and evaluation with the same seed produce
    byte-identical artifacts, and the file formats round-trip losslessly."""
    def run(*argv):
        assert cli.main([str(a) for a in argv]) == 0

    data_dir = tmp_path / "data"
    run("generate", "--out", data_dir, "--n-max", 60, "--n-out", 80,
        "--n-ood", 80, "--n-test-per-class", 5, "--seed", 5)

    model_dirs = []
    for name in ("m1", "m2"):
        out = tmp_path / name
        run("train", "--data", data_dir, "--out", out, "--seed", 5,
            "--hidden", 8, "--epochs-pretrain", 2, "--epochs-finetune", 1)
        model_dirs.append(out)
    assert (model_dirs[0] / "checkpoint.json").read_bytes() == \
        (model_dirs[1] / "checkpoint.json").read_bytes()

    eval_dirs = []
    for name in ("e1", "e2"):
        out = tmp_path / name
        run("adapt-eval", "--data", data_dir, "--model",
            model_dirs[0] / "checkpoint.json", "--out", out, "--events")
        eval_dirs.append(out)
    for fname in ("metrics.json", "adapter_state.json", "events.csv"):
        assert (eval_dirs[0] / fname).read_bytes() == (eval_dirs[1] / fname).read_bytes()

    # logit files carry float64 values exactly
    from adaptod.data import OUTLIER, SampleSet, read_sample_set, write_sample_set
    rng = np.random.default_rng(5)
    records = [(int(rng.integers(-1, 10)), rng.normal(0, 50, 6)) for _ in range(40)]
    samples = SampleSet(np.array([r[1] for r in records]), np.array([r[0] for r in records]))
    path = tmp_path / "logits.csv"
    write_sample_set(path, samples)
    back = read_sample_set(path, OUTLIER)
    assert [int(line.split(",")[0]) for line in path.read_text().splitlines()[1:]] == \
        list(range(40))
    assert np.array_equal(back.labels, samples.labels)
    assert np.array_equal(back.features, samples.features)

    # checkpoints restore the exact parameters
    model = nn.load_checkpoint(model_dirs[0] / "checkpoint.json")
    path2 = tmp_path / "ckpt2.json"
    nn.save_checkpoint(path2, model)
    assert path2.read_bytes() == (model_dirs[0] / "checkpoint.json").read_bytes()
