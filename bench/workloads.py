"""The benchmark workloads: ``stream``, ``train`` and ``pipeline``.

Each workload builds its inputs from the workload seed in ``setup`` (timed
as the set-up metric), then repeats ``unit`` (one unit of its work, timed)
and ``check`` (untimed verification of what the unit produced). The
benchmark drives adaptod only through these public entry points: the CLI
argv interface, ``cli.benchmark_datasets``, ``cli.build_stream``,
``nn.Mlp.init``, ``nn.train``, ``Mlp.forward``, ``doda.fit_energy_stats``,
``doda.init_outlier_distribution``, ``doda.run_stream`` and
``doda.adapt_and_score``.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from adaptod import cli, data, doda, nn

REL_TOL = 1e-9  # closed-form agreement required of every stream score and final P

# The `adaptod train` defaults, so every workload trains the model a user gets.
TRAIN_CONFIG = dict(epochs_pretrain=30, epochs_finetune=10, lr_pretrain=0.1,
                    lr_finetune=0.005, b_in=64, b_out=128, momentum=0.9)
HIDDEN = 32


class Outcomes:
    """Counts operations (calls into adaptod and output checks) and failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def op(self, name, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # a failing call is counted and reported, not fatal
            self.failed += 1
            self.errors.append(f"{name}: {type(exc).__name__}: {exc}")
            return None

    def check(self, name, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(f"check {name} failed {detail}".rstrip())


def train_model(datasets, seed: int):
    id_train = datasets[data.ID_TRAIN]
    k = int(id_train.labels.max()) + 1
    init = nn.Mlp.init([id_train.features.shape[1], HIDDEN, k], seed)
    cfg = nn.TrainConfig(seed=seed, **TRAIN_CONFIG)
    model, log = nn.train(init, id_train.features, id_train.labels,
                          datasets[data.OUTLIER].features, cfg)
    return model, log


def closed_form(exp_logits, mask, p0, m0):
    """Scores and final P of a stream whose accepted samples are `mask`.

    P_t = (m0 P0 + cumsum(mask e^f)) / (m0 + cumsum(mask)); the score of
    sample t is sum_j e^f_tj / (1 + P_tj), P_t including sample t itself.
    """
    w = mask.astype(np.float64)
    num = m0 * p0 + np.cumsum(exp_logits * w[:, None], axis=0)
    count = m0 + np.cumsum(w)
    p = np.where(count[:, None] > 0, num / np.maximum(count, 1.0)[:, None], p0)
    scores = (exp_logits / (1.0 + p)).sum(axis=1)
    return scores, (p[-1] if len(p) else p0), int(mask.sum())


def rel_err(got, want) -> float:
    got = np.asarray(got, dtype=np.float64)
    if got.shape != want.shape:
        return math.inf
    if not want.size:
        return 0.0
    return float(np.max(np.abs(got - want) / np.maximum(np.abs(want), np.finfo(float).tiny)))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]) of a non-empty sequence."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


class Workload:
    """Defaults for the optional steps of a workload."""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def prepare(self, out: Outcomes) -> None:
        """Untimed work after set-up, such as the references the checks need."""

    def report(self) -> dict:
        """Extra end-to-end figures: name -> (value, unit, sample-count note)."""
        return {}

    def layer_extras(self) -> dict:
        """Per-layer values the workload measures itself rather than from spans."""
        return {}


class Stream(Workload):
    """DODA scores one long seeded 1:1 stream of ID-test and true-OOD samples.

    Each unit passes the whole stream through ``run_stream`` in three modes,
    then one closed-loop caller feeds the first ONLINE samples through
    ``adapt_and_score`` one at a time (DODA state depends on order, so the
    caller waits for each reply).
    """

    name = "stream"
    setup_reps = 15
    DATA = dict(n_test_per_class=500, n_ood=5000)  # 5000 ID + 5000 OOD
    ONLINE = 2000
    VIRTUAL_COUNT = 1

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.batch_s = 0.0
        self.batch_samples = 0
        self.latencies_ns: list[int] = []

    def setup(self) -> None:
        _, ds = cli.benchmark_datasets(self.seed, **self.DATA)
        model, _ = train_model(ds, self.seed)
        self.stats = doda.fit_energy_stats(model.forward(ds[data.ID_TRAIN].features))
        self.p0 = doda.init_outlier_distribution(model.forward(ds[data.OUTLIER].features),
                                                 virtual_count=self.VIRTUAL_COUNT)
        feats, self.is_ood, _ = cli.build_stream(ds[data.ID_TEST], ds[data.TRUE_OOD], 0.5,
                                                 self.seed)
        self.logits = model.forward(feats)

    def prepare(self, out: Outcomes) -> None:
        """The benchmark's own reference for every mode, and the filter's
        outcomes as the program's event log reports them (untimed)."""
        e = np.exp(self.logits)
        self.masks = {
            "freeze": np.zeros(len(e), dtype=bool),
            # Plain DODA accepts G < R; on this traffic R < 0, so nothing.
            "plain": e.sum(axis=1) < self.stats.r,
            "oracle": self.is_ood.copy(),  # use_label_probability=1.0
        }
        p0, m0 = self.p0.values, self.p0.m
        self.refs = {mode: closed_form(e, mask, p0, m0) for mode, mask in self.masks.items()}
        self.online_ref = closed_form(e[:self.ONLINE], self.masks["plain"][:self.ONLINE], p0, m0)
        self.filter = {}
        n_ood = int(self.is_ood.sum())
        for mode, kwargs in self._modes():
            res = out.op(f"run_stream.{mode} events", doda.run_stream, self.p0, self.stats,
                         self.logits, record_events=True, **kwargs)
            if res is None:
                continue
            accepted = np.array([bool(ev.accepted) for ev in res[1]])
            out.check(f"events.{mode}", np.array_equal(accepted, self.masks[mode]),
                      f"({int(accepted.sum())} accepted, {int(self.masks[mode].sum())} expected)")
            hits = int((accepted & self.is_ood).sum()) if accepted.shape == self.is_ood.shape else 0
            self.filter[mode] = (hits / accepted.sum() if accepted.sum() else 0.0, hits / n_ood)

    def _modes(self):
        yield "freeze", dict(freeze=True)
        yield "plain", {}
        yield "oracle", dict(oracle_labels=self.is_ood, use_label_probability=1.0,
                             rng=np.random.default_rng(self.seed))

    def unit(self, out: Outcomes, record: bool) -> float:
        self.results = {}
        elapsed = 0.0
        for mode, kwargs in self._modes():
            t = time.perf_counter()
            self.results[mode] = out.op(f"run_stream.{mode}", doda.run_stream,
                                        self.p0, self.stats, self.logits, **kwargs)
            dt = time.perf_counter() - t
            elapsed += dt
            if record:
                self.batch_s += dt
                self.batch_samples += len(self.logits)
        t = time.perf_counter()
        latencies: list[int] = []
        self.online = out.op("adapt_and_score loop", self._online, latencies)
        elapsed += time.perf_counter() - t
        if record:
            self.latencies_ns.extend(latencies)
        return elapsed

    def _online(self, latencies: list[int]):
        """One closed-loop caller: each call waits for the previous reply."""
        scores = np.empty(self.ONLINE)
        state = self.p0
        clock = time.perf_counter_ns
        for i in range(self.ONLINE):
            t0 = clock()
            state, scores[i], _ = doda.adapt_and_score(state, self.stats, self.logits[i],
                                                      sample_index=i)
            latencies.append(clock() - t0)
        return scores, state

    def _agrees(self, out, name, scores, state, ref):
        want_scores, want_p, want_accepted = ref
        err = max(rel_err(scores, want_scores), rel_err(state.values, want_p))
        accepted = state.m - self.p0.m
        out.check(name, err <= REL_TOL and accepted == want_accepted,
                  f"(rel err {err:.3g}, accepted {accepted} vs {want_accepted})")

    def check(self, out: Outcomes) -> None:
        for mode, res in self.results.items():
            if res is not None:
                scores, _, state = res
                self._agrees(out, f"closed_form.{mode}", scores, state, self.refs[mode])
        if self.online is not None:
            self._agrees(out, "closed_form.online", *self.online, self.online_ref)

    def report(self) -> dict:
        lat_us = [v / 1e3 for v in self.latencies_ns]
        return {
            "stream_samples_per_s": (self.batch_samples / self.batch_s, "1/s",
                                     f"{self.batch_samples} samples, 3 modes pooled"),
            "score_p50_us": (percentile(lat_us, 50), "us", f"{len(lat_us)} calls"),
            "score_p99_us": (percentile(lat_us, 99), "us", f"{len(lat_us)} calls"),
        }

    def layer_extras(self) -> dict:
        """Filter outcomes per mode, from the event log of an untimed pass:
        precision is accepted samples that are true OOD over all accepted,
        recall is the same over all true OOD."""
        extras = {}
        for mode, (precision, recall) in self.filter.items():
            extras[f"doda.accept_precision.{mode}"] = precision
            extras[f"doda.accept_recall.{mode}"] = recall
        lat_us = [v / 1e3 for v in self.latencies_ns]
        extras["doda.score_p50_us"] = percentile(lat_us, 50)
        extras["doda.score_p99_us"] = percentile(lat_us, 99)
        return extras


class Train(Workload):
    """Two-stage ``nn.train`` (CE pre-training, then DNE fine-tuning) on a
    long-tailed set large enough that one training run takes seconds."""

    name = "train"
    setup_reps = 41
    DATA = dict(n_max=3000)
    MIN_ACCURACY = 0.8  # ID-test accuracy a trained model must reach

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.first_params = None

    def setup(self) -> None:
        _, self.ds = cli.benchmark_datasets(self.seed, **self.DATA)
        id_train = self.ds[data.ID_TRAIN]
        k = int(id_train.labels.max()) + 1
        self.init = nn.Mlp.init([id_train.features.shape[1], HIDDEN, k], self.seed)

    def unit(self, out: Outcomes, record: bool) -> float:
        id_train = self.ds[data.ID_TRAIN]
        cfg = nn.TrainConfig(seed=self.seed, **TRAIN_CONFIG)
        t = time.perf_counter()
        self.result = out.op("nn.train", nn.train, self.init, id_train.features,
                             id_train.labels, self.ds[data.OUTLIER].features, cfg)
        return time.perf_counter() - t

    def check(self, out: Outcomes) -> None:
        if self.result is None:
            return
        model, log = self.result
        params = b"".join(a.tobytes() for a in (*model.weights, *model.biases))
        epochs = TRAIN_CONFIG["epochs_pretrain"] + TRAIN_CONFIG["epochs_finetune"]
        finite = all(np.isfinite(a).all() for a in (*model.weights, *model.biases))
        log_ok = len(log) == epochs and all(
            math.isfinite(v) for row in log for v in (row.total, row.ce, row.dne_c, row.dne_s))
        out.check("train.finite", finite and log_ok)
        if self.first_params is None:
            self.first_params = params
        out.check("train.deterministic", params == self.first_params)
        id_test = self.ds[data.ID_TEST]
        acc = float((model.forward(id_test.features).argmax(axis=1) == id_test.labels).mean())
        out.check("train.accuracy", acc >= self.MIN_ACCURACY, f"(accuracy {acc:.3f})")


class Pipeline(Workload):
    """In-process ``cli.main``: generate, train, adapt-eval --events, head-tail
    and alpha-sweep on a fresh run directory, default grids."""

    name = "pipeline"
    setup_reps = 21
    GENERATE = ["--n-test-per-class", "100", "--n-ood", "1000", "--n-out", "1000"]

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.units = 0
        self.first_metrics = None
        self.bytes_written: list[int] = []

    def setup(self) -> None:
        """A CLI call starts a fresh interpreter and imports adaptod; time that."""
        src = str(Path(cli.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        subprocess.run([sys.executable, "-c", "import adaptod.cli"], env=env, check=True,
                       timeout=120)

    def _commands(self, run: Path):
        seed = ["--seed", str(self.seed)]
        dat, ckpt = ["--data", str(run / "data")], ["--model", str(run / "model/checkpoint.json")]
        return [
            ["generate", "--out", str(run / "data"), *seed, *self.GENERATE],
            ["train", *dat, "--out", str(run / "model"), *seed],
            ["adapt-eval", *dat, *ckpt, "--out", str(run / "eval"), "--events", *seed],
            ["head-tail", *dat, *ckpt, "--out", str(run / "ht"), *seed],
            ["alpha-sweep", *dat, *ckpt, "--out", str(run / "alpha"), *seed],
        ]

    def unit(self, out: Outcomes, record: bool) -> float:
        self.run = self.workdir / f"unit{self.units}"
        self.units += 1
        self.exit_codes = []
        elapsed = 0.0
        for argv in self._commands(self.run):
            t = time.perf_counter()
            rc = out.op(f"cli {argv[0]}", cli.main, argv)
            elapsed += time.perf_counter() - t
            self.exit_codes.append((argv[0], rc))
        return elapsed

    def check(self, out: Outcomes) -> None:
        for command, rc in self.exit_codes:
            out.check(f"cli {command} exit", rc == 0, f"(exit {rc})")
        try:
            raw = (self.run / "eval" / "metrics.json").read_bytes()
            values = [v for mode in json.loads(raw).values() for v in mode.values()]
            finite = bool(values) and all(math.isfinite(v) for v in values)
        except (OSError, ValueError, AttributeError, TypeError) as exc:
            raw, finite = None, False
            out.errors.append(f"metrics.json: {exc!r}")
        out.check("metrics.json finite", finite)
        if self.first_metrics is None:
            self.first_metrics = raw
        else:
            out.check("metrics.json byte-identical", raw == self.first_metrics)
        self.bytes_written.append(sum(p.stat().st_size for p in self.run.rglob("*")
                                      if p.is_file()))
        shutil.rmtree(self.run, ignore_errors=True)

    def _doda(self, key):
        return json.loads(self.first_metrics)["doda"][key] if self.first_metrics else math.nan

    def report(self) -> dict:
        return {
            "doda_auroc": (self._doda("auroc"), "frac", "metrics.json of unit 0"),
            "doda_fpr95": (self._doda("fpr_at_95tpr"), "frac", "metrics.json of unit 0"),
        }

    def layer_extras(self) -> dict:
        return {"data.bytes_written": statistics.median(self.bytes_written)
                if self.bytes_written else 0}


WORKLOADS = {w.name: w for w in (Stream, Train, Pipeline)}
