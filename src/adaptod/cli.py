"""Command-line entry point: dataset generation, two-stage training, streaming
adaptation + evaluation, head/tail splits, and the alpha sweep.

Every subcommand writes its outputs into a run directory together with a
manifest recording the exact configuration, so a run is reproducible from the
manifest and seed alone.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import data as data_mod
from . import doda, metrics, nn
from .errors import (
    ConfigError,
    EnergyOverflowError,
    InsufficientDataError,
    InvalidInputError,
    LogitFileError,
    ShapeError,
    TrainingDivergedError,
    UndefinedMetricError,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

DATASET_FILES = {
    data_mod.ID_TRAIN: "id_train.csv",
    data_mod.ID_TEST: "id_test.csv",
    data_mod.OUTLIER: "outlier.csv",
    data_mod.TRUE_OOD: "true_ood.csv",
}


# ---------------------------------------------------------------------------
# shared pipeline pieces
# ---------------------------------------------------------------------------


def load_datasets(data_dir, tags=tuple(DATASET_FILES)):
    """The sample sets of data_dir; LogitFileError names a file whose rows are
    not as wide as those of the first, or an ID-test label no ID-train class has."""
    paths = {tag: Path(data_dir) / DATASET_FILES[tag] for tag in tags}
    sets = {tag: data_mod.read_sample_set(path, tag) for tag, path in paths.items()}
    first = tags[0]
    width = sets[first].features.shape[1]
    for tag, sample_set in sets.items():
        if sample_set.features.shape[1] != width:
            raise LogitFileError(f"{paths[tag]}: rows hold {sample_set.features.shape[1]} "
                                 f"values, but {paths[first]} rows hold {width}")
    if {data_mod.ID_TRAIN, data_mod.ID_TEST} <= sets.keys():
        k, label = sets[data_mod.ID_TRAIN].labels.max() + 1, sets[data_mod.ID_TEST].labels.max()
        if label >= k:
            raise LogitFileError(f"{paths[data_mod.ID_TEST]}: label {label} is not one of the "
                                 f"{k} classes of {paths[data_mod.ID_TRAIN]}")
    return sets


def build_stream(id_test: data_mod.SampleSet, true_ood: data_mod.SampleSet,
                 ood_fraction: float, seed: int):
    """Interleave ID-test and true-OOD samples by a seeded shuffle.

    Returns (features, is_ood flags, class labels) in stream order. The OOD
    count is chosen to hit ood_fraction given all ID samples, capped by what is
    available.
    """
    if not 0.0 < ood_fraction < 1.0:
        raise ConfigError("ood_fraction must lie strictly between 0 and 1")
    n_id = id_test.n
    n_ood = min(true_ood.n, round(n_id * ood_fraction / (1.0 - ood_fraction)))
    if n_ood < 1:
        raise ConfigError("stream would contain no OOD samples")
    feats = np.vstack([id_test.features, true_ood.features[:n_ood]])
    labels = np.concatenate([id_test.labels, np.full(n_ood, -1)])
    is_ood = np.concatenate([np.zeros(n_id, bool), np.ones(n_ood, bool)])
    order = np.random.default_rng(seed).permutation(feats.shape[0])
    return feats[order], is_ood[order], labels[order]


def prepare(model, datasets, *, alpha=doda.DEFAULT_ALPHA, virtual_count=1):
    """What every stream of one command shares, from one forward of the
    ID-train and of the outlier set: (filter stats, P0, outlier logits)."""
    stats = doda.fit_energy_stats(model.forward(datasets[data_mod.ID_TRAIN].features), alpha)
    outlier_logits = model.forward(datasets[data_mod.OUTLIER].features)
    p0 = doda.init_outlier_distribution(outlier_logits, virtual_count=virtual_count)
    return stats, p0, outlier_logits


def forward_stream(model, datasets, ood_fraction, seed):
    """build_stream of the ID-test and true-OOD sets, with logits for features."""
    feats, is_ood, labels = build_stream(datasets[data_mod.ID_TEST],
                                         datasets[data_mod.TRUE_OOD], ood_fraction, seed)
    return model.forward(feats), is_ood, labels


MODES = ("uncalibrated", "no_tta", "doda", "oracle")


def evaluate_modes(stats, p0, stream, *, modes=MODES, oracle_fractions=(), seed=0,
                   record_events=False):
    """The requested modes, plus one sweep_<f> mode per oracle fraction f, over
    a forward_stream result. Modes with the same plan share one run_stream pass
    and one result: sweep_0 that of doda, sweep_1 that of oracle.

    Returns mode name -> {"report", "scores", "events", "final_state"}. Each
    oracle pass draws from its own rng(seed), so no result depends on which
    other modes run, and the sweep fractions share their per-sample uniform
    draws (common random numbers): differences come from the fraction alone.
    """
    stream_logits, is_ood, labels = stream
    is_id = ~is_ood
    predicted, true = stream_logits.argmax(axis=1)[is_id], labels[is_id]

    states = {"p0": p0, "zero": doda.OutlierDistribution(np.zeros(p0.k), 0)}

    def run(state, freeze, fraction):
        oracle = dict(oracle_labels=is_ood, use_label_probability=float(fraction),
                      rng=np.random.default_rng(seed)) if fraction else {}
        scores, events, final_state = doda.run_stream(
            states[state], stats, stream_logits, freeze=freeze, record_events=record_events,
            **oracle)
        return {"report": metrics.metric_report(np.asarray(scores), is_id, predicted, true),
                "scores": scores, "events": events, "final_state": final_state}

    # mode -> (initial state, freeze, oracle fraction)
    plan_of = {"uncalibrated": ("zero", True, 0.0), "no_tta": ("p0", True, 0.0),
               "doda": ("p0", False, 0.0), "oracle": ("p0", False, 1.0)}
    plans = {mode: plan_of[mode] for mode in modes}
    plans.update({f"sweep_{frac:g}": ("p0", False, float(frac)) for frac in oracle_fractions})
    runs = {plan: run(*plan) for plan in dict.fromkeys(plans.values())}
    return {mode: runs[plan] for mode, plan in plans.items()}


# head-tail --mode -> evaluate_modes result key
HEAD_TAIL_MODES = {"doda": "doda", "frozen": "no_tta", "uncalibrated": "uncalibrated",
                   "oracle": "oracle"}


def head_tail_reports(model, datasets, *, head_classes=None, alpha=doda.DEFAULT_ALPHA,
                      virtual_count=1, ood_fraction=0.5, seed=0, mode="doda"):
    """Evaluate one mode twice with ID restricted to the head half, then the
    tail half; both halves share one preparation.

    Returns {"head": MetricReport, "tail": MetricReport}. Classes are ordered
    by training frequency, so the head half is the first half of class indices.
    """
    id_test = datasets[data_mod.ID_TEST]
    k = int(id_test.labels.max()) + 1
    if head_classes is None:
        head_classes = set(range(k // 2))
    halves = {}
    for name, keep in (("head", head_classes), ("tail", set(range(k)) - set(head_classes))):
        mask = np.isin(id_test.labels, sorted(keep))
        if not mask.any():
            raise UndefinedMetricError(f"no ID samples left in the {name} subset")
        halves[name] = {**datasets, data_mod.ID_TEST: data_mod.SampleSet(
            id_test.features[mask], id_test.labels[mask], data_mod.ID_TEST)}
    stats, p0, _ = prepare(model, datasets, alpha=alpha, virtual_count=virtual_count)
    key = HEAD_TAIL_MODES[mode]
    return {name: evaluate_modes(stats, p0, forward_stream(model, half, ood_fraction, seed),
                                 modes=(key,), seed=seed)[key]["report"]
            for name, half in halves.items()}


def train_models(datasets, cfg: nn.TrainConfig, hidden):
    """Initialize a model with the given hidden widths on the generated task
    and train it under cfg. Returns (model, log)."""
    id_train = datasets[data_mod.ID_TRAIN]
    k = int(id_train.labels.max()) + 1
    d = id_train.features.shape[1]
    model = nn.Mlp.init([d, *hidden, k], cfg.seed)
    return nn.train(model, id_train.features, id_train.labels,
                    datasets[data_mod.OUTLIER].features, cfg)


def benchmark_datasets(seed: int, **settings):
    """The synthetic long-tailed benchmark (see data_mod.BenchmarkSpec) for one
    seed and any non-default settings: (spec, provenance tag -> sample set)."""
    spec = data_mod.BenchmarkSpec(seed=seed, **settings)
    id_train, id_test = data_mod.generate_long_tailed(spec)
    return spec, {data_mod.ID_TRAIN: id_train, data_mod.ID_TEST: id_test,
                  data_mod.OUTLIER: data_mod.generate_outliers(spec),
                  data_mod.TRUE_OOD: data_mod.generate_true_ood(spec)}


DEFAULT_HIDDEN = (32,)
BENCHMARK_VIRTUAL_COUNT = 64


def desk_benchmark(seed: int, *, oracle_fractions=(0.0, 0.25, 0.5, 0.75, 1.0)):
    """One seed of the default synthetic long-tailed benchmark.

    Trains a CE-only model and a DNE fine-tuned model from the same
    initialization, then evaluates all adaptation modes and the head/tail
    split. The streaming modes use a large virtual count so the adapted
    distribution blends gradually from its initialization toward the test
    outlier statistics as more samples are accepted.
    """
    _, datasets = benchmark_datasets(seed)
    ce_model, _ = train_models(datasets, nn.TrainConfig(seed=seed, epochs_finetune=0),
                               DEFAULT_HIDDEN)
    dne_model, dne_log = train_models(datasets, nn.TrainConfig(seed=seed), DEFAULT_HIDDEN)

    stats, p0, _ = prepare(dne_model, datasets, virtual_count=BENCHMARK_VIRTUAL_COUNT)
    res = evaluate_modes(stats, p0, forward_stream(dne_model, datasets, 0.5, seed),
                         oracle_fractions=oracle_fractions, seed=seed)
    out = {
        "auroc": {m: res[m]["report"].auroc for m in MODES},
        "sweep": [(f, res[f"sweep_{f:g}"]["report"].auroc) for f in oracle_fractions],
        "train_log": dne_log,
    }
    for name, model in (("ce", ce_model), ("dne", dne_model)):
        ht = head_tail_reports(model, datasets, seed=seed, mode="oracle",
                               virtual_count=BENCHMARK_VIRTUAL_COUNT)
        out[f"headtail_{name}"] = (ht["head"].auroc, ht["tail"].auroc)
    return out


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _write_manifest(out_dir: Path, command: str, params: dict) -> None:
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump({"command": command, "params": params}, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _flag_values(ns, settings_class) -> dict:
    """The parsed flags that _add_field_flags made for settings_class."""
    return {f.name: getattr(ns, f.name) for f in fields(settings_class)}


def cmd_generate(ns) -> int:
    spec, sets = benchmark_datasets(**_flag_values(ns, data_mod.BenchmarkSpec))
    out_dir = Path(ns.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for tag, sample_set in sets.items():
        data_mod.write_sample_set(out_dir / DATASET_FILES[tag], sample_set)
    _write_manifest(out_dir, "generate", {**asdict(spec), "class_counts": spec.class_counts()})
    return EXIT_OK


def cmd_train(ns) -> int:
    cfg = nn.TrainConfig(**_flag_values(ns, nn.TrainConfig))
    datasets = load_datasets(ns.data, (data_mod.ID_TRAIN, data_mod.OUTLIER))
    model, log = train_models(datasets, cfg, ns.hidden)
    out_dir = Path(ns.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    stage = "finetune" if cfg.epochs_finetune else "pretrain"
    nn.save_checkpoint(out_dir / "checkpoint.json", model, cfg.seed, stage)
    with open(out_dir / "loss_log.csv", "w") as fh:
        fh.write("epoch,total,ce,dne_c,dne_s\n")
        for i, row in enumerate(log):
            fh.write(f"{i},{row.total!r},{row.ce!r},{row.dne_c!r},{row.dne_s!r}\n")
    _write_manifest(out_dir, "train", {"data": str(ns.data), "hidden": list(ns.hidden),
                                       **asdict(cfg)})
    return EXIT_OK


def _load_model_for_data(ns, datasets):
    model, _, _ = nn.load_checkpoint(ns.model)
    k_data = int(datasets[data_mod.ID_TRAIN].labels.max()) + 1
    if model.layer_dims[-1] != k_data:
        raise ConfigError(
            f"checkpoint k={model.layer_dims[-1]} does not match dataset k={k_data}"
        )
    if model.layer_dims[0] != datasets[data_mod.ID_TRAIN].features.shape[1]:
        raise ConfigError("checkpoint input dim does not match dataset feature dim")
    return model


def _write_histograms(out_dir: Path, model, datasets, outlier_logits, adapted_scores) -> None:
    """50-bin histograms of global energy for the ID-test, outlier, and true-OOD
    populations, plus calibrated (adapted) scores of the evaluation stream."""
    populations = {
        "id_test": doda.global_energies(model.forward(datasets[data_mod.ID_TEST].features)),
        "outlier": doda.global_energies(outlier_logits),
        "true_ood": doda.global_energies(model.forward(datasets[data_mod.TRUE_OOD].features)),
        "adapted_scores": np.asarray(adapted_scores),
    }
    pooled = np.concatenate(list(populations.values()))
    edges = np.linspace(pooled.min(), pooled.max(), 51)
    counts = {name: np.histogram(vals, bins=edges)[0] for name, vals in populations.items()}
    with open(out_dir / "energy_hist.csv", "w") as fh:
        fh.write("bin_lo,bin_hi," + ",".join(counts) + "\n")
        for i in range(50):
            row = [repr(float(edges[i])), repr(float(edges[i + 1]))]
            row += [str(int(counts[name][i])) for name in counts]
            fh.write(",".join(row) + "\n")
    _write_hist_svg(out_dir / "energy_hist.svg", edges, counts)


def _write_hist_svg(path, edges, counts) -> None:
    width, height, pad = 640, 360, 30
    series = list(counts)
    palette = ["#1f77b4", "#ff7f0e", "#2ca02c", "#d62728"]
    max_count = max(1, max(int(c.max()) for c in counts.values()))
    n_bins = len(edges) - 1
    bar_w = (width - 2 * pad) / (n_bins * len(series))
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">']
    for si, name in enumerate(series):
        color = palette[si % len(palette)]
        for b in range(n_bins):
            h = (height - 2 * pad) * int(counts[name][b]) / max_count
            x = pad + (b * len(series) + si) * bar_w
            y = height - pad - h
            parts.append(
                f'<rect x="{x:.2f}" y="{y:.2f}" width="{bar_w:.2f}" height="{h:.2f}" '
                f'fill="{color}" fill-opacity="0.7"><title>{name}</title></rect>'
            )
        parts.append(
            f'<text x="{pad + 4}" y="{pad + 14 * (si + 1)}" fill="{color}" '
            f'font-size="12">{name}</text>'
        )
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")


def _check_stream_flags(ns) -> None:
    """--ood-fraction and --virtual-count, checked before any file is read."""
    if not 0.0 < ns.ood_fraction < 1.0:
        raise ConfigError(f"ood_fraction must lie strictly between 0 and 1, got {ns.ood_fraction}")
    if ns.virtual_count < 0:
        raise ConfigError(f"virtual_count must be non-negative, got {ns.virtual_count}")


def cmd_adapt_eval(ns) -> int:
    _check_stream_flags(ns)
    fractions = _parse_grid(ns.oracle_fractions)
    bad = [f for f in fractions if not 0.0 <= f <= 1.0]
    if bad:
        raise ConfigError(f"oracle fraction {bad[0]:g} must lie in [0, 1]")
    datasets = load_datasets(ns.data)
    model = _load_model_for_data(ns, datasets)
    stats, p0, outlier_logits = prepare(model, datasets, alpha=ns.alpha,
                                        virtual_count=ns.virtual_count)
    results = evaluate_modes(stats, p0, forward_stream(model, datasets, ns.ood_fraction, ns.seed),
                             oracle_fractions=fractions, seed=ns.seed, record_events=ns.events)
    out_dir = Path(ns.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = {mode: json.loads(res["report"].to_json()) for mode, res in results.items()}
    with open(out_dir / "metrics.json", "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
    if ns.events:
        with open(out_dir / "events.csv", "w") as fh:
            fh.write("sample_index,accepted,global_energy,calibrated_score\n")
            for ev in results["doda"]["events"]:
                fh.write(f"{ev.sample_index},{int(ev.accepted)},"
                         f"{ev.global_energy!r},{ev.calibrated_score!r}\n")
    _write_histograms(out_dir, model, datasets, outlier_logits, results["doda"]["scores"])
    doda.save_state(out_dir / "adapter_state.json", results["doda"]["final_state"], stats)
    _write_manifest(out_dir, "adapt-eval", {
        "data": str(ns.data), "model": str(ns.model), "alpha": ns.alpha,
        "virtual_count": ns.virtual_count, "ood_fraction": ns.ood_fraction,
        "seed": ns.seed, "oracle_fractions": fractions, "events": ns.events,
    })
    return EXIT_OK


def cmd_headtail(ns) -> int:
    _check_stream_flags(ns)
    datasets = load_datasets(ns.data)
    model = _load_model_for_data(ns, datasets)
    reports = head_tail_reports(
        model, datasets, alpha=ns.alpha, virtual_count=ns.virtual_count,
        ood_fraction=ns.ood_fraction, seed=ns.seed, mode=ns.mode,
    )
    out_dir = Path(ns.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = {name: json.loads(rep.to_json()) for name, rep in reports.items()}
    with open(out_dir / "head_tail.json", "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
    _write_manifest(out_dir, "head-tail", {
        "data": str(ns.data), "model": str(ns.model), "alpha": ns.alpha,
        "virtual_count": ns.virtual_count, "ood_fraction": ns.ood_fraction,
        "seed": ns.seed, "mode": ns.mode,
    })
    return EXIT_OK


def cmd_alpha_sweep(ns) -> int:
    _check_stream_flags(ns)
    alphas = _parse_grid(ns.alphas)
    if not alphas:
        raise ConfigError("alpha grid is empty")
    datasets = load_datasets(ns.data)
    model = _load_model_for_data(ns, datasets)
    fitted, p0, _ = prepare(model, datasets, alpha=alphas[0], virtual_count=ns.virtual_count)
    # mu_in and sigma_in do not depend on alpha; only the threshold R does.
    grid = [doda.EnergyStats.from_moments(fitted.mu_in, fitted.sigma_in, a) for a in alphas]
    stream = forward_stream(model, datasets, ns.ood_fraction, ns.seed)
    aurocs = [evaluate_modes(stats, p0, stream, modes=("doda",),
                             seed=ns.seed)["doda"]["report"].auroc for stats in grid]
    out_dir = Path(ns.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "alpha_sweep.csv", "w") as fh:
        fh.write("alpha,auroc\n")
        for alpha, auc in zip(alphas, aurocs):
            fh.write(f"{alpha!r},{auc!r}\n")
    _write_manifest(out_dir, "alpha-sweep", {
        "data": str(ns.data), "model": str(ns.model), "alphas": alphas,
        "virtual_count": ns.virtual_count, "ood_fraction": ns.ood_fraction, "seed": ns.seed,
    })
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing / dispatch
# ---------------------------------------------------------------------------


def _parse_grid(value: str) -> list[float]:
    value = value.strip()
    if not value:
        return []
    try:
        return [float(v) for v in value.split(",")]
    except ValueError as exc:
        raise ConfigError(f"bad numeric grid {value!r}") from exc


def _add_field_flags(p, settings_class) -> None:
    """One flag per field of a settings dataclass, with the field's default."""
    for f in fields(settings_class):
        flag = "--" + f.name.replace("_", "-")
        if isinstance(f.default, bool):
            p.add_argument(flag, action="store_true")
        else:
            p.add_argument(flag, type=type(f.default), default=f.default)


def _add_eval_args(p):
    p.add_argument("--data", required=True, help="directory produced by `generate`")
    p.add_argument("--model", required=True, help="checkpoint.json from `train`")
    p.add_argument("--out", required=True, help="output run directory")
    p.add_argument("--virtual-count", type=int, default=1)
    p.add_argument("--ood-fraction", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    # Flags are matched whole: a prefix such as --alpha must not stand for --alphas.
    strict = functools.partial(argparse.ArgumentParser, allow_abbrev=False)
    parser = strict(prog="adaptod")
    parser.add_argument("--config", help="JSON file with default values for the flags")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=strict)

    p = sub.add_parser("generate", help="write a synthetic long-tailed benchmark")
    p.add_argument("--out", required=True)
    _add_field_flags(p, data_mod.BenchmarkSpec)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="two-stage training on a generated benchmark")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--hidden", type=int, nargs="*", default=DEFAULT_HIDDEN)
    _add_field_flags(p, nn.TrainConfig)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("adapt-eval", help="streaming adaptation + metric report")
    _add_eval_args(p)
    p.add_argument("--alpha", type=float, default=doda.DEFAULT_ALPHA)
    p.add_argument("--oracle-fractions", default="0,0.25,0.5,0.75,1.0")
    p.add_argument("--events", action="store_true", help="also write the event log")
    p.set_defaults(func=cmd_adapt_eval)

    p = sub.add_parser("head-tail", help="evaluate against head and tail classes separately")
    _add_eval_args(p)
    p.add_argument("--alpha", type=float, default=doda.DEFAULT_ALPHA)
    p.add_argument("--mode", choices=list(HEAD_TAIL_MODES), default="doda")
    p.set_defaults(func=cmd_headtail)

    p = sub.add_parser("alpha-sweep", help="AUROC across the Z-score alpha grid")
    _add_eval_args(p)
    p.add_argument("--alphas", default="2.0,2.5,3.0,3.5,4.0")
    p.set_defaults(func=cmd_alpha_sweep)
    return parser


def _set_config_defaults(parser, command: str, path) -> None:
    """Make the JSON object in path the defaults of one subcommand, so that
    flags given on the command line win over it. ConfigError names the key
    that is not a flag of the subcommand or whose value the flag rejects."""
    try:
        with open(path) as fh:
            config = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    subcommands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    command_parser = subcommands.choices[command]
    actions = {a.dest: a for a in command_parser._actions if a.dest != "help"}
    defaults = {}
    for key, value in config.items():
        action = actions.get(key.replace("-", "_"))
        if action is None:
            raise ConfigError(f"config key {key!r} is not a flag of {command_parser.prog!r}")
        try:
            defaults[action.dest] = _config_value(action, value)
        except ValueError as exc:
            raise ConfigError(f"config key {key!r}: bad value {value!r}: {exc}") from exc
    command_parser.set_defaults(**defaults)


def _config_value(action, value):
    """value converted as the flag's command-line text would be."""
    if action.nargs == 0:  # a store_true switch
        if not isinstance(value, bool):
            raise ValueError("expected true or false")
        return value
    if (action.nargs == "*") != isinstance(value, list):
        raise ValueError("expected a list" if action.nargs == "*" else "expected one value")
    items = value if action.nargs == "*" else [value]
    if any(isinstance(v, bool) or not isinstance(v, (str, int, float)) for v in items):
        raise ValueError("expected strings or numbers")
    converted = [action.type(str(v)) if action.type else str(v) for v in items]
    if action.choices is not None and not set(converted) <= set(action.choices):
        raise ValueError(f"expected one of {', '.join(action.choices)}")
    return converted if action.nargs == "*" else converted[0]


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            _set_config_defaults(parser, args.command, args.config)
            args = parser.parse_args(argv)
        if args.seed < 0:  # every subcommand seeds a NumPy generator with it
            raise ConfigError(f"seed must be non-negative, got {args.seed}")
        return args.func(args)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    except (ConfigError, InvalidInputError, ShapeError, InsufficientDataError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (LogitFileError, UndefinedMetricError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (EnergyOverflowError, TrainingDivergedError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
