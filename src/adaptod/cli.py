"""Command-line entry point: dataset generation, two-stage training, streaming
adaptation + evaluation, head/tail splits, and the alpha sweep.

Every subcommand writes its outputs into a new run directory, complete or
absent, together with a manifest of every flag but --out, so a run is
reproducible from the manifest alone.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import shutil
import sys
import tempfile
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from . import data as data_mod
from . import doda, metrics, nn
from .errors import (UNIT, AdaptOdError, DataError, InvalidInputError, NumericError, check_int,
                     check_real)

EXIT_OK = 0
EXIT_CONFIG = InvalidInputError.exit_code
EXIT_DATA = DataError.exit_code
OOD_FRACTION = (lambda v: 0.0 < v < 1.0, "lie strictly between 0 and 1")  # rule of --ood-fraction

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
    """The sample sets of data_dir; DataError names a file whose rows are
    not as wide as those of the first, or an ID-test label no ID-train class has."""
    paths = {tag: Path(data_dir) / DATASET_FILES[tag] for tag in tags}
    sets = {tag: data_mod.read_sample_set(path, tag) for tag, path in paths.items()}
    first = tags[0]
    width = sets[first].features.shape[1]
    for tag, sample_set in sets.items():
        if sample_set.features.shape[1] != width:
            raise DataError(f"{paths[tag]}: rows hold {sample_set.features.shape[1]} "
                            f"values, but {paths[first]} rows hold {width}")
    if {data_mod.ID_TRAIN, data_mod.ID_TEST} <= sets.keys():
        k, label = sets[data_mod.ID_TRAIN].labels.max() + 1, sets[data_mod.ID_TEST].labels.max()
        if label >= k:
            raise DataError(f"{paths[data_mod.ID_TEST]}: label {label} is not one of the "
                            f"{k} classes of {paths[data_mod.ID_TRAIN]}")
    return sets


def build_stream(id_test: data_mod.SampleSet, true_ood: data_mod.SampleSet,
                 ood_fraction: float, seed: int):
    """Interleave ID-test and true-OOD samples by a seeded shuffle.

    Returns (features, is_ood flags, class labels) in stream order. The OOD
    count is chosen to hit ood_fraction given all ID samples, capped by what is
    available.
    """
    check_real(ood_fraction, "ood_fraction", OOD_FRACTION)
    check_int(seed, "seed", 0)
    n_id = id_test.n
    n_ood = min(true_ood.n, round(n_id * ood_fraction / (1.0 - ood_fraction)))
    if n_ood < 1:
        raise InvalidInputError(f"stream would contain no OOD samples: {n_id} ID samples "
                                f"at ood_fraction {ood_fraction}")
    feats = np.vstack([id_test.features, true_ood.features[:n_ood]])
    labels = np.concatenate([id_test.labels, np.full(n_ood, -1)])
    is_ood = np.concatenate([np.zeros(n_id, bool), np.ones(n_ood, bool)])
    order = np.random.default_rng(seed).permutation(feats.shape[0])
    return feats[order], is_ood[order], labels[order]


def prepare(model, datasets, *, alpha=doda.DEFAULT_ALPHA, virtual_count=1):
    """Forward each sample set once, as a whole, and fit what every stream of
    one command shares: (filter stats from the ID-train logits, P0 from the
    outlier logits, provenance tag -> the set with its logits for features).
    NumericError names the set, and the first sample whose logits, G or
    exp(logit) overflow, or P0's mean that does."""
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite logits are refused below
        logit_sets = {tag: replace(sample_set, features=model.forward(sample_set.features))
                      for tag, sample_set in datasets.items()}
    for tag, logit_set in logit_sets.items():
        bad = np.flatnonzero(~np.isfinite(logit_set.features).all(axis=1))
        if bad.size:
            raise NumericError(f"{tag} sample {bad[0]}: logits exceed float64 range")
    tag = data_mod.ID_TRAIN
    try:
        stats = doda.fit_energy_stats(logit_sets[tag].features, alpha)
        tag = data_mod.OUTLIER
        p0 = doda.init_outlier_distribution(logit_sets[tag].features, virtual_count=virtual_count)
    except NumericError as exc:  # named as the check above names a set
        raise NumericError(f"{tag} {exc}") from exc
    return stats, p0, logit_sets


def mode_plans(r):
    """The doda.run_plans plan (oracle fraction, filter threshold) of each
    evaluation mode at threshold r; uncalibrated's None is the score G."""
    return {"uncalibrated": None, "no_tta": (0.0, -math.inf), "doda": (0.0, r), "oracle": (1.0, r)}


def evaluate_plans(p0, stream, plans, *, seed=0):
    """Score a build_stream result of logits under each named plan: name ->
    {"report", "scores", "accepted", "final_state"}. A plan is a doda.run_plans
    (oracle fraction, filter threshold), or None for G, which adapts nothing:
    its mask and state are None. The distinct plans run in one call whose
    oracle plans share the draws of rng(seed), so no result depends on which
    other plans run. Names whose plans share a pass share one report."""
    stream_logits, is_ood, labels = stream
    is_id = ~is_ood
    predicted, true = stream_logits.argmax(axis=1)[is_id], labels[is_id]
    unique = list(dict.fromkeys(plan for plan in plans.values() if plan is not None))
    energies, runs = doda.run_plans(p0, stream_logits, unique, oracle_labels=is_ood,
                                    rng=np.random.default_rng(seed))
    # G is the score under P = 0, whose terms are divided by 1
    runs = {None: (energies.tolist(), None, None), **dict(zip(unique, runs))}
    passes = {name: runs[plan] for name, plan in plans.items()}
    shared = {id(res): res for res in passes.values()}  # idle plans share one result
    reports = {key: metrics.metric_report(np.asarray(res[0]), is_id, predicted, true)
               for key, res in shared.items()}
    return {name: {"report": reports[id(res)], "scores": res[0], "accepted": res[1],
                   "final_state": res[2]} for name, res in passes.items()}


def head_tail_reports(stats, p0, logit_sets, *, ood_fraction=0.5, seed=0, mode="doda"):
    """Evaluate one mode, a key of mode_plans, twice over prepare's logit sets,
    with ID restricted to the head half, then the tail half.

    Returns {"head": MetricReport, "tail": MetricReport}. Classes are ordered
    by training frequency, so the head half is the first half of class indices.
    """
    id_test = logit_sets[data_mod.ID_TEST]
    is_head = id_test.labels < (int(id_test.labels.max()) + 1) // 2
    halves = {"head": is_head, "tail": ~is_head}
    for name, mask in halves.items():  # both, before either is scored
        if not mask.any():
            raise DataError(f"no ID samples left in the {name} subset")
    plans, reports = {mode: mode_plans(stats.r)[mode]}, {}
    for name, mask in halves.items():
        half = replace(id_test, features=id_test.features[mask], labels=id_test.labels[mask])
        stream = build_stream(half, logit_sets[data_mod.TRUE_OOD], ood_fraction, seed)
        reports[name] = evaluate_plans(p0, stream, plans, seed=seed)[mode]["report"]
    return reports


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

# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _json(path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


@contextlib.contextmanager
def _run_dir(ns, **extra):
    """A directory for one command's files, staged beside --out. When the block
    ends, manifest.json (every flag in ns but --out, plus extra) is added and it
    is moved onto --out; on any failure it is removed: --out is complete or absent."""
    out = Path(ns.out).resolve()
    out.parent.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=out.parent, prefix=f".{out.name}."))
    try:
        stage = tmp / out.name
        stage.mkdir()  # the mode of any mkdir, not mkdtemp's 0o700
        yield stage
        params = {key: value for key, value in vars(ns).items()
                  if key not in ("out", "config", "command", "func")}  # --config's values are in ns
        _json(stage / "manifest.json", {"command": ns.command, "params": {**params, **extra}})
        stage.replace(out)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _flag_values(ns, settings_class) -> dict:
    """The parsed flags that _add_field_flags made for settings_class."""
    return {f.name: getattr(ns, f.name) for f in fields(settings_class)}


def cmd_generate(ns) -> int:
    spec, sets = benchmark_datasets(**_flag_values(ns, data_mod.BenchmarkSpec))
    with _run_dir(ns, class_counts=spec.class_counts()) as out_dir:
        for tag, sample_set in sets.items():
            data_mod.write_sample_set(out_dir / DATASET_FILES[tag], sample_set)
    return EXIT_OK


def cmd_train(ns) -> int:
    cfg = nn.TrainConfig(**_flag_values(ns, nn.TrainConfig))
    datasets = load_datasets(ns.data, (data_mod.ID_TRAIN, data_mod.OUTLIER))
    model, log = train_models(datasets, cfg, ns.hidden)
    with _run_dir(ns) as out_dir:
        nn.save_checkpoint(out_dir / "checkpoint.json", model)
        with open(out_dir / "loss_log.csv", "w") as fh:
            fh.write("epoch,total,ce,dne_c,dne_s\n")
            for i, row in enumerate(log):
                fh.write(f"{i},{row.total!r},{row.ce!r},{row.dne_c!r},{row.dne_s!r}\n")
    return EXIT_OK


def _write_histograms(out_dir: Path, logit_sets, adapted_scores) -> None:
    """50-bin histograms of global energy of the ID-test, outlier and true-OOD
    logits, by provenance tag, plus calibrated (adapted) scores of the stream."""
    populations = {tag.replace("-", "_"): doda.global_energies(logit_sets[tag].features)
                   for tag in (data_mod.ID_TEST, data_mod.OUTLIER, data_mod.TRUE_OOD)}
    populations["adapted_scores"] = np.asarray(adapted_scores)
    pooled = np.concatenate(list(populations.values()))
    edges = np.linspace(pooled.min(), pooled.max(), 51)
    counts = {name: np.histogram(vals, bins=edges)[0] for name, vals in populations.items()}
    with open(out_dir / "energy_hist.csv", "w") as fh:
        fh.write("bin_lo,bin_hi," + ",".join(counts) + "\n")
        for i in range(50):
            row = [repr(float(edges[i])), repr(float(edges[i + 1]))]
            row += [str(int(counts[name][i])) for name in counts]
            fh.write(",".join(row) + "\n")


def _prepare_run(ns, alpha):
    """The preamble of every evaluating command: --ood-fraction and
    --virtual-count checked before any file is read, then prepare of the data
    and of a model that fits it."""
    check_real(ns.ood_fraction, "ood_fraction", OOD_FRACTION)
    check_int(ns.virtual_count, "virtual_count", 0, doda.MAX_VIRTUAL_COUNT)
    datasets = load_datasets(ns.data)
    model = nn.load_checkpoint(ns.model)
    k_data = int(datasets[data_mod.ID_TRAIN].labels.max()) + 1
    if model.layer_dims[-1] != k_data:
        raise InvalidInputError(f"checkpoint k={model.layer_dims[-1]} does not match "
                                f"dataset k={k_data}")
    if model.layer_dims[0] != datasets[data_mod.ID_TRAIN].features.shape[1]:
        raise InvalidInputError("checkpoint input dim does not match dataset feature dim")
    return prepare(model, datasets, alpha=alpha, virtual_count=ns.virtual_count)


def cmd_adapt_eval(ns) -> int:
    fractions = [f + 0.0 for f in _parse_grid(ns.oracle_fractions)]  # -0 + 0.0 is 0.0
    named = {}
    for f in fractions:
        check_real(f, "oracle fraction", UNIT)
        if named.setdefault(f"{f:g}", f) != f:  # one sweep_<f> key per value
            raise InvalidInputError(f"oracle fractions {named[f'{f:g}']!r} and {f!r} would both "
                                    f"be reported as sweep_{f:g}")
    stats, p0, logit_sets = _prepare_run(ns, ns.alpha)
    stream = build_stream(logit_sets[data_mod.ID_TEST], logit_sets[data_mod.TRUE_OOD],
                          ns.ood_fraction, ns.seed)
    plans = mode_plans(stats.r) | {f"sweep_{f:g}": (f, stats.r) for f in fractions}
    results = evaluate_plans(p0, stream, plans, seed=ns.seed)
    with _run_dir(ns) as out_dir:
        _json(out_dir / "metrics.json", {mode: asdict(r["report"]) for mode, r in results.items()})
        if ns.events:  # plain DODA's accept mask, and the G of each sample
            run, energies = results["doda"], results["uncalibrated"]["scores"]
            with open(out_dir / "events.csv", "w") as fh:
                fh.write("sample_index,accepted,global_energy,calibrated_score\n")
                for i, (acc, g, score) in enumerate(zip(run["accepted"], energies, run["scores"])):
                    fh.write(f"{i},{int(acc)},{g!r},{score!r}\n")
        _write_histograms(out_dir, logit_sets, results["doda"]["scores"])
        state = results["doda"]["final_state"]  # canonical JSON for inspection; nothing reads it
        (out_dir / "adapter_state.json").write_text(json.dumps(
            {"k": state.k, "m": state.m, "values": state.values.tolist(), "mu_in": stats.mu_in,
             "sigma_in": stats.sigma_in, "alpha": stats.alpha}, sort_keys=True) + "\n")
    return EXIT_OK


def cmd_headtail(ns) -> int:
    stats, p0, logit_sets = _prepare_run(ns, ns.alpha)
    reports = head_tail_reports(stats, p0, logit_sets, ood_fraction=ns.ood_fraction,
                                seed=ns.seed, mode=ns.mode)
    with _run_dir(ns) as out_dir:
        _json(out_dir / "head_tail.json", {name: asdict(rep) for name, rep in reports.items()})
    return EXIT_OK


def cmd_alpha_sweep(ns) -> int:
    alphas = _parse_grid(ns.alphas)
    if not alphas:
        raise InvalidInputError("alpha grid is empty")
    fitted, p0, logit_sets = _prepare_run(ns, alphas[0])
    # mu_in and sigma_in do not depend on alpha; only the threshold R does.
    grid = [doda.EnergyStats(fitted.mu_in, fitted.sigma_in, a) for a in alphas]
    stream = build_stream(logit_sets[data_mod.ID_TEST], logit_sets[data_mod.TRUE_OOD],
                          ns.ood_fraction, ns.seed)
    results = evaluate_plans(p0, stream, {i: (0.0, stats.r) for i, stats in enumerate(grid)},
                             seed=ns.seed)
    with _run_dir(ns) as out_dir, open(out_dir / "alpha_sweep.csv", "w") as fh:
        fh.write("alpha,auroc\n")
        for i, alpha in enumerate(alphas):
            fh.write(f"{alpha!r},{results[i]['report'].auroc!r}\n")
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
        raise InvalidInputError(f"bad numeric grid {value!r}") from exc


def _add_field_flags(p, settings_class) -> None:
    """One flag per field of a settings dataclass, with the field's default."""
    for f in fields(settings_class):
        flag = "--" + f.name.replace("_", "-")
        p.add_argument(flag, type=type(f.default), default=f.default)


def _add_eval_args(p):
    p.add_argument("--data", required=True, help="directory produced by `generate`")
    p.add_argument("--model", required=True, help="checkpoint.json from `train`")
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
    _add_field_flags(p, data_mod.BenchmarkSpec)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="two-stage training on a generated benchmark")
    p.add_argument("--data", required=True)
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
    p.add_argument("--mode", choices=list(mode_plans(0.0)), default="doda")
    p.set_defaults(func=cmd_headtail)

    p = sub.add_parser("alpha-sweep", help="AUROC across the Z-score alpha grid")
    _add_eval_args(p)
    p.add_argument("--alphas", default="2.0,2.5,3.0,3.5,4.0")
    p.set_defaults(func=cmd_alpha_sweep)
    for p in sub.choices.values():
        p.add_argument("--out", required=True, help="run directory, refused if not empty")
    return parser


def _set_config_defaults(parser, command: str, path) -> None:
    """Make the JSON object in path the defaults of one subcommand, so that
    flags given on the command line win over it. InvalidInputError names the key
    that is not a flag of the subcommand or whose value the flag rejects."""
    try:
        with open(path) as fh:
            config = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise InvalidInputError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(config, dict):
        raise InvalidInputError("config must be a JSON object")
    subcommands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    command_parser = subcommands.choices[command]
    actions = {a.dest: a for a in command_parser._actions if a.dest != "help"}
    defaults = {}
    for key, value in config.items():
        action = actions.get(key.replace("-", "_"))
        if action is None:
            raise InvalidInputError(f"config key {key!r} is not a flag of {command_parser.prog!r}")
        try:
            defaults[action.dest] = _config_value(action, value)
        except ValueError as exc:
            raise InvalidInputError(f"config key {key!r}: bad value {value!r}: {exc}") from exc
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
        check_int(args.seed, "seed", 0)  # every subcommand seeds a NumPy generator with it
        out = Path(args.out)  # refused, not replaced: it may hold files no flag names
        if out.exists() and not (out.is_dir() and not any(out.iterdir())):
            raise InvalidInputError(f"--out {out} exists and is not an empty directory")
        return args.func(args)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    except AdaptOdError as exc:
        print(f"{exc.kind} error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
