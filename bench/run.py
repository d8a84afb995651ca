"""adaptod benchmark: end-to-end and per-layer timings, with output checks.

    python3 bench/run.py --workload {stream,train,pipeline} --seed N \
        --seconds S --trace {0,1}
    python3 bench/run.py --workload all --seed N --seconds S [--label NAME]

One run builds its inputs from --seed, sets the workload up several times,
then repeats units of the workload's work for --seconds seconds (at least
two), checking every unit's outputs. With --trace 0 every unit is untraced
and the run reports the end-to-end metrics of BENCHMARK.json; with
--trace 1 units alternate between untraced and traced, and the run reports
the per-layer metrics, computed from spans recorded around the calls into
each adaptod module, plus the tracing overhead. Human-readable lines come
first (metric, value, unit, sample count); the last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.

`--workload all` runs every workload with both trace settings in child
processes, prints everything, and with --label writes bench/BENCH_<label>.json.
"""

from __future__ import annotations

import os

# Fixed before NumPy is imported, so BLAS cannot start more threads than this.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("stream", "train", "pipeline")
BASELINE_SEED = 0  # seed of the committed bench/BENCH_baseline.json
HELD_OUT_SEED = 1009  # never used while tuning; confirm perf claims on it too


# On a shared host the CPU speed this process gets swings by a quarter or
# more within minutes, and every wall-clock time moves with it. So the run
# also times a fixed NumPy + interpreter loop (probe_s) before and after
# every set-up and unit, and scales each of those times to the machine speed
# at which that loop takes PROBE_NOMINAL_S. Wall-clock medians and the speed
# factor are printed beside the scaled ones.
PROBE_NOMINAL_S = 0.030


def probe_s() -> float:
    """Time one pass of the fixed speed-probe loop (no adaptod code)."""
    import numpy as np

    x = np.linspace(-1.0, 1.0, 640).reshape(64, 10)
    t = time.perf_counter()
    acc = 0.0
    for i in range(3000):
        y = x * 1.0001 + i
        acc += float(np.exp(y - y.max(axis=0)).sum())
    return time.perf_counter() - t


class SpeedProbe:
    """Scales each timed step by the probe runs just before and after it."""

    def __init__(self):
        self.times = [probe_s()]

    def scale(self, raw_s: float) -> float:
        self.times.append(probe_s())
        return raw_s * 2 * PROBE_NOMINAL_S / (self.times[-2] + self.times[-1])


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    p.add_argument("--seed", type=int, default=BASELINE_SEED)
    p.add_argument("--seconds", type=float, default=None,
                   help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--label", help="with --workload all: write bench/BENCH_<label>.json")
    return p.parse_args(argv)


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1m": os.getloadavg()[0],
        "machine": platform.machine(),
    }


def import_adaptod():
    """Import adaptod from this checkout's src/ only, never from elsewhere."""
    if not (SRC / "adaptod" / "__init__.py").is_file():
        raise ImportError(f"no adaptod package under {SRC}")
    sys.path.insert(0, str(SRC))
    import adaptod

    if Path(adaptod.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"adaptod imported from {adaptod.__file__}, not {SRC}")


def layer_metrics(table, extras: dict, overhead: float) -> dict:
    """Per-layer metric name -> (value, sample-count note)."""
    from spans import ratio

    t = table
    us = 1e6
    fine_tune_steps = t.calls("dne.total_loss_grad") + t.calls("dne.loss_and_grad")
    generated = sum(t.seconds(f"data.{f}") for f in
                    ("generate_long_tailed", "generate_outliers", "generate_true_ood"))
    m = {
        "data.generate_s": (ratio(generated, t.calls("data.generate_long_tailed")),
                            f"{t.calls('data.generate_long_tailed')} data sets"),
        "data.write_us_per_row": (us * ratio(t.seconds("data.write_sample_set"),
                                             t.rows("data.write_sample_set")),
                                  f"{t.rows('data.write_sample_set')} rows"),
        "data.read_us_per_row": (us * ratio(t.seconds("data.read_sample_set"),
                                            t.rows("data.read_sample_set")),
                                 f"{t.rows('data.read_sample_set')} rows"),
        "data.bytes_written": (extras.pop("data.bytes_written", 0), "per unit"),
        "nn.forward_us_per_row": (us * ratio(t.seconds("nn.Mlp.forward"), t.rows("nn.Mlp.forward")),
                                  f"{t.rows('nn.Mlp.forward')} rows"),
        "nn.forward_calls": (t.calls_per_unit("nn.Mlp.forward"), "per unit"),
        "nn.train_self_s": (ratio(t.self_seconds("nn.train"), t.calls("nn.train")),
                            f"{t.calls('nn.train')} calls"),
        "nn.steps": (t.calls_per_unit("nn._sgd_step"), "per unit"),
        "dne.loss_us_per_step": (us * ratio(t.seconds("dne.total_loss"), fine_tune_steps),
                                 f"{fine_tune_steps} steps"),
        "dne.grad_us_per_step": (us * ratio(t.seconds("dne.total_loss_grad")
                                            + t.seconds("dne.loss_and_grad"), fine_tune_steps),
                                 f"{fine_tune_steps} steps"),
        "dne.calls": (sum(t.calls_per_unit(f"dne.{f}") for f in
                          ("total_loss", "total_loss_grad", "loss_and_grad")), "per unit"),
        "energy.normalize_calls_per_step": (
            ratio(t.calls("energy.batch_energy_normalize"), fine_tune_steps),
            f"{fine_tune_steps} steps"),
        "energy.normalize_us": (us * ratio(t.seconds("energy.batch_energy_normalize"),
                                           t.calls("energy.batch_energy_normalize")),
                                f"{t.calls('energy.batch_energy_normalize')} calls"),
    }
    for mode in ("freeze", "plain", "oracle"):
        samples = t.rows("doda.run_stream", mode)
        m[f"doda.stream_us_per_sample.{mode}"] = (
            us * ratio(t.seconds("doda.run_stream", mode), samples), f"{samples} samples")
        m[f"doda.accepted.{mode}"] = (t.accepted_per_unit(mode), "per unit")
        for kind in ("precision", "recall"):
            key = f"doda.accept_{kind}.{mode}"
            m[key] = (extras.pop(key, 0.0), "event log of one untimed pass, stream workload only")
    m["doda.run_stream_calls"] = (t.calls_per_unit("doda.run_stream"), "per unit")
    for name, span in (("fit_stats", "fit_energy_stats"), ("init", "init_outlier_distribution")):
        rows = t.rows(f"doda.{span}")
        m[f"doda.{name}_us_per_row"] = (us * ratio(t.seconds(f"doda.{span}"), rows),
                                        f"{rows} rows")
    for q in ("p50", "p99"):
        key = f"doda.score_{q}_us"
        m[key] = (extras.pop(key, 0.0), "untraced units, stream workload only")
    samples = t.rows("metrics.metric_report")
    m["metrics.report_us_per_sample"] = (us * ratio(t.seconds("metrics.metric_report"), samples),
                                         f"{samples} samples")
    m["metrics.report_calls"] = (t.calls_per_unit("metrics.metric_report"), "per unit")
    for sub, fn in (("generate", "cmd_generate"), ("train", "cmd_train"),
                    ("adapt_eval", "cmd_adapt_eval"), ("head_tail", "cmd_headtail"),
                    ("alpha_sweep", "cmd_alpha_sweep")):
        calls = t.calls(f"cli.{fn}")
        m[f"cli.{sub}_s"] = (ratio(t.seconds(f"cli.{fn}"), calls), f"{calls} calls")
        m[f"cli.{sub}_self_s"] = (ratio(t.self_seconds(f"cli.{fn}"), calls), f"{calls} calls")
    m["trace.overhead_frac"] = (overhead, "median traced / untraced unit - 1")
    return m


def run_workload(args, spec: dict) -> int:
    try:
        import_adaptod()
    except ImportError as exc:
        print(f"error: cannot import adaptod: {exc}", file=sys.stderr)
        return 2
    from spans import SpanTable, Tracer
    from workloads import WORKLOADS, Outcomes

    env = environment()
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        out = Outcomes()
        tracer = Tracer() if args.trace else None

        probe = SpeedProbe()
        setup_s, setup_scaled = [], []
        for i in range(workload.setup_reps):
            traced = tracer is not None and i == workload.setup_reps - 1
            if traced:
                tracer.install()
            t = time.perf_counter()
            workload.setup()
            setup_s.append(time.perf_counter() - t)
            if traced:
                tracer.uninstall()
            setup_scaled.append(probe.scale(setup_s[-1]))
        workload.prepare(out)

        unit_s = {False: [], True: []}
        work_scaled = []
        start = time.perf_counter()
        while True:
            traced = tracer is not None and len(unit_s[False]) > len(unit_s[True])
            gc.collect()
            if traced:
                tracer.run_id = len(unit_s[True]) + 1
                tracer.install()
            try:
                unit_s[traced].append(workload.unit(out, record=not traced))
            finally:
                if traced:
                    tracer.uninstall()
            scaled = probe.scale(unit_s[traced][-1])
            if not traced:
                work_scaled.append(scaled)
            workload.check(out)
            enough = len(unit_s[False]) >= 2 and (tracer is None or len(unit_s[True]) >= 2)
            if enough and time.perf_counter() - start >= args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    extra_units = {"failed_frac": "frac", "train_s": "s", "pipeline_s": "s", "setup_raw_s": "s",
                   "work_raw_s": "s", "speed_factor": "x"}
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    units = len(unit_s[False])
    if args.trace:
        overhead = statistics.median(unit_s[True]) / statistics.median(unit_s[False]) - 1.0
        table = SpanTable(tracer)
        metrics = layer_metrics(table, workload.layer_extras(), overhead)
        wanted = spec["per_layer"]
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.csv.gz"
        tracer.write(spans_path)
    else:
        work_s = statistics.median(work_scaled)
        metrics = {
            "setup_s": (statistics.median(setup_scaled), f"{len(setup_s)} set-ups"),
            "work_s": (work_s, f"{units} units"),
            "peak_rss_mb": (peak_rss_mb, "1 process"),
            "setup_raw_s": (statistics.median(setup_s), f"{len(setup_s)} set-ups, wall clock"),
            "work_raw_s": (statistics.median(unit_s[False]), f"{units} units, wall clock"),
            "speed_factor": (statistics.median(probe.times) / PROBE_NOMINAL_S,
                             f"{len(probe.times)} probes, median / {PROBE_NOMINAL_S} s"),
        }
        wanted = spec["end_to_end"]
        named = {"train": "train_s", "pipeline": "pipeline_s"}
        if args.workload in named:
            metrics[named[args.workload]] = (work_s, f"{units} units")
        for name, (value, unit, note) in workload.report().items():
            metrics[name] = (value, note)
            extra_units[name] = unit
        metrics["failed_frac"] = (out.failed / max(out.attempted, 1),
                                  f"{out.failed}/{out.attempted} operations")

    units_of = {m["name"]: m["unit"] for m in wanted}
    print(f"# env: {json.dumps(env, sort_keys=True)}")
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"units={units}+{len(unit_s[True])} traced")
    if args.trace:
        print(f"# spans: {len(tracer.t0)} written to {spans_path.relative_to(ROOT)}; "
              f"absent targets: {', '.join(tracer.absent) or 'none'}")
    for name, (value, note) in metrics.items():
        unit = units_of.get(name) or extra_units.get(name, "")
        print(f"{args.workload:<9} {name:<34} {value:>16.6f} {unit:<10} n={note}")
    for err in out.errors[:20]:
        print(f"# error: {err}")
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    result = {
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {m["name"]: {"value": float(metrics[m["name"]][0]), "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0


def run_all(args, spec: dict) -> int:
    """Every workload, untraced then traced, each in its own child process."""
    results, attempted, failed, metrics = {}, 0, 0, {}
    correct = True
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
            lines = proc.stdout.splitlines()
            for line in lines[:-1]:
                print(line)
            if proc.returncode != 0:
                print(f"error: {workload} trace={trace} exited {proc.returncode}",
                      file=sys.stderr)
                return proc.returncode or 1
            res = json.loads(lines[-1])
            results.setdefault(workload, {})[f"trace{trace}"] = {"lines": lines[:-1],
                                                                 "result": res}
            correct &= res["correct"]
            attempted += res["attempted"]
            failed += res["failed"]
            metrics.update({f"{workload}/{k}": v for k, v in res["metrics"].items()})
    if args.label:
        path = BENCH_DIR / f"BENCH_{args.label}.json"
        with open(path, "w") as fh:
            json.dump({"label": args.label, "seed": args.seed, "held_out_seed": HELD_OUT_SEED,
                       "seconds": args.seconds, "env": environment(), "results": results},
                      fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"# wrote {path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload == "all":
        return run_all(args, spec)
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
