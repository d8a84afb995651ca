"""Golden sha256 digests of the five-command pipeline's artifacts and of the
desk benchmark.

``pipeline_digests(workdir, seed)`` runs ``generate → train → adapt-eval
--events → head-tail → alpha-sweep`` in process, with the benchmark's
``generate`` settings, and hashes every file it writes except the manifests
(they hold paths). ``desk_digest()`` hashes the outputs of
``test_acceptance.desk_benchmark`` (AUROCs of every mode, the oracle sweep and
head/tail, from two trainings a seed) at six seeds: the first 16 hex digits
of the sha256 of their ``repr``. ``tests/test_golden.py`` compares both with
``golden_digests.json``.

Rewrite the file only for a change that alters bytes on purpose, and name
every changed file and the reason in CHANGES.md:

    PYTHONPATH=src python tests/golden_digests.py

Before it writes, the script prints each entry that is changed, new or
missing against the file it replaces, one ``seed <s>: <file> <status>`` line
each, and ``desk benchmark: <old> -> <new>`` if that digest changed: the list
that CHANGES.md should hold.
"""

from __future__ import annotations

import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from adaptod import cli
from test_acceptance import desk_benchmark

GOLDEN = Path(__file__).with_name("golden_digests.json")
SEEDS = (0, 1009)
GENERATE = ["--n-test-per-class", "100", "--n-ood", "1000", "--n-out", "1000"]
DESK_SEEDS = (0, 1, 2, 3, 4, 1009)
DESK_FRACTIONS = (0.0, 0.25, 0.5, 0.75, 1.0)


def pipeline_digests(workdir: Path, seed: int) -> dict[str, str]:
    """Relative path -> sha256 of every non-manifest file one pipeline writes."""
    run = Path(workdir) / f"seed{seed}"
    s = ["--seed", str(seed)]
    dat, ckpt = ["--data", str(run / "data")], ["--model", str(run / "model/checkpoint.json")]
    for argv in (["generate", "--out", str(run / "data"), *s, *GENERATE],
                 ["train", *dat, "--out", str(run / "model"), *s],
                 ["adapt-eval", *dat, *ckpt, "--out", str(run / "eval"), "--events", *s],
                 ["head-tail", *dat, *ckpt, "--out", str(run / "ht"), *s],
                 ["alpha-sweep", *dat, *ckpt, "--out", str(run / "alpha"), *s]):
        rc = cli.main(argv)
        if rc != 0:
            raise RuntimeError(f"{argv[0]} exited {rc}")
    return {p.relative_to(run).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(run.rglob("*")) if p.is_file() and p.name != "manifest.json"}


def desk_digest() -> str:
    """The six-seed digest of the desk benchmark."""
    outputs = [desk_benchmark(seed, DESK_FRACTIONS) for seed in DESK_SEEDS]
    return hashlib.sha256(repr(outputs).encode()).hexdigest()[:16]


def differences(old: dict, new: dict) -> list[str]:
    """"seed <s>: <file> changed|new|missing" for each entry of the seed ->
    {file: digest} maps old and new that differs."""
    lines = []
    for seed in sorted(set(old) | set(new)):
        was, now = old.get(seed, {}), new.get(seed, {})
        for name in sorted(set(was) | set(now)):
            if was.get(name) != now.get(name):
                status = "missing" if name not in now else "new" if name not in was else "changed"
                lines.append(f"seed {seed}: {name} {status}")
    return lines


def environment() -> dict[str, str]:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "machine": platform.machine()}


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        digests = {str(seed): pipeline_digests(Path(tmp), seed) for seed in SEEDS}
    desk = desk_digest()
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    for line in differences(old.get("digests", {}), digests):
        print(line)
    if old.get("desk_benchmark") != desk:
        print(f"desk benchmark: {old.get('desk_benchmark')} -> {desk}")
    payload = {"environment": environment(), "generate": GENERATE, "digests": digests,
               "desk_benchmark": desk}
    GOLDEN.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    print(f"wrote {GOLDEN} ({sum(map(len, digests.values()))} digests)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
