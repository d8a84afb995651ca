"""The pipeline's artifacts and the desk benchmark's outputs equal the
recorded golden digests."""

import json

from golden_digests import (
    GOLDEN,
    SEEDS,
    desk_digest,
    differences,
    environment,
    pipeline_digests,
)


def test_pipeline_artifacts_match_the_golden_digests(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden["digests"]) == sorted(map(str, SEEDS))
    got = {str(seed): pipeline_digests(tmp_path, seed) for seed in SEEDS}
    mismatches = differences(golden["digests"], got)
    assert not mismatches, (
        "artifacts differ from tests/golden_digests.json (recorded under "
        f"{golden['environment']}, running under {environment()}):\n" + "\n".join(mismatches))


def test_desk_benchmark_matches_its_golden_digest():
    golden = json.loads(GOLDEN.read_text())
    got = desk_digest()
    assert got == golden["desk_benchmark"], (
        f"the six-seed desk benchmark digest is {got}, not {golden['desk_benchmark']} as in "
        f"tests/golden_digests.json (recorded under {golden['environment']}, running under "
        f"{environment()})")


def test_differences_name_each_changed_new_and_missing_entry():
    old = {"0": {"a.csv": "1", "b.csv": "2", "c.csv": "3"}, "7": {"a.csv": "1"}}
    new = {"0": {"a.csv": "1", "b.csv": "9", "d.csv": "4"}, "8": {"a.csv": "1"}}
    assert differences(old, new) == [
        "seed 0: b.csv changed", "seed 0: c.csv missing", "seed 0: d.csv new",
        "seed 7: a.csv missing", "seed 8: a.csv new"]
    assert differences(old, old) == []
