"""The pipeline's artifacts equal the recorded golden digests byte for byte."""

import json

from golden_digests import GOLDEN, SEEDS, environment, pipeline_digests


def test_pipeline_artifacts_match_the_golden_digests(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden["digests"]) == sorted(map(str, SEEDS))
    mismatches = []
    for seed in SEEDS:
        want = golden["digests"][str(seed)]
        got = pipeline_digests(tmp_path, seed)
        for name in sorted(set(want) | set(got)):
            if want.get(name) != got.get(name):
                status = "missing" if name not in got else "new" if name not in want \
                    else "changed"
                mismatches.append(f"seed {seed}: {name} {status}")
    assert not mismatches, (
        "artifacts differ from tests/golden_digests.json (recorded under "
        f"{golden['environment']}, running under {environment()}):\n" + "\n".join(mismatches))
