"""Fast self-test of the benchmark on truncated inputs.

    python3 perfbench/selftest.py        (or: python3 -m pytest perfbench/selftest.py)

Runs every workload of BENCHMARK.json once untraced and once traced at a
tiny size, and checks that each reports exactly the metrics BENCHMARK.json
names, with their units, and that no wrapper stays installed afterwards.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
from tracer import installed_wrappers  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_every_metric_with_its_unit_and_no_wrapper_left():
    for workload in SPEC["workloads"]:
        for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
            result, record = bench.run_workload(workload["name"], seed=7, seconds=0.1,
                                                trace=trace, tiny=True, keep_spans=False)
            where = f"{workload['name']} trace={int(trace)}"
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
            assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"], where
            expected = {m["name"]: m["unit"] for m in SPEC[kind]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == expected, f"{where}: {sorted(set(got) ^ set(expected))}"
            for name, m in result["metrics"].items():
                assert math.isfinite(m["value"]), f"{where}: {name} = {m['value']}"
            assert installed_wrappers() == [], where
            assert record["seed"] == 7 and record["environment"]["nproc"] >= 1, where
            json.dumps(result)


if __name__ == "__main__":
    test_every_metric_with_its_unit_and_no_wrapper_left()
    print("perfbench selftest ok")
