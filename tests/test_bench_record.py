"""Shape of the committed benchmark records ``BENCH_<k>.json``.

Each record holds alternating parent/change runs of ``perfbench/run.py``:
per workload and side, every end-to-end metric's per-seed values with their
median and quartiles, and the passes each run sent; the ``env`` block of
each side; the seed-1 work-gate counters of each side; and ``peak_rss_mb``
at three passes.  The check is on the shape alone, so a record cannot drift
from the numbers it lists.
"""

import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
SIDES = ("parent", "change")
METRICS = ("setup_s", "wall_s", "verdict_ms.p50", "verdict_ms.tail", "peak_rss_mb")
ENV_KEYS = {"commit", "cpu_model", "nproc", "python", "numpy", "source_sha256", "seconds"}
WORKLOADS = {"tensor-legs", "rational-ops", "small-algebra"}


def test_there_is_a_record():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_shape(path):
    record = json.loads(path.read_text())
    for side in SIDES:
        assert ENV_KEYS <= set(record["env"][side])
        assert set(record["work_gates"][side]) == WORKLOADS
        assert set(record["peak_rss_mb_at_3_passes"][side]) == WORKLOADS
    assert record["env"]["parent"]["commit"] != record["env"]["change"]["commit"]
    assert set(record["workloads"]) == WORKLOADS
    for name, workload in record["workloads"].items():
        seeds = workload["seeds"]
        assert len(seeds) >= 3 and len(workload["first"]) == len(seeds)
        assert set(workload["first"]) == set(SIDES)  # the order alternates
        for side in SIDES:
            assert len(workload["passes"][side]) == len(seeds)
            for metric in METRICS:
                stats = workload["metrics"][metric][side]
                values = stats["values"]
                assert len(values) == len(seeds), (name, metric, side)
                assert stats["median"] == statistics.median(values)
                q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
                assert (stats["q1"], stats["q3"]) == (q1, q3)
                assert q1 <= stats["median"] <= q3
