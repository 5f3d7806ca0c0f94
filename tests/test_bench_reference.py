"""The benchmark's stored reference, checked in process at variant 0.

Each workload of bench/workloads.py runs its shipped scenario through the
CLI into a temporary directory, and the benchmark's own checker compares
the artifacts with bench/reference.json.  A change that moves a stored
value past the benchmark's tolerance then fails here, without a benchmark
run.  Nothing under bench/ is written.
"""

import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_variant_zero_matches_reference(workload, tmp_path):
    out = workloads.run_inprocess(workload, 0, str(tmp_path))
    assert workloads.check(workload, 0, out, workloads.load_reference()) == []
