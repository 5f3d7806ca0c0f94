"""The benchmark's stored reference, checked in process on four variants.

Each workload of bench/workloads.py runs its shipped scenario through the
CLI into a temporary directory, and the benchmark's own checker compares
the artifacts with bench/reference.json: variant 0, the shipped scenario,
and the perturbed variants 1, 8 and 31, selected by the seeds of the same
numbers (variant 8 at tau = 1.7 is the input most sensitive to rounding).
A change that moves a stored value past the benchmark's tolerance then
fails here, without a benchmark run.  Nothing under bench/ is written.
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


def _problems(workload, seed, tmp_path):
    out = workloads.run_inprocess(workload, seed, str(tmp_path))
    return workloads.check(workload, seed, out, workloads.load_reference())


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_variant_zero_matches_reference(workload, tmp_path):
    assert _problems(workload, 0, tmp_path) == []


@pytest.mark.parametrize("seed", [1, 8, 31])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_perturbed_variant_matches_reference(workload, seed, tmp_path):
    assert workloads.variant(seed) == seed
    assert _problems(workload, seed, tmp_path) == []
