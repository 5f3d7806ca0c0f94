"""Run one benchmark workload and print its metrics as a JSON line.

Usage (from the repository root):
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each repetition runs the workload in a fresh child process (bench/child.py)
with BLAS/OpenMP threads pinned to 1, on one of the run's inputs (see
`_input_seed`), checks its artifacts against the stored reference and
against the bytes of the first repetition on the same input, and keeps starting
repetitions while the next one is expected to end within S seconds (closed
loop, one client).  The last stdout line is
{"correct", "attempted", "failed", "metrics"}: with --trace 0 the end-to-end
metrics (medians over repetitions; times scaled to reference speed, see
`_speed_scale`), with --trace 1 the per-layer metrics
from the traced repetitions, which alternate with untraced ones so that the
tracing overhead can be reported.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import tracer
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(workloads.ROOT, "src")
CHILD_TIMEOUT_S = 150
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Calibration kernel time (child.calibrate) that defines reference speed;
# about its median on the 2-vCPU Xeon VM the benchmark was built on.
REFERENCE_CALIBRATION_S = 0.125
# Inputs one run cycles through.  The sweep count, and so the time, differs
# by up to 25 % between inputs of `duopoly-compare`; spreading each run over
# several inputs keeps one input from setting a run's medians.
INPUTS_PER_RUN = 4


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def _input_seed(seed: int, attempt: int) -> int:
    """Workload seed of the repetition numbered `attempt` (from 0).

    Seed 0 keeps the shipped scenario.  Any other seed cycles through the
    INPUTS_PER_RUN consecutive seeds starting at it, two repetitions per
    input, so that a traced repetition and the untraced one before it share
    their input.
    """
    return seed + (attempt // 2) % INPUTS_PER_RUN if seed else 0


def _run_child(workload: str, seed: int, workdir: str, traced: bool,
               env: dict[str, str]) -> tuple[dict | None, str]:
    """One repetition: (record, "") or (None, reason it failed)."""
    shutil.rmtree(os.path.join(workdir, "out"), ignore_errors=True)
    record_path = os.path.join(workdir, "record.json")
    if os.path.exists(record_path):
        os.remove(record_path)
    cmd = [sys.executable, os.path.join(BENCH, "child.py"), workload,
           str(seed), workdir, "1" if traced else "0"]
    t_spawn = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(cmd, cwd=workloads.ROOT, env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {CHILD_TIMEOUT_S} s"
    if proc.returncode != 0:
        tail = proc.stderr.decode(errors="replace").strip().splitlines()[-3:]
        return None, f"exit code {proc.returncode}: {' | '.join(tail)}"
    with open(record_path, encoding="utf-8") as fh:
        record = json.load(fh)
    record["setup_s"] = record["t_ready"] - t_spawn
    return record, ""


def _traced_problems(record: dict, out: str) -> list[str]:
    """The traced sweep count must equal the one the program reports."""
    path = os.path.join(out, "summary.json")
    if not os.path.isfile(path):
        return []
    with open(path, encoding="utf-8") as fh:
        reported = json.load(fh)["sweep_report"]["iterations"]
    traced = record["layers"]["solver.sweeps"]
    if traced != reported:
        return [f"traced solver.sweeps {traced} != sweep_report {reported}"]
    return []


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _speed_scale(record: dict) -> float:
    """Factor that converts this repetition's times to reference speed.

    The host's throughput switches between states up to 1.8x apart, each
    lasting seconds to minutes, so raw times of one run depend on which
    states it met.  The child times a fixed calibration kernel just before
    and just after `main`; dividing by its mean cancels the machine state
    and leaves the program's own cost, in seconds of a machine on which
    the kernel takes REFERENCE_CALIBRATION_S.
    """
    return REFERENCE_CALIBRATION_S / statistics.fmean(record["calib_s"])


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    if not os.path.isfile(os.path.join(SRC, "eccsim", "cli.py")):
        print(f"error: no eccsim sources under {SRC}", file=sys.stderr)
        return 1
    reference = workloads.load_reference()
    env = _child_env()
    workdir = os.path.join(workloads.WORK_DIR, f"{workload}-{seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    min_reps = 4 if trace else 3
    runs = []          # (traced, record)
    attempted = failed = 0
    first_digests = {}     # input variant -> artifact digest
    artifact_bytes = 0
    start = time.perf_counter()
    try:
        while True:
            traced = trace and attempted % 2 == 1
            input_seed = _input_seed(seed, attempted)
            attempted += 1
            record, error = _run_child(workload, input_seed, workdir, traced, env)
            out = os.path.join(workdir, "out")
            problems = [error] if error else []
            if record is not None:
                problems += workloads.check(workload, input_seed, out, reference)
                digest, artifact_bytes = workloads.artifact_digest(out)
                variant = workloads.variant(input_seed)
                if first_digests.setdefault(variant, digest) != digest:
                    problems.append("artifacts differ from the first repetition"
                                    " on the same input")
                if traced:
                    problems += _traced_problems(record, out)
                runs.append((traced, record))
            if problems:
                failed += 1
                print(f"repetition {attempted} failed: " + "; ".join(problems),
                      file=sys.stderr)
            elapsed = time.perf_counter() - start
            if (attempted >= min_reps
                    and elapsed * (attempted + 1) / attempted > seconds):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plain = [r for t, r in runs if not t]
    if not plain or (trace and len(plain) == len(runs)):
        print("error: no repetition produced a record", file=sys.stderr)
        return 1
    med = statistics.median
    walls = [r["wall_s"] * _speed_scale(r) for r in plain]
    setups = [r["setup_s"] * _speed_scale(r) for r in plain]
    info = {
        "workload": workload, "seed": seed,
        "variants": sorted(first_digests),
        "repetitions": len(runs), "elapsed_s": time.perf_counter() - start,
        "env": {"nproc": len(os.sched_getaffinity(0)), "cpu": _cpu_model(),
                **runs[0][1]["versions"]},
        "wall_s_samples": walls,
        "setup_s_samples": setups,
        "raw_wall_s_samples": [r["wall_s"] for r in plain],
        "raw_setup_s_samples": [r["setup_s"] for r in plain],
        "calib_s_samples": [r["calib_s"] for r in plain],
    }
    if trace:
        traced_runs = [r for t, r in runs if t]
        layers = {name: _metric(med(r["layers"][name] for r in traced_runs), unit)
                  for name, unit in tracer.UNITS.items()}
        layers["setup.import_s"] = _metric(med(r["import_s"] for _, r in runs), "s")
        layers["cli.artifact_bytes"] = _metric(artifact_bytes, "bytes")
        # Each traced repetition against the untraced one just before it, so
        # that drift in machine speed between repetitions cancels.
        scaled = [(t, r["wall_s"] * _speed_scale(r)) for t, r in runs]
        ratios = [b / a - 1.0
                  for (ta, a), (tb, b) in zip(scaled, scaled[1:]) if tb and not ta]
        layers["trace_overhead_frac"] = _metric(med(ratios) if ratios else 0.0, "frac")
        metrics = layers
    else:
        metrics = {
            "wall_s": _metric(med(walls), "s"),
            "setup_s": _metric(med(setups), "s"),
            "peak_rss_mb": _metric(med(r["maxrss_kb"] for r in plain) / 1024.0, "MB"),
        }
    print(json.dumps(info))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
