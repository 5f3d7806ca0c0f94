"""Workload definitions, seeded scenario generation and the output checker.

Each workload is one `eccsim` CLI command on a shipped scenario, at a size
fixed here through the CLI's own flags.  A seed selects the scenario: seed 0
is the shipped file unchanged, any other seed perturbs `x0` inside the
simplex.  Seeds map onto VARIANTS stored input variants so that every run can
be checked against a stored reference (`reference.json`).
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import shutil

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")
# Scratch space for scenarios and artifacts; removed after each run.
WORK_DIR = os.path.join(ROOT, ".bench_run")

# Number of stored input variants; variant 0 is the shipped scenario.
VARIANTS = 32
# Weight of the random simplex point mixed into the shipped x0.
PERTURBATION = 0.3
# Allowed deviation from the reference, relative to max(1, |reference|).
# A convergent solver that agrees to ~1e-9 passes; swapping olsec for ssec,
# or ignoring the 0.7 reaction delay, moves some value by more than 1e-6.
TOLERANCE = 1e-6

WORKLOADS = {
    # Eight independent solves (olsec and ssec at four learning rates, N=2)
    # on one grid: per-node sweep cost dominates, the only workload where
    # batching across solves can act and the only one running ssec.
    "duopoly-compare": {
        "command": "compare",
        "scenario": "scenarios/scenario_a.json",
        "flags": ["--dt", "1.0"],
        "artifacts": ("compare.csv", "compare_summary.json"),
    },
    # One olsec solve with N=6: the sweep count dominates, so convergence
    # acceleration shows here most; the only workload writing trajectory.csv.
    "n6-olsec": {
        "command": "simulate",
        "scenario": "scenarios/scenario_n6.json",
        "flags": ["--horizon", "30", "--dt", "0.25"],
        "artifacts": ("summary.json", "trajectory.csv"),
    },
    # Fixed controls with reaction delay tau = 0.7 and 1.7 (the scenario's
    # sweep block): the delay integrator, replicator field and model only,
    # never the sweep or the adjoints.
    "delay-sweep": {
        "command": "sweep",
        "scenario": "scenarios/scenario_delay.json",
        "flags": [],
        "artifacts": ("sweep.csv",),
    },
}


def variant(seed: int) -> int:
    """Stored input variant for a seed: 0 only for seed 0."""
    return 0 if seed == 0 else 1 + (seed - 1) % (VARIANTS - 1)


def write_scenario(workload: str, seed: int, path: str) -> None:
    """Write the workload's scenario for `seed` to `path`."""
    import numpy as np

    with open(os.path.join(ROOT, WORKLOADS[workload]["scenario"]),
              encoding="utf-8") as fh:
        raw = json.load(fh)
    v = variant(seed)
    if v:
        x0 = np.asarray(raw["x0"], dtype=float)
        mix = np.random.default_rng(v).dirichlet(np.ones(x0.shape[0]))
        x = (1.0 - PERTURBATION) * x0 + PERTURBATION * mix
        raw["x0"] = [float(t) for t in x / x.sum()]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(raw, fh, indent=2)


def cli_argv(workload: str, scenario: str, out: str) -> list[str]:
    """Arguments for `eccsim.cli.main`."""
    spec = WORKLOADS[workload]
    return [spec["command"], scenario, *spec["flags"], "--out", out]


def run_inprocess(workload: str, seed: int, workdir: str) -> str:
    """Run a workload in this process (eccsim importable); return its output dir."""
    import eccsim.cli

    scenario = os.path.join(workdir, "scenario.json")
    write_scenario(workload, seed, scenario)
    out = os.path.join(workdir, "out")
    shutil.rmtree(out, ignore_errors=True)
    with contextlib.redirect_stdout(io.StringIO()):
        rc = eccsim.cli.main(cli_argv(workload, scenario, out))
    if rc != 0:
        raise RuntimeError(f"{workload}: eccsim exited with {rc}")
    return out


def artifact_digest(out: str) -> tuple[str, int]:
    """SHA-256 over every output file (name and bytes), and their total size."""
    h = hashlib.sha256()
    size = 0
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as fh:
            data = fh.read()
        h.update(name.encode() + b"\0" + len(data).to_bytes(8, "little"))
        h.update(data)
        size += len(data)
    return h.hexdigest(), size


def extract(workload: str, out: str) -> tuple[dict, dict]:
    """Read (verdicts, values) from a run's artifacts.

    verdicts maps a name to a bool that must be true (a solve converged, a
    delay verdict is `converged`); values maps a name to a number compared
    against the reference.
    """
    verdicts: dict[str, bool] = {}
    values: dict[str, float] = {}
    if workload == "duopoly-compare":
        with open(os.path.join(out, "compare_summary.json"), encoding="utf-8") as fh:
            rows = json.load(fh)["rows"]
        for row in rows:
            tag = f"{row['delta']:g}/{row['scheme']}"
            verdicts[f"{tag}/converged"] = row["converged"] is True
            for who, u in row["integral_utilities"].items():
                values[f"{tag}/U/{who}"] = u
    elif workload == "n6-olsec":
        with open(os.path.join(out, "summary.json"), encoding="utf-8") as fh:
            s = json.load(fh)
        verdicts["converged"] = s["converged"] is True
        verdicts["sweep_report/converged"] = s["sweep_report"]["converged"] is True
        for k, x in enumerate(s["equilibrium_shares"]):
            values[f"x/{k}"] = x
        values["price"] = s["equilibrium_price"]
        values["cloud_remainder"] = s["equilibrium_cloud_remainder"]
        for who, u in s["integral_utilities"].items():
            values[f"U/{who}"] = u
    else:
        with open(os.path.join(out, "sweep.csv"), encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            tag = f"{float(row['value']):g}"
            verdicts[f"{tag}/verdict"] = row["verdict"] == "converged"
            for key, cell in row.items():
                if key not in ("value", "verdict"):
                    values[f"{tag}/{key}"] = float(cell)
    return verdicts, values


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def check(workload: str, seed: int, out: str, reference: dict) -> list[str]:
    """Problems with a run's artifacts; an empty list means correct."""
    spec = WORKLOADS[workload]
    missing = [a for a in spec["artifacts"]
               if not os.path.isfile(os.path.join(out, a))]
    if missing:
        return [f"missing artifact {a}" for a in missing]
    try:
        verdicts, values = extract(workload, out)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable artifacts: {exc!r}"]
    problems = [f"{name}: not converged" for name, ok in verdicts.items() if not ok]
    ref = reference["workloads"].get(workload)
    if ref is None or ref["flags"] != spec["flags"]:
        return problems + ["no stored reference at this size"]
    expected = ref["variants"][variant(seed)]
    if set(values) != set(expected):
        return problems + ["artifact fields differ from the reference"]
    for name, want in expected.items():
        got = values[name]
        if not (isinstance(got, (int, float)) and math.isfinite(got)
                and abs(got - want) <= TOLERANCE * max(1.0, abs(want))):
            problems.append(f"{name}: {got!r} vs reference {want!r}")
    return problems
