"""One workload execution in its own process; run by run.py.

Usage: child.py WORKLOAD SEED WORKDIR TRACE

Imports eccsim, writes the seeded scenario to WORKDIR/scenario.json, calls
`eccsim.cli.main` with output to WORKDIR/out, and writes its timings to
WORKDIR/record.json.  `t_ready` is CLOCK_MONOTONIC once everything `main`
needs is in place, so the parent can subtract its own spawn time from it.
With TRACE=1 the per-layer wrappers of tracer.py are installed before
`main`.  A fixed calibration kernel runs just before and just after `main`;
its times let the parent scale this repetition's times to a reference
machine speed.
"""

import json
import os
import resource
import sys
import time

import workloads


def calibrate(nodes: int = 3000) -> float:
    """Seconds taken by a fixed kernel shaped like the program's sweeps.

    Like the solvers, it is a Python loop over grid nodes doing small-array
    numpy arithmetic, so a slower machine state slows both alike.  It
    calls no eccsim code: a change to the program cannot move it.
    """
    import numpy as np

    lam = np.array([[0.3, 0.1], [0.2, 0.4]])
    x = np.array([0.3, 0.3, 0.4])
    w = np.array([1.0, 2.0, 3.0])
    start = time.perf_counter()
    for _ in range(nodes):
        a = np.diagonal(lam) * 0.5 - 0.1 * (lam @ x[:2])
        p = min(max(float(a.sum()) / 3.0, 0.0), 1.0)
        r = np.clip(a - 0.2 * p, 0.0, 0.99)
        c = np.append(w[:2] + r, 1.0 - r.sum()) / w
        th = 0.1 * c.sum()
        k1 = c - th * x
        k2 = c - th * (x + 0.05 * k1)
        x = np.maximum(x + 0.01 * (k1 + k2), 1e-12)
        x = x / x.sum()
        lam = 0.999 * lam + 0.001 * np.outer(r, r)
    return time.perf_counter() - start


def main() -> int:
    workload, seed, workdir, trace = sys.argv[1:]
    start = time.perf_counter()
    import eccsim.cli
    import_s = time.perf_counter() - start

    tracer = None
    if trace == "1":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    scenario = os.path.join(workdir, "scenario.json")
    workloads.write_scenario(workload, int(seed), scenario)
    argv = workloads.cli_argv(workload, scenario, os.path.join(workdir, "out"))

    t_ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    calib_before = calibrate()
    start = time.perf_counter()
    rc = eccsim.cli.main(argv)
    main_s = time.perf_counter() - start
    calib_after = calibrate()

    record = {
        "rc": rc,
        "t_ready": t_ready,
        "wall_s": main_s,
        "import_s": import_s,
        "calib_s": [calib_before, calib_after],
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": sys.modules["numpy"].__version__,
            "scipy": getattr(sys.modules.get("scipy"), "__version__", None),
        },
    }
    if tracer is not None:
        record["layers"] = tracer.metrics(main_s)
    with open(os.path.join(workdir, "record.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
