"""Fast self-test of the benchmark's checker (a few seconds).

Usage (from the repository root):
    python3 bench/selftest.py

A correct run must pass the check; a tampered artifact, a run checked against
another seed's reference, and a solve stopped before convergence must each
fail it.  Exits 1 if any expectation does not hold.
"""

import functools
import os
import sys
import tempfile

import workloads

sys.path.insert(0, os.path.join(workloads.ROOT, "src"))


def main() -> int:
    import eccsim.cli as cli

    reference = workloads.load_reference()
    failures = []
    os.makedirs(workloads.WORK_DIR, exist_ok=True)

    def expect(what: str, holds: bool) -> None:
        print(("ok   " if holds else "FAIL ") + what)
        if not holds:
            failures.append(what)

    def check(workload: str, seed: int, out: str) -> list[str]:
        return workloads.check(workload, seed, out, reference)

    with tempfile.TemporaryDirectory(dir=workloads.WORK_DIR) as tmp:
        out = workloads.run_inprocess("delay-sweep", 0, tmp)
        expect("correct delay-sweep run passes", check("delay-sweep", 0, out) == [])
        expect("seed 5 is checked against its own reference",
               check("delay-sweep", 5, out) != [])

        digest, _ = workloads.artifact_digest(out)
        path = os.path.join(out, "sweep.csv")
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        header, first, *rest = text.splitlines()
        cells = first.split(",")
        cells[1] = repr(float(cells[1]) + 1e-4)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join([header, ",".join(cells), *rest]) + "\n")
        expect("tampered share fails the check", check("delay-sweep", 0, out) != [])
        expect("tampered artifact changes the digest",
               workloads.artifact_digest(out)[0] != digest)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text.replace(",converged", ",oscillating", 1))
        expect("non-converged delay verdict fails the check",
               any("not converged" in p for p in check("delay-sweep", 0, out)))

        solve = cli.solve_open_loop
        cli.solve_open_loop = functools.partial(solve, max_iter=5)
        try:
            out = workloads.run_inprocess("n6-olsec", 0, tmp)
        finally:
            cli.solve_open_loop = solve
        problems = check("n6-olsec", 0, out)
        expect("non-converged solve fails the check",
               any("not converged" in p for p in problems))
        expect("its unconverged equilibrium misses the reference",
               any("vs reference" in p for p in problems))
    print("self-test " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
