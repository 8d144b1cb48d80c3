#!/usr/bin/env python3
"""Racecheck every workload: generate each of `fptrace list` at scale
0.05 and run `fptrace racecheck --paradigm finepack --seeds 2` on it,
so an outcome that depends on same-tick event order fails locally, not
only in the determinism CI job (which runs 4 seeds).

Usage: racecheck_all.py <fptrace-binary>

Stdlib only; registered with ctest from tests/CMakeLists.txt. Exits 1
after listing every workload whose racecheck failed.
"""

import subprocess
import sys
import tempfile


def main():
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    fptrace = sys.argv[1]
    workloads = subprocess.run([fptrace, "list"], check=True,
                               capture_output=True, text=True).stdout.split()
    failed = []
    with tempfile.TemporaryDirectory() as tmp:
        for workload in workloads:
            path = f"{tmp}/{workload}.fpt"
            subprocess.run([fptrace, "generate", workload, path,
                            "--scale", "0.05"],
                           check=True, capture_output=True)
            run = subprocess.run([fptrace, "racecheck", path,
                                  "--paradigm", "finepack", "--seeds", "2"],
                                 capture_output=True, text=True)
            if run.returncode != 0:
                failed.append(workload)
                sys.stderr.write(run.stdout + run.stderr)
    if len(workloads) != 8:
        print(f"racecheck_all: expected 8 workloads, got {workloads}",
              file=sys.stderr)
        return 1
    if failed:
        print("racecheck_all: FAIL: " + " ".join(failed), file=sys.stderr)
        return 1
    print(f"racecheck_all: {len(workloads)} workloads schedule-independent")
    return 0


if __name__ == "__main__":
    sys.exit(main())
