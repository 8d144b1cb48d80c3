#!/usr/bin/env python3
"""Build and run the repository benchmark (see README.md in this directory).

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. The first call configures and builds the
fp_perfbench binary from this directory's CMakeLists.txt (which builds
the simulator from ../src) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; later calls only rebuild what changed. Build
output goes to stderr, so the benchmark's last stdout line is its JSON
result. Any other arguments are passed to the binary unchanged.

--trace 0 splits the run over PROCESSES processes in a row, each with
one set-up and an equal share of --seconds but at least one replay,
and computes the end-to-end metrics from their pooled samples. Beside
them runs fp_hostprobe, a fixed loop whose rate tracks how fast the
shared host runs; each replay and set-up time is scaled towards the
probe's reference rate (host_scaled) before the medians are taken. --trace 1 is
one process.

--self-test runs a seconds-long quick mode at a small scale: every
workload in both modes must print every metric BENCHMARK.json names,
with its unit, and pass its correctness gate; count metrics must repeat
exactly; and a deliberately wrong expected result must turn into failed
operations.
"""

import bisect
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The binary must finish well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170
PROCESSES = 2
# fp_hostprobe units per second on the reference host (README.md); a
# window's time is scaled by (the probe's rate in it / this rate) to the
# power PROBE_ELASTICITY: a replay slows about half as much as the probe.
PROBE_REFERENCE_RATE = 2800.0
PROBE_ELASTICITY = 0.5
PROBE_START_TIMEOUT_S = 30
SELF_TEST_SCALE = "0.05"
# Runnable by hand, outside BENCHMARK.json's list (see README.md).
EXTRA_WORKLOADS = ["sssp-finepack"]
TIME_UNITS = ("s", "ms", "us", "ns")


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configure (once) and build fp_perfbench and fp_hostprobe; return
    the build directory."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no simulator sources under {ROOT}/src; run from a full "
             "checkout of the repository")
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", str(os.cpu_count() or 1)])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step), code=1)
    return out


def source_digest():
    """SHA-256 over the simulator and benchmark sources, for provenance
    where no git SHA is available."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for base, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def git_sha():
    """The checkout's commit, read on every run: the one the build
    configured with goes stale when one build directory serves several
    commits. "unknown" outside a git checkout."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    proc = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                          cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_binary(binary, args, capture_stderr=False, timeout=RUN_TIMEOUT_S):
    """Run fp_perfbench with stdout captured."""
    cmd = [binary, *args, "--scratch", os.path.dirname(binary),
           "--git-sha", git_sha(), "--source-digest", source_digest()]
    try:
        return subprocess.run(
            cmd, cwd=ROOT, timeout=timeout, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE if capture_stderr else None, text=True)
    except subprocess.TimeoutExpired:
        # subprocess.run has killed and reaped the child.
        fail(f"timed out after {timeout} s: {' '.join(cmd)}", code=1)


def flag_value(args, flag):
    """The value of the last `flag VALUE` pair in args, or None."""
    value = None
    for i, arg in enumerate(args[:-1]):
        if arg == flag:
            value = args[i + 1]
    return value


class HostProbe:
    """fp_hostprobe running beside the timed processes; stopped and
    reaped on every way out of the with block."""

    def __init__(self, out):
        self.log = os.path.join(out, "hostprobe.log")
        self.cmd = [os.path.join(out, "fp_hostprobe"), self.log,
                    str(RUN_TIMEOUT_S + 10)]

    def __enter__(self):
        if os.path.exists(self.log):
            os.remove(self.log)
        self.proc = subprocess.Popen(self.cmd)
        # Wait for its first units, so it covers the first set-up.
        deadline = time.monotonic() + PROBE_START_TIMEOUT_S
        while len(self.points()) < 2:
            if (self.proc.poll() is not None or
                    time.monotonic() > deadline):
                self.__exit__()
                fail("fp_hostprobe did not start", code=1)
            time.sleep(0.05)
        return self

    def __exit__(self, *exc):
        self.proc.terminate()
        self.proc.wait()

    def points(self):
        """(steady-clock ns, units done) pairs logged so far."""
        if not os.path.exists(self.log):
            return []
        with open(self.log) as f:
            rows = [line.split() for line in f]
        return [(int(t), int(u)) for t, u in (r for r in rows
                                              if len(r) == 2)]

    def rates(self, windows):
        """The probe's units per second in each window; waits until the
        log runs past the last one."""
        last_end = max(w["end_ns"] for w in windows)
        deadline = time.monotonic() + PROBE_START_TIMEOUT_S
        points = self.points()
        while not points or points[-1][0] <= last_end:
            if (self.proc.poll() is not None or
                    time.monotonic() > deadline):
                fail("fp_hostprobe log does not cover the run", code=1)
            time.sleep(0.05)
            points = self.points()
        return [(units_at(points, w["end_ns"]) -
                 units_at(points, w["start_ns"])) /
                ((w["end_ns"] - w["start_ns"]) * 1e-9) for w in windows]


def units_at(points, t):
    """Probe units done at steady-clock ns t, interpolated."""
    i = bisect.bisect_left(points, (t, -1))
    if i == 0 or i == len(points):
        fail("fp_hostprobe log does not cover a timed window", code=1)
    (t0, u0), (t1, u1) = points[i - 1], points[i]
    return u0 + (u1 - u0) * (t - t0) / (t1 - t0)


def host_scaled(windows, rates):
    """Each window's seconds scaled to the probe's reference rate."""
    return [w["s"] * (rate / PROBE_REFERENCE_RATE) ** PROBE_ELASTICITY
            for w, rate in zip(windows, rates)]


def timed_run(out, args, quiet=False):
    """--trace 0: PROCESSES processes beside fp_hostprobe, samples
    scaled to the probe's reference rate and pooled. Returns the exit
    code and the pooled result (None when a process failed); quiet
    captures stderr and prints nothing unless a process fails."""
    binary = os.path.join(out, "fp_perfbench")
    seconds = float(flag_value(args, "--seconds") or 10) / PROCESSES
    share = [*args, "--seconds", repr(seconds)]
    # Keep every process well inside the 180 s a run may take.
    timeout = RUN_TIMEOUT_S / PROCESSES
    replays, setups, rss, results = [], [], [], set()
    attempted = failed = 0
    with HostProbe(out) as probe:
        for i in range(PROCESSES):
            proc = run_binary(binary, share, quiet, timeout)
            if proc.returncode != 0:
                if quiet:
                    sys.stderr.write(proc.stderr)
                return proc.returncode, None
            provenance, last = [json.loads(line) for line in
                                proc.stdout.strip().splitlines()[-2:]]
            if i == 0 and not quiet:
                print(json.dumps(provenance))
            stores = provenance["provenance"]["stores"]
            samples = last["samples"]
            replays += samples["replays"]
            setups.append(samples["setup"])
            rss.append(samples["peak_rss_mb"])
            results.add(samples["result"])
            attempted += last["attempted"]
            failed += last["failed"]
        rates = probe.rates(replays + setups)
    replay = host_scaled(replays, rates)
    setup = host_scaled(setups, rates[len(replays):])
    # One more operation: every process simulated the same result.
    attempted += 1
    if len(results) != 1:
        print(f"perfbench: FAILED results differ across processes: "
              f"{sorted(results)}", file=sys.stderr)
        failed += 1
    replay_s = statistics.median(replay)
    metrics = {
        "replay_s": (replay_s, "s"),
        "stores_per_s": (stores / replay_s, "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    if not quiet:
        wall = statistics.median(w["s"] for w in replays)
        print(f"{len(replays)} replays, median {wall:.6f} wall s; probe "
              f"at {statistics.median(rates) / PROBE_REFERENCE_RATE:.3f} "
              f"of its reference rate")
        for name, (value, unit) in metrics.items():
            print(f"{name:44s} {value:16.6f} {unit}")
        print(json.dumps(result), flush=True)
    return 0, result


def quick_run(out, workload, trace, *extra):
    args = ["--workload", workload, "--seed", "42", "--seconds", "1",
            "--trace", str(trace), "--scale", SELF_TEST_SCALE, *extra]
    if trace == 0:
        code, result = timed_run(out, args, quiet=True)
    else:
        proc = run_binary(os.path.join(out, "fp_perfbench"), args,
                          capture_stderr=True)
        code = proc.returncode
        if code != 0:
            sys.stderr.write(proc.stderr)
        else:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
    if code != 0:
        fail(f"self-test: {workload} --trace {trace} exited {code}",
             code=1)
    return result


def check(condition, message):
    if not condition:
        fail("self-test: " + message, code=1)


def self_test(out):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for workload in [w["name"] for w in spec["workloads"]] + EXTRA_WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[section]}
            first = quick_run(out, workload, trace)
            where = f"{workload} --trace {trace}"
            check(set(first) == {"correct", "attempted", "failed",
                                 "metrics"}, f"{where}: result keys")
            check(first["correct"] and first["failed"] == 0 and
                  first["attempted"] >= 1, f"{where}: gate failed")
            got = {k: v["unit"] for k, v in first["metrics"].items()}
            check(got == want, f"{where}: metrics {got} != {want}")
            if trace == 1:
                again = quick_run(out, workload, trace)["metrics"]
                for name, metric in first["metrics"].items():
                    if (metric["unit"].split("/")[0] in TIME_UNITS or
                            name == "bench.tracing_overhead_frac"):
                        continue
                    check(metric["value"] == again[name]["value"],
                          f"{where}: count {name} differs between runs")
        wrong = quick_run(out, workload, 0, "--wrong-expected")
        check(not wrong["correct"] and wrong["failed"] >= 1,
              f"{workload}: a wrong expected result did not fail")
        print(f"self-test: {workload} ok")
    print("self-test: ok")


def main(argv):
    out = build()
    if argv == ["--self-test"]:
        self_test(out)
        return 0
    if flag_value(argv, "--trace") == "0":
        return timed_run(out, argv)[0]
    proc = run_binary(os.path.join(out, "fp_perfbench"), argv)
    sys.stdout.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
