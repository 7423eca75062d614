"""Benchmark of the qmdual library: one workload, metrics as one JSON line.

    python3 perfbench/run.py --workload asep-selfdual --seed 1 --seconds 20 --trace 0

Untraced (`--trace 0`): fresh worker processes set up and verify the
workload one after another until `--seconds` have passed (at least one
verification); set-up-only workers then bring the set-up samples to five.
Reports the medians of the verification time, of the set-up time and of
each verification's peak resident memory, and the share of identity checks
passed.

Traced (`--trace 1`): one untraced and one traced verification.  Reports
the traced run's per-layer metrics and its overhead, the traced wall time
minus the untraced verification time.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The benchmark refuses to
run under `python -O`: the library still validates input with `assert`, so
an optimised run would measure a different program.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = ROOT / "perfbench" / "worker.py"
WORKLOAD_NAMES = ("asep-selfdual", "uq-algebraic", "qhahn-kernel",
                  "asep-balance")
DEFAULT_SEED = 1
SETUP_SAMPLES = 5
# every worker must end by then, so that the run ends within 180 s
DEADLINE_S = 170.0


class WorkerError(RuntimeError):
    pass


def run_worker(workload, seed, mode, started):
    timeout = DEADLINE_S - (time.monotonic() - started)
    if timeout <= 0:
        raise WorkerError("no time left for a %s worker" % mode)
    try:
        proc = subprocess.run(
            [sys.executable, "-I", str(WORKER), "--workload", workload,
             "--seed", str(seed), "--mode", mode],
            stdout=subprocess.PIPE, text=True, timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        raise WorkerError("%s worker ran past the deadline" % mode) from None
    if proc.returncode != 0:
        raise WorkerError("%s worker exited with code %d"
                          % (mode, proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tally(samples):
    outcomes = [ok for s in samples for ok in s["checks"].values()]
    return len(outcomes), outcomes.count(False)


def untraced(workload, seed, seconds, started):
    runs = []
    while not runs or time.monotonic() - started < seconds:
        runs.append(run_worker(workload, seed, "verify", started))
    setups = [r["setup_s"] for r in runs]
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_worker(workload, seed, "setup", started)["setup_s"])
    attempted, failed = tally(runs)
    metrics = {
        "verify_s": (statistics.median(r["verify_s"] for r in runs), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(r["rss_mb"] for r in runs), "MB"),
        "check_pass_ratio": ((attempted - failed) / attempted, "ratio"),
    }
    return attempted, failed, metrics


def traced(workload, seed, started):
    plain = run_worker(workload, seed, "verify", started)
    trace = run_worker(workload, seed, "trace", started)
    attempted, failed = tally([plain, trace])
    metrics = {name: tuple(v) for name, v in trace["layers"].items()}
    metrics["trace.overhead_s"] = (trace["verify_s"] - plain["verify_s"], "s")
    return attempted, failed, metrics


def main(argv=None):
    if sys.flags.optimize:
        print("refusing to run under python -O: the library validates input "
              "with assert", file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qmdual" / "__init__.py").is_file():
        print("no qmdual sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    started = time.monotonic()
    try:
        if args.trace:
            attempted, failed, metrics = traced(args.workload, args.seed,
                                                started)
        else:
            attempted, failed, metrics = untraced(args.workload, args.seed,
                                                  args.seconds, started)
    except WorkerError as exc:
        print("benchmark failed: %s" % exc, file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
