"""One measured set-up and verification of a workload, in a fresh process.

A fresh process per verification keeps each sample's peak memory its own
and lets no cache filled by an earlier verification speed up a later one.
Prints one JSON line: the set-up seconds, and unless `--mode setup` the
verification seconds, the outcome of each check and the peak resident
memory; `--mode trace` adds the per-layer metrics.  Times are at the
reference speed of `speed.SpeedProbe`.

    python3 -I perfbench/worker.py --workload uq-algebraic --seed 1 --mode verify
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from speed import SpeedProbe  # noqa: E402


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "verify", "trace"),
                        required=True)
    args = parser.parse_args()

    with SpeedProbe() as probe:
        t = time.perf_counter()
        import qmdual
        import workloads
        workload = workloads.WORKLOADS[args.workload]
        inputs = workload.build(args.seed)
        wall = time.perf_counter() - t
    if Path(qmdual.__file__).resolve().parent != ROOT / "src" / "qmdual":
        sys.exit("qmdual imported from %s, not from this checkout"
                 % qmdual.__file__)
    result = {"setup_s": probe.seconds(wall)}
    if args.mode == "setup":
        print(json.dumps(result))
        return
    if args.mode == "trace":
        import spans
        tracer = spans.Tracer()
        tracer.install()
    else:
        tracer = workloads.NullProbe()
    with SpeedProbe() as probe:
        t = time.perf_counter()
        with tracer.span("verify"):
            checks = workloads.run_checks(workload, inputs, tracer)
        wall = time.perf_counter() - t
    result["verify_s"] = probe.seconds(wall)
    result["checks"] = checks
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if args.mode == "trace":
        tracer.uninstall()
        result["layers"] = tracer.metrics(probe.factor)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
