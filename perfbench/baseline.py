"""Measure the benchmark's baseline and print it as JSON.

    python3 perfbench/baseline.py --seeds 10 > perfbench/baseline.json

Runs every workload through `run.py`, untraced once per seed (1, 2, ...)
and traced once.  For each end-to-end metric it records the unit, the
values, their median, quartiles and quartile spread as a share of the
median (`statistics.quantiles(values, n=4)`); the identity checks attempted
and failed, with their ratio; and for the traced run every per-layer
metric, the tracing overhead and each time's share of the traced
verification.  `LAYERS` states which end-to-end metric each layer should
move, on which workload.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

LAYERS = {
    "lattice": "verify_s on asep-balance (sector enumeration, about 3%); under "
               "1% elsewhere",
    "models": "verify_s on asep-balance (column sums, assembly and measures, "
              "about 80%) and on asep-selfdual through the measures inside "
              "the G correction (about 13%); peak_rss_mb through the dense "
              "generator",
    "qcalc": "verify_s on asep-selfdual (q-factorials and Krawtchouk values "
             "recomputed per pair, about 20%) and qhahn-kernel (phi10, about "
             "20%); a table shows as fewer calls",
    "duality": "verify_s on asep-selfdual (multi_species_D about 80% "
               "inclusive) and qhahn-kernel (qhahn_D about 17% self); none on "
               "uq-algebraic or asep-balance",
    "uqgl": "verify_s on uq-algebraic (about 90%, nilpotent_q_exp alone "
            "about 65%); absent elsewhere",
    "scalars": "verify_s on qhahn-kernel (SNum x Fraction products) and "
               "peak_rss_mb; max_bits and snum_share are fixed by the "
               "mathematics, mpf_entries must stay 0",
    "residual": "verify_s on qhahn-kernel (about 60%) and asep-selfdual (about "
                "20%); about 12% on uq-algebraic and 5% on asep-balance",
}


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=True, cwd=ROOT)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(runs, name):
    values = [r["metrics"][name]["value"] for r in runs]
    median = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else values * 3)
    return {"unit": runs[0]["metrics"][name]["unit"], "median": median,
            "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, default=10)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = {"python": sys.version.split()[0], "seeds": args.seeds,
           "run_seconds": spec["run_seconds"], "layers": LAYERS,
           "workloads": {}}
    for name in (w["name"] for w in spec["workloads"]):
        runs = [run(name, seed, spec["run_seconds"], 0)
                for seed in range(1, args.seeds + 1)]
        traced = run(name, 1, spec["run_seconds"], 1)
        layers = traced["metrics"]
        end_to_end = {m: summary(runs, m) for m in runs[0]["metrics"]}
        traced_s = (end_to_end["verify_s"]["median"]
                    + layers["trace.overhead_s"]["value"])
        attempted = sum(r["attempted"] for r in runs + [traced])
        failed = sum(r["failed"] for r in runs + [traced])
        out["workloads"][name] = {
            "end_to_end": end_to_end,
            "checks": {"attempted": attempted, "failed": failed,
                       "check_fail_ratio": failed / attempted},
            "per_layer": layers,
            "share_of_traced_verify": {
                m: v["value"] / traced_s for m, v in layers.items()
                if v["unit"] == "s" and v["value"]
                and m != "trace.overhead_s"},
        }
        print("%s done" % name, file=sys.stderr, flush=True)
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
