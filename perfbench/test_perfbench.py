"""Tests of the benchmark itself, on tiny instances of its workloads."""

import json
import subprocess
import sys
from pathlib import Path

import mpmath
import pytest

ROOT = Path(__file__).resolve().parent.parent
for path in (ROOT / "perfbench", ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from qmdual import duality  # noqa: E402
from qmdual.scalars import to_mpf  # noqa: E402


def fail_ratio(outcome):
    return list(outcome.values()).count(False) / len(outcome)


def verify(name, seed=1, probe=None):
    wl = workloads.TINY[name]
    return workloads.run_checks(wl, wl.build(seed), probe or workloads.NullProbe())


def traced(name, seed):
    tracer = spans.Tracer()
    tracer.install()
    try:
        outcome = verify(name, seed, tracer)
    finally:
        tracer.uninstall()
    return outcome, tracer.metrics()


@pytest.mark.parametrize("name", sorted(workloads.TINY))
def test_tiny_workloads_verify_exactly(name):
    assert fail_ratio(verify(name)) == 0


def _perturb_first_pair(monkeypatch, change):
    original = duality.multi_species_D
    seen = []

    def perturbed(xi, eta, params):
        value = original(xi, eta, params)
        seen.append(None)
        return change(value) if len(seen) == 1 else value

    monkeypatch.setattr(duality, "multi_species_D", perturbed)


def test_selfdual_sector_has_21_states():
    wl = workloads.TINY["asep-selfdual"]
    assert (wl.theta, wl.k) == ((2, 2, 2), (2, 2, 2))
    _, metrics = traced("asep-selfdual", 1)
    assert metrics["lattice.configs"][0] == 21
    assert metrics["duality.multi_species_D.calls"][0] == 21 * 21


def test_perturbed_entry_of_D_fails_the_check(monkeypatch):
    _perturb_first_pair(monkeypatch, lambda v: v + 1)
    assert fail_ratio(verify("asep-selfdual")) > 0


def test_float_entry_of_D_fails_the_check(monkeypatch):
    # the value is right, but a float in D is not an exact proof
    _perturb_first_pair(monkeypatch, to_mpf)
    assert fail_ratio(verify("asep-selfdual")) > 0


def test_raising_call_fails_its_checks(monkeypatch):
    def broken(*args):
        raise ZeroDivisionError("broken")

    monkeypatch.setattr(duality, "multi_species_D", broken)
    assert fail_ratio(verify("asep-selfdual")) == 1


def test_exact_zero_rejects_float_zero():
    assert workloads.exact_zero([0, 0])
    assert not workloads.exact_zero([0, mpmath.mpf(0)])
    assert not workloads.exact_zero([0.0])


@pytest.mark.parametrize("name", sorted(workloads.TINY))
def test_counts_repeat_across_runs_and_seeds(name):
    runs = [traced(name, seed) for seed in (1, 1, 7)]
    counts = [{k: v for k, (v, unit) in metrics.items() if unit != "s"}
              for _, metrics in runs]
    assert all(fail_ratio(outcome) == 0 for outcome, _ in runs)
    assert counts[0] == counts[1] == counts[2]


def test_tracer_restores_the_library():
    before = duality.multi_species_D
    traced("asep-selfdual", 1)
    assert duality.multi_species_D is before


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert per_layer == dict(spans.METRICS, **{"trace.overhead_s": "s"})


def test_refuses_to_run_optimised():
    proc = subprocess.run(
        [sys.executable, "-O", str(ROOT / "perfbench" / "run.py"),
         "--workload", "uq-algebraic", "--seed", "1", "--seconds", "1"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
