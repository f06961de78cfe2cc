#!/usr/bin/env python3
"""The benchmark's own tests: recorded predictions and gate sensitivity.

Run from the root of a checkout (takes about five minutes)::

    python3 perfbench/selfcheck.py

1. The predictions in ``perfbench/reference.json`` must name every
   per-layer metric ``BENCHMARK.json`` declares, and only end-to-end
   metrics and workloads it declares.
2. Sensitivity: one wrapped public function, ``DeliveryFaultPlane.apply``
   (the fault plane), is slowed by a busy-wait calibrated so that a
   ``fleet_faults`` repeat costs :data:`SLOWDOWN` times the
   ``traces_per_s`` bound more time, which should halve its
   throughput.  :data:`PAIRS` interleaved pairs of normal and slowed
   repeats of ``fleet_faults`` (which runs the fault plane) and of
   ``census`` (which has none) are then compared with the benchmark's
   own regression rule.  The gate must flag ``traces_per_s`` worse on
   ``fleet_faults`` and report no change on ``census``, and the slowed
   repeats must produce the same output digests as the normal ones.

Exit status 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 42
#: Normal/slowed pairs per workload, each side leading in turn.
PAIRS = 5
#: The injected cost, in multiples of the gate's bound: far enough past
#: the bound that run-to-run noise cannot decide the verdict.
SLOWDOWN = 4


def prediction_problems(spec: dict, reference: dict) -> list[str]:
    """The recorded predictions versus the declared metrics."""
    problems = []
    predictions = reference["predictions"]
    predicted = {name for row in predictions for name in row["metrics"]}
    declared = {m["name"] for m in spec["per_layer"]}
    if predicted != declared:
        problems.append(f"reference.json predictions: missing "
                        f"{sorted(declared - predicted)}, unknown "
                        f"{sorted(predicted - declared)}")
    known = ({m["name"] for m in spec["end_to_end"]}
             | {w["name"] for w in spec["workloads"]})
    for row in predictions:
        named = set(row["moves"]) | set(row["on"])
        if not named <= known:
            problems.append(f"reference.json prediction names unknown "
                            f"{sorted(named - known)}")
    return problems


def spin(seconds: float) -> None:
    """Busy-wait (sleep granularity is too coarse per call)."""
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def sensitivity(bound: float) -> list[str]:
    """Slow the fault plane; the gate must trip only where it runs."""
    from perfbench import run, stats
    from perfbench.workloads import make_workload
    from repro.faults.plane import DeliveryFaultPlane

    original = DeliveryFaultPlane.apply
    calls = [0]

    def counting(self, *args, **kwargs):
        calls[0] += 1
        return original(self, *args, **kwargs)

    fleet = make_workload("fleet_faults", run.OUT)
    DeliveryFaultPlane.apply = counting
    try:
        probe = run.execute(fleet, SEED)
    finally:
        DeliveryFaultPlane.apply = original
    delay = SLOWDOWN * bound * probe.measure_s / calls[0]
    print(f"calibration: {calls[0]} fault-plane calls in a "
          f"{probe.measure_s:.2f} s fleet_faults repeat; injecting "
          f"{delay * 1e6:.1f} us per call")

    def slowed(self, *args, **kwargs):
        spin(delay)
        return original(self, *args, **kwargs)

    def repeat(workload, slow):
        if not slow:
            return run.execute(workload, SEED)
        DeliveryFaultPlane.apply = slowed
        try:
            return run.execute(workload, SEED)
        finally:
            DeliveryFaultPlane.apply = original

    problems = []
    expected = {"fleet_faults": "worse", "census": "same"}
    for name, want in expected.items():
        workload = make_workload(name, run.OUT)
        base, slow = [], []
        for index in range(PAIRS):
            order = (False, True) if index % 2 == 0 else (True, False)
            for side in order:
                (slow if side else base).append(repeat(workload, side))
        base_rates = [u.traces / u.measure_s for u in base]
        slow_rates = [u.traces / u.measure_s for u in slow]
        got = stats.verdict(base_rates, slow_rates, bound, "higher")
        print(f"{name}: traces_per_s normal "
              f"{', '.join(f'{r:.1f}' for r in base_rates)} "
              f"(median {stats.median(base_rates):.1f}); slowed "
              f"{', '.join(f'{r:.1f}' for r in slow_rates)} "
              f"(median {stats.median(slow_rates):.1f}) -> {got} "
              f"(expected {want})")
        if got != want:
            problems.append(f"{name}: gate said {got}, expected {want}")
        if any(u.digests != base[0].digests for u in base + slow):
            problems.append(f"{name}: the slowed repeats changed outputs")
    return problems


def main() -> int:
    """Run both checks; print findings; return the exit status."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    reference = json.loads((ROOT / "perfbench" / "reference.json")
                           .read_text(encoding="utf-8"))
    problems = prediction_problems(spec, reference)
    bound = next(m["bound"] for m in spec["end_to_end"]
                 if m["name"] == "traces_per_s")
    problems += sensitivity(bound)
    for problem in problems:
        print(f"SELFCHECK FAILED: {problem}", file=sys.stderr)
    if not problems:
        print("selfcheck passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
