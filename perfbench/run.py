#!/usr/bin/env python3
"""The benchmark of record: three workloads behind one command.

Run from the root of a checkout; the program is imported from
``src/``, nothing is installed::

    python3 perfbench/run.py --workload census --seed 42 --seconds 40 --trace 0

Workloads (``perfbench/workloads.py``): ``census``, ``fleet_faults``
and ``monitor_store``; ``BENCHMARK.json`` declares them and every
metric's name and unit.  The seed gives the run's input.  A run repeats
it — fresh set-up, then the timed phase — for about ``--seconds``
seconds and at least :data:`MIN_REPEATS` times.  Every repeat must
produce the same output digests, and seeds recorded in
``perfbench/reference.json`` must reproduce the recorded digests;
otherwise the run fails.

``--trace 0`` reports the end-to-end metrics: medians over the
repeats, and the input's simulated time and star ratio.  Its times are
scaled to the host's quiet speed: a fixed reference kernel
(``perfbench/calibration.py``) is timed before each set-up, between
set-up and timed phase, and after the last timed phase, and each
part's time is multiplied by the kernel's nominal time over the mean
of the two readings around it.  That cancels the shared host's slow
spells but none of the program's own speed.  The unscaled medians are
printed beside them.

``--trace 1`` is the attribution run.  Each of its steps makes one
traced repeat, with spans around each layer's public entry points
(``perfbench/layers.py``), and one interleaved pair of untraced
repeats per paired overhead ratio the workload measures (the metrics
registry on over off, on ``census`` and ``monitor_store``; the shard
supervisor over a bare run, on ``fleet_faults`` and ``monitor_store``;
a ratio a workload does not measure reads 0).  It reports every
per-layer metric and writes the spans and the per-layer table to
``perfbench/out/``.

Human-readable lines come first; the last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.  Exit status: 0 when every output check held, 1 when
one failed, 2 when the checkout has no ``src/repro`` to measure.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
REFERENCE = ROOT / "perfbench" / "reference.json"
#: Declares the workloads and every metric's name, unit and direction.
SPEC = ROOT / "BENCHMARK.json"

MIN_REPEATS = 3
#: Paired overhead ratios: the configuration overrides of the
#: numerator's and the denominator's repeats.
PAIRED = {
    "obs.enabled_overhead": ({"metrics": True}, {"metrics": False}),
    "runtime.overhead_ratio": ({"supervised": True},
                               {"supervised": False}),
}


def execute(workload, seed: int, metrics=None, supervised=None,
            span=nullcontext):
    """One repeat: fresh set-up, then the timed phase."""
    gc.collect()
    prepared = workload.setup(
        seed, workload.default_metrics if metrics is None else metrics)
    return workload.run(
        prepared,
        workload.default_supervised if supervised is None else supervised,
        span)


def is_default(workload, override: dict) -> bool:
    """Whether ``override`` leaves ``workload``'s configuration as is."""
    return all(getattr(workload, f"default_{key}") == value
               for key, value in override.items())


def passes(seconds: float, minimum: int, step) -> None:
    """Call ``step()`` at least ``minimum`` times, and again while the
    median step still fits in ``seconds`` since the first call."""
    from perfbench.stats import median

    started = time.perf_counter()
    durations: list[float] = []
    while (len(durations) < minimum
           or time.perf_counter() - started + median(durations) <= seconds):
        began = time.perf_counter()
        step()
        durations.append(time.perf_counter() - began)


def check(name: str, seed: int, units, reference: dict) -> list:
    """Output-check findings: every repeat must produce the first
    one's digests, and a recorded seed its reference digests."""
    problems = []
    first = units[0].digests
    for unit in units:
        if unit.excluded:
            problems.append(f"{name}: a repeat excluded {unit.excluded} "
                            "vantage(s)")
        if unit.digests != first:
            changed = sorted(k for k in first if unit.digests[k] != first[k])
            problems.append(f"{name}: repeats disagree on "
                            f"{', '.join(changed)}")
    expected = reference.get(name, {}).get(str(seed))
    if expected is not None and first != expected:
        problems.append(f"{name}: seed {seed} outputs differ from "
                        "perfbench/reference.json")
    return problems


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def calibrated_repeats(workload, seed: int, seconds: float):
    """Untraced repeats for about ``seconds``, with the reference
    kernel timed before each set-up, between set-up and timed phase,
    and after the last timed phase.  Returns (units, scales): a
    repeat's (set-up, timed phase) scales, each ``NOMINAL_S`` over the
    mean of the two kernel times around that part."""
    from perfbench.calibration import NOMINAL_S, kernel_seconds

    units, kernel_s = [], [kernel_seconds()]

    def step():
        prepared = workload.setup(seed, workload.default_metrics)
        kernel_s.append(kernel_seconds())
        units.append(workload.run(prepared, workload.default_supervised))
        kernel_s.append(kernel_seconds())

    passes(seconds, MIN_REPEATS, step)
    part = [2 * NOMINAL_S / (before + after)
            for before, after in zip(kernel_s, kernel_s[1:])]
    return units, list(zip(part[::2], part[1::2]))


def end_to_end(units, scales) -> dict:
    """The end-to-end metrics over one run's repeats, their times
    scaled to the host's quiet speed."""
    from perfbench.stats import median

    first = units[0]
    scaled = [(u, setup, timed) for u, (setup, timed) in zip(units, scales)]
    return {
        "setup_s": median(u.setup_s * setup for u, setup, __ in scaled),
        "wall_s": median(u.wall_s * timed for u, __, timed in scaled),
        "traces_per_s": median(u.traces / (u.measure_s * timed)
                               for u, __, timed in scaled),
        "probes_per_s": median(u.probes / (u.measure_s * timed)
                               for u, __, timed in scaled),
        "sim_s": first.sim_s,
        "star_ratio": first.stars / first.hops,
        "peak_rss_mb": peak_rss_mb(),
    }


def traced(workload, seed: int, seconds: float):
    """The attribution run; returns (per-layer metrics, units)."""
    from perfbench import layers
    from perfbench.spans import SpanRecorder
    from perfbench.stats import median, quartiles

    recorder = SpanRecorder()
    rows, plain, units = [], [], []
    ratios = {name: [] for name in workload.paired}
    last = {}

    def traced_repeat():
        gc.collect()
        recorder.run_id += 1
        recorder.counts.clear()
        recorder.kept.clear()
        recorder.install(layers.targets(recorder))
        try:
            prepared = workload.setup(seed, workload.default_metrics)
            lookups0 = sum(t.network.route_lookups() for t in recorder.kept)
            builds0 = recorder.counts["net.packet_build"]
            unit = workload.run(prepared, workload.default_supervised,
                                recorder.span)
        finally:
            recorder.uninstall()
        lookups = sum(t.network.route_lookups()
                      for t in recorder.kept) - lookups0
        builds = recorder.counts["net.packet_build"] - builds0
        recorder.kept.clear()
        return unit, layers.repeat_metrics(
            recorder.spans, recorder.run_id, recorder.counts, unit,
            lookups, builds)

    def step():
        # Each side of a pair leads in turn; the untraced baseline of
        # the tracing overhead is the step's first default repeat.
        baseline = None
        for name in workload.paired:
            pair = [None, None]
            for side in ((0, 1) if len(rows) % 2 == 0 else (1, 0)):
                override = PAIRED[name][side]
                pair[side] = execute(workload, seed, **override)
                if baseline is None and is_default(workload, override):
                    baseline = pair[side]
            ratios[name].append(pair[0].wall_s / pair[1].wall_s)
            plain.extend(pair)
        unit, row = traced_repeat()
        wall = unit.setup_s + unit.wall_s
        row["trace.overhead_ratio"] = wall / (baseline.setup_s
                                              + baseline.wall_s)
        rows.append(row)
        units.append(unit)
        last.update(run=recorder.run_id, wall=wall)

    passes(seconds, MIN_REPEATS, step)
    metrics = {name: median(row[name] for row in rows) for name in rows[0]}

    # Query latencies and ingest throughput come from untraced repeats.
    stored = [unit for unit in plain if unit.query_ms]
    query_ms = sorted(ms for unit in stored for ms in unit.query_ms)
    metrics["warehouse.query_samples"] = len(query_ms)
    metrics["warehouse.query_ms_p50"] = (median(query_ms) if query_ms
                                         else 0.0)
    # The p95 needs ten samples beyond it: 200 or more samples.
    metrics["warehouse.query_ms_p95"] = (
        query_ms[int(0.95 * len(query_ms))] if len(query_ms) >= 200
        else 0.0)
    metrics["warehouse.ingest_rows_per_s"] = (
        median(u.ingest_rows / u.ingest_s for u in stored) if stored
        else 0.0)

    for name in PAIRED:
        value = q1 = q3 = 0.0
        if ratios.get(name):
            value = median(ratios[name])
            q1, q3 = quartiles(ratios[name])
        metrics.update({name: value, f"{name}.q1": q1, f"{name}.q3": q3})

    table = layers.layer_table(recorder.spans, last["run"], last["wall"])
    print(f"layer table ({workload.name}, last traced repeat, "
          f"{last['wall']:.3f} s):")
    for layer, seconds_ in table:
        print(f"  {layer:12s} {seconds_:10.4f} s "
              f"{seconds_ / last['wall']:7.2%}")
    stem = f"{workload.name}-{seed}"
    (OUT / f"layers-{stem}.json").write_text(json.dumps(
        {"workload": workload.name, "seed": seed,
         "traced_wall_s": last["wall"],
         "layers": [{"layer": layer, "self_s": value}
                    for layer, value in table]}, indent=2) + "\n")
    recorder.dump(OUT / f"spans-{stem}.jsonl.gz")
    return metrics, plain + units


def main(argv=None) -> int:
    """Parse arguments, run the benchmark, print the result."""
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: {ROOT} has no src/repro to measure",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import make_workload

    OUT.mkdir(exist_ok=True)
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    workload = make_workload(args.workload, OUT)
    if args.trace:
        values, units = traced(workload, args.seed, args.seconds)
        declared = spec["per_layer"]
    else:
        from perfbench.stats import median

        units, scales = calibrated_repeats(workload, args.seed, args.seconds)
        values = end_to_end(units, scales)
        declared = spec["end_to_end"]
        print(f"{len(units)} repeats; unscaled median setup "
              f"{median(u.setup_s for u in units):.4f} s, wall "
              f"{median(u.wall_s for u in units):.4f} s; host speed "
              f"(nominal / reference kernel) median "
              f"{median(timed for __, timed in scales):.3f}")
    metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in declared}
    problems = check(args.workload, args.seed, units, reference["digests"])
    attempted = sum(unit.operations for unit in units)
    failed = attempted if problems else sum(u.excluded for u in units)

    for key, value in units[0].digests.items():
        print(f"digest {args.workload} {args.seed} {key} {value}")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
