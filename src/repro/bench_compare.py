"""Benchmark regression gate for CI.

Compares a fresh ``pytest-benchmark --benchmark-json`` result against a
committed baseline and exits nonzero when any shared benchmark regressed
by more than the threshold (default 30%).

Usage (installed as the ``bench_compare`` console script; from a
checkout use ``python tools/bench_compare.py`` with the same
arguments)::

    bench_compare baseline.json current.json \
        [--threshold 0.30] [--metric min]

The ``min`` statistic is the default comparison metric: it is the least
noisy of pytest-benchmark's aggregates (the fastest observed round is a
lower bound on the true cost, largely immune to scheduler jitter), which
matters when the baseline and the CI runner are different machines.

Exit codes: 0 all good, 1 regression found, 2 malformed input.
"""

from __future__ import annotations

import argparse
import json
import sys


def load_benchmarks(path: str) -> dict[str, dict]:
    """Read one pytest-benchmark JSON file.

    Returns ``{name: {"stats": ..., "extra_info": ...}}``.  The
    ``extra_info`` block (simulator rates recorded by the benchmarks
    themselves) is informational only and never gated on.
    """
    try:
        with open(path) as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        raise SystemExit(
            f"bench_compare: cannot read {path}: {error}") from error
    benchmarks = data.get("benchmarks")
    if not isinstance(benchmarks, list):
        raise SystemExit(
            f"bench_compare: {path} has no 'benchmarks' list — is it a "
            f"pytest-benchmark JSON file?")
    table: dict[str, dict] = {}
    for bench in benchmarks:
        name = bench.get("name")
        stats = bench.get("stats")
        if not name or not isinstance(stats, dict):
            raise SystemExit(
                f"bench_compare: malformed benchmark entry in {path}")
        table[name] = {"stats": stats,
                       "extra_info": bench.get("extra_info") or {}}
    return table


def _format_value(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def extra_info_note(base_extra: dict, cur_extra: dict) -> str:
    """Informational ``extra_info`` note for one benchmark line.

    One bracket per nonempty key, in key order: a scalar prints as
    ``key=value``, plus ``N.NNx baseline`` when the baseline recorded
    the same key; a dict (fault or memo counters) prints its nonzero
    entries; an empty or zero value prints nothing.  Never gated on:
    the wall-clock metric is the gate, and the hard invariants behind
    these numbers are asserts inside the benchmarks themselves.
    """
    notes = []
    for key, value in sorted(cur_extra.items()):
        if isinstance(value, dict):
            shown = ", ".join(f"{name}={_format_value(count)}"
                              for name, count in sorted(value.items())
                              if count)
            if shown:
                notes.append(f"[{key}: {shown}]")
            continue
        if not value:
            continue
        note = f"{key}={_format_value(value)}"
        base = base_extra.get(key)
        if _is_number(value) and _is_number(base) and base:
            note += f", {value / base:.2f}x baseline"
        notes.append(f"[{note}]")
    return "".join(f"  {note}" for note in notes)


def registry_drift_notes(registry_dir: str, last: int) -> list[str]:
    """Informational drift notes from the cross-run registry.

    When ``--registry`` names a :class:`repro.obs.registry.RunRegistry`
    store, the newest recorded run is compared against the previous
    ``last``-record window per config fingerprint.  Like every other
    note here these never gate: the hard gate stays the pinned-baseline
    threshold; the registry adds the *trajectory* a single baseline
    cannot show.
    """
    from repro.obs.registry import RunRegistry

    registry = RunRegistry(registry_dir)
    records = registry.records()
    if len(records) < 2:
        return [f"  [registry: {len(records)} recorded run(s), "
                f"no history to compare]"]
    findings = registry.regress(last=last)
    if not findings:
        return [f"  [registry: no drift over the last {last} "
                f"recorded run(s)]"]
    return [f"  [registry drift: {finding.format()}]"
            for finding in findings]


def compare(baseline: dict[str, dict], current: dict[str, dict],
            threshold: float, metric: str) -> list[str]:
    """Return the names of benchmarks regressed past ``threshold``.

    Prints one line per benchmark with the wall-clock speedup factor
    against the baseline (>1 faster, <1 slower; the gate fires when it
    drops below ``1 / (1 + threshold)``).  Benchmarks present on only
    one side are reported but never fail the gate — new benchmarks have
    no baseline yet and retired ones no longer matter.
    """
    regressions: list[str] = []
    for name in sorted(set(baseline) | set(current)):
        if name not in current:
            print(f"  - {name}: in baseline only (retired?)")
            continue
        if name not in baseline:
            print(f"  + {name}: new benchmark, no baseline")
            continue
        base_value = baseline[name]["stats"].get(metric)
        cur_value = current[name]["stats"].get(metric)
        if base_value is None or cur_value is None:
            raise SystemExit(
                f"bench_compare: benchmark {name!r} lacks the "
                f"{metric!r} statistic")
        if base_value <= 0:
            print(f"  ? {name}: non-positive baseline {metric}, skipped")
            continue
        regressed = cur_value / base_value > 1.0 + threshold
        marker = "REGRESSION" if regressed else "ok"
        note = extra_info_note(baseline[name]["extra_info"],
                               current[name]["extra_info"])
        print(f"  {name}: {metric} {base_value:.6g}s -> {cur_value:.6g}s "
              f"({base_value / cur_value:.2f}x speedup)  {marker}{note}")
        if regressed:
            regressions.append(name)
    return regressions


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Fail when benchmarks regress against a baseline.")
    parser.add_argument("baseline", help="committed baseline JSON")
    parser.add_argument("current", help="freshly measured JSON")
    parser.add_argument("--threshold", type=float, default=0.30,
                        help="allowed fractional slowdown "
                             "(default 0.30 = 30%%)")
    parser.add_argument("--metric", default="min",
                        choices=("min", "max", "mean", "median", "stddev"),
                        help="pytest-benchmark statistic to compare "
                             "(default: min)")
    parser.add_argument("--registry", default=None,
                        help="run-registry directory for informational "
                             "drift notes against recorded history")
    parser.add_argument("--last", type=int, default=5,
                        help="registry window size (default 5)")
    args = parser.parse_args(argv)

    baseline = load_benchmarks(args.baseline)
    current = load_benchmarks(args.current)
    print(f"bench_compare: threshold +{args.threshold:.0%} on "
          f"'{args.metric}'")
    regressions = compare(baseline, current, args.threshold, args.metric)
    if args.registry is not None:
        for note in registry_drift_notes(args.registry, args.last):
            print(note)
    if regressions:
        print(f"bench_compare: {len(regressions)} regression(s): "
              f"{', '.join(regressions)}")
        return 1
    print("bench_compare: no regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
