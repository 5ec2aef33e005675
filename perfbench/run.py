"""The repository benchmark: one command per workload and seed.

    python3 perfbench/run.py --workload fc_infer --seed 1 --seconds 15 \\
        --trace 0

Workloads: ``fc_infer``, ``conv_stream``, ``serve_mixed``, ``shard2``
(README.md says why each exists).  ``--trace 0`` measures with tracing
off and reports every end-to-end metric listed in ``BENCHMARK.json``;
``--trace 1`` runs the workload untraced, then again traced, and
reports every per-layer metric, the tracing overhead between the two,
and fails the run if their simulated statistics differ.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Span files and
result records go to ``.perfbench_out/`` at the checkout root.
"""

from __future__ import annotations

import time

# First statement: setup_s counts imports from here on.
PROCESS_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from statistics import median  # noqa: E402

from common import (OUT_DIR, ROOT, Tracer, environment,  # noqa: E402
                    maybe_span, peak_rss_mb)

WORKLOADS = ("fc_infer", "conv_stream", "serve_mixed", "shard2")

#: Extra fresh-process setups per untraced run; setup_s is the median
#: of these and the run's own setup.
SETUP_PROBES = 4

PROBE_TIMEOUT_S = 120


def _workload(name: str):
    """Import only the requested workload's modules: setup_s counts
    imports, and serve_mixed should not pay for the simulator ones."""
    if name == "serve_mixed":
        from serve_workload import ServeMixed

        return ServeMixed()
    from sim_workloads import ConvStream, FcInfer, Shard2

    return {"fc_infer": FcInfer, "conv_stream": ConvStream,
            "shard2": Shard2}[name]()


def _probe_setup(args) -> int:
    """Child process: set the workload up once, print the seconds."""
    workload = _workload(args.workload)
    workload.setup(args.seed, None)
    elapsed = time.perf_counter() - PROCESS_STARTED
    workload.close()
    print(json.dumps({"setup_s": elapsed}))
    return 0


def _probe_setups(args) -> list[float]:
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, __file__, "--probe-setup", "--workload",
             args.workload, "--seed", str(args.seed)],
            cwd=ROOT, capture_output=True, text=True, check=True,
            timeout=PROBE_TIMEOUT_S)
        samples.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return samples


def _run_once(args, tracer=None):
    """Set the workload up and measure it; returns the outcome and the
    ``perf_counter`` reading when set-up ended."""
    workload = _workload(args.workload)
    with maybe_span(tracer, "bench.setup"):
        workload.setup(args.seed, tracer)
    setup_done = time.perf_counter()
    try:
        return workload.measure(args.seconds), setup_done
    finally:
        workload.close()


def _untraced(args, spec) -> dict:
    outcome, setup_done = _run_once(args)
    # Read before the setup probes run: they are children too.
    rss_mb = peak_rss_mb()
    setups = [setup_done - PROCESS_STARTED] + _probe_setups(args)
    values = dict(outcome.metrics, setup_s=median(setups),
                  peak_rss_mb=rss_mb)
    return {"outcome": outcome, "values": values,
            "names": spec["end_to_end"],
            "notes": dict(outcome.notes, setup_samples_s=setups)}


def _traced(args, spec) -> dict:
    untraced, _ = _run_once(args)
    tracer = Tracer()
    outcome, _ = _run_once(args, tracer)
    tracer.write(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json")
    same_stats = outcome.stats == untraced.stats
    values = dict(outcome.layers)
    values["compiler.compile_s"] = sum(
        tracer.durations("compiler.compile_inference"))
    values["shard.plan_s"] = sum(tracer.durations("shard.shard_network"))
    values["bench.tracing_overhead_pct"] = 100.0 * (
        outcome.host_ms_per_request / untraced.host_ms_per_request - 1.0)
    for layer, seconds in tracer.self_seconds().items():
        values[f"self_s.{layer}"] = seconds
    outcome.attempted += untraced.attempted
    outcome.failed += untraced.failed
    if not same_stats:
        print("perfbench: simulated statistics differ between the "
              "untraced and traced runs", file=sys.stderr)
        outcome.failed = outcome.attempted
    return {"outcome": outcome, "values": values,
            "names": spec["per_layer"], "absent_is_zero": True,
            "notes": dict(outcome.notes, stats_identical=same_stats,
                          spans=len(tracer.spans))}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if os.environ.get("NEUROCUBE_SIM_WORKERS"):
        print("perfbench: NEUROCUBE_SIM_WORKERS is set; it silently "
              "overrides each workload's sim_workers.  Unset it.",
              file=sys.stderr)
        return 2
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"perfbench: no package sources under {src}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    if args.probe_setup:
        return _probe_setup(args)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    run = (_traced if args.trace else _untraced)(args, spec)
    outcome, values = run["outcome"], run["values"]
    metrics = {}
    for entry in run["names"]:
        name = entry["name"]
        if name not in values and not run.get("absent_is_zero"):
            print(f"perfbench: {args.workload} measured no {name}",
                  file=sys.stderr)
            return 1
        metrics[name] = {"value": values.get(name, 0), "unit": entry["unit"]}
    result = {"correct": outcome.failed == 0,
              "attempted": outcome.attempted, "failed": outcome.failed,
              "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": environment(), "notes": run["notes"],
              "result": result}
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}"
     ".json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    for name, metric in metrics.items():
        print(f"{args.workload:<12} {name:<40} {metric['value']:>16.6g} "
              f"{metric['unit']}")
    print(json.dumps({"environment": record["environment"],
                      "notes": run["notes"]}, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
