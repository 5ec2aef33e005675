"""CLI: run paper experiments by id.

Usage::

    neurocube-experiments list
    neurocube-experiments run fig12 [fig13 ...]
    neurocube-experiments run all
    neurocube-experiments run fig12 --json   # machine-readable output
    neurocube-experiments run fig15a --trace --trace-dir out/

Each experiment runs inside one ambient :class:`repro.obs.RunSession`
built from the flags below; every cycle-simulator descriptor run it
performs resolves its options against that session (an option the
simulator was given explicitly wins) and is recorded there.

With ``--trace``, every descriptor run is traced, and a
``manifest_<id>.json`` (plus a ``trace_<id>.json`` when any traced runs
were captured) lands in the trace directory.  Experiments that never
touch the cycle simulator still get a manifest recording that zero runs
were captured.

With ``--faults SPEC`` (``key=value,...`` pairs of
:class:`repro.faults.FaultConfig` fields, e.g.
``seed=3,dram_bitflip_rate=1e-4,ecc=secded``), every cycle-simulated
descriptor run injects deterministic faults and a summary of the fault
counters is printed to stderr.  ``--checkpoint-every N`` (with
``--checkpoint-dir``) snapshots every pass periodically, and
``--resume-from DIR`` resumes each pass from its newest snapshot —
together they let a long sweep survive a crash and continue
bit-identically.

With ``--memo-dir DIR``, memoized timing-pass outcomes are loaded from
and stored to a persistent store under ``DIR``, so a rerun replays
timing from disk bit-identically.  Counters are printed to
stderr per experiment (``[memo] ...``) and, with ``--json``, folded
into the top-level ``__memo__`` key.  ``--stream N`` streams N frames
through streaming-capable experiments (``ext_stream``): timing is
simulated once per distinct layer shape, then N frames replay it
through the functional fast path.  ``--cubes N`` shards multi-cube-
capable experiments (``ext_shard``) across N cubes, one process per
cube with conservative link-time sync — bit-identical to the same
shards run serially (the experiment asserts it).

With ``--heartbeat N``, the session carries a
:class:`repro.obs.LiveTelemetry` (``RunSession(live=...)``): host phases
(compile / simulate / memo-I/O / checkpoint / trace-export) are timed,
a heartbeat snapshot is taken every N simulated cycles, and a phase
summary is printed to stderr.  Combined with ``--trace``, a
``heartbeats_<id>.jsonl`` and an OpenMetrics ``metrics_<id>.txt`` land
next to the trace.  Traced manifests always embed the phase breakdown.
With ``--registry DIR`` (requires ``--trace``), each experiment's
manifest is appended to the cross-run performance registry — browse it
with ``tools/ncbench.py timeline``.
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import json
import sys

from repro.experiments.registry import EXPERIMENTS, get_experiment


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="neurocube-experiments",
        description="Regenerate the Neurocube paper's tables and figures.")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")
    run_parser = sub.add_parser("run", help="run experiments by id")
    run_parser.add_argument(
        "ids", nargs="+",
        help="experiment ids (fig1, fig12, table3, ...) or 'all'")
    run_parser.add_argument(
        "--json", action="store_true",
        help="emit machine-readable JSON instead of tables")
    run_parser.add_argument(
        "--trace", action="store_true",
        help="trace cycle-simulator runs; writes per-experiment "
             "trace_<id>.json and manifest_<id>.json")
    run_parser.add_argument(
        "--validate", action="store_true",
        help="statically verify every compiled PNG program "
             "(repro.analysis.nccheck) and every multi-cube shard plan "
             "(repro.analysis.shardcheck, NC301-NC306) before "
             "simulation; a malformed plan fails fast with a "
             "PlanCheckError instead of deadlocking mid-run")
    run_parser.add_argument(
        "--trace-dir", default=".",
        help="directory for --trace output files (default: cwd)")
    run_parser.add_argument(
        "--faults", metavar="SPEC", default=None,
        help="inject deterministic faults into every cycle-simulated "
             "run; SPEC is key=value pairs of FaultConfig fields, e.g. "
             "'seed=3,dram_bitflip_rate=1e-4,ecc=secded'")
    run_parser.add_argument(
        "--checkpoint-every", type=int, default=0, metavar="N",
        help="snapshot every pass every N simulated cycles (0: off)")
    run_parser.add_argument(
        "--checkpoint-dir", default="checkpoints",
        help="directory for checkpoint snapshots (default: checkpoints)")
    run_parser.add_argument(
        "--resume-from", default=None, metavar="DIR",
        help="resume each pass from its newest snapshot in DIR "
             "(passes without one start from cycle 0)")
    run_parser.add_argument(
        "--memo-dir", default=None, metavar="DIR",
        help="persistent memo store for timing-pass outcomes; memoized "
             "passes are loaded from and stored to DIR, so a rerun "
             "replays timing from disk (hit/miss counters go to stderr "
             "and, with --json, the top-level '__memo__' key)")
    run_parser.add_argument(
        "--memo-max-bytes", type=int, default=None, metavar="N",
        help="size bound for --memo-dir; least-recently-used entries "
             "are evicted past N bytes (default: unbounded)")
    run_parser.add_argument(
        "--stream", type=int, default=None, metavar="N",
        help="stream N frames in streaming-capable experiments "
             "(ext_stream): timing is simulated once per distinct layer "
             "shape, then N frames replay it through the functional "
             "fast path")
    run_parser.add_argument(
        "--serve-jobs", type=int, default=None, metavar="N",
        help="serve N mixed jobs in service-capable experiments "
             "(ext_serve): inference/streaming/training round-robin "
             "through the supervised worker pool")
    run_parser.add_argument(
        "--cubes", type=int, default=None, metavar="N",
        help="shard multi-cube-capable experiments (ext_shard) across "
             "N cubes: one process per cube with conservative link-time "
             "sync, bit-identical to the same shards run serially")
    run_parser.add_argument(
        "--heartbeat", type=int, default=0, metavar="N",
        help="live telemetry: time host phases and snapshot metrics "
             "every N simulated cycles (0: off); with --trace, writes "
             "heartbeats_<id>.jsonl and OpenMetrics metrics_<id>.txt "
             "next to the trace")
    run_parser.add_argument(
        "--registry", default=None, metavar="DIR",
        help="append each experiment's manifest to the cross-run "
             "performance registry under DIR (requires --trace)")
    sub.add_parser(
        "report",
        help="regenerate the paper-vs-measured summary (EXPERIMENTS.md "
             "headline table)")
    return parser


def serialize(value):
    """Recursively turn a result object into JSON-compatible data.

    Dataclasses become dicts, enums their values, numpy arrays a
    shape/max summary (a temperature field does not belong in a JSON
    report), and unknown objects their repr.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: serialize(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, dict):
        return {str(k): serialize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [serialize(v) for v in value]
    if hasattr(value, "shape") and hasattr(value, "max"):
        return {"shape": list(value.shape), "max": float(value.max()),
                "min": float(value.min())}
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    return repr(value)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        for exp in sorted(EXPERIMENTS.values(), key=lambda e: e.exp_id):
            print(f"{exp.exp_id:<10} {exp.title}")
        return 0
    if args.command == "report":
        from repro.experiments.report import generate

        print(generate().to_table())
        return 0
    ids = (sorted(EXPERIMENTS) if args.ids == ["all"] else args.ids)
    as_json = getattr(args, "json", False)
    tracing = getattr(args, "trace", False)
    if getattr(args, "validate", False):
        from repro.core.compiler import set_default_validate

        set_default_validate(True)
    faults = None
    fault_spec = getattr(args, "faults", None)
    if fault_spec is not None:
        from repro.faults import FaultConfig

        faults = FaultConfig.from_spec(fault_spec)
    options = {"faults": faults, "checkpoint": _checkpoint_spec(args),
               "memo_dir": getattr(args, "memo_dir", None),
               "memo_max_bytes": getattr(args, "memo_max_bytes", None)}
    stream = getattr(args, "stream", None)
    if stream is not None:
        from repro.experiments import ext_stream

        ext_stream.set_frame_count(stream)
    serve_jobs = getattr(args, "serve_jobs", None)
    if serve_jobs is not None:
        from repro.experiments import ext_serve

        ext_serve.set_job_count(serve_jobs)
    cubes = getattr(args, "cubes", None)
    if cubes is not None:
        from repro.experiments import ext_shard

        ext_shard.set_cube_count(cubes)
    heartbeat = getattr(args, "heartbeat", 0)
    registry = getattr(args, "registry", None)
    if registry is not None and not tracing:
        print("neurocube-experiments: --registry needs --trace (the "
              "registry records run manifests)", file=sys.stderr)
        return 2
    memo_totals = None
    collected = {}
    try:
        for exp_id in ids:
            experiment = get_experiment(exp_id)
            result, session = _run_experiment(
                experiment, options,
                trace_dir=args.trace_dir if tracing else None,
                heartbeat=heartbeat, registry=registry)
            if session.options.memo_dir is not None:
                if memo_totals is None:
                    from repro.memo import MemoStats

                    memo_totals = MemoStats()
                memo_totals.merge(session.memo_stats())
            if as_json:
                collected[exp_id] = serialize(result)
            else:
                print(f"=== {experiment.exp_id}: {experiment.title} ===")
                print(result.to_table())
                print()
    finally:
        if stream is not None:
            from repro.experiments import ext_stream

            ext_stream.set_frame_count(None)
        if serve_jobs is not None:
            from repro.experiments import ext_serve

            ext_serve.set_job_count(None)
        if cubes is not None:
            from repro.experiments import ext_shard

            ext_shard.set_cube_count(None)
    if as_json:
        if memo_totals is not None:
            collected["__memo__"] = memo_totals.as_dict()
        print(json.dumps(collected, indent=2))
    return 0


def _checkpoint_spec(args):
    """Build a CheckpointSpec from the CLI flags, or None."""
    every = getattr(args, "checkpoint_every", 0)
    resume_from = getattr(args, "resume_from", None)
    if not every and resume_from is None:
        return None
    from repro.faults import CheckpointSpec

    directory = (resume_from if resume_from is not None
                 else getattr(args, "checkpoint_dir", "checkpoints"))
    return CheckpointSpec(directory=directory, every=every,
                          resume=resume_from is not None)


def _fault_summary(exp_id: str, session) -> None:
    """Print a session's folded fault counters to stderr."""
    nonzero = {name: value for name, value
               in session.fault_stats().as_dict().items() if value}
    degraded = sum(len(run.degraded) for run in session.runs)
    print(f"[faults] {exp_id}: {len(session.runs)} runs, "
          f"counters {nonzero or '{}'}, {degraded} degraded results",
          file=sys.stderr)


def _live_summary(exp_id: str, live) -> None:
    """Print a live session's phase/heartbeat summary to stderr."""
    phases = ", ".join(f"{name}={seconds:.3f}s" for name, seconds
                       in live.phase_breakdown().items())
    print(f"[live] {exp_id}: {live.cycles} cycles, "
          f"{len(live.heartbeats)} heartbeat(s), "
          f"phases {phases or 'none'}", file=sys.stderr)


def _run_experiment(experiment, options: dict, trace_dir=None,
                    heartbeat=0, registry=None):
    """Run one experiment inside one :class:`repro.obs.RunSession`.

    ``options`` are the session's :class:`repro.obs.RunOptions` fields,
    built from the CLI flags.  With ``trace_dir`` the run is traced and
    its artifacts written there by :func:`repro.obs.record_artifacts`
    (and recorded in ``registry`` when given); ``heartbeat`` turns on
    live telemetry.  Prints the ``[faults]`` / ``[memo]`` / ``[trace]``
    / ``[live]`` / ``[registry]`` lines for the flags that are on;
    returns ``(result, session)``.
    """
    from repro.obs import LiveTelemetry, RunSession, record_artifacts

    exp_id = experiment.exp_id
    recorded = None
    if trace_dir is not None:
        recorded = record_artifacts(exp_id, trace_dir, experiment.run,
                                    heartbeat=heartbeat, **options)
        result, session = recorded.result, recorded.session
    else:
        live = (LiveTelemetry(heartbeat_cycles=heartbeat) if heartbeat
                else None)
        with RunSession(live=live, **options) as session:
            result = experiment.run()
    if session.options.faults is not None:
        _fault_summary(exp_id, session)
    if session.options.memo_dir is not None:
        print(f"[memo] {exp_id}: {session.memo_stats().format()}",
              file=sys.stderr)
    if recorded is not None:
        if recorded.trace_path is not None:
            print(f"[trace] wrote {recorded.trace_path} "
                  f"({session.total_cycles} cycles, "
                  f"{len(session.runs)} runs)", file=sys.stderr)
        print(f"[trace] wrote {recorded.manifest_path}", file=sys.stderr)
    if heartbeat:
        _live_summary(exp_id, session.options.live)
    if registry is not None:
        from repro.obs import RunRegistry

        manifest = recorded.manifest
        record_path = RunRegistry(registry).record_run(
            manifest, attribution=manifest.get("attribution") or (),
            label=exp_id)
        print(f"[registry] recorded {record_path}", file=sys.stderr)
    return result, session


if __name__ == "__main__":
    sys.exit(main())
